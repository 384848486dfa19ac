//! Bad user input to the `ftree` binary is a usage error (exit 2), never a
//! panic (exit 101).

use std::process::Command;

/// Runs `ftree` with `args` in the temp directory (so a command that wrongly
/// succeeds writes its record there) and returns its exit code; its output
/// is captured and dropped.
fn ftree_exit_code(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_ftree"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn ftree");
    out.status.code().expect("ftree exited by signal")
}

#[test]
fn empty_tree_stress_is_a_usage_error() {
    assert_eq!(ftree_exit_code(&["stress", "--nodes", "0"]), 2);
}

#[test]
fn empty_graph_stress_is_a_usage_error() {
    assert_eq!(
        ftree_exit_code(&["stress", "--model", "graph", "--nodes", "0"]),
        2
    );
}

#[test]
fn empty_fault_matrix_is_a_usage_error() {
    assert_eq!(ftree_exit_code(&["faults", "--nodes", "0"]), 2);
}

#[test]
fn empty_workloads_are_usage_errors() {
    for workload in [
        "path:0",
        "star:0",
        "kary4:0",
        "kary0:10",
        "caterpillar:0x3",
        "broom:0+3",
        "random:0",
        "pref:0",
    ] {
        assert_eq!(
            ftree_exit_code(&["attack", "--workload", workload]),
            2,
            "attack --workload {workload}"
        );
    }
    assert_eq!(ftree_exit_code(&["duel", "--workload", "path:0"]), 2);
}

#[test]
fn smallest_workload_still_runs() {
    assert_eq!(ftree_exit_code(&["attack", "--workload", "path:1"]), 0);
}
