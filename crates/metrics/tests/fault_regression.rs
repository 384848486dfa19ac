//! Seeded fault-injection regression: one fixed 10⁴-node mixed campaign
//! under the chaos fault model, every headline figure pinned — including
//! the FNV-1a fingerprint of the realized fault schedule. The fingerprint
//! folds every Lose/Duplicate/Delay/crash decision in delivery order, so
//! it is the sharpest tripwire the fault axis has: any change to the plan
//! hash, the fate thresholds, the maturation order, or the engine's
//! delivery sequence moves it. A changed pin means the fault axis stopped
//! being deterministic (or changed semantics) and must be understood
//! before the pin is moved.

use ft_metrics::{run_graph_stress, run_stress, GraphStressConfig, StressConfig};

#[test]
fn seeded_regression_pins_faulty_ten_thousand_node_figures() {
    let rec = run_graph_stress(&GraphStressConfig {
        nodes: 10_000,
        events: 160,
        wave_size: 20,
        insert_fraction: 0.4,
        extra_edges: 0.2,
        planner: "mixed".into(),
        seed: 20_260_807,
        stretch_sources: 8,
        threads: 2,
        stretch_mode: "full".into(),
        faults: "chaos".into(),
    });
    // The books must balance on every faulty run — that identity never
    // relaxes — and the campaign must have realized faults on every axis.
    assert!(rec.balanced, "faulty ledger out of balance");
    assert!(rec.lost > 0, "chaos lost no messages");
    assert!(rec.duplicated > 0, "chaos duplicated no messages");
    assert!(rec.delayed > 0, "chaos delayed no messages");
    assert!(rec.crashes > 0, "chaos crashed no deletions");
    assert_eq!(
        (rec.insertions, rec.deletions, rec.waves, rec.rounds),
        (71, 89, 8, 689),
        "campaign shape"
    );
    assert_eq!(
        (rec.sent, rec.delivered, rec.dropped, rec.notices, rec.joins),
        (1248, 1105, 0, 211, 136),
        "ledger books"
    );
    assert_eq!(
        (rec.lost, rec.duplicated, rec.delayed, rec.crashes),
        (202, 59, 248, 43),
        "fault books"
    );
    assert_eq!(
        rec.fault_fingerprint, 0x460c_7a4e_1b9e_9147,
        "fault-schedule fingerprint"
    );
    assert_eq!(
        (rec.converged, rec.connected, rec.wills_ok),
        (true, true, false),
        "survival verdicts"
    );
    assert_eq!(rec.cost.messages_delivered, 1105, "engine cost spine");
}

/// Lost, duplicated or late mail can leave a tree processor in a state the
/// fault-free protocol never produces. Each campaign below is the smallest
/// one found that reaches one such state; every one of them used to abort
/// the run with a panic. The processor now skips the impossible step, the
/// books still balance, and the damage is left to the record's verdicts.
#[test]
fn tree_processor_survives_fault_states_without_panicking() {
    let cases: [(usize, usize, &str, u64, &str); 7] = [
        (30, 18, "chaos", 25, "adopter still busy after the splice"),
        (
            30,
            29,
            "partition",
            12,
            "a dissolving helper with two survivors",
        ),
        (30, 29, "loss", 26, "a ready vnode with more than one child"),
        (
            30,
            29,
            "chaos",
            19,
            "a short-circuit with a slot unoccupied",
        ),
        (30, 29, "loss", 36, "a leaf holding a role under its parent"),
        (
            100,
            99,
            "loss",
            54,
            "an occupant announcing itself to no helper",
        ),
        (
            800,
            799,
            "chaos",
            53,
            "a helper losing a child listed twice",
        ),
    ];
    for (nodes, deletions, faults, seed, state) in cases {
        let rec = run_stress(&StressConfig {
            nodes,
            deletions,
            wave_size: 10,
            seed,
            threads: 1,
            faults: faults.into(),
            ..StressConfig::default()
        });
        assert!(rec.balanced, "{state}: faulty ledger out of balance");
        assert_eq!(rec.deletions, deletions, "{state}: campaign cut short");
        assert!(
            rec.lost + rec.duplicated + rec.delayed > 0,
            "{state}: no faults"
        );
    }
}
