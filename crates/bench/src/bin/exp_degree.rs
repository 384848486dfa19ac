//! E1 — Theorem 1.1: the Forgiving Tree never increases any node's degree
//! by more than 3, under every workload × adversary, for full deletion
//! sequences.

#![forbid(unsafe_code)]

use ft_adversary::standard_suite;
use ft_bench::ft_trial;
use ft_metrics::{Table, Workload};

fn main() {
    let mut table = Table::new(
        "E1 / Theorem 1.1 — max degree increase (paper bound: 3)",
        &[
            "workload",
            "n",
            "Δ0",
            "adversary",
            "max deg increase",
            "bound ok",
        ],
    );
    for n in [64usize, 256, 1024] {
        for w in Workload::suite(n) {
            for adv in standard_suite(42).iter_mut() {
                // the greedy adversary is O(n²·m); skip it at large n
                if adv.name() == "diameter-greedy" && n > 64 {
                    continue;
                }
                let t = ft_trial(&w, adv.as_mut(), 1.0);
                table.push(vec![
                    t.summary.workload.clone(),
                    t.summary.n0.to_string(),
                    t.summary.delta0.to_string(),
                    t.summary.adversary.clone(),
                    format!("+{}", t.summary.max_degree_increase),
                    (t.summary.max_degree_increase <= 3).to_string(),
                ]);
                assert!(
                    t.summary.max_degree_increase <= 3,
                    "THEOREM 1.1 VIOLATED: {}",
                    t.summary
                );
            }
        }
    }
    table.print();
    println!("\nall {} trials within the +3 bound", table.len());
}
