//! E2 — Theorem 1.2: the healed diameter never exceeds `O(D·log Δ)`;
//! measured against the explicit budget `2·h₀·(⌈log₂ Δ⌉+2)+2`.

#![forbid(unsafe_code)]

use ft_adversary::standard_suite;
use ft_bench::{diameter_budget, ft_trial};
use ft_metrics::{Table, Workload};

fn main() {
    let mut table = Table::new(
        "E2 / Theorem 1.2 — diameter stretch vs O(D log Δ) budget",
        &[
            "workload",
            "n",
            "D0",
            "Δ0",
            "adversary",
            "max diam",
            "stretch",
            "budget",
            "within",
        ],
    );
    for n in [64usize, 256, 1024] {
        for w in Workload::suite(n) {
            let h0 = w.tree().height();
            for adv in standard_suite(7).iter_mut() {
                if adv.name() == "diameter-greedy" && n > 64 {
                    continue;
                }
                let t = ft_trial(&w, adv.as_mut(), 1.0);
                let budget = diameter_budget(h0, t.summary.delta0);
                table.push(vec![
                    t.summary.workload.clone(),
                    n.to_string(),
                    t.summary.diam0.to_string(),
                    t.summary.delta0.to_string(),
                    t.summary.adversary.clone(),
                    t.summary.max_diameter.to_string(),
                    format!("{:.2}", t.summary.max_stretch),
                    budget.to_string(),
                    (t.summary.max_diameter <= budget).to_string(),
                ]);
                assert!(
                    t.summary.max_diameter <= budget,
                    "THEOREM 1.2 BUDGET EXCEEDED: {}",
                    t.summary
                );
            }
        }
    }
    table.print();
    println!("\nall {} trials within the diameter budget", table.len());
}
