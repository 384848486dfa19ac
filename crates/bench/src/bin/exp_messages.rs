//! E3 — Theorem 1.3: healing one deletion takes O(1) rounds and O(1)
//! messages per node, independent of n and Δ. Runs both the analytic spec
//! accounting and the real distributed protocol and reports worst cases.

#![forbid(unsafe_code)]

use ft_core::distributed::DistributedForgivingTree;
use ft_core::ForgivingTree;
use ft_graph::NodeId;
use ft_metrics::{Table, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let mut table = Table::new(
        "E3 / Theorem 1.3 — messages per node & rounds per heal (must not grow with n or Δ)",
        &[
            "workload",
            "n",
            "engine",
            "worst node msgs",
            "worst heal msgs",
            "mean heal msgs",
            "worst rounds",
        ],
    );
    for n in [64usize, 256, 1024] {
        for w in [
            Workload::Star(n),
            Workload::Kary(n, 2),
            Workload::Kary(n, 16),
            Workload::RandomTree(n, 5),
        ] {
            let tree = w.tree();
            let mut order: Vec<NodeId> = tree.nodes().collect();
            let mut rng = StdRng::seed_from_u64(n as u64);
            order.shuffle(&mut rng);

            // analytic accounting (spec engine)
            let mut ft = ForgivingTree::new(&tree);
            let (mut worst_node, mut worst_heal, mut total, mut worst_rounds) = (0, 0, 0usize, 0);
            for &v in &order {
                let r = ft.delete(v);
                worst_node = worst_node.max(r.max_messages_per_node);
                worst_heal = worst_heal.max(r.total_messages);
                total += r.total_messages;
                worst_rounds = worst_rounds.max(r.rounds);
            }
            table.push(vec![
                w.name(),
                n.to_string(),
                "spec".into(),
                worst_node.to_string(),
                worst_heal.to_string(),
                format!("{:.1}", total as f64 / order.len() as f64),
                worst_rounds.to_string(),
            ]);

            // real protocol messages (distributed engine); cap n for runtime
            if n <= 256 {
                let mut dft = DistributedForgivingTree::new(&tree);
                let (mut wn, mut wh, mut tt, mut wr) = (0, 0, 0usize, 0);
                for &v in &order {
                    let r = dft.delete(v);
                    wn = wn.max(r.max_messages_per_node);
                    wh = wh.max(r.total_messages);
                    tt += r.total_messages;
                    wr = wr.max(r.rounds);
                }
                table.push(vec![
                    w.name(),
                    n.to_string(),
                    "distributed".into(),
                    wn.to_string(),
                    wh.to_string(),
                    format!("{:.1}", tt as f64 / order.len() as f64),
                    wr.to_string(),
                ]);
            }
            assert!(worst_node <= 24, "per-node messages grew: {worst_node}");
        }
    }
    table.print();
    println!("\nper-node message ceilings flat across n: Theorem 1.3 holds");
}
