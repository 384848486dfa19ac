//! E9 — setup-phase costs: the distributed BFS spanning-tree construction
//! (latency ≈ eccentricity of the root; messages per edge) plus the will
//! distribution (O(1) messages per tree edge). The paper budgets diameter
//! latency and O(log n) messages per edge (Cohen \[4\]); our designated-root
//! protocol achieves O(1) per edge.

#![forbid(unsafe_code)]

use ft_graph::bfs::eccentricity;
use ft_graph::{gen, NodeId};
use ft_metrics::Table;
use ft_sim::bfs::distributed_bfs_tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut table = Table::new(
        "E9 — setup phase: distributed BFS tree + will distribution",
        &[
            "graph",
            "n",
            "m",
            "ecc(root)",
            "BFS rounds",
            "BFS msgs/edge",
            "will msgs/edge",
        ],
    );
    let mut rng = StdRng::seed_from_u64(99);
    let cases: Vec<(String, ft_graph::Graph)> = vec![
        ("grid 16x16".into(), gen::grid(16, 16)),
        ("hypercube d=8".into(), gen::hypercube(8)),
        (
            "gnp n=512 p=8/n".into(),
            gen::gnp_connected(512, 8.0 / 512.0, &mut rng),
        ),
        (
            "ba n=512 m=3".into(),
            gen::barabasi_albert(512, 3, &mut rng),
        ),
        (
            "random-regular d=4".into(),
            gen::random_regular(512, 4, &mut rng),
        ),
    ];
    for (name, g) in cases {
        let ecc = eccentricity(&g, NodeId(0)).expect("connected");
        let out = distributed_bfs_tree(&g, NodeId(0));
        // will distribution: each node sends one portion per child => one
        // message per tree edge, plus one LeafWill per leaf
        let tree_edges = out.tree.len() - 1;
        let leaves = out.tree.nodes().filter(|&v| out.tree.is_leaf(v)).count();
        let will_msgs = tree_edges + leaves;
        table.push(vec![
            name,
            g.len().to_string(),
            g.num_edges().to_string(),
            ecc.to_string(),
            out.rounds.to_string(),
            format!("{:.2}", out.messages_per_edge),
            format!("{:.2}", will_msgs as f64 / g.num_edges() as f64),
        ]);
        assert!(out.rounds as u64 <= ecc as u64 + 2, "latency beyond ecc+2");
        assert!(out.messages_per_edge <= 4.0, "more than O(1) msgs/edge");
    }
    table.print();
    println!("\nsetup latency tracks ecc(root); msgs/edge constant (≤ paper's O(log n) budget)");
}
