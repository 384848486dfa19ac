//! Long-running differential fuzzer: random trees × random deletion orders,
//! spec engine vs distributed protocol, full invariant audit every step.
//! Runs until the iteration budget (first CLI arg, default 200) is spent;
//! prints a replayable seed on any failure.
//!
//! ```sh
//! cargo run -p ft-bench --release --bin fuzz_differential -- 1000
//! ```

#![forbid(unsafe_code)]

use ft_core::distributed::DistributedForgivingTree;
use ft_core::ForgivingTree;
use ft_graph::bfs::diameter_exact;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let mut failures = 0u32;
    for iter in 0..budget {
        let seed = 0x5EED_0000 + iter;
        let mut rng = StdRng::seed_from_u64(seed);
        let nn = rng.gen_range(3..=40);
        // mix tree families to diversify degree profiles
        let g = match iter % 3 {
            0 => gen::random_tree(nn, &mut rng),
            1 => gen::random_attachment_tree(nn, &mut rng),
            _ => gen::broom(2 + nn / 4, nn - 2 - nn / 4),
        };
        let tree = RootedTree::from_tree_graph(&g, NodeId(0));
        let mut order: Vec<NodeId> = tree.nodes().collect();
        order.shuffle(&mut rng);
        let stop = rng.gen_range(1..=order.len());
        let ok = std::panic::catch_unwind(|| {
            let mut spec = ForgivingTree::new(&tree);
            let mut dist = DistributedForgivingTree::new(&tree);
            let bound = spec.diameter_bound();
            for &v in order.iter().take(stop) {
                spec.delete(v);
                let dr = dist.delete(v);
                spec.validate();
                assert_eq!(spec.graph(), dist.graph(), "engines diverged");
                assert!(spec.max_degree_increase() <= 3, "Theorem 1.1");
                assert!(dr.rounds <= 8, "latency not O(1)");
                if spec.len() > 1 {
                    let d = diameter_exact(spec.graph()).expect("connected");
                    assert!(d <= bound, "Theorem 1.2 budget");
                }
            }
        });
        if ok.is_err() {
            failures += 1;
            eprintln!("FAILURE at seed {seed:#x} (n={nn}, stop={stop})");
        }
        if (iter + 1) % 50 == 0 {
            println!("{}/{budget} iterations, {failures} failures", iter + 1);
        }
    }
    assert_eq!(failures, 0, "{failures} differential failures");
    println!("fuzz clean: {budget} randomized differential runs, 0 failures");
}
