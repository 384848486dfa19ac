//! Differential tests: the distributed protocol against the spec engine.
//!
//! Both engines are driven with identical deletion sequences; after *every*
//! deletion the healed graphs must be identical (same live nodes, same edge
//! sets). This is the strongest evidence the message-level protocol realizes
//! the paper's data structure.

use crate::distributed::DistributedForgivingTree;
use crate::spec::ForgivingTree;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Runs both engines in lock-step, asserting graph equality and the O(1)
/// round/message bounds after every deletion.
fn differential_run(tree: &RootedTree, order: &[NodeId]) {
    let mut spec = ForgivingTree::new(tree);
    let mut dist = DistributedForgivingTree::new(tree);
    assert_eq!(spec.graph(), dist.graph(), "initial graphs differ");
    for (step, &v) in order.iter().enumerate() {
        let sr = spec.delete(v);
        let before = dist.graph().clone();
        let dr = dist.delete(v);
        let gained: Vec<(NodeId, NodeId)> = dist
            .graph()
            .edges()
            .into_iter()
            .filter(|&(a, b)| !before.has_edge(a, b))
            .collect();
        assert_eq!(dr.edges_added, gained, "edges_added is the graph diff");
        spec.validate();
        assert_eq!(
            spec.graph(),
            dist.graph(),
            "graphs diverged after step {step} (deleting {v:?}; order {order:?})\nspec: {:?}\ndist: {:?}",
            spec.graph().edges(),
            dist.graph().edges()
        );
        assert!(
            dr.rounds <= 8,
            "recovery took {} rounds (not O(1))",
            dr.rounds
        );
        assert!(
            dr.max_messages_per_node <= 40,
            "a node handled {} messages in one heal",
            dr.max_messages_per_node
        );
        let _ = sr;
    }
    assert!(dist.is_empty());
    // the simulator's books must reconcile after every campaign
    dist.network()
        .check_accounting()
        .expect("message ledger imbalance");
}

#[test]
fn two_node_tree() {
    for order in [[0u32, 1], [1, 0]] {
        let t = RootedTree::from_parent_pairs(n(0), &[(n(1), n(0))]);
        let order: Vec<NodeId> = order.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn star_all_orders() {
    let perms = permutations(&[0, 1, 2, 3, 4]);
    for perm in perms {
        let g = gen::star(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn path_all_orders() {
    let perms = permutations(&[0, 1, 2, 3, 4]);
    for perm in perms {
        let g = gen::path(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn binary_tree_all_orders() {
    // 7! = 5040 full differential runs
    let perms = permutations(&[0, 1, 2, 3, 4, 5, 6]);
    for perm in perms {
        let g = gen::kary_tree(7, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn wide_star_with_root_first() {
    let g = gen::star(20);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut order: Vec<NodeId> = t.nodes().collect();
    // root first, then leaves in an interleaved order
    order.sort_by_key(|v| (v.0 != 0, v.0 % 3, v.0));
    differential_run(&t, &order);
}

#[test]
fn caterpillar_random_orders() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..15 {
        let g = gen::caterpillar(4, 3);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);
    }
}

#[test]
fn kary_trees_random_orders() {
    let mut rng = StdRng::seed_from_u64(23);
    for k in [2usize, 3, 5] {
        for _ in 0..8 {
            let g = gen::kary_tree(31, k);
            let t = RootedTree::from_tree_graph(&g, n(0));
            let mut order: Vec<NodeId> = t.nodes().collect();
            order.shuffle(&mut rng);
            differential_run(&t, &order);
        }
    }
}

#[test]
fn broom_random_orders() {
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..15 {
        let g = gen::broom(4, 8);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);
    }
}

#[test]
fn heir_chain_stress() {
    // repeatedly delete the current heir of the root's will: exercises
    // ready-heir takeover chains
    let g = gen::kary_tree(31, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut spec = ForgivingTree::new(&t);
    let mut dist = DistributedForgivingTree::new(&t);
    while !spec.is_empty() {
        let target = spec
            .nodes()
            .filter_map(|v| spec.heir_of(v))
            .next()
            .or_else(|| spec.nodes().next())
            .expect("nonempty");
        spec.delete(target);
        dist.delete(target);
        spec.validate();
        assert_eq!(spec.graph(), dist.graph(), "diverged at {target:?}");
    }
}

#[test]
fn distributed_node_introspection() {
    let g = gen::star(6);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut dist = DistributedForgivingTree::new(&t);
    dist.delete(n(0));
    // heir (highest-ID child) ends in ready state
    assert!(dist.node(n(5)).is_ready_heir());
    // the other children are deployed helpers
    for c in [1u32, 2, 3, 4] {
        assert!(dist.node(n(c)).is_helper(), "n{c} should be a helper");
        assert!(!dist.node(n(c)).is_ready_heir());
    }
}

#[test]
fn books_balance_after_a_wave_campaign() {
    // Regression for the split-ledger bugs: per-node counts were charged at
    // send time from the outbox (including mail later dropped on dead
    // addressees) while totals counted deliveries, and deletion notices
    // appeared in only one book. After a whole campaign the single ledger
    // must satisfy both identities.
    use ft_sim::{Campaign, CampaignConfig};

    let g = gen::kary_tree(63, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut dist = DistributedForgivingTree::new(&t);
    let mut campaign = Campaign::new(CampaignConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    while dist.len() > 8 {
        let mut victims: Vec<NodeId> = dist.nodes().collect();
        victims.shuffle(&mut rng);
        victims.truncate(4);
        campaign.run_wave(dist.network_mut(), &victims);
        dist.network().check_accounting().expect("books balance");
    }
    let ledger = dist.ledger();
    assert_eq!(
        ledger.sum_per_node(),
        2 * ledger.total_messages() - ledger.notices(),
        "per-node books reconcile with the totals"
    );
    assert!(ledger.notices() > 0, "deletion notices are on the books");
    assert_eq!(
        campaign.report().messages,
        ledger.total_messages(),
        "campaign report derives from the same ledger"
    );
    assert_eq!(campaign.report().deletions, 63 - dist.len());
}

fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential equivalence on uniformly random trees and orders.
    #[test]
    fn random_trees_differential(
        nn in 3usize..18,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(nn, &mut rng);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);
    }
}

/// A tree with one hub of `hub` children (the rest attached to random
/// earlier nodes), as parent pairs rooted at 0.
fn hub_tree(hub: usize, rest: usize, rng: &mut StdRng) -> RootedTree {
    use rand::Rng;
    let mut pairs: Vec<(NodeId, NodeId)> = (1..=hub as u32).map(|c| (n(c), n(0))).collect();
    for c in hub + 1..=hub + rest {
        pairs.push((n(c as u32), n(rng.gen_range(0..c as u32))));
    }
    RootedTree::from_parent_pairs(n(0), &pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The delta-driven portion refresh against the full recompute. In
    /// debug builds every refresh re-derives all portions and asserts the
    /// delta sent exactly the changed ones; this drives it over hubs of up
    /// to 64 children and whole deletion sequences, fault-free (checked
    /// against the spec engine after every deletion) and under chaos.
    #[test]
    fn delta_refresh_matches_the_full_recompute(
        hub in 2usize..=64,
        rest in 0usize..40,
        seed in 0u64..10_000,
    ) {
        use ft_sim::{Campaign, CampaignConfig, FaultConfig};

        let mut rng = StdRng::seed_from_u64(seed);
        let t = hub_tree(hub, rest, &mut rng);
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);

        let mut dist = DistributedForgivingTree::new(&t);
        let plan = FaultConfig::from_name("chaos").expect("known model").plan(seed);
        dist.network_mut().set_fault_plan(Some(plan));
        let mut campaign = Campaign::new(CampaignConfig::default());
        for wave in order[..order.len() - 1].chunks(3) {
            campaign.run_wave(dist.network_mut(), wave);
        }
        dist.network().check_accounting().expect("books balance");
    }
}

/// Every heal callback touches its processor, so its size is cache lines
/// per event: role lists and edge interests stay inline and the held
/// portion stays boxed.
#[test]
fn processor_stays_within_its_layout_bound() {
    let size = std::mem::size_of::<crate::distributed::FtNode>();
    assert!(size <= 200, "FtNode is {size} bytes");
}
