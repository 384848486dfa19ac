//! Rooted spanning trees.
//!
//! The Forgiving Tree "begins with a rooted spanning tree T, which without
//! loss of generality may as well be the entire network" (§3). This module
//! provides the [`RootedTree`] handed to the healer: either the input graph
//! itself (when it is a tree) or a BFS spanning tree extracted from a general
//! graph during the setup phase.

use crate::{bfs, Graph, NodeId};
use std::collections::BTreeMap;

/// A rooted tree over a set of node IDs.
///
/// Children lists are kept sorted by ID, matching the paper's convention of
/// arranging children "in sorted (say, ascending) order of their IDs".
///
/// Storage is dense over the IDs `0..=max`, where `max` is the largest
/// member: a parent array, a membership bitmap, and the children in CSR
/// form. IDs inside that range need not all be members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    len: usize,
    /// Membership bitmap, 64 IDs per word.
    member: Vec<u64>,
    /// `parent[v]`; `None` for the root and for IDs outside the tree.
    parent: Vec<Option<NodeId>>,
    /// The children of `v` are `kids[start[v]..start[v + 1]]`, ascending.
    start: Vec<usize>,
    kids: Vec<NodeId>,
}

impl RootedTree {
    /// Builds a rooted tree from explicit `(child, parent)` pairs plus a root.
    ///
    /// # Panics
    /// Panics if the pairs do not describe a tree rooted at `root` (cycles,
    /// disconnection, duplicate children, or parent chains that miss the
    /// root).
    pub fn from_parent_pairs(root: NodeId, pairs: &[(NodeId, NodeId)]) -> Self {
        let cap = pairs
            .iter()
            .flat_map(|&(c, p)| [c, p])
            .fold(root.index(), |m, v| m.max(v.index()))
            + 1;
        let mut member = vec![0u64; cap.div_ceil(64)];
        let mut insert = |v: NodeId| member[v.index() / 64] |= 1 << (v.index() % 64);
        insert(root);
        let mut parent = vec![None; cap];
        let mut start = vec![0usize; cap + 1];
        for &(c, p) in pairs {
            assert_ne!(c, root, "root cannot have a parent");
            assert!(parent[c.index()].is_none(), "node {c:?} has two parents");
            parent[c.index()] = Some(p);
            insert(c);
            insert(p);
            start[p.index() + 1] += 1;
        }
        for i in 0..cap {
            start[i + 1] += start[i];
        }
        // Filling in ascending child order leaves every range sorted.
        let mut next = start.clone();
        let mut kids = vec![NodeId(0); pairs.len()];
        for (c, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                kids[next[p.index()]] = NodeId(c as u32);
                next[p.index()] += 1;
            }
        }
        let t = RootedTree {
            root,
            len: member.iter().map(|w| w.count_ones() as usize).sum(),
            member,
            parent,
            start,
            kids,
        };
        t.validate();
        t
    }

    /// Interprets a tree-shaped [`Graph`] as a tree rooted at `root`.
    ///
    /// # Panics
    /// Panics if the graph is not connected or has `edges != nodes - 1`
    /// (i.e. is not a tree), or if `root` is not a live node.
    pub fn from_tree_graph(g: &Graph, root: NodeId) -> Self {
        assert!(g.is_alive(root), "root {root:?} is not alive");
        let (dist, pairs) = bfs::bfs_tree(g, root);
        assert_eq!(dist.len(), g.len(), "graph is not connected");
        assert_eq!(g.num_edges() + 1, g.len(), "graph is not a tree");
        Self::from_parent_pairs(root, &pairs)
    }

    /// Extracts the BFS spanning tree of a connected graph, rooted at `root`.
    /// This is the centralized stand-in for the distributed setup phase (the
    /// distributed protocol lives in `ft-sim`).
    ///
    /// # Panics
    /// Panics if the graph is disconnected or `root` is dead.
    pub fn bfs_spanning_tree(g: &Graph, root: NodeId) -> Self {
        assert!(g.is_alive(root), "root {root:?} is not alive");
        let (dist, pairs) = bfs::bfs_tree(g, root);
        assert_eq!(dist.len(), g.len(), "graph is not connected");
        Self::from_parent_pairs(root, &pairs)
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree has no nodes — never the case for constructed
    /// trees, which always contain at least the root.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.parent.len())
            .map(|i| NodeId(i as u32))
            .filter(|&v| self.contains(v))
    }

    /// Whether `v` belongs to the tree.
    pub fn contains(&self, v: NodeId) -> bool {
        self.member
            .get(v.index() / 64)
            .is_some_and(|w| w >> (v.index() % 64) & 1 == 1)
    }

    /// The parent of `v`, or `None` for the root.
    ///
    /// # Panics
    /// Panics if `v` is not in the tree.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        assert!(self.contains(v), "{v:?} not in tree");
        self.parent[v.index()]
    }

    /// The children of `v`, sorted ascending by ID.
    ///
    /// # Panics
    /// Panics if `v` is not in the tree.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        assert!(self.contains(v), "{v:?} not in tree");
        &self.kids[self.start[v.index()]..self.start[v.index() + 1]]
    }

    /// Whether `v` is a leaf (no children).
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// Tree degree of `v` (children + parent edge).
    pub fn degree(&self, v: NodeId) -> usize {
        self.children(v).len() + usize::from(self.parent(v).is_some())
    }

    /// Maximum tree degree (Δ of the spanning tree).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Calls `visit(v, depth)` for every node, parents before children.
    fn visit_depths(&self, mut visit: impl FnMut(NodeId, u32)) {
        let mut stack = vec![(self.root, 0u32)];
        while let Some((v, d)) = stack.pop() {
            visit(v, d);
            stack.extend(self.children(v).iter().map(|&c| (c, d + 1)));
        }
    }

    /// Depth of each node (root = 0), in ascending `NodeId` order.
    pub fn depths(&self) -> BTreeMap<NodeId, u32> {
        let mut depth = vec![0u32; self.parent.len()];
        self.visit_depths(|v, d| depth[v.index()] = d);
        self.nodes().map(|v| (v, depth[v.index()])).collect()
    }

    /// Height of the tree: maximum node depth (0 for a single node).
    pub fn height(&self) -> u32 {
        let mut height = 0;
        self.visit_depths(|_, d| height = height.max(d));
        height
    }

    /// The tree as an undirected [`Graph`] (capacity = max ID + 1; IDs not in
    /// the tree are marked dead).
    pub fn to_graph(&self) -> Graph {
        let cap = self.parent.len();
        let mut g = Graph::new(cap);
        // kill IDs that are not tree nodes so that node sets agree
        for i in 0..cap {
            if !self.contains(NodeId(i as u32)) {
                g.delete_node(NodeId(i as u32));
            }
        }
        for (c, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                g.add_edge(NodeId(c as u32), *p);
            }
        }
        g
    }

    /// Internal consistency check: every node reaches the root via parent
    /// pointers, children lists mirror parent pointers, and lists are sorted.
    /// O(n): the mirror checks, then one DFS from the root.
    ///
    /// # Panics
    /// Panics on violation (used by constructors and tests).
    pub fn validate(&self) {
        assert!(self.contains(self.root), "root missing");
        assert!(
            self.parent[self.root.index()].is_none(),
            "root must not have a parent"
        );
        for c in self.nodes() {
            if let Some(p) = self.parent[c.index()] {
                assert!(self.contains(p), "parent {p:?} of {c:?} not in tree");
                assert!(
                    self.children(p).binary_search(&c).is_ok(),
                    "children list of {p:?} misses {c:?}"
                );
            }
        }
        for p in self.nodes() {
            let list = self.children(p);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted children");
            for &c in list {
                assert_eq!(self.parent[c.index()], Some(p), "parent mismatch for {c:?}");
            }
        }
        // With the mirror holding, the DFS from the root reaches exactly the
        // members whose parent chains end at the root. Report the lowest
        // unreached member the way a parent-chain walk finds it.
        let mut reached = vec![false; self.parent.len()];
        self.visit_depths(|v, _| reached[v.index()] = true);
        if let Some(v) = self.nodes().find(|v| !reached[v.index()]) {
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = self.parent[cur.index()] {
                cur = p;
                steps += 1;
                assert!(steps <= self.len, "cycle in parent chain at {v:?}");
            }
            assert_eq!(cur, self.root, "{v:?} does not reach the root");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn from_parent_pairs_basic() {
        let t = RootedTree::from_parent_pairs(n(0), &[(n(1), n(0)), (n(2), n(0)), (n(3), n(1))]);
        assert_eq!(t.root(), n(0));
        assert_eq!(t.children(n(0)), &[n(1), n(2)]);
        assert_eq!(t.parent(n(3)), Some(n(1)));
        assert!(t.is_leaf(n(3)));
        assert!(!t.is_leaf(n(1)));
        assert_eq!(t.height(), 2);
        assert_eq!(t.degree(n(1)), 2);
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn duplicate_parent_rejected() {
        RootedTree::from_parent_pairs(n(0), &[(n(1), n(0)), (n(1), n(2))]);
    }

    #[test]
    #[should_panic(expected = "cycle in parent chain")]
    fn cycle_rejected() {
        // 1 -> 2 -> 1 cycle disconnected from the root
        RootedTree::from_parent_pairs(n(0), &[(n(1), n(2)), (n(2), n(1))]);
    }

    #[test]
    fn from_tree_graph_roundtrip() {
        let g = gen::kary_tree(15, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        assert_eq!(t.len(), 15);
        assert_eq!(t.height(), 3);
        assert_eq!(t.to_graph(), g);
    }

    #[test]
    #[should_panic(expected = "not a tree")]
    fn from_tree_graph_rejects_cycles() {
        let g = gen::cycle(4);
        RootedTree::from_tree_graph(&g, n(0));
    }

    #[test]
    fn bfs_spanning_tree_of_grid() {
        let g = gen::grid(3, 3);
        let t = RootedTree::bfs_spanning_tree(&g, n(0));
        assert_eq!(t.len(), 9);
        // BFS tree height equals eccentricity of the root
        assert_eq!(t.height(), crate::bfs::eccentricity(&g, n(0)).unwrap());
        // every tree edge is a graph edge
        for v in t.nodes() {
            if let Some(p) = t.parent(v) {
                assert!(g.has_edge(v, p));
            }
        }
    }

    #[test]
    fn depths_of_path() {
        let g = gen::path(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let d = t.depths();
        assert_eq!(d[&n(4)], 4);
        assert_eq!(d[&n(0)], 0);
    }

    #[test]
    fn spanning_trees_of_random_graphs_validate() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let g = gen::gnp_connected(60, 0.05, &mut rng);
            let t = RootedTree::bfs_spanning_tree(&g, n(0));
            t.validate();
            assert_eq!(t.len(), 60);
        }
    }

    #[test]
    fn single_node_tree() {
        let t = RootedTree::from_parent_pairs(n(7), &[]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 0);
        assert!(t.is_leaf(n(7)));
        assert_eq!(t.degree(n(7)), 0);
        let g = t.to_graph();
        assert_eq!(g.len(), 1);
        assert!(g.is_alive(n(7)));
    }

    /// The ordered-map tree the dense layout replaced, kept as the
    /// reference the dense tree is checked against.
    mod oracle {
        use crate::{Graph, NodeId};
        use std::collections::BTreeMap;

        pub struct MapTree {
            pub root: NodeId,
            pub parent: BTreeMap<NodeId, NodeId>,
            pub children: BTreeMap<NodeId, Vec<NodeId>>,
        }

        impl MapTree {
            pub fn from_parent_pairs(root: NodeId, pairs: &[(NodeId, NodeId)]) -> Self {
                let mut parent = BTreeMap::new();
                let mut children: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
                children.entry(root).or_default();
                for &(c, p) in pairs {
                    assert_ne!(c, root, "root cannot have a parent");
                    let prev = parent.insert(c, p);
                    assert!(prev.is_none(), "node {c:?} has two parents");
                    children.entry(p).or_default().push(c);
                    children.entry(c).or_default();
                }
                for list in children.values_mut() {
                    list.sort_unstable();
                }
                let t = MapTree {
                    root,
                    parent,
                    children,
                };
                for v in t.children.keys().copied() {
                    let mut cur = v;
                    let mut steps = 0;
                    while let Some(p) = t.parent.get(&cur) {
                        cur = *p;
                        steps += 1;
                        assert!(steps <= t.children.len(), "cycle in parent chain at {v:?}");
                    }
                    assert_eq!(cur, t.root, "{v:?} does not reach the root");
                }
                t
            }

            pub fn depths(&self) -> BTreeMap<NodeId, u32> {
                let mut depths = BTreeMap::new();
                let mut stack = vec![(self.root, 0u32)];
                while let Some((v, d)) = stack.pop() {
                    depths.insert(v, d);
                    for &c in &self.children[&v] {
                        stack.push((c, d + 1));
                    }
                }
                depths
            }

            pub fn max_degree(&self) -> usize {
                self.children
                    .iter()
                    .map(|(v, list)| list.len() + usize::from(self.parent.contains_key(v)))
                    .max()
                    .unwrap_or(0)
            }

            pub fn to_graph(&self) -> Graph {
                let cap = self
                    .children
                    .keys()
                    .map(|v| v.index() + 1)
                    .max()
                    .unwrap_or(0);
                let mut g = Graph::new(cap);
                for i in 0..cap {
                    if !self.children.contains_key(&NodeId(i as u32)) {
                        g.delete_node(NodeId(i as u32));
                    }
                }
                for (&c, &p) in &self.parent {
                    g.add_edge(c, p);
                }
                g
            }
        }
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A random recursive tree on `n` sparse IDs as shuffled
    /// `(child, parent)` pairs, plus one optional defect: `0` none, `1` a
    /// parent for the root, `2` a second parent, `3` a detached 2-cycle,
    /// `4` a detached chain ending at a parentless node.
    fn random_pairs(n: usize, seed: u64, defect: usize) -> (NodeId, Vec<(NodeId, NodeId)>) {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<NodeId> = (0..4 * n as u32).map(NodeId).collect();
        ids.shuffle(&mut rng);
        ids.truncate(n);
        let mut pairs: Vec<(NodeId, NodeId)> =
            (1..n).map(|i| (ids[i], ids[rng.gen_range(0..i)])).collect();
        let fresh = |k: u32| NodeId(4 * n as u32 + k);
        let bad = match defect {
            1 => vec![(ids[0], fresh(0))],
            2 if n > 1 => vec![(ids[n - 1], fresh(0))],
            3 => vec![(fresh(0), fresh(1)), (fresh(1), fresh(0))],
            4 => vec![(fresh(0), fresh(1))],
            _ => vec![],
        };
        pairs.extend(bad);
        pairs.shuffle(&mut rng);
        (ids[0], pairs)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The dense tree agrees with the ordered-map reference on every
        /// accessor, and rejects malformed input with the same message.
        #[test]
        fn dense_tree_matches_the_map_reference(
            n in 1usize..40,
            seed in 0u64..1_000_000,
            defect in 0usize..8,
        ) {
            let (root, pairs) = random_pairs(n, seed, defect);
            let want = std::panic::catch_unwind(|| oracle::MapTree::from_parent_pairs(root, &pairs));
            let got = std::panic::catch_unwind(|| RootedTree::from_parent_pairs(root, &pairs));
            match (want, got) {
                (Ok(want), Ok(got)) => {
                    proptest::prop_assert_eq!(got.root(), root);
                    proptest::prop_assert_eq!(got.len(), want.children.len());
                    proptest::prop_assert!(got.nodes().eq(want.children.keys().copied()));
                    for (&v, kids) in &want.children {
                        proptest::prop_assert_eq!(got.parent(v), want.parent.get(&v).copied());
                        proptest::prop_assert_eq!(got.children(v), kids.as_slice());
                    }
                    proptest::prop_assert_eq!(got.depths(), want.depths());
                    proptest::prop_assert_eq!(got.height(), want.depths().into_values().max().unwrap_or(0));
                    proptest::prop_assert_eq!(got.to_graph(), want.to_graph());
                    proptest::prop_assert_eq!(got.max_degree(), want.max_degree());
                    proptest::prop_assert_eq!(&RootedTree::from_parent_pairs(root, &pairs), &got);
                }
                (Err(want), Err(got)) => {
                    proptest::prop_assert_eq!(panic_message(got), panic_message(want));
                }
                (want, got) => panic!(
                    "reference panicked: {}, dense panicked: {}",
                    want.is_err(),
                    got.is_err()
                ),
            }
        }
    }
}
