//! Graph substrate for the Forgiving Tree reproduction.
//!
//! This crate provides the undirected-graph machinery the paper implicitly
//! relies on: an adjacency-set graph type ([`Graph`]), breadth-first search
//! and distance queries ([`bfs`]), exact and estimated diameter computation,
//! rooted spanning trees ([`tree`]), and the workload generators used by the
//! experiments ([`gen`]).
//!
//! # Example
//!
//! ```
//! use ft_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1));
//! g.add_edge(NodeId(1), NodeId(2));
//! g.add_edge(NodeId(2), NodeId(3));
//! assert!(g.is_connected());
//! assert_eq!(ft_graph::bfs::diameter_exact(&g), Some(3));
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod gen;
pub mod tree;

use std::fmt;

/// Identifier of a node (processor) in the network.
///
/// The Forgiving Tree algorithm assumes "each node v has a unique
/// identification number which we call ID(v)" (§3.1.1); `NodeId` is that
/// number. IDs are dense (`0..n`) in freshly generated graphs but deletion
/// leaves holes, so code must never assume contiguity after healing starts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for dense arrays sized by the initial node count.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// One move of the Forgiving Graph's insert/delete adversary (Hayes–Saia–
/// Trehan, arXiv:0902.2501): per time step the adversary may delete an
/// existing node or insert a fresh one attached to chosen live neighbors.
///
/// Planners (`ft-adversary`) emit these and campaign drivers (`ft-sim`)
/// apply them; the type lives here so neither crate depends on the other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Delete a live node; its neighbors are notified.
    Delete(NodeId),
    /// Insert a fresh node attached to the listed live nodes (neighbors
    /// dead by apply time are skipped; an insert with no surviving
    /// neighbor is dropped).
    Insert {
        /// The nodes the newcomer wires itself to.
        neighbors: Vec<NodeId>,
    },
}

/// An undirected simple graph over nodes `0..capacity`, supporting node
/// deletion (the adversary's move) and edge insertion/removal (the healer's
/// move).
///
/// Adjacency is kept as one sorted, contiguous `Vec<NodeId>` per node
/// (struct-of-arrays style): iteration order stays deterministic ascending
/// — which keeps every experiment and property test reproducible — while
/// neighbor walks are cache-linear instead of pointer-chasing tree nodes.
/// Membership tests and mutations are `O(log d)` binary searches plus an
/// `O(d)` shift, a trade that wins for the low-degree graphs the healing
/// algorithms guarantee (degree increase ≤ 3).
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// Sorted neighbor list per slot (ascending, no duplicates).
    adj: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    num_alive: usize,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated live nodes `0..n`.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            alive: vec![true; n],
            num_alive: n,
            num_edges: 0,
        }
    }

    /// Builds a graph from an explicit edge list over `n` nodes.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Graph::new(n);
        for &(a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    /// Number of node slots (live or deleted); valid IDs are `0..capacity`.
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.num_alive
    }

    /// True when no live nodes remain.
    pub fn is_empty(&self) -> bool {
        self.num_alive == 0
    }

    /// Number of (undirected) edges between live nodes.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Is `v` a live node?
    pub fn is_alive(&self, v: NodeId) -> bool {
        v.index() < self.alive.len() && self.alive[v.index()]
    }

    /// Iterator over live node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Neighbors of `v` in ascending ID order.
    ///
    /// # Panics
    /// Panics if `v` was never a node of this graph.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[v.index()].iter().copied()
    }

    /// The degree of `v` (0 for deleted nodes).
    pub fn degree(&self, v: NodeId) -> usize {
        if self.is_alive(v) {
            self.adj[v.index()].len()
        } else {
            0
        }
    }

    /// Maximum degree over live nodes (Δ in the paper); 0 for empty graphs.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the (undirected) edge `{a, b}` is present.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.is_alive(a) && self.is_alive(b) && self.adj[a.index()].binary_search(&b).is_ok()
    }

    /// Inserts the undirected edge `{a, b}`. Returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on self-loops or dead/out-of-range endpoints: the healing
    /// algorithms must never produce those, so they are bugs, not errors.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert_ne!(a, b, "self-loop {a:?}");
        assert!(self.is_alive(a), "add_edge: {a:?} is not alive");
        assert!(self.is_alive(b), "add_edge: {b:?} is not alive");
        match self.adj[a.index()].binary_search(&b) {
            Ok(_) => false,
            Err(pos_a) => {
                self.adj[a.index()].insert(pos_a, b);
                let pos_b = match self.adj[b.index()].binary_search(&a) {
                    Err(p) => p,
                    Ok(_) => unreachable!("adjacency symmetry broken: {b:?} lists {a:?}"),
                };
                self.adj[b.index()].insert(pos_b, a);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Removes the undirected edge `{a, b}`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.adj.len() || b.index() >= self.adj.len() {
            return false;
        }
        match self.adj[a.index()].binary_search(&b) {
            Err(_) => false,
            Ok(pos_a) => {
                self.adj[a.index()].remove(pos_a);
                if let Ok(pos_b) = self.adj[b.index()].binary_search(&a) {
                    self.adj[b.index()].remove(pos_b);
                }
                self.num_edges -= 1;
                true
            }
        }
    }

    /// Appends a fresh live node slot and returns its ID (the Forgiving
    /// Graph's *insertion* move: capacity grows by one and the new node
    /// starts isolated — wire it up with [`Graph::add_edge`]).
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.adj.len() as u32);
        self.adj.push(Vec::new());
        self.alive.push(true);
        self.num_alive += 1;
        id
    }

    /// Revives a previously deleted slot (slot-reuse insertion policy): the
    /// node returns isolated, under its old ID.
    ///
    /// # Panics
    /// Panics if `v` is out of range or still alive.
    pub fn revive_node(&mut self, v: NodeId) {
        assert!(
            v.index() < self.alive.len(),
            "revive_node: {v:?} out of range"
        );
        assert!(!self.alive[v.index()], "revive_node: {v:?} is alive");
        debug_assert!(self.adj[v.index()].is_empty(), "dead slot kept edges");
        self.alive[v.index()] = true;
        self.num_alive += 1;
    }

    /// Lowest dead slot ID, if any (for slot-reuse insertion).
    pub fn first_dead_slot(&self) -> Option<NodeId> {
        self.alive.iter().position(|a| !a).map(|i| NodeId(i as u32))
    }

    /// Deletes node `v` (the adversary's move), dropping all incident edges.
    ///
    /// Returns the former neighbors of `v` — exactly the set of processors
    /// the model notifies of the deletion.
    ///
    /// # Panics
    /// Panics if `v` is not alive.
    pub fn delete_node(&mut self, v: NodeId) -> Vec<NodeId> {
        let mut nbrs = Vec::new();
        self.delete_node_into(v, &mut nbrs);
        nbrs
    }

    /// [`Graph::delete_node`] writing the former neighbors into a
    /// caller-owned buffer (cleared first) instead of allocating — the
    /// allocation-free form churn campaigns reuse one scratch vector with.
    ///
    /// # Panics
    /// Panics if `v` is not alive.
    pub fn delete_node_into(&mut self, v: NodeId, nbrs: &mut Vec<NodeId>) {
        assert!(self.is_alive(v), "delete_node: {v:?} is not alive");
        nbrs.clear();
        nbrs.append(&mut self.adj[v.index()]);
        for &u in nbrs.iter() {
            if let Ok(pos) = self.adj[u.index()].binary_search(&v) {
                self.adj[u.index()].remove(pos);
            }
        }
        self.num_edges -= nbrs.len();
        self.alive[v.index()] = false;
        self.num_alive -= 1;
    }

    /// All edges `(a, b)` with `a < b`, in lexicographic order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for v in self.nodes() {
            for u in self.neighbors(v) {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out
    }

    /// True when the live portion of the graph is connected
    /// (vacuously true for 0 or 1 live nodes).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.nodes().next() else {
            return true;
        };
        bfs::bfs_distances(self, start).len() == self.num_alive
    }

    /// True when `other` has the same capacity, the same live set and the
    /// same adjacency — stricter than `==`, which ignores capacity — so a
    /// BFS from any node yields identical distance tables on both. Compares
    /// in place and allocates nothing.
    pub fn identical_to(&self, other: &Graph) -> bool {
        std::ptr::eq(self, other)
            || (self.num_alive == other.num_alive
                && self.num_edges == other.num_edges
                && self.alive == other.alive
                && self.adj == other.adj)
    }

    /// Degree of every live node keyed by ID (useful for degree-increase
    /// accounting against the original graph).
    pub fn degree_map(&self) -> std::collections::BTreeMap<NodeId, usize> {
        self.nodes().map(|v| (v, self.degree(v))).collect()
    }

    /// Renders the graph in Graphviz DOT format (undirected).
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = format!("graph {name} {{\n");
        for v in self.nodes() {
            s.push_str(&format!("  {};\n", v.0));
        }
        for (a, b) in self.edges() {
            s.push_str(&format!("  {} -- {};\n", a.0, b.0));
        }
        s.push_str("}\n");
        s
    }
}

impl PartialEq for Graph {
    /// Two graphs are equal when they have the same live node set and the
    /// same edge set (capacity is ignored).
    fn eq(&self, other: &Self) -> bool {
        self.nodes().collect::<Vec<_>>() == other.nodes().collect::<Vec<_>>()
            && self.edges() == other.edges()
    }
}

impl Eq for Graph {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless_and_connectedness_trivial() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert!(g.is_connected());
        let g = Graph::new(1);
        assert_eq!(g.len(), 1);
        assert!(g.is_connected());
        let g = Graph::new(2);
        assert!(!g.is_connected());
    }

    #[test]
    fn add_remove_edge_roundtrip() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(!g.add_edge(NodeId(1), NodeId(0)), "duplicate edge");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    fn delete_node_reports_neighbors_and_drops_edges() {
        let mut g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
        let nbrs = g.delete_node(NodeId(0));
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(!g.is_alive(NodeId(0)));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert!(g.has_edge(NodeId(2), NodeId(3)));
        assert!(!g.is_connected(), "node 1 is isolated now");
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn double_delete_panics() {
        let mut g = Graph::new(2);
        g.delete_node(NodeId(0));
        g.delete_node(NodeId(0));
    }

    #[test]
    fn edges_are_sorted_and_unique() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 3), (0, 1)]);
        assert_eq!(
            g.edges(),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(3)),
                (NodeId(2), NodeId(3))
            ]
        );
    }

    #[test]
    fn max_degree_tracks_deletions() {
        let mut g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.max_degree(), 4);
        g.delete_node(NodeId(0));
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn graph_equality_ignores_capacity() {
        let mut a = Graph::from_edges(5, &[(0, 1)]);
        let b = Graph::from_edges(2, &[(0, 1)]);
        for i in 2..5 {
            a.delete_node(NodeId(i));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn identical_to_compares_capacity_and_adjacency() {
        let a = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        assert!(a.identical_to(&a));
        assert!(a.identical_to(&a.clone()));
        // equal live set and edges, larger id space: `==` but not identical
        let mut wide = Graph::from_edges(5, &[(0, 1), (1, 2)]);
        wide.delete_node(NodeId(4));
        assert_eq!(a, wide);
        assert!(!a.identical_to(&wide));
        let mut other = a.clone();
        other.add_edge(NodeId(2), NodeId(3));
        assert!(!a.identical_to(&other), "one more edge");
        let mut dead = a.clone();
        dead.delete_node(NodeId(3));
        assert!(!a.identical_to(&dead), "one fewer live node");
    }

    #[test]
    fn add_node_grows_capacity() {
        let mut g = Graph::from_edges(2, &[(0, 1)]);
        let v = g.add_node();
        assert_eq!(v, NodeId(2));
        assert_eq!(g.capacity(), 3);
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree(v), 0);
        g.add_edge(v, NodeId(0));
        assert!(g.is_connected());
    }

    #[test]
    fn revive_reuses_the_dead_slot() {
        let mut g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        g.delete_node(NodeId(1));
        assert_eq!(g.first_dead_slot(), Some(NodeId(1)));
        g.revive_node(NodeId(1));
        assert_eq!(g.first_dead_slot(), None);
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree(NodeId(1)), 0, "revived isolated");
        assert_eq!(g.capacity(), 3, "no growth");
    }

    #[test]
    #[should_panic(expected = "is alive")]
    fn reviving_a_live_node_panics() {
        let mut g = Graph::new(1);
        g.revive_node(NodeId(0));
    }

    #[test]
    fn dot_output_contains_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let dot = g.to_dot("g");
        assert!(dot.contains("0 -- 1"));
        assert!(dot.contains("1 -- 2"));
    }
}
