//! The distributed Forgiving Graph.
//!
//! Every node runs [`FgNode`], a processor that knows only its own neighbor
//! set plus the *wills* its neighbors keep filed with it — each neighbor's
//! current neighbor list — and reacts to join/deletion notices and protocol
//! messages over the synchronous `ft-sim` network. No processor ever reads
//! global state.
//!
//! # Choreography
//!
//! - **arrival**: the adversary inserts `v` wired to its chosen anchors
//!   ([`ft_sim::Network::insert_node`]). `v` announces its will to each
//!   anchor ([`FgMsg::Will`]); each anchor files it, sends its own will
//!   back, and tells its other neighbors about the new entry in its
//!   neighborhood ([`FgMsg::WillDelta`]). Two rounds to quiescence.
//! - **deletion**: the environment informs the victim's neighbors. Each
//!   survivor holds the victim's will, so all survivors compute the *same*
//!   reconstruction tree — the member-level haft edges
//!   ([`crate::Haft::member_edges`]) over the will's ID-sorted entries —
//!   without any coordination. Each survivor inserts the edges it is an
//!   endpoint of, exchanges full wills with its fresh partners, and sends
//!   one batched [`FgMsg::WillDelta`] to every retained neighbor. Two
//!   rounds to quiescence.
//!
//! Wills stay consistent because every heal runs to quiescence before the
//! next adversarial event (the campaign drivers'
//! [`PerDeletion`](ft_sim::HealCadence::PerDeletion) cadence); the
//! [`DistributedForgivingGraph::check_wills`] audit verifies every filed
//! will against its owner's true neighborhood.
//!
//! # Shared will snapshots
//!
//! A node's neighbor list is one sorted `Arc<Vec<NodeId>>`, and at setup
//! every will filed with a neighbor is an `Arc::clone` of it: one
//! allocation per node rather than one per edge endpoint. The sharing is
//! an implementation detail, not shared state. Every mutation — the
//! owner's own list or a holder's filed copy — goes through
//! `Arc::make_mut`, which copies a snapshot that anyone else still holds
//! before writing. Each processor's copy therefore stays logically
//! private: a holder whose [`FgMsg::WillDelta`] was lost, delayed or
//! silenced by a crash keeps exactly the stale snapshot it would keep
//! with its own deep copy, and `check_wills` reports it the same way.
//!
//! The differential test-suite drives this implementation and the
//! [`crate::ForgivingGraph`] spec engine with identical churn sequences and
//! asserts the healed graphs are identical after every event.

use crate::fgraph::Haft;
use crate::report::HealReport;
use ft_graph::{Graph, NodeId};
use ft_sim::{Ctx, Network, Process};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Protocol messages of the distributed Forgiving Graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FgMsg {
    /// The sender's full neighbor list (new-edge handshake; also the
    /// joiner's hello).
    Will(Vec<NodeId>),
    /// Batched update to the sender's filed will: neighbors gained and
    /// lost by one adversarial event.
    WillDelta {
        /// Neighbors the sender gained.
        added: Vec<NodeId>,
        /// Neighbors the sender lost.
        removed: Vec<NodeId>,
    },
}

/// One processor of the distributed Forgiving Graph.
#[derive(Debug)]
pub struct FgNode {
    id: NodeId,
    /// My current neighbor set, sorted (kept in lockstep with the
    /// topology; shared copy-on-write with the wills filed at setup).
    neighbors: Arc<Vec<NodeId>>,
    /// Wills filed with me: each neighbor's neighbor list, sorted.
    wills: BTreeMap<NodeId, Arc<Vec<NodeId>>>,
    /// Fresh arrival that still has to announce itself on start.
    joiner: bool,
}

impl FgNode {
    /// A settled node with pre-distributed wills (initial setup):
    /// `lists[v]` is node `v`'s sorted neighbor list, shared by the owner
    /// and every holder of its will.
    fn settled(id: NodeId, lists: &[Arc<Vec<NodeId>>]) -> Self {
        let neighbors = Arc::clone(&lists[id.index()]);
        let wills = neighbors
            .iter()
            .map(|&u| (u, Arc::clone(&lists[u.index()])))
            .collect();
        FgNode {
            id,
            neighbors,
            wills,
            joiner: false,
        }
    }

    /// A freshly inserted node wired to `neighbors`; announces its will on
    /// start and collects its anchors' wills in the first exchange.
    pub fn joiner(id: NodeId, neighbors: &[NodeId]) -> Self {
        let mut neighbors = neighbors.to_vec();
        neighbors.sort_unstable();
        neighbors.dedup();
        FgNode {
            id,
            neighbors: Arc::new(neighbors),
            wills: BTreeMap::new(),
            joiner: true,
        }
    }

    /// My current neighbor set, ascending, as this processor believes it
    /// to be.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// The will `owner` has filed with me, if any (ascending).
    pub fn will_of(&self, owner: NodeId) -> Option<&[NodeId]> {
        self.wills.get(&owner).map(|w| w.as_slice())
    }

    /// Adds `v` to my neighbor list; false if it was already there.
    fn add_neighbor(&mut self, v: NodeId) -> bool {
        insert_sorted(Arc::make_mut(&mut self.neighbors), v)
    }

    /// Sends my full will to `to`.
    fn send_will(&self, to: NodeId, ctx: &mut Ctx<'_, FgMsg>) {
        ctx.send(to, FgMsg::Will(self.neighbors.to_vec()));
    }

    /// Announces a batched neighborhood change to every retained neighbor
    /// (everyone but the fresh partners, who get full wills instead).
    fn send_deltas(&self, added: &[NodeId], removed: &[NodeId], ctx: &mut Ctx<'_, FgMsg>) {
        if added.is_empty() && removed.is_empty() {
            return;
        }
        for &u in self.neighbors.iter() {
            if !added.contains(&u) {
                ctx.send(
                    u,
                    FgMsg::WillDelta {
                        added: added.to_vec(),
                        removed: removed.to_vec(),
                    },
                );
            }
        }
    }
}

impl Process for FgNode {
    type Msg = FgMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FgMsg>) {
        if self.joiner {
            self.joiner = false;
            for &u in self.neighbors.iter() {
                self.send_will(u, ctx);
            }
        }
    }

    fn on_neighbor_joined(&mut self, new: NodeId, ctx: &mut Ctx<'_, FgMsg>) {
        self.add_neighbor(new);
        self.send_will(new, ctx);
        self.send_deltas(&[new], &[], ctx);
    }

    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, FgMsg>) {
        // Under an armed fault plan the will mail this heal depends on may
        // have been lost, delayed past the deletion, or silenced by a
        // crash-stop. The protocol then degrades instead of panicking: skip
        // the heal and let the harness measure the damage (connectivity,
        // `check_wills`, bound booleans). Fault-free runs keep the strict
        // panics — there a missing will is an engine bug, not weather.
        remove_sorted(Arc::make_mut(&mut self.neighbors), dead);
        let Some(will) = self.wills.remove(&dead) else {
            assert!(ctx.faulty(), "{:?}: no will filed by {dead:?}", self.id);
            return;
        };
        let members: &[NodeId] = will.as_slice(); // sorted
        let Some(me) = members.iter().position(|&m| m == self.id) else {
            assert!(ctx.faulty(), "{:?}: not in {dead:?}'s will", self.id);
            // A stale will (its refresh was lost) that no longer lists us:
            // healing from it would wire strangers — drop the heal instead.
            return;
        };
        let mut fresh: Vec<NodeId> = Vec::new();
        if members.len() >= 2 {
            for (i, j) in Haft::new(members.len()).member_edges() {
                let partner = if i == me {
                    members[j]
                } else if j == me {
                    members[i]
                } else {
                    continue;
                };
                if self.add_neighbor(partner) {
                    ctx.add_edge(partner);
                    fresh.push(partner);
                }
            }
        }
        // full wills to fresh partners (the handshake), one batched delta to
        // everyone retained
        for &p in &fresh {
            self.send_will(p, ctx);
        }
        self.send_deltas(&fresh, &[dead], ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: FgMsg, ctx: &mut Ctx<'_, FgMsg>) {
        match msg {
            FgMsg::Will(list) => {
                // `send_will` ships a sorted, duplicate-free list
                self.wills.insert(from, Arc::new(list));
                if self.add_neighbor(from) {
                    // defensive: an edge formed without my participation —
                    // complete the handshake so `from` learns my will too.
                    self.send_will(from, ctx);
                }
            }
            FgMsg::WillDelta { added, removed } => {
                if let Some(w) = self.wills.get_mut(&from) {
                    // copy-on-write: other holders of this snapshot keep it
                    let w = Arc::make_mut(w);
                    for a in added {
                        insert_sorted(w, a);
                    }
                    for r in removed {
                        remove_sorted(w, r);
                    }
                }
            }
        }
    }
}

/// Inserts `v` into the sorted `list`; false if it was already there.
fn insert_sorted(list: &mut Vec<NodeId>, v: NodeId) -> bool {
    match list.binary_search(&v) {
        Ok(_) => false,
        Err(at) => {
            list.insert(at, v);
            true
        }
    }
}

/// Removes `v` from the sorted `list`, if present.
fn remove_sorted(list: &mut Vec<NodeId>, v: NodeId) {
    if let Ok(at) = list.binary_search(&v) {
        list.remove(at);
    }
}

/// Driver owning the simulated network plus the pristine baseline; mirrors
/// [`crate::ForgivingGraph`]'s public API so experiments can swap engines.
#[derive(Debug)]
pub struct DistributedForgivingGraph {
    net: Network<FgNode>,
    /// All insertions, no deletions — the stretch/degree baseline.
    pristine: Graph,
}

impl DistributedForgivingGraph {
    /// Initializes processors over an initial network with their wills
    /// pre-distributed (the one-time setup phase, performed analytically
    /// like [`crate::distributed::DistributedForgivingTree::new`]).
    ///
    /// Each node's neighbor list is allocated once and shared, copy-on-write,
    /// by the node and every neighbor its will is filed with.
    pub fn new(initial: &Graph) -> Self {
        // `Graph` keeps adjacency sorted, so each list is a valid will
        let lists: Vec<Arc<Vec<NodeId>>> = (0..initial.capacity())
            .map(|i| Arc::new(initial.neighbors(NodeId(i as u32)).collect()))
            .collect();
        let net = Network::new(initial.clone(), |v| FgNode::settled(v, &lists));
        DistributedForgivingGraph {
            net,
            pristine: initial.clone(),
        }
    }

    /// The current healed network.
    pub fn graph(&self) -> &Graph {
        self.net.graph()
    }

    /// The pristine network: every insertion applied, no deletion.
    pub fn pristine(&self) -> &Graph {
        &self.pristine
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// True when every node has been deleted.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Live node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.net.nodes()
    }

    /// Read access to a processor (tests/introspection).
    pub fn node(&self, v: NodeId) -> &FgNode {
        self.net.process(v)
    }

    /// The message ledger of the underlying simulator.
    pub fn ledger(&self) -> &ft_sim::MsgLedger {
        self.net.ledger()
    }

    /// Read access to the underlying simulated network.
    pub fn network(&self) -> &Network<FgNode> {
        &self.net
    }

    /// Mutable access to the underlying simulated network — the hook the
    /// campaign harnesses use to arm the churn journal for incremental
    /// measurement passes.
    pub fn network_mut(&mut self) -> &mut Network<FgNode> {
        &mut self.net
    }

    /// Applies one mixed insert/delete wave through a campaign driver,
    /// keeping the pristine baseline in lockstep with the insertions.
    ///
    /// # Panics
    /// Panics if the campaign's cadence is not
    /// [`PerDeletion`](ft_sim::HealCadence::PerDeletion): the will-based
    /// protocol requires every heal to reach quiescence before the next
    /// adversarial event, so a survivor always holds the victim's current
    /// will (`PerWave` would let a neighbor die while its will exchange is
    /// still in flight).
    pub fn run_wave(
        &mut self,
        campaign: &mut ft_sim::Campaign,
        events: &[ft_graph::ChurnEvent],
    ) -> ft_sim::WaveStats {
        assert_eq!(
            campaign.config().cadence,
            ft_sim::HealCadence::PerDeletion,
            "the Forgiving Graph protocol needs quiescence between events"
        );
        let pristine = &mut self.pristine;
        campaign.run_churn_wave(&mut self.net, events, |id, nbrs| {
            let pv = pristine.add_node();
            assert_eq!(pv, id, "healed/pristine capacities diverged");
            for &u in nbrs {
                pristine.add_edge(pv, u);
            }
            FgNode::joiner(id, nbrs)
        })
    }

    /// Inserts a fresh node wired to the live entries of `neighbors` and
    /// runs the join exchange to quiescence.
    ///
    /// # Panics
    /// Panics when no listed neighbor is alive.
    pub fn insert(&mut self, neighbors: &[NodeId]) -> NodeId {
        let live: Vec<NodeId> = neighbors
            .iter()
            .copied()
            .filter(|&u| self.net.graph().is_alive(u))
            .collect();
        assert!(!live.is_empty(), "insertion with no live neighbor");
        let (v, _) = self.net.insert_node(&live, |id| FgNode::joiner(id, &live));
        let pv = self.pristine.add_node();
        assert_eq!(pv, v, "healed/pristine capacities diverged");
        for &u in &live {
            self.pristine.add_edge(pv, u);
        }
        let ((_rounds, _merged), _cost) = self.net.run_until_quiet(8);
        v
    }

    /// Deletes `v` and runs the recovery phase to quiescence.
    ///
    /// # Panics
    /// Panics if `v` is dead or the protocol fails to quiesce within the
    /// O(1) round budget.
    pub fn delete(&mut self, v: NodeId) -> HealReport {
        let ((notice, ((rounds, merged), _)), edges_added) = self.net.edges_gained_by(|net| {
            let notice = net.delete_node(v);
            (notice, net.run_until_quiet(8))
        });
        HealReport {
            deleted: Some(v),
            rounds: rounds + 1,
            notified: notice.messages,
            total_messages: notice.messages + merged.messages,
            max_messages_per_node: notice.max_per_node.max(merged.max_per_node),
            edges_added,
            ..HealReport::default()
        }
    }

    /// Degree increase of live node `v` over the pristine baseline.
    pub fn degree_increase(&self, v: NodeId) -> i64 {
        self.net.graph().degree(v) as i64 - self.pristine.degree(v) as i64
    }

    /// Largest degree increase any live node currently suffers.
    pub fn max_degree_increase(&self) -> i64 {
        self.net
            .graph()
            .nodes()
            .map(|v| self.degree_increase(v))
            .max()
            .unwrap_or(0)
    }

    /// Audits the distributed state: every processor's neighbor set matches
    /// the topology, and every filed will matches its owner's true
    /// neighborhood. Returns the first discrepancy found.
    pub fn check_wills(&self) -> Result<(), String> {
        let graph = self.net.graph();
        for v in self.net.nodes() {
            // adjacency is sorted, so list equality is set equality
            let matches = |list: &[NodeId]| list.iter().copied().eq(graph.neighbors(v));
            let actual = || graph.neighbors(v).collect::<Vec<_>>();
            let believed = self.net.process(v).neighbors();
            if !matches(believed) {
                return Err(format!(
                    "{v:?} believes neighbors {believed:?}, topology says {:?}",
                    actual()
                ));
            }
            for u in graph.neighbors(v) {
                match self.net.process(u).will_of(v) {
                    None => return Err(format!("{u:?} holds no will of {v:?}")),
                    Some(w) if !matches(w) => {
                        return Err(format!(
                            "{u:?} holds a stale will of {v:?}: {w:?} vs {:?}",
                            actual()
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgraph::ForgivingGraph;
    use ft_graph::{gen, ChurnEvent};
    use ft_sim::{Campaign, CampaignConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn setup_distributes_wills() {
        let d = DistributedForgivingGraph::new(&gen::star(5));
        d.check_wills().expect("setup wills consistent");
        assert_eq!(d.node(n(1)).will_of(n(0)).expect("hub will").len(), 4);
    }

    #[test]
    fn setup_shares_one_snapshot_per_owner() {
        let d = DistributedForgivingGraph::new(&gen::star(6));
        let hub = &d.node(n(0)).neighbors;
        for leaf in 1..6 {
            assert!(
                Arc::ptr_eq(&d.node(n(leaf)).wills[&n(0)], hub),
                "leaf {leaf} files the hub's own list"
            );
        }
    }

    #[test]
    fn altering_one_filed_will_leaves_the_other_holders_alone() {
        let mut d = DistributedForgivingGraph::new(&gen::star(6));
        let pristine: Vec<NodeId> = d.node(n(0)).neighbors().to_vec();
        let w = d
            .net
            .process_mut(n(3))
            .wills
            .get_mut(&n(0))
            .expect("leaf 3 holds the hub's will");
        Arc::make_mut(w).retain(|&u| u != n(5));
        assert_eq!(d.node(n(0)).neighbors(), pristine, "owner's list untouched");
        for leaf in [1, 2, 4, 5] {
            assert_eq!(
                d.node(n(leaf)).will_of(n(0)),
                Some(pristine.as_slice()),
                "leaf {leaf}'s copy untouched"
            );
        }
        assert_eq!(d.node(n(3)).will_of(n(0)).map(<[NodeId]>::len), Some(4));
        let err = d.check_wills().expect_err("the altered copy is stale");
        let stale = format!("{:?} holds a stale will of {:?}:", n(3), n(0));
        assert!(err.starts_with(&stale), "{err}");
    }

    #[test]
    fn joiner_sorts_and_dedups_its_anchors() {
        let j = FgNode::joiner(n(9), &[n(4), n(1), n(4), n(2)]);
        assert_eq!(j.neighbors(), [n(1), n(2), n(4)]);
    }

    #[test]
    fn single_deletion_heals_like_the_spec() {
        let g = gen::star(9);
        let mut d = DistributedForgivingGraph::new(&g);
        let mut s = ForgivingGraph::new(&g);
        let dr = d.delete(n(0));
        let sr = s.delete(n(0));
        assert_eq!(d.graph(), s.graph(), "healed graphs identical");
        assert_eq!(dr.edges_added, sr.edges_added);
        assert!(d.graph().is_connected());
        d.check_wills().expect("wills refreshed");
        d.network().check_accounting().expect("books balance");
    }

    #[test]
    fn insertion_exchanges_wills() {
        let mut d = DistributedForgivingGraph::new(&gen::path(4));
        let v = d.insert(&[n(0), n(3)]);
        assert_eq!(v, n(4));
        d.check_wills().expect("joiner and anchors consistent");
        assert!(d.pristine().has_edge(v, n(0)));
        assert_eq!(d.ledger().joins(), 2);
        d.network().check_accounting().expect("books balance");
    }

    #[test]
    fn differential_random_churn_matches_spec() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::gnp_connected(40, 0.08, &mut rng);
        let mut d = DistributedForgivingGraph::new(&g);
        let mut s = ForgivingGraph::new(&g);
        for step in 0..80 {
            if rng.gen_bool(0.35) {
                let live: Vec<NodeId> = d.nodes().collect();
                let k = rng.gen_range(1..=2.min(live.len()));
                let mut picks: Vec<NodeId> = Vec::new();
                while picks.len() < k {
                    let c = live[rng.gen_range(0..live.len())];
                    if !picks.contains(&c) {
                        picks.push(c);
                    }
                }
                let dv = d.insert(&picks);
                let sv = s.insert_node(&picks);
                assert_eq!(dv, sv, "insert IDs agree at step {step}");
            } else if d.len() > 2 {
                let live: Vec<NodeId> = d.nodes().collect();
                let v = live[rng.gen_range(0..live.len())];
                let before = d.graph().clone();
                let report = d.delete(v);
                let gained: Vec<(NodeId, NodeId)> = d
                    .graph()
                    .edges()
                    .into_iter()
                    .filter(|&(a, b)| !before.has_edge(a, b))
                    .collect();
                assert_eq!(report.edges_added, gained, "edges_added is the graph diff");
                s.delete(v);
            }
            assert_eq!(d.graph(), s.graph(), "graphs diverged at step {step}");
            d.check_wills().expect("wills consistent");
        }
        assert_eq!(d.pristine(), s.pristine(), "pristine baselines agree");
        d.network().check_accounting().expect("books balance");
        assert!(d.ledger().joins() > 0);
    }

    #[test]
    #[should_panic(expected = "quiescence between events")]
    fn per_wave_cadence_is_rejected() {
        let mut d = DistributedForgivingGraph::new(&gen::path(4));
        let mut campaign = Campaign::new(CampaignConfig {
            cadence: ft_sim::HealCadence::PerWave,
            max_rounds_per_heal: 8,
            threads: 1,
        });
        d.run_wave(&mut campaign, &[ChurnEvent::Delete(n(1))]);
    }

    #[test]
    fn campaign_waves_drive_the_distributed_engine() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_tree(30, &mut rng);
        let mut d = DistributedForgivingGraph::new(&g);
        let mut campaign = Campaign::new(CampaignConfig::default());
        let events = vec![
            ChurnEvent::Insert {
                neighbors: vec![n(3), n(9)],
            },
            ChurnEvent::Delete(n(3)),
            ChurnEvent::Delete(n(9)),
            ChurnEvent::Insert {
                neighbors: vec![n(30)], // the node inserted above
            },
        ];
        let ws = d.run_wave(&mut campaign, &events);
        assert_eq!((ws.insertions, ws.deletions), (2, 2));
        assert!(d.graph().is_connected());
        assert_eq!(d.pristine().len(), 32, "pristine tracked both arrivals");
        d.check_wills().expect("wills consistent");
        d.network().check_accounting().expect("books balance");
    }
}
