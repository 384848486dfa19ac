//! Incremental stretch: per-source distance fields maintained across churn.
//!
//! The full stretch pass ([`crate::stretch::measure_stretch_full`]) rebuilds
//! every sampled BFS field from scratch — `O(sources · (V + E))` per
//! measurement, which at 10⁶ nodes dominates a campaign's wall clock. A
//! [`StretchTracker`] instead keeps each sampled source's healed and
//! pristine [`DistanceMap`]s **alive across waves** and repairs only what a
//! wave's [`ChurnJournal`] invalidated:
//!
//! - **Carve (phase A)**: starting from the journal's deletion
//!   neighborhoods and removed-edge endpoints, a fixpoint worklist clears
//!   every label whose support chain (a neighbor exactly one hop closer)
//!   broke. Labels that survive are achievable in the current graph — the
//!   support chain is itself a live path down to the source.
//! - **Repair (phase B)**: a unit-weight Dijkstra seeded from the carved
//!   region's labeled boundary, inserted nodes, and added-edge endpoints
//!   re-labels exactly the invalidated or improved slots. A wave whose
//!   churn never touches a source's shortest-path dag costs a handful of
//!   support probes and nothing else.
//! - **Pristine fields** only ever improve (that graph grows and never
//!   loses a node), so they skip the carve and take the decrease-only half
//!   of the same Dijkstra.
//!
//! **Build.** When the healed and pristine graphs are identical (same
//! capacity, live set and adjacency — [`Graph::identical_to`]), as at every
//! campaign start, each source's pristine field is a copy of its healed
//! field: one BFS per source instead of two. Sources promoted later, when
//! the graphs differ, take a BFS on each. Every field reserves headroom for
//! an eighth more id-space slots, so the id space grown by insertions is
//! absorbed in place instead of reallocating every table on the first
//! insertion wave.
//!
//! **Reselection.** Sources are re-selected per wave by the same min-wise
//! priority rule the full pass uses ([`crate::stretch::select_sources`]),
//! but without rescanning the live set: the tracker keeps a sorted
//! *reserve* of the `2k` lowest `(priority, id)` keys among live nodes.
//! Each wave drops the reserve's dead entries and admits the journal's
//! live inserts whose key falls below the reserve's pre-wave maximum
//! (every live insert while the reserve holds the whole live set). Every
//! live node outside the reserve then still has a larger key than any
//! inside, so the reserve's first `k` keys are exactly the sample a scan
//! would pick. Only when fewer than `k` entries survive, and the reserve
//! did not already hold every live node, is the live set rescanned. A
//! dead source's state is dropped and the promoted replacement is built
//! fresh; sources whose membership survives keep their repaired fields.
//! Because the sample, the distance fields (exact by construction), and the
//! pair-scoring fold (`pair_pass`, sample order) all
//! agree with the full pass, [`StretchTracker::report`] is
//! **bit-identical** to `measure_stretch_full` on the same graphs — the
//! full pass is kept as the differential oracle and CI compares the two.
//!
//! Work is charged to an [`OperationCost`]: BFS and Dijkstra settles and
//! support probes as `node_visits`, adjacency reads as `edge_scans`, one
//! distance table per field (copies included) as `heap_bytes`, and stale
//! heap pops plus reselection probes as `seeks`. A reselection probe is
//! one reserve entry checked for liveness, one journalled insert read, or
//! one live node read by a (re)scan.
//!
//! Sources are independent, so the tracker builds and repairs them on up
//! to `threads` workers ([`StretchTracker::with_threads`]), one contiguous
//! chunk of the sample per worker. Every source's new state and cost come
//! back in sample order and are folded in that order on the calling
//! thread, exactly as the full pass folds its sharded BFS sweeps — so the
//! fields, [`StretchTracker::report`] and [`StretchTracker::cost`] are
//! bit-identical at any thread count.

use crate::stretch::{
    bfs_with_cost, charge_table, fold_passes, lowest_keys, map_in_sample_order, pair_pass,
    priority, sampled_flags, select_sources, SourcePass, StretchReport,
};
use ft_costs::{count, OperationCost};
use ft_graph::bfs::DistanceMap;
use ft_graph::{Graph, NodeId};
use ft_sim::ChurnJournal;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Id-space slots a field reserves beyond `cap`: insertions grow the id
/// space by one slot each, and an eighth covers a campaign that inserts up
/// to 12.5% of the initial node count. The reservation is not written, so
/// it costs address space rather than resident memory.
fn headroom(cap: usize) -> usize {
    cap / 8
}

/// One sampled source's maintained state.
#[derive(Debug)]
struct SourceState {
    src: NodeId,
    /// Distances from `src` in the healed graph.
    healed: DistanceMap,
    /// Distances from `src` in the pristine graph.
    pristine: DistanceMap,
}

impl SourceState {
    /// Builds both fields from scratch (new or promoted source). With
    /// `identical` graphs the pristine field is a copy of the healed one.
    fn build(
        healed: &Graph,
        pristine: &Graph,
        src: NodeId,
        identical: bool,
    ) -> (Self, OperationCost) {
        let mut cost = OperationCost::ZERO;
        let dh = bfs_with_cost(healed, src, headroom(healed.capacity()), &mut cost);
        let dp = if identical {
            charge_table(pristine, &mut cost);
            dh.duplicate()
        } else {
            bfs_with_cost(pristine, src, headroom(pristine.capacity()), &mut cost)
        };
        let state = SourceState {
            src,
            healed: dh,
            pristine: dp,
        };
        (state, cost)
    }

    /// Repairs both fields against one wave's journal.
    fn repair(
        &mut self,
        healed: &Graph,
        pristine: &Graph,
        journal: &ChurnJournal,
    ) -> OperationCost {
        let mut cost = OperationCost::ZERO;
        self.healed.grow(healed.capacity());
        self.pristine.grow(pristine.capacity());

        // --- healed, phase A: carve the unsupported region -------------
        let mut recheck: VecDeque<NodeId> = VecDeque::new();
        let mut carved: Vec<NodeId> = Vec::new();
        for (dead, nbrs) in &journal.deleted {
            self.healed.clear_slot(*dead);
            recheck.extend(nbrs.iter().copied());
        }
        for &(a, b) in &journal.edges_removed {
            recheck.push_back(a);
            recheck.push_back(b);
        }
        while let Some(v) = recheck.pop_front() {
            if v == self.src {
                continue; // the source supports itself at distance 0
            }
            let Some(dv) = self.healed.get(v) else {
                continue; // already carved (or never labeled)
            };
            cost.node_visits += 1;
            cost.edge_scans += count(healed.degree(v));
            // only src holds label 0, so dv >= 1 here
            if healed
                .neighbors(v)
                .any(|u| self.healed.get(u) == Some(dv - 1))
            {
                continue; // support chain intact: label still achievable
            }
            self.healed.clear_slot(v);
            carved.push(v);
            for u in healed.neighbors(v) {
                if self.healed.get(u) == Some(dv + 1) {
                    recheck.push_back(u);
                }
            }
        }

        // --- healed, phase B: Dijkstra repair over carve + new edges ---
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &v in &carved {
            if !healed.is_alive(v) {
                continue;
            }
            cost.edge_scans += count(healed.degree(v));
            if let Some(best) = healed.neighbors(v).filter_map(|u| self.healed.get(u)).min() {
                heap.push(Reverse((best + 1, v.0)));
            }
        }
        for (v, _) in &journal.inserted {
            if !healed.is_alive(*v) {
                continue; // inserted then deleted within the span
            }
            cost.edge_scans += count(healed.degree(*v));
            if let Some(best) = healed
                .neighbors(*v)
                .filter_map(|u| self.healed.get(u))
                .min()
            {
                if self.healed.get(*v).is_none_or(|d| best + 1 < d) {
                    heap.push(Reverse((best + 1, v.0)));
                }
            }
        }
        for &(a, b) in &journal.edges_added {
            if !healed.has_edge(a, b) {
                continue; // added then dropped within the span
            }
            for (x, y) in [(a, b), (b, a)] {
                if let Some(dx) = self.healed.get(x) {
                    if self.healed.get(y).is_none_or(|dy| dx + 1 < dy) {
                        heap.push(Reverse((dx + 1, y.0)));
                    }
                }
            }
        }
        cost += dijkstra_settle(&mut self.healed, healed, &mut heap);

        // --- pristine: decrease-only (that graph only ever grows) ------
        for (v, _) in &journal.inserted {
            // insertions are permanent in the pristine baseline
            cost.edge_scans += count(pristine.degree(*v));
            if let Some(best) = pristine
                .neighbors(*v)
                .filter_map(|u| self.pristine.get(u))
                .min()
            {
                if self.pristine.get(*v).is_none_or(|d| best + 1 < d) {
                    heap.push(Reverse((best + 1, v.0)));
                }
            }
        }
        cost += dijkstra_settle(&mut self.pristine, pristine, &mut heap);
        cost
    }
}

/// Drains the heap, settling every improvable label (lazy-deletion
/// Dijkstra with unit weights). Stale pops are charged as seeks.
fn dijkstra_settle(
    dist: &mut DistanceMap,
    g: &Graph,
    heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
) -> OperationCost {
    let mut cost = OperationCost::ZERO;
    while let Some(Reverse((d, vi))) = heap.pop() {
        let v = NodeId(vi);
        if dist.get(v).is_some_and(|cur| cur <= d) {
            cost.seeks += 1;
            continue;
        }
        dist.assign(v, d);
        cost.node_visits += 1;
        cost.edge_scans += count(g.degree(v));
        for u in g.neighbors(v) {
            if dist.get(u).is_none_or(|du| d + 1 < du) {
                heap.push(Reverse((d + 1, u.0)));
            }
        }
    }
    cost
}

/// The `2k` lowest `(priority, id)` keys among the live nodes for a
/// sample of `k`, kept across waves so reselection reads the reserve and
/// the journal instead of the whole live set.
///
/// Invariant: `keys` is ascending and every live node outside it has a
/// larger key than its last entry, so any prefix of `keys` is the min-wise
/// sample of that size.
#[derive(Debug)]
struct Reserve {
    keys: Vec<(u64, NodeId)>,
    /// `keys` holds every live node.
    complete: bool,
}

impl Reserve {
    /// Scans `g`'s live set for its `2k` lowest keys, charging one seek
    /// per live node.
    fn scan(g: &Graph, k: usize, seed: u64, cost: &mut OperationCost) -> Self {
        cost.seeks += count(g.len());
        let cap = 2 * k;
        let mut keys = lowest_keys(g, cap, seed);
        keys.sort_unstable();
        Reserve {
            keys,
            complete: g.len() <= cap,
        }
    }

    /// Brings the reserve up to date with one wave: drops dead entries,
    /// admits each live journalled insert below the pre-wave maximum (every
    /// one while the reserve is complete), trims back to `2k`, and rescans
    /// only when fewer than `k` entries are left of an incomplete reserve.
    /// Charges one seek per entry checked and per insert read.
    fn update(
        &mut self,
        g: &Graph,
        journal: &ChurnJournal,
        k: usize,
        seed: u64,
        cost: &mut OperationCost,
    ) {
        cost.seeks += count(self.keys.len() + journal.inserted.len());
        let bound = self.keys.last().copied();
        self.keys.retain(|&(_, v)| g.is_alive(v));
        for &(v, _) in &journal.inserted {
            let key = (priority(seed, v), v);
            // an id revived after a deletion in the same span is listed
            // again; the dedup below keeps one entry
            if g.is_alive(v) && (self.complete || bound.is_some_and(|b| key < b)) {
                self.keys.push(key);
            }
        }
        self.keys.sort_unstable();
        self.keys.dedup();
        if self.keys.len() > 2 * k {
            self.keys.truncate(2 * k);
            self.complete = false;
        }
        if self.keys.len() < k && !self.complete {
            *self = Reserve::scan(g, k, seed, cost);
        }
    }

    /// The `k` lowest keys' nodes in ascending id order (the sample order).
    fn sample(&self, k: usize) -> Vec<NodeId> {
        let mut picked: Vec<NodeId> = self.keys.iter().take(k).map(|&(_, v)| v).collect();
        picked.sort_unstable();
        picked
    }
}

/// Incremental stretch measurement over a churning campaign.
///
/// Construct once over the initial graphs, feed every wave's drained
/// [`ChurnJournal`] to [`StretchTracker::apply_wave`], and read figures
/// with [`StretchTracker::report`] — bit-identical to
/// [`crate::stretch::measure_stretch_full`] with the same `(sources,
/// seed)` on the same graphs, at a per-wave cost proportional to the churn
/// actually applied rather than to the graph.
#[derive(Debug)]
pub struct StretchTracker {
    /// Sample size: the requested one, at least 1 (clamped to the live
    /// set at selection time).
    k: usize,
    seed: u64,
    /// Workers that build and repair sources (1 = inline).
    threads: usize,
    /// The `2k` lowest keys the sample is re-drawn from each wave.
    reserve: Reserve,
    /// Maintained per-source state, ascending by source id (sample order).
    sources: Vec<SourceState>,
    cost: OperationCost,
}

impl StretchTracker {
    /// Selects the min-wise sample over `healed`'s live set and builds
    /// every source's distance fields from scratch, on one thread.
    pub fn new(healed: &Graph, pristine: &Graph, sources: usize, seed: u64) -> Self {
        Self::with_threads(healed, pristine, sources, seed, 1)
    }

    /// [`StretchTracker::new`] building, and later repairing, the sources
    /// on up to `threads` workers. Fields, report and cost are identical
    /// for any `threads`.
    pub fn with_threads(
        healed: &Graph,
        pristine: &Graph,
        sources: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let mut cost = OperationCost::ZERO;
        let k = sources.max(1);
        let reserve = Reserve::scan(healed, k, seed, &mut cost);
        let picked = reserve.sample(k);
        debug_assert_eq!(picked, select_sources(healed, sources, seed));
        let identical = healed.identical_to(pristine);
        let built = map_in_sample_order(picked, threads, |src| {
            SourceState::build(healed, pristine, src, identical)
        });
        // states stay in sample order; costs are summed in that order
        let (states, costs): (Vec<SourceState>, Vec<OperationCost>) = built.into_iter().unzip();
        StretchTracker {
            k,
            seed,
            threads,
            reserve,
            sources: states,
            cost: cost + costs.into_iter().sum(),
        }
    }

    /// Re-selects the sample against the post-wave live set, repairs every
    /// retained source's fields from the journal, and rebuilds promoted
    /// sources from scratch. `healed`/`pristine` are the **post-wave**
    /// graphs; `journal` is everything the engine recorded since the last
    /// call (or since tracker construction).
    pub fn apply_wave(&mut self, healed: &Graph, pristine: &Graph, journal: &ChurnJournal) {
        self.reserve
            .update(healed, journal, self.k, self.seed, &mut self.cost);
        let picked = self.reserve.sample(self.k);
        debug_assert_eq!(picked, select_sources(healed, self.k, self.seed));
        let mut old = std::mem::take(&mut self.sources).into_iter().peekable();
        // pair every picked source with its retained state, if any
        let jobs: Vec<(NodeId, Option<SourceState>)> = picked
            .into_iter()
            .map(|src| {
                // drop states whose source left the sample (died or demoted)
                while old.peek().is_some_and(|s| s.src < src) {
                    old.next();
                }
                (src, old.next_if(|s| s.src == src))
            })
            .collect();
        let done = map_in_sample_order(jobs, self.threads, |(src, kept)| match kept {
            Some(mut s) => {
                let cost = s.repair(healed, pristine, journal);
                (s, cost)
            }
            None => SourceState::build(healed, pristine, src, false),
        });
        let (states, costs): (Vec<SourceState>, Vec<OperationCost>) = done.into_iter().unzip();
        self.sources = states;
        self.cost += costs.into_iter().sum();
    }

    /// Scores the maintained fields exactly as the full pass scores fresh
    /// ones: same pair ownership, same sample-order fold — bit-identical
    /// figures when the fields are current for `healed`.
    pub fn report(&self, healed: &Graph) -> StretchReport {
        let picked: Vec<NodeId> = self.sources.iter().map(|s| s.src).collect();
        let sampled = sampled_flags(healed.capacity(), &picked);
        let passes: Vec<SourcePass> = self
            .sources
            .iter()
            .map(|s| pair_pass(&s.healed, &s.pristine, healed, s.src, &sampled))
            .collect();
        fold_passes(picked.len(), &passes)
    }

    /// Cumulative repair/build cost since construction.
    pub fn cost(&self) -> OperationCost {
        self.cost
    }

    /// Number of sources currently maintained.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::measure_stretch_full;
    use ft_graph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random `tree + n/5 chords` graph over `n` nodes.
    fn chorded_tree(n: usize, rng: &mut StdRng) -> Graph {
        let mut g = gen::random_tree(n, rng);
        for _ in 0..n / 5 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// Applies one wave of random mixed churn to `(healed, pristine)` by
    /// hand — deletions with a path-heal over the victim's neighbors,
    /// anchored insertions mirrored into the pristine graph, plus the odd
    /// chord add — and journals exactly what the engine would journal.
    fn churn_wave(rng: &mut StdRng, healed: &mut Graph, pristine: &mut Graph) -> ChurnJournal {
        let mut j = ChurnJournal::default();
        for _ in 0..3 {
            let live: Vec<NodeId> = healed.nodes().collect();
            if live.len() < 6 {
                break;
            }
            let v = live[rng.gen_range(0..live.len())];
            let nbrs = healed.delete_node(v);
            j.deleted.push((v, nbrs.clone()));
            for w in nbrs.windows(2) {
                if healed.add_edge(w[0], w[1]) {
                    j.edges_added.push((w[0], w[1]));
                }
            }
        }
        for _ in 0..2 {
            let live: Vec<NodeId> = healed.nodes().collect();
            let mut anchors = vec![live[rng.gen_range(0..live.len())]];
            let b = live[rng.gen_range(0..live.len())];
            if b != anchors[0] {
                anchors.push(b);
            }
            let v = healed.add_node();
            assert_eq!(v, pristine.add_node(), "lockstep capacities");
            for &u in &anchors {
                healed.add_edge(v, u);
                pristine.add_edge(v, u);
            }
            j.inserted.push((v, anchors));
        }
        // the odd healer chord between surviving nodes
        let live: Vec<NodeId> = healed.nodes().collect();
        let a = live[rng.gen_range(0..live.len())];
        let b = live[rng.gen_range(0..live.len())];
        if a != b && healed.add_edge(a, b) {
            j.edges_added.push((a, b));
        }
        j
    }

    /// Applies `waves` rounds of [`churn_wave`] and checks one tracker per
    /// entry of `threads` against the full oracle (figures) and against
    /// the first tracker (figures and cost) after every wave.
    fn churn_and_check(seed: u64, n: usize, waves: usize, k: usize, threads: &[usize]) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pristine = chorded_tree(n, &mut rng);
        let mut healed = pristine.clone();
        let mut trackers: Vec<StretchTracker> = threads
            .iter()
            .map(|&t| StretchTracker::with_threads(&healed, &pristine, k, seed, t))
            .collect();
        for wave in 0..waves {
            let j = churn_wave(&mut rng, &mut healed, &mut pristine);
            let (full, _) = measure_stretch_full(&healed, &pristine, k, seed, 1);
            for (tracker, t) in trackers.iter_mut().zip(threads) {
                tracker.apply_wave(&healed, &pristine, &j);
                let inc = tracker.report(&healed);
                assert_eq!(inc, full, "seed {seed}, wave {wave}, threads {t}: oracle");
            }
            let (first, rest) = trackers.split_first().expect("one tracker at least");
            for (tracker, t) in rest.iter().zip(&threads[1..]) {
                assert_eq!(tracker.report(&healed), first.report(&healed));
                assert_eq!(
                    tracker.cost(),
                    first.cost(),
                    "seed {seed}, wave {wave}, threads {t}: cost"
                );
            }
        }
        assert!(!trackers[0].cost().is_zero(), "repairs were charged");
    }

    #[test]
    fn tracker_matches_full_oracle_over_random_churn() {
        for seed in [3u64, 17, 40] {
            churn_and_check(seed, 120, 6, 10, &[1]);
        }
    }

    #[test]
    fn tracker_survives_full_sampling_and_source_death() {
        // k >= n: every live node is a source, so deletions always kill
        // sources and force promotion of fresh ones.
        churn_and_check(8, 40, 5, 64, &[1]);
    }

    /// Mirrors `sharded_pass_is_bit_identical_to_sequential`: sharding the
    /// build and the per-wave repairs changes neither figures nor cost,
    /// with (k < n) and without (k >= n) surviving sources to repair.
    #[test]
    fn tracker_is_thread_count_invariant() {
        let threads = [1, 2, 3, 7];
        for seed in [5u64, 29] {
            churn_and_check(seed, 150, 6, 12, &threads);
        }
        churn_and_check(11, 40, 5, 64, &threads);
    }

    #[test]
    fn quiet_wave_is_nearly_free() {
        let g = gen::kary_tree(500, 3);
        let mut tracker = StretchTracker::new(&g, &g, 8, 1);
        let build_cost = tracker.cost();
        tracker.apply_wave(&g, &g, &ChurnJournal::default());
        let idle = tracker.cost() - build_cost;
        assert_eq!(idle.node_visits, 0, "no churn, no support probes");
        assert_eq!(idle.edge_scans, 0);
        assert_eq!(idle.heap_bytes, 0, "nothing built");
        assert_eq!(
            idle.seeks, 16,
            "only the 2k reserve entries are checked: no scan of the 500 live nodes"
        );
        assert_eq!(
            tracker.report(&g),
            measure_stretch_full(&g, &g, 8, 1, 1).0,
            "fields untouched"
        );
    }

    #[test]
    fn identical_graphs_share_one_bfs_per_source() {
        let g = gen::kary_tree(500, 3);
        let tracker = StretchTracker::new(&g, &g, 8, 1);
        for s in &tracker.sources {
            assert_eq!(s.pristine, s.healed, "{:?}: copied field", s.src);
        }
        let cost = tracker.cost();
        assert_eq!(cost.node_visits, 8 * 500, "one BFS per source");
        assert_eq!(
            cost.edge_scans,
            8 * 2 * 499,
            "one adjacency sweep per source"
        );
        assert_eq!(cost.heap_bytes, 2 * 8 * 500 * 4, "two tables per source");
        assert_eq!(cost.seeks, 500, "one initial scan of the live set");

        // equal under `==`, but the pristine id space is one slot wider:
        // not identical, so every source takes a BFS on each graph
        let mut wide = g.clone();
        let extra = wide.add_node();
        wide.delete_node(extra);
        assert_eq!(g, wide);
        let tracker = StretchTracker::new(&g, &wide, 8, 1);
        assert_eq!(
            tracker.cost().node_visits,
            2 * 8 * 500,
            "two BFS per source"
        );
        assert_eq!(
            tracker.report(&g),
            measure_stretch_full(&g, &wide, 8, 1, 1).0
        );
    }

    #[test]
    fn fields_absorb_insertions_without_reallocating() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut pristine = chorded_tree(400, &mut rng);
        let mut healed = pristine.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, 6, 21);
        let reserved = |t: &StretchTracker| -> Vec<(NodeId, usize, usize)> {
            t.sources
                .iter()
                .map(|s| (s.src, s.healed.reserved(), s.pristine.reserved()))
                .collect()
        };
        let before = reserved(&tracker);
        assert!(before.iter().all(|&(_, h, p)| h >= 450 && p >= 450));
        // 8 waves insert 16 nodes, well inside the 50-slot headroom
        for _ in 0..8 {
            let j = churn_wave(&mut rng, &mut healed, &mut pristine);
            tracker.apply_wave(&healed, &pristine, &j);
            for (src, h, p) in reserved(&tracker) {
                if let Some(&(_, h0, p0)) = before.iter().find(|b| b.0 == src) {
                    assert_eq!((h, p), (h0, p0), "{src:?}'s fields reallocated");
                }
            }
        }
        assert_eq!(healed.capacity(), 416);
        assert_eq!(
            tracker.report(&healed),
            measure_stretch_full(&healed, &pristine, 6, 21, 1).0
        );
    }

    /// One wave of liveness churn for the reserve property below, on an
    /// edgeless graph (reselection reads liveness only): deletes `victims`
    /// and then `random_dels` random live nodes, and inserts `ins` nodes,
    /// reviving a dead slot for every third one.
    fn liveness_churn(
        rng: &mut StdRng,
        g: &mut Graph,
        victims: &[NodeId],
        random_dels: usize,
        ins: usize,
    ) -> ChurnJournal {
        let mut j = ChurnJournal::default();
        for i in 0..victims.len() + random_dels {
            let live: Vec<NodeId> = g.nodes().collect();
            if live.len() <= 1 {
                break;
            }
            let v = victims
                .get(i)
                .copied()
                .unwrap_or_else(|| live[rng.gen_range(0..live.len())]);
            j.deleted.push((v, g.delete_node(v)));
        }
        for i in 0..ins {
            let v = match g.first_dead_slot() {
                Some(v) if i % 3 == 0 => {
                    g.revive_node(v);
                    v
                }
                _ => g.add_node(),
            };
            j.inserted.push((v, Vec::new()));
        }
        j
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every wave the reserve's sample equals a fresh scan's and
        /// its keys are the lowest of the live set. Three kinds of churn:
        /// - deletion-heavy (mode 0): the whole sample plus `k` random
        ///   nodes die each wave and nothing is inserted, which drains the
        ///   reserve and forces rescans;
        /// - insert-heavy (mode 1): `2k` inserts a wave, one deletion on
        ///   every other wave;
        /// - light churn on at most `2k` nodes (mode 2): one insert a wave,
        ///   one deletion on every other wave, so `k` is at or above the
        ///   live count at times and the reserve holds the whole live set.
        ///
        /// A wave without deletions never rescans.
        #[test]
        fn reserve_matches_select_sources_under_churn(
            seed in 0u64..10_000,
            n in 1usize..300,
            k in 1usize..16,
            mode in 0u8..3,
            waves in 1usize..10,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cap = 2 * k;
            let n = if mode == 2 { 1 + n % cap } else { n };
            let mut g = Graph::new(n);
            let mut cost = OperationCost::ZERO;
            let mut reserve = Reserve::scan(&g, k, seed, &mut cost);
            let mut rescans = 0;
            for wave in 0..waves {
                let j = match mode {
                    0 => {
                        let sample = select_sources(&g, k, seed);
                        liveness_churn(&mut rng, &mut g, &sample, k, 0)
                    }
                    1 => liveness_churn(&mut rng, &mut g, &[], wave % 2, 2 * k),
                    _ => liveness_churn(&mut rng, &mut g, &[], wave % 2, 1),
                };
                let (before, was_complete) = (reserve.keys.len(), reserve.complete);
                let seeks = cost.seeks;
                reserve.update(&g, &j, k, seed, &mut cost);
                let probes = count(before + j.inserted.len());
                if cost.seeks != seeks + probes {
                    prop_assert!(!was_complete, "a complete reserve never rescans");
                    prop_assert!(!j.deleted.is_empty(), "only deaths drain the reserve");
                    prop_assert_eq!(cost.seeks, seeks + probes + count(g.len()));
                    rescans += 1;
                }
                prop_assert_eq!(reserve.sample(k), select_sources(&g, k, seed), "wave {}", wave);
                let mut scanned = lowest_keys(&g, reserve.keys.len(), seed);
                scanned.sort_unstable();
                prop_assert_eq!(&reserve.keys, &scanned, "wave {}: not the lowest keys", wave);
                prop_assert!(reserve.keys.len() <= cap);
                prop_assert!(!reserve.complete || reserve.keys.len() == g.len());
                if g.len() <= k {
                    prop_assert!(reserve.complete, "k >= live count keeps every node");
                }
            }
            if mode == 0 && waves >= 2 && n > cap {
                prop_assert!(rescans > 0, "deletion-heavy churn drained the reserve");
            }
        }
    }

    #[test]
    fn edge_removal_carves_and_repairs() {
        // pristine: 8-cycle; healed loses one edge -> distances re-route
        let pristine = gen::cycle(8);
        let mut healed = pristine.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, 8, 2);
        let mut j = ChurnJournal::default();
        healed.remove_edge(NodeId(0), NodeId(7));
        j.edges_removed.push((NodeId(0), NodeId(7)));
        tracker.apply_wave(&healed, &pristine, &j);
        let inc = tracker.report(&healed);
        let (full, _) = measure_stretch_full(&healed, &pristine, 8, 2, 1);
        assert_eq!(inc, full);
        assert_eq!(inc.max_stretch, 7.0, "cycle end-to-end became a path");
    }

    #[test]
    fn disconnection_is_tracked() {
        let pristine = gen::path(6);
        let mut healed = pristine.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, 6, 4);
        let mut j = ChurnJournal::default();
        healed.remove_edge(NodeId(2), NodeId(3));
        j.edges_removed.push((NodeId(2), NodeId(3)));
        tracker.apply_wave(&healed, &pristine, &j);
        let inc = tracker.report(&healed);
        let (full, _) = measure_stretch_full(&healed, &pristine, 6, 4, 1);
        assert_eq!(inc, full);
        assert!(inc.disconnected_pairs > 0, "split path loses pairs");
        // reconnecting repairs the fields decrease-only
        let mut j2 = ChurnJournal::default();
        healed.add_edge(NodeId(2), NodeId(3));
        j2.edges_added.push((NodeId(2), NodeId(3)));
        tracker.apply_wave(&healed, &pristine, &j2);
        let inc2 = tracker.report(&healed);
        assert_eq!(inc2.disconnected_pairs, 0);
        assert_eq!(inc2, measure_stretch_full(&healed, &pristine, 6, 4, 1).0);
    }
}
