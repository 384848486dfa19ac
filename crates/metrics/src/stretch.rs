//! Stretch measurement: healed-graph distances against the pristine graph.
//!
//! The Forgiving Graph's headline guarantee is *low stretch*: for any two
//! surviving nodes `u, v`, the healed distance satisfies
//! `d_healed(u, v) ≤ O(log n) · d_pristine(u, v)`, where the pristine graph
//! contains every insertion and no deletion (paths may route through since-
//! deleted nodes — the strongest baseline).
//!
//! [`measure_stretch_full`] samples BFS sources among the surviving nodes
//! and compares the two distance fields pairwise, so the cost is
//! `O(sources · (V + E))` rather than all-pairs — at 10⁴ nodes a full
//! campaign's stretch pass runs in milliseconds and scales to 10⁵⁺. For
//! campaigns where even that re-sweep dominates, the incremental tracker in
//! [`crate::stretch_inc`] maintains the same distance fields across churn
//! and produces bit-identical figures; this module is its differential
//! oracle.
//!
//! # Source sampling
//!
//! Sources are chosen by **min-wise priority sampling**: every node id gets
//! a fixed pseudorandom priority from `(seed, id)` and the `k` live nodes
//! with the smallest priorities form the sample ([`select_sources`]). The
//! sample is a pure function of the seed and the live set — no RNG state,
//! no draw order — so an incremental maintainer can reselect after churn
//! and land on exactly the set a fresh full pass would pick.
//!
//! Pairs are counted **once**: when both endpoints of a surviving pair are
//! sampled as sources, the pair is charged to its lower-ID endpoint only,
//! so `pairs`, `mean_stretch`, and `disconnected_pairs` are counts over
//! *unordered* pairs (an earlier version double-counted source–source
//! pairs, silently inflating `pairs` and biasing `mean_stretch` toward
//! whatever the source set happened to oversample).
//!
//! The pass is shardable: `threads > 1` splits the sampled sources across
//! worker threads (each BFS is independent) and folds the per-source
//! partial results **in sample order** (ascending source id), so every
//! figure — including the floating-point `mean_stretch` accumulation and
//! the [`OperationCost`] counters — is bit-identical to the
//! single-threaded pass.

use ft_costs::{count, CostResult, OperationCost};
use ft_graph::bfs::{bfs_with_headroom, DistanceMap};
use ft_graph::{Graph, NodeId};

/// What a sampled stretch pass observed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StretchReport {
    /// BFS sources sampled.
    pub sources: usize,
    /// Surviving unordered pairs compared (each counted once).
    pub pairs: usize,
    /// Worst observed `d_healed / d_pristine`.
    pub max_stretch: f64,
    /// Mean observed `d_healed / d_pristine`.
    pub mean_stretch: f64,
    /// Worst healed distance seen from any sampled source.
    pub max_healed_distance: u32,
    /// Pairs connected in the pristine graph but not in the healed one —
    /// non-zero means the healer lost connectivity (a bug).
    pub disconnected_pairs: usize,
}

/// Everything one source's pair comparison contributes, folded in sample
/// order so sharded and sequential passes accumulate identically.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SourcePass {
    pub(crate) pairs: usize,
    pub(crate) sum: f64,
    pub(crate) max_stretch: f64,
    pub(crate) max_healed_distance: u32,
    pub(crate) disconnected: usize,
}

/// Folds per-source passes (in sample order) into a [`StretchReport`].
/// Shared by the full pass and the incremental tracker so the two score
/// identically down to the floating-point accumulation order.
pub(crate) fn fold_passes(sources: usize, passes: &[SourcePass]) -> StretchReport {
    let mut report = StretchReport {
        sources,
        ..StretchReport::default()
    };
    let mut sum = 0.0f64;
    for pass in passes {
        report.pairs += pass.pairs;
        sum += pass.sum;
        if pass.max_stretch > report.max_stretch {
            report.max_stretch = pass.max_stretch;
        }
        report.max_healed_distance = report.max_healed_distance.max(pass.max_healed_distance);
        report.disconnected_pairs += pass.disconnected;
    }
    if report.pairs > 0 {
        // ft-lint: allow(lossy-cast-in-accounting, "pairs < n^2 <= 2^53 at any experiment scale, so the usize->f64 conversion is exact")
        report.mean_stretch = sum / report.pairs as f64;
    }
    report
}

/// SplitMix64 finalizer — the priority hash behind min-wise sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fixed pseudorandom priority of node `v` under `seed`. Lower wins.
pub(crate) fn priority(seed: u64, v: NodeId) -> u64 {
    splitmix64(seed ^ u64::from(v.0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The min-wise sample: the (up to) `k` live nodes of `g` with the
/// smallest `(priority, id)` keys, returned in **ascending id order** (the
/// canonical sample order every fold in this module uses). Deterministic
/// and history-free: any two callers that agree on `(seed, k)` and the
/// live set agree on the sample.
pub fn select_sources(g: &Graph, k: usize, seed: u64) -> Vec<NodeId> {
    let mut picked: Vec<NodeId> = lowest_keys(g, k.max(1), seed)
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    picked.sort_unstable();
    picked
}

/// The (up to) `m` smallest `(priority, id)` keys among `g`'s live nodes,
/// in no particular order: one priority probe per live node.
pub(crate) fn lowest_keys(g: &Graph, m: usize, seed: u64) -> Vec<(u64, NodeId)> {
    let mut keyed: Vec<(u64, NodeId)> = g.nodes().map(|v| (priority(seed, v), v)).collect();
    if m == 0 {
        keyed.clear();
    } else if m < keyed.len() {
        keyed.select_nth_unstable(m - 1);
        keyed.truncate(m);
    }
    keyed
}

/// BFS distances from `src`, charging the pass to `cost`: one node visit
/// per settled node, one edge scan per adjacency entry examined. The table
/// reserves room for `spare` more id-space slots (see
/// [`DistanceMap::with_headroom`]); the charged heap bytes cover the
/// written slots only.
pub(crate) fn bfs_with_cost(
    g: &Graph,
    src: NodeId,
    spare: usize,
    cost: &mut OperationCost,
) -> DistanceMap {
    let (dist, scans) = bfs_with_headroom(g, src, spare);
    cost.node_visits += count(dist.len());
    cost.edge_scans += count(scans);
    if !dist.is_empty() {
        charge_table(g, cost);
    }
    dist
}

/// Charges one distance table over `g`'s id space to `cost.heap_bytes`.
pub(crate) fn charge_table(g: &Graph, cost: &mut OperationCost) {
    cost.heap_bytes = cost
        .heap_bytes
        .saturating_add(count(g.capacity() * std::mem::size_of::<u32>()));
}

/// Scores every surviving pair owned by `src` against the two distance
/// fields. Iterates survivors in ascending `NodeId` order (deterministic —
/// never a hash-map iteration order) and skips pairs owned by a lower-ID
/// sampled source. Shared verbatim by the full pass and the incremental
/// tracker — figure parity between the two reduces to distance-field
/// parity.
pub(crate) fn pair_pass(
    dh: &DistanceMap,
    dp: &DistanceMap,
    healed: &Graph,
    src: NodeId,
    sampled: &[bool],
) -> SourcePass {
    let mut pass = SourcePass::default();
    for v in healed.nodes() {
        if v == src {
            continue;
        }
        // {src, v} with both endpoints sampled would be visited from each
        // side; the lower-ID endpoint owns the pair.
        if v < src && sampled.get(v.index()).copied().unwrap_or(false) {
            continue;
        }
        let Some(pd) = dp.get(v) else {
            // not reachable in the pristine graph either: no pair to score
            continue;
        };
        match dh.get(v) {
            None => pass.disconnected += 1,
            Some(hd) => {
                let s = f64::from(hd) / f64::from(pd);
                pass.pairs += 1;
                pass.sum += s;
                if s > pass.max_stretch {
                    pass.max_stretch = s;
                }
                pass.max_healed_distance = pass.max_healed_distance.max(hd);
            }
        }
    }
    pass
}

/// Marks the sampled sources in a dense flag array over the id space.
pub(crate) fn sampled_flags(capacity: usize, picked: &[NodeId]) -> Vec<bool> {
    let mut sampled = vec![false; capacity];
    for &s in picked {
        sampled[s.index()] = true;
    }
    sampled
}

/// Maps `f` over `items` on up to `threads` scoped workers, one contiguous
/// chunk of `items` per worker, and returns the results in item order.
/// Callers fold the results in that order, so a sharded pass cannot be
/// told apart from the sequential one (`threads <= 1` runs inline).
pub(crate) fn map_in_sample_order<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (f, len) = (&f, items.len());
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let chunk: Vec<T> = items
                    .by_ref()
                    .take(len * (t + 1) / threads - len * t / threads)
                    .collect();
                scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sample-order worker"))
            .collect()
    })
}

/// One source's full pass: both BFS fields plus the pair comparison.
fn source_pass(
    healed: &Graph,
    pristine: &Graph,
    src: NodeId,
    sampled: &[bool],
) -> (SourcePass, OperationCost) {
    let mut cost = OperationCost::ZERO;
    let dh = bfs_with_cost(healed, src, 0, &mut cost);
    let dp = bfs_with_cost(pristine, src, 0, &mut cost);
    (pair_pass(&dh, &dp, healed, src, sampled), cost)
}

/// The full (from-scratch) stretch pass: min-wise samples up to `sources`
/// BFS sources among the nodes alive in `healed` and measures the distance
/// stretch of every surviving pair involving a sampled source, each
/// unordered pair counted once. Returns the figures together with the
/// [`OperationCost`] of the sweep (BFS settles as node visits, adjacency
/// reads as edge scans, distance tables as heap bytes).
///
/// Results — figures *and* cost counters — are bit-identical for any
/// `threads` value: each worker owns a contiguous run of the sampled
/// sources and per-source partials are folded in sample order on the
/// calling thread. This is the differential oracle the incremental
/// tracker ([`crate::stretch_inc::StretchTracker`]) is checked against.
///
/// Nodes alive in `healed` must exist in `pristine` (the engines guarantee
/// this: insertions grow both graphs in lockstep).
pub fn measure_stretch_full(
    healed: &Graph,
    pristine: &Graph,
    sources: usize,
    seed: u64,
    threads: usize,
) -> CostResult<StretchReport> {
    let picked = select_sources(healed, sources, seed);
    let sampled = sampled_flags(healed.capacity(), &picked);

    let picked_len = picked.len();
    let passes = map_in_sample_order(picked, threads, |src| {
        source_pass(healed, pristine, src, &sampled)
    });

    let mut cost = OperationCost::ZERO;
    let folded: Vec<SourcePass> = passes
        .iter()
        .map(|&(p, c)| {
            cost += c;
            p
        })
        .collect();
    (fold_passes(picked_len, &folded), cost)
}

/// [`measure_stretch_full`] with one thread, figures only — the historical
/// entry point most tests and experiments call.
pub fn measure_stretch(
    healed: &Graph,
    pristine: &Graph,
    sources: usize,
    seed: u64,
) -> StretchReport {
    measure_stretch_full(healed, pristine, sources, seed, 1).0
}

/// [`measure_stretch_full`], figures only (compat wrapper).
pub fn measure_stretch_mt(
    healed: &Graph,
    pristine: &Graph,
    sources: usize,
    seed: u64,
    threads: usize,
) -> StretchReport {
    measure_stretch_full(healed, pristine, sources, seed, threads).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen;

    #[test]
    fn identical_graphs_have_stretch_one() {
        let g = gen::kary_tree(30, 2);
        let r = measure_stretch(&g, &g, 8, 1);
        assert_eq!(r.max_stretch, 1.0);
        assert_eq!(r.mean_stretch, 1.0);
        assert_eq!(r.disconnected_pairs, 0);
        assert!(r.pairs > 0);
    }

    #[test]
    fn detour_shows_up_as_stretch() {
        // pristine: a 6-cycle; healed: the cycle minus one edge (a path) —
        // the endpoints' distance grows from 1 to 5.
        let pristine = gen::cycle(6);
        let mut healed = pristine.clone();
        healed.remove_edge(NodeId(0), NodeId(5));
        let r = measure_stretch(&healed, &pristine, 6, 3);
        assert_eq!(r.max_stretch, 5.0);
        assert!(r.mean_stretch > 1.0);
        assert_eq!(r.disconnected_pairs, 0);
    }

    #[test]
    fn lost_connectivity_is_reported() {
        let pristine = gen::path(4);
        let mut healed = pristine.clone();
        healed.remove_edge(NodeId(1), NodeId(2));
        let r = measure_stretch(&healed, &pristine, 4, 5);
        assert!(r.disconnected_pairs > 0);
    }

    #[test]
    fn deleted_nodes_are_skipped_but_route_pristine_paths() {
        // healed: 0-2 direct after 1 died; pristine still routes 0-1-2
        let pristine = gen::path(3);
        let mut healed = pristine.clone();
        healed.delete_node(NodeId(1));
        healed.add_edge(NodeId(0), NodeId(2));
        let r = measure_stretch(&healed, &pristine, 3, 7);
        assert_eq!(r.pairs, 1, "both survivors sampled: the pair counts once");
        assert_eq!(r.max_stretch, 0.5, "the heal shortened the route");
    }

    #[test]
    fn every_pair_counted_exactly_once_under_full_sampling() {
        // every live node sampled ⇒ pairs must be exactly C(n, 2)
        let g = gen::cycle(7);
        let r = measure_stretch(&g, &g, 7, 11);
        assert_eq!(r.sources, 7);
        assert_eq!(r.pairs, 7 * 6 / 2, "unordered pairs, no double count");
        // and on a disconnected healed graph the missing pairs are
        // likewise deduped
        let mut healed = g.clone();
        healed.remove_edge(NodeId(0), NodeId(1));
        healed.remove_edge(NodeId(3), NodeId(4));
        let r = measure_stretch(&healed, &g, 7, 11);
        assert_eq!(
            r.pairs + r.disconnected_pairs,
            7 * 6 / 2,
            "connected + lost pairs partition the unordered pair set"
        );
    }

    #[test]
    fn min_wise_sample_is_a_pure_function_of_seed_and_live_set() {
        let g = gen::kary_tree(100, 3);
        let a = select_sources(&g, 10, 5);
        let b = select_sources(&g, 10, 5);
        assert_eq!(a, b, "deterministic");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending id order");
        assert_ne!(a, select_sources(&g, 10, 6), "seed matters");
        // deleting an unsampled node leaves the sample untouched;
        // deleting a sampled node promotes exactly one replacement
        let mut g2 = g.clone();
        let unsampled = g2.nodes().find(|v| !a.contains(v)).expect("one exists");
        g2.delete_node(unsampled);
        assert_eq!(select_sources(&g2, 10, 5), a);
        let mut g3 = g.clone();
        g3.delete_node(a[0]);
        let c = select_sources(&g3, 10, 5);
        assert_eq!(c.len(), 10);
        assert_eq!(c.iter().filter(|v| a.contains(v)).count(), 9);
    }

    #[test]
    fn full_pass_charges_costs() {
        let g = gen::kary_tree(50, 2);
        let (r, cost) = measure_stretch_full(&g, &g, 4, 1, 1);
        assert!(r.pairs > 0);
        assert_eq!(
            cost.node_visits,
            2 * 4 * 50,
            "each of 4 sources settles all 50 nodes in both graphs"
        );
        assert!(cost.edge_scans > 0);
        assert!(cost.heap_bytes > 0);
        assert_eq!(cost.messages_sent, 0, "measurement sends nothing");
    }

    #[test]
    fn sharded_pass_is_bit_identical_to_sequential() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let pristine = {
            let mut g = gen::random_tree(400, &mut rng);
            for _ in 0..80 {
                let a = NodeId(rng.gen_range(0..400u32));
                let b = NodeId(rng.gen_range(0..400u32));
                if a != b && !g.has_edge(a, b) {
                    g.add_edge(a, b);
                }
            }
            g
        };
        let mut healed = pristine.clone();
        // delete a handful of nodes and patch their neighborhoods closed
        for dead in [7u32, 42, 99, 250] {
            let nbrs: Vec<NodeId> = healed.neighbors(NodeId(dead)).collect();
            healed.delete_node(NodeId(dead));
            for w in nbrs.windows(2) {
                if !healed.has_edge(w[0], w[1]) {
                    healed.add_edge(w[0], w[1]);
                }
            }
        }
        let (seq, seq_cost) = measure_stretch_full(&healed, &pristine, 24, 5, 1);
        for threads in [2, 3, 4, 7] {
            let (par, par_cost) = measure_stretch_full(&healed, &pristine, 24, 5, threads);
            assert_eq!(seq, par, "threads={threads} diverged");
            assert_eq!(seq_cost, par_cost, "threads={threads} cost diverged");
        }
        assert!(seq.pairs > 0);
    }
}
