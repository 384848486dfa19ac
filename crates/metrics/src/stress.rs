//! Scale stress harness: 10⁵-node adversarial campaigns on the distributed
//! engine, with a machine-readable perf record (`BENCH_sim.json`).
//!
//! [`run_stress`] builds a k-ary tree workload, arms the message-level
//! [`DistributedForgivingTree`], and drives wave after wave of deletions
//! (planned by an `ft-adversary` [`ft_adversary::WavePlanner`], applied by
//! the `ft-sim` [`Campaign`] driver) until the deletion budget is spent. The
//! resulting [`StressRecord`] reports throughput (deletions/sec and
//! messages/sec of heal time, with planner time apart), the peak per-node
//! round load, and the full message ledger — and `run_stress` panics if
//! the books do not balance or any heal fails to quiesce, so it doubles as
//! an end-to-end accounting check in CI.
//!
//! `StressConfig::faults` arms a named deterministic fault model
//! ([`ft_sim::FaultConfig`]) on the same campaign: loss, duplication,
//! delay, partitions, and crash-stop deaths, all a pure function of the
//! seed, so faulty runs replay byte-identically at any thread count. Under
//! faults the convergence/connectivity panics relax into recorded
//! booleans; the accounting panics never relax.

use ft_adversary::{make_wave_planner, AdversaryView};
use ft_core::distributed::DistributedForgivingTree;
use ft_costs::OperationCost;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, NodeId};
use ft_sim::{Campaign, CampaignConfig, FaultConfig, HealCadence};
use std::time::Instant;

/// Salt xor-ed into the campaign seed to derive the fault-plan seed, so the
/// wave planner and the fault schedule draw from decoupled streams.
pub(crate) const FAULT_SEED_SALT: u64 = 0xFA17_5EED;

/// Stress-campaign parameters.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Initial node count (the paper's `n`).
    pub nodes: usize,
    /// Total deletion budget.
    pub deletions: usize,
    /// Victims per adversarial wave.
    pub wave_size: usize,
    /// Arity of the k-ary tree workload.
    pub arity: usize,
    /// Wave planner: `random`, `targeted`, or `heavy-tail`.
    pub planner: String,
    /// RNG seed for the planner.
    pub seed: u64,
    /// Thread count echoed into the record. The tree model has no threaded
    /// pass: the round engine is sequential, so every figure is the same
    /// for any value.
    pub threads: usize,
    /// Heal cadence: `per-deletion` (Model 2.1, the default) or `per-wave`
    /// (the whole wave strikes before recovery runs — heavier recovery
    /// rounds, many deletions healed in one go).
    /// **Caveat**: the Forgiving Tree protocol is specified for one
    /// deletion per time step; under `per-wave` a victim's will-holders
    /// can die with it and the heal may lose connectivity, which the
    /// harness then reports by panicking — that failure is the honest
    /// measurement of an out-of-contract adversary.
    pub cadence: String,
    /// Named fault model ([`FaultConfig::from_name`]): `none` (default),
    /// `delay`, `loss`, `dup`, `crash`, `partition`, `chaos`, or
    /// `+`-joined combinations. Any model other than `none` relaxes the
    /// convergence/connectivity panics into recorded booleans — under
    /// faults those are measurements, not contract violations — while the
    /// ledger-balance and cost-reconciliation panics stay armed.
    pub faults: String,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            nodes: 100_000,
            deletions: 1_000,
            wave_size: 50,
            arity: 8,
            planner: String::from("random"),
            seed: 42,
            threads: 1,
            cadence: String::from("per-deletion"),
            faults: String::from("none"),
        }
    }
}

/// The perf record emitted as `BENCH_sim.json`.
#[derive(Clone, Debug)]
pub struct StressRecord {
    /// Echo of the configuration.
    pub config: StressConfig,
    /// Waves applied.
    pub waves: usize,
    /// Deletions actually performed.
    pub deletions: usize,
    /// Engine rounds consumed.
    pub rounds: u64,
    /// Live nodes remaining.
    pub live_remaining: usize,
    /// The `--threads` value the run was given.
    pub threads: usize,
    /// Wall-clock seconds for the campaign (setup excluded): planning plus
    /// healing.
    pub elapsed_secs: f64,
    /// The same wall time in milliseconds (the perf-trajectory datapoint).
    pub wall_ms: f64,
    /// Wall-clock seconds the wave planner took (not in the JSON record).
    pub plan_secs: f64,
    /// Wall-clock seconds the heal waves took (not in the JSON record).
    pub heal_secs: f64,
    /// Healed deletions per second of heal time (planner time excluded).
    pub nodes_per_sec: f64,
    /// Delivered messages (notices included) per second of heal time.
    pub msgs_per_sec: f64,
    /// Worst single-node single-round message load.
    pub peak_per_node_load: usize,
    /// Worst lifetime per-node message total.
    pub max_per_node_total: u64,
    /// Ledger: messages handed to the engine.
    pub sent: u64,
    /// Ledger: protocol messages delivered.
    pub delivered: u64,
    /// Ledger: messages dropped on dead endpoints.
    pub dropped: u64,
    /// Ledger: deletion notices delivered.
    pub notices: u64,
    /// Ledger: deliveries + notices.
    pub total_messages: u64,
    /// Engine-side operation cost of the whole campaign (accumulated by
    /// the round engine; `cost.messages_delivered` reconciles with the
    /// ledger's delivered book by construction).
    pub cost: OperationCost,
    /// Whether both ledger identities held at the end (always true when
    /// `run_stress` returns — it panics otherwise).
    pub balanced: bool,
    /// Whether every heal phase reached quiescence within its round budget
    /// (always true on return when `faults == "none"` — a truncated heal
    /// panics the fault-free harness; under faults it is a measurement).
    pub converged: bool,
    /// Ledger: messages destroyed on the wire (loss + partition cuts).
    pub lost: u64,
    /// Ledger: surplus copies minted by duplication.
    pub duplicated: u64,
    /// Ledger: messages that took at least one extra round in the delay
    /// queue (observability book; delayed mail still delivers or drops).
    pub delayed: u64,
    /// Deletions the fault plan escalated to crash-stops.
    pub crashes: u64,
    /// FNV-1a fingerprint of the realized fault schedule (the basis value
    /// when no fault fired).
    pub fault_fingerprint: u64,
    /// Whether the healed graph was still connected at the end (always
    /// true when `faults == "none"` — disconnection panics there).
    pub connected: bool,
}

impl StressRecord {
    /// Serializes the record as a flat JSON object (hand-rolled: the
    /// workspace is offline and vendors no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"sim_stress\",\n",
                "  \"nodes\": {},\n",
                "  \"arity\": {},\n",
                "  \"planner\": \"{}\",\n",
                "  \"cadence\": \"{}\",\n",
                "  \"seed\": {},\n",
                "  \"wave_size\": {},\n",
                "  \"waves\": {},\n",
                "  \"deletions\": {},\n",
                "  \"rounds\": {},\n",
                "  \"live_remaining\": {},\n",
                "  \"threads\": {},\n",
                "  \"elapsed_secs\": {:.6},\n",
                "  \"wall_ms\": {:.3},\n",
                "  \"nodes_per_sec\": {:.1},\n",
                "  \"msgs_per_sec\": {:.1},\n",
                "  \"peak_per_node_load\": {},\n",
                "  \"max_per_node_total\": {},\n",
                "  \"sent\": {},\n",
                "  \"delivered\": {},\n",
                "  \"dropped\": {},\n",
                "  \"notices\": {},\n",
                "  \"total_messages\": {},\n",
                "  \"cost_messages_sent\": {},\n",
                "  \"cost_messages_delivered\": {},\n",
                "  \"cost_node_visits\": {},\n",
                "  \"cost_edge_scans\": {},\n",
                "  \"cost_heap_bytes\": {},\n",
                "  \"cost_seeks\": {},\n",
                "  \"balanced\": {},\n",
                "  \"converged\": {},\n",
                "  \"faults\": \"{}\",\n",
                "  \"lost\": {},\n",
                "  \"duplicated\": {},\n",
                "  \"delayed\": {},\n",
                "  \"crashes\": {},\n",
                "  \"fault_fingerprint\": {},\n",
                "  \"connected\": {}\n",
                "}}\n"
            ),
            self.config.nodes,
            self.config.arity,
            self.config.planner,
            self.config.cadence,
            self.config.seed,
            self.config.wave_size,
            self.waves,
            self.deletions,
            self.rounds,
            self.live_remaining,
            self.threads,
            self.elapsed_secs,
            self.wall_ms,
            self.nodes_per_sec,
            self.msgs_per_sec,
            self.peak_per_node_load,
            self.max_per_node_total,
            self.sent,
            self.delivered,
            self.dropped,
            self.notices,
            self.total_messages,
            self.cost.messages_sent,
            self.cost.messages_delivered,
            self.cost.node_visits,
            self.cost.edge_scans,
            self.cost.heap_bytes,
            self.cost.seeks,
            self.balanced,
            self.converged,
            self.config.faults,
            self.lost,
            self.duplicated,
            self.delayed,
            self.crashes,
            self.fault_fingerprint,
            self.connected,
        )
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} deletions over {} waves on n={} ({} planner, {} thread{}): \
             {:.2}s (planner {:.2}s, heal {:.2}s), {:.0} deletions/s and \
             {:.0} msgs/s of heal, peak node load {}, books balanced",
            self.deletions,
            self.waves,
            self.config.nodes,
            self.config.planner,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.elapsed_secs,
            self.plan_secs,
            self.heal_secs,
            self.nodes_per_sec,
            self.msgs_per_sec,
            self.peak_per_node_load,
        )
    }
}

/// Runs the stress campaign described by `cfg`.
///
/// # Panics
/// Panics on an unknown planner/cadence/fault-model name or a
/// message-ledger imbalance — a non-zero exit is the CI failure signal.
/// When `faults == "none"` a truncated heal or a disconnected result also
/// panics; under any other fault model those become the recorded
/// `converged` / `connected` booleans.
pub fn run_stress(cfg: &StressConfig) -> StressRecord {
    let g = gen::kary_tree(cfg.nodes, cfg.arity.max(2));
    let tree = RootedTree::from_tree_graph(&g, NodeId(0));
    let mut dist = DistributedForgivingTree::new(&tree);
    let mut planner = make_wave_planner(&cfg.planner, cfg.seed)
        .unwrap_or_else(|| panic!("unknown wave planner: {}", cfg.planner));
    let cadence = match cfg.cadence.as_str() {
        "per-deletion" => HealCadence::PerDeletion,
        "per-wave" => HealCadence::PerWave,
        other => panic!("unknown heal cadence: {other} (per-deletion | per-wave)"),
    };
    let fault_cfg = FaultConfig::from_name(&cfg.faults)
        .unwrap_or_else(|| panic!("unknown fault model: {}", cfg.faults));
    let faulty = !fault_cfg.is_zero();
    if faulty {
        dist.network_mut()
            .set_fault_plan(Some(fault_cfg.plan(cfg.seed ^ FAULT_SEED_SALT)));
    }
    let mut campaign = Campaign::new(CampaignConfig {
        threads: cfg.threads.max(1),
        cadence,
        ..CampaignConfig::default()
    });

    let start = Instant::now();
    let (mut plan_secs, mut heal_secs) = (0.0f64, 0.0f64);
    let mut remaining = cfg.deletions.min(cfg.nodes.saturating_sub(1));
    while remaining > 0 && dist.len() > 1 {
        let k = remaining.min(cfg.wave_size.max(1)).min(dist.len() - 1);
        let t0 = Instant::now();
        let victims = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            k,
        );
        let t1 = Instant::now();
        plan_secs += (t1 - t0).as_secs_f64();
        if victims.is_empty() {
            break;
        }
        remaining -= victims.len();
        campaign.run_wave(dist.network_mut(), &victims);
        heal_secs += t1.elapsed().as_secs_f64();
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let heal_secs = heal_secs.max(1e-9);

    dist.network()
        .check_accounting()
        .expect("message ledger imbalance after stress campaign");
    let converged = campaign.report().converged;
    let connected = dist.graph().is_connected();
    if !faulty {
        assert!(
            converged,
            "a heal phase was truncated by the round budget (non-convergence)"
        );
        assert!(
            connected,
            "healer lost connectivity during the stress campaign"
        );
    }
    let ledger = dist.ledger();
    let cost = dist.network().costs();
    assert_eq!(
        cost.messages_delivered,
        ledger.delivered(),
        "operation-cost delivery counter diverged from the ledger"
    );
    let report = campaign.report();
    StressRecord {
        waves: report.waves,
        deletions: report.deletions,
        rounds: report.rounds,
        live_remaining: dist.len(),
        threads: cfg.threads.max(1),
        elapsed_secs: elapsed,
        wall_ms: elapsed * 1e3,
        plan_secs,
        heal_secs,
        nodes_per_sec: report.deletions as f64 / heal_secs,
        msgs_per_sec: ledger.total_messages() as f64 / heal_secs,
        peak_per_node_load: report.peak_round_load,
        max_per_node_total: ledger.max_per_node(),
        sent: ledger.sent(),
        delivered: ledger.delivered(),
        dropped: ledger.dropped(),
        notices: ledger.notices(),
        total_messages: ledger.total_messages(),
        cost,
        balanced: true,
        converged,
        lost: ledger.lost(),
        duplicated: ledger.duplicated(),
        delayed: ledger.delayed(),
        crashes: dist.network().crashes(),
        fault_fingerprint: dist.network().fault_fingerprint(),
        connected,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_campaign_balances() {
        for planner in ["random", "targeted", "heavy-tail"] {
            let cfg = StressConfig {
                nodes: 300,
                deletions: 60,
                wave_size: 7,
                arity: 4,
                planner: planner.into(),
                seed: 1,
                threads: 1,
                cadence: "per-deletion".into(),
                faults: "none".into(),
            };
            let rec = run_stress(&cfg);
            assert_eq!(rec.deletions, 60, "{planner}");
            assert!(rec.balanced && rec.converged);
            assert_eq!(rec.live_remaining, 240);
            assert_eq!(rec.total_messages, rec.delivered + rec.notices);
            assert!(rec.peak_per_node_load > 0);
            assert_eq!(rec.cost.messages_delivered, rec.delivered);
            assert_eq!(rec.cost.messages_sent, rec.sent);
            assert!(rec.cost.node_visits > 0 && rec.cost.seeks > 0);
        }
    }

    /// The acceptance property at harness level: identical seeds at any
    /// thread count produce identical campaign figures and ledger books.
    #[test]
    fn threaded_campaign_record_matches_sequential() {
        let base = StressConfig {
            nodes: 600,
            deletions: 120,
            wave_size: 12,
            arity: 4,
            planner: "heavy-tail".into(),
            seed: 9,
            threads: 1,
            cadence: "per-deletion".into(),
            faults: "none".into(),
        };
        let rec1 = run_stress(&base);
        let rec4 = run_stress(&StressConfig {
            threads: 4,
            ..base.clone()
        });
        let fingerprint = |r: &StressRecord| {
            (
                r.waves,
                r.deletions,
                r.rounds,
                r.live_remaining,
                r.peak_per_node_load,
                r.max_per_node_total,
                r.sent,
                r.delivered,
                r.dropped,
                r.notices,
                r.total_messages,
            )
        };
        assert_eq!(fingerprint(&rec1), fingerprint(&rec4));
        assert_eq!(rec1.cost, rec4.cost, "engine costs bit-identical");
        assert_eq!(rec4.threads, 4);
    }

    #[test]
    fn json_record_is_well_formed_enough() {
        let rec = run_stress(&StressConfig {
            nodes: 50,
            deletions: 10,
            wave_size: 5,
            arity: 3,
            planner: "random".into(),
            seed: 2,
            threads: 2,
            cadence: "per-deletion".into(),
            faults: "none".into(),
        });
        let json = rec.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"nodes_per_sec\""));
        assert!(json.contains("\"balanced\": true"));
        assert!(json.contains("\"converged\": true"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"cadence\": \"per-deletion\""));
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"cost_messages_delivered\""));
        assert!(json.contains("\"cost_seeks\""));
        assert!(json.contains("\"faults\": \"none\""));
        assert!(json.contains("\"lost\": 0"));
        assert!(json.contains("\"connected\": true"));
        assert_eq!(json.matches(':').count(), 38, "38 fields");
    }

    /// A faulty tree campaign still balances its books and reconciles
    /// costs, stays thread-count invariant (fault schedule included), and
    /// the `none` model is byte-identical to not arming a plan at all.
    #[test]
    fn faulty_campaign_balances_and_replays() {
        let base = StressConfig {
            nodes: 400,
            deletions: 80,
            wave_size: 8,
            arity: 4,
            planner: "random".into(),
            seed: 17,
            threads: 1,
            cadence: "per-deletion".into(),
            faults: "loss+crash".into(),
        };
        let rec1 = run_stress(&base);
        let rec2 = run_stress(&StressConfig {
            threads: 4,
            ..base.clone()
        });
        assert!(
            rec1.lost > 0,
            "a 5% loss model over 80 heals must lose mail"
        );
        assert!(rec1.crashes > 0, "a 50% crash model must crash someone");
        assert_ne!(
            rec1.fault_fingerprint, 0xcbf2_9ce4_8422_2325,
            "realized faults must move the fingerprint off the FNV basis"
        );
        let fp = |r: &StressRecord| {
            (
                (r.waves, r.deletions, r.rounds),
                (r.sent, r.delivered, r.dropped),
                (r.lost, r.duplicated, r.delayed, r.crashes),
                r.fault_fingerprint,
                (r.converged, r.connected),
            )
        };
        assert_eq!(fp(&rec1), fp(&rec2), "faulty record thread-invariant");
        assert_eq!(rec1.cost, rec2.cost, "faulty engine costs bit-identical");

        let clean = run_stress(&StressConfig {
            faults: "none".into(),
            ..base.clone()
        });
        assert_eq!(clean.lost, 0);
        assert_eq!(clean.crashes, 0);
        assert_ne!(fp(&clean), fp(&rec1), "faults must actually change a run");
    }
}
