//! Traced in-process replay of one `ftree stress` workload.
//!
//! `perfbench/run.py` times the real `ftree stress` command line from
//! outside, with no tracing. This program re-composes the same workload
//! from the public layer entry points — the calls `run_stress` and
//! `run_graph_stress` make, in the same order — and wraps each call in a
//! span named `<layer>.<call>_s`, where the layer is the crate that owns
//! the call (`graph`, `core`, `adversary`, `sim`, `metrics`). The one
//! exception is `core.audit_s`: `check_wills` on the graph, and on the
//! tree, which has no will audit, the Thm 1.1 degree audit.
//!
//! It prints one JSON object on stdout:
//!
//! - `work`: span seconds of the workload itself (what `ftree stress`
//!   also runs), summed per name;
//! - `check`: span seconds of the benchmark's own post-run checks, which
//!   `ftree stress` does not run (on the tree model: the Thm 1.1 degree
//!   audit and the sampled stretch);
//! - `setup_s`: wall time from the first setup call to the engine (and,
//!   for the graph, the stretch tracker) being ready for wave 1;
//! - `check_s`: wall time of the post-run checks, which `run.py` takes
//!   off this process's wall to compare it with an untraced run;
//! - `heal_cost`: the `OperationCost` deltas summed around every wave;
//! - `figures`: the deterministic figures under the keys the CLI's record
//!   uses, for the cross-check against the untraced run of the same seed.
//!
//! Usage: `ft-perfbench-trace --model tree|graph --nodes N
//! (--deletions D | --events E) --wave K --planner P --threads T
//! [--insert-frac F] --seed S`. Counts are plain integers; every other
//! `ftree stress` option keeps its default.

use ft_adversary::{make_churn_planner, make_wave_planner, AdversaryView};
use ft_core::distributed::DistributedForgivingTree;
use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph};
use ft_costs::OperationCost;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, Graph, NodeId};
use ft_metrics::{GraphStressConfig, StressConfig, StretchReport, StretchTracker};
use ft_sim::{Campaign, CampaignConfig, CampaignReport, MsgLedger};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::process::exit;
use std::time::Instant;

/// Span seconds, summed per span name.
#[derive(Default)]
struct Spans {
    secs: BTreeMap<&'static str, f64>,
}

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.secs.entry(name).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .secs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.9}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Everything one traced run reports.
#[derive(Default)]
struct Trace {
    work: Spans,
    check: Spans,
    setup_s: f64,
    check_s: f64,
    heal_cost: OperationCost,
    figures: Vec<(&'static str, String)>,
}

impl Trace {
    fn figure(&mut self, key: &'static str, value: impl ToString) {
        self.figures.push((key, value.to_string()));
    }

    fn json(&self) -> String {
        let c = &self.heal_cost;
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"work\": {}, \"check\": {}, \"setup_s\": {:.9}, \"check_s\": {:.9}, ",
            self.work.json(),
            self.check.json(),
            self.setup_s,
            self.check_s,
        );
        let _ = write!(
            out,
            "\"heal_cost\": {{\"messages_sent\": {}, \"messages_delivered\": {}, \"node_visits\": {}, \
             \"edge_scans\": {}, \"heap_bytes\": {}, \"seeks\": {}}}, ",
            c.messages_sent, c.messages_delivered, c.node_visits, c.edge_scans, c.heap_bytes, c.seeks
        );
        let figures: Vec<String> = self
            .figures
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = write!(out, "\"figures\": {{{}}}}}", figures.join(", "));
        out
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("ft-perfbench-trace: {msg}");
    eprintln!(
        "usage: ft-perfbench-trace --model tree|graph --nodes N (--deletions D | --events E) \
         --wave K --planner P --threads T [--insert-frac F] --seed S"
    );
    exit(2);
}

/// The `ftree stress` flags a workload may set; the rest keep defaults.
const FLAGS: [&str; 9] = [
    "--model",
    "--nodes",
    "--deletions",
    "--events",
    "--wave",
    "--planner",
    "--threads",
    "--insert-frac",
    "--seed",
];

/// Parsed command line: flag → value.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse() -> Self {
        let raw: Vec<String> = std::env::args().skip(1).collect();
        let mut map = BTreeMap::new();
        for pair in raw.chunks(2) {
            match pair {
                [flag, value] if FLAGS.contains(&flag.as_str()) => {
                    map.insert(flag.clone(), value.clone());
                }
                _ => usage(&format!("unknown flag or missing value: {}", pair[0])),
            }
        }
        Args(map)
    }

    fn str(&self, flag: &str, default: &str) -> String {
        self.0.get(flag).cloned().unwrap_or_else(|| default.into())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.0.get(flag) {
            None => default,
            Some(s) => s
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {s}"))),
        }
    }
}

/// The record fields every model shares: campaign report and ledger books.
fn common_figures(tr: &mut Trace, report: &CampaignReport, ledger: &MsgLedger) {
    tr.figure("waves", report.waves);
    tr.figure("deletions", report.deletions);
    tr.figure("rounds", report.rounds);
    tr.figure("peak_per_node_load", report.peak_round_load);
    tr.figure("max_per_node_total", ledger.max_per_node());
    tr.figure("sent", ledger.sent());
    tr.figure("delivered", ledger.delivered());
    tr.figure("dropped", ledger.dropped());
    tr.figure("notices", ledger.notices());
    tr.figure("total_messages", ledger.total_messages());
    tr.figure("lost", ledger.lost());
    tr.figure("duplicated", ledger.duplicated());
    tr.figure("delayed", ledger.delayed());
}

/// The network's cumulative `OperationCost`, under the record's keys.
fn cost_figures(tr: &mut Trace, c: &OperationCost) {
    tr.figure("cost_messages_sent", c.messages_sent);
    tr.figure("cost_messages_delivered", c.messages_delivered);
    tr.figure("cost_node_visits", c.node_visits);
    tr.figure("cost_edge_scans", c.edge_scans);
    tr.figure("cost_heap_bytes", c.heap_bytes);
    tr.figure("cost_seeks", c.seeks);
}

/// The stretch report and the stretch pass's work, under the record's keys.
fn stretch_figures(tr: &mut Trace, s: &StretchReport, cost: &OperationCost) {
    tr.figure("stretch_sources", s.sources);
    tr.figure("stretch_pairs", s.pairs);
    tr.figure("max_stretch", format!("{:.4}", s.max_stretch));
    tr.figure("mean_stretch", format!("{:.4}", s.mean_stretch));
    tr.figure("stretch_node_visits", cost.node_visits);
    tr.figure("stretch_edge_scans", cost.edge_scans);
    tr.figure("stretch_heap_bytes", cost.heap_bytes);
    tr.figure("stretch_seeks", cost.seeks);
}

/// `run_stress`, traced: k-ary tree, Forgiving Tree engine, wave planner.
fn run_tree(cfg: &StressConfig) -> Trace {
    let mut tr = Trace::default();
    let t_setup = Instant::now();
    let (g, tree) = tr.work.time("graph.gen_s", || {
        let g = gen::kary_tree(cfg.nodes, cfg.arity.max(2));
        let tree = RootedTree::from_tree_graph(&g, NodeId(0));
        (g, tree)
    });
    let mut dist = tr
        .work
        .time("core.engine_new_s", || DistributedForgivingTree::new(&tree));
    tr.setup_s = t_setup.elapsed().as_secs_f64();
    // The journal feeds the post-run stretch check; recording it charges
    // no OperationCost, so every cross-checked figure is unaffected.
    dist.network_mut().set_churn_journal(true);

    let mut planner = make_wave_planner(&cfg.planner, cfg.seed)
        .unwrap_or_else(|| usage(&format!("unknown wave planner: {}", cfg.planner)));
    let mut campaign = Campaign::new(CampaignConfig {
        threads: cfg.threads.max(1),
        ..CampaignConfig::default()
    });
    let mut remaining = cfg.deletions.min(cfg.nodes.saturating_sub(1));
    while remaining > 0 && dist.len() > 1 {
        let k = remaining.min(cfg.wave_size.max(1)).min(dist.len() - 1);
        let victims = tr.work.time("adversary.plan_s", || {
            planner.plan(
                AdversaryView {
                    graph: dist.graph(),
                    ft: None,
                },
                k,
            )
        });
        if victims.is_empty() {
            break;
        }
        remaining -= victims.len();
        let before = dist.network().costs();
        tr.work.time("sim.heal_s", || {
            campaign.run_wave(dist.network_mut(), &victims)
        });
        tr.heal_cost += dist.network().costs() - before;
    }

    let accounting = tr.work.time("sim.check_accounting_s", || {
        dist.network().check_accounting()
    });
    let connected = tr
        .work
        .time("graph.is_connected_s", || dist.graph().is_connected());
    let report = campaign.report().clone();
    common_figures(&mut tr, &report, dist.ledger());
    tr.figure("live_remaining", dist.len());
    cost_figures(&mut tr, &dist.network().costs());
    tr.figure("balanced", accounting.is_ok());
    tr.figure("converged", report.converged);
    tr.figure("connected", connected);

    // Benchmark-only checks. Thm 1.1: no live node's degree grew by more
    // than 3 over the original tree.
    let t_check = Instant::now();
    let max_degree_increase = tr.check.time("core.audit_s", || {
        dist.graph()
            .nodes()
            .map(|v| dist.graph().degree(v) as i64 - g.degree(v) as i64)
            .max()
            .unwrap_or(0)
    });
    tr.figure("max_degree_increase", max_degree_increase);
    // Sampled stretch against the original tree, through the metrics
    // layer's tracker: fields built over the original tree, repaired from
    // the whole run's churn journal, then scored.
    let journal = dist.network_mut().drain_churn_journal();
    let mut tracker = tr.check.time("metrics.tracker_build_s", || {
        StretchTracker::new(
            &g,
            &g,
            GraphStressConfig::default().stretch_sources,
            cfg.seed,
        )
    });
    tr.check.time("metrics.tracker_repair_s", || {
        tracker.apply_wave(dist.graph(), &g, &journal)
    });
    let stretch = tr
        .check
        .time("metrics.stretch_report_s", || tracker.report(dist.graph()));
    stretch_figures(&mut tr, &stretch, &tracker.cost());
    tr.figure("disconnected_pairs", stretch.disconnected_pairs);
    tr.check.time("metrics.tracker_drop_s", || drop(tracker));
    drop(journal);
    tr.check_s = t_check.elapsed().as_secs_f64();

    tr.work.time("core.engine_drop_s", || drop(dist));
    tr
}

/// The graph workload `run_graph_stress` builds: a random spanning tree
/// plus `⌊extra_edges · nodes⌋` random chords. The harness keeps this
/// loop private, so it is repeated here; the cross-check against the
/// CLI's record catches any drift.
fn initial_graph(cfg: &GraphStressConfig, rng: &mut StdRng) -> Graph {
    let mut g = gen::random_tree(cfg.nodes, rng);
    let extra = (cfg.extra_edges * cfg.nodes as f64) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra && attempts < extra * 20 {
        attempts += 1;
        let a = NodeId(rng.gen_range(0..cfg.nodes) as u32);
        let b = NodeId(rng.gen_range(0..cfg.nodes) as u32);
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
            added += 1;
        }
    }
    g
}

/// `run_graph_stress`, traced, with the CLI's default incremental stretch.
fn run_graph(cfg: &GraphStressConfig) -> Trace {
    let mut tr = Trace::default();
    let t_setup = Instant::now();
    let g = tr.work.time("graph.gen_s", || {
        initial_graph(cfg, &mut StdRng::seed_from_u64(cfg.seed))
    });
    let mut dist = tr
        .work
        .time("core.engine_new_s", || DistributedForgivingGraph::new(&g));
    let mut planner = make_churn_planner(&cfg.planner, cfg.seed, cfg.insert_fraction)
        .unwrap_or_else(|| usage(&format!("unknown churn planner: {}", cfg.planner)));
    let mut campaign = Campaign::new(CampaignConfig {
        threads: cfg.threads.max(1),
        ..CampaignConfig::default()
    });
    dist.network_mut().set_churn_journal(true);
    let mut tracker = tr.work.time("metrics.tracker_build_s", || {
        StretchTracker::new(dist.graph(), dist.pristine(), cfg.stretch_sources, cfg.seed)
    });
    tr.setup_s = t_setup.elapsed().as_secs_f64();

    let mut remaining = cfg.events;
    while remaining > 0 && dist.len() > 2 {
        let k = remaining.min(cfg.wave_size.max(1));
        let events = tr.work.time("adversary.plan_s", || {
            planner.plan(
                AdversaryView {
                    graph: dist.graph(),
                    ft: None,
                },
                k,
            )
        });
        if events.is_empty() {
            break;
        }
        remaining = remaining.saturating_sub(events.len());
        let before = dist.network().costs();
        tr.work
            .time("sim.heal_s", || dist.run_wave(&mut campaign, &events));
        tr.heal_cost += dist.network().costs() - before;
        tr.work.time("metrics.tracker_repair_s", || {
            let journal = dist.network_mut().drain_churn_journal();
            tracker.apply_wave(dist.graph(), dist.pristine(), &journal);
        });
    }

    let accounting = tr.work.time("sim.check_accounting_s", || {
        dist.network().check_accounting()
    });
    let wills = tr.work.time("core.audit_s", || dist.check_wills());
    let connected = tr
        .work
        .time("graph.is_connected_s", || dist.graph().is_connected());
    let capacity = dist.graph().capacity();
    let degree_bound = fg_degree_bound(capacity);
    let stretch_bound = fg_stretch_bound(capacity);
    let max_degree_increase = dist.max_degree_increase();
    let stretch = tr
        .work
        .time("metrics.stretch_report_s", || tracker.report(dist.graph()));
    let within_bounds = stretch.disconnected_pairs == 0
        && max_degree_increase <= degree_bound
        && stretch.max_stretch <= stretch_bound;

    let report = campaign.report().clone();
    common_figures(&mut tr, &report, dist.ledger());
    tr.figure("insertions", report.insertions);
    tr.figure("joins", dist.ledger().joins());
    tr.figure("live_remaining", dist.len());
    tr.figure("max_degree_increase", max_degree_increase);
    tr.figure("degree_bound", degree_bound);
    tr.figure("stretch_bound", format!("{stretch_bound:.1}"));
    stretch_figures(&mut tr, &stretch, &tracker.cost());
    cost_figures(&mut tr, &dist.network().costs());
    tr.figure("stretch_mode", "\"incremental\"");
    tr.figure("balanced", accounting.is_ok());
    tr.figure("within_bounds", within_bounds);
    tr.figure("converged", report.converged);
    tr.figure("wills_ok", wills.is_ok());
    tr.figure("connected", connected);

    tr.work.time("metrics.tracker_drop_s", || drop(tracker));
    tr.work.time("core.engine_drop_s", || drop(dist));
    tr
}

fn main() {
    let args = Args::parse();
    let trace = match args.str("--model", "tree").as_str() {
        "tree" => {
            let d = StressConfig::default();
            run_tree(&StressConfig {
                nodes: args.num("--nodes", d.nodes),
                deletions: args.num("--deletions", d.deletions),
                wave_size: args.num("--wave", d.wave_size),
                planner: args.str("--planner", &d.planner),
                seed: args.num("--seed", d.seed),
                threads: args.num("--threads", d.threads),
                ..d
            })
        }
        "graph" => {
            let d = GraphStressConfig::default();
            run_graph(&GraphStressConfig {
                nodes: args.num("--nodes", d.nodes),
                events: args.num("--events", d.events),
                wave_size: args.num("--wave", d.wave_size),
                insert_fraction: args.num("--insert-frac", d.insert_fraction),
                planner: args.str("--planner", &d.planner),
                seed: args.num("--seed", d.seed),
                threads: args.num("--threads", d.threads),
                ..d
            })
        }
        other => usage(&format!("unknown model: {other}")),
    };
    println!("{}", trace.json());
}
