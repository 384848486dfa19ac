//! # ft-bench — benchmark harness and experiment binaries
//!
//! One binary per experiment of DESIGN.md §3 (`exp_degree`, `exp_diameter`,
//! `exp_messages`, `exp_lower_bound`, `exp_baselines`, `exp_figures`,
//! `exp_setup`, `exp_ablation`, `exp_timeseries`, `exp_stretch`) plus
//! `run_all`, which executes everything and emits the tables recorded in
//! EXPERIMENTS.md. The Criterion benches under `benches/` measure raw
//! operation costs (heal latency, setup, SubRT construction, simulator
//! round throughput).

#![forbid(unsafe_code)]

use ft_adversary::Adversary;
use ft_baselines::{ForgivingHealer, SelfHealer};
use ft_metrics::{run_trial, Trial, TrialConfig, Workload};

/// Runs one Forgiving Tree trial over a workload with the given adversary.
pub fn ft_trial(w: &Workload, adversary: &mut dyn Adversary, delete_fraction: f64) -> Trial {
    let mut healer = ForgivingHealer::new(&w.tree());
    let cfg = TrialConfig {
        workload: w.name(),
        delete_fraction,
        measure_every: measure_stride(w.tree().len()),
    };
    run_trial(&cfg, &mut healer, adversary)
}

/// Runs a trial for an arbitrary healer (baselines).
pub fn healer_trial(
    w: &Workload,
    healer: &mut dyn SelfHealer,
    adversary: &mut dyn Adversary,
    delete_fraction: f64,
) -> Trial {
    let cfg = TrialConfig {
        workload: w.name(),
        delete_fraction,
        measure_every: measure_stride(w.graph().len()),
    };
    run_trial(&cfg, healer, adversary)
}

/// Diameter-measurement stride that keeps `O(n·m)` BFS sweeps affordable.
pub fn measure_stride(n: usize) -> usize {
    (n / 64).max(1)
}

/// The paper's explicit diameter budget `2·h₀·(⌈log₂ max(Δ,2)⌉+2)+2`.
pub fn diameter_budget(height0: u32, delta0: usize) -> u32 {
    let per = (delta0.max(2) as f64).log2().ceil() as u32 + 2;
    (2 * height0 * per + 2).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_adversary::RandomAdversary;

    #[test]
    fn ft_trial_smoke() {
        let w = Workload::Kary(31, 2);
        let t = ft_trial(&w, &mut RandomAdversary::new(1), 1.0);
        assert_eq!(t.summary.deletions, 31);
        assert!(t.summary.max_degree_increase <= 3);
    }

    #[test]
    fn stride_grows_with_n() {
        assert_eq!(measure_stride(10), 1);
        assert_eq!(measure_stride(640), 10);
    }
}
