//! E11 — time series: diameter and max degree increase as deletions
//! accumulate (the "figure" form of Theorems 1.1/1.2). Emits CSV so the
//! series can be plotted.

#![forbid(unsafe_code)]

use ft_adversary::{HeirHunter, RandomAdversary};
use ft_bench::ft_trial;
use ft_metrics::{Table, Workload};

fn main() {
    for (w, advname) in [
        (Workload::Kary(512, 4), "random"),
        (Workload::Kary(512, 4), "heir-hunter"),
        (Workload::RandomTree(512, 21), "random"),
    ] {
        let trial = if advname == "random" {
            ft_trial(&w, &mut RandomAdversary::new(77), 1.0)
        } else {
            ft_trial(&w, &mut HeirHunter, 1.0)
        };
        let mut table = Table::new(
            format!(
                "E11 — series: {} vs {advname} (D0={}, Δ0={})",
                w.name(),
                trial.summary.diam0,
                trial.summary.delta0
            ),
            &["deletions", "alive", "diameter", "max deg inc"],
        );
        for s in trial.steps.iter().filter(|s| s.diameter.is_some()) {
            table.push(vec![
                s.deletions.to_string(),
                s.alive.to_string(),
                s.diameter.map(|d| d.to_string()).unwrap_or_default(),
                s.max_degree_increase.to_string(),
            ]);
        }
        println!("{}", table.to_csv());
        println!(
            "# summary: max diameter {} (stretch {:.2}), max degree +{}",
            trial.summary.max_diameter,
            trial.summary.max_stretch,
            trial.summary.max_degree_increase
        );
    }
}
