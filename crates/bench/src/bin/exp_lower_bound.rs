//! E4 — Theorem 2: any healer with degree increase ≤ α and stretch ≤ β on
//! the star `K_{1,Δ}` must satisfy `α^(2β+1) ≥ Δ`. We delete the star's
//! center (then keep attacking) and check each healer's measured (α, β)
//! against the bound, plus the Forgiving Tree's constructive near-tightness
//! `β ≤ 2·log_α Δ + 2` (§4.2).

#![forbid(unsafe_code)]

use ft_adversary::HighestDegreeAdversary;
use ft_baselines::{BinaryTreeHealer, ForgivingHealer, LineHealer, SelfHealer, SurrogateHealer};
use ft_bench::healer_trial;
use ft_metrics::{Table, Workload};

fn main() {
    let mut table = Table::new(
        "E4 / Theorem 2 — star K(1,Δ): measured (α, β) must satisfy α^(2β+1) ≥ Δ",
        &[
            "Δ",
            "healer",
            "α (deg inc)",
            "β (stretch)",
            "α^(2β+1)",
            "≥ Δ",
            "FT β-budget 2·log_α Δ+2",
        ],
    );
    for delta in [8usize, 32, 128, 512] {
        let w = Workload::Star(delta + 1);
        let healers: Vec<Box<dyn SelfHealer>> = vec![
            Box::new(ForgivingHealer::new(&w.tree())),
            Box::new(SurrogateHealer::new(w.graph())),
            Box::new(LineHealer::new(w.graph())),
            Box::new(BinaryTreeHealer::new(w.graph())),
        ];
        for mut h in healers {
            let name = h.name();
            let mut adv = HighestDegreeAdversary;
            let t = healer_trial(&w, h.as_mut(), &mut adv, 0.5);
            // α must be ≥ 1 for the bound to be meaningful; clamp at 3 per
            // the theorem statement ("for some α ≥ 3")
            let alpha = (t.summary.max_degree_increase.max(3)) as f64;
            let beta = t.summary.max_stretch;
            let lhs = alpha.powf(2.0 * beta + 1.0);
            let ft_budget = 2.0 * (delta as f64).ln() / alpha.ln() + 2.0;
            table.push(vec![
                delta.to_string(),
                name.to_string(),
                format!("+{}", t.summary.max_degree_increase),
                format!("{:.2}", beta),
                format!("{:.1e}", lhs),
                (lhs >= delta as f64).to_string(),
                if name == "forgiving-tree" {
                    format!("{:.2} (ok: {})", ft_budget, beta <= ft_budget)
                } else {
                    "-".into()
                },
            ]);
            assert!(
                lhs >= delta as f64 * 0.99,
                "THEOREM 2 VIOLATED by {name} at Δ={delta}: α={alpha} β={beta}"
            );
        }
    }
    table.print();
    println!("\nevery (α, β) point satisfies the lower bound; FT sits near it");
}
