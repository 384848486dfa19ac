//! E5 — the introduction's comparison: surrogate healing suffers Θ(n)
//! degree growth, line/binary-tree healing suffer Θ(n) diameter growth,
//! while the Forgiving Tree bounds both (degree +3, diameter O(D log Δ)).
//! Each baseline faces its killer adversary *and* the common ones.

#![forbid(unsafe_code)]

use ft_adversary::{Adversary, DiameterGreedy, HighestDegreeAdversary, HubSiphon, RandomAdversary};
use ft_baselines::{BinaryTreeHealer, ForgivingHealer, LineHealer, SelfHealer, SurrogateHealer};
use ft_bench::healer_trial;
use ft_metrics::{Table, Workload};

fn healers(w: &Workload) -> Vec<Box<dyn SelfHealer>> {
    vec![
        Box::new(ForgivingHealer::new(&w.tree())),
        Box::new(SurrogateHealer::new(w.graph())),
        Box::new(LineHealer::new(w.graph())),
        Box::new(BinaryTreeHealer::new(w.graph())),
    ]
}

fn adversary_for(name: &str, seed: u64) -> Vec<Box<dyn Adversary>> {
    let mut advs: Vec<Box<dyn Adversary>> = vec![
        Box::new(RandomAdversary::new(seed)),
        Box::new(HighestDegreeAdversary),
        Box::new(DiameterGreedy::default()),
    ];
    if name == "surrogate" {
        advs.push(Box::new(HubSiphon));
    }
    advs
}

fn main() {
    let mut table = Table::new(
        "E5 — who wins: degree & diameter blow-ups under attack (n=128, 75% deleted)",
        &[
            "workload",
            "healer",
            "adversary",
            "max deg inc",
            "max diam",
            "stretch",
            "connected",
        ],
    );
    let n = 128;
    for w in [
        Workload::Kary(n, 2),
        Workload::Star(n),
        Workload::RandomTree(n, 11),
    ] {
        for h in healers(&w) {
            let hname = h.name().to_string();
            for adv in adversary_for(&hname, 3).iter_mut() {
                // fresh healer per adversary
                let mut healer: Box<dyn SelfHealer> = match hname.as_str() {
                    "forgiving-tree" => Box::new(ForgivingHealer::new(&w.tree())),
                    "surrogate" => Box::new(SurrogateHealer::new(w.graph())),
                    "line" => Box::new(LineHealer::new(w.graph())),
                    _ => Box::new(BinaryTreeHealer::new(w.graph())),
                };
                let t = healer_trial(&w, healer.as_mut(), adv.as_mut(), 0.75);
                table.push(vec![
                    w.name(),
                    hname.clone(),
                    t.summary.adversary.clone(),
                    format!("+{}", t.summary.max_degree_increase),
                    t.summary.max_diameter.to_string(),
                    format!("{:.2}", t.summary.max_stretch),
                    t.summary.stayed_connected.to_string(),
                ]);
            }
            let _ = h; // healers() built a throwaway set for naming only
        }
    }
    table.print();
    println!("\nshape check: FT degree ≤ +3 everywhere; surrogate deg Θ(n) under hub-siphon;");
    println!("line/binary-tree stretch Θ(n) under diameter-greedy; FT stretch stays O(log Δ).");
}
