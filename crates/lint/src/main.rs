//! `ft-lint` — standalone binary for the determinism & accounting lint
//! pass. Equivalent to `ftree lint`; see `ft_lint::run_cli` for the flags.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(ft_lint::run_cli(&args));
}
