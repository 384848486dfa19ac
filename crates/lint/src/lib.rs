//! `ft-lint` — the workspace's determinism & accounting static-analysis
//! pass.
//!
//! Seeded runs replay byte-identically; the fault-model axis and the
//! incremental stretch work *build on* that determinism contract.
//! `ft-lint` turns the contract into CI-red rules over the source itself —
//! an offline, dependency-free pass built from a small hand-rolled lexer
//! ([`lexer`]), a shape-only recursive-descent parser ([`parser`]), a
//! deterministic workspace call graph ([`callgraph`]), and a thirteen-rule
//! engine ([`rules`]): seven per-token pattern rules plus six
//! cross-function semantic rules (determinism taint propagation
//! ([`taint`]), cost-charge coverage, dropped-`CostResult` discipline,
//! panic reachability from the round-engine roots, ledger book-coupling,
//! and hot-path effect-baseline drift ([`effects`])).
//!
//! The rule catalog lives in [`RULES`]; the paths each rule binds are in
//! [`rules::rule_applies`]; the suppression grammar is
//! `// ft-lint: allow(<rule>, "<reason>")` with a **mandatory** written
//! reason. See `docs/LINT.md` for the full policy.
//!
//! Entry points: [`lint_workspace`] walks a workspace root; `ftree lint`
//! and the `ft-lint` binary wrap it with human, JSON, and SARIF output
//! plus the `--stale` suppression audit.
//!
//! # Example
//!
//! ```
//! use ft_lint::lint_source;
//!
//! let report = lint_source(
//!     "crates/sim/src/engine.rs",
//!     "use std::collections::HashMap;\n",
//! );
//! assert_eq!(report.violations[0].rule, "nondeterministic-iteration");
//! ```

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod effects;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sarif;
pub mod taint;

pub use rules::{
    lint_files, lint_files_with, lint_source, Finding, Suppressed, WorkspaceLint, RULES, RULE_NAMES,
};

use std::io;
use std::path::{Path, PathBuf};

/// The whole-workspace lint result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Violations that survived suppression, sorted by file then line.
    pub violations: Vec<Finding>,
    /// Findings silenced by a well-formed `allow(<rule>, "<reason>")`.
    pub suppressed: Vec<Suppressed>,
    /// Stale `allow` markers that silenced nothing: `(file, rule, line)`.
    pub unused_allows: Vec<(String, String, u32)>,
    /// Number of `.rs` files actually linted.
    pub files_scanned: usize,
}

impl Report {
    /// True when the workspace is clean (no unsuppressed violations).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the human-readable report (stable ordering; relative
    /// paths only, so output is host-independent).
    pub fn to_human(&self) -> String {
        let mut s = String::new();
        for v in &self.violations {
            s.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file, v.line, v.rule, v.message
            ));
        }
        for (file, rule, line) in &self.unused_allows {
            s.push_str(&format!(
                "{file}:{line}: note: unused ft-lint allow({rule}) — the marker is stale\n"
            ));
        }
        s.push_str(&format!(
            "ft-lint: {} file(s) scanned, {} violation(s), {} suppression(s) honored{}\n",
            self.files_scanned,
            self.violations.len(),
            self.suppressed.len(),
            if self.unused_allows.is_empty() {
                String::new()
            } else {
                format!(", {} stale allow(s)", self.unused_allows.len())
            },
        ));
        s
    }

    /// Renders the machine-readable JSON report (hand-rolled — the linter
    /// is dependency-free by design). Stable key order and array ordering.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!(
            "  \"violation_count\": {},\n",
            self.violations.len()
        ));
        s.push_str(&format!(
            "  \"suppression_count\": {},\n",
            self.suppressed.len()
        ));
        s.push_str("  \"rules\": [\n");
        for (i, r) in RULES.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": {}, \"summary\": {}, \"guards\": {}}}{}\n",
                json_str(r.name),
                json_str(r.summary),
                json_str(r.guards),
                comma(i, RULES.len())
            ));
        }
        s.push_str("  ],\n  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                json_str(&v.message),
                comma(i, self.violations.len())
            ));
        }
        s.push_str("  ],\n  \"suppressions\": [\n");
        for (i, v) in self.suppressed.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}{}\n",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                json_str(&v.reason),
                comma(i, self.suppressed.len())
            ));
        }
        s.push_str("  ],\n  \"unused_allows\": [\n");
        for (i, (file, rule, line)) in self.unused_allows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"line\": {}}}{}\n",
                json_str(rule),
                json_str(file),
                line,
                comma(i, self.unused_allows.len())
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the SARIF 2.1.0 log for CI inline annotations.
    pub fn to_sarif(&self) -> String {
        sarif::to_sarif(self)
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Directories the walker never descends into: build output, vendored
/// shims, VCS metadata, and fixture mini-workspaces (linted *as*
/// workspaces by the golden tests, never as source of this one). Test,
/// bench, and example trees ARE walked — the hygiene rules bind them.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    // deterministic traversal → deterministic report ordering
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative location of the committed effect table, under both
/// the real root and fixture mini-workspaces.
pub const EFFECTS_BASELINE_PATH: &str = "crates/lint/effects_baseline.json";

/// Collects the lintable `(relative path, source)` pairs under `root`.
fn collect_inputs(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for top in ["src", "crates", "tests", "examples", "benches"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut inputs: Vec<(String, String)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rules::is_exempt_path(&rel) {
            continue;
        }
        inputs.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(inputs)
}

/// Lints every `.rs` file under `root`'s `src/`, `crates/`, `tests/`,
/// `examples/`, and `benches/` trees (vendored and fixture code excluded
/// by policy; test-scope files get the hygiene rules only). When the root
/// carries a committed [`EFFECTS_BASELINE_PATH`], the drift rule runs
/// against it.
///
/// `root` is a workspace root — the real repository or a fixture
/// mini-workspace; reported paths are relative to it.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let inputs = collect_inputs(root)?;
    let baseline = std::fs::read_to_string(root.join(EFFECTS_BASELINE_PATH)).ok();
    let wl = lint_files_with(&inputs, baseline.as_deref());
    Ok(Report {
        violations: wl.violations,
        suppressed: wl.suppressed,
        unused_allows: wl.unused_allows,
        files_scanned: inputs.len(),
    })
}

/// Regenerates `root`'s [`EFFECTS_BASELINE_PATH`] from a fresh pass and
/// returns the rendered table. The render is deterministic, so committing
/// the file pins every hot-path write set at review time.
pub fn write_effects_baseline(root: &Path) -> io::Result<String> {
    let inputs = collect_inputs(root)?;
    let table = rules::effects_table(&inputs);
    std::fs::write(root.join(EFFECTS_BASELINE_PATH), &table)?;
    Ok(table)
}

const CLI_USAGE: &str = "usage: ft-lint [--root DIR] [--format human|json|sarif] [--stale] \
     [--rule NAME] [--explain NAME] [--write-effects-baseline]";

/// Prints the catalog entry for `rule` — the same name/summary/guards
/// block `docs/LINT.md` documents. Returns the exit code.
fn explain_rule(rule: &str) -> i32 {
    let Some(info) = RULES.iter().find(|r| r.name == rule) else {
        eprintln!("unknown rule `{rule}`; known rules:");
        for name in RULE_NAMES {
            eprintln!("  {name}");
        }
        return 2;
    };
    println!("{}", info.name);
    println!("  summary: {}", info.summary);
    println!("  guards:  {}", info.guards);
    println!("  details: docs/LINT.md, section `{}`", info.name);
    0
}

/// CLI driver shared by the `ft-lint` binary and `ftree lint`: parses
/// `--root DIR` / `--format human|json|sarif` / `--stale` / `--rule NAME`
/// (restrict the report to one rule, for CI bisects) / `--explain NAME`
/// (print a rule's catalog entry and exit) / `--write-effects-baseline`
/// (regenerate the committed effect table and exit), prints the report,
/// and returns the process exit code (0 clean, 1 violations — or, under
/// `--stale`, stale suppressions — 2 usage error).
pub fn run_cli(args: &[String]) -> i32 {
    let mut root = String::from(".");
    let mut format = String::from("human");
    let mut stale = false;
    let mut rule: Option<String> = None;
    let mut write_baseline = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--root needs a directory argument");
                    return 2;
                };
                root = v.clone();
                i += 2;
            }
            "--format" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--format needs `human`, `json`, or `sarif`");
                    return 2;
                };
                if v != "human" && v != "json" && v != "sarif" {
                    eprintln!("unknown format `{v}` (human | json | sarif)");
                    return 2;
                }
                format = v.clone();
                i += 2;
            }
            "--stale" => {
                stale = true;
                i += 1;
            }
            "--rule" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--rule needs a rule name (see --explain)");
                    return 2;
                };
                if !RULE_NAMES.contains(&v.as_str()) {
                    eprintln!("unknown rule `{v}`; known rules:");
                    for name in RULE_NAMES {
                        eprintln!("  {name}");
                    }
                    return 2;
                }
                rule = Some(v.clone());
                i += 2;
            }
            "--explain" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("--explain needs a rule name");
                    return 2;
                };
                return explain_rule(v);
            }
            "--write-effects-baseline" => {
                write_baseline = true;
                i += 1;
            }
            other => {
                eprintln!("unknown ft-lint argument `{other}`");
                eprintln!("{CLI_USAGE}");
                return 2;
            }
        }
    }
    if write_baseline {
        return match write_effects_baseline(Path::new(&root)) {
            Ok(table) => {
                println!(
                    "wrote {} ({} entries)",
                    Path::new(&root).join(EFFECTS_BASELINE_PATH).display(),
                    table.lines().count().saturating_sub(2),
                );
                0
            }
            Err(e) => {
                eprintln!("ft-lint: cannot write effects baseline under {root}: {e}");
                2
            }
        };
    }
    let mut report = match lint_workspace(Path::new(&root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ft-lint: cannot scan {root}: {e}");
            return 2;
        }
    };
    if let Some(rule) = &rule {
        report.violations.retain(|v| v.rule == rule.as_str());
        report.suppressed.retain(|s| s.rule == rule.as_str());
        report.unused_allows.retain(|(_, r, _)| r == rule.as_str());
    }
    match format.as_str() {
        "json" => print!("{}", report.to_json()),
        "sarif" => print!("{}", report.to_sarif()),
        _ => print!("{}", report.to_human()),
    }
    let stale_fail = stale && !report.unused_allows.is_empty();
    i32::from(!report.is_clean() || stale_fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_is_sound() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn clean_report_renders_and_exits_zero_shaped() {
        let r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        assert!(r.is_clean());
        assert!(r.to_human().contains("3 file(s) scanned"));
        assert!(r.to_json().contains("\"violation_count\": 0"));
        assert!(r.to_sarif().contains("\"version\": \"2.1.0\""));
    }
}
