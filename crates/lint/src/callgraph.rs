//! The deterministic workspace call graph the semantic rules walk.
//!
//! Nodes are the non-test function definitions the [`parser`](crate::parser)
//! recovered; edges are name-resolved call sites. Resolution is
//! deliberately *conservative*: a call links to **every** definition its
//! name could mean (path-qualified calls narrow to the matching `impl`
//! type first, `Self::` resolves against the caller's own impl block).
//! The rules built on top are reachability arguments — a spurious edge
//! costs at most a written-reason suppression, a missed edge costs a
//! missed bug.
//!
//! Everything is keyed and iterated through `BTreeMap`/`BTreeSet` plus
//! index-ordered adjacency lists, so two runs over the same tree produce
//! byte-identical reports (pinned by the golden tests and re-diffed in
//! CI).

use crate::parser::{FnDef, Parsed};
use std::collections::{BTreeMap, BTreeSet};

/// Qualifier types known to live outside the workspace (std / vendored
/// deps). A qualified call on one of these that matches no workspace impl
/// resolves to **nothing** instead of falling back to every same-name
/// definition — `VecDeque::new()` must not manufacture edges to each
/// workspace `fn new`.
const EXTERNAL_TYPES: [&str; 36] = [
    "Arc",
    "AtomicBool",
    "AtomicU64",
    "AtomicUsize",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "Box",
    "Cell",
    "Condvar",
    "Cow",
    "Duration",
    "HashMap",
    "HashSet",
    "Instant",
    "Mutex",
    "Option",
    "Ordering",
    "OsString",
    "Path",
    "PathBuf",
    "Rc",
    "RefCell",
    "Result",
    "RwLock",
    "String",
    "Vec",
    "VecDeque",
    "char",
    "f64",
    "str",
    "u16",
    "u32",
    "u64",
    "u8",
    "usize",
];

/// Method names the precision-sensitive analyses treat as std-container
/// operations when called through a receiver (`seen.insert(v)`): the
/// name-resolution fallback would otherwise ride them onto every
/// workspace `insert`/`remove`/…. A workspace method sharing one of these
/// names is still analyzed when its effects are lexical or reached
/// through a non-ambiguous name; the residual blind spot — a dotted call
/// to it — is the documented noise-for-recall trade.
pub const STD_CONTAINER_METHODS: [&str; 16] = [
    "append",
    "clear",
    "contains",
    "contains_key",
    "drain",
    "entry",
    "extend",
    "get",
    "insert",
    "is_empty",
    "len",
    "pop",
    "push",
    "remove",
    "retain",
    "take",
];

/// Whether `file` belongs to a crate whose code can sit on a real call
/// chain to engine state (the simulator itself, the stretch metrics that
/// drive it, and the core healer it dispatches into). The effects-baseline
/// inference confines propagation here:
/// chains detouring through the pure graph crate or the baselines trait
/// re-enter the engine only via same-name aliasing.
pub fn engine_crate(file: &str) -> bool {
    ["crates/sim/src", "crates/metrics/src", "crates/core/src"]
        .iter()
        .any(|p| file.contains(p))
}

/// Whether call `c` in `toks` is a dotted std-container method call (see
/// [`STD_CONTAINER_METHODS`]) — dropped by [`CallGraph::analysis_edges`].
pub fn std_container_call(toks: &[crate::lexer::Token], c: &crate::parser::CallSite) -> bool {
    c.qual.is_none()
        && STD_CONTAINER_METHODS.contains(&c.name.as_str())
        && c.tok > 0
        && toks[c.tok - 1].text == "."
}

/// The workspace call graph over non-test function definitions.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// All graph nodes, sorted by `(file, line)` — index is the node id.
    pub defs: Vec<FnDef>,
    /// Forward adjacency: `edges[caller]` = callee ids, ascending.
    pub edges: Vec<BTreeSet<usize>>,
    /// Reverse adjacency: `callers[callee]` = caller ids, ascending.
    pub callers: Vec<BTreeSet<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file parses, dropping definitions inside
    /// `#[test]`/`#[cfg(test)]` regions and whole test-scope files (the
    /// caller filters those out by passing `include_file`).
    pub fn build<'a>(
        files: impl IntoIterator<Item = &'a Parsed>,
        include_file: impl Fn(&str) -> bool,
    ) -> Self {
        let mut defs: Vec<FnDef> = files
            .into_iter()
            .flat_map(|p| p.defs.iter())
            .filter(|d| !d.in_test && include_file(&d.file))
            .cloned()
            .collect();
        defs.sort_by(|a, b| (&a.file, a.line, &a.qname).cmp(&(&b.file, b.line, &b.qname)));

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_name.entry(d.name.clone()).or_default().push(i);
        }

        let mut graph = CallGraph {
            edges: vec![BTreeSet::new(); defs.len()],
            callers: vec![BTreeSet::new(); defs.len()],
            defs,
            by_name,
        };
        for caller in 0..graph.defs.len() {
            for ci in 0..graph.defs[caller].calls.len() {
                let call = graph.defs[caller].calls[ci].clone();
                for callee in graph.resolve(caller, &call) {
                    graph.edges[caller].insert(callee);
                    graph.callers[callee].insert(caller);
                }
            }
        }
        graph
    }

    /// Name-resolves one call site from `caller`'s context to every node it
    /// could mean. Path-qualified calls narrow to the matching impl type
    /// when any definition matches (`Self::` resolves against the caller's
    /// own impl block); an unmatched qualifier keeps every same-name
    /// candidate (conservative) — unless it names a known-external type
    /// (`VecDeque::new` is std's constructor, not every workspace `new`;
    /// without this cut one std call makes the whole workspace reachable).
    pub fn resolve(&self, caller: usize, call: &crate::parser::CallSite) -> Vec<usize> {
        let qual = match call.qual.as_deref() {
            Some("Self") => self.defs[caller].impl_type.clone(),
            other => other.map(str::to_string),
        };
        let candidates = self.by_name.get(&call.name).cloned().unwrap_or_default();
        match &qual {
            Some(ty) => {
                let exact: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| self.defs[i].impl_type.as_deref() == Some(ty))
                    .collect();
                if !exact.is_empty() {
                    exact
                } else if EXTERNAL_TYPES.contains(&ty.as_str()) {
                    Vec::new()
                } else {
                    candidates
                }
            }
            None => candidates,
        }
    }

    /// Resolution edges for the effect analysis:
    /// [`edges`](Self::edges) minus dotted std-container calls
    /// ([`std_container_call`]) — `seen.insert(v)` must not alias a
    /// workspace `insert` and pull the whole engine into a transitive
    /// write set. `files` maps path → lex artifacts so call sites can be
    /// re-examined; a def whose file is absent keeps all its edges.
    pub fn analysis_edges(
        &self,
        files: &BTreeMap<&str, &crate::lexer::Lexed>,
    ) -> Vec<BTreeSet<usize>> {
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); self.defs.len()];
        for (i, d) in self.defs.iter().enumerate() {
            let toks = files.get(d.file.as_str()).map(|lx| lx.tokens.as_slice());
            for c in &d.calls {
                if toks.is_some_and(|t| std_container_call(t, c)) {
                    continue;
                }
                for callee in self.resolve(i, c) {
                    adj[i].insert(callee);
                }
            }
        }
        adj
    }

    /// Node ids of every definition satisfying `pred`, ascending.
    pub fn select(&self, pred: impl Fn(&FnDef) -> bool) -> Vec<usize> {
        (0..self.defs.len())
            .filter(|&i| pred(&self.defs[i]))
            .collect()
    }

    /// All definitions sharing `name`, ascending by node id.
    pub fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deterministic BFS from `roots` along `adjacency` (pass
    /// [`edges`](Self::edges) for callee closure, [`callers`](Self::callers)
    /// for caller closure), expanding only nodes where `traverse` holds.
    /// Returns `reached node → predecessor` (roots map to themselves);
    /// neighbor order is ascending, so witness paths are byte-stable.
    pub fn closure(
        &self,
        roots: &[usize],
        adjacency: &[BTreeSet<usize>],
        traverse: impl Fn(usize) -> bool,
    ) -> BTreeMap<usize, usize> {
        let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        for &r in &sorted_roots {
            if pred.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            if !traverse(u) {
                continue; // reached, but its own frontier stays closed
            }
            for &v in &adjacency[u] {
                if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(v) {
                    e.insert(u);
                    queue.push_back(v);
                }
            }
        }
        pred
    }

    /// Renders the witness chain `root → … → node` recorded by a
    /// [`closure`](Self::closure) predecessor map, as ` → `-joined qnames.
    pub fn witness(&self, pred: &BTreeMap<usize, usize>, node: usize) -> String {
        let mut chain = vec![node];
        let mut cur = node;
        while let Some(&p) = pred.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&i| self.defs[i].qname.as_str())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(srcs: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<_> = srcs.iter().map(|(f, s)| parse(f, &lex(s))).collect();
        CallGraph::build(parsed.iter(), |_| true)
    }

    #[test]
    fn edges_follow_names_across_files() {
        let g = graph(&[
            ("crates/sim/src/a.rs", "pub fn top() { helper(); }\n"),
            (
                "crates/sim/src/b.rs",
                "pub fn helper() { leaf(); }\nfn leaf() {}\n",
            ),
        ]);
        let top = g.select(|d| d.name == "top")[0];
        let leaf = g.select(|d| d.name == "leaf")[0];
        let reach = g.closure(&[top], &g.edges, |_| true);
        assert!(reach.contains_key(&leaf), "two-hop closure reaches leaf");
        assert_eq!(g.witness(&reach, leaf), "top → helper → leaf");
    }

    #[test]
    fn qualified_calls_narrow_to_their_impl() {
        let g = graph(&[(
            "crates/sim/src/a.rs",
            "impl Pool { pub fn new() {} }\nimpl Net { pub fn new() {} }\nfn f() { Pool::new(); }\n",
        )]);
        let f = g.select(|d| d.name == "f")[0];
        let pool_new = g.select(|d| d.qname == "Pool::new")[0];
        let net_new = g.select(|d| d.qname == "Net::new")[0];
        assert!(g.edges[f].contains(&pool_new));
        assert!(!g.edges[f].contains(&net_new), "qualifier narrows the edge");
    }

    #[test]
    fn external_qualifiers_resolve_to_no_workspace_def() {
        let g = graph(&[(
            "crates/sim/src/a.rs",
            "impl Pool { pub fn new() {} }\nfn f() { let q = VecDeque::new(); }\nfn g() { Unknown::new(); }\n",
        )]);
        let f = g.select(|d| d.name == "f")[0];
        let gfn = g.select(|d| d.name == "g")[0];
        let pool_new = g.select(|d| d.qname == "Pool::new")[0];
        assert!(
            !g.edges[f].contains(&pool_new),
            "std VecDeque::new must not alias Pool::new"
        );
        assert!(
            g.edges[gfn].contains(&pool_new),
            "unknown qualifiers stay conservative"
        );
    }

    #[test]
    fn test_defs_stay_out_of_the_graph() {
        let g = graph(&[(
            "crates/sim/src/a.rs",
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { prod(); }\n}\n",
        )]);
        assert_eq!(g.defs.len(), 1);
        assert!(g.callers[0].is_empty(), "test caller contributes no edge");
    }

    #[test]
    fn closure_respects_the_traverse_gate() {
        let g = graph(&[(
            "crates/sim/src/a.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n",
        )]);
        let (a, b, c) = (
            g.select(|d| d.name == "a")[0],
            g.select(|d| d.name == "b")[0],
            g.select(|d| d.name == "c")[0],
        );
        let reach = g.closure(&[a], &g.edges, |i| i != b);
        assert!(reach.contains_key(&b), "gate node is reached");
        assert!(!reach.contains_key(&c), "but not expanded through");
    }
}
