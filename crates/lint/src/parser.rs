//! A lightweight recursive-descent pass over the token stream — just
//! enough Rust *shape* for cross-function analysis.
//!
//! The PR 6 linter matched per-line token patterns, which is exactly why
//! the `stitch_components` HashMap-order bug had to reach a seeded-replay
//! diff before anyone noticed: the iteration happened in one function and
//! the protocol decision in another. This module recovers the structure
//! the call-graph rules need without a full Rust grammar:
//!
//! - **items**: `fn` definitions (free and inherent/trait-impl methods),
//!   `impl` blocks (to qualify methods as `Type::name`), `#[test]` /
//!   `#[cfg(test)]`-gated regions;
//! - **signatures**: the token span between the `fn` name and its body,
//!   scanned for marker types (`CostResult`);
//! - **call expressions**: bare calls (`helper(…)`), path-qualified calls
//!   (`Type::helper(…)`, turbofish tolerated), and method calls
//!   (`recv.helper(…)`), each with the *statement context* needed by the
//!   dropped-cost rule (`let _ = …;` or a bare expression statement).
//!
//! Everything here is deliberately heuristic — the linter must degrade
//! gracefully on code `rustc` would reject (fixtures do that on purpose)
//! — but every heuristic errs toward *more* edges, never fewer: the
//! call-graph rules built on top are reachability arguments, and a missed
//! edge is a missed bug while a spurious edge is at worst a written-reason
//! suppression.

use crate::lexer::{Lexed, TokKind, Token};

/// How the value of a call expression is consumed by its statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discard {
    /// The value flows somewhere (binding, argument, return position, …).
    No,
    /// The whole value is thrown away via `let _ = …;`.
    LetUnderscore,
    /// The call is a bare expression statement (`f(…);`) whose value —
    /// cost component included — evaporates.
    Statement,
}

/// One call expression inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The called name: the method name, or the last path segment.
    pub name: String,
    /// For `Type::name(…)` calls, the qualifying segment (`Self` is
    /// resolved to the enclosing impl type by the caller of this module).
    pub qual: Option<String>,
    /// For method calls, the receiver's trailing identifier when it is a
    /// simple one (`self.outbox.push(…)` → `outbox`).
    pub recv: Option<String>,
    /// 1-based line of the call.
    pub line: u32,
    /// Index of the call-name token in the file's token stream (lets a
    /// pass re-examine the tokens around the call).
    pub tok: usize,
    /// Statement context (see [`Discard`]).
    pub discard: Discard,
}

/// Method names that mutate their receiver — the shape-only stand-in for
/// `&mut self` resolution. A method call through a field (`self.buf.push`)
/// marks the field written when the method is here or ends in `_mut`;
/// anything else reads. Errs toward *write* for the std mutators the
/// workspace actually uses: a spurious write costs a written-reason
/// suppression, a missed one is a missed mutation.
pub const MUTATING_METHODS: [&str; 30] = [
    "push",
    "push_back",
    "push_front",
    "pop",
    "insert",
    "remove",
    "swap_remove",
    "clear",
    "extend",
    "append",
    "drain",
    "drain_into",
    "truncate",
    "resize",
    "resize_with",
    "retain",
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "dedup",
    "fill",
    "swap",
    "take",
    "replace",
    "merge",
    "reserve",
    "shrink_to_fit",
];

/// Whether a method call through a field counts as mutating the field.
pub fn is_mutating_method(name: &str) -> bool {
    MUTATING_METHODS.contains(&name) || name.ends_with("_mut")
}

/// One field access (`recv.field`) inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldAccess {
    /// The receiver identifier directly before the `.` (`self`, a local,
    /// a param, or the previous field of a chain); `_` when the receiver
    /// is a call/index result.
    pub recv: String,
    /// The accessed field name.
    pub field: String,
    /// 1-based line of the field token.
    pub line: u32,
    /// Index of the field token in the file's token stream.
    pub tok: usize,
    /// Whether the access mutates: assignment (`=`, `+=`, …), an `&mut`
    /// borrow of the chain, or a mutating-method receiver position.
    pub write: bool,
}

/// One `fn` definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare function/method name.
    pub name: String,
    /// `Type::name` for methods in an `impl` block, else the bare name.
    pub qname: String,
    /// The enclosing `impl` type, when any.
    pub impl_type: Option<String>,
    /// Workspace-relative file (forward slashes).
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the definition sits in a `#[test]`/`#[cfg(test)]` region.
    pub in_test: bool,
    /// Whether the signature's return type mentions `CostResult`.
    pub returns_cost_result: bool,
    /// Token index of the name token (the signature runs from here to the
    /// body's opening brace).
    pub sig_start: usize,
    /// Token-index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// Every call expression in the body, in source order.
    pub calls: Vec<CallSite>,
    /// Every field access in the body, in source order (closure bodies
    /// included — they attribute to the enclosing function).
    pub accesses: Vec<FieldAccess>,
    /// Parameters taken by `&mut` reference, `self` included — the
    /// signature half of the effect surface.
    pub mut_params: Vec<String>,
}

/// Parser output for one file.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    /// All function definitions, in source order.
    pub defs: Vec<FnDef>,
    /// Per-token: inside a `#[test]`/`#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
    /// Per-token: index into [`defs`](Self::defs) of the innermost
    /// enclosing function, when any.
    pub enclosing: Vec<Option<usize>>,
}

/// Keywords that look like `ident (` but never name a call.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "in"
            | "as"
            | "move"
            | "unsafe"
            | "let"
            | "mut"
            | "ref"
            | "impl"
            | "dyn"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
    )
}

/// Marks every token inside a `#[…test…]`-gated item (same contract the
/// PR 6 token engine used: attribute scan, then the gated item runs to the
/// close of its first brace body or a top-level `;`).
fn mark_test_regions(toks: &[Token]) -> Vec<bool> {
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if toks[i].text == "#" && i + 1 < n && toks[i + 1].text == "[" {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < n {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if toks[j].kind == TokKind::Ident => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut opened = false;
                while k < n {
                    match toks[k].text.as_str() {
                        "{" | "(" | "[" => {
                            depth += 1;
                            opened = opened || toks[k].text == "{";
                        }
                        "}" | ")" | "]" => {
                            depth -= 1;
                            if depth == 0 && opened && toks[k].text == "}" {
                                break;
                            }
                        }
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                for flag in in_test.iter_mut().take(k.min(n - 1) + 1).skip(i) {
                    *flag = true;
                }
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Extracts the subject type of an `impl` header: the first identifier at
/// angle-depth 0 after `for` when present, else after `impl` itself
/// (generic parameter lists are skipped by angle-depth tracking).
fn impl_subject(toks: &[Token], impl_idx: usize, open_idx: usize) -> Option<String> {
    let mut angle = 0i32;
    let mut after_for = None;
    let mut first = None;
    let mut j = impl_idx + 1;
    while j < open_idx {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "for" if t.kind == TokKind::Ident && angle == 0 => {
                after_for = None; // the type follows; reset and capture next
                j += 1;
                while j < open_idx {
                    let u = &toks[j];
                    match u.text.as_str() {
                        "<" => angle += 1,
                        ">" => angle = (angle - 1).max(0),
                        _ if u.kind == TokKind::Ident && angle == 0 && u.text != "dyn" => {
                            after_for = Some(u.text.clone());
                            // keep scanning: `for a::b::C` — last segment wins
                        }
                        _ => {}
                    }
                    j += 1;
                }
                break;
            }
            _ if t.kind == TokKind::Ident && angle == 0 && first.is_none() && t.text != "dyn" => {
                first = Some(t.text.clone());
            }
            _ => {}
        }
        j += 1;
    }
    after_for.or(first)
}

/// Parses one file's token stream into function definitions with call
/// sites. `file` is the workspace-relative path copied into every def.
pub fn parse(file: &str, lx: &Lexed) -> Parsed {
    let toks = &lx.tokens;
    let n = toks.len();
    let in_test = mark_test_regions(toks);
    let mut enclosing: Vec<Option<usize>> = vec![None; n];
    let mut defs: Vec<FnDef> = Vec::new();

    // Stacks: impl blocks (subject type, depth of their `{`), open fns
    // (def index, depth of their body `{`).
    let mut impl_stack: Vec<(Option<String>, i32)> = Vec::new();
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut brace_depth = 0i32;
    // A pending `fn name` whose body `{` has not been seen yet:
    // (name, index of the name token).
    let mut pending_fn: Option<(String, usize)> = None;
    // A pending `impl` header whose `{` has not been seen yet.
    let mut pending_impl: Option<usize> = None;

    for idx in 0..n {
        let t = &toks[idx];
        match t.text.as_str() {
            "impl" if t.kind == TokKind::Ident && pending_fn.is_none() => {
                pending_impl = Some(idx);
            }
            "fn" if t.kind == TokKind::Ident => {
                if let Some(name_tok) = toks.get(idx + 1) {
                    if name_tok.kind == TokKind::Ident {
                        pending_fn = Some((name_tok.text.clone(), idx + 1));
                    }
                }
            }
            "{" => {
                brace_depth += 1;
                if let Some((name, name_idx)) = pending_fn.take() {
                    let impl_type = impl_stack
                        .last()
                        .and_then(|(ty, _)| ty.clone())
                        .filter(|_| {
                            // only qualify methods whose impl block is the
                            // *innermost* enclosing item (not a nested fn)
                            fn_stack.is_empty()
                                || impl_stack.last().is_some_and(|(_, d)| {
                                    fn_stack.last().is_none_or(|(_, fd)| d > fd)
                                })
                        });
                    let returns_cost_result = toks[name_idx + 1..idx]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text == "CostResult");
                    let qname = match &impl_type {
                        Some(ty) => format!("{ty}::{name}"),
                        None => name.clone(),
                    };
                    defs.push(FnDef {
                        name,
                        qname,
                        impl_type,
                        file: file.to_string(),
                        line: toks[name_idx].line,
                        in_test: in_test[name_idx],
                        returns_cost_result,
                        sig_start: name_idx,
                        body: (idx, idx), // end patched at the close brace
                        calls: Vec::new(),
                        accesses: Vec::new(),
                        mut_params: Vec::new(),
                    });
                    fn_stack.push((defs.len() - 1, brace_depth));
                } else if let Some(impl_idx) = pending_impl.take() {
                    impl_stack.push((impl_subject(toks, impl_idx, idx), brace_depth));
                }
            }
            "}" => {
                if let Some(&(def_idx, d)) = fn_stack.last() {
                    if d == brace_depth {
                        defs[def_idx].body.1 = idx;
                        fn_stack.pop();
                    }
                }
                if impl_stack.last().is_some_and(|&(_, d)| d == brace_depth) {
                    impl_stack.pop();
                }
                brace_depth -= 1;
            }
            ";" => {
                // `fn f();` (trait decl) — a bodyless signature cancels the
                // pending fn; a pending impl can't be cancelled by `;`.
                pending_fn = None;
            }
            _ => {}
        }
        enclosing[idx] = fn_stack.last().map(|&(def_idx, _)| def_idx);
    }
    // Unclosed bodies (truncated fixtures) run to the end of the stream.
    while let Some((def_idx, _)) = fn_stack.pop() {
        defs[def_idx].body.1 = n.saturating_sub(1);
    }

    extract_calls(toks, &enclosing, &mut defs);
    extract_accesses(toks, &enclosing, &mut defs);
    for def in &mut defs {
        def.mut_params = extract_mut_params(toks, def.sig_start, def.body.0);
    }
    Parsed {
        defs,
        in_test,
        enclosing,
    }
}

/// Parameters taken by `&mut` reference in the signature span
/// `sig..open` (`&mut self`, `name: &mut T`, `name: &'a mut T`).
fn extract_mut_params(toks: &[Token], sig: usize, open: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = sig;
    while i < open.min(toks.len()) {
        if toks[i].text == "&" {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Lifetime) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| is_ident(t, "mut")) {
                let after = toks.get(j + 1);
                if after.is_some_and(|t| is_ident(t, "self")) {
                    push_unique(&mut out, "self");
                } else if i >= 2 && toks[i - 1].text == ":" && toks[i - 2].kind == TokKind::Ident {
                    // `name: &mut T` — but not `Type::<&mut T>` paths
                    if i < 3 || toks[i - 3].text != ":" {
                        push_unique(&mut out, &toks[i - 2].text);
                    }
                }
            }
        }
        i += 1;
    }
    out
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

fn push_unique(v: &mut Vec<String>, s: &str) {
    if !v.iter().any(|x| x == s) {
        v.push(s.to_string());
    }
}

/// Walks every token, recognizes `recv.field` accesses (field token not
/// followed by an argument list — that would be a method call), classifies
/// each as read or write, and attaches it to the innermost enclosing
/// function. Chains record one access per field: `self.a.b = x` yields a
/// write of `a` (through-write) and a write of `b`.
fn extract_accesses(toks: &[Token], enclosing: &[Option<usize>], defs: &mut [FnDef]) {
    let n = toks.len();
    for idx in 0..n {
        let t = &toks[idx];
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            continue;
        }
        let Some(def_idx) = enclosing[idx] else {
            continue;
        };
        // a field token is preceded by `.` (and not the `..` of a range)
        if idx < 2 || toks[idx - 1].text != "." || toks[idx - 2].text == "." {
            continue;
        }
        // a method call is a CallSite, not a field access — but it may
        // still classify the *previous* chain link (handled there)
        if toks.get(idx + 1).map(|t| t.text.as_str()) == Some("(") {
            continue;
        }
        let recv = if toks[idx - 2].kind == TokKind::Ident {
            toks[idx - 2].text.clone()
        } else {
            "_".to_string()
        };
        defs[def_idx].accesses.push(FieldAccess {
            recv,
            field: t.text.clone(),
            line: t.line,
            tok: idx,
            write: classify_access(toks, idx),
        });
    }
}

/// Whether the field access at `idx` mutates. Checks, in order: an `&mut`
/// borrow of the whole chain, a trailing assignment (`=`, `+=`, `<<=`, …
/// after the rest of the chain and any index brackets), or a mutating
/// method called on the chain's end.
fn classify_access(toks: &[Token], idx: usize) -> bool {
    // ---- backward: find the chain head, then look for `&mut` ----------
    let mut head = idx;
    while head >= 2 && toks[head - 1].text == "." && toks[head - 2].kind == TokKind::Ident {
        head -= 2;
    }
    if head >= 2 && toks[head - 2].text == "&" && is_ident(&toks[head - 1], "mut") {
        return true;
    }
    // ---- forward: walk the rest of the chain, then classify -----------
    let mut j = idx + 1;
    loop {
        match toks.get(j).map(|t| t.text.as_str()) {
            // index brackets: `self.per_sent[v] = 0` still writes per_sent
            Some("[") => {
                let mut depth = 0i32;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                j += 1;
            }
            Some(".") if toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident) => {
                if toks.get(j + 2).map(|t| t.text.as_str()) == Some("(") {
                    // method on the chain end: mutating ⇒ the field is written
                    return is_mutating_method(&toks[j + 1].text);
                }
                j += 2; // next chain link; its own record classifies it too
            }
            _ => break,
        }
    }
    let (a, b, c) = (
        toks.get(j).map(|t| t.text.as_str()),
        toks.get(j + 1).map(|t| t.text.as_str()),
        toks.get(j + 2).map(|t| t.text.as_str()),
    );
    match (a, b, c) {
        // plain assignment — but not `==` or a match arm's `=>`
        (Some("="), next, _) => next != Some("=") && next != Some(">"),
        // compound assignment: `+=`, `-=`, `|=`, `&=`, `^=`, `*=`, `/=`, `%=`
        (Some("+" | "-" | "*" | "/" | "%" | "|" | "&" | "^"), Some("="), _) => true,
        // shift assignment: `<<=`, `>>=`
        (Some("<"), Some("<"), Some("=")) | (Some(">"), Some(">"), Some("=")) => true,
        _ => false,
    }
}

/// After the turbofish starting at `idx` (`::` `<` … `>`), returns the
/// index just past the closing `>`, or `idx` when no turbofish is present.
fn skip_turbofish(toks: &[Token], idx: usize) -> usize {
    if toks.get(idx).map(|t| t.text.as_str()) != Some(":")
        || toks.get(idx + 1).map(|t| t.text.as_str()) != Some(":")
        || toks.get(idx + 2).map(|t| t.text.as_str()) != Some("<")
    {
        return idx;
    }
    let mut depth = 0i32;
    let mut j = idx + 2;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" | "{" => return idx, // bail: not a turbofish after all
            _ => {}
        }
        j += 1;
    }
    idx
}

/// Walks every token, recognizes call expressions, and attaches them to
/// their innermost enclosing function with statement context.
fn extract_calls(toks: &[Token], enclosing: &[Option<usize>], defs: &mut [FnDef]) {
    // ---- statement contexts -------------------------------------------
    // A "run" is a maximal token span between statement boundaries (`;`,
    // `{`, `}`); within a run, calls whose parentheses sit at run-relative
    // depth 0 inherit the run's discard context. `,` also bounds runs so
    // struct literals and match arms never read as statements.
    let n = toks.len();
    let mut discard_at: Vec<Discard> = vec![Discard::No; n];
    let mut start = 0usize;
    let mut i = 0usize;
    while i <= n {
        let boundary = i == n || matches!(toks[i].text.as_str(), ";" | "{" | "}" | ",");
        if boundary {
            let ends_with_semi = i < n && toks[i].text == ";";
            if ends_with_semi && start < i {
                classify_run(toks, start, i, &mut discard_at);
            }
            start = i + 1;
        }
        i += 1;
    }

    // ---- call recognition ---------------------------------------------
    for idx in 0..n {
        let t = &toks[idx];
        if t.kind != TokKind::Ident || is_expr_keyword(&t.text) {
            continue;
        }
        let Some(def_idx) = enclosing[idx] else {
            continue;
        };
        // the token after the name (turbofish tolerated) must open the
        // argument list; `name !(…)` is a macro, not a call
        let after = skip_turbofish(toks, idx + 1);
        if toks.get(after).map(|t| t.text.as_str()) != Some("(") {
            continue;
        }
        let prev = idx.checked_sub(1).map(|j| &toks[j]);
        let prev2 = idx.checked_sub(2).map(|j| &toks[j]);
        let (qual, recv) = match (
            prev.map(|p| p.text.as_str()),
            prev2.map(|p| p.text.as_str()),
        ) {
            // method call: `recv . name (`
            (Some("."), _) => {
                let recv = idx
                    .checked_sub(2)
                    .map(|j| &toks[j])
                    .filter(|r| r.kind == TokKind::Ident)
                    .map(|r| r.text.clone());
                (None, recv)
            }
            // path call: `Seg :: name (`
            (Some(":"), Some(":")) => {
                let qual = idx
                    .checked_sub(3)
                    .map(|j| &toks[j])
                    .filter(|q| q.kind == TokKind::Ident)
                    .map(|q| q.text.clone());
                (qual, None)
            }
            // `fn name (` is a definition, `# name` can't happen, and a
            // preceding ident (`fn`, `mod`, …) was filtered by the keyword
            // check on the *name*; a bare `name (` is a call
            _ => (None, None),
        };
        if prev.is_some_and(|p| p.text == "fn") {
            continue;
        }
        defs[def_idx].calls.push(CallSite {
            name: t.text.clone(),
            qual,
            recv,
            line: t.line,
            tok: idx,
            discard: discard_at[idx],
        });
    }
}

/// Classifies one `…;`-terminated run and marks its depth-0 call-name
/// tokens with the run's discard context.
fn classify_run(toks: &[Token], start: usize, end: usize, discard_at: &mut [Discard]) {
    let first = &toks[start];
    let context = if first.kind == TokKind::Ident && first.text == "let" {
        // `let _ = …;` — only the exact `_` pattern is a whole-value drop
        if toks.get(start + 1).is_some_and(|t| t.text == "_")
            && toks.get(start + 2).is_some_and(|t| t.text == "=")
        {
            Discard::LetUnderscore
        } else {
            return;
        }
    } else if first.kind == TokKind::Ident && is_expr_keyword(&first.text) {
        return; // control flow, declarations, …
    } else {
        // bare expression statement — but an assignment (`x = f();`,
        // `x += f();`) consumes the value, so require no top-level `=`
        let mut depth = 0i32;
        for t in &toks[start..end] {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "=" if depth == 0 => return,
                _ => {}
            }
        }
        Discard::Statement
    };
    // mark call-name idents whose `(` sits at run-relative paren depth 0
    let mut depth = 0i32;
    for j in start..end {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ if toks[j].kind == TokKind::Ident && depth == 0 => {
                let after = skip_turbofish(toks, j + 1);
                if toks.get(after).is_some_and(|t| t.text == "(") {
                    discard_at[j] = context;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Parsed {
        parse("crates/sim/src/x.rs", &lex(src))
    }

    #[test]
    fn methods_are_qualified_by_their_impl_type() {
        let p = parse_src(
            "impl<P: Process> Network<P> {\n    pub fn step(&mut self) -> CostResult<u32> { self.finish() }\n}\nfn free() {}\n",
        );
        assert_eq!(p.defs.len(), 2);
        assert_eq!(p.defs[0].qname, "Network::step");
        assert!(p.defs[0].returns_cost_result);
        assert_eq!(p.defs[1].qname, "free");
        assert!(!p.defs[1].returns_cost_result);
    }

    #[test]
    fn trait_impls_take_the_for_type() {
        let p = parse_src("impl Drop for Journal {\n    fn drop(&mut self) { self.halt(); }\n}\n");
        assert_eq!(p.defs[0].qname, "Journal::drop");
    }

    #[test]
    fn calls_carry_qualifier_receiver_and_context() {
        let p = parse_src(
            "fn f() {\n    let _ = probe();\n    net.step();\n    let x = Journal::new(2);\n    take(inner());\n    self.outbox.push(1);\n}\n",
        );
        let calls = &p.defs[0].calls;
        let get = |name: &str| calls.iter().find(|c| c.name == name).expect("call present");
        assert_eq!(get("probe").discard, Discard::LetUnderscore);
        assert_eq!(get("step").discard, Discard::Statement);
        assert_eq!(get("new").qual.as_deref(), Some("Journal"));
        assert_eq!(get("new").discard, Discard::No);
        assert_eq!(get("inner").discard, Discard::No, "argument position");
        assert_eq!(get("take").discard, Discard::Statement);
        assert_eq!(get("push").recv.as_deref(), Some("outbox"));
    }

    #[test]
    fn assignments_and_bindings_are_not_discards() {
        let p = parse_src(
            "fn f() {\n    let ((r, m), _) = net.run_until_quiet(8);\n    total = accumulate();\n    let _cost = probe();\n}\n",
        );
        assert!(p.defs[0].calls.iter().all(|c| c.discard == Discard::No));
    }

    #[test]
    fn turbofish_calls_are_still_calls() {
        let p = parse_src("fn f() {\n    parse::<u32>();\n}\n");
        assert_eq!(p.defs[0].calls[0].name, "parse");
        assert_eq!(p.defs[0].calls[0].discard, Discard::Statement);
    }

    #[test]
    fn test_regions_mark_defs() {
        let p = parse_src("#[cfg(test)]\nmod tests {\n    fn helper() { x(); }\n}\nfn prod() {}\n");
        assert!(p.defs[0].in_test);
        assert!(!p.defs[1].in_test);
    }

    /// `(field, write)` pairs in source order, for compact assertions.
    fn accesses(def: &FnDef) -> Vec<(&str, bool)> {
        def.accesses
            .iter()
            .map(|a| (a.field.as_str(), a.write))
            .collect()
    }

    #[test]
    fn field_reads_and_writes_are_classified() {
        let p = parse_src(
            "impl L {\n    fn f(&mut self) {\n        self.sent += 1;\n        self.delivered = self.sent;\n        let x = self.lost;\n        self.per_sent[v] = 0;\n        self.outbox.push(1);\n        self.name.len();\n    }\n}\n",
        );
        assert_eq!(
            accesses(&p.defs[0]),
            vec![
                ("sent", true),
                ("delivered", true),
                ("sent", false),
                ("lost", false),
                ("per_sent", true),
                ("outbox", true),
                ("name", false),
            ]
        );
    }

    #[test]
    fn chains_borrows_and_comparisons_classify_correctly() {
        let p = parse_src(
            "fn f(s: &mut S) {\n    s.inner.count = 1;\n    take(&mut s.buf);\n    if s.count == 0 { return; }\n    match s.mode { M::A => {} _ => {} }\n    s.items.sort();\n    s.view.iter();\n}\n",
        );
        assert_eq!(
            accesses(&p.defs[0]),
            vec![
                ("inner", true), // through-write on the chain
                ("count", true),
                ("buf", true),    // &mut borrow
                ("count", false), // `==` is not an assignment
                ("mode", false),  // `=>` match arm is not an assignment
                ("items", true),  // mutating method
                ("view", false),  // non-mutating method
            ]
        );
        assert_eq!(p.defs[0].mut_params, vec!["s".to_string()]);
    }

    #[test]
    fn mut_params_cover_self_and_named_refs() {
        let p = parse_src(
            "impl N {\n    fn g(&mut self, out: &mut Vec<u32>, data: &[u8], n: usize) {}\n}\nfn h(x: &'static mut u32) {}\n",
        );
        assert_eq!(p.defs[0].mut_params, vec!["self", "out"]);
        assert_eq!(p.defs[1].mut_params, vec!["x"]);
    }

    #[test]
    fn closure_bodies_attribute_to_the_enclosing_fn() {
        // regression: calls AND field accesses inside a closure passed as an
        // argument (`scope.run(|part| { … })`) must land on the enclosing fn
        let p = parse_src(
            "impl E {\n    fn drive(&mut self, scope: &Scope) {\n        scope.run(|part| {\n            part.outbox.clear();\n            drain_part(part);\n            self.total += 1;\n        });\n    }\n}\n",
        );
        assert_eq!(p.defs.len(), 1, "closures are not defs");
        let d = &p.defs[0];
        assert!(d.calls.iter().any(|c| c.name == "drain_part"));
        assert!(d.calls.iter().any(|c| c.name == "run"));
        let acc = accesses(d);
        assert!(acc.contains(&("outbox", true)), "{acc:?}");
        assert!(acc.contains(&("total", true)), "{acc:?}");
    }

    #[test]
    fn macros_and_struct_literals_are_not_calls_or_statements() {
        let p = parse_src(
            "fn f() {\n    assert!(ready());\n    let s = Foo { a: mk(), b: 1 };\n    match x { Some(v) => go(v), None => {} }\n}\n",
        );
        let calls = &p.defs[0].calls;
        assert!(calls.iter().all(|c| c.name != "assert" && c.name != "Foo"));
        assert!(
            calls
                .iter()
                .all(|c| c.discard == Discard::No || c.name == "ready"),
            "{calls:?}"
        );
    }
}
