//! Interprocedural determinism-taint dataflow over the call graph.
//!
//! The PR 6 invariant — every RNG is keyed by `(day, wire position)`,
//! never by shard/worker/thread identity or anything else that varies
//! with the execution environment — is a *flow* property. The lexical
//! `shard-seed` rule catches `tree.child(shard_idx)`; it cannot catch
//! `derive_shard_seed(shard_idx)` where the sink is two calls away, nor
//! `let n = env::var("SB_THREADS")…; tree.index(n)`. This pass can.
//!
//! **Sources** (where taint is born):
//!
//! | source                                   | origin kind        |
//! |------------------------------------------|--------------------|
//! | `shard*` / `worker*` / `thread*` / `tid` identifiers | shard identity |
//! | `env::var` / `env::var_os` / `env::vars` | environment read   |
//! | `Instant::now` / `SystemTime::now`       | wall clock         |
//! | calls to fns whose return is tainted     | the callee's origin|
//!
//! (Hash-iteration order has its own lexical rule, `hash-iter`, and is
//! deliberately *not* a taint source here.)
//!
//! **Sinks** (where tainted data corrupts determinism):
//!
//! * seed derivations: `.child(…)` / `.index(…)` / `.seeded(…)` /
//!   `.seed_from_u64(…)`;
//! * RNG construction: `SeedTree::new` / `Xoshiro256pp::{new,
//!   seed_from_u64,from_seed}` / `SplitMix64::new`;
//! * merge-order comparators: `.sort_by(…)`, `.sort_by_key(…)`,
//!   `.min_by_key(…)`, `.binary_search_by(…)`, … — wire-position
//!   assignment and report merges must not order on environment-coupled
//!   values.
//!
//! **Propagation**: through `let` bindings inside a function, and
//! interprocedurally through parameters — a fixpoint computes, for every
//! fn, which parameter slots eventually reach a sink (with the *hop* that
//! moves them closer recorded per slot, so findings can print the full
//! chain) and whether its return value is tainted.
//!
//! **Division of labor with `shard-seed`**: a shard-named identifier
//! directly inside a derivation/constructor argument list is the lexical
//! rule's finding and is skipped here; everything that needs ≥1 hop of
//! dataflow (through a local, a return value, or a call boundary) — and
//! every comparator sink — is reported as `taint-path`.

use crate::callgraph::CallGraph;
use crate::diag::TraceFrame;
use crate::lexer::TokKind;
use crate::parser::{CallKind, CallSite};
use crate::rules::shard_identity;
use std::collections::BTreeMap;

/// One raw deep finding (severity/suppressions applied by the engine).
#[derive(Debug, Clone)]
pub struct TaintFinding {
    pub path: String,
    pub line: u32,
    pub message: String,
    pub trace: Vec<TraceFrame>,
}

const DERIVE_METHODS: &[&str] = &["child", "index", "seeded", "seed_from_u64"];
const RNG_TYPES: &[&str] = &["SeedTree", "Xoshiro256pp", "SplitMix64"];
const RNG_CTORS: &[&str] = &["new", "seed_from_u64", "from_seed"];
/// Keywords opening a block-like statement (one a `}` can end).
const BLOCK_LIKE: &[&str] = &["if", "match", "loop", "for", "while", "unsafe"];
const COMPARATORS: &[&str] = &[
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "binary_search_by",
    "binary_search_by_key",
    "min_by_key",
    "max_by_key",
];

/// Where a tainted value originally came from.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Origin {
    /// The source expression's text (`shard_idx`, `env::var`, …).
    what: String,
    /// Human kind ("shard identity", "environment read", …).
    kind: String,
    /// Line where *this* taint event happened (the `let`, or the source
    /// itself).
    line: u32,
}

/// One step a tainted parameter takes toward a sink.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Hop {
    /// The parameter reaches a sink in this fn.
    Sink { line: u32, what: String },
    /// The parameter is passed on to `callee`'s param `slot`.
    Call { callee: usize, slot: usize, line: u32 },
}

/// Per-fn dataflow summary, recomputed to fixpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Summary {
    /// Origin-tainted local bindings (`let n = env::var(…)…`).
    locals: BTreeMap<String, Origin>,
    /// Locals derived from a parameter (`let s = idx * 2` → s ↦ idx's slot).
    param_locals: BTreeMap<String, usize>,
    /// Parameter slots that eventually reach a sink, with the first hop.
    sink_params: BTreeMap<usize, Hop>,
    /// The fn's return value carries taint of this origin.
    returns: Option<Origin>,
}

/// A `let` binding inside a fn body.
struct LetBinding {
    name: String,
    line: u32,
    /// Token range of the initializer expression.
    init: (usize, usize),
}

/// Pre-extracted per-fn syntax the fixpoint re-reads each round.
struct FnSyntax {
    lets: Vec<LetBinding>,
    /// Return-statement and tail-expression token ranges (only collected
    /// when the fn declares a return type).
    rets: Vec<(usize, usize)>,
    /// param name → slot.
    param_pos: BTreeMap<String, usize>,
}

/// What kind of sink a call site is, if any.
enum SinkKind {
    Seed(String),
    Comparator(String),
}

fn sink_of(call: &CallSite) -> Option<SinkKind> {
    match call.kind {
        CallKind::Method if DERIVE_METHODS.contains(&call.name.as_str()) => {
            Some(SinkKind::Seed(format!("seed derivation `.{}(…)`", call.name)))
        }
        CallKind::Method if COMPARATORS.contains(&call.name.as_str()) => {
            Some(SinkKind::Comparator(format!("merge comparator `.{}(…)`", call.name)))
        }
        CallKind::Path
            if call.path.len() >= 2
                && RNG_TYPES.contains(&call.path[call.path.len() - 2].as_str())
                && RNG_CTORS.contains(&call.name.as_str()) =>
        {
            Some(SinkKind::Seed(format!(
                "RNG construction `{}::{}`",
                call.path[call.path.len() - 2],
                call.name
            )))
        }
        _ => None,
    }
}

/// Is this call itself a taint source (environment read / wall clock)?
fn env_or_clock(call: &CallSite) -> Option<(&'static str, String)> {
    if call.kind != CallKind::Path || call.path.len() < 2 {
        return None;
    }
    let qual = call.path[call.path.len() - 2].as_str();
    let name = call.name.as_str();
    if qual == "env" && matches!(name, "var" | "var_os" | "vars") {
        return Some(("environment read", format!("{qual}::{name}")));
    }
    if (qual == "Instant" || qual == "SystemTime") && name == "now" {
        return Some(("wall clock", format!("{qual}::{name}")));
    }
    None
}

/// Extract `let` bindings / return ranges / param positions for one fn.
fn extract_syntax(graph: &CallGraph, f: usize) -> FnSyntax {
    let node = &graph.fns[f];
    let file = &graph.files[node.file];
    let code = &file.code;
    let mask = &file.mask;
    let mut syn = FnSyntax {
        lets: Vec::new(),
        rets: Vec::new(),
        param_pos: node
            .def
            .params
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_str() != "_" && n.as_str() != "self")
            .map(|(i, n)| (n.clone(), i))
            .collect(),
    };
    let Some((open, close)) = node.def.body else { return syn };
    // `let [mut] NAME (: ty)? = init ;`
    let mut i = open + 1;
    while i < close {
        if mask.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let t = &code[i];
        if t.is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let name_ok = code.get(j).is_some_and(|n| n.kind == TokKind::Ident)
                && code.get(j + 1).is_some_and(|n| n.is_punct(':') || n.is_punct('='));
            if name_ok {
                let name = code[j].text.clone();
                let line = code[j].line;
                // skip a type annotation up to `=` (or give up at `;`)
                let mut k = j + 1;
                let mut depth = 0i32;
                let mut eq = None;
                while k < close {
                    let tk = &code[k];
                    if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') || tk.is_punct('<')
                    {
                        depth += 1;
                    } else if tk.is_punct(')')
                        || tk.is_punct(']')
                        || tk.is_punct('}')
                        || (tk.is_punct('>') && !(k > 0 && code[k - 1].is_punct('-')))
                    {
                        depth -= 1;
                    } else if depth == 0 && tk.is_punct('=') {
                        eq = Some(k);
                        break;
                    } else if depth == 0 && tk.is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(eq) = eq {
                    // initializer runs to the `;` at depth 0
                    let mut m = eq + 1;
                    let mut depth = 0i32;
                    while m < close {
                        let tm = &code[m];
                        if tm.is_punct('(') || tm.is_punct('[') || tm.is_punct('{') {
                            depth += 1;
                        } else if tm.is_punct(')') || tm.is_punct(']') || tm.is_punct('}') {
                            depth -= 1;
                        } else if depth == 0 && tm.is_punct(';') {
                            break;
                        }
                        m += 1;
                    }
                    syn.lets.push(LetBinding { name, line, init: (eq + 1, m) });
                    i = m + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    if node.def.has_ret {
        // `return expr;` statements
        let mut i = open + 1;
        while i < close {
            if !mask.get(i).copied().unwrap_or(false) && code[i].is_ident("return") {
                let mut m = i + 1;
                let mut depth = 0i32;
                while m < close {
                    let tm = &code[m];
                    if tm.is_punct('(') || tm.is_punct('[') || tm.is_punct('{') {
                        depth += 1;
                    } else if tm.is_punct(')') || tm.is_punct(']') || tm.is_punct('}') {
                        depth -= 1;
                    } else if depth <= 0 && tm.is_punct(';') {
                        break;
                    }
                    m += 1;
                }
                if m > i + 1 {
                    syn.rets.push((i + 1, m));
                }
                i = m + 1;
                continue;
            }
            i += 1;
        }
        // tail expression: everything after the last statement at body
        // depth 0. A statement ends at a `;`, or at the `}` closing a
        // block-like statement (`if`/`match`/`loop`/`for`/`while`/
        // `unsafe`/a block, labelled or not) unless it is last or an
        // `else` continues it; an outer attribute ends at its `]`.
        let mut tail = open + 1;
        let mut depth = 0i32;
        let mut block_like = false;
        let mut attribute = false;
        let mut i = open + 1;
        while i < close {
            let t = &code[i];
            if depth == 0 && i == tail {
                let label = t.kind == TokKind::Lit
                    && t.text.starts_with('\'')
                    && code.get(i + 1).is_some_and(|n| n.is_punct(':'));
                block_like = label || t.is_punct('{') || BLOCK_LIKE.iter().any(|k| t.is_ident(k));
                attribute = t.is_punct('#');
            }
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
                let ends = (attribute && t.is_punct(']'))
                    || (block_like
                        && t.is_punct('}')
                        && i + 1 < close
                        && !code[i + 1].is_ident("else"));
                if depth == 0 && ends {
                    tail = i + 1;
                }
            } else if depth == 0 && t.is_punct(';') {
                tail = i + 1;
            }
            i += 1;
        }
        if tail < close {
            syn.rets.push((tail, close));
        }
    }
    syn
}

/// One tainted occurrence inside a token range.
struct Occurrence {
    /// Token index (for deterministic "first occurrence" picking).
    at: usize,
    /// The expression text seen at the use site.
    desc: String,
    origin: Origin,
    /// A bare shard-named identifier — the lexical rule's territory when
    /// it sits directly in a seed-derivation argument list.
    direct_shard: bool,
}

/// How an identifier token is used syntactically.
#[derive(PartialEq, Eq)]
enum IdentUse {
    /// A value read of the identifier itself (`x`, `&x`, `x.method()`,
    /// `x.shard_idx` — projections of shard-named fields keep the taint).
    Value,
    /// A direct read of field `.x` (prev token is `.`, not re-projected).
    FieldRead,
    /// Not a value position: struct-literal field name or type
    /// ascription (`x:`), path qualifier (`x::`), callee or macro name
    /// (`x(`, `x!`), a projection that immediately re-projects
    /// (`.x.`, `.x(`), or a laundering projection (`x.benign_field`) —
    /// field-insensitive taint would otherwise swallow whole structs.
    NotValue,
}

fn ident_use(code: &[crate::lexer::Tok], i: usize) -> IdentUse {
    let prev_dot = code[..i]
        .iter()
        .rev()
        .find(|t| t.kind != TokKind::Comment)
        .is_some_and(|t| t.is_punct('.'));
    let mut sig = code[i + 1..].iter().filter(|t| t.kind != TokKind::Comment);
    let n1 = sig.next();
    let n2 = sig.next();
    let n3 = sig.next();
    if prev_dot {
        // `.x(` is a method name and `.x.` keeps projecting — the
        // receiver ident is the value use in both cases, not this token.
        return if n1.is_some_and(|t| t.is_punct('(') || t.is_punct('.')) {
            IdentUse::NotValue
        } else {
            IdentUse::FieldRead
        };
    }
    match n1 {
        // `x: …` field name / ascription, `x::…` path qualifier
        Some(t) if t.is_punct(':') => IdentUse::NotValue,
        // `x(…)` callee name (call flows go through fn summaries), `x!`
        Some(t) if t.is_punct('(') || t.is_punct('!') => IdentUse::NotValue,
        Some(t) if t.is_punct('.') => match n2 {
            Some(f) if f.kind == TokKind::Ident => {
                // `x.m(…)` uses x as receiver; `x.shard_idx` projects an
                // identity field; any other `x.field` launders the taint
                if n3.is_some_and(|t| t.is_punct('(')) || shard_identity(&f.text).is_some() {
                    IdentUse::Value
                } else {
                    IdentUse::NotValue
                }
            }
            // `x.0`, `x.await`, …
            _ => IdentUse::Value,
        },
        _ => IdentUse::Value,
    }
}

/// Scan `range` of fn `f` for tainted values. `my` is `f`'s own summary
/// (possibly a partial, in-progress one during local propagation); callee
/// summaries come from `sums`.
fn occurrences_in(
    graph: &CallGraph,
    sums: &[Summary],
    my: &Summary,
    f: usize,
    range: (usize, usize),
) -> Vec<Occurrence> {
    let node = &graph.fns[f];
    let file = &graph.files[node.file];
    let code = &file.code;
    let mask = &file.mask;
    let mut out = Vec::new();
    for i in range.0..range.1.min(code.len()) {
        if mask.get(i).copied().unwrap_or(false) || code[i].kind != TokKind::Ident {
            continue;
        }
        let text = &code[i].text;
        let usage = ident_use(code, i);
        if usage == IdentUse::NotValue {
            continue;
        }
        if let Some(kind) = shard_identity(text) {
            out.push(Occurrence {
                at: i,
                desc: text.clone(),
                origin: Origin { what: text.clone(), kind: kind.to_string(), line: code[i].line },
                direct_shard: true,
            });
        } else if usage == IdentUse::Value {
            if let Some(o) = my.locals.get(text) {
                out.push(Occurrence {
                    at: i,
                    desc: text.clone(),
                    origin: o.clone(),
                    direct_shard: false,
                });
            }
        }
    }
    // calls inside the range that produce tainted values
    for (c, call) in node.def.calls.iter().enumerate() {
        if call.head < range.0 || call.head >= range.1 {
            continue;
        }
        if let Some((kind, what)) = env_or_clock(call) {
            out.push(Occurrence {
                at: call.head,
                desc: format!("{what}(…)"),
                origin: Origin { what: what.clone(), kind: kind.to_string(), line: call.line },
                direct_shard: false,
            });
        } else {
            for &callee in &graph.resolved[f][c] {
                if let Some(ret) = &sums[callee].returns {
                    out.push(Occurrence {
                        at: call.head,
                        desc: format!("{}(…)", call.name),
                        origin: Origin {
                            what: format!("{}(…) → {}", graph.fns[callee].label(), ret.what),
                            kind: ret.kind.clone(),
                            line: call.line,
                        },
                        direct_shard: false,
                    });
                    break;
                }
            }
        }
    }
    out.sort_by_key(|o| o.at);
    out
}

/// Which parameter slots of `f` does `range` mention (directly or via a
/// param-derived local)?
fn param_mentions(
    graph: &CallGraph,
    my: &Summary,
    syn: &FnSyntax,
    f: usize,
    range: (usize, usize),
) -> Vec<(usize, usize, String)> {
    let node = &graph.fns[f];
    let file = &graph.files[node.file];
    let code = &file.code;
    let mask = &file.mask;
    let mut out = Vec::new();
    for i in range.0..range.1.min(code.len()) {
        if mask.get(i).copied().unwrap_or(false) || code[i].kind != TokKind::Ident {
            continue;
        }
        let text = &code[i].text;
        if ident_use(code, i) != IdentUse::Value {
            continue;
        }
        if let Some(&slot) = syn.param_pos.get(text) {
            out.push((i, slot, text.clone()));
        } else if let Some(&slot) = my.param_locals.get(text) {
            out.push((i, slot, text.clone()));
        }
    }
    out
}

/// Map a caller-side argument slot to the callee's parameter index
/// (method receivers occupy the callee's slot 0).
fn callee_slot(graph: &CallGraph, callee: usize, call: &CallSite, arg_slot: usize) -> usize {
    let shift = call.kind == CallKind::Method
        && graph.fns[callee].def.params.first().is_some_and(|p| p == "self");
    arg_slot + usize::from(shift)
}

/// Recompute one fn's summary from the current global state.
fn compute_summary(graph: &CallGraph, sums: &[Summary], syn: &FnSyntax, f: usize) -> Summary {
    let node = &graph.fns[f];
    let mut new = Summary::default();
    // Locals: a couple of inner rounds so `let a = src; let b = a;` chains
    // settle (lexical order usually suffices; shadowing rarely needs two).
    for _ in 0..4 {
        let mut changed = false;
        for lb in &syn.lets {
            if !new.locals.contains_key(&lb.name) {
                let occ = occurrences_in(graph, sums, &new, f, lb.init);
                if let Some(first) = occ.first() {
                    new.locals.insert(
                        lb.name.clone(),
                        Origin {
                            what: first.origin.what.clone(),
                            kind: first.origin.kind.clone(),
                            line: lb.line,
                        },
                    );
                    changed = true;
                }
            }
            if !new.param_locals.contains_key(&lb.name) {
                let ment = param_mentions(graph, &new, syn, f, lb.init);
                if let Some(&(_, slot, _)) = ment.first() {
                    new.param_locals.insert(lb.name.clone(), slot);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Returns: any return range containing a source.
    for &r in &syn.rets {
        if new.returns.is_some() {
            break;
        }
        if let Some(first) = occurrences_in(graph, sums, &new, f, r).into_iter().next() {
            new.returns = Some(first.origin);
        }
    }
    // Sink params: params (or param-locals) fed to a sink here or to a
    // callee slot known to reach one.
    for (c, call) in node.def.calls.iter().enumerate() {
        let sink = sink_of(call);
        for (arg_slot, &range) in call.args.iter().enumerate() {
            let ment = param_mentions(graph, &new, syn, f, range);
            if ment.is_empty() {
                continue;
            }
            match &sink {
                Some(SinkKind::Seed(what)) | Some(SinkKind::Comparator(what)) => {
                    for &(_, slot, _) in &ment {
                        new.sink_params
                            .entry(slot)
                            .or_insert_with(|| Hop::Sink { line: call.line, what: what.clone() });
                    }
                }
                None => {
                    for &callee in &graph.resolved[f][c] {
                        let cs = callee_slot(graph, callee, call, arg_slot);
                        if sums[callee].sink_params.contains_key(&cs) {
                            for &(_, slot, _) in &ment {
                                new.sink_params.entry(slot).or_insert(Hop::Call {
                                    callee,
                                    slot: cs,
                                    line: call.line,
                                });
                            }
                            break;
                        }
                    }
                }
            }
        }
    }
    new
}

/// Walk the hop chain from `(callee, slot)` down to the sink, appending
/// trace frames. Returns the sink description.
fn walk_hops(
    graph: &CallGraph,
    sums: &[Summary],
    mut cur: (usize, usize),
    trace: &mut Vec<TraceFrame>,
) -> (String, usize) {
    let mut boundaries = 1; // the initial caller → callee edge
    for _ in 0..16 {
        let (fun, slot) = cur;
        let node = &graph.fns[fun];
        let file = &graph.files[node.file];
        let pname = node.def.params.get(slot).cloned().unwrap_or_else(|| "_".to_string());
        match sums[fun].sink_params.get(&slot) {
            Some(Hop::Sink { line, what }) => {
                trace.push(TraceFrame {
                    path: file.rel.clone(),
                    line: *line,
                    note: format!("`{pname}` reaches {what}"),
                });
                return (what.clone(), boundaries);
            }
            Some(Hop::Call { callee, slot: nslot, line }) => {
                let nname = graph.fns[*callee]
                    .def
                    .params
                    .get(*nslot)
                    .cloned()
                    .unwrap_or_else(|| "_".to_string());
                trace.push(TraceFrame {
                    path: file.rel.clone(),
                    line: *line,
                    note: format!(
                        "`{pname}` passed to `{}` as `{nname}`",
                        graph.fns[*callee].label()
                    ),
                });
                boundaries += 1;
                cur = (*callee, *nslot);
            }
            None => break,
        }
    }
    ("a seed sink".to_string(), boundaries)
}

/// Run the taint analysis over the whole workspace graph.
pub fn analyze(graph: &CallGraph) -> Vec<TaintFinding> {
    let n = graph.fns.len();
    let syntax: Vec<FnSyntax> = (0..n).map(|f| extract_syntax(graph, f)).collect();
    let mut sums: Vec<Summary> = vec![Summary::default(); n];
    for _ in 0..20 {
        let mut changed = false;
        for f in 0..n {
            let new = compute_summary(graph, &sums, &syntax[f], f);
            if new != sums[f] {
                sums[f] = new;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out: Vec<TaintFinding> = Vec::new();
    let push = |f: TaintFinding, out: &mut Vec<TaintFinding>| {
        if !out.iter().any(|e| e.path == f.path && e.line == f.line && e.message == f.message) {
            out.push(f);
        }
    };
    for f in 0..n {
        let node = &graph.fns[f];
        let file = &graph.files[node.file];
        for (c, call) in node.def.calls.iter().enumerate() {
            let sink = sink_of(call);
            for (arg_slot, &range) in call.args.iter().enumerate() {
                let occ = occurrences_in(graph, &sums, &sums[f], f, range);
                if occ.is_empty() {
                    continue;
                }
                match &sink {
                    Some(SinkKind::Comparator(what)) => {
                        // lexical rules never look at comparators: report
                        // any tainted value, including bare shard idents
                        let o = &occ[0];
                        let mut trace = Vec::new();
                        if o.origin.line != call.line || o.origin.what != o.desc {
                            trace.push(TraceFrame {
                                path: file.rel.clone(),
                                line: o.origin.line,
                                note: format!(
                                    "`{}` tainted by {} `{}`",
                                    o.desc, o.origin.kind, o.origin.what
                                ),
                            });
                        }
                        trace.push(TraceFrame {
                            path: file.rel.clone(),
                            line: call.line,
                            note: format!("`{}` orders {what}", o.desc),
                        });
                        push(
                            TaintFinding {
                                path: file.rel.clone(),
                                line: call.line,
                                message: format!(
                                    "{} `{}` influences {what} — merge/wire order must not \
                                     depend on the execution environment",
                                    o.origin.kind, o.origin.what
                                ),
                                trace,
                            },
                            &mut out,
                        );
                    }
                    Some(SinkKind::Seed(what)) => {
                        // bare shard idents in seed args are shard-seed's
                        // finding; report the flows it cannot see
                        let Some(o) = occ.iter().find(|o| !o.direct_shard) else { continue };
                        let mut trace = Vec::new();
                        if o.origin.line != call.line || o.origin.what != o.desc {
                            trace.push(TraceFrame {
                                path: file.rel.clone(),
                                line: o.origin.line,
                                note: format!(
                                    "`{}` tainted by {} `{}`",
                                    o.desc, o.origin.kind, o.origin.what
                                ),
                            });
                        }
                        trace.push(TraceFrame {
                            path: file.rel.clone(),
                            line: call.line,
                            note: format!("`{}` reaches {what}", o.desc),
                        });
                        push(
                            TaintFinding {
                                path: file.rel.clone(),
                                line: call.line,
                                message: format!(
                                    "{} `{}` reaches {what} — seeds must key on \
                                     (day, wire position)",
                                    o.origin.kind, o.origin.what
                                ),
                                trace,
                            },
                            &mut out,
                        );
                    }
                    None => {
                        // interprocedural: tainted value into a callee
                        // param that reaches a sink downstream
                        for &callee in &graph.resolved[f][c] {
                            let cs = callee_slot(graph, callee, call, arg_slot);
                            if !sums[callee].sink_params.contains_key(&cs) {
                                continue;
                            }
                            let o = &occ[0];
                            let pname = graph.fns[callee]
                                .def
                                .params
                                .get(cs)
                                .cloned()
                                .unwrap_or_else(|| "_".to_string());
                            let mut trace = Vec::new();
                            if o.origin.line != call.line || o.origin.what != o.desc {
                                trace.push(TraceFrame {
                                    path: file.rel.clone(),
                                    line: o.origin.line,
                                    note: format!(
                                        "`{}` tainted by {} `{}`",
                                        o.desc, o.origin.kind, o.origin.what
                                    ),
                                });
                            }
                            trace.push(TraceFrame {
                                path: file.rel.clone(),
                                line: call.line,
                                note: format!(
                                    "`{}` passed to `{}` as `{pname}`",
                                    o.desc,
                                    graph.fns[callee].label()
                                ),
                            });
                            let (what, boundaries) =
                                walk_hops(graph, &sums, (callee, cs), &mut trace);
                            push(
                                TaintFinding {
                                    path: file.rel.clone(),
                                    line: call.line,
                                    message: format!(
                                        "{} `{}` flows into {what} {boundaries} call(s) away — \
                                         seeds must key on (day, wire position)",
                                        o.origin.kind, o.origin.what
                                    ),
                                    trace,
                                },
                                &mut out,
                            );
                            break;
                        }
                    }
                }
            }
        }
    }
    out
}
