//! A small extracted IR shared by the interprocedural rules.
//!
//! The per-function syntactic passes (panic discipline, wildcard arms, …)
//! work directly on the token stream. The protocol / atomic / blocking
//! rules need more: which `Msg` variants a function constructs and where
//! they flow, which functions forward a `Msg` parameter into a fabric
//! send, which struct fields are atomics, and what the `OrderedMutex`
//! rank table declares. This module extracts those facts once per file
//! set; the rules then reason over the summaries plus a name-based call
//! graph (same resolution discipline as `lock_order`: merged by name,
//! cut at the shared blocklist).
//!
//! Pattern vs. expression position for `Enum::Variant` tokens is decided
//! structurally: match-arm patterns, `if let`/`while let`/plain-`let`
//! destructuring patterns, and the second argument of `matches!` are
//! pattern ranges; every occurrence outside one is a construction.

use crate::lexer::{Tok, TokKind};
use crate::parser::{functions, matches_in, matching_close, SourceFile};
use crate::rules::lock_order::CALL_BLOCKLIST;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Fabric/channel primitives a constructed message can be sent through.
pub const SEND_PRIMS: &[&str] = &["send", "try_send"];

/// Direct blocking primitives for the dispatcher rule.
pub const BLOCKING_PRIMS: &[&str] = &["sleep", "recv_timeout", "wait", "wait_for"];

/// One enum declaration.
#[derive(Debug)]
pub struct EnumInfo {
    /// File declaring it.
    pub file: PathBuf,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, u32)>,
}

/// A named call site inside one function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee identifier.
    pub name: String,
    /// Line of the callee token.
    pub line: u32,
    /// Identifier arguments at the top nesting level of the call.
    pub top_idents: Vec<String>,
}

/// One `Enum::Variant` occurrence in expression position.
#[derive(Debug)]
pub struct ConstructSite {
    /// Enum name.
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
    /// Source line.
    pub line: u32,
    /// Names of calls whose argument parentheses enclose this site.
    pub enclosing_calls: Vec<String>,
    /// `let NAME = <this construction>…` binding, when present.
    pub let_bound: Option<String>,
}

/// One `Enum::Variant` occurrence in pattern position.
#[derive(Debug)]
pub struct PatternSite {
    /// Enum name.
    pub enum_name: String,
    /// Variant name.
    pub variant: String,
    /// Source line.
    pub line: u32,
    /// A narrow pattern names at most [`NARROW_ARM_MAX`] variants of the
    /// enum (match arm) or is inherently specific (`if let`, `matches!`).
    /// Wide or-arms (journaling/forwarding matches) are not dispatch
    /// evidence.
    pub narrow: bool,
}

/// A match arm naming more than this many variants of one enum is a
/// forwarding/journaling arm, not a dispatch arm.
pub const NARROW_ARM_MAX: usize = 3;

/// Interprocedural summary of one function definition.
#[derive(Debug, Default)]
pub struct FnInfo {
    /// Defining file.
    pub file: PathBuf,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Callees by name (blocklist-filtered, like the lock analysis).
    pub callees: BTreeSet<String>,
    /// All named call sites (unfiltered names, for argument threading).
    pub calls: Vec<CallSite>,
    /// Audited-enum variant constructions.
    pub constructs: Vec<ConstructSite>,
    /// Audited-enum variant pattern occurrences.
    pub patterns: Vec<PatternSite>,
    /// Direct blocking-primitive call sites (spawned closures excluded).
    pub blocking: Vec<(String, u32)>,
    /// Body contains a raw `send`/`try_send` call.
    pub raw_send: bool,
    /// Signature takes a `Msg`-typed parameter (forwarder candidate).
    pub msg_param: bool,
    /// Body mentions a retry/timeout/backoff mechanism.
    pub retry_marker: bool,
}

/// Extracted IR over a file set.
#[derive(Debug, Default)]
pub struct Ir {
    /// Function summaries. Same-name definitions are kept separately and
    /// merged by the rules where merging over-approximates safely.
    pub fns: Vec<(String, FnInfo)>,
    /// Audited enum declarations by name.
    pub enums: BTreeMap<String, EnumInfo>,
    /// Declared request→ack pairs (`gt-lint: pair(Req -> Ack)`).
    pub pairs: Vec<(String, String)>,
}

impl Ir {
    /// Inverse call graph: callee name → caller names.
    pub fn callers(&self) -> BTreeMap<&str, BTreeSet<&str>> {
        let mut out: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, fi) in &self.fns {
            for c in &fi.callees {
                out.entry(c.as_str()).or_default().insert(name.as_str());
            }
        }
        out
    }

    /// Forward call graph: caller name → callee names.
    pub fn callees(&self) -> BTreeMap<&str, BTreeSet<&str>> {
        let mut out: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, fi) in &self.fns {
            let e = out.entry(name.as_str()).or_default();
            e.extend(fi.callees.iter().map(|s| s.as_str()));
        }
        out
    }
}

/// Reachability closure of `roots` over `graph` (roots included).
pub fn closure<'a>(
    roots: impl IntoIterator<Item = &'a str>,
    graph: &BTreeMap<&'a str, BTreeSet<&'a str>>,
) -> BTreeSet<&'a str> {
    let mut seen: BTreeSet<&str> = roots.into_iter().collect();
    let mut work: Vec<&str> = seen.iter().copied().collect();
    while let Some(n) = work.pop() {
        for &next in graph.get(n).into_iter().flatten() {
            if seen.insert(next) {
                work.push(next);
            }
        }
    }
    seen
}

/// Extract the IR for `files`, auditing the enums named in `audited`.
pub fn extract(files: &[&SourceFile], audited: &[&str]) -> Ir {
    let mut ir = Ir::default();
    // Pass 1: enum declarations and pair directives.
    for f in files {
        for (name, info) in enum_decls(f) {
            if audited.contains(&name.as_str()) {
                ir.enums.insert(name, info);
            }
        }
        for p in &f.pairs {
            ir.pairs.push((p.request.clone(), p.ack.clone()));
        }
    }
    // Pass 2: function summaries (need the variant sets from pass 1).
    for f in files {
        for func in functions(&f.toks) {
            let fi = analyze_fn(f, func.params, func.body, func.line, &ir.enums);
            ir.fns.push((func.name, fi));
        }
    }
    ir
}

/// All enum declarations in one file.
pub fn enum_decls(f: &SourceFile) -> Vec<(String, EnumInfo)> {
    let toks = &f.toks;
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if !toks[i].is_ident("enum") || toks[i + 1].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let line = toks[i].line;
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct('{') {
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            i += 1;
            continue;
        }
        let close = matching_close(toks, j, '{', '}');
        let mut variants = Vec::new();
        let mut k = j + 1;
        while k < close {
            // Skip attributes on the variant.
            while k + 1 < close && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                k = matching_close(toks, k + 1, '[', ']') + 1;
            }
            if k >= close {
                break;
            }
            if toks[k].kind == TokKind::Ident {
                variants.push((toks[k].text.clone(), toks[k].line));
            }
            // Advance past this variant: its payload braces/parens, any
            // discriminant, up to the separating comma.
            let mut depth = 0i32;
            while k < close {
                let t = &toks[k];
                if t.is_punct('{') || t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') {
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    k += 1;
                    break;
                }
                k += 1;
            }
        }
        out.push((
            name,
            EnumInfo {
                file: f.path.clone(),
                line,
                variants,
            },
        ));
        i = close;
    }
    out
}

/// Retry/timeout vocabulary: an identifier mentioning any of these marks
/// the function as participating in a retry/timeout mechanism.
const RETRY_STEMS: &[&str] = &["retry", "backoff", "deadline", "renudge"];
const RETRY_IDENTS: &[&str] = &["recv_timeout", "elapsed", "retransmit"];

fn analyze_fn(
    f: &SourceFile,
    params: (usize, usize),
    body: (usize, usize),
    line: u32,
    enums: &BTreeMap<String, EnumInfo>,
) -> FnInfo {
    let toks = &f.toks;
    let mut fi = FnInfo {
        file: f.path.clone(),
        line,
        ..FnInfo::default()
    };
    fi.msg_param = toks[params.0..params.1.min(toks.len())]
        .iter()
        .any(|t| t.is_ident("Msg"));

    let (s, e) = (body.0, body.1.min(toks.len()));
    let pattern_ranges = pattern_ranges(toks, s, e);
    let in_pattern = |i: usize| pattern_ranges.iter().any(|&(a, b, _)| a <= i && i < b);
    let narrow_at = |i: usize| {
        pattern_ranges
            .iter()
            .find(|&&(a, b, _)| a <= i && i < b)
            .map(|&(_, _, narrow)| narrow)
            .unwrap_or(false)
    };

    // Call sites with argument ranges (for enclosing-call resolution).
    let mut calls: Vec<(String, usize, usize, u32)> = Vec::new();
    // Spawned-closure ranges: code inside runs on another thread, so it
    // is not part of this function for blocking-reachability purposes.
    let mut spawn_ranges: Vec<(usize, usize)> = Vec::new();

    let mut i = s;
    while i < e {
        let t = &toks[i];
        if t.kind == TokKind::Ident && i + 1 < e && toks[i + 1].is_punct('(') {
            let close = matching_close(toks, i + 1, '(', ')');
            if t.is_ident("spawn") {
                spawn_ranges.push((i + 1, close));
            } else if !matches!(
                t.text.as_str(),
                "if" | "while" | "for" | "match" | "matches" | "return" | "fn"
            ) {
                calls.push((t.text.clone(), i + 1, close, t.line));
            }
        }
        i += 1;
    }
    let in_spawn = |i: usize| spawn_ranges.iter().any(|&(a, b)| a <= i && i < b);

    for (name, open, close, cline) in &calls {
        let mut top_idents = Vec::new();
        let mut depth = 0i32;
        for t in toks.iter().take((*close).min(e)).skip(*open + 1) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.kind == TokKind::Ident {
                top_idents.push(t.text.clone());
            }
        }
        fi.calls.push(CallSite {
            name: name.clone(),
            line: *cline,
            top_idents,
        });
        if SEND_PRIMS.contains(&name.as_str()) {
            fi.raw_send = true;
        }
        if !CALL_BLOCKLIST.contains(&name.as_str()) {
            fi.callees.insert(name.clone());
        }
    }

    // Token sweep: variant occurrences, blocking sites, retry markers.
    let mut i = s;
    while i < e {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            let lower = t.text.to_ascii_lowercase();
            if RETRY_IDENTS.contains(&t.text.as_str())
                || RETRY_STEMS.iter().any(|st| lower.contains(st))
            {
                fi.retry_marker = true;
            }
            if BLOCKING_PRIMS.contains(&t.text.as_str())
                && i + 1 < e
                && toks[i + 1].is_punct('(')
                && !in_spawn(i)
            {
                fi.blocking.push((t.text.clone(), t.line));
            }
            // `Enum :: Variant` against a declared variant set.
            if enums.contains_key(&t.text)
                && i + 3 < e
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_punct(':')
                && toks[i + 3].kind == TokKind::Ident
            {
                let variant = &toks[i + 3].text;
                let known = enums[&t.text].variants.iter().any(|(v, _)| v == variant);
                if known {
                    if in_pattern(i) {
                        fi.patterns.push(PatternSite {
                            enum_name: t.text.clone(),
                            variant: variant.clone(),
                            line: toks[i + 3].line,
                            narrow: narrow_at(i),
                        });
                    } else {
                        let enclosing_calls = calls
                            .iter()
                            .filter(|(_, open, close, _)| *open < i && i < *close)
                            .map(|(n, _, _, _)| n.clone())
                            .collect();
                        fi.constructs.push(ConstructSite {
                            enum_name: t.text.clone(),
                            variant: variant.clone(),
                            line: toks[i + 3].line,
                            enclosing_calls,
                            let_bound: let_binding_back(toks, i, s),
                        });
                    }
                }
                i += 4;
                continue;
            }
        }
        i += 1;
    }
    fi
}

/// Pattern ranges `(start, end, narrow)` within `[s, e)`: match-arm
/// patterns, `if let`/`while let`/plain-`let` patterns, and the pattern
/// argument of `matches!`.
fn pattern_ranges(toks: &[Tok], s: usize, e: usize) -> Vec<(usize, usize, bool)> {
    let mut out = Vec::new();
    // Match arms: narrow iff the arm names few distinct variants.
    for m in matches_in(toks, s, e) {
        for arm in &m.arms {
            let mut named: BTreeSet<(String, String)> = BTreeSet::new();
            let mut i = arm.pat.0;
            while i + 3 < arm.pat.1 {
                if toks[i].kind == TokKind::Ident
                    && toks[i + 1].is_punct(':')
                    && toks[i + 2].is_punct(':')
                    && toks[i + 3].kind == TokKind::Ident
                {
                    named.insert((toks[i].text.clone(), toks[i + 3].text.clone()));
                    i += 4;
                    continue;
                }
                i += 1;
            }
            out.push((arm.pat.0, arm.pat.1, named.len() <= NARROW_ARM_MAX));
        }
    }
    // `if let` / `while let` / plain destructuring `let`: pattern runs
    // from after `let` to the first `=` at bracket depth 0.
    let mut i = s;
    while i < e {
        if toks[i].is_ident("let") {
            let start = i + 1;
            let (mut p, mut b) = (0i32, 0i32);
            let mut j = start;
            let mut eq = None;
            while j < e {
                let t = &toks[j];
                if t.is_punct('(') {
                    p += 1;
                } else if t.is_punct(')') {
                    p -= 1;
                } else if t.is_punct('[') {
                    b += 1;
                } else if t.is_punct(']') {
                    b -= 1;
                } else if t.is_punct('=') && p == 0 && b == 0 {
                    eq = Some(j);
                    break;
                } else if (t.is_punct(';') || t.is_punct('{')) && p == 0 && b == 0 {
                    break;
                }
                j += 1;
            }
            if let Some(eq) = eq {
                out.push((start, eq, true));
                i = eq;
                continue;
            }
        }
        // `matches!(scrutinee, PATTERN)`: pattern is after the first
        // top-level comma.
        if toks[i].is_ident("matches")
            && i + 2 < e
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('(')
        {
            let close = matching_close(toks, i + 2, '(', ')');
            let mut depth = 0i32;
            for (j, t) in toks.iter().enumerate().take(close.min(e)).skip(i + 3) {
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                } else if t.is_punct(',') && depth == 0 {
                    out.push((j + 1, close, true));
                    break;
                }
            }
            i = close;
            continue;
        }
        i += 1;
    }
    out
}

/// If the token at `i` begins the initializer of a `let` binding
/// (`let [mut] NAME = <expr-at-i>…`), return `NAME`. Walks back past
/// nothing — the construction must directly follow the `=`.
fn let_binding_back(toks: &[Tok], i: usize, body_start: usize) -> Option<String> {
    if i < body_start + 2 || !toks[i - 1].is_punct('=') {
        return None;
    }
    let name_idx = i - 2;
    if toks[name_idx].kind != TokKind::Ident {
        return None;
    }
    let mut k = name_idx;
    if k > body_start && toks[k - 1].is_ident("mut") {
        k -= 1;
    }
    if k > body_start && toks[k - 1].is_ident("let") {
        return Some(toks[name_idx].text.clone());
    }
    None
}

/// One `OrderedMutex::new(rank, "name", …)` construction site. The lexer
/// drops string contents, so the lock name is taken from the struct-field
/// initializer context (`name: OrderedMutex::new(…)`), which matches the
/// string in this workspace by construction.
#[derive(Debug)]
pub struct RankedLock {
    /// Field (= lock) name.
    pub name: String,
    /// Declared rank.
    pub rank: u64,
    /// File of the construction.
    pub file: PathBuf,
    /// Line of the construction.
    pub line: u32,
}

/// Harvest the `OrderedMutex` rank table from construction sites.
pub fn ranked_locks(files: &[&SourceFile]) -> Vec<RankedLock> {
    let mut out = Vec::new();
    for f in files {
        let toks = &f.toks;
        for i in 0..toks.len().saturating_sub(6) {
            if toks[i].kind == TokKind::Ident
                && toks[i + 1].is_punct(':')
                && toks[i + 2].is_ident("OrderedMutex")
                && toks[i + 3].is_punct(':')
                && toks[i + 4].is_punct(':')
                && toks[i + 5].is_ident("new")
                && toks[i + 6].is_punct('(')
                && i + 7 < toks.len()
                && toks[i + 7].kind == TokKind::Num
            {
                if let Ok(rank) = toks[i + 7].text.parse::<u64>() {
                    out.push(RankedLock {
                        name: toks[i].text.clone(),
                        rank,
                        file: f.path.clone(),
                        line: toks[i].line,
                    });
                }
            }
        }
    }
    out
}

/// One atomic struct field.
#[derive(Debug)]
pub struct AtomicField {
    /// Declaring struct.
    pub strukt: String,
    /// Field name.
    pub field: String,
    /// Declaring file.
    pub file: PathBuf,
    /// Declaration line.
    pub line: u32,
}

/// Harvest `Atomic*`-typed struct fields from declarations in `files`.
pub fn atomic_fields(files: &[&SourceFile]) -> Vec<AtomicField> {
    let mut out = Vec::new();
    for f in files {
        let toks = &f.toks;
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if !toks[i].is_ident("struct") || toks[i + 1].kind != TokKind::Ident {
                i += 1;
                continue;
            }
            let strukt = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') || toks[j].is_punct('(') {
                    break; // unit or tuple struct
                }
                j += 1;
            }
            if j >= toks.len() || !toks[j].is_punct('{') {
                i += 2;
                continue;
            }
            let close = matching_close(toks, j, '{', '}');
            let mut k = j + 1;
            while k < close {
                // Field: IDENT `:` <type tokens> up to a depth-0 comma.
                while k + 1 < close && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                    k = matching_close(toks, k + 1, '[', ']') + 1;
                }
                if k + 1 >= close {
                    break;
                }
                // `$name: …` in a macro body is a metavariable, not a field.
                let field_ok = toks[k].kind == TokKind::Ident
                    && !toks[k - 1].is_punct('$')
                    && toks[k + 1].is_punct(':')
                    && !(k + 2 < close && toks[k + 2].is_punct(':'));
                if !field_ok {
                    k += 1;
                    continue;
                }
                let (field, fline) = (toks[k].text.clone(), toks[k].line);
                let mut depth = 0i32;
                let mut is_atomic = false;
                let mut m = k + 2;
                while m < close {
                    let t = &toks[m];
                    if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
                        depth += 1;
                    } else if t.is_punct(')')
                        || t.is_punct(']')
                        || t.is_punct('}')
                        || t.is_punct('>')
                    {
                        depth -= 1;
                    } else if t.is_punct(',') && depth <= 0 {
                        break;
                    }
                    if t.kind == TokKind::Ident && t.text.starts_with("Atomic") {
                        is_atomic = true;
                    }
                    m += 1;
                }
                if is_atomic {
                    out.push(AtomicField {
                        strukt: strukt.clone(),
                        field,
                        file: f.path.clone(),
                        line: fline,
                    });
                }
                k = m + 1;
            }
            i = close;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source(Path::new("t.rs"), src)
    }

    #[test]
    fn constructions_and_patterns_are_separated() {
        let f = file(
            "enum Msg { A { x: u64 }, B, C }\n\
             fn send_side(ep: &Ep) { ep.send(0, Msg::A { x: 1 }); }\n\
             fn recv_side(m: Msg) { match m { Msg::A { x } => go(x), _ => {} } }\n\
             fn probe(m: &Msg) -> bool { matches!(m, Msg::B) }",
        );
        let ir = extract(&[&f], &["Msg"]);
        let all_constructs: Vec<_> = ir
            .fns
            .iter()
            .flat_map(|(_, fi)| fi.constructs.iter())
            .map(|c| c.variant.as_str())
            .collect();
        assert_eq!(all_constructs, vec!["A"]);
        let pats: Vec<_> = ir
            .fns
            .iter()
            .flat_map(|(_, fi)| fi.patterns.iter())
            .map(|p| (p.variant.as_str(), p.narrow))
            .collect();
        assert!(pats.contains(&("A", true)));
        assert!(pats.contains(&("B", true)));
    }

    #[test]
    fn wide_or_arms_are_not_narrow() {
        let f = file(
            "enum Msg { A, B, C, D, E }\n\
             fn forward(m: &Msg) { match m {\n\
               Msg::A | Msg::B | Msg::C | Msg::D => relay(m),\n\
               Msg::E => handle_e(),\n\
             } }",
        );
        let ir = extract(&[&f], &["Msg"]);
        let pats: Vec<_> = ir
            .fns
            .iter()
            .flat_map(|(_, fi)| fi.patterns.iter())
            .map(|p| (p.variant.as_str(), p.narrow))
            .collect();
        assert!(pats.contains(&("A", false)));
        assert!(pats.contains(&("E", true)));
    }

    #[test]
    fn enclosing_calls_and_let_bindings_thread_sends() {
        let f = file(
            "enum Msg { A, B }\n\
             fn f(ep: &Ep) { let m = Msg::A; ep.send(0, m); send_travel(ep, Msg::B); }",
        );
        let ir = extract(&[&f], &["Msg"]);
        let fi = &ir.fns.iter().find(|(n, _)| n == "f").unwrap().1;
        let a = fi.constructs.iter().find(|c| c.variant == "A").unwrap();
        assert_eq!(a.let_bound.as_deref(), Some("m"));
        let b = fi.constructs.iter().find(|c| c.variant == "B").unwrap();
        assert!(b.enclosing_calls.contains(&"send_travel".to_string()));
        assert!(fi.raw_send);
    }

    #[test]
    fn rank_table_and_atomic_fields_harvest() {
        let f = file(
            "struct Shared { q: OrderedMutex<Vec<u64>>, stop: AtomicBool }\n\
             fn mk() -> Shared { Shared { q: OrderedMutex::new(10, \"q\", Vec::new()),\n\
               stop: AtomicBool::new(false) } }",
        );
        let locks = ranked_locks(&[&f]);
        assert_eq!(locks.len(), 1);
        assert_eq!(locks[0].name, "q");
        assert_eq!(locks[0].rank, 10);
        let fields = atomic_fields(&[&f]);
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].strukt, "Shared");
        assert_eq!(fields[0].field, "stop");
    }

    #[test]
    fn blocking_sites_skip_spawned_closures() {
        let f = file(
            "fn h() { spawn(move || { sleep(D); }); x.recv_timeout(D); }\n\
             fn ok() { work(); }",
        );
        let ir = extract(&[&f], &[]);
        let h = &ir.fns.iter().find(|(n, _)| n == "h").unwrap().1;
        let names: Vec<_> = h.blocking.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["recv_timeout"]);
    }
}
