//! Flow-aware rule families over the workspace symbol graph.
//!
//! The lexical rules in [`crate::rules`] see one line at a time; these four
//! families reason about *reachability*:
//!
//! * **determinism-taint** — any function transitively reachable from a
//!   deterministic-core entry point (the `run_fleet` and `run_cluster`
//!   replays, the single-box and cluster attempt chains, `invoke_one`,
//!   the exporters) that names a wall-clock, ambient-randomness or
//!   hash-iteration site — in *any* crate — is flagged, with the full call
//!   chain in the finding. This catches the laundering the line scanner
//!   cannot: a `SystemTime::now()` hidden behind a helper in a non-core
//!   crate that a replay calls.
//! * **rng-stream-discipline** — every literal `SimRng::child` salt must be
//!   distinct within a function (duplicate salts collapse two supposedly
//!   independent streams into one), and `&mut SimRng` must not cross an
//!   experiment-cell boundary (code outside `crates/sim` takes child
//!   streams, never the parent generator).
//! * **float-total-order** — `partial_cmp` on floats is order-unstable the
//!   moment a NaN appears; deterministic comparisons use `f64::total_cmp`.
//! * **hot-path-allocation** — `format!` / `.to_string()` / `Vec::new` /
//!   `Box::new` inside the `invoke_one` call chain, the per-invocation
//!   path every replay runs; keeps per-invocation allocations visible.
//!
//! The taint domain deliberately excludes the sanctioned escape hatches:
//! the cloud clock shim, the seeded fault injector, and the bench harness
//! (host wall-time measurement is its whole job, and every timer site there
//! already carries a lexical `instant-usage` allow).

use crate::graph::SymbolGraph;
use crate::rules::{Finding, Rule};
use crate::token::{Tok, TokKind};
use std::collections::BTreeMap;

/// Entry points of the deterministic core: `(impl type or "*"/"", fn name)`.
/// `"*"` matches any context, `""` only free functions.
pub const TAINT_ENTRY_POINTS: &[(&str, &str)] = &[
    ("", "run_fleet"),
    ("", "run_cluster"),
    ("ClusterPlatform", "invoke_resilient"),
    ("FaasPlatform", "invoke_with_policy"),
    ("*", "invoke_one"),
    ("*", "chrome_trace_json"),
    ("*", "breakdown_table"),
    ("*", "csv_timeseries"),
    ("*", "prometheus_text"),
    ("ResultStore", "to_json"),
];

/// Entry points whose call chains must stay allocation-lean.
pub const HOT_PATH_ENTRY_POINTS: &[(&str, &str)] = &[("*", "invoke_one")];

/// File path prefixes the hot-path rule is confined to.
pub const HOT_PATH_CRATES: &[&str] = &["crates/sim/", "crates/platform/"];

/// Files exempt from taint sink detection: the sanctioned non-determinism.
const SINK_EXEMPT_PREFIXES: &[&str] = &[
    "crates/cloud/src/clock.rs",
    "crates/resilience/src/fault.rs",
    "crates/bench/",
    "crates/audit/",
];

/// Runs all four flow families. `sources` maps workspace-relative paths to
/// their source lines (for snippets).
pub fn run_flow_rules(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    determinism_taint(graph, sources, &mut findings);
    rng_stream_discipline(graph, sources, &mut findings);
    float_total_order(graph, sources, &mut findings);
    hot_path_allocation(graph, sources, &mut findings);
    findings
}

fn snippet(sources: &BTreeMap<String, Vec<String>>, file: &str, line: usize) -> String {
    sources
        .get(file)
        .and_then(|lines| lines.get(line.saturating_sub(1)))
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

/// What kind of determinism sink an identifier is, if any.
fn sink_kind(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "SystemTime" | "Instant" => Some("wall-clock"),
        "thread_rng" | "from_entropy" | "getrandom" | "RandomState" => Some("ambient-randomness"),
        "HashMap" | "HashSet" => Some("hash-iteration"),
        // `rand::…` paths: the crate name followed by `::`.
        "rand" if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::PathSep) => {
            Some("ambient-randomness")
        }
        _ => None,
    }
}

fn determinism_taint(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let roots = graph.find_entry_points(TAINT_ENTRY_POINTS);
    let pred = graph.reach(&roots, &[]);
    for (id, s) in graph.symbols.iter().enumerate() {
        if pred[id].is_none() || s.is_test {
            continue;
        }
        if SINK_EXEMPT_PREFIXES.iter().any(|p| s.file.starts_with(p)) {
            continue;
        }
        let toks = &graph.files[s.file_idx].parsed.toks;
        let mut last: Option<(usize, String)> = None;
        for range in [s.params, s.body] {
            for i in range.0..range.1 {
                let Some(kind) = sink_kind(toks, i) else {
                    continue;
                };
                let line = toks[i].line;
                let key = (line, toks[i].text.clone());
                if last.as_ref() == Some(&key) {
                    continue; // one finding per (line, token)
                }
                last = Some(key);
                findings.push(Finding {
                    rule: Rule::DeterminismTaint,
                    file: s.file.clone(),
                    line,
                    snippet: snippet(sources, &s.file, line),
                    symbol: s.path(),
                    detail: format!(
                        "{} sink `{}` reachable from deterministic core: {}",
                        kind,
                        toks[i].text,
                        graph.chain(&pred, id)
                    ),
                    fingerprint: String::new(),
                });
            }
        }
    }
}

fn rng_stream_discipline(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    for s in &graph.symbols {
        if s.is_test {
            continue;
        }
        let toks = &graph.files[s.file_idx].parsed.toks;

        // Duplicate literal child salts within one function scope.
        let mut seen: BTreeMap<String, usize> = BTreeMap::new();
        for i in s.body.0..s.body.1.saturating_sub(2) {
            if toks[i].is_ident("child")
                && toks[i + 1].is_punct("(")
                && toks[i + 2].kind == TokKind::Literal
                && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
            {
                let salt = toks[i + 2].text.clone();
                let line = toks[i + 2].line;
                if let Some(first) = seen.get(&salt) {
                    findings.push(Finding {
                        rule: Rule::RngStreamDiscipline,
                        file: s.file.clone(),
                        line,
                        snippet: snippet(sources, &s.file, line),
                        symbol: s.path(),
                        detail: format!(
                            "duplicate SimRng::child salt {salt} (first used at line {first}); \
                             reused salts collapse independent streams"
                        ),
                        fingerprint: String::new(),
                    });
                } else {
                    seen.insert(salt, line);
                }
            }
        }

        // `&mut SimRng` parameters outside the owning crate.
        if !s.file.starts_with("crates/sim/") {
            for i in s.params.0..s.params.1.saturating_sub(2) {
                if toks[i].is_punct("&")
                    && toks[i + 1].is_ident("mut")
                    && toks[i + 2].is_ident("SimRng")
                {
                    let line = toks[i + 2].line;
                    findings.push(Finding {
                        rule: Rule::RngStreamDiscipline,
                        file: s.file.clone(),
                        line,
                        snippet: snippet(sources, &s.file, line),
                        symbol: s.path(),
                        detail: "`&mut SimRng` crosses an experiment-cell boundary; \
                                 take a child stream (SimRng::child) instead"
                            .to_string(),
                        fingerprint: String::new(),
                    });
                }
            }
        }
    }
}

fn float_total_order(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    for s in &graph.symbols {
        if s.is_test {
            continue;
        }
        if s.file.starts_with("crates/audit/") {
            continue; // the auditor's own detectors name the tokens
        }
        let toks = &graph.files[s.file_idx].parsed.toks;
        for i in s.body.0..s.body.1 {
            if toks[i].is_ident("partial_cmp") {
                let line = toks[i].line;
                findings.push(Finding {
                    rule: Rule::FloatTotalOrder,
                    file: s.file.clone(),
                    line,
                    snippet: snippet(sources, &s.file, line),
                    symbol: s.path(),
                    detail: "partial_cmp is order-unstable under NaN; \
                             use f64::total_cmp for deterministic ordering"
                        .to_string(),
                    fingerprint: String::new(),
                });
            }
        }
    }
}

fn hot_path_allocation(
    graph: &SymbolGraph,
    sources: &BTreeMap<String, Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let roots = graph.find_entry_points(HOT_PATH_ENTRY_POINTS);
    let pred = graph.reach(&roots, HOT_PATH_CRATES);
    for (id, s) in graph.symbols.iter().enumerate() {
        if pred[id].is_none() || s.is_test {
            continue;
        }
        let toks = &graph.files[s.file_idx].parsed.toks;
        for i in s.body.0..s.body.1 {
            let what = alloc_site(toks, i);
            let Some(what) = what else { continue };
            let line = toks[i].line;
            findings.push(Finding {
                rule: Rule::HotPathAllocation,
                file: s.file.clone(),
                line,
                snippet: snippet(sources, &s.file, line),
                symbol: s.path(),
                detail: format!(
                    "{} on the invoke hot path: {}",
                    what,
                    graph.chain(&pred, id)
                ),
                fingerprint: String::new(),
            });
        }
    }
}

/// Recognises an allocation site starting at token `i`.
fn alloc_site(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.is_ident("format") && toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
        return Some("format! allocation");
    }
    if t.is_punct(".")
        && toks.get(i + 1).is_some_and(|n| n.is_ident("to_string"))
        && toks.get(i + 2).is_some_and(|n| n.is_punct("("))
    {
        return Some(".to_string() allocation");
    }
    if (t.is_ident("Vec") || t.is_ident("Box"))
        && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::PathSep)
        && toks.get(i + 2).is_some_and(|n| n.is_ident("new"))
        && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
    {
        return Some(if t.is_ident("Vec") {
            "Vec::new allocation"
        } else {
            "Box::new allocation"
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{file_module_path, SourceFile, SymbolGraph};
    use crate::parse::parse_file;
    use crate::token::tokenize;

    fn graph(files: &[(&str, &str, &str)]) -> (SymbolGraph, BTreeMap<String, Vec<String>>) {
        let mut sources = BTreeMap::new();
        let mut sf = Vec::new();
        for (path, krate, src) in files {
            sources.insert(
                path.to_string(),
                src.lines().map(|l| l.to_string()).collect(),
            );
            let tail = path.split("/src/").nth(1).unwrap_or("lib.rs");
            sf.push(SourceFile {
                path: path.to_string(),
                crate_ident: krate.to_string(),
                file_module: file_module_path(tail),
                is_external: false,
                parsed: parse_file(tokenize(src)),
            });
        }
        (SymbolGraph::build(sf), sources)
    }

    #[test]
    fn taint_reports_cross_crate_chain() {
        let (g, src) = graph(&[
            (
                "crates/core/src/lib.rs",
                "sebs",
                "use util::tick;\npub fn run_fleet() { tick(); }",
            ),
            (
                "crates/util/src/lib.rs",
                "util",
                "pub fn tick() -> u64 { SystemTime::now() }",
            ),
        ]);
        let f = run_flow_rules(&g, &src);
        let taint: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::DeterminismTaint)
            .collect();
        assert_eq!(taint.len(), 1);
        assert!(taint[0].detail.contains("sebs::run_fleet -> util::tick"));
        assert_eq!(taint[0].symbol, "util::tick");
    }

    #[test]
    fn unreachable_sinks_are_not_tainted() {
        let (g, src) = graph(&[(
            "crates/core/src/lib.rs",
            "sebs",
            "pub fn run_fleet() {}\nfn orphan() -> u64 { SystemTime::now() }",
        )]);
        let f = run_flow_rules(&g, &src);
        assert!(f.iter().all(|f| f.rule != Rule::DeterminismTaint));
    }

    #[test]
    fn duplicate_child_salts_flagged_once() {
        let (g, src) = graph(&[(
            "crates/core/src/lib.rs",
            "sebs",
            "pub fn cell(rng: &SimRng) { let a = rng.child(7); let b = rng.child(7); let c = rng.child(8); }",
        )]);
        let f = run_flow_rules(&g, &src);
        let rngf: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::RngStreamDiscipline)
            .collect();
        assert_eq!(rngf.len(), 1);
        assert!(rngf[0].detail.contains("salt 7"));
    }

    #[test]
    fn mut_simrng_param_outside_sim_crate_flagged() {
        let (g, src) = graph(&[(
            "crates/platform/src/lib.rs",
            "plat",
            "pub fn shared(rng: &mut SimRng) {}",
        )]);
        let f = run_flow_rules(&g, &src);
        assert!(f
            .iter()
            .any(|f| f.rule == Rule::RngStreamDiscipline && f.detail.contains("boundary")));
        // The owning crate may hold the parent stream.
        let (g2, src2) = graph(&[(
            "crates/sim/src/lib.rs",
            "sim",
            "pub fn own(rng: &mut SimRng) {}",
        )]);
        let f2 = run_flow_rules(&g2, &src2);
        assert!(f2.iter().all(|f| f.rule != Rule::RngStreamDiscipline));
    }

    #[test]
    fn partial_cmp_flagged_outside_tests() {
        let (g, src) = graph(&[(
            "crates/metrics/src/lib.rs",
            "metrics",
            "pub fn top(xs: &mut Vec<f64>) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n#[cfg(test)]\nmod tests { fn t(a: f64, b: f64) { let _ = a.partial_cmp(&b); } }",
        )]);
        let f = run_flow_rules(&g, &src);
        let ff: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::FloatTotalOrder)
            .collect();
        assert_eq!(ff.len(), 1);
        assert_eq!(ff[0].line, 1);
    }

    #[test]
    fn hot_path_allocation_confined_to_engine_chains() {
        let (g, src) = graph(&[(
            "crates/platform/src/platform.rs",
            "platform",
            "pub struct FaasPlatform;\nimpl FaasPlatform { fn invoke_one(&mut self) { step(); } }\nfn step() { let v: Vec<u32> = Vec::new(); }\nfn cold() { let w: Vec<u32> = Vec::new(); }",
        )]);
        let f = run_flow_rules(&g, &src);
        let hot: Vec<&Finding> = f
            .iter()
            .filter(|f| f.rule == Rule::HotPathAllocation)
            .collect();
        assert_eq!(hot.len(), 1, "{hot:?}");
        assert!(hot[0].detail.contains("FaasPlatform::invoke_one"));
        assert!(hot[0].symbol.ends_with("step"));
    }
}
