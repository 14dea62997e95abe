//! Negative coverage for the audit engine: a mini-workspace under
//! `tests/fixtures/audit/` seeds exactly one deliberate violation per rule
//! family (plus one stale allow), and this test pins the auditor to finding
//! each of them — no more, no less.
//!
//! The fixture is never compiled (it is not a workspace member and the
//! real-tree walker skips `fixtures/` directories); the audit engine only
//! reads it.

use std::path::Path;

fn fixture_report() -> sebs_audit::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/audit");
    sebs_audit::audit_workspace(&root).expect("fixture tree is readable")
}

#[test]
fn every_rule_family_fires_exactly_once_on_the_fixture() {
    let report = fixture_report();
    for rule in sebs_audit::Rule::all() {
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == rule).collect();
        assert_eq!(
            hits.len(),
            1,
            "rule {} fired {} times on the fixture (want exactly 1):\n{}",
            rule.name(),
            hits.len(),
            report.to_text()
        );
    }
    assert_eq!(
        report.findings.len(),
        sebs_audit::Rule::all().len(),
        "unexpected extra findings:\n{}",
        report.to_text()
    );
}

#[test]
fn taint_finding_carries_the_cross_crate_chain() {
    let report = fixture_report();
    let taint = report
        .findings
        .iter()
        .find(|f| f.rule == sebs_audit::Rule::DeterminismTaint)
        .expect("fixture seeds one taint violation");
    // The sink lives in fixture-util, which is lexically clean (hash
    // iteration is only a line-rule in core crates) — only the cross-crate
    // reachability analysis can connect it to `run_fleet`.
    assert_eq!(taint.symbol, "fixture_util::tick");
    assert!(
        taint
            .detail
            .contains("fixture_sim::run_fleet -> fixture_util::tick"),
        "taint detail must print the two-hop chain, got: {}",
        taint.detail
    );
    assert!(
        taint.detail.contains("hash-iteration"),
        "taint detail names the sink kind, got: {}",
        taint.detail
    );
}

#[test]
fn hot_path_finding_names_the_entry_point() {
    let report = fixture_report();
    let hot = report
        .findings
        .iter()
        .find(|f| f.rule == sebs_audit::Rule::HotPathAllocation)
        .expect("fixture seeds one hot-path violation");
    assert_eq!(hot.symbol, "fixture_platform::invoke_one");
    assert!(
        hot.detail.contains("Vec::new"),
        "detail names the allocation, got: {}",
        hot.detail
    );
}

#[test]
fn the_deliberately_stale_allow_is_reported() {
    let report = fixture_report();
    assert_eq!(
        report.stale_allows.len(),
        1,
        "fixture seeds exactly one stale allow:\n{}",
        report.to_text()
    );
    let stale = &report.stale_allows[0];
    assert_eq!(stale.rule, "wall-clock");
    assert_eq!(stale.file, "crates/sim/src/lib.rs");
    // A stale allow alone must make the report dirty.
    assert!(!report.is_clean());
}

#[test]
fn fingerprints_are_stable_and_unique() {
    let a = fixture_report();
    let b = fixture_report();
    let fps: Vec<&str> = a.findings.iter().map(|f| f.fingerprint.as_str()).collect();
    let fps_b: Vec<&str> = b.findings.iter().map(|f| f.fingerprint.as_str()).collect();
    assert_eq!(fps, fps_b, "fingerprints must not vary run to run");
    let mut dedup = fps.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), fps.len(), "fingerprints must be unique");
    for fp in fps {
        assert_eq!(fp.len(), 16, "fnv1a64 hex is 16 chars: {fp}");
    }
}
