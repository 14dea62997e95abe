//! The hermeticity & determinism gate: the whole workspace must pass the
//! static audit with zero findings.
//!
//! This runs the auditor in-process (no subprocess, no network) so the gate
//! works in the same offline environment as the rest of the suite. When it
//! fails, the assertion message carries the full report — rule, file, line
//! and snippet for every violation.

use std::path::Path;

#[test]
fn workspace_has_zero_audit_findings() {
    let root = sebs_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report = sebs_audit::audit_workspace(&root).expect("workspace sources are readable");
    assert!(
        report.is_clean(),
        "hermeticity/determinism audit found violations:\n{}",
        report.to_text()
    );
    // `is_clean` already covers stale allows, but name them explicitly so a
    // dead suppression fails with a pointed message rather than a generic one.
    assert!(
        report.stale_allows.is_empty(),
        "stale audit:allow comments (each suppresses nothing — delete it):\n{}",
        report.to_text()
    );
    // The walker really visited the tree (a wrong root would vacuously pass).
    assert!(
        report.files_scanned > 100,
        "only {} files scanned — wrong workspace root?",
        report.files_scanned
    );
}

#[test]
fn audit_json_report_is_stable() {
    let root = sebs_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let a = sebs_audit::audit_workspace(&root).expect("first run");
    let b = sebs_audit::audit_workspace(&root).expect("second run");
    assert_eq!(a.to_json(), b.to_json(), "reports must be byte-identical");
}

#[test]
fn every_allow_names_a_known_rule_and_a_reason() {
    let root = sebs_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report = sebs_audit::audit_workspace(&root).expect("workspace sources are readable");
    let known: Vec<&str> = sebs_audit::Rule::all().iter().map(|r| r.name()).collect();
    for allow in &report.allows {
        assert!(
            known.contains(&allow.rule.as_str()),
            "{}:{}: allow names unknown rule '{}'",
            allow.file,
            allow.line,
            allow.rule
        );
        assert!(
            !allow.reason.is_empty(),
            "{}:{}: allow({}) has no reason",
            allow.file,
            allow.line,
            allow.rule
        );
    }
}

#[test]
fn every_audit_entry_point_resolves() {
    // A renamed or deleted entry point would match nothing and silently
    // shrink its rule's coverage to an empty call graph.
    let root = sebs_audit::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")));
    let graph = sebs_audit::workspace_graph(&root).expect("workspace sources are readable");
    let specs = sebs_audit::taint::TAINT_ENTRY_POINTS
        .iter()
        .chain(sebs_audit::taint::HOT_PATH_ENTRY_POINTS);
    for &spec in specs {
        assert!(
            !graph.find_entry_points(&[spec]).is_empty(),
            "audit entry point {spec:?} matches no function in the workspace"
        );
    }
}
