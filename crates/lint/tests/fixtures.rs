//! Fixture-based gate tests: one seeded-violation fixture per rule family
//! that must FAIL, one clean fixture that must PASS, and an allowlist
//! round-trip through a real `allow.toml`. The fixtures live under
//! `tests/fixtures/` (excluded from both compilation and the workspace
//! scan), and are linted here under synthetic production `src/` paths so
//! every rule is in force.

use std::collections::BTreeMap;
use std::path::PathBuf;
use timely_lint::{config, lint_source, lint_sources, lint_workspace, LintReport};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lints a fixture as if it sat on a production source path.
fn lint_fixture(name: &str, config: &config::LintConfig) -> LintReport {
    let synthetic_path = format!("crates/demo/src/{name}");
    lint_source(&synthetic_path, &fixture(name), config)
}

fn count_by_rule(report: &LintReport) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for (_, finding) in &report.violations {
        *counts.entry(finding.rule).or_insert(0) += 1;
    }
    counts
}

#[test]
fn panic_fixture_fails_with_all_four_forms() {
    let report = lint_fixture("panic_violation.rs", &config::LintConfig::default());
    assert!(!report.is_clean());
    let counts = count_by_rule(&report);
    // unwrap, expect, panic!, unreachable! — and nothing from the test mod.
    assert_eq!(
        counts.get("panic"),
        Some(&4),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
}

#[test]
fn determinism_fixture_fails_on_all_three_rules() {
    let report = lint_fixture("determinism_violation.rs", &config::LintConfig::default());
    let counts = count_by_rule(&report);
    // use + declaration + construction sites each fire.
    assert_eq!(
        counts.get("hash-order"),
        Some(&3),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.get("process-hash"), Some(&3));
    // SystemTime in the use list + Instant::now.
    assert_eq!(counts.get("wall-clock"), Some(&2));
}

#[test]
fn unit_fixture_fails_on_bare_quantity_names() {
    let report = lint_fixture("unit_violation.rs", &config::LintConfig::default());
    let counts = count_by_rule(&report);
    // energy, total_latency (fields) and energy_total (fn); the typed
    // `interval: Time`, the suffixed names, and `utilization` stay silent.
    assert_eq!(
        counts.get("unit-suffix"),
        Some(&3),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|(_, f)| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("`energy`")));
    assert!(messages.iter().any(|m| m.contains("`total_latency`")));
    assert!(messages.iter().any(|m| m.contains("`energy_total`")));
}

#[test]
fn float_eq_fixture_fails_three_times() {
    let report = lint_fixture("float_eq_violation.rs", &config::LintConfig::default());
    let counts = count_by_rule(&report);
    assert_eq!(
        counts.get("float-eq"),
        Some(&3),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
}

#[test]
fn clean_fixture_passes_with_one_inline_suppression() {
    let report = lint_fixture("clean.rs", &config::LintConfig::default());
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].via, "inline");
    assert_eq!(report.suppressed[0].finding.rule, "wall-clock");
}

#[test]
fn allowlist_round_trips_through_a_real_toml_file() {
    // Without the allowlist: two violations.
    let bare = lint_fixture("allowlisted.rs", &config::LintConfig::default());
    let counts = count_by_rule(&bare);
    assert_eq!(counts.get("panic"), Some(&1));
    assert_eq!(counts.get("wall-clock"), Some(&1));

    // With allow.toml parsed from disk: both suppressed, attributed to the
    // allowlist, and the entries carry their mandatory reasons.
    let parsed = config::parse(&fixture("allow.toml")).expect("allow.toml parses");
    assert_eq!(parsed.allows.len(), 2);
    assert!(parsed.allows.iter().all(|a| !a.reason.is_empty()));
    let report = lint_fixture("allowlisted.rs", &parsed);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.suppressed.len(), 2);
    assert!(report.suppressed.iter().all(|s| s.via == "allowlist"));

    // The allowlist is rule+path scoped: the same source at another path
    // still fails.
    let elsewhere = lint_source(
        "crates/other/src/allowlisted.rs",
        &fixture("allowlisted.rs"),
        &parsed,
    );
    assert_eq!(elsewhere.violations.len(), 2);
}

#[test]
fn committed_lint_toml_allows_no_wall_clock_read() {
    // Parse the repository's real lint.toml, not a fixture config: this
    // test pins the *committed* wall-clock policy.
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../lint.toml");
    let text = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("read {}: {e}", committed.display()));
    let parsed = config::parse(&text).expect("workspace lint.toml parses");
    let wall_clock_allows: Vec<_> = parsed
        .allows
        .iter()
        .filter(|a| a.rule == "wall-clock")
        .collect();
    assert!(
        wall_clock_allows.is_empty(),
        "wall-clock [[allow]] entries: {wall_clock_allows:?}"
    );

    // A wall-clock read is a violation anywhere in the scanned workspace,
    // the observability crate included.
    let source = fixture("wall_clock_scoped.rs");
    for path in ["crates/obs/src/recorder.rs", "crates/obs/src/metrics.rs"] {
        let report = lint_source(path, &source, &parsed);
        assert_eq!(
            count_by_rule(&report).get("wall-clock"),
            Some(&1),
            "{path}: violations: {:?}",
            report.violations
        );
        assert!(
            report.suppressed.is_empty(),
            "{path}: {:?}",
            report.suppressed
        );
    }
}

#[test]
fn reach_fixture_reports_the_cross_file_chain() {
    // Configure the entry point the same way the workspace lint.toml does.
    let cfg = config::parse(
        "[rules.panic-reachability]\nentry-points = [\"Gate::open\"]\n[rules.panic]\ninclude = [\"crates\"]\n",
    )
    .expect("inline config parses");
    let report = lint_sources(
        &[
            (
                "crates/demo/src/reach_entry.rs".to_string(),
                fixture("reach_entry.rs"),
            ),
            (
                "crates/demo/src/reach_chain.rs".to_string(),
                fixture("reach_chain.rs"),
            ),
        ],
        &cfg,
    );
    let counts = count_by_rule(&report);
    // One reachable site (step_two's unwrap); orphan's expect never fires
    // panic-reachability but both fire the per-file panic rule.
    assert_eq!(
        counts.get("panic-reachability"),
        Some(&1),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.get("panic"), Some(&2));
    let message = &report
        .violations
        .iter()
        .find(|(_, f)| f.rule == "panic-reachability")
        .expect("reachability finding present")
        .1
        .message;
    assert!(
        message.contains("Gate::open -> step_one -> step_two"),
        "chain missing from message: {message}"
    );
    assert_eq!(report.graph.entry_points, vec!["Gate::open".to_string()]);
}

#[test]
fn unresolved_entry_point_fails_the_workspace_lint() {
    // A two-file workspace (the reachability fixtures) with one live entry
    // point and one misspelled one: the typo must fail the gate instead of
    // silently dropping the walk it names.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let lint_with = |entries: &str| {
        let cfg = config::parse(&format!(
            "[scan]\nroots = [\"reach_entry.rs\", \"reach_chain.rs\"]\n\
             [rules.panic-reachability]\nentry-points = [{entries}]\n"
        ))
        .expect("inline config parses");
        lint_workspace(&root, &cfg).expect("fixture workspace lints")
    };
    let config_violations = |report: &LintReport| -> Vec<String> {
        let on_config = report.violations.iter().filter(|(p, _)| p == "lint.toml");
        on_config.map(|(_, f)| f.message.clone()).collect()
    };
    // Gate::open's reachable unwrap, plus the unresolved entry.
    let report = lint_with("\"Gate::open\", \"Gate::opne\"");
    assert_eq!(count_by_rule(&report).get("panic-reachability"), Some(&2));
    assert_eq!(
        config_violations(&report),
        ["entry point `Gate::opne` resolves to no function"]
    );
    // Spelled right, the entry resolves and only the reachable site fires.
    let fixed = lint_with("\"Gate::open\"");
    assert_eq!(count_by_rule(&fixed).get("panic-reachability"), Some(&1));
    assert!(config_violations(&fixed).is_empty());
}

#[test]
fn hot_loop_fixture_fires_only_inside_marked_loops() {
    let report = lint_fixture("hot_loop_alloc.rs", &config::LintConfig::default());
    let counts = count_by_rule(&report);
    // Vec::new + format! + .clone() in the marked fn; the unmarked twin and
    // the clean hot loop stay silent.
    assert_eq!(
        counts.get("no-alloc-in-hot-loop"),
        Some(&3),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
}

#[test]
fn unit_param_fixture_fires_on_bare_quantity_params() {
    let report = lint_fixture("unit_param_violation.rs", &config::LintConfig::default());
    let counts = count_by_rule(&report);
    // `latency: f64` and `charge: f32`; suffixed, typed, private, and
    // test-mod parameters stay silent.
    assert_eq!(
        counts.get("unit-suffix-params"),
        Some(&2),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(counts.len(), 1);
    let messages: Vec<&str> = report
        .violations
        .iter()
        .map(|(_, f)| f.message.as_str())
        .collect();
    assert!(messages.iter().any(|m| m.contains("`latency`")));
    assert!(messages.iter().any(|m| m.contains("`charge`")));
}

#[test]
fn clean_fixture_hot_loop_and_suffixed_params_stay_silent() {
    let report = lint_fixture("clean.rs", &config::LintConfig::default());
    assert!(report.is_clean(), "violations: {:?}", report.violations);
}

#[test]
fn fixture_reports_are_byte_identical_across_runs() {
    let runs: Vec<String> = (0..2)
        .map(|_| {
            lint_fixture("determinism_violation.rs", &config::LintConfig::default()).render(true)
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert!(runs[0].contains("hint:"));
}
