//! # timely-lint
//!
//! A self-hosted, dependency-free static analysis pass for the TIMELY
//! workspace. The repo's correctness story rests on invariants `rustc`
//! never checks:
//!
//! * **determinism** — golden files and screening bounds are pinned
//!   byte-for-byte, so nothing on an output path may iterate a hash map,
//!   read a wall clock, or use a process-keyed hasher;
//! * **panic-freedom** — the `Backend` contract is "Unsupported, never
//!   panic", so evaluation paths must return structured `EvalError`s instead
//!   of unwrapping;
//! * **unit discipline** — every objective is a raw `f64`, one pJ-vs-mJ slip
//!   away from a wrong Pareto frontier, so public floats naming a physical
//!   quantity must carry a canonical unit suffix;
//! * **float equality** — bitwise pinning must say `.to_bits()`, not `==`.
//!
//! The linter walks every workspace `.rs` file with a small hand-rolled
//! lexer (comments/strings/raw-strings aware), applies the rule families in
//! [`rules::RULES`], and reports deterministically (sorted by path, line,
//! rule — byte-identical across runs). Suppression is two-level: inline
//! `// lint:allow(rule)` comments for point exceptions, and the committed
//! `lint.toml` allowlist for whole-file exceptions, each with a reason.
//!
//! The `timely-lint` binary exits nonzero on any unsuppressed violation and
//! is wired into `scripts/verify.sh` ahead of the golden-file studies.

pub mod callgraph;
pub mod config;
pub mod items;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use config::LintConfig;
use rules::Finding;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// One suppressed finding, kept for the report's accounting trailer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppressed {
    pub path: String,
    pub finding: Finding,
    /// `"inline"` or `"allowlist"`.
    pub via: &'static str,
}

/// A suppression that matched nothing this run — dead weight `--stale-allows`
/// fails on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaleSuppression {
    /// Workspace-relative path (the allow comment's file, or the `[[allow]]`
    /// entry's target).
    pub path: String,
    /// The comment line for inline allows; 0 for `lint.toml` entries.
    pub line: usize,
    /// The rule the suppression names.
    pub rule: String,
    /// `"inline"` or `"allowlist"`.
    pub via: &'static str,
}

/// Call-graph summary statistics, carried in every report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Function nodes in the workspace symbol table.
    pub nodes: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Panic-capable sites attached to nodes (non-test code).
    pub panic_sites: usize,
    /// The configured `panic-reachability` entry-point specs.
    pub entry_points: Vec<String>,
}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Unsuppressed violations, sorted by (path, line, rule, message).
    pub violations: Vec<(String, Finding)>,
    /// Suppressed findings, same order.
    pub suppressed: Vec<Suppressed>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Suppressions that matched nothing, sorted by (path, line, rule).
    pub stale: Vec<StaleSuppression>,
    /// Workspace call-graph statistics.
    pub graph: GraphStats,
    /// The configured suppression budget, when set.
    pub budget: Option<usize>,
}

/// The state of the suppression ratchet for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetVerdict {
    /// No budget configured.
    Unset,
    /// Used count equals the budget exactly.
    Ok,
    /// More suppressions than budgeted — a new one slipped in.
    Exceeded { used: usize, budget: usize },
    /// Fewer suppressions than budgeted — ratchet the budget down.
    Slack { used: usize, budget: usize },
}

impl LintReport {
    /// True when the gate passes on violations alone (budget and staleness
    /// are separate verdicts the binary folds in).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Compares the suppressed-finding count against the configured budget.
    pub fn budget_verdict(&self) -> BudgetVerdict {
        let used = self.suppressed.len();
        match self.budget {
            None => BudgetVerdict::Unset,
            Some(budget) if used == budget => BudgetVerdict::Ok,
            Some(budget) if used > budget => BudgetVerdict::Exceeded { used, budget },
            Some(budget) => BudgetVerdict::Slack { used, budget },
        }
    }

    /// Renders the deterministic report. With `fix_hints`, each violation is
    /// followed by an indented `hint:` line suggesting the rewrite.
    pub fn render(&self, fix_hints: bool) -> String {
        let mut out = String::new();
        for (path, finding) in &self.violations {
            let _ = writeln!(
                out,
                "{path}:{}: [{}] {}",
                finding.line, finding.rule, finding.message
            );
            if fix_hints {
                let _ = writeln!(out, "    hint: {}", finding.hint);
            }
        }
        let inline = self.suppressed.iter().filter(|s| s.via == "inline").count();
        let allowlist = self.suppressed.len() - inline;
        let _ = writeln!(
            out,
            "timely-lint: {} violation(s), {} suppressed ({inline} inline, {allowlist} allowlist), {} files scanned",
            self.violations.len(),
            self.suppressed.len(),
            self.files_scanned
        );
        let _ = writeln!(
            out,
            "timely-lint: call graph: {} fns, {} edges, {} panic sites, {} entry point(s)",
            self.graph.nodes,
            self.graph.edges,
            self.graph.panic_sites,
            self.graph.entry_points.len()
        );
        match self.budget_verdict() {
            BudgetVerdict::Unset => {}
            BudgetVerdict::Ok => {
                let _ = writeln!(
                    out,
                    "timely-lint: suppression budget {} / {} used (ratchet holds)",
                    self.suppressed.len(),
                    self.budget.unwrap_or(0)
                );
            }
            BudgetVerdict::Exceeded { used, budget } => {
                let _ = writeln!(
                    out,
                    "timely-lint: suppression budget EXCEEDED: {used} used > {budget} budgeted — remove the new suppression, do not raise the budget"
                );
            }
            BudgetVerdict::Slack { used, budget } => {
                let _ = writeln!(
                    out,
                    "timely-lint: suppression budget has slack: {used} used < {budget} budgeted — ratchet lint.toml's budget down to {used}"
                );
            }
        }
        out
    }

    /// Renders the stale-suppression report (`--stale-allows`).
    pub fn render_stale(&self) -> String {
        let mut out = String::new();
        for stale in &self.stale {
            match stale.via {
                "inline" => {
                    let _ = writeln!(
                        out,
                        "{}:{}: stale inline lint:allow({}) — suppresses nothing",
                        stale.path, stale.line, stale.rule
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "lint.toml: stale [[allow]] rule=\"{}\" path=\"{}\" — suppresses nothing",
                        stale.rule, stale.path
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "timely-lint: {} stale suppression(s)",
            self.stale.len()
        );
        out
    }
}

/// A fatal linter error (I/O or config), distinct from lint findings.
#[derive(Debug)]
pub enum LintError {
    /// `lint.toml` could not be read or parsed.
    Config(String),
    /// A source file or directory could not be read.
    Io { path: PathBuf, message: String },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Config(msg) => write!(f, "config error: {msg}"),
            LintError::Io { path, message } => {
                write!(f, "io error on {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Loads and parses `<root>/lint.toml`.
pub fn load_config(root: &Path) -> Result<LintConfig, LintError> {
    let path = root.join("lint.toml");
    let text = fs::read_to_string(&path).map_err(|e| LintError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    config::parse(&text).map_err(|e| LintError::Config(e.to_string()))
}

/// Collects every `.rs` file under the configured scan roots, sorted by
/// workspace-relative path — the walk order (and therefore the report) is
/// deterministic regardless of filesystem enumeration order.
pub fn collect_files(root: &Path, config: &LintConfig) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    for scan_root in &config.scan_roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, &config.exclude_dirs, &mut files)?;
        } else if dir.is_file() && dir.extension().is_some_and(|e| e == "rs") {
            files.push(dir);
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(dir: &Path, exclude: &[String], out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io {
        path: dir.to_path_buf(),
        message: e.to_string(),
    })?;
    for entry in entries {
        let entry = entry.map_err(|e| LintError::Io {
            path: dir.to_path_buf(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if exclude.iter().any(|ex| *ex == name) {
                continue;
            }
            walk(&path, exclude, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (the report's path syntax,
/// stable across platforms).
pub fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints one file's source text under `config`, splitting findings into
/// violations and suppressions. `rel_path` scopes the rules. (A one-file
/// workspace: interprocedural rules see only this file's call graph.)
pub fn lint_source(rel_path: &str, source: &str, config: &LintConfig) -> LintReport {
    lint_sources(&[(rel_path.to_string(), source.to_string())], config)
}

/// Lints a set of (workspace-relative path, source) pairs as one workspace:
/// per-file token rules, item rules, and the interprocedural
/// `panic-reachability` walk over the combined call graph — with full
/// suppression-usage accounting for `--stale-allows` and the budget.
pub fn lint_sources(files: &[(String, String)], config: &LintConfig) -> LintReport {
    struct Analyzed {
        path: String,
        lexed: lexer::LexedFile,
        items: Vec<items::FnItem>,
    }
    let analyzed: Vec<Analyzed> = files
        .iter()
        .map(|(path, source)| {
            let lexed = lexer::lex(source);
            let items = parser::parse_items(&lexed);
            Analyzed {
                path: path.clone(),
                lexed,
                items,
            }
        })
        .collect();

    // Per-file rules.
    let mut raw: Vec<(usize, Finding)> = Vec::new();
    for (idx, file) in analyzed.iter().enumerate() {
        for finding in rules::check_file(&file.path, &file.lexed, config) {
            raw.push((idx, finding));
        }
        for finding in rules::check_items(&file.path, &file.lexed, &file.items, config) {
            raw.push((idx, finding));
        }
    }

    // The workspace call graph and the panic-reachability walk.
    let sources: Vec<callgraph::SourceFile> = analyzed
        .iter()
        .map(|file| callgraph::SourceFile {
            path: &file.path,
            lexed: &file.lexed,
            items: &file.items,
        })
        .collect();
    let graph = callgraph::CallGraph::build(&sources);
    let entry_points: Vec<String> = config
        .rule_list("panic-reachability", "entry-points")
        .map(<[String]>::to_vec)
        .unwrap_or_default();
    for site in graph.reachable_panic_sites(&entry_points) {
        let symbol = &graph.symbols.symbols[site.node];
        if !config.rule_applies("panic-reachability", &symbol.path) {
            continue;
        }
        let Some(idx) = analyzed.iter().position(|f| f.path == symbol.path) else {
            continue;
        };
        raw.push((
            idx,
            Finding {
                line: site.site.line,
                rule: "panic-reachability",
                message: format!(
                    "`{}` reachable from entry `{}` via {}",
                    site.site.what,
                    site.entry,
                    graph.chain_display(&site.chain)
                ),
                hint: "break the path: make every function on the chain return a structured error, or justify the site with an entry-point-scoped `// lint:allow(panic-reachability)` naming the invariant".to_string(),
            },
        ));
    }

    // Suppression filtering, tracking which allows actually fire.
    let mut report = LintReport {
        files_scanned: analyzed.len(),
        budget: config.budget,
        graph: GraphStats {
            nodes: graph.symbols.symbols.len(),
            edges: graph.edge_count(),
            panic_sites: graph.panic_site_count(),
            entry_points,
        },
        ..Default::default()
    };
    let mut used_inline: BTreeSet<(usize, usize, String)> = BTreeSet::new();
    let mut used_allowlist: BTreeSet<usize> = BTreeSet::new();
    for (idx, finding) in raw {
        let file = &analyzed[idx];
        if let Some(allow_line) = file.lexed.allow_line_for(finding.rule, finding.line) {
            used_inline.insert((idx, allow_line, finding.rule.to_string()));
            report.suppressed.push(Suppressed {
                path: file.path.clone(),
                finding,
                via: "inline",
            });
        } else if let Some(entry_idx) = config.allowlist_index(finding.rule, &file.path) {
            used_allowlist.insert(entry_idx);
            report.suppressed.push(Suppressed {
                path: file.path.clone(),
                finding,
                via: "allowlist",
            });
        } else {
            report.violations.push((file.path.clone(), finding));
        }
    }

    // Stale suppressions: inline allows and allowlist entries that fired on
    // nothing. Allowlist staleness is only meaningful when the entry's file
    // was actually part of this lint (single-file lints would otherwise
    // report every other entry as stale).
    for (idx, file) in analyzed.iter().enumerate() {
        for allow in &file.lexed.allows {
            for rule in &allow.rules {
                if !used_inline.contains(&(idx, allow.line, rule.clone())) {
                    report.stale.push(StaleSuppression {
                        path: file.path.clone(),
                        line: allow.line,
                        rule: rule.clone(),
                        via: "inline",
                    });
                }
            }
        }
    }
    for (entry_idx, entry) in config.allows.iter().enumerate() {
        let file_in_scan = analyzed.iter().any(|f| f.path == entry.path);
        if file_in_scan && !used_allowlist.contains(&entry_idx) {
            report.stale.push(StaleSuppression {
                path: entry.path.clone(),
                line: 0,
                rule: entry.rule.clone(),
                via: "allowlist",
            });
        }
    }

    report.violations.sort();
    report.suppressed.sort();
    report.stale.sort();
    report
}

/// Lints every configured file under `root` (the workspace checkout).
pub fn lint_workspace(root: &Path, config: &LintConfig) -> Result<LintReport, LintError> {
    let files = collect_files(root, config)?;
    let mut inputs = Vec::with_capacity(files.len());
    for path in &files {
        let source = fs::read_to_string(path).map_err(|e| LintError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        inputs.push((relative_path(root, path), source));
    }
    Ok(lint_sources(&inputs, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_allow_suppresses_and_is_accounted() {
        let config = LintConfig::default();
        let src = "fn f() {\n    let t = Instant::now(); // lint:allow(wall-clock) harness\n}\n";
        let report = lint_source("crates/x/src/lib.rs", src, &config);
        assert!(report.is_clean());
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].via, "inline");
        let rendered = report.render(false);
        assert!(rendered.contains("0 violation(s), 1 suppressed (1 inline, 0 allowlist)"));
    }

    #[test]
    fn allowlist_suppresses_by_rule_and_path() {
        let mut config = LintConfig::default();
        config.allows.push(config::AllowEntry {
            rule: "wall-clock".to_string(),
            path: "crates/x/src/lib.rs".to_string(),
            reason: "this module measures wall time by design".to_string(),
        });
        let src = "fn f() { let t = Instant::now(); }\n";
        let report = lint_source("crates/x/src/lib.rs", src, &config);
        assert!(report.is_clean());
        assert_eq!(report.suppressed[0].via, "allowlist");
        // Same source at a different path is a violation.
        let other = lint_source("crates/y/src/lib.rs", src, &config);
        assert_eq!(other.violations.len(), 1);
    }

    #[test]
    fn render_is_deterministic_and_hints_are_optional() {
        let config = LintConfig::default();
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let report = lint_source("crates/x/src/lib.rs", src, &config);
        let a = report.render(true);
        let b = report.render(true);
        assert_eq!(a, b);
        assert!(a.contains("hint:"));
        assert!(!report.render(false).contains("hint:"));
    }
}
