//! The rule families, implemented as token-sequence scans over one lexed
//! file. Each check returns raw findings; scoping (`include` prefixes),
//! inline `// lint:allow(…)` comments, and the `lint.toml` allowlist are
//! applied by the driver in `lib.rs`.

use crate::config::LintConfig;
use crate::items::FnItem;
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::parser;

/// One rule violation, before suppression filtering.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// 1-indexed source line.
    pub line: usize,
    /// The rule name (also the `lint:allow(…)` key).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// A `--fix-hints` suggestion: the rewrite that would clear the finding.
    pub hint: String,
}

/// Every rule name the linter knows, with a one-line description — the
/// source of truth for `--rules` output and the README table.
pub const RULES: &[(&str, &str)] = &[
    (
        "panic",
        "no unwrap/expect/panic!/unreachable!/todo! in non-test code (errors flow as EvalError)",
    ),
    (
        "hash-order",
        "no std HashMap/HashSet in non-test code (iteration order is nondeterministic; use BTreeMap/BTreeSet)",
    ),
    (
        "wall-clock",
        "no Instant::now/SystemTime in the scanned workspace (golden outputs must not depend on time; timing belongs in perfbench)",
    ),
    (
        "process-hash",
        "no DefaultHasher/RandomState (process-keyed; use the FNV-1a stable_hash scheme)",
    ),
    (
        "unit-suffix",
        "public f64/f32 items naming a physical quantity must carry a canonical unit suffix (_pj, _mj, _s, _ns, _mm2, _ghz, _fps, ...)",
    ),
    (
        "float-eq",
        "no ==/!= against float literals in non-test code (use .to_bits() for bitwise checks or an epsilon)",
    ),
    (
        "panic-reachability",
        "no panic site (unwrap/expect/panic!/...) may be reachable on the workspace call graph from a configured entry point (entry-points in lint.toml; suppressions do not hide sites from the walk)",
    ),
    (
        "no-alloc-in-hot-loop",
        "no Vec::new/vec![]/collect/to_vec/clone/format!/Box::new inside loop bodies of functions marked // lint:hot (hoist buffers out of the loop and reuse them)",
    ),
    (
        "unit-suffix-params",
        "raw f64/f32 parameters of pub fns naming a physical quantity must carry a canonical unit suffix, same discipline as unit-suffix for fields/returns",
    ),
];

/// Default quantity words for `unit-suffix` (overridable via lint.toml).
const QUANTITY_WORDS: &[&str] = &[
    "energy",
    "latency",
    "area",
    "duration",
    "interval",
    "delay",
    "capacitance",
    "resistance",
    "voltage",
    "charge",
    "frequency",
];

/// Default unit tokens for `unit-suffix`: a name is unit-disciplined when at
/// least one `_`-separated component is one of these (so `energy_mj`,
/// `energy_mj_per_request`, and `energy_millijoules` all pass).
const UNIT_TOKENS: &[&str] = &[
    // Canonical short suffixes (the ISSUE's list first).
    "pj",
    "mj",
    "s",
    "ns",
    "mm2",
    "ghz",
    "fps", // —
    "fj",
    "nj",
    "uj",
    "j",
    "ms",
    "us",
    "ps",
    "um2",
    "mhz",
    "hz",
    "rps",
    "w",
    "mw",
    "uw",
    // Spelled-out forms the Energy/Time/Area wrappers already expose.
    "joules",
    "millijoules",
    "microjoules",
    "nanojoules",
    "picojoules",
    "femtojoules",
    "seconds",
    "milliseconds",
    "microseconds",
    "nanoseconds",
    "picoseconds",
    "watt",
    "watts",
    "milliwatts",
    "volts",
    "amps",
    "microamps",
    "ohms",
    "siemens",
    "farads",
    "femtofarads",
    "coulombs",
    "millimeters",
    "microns",
    "lsb",
    "bits",
    "cycles",
    "fraction",
    "ratio",
    "factor",
];

/// Runs every rule over one lexed file. `path` is workspace-relative with
/// forward slashes; scoping decisions use it via `config.rule_applies`.
pub fn check_file(path: &str, file: &LexedFile, config: &LintConfig) -> Vec<Finding> {
    let file_is_test = path_is_test(path);
    let mut findings = Vec::new();
    let tokens = &file.tokens;

    let in_prod = |t: &Token| !file_is_test && !t.in_test;

    for (i, token) in tokens.iter().enumerate() {
        let name = token.ident();
        if name.is_empty() {
            continue;
        }

        // -------- panic --------
        if config.rule_applies("panic", path) && in_prod(token) {
            match panic_pattern(tokens, i) {
                Some(what) if what.ends_with("()") => findings.push(Finding {
                    line: token.line,
                    rule: "panic",
                    message: format!("`{what}` in non-test code"),
                    hint: "propagate the error instead: return Result and use `?` (EvalError/ArchError/NnError), or handle the None/Err arm explicitly".to_string(),
                }),
                Some(what) => findings.push(Finding {
                    line: token.line,
                    rule: "panic",
                    message: format!("`{what}` in non-test code"),
                    hint: "return a structured error (EvalError::Unsupported for \"can't happen for this input\" cases) instead of aborting".to_string(),
                }),
                None => {}
            }
        }

        // -------- hash-order --------
        if config.rule_applies("hash-order", path)
            && in_prod(token)
            && matches!(name, "HashMap" | "HashSet")
            && !prev_ident_is(tokens, i, "BTreeMap")
        {
            findings.push(Finding {
                line: token.line,
                rule: "hash-order",
                message: format!("`{name}` in non-test code (nondeterministic iteration order)"),
                hint: format!(
                    "use `BTree{}` so iteration order (and everything serialized from it) is deterministic",
                    name.trim_start_matches("Hash")
                ),
            });
        }

        // -------- wall-clock --------
        if config.rule_applies("wall-clock", path) && in_prod(token) {
            let instant_now = name == "Instant"
                && next_is(tokens, i, "::")
                && tokens.get(i + 2).map(|t| t.ident()) == Some("now");
            if instant_now || name == "SystemTime" {
                findings.push(Finding {
                    line: token.line,
                    rule: "wall-clock",
                    message: format!(
                        "`{}` in non-test code (outputs must not depend on wall-clock time)",
                        if instant_now { "Instant::now" } else { "SystemTime" }
                    ),
                    hint: "wall-clock timing belongs in the perfbench workspace, outside the scan roots; deterministic telemetry goes through timely_obs::Recorder".to_string(),
                });
            }
        }

        // -------- process-hash --------
        if config.rule_applies("process-hash", path)
            && in_prod(token)
            && matches!(name, "DefaultHasher" | "RandomState")
        {
            findings.push(Finding {
                line: token.line,
                rule: "process-hash",
                message: format!("`{name}` is keyed per process (hashes differ across runs)"),
                hint: "use the FNV-1a `stable_hash` scheme from timely_core::backend for any hash that reaches a cache key, golden file, or report".to_string(),
            });
        }

        // -------- unit-suffix --------
        if config.rule_applies("unit-suffix", path) && in_prod(token) && name == "pub" {
            findings.extend(check_unit_suffix(path, tokens, i, config));
        }
    }

    // float-eq scans punctuation, not identifiers.
    if config.rule_applies("float-eq", path) {
        for (i, token) in tokens.iter().enumerate() {
            if file_is_test || token.in_test {
                continue;
            }
            let op = match &token.kind {
                TokenKind::Punct(p @ ("==" | "!=")) => *p,
                _ => continue,
            };
            let float_neighbor = is_float(tokens.get(i.wrapping_sub(1)))
                || is_float(tokens.get(i + 1))
                // `x == -1.0`: a sign between the operator and the literal.
                || (neighbor_is_sign(tokens.get(i + 1)) && is_float(tokens.get(i + 2)));
            if float_neighbor {
                findings.push(Finding {
                    line: token.line,
                    rule: "float-eq",
                    message: format!("`{op}` against a float literal in non-test code"),
                    hint: "bitwise checks must use `.to_bits()`; value checks need an explicit epsilon or an is_zero()-style helper with a documented allow".to_string(),
                });
            }
        }
    }

    findings
}

/// Files under tests/, benches/, examples/, or fixtures/ are test code
/// wholesale.
pub fn path_is_test(path: &str) -> bool {
    path.split('/').any(|part| {
        part == "tests" || part == "benches" || part == "examples" || part == "fixtures"
    })
}

/// Recognizes a panic-capable pattern at token `i`: `.unwrap()`-family
/// calls and `panic!`-family macros. Returns the display form. Shared by
/// the `panic` rule and the call graph's panic-site collection (which is
/// the point of `panic-reachability`: suppressed sites still count).
pub fn panic_pattern(tokens: &[Token], i: usize) -> Option<String> {
    let name = tokens[i].ident();
    if matches!(name, "unwrap" | "expect" | "unwrap_err" | "expect_err")
        && prev_is(tokens, i, ".")
        && next_is(tokens, i, "(")
    {
        return Some(format!(".{name}()"));
    }
    if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") && next_is(tokens, i, "!")
    {
        return Some(format!("{name}!"));
    }
    None
}

/// The allocation patterns `no-alloc-in-hot-loop` flags (the ISSUE's list).
const HOT_LOOP_ALLOCS: &[&str] = &["collect", "to_vec", "clone"];

/// Item-level rules over one file: `no-alloc-in-hot-loop` and
/// `unit-suffix-params`. (`panic-reachability` is workspace-level and runs
/// on the call graph in `lib.rs`.)
pub fn check_items(
    path: &str,
    file: &LexedFile,
    items: &[FnItem],
    config: &LintConfig,
) -> Vec<Finding> {
    let file_is_test = path_is_test(path);
    let mut findings = Vec::new();
    if file_is_test {
        return findings;
    }
    let tokens = &file.tokens;

    if config.rule_applies("no-alloc-in-hot-loop", path) {
        for item in items.iter().filter(|item| item.is_hot && !item.is_test) {
            let Some((open, close)) = item.body else {
                continue;
            };
            for (lo, hi) in loop_bodies(tokens, open + 1, close) {
                findings.extend(check_loop_allocs(tokens, lo, hi, &item.name));
            }
        }
    }

    if config.rule_applies("unit-suffix-params", path) {
        let quantity_words = list_or_default(config, "unit-suffix-params", "quantity-words");
        let unit_tokens = list_or_default(config, "unit-suffix-params", "unit-tokens");
        for item in items.iter().filter(|item| item.is_pub && !item.is_test) {
            for param in item.params.iter().filter(|p| p.is_raw_float) {
                let components: Vec<&str> =
                    param.name.split('_').filter(|c| !c.is_empty()).collect();
                let names_quantity = components
                    .iter()
                    .any(|c| quantity_words.iter().any(|q| q == c));
                let has_unit = components
                    .iter()
                    .any(|c| unit_tokens.iter().any(|u| u == c));
                if names_quantity && !has_unit {
                    findings.push(Finding {
                        line: param.line,
                        rule: "unit-suffix-params",
                        message: format!(
                            "parameter `{}` of pub fn `{}` is a raw {} naming a physical quantity but carries no unit",
                            param.name, item.name, param.ty_name
                        ),
                        hint: format!(
                            "rename to `{}_s`/`{}_mj`/... so the call site reads the unit, or take a typed unit newtype",
                            param.name, param.name
                        ),
                    });
                }
            }
        }
    }

    findings
}

/// The configured list for `rule`, falling back to the base `unit-suffix`
/// lists and then the built-in defaults — so the two unit rules share one
/// vocabulary unless overridden.
fn list_or_default(config: &LintConfig, rule: &str, key: &str) -> Vec<String> {
    config
        .rule_list(rule, key)
        .or_else(|| config.rule_list("unit-suffix", key))
        .map(<[String]>::to_vec)
        .unwrap_or_else(|| {
            let defaults = if key == "quantity-words" {
                QUANTITY_WORDS
            } else {
                UNIT_TOKENS
            };
            defaults.iter().map(|s| s.to_string()).collect()
        })
}

/// Finds the outermost loop-body token ranges (exclusive of braces) in
/// `tokens[start..end)`: `for … { }`, `while … { }`, `loop { }`. Inner
/// loops sit inside the returned ranges, so scanning each range once
/// covers every nesting level exactly once.
fn loop_bodies(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = start;
    while i < end {
        let is_loop_kw = match tokens[i].ident() {
            "while" | "loop" => true,
            // `for<'a>` higher-ranked bounds are not loops.
            "for" => !next_is(tokens, i, "<"),
            _ => false,
        };
        if is_loop_kw {
            if let Some(open) = (i + 1..end).find(|&k| tokens[k].is_punct("{")) {
                if let Some(close) = parser::match_brace(tokens, open, end) {
                    ranges.push((open + 1, close));
                    i = close + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

/// Flags allocation patterns in one loop-body range.
fn check_loop_allocs(tokens: &[Token], start: usize, end: usize, fn_name: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |line: usize, what: &str| {
        findings.push(Finding {
            line,
            rule: "no-alloc-in-hot-loop",
            message: format!("`{what}` inside a loop body of `// lint:hot` fn `{fn_name}`"),
            hint: "hoist the allocation out of the loop (reusable scratch buffer) or drop the `lint:hot` marker if this path is genuinely cold".to_string(),
        });
    };
    for i in start..end {
        let t = &tokens[i];
        if t.in_test {
            continue;
        }
        let name = t.ident();
        match name {
            "Vec" | "Box" if next_is(tokens, i, "::") => {
                if tokens.get(i + 2).map(|t| t.ident()) == Some("new") {
                    push(t.line, &format!("{name}::new"));
                }
            }
            "vec" | "format" if next_is(tokens, i, "!") => {
                push(t.line, &format!("{name}!"));
            }
            _ if HOT_LOOP_ALLOCS.contains(&name) && prev_is(tokens, i, ".") => {
                // `.collect(` / `.collect::<T>(` / `.to_vec(` / `.clone(`.
                let calls = next_is(tokens, i, "(") || next_is(tokens, i, "::");
                if calls {
                    push(t.line, &format!(".{name}()"));
                }
            }
            _ => {}
        }
    }
    findings
}

fn prev_is(tokens: &[Token], i: usize, p: &str) -> bool {
    i > 0 && tokens[i - 1].is_punct(p)
}

fn next_is(tokens: &[Token], i: usize, p: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(p))
}

fn prev_ident_is(tokens: &[Token], i: usize, name: &str) -> bool {
    i > 0 && tokens[i - 1].ident() == name
}

fn is_float(token: Option<&Token>) -> bool {
    matches!(
        token.map(|t| &t.kind),
        Some(TokenKind::Number { is_float: true })
    )
}

fn neighbor_is_sign(token: Option<&Token>) -> bool {
    token.is_some_and(|t| t.is_punct("-"))
}

/// `unit-suffix`: at a `pub` token, recognize
///
/// * `pub <name>: f64` / `pub <name>: f32` struct fields, and
/// * `pub fn <name>(…) -> f64` functions,
///
/// and require that a name containing a quantity word also contains a unit
/// token (as an `_`-separated component). Typed wrappers (`Energy`, `Time`,
/// `Area`) are exempt by construction — the rule only fires on raw floats,
/// which is exactly where a pJ-vs-mJ slip is invisible to the compiler.
fn check_unit_suffix(_path: &str, tokens: &[Token], i: usize, config: &LintConfig) -> Vec<Finding> {
    let quantity_words: Vec<String> = match config.rule_list("unit-suffix", "quantity-words") {
        Some(words) => words.to_vec(),
        None => QUANTITY_WORDS.iter().map(|s| s.to_string()).collect(),
    };
    let unit_tokens: Vec<String> = match config.rule_list("unit-suffix", "unit-tokens") {
        Some(words) => words.to_vec(),
        None => UNIT_TOKENS.iter().map(|s| s.to_string()).collect(),
    };

    let mut j = i + 1;
    // Skip a visibility qualifier: `pub(crate)`, `pub(in …)`.
    if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
        while j < tokens.len() && !tokens[j].is_punct(")") {
            j += 1;
        }
        j += 1;
    }

    let mut findings = Vec::new();
    match tokens.get(j).map(|t| t.ident()) {
        // pub fn name(…) -> f64
        Some("fn") => {
            let Some(name_tok) = tokens.get(j + 1) else {
                return findings;
            };
            let name = name_tok.ident().to_string();
            // Scan past the parameter list to the return type.
            let mut k = j + 2;
            // Optional generics before the paren.
            let mut angle = 0i32;
            while k < tokens.len() && !(angle == 0 && tokens[k].is_punct("(")) {
                if tokens[k].is_punct("<") {
                    angle += 1;
                } else if tokens[k].is_punct(">") {
                    angle -= 1;
                }
                k += 1;
            }
            let mut paren = 0i32;
            while k < tokens.len() {
                if tokens[k].is_punct("(") {
                    paren += 1;
                } else if tokens[k].is_punct(")") {
                    paren -= 1;
                    if paren == 0 {
                        break;
                    }
                }
                k += 1;
            }
            let returns_float = tokens.get(k + 1).is_some_and(|t| t.is_punct("->"))
                && matches!(tokens.get(k + 2).map(|t| t.ident()), Some("f64" | "f32"));
            if returns_float {
                if let Some(finding) =
                    unit_finding(&name, name_tok.line, "fn", &quantity_words, &unit_tokens)
                {
                    findings.push(finding);
                }
            }
        }
        // pub name: f64
        Some(name) if !name.is_empty() => {
            let name = name.to_string();
            let line = tokens[j].line;
            let is_float_field = tokens.get(j + 1).is_some_and(|t| t.is_punct(":"))
                && matches!(tokens.get(j + 2).map(|t| t.ident()), Some("f64" | "f32"));
            if is_float_field {
                if let Some(finding) =
                    unit_finding(&name, line, "field", &quantity_words, &unit_tokens)
                {
                    findings.push(finding);
                }
            }
        }
        _ => {}
    }
    findings
}

fn unit_finding(
    name: &str,
    line: usize,
    what: &str,
    quantity_words: &[String],
    unit_tokens: &[String],
) -> Option<Finding> {
    let components: Vec<&str> = name.split('_').filter(|c| !c.is_empty()).collect();
    let names_quantity = components
        .iter()
        .any(|c| quantity_words.iter().any(|q| q == c));
    if !names_quantity {
        return None;
    }
    let has_unit = components
        .iter()
        .any(|c| unit_tokens.iter().any(|u| u == c));
    if has_unit {
        return None;
    }
    let quantity = components
        .iter()
        .find(|c| quantity_words.iter().any(|q| q == *c))
        .copied()
        .unwrap_or(name);
    let suggestion = match quantity {
        "energy" => "_mj (or _pj)",
        "latency" | "duration" | "interval" | "delay" => "_s (or _ms, _ns)",
        "area" => "_mm2",
        "frequency" => "_ghz",
        "capacitance" => "_femtofarads",
        "resistance" => "_ohms",
        "voltage" => "_volts",
        "charge" => "_pj",
        _ => "a canonical unit suffix",
    };
    Some(Finding {
        line,
        rule: "unit-suffix",
        message: format!(
            "pub {what} `{name}` is a raw float naming a physical quantity but carries no unit"
        ),
        hint: format!(
            "rename to `{name}{}` — or wrap it in the typed unit newtypes from timely-analog",
            suggestion.split(' ').next().unwrap_or("_mj")
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        check_file("crates/x/src/lib.rs", &lex(src), &LintConfig::default())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn panic_family_fires_outside_tests_only() {
        let src = r#"
            fn prod(x: Option<u32>) -> u32 { x.unwrap() }
            fn prod2() { panic!("boom"); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn ok() { Some(1).unwrap(); panic!("fine in tests"); }
            }
        "#;
        assert_eq!(rules_of(&run(src)), vec!["panic", "panic"]);
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn determinism_rules_fire() {
        let src = r#"
            use std::collections::HashMap;
            use std::hash::DefaultHasher;
            fn f() {
                let t = Instant::now();
                let s = SystemTime::now();
            }
        "#;
        let rules = rules_of(&run(src));
        assert!(rules.contains(&"hash-order"));
        assert!(rules.contains(&"process-hash"));
        assert!(rules.contains(&"wall-clock"));
    }

    #[test]
    fn unit_suffix_accepts_disciplined_names() {
        let src = r#"
            pub struct Report {
                pub energy_mj: f64,
                pub energy_mj_per_request: f64,
                pub latency_ms: f64,
                pub area_mm2: f64,
                pub utilization: f64,
            }
            impl Report {
                pub fn energy_millijoules(&self) -> f64 { self.energy_mj }
                pub fn tops(&self) -> f64 { 1.5 }
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn unit_suffix_rejects_bare_quantities() {
        let src = r#"
            pub struct Report {
                pub energy: f64,
                pub total_latency: f64,
            }
            impl Report {
                pub fn area(&self) -> f64 { 0.5 }
            }
        "#;
        let findings = run(src);
        assert_eq!(rules_of(&findings), vec!["unit-suffix"; 3]);
        assert!(findings[0].message.contains("energy"));
        assert!(findings[0].hint.contains("_mj"));
    }

    #[test]
    fn unit_suffix_ignores_typed_wrappers_and_private_fields() {
        let src = r#"
            pub struct Report {
                pub energy: Energy,
                latency: f64,
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn float_eq_fires_on_literal_comparisons() {
        let src = r#"
            fn f(x: f64) -> bool { x == 0.0 }
            fn g(x: f64) -> bool { 1.5 != x }
            fn h(x: f64) -> bool { x == -1.0 }
            fn i(x: u32) -> bool { x == 0 }
            fn j(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }
        "#;
        assert_eq!(rules_of(&run(src)), vec!["float-eq"; 3]);
    }

    #[test]
    fn files_under_tests_dirs_are_exempt_from_prod_rules() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let findings = check_file("crates/x/tests/it.rs", &lex(src), &LintConfig::default());
        assert!(findings.is_empty());
    }

    fn run_items(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let items = crate::parser::parse_items(&lexed);
        check_items(
            "crates/x/src/lib.rs",
            &lexed,
            &items,
            &LintConfig::default(),
        )
    }

    #[test]
    fn hot_loop_allocs_fire_only_in_hot_fn_loops() {
        let src = r#"
            // lint:hot
            fn hot(xs: &[u32]) {
                let outside = Vec::new();
                for x in xs {
                    let v: Vec<u32> = xs.iter().copied().collect();
                    let w = x.clone();
                }
            }
            fn cold(xs: &[u32]) {
                for x in xs {
                    let v = vec![*x];
                }
            }
        "#;
        let findings = run_items(src);
        assert_eq!(rules_of(&findings), vec!["no-alloc-in-hot-loop"; 2]);
        assert!(findings[0].message.contains("`hot`"));
    }

    #[test]
    fn unit_suffix_params_fires_on_bare_pub_float_params() {
        let src = r#"
            pub fn f(energy: f64, latency_ms: f64, count: usize, interval: Time) {}
            fn private(energy: f64) {}
        "#;
        let findings = run_items(src);
        assert_eq!(rules_of(&findings), vec!["unit-suffix-params"]);
        assert!(findings[0].message.contains("`energy`"));
    }

    #[test]
    fn scoping_via_include_prefixes() {
        let mut config = LintConfig::default();
        config.rules.insert(
            "panic".to_string(),
            crate::config::RuleConfig {
                include: vec!["crates/core/src".to_string()],
                lists: Default::default(),
            },
        );
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(
            check_file("crates/core/src/lib.rs", &lex(src), &config).len(),
            1
        );
        assert!(check_file("crates/sim/src/lib.rs", &lex(src), &config).is_empty());
    }
}
