//! The workspace call graph and the panic-reachability walk.
//!
//! Edges are resolved name-resolution-lite from call sites in each
//! function body:
//!
//! * `.name(…)` method calls resolve to *every* function named `name`;
//! * `Type::name(…)` resolves to functions whose impl target (or trait)
//!   is `Type` — an uppercase qualifier with no workspace match is treated
//!   as external (`Vec::new`, enum variants) and produces no edge;
//! * `module::name(…)` (lowercase qualifier) and bare `name(…)` calls
//!   resolve by simple name.
//!
//! This over-approximates the real call graph (multiple candidates get
//! edges to all), which is the safe direction for reachability: a panic
//! site reported unreachable really is unreachable under these edges.

use crate::items::{FnItem, SymbolTable};
use crate::lexer::{LexedFile, Token};
use crate::rules;
use std::collections::BTreeSet;

/// One panic-capable token pattern inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-indexed source line.
    pub line: usize,
    /// The pattern, for messages (`.expect()`, `panic!`, …).
    pub what: String,
}

/// One file's worth of parser output, as the graph builder consumes it.
pub struct SourceFile<'a> {
    /// Workspace-relative path (forward slashes).
    pub path: &'a str,
    pub lexed: &'a LexedFile,
    pub items: &'a [FnItem],
}

/// The workspace call graph: symbols plus adjacency plus per-node panic
/// sites.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub symbols: SymbolTable,
    /// Sorted, deduplicated callee ids per node.
    pub edges: Vec<Vec<usize>>,
    /// Panic sites per node (non-test code only).
    pub panic_sites: Vec<Vec<PanicSite>>,
}

/// A panic site reachable from a configured entry point.
#[derive(Debug, Clone)]
pub struct ReachableSite {
    /// The entry-point spec that reaches the site.
    pub entry: String,
    /// The node containing the site.
    pub node: usize,
    pub site: PanicSite,
    /// Node ids from the entry root to `node`, inclusive.
    pub chain: Vec<usize>,
}

/// Rust keywords and control-flow idents that look like calls (`if (…)`,
/// `match (…)`) but are not.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "move", "in", "as",
    "ref", "mut", "box", "unsafe", "await", "where", "impl", "dyn", "pub", "use", "mod", "const",
    "static", "type", "enum", "struct", "trait", "break", "continue", "true", "false", "yield",
];

impl CallGraph {
    /// Builds the graph from every file's parsed items.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let table = SymbolTable::build(
            &files
                .iter()
                .map(|f| (f.path.to_string(), f.items.to_vec()))
                .collect::<Vec<_>>(),
        );
        let mut edges = vec![Vec::new(); table.symbols.len()];
        let mut panic_sites = vec![Vec::new(); table.symbols.len()];

        for file in files {
            let file_is_test = rules::path_is_test(file.path);
            for item in file.items {
                let Some((open, close)) = item.body else {
                    continue;
                };
                // The symbol table re-sorted items; find this item's id.
                let Some(id) = table.symbols.iter().position(|s| {
                    s.path == file.path && s.item.line == item.line && s.item.name == item.name
                }) else {
                    continue;
                };
                let mut callees = BTreeSet::new();
                collect_calls(
                    &file.lexed.tokens,
                    open + 1,
                    close,
                    item.self_type.as_deref(),
                    &table,
                    &mut callees,
                );
                edges[id] = callees.into_iter().collect();
                if !file_is_test && !item.is_test {
                    panic_sites[id] = collect_panic_sites(&file.lexed.tokens, open + 1, close);
                }
            }
        }
        CallGraph {
            symbols: table,
            edges,
            panic_sites,
        }
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Total panic-site count across all nodes.
    pub fn panic_site_count(&self) -> usize {
        self.panic_sites.iter().map(Vec::len).sum()
    }

    /// Walks the graph from each entry spec (in order) and returns every
    /// panic site reachable from at least one entry. A site is attributed
    /// to the first entry that reaches it; chains are BFS-shortest and
    /// deterministic (neighbors visited in ascending id order). An entry
    /// that resolves to no function reaches nothing; `lint_workspace`
    /// reports it as a violation.
    pub fn reachable_panic_sites(&self, entries: &[String]) -> Vec<ReachableSite> {
        let mut claimed: BTreeSet<usize> = BTreeSet::new();
        let mut out = Vec::new();
        for entry in entries {
            let roots = self.symbols.resolve_entry(entry);
            if roots.is_empty() {
                continue;
            }
            let mut parent: Vec<Option<usize>> = vec![None; self.symbols.symbols.len()];
            let mut seen: Vec<bool> = vec![false; self.symbols.symbols.len()];
            let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
            for &root in &roots {
                if !seen[root] {
                    seen[root] = true;
                    queue.push_back(root);
                }
            }
            while let Some(node) = queue.pop_front() {
                for &next in &self.edges[node] {
                    if !seen[next] {
                        seen[next] = true;
                        parent[next] = Some(node);
                        queue.push_back(next);
                    }
                }
            }
            for node in 0..self.symbols.symbols.len() {
                if !seen[node] || self.panic_sites[node].is_empty() || claimed.contains(&node) {
                    continue;
                }
                claimed.insert(node);
                let mut chain = vec![node];
                let mut cur = node;
                while let Some(p) = parent[cur] {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                for site in &self.panic_sites[node] {
                    out.push(ReachableSite {
                        entry: entry.clone(),
                        node,
                        site: site.clone(),
                        chain: chain.clone(),
                    });
                }
            }
        }
        out
    }

    /// Renders a chain as `A::b -> C::d -> e`.
    pub fn chain_display(&self, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&id| self.symbols.symbols[id].item.qualified())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Scans a body token range for call sites and records resolved callees.
fn collect_calls(
    tokens: &[Token],
    start: usize,
    end: usize,
    self_type: Option<&str>,
    table: &SymbolTable,
    out: &mut BTreeSet<usize>,
) {
    for i in start..end {
        let name = tokens[i].ident();
        if name.is_empty() || NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        // A call is `name(` — optionally with a turbofish `name::<T>(`.
        let mut k = i + 1;
        if k < end && tokens[k].is_punct("::") && k + 1 < end && tokens[k + 1].is_punct("<") {
            let mut depth = 0usize;
            let mut m = k + 1;
            while m < end {
                if tokens[m].is_punct("<") {
                    depth += 1;
                } else if tokens[m].is_punct(">") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        if !(k < end && tokens[k].is_punct("(")) {
            continue;
        }
        let prev = if i > start {
            Some(&tokens[i - 1])
        } else {
            None
        };
        let candidates: Vec<usize> = match prev {
            Some(p) if p.is_punct(".") => table.by_name(name).to_vec(),
            Some(p) if p.is_punct("::") => {
                let qualifier = if i >= 2 { tokens[i - 2].ident() } else { "" };
                let qualifier = if qualifier == "Self" {
                    self_type.unwrap_or("")
                } else {
                    qualifier
                };
                if qualifier.is_empty() {
                    Vec::new()
                } else if qualifier.chars().next().is_some_and(char::is_uppercase) {
                    // A type-qualified call: no workspace match means an
                    // external type (Vec::new) or enum variant — no edge.
                    table.by_qualified(&format!("{qualifier}::{name}")).to_vec()
                } else {
                    // A module path: resolve by simple name.
                    table.by_name(name).to_vec()
                }
            }
            _ => table.by_name(name).to_vec(),
        };
        out.extend(candidates);
    }
}

/// Collects panic-capable patterns (same shapes the `panic` rule flags) in
/// a body range, skipping `#[cfg(test)]` tokens.
fn collect_panic_sites(tokens: &[Token], start: usize, end: usize) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    for i in start..end {
        if tokens[i].in_test {
            continue;
        }
        if let Some(what) = rules::panic_pattern(tokens, i) {
            sites.push(PanicSite {
                line: tokens[i].line,
                what,
            });
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;

    fn graph(files: &[(&str, &str)]) -> (CallGraph, Vec<(String, crate::lexer::LexedFile)>) {
        let lexed: Vec<(String, crate::lexer::LexedFile)> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        let parsed: Vec<Vec<FnItem>> = lexed.iter().map(|(_, l)| parse_items(l)).collect();
        let sources: Vec<SourceFile> = lexed
            .iter()
            .zip(parsed.iter())
            .map(|((p, l), items)| SourceFile {
                path: p,
                lexed: l,
                items,
            })
            .collect();
        (CallGraph::build(&sources), lexed)
    }

    #[test]
    fn method_calls_resolve_across_files() {
        let (g, _) = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Sim; impl Sim { pub fn run(&self) { self.step(); } fn step(&self) {} }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn drive(sim: &Sim) { sim.run(); }",
            ),
        ]);
        assert_eq!(g.symbols.symbols.len(), 3);
        let drive = g.symbols.resolve_entry("drive")[0];
        let run = g.symbols.resolve_entry("Sim::run")[0];
        let step = g.symbols.resolve_entry("step")[0];
        assert!(g.edges[drive].contains(&run));
        assert!(g.edges[run].contains(&step));
    }

    #[test]
    fn external_type_calls_produce_no_edges() {
        let (g, _) = graph(&[(
            "crates/a/src/lib.rs",
            "pub fn new() {} pub fn f() { let v = Vec::new(); }",
        )]);
        let f = g.symbols.resolve_entry("f")[0];
        assert!(g.edges[f].is_empty(), "Vec::new must not resolve to `new`");
    }

    #[test]
    fn reachability_reports_sites_with_chains() {
        let (g, _) = graph(&[
            (
                "crates/a/src/lib.rs",
                "pub struct Gate; impl Gate { pub fn open(&self) { step_one(0); } }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn step_one(x: u32) { step_two(x); }\nfn step_two(x: u32) { Some(x).unwrap(); }",
            ),
        ]);
        let sites = g.reachable_panic_sites(&["Gate::open".to_string()]);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].site.what, ".unwrap()");
        assert_eq!(
            g.chain_display(&sites[0].chain),
            "Gate::open -> step_one -> step_two"
        );
        // An entry that reaches nothing panicky reports nothing.
        assert!(g
            .reachable_panic_sites(&["step_two_unrelated".to_string()])
            .is_empty());
    }
}
