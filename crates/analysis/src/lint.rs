//! `resparc-lint`: repo-specific determinism and robustness rules.
//!
//! Every headline result in this repo is a determinism claim
//! (bit-identical reports across runs and across shared/dedicated
//! execution). The rules here statically enforce the conditions those
//! claims rest on; the rule catalog is documented in
//! `ARCHITECTURE.md` § Correctness tooling.
//!
//! Suppressions: a finding is suppressed by a comment on the same line
//! or alone on the line directly above:
//!
//! ```text
//! // resparc-lint: allow(no-panic, reason = "documented panic contract")
//! ```
//!
//! A suppression without a `reason = "..."` is itself a finding
//! (rule `suppression-without-reason`), so every exception in the tree
//! carries its justification.

use crate::lexer::{scan, test_line_ranges, LineComment, Token, TokenKind};
use std::path::Path;

/// Rule identifiers, used in findings and in `allow(...)` comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `HashMap`/`HashSet` anywhere in workspace sources: iteration
    /// order feeds reports and figures, so ordered collections (or
    /// sorted emission) are required by construction.
    HashCollections,
    /// `thread_rng` / `SystemTime` / `Instant` outside `crates/bench`:
    /// wall-clock and OS entropy break replayability.
    NondetTime,
    /// `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` in `crates/core` and `crates/workloads`
    /// library paths: library code must return typed errors.
    NoPanic,
    /// `as f32` in the energy ledger's library code: lossy narrowing
    /// silently corrupts picojoule accounting; stay in f64. Test code
    /// is exempt (f32 spike stimuli are the neuro API's type).
    LossyFloatCast,
    /// An `allow(...)` suppression comment with no `reason = "..."`.
    SuppressionWithoutReason,
}

impl Rule {
    /// The stable id accepted in `allow(<id>)` comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::NondetTime => "nondet-time",
            Rule::NoPanic => "no-panic",
            Rule::LossyFloatCast => "lossy-float-cast",
            Rule::SuppressionWithoutReason => "suppression-without-reason",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        match id {
            "hash-collections" => Some(Rule::HashCollections),
            "nondet-time" => Some(Rule::NondetTime),
            "no-panic" => Some(Rule::NoPanic),
            "lossy-float-cast" => Some(Rule::LossyFloatCast),
            _ => None,
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Path the file was scanned under (as passed to [`lint_file`]).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that no `allow(...)` comment covered.
    pub findings: Vec<Finding>,
    /// Count of findings that were suppressed with a reason.
    pub suppressed: usize,
}

/// A parsed `// resparc-lint: allow(rule, reason = "...")` comment.
#[derive(Debug)]
struct Suppression {
    rule: Rule,
    has_reason: bool,
    /// The line whose findings this suppression covers.
    covers_line: u32,
    /// Where the comment itself sits (for reporting missing reasons).
    comment_line: u32,
}

/// Which rule sets apply to a file, derived from its repo-relative
/// path. Mirrors the scoping in the ISSUE: panics are forbidden in
/// `core`/`workloads` library paths, time/entropy everywhere but
/// `crates/bench`, hash collections everywhere, lossy casts in the
/// energy-accounting modules.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    hash_collections: bool,
    nondet_time: bool,
    no_panic: bool,
    lossy_float_cast: bool,
}

impl Scope {
    /// Derives the applicable rules from a repo-relative path like
    /// `crates/core/src/fabric/pool.rs`.
    pub fn for_path(path: &str) -> Scope {
        let p = path.replace('\\', "/");
        let in_bench = p.starts_with("crates/bench/");
        let no_panic = p.starts_with("crates/core/src/") || p.starts_with("crates/workloads/src/");
        let lossy = p.starts_with("crates/energy/src/") || p.starts_with("crates/core/src/sim");
        Scope {
            hash_collections: true,
            nondet_time: !in_bench,
            no_panic,
            lossy_float_cast: lossy,
        }
    }
}

/// Lints one file's source text. `path` is the repo-relative path used
/// for scoping and reporting.
pub fn lint_file(path: &str, source: &str) -> FileReport {
    let scope = Scope::for_path(path);
    let scanned = scan(source);
    let test_ranges = test_line_ranges(&scanned.tokens);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut raw = Vec::new();
    let toks = &scanned.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if scope.hash_collections => raw.push(Finding {
                rule: Rule::HashCollections,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "{} has nondeterministic iteration order; use BTree{} or sort before emitting",
                    t.text,
                    &t.text[4..]
                ),
            }),
            "thread_rng" | "SystemTime" if scope.nondet_time => raw.push(Finding {
                rule: Rule::NondetTime,
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "{} is nondeterministic; outside crates/bench use seeded streams",
                    t.text
                ),
            }),
            "Instant" if scope.nondet_time && next_is(toks, i, "::", "now") => raw.push(Finding {
                rule: Rule::NondetTime,
                path: path.to_string(),
                line: t.line,
                message: "Instant::now() is wall-clock; outside crates/bench model time explicitly"
                    .to_string(),
            }),
            "unwrap" | "expect"
                if scope.no_panic
                    && !in_test(t.line)
                    && prev_is_dot(toks, i)
                    && next_is_paren(toks, i) =>
            {
                raw.push(Finding {
                    rule: Rule::NoPanic,
                    path: path.to_string(),
                    line: t.line,
                    message: format!(".{}() can panic; return a typed error instead", t.text),
                })
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if scope.no_panic && !in_test(t.line) && next_is_bang(toks, i) =>
            {
                raw.push(Finding {
                    rule: Rule::NoPanic,
                    path: path.to_string(),
                    line: t.line,
                    message: format!("{}! in library code; return a typed error instead", t.text),
                })
            }
            "as" if scope.lossy_float_cast
                && !in_test(t.line)
                && toks.get(i + 1).map(|n| n.text.as_str()) == Some("f32") =>
            {
                raw.push(Finding {
                    rule: Rule::LossyFloatCast,
                    path: path.to_string(),
                    line: t.line,
                    message: "lossy `as f32` in energy accounting; keep the ledger in f64"
                        .to_string(),
                })
            }
            _ => {}
        }
    }

    apply_suppressions(path, raw, &scanned.comments)
}

/// Whether token `i` is followed by `::` then `ident`.
fn next_is(toks: &[Token], i: usize, sep: &str, ident: &str) -> bool {
    // `sep` is punctuation, scanned one char per token.
    let mut j = i + 1;
    for ch in sep.chars() {
        if toks.get(j).map(|t| t.text.as_str()) != Some(ch.to_string().as_str()) {
            return false;
        }
        j += 1;
    }
    toks.get(j).map(|t| t.text.as_str()) == Some(ident)
}

fn prev_is_dot(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].text == "."
}

fn next_is_paren(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
}

fn next_is_bang(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
}

/// Parses suppression comments and filters the raw findings through
/// them; reasonless suppressions become findings themselves.
fn apply_suppressions(path: &str, raw: Vec<Finding>, comments: &[LineComment]) -> FileReport {
    let mut suppressions = Vec::new();
    let mut report = FileReport::default();
    for c in comments {
        let Some(rest) = c
            .text
            .trim_start_matches('/')
            .trim()
            .strip_prefix("resparc-lint:")
        else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        else {
            report.findings.push(Finding {
                rule: Rule::SuppressionWithoutReason,
                path: path.to_string(),
                line: c.line,
                message: "malformed resparc-lint comment; expected allow(<rule>, reason = \"...\")"
                    .to_string(),
            });
            continue;
        };
        let rule_id = args.split(',').next().unwrap_or("").trim();
        let Some(rule) = Rule::from_id(rule_id) else {
            report.findings.push(Finding {
                rule: Rule::SuppressionWithoutReason,
                path: path.to_string(),
                line: c.line,
                message: format!("unknown lint rule `{rule_id}` in allow(...)"),
            });
            continue;
        };
        let has_reason = args.contains("reason")
            && args.split("reason").nth(1).is_some_and(|r| {
                let r = r.trim_start().trim_start_matches('=').trim_start();
                r.starts_with('"') && r.trim_end().len() > 2
            });
        // A trailing comment covers its own line; a whole-line comment
        // covers the next line.
        let covers_line = if c.trailing { c.line } else { c.line + 1 };
        suppressions.push(Suppression {
            rule,
            has_reason,
            covers_line,
            comment_line: c.line,
        });
    }

    for s in &suppressions {
        if !s.has_reason {
            report.findings.push(Finding {
                rule: Rule::SuppressionWithoutReason,
                path: path.to_string(),
                line: s.comment_line,
                message: format!(
                    "allow({}) must carry a reason = \"...\" string",
                    s.rule.id()
                ),
            });
        }
    }

    for f in raw {
        let matched = suppressions
            .iter()
            .find(|s| s.rule == f.rule && s.covers_line == f.line);
        match matched {
            Some(s) if s.has_reason => report.suppressed += 1,
            // Reasonless suppressions were already reported above; the
            // underlying finding still counts until a reason is given.
            _ => report.findings.push(f),
        }
    }
    report
}

/// Lints every `.rs` file under the workspace's source roots, returning
/// per-file reports in path order. `root` is the repo root.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<FileReport>> {
    let mut files = Vec::new();
    collect_sources(root, root, &mut files)?;
    files.sort();
    let mut reports = Vec::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        reports.push(lint_file(&rel, &source));
    }
    Ok(reports)
}

/// Recursively collects repo-relative paths of first-party `.rs`
/// sources: `crates/*/src/**` and the facade `src/**`; `vendor/` and
/// `target/` are never entered.
fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if dir == root {
                // From the root, descend only into crates/, src/, tests/.
                if name == "crates" || name == "src" || name == "tests" {
                    collect_sources(root, &path, out)?;
                }
            } else if name != "target" && name != "vendor" {
                collect_sources(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Rule> {
        lint_file(path, src)
            .findings
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn hash_collections_flagged_everywhere() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let fs = findings("crates/workloads/src/sweep.rs", src);
        assert_eq!(fs.len(), 3);
        assert!(fs.iter().all(|r| *r == Rule::HashCollections));
        // Negative: BTreeMap is fine.
        assert!(findings(
            "crates/workloads/src/sweep.rs",
            "use std::collections::BTreeMap;"
        )
        .is_empty());
    }

    #[test]
    fn nondet_time_scoped_to_non_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(
            findings("crates/core/src/sim.rs", src),
            vec![Rule::NondetTime]
        );
        assert!(findings("crates/bench/src/lib.rs", src).is_empty());
        // `Instant` as a plain type annotation is fine; only ::now() fires.
        assert!(findings("crates/core/src/sim.rs", "fn g(t: Instant) {}").is_empty());
        assert_eq!(
            findings(
                "crates/workloads/src/seed.rs",
                "let r = rand::thread_rng();"
            ),
            vec![Rule::NondetTime]
        );
    }

    #[test]
    fn no_panic_scoped_to_core_and_workloads_library_code() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(findings("crates/core/src/hw.rs", src), vec![Rule::NoPanic]);
        assert_eq!(
            findings(
                "crates/workloads/src/churn.rs",
                "fn f() { panic!(\"boom\") }"
            ),
            vec![Rule::NoPanic]
        );
        // Out of scope: other crates may panic.
        assert!(findings("crates/figures/src/lib.rs", src).is_empty());
        // unwrap_or / unwrap_or_else are not panics.
        assert!(findings(
            "crates/core/src/hw.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }"
        )
        .is_empty());
        // assert! stays allowed (documented contracts).
        assert!(findings("crates/core/src/hw.rs", "fn f() { assert!(true); }").is_empty());
    }

    #[test]
    fn no_panic_skips_cfg_test_modules() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { None::<u32>.unwrap(); }\n}";
        assert!(findings("crates/core/src/hw.rs", src).is_empty());
    }

    #[test]
    fn lossy_float_cast_scoped_to_energy() {
        let src = "fn f(x: f64) -> f32 { x as f32 }";
        assert_eq!(
            findings("crates/energy/src/lib.rs", src),
            vec![Rule::LossyFloatCast]
        );
        assert!(findings("crates/neuro/src/kernel.rs", src).is_empty());
        // Widening is fine.
        assert!(findings(
            "crates/energy/src/lib.rs",
            "fn g(x: f32) -> f64 { x as f64 }"
        )
        .is_empty());
    }

    #[test]
    fn suppression_with_reason_silences_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // resparc-lint: allow(no-panic, reason = \"contract: caller checked\")\n    x.unwrap()\n}";
        let report = lint_file("crates/core/src/hw.rs", src);
        assert!(report.findings.is_empty());
        assert_eq!(report.suppressed, 1);
        // Trailing form works too.
        let src2 = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // resparc-lint: allow(no-panic, reason = \"checked\")";
        let r2 = lint_file("crates/core/src/hw.rs", src2);
        assert!(r2.findings.is_empty());
        assert_eq!(r2.suppressed, 1);
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // resparc-lint: allow(no-panic)\n    x.unwrap()\n}";
        let report = lint_file("crates/core/src/hw.rs", src);
        let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&Rule::SuppressionWithoutReason));
        // The underlying finding still stands.
        assert!(rules.contains(&Rule::NoPanic));
        assert_eq!(report.suppressed, 0);
    }

    #[test]
    fn unknown_rule_in_allow_is_reported() {
        let src = "// resparc-lint: allow(no-such-rule, reason = \"x\")\nfn f() {}";
        let report = lint_file("crates/core/src/hw.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, Rule::SuppressionWithoutReason);
    }

    #[test]
    fn suppression_does_not_leak_to_other_lines() {
        let src = "// resparc-lint: allow(no-panic, reason = \"first only\")\nlet a = x.unwrap();\nlet b = y.unwrap();";
        let report = lint_file("crates/core/src/hw.rs", src);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 3);
    }
}
