//! `whatif-lint`: in-tree static analysis over the workspace's own
//! sources.
//!
//! The workspace's recurring bug classes are mechanical — an unchecked
//! wire-declared length driving a huge allocation, a hidden syscall on
//! the predict hot path, a `panic!` reachable from a connection thread
//! — so they are caught by machine, every CI run, instead of by review.
//! [`lexer`] tokenizes each source file (no `syn`, no dependencies) and
//! [`rules`] runs per-rule token-stream passes over it; this module
//! owns the shared analysis: which files to scan, `#[cfg(test)]` region
//! marking, function spans, and `lint:allow` suppressions.
//!
//! # Suppressing a finding
//!
//! ```text
//! // lint:allow(panic-freedom): slot was inserted two lines up
//! let entry = map.get(&key).expect("just inserted");
//! ```
//!
//! A suppression comment applies to its own line and the line directly
//! below, must name the rule, and must carry a non-empty `: reason` —
//! a reasonless or unknown-rule `lint:allow` is itself reported.
//!
//! Run as a binary (`cargo run -p whatif-lint`) or through the tier-1
//! suite (`cargo test -q --test lint`); both call [`lint_workspace`].

pub mod lexer;
pub mod rules;

use lexer::{lex, Token, TokenKind};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The rule names a suppression comment may reference.
pub const KNOWN_RULES: [&str; 5] = [
    "panic-freedom",
    "no-unchecked-narrowing",
    "capped-allocation",
    "no-hidden-syscalls",
    "no-stray-io",
];

/// One finding: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated rule (one of [`KNOWN_RULES`], or `lint-allow` for
    /// malformed suppression comments).
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A significant (non-comment) token plus its analysis flags.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexical class (never a comment kind).
    pub kind: TokenKind,
    /// Verbatim text.
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// Inside a `#[cfg(test)]` / `#[test]` item (tests are exempt from
    /// most rules — a test may unwrap and print freely).
    pub in_test: bool,
}

/// Token-index range of one `fn` item's body (`fn` keyword to closing
/// brace), used for enclosing-function lookups.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Index of the `fn` keyword token.
    pub start: usize,
    /// Index of the body's closing `}` token.
    pub end: usize,
}

/// One analyzed source file, ready for rule passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Significant tokens (comments stripped), in source order.
    pub toks: Vec<Tok>,
    /// `lint:allow` suppressions: line → rule names allowed on that
    /// line and the next.
    pub allows: HashMap<u32, Vec<String>>,
    /// Function spans, in source order (outer before nested).
    pub fns: Vec<FnSpan>,
}

impl SourceFile {
    /// Lex and analyze one file.
    pub fn parse(rel_path: &str, source: &str) -> (SourceFile, Vec<Violation>) {
        let mut violations = Vec::new();
        let mut allows: HashMap<u32, Vec<String>> = HashMap::new();
        let mut toks: Vec<Tok> = Vec::new();
        for token in lex(source) {
            match token.kind {
                TokenKind::LineComment | TokenKind::BlockComment => {
                    collect_allows(rel_path, &token, &mut allows, &mut violations);
                }
                kind => toks.push(Tok {
                    kind,
                    text: token.text,
                    line: token.line,
                    in_test: false,
                }),
            }
        }
        mark_test_regions(&mut toks);
        let fns = fn_spans(&toks);
        (
            SourceFile {
                rel_path: rel_path.to_owned(),
                toks,
                allows,
                fns,
            },
            violations,
        )
    }

    /// Is `rule` suppressed at `line` (by a `lint:allow` on the same
    /// line or the line above)?
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        [line, line.saturating_sub(1)].iter().any(|l| {
            self.allows
                .get(l)
                .is_some_and(|rs| rs.iter().any(|r| r == rule))
        })
    }

    /// The innermost function span containing token index `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start <= idx && idx <= f.end)
            .max_by_key(|f| f.start)
    }
}

/// Parse a suppression — `lint:allow`, a parenthesized rule name, a
/// colon, and a non-empty reason — out of a comment token. A
/// malformed suppression (unknown rule, missing/empty reason) is
/// reported instead of registered — a silent bad suppression would
/// look exactly like a clean file.
fn collect_allows(
    rel_path: &str,
    comment: &Token,
    allows: &mut HashMap<u32, Vec<String>>,
    violations: &mut Vec<Violation>,
) {
    const MARKER: &str = "lint:allow(";
    let mut rest = comment.text.as_str();
    while let Some(at) = rest.find(MARKER) {
        rest = &rest[at + MARKER.len()..];
        let Some(close) = rest.find(')') else {
            violations.push(Violation {
                rule: "lint-allow",
                path: rel_path.to_owned(),
                line: comment.line,
                message: "unterminated lint:allow(rule)".to_owned(),
            });
            return;
        };
        let rule = rest[..close].trim().to_owned();
        let after = &rest[close + 1..];
        let reason_ok = after
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        if !KNOWN_RULES.contains(&rule.as_str()) {
            violations.push(Violation {
                rule: "lint-allow",
                path: rel_path.to_owned(),
                line: comment.line,
                message: format!(
                    "lint:allow names unknown rule \"{rule}\" (known: {})",
                    KNOWN_RULES.join(", ")
                ),
            });
        } else if !reason_ok {
            violations.push(Violation {
                rule: "lint-allow",
                path: rel_path.to_owned(),
                line: comment.line,
                message: format!(
                    "lint:allow({rule}) requires a justification: \
                     `lint:allow({rule}): why this is sound`"
                ),
            });
        } else {
            allows.entry(comment.line).or_default().push(rule);
        }
        rest = after;
    }
}

/// Mark every token belonging to a `#[cfg(test)]`- or `#[test]`-gated
/// item (including whole `mod tests { … }` bodies) as `in_test`.
fn mark_test_regions(toks: &mut [Tok]) {
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[")) {
            i += 1;
            continue;
        }
        // Scan the attribute's bracket group, collecting idents.
        let mut j = i + 2;
        let mut depth = 1u32;
        let mut is_test_attr = false;
        while j < toks.len() && depth > 0 {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => depth -= 1,
                "test" if toks[j].kind == TokenKind::Ident => is_test_attr = true,
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // The gated item runs from the attribute through any further
        // attributes to the end of the next item: the matching close of
        // its first top-level `{`, or a top-level `;` (no-body item).
        let mut k = j;
        let (mut parens, mut brackets, mut braces) = (0i32, 0i32, 0i32);
        let mut opened_brace = false;
        while k < toks.len() {
            match toks[k].text.as_str() {
                "(" => parens += 1,
                ")" => parens -= 1,
                "[" => brackets += 1,
                "]" => brackets -= 1,
                "{" => {
                    braces += 1;
                    opened_brace = true;
                }
                "}" => {
                    braces -= 1;
                    if opened_brace && braces == 0 {
                        break;
                    }
                }
                ";" if !opened_brace && parens == 0 && brackets == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let end = k.min(toks.len().saturating_sub(1));
        for tok in &mut toks[i..=end] {
            tok.in_test = true;
        }
        i = end + 1;
    }
}

/// Find every `fn name … { … }` item's token span. Bodyless signatures
/// (trait declarations) are skipped.
fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue; // `fn(u32) -> u32` pointer type
        }
        // Find the body's `{` at zero paren/bracket depth (the
        // signature cannot contain braces before the body).
        let mut j = i + 2;
        let (mut parens, mut brackets) = (0i32, 0i32);
        let mut body_open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => parens += 1,
                ")" => parens -= 1,
                "[" => brackets += 1,
                "]" => brackets -= 1,
                "{" if parens == 0 && brackets == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if parens == 0 && brackets == 0 => break, // bodyless
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let mut depth = 0i32;
        let mut end = open;
        for (k, tok) in toks.iter().enumerate().skip(open) {
            match tok.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        spans.push(FnSpan {
            name: name_tok.text.clone(),
            start: i,
            end,
        });
    }
    spans
}

/// Lint one in-memory source under a workspace-relative path (rule
/// scoping keys off the path). Used by the fixture tests; the binary
/// and integration test go through [`lint_workspace`].
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let (file, mut violations) = SourceFile::parse(rel_path, source);
    rules::run_all(&file, &mut violations);
    violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    violations
}

/// Crate directories under `crates/` that the scan skips entirely:
/// vendored compat shims (external idiom, not ours to lint) and the
/// bench/study tooling, whose whole purpose is printing and timing.
pub const SKIPPED_CRATES: [&str; 3] = ["compat", "bench", "study"];

/// The compat file the scan reads anyway: the JSON pull reader parses
/// every untrusted v1/v2 line and v3 JSON body, so it answers to the
/// panic-freedom, narrowing and allocation rules like the wire crate.
pub const JSON_READER: &str = "crates/compat/serde/src/read.rs";

/// Lint every scanned workspace source under `root`. Returns all
/// violations, deterministically ordered (path, then line).
///
/// # Errors
/// Any I/O error reading the tree (missing root, unreadable file).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && !SKIPPED_CRATES
                    .iter()
                    .any(|skip| p.file_name().is_some_and(|n| n == *skip))
        })
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    files.push(root.join(JSON_READER));
    files.sort();

    let mut violations = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let (file, mut file_violations) = SourceFile::parse(&rel, &source);
        rules::run_all(&file, &mut file_violations);
        file_violations.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        violations.extend(file_violations);
    }
    Ok(violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_mod_tests() {
        let src = "fn real() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn helper() { y.unwrap(); }\n}\n\
                   fn also_real() {}\n";
        let (file, _) = SourceFile::parse("crates/server/src/x.rs", src);
        let unwraps: Vec<bool> = file
            .toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(unwraps, vec![false, true]);
        let also = file.toks.iter().find(|t| t.text == "also_real").unwrap();
        assert!(!also.in_test, "marking must end at the mod's close brace");
    }

    #[test]
    fn test_attr_covers_single_fn() {
        let src = "#[test]\nfn a_test() { x.unwrap(); }\nfn real() { y.unwrap(); }\n";
        let (file, _) = SourceFile::parse("crates/server/src/x.rs", src);
        let flags: Vec<bool> = file
            .toks
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.in_test)
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn cfg_all_test_counts_as_test() {
        let src = "#[cfg(all(test, unix))]\nfn helper() { x.unwrap(); }\n";
        let (file, _) = SourceFile::parse("crates/server/src/x.rs", src);
        assert!(
            file.toks
                .iter()
                .find(|t| t.text == "unwrap")
                .unwrap()
                .in_test
        );
    }

    #[test]
    fn allow_requires_reason_and_known_rule() {
        let (_, v) = SourceFile::parse(
            "crates/wire/src/x.rs",
            "// lint:allow(panic-freedom)\nfn f() {}\n",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("justification"), "{}", v[0].message);

        let (_, v) = SourceFile::parse(
            "crates/wire/src/x.rs",
            "// lint:allow(not-a-rule): because\nfn f() {}\n",
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown rule"), "{}", v[0].message);

        let (file, v) = SourceFile::parse(
            "crates/wire/src/x.rs",
            "// lint:allow(panic-freedom): slot inserted above\nfn f() {}\n",
        );
        assert!(v.is_empty());
        assert!(file.is_allowed("panic-freedom", 1));
        assert!(file.is_allowed("panic-freedom", 2), "next line covered");
        assert!(!file.is_allowed("panic-freedom", 3));
        assert!(!file.is_allowed("no-stray-io", 1), "other rules stay on");
    }

    #[test]
    fn fn_spans_nest_and_name() {
        let src = "fn outer() {\n  fn inner() { a(); }\n  b();\n}\nfn other() {}\n";
        let (file, _) = SourceFile::parse("crates/core/src/x.rs", src);
        assert_eq!(
            file.fns.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["outer", "inner", "other"]
        );
        let a_idx = file.toks.iter().position(|t| t.text == "a").unwrap();
        assert_eq!(file.enclosing_fn(a_idx).unwrap().name, "inner");
        let b_idx = file.toks.iter().position(|t| t.text == "b").unwrap();
        assert_eq!(file.enclosing_fn(b_idx).unwrap().name, "outer");
    }
}
