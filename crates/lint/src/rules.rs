//! The rule passes. Each rule is a scoped scan over a
//! [`SourceFile`]'s token stream; every rule here is grounded in a bug
//! this workspace actually shipped or reviewed out (see
//! `docs/LINTS.md` for the catalog and history).

use crate::lexer::TokenKind;
use crate::{SourceFile, Tok, Violation, JSON_READER};

/// Run every rule against one analyzed file.
pub fn run_all(file: &SourceFile, violations: &mut Vec<Violation>) {
    panic_freedom(file, violations);
    no_unchecked_narrowing(file, violations);
    capped_allocation(file, violations);
    no_hidden_syscalls(file, violations);
    no_stray_io(file, violations);
}

/// Paths whose non-test code must be panic-free: everything a
/// connection thread can reach.
fn panic_scope(path: &str) -> bool {
    path.starts_with("crates/server/src")
        || path.starts_with("crates/wire/src")
        || path.starts_with("crates/core/src")
        || path == JSON_READER
}

/// Paths that decode untrusted wire bytes: narrowing casts and
/// allocations there answer to a hostile peer.
fn wire_decode_scope(path: &str) -> bool {
    path.starts_with("crates/wire/src") || path == "crates/server/src/v3.rs" || path == JSON_READER
}

fn report(
    violations: &mut Vec<Violation>,
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) {
    if !file.is_allowed(rule, line) {
        violations.push(Violation {
            rule,
            path: file.rel_path.clone(),
            line,
            message,
        });
    }
}

fn ident_at(toks: &[Tok], idx: usize, text: &str) -> bool {
    toks.get(idx)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(toks: &[Tok], idx: usize, text: &str) -> bool {
    toks.get(idx)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// Token index of the delimiter closing the one at `open`, if any.
fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let (open_text, close_text) = match toks[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.text == open_text {
            depth += 1;
        } else if t.text == close_text {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// **panic-freedom** — no `.unwrap()` / `.expect(…)` / `panic!` /
/// `unreachable!` / `todo!` / `unimplemented!` in non-test
/// server/wire/core code. A panic on a connection thread kills that
/// client's session at best; return a typed `ErrorCode` / `WireError`
/// instead, or justify the genuinely-infallible case with
/// `lint:allow(panic-freedom): why`.
fn panic_freedom(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !panic_scope(&file.rel_path) {
        return;
    }
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect"
                if i > 0 && punct_at(toks, i - 1, ".") && punct_at(toks, i + 1, "(") =>
            {
                report(
                    violations,
                    file,
                    "panic-freedom",
                    t.line,
                    format!(
                        ".{}() can panic on a request path — return a typed \
                         error (ErrorCode / WireError) instead",
                        t.text
                    ),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if punct_at(toks, i + 1, "!") => {
                report(
                    violations,
                    file,
                    "panic-freedom",
                    t.line,
                    format!(
                        "{}! can take down a connection thread — return a \
                         typed error instead",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

/// **no-unchecked-narrowing** — no `as usize` / `as u32` in wire-decode
/// scope. A wire-declared length narrowed with `as` silently truncates
/// on 32-bit targets and skips the bounds discipline entirely; use
/// `try_from` (surfacing `WireError::Corrupt`) or a capped helper.
fn no_unchecked_narrowing(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !wire_decode_scope(&file.rel_path) {
        return;
    }
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || !(t.kind == TokenKind::Ident && t.text == "as") {
            continue;
        }
        for target in ["usize", "u32"] {
            if ident_at(toks, i + 1, target) {
                report(
                    violations,
                    file,
                    "no-unchecked-narrowing",
                    t.line,
                    format!(
                        "raw `as {target}` cast in wire-decode scope — use \
                         try_from (surfacing WireError::Corrupt) or a \
                         compile-time-guarded conversion"
                    ),
                );
            }
        }
    }
}

/// Does this token mark an allocation argument as bounded? Accepts
/// integer literals, SCREAMING_CASE consts (`MAX_FRAME_BYTES`,
/// `HEADER_LEN`), and `.len()`/`.min()`/`.capacity()` chains rooted in
/// existing buffers.
fn bounded_arg_token(toks: &[Tok], idx: usize) -> bool {
    let t = &toks[idx];
    match t.kind {
        TokenKind::Num => true,
        TokenKind::Ident => {
            let screaming = t.text.len() > 1 && !t.text.chars().any(|c| c.is_ascii_lowercase());
            (screaming && t.text.chars().any(|c| c.is_ascii_uppercase()))
                || (matches!(t.text.as_str(), "len" | "min" | "capacity")
                    && idx > 0
                    && punct_at(toks, idx - 1, "."))
        }
        _ => false,
    }
}

/// Does the enclosing function establish a cap before `site` — a
/// `MAX_*`-style const comparison or a `checked_len`/`checked_count`
/// call?
fn capped_earlier_in_fn(file: &SourceFile, site: usize) -> bool {
    let Some(span) = file.enclosing_fn(site) else {
        return false;
    };
    file.toks[span.start..site].iter().any(|t| {
        t.kind == TokenKind::Ident
            && (matches!(t.text.as_str(), "checked_len" | "checked_count")
                || (t.text.len() > 1
                    && !t.text.chars().any(|c| c.is_ascii_lowercase())
                    && t.text.contains("MAX")))
    })
}

/// **capped-allocation** — `with_capacity` / `reserve` / `vec![_; n]`
/// in wire-decode scope must sit under a named bound. PR 6's review
/// caught a wire-declared scenario count driving a ~200 GB
/// `Vec::with_capacity` before any validation; this rule pins that
/// class: the allocation's size must be a literal, a `MAX_*`/`*_LEN`
/// const, derived from an existing buffer's `.len()`, or preceded in
/// the same function by a cap check (`MAX_*` comparison or
/// `checked_len`/`checked_count`).
fn capped_allocation(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !wire_decode_scope(&file.rel_path) {
        return;
    }
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        // (what, arg_start..arg_end) token range of the size expression.
        let alloc = match t.text.as_str() {
            "with_capacity" | "reserve" | "reserve_exact" if punct_at(toks, i + 1, "(") => {
                matching_close(toks, i + 1).map(|close| (t.text.clone(), i + 2, close))
            }
            "vec" if punct_at(toks, i + 1, "!") && punct_at(toks, i + 2, "[") => {
                // vec![elem; n] — the size expression follows the
                // top-level `;`; a plain list vec![a, b] allocates only
                // what it holds and is exempt.
                matching_close(toks, i + 2).and_then(|close| {
                    let mut depth = 0i32;
                    (i + 3..close)
                        .find(|&k| {
                            match toks[k].text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                ";" if depth == 0 => return true,
                                _ => {}
                            }
                            false
                        })
                        .map(|semi| ("vec![_; n]".to_owned(), semi + 1, close))
                })
            }
            _ => None,
        };
        let Some((what, arg_start, arg_end)) = alloc else {
            continue;
        };
        let bounded = (arg_start..arg_end).any(|k| bounded_arg_token(toks, k))
            || capped_earlier_in_fn(file, i);
        if !bounded {
            report(
                violations,
                file,
                "capped-allocation",
                t.line,
                format!(
                    "{what} sized by an unbounded expression in wire-decode \
                     scope — cap it against a MAX_* const or derive it via \
                     checked_len/checked_count first"
                ),
            );
        }
    }
}

/// **no-hidden-syscalls** — `Instant::now` / `SystemTime::now` /
/// `available_parallelism` outside their two blessed homes:
/// `obs::clock` (the TSC-calibrated clock) and
/// `forest::hardware_parallelism` (the cached probe). PR 6 found an
/// `available_parallelism` syscall (~10µs, cgroup-aware) silently
/// taxing every predict call; this rule pins that fix forever.
fn no_hidden_syscalls(file: &SourceFile, violations: &mut Vec<Violation>) {
    if file.rel_path == "crates/obs/src/clock.rs" {
        return; // the one module allowed to touch the wall clock
    }
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "now"
            && i >= 3
            && punct_at(toks, i - 1, ":")
            && punct_at(toks, i - 2, ":")
            && toks[i - 3].kind == TokenKind::Ident
            && matches!(toks[i - 3].text.as_str(), "Instant" | "SystemTime")
        {
            report(
                violations,
                file,
                "no-hidden-syscalls",
                t.line,
                format!(
                    "{}::now() outside obs::clock — route timing through the \
                     calibrated clock (whatif_obs::clock) so hot paths never \
                     pay a hidden syscall",
                    toks[i - 3].text
                ),
            );
        }
        if t.text == "available_parallelism"
            && file
                .enclosing_fn(i)
                .is_none_or(|f| f.name != "hardware_parallelism")
        {
            report(
                violations,
                file,
                "no-hidden-syscalls",
                t.line,
                "available_parallelism() is a ~10µs cgroup-aware syscall — \
                 use whatif_learn::forest::hardware_parallelism(), which \
                 probes once per process"
                    .to_owned(),
            );
        }
    }
}

/// **no-stray-io** — no `println!` / `eprintln!` / `print!` /
/// `eprint!` / `dbg!` in library/server code. Raw writes bypass the
/// structured logger's levels, its ring buffer, and its JSON shape;
/// route output through `whatif_obs::logger()`. (The lint binary's own
/// report printer is the one exception: stdout *is* its interface.)
fn no_stray_io(file: &SourceFile, violations: &mut Vec<Violation>) {
    if file.rel_path == "crates/lint/src/main.rs" {
        return;
    }
    let toks = &file.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        if matches!(
            t.text.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        ) && punct_at(toks, i + 1, "!")
        {
            report(
                violations,
                file,
                "no-stray-io",
                t.line,
                format!(
                    "{}! bypasses the structured logger — emit through \
                     whatif_obs::logger() (Record::new(level, event)…) instead",
                    t.text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    const PANIC_FIXTURE: &str = include_str!("../fixtures/panic_freedom.rs");
    const NARROWING_FIXTURE: &str = include_str!("../fixtures/narrowing.rs");
    const ALLOC_FIXTURE: &str = include_str!("../fixtures/alloc.rs");
    const SYSCALLS_FIXTURE: &str = include_str!("../fixtures/syscalls.rs");
    const STRAY_IO_FIXTURE: &str = include_str!("../fixtures/stray_io.rs");
    const SUPPRESSED_FIXTURE: &str = include_str!("../fixtures/suppressed.rs");

    fn rules_fired(rel_path: &str, src: &str) -> Vec<&'static str> {
        lint_source(rel_path, src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn panic_freedom_fires_on_every_seeded_form() {
        let fired = rules_fired("crates/server/src/fixture.rs", PANIC_FIXTURE);
        assert_eq!(
            fired.iter().filter(|r| **r == "panic-freedom").count(),
            5,
            "unwrap, expect, panic!, unreachable!, todo! each fire: {fired:?}"
        );
    }

    #[test]
    fn panic_freedom_is_scoped_and_test_exempt() {
        // Same code outside server/wire/core: silent.
        assert!(rules_fired("crates/stats/src/fixture.rs", PANIC_FIXTURE).is_empty());
        // Inside #[cfg(test)]: silent.
        let gated = format!("#[cfg(test)]\nmod tests {{\n{PANIC_FIXTURE}\n}}\n");
        assert!(rules_fired("crates/server/src/fixture.rs", &gated).is_empty());
        // unwrap_or_else is not unwrap.
        assert!(rules_fired(
            "crates/server/src/fixture.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n"
        )
        .is_empty());
    }

    #[test]
    fn narrowing_fires_in_wire_scope_only() {
        let fired = rules_fired("crates/wire/src/fixture.rs", NARROWING_FIXTURE);
        assert_eq!(
            fired
                .iter()
                .filter(|r| **r == "no-unchecked-narrowing")
                .count(),
            2,
            "as usize and as u32 each fire: {fired:?}"
        );
        let v3 = rules_fired("crates/server/src/v3.rs", NARROWING_FIXTURE);
        assert!(!v3.is_empty(), "v3.rs is in scope");
        assert!(
            rules_fired("crates/server/src/engine.rs", NARROWING_FIXTURE).is_empty(),
            "the rest of the server is not"
        );
    }

    #[test]
    fn narrowing_ignores_widening_and_tests() {
        assert!(rules_fired(
            "crates/wire/src/fixture.rs",
            "fn f(x: u32) -> u64 { x as u64 }\n"
        )
        .is_empty());
        let gated = format!("#[cfg(test)]\nmod tests {{\n{NARROWING_FIXTURE}\n}}\n");
        assert!(rules_fired("crates/wire/src/fixture.rs", &gated).is_empty());
    }

    #[test]
    fn capped_allocation_fires_on_unbounded_sizes() {
        let fired = rules_fired("crates/wire/src/fixture.rs", ALLOC_FIXTURE);
        assert_eq!(
            fired.iter().filter(|r| **r == "capped-allocation").count(),
            3,
            "with_capacity, reserve, vec![_; n] each fire: {fired:?}"
        );
    }

    #[test]
    fn capped_allocation_accepts_bounds() {
        let ok = "const MAX_ROWS: usize = 4096;\n\
             fn a(n: usize) -> Vec<u8> { Vec::with_capacity(n.min(MAX_ROWS)) }\n\
             fn b(n: usize) -> Vec<u8> {\n\
                 if n > MAX_ROWS { return Vec::new(); }\n\
                 vec![0u8; n]\n\
             }\n\
             fn c(buf: &[u8]) -> Vec<u8> { Vec::with_capacity(buf.len()) }\n\
             fn d() -> Vec<u8> { Vec::with_capacity(64) }\n\
             fn e(r: &mut Reader) -> Vec<u8> {\n\
                 let n = r.checked_count(\"rows\", 8).unwrap_or(0);\n\
                 Vec::with_capacity(n)\n\
             }\n";
        assert!(
            rules_fired("crates/wire/src/fixture.rs", ok).is_empty(),
            "{:?}",
            lint_source("crates/wire/src/fixture.rs", ok)
        );
    }

    #[test]
    fn hidden_syscalls_fire_everywhere_but_the_blessed_homes() {
        let fired = rules_fired("crates/server/src/fixture.rs", SYSCALLS_FIXTURE);
        assert_eq!(
            fired.iter().filter(|r| **r == "no-hidden-syscalls").count(),
            3,
            "Instant::now, SystemTime::now, available_parallelism: {fired:?}"
        );
        assert!(
            rules_fired("crates/obs/src/clock.rs", SYSCALLS_FIXTURE).is_empty(),
            "obs::clock is the blessed wall-clock module"
        );
        let blessed = "pub fn hardware_parallelism() -> usize {\n\
             std::thread::available_parallelism().map_or(1, |n| n.get())\n\
             }\n";
        assert!(
            rules_fired("crates/learn/src/forest.rs", blessed).is_empty(),
            "the cached probe itself is allowed"
        );
    }

    #[test]
    fn stray_io_fires_outside_the_logger() {
        let fired = rules_fired("crates/core/src/fixture.rs", STRAY_IO_FIXTURE);
        assert_eq!(
            fired.iter().filter(|r| **r == "no-stray-io").count(),
            3,
            "println!, eprintln!, dbg! each fire: {fired:?}"
        );
        assert!(
            rules_fired("crates/lint/src/main.rs", STRAY_IO_FIXTURE).is_empty(),
            "the lint binary's report printer is exempt"
        );
    }

    #[test]
    fn the_json_reader_is_in_every_decode_scope() {
        let path = crate::JSON_READER;
        let count = |src: &str, rule: &str| {
            rules_fired(path, src)
                .into_iter()
                .filter(|r| *r == rule)
                .count()
        };
        assert_eq!(count(PANIC_FIXTURE, "panic-freedom"), 5);
        assert_eq!(count(NARROWING_FIXTURE, "no-unchecked-narrowing"), 2);
        assert_eq!(count(ALLOC_FIXTURE, "capped-allocation"), 3);
        assert!(
            rules_fired("crates/compat/serde/src/lib.rs", PANIC_FIXTURE).is_empty(),
            "the rest of the facade is not"
        );
    }

    #[test]
    fn suppressions_silence_with_justification() {
        // v3.rs is the one path inside every rule's scope at once.
        let violations = lint_source("crates/server/src/v3.rs", SUPPRESSED_FIXTURE);
        assert!(
            violations.is_empty(),
            "justified lint:allow comments silence every rule: {violations:?}"
        );
    }

    #[test]
    fn reasonless_suppression_is_itself_reported() {
        let src = "fn f(x: Option<u32>) -> u32 {\n\
             // lint:allow(panic-freedom)\n\
             x.unwrap()\n\
             }\n";
        let violations = lint_source("crates/server/src/fixture.rs", src);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.rule == "lint-allow"));
        assert!(
            violations.iter().any(|v| v.rule == "panic-freedom"),
            "a reasonless allow does not suppress"
        );
    }
}
