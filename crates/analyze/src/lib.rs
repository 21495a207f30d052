//! `stdchk-analyze`: the workspace's invariants as deny-by-default lints.
//!
//! Generic linters cannot know that a `sync_data` is fine on a lane
//! thread but a stall-everyone bug on a reactor worker, or that every
//! [`Msg`](../stdchk_proto/msg/enum.Msg.html) variant must be exercised
//! by a garbage-decode proptest. This crate encodes exactly those
//! project rules — each one earned by a real incident in this repo's
//! history — and `cargo run -p stdchk-analyze -- --deny` enforces them
//! in CI:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-blocking-on-pump` | modules whose code runs on reactor workers (the pump) never fsync, dial, or block on socket reads — durable work rides the I/O lane, dials ride the blocking lane (the PR 5 split) |
//! | `unsafe-needs-safety` | every `unsafe` in the FFI/intrinsics modules carries a `// SAFETY:` comment within the three lines above it |
//! | `no-unwrap-on-hot-paths` | no `.unwrap()` / `.expect(` in pump-adjacent modules: errors there must propagate or fail-stop with an actionable message, never panic a half-alive server |
//! | `wire-msg-coverage` | every `Msg` tag and every concrete `Wire` impl is referenced by the proto test suite (the garbage-decode/roundtrip proptests) |
//!
//! A violation is suppressed only by an inline justification on the
//! same or the immediately preceding line:
//!
//! ```text
//! // stdchk-allow(no-unwrap-on-hot-paths): active segment always exists — rotate inserts before publishing
//! let seg = shared.segs.get_mut(&active).expect("active segment");
//! ```
//!
//! A `stdchk-allow` without a non-empty reason is itself a violation:
//! the point is a reviewable justification, not an escape hatch.
//!
//! The scan is lexical, not syntactic — string/char literals and
//! comments are blanked before token matching, `#[cfg(test)]` modules
//! are skipped (test code may unwrap), and tokens are matched on
//! identifier boundaries — which keeps the analyzer dependency-free and
//! fast enough to run on every commit. The price is that it lints named
//! files, not call graphs: a rule's file list says "code in this module
//! can run on a pump thread", and helpers a pump-reachable module calls
//! into must either be listed too or be the blocking layer the rule is
//! protecting (see `RULES` in the source for each list and its
//! rationale).

use std::fmt;
use std::path::{Path, PathBuf};

mod scan;
pub use scan::ScrubbedFile;

/// One rule finding, pointing at a workspace-relative file and 1-based
/// line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (the `stdchk-allow` key).
    pub rule: &'static str,
    /// Human-oriented description of what tripped.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// `no-blocking-on-pump`: modules with reactor-worker-reachable code.
///
/// These files contain code invoked from reactor worker callbacks (app
/// `on_msg`/`on_close`/`on_tick`, effects executors, the driver pump).
/// Blocking there stalls every connection the worker owns. The blocking
/// *layer itself* — `conn.rs` (dial/read primitives), `iolane.rs`,
/// `log.rs`/`store`/`metalog.rs` (the durable engines the lane runs) —
/// is deliberately not listed: those modules exist to block, on threads
/// that are allowed to.
const PUMP_FILES: &[&str] = &[
    "crates/net/src/reactor.rs",
    "crates/net/src/driver.rs",
    "crates/net/src/manager_server.rs",
    "crates/net/src/benefactor_server.rs",
    "crates/net/src/client.rs",
];

/// Tokens that block: fsyncs, dials, bounded-or-not socket reads.
const BLOCKING_TOKENS: &[&str] = &[".sync_data(", ".sync_all(", "dial(", "read_frame_timeout("];

/// `unsafe-needs-safety`: the workspace's entire unsafe surface.
const UNSAFE_FILES: &[&str] = &[
    "crates/net/src/reactor.rs",
    "crates/util/src/crc32.rs",
    "crates/util/src/sha256.rs",
];

/// `no-unwrap-on-hot-paths`: pump workers plus the storage engines their
/// durable work lands in — a panic in any of these unwinds a thread the
/// rest of the server silently depends on (flusher, lane worker, pump).
const HOT_FILES: &[&str] = &[
    "crates/net/src/reactor.rs",
    "crates/net/src/iolane.rs",
    "crates/net/src/driver.rs",
    "crates/net/src/log.rs",
    "crates/net/src/metalog.rs",
    "crates/net/src/store/mod.rs",
    "crates/net/src/store/segment.rs",
];

/// Every rule this analyzer enforces (the `--list-rules` output).
pub const RULES: &[(&str, &str)] = &[
    (
        "no-blocking-on-pump",
        "no fsync/dial/blocking-read tokens in reactor-worker-reachable modules",
    ),
    (
        "unsafe-needs-safety",
        "every `unsafe` in the FFI/intrinsics modules carries a // SAFETY: comment",
    ),
    (
        "no-unwrap-on-hot-paths",
        "no .unwrap()/.expect( in pump/storage-engine modules (propagate or fail-stop)",
    ),
    (
        "wire-msg-coverage",
        "every Msg tag and concrete Wire impl is referenced by the proto test suite",
    ),
];

/// Runs every rule against the workspace rooted at `root`, returning
/// all unsuppressed violations (plus one violation per reason-less
/// `stdchk-allow`).
pub fn run(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    for rel in PUMP_FILES {
        scan_tokens(
            root,
            rel,
            "no-blocking-on-pump",
            BLOCKING_TOKENS,
            "blocking call on a pump-reachable path; durable work rides the IoLane, dials ride the blocking lane",
            &mut out,
        );
    }
    for rel in UNSAFE_FILES {
        unsafe_needs_safety(root, rel, &mut out);
    }
    for rel in HOT_FILES {
        scan_tokens(
            root,
            rel,
            "no-unwrap-on-hot-paths",
            &[".unwrap()", ".expect("],
            "panic on a pump/flusher/lane thread leaves a half-alive server; propagate the error or fail-stop with an actionable message",
            &mut out,
        );
    }
    wire_msg_coverage(root, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// True when the token hit at `start` is not glued to a preceding
/// identifier character (so `redial(` is not a `dial(` hit). Tokens
/// that open with punctuation (`.unwrap()`) need no such check — a
/// method call is always preceded by its receiver.
fn boundary_ok(line: &str, start: usize, token: &str) -> bool {
    if !token
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
    {
        return true;
    }
    match line[..start].chars().next_back() {
        Some(c) => !(c.is_alphanumeric() || c == '_'),
        None => true,
    }
}

/// Reports every occurrence of any of `tokens` in non-test code of
/// `rel`, honoring suppressions.
fn scan_tokens(
    root: &Path,
    rel: &str,
    rule: &'static str,
    tokens: &[&str],
    why: &str,
    out: &mut Vec<Violation>,
) {
    let Some(sf) = load(root, rel) else { return };
    for (idx, code) in sf.code.iter().enumerate() {
        if sf.test_mask[idx] {
            continue;
        }
        for tok in tokens {
            let mut from = 0;
            while let Some(pos) = code[from..].find(tok) {
                let at = from + pos;
                from = at + tok.len();
                if !boundary_ok(code, at, tok) {
                    continue;
                }
                push_checked(
                    &sf,
                    rel,
                    idx,
                    rule,
                    format!("`{}` — {}", tok.trim_end_matches('('), why),
                    out,
                );
            }
        }
    }
}

/// The `unsafe-needs-safety` rule: each `unsafe` keyword in non-test
/// code must have `SAFETY:` in a comment on its own line or the three
/// above it.
fn unsafe_needs_safety(root: &Path, rel: &str, out: &mut Vec<Violation>) {
    let Some(sf) = load(root, rel) else { return };
    for (idx, code) in sf.code.iter().enumerate() {
        if sf.test_mask[idx] {
            continue;
        }
        let mut from = 0;
        while let Some(pos) = code[from..].find("unsafe") {
            let at = from + pos;
            from = at + "unsafe".len();
            if !boundary_ok(code, at, "unsafe") {
                continue;
            }
            // Whole-token: `unsafe_op_in_unsafe_fn` and friends are
            // identifiers, not the keyword.
            if code[at + "unsafe".len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            // Accept `SAFETY:` (a block-site justification) or
            // `# Safety` (an `unsafe fn`'s doc contract) on the same
            // line or anywhere in the contiguous comment block
            // immediately above it.
            let documented = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
            let mut covered = documented(&sf.comments[idx]);
            let mut i = idx;
            while !covered && i > 0 {
                i -= 1;
                // Walk through comment lines and attributes (an
                // `unsafe fn`'s doc contract sits above its
                // `#[target_feature]` etc.).
                let code = sf.code[i].trim();
                let comment_only = !sf.comments[i].trim().is_empty() && code.is_empty();
                if !(comment_only || code.starts_with("#[")) {
                    break;
                }
                covered = documented(&sf.comments[i]);
            }
            if !covered {
                push_checked(
                    &sf,
                    rel,
                    idx,
                    "unsafe-needs-safety",
                    "`unsafe` without a `// SAFETY:` comment on the preceding lines".into(),
                    out,
                );
            }
        }
    }
}

/// The `wire-msg-coverage` rule: collect every `Msg` tag name from the
/// `msg_tags!` table and every concrete `impl Wire for T` target, then
/// require each name to appear somewhere in `crates/proto/tests/`.
fn wire_msg_coverage(root: &Path, out: &mut Vec<Violation>) {
    let msg_rel = "crates/proto/src/msg.rs";
    let Some(msg_sf) = load(root, msg_rel) else {
        return;
    };
    // (name, file, line) of everything that must be exercised.
    let mut required: Vec<(String, &str, usize)> = Vec::new();
    let mut in_tags = false;
    for (idx, code) in msg_sf.code.iter().enumerate() {
        if code.contains("msg_tags!") {
            in_tags = true;
            continue;
        }
        if in_tags {
            if code.contains('}') {
                in_tags = false;
                continue;
            }
            // `    14 => CommitChunkMap,`
            if let Some((_, name)) = code.split_once("=>") {
                let name = name.trim().trim_end_matches(',').trim();
                if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                    required.push((name.to_string(), msg_rel, idx + 1));
                }
            }
        }
    }
    for rel in [
        "crates/proto/src/msg.rs",
        "crates/proto/src/codec.rs",
        "crates/proto/src/meta.rs",
    ] {
        let Some(sf) = load(root, rel) else { continue };
        for (idx, code) in sf.code.iter().enumerate() {
            if sf.test_mask[idx] || code.contains('$') {
                // `$` lines are macro templates (`impl Wire for $t`),
                // instantiated elsewhere; the `wire_u64_id!` id newtypes
                // they expand to are covered via the messages carrying
                // them.
                continue;
            }
            let Some(pos) = code.find("impl Wire for ") else {
                continue;
            };
            let target = code[pos + "impl Wire for ".len()..].trim();
            let name: String = target
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                required.push((name, rel, idx + 1));
            }
        }
    }
    // One haystack: every test source under crates/proto/tests.
    let mut haystack = String::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates/proto/tests")) {
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        paths.sort();
        for p in paths {
            if let Ok(s) = std::fs::read_to_string(&p) {
                // Scrubbed code only: a commented-out or stringified
                // mention is not coverage.
                for line in ScrubbedFile::new(&s).code {
                    haystack.push_str(&line);
                    haystack.push('\n');
                }
            }
        }
    }
    for (name, rel, line) in required {
        let hit = haystack.match_indices(&name).any(|(at, _)| {
            boundary_ok(&haystack, at, &name)
                && !haystack[at + name.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
        });
        if !hit {
            // Suppressions live at the declaration site.
            let sf = load(root, rel).expect("declaring file was just read");
            push_checked(
                &sf,
                rel,
                line - 1,
                "wire-msg-coverage",
                format!(
                    "`{name}` is never referenced by crates/proto/tests — add it to the \
                     garbage-decode/roundtrip proptests"
                ),
                out,
            );
        }
    }
}

/// Appends the violation unless a well-formed suppression covers
/// `idx`; a matching suppression with an empty reason is reported
/// instead (justifications are the point).
fn push_checked(
    sf: &ScrubbedFile,
    rel: &str,
    idx: usize,
    rule: &'static str,
    msg: String,
    out: &mut Vec<Violation>,
) {
    for i in [idx, idx.saturating_sub(1)] {
        if let Some(rest) = sf.comments[i].split("stdchk-allow(").nth(1) {
            if let Some((key, after)) = rest.split_once(')') {
                if key.trim() == rule {
                    let reason = after.trim_start().strip_prefix(':').unwrap_or("").trim();
                    if reason.is_empty() {
                        out.push(Violation {
                            file: rel.to_string(),
                            line: i + 1,
                            rule,
                            msg: format!(
                                "`stdchk-allow({rule})` without a justification — write the reason after the colon"
                            ),
                        });
                    }
                    return;
                }
            }
        }
        if i == 0 {
            break;
        }
    }
    out.push(Violation {
        file: rel.to_string(),
        line: idx + 1,
        rule,
        msg,
    });
}

/// Reads and scrubs `root/rel`; `None` when the file does not exist
/// (fixture trees contain only the files a test targets).
fn load(root: &Path, rel: &str) -> Option<ScrubbedFile> {
    let src = std::fs::read_to_string(root.join(rel)).ok()?;
    Some(ScrubbedFile::new(&src))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_rejects_identifier_prefixes() {
        // `redial(` must not count as a `dial(` hit.
        let line = "        self.schedule_mgr_redial(delay);";
        let at = line.find("dial(").unwrap();
        assert!(!boundary_ok(line, at, "dial("));
        let line2 = "        let s = dial(&addr, t)?;";
        assert!(boundary_ok(line2, line2.find("dial(").unwrap(), "dial("));
        // Method tokens are never glued to their receiver.
        let line3 = "        let v = conn.unwrap();";
        assert!(boundary_ok(
            line3,
            line3.find(".unwrap()").unwrap(),
            ".unwrap()"
        ));
    }
}
