//! `warpstl xlint` — the workspace's source-level lint.
//!
//! Four policy rules that `rustc`/`clippy` cannot express because they
//! are *project* conventions, enforced by a dependency-free line/token
//! scanner (no syn, no proc-macros — the build is dependency-light by
//! policy):
//!
//! | rule | policy |
//! |---|---|
//! | `raw-sync` | no `std::sync` primitives outside `crates/sync` — every lock/atomic must be a `warpstl_sync` wrapper so the model checker sees it (`Arc`/`Weak`/`Ordering` excepted: no interleaving semantics) |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` comment in the contiguous comment block above it |
//! | `no-unwrap` | no `.unwrap()`/`.expect()` in `crates/serve`/`crates/store`/`crates/campaign` non-test code — these crates sit on untrusted-input paths (request bytes, on-disk cache bytes, campaign spec files) and must degrade, not panic |
//! | `timestamp-in-key` | no wall-clock reads (`SystemTime::now`, `UNIX_EPOCH`, `Instant::now`) in the store's hash/key/codec files — cache keys are a determinism contract |
//!
//! Scope: `src/**/*.rs` of every workspace crate (`crates/*` and the root
//! package). `shims/` (vendored stand-ins) and `tests/`/`benches/` trees
//! are out of scope; `#[cfg(test)]` regions inside `src` are skipped for
//! `raw-sync` and `no-unwrap` (test code may take shortcuts) but not for
//! `safety-comment`.
//!
//! A finding can be waived in place with `// xlint: allow(<rule>)` on the
//! same or the preceding line — the annotation is greppable, so every
//! waiver is auditable.
//!
//! Output is deterministic: findings sort by (file, line, rule), paths
//! are `/`-separated and root-relative. `--json` emits a machine-readable
//! document; either way a nonzero exit reports that findings exist
//! (`scripts/check.sh` gates on it).

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Root-relative, `/`-separated path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, e.g. `raw-sync`.
    pub rule: &'static str,
    /// Human-readable finding.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Runs the subcommand: `warpstl xlint [--json] [ROOT]`.
///
/// # Errors
///
/// I/O errors walking the tree, plus a summary error when findings exist
/// (that is the nonzero exit the CI gate keys on).
pub fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let json = args.iter().any(|a| a == "--json");
    let root: PathBuf = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    if !root.join("Cargo.toml").exists() {
        return Err(format!(
            "xlint: `{}` does not look like a workspace root (no Cargo.toml)",
            root.display()
        )
        .into());
    }
    let diagnostics = lint_workspace(&root)?;
    if json {
        outln!("{}", to_json(&diagnostics))?;
    } else {
        for d in &diagnostics {
            outln!("{d}")?;
        }
    }
    if diagnostics.is_empty() {
        if !json {
            outln!("xlint: clean")?;
        }
        Ok(())
    } else {
        Err(format!("xlint: {} finding(s)", diagnostics.len()).into())
    }
}

/// Lints every in-scope file under `root`; findings sorted by
/// (file, line, rule).
///
/// # Errors
///
/// Propagates directory-walk and file-read failures.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs(&member.join("src"), &mut files)?;
        }
    }
    // The root package's own sources, when present.
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();

    let mut diagnostics = Vec::new();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        lint_file(&rel, &text, &mut diagnostics);
    }
    diagnostics.sort();
    Ok(diagnostics)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
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

/// Deterministic JSON rendering (the findings are already sorted).
#[must_use]
pub fn to_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    if !diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}", diagnostics.len()));
    out
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// `std::sync` items that are fine anywhere: no interleaving semantics
/// (`Arc`/`Weak` are refcounts, `Ordering` is a marker enum).
const SYNC_ALLOWED: &[&str] = &["Arc", "Weak", "Ordering"];

fn lint_file(rel: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let (code_lines, comment_lines) = split_code_and_comments(text);
    let in_sync_crate = rel.starts_with("crates/sync/");
    let unwrap_scoped = rel.starts_with("crates/serve/src")
        || rel.starts_with("crates/store/src")
        || rel.starts_with("crates/campaign/src");
    let timestamp_scoped = matches!(
        rel,
        "crates/store/src/hash.rs" | "crates/store/src/codec.rs" | "crates/store/src/artifacts.rs"
    );

    let allowed = |idx: usize, rule: &str| -> bool {
        let marker = format!("xlint: allow({rule})");
        comment_lines[idx].contains(&marker)
            || (idx > 0 && comment_lines[idx - 1].contains(&marker))
    };
    let mut push = |idx: usize, rule: &'static str, message: String| {
        if !allowed(idx, rule) {
            out.push(Diagnostic {
                file: rel.to_string(),
                line: idx + 1,
                rule,
                message,
            });
        }
    };

    // #[cfg(test)] region tracking over the comment-stripped code.
    let mut depth: usize = 0;
    let mut pending_test_attr: usize = 0; // lines left for the `{` to appear
    let mut test_region_floor: Option<usize> = None;

    for (idx, code) in code_lines.iter().enumerate() {
        let in_test = test_region_floor.is_some();

        if !in_test && code.contains("#[cfg(test)]") {
            pending_test_attr = 4; // this line plus the 3 that may follow
        }

        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if pending_test_attr > 0 && opens > 0 {
            test_region_floor = Some(depth);
            pending_test_attr = 0;
        }
        pending_test_attr = pending_test_attr.saturating_sub(1);
        depth += opens;
        depth = depth.saturating_sub(closes);
        if let Some(floor) = test_region_floor {
            if depth <= floor {
                test_region_floor = None;
            }
        }

        // safety-comment: applies everywhere, test code included. The
        // justification must be on the `unsafe` line itself or in the
        // contiguous comment block immediately above it (clippy's
        // `undocumented_unsafe_blocks` convention).
        if has_word(code, "unsafe") {
            let mut documented = comment_lines[idx].contains("SAFETY:");
            let mut i = idx;
            while !documented && i > 0 {
                i -= 1;
                if !code_lines[i].trim().is_empty() {
                    break; // a code line ends the comment block
                }
                if comment_lines[i].trim().is_empty() {
                    break; // a blank line ends the comment block
                }
                documented = comment_lines[i].contains("SAFETY:");
            }
            if !documented {
                push(
                    idx,
                    "safety-comment",
                    "`unsafe` without a `// SAFETY:` comment in the block's preceding comment"
                        .to_string(),
                );
            }
        }

        if in_test {
            continue;
        }

        if !in_sync_crate {
            for item in raw_sync_items(code) {
                push(
                    idx,
                    "raw-sync",
                    format!(
                        "raw `std::sync` item `{item}` outside crates/sync — use the \
                         `warpstl_sync` wrapper so the model checker sees it"
                    ),
                );
            }
        }

        if unwrap_scoped {
            for call in [".unwrap()", ".expect("] {
                if code.contains(call) {
                    push(
                        idx,
                        "no-unwrap",
                        format!(
                            "`{call}` on an untrusted-input path — degrade to an error \
                             (JobError / miss), never panic on request or cache bytes",
                        ),
                    );
                }
            }
        }

        if timestamp_scoped {
            for clock in ["SystemTime::now", "Instant::now", "UNIX_EPOCH"] {
                if code.contains(clock) {
                    push(
                        idx,
                        "timestamp-in-key",
                        format!(
                            "`{clock}` in hash/key derivation — cache keys must be \
                                 deterministic functions of the input"
                        ),
                    );
                }
            }
        }
    }
}

/// Identifiers that make a `std::sync::` path a violation on this line.
fn raw_sync_items(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut rest = code;
    while let Some(at) = rest.find("std::sync::") {
        let tail = &rest[at + "std::sync::".len()..];
        // Judge every identifier up to the end of the `use` item or
        // expression fragment on this line.
        let stop = tail.find(';').unwrap_or(tail.len());
        for token in tail[..stop].split(|c: char| !c.is_alphanumeric() && c != '_') {
            let Some(first) = token.chars().next() else {
                continue;
            };
            // Primitive types are capitalized; `mpsc` is the one banned
            // lowercase module. Everything else lowercase is a harmless
            // path segment (`atomic`, `self`) or method call.
            let banned =
                (first.is_uppercase() && !SYNC_ALLOWED.contains(&token)) || token == "mpsc";
            if banned && !found.contains(&token.to_string()) {
                found.push(token.to_string());
            }
        }
        rest = &rest[at + "std::sync::".len()..];
    }
    found
}

fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(at) = code[start..].find(word) {
        let begin = start + at;
        let end = begin + word.len();
        let left_ok = begin == 0
            || !code[..begin]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let right_ok = !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return true;
        }
        start = end;
    }
    false
}

/// Splits a source file into parallel per-line views: code with comments
/// and string/char-literal *contents* blanked, and comments alone. Both
/// views keep the original line structure so indices line up.
fn split_code_and_comments(text: &str) -> (Vec<String>, Vec<String>) {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut state = State::Code;
    let mut code = String::with_capacity(text.len());
    let mut comments = String::with_capacity(text.len() / 4);
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            code.push('\n');
            comments.push('\n');
            i += 1;
            continue;
        }
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    comments.push_str("//");
                    code.push_str("  ");
                    i += 2;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    comments.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Str;
                    code.push('"');
                    comments.push(' ');
                    i += 1;
                }
                'r' | 'b' if is_raw_string_start(&bytes, i) => {
                    let (hashes, consumed) = raw_string_open(&bytes, i);
                    state = State::RawStr(hashes);
                    for _ in 0..consumed {
                        code.push(' ');
                        comments.push(' ');
                    }
                    code.push('"');
                    i += consumed + 1; // the opening quote
                    comments.push(' ');
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`): a lifetime's
                    // identifier is not followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphabetic() || n == '_')
                        && bytes.get(i + 2).copied() != Some('\'');
                    if is_lifetime {
                        code.push('\'');
                    } else {
                        state = State::Char;
                        code.push('\'');
                    }
                    comments.push(' ');
                    i += 1;
                }
                c => {
                    code.push(c);
                    comments.push(' ');
                    i += 1;
                }
            },
            State::LineComment => {
                comments.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    comments.push_str("*/");
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    comments.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else {
                    comments.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => match c {
                '\\' => {
                    code.push_str("  ");
                    comments.push_str("  ");
                    i += 2;
                }
                '"' => {
                    state = State::Code;
                    code.push('"');
                    comments.push(' ');
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    comments.push(' ');
                    i += 1;
                }
            },
            State::RawStr(hashes) => {
                if c == '"' && raw_string_closes(&bytes, i, hashes) {
                    state = State::Code;
                    code.push('"');
                    comments.push(' ');
                    for _ in 0..hashes {
                        code.push(' ');
                        comments.push(' ');
                    }
                    i += 1 + hashes;
                } else {
                    code.push(' ');
                    comments.push(' ');
                    i += 1;
                }
            }
            State::Char => match c {
                '\\' => {
                    code.push_str("  ");
                    comments.push_str("  ");
                    i += 2;
                }
                '\'' => {
                    state = State::Code;
                    code.push('\'');
                    comments.push(' ');
                    i += 1;
                }
                _ => {
                    code.push(' ');
                    comments.push(' ');
                    i += 1;
                }
            },
        }
    }
    (
        code.lines().map(str::to_string).collect(),
        comments.lines().map(str::to_string).collect(),
    )
}

/// `r"`, `r#"`, `br"`, `br#"` — a raw string opener at `i`?
fn is_raw_string_start(bytes: &[char], i: usize) -> bool {
    // Not part of an identifier (e.g. `var"`, `attr#`).
    if i > 0 && (bytes[i - 1].is_alphanumeric() || bytes[i - 1] == '_') {
        return false;
    }
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&'#') {
        j += 1;
    }
    bytes.get(j) == Some(&'"')
}

/// (hash count, chars before the opening quote) for the opener at `i`.
fn raw_string_open(bytes: &[char], i: usize) -> (usize, usize) {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    j += 1; // the `r`
    let mut hashes = 0;
    while bytes.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (hashes, j - i)
}

fn raw_string_closes(bytes: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&'#'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        lint_file(rel, text, &mut out);
        out.sort();
        out
    }

    #[test]
    fn raw_sync_flags_primitives_but_not_arc_or_ordering() {
        let src = "use std::sync::{Arc, Mutex};\nuse std::sync::atomic::Ordering;\nuse std::sync::atomic::{AtomicU64, Ordering};\n";
        let diags = lint_str("crates/fault/src/lib.rs", src);
        let items: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(items, ["raw-sync", "raw-sync"]);
        assert!(diags[0].message.contains("`Mutex`"), "{}", diags[0].message);
        assert!(
            diags[1].message.contains("`AtomicU64`"),
            "{}",
            diags[1].message
        );
        assert!(lint_str("crates/sync/src/primitives.rs", src).is_empty());
    }

    #[test]
    fn raw_sync_skips_test_modules_strings_and_comments() {
        let src = "\
// std::sync::Mutex in a comment is fine
const DOC: &str = \"std::sync::Mutex in a string is fine\";
#[cfg(test)]
mod tests {
    use std::sync::Mutex;
}
";
        assert!(lint_str("crates/fault/src/lib.rs", src).is_empty());
    }

    #[test]
    fn safety_comment_rule_accepts_nearby_comment_and_flags_bare_unsafe() {
        let good = "// SAFETY: the pointer is valid for the call.\nunsafe { go() }\n";
        assert!(lint_str("crates/gpu/src/lib.rs", good).is_empty());
        // A long justification works as long as the block is contiguous,
        // wherever the SAFETY: tag sits in it.
        let long = "\
// SAFETY: the handler address is a valid fn pointer for the
// process's lifetime, the body is async-signal-safe, and
// replacing the prior disposition is the intended effect;
// see signal-safety(7).
unsafe { go() }
";
        assert!(lint_str("crates/gpu/src/lib.rs", long).is_empty());
        let bad = "unsafe { go() }\n";
        let diags = lint_str("crates/gpu/src/lib.rs", bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "safety-comment");
        // A blank line between the comment and the block breaks the tie.
        let detached = "// SAFETY: stale justification\n\nunsafe { go() }\n";
        assert_eq!(lint_str("crates/gpu/src/lib.rs", detached).len(), 1);
        // `unsafe` in an identifier or string is not the keyword.
        assert!(lint_str("crates/gpu/src/lib.rs", "let not_unsafe_here = 1;\n").is_empty());
        assert!(lint_str("crates/gpu/src/lib.rs", "let s = \"unsafe\";\n").is_empty());
    }

    #[test]
    fn no_unwrap_applies_only_to_untrusted_input_crates() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(lint_str("crates/serve/src/http.rs", src).len(), 2);
        assert_eq!(lint_str("crates/store/src/store.rs", src).len(), 2);
        assert_eq!(lint_str("crates/campaign/src/runner.rs", src).len(), 2);
        assert!(lint_str("crates/fault/src/engine.rs", src).is_empty());
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_str("crates/serve/src/http.rs", &test_src).is_empty());
    }

    #[test]
    fn timestamp_rule_guards_the_key_derivation_files() {
        let src = "let t = std::time::SystemTime::now();\n";
        let diags = lint_str("crates/store/src/hash.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "timestamp-in-key");
        assert!(lint_str("crates/store/src/store.rs", src).is_empty());
    }

    #[test]
    fn allow_annotation_waives_on_same_or_preceding_line() {
        let same = "use std::sync::Mutex; // xlint: allow(raw-sync)\n";
        assert!(lint_str("crates/fault/src/lib.rs", same).is_empty());
        let preceding = "// xlint: allow(raw-sync)\nuse std::sync::Mutex;\n";
        assert!(lint_str("crates/fault/src/lib.rs", preceding).is_empty());
        // The waiver names the rule: a different rule still fires.
        let wrong = "// xlint: allow(no-unwrap)\nuse std::sync::Mutex;\n";
        assert_eq!(lint_str("crates/fault/src/lib.rs", wrong).len(), 1);
    }

    #[test]
    fn scanner_handles_lifetimes_chars_and_raw_strings() {
        let src = "\
fn f<'a>(x: &'a str) -> char { 'x' }
const R: &str = r#\"std::sync::Mutex \"quoted\" unsafe\"#;
const C: char = '\"';
";
        assert!(lint_str("crates/fault/src/lib.rs", src).is_empty());
    }

    #[test]
    fn json_output_is_deterministic_and_sorted() {
        let src = "use std::sync::Mutex;\nunsafe { go() }\n";
        let diags = lint_str("crates/fault/src/lib.rs", src);
        let json = to_json(&diags);
        assert!(json.contains("\"count\": 2"), "{json}");
        let first = json.find("raw-sync").expect("raw-sync present");
        let second = json.find("safety-comment").expect("safety-comment present");
        assert!(first < second, "findings must sort by (file, line, rule)");
        assert_eq!(to_json(&[]), "{\n  \"findings\": [],\n  \"count\": 0\n}");
    }
}
