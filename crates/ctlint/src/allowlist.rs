//! The committed per-pass allowlists (`ci/ctlint_allow.toml`,
//! `ci/determinism_allow.toml`, `ci/panic_allow.toml`): audited sites
//! and other justified exceptions.
//!
//! Format — a TOML subset parsed by hand (the workspace is
//! dependency-free): an array of `[[allow]]` tables whose values are
//! all strings.
//!
//! ```toml
//! [[allow]]
//! class = "vartime-call"             # finding class (required)
//! file = "crates/p256/src/ecdsa.rs"  # scanned file (required)
//! context = "verify_prehashed"       # enclosing fn / struct (required)
//! ident = "mul_vartime"              # callee / binding (optional)
//! justification = "u2 and Q are public in ECDSA verification"
//! ```
//!
//! The `class` key must belong to the owning pass's vocabulary
//! ([`crate::pass::Pass::classes`]). Every entry must carry a
//! non-empty `justification`, and every entry must suppress at least
//! one live finding — a stale entry (the code it excused was removed
//! or renamed) fails the lint, so an allowlist can only shrink in step
//! with the code.

use crate::findings::Finding;

/// One `[[allow]]` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Finding class this entry suppresses (validated against the
    /// owning pass's vocabulary at parse time).
    pub class: String,
    /// Relative file path (exact match against the finding).
    pub file: String,
    /// Enclosing function (simple or `Type::name`) or struct name.
    pub context: String,
    /// Optional identifier (callee / tainted binding / field).
    pub ident: Option<String>,
    /// Why this site is allowed to stay.
    pub justification: String,
    /// 1-based line of the entry in the allowlist file.
    pub line: u32,
}

impl Entry {
    /// Whether this entry suppresses `f`.
    pub fn matches(&self, f: &Finding) -> bool {
        self.class == f.class
            && self.file == f.file
            && (self.context == f.context || f.context.ends_with(&format!("::{}", self.context)))
            && self.ident.as_ref().is_none_or(|i| *i == f.ident)
    }
}

/// A problem with the allowlist itself (parse error, bad class,
/// missing justification, stale entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowlistError {
    /// 1-based line in the allowlist file.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

/// A partially parsed `[[allow]]` table: its start line plus the
/// `(key, value, line)` triples seen so far.
type RawEntry = (u32, Vec<(String, String, u32)>);

/// Parses an allowlist, validating each `class` against
/// `valid_classes` (the owning pass's vocabulary). Returns entries
/// plus any structural errors (errors do not abort parsing — the
/// caller reports them all).
pub fn parse(src: &str, valid_classes: &[&str]) -> (Vec<Entry>, Vec<AllowlistError>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    let mut cur: Option<RawEntry> = None;

    let flush =
        |cur: &mut Option<RawEntry>, entries: &mut Vec<Entry>, errors: &mut Vec<AllowlistError>| {
            let Some((start, kvs)) = cur.take() else {
                return;
            };
            let get = |k: &str| {
                kvs.iter()
                    .find(|(key, _, _)| key == k)
                    .map(|(_, v, _)| v.clone())
            };
            let class = match get("class") {
                Some(c) if valid_classes.contains(&c.as_str()) => c,
                other => {
                    errors.push(AllowlistError {
                        line: start,
                        message: format!(
                            "entry needs a valid `class` for this pass ({}), got {:?}",
                            valid_classes.join(", "),
                            other.unwrap_or_default()
                        ),
                    });
                    return;
                }
            };
            let (Some(file), Some(context)) = (get("file"), get("context")) else {
                errors.push(AllowlistError {
                    line: start,
                    message: "entry needs `file` and `context`".into(),
                });
                return;
            };
            let justification = get("justification").unwrap_or_default();
            if justification.trim().is_empty() {
                errors.push(AllowlistError {
                    line: start,
                    message: format!("entry for `{context}` has no justification"),
                });
                return;
            }
            entries.push(Entry {
                class,
                file,
                context,
                ident: get("ident"),
                justification,
                line: start,
            });
        };

    for (lineno, raw) in src.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        let n = lineno as u32 + 1;
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            flush(&mut cur, &mut entries, &mut errors);
            cur = Some((n, Vec::new()));
            continue;
        }
        if line.starts_with('[') {
            flush(&mut cur, &mut entries, &mut errors);
            errors.push(AllowlistError {
                line: n,
                message: format!("unexpected table `{line}` (only [[allow]] is supported)"),
            });
            continue;
        }
        match (&mut cur, parse_kv(&line)) {
            (Some((_, kvs)), Some((k, v))) => kvs.push((k, v, n)),
            (None, Some(_)) => errors.push(AllowlistError {
                line: n,
                message: "key outside any [[allow]] entry".into(),
            }),
            (_, None) => errors.push(AllowlistError {
                line: n,
                message: format!("cannot parse line: {line}"),
            }),
        }
    }
    flush(&mut cur, &mut entries, &mut errors);
    (entries, errors)
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

/// Parses `key = "value"`.
fn parse_kv(line: &str) -> Option<(String, String)> {
    let (k, v) = line.split_once('=')?;
    let v = v.trim();
    if v.len() < 2 || !v.starts_with('"') || !v.ends_with('"') {
        return None;
    }
    Some((
        k.trim().to_string(),
        v[1..v.len() - 1].replace("\\\"", "\""),
    ))
}

/// The result of applying an allowlist to a set of findings.
#[derive(Debug, Default)]
pub struct Applied {
    /// Findings not suppressed by any entry.
    pub unsuppressed: Vec<Finding>,
    /// `(finding, entry index)` for suppressed findings.
    pub suppressed: Vec<(Finding, usize)>,
    /// Entries that suppressed nothing (stale).
    pub stale: Vec<Entry>,
}

/// Applies `entries` to `findings`.
pub fn apply(findings: Vec<Finding>, entries: &[Entry]) -> Applied {
    let mut hits = vec![0usize; entries.len()];
    let mut out = Applied::default();
    for f in findings {
        match entries.iter().position(|e| e.matches(&f)) {
            Some(i) => {
                hits[i] += 1;
                out.suppressed.push((f, i));
            }
            None => out.unsuppressed.push(f),
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if hits[i] == 0 {
            out.stale.push(e.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const VALID: &[&str] = &["vartime-call", "missing-zeroize", "nonct-eq"];

    const SAMPLE: &str = r#"
# audited sites
[[allow]]
class = "vartime-call"
file = "crates/x/src/a.rs"
context = "verify"
ident = "mul_vartime"
justification = "inputs are public"

[[allow]]
class = "missing-zeroize"
file = "crates/x/src/b.rs"
context = "Signature"
justification = "signature components are public"
"#;

    #[test]
    fn parses_entries() {
        let (entries, errors) = parse(SAMPLE, VALID);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].class, "vartime-call");
        assert_eq!(entries[0].ident.as_deref(), Some("mul_vartime"));
    }

    #[test]
    fn rejects_missing_justification() {
        let (_e, errors) = parse(
            "[[allow]]\nclass = \"nonct-eq\"\nfile = \"f\"\ncontext = \"c\"\n",
            VALID,
        );
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("justification"));
    }

    #[test]
    fn rejects_class_outside_pass_vocabulary() {
        let (_e, errors) = parse(
            "[[allow]]\nclass = \"panic-unwrap\"\nfile = \"f\"\ncontext = \"c\"\n\
             justification = \"wrong pass\"\n",
            VALID,
        );
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("valid `class`"));
    }

    #[test]
    fn matches_qualified_contexts() {
        let (entries, _) = parse(SAMPLE, VALID);
        let f = Finding {
            file: "crates/x/src/a.rs".into(),
            line: 10,
            pass: "secret-flow".into(),
            class: "vartime-call".into(),
            context: "Ecdsa::verify".into(),
            ident: "mul_vartime".into(),
            message: String::new(),
            chain: Vec::new(),
        };
        assert!(entries[0].matches(&f));
    }

    #[test]
    fn stale_entries_surface() {
        let (entries, _) = parse(SAMPLE, VALID);
        let applied = apply(Vec::new(), &entries);
        assert_eq!(applied.stale.len(), 2);
    }
}
