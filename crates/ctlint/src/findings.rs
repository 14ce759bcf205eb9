//! The pass-agnostic finding model and its JSON wire format.
//!
//! Every pass reports the same shape: a class name (pass-specific
//! vocabulary, validated against [`crate::pass::Pass::classes`]), a
//! `file:line` anchor, the enclosing context (function or struct), the
//! specific identifier involved, a human-readable message and — for
//! reachability-based findings — the call chain from the pass's taint
//! root down to the flagged function, as evidence a reviewer can walk.
//!
//! The JSON encoding is hand-rolled (the workspace is dependency-free)
//! and round-trips: [`findings_to_json`] ∘ [`findings_from_json`] is
//! the identity, property-tested in `tests/proptest_findings.rs`, and
//! the output is byte-stable for a given finding set because findings
//! are sorted before serialization.

/// One finding, from any pass.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Scanned file (relative path, `/`-separated).
    pub file: String,
    /// 1-based line anchor.
    pub line: u32,
    /// The pass that produced the finding (`secret-flow`,
    /// `determinism`, `panic-reach`).
    pub pass: String,
    /// Finding class (pass-specific, e.g. `vartime-call`,
    /// `unordered-iter`, `panic-unwrap`).
    pub class: String,
    /// Enclosing function (qualified) or struct name.
    pub context: String,
    /// The specific identifier involved (callee, tainted binding or
    /// field name).
    pub ident: String,
    /// Human-readable description.
    pub message: String,
    /// Reach-chain evidence: qualified function names from a taint
    /// root (first) to the flagged context (last). Empty when the
    /// finding is not reachability-based (e.g. a struct-level finding).
    pub chain: Vec<String>,
}

/// What a pass found at one spot: the line, the finding class, the
/// identifier involved and the message.
pub type Hit = (u32, &'static str, String, String);

impl Finding {
    /// The finding `pass` raises for `hit` in `file`, inside `context`
    /// (a fn or a struct), with an empty reach chain.
    pub fn new(pass: &str, file: &str, context: &str, hit: Hit) -> Self {
        let (line, class, ident, message) = hit;
        Finding {
            file: file.to_string(),
            line,
            pass: pass.to_string(),
            class: class.to_string(),
            context: context.to_string(),
            ident,
            message,
            chain: Vec::new(),
        }
    }

    /// `root -> a -> b` rendering of the reach chain, or `""`.
    pub fn chain_text(&self) -> String {
        self.chain.join(" -> ")
    }
}

/// Escapes `s` as JSON string contents (no surrounding quotes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes one finding as a JSON object.
pub fn finding_to_json(f: &Finding) -> String {
    let chain: Vec<String> = f
        .chain
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect();
    format!(
        "{{\"file\":\"{}\",\"line\":{},\"pass\":\"{}\",\"class\":\"{}\",\"context\":\"{}\",\"ident\":\"{}\",\"message\":\"{}\",\"chain\":[{}]}}",
        escape(&f.file),
        f.line,
        escape(&f.pass),
        escape(&f.class),
        escape(&f.context),
        escape(&f.ident),
        escape(&f.message),
        chain.join(",")
    )
}

/// Serializes a finding list as a JSON array (sorted copy, so the
/// output is independent of production order).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut sorted: Vec<&Finding> = findings.iter().collect();
    sorted.sort();
    let items: Vec<String> = sorted.iter().map(|f| finding_to_json(f)).collect();
    format!("[{}]", items.join(","))
}

/// Parses the output of [`findings_to_json`] back into findings.
///
/// This is a minimal JSON reader for exactly the schema this module
/// writes (used by the round-trip property test and by downstream
/// tooling that consumes the CI artifact); it is total — malformed
/// input yields `Err`, never a panic.
pub fn findings_from_json(src: &str) -> Result<Vec<Finding>, String> {
    let mut p = Parser {
        chars: src.chars().collect(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing input at offset {}", p.pos));
    }
    let Json::Array(items) = v else {
        return Err("top level must be an array".into());
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let Json::Object(kvs) = item else {
            return Err("array items must be objects".into());
        };
        let get_str = |k: &str| -> Result<String, String> {
            match kvs.iter().find(|(key, _)| key == k) {
                Some((_, Json::String(s))) => Ok(s.clone()),
                _ => Err(format!("missing string field `{k}`")),
            }
        };
        let line = match kvs.iter().find(|(key, _)| key == "line") {
            Some((_, Json::Number(n))) => *n,
            _ => return Err("missing numeric field `line`".into()),
        };
        let chain = match kvs.iter().find(|(key, _)| key == "chain") {
            Some((_, Json::Array(items))) => {
                let mut c = Vec::with_capacity(items.len());
                for i in items {
                    match i {
                        Json::String(s) => c.push(s.clone()),
                        _ => return Err("chain entries must be strings".into()),
                    }
                }
                c
            }
            _ => return Err("missing array field `chain`".into()),
        };
        out.push(Finding {
            file: get_str("file")?,
            line,
            pass: get_str("pass")?,
            class: get_str("class")?,
            context: get_str("context")?,
            ident: get_str("ident")?,
            message: get_str("message")?,
            chain,
        });
    }
    Ok(out)
}

/// The JSON subset the findings schema uses.
enum Json {
    String(String),
    Number(u32),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('"') => Ok(Json::String(self.string()?)),
            Some('[') => {
                self.eat('[')?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.eat(']')?;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.eat(',')?,
                        Some(']') => {
                            self.eat(']')?;
                            return Ok(Json::Array(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some('{') => {
                self.eat('{')?;
                let mut kvs = Vec::new();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.eat('}')?;
                    return Ok(Json::Object(kvs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(':')?;
                    let val = self.value()?;
                    kvs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(',') => self.eat(',')?,
                        Some('}') => {
                            self.eat('}')?;
                            return Ok(Json::Object(kvs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(c) = self.peek() {
                    let Some(d) = c.to_digit(10) else { break };
                    n = n.saturating_mul(10).saturating_add(d as u64);
                    self.pos += 1;
                }
                Ok(Json::Number(n.min(u32::MAX as u64) as u32))
            }
            _ => Err(format!("unexpected input at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let h = self.peek().ok_or("truncated \\u escape")?;
                                let d = h.to_digit(16).ok_or("bad \\u escape digit")?;
                                code = code * 16 + d;
                                self.pos += 1;
                            }
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            file: "crates/x/src/a.rs".into(),
            line: 42,
            pass: "determinism".into(),
            class: "unordered-iter".into(),
            context: "Worker::drain".into(),
            ident: "HashMap".into(),
            message: "uses `HashMap` — \"unordered\"\n".into(),
            chain: vec!["run_worker".into(), "Worker::drain".into()],
        }
    }

    #[test]
    fn json_round_trips() {
        let f = vec![sample()];
        let json = findings_to_json(&f);
        assert_eq!(findings_from_json(&json).unwrap(), f);
    }

    #[test]
    fn empty_list_round_trips() {
        assert_eq!(findings_from_json("[]").unwrap(), Vec::<Finding>::new());
        assert_eq!(findings_to_json(&[]), "[]");
    }

    #[test]
    fn escapes_control_chars() {
        let mut f = sample();
        f.message = "a\u{1}b".into();
        let json = findings_to_json(&[f.clone()]);
        assert!(json.contains("\\u0001"));
        assert_eq!(findings_from_json(&json).unwrap(), vec![f]);
    }

    #[test]
    fn serialization_is_order_independent() {
        let mut a = sample();
        a.line = 1;
        let mut b = sample();
        b.line = 2;
        assert_eq!(
            findings_to_json(&[a.clone(), b.clone()]),
            findings_to_json(&[b, a])
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(findings_from_json("{").is_err());
        assert!(findings_from_json("[{}]").is_err());
        assert!(findings_from_json("[1]").is_err());
    }
}
