//! A token-level Rust lexer.
//!
//! The analyzer only needs token streams — identifiers, punctuation,
//! literals and comments, each with a line number — not a full syntax
//! tree, so this is a small hand-rolled scanner (the container is
//! offline; no `syn`). It must never panic: `tests/proptest_lexer.rs`
//! feeds it arbitrary byte soup. Unterminated strings or comments are
//! closed implicitly at end of input.

/// What kind of token a [`Tok`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `Scalar`, `if`, …).
    Ident,
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// A numeric literal (possibly partial: `1.5` lexes as `1 . 5`,
    /// which is enough for the analyses here).
    Num,
    /// A string literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// A character literal (`'x'`, `'\n'`).
    Char,
    /// A `// …` comment (text includes the slashes).
    LineComment,
    /// A `/* … */` comment (nesting handled; text includes delimiters).
    BlockComment,
    /// Punctuation, one or two characters (`{`, `==`, `->`, `::`, …).
    Punct,
}

/// One lexed token: kind, verbatim text and 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// The token's source text.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Tok {
    /// Whether this token is a comment of either kind.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// Whether this token is exactly the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// Whether this token is exactly the identifier/keyword `w`.
    pub fn is_ident(&self, w: &str) -> bool {
        self.kind == TokKind::Ident && self.text == w
    }

    /// The change in angle-bracket depth at this token: `<` and `<<`
    /// open one and two levels, `>` and `>>` close them (each lexes as
    /// one token).
    pub fn angle_delta(&self) -> i32 {
        match self.text.as_str() {
            _ if self.kind != TokKind::Punct => 0,
            "<" => 1,
            "<<" => 2,
            ">" => -1,
            ">>" => -2,
            _ => 0,
        }
    }

    /// Whether this token is a `// <name>` lint annotation. Doc
    /// comments (`///`, `//!`, `/** */`) never count — they describe
    /// annotations without applying them — and the name must lead the
    /// comment body (so prose that merely mentions an annotation is
    /// inert).
    pub fn is_annotation(&self, name: &str) -> bool {
        let body = match self.kind {
            TokKind::LineComment => {
                let rest = self.text.trim_start_matches('/');
                // A doc comment strips to fewer leading chars removed?
                // `///x` -> "x" with 3 slashes; distinguish by count.
                if self.text.len() - rest.len() != 2 || rest.starts_with('!') {
                    return false;
                }
                rest
            }
            TokKind::BlockComment => {
                let inner = self
                    .text
                    .strip_prefix("/*")
                    .and_then(|s| s.strip_suffix("*/"))
                    .unwrap_or("");
                if inner.starts_with('*') || inner.starts_with('!') {
                    return false;
                }
                inner
            }
            _ => return false,
        };
        body.trim_start().starts_with(name)
    }
}

/// Whether identifier `s` is a keyword that never names a callee, an
/// indexed base or a divided operand.
pub fn is_keyword(s: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "as", "break", "continue", "else", "fn", "for", "if", "in", "let", "loop", "match", "move",
        "mut", "ref", "return", "unsafe", "where", "while",
    ];
    KEYWORDS.contains(&s)
}

/// Two-character punctuation recognized as single tokens. Order does
/// not matter — the match is exact on the next two characters.
const PUNCT2: &[&str] = &[
    "==", "!=", "<=", ">=", "->", "=>", "::", "..", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "|=", "&=",
];

/// Lexes `src` into tokens. Total function: any input (including
/// invalid Rust) produces a token list without panicking.
pub fn lex(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < chars.len() {
        let c = chars[i];
        let start_line = line;

        // Whitespace.
        if c.is_whitespace() {
            if c == '\n' {
                line += 1;
            }
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < chars.len() {
            if chars[i + 1] == '/' {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::LineComment,
                    text: chars[start..i].iter().collect(),
                    line: start_line,
                });
                continue;
            }
            if chars[i + 1] == '*' {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::BlockComment,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line: start_line,
                });
                continue;
            }
        }

        // Raw strings: r"…", r#"…"#, br"…", br#"…"# (any hash count).
        if (c == 'r' || c == 'b' || c == 'c') && raw_string_start(&chars, i) {
            let start = i;
            // Skip the prefix letters.
            while i < chars.len() && chars[i] != '"' && chars[i] != '#' {
                i += 1;
            }
            let mut hashes = 0usize;
            while i < chars.len() && chars[i] == '#' {
                hashes += 1;
                i += 1;
            }
            i += 1; // opening quote
                    // Scan for `"` followed by `hashes` hashes.
            while i < chars.len() {
                if chars[i] == '"'
                    && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes
                {
                    i += 1 + hashes;
                    break;
                }
                if chars[i] == '\n' {
                    line += 1;
                }
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[start..i.min(chars.len())].iter().collect(),
                line: start_line,
            });
            continue;
        }

        // Plain and byte strings.
        if c == '"' || ((c == 'b' || c == 'c') && i + 1 < chars.len() && chars[i + 1] == '"') {
            let start = i;
            i += if c == '"' { 1 } else { 2 };
            while i < chars.len() {
                match chars[i] {
                    '\\' => i += 2,
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[start..i.min(chars.len())].iter().collect(),
                line: start_line,
            });
            continue;
        }

        // Char literals vs lifetimes.
        if c == '\'' {
            let start = i;
            i += 1;
            if i < chars.len() && chars[i] == '\\' {
                // Escaped char literal: consume escape then to closing quote.
                i += 2;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i = (i + 1).min(chars.len());
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line: start_line,
                });
            } else if i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                // Could be 'a' (char) or 'a (lifetime): scan the ident.
                let mut j = i;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                if j < chars.len() && chars[j] == '\'' && j == i + 1 {
                    i = j + 1;
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: chars[start..i].iter().collect(),
                        line: start_line,
                    });
                } else {
                    i = j;
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line: start_line,
                    });
                }
            } else if i < chars.len() && chars[i] != '\'' {
                // Something like '(' — a char literal of punctuation.
                while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                    i += 1;
                }
                i = (i + 1).min(chars.len());
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: chars[start..i.min(chars.len())].iter().collect(),
                    line: start_line,
                });
            } else {
                // Lone or doubled quote; emit as punct to make progress.
                i += 1;
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "'".to_string(),
                    line: start_line,
                });
            }
            continue;
        }

        // Numbers (integer part only; `.` lexes separately, which the
        // analyses never need to rejoin).
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }

        // Identifiers and keywords (including raw idents `r#type`).
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            // Raw identifier prefix `r#ident`.
            if i == start + 1 && chars[start] == 'r' && i < chars.len() && chars[i] == '#' {
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line: start_line,
            });
            continue;
        }

        // Two-char punctuation, then single char.
        if i + 1 < chars.len() {
            let two: String = chars[i..i + 2].iter().collect();
            if PUNCT2.contains(&two.as_str()) {
                i += 2;
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: two,
                    line: start_line,
                });
                continue;
            }
        }
        i += 1;
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: start_line,
        });
    }
    toks
}

/// Whether position `i` (at `r`, `b` or `c`) starts a raw string:
/// the letters may be `r`, `br`, `cr` followed by `#*"`.
fn raw_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters ending in `r`.
    if chars[j] == 'b' || chars[j] == 'c' {
        j += 1;
        if j >= chars.len() || chars[j] != 'r' {
            return false;
        }
    }
    if chars[j] != 'r' {
        return false;
    }
    j += 1;
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    j < chars.len() && chars[j] == '"'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_idents_puncts_and_lines() {
        let toks = lex("fn foo(a: u8) -> bool {\n    a == 3\n}\n");
        assert!(toks.iter().any(|t| t.is_ident("fn")));
        assert!(toks.iter().any(|t| t.is_punct("->")));
        let eq = toks.iter().find(|t| t.is_punct("==")).unwrap();
        assert_eq!(eq.line, 2);
    }

    #[test]
    fn distinguishes_chars_and_lifetimes() {
        let toks = lex("let c = 'x'; fn f<'a>(v: &'a [u8]) {} let n = '\\n';");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
    }

    #[test]
    fn handles_nested_comments_and_raw_strings() {
        let toks = lex(r##"/* a /* b */ c */ let s = r#"quote " inside"#; // tail"##);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::BlockComment)
                .count(),
            1
        );
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::LineComment)
                .count(),
            1
        );
    }

    #[test]
    fn survives_unterminated_input() {
        let _ = lex("\"unterminated");
        let _ = lex("/* never closed");
        let _ = lex("r#\"raw forever");
        let _ = lex("'");
    }
}
