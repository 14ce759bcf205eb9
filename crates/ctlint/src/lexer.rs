//! A token-level Rust lexer.
//!
//! The analyzer only needs token streams — identifiers, punctuation,
//! literals and comments, each with a line number — not a full syntax
//! tree, so this is a small hand-rolled scanner (the container is
//! offline; no `syn`). It must never panic: `tests/proptest_lexer.rs`
//! feeds it arbitrary byte soup. Unterminated strings or comments are
//! closed implicitly at end of input.
//!
//! Every bracket walk in the crate runs on one nesting rule,
//! [`Tok::nest_delta`], through [`partner`], [`top_level`] and
//! [`split_top`].

use std::borrow::Borrow;

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

    /// The change in nesting depth at this token under `mode`: the
    /// crate's one nesting rule (see [`Nest`]).
    pub fn nest_delta(&self, mode: Nest) -> i32 {
        if self.kind != TokKind::Punct {
            return 0;
        }
        match (self.text.as_str(), mode) {
            ("(" | "[" | "{", _) => 1,
            (")" | "]" | "}", _) => -1,
            ("<", Nest::Type) => 1,
            ("<<", Nest::Type) => 2,
            (">", Nest::Type) => -1,
            (">>", Nest::Type) => -2,
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

/// How a bracket walk reads a run of tokens. `(` `[` `{` always nest.
/// `<` `<<` `>` `>>` nest only where the caller reads a type, because
/// in an expression `<` compares and `<<` shifts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Nest {
    /// An expression or a body: angle brackets do not nest.
    Expr,
    /// A type — a signature, an `impl` header, a field or `let` type, a
    /// turbofish: `<` and `<<` open one and two levels, `>` and `>>`
    /// close them (each lexes as one token).
    Type,
}

/// The bracket paired with `toks[at]`: searched forward from an
/// opening bracket, backward from a closing one. Angle brackets pair
/// under [`Nest::Type`], the others under [`Nest::Expr`]. `None` when
/// `toks[at]` is no bracket or has no partner.
pub fn partner<T: Borrow<Tok>>(toks: &[T], at: usize) -> Option<usize> {
    let t = toks.get(at)?.borrow();
    let mode = if t.nest_delta(Nest::Expr) == 0 {
        Nest::Type
    } else {
        Nest::Expr
    };
    let sign = t.nest_delta(mode).signum();
    let mut depth = 0;
    let mut closes = |i: &usize| {
        depth += sign * toks[*i].borrow().nest_delta(mode);
        depth <= 0
    };
    match sign {
        1 => (at..toks.len()).find(&mut closes),
        -1 => (0..=at).rev().find(&mut closes),
        _ => None,
    }
}

/// The positions in `toks` at depth 0 under `mode`, in order. Each
/// opening bracket at depth 0 is yielded, its contents are not. An
/// unmatched closing bracket is yielded last: it ends the run.
pub fn top_level<T: Borrow<Tok>>(toks: &[T], mode: Nest) -> impl Iterator<Item = usize> + '_ {
    let mut depth = 0;
    toks.iter()
        .enumerate()
        .map_while(move |(i, t)| {
            let at = depth;
            depth += t.borrow().nest_delta(mode);
            (at >= 0).then_some((i, at == 0))
        })
        .filter_map(|(i, top)| top.then_some(i))
}

/// `toks` split at its depth-0 `sep` tokens under `mode`.
pub fn split_top<'a, T: Borrow<Tok>>(toks: &'a [T], mode: Nest, sep: &str) -> Vec<&'a [T]> {
    let mut pieces = Vec::new();
    let mut start = 0;
    for i in top_level(toks, mode).filter(|&i| toks[i].borrow().is_punct(sep)) {
        pieces.push(&toks[start..i]);
        start = i + 1;
    }
    pieces.push(&toks[start..]);
    pieces
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
                    '\\' => {
                        // An escaped newline (a `\` line continuation)
                        // is still a line.
                        if chars.get(i + 1) == Some(&'\n') {
                            line += 1;
                        }
                        i += 2;
                    }
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
        for (src, eq_line) in [
            ("fn foo(a: u8) -> bool {\n    a == 3\n}\n", 2),
            // A `\`-continued string spans two lines.
            (
                "fn foo(a: u8) -> bool {\n    f(\"x \\\n    y\");\n    a == 3\n}\n",
                4,
            ),
        ] {
            let toks = lex(src);
            assert!(toks.iter().any(|t| t.is_ident("fn")));
            assert!(toks.iter().any(|t| t.is_punct("->")));
            let eq = toks.iter().find(|t| t.is_punct("==")).unwrap();
            assert_eq!(eq.line, eq_line, "{src}");
        }
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
    fn one_nesting_rule_for_types_and_expressions() {
        let texts = |piece: &[Tok]| {
            piece
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        };
        // In a type `<` nests and `>>` closes two levels.
        let params = lex("t: Option<Vec<u8>>, v: [u8; 4], i: usize");
        let pieces: Vec<String> = split_top(&params, Nest::Type, ",")
            .into_iter()
            .map(texts)
            .collect();
        assert_eq!(
            pieces,
            ["t : Option < Vec < u8 >>", "v : [ u8 ; 4 ]", "i : usize"]
        );
        // In an expression `<` compares and `>>` shifts.
        let expr = lex("a < b, c >> 1");
        assert_eq!(split_top(&expr, Nest::Expr, ",").len(), 2);
        // An opening bracket pairs forward, a closing one backward.
        let path = lex("Foo::<Vec<u8>>::new()");
        assert_eq!(partner(&path, 2), Some(6));
        assert_eq!(partner(&path, 6), Some(2));
        assert_eq!(partner(&path, 9), Some(10));
        assert_eq!(partner(&path, 0), None);
        // An unmatched closing bracket is the last token of a run.
        let run = lex("x ( y ) ) z");
        assert_eq!(top_level(&run, Nest::Expr).collect::<Vec<_>>(), [0, 1, 4]);
    }

    #[test]
    fn survives_unterminated_input() {
        let _ = lex("\"unterminated");
        let _ = lex("/* never closed");
        let _ = lex("r#\"raw forever");
        let _ = lex("'");
    }
}
