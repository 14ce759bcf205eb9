//! Item indexing: a brace-matching scan over the token stream that
//! extracts the declarations the taint analysis needs — functions
//! (with parameter/return types and body token ranges), structs (with
//! field types), `impl` blocks (for `Self` types and `Drop` coverage) —
//! plus the source annotations the lint understands:
//!
//! * `// ct-secret` on a `fn`, `struct`, field or `let` marks it as
//!   carrying secret material even though its type is not a marker.
//! * `// ct-public` on a field declares a marker-typed value public
//!   (an ECDSA signature scalar, ECQV's reconstruction data `r`): the
//!   field carries no taint.
//! * `// ct-vartime` on a `fn` declares it part of the variable-time
//!   family (same contract as a `*_vartime` name suffix): calling it
//!   from a secret context is a finding, while its own body is the
//!   audited vartime boundary.
//!
//! `#[cfg(test)]` modules are skipped entirely: test code compares
//! secrets with `assert_eq!` as a matter of course and is not a timing
//! surface.

use crate::lexer::{Tok, TokKind};

/// A function parameter: bound names (all identifiers in the pattern)
/// and the type's token text.
#[derive(Clone, Debug)]
pub struct Param {
    /// Identifiers bound by the parameter pattern.
    pub names: Vec<String>,
    /// The parameter type, as space-joined token text.
    pub ty: String,
}

/// An indexed function.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Simple name.
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qual: String,
    /// Index into [`Index::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The `impl` block's `Self` type, when this is a method.
    pub self_type: Option<String>,
    /// Parameters (excluding any `self` receiver).
    pub params: Vec<Param>,
    /// Whether the function takes a `self` receiver.
    pub has_self: bool,
    /// Return type token text (empty for `()`).
    pub ret: String,
    /// Declared variable-time: `*_vartime` name or `// ct-vartime`.
    pub vartime: bool,
    /// Annotated `// ct-secret`.
    pub ct_secret: bool,
    /// Body tokens (comments included, for `let` annotations).
    pub body: Vec<Tok>,
}

/// A struct field.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name (`"0"`, `"1"`, … for tuple structs).
    pub name: String,
    /// Field type token text.
    pub ty: String,
    /// Annotated `// ct-secret`.
    pub ct_secret: bool,
    /// Annotated `// ct-public`.
    pub ct_public: bool,
}

/// An indexed struct.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Index into [`Index::files`].
    pub file: usize,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Fields.
    pub fields: Vec<Field>,
    /// Annotated `// ct-secret` on the struct itself.
    pub ct_secret: bool,
}

/// The whole-workspace item index.
#[derive(Default, Debug)]
pub struct Index {
    /// Scanned files, in scan order (relative paths).
    pub files: Vec<String>,
    /// All indexed functions.
    pub fns: Vec<FnItem>,
    /// All indexed structs.
    pub structs: Vec<StructItem>,
    /// Types with an `impl Drop for T`.
    pub drop_impls: Vec<String>,
}

impl Index {
    /// Lexes and indexes one file, appending into this index.
    pub fn add_file(&mut self, rel_path: &str, src: &str) {
        let file = self.files.len();
        self.files.push(rel_path.to_string());
        let toks = crate::lexer::lex(src);
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
        };
        self.scan_items(&mut cur, file, None, usize::MAX);
    }

    /// Scans items until `end` (exclusive token position) or EOF.
    fn scan_items(
        &mut self,
        cur: &mut Cursor<'_>,
        file: usize,
        self_type: Option<&str>,
        end: usize,
    ) {
        let mut pend = Pending::default();
        while cur.pos < cur.toks.len().min(end) {
            let t = &cur.toks[cur.pos];
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => {
                    if t.is_annotation("ct-secret") {
                        pend.secret = true;
                    }
                    if t.is_annotation("ct-vartime") {
                        pend.vartime = true;
                    }
                    cur.pos += 1;
                }
                TokKind::Punct if t.text == "#" => {
                    // Attribute: #[...] or #![...]
                    let attr = cur.take_attr();
                    if attr.contains("cfg ( test") || attr.contains("cfg ( any ( test") {
                        pend.cfg_test = true;
                    }
                }
                TokKind::Ident => match t.text.as_str() {
                    "mod" => {
                        cur.pos += 1; // mod
                        if let Some(name_idx) = cur.next_significant(cur.pos) {
                            cur.pos = name_idx + 1; // past the module name
                        }
                        if cur.peek_is_punct("{") {
                            let open = cur.next_significant(cur.pos).unwrap_or(cur.pos);
                            let close = cur.matching_brace_at(open);
                            cur.pos = open + 1;
                            if pend.cfg_test {
                                cur.pos = close + 1;
                            } else {
                                self.scan_items(cur, file, self_type, close);
                                cur.pos = close + 1;
                            }
                        } else {
                            cur.skip_past_semi();
                        }
                        pend = Pending::default();
                    }
                    "impl" => {
                        let (target, is_drop, body_open) = cur.parse_impl_header();
                        if let Some(open) = body_open {
                            let close = cur.matching_brace_at(open);
                            cur.pos = open + 1;
                            if pend.cfg_test {
                                cur.pos = close + 1;
                            } else {
                                if is_drop {
                                    self.drop_impls.push(target.clone());
                                }
                                self.scan_items(cur, file, Some(&target), close);
                                cur.pos = close + 1;
                            }
                        }
                        pend = Pending::default();
                    }
                    "trait" => {
                        // Default methods can carry real code; scan the
                        // block with no Self type.
                        cur.pos += 1;
                        if let Some(open) = cur.find_block_open() {
                            let close = cur.matching_brace_at(open);
                            cur.pos = open + 1;
                            if pend.cfg_test {
                                cur.pos = close + 1;
                            } else {
                                self.scan_items(cur, file, None, close);
                                cur.pos = close + 1;
                            }
                        }
                        pend = Pending::default();
                    }
                    "fn" => {
                        let parsed = cur.parse_fn(file, self_type, &pend);
                        if let Some(f) = parsed {
                            if !pend.cfg_test {
                                self.fns.push(f);
                            }
                        }
                        pend = Pending::default();
                    }
                    "struct" => {
                        let parsed = cur.parse_struct(file, &pend);
                        if let Some(s) = parsed {
                            if !pend.cfg_test {
                                self.structs.push(s);
                            }
                        }
                        pend = Pending::default();
                    }
                    _ => {
                        cur.pos += 1;
                        // Annotations survive visibility/qualifier
                        // keywords between the comment and the item.
                        if !matches!(
                            t.text.as_str(),
                            "pub" | "crate" | "const" | "unsafe" | "async" | "extern" | "in"
                        ) {
                            pend.secret = false;
                            pend.vartime = false;
                        }
                    }
                },
                TokKind::Punct if t.text == "(" || t.text == ")" => {
                    // `pub(crate)` parens and similar.
                    cur.pos += 1;
                }
                _ => {
                    // `;` ends a non-item statement (e.g. a
                    // `#[cfg(test)] use …;`): drop all pending state.
                    if t.is_punct(";") {
                        pend = Pending::default();
                    } else {
                        pend.secret = false;
                        pend.vartime = false;
                    }
                    cur.pos += 1;
                }
            }
        }
    }
}

/// Annotations waiting to attach to the next item.
#[derive(Default)]
struct Pending {
    secret: bool,
    vartime: bool,
    cfg_test: bool,
}

/// A position in a token slice with the navigation helpers the
/// indexer needs. All helpers are total: they stop at EOF rather than
/// panicking on malformed input.
struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek_is_punct(&self, p: &str) -> bool {
        self.next_significant(self.pos)
            .map(|i| self.toks[i].is_punct(p))
            .unwrap_or(false)
    }

    /// Next non-comment token index at or after `from`.
    fn next_significant(&self, from: usize) -> Option<usize> {
        (from..self.toks.len()).find(|&i| !self.toks[i].is_comment())
    }

    /// Consumes an attribute starting at `#`; returns its joined text.
    fn take_attr(&mut self) -> String {
        let start = self.pos;
        self.pos += 1; // '#'
        if self
            .toks
            .get(self.pos)
            .map(|t| t.is_punct("!"))
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        if self
            .toks
            .get(self.pos)
            .map(|t| t.is_punct("["))
            .unwrap_or(false)
        {
            let mut depth = 0usize;
            while self.pos < self.toks.len() {
                let t = &self.toks[self.pos];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        break;
                    }
                }
                self.pos += 1;
            }
        }
        join(&self.toks[start..self.pos.min(self.toks.len())])
    }

    /// Index of the `}` matching the `{` at `open`.
    fn matching_brace_at(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// Finds the next top-level `{` before any `;` (for items whose
    /// header we do not model precisely).
    fn find_block_open(&self) -> Option<usize> {
        let mut i = self.pos;
        let mut angle = 0i32;
        while i < self.toks.len() {
            let t = &self.toks[i];
            // `>>` (and `<<`) lex as one token — a signature ending in
            // `Option<Box<dyn T>>` must still return to depth 0.
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct("<<") {
                angle += 2;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct(">>") {
                angle -= 2;
            } else if t.is_punct("{") && angle <= 0 {
                return Some(i);
            } else if t.is_punct(";") && angle <= 0 {
                return None;
            }
            i += 1;
        }
        None
    }

    fn skip_past_semi(&mut self) {
        while self.pos < self.toks.len() && !self.toks[self.pos].is_punct(";") {
            self.pos += 1;
        }
        self.pos = (self.pos + 1).min(self.toks.len());
    }

    /// Parses `impl<G> Trait for Type {` / `impl Type {` from the
    /// `impl` keyword. Returns (target type simple name, is Drop impl,
    /// body-open token index).
    fn parse_impl_header(&mut self) -> (String, bool, Option<usize>) {
        self.pos += 1; // impl
                       // Skip generic parameters.
        if self.peek_is_punct("<") {
            self.skip_angle_group();
        }
        let open = self.find_block_open();
        let header_end = open.unwrap_or(self.toks.len());
        let header: Vec<&Tok> = self.toks[self.pos.min(header_end)..header_end]
            .iter()
            .filter(|t| !t.is_comment())
            .collect();
        // Split at `for` (a trait impl) if present at angle depth 0.
        let mut for_split = None;
        let mut angle = 0i32;
        for (i, t) in header.iter().enumerate() {
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_ident("for") && angle <= 0 {
                for_split = Some(i);
                break;
            }
        }
        let (trait_part, type_part): (&[&Tok], &[&Tok]) = match for_split {
            Some(i) => (&header[..i], &header[i + 1..]),
            None => (&[], &header[..]),
        };
        // Target type: last path-segment identifier before generics /
        // a `where` clause.
        let mut target = String::new();
        let mut angle2 = 0i32;
        for t in type_part {
            if t.is_punct("<") {
                angle2 += 1;
            } else if t.is_punct(">") {
                angle2 -= 1;
            } else if t.is_ident("where") && angle2 <= 0 {
                break;
            } else if t.kind == TokKind::Ident && angle2 <= 0 {
                target = t.text.clone();
            }
        }
        let trait_name = trait_part
            .iter()
            .rfind(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        (target, trait_name == "Drop", open)
    }

    /// Skips a balanced `<...>` group starting at the next `<`.
    fn skip_angle_group(&mut self) {
        if let Some(start) = self.next_significant(self.pos) {
            if !self.toks[start].is_punct("<") {
                return;
            }
            let mut depth = 0i32;
            let mut i = start;
            while i < self.toks.len() {
                let t = &self.toks[i];
                if t.is_punct("<") || t.is_punct("<<") {
                    depth += if t.is_punct("<<") { 2 } else { 1 };
                } else if t.is_punct(">") || t.is_punct(">>") {
                    depth -= if t.is_punct(">>") { 2 } else { 1 };
                    if depth <= 0 {
                        self.pos = i + 1;
                        return;
                    }
                } else if t.is_punct("->") {
                    // `->` inside a generic bound (Fn() -> T) — ignore.
                }
                i += 1;
            }
            self.pos = self.toks.len();
        }
    }

    /// Parses a `fn` item from the `fn` keyword. Returns `None` for
    /// declarations without a name (malformed input).
    fn parse_fn(&mut self, file: usize, self_type: Option<&str>, pend: &Pending) -> Option<FnItem> {
        let line = self.toks[self.pos].line;
        self.pos += 1; // fn
        let name_idx = self.next_significant(self.pos)?;
        if self.toks[name_idx].kind != TokKind::Ident {
            self.pos = name_idx;
            return None;
        }
        let name = self.toks[name_idx].text.clone();
        self.pos = name_idx + 1;
        if self.peek_is_punct("<") {
            self.skip_angle_group();
        }
        // Parameter list.
        let mut params = Vec::new();
        let mut has_self = false;
        if let Some(open) = self.next_significant(self.pos) {
            if self.toks[open].is_punct("(") {
                let close = self.matching_paren_at(open);
                let mut start = open + 1;
                let mut depth = 0i32;
                let mut i = open + 1;
                while i <= close && i < self.toks.len() {
                    let t = &self.toks[i];
                    if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") || t.is_punct("<") {
                        depth += 1;
                    } else if t.is_punct(")")
                        || t.is_punct("]")
                        || t.is_punct("}")
                        || t.is_punct(">")
                    {
                        depth -= 1;
                    }
                    if (t.is_punct(",") && depth == 0) || i == close {
                        let seg = &self.toks[start..i];
                        if let Some(p) = parse_param(seg) {
                            if p.ty.is_empty() && p.names.iter().any(|n| n == "self") {
                                has_self = true;
                            } else if !p.names.is_empty() {
                                params.push(p);
                            }
                        }
                        start = i + 1;
                    }
                    i += 1;
                }
                self.pos = close + 1;
            }
        }
        // Return type: up to `{`, `;` or `where`.
        let mut ret = String::new();
        if let Some(arrow) = self.next_significant(self.pos) {
            if self.toks[arrow].is_punct("->") {
                let mut i = arrow + 1;
                let mut angle = 0i32;
                let mut parts = Vec::new();
                while i < self.toks.len() {
                    let t = &self.toks[i];
                    // `>>`/`<<` lex as one token each (see
                    // `find_block_open`).
                    if t.is_punct("<") {
                        angle += 1;
                    } else if t.is_punct("<<") {
                        angle += 2;
                    } else if t.is_punct(">") {
                        angle -= 1;
                    } else if t.is_punct(">>") {
                        angle -= 2;
                    }
                    if angle <= 0 && (t.is_punct("{") || t.is_punct(";") || t.is_ident("where")) {
                        break;
                    }
                    if !t.is_comment() {
                        parts.push(t.text.clone());
                    }
                    i += 1;
                }
                ret = parts.join(" ");
                self.pos = i;
            }
        }
        // Body (or `;` for a declaration).
        let mut body = Vec::new();
        if let Some(open) = self.find_block_open() {
            let close = self.matching_brace_at(open);
            body = self.toks[open + 1..close.min(self.toks.len())].to_vec();
            self.pos = close + 1;
        } else {
            self.skip_past_semi();
        }
        let vartime = pend.vartime || name.ends_with("_vartime");
        let qual = match self_type {
            Some(t) => format!("{t}::{name}"),
            None => name.clone(),
        };
        Some(FnItem {
            name,
            qual,
            file,
            line,
            self_type: self_type.map(str::to_string),
            params,
            has_self,
            ret,
            vartime,
            ct_secret: pend.secret,
            body,
        })
    }

    /// Index of the `)` matching the `(` at `open`.
    fn matching_paren_at(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for i in open..self.toks.len() {
            let t = &self.toks[i];
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
        self.toks.len().saturating_sub(1)
    }

    /// Parses a `struct` item from the `struct` keyword.
    fn parse_struct(&mut self, file: usize, pend: &Pending) -> Option<StructItem> {
        let line = self.toks[self.pos].line;
        self.pos += 1; // struct
        let name_idx = self.next_significant(self.pos)?;
        if self.toks[name_idx].kind != TokKind::Ident {
            self.pos = name_idx;
            return None;
        }
        let name = self.toks[name_idx].text.clone();
        self.pos = name_idx + 1;
        if self.peek_is_punct("<") {
            self.skip_angle_group();
        }
        let mut fields = Vec::new();
        let mut ct_secret = pend.secret;
        if let Some(next) = self.next_significant(self.pos) {
            if self.toks[next].is_punct("{") {
                let close = self.matching_brace_at(next);
                fields = parse_named_fields(&self.toks[next + 1..close.min(self.toks.len())]);
                self.pos = close + 1;
            } else if self.toks[next].is_punct("(") {
                let close = self.matching_paren_at(next);
                let inner = &self.toks[next + 1..close.min(self.toks.len())];
                // Tuple fields: split top-level commas; a ct-secret
                // comment anywhere inside marks the struct.
                if inner.iter().any(|t| t.is_annotation("ct-secret")) {
                    ct_secret = true;
                }
                let mut depth = 0i32;
                let mut start = 0usize;
                for (i, t) in inner.iter().enumerate() {
                    if t.is_punct("(") || t.is_punct("<") || t.is_punct("[") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct(">") || t.is_punct("]") {
                        depth -= 1;
                    }
                    if (t.is_punct(",") && depth == 0) || i + 1 == inner.len() {
                        let end = if t.is_punct(",") { i } else { i + 1 };
                        let ty = join_significant(&inner[start..end]);
                        if !ty.is_empty() {
                            fields.push(Field {
                                name: fields.len().to_string(),
                                ty,
                                ct_secret: false,
                                ct_public: false,
                            });
                        }
                        start = i + 1;
                    }
                }
                self.pos = close + 1;
                self.skip_past_semi();
            } else {
                // Unit struct.
                self.skip_past_semi();
            }
        }
        Some(StructItem {
            name,
            file,
            line,
            fields,
            ct_secret,
        })
    }
}

/// Parses one named-field list (`vis name: Type, …` with attributes
/// and comments interleaved).
fn parse_named_fields(toks: &[Tok]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("(") || t.is_punct("<") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct(">") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        }
        if (t.is_punct(",") && depth == 0) || i + 1 == toks.len() {
            let end = if t.is_punct(",") { i } else { i + 1 };
            let seg = &toks[start..end];
            let ct_secret = seg.iter().any(|t| t.is_annotation("ct-secret"));
            let ct_public = seg.iter().any(|t| t.is_annotation("ct-public"));
            // name is the last ident before the top-level `:`.
            let mut colon = None;
            let mut d2 = 0i32;
            for (j, s) in seg.iter().enumerate() {
                if s.is_punct("<") || s.is_punct("(") || s.is_punct("[") {
                    d2 += 1;
                } else if s.is_punct(">") || s.is_punct(")") || s.is_punct("]") {
                    d2 -= 1;
                } else if s.is_punct(":") && d2 == 0 {
                    colon = Some(j);
                    break;
                }
            }
            if let Some(c) = colon {
                let name = seg[..c]
                    .iter()
                    .rfind(|s| s.kind == TokKind::Ident)
                    .map(|s| s.text.clone());
                if let Some(name) = name {
                    fields.push(Field {
                        name,
                        ty: join_significant(&seg[c + 1..]),
                        ct_secret,
                        ct_public,
                    });
                }
            }
            start = i + 1;
        }
    }
    fields
}

/// Parses one parameter segment into bound names + type text.
fn parse_param(toks: &[Tok]) -> Option<Param> {
    let sig: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    if sig.is_empty() {
        return None;
    }
    // Receiver forms: self, &self, &mut self, mut self, self: Type.
    let mut colon = None;
    let mut depth = 0i32;
    for (i, t) in sig.iter().enumerate() {
        if t.is_punct("<") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(">") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct(":") && depth == 0 {
            colon = Some(i);
            break;
        }
    }
    match colon {
        None => {
            let names: Vec<String> = sig
                .iter()
                .filter(|t| t.kind == TokKind::Ident && t.text != "mut")
                .map(|t| t.text.clone())
                .collect();
            Some(Param {
                names,
                ty: String::new(),
            })
        }
        Some(c) => {
            let names: Vec<String> = sig[..c]
                .iter()
                .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                .map(|t| t.text.clone())
                .collect();
            let ty: String = sig[c + 1..]
                .iter()
                .map(|t| t.text.clone())
                .collect::<Vec<_>>()
                .join(" ");
            Some(Param { names, ty })
        }
    }
}

/// Joins token texts with spaces.
pub fn join(toks: &[Tok]) -> String {
    toks.iter()
        .map(|t| t.text.clone())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Joins non-comment token texts with spaces.
pub fn join_significant(toks: &[Tok]) -> String {
    toks.iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.text.clone())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(src: &str) -> Index {
        let mut ix = Index::default();
        ix.add_file("test.rs", src);
        ix
    }

    #[test]
    fn indexes_fns_structs_and_impls() {
        let ix = index_of(
            "struct KeyBox { k: Scalar, pub n: u32 }\n\
             impl Drop for KeyBox { fn drop(&mut self) {} }\n\
             impl KeyBox { fn get(&self, i: usize) -> u32 { self.n } }\n\
             fn free(a: &Scalar, b: u8) -> bool { false }\n",
        );
        assert_eq!(ix.structs.len(), 1);
        assert_eq!(ix.structs[0].fields.len(), 2);
        assert_eq!(ix.structs[0].fields[0].ty, "Scalar");
        assert!(ix.drop_impls.contains(&"KeyBox".to_string()));
        let get = ix.fns.iter().find(|f| f.name == "get").unwrap();
        assert_eq!(get.qual, "KeyBox::get");
        assert!(get.has_self);
        let free = ix.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].ty, "& Scalar");
        assert_eq!(free.ret, "bool");
    }

    #[test]
    fn double_angle_return_type_does_not_swallow_next_fn() {
        // `>>` lexes as one token; a signature ending in it must not
        // leave the angle-depth tracker above zero (which would swallow
        // every following item into this fn's "body").
        let ix = index_of(
            "fn make(k: u8) -> Option<Box<dyn Iterator<Item = u8>>> { None }\n\
             fn after() {}\n",
        );
        let make = ix.fns.iter().find(|f| f.name == "make").unwrap();
        assert!(ix.fns.iter().any(|f| f.name == "after"));
        assert!(!make.ret.is_empty());
    }

    #[test]
    fn skips_cfg_test_modules() {
        let ix = index_of("#[cfg(test)]\nmod tests { fn hidden() {} }\nfn visible() {}\n");
        assert!(ix.fns.iter().any(|f| f.name == "visible"));
        assert!(!ix.fns.iter().any(|f| f.name == "hidden"));
    }

    #[test]
    fn attaches_annotations() {
        let ix = index_of(
            "// ct-vartime: zero-skipping walk\nfn shamir(a: u8) {}\n\
             // ct-secret\nfn derive_thing(x: u8) {}\n\
             struct Buf {\n    // ct-secret\n    data: [u8; 32],\n    len: usize,\n}\n",
        );
        assert!(ix.fns.iter().find(|f| f.name == "shamir").unwrap().vartime);
        assert!(
            ix.fns
                .iter()
                .find(|f| f.name == "derive_thing")
                .unwrap()
                .ct_secret
        );
        let buf = &ix.structs[0];
        assert!(buf.fields[0].ct_secret);
        assert!(!buf.fields[1].ct_secret);
    }

    #[test]
    fn vartime_suffix_marks_family() {
        let ix = index_of("fn mul_vartime(k: u8) {}\n");
        assert!(ix.fns[0].vartime);
    }
}
