//! Item indexing: a brace-matching scan over the token stream that
//! extracts the declarations the taint analysis needs — functions
//! (with parameter/return types and body token ranges), structs (with
//! field types), `const` items (with their initializers), module-level
//! `type` aliases (for call resolution and secret-flow markers), `impl`
//! and `trait` blocks (for `Self` types, call resolution and `Drop`
//! coverage) —
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

use crate::lexer::{partner, split_top, top_level, Nest, Tok, TokKind};
use std::borrow::Borrow;
use std::collections::BTreeMap;

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
    /// Declared in a `trait` block or an `impl Trait for T` block.
    pub in_trait: bool,
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
    /// Whether a body block follows the signature (a trait
    /// declaration has none; `{}` is a body).
    pub has_body: bool,
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

/// An indexed `const` item, free or associated.
#[derive(Clone, Debug)]
pub struct ConstItem {
    /// The constant's name.
    pub name: String,
    /// The initializer, as space-joined token text.
    pub init: String,
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
    /// All indexed `const` items.
    pub consts: Vec<ConstItem>,
    /// Types with an `impl Drop for T`.
    pub drop_impls: Vec<String>,
    /// Module-level `type` aliases: each alias name mapped to the simple
    /// name of the type it aliases (`Scalar` → `Residue` for
    /// `type Scalar = Residue<ModN>;`). A later alias of the same name
    /// replaces an earlier one.
    pub aliases: BTreeMap<String, String>,
}

impl Index {
    /// `ty` seen through a module-level alias: the aliased type's simple
    /// name, or `ty` itself when it is no alias. One level deep.
    pub fn resolve<'a>(&'a self, ty: &'a str) -> &'a str {
        self.aliases.get(ty).map_or(ty, String::as_str)
    }

    /// Lexes and indexes one file, appending into this index.
    pub fn add_file(&mut self, rel_path: &str, src: &str) {
        let file = self.files.len();
        self.files.push(rel_path.to_string());
        let toks = crate::lexer::lex(src);
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
        };
        self.scan_items(&mut cur, file, None, false, usize::MAX);
    }

    /// Scans items until `end` (exclusive token position) or EOF;
    /// `in_trait` marks a `trait` or `impl Trait for T` block.
    fn scan_items(
        &mut self,
        cur: &mut Cursor<'_>,
        file: usize,
        self_type: Option<&str>,
        in_trait: bool,
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
                            let close = cur.close_of(open);
                            cur.pos = open + 1;
                            if pend.cfg_test {
                                cur.pos = close + 1;
                            } else {
                                self.scan_items(cur, file, self_type, in_trait, close);
                                cur.pos = close + 1;
                            }
                        } else {
                            cur.skip_past_semi();
                        }
                        pend = Pending::default();
                    }
                    "impl" => {
                        let (target, trait_name, body_open) = cur.parse_impl_header();
                        if let Some(open) = body_open {
                            let close = cur.close_of(open);
                            cur.pos = open + 1;
                            if pend.cfg_test {
                                cur.pos = close + 1;
                            } else {
                                if trait_name.as_deref() == Some("Drop") {
                                    self.drop_impls.push(target.clone());
                                }
                                let trait_impl = trait_name.is_some();
                                self.scan_items(cur, file, Some(&target), trait_impl, close);
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
                            let close = cur.close_of(open);
                            cur.pos = open + 1;
                            if pend.cfg_test {
                                cur.pos = close + 1;
                            } else {
                                self.scan_items(cur, file, None, true, close);
                                cur.pos = close + 1;
                            }
                        }
                        pend = Pending::default();
                    }
                    "fn" => {
                        let parsed = cur.parse_fn(file, self_type, in_trait, &pend);
                        if let Some(f) = parsed {
                            if !pend.cfg_test {
                                self.fns.push(f);
                            }
                        }
                        pend = Pending::default();
                    }
                    "const" => match cur.parse_const() {
                        Some(c) => {
                            if !pend.cfg_test {
                                self.consts.push(c);
                            }
                            pend = Pending::default();
                        }
                        // `const fn`: a qualifier, which annotations
                        // survive.
                        None => cur.pos += 1,
                    },
                    "type" => {
                        // An associated type (`type Item = …;` in an
                        // impl or trait) names nothing calls resolve to.
                        let parsed = cur.parse_alias();
                        if let Some((name, target)) = parsed {
                            if self_type.is_none() && !in_trait && !pend.cfg_test {
                                self.aliases.insert(name, target);
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
                            "pub" | "crate" | "unsafe" | "async" | "extern" | "in"
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

    /// The bracket closing the one at `open`; the last token when it
    /// is unclosed.
    fn close_of(&self, open: usize) -> usize {
        partner(self.toks, open).unwrap_or(self.toks.len().saturating_sub(1))
    }

    /// Consumes an attribute starting at `#`; returns its joined text.
    fn take_attr(&mut self) -> String {
        let start = self.pos;
        self.pos += 1; // '#'
        if self.toks.get(self.pos).is_some_and(|t| t.is_punct("!")) {
            self.pos += 1;
        }
        if self.toks.get(self.pos).is_some_and(|t| t.is_punct("[")) {
            self.pos = self.close_of(self.pos) + 1;
        }
        join(&self.toks[start..self.pos.min(self.toks.len())])
    }

    /// Finds the next depth-0 `{` before any `;` (for items whose
    /// header we do not model precisely).
    fn find_block_open(&self) -> Option<usize> {
        let rest = self.toks.get(self.pos..)?;
        let end = top_level(rest, Nest::Type)
            .find(|&i| rest[i].is_punct("{") || rest[i].is_punct(";"))?;
        rest[end].is_punct("{").then_some(self.pos + end)
    }

    fn skip_past_semi(&mut self) {
        while self.pos < self.toks.len() && !self.toks[self.pos].is_punct(";") {
            self.pos += 1;
        }
        self.pos = (self.pos + 1).min(self.toks.len());
    }

    /// Skips a generic parameter list `<...>` when one comes next.
    fn skip_generics(&mut self) {
        if let Some(open) = self.next_significant(self.pos) {
            if self.toks[open].is_punct("<") {
                self.pos = self.close_of(open) + 1;
            }
        }
    }

    /// Parses `impl<G> Trait for Type {` / `impl Type {` from the
    /// `impl` keyword. Returns (target type simple name, trait simple
    /// name for a trait impl, body-open token index).
    fn parse_impl_header(&mut self) -> (String, Option<String>, Option<usize>) {
        self.pos += 1; // impl
        self.skip_generics();
        let open = self.find_block_open();
        let header_end = open.unwrap_or(self.toks.len());
        let header: Vec<&Tok> = self.toks[self.pos.min(header_end)..header_end]
            .iter()
            .filter(|t| !t.is_comment())
            .collect();
        // Split at a depth-0 `for` (a trait impl).
        let for_split = top_level(&header, Nest::Type).find(|&i| header[i].is_ident("for"));
        let (trait_part, type_part) = match for_split {
            Some(i) => (&header[..i], &header[i + 1..]),
            None => (&header[..0], &header[..]),
        };
        // Target type: the last depth-0 identifier before a `where`
        // clause. An array or slice type has none and is named by its
        // text.
        let ty_end = top_level(type_part, Nest::Type)
            .find(|&i| type_part[i].is_ident("where"))
            .unwrap_or(type_part.len());
        let ty = &type_part[..ty_end];
        let target = top_level(ty, Nest::Type)
            .filter(|&i| ty[i].kind == TokKind::Ident)
            .last()
            .map_or_else(|| join(ty), |i| ty[i].text.clone());
        let trait_name = for_split.map(|_| {
            trait_part
                .iter()
                .rfind(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_default()
        });
        (target, trait_name, open)
    }

    /// Parses a `fn` item from the `fn` keyword. Returns `None` for
    /// declarations without a name (malformed input).
    fn parse_fn(
        &mut self,
        file: usize,
        self_type: Option<&str>,
        in_trait: bool,
        pend: &Pending,
    ) -> Option<FnItem> {
        let line = self.toks[self.pos].line;
        self.pos += 1; // fn
        let name_idx = self.next_significant(self.pos)?;
        if self.toks[name_idx].kind != TokKind::Ident {
            self.pos = name_idx;
            return None;
        }
        let name = self.toks[name_idx].text.clone();
        self.pos = name_idx + 1;
        self.skip_generics();
        // Parameter list.
        let mut params = Vec::new();
        let mut has_self = false;
        if let Some(open) = self.next_significant(self.pos) {
            if self.toks[open].is_punct("(") {
                let close = self.close_of(open);
                for seg in split_top(&self.toks[open + 1..close.max(open + 1)], Nest::Type, ",") {
                    if let Some(p) = parse_param(seg) {
                        if p.ty.is_empty() && p.names.iter().any(|n| n == "self") {
                            has_self = true;
                        } else if !p.names.is_empty() {
                            params.push(p);
                        }
                    }
                }
                self.pos = close + 1;
            }
        }
        // Return type: up to a depth-0 `{`, `;` or `where`.
        let mut ret = String::new();
        if let Some(arrow) = self.next_significant(self.pos) {
            if self.toks[arrow].is_punct("->") {
                let rest = &self.toks[arrow + 1..];
                let end = top_level(rest, Nest::Type)
                    .find(|&i| {
                        rest[i].is_punct("{") || rest[i].is_punct(";") || rest[i].is_ident("where")
                    })
                    .unwrap_or(rest.len());
                ret = join_significant(&rest[..end]);
                self.pos = arrow + 1 + end;
            }
        }
        // Body (or `;` for a declaration).
        let block = self.find_block_open();
        let mut body = Vec::new();
        if let Some(open) = block {
            let close = self.close_of(open);
            body = self.toks[open + 1..close.max(open + 1)].to_vec();
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
            in_trait,
            params,
            has_self,
            ret,
            vartime,
            ct_secret: pend.secret,
            has_body: block.is_some(),
            body,
        })
    }

    /// Parses a `const NAME: Type = init;` item from the `const`
    /// keyword, leaving the cursor past its `;`. `None`, with the
    /// cursor unmoved, when `const` qualifies a `fn` or the item has no
    /// initializer.
    fn parse_const(&mut self) -> Option<ConstItem> {
        let name = self.next_significant(self.pos + 1)?;
        let colon = self.next_significant(name + 1)?;
        if self.toks[name].kind != TokKind::Ident || !self.toks[colon].is_punct(":") {
            return None;
        }
        let rest = &self.toks[colon + 1..];
        let end = top_level(rest, Nest::Expr)
            .find(|&i| rest[i].is_punct(";"))
            .unwrap_or(rest.len());
        let item = &rest[..end];
        let eq = top_level(item, Nest::Type).find(|&i| item[i].is_punct("="))?;
        self.pos = (colon + end + 2).min(self.toks.len());
        Some(ConstItem {
            name: self.toks[name].text.clone(),
            init: join_significant(&item[eq + 1..]),
        })
    }

    /// Parses a `type Name<..> = Target<..>;` item from the `type`
    /// keyword, leaving the cursor past its `;`. Returns the alias name
    /// and the target's simple name, its last depth-0 identifier
    /// (`Residue` in `crate::residue::Residue<ModN>`); `None` for a
    /// declaration without `=` or a target without such an identifier
    /// (a tuple, array or slice type).
    fn parse_alias(&mut self) -> Option<(String, String)> {
        let rest = &self.toks[self.pos..];
        let end = top_level(rest, Nest::Type)
            .find(|&i| rest[i].is_punct(";"))
            .unwrap_or(rest.len());
        let item: Vec<&Tok> = rest[1..end].iter().filter(|t| !t.is_comment()).collect();
        self.pos = (self.pos + end + 1).min(self.toks.len());
        let name = item.first().filter(|t| t.kind == TokKind::Ident)?;
        let eq = top_level(&item, Nest::Type).find(|&i| item[i].is_punct("="))?;
        let ty = &item[eq + 1..];
        let target = top_level(ty, Nest::Type)
            .filter(|&i| ty[i].kind == TokKind::Ident)
            .last()?;
        Some((name.text.clone(), ty[target].text.clone()))
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
        self.skip_generics();
        let mut fields = Vec::new();
        let mut ct_secret = pend.secret;
        if let Some(next) = self.next_significant(self.pos) {
            let close = self.close_of(next);
            let inner = &self.toks[next + 1..close.max(next + 1)];
            if self.toks[next].is_punct("{") {
                fields = parse_named_fields(inner);
                self.pos = close + 1;
            } else if self.toks[next].is_punct("(") {
                // Tuple fields; a ct-secret comment anywhere inside
                // marks the struct.
                if inner.iter().any(|t| t.is_annotation("ct-secret")) {
                    ct_secret = true;
                }
                let types = split_top(inner, Nest::Type, ",")
                    .into_iter()
                    .map(join_significant);
                fields = types
                    .filter(|ty| !ty.is_empty())
                    .enumerate()
                    .map(|(i, ty)| Field {
                        name: i.to_string(),
                        ty,
                        ct_secret: false,
                        ct_public: false,
                    })
                    .collect();
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
    split_top(toks, Nest::Type, ",")
        .into_iter()
        .filter_map(|seg| {
            // The name is the last ident before the depth-0 `:`.
            let colon = top_level(seg, Nest::Type).find(|&j| seg[j].is_punct(":"))?;
            let name = seg[..colon].iter().rfind(|s| s.kind == TokKind::Ident)?;
            Some(Field {
                name: name.text.clone(),
                ty: join_significant(&seg[colon + 1..]),
                ct_secret: seg.iter().any(|t| t.is_annotation("ct-secret")),
                ct_public: seg.iter().any(|t| t.is_annotation("ct-public")),
            })
        })
        .collect()
}

/// Parses one parameter segment into bound names + type text.
fn parse_param(toks: &[Tok]) -> Option<Param> {
    let sig: Vec<&Tok> = toks.iter().filter(|t| !t.is_comment()).collect();
    (!sig.is_empty()).then(|| binding(&sig))
}

/// A pattern with an optional depth-0 `: Type`: the names it binds
/// (`mut` and `ref` dropped) and the type text, empty when there is
/// none. A receiver (`self`, `&mut self`) binds `self` with no type.
fn binding(sig: &[&Tok]) -> Param {
    let (pat, ty) = match top_level(sig, Nest::Type).find(|&i| sig[i].is_punct(":")) {
        Some(c) => (&sig[..c], join(&sig[c + 1..])),
        None => (sig, String::new()),
    };
    let names = pat
        .iter()
        .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
        .map(|t| t.text.clone())
        .collect();
    Param { names, ty }
}

/// One `let` statement of a fn body.
#[derive(Clone, Debug)]
pub struct Let {
    /// 1-based line of the `let` keyword.
    pub line: u32,
    /// Identifiers bound by the pattern (`mut` and `ref` dropped).
    pub names: Vec<String>,
    /// The declared type as space-joined token text; empty when the
    /// `let` declares none.
    pub ty: String,
}

/// The `let` statements in `sig` (body tokens without comments): each
/// binding runs to its depth-0 `=` or `;`.
pub fn lets(sig: &[&Tok]) -> Vec<Let> {
    let mut out = Vec::new();
    for (i, t) in sig.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        let rest = &sig[i + 1..];
        let end = top_level(rest, Nest::Type)
            .find(|&k| rest[k].is_punct("=") || rest[k].is_punct(";"))
            .unwrap_or(rest.len());
        let Param { names, ty } = binding(&rest[..end]);
        out.push(Let {
            line: t.line,
            names,
            ty,
        });
    }
    out
}

/// Joins token texts with spaces.
pub fn join<T: Borrow<Tok>>(toks: &[T]) -> String {
    toks.iter()
        .map(|t| t.borrow().text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Joins non-comment token texts with spaces.
pub fn join_significant(toks: &[Tok]) -> String {
    toks.iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.text.as_str())
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
    fn unclosed_block_at_end_of_input_is_total() {
        let ix = index_of("fn f() {");
        assert!(ix.fns[0].has_body);
        assert!(ix.fns[0].body.is_empty());
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
    fn indexes_const_items_not_const_fns() {
        let ix = index_of(
            "pub const BLOCK: usize = 16;\n\
             const fn twice(x: u8) -> u8 { x * 2 }\n\
             impl Table { const WIDTH: [u8; 2] = [1, 2]; fn get(&self) {} }\n\
             #[cfg(test)]\nconst HIDDEN: u8 = 0;\n",
        );
        let consts: Vec<(&str, &str)> = ix
            .consts
            .iter()
            .map(|c| (c.name.as_str(), c.init.as_str()))
            .collect();
        assert_eq!(consts, vec![("BLOCK", "16"), ("WIDTH", "[ 1 , 2 ]")]);
        let names: Vec<&str> = ix.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(names, vec!["twice", "Table::get"]);
    }

    #[test]
    fn indexes_module_level_aliases_only() {
        let ix = index_of(
            "pub type Scalar = crate::residue::Residue<ModN>;\n\
             type Pair<T = u8> = (T, T);\n\
             mod m { pub(crate) type Fe = Residue<ModP>; }\n\
             impl Iterator for Walk { type Item = u8; fn next(&mut self) {} }\n\
             trait Tr { type Out; fn f(); }\n\
             #[cfg(test)]\ntype Hidden = Other;\n\
             fn after() {}\n",
        );
        let aliases: Vec<(&str, &str)> = ix
            .aliases
            .iter()
            .map(|(a, t)| (a.as_str(), t.as_str()))
            .collect();
        assert_eq!(aliases, vec![("Fe", "Residue"), ("Scalar", "Residue")]);
        assert_eq!(ix.resolve("Scalar"), "Residue");
        assert_eq!(ix.resolve("Walk"), "Walk");
        let names: Vec<&str> = ix.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(names, vec!["Walk::next", "f", "after"]);
    }

    #[test]
    fn vartime_suffix_marks_family() {
        let ix = index_of("fn mul_vartime(k: u8) {}\n");
        assert!(ix.fns[0].vartime);
    }
}
