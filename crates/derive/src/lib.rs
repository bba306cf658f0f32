//! `#[derive(CloneFrom)]`: a field-wise `Clone` whose `clone_from` reuses
//! the destination's buffers, implemented directly on `proc_macro` (no syn
//! or quote: the workspace builds offline).
//!
//! The standard `#[derive(Clone)]` leaves `clone_from` at its default,
//! `*self = source.clone()`, which allocates every buffer anew. This derive
//! writes `clone` as a clone of each field, and `clone_from` as a
//! destructuring of the whole source followed by each field's own
//! `clone_from`, so a `Vec` keeps its capacity, a nested type runs its own
//! `clone_from`, and a field added later cannot be left out.
//!
//! ```
//! #[derive(Debug, PartialEq, teesec_derive::CloneFrom)]
//! struct Buffers {
//!     name: String,
//!     words: Vec<u64>,
//! }
//!
//! let source = Buffers { name: "boom".into(), words: vec![1, 2] };
//! let mut copy = Buffers { name: String::with_capacity(64), words: vec![0; 8] };
//! copy.clone_from(&source);
//! assert_eq!(copy, source.clone());
//! assert!(copy.name.capacity() >= 64 && copy.words.capacity() >= 8);
//! ```
//!
//! It accepts named-field structs without generic parameters and fails to
//! compile on anything else:
//!
//! ```compile_fail
//! #[derive(teesec_derive::CloneFrom)]
//! enum Lane { Load, Store }
//! ```
//!
//! ```compile_fail
//! #[derive(teesec_derive::CloneFrom)]
//! struct Pair(u64, u64);
//! ```
//!
//! ```compile_fail
//! #[derive(teesec_derive::CloneFrom)]
//! struct Table<T> { entries: Vec<T> }
//! ```

use proc_macro::{Delimiter, Spacing, TokenStream, TokenTree};

/// Derives `Clone` field by field, with a `clone_from` that calls each
/// field's `clone_from` (see the crate documentation).
#[proc_macro_derive(CloneFrom)]
pub fn derive_clone_from(input: TokenStream) -> TokenStream {
    let code = match parse(input) {
        Ok((name, fields)) => expand(&name, &fields),
        Err(message) => format!("::core::compile_error!({message:?});"),
    };
    code.parse().expect("CloneFrom: the generated impl parses")
}

/// The struct's name and its field names, in declaration order.
fn parse(input: TokenStream) -> Result<(String, Vec<String>), String> {
    let mut toks = input.into_iter();
    // Attributes and visibility are single tokens or groups; the first
    // keyword names the kind of item.
    let kind =
        toks.by_ref()
            .find_map(|t| match t {
                TokenTree::Ident(id) => Some(id.to_string())
                    .filter(|s| matches!(s.as_str(), "struct" | "enum" | "union")),
                _ => None,
            })
            .ok_or("CloneFrom: expected a struct")?;
    let name = match toks.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("CloneFrom: expected the type's name".into()),
    };
    if kind != "struct" {
        return Err(format!("CloneFrom: `{name}` is not a struct"));
    }
    match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok((name, field_names(g.stream())))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            Err(format!("CloneFrom: `{name}` is generic"))
        }
        _ => Err(format!("CloneFrom: `{name}` has no named fields")),
    }
}

/// The names of the named fields in `body`: each field is attributes, an
/// optional visibility, its name, `:` and a type up to a comma outside
/// any `<...>`.
fn field_names(body: TokenStream) -> Vec<String> {
    let mut names = Vec::new();
    let mut toks = body.into_iter().peekable();
    while let Some(t) = toks.next() {
        match t {
            // `#` of an attribute; its `[...]` group goes next.
            TokenTree::Punct(p) if p.as_char() == '#' => {
                toks.next();
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    toks.next();
                }
            }
            TokenTree::Ident(id) => {
                names.push(id.to_string());
                skip_type(&mut toks);
            }
            _ => {}
        }
    }
    names
}

/// Consumes `: Type,` (or `: Type` at the end of the body).
fn skip_type(toks: &mut impl Iterator<Item = TokenTree>) {
    let mut depth = 0usize;
    // `-` joint with a following `>` spells `->`, which closes nothing.
    let mut arrow = false;
    for t in toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !arrow => depth = depth.saturating_sub(1),
                ',' if depth == 0 => return,
                _ => {}
            }
            arrow = p.as_char() == '-' && p.spacing() == Spacing::Joint;
        } else {
            arrow = false;
        }
    }
}

fn expand(name: &str, fields: &[String]) -> String {
    let clones: String = fields
        .iter()
        .map(|f| format!("{f}: ::core::clone::Clone::clone(&self.{f}),"))
        .collect();
    let copies: String = fields
        .iter()
        .map(|f| format!("::core::clone::Clone::clone_from(&mut self.{f}, {f});"))
        .collect();
    let binds = fields.join(", ");
    format!(
        "#[automatically_derived]
        impl ::core::clone::Clone for {name} {{
            fn clone(&self) -> Self {{
                {name} {{ {clones} }}
            }}

            fn clone_from(&mut self, source: &Self) {{
                let {name} {{ {binds} }} = source;
                {copies}
            }}
        }}"
    )
}
