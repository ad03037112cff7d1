//! Offline derive-macro shim for the vendored `serde` facade.
//!
//! The build environment has no network access, so the workspace vendors
//! a minimal serde-compatible facade (`crates/compat/serde`). This crate
//! provides the matching `#[derive(Serialize)]` / `#[derive(Deserialize)]`
//! macros, hand-rolled on the bare `proc_macro` API (no `syn`/`quote`).
//! Each derive emits both of the facade's paths:
//!
//! * **the direct path, which serves the wire**: `write_json` appends
//!   the JSON text with field names pre-rendered as literals, and
//!   `read_json` drives the facade's pull reader (first key wins,
//!   unknown keys skipped, missing fields read as `null` or their
//!   default);
//! * **the `Value` path**, `serialize`/`deserialize` over the facade's
//!   JSON-shaped tree, which serves `to_value`/`from_value` and is the
//!   oracle the direct path is tested against.
//!
//! Supported shapes — exactly what the workspace uses:
//!
//! * structs with named fields (plus unit and tuple structs),
//! * enums with unit / tuple / struct variants, externally tagged like
//!   real serde (`"Variant"`, `{"Variant": content}`),
//! * `#[serde(untagged)]` on enums,
//! * `#[serde(default)]` and `#[serde(default = "path")]` on fields.
//!
//! Anything else (generics, lifetimes, other serde attributes) produces
//! a `compile_error!` so misuse is loud rather than silently wrong.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// Field-level serde metadata.
#[derive(Default, Clone)]
struct AttrInfo {
    untagged: bool,
    /// `None` = no default; `Some(None)` = `Default::default()`;
    /// `Some(Some(path))` = call `path()`.
    default: Option<Option<String>>,
}

struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    default: Option<Option<String>>,
}

enum VariantKind {
    Unit,
    /// Element types, as source text.
    Tuple(Vec<String>),
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Data {
    Struct(Vec<Field>),
    TupleStruct(Vec<String>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    untagged: bool,
    data: Data,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde shim codegen error: {e}"))),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut item_attr = AttrInfo::default();
    parse_attrs(&toks, &mut i, &mut item_attr)?;
    skip_visibility(&toks, &mut i);
    let kw = expect_ident(toks.get(i), "`struct` or `enum`")?;
    i += 1;
    let name = expect_ident(toks.get(i), "type name")?;
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim: generic type `{name}` is not supported"
            ));
        }
    }
    let data = match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Struct(parse_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(tuple_field_types(g.stream())?)
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::Struct(Vec::new()),
            _ => return Err(format!("serde shim: malformed struct `{name}`")),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            _ => return Err(format!("serde shim: malformed enum `{name}`")),
        },
        other => return Err(format!("serde shim: cannot derive for item kind `{other}`")),
    };
    Ok(Item {
        name,
        untagged: item_attr.untagged,
        data,
    })
}

fn parse_attrs(toks: &[TokenTree], i: &mut usize, out: &mut AttrInfo) -> Result<(), String> {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1;
                match toks.get(*i) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                        scan_attr_group(g, out)?;
                        *i += 1;
                    }
                    _ => return Err("serde shim: malformed attribute".into()),
                }
            }
            _ => return Ok(()),
        }
    }
}

fn scan_attr_group(g: &Group, out: &mut AttrInfo) -> Result<(), String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let (Some(TokenTree::Ident(id)), Some(TokenTree::Group(args))) = (toks.first(), toks.get(1))
    else {
        return Ok(()); // doc comments, other attrs: ignore
    };
    if id.to_string() != "serde" || args.delimiter() != Delimiter::Parenthesis {
        return Ok(());
    }
    for entry in split_top_level(args.stream()) {
        if entry.is_empty() {
            continue;
        }
        let key = match &entry[0] {
            TokenTree::Ident(k) => k.to_string(),
            other => {
                return Err(format!(
                    "serde shim: unexpected token `{other}` in #[serde(...)]"
                ))
            }
        };
        match key.as_str() {
            "untagged" => out.untagged = true,
            "default" => {
                if entry.len() == 1 {
                    out.default = Some(None);
                } else if entry.len() == 3 {
                    let lit = entry[2].to_string();
                    let path = lit.trim_matches('"').to_string();
                    out.default = Some(Some(path));
                } else {
                    return Err("serde shim: malformed #[serde(default ...)]".into());
                }
            }
            other => return Err(format!("serde shim: unsupported serde attribute `{other}`")),
        }
    }
    Ok(())
}

fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == ',' => out.push(Vec::new()),
            _ => out.last_mut().unwrap().push(t),
        }
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out
}

fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn expect_ident(t: Option<&TokenTree>, what: &str) -> Result<String, String> {
    match t {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        other => Err(format!("serde shim: expected {what}, found {other:?}")),
    }
}

/// Parse `name: Type, ...` (named fields of a struct or struct variant).
fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let mut attr = AttrInfo::default();
        parse_attrs(&toks, &mut i, &mut attr)?;
        skip_visibility(&toks, &mut i);
        let name = expect_ident(toks.get(i), "field name")?;
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "serde shim: expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        let ty_start = i;
        skip_type(&toks, &mut i);
        let ty = toks[ty_start..i].iter().cloned().collect::<TokenStream>();
        if i < toks.len() {
            i += 1; // the separating comma
        }
        fields.push(Field {
            name,
            ty: ty.to_string(),
            default: attr.default,
        });
    }
    Ok(fields)
}

/// Advance past one type, stopping at a top-level `,` (angle-bracket aware;
/// parenthesized/bracketed sub-trees are single opaque tokens already).
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle = 0i64;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => return,
            _ => {}
        }
        *i += 1;
    }
}

/// Each tuple field's type, without its attributes and visibility.
fn tuple_field_types(stream: TokenStream) -> Result<Vec<String>, String> {
    split_type_list(stream)
        .into_iter()
        .map(|part| {
            let mut i = 0;
            parse_attrs(&part, &mut i, &mut AttrInfo::default())?;
            skip_visibility(&part, &mut i);
            Ok(part[i..]
                .iter()
                .cloned()
                .collect::<TokenStream>()
                .to_string())
        })
        .collect()
}

fn split_type_list(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out: Vec<Vec<TokenTree>> = vec![Vec::new()];
    let mut angle = 0i64;
    for t in stream {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                out.push(Vec::new());
                continue;
            }
            _ => {}
        }
        out.last_mut().unwrap().push(t);
    }
    if out.last().is_some_and(Vec::is_empty) {
        out.pop();
    }
    out.retain(|p| !p.is_empty());
    out
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        let mut attr = AttrInfo::default();
        parse_attrs(&toks, &mut i, &mut attr)?;
        let name = expect_ident(toks.get(i), "variant name")?;
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let k = VariantKind::Struct(parse_fields(g.stream())?);
                i += 1;
                k
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let k = VariantKind::Tuple(tuple_field_types(g.stream())?);
                i += 1;
                k
            }
            _ => VariantKind::Unit,
        };
        // Skip an explicit discriminant, then the separating comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    Ok(variants)
}

// --------------------------------------------------------------- codegen

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let (body, direct) = match &item.data {
        Data::Struct(fields) => {
            let mut pieces = Vec::new();
            named_field_pieces(fields, |f| format!("&self.{f}"), &mut pieces);
            (ser_named_fields_expr(fields, "self."), render(pieces))
        }
        Data::TupleStruct(tys) => {
            let mut pieces = Vec::new();
            tuple_pieces(tys.len(), |k| format!("&self.{k}"), &mut pieces);
            (ser_tuple_expr(tys.len(), "self."), render(pieces))
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            let mut write_arms = String::new();
            for v in variants {
                arms.push_str(&ser_variant_arm(name, v, item.untagged));
                write_arms.push_str(&write_variant_arm(name, v, item.untagged));
            }
            (
                format!("match self {{ {arms} }}"),
                format!("match self {{ {write_arms} }}"),
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self) -> ::serde::Value {{ {body} }}\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{ {direct} }}\n\
         }}"
    )
}

/// One step of a direct writer: literal JSON text, or a value written
/// through its own `write_json`.
enum Piece {
    Lit(String),
    Val(String),
}

/// Writer statements for `pieces`, with adjacent literals merged into
/// one `push_str`.
fn render(pieces: Vec<Piece>) -> String {
    fn flush(code: &mut String, lit: &mut String) {
        if !lit.is_empty() {
            code.push_str(&format!("__out.push_str({lit:?});\n"));
            lit.clear();
        }
    }
    let mut code = String::new();
    let mut lit = String::new();
    for piece in pieces {
        match piece {
            Piece::Lit(text) => lit.push_str(&text),
            Piece::Val(expr) => {
                flush(&mut code, &mut lit);
                code.push_str(&format!("::serde::Serialize::write_json({expr}, __out);\n"));
            }
        }
    }
    flush(&mut code, &mut lit);
    code
}

/// `{"field":value,...}` in declaration order; `access` names a
/// reference to each field.
fn named_field_pieces(fields: &[Field], access: impl Fn(&str) -> String, out: &mut Vec<Piece>) {
    out.push(Piece::Lit("{".into()));
    for (i, f) in fields.iter().enumerate() {
        let comma = if i > 0 { "," } else { "" };
        out.push(Piece::Lit(format!("{comma}\"{}\":", f.name)));
        out.push(Piece::Val(access(&f.name)));
    }
    out.push(Piece::Lit("}".into()));
}

/// A one-element tuple is transparent; any other is an array.
fn tuple_pieces(n: usize, access: impl Fn(usize) -> String, out: &mut Vec<Piece>) {
    if n == 1 {
        out.push(Piece::Val(access(0)));
        return;
    }
    out.push(Piece::Lit("[".into()));
    for k in 0..n {
        if k > 0 {
            out.push(Piece::Lit(",".into()));
        }
        out.push(Piece::Val(access(k)));
    }
    out.push(Piece::Lit("]".into()));
}

fn write_variant_arm(ty: &str, v: &Variant, untagged: bool) -> String {
    let vn = &v.name;
    let mut pieces = Vec::new();
    let tag = |pieces: &mut Vec<Piece>| {
        if !untagged {
            pieces.push(Piece::Lit(format!("{{\"{vn}\":")));
        }
    };
    let pattern = match &v.kind {
        VariantKind::Unit => {
            let text = if untagged {
                "null".to_string()
            } else {
                format!("\"{vn}\"")
            };
            pieces.push(Piece::Lit(text));
            format!("{ty}::{vn}")
        }
        VariantKind::Tuple(tys) => {
            tag(&mut pieces);
            tuple_pieces(tys.len(), |k| format!("__f{k}"), &mut pieces);
            let binds: Vec<String> = (0..tys.len()).map(|k| format!("__f{k}")).collect();
            format!("{ty}::{vn}({})", binds.join(", "))
        }
        VariantKind::Struct(fields) => {
            tag(&mut pieces);
            named_field_pieces(fields, str::to_string, &mut pieces);
            let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
            format!("{ty}::{vn} {{ {} }}", binds.join(", "))
        }
    };
    if !untagged && !matches!(v.kind, VariantKind::Unit) {
        pieces.push(Piece::Lit("}".into()));
    }
    format!("{pattern} => {{ {} }}\n", render(pieces))
}

/// `{prefix}{field}` access for each named field, packed into an Object.
fn ser_named_fields_expr(fields: &[Field], prefix: &str) -> String {
    let mut pushes = String::new();
    for f in fields {
        let fname = &f.name;
        pushes.push_str(&format!(
            "__fields.push((\"{fname}\".to_string(), \
             ::serde::Serialize::serialize(&{prefix}{fname})));\n"
        ));
    }
    format!(
        "{{ let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
         ::std::vec::Vec::new();\n{pushes}::serde::Value::Object(__fields) }}"
    )
}

fn ser_tuple_expr(n: usize, prefix: &str) -> String {
    if n == 1 {
        return format!("::serde::Serialize::serialize(&{prefix}0)");
    }
    let items: Vec<String> = (0..n)
        .map(|k| format!("::serde::Serialize::serialize(&{prefix}{k})"))
        .collect();
    format!("::serde::Value::Array(vec![{}])", items.join(", "))
}

fn ser_variant_arm(ty: &str, v: &Variant, untagged: bool) -> String {
    let vn = &v.name;
    match &v.kind {
        VariantKind::Unit => {
            let val = if untagged {
                "::serde::Value::Null".to_string()
            } else {
                format!("::serde::Value::String(\"{vn}\".to_string())")
            };
            format!("{ty}::{vn} => {val},\n")
        }
        VariantKind::Tuple(tys) => {
            let n = tys.len();
            let binds: Vec<String> = (0..n).map(|k| format!("__f{k}")).collect();
            let content = if n == 1 {
                "::serde::Serialize::serialize(__f0)".to_string()
            } else {
                let items: Vec<String> = binds
                    .iter()
                    .map(|b| format!("::serde::Serialize::serialize({b})"))
                    .collect();
                format!("::serde::Value::Array(vec![{}])", items.join(", "))
            };
            let val = if untagged {
                content
            } else {
                format!("::serde::Value::Object(vec![(\"{vn}\".to_string(), {content})])")
            };
            format!("{ty}::{vn}({}) => {val},\n", binds.join(", "))
        }
        VariantKind::Struct(fields) => {
            let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
            let content = ser_named_fields_expr(fields, "*");
            let val = if untagged {
                content
            } else {
                format!("::serde::Value::Object(vec![(\"{vn}\".to_string(), {content})])")
            };
            format!("{ty}::{vn} {{ {} }} => {val},\n", binds.join(", "))
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.data {
        Data::Struct(fields) => {
            let ctor = de_named_fields_ctor(name, fields, "__obj");
            format!(
                "let __obj = __v.as_object().ok_or_else(|| \
                 ::serde::DeError::expected(\"a map for struct {name}\", __v))?;\n\
                 ::std::result::Result::Ok({ctor})"
            )
        }
        Data::TupleStruct(tys) => de_tuple_struct_body(name, tys.len()),
        Data::Enum(variants) => {
            if item.untagged {
                de_untagged_enum_body(name, variants)
            } else {
                de_tagged_enum_body(name, variants)
            }
        }
    };
    let direct = match &item.data {
        Data::Struct(fields) => format!(
            "::std::result::Result::Ok({})",
            read_named_fields(name, fields, &format!("a map for struct {name}"))
        ),
        Data::TupleStruct(tys) => format!(
            "::std::result::Result::Ok({})",
            read_tuple(name, tys, &format!("an array for tuple struct {name}"))
        ),
        Data::Enum(variants) => {
            if item.untagged {
                read_untagged_enum(name, variants)
            } else {
                read_tagged_enum(name, variants)
            }
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__v: &::serde::Value) \
             -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
             fn read_json(__r: &mut ::serde::Reader<'_>) \
             -> ::std::result::Result<Self, ::serde::DeError> {{\n{direct}\n}}\n\
         }}"
    )
}

/// The value of a field absent from its map: its serde default, or
/// whatever `null` reads as (`None`, NaN), or the missing-field error.
fn missing_field_expr(f: &Field, ctor_path: &str) -> String {
    let fname = &f.name;
    match &f.default {
        None => format!(
            "::serde::Deserialize::deserialize(&::serde::Value::Null)\
             .map_err(|_| ::serde::DeError::missing_field(\"{fname}\", \"{ctor_path}\"))?"
        ),
        Some(None) => "::std::default::Default::default()".to_string(),
        Some(Some(path)) => format!("{path}()"),
    }
}

/// Expression reading `Ty { f: .., ... }` from the map `__r` is at:
/// the first occurrence of each field wins, later duplicates and
/// unknown keys are skipped, absent fields take
/// [`missing_field_expr`].
fn read_named_fields(ctor_path: &str, fields: &[Field], what: &str) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let (fname, ty) = (&f.name, &f.ty);
        slots.push_str(&format!(
            "let mut __v{i}: ::std::option::Option<{ty}> = ::std::option::Option::None;\n"
        ));
        arms.push_str(&format!(
            "\"{fname}\" if __v{i}.is_none() => {{ __v{i} = ::std::option::Option::Some(\
             ::serde::Deserialize::read_json(__r).map_err(|__e| __e.in_field(\"{fname}\"))?); }}\n"
        ));
        inits.push_str(&format!(
            "{fname}: match __v{i} {{\n\
                 ::std::option::Option::Some(__x) => __x,\n\
                 ::std::option::Option::None => {},\n\
             }},\n",
            missing_field_expr(f, ctor_path)
        ));
    }
    let walk = if fields.is_empty() {
        "while __r.next_key()?.is_some() { __r.skip_value()?; }\n".to_string()
    } else {
        format!(
            "while let ::std::option::Option::Some(__k) = __r.next_key()? {{\n\
                 match &*__k {{\n{arms}_ => __r.skip_value()?,\n}}\n\
             }}\n"
        )
    };
    format!("{{\n{slots}__r.begin_object({what:?})?;\n{walk}{ctor_path} {{ {inits} }} }}")
}

/// Expression reading `Ctor(a, b, ..)` from `__r`: a one-element tuple
/// is transparent, any other an array of exactly that many elements.
fn read_tuple(ctor_path: &str, tys: &[String], what: &str) -> String {
    if tys.len() == 1 {
        return format!("{ctor_path}(::serde::Deserialize::read_json(__r)?)");
    }
    let n = tys.len();
    let arity = format!(
        "return ::std::result::Result::Err(::serde::DeError::new(\
         ::std::string::String::from({:?})))",
        format!("expected {n} elements for {ctor_path}")
    );
    let mut reads = String::new();
    for (k, ty) in tys.iter().enumerate() {
        reads.push_str(&format!(
            "let __x{k}: {ty} = if __r.next_element()? {{ \
             ::serde::Deserialize::read_json(__r)? }} else {{ {arity} }};\n"
        ));
    }
    let binds: Vec<String> = (0..n).map(|k| format!("__x{k}")).collect();
    format!(
        "{{\n__r.begin_array({what:?})?;\n{reads}\
         if __r.next_element()? {{ {arity} }}\n\
         {ctor_path}({}) }}",
        binds.join(", ")
    )
}

/// Externally tagged: a unit variant's name as a string, or a map in
/// which exactly one key names a variant. Unknown sibling keys are
/// skipped; two variant keys (even the same one twice) are ambiguous.
///
/// Each variant's content is read by its own non-capturing closure,
/// called from one site, so the frame a recursive type (a `Batch` of
/// requests) repeats per level stays small even in debug builds.
fn read_tagged_enum(name: &str, variants: &[Variant]) -> String {
    let what = format!("a string or tagged map for enum {name}");
    let mut str_arms = String::new();
    let mut tag_arms = String::new();
    for v in variants {
        let vn = &v.name;
        let ctor = format!("{name}::{vn}");
        let arm = match &v.kind {
            VariantKind::Unit => {
                str_arms.push_str(&format!("\"{vn}\" => ::std::result::Result::Ok({ctor}),\n"));
                format!("{{ __r.skip_value()?; {ctor} }}")
            }
            VariantKind::Tuple(tys) if tys.len() == 1 => format!(
                "{ctor}(::serde::Deserialize::read_json(__r)\
                 .map_err(|__e| __e.in_field(\"{vn}\"))?)"
            ),
            VariantKind::Tuple(tys) => {
                read_tuple(&ctor, tys, &format!("an array for variant {ctor}"))
            }
            VariantKind::Struct(fields) => {
                read_named_fields(&ctor, fields, &format!("a map for variant {ctor}"))
            }
        };
        tag_arms.push_str(&format!(
            "\"{vn}\" => |__r| ::std::result::Result::Ok({arm}),\n"
        ));
    }
    format!(
        "match __r.peek() {{\n\
             ::std::option::Option::Some(b'\"') => {{\n\
                 let __s = __r.read_str()?;\n\
                 match &*__s {{\n{str_arms}\
                     __other => ::std::result::Result::Err(\
                     ::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
                 }}\n\
             }}\n\
             ::std::option::Option::Some(b'{{') => {{\n\
                 __r.begin_object({what:?})?;\n\
                 let mut __found: ::std::option::Option<{name}> = ::std::option::Option::None;\n\
                 let mut __unknown: ::std::option::Option<::std::string::String> = \
                 ::std::option::Option::None;\n\
                 while let ::std::option::Option::Some(__k) = __r.next_key()? {{\n\
                     let __read: fn(&mut ::serde::Reader<'_>) \
                     -> ::std::result::Result<{name}, ::serde::DeError> = match &*__k {{\n\
                         {tag_arms}\
                         _ => {{\n\
                             if __unknown.is_none() {{ \
                             __unknown = ::std::option::Option::Some(::std::string::String::from(&*__k)); }}\n\
                             __r.skip_value()?;\n\
                             continue;\n\
                         }}\n\
                     }};\n\
                     if __found.is_some() {{\n\
                         return ::std::result::Result::Err(::serde::DeError::new(\
                         ::std::string::String::from({ambiguous:?})));\n\
                     }}\n\
                     __found = ::std::option::Option::Some(__read(__r)?);\n\
                 }}\n\
                 match (__found, __unknown) {{\n\
                     (::std::option::Option::Some(__x), _) => ::std::result::Result::Ok(__x),\n\
                     (::std::option::Option::None, ::std::option::Option::Some(__tag)) => \
                     ::std::result::Result::Err(::serde::DeError::unknown_variant(&__tag, \"{name}\")),\n\
                     (::std::option::Option::None, ::std::option::Option::None) => \
                     ::std::result::Result::Err(::serde::DeError::new(\
                     ::std::string::String::from({empty:?}))),\n\
                 }}\n\
             }}\n\
             _ => ::std::result::Result::Err(__r.expected({what:?})),\n\
         }}",
        ambiguous = format!("ambiguous map for enum {name}: more than one variant key"),
        empty = format!("expected {what}, found an empty map"),
    )
}

/// Untagged: skip the value once, then try each variant in declaration
/// order on its own copy of the span; the first that reads wins.
fn read_untagged_enum(name: &str, variants: &[Variant]) -> String {
    let mut attempts = String::new();
    for v in variants {
        let ctor = format!("{name}::{}", v.name);
        let body = match &v.kind {
            VariantKind::Unit => {
                attempts.push_str(&format!(
                    "if ::std::matches!(__span.clone().read_null(), \
                     ::std::result::Result::Ok(true)) {{ \
                     return ::std::result::Result::Ok({ctor}); }}\n"
                ));
                continue;
            }
            VariantKind::Tuple(tys) => read_tuple(&ctor, tys, "an array"),
            VariantKind::Struct(fields) => read_named_fields(&ctor, fields, "a map"),
        };
        attempts.push_str(&format!(
            "if let ::std::result::Result::Ok(__x) = \
             (|| -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
                 let __r = &mut __span.clone();\n\
                 ::std::result::Result::Ok({body})\n\
             }})() {{ return ::std::result::Result::Ok(__x); }}\n"
        ));
    }
    format!(
        "let __span = __r.capture()?;\n{attempts}\
         ::std::result::Result::Err(::serde::DeError::new(::std::string::String::from({:?})))",
        format!("expected a value matching some variant of untagged enum {name}")
    )
}

/// Constructor expression `Ty { f: <lookup>, ... }` reading from `obj_var`.
fn de_named_fields_ctor(ctor_path: &str, fields: &[Field], obj_var: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        let fname = &f.name;
        let missing = missing_field_expr(f, ctor_path);
        inits.push_str(&format!(
            "{fname}: match ::serde::find_field({obj_var}, \"{fname}\") {{\n\
                 ::std::option::Option::Some(__x) => \
                 ::serde::Deserialize::deserialize(__x)\
                 .map_err(|__e| __e.in_field(\"{fname}\"))?,\n\
                 ::std::option::Option::None => {missing},\n\
             }},\n"
        ));
    }
    format!("{ctor_path} {{ {inits} }}")
}

fn de_tuple_struct_body(name: &str, n: usize) -> String {
    if n == 1 {
        return format!(
            "::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__v)?))"
        );
    }
    let items: Vec<String> = (0..n)
        .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
        .collect();
    format!(
        "let __arr = __v.as_array().ok_or_else(|| \
         ::serde::DeError::expected(\"an array for tuple struct {name}\", __v))?;\n\
         if __arr.len() != {n} {{ return ::std::result::Result::Err(\
         ::serde::DeError::new(format!(\"expected {n} elements for {name}, got {{}}\", __arr.len()))); }}\n\
         ::std::result::Result::Ok({name}({}))",
        items.join(", ")
    )
}

fn de_tagged_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut str_arms = String::new();
    for v in variants {
        if matches!(v.kind, VariantKind::Unit) {
            let vn = &v.name;
            str_arms.push_str(&format!(
                "\"{vn}\" => ::std::result::Result::Ok({name}::{vn}),\n"
            ));
        }
    }
    let mut tag_arms = String::new();
    for v in variants {
        let vn = &v.name;
        let arm = match &v.kind {
            VariantKind::Unit => format!("::std::result::Result::Ok({name}::{vn})"),
            VariantKind::Tuple(tys) if tys.len() == 1 => format!(
                "::std::result::Result::Ok({name}::{vn}(\
                 ::serde::Deserialize::deserialize(__content)\
                 .map_err(|__e| __e.in_field(\"{vn}\"))?))"
            ),
            VariantKind::Tuple(tys) => {
                let n = tys.len();
                let items: Vec<String> = (0..n)
                    .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
                    .collect();
                format!(
                    "{{ let __arr = __content.as_array().ok_or_else(|| \
                     ::serde::DeError::expected(\"an array for variant {name}::{vn}\", __content))?;\n\
                     if __arr.len() != {n} {{ return ::std::result::Result::Err(\
                     ::serde::DeError::new(format!(\"expected {n} elements for {name}::{vn}, got {{}}\", __arr.len()))); }}\n\
                     ::std::result::Result::Ok({name}::{vn}({})) }}",
                    items.join(", ")
                )
            }
            VariantKind::Struct(fields) => {
                let ctor = de_named_fields_ctor(&format!("{name}::{vn}"), fields, "__o");
                format!(
                    "{{ let __o = __content.as_object().ok_or_else(|| \
                     ::serde::DeError::expected(\"a map for variant {name}::{vn}\", __content))?;\n\
                     ::std::result::Result::Ok({ctor}) }}"
                )
            }
        };
        tag_arms.push_str(&format!("\"{vn}\" => return {arm},\n"));
    }
    // Forward compatibility: rather than demanding exactly one key, scan
    // the object for the key naming a known variant and ignore any
    // sibling keys — a newer peer can annotate `{"Variant": ...}` with
    // extra metadata without breaking older builds. Two known-variant
    // keys in one map are ambiguous (which did the peer mean?) and are
    // rejected rather than resolved by iteration order. Only when *no*
    // key matches is the first key reported as the unknown variant.
    let known_pat = variants
        .iter()
        .map(|v| format!("\"{}\"", v.name))
        .collect::<Vec<_>>()
        .join(" | ");
    let ambiguity_guard = if variants.is_empty() {
        String::new()
    } else {
        format!(
            "let mut __known = 0usize;\n\
             for (__tag, _) in __obj.iter() {{\n\
                 match __tag.as_str() {{\n\
                     {known_pat} => {{ __known += 1; }}\n\
                     _ => {{}}\n\
                 }}\n\
             }}\n\
             if __known > 1 {{\n\
                 return ::std::result::Result::Err(::serde::DeError::new(\
                 format!(\"ambiguous map for enum {name}: {{__known}} variant keys present\")));\n\
             }}\n"
        )
    };
    format!(
        "if let ::std::option::Option::Some(__s) = __v.as_str() {{\n\
             return match __s {{\n{str_arms}\
                 __other => ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(__other, \"{name}\")),\n\
             }};\n\
         }}\n\
         if let ::std::option::Option::Some(__obj) = __v.as_object() {{\n\
             {ambiguity_guard}\
             for (__tag, __content) in __obj.iter() {{\n\
                 let _ = __content;\n\
                 match __tag.as_str() {{\n{tag_arms}\
                     _ => {{}}\n\
                 }}\n\
             }}\n\
             if let ::std::option::Option::Some((__tag, _)) = __obj.first() {{\n\
                 return ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(__tag, \"{name}\"));\n\
             }}\n\
         }}\n\
         ::std::result::Result::Err(::serde::DeError::expected(\
         \"a string or tagged map for enum {name}\", __v))"
    )
}

fn de_untagged_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut attempts = String::new();
    for v in variants {
        let vn = &v.name;
        match &v.kind {
            VariantKind::Unit => attempts.push_str(&format!(
                "if __v.is_null() {{ return ::std::result::Result::Ok({name}::{vn}); }}\n"
            )),
            VariantKind::Tuple(tys) if tys.len() == 1 => attempts.push_str(&format!(
                "if let ::std::result::Result::Ok(__x) = \
                 ::serde::Deserialize::deserialize(__v) \
                 {{ return ::std::result::Result::Ok({name}::{vn}(__x)); }}\n"
            )),
            VariantKind::Tuple(tys) => {
                let n = tys.len();
                let items: Vec<String> = (0..n)
                    .map(|k| format!("::serde::Deserialize::deserialize(&__arr[{k}])?"))
                    .collect();
                attempts.push_str(&format!(
                    "if let ::std::result::Result::Ok(__x) = \
                     (|| -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
                         let __arr = __v.as_array().ok_or_else(|| \
                         ::serde::DeError::new(\"not an array\".to_string()))?;\n\
                         if __arr.len() != {n} {{ return ::std::result::Result::Err(\
                         ::serde::DeError::new(\"wrong arity\".to_string())); }}\n\
                         ::std::result::Result::Ok({name}::{vn}({}))\n\
                     }})() {{ return ::std::result::Result::Ok(__x); }}\n",
                    items.join(", ")
                ));
            }
            VariantKind::Struct(fields) => {
                let ctor = de_named_fields_ctor(&format!("{name}::{vn}"), fields, "__o");
                attempts.push_str(&format!(
                    "if let ::std::result::Result::Ok(__x) = \
                     (|| -> ::std::result::Result<{name}, ::serde::DeError> {{\n\
                         let __o = __v.as_object().ok_or_else(|| \
                         ::serde::DeError::new(\"not a map\".to_string()))?;\n\
                         ::std::result::Result::Ok({ctor})\n\
                     }})() {{ return ::std::result::Result::Ok(__x); }}\n"
                ));
            }
        }
    }
    format!(
        "{attempts}\
         ::std::result::Result::Err(::serde::DeError::expected(\
         \"a value matching some variant of untagged enum {name}\", __v))"
    )
}
