//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`, no `quote`): it reads the item's tokens by hand and emits the
//! impl as text.
//!
//! Supported, because the kessler crates use exactly this much:
//! non-generic structs with named fields; enums whose variants are all
//! units (written as strings); internally tagged enums (`#[serde(tag =
//! "...")]`) with unit and struct variants. Container attributes `tag`,
//! `rename_all = "lowercase"`; variant attribute `rename`; field attributes
//! `rename`, `default`, `default = "path"`, `skip`, `skip_serializing_if`,
//! `with`, `flatten`. Anything else is a compile error naming what was
//! found, never a silent difference on the wire.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> Result<String, String>) -> TokenStream {
    let code = parse_item(input).and_then(|item| gen(&item));
    match code {
        Ok(code) => code
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde stand-in emitted bad code: {e}"))),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("::core::compile_error!({msg:?});")
        .parse()
        .expect("a string literal always lexes")
}

// ---- the parsed item -------------------------------------------------------

#[derive(Default)]
struct Attrs {
    rename: Option<String>,
    rename_all: Option<String>,
    tag: Option<String>,
    /// `Some(None)` for bare `default`, `Some(Some(path))` for `default = "path"`.
    default: Option<Option<String>>,
    skip: bool,
    skip_serializing_if: Option<String>,
    with: Option<String>,
    flatten: bool,
}

struct Field {
    name: String,
    attrs: Attrs,
}

impl Field {
    fn key(&self) -> &str {
        self.attrs.rename.as_deref().unwrap_or(&self.name)
    }
}

struct Variant {
    name: String,
    attrs: Attrs,
    /// `None` for a unit variant.
    fields: Option<Vec<Field>>,
}

enum Body {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

// ---- parsing ---------------------------------------------------------------

struct Cursor {
    tokens: Vec<TokenTree>,
    at: usize,
}

impl Cursor {
    fn new(stream: TokenStream) -> Cursor {
        Cursor {
            tokens: stream.into_iter().collect(),
            at: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.at)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.at).cloned();
        self.at += 1;
        t
    }

    fn done(&self) -> bool {
        self.at >= self.tokens.len()
    }

    fn is_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    fn is_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == word)
    }

    /// Consumes `#[...]` attributes, folding every `#[serde(...)]` into one
    /// `Attrs`.
    fn attributes(&mut self) -> Result<Attrs, String> {
        let mut attrs = Attrs::default();
        while self.is_punct('#') {
            self.next();
            let Some(TokenTree::Group(group)) = self.next() else {
                return Err("expected [...] after #".into());
            };
            let mut inner = Cursor::new(group.stream());
            if inner.is_ident("serde") {
                inner.next();
                let Some(TokenTree::Group(args)) = inner.next() else {
                    return Err("expected #[serde(...)]".into());
                };
                parse_serde_args(args.stream(), &mut attrs)?;
            }
        }
        Ok(attrs)
    }

    /// Consumes `pub`, `pub(crate)`, `pub(in path)`.
    fn visibility(&mut self) {
        if self.is_ident("pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(i)) => Ok(i.to_string()),
            other => Err(format!("expected {what}, found {other:?}")),
        }
    }
}

fn parse_serde_args(stream: TokenStream, attrs: &mut Attrs) -> Result<(), String> {
    let mut c = Cursor::new(stream);
    while !c.done() {
        let key = c.ident("a serde attribute name")?;
        let value = if c.is_punct('=') {
            c.next();
            match c.next() {
                Some(TokenTree::Literal(lit)) => {
                    let text = lit.to_string();
                    let inner = text
                        .strip_prefix('"')
                        .and_then(|t| t.strip_suffix('"'))
                        .ok_or_else(|| format!("serde({key} = ...) wants a string literal"))?;
                    Some(inner.to_string())
                }
                other => {
                    return Err(format!(
                        "serde({key} = ...) wants a literal, found {other:?}"
                    ))
                }
            }
        } else {
            None
        };
        match (key.as_str(), value) {
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) => attrs.rename_all = Some(v),
            ("tag", Some(v)) => attrs.tag = Some(v),
            ("default", v) => attrs.default = Some(v),
            ("skip", None) => attrs.skip = true,
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            ("with", Some(v)) => attrs.with = Some(v),
            ("flatten", None) => attrs.flatten = true,
            (other, _) => {
                return Err(format!(
                    "the offline serde stand-in does not support #[serde({other})]"
                ))
            }
        }
        if c.is_punct(',') {
            c.next();
        }
    }
    Ok(())
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut c = Cursor::new(input);
    let attrs = c.attributes()?;
    c.visibility();
    let kind = c.ident("`struct` or `enum`")?;
    let name = c.ident("the type name")?;
    if c.is_punct('<') {
        return Err(format!(
            "the offline serde stand-in does not derive for generic type `{name}`"
        ));
    }
    let body = match c.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
            "the offline serde stand-in derives only for brace-bodied items; `{name}` is not one"
        ))
        }
    };
    let body = match kind.as_str() {
        "struct" => Body::Struct(parse_fields(body)?),
        "enum" => Body::Enum(parse_variants(body)?),
        other => return Err(format!("cannot derive serde traits for a `{other}`")),
    };
    Ok(Item { name, attrs, body })
}

fn parse_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut c = Cursor::new(stream);
    let mut fields = Vec::new();
    while !c.done() {
        let attrs = c.attributes()?;
        c.visibility();
        let name = c.ident("a field name")?;
        if !c.is_punct(':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        c.next();
        // The type runs to the next comma outside `<...>`; commas inside
        // (), [] and {} are already hidden in groups.
        let mut depth = 0i32;
        while let Some(t) = c.peek() {
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            c.next();
        }
        c.next(); // the comma, if any
        fields.push(Field { name, attrs });
    }
    Ok(fields)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut c = Cursor::new(stream);
    let mut variants = Vec::new();
    while !c.done() {
        let attrs = c.attributes()?;
        let name = c.ident("a variant name")?;
        let fields = match c.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream())?;
                c.next();
                Some(fields)
            }
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "the offline serde stand-in does not support tuple variant `{name}`"
                ))
            }
            _ => None,
        };
        if c.is_punct('=') {
            return Err(format!(
                "explicit discriminant on `{name}` is not supported"
            ));
        }
        if c.is_punct(',') {
            c.next();
        }
        variants.push(Variant {
            name,
            attrs,
            fields,
        });
    }
    Ok(variants)
}

fn variant_wire_name(item: &Item, v: &Variant) -> Result<String, String> {
    if let Some(name) = &v.attrs.rename {
        return Ok(name.clone());
    }
    match item.attrs.rename_all.as_deref() {
        None => Ok(v.name.clone()),
        Some("lowercase") => Ok(v.name.to_lowercase()),
        Some("UPPERCASE") => Ok(v.name.to_uppercase()),
        Some(other) => Err(format!(
            "the offline serde stand-in does not support rename_all = {other:?}"
        )),
    }
}

// ---- Serialize -------------------------------------------------------------

const SER_ERR: &str = "<__S::Error as ::serde::ser::Error>::custom";

/// Statements that append one field to the map `__m`. `access` is an
/// expression of type `&FieldType`.
fn ser_field(field: &Field, access: &str) -> String {
    if field.attrs.skip {
        return String::new();
    }
    let key = field.key();
    let push = if field.attrs.flatten {
        format!("::serde::__private::flatten_into(&mut __m, {access}).map_err({SER_ERR})?;")
    } else if let Some(with) = &field.attrs.with {
        format!(
            "__m.push_unique({key:?}.to_string(), \
             {with}::serialize({access}, ::serde::__private::ValueSerializer).map_err({SER_ERR})?);"
        )
    } else {
        format!(
            "__m.push_unique({key:?}.to_string(), \
             ::serde::__private::ser_value::<_, __S::Error>({access})?);"
        )
    };
    match &field.attrs.skip_serializing_if {
        Some(pred) => format!("if !{pred}({access}) {{ {push} }}\n"),
        None => format!("{push}\n"),
    }
}

fn gen_serialize(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let mut out = format!(
                "let mut __m = ::serde::value::Map::with_capacity({});\n",
                fields.len()
            );
            for f in fields {
                out += &ser_field(f, &format!("&self.{}", f.name));
            }
            out += "::serde::Serializer::serialize_value(__s, ::serde::value::Value::Object(__m))";
            out
        }
        Body::Enum(variants) => match &item.attrs.tag {
            None => {
                let mut arms = String::new();
                for v in variants {
                    if v.fields.is_some() {
                        return Err(format!(
                            "enum `{name}` has data-carrying variants; the offline serde \
                             stand-in needs #[serde(tag = \"...\")] for those"
                        ));
                    }
                    arms += &format!("Self::{} => {:?},\n", v.name, variant_wire_name(item, v)?);
                }
                format!(
                    "let __name: &str = match self {{ {arms} }};\n\
                     ::serde::Serializer::serialize_value(\
                         __s, ::serde::value::Value::String(__name.to_string()))"
                )
            }
            Some(tag) => {
                let mut arms = String::new();
                for v in variants {
                    let wire = variant_wire_name(item, v)?;
                    let fields = v.fields.as_deref().unwrap_or(&[]);
                    let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                    let mut arm = format!(
                        "let mut __m = ::serde::value::Map::with_capacity({});\n\
                         __m.push_unique({tag:?}.to_string(), \
                             ::serde::value::Value::String({wire:?}.to_string()));\n",
                        fields.len() + 1
                    );
                    for f in fields {
                        if f.attrs.skip {
                            arm += &format!("let _ = {};\n", f.name);
                        }
                        arm += &ser_field(f, &f.name);
                    }
                    arm += "__m";
                    let pattern = if v.fields.is_some() {
                        format!("Self::{} {{ {} }}", v.name, bindings.join(", "))
                    } else {
                        format!("Self::{}", v.name)
                    };
                    arms += &format!("{pattern} => {{ {arm} }}\n");
                }
                format!(
                    "let __m = match self {{ {arms} }};\n\
                     ::serde::Serializer::serialize_value(__s, ::serde::value::Value::Object(__m))"
                )
            }
        },
    };
    Ok(format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
                 -> ::core::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n\
         }}"
    ))
}

// ---- Deserialize -----------------------------------------------------------

/// `name: <expression reading the field out of __m>,`
fn de_field(field: &Field) -> String {
    let key = field.key();
    let default_fn = match &field.attrs.default {
        Some(Some(path)) => Some(path.clone()),
        Some(None) => Some("::core::default::Default::default".to_string()),
        None => None,
    };
    let expr = if field.attrs.skip {
        format!(
            "{}()",
            default_fn.unwrap_or_else(|| "::core::default::Default::default".to_string())
        )
    } else if field.attrs.flatten {
        "::serde::__private::from_value(::serde::value::Value::Object(__flat.clone()))?".to_string()
    } else if let Some(with) = &field.attrs.with {
        let default = match default_fn {
            Some(path) => format!("::core::option::Option::Some({path} as fn() -> _)"),
            None => "::core::option::Option::None".to_string(),
        };
        format!(
            "::serde::__private::field_with(&mut __m, {key:?}, \
             |__d| {with}::deserialize(__d), {default})?"
        )
    } else if let Some(path) = default_fn {
        format!("::serde::__private::field_or(&mut __m, {key:?}, {path})?")
    } else {
        format!("::serde::__private::field(&mut __m, {key:?})?")
    };
    format!("{}: {expr},\n", field.name)
}

fn de_fields(fields: &[Field]) -> (String, String) {
    let prelude = if fields.iter().any(|f| f.attrs.flatten) {
        "let __flat = __m.clone();\n"
    } else {
        ""
    };
    (
        prelude.to_string(),
        fields.iter().map(de_field).collect::<String>(),
    )
}

fn gen_deserialize(item: &Item) -> Result<String, String> {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let (prelude, inits) = de_fields(fields);
            format!(
                "let mut __m = ::serde::__private::expect_object(__v, \"struct {name}\")?;\n\
                 {prelude}\
                 let _ = &mut __m;\n\
                 ::core::result::Result::Ok({name} {{ {inits} }})"
            )
        }
        Body::Enum(variants) => {
            let names = variants
                .iter()
                .map(|v| variant_wire_name(item, v))
                .collect::<Result<Vec<_>, _>>()?;
            let expected = names
                .iter()
                .map(|n| format!("{n:?}"))
                .collect::<Vec<_>>()
                .join(", ");
            let mut arms = String::new();
            for (v, wire) in variants.iter().zip(&names) {
                let value = match &v.fields {
                    None => format!("{name}::{}", v.name),
                    Some(fields) => {
                        if item.attrs.tag.is_none() {
                            return Err(format!(
                                "enum `{name}` has data-carrying variants; the offline serde \
                                 stand-in needs #[serde(tag = \"...\")] for those"
                            ));
                        }
                        let (prelude, inits) = de_fields(fields);
                        format!("{{ {prelude} {name}::{} {{ {inits} }} }}", v.name)
                    }
                };
                arms += &format!("{wire:?} => ::core::result::Result::Ok({value}),\n");
            }
            arms += &format!(
                "__other => ::core::result::Result::Err(\
                 ::serde::__private::unknown_variant(__other, &[{expected}])),\n"
            );
            match &item.attrs.tag {
                Some(tag) => format!(
                    "let mut __m = ::serde::__private::expect_object(__v, \"enum {name}\")?;\n\
                     let __tag = ::serde::__private::take_tag(&mut __m, {tag:?})?;\n\
                     let _ = &mut __m;\n\
                     match __tag.as_str() {{ {arms} }}"
                ),
                None => format!(
                    "let __tag = match __v {{\n\
                         ::serde::value::Value::String(__s) => __s,\n\
                         __other => return ::core::result::Result::Err(\
                             ::serde::__private::invalid_type(&__other, \"variant of enum {name}\")),\n\
                     }};\n\
                     match __tag.as_str() {{ {arms} }}"
                ),
            }
        }
    };
    Ok(format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
             fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
                 -> ::core::result::Result<Self, __D::Error> {{\n\
                 fn __from_value(__v: ::serde::value::Value) \
                     -> ::core::result::Result<{name}, ::serde::__private::Error> {{\n{body}\n}}\n\
                 let __v = ::serde::Deserializer::deserialize_value(__d)?;\n\
                 __from_value(__v).map_err(<__D::Error as ::serde::de::Error>::custom)\n\
             }}\n\
         }}"
    ))
}
