//! `#[derive(Serialize, Deserialize)]` for the workspace's serde shim.
//!
//! Hand-rolled over `proc_macro` token trees (`syn`/`quote` are not
//! available offline). The generated code streams: `Serialize` writes
//! the value straight into the output `String`, and `Deserialize` reads
//! it straight from the shim's one-pass `Reader`, with the shim's `de`
//! helpers. Supports exactly the shapes this workspace serialises:
//!
//! - structs with named fields;
//! - enums with unit, newtype and struct variants (externally tagged);
//! - container attributes `#[serde(rename_all = "kebab-case")]` and
//!   `#[serde(untagged)]` (newtype variants only);
//! - field attributes `#[serde(default)]` and
//!   `#[serde(default = "path")]`.
//!
//! A struct reads each declared key's first occurrence and skips the
//! rest; its fields' errors are reported in declaration order, each
//! behind its `field: ` prefix. Anything outside that subset fails the
//! build with an explicit message rather than generating wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

// ---- model -----------------------------------------------------------

struct Container {
    name: String,
    kebab: bool,
    untagged: bool,
    data: Data,
}

enum Data {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    name: String,
    ty: String,
    default: Option<FieldDefault>,
}

enum FieldDefault {
    DefaultTrait,
    Path(String),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    /// The payload type.
    Newtype(String),
    Struct(Vec<Field>),
}

// ---- parsing ---------------------------------------------------------

struct ContainerAttrs {
    kebab: bool,
    untagged: bool,
}

/// Reads `#[serde(...)]` container attributes, skipping everything else
/// (doc comments, other attributes).
fn take_attrs(tokens: &[TokenTree], i: &mut usize) -> (ContainerAttrs, Option<FieldDefault>) {
    let mut attrs = ContainerAttrs {
        kebab: false,
        untagged: false,
    };
    let mut default = None;
    while let Some(TokenTree::Punct(p)) = tokens.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        let Some(TokenTree::Group(group)) = tokens.get(*i + 1) else {
            panic!("expected attribute body after `#`");
        };
        *i += 2;
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        let is_serde =
            matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
        if !is_serde {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            panic!("expected `#[serde(...)]` arguments");
        };
        let args: Vec<TokenTree> = args.stream().into_iter().collect();
        let mut j = 0;
        while j < args.len() {
            let name = match &args[j] {
                TokenTree::Ident(id) => id.to_string(),
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    j += 1;
                    continue;
                }
                other => panic!("unsupported serde attribute token `{other}`"),
            };
            match name.as_str() {
                "untagged" => {
                    attrs.untagged = true;
                    j += 1;
                }
                "rename_all" => {
                    let lit = attr_value(&args, &mut j);
                    assert!(
                        lit == "kebab-case",
                        "serde shim derive only supports rename_all = \"kebab-case\", got {lit:?}"
                    );
                    attrs.kebab = true;
                }
                "default" => {
                    if matches!(args.get(j + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                        default = Some(FieldDefault::Path(attr_value(&args, &mut j)));
                    } else {
                        default = Some(FieldDefault::DefaultTrait);
                        j += 1;
                    }
                }
                other => panic!("unsupported serde attribute `{other}` (shim derive)"),
            }
        }
    }
    (attrs, default)
}

/// Parses `name = "literal"` starting at `args[*j]`; advances past it.
fn attr_value(args: &[TokenTree], j: &mut usize) -> String {
    assert!(
        matches!(args.get(*j + 1), Some(TokenTree::Punct(p)) if p.as_char() == '='),
        "expected `=` in serde attribute"
    );
    let Some(TokenTree::Literal(lit)) = args.get(*j + 2) else {
        panic!("expected string literal in serde attribute");
    };
    *j += 3;
    let text = lit.to_string();
    text.trim_matches('"').to_string()
}

fn parse_container(input: TokenStream) -> Container {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let (attrs, _) = take_attrs(&tokens, &mut i);

    // Optional visibility: `pub`, `pub(crate)`, ...
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }

    let kind = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other:?}"),
    };
    i += 1;
    let name = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name, found {other:?}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }

    let Some(TokenTree::Group(body)) = tokens.get(i) else {
        panic!("serde shim derive requires a braced body on `{name}` (no tuple/unit structs)");
    };
    assert!(
        body.delimiter() == Delimiter::Brace,
        "serde shim derive requires named fields on `{name}`"
    );
    let body: Vec<TokenTree> = body.stream().into_iter().collect();

    let data = match kind.as_str() {
        "struct" => Data::Struct(parse_fields(&body, &name)),
        "enum" => Data::Enum(parse_variants(&body, &name)),
        other => panic!("cannot derive serde traits for `{other} {name}`"),
    };
    if let Data::Enum(variants) = &data {
        assert!(
            !attrs.untagged
                || variants
                    .iter()
                    .all(|v| matches!(v.kind, VariantKind::Newtype(_))),
            "serde shim derive supports only newtype variants in untagged `{name}`"
        );
    }
    Container {
        name,
        kebab: attrs.kebab,
        untagged: attrs.untagged,
        data,
    }
}

fn parse_fields(tokens: &[TokenTree], container: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (_, default) = take_attrs(tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected field name in `{container}`, found {other}"),
        };
        i += 1;
        assert!(
            matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ':'),
            "expected `:` after field `{container}.{name}`"
        );
        i += 1;
        // The type: everything up to a comma at angle-bracket depth 0
        // (generic arguments hide their commas behind depth).
        let start = i;
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let ty = tokens[start..i].iter().cloned().collect::<TokenStream>();
        i += 1;
        fields.push(Field {
            name,
            ty: ty.to_string(),
            default,
        });
    }
    fields
}

fn parse_variants(tokens: &[TokenTree], container: &str) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (_, default) = take_attrs(tokens, &mut i);
        assert!(
            default.is_none(),
            "serde shim derive does not support `default` on variants of `{container}`"
        );
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("expected variant name in `{container}`, found {other}"),
        };
        i += 1;
        let kind = match &tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantKind::Newtype(g.stream().to_string())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                VariantKind::Struct(parse_fields(&inner, container))
            }
            _ => VariantKind::Unit,
        };
        if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

/// `RoundRobin` -> `round-robin` (serde's kebab-case rule).
fn kebab(name: &str) -> String {
    let mut out = String::new();
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(ch.to_ascii_lowercase());
        } else {
            out.push(ch);
        }
    }
    out
}

impl Container {
    fn wire_name(&self, variant: &str) -> String {
        if self.kebab {
            kebab(variant)
        } else {
            variant.to_string()
        }
    }
}

// ---- codegen: Serialize ---------------------------------------------

/// Statements writing `fields` (each reached as `{access}{name}`) as a
/// JSON object, between the texts `open` and `close`.
fn write_fields(fields: &[Field], access: &str, open: &str, close: &str) -> String {
    let mut code = String::new();
    let mut text = format!("{open}{{");
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&format!("\"{}\":", field.name));
        code.push_str(&format!(
            "__out.push_str({text:?});\n\
             ::serde::Serialize::serialize({access}{}, __out);\n",
            field.name
        ));
        text.clear();
    }
    text.push('}');
    text.push_str(close);
    code.push_str(&format!("__out.push_str({text:?});\n"));
    code
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let container = parse_container(input);
    let name = &container.name;
    let body = match &container.data {
        Data::Struct(fields) => write_fields(fields, "&self.", "", ""),
        Data::Enum(variants) => {
            let mut arms = String::new();
            for variant in variants {
                let vname = &variant.name;
                let wire = container.wire_name(vname);
                let arm = match &variant.kind {
                    VariantKind::Unit => format!(
                        "{name}::{vname} => __out.push_str({:?}),\n",
                        format!("\"{wire}\"")
                    ),
                    VariantKind::Newtype(_) if container.untagged => format!(
                        "{name}::{vname}(__v) => ::serde::Serialize::serialize(__v, __out),\n"
                    ),
                    VariantKind::Newtype(_) => format!(
                        "{name}::{vname}(__v) => {{\n\
                         __out.push_str({:?});\n\
                         ::serde::Serialize::serialize(__v, __out);\n\
                         __out.push('}}');\n\
                         }}\n",
                        format!("{{\"{wire}\":")
                    ),
                    VariantKind::Struct(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let open = format!("{{\"{wire}\":");
                        format!(
                            "{name}::{vname} {{ {} }} => {{\n{}}}\n",
                            bindings.join(", "),
                            write_fields(fields, "", &open, "}")
                        )
                    }
                };
                arms.push_str(&arm);
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n}}\n"
    )
    .parse()
    .expect("serialize impl parses")
}

// ---- codegen: Deserialize -------------------------------------------

/// A function body that reads `fields` from an object into `ctor`:
/// each declared key's first occurrence is read into its slot, and the
/// slots are then taken in declaration order. `what` names the
/// expected value when the value is not an object.
fn read_fields(fields: &[Field], ctor: &str, container: &str, what: &str) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut build = String::new();
    for field in fields {
        let (name, ty) = (&field.name, &field.ty);
        let slot = format!("__f_{name}");
        slots.push_str(&format!(
            "let mut {slot}: ::std::option::Option<\
             ::std::result::Result<{ty}, ::serde::Error>> = None;\n"
        ));
        arms.push_str(&format!(
            "\"{name}\" if {slot}.is_none() => {slot} = Some(::serde::de::typed(\
             <{ty} as ::serde::Deserialize>::deserialize(__r))?),\n"
        ));
        let value = match &field.default {
            None => format!("::serde::de::field({slot}, \"{name}\", \"{container}\")"),
            Some(FieldDefault::DefaultTrait) => {
                format!(
                    "::serde::de::field_or({slot}, \"{name}\", ::std::default::Default::default)"
                )
            }
            Some(FieldDefault::Path(path)) => {
                format!("::serde::de::field_or({slot}, \"{name}\", {path})")
            }
        };
        build.push_str(&format!("{name}: {value}?,\n"));
    }
    format!(
        "{slots}\
         let __other = __r.object(|__r, __key| {{\n\
         match __key {{\n{arms}_ => {{}}\n}}\n\
         Ok(())\n\
         }})?;\n\
         if let Some(__other) = __other {{\n\
         return Err(::serde::Error::expected({what:?}, &__other));\n\
         }}\n\
         Ok({ctor} {{\n{build}}})"
    )
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let container = parse_container(input);
    let name = &container.name;
    let body = match &container.data {
        Data::Struct(fields) => read_fields(fields, name, name, "object"),
        Data::Enum(variants) if container.untagged => {
            let mut tries = String::new();
            for variant in variants {
                let VariantKind::Newtype(ty) = &variant.kind else {
                    unreachable!("`parse_container` admits only newtype variants");
                };
                tries.push_str(&format!(
                    "|__r| <{ty} as ::serde::Deserialize>::deserialize(__r).map({name}::{}),\n",
                    variant.name
                ));
            }
            format!("::serde::de::untagged(__r, \"{name}\", &[\n{tries}])")
        }
        Data::Enum(variants) => {
            let mut readers = String::new();
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for (i, variant) in variants.iter().enumerate() {
                let vname = &variant.name;
                let wire = container.wire_name(vname);
                match &variant.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{wire}\" => Some({name}::{vname}),\n"))
                    }
                    VariantKind::Newtype(ty) => payload_arms.push_str(&format!(
                        "\"{wire}\" => Some(<{ty} as ::serde::Deserialize>::deserialize(__r)\
                         .map({name}::{vname}).map_err(|__e| __e.in_field(\"{wire}\"))),\n"
                    )),
                    VariantKind::Struct(fields) => {
                        let what = format!("object payload for variant `{wire}`");
                        let ctor = format!("{name}::{vname}");
                        readers.push_str(&format!(
                            "fn __variant_{i}(__r: &mut ::serde::Reader<'_>) \
                             -> ::std::result::Result<{name}, ::serde::Error> {{\n{}\n}}\n",
                            read_fields(fields, &ctor, name, &what)
                        ));
                        payload_arms
                            .push_str(&format!("\"{wire}\" => Some(__variant_{i}(__r)),\n"));
                    }
                }
            }
            let unit = if unit_arms.is_empty() {
                "|_| None".to_string()
            } else {
                format!("|__tag| match __tag {{\n{unit_arms}_ => None,\n}}")
            };
            let payload = if payload_arms.is_empty() {
                "|_, _| None".to_string()
            } else {
                format!("|__r, __tag| match __tag {{\n{payload_arms}_ => None,\n}}")
            };
            format!("{readers}::serde::de::tagged(__r, \"{name}\", {unit}, {payload})")
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__r: &mut ::serde::Reader<'_>) \
         -> ::std::result::Result<{name}, ::serde::Error> {{\n{body}\n}}\n}}\n"
    )
    .parse()
    .expect("deserialize impl parses")
}
