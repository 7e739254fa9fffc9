//! Wire-protocol schema extraction and the freeze gate.
//!
//! Parses `crates/cluster/src/wire.rs` at the token level and
//! reconstructs the protocol surface: the `TAG_*` constants, the
//! [`Message`] enum's variants and field shapes, the `SessionConfig`
//! payload of the `Assign` frame, `PROTOCOL_VERSION`, `FRAME_KINDS`,
//! and `MAX_FRAME`. Three things come out of it:
//!
//! 1. **Consistency findings** (`wire-schema`): duplicate tags, a
//!    variant without a `TAG_*` constant (or vice versa), an encode or
//!    decode arm that does not mention its variant + tag, a
//!    `FrameKind` list out of sync with the enum.
//! 2. **A canonical rendering** — fixed key order, frames sorted by
//!    tag, no timestamps — written to `WIRE_SCHEMA.json` at the
//!    workspace root.
//! 3. **The drift gate** (`schema-drift`): `--check` re-renders and
//!    byte-compares against the committed file, so no protocol change
//!    lands without an explicit, reviewable `WIRE_SCHEMA.json` diff.
//!
//! Token-level honesty: field *types* are normalized token text
//! (`Vec<(u32, f64)>`), not resolved types — renaming `Dataset` via a
//! `use` alias would change the schema text. That is fine: the gate
//! exists to make any protocol-shaped diff loud, and a rename is one.

use crate::lexer::{lex, Tok, TokKind};
use crate::report::{json_str, Finding};

/// One field of a frame or of `SessionConfig`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Normalized type text.
    pub ty: String,
}

/// One protocol frame: a `Message` variant plus its wire tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Variant name (`ModelUpdate`, …).
    pub name: String,
    /// Wire tag byte.
    pub tag: u64,
    /// Fields in declaration order (the wire layout order).
    pub fields: Vec<Field>,
}

/// The extracted protocol surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSchema {
    /// `PROTOCOL_VERSION`.
    pub protocol_version: u64,
    /// `FRAME_KINDS`.
    pub frame_kinds: u64,
    /// `MAX_FRAME`'s defining expression, canonical token text.
    pub max_frame: String,
    /// Frames sorted by tag.
    pub frames: Vec<Frame>,
    /// `SessionConfig` fields in declaration order.
    pub session_config: Vec<Field>,
}

/// Extracts the schema from `wire.rs` source, appending `wire-schema`
/// consistency findings to `out`. Returns `None` only when the file
/// has lost its basic landmarks (no `Message` enum at all).
pub fn extract(path: &str, src: &str, out: &mut Vec<Finding>) -> Option<WireSchema> {
    let toks: Vec<Tok> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
    let mut bad = |line: u32, message: String| {
        out.push(Finding {
            rule: "wire-schema",
            file: path.to_string(),
            line,
            col: 1,
            message,
        });
    };

    let consts = parse_consts(&toks);
    let tag_consts: Vec<(String, u64, u32)> = consts
        .iter()
        .filter(|(n, _, _, _)| n.starts_with("TAG_"))
        .map(|(n, v, _, line)| (n.clone(), parse_u64(v).unwrap_or(u64::MAX), *line))
        .collect();

    let Some(variants) = parse_enum(&toks, "Message") else {
        bad(
            1,
            "pub enum Message not found — schema extraction impossible".into(),
        );
        return None;
    };
    let frame_kind_variants = parse_enum(&toks, "FrameKind").unwrap_or_default();

    // Tag uniqueness.
    for (i, (name, v, line)) in tag_consts.iter().enumerate() {
        if tag_consts[..i].iter().any(|(_, w, _)| w == v) {
            bad(*line, format!("duplicate wire tag {v} ({name})"));
        }
    }

    // Variant ↔ tag-constant bijection.
    let mut frames = Vec::new();
    for v in &variants {
        let want = format!("TAG_{}", camel_to_snake(&v.0));
        match tag_consts.iter().find(|(n, _, _)| *n == want) {
            Some((_, tag, _)) => frames.push(Frame {
                name: v.0.clone(),
                tag: *tag,
                fields: v.1.clone(),
            }),
            None => bad(
                v.2,
                format!(
                    "Message::{} has no {want} constant — every frame needs a wire tag",
                    v.0
                ),
            ),
        }
    }
    for (name, _, line) in &tag_consts {
        let snake = name.trim_start_matches("TAG_");
        if !variants.iter().any(|v| camel_to_snake(&v.0) == snake) {
            bad(*line, format!("{name} has no matching Message variant"));
        }
    }
    frames.sort_by_key(|f| f.tag);

    // FrameKind parity.
    if !frame_kind_variants.is_empty() {
        let names: Vec<&str> = variants.iter().map(|v| v.0.as_str()).collect();
        let kinds: Vec<&str> = frame_kind_variants.iter().map(|v| v.0.as_str()).collect();
        if names != kinds {
            bad(
                frame_kind_variants.first().map_or(1, |v| v.2),
                format!("FrameKind variants {kinds:?} != Message variants {names:?}"),
            );
        }
    }

    // Encode / decode arm exhaustiveness: each variant's arm must
    // mention both the variant and its tag constant.
    for (fn_name, dir) in [("encode", "encode"), ("decode", "decode")] {
        if let Some(body) = fn_body(&toks, fn_name) {
            for f in &frames {
                let has_variant = body.windows(4).any(|w| {
                    w[0].is_ident("Message")
                        && w[1].is_punct(':')
                        && w[2].is_punct(':')
                        && w[3].is_ident(&f.name)
                });
                let tag_name = format!("TAG_{}", camel_to_snake(&f.name));
                let has_tag = body.iter().any(|t| t.is_ident(&tag_name));
                if !has_variant || !has_tag {
                    bad(
                        1,
                        format!(
                            "fn {fn_name} lacks a complete {dir} arm for Message::{} \
                             (needs both the variant and {tag_name})",
                            f.name
                        ),
                    );
                }
            }
        } else {
            bad(1, format!("fn {fn_name} not found in wire.rs"));
        }
    }

    let lookup = |name: &str| {
        consts
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map(|(_, v, _, _)| v.clone())
    };
    let protocol_version = lookup("PROTOCOL_VERSION").and_then(|v| parse_u64(&v));
    let frame_kinds = lookup("FRAME_KINDS").and_then(|v| parse_u64(&v));
    let max_frame = lookup("MAX_FRAME");
    if protocol_version.is_none() {
        bad(1, "pub const PROTOCOL_VERSION not found".into());
    }
    if frame_kinds.is_none() {
        bad(1, "pub const FRAME_KINDS not found".into());
    }
    if let Some(k) = frame_kinds {
        if k != variants.len() as u64 {
            bad(
                1,
                format!(
                    "FRAME_KINDS = {k} but Message has {} variants",
                    variants.len()
                ),
            );
        }
    }

    let session_config = parse_struct(&toks, "SessionConfig").unwrap_or_else(|| {
        bad(1, "pub struct SessionConfig not found".into());
        Vec::new()
    });

    Some(WireSchema {
        protocol_version: protocol_version.unwrap_or(0),
        frame_kinds: frame_kinds.unwrap_or(0),
        max_frame: max_frame.unwrap_or_default(),
        frames,
        session_config,
    })
}

impl WireSchema {
    /// The canonical `WIRE_SCHEMA.json` rendering: fixed key order,
    /// frames sorted by tag, fields in wire order, trailing newline,
    /// nothing run-dependent — rendering twice is byte-identical.
    pub fn render(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"format\": 1,\n");
        s.push_str(&format!(
            "  \"protocol_version\": {},\n",
            self.protocol_version
        ));
        s.push_str(&format!("  \"frame_kinds\": {},\n", self.frame_kinds));
        s.push_str(&format!(
            "  \"max_frame\": {},\n",
            json_str(&self.max_frame)
        ));
        s.push_str("  \"frames\": [\n");
        for (i, f) in self.frames.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": {},\n", json_str(&f.name)));
            s.push_str(&format!("      \"tag\": {},\n", f.tag));
            s.push_str("      \"fields\": [");
            for (j, fld) in f.fields.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "\n        {{\"name\": {}, \"type\": {}}}",
                    json_str(&fld.name),
                    json_str(&fld.ty)
                ));
            }
            s.push_str(if f.fields.is_empty() {
                "]\n"
            } else {
                "\n      ]\n"
            });
            s.push_str(if i + 1 == self.frames.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ],\n");
        s.push_str("  \"session_config\": [");
        for (j, fld) in self.session_config.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"name\": {}, \"type\": {}}}",
                json_str(&fld.name),
                json_str(&fld.ty)
            ));
        }
        s.push_str(if self.session_config.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

/// `ModelUpdate` → `MODEL_UPDATE`.
fn camel_to_snake(s: &str) -> String {
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if c.is_uppercase() && i > 0 {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// Every `const NAME: Ty = <expr>;` as (name, canonical expr text,
/// type text, line).
fn parse_consts(toks: &[Tok]) -> Vec<(String, String, String, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let mut j = i + 2;
            let mut ty = Vec::new();
            if toks.get(j).is_some_and(|t| t.is_punct(':')) {
                j += 1;
                while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                    ty.push(toks[j].clone());
                    j += 1;
                }
            }
            let mut val = Vec::new();
            if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                j += 1;
                while j < toks.len() && !toks[j].is_punct(';') {
                    val.push(toks[j].clone());
                    j += 1;
                }
            }
            out.push((name, join_tokens(&val), join_tokens(&ty), line));
            i = j;
        }
        i += 1;
    }
    out
}

fn parse_u64(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// Canonical single-line join of a token run: idents separated by one
/// space only where needed, `, ` after commas, everything else tight.
fn join_tokens(toks: &[Tok]) -> String {
    let mut s = String::new();
    for t in toks {
        if t.is_punct(',') {
            s.push_str(", ");
            continue;
        }
        let last_ok = s
            .chars()
            .last()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let starts_wordish = t
            .text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if last_ok && starts_wordish {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    // `1<<28` never appears: `<` `<` arrive as two puncts — normalize.
    s.replace("<<", " << ")
        .replace("  ", " ")
        .trim()
        .to_string()
}

/// Parses `enum <name> { ... }`: variants as (name, fields, line).
#[allow(clippy::type_complexity)]
fn parse_enum(toks: &[Tok], name: &str) -> Option<Vec<(String, Vec<Field>, u32)>> {
    let mut i = find_item(toks, "enum", name)?;
    // Advance to the opening brace.
    while i < toks.len() && !toks[i].is_punct('{') {
        i += 1;
    }
    let mut out = Vec::new();
    let mut depth = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
            i += 1;
            continue;
        }
        if depth == 1 {
            if t.is_punct('#') {
                i = skip_attribute(toks, i);
                continue;
            }
            if t.kind == TokKind::Ident {
                let vname = t.text.clone();
                let vline = t.line;
                let mut fields = Vec::new();
                if toks.get(i + 1).is_some_and(|n| n.is_punct('{')) {
                    let (flds, end) = parse_fields(toks, i + 1);
                    fields = flds;
                    i = end;
                } else {
                    i += 1;
                }
                out.push((vname, fields, vline));
                continue;
            }
        }
        i += 1;
    }
    Some(out)
}

/// Parses `struct <name> { ... }` named fields.
fn parse_struct(toks: &[Tok], name: &str) -> Option<Vec<Field>> {
    let mut i = find_item(toks, "struct", name)?;
    while i < toks.len() && !toks[i].is_punct('{') {
        i += 1;
    }
    Some(parse_fields(toks, i).0)
}

/// From an opening `{`, parses `name: Type` pairs (skipping `pub` and
/// attributes) until the matching `}`. Returns (fields, index past).
fn parse_fields(toks: &[Tok], open: usize) -> (Vec<Field>, usize) {
    let mut fields = Vec::new();
    let mut i = open + 1;
    let mut depth = 1usize;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            i += 1;
        } else if depth == 1 && t.is_punct('#') {
            i = skip_attribute(toks, i);
        } else if depth == 1 && t.is_ident("pub") {
            i += 1;
        } else if depth == 1
            && t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
        {
            let fname = t.text.clone();
            let mut j = i + 2;
            let mut nest = 0i32;
            let mut ty = Vec::new();
            while j < toks.len() {
                let x = &toks[j];
                if x.is_punct('<') || x.is_punct('(') || x.is_punct('[') {
                    nest += 1;
                } else if x.is_punct('>') || x.is_punct(')') || x.is_punct(']') {
                    if nest == 0 {
                        break; // closing of an outer scope
                    }
                    nest -= 1;
                } else if (x.is_punct(',') && nest == 0) || x.is_punct('}') {
                    break;
                }
                ty.push(x.clone());
                j += 1;
            }
            fields.push(Field {
                name: fname,
                ty: join_tokens(&ty),
            });
            i = j;
        } else {
            i += 1;
        }
    }
    (fields, i)
}

/// Index of the `enum`/`struct` keyword introducing `name`.
fn find_item(toks: &[Tok], kw: &str, name: &str) -> Option<usize> {
    (0..toks.len())
        .find(|&i| toks[i].is_ident(kw) && toks.get(i + 1).is_some_and(|n| n.is_ident(name)))
}

fn skip_attribute(toks: &[Tok], at: usize) -> usize {
    let mut depth = 0usize;
    let mut i = at + 1;
    while i < toks.len() {
        if toks[i].is_punct('[') {
            depth += 1;
        } else if toks[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// The token body (exclusive of braces) of the first `fn <name>`.
fn fn_body<'a>(toks: &'a [Tok], name: &str) -> Option<&'a [Tok]> {
    let at = (0..toks.len())
        .find(|&i| toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.is_ident(name)))?;
    let mut i = at;
    while i < toks.len() && !toks[i].is_punct('{') {
        i += 1;
    }
    let open = i;
    let mut depth = 0usize;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(&toks[open + 1..i]);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
pub const PROTOCOL_VERSION: u32 = 7;
pub const MAX_FRAME: usize = 1 << 20;
const TAG_PING: u8 = 1;
const TAG_PONG: u8 = 2;
pub const FRAME_KINDS: usize = 2;
pub struct SessionConfig {
    pub nodes: u32,
    pub pairs: Vec<(u32, f64)>,
}
pub enum Message {
    Ping { node: u32 },
    Pong { data: Box<Dataset>, round: u64 },
}
pub enum FrameKind { Ping, Pong }
impl Message {
    pub fn encode(&self) {
        match self {
            Message::Ping { .. } => TAG_PING,
            Message::Pong { .. } => TAG_PONG,
        };
    }
    pub fn decode(b: &[u8]) {
        match b[0] {
            TAG_PING => Message::Ping { node: 0 },
            TAG_PONG => Message::Pong { data: d, round: 0 },
            _ => {}
        };
    }
}
"#;

    #[test]
    fn extracts_a_consistent_mini_protocol() {
        let mut out = Vec::new();
        let s = extract("wire.rs", MINI, &mut out).expect("schema extracted");
        assert_eq!(out, vec![], "no consistency findings");
        assert_eq!(s.protocol_version, 7);
        assert_eq!(s.frame_kinds, 2);
        assert_eq!(s.max_frame, "1 << 20");
        assert_eq!(s.frames.len(), 2);
        assert_eq!(s.frames[0].name, "Ping");
        assert_eq!(s.frames[0].tag, 1);
        assert_eq!(
            s.frames[0].fields,
            vec![Field {
                name: "node".into(),
                ty: "u32".into()
            }]
        );
        assert_eq!(s.frames[1].fields[0].ty, "Box<Dataset>");
        assert_eq!(s.session_config[1].ty, "Vec<(u32, f64)>");
    }

    #[test]
    fn render_is_idempotent_and_timestamp_free() {
        let mut out = Vec::new();
        let s = extract("wire.rs", MINI, &mut out).expect("schema");
        assert_eq!(s.render(), s.render());
        assert!(!s.render().to_lowercase().contains("time"));
        assert!(s.render().ends_with("}\n"));
    }

    #[test]
    fn mutations_are_loud() {
        // Duplicate tag.
        let dup = MINI.replace("const TAG_PONG: u8 = 2;", "const TAG_PONG: u8 = 1;");
        let mut out = Vec::new();
        extract("wire.rs", &dup, &mut out);
        assert!(
            out.iter().any(|f| f.message.contains("duplicate wire tag")),
            "{out:?}"
        );

        // Variant with no tag constant.
        let untagged = MINI.replace("const TAG_PONG: u8 = 2;", "");
        let mut out = Vec::new();
        extract("wire.rs", &untagged, &mut out);
        assert!(
            out.iter().any(|f| f.message.contains("has no TAG_PONG")),
            "{out:?}"
        );

        // Encode arm dropped.
        let unencoded = MINI.replace("Message::Pong { .. } => TAG_PONG,", "");
        let mut out = Vec::new();
        extract("wire.rs", &unencoded, &mut out);
        assert!(
            out.iter()
                .any(|f| f.message.contains("fn encode lacks a complete")),
            "{out:?}"
        );

        // FrameKind out of sync.
        let desync = MINI.replace(
            "pub enum FrameKind { Ping, Pong }",
            "pub enum FrameKind { Ping }",
        );
        let mut out = Vec::new();
        extract("wire.rs", &desync, &mut out);
        assert!(
            out.iter().any(|f| f.message.contains("FrameKind variants")),
            "{out:?}"
        );

        // A changed tag value changes the rendering (the drift gate's
        // byte-compare then fails against the committed schema).
        let moved = MINI.replace("const TAG_PONG: u8 = 2;", "const TAG_PONG: u8 = 9;");
        let mut a = Vec::new();
        let mut b = Vec::new();
        let orig = extract("wire.rs", MINI, &mut a).expect("schema");
        let bumped = extract("wire.rs", &moved, &mut b).expect("schema");
        assert_ne!(orig.render(), bumped.render());
    }
}
