//! The workspace's one JSON codec: a [`JVal`] document tree, its
//! deterministic writer, and an RFC 8259 reader.
//!
//! Every JSON document the workspace emits — pipeline and adaptation
//! reports, Chrome traces, run artifacts, bench snapshots — is built as a
//! [`JVal`] and rendered by [`JVal::render`], so all of them follow one set
//! of rules. Object keys are sorted (bytewise) at render time, so nothing
//! depends on insertion or hash order. Floats print shortest-roundtrip and
//! keep a `.0` marker when integral, so a value's JSON type never flips
//! between runs. Non-finite floats become `null`.
//!
//! [`parse`] reads integer literals back as [`JVal::UInt`] / [`JVal::Int`]
//! and every other number as [`JVal::Num`], and keeps object members in
//! document order. Hence `parse(s)?.render() == s` for every document the
//! writer produces. This crate sits at the bottom of the dependency graph,
//! so every writer in the workspace can share this codec; there is no
//! `serde` because the build is offline.

use std::collections::HashMap;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// An unsigned integer, rendered without a decimal point.
    UInt(u64),
    /// A float, rendered shortest-roundtrip with a forced `.0` marker when
    /// integral; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array, rendered in order.
    Arr(Vec<JVal>),
    /// An object; keys are sorted (bytewise) at render time regardless of
    /// insertion order.
    Obj(Vec<(String, JVal)>),
}

impl JVal {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JVal)>) -> JVal {
        JVal::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: &str) -> JVal {
        JVal::Str(s.to_string())
    }

    /// Convenience: `Num` when present, `Null` otherwise.
    pub fn opt_num(v: Option<f64>) -> JVal {
        v.map(JVal::Num).unwrap_or(JVal::Null)
    }

    /// Convenience: an array of unsigned integers (node ids, counts).
    pub fn uints(ids: &[usize]) -> JVal {
        JVal::Arr(ids.iter().map(|&i| JVal::UInt(i as u64)).collect())
    }

    /// The value at `key` of an object (first match in document order).
    pub fn get(&self, key: &str) -> Option<&JVal> {
        match self {
            JVal::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JVal::Num(v) => Some(v),
            JVal::UInt(u) => Some(u as f64),
            JVal::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// A non-negative integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JVal::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[JVal]> {
        match self {
            JVal::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JVal::Null => out.push_str("null"),
            JVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JVal::Int(i) => out.push_str(&i.to_string()),
            JVal::UInt(u) => out.push_str(&u.to_string()),
            JVal::Num(v) => write_f64(out, *v),
            JVal::Str(s) => write_string(out, s),
            JVal::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JVal::Obj(pairs) => {
                let mut sorted: Vec<&(String, JVal)> = pairs.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (k, v)) in sorted.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shortest-roundtrip float formatting; integral finite values keep a
/// trailing `.0` so they stay floats on re-parse.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let formatted = format!("{}", v);
        out.push_str(&formatted);
        if !formatted.contains('.') && !formatted.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn write_string(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
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
    out.push('"');
}

/// A string→f64 map as a sorted JSON object.
pub fn num_map(m: &HashMap<String, f64>) -> JVal {
    JVal::Obj(m.iter().map(|(k, v)| (k.clone(), JVal::Num(*v))).collect())
}

/// A string→u64 map as a sorted JSON object.
pub fn uint_map(m: &HashMap<String, u64>) -> JVal {
    JVal::Obj(m.iter().map(|(k, v)| (k.clone(), JVal::UInt(*v))).collect())
}

/// Parses one complete JSON document (RFC 8259). `Err` carries the byte
/// offset of the first syntax error.
pub fn parse(input: &str) -> Result<JVal, usize> {
    let mut p = Parser { s: input, pos: 0 };
    let v = p.value()?;
    p.ws();
    if p.pos != input.len() {
        return Err(p.pos);
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), usize> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.pos)
        }
    }

    fn value(&mut self) -> Result<JVal, usize> {
        self.ws();
        match self.peek() {
            Some(b'{') => self
                .items(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(JVal::Obj),
            Some(b'[') => self.items(b']', Self::value).map(JVal::Arr),
            Some(b'"') => self.string().map(JVal::Str),
            Some(b't') => self.literal("true", JVal::Bool(true)),
            Some(b'f') => self.literal("false", JVal::Bool(false)),
            Some(b'n') => self.literal("null", JVal::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.pos),
        }
    }

    /// Comma-separated items up to `close`; `self.pos` is on the opener.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, usize>,
    ) -> Result<Vec<T>, usize> {
        self.pos += 1;
        let mut out = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.pos),
            }
        }
    }

    fn literal(&mut self, lit: &str, v: JVal) -> Result<JVal, usize> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.pos)
        }
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), usize> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.pos)
        } else {
            Ok(())
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JVal, usize> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
            integral = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
            integral = false;
        }
        let text = &self.s[start..self.pos];
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JVal::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JVal::Int(i));
            }
        }
        text.parse::<f64>().map(JVal::Num).map_err(|_| start)
    }

    fn string(&mut self) -> Result<String, usize> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters; every byte that ends it is
            // ASCII, so the slice boundaries are char boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.s[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                // An unescaped control character, or the end of input.
                _ => return Err(self.pos),
            }
        }
    }

    /// One escape sequence starting at the backslash under `self.pos`. A
    /// `\u` high surrogate must be followed by an escaped low surrogate;
    /// a lone surrogate is an error at the backslash.
    fn escape(&mut self) -> Result<char, usize> {
        let at = self.pos;
        self.pos += 2;
        Ok(match self.s.as_bytes().get(at + 1) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hi = self.hex4().ok_or(at)?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.s[self.pos..].starts_with("\\u") {
                        return Err(at);
                    }
                    self.pos += 2;
                    match self.hex4() {
                        Some(lo) if (0xDC00..0xE000).contains(&lo) => {
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        }
                        _ => return Err(at),
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or(at)?
            }
            _ => return Err(at),
        })
    }

    fn hex4(&mut self) -> Option<u32> {
        let digits = self.s.get(self.pos..self.pos + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.pos += 4;
        u32::from_str_radix(digits, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_regardless_of_insertion_order() {
        let a = JVal::obj(vec![("b", JVal::Int(2)), ("a", JVal::Int(1))]);
        let b = JVal::obj(vec![("a", JVal::Int(1)), ("b", JVal::Int(2))]);
        assert_eq!(a.render(), "{\"a\":1,\"b\":2}");
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn floats_keep_a_type_marker_and_nan_is_null() {
        assert_eq!(JVal::Num(2.0).render(), "2.0");
        assert_eq!(JVal::Num(f64::NAN).render(), "null");
        assert_eq!(JVal::UInt(2).render(), "2");
        assert_eq!(JVal::Num(1.5e-7).render(), "0.00000015");
        // Beyond 2^53: shortest round-trip digits, zero-padded.
        assert_eq!(
            JVal::Num(1.2345678901234568e20).render(),
            "123456789012345680000.0"
        );
    }

    #[test]
    fn rendered_documents_parse_back() {
        let doc = JVal::obj(vec![
            ("name", JVal::str("a\"b\\c\n")),
            (
                "xs",
                JVal::Arr(vec![JVal::Int(-1), JVal::Null, JVal::Bool(true)]),
            ),
            ("nested", JVal::obj(vec![("z", JVal::Num(0.5))])),
        ]);
        let parsed = parse(&doc.render()).expect("valid JSON");
        assert_eq!(
            parsed.get("name").and_then(|v| v.as_str()),
            Some("a\"b\\c\n")
        );
        assert_eq!(
            parsed
                .get("nested")
                .and_then(|n| n.get("z"))
                .and_then(|v| v.as_f64()),
            Some(0.5)
        );
        assert_eq!(
            parsed.get("xs").and_then(|v| v.as_arr()),
            Some(&[JVal::Int(-1), JVal::Null, JVal::Bool(true)][..])
        );
    }

    #[test]
    fn integers_parse_as_integers_in_document_order() {
        let v = parse("{\"b\":1,\"a\":-2,\"c\":1.0,\"d\":2e0}").expect("parse");
        assert_eq!(
            v,
            JVal::Obj(vec![
                ("b".into(), JVal::UInt(1)),
                ("a".into(), JVal::Int(-2)),
                ("c".into(), JVal::Num(1.0)),
                ("d".into(), JVal::Num(2.0)),
            ])
        );
        assert_eq!(v.get("b").and_then(JVal::as_u64), Some(1));
        assert_eq!(v.get("a").and_then(JVal::as_u64), None);
        assert_eq!(v.get("a").and_then(JVal::as_f64), Some(-2.0));
    }

    #[test]
    fn rejects_malformed_documents_at_the_first_bad_byte() {
        for (input, offset) in [
            // Numbers outside the RFC 8259 grammar.
            ("+1", 0),
            (".5", 0),
            ("01", 1),
            ("1.", 2),
            ("-.5", 1),
            ("1.e3", 2),
            ("1e", 2),
            ("-", 1),
            ("[1,01]", 4),
            // Structure.
            ("{\"a\":", 5),
            ("[1,2,]", 5),
            ("[1] trailing", 4),
            ("{\"a\" 1}", 5),
            // Strings: unknown escape, raw control character, bad hex.
            ("\"\\q\"", 1),
            ("\"a\nb\"", 2),
            ("\"\\u00g1\"", 1),
            ("\"abc", 4),
        ] {
            assert_eq!(parse(input), Err(offset), "input {input:?}");
        }
    }

    #[test]
    fn escapes_decode_including_surrogate_pairs() {
        let v = parse("{\"k\":\"a\\\"b\\u0041\\/\"}").expect("parse");
        assert_eq!(v.get("k").and_then(|s| s.as_str()), Some("a\"bA/"));
        assert_eq!(
            parse("\"\\ud83d\\ude00\""),
            Ok(JVal::Str("\u{1F600}".into()))
        );
        // Lone or mismatched surrogates are errors at their backslash.
        assert_eq!(parse("\"\\ud83d\""), Err(1));
        assert_eq!(parse("\"x\\ude00\""), Err(2));
        assert_eq!(parse("\"\\ud83d\\u0041\""), Err(1));
    }

    /// Every committed golden and bench baseline is a fixed point of
    /// parse → render, so all of them are in the writer's canonical form.
    #[test]
    fn committed_json_files_round_trip_byte_for_byte() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let json_files = |dir: std::path::PathBuf, prefix: &str| -> Vec<std::path::PathBuf> {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .map(|rd| rd.flatten().map(|e| e.path()).collect())
                .unwrap_or_default();
            files.retain(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.starts_with(prefix) && name.ends_with(".json")
            });
            files
        };
        let goldens: Vec<_> = std::fs::read_dir(root.join("crates"))
            .expect("crates dir")
            .flatten()
            .flat_map(|c| json_files(c.path().join("tests/golden"), ""))
            .collect();
        let benches = json_files(root.join("benchmarks"), "BENCH_");
        assert!(!goldens.is_empty() && !benches.is_empty());
        for path in goldens.iter().chain(&benches) {
            let text = std::fs::read_to_string(path).expect("read");
            let doc = parse(&text).unwrap_or_else(|at| panic!("{}: error at {at}", path.display()));
            assert!(doc.render() == text, "{} is not canonical", path.display());
        }
    }

    /// Deterministic generator of arbitrary documents: every variant,
    /// floats from raw bits (NaN and infinities included), and strings over
    /// quotes, escapes, control characters and non-BMP code points.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn string(&mut self) -> String {
            const POOL: [char; 10] = ['a', 'Z', '"', '\\', '\n', '\u{1}', '\u{7f}', 'é', '€', '😀'];
            (0..self.below(5))
                .map(|_| POOL[self.below(POOL.len() as u64) as usize])
                .collect()
        }

        fn val(&mut self, depth: u32) -> JVal {
            match self.below(if depth == 0 { 7 } else { 9 }) {
                0 => JVal::Null,
                1 => JVal::Bool(self.next() & 1 == 1),
                2 => JVal::Int(self.next() as i64),
                3 => JVal::UInt(self.next()),
                4 => JVal::Num(f64::from_bits(self.next())),
                5 => JVal::Num(self.below(1 << 60) as f64 - (1u64 << 59) as f64),
                6 => JVal::Str(self.string()),
                7 => JVal::Arr((0..self.below(4)).map(|_| self.val(depth - 1)).collect()),
                _ => JVal::Obj(
                    (0..self.below(4))
                        .map(|_| (self.string(), self.val(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Rendering is a fixed point of parse → render.
            #[test]
            fn prop_parse_of_render_renders_identically(seed in 0u64..u64::MAX) {
                let rendered = Gen(seed).val(3).render();
                prop_assert_eq!(parse(&rendered).map(|v| v.render()), Ok(rendered));
            }
        }
    }
}
