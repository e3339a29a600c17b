//! The workspace's JSON text rules. Every hand-written `rocc-*/v1` JSON
//! artifact embeds strings through [`escape`]; the engine's trace,
//! metrics and profile documents write floats through [`number`]; and
//! everything the repo reads back goes through the strict [`parse`].

use std::borrow::Cow;

/// Escape a string for embedding in a JSON string literal: `"` and `\`
/// are backslash-escaped, `\n` / `\r` / `\t` use their short forms, and
/// every other control character below U+0020 becomes `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
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
    out
}

/// An `f64` as a JSON number: Rust's shortest round-trip form. JSON has
/// no NaN or infinity; a non-finite value is written as `0`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Deepest nesting [`parse`] accepts rather than recursing further.
const MAX_DEPTH: usize = 128;

/// A document read by [`parse`]: one node per value, in document order,
/// so a container's children follow it and no container allocates.
#[derive(Debug)]
pub struct Doc<'a> {
    text: &'a str,
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The value's raw text is `text[start..end]`.
    start: u32,
    end: u32,
    /// The index of the first node after this value's subtree.
    next: u32,
}

impl Doc<'_> {
    /// The top-level value.
    pub fn root(&self) -> Value<'_> {
        Value { doc: self, at: 0 }
    }
}

/// One value of a [`Doc`], with its raw text: a number reads back through
/// the digits written, a nested document as its bytes. What a value is
/// follows from the first byte of that text.
#[derive(Debug, Clone, Copy)]
pub struct Value<'d> {
    doc: &'d Doc<'d>,
    at: u32,
}

impl<'d> Value<'d> {
    /// The value's text exactly as it appears in the document.
    pub fn raw(self) -> &'d str {
        let n = self.doc.nodes[self.at as usize];
        &self.doc.text[n.start as usize..n.end as usize]
    }

    /// A `true` or `false`.
    pub fn as_bool(self) -> Option<bool> {
        self.raw().parse().ok()
    }

    /// A number written as plain decimal digits that fits a `u64`; a
    /// sign, fraction or exponent is refused.
    pub fn as_u64(self) -> Option<u64> {
        let raw = self.raw();
        raw.bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| raw.parse().ok())?
    }

    /// A number as the nearest `f64`; one too large for it is refused.
    pub fn as_f64(self) -> Option<f64> {
        self.raw().parse().ok().filter(|x: &f64| x.is_finite())
    }

    /// A string, unescaped.
    pub fn as_str(self) -> Option<Cow<'d, str>> {
        unquote(self.raw())
    }

    /// An array's elements, in order.
    pub fn items(self) -> Option<impl Iterator<Item = Value<'d>>> {
        self.raw().starts_with('[').then(|| self.children())
    }

    /// The elements of an array of exactly `N`.
    pub fn elements<const N: usize>(self) -> Option<[Value<'d>; N]> {
        let mut items = self.items()?;
        let mut out = [self; N];
        for slot in &mut out {
            *slot = items.next()?;
        }
        items.next().is_none().then_some(out)
    }

    /// An object's members, in order: each unescaped key with its value.
    pub fn entries(self) -> Option<impl Iterator<Item = (Cow<'d, str>, Value<'d>)>> {
        let mut c = self.children();
        let pairs = std::iter::from_fn(move || Some((c.next()?.as_str()?, c.next()?)));
        self.raw().starts_with('{').then_some(pairs)
    }

    /// The value of an object's member `key`.
    pub fn get(self, key: &str) -> Option<Value<'d>> {
        self.entries()?.find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The values of an object whose keys are exactly `keys`, in order: a
    /// record's whole layout, so a member missing, extra or moved refuses it.
    pub fn members<const N: usize>(self, keys: [&str; N]) -> Option<[Value<'d>; N]> {
        let mut entries = self.entries()?;
        let mut out = [self; N];
        for (slot, want) in out.iter_mut().zip(keys) {
            let (key, value) = entries.next()?;
            (key == want).then_some(())?;
            *slot = value;
        }
        entries.next().is_none().then_some(out)
    }

    /// The values nested directly in this one (keys and values alike).
    fn children(self) -> impl Iterator<Item = Value<'d>> {
        let (doc, end) = (self.doc, self.doc.nodes[self.at as usize].next);
        let mut at = self.at + 1;
        std::iter::from_fn(move || {
            let child = (at < end).then_some(Value { doc, at })?;
            at = doc.nodes[at as usize].next;
            Some(child)
        })
    }
}

/// Parse `text` as exactly one JSON document (RFC 8259), whitespace
/// around it allowed; `None` refuses it, as it refuses trailing text, a
/// duplicate key, a bare word (`NaN`, an unquoted key), a raw control
/// character in a string, nesting deeper than 128, and a `\u` escape of a
/// UTF-16 surrogate (the writers put such characters in raw).
pub fn parse(text: &str) -> Option<Doc<'_>> {
    u32::try_from(text.len()).ok()?;
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
        nodes: Vec::new(),
    };
    p.value()?;
    p.ws();
    let nodes = p.nodes;
    (p.pos == text.len()).then_some(Doc { text, nodes })
}

/// A string literal's text, borrowed unless it holds an escape; `None`
/// for an escape JSON does not have.
fn unquote(raw: &str) -> Option<Cow<'_, str>> {
    let body = raw.strip_prefix('"')?.strip_suffix('"')?;
    if !body.contains('\\') {
        return Some(Cow::Borrowed(body));
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            c @ ('"' | '\\' | '/') => c,
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
            }
            _ => return None,
        });
    }
    Some(Cow::Owned(out))
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    nodes: Vec<Node>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += hit as usize;
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip a run of digits; true if there was one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// One value, after any whitespace, as a node and its subtree.
    fn value(&mut self) -> Option<()> {
        self.ws();
        let (at, start) = (self.nodes.len(), self.pos);
        self.nodes.push(Node {
            start: start as u32,
            end: 0,
            next: 0,
        });
        match self.peek()? {
            b'{' => {
                let mut keys = Vec::new();
                self.items(b'}', |p| {
                    p.ws();
                    keys.push(p.nodes.len());
                    (p.peek()? == b'"').then_some(())?;
                    p.value()?;
                    p.ws();
                    p.eat(b':').then_some(())?;
                    p.value()
                })?;
                let key = |k: usize| {
                    let n = self.nodes[k];
                    unquote(&self.text[n.start as usize..n.end as usize])
                };
                let mut keys: Vec<Cow<str>> = keys.into_iter().map(key).collect::<Option<_>>()?;
                keys.sort_unstable();
                keys.windows(2).all(|w| w[0] != w[1]).then_some(())?;
            }
            b'[' => self.items(b']', Self::value)?,
            b'"' => {
                self.pos += 1;
                loop {
                    match self.peek()? {
                        b'"' => break,
                        b'\\' => self.pos += 1,
                        c if c < 0x20 => return None,
                        _ => {}
                    }
                    self.pos += 1;
                }
                self.pos += 1;
                unquote(&self.text[start..self.pos])?;
            }
            b'-' | b'0'..=b'9' => {
                self.eat(b'-');
                (self.eat(b'0') || self.digits()).then_some(())?;
                if self.eat(b'.') {
                    self.digits().then_some(())?;
                }
                if self.eat(b'e') || self.eat(b'E') {
                    let _ = self.eat(b'+') || self.eat(b'-');
                    self.digits().then_some(())?;
                }
            }
            _ => {
                let rest = &self.text[self.pos..];
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| rest.starts_with(w))?;
                self.pos += word.len();
            }
        }
        let next = self.nodes.len() as u32;
        let node = &mut self.nodes[at];
        node.end = self.pos as u32;
        node.next = next;
        Some(())
    }

    /// The comma-separated items from an opening bracket through `end`.
    fn items(&mut self, end: u8, mut f: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.depth += 1;
        (self.depth <= MAX_DEPTH).then_some(())?;
        self.pos += 1;
        self.ws();
        let mut first = true;
        while !self.eat(end) {
            if !first {
                self.eat(b',').then_some(())?;
            }
            first = false;
            f(self)?;
            self.ws();
        }
        self.depth -= 1;
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\r\t"), "\\r\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain µs"), "plain µs");
    }

    #[test]
    fn number_is_shortest_form_and_finite() {
        assert_eq!(number(0.1), "0.1");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(-2.5e-7), "-0.00000025");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(f64::INFINITY), "0");
    }

    #[test]
    fn parse_reads_every_kind_and_keeps_raw_text() {
        let text = " {\"a\":[1,-2.5e-3,true,null],\"b\":{\"c\":[\"x\\\"y\"]},\"d\":0.1} \n";
        let doc = parse(text).unwrap();
        let v = doc.root();
        let [a, b, d] = v.members(["a", "b", "d"]).unwrap();
        let [one, small, yes, null] = a.elements().unwrap();
        assert_eq!(one.as_u64(), Some(1));
        assert_eq!(small.as_f64(), Some(-2.5e-3));
        assert_eq!(small.raw(), "-2.5e-3");
        assert_eq!(yes.as_bool(), Some(true));
        assert_eq!(null.raw(), "null");
        assert_eq!(null.as_bool(), None);
        assert!(a.elements::<3>().is_none() && a.elements::<5>().is_none());
        assert_eq!(b.raw(), "{\"c\":[\"x\\\"y\"]}");
        let [c] = b.get("c").unwrap().elements().unwrap();
        assert_eq!(c.as_str().as_deref(), Some("x\"y"));
        assert_eq!(d.as_f64(), Some(0.1));
        let keys: Vec<_> = v.entries().unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "d"], "entries skip nested values");
        assert!(v.members(["a", "d", "b"]).is_none(), "order is the layout");
        assert!(v.members(["a", "b"]).is_none(), "so is the member count");
        assert!(a.entries().is_none() && v.items().is_none() && c.items().is_none());
    }

    #[test]
    fn integers_are_plain_digits_only() {
        for (text, want) in [
            ("0", Some(0)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("12.5e9", None),
            ("1e3", None),
            ("-1", None),
            ("\"7\"", None),
        ] {
            assert_eq!(parse(text).unwrap().root().as_u64(), want, "{text}");
        }
        assert_eq!(parse("1e999").unwrap().root().as_f64(), None, "not finite");
    }

    #[test]
    fn escaped_strings_read_back_exactly() {
        for s in ["plain", "a\"b\\c", "\n\r\t\u{1}\u{1f}", "µs ✓ 𝄞", ""] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(
                parse(&doc).unwrap().root().as_str().as_deref(),
                Some(s),
                "{doc}"
            );
        }
        assert_eq!(
            parse("\"\\u00b5\\/\\b\\f\"")
                .unwrap()
                .root()
                .as_str()
                .as_deref(),
            Some("µ/\u{8}\u{c}")
        );
    }

    #[test]
    fn parse_refuses_what_is_not_one_document() {
        for bad in [
            "",
            "   ",
            "{} {}",
            "{}x",
            "[1,]",
            "[1 2]",
            "{\"a\":1,\"a\":2}",
            "{\"a\":1,\"\\u0061\":2}",
            "\"\\é\"",
            "{a:1}",
            "NaN",
            "[Infinity]",
            "-",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "tru",
            "\"open",
            "\"tab\there\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud834\\udd1e\"",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_none(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).is_none(), "nested too deep");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_some());
    }

    #[test]
    fn no_proper_prefix_of_a_document_parses() {
        let doc = "{\"k\":\"v\\\"\",\"n\":[1,2.5,{\"x\":[]}],\"t\":true}";
        assert!(parse(doc).is_some());
        for cut in 0..doc.len() {
            assert!(
                parse(&doc[..cut]).is_none(),
                "prefix {cut} parsed: {}",
                &doc[..cut]
            );
        }
    }
}
