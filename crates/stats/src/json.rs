//! The workspace's one JSON module: every document is written through
//! [`Json`] or an [`Obj`] and read back through the strict [`parse`], and a
//! read-back record states its layout once, in a [`record!`] list.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A value with one JSON form, written by `put` and read back strictly by
/// `get` (`None` refuses it). A `str` is written only.
pub trait Json {
    /// Append the value's JSON text to `out`.
    fn put(&self, out: &mut String);
    /// The value `v` holds.
    fn get(v: Value<'_>) -> Option<Self>
    where
        Self: Sized;
}

/// `v` as one JSON document.
pub fn to_string<T: Json + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.put(&mut out);
    out
}

/// `text` read as exactly one `T`.
pub fn from_str<T: Json>(text: &str) -> Option<T> {
    T::get(parse(text)?.root())
}

/// Integers and `bool`: their `Display` text.
macro_rules! display_json {
    ($($t:ty: $v:ident => $get:expr;)*) => {$(
        impl Json for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn get($v: Value<'_>) -> Option<Self> {
                $get
            }
        }
    )*};
}

display_json! {
    u8: v => v.as_u64()?.try_into().ok();
    u32: v => v.as_u64()?.try_into().ok();
    u64: v => v.as_u64();
    usize: v => v.as_u64()?.try_into().ok();
    bool: v => v.as_bool();
}

/// The float rule: the shortest round-trip form, `0` for a NaN or an
/// infinity (JSON has no word for them).
impl Json for f64 {
    fn put(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }
    fn get(v: Value<'_>) -> Option<Self> {
        v.as_f64()
    }
}

/// A string literal: `"` and `\` escaped, `\n` / `\r` / `\t` short, and
/// every other control character below U+0020 as `\u00XX`.
impl Json for str {
    fn put(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn put(&self, out: &mut String) {
        self.as_str().put(out);
    }
    fn get(v: Value<'_>) -> Option<Self> {
        Some(v.as_str()?.into_owned())
    }
}

impl<T: Json> Json for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(x) => x.put(out),
            None => out.push_str("null"),
        }
    }
    fn get(v: Value<'_>) -> Option<Self> {
        match v.raw() {
            "null" => Some(None),
            _ => T::get(v).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn put(&self, out: &mut String) {
        put_array(out, self, |out, x| x.put(out));
    }
    fn get(v: Value<'_>) -> Option<Self> {
        v.items()?.map(T::get).collect()
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn put(&self, out: &mut String) {
        put_array(out, self, |out, x| x.put(out));
    }
    fn get(v: Value<'_>) -> Option<Self> {
        Vec::get(v)?.try_into().ok()
    }
}

/// A pair is a two-element array.
impl<A: Json, B: Json> Json for (A, B) {
    fn put(&self, out: &mut String) {
        out.push('[');
        self.0.put(out);
        out.push(',');
        self.1.put(out);
        out.push(']');
    }
    fn get(v: Value<'_>) -> Option<Self> {
        let [a, b] = v.elements()?;
        Some((A::get(a)?, B::get(b)?))
    }
}

/// A `u64` as a string of 16 lowercase hex digits: every digest's form.
pub struct Hex(pub u64);

impl Json for Hex {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{:016x}\"", self.0);
    }
    fn get(v: Value<'_>) -> Option<Self> {
        crate::digest::parse_hex_digest(&v.as_str()?).map(Hex)
    }
}

/// Append a JSON array to `out`: each of `items` written by `put`.
pub fn put_array<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut put: impl FnMut(&mut String, I::Item),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        put(out, x);
    }
    out.push(']');
}

/// Append a JSON object to `out`: its members written by `members`.
pub fn put_object(out: &mut String, members: impl FnOnce(&mut Obj)) {
    out.push('{');
    let mut obj = Obj { out, first: true };
    members(&mut obj);
    obj.out.push('}');
}

/// One JSON object as a document: its members written by `members`.
pub fn object(members: impl FnOnce(&mut Obj)) -> String {
    let mut out = String::new();
    put_object(&mut out, members);
    out
}

/// `items` as JSONL: one document a line, each line ending in a newline.
pub fn jsonl<'a, T: Json + 'a>(items: impl IntoIterator<Item = &'a T>) -> String {
    let mut out = String::new();
    for x in items {
        x.put(&mut out);
        out.push('\n');
    }
    out
}

/// The documents in `docs` as one array, one element a line.
pub fn lines(docs: &[String]) -> String {
    format!("[{}]", docs.join(",\n"))
}

/// An object being written: one member per call, in call order.
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    /// Start member `key`: its value is appended to the buffer returned.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        key.put(self.out);
        self.out.push(':');
        self.out
    }

    /// Member `key` holding `v`.
    pub fn field<T: Json + ?Sized>(&mut self, key: &str, v: &T) -> &mut Self {
        v.put(self.key(key));
        self
    }

    /// Member `key` holding `v`, left out when `v` is `None`.
    pub fn opt<T: Json>(&mut self, key: &str, v: &Option<T>) -> &mut Self {
        if let Some(v) = v {
            self.field(key, v);
        }
        self
    }

    /// Member `key` holding a JSON value already written as `text`.
    pub fn raw(&mut self, key: &str, text: &str) -> &mut Self {
        self.key(key).push_str(text);
        self
    }

    /// Member `key` holding an object whose members `members` writes.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Obj)) -> &mut Self {
        put_object(self.key(key), members);
        self
    }

    /// Member `key` holding an array of objects, one per item.
    pub fn objects<I: IntoIterator>(
        &mut self,
        key: &str,
        items: I,
        mut members: impl FnMut(&mut Obj, I::Item),
    ) -> &mut Self {
        put_array(self.key(key), items, |out, x| {
            put_object(out, |o| members(o, x))
        });
        self
    }

    /// Member `key` holding `x` in `digits` fixed decimals, `null` when
    /// absent or not finite: the fidelity documents' form (golden file).
    pub fn fixed(&mut self, key: &str, x: Option<f64>, digits: usize) -> &mut Self {
        let out = self.key(key);
        match x.filter(|x| x.is_finite()) {
            Some(x) => drop(write!(out, "{x:.digits$}")),
            None => out.push_str("null"),
        }
        self
    }
}

/// How a [`record!`] member is written and read when not as its field's
/// own [`Json`]; the list names it after the field (`digest: Hex`).
pub trait Via<T> {
    /// Write `x` as member `key` of `o`.
    fn put(x: &T, key: &str, o: &mut Obj);
    /// Read the member `key` that `m` is at.
    fn get(key: &str, m: &mut Fields) -> Option<T>;
}

/// A digest string in [`Hex`]'s form, checked on read.
impl Via<String> for Hex {
    fn put(x: &String, key: &str, o: &mut Obj) {
        o.field(key, x);
    }
    fn get(key: &str, m: &mut Fields) -> Option<String> {
        String::get(m.take(key)?).filter(|s| crate::digest::parse_hex_digest(s).is_some())
    }
}

/// A `u64` field in [`Hex`]'s form.
impl Via<u64> for Hex {
    fn put(x: &u64, key: &str, o: &mut Obj) {
        o.field(key, &Hex(*x));
    }
    fn get(key: &str, m: &mut Fields) -> Option<u64> {
        Some(<Hex as Json>::get(m.take(key)?)?.0)
    }
}

/// A JSON value kept as its text, written and read back verbatim.
pub struct Raw;

impl Via<String> for Raw {
    fn put(x: &String, key: &str, o: &mut Obj) {
        o.raw(key, x);
    }
    fn get(key: &str, m: &mut Fields) -> Option<String> {
        Some(m.take(key)?.raw().to_string())
    }
}

/// An optional raw member: written when `Some`, `None` when absent.
impl Via<Option<String>> for Raw {
    fn put(x: &Option<String>, key: &str, o: &mut Obj) {
        if let Some(x) = x {
            o.raw(key, x);
        }
    }
    fn get(key: &str, m: &mut Fields) -> Option<Option<String>> {
        Some(m.take(key).map(|v| v.raw().to_string()))
    }
}

/// [`Json`] for a record that is read back, from one list of its members
/// in written order. The reader refuses a member missing, extra or moved.
///
/// A struct: `record!(T { "schema" = S; a, b as key, c: Hex, pair = [d,
/// e] })`. The constant member is optional and checked on read; `a` is
/// field `a`'s own [`Json`], `b as key` renames, `c: Hex` goes through a
/// [`Via`], and `pair = [d, e]` writes fields `d` and `e` (`Clone`, one
/// type) as one array.
///
/// An enum of struct variants: `record!(E { t as t_ns; "type"; A = "a" {
/// x, cp: CpId { node, port } }, })` writes the field `t` every variant
/// holds first (optional), then the tag, then the variant's fields; `cp:
/// CpId { node, port }` writes struct `cp`'s fields as members.
#[doc(hidden)]
#[macro_export]
macro_rules! json_record {
    (@put $o:ident, $k:ident = [$($g:ident),+]) => {
        $o.field(stringify!($k), &[$($g.clone()),+])
    };
    (@put $o:ident, $f:ident $(as $k:ident)?) => {
        $o.field([$(stringify!($k),)? stringify!($f)][0], $f)
    };
    (@put $o:ident, $f:ident $(as $k:ident)? : $via:ident) => {
        <$via as $crate::json::Via<_>>::put(
            $f,
            [$(stringify!($k),)? stringify!($f)][0],
            $o,
        )
    };
    (@put $o:ident, $f:ident: $ty:ident { $($s:ident),+ }) => {
        $($o.field(stringify!($s), &$f.$s);)+
    };
    (@get $m:ident, $k:ident = [$($g:ident),+]) => {
        let [$($g),+] = $m.take(stringify!($k))?.elements()?;
        $(let $g = $crate::json::Json::get($g)?;)+
    };
    (@get $m:ident, $f:ident $(as $k:ident)?) => {
        let $f = $crate::json::Json::get($m.take([$(stringify!($k),)? stringify!($f)][0])?)?;
    };
    (@get $m:ident, $f:ident $(as $k:ident)? : $via:ident) => {
        let $f = <$via as $crate::json::Via<_>>::get(
            [$(stringify!($k),)? stringify!($f)][0],
            &mut $m,
        )?;
    };
    (@get $m:ident, $f:ident: $ty:ident { $($s:ident),+ }) => {
        $(let $s = $crate::json::Json::get($m.take(stringify!($s))?)?;)+
        let $f = $ty { $($s),+ };
    };
    (@fields $t:ident [$($done:ident)*]) => {
        $t { $($done),* }
    };
    (@fields $t:ident [$($done:ident)*] ($k:ident [$($g:ident),+]) $($rest:tt)*) => {
        $crate::json_record!(@fields $t [$($done)* $($g)+] $($rest)*)
    };
    (@fields $t:ident [$($done:ident)*] ($f:ident []) $($rest:tt)*) => {
        $crate::json_record!(@fields $t [$($done)* $f] $($rest)*)
    };
    ($t:ident {
        $($ck:literal = $cv:expr;)?
        $($f:ident $(= [$($g:ident),+])? $(as $k:ident)? $(: $via:ident)?),+ $(,)?
    }) => {
        impl $crate::json::Json for $t {
            fn put(&self, out: &mut String) {
                let $crate::json_record!(@fields $t [] $(($f [$($($g),+)?]))+) = self;
                $crate::json::put_object(out, |o| {
                    $(o.field($ck, $cv);)?
                    $($crate::json_record!(
                        @put o, $f $(= [$($g),+])? $(as $k)? $(: $via)?
                    );)+
                });
            }
            fn get(v: $crate::json::Value<'_>) -> Option<Self> {
                let mut m = v.fields()?;
                $((m.take($ck)?.as_str()? == $cv).then_some(())?;)?
                $($crate::json_record!(
                    @get m, $f $(= [$($g),+])? $(as $k)? $(: $via)?
                );)+
                m.done().then_some($crate::json_record!(@fields $t [] $(($f [$($($g),+)?]))+))
            }
        }
    };
    (@lead $o:ident, $x:ident, $t:ident [$($v:ident),+] []) => {};
    (@lead $o:ident, $x:ident, $t:ident [$($v:ident),+] [$tf:ident as $tk:ident]) => {
        match $x {
            $($t::$v { $tf, .. } => $o.field(stringify!($tk), $tf),)+
        };
    };
    (@lead $m:ident []) => {};
    (@lead $m:ident [$tf:ident as $tk:ident]) => {
        let $tf = $crate::json::Json::get($m.take(stringify!($tk))?)?;
    };
    (@new $t:ident::$v:ident [] $($f:ident)+) => {
        $t::$v { $($f),+ }
    };
    (@new $t:ident::$v:ident [$tf:ident as $tk:ident] $($f:ident)+) => {
        $t::$v { $tf, $($f),+ }
    };
    ($t:ident { $tf:ident as $tk:ident; $($rest:tt)+ }) => {
        $crate::json_record!(@tagged $t [$tf as $tk] $($rest)+);
    };
    ($t:ident { $tag:literal; $($rest:tt)+ }) => {
        $crate::json_record!(@tagged $t [] $tag; $($rest)+);
    };
    (@tagged $t:ident $lead:tt $tag:literal;
        $($v:ident = $name:literal {
            $($f:ident $(as $k:ident)? $(: $via:ident $({ $($s:ident),+ })?)?),+ $(,)?
        }),+ $(,)?
    ) => {
        impl $crate::json::Json for $t {
            fn put(&self, out: &mut String) {
                $crate::json::put_object(out, |o| {
                    $crate::json_record!(@lead o, self, $t [$($v),+] $lead);
                    o.field($tag, match self {
                        $($t::$v { .. } => $name,)+
                    });
                    match self {
                        $($t::$v { $($f,)+ .. } => {
                            $($crate::json_record!(
                                @put o, $f $(as $k)? $(: $via $({ $($s),+ })?)?
                            );)+
                        })+
                    }
                });
            }
            fn get(v: $crate::json::Value<'_>) -> Option<Self> {
                let mut m = v.fields()?;
                $crate::json_record!(@lead m $lead);
                let record = match &*m.take($tag)?.as_str()? {
                    $($name => {
                        $($crate::json_record!(
                            @get m, $f $(as $k)? $(: $via $({ $($s),+ })?)?
                        );)+
                        $crate::json_record!(@new $t::$v $lead $($f)+)
                    })+
                    _ => return None,
                };
                m.done().then_some(record)
            }
        }
    };
}

pub use crate::json_record as record;

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

    /// An object's members, to be read front to back by key.
    pub fn fields(self) -> Option<Fields<'d>> {
        let end = self.doc.nodes[self.at as usize].next;
        let (doc, at) = (self.doc, self.at + 1);
        self.raw()
            .starts_with('{')
            .then_some(Fields { doc, at, end })
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

/// An object's members read front to back by key, as a [`record!`] does.
pub struct Fields<'d> {
    doc: &'d Doc<'d>,
    at: u32,
    end: u32,
}

impl<'d> Fields<'d> {
    /// The next member's value if its key is `key`; else `None`, unread.
    pub fn take(&mut self, key: &str) -> Option<Value<'d>> {
        let doc = self.doc;
        let name = Value { doc, at: self.at };
        (self.at < self.end && name.as_str()? == key).then_some(())?;
        let value = Value {
            doc,
            at: doc.nodes[self.at as usize].next,
        };
        self.at = doc.nodes[value.at as usize].next;
        Some(value)
    }

    /// True once every member has been read.
    pub fn done(&self) -> bool {
        self.at == self.end
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
        assert_eq!(to_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(to_string("\r\t"), "\"\\r\\t\"");
        assert_eq!(to_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(to_string("plain µs"), "\"plain µs\"");
    }

    #[test]
    fn number_is_shortest_form_and_finite() {
        assert_eq!(to_string(&0.1), "0.1");
        assert_eq!(to_string(&3.0), "3");
        assert_eq!(to_string(&-2.5e-7), "-0.00000025");
        assert_eq!(to_string(&f64::NAN), "0");
        assert_eq!(to_string(&f64::INFINITY), "0");
    }

    #[test]
    fn parse_reads_every_kind_and_keeps_raw_text() {
        let text = " {\"a\":[1,-2.5e-3,true,null],\"b\":{\"c\":[\"x\\\"y\"]},\"d\":0.1} \n";
        let doc = parse(text).unwrap();
        let v = doc.root();
        let mut m = v.fields().unwrap();
        let [a, b, d] = ["a", "b", "d"].map(|k| m.take(k).unwrap());
        assert!(m.done());
        let [one, small, yes, null] = a.elements().unwrap();
        assert_eq!(one.as_u64(), Some(1));
        assert_eq!(small.as_f64(), Some(-2.5e-3));
        assert_eq!(small.raw(), "-2.5e-3");
        assert_eq!(yes.as_bool(), Some(true));
        assert_eq!(null.raw(), "null");
        assert_eq!(null.as_bool(), None);
        assert!(a.elements::<3>().is_none() && a.elements::<5>().is_none());
        assert_eq!(b.raw(), "{\"c\":[\"x\\\"y\"]}");
        let [c] = b.fields().unwrap().take("c").unwrap().elements().unwrap();
        assert_eq!(c.as_str().as_deref(), Some("x\"y"));
        assert_eq!(d.as_f64(), Some(0.1));
        let keys: Vec<_> = v.entries().unwrap().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "d"], "entries skip nested values");
        let mut m = v.fields().unwrap();
        assert!(
            m.take("a").is_some() && m.take("d").is_none(),
            "order is the layout"
        );
        assert!(m.take("b").is_some() && !m.done(), "so is the member count");
        assert!(a.entries().is_none() && v.items().is_none() && c.items().is_none());
        assert!(a.fields().is_none());
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
            let doc = to_string(s);
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

    #[derive(Debug, PartialEq)]
    struct Cell {
        seed: u64,
        name: String,
        lo: u32,
        hi: u32,
        digest: String,
        result: Option<String>,
    }

    record!(Cell {
        "schema" = "cell/v1";
        seed,
        name as label,
        range = [lo, hi],
        digest: Hex,
        result: Raw
    });

    #[derive(Debug, PartialEq)]
    struct At {
        x: usize,
        y: usize,
    }

    #[derive(Debug, PartialEq)]
    enum Row {
        Point { t: u64, at: At, w: f64 },
        Flag { t: u64, on: bool },
    }

    record!(Row {
        t as t_ns;
        "type";
        Point = "point" { at: At { x, y }, w },
        Flag = "flag" { on },
    });

    #[test]
    fn a_record_list_writes_and_reads_one_layout() {
        let cell = Cell {
            seed: 7,
            name: "a\"b".to_string(),
            lo: 1,
            hi: 2,
            digest: "0123456789abcdef".to_string(),
            result: Some("{\"k\":[1]}".to_string()),
        };
        let text = to_string(&cell);
        assert_eq!(
            text,
            "{\"schema\":\"cell/v1\",\"seed\":7,\"label\":\"a\\\"b\",\"range\":[1,2],\
             \"digest\":\"0123456789abcdef\",\"result\":{\"k\":[1]}}"
        );
        assert_eq!(from_str::<Cell>(&text), Some(cell));
        let bare = "{\"schema\":\"cell/v1\",\"seed\":7,\"label\":\"\",\"range\":[1,2],\
                    \"digest\":\"0123456789abcdef\"}";
        let cell = from_str::<Cell>(bare).unwrap();
        assert_eq!(
            (
                cell.result,
                to_string(&Cell {
                    result: None,
                    ..cell
                })
            ),
            (None, bare.replace(' ', ""))
        );
        for bad in [
            text.replace("cell/v1", "cell/v2"),
            text.replace("0123456789abcdef", "0123456789ABCDEF"),
            text.replace("[1,2]", "[1,2,3]"),
            text.replace(
                "\"seed\":7,\"label\":\"a\\\"b\"",
                "\"label\":\"a\\\"b\",\"seed\":7",
            ),
            text.replace("}}", "},\"x\":0}"),
        ] {
            assert_eq!(from_str::<Cell>(&bad), None, "{bad}");
        }
    }

    #[test]
    fn a_tagged_record_list_writes_and_reads_each_variant() {
        let point = Row::Point {
            t: 5,
            at: At { x: 1, y: 2 },
            w: 0.5,
        };
        let flag = Row::Flag { t: 6, on: true };
        for (row, text) in [
            (
                point,
                "{\"t_ns\":5,\"type\":\"point\",\"x\":1,\"y\":2,\"w\":0.5}",
            ),
            (flag, "{\"t_ns\":6,\"type\":\"flag\",\"on\":true}"),
        ] {
            assert_eq!(to_string(&row), text);
            assert_eq!(from_str::<Row>(text), Some(row));
        }
        for bad in [
            "{\"t_ns\":6,\"type\":\"flag\"}",
            "{\"t_ns\":6,\"type\":\"flag\",\"on\":true,\"w\":1}",
            "{\"type\":\"flag\",\"t_ns\":6,\"on\":true}",
            "{\"t_ns\":6,\"type\":\"flog\",\"on\":true}",
        ] {
            assert_eq!(from_str::<Row>(bad), None, "{bad}");
        }
    }

    #[test]
    fn objects_are_written_member_by_member() {
        let doc = object(|o| {
            o.field("n", &Some(3u64))
                .field("none", &None::<u64>)
                .raw("raw", "[true]")
                .object("sub", |o| {
                    o.field("pair", &(1u64, 2.5));
                })
                .objects("list", [1u64, 2], |o, i| {
                    o.field("i", &i);
                })
                .fixed("f", Some(2.0 / 3.0), 3)
                .fixed("inf", Some(f64::INFINITY), 3)
                .fixed("absent", None, 1)
                .field("hex", &Hex(255));
        });
        assert_eq!(
            doc,
            "{\"n\":3,\"none\":null,\"raw\":[true],\"sub\":{\"pair\":[1,2.5]},\
             \"list\":[{\"i\":1},{\"i\":2}],\"f\":0.667,\"inf\":null,\"absent\":null,\
             \"hex\":\"00000000000000ff\"}"
        );
        assert_eq!(object(|_| ()), "{}");
        assert_eq!(lines(&["{}".to_string(), "[]".to_string()]), "[{},\n[]]");
        assert_eq!(
            from_str::<Vec<(u64, f64)>>("[[1,0.5],[2,3]]"),
            Some(vec![(1, 0.5), (2, 3.0)])
        );
        assert_eq!(from_str::<[u32; 2]>("[1,2,3]"), None);
        assert_eq!(from_str::<Option<bool>>("null"), Some(None));
    }
}
