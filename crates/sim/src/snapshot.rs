//! Deterministic mid-run snapshot/restore: the `rocc-snapshot/v8` format.
//!
//! A snapshot captures the complete *dynamic* state of a [`crate::engine::Sim`]
//! — scheduler heap, packet slab, switch queues and PFC state, host
//! send/recv and RP state, CP fair-rate calculators, fault cursors, budget
//! counters, the telemetry log, the observatory's tick marks and the
//! sanitizer's accumulators — such that
//! restoring it into a freshly built, identically configured `Sim` resumes
//! the run with **byte-identical** verdicts, metrics JSONL, and aggregates
//! versus an uninterrupted run (see DESIGN.md §3i).
//!
//! The caller-rebuild protocol: construction-time state (topology, config,
//! CC factories, registered flows, trace watch lists, enabled
//! telemetry/observatory/sanitizer features) is **not** serialized. The
//! restoring process rebuilds the `Sim` exactly as the original run did —
//! same constructor arguments, same `add_flow` calls, same watch/enable
//! calls — and then [`crate::engine::Sim::restore`] overwrites every
//! dynamic field. Mismatched construction is detected via the seed and a
//! seed-zeroed FNV-1a config digest in the header, plus structural checks
//! (node counts, the trace's watch lists) during decode.
//!
//! Wire format: a 16-byte magic ([`SNAPSHOT_MAGIC`]), a fixed header
//! (seed, config digest, sim time, event count, body length), a body, and
//! a trailing FNV-1a-64 digest over everything before it. The body is the
//! section payloads back to back — `kernel`, `rng`, `sched`, `faults`,
//! `san`, `slab`, one `host/N` or `switch/N` per node, `run`, `trace`,
//! `sanitizer`, each laid out by the crate-private `Codec` trait, which
//! states every type's layout once, in its impl — then the section
//! table, `(name, payload length)` per section in the same order, then
//! two footer words: the section count and the table's offset in the
//! body. (The table trails the payloads so the buffer the sections were
//! written into becomes the snapshot in place, without a copy.) The
//! container — header, table, footer and trailer — is fixed-width
//! little-endian `u64` words; inside the payloads integers are varints
//! (the `Codec` doc states the rule). Corruption of any byte is caught
//! by the trailer before any state is applied. There is no reader for
//! older versions (snapshots are ephemeral checkpoints); an older file
//! fails the magic check. The per-subsystem state digests of
//! [`crate::digest`] are the FNV-1a-64 of these same section payloads, so
//! equal snapshots have equal digests by construction.

use crate::cc::FeedbackEvent;
use crate::config::SimConfig;
use crate::engine::Event;
use crate::fault::FaultEvent;
use crate::packet::{CpId, FlowId, IntHop, IntStack, Packet, PacketKind, MAX_INT_HOPS};
use crate::slab::{PacketHead, PacketRef};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, PortId};
use crate::units::BitRate;
use rocc_stats::digest::fnv1a_64;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Leading magic of every snapshot: format name + version in one token.
pub const SNAPSHOT_MAGIC: &[u8; 16] = b"rocc-snapshot/v8";

/// [`SNAPSHOT_MAGIC`] as text, for every message that names the format.
pub const SNAPSHOT_FORMAT: &str = match std::str::from_utf8(SNAPSHOT_MAGIC) {
    Ok(s) => s,
    Err(_) => panic!("snapshot magic is not UTF-8"),
};

/// Byte length of the fixed header (magic + seed + config digest + now +
/// events + body length).
pub const HEADER_LEN: usize = 16 + 8 * 5;

/// Why a snapshot failed to load. Every variant is recoverable by falling
/// back to a fresh cell run — corrupt or stale snapshots must never poison
/// a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading magic is not [`SNAPSHOT_MAGIC`] (wrong file, wrong
    /// version, or garbage).
    BadMagic,
    /// The byte stream ended before the declared structure did.
    Truncated,
    /// The trailing FNV-1a digest does not match the content (bit rot,
    /// torn write).
    DigestMismatch {
        /// Digest recomputed over the content.
        computed: u64,
        /// Digest stored in the trailer.
        stored: u64,
    },
    /// The snapshot was taken under a different seed or configuration than
    /// the `Sim` it is being restored into.
    ConfigMismatch {
        /// What the restoring `Sim` expects (seed, config digest).
        expected: (u64, u64),
        /// What the snapshot header carries.
        found: (u64, u64),
    },
    /// Structurally invalid content (bad enum tag, count mismatch against
    /// the rebuilt `Sim`, unknown / missing / reordered section). The
    /// static string names the decode site.
    Malformed(&'static str),
}

/// A controller's words that do not decode make the snapshot malformed.
impl From<crate::cc::CcStateError> for SnapshotError {
    fn from(e: crate::cc::CcStateError) -> Self {
        SnapshotError::Malformed(e.0)
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a {SNAPSHOT_FORMAT} file"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::DigestMismatch { computed, stored } => write!(
                f,
                "snapshot digest mismatch: computed {computed:016x}, stored {stored:016x}"
            ),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config mismatch: expected seed {} / config {:016x}, found seed {} / config {:016x}",
                expected.0, expected.1, found.0, found.1
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Seed-independent configuration digest: FNV-1a over the `Debug` render
/// of the config with its seed zeroed, so one digest covers a whole seed
/// sweep of the same cell configuration.
pub fn config_digest(config: &SimConfig) -> u64 {
    let mut c = config.clone();
    c.seed = 0;
    fnv1a_64(format!("{c:?}").as_bytes())
}

/// Parsed snapshot header, returned by [`inspect`] without touching the
/// body (used by `repro snapshot inspect` and the supervisor's staleness
/// checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// RNG seed of the captured run.
    pub seed: u64,
    /// Seed-zeroed FNV-1a digest of the captured run's `SimConfig`.
    pub config_digest: u64,
    /// Simulated time at the capture instant, nanoseconds.
    pub now_ns: u64,
    /// Events processed at the capture instant.
    pub events_processed: u64,
    /// Body length in bytes (checkpoint size accounting).
    pub body_len: u64,
    /// Total file length in bytes.
    pub total_len: u64,
}

/// Validate magic, structure, and trailing digest, and return the header.
/// Reads the whole buffer (for the digest) but decodes none of the body.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(if bytes.len() >= 16 && &bytes[..16] != SNAPSHOT_MAGIC {
            SnapshotError::BadMagic
        } else {
            SnapshotError::Truncated
        });
    }
    if &bytes[..16] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let word = |i: usize| {
        let o = 16 + i * 8;
        u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap())
    };
    let (seed, config, now_ns, events, body_len) =
        (word(0), word(1), word(2), word(3), word(4));
    let expect_total = HEADER_LEN as u64 + body_len + 8;
    if bytes.len() as u64 != expect_total {
        return Err(SnapshotError::Truncated);
    }
    let content = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    let computed = fnv1a_64(content);
    if computed != stored {
        return Err(SnapshotError::DigestMismatch { computed, stored });
    }
    Ok(SnapshotInfo {
        seed,
        config_digest: config,
        now_ns,
        events_processed: events,
        body_len,
        total_len: bytes.len() as u64,
    })
}

// ---------------------------------------------------------------------------
// Section writer and reader
// ---------------------------------------------------------------------------

/// Append-only byte sink for snapshot sections; values go in through
/// [`Codec`].
pub(crate) struct SnapWriter {
    /// [`HEADER_LEN`] reserved bytes ([`frame`] fills them in), then the
    /// section payloads.
    buf: Vec<u8>,
    /// `(name, start offset into buf)` of every section opened so far.
    starts: Vec<(String, usize)>,
}

impl SnapWriter {
    pub(crate) fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.resize(HEADER_LEN, 0);
        SnapWriter { buf, starts: Vec::new() }
    }

    /// A writer that appends to `buf` with no header reserved and no
    /// sections: for bytes kept in their encoding (the event log,
    /// [`crate::telemetry::EventLog`]) rather than framed.
    pub(crate) fn headerless(buf: Vec<u8>) -> Self {
        SnapWriter { buf, starts: Vec::new() }
    }

    /// The buffer, everything written included.
    pub(crate) fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    /// Append bytes some `put` already wrote, verbatim.
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Open the section `name`: everything written until the next call
    /// (or [`SnapWriter::finish`]) is its payload.
    pub(crate) fn section(&mut self, name: impl Into<String>) {
        self.starts.push((name.into(), self.buf.len()));
    }

    pub(crate) fn finish(self) -> Sections {
        debug_assert!(
            self.starts.first().map_or(self.buf.len(), |s| s.1) == HEADER_LEN,
            "bytes written before the first section"
        );
        Sections { buf: self.buf, starts: self.starts }
    }

    /// Append `v`.
    pub(crate) fn put<T: Codec>(&mut self, v: &T) {
        v.put(self);
    }

    #[cfg(test)]
    pub(crate) fn into_bytes(mut self) -> Vec<u8> {
        self.buf.split_off(HEADER_LEN)
    }
}

/// A sim's dynamic state as one buffer of named sections, in the
/// canonical order `Sim::sections` writes them: what [`frame`] turns into
/// a snapshot, and the unit of digesting and of word-level diffing.
pub(crate) struct Sections {
    buf: Vec<u8>,
    starts: Vec<(String, usize)>,
}

impl Sections {
    /// `(name, payload)` of every section, in written order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &[u8])> {
        let ends = self.starts.iter().skip(1).map(|s| s.1).chain([self.buf.len()]);
        self.starts
            .iter()
            .zip(ends)
            .map(|((name, start), end)| (name.as_str(), &self.buf[*start..end]))
    }
}

/// Bounds-checked reader over a snapshot body; values come out through
/// [`Codec`].
pub(crate) struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one `T`.
    pub(crate) fn get<T: Codec>(&mut self) -> Result<T, SnapshotError> {
        T::get(self)
    }

    /// One fixed-width little-endian `u64` word of the container (section
    /// table and footer), as [`frame`] writes it.
    fn word(&mut self) -> Result<usize, SnapshotError> {
        let bytes = self.take(8)?.try_into().expect("take returns the length asked");
        usize::try_from(u64::from_le_bytes(bytes))
            .map_err(|_| SnapshotError::Malformed("section table"))
    }

    /// One varint (the [`Codec`] integer rule), refusing every encoding
    /// `put` would not write.
    #[inline]
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        for i in 0..10 {
            let &b = self.buf.get(self.pos).ok_or(SnapshotError::Truncated)?;
            self.pos += 1;
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                return match (i, b) {
                    (1.., 0) => Err(SnapshotError::Malformed("overlong varint")),
                    (9, 2..) => Err(SnapshotError::Malformed("varint too wide")),
                    _ => Ok(v),
                };
            }
        }
        Err(SnapshotError::Malformed("varint too wide"))
    }

    /// Length prefix of a sequence. Every item encodes to at least one
    /// byte, so a count above the bytes left is corrupt: it fails here,
    /// before anything is decoded or allocated for it.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n: usize = self.get()?;
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Malformed("length prefix"));
        }
        Ok(n)
    }

    /// Run `f` on this reader, then return the bytes it consumed.
    pub(crate) fn consumed(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), SnapshotError>,
    ) -> Result<&'a [u8], SnapshotError> {
        let start = self.pos;
        f(self)?;
        Ok(&self.buf[start..self.pos])
    }

    /// The next `n` bytes as UTF-8, borrowed from the buffer.
    fn utf8(&mut self, n: usize) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| SnapshotError::Malformed("utf8 string"))
    }

    /// True once every byte has been consumed (restore asserts this per
    /// section: trailing garbage means the decode drifted from the encode).
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// In-order walk over a snapshot's sections for `Sim::restore`: each
/// [`SectionCursor::read`] names the section it expects next, so an
/// unknown, missing or reordered section is an error, not a silent skip.
pub(crate) struct SectionCursor<'a> {
    secs: std::vec::IntoIter<Section<'a>>,
}

impl<'a> SectionCursor<'a> {
    pub(crate) fn new(secs: Vec<Section<'a>>) -> Self {
        SectionCursor { secs: secs.into_iter() }
    }

    /// Sections not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.secs.len()
    }

    /// Decode the next section, which must be `name`, with `f`, which
    /// must consume its payload exactly.
    pub(crate) fn read<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut SnapReader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let (found, payload) = self.secs.next().ok_or(SnapshotError::Malformed("missing section"))?;
        if found != name {
            return Err(SnapshotError::Malformed("unexpected section"));
        }
        let mut r = SnapReader::new(payload);
        let v = f(&mut r)?;
        if !r.exhausted() {
            return Err(SnapshotError::Malformed("trailing bytes"));
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// The codec: each type's layout, written once
// ---------------------------------------------------------------------------

/// One snapshotted type's layout, written once: `put` appends the value,
/// `get` reads back exactly what `put` wrote and fails with a typed
/// [`SnapshotError`] — never a panic — on anything else.
///
/// The rules, stated here and nowhere else: `u32`, `u64` and `usize` —
/// so every id, time, rate, length and controller word — are canonical
/// LEB128 varints, seven bits a byte, low group first, the top bit set
/// on every byte but the last, in the fewest bytes (at most ten); `get`
/// refuses an overlong encoding and a value too wide for its type. `u8`
/// is one byte; `bool` is one byte, 0 or 1; `f64` is its IEEE-754 bits,
/// eight bytes little-endian; `Option` is a one-byte tag, 0 or 1, then
/// the value; `String`, `Vec`, `VecDeque`, `BTreeMap` and `BTreeSet` are
/// a length then their items, maps and sets in key order; arrays and
/// tuples are their items with no prefix; an enum is a one-byte tag then
/// its variant's fields. There is deliberately no impl for hash maps:
/// their iteration order must not reach the bytes, so a caller writes
/// one as its [`sorted`] entries.
pub(crate) trait Codec: Sized {
    /// Append this value.
    fn put(&self, w: &mut SnapWriter);
    /// Read one value `put` wrote.
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// A hash map's entries in key order: how a hash map is written.
pub(crate) fn sorted<K: Ord + Copy, V: Copy, S>(map: &HashMap<K, V, S>) -> Vec<(K, V)> {
    let mut entries: Vec<(K, V)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable_by_key(|e| e.0);
    entries
}

macro_rules! le_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut SnapWriter) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                let bytes = r.take(size_of::<$t>())?.try_into();
                Ok(<$t>::from_le_bytes(bytes.expect("take returns the length asked")))
            }
        }
    )*};
}

le_codec!(u8, f64);

/// The integer rule of [`Codec`]: `put` writes the fewest seven-bit
/// groups, `get` refuses a value too wide for the type.
macro_rules! varint_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn put(&self, w: &mut SnapWriter) {
                let mut v = *self as u64;
                while v >= 0x80 {
                    w.buf.push(v as u8 | 0x80);
                    v >>= 7;
                }
                w.buf.push(v as u8);
            }
            #[inline]
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                <$t>::try_from(r.varint()?)
                    .map_err(|_| SnapshotError::Malformed("varint too wide"))
            }
        }
    )*};
}

varint_codec!(u32, u64, usize);

impl Codec for bool {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&(*self as u8));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool")),
        }
    }
}

impl Codec for String {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        w.buf.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.len()?;
        r.utf8(n).map(str::to_owned)
    }
}

/// Types stored as one primitive: `$raw` from `|$v| $to`, back by `$from`.
macro_rules! via_codec {
    ($($t:ty: $raw:ty, |$v:ident| $to:expr, $from:expr;)*) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut SnapWriter) {
                let $v = self;
                w.put::<$raw>(&$to);
            }
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.get::<$raw>().map($from)
            }
        }
    )*};
}

via_codec! {
    SimTime: u64, |t| t.as_nanos(), SimTime::from_nanos;
    SimDuration: u64, |d| d.as_nanos(), SimDuration::from_nanos;
    BitRate: u64, |b| b.as_bps(), BitRate::from_bps;
    NodeId: usize, |n| n.0, NodeId;
    PortId: usize, |p| p.0, PortId;
    LinkId: usize, |l| l.0, LinkId;
    FlowId: u64, |f| f.0, FlowId;
    PacketRef: u32, |p| p.index(), PacketRef::from_index;
}

/// [`Codec`] for an enum: each variant listed once with its tag and its
/// fields — `Idle = 0`, `Arrive { link, pr } = 0` or `Fault(fault) = 10`.
/// `put` writes the tag byte, then the fields in the order listed; `get`
/// reads them back in that order and builds the variant, so every field
/// of a struct variant must be listed and one added later cannot be left
/// out of the layout silently. An unknown tag is `Malformed("enum tag")`.
///
/// `get` is `#[inline]`: trait methods get external linkage, so LLVM will
/// not inline one into the restore loop that calls it on its own; out of
/// line, `Event::get` cost ~8 ns per queued event (+7 % restore on the
/// FB_Hadoop probe), as `PacketKind::get` did for the slab.
macro_rules! tag_codec {
    ($t:ident {
        $($v:ident $({ $($f:ident),* })? $(( $($p:ident),* ))? = $tag:literal),+ $(,)?
    }) => {
        impl $crate::snapshot::Codec for $t {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $($t::$v $({ $($f),* })? $(( $($p),* ))? => {
                        w.put::<u8>(&$tag);
                        $($(w.put($f);)*)?
                        $($(w.put($p);)*)?
                    })+
                }
            }
            #[inline]
            fn get(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(match r.get::<u8>()? {
                    $($tag => {
                        $($(let $f = r.get()?;)*)?
                        $($(let $p = r.get()?;)*)?
                        $t::$v $({ $($f),* })? $(( $($p),* ))?
                    })+
                    _ => return Err($crate::snapshot::SnapshotError::Malformed("enum tag")),
                })
            }
        }
    };
}

pub(crate) use tag_codec;

/// [`Codec`] for a struct: its fields in the order listed, no prefix.
/// Every field must be listed (the decode builds the struct literal), so a
/// field added later cannot be left out of the layout silently.
macro_rules! struct_codec {
    ($t:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::snapshot::Codec for $t {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                $(w.put(&self.$f);)+
            }
            fn get(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok($t { $($f: r.get()?,)+ })
            }
        }
    };
}

pub(crate) use struct_codec;

impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            None => w.put(&0u8),
            Some(v) => {
                w.put(&1u8);
                w.put(v);
            }
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.get::<u8>()? {
            0 => Ok(None),
            1 => r.get().map(Some),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }
}

/// A length-prefixed sequence: the count, then the items.
fn put_seq<'a, T: Codec + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.put(&items.len());
    for x in items {
        w.put(x);
    }
}

/// Read a [`put_seq`] sequence. The count passed [`SnapReader::len`]; the
/// memory reserved up front is also capped at the bytes left, so a corrupt
/// count reserves no more than the payload's size, and the vector grows
/// past that only as items actually decode.
fn get_seq<T: Codec>(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapshotError> {
    let n = r.len()?;
    let mut items = Vec::with_capacity(n.min((r.buf.len() - r.pos) / size_of::<T>().max(1)));
    for _ in 0..n {
        items.push(r.get()?);
    }
    Ok(items)
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r).map(VecDeque::from)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_seq(w, self.iter());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r).map(BTreeSet::from_iter)
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&self.len());
        for (k, v) in self {
            w.put(k);
            w.put(v);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        get_seq(r).map(BTreeMap::from_iter)
    }
}

impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        for x in self {
            w.put(x);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = [T::default(); N];
        for x in &mut out {
            *x = r.get()?;
        }
        Ok(out)
    }
}

macro_rules! tuple_codec {
    ($(($($t:ident),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut SnapWriter) {
                let ($($t,)+) = self;
                $(w.put($t);)+
            }
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($(r.get::<$t>()?,)+))
            }
        }
    )*};
}

tuple_codec!((A, B)(A, B, C)(A, B, C, D));

struct_codec!(CpId { node, port });

struct_codec!(IntHop { qlen_bytes, tx_bytes, ts_ns, rate });

/// An INT stack: a one-byte hop count, then the hops.
fn put_hops(w: &mut SnapWriter, hops: &[IntHop]) {
    w.put(&(hops.len() as u8));
    for h in hops {
        w.put(h);
    }
}

/// See [`put_hops`].
impl Codec for IntStack {
    fn put(&self, w: &mut SnapWriter) {
        put_hops(w, self.hops());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get::<u8>()? as usize;
        if n > MAX_INT_HOPS {
            return Err(SnapshotError::Malformed("int stack length"));
        }
        let mut s = IntStack::new();
        for _ in 0..n {
            s.push(r.get()?);
        }
        Ok(s)
    }
}

tag_codec!(PacketKind {
    Data { seq, payload, last } = 0,
    Ack { cum_seq, ecn_echo, data_tx_time } = 1,
    Nack { expected_seq } = 2,
    RoccCnp { fair_rate_units, cp } = 3,
    RoccQueueReport { q_cur_units, f_max_units, cp } = 4,
    DcqcnCnp = 5,
    QcnFb { fb, cp } = 6,
    PfcPause = 7,
    PfcResume = 8,
});

/// One packet, as [`Packet`]'s codec and every slab slot write it: `flow`,
/// `src`, `dst`, `kind`, `ecn`, the INT stack, `sent_at`. The slab holds a
/// head and its hops apart, so it writes them here without building a
/// `Packet`.
pub(crate) fn put_packet(w: &mut SnapWriter, head: &PacketHead, hops: &[IntHop]) {
    w.put(&head.flow);
    w.put(&head.src);
    w.put(&head.dst);
    w.put(&head.kind);
    w.put(&head.ecn);
    put_hops(w, hops);
    w.put(&head.sent_at);
}

/// See [`put_packet`].
impl Codec for Packet {
    fn put(&self, w: &mut SnapWriter) {
        put_packet(w, &PacketHead::of(self), self.int.hops());
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Packet {
            flow: r.get()?,
            src: r.get()?,
            dst: r.get()?,
            kind: r.get()?,
            ecn: r.get()?,
            int: r.get()?,
            sent_at: r.get()?,
        })
    }
}

tag_codec!(FeedbackEvent {
    RoccCnp { fair_rate_units, cp } = 0,
    RoccQueueReport { q_cur_units, f_max_units, cp } = 1,
    DcqcnCnp = 2,
    QcnFb { fb, cp } = 3,
});

tag_codec!(FaultEvent {
    LinkDown(link) = 0,
    LinkUp(link) = 1,
    HostPause(node) = 2,
    HostCrash(node) = 3,
    HostRestore(node) = 4,
});

tag_codec!(Event {
    Arrive { link, pr } = 0,
    SwitchTxDone { node, port } = 1,
    // Tag 2, the host NIC's per-frame TX completion up to v5, is retired.
    HostWake { node } = 3,
    CpTimer { node, port } = 4,
    HostCcTimer { node, flow, token, gen } = 5,
    Feedback { node, flow, fb } = 6,
    FlowStart { idx } = 7,
    FlowStop { flow } = 8,
    Sample = 9,
    Fault(fault) = 10,
});

/// Frame serialized sections into the final snapshot byte stream, in
/// place: fill in the reserved header, append the section table, its
/// footer and the FNV trailer.
pub(crate) fn frame(
    seed: u64,
    config_digest: u64,
    now_ns: u64,
    events_processed: u64,
    sections: Sections,
) -> Vec<u8> {
    let mut table = Vec::new();
    for (name, payload) in sections.iter() {
        table.extend_from_slice(&(name.len() as u64).to_le_bytes());
        table.extend_from_slice(name.as_bytes());
        table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    let Sections { buf: mut out, starts } = sections;
    let table_at = (out.len() - HEADER_LEN) as u64;
    out.extend_from_slice(&table);
    out.extend_from_slice(&(starts.len() as u64).to_le_bytes());
    out.extend_from_slice(&table_at.to_le_bytes());
    let body_len = (out.len() - HEADER_LEN) as u64;
    out[..16].copy_from_slice(SNAPSHOT_MAGIC);
    let header = [seed, config_digest, now_ns, events_processed, body_len];
    for (slot, word) in out[16..HEADER_LEN].chunks_exact_mut(8).zip(header) {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    let digest = fnv1a_64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// One section of a validated snapshot: `(name, payload)`.
pub type Section<'a> = (&'a str, &'a [u8]);

/// Validate a snapshot (as [`inspect`] does) and split it into its header
/// and its sections in file order, decoding none of the payloads. The
/// FNV-1a-64 of a payload is that component's entry in
/// [`crate::engine::Sim::state_digest`].
pub fn sections(bytes: &[u8]) -> Result<(SnapshotInfo, Vec<Section<'_>>), SnapshotError> {
    let info = inspect(bytes)?;
    let body = &bytes[HEADER_LEN..bytes.len() - 8];
    let foot = body.len().checked_sub(16).ok_or(SnapshotError::Truncated)?;
    let mut footer = SnapReader::new(&body[foot..]);
    let (n, table_at) = (footer.word()?, footer.word()?);
    // A table entry is at least two length words: bound the count by the
    // table's bytes before allocating for it.
    if table_at > foot || n > (foot - table_at) / 16 {
        return Err(SnapshotError::Malformed("section table"));
    }
    let mut payloads = SnapReader::new(&body[..table_at]);
    let mut table = SnapReader::new(&body[table_at..foot]);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = table.word()?;
        let name = table.utf8(name_len)?;
        let len = table.word()?;
        out.push((name, payloads.take(len)?));
    }
    if !(table.exhausted() && payloads.exhausted()) {
        return Err(SnapshotError::Malformed("trailing bytes"));
    }
    Ok((info, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two sections, `a` = one `u64` (a one-byte varint) and `b` = `fill`.
    fn two_sections(fill: &[u8]) -> Sections {
        let mut w = SnapWriter::new();
        w.section("a");
        w.put(&7u64);
        w.section("b");
        for x in fill {
            w.put(x);
        }
        w.finish()
    }

    #[test]
    fn frame_roundtrip_and_inspect() {
        let bytes = frame(42, 0xabcd, 1000, 77, two_sections(&[1, 2, 3]));
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.seed, 42);
        assert_eq!(info.config_digest, 0xabcd);
        assert_eq!(info.now_ns, 1000);
        assert_eq!(info.events_processed, 77);
        // Payloads, two (name length, 1-byte name, payload length), footer.
        assert_eq!(info.body_len, 1 + 3 + 2 * 17 + 16);
        assert_eq!(
            sections(&bytes).unwrap().1,
            vec![("a", &[7u8][..]), ("b", &[1u8, 2, 3][..])]
        );
        // A payload longer than the table that describes it still splits.
        let big = vec![5u8; (1 << 20) + 1];
        let bytes = frame(1, 2, 3, 4, two_sections(&big));
        assert_eq!(sections(&bytes).unwrap().1[1], ("b", &big[..]));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = frame(1, 2, 3, 4, two_sections(&[9u8; 64]));
        assert!(inspect(&bytes).is_ok());
        bytes[HEADER_LEN + 10] ^= 0x40;
        assert!(matches!(
            inspect(&bytes),
            Err(SnapshotError::DigestMismatch { .. })
        ));
        // Truncation.
        let short = &bytes[..bytes.len() - 3];
        assert!(matches!(inspect(short), Err(SnapshotError::Truncated)));
        // Wrong magic — every older `rocc-snapshot` version included.
        for old_version in [b'1', b'2', b'3'] {
            let mut wrong = frame(1, 2, 3, 4, two_sections(&[]));
            wrong[15] = old_version;
            assert!(matches!(inspect(&wrong), Err(SnapshotError::BadMagic)));
        }
    }

    #[test]
    fn writer_reader_primitives_roundtrip() {
        let mut w = SnapWriter::new();
        w.put(&7u8);
        w.put(&true);
        w.put(&123456u32);
        w.put(&(u64::MAX - 1));
        w.put(&-1.5f64);
        w.put(&None::<u64>);
        w.put(&Some(9u64));
        w.put(&"hello".to_string());
        w.put(&vec![1u64, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 7);
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.get::<u32>().unwrap(), 123456);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX - 1);
        assert_eq!(r.get::<f64>().unwrap(), -1.5);
        assert_eq!(r.get::<Option<u64>>().unwrap(), None);
        assert_eq!(r.get::<Option<u64>>().unwrap(), Some(9));
        assert_eq!(r.get::<String>().unwrap(), "hello");
        assert_eq!(r.get::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert!(r.exhausted());
        assert!(matches!(r.get::<u8>(), Err(SnapshotError::Truncated)));
    }

    /// `x`'s bytes.
    fn encode<T: Codec>(x: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(x);
        w.into_bytes()
    }

    /// Decode one `T` from the whole of `bytes`.
    fn decode<T: Codec>(bytes: &[u8]) -> Result<T, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let v = r.get()?;
        assert!(r.exhausted(), "decode left bytes over");
        Ok(v)
    }

    /// `x` survives `put` then `get`, which consumes exactly what `put`
    /// wrote.
    fn roundtrips<T: Codec + PartialEq + fmt::Debug>(x: T) {
        prop_assert_eq!(decode::<T>(&encode(&x)), Ok(x));
    }

    /// If `get` accepts a prefix of `bytes` as a `T`, that value encodes
    /// to exactly the bytes it consumed.
    fn reencodes<T: Codec>(bytes: &[u8]) {
        let mut r = SnapReader::new(bytes);
        if let Ok(v) = r.get::<T>() {
            prop_assert_eq!(&encode(&v)[..], &bytes[..r.pos]);
        }
    }

    /// The integer rule: each value takes the fewest seven-bit groups.
    #[test]
    fn varints_roundtrip_at_group_edges() {
        for (x, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX.into(), 5),
            (u64::MAX, 10),
        ] {
            let bytes = encode(&x);
            assert_eq!(bytes.len(), len, "{x}");
            assert_eq!(decode::<u64>(&bytes), Ok(x));
            assert_eq!(encode(&(x as usize)), bytes);
            if let Ok(narrow) = u32::try_from(x) {
                assert_eq!(encode(&narrow), bytes);
                assert_eq!(decode::<u32>(&bytes), Ok(narrow));
            }
        }
        assert_eq!(encode(&300u64), [0xac, 0x02]);
    }

    /// Every byte string the integer rule does not write is refused.
    #[test]
    fn varints_refuse_what_put_never_writes() {
        use SnapshotError::{Malformed, Truncated};
        assert_eq!(decode::<u64>(&[0x80, 0x00]), Err(Malformed("overlong varint")));
        assert_eq!(decode::<u64>(&[0xff, 0x80, 0x00]), Err(Malformed("overlong varint")));
        assert_eq!(decode::<u64>(&[0xff; 11]), Err(Malformed("varint too wide")));
        let over_u64 = [&[0xff; 9][..], &[0x02]].concat();
        assert_eq!(decode::<u64>(&over_u64), Err(Malformed("varint too wide")));
        let over_u32 = encode(&(u64::from(u32::MAX) + 1));
        assert_eq!(decode::<u32>(&over_u32), Err(Malformed("varint too wide")));
        assert_eq!(decode::<u64>(&[0x80]), Err(Truncated));
        assert_eq!(decode::<u32>(&[0xff, 0xff]), Err(Truncated));
        assert_eq!(decode::<u64>(&[]), Err(Truncated));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every container impl, alone and nested, on arbitrary contents.
        #[test]
        fn container_codecs_roundtrip(
            words in proptest::collection::vec(0u64..=u64::MAX, 0..24),
            small in proptest::collection::vec(0u8..4, 0..24),
        ) {
            let opts: Vec<Option<u64>> =
                words.iter().zip(&small).map(|(&w, &s)| (s != 0).then_some(w)).collect();
            let pairs: Vec<(u8, u64)> = small.iter().copied().zip(words.iter().copied()).collect();
            let text: String = small.iter().map(|&s| ['a', 'é', '→', '0'][s as usize]).collect();
            roundtrips(words.clone());
            roundtrips(opts.clone());
            roundtrips(opts.first().copied().flatten());
            roundtrips(words.iter().copied().collect::<VecDeque<u64>>());
            roundtrips(words.iter().copied().collect::<BTreeSet<u64>>());
            roundtrips(pairs.iter().copied().collect::<BTreeMap<u8, u64>>());
            roundtrips(text.clone());
            roundtrips(vec![Some(text), None]);
            roundtrips(pairs.iter().map(|&(s, w)| (s, w as f64, s != 0)).collect::<Vec<_>>());
            let quads = pairs.iter().map(|&(s, w)| (s, w, w as u32, SimTime::from_nanos(w)));
            roundtrips(quads.collect::<Vec<_>>());
            roundtrips(pairs.clone());
            roundtrips([words.len() as u64, small.len() as u64, 7]);
            roundtrips(vec![words, Vec::new()]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Whatever `get` accepts re-encodes to the bytes it consumed:
        /// one encoding per value, so equal states are equal bytes. Half
        /// the bytes are drawn from the edges of the rule (zero, the
        /// continuation bit, the top group of a `u64`).
        #[test]
        fn accepted_bytes_reencode_exactly(
            drawn in proptest::collection::vec((0u8..=255, 0usize..14), 0..24),
        ) {
            const EDGES: [u8; 7] = [0x00, 0x01, 0x02, 0x7f, 0x80, 0x81, 0xff];
            let bytes: Vec<u8> =
                drawn.iter().map(|&(b, k)| EDGES.get(k).copied().unwrap_or(b)).collect();
            reencodes::<u64>(&bytes);
            reencodes::<u32>(&bytes);
            reencodes::<SimTime>(&bytes);
            reencodes::<Event>(&bytes);
            reencodes::<crate::telemetry::SimEvent>(&bytes);
        }
    }

    /// Bytes no `put` writes are refused with a typed error: a bad option
    /// tag, bool or enum tag, a count larger than the bytes behind it, a
    /// value cut short, an INT stack deeper than a packet can carry. Every
    /// enum with fields refuses its first unused tag, and its tag 0 cut
    /// off inside the variant's first field (mid-varint).
    #[test]
    fn malformed_bytes_are_typed_errors() {
        use crate::telemetry::SimEvent;
        use SnapshotError::{Malformed, Truncated};
        fn refuses<T: Codec>(unused_tag: u8) {
            assert_eq!(decode::<T>(&[unused_tag]).err(), Some(Malformed("enum tag")));
            assert_eq!(decode::<T>(&[0, 0x81, 0x82]).err(), Some(Truncated));
        }
        refuses::<PacketKind>(9);
        refuses::<FeedbackEvent>(4);
        refuses::<FaultEvent>(5);
        refuses::<Event>(11);
        refuses::<Event>(2); // retired, never reused
        refuses::<SimEvent>(8);
        assert_eq!(decode::<Option<u64>>(&[2]), Err(Malformed("option tag")));
        assert_eq!(decode::<bool>(&[2]), Err(Malformed("bool")));
        assert_eq!(
            decode::<crate::telemetry::DropCause>(&[6]),
            Err(Malformed("enum tag"))
        );
        let nine_of_eight = [9, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(decode::<Vec<u8>>(&nine_of_eight), Err(Malformed("length prefix")));
        assert_eq!(decode::<String>(&encode(&u64::MAX)), Err(Malformed("length prefix")));
        assert_eq!(decode::<u64>(&[0x81, 0x82]), Err(Truncated));
        assert_eq!(decode::<(u64, u32)>(&[0, 0xff]), Err(Truncated));
        let too_deep = [MAX_INT_HOPS as u8 + 1];
        assert_eq!(decode::<IntStack>(&too_deep), Err(Malformed("int stack length")));
        let not_utf8 = [1, 0xff];
        assert_eq!(decode::<String>(&not_utf8), Err(Malformed("utf8 string")));
    }

    #[test]
    fn packet_and_event_codecs_roundtrip() {
        let mut int = IntStack::new();
        int.push(IntHop {
            qlen_bytes: 11,
            tx_bytes: 22,
            ts_ns: 33,
            rate: BitRate::from_bps(44),
        });
        let p = Packet {
            flow: FlowId(5),
            src: NodeId(1),
            dst: NodeId(2),
            kind: PacketKind::Ack {
                cum_seq: 4096,
                ecn_echo: true,
                data_tx_time: SimTime::from_nanos(777),
            },
            ecn: false,
            int,
            sent_at: SimTime::from_nanos(999),
        };
        let fb = FeedbackEvent::RoccCnp {
            fair_rate_units: 200,
            cp: CpId {
                node: NodeId(4),
                port: PortId(1),
            },
        };
        let mut w = SnapWriter::new();
        w.put(&p);
        w.put(&Event::Feedback {
            node: NodeId(3),
            flow: FlowId(8),
            fb,
        });
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get::<Packet>().unwrap(), p);
        match r.get::<Event>().unwrap() {
            Event::Feedback {
                node,
                flow,
                fb: got,
            } => {
                assert_eq!((node, flow, got), (NodeId(3), FlowId(8), fb));
            }
            other => panic!("wrong event: {other:?}"),
        }
        assert!(r.exhausted());
    }

    /// `value` encodes to exactly the bytes `hex` spells, and those bytes
    /// decode — consumed exactly — to a value that encodes to them again.
    fn vector<T: Codec>(value: &T, hex: &str) {
        let mut w = SnapWriter::new();
        value.put(&mut w);
        let bytes = w.into_bytes();
        let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(got, hex, "encoding moved");
        let mut r = SnapReader::new(&bytes);
        let back = T::get(&mut r).expect("pinned bytes decode");
        assert!(r.exhausted(), "decode of {hex} left bytes over");
        let mut again = SnapWriter::new();
        back.put(&mut again);
        assert_eq!(
            again.into_bytes(),
            bytes,
            "decode of {hex} re-encodes differently"
        );
    }

    /// One hand-built value per variant of every enum a snapshot encodes,
    /// with its `rocc-snapshot/v8` bytes. Variants no pinned run reaches
    /// (verdicts, pause edges, host crashes, CC timer tokens) are held
    /// here. Field values are distinct small numbers so a dump is legible:
    /// ids and other integers are one-byte varints, tags one byte, `f64`s
    /// their IEEE bits.
    #[test]
    fn wire_vectors_are_pinned() {
        use crate::telemetry::{
            CpDecisionKind, DropCause, RpTransitionKind, SimEvent, VerdictKind,
        };
        let cp = CpId { node: NodeId(0x0a), port: PortId(0x0b) };
        let t = SimTime::from_nanos(0x0c);
        let mut int = IntStack::new();
        int.push(IntHop {
            qlen_bytes: 0x11,
            tx_bytes: 0x12,
            ts_ns: 0x13,
            rate: BitRate::from_bps(0x14),
        });
        let pkt = |kind, int| Packet {
            flow: FlowId(0x01),
            src: NodeId(0x02),
            dst: NodeId(0x03),
            kind,
            ecn: true,
            int,
            sent_at: SimTime::from_nanos(0x04),
        };

        // Packet, one per `PacketKind`; INT stacks empty and one hop deep.
        vector(&pkt(PacketKind::Data { seq: 0x05, payload: 0x06, last: true }, int), "0102030005060101011112131404");
        vector(
            &pkt(
                PacketKind::Ack { cum_seq: 0x05, ecn_echo: true, data_tx_time: t },
                int,
            ),
            "0102030105010c01011112131404",
        );
        vector(&pkt(PacketKind::Nack { expected_seq: 0x05 }, IntStack::new()), "0102030205010004");
        vector(&pkt(PacketKind::RoccCnp { fair_rate_units: 0x07, cp }, IntStack::new()), "01020303070a0b010004");
        vector(
            &pkt(
                PacketKind::RoccQueueReport { q_cur_units: 0x07, f_max_units: 0x08, cp },
                IntStack::new(),
            ),
            "0102030407080a0b010004",
        );
        vector(&pkt(PacketKind::DcqcnCnp, IntStack::new()), "01020305010004");
        vector(&pkt(PacketKind::QcnFb { fb: 0x09, cp }, IntStack::new()), "01020306090a0b010004");
        vector(&pkt(PacketKind::PfcPause, IntStack::new()), "01020307010004");
        vector(&pkt(PacketKind::PfcResume, IntStack::new()), "01020308010004");

        // Event, one per variant; `Feedback` once per `FeedbackEvent` and
        // `Fault` once per `FaultEvent`.
        let (node, flow) = (NodeId(0x21), FlowId(0x22));
        vector(&Event::Arrive { link: LinkId(0x23), pr: PacketRef::from_index(0x24) }, "002324");
        vector(&Event::SwitchTxDone { node, port: PortId(0x25) }, "012125");
        vector(&Event::HostWake { node }, "0321");
        vector(&Event::CpTimer { node, port: PortId(0x25) }, "042125");
        vector(&Event::HostCcTimer { node, flow, token: 0x26, gen: 0x27 }, "0521222627");
        for (fb, hex) in [
            (FeedbackEvent::RoccCnp { fair_rate_units: 0x28, cp }, "06212200280a0b"),
            (FeedbackEvent::RoccQueueReport { q_cur_units: 0x28, f_max_units: 0x29, cp }, "0621220128290a0b"),
            (FeedbackEvent::DcqcnCnp, "06212202"),
            (FeedbackEvent::QcnFb { fb: 0x2a, cp }, "062122032a0a0b"),
        ] {
            vector(&Event::Feedback { node, flow, fb }, hex);
        }
        vector(&Event::FlowStart { idx: 0x2b }, "072b");
        vector(&Event::FlowStop { flow }, "0822");
        vector(&Event::Sample, "09");
        for (fe, hex) in [
            (FaultEvent::LinkDown(LinkId(0x2c)), "0a002c"),
            (FaultEvent::LinkUp(LinkId(0x2c)), "0a012c"),
            (FaultEvent::HostPause(NodeId(0x2d)), "0a022d"),
            (FaultEvent::HostCrash(NodeId(0x2d)), "0a032d"),
            (FaultEvent::HostRestore(NodeId(0x2d)), "0a042d"),
        ] {
            vector(&Event::Fault(fe), hex);
        }

        // SimEvent, one per variant and per value of each kind enum.
        for (cause, hex) in [
            (DropCause::Congestion, "000c212200"),
            (DropCause::Unroutable, "000c212201"),
            (DropCause::FaultLoss, "000c212202"),
            (DropCause::FaultCorrupt, "000c212203"),
            (DropCause::LinkDown, "000c212204"),
            (DropCause::HostDown, "000c212205"),
        ] {
            vector(&SimEvent::Drop { t, node, flow, cause }, hex);
        }
        vector(&SimEvent::Pfc { t, node, port: PortId(0x31), pause: true }, "010c213101");
        vector(&SimEvent::CnpEmit { t, cp, flow, fair_rate_units: 0x32 }, "020c0a0b2232");
        for (kind, hex) in [
            (CpDecisionKind::MdToMin, "030c0a0b0033000000000000e03f00000000000000403435"),
            (CpDecisionKind::MdHalve, "030c0a0b0133000000000000e03f00000000000000403435"),
            (CpDecisionKind::Pi, "030c0a0b0233000000000000e03f00000000000000403435"),
        ] {
            let ev = SimEvent::CpDecision {
                t,
                cp,
                kind,
                fair_rate_units: 0x33,
                alpha: 0.5,
                beta: 2.0,
                region: 0x34,
                qlen_bytes: 0x35,
            };
            vector(&ev, hex);
        }
        for (kind, cp, hex) in [
            (RpTransitionKind::Install, Some(cp), "040c21220036010a0b"),
            (RpTransitionKind::RateUpdate, Some(cp), "040c21220136010a0b"),
            (RpTransitionKind::CpSwitch, Some(cp), "040c21220236010a0b"),
            (RpTransitionKind::RecoveryDouble, Some(cp), "040c21220336010a0b"),
            (RpTransitionKind::Uninstall, None, "040c2122043600"),
        ] {
            vector(&SimEvent::RpTransition { t, node, flow, kind, rate_bps: 0x36, cp }, hex);
        }
        vector(&SimEvent::Fault { t, fault: FaultEvent::HostCrash(NodeId(0x2d)) }, "050c032d");
        let to = CpId { node: NodeId(0x37), port: PortId(0x38) };
        vector(&SimEvent::PauseEdge { t, from: cp, to }, "060c0a0b3738");
        for (kind, hex) in [
            (VerdictKind::PfcDeadlock, "070c0039"),
            (VerdictKind::InvariantViolation, "070c0139"),
            (VerdictKind::DeadlineExceeded, "070c0239"),
            (VerdictKind::Drained, "070c0339"),
            (VerdictKind::BudgetExhausted, "070c0439"),
            (VerdictKind::Stalled, "070c0539"),
            (VerdictKind::WallClockExceeded, "070c0639"),
        ] {
            vector(&SimEvent::Verdict { t, kind, cycle_len: 0x39 }, hex);
        }
    }
}
