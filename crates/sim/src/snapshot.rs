//! Deterministic mid-run snapshot/restore: the `rocc-snapshot/v4` format.
//!
//! A snapshot captures the complete *dynamic* state of a [`crate::engine::Sim`]
//! — scheduler heap, packet slab, switch queues and PFC state, host
//! send/recv and RP state, CP fair-rate calculators, fault cursors, budget
//! counters, and telemetry/observatory/sanitizer accumulators — such that
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
//! (node counts, watch-list lengths) during decode.
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
//! written into becomes the snapshot in place, without a copy.)
//! Corruption of any byte is caught by the trailer before any state is
//! applied. There is no reader for older versions (snapshots are ephemeral
//! checkpoints): v4 differs from v3 only in two sections, where `kernel`
//! lost the schedule-clamp count and timestamp (a schedule behind the
//! clock now panics) and `run` the three profile-window anchors. The
//! per-subsystem state digests of
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
pub const SNAPSHOT_MAGIC: &[u8; 16] = b"rocc-snapshot/v4";

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

    /// Append a string: its `u64` byte length, then its UTF-8 bytes.
    pub(crate) fn str(&mut self, s: &str) {
        self.put(&s.len());
        self.buf.extend_from_slice(s.as_bytes());
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

    /// A string [`SnapWriter::str`] wrote, borrowed from the buffer.
    pub(crate) fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.len()?;
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
/// The rules, stated here and nowhere else: integers are little-endian at
/// their own width, and `usize` (so every id) is a `u64`; `bool` is one
/// byte, 0 or 1; `f64` is its IEEE-754 bits; `Option` is a one-byte tag,
/// 0 or 1, then the value; `String`, `Vec`, `VecDeque`, `BTreeMap` and
/// `BTreeSet` are a `u64` length then their items, maps and sets in key
/// order; arrays and tuples are their items with no prefix; an enum is a
/// one-byte tag then its variant's fields. There is deliberately no impl
/// for hash maps: their iteration order must not reach the bytes, so a
/// caller writes one as its [`sorted`] entries.
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

le_codec!(u8, u32, u64, u128);

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

impl Codec for usize {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&(*self as u64));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        usize::try_from(r.get::<u64>()?).map_err(|_| SnapshotError::Malformed("usize"))
    }
}

impl Codec for String {
    fn put(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.str().map(str::to_owned)
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
    f64: u64, |x| x.to_bits(), f64::from_bits;
    SimTime: u64, |t| t.as_nanos(), SimTime::from_nanos;
    SimDuration: u64, |d| d.as_nanos(), SimDuration::from_nanos;
    BitRate: u64, |b| b.as_bps(), BitRate::from_bps;
    NodeId: usize, |n| n.0, NodeId;
    PortId: usize, |p| p.0, PortId;
    LinkId: usize, |l| l.0, LinkId;
    FlowId: u64, |f| f.0, FlowId;
    PacketRef: u32, |p| p.index(), PacketRef::from_index;
}

/// [`Codec`] for a field-less enum: one tag byte, each variant's tag
/// listed once.
macro_rules! tag_codec {
    ($t:ident { $($v:ident = $tag:literal),+ $(,)? }) => {
        impl $crate::snapshot::Codec for $t {
            fn put(&self, w: &mut $crate::snapshot::SnapWriter) {
                let tag: u8 = match self {
                    $($t::$v => $tag,)+
                };
                w.put(&tag);
            }
            fn get(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match r.get::<u8>()? {
                    $($tag => Ok($t::$v),)+
                    _ => Err($crate::snapshot::SnapshotError::Malformed("enum tag")),
                }
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

impl Codec for PacketKind {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            PacketKind::Data { seq, payload, last } => {
                w.put(&0u8);
                w.put(seq);
                w.put(payload);
                w.put(last);
            }
            PacketKind::Ack {
                cum_seq,
                ecn_echo,
                data_tx_time,
            } => {
                w.put(&1u8);
                w.put(cum_seq);
                w.put(ecn_echo);
                w.put(data_tx_time);
            }
            PacketKind::Nack { expected_seq } => {
                w.put(&2u8);
                w.put(expected_seq);
            }
            PacketKind::RoccCnp {
                fair_rate_units,
                cp,
            } => {
                w.put(&3u8);
                w.put(fair_rate_units);
                w.put(cp);
            }
            PacketKind::RoccQueueReport {
                q_cur_units,
                f_max_units,
                cp,
            } => {
                w.put(&4u8);
                w.put(q_cur_units);
                w.put(f_max_units);
                w.put(cp);
            }
            PacketKind::DcqcnCnp => w.put(&5u8),
            PacketKind::QcnFb { fb, cp } => {
                w.put(&6u8);
                w.put(fb);
                w.put(cp);
            }
            PacketKind::PfcPause => w.put(&7u8),
            PacketKind::PfcResume => w.put(&8u8),
        }
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get::<u8>()? {
            0 => PacketKind::Data {
                seq: r.get()?,
                payload: r.get()?,
                last: r.get()?,
            },
            1 => PacketKind::Ack {
                cum_seq: r.get()?,
                ecn_echo: r.get()?,
                data_tx_time: r.get()?,
            },
            2 => PacketKind::Nack {
                expected_seq: r.get()?,
            },
            3 => PacketKind::RoccCnp {
                fair_rate_units: r.get()?,
                cp: r.get()?,
            },
            4 => PacketKind::RoccQueueReport {
                q_cur_units: r.get()?,
                f_max_units: r.get()?,
                cp: r.get()?,
            },
            5 => PacketKind::DcqcnCnp,
            6 => PacketKind::QcnFb {
                fb: r.get()?,
                cp: r.get()?,
            },
            7 => PacketKind::PfcPause,
            8 => PacketKind::PfcResume,
            _ => return Err(SnapshotError::Malformed("enum tag")),
        })
    }
}

/// One packet, as [`Packet`]'s codec and every slab slot write it: `flow`,
/// `src`, `dst`, `kind`, `ecn`, the INT stack, `sent_at` — except that an
/// ACK's stack follows its kind's fields, where `PacketKind::Ack` carried
/// the echoed stack when `rocc-snapshot/v4` was pinned, and an empty stack
/// follows its `ecn`.
pub(crate) fn put_packet(w: &mut SnapWriter, head: &PacketHead, hops: &[IntHop]) {
    let is_ack = matches!(head.kind, PacketKind::Ack { .. });
    w.put(&head.flow);
    w.put(&head.src);
    w.put(&head.dst);
    w.put(&head.kind);
    if is_ack {
        put_hops(w, hops);
    }
    w.put(&head.ecn);
    put_hops(w, if is_ack { &[] } else { hops });
    w.put(&head.sent_at);
}

/// See [`put_packet`].
impl Codec for Packet {
    fn put(&self, w: &mut SnapWriter) {
        put_packet(w, &PacketHead::of(self), self.int.hops());
    }
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let (flow, src, dst, kind) = r.get()?;
        let is_ack = matches!(kind, PacketKind::Ack { .. });
        let echoed: Option<IntStack> = if is_ack { Some(r.get()?) } else { None };
        let ecn = r.get()?;
        let int: IntStack = r.get()?;
        if is_ack && !int.is_empty() {
            return Err(SnapshotError::Malformed("ack int stack"));
        }
        Ok(Packet {
            flow,
            src,
            dst,
            kind,
            ecn,
            int: echoed.unwrap_or(int),
            sent_at: r.get()?,
        })
    }
}

impl Codec for FeedbackEvent {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            FeedbackEvent::RoccCnp {
                fair_rate_units,
                cp,
            } => {
                w.put(&0u8);
                w.put(fair_rate_units);
                w.put(cp);
            }
            FeedbackEvent::RoccQueueReport {
                q_cur_units,
                f_max_units,
                cp,
            } => {
                w.put(&1u8);
                w.put(q_cur_units);
                w.put(f_max_units);
                w.put(cp);
            }
            FeedbackEvent::DcqcnCnp => w.put(&2u8),
            FeedbackEvent::QcnFb { fb, cp } => {
                w.put(&3u8);
                w.put(fb);
                w.put(cp);
            }
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get::<u8>()? {
            0 => FeedbackEvent::RoccCnp {
                fair_rate_units: r.get()?,
                cp: r.get()?,
            },
            1 => FeedbackEvent::RoccQueueReport {
                q_cur_units: r.get()?,
                f_max_units: r.get()?,
                cp: r.get()?,
            },
            2 => FeedbackEvent::DcqcnCnp,
            3 => FeedbackEvent::QcnFb {
                fb: r.get()?,
                cp: r.get()?,
            },
            _ => return Err(SnapshotError::Malformed("enum tag")),
        })
    }
}

impl Codec for FaultEvent {
    fn put(&self, w: &mut SnapWriter) {
        let (tag, id) = match *self {
            FaultEvent::LinkDown(l) => (0u8, l.0),
            FaultEvent::LinkUp(l) => (1, l.0),
            FaultEvent::HostPause(n) => (2, n.0),
            FaultEvent::HostCrash(n) => (3, n.0),
            FaultEvent::HostRestore(n) => (4, n.0),
        };
        w.put(&(tag, id));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get::<u8>()? {
            0 => FaultEvent::LinkDown(r.get()?),
            1 => FaultEvent::LinkUp(r.get()?),
            2 => FaultEvent::HostPause(r.get()?),
            3 => FaultEvent::HostCrash(r.get()?),
            4 => FaultEvent::HostRestore(r.get()?),
            _ => return Err(SnapshotError::Malformed("enum tag")),
        })
    }
}

impl Codec for Event {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Event::Arrive { link, pr } => {
                w.put(&0u8);
                w.put(link);
                w.put(pr);
            }
            Event::SwitchTxDone { node, port } => {
                w.put(&1u8);
                w.put(node);
                w.put(port);
            }
            Event::HostTxDone { node } => {
                w.put(&2u8);
                w.put(node);
            }
            Event::HostWake { node } => {
                w.put(&3u8);
                w.put(node);
            }
            Event::CpTimer { node, port } => {
                w.put(&4u8);
                w.put(node);
                w.put(port);
            }
            Event::HostCcTimer {
                node,
                flow,
                token,
                gen,
            } => {
                w.put(&5u8);
                w.put(node);
                w.put(flow);
                w.put(token);
                w.put(gen);
            }
            Event::Feedback { node, flow, fb } => {
                w.put(&6u8);
                w.put(node);
                w.put(flow);
                w.put(fb);
            }
            Event::FlowStart { idx } => {
                w.put(&7u8);
                w.put(idx);
            }
            Event::FlowStop { flow } => {
                w.put(&8u8);
                w.put(flow);
            }
            Event::Sample => w.put(&9u8),
            Event::Fault(fe) => {
                w.put(&10u8);
                w.put(fe);
            }
        }
    }
    // Trait methods get external linkage, so LLVM will not inline this
    // into the one restore loop that calls it on its own; out of line it
    // cost ~8 ns per queued event (+7 % restore on the FB_Hadoop probe),
    // as `PacketKind::get` did for the slab.
    #[inline]
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get::<u8>()? {
            0 => Event::Arrive {
                link: r.get()?,
                pr: r.get()?,
            },
            1 => Event::SwitchTxDone {
                node: r.get()?,
                port: r.get()?,
            },
            2 => Event::HostTxDone { node: r.get()? },
            3 => Event::HostWake { node: r.get()? },
            4 => Event::CpTimer {
                node: r.get()?,
                port: r.get()?,
            },
            5 => Event::HostCcTimer {
                node: r.get()?,
                flow: r.get()?,
                token: r.get()?,
                gen: r.get()?,
            },
            6 => Event::Feedback {
                node: r.get()?,
                flow: r.get()?,
                fb: r.get()?,
            },
            7 => Event::FlowStart { idx: r.get()? },
            8 => Event::FlowStop { flow: r.get()? },
            9 => Event::Sample,
            10 => Event::Fault(r.get()?),
            _ => return Err(SnapshotError::Malformed("enum tag")),
        })
    }
}

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
    let (n, table_at): (usize, usize) = footer.get()?;
    // A table entry is at least two length words: bound the count by the
    // table's bytes before allocating for it.
    if table_at > foot || n > (foot - table_at) / 16 {
        return Err(SnapshotError::Malformed("section table"));
    }
    let mut payloads = SnapReader::new(&body[..table_at]);
    let mut table = SnapReader::new(&body[table_at..foot]);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (name, len) = (table.str()?, table.get()?);
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

    /// Two sections, `a` = one u64 word and `b` = `fill` repeated.
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
        assert_eq!(info.body_len, 8 + 3 + 2 * 17 + 16);
        assert_eq!(
            sections(&bytes).unwrap().1,
            vec![("a", &7u64.to_le_bytes()[..]), ("b", &[1u8, 2, 3][..])]
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
        w.put(&(1u128 << 100));
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
        assert_eq!(r.get::<u128>().unwrap(), 1 << 100);
        assert_eq!(r.get::<f64>().unwrap(), -1.5);
        assert_eq!(r.get::<Option<u64>>().unwrap(), None);
        assert_eq!(r.get::<Option<u64>>().unwrap(), Some(9));
        assert_eq!(r.get::<String>().unwrap(), "hello");
        assert_eq!(r.get::<Vec<u64>>().unwrap(), vec![1, 2, 3]);
        assert!(r.exhausted());
        assert!(matches!(r.get::<u8>(), Err(SnapshotError::Truncated)));
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
        let mut w = SnapWriter::new();
        w.put(&x);
        prop_assert_eq!(decode::<T>(&w.into_bytes()), Ok(x));
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

    /// Bytes no `put` writes are refused with a typed error: a bad option
    /// tag, bool or enum tag, a count larger than the bytes behind it, a
    /// value cut short, an INT stack deeper than a packet can carry, an
    /// ACK with hops in the stack after `ecn` (its hops ride after its
    /// kind).
    #[test]
    fn malformed_bytes_are_typed_errors() {
        use SnapshotError::{Malformed, Truncated};
        assert_eq!(decode::<Option<u64>>(&[2]), Err(Malformed("option tag")));
        assert_eq!(decode::<bool>(&[2]), Err(Malformed("bool")));
        assert_eq!(decode::<Event>(&[11]).err(), Some(Malformed("enum tag")));
        assert_eq!(
            decode::<crate::telemetry::DropCause>(&[6]),
            Err(Malformed("enum tag"))
        );
        let nine_of_eight = [&9u64.to_le_bytes()[..], &[0; 8]].concat();
        assert_eq!(decode::<Vec<u8>>(&nine_of_eight), Err(Malformed("length prefix")));
        assert_eq!(decode::<String>(&u64::MAX.to_le_bytes()), Err(Malformed("length prefix")));
        assert_eq!(decode::<u64>(&[1, 2, 3]), Err(Truncated));
        assert_eq!(decode::<(u64, u32)>(&[0; 11]), Err(Truncated));
        let too_deep = [MAX_INT_HOPS as u8 + 1];
        assert_eq!(decode::<IntStack>(&too_deep), Err(Malformed("int stack length")));
        let mut one_hop = IntStack::new();
        one_hop.push(IntHop::default());
        let mut ack_hops_after_ecn = SnapWriter::new();
        ack_hops_after_ecn.put(&(FlowId(1), NodeId(2), NodeId(3)));
        ack_hops_after_ecn.put(&PacketKind::Ack {
            cum_seq: 5,
            ecn_echo: false,
            data_tx_time: SimTime::ZERO,
        });
        ack_hops_after_ecn.put(&IntStack::new());
        ack_hops_after_ecn.put(&false);
        ack_hops_after_ecn.put(&one_hop);
        ack_hops_after_ecn.put(&SimTime::ZERO);
        assert_eq!(
            decode::<Packet>(&ack_hops_after_ecn.into_bytes()),
            Err(Malformed("ack int stack"))
        );
        let not_utf8 = [&1u64.to_le_bytes()[..], &[0xff]].concat();
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
    /// with its `rocc-snapshot/v4` bytes. Variants no pinned run reaches
    /// (verdicts, pause edges, host crashes, CC timer tokens) are held
    /// here. Field values are distinct small numbers so a dump is legible:
    /// ids are u64 little-endian, tags one byte, `f64`s their IEEE bits.
    #[test]
    fn wire_vectors_are_pinned() {
        use crate::metrics::MetricRow;
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
        vector(&pkt(PacketKind::Data { seq: 0x05, payload: 0x06, last: true }, int), "010000000000000002000000000000000300000000000000000500000000000000060000000000000001010111000000000000001200000000000000130000000000000014000000000000000400000000000000");
        vector(
            &pkt(
                PacketKind::Ack { cum_seq: 0x05, ecn_echo: true, data_tx_time: t },
                int,
            ),
            "010000000000000002000000000000000300000000000000010500000000000000010c0000000000000001110000000000000012000000000000001300000000000000140000000000000001000400000000000000",
        );
        vector(&pkt(PacketKind::Nack { expected_seq: 0x05 }, IntStack::new()), "01000000000000000200000000000000030000000000000002050000000000000001000400000000000000");
        vector(&pkt(PacketKind::RoccCnp { fair_rate_units: 0x07, cp }, IntStack::new()), "01000000000000000200000000000000030000000000000003070000000a000000000000000b0000000000000001000400000000000000");
        vector(
            &pkt(
                PacketKind::RoccQueueReport { q_cur_units: 0x07, f_max_units: 0x08, cp },
                IntStack::new(),
            ),
            "0100000000000000020000000000000003000000000000000407000000080000000a000000000000000b0000000000000001000400000000000000",
        );
        vector(&pkt(PacketKind::DcqcnCnp, IntStack::new()), "0100000000000000020000000000000003000000000000000501000400000000000000");
        vector(&pkt(PacketKind::QcnFb { fb: 0x09, cp }, IntStack::new()), "01000000000000000200000000000000030000000000000006090a000000000000000b0000000000000001000400000000000000");
        vector(&pkt(PacketKind::PfcPause, IntStack::new()), "0100000000000000020000000000000003000000000000000701000400000000000000");
        vector(&pkt(PacketKind::PfcResume, IntStack::new()), "0100000000000000020000000000000003000000000000000801000400000000000000");

        // Event, one per variant; `Feedback` once per `FeedbackEvent` and
        // `Fault` once per `FaultEvent`.
        let (node, flow) = (NodeId(0x21), FlowId(0x22));
        vector(&Event::Arrive { link: LinkId(0x23), pr: PacketRef::from_index(0x24) }, "00230000000000000024000000");
        vector(&Event::SwitchTxDone { node, port: PortId(0x25) }, "0121000000000000002500000000000000");
        vector(&Event::HostTxDone { node }, "022100000000000000");
        vector(&Event::HostWake { node }, "032100000000000000");
        vector(&Event::CpTimer { node, port: PortId(0x25) }, "0421000000000000002500000000000000");
        vector(&Event::HostCcTimer { node, flow, token: 0x26, gen: 0x27 }, "0521000000000000002200000000000000262700000000000000");
        for (fb, hex) in [
            (FeedbackEvent::RoccCnp { fair_rate_units: 0x28, cp }, "062100000000000000220000000000000000280000000a000000000000000b00000000000000"),
            (FeedbackEvent::RoccQueueReport { q_cur_units: 0x28, f_max_units: 0x29, cp }, "06210000000000000022000000000000000128000000290000000a000000000000000b00000000000000"),
            (FeedbackEvent::DcqcnCnp, "062100000000000000220000000000000002"),
            (FeedbackEvent::QcnFb { fb: 0x2a, cp }, "0621000000000000002200000000000000032a0a000000000000000b00000000000000"),
        ] {
            vector(&Event::Feedback { node, flow, fb }, hex);
        }
        vector(&Event::FlowStart { idx: 0x2b }, "072b00000000000000");
        vector(&Event::FlowStop { flow }, "082200000000000000");
        vector(&Event::Sample, "09");
        for (fe, hex) in [
            (FaultEvent::LinkDown(LinkId(0x2c)), "0a002c00000000000000"),
            (FaultEvent::LinkUp(LinkId(0x2c)), "0a012c00000000000000"),
            (FaultEvent::HostPause(NodeId(0x2d)), "0a022d00000000000000"),
            (FaultEvent::HostCrash(NodeId(0x2d)), "0a032d00000000000000"),
            (FaultEvent::HostRestore(NodeId(0x2d)), "0a042d00000000000000"),
        ] {
            vector(&Event::Fault(fe), hex);
        }

        // SimEvent, one per variant and per value of each kind enum.
        for (cause, hex) in [
            (DropCause::Congestion, "000c000000000000002100000000000000220000000000000000"),
            (DropCause::Unroutable, "000c000000000000002100000000000000220000000000000001"),
            (DropCause::FaultLoss, "000c000000000000002100000000000000220000000000000002"),
            (DropCause::FaultCorrupt, "000c000000000000002100000000000000220000000000000003"),
            (DropCause::LinkDown, "000c000000000000002100000000000000220000000000000004"),
            (DropCause::HostDown, "000c000000000000002100000000000000220000000000000005"),
        ] {
            vector(&SimEvent::Drop { t, node, flow, cause }, hex);
        }
        vector(&SimEvent::Pfc { t, node, port: PortId(0x31), pause: true }, "010c000000000000002100000000000000310000000000000001");
        vector(&SimEvent::CnpEmit { t, cp, flow, fair_rate_units: 0x32 }, "020c000000000000000a000000000000000b00000000000000220000000000000032000000");
        for (kind, hex) in [
            (CpDecisionKind::MdToMin, "030c000000000000000a000000000000000b000000000000000033000000000000000000e03f0000000000000040340000003500000000000000"),
            (CpDecisionKind::MdHalve, "030c000000000000000a000000000000000b000000000000000133000000000000000000e03f0000000000000040340000003500000000000000"),
            (CpDecisionKind::Pi, "030c000000000000000a000000000000000b000000000000000233000000000000000000e03f0000000000000040340000003500000000000000"),
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
            (RpTransitionKind::Install, Some(cp), "040c0000000000000021000000000000002200000000000000003600000000000000010a000000000000000b00000000000000"),
            (RpTransitionKind::RateUpdate, Some(cp), "040c0000000000000021000000000000002200000000000000013600000000000000010a000000000000000b00000000000000"),
            (RpTransitionKind::CpSwitch, Some(cp), "040c0000000000000021000000000000002200000000000000023600000000000000010a000000000000000b00000000000000"),
            (RpTransitionKind::RecoveryDouble, Some(cp), "040c0000000000000021000000000000002200000000000000033600000000000000010a000000000000000b00000000000000"),
            (RpTransitionKind::Uninstall, None, "040c000000000000002100000000000000220000000000000004360000000000000000"),
        ] {
            vector(&SimEvent::RpTransition { t, node, flow, kind, rate_bps: 0x36, cp }, hex);
        }
        vector(&SimEvent::Fault { t, fault: FaultEvent::HostCrash(NodeId(0x2d)) }, "050c00000000000000032d00000000000000");
        let to = CpId { node: NodeId(0x37), port: PortId(0x38) };
        vector(&SimEvent::PauseEdge { t, from: cp, to }, "060c000000000000000a000000000000000b0000000000000037000000000000003800000000000000");
        for (kind, hex) in [
            (VerdictKind::PfcDeadlock, "070c000000000000000039000000"),
            (VerdictKind::InvariantViolation, "070c000000000000000139000000"),
            (VerdictKind::DeadlineExceeded, "070c000000000000000239000000"),
            (VerdictKind::Drained, "070c000000000000000339000000"),
            (VerdictKind::BudgetExhausted, "070c000000000000000439000000"),
            (VerdictKind::Stalled, "070c000000000000000539000000"),
            (VerdictKind::WallClockExceeded, "070c000000000000000639000000"),
        ] {
            vector(&SimEvent::Verdict { t, kind, cycle_len: 0x39 }, hex);
        }

        // MetricRow, one per variant.
        let port = PortId(0x41);
        vector(&MetricRow::Queue { t, node, port, bytes: 0x42 }, "000c00000000000000210000000000000041000000000000004200000000000000");
        let row = MetricRow::Cp {
            t,
            cp,
            fair_rate_units: 0x43,
            region: 0x44,
            alpha: 0.5,
            beta: 2.0,
        };
        vector(&row, "010c000000000000000a000000000000000b000000000000004300000044000000000000000000e03f0000000000000040");
        vector(&MetricRow::Flow { t, flow, rp_bps: 0x45, goodput_bps: 0x46 }, "020c00000000000000220000000000000045000000000000004600000000000000");
        vector(&MetricRow::Pfc { t, cum_pause_ns: 0x47 }, "030c000000000000004700000000000000");
    }
}
