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
//! section payloads back to back, each a run of little-endian primitives
//! — `kernel`, `rng`, `sched`, `faults`, `san`, `slab`, one `host/N` or
//! `switch/N` per node, `run`, `trace`, `sanitizer` — then the section
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
use crate::packet::{CpId, FlowId, IntHop, IntStack, Packet, PacketKind};
use crate::slab::PacketRef;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, PortId};
use crate::trace::{FctRecord, PfcEvent, Sample};
use crate::units::BitRate;
use rocc_stats::digest::fnv1a_64;
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
// Primitive writer/reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink for snapshot sections.
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

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub(crate) fn words(&mut self, w: &[u64]) {
        self.u64(w.len() as u64);
        for &x in w {
            self.u64(x);
        }
    }

    pub(crate) fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    pub(crate) fn dur(&mut self, d: SimDuration) {
        self.u64(d.as_nanos());
    }

    pub(crate) fn rate(&mut self, r: BitRate) {
        self.u64(r.as_bps());
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

/// Bounds-checked little-endian reader over a snapshot body.
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

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed("bool")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Malformed("usize"))
    }

    /// Length prefix with a sanity ceiling: a corrupt length must fail
    /// fast, not attempt a multi-terabyte allocation.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos).max(1 << 20) {
            return Err(SnapshotError::Malformed("length prefix"));
        }
        Ok(n)
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(SnapshotError::Malformed("option tag")),
        }
    }

    fn str_ref(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| SnapshotError::Malformed("utf8 string"))
    }

    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        self.str_ref().map(str::to_owned)
    }

    pub(crate) fn words(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    pub(crate) fn time(&mut self) -> Result<SimTime, SnapshotError> {
        Ok(SimTime::from_nanos(self.u64()?))
    }

    pub(crate) fn dur(&mut self) -> Result<SimDuration, SnapshotError> {
        Ok(SimDuration::from_nanos(self.u64()?))
    }

    pub(crate) fn rate(&mut self) -> Result<BitRate, SnapshotError> {
        Ok(BitRate::from_bps(self.u64()?))
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
// Shared codecs for crate types
// ---------------------------------------------------------------------------

pub(crate) fn write_cp(w: &mut SnapWriter, cp: CpId) {
    w.usize(cp.node.0);
    w.usize(cp.port.0);
}

pub(crate) fn read_cp(r: &mut SnapReader<'_>) -> Result<CpId, SnapshotError> {
    Ok(CpId {
        node: NodeId(r.usize()?),
        port: PortId(r.usize()?),
    })
}

pub(crate) fn write_opt_cp(w: &mut SnapWriter, cp: Option<CpId>) {
    match cp {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            write_cp(w, c);
        }
    }
}

pub(crate) fn read_opt_cp(r: &mut SnapReader<'_>) -> Result<Option<CpId>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read_cp(r)?)),
        _ => Err(SnapshotError::Malformed("option<cp> tag")),
    }
}

fn write_int_stack(w: &mut SnapWriter, s: &IntStack) {
    let hops = s.hops();
    w.u8(hops.len() as u8);
    for h in hops {
        w.u64(h.qlen_bytes);
        w.u64(h.tx_bytes);
        w.u64(h.ts_ns);
        w.rate(h.rate);
    }
}

fn read_int_stack(r: &mut SnapReader<'_>) -> Result<IntStack, SnapshotError> {
    let n = r.u8()? as usize;
    if n > crate::packet::MAX_INT_HOPS {
        return Err(SnapshotError::Malformed("int stack length"));
    }
    let mut s = IntStack::new();
    for _ in 0..n {
        s.push(IntHop {
            qlen_bytes: r.u64()?,
            tx_bytes: r.u64()?,
            ts_ns: r.u64()?,
            rate: r.rate()?,
        });
    }
    Ok(s)
}

pub(crate) fn write_packet(w: &mut SnapWriter, p: &Packet) {
    w.u64(p.flow.0);
    w.usize(p.src.0);
    w.usize(p.dst.0);
    match p.kind {
        PacketKind::Data { seq, payload, last } => {
            w.u8(0);
            w.u64(seq);
            w.u64(payload);
            w.bool(last);
        }
        PacketKind::Ack {
            cum_seq,
            ecn_echo,
            data_tx_time,
            ref int,
        } => {
            w.u8(1);
            w.u64(cum_seq);
            w.bool(ecn_echo);
            w.time(data_tx_time);
            write_int_stack(w, int);
        }
        PacketKind::Nack { expected_seq } => {
            w.u8(2);
            w.u64(expected_seq);
        }
        PacketKind::RoccCnp {
            fair_rate_units,
            cp,
        } => {
            w.u8(3);
            w.u32(fair_rate_units);
            write_cp(w, cp);
        }
        PacketKind::RoccQueueReport {
            q_cur_units,
            f_max_units,
            cp,
        } => {
            w.u8(4);
            w.u32(q_cur_units);
            w.u32(f_max_units);
            write_cp(w, cp);
        }
        PacketKind::DcqcnCnp => w.u8(5),
        PacketKind::QcnFb { fb, cp } => {
            w.u8(6);
            w.u8(fb);
            write_cp(w, cp);
        }
        PacketKind::PfcPause => w.u8(7),
        PacketKind::PfcResume => w.u8(8),
    }
    w.bool(p.ecn);
    write_int_stack(w, &p.int);
    w.time(p.sent_at);
}

pub(crate) fn read_packet(r: &mut SnapReader<'_>) -> Result<Packet, SnapshotError> {
    let flow = FlowId(r.u64()?);
    let src = NodeId(r.usize()?);
    let dst = NodeId(r.usize()?);
    let kind = match r.u8()? {
        0 => PacketKind::Data {
            seq: r.u64()?,
            payload: r.u64()?,
            last: r.bool()?,
        },
        1 => PacketKind::Ack {
            cum_seq: r.u64()?,
            ecn_echo: r.bool()?,
            data_tx_time: r.time()?,
            int: read_int_stack(r)?,
        },
        2 => PacketKind::Nack {
            expected_seq: r.u64()?,
        },
        3 => PacketKind::RoccCnp {
            fair_rate_units: r.u32()?,
            cp: read_cp(r)?,
        },
        4 => PacketKind::RoccQueueReport {
            q_cur_units: r.u32()?,
            f_max_units: r.u32()?,
            cp: read_cp(r)?,
        },
        5 => PacketKind::DcqcnCnp,
        6 => PacketKind::QcnFb {
            fb: r.u8()?,
            cp: read_cp(r)?,
        },
        7 => PacketKind::PfcPause,
        8 => PacketKind::PfcResume,
        _ => return Err(SnapshotError::Malformed("packet kind tag")),
    };
    Ok(Packet {
        flow,
        src,
        dst,
        kind,
        ecn: r.bool()?,
        int: read_int_stack(r)?,
        sent_at: r.time()?,
    })
}

fn write_feedback(w: &mut SnapWriter, fb: &FeedbackEvent) {
    match *fb {
        FeedbackEvent::RoccCnp {
            fair_rate_units,
            cp,
        } => {
            w.u8(0);
            w.u32(fair_rate_units);
            write_cp(w, cp);
        }
        FeedbackEvent::RoccQueueReport {
            q_cur_units,
            f_max_units,
            cp,
        } => {
            w.u8(1);
            w.u32(q_cur_units);
            w.u32(f_max_units);
            write_cp(w, cp);
        }
        FeedbackEvent::DcqcnCnp => w.u8(2),
        FeedbackEvent::QcnFb { fb, cp } => {
            w.u8(3);
            w.u8(fb);
            write_cp(w, cp);
        }
    }
}

fn read_feedback(r: &mut SnapReader<'_>) -> Result<FeedbackEvent, SnapshotError> {
    Ok(match r.u8()? {
        0 => FeedbackEvent::RoccCnp {
            fair_rate_units: r.u32()?,
            cp: read_cp(r)?,
        },
        1 => FeedbackEvent::RoccQueueReport {
            q_cur_units: r.u32()?,
            f_max_units: r.u32()?,
            cp: read_cp(r)?,
        },
        2 => FeedbackEvent::DcqcnCnp,
        3 => FeedbackEvent::QcnFb {
            fb: r.u8()?,
            cp: read_cp(r)?,
        },
        _ => return Err(SnapshotError::Malformed("feedback tag")),
    })
}

pub(crate) fn write_fault_event(w: &mut SnapWriter, fe: &FaultEvent) {
    match *fe {
        FaultEvent::LinkDown(l) => {
            w.u8(0);
            w.usize(l.0);
        }
        FaultEvent::LinkUp(l) => {
            w.u8(1);
            w.usize(l.0);
        }
        FaultEvent::HostPause(n) => {
            w.u8(2);
            w.usize(n.0);
        }
        FaultEvent::HostCrash(n) => {
            w.u8(3);
            w.usize(n.0);
        }
        FaultEvent::HostRestore(n) => {
            w.u8(4);
            w.usize(n.0);
        }
    }
}

pub(crate) fn read_fault_event(r: &mut SnapReader<'_>) -> Result<FaultEvent, SnapshotError> {
    Ok(match r.u8()? {
        0 => FaultEvent::LinkDown(LinkId(r.usize()?)),
        1 => FaultEvent::LinkUp(LinkId(r.usize()?)),
        2 => FaultEvent::HostPause(NodeId(r.usize()?)),
        3 => FaultEvent::HostCrash(NodeId(r.usize()?)),
        4 => FaultEvent::HostRestore(NodeId(r.usize()?)),
        _ => return Err(SnapshotError::Malformed("fault event tag")),
    })
}

pub(crate) fn write_event(w: &mut SnapWriter, ev: &Event) {
    match ev {
        Event::Arrive { link, pr } => {
            w.u8(0);
            w.usize(link.0);
            w.u32(pr.index());
        }
        Event::SwitchTxDone { node, port } => {
            w.u8(1);
            w.usize(node.0);
            w.usize(port.0);
        }
        Event::HostTxDone { node } => {
            w.u8(2);
            w.usize(node.0);
        }
        Event::HostWake { node } => {
            w.u8(3);
            w.usize(node.0);
        }
        Event::CpTimer { node, port } => {
            w.u8(4);
            w.usize(node.0);
            w.usize(port.0);
        }
        Event::HostCcTimer {
            node,
            flow,
            token,
            gen,
        } => {
            w.u8(5);
            w.usize(node.0);
            w.u64(flow.0);
            w.u8(*token);
            w.u64(*gen);
        }
        Event::Feedback { node, flow, fb } => {
            w.u8(6);
            w.usize(node.0);
            w.u64(flow.0);
            write_feedback(w, fb);
        }
        Event::FlowStart { idx } => {
            w.u8(7);
            w.usize(*idx);
        }
        Event::FlowStop { flow } => {
            w.u8(8);
            w.u64(flow.0);
        }
        Event::Sample => w.u8(9),
        Event::Fault(fe) => {
            w.u8(10);
            write_fault_event(w, fe);
        }
    }
}

pub(crate) fn read_event(r: &mut SnapReader<'_>) -> Result<Event, SnapshotError> {
    Ok(match r.u8()? {
        0 => Event::Arrive {
            link: LinkId(r.usize()?),
            pr: PacketRef::from_index(r.u32()?),
        },
        1 => Event::SwitchTxDone {
            node: NodeId(r.usize()?),
            port: PortId(r.usize()?),
        },
        2 => Event::HostTxDone {
            node: NodeId(r.usize()?),
        },
        3 => Event::HostWake {
            node: NodeId(r.usize()?),
        },
        4 => Event::CpTimer {
            node: NodeId(r.usize()?),
            port: PortId(r.usize()?),
        },
        5 => Event::HostCcTimer {
            node: NodeId(r.usize()?),
            flow: FlowId(r.u64()?),
            token: r.u8()?,
            gen: r.u64()?,
        },
        6 => Event::Feedback {
            node: NodeId(r.usize()?),
            flow: FlowId(r.u64()?),
            fb: read_feedback(r)?,
        },
        7 => Event::FlowStart { idx: r.usize()? },
        8 => Event::FlowStop { flow: FlowId(r.u64()?) },
        9 => Event::Sample,
        10 => Event::Fault(read_fault_event(r)?),
        _ => return Err(SnapshotError::Malformed("event tag")),
    })
}

pub(crate) fn write_sample(w: &mut SnapWriter, s: &Sample) {
    w.time(s.t);
    w.f64(s.v);
}

pub(crate) fn read_sample(r: &mut SnapReader<'_>) -> Result<Sample, SnapshotError> {
    Ok(Sample {
        t: r.time()?,
        v: r.f64()?,
    })
}

pub(crate) fn write_sample_series(w: &mut SnapWriter, series: &[Vec<Sample>]) {
    w.usize(series.len());
    for s in series {
        w.usize(s.len());
        for x in s {
            write_sample(w, x);
        }
    }
}

pub(crate) fn read_sample_series(
    r: &mut SnapReader<'_>,
    expect_outer: usize,
) -> Result<Vec<Vec<Sample>>, SnapshotError> {
    let n = r.len()?;
    if n != expect_outer {
        return Err(SnapshotError::Malformed("sample series count"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len()?;
        let mut s = Vec::with_capacity(m);
        for _ in 0..m {
            s.push(read_sample(r)?);
        }
        out.push(s);
    }
    Ok(out)
}

pub(crate) fn write_fct(w: &mut SnapWriter, f: &FctRecord) {
    w.u64(f.flow.0);
    w.u64(f.size);
    w.time(f.start);
    w.time(f.end);
}

pub(crate) fn read_fct(r: &mut SnapReader<'_>) -> Result<FctRecord, SnapshotError> {
    Ok(FctRecord {
        flow: FlowId(r.u64()?),
        size: r.u64()?,
        start: r.time()?,
        end: r.time()?,
    })
}

pub(crate) fn write_pfc_event(w: &mut SnapWriter, e: &PfcEvent) {
    w.time(e.t);
    w.usize(e.node.0);
    w.usize(e.port.0);
}

pub(crate) fn read_pfc_event(r: &mut SnapReader<'_>) -> Result<PfcEvent, SnapshotError> {
    Ok(PfcEvent {
        t: r.time()?,
        node: NodeId(r.usize()?),
        port: PortId(r.usize()?),
    })
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
    let (n, table_at) = (footer.usize()?, footer.usize()?);
    // A table entry is at least two length words: bound the count by the
    // table's bytes before allocating for it.
    if table_at > foot || n > (foot - table_at) / 16 {
        return Err(SnapshotError::Malformed("section table"));
    }
    let mut payloads = SnapReader::new(&body[..table_at]);
    let mut table = SnapReader::new(&body[table_at..foot]);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (name, len) = (table.str_ref()?, table.usize()?);
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

    /// Two sections, `a` = one u64 word and `b` = `fill` repeated.
    fn two_sections(fill: &[u8]) -> Sections {
        let mut w = SnapWriter::new();
        w.section("a");
        w.u64(7);
        w.section("b");
        for &x in fill {
            w.u8(x);
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
        // A payload longer than the table that describes it (and than the
        // reader's 1 MiB length-prefix ceiling) still splits.
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
        w.u8(7);
        w.bool(true);
        w.u32(123456);
        w.u64(u64::MAX - 1);
        w.u128(1 << 100);
        w.f64(-1.5);
        w.opt_u64(None);
        w.opt_u64(Some(9));
        w.str("hello");
        w.words(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 123456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.words().unwrap(), vec![1, 2, 3]);
        assert!(r.exhausted());
        assert!(matches!(r.u8(), Err(SnapshotError::Truncated)));
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
                int,
            },
            ecn: false,
            int: IntStack::new(),
            sent_at: SimTime::from_nanos(999),
        };
        let mut w = SnapWriter::new();
        write_packet(&mut w, &p);
        write_event(
            &mut w,
            &Event::Feedback {
                node: NodeId(3),
                flow: FlowId(8),
                fb: FeedbackEvent::RoccCnp {
                    fair_rate_units: 200,
                    cp: CpId {
                        node: NodeId(4),
                        port: PortId(1),
                    },
                },
            },
        );
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(read_packet(&mut r).unwrap(), p);
        match read_event(&mut r).unwrap() {
            Event::Feedback { node, flow, fb } => {
                assert_eq!(node, NodeId(3));
                assert_eq!(flow, FlowId(8));
                assert_eq!(
                    fb,
                    FeedbackEvent::RoccCnp {
                        fair_rate_units: 200,
                        cp: CpId {
                            node: NodeId(4),
                            port: PortId(1)
                        }
                    }
                );
            }
            other => panic!("wrong event: {other:?}"),
        }
        assert!(r.exhausted());
    }
}
