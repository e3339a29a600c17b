//! Divergence observatory: per-subsystem state digests, the strided
//! `rocc-digest-ledger/v1` recorder, and the first-divergent-event
//! bisector.
//!
//! Determinism bugs present as "two runs that should match, don't" — a
//! golden fingerprint mismatch, a restore that drifts. The engine-level
//! fingerprint says *that* the runs split but not *where*: which of the
//! hundreds of thousands of dispatched events first pushed the two states
//! apart, and in which subsystem.
//!
//! This module answers both questions:
//!
//! * [`Sim::state_digest`] hashes every subsystem's dynamic state
//!   **separately** — scheduler queue, packet slab, both RNG streams,
//!   per-switch queues/CC state, per-host CC state, fault cursors,
//!   telemetry counters: each digest is the FNV-1a-64 of that subsystem's
//!   [`crate::snapshot`] section, so a digest difference names the
//!   component that diverged, and a word-level diff of the two sections
//!   localizes the field group.
//! * [`DigestLedger`] records those digests every N dispatched events
//!   behind the same one-branch gating as auto-checkpointing (recording a
//!   run is bit-identical to not recording it; pinned by the
//!   `observer_effect` suite). Two ledgers from different machines or CI
//!   runs can be diffed offline via [`DigestLedger::first_divergence`].
//! * [`bisect_divergence`] runs two live sims in lockstep, scans digests
//!   at a stride, and binary-searches — restoring both sims from their
//!   last-matching snapshots — down to the exact first event index after
//!   which any component digest differs, then decodes the diverging event
//!   and the word-level state diff into a [`DivergenceReport`]
//!   (`rocc-divergence-report/v1`).
//!
//! All hashing is the workspace's shared FNV-1a-64
//! ([`rocc_stats::digest`]), so digests are stable across platforms and
//! comparable with every other artifact digest the repo emits.

use crate::engine::Sim;
use rocc_stats::digest::{fnv1a_64, Fnv64};
use rocc_stats::json::{self, Hex, Json, Value};

/// Schema tag written on every digest-ledger JSONL line.
pub const DIGEST_LEDGER_SCHEMA: &str = "rocc-digest-ledger/v1";

/// Schema tag of the bisector's report artifact.
pub const DIVERGENCE_REPORT_SCHEMA: &str = "rocc-divergence-report/v1";

// ---------------------------------------------------------------------------
// Component digests
// ---------------------------------------------------------------------------

/// A section's bytes decoded as little-endian 64-bit words, the tail
/// zero-padded. Payload integers are varints, so a word is an 8-byte
/// window over the bytes, not one field: a value that keeps its encoded
/// length moves only the window holding it, one that changes length
/// shifts every window after it.
fn le_words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect()
}

/// Per-subsystem digests of one sim state, in canonical component order.
/// Two values compare equal iff every component name and digest matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentDigests {
    entries: Vec<(String, u64)>,
}

impl ComponentDigests {
    /// One FNV-1a-64 digest per serialized section.
    pub(crate) fn of(sections: &crate::snapshot::Sections) -> Self {
        let entries = sections.iter().map(|(n, b)| (n.to_string(), fnv1a_64(b)));
        ComponentDigests { entries: entries.collect() }
    }

    /// Build from pre-computed `(name, digest)` pairs (ledger parsing).
    pub fn from_entries(entries: Vec<(String, u64)>) -> Self {
        ComponentDigests { entries }
    }

    /// The digest of one component, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|(n, _)| n == name).map(|&(_, d)| d)
    }

    /// Iterate `(name, digest)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, d)| (n.as_str(), *d))
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no components were digested.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Names whose digests differ between `self` and `other`, in `self`'s
    /// canonical order; components present on only one side count as
    /// differing (and other-only names are appended last).
    pub fn differing(&self, other: &ComponentDigests) -> Vec<String> {
        let mut out: Vec<String> = self
            .entries
            .iter()
            .filter(|(n, d)| other.get(n) != Some(*d))
            .map(|(n, _)| n.clone())
            .collect();
        for (n, _) in &other.entries {
            if self.get(n).is_none() {
                out.push(n.clone());
            }
        }
        out
    }
}

/// A JSON object of component names, each holding its digest in
/// [`Hex`] form: `{"kernel":"0123456789abcdef",...}`; at least one on read.
impl Json for ComponentDigests {
    fn put(&self, out: &mut String) {
        json::put_object(out, |o| {
            for (name, digest) in self.iter() {
                o.field(name, &Hex(digest));
            }
        });
    }
    fn get(v: Value<'_>) -> Option<Self> {
        let digests = v
            .entries()?
            .map(|(name, d)| Some((name.into_owned(), Hex::get(d)?.0)));
        let entries: Vec<(String, u64)> = digests.collect::<Option<_>>()?;
        (!entries.is_empty()).then_some(ComponentDigests { entries })
    }
}

impl Sim {
    /// Per-subsystem FNV-1a-64 digests of the current dynamic state: one
    /// digest per snapshot section, over exactly the bytes
    /// [`Sim::snapshot`] would frame (see [`crate::snapshot::sections`]).
    /// Equal full-state snapshots therefore have equal digests; a digest
    /// mismatch names the first subsystem whose state diverged.
    pub fn state_digest(&self) -> ComponentDigests {
        ComponentDigests::of(&self.sections())
    }
}

// ---------------------------------------------------------------------------
// Strided digest ledger
// ---------------------------------------------------------------------------

/// One recorded ledger row: the component digests after `events`
/// dispatched events, at sim time `t_ns`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestLedgerEntry {
    /// Events dispatched when the row was recorded.
    pub events: u64,
    /// Sim clock at recording, nanoseconds.
    pub t_ns: u64,
    /// Per-component digests at that instant.
    pub digests: ComponentDigests,
}

// One ledger line: schema-tagged, so a tail-truncated file stays
// self-describing.
json::record!(DigestLedgerEntry {
    "schema" = DIGEST_LEDGER_SCHEMA;
    events as event,
    t_ns,
    digests,
});

/// An in-memory `rocc-digest-ledger/v1`: component digests recorded every
/// `stride` dispatched events by [`Sim::enable_digest_ledger`]. Render to
/// JSONL with [`DigestLedger::to_jsonl`]; parse (tolerantly — a torn
/// final line from a crashed run is skipped, not fatal) with
/// [`parse_ledger_jsonl`]; diff two ledgers with
/// [`DigestLedger::first_divergence`].
#[derive(Clone, Debug)]
pub struct DigestLedger {
    stride: u64,
    entries: Vec<DigestLedgerEntry>,
}

impl DigestLedger {
    /// New empty ledger recording every `stride` events.
    pub fn new(stride: u64) -> Self {
        assert!(stride > 0, "ledger stride must be positive");
        DigestLedger { stride, entries: Vec::new() }
    }

    /// Recording stride in dispatched events.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Append a recorded row.
    pub fn push(&mut self, entry: DigestLedgerEntry) {
        self.entries.push(entry);
    }

    /// All recorded rows, in recording order.
    pub fn entries(&self) -> &[DigestLedgerEntry] {
        &self.entries
    }

    /// Render the ledger as `rocc-digest-ledger/v1` JSONL, one row per
    /// line, schema-tagged per line so a tail-truncated file stays
    /// self-describing.
    pub fn to_jsonl(&self) -> String {
        json::jsonl(&self.entries)
    }

    /// First event count at which two ledgers disagree: rows are joined
    /// on their event count; the earliest joined row with any differing
    /// component digest wins. `None` when every joined row matches (the
    /// ledgers may still have disjoint strides — only common rows are
    /// comparable).
    pub fn first_divergence(&self, other: &DigestLedger) -> Option<LedgerDivergence> {
        first_ledger_divergence(&self.entries, &other.entries)
    }
}

/// The earliest ledger row at which two recorded runs disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerDivergence {
    /// Event count of the first differing joined row.
    pub events: u64,
    /// Sim time of that row in run A, nanoseconds.
    pub t_ns_a: u64,
    /// Sim time of that row in run B, nanoseconds.
    pub t_ns_b: u64,
    /// Component names whose digests differ at that row.
    pub components: Vec<String>,
}

/// Join two ledger row sets on event count and report the earliest row
/// with any differing component digest (see
/// [`DigestLedger::first_divergence`]).
pub fn first_ledger_divergence(
    a: &[DigestLedgerEntry],
    b: &[DigestLedgerEntry],
) -> Option<LedgerDivergence> {
    for ea in a {
        let Some(eb) = b.iter().find(|e| e.events == ea.events) else {
            continue;
        };
        if ea.digests != eb.digests || ea.t_ns != eb.t_ns {
            let mut components = ea.digests.differing(&eb.digests);
            if components.is_empty() {
                // Same digests but different sim clocks: the kernel
                // section is where the clock lives, so charge it there.
                components.push("kernel".to_string());
            }
            return Some(LedgerDivergence {
                events: ea.events,
                t_ns_a: ea.t_ns,
                t_ns_b: eb.t_ns,
                components,
            });
        }
    }
    None
}

/// A parsed digest-ledger file. `torn_tail` is set when a malformed line
/// (typically a write cut short by a crash) stopped the parse; every
/// well-formed row before it is still returned.
#[derive(Clone, Debug)]
pub struct ParsedLedger {
    /// Rows parsed in file order, up to the first malformed line.
    pub entries: Vec<DigestLedgerEntry>,
    /// True when at least one line failed to parse.
    pub torn_tail: bool,
}

/// Parse `rocc-digest-ledger/v1` JSONL tolerantly: rows are returned up
/// to the first malformed line, and a torn tail (crashed writer) is
/// reported, not fatal. Blank lines are skipped.
pub fn parse_ledger_jsonl(text: &str) -> ParsedLedger {
    let mut entries = Vec::new();
    let mut torn_tail = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match json::from_str(line) {
            Some(e) => entries.push(e),
            None => {
                torn_tail = true;
                break;
            }
        }
    }
    ParsedLedger { entries, torn_tail }
}

// ---------------------------------------------------------------------------
// Live bisection
// ---------------------------------------------------------------------------

/// Tuning for [`bisect_divergence`].
#[derive(Clone, Debug)]
pub struct BisectOptions {
    /// Phase-1 scan stride: digests are compared (and last-matching
    /// snapshots refreshed) every this many dispatched events. Larger
    /// strides scan faster but leave a wider window for the O(log stride)
    /// binary search.
    pub scan_stride: u64,
    /// Hard cap on events to compare before declaring the runs identical.
    pub max_events: u64,
    /// Fault injection: after exactly this many dispatched events, sim B
    /// receives [`Sim::inject_rp_perturbation`] (re-applied faithfully on
    /// every restore-based probe, so the bisector converges on it). This
    /// is how the acceptance tests manufacture a run with a *known* first
    /// bad event.
    pub perturb_b_at: Option<u64>,
}

impl Default for BisectOptions {
    fn default() -> Self {
        BisectOptions { scan_stride: 2048, max_events: u64::MAX, perturb_b_at: None }
    }
}

/// Result of [`bisect_divergence`].
#[derive(Clone, Debug)]
pub enum BisectOutcome {
    /// No component digest ever differed: both runs matched through
    /// `events` dispatched events (exhaustion of both schedules, or the
    /// configured cap).
    Identical {
        /// Events compared before the runs were declared identical.
        events: u64,
    },
    /// The runs split; the report pins the first divergent event.
    Diverged(Box<DivergenceReport>),
}

/// One differing 64-bit word in the first diverging component's
/// serialized state.
#[derive(Clone, Debug)]
pub struct WordDiff {
    /// Word index into the component's little-endian serialization.
    pub index: usize,
    /// Word value in sim A.
    pub a: u64,
    /// Word value in sim B.
    pub b: u64,
}

/// The bisector's `rocc-divergence-report/v1` payload: the exact first
/// event index after which the two runs' states differ, the decoded
/// diverging event, and a word-level diff of the first differing
/// component.
#[derive(Clone, Debug)]
pub struct DivergenceReport {
    /// First event count at which any component digest differs: after
    /// `first_divergent_event` dispatched events the states disagree;
    /// after one fewer they still matched.
    pub first_divergent_event: u64,
    /// Sim A's clock at the divergent state, nanoseconds.
    pub t_ns_a: u64,
    /// Sim B's clock at the divergent state, nanoseconds.
    pub t_ns_b: u64,
    /// First differing component, in canonical component order.
    pub component: String,
    /// That component's digest in sim A (hex16).
    pub digest_a: String,
    /// That component's digest in sim B (hex16).
    pub digest_b: String,
    /// Every differing component, canonical order.
    pub differing_components: Vec<String>,
    /// The event sim A dispatched as event `first_divergent_event`,
    /// decoded (`None` when A's schedule was already empty).
    pub event_a: Option<String>,
    /// Same for sim B.
    pub event_b: Option<String>,
    /// First differing 64-bit words of `component`'s serialization
    /// (capped at [`WORD_DIFF_CAP`] entries).
    pub word_diff: Vec<WordDiff>,
    /// Word length of `component`'s serialization in sim A.
    pub words_a: usize,
    /// Word length of `component`'s serialization in sim B.
    pub words_b: usize,
    /// Restore-and-replay probes the binary search spent.
    pub probes: u64,
    /// Events advanced during the phase-1 lockstep scan.
    pub events_scanned: u64,
}

/// Maximum differing words quoted in a report.
pub const WORD_DIFF_CAP: usize = 32;

json::record!(WordDiff {
    index as word,
    a: Hex,
    b: Hex,
});

json::record!(DivergenceReport {
    "schema" = DIVERGENCE_REPORT_SCHEMA;
    first_divergent_event,
    t_ns_a,
    t_ns_b,
    component,
    digest_a,
    digest_b,
    differing_components,
    event_a,
    event_b,
    words_a,
    words_b,
    word_diff,
    probes,
    events_scanned,
});

impl DivergenceReport {
    /// Render as a `rocc-divergence-report/v1` JSON document: one object
    /// and a newline.
    pub fn to_json(&self) -> String {
        json::to_string(self) + "\n"
    }

    /// One-line human summary for panics and CLI output.
    pub fn summary(&self) -> String {
        format!(
            "first divergent event {} (component {}, {} vs {}; {} differing component(s), {} probes)",
            self.first_divergent_event,
            self.component,
            self.digest_a,
            self.digest_b,
            self.differing_components.len(),
            self.probes,
        )
    }
}

/// Advance `sim` until `target` events have been dispatched (or the
/// schedule runs dry — returns `false`). When `perturb_at` is crossed
/// *from below within this call*, the RP perturbation fires exactly
/// once; a sim restored from a snapshot taken at or past the
/// perturbation point already carries the flipped state, so the crossing
/// rule makes replays exact.
fn advance_to(sim: &mut Sim, target: u64, perturb_at: Option<u64>) -> bool {
    if let Some(p) = perturb_at.filter(|&p| sim.events_processed() < p && p <= target) {
        if !sim.run_until_event(p) {
            return false;
        }
        sim.inject_rp_perturbation();
    }
    sim.run_until_event(target)
}

fn states_differ(a: &mut Sim, b: &mut Sim) -> bool {
    a.events_processed() != b.events_processed() || a.state_digest() != b.state_digest()
}

/// Run sims `a` and `b` in lockstep and pin the exact first event index
/// after which their states differ.
///
/// Both sims must be freshly built (or restored) at the **same** event
/// count; they may use configurations that are *supposed* to be
/// equivalent — that is the point. Phase 1
/// advances both by [`BisectOptions::scan_stride`] events at a time,
/// comparing [`Sim::state_digest`] at each boundary and re-snapshotting
/// both sims while they still match. On the first mismatching boundary,
/// phase 2 binary-searches inside the window: each probe restores both
/// sims from the last-matching snapshots, replays forward to the probe
/// index (re-injecting the configured perturbation at its recorded event
/// if the replay crosses it), and tests the digests. The result is the
/// smallest event count `e*` with differing states; the report decodes
/// the event each sim dispatched as `e*` and word-diffs the first
/// differing component.
pub fn bisect_divergence(a: &mut Sim, b: &mut Sim, opts: &BisectOptions) -> BisectOutcome {
    assert!(opts.scan_stride > 0, "scan stride must be positive");
    assert_eq!(
        a.events_processed(),
        b.events_processed(),
        "bisect requires both sims at the same event count"
    );
    let start = a.events_processed();
    // A perturbation scheduled exactly at the starting count can never be
    // "crossed from below" — fire it now so the scan sees its effect.
    if opts.perturb_b_at == Some(start) {
        b.inject_rp_perturbation();
    }
    let mut base_events = start;
    let mut base_a = a.snapshot();
    let mut base_b = b.snapshot();
    let mut probes = 0u64;

    if a.state_digest() != b.state_digest() {
        // Diverged before a single event: report at the starting count.
        return BisectOutcome::Diverged(Box::new(build_report(
            a, b, start, probes, 0,
        )));
    }

    // Phase 1: strided lockstep scan, keeping last-matching snapshots.
    let hi = loop {
        let target = (base_events + opts.scan_stride).min(opts.max_events.max(base_events));
        let more_a = advance_to(a, target, None);
        let more_b = advance_to(b, target, opts.perturb_b_at);
        if states_differ(a, b) {
            break a.events_processed().max(b.events_processed());
        }
        if !more_a && !more_b {
            return BisectOutcome::Identical { events: a.events_processed() };
        }
        if a.events_processed() >= opts.max_events {
            return BisectOutcome::Identical { events: a.events_processed() };
        }
        base_events = a.events_processed();
        base_a = a.snapshot();
        base_b = b.snapshot();
    };
    let events_scanned = hi - start;

    // Phase 2: binary search in (base_events, hi]. Invariant: states
    // match after `lo` events, differ after `hi`.
    let mut lo = base_events;
    let mut hi = hi;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        a.restore(&base_a).expect("restoring bisect base snapshot (a)");
        b.restore(&base_b).expect("restoring bisect base snapshot (b)");
        advance_to(a, mid, None);
        advance_to(b, mid, opts.perturb_b_at);
        probes += 1;
        if states_differ(a, b) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // Reconstruct at e* = hi: replay to e*-1 for the decoded next events,
    // then one more step for the diverging state itself.
    a.restore(&base_a).expect("restoring bisect base snapshot (a)");
    b.restore(&base_b).expect("restoring bisect base snapshot (b)");
    advance_to(a, hi - 1, None);
    advance_to(b, hi - 1, opts.perturb_b_at);
    let event_a = a.next_event_brief();
    let event_b = b.next_event_brief();
    advance_to(a, hi, None);
    advance_to(b, hi, opts.perturb_b_at);
    let mut report = build_report(a, b, hi, probes, events_scanned);
    report.event_a = event_a;
    report.event_b = event_b;
    BisectOutcome::Diverged(Box::new(report))
}

/// Assemble a [`DivergenceReport`] from two sims standing at the
/// divergent state (decoded events are filled in by the caller).
fn build_report(
    a: &mut Sim,
    b: &mut Sim,
    first_divergent_event: u64,
    probes: u64,
    events_scanned: u64,
) -> DivergenceReport {
    let da = a.state_digest();
    let db = b.state_digest();
    let mut differing = da.differing(&db);
    if differing.is_empty() {
        // Event counts differed with equal digests can't happen (the
        // kernel section hashes the count), but keep the report total.
        differing.push("kernel".to_string());
    }
    let component = differing[0].clone();
    let words = |sim: &Sim| {
        let secs = sim.sections();
        let found = secs.iter().find(|(n, _)| *n == component);
        found.map(|(_, bytes)| le_words(bytes)).unwrap_or_default()
    };
    let wa = words(a);
    let wb = words(b);
    let mut word_diff = Vec::new();
    for i in 0..wa.len().max(wb.len()) {
        let va = wa.get(i).copied().unwrap_or(0);
        let vb = wb.get(i).copied().unwrap_or(0);
        if va != vb {
            word_diff.push(WordDiff { index: i, a: va, b: vb });
            if word_diff.len() >= WORD_DIFF_CAP {
                break;
            }
        }
    }
    DivergenceReport {
        first_divergent_event,
        t_ns_a: a.kernel.now.as_nanos(),
        t_ns_b: b.kernel.now.as_nanos(),
        component: component.clone(),
        digest_a: format!("{:016x}", da.get(&component).unwrap_or(0)),
        digest_b: format!("{:016x}", db.get(&component).unwrap_or(0)),
        differing_components: differing,
        event_a: None,
        event_b: None,
        word_diff,
        words_a: wa.len(),
        words_b: wb.len(),
        probes,
        events_scanned,
    }
}

/// Digest-mix a whole [`ComponentDigests`] into one u64 (handy for test
/// assertions that "anything changed").
pub fn combined_digest(d: &ComponentDigests) -> u64 {
    let mut h = Fnv64::new();
    for (name, digest) in d.iter() {
        h.write(name.as_bytes());
        h.write_u64(digest);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_digests() -> ComponentDigests {
        ComponentDigests::from_entries(vec![
            ("kernel".into(), 0x0123_4567_89ab_cdef),
            ("host/0".into(), 0xdead_beef_0000_0001),
        ])
    }

    #[test]
    fn ledger_jsonl_roundtrip() {
        let mut ledger = DigestLedger::new(100);
        ledger.push(DigestLedgerEntry { events: 100, t_ns: 42, digests: sample_digests() });
        ledger.push(DigestLedgerEntry { events: 200, t_ns: 84, digests: sample_digests() });
        let text = ledger.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_ledger_jsonl(&text);
        assert!(!parsed.torn_tail);
        assert_eq!(parsed.entries, ledger.entries);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let mut ledger = DigestLedger::new(100);
        ledger.push(DigestLedgerEntry { events: 100, t_ns: 42, digests: sample_digests() });
        ledger.push(DigestLedgerEntry { events: 200, t_ns: 84, digests: sample_digests() });
        let text = ledger.to_jsonl();
        // Cut the file mid-way through the final line.
        let cut = &text[..text.len() - 17];
        let parsed = parse_ledger_jsonl(cut);
        assert!(parsed.torn_tail);
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0], ledger.entries[0]);
    }

    #[test]
    fn ledger_divergence_names_components() {
        let a = vec![
            DigestLedgerEntry { events: 100, t_ns: 1, digests: sample_digests() },
            DigestLedgerEntry { events: 200, t_ns: 2, digests: sample_digests() },
        ];
        let mut changed = sample_digests();
        changed.entries[1].1 ^= 1;
        let b = vec![
            DigestLedgerEntry { events: 100, t_ns: 1, digests: sample_digests() },
            DigestLedgerEntry { events: 200, t_ns: 2, digests: changed },
        ];
        let d = first_ledger_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.events, 200);
        assert_eq!(d.components, vec!["host/0".to_string()]);
        assert!(first_ledger_divergence(&a, &a).is_none());
    }

    #[test]
    fn differing_handles_one_sided_components() {
        let a = sample_digests();
        let b = ComponentDigests::from_entries(vec![("kernel".into(), 0x0123_4567_89ab_cdef)]);
        assert_eq!(a.differing(&b), vec!["host/0".to_string()]);
        assert_eq!(b.differing(&a), vec!["host/0".to_string()]);
    }

    #[test]
    fn word_decode_pads_tail() {
        assert_eq!(le_words(&[1, 0, 0, 0, 0, 0, 0, 0, 2]), vec![1, 2]);
    }

    #[test]
    fn report_json_is_schema_tagged() {
        let r = DivergenceReport {
            first_divergent_event: 7,
            t_ns_a: 1,
            t_ns_b: 1,
            component: "host/3".into(),
            digest_a: "0000000000000001".into(),
            digest_b: "0000000000000002".into(),
            differing_components: vec!["host/3".into(), "sched".into()],
            event_a: Some("[at 10 ns, seq 3] Foo".into()),
            event_b: None,
            word_diff: vec![WordDiff { index: 0, a: 1, b: 2 }],
            words_a: 5,
            words_b: 5,
            probes: 11,
            events_scanned: 4096,
        };
        let j = r.to_json();
        let doc = json::parse(&j).expect("one JSON document");
        let member = |key| {
            let mut members = doc.root().entries().expect("an object");
            members.find(|(k, _)| k == key).expect(key).1
        };
        assert_eq!(
            member("schema").as_str().as_deref(),
            Some("rocc-divergence-report/v1")
        );
        assert_eq!(member("first_divergent_event").as_u64(), Some(7));
        assert_eq!(member("component").as_str().as_deref(), Some("host/3"));
        assert_eq!(member("event_b").raw(), "null");
        assert!(r.summary().contains("first divergent event 7"));
    }
}
