//! The event scheduler: the hierarchical timing wheel behind the kernel's
//! event queue.
//!
//! The engine dispatches events in `(at, seq)` order — absolute
//! nanosecond timestamp, then insertion sequence number — and every run
//! must be bit-for-bit deterministic. [`TimingWheel`] is a hierarchical
//! timing wheel (Varghese & Lauck): 8 levels × 256 slots of FIFO buckets
//! keyed by the bytes of the timestamp, covering the full `u64` nanosecond
//! range (so the `SimTime::MAX` sentinel needs no special case). Push and
//! pop are O(1) amortized; per-level occupancy bitmaps make the next-slot
//! scan four word tests.
//!
//! The reference model for that order is `BinaryHeap<Reverse<Scheduled>>`
//! over [`Scheduled`]'s `Ord` — trivially correct by construction. It is
//! not an engine backend: the differential proptest below and
//! `tests/scheduler.rs` build it directly and check the wheel against it.
//!
//! ## Why the wheel preserves `(at, seq)` order bit-identically
//!
//! Level = index of the highest byte in which `at` differs from the
//! wheel's clock `now`; slot = that byte of `at`. Three invariants carry
//! the proof:
//!
//! 1. **Same `at` ⇒ same bucket, FIFO.** Two events with equal `at` land
//!    in the same slot of the same level at every point in time, and
//!    pushes append — so equal-timestamp runs always pop in seq order.
//! 2. **Level-0 buckets are single-instant.** An occupied level-0 slot
//!    shares its upper 56 bits with `now`, so the slot index pins the
//!    full timestamp: the lowest occupied slot holds exactly the global
//!    minimum's bucket.
//! 3. **Cascades don't reorder.** Expanding the lowest occupied slot of
//!    the lowest occupied overflow level re-inserts its FIFO bucket
//!    front-to-back into strictly lower levels; relative order of
//!    equal-`at` events is preserved (they move together, in order), and
//!    no other bucket's level assignment changes because the clock only
//!    advances within the expanded slot's window.
//!
//! ## Bounded pops and the `push ≥ clock` contract
//!
//! The run loop never takes an event it will not dispatch:
//! [`TimingWheel::pop_until`] answers "nothing due by `limit`" from the
//! occupancy bitmaps alone. A level-0 slot pins its full timestamp
//! (invariant 2) and a cascade target's window start is a lower bound on
//! everything in it, so the wheel either pops an event `≤ limit` or
//! returns `None` having moved its clock no further than `limit` — never
//! past an event that is still queued. The kernel's clock (the last
//! dispatched event's time, or a later deadline) therefore never trails the
//! wheel's, its `schedule()` clamp (`at ≥ now`) implies `at ≥` the wheel
//! clock, and [`TimingWheel::push`] asserts exactly that.

use crate::engine::Event;
use crate::time::SimTime;
use std::collections::VecDeque;

/// One queued event: absolute due time, insertion sequence number (the
/// deterministic tiebreak), and the event payload.
#[derive(Debug)]
pub struct Scheduled {
    /// Absolute due time.
    pub at: SimTime,
    /// Kernel-issued insertion sequence number; orders same-instant
    /// events deterministically.
    pub seq: u64,
    /// The event payload.
    pub ev: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Overflow levels in the timing wheel. 8 levels × 8 bits per level
/// cover the entire `u64` nanosecond axis, so any representable
/// timestamp — including the `SimTime::MAX` "never" sentinel — has a
/// bucket.
pub const WHEEL_LEVELS: usize = 8;
/// Slot-index bits per level (256 slots).
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// `u64` words in a per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;

/// Always-on scheduler introspection counters (plain integer bumps on
/// cold paths; the profiler exports them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Overflow-slot expansions performed by pops.
    pub cascades: u64,
    /// Events moved to a lower level by those expansions.
    pub cascaded_events: u64,
    /// Always 0: nothing pushes below the wheel clock any more (see the
    /// module docs). Kept because the benchmark's `sched.rebases` metric
    /// reads it; goes when that metric does.
    pub rebases: u64,
    /// Highest wheel level any event was ever inserted at.
    pub max_level: u8,
}

// ------------------------------------------------------------ timing wheel

/// Hierarchical timing wheel: 8 levels × 256 FIFO buckets with per-level
/// occupancy bitmaps. See the module docs for layout and ordering proof.
#[derive(Debug)]
pub struct TimingWheel {
    /// The wheel clock: the timestamp of the most recent pop (0 before
    /// any). All bucket/level assignments are relative to it.
    now_ns: u64,
    /// Live entry count.
    len: usize,
    /// `WHEEL_LEVELS * SLOTS` FIFO buckets, indexed `level * SLOTS + slot`.
    /// Buckets keep their allocation once grown, so steady-state churn
    /// allocates nothing.
    buckets: Vec<VecDeque<Scheduled>>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; OCC_WORDS]; WHEEL_LEVELS],
    /// Per-level live entry counts (drives the cascade scan and the
    /// profiler's occupancy series).
    level_len: [u64; WHEEL_LEVELS],
    /// Scratch buffer reused by cascades so expanding a bucket never
    /// allocates in steady state.
    scratch: Vec<Scheduled>,
    stats: SchedStats,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            now_ns: 0,
            len: 0,
            buckets: (0..WHEEL_LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occ: [[0; OCC_WORDS]; WHEEL_LEVELS],
            level_len: [0; WHEEL_LEVELS],
            scratch: Vec::new(),
            stats: SchedStats::default(),
        }
    }
}

/// Index of the highest byte in which `at` differs from `now` (0 when
/// equal): the wheel level of an entry due at `at`.
#[inline]
fn level_of(at: u64, now: u64) -> usize {
    let diff = at ^ now;
    if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros() as usize) >> 3
    }
}

/// Lowest set slot index in a level's occupancy bitmap.
#[inline]
fn first_occupied(occ: &[u64; OCC_WORDS]) -> Option<usize> {
    for (w, &bits) in occ.iter().enumerate() {
        if bits != 0 {
            return Some((w << 6) | bits.trailing_zeros() as usize);
        }
    }
    None
}

impl TimingWheel {
    /// Bucket/bitmap insert relative to the current clock. Does not touch
    /// `len` (cascades move entries without changing the total).
    #[inline]
    fn insert(&mut self, s: Scheduled) {
        let at = s.at.as_nanos();
        debug_assert!(at >= self.now_ns, "insert below the wheel clock");
        let lvl = level_of(at, self.now_ns);
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[(lvl << SLOT_BITS) | slot].push_back(s);
        self.occ[lvl][slot >> 6] |= 1u64 << (slot & 63);
        self.level_len[lvl] += 1;
        if lvl as u8 > self.stats.max_level {
            self.stats.max_level = lvl as u8;
        }
    }

    /// The slot the next pop drains or expands — the lowest occupied slot
    /// of the lowest occupied level — and the earliest instant anything in
    /// it can be due: the exact timestamp at level 0 (invariant 2), the
    /// slot's window start above. `None` when the wheel is empty.
    #[inline]
    fn head(&self) -> Option<(usize, usize, u64)> {
        let lvl = (0..WHEEL_LEVELS).find(|&l| self.level_len[l] > 0)?;
        let slot = first_occupied(&self.occ[lvl]).expect("level_len/occ out of sync");
        // Bytes above `lvl` from the clock, byte `lvl` = slot, lower bytes
        // zero. Occupied slots are never behind the cursor (no entries
        // below the clock), so this is ≥ the clock.
        let keep_above = if lvl == WHEEL_LEVELS - 1 {
            0
        } else {
            self.now_ns & !((1u64 << (SLOT_BITS * (lvl as u32 + 1))) - 1)
        };
        Some((lvl, slot, keep_above | ((slot as u64) << (SLOT_BITS * lvl as u32))))
    }

    /// Expand overflow slot `(lvl, slot)` into lower levels, advancing the
    /// clock to the slot's window `start`: a [`Self::head`] result with
    /// `lvl > 0`.
    #[cold]
    fn cascade(&mut self, lvl: usize, slot: usize, start: u64) {
        debug_assert!(start > self.now_ns);
        self.now_ns = start;
        let idx = (lvl << SLOT_BITS) | slot;
        let mut moved = std::mem::take(&mut self.scratch);
        moved.extend(self.buckets[idx].drain(..));
        self.occ[lvl][slot >> 6] &= !(1u64 << (slot & 63));
        self.level_len[lvl] -= moved.len() as u64;
        self.stats.cascades += 1;
        self.stats.cascaded_events += moved.len() as u64;
        // Re-inserts land strictly below `lvl`: every moved timestamp
        // shares bytes ≥ lvl with the new clock.
        for s in moved.drain(..) {
            self.insert(s);
        }
        self.scratch = moved;
    }

    /// Insert an event due at or after the wheel clock (the most recent
    /// pop, or the window start a bounded pop stopped at — see the module
    /// docs for why the kernel's clamp guarantees it). Order among live
    /// entries is always `(at, seq)`.
    #[inline]
    pub fn push(&mut self, s: Scheduled) {
        assert!(
            s.at.as_nanos() >= self.now_ns,
            "push at {} ns is below the wheel clock ({} ns)",
            s.at.as_nanos(),
            self.now_ns
        );
        self.insert(s);
        self.len += 1;
    }

    /// Remove and return the minimum `(at, seq)` entry.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.pop_until(SimTime::MAX)
    }

    /// Remove and return the minimum `(at, seq)` entry if it is due at or
    /// before `limit`; otherwise leave the queue untouched and move the
    /// clock no further than `limit`, so a push at `limit` stays legal.
    #[inline]
    pub fn pop_until(&mut self, limit: SimTime) -> Option<Scheduled> {
        loop {
            let (lvl, slot, earliest) = self.head()?;
            if earliest > limit.as_nanos() {
                return None;
            }
            if lvl > 0 {
                self.cascade(lvl, slot, earliest);
                continue;
            }
            // The level-0 head bucket holds exactly the global minimum's
            // instant (invariant 2); its FIFO front is the minimum
            // (invariant 1).
            let bucket = &mut self.buckets[slot];
            let s = bucket.pop_front().expect("occupied slot with empty bucket");
            if bucket.is_empty() {
                self.occ[0][slot >> 6] &= !(1u64 << (slot & 63));
            }
            self.level_len[0] -= 1;
            self.len -= 1;
            self.now_ns = earliest;
            return Some(s);
        }
    }

    /// The minimum `(at, seq)` entry, without removing it.
    pub fn peek(&self) -> Option<&Scheduled> {
        // Overflow buckets are FIFO, not sorted: take the head slot's
        // minimum.
        let (lvl, slot, _) = self.head()?;
        self.buckets[(lvl << SLOT_BITS) | slot].iter().min()
    }

    /// Live entry count.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every live entry, in arbitrary order, without allocating (the
    /// sanitizer's RTO audit walks this once per audit).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &Event)> {
        self.buckets.iter().flatten().map(|s| (s.at, s.seq, &s.ev))
    }

    /// Every live entry, in arbitrary order (the snapshot codec sorts by
    /// `(at, seq)` itself).
    pub fn entries(&self) -> Vec<(SimTime, u64, &Event)> {
        self.iter().collect()
    }

    /// Introspection counters.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Current per-level entry counts, for the profiler's
    /// bucket-occupancy series.
    pub fn level_depths(&self) -> [u64; WHEEL_LEVELS] {
        self.level_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev() -> Event {
        Event::Sample
    }

    fn sch(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: SimTime::from_nanos(at),
            seq,
            ev: ev(),
        }
    }

    /// Drain a wheel completely, returning the `(at, seq)` pop order.
    fn drain(s: &mut TimingWheel) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(x) = s.pop() {
            out.push((x.at.as_nanos(), x.seq));
        }
        out
    }

    #[test]
    fn same_timestamp_bursts_pop_in_seq_order() {
        // Satellite: same-timestamp FIFO bursts. A burst of events at one
        // instant interleaved with other instants must pop in (at, seq).
        let mut s = TimingWheel::default();
        let mut seq = 0u64;
        let mut expect = Vec::new();
        for at in [500u64, 100, 500, 500, 100, 7, 500] {
            seq += 1;
            s.push(sch(at, seq));
            expect.push((at, seq));
        }
        expect.sort_unstable();
        assert_eq!(drain(&mut s), expect);
    }

    #[test]
    fn far_future_events_cascade_down_in_order() {
        // Satellite: far-future overflow-level cascade. Timestamps spread
        // across every wheel level, including the u64::MAX sentinel.
        let mut w = TimingWheel::default();
        let ats = [
            3u64,
            250,
            0x1_23,
            0x45_67_89,
            0xAB_CD_EF_01,
            0x12_34_56_78_9A,
            0xFE_DC_BA_98_76_54_32,
            u64::MAX,
        ];
        for (i, &at) in ats.iter().enumerate() {
            w.push(sch(at, i as u64 + 1));
        }
        assert_eq!(w.stats().max_level as usize, WHEEL_LEVELS - 1);
        let order = drain(&mut w);
        let mut expect: Vec<(u64, u64)> =
            ats.iter().enumerate().map(|(i, &a)| (a, i as u64 + 1)).collect();
        expect.sort_unstable();
        assert_eq!(order, expect);
        assert!(
            w.stats().cascades > 0,
            "multi-level spread must cascade"
        );
        assert!(
            w.stats().cascaded_events >= ats.len() as u64 - 2,
            "most events lived above level 0"
        );
    }

    #[test]
    fn schedule_during_dispatch_at_current_tick_stays_fifo() {
        // Satellite: schedule-during-dispatch at the current tick. While
        // dispatching an event at t (wheel clock == t), new events pushed
        // at exactly t must run after already-queued ones at t, in seq
        // order — the engine's zero-delay self-reschedule pattern.
        let mut w = TimingWheel::default();
        w.push(sch(1000, 1));
        w.push(sch(1000, 2));
        let first = w.pop().unwrap();
        assert_eq!((first.at.as_nanos(), first.seq), (1000, 1));
        // "dispatch" of seq 1 schedules two more events at the same tick
        // and one in the future.
        w.push(sch(1000, 3));
        w.push(sch(1010, 4));
        w.push(sch(1000, 5));
        assert_eq!(drain(&mut w), vec![(1000, 2), (1000, 3), (1000, 5), (1010, 4)]);
    }

    #[test]
    fn bounded_pop_leaves_undue_events_and_the_clock_alone() {
        let mut w = TimingWheel::default();
        w.push(sch(1_000_000, 1));
        assert!(w.pop_until(SimTime::from_nanos(999_999)).is_none());
        assert_eq!(w.len(), 1, "an undue event stays queued");
        // The clock stopped at or before the limit: work may still be
        // scheduled anywhere from the limit on, and pops first.
        w.push(sch(999_999, 2));
        w.push(sch(1_000_000, 3));
        let due = w.pop_until(SimTime::from_nanos(1_000_000)).unwrap();
        assert_eq!((due.at.as_nanos(), due.seq), (999_999, 2));
        assert_eq!(drain(&mut w), vec![(1_000_000, 1), (1_000_000, 3)]);
    }

    #[test]
    #[should_panic(expected = "below the wheel clock")]
    fn push_below_the_wheel_clock_is_rejected() {
        let mut w = TimingWheel::default();
        w.push(sch(5000, 1));
        assert_eq!(w.pop().unwrap().at.as_nanos(), 5000);
        w.push(sch(4800, 2));
    }

    #[test]
    fn level_depths_and_len_track_contents() {
        let mut w = TimingWheel::default();
        assert!(w.is_empty());
        w.push(sch(1, 1));
        w.push(sch(0x10_00, 2));
        w.push(sch(0x10_00_00, 3));
        assert_eq!(w.len(), 3);
        let depths = w.level_depths();
        assert_eq!(depths.iter().sum::<u64>(), 3);
        assert_eq!(depths[0], 1);
        assert_eq!(depths[1], 1);
        assert_eq!(depths[2], 1);
        assert_eq!(w.entries().len(), 3);
        let _ = w.pop();
        assert_eq!(w.len(), 2);
    }

    // Always-on differential proptest: the wheel against the reference
    // model, `BinaryHeap<Reverse<Scheduled>>`, over random event streams —
    // pushes at or after the last pop or bounded-pop limit (the kernel's
    // contract), unbounded pops and bounded pops, the full kernel op set.
    proptest! {
        #[test]
        fn differential_heap_vs_wheel(ops in proptest::collection::vec(
            (0u8..10, 0u64..9, 0u64..64), 1..400)
        ) {
            let mut heap = BinaryHeap::new();
            let mut wheel = TimingWheel::default();
            let mut seq = 0u64;
            // The kernel's clock: the latest pop or bounded-pop limit.
            let mut clock = 0u64;
            // Offsets cluster near the clock (collisions at one instant
            // are common by construction) and reach every wheel level via
            // the scale factor; scale 8 is the `u64::MAX` sentinel.
            let ahead = |clock: u64, scale: u64, delta: u64| match scale {
                8 => u64::MAX,
                _ => clock.saturating_add(delta * 257u64.pow(scale as u32)),
            };
            for (op, scale, delta) in ops {
                if op < 6 {
                    seq += 1;
                    let at = ahead(clock, scale, delta);
                    heap.push(Reverse(sch(at, seq)));
                    wheel.push(sch(at, seq));
                } else if op < 8 {
                    // Pop from both; results must agree exactly.
                    let a = heap.pop().map(|Reverse(s)| (s.at.as_nanos(), s.seq));
                    let b = wheel.pop().map(|s| (s.at.as_nanos(), s.seq));
                    prop_assert_eq!(a, b, "pop order diverged");
                    if let Some((at, _)) = a {
                        clock = at;
                    }
                } else {
                    // Bounded pop: the head comes off only if due by the
                    // limit. Either way the clock moves to the limit at
                    // most, so a push at the limit must be accepted.
                    let limit = ahead(clock, scale, delta);
                    let due = heap.peek().is_some_and(|r| r.0.at.as_nanos() <= limit);
                    let a = if due { heap.pop().map(|Reverse(s)| (s.at.as_nanos(), s.seq)) } else { None };
                    let b = wheel.pop_until(SimTime::from_nanos(limit)).map(|s| (s.at.as_nanos(), s.seq));
                    prop_assert_eq!(a, b, "bounded pop diverged");
                    clock = a.map_or(limit, |(at, _)| at);
                    if a.is_none() {
                        seq += 1;
                        heap.push(Reverse(sch(limit, seq)));
                        wheel.push(sch(limit, seq));
                    }
                }
                prop_assert_eq!(heap.len(), wheel.len());
                prop_assert_eq!(heap.peek().map(|r| &r.0), wheel.peek());
            }
            // Full drain must agree.
            loop {
                let a = heap.pop().map(|Reverse(s)| (s.at.as_nanos(), s.seq));
                let b = wheel.pop().map(|s| (s.at.as_nanos(), s.seq));
                prop_assert_eq!(a, b, "drain order diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
