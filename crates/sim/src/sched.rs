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
//! ## Pushes into the past
//!
//! The run loops pop an event to *look* at it and requeue it when it
//! lies beyond the run's deadline; the pop advanced the wheel clock to
//! that event's timestamp, but the kernel clock rewinds to the deadline.
//! A later `schedule()` may then legitimately target the gap. The wheel
//! handles any push below its clock by **rebasing**: drain every bucket
//! and re-insert relative to the new, smaller clock. O(n), but it can
//! only happen right after a deadline requeue — never in the steady
//! state — and correctness is what's non-negotiable here. The
//! always-counted [`SchedStats::rebases`] makes the cost observable.

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
    /// Full drain-and-reinsert rebases triggered by pushes below the
    /// wheel clock (deadline-requeue aftermath; see module docs).
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

    /// Drain every bucket and re-insert relative to a smaller clock.
    /// Per-bucket FIFO order is preserved, and equal-`at` events always
    /// share a bucket, so `(at, seq)` order survives the rebase.
    #[cold]
    fn rebase(&mut self, new_now_ns: u64) {
        self.stats.rebases += 1;
        let mut all = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        self.occ = [[0; OCC_WORDS]; WHEEL_LEVELS];
        self.level_len = [0; WHEEL_LEVELS];
        self.now_ns = new_now_ns;
        for s in all {
            self.insert(s);
        }
    }

    /// Expand the lowest occupied slot of the lowest occupied overflow
    /// level into lower levels, advancing the clock to that slot's
    /// window start. Caller guarantees level 0 is empty and `len > 0`.
    #[cold]
    fn cascade(&mut self) {
        let lvl = (1..WHEEL_LEVELS)
            .find(|&l| self.level_len[l] > 0)
            .expect("cascade called on an empty wheel");
        let slot = first_occupied(&self.occ[lvl]).expect("level_len/occ out of sync");
        // The slot's window start: bytes above `lvl` from the clock, byte
        // `lvl` = slot, lower bytes zero. Occupied slots are never behind
        // the cursor (no entries below the clock), so this only advances.
        let keep_above = if lvl == WHEEL_LEVELS - 1 {
            0
        } else {
            self.now_ns & !((1u64 << (SLOT_BITS * (lvl as u32 + 1))) - 1)
        };
        let new_now = keep_above | ((slot as u64) << (SLOT_BITS * lvl as u32));
        debug_assert!(new_now > self.now_ns);
        self.now_ns = new_now;
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

    /// Insert an event. `at` may be below the most recently popped
    /// timestamp (see the module docs on rebasing); order among live
    /// entries is always `(at, seq)`.
    #[inline]
    pub fn push(&mut self, s: Scheduled) {
        if s.at.as_nanos() < self.now_ns {
            self.rebase(s.at.as_nanos());
        }
        self.insert(s);
        self.len += 1;
    }

    /// Remove and return the minimum `(at, seq)` entry.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.level_len[0] > 0 {
                // Level-0 slots pin full timestamps (invariant 2): the
                // lowest occupied slot is the global minimum's bucket,
                // and its FIFO front is the minimum (invariant 1).
                let slot = first_occupied(&self.occ[0]).expect("level_len/occ out of sync");
                let bucket = &mut self.buckets[slot];
                let s = bucket.pop_front().expect("occupied slot with empty bucket");
                if bucket.is_empty() {
                    self.occ[0][slot >> 6] &= !(1u64 << (slot & 63));
                }
                self.level_len[0] -= 1;
                self.len -= 1;
                self.now_ns = s.at.as_nanos();
                return Some(s);
            }
            self.cascade();
        }
    }

    /// The minimum `(at, seq)` entry, without removing it.
    pub fn peek(&self) -> Option<&Scheduled> {
        // The slot `pop` would drain or cascade next — the lowest occupied
        // slot of the lowest occupied level — holds the global minimum.
        // Overflow buckets are FIFO, not sorted: take their minimum.
        let lvl = (0..WHEEL_LEVELS).find(|&l| self.level_len[l] > 0)?;
        let slot = first_occupied(&self.occ[lvl])?;
        self.buckets[(lvl << SLOT_BITS) | slot].iter().min()
    }

    /// Put back an event just obtained from [`TimingWheel::pop`], restoring
    /// it to the head of the queue. Precondition: `s` was the most recent
    /// pop and nothing was pushed or popped since — i.e. `s` is still ≤
    /// every live entry. (The run loops use this for not-yet-due events.)
    #[inline]
    pub fn requeue(&mut self, s: Scheduled) {
        // `s` was the most recent pop, so it is ≤ every live entry:
        // front-pushed into its bucket it becomes the head again, even
        // when the bucket already holds equal-`at`, later-seq events.
        let at = s.at.as_nanos();
        if at < self.now_ns {
            self.rebase(at);
        }
        let lvl = level_of(at, self.now_ns);
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        self.buckets[(lvl << SLOT_BITS) | slot].push_front(s);
        self.occ[lvl][slot >> 6] |= 1u64 << (slot & 63);
        self.level_len[lvl] += 1;
        self.len += 1;
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

    /// Every live entry, in arbitrary order (the snapshot codec sorts by
    /// `(at, seq)` itself).
    pub fn entries(&self) -> Vec<(SimTime, u64, &Event)> {
        self.buckets
            .iter()
            .flatten()
            .map(|s| (s.at, s.seq, &s.ev))
            .collect()
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
    fn requeue_restores_the_head_before_equal_timestamp_events() {
        let mut s = TimingWheel::default();
        s.push(sch(42, 1));
        s.push(sch(42, 2));
        s.push(sch(42, 3));
        let head = s.pop().unwrap();
        assert_eq!(head.seq, 1);
        s.requeue(head);
        assert_eq!(
            drain(&mut s),
            vec![(42, 1), (42, 2), (42, 3)],
            "requeue must restore the head"
        );
    }

    #[test]
    fn push_below_the_wheel_clock_rebases_and_stays_ordered() {
        // The deadline-requeue aftermath: a pop advanced the wheel clock,
        // then new work arrives below it.
        let mut w = TimingWheel::default();
        w.push(sch(5000, 1));
        assert_eq!(w.pop().unwrap().at.as_nanos(), 5000);
        w.push(sch(4800, 2)); // below the clock → rebase
        w.push(sch(5100, 3));
        w.push(sch(4800, 4));
        assert!(w.stats().rebases >= 1);
        assert_eq!(drain(&mut w), vec![(4800, 2), (4800, 4), (5100, 3)]);
    }

    #[test]
    fn requeue_below_the_wheel_clock_rebases() {
        // run_until deadline flow at wheel level: pop a far event (clock
        // jumps there), requeue it, then push near-term work that the
        // next run_until call must see first.
        let mut w = TimingWheel::default();
        w.push(sch(1_000_000, 1));
        let far = w.pop().unwrap();
        w.requeue(far);
        w.push(sch(600_000, 2));
        assert_eq!(drain(&mut w), vec![(600_000, 2), (1_000_000, 1)]);
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
    // model, `BinaryHeap<Reverse<Scheduled>>`, over random event streams
    // (pushes with clustered timestamps, pops, and head requeues — the
    // full kernel op set).
    proptest! {
        #[test]
        fn differential_heap_vs_wheel(ops in proptest::collection::vec(
            (0u8..10, 0u64..5, 0u64..64), 1..400)
        ) {
            let mut heap = BinaryHeap::new();
            let mut wheel = TimingWheel::default();
            let mut seq = 0u64;
            let mut clock = 0u64;
            for (op, scale, delta) in ops {
                if op < 6 {
                    // Push: timestamps cluster near the clock but reach
                    // far-future levels via the scale factor (collisions
                    // at identical instants are common by construction).
                    seq += 1;
                    let at = clock + delta * 257u64.pow(scale as u32);
                    heap.push(Reverse(sch(at, seq)));
                    wheel.push(sch(at, seq));
                } else if op < 9 {
                    // Pop from both; results must agree exactly.
                    let a = heap.pop().map(|Reverse(s)| (s.at.as_nanos(), s.seq));
                    let b = wheel.pop().map(|s| (s.at.as_nanos(), s.seq));
                    prop_assert_eq!(a, b, "pop order diverged");
                    if let Some((at, _)) = a {
                        clock = at;
                    }
                } else {
                    // Pop-and-requeue the head in both (the run-loop
                    // deadline pattern); clock intentionally NOT advanced,
                    // so later pushes can land below the wheel clock and
                    // exercise the rebase path.
                    if let (Some(a), Some(b)) = (heap.pop(), wheel.pop()) {
                        prop_assert_eq!((a.0.at, a.0.seq), (b.at, b.seq));
                        heap.push(a);
                        wheel.requeue(b);
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
