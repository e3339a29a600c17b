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
//! ## Layout and memory
//!
//! Every entry is stored once, in one pool of nodes addressed by `u32`
//! index: a 64-byte [`Scheduled`] slot and, in a parallel array, a `u32`
//! link. A bucket is a FIFO list threaded through the links — a head and
//! a tail `u32` per bucket, 16 KB for all 2,048 — and a pop puts its node
//! on a LIFO free list, so the next push reuses a node that is still in
//! cache. The pool grows only when no node is free: its length is the
//! peak number of pending entries, and memory is 68 bytes × peak pending
//! plus the bucket ends. A cascade re-links nodes into lower buckets; no
//! entry is copied.
//!
//! The pool grows by whole chunks of 1,024 nodes (64 KB of slots, 4 KB of
//! links). A node never moves, and each chunk stays under glibc's 128 KiB
//! mmap threshold, so growing reuses heap memory instead of faulting in
//! fresh pages. The links sit apart from the slots so that walking a
//! list chases pointers through a few kilobytes. DESIGN §3j gives the
//! measurements behind these choices.
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

/// "No node": the end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// log2 of the nodes per pool chunk.
const CHUNK_BITS: u32 = 10;
/// Nodes per pool chunk: 64 KB of entries and 4 KB of links, each under
/// the allocator's default mmap threshold, so a chunk is recycled heap
/// memory rather than fresh pages.
const CHUNK: usize = 1 << CHUNK_BITS;

/// The wheel's node storage, addressed by `u32` index: fixed chunks of
/// [`CHUNK`] nodes. Growing adds a chunk; no node ever moves. A node is an
/// entry slot (`None` when free) and, in a parallel array, a link: the
/// next node of its bucket list, or of the free list. With the links
/// packed 16 to a cache line, a list walk's chain of dependent loads stays
/// in a few kilobytes and the slot loads it issues do not wait on each
/// other.
#[derive(Debug, Default)]
struct Pool {
    slots: Vec<Box<[Option<Scheduled>; CHUNK]>>,
    links: Vec<Box<[u32; CHUNK]>>,
    /// Nodes handed out so far: the peak live entry count.
    len: u32,
}

impl Pool {
    /// A never-used node, holding `s`.
    fn grow(&mut self, s: Scheduled) -> u32 {
        let idx = self.len;
        assert!(idx != NIL, "timing wheel pool exceeds u32 indices");
        if (idx as usize).is_multiple_of(CHUNK) {
            let slots: Vec<Option<Scheduled>> = (0..CHUNK).map(|_| None).collect();
            self.slots
                .push(slots.into_boxed_slice().try_into().expect("CHUNK slots"));
            self.links.push(Box::new([NIL; CHUNK]));
        }
        self.len += 1;
        self[idx] = Some(s);
        idx
    }

    /// The node after `i` in its list.
    #[inline]
    fn next(&self, i: u32) -> u32 {
        self.links[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)]
    }

    /// Make `next` the node after `i` in its list.
    #[inline]
    fn set_next(&mut self, i: u32, next: u32) {
        self.links[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)] = next;
    }
}

impl std::ops::Index<u32> for Pool {
    type Output = Option<Scheduled>;
    #[inline]
    fn index(&self, i: u32) -> &Option<Scheduled> {
        &self.slots[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)]
    }
}

impl std::ops::IndexMut<u32> for Pool {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut Option<Scheduled> {
        &mut self.slots[(i >> CHUNK_BITS) as usize][i as usize & (CHUNK - 1)]
    }
}

/// Hierarchical timing wheel: 8 levels × 256 FIFO buckets with per-level
/// occupancy bitmaps, every entry stored once in a shared pool. See the
/// module docs for layout, memory bound and ordering proof.
#[derive(Debug)]
pub struct TimingWheel {
    /// The wheel clock: the timestamp of the most recent pop (0 before
    /// any). All bucket/level assignments are relative to it.
    now_ns: u64,
    /// Live entry count.
    len: usize,
    /// Entry storage. Grows only when no node is free, so its length is
    /// the peak live count; nodes are never returned to the allocator.
    pool: Pool,
    /// Head of the LIFO free list threaded through `pool`.
    free: u32,
    /// First node of each of the `WHEEL_LEVELS * SLOTS` bucket lists,
    /// indexed `level * SLOTS + slot`; `NIL` when empty.
    head: Vec<u32>,
    /// Last node of each bucket list (valid only while it is non-empty).
    tail: Vec<u32>,
    /// Per-level slot-occupancy bitmaps.
    occ: [[u64; OCC_WORDS]; WHEEL_LEVELS],
    /// Per-level live entry counts (drives the cascade scan and the
    /// profiler's occupancy series).
    level_len: [u64; WHEEL_LEVELS],
    stats: SchedStats,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            now_ns: 0,
            len: 0,
            pool: Pool::default(),
            free: NIL,
            head: vec![NIL; WHEEL_LEVELS * SLOTS],
            tail: vec![NIL; WHEEL_LEVELS * SLOTS],
            occ: [[0; OCC_WORDS]; WHEEL_LEVELS],
            level_len: [0; WHEEL_LEVELS],
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

/// [`TimingWheel::iter`]'s cursor: the occupied buckets, found through the
/// bitmaps in level and slot order, each list walked front to back.
struct Iter<'a> {
    wheel: &'a TimingWheel,
    /// The bitmap word being scanned, `level * OCC_WORDS + word`.
    word: usize,
    /// Its occupied slots not yet visited.
    bits: u64,
    /// The next node of the bucket being walked; `NIL` between buckets.
    node: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Scheduled;

    #[inline]
    fn next(&mut self) -> Option<&'a Scheduled> {
        let w = self.wheel;
        while self.node == NIL {
            while self.bits == 0 {
                if self.word + 1 == WHEEL_LEVELS * OCC_WORDS {
                    return None;
                }
                self.word += 1;
                self.bits = w.occ[self.word / OCC_WORDS][self.word % OCC_WORDS];
            }
            self.node = w.head[(self.word << 6) | self.bits.trailing_zeros() as usize];
            self.bits &= self.bits - 1;
        }
        let i = self.node;
        self.node = w.pool.next(i);
        Some(w.pool[i].as_ref().expect("free node in a bucket list"))
    }
}

impl TimingWheel {
    /// Append pool node `idx`, due at `at`, to its bucket relative to the
    /// current clock. Does not touch `len` (cascades move entries without
    /// changing the total).
    #[inline]
    fn link(&mut self, idx: u32, at: u64) {
        debug_assert!(at >= self.now_ns, "insert below the wheel clock");
        let lvl = level_of(at, self.now_ns);
        let slot = ((at >> (SLOT_BITS * lvl as u32)) & (SLOTS as u64 - 1)) as usize;
        let b = (lvl << SLOT_BITS) | slot;
        self.pool.set_next(idx, NIL);
        if self.head[b] == NIL {
            self.head[b] = idx;
            self.occ[lvl][slot >> 6] |= 1u64 << (slot & 63);
        } else {
            self.pool.set_next(self.tail[b], idx);
        }
        self.tail[b] = idx;
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
    /// `lvl > 0`. Nodes are re-linked front to back; no entry moves.
    #[cold]
    fn cascade(&mut self, lvl: usize, slot: usize, start: u64) {
        debug_assert!(start > self.now_ns);
        self.now_ns = start;
        let b = (lvl << SLOT_BITS) | slot;
        let mut idx = std::mem::replace(&mut self.head[b], NIL);
        self.occ[lvl][slot >> 6] &= !(1u64 << (slot & 63));
        // Re-links land strictly below `lvl`: every moved timestamp shares
        // bytes ≥ lvl with the new clock.
        let mut moved = 0;
        while idx != NIL {
            let next = self.pool.next(idx);
            let at = self.pool[idx]
                .as_ref()
                .expect("free node in a bucket list")
                .at
                .as_nanos();
            self.link(idx, at);
            idx = next;
            moved += 1;
        }
        self.level_len[lvl] -= moved;
        self.stats.cascades += 1;
        self.stats.cascaded_events += moved;
    }

    /// Insert an event due at or after the wheel clock (the most recent
    /// pop, or the window start a bounded pop stopped at — see the module
    /// docs for why the kernel's clamp guarantees it). Order among live
    /// entries is always `(at, seq)`.
    #[inline]
    pub fn push(&mut self, s: Scheduled) {
        let at = s.at.as_nanos();
        assert!(
            at >= self.now_ns,
            "push at {at} ns is below the wheel clock ({} ns)",
            self.now_ns
        );
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.pool.next(idx);
            self.pool[idx] = Some(s);
            idx
        } else {
            self.pool.grow(s)
        };
        self.link(idx, at);
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
            let idx = self.head[slot];
            let s = self.pool[idx]
                .take()
                .expect("occupied slot with empty bucket");
            self.head[slot] = self.pool.next(idx);
            self.pool.set_next(idx, self.free);
            self.free = idx;
            if self.head[slot] == NIL {
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
        self.bucket((lvl << SLOT_BITS) | slot).min()
    }

    /// The entries of bucket `b`, front to back.
    fn bucket(&self, b: usize) -> impl Iterator<Item = &Scheduled> {
        let live = |i: u32| (i != NIL).then_some(i);
        std::iter::successors(live(self.head[b]), move |&i| live(self.pool.next(i)))
            .map(|i| self.pool[i].as_ref().expect("free node in a bucket list"))
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

    /// Every live entry in bucket order — level, slot, then FIFO — without
    /// allocating (the sanitizer's RTO audit walks this once per audit).
    /// Every entry of a lower level or slot is due earlier, so this is
    /// nearly `(at, seq)` order. O(bitmap words + live entries), however
    /// large the pool once grew.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64, &Event)> {
        let cursor = Iter {
            wheel: self,
            word: 0,
            bits: self.occ[0][0],
            node: NIL,
        };
        cursor.map(|s| (s.at, s.seq, &s.ev))
    }

    /// [`Self::iter`] collected: nearly `(at, seq)` order, which the
    /// snapshot codec's sort then finishes cheaply.
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

    #[test]
    fn pool_follows_pending_entries_not_windows_crossed() {
        // ~1,000 entries pending 1–4 µs ahead while the clock walks 20 ms,
        // i.e. across ~305 level-2 windows (65.536 µs each) and ~78 k
        // level-1 windows: the pattern that, with one vector per bucket,
        // grows every level-1 and level-2 bucket to the in-flight count.
        let mut w = TimingWheel::default();
        let mut seq = 0u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut ahead = |now: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now + 1_000 + x % 3_000
        };
        for _ in 0..1_000 {
            seq += 1;
            w.push(sch(ahead(0), seq));
        }
        let mut peak = w.len();
        let mut slots_at_window = Vec::new();
        let mut window = 0;
        while let Some(s) = w.pop() {
            let now = s.at.as_nanos();
            if now >= 20_000_000 {
                break;
            }
            seq += 1;
            w.push(sch(ahead(now), seq));
            peak = peak.max(w.len());
            assert!(
                w.pool.len as usize <= peak,
                "pool slots {} > peak pending {peak}",
                w.pool.len as usize
            );
            if now >> 16 > window {
                window = now >> 16;
                slots_at_window.push(w.pool.len as usize);
            }
        }
        assert!(
            slots_at_window.len() >= 300,
            "crossed {} level-2 windows",
            slots_at_window.len()
        );
        assert_eq!(
            slots_at_window[10],
            *slots_at_window.last().unwrap(),
            "pool slots grew with the windows crossed"
        );
        assert!(w.stats().max_level >= 2 && w.stats().cascades > 0);
    }

    #[test]
    fn iter_sees_every_live_entry_after_the_pool_drains() {
        let mut w = TimingWheel::default();
        for seq in 1..=100 {
            w.push(sch(seq * 300, seq));
        }
        let live = |w: &TimingWheel| {
            let mut v: Vec<u64> = w.iter().map(|(_, seq, _)| seq).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(live(&w), (1..=100).collect::<Vec<_>>());
        for _ in 0..80 {
            w.pop();
        }
        assert_eq!(live(&w), (81..=100).collect::<Vec<_>>(), "80 free nodes");
        w.push(sch(40_000, 101));
        assert_eq!(live(&w), (81..=101).collect::<Vec<_>>(), "a reused node");
    }

    #[test]
    fn pool_node_is_one_entry_and_a_link() {
        // `None` is a spare `Event` tag: a slot is a bare `Scheduled`.
        let slot = std::mem::size_of::<Option<Scheduled>>();
        assert_eq!(slot, std::mem::size_of::<Scheduled>());
        let node = slot + std::mem::size_of::<u32>();
        assert!(node <= 68, "pool node is {node} B");
        // Under glibc's default mmap threshold (128 KiB): see `CHUNK`.
        assert!(CHUNK * slot < 128 << 10, "pool chunk is {} B", CHUNK * slot);
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
                // `iter()` and `entries()` hold exactly the live entries:
                // a leaked or doubly linked node shows up here first. The
                // heap drained is its entries in (at, seq) order.
                let mut drained: Vec<(u64, u64)> =
                    heap.iter().map(|r| (r.0.at.as_nanos(), r.0.seq)).collect();
                drained.sort_unstable();
                let mut got: Vec<(u64, u64)> =
                    wheel.iter().map(|(at, seq, _)| (at.as_nanos(), seq)).collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &drained, "iter() diverged");
                let mut entries: Vec<(u64, u64)> =
                    wheel.entries().iter().map(|&(at, seq, _)| (at.as_nanos(), seq)).collect();
                entries.sort_unstable();
                prop_assert_eq!(&entries, &drained, "entries() diverged");
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
