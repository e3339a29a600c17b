//! Engine phase profiler and scheduler introspection.
//!
//! Attributes wall-clock time and event counts to engine subsystems —
//! scheduler push/pop, switch forwarding, host/RP compute, CP ticks,
//! telemetry/sanitizer/observatory overhead — and collects the scheduler
//! statistics the timing-wheel redesign needs: push/pop totals, a
//! heap-depth time series, a same-timestamp burst-size histogram, the
//! event-type dispatch mix, and slab/fastmap load figures (the latter
//! read once at export time).
//!
//! ## Design constraints
//!
//! * **One-branch gating.** Every emission site in the hot path costs a
//!   single predictable branch while the profiler is disabled (the
//!   default), exactly like telemetry, the sanitizer, and the
//!   observatory.
//! * **No observer effect.** The profiler reads the host clock and bumps
//!   private counters; it never touches the run RNG, the event queue, or
//!   any CC state, so a profiled run is schedule-bit-identical to an
//!   unprofiled one (`tests/observer_effect.rs` pins this on the faulted
//!   golden seeds).
//! * **Sampled timing.** A host-clock read costs ~20 ns while a whole
//!   engine event dispatches in ~200 ns, so per-transition timing on
//!   every event would cost tens of percent. Instead every `stride`-th
//!   event is *timed*: from its pop to the next pop, every phase
//!   transition reads the clock and the elapsed nanoseconds accrue to
//!   the phase being left. Counts stay exact for every event; wall-time
//!   attribution is statistical, like any sampling profiler. Per-phase
//!   wall estimates are the sampled shares scaled to the run's measured
//!   total wall, so the reported shares sum to the total by
//!   construction. The sampling stride is an event count, not a clock,
//!   so enabling the profiler cannot change the schedule.

use crate::sched::{SchedStats, WHEEL_LEVELS};
use crate::telemetry::Histogram;
use rocc_stats::json;
use std::time::Instant;

/// An engine subsystem that wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Popping the next event off the scheduler heap (includes the heap
    /// sift-down).
    SchedPop = 0,
    /// Pushing a new event onto the scheduler heap (includes the
    /// sift-up); nested inside whichever phase scheduled the event.
    SchedPush = 1,
    /// Switch data path: ingress, routing, queueing, PFC, egress.
    SwitchForward = 2,
    /// Host data path: NIC TX/RX, transport, RP compute, pacing.
    HostCompute = 3,
    /// Periodic switch-CC timers (RoCC fair-rate computation).
    CpTick = 4,
    /// The periodic sample tick: queue/throughput/flow-rate series and
    /// telemetry histograms.
    Telemetry = 5,
    /// The observatory time-series block inside the sample tick.
    Observatory = 6,
    /// Invariant-sanitizer audits and the PFC watchdog.
    Sanitizer = 7,
    /// Engine-level dispatch bookkeeping: budget checks, fault
    /// decisions, flow start/stop routing.
    Dispatch = 8,
}

/// Number of distinct [`Phase`]s.
pub const PHASE_COUNT: usize = 9;

/// JSON/export names, indexed by `Phase as usize`.
pub const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "sched_pop",
    "sched_push",
    "switch_forward",
    "host_compute",
    "cp_tick",
    "telemetry",
    "observatory",
    "sanitizer",
    "dispatch",
];

/// Number of distinct [`crate::engine::Event`] variants in the dispatch
/// mix.
pub const EVENT_KIND_COUNT: usize = 10;

/// Export names for the dispatch mix, indexed by
/// [`crate::engine::Event::kind_idx`].
pub const EVENT_KIND_NAMES: [&str; EVENT_KIND_COUNT] = [
    "arrive",
    "switch_tx_done",
    "host_wake",
    "cp_timer",
    "host_cc_timer",
    "feedback",
    "flow_start",
    "flow_stop",
    "sample",
    "fault",
];

/// Sentinel returned by [`PhaseProfiler::push_begin`] when no phase
/// restore is needed (profiler off, or outside a timed window).
pub const NO_PHASE: usize = usize::MAX;

/// Default sampling stride: one event in 256 is precisely timed. At
/// ~200 ns/event and ~8 clock reads per timed event this keeps the
/// timing cost well under 1% while still collecting thousands of samples
/// per benchmark-sized run.
pub const DEFAULT_STRIDE: u32 = 256;

/// Cap on the heap-depth series length; when full, every other sample is
/// dropped and the sampling stride doubles, so memory stays bounded on
/// arbitrarily long runs while coverage stays uniform.
const HEAP_SERIES_CAP: usize = 4096;

/// One heap-depth sample: simulated time, heap depth, live slab packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSample {
    /// Simulated nanoseconds at the sample.
    pub t_ns: u64,
    /// Scheduler heap length after the pop.
    pub heap: u64,
    /// Live packets in the slab arena.
    pub slab_live: u64,
}

/// The profiler state. Lives in [`crate::engine::Kernel`] so the switch
/// and host hot paths can mark phases through the `&mut Kernel` they
/// already receive.
#[derive(Debug)]
pub struct PhaseProfiler {
    on: bool,
    timing: bool,
    stride: u32,
    countdown: u32,
    current: usize,
    anchor: Instant,
    sampled_ns: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
    timed_events: u64,
    dispatch_mix: [u64; EVENT_KIND_COUNT],
    burst: Histogram,
    burst_ones: u64,
    cur_burst: u64,
    last_at_ns: u64,
    armed: bool,
    heap_series: Vec<DepthSample>,
    /// Per-level wheel occupancy at each heap-depth sample, compacted in
    /// lockstep with `heap_series`.
    level_series: Vec<[u64; WHEEL_LEVELS]>,
    heap_skip_n: u32,
    heap_skip: u32,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        PhaseProfiler {
            on: false,
            timing: false,
            stride: DEFAULT_STRIDE,
            countdown: DEFAULT_STRIDE,
            current: Phase::Dispatch as usize,
            anchor: Instant::now(),
            sampled_ns: [0; PHASE_COUNT],
            counts: [0; PHASE_COUNT],
            timed_events: 0,
            dispatch_mix: [0; EVENT_KIND_COUNT],
            burst: Histogram::new(),
            burst_ones: 0,
            cur_burst: 0,
            last_at_ns: u64::MAX,
            armed: false,
            heap_series: Vec::new(),
            level_series: Vec::new(),
            heap_skip_n: 1,
            heap_skip: 1,
        }
    }
}

impl PhaseProfiler {
    /// Enable with the default sampling stride.
    pub fn enable(&mut self) {
        self.enable_with_stride(DEFAULT_STRIDE);
    }

    /// Enable with a custom sampling stride (1 = time every event;
    /// higher = cheaper and statistically coarser). Counts are exact at
    /// any stride.
    pub fn enable_with_stride(&mut self, stride: u32) {
        self.on = true;
        self.stride = stride.max(1);
        self.armed = true; // time the first event so short runs profile too
        self.countdown = self.stride;
        self.heap_skip_n = 1;
        self.heap_skip = 1;
    }

    /// Whether the profiler is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Flush the open interval into the current phase and move the
    /// anchor (timed windows only).
    #[inline]
    fn flush(&mut self) {
        let now = Instant::now();
        self.sampled_ns[self.current] += now.duration_since(self.anchor).as_nanos() as u64;
        self.anchor = now;
    }

    /// Switch attribution to `p`. One branch when disabled; outside a
    /// timed window only the phase-entry count is bumped.
    #[inline]
    pub fn enter(&mut self, p: Phase) {
        if !self.on {
            return;
        }
        self.counts[p as usize] += 1;
        if self.timing {
            self.flush();
            self.current = p as usize;
        }
    }

    /// An event is being popped: close the previous timed window (if
    /// any) and open a new one when the sampling countdown armed it.
    /// Must be called before the heap pop so the pop itself is
    /// attributed to [`Phase::SchedPop`]. Two predictable branches on
    /// the untimed path — all per-pop counting lives in
    /// [`PhaseProfiler::note_pop`] (`timing`/`armed` stay false while
    /// disabled, so no separate enabled check is needed here).
    #[inline]
    pub fn pop_begin(&mut self) {
        if self.timing {
            self.flush();
            self.timing = false;
        }
        if self.armed {
            self.armed = false;
            self.timing = true;
            self.timed_events += 1;
            self.anchor = Instant::now();
            self.current = Phase::SchedPop as usize;
        }
    }

    /// Scheduler bookkeeping for a successfully popped event: the pop
    /// count, same-instant burst tracking, and the sampling countdown —
    /// which both arms the next timed window (opened by the following
    /// [`PhaseProfiler::pop_begin`]) and paces heap-depth samples.
    /// Returns `true` when a heap-depth sample is due, so the caller
    /// only gathers the (heap depth, slab occupancy) snapshot on that
    /// stride — the common path stays a few compares and increments.
    #[inline]
    #[must_use]
    pub fn note_pop(&mut self, at_ns: u64) -> bool {
        if !self.on {
            return false;
        }
        if at_ns == self.last_at_ns {
            self.cur_burst += 1;
        } else {
            // Size-1 bursts are the overwhelmingly common case; batch
            // them in a counter instead of bucketing per pop.
            // `last_at_ns` is `u64::MAX` until the first pop, so
            // `cur_burst` is 0 exactly once and no burst is recorded.
            if self.cur_burst == 1 {
                self.burst_ones += 1;
            } else if self.cur_burst > 1 {
                self.burst.record(self.cur_burst);
            }
            self.cur_burst = 1;
            self.last_at_ns = at_ns;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.stride;
            self.armed = true;
            self.heap_skip -= 1;
            if self.heap_skip == 0 {
                self.heap_skip = self.heap_skip_n;
                return true;
            }
        }
        false
    }

    /// Record the heap-depth sample a `true` return from
    /// [`PhaseProfiler::note_pop`] asked for. `heap_after` is the queue
    /// length after the pop, `slab_live` the live packet count, and
    /// `levels` the scheduler's per-level bucket occupancy.
    pub fn note_heap_sample(
        &mut self,
        at_ns: u64,
        heap_after: usize,
        slab_live: usize,
        levels: [u64; WHEEL_LEVELS],
    ) {
        self.heap_series.push(DepthSample {
            t_ns: at_ns,
            heap: heap_after as u64,
            slab_live: slab_live as u64,
        });
        self.level_series.push(levels);
        if self.heap_series.len() >= HEAP_SERIES_CAP {
            // Keep every other sample and double the stride: bounded
            // memory, uniform coverage. The level series compacts in
            // lockstep so row i always matches heap_series[i].
            let mut i = 0;
            self.heap_series.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            let mut j = 0;
            self.level_series.retain(|_| {
                j += 1;
                j % 2 == 1
            });
            self.heap_skip_n = self.heap_skip_n.saturating_mul(2);
        }
    }

    /// An event of dispatch-mix kind `kind` enters engine dispatch.
    #[inline]
    pub fn dispatch_begin(&mut self, kind: usize) {
        if !self.on {
            return;
        }
        self.dispatch_mix[kind] += 1;
        if self.timing {
            self.flush();
            self.current = Phase::Dispatch as usize;
        }
    }

    /// A heap push begins (inside [`crate::engine::Kernel::schedule`]).
    /// Returns the phase to restore via [`PhaseProfiler::push_end`], or
    /// [`NO_PHASE`] when nothing needs restoring. Push *totals* are not
    /// counted here — the kernel's monotonic push sequence number
    /// already counts them for free (see
    /// [`crate::engine::Sim::profiled_pushes`]), so the untimed path is
    /// a single predictable branch.
    #[inline]
    pub fn push_begin(&mut self) -> usize {
        if self.timing {
            let prev = self.current;
            self.flush();
            self.current = Phase::SchedPush as usize;
            return prev;
        }
        NO_PHASE
    }

    /// Close a [`PhaseProfiler::push_begin`] window, restoring `prev`.
    #[inline]
    pub fn push_end(&mut self, prev: usize) {
        if prev == NO_PHASE {
            return;
        }
        self.flush();
        self.current = prev;
    }

    /// A run loop is exiting (drained, deadline, budget, or flows done):
    /// close any open timed window so wall time outside the engine is
    /// never attributed to a phase.
    #[inline]
    pub fn run_break(&mut self) {
        if !self.on {
            return;
        }
        if self.timing {
            self.flush();
            self.timing = false;
        }
    }

    /// Total heap pops dispatched while enabled, derived from the
    /// dispatch mix (every successfully popped event enters dispatch
    /// exactly once) so the pop hot path never bumps a dedicated
    /// counter. Push totals come from the kernel's push sequence number
    /// via [`crate::engine::Sim::profiled_pushes`].
    pub fn pops(&self) -> u64 {
        self.dispatch_mix.iter().sum()
    }

    /// Events precisely timed by the sampling stride.
    pub fn timed_events(&self) -> u64 {
        self.timed_events
    }

    /// The strided heap-depth/slab-occupancy time series.
    pub fn heap_series(&self) -> &[DepthSample] {
        &self.heap_series
    }

    /// The per-level wheel-occupancy series, row-aligned with
    /// [`PhaseProfiler::heap_series`].
    pub fn level_series(&self) -> &[[u64; WHEEL_LEVELS]] {
        &self.level_series
    }

    /// The same-timestamp burst-size histogram, including the burst
    /// still open at call time.
    pub fn burst_histogram(&self) -> Histogram {
        let mut h = self.burst.clone();
        h.record_n(1, self.burst_ones);
        if self.cur_burst > 0 {
            h.record(self.cur_burst);
        }
        h
    }

    /// The event-type dispatch mix as `(name, count)` pairs, in
    /// [`EVENT_KIND_NAMES`] order.
    pub fn dispatch_mix(&self) -> Vec<(&'static str, u64)> {
        EVENT_KIND_NAMES
            .iter()
            .zip(self.dispatch_mix.iter())
            .map(|(&n, &c)| (n, c))
            .collect()
    }

    /// Per-phase share of sampled wall time, as `(name, share, count)`
    /// rows in [`PHASE_NAMES`] order. Shares sum to 1.0 when anything
    /// was timed, 0.0 otherwise. `pushes` is the run's push total,
    /// supplied by the caller because the kernel's push sequence number
    /// counts it for free (see [`crate::engine::Sim::profiled_pushes`]).
    pub fn phase_shares(&self, pushes: u64) -> Vec<(&'static str, f64, u64)> {
        let total: u64 = self.sampled_ns.iter().sum();
        // The pop and dispatch entry counts live in the mix (one entry
        // per dispatched event); materialize them here rather than
        // paying dedicated counter bumps per event in the hot path.
        let mut counts = self.counts;
        counts[Phase::SchedPop as usize] = self.pops();
        counts[Phase::Dispatch as usize] = self.pops();
        counts[Phase::SchedPush as usize] = pushes;
        PHASE_NAMES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let share = if total > 0 {
                    self.sampled_ns[i] as f64 / total as f64
                } else {
                    0.0
                };
                (n, share, counts[i])
            })
            .collect()
    }

    /// Render the `rocc-perf-profile/v1` JSON artifact. The engine-level
    /// context (total wall, slab/fastmap figures) comes from the caller
    /// because the profiler itself only sees phases and the scheduler.
    pub fn report_json(&self, ctx: &ProfileContext) -> String {
        let eps = if ctx.wall_ns > 0 {
            ctx.events as f64 / (ctx.wall_ns as f64 / 1e9)
        } else {
            0.0
        };
        let depth = self
            .heap_series
            .iter()
            .map(|s| [s.t_ns, s.heap, s.slab_live]);
        json::object(|o| {
            o.field("schema", "rocc-perf-profile/v1")
                .field("events_processed", &ctx.events)
                .field("wall_seconds", &(ctx.wall_ns as f64 / 1e9))
                .field("sim_seconds", &(ctx.sim_ns as f64 / 1e9))
                .field("events_per_sec", &eps)
                .object("sampling", |o| {
                    o.field("stride", &self.stride)
                        .field("timed_events", &self.timed_events);
                })
                .objects(
                    "phases",
                    self.phase_shares(ctx.pushes),
                    |o, (name, share, count)| {
                        o.field("phase", name)
                            .field("share", &share)
                            .field("wall_ns", &((share * ctx.wall_ns as f64) as u64))
                            .field("count", &count);
                    },
                )
                .object("scheduler", |o| {
                    o.field("backend", "wheel")
                        .field("pushes", &ctx.pushes)
                        .field("pops", &self.pops())
                        .field("peak_heap", &ctx.peak_heap)
                        .field("pending", &ctx.pending)
                        .field("cascades", &ctx.sched.cascades)
                        .field("cascaded_events", &ctx.sched.cascaded_events)
                        .field("rebases", &ctx.sched.rebases)
                        .field("max_level", &ctx.sched.max_level)
                        .field("level_depths", &ctx.level_depths)
                        .raw("burst_hist", &self.burst_histogram().to_json("events"))
                        .field("heap_depth_series", &depth.collect::<Vec<_>>())
                        .field("level_series", &self.level_series)
                        .objects("dispatch_mix", self.dispatch_mix(), |o, (n, c)| {
                            o.field("event", n).field("count", &c);
                        });
                })
                .object("slab", |o| {
                    o.field("live", &ctx.slab_live)
                        .field("peak_live", &ctx.slab_peak);
                })
                .object("fastmap", |o| {
                    o.field("flow_dir_entries", &ctx.flow_dir_entries);
                });
        })
    }
}

/// Engine-level context for [`PhaseProfiler::report_json`], gathered by
/// [`crate::engine::Sim::perf_profile_json`].
#[derive(Debug, Clone, Copy)]
pub struct ProfileContext {
    /// Events dispatched so far.
    pub events: u64,
    /// Heap pushes so far (the kernel's push sequence number — see
    /// [`crate::engine::Sim::profiled_pushes`]).
    pub pushes: u64,
    /// Wall nanoseconds accumulated inside run loops.
    pub wall_ns: u64,
    /// Simulated nanoseconds covered by the run.
    pub sim_ns: u64,
    /// Peak scheduler-heap length over the whole run.
    pub peak_heap: usize,
    /// Scheduler-heap length at export time.
    pub pending: usize,
    /// Live packets in the slab arena at export time.
    pub slab_live: usize,
    /// Slab high-water mark over the whole run.
    pub slab_peak: usize,
    /// Entries in the flow directory (the hottest fastmap).
    pub flow_dir_entries: usize,
    /// Scheduler introspection counters (cascades, deepest level).
    pub sched: SchedStats,
    /// Per-level wheel occupancy at export time.
    pub level_depths: [u64; WHEEL_LEVELS],
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ProfileContext {
        ProfileContext {
            events: 1000,
            pushes: 7,
            wall_ns: 2_000_000,
            sim_ns: 500_000,
            peak_heap: 40,
            pending: 3,
            slab_live: 2,
            slab_peak: 17,
            flow_dir_entries: 6,
            sched: SchedStats {
                cascades: 3,
                cascaded_events: 11,
                rebases: 1,
                max_level: 4,
            },
            level_depths: [1, 0, 2, 0, 0, 0, 0, 0],
        }
    }

    #[test]
    fn disabled_profiler_collects_nothing() {
        let mut p = PhaseProfiler::default();
        p.pop_begin();
        assert!(!p.note_pop(10));
        p.enter(Phase::SwitchForward);
        let prev = p.push_begin();
        assert_eq!(prev, NO_PHASE);
        p.push_end(prev);
        p.dispatch_begin(0);
        p.run_break();
        assert_eq!(p.pops(), 0);
        assert!(p.heap_series().is_empty());
        assert_eq!(p.burst_histogram().count(), 0);
        assert!(p
            .phase_shares(0)
            .iter()
            .all(|(_, s, c)| *s == 0.0 && *c == 0));
    }

    #[test]
    fn counts_are_exact_and_shares_sum_to_one() {
        let mut p = PhaseProfiler::default();
        p.enable_with_stride(1); // time every event
        for i in 0..100u64 {
            p.pop_begin();
            if p.note_pop(i * 10) {
                p.note_heap_sample(i * 10, 5, 1, [0; WHEEL_LEVELS]);
            }
            p.dispatch_begin(0);
            p.enter(Phase::SwitchForward);
            let prev = p.push_begin();
            p.push_end(prev);
        }
        p.run_break();
        assert_eq!(p.pops(), 100);
        assert_eq!(p.timed_events(), 100);
        let shares = p.phase_shares(100);
        let sum: f64 = shares.iter().map(|(_, s, _)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        let by_name: std::collections::HashMap<&str, u64> =
            shares.iter().map(|&(n, _, c)| (n, c)).collect();
        assert_eq!(by_name["sched_pop"], 100);
        assert_eq!(by_name["sched_push"], 100);
        assert_eq!(by_name["switch_forward"], 100);
        assert_eq!(by_name["dispatch"], 100);
        assert_eq!(by_name["sanitizer"], 0);
    }

    #[test]
    fn sampling_stride_times_a_subset_but_counts_all() {
        let mut p = PhaseProfiler::default();
        p.enable_with_stride(8);
        for i in 0..64u64 {
            p.pop_begin();
            if p.note_pop(i) {
                p.note_heap_sample(i, 3, 0, [0; WHEEL_LEVELS]);
            }
            p.dispatch_begin(1);
        }
        p.run_break();
        assert_eq!(p.pops(), 64);
        // First event is always timed, then every 8th.
        assert_eq!(p.timed_events(), 1 + 63 / 8);
        let mix = p.dispatch_mix();
        assert_eq!(mix[1], ("switch_tx_done", 64));
    }

    #[test]
    fn burst_histogram_groups_same_timestamp_pops() {
        let mut p = PhaseProfiler::default();
        p.enable();
        // Bursts of 3, 1, 2 (the last closed by burst_histogram()).
        for at in [5, 5, 5, 9, 12, 12] {
            p.pop_begin();
            if p.note_pop(at) {
                p.note_heap_sample(at, 1, 0, [0; WHEEL_LEVELS]);
            }
        }
        let h = p.burst_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 3);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn heap_series_compacts_at_cap() {
        let mut p = PhaseProfiler::default();
        p.enable_with_stride(1);
        for i in 0..20_000u64 {
            p.pop_begin();
            if p.note_pop(i) {
                p.note_heap_sample(i, (i % 100) as usize, 0, [0; WHEEL_LEVELS]);
            }
        }
        assert!(p.heap_series().len() < HEAP_SERIES_CAP);
        assert_eq!(
            p.level_series().len(),
            p.heap_series().len(),
            "level series must compact in lockstep"
        );
        assert!(p.heap_skip_n > 1, "stride must grow under compaction");
        // Still covers the run: last sample is near the end.
        assert!(p.heap_series().last().unwrap().t_ns > 10_000);
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut p = PhaseProfiler::default();
        p.enable_with_stride(1);
        for i in 0..10u64 {
            p.pop_begin();
            if p.note_pop(i * 7) {
                p.note_heap_sample(i * 7, 4, 2, [0; WHEEL_LEVELS]);
            }
            p.dispatch_begin(0);
            p.enter(Phase::HostCompute);
        }
        p.run_break();
        let j = p.report_json(&ctx());
        assert!(j.starts_with("{\"schema\":\"rocc-perf-profile/v1\""));
        assert!(j.contains("\"phases\":["));
        assert!(j.contains("\"phase\":\"sched_pop\""));
        assert!(j.contains("\"burst_hist\":{"));
        assert!(j.contains("\"backend\":\"wheel\""));
        assert!(j.contains("\"cascades\":3"));
        assert!(j.contains("\"rebases\":1"));
        assert!(j.contains("\"level_depths\":[1,0,2,0,0,0,0,0]"));
        assert!(j.contains("\"level_series\":[["));
        assert!(j.contains("\"heap_depth_series\":[["));
        assert!(j.contains("\"dispatch_mix\":[{"));
        assert!(j.contains("\"flow_dir_entries\":6"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
