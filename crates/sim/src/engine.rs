//! The discrete-event engine.
//!
//! A single event queue drives the whole network: a hierarchical timing
//! wheel (see [`crate::sched`] and DESIGN.md §3j). Events at the same
//! instant are ordered by insertion sequence number, making every run
//! bit-for-bit deterministic for a given seed.
//!
//! Packets in flight live in the kernel's [`PacketSlab`] as 72-byte heads;
//! the dominant `Arrive` event carries a 4-byte [`PacketRef`] instead of
//! the 336-byte `Packet` itself, so every scheduler move shifts a small
//! fixed-size key (see DESIGN.md §3e).

use crate::cc::{FeedbackEvent, HostCcFactory, SwitchCcFactory};
use crate::config::SimConfig;
use crate::fastmap::FxHashMap;
use crate::fault::{FaultDecision, FaultEvent, FaultState, FaultTarget};
use crate::host::{Host, RTO_TOKEN};
use crate::packet::{FlowId, PacketKind};
use crate::profiler::{Phase, PhaseProfiler, ProfileContext};
use crate::sanitizer::{
    scan_pause_graph, AuditScope, AuditView, RunVerdict, SanLedger, Sanitizer, SimError,
    DEFAULT_AUDIT_PERIOD,
};
use crate::sched::{Scheduled, TimingWheel};
use crate::slab::{PacketRef, PacketSlab};
use crate::snapshot::{self, SnapWriter, SnapshotError};
use crate::switch::Switch;
use crate::telemetry::{DropCause, EventMask, SimEvent, SimProfile};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, NodeRole, PortId, Topology};
use crate::trace::Trace;
use crate::units::BitRate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::Entry;

/// Everything that can happen.
#[derive(Debug, Clone)]
pub enum Event {
    /// A packet reaches the receiving end of `link`. The packet lives in
    /// the kernel's slab; the event carries only its ref.
    Arrive {
        /// The traversed link.
        link: LinkId,
        /// Slab ref of the packet in flight.
        pr: PacketRef,
    },
    /// A switch egress port's frame finished serializing while another
    /// frame waited behind it (a drain: see [`crate::switch`]).
    SwitchTxDone {
        /// The switch.
        node: NodeId,
        /// The egress port.
        port: PortId,
    },
    /// A host NIC may start its next frame: the one on the wire has been
    /// serialized or a pacing wait has matured (see [`crate::host`]).
    HostWake {
        /// The host.
        node: NodeId,
    },
    /// Periodic switch-CC timer (RoCC fair-rate computation).
    CpTimer {
        /// The switch.
        node: NodeId,
        /// The port whose CC ticks.
        port: PortId,
    },
    /// A per-flow host timer (CC tokens 0..=2, transport RTO token 3).
    HostCcTimer {
        /// The host.
        node: NodeId,
        /// The flow.
        flow: FlowId,
        /// Timer slot.
        token: u8,
        /// Generation at arming time; stale generations are ignored.
        gen: u64,
    },
    /// RP-delayed congestion feedback delivery to a sender flow.
    Feedback {
        /// The host.
        node: NodeId,
        /// The flow.
        flow: FlowId,
        /// The feedback.
        fb: FeedbackEvent,
    },
    /// A workload flow becomes active.
    FlowStart {
        /// Index into the registered flow list.
        idx: usize,
    },
    /// A long-running flow is stopped.
    FlowStop {
        /// The flow.
        flow: FlowId,
    },
    /// Periodic trace sampling tick.
    Sample,
    /// A scheduled fault transition (link flap edge, host pause / crash /
    /// restore) from the run's [`crate::fault::FaultPlan`].
    Fault(FaultEvent),
}

impl Event {
    /// Index into [`crate::profiler::EVENT_KIND_NAMES`] for the
    /// profiler's dispatch mix.
    pub fn kind_idx(&self) -> usize {
        match self {
            Event::Arrive { .. } => 0,
            Event::SwitchTxDone { .. } => 1,
            Event::HostWake { .. } => 2,
            Event::CpTimer { .. } => 3,
            Event::HostCcTimer { .. } => 4,
            Event::Feedback { .. } => 5,
            Event::FlowStart { .. } => 6,
            Event::FlowStop { .. } => 7,
            Event::Sample => 8,
            Event::Fault(_) => 9,
        }
    }
}

/// Shared mutable engine state handed to node handlers: the clock, the
/// event queue, the RNG, and the global configuration.
pub struct Kernel {
    /// Current simulation time.
    pub now: SimTime,
    /// Global configuration.
    pub config: SimConfig,
    /// Deterministic run RNG.
    pub rng: StdRng,
    /// Fault-injection runtime state: the plan, a dedicated PRNG independent
    /// of [`Kernel::rng`], and which links/hosts are currently down.
    pub faults: FaultState,
    /// Byte-conservation ledger for the invariant sanitizer. A single
    /// predictable branch per hook while disabled (the default).
    pub san: SanLedger,
    /// Arena of packets on the wire or parked in switch queues; `Arrive`
    /// events and switch queues hold [`PacketRef`]s into it.
    pub packets: PacketSlab,
    /// Phase profiler and scheduler introspection. A single predictable
    /// branch per hook while disabled (the default); node handlers mark
    /// their phases through the `&mut Kernel` they already receive.
    pub prof: PhaseProfiler,
    pub(crate) sched: TimingWheel,
    seq: u64,
    peak_heap: usize,
}

impl Kernel {
    pub(crate) fn new(config: SimConfig, n_links: usize, n_nodes: usize) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let faults = FaultState::new(config.fault_plan.clone(), config.seed, n_links, n_nodes);
        Kernel {
            now: SimTime::ZERO,
            config,
            rng,
            faults,
            san: SanLedger::default(),
            packets: PacketSlab::new(),
            prof: PhaseProfiler::default(),
            sched: TimingWheel::default(),
            seq: 0,
            peak_heap: 0,
        }
    }

    /// Schedule `ev` at absolute time `at`, which must not be behind
    /// [`Kernel::now`]. Handlers schedule `now + d` with a non-negative
    /// [`SimDuration`], so an earlier instant is a bug in the caller: it
    /// panics here, naming the event and both instants, instead of
    /// dispatching the event out of time order.
    pub fn schedule(&mut self, at: SimTime, ev: Event) {
        if at < self.now {
            scheduled_into_the_past(at, self.now, &ev);
        }
        let prof_prev = self.prof.push_begin();
        if self.san.on() {
            if let Event::Arrive { pr, .. } = &ev {
                let wire = self.packets.get(*pr).wire_bytes();
                self.san.heap_add(wire);
            }
        }
        self.seq += 1;
        self.sched.push(Scheduled {
            at,
            seq: self.seq,
            ev,
        });
        if self.sched.len() > self.peak_heap {
            self.peak_heap = self.sched.len();
        }
        self.prof.push_end(prof_prev);
    }

    /// Take the next event off the queue if it is due by `limit`.
    pub(crate) fn pop_until(&mut self, limit: SimTime) -> Option<Scheduled> {
        let s = self.sched.pop_until(limit);
        if self.san.on() {
            if let Some(Scheduled {
                ev: Event::Arrive { pr, .. },
                ..
            }) = &s
            {
                let wire = self.packets.get(*pr).wire_bytes();
                self.san.heap_sub(wire);
            }
        }
        s
    }

    /// Number of pending events (diagnostics).
    pub fn pending(&self) -> usize {
        self.sched.len()
    }

    /// Largest event-queue length observed so far (self-profiling).
    pub fn peak_pending(&self) -> usize {
        self.peak_heap
    }

    /// Scheduler introspection counters (cascades, deepest level).
    pub fn scheduler_stats(&self) -> crate::sched::SchedStats {
        self.sched.stats()
    }
}

/// The [`Kernel::schedule`] contract violation, out of line so the hot
/// path stays one compare.
#[cold]
#[inline(never)]
fn scheduled_into_the_past(at: SimTime, now: SimTime, ev: &Event) -> ! {
    // Format a copy: `ev` itself then never escapes, so LLVM still treats
    // `schedule`'s event argument as not captured and lays out its callers
    // (the run loop among them) as it would without this check.
    let ev = ev.clone();
    panic!(
        "{ev:?} scheduled into the past: at {} ns, clock at {} ns",
        at.as_nanos(),
        now.as_nanos()
    );
}

/// Description of one application flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Globally unique flow id.
    pub id: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Bytes to transfer; `u64::MAX` means "until stopped".
    pub size: u64,
    /// Activation time.
    pub start: SimTime,
    /// Optional application offered-rate cap (open-loop senders).
    pub offered: Option<BitRate>,
}

/// The registered flows, each stored once: the list in registration order
/// (a `FlowStart` event carries a position in it) and, by id, each flow's
/// position (FCT bookkeeping, receiver and source lookups).
#[derive(Default)]
pub(crate) struct FlowDir {
    flows: Vec<FlowSpec>,
    index: FxHashMap<FlowId, usize>,
}

impl FlowDir {
    /// Append `spec`; returns its position. Panics on a duplicate id.
    fn insert(&mut self, spec: FlowSpec) -> usize {
        let idx = self.flows.len();
        match self.index.entry(spec.id) {
            Entry::Occupied(_) => panic!("duplicate flow id {:?}", spec.id),
            Entry::Vacant(v) => v.insert(idx),
        };
        self.flows.push(spec);
        idx
    }

    /// The flow registered as `id`.
    pub(crate) fn get(&self, id: FlowId) -> Option<&FlowSpec> {
        self.index.get(&id).map(|&i| &self.flows[i])
    }

    /// Registered flows.
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }
}

/// One slot per node for the whole run, indexed by [`NodeId`]; the size gap
/// is irrelevant.
#[allow(clippy::large_enum_variant)]
pub(crate) enum NodeSlot {
    Host(Host),
    Switch(Switch),
}

impl NodeSlot {
    /// Snapshot section (= digest component) name of node `i`.
    fn section_name(&self, i: usize) -> String {
        match self {
            NodeSlot::Host(_) => format!("host/{i}"),
            NodeSlot::Switch(_) => format!("switch/{i}"),
        }
    }
}

/// Consumer of auto-checkpoints: called with `(events_processed, bytes)`
/// at every checkpoint stride.
pub type CheckpointSink = Box<dyn FnMut(u64, &[u8])>;

/// Auto-checkpoint policy: every `stride` dispatched events the engine
/// serializes itself ([`Sim::snapshot`]) and hands the bytes to `sink`.
/// One of the strides behind the run loop's probe countdown
/// ([`Sim::probe`]); disabled, it costs the loop nothing.
struct CheckpointPolicy {
    stride: u64,
    sink: CheckpointSink,
}

/// Events between wall-clock budget checks.
const WALL_CHECK_STRIDE: u64 = 4096;

/// Where a [`Sim::run`] call stops short of a drained queue or a tripped
/// budget: at the first of these to be met.
struct Stop {
    /// Simulated-time limit; events due at exactly `time` still run.
    time: SimTime,
    /// Total dispatched-event count to stop at.
    events: u64,
    /// Stop once every registered finite flow has completed.
    flows: bool,
}

/// Why a [`Sim::run`] call returned.
enum Halt {
    /// The stop's event count or flow completion was reached.
    Reached,
    /// The event queue is empty.
    Drained,
    /// The next event is due after the stop's time limit, which the clock
    /// now reads.
    Deadline,
    /// A run budget tripped, or an audit failed on the way to flow completion.
    Failed(SimError),
}

/// What the sanitizer audits and the pause-graph scan walks (a free
/// function, so `Sim`'s other fields can be borrowed mutably beside it).
fn audit_view<'a>(
    kernel: &'a Kernel,
    topo: &'a Topology,
    nodes: &'a [NodeSlot],
    flow_dir: &'a FlowDir,
) -> AuditView<'a> {
    AuditView {
        now: kernel.now,
        config: &kernel.config,
        topo,
        faults: &kernel.faults,
        nodes,
        flow_dir,
        ledger: &kernel.san,
        packets: &kernel.packets,
        sched: &kernel.sched,
    }
}

/// A fully wired simulation: topology + nodes + flows + instrumentation.
pub struct Sim {
    /// Engine state (clock, queue, RNG, config).
    pub kernel: Kernel,
    topo: Topology,
    nodes: Vec<NodeSlot>,
    /// Collected instrumentation.
    pub trace: Trace,
    flow_dir: FlowDir,
    /// Registered finite flows (size < `u64::MAX`), maintained by
    /// `add_flow` so completion detection never rescans the flow list.
    finite_flows: u64,
    host_cc: Box<dyn HostCcFactory>,
    events_processed: u64,
    /// Event count from which the run loop next calls [`Sim::probe`]
    /// (see there); 0 means "after the next event".
    probe_at: u64,
    /// Consecutive events dispatched without simulated time advancing
    /// (the livelock detector's odometer; reset whenever the clock moves).
    stall_run: u64,
    /// Budget failure recorded by an open-ended run (bounded runs return
    /// theirs through the [`RunVerdict`] instead).
    budget_failure: Option<SimError>,
    wall: std::time::Duration,
    /// Whether the first-run sampling tick has been scheduled; guards
    /// against double-scheduling across run calls at t = 0.
    sampling_bootstrapped: bool,
    sanitizer: Sanitizer,
    checkpoint: Option<CheckpointPolicy>,
    /// Strided per-component digest recorder (the divergence
    /// observatory's `rocc-digest-ledger/v1`; see [`crate::digest`]).
    /// Same gating as checkpointing: a stride behind the probe countdown,
    /// and enabled recording is pure observation.
    digest_ledger: Option<crate::digest::DigestLedger>,
}

impl Sim {
    /// Build a simulation over `topo` with the given CC factories.
    ///
    /// Panics if `config` is inconsistent with the topology (see
    /// [`SimConfig::validate`]): a silently misbehaving run is worse than a
    /// loud constructor. The `ROCC_SANITIZE` environment variable (any value
    /// but `0`) enables the invariant sanitizer on every constructed `Sim` —
    /// this is how CI runs the whole suite audited.
    pub fn new(
        topo: Topology,
        config: SimConfig,
        host_cc: Box<dyn HostCcFactory>,
        switch_cc: Box<dyn SwitchCcFactory>,
    ) -> Self {
        if let Err(e) = config.validate(&topo) {
            panic!("invalid SimConfig: {e}");
        }
        let mut kernel = Kernel::new(config, topo.links().len(), topo.nodes().len());
        for (at, fe) in kernel.faults.scheduled_events() {
            kernel.schedule(at, Event::Fault(fe));
        }
        let mut nodes = Vec::with_capacity(topo.nodes().len());
        for (i, info) in topo.nodes().iter().enumerate() {
            let id = NodeId(i);
            match info.role {
                NodeRole::Host => nodes.push(NodeSlot::Host(Host::new(id, &topo))),
                _ => {
                    let sw = Switch::new(id, &topo, |cp, rate| switch_cc.make(cp, rate));
                    let now = kernel.now;
                    sw.schedule_cc_timers(&mut kernel, now);
                    nodes.push(NodeSlot::Switch(sw));
                }
            }
        }
        let mut sim = Sim {
            kernel,
            topo,
            nodes,
            trace: Trace::new(),
            flow_dir: FlowDir::default(),
            finite_flows: 0,
            host_cc,
            events_processed: 0,
            probe_at: 0,
            stall_run: 0,
            budget_failure: None,
            wall: std::time::Duration::ZERO,
            sampling_bootstrapped: false,
            sanitizer: Sanitizer::default(),
            checkpoint: None,
            digest_ledger: None,
        };
        if std::env::var("ROCC_SANITIZE").map(|v| v != "0").unwrap_or(false) {
            sim.enable_sanitizer();
        }
        sim
    }

    /// Enable the invariant sanitizer and PFC watchdog at the default audit
    /// cadence ([`DEFAULT_AUDIT_PERIOD`]).
    pub fn enable_sanitizer(&mut self) {
        self.enable_sanitizer_with_period(DEFAULT_AUDIT_PERIOD);
    }

    /// Enable the sanitizer with a custom audit period. Shorter periods
    /// tighten deadlock-confirmation latency at more audit cost; results
    /// stay bit-identical either way.
    pub fn enable_sanitizer_with_period(&mut self, period: SimDuration) {
        self.kernel.san.enable();
        let now = self.kernel.now;
        self.sanitizer.enable(now, period);
        self.probe_at = 0;
    }

    /// The sanitizer/watchdog state (pause fractions, victims, report).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    #[cfg(test)]
    pub(crate) fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.sanitizer
    }

    /// The topology under simulation.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Total events processed so far (diagnostics / benchmarks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Every registered flow, in registration order (trace exporters,
    /// cross-run analysis).
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flow_dir.flows
    }

    /// Self-profiling summary: events processed, wall-clock and simulated
    /// seconds, events/sec. Wall time is accumulated across all run
    /// calls; it reads the host clock only at run-loop entry/exit, so it
    /// cannot perturb simulated state. Everything counts from
    /// construction (wall time from the last [`Sim::restore`]).
    pub fn profile(&self) -> SimProfile {
        SimProfile {
            events_processed: self.events_processed,
            wall_seconds: self.wall.as_secs_f64(),
            sim_seconds: self.kernel.now.as_secs_f64(),
        }
    }

    /// Heap pushes so far: the kernel's monotonic push sequence number
    /// (maintained for event ordering regardless of the profiler), so
    /// counting pushes costs the hot path nothing.
    pub fn profiled_pushes(&self) -> u64 {
        self.kernel.seq
    }

    /// Enable the phase profiler at the default sampling stride
    /// ([`crate::profiler::DEFAULT_STRIDE`]). Pure observation: a
    /// profiled run is schedule-bit-identical to an unprofiled one.
    pub fn enable_profiler(&mut self) {
        self.kernel.prof.enable();
    }

    /// Export the `rocc-perf-profile/v1` JSON artifact: per-phase wall
    /// shares, scheduler introspection (push/pop totals, heap-depth
    /// series, burst histogram, dispatch mix), and slab/fastmap load.
    /// Meaningful after a run with [`Sim::enable_profiler`] on; without
    /// it the phase and scheduler sections are empty but the document is
    /// still well-formed.
    pub fn perf_profile_json(&self) -> String {
        let p = self.profile();
        self.kernel.prof.report_json(&ProfileContext {
            events: p.events_processed,
            pushes: self.profiled_pushes(),
            wall_ns: (p.wall_seconds * 1e9) as u64,
            sim_ns: (p.sim_seconds * 1e9) as u64,
            peak_heap: self.kernel.peak_pending(),
            pending: self.kernel.pending(),
            slab_live: self.kernel.packets.live(),
            slab_peak: self.kernel.packets.peak_live(),
            flow_dir_entries: self.flow_dir.len(),
            sched: self.kernel.sched.stats(),
            level_depths: self.kernel.sched.level_depths(),
        })
    }

    /// Register a flow; it will activate at `spec.start`, which must not
    /// be behind the clock (a flow registered mid-run starts at `now` at
    /// the earliest; [`Kernel::schedule`] panics otherwise).
    pub fn add_flow(&mut self, spec: FlowSpec) {
        let idx = self.flow_dir.insert(spec);
        if spec.size != u64::MAX {
            self.finite_flows += 1;
        }
        self.kernel.schedule(spec.start, Event::FlowStart { idx });
    }

    /// Stop a long-running flow at `t`, which must not be behind the
    /// clock ([`Kernel::schedule`] panics otherwise).
    pub fn stop_flow_at(&mut self, flow: FlowId, t: SimTime) {
        self.kernel.schedule(t, Event::FlowStop { flow });
    }

    /// Host accessor (sampling, assertions in tests).
    pub fn host(&self, id: NodeId) -> &Host {
        match &self.nodes[id.0] {
            NodeSlot::Host(h) => h,
            NodeSlot::Switch(_) => panic!("{id:?} is a switch, not a host"),
        }
    }

    #[cfg(test)]
    pub(crate) fn host_mut(&mut self, id: NodeId) -> &mut Host {
        match &mut self.nodes[id.0] {
            NodeSlot::Host(h) => h,
            NodeSlot::Switch(_) => panic!("{id:?} is a switch, not a host"),
        }
    }

    /// Switch accessor (sampling, assertions in tests).
    pub fn switch(&self, id: NodeId) -> &Switch {
        match &self.nodes[id.0] {
            NodeSlot::Switch(s) => s,
            NodeSlot::Host(_) => panic!("{id:?} is a host, not a switch"),
        }
    }

    /// Run until the virtual clock reaches `t_end` (events at exactly
    /// `t_end` are processed) or the event queue drains. A `t_end` behind
    /// the clock dispatches nothing and leaves the clock where it is.
    pub fn run_until(&mut self, t_end: SimTime) {
        self.run_open(Stop { time: t_end, events: u64::MAX, flows: false });
    }

    /// Run until `events` events have been dispatched in total (see
    /// [`Sim::events_processed`]) or the queue drains; returns whether the
    /// count was reached. The way to bring a sim to an exact event index
    /// (a snapshot, a perturbation, a bisection probe): the state it
    /// leaves is byte-identical to any other entry point's at that index.
    pub fn run_until_event(&mut self, events: u64) -> bool {
        self.run_open(Stop { time: SimTime::MAX, events, flows: false });
        self.events_processed >= events
    }

    /// Process exactly one pending event. Returns `false` when nothing was
    /// dispatched: the queue is empty or a run budget tripped (see
    /// [`Sim::budget_failure`]). A `step` loop costs two host-clock reads
    /// per call ([`Sim::profile`]'s wall accounting) over one longer run.
    pub fn step(&mut self) -> bool {
        let before = self.events_processed;
        self.run_until_event(before + 1);
        self.events_processed > before
    }

    /// Run a stop that has no verdict to return: a failure is recorded
    /// ([`Sim::budget_failure`]) and published instead.
    fn run_open(&mut self, stop: Stop) {
        if let Halt::Failed(e) = self.run(stop) {
            let v = RunVerdict::Failed(e);
            self.publish_verdict(&v);
            if let RunVerdict::Failed(e) = v {
                self.budget_failure = Some(e);
            }
        }
    }

    /// Schedule the first sampling tick exactly once (so stepping at
    /// t = 0 cannot double-schedule it).
    fn bootstrap_sampling(&mut self) {
        if self.sampling_bootstrapped {
            return;
        }
        if let Some(p) = self.trace.sample_period {
            if self.kernel.now == SimTime::ZERO {
                self.sampling_bootstrapped = true;
                self.kernel.schedule(SimTime::ZERO + p, Event::Sample);
            }
        }
    }

    /// Take the next event off the queue if it is due by `limit`,
    /// routing scheduler accounting through the phase profiler (one
    /// branch each way when disabled). Out of line, like [`Sim::dispatch`],
    /// and handing the wheel's `Option` on untouched: across a call the
    /// 64-byte `Scheduled` moves as four aligned 16-byte words; inlined (or
    /// unwrapped and re-wrapped) LLVM splits it into overlapping pieces
    /// whose reloads miss store forwarding, +15 ns/event on the benchmark.
    #[inline(never)]
    fn pop_until(&mut self, limit: SimTime) -> Option<Scheduled> {
        self.kernel.prof.pop_begin();
        let s = self.kernel.pop_until(limit);
        if let Some(sch) = &s {
            if self.kernel.prof.note_pop(sch.at.as_nanos()) {
                let depth = self.kernel.pending();
                let live = self.kernel.packets.live();
                let levels = self.kernel.sched.level_depths();
                self.kernel
                    .prof
                    .note_heap_sample(sch.at.as_nanos(), depth, live, levels);
            }
        }
        s
    }

    /// The run loop: every public entry point is this with a different
    /// [`Stop`]. An event leaves the queue only to be dispatched — the
    /// time limit is checked inside the pop, everything else before it:
    /// [`Sim::gate`] vets the call's first event, and each later one is
    /// vetted by the probe after its predecessor or, between probes (when
    /// no budget can trip), by `reached` alone.
    fn run(&mut self, stop: Stop) -> Halt {
        let started = std::time::Instant::now();
        self.bootstrap_sampling();
        let stall_trip = self.kernel.config.budget.stall_events.unwrap_or(u64::MAX);
        let halt = match self.gate(&stop, started) {
            Some(halt) => halt,
            None => loop {
                let Some(s) = self.pop_until(stop.time) else {
                    if self.kernel.pending() == 0 {
                        break Halt::Drained;
                    }
                    // `max`: a limit behind the clock must not rewind it.
                    self.kernel.now = self.kernel.now.max(stop.time);
                    break Halt::Deadline;
                };
                // The livelock odometer: consecutive events without the
                // clock moving. One short of its budget, ask for the probe.
                if s.at > self.kernel.now {
                    self.stall_run = 0;
                } else {
                    self.stall_run += 1;
                    if self.stall_run + 1 >= stall_trip {
                        self.probe_at = 0;
                    }
                }
                self.kernel.now = s.at;
                self.events_processed += 1;
                self.dispatch(s.ev);
                if self.events_processed >= self.probe_at {
                    if let Some(halt) = self.probe(&stop, started) {
                        break halt;
                    }
                } else if self.reached(&stop) {
                    break Halt::Reached;
                }
            },
        };
        self.kernel.prof.run_break();
        self.wall += started.elapsed();
        halt
    }

    /// Whether `stop`'s event count or flow completion has been reached.
    fn reached(&self, stop: &Stop) -> bool {
        self.events_processed >= stop.events
            || (stop.flows && self.trace.fcts.len() as u64 >= self.finite_flows)
    }

    /// May the next event be dispatched? Not once the stop is reached, and
    /// not past a run budget.
    fn gate(&mut self, stop: &Stop, started: std::time::Instant) -> Option<Halt> {
        if self.reached(stop) {
            return Some(Halt::Reached);
        }
        self.budget_breach(stop, started).map(Halt::Failed)
    }

    /// Everything the run loop does less often than once per event, behind
    /// its one `events_processed >= probe_at` compare. For the event just
    /// dispatched, in this order: audit if the sanitizer says one is due,
    /// auto-checkpoint and record a digest-ledger row on their strides
    /// (from one serialization when both land on this event). Then set
    /// `probe_at` to the next event count with work for it and vet the
    /// next event ([`Sim::gate`]).
    #[cold]
    fn probe(&mut self, stop: &Stop, started: std::time::Instant) -> Option<Halt> {
        if self.sanitizer.due(self.kernel.now) {
            // Only a run toward flow completion aborts on a violation;
            // open-ended ones have no completion criterion to abort
            // toward and keep recording violations and pause metrics.
            if let (Some(e), true) = (self.run_audit(AuditScope::Live), stop.flows) {
                return Some(Halt::Failed(e));
            }
        }
        self.checkpoint_and_digest();
        self.probe_at = self.next_probe();
        self.gate(stop, started)
    }

    /// The first event count after this one at which [`Sim::probe`] can
    /// have work: the minimum of the enabled strides and the event budget.
    /// The sanitizer's audit period is in simulated time and a livelock
    /// about to trip is decided by the next event's timestamp, so either
    /// means "every event". (The stall odometer pulls `probe_at` down
    /// itself; `enable_*` and [`Sim::restore`] reset it.)
    fn next_probe(&self) -> u64 {
        let n = self.events_processed;
        let b = &self.kernel.config.budget;
        if self.sanitizer.is_enabled() || b.stall_events.is_some_and(|l| self.stall_run + 1 >= l) {
            return n;
        }
        let after = |stride: u64| (n / stride + 1).saturating_mul(stride);
        let mut at = b.max_events.unwrap_or(u64::MAX);
        if b.wall_clock_ms.is_some() {
            at = at.min(after(WALL_CHECK_STRIDE));
        }
        if let Some(p) = &self.checkpoint {
            at = at.min(after(p.stride));
        }
        if let Some(l) = &self.digest_ledger {
            at = at.min(after(l.stride()));
        }
        at
    }

    /// The budget failure recorded by an open-ended run ([`Sim::run_until`],
    /// [`Sim::run_until_event`], [`Sim::step`]), if a guard tripped
    /// (bounded runs return theirs through the [`RunVerdict`] of
    /// [`Sim::run_until_flows_done`]).
    pub fn budget_failure(&self) -> Option<&SimError> {
        self.budget_failure.as_ref()
    }

    /// Check the runtime budgets against the event the loop would
    /// dispatch next. Pure bookkeeping: never schedules or reorders
    /// anything, so a run within budget is bit-identical under any budget
    /// setting. A budget only fails a run that would otherwise go on: with
    /// nothing due by the stop's time limit the loop reports the drained
    /// queue or the deadline instead.
    fn budget_breach(&mut self, stop: &Stop, started: std::time::Instant) -> Option<SimError> {
        let b = self.kernel.config.budget;
        let events = self.events_processed;
        let exhausted = b.max_events.filter(|&limit| events >= limit);
        // Strided: a clock read every 4096 events keeps the enabled cost
        // negligible while still bounding a hung cell tightly.
        let overtime = b.wall_clock_ms.filter(|_| events.is_multiple_of(WALL_CHECK_STRIDE)).and_then(|limit_ms| {
            let wall_ms = (self.wall + started.elapsed()).as_millis() as u64;
            (wall_ms >= limit_ms).then_some((wall_ms, limit_ms))
        });
        let stalling = b.stall_events.is_some_and(|limit| self.stall_run + 1 >= limit);
        if exhausted.is_none() && overtime.is_none() && !stalling {
            return None;
        }
        let next = self.kernel.sched.peek().map(|s| s.at).filter(|&at| at <= stop.time)?;
        let at = self.kernel.now;
        let incomplete_flows = self.incomplete_finite();
        if let Some(limit) = exhausted {
            return Some(SimError::BudgetExhausted { at, events, limit, incomplete_flows });
        }
        if let Some((wall_ms, limit_ms)) = overtime {
            return Some(SimError::WallClockExceeded { at, wall_ms, limit_ms, incomplete_flows });
        }
        if next > at {
            return None; // the clock is about to move: no livelock
        }
        self.stall_run += 1;
        Some(SimError::Stalled { at, events_at_instant: self.stall_run, incomplete_flows })
    }

    /// Finite flows still outstanding (budget-verdict bookkeeping).
    fn incomplete_finite(&self) -> u64 {
        self.finite_flows.saturating_sub(self.trace.fcts.len() as u64)
    }

    /// Run until all registered finite flows have completed, but no longer
    /// than `max_t`. Returns a typed [`RunVerdict`]: a run that stalls gets
    /// a structured diagnosis (confirmed PFC deadlock with the pause cycle
    /// named, invariant violations, a drained event heap, or a plain
    /// deadline miss) instead of a bare `false`.
    pub fn run_until_flows_done(&mut self, max_t: SimTime) -> RunVerdict {
        let failure = match self.run(Stop { time: max_t, events: u64::MAX, flows: true }) {
            Halt::Failed(e) => Some(e),
            Halt::Drained => Some(self.stall_error(true)),
            Halt::Deadline => Some(self.stall_error(false)),
            // One final audit at end-of-run so a violation in the closing
            // events cannot slip out unchecked — and a sweep, so neither
            // can damage to a flow the periodic audits had retired.
            Halt::Reached if self.sanitizer.is_enabled() => self.run_audit(AuditScope::Sweep),
            Halt::Reached => None,
        };
        let verdict = failure.map_or(RunVerdict::Completed { flows: self.finite_flows }, RunVerdict::Failed);
        self.publish_verdict(&verdict);
        verdict
    }

    /// Diagnose a stalled run (`drained` = the event heap emptied; otherwise
    /// the deadline passed). Precedence: a forced audit's invariant
    /// violations explain the most; then a one-shot pause-graph scan (which
    /// needs no sanitizer) names a deadlock cycle; else the stall kind.
    fn stall_error(&mut self, drained: bool) -> SimError {
        if self.sanitizer.is_enabled() {
            if let Some(e @ SimError::InvariantViolation { .. }) = self.run_audit(AuditScope::Sweep) {
                return e;
            }
        }
        let view = audit_view(&self.kernel, &self.topo, &self.nodes, &self.flow_dir);
        let report = scan_pause_graph(&view);
        if !report.cycle.is_empty() {
            return SimError::PfcDeadlock {
                detected_at: self.kernel.now,
                cycle: report.cycle,
                victims: report.victims,
            };
        }
        if drained {
            SimError::Drained {
                at: self.kernel.now,
                incomplete_flows: self.incomplete_finite(),
            }
        } else {
            SimError::DeadlineExceeded {
                at: self.kernel.now,
                incomplete_flows: self.incomplete_finite(),
                paused_ports: report.paused_ports.len() as u64,
            }
        }
    }

    /// Run one audit now (unconditionally; callers gate on enablement).
    pub(crate) fn run_audit(&mut self, scope: AuditScope) -> Option<SimError> {
        self.kernel.prof.enter(Phase::Sanitizer);
        let view = audit_view(&self.kernel, &self.topo, &self.nodes, &self.flow_dir);
        self.sanitizer.audit(&view, &mut self.trace, scope)
    }

    /// Publish the run verdict to telemetry and, on failure, dump its JSON
    /// into `$ROCC_VERDICT_DIR` (CI artifact collection).
    fn publish_verdict(&mut self, verdict: &RunVerdict) {
        if let RunVerdict::Failed(e) = verdict {
            if self.trace.wants(EventMask::SANITIZER) {
                let cycle_len = match e {
                    SimError::PfcDeadlock { cycle, .. } => cycle.len() as u32,
                    _ => 0,
                };
                self.trace.publish_event(SimEvent::Verdict {
                    t: self.kernel.now,
                    kind: e.kind(),
                    cycle_len,
                });
            }
            if let Ok(dir) = std::env::var("ROCC_VERDICT_DIR") {
                dump_verdict(&dir, verdict);
            }
        }
    }

    // ------------------------------------------------------ snapshotting

    /// Serialize the complete dynamic state of the run as a
    /// [`snapshot::SNAPSHOT_MAGIC`] document: scheduler queue contents,
    /// packet slab, RNG streams, switch and host state, fault cursors,
    /// budget odometers, and all collected instrumentation. Restoring the
    /// bytes into a freshly rebuilt, identically configured `Sim` (see
    /// [`Sim::restore`]) resumes the run with a byte-identical schedule:
    /// verdicts, metrics JSONL, and aggregates match an uninterrupted run
    /// exactly.
    ///
    /// Not captured (by design): accumulated wall-clock time and
    /// phase-profiler wall shares (meaningless across processes), and
    /// everything the caller rebuilds — topology, configuration, CC
    /// factories, flow registrations, watch lists. The header binds the
    /// snapshot to its seed and a configuration digest so a restore into
    /// the wrong setup fails loudly instead of diverging silently.
    pub fn snapshot(&self) -> Vec<u8> {
        self.frame(self.sections())
    }

    /// Frame `sections` (this sim's, just serialized) as a snapshot.
    fn frame(&self, sections: snapshot::Sections) -> Vec<u8> {
        snapshot::frame(
            self.kernel.config.seed,
            snapshot::config_digest(&self.kernel.config),
            self.kernel.now.as_nanos(),
            self.events_processed,
            sections,
        )
    }

    /// The one serialization of this sim's dynamic state: every subsystem
    /// written as its own named section of a single buffer. The snapshot
    /// container frames these sections, [`Sim::state_digest`] hashes them,
    /// and the divergence bisector word-diffs them.
    ///
    /// Section order is canonical and stable: `kernel`, `rng`, `sched`,
    /// `faults`, `san`, `slab`, one `host/N` / `switch/N` per node in
    /// topology order, `run`, `trace`, `sanitizer`.
    pub(crate) fn sections(&self) -> snapshot::Sections {
        let mut w = SnapWriter::new();
        let k = &self.kernel;
        // Kernel odometers and the clock.
        w.section("kernel");
        w.put(&(k.seq, k.peak_heap, k.now, self.events_processed));
        // The run RNG stream (the fault RNG lives in `faults`).
        w.section("rng");
        w.put(&k.rng.state().to_vec());
        // The event queue, (at, seq)-sorted: (at, seq) is a total order,
        // so pushing the sorted entries back yields an identical pop order.
        w.section("sched");
        let mut queued = k.sched.entries();
        queued.sort_by_key(|&(at, seq, _)| (at, seq));
        w.put(&queued.len());
        for (at, seq, ev) in queued {
            w.put(&(at, seq));
            w.put(ev);
        }
        w.section("faults");
        k.faults.save_state(&mut w);
        w.section("san");
        w.put(&k.san);
        w.section("slab");
        w.put(&k.packets);
        // Node states, in topology order; the section name carries the role.
        for (i, n) in self.nodes.iter().enumerate() {
            w.section(n.section_name(i));
            match n {
                NodeSlot::Host(h) => h.save_state(&mut w),
                NodeSlot::Switch(s) => s.save_state(&mut w),
            }
        }
        // Run bookkeeping (flow registrations are construction state, but
        // the odometers move with the schedule).
        w.section("run");
        w.put(&(
            self.flow_dir.len(),
            self.finite_flows,
            self.stall_run,
            self.sampling_bootstrapped,
        ));
        // Instrumentation.
        w.section("trace");
        self.trace.save_state(&mut w);
        w.section("sanitizer");
        self.sanitizer.save_state(&mut w);
        w.finish()
    }

    /// Overwrite this sim's dynamic state from a [`Sim::snapshot`]
    /// document and resume exactly where the captured run stood.
    ///
    /// The caller must have rebuilt this `Sim` identically to the captured
    /// one: same topology, same configuration (verified via the embedded
    /// seed + configuration digest), same CC factories, same `add_flow`
    /// calls, and the same trace watch registrations and sanitizer /
    /// telemetry / observatory enablement (verified structurally during
    /// decode: the trace section carries its watch lists). Restore
    /// discards the fresh bootstrap queue and replaces every piece of
    /// dynamic state; accumulated wall-clock time resets to zero and any
    /// recorded budget failure is cleared.
    ///
    /// On error the sim may be left partially overwritten — discard it and
    /// rebuild (the supervisor falls back to a fresh cell run).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let (info, sections) = snapshot::sections(bytes)?;
        let expected = (
            self.kernel.config.seed,
            snapshot::config_digest(&self.kernel.config),
        );
        if (info.seed, info.config_digest) != expected {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                found: (info.seed, info.config_digest),
            });
        }
        let mut secs = snapshot::SectionCursor::new(sections);
        let (kernel_seq, peak_heap) = secs.read("kernel", |r| {
            let (seq, peak_heap, now, events): (u64, usize, SimTime, u64) = r.get()?;
            if (now.as_nanos(), events) != (info.now_ns, info.events_processed) {
                return Err(SnapshotError::Malformed("kernel section disagrees with header"));
            }
            Ok((seq, peak_heap))
        })?;
        let rng = secs.read("rng", |r| match r.get::<Vec<u64>>()?[..] {
            [a, b, c, d] => Ok(StdRng::from_state([a, b, c, d])),
            _ => Err(SnapshotError::Malformed("rng state")),
        })?;
        // The entries were written (at, seq)-sorted, none before the
        // clock and none above the sequence counter, so in-order pushes
        // reconstruct the schedule exactly. Anything else would move the
        // clock backwards, pop equal instants out of seq order or collide
        // with a future push's seq: refuse it.
        let sched = secs.read("sched", |r| {
            let mut sched = TimingWheel::default();
            let mut prev = (SimTime::from_nanos(info.now_ns), 0);
            for _ in 0..r.len()? {
                let (at, seq): (SimTime, u64) = r.get()?;
                if (at, seq) <= prev || seq > kernel_seq {
                    return Err(SnapshotError::Malformed("sched order"));
                }
                prev = (at, seq);
                sched.push(Scheduled {
                    at,
                    seq,
                    ev: r.get()?,
                });
            }
            Ok(sched)
        })?;
        secs.read("faults", |r| self.kernel.faults.load_state(r))?;
        let san: SanLedger = secs.read("san", |r| r.get())?;
        if san.on() != self.kernel.san.on() {
            return Err(SnapshotError::Malformed("ledger enable flag differs"));
        }
        self.kernel.san = san;
        self.kernel.packets = secs.read("slab", |r| r.get())?;
        // One section per node, then `run`, `trace`, `sanitizer`.
        if secs.remaining() != self.nodes.len() + 3 {
            return Err(SnapshotError::Malformed("node count differs"));
        }
        {
            let Sim { nodes, host_cc, .. } = self;
            for (i, n) in nodes.iter_mut().enumerate() {
                // A host where the snapshot has a switch (or vice versa)
                // fails here: the role is the section name.
                let name = n.section_name(i);
                match n {
                    NodeSlot::Host(h) => secs.read(&name, |r| h.load_state(r, &**host_cc))?,
                    NodeSlot::Switch(s) => secs.read(&name, |r| s.load_state(r))?,
                }
            }
        }
        secs.read("run", |r| {
            let (flows, finite_flows): (usize, u64) = r.get()?;
            if (flows, finite_flows) != (self.flow_dir.len(), self.finite_flows) {
                return Err(SnapshotError::Malformed("flow registration differs"));
            }
            (self.stall_run, self.sampling_bootstrapped) = r.get()?;
            Ok(())
        })?;
        secs.read("trace", |r| self.trace.load_state(r))?;
        secs.read("sanitizer", |r| self.sanitizer.load_state(r))?;
        // All reads succeeded: commit the kernel dynamics.
        self.kernel.now = SimTime::from_nanos(info.now_ns);
        self.kernel.seq = kernel_seq;
        self.kernel.peak_heap = peak_heap;
        self.probe_at = 0;
        self.kernel.rng = rng;
        self.kernel.sched = sched;
        self.events_processed = info.events_processed;
        self.budget_failure = None;
        self.wall = std::time::Duration::ZERO;
        Ok(())
    }

    /// Enable auto-checkpointing: every `stride` dispatched events the
    /// engine calls [`Sim::snapshot`] and hands `(events_processed, bytes)`
    /// to `sink`. Checkpointing is pure observation — the serialized bytes
    /// are produced from reads only — so an auto-checkpointed run is
    /// schedule-bit-identical to an unchecked one (pinned by the
    /// `observer_effect` integration test). Disabled, it costs the run
    /// loop nothing.
    pub fn enable_auto_checkpoint(&mut self, stride: u64, sink: CheckpointSink) {
        assert!(stride > 0, "checkpoint stride must be positive");
        self.checkpoint = Some(CheckpointPolicy { stride, sink });
        self.probe_at = 0;
    }

    /// Turn auto-checkpointing off (drops the sink).
    pub fn disable_auto_checkpoint(&mut self) {
        self.checkpoint = None;
    }

    /// Take a checkpoint and record a digest-ledger row, each if its
    /// stride divides the event count. Both read the same
    /// [`Sim::sections`]: when they land on the same event the state is
    /// serialized once, hashed, then framed.
    fn checkpoint_and_digest(&mut self) {
        let events = self.events_processed;
        let checkpoint = self.checkpoint.as_ref().is_some_and(|p| events.is_multiple_of(p.stride));
        let digest = self.digest_ledger.as_ref().is_some_and(|l| events.is_multiple_of(l.stride()));
        if !(checkpoint || digest) {
            return;
        }
        let sections = self.sections();
        if let (true, Some(l)) = (digest, &mut self.digest_ledger) {
            l.push(crate::digest::DigestLedgerEntry {
                events,
                t_ns: self.kernel.now.as_nanos(),
                digests: crate::digest::ComponentDigests::of(&sections),
            });
        }
        if checkpoint {
            let bytes = self.frame(sections);
            if let Some(p) = &mut self.checkpoint {
                (p.sink)(events, &bytes);
            }
        }
    }

    // ------------------------------------------- divergence observatory

    /// The next event this sim would dispatch — `(at, seq)`-minimum of
    /// the queue — decoded for humans. `None` when the queue is empty.
    /// The divergence bisector quotes this as "the first diverging
    /// event" in its report.
    pub fn next_event_brief(&self) -> Option<String> {
        let s = self.kernel.sched.peek()?;
        Some(format!("[at {} ns, seq {}] {:?}", s.at.as_nanos(), s.seq, s.ev))
    }

    /// Deliberately flip one bit of one host's RP congestion-control
    /// state (bit 30 of the first `snapshot_state` word of the lowest-id
    /// flow on the first host whose CC words still decode with the flip
    /// — for RoCC, ~1 Gb/s off the current rate). This is the divergence
    /// observatory's fault injector: `repro diverge` and the acceptance
    /// tests use it to manufacture a run with a known first-bad event and
    /// prove the bisector finds exactly that event and names the
    /// component. Deterministic; returns `false` if no flow's CC state
    /// takes the flip yet (caller retries at a later event).
    pub fn inject_rp_perturbation(&mut self) -> bool {
        for n in self.nodes.iter_mut() {
            if let NodeSlot::Host(h) = n {
                if h.perturb_cc_state() {
                    return true;
                }
            }
        }
        false
    }

    /// Enable the strided digest ledger: every `stride` dispatched events
    /// the engine records [`Sim::state_digest`] (plus event count and sim
    /// time) into an in-memory `rocc-digest-ledger/v1` ledger, retrievable
    /// via [`Sim::digest_ledger`] / [`Sim::take_digest_ledger`]. Recording
    /// is pure observation — digests are computed from reads only — so a
    /// recorded run is schedule-bit-identical to an unrecorded one (pinned
    /// by the `observer_effect` suite). Disabled, it costs the run loop
    /// nothing, exactly like auto-checkpointing.
    pub fn enable_digest_ledger(&mut self, stride: u64) {
        assert!(stride > 0, "digest ledger stride must be positive");
        self.digest_ledger = Some(crate::digest::DigestLedger::new(stride));
        self.probe_at = 0;
    }

    /// The digest ledger recorded so far, if enabled.
    pub fn digest_ledger(&self) -> Option<&crate::digest::DigestLedger> {
        self.digest_ledger.as_ref()
    }

    /// Detach and return the recorded digest ledger (disables recording).
    pub fn take_digest_ledger(&mut self) -> Option<crate::digest::DigestLedger> {
        self.digest_ledger.take()
    }

    /// Grace period for retrying events addressed to a host that is
    /// currently paused or crashed (flow starts, pending CC timers).
    const HOST_DOWN_RETRY: SimDuration = SimDuration::from_micros(100);

    #[inline(never)] // see `Sim::pop_until`
    fn dispatch(&mut self, ev: Event) {
        if self.kernel.prof.is_enabled() {
            self.kernel.prof.dispatch_begin(ev.kind_idx());
        }
        match ev {
            Event::Arrive { link, pr } => {
                let (to_node, to_port) = self.topo.link(link).to;
                if self.kernel.faults.is_active() {
                    // Packets in flight on a downed link die at the delivery
                    // instant (deterministic, and covers both packets caught
                    // by the flap and packets transmitted onto a dead link).
                    if self.kernel.faults.link_is_down(link) {
                        self.trace.faults.link_down_drops += 1;
                        let pkt = self.kernel.packets.take(pr);
                        self.kernel.san.destroy(pkt.wire_bytes());
                        self.publish_drop(to_node, pkt.flow, DropCause::LinkDown);
                        return;
                    }
                    if self.kernel.faults.host_is_down(to_node)
                        && matches!(self.nodes[to_node.0], NodeSlot::Host(_))
                    {
                        self.trace.faults.host_down_drops += 1;
                        let pkt = self.kernel.packets.take(pr);
                        self.kernel.san.destroy(pkt.wire_bytes());
                        self.publish_drop(to_node, pkt.flow, DropCause::HostDown);
                        return;
                    }
                    let kind = self.kernel.packets.get(pr).kind;
                    match self.kernel.faults.decide(self.kernel.now, link, &kind) {
                        FaultDecision::Deliver => {}
                        FaultDecision::Lose(target) => {
                            // A CNP-class loss hitting an echo-bearing ACK
                            // destroys only the congestion signal: real CNPs
                            // travel separately from the ACK stream, so the
                            // ACK itself survives with its echo stripped.
                            if target == FaultTarget::Cnp {
                                if let PacketKind::Ack { ecn_echo, .. } =
                                    &mut self.kernel.packets.get_mut(pr).kind
                                {
                                    if *ecn_echo {
                                        *ecn_echo = false;
                                        self.trace.faults.ctrl_lost += 1;
                                    }
                                }
                                if !matches!(kind, PacketKind::Ack { .. }) {
                                    self.trace.faults.ctrl_lost += 1;
                                    let pkt = self.kernel.packets.take(pr);
                                    self.kernel.san.destroy(pkt.wire_bytes());
                                    self.publish_drop(to_node, pkt.flow, DropCause::FaultLoss);
                                    return;
                                }
                            } else {
                                let pkt = self.kernel.packets.take(pr);
                                if pkt.is_data() {
                                    self.trace.faults.data_lost += 1;
                                } else {
                                    self.trace.faults.ctrl_lost += 1;
                                }
                                self.kernel.san.destroy(pkt.wire_bytes());
                                self.publish_drop(to_node, pkt.flow, DropCause::FaultLoss);
                                return;
                            }
                        }
                        FaultDecision::Corrupt => {
                            let pkt = self.kernel.packets.take(pr);
                            if pkt.is_data() {
                                self.trace.faults.data_corrupted += 1;
                            } else {
                                self.trace.faults.ctrl_corrupted += 1;
                            }
                            self.kernel.san.destroy(pkt.wire_bytes());
                            self.publish_drop(to_node, pkt.flow, DropCause::FaultCorrupt);
                            // Failed FCS: switches discard at ingress; hosts
                            // discard too, but a corrupted data packet nudges
                            // the receiver's go-back-N (see the host hook).
                            if let NodeSlot::Host(h) = &mut self.nodes[to_node.0] {
                                h.handle_corrupt_arrive(
                                    &mut self.kernel,
                                    &self.topo,
                                    &mut self.trace,
                                    pkt,
                                );
                            }
                            return;
                        }
                        FaultDecision::Duplicate => {
                            // The NIC/switch emitted the frame twice: a clone
                            // arrives alongside the original. The clone is
                            // fresh wire bytes from the ledger's view.
                            self.trace.faults.duplicated += 1;
                            let dup = self.kernel.packets.duplicate(pr);
                            self.kernel.san.inject(self.kernel.packets.get(dup).wire_bytes());
                            let now = self.kernel.now;
                            self.kernel.schedule(now, Event::Arrive { link, pr: dup });
                            // The original falls through to normal delivery.
                        }
                        FaultDecision::Reorder(delay) => {
                            // Defer this arrival: the packet goes back on the
                            // wire (heap) and lands behind later frames. The
                            // heap ledger re-add balances the pop's subtract,
                            // so conservation holds throughout.
                            self.trace.faults.reordered += 1;
                            let at = self.kernel.now + delay;
                            self.kernel.schedule(at, Event::Arrive { link, pr });
                            return;
                        }
                    }
                }
                match &mut self.nodes[to_node.0] {
                    NodeSlot::Switch(sw) => {
                        sw.handle_arrive(&mut self.kernel, &self.topo, &mut self.trace, to_port, pr)
                    }
                    NodeSlot::Host(h) => {
                        // Host delivery is the packet's exit from the network
                        // and from the slab.
                        let pkt = self.kernel.packets.take(pr);
                        self.kernel.san.consume(pkt.wire_bytes());
                        h.handle_arrive(
                            &mut self.kernel,
                            &self.topo,
                            &mut self.trace,
                            &self.flow_dir,
                            pkt,
                        )
                    }
                }
            }
            Event::SwitchTxDone { node, port } => {
                if let NodeSlot::Switch(sw) = &mut self.nodes[node.0] {
                    sw.handle_drain(&mut self.kernel, &self.topo, &mut self.trace, port);
                }
            }
            Event::HostWake { node } => {
                if self.kernel.faults.host_is_down(node) {
                    return; // `revive` restarts transmission
                }
                if let NodeSlot::Host(h) = &mut self.nodes[node.0] {
                    h.handle_wake(&mut self.kernel, &self.topo, &mut self.trace);
                }
            }
            Event::CpTimer { node, port } => {
                if let NodeSlot::Switch(sw) = &mut self.nodes[node.0] {
                    sw.handle_cc_timer(&mut self.kernel, &self.topo, &mut self.trace, port);
                }
            }
            Event::HostCcTimer {
                node,
                flow,
                token,
                gen,
            } => {
                if self.kernel.faults.host_is_down(node) {
                    // The flow's one RTO event is dropped, never replayed (a
                    // replay could land after the deadline `revive` sets when
                    // `rto` < HOST_DOWN_RETRY); `revive` re-arms the flow.
                    let is_rto = token == RTO_TOKEN;
                    if is_rto {
                        if let NodeSlot::Host(h) = &mut self.nodes[node.0] {
                            h.rto_event_dropped(flow);
                        }
                    }
                    if !self.kernel.faults.host_will_recover(node, self.kernel.now) {
                        // A host with no restore scheduled is never coming
                        // back: re-queueing would churn the heap every 100 µs
                        // until the deadline for an event nobody will handle.
                        self.trace.faults.abandoned_events += 1;
                    } else if !is_rto {
                        // CC timers freeze while the host is down; re-deliver
                        // later with the same generation so CC timer chains
                        // (e.g. the RoCC recovery timer) survive a pause. A crash
                        // bumps every generation, so replayed timers die there.
                        let at = self.kernel.now + Self::HOST_DOWN_RETRY;
                        self.kernel.schedule(
                            at,
                            Event::HostCcTimer {
                                node,
                                flow,
                                token,
                                gen,
                            },
                        );
                    }
                    return;
                }
                if let NodeSlot::Host(h) = &mut self.nodes[node.0] {
                    h.handle_cc_timer(&mut self.kernel, &self.topo, &mut self.trace, flow, token, gen);
                }
            }
            Event::Feedback { node, flow, fb } => {
                if self.kernel.faults.host_is_down(node) {
                    return; // feedback pending in a dead NIC is lost
                }
                if let NodeSlot::Host(h) = &mut self.nodes[node.0] {
                    h.handle_feedback(&mut self.kernel, &self.topo, &mut self.trace, flow, fb);
                }
            }
            Event::FlowStart { idx } => {
                let spec = self.flow_dir.flows[idx];
                if self.kernel.faults.host_is_down(spec.src) {
                    // A permanently crashed source can never start this flow;
                    // abandon the event instead of re-queueing it forever
                    // (the run then drains and gets a typed verdict).
                    if !self.kernel.faults.host_will_recover(spec.src, self.kernel.now) {
                        self.trace.faults.abandoned_events += 1;
                        return;
                    }
                    // The source is down; retry once it has come back.
                    let at = self.kernel.now + Self::HOST_DOWN_RETRY;
                    self.kernel.schedule(at, Event::FlowStart { idx });
                    return;
                }
                if let NodeSlot::Host(h) = &mut self.nodes[spec.src.0] {
                    let line = h.line_rate();
                    let cc = self.host_cc.make(spec.id, line);
                    h.start_flow(&mut self.kernel, &self.topo, &mut self.trace, &spec, cc);
                } else {
                    panic!("flow source {:?} is not a host", spec.src);
                }
            }
            Event::FlowStop { flow } => {
                let Some(spec) = self.flow_dir.get(flow) else {
                    return;
                };
                if let NodeSlot::Host(h) = &mut self.nodes[spec.src.0] {
                    h.stop_flow(flow);
                }
            }
            Event::Sample => self.take_samples(),
            Event::Fault(fe) => self.apply_fault(fe),
        }
    }

    /// Publish a packet-drop telemetry event (no-op unless enabled).
    fn publish_drop(&mut self, node: NodeId, flow: FlowId, cause: DropCause) {
        if self.trace.wants(EventMask::DROP) {
            self.trace.publish_event(SimEvent::Drop {
                t: self.kernel.now,
                node,
                flow,
                cause,
            });
        }
    }

    /// Apply a scheduled fault transition.
    fn apply_fault(&mut self, fe: FaultEvent) {
        if self.trace.wants(EventMask::FAULT) {
            self.trace.publish_event(SimEvent::Fault {
                t: self.kernel.now,
                fault: fe,
            });
        }
        match fe {
            FaultEvent::LinkDown(l) => {
                // A physical link failure takes out both directions of the
                // full-duplex pair; everything in flight dies at delivery.
                let rev = self.topo.reverse_link(l);
                self.kernel.faults.set_link_down(l, true);
                self.kernel.faults.set_link_down(rev, true);
            }
            FaultEvent::LinkUp(l) => {
                let rev = self.topo.reverse_link(l);
                self.kernel.faults.set_link_down(l, false);
                self.kernel.faults.set_link_down(rev, false);
                // PFC pause state on either end may be stale: PAUSE/RESUME
                // frames in flight died with the link.
                self.resync_link_ends(l);
            }
            FaultEvent::HostPause(n) => {
                self.kernel.faults.set_host_down(n, true);
            }
            FaultEvent::HostCrash(n) => {
                self.kernel.faults.set_host_down(n, true);
                if let NodeSlot::Host(h) = &mut self.nodes[n.0] {
                    h.on_crash();
                }
            }
            FaultEvent::HostRestore(n) => {
                self.kernel.faults.set_host_down(n, false);
                if let NodeSlot::Host(h) = &mut self.nodes[n.0] {
                    h.revive(&mut self.kernel, &self.topo, &mut self.trace);
                }
                // A down host drops every arrival, PFC RESUME frames
                // included, so its pause state is as stale as after a link
                // outage: the switch has already forgotten its XOFF.
                self.resync_link_ends(self.topo.out_link(n, PortId(0)));
            }
        }
    }

    /// Resynchronize PFC state on both endpoints of the full-duplex link
    /// `l` after frames between them were lost (each endpoint is `to` of
    /// one direction).
    fn resync_link_ends(&mut self, l: LinkId) {
        for lid in [l, self.topo.reverse_link(l)] {
            let (to_node, to_port) = self.topo.link(lid).to;
            match &mut self.nodes[to_node.0] {
                NodeSlot::Host(h) => h.on_link_restored(&mut self.kernel, &self.topo, &mut self.trace),
                NodeSlot::Switch(sw) => {
                    sw.on_link_restored(&mut self.kernel, &self.topo, &mut self.trace, to_port)
                }
            }
        }
    }

    /// The sender's current CC rate for flow `f`, in bits/s (`None` when
    /// the flow is unknown or its host keeps no rate for it).
    fn cc_rate_bps(&self, f: FlowId) -> Option<u64> {
        let spec = self.flow_dir.get(f)?;
        match &self.nodes[spec.src.0] {
            NodeSlot::Host(h) => h.cc_rate(f).map(|d| d.rate.as_bps()),
            NodeSlot::Switch(_) => None,
        }
    }

    fn take_samples(&mut self) {
        self.kernel.prof.enter(Phase::Telemetry);
        let now = self.kernel.now;
        let Some(period) = self.trace.sample_period else {
            return;
        };
        // Queue depths.
        for i in 0..self.trace.watched_queues().len() {
            let (n, p) = self.trace.watched_queues()[i];
            if let NodeSlot::Switch(sw) = &self.nodes[n.0] {
                let (q, _) = sw.snapshot(p, now);
                self.trace.record_queue_sample(i, now, q);
            }
        }
        // Long-run queue averages.
        for i in 0..self.trace.watched_avg_ports().len() {
            let (n, p) = self.trace.watched_avg_ports()[i];
            if let NodeSlot::Switch(sw) = &self.nodes[n.0] {
                let (q, _) = sw.snapshot(p, now);
                self.trace.record_queue_avg(now, n, p, q);
            }
        }
        // Port throughputs.
        for i in 0..self.trace.watched_ports().len() {
            let (n, p) = self.trace.watched_ports()[i];
            if let NodeSlot::Switch(sw) = &self.nodes[n.0] {
                let (_, tx) = sw.snapshot(p, now);
                self.trace.sample_port_tput(i, now, tx, period);
            }
        }
        // Flow goodputs.
        self.trace.sample_flow_rates(now, period);
        // Sender CC rates.
        for i in 0..self.trace.watched_cc_flows().len() {
            if let Some(bps) = self.cc_rate_bps(self.trace.watched_cc_flows()[i]) {
                self.trace.record_cc_rate(i, now, bps as f64);
            }
        }
        // The observatory's tick mark: what its rows need beyond the
        // series above and the log (pure reads, so the enabled path cannot
        // perturb the schedule).
        if self.trace.observatory.is_enabled() {
            self.kernel.prof.enter(Phase::Observatory);
            let flows = self.trace.watched_flows();
            let rp_bps = flows.iter().map(|&f| self.cc_rate_bps(f).unwrap_or(0)).collect();
            let logged = self.trace.telemetry.events.len();
            self.trace.observatory.tick(now, logged, rp_bps);
            self.kernel.prof.enter(Phase::Telemetry);
        }
        self.kernel.schedule(now + period, Event::Sample);
    }
}

/// Write a failed verdict's JSON into `dir` for artifact collection.
/// Best-effort: a verdict dump must never take down the run that produced
/// it, so failures are reported on stderr (with the typed
/// [`crate::artifacts::ArtifactError`]) instead of panicking or being
/// silently swallowed.
fn dump_verdict(dir: &str, verdict: &RunVerdict) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let path = std::path::Path::new(dir).join(format!("verdict_{pid}_{n}.json"));
    if let Err(e) = crate::artifacts::write_artifact(&path, &verdict.to_json()) {
        eprintln!("ROCC_VERDICT_DIR dump failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{NullHostCcFactory, NullSwitchCcFactory};
    use crate::topology::TopologyBuilder;

    fn two_hosts_one_switch() -> Topology {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let sw = b.add_switch("sw", NodeRole::Switch);
        b.connect(h0, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        b.connect(h1, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        b.build()
    }

    #[test]
    fn single_flow_completes_and_fct_is_sane() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: 100_000,
            start: SimTime::ZERO,
            offered: None,
        });
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        assert_eq!(sim.trace.fcts.len(), 1);
        let fct = sim.trace.fcts[0].fct();
        // 100 kB at 40 Gb/s ≈ 21 µs (incl. headers) + 2 µs propagation +
        // store-and-forward; must be well under 100 µs and over 20 µs.
        assert!(fct.as_nanos() > 20_000, "FCT too small: {fct}");
        assert!(fct.as_nanos() < 100_000, "FCT too large: {fct}");
        assert_eq!(sim.trace.drops, 0);
        assert_eq!(sim.trace.unroutable_drops, 0);
        assert_eq!(sim.trace.retx_bytes, 0);
    }

    #[test]
    fn two_flows_share_bottleneck_fairly_at_line_rate() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_host("s0");
        let s1 = b.add_host("s1");
        let d = b.add_host("d");
        let sw = b.add_switch("sw", NodeRole::Switch);
        for h in [s0, s1, d] {
            b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        }
        let topo = b.build();
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        // Identical offered sizes; PFC keeps it lossless so both complete.
        for (i, src) in [s0, s1].into_iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src,
                dst: d,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        assert_eq!(sim.trace.fcts.len(), 2);
        let a = sim.trace.fcts[0].fct().as_nanos() as f64;
        let b2 = sim.trace.fcts[1].fct().as_nanos() as f64;
        // Both flows finish within 25% of each other (round-robin service).
        assert!((a - b2).abs() / a.max(b2) < 0.25, "unfair: {a} vs {b2}");
        assert_eq!(sim.trace.drops, 0);
        assert_eq!(sim.trace.unroutable_drops, 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let topo = two_hosts_one_switch();
            let h0 = topo.hosts()[0];
            let h1 = topo.hosts()[1];
            let mut sim = Sim::new(
                topo,
                SimConfig::default(),
                Box::new(NullHostCcFactory),
                Box::new(NullSwitchCcFactory),
            );
            for i in 0..10 {
                sim.add_flow(FlowSpec {
                    id: FlowId(i),
                    src: h0,
                    dst: h1,
                    size: 50_000 + i * 1000,
                    start: SimTime::from_micros(i * 3),
                    offered: None,
                });
            }
            sim.run_until(SimTime::from_millis(10));
            (
                sim.events_processed(),
                sim.trace
                    .fcts
                    .iter()
                    .map(|r| (r.flow, r.end.as_nanos()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pfc_pauses_prevent_drops_under_incast() {
        // 4 senders incast one 10G receiver link through a switch with
        // lossless PFC: zero drops by construction.
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let d = b.add_host("d");
        b.connect(d, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..4 {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let topo = b.build();
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst: d,
                size: 2_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        assert_eq!(sim.trace.drops, 0);
        assert_eq!(sim.trace.unroutable_drops, 0);
        assert!(
            !sim.trace.pfc_events.is_empty(),
            "incast at line rate must trigger PFC"
        );
    }

    #[test]
    fn lossy_mode_drops_and_recovers_via_go_back_n() {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let d = b.add_host("d");
        b.connect(d, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..4 {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let topo = b.build();
        let cfg = SimConfig {
            buffer_mode: crate::config::BufferMode::LossyTailDrop {
                limit_bytes: 30_000,
            },
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst: d,
                size: 500_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        assert!(
            sim.run_until_flows_done(SimTime::from_millis(500)).is_complete(),
            "flows must complete despite drops"
        );
        assert!(sim.trace.drops > 0, "tiny buffer incast must drop");
        assert_eq!(sim.trace.unroutable_drops, 0);
        assert!(sim.trace.retx_bytes > 0, "go-back-N must retransmit");
    }

    #[test]
    fn offered_rate_caps_throughput() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        // 1 Gb/s offered for 10 ms → ~1.25 MB delivered (payload).
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered: Some(BitRate::from_gbps(1)),
        });
        sim.run_until(SimTime::from_millis(10));
        let delivered = sim.trace.delivered_bytes(FlowId(1));
        let expect = 1.25e6 * 1000.0 / 1048.0; // wire-rate cap incl. headers
        let err = (delivered as f64 - expect).abs() / expect;
        assert!(err < 0.05, "delivered {delivered} vs expected {expect}");
    }

    /// [`one_flow_sim`] under `budget`.
    fn budgeted(budget: crate::config::RunBudget, size: u64) -> Sim {
        one_flow_sim(SimConfig { budget, ..SimConfig::default() }, size).0
    }

    #[test]
    fn event_budget_exhaustion_yields_typed_verdict() {
        let budget = crate::config::RunBudget {
            max_events: Some(50),
            stall_events: None,
            wall_clock_ms: None,
        };
        let mut sim = budgeted(budget, 10_000_000);
        let v = sim.run_until_flows_done(SimTime::from_millis(100));
        match v.err() {
            Some(e @ SimError::BudgetExhausted { limit, events, .. }) => {
                assert_eq!(*limit, 50);
                assert_eq!(*events, 50);
                assert!(e.is_budget());
                assert!(e.to_json().contains("\"verdict\":\"budget_exhausted\""));
                assert_eq!(
                    e.kind(),
                    crate::telemetry::VerdictKind::BudgetExhausted
                );
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(sim.events_processed(), 50);
        // The other entry points stop at exactly the same event.
        let mut steps = 0;
        for name in ["run_until", "run_until_event", "step"] {
            let mut sim = budgeted(budget, 10_000_000);
            match name {
                "run_until" => sim.run_until(SimTime::from_millis(100)),
                "run_until_event" => assert!(!sim.run_until_event(1_000)),
                _ => {
                    while sim.step() {
                        steps += 1;
                        assert!(sim.budget_failure().is_none(), "tripped early, at step {steps}");
                    }
                }
            }
            assert_eq!(sim.events_processed(), 50, "{name}");
            let failure = sim.budget_failure();
            assert!(matches!(failure, Some(SimError::BudgetExhausted { .. })), "{name}: {failure:?}");
        }
        assert_eq!(steps, 50);
    }

    /// A zero sample period makes `Sample` reschedule itself at `now`
    /// forever: the clock can never pass the first sampling instant. The
    /// sim-time deadline is useless here — only the livelock guard fires.
    #[test]
    fn livelock_is_detected_as_stalled() {
        let livelocked = || {
            let mut sim = budgeted(
                crate::config::RunBudget {
                    max_events: None,
                    stall_events: Some(10_000),
                    wall_clock_ms: None,
                },
                100_000,
            );
            sim.trace.sample_period = Some(SimDuration::ZERO);
            sim
        };
        let mut sim = livelocked();
        let v = sim.run_until_flows_done(SimTime::from_millis(100));
        match v.err() {
            Some(e @ SimError::Stalled { events_at_instant, incomplete_flows, .. }) => {
                assert_eq!(*events_at_instant, 10_000);
                assert_eq!(*incomplete_flows, 1);
                assert!(e.is_budget());
                assert!(e.to_json().contains("\"verdict\":\"stalled\""));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        // A step loop stalls after the same event, in the same state.
        let mut stepped = livelocked();
        while stepped.step() {}
        assert!(matches!(stepped.budget_failure(), Some(SimError::Stalled { .. })));
        assert_eq!(stepped.events_processed(), sim.events_processed());
        assert!(stepped.snapshot() == sim.snapshot(), "stalled states differ");
    }

    #[test]
    fn open_ended_run_records_budget_failure() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let cfg = SimConfig {
            budget: crate::config::RunBudget {
                max_events: None,
                stall_events: Some(1_000),
                wall_clock_ms: None,
            },
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.trace.sample_period = Some(SimDuration::ZERO);
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered: Some(BitRate::from_gbps(1)),
        });
        sim.run_until(SimTime::from_millis(1));
        assert!(
            matches!(sim.budget_failure(), Some(SimError::Stalled { .. })),
            "open-ended livelock must be recorded: {:?}",
            sim.budget_failure()
        );
    }

    #[test]
    fn healthy_run_is_bit_identical_under_budgets() {
        let run = |budget: crate::config::RunBudget| {
            let mut sim = budgeted(budget, 200_000);
            sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
            (
                sim.events_processed(),
                sim.trace.fcts.iter().map(|r| r.end.as_nanos()).collect::<Vec<_>>(),
            )
        };
        let loose = crate::config::RunBudget::unlimited();
        let guarded = crate::config::RunBudget {
            max_events: Some(u64::MAX),
            stall_events: Some(1_000_000),
            wall_clock_ms: Some(3_600_000),
        };
        assert_eq!(run(loose), run(guarded));
    }

    #[test]
    fn wall_clock_budget_yields_typed_verdict() {
        // A zero-millisecond ceiling trips on the first strided check,
        // making the test deterministic regardless of host speed.
        let budget = crate::config::RunBudget::default().with_wall_clock_ms(0);
        let mut sim = budgeted(budget, 10_000_000);
        let v = sim.run_until_flows_done(SimTime::from_millis(100));
        match v.err() {
            Some(e @ SimError::WallClockExceeded { limit_ms, incomplete_flows, .. }) => {
                assert_eq!(*limit_ms, 0);
                assert_eq!(*incomplete_flows, 1);
                assert!(e.is_budget(), "wall-clock breaches are a budget class");
                assert!(e.to_json().contains("\"verdict\":\"wall_clock_exceeded\""));
                assert_eq!(e.kind(), crate::telemetry::VerdictKind::WallClockExceeded);
            }
            other => panic!("expected WallClockExceeded, got {other:?}"),
        }
        // So does a step loop, before its first event.
        let mut stepped = budgeted(budget, 10_000_000);
        assert!(!stepped.step());
        assert_eq!(stepped.events_processed(), 0);
        assert!(matches!(stepped.budget_failure(), Some(SimError::WallClockExceeded { .. })));
    }

    #[test]
    fn snapshot_restore_roundtrip_mid_run_is_bit_identical() {
        let build = || {
            let topo = two_hosts_one_switch();
            let h0 = topo.hosts()[0];
            let h1 = topo.hosts()[1];
            let mut sim = Sim::new(
                topo,
                SimConfig::default(),
                Box::new(NullHostCcFactory),
                Box::new(NullSwitchCcFactory),
            );
            for i in 0..4 {
                sim.add_flow(FlowSpec {
                    id: FlowId(i),
                    src: h0,
                    dst: h1,
                    size: 100_000 + i * 7_000,
                    start: SimTime::from_micros(i * 2),
                    offered: None,
                });
            }
            sim
        };
        let digest = |sim: &Sim| {
            (
                sim.events_processed(),
                sim.kernel.now,
                sim.trace
                    .fcts
                    .iter()
                    .map(|r| (r.flow, r.end.as_nanos()))
                    .collect::<Vec<_>>(),
            )
        };
        // Control: run to completion uninterrupted.
        let mut control = build();
        control.run_until_flows_done(SimTime::from_millis(100)).assert_complete();

        // Snapshot mid-run, restore into a fresh sim, finish both.
        let mut a = build();
        for _ in 0..500 {
            assert!(a.step(), "run too short for the test");
        }
        let snap = a.snapshot();
        let info = crate::snapshot::inspect(&snap).expect("snapshot must inspect cleanly");
        assert_eq!(info.events_processed, 500);
        let mut b = build();
        b.restore(&snap).expect("restore into an identical rebuild");
        assert_eq!(b.events_processed(), 500);
        a.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        b.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        assert_eq!(digest(&a), digest(&b), "restored run must match the donor");
        assert_eq!(digest(&b), digest(&control), "restored run must match uninterrupted");
    }

    #[test]
    fn restore_rejects_mismatched_config_and_corruption() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: 100_000,
            start: SimTime::ZERO,
            offered: None,
        });
        for _ in 0..50 {
            sim.step();
        }
        let snap = sim.snapshot();

        // Different seed → ConfigMismatch.
        let cfg = SimConfig { seed: 999, ..SimConfig::default() };
        let mut other = Sim::new(
            two_hosts_one_switch(),
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::ConfigMismatch { .. })
        ));

        // Flipped body byte → DigestMismatch before any section is read.
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        let mut fresh = Sim::new(
            two_hosts_one_switch(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        fresh.add_flow(FlowSpec {
            id: FlowId(1),
            src: fresh.topo().hosts()[0],
            dst: fresh.topo().hosts()[1],
            size: 100_000,
            start: SimTime::ZERO,
            offered: None,
        });
        assert!(matches!(
            fresh.restore(&bad),
            Err(SnapshotError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn auto_checkpoint_fires_on_stride_and_snapshots_restore() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: 300_000,
            start: SimTime::ZERO,
            offered: None,
        });
        let taken = Rc::new(RefCell::new(Vec::<(u64, Vec<u8>)>::new()));
        let sink = {
            let taken = Rc::clone(&taken);
            Box::new(move |events: u64, bytes: &[u8]| {
                taken.borrow_mut().push((events, bytes.to_vec()));
            })
        };
        sim.enable_auto_checkpoint(200, sink);
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        let final_digest = (
            sim.events_processed(),
            sim.trace.fcts.iter().map(|r| r.end.as_nanos()).collect::<Vec<_>>(),
        );
        let taken = taken.borrow();
        assert!(!taken.is_empty(), "stride 200 must fire at least once");
        for (events, _) in taken.iter() {
            assert_eq!(events % 200, 0, "checkpoints fire on stride multiples");
        }
        // The last checkpoint resumes to the same completion state.
        let (_, ref bytes) = taken[taken.len() - 1];
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut resumed = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        resumed.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: 300_000,
            start: SimTime::ZERO,
            offered: None,
        });
        resumed.restore(bytes).expect("checkpoint restores");
        resumed.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        let resumed_digest = (
            resumed.events_processed(),
            resumed.trace.fcts.iter().map(|r| r.end.as_nanos()).collect::<Vec<_>>(),
        );
        assert_eq!(resumed_digest, final_digest);
    }

    #[test]
    fn events_for_permanently_crashed_host_are_abandoned() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let cfg = SimConfig {
            fault_plan: crate::fault::FaultPlan::default()
                .with_host_crash_forever(h0, SimTime::from_micros(5)),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        // The flow starts after the crash: its FlowStart must be abandoned,
        // not re-queued every 100 µs until the deadline.
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: 100_000,
            start: SimTime::from_micros(10),
            offered: None,
        });
        let v = sim.run_until_flows_done(SimTime::from_millis(100));
        assert!(
            matches!(v.err(), Some(SimError::Drained { incomplete_flows: 1, .. })),
            "run must drain, not churn to the deadline: {v:?}"
        );
        assert_eq!(sim.trace.faults.abandoned_events, 1);
        // No 100 µs retry churn: the whole run is a handful of events.
        assert!(
            sim.events_processed() < 20,
            "event churn despite abandonment: {}",
            sim.events_processed()
        );
    }

    #[test]
    fn crashed_host_with_scheduled_restore_still_retries() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let cfg = SimConfig {
            fault_plan: crate::fault::FaultPlan::default().with_host_crash(
                h0,
                SimTime::from_micros(5),
                SimTime::from_micros(300),
            ),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: 100_000,
            start: SimTime::from_micros(10),
            offered: None,
        });
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        assert_eq!(sim.trace.faults.abandoned_events, 0);
    }

    /// One flow of `size` bytes from h0 to h1, starting at t = 0, on the
    /// null CC; returns the sim and h0.
    fn one_flow_sim(cfg: SimConfig, size: u64) -> (Sim, NodeId) {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size,
            start: SimTime::ZERO,
            offered: None,
        });
        (sim, h0)
    }

    #[test]
    fn rto_after_a_pause_fires_exactly_one_rto_after_revive() {
        // The host-down path drops a popped RTO event instead of replaying
        // it 100 µs later: with rto = 20 µs a replay (20 → 120 → 220 →
        // 320 µs) would fire the timeout 50 µs after the 270 µs deadline
        // that `revive` sets at 250 µs.
        let h0 = two_hosts_one_switch().hosts()[0];
        // All ten packets are on the wire by 2.1 µs; every ACK reaches the
        // paused sender and is lost, so only the timeout can finish the flow.
        let cfg = SimConfig {
            rto: SimDuration::from_micros(20),
            fault_plan: crate::fault::FaultPlan::default().with_host_pause(
                h0,
                SimTime::from_micros(3),
                SimTime::from_micros(250),
            ),
            ..SimConfig::default()
        };
        let (mut sim, _) = one_flow_sim(cfg, 10_000);
        sim.run_until(SimTime::from_nanos(269_999));
        assert_eq!(sim.trace.retx_bytes, 0, "timed out before revive + rto");
        sim.run_until(SimTime::from_micros(270));
        assert_eq!(
            sim.trace.retx_bytes, 1000,
            "no timeout at exactly revive + rto"
        );
        sim.run_until_flows_done(SimTime::from_millis(10))
            .assert_complete();
        assert_eq!(sim.trace.faults.abandoned_events, 0);
    }

    #[test]
    fn rto_event_of_a_permanently_crashed_host_is_abandoned() {
        let h0 = two_hosts_one_switch().hosts()[0];
        let cfg = SimConfig {
            fault_plan: crate::fault::FaultPlan::default()
                .with_host_crash_forever(h0, SimTime::from_micros(5)),
            ..SimConfig::default()
        };
        let (mut sim, _) = one_flow_sim(cfg, 100_000);
        let v = sim.run_until_flows_done(SimTime::from_millis(100));
        assert!(
            matches!(
                v.err(),
                Some(SimError::Drained {
                    incomplete_flows: 1,
                    ..
                })
            ),
            "{v:?}"
        );
        // The flow's one queued RTO event pops on the dead host and is
        // counted, not replayed (and not silently dropped).
        assert_eq!(sim.trace.faults.abandoned_events, 1);
    }

    #[test]
    fn audit_catches_a_flow_that_lost_its_rto_event() {
        let (mut sim, h0) = one_flow_sim(SimConfig::default(), 100_000);
        sim.enable_sanitizer();
        sim.run_until(SimTime::from_micros(3));
        assert!(
            sim.run_audit(AuditScope::Live).is_none(),
            "clean mid-flow state must audit clean"
        );
        // Forget the queued event: the next arm would push a second one,
        // and a flow that forgot while none was queued could never time out.
        sim.host_mut(h0).rto_event_dropped(FlowId(1));
        match sim.run_audit(AuditScope::Live) {
            Some(SimError::InvariantViolation { violations, .. }) => {
                assert!(
                    violations.iter().any(|v| v.contains("RTO")),
                    "{violations:?}"
                )
            }
            other => panic!("lost RTO flag not reported: {other:?}"),
        }
    }

    #[test]
    fn flow_stop_halts_traffic() {
        let topo = two_hosts_one_switch();
        let h0 = topo.hosts()[0];
        let h1 = topo.hosts()[1];
        let mut sim = Sim::new(
            topo,
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.add_flow(FlowSpec {
            id: FlowId(1),
            src: h0,
            dst: h1,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered: Some(BitRate::from_gbps(10)),
        });
        sim.stop_flow_at(FlowId(1), SimTime::from_millis(1));
        sim.run_until(SimTime::from_millis(2));
        let at_stop = sim.trace.delivered_bytes(FlowId(1));
        sim.run_until(SimTime::from_millis(5));
        let later = sim.trace.delivered_bytes(FlowId(1));
        // Only in-flight residue may arrive after the stop.
        assert!(later - at_stop < 10_000, "flow kept sending after stop");
    }

    #[test]
    fn run_until_an_earlier_instant_does_not_rewind_the_clock() {
        let (mut sim, h0) = one_flow_sim(SimConfig::default(), 100_000);
        // Something must be pending for the deadline to move the clock.
        sim.stop_flow_at(FlowId(1), SimTime::from_millis(50));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.kernel.now, SimTime::from_millis(5));
        let events = sim.events_processed();
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.kernel.now, SimTime::from_millis(5), "clock went backwards");
        assert_eq!(sim.events_processed(), events, "nothing is due by an earlier instant");
        // A flow registered at exactly the clock is not in the past: it
        // starts there and runs to completion.
        sim.add_flow(FlowSpec {
            id: FlowId(2),
            src: sim.topo().hosts()[1],
            dst: h0,
            size: 100_000,
            start: SimTime::from_millis(5),
            offered: None,
        });
        sim.run_until_flows_done(SimTime::from_millis(50)).assert_complete();
        assert!(sim.trace.fcts[1].end > SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "Sample scheduled into the past: at 3000 ns, clock at 10000 ns")]
    fn scheduling_into_the_past_panics_naming_the_event() {
        let mut sim = Sim::new(
            two_hosts_one_switch(),
            SimConfig::default(),
            Box::new(NullHostCcFactory),
            Box::new(NullSwitchCcFactory),
        );
        sim.kernel.now = SimTime::from_micros(10);
        sim.kernel.schedule(SimTime::from_micros(3), Event::Sample);
    }

    /// A snapshot whose `sched` section breaks its order — an entry before
    /// the clock, equal instants out of seq order, a seq the kernel's
    /// counter has not issued — is refused, not restored.
    #[test]
    fn restore_refuses_a_sched_section_out_of_order() {
        let build = || {
            let topo = two_hosts_one_switch();
            let (h0, h1) = (topo.hosts()[0], topo.hosts()[1]);
            let mut sim = Sim::new(
                topo,
                SimConfig::default(),
                Box::new(NullHostCcFactory),
                Box::new(NullSwitchCcFactory),
            );
            for (i, (src, dst)) in [(h0, h1), (h1, h0)].into_iter().enumerate() {
                sim.add_flow(FlowSpec {
                    id: FlowId(i as u64 + 1),
                    src,
                    dst,
                    size: 1_000_000,
                    start: SimTime::ZERO,
                    offered: None,
                });
            }
            sim
        };
        let mut donor = build();
        donor.run_until_event(500);
        let (now, kernel_seq) = (donor.kernel.now, donor.kernel.seq);
        // Re-seal the donor's sections with its `sched` entries edited.
        type Edit<'a> = &'a dyn Fn(&mut Vec<(SimTime, u64, Event)>);
        let resealed = |edit: Edit| {
            let mut w = SnapWriter::new();
            for (name, payload) in donor.sections().iter() {
                w.section(name);
                if name == "sched" {
                    let mut entries = snapshot::SnapReader::new(payload).get().unwrap();
                    edit(&mut entries);
                    w.put(&entries);
                } else {
                    payload.iter().for_each(|b| w.put(b));
                }
            }
            donor.frame(w.finish())
        };
        assert_eq!(
            resealed(&|_| {}),
            donor.snapshot(),
            "re-sealing alone changes nothing"
        );
        assert_eq!(build().restore(&resealed(&|_| {})), Ok(()));
        let refused = |edit: Edit| {
            assert_eq!(
                build().restore(&resealed(edit)),
                Err(SnapshotError::Malformed("sched order"))
            );
        };
        refused(&|e| e[0].0 = SimTime::from_nanos(now.as_nanos() - 1));
        refused(&|e| {
            let (lo, hi) = (e[0].1.min(e[1].1), e[0].1.max(e[1].1));
            e[1].0 = e[0].0;
            (e[0].1, e[1].1) = (hi, lo);
        });
        refused(&|e| e.last_mut().unwrap().1 = kernel_seq + 1);
    }
}
