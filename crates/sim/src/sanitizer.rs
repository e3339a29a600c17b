//! Runtime invariant sanitizer and PFC watchdog.
//!
//! The sanitizer turns the simulator's conservation laws into machine-checked
//! properties. When enabled it audits, at a fixed simulated-time cadence and
//! once more at end-of-run:
//!
//! - **Global byte conservation** — every wire byte ever injected by a host
//!   NIC or generated by a switch (PFC frames, CNPs) is either consumed at a
//!   host, destroyed by a counted drop, or still in the network (host NIC
//!   serialization, switch queues, packets in flight on links).
//! - **Switch accounting** — each egress `qlen_bytes` equals the actual wire
//!   bytes of its data queue, and each PFC `ingress_buffered` counter equals
//!   the bytes parked in egress queues on behalf of that ingress.
//! - **PFC protocol sanity** — an asserted XOFF implies the ingress is still
//!   at or above the XON threshold, and (after a short grace for frames in
//!   flight) that the upstream egress is actually paused.
//! - **Transport monotonicity** — per-flow `acked ≤ next_seq`,
//!   `acked ≤ max_sent ≤ size`, cumulative ACK and receiver `expected`
//!   never regress, delivered bytes equal `expected`, the sender's
//!   cumulative ACK never outruns the receiver, a completion record agrees
//!   with its receiver, and each flow with unacked data has exactly one
//!   RTO event queued, due no later than its deadline.
//! - **RP rate-limiter bounds** — every sender CC decision stays inside the
//!   range the CC declares via [`crate::cc::HostCc::rate_bounds`].
//!
//! On top of the audits sits a **PFC watchdog**: every audit rebuilds the
//! pause wait-for graph over `(node, port)` egress points (an edge `A → B`
//! means paused egress `A` cannot drain until paused egress `B` on the
//! blocking downstream switch drains). A cycle in this graph is a cyclic
//! buffer dependency — the classic PFC deadlock. The watchdog also tracks
//! pause-storm metrics: per-port fraction of audits spent paused, the pause
//! tree depth, and victim-flow attribution (flows parked behind a pause
//! whose own path avoids the congested egress).
//!
//! **What an audit costs.** A periodic audit looks at what is live: every
//! switch port, every sender still installed, every receiver still open,
//! and — once, in its final state — each receiver whose completion record
//! appeared since the last audit. A flow that has completed and been checked
//! is not walked again until the one full sweep that the end-of-run audit
//! and a stalled run's forced audit perform, which visits every receiver the
//! run has ever seen and every completion record; damage to a retired flow
//! is therefore reported late, never missed. Both scopes are one code path
//! (see `AuditScope`); nothing selects between them but who is asking.
//!
//! Failures surface as a typed [`RunVerdict`] / [`SimError`] from
//! [`crate::engine::Sim::run_until_flows_done`] instead of a bare `bool`, so
//! a stalled run names the pause cycle and the queues involved.
//!
//! **Bit-identity guarantee.** The sanitizer never schedules events, never
//! touches the run RNG, and never mutates node state: ledger hooks on the
//! hot paths are a single predictable branch when disabled, and audits only
//! read. The sole behavioral difference an enabled sanitizer may introduce
//! is the *intended* one — aborting a run early with a structured verdict
//! once an invariant violation or a confirmed pause deadlock is observed.

use crate::config::{BufferMode, SimConfig};
use crate::engine::{Event, FlowDir, NodeSlot};
use crate::fault::FaultState;
use crate::fastmap::{map_with_capacity, FxHashMap};
use crate::host::{Host, ReceiverAudit, RTO_TOKEN};
use crate::packet::{CpId, FlowId};
use crate::sched::TimingWheel;
use crate::slab::PacketSlab;
use crate::snapshot::{sorted, struct_codec, SnapReader, SnapWriter, SnapshotError};
use crate::switch::Switch;
use crate::telemetry::{EventMask, SimEvent, VerdictKind};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, PortId, Topology};
use crate::trace::{FctRecord, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Default audit cadence in simulated time.
pub const DEFAULT_AUDIT_PERIOD: SimDuration = SimDuration::from_micros(25);

/// A pause cycle (or mismatch) must survive this many consecutive audits
/// before the watchdog treats it as confirmed rather than a transient.
pub const CONFIRM_AUDITS: u32 = 3;

/// Grace, in consecutive audits, for XOFF/upstream-pause pairing: PFC
/// frames take a propagation delay to land, so a freshly asserted XOFF may
/// legitimately precede the upstream pause for an audit or two.
pub const PAIRING_GRACE: u32 = 3;

// ---------------------------------------------------------------------------
// Byte-conservation ledger
// ---------------------------------------------------------------------------

/// Conservation ledger embedded in the kernel.
///
/// Hot-path hooks (`inject`/`consume`/`destroy`/`heap_add`/`heap_sub`) are a
/// single branch when the sanitizer is off; when on they maintain running
/// wire-byte totals so audits never scan the event heap.
#[derive(Debug, Default)]
pub struct SanLedger {
    enabled: bool,
    injected: u64,
    consumed: u64,
    destroyed: u64,
    heap_arrive_bytes: u64,
}

impl SanLedger {
    /// True when the ledger is recording.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    /// A packet's wire bytes entered the network (host NIC serialization
    /// start, switch-generated PFC frame or feedback packet).
    #[inline]
    pub fn inject(&mut self, bytes: u64) {
        if self.enabled {
            self.injected += bytes;
        }
    }

    /// A packet's wire bytes were delivered to their final consumer.
    #[inline]
    pub fn consume(&mut self, bytes: u64) {
        if self.enabled {
            self.consumed += bytes;
        }
    }

    /// A packet's wire bytes left the network via a counted drop.
    #[inline]
    pub fn destroy(&mut self, bytes: u64) {
        if self.enabled {
            self.destroyed += bytes;
        }
    }

    /// An `Arrive` event entered the event heap (packet in flight on a link).
    #[inline]
    pub fn heap_add(&mut self, bytes: u64) {
        if self.enabled {
            self.heap_arrive_bytes += bytes;
        }
    }

    /// An `Arrive` event left the event heap.
    #[inline]
    pub fn heap_sub(&mut self, bytes: u64) {
        if self.enabled {
            self.heap_arrive_bytes -= bytes;
        }
    }

    /// Total wire bytes injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total wire bytes consumed at hosts.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Total wire bytes destroyed by drops.
    pub fn destroyed(&self) -> u64 {
        self.destroyed
    }

    /// Wire bytes currently in flight on links (pending `Arrive` events).
    pub fn heap_arrive_bytes(&self) -> u64 {
        self.heap_arrive_bytes
    }
}

// The ledger's running totals, after the `enabled` flag, which is
// configuration recorded so a restore can check the rebuilt run.
struct_codec!(SanLedger { enabled, injected, consumed, destroyed, heap_arrive_bytes });

// ---------------------------------------------------------------------------
// Read-only audit view
// ---------------------------------------------------------------------------

/// A read-only snapshot of everything an audit needs, assembled by the
/// engine from disjoint borrows of its own state.
pub struct AuditView<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Global configuration.
    pub config: &'a SimConfig,
    /// The topology.
    pub topo: &'a Topology,
    /// Fault runtime state (links/hosts currently down).
    pub faults: &'a FaultState,
    /// Every node, indexed by [`NodeId`].
    pub(crate) nodes: &'a [NodeSlot],
    /// Registered flows (a completed flow's receiver is found through its
    /// destination here).
    pub(crate) flow_dir: &'a FlowDir,
    /// The conservation ledger.
    pub ledger: &'a SanLedger,
    /// The wire-packet slab (switch queues hold refs into it; audits
    /// resolve them here).
    pub packets: &'a PacketSlab,
    /// The event queue (the RTO audit counts each flow's queued RTO event).
    pub sched: &'a TimingWheel,
}

impl<'a> AuditView<'a> {
    fn hosts(&self) -> impl Iterator<Item = &'a Host> {
        self.nodes.iter().filter_map(|n| match n {
            NodeSlot::Host(h) => Some(h),
            NodeSlot::Switch(_) => None,
        })
    }

    fn switches(&self) -> impl Iterator<Item = &'a Switch> {
        self.nodes.iter().filter_map(|n| match n {
            NodeSlot::Switch(s) => Some(s),
            NodeSlot::Host(_) => None,
        })
    }

    fn switch(&self, id: NodeId) -> Option<&'a Switch> {
        match self.nodes.get(id.0)? {
            NodeSlot::Switch(s) => Some(s),
            NodeSlot::Host(_) => None,
        }
    }

    fn host(&self, id: NodeId) -> Option<&'a Host> {
        match self.nodes.get(id.0)? {
            NodeSlot::Host(h) => Some(h),
            NodeSlot::Switch(_) => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------------

/// One `(node, port)` egress point on a confirmed pause cycle, with the
/// queue state that pins it there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseCycleNode {
    /// The paused node (switch on a cycle; possibly a host on a chain).
    pub node: NodeId,
    /// The paused egress port.
    pub port: PortId,
    /// Data-queue occupancy of the paused egress, in wire bytes.
    pub qlen_bytes: u64,
    /// PFC ingress occupancy at the downstream switch that paused this
    /// egress, in wire bytes.
    pub ingress_buffered: u64,
}

/// Structured failure diagnosis for a run that did not complete cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The PFC watchdog confirmed a cyclic buffer dependency: the named
    /// egress points pause each other in a ring and none can ever drain.
    PfcDeadlock {
        /// Simulated time at which the cycle was confirmed.
        detected_at: SimTime,
        /// The pause cycle, rotated so the smallest `(node, port)` leads.
        cycle: Vec<PauseCycleNode>,
        /// Flows attributed as pause victims (their path avoids the hot
        /// egress that caused the pause they are stuck behind).
        victims: Vec<FlowId>,
    },
    /// The deadline passed with flows outstanding and events still pending.
    DeadlineExceeded {
        /// Simulated time of the deadline.
        at: SimTime,
        /// Finite flows that had not completed.
        incomplete_flows: u64,
        /// Egress ports paused at the deadline (pause pressure indicator).
        paused_ports: u64,
    },
    /// The event heap drained with flows outstanding: the simulation
    /// quiesced without finishing (e.g. every sender is paused and all
    /// timers have expired).
    Drained {
        /// Simulated time at which the heap drained.
        at: SimTime,
        /// Finite flows that had not completed.
        incomplete_flows: u64,
    },
    /// A sanitizer audit found broken invariants.
    InvariantViolation {
        /// Simulated time of the failing audit.
        at: SimTime,
        /// Human-readable descriptions of each violated invariant.
        violations: Vec<String>,
    },
    /// The run's event-count budget ([`crate::config::RunBudget::max_events`])
    /// was exhausted before the completion criterion was met: the run was
    /// doing unbounded work and has been cut off.
    BudgetExhausted {
        /// Simulated time at which the budget ran out.
        at: SimTime,
        /// Events processed when the ceiling was hit.
        events: u64,
        /// The configured ceiling.
        limit: u64,
        /// Finite flows that had not completed.
        incomplete_flows: u64,
    },
    /// Livelock: the engine dispatched
    /// [`crate::config::RunBudget::stall_events`] consecutive events without
    /// simulated time advancing. A sim-time deadline can never fire in this
    /// state — the clock is stuck — so this guard is what converts an
    /// infinite same-instant event loop into a typed failure.
    Stalled {
        /// The instant the clock is stuck at.
        at: SimTime,
        /// Consecutive events dispatched at that instant.
        events_at_instant: u64,
        /// Finite flows that had not completed.
        incomplete_flows: u64,
    },
    /// The run's wall-clock ceiling
    /// ([`crate::config::RunBudget::wall_clock_ms`]) was exhausted before
    /// the completion criterion was met: the cell was hung or
    /// pathologically slow on the shared host and has been cut off.
    WallClockExceeded {
        /// Simulated time at which the ceiling was hit.
        at: SimTime,
        /// Wall-clock milliseconds the run had consumed.
        wall_ms: u64,
        /// The configured ceiling in milliseconds.
        limit_ms: u64,
        /// Finite flows that had not completed.
        incomplete_flows: u64,
    },
}

impl SimError {
    /// The telemetry classification of this error.
    pub fn kind(&self) -> VerdictKind {
        match self {
            SimError::PfcDeadlock { .. } => VerdictKind::PfcDeadlock,
            SimError::DeadlineExceeded { .. } => VerdictKind::DeadlineExceeded,
            SimError::Drained { .. } => VerdictKind::Drained,
            SimError::InvariantViolation { .. } => VerdictKind::InvariantViolation,
            SimError::BudgetExhausted { .. } => VerdictKind::BudgetExhausted,
            SimError::Stalled { .. } => VerdictKind::Stalled,
            SimError::WallClockExceeded { .. } => VerdictKind::WallClockExceeded,
        }
    }

    /// True for failures produced by the runtime budget guards (event-count
    /// ceiling, livelock detector) rather than by the simulated protocol
    /// itself. Campaign drivers treat these as a distinct outcome class.
    pub fn is_budget(&self) -> bool {
        matches!(
            self,
            SimError::BudgetExhausted { .. }
                | SimError::Stalled { .. }
                | SimError::WallClockExceeded { .. }
        )
    }

    /// JSON rendering (CI artifacts, `repro` output).
    pub fn to_json(&self) -> String {
        match self {
            SimError::PfcDeadlock {
                detected_at,
                cycle,
                victims,
            } => {
                let cyc = cycle
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"node\":{},\"port\":{},\"qlen_bytes\":{},\"ingress_buffered\":{}}}",
                            c.node.0, c.port.0, c.qlen_bytes, c.ingress_buffered
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                let vs = victims
                    .iter()
                    .map(|f| f.0.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"verdict\":\"pfc_deadlock\",\"t_ns\":{},\"cycle\":[{cyc}],\"victims\":[{vs}]}}",
                    detected_at.as_nanos()
                )
            }
            SimError::DeadlineExceeded {
                at,
                incomplete_flows,
                paused_ports,
            } => format!(
                "{{\"verdict\":\"deadline_exceeded\",\"t_ns\":{},\"incomplete_flows\":{incomplete_flows},\"paused_ports\":{paused_ports}}}",
                at.as_nanos()
            ),
            SimError::Drained {
                at,
                incomplete_flows,
            } => format!(
                "{{\"verdict\":\"drained\",\"t_ns\":{},\"incomplete_flows\":{incomplete_flows}}}",
                at.as_nanos()
            ),
            SimError::InvariantViolation { at, violations } => {
                let vs = violations
                    .iter()
                    .map(|v| format!("\"{}\"", rocc_stats::json::escape(v)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"verdict\":\"invariant_violation\",\"t_ns\":{},\"violations\":[{vs}]}}",
                    at.as_nanos()
                )
            }
            SimError::BudgetExhausted {
                at,
                events,
                limit,
                incomplete_flows,
            } => format!(
                "{{\"verdict\":\"budget_exhausted\",\"t_ns\":{},\"events\":{events},\"limit\":{limit},\"incomplete_flows\":{incomplete_flows}}}",
                at.as_nanos()
            ),
            SimError::Stalled {
                at,
                events_at_instant,
                incomplete_flows,
            } => format!(
                "{{\"verdict\":\"stalled\",\"t_ns\":{},\"events_at_instant\":{events_at_instant},\"incomplete_flows\":{incomplete_flows}}}",
                at.as_nanos()
            ),
            SimError::WallClockExceeded {
                at,
                wall_ms,
                limit_ms,
                incomplete_flows,
            } => format!(
                "{{\"verdict\":\"wall_clock_exceeded\",\"t_ns\":{},\"wall_ms\":{wall_ms},\"limit_ms\":{limit_ms},\"incomplete_flows\":{incomplete_flows}}}",
                at.as_nanos()
            ),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PfcDeadlock {
                detected_at,
                cycle,
                victims,
            } => {
                write!(
                    f,
                    "PFC deadlock confirmed at {detected_at}: pause cycle of {} egress points [",
                    cycle.len()
                )?;
                for (i, c) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(
                        f,
                        "(node {}, port {}, q={}B, ingress={}B)",
                        c.node.0, c.port.0, c.qlen_bytes, c.ingress_buffered
                    )?;
                }
                write!(f, "], {} victim flow(s)", victims.len())
            }
            SimError::DeadlineExceeded {
                at,
                incomplete_flows,
                paused_ports,
            } => write!(
                f,
                "deadline exceeded at {at}: {incomplete_flows} flow(s) incomplete, {paused_ports} egress port(s) paused"
            ),
            SimError::Drained {
                at,
                incomplete_flows,
            } => write!(
                f,
                "event heap drained at {at} with {incomplete_flows} flow(s) incomplete (simulation quiesced)"
            ),
            SimError::InvariantViolation { at, violations } => {
                write!(f, "sanitizer found {} violation(s) at {at}: ", violations.len())?;
                for (i, v) in violations.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            SimError::BudgetExhausted {
                at,
                events,
                limit,
                incomplete_flows,
            } => write!(
                f,
                "event budget exhausted at {at}: {events} events processed (limit {limit}), {incomplete_flows} flow(s) incomplete"
            ),
            SimError::Stalled {
                at,
                events_at_instant,
                incomplete_flows,
            } => write!(
                f,
                "livelock at {at}: {events_at_instant} consecutive events without sim-time progress, {incomplete_flows} flow(s) incomplete"
            ),
            SimError::WallClockExceeded {
                at,
                wall_ms,
                limit_ms,
                incomplete_flows,
            } => write!(
                f,
                "wall-clock budget exhausted at {at}: {wall_ms} ms elapsed (limit {limit_ms} ms), {incomplete_flows} flow(s) incomplete"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The typed outcome of [`crate::engine::Sim::run_until_flows_done`].
#[must_use = "a RunVerdict may carry a failure diagnosis; check it"]
#[derive(Debug, Clone, PartialEq)]
pub enum RunVerdict {
    /// All finite flows completed and (if enabled) every audit passed.
    Completed {
        /// Number of finite flows that completed.
        flows: u64,
    },
    /// The run failed; the error names the cause.
    Failed(SimError),
}

impl RunVerdict {
    /// True if the run completed cleanly.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunVerdict::Completed { .. })
    }

    /// Panic with the full diagnosis unless the run completed.
    pub fn assert_complete(&self) {
        if let RunVerdict::Failed(e) = self {
            panic!("simulation failed: {e}");
        }
    }

    /// The failure, if any.
    pub fn err(&self) -> Option<&SimError> {
        match self {
            RunVerdict::Completed { .. } => None,
            RunVerdict::Failed(e) => Some(e),
        }
    }

    /// JSON rendering (CI artifacts, `repro` output).
    pub fn to_json(&self) -> String {
        match self {
            RunVerdict::Completed { flows } => {
                format!("{{\"verdict\":\"completed\",\"flows\":{flows}}}")
            }
            RunVerdict::Failed(e) => e.to_json(),
        }
    }
}

// ---------------------------------------------------------------------------
// Pause wait-for graph
// ---------------------------------------------------------------------------

type Key = (usize, usize);

/// One scan of the pause wait-for graph.
#[derive(Debug, Clone, Default)]
pub struct PauseReport {
    /// Wait-for edges: paused egress `A` cannot drain until paused egress
    /// `B` on its blocking downstream switch drains.
    pub edges: Vec<((NodeId, PortId), (NodeId, PortId))>,
    /// A cycle, if one exists (rotated so the smallest node leads); empty
    /// otherwise.
    pub cycle: Vec<PauseCycleNode>,
    /// Flows attributed as pause victims in this scan.
    pub victims: Vec<FlowId>,
    /// Longest pause chain (tree depth) observed in this scan.
    pub max_depth: u32,
    /// Every currently paused egress point (switch egresses and host
    /// uplinks).
    pub paused_ports: Vec<(NodeId, PortId)>,
}

/// Build the pause wait-for graph from a snapshot and detect cycles,
/// victims, and the pause-tree depth.
///
/// This is a pure read of the view; it works even when the sanitizer is
/// disabled, which lets the engine attach a diagnosis to *any* failing run.
pub fn scan_pause_graph(view: &AuditView<'_>) -> PauseReport {
    let mut paused: Vec<(NodeId, PortId)> = Vec::new();
    for s in view.switches() {
        for p in 0..s.port_count() {
            if s.port(PortId(p)).is_paused() {
                paused.push((s.id, PortId(p)));
            }
        }
    }
    for h in view.hosts() {
        if h.is_paused() {
            paused.push((h.id, PortId(0)));
        }
    }
    paused.sort_by_key(|&(n, p)| (n.0, p.0));

    let mut edges: Vec<((NodeId, PortId), (NodeId, PortId))> = Vec::new();
    let mut victims: BTreeSet<FlowId> = BTreeSet::new();
    for &(n, p) in &paused {
        // The downstream switch that paused this egress.
        let link = view.topo.out_link(n, p);
        let (down, in_port) = view.topo.link(link).to;
        let Some(blocker) = view.switch(down) else {
            continue; // hosts never send PAUSE; stale pause flag
        };
        if !blocker.sent_xoff(in_port) {
            continue; // resume in flight
        }
        // The blocker's egresses holding bytes from this ingress; paused
        // ones are wait-for successors, and the hottest one is where the
        // congestion actually lives (victim attribution baseline).
        let mut hot = PortId(0);
        let mut hot_bytes = 0u64;
        for e in 0..blocker.port_count() {
            let b = blocker.ingress_bytes_at(PortId(e), in_port, view.packets);
            if b > hot_bytes {
                hot_bytes = b;
                hot = PortId(e);
            }
            if b > 0 && blocker.port(PortId(e)).is_paused() {
                edges.push(((n, p), (blocker.id, PortId(e))));
            }
        }
        // Victims: flows parked in the paused queue at `n` whose own path
        // through the blocker avoids the hot egress entirely.
        if hot_bytes > 0 {
            if let Some(src) = view.switch(n) {
                for (fid, dst) in src.queued_flows(p, view.packets) {
                    if view.topo.route(blocker.id, dst, fid) != Some(hot) {
                        victims.insert(fid);
                    }
                }
            }
        }
    }

    // Deterministic adjacency.
    let mut adj: BTreeMap<Key, Vec<Key>> = BTreeMap::new();
    for &(a, b) in &edges {
        adj.entry((a.0 .0, a.1 .0)).or_default().push((b.0 .0, b.1 .0));
    }
    for next in adj.values_mut() {
        next.sort_unstable();
        next.dedup();
    }

    // Cycle detection: iterative-friendly recursive coloring (graphs here
    // are tiny — bounded by the number of paused ports).
    fn dfs(
        u: Key,
        adj: &BTreeMap<Key, Vec<Key>>,
        color: &mut FxHashMap<Key, u8>,
        stack: &mut Vec<Key>,
        out: &mut Vec<Key>,
    ) -> bool {
        color.insert(u, 1);
        stack.push(u);
        if let Some(next) = adj.get(&u) {
            for &v in next {
                match color.get(&v).copied().unwrap_or(0) {
                    0 if dfs(v, adj, color, stack, out) => {
                        return true;
                    }
                    0 => {}
                    1 => {
                        let pos = stack.iter().position(|&x| x == v).expect("gray on stack");
                        out.extend_from_slice(&stack[pos..]);
                        return true;
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        color.insert(u, 2);
        false
    }

    let mut color: FxHashMap<Key, u8> = FxHashMap::default();
    let mut cycle_keys: Vec<Key> = Vec::new();
    for &start in adj.keys() {
        if color.get(&start).copied().unwrap_or(0) == 0 {
            let mut stack = Vec::new();
            if dfs(start, &adj, &mut color, &mut stack, &mut cycle_keys) {
                break;
            }
        }
    }
    // Normalize: rotate the cycle so its smallest key leads.
    if !cycle_keys.is_empty() {
        let min_pos = cycle_keys
            .iter()
            .enumerate()
            .min_by_key(|&(_, k)| k)
            .map(|(i, _)| i)
            .unwrap_or(0);
        cycle_keys.rotate_left(min_pos);
    }
    let cycle: Vec<PauseCycleNode> = cycle_keys
        .iter()
        .map(|&(ni, pi)| {
            let node = NodeId(ni);
            let port = PortId(pi);
            let sw = view
                .switch(node)
                .expect("pause cycles traverse switch egresses only");
            let link = view.topo.out_link(node, port);
            let (down, in_port) = view.topo.link(link).to;
            let ingress_buffered = view
                .switch(down)
                .map(|s| s.ingress_buffered(in_port))
                .unwrap_or(0);
            PauseCycleNode {
                node,
                port,
                qlen_bytes: sw.port(port).qlen_bytes(),
                ingress_buffered,
            }
        })
        .collect();

    // Pause-tree depth: longest chain through the wait-for graph. A cycle
    // makes the depth the cycle length (it never drains).
    let max_depth = if !cycle.is_empty() {
        cycle.len() as u32
    } else {
        fn depth_of(u: Key, adj: &BTreeMap<Key, Vec<Key>>, memo: &mut FxHashMap<Key, u32>) -> u32 {
            if let Some(&d) = memo.get(&u) {
                return d;
            }
            memo.insert(u, 1); // cycle guard (unreachable here, but safe)
            let mut best = 0;
            if let Some(next) = adj.get(&u) {
                for &v in next {
                    best = best.max(depth_of(v, adj, memo));
                }
            }
            memo.insert(u, best + 1);
            best + 1
        }
        let mut memo = FxHashMap::default();
        paused
            .iter()
            .map(|&(n, p)| depth_of((n.0, p.0), &adj, &mut memo))
            .max()
            .unwrap_or(0)
    };

    PauseReport {
        edges,
        cycle,
        victims: victims.into_iter().collect(),
        max_depth,
        paused_ports: paused,
    }
}

// ---------------------------------------------------------------------------
// The sanitizer
// ---------------------------------------------------------------------------

/// Cross-run summary of what the sanitizer and watchdog observed.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Number of audits run.
    pub audits: u64,
    /// Every invariant violation recorded across the run.
    pub violations: Vec<String>,
    /// Largest per-port fraction of audits spent paused (0.0 when no audit
    /// ever saw a pause).
    pub max_pause_fraction: f64,
    /// Deepest pause chain observed.
    pub max_pause_depth: u32,
    /// Union of all flows ever attributed as pause victims.
    pub victims: Vec<FlowId>,
    /// Receiver and sender records put through the transport checks, summed
    /// over every audit since this `Sim` was built or restored: the audit's
    /// work as a count. It grows with live flows per audit plus twice per
    /// flow (its final-state check and the end-of-run sweep), not with
    /// audits × flows.
    pub flow_checks: u64,
}

/// How much of the receiver population one audit walks. Every check runs
/// in both; they differ only in which receivers are looked at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AuditScope {
    /// The receivers still open, plus each receiver that completed since
    /// the last audit, once more, in its final state: what the periodic
    /// audit costs is what is live.
    Live,
    /// Every receiver the run has ever seen, and every completion record
    /// against its receiver: the end-of-run audit and a stall's forced
    /// one, so state damaged after its last `Live` check is still caught.
    Sweep,
}

/// The runtime invariant auditor + PFC watchdog owned by the engine.
pub struct Sanitizer {
    enabled: bool,
    period: SimDuration,
    next_audit: SimTime,
    audits: u64,
    violations: Vec<String>,
    /// Cumulative ack of every live sender at the last audit.
    last_acked: FxHashMap<FlowId, u64>,
    /// Expected sequence of every open receiver at the last audit.
    last_expected: FxHashMap<FlowId, u64>,
    /// How many of `Trace::fcts` (the append-only completion log) have had
    /// their receiver's final-state check. Derived, never serialized:
    /// `None` after a restore, when the next audit recomputes it from the
    /// last audit's instant.
    fct_cursor: Option<usize>,
    flow_checks: u64,
    /// Make every audit a [`AuditScope::Sweep`] (the equivalence tests).
    #[cfg(test)]
    pub(crate) always_sweep: bool,
    pairing_streak: BTreeMap<Key, u32>,
    paused_audits: BTreeMap<Key, u64>,
    last_cycle: Vec<Key>,
    cycle_streak: u32,
    edges_seen: BTreeSet<(Key, Key)>,
    max_depth: u32,
    victims: BTreeSet<FlowId>,
}

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer {
            enabled: false,
            period: DEFAULT_AUDIT_PERIOD,
            next_audit: SimTime::ZERO,
            audits: 0,
            violations: Vec::new(),
            last_acked: FxHashMap::default(),
            last_expected: FxHashMap::default(),
            fct_cursor: Some(0),
            flow_checks: 0,
            #[cfg(test)]
            always_sweep: false,
            pairing_streak: BTreeMap::new(),
            paused_audits: BTreeMap::new(),
            last_cycle: Vec::new(),
            cycle_streak: 0,
            edges_seen: BTreeSet::new(),
            max_depth: 0,
            victims: BTreeSet::new(),
        }
    }
}

impl Sanitizer {
    /// True when audits are running.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn enable(&mut self, now: SimTime, period: SimDuration) {
        self.enabled = true;
        self.period = period;
        self.next_audit = now + period;
    }

    /// True if an audit is due at `now` (one branch when disabled).
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        self.enabled && now >= self.next_audit
    }

    /// Number of audits run so far.
    pub fn audits(&self) -> u64 {
        self.audits
    }

    /// Every violation recorded so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Fraction of audits during which `(node, port)` was paused.
    pub fn pause_fraction(&self, node: NodeId, port: PortId) -> f64 {
        if self.audits == 0 {
            return 0.0;
        }
        let n = self.paused_audits.get(&(node.0, port.0)).copied().unwrap_or(0);
        n as f64 / self.audits as f64
    }

    /// Summary report for experiments and tests.
    pub fn report(&self) -> SanitizerReport {
        let max_paused = self.paused_audits.values().copied().max().unwrap_or(0);
        SanitizerReport {
            audits: self.audits,
            violations: self.violations.clone(),
            max_pause_fraction: if self.audits == 0 {
                0.0
            } else {
                max_paused as f64 / self.audits as f64
            },
            max_pause_depth: self.max_depth,
            victims: self.victims.iter().copied().collect(),
            flow_checks: self.flow_checks,
        }
    }

    /// Serialize the sanitizer's dynamic audit state. `enabled` and
    /// `period` are configuration (set by the caller when rebuilding the
    /// sim); they are recorded so restore can verify they match.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.enabled);
        w.put(&self.period);
        w.put(&self.next_audit);
        w.put(&self.audits);
        w.put(&self.violations);
        w.put(&sorted(&self.last_acked));
        w.put(&sorted(&self.last_expected));
        w.put(&self.pairing_streak);
        w.put(&self.paused_audits);
        w.put(&self.last_cycle);
        w.put(&self.cycle_streak);
        w.put(&self.edges_seen);
        w.put(&self.max_depth);
        w.put(&self.victims);
    }

    /// Overwrite the sanitizer's dynamic state from a
    /// [`Sanitizer::save_state`] stream.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let (enabled, period): (bool, SimDuration) = r.get()?;
        if enabled != self.enabled || (enabled && period != self.period) {
            return Err(SnapshotError::Malformed("sanitizer configuration differs"));
        }
        self.next_audit = r.get()?;
        self.audits = r.get()?;
        self.violations = r.get()?;
        self.last_acked = r.get::<Vec<(FlowId, u64)>>()?.into_iter().collect();
        self.last_expected = r.get::<Vec<(FlowId, u64)>>()?.into_iter().collect();
        self.fct_cursor = None;
        self.pairing_streak = r.get()?;
        self.paused_audits = r.get()?;
        self.last_cycle = r.get()?;
        self.cycle_streak = r.get()?;
        self.edges_seen = r.get()?;
        self.max_depth = r.get()?;
        self.victims = r.get()?;
        Ok(())
    }

    /// Run one audit over `view`. Returns a structured error if this audit
    /// found fresh invariant violations, or if a pause cycle has now
    /// persisted for [`CONFIRM_AUDITS`] consecutive audits.
    pub(crate) fn audit(
        &mut self,
        view: &AuditView<'_>,
        trace: &mut Trace,
        scope: AuditScope,
    ) -> Option<SimError> {
        #[cfg(test)]
        let scope = if self.always_sweep { AuditScope::Sweep } else { scope };
        let mut fresh: Vec<String> = Vec::new();

        self.check_conservation(view, &mut fresh);
        self.check_switch_accounting(view, &mut fresh);
        self.check_pfc_pairing(view, &mut fresh);
        self.check_flows(view, trace, scope, &mut fresh);
        // Only now: a restored `check_flows` dates the previous audit by these.
        self.audits += 1;
        self.next_audit = view.now + self.period;

        let report = scan_pause_graph(view);
        for &(n, p) in &report.paused_ports {
            *self.paused_audits.entry((n.0, p.0)).or_insert(0) += 1;
        }
        if report.max_depth > self.max_depth {
            self.max_depth = report.max_depth;
        }
        self.victims.extend(report.victims.iter().copied());

        // Surface newly seen wait-for edges on the telemetry timeline.
        if trace.wants(EventMask::SANITIZER) {
            for &(a, b) in &report.edges {
                let key = ((a.0 .0, a.1 .0), (b.0 .0, b.1 .0));
                if self.edges_seen.insert(key) {
                    trace.publish_event(SimEvent::PauseEdge {
                        t: view.now,
                        from: CpId {
                            node: a.0,
                            port: a.1,
                        },
                        to: CpId {
                            node: b.0,
                            port: b.1,
                        },
                    });
                }
            }
        }

        // Cycle persistence: the same normalized cycle must survive
        // CONFIRM_AUDITS consecutive audits to rule out a transient that a
        // RESUME in flight is about to break.
        let norm: Vec<Key> = report.cycle.iter().map(|c| (c.node.0, c.port.0)).collect();
        if norm.is_empty() {
            self.cycle_streak = 0;
            self.last_cycle.clear();
        } else if norm == self.last_cycle {
            self.cycle_streak += 1;
        } else {
            self.last_cycle = norm;
            self.cycle_streak = 1;
        }

        if !fresh.is_empty() {
            self.violations.extend(fresh.iter().cloned());
            return Some(SimError::InvariantViolation {
                at: view.now,
                violations: fresh,
            });
        }
        if self.cycle_streak >= CONFIRM_AUDITS {
            return Some(SimError::PfcDeadlock {
                detected_at: view.now,
                cycle: report.cycle,
                victims: report.victims,
            });
        }
        None
    }

    fn check_conservation(&self, view: &AuditView<'_>, out: &mut Vec<String>) {
        let mut in_network = view.ledger.heap_arrive_bytes;
        for h in view.hosts() {
            in_network += h.in_flight_wire_bytes();
        }
        for s in view.switches() {
            in_network += s.buffered_wire_bytes(view.packets);
        }
        let l = view.ledger;
        if l.injected != l.consumed + l.destroyed + in_network {
            out.push(format!(
                "byte conservation broken: injected {} != consumed {} + destroyed {} + in-network {} (links {}B)",
                l.injected, l.consumed, l.destroyed, in_network, l.heap_arrive_bytes
            ));
        }
    }

    fn check_switch_accounting(&self, view: &AuditView<'_>, out: &mut Vec<String>) {
        for s in view.switches() {
            for p in 0..s.port_count() {
                let p = PortId(p);
                let counted = s.port(p).qlen_bytes();
                let actual = s.data_q_wire_bytes(p, view.packets);
                if counted != actual {
                    out.push(format!(
                        "switch {} port {}: qlen_bytes counter {} != queue contents {}",
                        view.topo.node(s.id).name,
                        p.0,
                        counted,
                        actual
                    ));
                }
            }
            if view.config.buffer_mode == BufferMode::LosslessPfc {
                for i in 0..s.port_count() {
                    let ing = PortId(i);
                    let counted = s.ingress_buffered(ing);
                    let actual: u64 = (0..s.port_count())
                        .map(|e| s.ingress_bytes_at(PortId(e), ing, view.packets))
                        .sum();
                    if counted != actual {
                        out.push(format!(
                            "switch {} ingress {}: ingress_buffered counter {} != queued bytes {}",
                            view.topo.node(s.id).name,
                            ing.0,
                            counted,
                            actual
                        ));
                    }
                }
            }
        }
    }

    fn check_pfc_pairing(&mut self, view: &AuditView<'_>, out: &mut Vec<String>) {
        if view.config.buffer_mode != BufferMode::LosslessPfc {
            return;
        }
        let mut next_streak: BTreeMap<Key, u32> = BTreeMap::new();
        for s in view.switches() {
            for i in 0..s.port_count() {
                let ing = PortId(i);
                if !s.sent_xoff(ing) {
                    continue;
                }
                let in_link = view.topo.node(s.id).in_links[i];
                let in_rate = view.topo.link(in_link).rate;
                let xon = view.config.pfc.xon_for(in_rate);
                if s.ingress_buffered(ing) < xon {
                    out.push(format!(
                        "switch {} ingress {}: XOFF asserted but occupancy {} < XON {}",
                        view.topo.node(s.id).name,
                        i,
                        s.ingress_buffered(ing),
                        xon
                    ));
                }
                // Pairing: the upstream egress should be paused; allow a
                // short streak for PAUSE frames still in flight, and skip
                // entirely while faults make the handshake unverifiable.
                if view.faults.link_is_down(in_link) {
                    continue;
                }
                let (up, up_port) = view.topo.link(in_link).from;
                let up_paused = if let Some(usw) = view.switch(up) {
                    usw.port(up_port).is_paused()
                } else if let Some(uh) = view.host(up) {
                    if view.faults.host_is_down(uh.id) {
                        continue;
                    }
                    uh.is_paused()
                } else {
                    continue;
                };
                if !up_paused {
                    let key = (s.id.0, i);
                    let streak = self.pairing_streak.get(&key).copied().unwrap_or(0) + 1;
                    if streak >= PAIRING_GRACE {
                        out.push(format!(
                            "switch {} ingress {}: XOFF asserted for {} audits but upstream (node {}, port {}) is not paused",
                            view.topo.node(s.id).name,
                            i,
                            streak,
                            up.0,
                            up_port.0
                        ));
                    }
                    next_streak.insert(key, streak);
                }
            }
        }
        self.pairing_streak = next_streak;
    }

    /// How many of `fcts` a past audit has already checked against their
    /// receivers.
    fn fcts_checked(&self, fcts: &[FctRecord]) -> usize {
        match self.fct_cursor {
            Some(n) => n.min(fcts.len()),
            None if self.audits == 0 => 0,
            // Restored: the last audit saw every record up to its instant
            // (the ones at that very instant may be checked a second time).
            None => {
                let last_audit = self.next_audit.as_nanos().saturating_sub(self.period.as_nanos());
                fcts.partition_point(|r| r.end.as_nanos() < last_audit)
            }
        }
    }

    /// Transport audit. Receivers: the open ones every time, a completed
    /// one once more when its completion record appears, all of them in a
    /// [`AuditScope::Sweep`]. Senders leave their host when they complete,
    /// so every audit walks exactly the live ones.
    fn check_flows(
        &mut self,
        view: &AuditView<'_>,
        trace: &Trace,
        scope: AuditScope,
        out: &mut Vec<String>,
    ) {
        let sweep = scope == AuditScope::Sweep;
        let mut checks = 0u64;
        // Receiver side: expected-sequence monotonicity and the
        // delivered-bytes cross-check. `next_expected` carries the open
        // receivers to the next audit; a completed one is pinned by its
        // completion record instead.
        let mut next_expected: FxHashMap<FlowId, u64> = map_with_capacity(self.last_expected.len());
        let mut check_receiver = |r: ReceiverAudit, out: &mut Vec<String>| {
            checks += 1;
            let last = self.last_expected.get(&r.flow).copied().unwrap_or(0);
            if r.expected < last {
                out.push(format!(
                    "flow {}: receiver expected-seq regressed {} -> {}",
                    r.flow.0, last, r.expected
                ));
            }
            if !r.complete {
                next_expected.insert(r.flow, r.expected);
            }
            let delivered = trace.delivered_bytes(r.flow);
            if delivered != r.expected {
                out.push(format!(
                    "flow {}: delivered bytes {} != receiver expected {}",
                    r.flow.0, delivered, r.expected
                ));
            }
        };
        for h in view.hosts() {
            if !sweep {
                h.audit_open_receivers().for_each(|r| check_receiver(r, out));
                continue;
            }
            // The sweep also vets the index the other audits trust.
            let mut open = 0;
            for r in h.audit_receivers() {
                open += usize::from(!r.complete);
                check_receiver(r, out);
            }
            if open != h.open_receivers() {
                out.push(format!(
                    "host {}: open-receiver index holds {} flow(s), {} receiver(s) are incomplete",
                    view.topo.node(h.id).name,
                    h.open_receivers(),
                    open
                ));
            }
        }
        // Completions: each record must agree with its receiver, which the
        // loop above no longer visits (the sweep just did, so it only
        // cross-checks — from the first record on).
        let checked = if sweep { 0 } else { self.fcts_checked(&trace.fcts) };
        for rec in &trace.fcts[checked..] {
            let dst = view.flow_dir.get(rec.flow).and_then(|f| view.host(f.dst));
            match dst.and_then(|h| h.audit_receiver(rec.flow)) {
                Some(r) => {
                    if !sweep {
                        check_receiver(r, out);
                    }
                    if !r.complete || r.expected != rec.size {
                        out.push(format!(
                            "flow {}: completion recorded at {} bytes, receiver expected {} (complete: {})",
                            rec.flow.0, rec.size, r.expected, r.complete
                        ));
                    }
                }
                None => out.push(format!(
                    "flow {}: completion recorded but its destination holds no receiver state",
                    rec.flow.0
                )),
            }
        }
        self.fct_cursor = Some(trace.fcts.len());
        self.last_expected = next_expected;

        // Every queued RTO event, per flow: how many, and when the
        // earliest is due.
        let senders = self.last_acked.len();
        let mut rto_events: FxHashMap<FlowId, (u32, SimTime)> = map_with_capacity(senders);
        for (at, _, ev) in view.sched.iter() {
            match *ev {
                Event::HostCcTimer { flow, token, .. } if token == RTO_TOKEN => {
                    let e = rto_events.entry(flow).or_insert((0, at));
                    *e = (e.0 + 1, e.1.min(at));
                }
                _ => {}
            }
        }
        // Sender side.
        let mut next_acked: FxHashMap<FlowId, u64> = map_with_capacity(senders);
        for h in view.hosts() {
            let up = !view.faults.host_is_down(h.id);
            for sa in h.audit_senders() {
                checks += 1;
                // One RTO event per flow: unacked data needs a deadline and
                // (host up) its event; flag ⇔ queued; the event is never late.
                let (n, at) = rto_events.get(&sa.flow).copied().unwrap_or((0, view.now));
                let live = sa.acked >= sa.next_seq
                    || (sa.rto_deadline.is_some() && (sa.rto_queued || !up));
                let paired =
                    n == sa.rto_queued as u32 && sa.rto_deadline.is_none_or(|d| n == 0 || at <= d);
                if !(live && paired) {
                    out.push(format!(
                        "flow {}: RTO timer broken: acked {} next_seq {} deadline {:?} queued {}, {} event(s) in the queue (first due {})",
                        sa.flow.0, sa.acked, sa.next_seq, sa.rto_deadline, sa.rto_queued, n, at
                    ));
                }
                if sa.acked > sa.next_seq {
                    out.push(format!(
                        "flow {}: acked {} > next_seq {}",
                        sa.flow.0, sa.acked, sa.next_seq
                    ));
                }
                if sa.acked > sa.max_sent {
                    out.push(format!(
                        "flow {}: acked {} > max_sent {}",
                        sa.flow.0, sa.acked, sa.max_sent
                    ));
                }
                if sa.size != u64::MAX && sa.max_sent > sa.size {
                    out.push(format!(
                        "flow {}: max_sent {} > size {}",
                        sa.flow.0, sa.max_sent, sa.size
                    ));
                }
                let last = self.last_acked.get(&sa.flow).copied().unwrap_or(0);
                if sa.acked < last {
                    out.push(format!(
                        "flow {}: cumulative ack regressed {} -> {}",
                        sa.flow.0, last, sa.acked
                    ));
                }
                next_acked.insert(sa.flow, sa.acked);
                // The receiver, open or long completed, by one keyed lookup.
                let receiver = view.host(sa.dst).and_then(|d| d.audit_receiver(sa.flow));
                if let Some(r) = receiver.filter(|r| sa.acked > r.expected) {
                    out.push(format!(
                        "flow {}: sender acked {} outran receiver expected {}",
                        sa.flow.0, sa.acked, r.expected
                    ));
                }
                // RP rate-limiter bounds (paper §3.2: R_AI floor to line rate).
                if let Some((lo, hi)) = sa.bounds {
                    let r = sa.rate.as_bps();
                    if r < lo.as_bps() || r > hi.as_bps() {
                        out.push(format!(
                            "flow {}: CC rate {} outside declared bounds [{}, {}]",
                            sa.flow.0,
                            sa.rate,
                            lo,
                            hi
                        ));
                    }
                }
            }
        }
        self.last_acked = next_acked;
        self.flow_checks += checks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{HostCc, HostCcFactory, NullSwitchCcFactory, RateDecision};
    use crate::engine::{FlowSpec, Sim};
    use crate::fault::{FaultPlan, FaultTarget};
    use crate::host::{Corrupt, SenderAudit};
    use crate::topology::{LinkId, NodeRole, TopologyBuilder};
    use crate::units::BitRate;
    use std::cell::Cell;
    use std::rc::Rc;

    const F: FlowId = FlowId(1);

    /// Line rate, with declared bounds of 1–40 Gb/s that the rate in the
    /// shared cell may be set to break.
    struct BoundedCc(Rc<Cell<u64>>);

    impl HostCc for BoundedCc {
        fn decision(&self) -> RateDecision {
            RateDecision::line_rate(BitRate::from_bps(self.0.get()))
        }
        fn rate_bounds(&self) -> Option<(BitRate, BitRate)> {
            Some((BitRate::from_gbps(1), BitRate::from_gbps(40)))
        }
        // The rate lives in the test's shared cell, not in the controller.
        fn snapshot_state(&self, _out: &mut Vec<u64>) {}
        fn restore_state(&mut self, _state: &[u64]) {}
    }

    struct BoundedFactory(Rc<Cell<u64>>);

    impl HostCcFactory for BoundedFactory {
        fn make(&self, _flow: FlowId, _link_rate: BitRate) -> Box<dyn HostCc> {
            Box::new(BoundedCc(Rc::clone(&self.0)))
        }
    }

    /// Two 40G hosts on one switch, `flows` as `(id, size, start µs)` from
    /// the first to the second, audited every `period_us`.
    fn two_host_sim(
        flows: &[(u64, u64, u64)],
        period_us: u64,
    ) -> (Sim, NodeId, NodeId, Rc<Cell<u64>>) {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let sw = b.add_switch("sw", NodeRole::Switch);
        b.connect(h0, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        b.connect(h1, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        let rate = Rc::new(Cell::new(BitRate::from_gbps(40).as_bps()));
        let mut sim = Sim::new(
            b.build(),
            SimConfig::default(),
            Box::new(BoundedFactory(Rc::clone(&rate))),
            Box::new(NullSwitchCcFactory),
        );
        sim.enable_sanitizer_with_period(SimDuration::from_micros(period_us));
        for &(id, size, start_us) in flows {
            sim.add_flow(FlowSpec {
                id: FlowId(id),
                src: h0,
                dst: h1,
                size,
                start: SimTime::from_micros(start_us),
                offered: None,
            });
        }
        (sim, h0, h1, rate)
    }

    /// Every transport invariant `check_flows` states, broken one at a
    /// time on a clean mid-flow state: the audit must name each.
    #[test]
    fn every_transport_invariant_is_reported_when_broken() {
        type Break = fn(&mut Sim, NodeId, NodeId, SenderAudit, ReceiverAudit, &Cell<u64>);
        type Want = fn(SenderAudit, ReceiverAudit) -> String;
        let cases: &[(Break, Want)] = &[
            (
                |sim, _, h1, _, r, _| sim.host_mut(h1).corrupt(F, Corrupt::RecvExpected, r.expected - 1000),
                |_, r| format!("flow 1: receiver expected-seq regressed {} -> {}", r.expected, r.expected - 1000),
            ),
            (
                |sim, _, _, _, r, _| sim.trace.corrupt_delivered(F, r.expected + 1),
                |_, r| format!("flow 1: delivered bytes {} != receiver expected {}", r.expected + 1, r.expected),
            ),
            (
                |sim, h0, _, s, _, _| sim.host_mut(h0).corrupt(F, Corrupt::NextSeq, s.acked - 1),
                |s, _| format!("flow 1: acked {} > next_seq {}", s.acked, s.acked - 1),
            ),
            (
                |sim, h0, _, s, _, _| sim.host_mut(h0).corrupt(F, Corrupt::MaxSent, s.acked - 1),
                |s, _| format!("flow 1: acked {} > max_sent {}", s.acked, s.acked - 1),
            ),
            (
                |sim, h0, _, s, _, _| sim.host_mut(h0).corrupt(F, Corrupt::Size, s.max_sent - 1),
                |s, _| format!("flow 1: max_sent {} > size {}", s.max_sent, s.max_sent - 1),
            ),
            (
                |sim, h0, _, s, _, _| sim.host_mut(h0).corrupt(F, Corrupt::Acked, s.acked - 1000),
                |s, _| format!("flow 1: cumulative ack regressed {} -> {}", s.acked, s.acked - 1000),
            ),
            (
                |sim, h0, _, _, r, _| sim.host_mut(h0).corrupt(F, Corrupt::Acked, r.expected + 1000),
                |_, r| format!("flow 1: sender acked {} outran receiver expected {}", r.expected + 1000, r.expected),
            ),
            (
                |_, _, _, _, _, rate| rate.set(BitRate::from_gbps(41).as_bps()),
                |s, _| format!("flow 1: CC rate {} outside declared bounds", BitRate::from_bps(s.rate.as_bps() + 1_000_000_000)),
            ),
        ];
        for (corrupt, want) in cases {
            let (mut sim, h0, h1, rate) = two_host_sim(&[(1, 1_000_000, 0)], 25);
            sim.run_until(SimTime::from_micros(10));
            let clean = sim.run_audit(AuditScope::Live);
            assert!(clean.is_none(), "clean mid-flow state must audit clean: {clean:?}");
            let s = sim.host(h0).audit_senders().next().expect("flow 1 is sending");
            let r = sim.host(h1).audit_receiver(F).expect("flow 1 is arriving");
            // Mid-flow with data both ways in flight, so every row below
            // has room to move one word without tripping a second check's
            // precondition.
            assert!(1000 < s.acked && s.acked < r.expected && r.expected + 1000 < s.next_seq, "{s:?} {r:?}");
            corrupt(&mut sim, h0, h1, s, r, &rate);
            let want = want(s, r);
            match sim.run_audit(AuditScope::Live) {
                Some(SimError::InvariantViolation { violations, .. }) => assert!(
                    violations.iter().any(|v| v.contains(&want)),
                    "wanted {want:?}, got {violations:?}"
                ),
                other => panic!("{want:?} not reported: {other:?}"),
            }
        }
    }

    /// A receiver the periodic audits have retired is out of their sight;
    /// the end-of-run sweep still reaches it.
    #[test]
    fn a_receiver_damaged_after_retirement_is_caught_by_the_final_sweep() {
        let (mut sim, _, h1, _) = two_host_sim(&[(1, 10_000, 0), (2, 1_000_000, 0)], 25);
        sim.run_until(SimTime::from_micros(100));
        assert!(sim.host(h1).audit_receiver(F).is_some_and(|r| r.complete));
        assert!(sim.sanitizer().audits() >= 3 && sim.sanitizer().violations().is_empty());
        sim.host_mut(h1).corrupt(F, Corrupt::RecvExpected, 9_000);
        let periodic = sim.run_audit(AuditScope::Live);
        assert!(periodic.is_none(), "a periodic audit re-walked a retired flow: {periodic:?}");
        match sim.run_until_flows_done(SimTime::from_millis(10)).err() {
            Some(SimError::InvariantViolation { violations, .. }) => {
                let want = [
                    "flow 1: delivered bytes 10000 != receiver expected 9000",
                    "flow 1: completion recorded at 10000 bytes, receiver expected 9000",
                ];
                for w in want {
                    assert!(violations.iter().any(|v| v.contains(w)), "wanted {w:?}, got {violations:?}");
                }
            }
            other => panic!("the sweep missed the damaged receiver: {other:?}"),
        }
    }

    /// A flow that starts and completes between two audits is never in an
    /// audit's open set; the completion log hands it over for its one
    /// final-state check.
    #[test]
    fn a_flow_that_lives_between_two_audits_still_gets_its_final_check() {
        let (mut sim, _, h1, _) = two_host_sim(&[(1, 3_000, 10), (2, 16_000_000, 0)], 1_000);
        sim.run_until(SimTime::from_micros(500));
        assert_eq!(sim.sanitizer().audits(), 0);
        assert!(sim.host(h1).audit_receiver(F).is_some_and(|r| r.complete));
        assert!(sim.host(h1).audit_open_receivers().all(|r| r.flow != F));
        sim.trace.corrupt_delivered(F, 2_000);
        sim.run_until(SimTime::from_micros(1_100));
        assert_eq!(sim.sanitizer().audits(), 1);
        let violations = sim.sanitizer().violations();
        assert!(
            violations.iter().any(|v| v.contains("flow 1: delivered bytes 2000 != receiver expected 3000")),
            "{violations:?}"
        );
        // Once: the next audit does not look again.
        let reported = violations.len();
        sim.run_until(SimTime::from_micros(2_100));
        assert_eq!(sim.sanitizer().audits(), 2);
        assert_eq!(sim.sanitizer().violations().len(), reported);
    }

    /// The completion cursor is not in the snapshot: a restored sanitizer
    /// works out from the last audit's instant which completions it still
    /// owes a final check, and from then on is byte-identical to the run
    /// that was never interrupted.
    #[test]
    fn a_restored_run_still_checks_flows_completed_since_the_last_audit() {
        let build = || two_host_sim(&[(1, 3_000, 250), (2, 16_000_000, 0)], 100);
        let (mut donor, _, h1, _) = build();
        donor.run_until(SimTime::from_micros(270));
        assert_eq!(donor.sanitizer().audits(), 2);
        assert!(donor.host(h1).audit_receiver(F).is_some_and(|r| r.complete));
        let bytes = donor.snapshot();
        let restored = || {
            let (mut sim, ..) = build();
            sim.restore(&bytes).expect("identically built");
            sim
        };

        let mut damaged = restored();
        damaged.trace.corrupt_delivered(F, 2_000);
        damaged.run_until(SimTime::from_micros(310));
        assert_eq!(damaged.sanitizer().audits(), 3);
        let violations = damaged.sanitizer().violations();
        assert!(violations.iter().any(|v| v.contains("flow 1: delivered bytes 2000")), "{violations:?}");

        let mut resumed = restored();
        let stop = donor.events_processed() + 20_000;
        assert!(donor.run_until_event(stop) && resumed.run_until_event(stop));
        assert!(donor.sanitizer().audits() > 5 && donor.sanitizer().violations().is_empty());
        assert!(donor.snapshot() == resumed.snapshot(), "restored run drifted from the donor");
    }

    /// An FB_Hadoop-shaped cell: 2,400 flows of 1–20 packets among 16 hosts
    /// under 4 leaves and 2 spines, a quarter of them aimed at one host so
    /// PFC engages, with data loss, a leaf–spine flap and a host pause.
    fn tiny_flow_cell(seed: u64) -> Sim {
        let mut b = TopologyBuilder::new();
        let spines: Vec<NodeId> =
            (0..2).map(|i| b.add_switch(format!("spine{i}"), NodeRole::CoreSwitch)).collect();
        let mut hosts = Vec::new();
        for l in 0..4 {
            let leaf = b.add_switch(format!("leaf{l}"), NodeRole::EdgeSwitch);
            for &s in &spines {
                b.connect(leaf, s, BitRate::from_gbps(100), SimDuration::from_micros(1));
            }
            for h in 0..4 {
                let host = b.add_host(format!("h{l}.{h}"));
                b.connect(host, leaf, BitRate::from_gbps(40), SimDuration::from_micros(1));
                hosts.push(host);
            }
        }
        let topo = b.build();
        let cfg = SimConfig {
            seed,
            pfc: crate::config::PfcConfig {
                xoff_40g: crate::units::kb(20),
                xoff_100g: crate::units::kb(30),
                resume_frac: 0.5,
            },
            fault_plan: FaultPlan::default()
                .with_loss(FaultTarget::Data, 0.003)
                .with_flap(LinkId(0), SimTime::from_micros(300), SimTime::from_micros(600))
                .with_host_pause(hosts[5], SimTime::from_micros(700), SimTime::from_micros(1_000)),
            ..SimConfig::default()
        };
        let rate = Rc::new(Cell::new(BitRate::from_gbps(40).as_bps()));
        let mut sim = Sim::new(topo, cfg, Box::new(BoundedFactory(rate)), Box::new(NullSwitchCcFactory));
        let mut x = seed;
        let mut draw = |n: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let mut start_ns = 0;
        for id in 0..2_400 {
            start_ns += draw(1_500);
            let src = hosts[1 + draw(15) as usize];
            let dst = match draw(4) {
                0 => hosts[0],
                _ => hosts[draw(16) as usize],
            };
            if src == dst {
                continue;
            }
            sim.add_flow(FlowSpec {
                id: FlowId(id),
                src,
                dst,
                size: 1_000 * (1 + draw(20)),
                start: SimTime::from_nanos(start_ns),
                offered: None,
            });
        }
        sim.enable_sanitizer();
        sim
    }

    /// The chaos suites' 6-sender incast and fault plan, at line rate.
    fn chaos_incast(seed: u64) -> Sim {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let dst = b.add_host("dst");
        b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
        let srcs: Vec<NodeId> = (0..6).map(|i| b.add_host(format!("s{i}"))).collect();
        for &s in &srcs {
            b.connect(s, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        }
        let cfg = SimConfig {
            seed,
            fault_plan: FaultPlan::default()
                .with_loss(FaultTarget::Data, 0.004)
                .with_loss(FaultTarget::Cnp, 0.01)
                .with_flap(LinkId(3), SimTime::from_micros(400), SimTime::from_micros(900)),
            ..SimConfig::default()
        };
        let rate = Rc::new(Cell::new(BitRate::from_gbps(40).as_bps()));
        let mut sim = Sim::new(b.build(), cfg, Box::new(BoundedFactory(rate)), Box::new(NullSwitchCcFactory));
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.enable_sanitizer();
        sim
    }

    /// Open receivers plus live senders over every host: what one periodic
    /// audit has to look at.
    fn live_records(sim: &Sim) -> u64 {
        let hosts = sim.topo().hosts().iter().map(|&h| sim.host(h));
        hosts.map(|h| h.open_receivers() + h.audit_senders().count()).sum::<usize>() as u64
    }

    /// The audit's work is what is live at each audit, plus two looks per
    /// flow (its final-state check, and the end-of-run sweep) — not
    /// audits × flows.
    #[test]
    fn audit_work_grows_with_live_flows_not_with_audits_times_flows() {
        let mut sim = tiny_flow_cell(11);
        let flows = sim.flows().len() as u64;
        assert!(flows >= 2_000, "{flows} flows");
        let (mut live, mut retired, mut audits) = (0, 0, 0);
        while (sim.trace.fcts.len() as u64) < flows {
            assert!(sim.step(), "drained with flows outstanding");
            // An audit runs after the event that made it due, on exactly
            // the state `step` returns in.
            if sim.sanitizer().audits() != audits {
                audits = sim.sanitizer().audits();
                live += live_records(&sim);
                retired = sim.trace.fcts.len() as u64;
            }
        }
        live += live_records(&sim); // the sweep, below
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        let report = sim.sanitizer().report();
        assert_eq!(report.audits, audits + 1);
        let pauses = sim.trace.pfc_events.len();
        assert!(audits > 50 && pauses > 10, "{audits} audits, {pauses} pauses");
        // Every flow in the sweep, and before it every flow a periodic
        // audit lived to see complete.
        assert_eq!(report.flow_checks, live + retired + flows);
        assert!(retired <= flows && retired > flows * 9 / 10, "{retired} of {flows} retired");
        assert!(report.flow_checks < audits * flows / 10, "{} checks in {audits} audits of {flows} flows", report.flow_checks);
    }

    /// Everything a run leaves behind except the work counter.
    struct Outcome {
        /// Event and audit counts, the sanitizer's report, the verdict.
        summary: String,
        telemetry: Vec<SimEvent>,
        fcts: Vec<(u64, u64)>,
        /// `Sim::snapshot` at event 40,000 and at the end.
        snapshots: [Vec<u8>; 2],
    }

    fn outcome(mut sim: Sim, always_sweep: bool) -> Outcome {
        sim.sanitizer_mut().always_sweep = always_sweep;
        sim.trace.telemetry.collect(EventMask::ALL);
        sim.run_until_event(40_000);
        let midway = sim.snapshot();
        let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
        let r = sim.sanitizer().report();
        let summary = format!(
            "{} events, {} audits, {:?}, pause fraction {} depth {}, victims {:?}, {}",
            sim.events_processed(),
            r.audits,
            r.violations,
            r.max_pause_fraction,
            r.max_pause_depth,
            r.victims,
            verdict.to_json()
        );
        Outcome {
            summary,
            telemetry: std::mem::take(&mut sim.trace.telemetry.events),
            fcts: sim.trace.fcts.iter().map(|f| (f.flow.0, f.end.as_nanos())).collect(),
            snapshots: [midway, sim.snapshot()],
        }
    }

    /// One implementation, two scopes: a run whose every audit is the
    /// end-of-run sweep is indistinguishable from one audited
    /// incrementally — report, verdict, telemetry, FCTs and every byte of
    /// state, the sanitizer's own section included.
    #[test]
    fn incremental_audits_match_a_sweep_at_every_audit() {
        type Build = fn(u64) -> Sim;
        let cells: [(&str, Build, u64); 4] = [
            ("chaos", chaos_incast, 1),
            ("chaos", chaos_incast, 7),
            ("chaos", chaos_incast, 42),
            ("tiny-flow cell", tiny_flow_cell, 11),
        ];
        for (name, build, seed) in cells {
            let live = outcome(build(seed), false);
            let swept = outcome(build(seed), true);
            let clean = live.summary.contains(" audits, [], ") && live.summary.contains("\"verdict\":\"completed\"");
            assert!(clean, "{name} seed {seed}: {}", live.summary);
            assert_eq!(live.summary, swept.summary, "{name} seed {seed}");
            // Not `assert_eq`: a mismatch would print megabytes.
            assert!(live.telemetry == swept.telemetry, "{name} seed {seed}: telemetry log");
            assert_eq!(live.fcts, swept.fcts, "{name} seed {seed}");
            assert!(live.snapshots == swept.snapshots, "{name} seed {seed}: state");
            assert!(live.telemetry.len() > 100, "{name} seed {seed}: nothing was logged");
        }
    }
}
