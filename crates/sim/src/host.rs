//! End-host model: NIC with per-flow rate limiters, a go-back-N reliable
//! transport (the RoCE-style semantics the paper assumes), receiver logic
//! that echoes congestion signals (ECN marks, timestamps, INT), and the
//! reaction-point plumbing that delivers feedback packets to per-flow
//! [`HostCc`] instances after the configured RP reaction delay (15 µs in
//! the paper).

use crate::cc::{AckEvent, FeedbackEvent, HostCc, HostCcCtx, RateDecision};
use crate::engine::{Event, FlowDir, FlowSpec, Kernel};
use crate::fastmap::FxHashMap;
use crate::packet::{FlowId, IntStack, Packet, PacketKind};
use crate::profiler::Phase;
use crate::snapshot::{sorted, struct_codec, tag_codec, SnapReader, SnapWriter, SnapshotError};
use crate::telemetry::{CcEvent, EventMask, SimEvent};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, Topology};
use crate::trace::{FctRecord, Trace};
use crate::units::BitRate;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// Number of per-flow CC timer slots: CC implementations may use tokens
/// `0..TIMER_SLOTS`, and asking for any other panics.
pub const TIMER_SLOTS: usize = 3;
/// `HostCcTimer` token that tags the transport's retransmission-timeout
/// event (which has a deadline, not a generation slot).
pub const RTO_TOKEN: u8 = TIMER_SLOTS as u8;

/// Sender-side state for one flow.
struct SenderFlow {
    dst: NodeId,
    /// Application bytes to transfer (`u64::MAX` = run until stopped).
    size: u64,
    /// Next sequence number to transmit.
    next_seq: u64,
    /// Cumulatively acknowledged bytes.
    acked: u64,
    /// Highest sequence ever sent (for retransmission accounting).
    max_sent: u64,
    /// Congestion control instance.
    cc: Box<dyn HostCc>,
    /// Optional application offered-rate cap (open-loop senders).
    offered: Option<BitRate>,
    /// Time and wire size of the last transmitted packet (pacing baseline).
    last_tx: Option<(SimTime, u64)>,
    /// Per-token timer generations for the CC's tokens; events carrying
    /// stale generations are ignored, which implements reset/cancel.
    timer_gen: [u64; TIMER_SLOTS],
    /// When the go-back-N timeout fires (`None` = cancelled). Every arm
    /// sets it to `now + rto`, so it only ever moves forward.
    rto_deadline: Option<SimTime>,
    /// One RTO event for this flow is in the event queue, due no later than
    /// `rto_deadline`: it chases the deadline, so arming pushes no second.
    rto_queued: bool,
    /// Flow explicitly stopped (long-running flows in dynamic scenarios).
    stopped: bool,
    /// Where the flow sits in the TX scheduler.
    sched: SchedState,
    /// The eligibility instant recorded when entering `Waiting` (stale
    /// heap entries are detected by comparing against this).
    wait_until: SimTime,
    /// Pacing rate at the last scheduling decision, to detect rate
    /// increases that should shorten a pending pacing wait.
    last_rate: BitRate,
}

/// TX scheduler membership for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SchedState {
    /// Not queued: no data, window-blocked, or rate 0. Reactivated by the
    /// event that unblocks it (ACK, feedback, timer, NACK, start).
    Idle,
    /// In the ready ring: believed sendable now.
    Ready,
    /// In the pacing heap until `wait_until`.
    Waiting,
}

tag_codec!(SchedState { Idle = 0, Ready = 1, Waiting = 2 });

impl SenderFlow {
    /// Bytes in flight (sent, not yet cumulatively acked).
    fn in_flight(&self) -> u64 {
        self.next_seq - self.acked
    }

    /// Remaining bytes the application still wants sent.
    fn has_data(&self) -> bool {
        !self.stopped && self.next_seq < self.size
    }

    /// Earliest time the next packet may start, pacing at `rate`.
    fn eligible_at(&self, rate: BitRate) -> SimTime {
        match self.last_tx {
            None => SimTime::ZERO,
            Some((t, bytes)) => t + rate.serialization_time(bytes),
        }
    }
}

/// Receiver-side state for one flow.
#[derive(Default, Clone, Copy)]
struct ReceiverFlow {
    /// Next expected in-order sequence number.
    expected: u64,
    /// A NACK for the current gap has been sent and not yet resolved.
    nack_armed: bool,
    /// Flow completion already recorded.
    complete: bool,
}

struct_codec!(ReceiverFlow { expected, nack_armed, complete });

impl ReceiverFlow {
    fn audit(&self, flow: FlowId) -> ReceiverAudit {
        ReceiverAudit {
            flow,
            expected: self.expected,
            complete: self.complete,
        }
    }
}

/// Read-only snapshot of one sender flow, handed to the invariant
/// sanitizer (see [`crate::sanitizer`]) for window-ordering and rate-bound
/// audits.
#[derive(Debug, Clone, Copy)]
pub struct SenderAudit {
    /// The flow.
    pub flow: FlowId,
    /// The receiving host.
    pub dst: NodeId,
    /// Cumulatively acknowledged bytes.
    pub acked: u64,
    /// Next sequence number to transmit.
    pub next_seq: u64,
    /// Highest sequence ever sent.
    pub max_sent: u64,
    /// Application bytes to transfer (`u64::MAX` = run until stopped).
    pub size: u64,
    /// The CC's current pacing-rate decision.
    pub rate: BitRate,
    /// Declared `(min, max)` rate bounds, if the CC promises any.
    pub bounds: Option<(BitRate, BitRate)>,
    /// When the retransmission timeout fires (`None` = cancelled).
    pub rto_deadline: Option<SimTime>,
    /// The flow believes its one RTO event is in the event queue.
    pub rto_queued: bool,
}

/// Read-only snapshot of one receiver flow, handed to the invariant
/// sanitizer for the expected-sequence and delivered-bytes audits.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverAudit {
    /// The flow.
    pub flow: FlowId,
    /// Next expected in-order sequence number.
    pub expected: u64,
    /// The last byte arrived and the flow's completion was recorded.
    pub complete: bool,
}

/// The transport words [`Host::corrupt`] can overwrite.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Corrupt {
    Acked,
    NextSeq,
    MaxSent,
    Size,
    RecvExpected,
}

/// An end host (single NIC port).
pub struct Host {
    /// This host's node id.
    pub id: NodeId,
    uplink: LinkId,
    line_rate: BitRate,
    prop_delay: SimDuration,
    busy: bool,
    paused: bool,
    in_flight: Option<Packet>,
    /// Receiver-generated control packets (ACKs/NACKs) awaiting the wire;
    /// strictly prioritized over data.
    ctrl_q: VecDeque<Packet>,
    flows: BTreeMap<FlowId, SenderFlow>,
    /// Flows believed sendable now, served round-robin. O(1) per packet
    /// instead of scanning every flow (hosts can carry hundreds of
    /// concurrent flows in the fat-tree workloads).
    ready: VecDeque<FlowId>,
    /// Flows paced into the future, keyed by eligibility time.
    waiting: BinaryHeap<Reverse<(SimTime, FlowId)>>,
    /// Receiver state, looked up per arriving packet and kept after the
    /// flow completes (a late duplicate is still ACKed). Fx-hashed: its
    /// iteration order never escapes (the audit sweep sorts, see
    /// [`Host::audit_receivers`]).
    recv: FxHashMap<FlowId, ReceiverFlow>,
    /// The flows in `recv` that have not completed, in flow order: what a
    /// periodic audit walks. Touched per flow, not per packet (entered by
    /// the first packet, left at completion); derived from `recv`, so
    /// rebuilt by [`Host::load_state`] and never serialized.
    open_recv: BTreeSet<FlowId>,
    /// Earliest pending wake event (dedup so we do not flood the queue).
    wake_at: Option<SimTime>,
}

impl Host {
    /// Build the host for `id` from the topology.
    pub fn new(id: NodeId, topo: &Topology) -> Self {
        let uplink = topo.out_link(id, crate::topology::PortId(0));
        let l = topo.link(uplink);
        Host {
            id,
            uplink,
            line_rate: l.rate,
            prop_delay: l.delay,
            busy: false,
            paused: false,
            in_flight: None,
            ctrl_q: VecDeque::new(),
            flows: BTreeMap::new(),
            ready: VecDeque::new(),
            waiting: BinaryHeap::new(),
            recv: FxHashMap::default(),
            open_recv: BTreeSet::new(),
            wake_at: None,
        }
    }

    /// NIC line rate.
    pub fn line_rate(&self) -> BitRate {
        self.line_rate
    }

    /// Current CC rate decision for `flow`, if it is still active.
    pub fn cc_rate(&self, flow: FlowId) -> Option<RateDecision> {
        self.flows.get(&flow).map(|f| f.cc.decision())
    }

    /// Number of currently installed sender flows.
    pub fn active_flows(&self) -> usize {
        self.flows.values().filter(|f| !f.stopped).count()
    }

    /// Wire bytes currently serializing onto the uplink. Queued control
    /// frames are excluded: they enter the conservation ledger only when
    /// they reach the wire.
    pub fn in_flight_wire_bytes(&self) -> u64 {
        self.in_flight.as_ref().map(|p| p.wire_bytes()).unwrap_or(0)
    }

    /// True while the NIC is PFC-paused by its attached switch.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Sanitizer view of every sender flow on this host, in flow order.
    /// Senders leave `flows` when they complete, so this is the live set.
    pub fn audit_senders(&self) -> impl Iterator<Item = SenderAudit> + '_ {
        self.flows.iter().map(|(fid, f)| SenderAudit {
            flow: *fid,
            dst: f.dst,
            acked: f.acked,
            next_seq: f.next_seq,
            max_sent: f.max_sent,
            size: f.size,
            rate: f.cc.decision().rate,
            bounds: f.cc.rate_bounds(),
            rto_deadline: f.rto_deadline,
            rto_queued: f.rto_queued,
        })
    }

    /// Sanitizer view of every receiver flow this host has ever seen,
    /// completed ones included, sorted by flow: the full audit sweep.
    /// O(every flow received) — periodic audits walk
    /// [`Host::audit_open_receivers`] instead.
    pub fn audit_receivers(&self) -> Vec<ReceiverAudit> {
        let mut v: Vec<ReceiverAudit> =
            self.recv.iter().map(|(fid, r)| r.audit(*fid)).collect();
        v.sort_unstable_by_key(|r| r.flow.0);
        v
    }

    /// Sanitizer view of the receiver flows still open (first packet
    /// seen, last byte not yet), in flow order.
    pub fn audit_open_receivers(&self) -> impl Iterator<Item = ReceiverAudit> + '_ {
        self.open_recv.iter().map(|fid| self.recv[fid].audit(*fid))
    }

    /// Number of receiver flows still open.
    pub fn open_receivers(&self) -> usize {
        self.open_recv.len()
    }

    /// Sanitizer view of one receiver flow, open or completed.
    pub fn audit_receiver(&self, flow: FlowId) -> Option<ReceiverAudit> {
        self.recv.get(&flow).map(|r| r.audit(flow))
    }

    /// `flow`'s receiver state, created — and entered in the open index —
    /// by its first packet. Takes the two fields rather than `self` so the
    /// caller can keep using the rest of the host beside the result.
    #[inline]
    fn receiver<'a>(
        recv: &'a mut FxHashMap<FlowId, ReceiverFlow>,
        open_recv: &mut BTreeSet<FlowId>,
        flow: FlowId,
    ) -> &'a mut ReceiverFlow {
        match recv.entry(flow) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                open_recv.insert(flow);
                v.insert(ReceiverFlow::default())
            }
        }
    }

    /// Overwrite one transport word of `flow` on this host: the sanitizer's
    /// negative tests break one invariant at a time with it.
    #[cfg(test)]
    pub(crate) fn corrupt(&mut self, flow: FlowId, field: Corrupt, v: u64) {
        let (f, r) = (self.flows.get_mut(&flow), self.recv.get_mut(&flow));
        let word = match field {
            Corrupt::Acked => f.map(|f| &mut f.acked),
            Corrupt::NextSeq => f.map(|f| &mut f.next_seq),
            Corrupt::MaxSent => f.map(|f| &mut f.max_sent),
            Corrupt::Size => f.map(|f| &mut f.size),
            Corrupt::RecvExpected => r.map(|r| &mut r.expected),
        };
        *word.expect("this host holds no such flow") = v;
    }

    /// Install a sender flow and try to start transmitting.
    pub fn start_flow(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        spec: &FlowSpec,
        cc: Box<dyn HostCc>,
    ) {
        k.prof.enter(Phase::HostCompute);
        debug_assert_eq!(spec.src, self.id);
        let flow = spec.id;
        self.flows.insert(
            flow,
            SenderFlow {
                dst: spec.dst,
                size: spec.size,
                next_seq: 0,
                acked: 0,
                max_sent: 0,
                cc,
                offered: spec.offered,
                last_tx: None,
                timer_gen: [0; TIMER_SLOTS],
                rto_deadline: None,
                rto_queued: false,
                stopped: false,
                sched: SchedState::Idle,
                wait_until: SimTime::ZERO,
                last_rate: BitRate::ZERO,
            },
        );
        self.activate(flow);
        self.try_send(k, topo, trace);
    }

    /// Stop a long-running flow (it stops offering data immediately).
    pub fn stop_flow(&mut self, flow: FlowId) {
        if let Some(f) = self.flows.get_mut(&flow) {
            f.stopped = true;
        }
    }

    fn remove_flow(&mut self, flow: FlowId) {
        // Stale ready/waiting entries are skipped when popped (the flow is
        // gone from the map).
        self.flows.remove(&flow);
    }

    fn cc_ctx(&self, k: &Kernel, mask: EventMask) -> HostCcCtx {
        HostCcCtx {
            now: k.now,
            link_rate: self.line_rate,
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: mask,
        }
    }

    /// Wrap decision events buffered by a flow's CC into timestamped,
    /// host/flow-attributed telemetry events.
    fn publish_cc_events(&self, k: &Kernel, trace: &mut Trace, flow: FlowId, events: Vec<CcEvent>) {
        for ev in events {
            if let CcEvent::RpTransition { kind, rate_bps, cp } = ev {
                trace.publish_event(SimEvent::RpTransition {
                    t: k.now,
                    node: self.id,
                    flow,
                    kind,
                    rate_bps,
                    cp,
                });
            }
        }
    }

    /// Apply timer arm/cancel requests produced by a CC callback.
    fn apply_timer_reqs(&mut self, k: &mut Kernel, flow: FlowId, ctx: HostCcCtx) {
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        for token in ctx.cancel_timers {
            let g = &mut f.timer_gen[token as usize];
            *g = g.wrapping_add(1);
        }
        for (token, d) in ctx.set_timers {
            let g = &mut f.timer_gen[token as usize];
            *g = g.wrapping_add(1);
            k.schedule(
                k.now + d,
                Event::HostCcTimer {
                    node: self.id,
                    flow,
                    token,
                    gen: *g,
                },
            );
        }
    }

    /// (Re)start the retransmission timeout, one `rto` from now.
    fn arm_rto(&mut self, k: &mut Kernel, flow: FlowId) {
        let at = k.now + k.config.rto;
        self.set_rto(k, flow, at);
    }

    /// Move the deadline to `at`, and queue the flow's one RTO event only
    /// if none is in the queue already.
    fn set_rto(&mut self, k: &mut Kernel, flow: FlowId, at: SimTime) {
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        f.rto_deadline = Some(at);
        if !f.rto_queued {
            f.rto_queued = true;
            k.schedule(
                at,
                Event::HostCcTimer {
                    node: self.id,
                    flow,
                    token: RTO_TOKEN,
                    gen: 0,
                },
            );
        }
    }

    /// The engine discarded `flow`'s queued RTO event (it popped while this
    /// host was down; [`Host::revive`] re-arms whatever still needs one).
    pub(crate) fn rto_event_dropped(&mut self, flow: FlowId) {
        if let Some(f) = self.flows.get_mut(&flow) {
            f.rto_queued = false;
        }
    }

    /// Put a flow back into the ready ring if it might be sendable (called
    /// by the event that could have unblocked it: start, ACK, feedback,
    /// timer, NACK). Idempotent; stale heap entries are skipped on pop.
    fn activate(&mut self, flow: FlowId) {
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        if !f.has_data() || f.sched == SchedState::Ready {
            return;
        }
        f.sched = SchedState::Ready;
        self.ready.push_back(flow);
    }

    /// Like [`Host::activate`], but also pulls the flow out of a pacing
    /// wait when its allowed rate has increased (shorter gap than the one
    /// recorded in the heap).
    fn activate_on_rate_change(&mut self, flow: FlowId) {
        let Some(f) = self.flows.get(&flow) else {
            return;
        };
        if f.sched == SchedState::Waiting {
            let rate = f.cc.decision().rate.min(self.line_rate);
            if rate > f.last_rate {
                // Re-evaluate now; the stale heap entry is skipped on pop.
                let f = self.flows.get_mut(&flow).unwrap();
                f.sched = SchedState::Ready;
                self.ready.push_back(flow);
                return;
            }
        }
        self.activate(flow);
    }

    /// Attempt to put the next packet on the wire.
    pub fn try_send(&mut self, k: &mut Kernel, _topo: &Topology, trace: &mut Trace) {
        if self.busy || self.in_flight.is_some() {
            return;
        }
        // Control (ACK/NACK) first — even under PFC pause these are tiny
        // and ride the control class.
        if let Some(pkt) = self.ctrl_q.pop_front() {
            self.transmit(k, pkt);
            return;
        }
        if self.paused {
            return;
        }
        let mtu = k.config.mtu_payload;
        loop {
            // Release due pacing waits into the ready ring.
            while let Some(&Reverse((t, fid))) = self.waiting.peek() {
                if t > k.now {
                    break;
                }
                self.waiting.pop();
                if let Some(f) = self.flows.get_mut(&fid) {
                    // Skip stale entries (flow re-queued or re-paced since).
                    if f.sched == SchedState::Waiting && f.wait_until == t {
                        f.sched = SchedState::Ready;
                        self.ready.push_back(fid);
                    }
                }
            }
            let Some(fid) = self.ready.pop_front() else {
                // Idle: wake when the earliest pacing wait matures.
                if let Some(&Reverse((t, _))) = self.waiting.peek() {
                    if self.wake_at.is_none_or(|w| w <= k.now || t < w) {
                        self.wake_at = Some(t);
                        k.schedule(t, Event::HostWake { node: self.id });
                    }
                }
                return;
            };
            let Some(f) = self.flows.get_mut(&fid) else {
                continue; // stale: flow completed and was removed
            };
            if f.sched != SchedState::Ready {
                continue; // stale duplicate
            }
            if !f.has_data() {
                f.sched = SchedState::Idle;
                continue;
            }
            let d = f.cc.decision();
            let mut rate = d.rate.min(self.line_rate);
            if let Some(off) = f.offered {
                rate = rate.min(off);
            }
            if rate == BitRate::ZERO {
                f.sched = SchedState::Idle; // resumed by a CC event
                continue;
            }
            let payload = mtu.min(f.size - f.next_seq);
            if let Some(w) = d.window_bytes {
                // Window gate; always admit one packet when nothing is in
                // flight so a tiny window cannot deadlock the flow.
                if f.in_flight() + payload > w && f.in_flight() > 0 {
                    f.sched = SchedState::Idle; // resumed by the next ACK
                    continue;
                }
            }
            f.last_rate = rate;
            let elig = f.eligible_at(rate);
            if elig <= k.now {
                f.sched = SchedState::Idle;
                self.send_data(k, trace, fid, payload);
                // Re-queue for its next packet (pacing into the future).
                let Some(f) = self.flows.get_mut(&fid) else {
                    return;
                };
                if f.has_data() {
                    let next = f.eligible_at(rate);
                    f.sched = SchedState::Waiting;
                    f.wait_until = next;
                    self.waiting.push(Reverse((next, fid)));
                }
                return; // port is busy now
            }
            f.sched = SchedState::Waiting;
            f.wait_until = elig;
            self.waiting.push(Reverse((elig, fid)));
        }
    }

    fn send_data(&mut self, k: &mut Kernel, trace: &mut Trace, fid: FlowId, payload: u64) {
        let f = self.flows.get_mut(&fid).expect("send_data on missing flow");
        let seq = f.next_seq;
        let last = f.size != u64::MAX && seq + payload == f.size;
        let pkt = Packet {
            flow: fid,
            src: self.id,
            dst: f.dst,
            kind: PacketKind::Data { seq, payload, last },
            ecn: false,
            int: IntStack::new(),
            sent_at: k.now,
        };
        f.next_seq += payload;
        if f.next_seq > f.max_sent {
            f.max_sent = f.next_seq;
        } else {
            trace.retx_bytes += payload;
        }
        trace.tx_data_bytes += payload;
        f.last_tx = Some((k.now, pkt.wire_bytes()));
        self.arm_rto(k, fid);
        self.transmit(k, pkt);
    }

    /// Serialize one packet onto the uplink. Every byte a host puts on the
    /// wire — data and control alike — enters the sanitizer's conservation
    /// ledger here.
    fn transmit(&mut self, k: &mut Kernel, pkt: Packet) {
        let ser = self.line_rate.serialization_time(pkt.wire_bytes());
        k.san.inject(pkt.wire_bytes());
        self.busy = true;
        self.in_flight = Some(pkt);
        k.schedule(k.now + ser, Event::HostTxDone { node: self.id });
    }

    /// Serialization finished: hand the packet to the uplink (it enters the
    /// wire-packet slab here).
    pub fn handle_tx_done(&mut self, k: &mut Kernel, topo: &Topology, trace: &mut Trace) {
        k.prof.enter(Phase::HostCompute);
        let pkt = self
            .in_flight
            .take()
            .expect("HostTxDone without in-flight packet");
        self.busy = false;
        let pr = k.packets.alloc(pkt);
        k.schedule(
            k.now + self.prop_delay,
            Event::Arrive {
                link: self.uplink,
                pr,
            },
        );
        self.try_send(k, topo, trace);
    }

    /// Pacing wake-up.
    pub fn handle_wake(&mut self, k: &mut Kernel, topo: &Topology, trace: &mut Trace) {
        k.prof.enter(Phase::HostCompute);
        self.wake_at = None;
        self.try_send(k, topo, trace);
    }

    /// Serialize the host's dynamic state: NIC transmit state, queued
    /// control frames, every sender flow (including its CC word stream),
    /// the TX scheduler (ready ring verbatim, pacing heap as a sorted
    /// vector — tuple order is total, so heap pop order survives), and
    /// receiver state sorted by flow.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.busy);
        w.put(&self.paused);
        w.put(&self.in_flight);
        w.put(&self.ctrl_q);
        w.put(&self.flows.len());
        for (fid, f) in &self.flows {
            w.put(fid);
            w.put(&f.dst);
            w.put(&f.size);
            w.put(&f.next_seq);
            w.put(&f.acked);
            w.put(&f.max_sent);
            w.put(&f.offered);
            w.put(&f.last_tx);
            w.put(&f.timer_gen);
            w.put(&f.rto_deadline);
            w.put(&f.rto_queued);
            w.put(&f.stopped);
            w.put(&f.sched);
            w.put(&f.wait_until);
            w.put(&f.last_rate);
            let mut words = Vec::new();
            f.cc.snapshot_state(&mut words);
            w.put(&words);
        }
        w.put(&self.ready);
        let mut waits: Vec<(SimTime, FlowId)> =
            self.waiting.iter().map(|Reverse(e)| *e).collect();
        waits.sort_unstable();
        w.put(&waits);
        w.put(&sorted(&self.recv));
        w.put(&self.wake_at);
    }

    /// Deliberately corrupt one word of one sender flow's CC state — the
    /// divergence-observatory fault-injection hook (see
    /// [`crate::engine::Sim::inject_rp_perturbation`]). Flips bit 30 of
    /// the first snapshot word of the lowest-id flow that exposes CC
    /// state words (for RoCC's RP that word is the current rate in bps,
    /// so the flip shifts pacing by ~1 Gb/s — exactly the "one RP bit
    /// flipped mid-run" failure the bisector exists to localize).
    /// Deterministic (BTreeMap order) and a no-op (`false`) when no flow
    /// carries CC words.
    pub(crate) fn perturb_cc_state(&mut self) -> bool {
        for f in self.flows.values_mut() {
            let mut words = Vec::new();
            f.cc.snapshot_state(&mut words);
            if words.is_empty() {
                continue;
            }
            words[0] ^= 1 << 30;
            f.cc.restore_state(&words);
            return true;
        }
        false
    }

    /// Overwrite the host's dynamic state from a [`Host::save_state`]
    /// stream. Sender CC boxes do not exist in a freshly built host (they
    /// are created at `FlowStart` dispatch), so each is recreated through
    /// the run's deterministic `factory` and then restored from its word
    /// stream.
    pub(crate) fn load_state(
        &mut self,
        r: &mut SnapReader<'_>,
        factory: &dyn crate::cc::HostCcFactory,
    ) -> Result<(), SnapshotError> {
        self.busy = r.get()?;
        self.paused = r.get()?;
        self.in_flight = r.get()?;
        self.ctrl_q = r.get()?;
        self.flows.clear();
        for _ in 0..r.len()? {
            let fid = r.get()?;
            // Fields in layout order: the CC's words come last.
            let flow = SenderFlow {
                dst: r.get()?,
                size: r.get()?,
                next_seq: r.get()?,
                acked: r.get()?,
                max_sent: r.get()?,
                offered: r.get()?,
                last_tx: r.get()?,
                timer_gen: r.get()?,
                rto_deadline: r.get()?,
                rto_queued: r.get()?,
                stopped: r.get()?,
                sched: r.get()?,
                wait_until: r.get()?,
                last_rate: r.get()?,
                cc: {
                    let mut cc = factory.make(fid, self.line_rate);
                    cc.restore_state(&r.get::<Vec<u64>>()?);
                    cc
                },
            };
            self.flows.insert(fid, flow);
        }
        self.ready = r.get()?;
        let waits: Vec<(SimTime, FlowId)> = r.get()?;
        self.waiting = waits.into_iter().map(Reverse).collect();
        let recv: Vec<(FlowId, ReceiverFlow)> = r.get()?;
        self.open_recv = recv
            .iter()
            .filter(|(_, rf)| !rf.complete)
            .map(|(fid, _)| *fid)
            .collect();
        self.recv = recv.into_iter().collect();
        self.wake_at = r.get()?;
        Ok(())
    }

    /// A packet arrived at this host.
    pub(crate) fn handle_arrive(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        flow_dir: &FlowDir,
        pkt: Packet,
    ) {
        k.prof.enter(Phase::HostCompute);
        match pkt.kind {
            PacketKind::PfcPause => {
                self.paused = true;
            }
            PacketKind::PfcResume => {
                self.paused = false;
                self.try_send(k, topo, trace);
            }
            PacketKind::Data { seq, payload, last } => {
                self.receive_data(k, topo, trace, flow_dir, &pkt, seq, payload, last);
            }
            PacketKind::Ack {
                cum_seq,
                ecn_echo,
                data_tx_time,
            } => {
                self.receive_ack(k, topo, trace, pkt.flow, cum_seq, ecn_echo, data_tx_time, pkt.int);
            }
            PacketKind::Nack { expected_seq } => {
                if let Some(f) = self.flows.get_mut(&pkt.flow) {
                    // Stale-NACK suppression: under reordering or
                    // duplication a NACK can arrive after the gap it
                    // reported was already repaired (its expected_seq is
                    // below our cumulative ack) — rolling back to before
                    // `acked` would retransmit delivered data forever.
                    // Only honor a NACK whose expected_seq still lies in
                    // the unacked window.
                    if expected_seq >= f.acked && expected_seq < f.next_seq {
                        f.next_seq = expected_seq;
                        // Pacing baseline keeps its spacing; the rollback
                        // itself is instantaneous.
                    }
                }
                self.activate(pkt.flow);
                self.try_send(k, topo, trace);
            }
            PacketKind::RoccCnp {
                fair_rate_units,
                cp,
            } => {
                self.deliver_feedback(
                    k,
                    pkt.flow,
                    FeedbackEvent::RoccCnp {
                        fair_rate_units,
                        cp,
                    },
                );
            }
            PacketKind::RoccQueueReport {
                q_cur_units,
                f_max_units,
                cp,
            } => {
                self.deliver_feedback(
                    k,
                    pkt.flow,
                    FeedbackEvent::RoccQueueReport {
                        q_cur_units,
                        f_max_units,
                        cp,
                    },
                );
            }
            PacketKind::DcqcnCnp => {
                self.deliver_feedback(k, pkt.flow, FeedbackEvent::DcqcnCnp);
            }
            PacketKind::QcnFb { fb, cp } => {
                self.deliver_feedback(k, pkt.flow, FeedbackEvent::QcnFb { fb, cp });
            }
        }
    }

    /// A packet arrived with a failed FCS (fault-injected bit corruption).
    /// The frame is discarded, but a corrupted *data* packet leaves a gap
    /// the receiver can see — so, like an out-of-order arrival, it arms a
    /// NACK to nudge the sender's go-back-N instead of waiting out a full
    /// RTO. Corrupted control is dropped silently: ACKs are cumulative and
    /// congestion feedback is periodic, so both repair themselves.
    pub fn handle_corrupt_arrive(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        pkt: Packet,
    ) {
        k.prof.enter(Phase::HostCompute);
        if let PacketKind::Data { .. } = pkt.kind {
            let rf = Self::receiver(&mut self.recv, &mut self.open_recv, pkt.flow);
            if !rf.complete && !rf.nack_armed {
                rf.nack_armed = true;
                let expected = rf.expected;
                self.ctrl_q.push_back(Packet {
                    flow: pkt.flow,
                    src: self.id,
                    dst: pkt.src,
                    kind: PacketKind::Nack {
                        expected_seq: expected,
                    },
                    ecn: false,
                    int: IntStack::new(),
                    sent_at: k.now,
                });
                self.try_send(k, topo, trace);
            }
        }
    }

    /// The NIC's attached link was restored after an outage. Any PFC pause
    /// state from before the outage is stale (the pausing switch resyncs its
    /// own side too), so clear it and restart transmission.
    pub fn on_link_restored(&mut self, k: &mut Kernel, topo: &Topology, trace: &mut Trace) {
        k.prof.enter(Phase::HostCompute);
        self.paused = false;
        self.try_send(k, topo, trace);
    }

    /// Crash: NIC and transport soft state is lost — the in-flight frame,
    /// queued ACKs/NACKs, pacing and wake bookkeeping, every pending timer,
    /// and the unacked transmit window (senders roll back to the cumulative
    /// ack). Receiver-side reassembly state is retained: it lives in host
    /// memory the go-back-N protocol cannot renegotiate, and wiping it would
    /// deadlock any sender mid-flow forever.
    /// Returns the wire bytes of the destroyed in-flight frame so the
    /// engine can settle the conservation ledger (queued control frames
    /// were never injected — they only enter the ledger at `transmit`).
    pub fn on_crash(&mut self) -> u64 {
        self.busy = false;
        let lost = self
            .in_flight
            .take()
            .map(|p| p.wire_bytes())
            .unwrap_or(0);
        self.paused = false;
        self.ctrl_q.clear();
        self.ready.clear();
        self.waiting.clear();
        self.wake_at = None;
        for f in self.flows.values_mut() {
            f.next_seq = f.acked;
            f.last_tx = None;
            f.sched = SchedState::Idle;
            f.wait_until = SimTime::ZERO;
            // Invalidate every pending CC timer (they are replayed by the
            // engine while the host is down and must die on arrival) and
            // cancel the RTO.
            for g in f.timer_gen.iter_mut() {
                *g = g.wrapping_add(1);
            }
            f.rto_deadline = None;
        }
        lost
    }

    /// Come back from a pause or crash-restart: reset the TX path, re-arm
    /// the retransmission timeout for every flow that still has unacked
    /// data, and restart transmission. The RTO guarantees forward progress
    /// even if every in-flight packet and pending event was destroyed
    /// during the outage.
    pub fn revive(&mut self, k: &mut Kernel, topo: &Topology, trace: &mut Trace) {
        self.busy = false;
        // A pause can strand a serialized-but-undelivered frame (its TxDone
        // was discarded while the host was down); it never reaches the wire.
        if let Some(p) = self.in_flight.take() {
            k.san.destroy(p.wire_bytes());
        }
        self.wake_at = None;
        let fids: Vec<FlowId> = self.flows.keys().copied().collect();
        for fid in fids {
            let needs_rto = self
                .flows
                .get(&fid)
                .is_some_and(|f| f.acked < f.next_seq || f.has_data());
            if needs_rto {
                self.arm_rto(k, fid);
            }
            self.activate(fid);
        }
        self.try_send(k, topo, trace);
    }

    /// Queue a feedback packet for RP processing after the reaction delay
    /// (paper: 15 µs), plus the host-stack latency in the testbed profile.
    fn deliver_feedback(&mut self, k: &mut Kernel, flow: FlowId, fb: FeedbackEvent) {
        let mut delay = k.config.rp_feedback_delay + k.config.host_stack_latency;
        let jitter = k.config.host_stack_jitter.as_nanos();
        if jitter > 0 {
            delay += SimDuration::from_nanos(k.rng.gen_range(0..=jitter));
        }
        k.schedule(
            k.now + delay,
            Event::Feedback {
                node: self.id,
                flow,
                fb,
            },
        );
    }

    /// RP-delayed feedback delivery.
    pub fn handle_feedback(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        flow: FlowId,
        fb: FeedbackEvent,
    ) {
        k.prof.enter(Phase::HostCompute);
        let mut ctx = self.cc_ctx(k, trace.cc_mask());
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        f.cc.on_feedback(&mut ctx, fb);
        let events = std::mem::take(&mut ctx.events);
        self.publish_cc_events(k, trace, flow, events);
        self.apply_timer_reqs(k, flow, ctx);
        self.activate_on_rate_change(flow);
        self.try_send(k, topo, trace);
    }

    /// A CC or transport timer fired.
    pub fn handle_cc_timer(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        flow: FlowId,
        token: u8,
        gen: u64,
    ) {
        k.prof.enter(Phase::HostCompute);
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        if token == RTO_TOKEN {
            f.rto_queued = false;
            match f.rto_deadline.take() {
                // Re-armed since this event was queued: chase the deadline.
                Some(d) if d > k.now => self.set_rto(k, flow, d),
                // Go-back-N timeout: roll back to the cumulative ack.
                Some(_) if f.acked < f.next_seq => {
                    f.next_seq = f.acked;
                    self.arm_rto(k, flow);
                    self.activate(flow);
                    self.try_send(k, topo, trace);
                }
                _ => {} // cancelled, or nothing left to retransmit
            }
            return;
        }
        if f.timer_gen[token as usize] != gen {
            return; // stale (reset or cancelled)
        }
        let mut ctx = self.cc_ctx(k, trace.cc_mask());
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        f.cc.on_timer(&mut ctx, token);
        let events = std::mem::take(&mut ctx.events);
        self.publish_cc_events(k, trace, flow, events);
        self.apply_timer_reqs(k, flow, ctx);
        self.activate_on_rate_change(flow);
        self.try_send(k, topo, trace);
    }

    #[allow(clippy::too_many_arguments)]
    fn receive_data(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        flow_dir: &FlowDir,
        pkt: &Packet,
        seq: u64,
        payload: u64,
        last: bool,
    ) {
        let rf = Self::receiver(&mut self.recv, &mut self.open_recv, pkt.flow);
        if rf.complete {
            // Duplicate of an already-finished flow (lossy-mode
            // retransmission overlap): still ACK so the sender finishes.
            let cum = rf.expected;
            self.ctrl_q.push_back(Packet {
                flow: pkt.flow,
                src: self.id,
                dst: pkt.src,
                kind: PacketKind::Ack {
                    cum_seq: cum,
                    ecn_echo: pkt.ecn,
                    data_tx_time: pkt.sent_at,
                },
                ecn: false,
                int: pkt.int,
                sent_at: k.now,
            });
            self.try_send(k, topo, trace);
            return;
        }
        if seq == rf.expected {
            rf.expected += payload;
            rf.nack_armed = false;
            trace.note_delivery(pkt.flow, payload);
            if last {
                rf.complete = true;
                self.open_recv.remove(&pkt.flow);
                trace.note_fct(FctRecord {
                    flow: pkt.flow,
                    size: rf.expected,
                    start: flow_dir.get(pkt.flow).map_or(SimTime::ZERO, |f| f.start),
                    end: k.now,
                });
            }
        } else if seq > rf.expected && !rf.nack_armed {
            rf.nack_armed = true;
            let expected = rf.expected;
            self.ctrl_q.push_back(Packet {
                flow: pkt.flow,
                src: self.id,
                dst: pkt.src,
                kind: PacketKind::Nack {
                    expected_seq: expected,
                },
                ecn: false,
                int: IntStack::new(),
                sent_at: k.now,
            });
        }
        // Always ACK cumulatively, echoing this packet's congestion signals.
        let cum = self.recv.get(&pkt.flow).map(|r| r.expected).unwrap_or(0);
        self.ctrl_q.push_back(Packet {
            flow: pkt.flow,
            src: self.id,
            dst: pkt.src,
            kind: PacketKind::Ack {
                cum_seq: cum,
                ecn_echo: pkt.ecn,
                data_tx_time: pkt.sent_at,
            },
            ecn: false,
            int: pkt.int,
            sent_at: k.now,
        });
        self.try_send(k, topo, trace);
    }

    #[allow(clippy::too_many_arguments)]
    fn receive_ack(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        flow: FlowId,
        cum_seq: u64,
        ecn_echo: bool,
        data_tx_time: SimTime,
        int: IntStack,
    ) {
        let mut completed = false;
        {
            let mut ctx = self.cc_ctx(k, trace.cc_mask());
            let Some(f) = self.flows.get_mut(&flow) else {
                return;
            };
            let newly = cum_seq.saturating_sub(f.acked);
            if cum_seq > f.acked {
                f.acked = cum_seq;
                // A crash rolls next_seq back to the then-current acked; an
                // ACK already in flight can land afterwards and cover bytes
                // past the rollback point. Those bytes are delivered — skip
                // ahead rather than retransmit them (and keep the
                // acked ≤ next_seq invariant intact).
                if f.next_seq < f.acked {
                    f.next_seq = f.acked;
                }
            }
            let rtt = k.now.saturating_since(data_tx_time);
            let ack = AckEvent {
                newly_acked: newly,
                cum_seq,
                rtt,
                ecn_echo,
                int,
            };
            f.cc.on_ack(&mut ctx, ack);
            let size = f.size;
            let acked = f.acked;
            let outstanding = f.next_seq > f.acked;
            let events = std::mem::take(&mut ctx.events);
            self.publish_cc_events(k, trace, flow, events);
            self.apply_timer_reqs(k, flow, ctx);
            if size != u64::MAX && acked >= size {
                completed = true;
            } else if newly > 0 {
                if outstanding {
                    self.arm_rto(k, flow);
                } else if let Some(f) = self.flows.get_mut(&flow) {
                    f.rto_deadline = None; // window cleared: cancel the RTO
                }
            }
        }
        if completed {
            self.remove_flow(flow);
        } else {
            self.activate_on_rate_change(flow);
        }
        self.try_send(k, topo, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{HostCcFactory, NullHostCcFactory};
    use crate::config::SimConfig;
    use crate::topology::{NodeRole, TopologyBuilder};
    use proptest::prelude::*;

    const RTO_NS: u64 = 20_000;
    const FLOWS: u64 = 3;
    const PKT: u64 = 1000;
    /// First op code that revives a down host (and is a no-op on an up one).
    const REVIVE: u8 = 12;

    /// What the transport promises about its timeout, and nothing about how:
    /// it fires at the most recent arm + rto unless cancelled since.
    #[derive(Clone, Copy, Default)]
    struct ModelFlow {
        acked: u64,
        next_seq: u64,
        deadline: Option<u64>,
    }

    /// One host with its own kernel; the network is a black hole (every
    /// transmitted frame is discarded), so only the ops below move a flow.
    struct Rig {
        topo: Topology,
        k: Kernel,
        trace: Trace,
        h: Host,
        down: bool,
        model: [ModelFlow; FLOWS as usize],
        fired: Vec<(u64, u64)>,
        expected: Vec<(u64, u64)>,
    }

    impl Rig {
        fn new() -> Rig {
            let mut b = TopologyBuilder::new();
            let h0 = b.add_host("h0");
            let h1 = b.add_host("h1");
            let sw = b.add_switch("sw", NodeRole::Switch);
            b.connect(h0, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
            b.connect(h1, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
            let topo = b.build();
            let cfg = SimConfig {
                rto: SimDuration::from_nanos(RTO_NS),
                ..SimConfig::default()
            };
            let mut k = Kernel::new(cfg, topo.links().len(), topo.nodes().len());
            let mut trace = Trace::new();
            let mut h = Host::new(h0, &topo);
            // Offered rate zero: the TX scheduler never sends on its own, so
            // every data packet is an explicit `Send` op.
            for f in 0..FLOWS {
                let spec = FlowSpec {
                    id: FlowId(f),
                    src: h0,
                    dst: h1,
                    size: u64::MAX,
                    start: SimTime::ZERO,
                    offered: Some(BitRate::ZERO),
                };
                let cc = NullHostCcFactory.make(spec.id, h.line_rate());
                h.start_flow(&mut k, &topo, &mut trace, &spec, cc);
            }
            Rig {
                topo,
                k,
                trace,
                h,
                down: false,
                model: Default::default(),
                fired: Vec::new(),
                expected: Vec::new(),
            }
        }

        /// Dispatch every queued event due by `t` the way the engine would,
        /// then let the model catch up over the same window.
        fn advance_to(&mut self, t: u64) {
            while let Some(s) = self.k.pop_until(SimTime::from_nanos(t)) {
                self.k.now = s.at;
                match s.ev {
                    Event::Arrive { pr, .. } => drop(self.k.packets.take(pr)),
                    Event::HostTxDone { .. } if !self.down && self.h.in_flight.is_some() => self
                        .h
                        .handle_tx_done(&mut self.k, &self.topo, &mut self.trace),
                    Event::HostWake { .. } if !self.down => {
                        self.h.handle_wake(&mut self.k, &self.topo, &mut self.trace)
                    }
                    Event::HostCcTimer {
                        flow, token, gen, ..
                    } => {
                        assert_eq!(token, RTO_TOKEN, "the null CC sets no timers");
                        if self.down {
                            self.h.rto_event_dropped(flow);
                            continue;
                        }
                        let outstanding = |h: &Host| h.flows[&flow].in_flight() > 0;
                        let before = outstanding(&self.h);
                        self.h.handle_cc_timer(
                            &mut self.k,
                            &self.topo,
                            &mut self.trace,
                            flow,
                            token,
                            gen,
                        );
                        if before && !outstanding(&self.h) {
                            self.fired.push((flow.0, s.at.as_nanos()));
                        }
                    }
                    _ => {}
                }
            }
            self.k.now = SimTime::from_nanos(t);
            if self.down {
                return; // timers freeze while the host is down
            }
            for (i, m) in self.model.iter_mut().enumerate() {
                while let Some(d) = m.deadline.filter(|&d| d <= t) {
                    m.deadline = None;
                    if m.acked < m.next_seq {
                        self.expected.push((i as u64, d));
                        m.next_seq = m.acked;
                        m.deadline = Some(d + RTO_NS);
                    }
                }
            }
        }

        fn deliver(&mut self, flow: FlowId, kind: PacketKind) {
            let pkt = Packet {
                flow,
                src: self.h.id,
                dst: self.h.id,
                kind,
                ecn: false,
                int: IntStack::new(),
                sent_at: self.k.now,
            };
            let dir = FlowDir::default();
            self.h
                .handle_arrive(&mut self.k, &self.topo, &mut self.trace, &dir, pkt);
        }

        fn apply(&mut self, op: u8, flow: u64) {
            let now = self.k.now.as_nanos();
            let fid = FlowId(flow);
            let m = &mut self.model[flow as usize];
            if self.down {
                if op >= REVIVE {
                    self.down = false;
                    self.h.revive(&mut self.k, &self.topo, &mut self.trace);
                    for m in &mut self.model {
                        m.deadline = Some(now + RTO_NS); // every flow still has data
                    }
                }
                return;
            }
            match op {
                0..=4 if !self.h.busy => {
                    self.h.send_data(&mut self.k, &mut self.trace, fid, PKT);
                    m.next_seq += PKT;
                    m.deadline = Some(now + RTO_NS);
                }
                5..=6 if m.next_seq - m.acked >= 2 * PKT => {
                    m.acked += PKT; // partial ACK: restart the timeout
                    m.deadline = Some(now + RTO_NS);
                    let cum_seq = m.acked;
                    self.deliver(fid, ack(cum_seq, now));
                }
                7..=8 if m.acked < m.next_seq => {
                    m.acked = m.next_seq; // window cleared: cancel
                    m.deadline = None;
                    let cum_seq = m.acked;
                    self.deliver(fid, ack(cum_seq, now));
                }
                9 => {
                    m.next_seq = m.acked; // NACK rollback leaves the timer alone
                    let expected_seq = m.acked;
                    self.deliver(fid, PacketKind::Nack { expected_seq });
                }
                10 => {
                    self.down = true;
                    self.h.on_crash();
                    for m in &mut self.model {
                        *m = ModelFlow {
                            acked: m.acked,
                            next_seq: m.acked,
                            deadline: None,
                        };
                    }
                }
                11 => self.down = true, // pause: state frozen, events dropped
                _ => {}
            }
        }

        /// The invariant the audit pass checks, plus agreement with the model.
        fn check(&self) {
            let entries = self.k.sched.entries();
            for (i, m) in self.model.iter().enumerate() {
                let fid = FlowId(i as u64);
                let f = &self.h.flows[&fid];
                assert_eq!((f.acked, f.next_seq), (m.acked, m.next_seq));
                assert_eq!(f.rto_deadline.map(SimTime::as_nanos), m.deadline);
                let queued: Vec<SimTime> = entries
                    .iter()
                    .filter(
                        |(_, _, ev)| matches!(ev, Event::HostCcTimer { flow, .. } if *flow == fid),
                    )
                    .map(|&(at, _, _)| at)
                    .collect();
                assert!(
                    queued.len() <= 1,
                    "flow {} has {} RTO events queued",
                    i,
                    queued.len()
                );
                assert_eq!(queued.len() == 1, f.rto_queued);
                if let (Some(&at), Some(d)) = (queued.first(), f.rto_deadline) {
                    assert!(
                        at <= d,
                        "queued RTO event at {} is later than deadline {}",
                        at,
                        d
                    );
                }
                assert!(
                    self.down || f.rto_deadline.is_none() || f.rto_queued,
                    "flow {} has a deadline but no event to fire it",
                    i
                );
            }
        }
    }

    fn ack(cum_seq: u64, now: u64) -> PacketKind {
        PacketKind::Ack {
            cum_seq,
            ecn_echo: false,
            data_tx_time: SimTime::from_nanos(now),
        }
    }

    // Random interleavings of send / ACK / NACK / crash / pause / revive:
    // the one lazily re-armed event must time a flow out at exactly the
    // instants the reference model does, with never more than one RTO event
    // per flow in the queue.
    proptest! {
        #[test]
        fn one_rto_event_per_flow_fires_at_last_arm_plus_rto(
            ops in proptest::collection::vec((0u8..14, 0u64..FLOWS, 0u64..48_000), 1..120)
        ) {
            let mut rig = Rig::new();
            let mut t = 0;
            for (op, flow, dt) in ops {
                // Mostly sub-RTO gaps (deadlines chased), sometimes more
                // than two RTOs (timeouts fire back to back).
                t += if dt % 4 == 0 { dt } else { dt / 8 };
                rig.advance_to(t);
                rig.apply(op, flow);
                rig.check();
            }
            rig.apply(REVIVE, 0); // whatever is still armed must still fire
            rig.advance_to(t + 2 * RTO_NS);
            rig.check();
            rig.fired.sort_unstable();
            rig.expected.sort_unstable();
            prop_assert!(!rig.fired.is_empty() || rig.expected.is_empty());
            prop_assert_eq!(rig.fired, rig.expected);
        }
    }
}
