//! Store-and-forward switch model.
//!
//! Each switch has one [`Port`] per attached full-duplex link. An egress
//! port owns a FIFO data queue plus a strict-priority control queue (the
//! paper prioritizes CNPs to minimize feedback delay, §3.3). Ingress-side
//! byte accounting drives PFC (802.1Qbb): when the bytes buffered on behalf
//! of an ingress port cross the XOFF threshold, a PAUSE frame is sent
//! upstream; a RESUME follows when occupancy falls below the XON threshold.
//! PFC frames are MAC control frames — they bypass queues entirely and are
//! delivered after one propagation delay.
//!
//! A pluggable [`SwitchCc`] instance per egress port observes enqueues and
//! dequeues (ECN marking, INT stamping) and may run a periodic timer that
//! emits feedback packets toward flow sources (the RoCC congestion point).

use crate::cc::{CtrlEmit, PacketMeta, SwitchCc, SwitchCcCtx};
use crate::config::BufferMode;
use crate::engine::{Event, Kernel};
use crate::packet::{CpId, FlowId, Packet, PacketKind, PFC_FRAME_BYTES};
use crate::profiler::Phase;
use crate::slab::{PacketRef, PacketSlab};
use crate::snapshot::{struct_codec, SnapReader, SnapWriter, SnapshotError};
use crate::telemetry::{CcEvent, DropCause, EventMask, SimEvent};
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId, NodeRole, PortId, Topology};
use crate::trace::Trace;
use crate::units::BitRate;
use std::collections::VecDeque;

/// A packet waiting in (or leaving) an egress queue, remembering which
/// ingress port it arrived on (None for switch-generated feedback). The
/// packet itself stays in the kernel's slab: forwarding moves an 8-byte
/// entry between queues instead of cloning the packet per hop.
#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    pr: PacketRef,
    ingress: Option<PortId>,
}

struct_codec!(QueuedPacket { pr, ingress });

/// One physical port: egress queues + transmit state.
pub struct Port {
    /// Strict-priority control queue (feedback packets, ACKs).
    ctrl_q: VecDeque<QueuedPacket>,
    /// Data FIFO.
    data_q: VecDeque<QueuedPacket>,
    /// Bytes currently in `data_q`.
    qlen_bytes: u64,
    /// True while serializing a packet.
    busy: bool,
    /// True after receiving PFC PAUSE from the downstream neighbor.
    paused: bool,
    /// Outgoing link on this port.
    link: LinkId,
    /// Line rate of the outgoing link.
    rate: BitRate,
    /// Cumulative bytes transmitted.
    tx_bytes: u64,
    /// Packet currently being serialized.
    in_flight: Option<QueuedPacket>,
    /// Congestion-control instance for this egress port.
    cc: Box<dyn SwitchCc>,
}

impl Port {
    /// Data-queue occupancy in bytes.
    pub fn qlen_bytes(&self) -> u64 {
        self.qlen_bytes
    }

    /// Cumulative bytes transmitted.
    pub fn tx_bytes(&self) -> u64 {
        self.tx_bytes
    }

    /// Egress line rate.
    pub fn rate(&self) -> BitRate {
        self.rate
    }

    /// True if this port has received PAUSE and not yet RESUME.
    pub fn is_paused(&self) -> bool {
        self.paused
    }
}

/// A multi-port switch.
pub struct Switch {
    /// This switch's node id.
    pub id: NodeId,
    /// Fabric role (used by experiments to classify congestion points).
    pub role: NodeRole,
    ports: Vec<Port>,
    /// Bytes buffered per ingress port (PFC accounting).
    ingress_buffered: Vec<u64>,
    /// True when we have PAUSEd the upstream neighbor of this ingress port.
    sent_xoff: Vec<bool>,
}

impl Switch {
    /// Build a switch for `id` from the topology, instantiating one CC per
    /// egress port via `make_cc`.
    pub fn new(
        id: NodeId,
        topo: &Topology,
        mut make_cc: impl FnMut(CpId, BitRate) -> Box<dyn SwitchCc>,
    ) -> Self {
        let info = topo.node(id);
        let ports = info
            .out_links
            .iter()
            .enumerate()
            .map(|(p, &link)| {
                let rate = topo.link(link).rate;
                Port {
                    ctrl_q: VecDeque::new(),
                    data_q: VecDeque::new(),
                    qlen_bytes: 0,
                    busy: false,
                    paused: false,
                    link,
                    rate,
                    tx_bytes: 0,
                    in_flight: None,
                    cc: make_cc(
                        CpId {
                            node: id,
                            port: PortId(p),
                        },
                        rate,
                    ),
                }
            })
            .collect::<Vec<_>>();
        let n = ports.len();
        Switch {
            id,
            role: info.role,
            ports,
            ingress_buffered: vec![0; n],
            sent_xoff: vec![false; n],
        }
    }

    /// Port accessor (for sampling).
    pub fn port(&self, p: PortId) -> &Port {
        &self.ports[p.0]
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Timer period requested by the CC on `port`, if any.
    pub fn cc_timer_period(&self, p: PortId) -> Option<crate::time::SimDuration> {
        self.ports[p.0].cc.timer_period()
    }

    /// Total wire bytes resident in this switch: every control queue, data
    /// queue, and in-serialization frame across all ports. Conservation
    /// audits count these as in-network. Queues hold slab refs, so audits
    /// resolve them through `packets`.
    pub fn buffered_wire_bytes(&self, packets: &PacketSlab) -> u64 {
        self.ports
            .iter()
            .map(|p| {
                p.ctrl_q
                    .iter()
                    .map(|q| packets.get(q.pr).wire_bytes())
                    .sum::<u64>()
                    + p.data_q
                        .iter()
                        .map(|q| packets.get(q.pr).wire_bytes())
                        .sum::<u64>()
                    + p.in_flight
                        .as_ref()
                        .map(|q| packets.get(q.pr).wire_bytes())
                        .unwrap_or(0)
            })
            .sum()
    }

    /// Recomputed wire bytes in the data FIFO of egress `p` (the sanitizer
    /// cross-checks this against the incrementally maintained
    /// [`Port::qlen_bytes`]).
    pub fn data_q_wire_bytes(&self, p: PortId, packets: &PacketSlab) -> u64 {
        self.ports[p.0]
            .data_q
            .iter()
            .map(|q| packets.get(q.pr).wire_bytes())
            .sum()
    }

    /// Bytes currently buffered on behalf of ingress port `p` (the PFC
    /// accounting counter).
    pub fn ingress_buffered(&self, p: PortId) -> u64 {
        self.ingress_buffered[p.0]
    }

    /// True while this switch has PAUSEd the upstream neighbor of ingress
    /// port `p` (XOFF sent, XON not yet).
    pub fn sent_xoff(&self, p: PortId) -> bool {
        self.sent_xoff[p.0]
    }

    /// Wire bytes queued in egress `egress`'s data FIFO that arrived via
    /// `ingress` — the per-(ingress, egress) slice of PFC accounting the
    /// pause wait-for graph edges are built from.
    pub fn ingress_bytes_at(&self, egress: PortId, ingress: PortId, packets: &PacketSlab) -> u64 {
        self.ports[egress.0]
            .data_q
            .iter()
            .filter(|q| q.ingress == Some(ingress))
            .map(|q| packets.get(q.pr).wire_bytes())
            .sum()
    }

    /// `(flow, destination)` of every data packet queued on egress `egress`,
    /// in FIFO order — used for victim-flow attribution in pause storms.
    pub fn queued_flows(&self, egress: PortId, packets: &PacketSlab) -> Vec<(FlowId, NodeId)> {
        self.ports[egress.0]
            .data_q
            .iter()
            .map(|q| {
                let pkt = packets.get(q.pr);
                (pkt.flow, pkt.dst)
            })
            .collect()
    }

    fn cc_ctx<'a>(&self, k: &'a mut Kernel, p: PortId, mask: EventMask) -> SwitchCcCtx<'a> {
        let port = &self.ports[p.0];
        SwitchCcCtx {
            now: k.now,
            cp: CpId {
                node: self.id,
                port: p,
            },
            qlen_bytes: port.qlen_bytes,
            link_rate: port.rate,
            tx_bytes: port.tx_bytes,
            rng: &mut k.rng,
            emits: Vec::new(),
            events: Vec::new(),
            event_mask: mask,
        }
    }

    /// Publish a packet-drop telemetry event at this switch.
    fn publish_drop(&self, k: &Kernel, trace: &mut Trace, flow: FlowId, cause: DropCause) {
        if trace.wants(EventMask::DROP) {
            trace.publish_event(SimEvent::Drop {
                t: k.now,
                node: self.id,
                flow,
                cause,
            });
        }
    }

    /// Wrap decision events buffered by the port CC into timestamped,
    /// CP-attributed telemetry events.
    fn publish_cc_events(&self, k: &Kernel, trace: &mut Trace, p: PortId, events: Vec<CcEvent>) {
        for ev in events {
            if let CcEvent::CpDecision {
                kind,
                fair_rate_units,
                alpha,
                beta,
                region,
                qlen_bytes,
            } = ev
            {
                trace.publish_event(SimEvent::CpDecision {
                    t: k.now,
                    cp: CpId {
                        node: self.id,
                        port: p,
                    },
                    kind,
                    fair_rate_units,
                    alpha,
                    beta,
                    region,
                    qlen_bytes,
                });
            }
        }
    }

    /// A packet arrived on `in_port` (by slab ref).
    pub fn handle_arrive(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        in_port: PortId,
        pr: PacketRef,
    ) {
        k.prof.enter(Phase::SwitchForward);
        let (kind, flow, dst) = {
            let pkt = k.packets.get(pr);
            (pkt.kind, pkt.flow, pkt.dst)
        };
        match kind {
            PacketKind::PfcPause => {
                // PFC frames are consumed by the adjacent port: off the wire,
                // out of the slab.
                let pkt = k.packets.take(pr);
                k.san.consume(pkt.wire_bytes());
                self.ports[in_port.0].paused = true;
            }
            PacketKind::PfcResume => {
                let pkt = k.packets.take(pr);
                k.san.consume(pkt.wire_bytes());
                self.ports[in_port.0].paused = false;
                self.try_start_tx(k, topo, trace, in_port);
            }
            _ => {
                let Some(egress) = topo.route(self.id, dst, flow) else {
                    // Unroutable packets are dropped and counted apart from
                    // congestion drops: any nonzero count flags a topology
                    // or routing bug, not load.
                    trace.unroutable_drops += 1;
                    let pkt = k.packets.take(pr);
                    k.san.destroy(pkt.wire_bytes());
                    self.publish_drop(k, trace, flow, DropCause::Unroutable);
                    return;
                };
                self.enqueue(k, topo, trace, egress, Some(in_port), pr);
            }
        }
    }

    /// Append the packet at `pr` to the egress queue on `egress`, running
    /// CC hooks, PFC accounting, and (in lossy mode) tail-drop.
    fn enqueue(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        egress: PortId,
        ingress: Option<PortId>,
        pr: PacketRef,
    ) {
        let (wire, is_ctrl, flow, src) = {
            let pkt = k.packets.get(pr);
            (pkt.wire_bytes(), pkt.kind.is_control(), pkt.flow, pkt.src)
        };

        // An egress interface whose link is administratively down drops at
        // enqueue (all classes): nothing accumulates behind a dead port, and
        // PFC never backpressures traffic that could not be delivered anyway.
        if k.faults.is_active() && k.faults.link_is_down(self.ports[egress.0].link) {
            trace.faults.link_down_drops += 1;
            k.packets.free(pr);
            k.san.destroy(wire);
            self.publish_drop(k, trace, flow, DropCause::LinkDown);
            return;
        }

        if is_ctrl && k.config.prioritize_control {
            self.ports[egress.0].ctrl_q.push_back(QueuedPacket { pr, ingress });
            self.try_start_tx(k, topo, trace, egress);
            return;
        }

        // Data path (and un-prioritized control when ablated): loss / ECN /
        // PFC logic. CC hooks and PFC accounting apply to data only.
        if let BufferMode::LossyTailDrop { limit_bytes } = k.config.buffer_mode {
            if self.ports[egress.0].qlen_bytes + wire > limit_bytes {
                trace.drops += 1;
                k.packets.free(pr);
                k.san.destroy(wire);
                self.publish_drop(k, trace, flow, DropCause::Congestion);
                return;
            }
        }

        self.ports[egress.0].qlen_bytes += wire;
        trace.note_queue_depth(self.id, egress, self.ports[egress.0].qlen_bytes);

        if !is_ctrl {
            // CC enqueue hook (ECN marking, flow-table update, QCN sampling).
            let meta = PacketMeta {
                flow,
                src,
                wire_bytes: wire,
            };
            let mut ctx = self.cc_ctx(k, egress, trace.cc_mask());
            let mark = self.ports[egress.0].cc.on_enqueue(&mut ctx, meta);
            let emits = std::mem::take(&mut ctx.emits);
            let events = std::mem::take(&mut ctx.events);
            if mark {
                k.packets.get_mut(pr).ecn = true;
            }
            self.publish_cc_events(k, trace, egress, events);
            self.inject_feedback(k, topo, trace, emits);
        }

        // PFC ingress accounting.
        if let (BufferMode::LosslessPfc, Some(ing)) = (k.config.buffer_mode, ingress) {
            self.ingress_buffered[ing.0] += wire;
            let in_rate = topo.link(topo.node(self.id).in_links[ing.0]).rate;
            let xoff = k.config.pfc.xoff_for(in_rate);
            if self.ingress_buffered[ing.0] > xoff && !self.sent_xoff[ing.0] {
                self.sent_xoff[ing.0] = true;
                trace.note_pfc(k.now, self.id, ing);
                self.send_pfc(k, topo, ing, PacketKind::PfcPause);
            }
        }

        self.ports[egress.0].data_q.push_back(QueuedPacket { pr, ingress });
        self.try_start_tx(k, topo, trace, egress);
    }

    /// Send a PFC frame out of port `p` (bypassing queues: MAC control).
    fn send_pfc(&self, k: &mut Kernel, topo: &Topology, p: PortId, kind: PacketKind) {
        let port = &self.ports[p.0];
        let link = topo.link(port.link);
        let ser = port.rate.serialization_time(PFC_FRAME_BYTES);
        let pkt = Packet {
            flow: FlowId(u64::MAX),
            src: self.id,
            dst: link.to.0,
            kind,
            ecn: false,
            int: Default::default(),
            sent_at: k.now,
        };
        k.san.inject(pkt.wire_bytes());
        let pr = k.packets.alloc(pkt);
        k.schedule(k.now + ser + link.delay, Event::Arrive { link: port.link, pr });
    }

    /// Route switch-generated feedback packets (RoCC CNPs, QCN Fb) toward
    /// the flow sources. They enter this switch's own egress control queue.
    fn inject_feedback(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        emits: Vec<CtrlEmit>,
    ) {
        for e in emits {
            let pkt = Packet {
                flow: e.flow,
                src: self.id,
                dst: e.to,
                kind: e.kind,
                ecn: false,
                int: Default::default(),
                sent_at: k.now,
            };
            let Some(egress) = topo.route(self.id, e.to, e.flow) else {
                trace.unroutable_drops += 1;
                self.publish_drop(k, trace, e.flow, DropCause::Unroutable);
                continue;
            };
            trace.ctrl_emitted += 1;
            // Switch-originated feedback is born here: it enters the
            // conservation ledger at the instant it is queued.
            k.san.inject(pkt.wire_bytes());
            if trace.wants(EventMask::CNP) {
                let (cp, units) = match pkt.kind {
                    PacketKind::RoccCnp {
                        fair_rate_units,
                        cp,
                    } => (cp, fair_rate_units),
                    PacketKind::QcnFb { fb, cp } => (cp, fb as u32),
                    _ => (
                        CpId {
                            node: self.id,
                            port: egress,
                        },
                        0,
                    ),
                };
                trace.publish_event(SimEvent::CnpEmit {
                    t: k.now,
                    cp,
                    flow: e.flow,
                    fair_rate_units: units,
                });
            }
            let pr = k.packets.alloc(pkt);
            self.ports[egress.0]
                .ctrl_q
                .push_back(QueuedPacket { pr, ingress: None });
            self.try_start_tx(k, topo, trace, egress);
        }
    }

    /// Begin serializing the next packet on `p` if the port is idle.
    fn try_start_tx(&mut self, k: &mut Kernel, topo: &Topology, trace: &mut Trace, p: PortId) {
        if self.ports[p.0].busy || self.ports[p.0].in_flight.is_some() {
            return;
        }
        // Control first; PFC pause gates only the data class.
        let qp = if let Some(qp) = self.ports[p.0].ctrl_q.pop_front() {
            Some(qp)
        } else if !self.ports[p.0].paused {
            self.ports[p.0].data_q.pop_front().inspect(|qp| {
                let (wire, is_data, flow, src) = {
                    let pkt = k.packets.get(qp.pr);
                    (pkt.wire_bytes(), pkt.is_data(), pkt.flow, pkt.src)
                };
                self.ports[p.0].qlen_bytes -= wire;
                if is_data {
                    // CC dequeue hook (INT stamping) sees post-dequeue depth.
                    let meta = PacketMeta {
                        flow,
                        src,
                        wire_bytes: wire,
                    };
                    let mut ctx = self.cc_ctx(k, p, trace.cc_mask());
                    let hop = self.ports[p.0].cc.on_dequeue(&mut ctx, meta);
                    let emits = std::mem::take(&mut ctx.emits);
                    let events = std::mem::take(&mut ctx.events);
                    if let Some(h) = hop {
                        // INT stamping grows the frame in flight; the added
                        // telemetry bytes enter the wire here, so the
                        // conservation ledger books them as injected.
                        k.packets.push_hop(qp.pr, h);
                        k.san.inject(k.packets.get(qp.pr).wire_bytes() - wire);
                    }
                    self.publish_cc_events(k, trace, p, events);
                    self.inject_feedback(k, topo, trace, emits);
                }
                // Release PFC accounting.
                if let Some(ing) = qp.ingress {
                    let b = &mut self.ingress_buffered[ing.0];
                    *b = b.saturating_sub(wire);
                    if self.sent_xoff[ing.0] {
                        let in_rate =
                            topo.link(topo.node(self.id).in_links[ing.0]).rate;
                        if *b < k.config.pfc.xon_for(in_rate) {
                            self.sent_xoff[ing.0] = false;
                            trace.note_pfc_resume(k.now, self.id, ing);
                            self.send_pfc(k, topo, ing, PacketKind::PfcResume);
                        }
                    }
                }
            })
        } else {
            None
        };
        let Some(qp) = qp else { return };
        let ser = self.ports[p.0]
            .rate
            .serialization_time(k.packets.get(qp.pr).wire_bytes());
        self.ports[p.0].busy = true;
        self.ports[p.0].in_flight = Some(qp);
        k.schedule(
            k.now + ser,
            Event::SwitchTxDone {
                node: self.id,
                port: p,
            },
        );
    }

    /// Serialization finished on `p`: hand the packet to the link.
    pub fn handle_tx_done(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        p: PortId,
    ) {
        k.prof.enter(Phase::SwitchForward);
        let qp = self.ports[p.0]
            .in_flight
            .take()
            .expect("TxDone without in-flight packet");
        let wire = k.packets.get(qp.pr).wire_bytes();
        self.ports[p.0].tx_bytes += wire;
        self.ports[p.0].busy = false;
        let link = self.ports[p.0].link;
        let delay = topo.link(link).delay;
        k.schedule(k.now + delay, Event::Arrive { link, pr: qp.pr });
        self.try_start_tx(k, topo, trace, p);
    }

    /// Periodic CC timer fired for `p` (RoCC's fair-rate computation).
    pub fn handle_cc_timer(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        p: PortId,
    ) {
        k.prof.enter(Phase::CpTick);
        let mut ctx = self.cc_ctx(k, p, trace.cc_mask());
        self.ports[p.0].cc.on_timer(&mut ctx);
        let emits = std::mem::take(&mut ctx.emits);
        let events = std::mem::take(&mut ctx.events);
        self.publish_cc_events(k, trace, p, events);
        self.inject_feedback(k, topo, trace, emits);
        if let Some(period) = self.ports[p.0].cc.timer_period() {
            k.schedule(
                k.now + period,
                Event::CpTimer {
                    node: self.id,
                    port: p,
                },
            );
        }
    }

    /// The link attached to port `p` came back after an outage. PFC state on
    /// both ends is stale — PAUSE/RESUME frames in flight died with the link
    /// — so resynchronize: forget any PAUSE received from the peer, and if we
    /// had PAUSEd the peer, re-assert it while this ingress is still above
    /// the XON threshold (otherwise treat it as resumed).
    pub fn on_link_restored(
        &mut self,
        k: &mut Kernel,
        topo: &Topology,
        trace: &mut Trace,
        p: PortId,
    ) {
        k.prof.enter(Phase::SwitchForward);
        self.ports[p.0].paused = false;
        if self.sent_xoff[p.0] {
            let in_rate = topo.link(topo.node(self.id).in_links[p.0]).rate;
            if self.ingress_buffered[p.0] >= k.config.pfc.xon_for(in_rate) {
                self.send_pfc(k, topo, p, PacketKind::PfcPause);
            } else {
                self.sent_xoff[p.0] = false;
            }
        }
        self.try_start_tx(k, topo, trace, p);
    }

    /// Exact simulation-time snapshot of a port's state (sampling support).
    pub fn snapshot(&self, p: PortId) -> (u64, u64) {
        (self.ports[p.0].qlen_bytes, self.ports[p.0].tx_bytes)
    }

    /// Serialize the switch's dynamic state: per-port queues (as slab
    /// refs, verbatim FIFO order), transmit and PFC state, the CC word
    /// stream, and the ingress accounting vectors.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.ports.len());
        for port in &self.ports {
            w.put(&port.ctrl_q);
            w.put(&port.data_q);
            w.put(&port.qlen_bytes);
            w.put(&port.busy);
            w.put(&port.paused);
            w.put(&port.tx_bytes);
            w.put(&port.in_flight);
            let mut words = Vec::new();
            port.cc.snapshot_state(&mut words);
            w.put(&words);
        }
        w.put(&self.ingress_buffered);
        // One flag per ingress: the count above covers both vectors.
        for x in &self.sent_xoff {
            w.put(x);
        }
    }

    /// Overwrite the switch's dynamic state from a [`Switch::save_state`]
    /// stream. The port layout and CC boxes of the freshly rebuilt switch
    /// are reused; only their dynamic contents change.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        if r.len()? != self.ports.len() {
            return Err(SnapshotError::Malformed("switch port count"));
        }
        for port in &mut self.ports {
            port.ctrl_q = r.get()?;
            port.data_q = r.get()?;
            port.qlen_bytes = r.get()?;
            port.busy = r.get()?;
            port.paused = r.get()?;
            port.tx_bytes = r.get()?;
            port.in_flight = r.get()?;
            port.cc.restore_state(&r.get::<Vec<u64>>()?);
        }
        let ingress_buffered: Vec<u64> = r.get()?;
        if ingress_buffered.len() != self.ingress_buffered.len() {
            return Err(SnapshotError::Malformed("switch ingress count"));
        }
        self.ingress_buffered = ingress_buffered;
        for x in &mut self.sent_xoff {
            *x = r.get()?;
        }
        Ok(())
    }

    /// Schedule initial CC timers (called once by the engine at t=0 with a
    /// deterministic phase offset so all ports don't fire in lockstep).
    pub fn schedule_cc_timers(&self, k: &mut Kernel, _now: SimTime) {
        for p in 0..self.ports.len() {
            if let Some(period) = self.ports[p].cc.timer_period() {
                // Stagger by port index to avoid synchronized bursts of CNPs.
                let phase = crate::time::SimDuration::from_nanos(
                    period.as_nanos() * (p as u64 % 7) / 7,
                );
                k.schedule(
                    k.now + period + phase,
                    Event::CpTimer {
                        node: self.id,
                        port: PortId(p),
                    },
                );
            }
        }
    }
}
