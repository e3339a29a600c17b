//! Congestion-control integration points.
//!
//! The simulator is scheme-agnostic: a scheme supplies
//!
//! * a [`SwitchCc`] per switch egress port (the congestion point — it can
//!   mark ECN, stamp INT, run periodic timers, and emit feedback packets
//!   toward flow sources), and
//! * a [`HostCc`] per flow at the sender (the reaction point — it consumes
//!   ACK echoes and feedback packets and yields a rate and/or window).
//!
//! `rocc-core` implements RoCC on these traits; `rocc-baselines` implements
//! DCQCN, DCQCN+PI, QCN, TIMELY, and HPCC.

use crate::packet::{CpId, FlowId, IntStack, PacketKind};
use crate::telemetry::{CcEvent, EventMask};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
use crate::units::BitRate;
use rand::rngs::StdRng;

/// A feedback packet a switch CC wants sent to a flow's source.
#[derive(Debug, Clone)]
pub struct CtrlEmit {
    /// The flow being steered.
    pub flow: FlowId,
    /// The flow's source host (feedback destination).
    pub to: NodeId,
    /// Feedback payload; must be `RoccCnp` or `QcnFb`.
    pub kind: PacketKind,
}

/// Context handed to [`SwitchCc`] callbacks.
pub struct SwitchCcCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Identity of this congestion point.
    pub cp: CpId,
    /// Data-queue occupancy in bytes (excludes the control queue).
    pub qlen_bytes: u64,
    /// Egress line rate.
    pub link_rate: BitRate,
    /// Cumulative bytes transmitted by this port.
    pub tx_bytes: u64,
    /// Deterministic per-run RNG (for probabilistic marking/sampling).
    pub rng: &'a mut StdRng,
    /// Feedback packets to inject; drained and routed by the switch.
    pub emits: Vec<CtrlEmit>,
    /// Decision events buffered by the scheme; drained by the engine and
    /// wrapped into full [`crate::telemetry::SimEvent`]s. Empty `Vec` does
    /// not allocate, so the disabled path stays free.
    pub events: Vec<CcEvent>,
    /// Telemetry classes the run cares about; schemes test this via
    /// [`SwitchCcCtx::wants`] before constructing an event.
    pub event_mask: EventMask,
}

impl SwitchCcCtx<'_> {
    /// True if the run wants events of this class buffered.
    #[inline]
    pub fn wants(&self, class: EventMask) -> bool {
        self.event_mask.intersects(class)
    }
}

/// Per-packet metadata visible to switch CC hooks.
#[derive(Debug, Clone, Copy)]
pub struct PacketMeta {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Source host of the flow (where feedback would be sent).
    pub src: NodeId,
    /// Wire size in bytes.
    pub wire_bytes: u64,
}

/// Switch-side congestion control, instantiated once per egress port.
#[allow(unused_variables)]
pub trait SwitchCc {
    /// If `Some(p)`, the engine invokes [`SwitchCc::on_timer`] every `p`.
    /// RoCC's CP computes the fair rate on this timer (T = 40 µs).
    fn timer_period(&self) -> Option<SimDuration> {
        None
    }

    /// Periodic tick; emit feedback via `ctx.emits`.
    fn on_timer(&mut self, ctx: &mut SwitchCcCtx<'_>) {}

    /// A data packet was appended to the egress queue. `qlen_bytes` in `ctx`
    /// includes the arriving packet. Return `true` to ECN-mark the packet.
    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> bool {
        false
    }

    /// A data packet is leaving the egress queue (serialization begins).
    /// `qlen_bytes` excludes the departing packet. Return an
    /// [`crate::packet::IntHop`]
    /// record to stamp onto the packet, if the scheme uses INT.
    fn on_dequeue(
        &mut self,
        ctx: &mut SwitchCcCtx<'_>,
        pkt: PacketMeta,
    ) -> Option<crate::packet::IntHop> {
        None
    }

    /// Serialize the controller's dynamic state as a flat word stream
    /// (floats via `to_bits`), for engine checkpoints; a stateless one
    /// says so in an empty body. Must be the exact inverse of
    /// [`SwitchCc::restore_state`]: restoring the words into a freshly
    /// constructed controller must reproduce bit-identical behavior.
    fn snapshot_state(&self, out: &mut Vec<u64>);

    /// Overwrite the controller's dynamic state from a word stream produced
    /// by [`SwitchCc::snapshot_state`] on an identically configured
    /// controller.
    fn restore_state(&mut self, state: &[u64]);
}

/// A [`SwitchCc`] that does nothing (plain drop-tail/PFC switch).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSwitchCc;

impl SwitchCc for NullSwitchCc {
    // No state at all.
    fn snapshot_state(&self, _out: &mut Vec<u64>) {}

    fn restore_state(&mut self, _state: &[u64]) {}
}

/// Creates a [`SwitchCc`] per congestion point.
pub trait SwitchCcFactory {
    /// Instantiate the per-port controller; `link_rate` is the egress line
    /// rate (schemes derive Fmax, thresholds, and gains from it).
    fn make(&self, cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc>;
}

/// Factory for [`NullSwitchCc`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSwitchCcFactory;

impl SwitchCcFactory for NullSwitchCcFactory {
    fn make(&self, _cp: CpId, _link_rate: BitRate) -> Box<dyn SwitchCc> {
        Box::new(NullSwitchCc)
    }
}

/// Feedback delivered to a sender's reaction point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackEvent {
    /// RoCC CNP: fair rate in wire units (multiples of ΔF; the RoCC RP
    /// scales by ΔF, Alg. 2 line 2) plus the originating congestion point.
    RoccCnp {
        /// Fair rate in multiples of ΔF, exactly as carried on the wire.
        fair_rate_units: u32,
        /// Congestion point that generated the CNP.
        cp: CpId,
    },
    /// RoCC queue report (§3.6 host-side rate computation): raw queue
    /// depth and the CP's Fmax, both in wire units.
    RoccQueueReport {
        /// Queue depth in multiples of ΔQ.
        q_cur_units: u32,
        /// CP's Fmax in multiples of ΔF.
        f_max_units: u32,
        /// Originating congestion point.
        cp: CpId,
    },
    /// DCQCN CNP (congestion seen; no rate carried).
    DcqcnCnp,
    /// QCN feedback with quantized congestion measure Fb.
    QcnFb {
        /// Quantized feedback (0..=63).
        fb: u8,
        /// Originating congestion point.
        cp: CpId,
    },
}

/// ACK information delivered to a sender's congestion control.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Bytes newly acknowledged by this ACK (0 for duplicates).
    pub newly_acked: u64,
    /// Cumulative acked sequence number.
    pub cum_seq: u64,
    /// Measured round-trip time of the acked packet.
    pub rtt: SimDuration,
    /// ECN congestion-experienced echo from the receiver.
    pub ecn_echo: bool,
    /// Echoed in-band telemetry (HPCC).
    pub int: IntStack,
}

/// Context handed to [`HostCc`] callbacks.
pub struct HostCcCtx {
    /// Current simulation time.
    pub now: SimTime,
    /// NIC line rate (the usual Rmax).
    pub link_rate: BitRate,
    /// Timer (re)arm requests: `(token, delay)` — replaces any pending timer
    /// with the same token (i.e., arming is also a reset).
    pub set_timers: Vec<(u8, SimDuration)>,
    /// Timer cancellation requests by token.
    pub cancel_timers: Vec<u8>,
    /// Decision events buffered by the scheme; drained by the engine and
    /// wrapped into full [`crate::telemetry::SimEvent`]s.
    pub events: Vec<CcEvent>,
    /// Telemetry classes the run cares about; schemes test this via
    /// [`HostCcCtx::wants`] before constructing an event.
    pub event_mask: EventMask,
}

impl HostCcCtx {
    /// Arm (or reset) the timer identified by `token` to fire after `d`.
    /// Tokens are `0..`[`crate::host::TIMER_SLOTS`]; the host panics on
    /// any other.
    pub fn set_timer(&mut self, token: u8, d: SimDuration) {
        self.set_timers.push((token, d));
    }

    /// Cancel the pending timer identified by `token`, if any.
    pub fn cancel_timer(&mut self, token: u8) {
        self.cancel_timers.push(token);
    }

    /// True if the run wants events of this class buffered.
    #[inline]
    pub fn wants(&self, class: EventMask) -> bool {
        self.event_mask.intersects(class)
    }
}

/// What the sender is currently allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateDecision {
    /// Pacing rate; packets are spaced at `wire_bytes / rate`.
    pub rate: BitRate,
    /// Optional in-flight byte cap (window-based schemes like HPCC).
    pub window_bytes: Option<u64>,
}

impl RateDecision {
    /// Unthrottled: line rate, no window.
    pub fn line_rate(rate: BitRate) -> Self {
        RateDecision {
            rate,
            window_bytes: None,
        }
    }
}

/// Sender-side congestion control, instantiated once per flow.
#[allow(unused_variables)]
pub trait HostCc {
    /// Current sending constraint; consulted whenever the NIC schedules the
    /// flow's next packet.
    fn decision(&self) -> RateDecision;

    /// Switch- or receiver-originated feedback arrived (after the RP
    /// feedback delay).
    fn on_feedback(&mut self, ctx: &mut HostCcCtx, fb: FeedbackEvent) {}

    /// An ACK for this flow arrived.
    fn on_ack(&mut self, ctx: &mut HostCcCtx, ack: AckEvent) {}

    /// A timer armed via [`HostCcCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {}

    /// The hard `(min, max)` bounds this controller promises its rate stays
    /// within, if it makes such a promise. The invariant sanitizer audits
    /// `min ≤ decision().rate ≤ max` whenever this returns `Some`; `None`
    /// (the default) skips the audit for schemes without declared bounds.
    fn rate_bounds(&self) -> Option<(BitRate, BitRate)> {
        None
    }

    /// Serialize the controller's dynamic state as a flat word stream
    /// (floats via `to_bits`), for engine checkpoints; a stateless one
    /// says so in an empty body. Must be the exact inverse of
    /// [`HostCc::restore_state`]: restoring the words into a freshly
    /// constructed controller must reproduce bit-identical behavior.
    fn snapshot_state(&self, out: &mut Vec<u64>);

    /// Overwrite the controller's dynamic state from a word stream produced
    /// by [`HostCc::snapshot_state`] on an identically configured
    /// controller.
    fn restore_state(&mut self, state: &[u64]);
}

/// A [`HostCc`] that always sends at line rate (no congestion control).
#[derive(Debug, Clone, Copy)]
pub struct NullHostCc {
    rate: BitRate,
}

impl NullHostCc {
    /// Send at the given fixed rate.
    pub fn new(rate: BitRate) -> Self {
        NullHostCc { rate }
    }
}

impl HostCc for NullHostCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rate)
    }

    // `rate` is configuration, fixed at construction: no dynamic state.
    fn snapshot_state(&self, _out: &mut Vec<u64>) {}

    fn restore_state(&mut self, _state: &[u64]) {}
}

/// Creates a [`HostCc`] per flow.
pub trait HostCcFactory {
    /// Instantiate the per-flow controller; `link_rate` is the sender NIC
    /// line rate.
    fn make(&self, flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc>;
}

/// Factory for [`NullHostCc`] (flows run at line rate).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHostCcFactory;

impl HostCcFactory for NullHostCcFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(NullHostCc::new(link_rate))
    }
}

/// A fixed-rate host CC factory, useful for open-loop traffic (e.g., the
/// DPDK validation scenario drives iPerf-like senders at set offered rates).
#[derive(Debug, Clone)]
pub struct FixedRateFactory {
    rates: Vec<(FlowId, BitRate)>,
    default: Option<BitRate>,
}

impl FixedRateFactory {
    /// Flows listed in `rates` get their specific rate; all others get
    /// `default` (or line rate when `None`).
    pub fn new(rates: Vec<(FlowId, BitRate)>, default: Option<BitRate>) -> Self {
        FixedRateFactory { rates, default }
    }
}

impl HostCcFactory for FixedRateFactory {
    fn make(&self, flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        let rate = self
            .rates
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, r)| *r)
            .or(self.default)
            .unwrap_or(link_rate);
        Box::new(NullHostCc::new(rate.min(link_rate)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_host_cc_is_line_rate() {
        let cc = NullHostCc::new(BitRate::from_gbps(40));
        assert_eq!(
            cc.decision(),
            RateDecision {
                rate: BitRate::from_gbps(40),
                window_bytes: None
            }
        );
    }

    #[test]
    fn fixed_rate_factory_assigns_rates() {
        let f = FixedRateFactory::new(
            vec![(FlowId(1), BitRate::from_gbps(3))],
            Some(BitRate::from_gbps(10)),
        );
        let line = BitRate::from_gbps(10);
        assert_eq!(f.make(FlowId(1), line).decision().rate, BitRate::from_gbps(3));
        assert_eq!(f.make(FlowId(2), line).decision().rate, BitRate::from_gbps(10));
    }

    #[test]
    fn ctx_timer_requests_accumulate() {
        let mut ctx = HostCcCtx {
            now: SimTime::ZERO,
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: EventMask::NONE,
        };
        ctx.set_timer(0, SimDuration::from_micros(100));
        ctx.set_timer(1, SimDuration::from_micros(50));
        ctx.cancel_timer(0);
        assert_eq!(ctx.set_timers.len(), 2);
        assert_eq!(ctx.cancel_timers, vec![0]);
    }
}
