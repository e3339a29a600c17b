//! Deterministic fault injection.
//!
//! The paper's title claim is *robustness*: RoCC's RP keeps working when
//! CNPs stop arriving and its prioritized control queue keeps feedback
//! flowing under extreme congestion. This module makes those failure modes
//! expressible in the simulator — seeded, fully deterministic, and disabled
//! by default ([`FaultPlan::default`] injects nothing and leaves every
//! existing result bit-identical).
//!
//! Three fault families:
//!
//! * **Probabilistic link faults** ([`LinkFault`]) — per-link (or fabric-wide)
//!   random packet loss and bit corruption, optionally restricted to a packet
//!   class ([`FaultTarget`], so CNP-only loss is expressible) and to a time
//!   window (so a total CNP blackout over an interval is expressible).
//! * **Scheduled link flaps** ([`LinkFlap`]) — a link goes down at one
//!   instant and comes back at another; everything in flight on it (both
//!   directions, PFC frames included) is destroyed, and endpoint PFC pause
//!   state is resynchronized on restore.
//! * **Scheduled host faults** ([`HostFault`]) — a host pauses (freezes,
//!   keeping state) or crashes (loses NIC/transport soft state) and later
//!   comes back.
//!
//! Faults draw from a *dedicated* PRNG seeded from the run seed with a fixed
//! salt, so enabling a fault plan never perturbs the kernel RNG streams that
//! drive jitter, ECN/QCN sampling, or workload generation — and fault
//! decisions themselves are reproducible for a fixed seed.
//!
//! Injected faults are counted in [`crate::trace::FaultCounters`], separate
//! from congestion drops.

use crate::packet::PacketKind;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt XORed into the run seed for the fault PRNG, keeping the fault
/// stream independent of the kernel RNG.
const FAULT_SEED_SALT: u64 = 0xFAE1_7A05_u64 ^ 0x9e37_79b9_7f4a_7c15;

/// Which packet class a probabilistic fault applies to. PFC frames are
/// never subject to probabilistic loss/corruption (losing a RESUME would
/// deadlock the fabric forever, which no real bit-error process does —
/// PAUSE state is refreshed continuously on real links); link-down events
/// do destroy PFC frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every non-PFC packet.
    All,
    /// Payload-bearing packets only.
    Data,
    /// All control-class packets (ACKs, NACKs, and congestion feedback).
    Control,
    /// Congestion feedback only — dedicated feedback packets (RoCC
    /// CNPs/queue reports, DCQCN CNPs, QCN Fb) *and* ACKs carrying an ECN
    /// echo, which is how DCQCN/TIMELY/HPCC notifications travel in this
    /// simulator. Plain ACKs and NACKs survive, so "the feedback channel
    /// is lossy but the transport is fine" is expressible for every
    /// scheme. Losing an echo-bearing ACK under this target strips the
    /// echo and delivers the ACK (in a real deployment the CNP is a
    /// separate packet from the ACK stream, so losing one must not lose
    /// the other).
    Cnp,
}

impl FaultTarget {
    /// Does this class selector match `kind`?
    pub fn matches(&self, kind: &PacketKind) -> bool {
        match self {
            FaultTarget::All => !kind.is_pfc(),
            FaultTarget::Data => matches!(kind, PacketKind::Data { .. }),
            FaultTarget::Control => kind.is_control(),
            FaultTarget::Cnp => matches!(
                kind,
                PacketKind::RoccCnp { .. }
                    | PacketKind::RoccQueueReport { .. }
                    | PacketKind::DcqcnCnp
                    | PacketKind::QcnFb { .. }
                    | PacketKind::Ack { ecn_echo: true, .. }
            ),
        }
    }
}

/// Random per-link loss / corruption specification.
#[derive(Debug, Clone, Copy)]
pub struct LinkFault {
    /// Affected link; `None` applies to every link in the fabric.
    pub link: Option<LinkId>,
    /// Packet class the fault applies to.
    pub target: FaultTarget,
    /// Probability an affected packet is silently lost in transit.
    pub loss_prob: f64,
    /// Probability an affected packet arrives corrupted (the receiver's FCS
    /// check fails: switches discard at ingress; hosts discard and, for
    /// data, nudge go-back-N via a NACK).
    pub corrupt_prob: f64,
    /// Probability an affected packet is duplicated in transit (both copies
    /// arrive; models retransmit-happy link layers and switch soft errors).
    /// Must stay below 0.5 or duplication outpaces delivery.
    pub dup_prob: f64,
    /// Probability an affected packet is delayed past its normal arrival
    /// (delivered out of order relative to later packets on the link).
    pub reorder_prob: f64,
    /// Maximum extra delay applied to a reordered packet; the actual delay
    /// is drawn uniformly from `(0, reorder_delay]`.
    pub reorder_delay: SimDuration,
    /// Active interval `[start, end)`; `None` covers the whole run.
    pub window: Option<(SimTime, SimTime)>,
}

impl LinkFault {
    fn active_at(&self, now: SimTime) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => now >= start && now < end,
        }
    }
}

/// A scheduled link flap: down at `down_at`, restored at `up_at`. Both
/// directions of the full-duplex link are affected.
#[derive(Debug, Clone, Copy)]
pub struct LinkFlap {
    /// The flapping link (either direction identifies the pair).
    pub link: LinkId,
    /// When the link goes down.
    pub down_at: SimTime,
    /// When the link comes back.
    pub up_at: SimTime,
}

/// What happens to a faulted host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFaultKind {
    /// The host freezes (maintenance stall): no TX/RX, state preserved.
    Pause,
    /// The host crashes: NIC and transport soft state (in-flight packet,
    /// queued control frames, pending timers, unacked transmit window) are
    /// lost; sender flows roll back to their cumulative ack and resume on
    /// restart.
    Crash,
}

/// A scheduled host pause or crash-restart.
#[derive(Debug, Clone, Copy)]
pub struct HostFault {
    /// The affected host.
    pub host: NodeId,
    /// When the fault strikes.
    pub at: SimTime,
    /// When the host comes back.
    pub restore_at: SimTime,
    /// Pause or crash.
    pub kind: HostFaultKind,
}

/// A complete, declarative fault schedule for one run. The default plan is
/// empty: no RNG draws, no scheduled events, bit-identical behaviour to a
/// simulator without the fault layer.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Probabilistic per-link faults.
    pub link_faults: Vec<LinkFault>,
    /// Scheduled link down/up flaps.
    pub link_flaps: Vec<LinkFlap>,
    /// Scheduled host pauses / crash-restarts.
    pub host_faults: Vec<HostFault>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.link_flaps.is_empty() && self.host_faults.is_empty()
    }

    /// Add fabric-wide random loss for a packet class.
    pub fn with_loss(mut self, target: FaultTarget, prob: f64) -> Self {
        self.link_faults.push(LinkFault {
            link: None,
            target,
            loss_prob: prob,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            window: None,
        });
        self
    }

    /// Add fabric-wide random loss for a packet class inside `[start, end)`.
    pub fn with_loss_window(
        mut self,
        target: FaultTarget,
        prob: f64,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        self.link_faults.push(LinkFault {
            link: None,
            target,
            loss_prob: prob,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            window: Some((start, end)),
        });
        self
    }

    /// Add fabric-wide random corruption for a packet class.
    pub fn with_corruption(mut self, target: FaultTarget, prob: f64) -> Self {
        self.link_faults.push(LinkFault {
            link: None,
            target,
            loss_prob: 0.0,
            corrupt_prob: prob,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            window: None,
        });
        self
    }

    /// Add random loss on one specific link.
    pub fn with_link_loss(mut self, link: LinkId, target: FaultTarget, prob: f64) -> Self {
        self.link_faults.push(LinkFault {
            link: Some(link),
            target,
            loss_prob: prob,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            window: None,
        });
        self
    }

    /// Add fabric-wide random duplication for a packet class. Both the
    /// original and the copy arrive (back to back), stressing receiver
    /// dedup and cumulative-ACK idempotence. `prob` must stay below 0.5 so
    /// duplication cannot outpace delivery.
    pub fn with_duplication(mut self, target: FaultTarget, prob: f64) -> Self {
        assert!(prob < 0.5, "duplication probability must stay below 0.5");
        self.link_faults.push(LinkFault {
            link: None,
            target,
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            dup_prob: prob,
            reorder_prob: 0.0,
            reorder_delay: SimDuration::ZERO,
            window: None,
        });
        self
    }

    /// Add fabric-wide random reordering for a packet class: an affected
    /// packet is held back by up to `max_delay` and delivered out of order
    /// relative to packets that left after it.
    pub fn with_reorder(mut self, target: FaultTarget, prob: f64, max_delay: SimDuration) -> Self {
        assert!(max_delay > SimDuration::ZERO, "reorder delay must be positive");
        self.link_faults.push(LinkFault {
            link: None,
            target,
            loss_prob: 0.0,
            corrupt_prob: 0.0,
            dup_prob: 0.0,
            reorder_prob: prob,
            reorder_delay: max_delay,
            window: None,
        });
        self
    }

    /// Schedule a link flap.
    pub fn with_flap(mut self, link: LinkId, down_at: SimTime, up_at: SimTime) -> Self {
        assert!(down_at < up_at, "flap must go down before it comes up");
        self.link_flaps.push(LinkFlap {
            link,
            down_at,
            up_at,
        });
        self
    }

    /// Schedule a host crash-restart.
    pub fn with_host_crash(mut self, host: NodeId, at: SimTime, restart_at: SimTime) -> Self {
        assert!(at < restart_at, "crash must precede restart");
        self.host_faults.push(HostFault {
            host,
            at,
            restore_at: restart_at,
            kind: HostFaultKind::Crash,
        });
        self
    }

    /// Schedule a host crash with **no** restart: the host is down for the
    /// rest of the run (`restore_at` is the [`SimTime::MAX`] sentinel, and
    /// no restore event is ever scheduled). Events addressed to such a host
    /// are abandoned by the engine instead of being re-queued forever — see
    /// [`crate::trace::FaultCounters::abandoned_events`].
    pub fn with_host_crash_forever(mut self, host: NodeId, at: SimTime) -> Self {
        self.host_faults.push(HostFault {
            host,
            at,
            restore_at: SimTime::MAX,
            kind: HostFaultKind::Crash,
        });
        self
    }

    /// Schedule a host pause (freeze without state loss).
    pub fn with_host_pause(mut self, host: NodeId, at: SimTime, resume_at: SimTime) -> Self {
        assert!(at < resume_at, "pause must precede resume");
        self.host_faults.push(HostFault {
            host,
            at,
            restore_at: resume_at,
            kind: HostFaultKind::Pause,
        });
        self
    }
}

/// A scheduled fault transition, dispatched through the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Both directions of the link go down.
    LinkDown(LinkId),
    /// Both directions of the link are restored.
    LinkUp(LinkId),
    /// The host freezes (state preserved).
    HostPause(NodeId),
    /// The host crashes (soft state lost).
    HostCrash(NodeId),
    /// A paused or crashed host comes back.
    HostRestore(NodeId),
}

/// Verdict for one packet delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver normally.
    Deliver,
    /// Silently lost in transit. Carries the target class of the matching
    /// spec: under [`FaultTarget::Cnp`] the engine turns "lose" into
    /// "strip the ECN echo" for echo-bearing ACKs (the notification dies,
    /// the cumulative ACK does not), while every other class drops the
    /// whole frame.
    Lose(FaultTarget),
    /// Arrives corrupted (receiver FCS check fails).
    Corrupt,
    /// Arrives twice: the original is delivered normally and an identical
    /// copy arrives immediately after it.
    Duplicate,
    /// Arrives late by the carried extra delay, out of order relative to
    /// packets that left after it.
    Reorder(SimDuration),
}

/// Runtime fault state owned by the kernel: the plan, the dedicated fault
/// PRNG, and which links/hosts are currently down.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    link_down: Vec<bool>,
    host_down: Vec<bool>,
    /// Fast path: true iff the plan injects anything at all.
    active: bool,
}

impl FaultState {
    /// Build runtime state for `plan` over a fabric with `n_links` links and
    /// `n_nodes` nodes, seeding the dedicated fault PRNG from the run seed.
    pub fn new(plan: FaultPlan, seed: u64, n_links: usize, n_nodes: usize) -> Self {
        let active = !plan.is_empty();
        FaultState {
            plan,
            rng: StdRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            link_down: vec![false; n_links],
            host_down: vec![false; n_nodes],
            active,
        }
    }

    /// True iff the plan injects anything (cheap gate for the hot path).
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The plan under execution.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault transitions the engine must schedule at startup.
    pub fn scheduled_events(&self) -> Vec<(SimTime, FaultEvent)> {
        let mut evs = Vec::new();
        for f in &self.plan.link_flaps {
            evs.push((f.down_at, FaultEvent::LinkDown(f.link)));
            evs.push((f.up_at, FaultEvent::LinkUp(f.link)));
        }
        for h in &self.plan.host_faults {
            let strike = match h.kind {
                HostFaultKind::Pause => FaultEvent::HostPause(h.host),
                HostFaultKind::Crash => FaultEvent::HostCrash(h.host),
            };
            evs.push((h.at, strike));
            // The MAX sentinel means "never restored": scheduling it would
            // park an undispatchable event in the heap and keep a quiesced
            // run from draining.
            if h.restore_at != SimTime::MAX {
                evs.push((h.restore_at, FaultEvent::HostRestore(h.host)));
            }
        }
        evs
    }

    /// Is this link currently down?
    pub fn link_is_down(&self, link: LinkId) -> bool {
        self.active && self.link_down[link.0]
    }

    /// Mark one direction of a link up/down (the engine calls this for both
    /// directions of the pair).
    pub fn set_link_down(&mut self, link: LinkId, down: bool) {
        self.link_down[link.0] = down;
    }

    /// Is this host currently paused or crashed?
    pub fn host_is_down(&self, node: NodeId) -> bool {
        self.active && self.host_down[node.0]
    }

    /// Will this host ever be restored after `now`? False for a host whose
    /// every scheduled restore is in the past or is the "never" sentinel
    /// ([`SimTime::MAX`]) — i.e. the host is known never to recover, so
    /// events addressed to it can be abandoned rather than re-queued.
    pub fn host_will_recover(&self, node: NodeId, now: SimTime) -> bool {
        self.plan
            .host_faults
            .iter()
            .any(|h| h.host == node && h.restore_at > now && h.restore_at != SimTime::MAX)
    }

    /// Mark a host up/down.
    pub fn set_host_down(&mut self, node: NodeId, down: bool) {
        self.host_down[node.0] = down;
    }

    /// Decide the fate of a packet of `kind` delivered over `link` at `now`.
    /// Draws from the fault PRNG only for fault specs that match, so plans
    /// that never match a packet never consume randomness for it.
    pub fn decide(&mut self, now: SimTime, link: LinkId, kind: &PacketKind) -> FaultDecision {
        if !self.active || kind.is_pfc() {
            return FaultDecision::Deliver;
        }
        for f in &self.plan.link_faults {
            if let Some(l) = f.link {
                if l != link {
                    continue;
                }
            }
            if !f.target.matches(kind) || !f.active_at(now) {
                continue;
            }
            if f.loss_prob > 0.0 && self.rng.gen::<f64>() < f.loss_prob {
                return FaultDecision::Lose(f.target);
            }
            if f.corrupt_prob > 0.0 && self.rng.gen::<f64>() < f.corrupt_prob {
                return FaultDecision::Corrupt;
            }
            if f.dup_prob > 0.0 && self.rng.gen::<f64>() < f.dup_prob {
                return FaultDecision::Duplicate;
            }
            if f.reorder_prob > 0.0 && self.rng.gen::<f64>() < f.reorder_prob {
                let max_ns = f.reorder_delay.as_nanos().max(1);
                let delay_ns = self.rng.gen_range(1..=max_ns);
                return FaultDecision::Reorder(SimDuration::from_nanos(delay_ns));
            }
        }
        FaultDecision::Deliver
    }

    /// Serialize the dynamic fault state: the PRNG position and the
    /// current down flags. The plan itself is construction state the
    /// restoring run rebuilds identically.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.put(&self.rng.state());
        w.put(&self.link_down);
        w.put(&self.host_down);
    }

    /// Overwrite the dynamic fault state from a [`FaultState::save_state`]
    /// stream. Fails if the down-flag vector lengths disagree with the
    /// rebuilt fabric (wrong topology).
    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let rng = StdRng::from_state(r.get()?);
        let link_down: Vec<bool> = r.get()?;
        if link_down.len() != self.link_down.len() {
            return Err(SnapshotError::Malformed("fault link count"));
        }
        let host_down: Vec<bool> = r.get()?;
        if host_down.len() != self.host_down.len() {
            return Err(SnapshotError::Malformed("fault host count"));
        }
        self.rng = rng;
        self.link_down = link_down;
        self.host_down = host_down;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::CpId;
    use crate::topology::PortId;

    fn cnp_kind() -> PacketKind {
        PacketKind::RoccCnp {
            fair_rate_units: 1,
            cp: CpId {
                node: NodeId(0),
                port: PortId(0),
            },
        }
    }

    fn data_kind() -> PacketKind {
        PacketKind::Data {
            seq: 0,
            payload: 1000,
            last: false,
        }
    }

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let mut st = FaultState::new(plan, 7, 4, 4);
        assert!(!st.is_active());
        assert!(st.scheduled_events().is_empty());
        for _ in 0..1000 {
            assert_eq!(
                st.decide(SimTime::ZERO, LinkId(0), &data_kind()),
                FaultDecision::Deliver
            );
        }
        assert!(!st.link_is_down(LinkId(0)));
        assert!(!st.host_is_down(NodeId(0)));
    }

    #[test]
    fn target_classes() {
        assert!(FaultTarget::Cnp.matches(&cnp_kind()));
        assert!(!FaultTarget::Cnp.matches(&data_kind()));
        assert!(!FaultTarget::Cnp.matches(&PacketKind::Ack {
            cum_seq: 0,
            ecn_echo: false,
            data_tx_time: SimTime::ZERO,
        }));
        // An ACK carrying a congestion notification (ECN echo) is part of
        // the feedback channel.
        assert!(FaultTarget::Cnp.matches(&PacketKind::Ack {
            cum_seq: 0,
            ecn_echo: true,
            data_tx_time: SimTime::ZERO,
        }));
        assert!(FaultTarget::Control.matches(&cnp_kind()));
        assert!(FaultTarget::Data.matches(&data_kind()));
        assert!(!FaultTarget::Data.matches(&cnp_kind()));
        assert!(FaultTarget::All.matches(&data_kind()));
        assert!(!FaultTarget::All.matches(&PacketKind::PfcPause));
    }

    #[test]
    fn certain_loss_loses_and_pfc_is_exempt() {
        let plan = FaultPlan::default().with_loss(FaultTarget::All, 1.0);
        let mut st = FaultState::new(plan, 1, 2, 2);
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(0), &data_kind()),
            FaultDecision::Lose(FaultTarget::All)
        );
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(0), &PacketKind::PfcPause),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn window_gates_loss() {
        let plan = FaultPlan::default().with_loss_window(
            FaultTarget::Cnp,
            1.0,
            SimTime::from_micros(10),
            SimTime::from_micros(20),
        );
        let mut st = FaultState::new(plan, 1, 1, 1);
        assert_eq!(
            st.decide(SimTime::from_micros(5), LinkId(0), &cnp_kind()),
            FaultDecision::Deliver
        );
        assert_eq!(
            st.decide(SimTime::from_micros(15), LinkId(0), &cnp_kind()),
            FaultDecision::Lose(FaultTarget::Cnp)
        );
        assert_eq!(
            st.decide(SimTime::from_micros(20), LinkId(0), &cnp_kind()),
            FaultDecision::Deliver,
            "window end is exclusive"
        );
    }

    #[test]
    fn link_scoped_loss_only_hits_that_link() {
        let plan = FaultPlan::default().with_link_loss(LinkId(1), FaultTarget::All, 1.0);
        let mut st = FaultState::new(plan, 3, 2, 2);
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(0), &data_kind()),
            FaultDecision::Deliver
        );
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(1), &data_kind()),
            FaultDecision::Lose(FaultTarget::All)
        );
    }

    #[test]
    fn corruption_decision() {
        let plan = FaultPlan::default().with_corruption(FaultTarget::Data, 1.0);
        let mut st = FaultState::new(plan, 1, 1, 1);
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(0), &data_kind()),
            FaultDecision::Corrupt
        );
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(0), &cnp_kind()),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn duplication_decision() {
        let plan = FaultPlan::default().with_duplication(FaultTarget::Data, 0.49);
        let mut st = FaultState::new(plan, 5, 1, 1);
        let mut dups = 0;
        for _ in 0..2000 {
            match st.decide(SimTime::ZERO, LinkId(0), &data_kind()) {
                FaultDecision::Duplicate => dups += 1,
                FaultDecision::Deliver => {}
                other => panic!("unexpected decision {other:?}"),
            }
            // Control packets are out of scope for a Data-targeted fault.
            assert_eq!(
                st.decide(SimTime::ZERO, LinkId(0), &cnp_kind()),
                FaultDecision::Deliver
            );
        }
        assert!(dups > 0, "p=0.49 over 2000 draws must duplicate something");
    }

    #[test]
    #[should_panic(expected = "below 0.5")]
    fn duplication_probability_is_clamped() {
        let _ = FaultPlan::default().with_duplication(FaultTarget::All, 0.5);
    }

    #[test]
    fn reorder_decision_bounds_delay() {
        let max = SimDuration::from_micros(3);
        let plan = FaultPlan::default().with_reorder(FaultTarget::All, 1.0, max);
        let mut st = FaultState::new(plan, 11, 1, 1);
        for _ in 0..500 {
            match st.decide(SimTime::ZERO, LinkId(0), &data_kind()) {
                FaultDecision::Reorder(d) => {
                    assert!(d > SimDuration::ZERO && d <= max, "delay {d:?} out of (0, max]");
                }
                other => panic!("p=1.0 must always reorder, got {other:?}"),
            }
        }
        // PFC frames stay exempt from every probabilistic fault.
        assert_eq!(
            st.decide(SimTime::ZERO, LinkId(0), &PacketKind::PfcResume),
            FaultDecision::Deliver
        );
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let mk = || {
            let plan = FaultPlan::default().with_loss(FaultTarget::All, 0.5);
            FaultState::new(plan, 99, 1, 1)
        };
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..500 {
            assert_eq!(
                a.decide(SimTime::ZERO, LinkId(0), &data_kind()),
                b.decide(SimTime::ZERO, LinkId(0), &data_kind())
            );
        }
    }

    #[test]
    fn scheduled_events_cover_flaps_and_hosts() {
        let plan = FaultPlan::default()
            .with_flap(LinkId(2), SimTime::from_micros(1), SimTime::from_micros(9))
            .with_host_crash(NodeId(3), SimTime::from_micros(2), SimTime::from_micros(8))
            .with_host_pause(NodeId(4), SimTime::from_micros(3), SimTime::from_micros(7));
        let st = FaultState::new(plan, 0, 4, 8);
        let evs = st.scheduled_events();
        assert_eq!(evs.len(), 6);
        assert!(matches!(evs[0], (_, FaultEvent::LinkDown(LinkId(2)))));
        assert!(matches!(evs[1], (_, FaultEvent::LinkUp(LinkId(2)))));
        assert!(matches!(evs[2], (_, FaultEvent::HostCrash(NodeId(3)))));
        assert!(matches!(evs[5], (_, FaultEvent::HostRestore(NodeId(4)))));
    }

    #[test]
    fn down_flags_round_trip() {
        let plan = FaultPlan::default().with_flap(
            LinkId(0),
            SimTime::ZERO,
            SimTime::from_micros(1),
        );
        let mut st = FaultState::new(plan, 0, 2, 2);
        st.set_link_down(LinkId(1), true);
        assert!(st.link_is_down(LinkId(1)));
        st.set_link_down(LinkId(1), false);
        assert!(!st.link_is_down(LinkId(1)));
        st.set_host_down(NodeId(1), true);
        assert!(st.host_is_down(NodeId(1)));
    }
}
