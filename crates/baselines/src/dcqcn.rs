//! DCQCN (Zhu et al., SIGCOMM '15) — the widely deployed source-driven
//! RoCEv2 congestion control the paper compares against.
//!
//! * **CP (switch)**: RED-style probabilistic ECN marking on egress queue
//!   depth between Kmin and Kmax.
//! * **NP (receiver)**: relays marks back as CNPs, at most one per flow per
//!   50 µs. In this implementation the receiver echoes the ECN bit on every
//!   ACK and the sender-side NP filter applies the 50 µs coalescing — the
//!   signal path and latency are identical, without a second control-packet
//!   type on the wire.
//! * **RP (sender)**: on CNP, cut rate by `α/2` and raise `α`; `α` decays on
//!   a timer; rate recovers in QCN-style fast-recovery / additive-increase /
//!   hyper-increase stages driven by a byte counter and a timer.

use rand::Rng;
use rocc_sim::cc::{
    AckEvent, HostCc, HostCcCtx, PacketMeta, RateDecision, SwitchCc, SwitchCcCtx, SwitchCcFactory,
};
use rocc_sim::prelude::{BitRate, CpId, FlowId, SimDuration, SimTime};

/// ECN marking thresholds for one egress port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedParams {
    /// No marking below this queue depth (bytes).
    pub k_min: u64,
    /// Mark everything above this queue depth (bytes).
    pub k_max: u64,
    /// Marking probability at `k_max`.
    pub p_max: f64,
}

impl RedParams {
    /// Thresholds scaled to the egress line rate (the usual deployment
    /// guidance scales Kmin/Kmax with link speed).
    pub fn for_link_rate(rate: BitRate) -> Self {
        let gbps = rate.as_bps() as f64 / 1e9;
        let scale = (gbps / 40.0).max(0.25);
        RedParams {
            k_min: (40_000.0 * scale) as u64,
            k_max: (160_000.0 * scale) as u64,
            p_max: 0.2,
        }
    }

    /// Marking probability at queue depth `q` bytes.
    pub fn mark_probability(&self, q: u64) -> f64 {
        if q <= self.k_min {
            0.0
        } else if q >= self.k_max {
            1.0
        } else {
            self.p_max * (q - self.k_min) as f64 / (self.k_max - self.k_min) as f64
        }
    }
}

/// DCQCN's switch side: RED/ECN marking at enqueue.
pub struct DcqcnSwitchCc {
    red: RedParams,
}

impl DcqcnSwitchCc {
    /// Build with explicit thresholds.
    pub fn new(red: RedParams) -> Self {
        DcqcnSwitchCc { red }
    }
}

impl SwitchCc for DcqcnSwitchCc {
    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, _pkt: PacketMeta) -> bool {
        let p = self.red.mark_probability(ctx.qlen_bytes);
        p > 0.0 && ctx.rng.gen::<f64>() < p
    }
}

// RED is memoryless: `red` is configuration, no dynamic state.
rocc_sim::cc_state!(DcqcnSwitchCc {});

/// Factory for [`DcqcnSwitchCc`] with per-port thresholds from line rate.
#[derive(Debug, Default, Clone, Copy)]
pub struct DcqcnSwitchCcFactory {
    /// Optional threshold override applied to every port.
    pub red_override: Option<RedParams>,
}

impl SwitchCcFactory for DcqcnSwitchCcFactory {
    fn make(&self, _cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc> {
        let red = self
            .red_override
            .unwrap_or_else(|| RedParams::for_link_rate(link_rate));
        Box::new(DcqcnSwitchCc::new(red))
    }
}

/// RP parameters (defaults follow the DCQCN paper / common NIC settings,
/// with the increase timer tightened for microsecond-scale fabrics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcqcnParams {
    /// α EWMA gain g (paper: 1/256).
    pub g: f64,
    /// Minimum gap between honored congestion notifications (paper: 50 µs).
    pub cnp_interval: SimDuration,
    /// α decay timer when no CNP arrives (paper: 55 µs).
    pub alpha_timer: SimDuration,
    /// Rate-increase timer period.
    pub increase_timer: SimDuration,
    /// Rate-increase byte counter.
    pub byte_counter: u64,
    /// Fast-recovery rounds before additive increase (paper: F = 5).
    pub fast_recovery_rounds: u32,
    /// Additive increase step.
    pub r_ai: BitRate,
    /// Hyper increase step.
    pub r_hai: BitRate,
    /// Minimum rate floor.
    pub r_min: BitRate,
}

impl Default for DcqcnParams {
    fn default() -> Self {
        DcqcnParams {
            g: 1.0 / 256.0,
            cnp_interval: SimDuration::from_micros(50),
            alpha_timer: SimDuration::from_micros(55),
            increase_timer: SimDuration::from_micros(55),
            byte_counter: 10_000_000,
            fast_recovery_rounds: 5,
            r_ai: BitRate::from_mbps(50),
            r_hai: BitRate::from_mbps(500),
            r_min: BitRate::from_mbps(40),
        }
    }
}

/// Timer token: α decay.
const ALPHA_TOKEN: u8 = 0;
/// Timer token: rate increase.
const INCREASE_TOKEN: u8 = 1;

/// DCQCN's per-flow reaction point.
pub struct DcqcnHostCc {
    p: DcqcnParams,
    r_max: BitRate,
    /// Current rate Rc.
    rc: BitRate,
    /// Target rate Rt.
    rt: BitRate,
    alpha: f64,
    /// Last honored congestion notification.
    last_cnp: Option<SimTime>,
    /// Increase-stage counters.
    t_count: u32,
    bc_count: u32,
    bytes_since_increase: u64,
}

impl DcqcnHostCc {
    /// New flow at line rate (DCQCN starts at full rate).
    pub fn new(p: DcqcnParams, r_max: BitRate) -> Self {
        DcqcnHostCc {
            p,
            r_max,
            rc: r_max,
            rt: r_max,
            alpha: 1.0,
            last_cnp: None,
            t_count: 0,
            bc_count: 0,
            bytes_since_increase: 0,
        }
    }

    /// Current α (tests/diagnostics).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn cut_rate(&mut self, ctx: &mut HostCcCtx) {
        self.rt = self.rc;
        self.rc = self.rc.scale(1.0 - self.alpha / 2.0).max(self.p.r_min);
        self.alpha = (1.0 - self.p.g) * self.alpha + self.p.g;
        self.t_count = 0;
        self.bc_count = 0;
        self.bytes_since_increase = 0;
        ctx.set_timer(ALPHA_TOKEN, self.p.alpha_timer);
        ctx.set_timer(INCREASE_TOKEN, self.p.increase_timer);
    }

    /// One fast-recovery / additive / hyper increase event.
    fn increase_event(&mut self, stage_from_timer: bool) {
        if stage_from_timer {
            self.t_count += 1;
        } else {
            self.bc_count += 1;
        }
        let f = self.p.fast_recovery_rounds;
        if self.t_count.min(self.bc_count) >= f && self.t_count.max(self.bc_count) > f {
            // Hyper increase.
            self.rt = (self.rt + self.p.r_hai).min(self.r_max);
        } else if self.t_count > f || self.bc_count > f {
            // Additive increase.
            self.rt = (self.rt + self.p.r_ai).min(self.r_max);
        }
        // Fast recovery step toward target in every stage.
        self.rc = BitRate::from_bps((self.rc.as_bps() + self.rt.as_bps()) / 2).min(self.r_max);
    }
}

impl HostCc for DcqcnHostCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rc.min(self.r_max))
    }

    fn on_ack(&mut self, ctx: &mut HostCcCtx, ack: AckEvent) {
        if ack.ecn_echo {
            // NP-side CNP coalescing: honor at most one mark per interval.
            let due = self
                .last_cnp
                .is_none_or(|t| ctx.now.saturating_since(t) >= self.p.cnp_interval);
            if due {
                self.last_cnp = Some(ctx.now);
                self.cut_rate(ctx);
                return;
            }
        }
        // Byte-counter stage progress.
        self.bytes_since_increase += ack.newly_acked;
        if self.bytes_since_increase >= self.p.byte_counter {
            self.bytes_since_increase = 0;
            self.increase_event(false);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {
        match token {
            ALPHA_TOKEN => {
                self.alpha *= 1.0 - self.p.g;
                ctx.set_timer(ALPHA_TOKEN, self.p.alpha_timer);
            }
            INCREASE_TOKEN => {
                self.increase_event(true);
                ctx.set_timer(INCREASE_TOKEN, self.p.increase_timer);
            }
            _ => {}
        }
    }

    fn on_feedback(&mut self, ctx: &mut HostCcCtx, fb: rocc_sim::cc::FeedbackEvent) {
        // Explicit DCQCN CNPs (if a receiver-side NP is used instead of
        // ACK echoes) take the same cut path, same coalescing.
        if matches!(fb, rocc_sim::cc::FeedbackEvent::DcqcnCnp) {
            let due = self
                .last_cnp
                .is_none_or(|t| ctx.now.saturating_since(t) >= self.p.cnp_interval);
            if due {
                self.last_cnp = Some(ctx.now);
                self.cut_rate(ctx);
            }
        }
    }
}

// `p` and `r_max` are configuration.
rocc_sim::cc_state!(DcqcnHostCc {
    rc, rt, alpha, last_cnp, t_count, bc_count, bytes_since_increase
});

/// Factory for [`DcqcnHostCc`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DcqcnHostCcFactory {
    /// RP parameter overrides.
    pub params: Option<DcqcnParams>,
}

impl rocc_sim::cc::HostCcFactory for DcqcnHostCcFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(DcqcnHostCc::new(
            self.params.unwrap_or_default(),
            link_rate,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocc_sim::packet::IntStack;

    fn ctx_at(us: u64) -> HostCcCtx {
        HostCcCtx {
            now: SimTime::from_micros(us),
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: rocc_sim::telemetry::EventMask::NONE,
        }
    }

    fn marked_ack() -> AckEvent {
        AckEvent {
            newly_acked: 1000,
            cum_seq: 1000,
            rtt: SimDuration::from_micros(10),
            ecn_echo: true,
            int: IntStack::new(),
        }
    }

    #[test]
    fn red_probability_curve() {
        let r = RedParams {
            k_min: 100,
            k_max: 300,
            p_max: 0.2,
        };
        assert_eq!(r.mark_probability(50), 0.0);
        assert_eq!(r.mark_probability(100), 0.0);
        assert!((r.mark_probability(200) - 0.1).abs() < 1e-12);
        assert_eq!(r.mark_probability(300), 1.0);
        assert_eq!(r.mark_probability(1000), 1.0);
    }

    #[test]
    fn red_scales_with_link_rate() {
        let r40 = RedParams::for_link_rate(BitRate::from_gbps(40));
        let r100 = RedParams::for_link_rate(BitRate::from_gbps(100));
        assert!(r100.k_min > r40.k_min);
        assert_eq!(r40.k_min, 40_000);
    }

    #[test]
    fn first_mark_cuts_by_half_alpha() {
        let mut cc = DcqcnHostCc::new(DcqcnParams::default(), BitRate::from_gbps(40));
        let mut c = ctx_at(100);
        cc.on_ack(&mut c, marked_ack());
        // α starts at 1: cut = 1 - 1/2 = 0.5, and the α update
        // (1-g)·1 + g keeps α at its fixed point of 1.
        assert_eq!(cc.decision().rate, BitRate::from_gbps(20));
        assert!((cc.alpha() - 1.0).abs() < 1e-12);
        assert_eq!(c.set_timers.len(), 2, "alpha + increase timers armed");
    }

    #[test]
    fn cnp_coalescing_honors_50us_window() {
        let mut cc = DcqcnHostCc::new(DcqcnParams::default(), BitRate::from_gbps(40));
        let mut c = ctx_at(100);
        cc.on_ack(&mut c, marked_ack());
        let r1 = cc.decision().rate;
        // A second mark 10 µs later is coalesced away.
        let mut c = ctx_at(110);
        cc.on_ack(&mut c, marked_ack());
        assert_eq!(cc.decision().rate, r1);
        // 60 µs later it is honored.
        let mut c = ctx_at(160);
        cc.on_ack(&mut c, marked_ack());
        assert!(cc.decision().rate < r1);
    }

    #[test]
    fn fast_recovery_returns_toward_target() {
        let mut cc = DcqcnHostCc::new(DcqcnParams::default(), BitRate::from_gbps(40));
        let mut c = ctx_at(0);
        cc.on_ack(&mut c, marked_ack()); // Rc=20G, Rt=40G
        for _ in 0..3 {
            let mut c = ctx_at(1000);
            cc.on_timer(&mut c, INCREASE_TOKEN);
        }
        // 20 → 30 → 35 → 37.5 Gb/s.
        assert_eq!(cc.decision().rate, BitRate::from_bps(37_500_000_000));
    }

    #[test]
    fn additive_then_hyper_increase_after_fast_recovery() {
        let p = DcqcnParams::default();
        let mut cc = DcqcnHostCc::new(p, BitRate::from_gbps(40));
        let mut c = ctx_at(0);
        cc.on_ack(&mut c, marked_ack());
        // Exhaust fast recovery (5 rounds), then additive increases lift Rt
        // above the old target.
        for _ in 0..8 {
            let mut c = ctx_at(1000);
            cc.on_timer(&mut c, INCREASE_TOKEN);
        }
        assert!(cc.rt >= BitRate::from_gbps(40).min(cc.r_max));
        // Rate must never exceed line rate.
        assert!(cc.decision().rate <= BitRate::from_gbps(40));
    }

    #[test]
    fn alpha_decays_without_marks() {
        let mut cc = DcqcnHostCc::new(DcqcnParams::default(), BitRate::from_gbps(40));
        let mut c = ctx_at(0);
        cc.on_ack(&mut c, marked_ack());
        let a0 = cc.alpha();
        let mut c = ctx_at(100);
        cc.on_timer(&mut c, ALPHA_TOKEN);
        assert!(cc.alpha() < a0);
        assert_eq!(c.set_timers.len(), 1, "alpha timer re-armed");
    }

    #[test]
    fn rate_floor_respected() {
        let p = DcqcnParams::default();
        let mut cc = DcqcnHostCc::new(p, BitRate::from_gbps(40));
        // Many honored marks in a row.
        for i in 0..100 {
            let mut c = ctx_at(i * 60);
            cc.on_ack(&mut c, marked_ack());
        }
        assert!(cc.decision().rate >= p.r_min);
    }
}
