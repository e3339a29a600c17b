//! QCN (IEEE 802.1Qau, Alizadeh et al. 2008) — the layer-2 switch-driven
//! ancestor RoCC adapts its multi-bit feedback idea from.
//!
//! * **CP (switch)**: samples roughly every `sample_bytes` of arriving
//!   data; on each sample computes `Fb = −(Qoff + w·Qδ)` where
//!   `Qoff = q − Qeq` and `Qδ = q − q_old`; when `Fb < 0` (congestion), the
//!   quantized |Fb| (6 bits) is sent to the source of the sampled packet.
//! * **RP (source)**: on feedback, multiplicative decrease
//!   `Rc ← Rc·(1 − Gd·Fb)`; recovery via byte-counter/timer-staged fast
//!   recovery (`Rc ← (Rt+Rc)/2`) then additive increase, exactly the state
//!   machine DCQCN later borrowed.

use rocc_sim::cc::{
    AckEvent, CtrlEmit, FeedbackEvent, HostCc, HostCcCtx, PacketMeta, RateDecision, SwitchCc,
    SwitchCcCtx, SwitchCcFactory,
};
use rocc_sim::prelude::{BitRate, CpId, FlowId, PacketKind, SimDuration};

/// CP parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcnCpParams {
    /// Equilibrium queue depth Qeq (bytes).
    pub q_eq: u64,
    /// Weight w on the queue-change term.
    pub w: f64,
    /// Bytes of data between samples.
    pub sample_bytes: u64,
    /// Quantization scale: |Fb| is clipped to `0..=63` after dividing by
    /// this many bytes per unit.
    pub fb_unit_bytes: u64,
}

impl QcnCpParams {
    /// Parameters scaled to the egress line rate.
    pub fn for_link_rate(rate: BitRate) -> Self {
        let scale = (rate.as_bps() as f64 / 40e9).max(0.25);
        QcnCpParams {
            q_eq: (150_000.0 * scale) as u64,
            w: 2.0,
            sample_bytes: 150_000,
            fb_unit_bytes: (12_000.0 * scale) as u64,
        }
    }
}

/// QCN congestion point for one egress port.
pub struct QcnSwitchCc {
    p: QcnCpParams,
    cp: CpId,
    q_old: u64,
    bytes_until_sample: u64,
}

impl QcnSwitchCc {
    /// Build a CP.
    pub fn new(cp: CpId, p: QcnCpParams) -> Self {
        QcnSwitchCc {
            bytes_until_sample: p.sample_bytes,
            p,
            cp,
            q_old: 0,
        }
    }

    /// Compute the quantized feedback for queue state; `None` when not
    /// congested (Fb would be ≥ 0).
    fn feedback(&mut self, q: u64) -> Option<u8> {
        let q_off = q as f64 - self.p.q_eq as f64;
        let q_delta = q as f64 - self.q_old as f64;
        self.q_old = q;
        let fb = -(q_off + self.p.w * q_delta);
        if fb >= 0.0 {
            return None;
        }
        let units = (-fb / self.p.fb_unit_bytes as f64).ceil();
        Some(units.clamp(1.0, 63.0) as u8)
    }
}

impl SwitchCc for QcnSwitchCc {
    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> bool {
        self.bytes_until_sample = self.bytes_until_sample.saturating_sub(pkt.wire_bytes);
        if self.bytes_until_sample == 0 {
            self.bytes_until_sample = self.p.sample_bytes;
            if let Some(fb) = self.feedback(ctx.qlen_bytes) {
                ctx.emits.push(CtrlEmit {
                    flow: pkt.flow,
                    to: pkt.src,
                    kind: PacketKind::QcnFb { fb, cp: self.cp },
                });
            }
        }
        false // QCN does not use ECN
    }
}

// `p` and `cp` are configuration.
rocc_sim::cc_state!(QcnSwitchCc { q_old, bytes_until_sample });

/// Factory for [`QcnSwitchCc`].
#[derive(Debug, Default, Clone, Copy)]
pub struct QcnSwitchCcFactory {
    /// Parameter override applied to every port.
    pub params_override: Option<QcnCpParams>,
}

impl SwitchCcFactory for QcnSwitchCcFactory {
    fn make(&self, cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc> {
        let p = self
            .params_override
            .unwrap_or_else(|| QcnCpParams::for_link_rate(link_rate));
        Box::new(QcnSwitchCc::new(cp, p))
    }
}

/// RP parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcnRpParams {
    /// Multiplicative-decrease gain Gd (standard: 1/128 so Gd·Fbmax ≈ 1/2).
    pub gd: f64,
    /// Bytes per fast-recovery/active-increase stage.
    pub stage_bytes: u64,
    /// Stage timer for low-rate flows.
    pub stage_timer: SimDuration,
    /// Fast-recovery rounds before additive increase.
    pub fast_recovery_rounds: u32,
    /// Additive increase step.
    pub r_ai: BitRate,
    /// Minimum rate floor.
    pub r_min: BitRate,
}

impl Default for QcnRpParams {
    fn default() -> Self {
        QcnRpParams {
            gd: 1.0 / 128.0,
            stage_bytes: 150_000,
            stage_timer: SimDuration::from_micros(500),
            fast_recovery_rounds: 5,
            r_ai: BitRate::from_mbps(50),
            r_min: BitRate::from_mbps(40),
        }
    }
}

const STAGE_TOKEN: u8 = 0;

/// QCN's per-flow reaction point.
pub struct QcnHostCc {
    p: QcnRpParams,
    r_max: BitRate,
    rc: BitRate,
    rt: BitRate,
    stage: u32,
    bytes_in_stage: u64,
}

impl QcnHostCc {
    /// New flow at line rate.
    pub fn new(p: QcnRpParams, r_max: BitRate) -> Self {
        QcnHostCc {
            p,
            r_max,
            rc: r_max,
            rt: r_max,
            stage: 0,
            bytes_in_stage: 0,
        }
    }

    fn stage_event(&mut self) {
        self.stage += 1;
        if self.stage > self.p.fast_recovery_rounds {
            self.rt = (self.rt + self.p.r_ai).min(self.r_max);
        }
        self.rc = BitRate::from_bps((self.rc.as_bps() + self.rt.as_bps()) / 2).min(self.r_max);
    }
}

impl HostCc for QcnHostCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rc.min(self.r_max))
    }

    fn on_feedback(&mut self, ctx: &mut HostCcCtx, fb: FeedbackEvent) {
        let FeedbackEvent::QcnFb { fb, .. } = fb else {
            return;
        };
        self.rt = self.rc;
        self.rc = self
            .rc
            .scale(1.0 - self.p.gd * fb as f64)
            .max(self.p.r_min);
        self.stage = 0;
        self.bytes_in_stage = 0;
        ctx.set_timer(STAGE_TOKEN, self.p.stage_timer);
    }

    fn on_ack(&mut self, ctx: &mut HostCcCtx, ack: AckEvent) {
        self.bytes_in_stage += ack.newly_acked;
        if self.bytes_in_stage >= self.p.stage_bytes {
            self.bytes_in_stage = 0;
            self.stage_event();
            ctx.set_timer(STAGE_TOKEN, self.p.stage_timer);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {
        if token == STAGE_TOKEN {
            self.stage_event();
            ctx.set_timer(STAGE_TOKEN, self.p.stage_timer);
        }
    }
}

// `p` and `r_max` are configuration.
rocc_sim::cc_state!(QcnHostCc { rc, rt, stage, bytes_in_stage });

/// Factory for [`QcnHostCc`].
#[derive(Debug, Clone, Copy, Default)]
pub struct QcnHostCcFactory {
    /// RP parameter override.
    pub params: Option<QcnRpParams>,
}

impl rocc_sim::cc::HostCcFactory for QcnHostCcFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(QcnHostCc::new(self.params.unwrap_or_default(), link_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocc_sim::prelude::{NodeId, PortId, SimTime};

    fn cp() -> CpId {
        CpId {
            node: NodeId(0),
            port: PortId(0),
        }
    }

    fn ctx() -> HostCcCtx {
        HostCcCtx {
            now: SimTime::ZERO,
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: rocc_sim::telemetry::EventMask::NONE,
        }
    }

    #[test]
    fn cp_feedback_sign_and_quantization() {
        let p = QcnCpParams::for_link_rate(BitRate::from_gbps(40));
        let mut cc = QcnSwitchCc::new(cp(), p);
        // Queue at equilibrium, no growth → no feedback.
        cc.q_old = p.q_eq;
        assert_eq!(cc.feedback(p.q_eq), None);
        // Deep, growing queue → strong feedback, clipped at 63.
        cc.q_old = 0;
        let fb = cc.feedback(10_000_000).unwrap();
        assert_eq!(fb, 63);
        // Mildly above equilibrium and not growing → small feedback.
        cc.q_old = p.q_eq + 2 * p.fb_unit_bytes;
        let fb = cc.feedback(p.q_eq + 2 * p.fb_unit_bytes).unwrap();
        assert!((1..10).contains(&fb), "fb = {fb}");
    }

    #[test]
    fn cp_samples_by_bytes() {
        let p = QcnCpParams {
            q_eq: 1000,
            w: 2.0,
            sample_bytes: 3000,
            fb_unit_bytes: 100,
        };
        let mut cc = QcnSwitchCc::new(cp(), p);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let meta = PacketMeta {
            flow: FlowId(9),
            src: NodeId(4),
            wire_bytes: 1048,
        };
        let mut emitted = 0;
        for _ in 0..12 {
            let mut c = SwitchCcCtx {
                now: SimTime::ZERO,
                cp: cp(),
                qlen_bytes: 50_000, // deeply congested
                link_rate: BitRate::from_gbps(40),
                tx_bytes: 0,
                rng: &mut rng,
                emits: Vec::new(),
                events: Vec::new(),
                event_mask: rocc_sim::telemetry::EventMask::NONE,
            };
            cc.on_enqueue(&mut c, meta);
            emitted += c.emits.len();
        }
        // 12 packets ≈ 12.5 KB → 4 samples of 3 KB.
        assert_eq!(emitted, 4);
    }

    #[test]
    fn rp_cuts_proportionally_to_fb() {
        let mut cc = QcnHostCc::new(QcnRpParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        cc.on_feedback(
            &mut c,
            FeedbackEvent::QcnFb {
                fb: 64 / 2, // Gd·Fb = 32/128 = 1/4
                cp: cp(),
            },
        );
        assert_eq!(cc.decision().rate, BitRate::from_gbps(30));
    }

    #[test]
    fn rp_fast_recovery_then_additive() {
        let p = QcnRpParams::default();
        let mut cc = QcnHostCc::new(p, BitRate::from_gbps(40));
        // Two cuts so the recovery target Rt sits below line rate.
        for _ in 0..2 {
            let mut c = ctx();
            cc.on_feedback(&mut c, FeedbackEvent::QcnFb { fb: 63, cp: cp() });
        }
        let after_cut = cc.decision().rate;
        for _ in 0..p.fast_recovery_rounds {
            let mut c = ctx();
            cc.on_timer(&mut c, STAGE_TOKEN);
        }
        // Fast recovery converges back toward the pre-cut target.
        let recovered = cc.decision().rate;
        assert!(recovered > after_cut);
        // Additive stage now lifts the target itself.
        let rt_before = cc.rt;
        let mut c = ctx();
        cc.on_timer(&mut c, STAGE_TOKEN);
        assert!(cc.rt > rt_before);
    }

    #[test]
    fn rp_floor() {
        let p = QcnRpParams::default();
        let mut cc = QcnHostCc::new(p, BitRate::from_gbps(40));
        for _ in 0..64 {
            let mut c = ctx();
            cc.on_feedback(&mut c, FeedbackEvent::QcnFb { fb: 63, cp: cp() });
        }
        assert!(cc.decision().rate >= p.r_min);
    }
}
