//! DCQCN+PI (Zhu et al., "ECN or Delay", CoNEXT '16): DCQCN with the
//! switch's RED curve replaced by a PI-controlled marking probability, the
//! enhancement whose improved stability the RoCC paper cites as evidence
//! for PI control at the switch (§6.1).
//!
//! The marking probability follows the PIE-style update
//! `p ← p + a·(q − q_ref) + b·(q − q_old)` every update interval; data
//! packets are then marked with probability `p` at enqueue. The RP is the
//! unmodified DCQCN reaction point.

use rand::Rng;
use rocc_sim::cc::{PacketMeta, SwitchCc, SwitchCcCtx, SwitchCcFactory};
use rocc_sim::prelude::{BitRate, CpId, SimDuration};

/// PI marking parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiMarkingParams {
    /// Reference queue depth (bytes).
    pub q_ref: u64,
    /// Proportional gain per byte of queue error.
    pub a: f64,
    /// Derivative-ish gain per byte of queue change.
    pub b: f64,
    /// Probability update interval.
    pub update_interval: SimDuration,
}

impl PiMarkingParams {
    /// Gains scaled to the egress line rate: queue error in
    /// bandwidth-delay-product units keeps loop gain comparable across
    /// speeds.
    pub fn for_link_rate(rate: BitRate) -> Self {
        let gbps = rate.as_bps() as f64 / 1e9;
        let scale = 40.0 / gbps; // higher rate → larger queues → smaller gain
        PiMarkingParams {
            q_ref: (50_000.0 * gbps / 40.0) as u64,
            a: 1.0e-7 * scale,
            b: 5.0e-7 * scale,
            update_interval: SimDuration::from_micros(40),
        }
    }
}

/// PI-driven ECN marking for one egress port.
pub struct PiMarkingSwitchCc {
    p: PiMarkingParams,
    prob: f64,
    q_old: u64,
}

impl PiMarkingSwitchCc {
    /// Start unmarked.
    pub fn new(p: PiMarkingParams) -> Self {
        PiMarkingSwitchCc {
            p,
            prob: 0.0,
            q_old: 0,
        }
    }

    /// Current marking probability (tests/diagnostics).
    pub fn probability(&self) -> f64 {
        self.prob
    }
}

impl SwitchCc for PiMarkingSwitchCc {
    fn timer_period(&self) -> Option<SimDuration> {
        Some(self.p.update_interval)
    }

    fn on_timer(&mut self, ctx: &mut SwitchCcCtx<'_>) {
        let q = ctx.qlen_bytes;
        let err = q as f64 - self.p.q_ref as f64;
        let delta = q as f64 - self.q_old as f64;
        self.prob = (self.prob + self.p.a * err + self.p.b * delta).clamp(0.0, 1.0);
        self.q_old = q;
    }

    fn on_enqueue(&mut self, ctx: &mut SwitchCcCtx<'_>, _pkt: PacketMeta) -> bool {
        self.prob > 0.0 && ctx.rng.gen::<f64>() < self.prob
    }
}

// `p` is configuration.
rocc_sim::cc_state!(PiMarkingSwitchCc { prob, q_old });

/// Factory for [`PiMarkingSwitchCc`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PiMarkingSwitchCcFactory {
    /// Parameter override applied to every port.
    pub params_override: Option<PiMarkingParams>,
}

impl SwitchCcFactory for PiMarkingSwitchCcFactory {
    fn make(&self, _cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc> {
        let p = self
            .params_override
            .unwrap_or_else(|| PiMarkingParams::for_link_rate(link_rate));
        Box::new(PiMarkingSwitchCc::new(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rocc_sim::prelude::{FlowId, NodeId, PortId, SimTime};

    fn ctx<'a>(rng: &'a mut rand::rngs::StdRng, qlen: u64) -> SwitchCcCtx<'a> {
        SwitchCcCtx {
            now: SimTime::ZERO,
            cp: CpId {
                node: NodeId(0),
                port: PortId(0),
            },
            qlen_bytes: qlen,
            link_rate: BitRate::from_gbps(40),
            tx_bytes: 0,
            rng,
            emits: Vec::new(),
            events: Vec::new(),
            event_mask: rocc_sim::telemetry::EventMask::NONE,
        }
    }

    #[test]
    fn probability_rises_with_standing_queue() {
        let mut cc = PiMarkingSwitchCc::new(PiMarkingParams::for_link_rate(
            BitRate::from_gbps(40),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut c = ctx(&mut rng, 200_000); // well above q_ref
            cc.on_timer(&mut c);
        }
        assert!(cc.probability() > 0.0);
    }

    #[test]
    fn probability_falls_when_queue_empties() {
        let mut cc = PiMarkingSwitchCc::new(PiMarkingParams::for_link_rate(
            BitRate::from_gbps(40),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let mut c = ctx(&mut rng, 300_000);
            cc.on_timer(&mut c);
        }
        let high = cc.probability();
        for _ in 0..50 {
            let mut c = ctx(&mut rng, 0);
            cc.on_timer(&mut c);
        }
        assert!(cc.probability() < high);
    }

    #[test]
    fn probability_stays_in_unit_interval() {
        let mut cc = PiMarkingSwitchCc::new(PiMarkingParams::for_link_rate(
            BitRate::from_gbps(40),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for q in [0u64, 10_000_000, 0, 10_000_000, 0] {
            for _ in 0..100 {
                let mut c = ctx(&mut rng, q);
                cc.on_timer(&mut c);
                assert!((0.0..=1.0).contains(&cc.probability()));
            }
        }
    }

    #[test]
    fn zero_probability_never_marks() {
        let mut cc = PiMarkingSwitchCc::new(PiMarkingParams::for_link_rate(
            BitRate::from_gbps(40),
        ));
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let meta = PacketMeta {
            flow: FlowId(0),
            src: NodeId(0),
            wire_bytes: 1048,
        };
        for _ in 0..100 {
            let mut c = ctx(&mut rng, 0);
            assert!(!cc.on_enqueue(&mut c, meta));
        }
    }
}
