//! Host-side rate computation (paper §3.6).
//!
//! RoCC does not require the switch to carry out the rate computation: the
//! CP can instead ship its raw queue depth (plus enough identity to pick a
//! parameter profile) and let the host replicate Alg. 1. This flexibility
//! matters on legacy ASICs with no arithmetic in the feedback path.
//!
//! The reaction point here keeps one [`FairRateCalculator`] replica per
//! congestion point it hears from, feeds each queue report into the right
//! replica, and passes each congested replica's rate to the switch-computed
//! mode's own reaction point ([`RoccHostCc`]) as a CNP from that CP — so
//! Alg. 2 arbitration, fast recovery, the declared rate bounds and the
//! RP-transition telemetry are the same code in both modes.

use crate::cp::FairRateCalculator;
use crate::params::{CpParams, RpParams};
use crate::rp::RoccHostCc;
use rocc_sim::cc::{
    CcReader, CcState, CcStateError, FeedbackEvent, HostCc, HostCcCtx, RateDecision,
};
use rocc_sim::prelude::{BitRate, CpId};
use std::collections::HashMap;

/// The "simple registry" of §3.6: map a CP's advertised Fmax to its full
/// parameter profile.
pub fn params_for_f_max(f_max_units: u32) -> CpParams {
    if f_max_units >= 10_000 {
        CpParams::for_100g()
    } else if f_max_units >= 4_000 {
        CpParams::for_40g()
    } else {
        CpParams::for_10g_testbed()
    }
}

/// Reaction point that computes the fair rate locally from CP queue
/// reports (§3.6 mode), then hands each congested replica's rate to an
/// embedded [`RoccHostCc`] as a CNP from that CP.
pub struct HostCalcRoccCc {
    /// Per-CP fair-rate replicas.
    calcs: HashMap<CpId, Replica>,
    /// The standard Alg. 2 reaction point the replicas feed.
    rp: RoccHostCc,
}

impl HostCalcRoccCc {
    /// A fresh flow starts uninstalled (line rate).
    pub fn new(p: RpParams, r_max: BitRate) -> Self {
        HostCalcRoccCc {
            calcs: HashMap::new(),
            rp: RoccHostCc::new(p, r_max),
        }
    }

    /// Number of CP replicas currently tracked (diagnostics).
    pub fn tracked_cps(&self) -> usize {
        self.calcs.len()
    }

    /// True while the rate limiter is installed.
    pub fn is_installed(&self) -> bool {
        self.rp.is_installed()
    }
}

impl HostCc for HostCalcRoccCc {
    fn decision(&self) -> RateDecision {
        self.rp.decision()
    }

    fn on_feedback(&mut self, ctx: &mut HostCcCtx, fb: FeedbackEvent) {
        let FeedbackEvent::RoccQueueReport {
            q_cur_units,
            f_max_units,
            cp,
        } = fb
        else {
            return;
        };
        // Replicate the CP's Alg. 1 locally.
        let Replica(calc) = self.calcs.entry(cp).or_insert_with(|| {
            Replica(FairRateCalculator::new(params_for_f_max(f_max_units)))
        });
        let q_bytes = q_cur_units as u64 * calc.params().delta_q;
        let (fair_rate_units, _) = calc.update(q_bytes);
        if calc.is_congested() {
            // Only a congested CP imposes a limit, as only it sends a CNP.
            let cnp = FeedbackEvent::RoccCnp {
                fair_rate_units,
                cp,
            };
            self.rp.on_feedback(ctx, cnp);
        }
    }

    fn rate_bounds(&self) -> Option<(BitRate, BitRate)> {
        self.rp.rate_bounds()
    }

    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {
        let was_installed = self.rp.is_installed();
        self.rp.on_timer(ctx, token);
        if was_installed && !self.rp.is_installed() {
            // Reports stopped arriving: discard stale replicas so a later
            // congestion episode starts from fresh CP state.
            self.calcs.clear();
        }
    }
}

// The replicas, then the reaction point's words.
rocc_sim::cc_state!(HostCalcRoccCc { calcs, rp });

/// One CP replica. Fmax doubles as the profile key (see
/// [`params_for_f_max`]), so a replica's words are its Fmax and then the
/// calculator's, and restore rebuilds the replica from that Fmax.
struct Replica(FairRateCalculator);

impl Default for Replica {
    fn default() -> Self {
        Replica(FairRateCalculator::new(params_for_f_max(0)))
    }
}

impl CcState for Replica {
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        self.0.params().f_max.snapshot_state(out);
        self.0.snapshot_state(out);
    }

    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        self.0 = FairRateCalculator::new(params_for_f_max(r.get()?));
        self.0.restore_state(r)
    }
}

/// Factory installing [`HostCalcRoccCc`] on every flow.
#[derive(Debug, Clone, Default)]
pub struct HostCalcRoccFactory {
    /// RP parameters.
    pub params: RpParams,
}

impl rocc_sim::cc::HostCcFactory for HostCalcRoccFactory {
    fn make(
        &self,
        _flow: rocc_sim::prelude::FlowId,
        link_rate: BitRate,
    ) -> Box<dyn HostCc> {
        Box::new(HostCalcRoccCc::new(self.params, link_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rp::RECOVERY_TOKEN;
    use rocc_sim::prelude::{NodeId, PortId, SimTime};
    use rocc_sim::telemetry::{CcEvent, EventMask, RpTransitionKind};

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

    fn cp(n: usize) -> CpId {
        CpId {
            node: NodeId(n),
            port: PortId(0),
        }
    }

    fn report(q_units: u32, f_max: u32, c: CpId) -> FeedbackEvent {
        FeedbackEvent::RoccQueueReport {
            q_cur_units: q_units,
            f_max_units: f_max,
            cp: c,
        }
    }

    #[test]
    fn registry_maps_f_max_to_profiles() {
        assert_eq!(params_for_f_max(10_000), CpParams::for_100g());
        assert_eq!(params_for_f_max(4_000), CpParams::for_40g());
        assert_eq!(params_for_f_max(1_000), CpParams::for_10g_testbed());
    }

    #[test]
    fn deep_queue_report_installs_md_rate() {
        let mut cc = HostCalcRoccCc::new(RpParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        // Queue above Qmax (600 ΔQ units for 40G): local MD slams to Fmin.
        cc.on_feedback(&mut c, report(700, 4000, cp(1)));
        assert!(cc.is_installed());
        assert_eq!(cc.decision().rate, BitRate::from_mbps(100)); // Fmin
        assert_eq!(cc.tracked_cps(), 1);
    }

    #[test]
    fn replica_matches_switch_computation() {
        // Feeding the same queue trajectory into the host replica and into
        // a directly-driven calculator produces identical rates.
        let mut direct = FairRateCalculator::new(CpParams::for_40g());
        let mut cc = HostCalcRoccCc::new(RpParams::default(), BitRate::from_gbps(40));
        let trajectory = [700u32, 400, 300, 260, 250, 250, 240, 255, 250];
        for q in trajectory {
            let (expect, _) = direct.update(q as u64 * 600);
            let mut c = ctx();
            cc.on_feedback(&mut c, report(q, 4000, cp(1)));
            if direct.is_congested() {
                let expect_rate = BitRate::from_mbps(10).scale(expect as f64);
                assert_eq!(cc.decision().rate, expect_rate, "at q = {q}");
            }
        }
    }

    #[test]
    fn multi_cp_arbitration_still_applies() {
        let mut cc = HostCalcRoccCc::new(RpParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        // CP 1 congested mildly; its replica computes some rate R1.
        cc.on_feedback(&mut c, report(400, 4000, cp(1)));
        let r1 = cc.decision().rate;
        // CP 2 reports a much deeper queue: its MD rate is lower → accepted.
        cc.on_feedback(&mut c, report(700, 4000, cp(2)));
        assert!(cc.decision().rate < r1);
        assert_eq!(cc.tracked_cps(), 2);
    }

    #[test]
    fn uncongested_reports_do_not_install() {
        let mut cc = HostCalcRoccCc::new(RpParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        cc.on_feedback(&mut c, report(0, 4000, cp(1)));
        assert!(!cc.is_installed(), "empty queue must not throttle");
    }

    #[test]
    fn recovery_clears_replicas() {
        let mut cc = HostCalcRoccCc::new(RpParams::default(), BitRate::from_gbps(40));
        let mut c = ctx();
        cc.on_feedback(&mut c, report(700, 4000, cp(1)));
        assert!(cc.is_installed());
        for _ in 0..16 {
            let mut c = ctx();
            cc.on_timer(&mut c, RECOVERY_TOKEN);
            if !cc.is_installed() {
                break;
            }
        }
        assert!(!cc.is_installed());
        assert_eq!(cc.tracked_cps(), 0, "stale replicas must be dropped");
    }

    /// §3.6 mode is the switch-computed RP behind local replicas, so it
    /// declares the same rate bounds for the sanitizer and reports the
    /// same Alg. 2 transitions.
    #[test]
    fn declares_bounds_and_reports_rp_transitions() {
        let mut cc = HostCalcRoccCc::new(RpParams::default(), BitRate::from_gbps(40));
        assert_eq!(
            cc.rate_bounds(),
            Some((BitRate::ZERO, BitRate::from_gbps(40)))
        );
        let mut c = ctx();
        c.event_mask = EventMask::RP_TRANSITION;
        cc.on_feedback(&mut c, report(700, 4000, cp(1)));
        cc.on_feedback(&mut c, report(700, 4000, cp(2)));
        cc.on_timer(&mut c, RECOVERY_TOKEN);
        let kinds: Vec<RpTransitionKind> = c
            .events
            .iter()
            .map(|e| match e {
                CcEvent::RpTransition { kind, .. } => *kind,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                RpTransitionKind::Install,
                RpTransitionKind::CpSwitch,
                RpTransitionKind::RecoveryDouble
            ]
        );
    }
}
