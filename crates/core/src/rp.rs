//! The reaction point: per-flow rate limiting at the source (paper Alg. 2).
//!
//! Two rules make multi-bottleneck fairness fall out for free:
//!
//! * **CNP arbitration** — a received rate is accepted iff it came from the
//!   same CP as the last accepted CNP, *or* it is ≤ the current rate. The
//!   rate limiter therefore always follows the most congested CP on the
//!   flow's path (fair, §3.5).
//! * **Fast recovery** — if no CNP is accepted for a timer period, the rate
//!   doubles; once it exceeds Rmax the limiter uninstalls and the flow
//!   transmits as if uncongested (eff).

use crate::params::RpParams;
use rocc_sim::cc::{FeedbackEvent, HostCc, HostCcCtx, RateDecision};
use rocc_sim::prelude::{BitRate, CpId};
use rocc_sim::telemetry::{CcEvent, EventMask, RpTransitionKind};

/// Timer token used for fast recovery.
pub const RECOVERY_TOKEN: u8 = 0;

/// RoCC's per-flow reaction point.
#[derive(Debug)]
pub struct RoccHostCc {
    p: RpParams,
    /// Maximum send rate (NIC line rate).
    r_max: BitRate,
    /// Current sending rate Rcur (meaningful while installed).
    r_cur: BitRate,
    /// CP that generated the last accepted CNP.
    cp_cur: Option<CpId>,
    /// True while the rate limiter is installed.
    installed: bool,
}

impl RoccHostCc {
    /// A fresh flow starts uninstalled (line rate).
    pub fn new(p: RpParams, r_max: BitRate) -> Self {
        RoccHostCc {
            p,
            r_max,
            r_cur: r_max,
            cp_cur: None,
            installed: false,
        }
    }

    /// True while the rate limiter is installed.
    pub fn is_installed(&self) -> bool {
        self.installed
    }

    /// Current CP being followed (diagnostics).
    pub fn current_cp(&self) -> Option<CpId> {
        self.cp_cur
    }

    /// Current raw Rcur (may exceed Rmax mid-recovery; diagnostics).
    pub fn r_cur(&self) -> BitRate {
        self.r_cur
    }
}

impl HostCc for RoccHostCc {
    fn decision(&self) -> RateDecision {
        if self.installed {
            RateDecision::line_rate(self.r_cur.min(self.r_max))
        } else {
            RateDecision::line_rate(self.r_max)
        }
    }

    fn on_feedback(&mut self, ctx: &mut HostCcCtx, fb: FeedbackEvent) {
        let FeedbackEvent::RoccCnp {
            fair_rate_units,
            cp,
        } = fb
        else {
            return; // not ours (mixed-scheme runs)
        };
        let r_rcvd = BitRate::from_bps(self.p.delta_f.as_bps() * fair_rate_units as u64);
        // Alg. 2 line 4: accept iff same CP, or the rate is not an increase.
        let accept = !self.installed
            || r_rcvd <= self.r_cur
            || self.cp_cur == Some(cp);
        if accept {
            // Classify before mutating: install vs. CP switch vs. a plain
            // rate update from the CP already being followed.
            let kind = if !self.installed {
                RpTransitionKind::Install
            } else if self.cp_cur != Some(cp) {
                RpTransitionKind::CpSwitch
            } else {
                RpTransitionKind::RateUpdate
            };
            self.r_cur = r_rcvd;
            self.cp_cur = Some(cp);
            self.installed = true;
            // Accepting a CNP (re)arms — i.e. resets — the recovery timer.
            ctx.set_timer(RECOVERY_TOKEN, self.p.recovery_timer);
            if ctx.wants(EventMask::RP_TRANSITION) {
                ctx.events.push(CcEvent::RpTransition {
                    kind,
                    rate_bps: self.r_cur.as_bps(),
                    cp: self.cp_cur,
                });
            }
        }
    }

    /// RoCC's RP never pushes a flow above the NIC line rate —
    /// [`RoccHostCc::decision`] caps at `Rmax` even mid-recovery — and the
    /// fair rate floors at zero. The sanitizer audits this promise.
    fn rate_bounds(&self) -> Option<(BitRate, BitRate)> {
        Some((BitRate::ZERO, self.r_max))
    }

    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {
        if token != RECOVERY_TOKEN || !self.installed {
            return;
        }
        if self.r_cur > self.r_max {
            // Alg. 2 lines 9–10: the limiter has recovered past line rate;
            // uninstall so the flow transmits as without congestion.
            self.installed = false;
            self.cp_cur = None;
            self.r_cur = self.r_max;
            if ctx.wants(EventMask::RP_TRANSITION) {
                ctx.events.push(CcEvent::RpTransition {
                    kind: RpTransitionKind::Uninstall,
                    rate_bps: self.r_cur.as_bps(),
                    cp: None,
                });
            }
            return;
        }
        // Alg. 2 line 12: exponential recovery. A CNP may legitimately carry
        // a fair rate of zero (f(Qcur) floors at 0 under severe congestion);
        // doubling zero never makes progress, so recovery restarts from one
        // ΔF unit instead — otherwise a flow that accepted a zero-rate CNP
        // just before a CNP blackout would stay frozen at zero forever.
        self.r_cur = if self.r_cur == BitRate::ZERO {
            self.p.delta_f
        } else {
            self.r_cur.saturating_double()
        };
        ctx.set_timer(RECOVERY_TOKEN, self.p.recovery_timer);
        if ctx.wants(EventMask::RP_TRANSITION) {
            ctx.events.push(CcEvent::RpTransition {
                kind: RpTransitionKind::RecoveryDouble,
                rate_bps: self.r_cur.as_bps(),
                cp: self.cp_cur,
            });
        }
    }
}

// `p` and `r_max` are configuration.
rocc_sim::cc_state!(RoccHostCc { r_cur, installed, cp_cur });

/// Factory installing [`RoccHostCc`] on every flow.
#[derive(Debug, Clone, Default)]
pub struct RoccHostCcFactory {
    /// RP parameters (ΔF, recovery timer).
    pub params: RpParams,
}

impl RoccHostCcFactory {
    /// Paper-default factory.
    pub fn new() -> Self {
        Self::default()
    }
}

impl rocc_sim::cc::HostCcFactory for RoccHostCcFactory {
    fn make(
        &self,
        _flow: rocc_sim::prelude::FlowId,
        link_rate: BitRate,
    ) -> Box<dyn HostCc> {
        Box::new(RoccHostCc::new(self.params, link_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocc_sim::prelude::{NodeId, PortId, SimDuration, SimTime};

    fn ctx() -> HostCcCtx {
        HostCcCtx {
            now: SimTime::ZERO,
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: EventMask::ALL,
        }
    }

    fn cp(n: usize) -> CpId {
        CpId {
            node: NodeId(n),
            port: PortId(0),
        }
    }

    fn cnp(units: u32, c: CpId) -> FeedbackEvent {
        FeedbackEvent::RoccCnp {
            fair_rate_units: units,
            cp: c,
        }
    }

    fn rp() -> RoccHostCc {
        RoccHostCc::new(RpParams::default(), BitRate::from_gbps(40))
    }

    #[test]
    fn starts_uninstalled_at_line_rate() {
        let r = rp();
        assert!(!r.is_installed());
        assert_eq!(r.decision().rate, BitRate::from_gbps(40));
    }

    #[test]
    fn first_cnp_installs_and_sets_rate() {
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(400, cp(1))); // 4 Gb/s
        assert!(r.is_installed());
        assert_eq!(r.decision().rate, BitRate::from_gbps(4));
        assert_eq!(r.current_cp(), Some(cp(1)));
        assert_eq!(c.set_timers.len(), 1, "recovery timer armed");
    }

    #[test]
    fn lower_rate_from_other_cp_accepted() {
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(400, cp(1)));
        r.on_feedback(&mut c, cnp(200, cp(2))); // 2 Gb/s < 4 Gb/s
        assert_eq!(r.decision().rate, BitRate::from_gbps(2));
        assert_eq!(r.current_cp(), Some(cp(2)));
    }

    #[test]
    fn higher_rate_from_other_cp_rejected() {
        // The most congested CP on the path rules (multi-bottleneck, fair).
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(200, cp(1)));
        r.on_feedback(&mut c, cnp(800, cp(2))); // increase from a stranger CP
        assert_eq!(r.decision().rate, BitRate::from_gbps(2));
        assert_eq!(r.current_cp(), Some(cp(1)));
    }

    #[test]
    fn higher_rate_from_same_cp_accepted() {
        // The bottleneck relaxing must let the flow speed up immediately.
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(200, cp(1)));
        r.on_feedback(&mut c, cnp(800, cp(1)));
        assert_eq!(r.decision().rate, BitRate::from_gbps(8));
    }

    #[test]
    fn fast_recovery_doubles_until_uninstall() {
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(1000, cp(1))); // 10 Gb/s on a 40G NIC
        let mut rates = Vec::new();
        for _ in 0..4 {
            let mut c = ctx();
            r.on_timer(&mut c, RECOVERY_TOKEN);
            rates.push(r.r_cur());
        }
        assert_eq!(
            rates,
            vec![
                BitRate::from_gbps(20),
                BitRate::from_gbps(40),
                BitRate::from_gbps(80), // exceeds Rmax...
                BitRate::from_gbps(40), // ...next expiry uninstalls
            ]
        );
        assert!(!r.is_installed());
        assert_eq!(r.decision().rate, BitRate::from_gbps(40));
    }

    #[test]
    fn decision_caps_at_line_rate_mid_recovery() {
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(3000, cp(1))); // 30 Gb/s
        let mut c = ctx();
        r.on_timer(&mut c, RECOVERY_TOKEN); // 60 Gb/s internally
        assert!(r.is_installed());
        assert_eq!(r.decision().rate, BitRate::from_gbps(40), "capped at Rmax");
    }

    #[test]
    fn recovery_escapes_zero_rate() {
        // A zero-rate CNP followed by total CNP loss must not freeze the
        // flow: recovery restarts from one ΔF unit and still uninstalls
        // within a bounded number of periods.
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(0, cp(1)));
        assert!(r.is_installed());
        assert_eq!(r.r_cur(), BitRate::ZERO);
        let mut periods = 0;
        while r.is_installed() {
            let mut c = ctx();
            r.on_timer(&mut c, RECOVERY_TOKEN);
            periods += 1;
            assert!(periods <= 64, "recovery failed to terminate");
        }
        assert_eq!(r.decision().rate, BitRate::from_gbps(40));
        // First period escapes zero; the rest double: ΔF · 2^(k-1) > Rmax.
        assert!(periods >= 2);
    }

    #[test]
    fn reinstalls_after_uninstall() {
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(4000, cp(1)));
        // Recover all the way out.
        for _ in 0..3 {
            let mut c = ctx();
            r.on_timer(&mut c, RECOVERY_TOKEN);
        }
        assert!(!r.is_installed());
        // New congestion: a CNP reinstalls.
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(100, cp(3)));
        assert!(r.is_installed());
        assert_eq!(r.decision().rate, BitRate::from_gbps(1));
    }

    #[test]
    fn foreign_feedback_ignored() {
        let mut r = rp();
        let mut c = ctx();
        r.on_feedback(&mut c, FeedbackEvent::DcqcnCnp);
        assert!(!r.is_installed());
    }

    #[test]
    fn timer_when_uninstalled_is_noop() {
        let mut r = rp();
        let mut c = ctx();
        r.on_timer(&mut c, RECOVERY_TOKEN);
        assert!(!r.is_installed());
        assert!(c.set_timers.is_empty());
    }

    #[test]
    fn declared_rate_bounds_hold_through_recovery() {
        let mut r = rp();
        let (lo, hi) = r.rate_bounds().expect("RoCC RP declares bounds");
        assert_eq!((lo, hi), (BitRate::ZERO, BitRate::from_gbps(40)));
        let mut c = ctx();
        r.on_feedback(&mut c, cnp(3000, cp(1)));
        for _ in 0..6 {
            let mut c = ctx();
            r.on_timer(&mut c, RECOVERY_TOKEN);
            let rate = r.decision().rate;
            assert!(rate >= lo && rate <= hi, "decision {rate:?} out of bounds");
        }
    }

    #[test]
    fn default_recovery_period() {
        assert_eq!(
            RpParams::default().recovery_timer,
            SimDuration::from_micros(100)
        );
    }
}
