//! TIMELY (Mittal et al., SIGCOMM '15) — RTT-gradient congestion control,
//! the delay-based baseline in the RoCC comparison.
//!
//! The sender measures per-segment RTTs (hardware-timestamped ACKs in the
//! original; echoed send timestamps here), keeps an EWMA of the RTT
//! *gradient*, and:
//!
//! * below `t_low` — additively increases (RTT noise ignored),
//! * above `t_high` — multiplicatively decreases proportional to how far
//!   RTT exceeds the ceiling,
//! * otherwise — increases additively on a non-positive gradient
//!   (hyperactively after several consecutive ones) and decreases
//!   multiplicatively on a positive gradient.
//!
//! Updates are applied once per completed segment (`seg_bytes`), as in the
//! original's per-burst operation. Thresholds default to values scaled for
//! this simulator's microsecond-scale fabric RTTs.

use rocc_sim::cc::{AckEvent, HostCc, HostCcCtx, RateDecision};
use rocc_sim::prelude::{BitRate, FlowId, SimDuration};

/// TIMELY parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelyParams {
    /// EWMA weight for the RTT-difference filter (paper: α = 0.875 retain).
    pub ewma_alpha: f64,
    /// Multiplicative-decrease factor β.
    pub beta: f64,
    /// Additive increase step δ.
    pub delta: BitRate,
    /// RTT floor: below this, always increase.
    pub t_low: SimDuration,
    /// RTT ceiling: above this, always decrease.
    pub t_high: SimDuration,
    /// Minimum network RTT used to normalize the gradient.
    pub min_rtt: SimDuration,
    /// Consecutive non-positive gradients before hyper-increase.
    pub hai_threshold: u32,
    /// Segment size per CC update.
    pub seg_bytes: u64,
    /// Rate floor.
    pub r_min: BitRate,
    /// Use the "patched TIMELY" update of Zhu et al. (CoNEXT '16): in the
    /// mid band, steer on the *absolute* RTT against a target instead of
    /// the gradient. The patch gives the loop a unique fixed point (the
    /// original's gradient null-cline leaves the standing queue
    /// undetermined), at the cost of needing a calibrated target.
    pub patched: bool,
    /// RTT target for the patched update (used when `patched`).
    pub t_target: SimDuration,
}

impl Default for TimelyParams {
    fn default() -> Self {
        TimelyParams {
            ewma_alpha: 0.3,
            beta: 0.8,
            delta: BitRate::from_mbps(50),
            t_low: SimDuration::from_micros(20),
            t_high: SimDuration::from_micros(200),
            min_rtt: SimDuration::from_micros(20),
            hai_threshold: 5,
            seg_bytes: 8_000,
            r_min: BitRate::from_mbps(500),
            patched: false,
            t_target: SimDuration::from_micros(60),
        }
    }
}

impl TimelyParams {
    /// The patched variant with defaults.
    pub fn patched() -> Self {
        TimelyParams {
            patched: true,
            ..Default::default()
        }
    }
}

/// TIMELY's per-flow rate computation.
pub struct TimelyHostCc {
    p: TimelyParams,
    r_max: BitRate,
    rate: BitRate,
    prev_rtt: Option<SimDuration>,
    /// EWMA of consecutive RTT differences (ns).
    rtt_diff_ns: f64,
    neg_gradient_streak: u32,
    bytes_since_update: u64,
}

impl TimelyHostCc {
    /// New flow at line rate (TIMELY starts at line rate).
    pub fn new(p: TimelyParams, r_max: BitRate) -> Self {
        TimelyHostCc {
            p,
            r_max,
            rate: r_max,
            prev_rtt: None,
            rtt_diff_ns: 0.0,
            neg_gradient_streak: 0,
            bytes_since_update: 0,
        }
    }

    /// Current rate (tests).
    pub fn rate(&self) -> BitRate {
        self.rate
    }

    /// Apply one TIMELY update for a completed segment with RTT `rtt`.
    fn update(&mut self, rtt: SimDuration) {
        let new_rtt_ns = rtt.as_nanos() as f64;
        let prev = self.prev_rtt.replace(rtt);
        let diff = match prev {
            Some(p) => new_rtt_ns - p.as_nanos() as f64,
            None => 0.0,
        };
        let a = self.p.ewma_alpha;
        self.rtt_diff_ns = (1.0 - a) * self.rtt_diff_ns + a * diff;
        let norm_gradient = self.rtt_diff_ns / self.p.min_rtt.as_nanos() as f64;

        if rtt < self.p.t_low {
            self.rate = (self.rate + self.p.delta).min(self.r_max);
            return;
        }
        if rtt > self.p.t_high {
            let f = 1.0 - self.p.beta * (1.0 - self.p.t_high.as_nanos() as f64 / new_rtt_ns);
            self.rate = self.rate.scale(f).max(self.p.r_min);
            self.neg_gradient_streak = 0;
            return;
        }
        if self.p.patched {
            // Patched TIMELY: absolute-RTT control toward t_target.
            let t = self.p.t_target.as_nanos() as f64;
            if new_rtt_ns <= t {
                self.rate = (self.rate + self.p.delta).min(self.r_max);
            } else {
                let f = 1.0 - self.p.beta * ((new_rtt_ns - t) / new_rtt_ns).min(1.0);
                self.rate = self.rate.scale(f).max(self.p.r_min);
            }
            return;
        }
        if norm_gradient <= 0.0 {
            self.neg_gradient_streak += 1;
            let n = if self.neg_gradient_streak >= self.p.hai_threshold {
                5
            } else {
                1
            };
            self.rate = (self.rate + BitRate::from_bps(self.p.delta.as_bps() * n)).min(self.r_max);
        } else {
            self.neg_gradient_streak = 0;
            let f = 1.0 - self.p.beta * norm_gradient.min(1.0);
            self.rate = self.rate.scale(f).max(self.p.r_min);
        }
    }
}

impl HostCc for TimelyHostCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(self.rate.min(self.r_max))
    }

    fn on_ack(&mut self, _ctx: &mut HostCcCtx, ack: AckEvent) {
        self.bytes_since_update += ack.newly_acked;
        if self.bytes_since_update >= self.p.seg_bytes {
            self.bytes_since_update = 0;
            self.update(ack.rtt);
        }
    }
}

// `p` and `r_max` are configuration.
rocc_sim::cc_state!(TimelyHostCc {
    rate, prev_rtt, rtt_diff_ns, neg_gradient_streak, bytes_since_update
});

/// Factory for [`TimelyHostCc`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TimelyHostCcFactory {
    /// Parameter override.
    pub params: Option<TimelyParams>,
}

impl rocc_sim::cc::HostCcFactory for TimelyHostCcFactory {
    fn make(&self, _flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(TimelyHostCc::new(
            self.params.unwrap_or_default(),
            link_rate,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> TimelyHostCc {
        TimelyHostCc::new(TimelyParams::default(), BitRate::from_gbps(40))
    }

    #[test]
    fn low_rtt_always_increases() {
        let mut c = cc();
        c.rate = BitRate::from_gbps(10);
        c.update(SimDuration::from_micros(10)); // < t_low
        assert_eq!(c.rate(), BitRate::from_gbps(10) + TimelyParams::default().delta);
    }

    #[test]
    fn high_rtt_always_decreases() {
        let mut c = cc();
        c.update(SimDuration::from_micros(400)); // > t_high
        assert!(c.rate() < BitRate::from_gbps(40));
    }

    #[test]
    fn positive_gradient_decreases() {
        let mut c = cc();
        c.update(SimDuration::from_micros(50));
        // Strongly rising RTT inside [t_low, t_high].
        c.update(SimDuration::from_micros(100));
        c.update(SimDuration::from_micros(150));
        assert!(c.rate() < BitRate::from_gbps(40));
    }

    #[test]
    fn flat_gradient_increases() {
        let mut c = cc();
        c.rate = BitRate::from_gbps(5);
        for _ in 0..3 {
            c.update(SimDuration::from_micros(50)); // flat, mid-band
        }
        assert!(c.rate() > BitRate::from_gbps(5));
    }

    #[test]
    fn hyper_increase_after_streak() {
        let p = TimelyParams::default();
        let mut c = cc();
        c.rate = BitRate::from_gbps(1);
        // Prime the streak.
        for _ in 0..p.hai_threshold {
            c.update(SimDuration::from_micros(50));
        }
        let before = c.rate();
        c.update(SimDuration::from_micros(50));
        let step = c.rate() - before;
        assert_eq!(step.as_bps(), p.delta.as_bps() * 5, "HAI = 5δ");
    }

    #[test]
    fn floor_and_ceiling_respected() {
        let p = TimelyParams::default();
        let mut c = cc();
        for _ in 0..200 {
            c.update(SimDuration::from_micros(1000));
        }
        assert!(c.rate() >= p.r_min);
        let mut c = cc();
        for _ in 0..200 {
            c.update(SimDuration::from_micros(1));
        }
        assert!(c.rate() <= BitRate::from_gbps(40));
    }

    #[test]
    fn updates_gated_by_segment_size() {
        let mut c = cc();
        c.rate = BitRate::from_gbps(10);
        let mut ctx = HostCcCtx {
            now: rocc_sim::prelude::SimTime::ZERO,
            link_rate: BitRate::from_gbps(40),
            set_timers: Vec::new(),
            cancel_timers: Vec::new(),
            events: Vec::new(),
            event_mask: rocc_sim::telemetry::EventMask::NONE,
        };
        let ack = |n| AckEvent {
            newly_acked: n,
            cum_seq: 0,
            rtt: SimDuration::from_micros(10),
            ecn_echo: false,
            int: rocc_sim::packet::IntStack::new(),
        };
        c.on_ack(&mut ctx, ack(1000));
        assert_eq!(c.rate(), BitRate::from_gbps(10), "below segment: no update");
        c.on_ack(&mut ctx, ack(15_000));
        assert!(c.rate() > BitRate::from_gbps(10), "segment complete: update");
    }
}

#[cfg(test)]
mod patched_tests {
    use super::*;

    fn cc() -> TimelyHostCc {
        TimelyHostCc::new(TimelyParams::patched(), BitRate::from_gbps(40))
    }

    #[test]
    fn patched_increases_below_target() {
        let mut c = cc();
        c.rate = BitRate::from_gbps(5);
        c.update(SimDuration::from_micros(40)); // < t_target (60 µs)
        assert_eq!(c.rate(), BitRate::from_gbps(5) + TimelyParams::default().delta);
    }

    #[test]
    fn patched_decreases_above_target_proportionally() {
        let mut c = cc();
        c.update(SimDuration::from_micros(120)); // 2× target
        // f = 1 − 0.8·(60/120) = 0.6.
        assert_eq!(c.rate(), BitRate::from_gbps(40).scale(0.6));
    }

    #[test]
    fn patched_has_unique_fixed_point_at_target() {
        // Holding RTT exactly at the target neither grows nor shrinks more
        // than the additive step — the loop parks at the target, unlike
        // the gradient original whose standing queue is history-dependent.
        let mut c = cc();
        c.rate = BitRate::from_gbps(10);
        for _ in 0..8 {
            c.update(SimDuration::from_micros(60));
        }
        let drift = (c.rate().as_bps() as f64 - 10e9).abs();
        assert!(
            drift <= 9.0 * TimelyParams::default().delta.as_bps() as f64,
            "rate drifted {drift}"
        );
    }

    #[test]
    fn patched_ignores_gradient() {
        // A falling RTT trajectory that sits above target must still
        // decrease (the original would hyper-increase on the streak).
        let mut c = cc();
        for rtt in [150u64, 140, 130, 120] {
            c.update(SimDuration::from_micros(rtt));
        }
        assert!(c.rate() < BitRate::from_gbps(40));
    }
}
