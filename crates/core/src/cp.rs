//! The congestion-point fair-rate computation (paper Alg. 1).
//!
//! Every update interval T the calculator reads the egress queue depth and
//! produces the new fair rate F (in multiples of ΔF):
//!
//! 1. **Multiplicative decrease** — if the queue exceeds Qmax (and F is
//!    still high, > Fmax/8), F drops straight to Fmin; if the queue *grew*
//!    by more than Qmid in one interval, F halves. This tames sudden bursts
//!    before they overrun the buffer and trigger PFC.
//! 2. **PI controller** — otherwise
//!    `F ← F − α·(Qcur − Qref) − β·(Qcur − Qold)`, driving the queue to the
//!    reference depth Qref. A stable queue means arrival rate equals drain
//!    rate, i.e. F is the max-min fair share, with no need to know the flow
//!    count or drain rate.
//! 3. **Auto-tuning** — the gains (α, β) are the static pair (α̃, β̃) scaled
//!    down by a power of two chosen from which of six quantized regions of
//!    `[Fmin, Fmax]` the current F falls into (small F ⇒ many flows ⇒ high
//!    loop gain ⇒ smaller α, β keep the loop stable; §5.3).
//!
//! All arithmetic runs on the Q47.16 fixed-point datapath ([`crate::fixed`])
//! — scaling by powers of two is exact shifts, mimicking the ASIC.

use crate::fixed::Fx;
use crate::params::CpParams;
use rocc_sim::cc::{CcReader, CcState, CcStateError};
use rocc_sim::prelude::BitRate;

/// The per-port fair-rate state machine.
#[derive(Debug, Clone)]
pub struct FairRateCalculator {
    p: CpParams,
    /// Current fair rate F, in multiples of ΔF.
    f: Fx,
    /// Queue depth at the previous update, in multiples of ΔQ.
    q_old: i64,
    alpha_static: Fx,
    beta_static: Fx,
    /// Gains selected by the most recent auto-tune (telemetry/tests).
    last_gains: (Fx, Fx),
    /// Auto-tune region chosen by the most recent auto-tune (0..=5).
    last_region: u32,
    /// Snapshot of the most recent update (telemetry).
    last_update: Option<LastUpdate>,
}

// F, Qold, the last auto-tune's gains and region, the last update;
// parameters and static gains are configuration.
rocc_sim::cc_state!(FairRateCalculator { f, q_old, last_gains, last_region, last_update });

/// Which branch of Alg. 1 produced the latest rate (telemetry/tests).
/// The discriminant is the variant's snapshot word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateKind {
    /// Queue above Qmax: F ← Fmin (Alg. 1 line 3).
    #[default]
    MdToMin = 0,
    /// Queue grew by ≥ Qmid: F ← F/2 (Alg. 1 line 5).
    MdHalve = 1,
    /// PI update (Alg. 1 line 8).
    Pi = 2,
}

impl CcState for UpdateKind {
    fn snapshot_state(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }

    fn restore_state(&mut self, r: &mut CcReader<'_>) -> Result<(), CcStateError> {
        let kinds = [UpdateKind::MdToMin, UpdateKind::MdHalve, UpdateKind::Pi];
        *self = *usize::try_from(r.word()?)
            .ok()
            .and_then(|i| kinds.get(i))
            .ok_or(CcStateError("cc state: unknown UpdateKind tag"))?;
        Ok(())
    }
}

impl From<UpdateKind> for rocc_sim::telemetry::CpDecisionKind {
    fn from(k: UpdateKind) -> Self {
        match k {
            UpdateKind::MdToMin => rocc_sim::telemetry::CpDecisionKind::MdToMin,
            UpdateKind::MdHalve => rocc_sim::telemetry::CpDecisionKind::MdHalve,
            UpdateKind::Pi => rocc_sim::telemetry::CpDecisionKind::Pi,
        }
    }
}

/// Full description of the most recent [`FairRateCalculator::update`] —
/// everything the decision-level telemetry wants to attribute one Alg. 1
/// tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LastUpdate {
    /// Which branch fired.
    pub kind: UpdateKind,
    /// Fair rate after the update, in multiples of ΔF.
    pub fair_rate_units: u32,
    /// Proportional gain in force (the most recent auto-tune selection;
    /// MD branches do not re-tune, so this is the gain the *next* PI tick
    /// would start from).
    pub alpha: f64,
    /// Integral gain in force.
    pub beta: f64,
    /// Auto-tune region (0 = F ≥ Fmax/2 … 5 = smallest gains). Remains at
    /// its previous value on MD branches, 0 when auto-tune is disabled.
    pub region: u32,
    /// Queue depth consumed by the update, in bytes.
    pub q_cur_bytes: u64,
}

rocc_sim::cc_state!(LastUpdate { kind, fair_rate_units, alpha, beta, region, q_cur_bytes });

impl FairRateCalculator {
    /// Start at F = Fmax (an uncongested port imposes no limit).
    pub fn new(p: CpParams) -> Self {
        p.validate();
        FairRateCalculator {
            f: Fx::from_int(p.f_max as i64),
            q_old: 0,
            alpha_static: Fx::from_f64(p.alpha_static),
            beta_static: Fx::from_f64(p.beta_static),
            last_gains: (
                Fx::from_f64(p.alpha_static),
                Fx::from_f64(p.beta_static),
            ),
            last_region: 0,
            last_update: None,
            p,
        }
    }

    /// Parameters in force.
    pub fn params(&self) -> &CpParams {
        &self.p
    }

    /// Current fair rate, in multiples of ΔF (what a CNP would carry).
    pub fn fair_rate_units(&self) -> u32 {
        self.f.round_int().clamp(self.p.f_min as i64, self.p.f_max as i64) as u32
    }

    /// Current fair rate as a [`BitRate`].
    pub fn fair_rate(&self) -> BitRate {
        BitRate::from_bps(self.p.delta_f.as_bps() * self.fair_rate_units() as u64)
    }

    /// True when this port currently constrains flows (F below Fmax):
    /// the CP sends CNPs only in this state.
    pub fn is_congested(&self) -> bool {
        self.fair_rate_units() < self.p.f_max
    }

    /// Gains chosen by the last auto-tune.
    pub fn gains(&self) -> (f64, f64) {
        (self.last_gains.0.to_f64(), self.last_gains.1.to_f64())
    }

    /// Snapshot of the most recent [`FairRateCalculator::update`], or
    /// `None` before the first tick. This is the decision-telemetry
    /// surface: branch taken, rate, gains, auto-tune region, queue input.
    pub fn last_update(&self) -> Option<LastUpdate> {
        self.last_update
    }

    /// Alg. 1 `Auto_Tune`: quantize `[Fmin, Fmax]` into six power-of-two
    /// regions and scale the static gains by the region's ratio.
    fn auto_tune(&mut self) -> (Fx, Fx) {
        if !self.p.auto_tune {
            return (self.alpha_static, self.beta_static);
        }
        let f_max = Fx::from_int(self.p.f_max as i64);
        let mut level: u32 = 2;
        while self.f < f_max.shr(level.trailing_zeros()) && level < 64 {
            level *= 2;
        }
        let ratio = level / 2; // 1, 2, 4, 8, 16, or 32
        let shift = ratio.trailing_zeros();
        let gains = (self.alpha_static.shr(shift), self.beta_static.shr(shift));
        self.last_gains = gains;
        self.last_region = shift;
        gains
    }

    /// Alg. 1 `Calculate_Fair_Rate`: consume the current queue depth (in
    /// bytes) and return the new fair rate in multiples of ΔF, plus which
    /// branch fired.
    pub fn update(&mut self, q_cur_bytes: u64) -> (u32, UpdateKind) {
        let q_cur = (q_cur_bytes / self.p.delta_q) as i64;
        let f_md_floor = Fx::from_int(self.p.f_max as i64).shr(3); // Fmax/8
        let kind;
        if self.p.multiplicative_decrease
            && q_cur >= self.p.q_max as i64
            && self.f > f_md_floor
        {
            self.f = Fx::from_int(self.p.f_min as i64);
            kind = UpdateKind::MdToMin;
        } else if self.p.multiplicative_decrease
            && (q_cur - self.q_old) >= self.p.q_mid as i64
            && self.f > f_md_floor
        {
            self.f = self.f.halved();
            kind = UpdateKind::MdHalve;
        } else {
            let (alpha, beta) = self.auto_tune();
            self.f = self.f
                - alpha.mul_int(q_cur - self.p.q_ref as i64)
                - beta.mul_int(q_cur - self.q_old);
            kind = UpdateKind::Pi;
        }
        // Boundary checks (Alg. 1 lines 9–12).
        self.f = self.f.clamp_fx(
            Fx::from_int(self.p.f_min as i64),
            Fx::from_int(self.p.f_max as i64),
        );
        self.q_old = q_cur;
        let units = self.fair_rate_units();
        self.last_update = Some(LastUpdate {
            kind,
            fair_rate_units: units,
            alpha: self.last_gains.0.to_f64(),
            beta: self.last_gains.1.to_f64(),
            region: self.last_region,
            q_cur_bytes,
        });
        (units, kind)
    }
}

/// A floating-point reference implementation of Alg. 1, used to bound the
/// quantization effect of the fixed-point datapath (DESIGN.md ablation 5).
/// Semantically identical to [`FairRateCalculator`], but F, α, β live in
/// `f64`.
#[derive(Debug, Clone)]
pub struct FairRateCalculatorF64 {
    p: CpParams,
    f: f64,
    q_old: i64,
}

impl FairRateCalculatorF64 {
    /// Start at F = Fmax.
    pub fn new(p: CpParams) -> Self {
        p.validate();
        FairRateCalculatorF64 {
            f: p.f_max as f64,
            q_old: 0,
            p,
        }
    }

    /// Current fair rate in multiples of ΔF (rounded as a CNP would carry).
    pub fn fair_rate_units(&self) -> u32 {
        self.f.round().clamp(self.p.f_min as f64, self.p.f_max as f64) as u32
    }

    fn auto_tune(&self) -> (f64, f64) {
        if !self.p.auto_tune {
            return (self.p.alpha_static, self.p.beta_static);
        }
        let f_max = self.p.f_max as f64;
        let mut level = 2.0;
        while self.f < f_max / level && level < 64.0 {
            level *= 2.0;
        }
        let ratio = level / 2.0;
        (self.p.alpha_static / ratio, self.p.beta_static / ratio)
    }

    /// Alg. 1 in floating point.
    pub fn update(&mut self, q_cur_bytes: u64) -> u32 {
        let q_cur = (q_cur_bytes / self.p.delta_q) as i64;
        let f_md_floor = self.p.f_max as f64 / 8.0;
        if self.p.multiplicative_decrease
            && q_cur >= self.p.q_max as i64
            && self.f > f_md_floor
        {
            self.f = self.p.f_min as f64;
        } else if self.p.multiplicative_decrease
            && (q_cur - self.q_old) >= self.p.q_mid as i64
            && self.f > f_md_floor
        {
            self.f /= 2.0;
        } else {
            let (alpha, beta) = self.auto_tune();
            self.f -= alpha * (q_cur - self.p.q_ref as i64) as f64
                + beta * (q_cur - self.q_old) as f64;
        }
        self.f = self.f.clamp(self.p.f_min as f64, self.p.f_max as f64);
        self.q_old = q_cur;
        self.fair_rate_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{CpParams, DELTA_Q};
    use rocc_sim::prelude::SimDuration;

    fn calc() -> FairRateCalculator {
        FairRateCalculator::new(CpParams::for_40g())
    }

    #[test]
    fn snapshot_words_round_trip_and_refuse_an_unknown_branch_tag() {
        let mut c = calc();
        c.update(700 * DELTA_Q); // above Qmax: MD to Fmin
        let mut words = Vec::new();
        c.snapshot_state(&mut words);
        assert_eq!(words.len(), 12, "F, Qold, two gains, region, 1+6 last update");
        assert_eq!(words[5..7], [1, UpdateKind::MdToMin as u64]);
        let mut back = calc();
        back.restore_state(&mut CcReader::new(&words)).unwrap();
        let mut again = Vec::new();
        back.snapshot_state(&mut again);
        assert_eq!(again, words);
        words[6] = 3;
        let got = calc().restore_state(&mut CcReader::new(&words));
        assert_eq!(got, Err(CcStateError("cc state: unknown UpdateKind tag")));
    }

    #[test]
    fn starts_uncongested_at_fmax() {
        let c = calc();
        assert_eq!(c.fair_rate_units(), 4000);
        assert!(!c.is_congested());
        assert_eq!(c.fair_rate(), BitRate::from_gbps(40));
    }

    #[test]
    fn empty_queue_keeps_fmax() {
        let mut c = calc();
        for _ in 0..100 {
            let (f, k) = c.update(0);
            assert_eq!(f, 4000);
            assert_eq!(k, UpdateKind::Pi);
        }
    }

    #[test]
    fn md_to_min_on_queue_above_qmax() {
        let mut c = calc();
        let (f, k) = c.update(400_000); // > Qmax (360 KB)
        assert_eq!(k, UpdateKind::MdToMin);
        assert_eq!(f, 10); // Fmin
    }

    #[test]
    fn md_halves_on_rapid_queue_growth() {
        let mut c = calc();
        c.update(0);
        // Growth of 310 KB in one interval (> Qmid = 300 KB), but below Qmax.
        let (f, k) = c.update(310_000);
        assert_eq!(k, UpdateKind::MdHalve);
        assert_eq!(f, 2000);
    }

    #[test]
    fn md_suppressed_when_f_already_low() {
        let mut c = calc();
        // Drive F to Fmin via MD.
        c.update(400_000);
        assert_eq!(c.fair_rate_units(), 10);
        // Queue still above Qmax, but F ≤ Fmax/8 so MD must not re-fire;
        // the PI branch runs instead (and clamps at Fmin).
        let (_, k) = c.update(400_000);
        assert_eq!(k, UpdateKind::Pi);
    }

    #[test]
    fn pi_decreases_rate_when_queue_above_ref() {
        let mut c = calc();
        c.update(150_000); // exactly Qref: no change pressure beyond ΔQold
        let before = c.fair_rate_units();
        let (after, k) = c.update(200_000); // 50 KB above Qref, growing
        assert_eq!(k, UpdateKind::Pi);
        assert!(after < before, "rate must fall: {before} -> {after}");
    }

    #[test]
    fn pi_increases_rate_when_queue_below_ref() {
        let mut c = calc();
        // Force F low first.
        c.update(400_000);
        let before = c.fair_rate_units();
        // Empty queue: below Qref, shrinking → F rises.
        let (after, _) = c.update(0);
        assert!(after > before, "rate must rise: {before} -> {after}");
    }

    #[test]
    fn rate_always_within_bounds() {
        let mut c = calc();
        for q in [0u64, 1 << 10, 1 << 14, 1 << 18, 1 << 22, 0, 1 << 22, 0] {
            let (f, _) = c.update(q);
            assert!((10..=4000).contains(&f), "F out of bounds: {f}");
        }
    }

    #[test]
    fn auto_tune_levels_follow_paper() {
        // ratio = 1 while F ≥ Fmax/2, then doubles per octave down, capped
        // at 32 (six regions).
        let p = CpParams::for_40g();
        let mut c = FairRateCalculator::new(p);
        let expect = [
            (4000.0, 1u32),
            (1999.0, 2),
            (999.0, 4),
            (499.0, 8),
            (249.0, 16),
            (124.0, 32),
            (10.0, 32),
        ];
        for (f, ratio) in expect {
            c.f = Fx::from_f64(f);
            let (a, b) = c.auto_tune();
            let exp_a = 0.3 / ratio as f64;
            let exp_b = 1.5 / ratio as f64;
            assert!(
                (a.to_f64() - exp_a).abs() < 1e-3,
                "alpha at F={f}: {} vs {exp_a}",
                a.to_f64()
            );
            assert!(
                (b.to_f64() - exp_b).abs() < 1e-3,
                "beta at F={f}: {} vs {exp_b}",
                b.to_f64()
            );
        }
    }

    /// Closed-loop convergence: N flows obey the published fair rate; the
    /// queue integrates arrivals minus drain. The rate must converge to
    /// C/N and the queue to Qref, for a wide range of N (the auto-tuner's
    /// whole point, Fig. 8).
    fn simulate_closed_loop(n: u64, link: BitRate, p: CpParams) -> (f64, f64) {
        let t = p.update_interval;
        let mut c = FairRateCalculator::new(p);
        let mut q_bytes: f64 = 0.0;
        let mut f_units = c.fair_rate_units();
        for _ in 0..2000 {
            // 2000 * 40 µs = 80 ms
            let arrival = (n * f_units as u64 * p.delta_f.as_bps()) as f64;
            let drain = link.as_bps() as f64;
            q_bytes += (arrival - drain) * t.as_secs_f64() / 8.0;
            q_bytes = q_bytes.max(0.0);
            let (f, _) = c.update(q_bytes as u64);
            f_units = f;
        }
        let fair_bps = f_units as u64 * p.delta_f.as_bps();
        (fair_bps as f64, q_bytes)
    }

    #[test]
    fn converges_for_small_and_large_n() {
        let link = BitRate::from_gbps(40);
        for n in [2u64, 10, 100] {
            let (rate, q) = simulate_closed_loop(n, link, CpParams::for_40g());
            let ideal = link.as_bps() as f64 / n as f64;
            let err = (rate - ideal).abs() / ideal;
            assert!(
                err < 0.10,
                "N={n}: rate {rate:.0} vs ideal {ideal:.0} (err {err:.2})"
            );
            let qref = 150_000.0;
            assert!(
                (q - qref).abs() / qref < 0.35,
                "N={n}: queue {q:.0} vs Qref {qref}"
            );
        }
    }

    #[test]
    fn converges_on_100g_profile() {
        let link = BitRate::from_gbps(100);
        for n in [2u64, 10, 100] {
            let (rate, _) = simulate_closed_loop(n, link, CpParams::for_100g());
            let ideal = link.as_bps() as f64 / n as f64;
            assert!(
                (rate - ideal).abs() / ideal < 0.10,
                "N={n}: {rate:.0} vs {ideal:.0}"
            );
        }
    }

    #[test]
    fn fixed_gains_struggle_where_auto_tune_succeeds() {
        // Ablation: with auto-tuning disabled and the aggressive static
        // gains, large N drives the loop unstable (queue far from Qref or
        // oscillating rate). We check the auto-tuned loop lands closer to
        // the ideal rate than the fixed-gain loop for N=100.
        let link = BitRate::from_gbps(40);
        let mut fixed = CpParams::for_40g();
        fixed.auto_tune = false;
        let (r_fixed, _) = simulate_closed_loop(100, link, fixed);
        let (r_auto, _) = simulate_closed_loop(100, link, CpParams::for_40g());
        let ideal = link.as_bps() as f64 / 100.0;
        let err_fixed = (r_fixed - ideal).abs() / ideal;
        let err_auto = (r_auto - ideal).abs() / ideal;
        assert!(
            err_auto <= err_fixed + 1e-9,
            "auto-tune must not be worse: auto {err_auto:.3} vs fixed {err_fixed:.3}"
        );
    }

    #[test]
    fn update_interval_is_paper_t() {
        assert_eq!(
            calc().params().update_interval,
            SimDuration::from_micros(40)
        );
    }

    #[test]
    fn delta_q_scaling_quantizes_queue() {
        let mut c = calc();
        // Depths within the same ΔQ bucket are indistinguishable.
        let (f1, _) = c.update(DELTA_Q - 1);
        let mut c2 = calc();
        let (f2, _) = c2.update(0);
        assert_eq!(f1, f2);
    }
}
