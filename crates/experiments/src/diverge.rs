//! `repro diverge` — the divergence observatory's CLI driver.
//!
//! Runs the same scenario twice in lockstep — clean, or with one run
//! deliberately perturbed with an RP bit-flip fault — and bisects to the
//! exact first event index after which any per-subsystem state digest
//! differs, emitting a `rocc-divergence-report/v1` artifact (see
//! [`rocc_sim::digest`]). Also records and diffs strided
//! `rocc-digest-ledger/v1` files for offline cross-machine comparison.
//!
//! A spec names one side of the comparison:
//!
//! ```text
//! clean       the scenario as built
//! flip@40000  one RP rate bit flipped after event 40000
//! ```
//!
//! The flip is [`Sim::inject_rp_perturbation`] — bit 30 of the first
//! host's RoCC RP rate word (~1 Gb/s), a lasting pacing shift the
//! bisector must trace back to exactly the event it was injected at.

use crate::observatory;
use crate::Scale;
use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::digest::{bisect_divergence, BisectOptions, BisectOutcome};
use rocc_sim::prelude::*;

/// Scenario names accepted by [`scenario_sim`]. `chaos` is the faulted
/// 6-sender incast the golden/scheduler suites pin (loss on data and
/// CNPs plus a link flap); `incast` is the observatory's clean incast.
pub const SCENARIOS: [&str; 2] = ["chaos", "incast"];

/// Default phase-1 scan stride (events between digest comparisons).
pub const DEFAULT_SCAN_STRIDE: u64 = 2048;

/// Default cap on events compared before two runs are declared
/// identical. Scenario schedules can keep ticking past flow completion,
/// so the lockstep comparison needs a horizon; this covers every quick
/// chaos/incast run with headroom.
pub const DEFAULT_MAX_EVENTS: u64 = 200_000;

/// Default stride for `repro diverge record` ledgers.
pub const DEFAULT_LEDGER_STRIDE: u64 = 2048;

/// One side of a divergence comparison: the scenario as built,
/// optionally with an injected RP bit-flip at a fixed event index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivergeSpec {
    /// Inject [`Sim::inject_rp_perturbation`] after exactly this many
    /// dispatched events.
    pub flip_at: Option<u64>,
}

impl DivergeSpec {
    /// Parse `clean` or `flip@N`.
    pub fn parse(s: &str) -> Option<DivergeSpec> {
        let flip_at = match s {
            "clean" => None,
            _ => Some(s.strip_prefix("flip@")?.parse().ok()?),
        };
        Some(DivergeSpec { flip_at })
    }

    /// Render back to the CLI spelling.
    pub fn label(&self) -> String {
        match self.flip_at {
            Some(n) => format!("flip@{n}"),
            None => "clean".to_string(),
        }
    }
}

/// Build (without running) the sim a diverge scenario uses. `None` for
/// an unknown scenario name.
pub fn scenario_sim(scenario: &str, scale: Scale, seed: u64) -> Option<Sim> {
    match scenario {
        "chaos" => Some(build_chaos(scale, seed)),
        "incast" => Some(observatory::scenario_sim("incast", scale, seed)?.0),
        _ => None,
    }
}

/// The faulted 6-sender incast pinned by the golden-engine and scheduler
/// suites: data loss, CNP loss and a mid-run link flap, RoCC end to end.
/// `Paper` scale grows the flows, same faults.
fn build_chaos(scale: Scale, seed: u64) -> Sim {
    let size = match scale {
        Scale::Quick => 1_000_000u64,
        Scale::Paper => 4_000_000,
    };
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..6 {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
        srcs.push(h);
    }
    let cfg = SimConfig {
        seed,
        fault_plan: FaultPlan::default()
            .with_loss(FaultTarget::Data, 0.004)
            .with_loss(FaultTarget::Cnp, 0.01)
            .with_flap(
                LinkId(3),
                SimTime::from_micros(400),
                SimTime::from_micros(900),
            ),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        b.build(),
        cfg,
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim
}

/// The outcome of one `repro diverge` comparison, ready for the CLI.
#[derive(Debug)]
pub struct DivergeResult {
    /// The bisector's verdict.
    pub outcome: BisectOutcome,
    /// True when the specs were swapped so the perturbed run is side B
    /// (the bisector replays injections on B only); `event_a`/`event_b`
    /// and digest columns in the report are swapped accordingly.
    pub swapped: bool,
    /// Spec that ran as side A (after any swap).
    pub spec_a: DivergeSpec,
    /// Spec that ran as side B (after any swap).
    pub spec_b: DivergeSpec,
}

/// Run two specs of `scenario` in lockstep and bisect their first
/// divergence. Specs with an injected flip are run as side B (swapping
/// if needed — the bisector replays injections on B); two flipped specs
/// are rejected.
pub fn diverge(
    spec_a: DivergeSpec,
    spec_b: DivergeSpec,
    scenario: &str,
    scale: Scale,
    seed: u64,
    max_events: u64,
) -> Result<DivergeResult, String> {
    let (spec_a, spec_b, swapped) = match (spec_a.flip_at, spec_b.flip_at) {
        (Some(_), Some(_)) => {
            return Err("at most one spec may carry flip@N".to_string());
        }
        (Some(_), None) => (spec_b, spec_a, true),
        _ => (spec_a, spec_b, false),
    };
    let mut a = scenario_sim(scenario, scale, seed)
        .ok_or_else(|| format!("unknown diverge scenario: {scenario}"))?;
    let mut b = scenario_sim(scenario, scale, seed).expect("scenario validated above");
    let opts = BisectOptions {
        scan_stride: DEFAULT_SCAN_STRIDE,
        max_events,
        perturb_b_at: spec_b.flip_at,
    };
    let outcome = bisect_divergence(&mut a, &mut b, &opts);
    Ok(DivergeResult { outcome, swapped, spec_a, spec_b })
}

/// Run one spec of `scenario` to completion with the strided digest
/// ledger enabled and return the `rocc-digest-ledger/v1` JSONL.
pub fn record_ledger(
    spec: DivergeSpec,
    scenario: &str,
    scale: Scale,
    seed: u64,
    stride: u64,
) -> Result<String, String> {
    let mut sim = scenario_sim(scenario, scale, seed)
        .ok_or_else(|| format!("unknown diverge scenario: {scenario}"))?;
    sim.enable_digest_ledger(stride);
    if let Some(at) = spec.flip_at {
        // Run to the flip point, inject, and run on: the ledger carries
        // its pre-flip rows too, byte-equal to the clean side's.
        sim.run_until_event(at);
        sim.inject_rp_perturbation();
    }
    let horizon = match scenario {
        "incast" => match scale {
            Scale::Quick => SimTime::from_millis(200),
            Scale::Paper => SimTime::from_millis(1000),
        },
        _ => SimTime::from_millis(100),
    };
    let verdict = sim.run_until_flows_done(horizon);
    if let Some(err) = verdict.err() {
        return Err(format!("ledger run failed: {err:?}"));
    }
    let ledger = sim
        .take_digest_ledger()
        .expect("ledger was enabled above");
    Ok(ledger.to_jsonl())
}

/// Parse two ledger files and report their first divergence (at ledger
/// stride resolution). `Ok(None)` when every comparable row matches.
pub fn diverge_ledgers(
    text_a: &str,
    text_b: &str,
) -> (
    Option<rocc_sim::digest::LedgerDivergence>,
    /* torn tails */ (bool, bool),
) {
    let pa = rocc_sim::digest::parse_ledger_jsonl(text_a);
    let pb = rocc_sim::digest::parse_ledger_jsonl(text_b);
    (
        rocc_sim::digest::first_ledger_divergence(&pa.entries, &pb.entries),
        (pa.torn_tail, pb.torn_tail),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_roundtrips() {
        let s = DivergeSpec::parse("clean").unwrap();
        assert_eq!(s.flip_at, None);
        assert_eq!(s.label(), "clean");
        let s = DivergeSpec::parse("flip@1234").unwrap();
        assert_eq!(s.flip_at, Some(1234));
        assert_eq!(s.label(), "flip@1234");
        assert!(DivergeSpec::parse("heap").is_none());
        assert!(DivergeSpec::parse("flip@x").is_none());
        assert!(DivergeSpec::parse("thaw@3").is_none());
    }

    #[test]
    fn two_flipped_specs_are_rejected() {
        let f = DivergeSpec::parse("flip@10").unwrap();
        assert!(diverge(f, f, "chaos", Scale::Quick, 7, 1000).is_err());
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let s = DivergeSpec::parse("clean").unwrap();
        assert!(diverge(s, s, "nope", Scale::Quick, 7, 1000).is_err());
    }

    #[test]
    fn flipped_spec_runs_as_side_b() {
        let f = DivergeSpec::parse("flip@4000").unwrap();
        let c = DivergeSpec::parse("clean").unwrap();
        let r = diverge(f, c, "chaos", Scale::Quick, 7, 12_000).expect("valid specs");
        assert!(r.swapped);
        assert_eq!(r.spec_b.flip_at, Some(4000));
        match r.outcome {
            BisectOutcome::Diverged(rep) => {
                assert_eq!(rep.first_divergent_event, 4000);
            }
            BisectOutcome::Identical { .. } => panic!("flip must diverge"),
        }
    }
}
