//! The run's three exports — the metrics registry, the observatory JSONL
//! and the Chrome trace — pinned on the golden chaos incast with every
//! sink on, for an uninterrupted run and for runs restored from
//! snapshots cut mid-run.
//!
//! The exports are read after the run, so how each sink keeps its state
//! during the run is free to change: these digests must not. The restore
//! cuts include the events around a sample tick that shares its instant
//! with a CP fair-rate update, where only the order of the two events
//! says whether the tick saw the new rate.

mod common;

use common::build_chaos;
use rocc_sim::prelude::*;
use rocc_stats::digest::fnv1a_64;

const SEED: u64 = 7;
const HORIZON: SimTime = SimTime::from_millis(100);
const PERIOD: SimDuration = SimDuration::from_micros(10);
/// RoCC's CP update interval: every fourth sample tick shares its instant
/// with a CP update.
const CP_PERIOD_NS: u64 = 40_000;

/// FNV-1a-64 of `metrics_json()`, the observatory JSONL and the Chrome
/// trace of the uninterrupted run.
const PINNED: [u64; 3] = [0xa4e1_c186_1581_636c, 0x1100_bea8_d02c_6da0, 0xef2f_cce5_a0eb_9bcd];

/// The chaos incast with telemetry, metrics and the observatory on, one
/// watched queue and every flow's goodput watched.
fn instrumented() -> Sim {
    let mut sim = build_chaos(SEED);
    sim.trace.telemetry.collect(EventMask::ALL);
    sim.trace.telemetry.enable_metrics();
    sim.trace.observatory.enable();
    sim.trace.sample_period = Some(PERIOD);
    sim.trace.watch_queue(NodeId(0), PortId(0));
    for f in 0..6 {
        sim.trace.watch_flow_rate(FlowId(f));
    }
    sim
}

fn exports(sim: &Sim) -> [u64; 3] {
    [
        fnv1a_64(sim.trace.metrics_json().as_bytes()),
        fnv1a_64(sim.trace.observatory_jsonl().as_bytes()),
        fnv1a_64(export_chrome_trace(sim).as_bytes()),
    ]
}

fn finish(mut sim: Sim) -> [u64; 3] {
    let verdict = sim.run_until_flows_done(HORIZON);
    assert!(verdict.is_complete(), "the run must finish: {verdict:?}");
    exports(&sim)
}

/// The event index at which the first sample tick at or after 200 µs
/// that falls on a CP update instant is dispatched, and that instant.
fn shared_instant_tick() -> (u64, SimTime) {
    let mut sim = instrumented();
    let mut k = 0;
    loop {
        let ticks = sim.trace.queue_series[0].len();
        k += 1;
        assert!(sim.run_until_event(k), "the run ends before a shared tick");
        let now = sim.kernel.now;
        let on_cp = now.as_nanos().is_multiple_of(CP_PERIOD_NS);
        if sim.trace.queue_series[0].len() > ticks && on_cp && now >= SimTime::from_micros(200) {
            return (k, now);
        }
    }
}

#[test]
fn uninterrupted_exports_are_pinned() {
    let got = finish(instrumented());
    assert_eq!(got, PINNED, "exports moved: {got:#018x?}");
}

#[test]
fn restored_exports_equal_the_uninterrupted_ones() {
    let (tick, at) = shared_instant_tick();
    // The tick really shares its instant with a CP decision.
    let mut full = instrumented();
    assert!(full.run_until_flows_done(HORIZON).is_complete());
    let shared = full.trace.telemetry.events.iter().any(|e| {
        matches!(e, SimEvent::CpDecision { t, .. } if t == at)
    });
    assert!(shared, "no CP decision at the tick instant {at:?}");
    for k in [0, 5_000, 20_000, tick - 1, tick, tick + 1] {
        let mut donor = instrumented();
        assert!(donor.run_until_event(k));
        let bytes = donor.snapshot();
        let mut resumed = instrumented();
        resumed
            .restore(&bytes)
            .unwrap_or_else(|e| panic!("restore at event {k}: {e}"));
        assert_eq!(finish(resumed), PINNED, "exports after a restore at event {k}");
    }
}
