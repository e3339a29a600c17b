//! Integration tests for the engine performance observatory: the
//! `rocc-perf-profile/v1` artifact, the manual-stepping API, and the
//! `Sim::profile` summary.

use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;

fn dumbbell(n: usize, gbps: u64) -> (Topology, Vec<NodeId>, NodeId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    b.connect(sw, dst, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..n {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
        srcs.push(h);
    }
    (b.build(), srcs, dst)
}

fn incast(seed: u64) -> Sim {
    let (topo, srcs, dst) = dumbbell(4, 40);
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo,
        cfg,
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    sim.trace.sample_period = Some(SimDuration::from_micros(10));
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 500_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim
}

/// A run driven entirely by `Sim::step` is bit-identical to the same seed
/// driven by `run_until_flows_done` — stepping is the same engine loop,
/// one event at a time (including the one-shot sampling bootstrap) — and
/// `Sim::profile` summarises either from construction.
#[test]
fn stepped_run_matches_batch_run() {
    let mut batch = incast(42);
    batch
        .run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();

    let mut stepped = incast(42);
    while stepped.trace.fcts.len() < 4 {
        assert!(stepped.step(), "event heap drained before flows finished");
    }

    assert_eq!(batch.events_processed(), stepped.events_processed());
    let fcts = |s: &Sim| -> Vec<(FlowId, u64)> {
        s.trace.fcts.iter().map(|r| (r.flow, r.end.as_nanos())).collect()
    };
    assert_eq!(fcts(&batch), fcts(&stepped));
    assert_eq!(batch.trace.drops, stepped.trace.drops);
    assert_eq!(batch.trace.ctrl_emitted, stepped.trace.ctrl_emitted);
    for sim in [&batch, &stepped] {
        let p = sim.profile();
        assert_eq!(p.events_processed, sim.events_processed());
        assert!(p.wall_seconds > 0.0);
        assert!(p.sim_seconds > 0.0);
        assert!(p.events_per_sec().is_finite() && p.events_per_sec() > 0.0);
    }
}

/// Regression guard for the warm-up double count: a run that is stepped
/// for a while and then finished by `run_until_flows_done` reports every
/// event, and the wall time of both legs, exactly once in `Sim::profile`.
#[test]
fn profile_counts_a_stepped_warmup_once() {
    let mut sim = incast(7);
    const WARMUP: u64 = 500;
    for _ in 0..WARMUP {
        assert!(sim.step(), "warm-up drained the event heap");
    }
    let warm = sim.profile();
    assert_eq!(warm.events_processed, WARMUP);
    assert!(warm.sim_seconds > 0.0);

    sim.run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();
    let p = sim.profile();
    assert_eq!(p.events_processed, sim.events_processed());
    assert!(p.events_processed > WARMUP);
    assert!(p.wall_seconds >= warm.wall_seconds && p.wall_seconds > 0.0);
    assert!(p.sim_seconds > warm.sim_seconds);
    assert!(p.events_per_sec().is_finite() && p.events_per_sec() > 0.0);
}

/// Acceptance: the `rocc-perf-profile/v1` artifact carries per-phase
/// shares that sum to within 5% of the total, plus the scheduler
/// introspection blocks (heap-depth series, burst histogram, dispatch
/// mix, slab and fastmap load).
#[test]
fn perf_profile_artifact_is_complete_and_consistent() {
    let mut sim = incast(1);
    sim.enable_profiler();
    sim.run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();

    // Enabled before the first event, the profiler saw every dispatch.
    assert_eq!(sim.kernel.prof.pops(), sim.events_processed());
    let shares = sim.kernel.prof.phase_shares(sim.profiled_pushes());
    let total: f64 = shares.iter().map(|(_, share, _)| share).sum();
    assert!(
        (total - 1.0).abs() < 0.05,
        "phase shares sum to {total}, expected 1.0 ± 0.05"
    );
    // Counts are exact even though timing is sampled: every phase that the
    // incast exercises shows up.
    let count_of = |name: &str| -> u64 {
        shares
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, c)| *c)
            .unwrap_or(0)
    };
    for phase in ["sched_pop", "switch_forward", "host_compute", "cp_tick", "dispatch"] {
        assert!(count_of(phase) > 0, "phase {phase} never entered");
    }

    let json = sim.perf_profile_json();
    assert!(json.contains("\"schema\":\"rocc-perf-profile/v1\""));
    assert!(json.contains("\"phases\":["));
    assert!(json.contains("\"burst_hist\":"));
    assert!(json.contains("\"heap_depth_series\":["));
    assert!(json.contains("\"dispatch_mix\":["));
    assert!(json.contains("\"flow_dir_entries\":4"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}

/// Regression guard for the transport's timer: one lazily re-armed RTO
/// event per flow, not one pushed per data packet and per ACK. A lossless
/// incast never times out, so the queue holds a handful of events per flow
/// however many packets are in flight, and timer dispatches are a rounding
/// error of the event mix. Exact counts — the dead timers hid under
/// wall-clock noise, never under these.
#[test]
fn rto_timers_do_not_scale_with_packets_sent() {
    let (topo, srcs, dst) = dumbbell(4, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 16_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.enable_profiler();
    sim.run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();
    assert!(
        sim.kernel.peak_pending() < 256,
        "event queue peaked at {} entries for 4 flows",
        sim.kernel.peak_pending()
    );
    let mix = sim.kernel.prof.dispatch_mix();
    let timers = mix
        .iter()
        .find(|(kind, _)| *kind == "host_cc_timer")
        .expect("kind listed")
        .1;
    let share = timers as f64 / sim.events_processed() as f64;
    assert!(
        share < 0.02,
        "host_cc_timer is {:.1} % of {} events",
        share * 100.0,
        sim.events_processed()
    );
}
