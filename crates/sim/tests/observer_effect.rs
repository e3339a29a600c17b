//! The telemetry layer has no observer effect: a run with every event
//! class collected and the metrics registry on is bit-identical — same
//! FCTs, drops, fault counts, event count, control traffic — to the same
//! seed with telemetry fully off.
//!
//! This is the structural guarantee that makes telemetry safe to leave
//! wired into the hot paths: it never touches the run RNG, the event
//! queue, or any CC state, only observes.

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

/// Everything observable a run produces, for bit-for-bit comparison.
#[derive(Debug, PartialEq)]
struct RunSummary {
    events: u64,
    fcts: Vec<(FlowId, u64)>,
    drops: u64,
    unroutable: u64,
    retx: u64,
    ctrl_emitted: u64,
    faults: FaultCounters,
}

fn summarize(sim: &Sim) -> RunSummary {
    RunSummary {
        events: sim.events_processed(),
        fcts: sim
            .trace
            .fcts
            .iter()
            .map(|r| (r.flow, r.end.as_nanos()))
            .collect(),
        drops: sim.trace.drops,
        unroutable: sim.trace.unroutable_drops,
        retx: sim.trace.retx_bytes,
        ctrl_emitted: sim.trace.ctrl_emitted,
        faults: sim.trace.faults,
    }
}

fn faulted_incast(seed: u64, telemetry: bool) -> (RunSummary, u64) {
    let (topo, srcs, dst) = dumbbell(6, 40);
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
        topo,
        cfg,
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    // Sampling is configured identically in both runs (sampling schedules
    // kernel events); only the telemetry switches differ.
    sim.trace.sample_period = Some(SimDuration::from_micros(10));
    sim.trace.watch_queue(NodeId(0), PortId(0));
    if telemetry {
        sim.trace.telemetry.collect(EventMask::ALL);
        sim.trace.telemetry.enable_metrics();
    }
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 1_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    let done = sim.run_until_flows_done(SimTime::from_millis(100)).is_complete();
    assert!(done, "faulted incast must complete within the horizon");
    let t = &sim.trace.telemetry;
    if telemetry {
        // The instrumented run really observed the run from all angles.
        let m = sim.trace.metrics();
        assert!(!t.events.is_empty(), "no events collected");
        assert!(m.counter_total("cnp.emit") > 0);
        assert!(m.fct_hist.count() == 6, "one FCT sample per flow");
        assert!(m.queue_hist.count() > 0, "queue depth sampled");
    }
    (summarize(&sim), t.events.len() as u64)
}

/// The core invariant: telemetry-on and telemetry-off runs of the same
/// seed are indistinguishable in every simulation-visible output.
#[test]
fn telemetry_is_invisible_to_the_simulation() {
    for seed in [1u64, 7, 42, 1234] {
        let (plain, _) = faulted_incast(seed, false);
        let (observed, seen) = faulted_incast(seed, true);
        assert!(seen > 0, "instrumented run produced no events");
        assert_eq!(
            plain, observed,
            "telemetry perturbed the run at seed {seed}"
        );
    }
}

/// The sanitizer obeys the same discipline as telemetry: audits are pure
/// reads between events, so a sanitizer-on run of a clean simulation is
/// bit-identical to the same seed with the sanitizer off, and its verdict
/// is `Completed`. (Runs that trip an invariant or deadlock *are* allowed
/// to diverge — aborting early is the sanitizer's whole point.)
#[test]
fn sanitizer_is_invisible_to_clean_runs() {
    let run = |seed: u64, sanitize: bool| {
        let (topo, srcs, dst) = dumbbell(6, 40);
        let cfg = SimConfig {
            seed,
            fault_plan: FaultPlan::default()
                .with_loss(FaultTarget::Data, 0.004)
                .with_duplication(FaultTarget::Data, 0.01)
                .with_reorder(FaultTarget::All, 0.01, SimDuration::from_micros(5)),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        if sanitize {
            // A short period maximizes the chance of catching any
            // state-perturbing audit.
            sim.enable_sanitizer_with_period(SimDuration::from_micros(5));
        }
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
        verdict.assert_complete();
        if sanitize {
            let report = sim.sanitizer().report();
            assert!(report.audits > 0, "sanitizer never audited");
            assert!(report.violations.is_empty(), "{report:?}");
        }
        summarize(&sim)
    };
    for seed in [1u64, 7, 42, 1234] {
        let plain = run(seed, false);
        let audited = run(seed, true);
        assert_eq!(
            plain, audited,
            "the sanitizer perturbed the run at seed {seed}"
        );
    }
}

/// The observatory sampler obeys the same discipline: a faulted run with
/// the observatory collecting queue/CP/flow/PFC time series is
/// bit-identical to the same seed with it off. Sampling is configured
/// identically in both runs (the sample tick schedules kernel events);
/// only the observatory enable differs — telemetry stays off in both, so
/// this also proves the observatory works through the trace-level gate on
/// its own.
#[test]
fn observatory_is_invisible_to_the_simulation() {
    let run = |seed: u64, observe: bool| {
        let (topo, srcs, dst) = dumbbell(6, 40);
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
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        sim.trace.sample_period = Some(SimDuration::from_micros(10));
        sim.trace.watch_queue(NodeId(0), PortId(0));
        for i in 0..srcs.len() {
            sim.trace.watch_flow_rate(FlowId(i as u64));
        }
        if observe {
            sim.trace.observatory.enable();
        }
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        let done = sim.run_until_flows_done(SimTime::from_millis(100)).is_complete();
        assert!(done, "faulted incast must complete within the horizon");
        if observe {
            assert!(!sim.trace.observatory_rows().is_empty(), "observatory collected nothing");
            let jsonl = sim.trace.observatory_jsonl();
            assert!(jsonl.contains("\"type\":\"queue\""), "no queue rows");
            assert!(jsonl.contains("\"type\":\"flow\""), "no flow rows");
            assert!(jsonl.contains("\"type\":\"cp\""), "no CP rows");
            assert!(jsonl.contains("\"type\":\"pfc\""), "no PFC rows");
            (summarize(&sim), jsonl)
        } else {
            assert!(sim.trace.observatory_rows().is_empty());
            (summarize(&sim), String::new())
        }
    };
    for seed in [1u64, 7, 42, 1234] {
        let (plain, _) = run(seed, false);
        let (observed, jsonl_a) = run(seed, true);
        assert_eq!(
            plain, observed,
            "the observatory perturbed the run at seed {seed}"
        );
        // And the time series itself is deterministic.
        let (_, jsonl_b) = run(seed, true);
        assert_eq!(jsonl_a, jsonl_b, "observatory output not deterministic");
    }
}

/// The phase profiler obeys the same discipline: a faulted run with
/// sampled scoped timing, scheduler introspection, and the dispatch-mix
/// counters all live is bit-identical to the same seed with the profiler
/// off. The profiler only reads the host clock and bumps counters — it
/// never touches the RNG, the event queue, or CC state — so the schedule
/// cannot shift. Pinned across the three faulted golden seeds.
#[test]
fn profiler_is_invisible_to_the_simulation() {
    let run = |seed: u64, profile: bool| {
        let (topo, srcs, dst) = dumbbell(6, 40);
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
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        sim.trace.sample_period = Some(SimDuration::from_micros(10));
        sim.trace.watch_queue(NodeId(0), PortId(0));
        if profile {
            sim.enable_profiler();
        }
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        let done = sim.run_until_flows_done(SimTime::from_millis(100)).is_complete();
        assert!(done, "faulted incast must complete within the horizon");
        // The deterministic slice of the profiler's output: everything
        // except wall-clock timings (counts, scheduler stats, dispatch mix,
        // burst histogram, heap-depth series are pure functions of the
        // schedule).
        let introspection = if profile {
            let pushes = sim.profiled_pushes();
            let p = &sim.kernel.prof;
            assert_eq!(p.pops(), sim.events_processed(), "every pop dispatched");
            assert!(pushes > 0, "no pushes counted");
            assert!(p.timed_events() > 0, "sampling never triggered");
            assert!(!p.heap_series().is_empty(), "no heap-depth series");
            assert!(p.burst_histogram().count() > 0, "no burst samples");
            format!(
                "{:?}|{:?}|{}|{}|{:?}",
                p.dispatch_mix(),
                p.heap_series(),
                pushes,
                p.pops(),
                p.burst_histogram().to_json("events")
            )
        } else {
            assert_eq!(sim.kernel.prof.pops(), 0, "profiler ran while disabled");
            String::new()
        };
        (summarize(&sim), introspection)
    };
    for seed in [1u64, 7, 42] {
        let (plain, _) = run(seed, false);
        let (profiled, intro_a) = run(seed, true);
        assert_eq!(
            plain, profiled,
            "the phase profiler perturbed the run at seed {seed}"
        );
        // And the schedule-derived introspection is itself deterministic.
        let (_, intro_b) = run(seed, true);
        assert_eq!(intro_a, intro_b, "profiler introspection not deterministic");
    }
}

/// Auto-checkpointing obeys the same discipline: a faulted run that
/// serializes a full engine snapshot every few thousand events is
/// bit-identical to the same seed with checkpointing off. `snapshot()`
/// is a pure read of engine state — it never touches the RNG, the event
/// queue, or CC state — so periodically journaling one cannot shift the
/// schedule. This pins the "disabled costs one branch, enabled costs
/// only wall time" contract of sub-cell crash recovery.
#[test]
fn checkpointing_is_invisible_to_the_simulation() {
    let run = |seed: u64, checkpoint: bool| {
        let (topo, srcs, dst) = dumbbell(6, 40);
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
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        sim.trace.sample_period = Some(SimDuration::from_micros(10));
        sim.trace.watch_queue(NodeId(0), PortId(0));
        let saves = std::rc::Rc::new(std::cell::Cell::new(0u64));
        if checkpoint {
            let counter = saves.clone();
            sim.enable_auto_checkpoint(
                5_000,
                Box::new(move |_events, bytes| {
                    assert!(!bytes.is_empty());
                    counter.set(counter.get() + 1);
                }),
            );
        }
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        let done = sim.run_until_flows_done(SimTime::from_millis(100)).is_complete();
        assert!(done, "faulted incast must complete within the horizon");
        if checkpoint {
            assert!(saves.get() > 0, "no checkpoints taken");
        }
        summarize(&sim)
    };
    for seed in [1u64, 7, 42] {
        let plain = run(seed, false);
        let journaled = run(seed, true);
        assert_eq!(
            plain, journaled,
            "auto-checkpointing perturbed the run at seed {seed}"
        );
    }
}

/// The strided digest ledger obeys the same discipline: a faulted run
/// that digests every subsystem's state every few thousand events is
/// bit-identical to the same seed with recording off. Digesting reuses
/// the snapshot serializers — pure reads between events — so the
/// divergence observatory can stay wired into the run loop behind one
/// branch. Pinned across the three faulted golden seeds, per the
/// observatory's acceptance bar (DESIGN.md §3k).
#[test]
fn digest_ledger_recording_is_invisible_to_the_simulation() {
    let run = |seed: u64, record: bool| {
        let (topo, srcs, dst) = dumbbell(6, 40);
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
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        sim.trace.sample_period = Some(SimDuration::from_micros(10));
        sim.trace.watch_queue(NodeId(0), PortId(0));
        if record {
            sim.enable_digest_ledger(2_048);
        }
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        let done = sim.run_until_flows_done(SimTime::from_millis(100)).is_complete();
        assert!(done, "faulted incast must complete within the horizon");
        let jsonl = if record {
            let ledger = sim.take_digest_ledger().expect("ledger was enabled");
            assert!(!ledger.entries().is_empty(), "ledger recorded nothing");
            ledger.to_jsonl()
        } else {
            assert!(sim.digest_ledger().is_none());
            String::new()
        };
        (summarize(&sim), jsonl)
    };
    for seed in [1u64, 7, 42] {
        let (plain, _) = run(seed, false);
        let (recorded, jsonl_a) = run(seed, true);
        assert_eq!(
            plain, recorded,
            "digest-ledger recording perturbed the run at seed {seed}"
        );
        // And the ledger itself is deterministic.
        let (_, jsonl_b) = run(seed, true);
        assert_eq!(jsonl_a, jsonl_b, "digest ledger not deterministic");
    }
}

/// Taking a one-off snapshot mid-run is equally invisible: pausing at an
/// arbitrary event, serializing the full engine state, and continuing
/// produces the identical run to never pausing at all.
#[test]
fn taking_a_snapshot_does_not_perturb_the_run() {
    let run = |seed: u64, pause_at: Option<u64>| {
        let (topo, srcs, dst) = dumbbell(6, 40);
        let cfg = SimConfig {
            seed,
            fault_plan: FaultPlan::default()
                .with_loss(FaultTarget::Data, 0.004)
                .with_loss(FaultTarget::Cnp, 0.01),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 1_000_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        if let Some(k) = pause_at {
            sim.run_until_event(k);
            let bytes = sim.snapshot();
            assert!(!bytes.is_empty());
        }
        let done = sim.run_until_flows_done(SimTime::from_millis(100)).is_complete();
        assert!(done, "faulted incast must complete within the horizon");
        summarize(&sim)
    };
    for seed in [1u64, 7, 42] {
        let plain = run(seed, None);
        for k in [0u64, 1_000, 30_000] {
            let paused = run(seed, Some(k));
            assert_eq!(
                plain, paused,
                "snapshot at event {k} perturbed the run at seed {seed}"
            );
        }
    }
}

/// Determinism of the telemetry itself: two instrumented runs of the same
/// seed produce the identical event log and metrics export.
#[test]
fn telemetry_output_is_deterministic() {
    let run = |seed| {
        let (topo, srcs, dst) = dumbbell(4, 40);
        let cfg = SimConfig {
            seed,
            fault_plan: FaultPlan::default().with_loss(FaultTarget::Data, 0.002),
            ..SimConfig::default()
        };
        let mut sim = Sim::new(
            topo,
            cfg,
            Box::new(RoccHostCcFactory::new()),
            Box::new(RoccSwitchCcFactory::new()),
        );
        sim.trace.telemetry.collect(EventMask::ALL);
        sim.trace.telemetry.enable_metrics();
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
        let _ = sim.run_until_flows_done(SimTime::from_millis(50));
        let metrics = sim.trace.metrics_json();
        let timeline: Vec<String> = sim
            .trace
            .telemetry
            .events
            .iter()
            .map(|e| e.to_json())
            .collect();
        (timeline, metrics)
    };
    let (t1, m1) = run(11);
    let (t2, m2) = run(11);
    assert_eq!(t1, t2, "event timeline not deterministic");
    assert_eq!(m1, m2, "metrics export not deterministic");
    assert!(!t1.is_empty());
}
