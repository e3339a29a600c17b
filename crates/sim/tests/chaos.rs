//! Chaos suite: the fault-injection layer under the real RoCC stack.
//!
//! Three claims are pinned down here:
//!
//! 1. **Determinism** — a faulted run is a pure function of the seed: the
//!    same (seed, plan) replays bit-for-bit, and the fault layer draws
//!    from its own PRNG, so an *inert* plan never perturbs the simulation.
//! 2. **Liveness under data-plane damage** — every flow completes despite
//!    random packet loss, corruption, and a mid-run link flap, courtesy of
//!    go-back-N.
//! 3. **Control-plane robustness** — with every CNP destroyed from some
//!    instant on, the RP's fast recovery alone returns a throttled flow
//!    to line rate (the paper's §3.5 robustness claim).

use proptest::prelude::*;
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

fn rocc_sim_with(topo: Topology, cfg: SimConfig) -> Sim {
    Sim::new(
        topo,
        cfg,
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    )
}

/// Everything observable a run produces, for bit-for-bit comparison.
#[derive(Debug, PartialEq)]
struct RunSummary {
    events: u64,
    fcts: Vec<(FlowId, u64)>,
    drops: u64,
    unroutable: u64,
    retx: u64,
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
        faults: sim.trace.faults,
    }
}

fn faulted_run(seed: u64, loss: f64, corrupt: f64, flap_at_us: u64) -> RunSummary {
    let (topo, srcs, dst) = dumbbell(4, 10);
    let flap_link = topo.out_link(srcs[0], PortId(0));
    let cfg = SimConfig {
        seed,
        fault_plan: FaultPlan::default()
            .with_loss(FaultTarget::Data, loss)
            .with_corruption(FaultTarget::All, corrupt)
            .with_flap(
                flap_link,
                SimTime::from_micros(flap_at_us),
                SimTime::from_micros(flap_at_us + 300),
            ),
        ..SimConfig::default()
    };
    let mut sim = rocc_sim_with(topo, cfg);
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 200_000,
            start: SimTime::from_micros(i as u64 * 5),
            offered: None,
        });
    }
    let _ = sim.run_until_flows_done(SimTime::from_millis(200));
    summarize(&sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed + same fault plan ⇒ identical run, down to every fault
    /// counter and FCT nanosecond, across arbitrary seeds and fault
    /// intensities (including the flap edge racing live traffic).
    #[test]
    fn chaos_runs_are_deterministic(
        seed in 0u64..u64::MAX,
        loss in 0.0f64..0.05,
        corrupt in 0.0f64..0.02,
        flap_at_us in 100u64..2_000,
    ) {
        let a = faulted_run(seed, loss, corrupt, flap_at_us);
        let b = faulted_run(seed, loss, corrupt, flap_at_us);
        prop_assert_eq!(a, b);
    }

    /// Changing only the seed changes fault outcomes (the plan is
    /// probabilistic, not a fixed schedule): at 2% loss over hundreds of
    /// packets, two seeds virtually never lose identical packet sets.
    #[test]
    fn seeds_decorrelate_fault_outcomes(seed in 0u64..u64::MAX / 2) {
        let a = faulted_run(seed, 0.02, 0.0, 1_000);
        let b = faulted_run(seed + 1, 0.02, 0.0, 1_000);
        // Both complete regardless; the realized fault pattern differs.
        prop_assert_eq!(a.fcts.len(), 4);
        prop_assert_eq!(b.fcts.len(), 4);
        prop_assert!(a.faults.data_lost > 0 && b.faults.data_lost > 0);
    }
}

fn dup_reorder_run(seed: u64, dup: f64, reorder: f64) -> RunSummary {
    let (topo, srcs, dst) = dumbbell(4, 10);
    let cfg = SimConfig {
        seed,
        fault_plan: FaultPlan::default()
            .with_duplication(FaultTarget::Data, dup)
            .with_reorder(FaultTarget::All, reorder, SimDuration::from_micros(5)),
        ..SimConfig::default()
    };
    let mut sim = rocc_sim_with(topo, cfg);
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 200_000,
            start: SimTime::from_micros(i as u64 * 5),
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(200))
        .assert_complete();
    summarize(&sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Duplication and reordering (of data *and* control, so ACKs and NACKs
    /// arrive late and out of order) never stall go-back-N: duplicates are
    /// ignored by the cumulative receiver, stale NACKs cannot roll the
    /// sender window backwards, and the whole thing replays bit-for-bit.
    #[test]
    fn duplication_and_reordering_never_stall_go_back_n(
        seed in 0u64..u64::MAX,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.2,
    ) {
        let a = dup_reorder_run(seed, dup, reorder);
        prop_assert_eq!(a.fcts.len(), 4, "flows incomplete: {:?}", a);
        let b = dup_reorder_run(seed, dup, reorder);
        prop_assert_eq!(a, b);
    }
}

/// High-rate duplication + reordering with a fixed seed: both fault classes
/// demonstrably fire, delivery stays exact, and nothing is double-counted
/// as delivered payload.
#[test]
fn duplicates_and_reordered_packets_are_counted_and_harmless() {
    let s = dup_reorder_run(11, 0.25, 0.15);
    assert_eq!(s.fcts.len(), 4);
    assert!(s.faults.duplicated > 0, "duplication plan never fired: {s:?}");
    assert!(s.faults.reordered > 0, "reorder plan never fired: {s:?}");
    assert_eq!(s.unroutable, 0);
}

/// 1% uniform data loss + corruption + a link flap mid-transfer: go-back-N
/// still delivers every byte of every flow.
#[test]
fn all_flows_complete_despite_loss_and_flap() {
    let s = faulted_run(7, 0.01, 0.005, 800);
    assert_eq!(s.fcts.len(), 4, "flows did not all complete: {s:?}");
    assert!(s.faults.data_lost > 0, "loss plan never fired");
    assert!(
        s.faults.link_down_drops > 0,
        "flap never killed an in-flight packet"
    );
    assert!(s.retx > 0, "loss recovery must retransmit");
    assert_eq!(s.unroutable, 0);
}

/// An inert fault plan is exactly free: a config whose plan contains a
/// zero-probability spec (active layer, RNG consulted) produces the very
/// same run as the default empty plan — the fault PRNG is independent of
/// the kernel PRNG, so merely enabling the layer perturbs nothing.
#[test]
fn inert_fault_plans_leave_runs_bit_identical() {
    let run = |plan: FaultPlan| {
        let (topo, srcs, dst) = dumbbell(3, 10);
        let cfg = SimConfig { fault_plan: plan, ..SimConfig::default() };
        let mut sim = rocc_sim_with(topo, cfg);
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 300_000,
                start: SimTime::ZERO,
                offered: None,
            });
        }
        sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
        summarize(&sim)
    };
    let baseline = run(FaultPlan::default());
    let zero_prob = run(
        FaultPlan::default()
            .with_loss(FaultTarget::All, 0.0)
            .with_corruption(FaultTarget::Cnp, 0.0),
    );
    assert_eq!(baseline.faults.total(), 0);
    assert_eq!(baseline, zero_prob);
}

/// Total CNP blackout: two RoCC flows share a 40G bottleneck, so flow 0 is
/// throttled near the 20G fair share. At t₁ flow 1 stops and *every* CNP
/// is destroyed from then on — no feedback can ever raise flow 0's rate.
/// Fast recovery (Alg. 2) must uninstall the limiter on its own and flow 0
/// must end up transmitting at line rate.
#[test]
fn rocc_recovers_line_rate_after_total_cnp_blackout() {
    let blackout = SimTime::from_millis(6);
    let horizon = SimTime::from_millis(14);
    let (topo, srcs, dst) = dumbbell(2, 40);
    let line = BitRate::from_gbps(40);
    let cfg = SimConfig {
        fault_plan: FaultPlan::default().with_loss_window(
            FaultTarget::Cnp,
            1.0,
            blackout,
            SimTime::MAX,
        ),
        ..SimConfig::default()
    };
    let mut sim = rocc_sim_with(topo, cfg);
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.stop_flow_at(FlowId(1), blackout);
    // Throttled-phase goodput over the converged half of the shared phase
    // (the instantaneous RP rate oscillates with recovery doublings, so
    // goodput is the stable observable): must be near the 20G fair share.
    let shared_from = SimTime::from_millis(3);
    sim.run_until(shared_from);
    let shared_base = sim.trace.delivered_bytes(FlowId(0));
    sim.run_until(blackout);
    let shared_w = blackout.saturating_since(shared_from).as_secs_f64();
    let shared_goodput =
        (sim.trace.delivered_bytes(FlowId(0)) - shared_base) as f64 * 8.0 / shared_w;
    assert!(
        shared_goodput < 30e9,
        "flow 0 must be throttled while sharing: {:.2} Gb/s",
        shared_goodput / 1e9
    );
    // Give recovery a couple of milliseconds (~15 doublings at 100 µs),
    // then measure goodput over the tail.
    let measure_from = SimTime::from_millis(10);
    sim.run_until(measure_from);
    let base = sim.trace.delivered_bytes(FlowId(0));
    sim.run_until(horizon);
    assert!(
        sim.trace.faults.ctrl_lost > 0,
        "the blackout must actually destroy CNPs"
    );
    let final_rate = sim.host(srcs[0]).cc_rate(FlowId(0)).expect("flow 0 live");
    assert_eq!(
        final_rate.rate, line,
        "rate limiter still installed after blackout recovery"
    );
    let w = horizon.saturating_since(measure_from).as_secs_f64();
    let goodput = (sim.trace.delivered_bytes(FlowId(0)) - base) as f64 * 8.0 / w;
    // Payload share of the wire rate is 1000/1048.
    assert!(
        goodput > 0.9 * 40e9 * (1000.0 / 1048.0),
        "post-blackout goodput only {:.2} Gb/s",
        goodput / 1e9
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Liveness rests on one RTO event per flow. Under data loss, CNP loss
    /// and a sender pause (shorter and longer than the 4 ms RTO, so the
    /// flow's queued event is both chased and dropped while the host is
    /// down) every flow still completes, with the sanitizer's RTO audit —
    /// flag ⇔ exactly one queued event, never later than the deadline —
    /// clean throughout.
    #[test]
    fn loss_and_pause_never_strand_a_flow(
        seed in 0u64..u64::MAX / 2,
        pause_at_us in 20u64..600,
        pause_len_us in 10u64..9000,
    ) {
        let (topo, srcs, dst) = dumbbell(4, 10);
        let cfg = SimConfig {
            seed,
            fault_plan: FaultPlan::default()
                .with_loss(FaultTarget::Data, 0.01)
                .with_loss(FaultTarget::Cnp, 0.05)
                .with_host_pause(
                    srcs[0],
                    SimTime::from_micros(pause_at_us),
                    SimTime::from_micros(pause_at_us + pause_len_us),
                ),
            ..SimConfig::default()
        };
        let mut sim = rocc_sim_with(topo, cfg);
        sim.enable_sanitizer_with_period(SimDuration::from_micros(50));
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: 200_000,
                start: SimTime::from_micros(i as u64 * 5),
                offered: None,
            });
        }
        let verdict = sim.run_until_flows_done(SimTime::from_millis(200));
        prop_assert!(verdict.is_complete(), "seed {}: {:?}", seed, verdict);
        prop_assert_eq!(sim.trace.fcts.len(), 4);
    }
}

/// Host crash/restart under RoCC: the crashed sender loses all soft state,
/// go-back-N restarts from the last cumulative ACK, and both flows still
/// complete (the victim just finishes later).
#[test]
fn flows_survive_host_crash_and_restart() {
    let (topo, srcs, dst) = dumbbell(2, 10);
    let cfg = SimConfig {
        fault_plan: FaultPlan::default().with_host_crash(
            srcs[0],
            SimTime::from_micros(400),
            SimTime::from_micros(900),
        ),
        ..SimConfig::default()
    };
    let mut sim = rocc_sim_with(topo, cfg);
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 400_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    assert!(
        sim.run_until_flows_done(SimTime::from_millis(200)).is_complete(),
        "flows stuck after crash: {:?}",
        sim.trace.faults
    );
    assert_eq!(sim.trace.fcts.len(), 2);
    assert!(
        sim.trace.faults.host_down_drops > 0 || sim.trace.retx_bytes > 0,
        "crash had no observable effect"
    );
}
