//! End-to-end behaviour of RoCC inside the packet-level simulator: the
//! paper's §6.1 micro-benchmark properties at small scale.

use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;

/// N senders → one switch → one receiver; B Gb/s everywhere; offered load
/// 90% of line rate per sender (the paper's fairness/stability setup).
fn dumbbell(n: usize, gbps: u64) -> (Sim, Vec<FlowId>, NodeId, PortId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    let (bottleneck_port, _) = b.connect(
        dst,
        sw,
        BitRate::from_gbps(gbps),
        SimDuration::from_micros(1),
    );
    // `connect(dst, sw)` allocates the port pair; the switch-side egress
    // port toward dst is the second of the pair.
    let sw_port_to_dst = bottleneck_port; // same index on both sides here
    let mut srcs = Vec::new();
    for i in 0..n {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
        srcs.push(h);
    }
    let topo = b.build();
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    let mut flows = Vec::new();
    let offered = BitRate::from_gbps(gbps).scale(0.9);
    for (i, &s) in srcs.iter().enumerate() {
        let id = FlowId(i as u64);
        sim.add_flow(FlowSpec {
            id,
            src: s,
            dst,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered: Some(offered),
        });
        flows.push(id);
    }
    (sim, flows, sw, sw_port_to_dst)
}

/// Mean goodput (bits/s) of `flow` over [t0, t1] from delivered bytes.
fn goodput_over(
    trace: &Trace,
    flow: FlowId,
    delivered_at_t0: u64,
    window: SimDuration,
) -> f64 {
    (trace.delivered_bytes(flow) - delivered_at_t0) as f64 * 8.0 / window.as_secs_f64()
}

#[test]
fn two_flows_split_bottleneck_fairly() {
    let (mut sim, flows, _, _) = dumbbell(2, 40);
    // Warm-up past the cold-start transient: after an initial MD slam the
    // auto-tuner infers a large N from the small F and climbs cautiously,
    // so N=2 converges in ~6 ms (cf. Fig. 8's few-ms convergence).
    sim.run_until(SimTime::from_millis(8));
    let base: Vec<u64> = flows
        .iter()
        .map(|f| sim.trace.delivered_bytes(*f))
        .collect();
    let w = SimDuration::from_millis(8);
    sim.run_until(SimTime::from_millis(16));
    for (i, f) in flows.iter().enumerate() {
        let g = goodput_over(&sim.trace, *f, base[i], w);
        let ideal = 20e9 * (1000.0 / 1048.0); // payload share of wire rate
        let err = (g - ideal).abs() / ideal;
        assert!(
            err < 0.12,
            "flow {i}: goodput {:.2} Gb/s vs ideal {:.2} Gb/s",
            g / 1e9,
            ideal / 1e9
        );
    }
    assert_eq!(sim.trace.drops, 0);
}

#[test]
fn ten_flows_split_bottleneck_fairly() {
    let (mut sim, flows, _, _) = dumbbell(10, 40);
    sim.run_until(SimTime::from_millis(4));
    let base: Vec<u64> = flows
        .iter()
        .map(|f| sim.trace.delivered_bytes(*f))
        .collect();
    let w = SimDuration::from_millis(4);
    sim.run_until(SimTime::from_millis(8));
    let ideal = 4e9 * (1000.0 / 1048.0);
    for (i, f) in flows.iter().enumerate() {
        let g = goodput_over(&sim.trace, *f, base[i], w);
        let err = (g - ideal).abs() / ideal;
        assert!(
            err < 0.15,
            "flow {i}: {:.2} Gb/s vs ideal {:.2} Gb/s",
            g / 1e9,
            ideal / 1e9
        );
    }
}

#[test]
fn queue_stabilizes_near_qref() {
    let (mut sim, _, sw, port) = dumbbell(10, 40);
    sim.trace.sample_period = Some(SimDuration::from_micros(100));
    sim.trace.watch_queue(sw, port);
    sim.run_until(SimTime::from_millis(10));
    // After convergence (last 5 ms), queue must hover near Qref = 150 KB.
    let samples: Vec<f64> = sim.trace.queue_series[0]
        .iter()
        .filter(|s| s.t >= SimTime::from_millis(5))
        .map(|s| s.v)
        .collect();
    assert!(!samples.is_empty());
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    assert!(
        (mean - 150_000.0).abs() < 60_000.0,
        "queue mean {mean:.0} B far from Qref 150 KB"
    );
    // Stability: standard deviation bounded.
    let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    assert!(
        var.sqrt() < 80_000.0,
        "queue too noisy: sd {:.0} B around {mean:.0}",
        var.sqrt()
    );
}

#[test]
fn link_stays_highly_utilized() {
    let (mut sim, _, sw, port) = dumbbell(10, 40);
    sim.run_until(SimTime::from_millis(4));
    let (_, tx0) = sim.switch(sw).snapshot(port, sim.kernel.now);
    sim.run_until(SimTime::from_millis(8));
    let (_, tx1) = sim.switch(sw).snapshot(port, sim.kernel.now);
    let util = (tx1 - tx0) as f64 * 8.0 / 4e-3 / 40e9;
    assert!(util > 0.9, "bottleneck utilization {util:.3} below 90%");
}

#[test]
fn no_pfc_once_converged() {
    // RoCC's claim: stable queues make PFC rare — after convergence the
    // queue sits at Qref, far under the 500 KB PFC threshold.
    let (mut sim, _, _, _) = dumbbell(10, 40);
    sim.run_until(SimTime::from_millis(4));
    let pfc_before = sim.trace.pfc_events.len();
    sim.run_until(SimTime::from_millis(12));
    let pfc_after = sim.trace.pfc_events.len();
    assert_eq!(
        pfc_before, pfc_after,
        "PFC fired after convergence ({pfc_before} -> {pfc_after})"
    );
}

#[test]
fn multi_bottleneck_flow_takes_most_congested_rate() {
    // Fig. 10 topology, miniature: D0 crosses two CPs (S0→S1 inter-switch
    // 40G shared with D1..D4, S1→B0 10G shared with D5). Expected: D0 and
    // D5 split the 10G egress (5 Gb/s each); D1..D4 share what remains of
    // the 40 G trunk (8.75 Gb/s each).
    let mut b = TopologyBuilder::new();
    let s0 = b.add_switch("s0", NodeRole::EdgeSwitch);
    let s1 = b.add_switch("s1", NodeRole::EdgeSwitch);
    b.connect(s0, s1, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let a0 = b.add_host("a0");
    b.connect(a0, s0, BitRate::from_gbps(10), SimDuration::from_micros(1));
    let b5 = b.add_host("b5");
    b.connect(b5, s1, BitRate::from_gbps(10), SimDuration::from_micros(1));
    let b0 = b.add_host("b0");
    b.connect(b0, s1, BitRate::from_gbps(10), SimDuration::from_micros(1));
    let mut senders = Vec::new();
    let mut receivers = Vec::new();
    for i in 1..=4 {
        let ai = b.add_host(format!("a{i}"));
        b.connect(ai, s0, BitRate::from_gbps(10), SimDuration::from_micros(1));
        let bi = b.add_host(format!("b{i}"));
        b.connect(bi, s1, BitRate::from_gbps(10), SimDuration::from_micros(1));
        senders.push(ai);
        receivers.push(bi);
    }
    let topo = b.build();
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(RoccHostCcFactory::new()),
        Box::new(RoccSwitchCcFactory::new()),
    );
    let offered = Some(BitRate::from_gbps(10).scale(0.9));
    // D0: a0 → b0 (two CPs), D5: b5 → b0... wait b5 and b0 both on s1.
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: a0,
        dst: b0,
        size: u64::MAX,
        start: SimTime::ZERO,
        offered,
    });
    sim.add_flow(FlowSpec {
        id: FlowId(5),
        src: b5,
        dst: b0,
        size: u64::MAX,
        start: SimTime::ZERO,
        offered,
    });
    for (i, (&s, &d)) in senders.iter().zip(&receivers).enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(1 + i as u64),
            src: s,
            dst: d,
            size: u64::MAX,
            start: SimTime::ZERO,
            offered,
        });
    }
    // 10G access links run the testbed profile (T = 100 µs), so allow a
    // longer convergence runway before measuring.
    sim.run_until(SimTime::from_millis(20));
    let base: Vec<u64> = (0..6)
        .map(|i| sim.trace.delivered_bytes(FlowId(i)))
        .collect();
    let w = SimDuration::from_millis(12);
    sim.run_until(SimTime::from_millis(32));
    let good: Vec<f64> = (0..6)
        .map(|i| goodput_over(&sim.trace, FlowId(i as u64), base[i], w) / 1e9)
        .collect();
    let eff = 1000.0 / 1048.0;
    // D0 and D5 each ≈ 5 Gb/s.
    for i in [0usize, 5] {
        let ideal = 5.0 * eff;
        assert!(
            (good[i] - ideal).abs() / ideal < 0.2,
            "D{i} got {:.2} Gb/s, expected ≈{ideal:.2}",
            good[i]
        );
    }
    // D1..D4 each ≈ 8.75 Gb/s — capped by their 10G access links at 9 Gb/s
    // offered; fair share of the 35 G remaining trunk is 8.75.
    for (i, g) in good.iter().enumerate().take(5).skip(1) {
        let ideal = 8.75 * eff;
        assert!(
            (g - ideal).abs() / ideal < 0.2,
            "D{i} got {g:.2} Gb/s, expected ≈{ideal:.2}"
        );
    }
}

#[test]
fn host_computed_mode_matches_switch_computed() {
    // §3.6: moving the rate computation to the host must preserve the
    // equilibrium — fair split and queue at Qref.
    use rocc_core::HostCalcRoccFactory;
    let run = |host_mode: bool| -> (Vec<f64>, f64) {
        let mut b = TopologyBuilder::new();
        let sw = b.add_switch("sw", NodeRole::Switch);
        let dst = b.add_host("dst");
        let (port, _) = b.connect(sw, dst, BitRate::from_gbps(40), SimDuration::from_micros(1));
        let mut srcs = Vec::new();
        for i in 0..4 {
            let h = b.add_host(format!("s{i}"));
            b.connect(h, sw, BitRate::from_gbps(40), SimDuration::from_micros(1));
            srcs.push(h);
        }
        let (hf, sf): (
            Box<dyn rocc_sim::cc::HostCcFactory>,
            Box<dyn rocc_sim::cc::SwitchCcFactory>,
        ) = if host_mode {
            (
                Box::new(HostCalcRoccFactory::default()),
                Box::new(RoccSwitchCcFactory::new().host_computed()),
            )
        } else {
            (
                Box::new(RoccHostCcFactory::new()),
                Box::new(RoccSwitchCcFactory::new()),
            )
        };
        let mut sim = Sim::new(b.build(), SimConfig::default(), hf, sf);
        sim.trace.sample_period = Some(SimDuration::from_micros(100));
        sim.trace.watch_queue(sw, port);
        for (i, &s) in srcs.iter().enumerate() {
            sim.add_flow(FlowSpec {
                id: FlowId(i as u64),
                src: s,
                dst,
                size: u64::MAX,
                start: SimTime::ZERO,
                offered: Some(BitRate::from_gbps(36)),
            });
        }
        sim.run_until(SimTime::from_millis(8));
        let base: Vec<u64> = (0..4)
            .map(|i| sim.trace.delivered_bytes(FlowId(i as u64)))
            .collect();
        sim.run_until(SimTime::from_millis(16));
        let rates: Vec<f64> = (0..4)
            .map(|i| {
                (sim.trace.delivered_bytes(FlowId(i as u64)) - base[i]) as f64 * 8.0 / 8e-3
            })
            .collect();
        let tail: Vec<f64> = sim.trace.queue_series[0]
            .iter()
            .filter(|s| s.t >= SimTime::from_millis(8))
            .map(|s| s.v)
            .collect();
        let qmean = tail.iter().sum::<f64>() / tail.len() as f64;
        (rates, qmean)
    };
    let (switch_rates, switch_q) = run(false);
    let (host_rates, host_q) = run(true);
    let ideal = 10e9 * (1000.0 / 1048.0);
    for (i, (s, h)) in switch_rates.iter().zip(&host_rates).enumerate() {
        assert!(
            (s - ideal).abs() / ideal < 0.1,
            "switch mode flow {i}: {:.2} Gb/s",
            s / 1e9
        );
        assert!(
            (h - ideal).abs() / ideal < 0.1,
            "host mode flow {i}: {:.2} Gb/s",
            h / 1e9
        );
    }
    // Both modes hold the queue near Qref.
    assert!(
        (switch_q - 150_000.0).abs() < 50_000.0,
        "switch-mode queue {switch_q:.0}"
    );
    assert!(
        (host_q - 150_000.0).abs() < 75_000.0,
        "host-mode queue {host_q:.0} (coarser: replicas only hear while flows are queued)"
    );
}
