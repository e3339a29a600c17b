//! Invariant-sanitizer + PFC-watchdog integration suite.
//!
//! Three properties are pinned down here:
//!
//! 1. **Deadlock diagnosis** — a ring of PFC switches with crossing flows
//!    forms the classic cyclic buffer dependency; the run fails with a
//!    [`SimError::PfcDeadlock`] that names the exact pause cycle, both with
//!    the sanitizer on (confirmed mid-run by the watchdog) and off (one-shot
//!    scan at the stall).
//! 2. **Victim attribution** — an innocent flow sharing a paused trunk with
//!    an incast is attributed as a pause victim while the run still
//!    completes.
//! 3. **Typed verdicts** — `RunVerdict`/`SimError` render stable JSON for
//!    CI artifact collection, and invalid configurations are rejected
//!    before the simulation starts.

use rocc_sim::prelude::*;

/// Five switches in a ring, one host per switch, each host sending two
/// switch-hops clockwise: every trunk carries two line-rate flows, so every
/// trunk ingress fills, pauses its upstream trunk egress, and the pause
/// wait-for graph closes into a 5-cycle.
fn pfc_ring(n: usize) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let mut sws = Vec::new();
    let mut hosts = Vec::new();
    for i in 0..n {
        sws.push(b.add_switch(format!("s{i}"), NodeRole::Switch));
    }
    for i in 0..n {
        b.connect(
            sws[i],
            sws[(i + 1) % n],
            BitRate::from_gbps(40),
            SimDuration::from_micros(1),
        );
    }
    for (i, &s) in sws.iter().enumerate() {
        let h = b.add_host(format!("h{i}"));
        b.connect(h, s, BitRate::from_gbps(40), SimDuration::from_micros(1));
        hosts.push(h);
    }
    (b.build(), sws, hosts)
}

fn deadlock_prone_config() -> SimConfig {
    SimConfig {
        // Small PFC headroom makes the cyclic dependency form fast.
        pfc: PfcConfig {
            xoff_40g: kb(20),
            xoff_100g: kb(20),
            resume_frac: 0.1,
        },
        ..SimConfig::default()
    }
}

fn add_ring_flows(sim: &mut Sim, hosts: &[NodeId]) {
    let n = hosts.len();
    for i in 0..n {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: hosts[i],
            dst: hosts[(i + 2) % n],
            size: 100_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
}

fn null_sim(topo: Topology, cfg: SimConfig) -> Sim {
    Sim::new(
        topo,
        cfg,
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    )
}

#[test]
fn ring_deadlock_is_diagnosed_with_the_exact_pause_cycle() {
    let (topo, sws, hosts) = pfc_ring(5);
    let mut sim = null_sim(topo, deadlock_prone_config());
    sim.enable_sanitizer();
    add_ring_flows(&mut sim, &hosts);
    let verdict = sim.run_until_flows_done(SimTime::from_millis(50));
    let Some(SimError::PfcDeadlock {
        detected_at,
        cycle,
        ..
    }) = verdict.err()
    else {
        panic!("expected PfcDeadlock, got {verdict:?}");
    };
    assert!(*detected_at > SimTime::ZERO);
    // The cycle traverses every trunk egress exactly once.
    assert_eq!(cycle.len(), 5, "ring cycle must have 5 nodes: {cycle:?}");
    let mut on_cycle: Vec<NodeId> = cycle.iter().map(|c| c.node).collect();
    on_cycle.sort_by_key(|n| n.0);
    let mut expect = sws.clone();
    expect.sort_by_key(|n| n.0);
    assert_eq!(on_cycle, expect, "every ring switch sits on the cycle");
    for c in cycle {
        assert!(
            c.ingress_buffered > 0,
            "cycle node must be pinned by downstream ingress occupancy: {c:?}"
        );
    }
    // The watchdog saw sustained pauses on the trunks.
    let report = sim.sanitizer().report();
    assert!(report.max_pause_fraction > 0.5, "{report:?}");
    assert!(report.max_pause_depth >= 5, "{report:?}");
}

#[test]
fn ring_deadlock_is_diagnosed_even_with_the_sanitizer_off() {
    let (topo, _, hosts) = pfc_ring(5);
    let mut sim = null_sim(topo, deadlock_prone_config());
    add_ring_flows(&mut sim, &hosts);
    let verdict = sim.run_until_flows_done(SimTime::from_millis(50));
    let Some(SimError::PfcDeadlock { cycle, .. }) = verdict.err() else {
        panic!("expected PfcDeadlock, got {verdict:?}");
    };
    assert_eq!(cycle.len(), 5);
    let json = verdict.to_json();
    assert!(json.contains("\"verdict\":\"pfc_deadlock\""), "{json}");
    assert!(json.contains("\"cycle\":"), "{json}");
}

/// Incast through a two-switch trunk: flows 0 and 1 overload one receiver
/// while flow 2 (to an idle receiver) merely shares the trunk. PFC pauses
/// the trunk head-of-line; the watchdog must attribute flow 2 as a victim,
/// and the run must still complete (no deadlock in a tree).
#[test]
fn innocent_flow_behind_a_paused_trunk_is_attributed_as_victim() {
    let mut b = TopologyBuilder::new();
    let a = b.add_switch("a", NodeRole::Switch);
    let bb = b.add_switch("b", NodeRole::Switch);
    b.connect(a, bb, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut senders = Vec::new();
    for i in 0..3 {
        let h = b.add_host(format!("h{i}"));
        b.connect(h, a, BitRate::from_gbps(10), SimDuration::from_micros(1));
        senders.push(h);
    }
    let r1 = b.add_host("r1");
    let r2 = b.add_host("r2");
    b.connect(bb, r1, BitRate::from_gbps(10), SimDuration::from_micros(1));
    b.connect(bb, r2, BitRate::from_gbps(10), SimDuration::from_micros(1));

    let cfg = SimConfig {
        pfc: PfcConfig {
            xoff_40g: kb(30),
            xoff_100g: kb(30),
            resume_frac: 0.5,
        },
        ..SimConfig::default()
    };
    let mut sim = null_sim(b.build(), cfg);
    // Pause windows are tens of microseconds; audit fast enough to see them.
    sim.enable_sanitizer_with_period(SimDuration::from_micros(2));
    for (i, &s) in senders.iter().enumerate() {
        let dst = if i < 2 { r1 } else { r2 };
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 2_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();
    let report = sim.sanitizer().report();
    assert!(
        report.victims.contains(&FlowId(2)),
        "flow 2 never touches the hot egress yet waits behind its pauses: {report:?}"
    );
    assert!(
        !report.victims.contains(&FlowId(0)) && !report.victims.contains(&FlowId(1)),
        "the incast flows cause the congestion; they are not victims: {report:?}"
    );
    assert!(report.max_pause_fraction > 0.0, "{report:?}");
    assert!(report.violations.is_empty(), "{report:?}");
}

/// Watchdog findings surface on the telemetry bus: with the SANITIZER event
/// class collected, pause wait-for edges appear on the timeline as they are
/// discovered and a failed run closes with a `verdict` event naming its
/// kind and cycle length.
#[test]
fn watchdog_findings_appear_on_the_telemetry_timeline() {
    let (topo, _, hosts) = pfc_ring(5);
    let mut sim = null_sim(topo, deadlock_prone_config());
    sim.enable_sanitizer();
    sim.trace.telemetry.collect(EventMask::ALL);
    add_ring_flows(&mut sim, &hosts);
    let verdict = sim.run_until_flows_done(SimTime::from_millis(50));
    assert!(!verdict.is_complete());
    let events = &sim.trace.telemetry.events;
    let edges: Vec<SimEvent> = events
        .iter()
        .filter(|e| e.to_json().contains("\"type\":\"pause_edge\""))
        .collect();
    assert!(!edges.is_empty(), "no pause edges on the timeline");
    let verdicts: Vec<String> = events
        .iter()
        .map(|e| e.to_json())
        .filter(|j| j.contains("\"type\":\"verdict\""))
        .collect();
    assert_eq!(verdicts.len(), 1, "exactly one closing verdict event");
    assert!(verdicts[0].contains("pfc_deadlock"), "{}", verdicts[0]);
    assert!(verdicts[0].contains("\"cycle_len\":5"), "{}", verdicts[0]);
}

#[test]
fn completed_verdict_renders_json() {
    let v = RunVerdict::Completed { flows: 3 };
    assert!(v.is_complete());
    assert_eq!(v.err(), None);
    assert_eq!(v.to_json(), "{\"verdict\":\"completed\",\"flows\":3}");
}

#[test]
fn failure_verdicts_render_their_kind_and_fields() {
    let drained = RunVerdict::Failed(SimError::Drained {
        at: SimTime::from_micros(7),
        incomplete_flows: 2,
    });
    assert!(!drained.is_complete());
    let json = drained.to_json();
    assert!(json.contains("\"verdict\":\"drained\""), "{json}");
    assert!(json.contains("\"incomplete_flows\":2"), "{json}");

    let violation = RunVerdict::Failed(SimError::InvariantViolation {
        at: SimTime::from_micros(9),
        violations: vec!["byte conservation broken: \"quoted\"".into(), "a\nb".into()],
    });
    let json = violation.to_json();
    assert!(json.contains("\"verdict\":\"invariant_violation\""), "{json}");
    assert!(json.contains("\\\"quoted\\\""), "quotes must be escaped: {json}");
    // A raw newline inside a JSON string is invalid JSON (and would split
    // the `ROCC_VERDICT_DIR` dump across lines).
    assert!(json.contains("\"a\\nb\""), "newline must be escaped: {json}");
    assert!(!json.contains('\n'), "{json}");
}

#[test]
#[should_panic(expected = "invalid SimConfig")]
fn invalid_configuration_is_rejected_before_the_run_starts() {
    let mut b = TopologyBuilder::new();
    let h0 = b.add_host("h0");
    let h1 = b.add_host("h1");
    b.connect(h0, h1, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut cfg = SimConfig::default();
    cfg.pfc.resume_frac = -1.0;
    let _ = null_sim(b.build(), cfg);
}
