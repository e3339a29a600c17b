//! Edge cases of the simulator mechanics: PFC semantics, control-queue
//! priority, host pause behaviour, timers, windows, and tail-loss recovery.

use rocc_sim::cc::{
    AckEvent, HostCc, HostCcCtx, HostCcFactory, NullHostCcFactory, NullSwitchCcFactory,
    RateDecision,
};
use rocc_sim::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn dumbbell(n: usize, gbps: u64) -> (Topology, Vec<NodeId>, NodeId, NodeId, PortId) {
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let dst = b.add_host("dst");
    let (port, _) = b.connect(sw, dst, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..n {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, sw, BitRate::from_gbps(gbps), SimDuration::from_micros(1));
        srcs.push(h);
    }
    (b.build(), srcs, dst, sw, port)
}

#[test]
fn unlimited_buffer_never_pauses_or_drops() {
    let (topo, srcs, dst, _, _) = dumbbell(8, 10);
    let cfg = SimConfig { buffer_mode: BufferMode::Unlimited, ..SimConfig::default() };
    let mut sim = Sim::new(
        topo,
        cfg,
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 3_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(200)).assert_complete();
    assert_eq!(sim.trace.drops, 0);
    assert!(sim.trace.pfc_events.is_empty());
}

#[test]
fn pfc_resume_follows_pause_and_traffic_completes() {
    // Heavy incast → pauses must be matched by resumes (flows finish, so
    // every paused sender must have been released).
    let (topo, srcs, dst, _, _) = dumbbell(8, 10);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 2_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(200)).assert_complete();
    assert!(
        !sim.trace.pfc_events.is_empty(),
        "8×10G into 10G with 16 MB of data must pause"
    );
    // Completion despite pauses proves resume works; and pauses happened
    // on the switch (the only node with ingress accounting here).
    for e in &sim.trace.pfc_events {
        assert!(sim.topo().node(e.node).role.is_switch());
    }
}

/// Host CC that holds a fixed window of exactly one packet.
struct OnePacketWindow;

impl HostCc for OnePacketWindow {
    fn decision(&self) -> RateDecision {
        RateDecision {
            rate: BitRate::from_gbps(40),
            window_bytes: Some(1), // below one packet: the engine must
                                   // still admit one when nothing in flight
        }
    }
}

// A constant decision: no state.
rocc_sim::cc_state!(OnePacketWindow {});

struct OnePacketWindowFactory;

impl HostCcFactory for OnePacketWindowFactory {
    fn make(&self, _f: FlowId, _r: BitRate) -> Box<dyn HostCc> {
        Box::new(OnePacketWindow)
    }
}

#[test]
fn tiny_window_cannot_deadlock() {
    let (topo, srcs, dst, _, _) = dumbbell(1, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(OnePacketWindowFactory),
        Box::new(NullSwitchCcFactory),
    );
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: srcs[0],
        dst,
        size: 50_000,
        start: SimTime::ZERO,
        offered: None,
    });
    assert!(
        sim.run_until_flows_done(SimTime::from_millis(100)).is_complete(),
        "sub-MTU window must still make progress one packet at a time"
    );
    // Stop-and-wait: FCT is dominated by ~50 RTTs.
    let fct = sim.trace.fcts[0].fct();
    assert!(fct.as_nanos() > 50 * 4_000, "FCT {fct} too fast for stop-and-wait");
}

/// Host CC that counts how often its timer `token` fires, re-arming each
/// time, and cancels after 3 fires.
struct CountingTimerCc {
    token: u8,
    fires: Arc<AtomicU64>,
    armed: bool,
}

impl HostCc for CountingTimerCc {
    fn decision(&self) -> RateDecision {
        RateDecision::line_rate(BitRate::from_gbps(40))
    }

    fn on_ack(&mut self, ctx: &mut HostCcCtx, _ack: AckEvent) {
        if !self.armed {
            self.armed = true;
            ctx.set_timer(self.token, SimDuration::from_micros(50));
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCcCtx, token: u8) {
        assert_eq!(token, self.token);
        let n = self.fires.fetch_add(1, Ordering::Relaxed) + 1;
        if n < 3 {
            ctx.set_timer(token, SimDuration::from_micros(50));
        }
        // After 3 fires: not re-armed → no further events.
    }
}

// `fires` is the test's shared counter, not controller state.
rocc_sim::cc_state!(CountingTimerCc { armed });

struct CountingTimerFactory(u8, Arc<AtomicU64>);

impl HostCcFactory for CountingTimerFactory {
    fn make(&self, _f: FlowId, _r: BitRate) -> Box<dyn HostCc> {
        Box::new(CountingTimerCc {
            token: self.0,
            fires: self.1.clone(),
            armed: false,
        })
    }
}

/// 5 ms of a 1 Gb/s flow under [`CountingTimerCc`] on `token`; returns
/// how often the timer fired.
fn timer_fires(token: u8) -> u64 {
    let fires = Arc::new(AtomicU64::new(0));
    let (topo, srcs, dst, _, _) = dumbbell(1, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(CountingTimerFactory(token, fires.clone())),
        Box::new(NullSwitchCcFactory),
    );
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: srcs[0],
        dst,
        size: u64::MAX,
        start: SimTime::ZERO,
        offered: Some(BitRate::from_gbps(1)),
    });
    sim.run_until(SimTime::from_millis(5));
    fires.load(Ordering::Relaxed)
}

#[test]
fn cc_timers_fire_rearm_and_stop() {
    for token in 0..rocc_sim::host::TIMER_SLOTS as u8 {
        assert_eq!(timer_fires(token), 3, "token {token}: armed once, re-armed twice");
    }
}

#[test]
#[should_panic(expected = "index out of bounds")]
fn out_of_range_cc_timer_token_panics_instead_of_aliasing() {
    // Token 3 used to alias the transport's RTO event.
    timer_fires(rocc_sim::host::RTO_TOKEN);
}

#[test]
fn ecmp_spreads_fat_tree_flows_across_trunks() {
    // Two parallel trunks between two switches; many flows must use both.
    let mut b = TopologyBuilder::new();
    let s0 = b.add_switch("s0", NodeRole::EdgeSwitch);
    let s1 = b.add_switch("s1", NodeRole::EdgeSwitch);
    let (t0, _) = b.connect(s0, s1, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let (t1, _) = b.connect(s0, s1, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let dst = b.add_host("dst");
    b.connect(dst, s1, BitRate::from_gbps(40), SimDuration::from_micros(1));
    let mut srcs = Vec::new();
    for i in 0..8 {
        let h = b.add_host(format!("s{i}"));
        b.connect(h, s0, BitRate::from_gbps(40), SimDuration::from_micros(1));
        srcs.push(h);
    }
    let topo = b.build();
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 500_000,
            start: SimTime::ZERO,
            offered: Some(BitRate::from_gbps(4)),
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
    let (_, tx0) = sim.switch(s0).snapshot(t0, sim.kernel.now);
    let (_, tx1) = sim.switch(s0).snapshot(t1, sim.kernel.now);
    assert!(tx0 > 0 && tx1 > 0, "both trunks must carry data: {tx0} / {tx1}");
}

#[test]
fn tail_loss_recovers_via_rto() {
    // Tiny tail-drop buffer with a single huge burst: the *last* packets
    // of the flow can be dropped with no later packet to trigger a NACK —
    // only the RTO can recover. Completion proves the timeout path works.
    let (topo, srcs, dst, _, _) = dumbbell(4, 10);
    let cfg = SimConfig {
        buffer_mode: BufferMode::LossyTailDrop { limit_bytes: 8_000 },
        ..SimConfig::default()
    };
    let mut sim = Sim::new(
        topo,
        cfg,
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    for (i, &s) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst,
            size: 100_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    assert!(
        sim.run_until_flows_done(SimTime::from_millis(1000)).is_complete(),
        "flows stuck: drops={} retx={}",
        sim.trace.drops,
        sim.trace.retx_bytes
    );
    assert!(sim.trace.drops > 0);
    for i in 0..4 {
        assert_eq!(sim.trace.delivered_bytes(FlowId(i)), 100_000);
    }
}

#[test]
fn acks_flow_even_while_data_is_pfc_paused() {
    // Bidirectional setup: A sends bulk to B while B sends bulk to A.
    // When B's uplink is paused for data, B's ACKs (control class) keep
    // flowing so A's transport never stalls on feedback.
    let mut b = TopologyBuilder::new();
    let sw = b.add_switch("sw", NodeRole::Switch);
    let a = b.add_host("a");
    let c = b.add_host("c");
    let bb = b.add_host("b");
    for h in [a, c, bb] {
        b.connect(h, sw, BitRate::from_gbps(10), SimDuration::from_micros(1));
    }
    let topo = b.build();
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    // Two senders incast b (drives PFC pauses toward a and c), while b
    // itself sends data back to a.
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: a,
        dst: bb,
        size: 3_000_000,
        start: SimTime::ZERO,
        offered: None,
    });
    sim.add_flow(FlowSpec {
        id: FlowId(1),
        src: c,
        dst: bb,
        size: 3_000_000,
        start: SimTime::ZERO,
        offered: None,
    });
    sim.add_flow(FlowSpec {
        id: FlowId(2),
        src: bb,
        dst: a,
        size: 3_000_000,
        start: SimTime::ZERO,
        offered: None,
    });
    sim.run_until_flows_done(SimTime::from_millis(300)).assert_complete();
    assert!(!sim.trace.pfc_events.is_empty(), "incast must pause");
    assert_eq!(sim.trace.drops, 0);
    assert_eq!(sim.trace.fcts.len(), 3);
}

#[test]
fn zero_size_edge_flows() {
    // A 1-byte flow completes with a sane FCT.
    let (topo, srcs, dst, _, _) = dumbbell(1, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: srcs[0],
        dst,
        size: 1,
        start: SimTime::ZERO,
        offered: None,
    });
    sim.run_until_flows_done(SimTime::from_millis(10)).assert_complete();
    let fct = sim.trace.fcts[0].fct();
    // Two 1 µs hops + store-and-forward of a 49 B frame: just over 2 µs.
    assert!(fct.as_nanos() > 2_000 && fct.as_nanos() < 20_000, "FCT {fct}");
}

#[test]
fn simultaneous_flows_same_host_pair_are_independent() {
    // Many flows between one src/dst pair: per-flow sequence spaces and
    // FCTs must not interfere.
    let (topo, srcs, dst, _, _) = dumbbell(1, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(NullHostCcFactory),
        Box::new(NullSwitchCcFactory),
    );
    for i in 0..16 {
        sim.add_flow(FlowSpec {
            id: FlowId(i),
            src: srcs[0],
            dst,
            size: 10_000 * (i + 1),
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
    assert_eq!(sim.trace.fcts.len(), 16);
    for i in 0..16 {
        assert_eq!(sim.trace.delivered_bytes(FlowId(i)), 10_000 * (i + 1));
    }
}
