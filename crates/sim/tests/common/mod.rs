//! The fixture the determinism suites share: the golden chaos incast.

use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;

/// `n` senders and one receiver on one switch; every link `gbps`, 1 µs.
pub fn dumbbell(n: usize, gbps: u64) -> (Topology, Vec<NodeId>, NodeId) {
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

/// The golden chaos incast, built but not run: a 6-sender incast with
/// data loss, CNP loss and a mid-run link flap, RoCC end to end. The
/// golden-engine, scheduler, snapshot and digest suites all pin this
/// scenario on seeds 1/7/42; the restore protocol rebuilds it with the
/// same call before restoring into it.
pub fn build_chaos(seed: u64) -> Sim {
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
    sim
}
