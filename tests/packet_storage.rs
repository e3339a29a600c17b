//! How the engine stores packets, seen from the schemes: only a scheme
//! that stamps INT grows the slab's hop storage, and an HPCC ACK carries
//! back exactly the hops its data packet was stamped with.

use rocc::baselines::{HpccHostCcFactory, HpccSwitchCcFactory};
use rocc::experiments::micro::sim_with;
use rocc::experiments::scenarios::dumbbell;
use rocc::experiments::Scheme;
use rocc::sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A 4-to-1 incast of 200 kB flows under `scheme`, run to completion.
fn incast(scheme: Scheme) -> Sim {
    let d = dumbbell(4, BitRate::from_gbps(40));
    let mut sim = sim_with(d.topo, scheme, 12, SimConfig::default());
    for (i, &src) in d.senders.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src,
            dst: d.receiver,
            size: 200_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(50)).assert_complete();
    sim
}

#[test]
fn only_int_stamping_schemes_grow_hop_storage() {
    let rocc = incast(Scheme::Rocc);
    assert!(rocc.kernel.packets.peak_live() > 0);
    assert_eq!(rocc.kernel.packets.hop_slots(), 0, "RoCC stamps no hops");
    let hpcc = incast(Scheme::Hpcc);
    assert!(hpcc.kernel.packets.hop_slots() > 0, "HPCC stamps every data packet");
}

type Log<T> = Rc<RefCell<Vec<T>>>;

/// HPCC's switch side, logging every hop it stamps with its port.
struct LoggedStamps {
    inner: Box<dyn SwitchCc>,
    cp: CpId,
    log: Log<(CpId, IntHop)>,
}

impl SwitchCc for LoggedStamps {
    fn on_dequeue(&mut self, ctx: &mut SwitchCcCtx<'_>, pkt: PacketMeta) -> Option<IntHop> {
        let hop = self.inner.on_dequeue(ctx, pkt);
        if let Some(h) = hop {
            self.log.borrow_mut().push((self.cp, h));
        }
        hop
    }

    fn snapshot_state(&self, out: &mut Vec<u64>) {
        self.inner.snapshot_state(out);
    }

    fn restore_state(&mut self, state: &[u64]) {
        self.inner.restore_state(state);
    }
}

struct LoggedStampsFactory(Log<(CpId, IntHop)>);

impl SwitchCcFactory for LoggedStampsFactory {
    fn make(&self, cp: CpId, link_rate: BitRate) -> Box<dyn SwitchCc> {
        Box::new(LoggedStamps {
            inner: HpccSwitchCcFactory.make(cp, link_rate),
            cp,
            log: Rc::clone(&self.0),
        })
    }
}

/// HPCC's sender, logging the hops every ACK echoes.
struct LoggedAcks {
    inner: Box<dyn HostCc>,
    log: Log<Vec<IntHop>>,
}

impl HostCc for LoggedAcks {
    fn decision(&self) -> RateDecision {
        self.inner.decision()
    }

    fn on_ack(&mut self, ctx: &mut HostCcCtx, ack: AckEvent) {
        self.log.borrow_mut().push(ack.int.hops().to_vec());
        self.inner.on_ack(ctx, ack);
    }

    fn snapshot_state(&self, out: &mut Vec<u64>) {
        self.inner.snapshot_state(out);
    }

    fn restore_state(&mut self, state: &[u64]) {
        self.inner.restore_state(state);
    }
}

struct LoggedAcksFactory(Log<Vec<IntHop>>);

impl HostCcFactory for LoggedAcksFactory {
    fn make(&self, flow: FlowId, link_rate: BitRate) -> Box<dyn HostCc> {
        Box::new(LoggedAcks {
            inner: HpccHostCcFactory::default().make(flow, link_rate),
            log: Rc::clone(&self.0),
        })
    }
}

/// h0 → s1 → s2 → h1, one 50-packet HPCC flow. Both switches stamp every
/// data packet; neither stamps an ACK. In FIFO order with no loss, ACK k
/// echoes data packet k's two stamps, and every ACK is 64 + 2 + 8·2 bytes
/// on the wire, which s1's port toward h0 (ACKs only) counts.
#[test]
fn hpcc_acks_echo_exactly_the_stamped_hops() {
    let mut b = TopologyBuilder::new();
    let (rate, delay) = (BitRate::from_gbps(40), SimDuration::from_micros(1));
    let h0 = b.add_host("h0");
    let s1 = b.add_switch("s1", NodeRole::Switch);
    let s2 = b.add_switch("s2", NodeRole::Switch);
    let h1 = b.add_host("h1");
    let (_, s1_to_h0) = b.connect(h0, s1, rate, delay);
    let (s1_to_s2, _) = b.connect(s1, s2, rate, delay);
    let (s2_to_h1, _) = b.connect(s2, h1, rate, delay);
    let stamps: Log<(CpId, IntHop)> = Rc::default();
    let acks: Log<Vec<IntHop>> = Rc::default();
    let mut sim = Sim::new(
        b.build(),
        SimConfig::default(),
        Box::new(LoggedAcksFactory(Rc::clone(&acks))),
        Box::new(LoggedStampsFactory(Rc::clone(&stamps))),
    );
    let packets = 50;
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: h0,
        dst: h1,
        size: packets * 1000,
        start: SimTime::ZERO,
        offered: None,
    });
    sim.run_until_flows_done(SimTime::from_millis(5)).assert_complete();
    // The flow is done when its last byte lands; its last ACKs are still
    // on the wire.
    sim.run_until(SimTime::from_millis(5));

    let at = |node, port| -> Vec<IntHop> {
        let cp = CpId { node, port };
        stamps.borrow().iter().filter(|s| s.0 == cp).map(|s| s.1).collect()
    };
    let (first, second) = (at(s1, s1_to_s2), at(s2, s2_to_h1));
    assert_eq!(stamps.borrow().len(), 2 * packets as usize, "only data is stamped");
    let acks = acks.borrow();
    assert_eq!(acks.len(), packets as usize);
    for (k, echoed) in acks.iter().enumerate() {
        assert_eq!(echoed, &[first[k], second[k]], "ACK {k}");
    }
    let ack_bytes = 64 + 2 + 8 * 2;
    assert_eq!(sim.switch(s1).snapshot(s1_to_h0).1, packets * ack_bytes);
}
