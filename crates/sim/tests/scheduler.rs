//! Scheduler reference suite: `BinaryHeap<Reverse<Scheduled>>` over
//! `Scheduled`'s `Ord` is the reference model for the engine's timing
//! wheel (see DESIGN.md §3j). A full chaos-grade simulation — loss, CNP
//! loss, a link flap, RoCC end to end — is stepped on the real engine, its
//! push/pop stream recorded, and the same pushes replayed through the
//! heap: the heap must pop exactly the `(at, seq)` sequence the engine
//! dispatched. The recorded run is the golden chaos incast with twice the
//! data, so every seed records more than 60,000 pops.

mod common;

use common::{build_chaos, dumbbell};
use rocc_core::{RoccHostCcFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// `(at ns, seq)` of the next event to dispatch, parsed from
/// `Sim::next_event_brief` (`"[at N ns, seq S] Kind { .. }"`).
fn next_event(sim: &Sim) -> Option<(u64, u64)> {
    let brief = sim.next_event_brief()?;
    let (at, rest) = brief.strip_prefix("[at ")?.split_once(" ns, seq ")?;
    let (seq, _kind) = rest.split_once("] ")?;
    Some((at.parse().ok()?, seq.parse().ok()?))
}

fn scheduled(at: u64, seq: u64) -> Reverse<Scheduled> {
    Reverse(Scheduled { at: SimTime::from_nanos(at), seq, ev: Event::Sample })
}

/// The golden chaos incast with a second 1 MB flow beside each sender's
/// first, both starting at 0.
fn chaos_with_twice_the_data(seed: u64) -> Sim {
    let mut sim = build_chaos(seed);
    let first = sim.flows().to_vec();
    for f in &first {
        sim.add_flow(FlowSpec { id: FlowId(f.id.0 + first.len() as u64), ..*f });
    }
    sim
}

#[test]
fn engine_pop_order_matches_the_heap_reference() {
    for seed in [1u64, 7, 42] {
        // Record: per dispatched event, what popped and which sequence
        // numbers the dispatch pushed (the kernel numbers pushes 1, 2, …).
        let mut sim = chaos_with_twice_the_data(seed);
        let flows = sim.flows().len();
        let initial = sim.profiled_pushes();
        let mut steps = Vec::new();
        while sim.trace.fcts.len() < flows {
            let (at, seq) = next_event(&sim).expect("queue drained before the flows finished");
            let before = sim.profiled_pushes();
            assert!(sim.step());
            steps.push((at, seq, before, sim.profiled_pushes()));
        }
        assert!(steps.len() > 60_000, "seed {seed}: run too short: {}", steps.len());
        // An event's due time is only seen when it pops; pushes that never
        // pop in the window are left out (they sort after every recorded
        // pop, so the recorded order is unaffected).
        let due: HashMap<u64, u64> = steps.iter().map(|&(at, seq, _, _)| (seq, at)).collect();

        // Replay the same pushes through the reference model.
        let mut heap = BinaryHeap::new();
        let push = |heap: &mut BinaryHeap<_>, seqs: std::ops::RangeInclusive<u64>| {
            for seq in seqs {
                if let Some(&at) = due.get(&seq) {
                    heap.push(scheduled(at, seq));
                }
            }
        };
        push(&mut heap, 1..=initial);
        for (i, &(at, seq, before, after)) in steps.iter().enumerate() {
            let Reverse(got) = heap.pop().expect("reference ran dry");
            assert_eq!(
                (got.at.as_nanos(), got.seq),
                (at, seq),
                "seed {seed}: engine dispatch {i} is not the reference minimum"
            );
            push(&mut heap, before + 1..=after);
        }
        assert!(heap.is_empty(), "seed {seed}: reference holds events the engine never popped");
    }
}

#[test]
fn wheel_actually_cascades_on_a_real_workload() {
    // Guard against a degenerate wheel that keeps everything in level 0:
    // a real run schedules timers far enough out (CP ticks, CC timers,
    // retransmit deadlines) that upper levels must see traffic.
    let (topo, srcs, dst) = dumbbell(6, 40);
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
            size: 1_000_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim.run_until_flows_done(SimTime::from_millis(100)).assert_complete();
    let stats = sim.kernel.scheduler_stats();
    assert!(
        stats.cascades > 0,
        "wheel never cascaded — everything landed in level 0?"
    );
    assert!(stats.cascaded_events >= stats.cascades);
    assert!(
        stats.max_level >= 1,
        "no event ever reached an overflow level"
    );
}
