//! One run loop, four ways in. `run_until_flows_done`, `step`,
//! `run_until` and `run_until_event` are the same loop under different
//! stop conditions, so a sim must stand in the same state at the same
//! event index whichever of them brought it there — with the sanitizer,
//! the digest ledger and auto-checkpointing all observing along the way.
//! (That every run budget binds under each of them is pinned beside the
//! budgets' own tests in `engine.rs`.)

mod common;

use common::build_chaos;
use rocc_sim::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

const HORIZON: SimTime = SimTime::from_millis(100);
const STRIDE: u64 = 1000;

#[derive(Clone, Copy, Debug)]
enum Drive {
    /// One `run_until_flows_done` call.
    Whole,
    /// `step()` until the flows are done.
    Steps,
    /// `run_until` in 100 µs slices.
    Slices,
    /// `run_until_event` in chunks of pseudo-random size.
    Chunks,
}

/// What one driven run leaves behind.
struct Outcome {
    /// Auto-checkpoints, `(event index, snapshot bytes)`.
    checkpoints: Vec<(u64, Vec<u8>)>,
    /// Digest-ledger rows, one JSONL line each.
    ledger: Vec<String>,
    /// `Sim::snapshot` taken by hand at event `STRIDE` (drivers that can
    /// stop there).
    at_stride: Option<Vec<u8>>,
    /// Event count at the last flow completion (drivers that stop there).
    done_at: Option<u64>,
    verdict: String,
}

/// The golden chaos incast with a second 1 MB flow beside each sender's
/// first, both starting at 0: long enough for well over 50 strides.
fn chaos_with_twice_the_data(seed: u64) -> Sim {
    let mut sim = build_chaos(seed);
    let first = sim.flows().to_vec();
    for f in &first {
        sim.add_flow(FlowSpec { id: FlowId(f.id.0 + first.len() as u64), ..*f });
    }
    sim
}

fn drive(seed: u64, how: Drive) -> Outcome {
    let mut sim = chaos_with_twice_the_data(seed);
    sim.enable_sanitizer();
    sim.enable_digest_ledger(STRIDE);
    let taken = Rc::new(RefCell::new(Vec::<(u64, Vec<u8>)>::new()));
    let sink = Rc::clone(&taken);
    sim.enable_auto_checkpoint(
        STRIDE,
        Box::new(move |events, bytes| sink.borrow_mut().push((events, bytes.to_vec()))),
    );
    let flows_done = |sim: &Sim| sim.trace.fcts.len() == sim.flows().len();
    let (mut at_stride, mut done_at) = (None, None);
    match how {
        Drive::Whole => {}
        Drive::Steps => {
            while !flows_done(&sim) {
                assert!(sim.step(), "seed {seed}: drained before the flows finished");
                if sim.events_processed() == STRIDE {
                    at_stride = Some(sim.snapshot());
                }
            }
            done_at = Some(sim.events_processed());
        }
        Drive::Slices => {
            let mut t = SimTime::ZERO;
            while !flows_done(&sim) {
                t += SimDuration::from_micros(100);
                sim.run_until(t);
            }
        }
        Drive::Chunks => {
            // Stop at STRIDE once, then chunks of 1..=4096 events.
            assert!(sim.run_until_event(STRIDE));
            at_stride = Some(sim.snapshot());
            let mut x = seed;
            while !flows_done(&sim) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let target = sim.events_processed() + 1 + (x >> 52);
                assert!(sim.run_until_event(target), "seed {seed}: drained early");
                assert_eq!(sim.events_processed(), target);
            }
        }
    }
    // Every driver ends in the run that owns the verdict (and the final
    // audit); for all but `Whole` it has nothing left to dispatch.
    let before = sim.events_processed();
    let verdict = sim.run_until_flows_done(HORIZON);
    match how {
        Drive::Whole => done_at = Some(sim.events_processed()),
        _ => assert_eq!(sim.events_processed(), before),
    }
    let ledger = sim.take_digest_ledger().expect("enabled above").to_jsonl();
    sim.disable_auto_checkpoint();
    Outcome {
        checkpoints: Rc::try_unwrap(taken).expect("sink dropped").into_inner(),
        ledger: ledger.lines().map(str::to_string).collect(),
        at_stride,
        done_at,
        verdict: verdict.to_json(),
    }
}

#[test]
fn every_entry_point_leaves_the_same_state_at_the_same_event() {
    for seed in [1u64, 7, 42] {
        let whole = drive(seed, Drive::Whole);
        let done_at = whole.done_at.expect("Whole records it");
        assert!(whole.verdict.contains("completed"), "seed {seed}: {}", whole.verdict);
        let cuts = (done_at / STRIDE) as usize;
        assert!(cuts > 50, "seed {seed}: run too short to compare: {done_at} events");
        assert_eq!((whole.checkpoints.len(), whole.ledger.len()), (cuts, cuts));
        assert_eq!(whole.checkpoints[0].0, STRIDE);

        for how in [Drive::Steps, Drive::Slices, Drive::Chunks] {
            let other = drive(seed, how);
            let tag = format!("seed {seed}, {how:?}");
            assert_eq!(other.verdict, whole.verdict, "{tag}: verdict");
            if let Some(n) = other.done_at {
                assert_eq!(n, done_at, "{tag}: flows done at a different event");
            }
            // A snapshot taken by hand is the auto-checkpoint's twin.
            if let Some(bytes) = &other.at_stride {
                assert!(
                    *bytes == whole.checkpoints[0].1,
                    "{tag}: stopped at event {STRIDE}, state differs from running through it"
                );
            }
            // Slices and chunks overshoot the last completion; everything
            // up to it is common ground.
            assert!(other.checkpoints.len() >= cuts, "{tag}: checkpoints missing");
            assert!(other.ledger.len() >= cuts, "{tag}: ledger rows missing");
            for (i, (a, b)) in whole.checkpoints.iter().zip(&other.checkpoints).enumerate() {
                assert_eq!(a.0, b.0, "{tag}: checkpoint {i} index");
                assert!(a.1 == b.1, "{tag}: snapshot bytes differ at event {}", a.0);
            }
            assert_eq!(other.ledger[..cuts], whole.ledger[..], "{tag}: ledger rows");
        }
    }
}
