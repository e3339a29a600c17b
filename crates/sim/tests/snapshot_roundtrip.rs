//! Snapshot/restore round-trip fidelity on the chaos scenario.
//!
//! The property behind sub-cell crash recovery: for ANY event index `k`
//! of a faulted run, `restore(snapshot(sim at k))` into an identically
//! rebuilt sim, run to completion, must reproduce the uninterrupted
//! run's fingerprint bit for bit — event counts, FCT nanoseconds,
//! drop/retransmit/control counters, fault-injection counters — and the
//! same clean sanitizer verdict. The scenario is the same 6-sender
//! incast with data loss, CNP loss and a link flap that pins the golden
//! engine fingerprints, across the golden seeds 1/7/42.

mod common;

use common::build_chaos;
use proptest::prelude::*;
use rocc_sim::prelude::*;
use rocc_sim::snapshot;

/// Everything simulation-visible a finished run produced.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    fcts: Vec<(u64, u64)>,
    drops: u64,
    retx: u64,
    ctrl_emitted: u64,
    injected_drops: u64,
}

fn fingerprint(sim: &Sim) -> Fingerprint {
    Fingerprint {
        events: sim.events_processed(),
        fcts: sim
            .trace
            .fcts
            .iter()
            .map(|r| (r.flow.0, r.end.as_nanos()))
            .collect(),
        drops: sim.trace.drops,
        retx: sim.trace.retx_bytes,
        ctrl_emitted: sim.trace.ctrl_emitted,
        injected_drops: sim.trace.faults.data_lost + sim.trace.faults.ctrl_lost,
    }
}

const HORIZON: SimTime = SimTime::from_millis(100);

/// Uninterrupted reference run: fingerprint plus total event count (the
/// proptest draws its cut points from the latter).
fn reference(seed: u64) -> (Fingerprint, u64) {
    let mut sim = build_chaos(seed);
    let verdict = sim.run_until_flows_done(HORIZON);
    assert!(verdict.is_complete(), "reference must finish: {verdict:?}");
    let f = fingerprint(&sim);
    let events = f.events;
    (f, events)
}

/// Step to event `k`, snapshot, restore into a fresh identically built
/// sim, run to completion; return its fingerprint and the snapshot.
fn roundtrip(seed: u64, k: u64) -> (Fingerprint, Vec<u8>) {
    let mut donor = build_chaos(seed);
    donor.run_until_event(k);
    let bytes = donor.snapshot();

    let mut resumed = build_chaos(seed);
    resumed
        .restore(&bytes)
        .expect("snapshot of an identically built sim must restore");
    assert_eq!(resumed.events_processed(), donor.events_processed());
    let verdict = resumed.run_until_flows_done(HORIZON);
    assert!(verdict.is_complete(), "resumed run must finish: {verdict:?}");
    (fingerprint(&resumed), bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identical resume from an arbitrary cut point of any golden
    /// seed's faulted run.
    #[test]
    fn restore_at_any_event_index_is_bit_identical(
        seed_idx in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        let seed = [1u64, 7, 42][seed_idx];
        let (want, total) = reference(seed);
        let k = (frac * total as f64) as u64;
        let (got, bytes) = roundtrip(seed, k);
        prop_assert_eq!(got, want, "resume from event {} of seed {}", k, seed);

        // The container header tells the truth about the cut point.
        let info = snapshot::inspect(&bytes).expect("snapshot inspects clean");
        prop_assert_eq!(info.seed, seed);
        prop_assert_eq!(info.events_processed, k.min(total));
    }
}

/// The degenerate cut points: before the first event and after the last.
#[test]
fn restore_at_boundaries_is_bit_identical() {
    for seed in [1u64, 7, 42] {
        let (want, total) = reference(seed);
        let (at_start, _) = roundtrip(seed, 0);
        assert_eq!(at_start, want, "resume from event 0 of seed {seed}");
        let (at_end, _) = roundtrip(seed, total);
        assert_eq!(at_end, want, "resume from final event of seed {seed}");
    }
}

/// A cut where some flow's RTO deadline has moved past its queued event
/// (it has sent again since the event was queued): the `host/N` section
/// must carry both, or the resumed flow times out early, late or never.
/// Seed 1 runs past the 4 ms RTO, so the restored event has to chase.
#[test]
fn restore_with_an_rto_deadline_ahead_of_its_queued_event_is_bit_identical() {
    let seed = 1;
    let mut probe = build_chaos(seed);
    // Every flow first sends at t = 0, which queues its event at `rto`.
    let first_event = SimTime::ZERO + probe.kernel.config.rto;
    let deadline_moved = |sim: &Sim| {
        sim.flows().iter().any(|f| {
            let mut senders = sim.host(f.src).audit_senders();
            senders.any(|s| s.rto_queued && s.rto_deadline > Some(first_event))
        })
    };
    while !deadline_moved(&probe) {
        assert!(probe.step(), "no flow ever sent twice");
    }
    assert!(
        probe.kernel.now < first_event,
        "the first event is still the queued one"
    );
    let (got, _) = roundtrip(seed, probe.events_processed());
    assert_eq!(got, reference(seed).0);
}

/// A snapshot taken under one config must refuse to restore into a sim
/// built with another (different seed ⇒ different config digest input),
/// and the error must identify the mismatch.
#[test]
fn restore_rejects_mismatched_seed() {
    let mut donor = build_chaos(7);
    donor.run_until_event(1000);
    let bytes = donor.snapshot();
    let mut other = build_chaos(42);
    match other.restore(&bytes) {
        Err(snapshot::SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

/// Prints the checkpoint cost table for EXPERIMENTS.md: snapshot size,
/// save/restore latency at mid-run, and whole-run wall time at several
/// auto-checkpoint strides (vs disabled). Run with:
///
/// ```text
/// cargo test --release -p rocc-sim --test snapshot_roundtrip -- --ignored --nocapture
/// ```
#[test]
#[ignore]
fn measure_checkpoint_costs() {
    let (_, total) = reference(7);
    // One-shot save/restore latency and size at the run's midpoint.
    let mut donor = build_chaos(7);
    donor.run_until_event(total / 2);
    let t0 = std::time::Instant::now();
    let bytes = donor.snapshot();
    let save_us = t0.elapsed().as_micros();
    let mut target = build_chaos(7);
    let t1 = std::time::Instant::now();
    target.restore(&bytes).unwrap();
    let restore_us = t1.elapsed().as_micros();
    println!(
        "mid-run snapshot ({} events): {} bytes, save {save_us} us, restore {restore_us} us",
        total / 2,
        bytes.len()
    );

    // Whole-run wall time vs stride (0 = checkpointing disabled). The
    // sink only counts — the journaling I/O cost is the store's, not
    // the engine's.
    for stride in [0u64, 50_000, 20_000, 5_000, 1_000] {
        let mut best = f64::MAX;
        let saves = std::rc::Rc::new(std::cell::Cell::new(0u64));
        for _ in 0..5 {
            let mut sim = build_chaos(7);
            if stride > 0 {
                saves.set(0);
                let counter = saves.clone();
                sim.enable_auto_checkpoint(
                    stride,
                    Box::new(move |_ev, b| {
                        assert!(!b.is_empty());
                        counter.set(counter.get() + 1);
                    }),
                );
            }
            let t = std::time::Instant::now();
            sim.run_until_flows_done(HORIZON).assert_complete();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        println!(
            "stride {stride:>6}: {} checkpoints, best wall {best:.2} ms",
            saves.get()
        );
    }
}

/// Flipping any single byte of the container must be caught by the
/// digest (or structural) checks — never silently restored.
#[test]
fn restore_rejects_corrupt_container() {
    let mut donor = build_chaos(7);
    donor.run_until_event(1000);
    let bytes = donor.snapshot();
    let mut rng_state = 0x9e37_79b9u64;
    for _ in 0..32 {
        // Cheap LCG over byte positions; determinism keeps the test stable.
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let pos = (rng_state >> 33) as usize % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        let mut sim = build_chaos(7);
        assert!(
            sim.restore(&corrupt).is_err(),
            "byte flip at {pos} restored silently"
        );
    }
}

/// Assemble a `rocc-snapshot/v8` container by hand from a header and a
/// section list — the layout DESIGN.md §3i documents, written without the
/// crate's own framer so the two are checked against each other.
fn reframe(info: &snapshot::SnapshotInfo, sections: &[snapshot::Section<'_>]) -> Vec<u8> {
    let mut body: Vec<u8> = sections.iter().flat_map(|(_, p)| p.iter().copied()).collect();
    let table_at = body.len() as u64;
    for (name, payload) in sections {
        body.extend_from_slice(&(name.len() as u64).to_le_bytes());
        body.extend_from_slice(name.as_bytes());
        body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    body.extend_from_slice(&(sections.len() as u64).to_le_bytes());
    body.extend_from_slice(&table_at.to_le_bytes());
    let mut out = snapshot::SNAPSHOT_MAGIC.to_vec();
    let header = [info.seed, info.config_digest, info.now_ns, info.events_processed];
    for word in header.into_iter().chain([body.len() as u64]) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&body);
    let trailer = rocc_stats::digest::fnv1a_64(&out);
    out.extend_from_slice(&trailer.to_le_bytes());
    out
}

/// Damage inside section payloads, re-framed behind a valid trailer so
/// only the section decoders stand between it and the sim: a payload cut
/// short anywhere is refused with an error, and no flipped byte makes
/// restore panic (a flip that still decodes is data, not structure).
#[test]
fn restore_refuses_or_survives_corrupt_section_payloads() {
    let mut donor = build_chaos(7);
    donor.run_until_event(1000);
    let bytes = donor.snapshot();
    let (info, sections) = snapshot::sections(&bytes).expect("own snapshot parses");
    let restore = |secs: &[snapshot::Section<'_>]| {
        let framed = reframe(&info, secs);
        std::panic::catch_unwind(|| build_chaos(7).restore(&framed))
    };
    for (i, &(name, payload)) in sections.iter().enumerate() {
        for cut in [0, payload.len() / 2, payload.len() - 1] {
            let mut short = sections.clone();
            short[i].1 = &payload[..cut];
            let got = restore(&short).expect("restore must not panic");
            assert!(got.is_err(), "{name} cut to {cut} of {} bytes restored", payload.len());
        }
        for pos in (0..payload.len()).step_by(payload.len().div_ceil(24)) {
            let mut flipped = payload.to_vec();
            flipped[pos] ^= 0xff;
            let mut secs = sections.clone();
            secs[i].1 = &flipped;
            assert!(restore(&secs).is_ok(), "{name}: flipping byte {pos} panicked");
        }
    }
}

/// Well-framed containers whose section table does not match the sim —
/// an older `rocc-snapshot` version (v1 to v3), reordered / missing / extra sections, a
/// section cut short or padded — are each refused with a typed error,
/// never restored and never a panic.
#[test]
fn restore_rejects_v1_files_and_mismatched_section_tables() {
    let mut donor = build_chaos(7);
    donor.run_until_event(1000);
    let bytes = donor.snapshot();
    let (info, sections) = snapshot::sections(&bytes).expect("own snapshot parses");
    assert_eq!(reframe(&info, &sections), bytes, "hand framer disagrees with the crate's");
    let restore = |bytes: &[u8]| build_chaos(7).restore(bytes);
    let malformed = |r| matches!(r, Err(snapshot::SnapshotError::Malformed(_)));

    for old_version in [b'1', b'2', b'3'] {
        let mut old = bytes.clone();
        old[15] = old_version;
        assert_eq!(restore(&old), Err(snapshot::SnapshotError::BadMagic));
    }

    let at = |name: &str| sections.iter().position(|&(n, _)| n == name).expect(name);
    let mut reordered = sections.clone();
    reordered.swap(at("rng"), at("sched"));
    assert!(malformed(restore(&reframe(&info, &reordered))), "reordered sections");
    let mut role_swapped = sections.clone();
    role_swapped[at("host/1")].0 = "switch/1";
    assert!(malformed(restore(&reframe(&info, &role_swapped))), "node role");
    let mut missing = sections.clone();
    missing.remove(at("host/7"));
    assert!(malformed(restore(&reframe(&info, &missing))), "missing node section");
    let mut extra = sections.clone();
    extra.push(("extra", &[]));
    assert!(malformed(restore(&reframe(&info, &extra))), "unknown trailing section");

    let slab = sections[at("slab")].1;
    let mut truncated = sections.clone();
    truncated[at("slab")].1 = &slab[..slab.len() - 8];
    assert_eq!(
        restore(&reframe(&info, &truncated)),
        Err(snapshot::SnapshotError::Truncated)
    );
    let padded = [slab, &[0u8; 8]].concat();
    let mut overlong = sections.clone();
    overlong[at("slab")].1 = &padded;
    assert_eq!(
        restore(&reframe(&info, &overlong)),
        Err(snapshot::SnapshotError::Malformed("trailing bytes"))
    );
}

/// A rebuilt run that registers other watches than the captured run is
/// refused even when it registers as many: restoring would file the
/// captured history under the wrong port. One rebuild swaps the order of
/// two watched queues, the other averages a different port.
#[test]
fn restore_refuses_a_run_watching_other_ports() {
    let build = |queues: [usize; 2], avg: usize| {
        let mut sim = build_chaos(7);
        sim.trace.sample_period = Some(SimDuration::from_micros(10));
        for port in queues {
            sim.trace.watch_queue(NodeId(0), PortId(port));
        }
        sim.trace.watch_queue_avg(NodeId(0), PortId(avg));
        sim
    };
    let mut donor = build([0, 1], 0);
    donor.run_until_event(5_000);
    let bytes = donor.snapshot();
    assert_eq!(build([0, 1], 0).restore(&bytes), Ok(()));
    let differs = Err(snapshot::SnapshotError::Malformed("watch list differs"));
    assert_eq!(build([1, 0], 0).restore(&bytes), differs, "swapped queue watches");
    assert_eq!(build([0, 1], 1).restore(&bytes), differs, "other average port");
}

/// A captured log holding events of a class the rebuilt run never keeps
/// is refused: the restored run would export history it could not have
/// recorded. The hostile snapshot is an every-class log relabelled as a
/// CNP-only one, re-framed behind a valid trailer.
#[test]
fn restore_refuses_a_log_of_classes_the_run_never_keeps() {
    let run = |mask| {
        let mut sim = build_chaos(7);
        sim.trace.telemetry.collect(mask);
        sim.run_until_event(5_000);
        sim
    };
    let (every, cnp_only) = (run(EventMask::ALL), run(EventMask::CNP));
    let foreign = every.trace.telemetry.events.iter().any(|e| e.class() != EventMask::CNP);
    assert!(foreign, "the every-class log holds only CNPs");
    let bytes = every.snapshot();
    let other = cnp_only.snapshot();
    let (info, mut sections) = snapshot::sections(&bytes).expect("own snapshot parses");
    let at = sections.iter().position(|&(n, _)| n == "trace").expect("a trace section");
    let cnp_trace = snapshot::sections(&other).expect("own snapshot parses").1[at].1;
    // The same history up to the telemetry mask, the first byte that
    // differs between the two runs' trace sections.
    let payload = sections[at].1;
    let mask_at = payload.iter().zip(cnp_trace).position(|(a, b)| a != b).expect("masks differ");
    let (all, cnp) = (EventMask::ALL.0 as u8, EventMask::CNP.0 as u8);
    assert_eq!((payload[mask_at], cnp_trace[mask_at]), (all, cnp));
    let mut relabelled = payload.to_vec();
    relabelled[mask_at] = cnp;
    sections[at].1 = &relabelled;
    let mut rebuilt = build_chaos(7);
    rebuilt.trace.telemetry.collect(EventMask::CNP);
    assert_eq!(
        rebuilt.restore(&reframe(&info, &sections)),
        Err(snapshot::SnapshotError::Malformed("event class not kept"))
    );
}
