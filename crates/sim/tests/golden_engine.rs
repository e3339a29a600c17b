//! Golden-run pinning of the engine's simulation-visible output.
//!
//! Every simulation-visible output — event counts, FCT nanoseconds,
//! drop/retransmit/control counters, fault counters — is pinned on the
//! chaos scenario used by the observer-effect suite: a 6-sender incast
//! with data loss, CNP loss and a link flap all active, across three
//! seeds. A pure representation change (such as the packet slab and
//! compact heap keys, checked here against the engine that sifted full
//! `Packet`s through the heap) must leave every value bit-identical; a
//! change of model order re-pins them, and `GOLDEN`'s comment records
//! which values moved when.
//!
//! To regenerate after an *intentional* behavior change, run:
//!
//! ```text
//! cargo test --test golden_engine -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN`.

mod common;

use rocc_sim::prelude::*;

/// Everything simulation-visible a run produces, plus the scheduler
/// watermark (the queue must agree on *accounting*, not just outputs).
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    events: u64,
    fcts: Vec<(u64, u64)>,
    drops: u64,
    unroutable: u64,
    retx: u64,
    ctrl_emitted: u64,
    injected_drops: u64,
    peak_pending: usize,
}

/// Where divergence artifacts land when a golden assertion fails (CI
/// uploads this directory).
fn diverge_dir() -> String {
    std::env::var("ROCC_DIVERGE_DIR").unwrap_or_else(|_| "target/diverge".to_string())
}

/// The same faulted incast the chaos/observer suites exercise: loss on
/// data and CNPs plus a mid-run link flap, RoCC end to end. The run
/// records the strided digest ledger (pure observation — `observer_effect`
/// pins that recording is bit-identical to not recording) so a
/// fingerprint mismatch can be localized offline.
fn chaos_incast(seed: u64) -> (RunFingerprint, DigestLedger) {
    let mut sim = common::build_chaos(seed);
    sim.enable_digest_ledger(4096);
    let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
    assert!(verdict.is_complete(), "chaos incast must finish: {verdict:?}");
    let fp = RunFingerprint {
        events: sim.events_processed(),
        fcts: sim
            .trace
            .fcts
            .iter()
            .map(|r| (r.flow.0, r.end.as_nanos()))
            .collect(),
        drops: sim.trace.drops,
        unroutable: sim.trace.unroutable_drops,
        retx: sim.trace.retx_bytes,
        ctrl_emitted: sim.trace.ctrl_emitted,
        injected_drops: sim.trace.faults.data_lost + sim.trace.faults.ctrl_lost,
        peak_pending: sim.kernel.peak_pending(),
    };
    let ledger = sim.take_digest_ledger().expect("ledger enabled above");
    (fp, ledger)
}

/// Golden fingerprints. The simulation-visible fields (`fcts`, `drops`,
/// `unroutable`, `retx`, `ctrl_emitted`, `injected`) were captured from
/// the full-`Packet` heap engine (commit 7d7e222) and stayed bit-identical
/// through the two changes below; the third moved some of them. The two
/// counts, `events` and `peak_pending`, were re-captured when the
/// transport went from one RTO event per send/ACK to one lazily re-armed
/// RTO event per flow: the dead timers no longer exist to be popped
/// (seed 1 runs past the 4 ms RTO and loses 13,415 events; seeds 7 and 42
/// finish before any dead timer came due, so only their `peak_pending`
/// moves). They moved again when switch ports stopped scheduling a
/// TxDone that finds nothing to send (a drain event only behind a
/// backlog): 77,274 → 65,358, 66,614 → 57,162 and 66,837 → 57,525 events,
/// and `peak_pending` +1 each, because a serializing frame's `Arrive` and
/// a drain can both be queued where one TxDone was. Then hosts followed
/// the same rule (an `Arrive` queued when a NIC starts a frame, a wake
/// only when something waits): 65,358 → 52,892, 57,162 → 45,627 and
/// 57,525 → 46,329 events. That also changed the order of same-instant
/// events, and the fault plan draws its loss decisions per arrival in
/// dispatch order, so seed 1 lost different frames: its FCTs (flow 2
/// 2,339,013 → 2,359,941 ns, …), `retx` (2,922,000 → 2,914,000) and
/// `ctrl_emitted` (90 → 88) moved, its `drops`, `unroutable`, `injected`
/// and `peak_pending` did not. Seeds 7 and 42 kept every FCT, `drops`,
/// `unroutable`, `retx`, `ctrl_emitted` and `injected`; `peak_pending`
/// moved 76 → 80 on seed 7 and not on seed 42. Seeds chosen to hit
/// distinct loss/flap interleavings.
#[allow(clippy::type_complexity)]
const GOLDEN: &[(u64, u64, &[(u64, u64)], u64, u64, u64, u64, u64, usize)] = &[
    // (seed, events, fcts, drops, unroutable, retx, ctrl_emitted, injected, peak_pending)
    (1, 52892, &[(2, 2359941), (3, 2393071), (5, 2438899), (1, 2626826), (4, 6575193), (0, 10119003)], 0, 0, 2914000, 88, 74, 80),
    (7, 45627, &[(5, 2283643), (4, 2555433), (1, 2559048), (3, 2604450), (2, 2655552), (0, 2881297)], 0, 0, 1687000, 96, 70, 80),
    (42, 46329, &[(4, 2214717), (5, 2356143), (2, 2367213), (1, 2391653), (3, 2399267), (0, 2498173)], 0, 0, 1733000, 82, 77, 80),
];

#[test]
fn slab_queue_is_bit_identical_to_seed_engine() {
    for &(seed, events, fcts, drops, unroutable, retx, ctrl, injected, peak_pending) in GOLDEN {
        let (got, ledger) = chaos_incast(seed);
        let want = RunFingerprint {
            events,
            fcts: fcts.to_vec(),
            drops,
            unroutable,
            retx,
            ctrl_emitted: ctrl,
            injected_drops: injected,
            peak_pending,
        };
        if got != want {
            // Pinned constants can't be bisected live (the reference
            // build is gone) — dump the run's per-component digest
            // ledger so the mismatch can be localized offline against a
            // known-good build: `repro diverge ledgers <good> <this>`.
            let path = format!("{}/golden_seed{seed}_digest_ledger.jsonl", diverge_dir());
            let wrote = write_artifact(&path, &ledger.to_jsonl())
                .map(|()| path)
                .unwrap_or_else(|e| format!("<failed to write ledger: {e}>"));
            panic!(
                "engine diverged from golden run at seed {seed}:\n  got: {got:?}\n want: {want:?}\n\
                 digest ledger written to {wrote}; diff against a known-good\n\
                 build's ledger with `repro diverge ledgers <good.jsonl> {wrote}`"
            );
        }
    }
}

/// What auditing the golden runs costs, as counts: `(seed, audits, flow
/// records put through the transport checks)`. Six flows, so a periodic
/// audit looks at no more than 12 records, and the whole run at what was
/// live at each audit plus each flow's final check and the end-of-run
/// sweep — a number that moves only if the audit starts looking at more
/// (or fewer) flows than are live, or the run itself changes (seed 1's
/// went 2,022 → 2,011 when hosts stopped scheduling a per-frame TX event
/// and its flows finished at different instants).
const AUDIT_WORK: &[(u64, u64, u64)] = &[(1, 369, 2011), (7, 115, 1240), (42, 100, 1140)];

#[test]
fn audit_work_on_the_golden_runs_is_pinned() {
    for &(seed, audits, flow_checks) in AUDIT_WORK {
        let mut sim = common::build_chaos(seed);
        sim.enable_sanitizer();
        let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
        assert!(verdict.is_complete(), "seed {seed}: {verdict:?}");
        let report = sim.sanitizer().report();
        assert_eq!((report.audits, report.flow_checks), (audits, flow_checks), "seed {seed}");
        assert!(report.flow_checks <= 12 * report.audits + 2 * 6, "seed {seed}");
    }
}

/// Prints the golden table for the seeds above; used to (re)capture the
/// constants when a deliberate behavior change lands.
#[test]
#[ignore]
fn capture_golden_fingerprints() {
    for seed in [1u64, 7, 42] {
        let (f, _) = chaos_incast(seed);
        println!(
            "    ({seed}, {}, &{:?}, {}, {}, {}, {}, {}, {}),",
            f.events, f.fcts, f.drops, f.unroutable, f.retx, f.ctrl_emitted, f.injected_drops,
            f.peak_pending
        );
    }
}
