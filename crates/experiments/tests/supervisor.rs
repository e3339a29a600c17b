//! Campaign-supervisor integration over *real* simulations: panic and
//! livelock isolation inside one campaign, and crash-resumable sweeps —
//! a campaign killed after `k` completed cells and resumed from its
//! checkpoint journal must reproduce the uninterrupted aggregate byte
//! for byte, across faulted seeds.

use proptest::prelude::*;
use rocc_experiments::observatory;
use rocc_experiments::parallel::ExecMode;
use rocc_experiments::supervisor::{
    scratch_path, CellSnapshot, FnCodec, NoCache, RetryPolicy, SnapshotStore,
    Supervisor,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use rocc_experiments::{micro, scenarios, Scale, Scheme};
use rocc_sim::prelude::*;

/// A tiny 2-sender dumbbell run with per-seed CNP loss. Cheap enough to
/// run dozens of times under proptest; the fault layer makes the outcome
/// seed-dependent, which is exactly what the resume test must survive.
fn faulted_cell(seed: u64) -> Result<u64, SimError> {
    let d = scenarios::dumbbell(2, BitRate::from_gbps(40));
    let cfg = SimConfig {
        seed,
        fault_plan: FaultPlan::default().with_loss(FaultTarget::Cnp, 0.01),
        ..SimConfig::default()
    };
    let mut sim = micro::sim_with(d.topo, Scheme::Rocc, 7, cfg);
    for (i, &s) in d.senders.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst: d.receiver,
            size: 50_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
    if let Some(e) = verdict.err() {
        return Err(e.clone());
    }
    // Completion count plus total FCT nanoseconds: any scheduling drift
    // between the original and resumed campaigns shows up here.
    let fct_ns: u64 = sim.trace.fcts.iter().map(|r| r.fct().as_nanos()).sum();
    Ok(sim.trace.fcts.len() as u64 * 1_000_000_000_000 + fct_ns)
}

/// A run that can never finish a flow or advance time: the zero-period
/// sampler reschedules itself at the same instant forever, so only the
/// livelock budget can end the run — with `SimError::Stalled`.
fn livelocked_cell() -> Result<u64, SimError> {
    let d = scenarios::dumbbell(2, BitRate::from_gbps(40));
    let cfg = SimConfig {
        budget: RunBudget {
            max_events: None,
            stall_events: Some(10_000),
            wall_clock_ms: None,
        },
        ..SimConfig::default()
    };
    let mut sim = micro::sim_with(d.topo, Scheme::Rocc, 7, cfg);
    sim.trace.sample_period = Some(SimDuration::ZERO);
    sim.add_flow(FlowSpec {
        id: FlowId(0),
        src: d.senders[0],
        dst: d.receiver,
        size: 50_000,
        start: SimTime::ZERO,
        offered: None,
    });
    let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
    match verdict.err() {
        Some(e) => Err(e.clone()),
        None => Ok(0),
    }
}

/// The ISSUE's acceptance scenario: a campaign holding two healthy sim
/// cells, one panicking cell, and one genuinely livelocked cell must
/// complete with partial results, a quarantine entry per failure, and a
/// structured failure report — never tear down the whole sweep.
#[test]
fn campaign_isolates_panicking_and_livelocked_cells() {
    let cells: Vec<(String, u32)> = vec![
        ("itest/healthy/seed1".into(), 0),
        ("itest/healthy/seed2".into(), 1),
        ("itest/panic".into(), 2),
        ("itest/livelock".into(), 3),
    ];
    let sup = Supervisor::new(ExecMode::Parallel).with_retry(RetryPolicy {
        max_attempts: 2,
        backoff_base_ms: 0,
    });
    let campaign = sup.run(cells, &NoCache, |&kind| match kind {
        0 => faulted_cell(1),
        1 => faulted_cell(2),
        2 => panic!("injected cell panic"),
        _ => livelocked_cell(),
    });
    assert!(!campaign.all_ok());
    let report = campaign.report();
    assert_eq!((report.total, report.ok), (4, 2));
    assert_eq!(report.panicked, 1);
    assert_eq!(report.budget_exhausted, 1);
    assert_eq!(report.skipped, 0);

    // Structured failure report: both failures named, panic retried to
    // the cap, livelock detail carries the typed stalled verdict.
    let json = report.to_json();
    assert!(json.contains("\"key\":\"itest/panic\""));
    assert!(json.contains("injected cell panic"));
    assert!(json.contains("\"verdict\":\"stalled\""));
    let panic_failure = report
        .failures
        .iter()
        .find(|f| f.key == "itest/panic")
        .expect("panic cell quarantined");
    assert_eq!((panic_failure.class, panic_failure.attempts), ("panicked", 2));
    let quarantine = report.quarantine_json();
    assert!(quarantine.contains("itest/panic") && quarantine.contains("itest/livelock"));

    // Partial results survive in input order.
    let results = campaign.into_results();
    assert!(results[0].is_some() && results[1].is_some());
    assert!(results[2].is_none() && results[3].is_none());
}

/// End-to-end resume through the real observatory sweep: a full campaign
/// whose journal is then truncated to one line (simulating a mid-run
/// kill, torn tail included) must resume to a byte-identical aggregate,
/// and a second resume must read back every cell.
#[test]
fn observatory_sweep_resumes_byte_identically_after_kill() {
    let journal = scratch_path("sweep-resume-journal");
    let store = SnapshotStore::new(scratch_path("sweep-resume-snapshots"));
    let seeds = [observatory::GOLDEN_SEED, observatory::GOLDEN_SEED + 1];
    let sup = Supervisor::new(ExecMode::Serial).with_journal(&journal);
    let sweep = || {
        observatory::sweep_with_snapshots("incast", Scale::Quick, &seeds, &sup, &store)
            .expect("known scenario")
    };
    let full = sweep();
    assert!(full.report.all_ok());
    let reference = full.aggregate_json();

    // Kill after cell 1: keep the first journal line, add a torn tail.
    let doc = std::fs::read_to_string(&journal).unwrap();
    let first_line = doc.lines().next().unwrap();
    std::fs::write(&journal, format!("{first_line}\n{{\"key\":\"torn")).unwrap();

    let resumed = sweep();
    assert_eq!(resumed.report.cached, 1, "first cell replays from journal");
    assert_eq!(resumed.aggregate_json(), reference);

    // The resume ended the torn line before appending, so a second
    // resume reads back both cells.
    let again = sweep();
    assert_eq!(again.report.cached, 2, "the resumed cell's line reads back");
    assert_eq!(again.aggregate_json(), reference);
    std::fs::remove_file(&journal).ok();
}

/// Build the [`faulted_cell`] sim without running it — the resumable
/// cell needs to rebuild identically before restoring a snapshot.
fn build_faulted(seed: u64) -> rocc_sim::prelude::Sim {
    let d = scenarios::dumbbell(2, BitRate::from_gbps(40));
    let cfg = SimConfig {
        seed,
        fault_plan: FaultPlan::default().with_loss(FaultTarget::Cnp, 0.01),
        ..SimConfig::default()
    };
    let mut sim = micro::sim_with(d.topo, Scheme::Rocc, 7, cfg);
    for (i, &s) in d.senders.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src: s,
            dst: d.receiver,
            size: 50_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    sim
}

/// [`faulted_cell`] with sub-cell crash recovery, the same shape as the
/// observatory's resumable cells: restore from the journaled snapshot if
/// one exists (discard-and-rebuild on restore failure), keep
/// checkpointing, optionally crash partway through.
fn resumable_faulted_cell(
    seed: u64,
    snap: &CellSnapshot,
    die_at: Option<SimTime>,
    resumed_from: &AtomicU64,
) -> Result<u64, SimError> {
    let mut sim = build_faulted(seed);
    if let Some(bytes) = &snap.resume {
        if sim.restore(bytes).is_err() {
            sim = build_faulted(seed);
        }
    }
    resumed_from.store(sim.events_processed(), Ordering::SeqCst);
    sim.enable_auto_checkpoint(100, snap.sink());
    if let Some(t) = die_at {
        sim.run_until(t);
        panic!("injected mid-cell crash at {t:?}");
    }
    let verdict = sim.run_until_flows_done(SimTime::from_millis(100));
    if let Some(e) = verdict.err() {
        return Err(e.clone());
    }
    let fct_ns: u64 = sim.trace.fcts.iter().map(|r| r.fct().as_nanos()).sum();
    Ok(sim.trace.fcts.len() as u64 * 1_000_000_000_000 + fct_ns)
}

/// Sub-cell crash recovery end to end: a cell that crashes mid-run is
/// retried, the retry resumes from the journaled engine snapshot instead
/// of event zero, the result matches the uninterrupted reference bit for
/// bit, and the spent snapshot is removed once the cell completes.
#[test]
fn crashed_cell_resumes_mid_run_from_journaled_snapshot() {
    let reference = faulted_cell(3).expect("reference cell completes");

    // Find the cell's midpoint so the crash lands with checkpoints taken.
    let mut probe = build_faulted(3);
    probe
        .run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();
    let t_mid = SimTime::from_nanos(probe.kernel.now.as_nanos() / 2);
    assert!(probe.events_processed() > 200, "cell too small to checkpoint");

    let store = SnapshotStore::new(scratch_path("resume-snapshots"));
    let attempts = AtomicUsize::new(0);
    let resumed_from = AtomicU64::new(0);
    let sup = Supervisor::new(ExecMode::Serial).with_retry(RetryPolicy {
        max_attempts: 2,
        backoff_base_ms: 0,
    });
    let campaign = sup.run_resumable(
        &store,
        vec![("resume/seed3".to_string(), 3u64)],
        &NoCache,
        |&seed, snap| {
            let first = attempts.fetch_add(1, Ordering::SeqCst) == 0;
            resumable_faulted_cell(
                seed,
                &snap,
                first.then_some(t_mid),
                &resumed_from,
            )
        },
    );
    assert!(campaign.all_ok(), "{:?}", campaign.report());
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "crash then resume");
    let resumed = resumed_from.load(Ordering::SeqCst);
    assert!(
        resumed > 0,
        "retry started from event 0 — snapshot not restored"
    );
    assert_eq!(campaign.into_results(), vec![Some(reference)]);
    assert!(
        !store.path_for("resume/seed3").exists(),
        "snapshot must be removed once the cell completes"
    );
}

/// A corrupt snapshot must cause a clean fresh restart of the cell —
/// never a quarantine entry, never a poisoned result.
#[test]
fn corrupt_snapshot_falls_back_to_fresh_cell_run() {
    let reference = faulted_cell(5).expect("reference cell completes");
    let store = SnapshotStore::new(scratch_path("corrupt-snapshots"));
    let key = "corrupt/seed5";
    // A torn/garbage checkpoint left by a crash mid-write.
    store.save(key, b"rocc-snapshot/v1 but trailing garbage");
    let resumed_from = AtomicU64::new(u64::MAX);
    let sup = Supervisor::new(ExecMode::Serial).with_retry(RetryPolicy::no_retry());
    let campaign = sup.run_resumable(
        &store,
        vec![(key.to_string(), 5u64)],
        &NoCache,
        |&seed, snap| {
            // The store's digest verification rejects the bytes outright.
            assert!(snap.resume.is_none(), "corrupt snapshot offered for resume");
            resumable_faulted_cell(seed, &snap, None, &resumed_from)
        },
    );
    assert!(campaign.all_ok(), "{:?}", campaign.report());
    let rep = campaign.report();
    assert!(rep.quarantine_json() == "[]", "corrupt snapshot quarantined a cell");
    assert_eq!(campaign.records[0].attempts, 1, "fresh run, first try");
    assert_eq!(resumed_from.load(Ordering::SeqCst), 0, "must start from event 0");
    assert_eq!(campaign.into_results(), vec![Some(reference)]);
}

/// A *stale* snapshot — structurally valid but from a different config
/// (here: another seed) — passes the container checks, fails the
/// engine's config-digest verification inside `restore`, and the cell
/// restarts fresh with the right answer.
#[test]
fn stale_snapshot_from_other_config_restarts_cell_fresh() {
    let reference = faulted_cell(6).expect("reference cell completes");
    let store = SnapshotStore::new(scratch_path("stale-snapshots"));
    let key = "stale/seed6";
    // A perfectly valid checkpoint... of a different run.
    let mut other = build_faulted(999);
    other.run_until(SimTime::from_micros(5));
    store.save(key, &other.snapshot());
    let resumed_from = AtomicU64::new(u64::MAX);
    let sup = Supervisor::new(ExecMode::Serial).with_retry(RetryPolicy::no_retry());
    let campaign = sup.run_resumable(
        &store,
        vec![(key.to_string(), 6u64)],
        &NoCache,
        |&seed, snap| {
            assert!(snap.resume.is_some(), "container checks should pass");
            resumable_faulted_cell(seed, &snap, None, &resumed_from)
        },
    );
    assert!(campaign.all_ok(), "{:?}", campaign.report());
    assert_eq!(resumed_from.load(Ordering::SeqCst), 0, "must rebuild fresh");
    assert_eq!(campaign.into_results(), vec![Some(reference)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill-and-resume fidelity across faulted seeds: for any base seed
    /// and any kill point `k`, a campaign resumed from the first `k`
    /// journal lines (optionally followed by a torn partial line) must
    /// rebuild the exact aggregate of the uninterrupted campaign.
    #[test]
    fn killed_campaign_resumes_byte_identically(
        base_seed in 0u64..64,
        k in 0usize..=4,
        torn in 0u32..2,
    ) {
        let torn_tail = torn == 1;
        let cells: Vec<(String, u64)> = (0..4u64)
            .map(|i| (format!("prop/seed{}", base_seed + i), base_seed + i))
            .collect();
        let codec = FnCodec(
            |v: &u64| v.to_string(),
            |s: &str| s.parse::<u64>().ok(),
        );
        let journal = scratch_path("prop-resume-journal");
        let sup = Supervisor::new(ExecMode::Serial).with_journal(&journal);

        let full = sup.run(cells.clone(), &codec, |&seed| faulted_cell(seed));
        prop_assert!(full.report().all_ok());
        let reference: Vec<Option<u64>> = full.into_results();

        let doc = std::fs::read_to_string(&journal).unwrap();
        let mut kept: String = doc
            .lines()
            .take(k)
            .map(|l| format!("{l}\n"))
            .collect();
        if torn_tail {
            // A write torn mid-line by the kill: must be skipped, not
            // trusted, and must not poison the resumed campaign.
            kept.push_str("{\"key\":\"prop/seed");
        }
        std::fs::write(&journal, kept).unwrap();

        let resumed = sup.run(cells, &codec, |&seed| faulted_cell(seed));
        prop_assert_eq!(resumed.report().cached, k);
        prop_assert_eq!(resumed.into_results(), reference);
        std::fs::remove_file(&journal).ok();
    }
}
