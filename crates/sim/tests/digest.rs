//! Divergence-observatory integration suite (see DESIGN.md §3k).
//!
//! Pins the bisector's headline contract on the golden chaos scenario:
//! injecting a single RP rate-word bit flip after event `k` of a faulted
//! run must be traced back to exactly event `k` and attributed to a host
//! CC component — across the golden seeds 1/7/42. Also pins the
//! digest/section coupling (a component digest is the FNV-1a-64 of that
//! component's snapshot section, so it changes iff the section's words
//! change) and tolerant parsing of torn digest-ledger tails as produced
//! by a crashed run-loop writer.

mod common;

use common::{build_chaos, dumbbell};
use proptest::prelude::*;
use rocc_core::{HostCalcRoccFactory, RoccSwitchCcFactory};
use rocc_sim::prelude::*;
use rocc_sim::snapshot;

/// The acceptance bar for the whole observatory: a single bit flipped in
/// one host's CC state after event `k` is localized to exactly event `k`
/// and charged to a `host/…` component, on every faulted golden seed.
#[test]
fn bisector_finds_the_exact_flip_event_on_faulted_seeds() {
    for seed in [1u64, 7, 42] {
        let flip_at = 10_000u64;
        let mut a = build_chaos(seed);
        let mut b = build_chaos(seed);
        let opts = BisectOptions {
            scan_stride: 2048,
            max_events: 30_000,
            perturb_b_at: Some(flip_at),
        };
        match bisect_divergence(&mut a, &mut b, &opts) {
            BisectOutcome::Diverged(rep) => {
                assert_eq!(
                    rep.first_divergent_event, flip_at,
                    "seed {seed}: bisected to the wrong event"
                );
                assert!(
                    rep.component.starts_with("host/"),
                    "seed {seed}: flip charged to {} — expected a host CC component",
                    rep.component
                );
                assert_ne!(rep.digest_a, rep.digest_b);
                // The perturbation is one bit of one rate word: the
                // word-level diff must be exactly one word, one bit.
                assert_eq!(
                    rep.word_diff.len(),
                    1,
                    "seed {seed}: expected one differing word, got {:?}",
                    rep.word_diff
                );
                let d = &rep.word_diff[0];
                assert_eq!(
                    (d.a ^ d.b).count_ones(),
                    1,
                    "seed {seed}: expected a single-bit flip, got {:016x} vs {:016x}",
                    d.a,
                    d.b
                );
                // At the flip event both runs still agree on what happens
                // next — only state diverged, not the schedule (yet).
                assert!(rep.event_a.is_some());
                assert_eq!(rep.event_a, rep.event_b, "seed {seed}");
            }
            BisectOutcome::Identical { events } => panic!(
                "seed {seed}: injected flip never diverged through {events} events"
            ),
        }
    }
}

/// Two identically built runs never diverge: the bisector scans to its
/// event cap and says so, on every golden seed.
#[test]
fn identical_runs_bisect_to_identical() {
    for seed in [1u64, 7, 42] {
        let mut a = build_chaos(seed);
        let mut b = build_chaos(seed);
        let opts = BisectOptions {
            scan_stride: 2048,
            max_events: 12_000,
            perturb_b_at: None,
        };
        match bisect_divergence(&mut a, &mut b, &opts) {
            BisectOutcome::Identical { events } => {
                assert_eq!(events, 12_000, "seed {seed}: scan stopped early")
            }
            BisectOutcome::Diverged(rep) => panic!(
                "seed {seed}: identical runs reported divergent: {}",
                rep.summary()
            ),
        }
    }
}

/// A ledger recorded by the real run loop, torn mid-line as a crashed
/// writer would leave it, still parses: every complete row survives, the
/// torn tail is flagged, and the truncated ledger agrees with the full
/// one on every comparable row.
#[test]
fn run_loop_ledger_tolerates_a_torn_tail() {
    let mut sim = build_chaos(7);
    sim.enable_digest_ledger(1024);
    sim.run_until_flows_done(SimTime::from_millis(100))
        .assert_complete();
    let ledger = sim.take_digest_ledger().expect("ledger enabled above");
    assert!(
        ledger.entries().len() >= 8,
        "run too short to exercise the ledger: {} rows",
        ledger.entries().len()
    );
    let text = ledger.to_jsonl();

    // The intact file parses clean and round-trips every row.
    let full = parse_ledger_jsonl(&text);
    assert!(!full.torn_tail);
    assert_eq!(full.entries.len(), ledger.entries().len());
    assert_eq!(&full.entries, ledger.entries());

    // Tear the final line mid-digest, as a crash mid-write would.
    let last_line_start = text.trim_end().rfind('\n').expect("multi-row ledger") + 1;
    let torn_text = &text[..last_line_start + 40];
    let torn = parse_ledger_jsonl(torn_text);
    assert!(torn.torn_tail, "truncated tail not flagged");
    assert_eq!(torn.entries.len(), full.entries.len() - 1);
    assert_eq!(
        first_ledger_divergence(&torn.entries, &full.entries),
        None,
        "comparable rows must agree"
    );
}

/// `state_digest()` is the snapshot's section table, hashed: same names,
/// same order, and each digest the FNV-1a-64 of that section's payload —
/// mid-run on a faulted seed, so every section is non-trivial.
#[test]
fn state_digest_is_the_hash_of_the_snapshot_sections() {
    let mut sim = build_chaos(7);
    sim.run_until_event(5_000);
    let bytes = sim.snapshot();
    let (_, sections) = snapshot::sections(&bytes).expect("own snapshot parses");
    let hashed: Vec<(String, u64)> = sections
        .iter()
        .map(|(name, payload)| (name.to_string(), rocc_stats::digest::fnv1a_64(payload)))
        .collect();
    let digests = sim.state_digest();
    let got: Vec<(String, u64)> = digests.iter().map(|(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, hashed);
    // The canonical order: six kernel sections, one per node (the role
    // is the name), then run bookkeeping and instrumentation.
    let names: Vec<&str> = sections.iter().map(|&(n, _)| n).collect();
    let want = [
        "kernel", "rng", "sched", "faults", "san", "slab", "switch/0", "host/1", "host/2",
        "host/3", "host/4", "host/5", "host/6", "host/7", "run", "trace", "sanitizer",
    ];
    assert_eq!(names, want);
}

/// The fault injector skips a flow whose flipped words no longer decode.
/// A host-computed RoCC sender's word 0 is its replica count, so the flip
/// asks for 2^30 more replicas than the stream holds: no flow takes it,
/// the state is left as it was, and nothing panics.
#[test]
fn perturbation_skips_flows_whose_flipped_words_do_not_decode() {
    let (topo, srcs, dst) = dumbbell(4, 40);
    let mut sim = Sim::new(
        topo,
        SimConfig::default(),
        Box::new(HostCalcRoccFactory::default()),
        Box::new(RoccSwitchCcFactory::new().host_computed()),
    );
    for (i, &src) in srcs.iter().enumerate() {
        sim.add_flow(FlowSpec {
            id: FlowId(i as u64),
            src,
            dst,
            size: 400_000,
            start: SimTime::ZERO,
            offered: None,
        });
    }
    assert!(sim.run_until_event(5_000));
    let before = sim.snapshot();
    assert!(!sim.inject_rp_perturbation(), "a flip that does not decode was applied");
    assert!(sim.snapshot() == before, "a skipped flow's state changed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The digest/section contract, at an arbitrary cut point of a faulted
    /// run: perturbing one host's CC state changes that component's
    /// snapshot section and digest, and *only* that component's — every
    /// component whose section is untouched keeps its digest bit for bit.
    #[test]
    fn component_digest_changes_iff_its_section_changes(
        seed_idx in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        let seed = [1u64, 7, 42][seed_idx];
        let k = (frac * 20_000.0) as u64;
        let mut sim = build_chaos(seed);
        sim.run_until_event(k);

        let before_bytes = sim.snapshot();
        let before = sim.state_digest();
        prop_assert!(sim.inject_rp_perturbation(), "no host CC state to perturb");
        let after_bytes = sim.snapshot();
        let after = sim.state_digest();
        let (_, before_secs) = snapshot::sections(&before_bytes).expect("parses");
        let (_, after_secs) = snapshot::sections(&after_bytes).expect("parses");

        // Same component set, same order, on both sides.
        prop_assert_eq!(before.len(), after.len());
        prop_assert_eq!(before.len(), before_secs.len());
        let mut changed = Vec::new();
        for (&(name, b), &(name_after, a)) in before_secs.iter().zip(after_secs.iter()) {
            prop_assert_eq!(name, name_after);
            let words_differ = b != a;
            let digests_differ =
                before.get(name).expect("named") != after.get(name).expect("named");
            prop_assert_eq!(
                words_differ, digests_differ,
                "component {}: words_differ={} but digests_differ={}",
                name, words_differ, digests_differ
            );
            if words_differ {
                changed.push(name);
            }
        }
        // The flip touches exactly one host component and nothing else.
        prop_assert_eq!(changed.len(), 1, "changed: {:?}", &changed);
        prop_assert!(changed[0].starts_with("host/"), "changed: {:?}", &changed);
    }
}

/// Stepping the sim changes the kernel digest (time and the event cursor
/// advance), so two different cut points of the same run never share a
/// combined digest — the ledger can't silently alias distinct states.
#[test]
fn distinct_cut_points_have_distinct_digests() {
    let mut sim = build_chaos(7);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..64 {
        let d = rocc_sim::digest::combined_digest(&sim.state_digest());
        assert!(seen.insert(d), "combined digest repeated mid-run");
        assert!(sim.step(), "run drained before 64 events");
    }
}
