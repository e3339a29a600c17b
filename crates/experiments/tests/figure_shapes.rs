//! Shape assertions for the figure experiments: the qualitative claims a
//! reader takes away from each paper figure, checked programmatically at
//! quick scale.

use rocc_experiments::{analytic, micro, Scale, Scheme};
use rocc_sim::prelude::*;
use rocc_stats::jain_fairness;

#[test]
#[ignore = "slow; CI runs --include-ignored"]
fn fig8_queue_tracks_qref_at_both_speeds() {
    for case in micro::fig8(Scale::Quick) {
        let qref = if case.gbps >= 100 { 300_000.0 } else { 150_000.0 };
        assert!(
            (case.queue_mean - qref).abs() / qref < 0.15,
            "B={}G N={}: queue {:.0} vs Qref {qref}",
            case.gbps,
            case.n,
            case.queue_mean
        );
        let ideal = case.gbps as f64 * 1e9 / case.n as f64 * (1000.0 / 1048.0);
        let mean =
            case.per_flow_goodput.iter().sum::<f64>() / case.per_flow_goodput.len() as f64;
        assert!(
            (mean - ideal).abs() / ideal < 0.05,
            "B={}G N={}: {mean:.2e} vs {ideal:.2e}",
            case.gbps,
            case.n
        );
        assert!(case.settle.is_some(), "B={}G N={} never settled", case.gbps, case.n);
    }
}

#[test]
fn fig9_rate_plateaus_track_flow_count() {
    let r = micro::fig9(Scale::Quick);
    // At the end of each step, flow 0's RP rate ≈ 40G / N (for steps where
    // flow 0 is active, i.e. all of them).
    let step_ns = (r.steps[1].0 - r.steps[0].0).as_nanos();
    for (k, &(t, n)) in r.steps.iter().enumerate() {
        // Sample just before the *next* step boundary (converged point).
        let probe = SimTime::from_nanos(t.as_nanos() + step_ns * 9 / 10);
        let Some(s) = r.rate.iter().rev().find(|s| s.t <= probe) else {
            continue;
        };
        let ideal = 40e9 / n as f64;
        // Generous tolerance: MD quantization and Fmin clamp at N=96.
        let ratio = s.v / ideal;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "step {k} (N={n}): rate {:.2e} vs ideal {ideal:.2e}",
            s.v
        );
    }
}

#[test]
fn fig19_staircase_for_both_baselines() {
    // The App. A.1 verification claim: per-flow throughput steps track the
    // active flow count for DCQCN and HPCC.
    let step_ms = 15.0;
    for run in micro::fig19(Scale::Quick) {
        // During [3.5, 4) steps, all four flows are active → each ≈ 10G.
        let probe = |ms: f64| -> Vec<f64> {
            run.flow_series
                .iter()
                .map(|s| {
                    s.iter()
                        .rev()
                        .find(|x| x.t.as_millis_f64() <= ms)
                        .map(|x| x.v)
                        .unwrap_or(0.0)
                })
                .collect()
        };
        let all_four = probe(4.0 * step_ms - 1.0);
        let total: f64 = all_four.iter().sum();
        assert!(
            (total - 38e9).abs() / 38e9 < 0.15,
            "{}: four-flow total {:.1} Gb/s",
            run.scheme.name(),
            total / 1e9
        );
        let fair = jain_fairness(&all_four).unwrap();
        assert!(
            fair > 0.8,
            "{}: four-flow fairness {fair:.3}",
            run.scheme.name()
        );
        // During the first step only flow 0 runs, near line rate.
        let solo = probe(step_ms - 1.0);
        assert!(
            solo[0] > 30e9,
            "{}: solo flow at {:.1} Gb/s",
            run.scheme.name(),
            solo[0] / 1e9
        );
        assert!(solo[1] < 1e9 && solo[2] < 1e9 && solo[3] < 1e9);
    }
}

#[test]
fn fig12a_rocc_is_the_fairest_to_the_multi_cp_flow() {
    let rows = micro::fig12a(Scale::Quick);
    let d0_d5_gap = |r: &micro::Fig12Row| (r.throughput[0] - r.throughput[5]).abs();
    let rocc = rows.iter().find(|r| r.scheme == Scheme::Rocc).unwrap();
    for r in &rows {
        assert!(
            d0_d5_gap(rocc) <= d0_d5_gap(r) + 1e7,
            "{} matches D0/D5 better than RoCC",
            r.scheme.name()
        );
    }
    // And D0 gets its full most-congested-link share only under RoCC.
    let ideal = 5e9 * (1000.0 / 1048.0);
    assert!((rocc.throughput[0] - ideal).abs() / ideal < 0.05);
}

#[test]
fn fig12b_rocc_equalizes_the_asymmetric_topology() {
    let rows = micro::fig12b(Scale::Quick);
    let rocc = rows.iter().find(|r| r.scheme == Scheme::Rocc).unwrap();
    let hpcc = rows.iter().find(|r| r.scheme == Scheme::Hpcc).unwrap();
    assert!(jain_fairness(&rocc.throughput).unwrap() > 0.999);
    // HPCC's fast-NIC bias: flows 5/6 (100G hosts) above flows 0–4.
    let slow_max = hpcc.throughput[..5].iter().cloned().fold(f64::MIN, f64::max);
    let fast_min = hpcc.throughput[5..].iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        fast_min > slow_max,
        "HPCC bias not visible: slow max {slow_max:.2e} vs fast min {fast_min:.2e}"
    );
}

#[test]
fn fig5_surface_has_the_paper_ridge() {
    let pts = analytic::fig5(10);
    // The best margins live at small α with β ≈ 0.4–1.5 (the ridge in the
    // paper's surface); both very small and very large β are worse.
    let best = pts
        .iter()
        .max_by(|a, b| a.phase_margin_deg.partial_cmp(&b.phase_margin_deg).unwrap())
        .unwrap();
    assert!(best.phase_margin_deg > 70.0);
    assert!(best.beta > 0.2 && best.beta < 2.0, "ridge at beta {}", best.beta);
    assert!(best.alpha < 0.1, "ridge at alpha {}", best.alpha);
}
