//! Multi-metric performance ratchet over `BENCH_sim.json` (schema v2).
//!
//! A ratchet is a committed baseline that only moves in the *good*
//! direction: [`check`] fails when a fresh benchmark regresses past a
//! metric's tolerance against the baseline, and [`advance`] folds a fresh
//! run into the baseline by keeping, per metric, the better of the two
//! values — so improvements tighten the gate automatically while noise
//! within tolerance never loosens it.
//!
//! The JSON is hand-rolled on the write side and flat-parsed here, which
//! works because every metric key in the v2 schema is globally unique in
//! the document (`engine_wall_seconds` vs `serial_wall_seconds`, etc.).

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput).
    Higher,
    /// Smaller is better (wall-clock, overhead).
    Lower,
}

/// How much a fresh value may regress before [`check`] fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Fractional slack against the baseline: `Relative(0.2)` on a
    /// [`Direction::Higher`] metric fails below 80% of the baseline, on a
    /// [`Direction::Lower`] metric above 120%.
    Relative(f64),
    /// A fixed ceiling, independent of any baseline (the fresh value
    /// itself must not exceed it). The metric is not ratcheted.
    AbsoluteMax(f64),
}

/// One gated metric of the v2 benchmark document.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The (globally unique) JSON key.
    pub key: &'static str,
    /// Which way improvement points.
    pub direction: Direction,
    /// Allowed regression before the gate trips.
    pub tolerance: Tolerance,
}

/// The ratcheted metric set for `BENCH_sim.json` v2.
///
/// Throughput gets the historical 20% slack (single-run noise on shared
/// CI hosts), wall-clock sweeps 25% (shorter, noisier), and profiler
/// overhead is an absolute gate on the *percentage* cost of the phase
/// profiler against the gated-off engine. The ceiling was 3% when the
/// engine ran at 4.5M events/sec; the timing-wheel engine is ~2x faster,
/// so the same absolute per-event profiler cost (a few ns of counter
/// bumps and sampled clock reads) is ~2x the percentage — the ceiling is
/// recalibrated to 5% to keep gating the same absolute budget.
///
/// `engine_events` is a count, not a timing: the engine leg is a fixed,
/// seeded incast, so its event count repeats exactly and gets zero
/// tolerance. An event the design does not need (the per-packet dead RTO
/// timers were 18 % of this count for a dozen PRs) fails the gate
/// deterministically instead of hiding inside the events/s band; a change
/// that needs more events re-baselines `BENCH_sim.json` and says why.
pub const METRICS: &[Metric] = &[
    Metric {
        key: "engine_events",
        direction: Direction::Lower,
        tolerance: Tolerance::Relative(0.0),
    },
    Metric {
        key: "events_per_sec",
        direction: Direction::Higher,
        tolerance: Tolerance::Relative(0.20),
    },
    Metric {
        key: "serial_wall_seconds",
        direction: Direction::Lower,
        tolerance: Tolerance::Relative(0.25),
    },
    Metric {
        key: "parallel_wall_seconds",
        direction: Direction::Lower,
        tolerance: Tolerance::Relative(0.25),
    },
    Metric {
        key: "profiler_overhead_pct",
        direction: Direction::Lower,
        tolerance: Tolerance::AbsoluteMax(5.0),
    },
];

/// Improvement ratio of a fresh benchmark value over the recorded
/// previous ratchet entry: pass `(fresh, base)` for higher-is-better
/// metrics (throughput) and `(base, fresh)` for lower-is-better ones
/// (wall-clock), so the result reads "Nx better" either way. Degenerate
/// inputs (absent baseline, zero denominators) report 1.0 — "no measured
/// change" — rather than poisoning the document with inf/NaN.
pub fn speedup(numer: Option<f64>, denom: Option<f64>) -> f64 {
    match (numer, denom) {
        (Some(n), Some(d)) if n > 0.0 && d > 0.0 => n / d,
        _ => 1.0,
    }
}

/// Extract `"key":<number>` from a flat-enough JSON document, or `None`
/// if the key is absent. (Keys in the v2 schema are globally unique; the
/// leading quote in the needle keeps `events_per_sec` from matching
/// inside `profiled_events_per_sec`.)
pub fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)?;
    let rest = &doc[at + needle.len()..];
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Replace the number following `"key":` with `value`, returning the new
/// document. Panics if the key is absent — [`advance`] only rewrites keys
/// it just read.
fn replace_number(doc: &str, key: &str, value: f64) -> String {
    let needle = format!("\"{key}\":");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("key {key:?} missing from JSON"));
    let start = at + needle.len();
    let rest = &doc[start..];
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    format!("{}{}{}", &doc[..start], value, &doc[start + end..])
}

/// One metric's verdict from [`check`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (the human-readable line says by how much).
    Pass(String),
    /// Regressed past tolerance.
    Fail(String),
    /// Metric absent from the baseline (fresh schema is newer): passes,
    /// flagged so the log shows the gate was vacuous.
    NoBaseline(String),
}

impl Verdict {
    /// Whether this verdict trips the gate.
    pub fn failed(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }

    /// The human-readable line.
    pub fn line(&self) -> &str {
        match self {
            Verdict::Pass(s) | Verdict::Fail(s) | Verdict::NoBaseline(s) => s,
        }
    }
}

/// Gate a fresh benchmark document against the committed ratchet: one
/// verdict per metric in [`METRICS`]. A metric missing from the *fresh*
/// document is a hard failure (the benchmark should always emit the full
/// schema); missing from the *baseline* it passes as [`Verdict::NoBaseline`]
/// so a schema upgrade can land before its first ratchet advance.
pub fn check(fresh: &str, base: &str) -> Vec<Verdict> {
    METRICS
        .iter()
        .map(|m| {
            let Some(f) = json_number(fresh, m.key) else {
                return Verdict::Fail(format!("{}: missing from fresh benchmark", m.key));
            };
            match m.tolerance {
                Tolerance::AbsoluteMax(max) => {
                    if f > max {
                        Verdict::Fail(format!("{}: {f:.3} exceeds absolute ceiling {max}", m.key))
                    } else {
                        Verdict::Pass(format!("{}: {f:.3} <= ceiling {max}", m.key))
                    }
                }
                Tolerance::Relative(tol) => {
                    let Some(b) = json_number(base, m.key) else {
                        return Verdict::NoBaseline(format!(
                            "{}: no baseline yet (fresh {f:.3})",
                            m.key
                        ));
                    };
                    let (bad, bound) = match m.direction {
                        Direction::Higher => (f < (1.0 - tol) * b, (1.0 - tol) * b),
                        Direction::Lower => (f > (1.0 + tol) * b, (1.0 + tol) * b),
                    };
                    let line = format!(
                        "{}: fresh {f:.3} vs ratchet {b:.3} (bound {bound:.3})",
                        m.key
                    );
                    if bad {
                        Verdict::Fail(format!("REGRESSION {line}"))
                    } else {
                        Verdict::Pass(line)
                    }
                }
            }
        })
        .collect()
}

/// Fold a fresh run into the ratchet: start from the fresh document (so
/// context fields — event counts, speedups, phase breakdown — describe
/// the latest run) and, for each relatively-gated metric where the old
/// baseline is still better, keep the baseline's value. Returns the new
/// ratchet document and a log line per retained/advanced metric.
/// Absolute-ceiling metrics always carry the fresh value: their gate does
/// not move.
pub fn advance(fresh: &str, base: &str) -> (String, Vec<String>) {
    let mut doc = fresh.to_string();
    let mut log = Vec::new();
    for m in METRICS {
        let Tolerance::Relative(_) = m.tolerance else {
            continue;
        };
        let Some(f) = json_number(fresh, m.key) else {
            continue;
        };
        let Some(b) = json_number(base, m.key) else {
            log.push(format!("{}: seeded at {f:.3}", m.key));
            continue;
        };
        let base_better = match m.direction {
            Direction::Higher => b > f,
            Direction::Lower => b < f,
        };
        if base_better {
            doc = replace_number(&doc, m.key, b);
            log.push(format!("{}: kept ratchet {b:.3} (fresh {f:.3})", m.key));
        } else {
            log.push(format!("{}: advanced {b:.3} -> {f:.3}", m.key));
        }
    }
    (doc, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2_doc(eps: f64, serial: f64, parallel: f64, overhead: f64) -> String {
        format!(
            "{{\"schema\":\"rocc-bench/v2\",\"engine\":{{\"engine_events\":1000,\"events_per_sec\":{eps}}},\
             \"profiler\":{{\"profiler_overhead_pct\":{overhead}}},\
             \"sweep\":{{\"serial_wall_seconds\":{serial},\"parallel_wall_seconds\":{parallel}}}}}"
        )
    }

    #[test]
    fn identical_rerun_passes_check() {
        let doc = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        let verdicts = check(&doc, &doc);
        assert_eq!(verdicts.len(), METRICS.len());
        assert!(verdicts.iter().all(|v| !v.failed()), "{verdicts:?}");
    }

    #[test]
    fn degraded_run_fails_each_gated_metric() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        // Throughput down 30% (> 20% slack).
        let slow = v2_doc(3.5e6, 0.14, 0.10, 1.2);
        assert!(check(&slow, &base).iter().any(|v| v.failed()));
        // Serial sweep up 50% (> 25% slack).
        let sweepy = v2_doc(5.0e6, 0.21, 0.10, 1.2);
        assert!(check(&sweepy, &base).iter().any(|v| v.failed()));
        // Profiler overhead above the absolute 5% ceiling — fails even
        // though the baseline's overhead was worse (no ratchet for it).
        let heavy = v2_doc(5.0e6, 0.14, 0.10, 5.4);
        let base_heavy = v2_doc(5.0e6, 0.14, 0.10, 7.0);
        assert!(check(&heavy, &base_heavy).iter().any(|v| v.failed()));
    }

    #[test]
    fn one_extra_engine_event_fails_and_fewer_pass() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        let more = base.replace("\"engine_events\":1000", "\"engine_events\":1001");
        assert!(check(&more, &base).iter().any(|v| v.failed()));
        let fewer = base.replace("\"engine_events\":1000", "\"engine_events\":999");
        assert!(check(&fewer, &base).iter().all(|v| !v.failed()));
        assert_eq!(
            json_number(&advance(&fewer, &base).0, "engine_events"),
            Some(999.0)
        );
    }

    #[test]
    fn noise_within_tolerance_passes() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        let noisy = v2_doc(4.2e6, 0.17, 0.12, 2.9);
        assert!(check(&noisy, &base).iter().all(|v| !v.failed()));
    }

    #[test]
    fn advance_keeps_the_better_value_per_metric() {
        let base = v2_doc(5.0e6, 0.14, 0.10, 1.2);
        // Faster engine, slower sweep: the ratchet should take fresh eps
        // and keep the baseline sweep numbers.
        let fresh = v2_doc(6.0e6, 0.16, 0.12, 2.0);
        let (next, log) = advance(&fresh, &base);
        assert_eq!(json_number(&next, "events_per_sec"), Some(6.0e6));
        assert_eq!(json_number(&next, "serial_wall_seconds"), Some(0.14));
        assert_eq!(json_number(&next, "parallel_wall_seconds"), Some(0.10));
        // Overhead is ceiling-gated, not ratcheted: fresh value carries.
        assert_eq!(json_number(&next, "profiler_overhead_pct"), Some(2.0));
        assert_eq!(log.len(), 4);
        // The advanced ratchet still passes a check against itself and
        // against the run that produced it.
        assert!(check(&next, &next).iter().all(|v| !v.failed()));
        assert!(check(&fresh, &next).iter().all(|v| !v.failed()));
    }

    #[test]
    fn advance_over_v1_baseline_seeds_missing_metrics() {
        // v1 had only events_per_sec (plus sweep seconds under the same
        // keys); a fresh v2 doc against a baseline missing the overhead
        // metric must not fail the check and must seed on advance.
        let v1 = "{\"engine\":{\"events_per_sec\":5000000}}";
        let fresh = v2_doc(4.9e6, 0.14, 0.10, 1.0);
        assert!(check(&fresh, v1).iter().all(|v| !v.failed()));
        let (next, _) = advance(&fresh, v1);
        assert_eq!(json_number(&next, "serial_wall_seconds"), Some(0.14));
        assert!(check(&fresh, &next).iter().all(|v| !v.failed()));
    }

    #[test]
    fn speedup_is_vs_the_previous_ratchet_entry_not_a_constant() {
        // Higher-is-better: fresh/base.
        assert_eq!(speedup(Some(9.0e6), Some(4.5e6)), 2.0);
        // Lower-is-better callers flip the operands: base/fresh.
        assert_eq!(speedup(Some(0.30), Some(0.15)), 2.0);
        // Degenerate inputs (no baseline yet, zeroed wall) read as 1.0.
        assert_eq!(speedup(None, Some(4.5e6)), 1.0);
        assert_eq!(speedup(Some(4.5e6), None), 1.0);
        assert_eq!(speedup(Some(0.0), Some(1.0)), 1.0);
        assert_eq!(speedup(Some(1.0), Some(0.0)), 1.0);
    }

    #[test]
    fn json_number_respects_key_boundaries() {
        let doc = "{\"profiled_events_per_sec\":1.0,\"events_per_sec\":2.0}";
        assert_eq!(json_number(doc, "events_per_sec"), Some(2.0));
        assert_eq!(json_number(doc, "profiled_events_per_sec"), Some(1.0));
        assert_eq!(json_number(doc, "absent"), None);
        assert_eq!(json_number("{\"x\":3.5e-2}", "x"), Some(0.035));
    }
}
