//! # rocc-stats — statistics for network experiments
//!
//! Percentiles, means with confidence intervals over repeated runs,
//! flow-size binning (the paper reports FCT per flow-size bin with 95% CIs
//! over 5 repetitions), Jain's fairness index, and the fidelity metrics
//! used by the run observatory (`repro compare`): convergence-time
//! detection on sampled series, quantiles over pre-bucketed histograms,
//! and a normalized histogram distance.

#![warn(missing_docs)]

pub mod digest;
pub mod json;

use std::fmt;

/// A typed rejection from a statistics function: the input is malformed in
/// a way that has no meaningful numeric answer. Callers get a value they
/// can report instead of a panic deep inside an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatsError {
    /// The sample set is empty.
    Empty,
    /// A sample is NaN, so no total order over the samples exists.
    NanSample,
    /// The requested quantile is NaN or outside `[0, 1]`.
    QuantileOutOfRange {
        /// The offending quantile.
        q: f64,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::Empty => write!(f, "empty sample set"),
            StatsError::NanSample => write!(f, "sample set contains NaN"),
            StatsError::QuantileOutOfRange { q } => {
                write!(f, "quantile {q} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Summary statistics of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarize a sample set. Returns `None` for empty input.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
    }
    Some(Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    })
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on the sorted
/// sample (type-7, the common default). Rejects empty input, NaN samples,
/// and out-of-range `q` with a typed [`StatsError`] instead of asserting.
pub fn percentile(xs: &[f64], q: f64) -> Result<f64, StatsError> {
    if xs.is_empty() {
        return Err(StatsError::Empty);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::QuantileOutOfRange { q });
    }
    if xs.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NanSample);
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return Ok(v[lo]);
    }
    let f = pos - lo as f64;
    Ok(v[lo] * (1.0 - f) + v[hi] * f)
}

/// The `q`-quantile of a pre-bucketed distribution: `buckets` is a sequence
/// of `(lower_bound, count)` pairs in ascending bound order (empty buckets
/// may be omitted). Returns the lower bound of the bucket holding the q-th
/// recorded value — the same convention as HDR-style histogram readers, so
/// `rocc-sim`'s telemetry histograms and `repro compare` share one
/// implementation. Rejects empty/zero-count input and out-of-range `q`.
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> Result<u64, StatsError> {
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::QuantileOutOfRange { q });
    }
    let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return Err(StatsError::Empty);
    }
    let rank = ((q * n as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for &(low, c) in buckets {
        seen += c;
        if seen >= rank {
            return Ok(low);
        }
    }
    // Unreachable: seen reaches n ≥ rank on the last bucket.
    Ok(buckets.last().map(|&(low, _)| low).unwrap_or(0))
}

/// First time after which a sampled series stays within `tol · target` of
/// `target` for every remaining sample (the paper's "convergence time" /
/// settle-time notion on Fig. 8/9 curves). `series` is `(time, value)`
/// pairs in time order. `None` when it never settles; an error for empty
/// input or a NaN target/tolerance.
pub fn convergence_time(
    series: &[(f64, f64)],
    target: f64,
    tol: f64,
) -> Result<Option<f64>, StatsError> {
    if series.is_empty() {
        return Err(StatsError::Empty);
    }
    if target.is_nan() || tol.is_nan() {
        return Err(StatsError::NanSample);
    }
    let band = tol * target.abs();
    let mut candidate: Option<f64> = None;
    for &(t, v) in series {
        if v.is_nan() {
            return Err(StatsError::NanSample);
        }
        if (v - target).abs() <= band {
            candidate.get_or_insert(t);
        } else {
            candidate = None;
        }
    }
    Ok(candidate)
}

/// Total-variation distance between two bucketed distributions, in
/// `[0, 1]`: half the L1 distance between the count-normalized histograms,
/// matching buckets by lower bound. 0 = identical shape, 1 = disjoint
/// support. Symmetric by construction. Rejects distributions with zero
/// total count.
pub fn histogram_distance(a: &[(u64, u64)], b: &[(u64, u64)]) -> Result<f64, StatsError> {
    let na: u64 = a.iter().map(|&(_, c)| c).sum();
    let nb: u64 = b.iter().map(|&(_, c)| c).sum();
    if na == 0 || nb == 0 {
        return Err(StatsError::Empty);
    }
    let mut keys: Vec<u64> = a.iter().chain(b.iter()).map(|&(low, _)| low).collect();
    keys.sort_unstable();
    keys.dedup();
    let mass = |xs: &[(u64, u64)], key: u64, n: u64| -> f64 {
        xs.iter()
            .filter(|&&(low, _)| low == key)
            .map(|&(_, c)| c)
            .sum::<u64>() as f64
            / n as f64
    };
    let l1: f64 = keys
        .iter()
        .map(|&k| (mass(a, k, na) - mass(b, k, nb)).abs())
        .sum();
    Ok((l1 / 2.0).clamp(0.0, 1.0))
}

/// Two-sided Student-t critical values at 95% for small n (the paper runs
/// 5 repetitions → 4 degrees of freedom → t = 2.776).
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// A mean with a 95% confidence half-width over independent repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanCi {
    /// Mean over repetitions.
    pub mean: f64,
    /// 95% confidence half-width (± this).
    pub ci95: f64,
    /// Number of repetitions.
    pub n: usize,
}

/// Mean ± 95% CI across per-repetition values (Student t, as appropriate
/// for the paper's 5 repetitions).
pub fn mean_ci95(reps: &[f64]) -> Option<MeanCi> {
    if reps.is_empty() {
        return None;
    }
    let n = reps.len();
    let mean = reps.iter().sum::<f64>() / n as f64;
    if n == 1 {
        return Some(MeanCi {
            mean,
            ci95: 0.0,
            n,
        });
    }
    let var = reps.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    Some(MeanCi {
        mean,
        ci95: t_critical_95(n - 1) * se,
        n,
    })
}

/// Assign `size` to the paper-style bin: the first edge ≥ size (values
/// beyond the last edge land in the last bin).
pub fn bin_index(edges: &[u64], size: u64) -> usize {
    for (i, &e) in edges.iter().enumerate() {
        if size <= e {
            return i;
        }
    }
    edges.len() - 1
}

/// Group values by flow-size bin: `(size, value)` pairs → per-bin vectors.
pub fn bin_values(edges: &[u64], items: impl IntoIterator<Item = (u64, f64)>) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); edges.len()];
    for (size, v) in items {
        out[bin_index(edges, size)].push(v);
    }
    out
}

/// Jain's fairness index: (Σx)² / (n·Σx²); 1.0 = perfectly fair.
pub fn jain_fairness(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return Some(1.0);
    }
    Some(s * s / (xs.len() as f64 * s2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - 1.118).abs() < 1e-3);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Ok(1.0));
        assert_eq!(percentile(&xs, 1.0), Ok(4.0));
        assert_eq!(percentile(&xs, 0.5), Ok(2.5));
        assert_eq!(percentile(&xs, 0.25), Ok(1.75));
    }

    #[test]
    fn p99_on_large_sample() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let p99 = percentile(&xs, 0.99).unwrap();
        assert!((p99 - 990.01).abs() < 0.02);
    }

    #[test]
    fn percentile_rejects_bad_input_with_typed_errors() {
        assert_eq!(percentile(&[], 0.5), Err(StatsError::Empty));
        assert_eq!(
            percentile(&[1.0, f64::NAN], 0.5),
            Err(StatsError::NanSample)
        );
        assert_eq!(
            percentile(&[1.0], 1.5),
            Err(StatsError::QuantileOutOfRange { q: 1.5 })
        );
        assert_eq!(
            percentile(&[1.0], -0.1),
            Err(StatsError::QuantileOutOfRange { q: -0.1 })
        );
        assert!(matches!(
            percentile(&[1.0], f64::NAN),
            Err(StatsError::QuantileOutOfRange { .. })
        ));
    }

    #[test]
    fn bucket_quantile_walks_cumulative_counts() {
        // 10 values at 0, 80 at 100, 10 at 1000.
        let b = [(0u64, 10u64), (100, 80), (1000, 10)];
        assert_eq!(bucket_quantile(&b, 0.05), Ok(0));
        assert_eq!(bucket_quantile(&b, 0.5), Ok(100));
        assert_eq!(bucket_quantile(&b, 0.95), Ok(1000));
        assert_eq!(bucket_quantile(&b, 0.0), Ok(0));
        assert_eq!(bucket_quantile(&b, 1.0), Ok(1000));
        assert_eq!(bucket_quantile(&[], 0.5), Err(StatsError::Empty));
        assert!(matches!(
            bucket_quantile(&b, 2.0),
            Err(StatsError::QuantileOutOfRange { .. })
        ));
    }

    #[test]
    fn convergence_time_on_step_series() {
        // Steps to the target at t=3 and stays: converges at 3.
        let s: Vec<(f64, f64)> = (0..10)
            .map(|i| (i as f64, if i < 3 { 0.0 } else { 100.0 }))
            .collect();
        assert_eq!(convergence_time(&s, 100.0, 0.05), Ok(Some(3.0)));
        // A late excursion resets the detector.
        let mut osc = s.clone();
        osc.push((10.0, 200.0));
        osc.push((11.0, 100.0));
        assert_eq!(convergence_time(&osc, 100.0, 0.05), Ok(Some(11.0)));
        // Never inside the band.
        assert_eq!(convergence_time(&s, 500.0, 0.01), Ok(None));
        assert_eq!(convergence_time(&[], 1.0, 0.1), Err(StatsError::Empty));
    }

    #[test]
    fn histogram_distance_bounds_and_symmetry() {
        let a = [(0u64, 50u64), (100, 50)];
        let same = [(0u64, 5u64), (100, 5)]; // same shape, different count
        let disjoint = [(1000u64, 7u64)];
        assert_eq!(histogram_distance(&a, &same), Ok(0.0));
        assert_eq!(histogram_distance(&a, &disjoint), Ok(1.0));
        let d1 = histogram_distance(&a, &disjoint).unwrap();
        let d2 = histogram_distance(&disjoint, &a).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(histogram_distance(&a, &[]), Err(StatsError::Empty));
    }

    #[test]
    fn ci_for_five_reps_uses_t4() {
        // Paper setup: 5 repetitions, 95% CI → t = 2.776.
        let r = mean_ci95(&[10.0, 11.0, 9.0, 10.5, 9.5]).unwrap();
        assert_eq!(r.n, 5);
        assert!((r.mean - 10.0).abs() < 1e-12);
        let sd: f64 = 0.625f64.sqrt(); // sample variance 0.625
        let expect = 2.776 * sd / 5f64.sqrt();
        assert!((r.ci95 - expect).abs() < 1e-9);
    }

    #[test]
    fn ci_single_rep_is_zero() {
        let r = mean_ci95(&[3.0]).unwrap();
        assert_eq!(r.ci95, 0.0);
    }

    #[test]
    fn binning_matches_paper_convention() {
        let edges = [10_000u64, 20_000, 30_000];
        assert_eq!(bin_index(&edges, 500), 0);
        assert_eq!(bin_index(&edges, 10_000), 0);
        assert_eq!(bin_index(&edges, 10_001), 1);
        assert_eq!(bin_index(&edges, 25_000), 2);
        assert_eq!(bin_index(&edges, 99_000_000), 2);
    }

    #[test]
    fn bin_values_groups() {
        let edges = [10u64, 20];
        let bins = bin_values(&edges, vec![(5, 1.0), (15, 2.0), (25, 3.0), (8, 4.0)]);
        assert_eq!(bins[0], vec![1.0, 4.0]);
        assert_eq!(bins[1], vec![2.0, 3.0]);
    }

    #[test]
    fn jain_index() {
        assert_eq!(jain_fairness(&[1.0, 1.0, 1.0]), Some(1.0));
        let unfair = jain_fairness(&[1.0, 0.0, 0.0]).unwrap();
        assert!((unfair - 1.0 / 3.0).abs() < 1e-12);
        assert!(jain_fairness(&[]).is_none());
    }
}
