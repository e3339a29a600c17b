//! Repetition statistics: median, MAD, min, max and n of a sample (a run
//! reports the fastest repetition and prints the rest beside it), and the
//! rule that decides by how much one result is worse than another.
//!
//! With fewer than twenty repetitions no tail percentile has ten samples
//! beyond it, so none is reported.

/// Median of `v` (mean of the two middle values for even `n`; 0 if empty).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Summary of one timed quantity over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarise `v`.
    pub fn of(v: &[f64]) -> Summary {
        let m = median(v);
        let dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
        Summary {
            median: m,
            min: v.iter().copied().fold(f64::INFINITY, f64::min),
            max: v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mad: median(&dev),
            n: v.len(),
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 100.0, 5));
        // |x - 3| = 2, 1, 0, 1, 97 → median 1.
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(1.0, 1.1, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worse_by(1.0, 0.9, Better::Lower) < 0.0);
    }
}
