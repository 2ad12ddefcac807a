//! Order statistics, per-op normalisation and ratios for the reports.

use std::fmt;

/// Percentiles the report may quote, lowest first.
pub const PERCENTILES: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// A percentile is only quoted when at least this many samples lie
/// beyond it; with fewer, one outlier decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly above quantile `q` among `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Value at quantile `q` (nearest rank) of `sorted`, which must be
/// ascending; `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The highest of [`PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// beyond it among `n`.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Fewest samples for which quantile `q` has [`MIN_BEYOND`] samples
/// beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, q) >= MIN_BEYOND)
        .expect("unbounded search")
}

/// Median of unsorted values (mean of the middle two for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// A total spread over the ops that produced it; 0 for no ops.
pub fn per_op(total: f64, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// A ratio that keeps its base, so a report shows what it divides.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator: the base.
    pub den: f64,
}

impl Ratio {
    /// `num / den`; 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.num.fract() == 0.0 && self.den.fract() == 0.0;
        let prec = if whole { 0 } else { 3 };
        write!(
            f,
            "{:.4} ({:.prec$}/{:.prec$})",
            self.value(),
            self.num,
            self.den
        )
    }
}
