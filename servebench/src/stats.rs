//! Latency summaries: nearest-rank percentiles with the tail rule used
//! throughout the benchmark — a percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie beyond it, and every percentile is
//! printed with the sample count it came from.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index (1-based) of percentile `p` over `n` samples.
/// The product is nudged down by a relative 1e-12 before rounding up,
/// so `99.9 % of 10000` is rank 9990, not 9991.
pub fn rank(n: usize, p: f64) -> usize {
    let x = p * n as f64 / 100.0;
    (x - x * 1e-12).ceil().clamp(1.0, n.max(1) as f64) as usize
}

/// Samples strictly beyond percentile `p` over `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when there are too few samples for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// True when `p` may be reported over `n` samples.
pub fn reportable(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// A latency distribution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile with [`MIN_BEYOND`] samples beyond it.
    pub tail_p: f64,
    /// Its value.
    pub tail: f64,
}

impl Summary {
    /// Summarises `values` (any order). `None` when there are too few
    /// samples to report even a median under the tail rule.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(v.len())?;
        Some(Summary {
            n: v.len(),
            p50: percentile(&v, 50.0)?,
            tail_p,
            tail: percentile(&v, tail_p)?,
        })
    }
}

/// Median of `values` (any order; the lower middle on even counts, the
/// nearest-rank convention used everywhere else).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Percentile `p` of time-ordered `values`, as the median over an odd
/// number of contiguous slices, each large enough to report `p` on its
/// own. A burst of slowness then moves one slice's value, not the
/// result. Returns the value and the slice count; `None` when even one
/// slice would be too small.
pub fn sliced_percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    let min = (1..=values.len()).find(|&n| reportable(n, p))?;
    let mut slices = (values.len() / min).max(1);
    if slices.is_multiple_of(2) {
        slices -= 1;
    }
    let size = values.len() / slices;
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices { values.len() } else { (i + 1) * size };
            let mut v = values[i * size..end].to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, p).expect("slice is non-empty")
        })
        .collect();
    Some((median(&per_slice)?, slices))
}
