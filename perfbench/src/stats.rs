//! Order statistics over latency samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, the "p99" of a run would just be
//! its maximum, which one scheduling hiccup decides.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median; the mean of the two middle samples for an even count.
///
/// # Panics
/// On an empty slice (a workload that timed nothing is a harness bug).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `q` (0 < q ≤ 1) among `n` samples:
/// the smallest rank with at least a `q` share of samples at or below it.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    // The epsilon keeps 0.99 × 1000 at rank 990 despite 0.99 having no
    // exact binary form.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Nearest-rank percentile `q` with no tail rule.
///
/// # Panics
/// On an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    sorted(samples)[rank(samples.len(), q) - 1]
}

/// Nearest-rank percentile `q`, refused unless at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it; {n} samples leave {}",
            q * 100.0,
            if n == 0 { 0 } else { beyond(n, q) }
        ));
    }
    Ok(percentile(samples, q))
}

/// Quantile `q` (0 ≤ q ≤ 1) by linear interpolation between the two
/// closest ranks, the lowest sample being quantile 0 and the highest 1.
///
/// # Panics
/// On an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let sorted = sorted(samples);
    let at = q * (sorted.len() - 1) as f64;
    let (below, frac) = (at.floor() as usize, at.fract());
    match sorted.get(below + 1) {
        Some(above) => sorted[below] + frac * (above - sorted[below]),
        None => sorted[below],
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
