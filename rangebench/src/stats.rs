//! Exact order statistics over per-sample timings.
//!
//! Every latency the benchmark reports is computed here from the individual
//! samples it took, never from bucketed histograms: the farm's own p50/p99
//! interpolate inside `LATENCY_SECONDS` buckets and can move by 2× between
//! identical runs.

/// The nearest-rank `pct`-th percentile of `samples` (sorted internally):
/// the sample at 1-based rank `ceil(pct × n / 100)`. `None` when empty.
pub fn nearest_rank(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// The median by nearest rank (the lower middle sample for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    nearest_rank(samples, 50)
}

/// The 1-based nearest rank of the `pct`-th percentile among `n` samples,
/// in integer arithmetic so `0.99 × 1000` cannot round the wrong way.
fn rank(n: usize, pct: u32) -> usize {
    let pct = pct.min(100) as usize;
    (pct * n).div_ceil(100).max(1)
}

/// How many samples lie strictly beyond the nearest-rank `pct`-th percentile
/// of `n` samples.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The sample count a `pct`-th percentile needs so that at least ten samples
/// lie beyond it — the rule for reporting a tail percentile at all.
pub fn samples_for_tail(pct: u32) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, pct) >= 10)
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50), Some(5.0));
        assert_eq!(nearest_rank(&xs, 90), Some(9.0));
        assert_eq!(nearest_rank(&xs, 91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 100), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50), None);
        // Order of the input does not matter.
        let shuffled = [3.0, 1.0, 2.0];
        assert_eq!(median(&shuffled), Some(2.0));
    }

    #[test]
    fn p99_of_a_thousand_has_ten_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        assert_eq!(samples_for_tail(99), 1000);
        assert_eq!(samples_for_tail(50), 20);
        assert_eq!(samples_beyond(0, 99), 0);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 99), Some(990.0));
    }
}
