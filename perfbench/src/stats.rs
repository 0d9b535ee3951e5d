//! Order statistics over timing samples: nearest-rank percentiles that
//! carry their sample count, the median used for per-run figures, and
//! per-window percentiles.

use std::collections::BTreeMap;

/// A percentile together with the samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value, in the samples' unit.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub n: usize,
    /// How many samples lie strictly above the percentile's rank.
    pub beyond: usize,
}

/// The 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p` percent of the samples at or below it.
/// `None` for no samples or a percentile outside `0..=100`.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    // Exact in integer arithmetic for the percentiles used here (whole
    // or tenths of a percent): rank = ceil(p * n / 100).
    let p_milli = (p * 1000.0).round() as u128;
    let rank = (p_milli * n as u128).div_ceil(100_000);
    Some((rank as usize).clamp(1, n))
}

/// Nearest-rank percentile `p` of `samples` (any order).
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    let rank = nearest_rank(samples.len(), p)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = *sorted.get(rank - 1)?;
    Some(Pct {
        value,
        n: sorted.len(),
        beyond: sorted.len() - rank,
    })
}

/// The median of `samples` (the mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let hi = *sorted.get(n / 2)?;
    if n % 2 == 1 {
        Some(hi)
    } else {
        let lo = *sorted.get(n / 2 - 1)?;
        Some((lo + hi) / 2.0)
    }
}

/// A percentile taken per time window, then the median over the windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedPct {
    /// The median over the counted windows of each window's percentile.
    pub value: f64,
    /// Windows that held enough samples to count.
    pub windows: usize,
    /// The smallest counted window: its samples, and how many of them lie
    /// beyond its percentile.
    pub fewest: Pct,
}

/// Nearest-rank percentile `p` of each `window_ns`-long window of
/// `(time_ns, value)` samples, counting only windows that hold at least
/// `min_samples`, and the median of those per-window percentiles. A stall
/// of the host moves only the windows it falls in, so this is steadier
/// from run to run than one percentile over the whole phase.
pub fn windowed(
    samples: &[(u64, f64)],
    window_ns: u64,
    p: f64,
    min_samples: usize,
) -> Option<WindowedPct> {
    let t0 = samples.iter().map(|&(t, _)| t).min()?;
    let mut by_window: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        by_window
            .entry((t - t0) / window_ns.max(1))
            .or_default()
            .push(v);
    }
    let per_window: Vec<Pct> = by_window
        .values()
        .filter(|w| w.len() >= min_samples)
        .filter_map(|w| percentile(w, p))
        .collect();
    let fewest = *per_window.iter().min_by_key(|w| w.n)?;
    let values: Vec<f64> = per_window.iter().map(|w| w.value).collect();
    Some(WindowedPct {
        value: median(&values)?,
        windows: per_window.len(),
        fewest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(0, 50.0), None);
        assert_eq!(nearest_rank(10, 101.0), None);
        assert_eq!(nearest_rank(1, 99.0), Some(1));
        assert_eq!(nearest_rank(10, 50.0), Some(5));
        assert_eq!(nearest_rank(11, 50.0), Some(6));
        assert_eq!(nearest_rank(100, 99.0), Some(99));
        assert_eq!(nearest_rank(1000, 99.0), Some(990));
        assert_eq!(nearest_rank(1001, 99.0), Some(991));
        assert_eq!(nearest_rank(10, 0.0), Some(1));
        assert_eq!(nearest_rank(10, 100.0), Some(10));
        assert_eq!(nearest_rank(1000, 99.9), Some(999));
    }

    #[test]
    fn percentile_reports_its_sample_count_and_tail() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).expect("samples");
        assert_eq!(p99.value.to_bits(), 990.0f64.to_bits());
        assert_eq!(p99.n, 1000);
        assert_eq!(p99.beyond, 10);
        let p50 = percentile(&samples, 50.0).expect("samples");
        assert_eq!(p50.value.to_bits(), 500.0f64.to_bits());
        assert_eq!(p50.beyond, 500);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn a_single_sample_is_every_percentile() {
        let p = percentile(&[7.5], 99.0).expect("one sample");
        assert_eq!(p.value.to_bits(), 7.5f64.to_bits());
        assert_eq!((p.n, p.beyond), (1, 0));
    }

    #[test]
    fn windowed_percentiles_take_the_median_over_full_windows() {
        // Three 10 ns windows of 100 samples; the second is slow, and a
        // trailing window of 5 samples is too small to count.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                let slow = if w == 1 { 1000.0 } else { 0.0 };
                samples.push((w * 10 + i % 10, slow + (i + 1) as f64));
            }
        }
        samples.extend((0..5).map(|i| (30 + i, 1e9)));
        let got = windowed(&samples, 10, 99.0, 50).expect("windows");
        assert_eq!(got.windows, 3);
        assert_eq!(got.value.to_bits(), 99.0f64.to_bits());
        assert_eq!((got.fewest.n, got.fewest.beyond), (100, 1));
        assert!(windowed(&samples, 10, 99.0, 101).is_none());
        assert!(windowed(&[], 10, 50.0, 1).is_none());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[]), None);
        assert_eq!(
            median(&[3.0, 1.0, 2.0]).map(f64::to_bits),
            Some(2.0f64.to_bits())
        );
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]).map(f64::to_bits),
            Some(2.5f64.to_bits())
        );
    }
}
