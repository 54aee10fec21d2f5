//! Exact order statistics over raw samples. Every percentile comes from the
//! sorted samples themselves, never from a bucketed histogram, and travels
//! with the sample count it was computed from.

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a `q` share of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples not sorted"
    );
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether at least ten of `n` samples lie beyond the `q` percentile, the
/// least evidence a tail percentile is reported on.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// Median, p99 (only where [`supports`] allows it) and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: Option<f64>,
}

/// Summarizes `samples` (any order); `None` for no samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 0.50),
        p99: supports(sorted.len(), 0.99).then(|| percentile(&sorted, 0.99)),
    })
}

/// Median of `samples`, or 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

/// Steps of the calibration loop.
const CALIBRATION_STEPS: u64 = 1 << 20;

/// Median host time, in ns, of five runs of a fixed integer loop
/// ([`CALIBRATION_STEPS`] SplitMix64 draws), after one untimed run. The
/// work never changes, so a change in this figure between runs is a change
/// in host speed, not in the program.
pub fn calibration_ns() -> f64 {
    let samples: Vec<f64> = (0..6)
        .map(|_| {
            let mut rng = crate::gen::Rng::new(std::hint::black_box(1));
            let t0 = std::time::Instant::now();
            for _ in 0..CALIBRATION_STEPS {
                std::hint::black_box(rng.next_u64());
            }
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples[1..])
}

/// Peak resident set of this process so far in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_hand_built_samples() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 9.0);
        assert_eq!(percentile(&sorted, 0.91), 10.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, Some(989.0));
        let few = summarize(&samples[..500]).unwrap();
        assert_eq!(few.p99, None);
    }

    #[test]
    fn distinct_percentiles_from_a_skewed_sample() {
        // A power-of-two histogram would put all three in one bucket.
        let mut samples: Vec<f64> = (0..2000).map(|i| 5.0 + i as f64 * 0.0005).collect();
        samples.push(6.2);
        let s = summarize(&samples).unwrap();
        assert!(s.p50 < s.p99.unwrap());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
