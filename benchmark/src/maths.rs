//! Exact order statistics: percentiles by nearest rank, medians, quartiles
//! as Python's `statistics.quantiles(values, n=4)` gives them, and the
//! median-over-windows estimators the end-to-end metrics use.

/// Width of the windows throughput and tail latency are taken over.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// The `p`-th percentile (`0 < p <= 1`) by nearest rank: the smallest
/// sample with at least `p` of the samples at or below it. Reorders
/// `samples`. Returns `None` when there are none.
pub fn percentile(samples: &mut [u32], p: f64) -> Option<u32> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, value, _) = samples.select_nth_unstable(rank - 1);
    Some(*value)
}

/// The median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First, second and third quartile by the exclusive method (Python's
/// default). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median;
/// 0 when there are too few values to tell.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Latency samples of an open-loop phase, bucketed into windows by the time
/// each request was *due*, so a stall lands in the window it delayed.
pub struct Windowed {
    windows: Vec<Vec<u32>>,
}

impl Windowed {
    pub fn new(windows: usize) -> Windowed {
        Windowed {
            windows: vec![Vec::new(); windows],
        }
    }

    /// Records one sample due `due_ns` after the phase began; samples due
    /// after the last whole window are dropped.
    pub fn record(&mut self, due_ns: u64, latency_ns: u32) {
        if let Some(window) = self.windows.get_mut((due_ns / WINDOW_NS) as usize) {
            window.push(latency_ns);
        }
    }

    pub fn merge(&mut self, other: Windowed) {
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
    }

    /// The exact `p`-th percentile of every non-empty window, in µs.
    pub fn per_window_us(&mut self, p: f64) -> Vec<f64> {
        self.windows
            .iter_mut()
            .filter_map(|w| percentile(w, p))
            .map(|ns| f64::from(ns) / 1e3)
            .collect()
    }

    /// The exact `p`-th percentile over all samples, in µs.
    pub fn overall_us(&self, p: f64) -> Option<f64> {
        let mut all: Vec<u32> = self.windows.iter().flatten().copied().collect();
        percentile(&mut all, p).map(|ns| f64::from(ns) / 1e3)
    }

    /// Share of samples above `limit_ns`.
    pub fn share_above(&self, limit_ns: u32) -> f64 {
        let total = self.samples();
        if total == 0 {
            return 0.0;
        }
        let above = self
            .windows
            .iter()
            .flatten()
            .filter(|&&ns| ns > limit_ns)
            .count();
        above as f64 / total as f64
    }

    pub fn samples(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Fewest samples beyond the `p`-th percentile in any window.
    pub fn min_beyond(&self, p: f64) -> usize {
        self.windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| w.len() - ((p * w.len() as f64).ceil() as usize).min(w.len()))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut samples: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.5), Some(50));
        assert_eq!(percentile(&mut samples, 0.99), Some(99));
        assert_eq!(percentile(&mut samples, 1.0), Some(100));
        assert_eq!(percentile(&mut [7], 0.99), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4)
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert!((spread(&values) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_median_ignores_one_bad_window() {
        let mut w = Windowed::new(3);
        for i in 0..1000u64 {
            w.record(i * 1_000_000, 100_000); // window 0: flat 100 µs
            w.record(WINDOW_NS + i * 1_000_000, 100_000 + i as u32 * 1000);
            w.record(2 * WINDOW_NS + i * 1_000_000, 5_000_000); // a stall
        }
        w.record(3 * WINDOW_NS, 1); // past the last window: dropped
        assert_eq!(w.samples(), 3000);
        let p99 = w.per_window_us(0.99);
        assert_eq!(p99, vec![100.0, 1089.0, 5000.0]);
        assert_eq!(median(&p99), Some(1089.0));
        assert_eq!(w.min_beyond(0.99), 10);
        assert!((w.share_above(1_000_000) - (1000.0 + 99.0) / 3000.0).abs() < 1e-9);
    }
}
