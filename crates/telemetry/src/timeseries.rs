//! Fixed-size time series of cumulative per-tenant counters.
//!
//! The `stats` document is a point-in-time snapshot: totals since boot. A
//! single scrape therefore shows no *trajectory* — was the hit rate rising
//! or collapsing when you looked? [`TimeSeries`] fixes that with a bounded
//! ring of interval buckets: the owner records the current cumulative
//! counters into the bucket for "now" (overwriting within the interval —
//! the *latest* sample wins), and differencing adjacent buckets turns them
//! into windowed rates ([`TimeSeries::rates`]). The server's control
//! thread samples the shards' counters at each interval's start and at
//! every `stats`, so the request path takes no clock reading for it.
//!
//! Buckets are indexed by `now_us / interval_us` from a time base the owner
//! chooses — the plane's boot instant, which the journal shares.

use serde::{Deserialize, Serialize};

/// One cumulative counter sample for one column (tenant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Cumulative GETs.
    pub gets: u64,
    /// Cumulative GET hits.
    pub hits: u64,
    /// Cumulative evictions.
    pub evictions: u64,
}

/// One interval bucket: the latest cumulative sample per column recorded
/// during that interval.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesBucket {
    /// Bucket index: `sample_time_us / interval_us`.
    pub index: u64,
    /// Latest cumulative sample per column (indexed by column id; a column
    /// is a tenant slot in the plane).
    pub columns: Vec<SeriesSample>,
}

/// Windowed rates between two adjacent buckets, per column.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SeriesRates {
    /// Bucket index of the *end* of the window.
    pub index: u64,
    /// Window length in seconds (whole intervals; > 1 when buckets were
    /// skipped because no pass sampled during an interval).
    pub seconds: f64,
    /// Per-column rates over the window.
    pub columns: Vec<ColumnRates>,
}

/// Windowed rates for one column (tenant).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ColumnRates {
    /// GET operations per second over the window.
    pub ops_per_sec: f64,
    /// Hit rate over the window (`None` when the window saw no GETs — kept
    /// an Option so JSON renders `null`, never NaN).
    pub hit_rate: Option<f64>,
    /// Evictions per second over the window.
    pub evictions_per_sec: f64,
}

/// A bounded ring of cumulative-counter buckets (see module docs).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Bucket width in microseconds.
    interval_us: u64,
    /// Maximum retained buckets; older buckets are dropped from the front.
    capacity: usize,
    /// Buckets in strictly increasing `index` order (not necessarily
    /// contiguous — an interval nobody sampled has no bucket).
    buckets: Vec<SeriesBucket>,
}

impl TimeSeries {
    /// An empty series of up to `capacity` buckets of `interval_us` each.
    pub fn new(interval_us: u64, capacity: usize) -> TimeSeries {
        assert!(interval_us > 0, "interval must be nonzero");
        assert!(capacity > 0, "capacity must be nonzero");
        TimeSeries {
            interval_us,
            capacity,
            buckets: Vec::new(),
        }
    }

    /// Bucket width in microseconds.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// Records the current cumulative `columns` at time `now_us` (micros
    /// since the shared time base). Within one interval the latest sample
    /// overwrites the bucket in place; a new interval takes over the oldest
    /// bucket once the ring holds `capacity` of them, so a full ring records
    /// without allocating. Out-of-order samples older than the newest bucket
    /// are dropped.
    pub fn record(&mut self, now_us: u64, columns: &[SeriesSample]) {
        let index = now_us / self.interval_us;
        let newest = self.buckets.last().map(|last| last.index);
        if newest.is_some_and(|newest| newest > index) {
            return;
        }
        if newest != Some(index) {
            let mut bucket = if self.buckets.len() >= self.capacity {
                self.buckets.remove(0)
            } else {
                SeriesBucket::default()
            };
            bucket.index = index;
            self.buckets.push(bucket);
        }
        let current = self.buckets.last_mut().expect("a bucket for `index`");
        current.columns.clear();
        current.columns.extend_from_slice(columns);
    }

    /// Differences adjacent buckets into windowed per-column rates, oldest
    /// window first. `n` buckets yield `n - 1` windows. Counters are
    /// cumulative, so a counter that appears to *decrease* across buckets
    /// (a tenant slot reset) clamps to zero rather than going negative.
    pub fn rates(&self) -> Vec<SeriesRates> {
        let mut out = Vec::new();
        for pair in self.buckets.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            let seconds = ((next.index - prev.index) * self.interval_us) as f64 / 1_000_000.0;
            let mut columns = Vec::with_capacity(next.columns.len());
            for (slot, sample) in next.columns.iter().enumerate() {
                let base = prev.columns.get(slot).copied().unwrap_or_default();
                let gets = sample.gets.saturating_sub(base.gets);
                let hits = sample.hits.saturating_sub(base.hits);
                let evictions = sample.evictions.saturating_sub(base.evictions);
                columns.push(ColumnRates {
                    ops_per_sec: gets as f64 / seconds,
                    hit_rate: (gets > 0).then(|| hits as f64 / gets as f64),
                    evictions_per_sec: evictions as f64 / seconds,
                });
            }
            out.push(SeriesRates {
                index: next.index,
                seconds,
                columns,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gets: u64, hits: u64, evictions: u64) -> SeriesSample {
        SeriesSample {
            gets,
            hits,
            evictions,
        }
    }

    #[test]
    fn latest_sample_within_an_interval_wins() {
        let mut ts = TimeSeries::new(1_000_000, 4);
        ts.record(100, &[sample(1, 1, 0)]);
        ts.record(900_000, &[sample(5, 3, 1)]);
        assert_eq!(ts.buckets.len(), 1);
        assert_eq!(ts.buckets[0].columns[0], sample(5, 3, 1));
        ts.record(1_100_000, &[sample(9, 5, 1)]);
        assert_eq!(ts.buckets.len(), 2);
        assert_eq!(ts.buckets[1].index, 1);
    }

    #[test]
    fn ring_drops_oldest_past_capacity() {
        let mut ts = TimeSeries::new(1_000_000, 3);
        for i in 0..5u64 {
            ts.record(i * 1_000_000, &[sample(i, i, 0)]);
        }
        let indices: Vec<u64> = ts.buckets.iter().map(|b| b.index).collect();
        assert_eq!(indices, vec![2, 3, 4]);
    }

    #[test]
    fn out_of_order_samples_are_dropped() {
        let mut ts = TimeSeries::new(1_000_000, 4);
        ts.record(5_000_000, &[sample(10, 5, 0)]);
        ts.record(1_000_000, &[sample(1, 1, 0)]);
        assert_eq!(ts.buckets.len(), 1);
        assert_eq!(ts.buckets[0].index, 5);
    }

    #[test]
    fn rates_difference_adjacent_buckets() {
        let mut ts = TimeSeries::new(1_000_000, 8);
        ts.record(0, &[sample(100, 50, 0)]);
        ts.record(1_000_000, &[sample(300, 150, 10)]);
        // Interval 2 skipped entirely; bucket 3 spans a 2-second window.
        ts.record(3_000_000, &[sample(500, 150, 10)]);
        let rates = ts.rates();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0].index, 1);
        assert_eq!(rates[0].seconds, 1.0);
        assert_eq!(rates[0].columns[0].ops_per_sec, 200.0);
        assert_eq!(rates[0].columns[0].hit_rate, Some(0.5));
        assert_eq!(rates[0].columns[0].evictions_per_sec, 10.0);
        assert_eq!(rates[1].seconds, 2.0);
        assert_eq!(rates[1].columns[0].ops_per_sec, 100.0);
        assert_eq!(rates[1].columns[0].hit_rate, Some(0.0));
        assert_eq!(rates[1].columns[0].evictions_per_sec, 0.0);
    }

    #[test]
    fn windows_without_gets_render_null_hit_rate_not_nan() {
        let mut ts = TimeSeries::new(1_000_000, 4);
        ts.record(0, &[sample(7, 3, 0)]);
        ts.record(1_000_000, &[sample(7, 3, 2)]);
        let rates = ts.rates();
        assert_eq!(rates[0].columns[0].hit_rate, None);
        let json = serde_json::to_string(&rates).unwrap();
        assert!(json.contains("\"hit_rate\":null"), "{json}");
    }
}
