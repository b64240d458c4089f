//! Hit/miss/eviction accounting.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Counters collected by every queue, cache and tenant in the crate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of GET requests observed.
    pub gets: u64,
    /// Number of GETs that were served from the physical queue.
    pub hits: u64,
    /// Number of GETs that missed the physical queue.
    pub misses: u64,
    /// Number of SET requests observed.
    pub sets: u64,
    /// Number of items evicted from physical queues.
    pub evictions: u64,
    /// Number of GET misses that hit a hill-climbing shadow queue.
    pub shadow_hits: u64,
    /// Number of GET misses that hit a cliff-scaling shadow queue.
    pub cliff_shadow_hits: u64,
}

impl CacheStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records a GET and whether it hit.
    pub fn record_get(&mut self, hit: bool) {
        self.gets += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Records a SET.
    pub fn record_set(&mut self) {
        self.sets += 1;
    }

    /// Records `n` evictions.
    pub fn record_evictions(&mut self, n: u64) {
        self.evictions += n;
    }

    /// Hit ratio over all GETs observed so far.
    pub fn hit_ratio(&self) -> HitRatio {
        HitRatio::new(self.hits, self.gets)
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            gets: self.gets + rhs.gets,
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            sets: self.sets + rhs.sets,
            evictions: self.evictions + rhs.evictions,
            shadow_hits: self.shadow_hits + rhs.shadow_hits,
            cliff_shadow_hits: self.cliff_shadow_hits + rhs.cliff_shadow_hits,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

/// The heap bytes an engine's structures hold, by capacity times element
/// size: what they have allocated, whether or not it is in use now.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    /// The engine's key index.
    pub index: u64,
    /// The queue arenas: the nodes of the physical queues.
    pub queues: u64,
    /// The shadow structures: shadow queues' nodes and key indexes, ARC's
    /// ghosts.
    pub shadows: u64,
}

impl AddAssign for Footprint {
    fn add_assign(&mut self, rhs: Footprint) {
        self.index += rhs.index;
        self.queues += rhs.queues;
        self.shadows += rhs.shadows;
    }
}

/// A hit ratio: hits over requests, `0.0` when no requests were observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HitRatio {
    hits: u64,
    total: u64,
}

impl HitRatio {
    /// Builds a ratio from raw counts.
    pub fn new(hits: u64, total: u64) -> Self {
        debug_assert!(hits <= total, "hits cannot exceed total");
        HitRatio { hits, total }
    }

    /// The ratio as a fraction in `[0, 1]`.
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// The ratio as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.value() * 100.0
    }

    /// Number of requests.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.total - self.hits
    }
}

/// Relative reduction in misses when going from `baseline` to `improved`,
/// as a fraction of the baseline's misses (the paper's "miss reduction").
///
/// Returns `0.0` when the baseline had no misses. A negative value means the
/// improved configuration had *more* misses.
pub fn miss_reduction(baseline: HitRatio, improved: HitRatio) -> f64 {
    let base_misses = baseline.misses() as f64;
    if base_misses == 0.0 {
        return 0.0;
    }
    // Normalise to miss *rates* so the two sides may have observed different
    // request counts (e.g. different warm-up handling).
    let base_rate = base_misses / baseline.total().max(1) as f64;
    let improved_rate = improved.misses() as f64 / improved.total().max(1) as f64;
    (base_rate - improved_rate) / base_rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_ratio() {
        let mut s = CacheStats::new();
        for i in 0..10 {
            s.record_get(i < 7);
        }
        s.record_set();
        assert_eq!(s.gets, 10);
        assert_eq!(s.hits, 7);
        assert_eq!(s.misses, 3);
        assert_eq!(s.sets, 1);
        assert!((s.hit_ratio().value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_is_zero() {
        assert_eq!(HitRatio::default().value(), 0.0);
        assert_eq!(CacheStats::new().hit_ratio().value(), 0.0);
    }

    #[test]
    fn stats_add() {
        let mut a = CacheStats::new();
        a.record_get(true);
        a.record_evictions(2);
        let mut b = CacheStats::new();
        b.record_get(false);
        b.record_set();
        let c = a + b;
        assert_eq!(c.gets, 2);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.sets, 1);
        assert_eq!(c.evictions, 2);
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn miss_reduction_matches_paper_convention() {
        // Baseline: 80% hit rate => 20 misses per 100. Improved: 90% => 10.
        let base = HitRatio::new(80, 100);
        let better = HitRatio::new(90, 100);
        assert!((miss_reduction(base, better) - 0.5).abs() < 1e-12);
        // Worse allocation yields a negative reduction.
        let worse = HitRatio::new(60, 100);
        assert!(miss_reduction(base, worse) < 0.0);
        // No baseline misses: nothing to reduce.
        assert_eq!(miss_reduction(HitRatio::new(5, 5), better), 0.0);
    }

    #[test]
    fn percent_and_counts() {
        let r = HitRatio::new(977, 1000);
        assert!((r.percent() - 97.7).abs() < 1e-9);
        assert_eq!(r.misses(), 23);
        assert_eq!(r.total(), 1000);
    }
}
