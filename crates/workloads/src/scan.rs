//! Sequential / cyclic scan generators.
//!
//! "Cliffs occur, for example, with sequential accesses under LRU. Consider a
//! web application that sequentially scans a 10 MB database. With less than
//! 10 MB of cache, LRU will always evict items before they hit. However,
//! with 10 MB of cache, the array suddenly fits and every access will be a
//! hit." (paper §3.5). [`ScanGenerator`] produces exactly that pattern: a
//! cyclic walk over a fixed key range, optionally interleaved with other
//! traffic by the application profile.

use serde::{Deserialize, Serialize};

/// A cyclic scan over a contiguous range of key ids.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScanGenerator {
    /// First key id of the scanned range.
    pub start_key: u64,
    /// Number of distinct keys in the scan (the "database size" in items).
    pub length: u64,
    /// Current position within the scan.
    cursor: u64,
}

impl ScanGenerator {
    /// Creates a scan over `length` keys starting at `start_key`.
    ///
    /// # Panics
    /// Panics if `length == 0`.
    pub fn new(start_key: u64, length: u64) -> Self {
        assert!(length > 0, "a scan must cover at least one key");
        ScanGenerator {
            start_key,
            length,
            cursor: 0,
        }
    }

    /// The next key id of the scan (wraps around cyclically).
    pub fn next_key(&mut self) -> u64 {
        let key = self.start_key + self.cursor;
        self.cursor = (self.cursor + 1) % self.length;
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_cyclically_over_the_range() {
        let mut scan = ScanGenerator::new(100, 4);
        let keys: Vec<u64> = (0..10).map(|_| scan.next_key()).collect();
        assert_eq!(keys, vec![100, 101, 102, 103, 100, 101, 102, 103, 100, 101]);
    }

    #[test]
    fn every_reuse_distance_equals_the_scan_length() {
        // The defining property of the cliff: under LRU, a cache with fewer
        // items than the scan length hits nothing; with at least the scan
        // length it hits everything (after the first pass).
        let mut scan = ScanGenerator::new(0, 50);
        let mut last_seen = std::collections::HashMap::new();
        let mut distances = Vec::new();
        for t in 0..500u64 {
            let k = scan.next_key();
            if let Some(&prev) = last_seen.get(&k) {
                distances.push(t - prev);
            }
            last_seen.insert(k, t);
        }
        assert!(distances.iter().all(|&d| d == 50));
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_scan_rejected() {
        let _ = ScanGenerator::new(0, 0);
    }
}
