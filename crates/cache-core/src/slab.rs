//! Memcached-style slab-class geometry.
//!
//! To avoid memory fragmentation Memcached divides its memory into slab
//! classes; each class stores items whose size falls in a specific range
//! (e.g. < 128 B, 128–256 B, …) and each class has its own eviction queue
//! (paper §2). [`SlabConfig`] reproduces that geometry: chunk sizes grow
//! geometrically from `min_chunk` by `growth_factor` up to `max_item_size`.

use serde::{Deserialize, Serialize};

use crate::key::ClassId;

/// Slab-class sizing parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SlabConfig {
    /// Chunk size of the smallest class, in bytes.
    pub min_chunk: u64,
    /// Geometric growth factor between consecutive classes (> 1.0).
    /// Memcached's default is 1.25; the paper's examples use powers of two.
    pub growth_factor: f64,
    /// Largest storable item size in bytes; items larger than this are
    /// rejected by the cache.
    pub max_item_size: u64,
}

impl Default for SlabConfig {
    fn default() -> Self {
        // Powers-of-two classes from 64 B to 1 MB, matching the ranges the
        // paper quotes ("< 128B, 128-256B, etc.") and keeping the number of
        // classes at 15, the maximum the paper reports for Memcachier (§5.7).
        SlabConfig::new(64, 2.0, 1 << 20)
    }
}

impl SlabConfig {
    /// Creates a config with explicit parameters.
    ///
    /// A list node keeps an item's charge (at most `max_item_size +`
    /// [`crate::ITEM_OVERHEAD`]) in a `u32` and a managed index entry its
    /// class in a `u16`; the last two checks make both narrowings lossless.
    ///
    /// # Panics
    /// Panics if `growth_factor <= 1.0`, `min_chunk == 0`,
    /// `max_item_size < min_chunk`, the largest charge exceeds `u32::MAX`,
    /// or there are more classes than a `u16` numbers.
    pub fn new(min_chunk: u64, growth_factor: f64, max_item_size: u64) -> Self {
        assert!(growth_factor > 1.0, "growth factor must exceed 1.0");
        assert!(min_chunk > 0, "minimum chunk must be positive");
        assert!(
            max_item_size >= min_chunk,
            "max item size must be at least the minimum chunk"
        );
        assert!(
            max_item_size
                .checked_add(crate::ITEM_OVERHEAD)
                .is_some_and(|charge| charge <= u64::from(u32::MAX)),
            "max item size plus the item overhead must fit in 32 bits"
        );
        let config = SlabConfig {
            min_chunk,
            growth_factor,
            max_item_size,
        };
        assert!(
            config.num_classes() <= usize::from(u16::MAX) + 1,
            "class ids must fit in 16 bits"
        );
        config
    }

    /// A Memcached-like config with growth factor 1.25 (the upstream default).
    pub fn memcached_default() -> Self {
        SlabConfig::new(96, 1.25, 1 << 20)
    }

    /// Number of slab classes.
    pub fn num_classes(&self) -> usize {
        let mut classes = 1usize;
        let mut chunk = self.min_chunk as f64;
        while (chunk.ceil() as u64) < self.max_item_size {
            chunk *= self.growth_factor;
            classes += 1;
        }
        classes
    }

    /// Chunk size (the per-item charge) of class `class`.
    pub fn chunk_size(&self, class: ClassId) -> u64 {
        let mut chunk = self.min_chunk as f64;
        for _ in 0..class.index() {
            chunk *= self.growth_factor;
        }
        (chunk.ceil() as u64).min(self.max_item_size)
    }

    /// The slab class an item of `size` bytes belongs to, or `None` if the
    /// item is too large to store.
    pub fn class_for_size(&self, size: u64) -> Option<ClassId> {
        if size > self.max_item_size {
            return None;
        }
        let mut chunk = self.min_chunk as f64;
        let mut class = 0u32;
        loop {
            if size <= chunk.ceil() as u64 {
                return Some(ClassId::new(class));
            }
            chunk *= self.growth_factor;
            class += 1;
        }
    }

    /// Chunk sizes of every class, smallest first.
    pub fn chunk_sizes(&self) -> Vec<u64> {
        (0..self.num_classes() as u32)
            .map(|c| self.chunk_size(ClassId::new(c)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_classes_are_powers_of_two() {
        let cfg = SlabConfig::default();
        let sizes = cfg.chunk_sizes();
        assert_eq!(sizes[0], 64);
        assert_eq!(sizes[1], 128);
        assert_eq!(sizes[2], 256);
        assert_eq!(*sizes.last().unwrap(), 1 << 20);
        assert_eq!(cfg.num_classes(), 15);
    }

    #[test]
    fn class_for_size_boundaries() {
        let cfg = SlabConfig::default();
        assert_eq!(cfg.class_for_size(1), Some(ClassId::new(0)));
        assert_eq!(cfg.class_for_size(64), Some(ClassId::new(0)));
        assert_eq!(cfg.class_for_size(65), Some(ClassId::new(1)));
        assert_eq!(cfg.class_for_size(128), Some(ClassId::new(1)));
        assert_eq!(cfg.class_for_size(129), Some(ClassId::new(2)));
        assert_eq!(cfg.class_for_size(1 << 20), Some(ClassId::new(14)));
        assert_eq!(cfg.class_for_size((1 << 20) + 1), None);
    }

    #[test]
    fn chunk_size_covers_class_items() {
        let cfg = SlabConfig::memcached_default();
        for size in [1u64, 96, 100, 500, 4_096, 100_000, 1 << 20] {
            let class = cfg.class_for_size(size).unwrap();
            assert!(
                cfg.chunk_size(class) >= size,
                "chunk {} smaller than item {}",
                cfg.chunk_size(class),
                size
            );
            if class.index() > 0 {
                let prev = ClassId::new(class.0 - 1);
                assert!(
                    cfg.chunk_size(prev) < size,
                    "item {size} should not fit in class {prev}"
                );
            }
        }
    }

    #[test]
    fn growth_factor_1_25_produces_memcached_like_ladder() {
        let cfg = SlabConfig::memcached_default();
        let sizes = cfg.chunk_sizes();
        assert!(sizes.len() > 30, "1.25 growth yields many classes");
        for window in sizes.windows(2) {
            assert!(window[1] > window[0], "chunk sizes must be increasing");
        }
    }

    #[test]
    #[should_panic(expected = "growth factor")]
    fn rejects_non_growing_factor() {
        let _ = SlabConfig::new(64, 1.0, 1024);
    }

    #[test]
    #[should_panic(expected = "fit in 32 bits")]
    fn rejects_a_charge_wider_than_32_bits() {
        let largest = u64::from(u32::MAX) - crate::ITEM_OVERHEAD;
        assert_eq!(SlabConfig::new(64, 2.0, largest).max_item_size, largest);
        let _ = SlabConfig::new(64, 2.0, largest + 1);
    }

    #[test]
    #[should_panic(expected = "fit in 16 bits")]
    fn rejects_more_classes_than_16_bits_number() {
        // 1.0001^65,535 ≈ 701: a ladder up to 1 MB needs some 138,600
        // classes.
        let _ = SlabConfig::new(1, 1.0001, 1 << 20);
    }
}
