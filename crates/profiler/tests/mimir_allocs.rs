//! The live MRC sampler allocates nothing per GET once its table has grown.
//!
//! [`OnlineMrc::record`] runs on every GET the server serves. Its bucket
//! estimator once kept a hash set per bucket: each aging started an empty
//! set, which allocated as it filled, and each merge grew the set it merged
//! into. It now keeps a count per bucket and one key table. This test warms
//! an estimator up on a Zipf trace until its key table has grown and it has
//! pruned, then counts the allocator calls of 100,000 more records.
//!
//! One `#[test]` on purpose: the allocator counts every thread of the
//! process, so nothing else may run while it is armed.

use cache_core::key::mix64;
use cache_core::Key;
use profiler::OnlineMrc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting `alloc` and `realloc` calls while armed.
struct Counting;

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator,
        // which only ever hands out `System`'s blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Zipf(0.9) ranks over `keys` keys by inverse transform over a cumulative
/// table, from a SplitMix64 stream: built before counting, read without
/// allocating.
struct Zipf {
    cumulative: Vec<f64>,
    state: u64,
}

impl Zipf {
    fn new(keys: usize) -> Zipf {
        let mut sum = 0.0;
        let cumulative = (1..=keys)
            .map(|rank| {
                sum += 1.0 / (rank as f64).powf(0.9);
                sum
            })
            .collect::<Vec<_>>();
        let total = sum;
        Zipf {
            cumulative: cumulative.into_iter().map(|c| c / total).collect(),
            state: 7,
        }
    }

    fn next(&mut self) -> Key {
        self.state = self.state.wrapping_add(1);
        let u = (mix64(self.state) >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.cumulative.partition_point(|&c| c < u);
        Key::new(mix64(rank as u64))
    }
}

#[test]
fn a_warm_sampler_records_without_allocating() {
    // Every key sampled (R = 1), so the estimator's bound (32,768 keys)
    // is passed and pruning runs during the warm-up and the count.
    let mut mrc = OnlineMrc::new(0);
    let mut zipf = Zipf::new(400_000);
    for _ in 0..1_000_000 {
        mrc.record(zipf.next());
    }
    // Pruning drops the oldest bucket, into which aging has folded many:
    // the population falls well below the bound and grows back.
    let warm = mrc.tracked_keys();
    assert!(warm > 10_000, "the warm-up tracked only {warm} keys");

    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let mut pruned = false;
    for _ in 0..100_000 {
        let tracked = mrc.tracked_keys();
        mrc.record(zipf.next());
        pruned |= mrc.tracked_keys() < tracked;
    }
    ARMED.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);
    println!("{allocs} allocations over 100,000 records ({warm} keys tracked)");
    assert_eq!(allocs, 0, "a warm sampler allocated");
    assert!(pruned, "the counted records never pruned");
}
