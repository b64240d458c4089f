//! Property-based tests of the Cliffhanger algorithms' core invariants:
//! memory conservation under hill climbing, pointer bounds and size
//! conservation under cliff scaling, and byte budgets under arbitrary
//! request streams.

use cache_core::key::KeyMap;
use cache_core::prefetch::Sweep;
use cache_core::store::AllocationMode;
use cache_core::{Key, PolicyKind, SlabCache, SlabCacheConfig, SlabConfig};
use cliffhanger::cliff_scale::{CliffScaler, PointerEvent};
use cliffhanger::partitioned_queue::{PartitionedQueue, PartitionedQueueConfig};
use cliffhanger::{Cliffhanger, CliffhangerConfig, HillClimber};
use proptest::prelude::*;

/// One operation against a whole engine.
#[derive(Clone, Debug)]
enum EngineOp {
    Get(u16, u64),
    GetUntyped(u16),
    Lookup(u16),
    Set(u16, u64),
    Delete(u16),
    Shrink(u64),
    Grow(u64),
}

fn engine_op() -> impl Strategy<Value = EngineOp> {
    let key = || 0u16..400;
    let size = || 1u64..8_000;
    prop_oneof![
        (key(), size()).prop_map(|(k, s)| EngineOp::Get(k, s)),
        key().prop_map(EngineOp::GetUntyped),
        key().prop_map(EngineOp::Lookup),
        (key(), size()).prop_map(|(k, s)| EngineOp::Set(k, s)),
        (key(), size()).prop_map(|(k, s)| EngineOp::Set(k, s)),
        (key(), size()).prop_map(|(k, s)| EngineOp::Set(k, s)),
        key().prop_map(EngineOp::Delete),
        (1u64..64).prop_map(|kb| EngineOp::Shrink(kb << 10)),
        (1u64..64).prop_map(|kb| EngineOp::Grow(kb << 10)),
    ]
}

/// The sweeps a server would run ahead of a batch, here at random: keys
/// that are resident, were evicted, changed class or (400 and up) were
/// never written, in any of the three sweeps and in any order.
fn prefetches() -> impl Strategy<Value = Vec<(u16, Sweep)>> {
    let sweep = prop_oneof![
        Just(Sweep::Slot),
        Just(Sweep::Item),
        Just(Sweep::Neighbours)
    ];
    prop::collection::vec((0u16..440, sweep), 0..6)
}

/// What a prefetch lends: nothing from the slot sweep, which reads nothing,
/// and the value from the others.
fn lends<V: Copy>(sweep: Sweep, value: Option<&V>) -> Option<V> {
    value.copied().filter(|_| sweep != Sweep::Slot)
}

fn small_cliffhanger(policy: PolicyKind) -> Cliffhanger<u64> {
    Cliffhanger::new(CliffhangerConfig {
        slab: SlabConfig::new(64, 2.0, 8_192),
        total_bytes: 256 << 10,
        policy,
        credit_bytes: 1 << 10,
        hill_shadow_bytes: 32 << 10,
        cliff_shadow_items: 8,
        cliff_min_items: 64,
        min_class_bytes: 2 << 10,
        ..CliffhangerConfig::default()
    })
}

/// Runs `script` through a managed cache, with or without the prefetches
/// between its operations, and returns everything a caller can observe:
/// a digest of every operation's outcome and of the residency set after it
/// (so: of every eviction, in order), the statistics and the class
/// snapshots.
fn observe_cliffhanger(
    policy: PolicyKind,
    script: &[(EngineOp, Vec<(u16, Sweep)>)],
    prefetching: bool,
) -> (u64, String) {
    let mut cache = small_cliffhanger(policy);
    let mut digest = 0u64;
    let mut fold = |value: u64| digest = cache_core::key::mix64(digest ^ value).wrapping_add(value);
    for (step, (op, ahead)) in script.iter().enumerate() {
        for &(k, sweep) in ahead.iter().filter(|_| prefetching) {
            let key = Key::new(k as u64);
            let lent = cache.prefetch(key, sweep).copied();
            assert_eq!(
                lent,
                lends(sweep, cache.value(key)),
                "prefetch lends the value"
            );
        }
        match *op {
            EngineOp::Get(k, size) => {
                let got = cache.get(Key::new(k as u64), size);
                fold(got.map_or(9, |(class, e)| {
                    u64::from(class.0) << 8
                        | u64::from(e.hit) << 3
                        | u64::from(e.tail_hit) << 2
                        | u64::from(e.cliff_shadow_hit) << 1
                        | u64::from(e.hill_shadow_hit)
                }));
            }
            EngineOp::GetUntyped(k) => {
                let (class, e) = cache.get_untyped(Key::new(k as u64));
                fold(u64::from(class.0) << 8 | u64::from(e.hit) << 1 | u64::from(e.tail_hit));
            }
            EngineOp::Lookup(k) => fold(cache.lookup(Key::new(k as u64)).map_or(0, |v| v + 1)),
            EngineOp::Set(k, size) => {
                let stored = cache.set(Key::new(k as u64), size, step as u64);
                fold(stored.map_or(9, |(class, admitted)| {
                    u64::from(class.0) << 1 | u64::from(admitted)
                }));
            }
            EngineOp::Delete(k) => fold(u64::from(cache.delete(Key::new(k as u64)))),
            EngineOp::Shrink(bytes) => fold(u64::from(cache.shrink_total(bytes))),
            EngineOp::Grow(bytes) => cache.grow_total(bytes),
        }
        for k in 0..400u64 {
            fold(cache.value(Key::new(k)).map_or(0, |v| v + 1));
        }
        fold(cache.used_bytes());
    }
    cache.check_index().expect("index and queues agree");
    let state = format!("{:?} {:?}", cache.stats(), cache.class_snapshots());
    (digest, state)
}

/// [`observe_cliffhanger`] for a first-come-first-serve slab cache, whose
/// `set` names the keys it evicted.
fn observe_slab(script: &[(EngineOp, Vec<(u16, Sweep)>)], prefetching: bool) -> (u64, String) {
    let mut cache: SlabCache<u64> = SlabCache::new(SlabCacheConfig {
        slab: SlabConfig::new(64, 2.0, 8_192),
        total_bytes: 256 << 10,
        mode: AllocationMode::FirstComeFirstServe {
            page_size: 16 << 10,
        },
        shadow_bytes: 32 << 10,
        tail_region_items: 8,
        ..SlabCacheConfig::default()
    });
    let mut digest = 0u64;
    let mut fold = |value: u64| digest = cache_core::key::mix64(digest ^ value).wrapping_add(value);
    for (step, (op, ahead)) in script.iter().enumerate() {
        for &(k, sweep) in ahead.iter().filter(|_| prefetching) {
            let key = Key::new(k as u64);
            let lent = cache.prefetch(key, sweep).copied();
            assert_eq!(
                lent,
                lends(sweep, cache.value(key)),
                "prefetch lends the value"
            );
        }
        match *op {
            EngineOp::Get(k, size) => {
                let got = cache
                    .get(Key::new(k as u64), size)
                    .expect("sizes fit a class");
                fold(u64::from(got.class.0) << 8 | u64::from(got.result.hit));
                fold(got.result.shadow_hit as u64);
            }
            EngineOp::GetUntyped(k) => {
                let got = cache.get_untyped(Key::new(k as u64));
                fold(u64::from(got.class.0) << 8 | u64::from(got.result.hit));
            }
            EngineOp::Lookup(k) => fold(cache.lookup(Key::new(k as u64)).map_or(0, |v| v + 1)),
            EngineOp::Set(k, size) => {
                let (class, result) = cache
                    .set(Key::new(k as u64), size, step as u64)
                    .expect("sizes fit a class");
                fold(u64::from(class.0) << 1 | u64::from(result.admitted));
                result.evicted.iter().for_each(|key| fold(key.raw()));
            }
            EngineOp::Delete(k) => fold(u64::from(cache.delete(Key::new(k as u64)))),
            // A plain slab cache has no outer budget moves.
            EngineOp::Shrink(_) | EngineOp::Grow(_) => {}
        }
        fold(cache.used_bytes());
    }
    cache.check_index().expect("index and queues agree");
    let state = format!("{:?} {:?}", cache.stats(), cache.class_stats());
    (digest, state)
}

/// Cases per property: 64 per push, `PROPTEST_CASES` overrides (nightly.yml
/// runs 20 x that).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(64)
}

fn pointer_event() -> impl Strategy<Value = PointerEvent> {
    prop_oneof![
        Just(PointerEvent::RightQueueShadowHit),
        Just(PointerEvent::RightQueueTailHit),
        Just(PointerEvent::LeftQueueShadowHit),
        Just(PointerEvent::LeftQueueTailHit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Algorithm 1 moves credits around but never creates or destroys
    /// memory, and never drives a queue below the configured floor.
    #[test]
    fn hill_climbing_conserves_memory_and_respects_floor(
        queues in 2usize..12,
        credit_kb in 1u64..16,
        floor_kb in 0u64..64,
        hits in prop::collection::vec(any::<u8>(), 1..500),
    ) {
        let total = 4u64 << 20;
        let credit = credit_kb * 1024;
        let floor = floor_kb * 1024;
        let mut climber = HillClimber::even_split(queues, total, credit, floor, 42);
        let initial_total = climber.total();
        for hit in hits {
            climber.on_shadow_hit(hit as usize % queues);
            prop_assert_eq!(climber.total(), initial_total);
            for &target in climber.targets() {
                prop_assert!(target >= floor.min(initial_total / queues as u64),
                    "target {} below floor {}", target, floor);
            }
        }
    }

    /// Algorithms 2–3 keep the two physical sizes summing to the queue size
    /// and keep the pointers bracketing the operating point, for any event
    /// sequence and any interleaved queue resizes.
    #[test]
    fn cliff_scaler_invariants(
        queue_items in 100u64..20_000,
        credit in 1u64..256,
        events in prop::collection::vec(pointer_event(), 1..400),
        resize_to in prop::option::of(50u64..30_000),
    ) {
        let mut scaler = CliffScaler::new(queue_items, credit);
        for (i, event) in events.iter().enumerate() {
            scaler.on_event(*event);
            if i == events.len() / 2 {
                if let Some(new_size) = resize_to {
                    scaler.set_queue_size(new_size);
                }
            }
            let size = scaler.queue_size();
            let (left_ptr, right_ptr) = scaler.pointers();
            prop_assert!(right_ptr >= size, "right pointer {} below size {}", right_ptr, size);
            prop_assert!(left_ptr <= size, "left pointer {} above size {}", left_ptr, size);
            let (left, right) = scaler.physical_sizes();
            prop_assert_eq!(left + right, size);
            let ratio = scaler.ratio();
            prop_assert!((0.0..=1.0).contains(&ratio));
        }
    }

    /// A partitioned queue with a fixed budget never exceeds it, no matter
    /// how requests arrive, and a full Cliffhanger cache never exceeds its
    /// total reservation by more than one in-flight item.
    #[test]
    fn partitioned_queue_respects_budget(
        budget_items in 16u64..256,
        keys in prop::collection::vec(any::<u16>(), 1..400),
    ) {
        let charge = 100u64;
        let mut queue = PartitionedQueue::new(PartitionedQueueConfig {
            target_bytes: budget_items * charge,
            charge_per_item: charge,
            cliff_shadow_items: 8,
            hill_shadow_entries: 64,
            credit_items: 4,
            cliff_min_items: 64,
            enable_cliff_scaling: true,
            ..PartitionedQueueConfig::default()
        });
        // The queue keeps no index; the test keeps the one its owner would.
        let mut index = KeyMap::default();
        for k in keys {
            let key = Key::new(k as u64);
            let hit = match index.get(&key) {
                Some((side, token)) => queue.hit(*side, *token).hit,
                None => queue.miss(key).hit,
            };
            if !hit {
                let mut evicted = Vec::new();
                let outcome = queue.set(key, 52, None, &mut evicted);
                for evicted in &evicted {
                    index.remove(evicted);
                }
                if let Some(slot) = outcome.slot {
                    index.insert(key, slot);
                }
            }
            prop_assert_eq!(index.len(), queue.len());
            prop_assert!(queue.used_bytes() <= budget_items * charge);
            prop_assert!(queue.ratio() >= 0.0 && queue.ratio() <= 1.0);
        }
    }

    /// The engine's one index and its queues never disagree: after every
    /// operation there are as many entries as queued items, every entry's
    /// handle names a node holding that key on that class and side, and the
    /// bytes in use are those nodes' weights — under every policy (ARC
    /// retags a node when a hit moves the item to its other list),
    /// class-changing overwrites, deletes and outer budget moves.
    #[test]
    fn cliffhanger_index_matches_its_queues(
        ops in prop::collection::vec(engine_op(), 1..400),
        policy in prop_oneof![Just(PolicyKind::Lru), Just(PolicyKind::Facebook), Just(PolicyKind::Arc)],
    ) {
        let mut cache = small_cliffhanger(policy);
        for (step, op) in ops.into_iter().enumerate() {
            let stamp = step as u64;
            match op {
                EngineOp::Get(k, size) => {
                    cache.get(Key::new(k as u64), size);
                }
                EngineOp::GetUntyped(k) => {
                    let key = Key::new(k as u64);
                    let (class, event) = cache.get_untyped(key);
                    prop_assert_eq!(event.hit, cache.contains(key));
                    prop_assert!(!event.hit || cache.class_of(key) == Some(class));
                }
                EngineOp::Lookup(k) => {
                    let key = Key::new(k as u64);
                    let lent = cache.lookup(key).copied();
                    prop_assert_eq!(lent, cache.value(key).copied());
                }
                EngineOp::Set(k, size) => {
                    let key = Key::new(k as u64);
                    let (class, _) = cache.set(key, size, stamp).expect("sizes fit a class");
                    // Resident or not, never stale and never in another class.
                    if let Some(&held) = cache.value(key) {
                        prop_assert_eq!(held, stamp);
                        prop_assert_eq!(cache.class_of(key), Some(class));
                    }
                }
                EngineOp::Delete(k) => {
                    let key = Key::new(k as u64);
                    let was = cache.contains(key);
                    prop_assert_eq!(cache.delete(key), was);
                    prop_assert!(!cache.contains(key));
                }
                EngineOp::Shrink(bytes) => {
                    cache.shrink_total(bytes);
                }
                EngineOp::Grow(bytes) => cache.grow_total(bytes),
            }
            if let Err(broken) = cache.check_index() {
                return Err(format!("after step {step}: {broken}"));
            }
            let evictions: u64 = cache.class_stats().iter().map(|s| s.evictions).sum();
            prop_assert_eq!(cache.stats().evictions, evictions);
        }
    }

    /// Prefetching is invisible: interleaving arbitrary `prefetch` calls
    /// into an operation sequence leaves every outcome, every eviction, the
    /// statistics, the class snapshots and the index invariant exactly as
    /// the run without them has them.
    #[test]
    fn prefetch_changes_nothing(
        script in prop::collection::vec((engine_op(), prefetches()), 1..300),
    ) {
        for policy in [PolicyKind::Lru, PolicyKind::Facebook, PolicyKind::Arc] {
            prop_assert_eq!(
                observe_cliffhanger(policy, &script, true),
                observe_cliffhanger(policy, &script, false),
                "{:?}", policy
            );
        }
        prop_assert_eq!(observe_slab(&script, true), observe_slab(&script, false));
    }

    /// The managed cache conserves its total byte budget across arbitrary
    /// workloads (hill climbing only ever moves memory between classes).
    #[test]
    fn cliffhanger_cache_conserves_total_budget(
        requests in prop::collection::vec((any::<u16>(), 1u64..8_000), 1..300),
    ) {
        let config = CliffhangerConfig {
            slab: SlabConfig::new(64, 2.0, 8_192),
            total_bytes: 1 << 20,
            credit_bytes: 1 << 10,
            hill_shadow_bytes: 32 << 10,
            cliff_shadow_items: 8,
            min_class_bytes: 8 << 10,
            ..CliffhangerConfig::default()
        };
        let mut cache: Cliffhanger<()> = Cliffhanger::new(config);
        let total = cache.total_bytes();
        for (key, size) in requests {
            let key = Key::new(key as u64);
            let hit = cache.get(key, size).map(|(_, e)| e.hit).unwrap_or(false);
            if !hit {
                cache.set(key, size, ());
            }
            prop_assert_eq!(cache.total_bytes(), total);
            // Resizes are applied lazily (on the next insertion into the
            // shrunk class), so transient overshoot is bounded by the credits
            // moved so far — never unbounded.
            let slack = cache.config().credit_bytes * (cache.transfers() + 1);
            prop_assert!(cache.used_bytes() <= total + slack,
                "used {} exceeds reservation {} plus slack {}",
                cache.used_bytes(), total, slack);
        }
    }
}
