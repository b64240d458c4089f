//! Property-based tests of the queue substrate: the LRU list, ARC and the
//! shadow queue are checked against naive reference models, and the slab
//! cache's invariants are checked under arbitrary operation sequences.

use cache_core::lru::{HitLocation, InsertPosition};
use cache_core::policy::{ArcList, Policy};
use cache_core::store::AllocationMode;
use cache_core::{
    ClassId, GlobalLruCache, Key, LruList, PolicyKind, QueueConfig, Segment, ShadowQueue,
    SlabCache, SlabCacheConfig, SlabConfig, ITEM_OVERHEAD,
};
use proptest::prelude::*;

/// The operations the LRU model exercise can perform.
#[derive(Clone, Debug)]
enum LruOp {
    Insert(u8, u8, InsertPosition),
    Access(u8),
    Remove(u8),
    PopLru,
    SetTailRegion(u8),
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    prop_oneof![
        (any::<u8>(), 1..=64u8).prop_map(|(k, w)| LruOp::Insert(k, w, InsertPosition::Top)),
        (any::<u8>(), 1..=64u8).prop_map(|(k, w)| LruOp::Insert(k, w, InsertPosition::Middle)),
        any::<u8>().prop_map(LruOp::Access),
        any::<u8>().prop_map(LruOp::Access),
        any::<u8>().prop_map(LruOp::Remove),
        Just(LruOp::PopLru),
        (0..24u8).prop_map(LruOp::SetTailRegion),
    ]
}

/// A naive reference LRU: a vector ordered from most- to least-recently
/// used, the last `tail_region` entries of which are the tail region.
#[derive(Default)]
struct ModelLru {
    entries: Vec<(u8, u64)>,
    tail_region: usize,
}

impl ModelLru {
    /// Index of the first tail-region entry.
    fn tail_start(&self) -> usize {
        self.entries.len() - self.tail_region.min(self.entries.len())
    }
    fn insert(&mut self, key: u8, weight: u64, position: InsertPosition) {
        self.entries.retain(|&(k, _)| k != key);
        let at = match position {
            InsertPosition::Top => 0,
            // Behind the upper half of what is not tail region.
            InsertPosition::Middle => self.tail_start().div_ceil(2),
        };
        self.entries.insert(at, (key, weight));
    }
    fn access(&mut self, key: u8) -> Option<HitLocation> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let location = if pos >= self.tail_start() {
            HitLocation::TailRegion
        } else {
            HitLocation::Main
        };
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(location)
    }
    fn remove(&mut self, key: u8) -> Option<u64> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        Some(self.entries.remove(pos).1)
    }
    fn pop_lru(&mut self) -> Option<(u8, u64)> {
        self.entries.pop()
    }
    fn total_weight(&self) -> u64 {
        self.entries.iter().map(|&(_, w)| w).sum()
    }
}

/// The operations the ARC model exercise can perform, on 16 keys.
#[derive(Clone, Debug)]
enum ArcOp {
    Insert(u8, u8),
    Access(u8),
    OnMiss(u8),
    Evict,
    Remove(u8),
    Forget(u8),
}

fn arc_op() -> impl Strategy<Value = ArcOp> {
    let key = || 0..16u8;
    prop_oneof![
        (key(), 1..=64u8).prop_map(|(k, w)| ArcOp::Insert(k, w)),
        key().prop_map(ArcOp::Access),
        key().prop_map(ArcOp::OnMiss),
        Just(ArcOp::Evict),
        key().prop_map(ArcOp::Remove),
        key().prop_map(ArcOp::Forget),
    ]
}

/// A naive reference ARC (Megiddo & Modha's algorithm over an externally
/// driven eviction): T1 and T2 most recent first, the ghosts B1 and B2
/// newest first and at most `c` long, `c` the largest resident count seen,
/// the target `p` of T1, and the keys a ghost hit marked for T2.
#[derive(Default)]
struct ModelArc {
    t1: Vec<(u8, u64)>,
    t2: Vec<(u8, u64)>,
    b1: Vec<u8>,
    b2: Vec<u8>,
    p: usize,
    c: usize,
    marks: std::collections::HashSet<u8>,
}

/// Takes the first element `hit` picks out of `list`.
fn take<T: Copy>(list: &mut Vec<T>, hit: impl Fn(&T) -> bool) -> Option<T> {
    let at = list.iter().position(hit)?;
    Some(list.remove(at))
}

impl ModelArc {
    fn list_of(&self, key: u8) -> Option<ArcList> {
        let holds = |list: &Vec<(u8, u64)>| list.iter().any(|e| e.0 == key);
        if holds(&self.t1) {
            Some(ArcList::T1)
        } else {
            holds(&self.t2).then_some(ArcList::T2)
        }
    }
    fn remove(&mut self, key: u8) -> Option<(u8, u64)> {
        take(&mut self.t1, |e| e.0 == key).or_else(|| take(&mut self.t2, |e| e.0 == key))
    }
    fn access(&mut self, key: u8) {
        if let Some(entry) = self.remove(key) {
            self.t2.insert(0, entry);
        }
    }
    fn on_miss(&mut self, key: u8) {
        let (b1, b2) = (self.b1.len().max(1), self.b2.len().max(1));
        if take(&mut self.b1, |&g| g == key).is_some() {
            self.p = (self.p + (b2 / b1).max(1)).min(self.c);
        } else if take(&mut self.b2, |&g| g == key).is_some() {
            self.p = self.p.saturating_sub((b1 / b2).max(1));
        } else {
            return;
        }
        self.marks.insert(key);
    }
    fn insert(&mut self, key: u8, weight: u64) {
        let list = if self.marks.remove(&key) {
            &mut self.t2
        } else {
            &mut self.t1
        };
        list.insert(0, (key, weight));
        self.b1.retain(|&g| g != key);
        self.b2.retain(|&g| g != key);
        self.c = self.c.max(self.t1.len() + self.t2.len());
        self.p = self.p.min(self.c);
    }
    fn evict(&mut self) -> Option<(u8, u64)> {
        let from_t1 = !self.t1.is_empty() && (self.t2.is_empty() || self.t1.len() > self.p);
        let (list, ghosts) = if from_t1 {
            (&mut self.t1, &mut self.b1)
        } else {
            (&mut self.t2, &mut self.b2)
        };
        let victim = list.pop()?;
        ghosts.insert(0, victim.0);
        ghosts.truncate(self.c);
        Some(victim)
    }
    fn len_and_weight(&self) -> (usize, u64) {
        let resident = self.t1.iter().chain(&self.t2);
        (resident.clone().count(), resident.map(|&(_, w)| w).sum())
    }
}

/// Cases per property: 128 per push, `PROPTEST_CASES` overrides (nightly.yml
/// runs 20 x that).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The LRU list (with its segmented tail-region implementation) must be
    /// indistinguishable from the naive model for any operation sequence:
    /// the same full order after every step, the same hit classification,
    /// and mid-queue insertions landing on the same rank. The test plays
    /// the engine's part and keeps the handles.
    #[test]
    fn lru_list_matches_reference_model(
        ops in prop::collection::vec(lru_op(), 1..300),
        tail_region in 0usize..16,
    ) {
        let mut real = LruList::with_tail_region(tail_region);
        let mut handles = std::collections::HashMap::new();
        let mut model = ModelLru { entries: Vec::new(), tail_region };
        for op in ops {
            match op {
                LruOp::Insert(k, w, position) => {
                    if let Some(old) = handles.remove(&k) {
                        real.remove(old);
                    }
                    handles.insert(k, real.insert(Key::new(k as u64), w as u64, position));
                    model.insert(k, w as u64, position);
                }
                LruOp::Access(k) => {
                    let real_hit = handles.get(&k).map(|&handle| real.access(handle));
                    prop_assert_eq!(real_hit, model.access(k));
                }
                LruOp::Remove(k) => {
                    let real_removed = handles.remove(&k).map(|handle| real.remove(handle));
                    let model_removed = model.remove(k);
                    prop_assert_eq!(real_removed, model_removed.map(|w| (Key::new(k as u64), w)));
                }
                LruOp::PopLru => {
                    let real_popped = real.pop_lru().map(|(k, w)| (k.raw() as u8, w));
                    if let Some((k, _)) = real_popped {
                        handles.remove(&k);
                    }
                    prop_assert_eq!(real_popped, model.pop_lru());
                }
                LruOp::SetTailRegion(items) => {
                    real.set_tail_region(items as usize);
                    model.tail_region = items as usize;
                }
            }
            let order: Vec<(u8, u64)> = real.iter().map(|(k, w)| (k.raw() as u8, w)).collect();
            prop_assert_eq!(&order, &model.entries);
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert_eq!(real.total_weight(), model.total_weight());
            for (&k, &handle) in &handles {
                prop_assert_eq!(real.get(handle).map(|(key, _)| key), Some(Key::new(k as u64)));
            }
        }
    }

    /// A list that only ever inserts at the top keeps no midpoint (its
    /// lower segment stays empty); it is the same model all the same, and
    /// the next victim it names is the model's least recent key.
    #[test]
    fn top_only_lru_list_matches_reference_model(
        ops in prop::collection::vec(lru_op(), 1..300),
        tail_region in 0usize..16,
    ) {
        let mut real = LruList::with_tail_region(tail_region);
        let mut handles = std::collections::HashMap::new();
        let mut model = ModelLru { entries: Vec::new(), tail_region };
        for op in ops {
            match op {
                LruOp::Insert(k, w, _) => {
                    if let Some(old) = handles.remove(&k) {
                        real.remove(old);
                    }
                    handles.insert(k, real.insert(Key::new(k as u64), w as u64, InsertPosition::Top));
                    model.insert(k, w as u64, InsertPosition::Top);
                }
                LruOp::Access(k) => {
                    let real_hit = handles.get(&k).map(|&handle| real.access(handle));
                    prop_assert_eq!(real_hit, model.access(k));
                }
                LruOp::Remove(k) => {
                    let real_removed = handles.remove(&k).map(|handle| real.remove(handle).1);
                    prop_assert_eq!(real_removed, model.remove(k));
                }
                LruOp::PopLru => {
                    let named = real.prefetch_next_victim().map(|k| k.raw() as u8);
                    let real_popped = real.pop_lru().map(|(k, w)| (k.raw() as u8, w));
                    if let Some((k, _)) = real_popped {
                        handles.remove(&k);
                    }
                    prop_assert_eq!(named, real_popped.map(|(k, _)| k));
                    prop_assert_eq!(real_popped, model.pop_lru());
                }
                LruOp::SetTailRegion(items) => {
                    real.set_tail_region(items as usize);
                    model.tail_region = items as usize;
                }
            }
            let order: Vec<(u8, u64)> = real.iter().map(|(k, w)| (k.raw() as u8, w)).collect();
            prop_assert_eq!(&order, &model.entries);
            prop_assert_eq!(real.total_weight(), model.total_weight());
        }
    }

    /// ARC — T1 and T2 in one arena, each node tagged with its list — is
    /// its naive model under any sequence: the same victim on every
    /// eviction, every handle naming its key in the model's list, the same
    /// length and total weight after every step. The test plays the
    /// engine's part: it keeps the handles and removes a key's old copy
    /// before inserting it again.
    #[test]
    fn arc_matches_reference_model(ops in prop::collection::vec(arc_op(), 1..400)) {
        let mut real = Policy::new(PolicyKind::Arc, 0);
        let mut handles = std::collections::HashMap::new();
        let mut model = ModelArc::default();
        for op in ops {
            match op {
                ArcOp::Insert(k, w) => {
                    if let Some(old) = handles.remove(&k) {
                        real.remove(old);
                        model.remove(k);
                    }
                    handles.insert(k, real.insert(Key::new(k as u64), w as u64));
                    model.insert(k, w as u64);
                }
                ArcOp::Access(k) => {
                    if let Some(&handle) = handles.get(&k) {
                        real.access(handle);
                        model.access(k);
                    }
                }
                ArcOp::OnMiss(k) => {
                    real.on_miss(Key::new(k as u64));
                    model.on_miss(k);
                }
                ArcOp::Evict => {
                    let victim = real.evict().map(|(k, w)| (k.raw() as u8, w));
                    if let Some((k, _)) = victim {
                        handles.remove(&k);
                    }
                    prop_assert_eq!(victim, model.evict());
                }
                ArcOp::Remove(k) => {
                    let removed = handles.remove(&k).map(|handle| real.remove(handle));
                    prop_assert_eq!(removed, model.remove(k).map(|(k, w)| (Key::new(k as u64), w)));
                }
                ArcOp::Forget(k) => {
                    real.forget(Key::new(k as u64));
                    model.marks.remove(&k);
                }
            }
            prop_assert_eq!((real.len(), real.total_weight()), model.len_and_weight());
            let Policy::Arc(arc) = &real else { unreachable!() };
            for (&k, &handle) in &handles {
                prop_assert_eq!(real.peek(handle).map(|(key, _)| key), Some(Key::new(k as u64)));
                prop_assert_eq!(arc.list(handle), model.list_of(k));
            }
        }
    }

    /// A shadow queue is its naive model — a near and a far list, newest
    /// first: an inserted key leaves wherever it was for the front of near,
    /// near's overflow goes to the front of far, far is cut to its capacity,
    /// and a probe takes the key out and names its list — under inserts,
    /// probes and both capacities changing mid-script: same keys in the same
    /// segments in the same order after every step. Before every step the
    /// queue is asked for what inserting the step's key would touch, which
    /// must change none of that.
    #[test]
    fn shadow_queue_matches_reference_model(
        near_capacity in 0usize..12,
        far_capacity in 0usize..24,
        ops in prop::collection::vec((0u8..9, 0u8..32), 1..300),
    ) {
        let mut shadow = ShadowQueue::new(near_capacity);
        shadow.set_far_capacity(far_capacity);
        let (mut near_capacity, mut far_capacity) = (near_capacity, far_capacity);
        let (mut near, mut far): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
        for (op, k) in ops {
            let key = Key::new(k as u64);
            let expected = if near.contains(&k) {
                Some(Segment::Near)
            } else {
                far.contains(&k).then_some(Segment::Far)
            };
            shadow.prefetch_insert(key);
            match op {
                0..=3 => {
                    shadow.insert(key);
                    near.retain(|&m| m != k);
                    far.retain(|&m| m != k);
                    near.insert(0, k);
                }
                4..=6 => {
                    prop_assert_eq!(shadow.probe(key), expected);
                    near.retain(|&m| m != k);
                    far.retain(|&m| m != k);
                }
                7 => {
                    near_capacity = k as usize % 12;
                    shadow.set_capacity(near_capacity);
                }
                _ => {
                    far_capacity = k as usize % 24;
                    shadow.set_far_capacity(far_capacity);
                }
            }
            while near.len() > near_capacity {
                far.insert(0, near.pop().unwrap());
            }
            far.truncate(far_capacity);
            let model: Vec<(Key, Segment)> = near
                .iter()
                .map(|&m| (m, Segment::Near))
                .chain(far.iter().map(|&m| (m, Segment::Far)))
                .map(|(m, segment)| (Key::new(m as u64), segment))
                .collect();
            prop_assert_eq!(shadow.iter().collect::<Vec<_>>(), model);
            prop_assert_eq!(shadow.len(), near.len() + far.len());
            prop_assert_eq!(shadow.capacity(), near_capacity + far_capacity);
        }
    }

    /// A cache queue never uses more bytes than its target, no matter what
    /// sizes are inserted, and probing evicted keys hits the shadow queue.
    #[test]
    fn cache_queue_respects_byte_budget(
        target_kb in 1u64..64,
        sizes in prop::collection::vec(1u64..4096, 1..200),
    ) {
        let target = target_kb * 1024;
        let mut cache: GlobalLruCache<()> = GlobalLruCache::with_config(QueueConfig {
            policy: PolicyKind::Lru,
            target_bytes: target,
            tail_region_items: 4,
            shadow_capacity: 32,
        });
        for (i, &size) in sizes.iter().enumerate() {
            cache.set(Key::new(i as u64), size, ());
            prop_assert!(cache.used_bytes() <= target);
            // Every resident item's charge is accounted.
            prop_assert_eq!(cache.value(Key::new(i as u64)).is_some(),
                size + ITEM_OVERHEAD <= target);
        }
    }

    /// The slab cache under first-come-first-serve never exceeds the
    /// application's reservation, for arbitrary size mixes.
    #[test]
    fn slab_cache_respects_reservation(
        reservation_kb in 8u64..128,
        requests in prop::collection::vec((any::<u16>(), 1u64..16_384), 1..300),
    ) {
        let total = reservation_kb * 1024;
        let mut cache: SlabCache<()> = SlabCache::new(SlabCacheConfig {
            slab: SlabConfig::default(),
            total_bytes: total,
            policy: PolicyKind::Lru,
            mode: AllocationMode::FirstComeFirstServe { page_size: 4 << 10 },
            shadow_bytes: 0,
            tail_region_items: 0,
        });
        for (key, size) in requests {
            let key = Key::new(key as u64);
            if cache.get(key, size).map(|r| !r.result.hit).unwrap_or(false) {
                cache.set(key, size, ());
            }
            prop_assert!(cache.used_bytes() <= total,
                "used {} > reservation {}", cache.used_bytes(), total);
        }
    }

    /// The slab cache's one index and its class queues never disagree,
    /// under every policy and allocation mode: as many entries as queued
    /// items, every handle naming a node that holds its key in its class,
    /// bytes in use equal to those nodes' weights — across overwrites that
    /// change class, rejected writes, deletes and eager target shrinks.
    #[test]
    fn slab_cache_index_matches_its_queues(
        policy in prop_oneof![Just(PolicyKind::Lru), Just(PolicyKind::Facebook), Just(PolicyKind::Arc)],
        managed in any::<bool>(),
        ops in prop::collection::vec((0u8..6, 0u16..300, 1u64..8_000), 1..400),
    ) {
        let mut cache: SlabCache<u64> = SlabCache::new(SlabCacheConfig {
            slab: SlabConfig::new(64, 2.0, 8_192),
            total_bytes: 128 << 10,
            policy,
            mode: if managed {
                AllocationMode::Managed
            } else {
                AllocationMode::FirstComeFirstServe { page_size: 4 << 10 }
            },
            shadow_bytes: 8 << 10,
            tail_region_items: 4,
        });
        let classes = cache.num_classes() as u32;
        for class in 0..classes {
            cache.set_class_target(ClassId::new(class), 16 << 10);
        }
        for (step, (op, k, size)) in ops.into_iter().enumerate() {
            let key = Key::new(k as u64);
            match op {
                0 => {
                    cache.get(key, size);
                }
                1 => {
                    let lent = cache.lookup(key).copied();
                    prop_assert_eq!(lent, cache.value(key).copied());
                }
                2 | 3 => {
                    let (class, result) = cache.set(key, size, step as u64).expect("sizes fit a class");
                    prop_assert_eq!(result.handle.is_some(), cache.value(key).is_some());
                    if let Some(&held) = cache.value(key) {
                        prop_assert_eq!(held, step as u64);
                        prop_assert_eq!(cache.class_of(key), Some(class));
                    }
                    for evicted in &result.evicted {
                        prop_assert!(cache.value(*evicted).is_none());
                    }
                }
                4 => {
                    let was = cache.value(key).is_some();
                    prop_assert_eq!(cache.delete(key), was);
                }
                _ => {
                    let class = ClassId::new(k as u32 % classes);
                    cache.set_class_target(class, size);
                    cache.enforce_targets();
                }
            }
            if let Err(broken) = cache.check_index() {
                return Err(format!("after step {step}: {broken}"));
            }
        }
    }
}
