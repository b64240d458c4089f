//! Pins what the engines decide, to the bit.
//!
//! A seeded script (GETs with and without a size hint, cache-aside fills,
//! SETs whose sizes change slab class, DELETEs, outer `shrink_total` /
//! `grow_total`, per-class target moves) runs through `Cliffhanger<u64>`
//! and through `SlabCache<u64>` under every policy and allocation mode, and
//! everything the public API lets a caller observe — each hit with its
//! tail / cliff-shadow / hill-shadow flags, each admission, each evicted
//! key in order, the bytes in use, and every few thousand operations the
//! whole residency set and allocation state — is folded into one 64-bit
//! digest per engine. The constants below were recorded before the engines'
//! lookup path was rebuilt around one index per engine; a change to *how*
//! a key is found must leave them alone, and a change that moves them has
//! changed eviction order, a shadow cascade, a pointer event or the byte
//! accounting.
//!
//! One constant is not the parent's: `Cliffhanger` under ARC. ARC evicts
//! from T1 whenever T1 is over its target, which is 0 until a ghost hit
//! raises it, so a SET often evicts the very item it inserted. The old
//! controller recorded such a key as resident all the same, and the next
//! GET, sent to that class by the stale record, "healed" it; the index now
//! never holds a key no queue holds, so that GET is an ordinary miss. The
//! pinned value is the old code's with that one record left out (three
//! lines: `resident.insert` only if the class's own `set` did not hand the
//! key back as evicted), which the rebuilt engines reproduce at both scales;
//! the old code as it stood read 0xee1a0bc10177f71f and 0xc5f0e2105bdaa4a3.
//!
//! `EVICTION_DIGEST_SCALE` multiplies the operation count (1 per push, 10
//! nightly); constants are pinned for those two scales.

use cache_core::key::mix64;
use cache_core::store::AllocationMode;
use cache_core::{ClassId, Key, PolicyKind, SlabCache, SlabCacheConfig, SlabConfig};
use cliffhanger::{Cliffhanger, CliffhangerConfig, Partition};

const OPS_PER_SCALE: u64 = 240_000;
const KEYS: u64 = 6_000;
/// Value sizes by `key % 5`: five slab classes of the 64 B × 2 geometry.
const SIZES: [u64; 5] = [40, 100, 300, 900, 3_000];
const CHECKPOINT_EVERY: u64 = 4_096;

/// `(scale, [cliffhanger lru, facebook, arc, slab lru/fcfs, lru/managed,
/// facebook/fcfs, facebook/managed, arc/fcfs, arc/managed])`.
const PINNED: [(u64, [u64; 9]); 2] = [
    (
        1,
        [
            0x6de755fbd6fb116e,
            0x95aca8119c2a052d,
            0x0e0fd388c3cc976c,
            0x8096e408224b7c29,
            0x0e81b213c28623b4,
            0x18ec383d80d0a6df,
            0x354eb0a8f25ab37b,
            0x3c81e35204050d46,
            0x9765fc0f5f0fa081,
        ],
    ),
    (
        10,
        [
            0xddc6481e0b419837,
            0xd3808edf7015b73f,
            0xaef88ab3780a3bc6,
            0x2a419c0b65e550f5,
            0x9de9a817ab960a1a,
            0xfe87307c59db37db,
            0xa52593f0730e18af,
            0xe10dd1c3c6d491eb,
            0x844848e39b7875fc,
        ],
    ),
];

/// SplitMix64: the script's only source of randomness.
struct Script(u64);

impl Script {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A key id: a third of the draws walk a cyclic scan a little larger
    /// than what the budget holds (the cliff), the rest are skewed towards
    /// low ids.
    fn key(&mut self, op: u64) -> u64 {
        if self.below(3) == 0 {
            (op / 3) % (KEYS / 2)
        } else {
            let u = self.below(KEYS);
            u * u / KEYS
        }
    }

    /// The size `key` is written with: its home class, or one draw in
    /// eight another class (a class-changing overwrite).
    fn size(&mut self, key: u64) -> u64 {
        let home = if self.below(8) == 0 {
            self.below(5)
        } else {
            key % 5
        };
        SIZES[home as usize] + key % 17
    }
}

#[derive(Default)]
struct Digest(u64);

impl Digest {
    fn fold(&mut self, value: u64) {
        self.0 = mix64(self.0 ^ value).wrapping_add(value);
    }

    fn flags(&mut self, flags: &[bool]) {
        self.fold(flags.iter().fold(1, |bits, &f| bits << 1 | u64::from(f)));
    }
}

fn scale() -> u64 {
    std::env::var("EVICTION_DIGEST_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn slab() -> SlabConfig {
    SlabConfig::new(64, 2.0, 8_192)
}

fn cliffhanger_digest(policy: PolicyKind, ops: u64) -> u64 {
    let mut cache: Cliffhanger<u64> = Cliffhanger::new(CliffhangerConfig {
        slab: slab(),
        policy,
        total_bytes: 1 << 20,
        credit_bytes: 1 << 10,
        hill_shadow_bytes: 64 << 10,
        cliff_shadow_items: 16,
        cliff_min_items: 200,
        min_class_bytes: 4 << 10,
        seed: 7,
        ..CliffhangerConfig::default()
    });
    let mut script = Script(0x00D1_6E57);
    let mut digest = Digest::default();
    let mut scaled_a_cliff = false;
    let mut lent = 0;
    for op in 0..ops {
        let id = script.key(op);
        let key = Key::new(mix64(id));
        let mut fill = false;
        match script.below(20) {
            0..=5 => {
                let (class, event) = cache.get_untyped(key);
                digest.fold(u64::from(class.0));
                digest.flags(&[
                    event.hit,
                    event.tail_hit,
                    event.partition == Partition::Left,
                ]);
                digest.fold(cache.value(key).copied().unwrap_or(u64::MAX));
                fill = !event.hit;
            }
            6..=12 => {
                let size = SIZES[(id % 5) as usize] + id % 17;
                let (class, event) = cache.get(key, size).expect("every size has a class");
                digest.fold(u64::from(class.0));
                digest.flags(&[
                    event.hit,
                    event.tail_hit,
                    event.cliff_shadow_hit,
                    event.hill_shadow_hit,
                    event.partition == Partition::Left,
                ]);
                fill = !event.hit;
            }
            13..=17 => fill = true,
            18 => digest.flags(&[cache.delete(key)]),
            _ => {
                // Outer budget moves, as the shard balancer and the tenant
                // arbiter make them: memory is lent out and handed back, so
                // the budget never grows past what it started with.
                if script.below(40) == 0 {
                    let bytes = (1 + script.below(4)) << 15;
                    if lent >= bytes && script.below(2) == 0 {
                        cache.grow_total(bytes);
                        lent -= bytes;
                    } else {
                        let released = cache.shrink_total(bytes);
                        digest.flags(&[released]);
                        lent += if released { bytes } else { 0 };
                    }
                    digest.fold(cache.total_bytes());
                }
            }
        }
        if fill {
            let size = script.size(id);
            let (class, admitted) = cache.set(key, size, op).expect("every size has a class");
            digest.fold(u64::from(class.0));
            digest.flags(&[admitted]);
        }
        digest.fold(cache.used_bytes());
        digest.fold(cache.len() as u64);
        if op % CHECKPOINT_EVERY == 0 {
            for id in 0..KEYS {
                let key = Key::new(mix64(id));
                digest.flags(&[cache.contains(key)]);
            }
            for snapshot in cache.class_snapshots() {
                scaled_a_cliff |= snapshot.ratio != 0.5;
                for value in [
                    snapshot.target_bytes,
                    snapshot.used_bytes,
                    snapshot.items as u64,
                    snapshot.pointers.0,
                    snapshot.pointers.1,
                    snapshot.stats.evictions,
                    snapshot.stats.shadow_hits,
                    snapshot.stats.cliff_shadow_hits,
                ] {
                    digest.fold(value);
                }
            }
            let stats = cache.stats();
            for value in [
                cache.free_bytes(),
                cache.transfers(),
                stats.hits,
                stats.evictions,
            ] {
                digest.fold(value);
            }
        }
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > ops / 50,
        "the budget must force evictions"
    );
    assert!(stats.shadow_hits > 0 && stats.cliff_shadow_hits > 0);
    assert!(
        cache.transfers() > 0,
        "hill climbing must have moved memory"
    );
    assert!(
        scaled_a_cliff,
        "cliff scaling must have left the even split"
    );
    digest.0
}

fn slab_digest(policy: PolicyKind, managed: bool, ops: u64) -> u64 {
    let total_bytes = 768 << 10;
    let mut cache: SlabCache<u64> = SlabCache::new(SlabCacheConfig {
        slab: slab(),
        total_bytes,
        policy,
        mode: if managed {
            AllocationMode::Managed
        } else {
            AllocationMode::FirstComeFirstServe {
                page_size: 16 << 10,
            }
        },
        shadow_bytes: 32 << 10,
        tail_region_items: 16,
    });
    let classes = cache.num_classes() as u64;
    if managed {
        for class in 0..classes {
            cache.set_class_target(ClassId::new(class as u32), total_bytes / classes);
        }
    }
    let mut script = Script(0x51AB ^ policy as u64);
    let mut digest = Digest::default();
    for op in 0..ops {
        let id = script.key(op);
        let key = Key::new(mix64(id));
        let mut fill = false;
        match script.below(20) {
            0..=5 => {
                let got = cache.get_untyped(key);
                digest.fold(u64::from(got.class.0));
                digest.flags(&[
                    got.result.hit,
                    got.result.location == Some(cache_core::HitLocation::TailRegion),
                    got.result.shadow_hit,
                ]);
                digest.fold(cache.value(key).copied().unwrap_or(u64::MAX));
                fill = !got.result.hit;
            }
            6..=12 => {
                let size = SIZES[(id % 5) as usize] + id % 17;
                let got = cache.get(key, size).expect("every size has a class");
                digest.fold(u64::from(got.class.0));
                digest.flags(&[
                    got.result.hit,
                    got.result.location == Some(cache_core::HitLocation::TailRegion),
                    got.result.shadow_hit,
                ]);
                fill = !got.result.hit;
            }
            13..=17 => fill = true,
            18 => digest.flags(&[cache.delete(key)]),
            _ => {
                // An external allocator moving memory between two classes.
                if managed && script.below(10) == 0 {
                    let from = ClassId::new(script.below(classes) as u32);
                    let to = ClassId::new(script.below(classes) as u32);
                    let bytes = cache.class_target(from).min(8 << 10);
                    cache.set_class_target(from, cache.class_target(from) - bytes);
                    cache.set_class_target(to, cache.class_target(to) + bytes);
                    digest.fold(cache.enforce_targets() as u64);
                }
            }
        }
        if fill {
            let size = script.size(id);
            let (class, result) = cache.set(key, size, op).expect("every size has a class");
            digest.fold(u64::from(class.0));
            digest.flags(&[result.admitted]);
            for evicted in &result.evicted {
                digest.fold(evicted.raw());
            }
        }
        digest.fold(cache.used_bytes());
        digest.fold(cache.len() as u64);
        if op % CHECKPOINT_EVERY == 0 {
            for id in 0..KEYS {
                let key = Key::new(mix64(id));
                digest.fold(cache.value(key).copied().unwrap_or(u64::MAX));
            }
            for (class, stats) in cache.class_stats().iter().enumerate() {
                let class = ClassId::new(class as u32);
                for value in [
                    cache.class_target(class),
                    cache.class_used(class),
                    stats.hits,
                    stats.evictions,
                    stats.shadow_hits,
                ] {
                    digest.fold(value);
                }
            }
        }
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > ops / 50,
        "the budget must force evictions"
    );
    assert!(stats.shadow_hits > 0, "misses must reach the shadow queues");
    digest.0
}

#[test]
fn engine_decisions_are_bit_identical_to_the_recorded_run() {
    let scale = scale();
    let ops = scale * OPS_PER_SCALE;
    const POLICIES: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Facebook, PolicyKind::Arc];
    let mut got: Vec<u64> = POLICIES
        .iter()
        .map(|&policy| cliffhanger_digest(policy, ops))
        .collect();
    for policy in POLICIES {
        for managed in [false, true] {
            got.push(slab_digest(policy, managed, ops));
        }
    }
    let rendered: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    println!("scale {scale}: [{}]", rendered.join(", "));
    let pinned = PINNED
        .iter()
        .find(|(s, _)| *s == scale)
        .unwrap_or_else(|| panic!("no digests are pinned for scale {scale}"));
    assert_eq!(
        got,
        pinned.1,
        "scale {scale}: got [{}]",
        rendered.join(", ")
    );
}
