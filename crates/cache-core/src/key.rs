//! Compact cache keys and identifiers, and the table engines find them in.
//!
//! Traces and the simulation path address items by a 64-bit [`Key`]; the TCP
//! server interns byte-string keys into [`Key`]s with [`hash_bytes`] plus an
//! exact-match side table (see the `cache-server` crate). Every index from
//! a key to what is known about it is a [`KeyMap`].

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{BuildHasher, RandomState};

/// A cache key: an opaque 64-bit identifier.
///
/// Keys are cheap to copy and hash; equality is exact (the substrate never
/// conflates two distinct `Key` values).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct Key(pub u64);

impl Key {
    /// Creates a key from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        Key(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:#x})", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Key {
    fn from(raw: u64) -> Self {
        Key(raw)
    }
}

/// Counts the keys this thread has hashed for a [`KeyMap`], so tests can
/// hold an operation to a number of index probes instead of timing it.
/// Compiled into test and debug builds only; a release build hashes and
/// counts nothing.
#[cfg(any(test, debug_assertions))]
#[doc(hidden)]
pub mod probes {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HASHED: Cell<u64> = const { Cell::new(0) };
    }

    /// How many keys `run` hashed on this thread.
    pub fn hashed_by<T>(run: impl FnOnce() -> T) -> (u64, T) {
        let before = HASHED.with(Cell::get);
        let out = run();
        (HASHED.with(Cell::get) - before, out)
    }
}

/// The multiplier of a [`KeyMap`]'s hash: the 64-bit golden ratio, odd, so
/// a seeded key and its hash are one-to-one.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The largest probe distance a slot's metadata counts: a slot at this
/// distance or farther says so, and its distance is recomputed from its key.
const SATURATED: u16 = 0xff;

/// Slots a lookup compares at once, as the lanes of one word.
const GROUP: usize = 4;

/// A slot's metadata: an empty slot is 0; an entry `distance` slots past its
/// home is `(distance + 1)` (saturating) in the high byte and its [`tag`] in
/// the low one.
fn metadata(distance: usize, tag: u8) -> u16 {
    let counted = (distance + 1).min(usize::from(SATURATED)) as u16;
    (counted << 8) | u16::from(tag)
}

/// The 8 bits of a hash its slot's metadata keeps: bits the home slot of
/// any table under 2^24 slots does not use.
fn tag(hash: u64) -> u8 {
    (hash >> 32) as u8
}

/// Entries a table of `slots` holds before it doubles: 7/8 of them, or one
/// fewer than all of them while they are under 8 (std's rule, so both
/// tables are the same size for the same number of live entries).
fn max_load(slots: usize) -> usize {
    if slots < 8 {
        slots.saturating_sub(1)
    } else {
        slots / 8 * 7
    }
}

/// The engines' one kind of index: an open-addressing table from [`Key`] to
/// `V` with Robin Hood insertion, backward-shift deletion and the entry
/// inline in its slot.
///
/// A slot holds the `(Key, V)` entry itself — an engine's index entry is 32
/// bytes, a shadow queue's 16 — and beside it, in an array of their
/// own, two bytes of metadata: how far the entry sits past its home slot and
/// 8 bits of its hash. Insertion keeps every run ordered by home slot (an
/// entry goes before the first one whose home is later, and the rest of
/// the run moves on a slot), so a lookup stops at the first slot nearer its
/// home than the probe has come, and reads an entry only where its
/// metadata is the one the key would have there. Removal moves the rest of
/// the run back one slot instead of leaving a tombstone, so only live
/// entries fill the table, and it doubles only when they pass 7/8 of it.
/// (std's `HashMap` leaves a tombstone where it cannot mark a slot empty and
/// grows once tombstones use up its room: under churn an engine's index ran
/// a third full.)
///
/// The home slot is the top bits of `(key ^ seed) * GOLDEN`, with the
/// `seed` drawn per table from std's `RandomState`: a client choosing its
/// keys cannot aim them at one slot. A run longer than the metadata counts
/// is still searched exactly. Nothing may depend on the iteration order.
pub struct KeyMap<V> {
    /// One entry per slot, then the first `GROUP - 1` again, so that the
    /// group a lookup reads never wraps.
    meta: Box<[u16]>,
    slots: Box<[Option<(Key, V)>]>,
    len: usize,
    /// `64 - log2(slots.len())`: a hash's top bits are its home slot.
    shift: u32,
    seed: u64,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap::with_seed(RandomState::new().hash_one(GOLDEN))
    }
}

impl<V: fmt::Debug> fmt::Debug for KeyMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> KeyMap<V> {
    fn with_seed(seed: u64) -> Self {
        KeyMap {
            meta: Box::default(),
            slots: Box::default(),
            len: 0,
            shift: u64::BITS,
            seed,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated: 0 or a power of two, at most twice `len` at its peak
    /// over 7/8.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes the table holds: every slot's entry and metadata.
    pub fn heap_bytes(&self) -> u64 {
        let slots = self.slots.len() * std::mem::size_of::<Option<(Key, V)>>();
        (slots + self.meta.len() * std::mem::size_of::<u16>()) as u64
    }

    fn hash(&self, key: Key) -> u64 {
        (key.0 ^ self.seed).wrapping_mul(GOLDEN)
    }

    /// [`KeyMap::hash`] for an operation's own key: the probe tests count.
    fn hash_probe(&self, key: Key) -> u64 {
        #[cfg(any(test, debug_assertions))]
        probes::HASHED.with(|count| count.set(count.get() + 1));
        self.hash(key)
    }

    /// The slot a hash's probe starts at (the table has slots).
    fn home(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    /// Writes slot `at`'s metadata, and its copy past the end.
    fn set_meta(&mut self, at: usize, meta: u16) {
        self.meta[at] = meta;
        if at < GROUP - 1 {
            self.meta[self.slots.len() + at] = meta;
        }
    }

    /// How far past its home the entry in slot `at`, with metadata `meta`,
    /// sits.
    fn distance(&self, at: usize, meta: u16) -> usize {
        if meta >> 8 < SATURATED {
            return usize::from(meta >> 8).saturating_sub(1);
        }
        let home = match &self.slots[at] {
            Some((key, _)) => self.home(self.hash(*key)),
            None => at,
        };
        at.wrapping_sub(home) & (self.slots.len() - 1)
    }

    /// Where `key`, whose hash is `hash`, is: `Ok` with its slot, or `Err`
    /// with the slot it would be inserted at — the first that is empty or
    /// holds an entry nearer its home — and that slot's distance from home.
    ///
    /// The first [`GROUP`] slots' metadata is read as one word: the lane `k`
    /// slots from home that equals `(k + 1) << 8 | tag` is the key's, if the
    /// key is there, and the first lane whose distance is below `k` ends the
    /// search. A run past them (rare below 7/8 full) goes a slot at a time.
    fn find(&self, hash: u64, key: Key) -> Result<usize, (usize, usize)> {
        const LANES: u64 = 0x0001_0001_0001_0001;
        const HIGH: u64 = 0x8000_8000_8000_8000;
        const COUNTS: u64 = 0x0004_0003_0002_0001;
        if self.slots.is_empty() {
            return Err((0, 0));
        }
        let (mask, home) = (self.slots.len() - 1, self.home(hash));
        let group = match self.meta.get(home..home + GROUP) {
            Some(&[a, b, c, d]) => {
                u64::from(a) | (u64::from(b) << 16) | (u64::from(c) << 32) | (u64::from(d) << 48)
            }
            _ => 0,
        };
        // Lanes holding this key's metadata (a lane above a true one may be
        // a false positive: the key comparison settles it).
        let diff = group ^ ((COUNTS << 8) | (LANES * u64::from(tag(hash))));
        let mut candidates = diff.wrapping_sub(LANES) & !diff & HIGH;
        while candidates != 0 {
            let at = (home + candidates.trailing_zeros() as usize / 16) & mask;
            if matches!(&self.slots[at], Some((held, _)) if *held == key) {
                return Ok(at);
            }
            candidates &= candidates - 1;
        }
        // Lanes whose entry is nearer its home than the lane is from ours.
        let counts = (group >> 8) & 0x00ff_00ff_00ff_00ff;
        let stops = !((counts | HIGH) - COUNTS) & HIGH;
        if stops != 0 {
            let first = stops.trailing_zeros() as usize / 16;
            return Err(((home + first) & mask, first));
        }
        let mut at = (home + GROUP) & mask;
        for probed in GROUP..self.slots.len() {
            let meta = self.meta[at];
            if meta == 0 || self.distance(at, meta) < probed {
                return Err((at, probed));
            }
            if meta as u8 == tag(hash) && matches!(&self.slots[at], Some((held, _)) if *held == key)
            {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
        Err((at, self.slots.len()))
    }

    /// The value `key` maps to.
    pub fn get(&self, key: &Key) -> Option<&V> {
        if self.len == 0 {
            return None;
        }
        let at = self.find(self.hash_probe(*key), *key).ok()?;
        self.slots[at].as_ref().map(|(_, value)| value)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// Maps `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        let hash = self.hash_probe(key);
        let mut found = self.find(hash, key);
        if found.is_err() && self.len >= max_load(self.slots.len()) {
            self.grow();
            found = self.find(hash, key);
        }
        match found {
            Ok(at) => {
                let (_, held) = self.slots[at].as_mut()?;
                Some(std::mem::replace(held, value))
            }
            Err((at, distance)) => {
                self.insert_at(at, metadata(distance, tag(hash)), (key, value));
                self.len += 1;
                None
            }
        }
    }

    /// Puts `entry`, with metadata `meta`, in slot `at`, and moves what is
    /// there, up to the first empty slot, on by one slot (one farther from
    /// its home): the run stays ordered by home slot.
    fn insert_at(&mut self, at: usize, meta: u16, entry: (Key, V)) {
        let mask = self.slots.len() - 1;
        let mut empty = at;
        while self.meta[empty] != 0 {
            empty = (empty + 1) & mask;
        }
        while empty != at {
            let from = empty.wrapping_sub(1) & mask;
            let moved = self.meta[from];
            self.set_meta(empty, moved + (u16::from(moved >> 8 < SATURATED) << 8));
            self.slots.swap(empty, from);
            empty = from;
        }
        self.set_meta(at, meta);
        self.slots[at] = Some(entry);
    }

    /// Removes `key`'s entry, returning its value. The entries behind it in
    /// its run each move back one slot, to the first that is home or empty.
    pub fn remove(&mut self, key: &Key) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let at = self.find(self.hash_probe(*key), *key).ok()?;
        self.remove_at(at)
    }

    /// Keeps only the entries `keep` answers true for, in one pass over
    /// the slots. A removal moves the rest of its run back a slot, so the
    /// slot it emptied is asked about again: `keep` may see an entry twice
    /// and must answer the same.
    pub fn retain(&mut self, mut keep: impl FnMut(&Key, &V) -> bool) {
        let mut at = 0;
        while at < self.slots.len() {
            match &self.slots[at] {
                Some((key, value)) if !keep(key, value) => {
                    self.remove_at(at);
                }
                _ => at += 1,
            }
        }
    }

    /// Removes the entry in slot `at`, which holds one, and moves the
    /// entries behind it in its run back one slot each.
    fn remove_at(&mut self, mut at: usize) -> Option<V> {
        let (_, value) = self.slots[at].take()?;
        self.len -= 1;
        let mask = self.slots.len() - 1;
        loop {
            let next = (at + 1) & mask;
            let meta = self.meta[next];
            // Empty, or at home.
            if meta >> 8 <= 1 {
                break;
            }
            let distance = self.distance(next, meta);
            self.set_meta(at, metadata(distance - 1, meta as u8));
            self.slots.swap(at, next);
            at = next;
        }
        self.set_meta(at, 0);
        Some(value)
    }

    /// The entries, in no meaningful order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &V)> + '_ {
        self.slots.iter().flatten().map(|(key, value)| (key, value))
    }

    /// Asks for the metadata and the slots `key`'s probe starts at (see
    /// [`crate::prefetch`]): the address follows from the key, so nothing in
    /// the table is read — no probe, and [`probes`] does not count it. The
    /// second slot holds the end of the first.
    pub fn prefetch(&self, key: Key) {
        if self.len == 0 {
            return;
        }
        let at = self.home(self.hash(key));
        crate::prefetch::line(&self.meta[at]);
        crate::prefetch::line(&self.slots[at]);
        crate::prefetch::line(&self.slots[(at + 1) & (self.slots.len() - 1)]);
    }

    /// Doubles the slots (to 4 from none) and re-places every entry.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(4);
        let old = std::mem::replace(&mut self.slots, (0..slots).map(|_| None).collect());
        self.meta = vec![0; slots + GROUP - 1].into_boxed_slice();
        self.shift = u64::BITS - slots.trailing_zeros();
        for (key, value) in old.into_vec().into_iter().flatten() {
            let hash = self.hash(key);
            if let Err((at, distance)) = self.find(hash, key) {
                self.insert_at(at, metadata(distance, tag(hash)), (key, value));
            }
        }
    }
}

/// Identifier of an application (tenant) sharing a cache server.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize, Default,
)]
pub struct AppId(pub u32);

impl AppId {
    /// Creates an application id.
    pub const fn new(raw: u32) -> Self {
        AppId(raw)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Identifier of a slab class within an application's cache.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize, Default,
)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Creates a slab-class id.
    pub const fn new(raw: u32) -> Self {
        ClassId(raw)
    }

    /// Returns the class index as a usize (for indexing per-class vectors).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slab{}", self.0)
    }
}

/// Hashes an arbitrary byte string to a 64-bit key value.
///
/// The key is folded eight bytes at a time: each little-endian word is
/// XORed into the state, which is multiplied by an odd constant to 128 bits
/// and becomes the XOR of the product's halves (so a change in a word's
/// high bits reaches the low bits too). A key longer than eight bytes whose
/// length is not a multiple of eight ends with a word overlapping the one
/// before it; a shorter key is read as one word, its bytes placed by its
/// length. The length seeds the state, so keys that differ only by trailing
/// zero bytes hash apart, and [`mix64`] finishes it: a 16-byte key costs
/// two dependent multiplies and the finalizer's two.
///
/// This is used by the TCP server to map textual Memcached keys onto the
/// compact [`Key`] space. It is not collision-free; callers that need
/// exact semantics (the server does) must keep the original byte key and
/// verify it on lookup. Inlined into the server's `route_key`, where every
/// request's key is hashed.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const MULTIPLIER: u64 = 0x9fb2_1c65_1e98_df25;
    let word = |at: usize| {
        let mut word = [0; 8];
        word.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(word)
    };
    let fold = |state: u64, word: u64| {
        let product = u128::from(state ^ word) * u128::from(MULTIPLIER);
        (product as u64) ^ ((product >> 64) as u64)
    };
    let len = bytes.len();
    let state = (len as u64).wrapping_mul(MULTIPLIER);
    if len < 8 {
        return mix64(fold(state, short_word(bytes)));
    }
    let (mut state, mut at) = (state, 0);
    while at + 8 < len {
        state = fold(state, word(at));
        at += 8;
    }
    mix64(fold(state, word(len - 8)))
}

/// A key of under eight bytes as one word: four bytes from each end for a
/// key of four or more (they overlap below eight), else its first, middle
/// and last bytes. With the length known, the word says which key it was.
#[inline]
fn short_word(bytes: &[u8]) -> u64 {
    let len = bytes.len();
    if len >= 4 {
        let half = |at: usize| {
            let mut half = [0; 4];
            half.copy_from_slice(&bytes[at..at + 4]);
            u64::from(u32::from_le_bytes(half))
        };
        half(0) | (half(len - 4) << 32)
    } else if len > 0 {
        u64::from(bytes[0]) | (u64::from(bytes[len / 2]) << 8) | (u64::from(bytes[len - 1]) << 16)
    } else {
        0
    }
}

/// Mixes a 64-bit value (SplitMix64 finalizer); used to derive well-spread
/// key ids from sequential counters in workload generators.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_roundtrip() {
        let k = Key::new(42);
        assert_eq!(k.raw(), 42);
        assert_eq!(Key::from(42u64), k);
        assert_eq!(format!("{k}"), "0x2a");
    }

    #[test]
    fn hash_bytes_is_deterministic() {
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
        assert_ne!(hash_bytes(b"hello"), hash_bytes(b"world"));
    }

    /// Every key of up to 40 bytes hashes apart from every one-byte change
    /// of it and from itself with a zero byte appended (the length is part
    /// of the hash); a key of eight or more reads every byte, the last word
    /// overlapping the one before it.
    #[test]
    fn hash_bytes_reads_every_byte_and_the_length() {
        let key: Vec<u8> = (0..40u8).map(|i| b'a' + i % 26).collect();
        let mut seen = HashSet::new();
        for len in 0..=key.len() {
            let base = &key[..len];
            assert!(seen.insert(hash_bytes(base)), "length {len} collided");
            let mut padded = base.to_vec();
            padded.push(0);
            assert_ne!(hash_bytes(base), hash_bytes(&padded), "length {len}");
            for at in 0..len {
                let mut changed = base.to_vec();
                changed[at] ^= 1;
                assert_ne!(hash_bytes(base), hash_bytes(&changed), "byte {at} of {len}");
            }
        }
        assert_eq!(hash_bytes(b""), mix64(0));
        // Keys that differ only in digits both words of a 12-byte key hold
        // (a fold that moved a word's high bits only upward collided on a
        // tenth of these).
        // Keys that differ only in the last byte of each of their two words:
        // a fold that kept the low half of the product moved those
        // differences only into the top byte, 256 hashes for these 65,536.
        let ids: HashSet<u64> = (0..=u16::MAX)
            .map(|i| {
                let [a, b] = i.to_le_bytes();
                hash_bytes(&[b'k', b'e', b'y', b':', 0, 0, 0, a, 1, 2, 3, 4, 5, 6, 7, b])
            })
            .collect();
        assert_eq!(ids.len(), 1 << 16);
        for format in [|i| format!("key:{i}"), |i| format!("item:{i:07}")] {
            let ids: HashSet<u64> = (0..100_000)
                .map(|i| hash_bytes(format(i).as_bytes()))
                .collect();
            assert_eq!(ids.len(), 100_000);
        }
    }

    #[test]
    fn mix64_spreads_sequential_inputs() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(mix64(i));
        }
        assert_eq!(seen.len(), 10_000, "mix64 collided on sequential inputs");
    }

    #[test]
    fn the_probe_start_spreads_fnv_keys_over_slots_and_tags() {
        for seed in [0, 0x5eed, KeyMap::<()>::default().seed] {
            let map = KeyMap::<()>::with_seed(seed);
            let (mut homes, mut tags) = (HashSet::new(), HashSet::new());
            for i in 0..4096u32 {
                let hash = map.hash(Key::new(hash_bytes(format!("key:{i}").as_bytes())));
                homes.insert(hash >> 52);
                tags.insert(tag(hash));
            }
            // The home slot in a table of 4096 (the top bits), the tag.
            assert!(homes.len() > 2400, "{} of 4096 home slots", homes.len());
            assert_eq!(tags.len(), 256);
        }
        assert_ne!(KeyMap::<()>::default().seed, KeyMap::<()>::default().seed);
        let mut map = KeyMap::default();
        map.insert(Key::new(7), "seven");
        assert_eq!(map.get(&Key::new(7)), Some(&"seven"));
    }

    /// A slot is its entry and two bytes: an engine's entry and a shadow
    /// queue's 16 keep their size as an `Option` (their handles leave it a
    /// niche).
    #[test]
    fn a_slot_is_its_entry_and_two_bytes() {
        use crate::list::NodeHandle;
        use std::mem::size_of;
        assert_eq!(size_of::<Option<(Key, NodeHandle)>>(), 16);
        let mut map = KeyMap::default();
        assert_eq!((map.slots(), map.heap_bytes()), (0, 0));
        let handle = crate::list::LinkedArena::new().push_front(());
        map.insert(Key::new(1), handle);
        assert_eq!((map.slots(), map.heap_bytes()), (4, 4 * 18 + 6));
    }

    /// [`KeyMap`] against std's `HashMap`, operation by operation, with keys
    /// aimed at one home slot through the inverted probe start.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// The seed of every table here, so that keys can be aimed.
        const SEED: u64 = 0x5eed;

        /// The key whose hash under [`SEED`] is `hash`.
        fn key_of(hash: u64) -> Key {
            // Newton's iteration for GOLDEN's inverse mod 2^64: 3 bits, 6, … 96.
            let mut inverse = GOLDEN;
            for _ in 0..5 {
                inverse = inverse.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(inverse)));
            }
            Key::new(hash.wrapping_mul(inverse) ^ SEED)
        }

        /// The `i`th (`< 2^20`) of the keys whose hash starts with the 20
        /// bits `home`: one home slot in every table up to 2^20 slots, the
        /// last slot for `0xf_ffff`. Their tags vary.
        fn aimed(home: u64, i: u64) -> Key {
            key_of((home << 44) | ((mix64(i) >> 20) & !0xf_ffff) | i)
        }

        /// Operations on a key of [`pool`].
        #[derive(Clone, Debug)]
        enum Op {
            Insert(u16, u64),
            Remove(u16),
            Get(u16),
            /// Drops the entries whose key, value and this salt XOR to a
            /// multiple of eight.
            Retain(u64),
        }

        /// 64 small keys, 300 aimed at the last slot (their runs wrap and
        /// outgrow what the metadata counts) and 100 at the middle one.
        fn pool(k: u16) -> Key {
            match u64::from(k) {
                k @ 0..64 => Key::new(k),
                k @ 64..364 => aimed(0xf_ffff, k),
                k => aimed(0x8_0000, k),
            }
        }

        fn op() -> impl Strategy<Value = Op> {
            let key = || 0u16..464;
            prop_oneof![
                (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
                (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
                key().prop_map(Op::Remove),
                key().prop_map(Op::Get),
                any::<u64>().prop_map(Op::Retain),
            ]
        }

        /// Runs `op`, its keys resolved by `key`, on both tables and fails on
        /// the first answer, length or set of entries they disagree on.
        fn step(
            map: &mut KeyMap<u64>,
            model: &mut HashMap<Key, u64>,
            op: &Op,
            key: impl Fn(u16) -> Key,
        ) -> Result<(), String> {
            let (ours, theirs) = match *op {
                Op::Insert(k, v) => (map.insert(key(k), v), model.insert(key(k), v)),
                Op::Remove(k) => (map.remove(&key(k)), model.remove(&key(k))),
                Op::Get(k) if map.contains_key(&key(k)) != model.contains_key(&key(k)) => {
                    return Err(format!("{op:?}: contains_key"));
                }
                Op::Get(k) => (map.get(&key(k)).copied(), model.get(&key(k)).copied()),
                Op::Retain(salt) => {
                    let keep = |key: &Key, value: &u64| (key.0 ^ value ^ salt) % 8 != 0;
                    map.retain(keep);
                    model.retain(|key, value| keep(key, value));
                    (None, None)
                }
            };
            let entries: HashMap<Key, u64> = map.iter().map(|(&k, &v)| (k, v)).collect();
            if (ours, map.len()) != (theirs, model.len()) || entries != *model {
                return Err(format!("{op:?}: {ours:?} against {theirs:?}"));
            }
            Ok(())
        }

        /// Whether a lookup finds every entry where the table holds it.
        fn reachable(map: &KeyMap<u64>) -> bool {
            map.iter().all(|(key, value)| map.get(key) == Some(value))
        }

        /// Cases: 256 per push, `PROPTEST_CASES` overrides (nightly.yml
        /// runs 10 x that).
        fn cases() -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|cases| cases.parse().ok())
                .unwrap_or(256)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            /// Every script starts from an empty table, so the table grows
            /// under it, from 4 slots to 512.
            #[test]
            fn key_map_answers_as_std_hash_map_does(script in prop::collection::vec(op(), 1..400)) {
                let (mut map, mut model) = (KeyMap::with_seed(SEED), HashMap::new());
                for op in &script {
                    step(&mut map, &mut model, op, pool)?;
                    prop_assert!(reachable(&map), "{:?}", op);
                }
            }
        }

        /// A thousand keys on one home slot — the last, so their run wraps
        /// — written, read, half removed, rewritten: the model's answer every
        /// time, in a table no larger than their number needs.
        #[test]
        fn a_thousand_keys_aimed_at_one_slot_are_answered_exactly() {
            let keys: Vec<Key> = (0..1000).map(|i| aimed(0xf_ffff, i)).collect();
            assert_eq!(keys.iter().collect::<HashSet<_>>().len(), keys.len());
            let mut map = KeyMap::with_seed(SEED);
            assert!(keys.iter().all(|&k| map.hash(k) >> 44 == 0xf_ffff));
            let mut script: Vec<Op> = (0..1000).map(|k| Op::Insert(k, k.into())).collect();
            for k in (0..1000).step_by(2) {
                script.extend([Op::Get(k), Op::Remove(k), Op::Get(k)]);
            }
            script.push(Op::Retain(3));
            for k in (0..1000).rev().step_by(3) {
                script.extend([Op::Insert(k, 7), Op::Insert(k, 8)]);
            }
            let mut model = HashMap::new();
            for op in &script {
                step(&mut map, &mut model, op, |k| keys[usize::from(k)]).unwrap();
            }
            assert!(reachable(&map));
            assert_eq!(map.slots(), 2048, "1,000 entries over 7/8 of 1,024 slots");
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(AppId::new(3).to_string(), "app3");
        assert_eq!(ClassId::new(9).to_string(), "slab9");
        assert_eq!(ClassId::new(9).index(), 9);
    }

    /// The engines' lookup cost, as a count of keys hashed for a `KeyMap`
    /// (the engine's one index plus the key-only shadow indexes): counts,
    /// so they hold on any host and fail on the first extra probe.
    mod probe_counts {
        use super::super::probes::hashed_by;
        use super::*;
        use crate::store::AllocationMode;
        use crate::{GlobalLruCache, SlabCache, SlabCacheConfig};

        /// A managed slab cache whose 64-byte class fits 4 items of 60 or
        /// 61 bytes; with `shadow_bytes` every class queue has a shadow.
        fn slab_cache(shadow_bytes: u64) -> SlabCache<u64> {
            let mut cache = SlabCache::new(SlabCacheConfig {
                mode: AllocationMode::Managed,
                shadow_bytes,
                ..SlabCacheConfig::default()
            });
            let class = cache.class_for_size(60).unwrap();
            cache.set_class_target(class, 4 * (61 + crate::ITEM_OVERHEAD));
            cache
        }

        #[test]
        fn a_resident_get_hashes_one_key() {
            for shadow_bytes in [0, 1 << 20] {
                let mut cache = slab_cache(shadow_bytes);
                cache.set(Key::new(1), 60, 10);
                assert_eq!(hashed_by(|| cache.get_untyped(Key::new(1))).0, 1);
                assert_eq!(hashed_by(|| cache.get(Key::new(1), 60)).0, 1);
                assert_eq!(
                    hashed_by(|| cache.lookup(Key::new(1)).copied()),
                    (1, Some(10))
                );
                assert_eq!(
                    hashed_by(|| cache.value(Key::new(1)).copied()),
                    (1, Some(10))
                );
            }
            let mut global: GlobalLruCache<u64> = GlobalLruCache::new(1 << 20);
            global.set(Key::new(1), 60, 10);
            assert_eq!(hashed_by(|| global.get(Key::new(1)).hit), (1, true));
        }

        #[test]
        fn a_prefetch_hashes_one_key_and_what_follows_it_what_it_did() {
            use crate::prefetch::Sweep;
            let mut cache = slab_cache(0);
            let large = cache.class_for_size(5_000).unwrap();
            cache.set_class_target(large, 1 << 20);
            cache.set(Key::new(0), 5_000, 0);
            for key in 1..5 {
                cache.set(Key::new(key), 60, 10);
            }
            // The sweeps: one probe each, resident key or not.
            let sweeps = |cache: &SlabCache<u64>, key| {
                for sweep in [Sweep::Item, Sweep::Neighbours] {
                    let (hashed, lent) =
                        hashed_by(|| cache.prefetch(Key::new(key), sweep).copied());
                    assert_eq!((hashed, lent), (1, cache.value(Key::new(key)).copied()));
                }
            };
            // A hit, an overwrite and an evicting write behind them cost
            // what the tests around this one hold them to without.
            sweeps(&cache, 1);
            assert_eq!(
                hashed_by(|| cache.lookup(Key::new(1)).copied()),
                (1, Some(10))
            );
            sweeps(&cache, 2);
            assert_eq!(hashed_by(|| cache.set(Key::new(2), 61, 11)).0, 2);
            sweeps(&cache, 9);
            let (hashed, (_, result)) = hashed_by(|| cache.set(Key::new(9), 60, 10).unwrap());
            assert_eq!((hashed, result.evicted.len()), (3, 1));
        }

        #[test]
        fn a_miss_hashes_the_index_and_the_shadow_indexes_it_consults() {
            // No shadow queues (the server's plain engine): the index only.
            let mut plain = slab_cache(0);
            plain.set(Key::new(1), 60, 10);
            assert_eq!(
                hashed_by(|| plain.get_untyped(Key::new(2)).result.hit),
                (1, false)
            );
            assert_eq!(hashed_by(|| plain.get(Key::new(2), 60)).0, 1);
            // With them: every class's shadow is asked where the key went,
            // then the chosen class's is probed — but an empty one is
            // never hashed for.
            let mut shadowed = slab_cache(1 << 20);
            shadowed.set(Key::new(1), 60, 10);
            assert_eq!(hashed_by(|| shadowed.get_untyped(Key::new(2))).0, 1);
            for key in 2..10 {
                shadowed.set(Key::new(key), 60, 10);
            }
            let (hashed, got) = hashed_by(|| shadowed.get_untyped(Key::new(1)));
            assert!(got.result.shadow_hit);
            assert_eq!(hashed, 3, "the index, one shadow's `contains`, its `probe`");
        }

        #[test]
        fn a_write_hashes_two_keys_and_one_per_eviction() {
            let mut cache = slab_cache(0);
            // (An empty table answers without hashing; keep one item in
            // another class so every count below is of a real probe.)
            let large = cache.class_for_size(5_000).unwrap();
            cache.set_class_target(large, 1 << 20);
            cache.set(Key::new(0), 5_000, 0);
            // New key: the lookup that finds nothing, the insert.
            assert_eq!(hashed_by(|| cache.set(Key::new(1), 60, 10)).0, 2);
            // Overwrite in the same class: the lookup, the replacing insert.
            assert_eq!(hashed_by(|| cache.set(Key::new(1), 61, 11)).0, 2);
            for key in 2..5 {
                cache.set(Key::new(key), 60, 10);
            }
            // A full class: each evicted key costs its removal from the
            // index and nothing else.
            let (hashed, (_, result)) = hashed_by(|| cache.set(Key::new(9), 60, 10).unwrap());
            assert_eq!(result.evicted, vec![Key::new(1)]);
            assert_eq!(hashed, 3);
            let (hashed, evicted) = hashed_by(|| {
                cache.set_class_target(cache.class_of(Key::new(9)).unwrap(), 0);
                cache.enforce_targets()
            });
            assert_eq!((hashed, evicted), (5, 4), "`class_of` and four removals");
            assert_eq!(hashed_by(|| cache.delete(Key::new(9))).0, 1);
            // The last item's delete probes; one against the empty table does not.
            let twice = || [0, 0].map(|key| cache.delete(Key::new(key)));
            assert_eq!(hashed_by(twice), (1, [true, false]));
            // With a shadow queue behind the class an overwrite adds that
            // index: the key must not linger there once it is resident.
            let mut shadowed = slab_cache(1 << 20);
            for key in 1..10 {
                shadowed.set(Key::new(key), 60, 10);
            }
            assert!(hashed_by(|| shadowed.set(Key::new(9), 61, 11)).0 <= 2 + 1);
        }
    }
}
