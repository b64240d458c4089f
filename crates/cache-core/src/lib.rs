//! # cache-core
//!
//! The cache substrate used by the Cliffhanger reproduction: a Memcached-like,
//! slab-structured in-memory key-value cache with pluggable eviction policies
//! and key-only *shadow queues*.
//!
//! The crate is deliberately independent of the allocation algorithms in the
//! [`cliffhanger`](../cliffhanger/index.html) crate: it exposes the queue
//! primitives (physical eviction queues with byte budgets, shadow queues read
//! at two depths, slab-class sizing, per-queue statistics) and two cache
//! organisations (slab-class caches and a global-LRU / log-structured cache),
//! while *who gets how much memory* is decided by an external allocator.
//!
//! ## Layout
//!
//! * [`key`] — compact 64-bit cache keys and byte-string hashing.
//! * [`list`] — an index-based intrusive doubly-linked list arena, the backing
//!   store for every recency-ordered queue in the crate.
//! * [`lru`] — an LRU list with O(1) access/insert/evict, byte weights and an
//!   exactly-maintained *tail region* (the "last k items" the cliff-scaling
//!   algorithm needs to observe).
//! * [`shadow`] — key-only shadow queues, a near segment in front of a far
//!   one (the cliff and hill shadows), the paper's central measurement device.
//! * [`slab`] — Memcached-style slab-class geometry.
//! * [`policy`] — eviction policies as one [`policy::Policy`] enum: LRU and
//!   the Facebook mid-queue insertion scheme (one [`LruList`] each,
//!   inserting at the top or the middle) and ARC (T1 and T2 in one arena).
//! * [`prefetch`] — cache-line prefetch hints (the crate's one `unsafe`).
//! * [`magazine`] — per-size-class stacks of freed buffers, the item
//!   buffers' recycler.
//! * [`queue`] — a physical cache queue: a policy, a byte budget and an
//!   attached shadow queue, addressed by [`NodeHandle`] (the engine above
//!   it owns the one index from key to value).
//! * [`store`] — a slab-class cache for a single application (first-come-
//!   first-serve by default, externally resizable per class).
//! * [`global_lru`] — the log-structured-memory model: one global LRU.
//! * [`tenant`] — the tenant name table (`app <name>` to a dense index).
//! * [`stats`] — hit/miss/eviction accounting shared by all of the above.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod global_lru;
pub mod key;
pub mod list;
pub mod lru;
pub mod magazine;
pub mod policy;
pub mod prefetch;
pub mod queue;
pub mod shadow;
pub mod slab;
pub mod stats;
pub mod store;
pub mod tenant;

pub use global_lru::GlobalLruCache;
pub use key::{hash_bytes, AppId, ClassId, Key};
pub use list::NodeHandle;
pub use lru::{HitLocation, LruList};
pub use policy::PolicyKind;
pub use queue::{Admission, CacheQueue, GetResult, QueueConfig, SetResult};
pub use shadow::{Segment, ShadowQueue};
pub use slab::SlabConfig;
pub use stats::{CacheStats, Footprint, HitRatio};
pub use store::{SlabCache, SlabCacheConfig};
pub use tenant::{TenantDirectory, DEFAULT_TENANT};

/// Fixed per-item metadata overhead charged against the memory budget, in
/// bytes. Memcached charges roughly 48–56 bytes of header per item; we use a
/// single constant so byte budgets are comparable across experiments.
pub const ITEM_OVERHEAD: u64 = 48;
