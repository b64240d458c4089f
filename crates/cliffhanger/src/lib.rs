//! # cliffhanger
//!
//! The paper's primary contribution: a lightweight, iterative memory
//! allocator for web memory caches that (a) hill-climbs the hit-rate curves
//! of its eviction queues using shadow-queue hits as a local gradient signal
//! (Algorithm 1) and (b) scales performance cliffs by splitting each queue in
//! two and searching for the cliff boundaries with a pair of small shadow
//! queues (Algorithms 2 and 3), with no stack-distance profiling and no
//! global coordination.
//!
//! ## Modules
//!
//! * [`config`] — the knobs the paper discusses in §5.3 (shadow-queue sizes,
//!   credit sizes, the 1000-item threshold for cliff scaling).
//! * [`hill_climb`] — Algorithm 1: credit-based resizing across queues.
//! * [`cliff_scale`] — Algorithms 2 and 3: pointer updates and the request
//!   ratio / physical-size computation.
//! * [`partitioned_queue`] — the per-queue structure of Figure 5: two
//!   physical sub-queues, their 128-item cliff shadow queues (plus the
//!   physical tail regions) and the long hill-climbing shadow queue.
//! * [`controller`] — the combined Cliffhanger cache for one application:
//!   one managed, partitioned queue per slab class, hill climbing across
//!   classes and cliff scaling within each class (§4.3).
//! * [`shard_balance`] — an extension that treats the *shards* of a
//!   key-partitioned server as the queues: per-shard shadow-hit deltas are
//!   the gradients, and a periodic hill-climbing round moves budget between
//!   shards so a sharded deployment converges toward the unsharded
//!   controller's hit rate instead of re-creating static partitions. The
//!   same balancer, seated with whole applications (tenants) under
//!   [`ShardBalanceConfig::tenant_default`], is the server's arbiter: it
//!   replaces Memcachier's static reservations (§3) with dynamic
//!   cross-application arbitration.
//! * [`events`] — the host-facing [`EventSink`] hook: the controller
//!   narrates its decisions (cliff-scaler ratio steps, free-pool grants) to
//!   a sink the host installs, typically a flight-recorder journal.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cliff_scale;
pub mod config;
pub mod controller;
pub mod events;
pub mod hill_climb;
pub mod partitioned_queue;
pub mod shard_balance;

pub use cliff_scale::{CliffScaler, PointerEvent};
pub use config::{CliffhangerConfig, ShardBalanceConfig};
pub use controller::{ClassSnapshot, Cliffhanger};
pub use events::EventSink;
pub use hill_climb::HillClimber;
pub use partitioned_queue::{Partition, PartitionedQueue, QueueEvent, SetOutcome};
pub use shard_balance::{ShardRebalancer, ShardSample, ShardTransfer};
