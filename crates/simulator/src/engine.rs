//! Trace-driven replay of one application against one cache system.
//!
//! The replay semantics mirror a look-aside cache (Memcached): a GET that
//! misses is followed by a demand fill (SET) of the same key and size, an
//! application SET stores the item unconditionally, and a DELETE removes it.
//! Hit rates are computed over GET requests only, which matches the paper's
//! definition.

use cache_core::store::AllocationMode;
use cache_core::{
    CacheStats, ClassId, GlobalLruCache, PolicyKind, SlabCache, SlabCacheConfig, SlabConfig,
};
use cliffhanger::{Cliffhanger, CliffhangerConfig};
use serde::{Deserialize, Serialize};
use workloads::{Op, Trace};

/// Which Cliffhanger algorithms are enabled (the ablations of Table 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CliffhangerMode {
    /// Hill climbing and cliff scaling (the full system).
    Full,
    /// Algorithm 1 only.
    HillClimbingOnly,
    /// Algorithms 2–3 only.
    CliffScalingOnly,
}

/// The cache organisation to replay against.
#[derive(Clone, Debug, PartialEq)]
pub enum CacheSystem {
    /// Memcached's default: first-come-first-serve slab allocation with the
    /// given eviction policy (LRU unless stated otherwise).
    Default(PolicyKind),
    /// Per-class byte targets fixed up front (e.g. by the Dynacache solver).
    StaticPlan {
        /// Byte target per slab class.
        class_targets: Vec<u64>,
        /// Eviction policy of every class queue.
        policy: PolicyKind,
    },
    /// A single global LRU over bytes (the log-structured-memory model).
    GlobalLru,
    /// Cliffhanger-managed cache.
    Cliffhanger {
        /// Which algorithms run.
        mode: CliffhangerMode,
        /// Eviction policy of the physical queues.
        policy: PolicyKind,
    },
}

impl CacheSystem {
    /// Shorthand for the default system with LRU.
    pub fn default_lru() -> Self {
        CacheSystem::Default(PolicyKind::Lru)
    }

    /// Shorthand for the full Cliffhanger system with LRU.
    pub fn cliffhanger() -> Self {
        CacheSystem::Cliffhanger {
            mode: CliffhangerMode::Full,
            policy: PolicyKind::Lru,
        }
    }
}

/// Replay parameters shared by every system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplayOptions {
    /// The application's memory reservation in bytes.
    pub reserved_bytes: u64,
    /// Number of timeline samples to record (0 disables the timeline).
    pub timeline_samples: usize,
}

impl ReplayOptions {
    /// Options with the given reservation and defaults elsewhere.
    pub fn new(reserved_bytes: u64) -> Self {
        ReplayOptions {
            reserved_bytes,
            timeline_samples: 0,
        }
    }

    /// Enables timeline sampling.
    pub fn with_timeline(mut self, samples: usize) -> Self {
        self.timeline_samples = samples;
        self
    }

    /// The traces are scaled-down stand-ins for 50 MB+ production
    /// reservations, so the shadow-queue / credit constants scale with the
    /// reservation to keep their *ratios* the paper's (see
    /// [`CliffhangerConfig::scaled_for`]).
    fn cliffhanger_config(&self, mode: CliffhangerMode, policy: PolicyKind) -> CliffhangerConfig {
        let mut config = CliffhangerConfig::scaled_for(self.reserved_bytes);
        config.policy = policy;
        config.enable_hill_climbing = mode != CliffhangerMode::CliffScalingOnly;
        config.enable_cliff_scaling = mode != CliffhangerMode::HillClimbingOnly;
        config
    }
}

/// A sample of the system state during replay.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelinePoint {
    /// Trace timestamp (seconds) of the sample.
    pub time: u64,
    /// Hit rate over the interval since the previous sample.
    pub interval_hit_rate: f64,
    /// Cumulative hit rate up to this sample.
    pub cumulative_hit_rate: f64,
    /// Byte target of every slab class (empty for the global-LRU system).
    pub class_targets: Vec<u64>,
    /// Bytes in use per slab class.
    pub class_used: Vec<u64>,
}

/// The result of replaying one application.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AppRunResult {
    /// Statistics over the whole trace.
    pub stats: CacheStats,
    /// Per-slab-class statistics (empty for global LRU).
    pub class_stats: Vec<CacheStats>,
    /// Final byte target per class (empty for global LRU / default FCFS it
    /// reports the grown targets).
    pub final_class_targets: Vec<u64>,
    /// Timeline samples (empty unless requested).
    pub timeline: Vec<TimelinePoint>,
}

impl AppRunResult {
    /// The overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_ratio().value()
    }
}

enum SystemInstance {
    Slab(SlabCache<()>),
    Global(GlobalLruCache<()>),
    Managed(Box<Cliffhanger<()>>),
}

impl SystemInstance {
    fn build(system: &CacheSystem, options: &ReplayOptions) -> SystemInstance {
        match system {
            CacheSystem::Default(policy) => {
                // Memcached's real page size is 1 MB on 50 MB+ reservations;
                // scale it with the (scaled-down) reservation so the default
                // scheme keeps the same pages-per-application granularity.
                let page_size = (options.reserved_bytes / 48).clamp(8 << 10, 1 << 20);
                SystemInstance::Slab(SlabCache::new(SlabCacheConfig {
                    slab: SlabConfig::default(),
                    total_bytes: options.reserved_bytes,
                    policy: *policy,
                    mode: AllocationMode::FirstComeFirstServe { page_size },
                    shadow_bytes: 0,
                    tail_region_items: 0,
                }))
            }
            CacheSystem::StaticPlan {
                class_targets,
                policy,
            } => {
                let mut cache = SlabCache::new(SlabCacheConfig {
                    slab: SlabConfig::default(),
                    total_bytes: options.reserved_bytes,
                    policy: *policy,
                    mode: AllocationMode::Managed,
                    shadow_bytes: 0,
                    tail_region_items: 0,
                });
                for (idx, &bytes) in class_targets.iter().enumerate() {
                    if idx < cache.num_classes() {
                        cache.set_class_target(ClassId::new(idx as u32), bytes);
                    }
                }
                SystemInstance::Slab(cache)
            }
            CacheSystem::GlobalLru => {
                SystemInstance::Global(GlobalLruCache::new(options.reserved_bytes))
            }
            CacheSystem::Cliffhanger { mode, policy } => SystemInstance::Managed(Box::new(
                Cliffhanger::new(options.cliffhanger_config(*mode, *policy)),
            )),
        }
    }

    fn get(&mut self, key: cache_core::Key, size: u64) -> bool {
        match self {
            SystemInstance::Slab(c) => c.get(key, size).map(|r| r.result.hit).unwrap_or(false),
            SystemInstance::Global(c) => c.get(key).hit,
            SystemInstance::Managed(c) => c.get(key, size).map(|(_, e)| e.hit).unwrap_or(false),
        }
    }

    fn set(&mut self, key: cache_core::Key, size: u64) {
        match self {
            SystemInstance::Slab(c) => {
                let _ = c.set(key, size, ());
            }
            SystemInstance::Global(c) => {
                let _ = c.set(key, size, ());
            }
            SystemInstance::Managed(c) => {
                let _ = c.set(key, size, ());
            }
        }
    }

    fn delete(&mut self, key: cache_core::Key) {
        match self {
            SystemInstance::Slab(c) => {
                let _ = c.delete(key);
            }
            SystemInstance::Global(c) => {
                let _ = c.delete(key);
            }
            SystemInstance::Managed(c) => {
                let _ = c.delete(key);
            }
        }
    }

    fn stats(&self) -> CacheStats {
        match self {
            SystemInstance::Slab(c) => c.stats(),
            SystemInstance::Global(c) => c.stats(),
            SystemInstance::Managed(c) => c.stats(),
        }
    }

    fn class_stats(&self) -> Vec<CacheStats> {
        match self {
            SystemInstance::Slab(c) => c.class_stats(),
            SystemInstance::Global(_) => Vec::new(),
            SystemInstance::Managed(c) => c.class_stats(),
        }
    }

    fn class_targets(&self) -> Vec<u64> {
        match self {
            SystemInstance::Slab(c) => (0..c.num_classes())
                .map(|i| c.class_target(ClassId::new(i as u32)))
                .collect(),
            SystemInstance::Global(_) => Vec::new(),
            SystemInstance::Managed(c) => (0..c.num_classes())
                .map(|i| c.class_target(ClassId::new(i as u32)))
                .collect(),
        }
    }

    fn class_used(&self) -> Vec<u64> {
        match self {
            SystemInstance::Slab(c) => (0..c.num_classes())
                .map(|i| c.class_used(ClassId::new(i as u32)))
                .collect(),
            SystemInstance::Global(c) => vec![c.used_bytes()],
            SystemInstance::Managed(c) => {
                c.class_snapshots().iter().map(|s| s.used_bytes).collect()
            }
        }
    }
}

/// Replays a single-application trace against a cache system.
///
/// The trace is expected to contain only one application's requests; the
/// `app` field of requests is not interpreted here.
pub fn replay_app(trace: &Trace, system: &CacheSystem, options: &ReplayOptions) -> AppRunResult {
    let mut instance = SystemInstance::build(system, options);
    let total = trace.len();
    let sample_every = total
        .checked_div(options.timeline_samples)
        .map_or(usize::MAX, |every| every.max(1));
    let mut timeline = Vec::new();
    let mut last_stats = CacheStats::new();

    for (idx, request) in trace.iter().enumerate() {
        let size = request.size as u64;
        match request.op {
            Op::Get => {
                let hit = instance.get(request.key, size);
                if !hit {
                    // Demand fill, as in a look-aside cache.
                    instance.set(request.key, size);
                }
            }
            Op::Set => instance.set(request.key, size),
            Op::Delete => instance.delete(request.key),
        }
        if options.timeline_samples > 0 && (idx + 1) % sample_every == 0 {
            let stats = instance.stats();
            let interval_gets = stats.gets.saturating_sub(last_stats.gets);
            let interval_hits = stats.hits.saturating_sub(last_stats.hits);
            timeline.push(TimelinePoint {
                time: request.time,
                interval_hit_rate: if interval_gets == 0 {
                    0.0
                } else {
                    interval_hits as f64 / interval_gets as f64
                },
                cumulative_hit_rate: stats.hit_ratio().value(),
                class_targets: instance.class_targets(),
                class_used: instance.class_used(),
            });
            last_stats = stats;
        }
    }

    AppRunResult {
        stats: instance.stats(),
        class_stats: instance.class_stats(),
        final_class_targets: instance.class_targets(),
        timeline,
    }
}

/// Convenience: replay the same trace under several systems and return the
/// results in order.
pub fn replay_many(
    trace: &Trace,
    systems: &[CacheSystem],
    options: &ReplayOptions,
) -> Vec<AppRunResult> {
    systems
        .iter()
        .map(|s| replay_app(trace, s, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{AppProfile, Phase, SizeDistribution};

    fn zipf_trace(keys: u64, requests: u64) -> Trace {
        let profile = AppProfile::simple(
            1,
            "engine-test",
            1.0,
            4 << 20,
            Phase::zipf(keys, 1.0, SizeDistribution::Fixed(100)),
        );
        Trace::from_requests(profile.generate(requests, 3_600, 7))
    }

    #[test]
    fn replay_produces_hits_once_warm() {
        let trace = zipf_trace(2_000, 30_000);
        let options = ReplayOptions::new(2 << 20);
        let result = replay_app(&trace, &CacheSystem::default_lru(), &options);
        assert!(result.stats.gets > 0);
        assert!(
            result.hit_rate() > 0.5,
            "a comfortable cache should hit most of a Zipf stream, got {:.3}",
            result.hit_rate()
        );
        assert!(!result.class_stats.is_empty());
    }

    #[test]
    fn all_systems_replay_without_error() {
        let trace = zipf_trace(3_000, 20_000);
        let options = ReplayOptions::new(1 << 20);
        let systems = [
            CacheSystem::default_lru(),
            CacheSystem::Default(PolicyKind::Facebook),
            CacheSystem::GlobalLru,
            CacheSystem::StaticPlan {
                class_targets: vec![1 << 20; SlabConfig::default().num_classes()],
                policy: PolicyKind::Lru,
            },
            CacheSystem::cliffhanger(),
            CacheSystem::Cliffhanger {
                mode: CliffhangerMode::HillClimbingOnly,
                policy: PolicyKind::Lru,
            },
            CacheSystem::Cliffhanger {
                mode: CliffhangerMode::CliffScalingOnly,
                policy: PolicyKind::Facebook,
            },
        ];
        let results = replay_many(&trace, &systems, &options);
        assert_eq!(results.len(), systems.len());
        for (system, result) in systems.iter().zip(&results) {
            assert!(result.stats.gets > 0, "no GETs recorded for {system:?}");
            assert!(result.hit_rate() > 0.0, "no hits at all for {system:?}");
        }
    }

    #[test]
    fn more_memory_never_hurts_much() {
        let trace = zipf_trace(10_000, 30_000);
        let small = replay_app(
            &trace,
            &CacheSystem::default_lru(),
            &ReplayOptions::new(256 << 10),
        );
        let large = replay_app(
            &trace,
            &CacheSystem::default_lru(),
            &ReplayOptions::new(4 << 20),
        );
        assert!(large.hit_rate() >= small.hit_rate());
    }

    #[test]
    fn timeline_sampling_records_allocations() {
        let trace = zipf_trace(5_000, 20_000);
        let options = ReplayOptions::new(1 << 20).with_timeline(20);
        let result = replay_app(&trace, &CacheSystem::cliffhanger(), &options);
        assert!(
            result.timeline.len() >= 18,
            "got {} samples",
            result.timeline.len()
        );
        let first = result.timeline.first().unwrap();
        let last = result.timeline.last().unwrap();
        assert!(last.time >= first.time);
        assert_eq!(
            first.class_targets.len(),
            SlabConfig::default().num_classes()
        );
        // Cumulative hit rate should improve as the cache warms.
        assert!(last.cumulative_hit_rate >= first.cumulative_hit_rate);
    }

    #[test]
    fn deletes_are_honoured() {
        use cache_core::{AppId, Key};
        use workloads::Request;
        let mut trace = Trace::new();
        trace.push(Request::set(AppId::new(1), Key::new(1), 100, 0));
        trace.push(Request::get(AppId::new(1), Key::new(1), 100, 1));
        trace.push(Request {
            app: AppId::new(1),
            key: Key::new(1),
            size: 100,
            op: Op::Delete,
            time: 2,
        });
        trace.push(Request::get(AppId::new(1), Key::new(1), 100, 3));
        let result = replay_app(
            &trace,
            &CacheSystem::default_lru(),
            &ReplayOptions::new(1 << 20),
        );
        assert_eq!(result.stats.gets, 2);
        assert_eq!(result.stats.hits, 1);
        assert_eq!(result.stats.misses, 1);
    }
}
