//! Adapts the `workloads` crate's distributions into a wire-level request
//! stream: key ranks become byte-string keys, per-key deterministic sizes
//! become SET payload lengths, and the GET/SET mix follows the configured
//! fraction (the Facebook ETC mix by default, as in the paper's Mutilate
//! runs).

use crate::runner::OpSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::zipf::PopularitySampler;
use workloads::{KeyPopularity, SizeDistribution};

/// What traffic the generator produces.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Key-popularity model (Zipf by default, as in the paper's benchmarks).
    pub keys: KeyPopularity,
    /// Per-key deterministic value sizes.
    pub sizes: SizeDistribution,
    /// Fraction of GET requests (the rest are SETs).
    pub get_fraction: f64,
    /// Base seed; each worker derives an independent stream from it.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            keys: KeyPopularity::Zipf {
                num_keys: 50_000,
                exponent: 0.99,
            },
            // The published ETC fit, capped at 16 KB so the default run
            // exercises several slab classes without multi-megabyte values.
            sizes: SizeDistribution::GeneralizedPareto {
                location: 0.0,
                scale: 214.476,
                shape: 0.348_468,
                cap: 16 << 10,
            },
            get_fraction: 0.9,
            seed: 0x10AD_6E4E,
        }
    }
}

/// One application's slice of a multi-tenant run: a tenant name, a traffic
/// weight, and that tenant's own workload shape.
///
/// A multi-tenant run partitions the loadgen connections across the tenants
/// proportionally to their weights (each tenant keeps at least one
/// connection), and every connection selects its tenant's namespace with the
/// wire-level `app <name>` command before the measured window opens. The
/// `default` tenant skips the `app` command entirely, exercising the
/// backward-compatible path a pre-extension client takes.
#[derive(Clone, Debug)]
pub struct TenantLoad {
    /// The application name (`app <name>` on the wire; `default` sends no
    /// `app` command).
    pub name: String,
    /// Relative traffic weight: the share of connections and of the request
    /// budget this tenant receives. Must be at least 1.
    pub weight: u64,
    /// The tenant's workload shape (its own key popularity, sizes, mix).
    pub spec: WorkloadSpec,
}

impl TenantLoad {
    /// A tenant with the given name, weight and workload.
    pub fn new(name: impl Into<String>, weight: u64, spec: WorkloadSpec) -> TenantLoad {
        TenantLoad {
            name: name.into(),
            weight: weight.max(1),
            spec,
        }
    }
}

/// One generated request, before serialisation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenOp {
    /// Fetch a key.
    Get {
        /// Wire key.
        key: String,
    },
    /// Store a key with a payload of `size` bytes.
    Set {
        /// Wire key.
        key: String,
        /// Payload length in bytes.
        size: usize,
    },
}

impl GenOp {
    /// The wire key of this request.
    pub fn key(&self) -> &str {
        match self {
            GenOp::Get { key } | GenOp::Set { key, .. } => key,
        }
    }
}

/// A per-worker request generator (owns its RNG; no sharing, no locks).
pub struct RequestGen {
    sampler: PopularitySampler,
    sizes: SizeDistribution,
    get_fraction: f64,
    seed: u64,
    rng: StdRng,
}

impl RequestGen {
    /// Builds worker `worker_id`'s stream for the spec. Different workers
    /// sample the same popularity distribution through decorrelated RNGs.
    pub fn new(spec: &WorkloadSpec, worker_id: u64) -> RequestGen {
        RequestGen {
            sampler: spec.keys.sampler(),
            sizes: spec.sizes.clone(),
            get_fraction: spec.get_fraction.clamp(0.0, 1.0),
            seed: spec.seed,
            rng: StdRng::seed_from_u64(spec.seed ^ (worker_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
        }
    }

    /// The wire key for a rank.
    pub fn key_for_rank(rank: u64) -> String {
        format!("k{rank:013x}")
    }

    /// The rank a wire key encodes (inverse of
    /// [`RequestGen::key_for_rank`]), if it is one of ours.
    pub fn rank_for_key(key: &str) -> Option<u64> {
        u64::from_str_radix(key.strip_prefix('k')?, 16).ok()
    }

    /// The deterministic payload size for a rank.
    pub fn size_for_rank(&self, rank: u64) -> usize {
        self.sizes.size_for_key(rank, self.seed).max(1) as usize
    }
}

impl OpSource for RequestGen {
    fn next_op(&mut self) -> GenOp {
        let rank = self.sampler.sample(&mut self.rng);
        let key = Self::key_for_rank(rank);
        if self.rng.gen_bool(self.get_fraction) {
            GenOp::Get { key }
        } else {
            GenOp::Set {
                key,
                size: self.size_for_rank(rank),
            }
        }
    }

    fn fill_for(&self, rank: u64) -> GenOp {
        GenOp::Set {
            key: Self::key_for_rank(rank),
            size: self.size_for_rank(rank),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_round_trip_through_ranks() {
        for rank in [0u64, 1, 0xabc, u64::MAX >> 12] {
            let key = RequestGen::key_for_rank(rank);
            assert_eq!(RequestGen::rank_for_key(&key), Some(rank));
        }
        assert_eq!(RequestGen::rank_for_key("nope"), None);
        assert_eq!(RequestGen::rank_for_key("kzzz"), None);
    }

    #[test]
    fn sizes_are_deterministic_per_key() {
        let spec = WorkloadSpec::default();
        let a = RequestGen::new(&spec, 0);
        let b = RequestGen::new(&spec, 7);
        for rank in [0u64, 1, 99, 12_345] {
            assert_eq!(a.size_for_rank(rank), b.size_for_rank(rank));
            assert!(a.size_for_rank(rank) >= 1);
            assert!(a.size_for_rank(rank) <= 16 << 10);
        }
    }

    #[test]
    fn get_fraction_is_respected() {
        let spec = WorkloadSpec {
            get_fraction: 0.8,
            ..WorkloadSpec::default()
        };
        let mut g = RequestGen::new(&spec, 3);
        let gets = (0..20_000)
            .filter(|_| matches!(g.next_op(), GenOp::Get { .. }))
            .count();
        let fraction = gets as f64 / 20_000.0;
        assert!((fraction - 0.8).abs() < 0.02, "got {fraction}");
    }

    #[test]
    fn workers_draw_different_streams_from_the_same_spec() {
        let spec = WorkloadSpec::default();
        let mut a = RequestGen::new(&spec, 0);
        let mut b = RequestGen::new(&spec, 1);
        let a_keys: Vec<String> = (0..50).map(|_| a.next_op().key().to_string()).collect();
        let b_keys: Vec<String> = (0..50).map(|_| b.next_op().key().to_string()).collect();
        assert_ne!(a_keys, b_keys);
    }

    #[test]
    fn same_worker_id_is_reproducible() {
        let spec = WorkloadSpec::default();
        let mut a = RequestGen::new(&spec, 5);
        let mut b = RequestGen::new(&spec, 5);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn zipf_traffic_is_skewed_toward_low_ranks() {
        let spec = WorkloadSpec::default();
        let mut g = RequestGen::new(&spec, 0);
        let hot_key = RequestGen::key_for_rank(0);
        let hot = (0..20_000).filter(|_| g.next_op().key() == hot_key).count();
        // Rank 0 of a 0.99-exponent Zipf over 50k keys gets ~8% of traffic;
        // uniform would give 0.002%.
        assert!(hot > 200, "rank-0 traffic too low for Zipf: {hot}");
    }
}
