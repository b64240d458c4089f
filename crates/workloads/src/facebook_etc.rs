//! Facebook-ETC-like micro-benchmark workloads (paper §5.1, §5.6).
//!
//! The paper stresses its implementation with Mutilate, a load generator
//! that replays the key/value-size and GET/SET distributions measured in the
//! Facebook ETC pool (Atikoglu et al., SIGMETRICS 2012). This module
//! generates that workload; the paper's all-miss worst case for Tables 6–7
//! is built by `bench::overhead`.

use crate::sizes::SizeDistribution;
use crate::trace::{Op, Request, Trace};
use crate::zipf::ZipfSampler;
use cache_core::{AppId, Key};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the ETC-like workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EtcConfig {
    /// Application id attached to the requests.
    pub app: AppId,
    /// Number of distinct keys.
    pub num_keys: u64,
    /// Zipf exponent of key popularity (the ETC pool is strongly skewed).
    pub zipf_exponent: f64,
    /// Fraction of GET requests; the paper's Table 7 uses 96.7% / 3.3% as
    /// the Facebook ratio, plus 50/50 and 10/90 sweeps.
    pub get_fraction: f64,
    /// Value-size distribution (defaults to the published ETC fit).
    pub sizes: SizeDistribution,
    /// Seed for the request stream.
    pub seed: u64,
}

impl Default for EtcConfig {
    fn default() -> Self {
        EtcConfig {
            app: AppId::new(0),
            num_keys: 100_000,
            zipf_exponent: 0.99,
            get_fraction: 0.967,
            sizes: SizeDistribution::facebook_etc(),
            seed: 0xE7C0_FFEE,
        }
    }
}

impl EtcConfig {
    /// The GET/SET mixes of the paper's Table 7.
    pub fn table7_mixes() -> [(f64, f64); 3] {
        [(0.967, 0.033), (0.5, 0.5), (0.1, 0.9)]
    }
}

/// Generates an ETC-like trace of `requests` requests.
pub fn etc_workload(config: &EtcConfig, requests: u64) -> Trace {
    let zipf = ZipfSampler::new(config.num_keys.max(1), config.zipf_exponent.max(0.0));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut trace = Trace::new();
    for i in 0..requests {
        let rank = zipf.sample(&mut rng);
        let key = Key::new(rank);
        let size = config
            .sizes
            .size_for_key(rank, config.seed)
            .min(u32::MAX as u64) as u32;
        let op = if rng.gen_bool(config.get_fraction) {
            Op::Get
        } else {
            Op::Set
        };
        trace.push(Request {
            app: config.app,
            key,
            size,
            op,
            time: i,
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etc_mix_matches_configuration() {
        let config = EtcConfig::default();
        let trace = etc_workload(&config, 50_000);
        assert_eq!(trace.len(), 50_000);
        let gets = trace.iter().filter(|r| r.op == Op::Get).count() as f64;
        let fraction = gets / trace.len() as f64;
        assert!((fraction - 0.967).abs() < 0.01, "GET fraction = {fraction}");
        // Popularity is skewed: the most popular key dominates.
        let mut counts = std::collections::HashMap::new();
        for r in trace.iter() {
            *counts.entry(r.key).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 1_000, "hot key should be very hot, got {max}");
    }

    #[test]
    fn etc_sizes_follow_the_distribution() {
        let trace = etc_workload(&EtcConfig::default(), 20_000);
        let small = trace.iter().filter(|r| r.size <= 512).count();
        let large = trace.iter().filter(|r| r.size > 4_096).count();
        assert!(small > large, "most ETC values are small");
        assert!(trace.iter().all(|r| r.size >= 1));
    }

    #[test]
    fn table7_mixes_are_the_papers() {
        let mixes = EtcConfig::table7_mixes();
        assert_eq!(mixes[0], (0.967, 0.033));
        assert_eq!(mixes[1], (0.5, 0.5));
        assert_eq!(mixes[2], (0.1, 0.9));
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = etc_workload(&EtcConfig::default(), 5_000);
        let b = etc_workload(&EtcConfig::default(), 5_000);
        assert_eq!(a, b);
    }
}
