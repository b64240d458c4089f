//! Key-popularity samplers.
//!
//! Web cache workloads are strongly skewed: a small set of hot keys receives
//! most of the traffic. The standard model is a Zipf distribution over a
//! finite key universe; this module provides an exact CDF-based Zipf sampler
//! plus the uniform and hot-set variants used by individual experiments.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A popularity model over a key universe of `0..num_keys`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum KeyPopularity {
    /// Every key equally likely.
    Uniform {
        /// Universe size.
        num_keys: u64,
    },
    /// Zipf with exponent `s` (rank `r` has weight `1 / r^s`).
    Zipf {
        /// Universe size.
        num_keys: u64,
        /// Skew exponent; 0 degenerates to uniform, ~0.9–1.1 is typical for
        /// web caches.
        exponent: f64,
    },
    /// A fraction of requests goes to a small hot set, the rest is uniform
    /// over the remaining keys.
    HotSet {
        /// Universe size.
        num_keys: u64,
        /// Number of hot keys (must be <= num_keys).
        hot_keys: u64,
        /// Fraction of requests that target the hot set.
        hot_fraction: f64,
    },
}

impl KeyPopularity {
    /// The size of the key universe.
    pub fn num_keys(&self) -> u64 {
        match *self {
            KeyPopularity::Uniform { num_keys }
            | KeyPopularity::Zipf { num_keys, .. }
            | KeyPopularity::HotSet { num_keys, .. } => num_keys,
        }
    }

    /// Builds a sampler for this popularity model.
    pub fn sampler(&self) -> PopularitySampler {
        match *self {
            KeyPopularity::Uniform { num_keys } => PopularitySampler::Uniform { num_keys },
            KeyPopularity::Zipf { num_keys, exponent } => {
                PopularitySampler::Zipf(ZipfSampler::new(num_keys, exponent))
            }
            KeyPopularity::HotSet {
                num_keys,
                hot_keys,
                hot_fraction,
            } => PopularitySampler::HotSet {
                num_keys,
                hot_keys: hot_keys.min(num_keys).max(1),
                hot_fraction: hot_fraction.clamp(0.0, 1.0),
            },
        }
    }
}

/// A ready-to-use sampler built from a [`KeyPopularity`].
#[derive(Clone, Debug)]
pub enum PopularitySampler {
    /// Uniform sampler.
    Uniform {
        /// Universe size.
        num_keys: u64,
    },
    /// Zipf sampler with a precomputed CDF.
    Zipf(ZipfSampler),
    /// Hot-set sampler.
    HotSet {
        /// Universe size.
        num_keys: u64,
        /// Number of hot keys.
        hot_keys: u64,
        /// Fraction of requests to the hot set.
        hot_fraction: f64,
    },
}

impl PopularitySampler {
    /// Draws a key rank in `0..num_keys`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            PopularitySampler::Uniform { num_keys } => rng.gen_range(0..*num_keys.max(&1)),
            PopularitySampler::Zipf(z) => z.sample(rng),
            PopularitySampler::HotSet {
                num_keys,
                hot_keys,
                hot_fraction,
            } => {
                if rng.gen_bool(*hot_fraction) {
                    rng.gen_range(0..*hot_keys)
                } else if *num_keys > *hot_keys {
                    rng.gen_range(*hot_keys..*num_keys)
                } else {
                    rng.gen_range(0..*num_keys)
                }
            }
        }
    }
}

/// An exact Zipf sampler over ranks `0..n` using a precomputed CDF and
/// binary search (O(log n) per sample, O(n) memory).
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `num_keys` ranks with the given exponent.
    ///
    /// # Panics
    /// Panics if `num_keys == 0` or the exponent is negative.
    pub fn new(num_keys: u64, exponent: f64) -> Self {
        assert!(num_keys > 0, "the key universe must not be empty");
        assert!(exponent >= 0.0, "the Zipf exponent must be non-negative");
        let n = num_keys as usize;
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(exponent);
            cdf.push(total);
        }
        for v in cdf.iter_mut() {
            *v /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws a rank in `0..num_keys` (rank 0 is the most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("CDF values are finite"))
        {
            Ok(idx) => idx as u64,
            Err(idx) => idx.min(self.cdf.len() - 1) as u64,
        }
    }

    /// Probability mass of a rank (0-based).
    pub fn probability(&self, rank: u64) -> f64 {
        let idx = rank as usize;
        if idx >= self.cdf.len() {
            return 0.0;
        }
        if idx == 0 {
            self.cdf[0]
        } else {
            self.cdf[idx] - self.cdf[idx - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_probabilities_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(1_000, 1.0);
        let total: f64 = (0..1_000).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..1_000 {
            assert!(z.probability(r) <= z.probability(r - 1) + 1e-12);
        }
        assert_eq!(z.probability(5_000), 0.0);
    }

    #[test]
    fn zipf_sampling_matches_theory() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u64; 100];
        let samples = 200_000;
        for _ in 0..samples {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 should get ~1/H_100 = ~19.3% of requests.
        let top = counts[0] as f64 / samples as f64;
        assert!((top - 0.193).abs() < 0.02, "top popularity = {top}");
        // The top 10 ranks should dominate the bottom 50.
        let top10: u64 = counts[..10].iter().sum();
        let bottom50: u64 = counts[50..].iter().sum();
        assert!(top10 > 3 * bottom50);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(50, 0.0);
        for r in 0..50 {
            assert!((z.probability(r) - 0.02).abs() < 1e-9);
        }
    }

    #[test]
    fn hot_set_sampler_respects_fraction() {
        let pop = KeyPopularity::HotSet {
            num_keys: 10_000,
            hot_keys: 100,
            hot_fraction: 0.9,
        };
        let sampler = pop.sampler();
        let mut rng = StdRng::seed_from_u64(3);
        let mut hot = 0;
        let n = 50_000;
        for _ in 0..n {
            if sampler.sample(&mut rng) < 100 {
                hot += 1;
            }
        }
        let fraction = hot as f64 / n as f64;
        assert!((fraction - 0.9).abs() < 0.02, "hot fraction = {fraction}");
    }

    #[test]
    fn uniform_sampler_covers_the_universe() {
        let sampler = KeyPopularity::Uniform { num_keys: 8 }.sampler();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[sampler.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(KeyPopularity::Uniform { num_keys: 8 }.num_keys(), 8);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_universe_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
