//! The workload generator: SplitMix RNG, Zipf sampler, the ETC value-size
//! table, key spaces and the per-connection operation streams.
//!
//! Everything here is the benchmark's own (nothing is imported from the
//! repository's `loadgen` or `workloads` crates), so the inputs cannot
//! change under a later PR. The key population, its popularity ranking and
//! the per-key value sizes are fixed; `--seed` drives every random draw, so
//! one seed always yields one operation stream.

use crate::workload::{Pattern, Sizes, StreamSpec};

/// Largest value the generator emits (the ETC table is capped here).
pub const MAX_VALUE: usize = 4096;
/// Size of the random pool that value payloads are sliced from.
const POOL_BYTES: usize = 64 << 10;
/// Entries in the ETC value-size quantile table.
const ETC_TABLE: usize = 1024;

/// SplitMix64: a tiny, fast, well-mixed generator (Steele et al.).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform in `0..n` by multiply-shift (`n` must fit 32 bits).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// The SplitMix64 finaliser, used as a stateless hash of small integers.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(θ) over ranks `0..n` as a Walker/Vose alias table: one random word
/// and two loads per sample, whatever `n` is.
pub struct Zipf {
    /// Probability of keeping the drawn slot, scaled to `0..=u32::MAX`.
    keep: Vec<u32>,
    alias: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0 && n <= u32::MAX as usize);
        let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
        // Descending index order on both stacks keeps construction
        // deterministic and pairs the coldest slots with the hottest ranks.
        for i in (0..n).rev() {
            if scaled[i] < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        let mut keep = vec![u32::MAX; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            keep[s] = (scaled[s] * f64::from(u32::MAX)) as u32;
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        Zipf { keep, alias }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let word = rng.next_u64();
        let slot = (((word >> 32) * self.keep.len() as u64) >> 32) as usize;
        if (word as u32) <= self.keep[slot] {
            slot as u32
        } else {
            self.alias[slot]
        }
    }
}

/// Value sizes of Facebook's ETC pool (Atikoglu et al., SIGMETRICS '12): a
/// generalized Pareto distribution with θ = 0, σ = 214.476, k = 0.348238,
/// tabulated as equally likely quantiles and capped at [`MAX_VALUE`].
pub fn etc_value_sizes() -> Vec<u16> {
    const SIGMA: f64 = 214.476;
    const K: f64 = 0.348_238;
    (0..ETC_TABLE)
        .map(|i| {
            let u = (i as f64 + 0.5) / ETC_TABLE as f64;
            let x = SIGMA / K * ((1.0 - u).powf(-K) - 1.0);
            (x.round() as usize).clamp(1, MAX_VALUE) as u16
        })
        .collect()
}

/// The key names of one connection, packed into one buffer.
pub struct KeySpace {
    names: Vec<u8>,
    offsets: Vec<u32>,
}

impl KeySpace {
    fn build(spec: &StreamSpec) -> KeySpace {
        let mut names = Vec::new();
        let mut offsets = vec![0u32];
        let mut push = |prefix: &str, id: usize| {
            names.extend_from_slice(format!("{prefix}{id:012}").as_bytes());
            offsets.push(names.len() as u32);
        };
        match spec.pattern {
            Pattern::Zipf { keys, .. } => {
                for local in 0..keys {
                    push(spec.prefix, local * spec.stride + spec.offset);
                }
            }
            Pattern::ScanMix {
                scan_keys,
                hot_keys,
                ..
            } => {
                for i in 0..scan_keys {
                    push("scan:", i);
                }
                for i in 0..hot_keys {
                    push("hot:", i);
                }
            }
        }
        KeySpace { names, offsets }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn name(&self, key: u32) -> &[u8] {
        let k = key as usize;
        &self.names[self.offsets[k] as usize..self.offsets[k + 1] as usize]
    }
}

/// Everything one connection's stream needs that does not change while it
/// runs. Built (and so touched) before the RSS baseline is taken.
pub struct ConnInputs {
    pub spec: StreamSpec,
    pub keys: KeySpace,
    zipf: Option<Zipf>,
    /// The value size each key is filled with (`Fixed` and `EtcPerKey`).
    fill_len: Vec<u16>,
}

/// The generated inputs of one workload.
pub struct Inputs {
    pub conns: Vec<ConnInputs>,
    etc: Vec<u16>,
    pool: Vec<u8>,
}

impl Inputs {
    pub fn generate(streams: &[StreamSpec]) -> Inputs {
        let etc = etc_value_sizes();
        // The pool's content only has to differ between offsets; it is not
        // part of the seeded stream.
        let mut pool_rng = SplitMix64::new(0x5EED_0FB1_7E55);
        let pool: Vec<u8> = (0..(POOL_BYTES + MAX_VALUE) / 8)
            .flat_map(|_| pool_rng.next_u64().to_le_bytes())
            .collect();
        let conns = streams
            .iter()
            .map(|spec| {
                let keys = KeySpace::build(spec);
                let zipf = match spec.pattern {
                    Pattern::Zipf { keys, theta } => Some(Zipf::new(keys, theta)),
                    Pattern::ScanMix { .. } => None,
                };
                let fill_len = (0..keys.len())
                    .map(|local| match spec.sizes {
                        Sizes::Fixed(n) => n as u16,
                        Sizes::EtcPerKey | Sizes::EtcRedraw => {
                            let id = (local * spec.stride + spec.offset) as u64;
                            etc[(mix64(id ^ 0xE7C) % ETC_TABLE as u64) as usize]
                        }
                    })
                    .collect();
                ConnInputs {
                    spec: spec.clone(),
                    keys,
                    zipf,
                    fill_len,
                }
            })
            .collect();
        Inputs { conns, etc, pool }
    }

    /// The payload of `key` at `version`: a slice of the pool whose offset
    /// depends on both, so a stale or foreign value never compares equal.
    pub fn value(&self, conn: usize, key: u32, version: u32, len: u32) -> &[u8] {
        let tag = (conn as u64) << 56 | u64::from(key) << 24 | u64::from(version & 0xFF_FFFF);
        let at = (mix64(tag) % POOL_BYTES as u64) as usize;
        &self.pool[at..at + len as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Delete,
}

/// One generated operation: what to do to which key of the connection, and
/// for a SET how many value bytes to write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
    pub len: u32,
}

/// One connection's operation stream: a pure function of (inputs, seed).
pub struct Stream<'a> {
    inputs: &'a Inputs,
    conn: &'a ConnInputs,
    rng: SplitMix64,
    cursor: u32,
}

impl<'a> Stream<'a> {
    pub fn new(inputs: &'a Inputs, conn: usize, seed: u64) -> Stream<'a> {
        Stream {
            inputs,
            conn: &inputs.conns[conn],
            rng: SplitMix64::new(seed ^ mix64(conn as u64 + 1)),
            cursor: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let spec = &self.conn.spec;
        let key = match spec.pattern {
            Pattern::Zipf { .. } => self
                .conn
                .zipf
                .as_ref()
                .expect("Zipf table exists for a Zipf pattern")
                .sample(&mut self.rng),
            Pattern::ScanMix {
                scan_keys,
                hot_keys,
                scan_permille,
            } => {
                if self.rng.below(1000) < scan_permille {
                    let key = self.cursor;
                    self.cursor = (self.cursor + 1) % scan_keys as u32;
                    key
                } else {
                    scan_keys as u32 + self.rng.below(hot_keys as u32)
                }
            }
        };
        let roll = self.rng.below(1000);
        let kind = if roll < spec.get_permille {
            Kind::Get
        } else if roll < spec.get_permille + spec.set_permille {
            Kind::Set
        } else {
            Kind::Delete
        };
        let len = match (kind, spec.sizes) {
            (Kind::Set, Sizes::EtcRedraw) => {
                u32::from(self.inputs.etc[self.rng.below(ETC_TABLE as u32) as usize])
            }
            (Kind::Set, _) => self.fill_len(key),
            _ => 0,
        };
        Op { kind, key, len }
    }

    /// The value size `key` is (re)filled with.
    pub fn fill_len(&self, key: u32) -> u32 {
        u32::from(self.conn.fill_len[key as usize])
    }

    /// Keys to store before the warm-up, coldest first so that the cache's
    /// recency order starts out matching popularity (for a scan: in scan
    /// order, after the hot keys).
    pub fn preload_order(&self) -> Vec<u32> {
        match self.conn.spec.pattern {
            Pattern::Zipf { keys, .. } => (0..self.conn.spec.preload_top.min(keys) as u32)
                .rev()
                .collect(),
            Pattern::ScanMix {
                scan_keys,
                hot_keys,
                ..
            } => (scan_keys..scan_keys + hot_keys)
                .chain(0..scan_keys)
                .map(|k| k as u32)
                .collect(),
        }
    }
}

/// FNV-1a over the first `ops` operations of every connection's stream: two
/// generations of one seed must hash identically.
pub fn stream_hash(inputs: &Inputs, seed: u64, ops: usize) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for conn in 0..inputs.conns.len() {
        let mut stream = Stream::new(inputs, conn, seed);
        for _ in 0..ops {
            let op = stream.next_op();
            for word in [op.kind as u64, u64::from(op.key), u64::from(op.len)] {
                hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn zipf_alias_table_matches_the_distribution() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = SplitMix64::new(7);
        let mut counts = vec![0u32; 1000];
        let draws = 2_000_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let norm: f64 = (1..=1000).map(|k| (k as f64).powf(-0.99)).sum();
        for rank in [0usize, 1, 9, 99, 999] {
            let expect = ((rank + 1) as f64).powf(-0.99) / norm;
            let got = f64::from(counts[rank]) / f64::from(draws);
            assert!(
                (got - expect).abs() < 0.1 * expect + 1e-4,
                "rank {rank}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let zipf = Zipf::new(5000, 0.9);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn etc_table_is_fixed_capped_and_skewed() {
        let table = etc_value_sizes();
        assert_eq!(table, etc_value_sizes());
        assert!(table.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*table.last().unwrap() as usize, MAX_VALUE);
        let median = table[table.len() / 2];
        assert!(
            (150..=200).contains(&median),
            "GPD median ≈ 168, got {median}"
        );
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        for spec in workload::all() {
            let inputs = Inputs::generate(&spec.streams);
            assert_eq!(
                stream_hash(&inputs, 42, 5000),
                stream_hash(&inputs, 42, 5000),
                "{}",
                spec.name
            );
            assert_ne!(
                stream_hash(&inputs, 42, 5000),
                stream_hash(&inputs, 43, 5000),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn values_differ_between_versions_and_keys() {
        let spec = workload::by_name("hot_local").unwrap();
        let inputs = Inputs::generate(&spec.streams);
        assert_ne!(inputs.value(0, 1, 1, 64), inputs.value(0, 1, 2, 64));
        assert_ne!(inputs.value(0, 1, 1, 64), inputs.value(0, 2, 1, 64));
        assert_ne!(inputs.value(0, 1, 1, 64), inputs.value(1, 1, 1, 64));
        assert_eq!(inputs.value(0, 1, 1, 64), inputs.value(0, 1, 1, 64));
    }
}
