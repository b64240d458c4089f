//! The five workloads: server shape, traffic mix and the reason each one is
//! in the set. The numbers here are the benchmark's definition; changing
//! one is a benchmark change, not an optimisation.

use cache_server::{BackendConfig, ServerConfig, TenantSpec};

/// How a connection picks the key of its next operation.
#[derive(Clone, Copy, Debug)]
pub enum Pattern {
    /// Zipf(θ) over `keys` keys; rank 0 is the most popular.
    Zipf { keys: usize, theta: f64 },
    /// `scan_permille` of operations walk `scan_keys` keys cyclically, the
    /// rest pick one of `hot_keys` keys uniformly.
    ScanMix {
        scan_keys: usize,
        hot_keys: usize,
        scan_permille: u32,
    },
}

/// Where SET value sizes come from.
#[derive(Clone, Copy, Debug)]
pub enum Sizes {
    /// Every value has this many bytes.
    Fixed(u32),
    /// Each key has one size, drawn from the ETC table by key id.
    EtcPerKey,
    /// Each overwrite draws a new size from the ETC table, so items migrate
    /// between slab classes.
    EtcRedraw,
}

/// What the load generator's own work on one connection costs on the
/// reference machine (the seed's VM at a quiet moment), in CPU ns of the
/// client thread. The benchmark times the same work while it measures, and
/// the ratio says how fast the machine is at that moment; see
/// `harness::Speed`. These are constants of the benchmark: they set the scale
/// of the time metrics and must not follow the code under test.
#[derive(Clone, Copy, Debug)]
pub struct Yardstick {
    /// Per operation: generating, encoding and sending one closed-loop batch
    /// (work that does not depend on what the server does with it).
    pub send_ns: f64,
    /// Per request of the open-loop phase: generate, encode, send, receive
    /// and check, one request in flight.
    pub request_ns: f64,
}

/// The traffic of one connection.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// Application namespace selected with `app <name>`; `None` stays in
    /// the default namespace.
    pub tenant: Option<&'static str>,
    pub prefix: &'static str,
    pub pattern: Pattern,
    /// Key ids are `local * stride + offset`, which partitions one key
    /// population between connections: each client alone writes its keys,
    /// so it knows the last acknowledged version of every one of them.
    pub stride: usize,
    pub offset: usize,
    pub get_permille: u32,
    /// DELETE takes what GET and SET leave of 1000.
    pub set_permille: u32,
    pub sizes: Sizes,
    /// Cache-aside: a GET miss is followed by a SET of that key.
    pub fill_on_miss: bool,
    /// How many of the most popular keys are stored before the warm-up.
    pub preload_top: usize,
    pub yardstick: Yardstick,
}

/// One workload.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub loops: usize,
    pub shards: usize,
    pub budget_mb: u64,
    /// One entry per client connection (and client thread).
    pub streams: Vec<StreamSpec>,
    /// Requests in flight per connection in the closed-loop phases.
    pub pipeline: usize,
    /// Offered rate of the open-loop phase, summed over connections.
    pub paced_rps: u64,
    /// Untimed operations per connection between preload and the first
    /// timed operation, so that the allocators have settled.
    pub warmup_ops: usize,
}

impl Spec {
    /// The server configuration this workload runs against: the default
    /// allocator (`BackendMode::Cliffhanger`) with hot-key promotion off.
    pub fn server_config(&self) -> ServerConfig {
        let mut tenants: Vec<&str> = self.streams.iter().filter_map(|s| s.tenant).collect();
        tenants.dedup();
        ServerConfig {
            workers: self.loops,
            backend: BackendConfig {
                total_bytes: self.budget_mb << 20,
                shards: self.shards,
                tenants: tenants.iter().map(|t| TenantSpec::new(*t, 1)).collect(),
                ..BackendConfig::default()
            },
            ..ServerConfig::default()
        }
    }
}

fn hot_streams(yardstick: Yardstick) -> Vec<StreamSpec> {
    (0..2)
        .map(|offset| StreamSpec {
            tenant: None,
            prefix: "hot:",
            pattern: Pattern::Zipf {
                keys: 25_000,
                theta: 0.99,
            },
            stride: 2,
            offset,
            get_permille: 900,
            set_permille: 100,
            sizes: Sizes::Fixed(256),
            fill_on_miss: false,
            preload_top: 25_000,
            yardstick,
        })
        .collect()
}

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "hot_local",
            // Why: working set fits and every op is local: parse, encode, syscalls and index probes do all the work.
            loops: 1,
            shards: 1,
            budget_mb: 64,
            streams: hot_streams(Yardstick {
                send_ns: 150.0,
                request_ns: 3800.0,
            }),
            pipeline: 32,
            paced_rps: 20_000,
            warmup_ops: 40_000,
        },
        Spec {
            name: "hot_remote",
            // Why: hot_local's traffic on 2 loops x 2 shards: half the ops park and cross the mailbox, so the hop dominates.
            loops: 2,
            shards: 2,
            budget_mb: 64,
            streams: hot_streams(Yardstick {
                send_ns: 200.0,
                request_ns: 4000.0,
            }),
            pipeline: 32,
            paced_rps: 20_000,
            warmup_ops: 40_000,
        },
        Spec {
            name: "etc_pressure",
            // Why: two tenants, working set far above 32 MB: evictions, shadow queues and the balancers set the hit rate.
            loops: 1,
            shards: 2,
            budget_mb: 32,
            streams: vec![
                StreamSpec {
                    tenant: Some("etc"),
                    prefix: "etc:",
                    pattern: Pattern::Zipf {
                        keys: 400_000,
                        theta: 0.9,
                    },
                    stride: 1,
                    offset: 0,
                    get_permille: 900,
                    set_permille: 100,
                    sizes: Sizes::EtcPerKey,
                    fill_on_miss: true,
                    preload_top: 100_000,
                    yardstick: Yardstick {
                        send_ns: 290.0,
                        request_ns: 4100.0,
                    },
                },
                StreamSpec {
                    tenant: Some("small"),
                    prefix: "small:",
                    pattern: Pattern::Zipf {
                        keys: 20_000,
                        theta: 1.1,
                    },
                    stride: 1,
                    offset: 0,
                    get_permille: 900,
                    set_permille: 100,
                    sizes: Sizes::Fixed(128),
                    fill_on_miss: true,
                    preload_top: 20_000,
                    yardstick: Yardstick {
                        send_ns: 155.0,
                        request_ns: 3800.0,
                    },
                },
            ],
            pipeline: 32,
            paced_rps: 15_000,
            warmup_ops: 300_000,
        },
        Spec {
            name: "write_churn",
            // Why: half the ops write and each overwrite changes slab class: a GET gain bought with SET or evict cost shows here.
            loops: 1,
            shards: 1,
            budget_mb: 32,
            streams: (0..2)
                .map(|offset| StreamSpec {
                    tenant: None,
                    prefix: "churn:",
                    pattern: Pattern::Zipf {
                        keys: 100_000,
                        theta: 0.7,
                    },
                    stride: 2,
                    offset,
                    get_permille: 500,
                    set_permille: 450,
                    sizes: Sizes::EtcRedraw,
                    fill_on_miss: false,
                    preload_top: 100_000,
                    yardstick: Yardstick {
                        send_ns: 390.0,
                        request_ns: 4200.0,
                    },
                })
                .collect(),
            pipeline: 32,
            paced_rps: 15_000,
            warmup_ops: 200_000,
        },
        Spec {
            name: "cliff_scan",
            // Why: cyclic scan just above what plain LRU holds: only cliff scaling lifts the hit rate off the LRU floor.
            loops: 1,
            shards: 1,
            budget_mb: 10,
            streams: vec![StreamSpec {
                tenant: None,
                prefix: "",
                pattern: Pattern::ScanMix {
                    scan_keys: 19_000,
                    hot_keys: 2_000,
                    scan_permille: 850,
                },
                stride: 1,
                offset: 0,
                get_permille: 1000,
                set_permille: 0,
                sizes: Sizes::Fixed(400),
                fill_on_miss: true,
                preload_top: 0,
                yardstick: Yardstick {
                    send_ns: 145.0,
                    request_ns: 3300.0,
                },
            }],
            pipeline: 16,
            paced_rps: 8_000,
            warmup_ops: 450_000,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}
