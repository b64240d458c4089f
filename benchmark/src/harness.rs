//! One workload run: start the server in-process, connect the clients,
//! preload and warm up, then the closed-loop capacity phase and the
//! open-loop paced phase, with `/proc` sampled at every phase edge.
//!
//! This file touches the server only through `CacheServer::start`,
//! `local_addr` and `shutdown`, the config structs and the wire protocol.

use crate::client::{PacedLog, Tally, Worker};
use crate::gen::Inputs;
use crate::maths::{percentile, WINDOW_NS};
use crate::procfs::{self, Snapshot};
use crate::workload::{Spec, Yardstick};
use cache_server::CacheServer;
use std::io;
use std::time::{Duration, Instant};

pub struct Harness<'a> {
    pub spec: &'a Spec,
    pub server: CacheServer,
    pub workers: Vec<Worker<'a>>,
    /// Server start + connect + preload + warm-up: CPU seconds of the whole
    /// process, which on the one pinned CPU is the wall time less whatever
    /// the hypervisor or another process took.
    pub setup_cpu_s: f64,
    /// The machine's speed during the warm-up.
    pub setup_speed: Speed,
}

/// The machine's speed during a phase, relative to the machine the
/// workloads' [`Yardstick`]s were measured on.
///
/// The yardstick is the load generator itself. What a client thread does to
/// send a batch (or, with one request in flight, to make a whole request) is
/// the same work whatever the server does, and it runs on the same CPU as
/// the server, interleaved with it every few tens of µs; so when a neighbour
/// on the host slows this CPU down, both slow down together. Per connection
/// the median CPU time of that work is compared with the reference; the
/// connections' ratios are averaged.
#[derive(Clone, Debug)]
pub struct Speed {
    /// 1 is as fast as the reference machine, 0.5 half as fast. A time
    /// multiplied by it is that time on the reference machine.
    pub factor: f64,
    /// The median yardstick sample of each connection, in CPU ns.
    pub cost_ns: Vec<f64>,
}

/// What one closed-loop phase measured.
pub struct Capacity {
    pub tally: Tally,
    pub wall_s: f64,
    /// CPU seconds of the whole process (clients and server) in the phase.
    pub cpu_s: f64,
    /// The machine's speed during the phase.
    pub speed: Speed,
    pub before: Snapshot,
    pub after: Snapshot,
    /// CPU time the client threads used, if the sandbox shows it.
    pub client_cpu_ns: Result<u64, String>,
}

/// What one open-loop phase measured.
pub struct Paced {
    /// All connections' records together.
    pub log: PacedLog,
    pub tally: Tally,
    /// The machine's speed during the phase.
    pub speed: Speed,
}

/// Runs `work` once per worker, each on its own named thread, and returns
/// the results in worker order together with the threads' own CPU time.
fn on_client_threads<'a, T: Send>(
    workers: &mut [Worker<'a>],
    work: impl Fn(usize, &mut Worker<'a>) -> T + Sync,
) -> (Vec<T>, Result<u64, String>) {
    let work = &work;
    let results: Vec<(T, Result<u64, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(i, worker)| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(scope, move || {
                        let before = procfs::this_thread();
                        let out = work(i, worker);
                        let after = procfs::this_thread();
                        let cpu = match (before.cpu_ns, after.cpu_ns) {
                            (Some(a), Some(b)) => Ok(b.saturating_sub(a)),
                            _ => Err(after.hidden.join("; ")),
                        };
                        (out, cpu)
                    })
                    .expect("spawning a client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut cpu = Ok(0u64);
    let mut outs = Vec::with_capacity(results.len());
    for (out, thread_cpu) in results {
        cpu = match (cpu, thread_cpu) {
            (Ok(a), Ok(b)) => Ok(a + b),
            (Err(why), _) | (_, Err(why)) => Err(why),
        };
        outs.push(out);
    }
    (outs, cpu)
}

/// The speed since the last call; `reference` picks the yardstick the
/// phase's samples are of.
fn take_speed(workers: &mut [Worker<'_>], reference: fn(&Yardstick) -> f64) -> Speed {
    let cost_ns: Vec<f64> = workers
        .iter_mut()
        .map(|w| percentile(&mut w.take_yardstick(), 0.5).map_or(f64::NAN, f64::from))
        .collect();
    let ratios = workers
        .iter()
        .zip(&cost_ns)
        .map(|(w, ns)| reference(&w.spec().yardstick) / ns);
    Speed {
        factor: ratios.sum::<f64>() / cost_ns.len() as f64,
        cost_ns,
    }
}

impl<'a> Harness<'a> {
    /// Everything up to the first timed operation.
    pub fn setup(spec: &'a Spec, inputs: &'a Inputs, seed: u64) -> io::Result<Harness<'a>> {
        let begun = procfs::process_cpu_ns();
        let server = CacheServer::start(spec.server_config())?;
        let mut workers = Vec::with_capacity(spec.streams.len());
        for index in 0..spec.streams.len() {
            workers.push(Worker::connect(inputs, index, seed, server.local_addr())?);
        }
        let (warmed, _) = on_client_threads(&mut workers, |_, w| {
            w.preload_and_warm(spec.warmup_ops, spec.pipeline)
        });
        warmed.into_iter().collect::<io::Result<()>>()?;
        let setup_cpu_s = (procfs::process_cpu_ns() - begun) as f64 / 1e9;
        let setup_speed = take_speed(&mut workers, |y| y.send_ns);
        Ok(Harness {
            spec,
            server,
            workers,
            setup_cpu_s,
            setup_speed,
        })
    }

    pub fn tally(&self) -> Tally {
        let mut total = Tally::default();
        for w in &self.workers {
            total.add(&w.tally);
        }
        total
    }

    /// Closed loop at the workload's pipeline depth for `seconds`.
    pub fn capacity(&mut self, seconds: f64) -> Capacity {
        let length = Duration::from_secs_f64(seconds);
        let pipeline = self.spec.pipeline;
        let earlier = self.tally();
        let before = procfs::snapshot();
        let cpu_before = procfs::process_cpu_ns();
        let start = Instant::now();
        let (_, client_cpu_ns) = on_client_threads(&mut self.workers, |_, w| {
            w.closed_loop(start, length, pipeline)
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = (procfs::process_cpu_ns() - cpu_before) as f64 / 1e9;
        let after = procfs::snapshot();
        Capacity {
            tally: self.tally().since(&earlier),
            wall_s,
            cpu_s,
            speed: take_speed(&mut self.workers, |y| y.send_ns),
            before,
            after,
            client_cpu_ns,
        }
    }

    /// Open loop at the workload's rate for `seconds`, the connections'
    /// schedules interleaved.
    pub fn paced(&mut self, seconds: f64) -> Paced {
        let conns = self.workers.len() as u64;
        let interval_ns = 1_000_000_000 * conns / self.spec.paced_rps;
        let count = (seconds * 1e9) as u64 / interval_ns;
        // A phase shorter than a window is one window.
        let whole = ((seconds * 1e9) as u64 / WINDOW_NS).max(1) as usize;
        let earlier = self.tally();
        let start = Instant::now();
        let (per_conn, _) = on_client_threads(&mut self.workers, |i, w| {
            let mut log = PacedLog::new(whole);
            let offset_ns = interval_ns * i as u64 / conns;
            w.paced(start, (offset_ns, interval_ns, count), &mut log);
            log
        });
        let mut log = PacedLog::new(whole);
        for conn in per_conn {
            log.merge(conn);
        }
        Paced {
            log,
            tally: self.tally().since(&earlier),
            speed: take_speed(&mut self.workers, |y| y.request_ns),
        }
    }

    pub fn shutdown(mut self) {
        self.server.shutdown();
    }
}

/// CPU seconds of the server's threads (`cache-*`) across a phase.
pub fn server_cpu_s(phase: &Capacity) -> Result<f64, String> {
    procfs::delta(&phase.before, &phase.after, "cache-", |t| t.cpu_ns).map(|ns| ns as f64 / 1e9)
}

/// The counters of the server's public `stats json` document that the
/// per-layer metrics and `--check` use.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    pub cmd_get: u64,
    pub get_hits: u64,
    pub cmd_set: u64,
    pub evictions: u64,
    /// Bytes the server accounts as used.
    pub bytes: u64,
    pub local_ops: u64,
    pub remote_ops: u64,
    pub shard_transfers: u64,
    pub tenant_transfers: u64,
    pub shadow_hits: u64,
    /// `(name, cmd_get, get_hits)` per tenant.
    pub tenants: Vec<(String, u64, u64)>,
}

impl ServerStats {
    /// Scrapes the document over `worker`'s connection, which must have
    /// nothing in flight.
    pub fn scrape(worker: &mut Worker<'_>) -> Result<ServerStats, String> {
        let text = worker
            .stats_json()
            .map_err(|e| format!("stats json: {e}"))?;
        let doc: serde_json::Value =
            serde_json::from_str(&text).map_err(|e| format!("stats json: {e}"))?;
        let count = |section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(serde_json::Value::as_u64)
                .ok_or(format!("stats json: no {section}.{key}"))
        };
        let tenants = doc
            .get("tenants")
            .and_then(serde_json::Value::as_array)
            .ok_or("stats json: no tenants")?;
        let of =
            |t: &serde_json::Value, key: &str| t.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
        Ok(ServerStats {
            cmd_get: count("counters", "cmd_get")?,
            get_hits: count("counters", "get_hits")?,
            cmd_set: count("counters", "cmd_set")?,
            evictions: count("counters", "evictions")?,
            bytes: count("counters", "bytes")?,
            local_ops: count("plane", "local_ops")?,
            remote_ops: count("plane", "remote_ops")?,
            shard_transfers: count("balance", "rebalance_transfers")?,
            tenant_transfers: count("balance", "arbiter_transfers")?,
            shadow_hits: tenants.iter().map(|t| of(t, "shadow_hits")).sum(),
            tenants: tenants
                .iter()
                .map(|t| {
                    let name = t.get("name").and_then(|n| n.as_str()).unwrap_or("");
                    (name.to_string(), of(t, "cmd_get"), of(t, "get_hits"))
                })
                .collect(),
        })
    }

    /// Share of operations that crossed to another loop's shard.
    pub fn remote_share(&self, earlier: &ServerStats) -> f64 {
        let remote = self.remote_ops - earlier.remote_ops;
        let all = remote + self.local_ops - earlier.local_ops;
        remote as f64 / all.max(1) as f64
    }

    pub fn evictions_per_set(&self, earlier: &ServerStats) -> f64 {
        (self.evictions - earlier.evictions) as f64 / (self.cmd_set - earlier.cmd_set).max(1) as f64
    }
}
