//! Request and trace types.
//!
//! A [`Trace`] is an ordered sequence of [`Request`]s across applications.
//! Traces are deterministic functions of their generator configuration and a
//! seed, can be serialised to JSON-lines for inspection or reuse, and carry
//! the item size on every request (like the Memcachier trace analysis, which
//! needs the size to map requests onto slab classes).

use cache_core::{AppId, Key};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, Write};

/// The operation a request performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Read a key (a miss is typically followed by a demand-fill SET by the
    /// simulator, mirroring a look-aside cache).
    Get,
    /// Write a key (an application-initiated update).
    Set,
    /// Remove a key.
    Delete,
}

/// One cache request.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// The application issuing the request.
    pub app: AppId,
    /// The key being accessed.
    pub key: Key,
    /// The item's value size in bytes.
    pub size: u32,
    /// The operation.
    pub op: Op,
    /// Seconds since the start of the trace.
    pub time: u64,
}

impl Request {
    /// A GET request.
    pub fn get(app: AppId, key: Key, size: u32, time: u64) -> Self {
        Request {
            app,
            key,
            size,
            op: Op::Get,
            time,
        }
    }

    /// A SET request.
    pub fn set(app: AppId, key: Key, size: u32, time: u64) -> Self {
        Request {
            app,
            key,
            size,
            op: Op::Set,
            time,
        }
    }
}

/// An ordered sequence of requests.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The requests, ordered by time.
    pub requests: Vec<Request>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from requests (kept in the given order).
    pub fn from_requests(requests: Vec<Request>) -> Self {
        Trace { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Appends a request.
    pub fn push(&mut self, request: Request) {
        self.requests.push(request);
    }

    /// Iterates over the requests in order.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        self.requests.iter()
    }

    /// The span of the trace in seconds (last minus first timestamp).
    pub fn duration(&self) -> u64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.time.saturating_sub(first.time),
            _ => 0,
        }
    }

    /// Summary statistics.
    pub fn summary(&self) -> TraceSummary {
        let mut per_app: BTreeMap<AppId, u64> = BTreeMap::new();
        let mut gets = 0u64;
        let mut sets = 0u64;
        let mut deletes = 0u64;
        let mut distinct: HashSet<(AppId, Key)> = HashSet::new();
        let mut total_size: u128 = 0;
        for r in &self.requests {
            *per_app.entry(r.app).or_default() += 1;
            match r.op {
                Op::Get => gets += 1,
                Op::Set => sets += 1,
                Op::Delete => deletes += 1,
            }
            distinct.insert((r.app, r.key));
            total_size += r.size as u128;
        }
        TraceSummary {
            requests: self.requests.len() as u64,
            gets,
            sets,
            deletes,
            distinct_keys: distinct.len() as u64,
            mean_size: if self.requests.is_empty() {
                0.0
            } else {
                total_size as f64 / self.requests.len() as f64
            },
            duration: self.duration(),
            requests_per_app: per_app,
        }
    }

    /// Serialises the trace as JSON lines.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        for r in &self.requests {
            let line = serde_json::to_string(r)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            writeln!(writer, "{line}")?;
        }
        Ok(())
    }

    /// Reads a JSON-lines trace.
    pub fn read_jsonl<R: BufRead>(reader: R) -> std::io::Result<Trace> {
        let mut requests = Vec::new();
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let request: Request = serde_json::from_str(&line)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            requests.push(request);
        }
        Ok(Trace { requests })
    }
}

/// Aggregate statistics of a trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total requests.
    pub requests: u64,
    /// GET requests.
    pub gets: u64,
    /// SET requests.
    pub sets: u64,
    /// DELETE requests.
    pub deletes: u64,
    /// Number of distinct (app, key) pairs.
    pub distinct_keys: u64,
    /// Mean item size in bytes.
    pub mean_size: f64,
    /// Trace duration in seconds.
    pub duration: u64,
    /// Requests per application.
    pub requests_per_app: BTreeMap<AppId, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(Request::get(AppId::new(1), Key::new(10), 100, 0));
        t.push(Request::set(AppId::new(1), Key::new(10), 100, 1));
        t.push(Request::get(AppId::new(2), Key::new(20), 5_000, 2));
        t.push(Request {
            app: AppId::new(2),
            key: Key::new(21),
            size: 64,
            op: Op::Delete,
            time: 10,
        });
        t
    }

    #[test]
    fn summary_counts_everything() {
        let s = sample_trace().summary();
        assert_eq!(s.requests, 4);
        assert_eq!(s.gets, 2);
        assert_eq!(s.sets, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.distinct_keys, 3);
        assert_eq!(s.duration, 10);
        assert_eq!(s.requests_per_app[&AppId::new(1)], 2);
        assert_eq!(s.requests_per_app[&AppId::new(2)], 2);
        assert!((s.mean_size - (100.0 + 100.0 + 5_000.0 + 64.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let parsed = Trace::read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_rejects_garbage() {
        let input = b"\n\n".to_vec();
        assert!(Trace::read_jsonl(std::io::Cursor::new(input))
            .unwrap()
            .is_empty());
        let garbage = b"not json\n".to_vec();
        assert!(Trace::read_jsonl(std::io::Cursor::new(garbage)).is_err());
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), 0);
        let s = t.summary();
        assert_eq!(s.requests, 0);
        assert_eq!(s.mean_size, 0.0);
    }
}
