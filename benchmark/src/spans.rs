//! The span recorder of the traced run. Spans are recorded from the
//! benchmark's own files, around the calls into each layer; they stay in
//! memory and are written out as JSON lines when the run ends.
//!
//! Spans of one request share a `trace_id` (the operation's index in the
//! stream). A span names its parent; a span's self time is its duration
//! minus what its children cover.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type NameId = u16;
pub const NO_PARENT: NameId = NameId::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub trace_id: u32,
    pub name: NameId,
    pub parent: NameId,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations (and bytes) the calling thread made inside the
    /// span, when the counting allocator was armed for it.
    pub allocs: u32,
    pub alloc_bytes: u32,
}

pub struct Recorder {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Recorder {
    /// Room for `spans` spans, touched now: pages first written while the
    /// server runs would be charged to the server in the RSS delta.
    pub fn with_capacity(spans: usize) -> Recorder {
        let blank = Span {
            trace_id: 0,
            name: 0,
            parent: NO_PARENT,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        };
        let mut touched = vec![blank; spans];
        touched.clear();
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: touched,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The id of `name`, interning it on first use.
    pub fn name(&mut self, name: &'static str) -> NameId {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as NameId,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as NameId
            }
        }
    }

    pub fn record(&mut self, trace_id: u32, name: NameId, parent: NameId, start: u64, end: u64) {
        self.record_counted(trace_id, name, parent, (start, end), (0, 0));
    }

    pub fn record_counted(
        &mut self,
        trace_id: u32,
        name: NameId,
        parent: NameId,
        (start_ns, end_ns): (u64, u64),
        (allocs, alloc_bytes): (u64, u64),
    ) {
        self.spans.push(Span {
            trace_id,
            name,
            parent,
            start_ns,
            end_ns,
            allocs: allocs.min(u64::from(u32::MAX)) as u32,
            alloc_bytes: alloc_bytes.min(u64::from(u32::MAX)) as u32,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn named<'s>(&'s self, name: &str) -> impl Iterator<Item = &'s Span> + 's {
        let id = self.names.iter().position(|n| *n == name);
        self.spans
            .iter()
            .filter(move |s| Some(s.name as usize) == id)
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Over every span with one of `names`: how many there are, and the
    /// allocations and allocated bytes counted inside them.
    pub fn alloc_totals(&self, names: &[&str]) -> (f64, f64, f64) {
        let (mut spans, mut allocs, mut bytes) = (0.0, 0.0, 0.0);
        for name in names {
            for span in self.named(name) {
                spans += 1.0;
                allocs += f64::from(span.allocs);
                bytes += f64::from(span.alloc_bytes);
            }
        }
        (spans, allocs, bytes)
    }

    /// Self time of every span called `name`: its duration minus the
    /// duration of the spans of the same trace that name it as parent.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        let mut covered: HashMap<u32, u64> = HashMap::new();
        for child in self.spans.iter().filter(|s| s.parent as usize == id) {
            *covered.entry(child.trace_id).or_default() += child.end_ns - child.start_ns;
        }
        self.named(name)
            .map(|s| {
                let children = covered.get(&s.trace_id).copied().unwrap_or(0);
                (s.end_ns - s.start_ns).saturating_sub(children) as f64
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = match self.names.get(s.parent as usize) {
                Some(name) => format!("\"{name}\""),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"trace_id\":{},\"span\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                s.trace_id, self.names[s.name as usize], parent, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_of_the_same_trace() {
        let mut rec = Recorder::with_capacity(8);
        let request = rec.name("request");
        let write = rec.name("client.write");
        let wait = rec.name("client.wait_read");
        rec.record(1, request, NO_PARENT, 100, 200);
        rec.record(1, write, request, 110, 130);
        rec.record(1, wait, request, 130, 190);
        rec.record(2, request, NO_PARENT, 300, 350);
        rec.record(2, write, request, 300, 345);
        // Same name under another trace id must not be charged to trace 1.
        assert_eq!(rec.self_times("request"), vec![20.0, 5.0]);
        assert_eq!(rec.self_times("client.write"), vec![20.0, 45.0]);
        assert_eq!(rec.durations("client.wait_read"), vec![60.0]);
        assert!(rec.self_times("absent").is_empty());
    }

    #[test]
    fn allocation_counts_add_up_over_names() {
        let mut rec = Recorder::with_capacity(2);
        let parse = rec.name("protocol.parse_get");
        rec.record_counted(0, parse, NO_PARENT, (0, 10), (2, 64));
        rec.record_counted(1, parse, NO_PARENT, (10, 20), (4, 192));
        assert_eq!(
            rec.alloc_totals(&["protocol.parse_get", "absent"]),
            (2.0, 6.0, 256.0)
        );
    }
}
