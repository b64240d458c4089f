//! Results: the `workload name value unit` table, the one-line JSON object
//! the driver reads, the `--out` document that collects runs, the metric
//! catalogue declared in `BENCHMARK.json`, and `--compare`.

use crate::maths;
use crate::procfs;
use serde_json::Value;
use std::path::Path;

/// One measured metric. A value the sandbox hides is `Err(reason)`: it
/// prints as `null` with the reason and is never reported as 0.
pub struct Metric {
    pub name: &'static str,
    pub value: Result<f64, String>,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() {
            Ok(value)
        } else {
            Err("not a finite number".to_string())
        },
        unit,
    }
}

/// The result of one run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Per-window values behind a metric that is a median over windows.
    pub windows: Vec<(&'static str, Vec<f64>)>,
    /// Free-form facts worth keeping next to the numbers (sample counts,
    /// why the run is not correct).
    pub notes: Vec<String>,
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn number(v: &Result<f64, String>) -> Value {
    v.as_ref().map_or(Value::Null, |v| Value::F64(*v))
}

impl Report {
    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        for m in &self.metrics {
            match &m.value {
                Ok(v) => println!("{} {} {} {}", self.workload, m.name, v, m.unit),
                Err(why) => println!("{} {} null {} # {}", self.workload, m.name, m.unit, why),
            }
        }
        for note in &self.notes {
            println!("# {} {}", self.workload, note);
        }
    }

    /// The object the driver reads from the last line of standard output.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = map(vec![
                    ("value", number(&m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]);
                (m.name.to_string(), entry)
            })
            .collect();
        let line = map(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a Value tree always serialises")
    }

    fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), number(&m.value)))
            .collect();
        let windows = self
            .windows
            .iter()
            .map(|(name, values)| {
                let values = values.iter().map(|v| Value::F64(*v)).collect();
                (name.to_string(), Value::Seq(values))
            })
            .collect();
        map(vec![
            ("workload", Value::Str(self.workload.to_string())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
            ("windows", Value::Map(windows)),
        ])
    }

    /// Adds this run to the document at `path`, creating it (with the
    /// conditions it was measured under) if it does not exist.
    pub fn append_to(&self, path: &Path, label: &str) -> Result<(), String> {
        let mut doc = match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str::<Value>(&text).map_err(|e| e.to_string())?,
            Err(_) => map(vec![
                ("schema", Value::Str("cliffhanger-benchmark/v1".to_string())),
                ("label", Value::Str(label.to_string())),
                ("nproc", Value::U64(procfs::nproc() as u64)),
                ("kernel", Value::Str(procfs::kernel())),
                ("conditions", Value::Str(CONDITIONS.to_string())),
                ("runs", Value::Seq(Vec::new())),
            ]),
        };
        match &mut doc {
            Value::Map(entries) => match entries.iter_mut().find(|(k, _)| k == "runs") {
                Some((_, Value::Seq(runs))) => runs.push(self.to_value()),
                _ => return Err(format!("{}: no \"runs\" array", path.display())),
            },
            _ => return Err(format!("{}: not a JSON object", path.display())),
        }
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub const CONDITIONS: &str = "loopback TCP, server in-process, one client thread per connection, \
     every thread pinned to one CPU, alternating closed-loop and open-loop slices, \
     times at the reference machine's speed";

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The catalogue in `BENCHMARK.json`: end-to-end metrics with their bounds,
/// and the names of the per-layer metrics and workloads.
pub struct Catalogue {
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<String>,
    pub workloads: Vec<String>,
}

impl Catalogue {
    pub fn load(path: &Path) -> Result<Catalogue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" array"))
        };
        let text_of = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without \"{key}\""))
        };
        let names = |key: &str| -> Result<Vec<String>, String> {
            list(key)?.iter().map(|e| text_of(e, "name")).collect()
        };
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|e| {
                Ok(Declared {
                    name: text_of(e, "name")?,
                    higher_is_better: text_of(e, "better")? == "higher",
                    bound: e
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("BENCHMARK.json: end-to-end metric without \"bound\"")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Catalogue {
            end_to_end,
            per_layer: names("per_layer")?,
            workloads: names("workloads")?,
        })
    }
}

/// The runs of one workload in an `--out` document: per metric the values
/// across runs, and the window values of the first run.
fn runs_of(doc: &Value, workload: &str, metric: &str) -> (Vec<f64>, Vec<f64>) {
    let mut values = Vec::new();
    let mut windows = Vec::new();
    let runs = doc.get("runs").and_then(Value::as_array).unwrap_or(&[]);
    for run in runs
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
    {
        if let Some(v) = run
            .get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(Value::as_f64)
        {
            values.push(v);
        }
        if windows.is_empty() {
            if let Some(w) = run
                .get("windows")
                .and_then(|w| w.get(metric))
                .and_then(Value::as_array)
            {
                windows = w.iter().filter_map(Value::as_f64).collect();
            }
        }
    }
    (values, windows)
}

/// Run-to-run spread when a file holds at least four runs of the workload,
/// else the spread of the single run's own windows.
fn own_spread(values: &[f64], windows: &[f64]) -> f64 {
    if values.len() >= 4 {
        maths::spread(values)
    } else {
        maths::spread(windows)
    }
}

/// Compares two `--out` documents metric by metric against the declared
/// bounds. Prints one row per workload and end-to-end metric; returns
/// whether any row regressed.
pub fn compare(base: &Path, change: &Path, catalogue: &Catalogue) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = (load(base)?, load(change)?);
    let mut regressed = false;
    println!("workload metric base change worse_by bound spread verdict");
    for workload in &catalogue.workloads {
        for m in &catalogue.end_to_end {
            let (va, wa) = runs_of(&a, workload, &m.name);
            let (vb, wb) = runs_of(&b, workload, &m.name);
            let (Some(ma), Some(mb)) = (maths::median(&va), maths::median(&vb)) else {
                println!("{workload} {} - - - {} - missing", m.name, m.bound);
                continue;
            };
            let worse_by = if ma == 0.0 {
                0.0
            } else if m.higher_is_better {
                (ma - mb) / ma.abs()
            } else {
                (mb - ma) / ma.abs()
            };
            let spread = own_spread(&va, &wa).max(own_spread(&vb, &wb));
            let verdict = if spread > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{workload} {} {ma} {mb} {worse_by:+.4} {} {spread:.4} {verdict}",
                m.name, m.bound
            );
        }
    }
    Ok(regressed)
}
