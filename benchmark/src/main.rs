//! End-to-end benchmark of `fenestrad` and the `fenestra` batch CLI.
//!
//! ```text
//! e2ebench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` drives the release binaries as separate processes and
//! reports the end-to-end metrics; `--trace 1` runs the same workload
//! untraced once more (for the ledger's denominator and the server's
//! `stats`), then replays the same inputs through each layer's public
//! functions in-process, timing them with spans, and reports the
//! per-layer metrics. Every output is checked against an oracle. The
//! last stdout line is the result object; see README.md.

mod gen;
mod ingest;
mod proc;
mod readmix;
mod reason;
mod replay;
mod stats;
mod trace;

use serde_json::{Map, Value as Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub fenestrad: PathBuf,
    pub fenestra: PathBuf,
    /// Scratch directory of this workload, inside the checkout.
    pub dir: PathBuf,
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
/// Each traced run prints all of them; a layer that does no work on a
/// workload reads 0.
pub const LAYERS: [(&str, &str); 32] = [
    ("wire.binary_decode_us_per_event", "us"),
    ("wire.jsonl_decode_us_per_event", "us"),
    ("core.route_ns_per_event", "ns"),
    ("core.shard_skew", "ratio"),
    ("core.apply_us_per_event", "us"),
    ("core.transitions_per_event", "count"),
    ("core.watch_poll_us", "us"),
    ("core.watch_useful_frac", "frac"),
    ("temporal.wal_append_us", "us"),
    ("temporal.wal_sync_us", "us"),
    ("temporal.wal_bytes_per_event", "bytes"),
    ("temporal.recover_ms", "ms"),
    ("temporal.state_bytes", "bytes"),
    ("temporal.open_facts", "count"),
    ("temporal.stored_facts", "count"),
    ("query.compile_us", "us"),
    ("query.cache_hit_frac", "frac"),
    ("query.exec_us.select", "us"),
    ("query.exec_us.asof", "us"),
    ("query.exec_us.history", "us"),
    ("query.exec_us.window", "us"),
    ("query.merge_us", "us"),
    ("query.rows_per_query", "count"),
    ("reason.sync_us", "us"),
    ("reason.syncs_per_event", "count"),
    ("reason.useful_sync_frac", "frac"),
    ("server.events_per_group_commit", "count"),
    ("server.fsyncs_per_event", "count"),
    ("server.queue_wait_us_p50", "us"),
    ("server.ack_hold_us_p50", "us"),
    ("server.plan_cache_hit_frac", "frac"),
    ("ledger.explained_frac", "frac"),
];

/// One metric as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle mismatches and protocol surprises, one line each.
    pub mismatches: Vec<String>,
    /// Reasons the run's figures cannot be trusted (open-loop
    /// discipline). They are reported loudly but leave `correct`
    /// alone: a late generator says nothing about the program's
    /// outputs, and its lateness is already charged to the latencies,
    /// which are timed from the scheduled send.
    pub invalid: Vec<String>,
    /// Every end-to-end metric the workload exercises, by its name.
    pub named: Vec<Metric>,
    /// The end-to-end metrics `BENCHMARK.json` gates.
    pub gated: Vec<Metric>,
    /// Per-layer metrics by their [`LAYERS`] name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Shard and reactor threads of the server under test, counted in
    /// the running process, when there is one.
    pub server_shape: Option<(usize, usize)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn named(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.named.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn gated(&mut self, name: &str, value: f64, unit: &'static str) {
        self.gated.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a per-layer metric; `name` must be one of [`LAYERS`].
    pub fn layer(&mut self, name: &str, value: f64) {
        let (name, _) = LAYERS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        self.layers.insert(name, value);
    }

    /// Every per-layer metric, 0 for the ones the workload did not set.
    fn layer_metrics(&self) -> Vec<Metric> {
        LAYERS
            .iter()
            .map(|(name, unit)| Metric {
                name: name.to_string(),
                value: self.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Count one failed operation, with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.mismatch(why);
    }

    /// Record a mismatch, keeping the report readable when many occur.
    pub fn mismatch(&mut self, why: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(why);
        } else if self.mismatches.len() == 20 {
            self.mismatches.push("… further mismatches elided".into());
        }
    }
}

fn usage() -> String {
    "usage: e2ebench --bin-dir DIR --workload ingest-durable|read-mix|reason-batch \
     --seed N --seconds S --trace 0|1"
        .into()
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin_dir) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let bin_dir = bin_dir.ok_or_else(usage)?;
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let dir = PathBuf::from(".bench_run").join(&workload);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((
        workload,
        Ctx {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
            fenestrad: bin_dir.join("fenestrad"),
            fenestra: bin_dir.join("fenestra"),
            dir,
        },
    ))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut m = Map::new();
    for metric in metrics {
        let mut o = Map::new();
        o.insert(
            "value".into(),
            serde_json::Number::from_f64(metric.value)
                .map(Json::Number)
                .unwrap_or(Json::Null),
        );
        o.insert("unit".into(), Json::from(metric.unit));
        m.insert(metric.name.clone(), Json::Object(o));
    }
    Json::Object(m)
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let regime = match proc::Regime::probe(&ctx.dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: regime probe failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match workload.as_str() {
        "ingest-durable" => ingest::run(&ctx),
        "read-mix" => readmix::run(&ctx),
        "reason-batch" => reason::run(&ctx),
        other => Err(format!("unknown workload {other}\n{}", usage())),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("{}", regime.line(report.server_shape));
    for note in &report.notes {
        println!("{note}");
    }
    for m in &report.named {
        println!("e2e {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let layers = if ctx.trace {
        report.layer_metrics()
    } else {
        Vec::new()
    };
    for m in &layers {
        println!("layer {:<33} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac:.6} ({} of {} operations)",
        report.failed, report.attempted
    );
    for m in &report.mismatches {
        println!("MISMATCH {m}");
    }
    for why in &report.invalid {
        println!("INVALID RUN: {why}");
    }
    if report.failed > 0 || !report.mismatches.is_empty() {
        eprintln!(
            "e2ebench: {workload}: {} failed operation(s), {} mismatch line(s)",
            report.failed,
            report.mismatches.len()
        );
    }
    for m in &report.mismatches {
        eprintln!("e2ebench: {workload}: MISMATCH {m}");
    }
    for why in &report.invalid {
        eprintln!("e2ebench: {workload}: INVALID RUN: {why}");
    }
    let mut out = Map::new();
    out.insert("correct".into(), Json::Bool(report.mismatches.is_empty()));
    out.insert("attempted".into(), Json::from(report.attempted.max(1)));
    out.insert("failed".into(), Json::from(report.failed));
    let metrics = if ctx.trace { &layers } else { &report.gated };
    out.insert("metrics".into(), metrics_json(metrics));
    println!("{}", Json::Object(out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::LAYERS;
    use serde_json::Value as Json;

    /// The per-layer table and `BENCHMARK.json` name the same metrics,
    /// with the same units, in the same order.
    #[test]
    fn layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let b: Json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let listed: Vec<(String, String)> = b
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let table: Vec<(String, String)> = LAYERS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, table);
    }
}
