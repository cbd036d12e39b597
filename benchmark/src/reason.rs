//! `reason-batch`: the batch CLI reasoning over the §3.1 case study.
//!
//! `fenestra run --rules … --ontology … --events …` feeds Zipf sales
//! and catalog reclassifications through the `classify` rule with a
//! generated multi-level taxonomy; `type` keeps its default (many)
//! cardinality. The reasoner re-syncs on every event that changes
//! state, so it does nearly all the work; the server, wire and WAL do
//! none. Queries at the end read the derived memberships, current and
//! `asof` three instants, and are checked against the classification
//! timeline closed under the taxonomy.

use crate::gen::{self, Catalog};
use crate::proc::{self, Result};
use crate::replay::WritePath;
use crate::stats;
use crate::trace;
use crate::{Ctx, Report};
use fenestra_core::{Engine, EngineConfig, QueryResult};
use std::collections::BTreeSet;
use std::process::Command;
use std::time::Instant;

const PRODUCTS: usize = 300;
const CLASSES: usize = 24;
const SALES: usize = 60_000;
const MIN_RUNS: usize = 3;
/// Set-up runs before each batch run.
const SETUP_RUNS_PER_BATCH: usize = 5;

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let cat = gen::catalog(ctx.seed, PRODUCTS, CLASSES, SALES);
    let files = Files::write(ctx, &cat)?;
    let queries = queries(&cat);
    let m = measure(ctx, &cat, &files, &queries, &mut report)?;
    if ctx.trace {
        replay(ctx, &cat, &queries, &m, &mut report)?;
    }
    Ok(report)
}

struct Files {
    rules: String,
    ontology: String,
    events: String,
    empty: String,
}

impl Files {
    fn write(ctx: &Ctx, cat: &Catalog) -> Result<Files> {
        let path = |name: &str| ctx.dir.join(name).to_string_lossy().into_owned();
        let files = Files {
            rules: path("catalog.rules"),
            ontology: path("taxonomy.ont"),
            events: path("events.jsonl"),
            empty: path("empty.jsonl"),
        };
        for (p, body) in [
            (&files.rules, gen::CATALOG_RULES),
            (&files.ontology, cat.ontology.as_str()),
            (&files.events, cat.jsonl.as_str()),
            (&files.empty, ""),
        ] {
            std::fs::write(p, body).map_err(|e| format!("{p}: {e}"))?;
        }
        Ok(files)
    }
}

/// The membership queries: current, then `asof` each instant.
fn queries(cat: &Catalog) -> Vec<(String, Option<u64>)> {
    let base = "select ?p ?c where { ?p type ?c }";
    std::iter::once((base.to_string(), None))
        .chain(
            cat.asof
                .iter()
                .map(|t| (format!("{base} asof {t}"), Some(*t))),
        )
        .collect()
}

/// `(product, class)` memberships at `t` (`None` = after the last
/// event): the classification valid then, plus every ancestor.
fn oracle(cat: &Catalog, t: Option<u64>) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for (p, c, from, until) in &cat.classes {
        let valid = match t {
            Some(t) => *from <= t && until.is_none_or(|u| t < u),
            None => until.is_none(),
        };
        if !valid {
            continue;
        }
        let mut node = Some(c.clone());
        while let Some(n) = node {
            node = cat.parent.get(&n).cloned();
            out.insert((p.clone(), n));
        }
    }
    out
}

/// One CLI run's parsed output.
struct CliRun {
    wall_s: f64,
    peak_rss_mb: f64,
    reason_syncs: u64,
    events: u64,
    results: Vec<BTreeSet<(String, String)>>,
}

fn run_cli(
    ctx: &Ctx,
    files: &Files,
    events: &str,
    queries: &[(String, Option<u64>)],
) -> Result<CliRun> {
    let mut cmd = Command::new(&ctx.fenestra);
    cmd.args([
        "run",
        "--rules",
        &files.rules,
        "--ontology",
        &files.ontology,
        "--events",
        events,
    ])
    .arg("--metrics-json");
    for (q, _) in queries {
        cmd.args(["--query", q]);
    }
    let (stdout, wall_s, peak_rss_mb) = proc::run_measured(&mut cmd, &ctx.dir.join("fenestra.log"))
        .map_err(|e| format!("fenestra run: {e}"))?;
    let mut lines = stdout.lines();
    let metrics: serde_json::Value = lines
        .next()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or("fenestra run printed no metrics line")?;
    let mut results: Vec<BTreeSet<(String, String)>> = Vec::new();
    for line in lines {
        if line.starts_with("query> ") {
            results.push(BTreeSet::new());
        } else if let (Some(cur), Some(row)) = (results.last_mut(), line.strip_prefix("  ?p=")) {
            if let Some((p, c)) = row.split_once("  ?c=") {
                cur.insert((p.to_string(), c.trim_matches('"').to_string()));
            }
        }
    }
    let num = |k: &str| {
        metrics
            .get(k)
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
    };
    Ok(CliRun {
        wall_s,
        peak_rss_mb,
        reason_syncs: num("reason_syncs"),
        events: num("events"),
        results,
    })
}

struct Measured {
    batch_ms: f64,
    last: CliRun,
}

fn measure(
    ctx: &Ctx,
    cat: &Catalog,
    files: &Files,
    queries: &[(String, Option<u64>)],
    report: &mut Report,
) -> Result<Measured> {
    // Set-up is the CLI's fixed cost, with rules and ontology but no
    // events: a few milliseconds. Its runs are spread between the
    // batch runs, so their median reflects the machine over the whole
    // run rather than over its first fraction of a second.
    let mut setups = Vec::new();
    let want: Vec<BTreeSet<(String, String)>> =
        queries.iter().map(|(_, t)| oracle(cat, *t)).collect();
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut rss: f64 = 0.0;
    let mut last = None;
    while walls.len() < MIN_RUNS || t0.elapsed().as_secs_f64() + stats::median(&walls) < ctx.seconds
    {
        for _ in 0..SETUP_RUNS_PER_BATCH {
            setups.push(run_cli(ctx, files, &files.empty, &[])?.wall_s);
        }
        let run = run_cli(ctx, files, &files.events, queries)?;
        report.attempted += 1 + queries.len() as u64;
        if run.reason_syncs == 0 {
            report.fail("reason_syncs is 0: the reasoner derived nothing".into());
        }
        if run.events != cat.events as u64 {
            report.fail(format!(
                "CLI accepted {} of {} events",
                run.events, cat.events
            ));
        }
        for ((q, _), (got, want)) in queries.iter().zip(run.results.iter().zip(&want)) {
            if got != want {
                let missing = want.difference(got).count();
                let extra = got.difference(want).count();
                report.fail(format!(
                    "`{q}`: {missing} membership(s) missing, {extra} unexpected"
                ));
            }
        }
        if run.results.len() != queries.len() {
            report.fail(format!(
                "CLI printed {} of {} query results",
                run.results.len(),
                queries.len()
            ));
        }
        if run.peak_rss_mb <= 0.0 {
            report.mismatch("no resident-set sample of a CLI run".into());
        }
        walls.push(run.wall_s);
        rss = rss.max(run.peak_rss_mb);
        last = Some(run);
    }
    let last = last.expect("at least one run");
    // Events over wall time across all runs: the machine's speed
    // wanders over seconds, and a mean smooths that where a median of
    // a handful of runs jumps between fast and slow spells.
    let batch_s = walls.iter().sum::<f64>() / walls.len() as f64;
    let batch_eps = cat.events as f64 / batch_s;
    let setup_s = stats::median(&setups);
    report.named("batch_eps", batch_eps, "events/s");
    report.named("batch_wall_ms", batch_s * 1e3, "ms");
    report.named("setup_s", setup_s, "s");
    report.named("peak_rss_mb", rss, "MB");
    report.notes.push(format!(
        "CLI wall times (ms): {:.0?}",
        walls.iter().map(|w| w * 1e3).collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "{} runs of {} events ({} products, {} classes); reason_syncs {} per run; {} memberships current",
        walls.len(),
        cat.events,
        PRODUCTS,
        CLASSES,
        last.reason_syncs,
        want[0].len()
    ));
    report.gated("latency_ms", batch_s * 1e3, "ms");
    report.gated("setup_s", setup_s, "s");
    report.gated("peak_rss_mb", rss, "MB");
    Ok(Measured {
        batch_ms: batch_s * 1e3,
        last,
    })
}

/// Replay the CLI's work in-process with the reasoner called
/// explicitly: an `auto_reason: false` engine, `reason_now` after each
/// event that changed state. The final memberships must equal the CLI's.
fn replay(
    ctx: &Ctx,
    cat: &Catalog,
    queries: &[(String, Option<u64>)],
    m: &Measured,
    report: &mut Report,
) -> Result<()> {
    let mut engine = Engine::new(EngineConfig::default());
    engine.set_ontology(fenestra_reason::parse_ontology(&cat.ontology).map_err(|e| e.to_string())?);
    engine
        .add_rules_text(gen::CATALOG_RULES)
        .map_err(|e| e.to_string())?;
    // One engine, as in the CLI; the route is still timed over two
    // shards for the router's cost and skew.
    let mut wp = WritePath::new(vec![engine], 2, "wire.jsonl_decode")?;
    let mut sync_us = Vec::new();
    let mut useful = 0u64;
    for (i, line) in cat.jsonl.lines().enumerate() {
        let req = i as u64 + 1;
        let root = wp.t.begin("event", 0, req);
        let ev = wp.decode(root, req, || {
            fenestra_wire::event_from_json(line).map_err(|e| e.to_string())
        })?;
        let events = wp.route(root, req, vec![ev]).concat();
        let before = wp.engines[0].metrics().transitions;
        wp.apply(root, req, 0, events);
        if wp.engines[0].metrics().transitions > before {
            let id = wp.t.begin("reason.sync", root, req);
            let t0 = Instant::now();
            let (a, r) = wp.engines[0].reason_now().map_err(|e| e.to_string())?;
            sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
            wp.t.end(id);
            useful += u64::from(a + r > 0);
        }
        wp.t.end(root);
    }
    wp.engines[0].finish();
    let engine = &wp.engines[0];

    let (mut compile_us, mut exec_current, mut exec_asof, mut rows) =
        (Vec::new(), Vec::new(), Vec::new(), 0usize);
    for ((q, at), cli) in queries.iter().zip(&m.last.results) {
        let t0 = Instant::now();
        let plan = fenestra_query::compile(q).map_err(|e| e.to_string())?;
        compile_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let res = engine
            .execute_plan(&plan, fenestra_query::QueryOptions::default())
            .map_err(|e| e.to_string())?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if at.is_some() {
            exec_asof.push(us);
        } else {
            exec_current.push(us);
        }
        let QueryResult::Rows(r) = res else {
            return Err("membership query returned history".into());
        };
        rows += r.len();
        let store = engine.store();
        let got: BTreeSet<(String, String)> = r
            .iter()
            .map(|row| {
                let cell = |name: &str| {
                    row.iter()
                        .find(|(n, _)| n.as_str() == name)
                        .map(|(_, v)| match v {
                            fenestra_base::value::Value::Id(e) => store
                                .entity_name(*e)
                                .map_or_else(|| v.to_string(), |s| s.as_str().to_string()),
                            fenestra_base::value::Value::Str(s) => s.as_str().to_string(),
                            other => other.to_string(),
                        })
                        .unwrap_or_default()
                };
                (cell("p"), cell("c"))
            })
            .collect();
        if &got != cli {
            report.mismatch(format!("replay `{q}` differs from the CLI run"));
        }
    }

    let store = engine.store();
    let ev = wp.events.max(1) as f64;
    let metrics = engine.metrics();
    wp.report(report);
    let snapshot = fenestra_temporal::persist::to_json(&store).map_err(|e| e.to_string())?;
    report.layer("temporal.state_bytes", snapshot.len() as f64);
    report.layer("temporal.open_facts", store.open_fact_count() as f64);
    report.layer("temporal.stored_facts", store.stored_fact_count() as f64);
    drop(store);
    report.layer("query.compile_us", stats::median(&compile_us));
    report.layer("query.exec_us.select", stats::median(&exec_current));
    report.layer("query.exec_us.asof", stats::median(&exec_asof));
    report.layer("query.rows_per_query", rows as f64 / queries.len() as f64);
    report.layer("reason.sync_us", stats::median(&sync_us));
    report.layer("reason.syncs_per_event", sync_us.len() as f64 / ev);
    report.layer(
        "reason.useful_sync_frac",
        useful as f64 / sync_us.len().max(1) as f64,
    );
    // A batch has one result, so the ledger compares total self time
    // with the CLI's wall time.
    let totals = trace::layer_self_total(wp.t.spans());
    let mut sum_ms = 0.0;
    for name in [
        "wire.jsonl_decode",
        "core.route",
        "core.apply",
        "reason.sync",
    ] {
        let ms = totals.get(name).copied().unwrap_or(0.0) / 1e6;
        sum_ms += ms;
        report
            .notes
            .push(format!("ledger {name:<24} self total {ms:>10.3} ms"));
    }
    report.notes.push(format!(
        "ledger sum {sum_ms:.3} ms of untraced batch_wall_ms {:.3} ms",
        m.batch_ms
    ));
    report.layer("ledger.explained_frac", sum_ms / m.batch_ms);
    if metrics.reason_syncs == 0 {
        report.fail("replay: reason_syncs is 0".into());
    }
    wp.t.write_jsonl(&ctx.dir.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(())
}
