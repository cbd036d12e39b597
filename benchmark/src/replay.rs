//! Pieces every traced replay shares: the write path run in-process
//! (decode, route, apply on the owning shard), the server-layer
//! metrics read from `stats` replies, and the latency ledger.

use crate::proc::Result;
use crate::trace::{self, SpanId, Tracer};
use crate::Report;
use fenestra_base::record::Event;
use fenestra_core::{Engine, ShardRouter};
use serde_json::Value as Json;
use std::time::Instant;

/// The write path of a replay. Events are decoded by the caller inside
/// [`WritePath::decode`], routed over `shards` shards, and applied on an
/// engine of the caller's choice; the timings become the `wire.*` and
/// `core.*` write metrics.
pub struct WritePath {
    pub engines: Vec<Engine>,
    pub t: Tracer,
    router: ShardRouter,
    /// `wire.binary_decode` or `wire.jsonl_decode`.
    decode_span: &'static str,
    decode_ns: u128,
    route_ns: u128,
    apply_ns: u128,
    per_shard: Vec<u64>,
    pub events: u64,
}

impl WritePath {
    /// `engines` already hold their rules; the router learns the
    /// partitioning from the first one's.
    pub fn new(engines: Vec<Engine>, shards: u32, decode_span: &'static str) -> Result<WritePath> {
        let mut router = ShardRouter::new(shards);
        for rule in engines[0].state_rules() {
            router.observe_rule(rule).map_err(|e| e.to_string())?;
        }
        Ok(WritePath {
            engines,
            t: Tracer::default(),
            router,
            decode_span,
            decode_ns: 0,
            route_ns: 0,
            apply_ns: 0,
            per_shard: vec![0; shards as usize],
            events: 0,
        })
    }

    /// Time one decode call as a child span of `root`.
    pub fn decode<T>(
        &mut self,
        root: SpanId,
        req: u64,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let id = self.t.begin(self.decode_span, root, req);
        let t0 = Instant::now();
        let out = f();
        self.decode_ns += t0.elapsed().as_nanos();
        self.t.end(id);
        out
    }

    /// Route `events` to their shards; part `s` holds shard `s`'s.
    pub fn route(&mut self, root: SpanId, req: u64, events: Vec<Event>) -> Vec<Vec<Event>> {
        self.events += events.len() as u64;
        let id = self.t.begin("core.route", root, req);
        let t0 = Instant::now();
        let mut parts = vec![Vec::new(); self.per_shard.len()];
        for ev in events {
            let s = self.router.route(&ev) as usize;
            parts[s].push(ev);
        }
        self.route_ns += t0.elapsed().as_nanos();
        self.t.end(id);
        for (n, part) in self.per_shard.iter_mut().zip(&parts) {
            *n += part.len() as u64;
        }
        parts
    }

    /// Apply `events` on engine `engine` (`Engine::push_batch`).
    pub fn apply(&mut self, root: SpanId, req: u64, engine: usize, events: Vec<Event>) {
        let id = self.t.begin("core.apply", root, req);
        let t0 = Instant::now();
        self.engines[engine].push_batch(events);
        self.apply_ns += t0.elapsed().as_nanos();
        self.t.end(id);
    }

    /// The `wire.*_decode_us_per_event` and `core.*` write metrics.
    pub fn report(&self, report: &mut Report) {
        let ev = self.events.max(1) as f64;
        report.layer(
            &format!("{}_us_per_event", self.decode_span),
            self.decode_ns as f64 / 1e3 / ev,
        );
        report.layer("core.route_ns_per_event", self.route_ns as f64 / ev);
        report.layer("core.shard_skew", skew(&self.per_shard));
        report.layer("core.apply_us_per_event", self.apply_ns as f64 / 1e3 / ev);
        let transitions: u64 = self.engines.iter().map(|e| e.metrics().transitions).sum();
        report.layer("core.transitions_per_event", transitions as f64 / ev);
    }
}

/// Max over mean events per shard (1 is perfectly even).
pub fn skew(per_shard: &[u64]) -> f64 {
    let total: u64 = per_shard.iter().sum();
    let mean = total as f64 / per_shard.len().max(1) as f64;
    per_shard.iter().copied().max().unwrap_or(0) as f64 / mean.max(1e-9)
}

/// The number at `path` inside a `stats` reply; a missing key is a
/// mismatch, so a renamed field cannot pass as a layer doing no work.
pub fn stat(stats: &Json, path: &[&str], report: &mut Report) -> f64 {
    let v = path
        .iter()
        .try_fold(stats, |v, p| v.get(p))
        .and_then(Json::as_f64);
    v.unwrap_or_else(|| {
        report.mismatch(format!("stats reply lacks a number at {}", path.join(".")));
        0.0
    })
}

/// The server-layer metrics over the interval between two `stats`
/// replies of one server: counters are differenced, and the stage
/// p50s are `after`'s (histograms since the server started, so
/// `before` should be taken early in the same load regime).
pub fn server_layers(before: &Json, after: &Json, report: &mut Report) {
    let delta =
        |path: &[&str], report: &mut Report| stat(after, path, report) - stat(before, path, report);
    let events = delta(&["server", "events"], report);
    let batches = delta(&["server", "ingest_batches"], report);
    let batched = delta(&["server", "ingest_batched_events"], report);
    let fsyncs = delta(&["server", "fsyncs"], report);
    let hits = delta(&["plans", "cache", "hits"], report);
    let misses = delta(&["plans", "cache", "misses"], report);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.layer("server.events_per_group_commit", ratio(batched, batches));
    report.layer("server.fsyncs_per_event", ratio(fsyncs, events));
    let p50 = stat(after, &["stages", "queue_wait_us", "p50"], report);
    report.layer("server.queue_wait_us_p50", p50);
    let p50 = stat(after, &["stages", "ack_hold_us", "p50"], report);
    report.layer("server.ack_hold_us_p50", p50);
    report.layer("server.plan_cache_hit_frac", ratio(hits, hits + misses));
}

/// `ledger.explained_frac`: the per-request self-time medians of the
/// path's layers, summed, over the untraced run's client-seen median.
pub fn ledger(report: &mut Report, t: &Tracer, path: &[&str], e2e_ms: f64, e2e_name: &str) {
    let p50 = trace::layer_self_p50(t.spans());
    let mut sum_ms = 0.0;
    for name in path {
        let ms = p50.get(name).copied().unwrap_or(0.0) / 1e6;
        sum_ms += ms;
        report
            .notes
            .push(format!("ledger {name:<24} self p50 {ms:>10.4} ms"));
    }
    report.notes.push(format!(
        "ledger sum {sum_ms:.4} ms of untraced {e2e_name} {e2e_ms:.4} ms"
    ));
    report.layer("ledger.explained_frac", sum_ms / e2e_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_max_over_mean() {
        assert_eq!(skew(&[5, 5]), 1.0);
        assert_eq!(skew(&[9, 3]), 1.5);
        assert_eq!(skew(&[0, 0]), 0.0);
    }

    #[test]
    fn missing_stats_key_is_a_mismatch() {
        let s: Json = serde_json::from_str(r#"{"server":{"events":7}}"#).unwrap();
        let mut r = Report::default();
        assert_eq!(stat(&s, &["server", "events"], &mut r), 7.0);
        assert!(r.mismatches.is_empty());
        assert_eq!(stat(&s, &["server", "fsyncs"], &mut r), 0.0);
        assert_eq!(r.mismatches.len(), 1);
    }
}
