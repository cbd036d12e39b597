//! `ingest-durable`: the write path under strict durability.
//!
//! One binary-plane connection sends fixed-size `FNB1` frames of
//! `BuildingWorkload` sensor events in an open loop to `fenestrad
//! --shards 2 --wal … --fsync always` (lateness 0, no queries or
//! watches). Ack latency is timed from each frame's scheduled send
//! time at a fixed reference rate; the sustained rate is the highest
//! rung of a fixed geometric ladder whose tail ack latency stays under
//! [`LADDER_RULE`]'s limit without a growing backlog.

use crate::gen;
use crate::proc::{self, Jsonl, Result, Server};
use crate::replay::{self, stat, WritePath};
use crate::stats::{self, LadderRule, Latencies, RungObs};
use crate::{Ctx, Report};
use fenestra_core::{Engine, EngineConfig};
use fenestra_temporal::wal_file::{recover_shards, shard_segment_path};
use fenestra_temporal::{FsyncPolicy, WalWriter};
use fenestra_wire::binary::{self, Frame};
use serde_json::Value as Json;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
/// Visitors of the sensor stream. Every one is placed by the end of
/// the reference phase; the report's `working_set_mb` measures what
/// their state takes in the server (see README.md for the figure
/// against the caches).
const VISITORS: usize = 100_000;
const ROOMS: usize = 64;
const FRAME_EVENTS: usize = 64;
/// Offered rate of the ack-latency phase, well under the sustained
/// rate.
const REF_RATE: f64 = 20_000.0;
/// The pipelined saturation phase: frames sent, and frames kept in
/// flight. Long enough to average out the scheduler noise of a small
/// shared machine.
const SAT_FRAMES: usize = 6_000;
const SAT_WINDOW: usize = 256;
/// The ladder: `LADDER_BASE × LADDER_RATIO^i` for `i < LADDER_RUNGS`;
/// only rungs at or under the saturation throughput are probed, each
/// for at most `RUNG_MAX_FRAMES` frames.
const LADDER_BASE: f64 = 10_000.0;
const LADDER_RATIO: f64 = 1.08;
const LADDER_RUNGS: usize = 60;
const RUNG_MAX_FRAMES: usize = 600;
pub const LADDER_RULE: LadderRule = LadderRule {
    tail_limit_ms: 100.0,
    growth_frac: 0.05,
    min_growth_events: 4.0 * FRAME_EVENTS as f64,
};
/// The reference phase is invalid when the generator ran later than
/// this at its p99 (ms).
pub const GEN_LAG_LIMIT_MS: f64 = 10.0;
/// Set-up spawns before the measured server (the last of these) and
/// after it has gone: a spawn takes a few milliseconds, and samples at
/// both ends of the run are steadier than one burst.
const SETUP_SPAWNS_BEFORE: usize = 11;
const SETUP_SPAWNS_AFTER: usize = 10;
const TIMEOUT: Duration = Duration::from_secs(60);

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let m = measure(ctx, &mut report)?;
    if ctx.trace {
        replay(ctx, &m, &mut report)?;
    }
    Ok(report)
}

/// One sent frame awaiting its ack.
struct Pending {
    scheduled: Instant,
    last_seq: u64,
    events: u64,
}

/// An ack (or error) as the receiver thread saw it.
struct AckMsg {
    frame: Frame,
    at: Instant,
}

/// The open-loop sender: frames go out on schedule regardless of acks.
struct Sender<'a> {
    stream: TcpStream,
    frames: &'a [Vec<u8>],
    next: usize,
    total_events: u64,
    sent_events: u64,
    acked: Arc<AtomicU64>,
    rx: mpsc::Receiver<AckMsg>,
    pending: VecDeque<Pending>,
}

struct PhaseObs {
    rung: RungObs,
    lag_ms: Vec<f64>,
}

impl Sender<'_> {
    fn send_next(&mut self, scheduled: Instant) -> Result<()> {
        let frame = self
            .frames
            .get(self.next)
            .ok_or("generated input exhausted; raise the event budget")?;
        self.stream
            .write_all(frame)
            .map_err(|e| format!("send frame: {e}"))?;
        self.next += 1;
        let events = (FRAME_EVENTS as u64).min(self.total_events - self.sent_events);
        self.sent_events += events;
        self.pending.push_back(Pending {
            scheduled,
            last_seq: self.sent_events,
            events,
        });
        Ok(())
    }

    /// Wait for the oldest pending frame's reply and check it; returns
    /// when it arrived.
    fn take_ack(&mut self, latencies: &mut Latencies, report: &mut Report) -> Result<Instant> {
        let msg = self
            .rx
            .recv_timeout(TIMEOUT)
            .map_err(|_| format!("{} frame(s) never acked", self.pending.len()))?;
        let p = self
            .pending
            .pop_front()
            .ok_or("reply without a pending frame")?;
        report.attempted += 1;
        match msg.frame {
            Frame::Ack { seq, count } if seq == p.last_seq && count == p.events => {
                latencies.push(msg.at.duration_since(p.scheduled).as_secs_f64() * 1e3);
            }
            Frame::Ack { seq, count } => {
                report.fail(format!(
                    "ack seq/count {seq}/{count}, expected {}/{}",
                    p.last_seq, p.events
                ));
                latencies.push_failed();
            }
            Frame::Err { seq, msg } => {
                report.fail(format!("frame ending at seq {seq} failed: {msg}"));
                latencies.push_failed();
            }
            other => return Err(format!("unexpected frame from server: {other:?}")),
        }
        Ok(msg.at)
    }

    /// Open loop: send `frames` frames at `rate` events/s on schedule,
    /// then wait for every ack.
    fn open_loop(&mut self, rate: f64, frames: usize, report: &mut Report) -> Result<PhaseObs> {
        let interval = Duration::from_secs_f64(FRAME_EVENTS as f64 / rate);
        let start_events = self.sent_events;
        let t0 = Instant::now();
        let mut backlog = Vec::with_capacity(frames);
        let mut lag_ms = Vec::with_capacity(frames);
        for k in 0..frames {
            let scheduled = t0 + interval * k as u32;
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            lag_ms.push(
                Instant::now()
                    .saturating_duration_since(scheduled)
                    .as_secs_f64()
                    * 1e3,
            );
            self.send_next(scheduled)?;
            let in_flight = self.sent_events - self.acked.load(Ordering::Acquire);
            backlog.push((scheduled.duration_since(t0).as_secs_f64(), in_flight as f64));
        }
        let mut latencies = Latencies::default();
        let mut last_ack = t0;
        while !self.pending.is_empty() {
            last_ack = self.take_ack(&mut latencies, report)?;
        }
        let span = last_ack.duration_since(t0).as_secs_f64().max(1e-9);
        Ok(PhaseObs {
            rung: RungObs {
                offered: rate,
                backlog,
                latencies,
                achieved: (self.sent_events - start_events) as f64 / span,
            },
            lag_ms,
        })
    }

    /// Pipelined closed loop: keep `window` frames in flight until
    /// `frames` frames are acked; returns events acked per second.
    fn saturate(&mut self, frames: usize, window: usize, report: &mut Report) -> Result<f64> {
        let start_events = self.sent_events;
        let t0 = Instant::now();
        let mut latencies = Latencies::default();
        let mut last_ack = t0;
        for _ in 0..frames {
            if self.pending.len() >= window {
                last_ack = self.take_ack(&mut latencies, report)?;
            }
            self.send_next(Instant::now())?;
        }
        while !self.pending.is_empty() {
            last_ack = self.take_ack(&mut latencies, report)?;
        }
        Ok((self.sent_events - start_events) as f64
            / last_ack.duration_since(t0).as_secs_f64().max(1e-9))
    }
}

/// What the untraced run leaves for the traced replay.
pub struct Measured {
    building: gen::Building,
    frames: Vec<Vec<u8>>,
    /// Mean events per shard group commit during the reference phase.
    ref_group_commit: f64,
    ack_p50_ms: f64,
    /// `stats` replies at the start and the end of the reference phase.
    ref_stats: (Json, Json),
}

/// Frames the run may send at most, whatever the machine's speed.
fn frame_budget(seconds: f64) -> usize {
    let (warm, reference, _) = phase_frames(seconds, REF_RATE);
    let probes = (LADDER_RUNGS as f64 + 1.0).log2().ceil() as usize;
    warm + reference + SAT_FRAMES + probes * RUNG_MAX_FRAMES
}

/// Frames of the warm-up and reference phases, and of a ladder rung
/// offered at `rate`.
fn phase_frames(seconds: f64, rate: f64) -> (usize, usize, usize) {
    let frames = |s: f64, r: f64| ((s * r) / FRAME_EVENTS as f64).ceil() as usize;
    (
        frames(0.05 * seconds, REF_RATE),
        frames(0.3 * seconds, REF_RATE),
        frames(0.05 * seconds, rate).min(RUNG_MAX_FRAMES),
    )
}

fn server_args(ctx: &Ctx, wal_dir: &std::path::Path) -> Vec<String> {
    [
        "--shards",
        "2",
        "--wal",
        &wal_dir.join("wal").to_string_lossy(),
        "--fsync",
        "always",
        "--max-lateness-ms",
        "0",
        "--rules",
        &ctx.dir.join("building.rules").to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn measure(ctx: &Ctx, report: &mut Report) -> Result<Measured> {
    let building = gen::building(
        ctx.seed,
        VISITORS,
        ROOMS,
        frame_budget(ctx.seconds) * FRAME_EVENTS,
    );
    let frames = gen::frames(&building.moves, FRAME_EVENTS);
    std::fs::write(ctx.dir.join("building.rules"), gen::BUILDING_RULES)
        .map_err(|e| e.to_string())?;

    // Set-up: spawn → first sync reply, on a fresh WAL each time.
    let mut setups = Vec::new();
    let mut spawn_fresh = |k: usize| -> Result<Server> {
        let dir = ctx.dir.join(format!("wal{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let (s, secs) = proc::spawn_ready(
            &ctx.fenestrad,
            &server_args(ctx, &dir),
            &ctx.dir.join(format!("fenestrad{k}.log")),
        )?;
        setups.push(secs);
        Ok(s)
    };
    let mut server: Option<Server> = None;
    for k in 0..SETUP_SPAWNS_BEFORE {
        server = Some(spawn_fresh(k)?); // dropping the previous one kills it
    }
    let server = server.expect("at least one spawn");
    report.server_shape = Some(server.shape()?);
    let base_rss = server.rss_mb()?;

    let stream = TcpStream::connect(&server.addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(&binary::MAGIC)
        .map_err(|e| e.to_string())?;
    let acked = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel();
    let receiver = {
        let acked = acked.clone();
        std::thread::spawn(move || -> Result<()> {
            let mut r = BufReader::with_capacity(1 << 16, stream);
            loop {
                let frame = match binary::read_frame(&mut r, binary::DEFAULT_MAX_FRAME) {
                    Ok(Some(f)) => f,
                    Ok(None) => return Ok(()),
                    Err(e) => return Err(format!("read ack: {e}")),
                };
                let at = Instant::now();
                if let Frame::Ack { count, .. } = frame {
                    acked.fetch_add(count, Ordering::Release);
                }
                let done = matches!(frame, Frame::Synced);
                if tx.send(AckMsg { frame, at }).is_err() || done {
                    return Ok(());
                }
            }
        })
    };
    let mut sender = Sender {
        stream: writer,
        frames: &frames,
        next: 0,
        total_events: building.moves.len() as u64,
        sent_events: 0,
        acked,
        rx,
        pending: VecDeque::new(),
    };

    let (warm, reference, _) = phase_frames(ctx.seconds, REF_RATE);
    sender.open_loop(REF_RATE, warm, report)?;
    // The server layers and the traced replay's batch size come from
    // the reference phase alone, the regime `ack_p50_ms` is taken in.
    let mut ctl = Jsonl::connect(&server.addr)?;
    let before = ctl.call(r#"{"cmd":"stats"}"#, TIMEOUT)?;
    let refp = sender.open_loop(REF_RATE, reference, report)?;
    let after = ctl.call(r#"{"cmd":"stats"}"#, TIMEOUT)?;
    let working_set_mb = server.rss_mb()? - base_rss;
    let mut delta = |key: &str| {
        stat(&after, &["server", key], report) - stat(&before, &["server", key], report)
    };
    let ref_group_commit = delta("ingest_batched_events") / delta("ingest_batches").max(1.0);
    let placed = gen::rooms_after(&building.moves, VISITORS, sender.sent_events as usize)
        .iter()
        .filter(|r| r.is_some())
        .count();
    let peak_eps = sender.saturate(SAT_FRAMES, SAT_WINDOW, report)?;
    let rungs: Vec<f64> = stats::geometric(LADDER_BASE, LADDER_RATIO, LADDER_RUNGS)
        .into_iter()
        .take_while(|&r| r <= peak_eps)
        .collect();
    let mut probe_err = None;
    let (best, probes) = stats::search_ladder(&rungs, &LADDER_RULE, |rate| {
        match sender.open_loop(rate, phase_frames(ctx.seconds, rate).2, report) {
            Ok(p) => p.rung,
            Err(e) => {
                probe_err.get_or_insert(e);
                RungObs::default()
            }
        }
    });
    if let Some(e) = probe_err {
        return Err(e);
    }
    // Top up to the full budget, so every run ingests the same events
    // and the state (and the memory it takes) is comparable.
    let rest = frames.len() - sender.next;
    sender.saturate(rest, SAT_WINDOW, report)?;

    // Barrier, then read back state and counters on a JSONL connection.
    sender
        .stream
        .write_all(&binary::encode_sync())
        .map_err(|e| e.to_string())?;
    match sender.rx.recv_timeout(TIMEOUT) {
        Ok(AckMsg {
            frame: Frame::Synced,
            ..
        }) => {}
        _ => return Err("binary sync barrier failed".into()),
    }
    receiver
        .join()
        .map_err(|_| "ack receiver panicked".to_string())??;
    let sent_events = sender.sent_events as usize;
    let gen_lag = {
        let mut v = refp.lag_ms.clone();
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, 0.99)
    };
    let peak_rss = server.peak_rss_mb()?;
    let stats_reply = ctl.call(r#"{"cmd":"stats"}"#, TIMEOUT)?;
    let rows = ctl.call(
        r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#,
        TIMEOUT,
    )?;
    drop(server);
    for k in SETUP_SPAWNS_BEFORE..SETUP_SPAWNS_BEFORE + SETUP_SPAWNS_AFTER {
        drop(spawn_fresh(k)?);
    }

    // Oracle: every acked event applied, positions as generated.
    let expect = gen::rooms_after(&building.moves, VISITORS, sent_events);
    check_positions(&rows, &expect, report);
    for key in ["late_dropped", "shed"] {
        let n = stat(&stats_reply, &["server", key], report);
        if n != 0.0 {
            report.failed += (n as u64).min(sent_events as u64);
            report.mismatch(format!("server counted {n} {key} event(s); expected 0"));
        }
    }

    let ref_sum = refp.rung.latencies.summary();
    let sustained = best.map(|i| {
        probes
            .iter()
            .find(|(j, _, _)| *j == i)
            .map(|(_, o, _)| o.achieved)
            .expect("best rung was probed")
    });
    for (i, obs, ok) in &probes {
        let s = obs.latencies.summary();
        report.notes.push(format!(
            "ladder rung {i:>2} offered {:>9.0} ev/s achieved {:>9.0} ev/s ack p50 {:.3} ms {} {:.3} ms backlog slope {:.0} ev/s -> {}",
            obs.offered,
            obs.achieved,
            s.p50,
            s.tail_label(),
            s.tail_value(),
            stats::slope(&obs.backlog),
            if *ok { "sustained" } else { "not sustained" }
        ));
    }
    let sustained = sustained.unwrap_or(0.0);
    if gen_lag > GEN_LAG_LIMIT_MS {
        report.invalid.push(format!(
            "generator p99 lag {gen_lag:.3} ms exceeds {GEN_LAG_LIMIT_MS} ms in the reference phase"
        ));
    }
    let setup_s = stats::median(&setups);
    report.notes.push(format!(
        "set-up samples (ms): {:.2?}",
        setups.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    ));
    report.named("sustained_eps", sustained, "events/s");
    report.named("peak_eps", peak_eps, "events/s");
    report.named("ack_p50_ms", ref_sum.p50, "ms");
    report.named(
        format!("ack_{}_ms", ref_sum.tail_label()),
        ref_sum.tail_value(),
        "ms",
    );
    report.named("setup_s", setup_s, "s");
    report.named("peak_rss_mb", peak_rss, "MB");
    report.named("gen_lag_p99_ms", gen_lag, "ms");
    report.named("working_set_mb", working_set_mb, "MB");
    report.notes.push(format!(
        "reference phase: {} frames of {FRAME_EVENTS} events at {REF_RATE} ev/s; {} events sent in all",
        ref_sum.n, sent_events
    ));
    report.notes.push(format!(
        "working set: server RSS grew {working_set_mb:.1} MB from spawn to the end of the reference phase, \
         holding {placed} open facts (of {VISITORS} visitors) and their closed history"
    ));
    report.gated("latency_ms", ref_sum.p50, "ms");
    report.gated("setup_s", setup_s, "s");
    report.gated("peak_rss_mb", peak_rss, "MB");
    Ok(Measured {
        building,
        frames,
        ref_group_commit,
        ack_p50_ms: ref_sum.p50,
        ref_stats: (before, after),
    })
}

/// Compare a `select ?v ?r` reply with the expected room per visitor.
pub fn check_positions(reply: &Json, expect: &[Option<u16>], report: &mut Report) {
    let Some(rows) = reply.get("rows").and_then(Json::as_array) else {
        report.fail(format!("position query failed: {reply}"));
        return;
    };
    let mut got: Vec<Option<u16>> = vec![None; expect.len()];
    for row in rows {
        let v = row
            .get("v")
            .and_then(Json::as_str)
            .and_then(|v| v.strip_prefix('v'));
        let r = row
            .get("r")
            .and_then(Json::as_str)
            .and_then(|r| r.strip_prefix("room"));
        match (
            v.and_then(|v| v.parse::<usize>().ok()),
            r.and_then(|r| r.parse::<u16>().ok()),
        ) {
            (Some(v), Some(r)) if v < got.len() && got[v].is_none() => got[v] = Some(r),
            _ => report.mismatch(format!("unexpected position row {row}")),
        }
    }
    let wrong = got.iter().zip(expect).filter(|(g, e)| g != e).count();
    if wrong > 0 {
        report.failed += wrong as u64;
        report.mismatch(format!(
            "{wrong} visitor position(s) differ from the oracle (of {})",
            expect.iter().filter(|e| e.is_some()).count()
        ));
    }
    report.attempted += 1;
}

/// Replay the frames the untraced run sent through each layer's public
/// functions in-process: decode, route, apply on the owning shard in
/// batches of the server's mean group commit during the reference
/// phase (the phase `ack_p50_ms` comes from), WAL append and sync.
fn replay(ctx: &Ctx, m: &Measured, report: &mut Report) -> Result<()> {
    let batch_events = m.ref_group_commit.max(1.0);
    let frames_per_batch =
        ((batch_events * SHARDS as f64 / FRAME_EVENTS as f64).round() as usize).max(1);
    let wal_dir = ctx.dir.join("trace-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let base = wal_dir.join("wal");
    let mut engines = Vec::new();
    for _ in 0..SHARDS {
        let mut e = Engine::new(EngineConfig::default());
        e.add_rules_text(gen::BUILDING_RULES)
            .map_err(|e| e.to_string())?;
        engines.push(e);
    }
    let mut wp = WritePath::new(engines, SHARDS, "wire.binary_decode")?;
    let mut wals = (0..SHARDS)
        .map(|s| WalWriter::create(&shard_segment_path(&base, s, 0), FsyncPolicy::OnSnapshot))
        .collect::<std::result::Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;

    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    let budget = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    for (req, batch) in m.frames.chunks(frames_per_batch).enumerate() {
        if Instant::now() > budget {
            break;
        }
        let req = req as u64 + 1;
        let root = wp.t.begin("write", 0, req);
        let mut evs = Vec::new();
        for f in batch {
            let frame = wp.decode(root, req, || {
                let binary::FrameStatus::Ready { end } =
                    binary::check_frame(f, binary::DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?
                else {
                    return Err("generated frame incomplete".into());
                };
                binary::decode_payload(&f[binary::HEADER_LEN..end]).map_err(|e| e.to_string())
            })?;
            if let Frame::Batch { events, .. } = frame {
                evs.extend(events);
            }
        }
        for (s, part) in wp.route(root, req, evs).into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            wp.apply(root, req, s, part);
            let ops = wp.engines[s].take_journal();
            let id = wp.t.begin("temporal.wal_append", root, req);
            let t0 = Instant::now();
            wals[s].append(&ops).map_err(|e| e.to_string())?;
            append_us.push(t0.elapsed().as_secs_f64() * 1e6);
            wp.t.end(id);
            let id = wp.t.begin("temporal.wal_sync", root, req);
            let t0 = Instant::now();
            wals[s].sync().map_err(|e| e.to_string())?;
            sync_us.push(t0.elapsed().as_secs_f64() * 1e6);
            wp.t.end(id);
        }
        wp.t.end(root);
    }
    let wal_bytes: u64 = wals.iter().map(|w| w.stats().bytes).sum();
    drop(wals);
    let t0 = Instant::now();
    let recovered = recover_shards(None, Some(&base), SHARDS).map_err(|e| e.to_string())?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let open: usize = recovered.iter().map(|r| r.store.open_fact_count()).sum();
    let stored: usize = recovered.iter().map(|r| r.store.stored_fact_count()).sum();
    let events = wp.events;
    let expect = gen::rooms_after(&m.building.moves, VISITORS, events as usize);
    if open != expect.iter().filter(|r| r.is_some()).count() {
        report.mismatch(format!(
            "replay recovered {open} open facts, oracle has a different count"
        ));
    }

    wp.report(report);
    let ev = events.max(1) as f64;
    report.layer("temporal.wal_append_us", stats::median(&append_us));
    report.layer("temporal.wal_sync_us", stats::median(&sync_us));
    report.layer("temporal.wal_bytes_per_event", wal_bytes as f64 / ev);
    report.layer("temporal.recover_ms", recover_ms);
    report.layer("temporal.state_bytes", proc::dir_bytes(&wal_dir) as f64);
    report.layer("temporal.open_facts", open as f64);
    report.layer("temporal.stored_facts", stored as f64);
    replay::server_layers(&m.ref_stats.0, &m.ref_stats.1, report);
    replay::ledger(
        report,
        &wp.t,
        &[
            "wire.binary_decode",
            "core.route",
            "core.apply",
            "temporal.wal_append",
            "temporal.wal_sync",
        ],
        m.ack_p50_ms,
        "ack_p50_ms",
    );
    report.notes.push(format!(
        "replay: {events} events in batches of {frames_per_batch} frame(s) (reference-phase mean group commit {batch_events:.1} events/shard)"
    ));
    wp.t.write_jsonl(&ctx.dir.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(())
}
