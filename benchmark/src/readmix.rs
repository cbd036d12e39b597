//! `read-mix`: reads and watches beside a modest write stream.
//!
//! `fenestrad --shards 2` recovers a preloaded building history
//! (hundreds of thousands of closed intervals) from its snapshot. One
//! JSONL connection writes single events at a fixed open-loop rate far
//! under capacity; a second holds selective watches ("who is in room
//! k") and issues closed-loop reads from a seeded mix of legacy
//! `asof`/`history` statements, SQL current-state selects and a SQL
//! windowed aggregate. The WAL runs with `--fsync on-snapshot`: it is
//! the recovery source, never an fsync cost.

use crate::gen::{self, Building, WriterMove};
use crate::ingest::check_positions;
use crate::proc::{self, Jsonl, Result, Server};
use crate::replay::{self, stat, WritePath};
use crate::stats::{self, Latencies};
use crate::{Ctx, Report};
use fenestra_base::value::Value;
use fenestra_core::shard::{merge_history, merge_rows, partial_select};
use fenestra_core::{Engine, EngineConfig, Watch};
use fenestra_query::plan::{PhysicalPlan, WindowPhys};
use fenestra_query::{PlanCache, QueryOptions};
use fenestra_temporal::wal_file::recover_shards;
use fenestra_wire::binary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value as Json;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
const VISITORS: usize = 20_000;
const ROOMS: usize = 40;
const PRELOAD_EVENTS: usize = 200_000;
const PRELOAD_FRAME: usize = 256;
/// Writer rate: far under capacity, so ack latency measures the
/// per-event path rather than a queue.
const WRITER_RATE: f64 = 100.0;
const WATCHED_ROOMS: usize = 4;
/// Servers spawned per run, each recovering the preloaded state; the
/// last one serves the workload. Their median peak resident set is
/// reported, because the shards recover in parallel and whether their
/// transient peaks overlap varies from spawn to spawn.
const SETUP_SPAWNS: usize = 7;
/// The writer phase is invalid when the generator ran later than this
/// at its p99 (ms).
pub const GEN_LAG_LIMIT_MS: f64 = 25.0;
const TIMEOUT: Duration = Duration::from_secs(60);

pub fn run(ctx: &Ctx) -> Result<Report> {
    let mut report = Report::default();
    let m = measure(ctx, &mut report)?;
    if ctx.trace {
        replay(ctx, &m, &mut report)?;
    }
    Ok(report)
}

// ----- the read mix ---------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Read {
    /// Legacy `select … asof T` over the preloaded history.
    AsOf { room: u16, t: u64 },
    /// Legacy `history v<i> room`.
    History { visitor: u32 },
    /// SQL select of the current state (races the writer).
    Current { room: u16 },
    /// SQL `GROUP BY room, tumbling(W) DURING a TO b`.
    Window { size: u64, from: u64, to: u64 },
}

impl Read {
    fn kind(&self) -> &'static str {
        match self {
            Read::AsOf { .. } => "asof",
            Read::History { .. } => "history",
            Read::Current { .. } => "select",
            Read::Window { .. } => "window",
        }
    }

    /// The statement text.
    fn statement(&self) -> String {
        match *self {
            Read::AsOf { room, t } => {
                format!("select ?v where {{ ?v room \"room{room}\" }} asof {t}")
            }
            Read::History { visitor } => format!("history v{visitor} room"),
            Read::Current { room } => {
                format!("SELECT entity FROM state WHERE room = \"room{room}\"")
            }
            Read::Window { size, from, to } => format!(
                "SELECT room, window_start, count(*) AS n FROM state \
                 GROUP BY room, tumbling({size}) DURING {from} TO {to}"
            ),
        }
    }

    fn request(&self) -> String {
        let stmt = self.statement().replace('"', "\\\"");
        format!("{{\"cmd\":\"query\",\"q\":\"{stmt}\"}}")
    }
}

/// Seeded read sequence over small literal sets, so the plan cache
/// sees both misses (first use of a statement) and hits.
fn reads(seed: u64, history: &Building, n: usize) -> Vec<Read> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5245_4144);
    let d = history.duration;
    let rooms: Vec<u16> = (0..8).map(|_| rng.gen_range(0..ROOMS as u16)).collect();
    // Instants spread evenly over the history (jittered), so the cost
    // of `asof` reads does not hinge on a few draws.
    let instants: Vec<u64> = (0..24u64)
        .map(|i| d * (2 * i + 1) / 48 + rng.gen_range(0..d / 96))
        .collect();
    let visitors: Vec<u32> = (0..12)
        .map(|_| history.moves[rng.gen_range(0..history.moves.len())].visitor)
        .collect();
    let windows: Vec<(u64, u64, u64)> = (0..4)
        .map(|i| {
            let size = if i % 2 == 0 { 60_000 } else { 300_000 };
            let from = rng.gen_range(0..d / 2);
            (size, from, from + d / 4)
        })
        .collect();
    (0..n)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=59 => Read::AsOf {
                room: rooms[rng.gen_range(0..rooms.len())],
                t: instants[rng.gen_range(0..instants.len())],
            },
            60..=79 => Read::History {
                visitor: visitors[rng.gen_range(0..visitors.len())],
            },
            80..=94 => Read::Current {
                room: rooms[rng.gen_range(0..rooms.len())],
            },
            _ => {
                let (size, from, to) = windows[rng.gen_range(0..windows.len())];
                Read::Window { size, from, to }
            }
        })
        .collect()
}

/// Answers for the reads, from the generator's ground truth. The
/// preloaded, closed part of history is compared exactly. Current
/// state races the writer, so a room's rows are bounded from both
/// sides: each writer move touches a distinct visitor, so visitors the
/// writer never moves stay where the preload left them.
struct Oracle<'a> {
    history: &'a Building,
    by_visitor: HashMap<u32, Vec<gen::Stay>>,
    /// Each room's members when the run starts.
    start_members: HashMap<u16, BTreeSet<u32>>,
    /// The room each writer move takes its visitor to.
    moved_to: HashMap<u32, u16>,
    /// Expected rows of `asof` and window reads, rendered and sorted.
    rows: HashMap<Read, Vec<String>>,
}

impl<'a> Oracle<'a> {
    fn new(history: &'a Building, writes: &[WriterMove]) -> Oracle<'a> {
        let mut by_visitor: HashMap<u32, Vec<gen::Stay>> = HashMap::new();
        for s in &history.stays {
            by_visitor.entry(s.visitor).or_default().push(*s);
        }
        let mut start_members: HashMap<u16, BTreeSet<u32>> = HashMap::new();
        let start = gen::rooms_after(&history.moves, history.visitors, history.moves.len());
        for (v, room) in start.iter().enumerate() {
            if let Some(room) = room {
                start_members.entry(*room).or_default().insert(v as u32);
            }
        }
        Oracle {
            history,
            by_visitor,
            start_members,
            moved_to: writes.iter().map(|m| (m.visitor, m.to)).collect(),
            rows: HashMap::new(),
        }
    }

    /// A current-state read of `room` holds every start member the
    /// writer does not move, and nobody but start members and visitors
    /// the writer moves into the room, each once.
    fn check_current(&self, room: u16, rows: &[Json]) -> Option<String> {
        let empty = BTreeSet::new();
        let start = self.start_members.get(&room).unwrap_or(&empty);
        let mut seen = BTreeSet::new();
        for row in rows {
            let v = row
                .get("entity")
                .and_then(Json::as_str)
                .and_then(|e| e.strip_prefix('v'))
                .and_then(|v| v.parse::<u32>().ok());
            let Some(v) = v else {
                return Some(format!("malformed row {row}"));
            };
            let possible = start.contains(&v) || self.moved_to.get(&v) == Some(&room);
            if !possible || !seen.insert(v) {
                return Some(format!(
                    "row {row} is not a member of room{room} during the run"
                ));
            }
        }
        let missing = start
            .iter()
            .filter(|v| !self.moved_to.contains_key(v) && !seen.contains(v))
            .count();
        (missing > 0).then(|| format!("{missing} unmoved member(s) of room{room} missing"))
    }

    /// The expected rows of an `asof` or window read.
    fn expected_rows(&mut self, read: &Read) -> &Vec<String> {
        let stays = &self.history.stays;
        self.rows.entry(*read).or_insert_with(|| {
            let mut out: Vec<String> = match *read {
                Read::AsOf { room, t } => stays
                    .iter()
                    .filter(|s| s.room == room && s.from <= t && s.until.is_none_or(|u| t < u))
                    .map(|s| format!("v{}", s.visitor))
                    .collect(),
                Read::Window { size, from, to } => {
                    let mut counts: BTreeMap<(u16, u64), u64> = BTreeMap::new();
                    for s in stays {
                        if s.from < to && s.until.is_none_or(|u| u > from) {
                            *counts.entry((s.room, s.from / size * size)).or_default() += 1;
                        }
                    }
                    counts
                        .into_iter()
                        .map(|((room, start), n)| format!("room{room}/{start}/{n}"))
                        .collect()
                }
                Read::History { .. } | Read::Current { .. } => Vec::new(),
            };
            out.sort();
            out
        })
    }

    /// `None` when the reply matches, else why not.
    fn check(&mut self, read: &Read, reply: &Json) -> Option<String> {
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Some(format!("{} failed: {reply}", read.statement()));
        }
        let bad = |why: &str| Some(format!("{}: {why}", read.statement()));
        let Some(rows) = rows(reply) else {
            return match read {
                Read::History { visitor } => self.check_history(read, *visitor, reply),
                _ => bad("no rows"),
            };
        };
        let render = |row: &Json| -> String {
            match read {
                Read::Window { .. } => format!(
                    "{}/{}/{}",
                    row.get("room").and_then(Json::as_str).unwrap_or("?"),
                    row.get("window_start").and_then(Json::as_u64).unwrap_or(0),
                    row.get("n").and_then(Json::as_u64).unwrap_or(0)
                ),
                _ => row
                    .get("v")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
            }
        };
        match read {
            Read::AsOf { .. } | Read::Window { .. } => {
                let mut got: Vec<String> = rows.iter().map(render).collect();
                got.sort();
                let want = self.expected_rows(read);
                (&got != want).then(|| {
                    format!(
                        "{}: {} rows, oracle {}",
                        read.statement(),
                        got.len(),
                        want.len()
                    )
                })
            }
            Read::Current { room } => self
                .check_current(*room, rows)
                .map(|why| format!("{}: {why}", read.statement())),
            Read::History { .. } => bad("rows instead of a history"),
        }
    }

    fn check_history(&self, read: &Read, visitor: u32, reply: &Json) -> Option<String> {
        let bad = |why: &str| Some(format!("{}: {why}", read.statement()));
        let Some(spans) = reply.get("history").and_then(Json::as_array) else {
            return bad("no history array");
        };
        let want = &self.by_visitor[&visitor];
        let d = self.history.duration;
        let preloaded: Vec<&Json> = spans
            .iter()
            .filter(|s| s.get("start").and_then(Json::as_u64).is_some_and(|t| t < d))
            .collect();
        if preloaded.len() != want.len() {
            return bad("span count differs from the oracle");
        }
        for (s, w) in preloaded.iter().zip(want) {
            let end = s.get("end").and_then(Json::as_u64);
            let end_ok = match w.until {
                Some(u) => end == Some(u),
                // Open at preload end; a writer move may close it later.
                None => end.is_none_or(|e| e > d),
            };
            if s.get("start").and_then(Json::as_u64) != Some(w.from)
                || s.get("value").and_then(Json::as_str) != Some(&format!("room{}", w.room))
                || !end_ok
            {
                return bad(&format!("span {s} differs from the oracle"));
            }
        }
        None
    }
}

fn rows(reply: &Json) -> Option<&Vec<Json>> {
    reply.get("rows").and_then(Json::as_array)
}

// ----- the untraced run -----------------------------------------------------

fn server_args(ctx: &Ctx, dir: &Path) -> Vec<String> {
    [
        "--shards",
        "2",
        "--wal",
        &dir.join("wal").to_string_lossy(),
        "--snapshot",
        &dir.join("snap.json").to_string_lossy(),
        "--fsync",
        "on-snapshot",
        "--max-lateness-ms",
        "0",
        "--rules",
        &ctx.dir.join("building.rules").to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Load the history into a server and shut it down, leaving its
/// snapshot in `dir` — the state every measured server recovers.
fn preload(ctx: &Ctx, dir: &Path, history: &Building) -> Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let server = Server::spawn(
        &ctx.fenestrad,
        &server_args(ctx, dir),
        &ctx.dir.join("preload.log"),
    )?;
    let mut s = TcpStream::connect(&server.addr).map_err(|e| e.to_string())?;
    s.write_all(&binary::MAGIC).map_err(|e| e.to_string())?;
    for f in gen::frames(&history.moves, PRELOAD_FRAME) {
        s.write_all(&f).map_err(|e| e.to_string())?;
    }
    s.write_all(&binary::encode_sync())
        .map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut r = std::io::BufReader::new(s);
    loop {
        match binary::read_frame(&mut r, binary::DEFAULT_MAX_FRAME).map_err(|e| e.to_string())? {
            Some(binary::Frame::Ack { .. }) => {}
            Some(binary::Frame::Synced) => break,
            other => return Err(format!("preload: unexpected reply {other:?}")),
        }
    }
    let mut c = Jsonl::connect(&server.addr)?;
    c.call(r#"{"cmd":"shutdown"}"#, TIMEOUT)?;
    server.wait_exit(TIMEOUT)?;
    if !dir.join("snap.json.shard0").exists() {
        return Err("preload left no snapshot".into());
    }
    Ok(())
}

/// What the reader connection observed.
#[derive(Default)]
struct ReaderObs {
    latencies: Latencies,
    by_kind: BTreeMap<&'static str, Latencies>,
    issued: usize,
    /// `(watch room, visitor, sign)` → receive time.
    deltas: Vec<((u16, u32, i64), Instant)>,
    failures: Vec<String>,
    elapsed_s: f64,
}

/// Parse a watch delta line into `(room, visitor, sign)`.
fn parse_delta(line: &str) -> Option<(u16, u32, i64)> {
    let v: Json = serde_json::from_str(line).ok()?;
    let room = v.get("watch")?.as_str()?.strip_prefix('w')?.parse().ok()?;
    let sign = v.get("sign")?.as_i64()?;
    let visitor = v
        .get("row")?
        .get("v")?
        .as_str()?
        .strip_prefix('v')?
        .parse()
        .ok()?;
    Some((room, visitor, sign))
}

fn reader(
    mut conn: Jsonl,
    reads: Vec<Read>,
    mut oracle: Oracle<'_>,
    stop: &AtomicBool,
) -> Result<ReaderObs> {
    let mut obs = ReaderObs::default();
    let t0 = Instant::now();
    for read in &reads {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let sent = Instant::now();
        conn.send(&read.request())?;
        let reply = loop {
            let line = conn.recv(TIMEOUT)?;
            if line.starts_with("{\"watch\"") {
                match parse_delta(&line) {
                    Some(key) => obs.deltas.push((key, Instant::now())),
                    None => obs.failures.push(format!("unparseable delta {line}")),
                }
                continue;
            }
            break line;
        };
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        obs.issued += 1;
        let reply: Json = serde_json::from_str(&reply).map_err(|e| format!("bad reply: {e:?}"))?;
        match oracle.check(read, &reply) {
            None => {
                obs.latencies.push(ms);
                obs.by_kind.entry(read.kind()).or_default().push(ms);
            }
            Some(why) => {
                obs.latencies.push_failed();
                obs.failures.push(why);
            }
        }
    }
    obs.elapsed_s = t0.elapsed().as_secs_f64();
    if !stop.load(Ordering::Acquire) {
        obs.failures
            .push(format!("read sequence of {} exhausted early", reads.len()));
    }
    // Every delta the writer caused precedes this barrier's reply.
    conn.sync(TIMEOUT, |line| match parse_delta(line) {
        Some(key) => obs.deltas.push((key, Instant::now())),
        None => obs.failures.push(format!("unexpected line {line}")),
    })?;
    Ok(obs)
}

/// What the untraced run leaves for the traced replay.
pub struct Measured {
    writes: Vec<WriterMove>,
    reads: Vec<Read>,
    watched: Vec<u16>,
    reads_issued: usize,
    query_p50_ms: f64,
    ack_p50_ms: f64,
    pristine: std::path::PathBuf,
    /// `stats` replies before and after the writer and reader ran.
    stats: (Json, Json),
}

fn measure(ctx: &Ctx, report: &mut Report) -> Result<Measured> {
    let history = gen::building(ctx.seed, VISITORS, ROOMS, PRELOAD_EVENTS);
    let n_writes = (WRITER_RATE * ctx.seconds).ceil() as usize;
    let writes = gen::writer_moves(ctx.seed, &history, n_writes);
    // Far more reads than any run issues; the reader stops on time.
    let all_reads = reads(ctx.seed, &history, 200_000);
    let watched: Vec<u16> = {
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0057_4154_4348);
        let mut rooms: Vec<u16> = (0..ROOMS as u16).collect();
        for i in (1..rooms.len()).rev() {
            rooms.swap(i, rng.gen_range(0..=i));
        }
        rooms.truncate(WATCHED_ROOMS);
        rooms.sort_unstable();
        rooms
    };
    std::fs::write(ctx.dir.join("building.rules"), gen::BUILDING_RULES)
        .map_err(|e| e.to_string())?;
    let pristine = ctx.dir.join("pristine");
    preload(ctx, &pristine, &history)?;

    // Set-up: spawn → recovered and answering, from a fresh copy of
    // the preloaded state each time.
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut server: Option<Server> = None;
    for k in 0..SETUP_SPAWNS {
        if let Some(s) = server.take() {
            peaks.push(s.peak_rss_mb()?);
        }
        let dir = ctx.dir.join(format!("run{k}"));
        proc::copy_dir(&pristine, &dir)?;
        let (s, secs) = proc::spawn_ready(
            &ctx.fenestrad,
            &server_args(ctx, &dir),
            &ctx.dir.join(format!("fenestrad{k}.log")),
        )?;
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one spawn");
    report.server_shape = Some(server.shape()?);

    // Reader connection: watches first, initial rows drained by a sync.
    let mut rconn = Jsonl::connect(&server.addr)?;
    for room in &watched {
        rconn.send(&format!(
            "{{\"cmd\":\"watch\",\"name\":\"w{room}\",\"q\":\"select ?v where {{ ?v room \\\"room{room}\\\" }}\"}}"
        ))?;
    }
    let mut members: BTreeMap<u16, BTreeSet<u32>> =
        watched.iter().map(|r| (*r, BTreeSet::new())).collect();
    let mut setup_errors = Vec::new();
    rconn.sync(TIMEOUT, |line| {
        if line.starts_with("{\"ok\":true,\"watch\"") {
            return;
        }
        match parse_delta(line) {
            Some((room, v, 1)) => {
                members.entry(room).or_default().insert(v);
            }
            _ => setup_errors.push(format!("watch registration: unexpected {line}")),
        }
    })?;
    let start_rooms = gen::rooms_after(&history.moves, VISITORS, history.moves.len());
    for room in &watched {
        let want: BTreeSet<u32> = (0..VISITORS as u32)
            .filter(|v| start_rooms[*v as usize] == Some(*room))
            .collect();
        if members[room] != want {
            setup_errors.push(format!(
                "watch w{room}: initial rows differ from the oracle"
            ));
        }
    }
    for e in setup_errors {
        report.fail(e);
    }

    // Writer connection (this thread) and reader thread run together.
    let mut wconn = Jsonl::connect(&server.addr)?;
    let stop = AtomicBool::new(false);
    let oracle = Oracle::new(&history, &writes);
    let before = wconn.call(r#"{"cmd":"stats"}"#, TIMEOUT)?;
    let (writer_out, reader_out) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| reader(rconn, all_reads.clone(), oracle, &stop));
        let w = write_open_loop(&mut wconn, &writes);
        stop.store(true, Ordering::Release);
        let r = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        (w, r)
    });
    let w = writer_out?;
    let r = reader_out??;

    // Watch deltas: each writer move into or out of a watched room
    // causes exactly one, timed from the move's scheduled send.
    let is_watched = |room: u16| watched.binary_search(&room).is_ok();
    let mut expected: HashMap<(u16, u32, i64), Instant> = HashMap::new();
    for (m, at) in writes.iter().zip(&w.scheduled) {
        if is_watched(m.to) {
            expected.insert((m.to, m.visitor, 1), *at);
        }
        if is_watched(m.from) {
            expected.insert((m.from, m.visitor, -1), *at);
        }
    }
    let mut watch_lat = Latencies::default();
    let expected_n = expected.len();
    for (key, at) in &r.deltas {
        let (room, v, sign) = *key;
        let set = members.entry(room).or_default();
        if sign > 0 {
            set.insert(v);
        } else {
            set.remove(&v);
        }
        match expected.remove(key) {
            Some(sched) => watch_lat.push(at.saturating_duration_since(sched).as_secs_f64() * 1e3),
            None => report.mismatch(format!("unexpected watch delta {key:?}")),
        }
    }
    for key in expected.keys() {
        watch_lat.push_failed();
        report.fail(format!("missing watch delta {key:?}"));
    }
    report.attempted += expected_n as u64;

    // Final state: the oracle's rooms after every write.
    let mut final_rooms = start_rooms.clone();
    for m in &writes {
        final_rooms[m.visitor as usize] = Some(m.to);
    }
    for room in &watched {
        let want: BTreeSet<u32> = (0..VISITORS as u32)
            .filter(|v| final_rooms[*v as usize] == Some(*room))
            .collect();
        if members[room] != want {
            report.fail(format!(
                "watch w{room}: membership after the final sync differs from the oracle"
            ));
        }
    }
    peaks.push(server.peak_rss_mb()?);
    let peak_rss = stats::median(&peaks);
    report
        .notes
        .push(format!("peak RSS per spawn (MB): {peaks:.0?}"));
    let mut ctl = wconn;
    let stats_reply = ctl.call(r#"{"cmd":"stats"}"#, TIMEOUT)?;
    let positions = ctl.call(
        r#"{"cmd":"query","q":"select ?v ?r where { ?v room ?r }"}"#,
        TIMEOUT,
    )?;
    drop(server);
    check_positions(&positions, &final_rooms, report);

    report.attempted += (writes.len() + r.issued) as u64;
    report.failed += w.failed + r.failures.len() as u64;
    for f in w.failures.into_iter().chain(r.failures) {
        report.mismatch(f);
    }

    let q = r.latencies.summary();
    let a = w.latencies.summary();
    let ws = watch_lat.summary();
    let setup_s = stats::median(&setups);
    let qps = r.issued as f64 / r.elapsed_s;
    if w.gen_lag_p99_ms > GEN_LAG_LIMIT_MS {
        report.invalid.push(format!(
            "generator p99 lag {:.3} ms exceeds {GEN_LAG_LIMIT_MS} ms",
            w.gen_lag_p99_ms
        ));
    }
    report.named("query_p50_ms", q.p50, "ms");
    report.named(format!("query_{}_ms", q.tail_label()), q.tail_value(), "ms");
    report.named("watch_p50_ms", ws.p50, "ms");
    report.named(
        format!("watch_{}_ms", ws.tail_label()),
        ws.tail_value(),
        "ms",
    );
    report.named("ack_p50_ms", a.p50, "ms");
    report.named(format!("ack_{}_ms", a.tail_label()), a.tail_value(), "ms");
    report.named("queries_per_s", qps, "1/s");
    report.named("setup_s", setup_s, "s");
    report.named("peak_rss_mb", peak_rss, "MB");
    report.named("gen_lag_p99_ms", w.gen_lag_p99_ms, "ms");
    for (kind, l) in &r.by_kind {
        let s = l.summary();
        report.notes.push(format!(
            "reads {kind:<8} n={:<6} p50 {:.4} ms {} {:.4} ms",
            s.n,
            s.p50,
            s.tail_label(),
            s.tail_value()
        ));
    }
    let recovered_ops = stat(&stats_reply, &["server", "recovered_ops"], report);
    report.notes.push(format!(
        "{} writes at {WRITER_RATE} ev/s, {} reads, {} watch deltas expected over {} watched rooms; recovered {} ops at set-up",
        writes.len(),
        r.issued,
        expected_n,
        watched.len(),
        recovered_ops
    ));
    // Event-to-result latency: steadier than read latency on a shared
    // machine, and it moves with both the write and the read path.
    report.gated("latency_ms", ws.p50, "ms");
    report.gated("setup_s", setup_s, "s");
    report.gated("peak_rss_mb", peak_rss, "MB");
    Ok(Measured {
        writes,
        reads: all_reads,
        watched,
        reads_issued: r.issued,
        query_p50_ms: q.p50,
        ack_p50_ms: a.p50,
        pristine,
        stats: (before, stats_reply),
    })
}

struct WriterObs {
    latencies: Latencies,
    scheduled: Vec<Instant>,
    gen_lag_p99_ms: f64,
    failed: u64,
    failures: Vec<String>,
}

/// Send `writes` one line each on the open-loop schedule, reading acks
/// between sends; then a sync barrier.
fn write_open_loop(conn: &mut Jsonl, writes: &[WriterMove]) -> Result<WriterObs> {
    let interval = Duration::from_secs_f64(1.0 / WRITER_RATE);
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut obs = WriterObs {
        latencies: Latencies::default(),
        scheduled: Vec::with_capacity(writes.len()),
        gen_lag_p99_ms: 0.0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut lag = Vec::with_capacity(writes.len());
    let mut acked = 0usize;
    let on_line = |line: String, obs: &mut WriterObs, acked: &mut usize| {
        let at = Instant::now();
        let expect = format!("{{\"ok\":true,\"seq\":{}}}", *acked + 1);
        match obs.scheduled.get(*acked) {
            Some(sched) if line == expect => {
                obs.latencies
                    .push(at.duration_since(*sched).as_secs_f64() * 1e3);
            }
            _ => {
                obs.latencies.push_failed();
                obs.failed += 1;
                obs.failures
                    .push(format!("write ack `{line}`, expected `{expect}`"));
            }
        }
        *acked += 1;
    };
    for (k, m) in writes.iter().enumerate() {
        let scheduled = t0 + interval * k as u32;
        while let Some(line) = conn.recv_until(scheduled)? {
            on_line(line, &mut obs, &mut acked);
        }
        lag.push(
            Instant::now()
                .saturating_duration_since(scheduled)
                .as_secs_f64()
                * 1e3,
        );
        obs.scheduled.push(scheduled);
        conn.send(&m.line)?;
    }
    let deadline = Instant::now() + TIMEOUT;
    while acked < writes.len() {
        let line = conn
            .recv_until(deadline)?
            .ok_or("write acks missing at the deadline")?;
        on_line(line, &mut obs, &mut acked);
    }
    conn.sync(TIMEOUT, |line| {
        obs.failures
            .push(format!("unexpected line on the writer connection: {line}"))
    })?;
    lag.sort_by(f64::total_cmp);
    obs.gen_lag_p99_ms = stats::percentile(&lag, 0.99);
    Ok(obs)
}

// ----- the traced replay ----------------------------------------------------

/// Replay through each layer in-process: recover the preloaded state,
/// then interleave the writer's events (decode, route, apply, watch
/// poll) with the reads the untraced run issued (compile, per-shard
/// execution, merge), in the untraced run's proportion.
fn replay(ctx: &Ctx, m: &Measured, report: &mut Report) -> Result<()> {
    let snap = m.pristine.join("snap.json");
    let wal = m.pristine.join("wal");
    let t0 = Instant::now();
    let recovered = recover_shards(Some(&snap), Some(&wal), SHARDS).map_err(|e| e.to_string())?;
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let open: usize = recovered.iter().map(|r| r.store.open_fact_count()).sum();
    let stored: usize = recovered.iter().map(|r| r.store.stored_fact_count()).sum();
    let mut engines = Vec::new();
    for rec in recovered {
        let mut e = Engine::new(EngineConfig::default());
        e.restore_state(rec.store).map_err(|e| e.to_string())?;
        e.add_rules_text(gen::BUILDING_RULES)
            .map_err(|e| e.to_string())?;
        engines.push(e);
    }
    let cache = PlanCache::new(1024);
    let mut watches: Vec<Vec<Watch>> = Vec::new();
    for e in &engines {
        let mut ws = Vec::new();
        for room in &m.watched {
            let stmt = format!("select ?v where {{ ?v room \"room{room}\" }}");
            let (plan, _) = cache.get_or_compile(&stmt).map_err(|e| e.to_string())?;
            let mut w = Watch::from_plan(format!("w{room}").as_str(), plan);
            w.poll(&e.store());
            ws.push(w);
        }
        watches.push(ws);
    }

    let mut wp = WritePath::new(engines, SHARDS, "wire.jsonl_decode")?;
    let (mut polls, mut useful, mut poll_us) = (0u64, 0u64, Vec::new());
    let mut exec_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut compile_us, mut merge_us) = (Vec::new(), Vec::new());
    let (mut hits, mut lookups, mut rows_total) = (0u64, 0u64, 0u64);
    let n_writes = m.writes.len();
    let n_reads = m.reads_issued;
    let mut reads_done = 0usize;
    let mut req = 0u64;
    let budget = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut writes_done = 0usize;
    for (i, w) in m.writes.iter().enumerate() {
        if Instant::now() > budget {
            break;
        }
        req += 1;
        let root = wp.t.begin("write", 0, req);
        let ev = wp.decode(root, req, || {
            fenestra_wire::event_from_json(&w.line).map_err(|e| e.to_string())
        })?;
        let (s, part) = wp
            .route(root, req, vec![ev])
            .into_iter()
            .enumerate()
            .find(|(_, p)| !p.is_empty())
            .expect("one event lands on one shard");
        wp.apply(root, req, s, part);
        let id = wp.t.begin("core.watch_poll", root, req);
        let store = wp.engines[s].store();
        for watch in &mut watches[s] {
            let t0 = Instant::now();
            let deltas = watch.poll(&store);
            poll_us.push(t0.elapsed().as_secs_f64() * 1e6);
            polls += 1;
            useful += u64::from(!deltas.is_empty());
        }
        drop(store);
        wp.t.end(id);
        wp.t.end(root);
        writes_done += 1;

        // Reads in the untraced run's proportion to writes.
        let due = (i + 1) * n_reads / n_writes.max(1);
        while reads_done < due {
            let read = m.reads[reads_done];
            reads_done += 1;
            req += 1;
            let root = wp.t.begin("query", 0, req);
            let id = wp.t.begin("query.compile", root, req);
            let t0 = Instant::now();
            let (plan, hit) = cache
                .get_or_compile(&read.statement())
                .map_err(|e| e.to_string())?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            wp.t.end(id);
            lookups += 1;
            if hit {
                hits += 1;
            } else {
                compile_us.push(us);
            }
            let mut shard_us = 0.0;
            let rows = match &plan.physical {
                PhysicalPlan::Select { query } => {
                    let mut parts = Vec::new();
                    for e in &wp.engines {
                        let id = wp.t.begin("query.exec", root, req);
                        let t0 = Instant::now();
                        parts.push(
                            partial_select(&e.store(), query, QueryOptions::default())
                                .map_err(|e| e.to_string())?,
                        );
                        shard_us += t0.elapsed().as_secs_f64() * 1e6;
                        wp.t.end(id);
                    }
                    let id = wp.t.begin("query.merge", root, req);
                    let t0 = Instant::now();
                    let merged = merge_rows(query, parts);
                    merge_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    wp.t.end(id);
                    merged.len()
                }
                PhysicalPlan::History { entity, attr } => {
                    let mut parts = Vec::new();
                    for e in &wp.engines {
                        let id = wp.t.begin("query.exec", root, req);
                        let t0 = Instant::now();
                        let store = e.store();
                        if let Some(ent) = store.lookup_entity(*entity) {
                            parts.push(
                                store
                                    .history(ent, *attr)
                                    .into_iter()
                                    .map(|(iv, v, p)| {
                                        let v = match v {
                                            Value::Id(id) => store
                                                .entity_name(id)
                                                .map(Value::Str)
                                                .unwrap_or(Value::Id(id)),
                                            other => other,
                                        };
                                        (iv, v, p)
                                    })
                                    .collect(),
                            );
                        }
                        shard_us += t0.elapsed().as_secs_f64() * 1e6;
                        wp.t.end(id);
                    }
                    let id = wp.t.begin("query.merge", root, req);
                    let t0 = Instant::now();
                    let merged = merge_history(parts);
                    merge_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    wp.t.end(id);
                    merged.len()
                }
                PhysicalPlan::WindowAgg(w) => {
                    let mut batches = Vec::new();
                    for e in &wp.engines {
                        let id = wp.t.begin("query.exec", root, req);
                        let t0 = Instant::now();
                        batches.push(w.collect_facts(&e.store()).map_err(|e| e.to_string())?);
                        shard_us += t0.elapsed().as_secs_f64() * 1e6;
                        wp.t.end(id);
                    }
                    let id = wp.t.begin("query.merge", root, req);
                    let t0 = Instant::now();
                    let merged = w
                        .aggregate(WindowPhys::merge_fact_batches(batches))
                        .map_err(|e| e.to_string())?;
                    merge_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    wp.t.end(id);
                    merged.len()
                }
            };
            wp.t.end(root);
            rows_total += rows as u64;
            exec_us.entry(read.kind()).or_default().push(shard_us);
        }
    }

    wp.report(report);
    report.layer("core.watch_poll_us", stats::median(&poll_us));
    report.layer(
        "core.watch_useful_frac",
        useful as f64 / polls.max(1) as f64,
    );
    report.layer("temporal.recover_ms", recover_ms);
    report.layer("temporal.state_bytes", proc::dir_bytes(&m.pristine) as f64);
    report.layer("temporal.open_facts", open as f64);
    report.layer("temporal.stored_facts", stored as f64);
    let med = |v: Option<&Vec<f64>>| v.map_or(0.0, |v| stats::median(v));
    report.layer("query.compile_us", med(Some(&compile_us)));
    report.layer("query.cache_hit_frac", hits as f64 / lookups.max(1) as f64);
    for kind in ["select", "asof", "history", "window"] {
        report.layer(&format!("query.exec_us.{kind}"), med(exec_us.get(kind)));
    }
    report.layer("query.merge_us", med(Some(&merge_us)));
    report.layer(
        "query.rows_per_query",
        rows_total as f64 / lookups.max(1) as f64,
    );
    replay::server_layers(&m.stats.0, &m.stats.1, report);
    replay::ledger(
        report,
        &wp.t,
        &["query.compile", "query.exec", "query.merge"],
        m.query_p50_ms,
        "query_p50_ms",
    );
    let write_p50 = crate::trace::layer_self_p50(wp.t.spans());
    let write_ms: f64 = [
        "wire.jsonl_decode",
        "core.route",
        "core.apply",
        "core.watch_poll",
    ]
    .iter()
    .map(|n| write_p50.get(n).copied().unwrap_or(0.0) / 1e6)
    .sum();
    report.notes.push(format!(
        "ledger (write path) {write_ms:.4} ms of untraced ack_p50_ms {:.4} ms",
        m.ack_p50_ms
    ));
    report
        .notes
        .push(format!("replay: {writes_done} writes, {reads_done} reads"));
    wp.t.write_jsonl(&ctx.dir.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(visitors: &[u32]) -> Vec<Json> {
        visitors
            .iter()
            .map(|v| serde_json::from_str(&format!("{{\"entity\":\"v{v}\"}}")).unwrap())
            .collect()
    }

    /// Current-state rows must hold every member the writer leaves in
    /// place and nobody who is never in the room during the run.
    #[test]
    fn current_state_check_is_exact_for_unmoved_visitors() {
        let b = gen::building(6, 400, 10, 4_000);
        let writes = gen::writer_moves(6, &b, 50);
        let oracle = Oracle::new(&b, &writes);
        let room = writes[0].from;
        let start: Vec<u32> = oracle.start_members[&room].iter().copied().collect();
        let unmoved: Vec<u32> = start
            .iter()
            .copied()
            .filter(|v| !oracle.moved_to.contains_key(v))
            .collect();
        let moved_in: Vec<u32> = writes
            .iter()
            .filter(|m| m.to == room)
            .map(|m| m.visitor)
            .collect();
        assert!(unmoved.len() >= 2, "test room needs unmoved members");

        // Before any write, after all of them, and with movers arriving.
        assert_eq!(oracle.check_current(room, &rows(&start)), None);
        assert_eq!(oracle.check_current(room, &rows(&unmoved)), None);
        let mut after = unmoved.clone();
        after.extend(&moved_in);
        assert_eq!(oracle.check_current(room, &rows(&after)), None);

        // An empty reply, a missing member, an outsider, a duplicate.
        assert!(oracle.check_current(room, &[]).is_some());
        assert!(oracle.check_current(room, &rows(&unmoved[1..])).is_some());
        let outsider = (0..b.visitors as u32)
            .find(|v| !start.contains(v) && oracle.moved_to.get(v) != Some(&room))
            .unwrap();
        let mut with_outsider = unmoved.clone();
        with_outsider.push(outsider);
        assert!(oracle.check_current(room, &rows(&with_outsider)).is_some());
        let mut dup = unmoved.clone();
        dup.push(unmoved[0]);
        assert!(oracle.check_current(room, &rows(&dup)).is_some());
    }
}
