//! Processes under test, the JSONL client, and the regime stamp.

use serde_json::Value as Json;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Result<T> = std::result::Result<T, String>;

/// How long a server may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// How often [`run_measured`] samples its child's peak resident set.
const RSS_SAMPLE: Duration = Duration::from_millis(2);

/// A running `fenestrad`. Dropping it kills the process and waits for
/// it, so no error path leaves one behind.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Spawn `fenestrad --addr 127.0.0.1:0 ARGS…` with stderr captured
    /// in `log`, and wait until it prints the address it bound.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server> {
        let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only complete lines: the server may be mid-write.
            if let Some(addr) = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix("fenestrad: listening on "))
            {
                server.addr = addr.trim().to_string();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "fenestrad exited ({status}) before listening:\n{text}"
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("fenestrad did not start within {START_TIMEOUT:?}"));
            }
            // Short polls: set-up takes a few milliseconds, and a 1 ms
            // poll step would be a large share of it.
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// The process's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        status_mb(self.child.id(), "VmHWM")
    }

    /// The process's current resident set (`VmRSS`), in MB.
    pub fn rss_mb(&self) -> Result<f64> {
        status_mb(self.child.id(), "VmRSS")
    }

    /// Shard and reactor threads of the running server, counted by
    /// their names (the kernel keeps 15 bytes of a thread name).
    pub fn shape(&self) -> Result<(usize, usize)> {
        let dir = format!("/proc/{}/task", self.child.id());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .collect();
        let count = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
        Ok((count("fenestra-shard"), count("fenestra-reacto")))
    }

    /// Wait for a graceful exit (after a `shutdown` command).
    pub fn wait_exit(mut self, timeout: Duration) -> Result<()> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("fenestrad exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("fenestrad did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `Vm…` field of a live process's `/proc` status, in MB.
fn status_mb(pid: u32, field: &str) -> Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc status"))
}

/// Run `cmd` to completion with stderr captured in `log`; returns its
/// stdout, its wall time in seconds from spawn to exit, and its peak
/// resident set in MB: the child's own `VmHWM`,
/// sampled every [`RSS_SAMPLE`] while it runs. (`wait4`'s `ru_maxrss`
/// will not do: it includes the parent's resident set at the spawn.)
pub fn run_measured(cmd: &mut Command, log: &Path) -> Result<(String, f64, f64)> {
    let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let pid = child.id();
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut peak: f64 = 0.0;
            while !done.load(Ordering::Acquire) {
                // Fails once the child has exited; its last sample stands.
                if let Ok(mb) = status_mb(pid, "VmHWM") {
                    peak = peak.max(mb);
                }
                std::thread::sleep(RSS_SAMPLE);
            }
            peak
        })
    };
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let status = child.wait();
    let wall_s = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    let peak_rss_mb = sampler
        .join()
        .map_err(|_| "RSS sampler panicked".to_string())?;
    read.map_err(|e| format!("read stdout: {e}"))?;
    let status = status.map_err(|e| format!("wait: {e}"))?;
    if !status.success() {
        let err = std::fs::read_to_string(log).unwrap_or_default();
        return Err(format!("exited with {status}: {err}"));
    }
    Ok((out, wall_s, peak_rss_mb))
}

/// A line-oriented JSONL connection with its own read buffer, so reads
/// can time out without losing a partial line.
pub struct Jsonl {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Jsonl {
    pub fn connect(addr: &str) -> Result<Jsonl> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Jsonl {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    pub fn send(&mut self, line: &str) -> Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next line, or `None` if `deadline` passes first.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let line =
                    String::from_utf8_lossy(&self.buf[self.start..self.start + pos]).into_owned();
                self.start += pos + 1;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(line));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            self.stream
                .set_read_timeout(Some((deadline - now).max(Duration::from_micros(100))))
                .map_err(|e| e.to_string())?;
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by server".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// The next line; an error after `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Result<String> {
        self.recv_until(Instant::now() + timeout)?
            .ok_or_else(|| format!("no reply within {timeout:?}"))
    }

    /// One request and its reply line, parsed.
    pub fn call(&mut self, line: &str, timeout: Duration) -> Result<Json> {
        self.send(line)?;
        let reply = self.recv(timeout)?;
        serde_json::from_str(&reply).map_err(|e| format!("bad reply `{reply}`: {e:?}"))
    }

    /// `{"cmd":"sync"}`, skipping watch deltas that arrive first.
    pub fn sync(&mut self, timeout: Duration, mut on_other: impl FnMut(&str)) -> Result<()> {
        self.send(r#"{"cmd":"sync"}"#)?;
        let deadline = Instant::now() + timeout;
        loop {
            let line = self.recv_until(deadline)?.ok_or("sync barrier timed out")?;
            if line.contains("\"synced\":true") {
                return Ok(());
            }
            on_other(&line);
        }
    }
}

/// Spawn a server and time it from spawn until a `sync` round trip
/// succeeds — the moment the first timed request could be sent.
pub fn spawn_ready(bin: &Path, args: &[String], log: &Path) -> Result<(Server, f64)> {
    let t0 = Instant::now();
    let server = Server::spawn(bin, args, log)?;
    let mut c = Jsonl::connect(&server.addr)?;
    c.sync(START_TIMEOUT, |_| {})?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Copy every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Total bytes of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// What the run's numbers depend on besides the code.
pub struct Regime {
    pub nproc: usize,
    pub fsync_p50_ms: f64,
    /// Median time of a fixed single-threaded CPU walk: a shared host's
    /// speed swings, and CPU-bound figures swing with it.
    pub cpu_probe_ms: f64,
    /// Per-core L2 and last-level cache of CPU 0, in KiB, as the kernel
    /// reports them (a virtual machine may report its host's).
    pub l2_kib: Option<u64>,
    pub llc_kib: Option<u64>,
    pub commit: String,
}

impl Regime {
    /// Probe the machine: cores, caches, CPU speed, and the median of
    /// 20 small write+fsync pairs in `dir` (where the WAL lives).
    pub fn probe(dir: &Path) -> Result<Regime> {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let path = dir.join("fsync-probe");
        let mut f = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let mut samples = Vec::new();
        for _ in 0..20 {
            let t0 = Instant::now();
            f.write_all(&[0u8; 4096]).map_err(|e| e.to_string())?;
            f.sync_data().map_err(|e| e.to_string())?;
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        drop(f);
        let _ = std::fs::remove_file(&path);
        Ok(Regime {
            nproc,
            fsync_p50_ms: crate::stats::median(&samples),
            cpu_probe_ms: cpu_probe_ms(),
            l2_kib: cache_kib(2),
            llc_kib: (3..=4).rev().find_map(cache_kib),
            commit: source_id(),
        })
    }

    /// The stamp line; `server` is the shard and reactor thread count
    /// of the process under test, when it is a server.
    pub fn line(&self, server: Option<(usize, usize)>) -> String {
        let kib = |k: Option<u64>| k.map_or("?".to_string(), |k| k.to_string());
        let (shards, reactors) = match server {
            Some((s, r)) => (s.to_string(), r.to_string()),
            None => ("-".into(), "-".into()),
        };
        format!(
            "regime: nproc={} fsync_p50_ms={:.3} cpu_probe_ms={:.3} l2_kib={} llc_kib={} shards={shards} reactors={reactors} commit={}",
            self.nproc,
            self.fsync_p50_ms,
            self.cpu_probe_ms,
            kib(self.l2_kib),
            kib(self.llc_kib),
            self.commit
        )
    }
}

/// Median of five FNV-1a passes over a 4 MiB buffer, in ms.
fn cpu_probe_ms() -> f64 {
    let buf: Vec<u8> = (0..4u32 << 20).map(|i| i as u8).collect();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &buf {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        std::hint::black_box(h);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// Size in KiB of CPU 0's unified or data cache at `level`.
fn cache_kib(level: u32) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(base).ok()?.flatten().find_map(|e| {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
        let kind = read("type")?;
        (read("level")?.trim() == level.to_string() && kind.trim() != "Instruction")
            .then(|| read("size")?.trim().strip_suffix('K')?.parse().ok())
            .flatten()
    })
}

/// The checked-out commit when run from a git work tree, else a digest
/// of the sources the benchmark builds (the checkout may not be a
/// repository).
fn source_id() -> String {
    if let Some(head) = git_head(Path::new(".git")) {
        return head;
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over paths and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

fn collect_files(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            let path = e.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&path, out);
        }
    }
}
