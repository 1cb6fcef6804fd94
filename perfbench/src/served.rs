//! The served workloads: the real `gdp-serve` binary, driven over TCP or
//! a Unix-domain socket by two closed-loop sessions.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{Mix, Rng, ServeOp, SessionRecord, Survey};
use crate::oracle;
use crate::stats::{peak_rss_mb, OpError, Samples, Tally};

/// Base image size: models × readings per model.
pub const SERVE_MODELS: usize = 8;
pub const SERVE_READINGS: usize = 500;
/// Closed-loop sessions (one connection and one client thread each); each
/// owns half of the models.
pub const SESSIONS: usize = 2;

/// A served workload: transport, traffic mix, operations per session per
/// round, and whether each round ends in a crash and restart.
#[derive(Clone, Copy, Debug)]
pub struct ServeWorkload {
    pub tcp: bool,
    pub mix: Mix,
    pub ops_per_session: usize,
    pub crash_restart: bool,
}

pub const READ_TCP: ServeWorkload = ServeWorkload {
    tcp: true,
    mix: Mix {
        write_pct: 10,
        block_pct: 0,
        block_len: 0,
    },
    ops_per_session: 40,
    crash_restart: false,
};

pub const WRITE_UNIX: ServeWorkload = ServeWorkload {
    tcp: false,
    mix: Mix {
        write_pct: 60,
        block_pct: 25,
        block_len: 4,
    },
    ops_per_session: 400,
    crash_restart: true,
};

/// Where a server listens, as the client reaches it.
#[derive(Clone, Debug)]
pub enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

/// A running `gdp-serve` process.
pub struct Server {
    child: Child,
    /// Reads the server's log to its end, so that it never blocks on a
    /// full pipe; `None` once the server is reaped.
    log: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn `gdp-serve` in `dir` over the durable files there and wait
    /// until it reports `listening`. Returns the server and the time from
    /// spawn to `listening`.
    pub fn spawn(bin: &Path, dir: &Path, addr: &Addr) -> Result<(Server, Duration), String> {
        let mut cmd = Command::new(bin);
        match addr {
            Addr::Tcp(a) => cmd.args(["--tcp", a]),
            Addr::Unix(p) => cmd.args([
                "--unix",
                p.file_name()
                    .and_then(|n| n.to_str())
                    .expect("socket file name"),
            ]),
        };
        cmd.args(["--wal", "spec.wal", "--load", "base.gdp"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let t = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let mut seen = Vec::new();
        loop {
            match lines.next() {
                Some(Ok(line)) if line.contains("listening on") => break,
                Some(Ok(line)) => seen.push(line),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("gdp-serve exited before listening: {seen:?}"));
                }
            }
        }
        let ready = t.elapsed();
        let log = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok((
            Server {
                child,
                log: Some(log),
            },
            ready,
        ))
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// SIGKILL the server and reap it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        self.reap();
    }

    /// Wait for the server to exit by itself (after `:shutdown`).
    pub fn wait(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

impl Drop for Server {
    /// A server still running when its handle goes (an early return on an
    /// error) is killed and reaped too.
    fn drop(&mut self) {
        if self.log.is_some() {
            let _ = self.child.kill();
            self.reap();
        }
    }
}

/// One protocol session: send a line, read the reply up to the prompt.
pub struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

const PROMPT: &[u8] = b"gdp> ";

/// A reply slower than this fails the operation instead of hanging the
/// run.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

impl Client {
    /// Connect and read the banner up to the first prompt. Client sockets
    /// keep their default options.
    pub fn connect(addr: &Addr) -> Result<Client, String> {
        let (r, w): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match addr {
            Addr::Tcp(a) => {
                let s = TcpStream::connect(a).map_err(|e| format!("connect {a}: {e}"))?;
                s.set_read_timeout(Some(REPLY_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                (
                    Box::new(s.try_clone().map_err(|e| e.to_string())?),
                    Box::new(s),
                )
            }
            Addr::Unix(p) => {
                let s =
                    UnixStream::connect(p).map_err(|e| format!("connect {}: {e}", p.display()))?;
                s.set_read_timeout(Some(REPLY_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                (
                    Box::new(s.try_clone().map_err(|e| e.to_string())?),
                    Box::new(s),
                )
            }
        };
        Client::over(r, w)
    }

    /// A session over an already connected stream pair.
    pub fn over(r: Box<dyn Read + Send>, w: Box<dyn Write + Send>) -> Result<Client, String> {
        let mut client = Client {
            reader: BufReader::new(r),
            writer: w,
        };
        let banner = client.read_reply()?;
        if !banner.iter().any(|l| l.starts_with("gdp-serve")) {
            return Err(format!("unexpected banner {banner:?}"));
        }
        Ok(client)
    }

    fn read_reply(&mut self) -> Result<Vec<String>, String> {
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let n = self
                .reader
                .read_until(b' ', &mut buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "connection closed after {:?}",
                    String::from_utf8_lossy(&buf)
                ));
            }
            if buf.ends_with(PROMPT) {
                buf.truncate(buf.len() - PROMPT.len());
                let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
                return Ok(text.lines().map(str::to_string).collect());
            }
        }
    }

    /// Send one line and return the reply lines before the next prompt.
    pub fn request(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.read_reply()
    }
}

/// Parse `ok (N facts, 0 rules, 0 constraints) committed as seq S`.
/// A reply that is not an acknowledgement is a failed commit: the server
/// refused or rolled the block back.
pub fn committed(reply: &[String], facts: usize) -> Result<u64, OpError> {
    let want = format!("ok ({facts} facts, 0 rules, 0 constraints) committed as seq ");
    match reply {
        [line] => line
            .strip_prefix(&want)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| OpError::Failed(format!("commit reply {line:?}"))),
        _ => Err(OpError::Failed(format!("commit reply {reply:?}"))),
    }
}

/// Run one operation on a session and check its reply against the
/// session's record. Returns the timed latency of its last line and, for
/// writes, the acknowledged sequence number.
pub fn run_op(
    client: &mut Client,
    record: &SessionRecord,
    op: &ServeOp,
) -> Result<(Duration, Option<u64>), OpError> {
    let lines = op.lines();
    let (last, setup) = lines.split_last().expect("an op has lines");
    for line in setup {
        let reply = client.request(line).map_err(OpError::Failed)?;
        let ok = reply.len() == 1
            && (reply[0].starts_with("transaction open") || reply[0].starts_with("buffered ("));
        if !ok {
            return Err(OpError::Failed(format!("{line:?} got {reply:?}")));
        }
    }
    let t = Instant::now();
    let reply = client.request(last).map_err(OpError::Failed)?;
    let dt = t.elapsed();
    match op {
        ServeOp::Point { model, object } => {
            let want = oracle::point_reply(record.readings_of(*model), object);
            oracle::check_reply(&want, &reply)
                .map(|()| (dt, None))
                .map_err(OpError::Wrong)
        }
        ServeOp::Range { model, lo, hi } => {
            let want = oracle::range_reply(record.readings_of(*model), *lo, *hi);
            oracle::check_reply(&want, &reply)
                .map(|()| (dt, None))
                .map_err(OpError::Wrong)
        }
        ServeOp::Commit { .. } => committed(&reply, 1).map(|s| (dt, Some(s))),
        ServeOp::Block { facts, .. } => committed(&reply, facts.len()).map(|s| (dt, Some(s))),
    }
}

/// What one session did in one round.
#[derive(Default)]
pub struct SessionLog {
    pub query: Samples,
    pub commit: Samples,
    pub seqs: Vec<u64>,
    pub tally: Tally,
}

/// Drive one closed-loop session for `ops` operations.
pub fn drive_session(
    addr: &Addr,
    record: &mut SessionRecord,
    rng: &mut Rng,
    mix: Mix,
    ops: usize,
) -> SessionLog {
    let mut log = SessionLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            for _ in 0..ops {
                log.tally.record(Err(OpError::Failed(e.clone())));
            }
            return log;
        }
    };
    for _ in 0..ops {
        let op = record.next_op(rng, mix);
        match run_op(&mut client, record, &op) {
            Ok((dt, Some(seq))) => {
                log.commit.push(dt);
                log.seqs.push(seq);
                record.acknowledge(&op);
                log.tally.record(Ok(()));
            }
            Ok((dt, None)) => {
                log.query.push(dt);
                log.tally.record(Ok(()));
            }
            Err(e) => log.tally.record(Err(e)),
        }
    }
    let _ = client.request(":quit");
    log
}

/// Every reading a (restarted) server holds, per model.
pub fn read_back(addr: &Addr, models: usize) -> Result<BTreeMap<usize, Vec<String>>, String> {
    let mut client = Client::connect(addr)?;
    let mut out = BTreeMap::new();
    for m in 0..models {
        out.insert(m, client.request(&format!("?- m{m}'reading(X, V)."))?);
    }
    Ok(out)
}

/// What one served run measured.
#[derive(Default)]
pub struct ServedRun {
    pub setup: Samples,
    /// Peak resident set of each round's server, in MB.
    pub rss_mb: Vec<f64>,
    pub query: Samples,
    pub commit: Samples,
    /// Operations completed and the traffic wall time they took.
    pub ops: u64,
    pub traffic: Duration,
    pub tally: Tally,
}

/// A fresh directory for the durable files of one round.
fn fresh_dir(work: &Path) -> Result<PathBuf, String> {
    let dir = work.join("serve");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn free_tcp_addr() -> Result<String, String> {
    let l = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(l.local_addr().map_err(|e| e.to_string())?.to_string())
}

/// Start a server in `dir` on a fresh address: a Unix socket there, or a
/// free loopback port. A port can be taken between probing and binding,
/// so a failed bind is retried on another port.
pub fn start(bin: &Path, dir: &Path, tcp: bool) -> Result<(Server, Duration, Addr), String> {
    if !tcp {
        let addr = Addr::Unix(dir.join("serve.sock"));
        let (server, ready) = Server::spawn(bin, dir, &addr)?;
        return Ok((server, ready, addr));
    }
    let mut last = String::new();
    for _ in 0..3 {
        let addr = Addr::Tcp(free_tcp_addr()?);
        match Server::spawn(bin, dir, &addr) {
            Ok((server, ready)) => return Ok((server, ready, addr)),
            Err(e) if e.contains("cannot bind") => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(last)
}

/// The base image of a seed.
pub fn serve_base(seed: u64) -> Survey {
    Survey::generate(&mut Rng::new(seed).fork(1), SERVE_MODELS, SERVE_READINGS)
}

/// Run rounds of one served workload for about `budget`: each round
/// starts a server on a fresh base, drives both sessions, and (writes)
/// crashes and restarts it and checks what survived.
pub fn serve(w: ServeWorkload, bin: &Path, work: &Path, seed: u64, budget: Duration) -> ServedRun {
    let base = serve_base(seed);
    let source = base.gdp_source();
    let mut session_rngs: Vec<Rng> = (0..SESSIONS)
        .map(|s| Rng::new(seed).fork(10 + s as u64))
        .collect();
    let mut run = ServedRun::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < budget {
        rounds += 1;
        if let Err(e) = serve_round(w, bin, work, &base, &source, &mut session_rngs, &mut run) {
            run.tally.record(Err(OpError::Failed(e)));
        }
    }
    run
}

fn serve_round(
    w: ServeWorkload,
    bin: &Path,
    work: &Path,
    base: &Survey,
    source: &str,
    session_rngs: &mut [Rng],
    run: &mut ServedRun,
) -> Result<(), String> {
    let dir = fresh_dir(work)?;
    std::fs::write(dir.join("base.gdp"), source).map_err(|e| e.to_string())?;
    let (server, ready, addr) = start(bin, &dir, w.tcp)?;
    run.setup.push(ready);
    let per = SERVE_MODELS / SESSIONS;
    let mut records: Vec<SessionRecord> = (0..SESSIONS)
        .map(|s| SessionRecord::new(base, s, (s * per..(s + 1) * per).collect()))
        .collect();
    let t = Instant::now();
    let logs: Vec<SessionLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = records
            .iter_mut()
            .zip(session_rngs.iter_mut())
            .map(|(record, rng)| {
                let addr = &addr;
                scope.spawn(move || drive_session(addr, record, rng, w.mix, w.ops_per_session))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    run.traffic += t.elapsed();
    for log in &logs {
        run.ops += log.tally.attempted - log.tally.failed - log.tally.wrong;
        run.tally.absorb(&log.tally);
        run.query.extend(&log.query);
        run.commit.extend(&log.commit);
        run.tally
            .record(oracle::check_session_seqs(&log.seqs).map_err(OpError::Wrong));
    }
    run.tally.record(
        oracle::check_unique_seqs(logs.iter().map(|l| l.seqs.as_slice())).map_err(OpError::Wrong),
    );
    if let Some(mb) = server.peak_rss_mb() {
        run.rss_mb.push(mb);
    }
    server.kill();
    if w.crash_restart {
        let (restarted, _) = Server::spawn(bin, &dir, &addr)?;
        let expected: Vec<(usize, Vec<(String, i64)>)> = records
            .iter()
            .flat_map(|r| {
                r.models
                    .iter()
                    .map(move |&m| (m, r.readings_of(m).to_vec()))
            })
            .collect();
        let outcome = read_back(&addr, SERVE_MODELS)
            .map_err(OpError::Failed)
            .and_then(|observed| {
                oracle::check_restart(&expected, &observed).map_err(OpError::Wrong)
            });
        run.tally.record(outcome);
        let mut client = Client::connect(&addr)?;
        let _ = client.request(":shutdown");
        restarted.wait();
    }
    Ok(())
}
