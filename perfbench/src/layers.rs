//! The traced run: time the public calls of each layer on a workload's
//! generated inputs, and read the engine's own counters. Every layer is
//! measured on every traced run. A layer the workload itself reaches is
//! fed that workload's inputs; the others are fed the inputs of the
//! workload the layer's figures matter to (the README's table), made from
//! the same seed.

use std::hint::black_box;
use std::io::{Cursor, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gdp::core::{DurabilityOptions, SpecStore, DEFAULT_CHECKPOINT_INTERVAL};
use gdp::engine::{
    fingerprint, replay, BindStore, BoundSet, CheckpointImage, Delta, NumRange, PredKey, Term, Var,
    Wal, WalHeader,
};
use gdp::lang::Loader;
use gdp::prelude::*;
use gdp::server::{serve_connection, ServerState};

use crate::gen::{Mix, Rng, ServeOp, SessionRecord, Survey};
use crate::inproc::{self, SURVEY_REVISIONS, WORKERS};
use crate::oracle;
use crate::served::{self, Client, Server, SERVE_MODELS};
use crate::stats::{quantile, Metric, OpError, Samples, Tally};

/// Statements of the served stream run through the layer calls.
const STREAM_OPS: usize = 400;
/// Queries timed over real TCP for the transport share.
const TCP_QUERIES: usize = 40;
/// Repetitions of the slower single calls; the median is reported.
const REPEAT: usize = 3;

struct Traced {
    metrics: Vec<Metric>,
    tally: Tally,
}

impl Traced {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time in ms of `REPEAT` calls, each after an untimed
/// `prepare`.
fn median_ms<P, T>(mut prepare: impl FnMut() -> P, mut call: impl FnMut(P) -> T) -> f64 {
    let mut times = Vec::new();
    for _ in 0..REPEAT {
        let input = prepare();
        let t = Instant::now();
        black_box(call(input));
        times.push(ms(t.elapsed()));
    }
    quantile(&times, 0.5)
}

/// Run the traced mode for `workload`; returns the tally of checked
/// operations and every per-layer metric.
pub fn traced(workload: &str, seed: u64, bin: &Path, work: &Path) -> (Tally, Vec<Metric>) {
    let mut t = Traced {
        metrics: Vec::new(),
        tally: Tally::default(),
    };
    let river = workload == "river_reach";
    survey_layers(&mut t, seed, !river);
    river_layers(&mut t, seed, river);
    let mix = if workload == "serve_read_tcp" {
        served::READ_TCP.mix
    } else {
        served::WRITE_UNIX.mix
    };
    if let Err(e) = served_layers(&mut t, seed, mix, bin, work) {
        t.tally.record(Err(OpError::Failed(e)));
    }
    (t.tally, t.metrics)
}

fn h5(spec: &Specification) -> gdp::engine::IndexReport {
    spec.kb()
        .index_stats()
        .into_iter()
        .find(|r| r.pred == PredKey::new("h", 5))
        .expect("h/5 is indexed")
}

/// `solver`, `spec`, `parallel` and `kb` on the survey scene.
fn survey_layers(t: &mut Traced, seed: u64, report_solver: bool) {
    let (mut survey, mut revs) = inproc::survey_inputs(seed);
    let mut spec = inproc::survey_spec(&survey, inproc::survey_facts(&survey));
    let expected = inproc::expected_violations(&survey);
    t.tally.record(inproc::check_report(
        spec.audit_world_views(WORKERS),
        &expected,
    ));

    let before = h5(&spec);
    let start = Instant::now();
    let report = spec.audit_world_views(WORKERS);
    let mut two = vec![ms(start.elapsed())];
    let after = h5(&spec);
    let stats = report.as_ref().map(|r| r.stats).unwrap_or_default();
    t.tally.record(inproc::check_report(report, &expected));
    if report_solver {
        t.put("solver.steps", stats.steps as f64, "count");
        t.put("solver.resolutions", stats.resolutions as f64, "count");
    }
    t.put(
        "kb.h_consults",
        (after.consults - before.consults) as f64,
        "count",
    );
    t.put(
        "kb.h_pruned",
        (after.pruned - before.pruned) as f64,
        "count",
    );
    t.put("kb.h_scans", (after.scans - before.scans) as f64, "count");

    let mut one = Vec::new();
    for _ in 1..REPEAT {
        let s = Instant::now();
        t.tally.record(inproc::check_report(
            spec.audit_world_views(WORKERS),
            &expected,
        ));
        two.push(ms(s.elapsed()));
    }
    for _ in 0..REPEAT {
        let s = Instant::now();
        t.tally
            .record(inproc::check_report(spec.audit_world_views(1), &expected));
        one.push(ms(s.elapsed()));
    }
    let two_ms = quantile(&two, 0.5);
    t.put(
        "spec.ns_per_step",
        two_ms * 1e6 / stats.steps.max(1) as f64,
        "ns",
    );
    t.put("parallel.speedup", quantile(&one, 0.5) / two_ms, "x");

    // Candidate selection with the audit's call shape: model bound,
    // value bound to a point by a range scope, object unbound.
    let kb = spec.kb();
    let key = PredKey::new("h", 5);
    let mut store = BindStore::new();
    store.ensure_len(4);
    let args: Vec<[Term; 5]> = (0..survey.models())
        .map(|m| {
            [
                Term::atom(&format!("m{m}")),
                Term::var(0),
                Term::var(1),
                Term::atom("reading"),
                Term::list(vec![Term::var(2), Term::var(3)]),
            ]
        })
        .collect();
    let calls = 4000;
    let point = |k: usize| ((k * 7919) % survey.readings) as i64;
    let start = Instant::now();
    let mut picked = 0usize;
    for k in 0..calls {
        let mut bounds = BoundSet::default();
        bounds.insert(Var(3), NumRange::point(point(k) as f64));
        picked += kb
            .candidates(key, &store, &args[k % args.len()], &bounds)
            .len();
    }
    let per_call = start.elapsed().as_secs_f64() * 1e6 / calls as f64;
    black_box(picked);
    // Candidates are a superset of the matching readings.
    let matching: usize = (0..calls)
        .map(|k| {
            survey.values[k % args.len()]
                .iter()
                .filter(|&&v| v == point(k))
                .count()
        })
        .sum();
    t.tally.record(if picked >= matching {
        Ok(())
    } else {
        Err(OpError::Wrong(format!(
            "candidate selection returned {picked} clauses for {matching} matching readings"
        )))
    });
    t.put("kb.candidates_us", per_call, "us");

    let mut steps = 0u64;
    for _ in 0..SURVEY_REVISIONS {
        let rev = survey.revise(&mut revs);
        let report = inproc::commit_revision(&mut spec, rev)
            .and_then(|d| spec.audit_incremental(&d, WORKERS));
        steps += report.as_ref().map(|r| r.stats.steps).unwrap_or(0);
        t.tally.record(inproc::check_report(
            report,
            &inproc::expected_violations(&survey),
        ));
    }
    t.put(
        "spec.incr_steps",
        steps as f64 / SURVEY_REVISIONS as f64,
        "count",
    );
}

/// `table` (and, for `river_reach`, `solver`) on the river network.
fn river_layers(t: &mut Traced, seed: u64, report_solver: bool) {
    let (net, mut revs) = inproc::river_inputs(seed);
    let mut spec = inproc::river_spec(inproc::river_facts(&net));
    let base = oracle::bfs_closure(&net.edges);
    t.tally.record(inproc::checked_closure(&spec, &base).1);
    let cold = spec.solver_stats();
    if report_solver {
        t.put("solver.steps", cold.steps as f64, "count");
        t.put("solver.resolutions", cold.resolutions as f64, "count");
    }
    let (mut hits, mut misses, mut invalidations, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let k = inproc::RIVER_REVISIONS;
    for _ in 0..k {
        if let Err(e) = revs.apply(&mut spec, &net) {
            t.tally.record(Err(OpError::Failed(e.to_string())));
            continue;
        }
        t.tally
            .record(inproc::checked_closure(&spec, &revs.closure(&net)).1);
        let s = spec.solver_stats();
        hits += s.table_hits;
        misses += s.table_misses;
        invalidations += s.table_invalidations;
        fallbacks += s.table_fallbacks;
    }
    let per = |n: u64| n as f64 / k as f64;
    t.put("table.hits", per(hits), "count");
    t.put("table.misses", per(misses), "count");
    t.put("table.invalidations", per(invalidations), "count");
    t.put("table.fallbacks", per(fallbacks), "count");
    let ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    t.put("table.hit_ratio", ratio, "ratio");
}

/// A writer that counts its `write` calls and the prompts written.
#[derive(Default)]
struct CountingWriter {
    writes: u64,
    bytes: Vec<u8>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The served base of a seed, and one session's operation stream with
/// every write assumed acknowledged.
fn served_inputs(seed: u64, mix: Mix) -> (Survey, Vec<ServeOp>) {
    let base = served::serve_base(seed);
    let mut session = Rng::new(seed).fork(10);
    let mut record = SessionRecord::new(&base, 0, (0..SERVE_MODELS / 2).collect());
    let ops = (0..STREAM_OPS)
        .map(|_| {
            let op = record.next_op(&mut session, mix);
            record.acknowledge(&op);
            op
        })
        .collect();
    (base, ops)
}

/// The image `gdp-serve` starts from: the standard specification with the
/// fuzzy rule packs, plus the base file.
fn server_base(source: &str) -> Specification {
    let (mut spec, registry) = gdp::standard_spec().expect("standard spec");
    spec.register_meta_model(gdp::fuzzy::unified_fuzzy(gdp::fuzzy::UnifyPolicy::Max));
    Loader::with_spatial(&mut spec, &registry)
        .load_str(source)
        .expect("base file loads");
    spec
}

fn reading_facts(op: &ServeOp) -> Vec<FactPat> {
    match op {
        ServeOp::Commit {
            model,
            object,
            value,
        } => vec![inproc::reading(*model, object.clone(), *value)],
        ServeOp::Block { model, facts } => facts
            .iter()
            .map(|(o, v)| inproc::reading(*model, o.clone(), *v))
            .collect(),
        _ => Vec::new(),
    }
}

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `lang`, `store`, `wal`, `checkpoint` and `server` on the served base
/// and one session's stream of the given mix.
fn served_layers(
    t: &mut Traced,
    seed: u64,
    mix: Mix,
    bin: &Path,
    work: &Path,
) -> Result<(), String> {
    let (base, ops) = served_inputs(seed, mix);
    let source = base.gdp_source();
    let dir = work.join("layers");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(io)?;
    let base_path = dir.join("base.gdp");
    std::fs::write(&base_path, &source).map_err(io)?;

    // lang: parse each statement of the stream; load the base.
    let statements: Vec<String> = ops
        .iter()
        .flat_map(|op| op.lines())
        .filter(|l| !l.starts_with(':'))
        .collect();
    let start = Instant::now();
    let parsed: Vec<_> = statements
        .iter()
        .map(|s| black_box(gdp::lang::parse_program(s)).map(|_| ()))
        .collect();
    let per_statement = start.elapsed().as_secs_f64() * 1e6 / statements.len() as f64;
    for p in parsed {
        t.tally
            .record(p.map_err(|e| OpError::Failed(e.to_string())));
    }
    t.put("lang.parse_us", per_statement, "us");
    t.put(
        "lang.load_base_ms",
        median_ms(
            || gdp::standard_spec().expect("standard spec"),
            |(mut spec, registry)| {
                Loader::with_spatial(&mut spec, &registry)
                    .load_str(&source)
                    .map(|s| s.facts)
            },
        ),
        "ms",
    );

    // store: snapshots and WAL-less commits of the stream's writes.
    let store = SpecStore::new(server_base(&source));
    let snapshots = 1000;
    let start = Instant::now();
    for _ in 0..snapshots {
        black_box(store.snapshot());
    }
    t.put(
        "store.snapshot_us",
        start.elapsed().as_secs_f64() * 1e6 / snapshots as f64,
        "us",
    );
    let writes: Vec<Vec<FactPat>> = ops
        .iter()
        .filter(|o| o.is_write())
        .map(reading_facts)
        .collect();
    let mut deltas: Vec<Delta> = Vec::new();
    let mut commit_time = Duration::ZERO;
    for facts in &writes {
        let facts = facts.clone();
        let s = Instant::now();
        let outcome = store.commit(|spec| facts.into_iter().try_for_each(|f| spec.assert_fact(f)));
        commit_time += s.elapsed();
        match outcome {
            Ok((committed, ())) => {
                deltas.push(committed.delta);
                t.tally.record(Ok(()));
            }
            Err(e) => t.tally.record(Err(OpError::Failed(e.to_string()))),
        }
    }
    let commits = deltas.len().max(1) as f64;
    t.put(
        "store.commit_us",
        commit_time.as_secs_f64() * 1e6 / commits,
        "us",
    );

    // wal: append the commits' deltas to a fresh log.
    let fp = store.read(|spec| fingerprint(spec.kb()));
    let wal_path = dir.join("append.wal");
    let mut wal = Wal::create(&wal_path, WalHeader::new(fp, 1)).map_err(io)?;
    let header_len = std::fs::metadata(&wal_path).map_err(io)?.len();
    let mut appends = Samples::default();
    for delta in &deltas {
        let s = Instant::now();
        let outcome = wal.append(delta);
        appends.push(s.elapsed());
        t.tally.record(
            outcome
                .map(|_| ())
                .map_err(|e| OpError::Failed(e.to_string())),
        );
    }
    drop(wal);
    let log_len = std::fs::metadata(&wal_path).map_err(io)?.len();
    t.put("wal.append_us", appends.median() * 1e3, "us");
    t.put(
        "wal.bytes_per_commit",
        (log_len - header_len) as f64 / commits,
        "B",
    );

    // checkpoint: capture and write the end-of-stream KB.
    let seq = store.head_seq();
    let image = store.read(|spec| CheckpointImage::capture(spec.kb(), fp, seq));
    t.put(
        "checkpoint.capture_ms",
        median_ms(
            || (),
            |()| store.read(|spec| CheckpointImage::capture(spec.kb(), fp, seq)),
        ),
        "ms",
    );
    let image_path = dir.join("image.ckpt");
    t.put(
        "checkpoint.write_ms",
        median_ms(|| (), |()| image.write(&image_path, None).map_err(io)),
        "ms",
    );
    // The same commits through a durable store with the default interval:
    // every checkpoint image it writes, over the commits.
    let durable_path = dir.join("durable.wal");
    let durable = SpecStore::create_durable(
        server_base(&source),
        &durable_path,
        DurabilityOptions::default(),
    )
    .map_err(io)?;
    let mut image_bytes = 0u64;
    let ckpt_path = dir.join("durable.wal.ckpt");
    for facts in &writes {
        let facts = facts.clone();
        let (c, ()) = durable
            .commit(|spec| facts.into_iter().try_for_each(|f| spec.assert_fact(f)))
            .map_err(io)?;
        if c.seq % DEFAULT_CHECKPOINT_INTERVAL == 0 {
            image_bytes += std::fs::metadata(&ckpt_path).map_err(io)?.len();
        }
    }
    drop(durable);
    t.put(
        "checkpoint.bytes_per_commit",
        image_bytes as f64 / commits,
        "B",
    );

    // server: the protocol over an in-process socket pair, without a
    // listener, on a durable state.
    let state = ServerState::durable_opts(
        &dir.join("proto.wal"),
        DurabilityOptions::default(),
        std::slice::from_ref(&base_path),
    )
    .map_err(io)?
    .0;
    let (proto_query, proto_commit) = proto_session(t, state, &base, &ops)?;
    t.put("server.proto_query_us", proto_query * 1e3, "us");
    t.put("server.proto_commit_us", proto_commit * 1e3, "us");

    // Write calls per reply: the whole stream through a counting writer.
    let mut script = String::new();
    for op in &ops {
        for line in op.lines() {
            script.push_str(&line);
            script.push('\n');
        }
    }
    script.push_str(":quit\n");
    let mut counter = CountingWriter::default();
    serve_connection(
        ServerState::with_load(std::slice::from_ref(&base_path)).map_err(io)?,
        Cursor::new(script.into_bytes()),
        &mut counter,
    )
    .map_err(io)?;
    let prompts = String::from_utf8_lossy(&counter.bytes)
        .matches("gdp> ")
        .count()
        .max(1);
    t.put(
        "server.writes_per_reply",
        counter.writes as f64 / prompts as f64,
        "count",
    );

    // transport: the same queries over real TCP, minus the protocol.
    let tcp_ms = tcp_queries(t, bin, &dir, &base, &source, seed)?;
    t.put("server.transport_ms", tcp_ms - proto_query, "ms");

    restart_layers(t, bin, &dir, &base, &source, &ops)
}

/// Drive `ops` through `serve_connection` over a socket pair; returns the
/// median query and single-fact commit latency in ms.
fn proto_session(
    t: &mut Traced,
    state: Arc<ServerState>,
    base: &Survey,
    ops: &[ServeOp],
) -> Result<(f64, f64), String> {
    let (server_end, client_end) = UnixStream::pair().map_err(io)?;
    client_end
        .set_read_timeout(Some(served::REPLY_TIMEOUT))
        .map_err(io)?;
    let reader = server_end.try_clone().map_err(io)?;
    let session = std::thread::spawn(move || {
        serve_connection(state, std::io::BufReader::new(reader), server_end)
    });
    let mut client = Client::over(
        Box::new(client_end.try_clone().map_err(io)?),
        Box::new(client_end),
    )?;
    let mut record = SessionRecord::new(base, 0, (0..SERVE_MODELS / 2).collect());
    let (mut queries, mut commits) = (Samples::default(), Samples::default());
    for op in ops {
        match served::run_op(&mut client, &record, op) {
            Ok((dt, Some(_))) => {
                if matches!(op, ServeOp::Commit { .. }) {
                    commits.push(dt);
                }
                record.acknowledge(op);
                t.tally.record(Ok(()));
            }
            Ok((dt, None)) => {
                queries.push(dt);
                t.tally.record(Ok(()));
            }
            Err(e) => t.tally.record(Err(e)),
        }
    }
    drop(client);
    session
        .join()
        .map_err(|_| "protocol session panicked".to_string())?
        .map_err(io)?;
    if queries.is_empty() || commits.is_empty() {
        return Err("the stream has no queries or no single-fact commits".into());
    }
    Ok((queries.median(), commits.median()))
}

fn fresh(dir: &Path, name: &str, source: &str) -> Result<PathBuf, String> {
    let d = dir.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).map_err(io)?;
    std::fs::write(d.join("base.gdp"), source).map_err(io)?;
    Ok(d)
}

/// Median latency in ms of `TCP_QUERIES` base-image queries through a real
/// `gdp-serve` over TCP.
fn tcp_queries(
    t: &mut Traced,
    bin: &Path,
    dir: &Path,
    base: &Survey,
    source: &str,
    seed: u64,
) -> Result<f64, String> {
    let d = fresh(dir, "tcp", source)?;
    let (server, _, addr) = served::start(bin, &d, true)?;
    let mut client = Client::connect(&addr)?;
    let mut record = SessionRecord::new(base, 0, (0..SERVE_MODELS / 2).collect());
    let mut rng = Rng::new(seed).fork(20);
    let mut times = Samples::default();
    while times.len() < TCP_QUERIES {
        let op = record.next_op(&mut rng, served::READ_TCP.mix);
        if op.is_write() {
            continue;
        }
        match served::run_op(&mut client, &record, &op) {
            Ok((dt, _)) => {
                times.push(dt);
                t.tally.record(Ok(()));
            }
            Err(e) => {
                t.tally.record(Err(e));
                break;
            }
        }
    }
    drop(client);
    server.kill();
    if times.is_empty() {
        return Err("no TCP query completed".into());
    }
    Ok(times.median())
}

/// Crash a Unix-socket server after the stream's writes, then time the
/// pieces of recovery on the files it left, and whole restarts.
fn restart_layers(
    t: &mut Traced,
    bin: &Path,
    dir: &Path,
    base: &Survey,
    source: &str,
    ops: &[ServeOp],
) -> Result<(), String> {
    let d = fresh(dir, "crash", source)?;
    let (server, _, addr) = served::start(bin, &d, false)?;
    let mut client = Client::connect(&addr)?;
    let mut record = SessionRecord::new(base, 0, (0..SERVE_MODELS / 2).collect());
    for op in ops.iter().filter(|o| o.is_write()) {
        match served::run_op(&mut client, &record, op) {
            Ok(_) => {
                record.acknowledge(op);
                t.tally.record(Ok(()));
            }
            Err(e) => t.tally.record(Err(e)),
        }
    }
    drop(client);
    server.kill();

    let ckpt = d.join("spec.wal.ckpt");
    let wal = d.join("spec.wal");
    t.put(
        "checkpoint.read_ms",
        median_ms(|| (), |()| CheckpointImage::read(&ckpt)),
        "ms",
    );
    let image = CheckpointImage::read(&ckpt)
        .map_err(io)?
        .ok_or("the crashed server left no checkpoint image")?;
    t.put(
        "checkpoint.install_ms",
        median_ms(
            || server_base(source),
            |mut spec| image.install(spec.kb_mut()),
        ),
        "ms",
    );
    t.put(
        "wal.replay_ms",
        median_ms(
            || {
                let mut spec = server_base(source);
                image.install(spec.kb_mut());
                spec
            },
            |mut spec| {
                if let Ok(Some((_, records))) = Wal::scan(&wal) {
                    replay(&records, spec.kb_mut());
                }
                spec
            },
        ),
        "ms",
    );

    let expected: Vec<(usize, Vec<(String, i64)>)> = record
        .models
        .iter()
        .map(|&m| (m, record.readings_of(m).to_vec()))
        .collect();
    let mut restarts = Vec::new();
    for _ in 0..REPEAT {
        let (server, ready) = Server::spawn(bin, &d, &addr)?;
        restarts.push(ms(ready));
        let observed = served::read_back(&addr, SERVE_MODELS)?;
        t.tally
            .record(oracle::check_restart(&expected, &observed).map_err(OpError::Wrong));
        server.kill();
    }
    t.put("server.restart_ms", quantile(&restarts, 0.5), "ms");
    Ok(())
}
