//! End-to-end benchmark of `gdp`. See README.md.
//!
//! ```text
//! gdp-perfbench --workload W --seed N --seconds S --trace 0|1
//!               --serve-bin PATH --work-dir DIR
//! ```
//!
//! Prints one JSON result line last on stdout: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod gen;
mod inproc;
mod layers;
mod oracle;
mod served;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

use stats::{Metric, Outcome, Samples, Tally};

const WORKLOADS: [&str; 4] = [
    "survey_audit",
    "serve_read_tcp",
    "serve_write_unix",
    "river_reach",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).cloned().ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} needs a whole number"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        serve_bin: PathBuf::from(get("--serve-bin")?),
        work_dir: PathBuf::from(get("--work-dir")?),
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics every workload reports, from its set-up times,
/// peak memory, read and write latencies, and throughput. Latencies are
/// means: on shared hardware, speed moves in phases of seconds, which makes
/// latencies bimodal, and the median of a bimodal sample jumps between
/// the modes from run to run; the mean moves only with the share of time
/// spent in each phase (and it keeps the periodic checkpoint stalls).
fn end_to_end(
    setup: &Samples,
    rss_mb: f64,
    read: &Samples,
    write: &Samples,
    ops_per_s: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup.median() / 1e3, "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
        metric("read_mean_ms", read.mean(), "ms"),
        metric("write_mean_ms", write.mean(), "ms"),
        metric("ops_per_s", ops_per_s, "1/s"),
    ]
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    if args.trace {
        return Ok(layers::traced(
            &args.workload,
            args.seed,
            &args.serve_bin,
            &args.work_dir,
        ));
    }
    let budget = Duration::from_secs(args.seconds);
    match args.workload.as_str() {
        "survey_audit" | "river_reach" => {
            let r = if args.workload == "survey_audit" {
                inproc::survey_audit(args.seed, budget)
            } else {
                inproc::river_reach(args.seed, budget)
            };
            let ops = (r.read.len() + r.write.len()) as f64;
            let busy_s = (r.read.total_ms() + r.write.total_ms()) / 1e3;
            let rss = stats::peak_rss_mb("self").ok_or("no /proc/self/status")?;
            Ok((
                r.tally,
                end_to_end(&r.setup, rss, &r.read, &r.write, ops / busy_s),
            ))
        }
        _ => {
            let w = if args.workload == "serve_read_tcp" {
                served::READ_TCP
            } else {
                served::WRITE_UNIX
            };
            let r = served::serve(w, &args.serve_bin, &args.work_dir, args.seed, budget);
            if r.query.is_empty() || r.commit.is_empty() || r.rss_mb.is_empty() {
                return Err(format!("served run measured nothing: {:?}", r.tally.notes));
            }
            let ops_per_s = r.ops as f64 / r.traffic.as_secs_f64();
            Ok((
                r.tally,
                end_to_end(
                    &r.setup,
                    stats::quantile(&r.rss_mb, 0.5),
                    &r.query,
                    &r.commit,
                    ops_per_s,
                ),
            ))
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdp-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    match outcome {
        Ok((tally, metrics)) => {
            for note in &tally.notes {
                eprintln!("gdp-perfbench: {note}");
            }
            let out = Outcome {
                correct: tally.wrong == 0,
                attempted: tally.attempted,
                failed: tally.failed,
                metrics,
            };
            println!("{}", out.to_json());
        }
        Err(e) => {
            eprintln!("gdp-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
