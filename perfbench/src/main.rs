//! The softsoa benchmark: four seeded workloads against the negotiation
//! daemon and the SCSP solvers, six end-to-end metrics per untraced run
//! and the per-layer metrics of a traced run.
//!
//! ```text
//! softsoa-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! softsoa-perfbench compare BASE CHANGE [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints a stamp line and then, as its last line, the result
//! object `{"correct", "attempted", "failed", "metrics"}`. It exits 1
//! when any op was not answered correctly. A traced run also writes its
//! spans to `perfbench/out/spans-<workload>-<seed>.jsonl`.

mod compare;
mod daemon;
mod report;
mod solve;
mod stats;
mod trace;

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use serde::Value;

use crate::daemon::Daemon;
use crate::report::RunResult;

const WORKLOADS: [&str; 4] = ["wire_light", "broker_heavy", "churn_chaos", "scsp_solve"];
/// Where traced runs write their spans, relative to the working
/// directory.
const SPANS_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(parsed)
}

/// The commit under test: the `HEAD` of a `.git` directory in the
/// working directory, else `unknown` (a source checkout without
/// history). Reads nothing outside the working directory.
fn commit() -> String {
    let read = |path: &str| fs::read_to_string(Path::new(".git").join(path)).ok();
    let resolved = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(name).map(|id| id.trim().to_string()).or_else(|| {
            read("packed-refs")?.lines().find_map(|line| {
                let (id, packed) = line.split_once(' ')?;
                (packed == name).then(|| id.to_string())
            })
        }),
    });
    resolved.unwrap_or_else(|| "unknown".to_string())
}

fn stamp(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = if args.workload == "scsp_solve" {
        1
    } else {
        daemon::CLIENTS
    };
    let fields = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::UInt(nproc as u64)),
        ("clients", Value::UInt(clients as u64)),
        ("commit", Value::Str(commit())),
        ("rustc", Value::Str(env!("PERFBENCH_RUSTC").into())),
        ("profile", Value::Str(env!("PERFBENCH_PROFILE").into())),
        ("note", Value::Str("loopback".into())),
    ];
    let stamp = Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect());
    Value::Obj(vec![("stamp".into(), stamp)])
}

fn execute(args: &Args) -> Result<RunResult, String> {
    let seconds = Duration::from_secs(args.seconds);
    let daemon = match args.workload.as_str() {
        "wire_light" => Some(Daemon::WireLight),
        "broker_heavy" => Some(Daemon::BrokerHeavy),
        "churn_chaos" => Some(Daemon::ChurnChaos),
        _ => None,
    };
    if !args.trace {
        return match daemon {
            Some(kind) => daemon::run(kind, args.seed, seconds),
            None => solve::run(args.seed, seconds),
        };
    }
    let (result, spans) = match daemon {
        Some(kind) => daemon::run_traced(kind, args.seed, seconds)?,
        None => solve::run_traced(args.seed, seconds)?,
    };
    fs::create_dir_all(SPANS_DIR).map_err(|e| e.to_string())?;
    let path = Path::new(SPANS_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let mut file = BufWriter::new(fs::File::create(&path).map_err(|e| e.to_string())?);
    trace::write_jsonl(&spans, &mut file)
        .and_then(|()| file.flush())
        .map_err(|e| e.to_string())?;
    eprintln!("{} spans written to {}", spans.len(), path.display());
    Ok(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else {
        parse(&args).and_then(|args| {
            let result = execute(&args)?;
            let stamp = serde_json::to_string(&stamp(&args)).expect("stamp values serialize");
            let line = serde_json::to_string(&result.to_value()).expect("result values serialize");
            println!("{stamp}");
            println!("{line}");
            if result.correct() {
                return Ok(0);
            }
            eprintln!(
                "error: {} of {} ops were not answered correctly",
                result.tally.failed(),
                result.tally.attempted
            );
            Ok(1)
        })
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
