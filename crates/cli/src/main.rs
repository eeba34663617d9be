//! The `softsoa` command-line binary.

use std::process::ExitCode;

use softsoa_cli::{
    coalitions_with_options, explore, integrity, load, negotiate_chaos, negotiate_contend,
    negotiate_with, parse_engine, parse_fairness, parse_propagation, parse_semiring,
    parse_var_order, serve, solve_with, ChaosOptions, ContendOptions, DaemonOptions, EngineOptions,
    LoadOptions, MetricsFormat, SolveOptions, SolverChoice,
};

const USAGE: &str = "softsoa — soft constraints for dependable SOAs

USAGE:
    softsoa solve <problem.json> [--solver enum|bnb|bucket]
                  [--jobs <n>] [--stats] [--metrics[=json|pretty]]
                  [--order input|most-constrained|dynamic|estimate]
                  [--propagate[=off|root]] [--decompose|--no-decompose]
                  [--engine auto|bnb|treedec]
    softsoa negotiate <scenario.json> [--metrics[=json|pretty]]
                  [--chaos-seed <n>] [--chaos-rate <p>] [--chaos-horizon <n>]
                  [--chaos-retries <n>] [--chaos-deadline <n>] [--chaos-backoff <n>]
                  [--contend <n>] [--fairness fcfs|utilitarian|leximin|nash]
    softsoa explore <scenario.json>
    softsoa coalitions <trust.json> [--metrics[=json|pretty]]
                  [--propagate[=off|root]] [--decompose|--no-decompose]
                  [--engine auto|bnb|treedec]
    softsoa integrity [--step <kb>]
    softsoa serve [--addr <host:port>] [--semiring weighted|fuzzy|probabilistic]
                  [--providers <n>] [--workers <n>] [--queue <n>]
                  [--session-deadline-ms <n>] [--drain-ms <n>]
                  [--store-chaos-seed <n>] [--store-chaos-rate <p>]
                  [--wire-chaos-seed <n>] [--wire-chaos-rate <p>]
                  [--fairness fcfs|utilitarian|leximin|nash]
    softsoa load  [--attach <host:port>] [--clients <n>] [--concurrency <n>]
                  [--fault-rate <p>] [--churn-rate <p>] [--seed <n>]
                  [--contended] [--waves <n>] [--wave-clients <n>] [--slots <n>]
                  [... plus the serve daemon flags when self-hosting]

--metrics appends a telemetry snapshot to the report: json (the
default) is a deterministic final line without wall-clock data; pretty
is a human-readable table with timings.

--order picks the bnb solver's variable-ordering heuristic (other
solvers ignore it); it leaves the reported blevel unchanged.

--propagate sets the soft arc-consistency mode (default root: one
bounds-propagation pass before search; off disables it) and
--decompose/--no-decompose toggles solving independent
constraint-graph components separately (default on). Both
preserve the reported blevel and yield an equally best witness; they
steer bnb solves and the coalitions `scsp` algorithm. `negotiate`
takes none of the engine flags: the broker binds the negotiation
variable by scanning its domain.

--engine picks the exact per-component engine: bnb (the default)
searches with branch-and-bound, treedec solves by bucket-tree
elimination along a min-fill/min-degree elimination order, and auto
uses the tree engine exactly when the separator width fits under
the width cap (8) and falls back to bnb otherwise. treedec
forced onto a too-wide component still falls back to search, seeded by
a greedy tree bound. All engines report the same blevel and an equally
best witness. --solver bucket runs the same bucket tree with the con
variables kept: its final cluster's table is the printed solution
table, and it has no width cap or fallback.

`serve` runs the negotiation daemon (line-JSON over TCP) until stdin
reaches EOF, then drains gracefully within --drain-ms. `load` drives
the deterministic load generator — self-hosting a daemon by default
(the JSON report then includes the drain), or against a running one
with --attach. --fault-rate makes that fraction of clients hostile at
the transport level (stalls, truncated frames, slow-loris,
disconnects); --store-chaos-* injects faults inside every negotiation;
--wire-chaos-* adds server-side transport chaos. Every session must
still terminate with a typed outcome — the report's `hung` tally is
the invariant to watch.

--fairness turns on capacity-aware contended allocation. On `serve`
and `load` it batches concurrent negotiate requests in a short window
and allocates the batch jointly under the named objective (leximin
maximises the worst-off client, nash the proportional-fair product,
utilitarian the total softness; fcfs reproduces arrival order).
`load --contended` drives waves of stable-identity clients racing for
`--slots` concurrent bindings per provider and reports starvation and
Jain-index tallies. `negotiate --contend <n>` replicates a broker
scenario's request into n contending clients and prints each client's
typed outcome (granted, preempted, waitlisted, unserved) plus the
batch fairness metrics; providers may declare a `capacity` slot count.

Document formats are described in the softsoa-cli crate docs.";

/// Parses a `--metrics` / `--metrics=<format>` flag; `None` if the
/// flag is something else.
fn parse_metrics_flag(flag: &str) -> Option<Result<MetricsFormat, String>> {
    if flag == "--metrics" {
        return Some(Ok(MetricsFormat::Json));
    }
    flag.strip_prefix("--metrics=")
        .map(|value| MetricsFormat::parse(value).map_err(|e| e.to_string()))
}

/// Parses a `--propagate [=]<mode>`, `--decompose` or `--no-decompose`
/// flag into `engine`; `None` if the flag is something else.
fn parse_engine_flag<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
    engine: &mut EngineOptions,
) -> Option<Result<(), String>> {
    let mode = if flag == "--propagate" {
        match it.next() {
            Some(value) => value.as_str(),
            None => return Some(Err("--propagate: missing value".to_string())),
        }
    } else if let Some(value) = flag.strip_prefix("--propagate=") {
        value
    } else {
        let name = if flag == "--engine" {
            match it.next() {
                Some(value) => Some(value.as_str()),
                None => return Some(Err("--engine: missing value".to_string())),
            }
        } else {
            flag.strip_prefix("--engine=")
        };
        if let Some(name) = name {
            return Some(match parse_engine(name) {
                Ok(choice) => {
                    engine.engine = Some(choice);
                    Ok(())
                }
                Err(e) => Err(format!("--engine: {e}")),
            });
        }
        match flag {
            "--decompose" => engine.decompose = Some(true),
            "--no-decompose" => engine.decompose = Some(false),
            _ => return None,
        }
        return Some(Ok(()));
    };
    Some(match parse_propagation(mode) {
        Ok(mode) => {
            engine.propagate = Some(mode);
            Ok(())
        }
        Err(e) => Err(format!("--propagate: {e}")),
    })
}

/// Parses the value following a numeric flag.
fn parse_num<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = value.ok_or_else(|| format!("{flag}: missing value"))?;
    value
        .parse()
        .map_err(|e| format!("{flag}: invalid value: {e}"))
}

/// Parses one daemon flag (shared between `serve` and `load`) into
/// `daemon`; `None` if the flag is something else.
fn parse_daemon_flag<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
    daemon: &mut DaemonOptions,
) -> Option<Result<(), String>> {
    let parsed = match flag {
        "--addr" => match it.next() {
            Some(value) => {
                daemon.addr = value.clone();
                Ok(())
            }
            None => Err("--addr: missing value".to_string()),
        },
        "--semiring" => match it.next() {
            Some(name) => match parse_semiring(name) {
                Ok(kind) => {
                    daemon.semiring = kind;
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
            None => Err("--semiring: missing value".to_string()),
        },
        "--providers" => parse_num(flag, it.next()).map(|n| daemon.providers = Some(n)),
        "--workers" => parse_num(flag, it.next()).map(|n| daemon.workers = Some(n)),
        "--queue" => parse_num(flag, it.next()).map(|n| daemon.queue_limit = Some(n)),
        "--session-deadline-ms" => {
            parse_num(flag, it.next()).map(|n| daemon.session_deadline_ms = Some(n))
        }
        "--drain-ms" => parse_num(flag, it.next()).map(|n| daemon.drain_ms = n),
        "--store-chaos-seed" => {
            parse_num(flag, it.next()).map(|n| daemon.store_chaos_seed = Some(n))
        }
        "--store-chaos-rate" => {
            parse_num(flag, it.next()).map(|n| daemon.store_chaos_rate = Some(n))
        }
        "--wire-chaos-seed" => parse_num(flag, it.next()).map(|n| daemon.wire_chaos_seed = Some(n)),
        "--wire-chaos-rate" => parse_num(flag, it.next()).map(|n| daemon.wire_chaos_rate = Some(n)),
        "--fairness" => match it.next() {
            Some(name) => match parse_fairness(name) {
                Ok(objective) => {
                    daemon.fairness = Some(objective);
                    Ok(())
                }
                Err(e) => Err(e.to_string()),
            },
            None => Err("--fairness: missing value".to_string()),
        },
        _ => return None,
    };
    Some(parsed)
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| USAGE.to_string())?;
    match command.as_str() {
        "solve" => {
            let path = it.next().ok_or("solve: missing <problem.json>")?;
            let mut solver = SolverChoice::default();
            let mut options = SolveOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--solver" => {
                        let name = it.next().ok_or("--solver: missing value")?;
                        solver = SolverChoice::parse(name).map_err(|e| e.to_string())?;
                    }
                    "--jobs" => {
                        let value = it.next().ok_or("--jobs: missing value")?;
                        let jobs: usize = value
                            .parse()
                            .map_err(|e| format!("--jobs: not an integer: {e}"))?;
                        options.jobs = Some(jobs);
                    }
                    "--stats" => options.stats = true,
                    "--order" => {
                        let name = it.next().ok_or("--order: missing value")?;
                        options.order =
                            Some(parse_var_order(name).map_err(|e| format!("--order: {e}"))?);
                    }
                    other => match parse_metrics_flag(other) {
                        Some(format) => options.metrics = Some(format?),
                        None => match parse_engine_flag(other, &mut it, &mut options.engine) {
                            Some(parsed) => parsed?,
                            None => return Err(format!("solve: unknown flag `{other}`")),
                        },
                    },
                }
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            solve_with(&text, solver, options).map_err(|e| e.to_string())
        }
        "negotiate" => {
            let path = it.next().ok_or("negotiate: missing <scenario.json>")?;
            let mut chaos = ChaosOptions::default();
            let mut chaos_mode = false;
            let mut contend = ContendOptions::default();
            let mut contend_mode = false;
            while let Some(flag) = it.next() {
                let flag = flag.as_str();
                // Only --chaos-* flags select chaos mode and only
                // --contend/--fairness select contended mode; --metrics
                // composes with any mode.
                match flag {
                    "--contend" => {
                        contend.contenders = parse_num(flag, it.next())?;
                        contend_mode = true;
                        continue;
                    }
                    "--fairness" => {
                        let name = it.next().ok_or("--fairness: missing value")?;
                        contend.fairness = parse_fairness(name).map_err(|e| e.to_string())?;
                        contend_mode = true;
                        continue;
                    }
                    "--chaos-seed" => chaos.seed = parse_num(flag, it.next())?,
                    "--chaos-rate" => chaos.rate = parse_num(flag, it.next())?,
                    "--chaos-horizon" => chaos.horizon = parse_num(flag, it.next())?,
                    "--chaos-retries" => chaos.retries = parse_num(flag, it.next())?,
                    "--chaos-deadline" => chaos.deadline = parse_num(flag, it.next())?,
                    "--chaos-backoff" => chaos.backoff = parse_num(flag, it.next())?,
                    other => match parse_metrics_flag(other) {
                        Some(format) => {
                            chaos.metrics = Some(format?);
                            continue;
                        }
                        None => return Err(format!("negotiate: unknown flag `{other}`")),
                    },
                }
                chaos_mode = true;
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            if chaos_mode && contend_mode {
                return Err("negotiate: --contend/--fairness and --chaos-* are exclusive".into());
            }
            if contend_mode {
                contend.metrics = chaos.metrics;
                negotiate_contend(&text, &contend).map_err(|e| e.to_string())
            } else if chaos_mode {
                negotiate_chaos(&text, chaos).map_err(|e| e.to_string())
            } else {
                negotiate_with(&text, chaos.metrics).map_err(|e| e.to_string())
            }
        }
        "explore" => {
            let path = it.next().ok_or("explore: missing <scenario.json>")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            explore(&text).map_err(|e| e.to_string())
        }
        "coalitions" => {
            let path = it.next().ok_or("coalitions: missing <trust.json>")?;
            let mut metrics = None;
            let mut engine = EngineOptions::default();
            while let Some(flag) = it.next() {
                match parse_metrics_flag(flag) {
                    Some(format) => metrics = Some(format?),
                    None => match parse_engine_flag(flag, &mut it, &mut engine) {
                        Some(parsed) => parsed?,
                        None => return Err(format!("coalitions: unknown flag `{flag}`")),
                    },
                }
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            coalitions_with_options(&text, metrics, engine).map_err(|e| e.to_string())
        }
        "integrity" => {
            let mut step = 512i64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--step" => {
                        let value = it.next().ok_or("--step: missing value")?;
                        step = value
                            .parse()
                            .map_err(|e| format!("--step: not an integer: {e}"))?;
                    }
                    other => return Err(format!("integrity: unknown flag `{other}`")),
                }
            }
            integrity(step).map_err(|e| e.to_string())
        }
        "serve" => {
            let mut daemon = DaemonOptions::default();
            while let Some(flag) = it.next() {
                match parse_daemon_flag(flag, &mut it, &mut daemon) {
                    Some(parsed) => parsed?,
                    None => return Err(format!("serve: unknown flag `{flag}`")),
                }
            }
            serve(&daemon).map_err(|e| e.to_string())
        }
        "load" => {
            let mut options = LoadOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--attach" => {
                        let addr = it.next().ok_or("--attach: missing value")?;
                        options.attach = Some(addr.clone());
                    }
                    "--clients" => options.clients = Some(parse_num(flag, it.next())?),
                    "--concurrency" => options.concurrency = Some(parse_num(flag, it.next())?),
                    "--fault-rate" => options.fault_rate = Some(parse_num(flag, it.next())?),
                    "--churn-rate" => options.churn_rate = Some(parse_num(flag, it.next())?),
                    "--seed" => options.seed = Some(parse_num(flag, it.next())?),
                    "--contended" => options.contended = true,
                    "--waves" => options.waves = Some(parse_num(flag, it.next())?),
                    "--wave-clients" => options.wave_clients = Some(parse_num(flag, it.next())?),
                    "--slots" => options.slots = Some(parse_num(flag, it.next())?),
                    other => match parse_daemon_flag(other, &mut it, &mut options.daemon) {
                        Some(parsed) => parsed?,
                        None => return Err(format!("load: unknown flag `{other}`")),
                    },
                }
            }
            if !options.contended
                && (options.waves.is_some()
                    || options.wave_clients.is_some()
                    || options.slots.is_some())
            {
                return Err("load: --waves/--wave-clients/--slots require --contended".into());
            }
            load(&options).map_err(|e| e.to_string())
        }
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
