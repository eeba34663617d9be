//! The `scsp_solve` workload: a seeded mix of generated SCSPs solved
//! back to back in-process, every `blevel` checked against a reference
//! computed during set-up. It touches no server, broker or nmsccp code.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use softsoa_core::generate::{
    banded_fuzzy, banded_probabilistic, random_fuzzy, random_weighted, union_weighted, RandomScsp,
    UnionScsp,
};
use softsoa_core::solve::{
    BranchAndBound, Engine, EnumerationSolver, Parallelism, Solver, SolverConfig, SolverStats,
    VarOrder,
};
use softsoa_core::Scsp;
use softsoa_semiring::{Fuzzy, Probabilistic, Semiring, WeightedInt};

use crate::report::{self, Metrics, RunResult};
use crate::stats::{self, Tally};
use crate::trace::{Span, Tracer};

/// Instance-mix generations timed inside the measured window, one per
/// slice of it, after the one that set the run up; `setup_s` is the
/// median of all of them. The host's speed drifts in phases of
/// seconds, so set-ups spread over the run see all its phases.
const SETUPS: usize = 20;
/// Instances per family in the mix.
const PER_FAMILY: u64 = 16;
/// Variables of the banded instances (domain 4, band 3).
const BANDED_VARS: usize = 16;
/// Relative tolerance for probabilistic levels, whose products may be
/// re-associated by tree elimination.
const PROBABILISTIC_TOLERANCE: f64 = 1e-9;

/// A generated instance over its semiring.
enum Instance {
    Weighted(Scsp<WeightedInt>),
    Fuzzy(Scsp<Fuzzy>),
    Probabilistic(Scsp<Probabilistic>),
}

/// One instance of the mix, the engine configuration that solves it,
/// and the reference `blevel` (as a number).
struct Case {
    family: &'static str,
    instance: Instance,
    config: SolverConfig,
    reference: f64,
}

trait Level: Semiring {
    fn number(value: &Self::Value) -> f64;
    fn wrap(p: Scsp<Self>) -> Instance;
}

impl Level for WeightedInt {
    fn number(value: &u64) -> f64 {
        *value as f64
    }
    fn wrap(p: Scsp<Self>) -> Instance {
        Instance::Weighted(p)
    }
}

impl Level for Fuzzy {
    fn number(value: &softsoa_semiring::Unit) -> f64 {
        value.get()
    }
    fn wrap(p: Scsp<Self>) -> Instance {
        Instance::Fuzzy(p)
    }
}

impl Level for Probabilistic {
    fn number(value: &softsoa_semiring::Unit) -> f64 {
        value.get()
    }
    fn wrap(p: Scsp<Self>) -> Instance {
        Instance::Probabilistic(p)
    }
}

/// What a traced run keeps of one solve's `SolverStats`.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    compile_us: f64,
    search_us: f64,
    nodes: f64,
    prunings: f64,
    threads: f64,
    table_cells: f64,
    materialize_us: f64,
    fell_back: bool,
}

impl Counters {
    fn of(stats: &SolverStats) -> Counters {
        let micros = |d: Duration| d.as_secs_f64() * 1e6;
        Counters {
            compile_us: micros(stats.compile_time),
            search_us: micros(stats.solve_time.saturating_sub(stats.compile_time)),
            nodes: stats.nodes as f64,
            prunings: stats.prunings as f64,
            threads: stats.threads as f64,
            table_cells: stats.tree.as_ref().map_or(0.0, |t| t.table_cells as f64),
            materialize_us: stats
                .constraint_evals
                .iter()
                .map(|c| micros(c.materialize_time))
                .sum(),
            fell_back: stats.tree.as_ref().is_some_and(|t| t.fallback),
        }
    }
}

fn solve<S: Level>(p: &Scsp<S>, config: SolverConfig) -> Result<(f64, Counters), String> {
    let solution = BranchAndBound::with_config(VarOrder::Input, config)
        .solve(p)
        .map_err(|e| e.to_string())?;
    let counters = solution.stats().map(Counters::of).unwrap_or_default();
    Ok((S::number(solution.blevel()), counters))
}

impl Instance {
    fn solve(&self, config: SolverConfig) -> Result<(f64, Counters), String> {
        match self {
            Instance::Weighted(p) => solve(p, config),
            Instance::Fuzzy(p) => solve(p, config),
            Instance::Probabilistic(p) => solve(p, config),
        }
    }

    /// The enumeration oracle's `blevel`.
    fn enumerate(&self) -> Result<f64, String> {
        let oracle = EnumerationSolver::new();
        let level = match self {
            Instance::Weighted(p) => {
                WeightedInt::number(oracle.solve(p).map_err(|e| e.to_string())?.blevel())
            }
            Instance::Fuzzy(p) => {
                Fuzzy::number(oracle.solve(p).map_err(|e| e.to_string())?.blevel())
            }
            Instance::Probabilistic(p) => {
                Probabilistic::number(oracle.solve(p).map_err(|e| e.to_string())?.blevel())
            }
        };
        Ok(level)
    }

    fn matches(&self, got: f64, want: f64) -> bool {
        match self {
            Instance::Probabilistic(_) => {
                (got - want).abs() <= PROBABILISTIC_TOLERANCE * want.abs().max(f64::MIN_POSITIVE)
            }
            _ => got == want,
        }
    }
}

/// Generates the instance mix of a seed: the timed set-up.
///
/// Solves run on one thread. Under `Parallelism::Auto` every solve
/// forks a second thread, and on a two-vCPU host shared with other load
/// a descheduled second thread stalls the whole solve: in busy periods
/// the p50 and p99 then spread by 35% and 98% over ten runs, while the
/// single-threaded set-ups timed in the same runs spread by 7%.
fn generate(seed: u64) -> Vec<(&'static str, Instance, SolverConfig)> {
    let default = SolverConfig::default().with_parallelism(Parallelism::Sequential);
    let auto = default.with_engine(Engine::Auto);
    let mut mix = Vec::new();
    for k in 0..PER_FAMILY {
        let s = seed.wrapping_mul(0x9e37_79b9).wrapping_add(k);
        let random = RandomScsp {
            vars: 10,
            domain_size: 3,
            constraints: 20,
            arity: 2,
            seed: s,
        };
        mix.push((
            "random_weighted",
            WeightedInt::wrap(random_weighted(&random)),
            default,
        ));
        mix.push(("random_fuzzy", Fuzzy::wrap(random_fuzzy(&random)), default));
        mix.push((
            "banded_fuzzy",
            Fuzzy::wrap(banded_fuzzy(BANDED_VARS, 4, 3, s)),
            auto,
        ));
        mix.push((
            "banded_probabilistic",
            Probabilistic::wrap(banded_probabilistic(BANDED_VARS, 4, 3, s)),
            auto,
        ));
        let union = UnionScsp {
            components: 4,
            vars_per_component: 8,
            domain_size: 4,
            band: 2,
            seed: s,
        };
        mix.push((
            "union_weighted",
            WeightedInt::wrap(union_weighted(&union)),
            default,
        ));
    }
    mix
}

/// Generates the mix; returns it and the generation time in seconds.
fn timed_generate(seed: u64) -> (Vec<(&'static str, Instance, SolverConfig)>, f64) {
    let began = Instant::now();
    let mix = generate(seed);
    (mix, began.elapsed().as_secs_f64())
}

/// Generates the mix (timed) and computes every reference: the
/// enumeration oracle for the random family, agreement of
/// branch-and-bound and tree elimination for the banded ones.
fn setup(seed: u64) -> Result<(Vec<Case>, f64), String> {
    let (mix, time) = timed_generate(seed);
    let bnb = SolverConfig::default();
    let tree = SolverConfig::default().with_tree_decompose(softsoa_core::solve::DEFAULT_WIDTH_CAP);
    let mut cases = Vec::with_capacity(mix.len());
    for (family, instance, config) in mix {
        let reference = if family.starts_with("random") {
            instance.enumerate()?
        } else {
            let (searched, _) = instance.solve(bnb)?;
            let (eliminated, _) = instance.solve(tree)?;
            if !instance.matches(eliminated, searched) {
                return Err(format!(
                    "{family}: branch-and-bound {searched} and tree elimination {eliminated} disagree"
                ));
            }
            searched
        };
        cases.push(Case {
            family,
            instance,
            config,
            reference,
        });
    }
    Ok((cases, time))
}

/// One measured solve of a traced loop.
struct Solved {
    case: usize,
    latency_ms: f64,
    counters: Counters,
}

struct LoopOut {
    tally: Tally,
    /// The measured solves, kept by traced loops only.
    measured: Vec<Solved>,
    /// `(finish offset in seconds, latency in ms)` of each measured solve.
    ops: Vec<(f64, f64)>,
    /// Peak RSS read after [`report::RSS_OPS`] measured solves.
    rss_mb: Option<Result<f64, String>>,
    window: Duration,
    tracer: Option<Tracer>,
    /// Times of the generations timed inside the window.
    setups: Vec<f64>,
}

impl LoopOut {
    fn throughput(&self) -> f64 {
        self.ops.len() as f64 / self.window.as_secs_f64().max(1e-9)
    }
}

/// Solves the mix back to back for `warmup` and then `seconds`. With
/// `regenerate`, it also times [`SETUPS`] generations of that seed's mix,
/// evenly spaced over the measured window.
fn solve_loop(
    cases: &[Case],
    warmup: Duration,
    seconds: Duration,
    origin: Option<Instant>,
    regenerate: Option<u64>,
) -> Result<LoopOut, String> {
    let measure_from = Instant::now() + warmup;
    let end = measure_from + seconds;
    let mut next_setup = measure_from;
    let mut out = LoopOut {
        tally: Tally::default(),
        measured: Vec::new(),
        ops: Vec::new(),
        rss_mb: None,
        window: Duration::ZERO,
        tracer: origin.map(Tracer::new),
        setups: Vec::new(),
    };
    for (index, case) in cases.iter().enumerate().cycle() {
        let began = Instant::now();
        if began >= end {
            break;
        }
        if let Some(seed) = regenerate {
            if began >= next_setup && out.setups.len() < SETUPS {
                out.setups.push(timed_generate(seed).1);
                next_setup += seconds / SETUPS as u32;
                continue;
            }
        }
        let (level, counters) = case.instance.solve(case.config)?;
        let finished = Instant::now();
        if let Some(tracer) = out.tracer.as_mut() {
            tracer.record("core.solve", None, out.tally.attempted, began, finished);
        }
        let correct = case.instance.matches(level, case.reference);
        if !correct {
            eprintln!(
                "error: {} #{index}: blevel {level}, reference {}",
                case.family, case.reference
            );
        }
        out.tally.record("solved", correct);
        if began >= measure_from {
            let latency_ms = (finished - began).as_secs_f64() * 1e3;
            out.ops
                .push(((finished - measure_from).as_secs_f64(), latency_ms));
            if out.ops.len() == report::RSS_OPS {
                out.rss_mb = Some(report::peak_rss_mb());
            }
            if out.tracer.is_some() {
                out.measured.push(Solved {
                    case: index,
                    latency_ms,
                    counters,
                });
            }
        }
    }
    out.window = Instant::now().saturating_duration_since(measure_from);
    Ok(out)
}

fn warmup(seconds: Duration) -> Duration {
    (seconds / 10).min(Duration::from_secs(1))
}

/// The untraced run: the end-to-end metrics.
pub fn run(seed: u64, seconds: Duration) -> Result<RunResult, String> {
    let (cases, first) = setup(seed)?;
    let out = solve_loop(&cases, warmup(seconds), seconds, None, Some(seed))?;
    let mut setups = out.setups.clone();
    setups.push(first);
    let setup_s = stats::median(&setups);
    let rss_mb = out.rss_mb.unwrap_or_else(report::peak_rss_mb)?;
    let mut metrics = Metrics::default();
    metrics.end_to_end(&out.ops, cases.len(), &out.tally, setup_s, rss_mb)?;
    Ok(RunResult {
        tally: out.tally,
        metrics,
    })
}

/// The traced run: one span per solve carrying its `SolverStats`.
pub fn run_traced(seed: u64, seconds: Duration) -> Result<(RunResult, Vec<Span>), String> {
    let (cases, _) = setup(seed)?;
    let untraced = solve_loop(&cases, warmup(seconds), seconds / 2, None, None)?;
    let origin = Instant::now();
    let traced = solve_loop(&cases, Duration::ZERO, seconds, Some(origin), None)?;
    let spans = traced
        .tracer
        .as_ref()
        .map(|t| t.spans().to_vec())
        .unwrap_or_default();

    let solved = &traced.measured;
    let of = |f: fn(&Counters) -> f64| solved.iter().map(|s| f(&s.counters)).collect::<Vec<_>>();
    let fell_back: BTreeSet<usize> = solved
        .iter()
        .filter(|s| s.counters.fell_back)
        .map(|s| s.case)
        .collect();
    let mut m = BTreeMap::new();
    m.insert("core.compile_us.p50", stats::median(&of(|c| c.compile_us)));
    m.insert("core.search_us.p50", stats::median(&of(|c| c.search_us)));
    m.insert("core.nodes.mean", stats::mean(&of(|c| c.nodes)));
    m.insert("core.prunings.mean", stats::mean(&of(|c| c.prunings)));
    m.insert("core.threads", stats::mean(&of(|c| c.threads)));
    m.insert(
        "core.tree.table_cells.mean",
        stats::mean(&of(|c| c.table_cells)),
    );
    m.insert("core.tree.fallbacks", fell_back.len() as f64);
    m.insert(
        "core.materialize_us.mean",
        stats::mean(&of(|c| c.materialize_us)),
    );
    m.insert("trace.layer_spans", report::layer_spans(&spans) as f64);
    m.insert(
        "trace.overhead_frac",
        1.0 - traced.throughput() / untraced.throughput().max(1e-9),
    );
    let families: BTreeSet<&str> = cases.iter().map(|c| c.family).collect();
    for family in families {
        let mine: Vec<f64> = solved
            .iter()
            .filter(|s| cases[s.case].family == family)
            .map(|s| s.latency_ms)
            .collect();
        eprintln!(
            "{family}: {} solves, p50 {:.3} ms",
            mine.len(),
            stats::median(&mine)
        );
    }

    let mut tally = untraced.tally;
    tally.merge(&traced.tally);
    let mut metrics = Metrics::default();
    metrics.per_layer(&m)?;
    Ok((RunResult { tally, metrics }, spans))
}
