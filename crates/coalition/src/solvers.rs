//! Coalition-formation algorithms: exact, greedy baselines and local
//! search.
//!
//! The exact solver maximises the Sec. 6.1 fuzzy objective (the
//! minimum coalition trustworthiness) over *all* set partitions via a
//! bitmask subset DP — `O(3ⁿ)` transitions instead of the Bell number
//! `B(n)` of whole partitions; the retired enumeration survives as
//! [`exact_formation_enumerated`], the `bell_vs_dp` benchmark
//! baseline — optionally restricted to stable ones. The greedy
//! baselines are the
//! two mechanisms the paper contrasts (after Breban & Vassileva):
//! *individually oriented* — each agent clusters with the agent it
//! trusts most — and *socially oriented* — each agent joins the
//! coalition holding its highest summative trust. Local search and
//! best-response stabilisation scale to networks the exact solver
//! cannot touch; the `coalition_ablation` bench (experiment E12)
//! compares them all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softsoa_core::solve::parallel::fan_out;
use softsoa_core::solve::Parallelism;
use softsoa_semiring::Unit;
use softsoa_telemetry::Telemetry;

use crate::{
    find_blocking, is_stable, AgentId, Coalition, Partition, TrustComposition, TrustNetwork,
};

/// Configuration of a coalition-formation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FormationConfig {
    /// The trust-composition operator `◦`.
    pub compose: TrustComposition,
    /// Whether only stable partitions (Def. 4) are feasible.
    pub require_stability: bool,
    /// An upper bound on the number of coalitions. The paper motivates
    /// coalitions by *consumable shared resources* ("the same resource
    /// cannot be assigned to more than a user at a given time"): with
    /// one resource pool per coalition, only so many coalitions can be
    /// provisioned. Unbounded (`None`) formation under a min-trust
    /// objective degenerates to all-singletons (full self-trust).
    pub max_coalitions: Option<usize>,
}

/// The outcome of a formation algorithm.
#[derive(Debug, Clone)]
pub struct FormationResult {
    /// The chosen partition.
    pub partition: Partition,
    /// Its fuzzy objective: the minimum coalition trustworthiness.
    pub score: Unit,
    /// Work counter: partitions examined (exact), or moves tried
    /// (local search), or agents placed (greedy).
    pub explored: usize,
}

/// Exhaustively finds a best-scoring set partition; `None` when
/// stability is required and no stable partition exists.
///
/// Coalitions are `u32` bitmasks. Every subset's trustworthiness
/// `T(C)` is memoized once (`O(2ⁿ·n²)`), then a subset DP assembles
/// the optimal partition of each subset from the optimal partitions
/// of its sub-subsets — `O(3ⁿ)` transitions in total, far below the
/// Bell number `B(n)` of whole partitions, which raises the practical
/// ceiling from 13 to [`MAX_EXACT_AGENTS`]` = 18` agents. The retired
/// enumeration is kept as [`exact_formation_enumerated`].
///
/// # Panics
///
/// Panics if `network.len() > `[`MAX_EXACT_AGENTS`]; also if
/// stability is required, the unconstrained optimum turns out
/// unstable, *and* `network.len() > `[`MAX_ENUMERATED_AGENTS`] — the
/// blocking-pair filter does not decompose over subsets, so those
/// runs fall back to filtered enumeration.
///
/// # Examples
///
/// ```
/// use softsoa_coalition::{exact_formation, is_stable, FormationConfig,
///     TrustComposition, TrustNetwork};
///
/// let net = TrustNetwork::fig10();
/// let cfg = FormationConfig {
///     compose: TrustComposition::Average,
///     require_stability: true,
///     ..Default::default()
/// };
/// let best = exact_formation(&net, cfg).unwrap();
/// assert!(is_stable(&net, &best.partition, TrustComposition::Average));
/// // The Fig. 10 partition {x1..x3} | {x4..x7} is blocked, so the
/// // optimum is a different (here: better-scoring) partition.
/// assert!(best.score.get() >= 0.8);
/// ```
pub fn exact_formation(network: &TrustNetwork, cfg: FormationConfig) -> Option<FormationResult> {
    exact_formation_with(
        network,
        cfg,
        Parallelism::Sequential,
        &Telemetry::disabled(),
    )
}

/// The largest network [`exact_formation`] accepts. The subset DP
/// costs `O(3ⁿ)` time over an `O(2ⁿ)` memo table: at `n = 18` that is
/// ≈193 million transitions over 2 MiB, the practical ceiling. Check
/// against this before calling to avoid the documented panic.
pub const MAX_EXACT_AGENTS: u32 = 18;

/// The largest network [`exact_formation_enumerated`] accepts — and
/// the ceiling for [`exact_formation`] runs that must fall back to it
/// (stability required and the unconstrained optimum unstable). Bell
/// numbers grow super-exponentially; `B(13) ≈ 27.6` million
/// partitions is the practical limit.
pub const MAX_ENUMERATED_AGENTS: u32 = 13;

/// [`exact_formation`] with an explicit parallelism level, reporting
/// through `telemetry`. The subset-trust memo table is filled in
/// contiguous mask ranges across worker threads (every entry is
/// independent, so any split yields an identical table), and the DP
/// itself is deterministic — the winning partition, score and work
/// counter are identical at every thread count. The telemetry records
/// the DP transitions examined (`formation.explored`), the per-chunk
/// memo balance (`formation.chunk_explored` observations), the thread
/// gauge and the winning partition's coalition count.
///
/// # Panics
///
/// As for [`exact_formation`].
pub fn exact_formation_with(
    network: &TrustNetwork,
    cfg: FormationConfig,
    parallelism: Parallelism,
    telemetry: &Telemetry,
) -> Option<FormationResult> {
    let n = network.len();
    assert!(
        n <= MAX_EXACT_AGENTS,
        "exact formation is limited to {MAX_EXACT_AGENTS} agents"
    );
    if n == 0 {
        return Some(FormationResult {
            partition: Partition::new(0, vec![]).expect("empty partition"),
            score: Unit::MAX,
            explored: 1,
        });
    }

    let full: u32 = (1u32 << n) - 1;
    // `T(C)` for every coalition bitmask (`Unit::MIN` for the empty
    // one), filled in contiguous mask ranges: entries are independent,
    // so every split yields the same table.
    let size = full as usize + 1;
    let chunks = fan_out(parallelism, size, size as u64, |range| {
        range
            .map(|mask| match mask {
                0 => Unit::MIN,
                mask => mask_trust(network, mask as u32, cfg.compose),
            })
            .collect::<Vec<_>>()
    });
    if telemetry.enabled() {
        telemetry.incr("formation.runs");
        telemetry.gauge("formation.threads", chunks.len() as i64);
        for chunk in &chunks {
            telemetry.observe("formation.chunk_explored", chunk.len() as u64);
        }
    }
    let val: Vec<Unit> = chunks.concat();

    // A budget of `k ≥ n` coalitions never binds; `Some(0)` behaves as
    // a single mandatory coalition, as in the enumerated baseline.
    let budget = cfg
        .max_coalitions
        .map(|k| k.max(1))
        .filter(|&k| k < n as usize);
    let dp = match budget {
        None => dp_unbounded(n, &val, full),
        Some(k) => dp_bounded(n, &val, full, k),
    };
    let mut explored = dp.explored;
    let mut outcome = Some(dp);

    if cfg.require_stability {
        let already_stable = outcome
            .as_ref()
            .is_some_and(|r| is_stable(network, &r.partition, cfg.compose));
        if !already_stable {
            // Stability (Def. 4) is a property of the whole partition —
            // a coalition is blocked by agents *outside* it — so it
            // does not decompose over subsets. When the unconstrained
            // optimum fails the check, fall back to the filtered
            // Bell-number enumeration.
            assert!(
                n <= MAX_ENUMERATED_AGENTS,
                "stable formation is limited to {MAX_ENUMERATED_AGENTS} agents \
                 when the unconstrained optimum is unstable"
            );
            let (best, enumerated) = enumerate_partitions(network, cfg, parallelism);
            explored += enumerated;
            outcome = best.map(|(partition, score)| FormationResult {
                partition,
                score,
                explored: 0,
            });
        }
    }

    telemetry.count("formation.explored", explored as u64);
    let result = outcome.map(|r| FormationResult { explored, ..r });
    if let Some(result) = &result {
        telemetry.gauge("formation.coalitions", result.partition.len() as i64);
    }
    result
}

/// The restricted-growth-string Bell-number search that backed
/// [`exact_formation`] before the subset DP. Retained as the
/// reference baseline for equivalence tests and the `bell_vs_dp`
/// benchmark, and as the fallback engine for stable formation (it
/// filters partitions *during* the search, which the DP cannot).
///
/// Prefixes of a fixed depth are distributed contiguously over worker
/// threads; local optima merge in prefix order with strict
/// improvement only, so the result is identical at every thread
/// count.
///
/// # Panics
///
/// Panics if `network.len() > `[`MAX_ENUMERATED_AGENTS`].
pub fn exact_formation_enumerated(
    network: &TrustNetwork,
    cfg: FormationConfig,
    parallelism: Parallelism,
) -> Option<FormationResult> {
    let n = network.len();
    assert!(
        n <= MAX_ENUMERATED_AGENTS,
        "enumerated formation is limited to {MAX_ENUMERATED_AGENTS} agents"
    );
    if n == 0 {
        return Some(FormationResult {
            partition: Partition::new(0, vec![]).expect("empty partition"),
            score: Unit::MAX,
            explored: 1,
        });
    }
    let (best, explored) = enumerate_partitions(network, cfg, parallelism);
    best.map(|(partition, score)| FormationResult {
        partition,
        score,
        explored,
    })
}

/// The parallel RGS enumeration shared by
/// [`exact_formation_enumerated`] and the stability fallback.
fn enumerate_partitions(
    network: &TrustNetwork,
    cfg: FormationConfig,
    parallelism: Parallelism,
) -> (Option<(Partition, Unit)>, usize) {
    let n = network.len();
    // Deep enough that every worker gets several independent subtrees,
    // shallow enough that prefix enumeration stays negligible.
    let depth = (n as usize).min(4);
    let prefixes = rgs_prefixes(depth, cfg.max_coalitions);
    let parts = fan_out(parallelism, prefixes.len(), bell(n), |range| {
        let mut best: Option<(Partition, Unit)> = None;
        let mut explored = 0usize;
        for prefix in &prefixes[range] {
            let mut labels = vec![0u32; n as usize];
            labels[..depth].copy_from_slice(prefix);
            enumerate_rgs(&mut labels, depth, network, cfg, &mut best, &mut explored);
        }
        (best, explored)
    });

    let mut best: Option<(Partition, Unit)> = None;
    let mut explored = 0usize;
    for (local, count) in parts {
        explored += count;
        if let Some((partition, score)) = local {
            match &best {
                Some((_, best_score)) if *best_score >= score => {}
                _ => best = Some((partition, score)),
            }
        }
    }
    (best, explored)
}

/// The members of a bitmask coalition, ascending.
fn mask_members(mask: u32) -> Vec<AgentId> {
    let mut members = Vec::with_capacity(mask.count_ones() as usize);
    let mut rest = mask;
    while rest != 0 {
        members.push(rest.trailing_zeros());
        rest &= rest - 1;
    }
    members
}

fn mask_coalition(mask: u32) -> Coalition {
    mask_members(mask).into_iter().collect()
}

/// `T(C)` for a bitmask coalition: the same ascending ordered-pair
/// sweep as [`coalition_trust`] over a [`Coalition`], so scores —
/// including the float-summation-order-sensitive `Average` — are
/// bit-identical to `Partition::score`.
fn mask_trust(network: &TrustNetwork, mask: u32, compose: TrustComposition) -> Unit {
    let members = mask_members(mask);
    compose.compose(
        members
            .iter()
            .flat_map(|&i| members.iter().map(move |&j| (i, j)))
            .map(|(i, j)| network.get(i, j)),
    )
}

/// `B(n)`, the number of set partitions of `n` agents (Bell triangle):
/// the leaves [`enumerate_partitions`] visits without a coalition cap.
fn bell(n: u32) -> u64 {
    let mut row = vec![1u64];
    for _ in 0..n {
        let mut next = vec![row[row.len() - 1]];
        for &x in &row {
            next.push(next[next.len() - 1].saturating_add(x));
        }
        row = next;
    }
    row[0]
}

/// The unconstrained subset DP. `best[S]` is the optimal score over
/// partitions of the subset `S`, assembled by choosing the block that
/// contains `S`'s lowest agent — every partition of `S` is generated
/// exactly once. Submasks are scanned in increasing order with ties
/// keeping the first candidate, which fixes the reconstruction
/// deterministically. Work is `Σ_S 2^(|S|−1) = (3ⁿ − 1)/2`
/// transitions.
fn dp_unbounded(n: u32, val: &[Unit], full: u32) -> FormationResult {
    let mut best = vec![Unit::MAX; val.len()];
    let mut choice = vec![0u32; val.len()];
    let mut explored = 0usize;
    for mask in 1..=full {
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let mut local: Option<(Unit, u32)> = None;
        let mut sub = 0u32;
        loop {
            let block = sub | low;
            // The objective is the min over blocks: the block's own
            // trust meets the best score of the remainder.
            let cand = val[block as usize].min(best[(mask ^ block) as usize]);
            explored += 1;
            match local {
                Some((score, _)) if score >= cand => {}
                _ => local = Some((cand, block)),
            }
            if sub == rest {
                break;
            }
            sub = sub.wrapping_sub(rest) & rest;
        }
        let (score, block) = local.expect("the subset itself is always a candidate block");
        best[mask as usize] = score;
        choice[mask as usize] = block;
    }

    let mut coalitions = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let block = choice[mask as usize];
        coalitions.push(mask_coalition(block));
        mask ^= block;
    }
    FormationResult {
        partition: Partition::new(n, coalitions).expect("blocks partition the agents"),
        score: best[full as usize],
        explored,
    }
}

/// The budgeted subset DP: layer `j` holds the best score over
/// partitions of each subset into *at most* `j` coalitions (`None`
/// while infeasible). Scores roll between two rows; only the chosen
/// blocks are kept per layer, enough to reconstruct the winner.
fn dp_bounded(n: u32, val: &[Unit], full: u32, budget: usize) -> FormationResult {
    let size = val.len();
    let mut prev: Vec<Option<Unit>> = vec![None; size];
    let mut current: Vec<Option<Unit>> = vec![None; size];
    prev[0] = Some(Unit::MAX);
    let mut choices: Vec<Vec<u32>> = Vec::with_capacity(budget);
    let mut explored = 0usize;
    for _ in 1..=budget {
        current[0] = Some(Unit::MAX);
        let mut choice = vec![0u32; size];
        for mask in 1..=full {
            let low = mask & mask.wrapping_neg();
            let rest = mask ^ low;
            let mut local: Option<(Unit, u32)> = None;
            let mut sub = 0u32;
            loop {
                let block = sub | low;
                if let Some(tail) = prev[(mask ^ block) as usize] {
                    let cand = val[block as usize].min(tail);
                    explored += 1;
                    match local {
                        Some((score, _)) if score >= cand => {}
                        _ => local = Some((cand, block)),
                    }
                }
                if sub == rest {
                    break;
                }
                sub = sub.wrapping_sub(rest) & rest;
            }
            match local {
                Some((score, block)) => {
                    current[mask as usize] = Some(score);
                    choice[mask as usize] = block;
                }
                None => current[mask as usize] = None,
            }
        }
        choices.push(choice);
        std::mem::swap(&mut prev, &mut current);
    }

    let score = prev[full as usize].expect("one coalition is always feasible");
    let mut coalitions = Vec::new();
    let mut mask = full;
    let mut layer = budget;
    while mask != 0 {
        let block = choices[layer - 1][mask as usize];
        coalitions.push(mask_coalition(block));
        mask ^= block;
        layer -= 1;
    }
    FormationResult {
        partition: Partition::new(n, coalitions).expect("blocks partition the agents"),
        score,
        explored,
    }
}

/// Enumerates every valid restricted-growth-string prefix of the given
/// length, in the order the sequential DFS would visit them.
fn rgs_prefixes(depth: usize, max_coalitions: Option<usize>) -> Vec<Vec<u32>> {
    fn rec(prefix: &mut Vec<u32>, depth: usize, limit: Option<usize>, out: &mut Vec<Vec<u32>>) {
        if prefix.len() == depth {
            out.push(prefix.clone());
            return;
        }
        let mut highest = prefix.iter().copied().max().unwrap_or(0) + 1;
        if let Some(limit) = limit {
            highest = highest.min(limit.saturating_sub(1) as u32);
        }
        for label in 0..=highest {
            prefix.push(label);
            rec(prefix, depth, limit, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(&mut vec![0u32], depth, max_coalitions, &mut out);
    out
}

/// Recursively enumerates restricted growth strings over `labels`.
fn enumerate_rgs(
    labels: &mut Vec<u32>,
    depth: usize,
    network: &TrustNetwork,
    cfg: FormationConfig,
    best: &mut Option<(Partition, Unit)>,
    explored: &mut usize,
) {
    let n = labels.len();
    if depth == n {
        *explored += 1;
        let partition = partition_from_labels(network.len(), labels);
        if cfg.require_stability && !is_stable(network, &partition, cfg.compose) {
            return;
        }
        let score = partition.score(network, cfg.compose);
        match best {
            Some((_, best_score)) if *best_score >= score => {}
            _ => *best = Some((partition, score)),
        }
        return;
    }
    let max_label = labels[..depth].iter().copied().max().unwrap_or(0);
    let mut highest = max_label + 1;
    if let Some(limit) = cfg.max_coalitions {
        highest = highest.min(limit.saturating_sub(1) as u32);
    }
    for label in 0..=highest {
        labels[depth] = label;
        enumerate_rgs(labels, depth + 1, network, cfg, best, explored);
    }
    labels[depth] = 0;
}

fn partition_from_labels(n: u32, labels: &[u32]) -> Partition {
    let groups = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut coalitions: Vec<Coalition> = vec![Coalition::new(); groups as usize];
    for (agent, &label) in labels.iter().enumerate() {
        coalitions[label as usize].insert(agent as AgentId);
    }
    coalitions.retain(|c| !c.is_empty());
    Partition::new(n, coalitions).expect("labels induce a partition")
}

/// The *individually oriented* baseline: every agent clusters with the
/// single agent it trusts most (ties to the lowest id); the coalitions
/// are the connected components of that "best friend" graph.
pub fn individually_oriented(network: &TrustNetwork, compose: TrustComposition) -> FormationResult {
    let n = network.len();
    if n == 0 {
        return FormationResult {
            partition: Partition::new(0, vec![]).expect("empty partition"),
            score: Unit::MAX,
            explored: 0,
        };
    }
    // Union-find over "agent — most trusted other".
    let mut parent: Vec<u32> = (0..n).collect();
    fn find(parent: &mut Vec<u32>, i: u32) -> u32 {
        if parent[i as usize] != i {
            let root = find(parent, parent[i as usize]);
            parent[i as usize] = root;
        }
        parent[i as usize]
    }
    for i in 0..n {
        let mut best: Option<(Unit, u32)> = None;
        for j in 0..n {
            if i == j {
                continue;
            }
            let t = network.get(i, j);
            match best {
                Some((bt, _)) if bt >= t => {}
                _ => best = Some((t, j)),
            }
        }
        if let Some((_, j)) = best {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri as usize] = rj;
            }
        }
    }
    let mut groups: std::collections::BTreeMap<u32, Coalition> = Default::default();
    for i in 0..n {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().insert(i);
    }
    let partition =
        Partition::new(n, groups.into_values().collect()).expect("components partition");
    let score = partition.score(network, compose);
    FormationResult {
        partition,
        score,
        explored: n as usize,
    }
}

/// The *socially oriented* baseline: agents are placed in id order;
/// each joins the existing coalition where its *summative* trust is
/// highest, or opens a singleton when no coalition beats its
/// self-trust.
pub fn socially_oriented(network: &TrustNetwork, compose: TrustComposition) -> FormationResult {
    let n = network.len();
    let mut coalitions: Vec<Coalition> = Vec::new();
    for i in 0..n {
        let mut best: Option<(f64, usize)> = None;
        for (idx, c) in coalitions.iter().enumerate() {
            let sum: f64 = c.iter().map(|&j| network.get(i, j).get()).sum();
            match best {
                Some((bs, _)) if bs >= sum => {}
                _ => best = Some((sum, idx)),
            }
        }
        match best {
            Some((sum, idx)) if sum > network.get(i, i).get() => {
                coalitions[idx].insert(i);
            }
            _ => coalitions.push(Coalition::from([i])),
        }
    }
    let partition = if n == 0 {
        Partition::new(0, vec![]).expect("empty partition")
    } else {
        Partition::new(n, coalitions).expect("greedy placement partitions")
    };
    let score = partition.score(network, compose);
    FormationResult {
        partition,
        score,
        explored: n as usize,
    }
}

/// Seeded hill-climbing on the fuzzy objective: random single-agent
/// moves (to another coalition or to a fresh singleton), keeping
/// strict improvements, starting from the socially-oriented greedy
/// solution.
pub fn local_search(
    network: &TrustNetwork,
    cfg: FormationConfig,
    seed: u64,
    max_moves: usize,
) -> FormationResult {
    let n = network.len();
    let start = socially_oriented(network, cfg.compose);
    if n < 2 {
        return start;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = match cfg.max_coalitions {
        Some(limit) if limit > 0 && start.partition.len() > limit => {
            // Round-robin the agents into `limit` coalitions.
            let buckets = limit.min(n as usize);
            let mut coalitions: Vec<Coalition> = vec![Coalition::new(); buckets];
            for i in 0..n {
                coalitions[(i as usize) % buckets].insert(i);
            }
            Partition::new(n, coalitions).expect("round-robin partitions")
        }
        _ => start.partition,
    };
    let mut score = current.score(network, cfg.compose);
    let mut explored = 0usize;

    for _ in 0..max_moves {
        explored += 1;
        let agent: AgentId = rng.random_range(0..n);
        let from = current.coalition_of(agent).expect("agent placed");
        // Candidate targets: every other coalition, or a new singleton.
        let target = rng.random_range(0..=current.len());
        if target == from {
            continue;
        }
        let mut coalitions: Vec<Coalition> = current.coalitions().to_vec();
        coalitions[from].remove(&agent);
        if target == current.len() {
            coalitions.push(Coalition::from([agent]));
        } else {
            coalitions[target].insert(agent);
        }
        coalitions.retain(|c| !c.is_empty());
        let candidate = Partition::new(n, coalitions).expect("move preserves partition");
        if cfg
            .max_coalitions
            .is_some_and(|limit| candidate.len() > limit)
        {
            continue;
        }
        if cfg.require_stability && !is_stable(network, &candidate, cfg.compose) {
            continue;
        }
        let candidate_score = candidate.score(network, cfg.compose);
        if candidate_score > score {
            current = candidate;
            score = candidate_score;
        }
    }
    FormationResult {
        partition: current,
        score,
        explored,
    }
}

/// Best-response stabilisation: repeatedly resolve the first blocking
/// pair (Def. 4) by moving the defecting agent into the coalition it
/// prefers, until stable or out of moves.
///
/// Returns the final partition and whether it is stable. Best-response
/// dynamics may cycle, hence the bound.
pub fn stabilize(
    network: &TrustNetwork,
    partition: Partition,
    compose: TrustComposition,
    max_moves: usize,
) -> (Partition, bool) {
    let n = network.len();
    let mut current = partition;
    for _ in 0..max_moves {
        let Some(blocking) = find_blocking(network, &current, compose) else {
            return (current, true);
        };
        let mut coalitions: Vec<Coalition> = current.coalitions().to_vec();
        coalitions[blocking.source].remove(&blocking.agent);
        coalitions[blocking.target].insert(blocking.agent);
        coalitions.retain(|c| !c.is_empty());
        current = Partition::new(n, coalitions).expect("defection preserves partition");
    }
    let stable = is_stable(network, &current, compose);
    (current, stable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_on_clustered_network_recovers_clusters() {
        let net = TrustNetwork::clustered(6, 2, 0.9, 0.1, 5);
        let cfg = FormationConfig {
            compose: TrustComposition::Min,
            require_stability: false,
            ..Default::default()
        };
        let best = exact_formation(&net, cfg).unwrap();
        // Agents with the same parity belong together.
        for c in best.partition.coalitions() {
            let parities: std::collections::BTreeSet<u32> = c.iter().map(|a| a % 2).collect();
            assert_eq!(parities.len(), 1, "mixed coalition {c:?}");
        }
        // (3⁶ − 1)/2 = 364 DP transitions — still above the B(6) = 203
        // partitions the enumeration used to visit.
        assert!(best.explored >= 203);
    }

    #[test]
    fn exact_with_stability_resolves_fig10() {
        let net = TrustNetwork::fig10();
        let cfg = FormationConfig {
            compose: TrustComposition::Average,
            require_stability: true,
            ..Default::default()
        };
        let best = exact_formation(&net, cfg).unwrap();
        assert!(is_stable(&net, &best.partition, TrustComposition::Average));
        // The Fig. 10 partition is blocked, so it cannot be chosen.
        let fig10 = Partition::new(
            7,
            vec![
                [0, 1, 2].into_iter().collect(),
                [3, 4, 5, 6].into_iter().collect(),
            ],
        )
        .unwrap();
        assert_ne!(best.partition, fig10);
    }

    #[test]
    fn singletons_are_an_exact_lower_bound() {
        // The all-singleton partition scores MAX (full self-trust), so
        // the unconstrained exact optimum is always MAX-scored.
        let net = TrustNetwork::random(5, 11);
        let cfg = FormationConfig {
            compose: TrustComposition::Min,
            require_stability: false,
            ..Default::default()
        };
        let best = exact_formation(&net, cfg).unwrap();
        assert_eq!(best.score, Unit::MAX);
    }

    #[test]
    fn individually_oriented_pairs_mutual_friends() {
        let u = |v: f64| Unit::clamped(v);
        let mut net = TrustNetwork::new(4, u(0.1));
        for i in 0..4 {
            net.set(i, i, Unit::MAX);
        }
        // 0↔1 and 2↔3 are mutual best friends.
        net.set(0, 1, u(0.9));
        net.set(1, 0, u(0.9));
        net.set(2, 3, u(0.9));
        net.set(3, 2, u(0.9));
        let result = individually_oriented(&net, TrustComposition::Min);
        assert_eq!(result.partition.len(), 2);
        assert_eq!(
            result.partition.coalition_of(0),
            result.partition.coalition_of(1)
        );
        assert_eq!(
            result.partition.coalition_of(2),
            result.partition.coalition_of(3)
        );
    }

    #[test]
    fn socially_oriented_prefers_summative_trust() {
        let u = |v: f64| Unit::clamped(v);
        let mut net = TrustNetwork::new(3, u(0.4));
        net.set(0, 0, u(0.5));
        net.set(1, 1, u(0.5));
        net.set(2, 2, u(0.5));
        // Agent 2 trusts both 0 and 1 at 0.4 each: summative 0.8 beats
        // its self-trust 0.5 once 0 and 1 are together.
        net.set(1, 0, u(0.6));
        let result = socially_oriented(&net, TrustComposition::Average);
        assert_eq!(result.partition.len(), 1);
    }

    #[test]
    fn local_search_never_worse_than_greedy_start() {
        for seed in 0..5 {
            let net = TrustNetwork::random(8, seed);
            let cfg = FormationConfig {
                compose: TrustComposition::Average,
                require_stability: false,
                ..Default::default()
            };
            let greedy = socially_oriented(&net, cfg.compose);
            let improved = local_search(&net, cfg, seed, 300);
            assert!(improved.score >= greedy.score, "seed {seed}");
        }
    }

    #[test]
    fn stabilize_fixes_fig10() {
        let net = TrustNetwork::fig10();
        let fig10 = Partition::new(
            7,
            vec![
                [0, 1, 2].into_iter().collect(),
                [3, 4, 5, 6].into_iter().collect(),
            ],
        )
        .unwrap();
        let (stable, ok) = stabilize(&net, fig10, TrustComposition::Average, 50);
        assert!(ok);
        // x4 defected into the first coalition.
        let c = stable.coalition_of(3).unwrap();
        assert!(stable.coalitions()[c].contains(&0));
    }

    #[test]
    fn max_coalitions_bounds_the_partition() {
        let net = TrustNetwork::clustered(6, 2, 0.9, 0.1, 5);
        let cfg = FormationConfig {
            compose: TrustComposition::Average,
            require_stability: false,
            max_coalitions: Some(2),
        };
        let best = exact_formation(&net, cfg).unwrap();
        assert!(best.partition.len() <= 2);
        // With the budget, the clustered structure is recovered (the
        // two parity classes), instead of the all-singletons optimum.
        for c in best.partition.coalitions() {
            let parities: std::collections::BTreeSet<u32> = c.iter().map(|a| a % 2).collect();
            assert_eq!(parities.len(), 1, "mixed coalition {c:?}");
        }
        let ls = local_search(&net, cfg, 1, 500);
        assert!(ls.partition.len() <= 2);
        assert!(ls.score <= best.score);
    }

    #[test]
    fn parallel_formation_reproduces_the_sequential_optimum() {
        for seed in 0..4 {
            let net = TrustNetwork::random(7, seed);
            for max_coalitions in [None, Some(3)] {
                let cfg = FormationConfig {
                    compose: TrustComposition::Average,
                    require_stability: false,
                    max_coalitions,
                };
                let sequential = exact_formation(&net, cfg).unwrap();
                for threads in [1, 2, 5] {
                    let parallel = exact_formation_with(
                        &net,
                        cfg,
                        Parallelism::Threads(threads),
                        &Telemetry::disabled(),
                    )
                    .unwrap();
                    assert_eq!(parallel.partition, sequential.partition, "seed {seed}");
                    assert_eq!(parallel.score, sequential.score, "seed {seed}");
                    assert_eq!(parallel.explored, sequential.explored, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn exact_matches_brute_force_score_small() {
        // Cross-check the subset DP against the enumerated baseline
        // and the two canonical partitions on a 3-agent network.
        let net = TrustNetwork::random(3, 2);
        let cfg = FormationConfig {
            compose: TrustComposition::Average,
            require_stability: false,
            ..Default::default()
        };
        let best = exact_formation(&net, cfg).unwrap();
        assert_eq!(best.explored, 13); // (3³ − 1)/2 DP transitions
        for p in [Partition::singletons(3), Partition::grand(3)] {
            assert!(best.score >= p.score(&net, cfg.compose));
        }
        let baseline = exact_formation_enumerated(&net, cfg, Parallelism::Sequential).unwrap();
        assert_eq!(baseline.explored, 5); // B(3) = 5 partitions
        assert_eq!(best.score, baseline.score);
    }

    #[test]
    fn dp_scales_past_the_bell_ceiling() {
        // n = 14 is beyond the old enumeration limit (B(14) ≈ 1.9·10⁸)
        // but cheap for the DP: (3¹⁴ − 1)/2 ≈ 2.4M transitions.
        let net = TrustNetwork::random(14, 3);
        let cfg = FormationConfig {
            compose: TrustComposition::Min,
            require_stability: false,
            ..Default::default()
        };
        let best = exact_formation(&net, cfg).unwrap();
        // Full self-trust makes all-singletons the MAX-scored optimum.
        assert_eq!(best.score, Unit::MAX);
        assert_eq!(best.explored, (3usize.pow(14) - 1) / 2);
    }

    #[test]
    #[ignore = "release-mode scale check: 193M DP transitions at n = 18"]
    fn dp_accepts_eighteen_agents() {
        let net = TrustNetwork::clustered(18, 3, 0.9, 0.1, 7);
        let cfg = FormationConfig {
            compose: TrustComposition::Average,
            require_stability: false,
            max_coalitions: Some(3),
        };
        let best = exact_formation(&net, cfg).unwrap();
        assert!(best.partition.len() <= 3);
        for c in best.partition.coalitions() {
            let residues: std::collections::BTreeSet<u32> = c.iter().map(|a| a % 3).collect();
            assert_eq!(residues.len(), 1, "mixed coalition {c:?}");
        }
    }

    #[test]
    fn dp_matches_enumeration_scores_on_random_networks() {
        for seed in 0..8 {
            let net = TrustNetwork::random(6, seed);
            for compose in [
                TrustComposition::Min,
                TrustComposition::Max,
                TrustComposition::Average,
            ] {
                for max_coalitions in [None, Some(2), Some(3)] {
                    let cfg = FormationConfig {
                        compose,
                        require_stability: false,
                        max_coalitions,
                    };
                    let dp = exact_formation(&net, cfg).unwrap();
                    let baseline =
                        exact_formation_enumerated(&net, cfg, Parallelism::Sequential).unwrap();
                    assert_eq!(dp.score, baseline.score, "seed {seed} {compose:?}");
                    if let Some(limit) = max_coalitions {
                        assert!(dp.partition.len() <= limit);
                    }
                }
            }
        }
    }
}
