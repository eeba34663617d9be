//! Equivalence of the `O(3ⁿ)` subset DP and the Bell-number
//! enumeration it replaced: on every network both engines find a
//! partition of the same optimal score, under every composition,
//! stability requirement and coalition budget.
//!
//! Partitions themselves may differ — several partitions can attain
//! the optimum and the engines break ties differently — so the tests
//! compare scores and re-validate each winner against its own
//! constraints instead. Both engines run on one thread and on three.

use softsoa_coalition::{
    exact_formation_enumerated, exact_formation_with, is_stable, FormationConfig, FormationResult,
    TrustComposition, TrustNetwork,
};
use softsoa_core::solve::Parallelism;
use softsoa_telemetry::Telemetry;

const COMPOSITIONS: [TrustComposition; 3] = [
    TrustComposition::Min,
    TrustComposition::Max,
    TrustComposition::Average,
];

fn assert_engines_agree(net: &TrustNetwork, cfg: FormationConfig, context: &str) {
    for parallelism in [Parallelism::Sequential, Parallelism::Threads(3)] {
        let context = format!("{context} {parallelism:?}");
        let dp = exact_formation_with(net, cfg, parallelism, &Telemetry::disabled());
        let bell = exact_formation_enumerated(net, cfg, parallelism);
        assert_results_agree(net, cfg, dp, bell, &context);
    }
}

fn assert_results_agree(
    net: &TrustNetwork,
    cfg: FormationConfig,
    dp: Option<FormationResult>,
    bell: Option<FormationResult>,
    context: &str,
) {
    match (dp, bell) {
        (Some(dp), Some(bell)) => {
            assert_eq!(dp.score, bell.score, "{context}: optimal scores differ");
            for (engine, result) in [("dp", &dp), ("bell", &bell)] {
                assert_eq!(
                    result.partition.score(net, cfg.compose),
                    result.score,
                    "{context}: {engine} partition does not attain its claimed score"
                );
                if let Some(k) = cfg.max_coalitions {
                    assert!(
                        result.partition.len() <= k.max(1),
                        "{context}: {engine} ignored the coalition budget"
                    );
                }
                if cfg.require_stability {
                    assert!(
                        is_stable(net, &result.partition, cfg.compose),
                        "{context}: {engine} returned an unstable partition"
                    );
                }
            }
        }
        (None, None) => {}
        (dp, bell) => panic!(
            "{context}: engines disagree on feasibility (dp: {}, bell: {})",
            dp.is_some(),
            bell.is_some()
        ),
    }
}

fn configs() -> Vec<FormationConfig> {
    let mut configs = Vec::new();
    for compose in COMPOSITIONS {
        for require_stability in [false, true] {
            for max_coalitions in [None, Some(1), Some(2), Some(3)] {
                configs.push(FormationConfig {
                    compose,
                    require_stability,
                    max_coalitions,
                });
            }
        }
    }
    configs
}

/// Exhaustive sweep over small networks: every config combination on
/// random networks up to `n = 8` (Bell(8) = 4140 partitions each).
#[test]
fn dp_matches_enumeration_exhaustively_up_to_8() {
    for n in 2u32..=8 {
        for seed in 0..3u64 {
            let net = TrustNetwork::random(n, seed);
            for cfg in configs() {
                assert_engines_agree(&net, cfg, &format!("n={n} seed={seed} {cfg:?}"));
            }
        }
    }
}

/// The Fig. 10 network of the paper, with and without the stability
/// requirement that makes it interesting.
#[test]
fn dp_matches_enumeration_on_fig10() {
    let net = TrustNetwork::fig10();
    for cfg in configs() {
        assert_engines_agree(&net, cfg, &format!("fig10 {cfg:?}"));
    }
}

/// Fixed-seed random networks at n = 10, where the enumeration still
/// runs in a debug-build test (Bell(10) ≈ 116 thousand partitions).
#[test]
fn dp_matches_enumeration_at_10() {
    for seed in [1u64, 2] {
        let net = TrustNetwork::clustered(10, 3, 0.85, 0.15, seed);
        let cfg = FormationConfig {
            compose: TrustComposition::Average,
            require_stability: false,
            max_coalitions: None,
        };
        assert_engines_agree(&net, cfg, &format!("n=10 seed={seed}"));
    }
}

/// Fixed-seed networks up to the Bell ceiling (n = 11..13; Bell(13) ≈
/// 27.6 million partitions — minutes in a debug build, so run
/// explicitly with `cargo test --release -- --ignored`).
#[test]
#[ignore = "Bell-number enumeration at n = 13 takes minutes in debug builds"]
fn dp_matches_enumeration_up_to_the_bell_ceiling() {
    for n in [11u32, 12, 13] {
        let net = TrustNetwork::clustered(n, 3, 0.85, 0.15, u64::from(n));
        for compose in COMPOSITIONS {
            let cfg = FormationConfig {
                compose,
                require_stability: false,
                max_coalitions: None,
            };
            assert_engines_agree(&net, cfg, &format!("n={n} {compose:?}"));
        }
    }
}
