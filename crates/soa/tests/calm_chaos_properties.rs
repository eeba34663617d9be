//! A calm chaos run is a plain run: [`Broker::negotiate_resilient`]
//! with no faults (`fault_rate: 0`) and no relaxations must reach
//! exactly the agreement [`Broker::negotiate`] reaches — the same
//! service, agreed level and binding — and no agreement where
//! `negotiate` reports `NoAgreement`, with or without a session
//! deadline.
//!
//! Both entry points run the broker's one session loop and differ
//! only in the interpreter each provider session runs on, so this
//! suite pins the resilient interpreter's recovery machinery (retries,
//! the lower-threshold invariant and its rollbacks) to the plain
//! semantics whenever nothing goes wrong.
//!
//! Each case draws one to three piecewise providers, a client policy
//! and an acceptance interval from the generators the monotony suite
//! uses.

mod common;

use std::fmt::Debug;

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_soa::{Broker, ChaosConfig, NegotiationError, WireSemiring};

use common::{fuzzy, picks, weighted, Kind};

/// Client picks, provider picks (one to three), acceptance picks and
/// whether the sessions run under a step deadline.
type Case = (Vec<usize>, Vec<Vec<usize>>, (usize, usize), bool);

fn case() -> impl Strategy<Value = Case> {
    (
        picks(),
        vec(picks(), 1..=3),
        (0usize..64, 0usize..64),
        any::<bool>(),
    )
}

fn check_calm<S: WireSemiring>(kind: &Kind<S>, (client, providers, bounds, deadline): Case)
where
    S::Value: Debug,
{
    let providers: Vec<Vec<f64>> = providers.iter().map(|p| kind.table(p)).collect();
    let request = kind.request(&kind.table(&client), kind.interval(bounds.0, bounds.1));
    let broker = Broker::new(kind.semiring.clone(), kind.registry(&providers));
    let calm = ChaosConfig {
        fault_rate: 0.0,
        session_deadline: deadline.then_some(64),
        ..ChaosConfig::default()
    };

    let plain = broker.negotiate(&request, S::translate);
    let report = broker
        .negotiate_resilient(&request, &[], &calm, S::translate)
        .expect("a calm chaos run negotiates wherever a plain one does");
    assert_eq!(report.faults_injected, 0);
    match (plain, report.sla) {
        (Ok(plain), Some(calm)) => assert_eq!(
            (plain.service, plain.agreed_level, plain.binding),
            (calm.service, calm.agreed_level, calm.binding)
        ),
        (Err(NegotiationError::NoAgreement(_)), None) => {}
        (plain, calm) => panic!("plain {plain:?} but calm chaos {calm:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_calm_fuzzy_chaos_run_agrees_with_the_plain_one(case in case()) {
        check_calm(&fuzzy(), case);
    }

    #[test]
    fn a_calm_weighted_chaos_run_agrees_with_the_plain_one(case in case()) {
        check_calm(&weighted(), case);
    }
}
