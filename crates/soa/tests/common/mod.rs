//! Generators shared by the negotiation property suites: client
//! policies, provider offers and acceptance intervals as tables over a
//! fixed int domain, with levels from a small per-semiring palette.

use proptest::collection::vec;
use proptest::prelude::*;
use softsoa_core::{Constraint, Domain, Var};
use softsoa_dependability::Attribute;
use softsoa_nmsccp::Interval;
use softsoa_semiring::{Fuzzy, Weighted};
use softsoa_soa::{
    NegotiationRequest, OfferShape, QosDocument, QosOffer, Registry, ServiceDescription,
    WireSemiring,
};

/// The negotiation domain is `0..=MAX_X`.
pub const MAX_X: i64 = 5;
pub const CELLS: usize = MAX_X as usize + 1;

/// One semiring's view of the raw levels that offers carry; a raw
/// level reads as `S::level` reads it, and an offer translates through
/// `S::translate`.
pub struct Kind<S: WireSemiring> {
    pub semiring: S,
    /// Raw levels the tables draw from (`0` of the semiring included).
    pub palette: &'static [f64],
}

pub fn fuzzy() -> Kind<Fuzzy> {
    Kind {
        semiring: Fuzzy,
        palette: &[0.0, 0.25, 0.5, 0.75, 1.0],
    }
}

pub fn weighted() -> Kind<Weighted> {
    Kind {
        semiring: Weighted,
        // Costs: 0 is the best level; 64 stands in for a cost too high
        // to accept.
        palette: &[0.0, 1.0, 2.0, 4.0, 64.0],
    }
}

/// Palette picks for one table over the domain.
pub fn picks() -> impl Strategy<Value = Vec<usize>> {
    vec(0usize..64, CELLS)
}

impl<S: WireSemiring> Kind<S> {
    pub fn raw(&self, pick: usize) -> f64 {
        self.palette[pick % self.palette.len()]
    }

    /// The raw table over the domain that `picks` selects.
    pub fn table(&self, picks: &[usize]) -> Vec<f64> {
        picks.iter().map(|&p| self.raw(p)).collect()
    }

    /// A registry with one piecewise provider `svc-<index>` per table.
    pub fn registry(&self, providers: &[Vec<f64>]) -> Registry {
        let mut registry = Registry::new();
        for (index, table) in providers.iter().enumerate() {
            let id = format!("svc-{index}");
            let points = (0..=MAX_X).zip(table.iter().copied()).collect();
            registry.publish(ServiceDescription::new(
                id.as_str(),
                "acme",
                "compute",
                QosDocument::new(id.as_str()).with_offer(QosOffer {
                    attribute: Attribute::Reliability,
                    variable: "x".into(),
                    shape: OfferShape::Piecewise { points },
                }),
            ));
        }
        registry
    }

    /// The request of a client whose policy is the table `client`.
    pub fn request(&self, client: &[f64], acceptance: Interval<S>) -> NegotiationRequest<S> {
        let client = client.to_vec();
        NegotiationRequest {
            capability: "compute".into(),
            variable: Var::new("x"),
            domain: Domain::ints(0..=MAX_X),
            constraint: Constraint::unary(self.semiring.clone(), "x", move |v| {
                S::level(client[v.as_int().unwrap() as usize])
            }),
            acceptance,
        }
    }

    /// The levels of two palette picks as `(lower, upper)`
    /// thresholds: the worse one first.
    pub fn bounds(&self, a: usize, b: usize) -> (S::Value, S::Value) {
        let (a, b) = (S::level(self.raw(a)), S::level(self.raw(b)));
        if self.semiring.lt(&b, &a) {
            (b, a)
        } else {
            (a, b)
        }
    }

    /// The acceptance interval between two palette picks.
    pub fn interval(&self, a: usize, b: usize) -> Interval<S> {
        let (lower, upper) = self.bounds(a, b);
        Interval::levels(lower, upper)
    }
}
