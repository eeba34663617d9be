//! Cartesian products of semirings for multi-criteria optimisation.
//!
//! The Cartesian product of c-semirings is again a c-semiring (Sec. 4 of
//! the paper), with componentwise operations and the componentwise —
//! generally *partial* — order. A provider can thus be scored at once on,
//! say, cost (weighted) and reliability (probabilistic).

use crate::{IdempotentTimes, Residuated, Semiring};

/// The Cartesian product `S1 × S2` of two semirings.
///
/// Operations act componentwise; the induced order is the componentwise
/// order, which is partial as soon as both components have at least two
/// comparable levels (solutions can be *incomparable*, i.e. Pareto
/// frontiers arise naturally).
///
/// Products nest: `Product<Product<A, B>, C>` is a three-criteria
/// semiring; see [`triple`] for a convenience constructor.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Product, Weighted, Probabilistic, Semiring};
///
/// // Optimise cost and reliability together.
/// let s = Product::new(Weighted, Probabilistic);
/// let cheap_flaky = (Weighted::value(1.0)?, Probabilistic::value(0.5)?);
/// let pricey_solid = (Weighted::value(9.0)?, Probabilistic::value(0.99)?);
/// // Neither dominates the other: the order is partial.
/// assert_eq!(s.partial_cmp(&cheap_flaky, &pricey_solid), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Product<S1, S2> {
    first: S1,
    second: S2,
}

impl<S1: Semiring, S2: Semiring> Product<S1, S2> {
    /// Creates the product of two semirings.
    pub fn new(first: S1, second: S2) -> Product<S1, S2> {
        Product { first, second }
    }

    /// The first component semiring.
    pub fn first(&self) -> &S1 {
        &self.first
    }

    /// The second component semiring.
    pub fn second(&self) -> &S2 {
        &self.second
    }
}

impl<S1: Semiring, S2: Semiring> Semiring for Product<S1, S2> {
    type Value = (S1::Value, S2::Value);

    fn zero(&self) -> Self::Value {
        (self.first.zero(), self.second.zero())
    }

    fn one(&self) -> Self::Value {
        (self.first.one(), self.second.one())
    }

    fn plus(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        (self.first.plus(&a.0, &b.0), self.second.plus(&a.1, &b.1))
    }

    fn times(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        (self.first.times(&a.0, &b.0), self.second.times(&a.1, &b.1))
    }

    fn exact_times(&self) -> bool {
        self.first.exact_times() && self.second.exact_times()
    }

    fn is_total(&self) -> bool {
        false
    }

    fn leq(&self, a: &Self::Value, b: &Self::Value) -> bool {
        self.first.leq(&a.0, &b.0) && self.second.leq(&a.1, &b.1)
    }
}

impl<S1: IdempotentTimes, S2: IdempotentTimes> IdempotentTimes for Product<S1, S2> {}

impl<S1: Residuated, S2: Residuated> Residuated for Product<S1, S2> {
    fn div(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        (self.first.div(&a.0, &b.0), self.second.div(&a.1, &b.1))
    }
}

/// Builds a three-criteria semiring `(S1 × S2) × S3`.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{triple, Weighted, Probabilistic, Fuzzy, Semiring};
///
/// let s = triple(Weighted, Probabilistic, Fuzzy);
/// let v = ((Weighted::value(2.0)?, Probabilistic::value(0.9)?), Fuzzy::value(0.7)?);
/// assert!(s.leq(&s.zero(), &v));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn triple<S1, S2, S3>(s1: S1, s2: S2, s3: S3) -> Product<Product<S1, S2>, S3>
where
    S1: Semiring,
    S2: Semiring,
    S3: Semiring,
{
    Product::new(Product::new(s1, s2), s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Boolean, Fuzzy, Probabilistic, Unit, Weight, Weighted};

    type CostRel = Product<Weighted, Probabilistic>;

    fn s() -> CostRel {
        Product::new(Weighted, Probabilistic)
    }

    fn v(w: f64, p: f64) -> (Weight, Unit) {
        (Weight::new(w).unwrap(), Unit::new(p).unwrap())
    }

    #[test]
    fn componentwise_operations() {
        let s = s();
        let a = v(3.0, 0.5);
        let b = v(5.0, 0.8);
        assert_eq!(s.times(&a, &b), v(8.0, 0.4));
        assert_eq!(s.plus(&a, &b), v(3.0, 0.8));
    }

    #[test]
    fn partial_order() {
        let s = s();
        // (cheaper, more reliable) dominates.
        assert!(s.leq(&v(5.0, 0.5), &v(3.0, 0.8)));
        // Trade-offs are incomparable.
        assert_eq!(s.partial_cmp(&v(3.0, 0.5), &v(5.0, 0.8)), None);
        assert!(!s.is_total());
    }

    #[test]
    fn units() {
        let s = s();
        assert_eq!(s.zero(), (Weight::INFINITY, Unit::MIN));
        assert_eq!(s.one(), (Weight::ZERO, Unit::MAX));
    }

    #[test]
    fn residuation_componentwise() {
        let s = s();
        let a = v(5.0, 0.25);
        let b = v(3.0, 0.5);
        assert_eq!(s.div(&a, &b), v(2.0, 0.5));
    }

    #[test]
    fn triple_nesting() {
        let s = triple(Boolean, Fuzzy, Weighted);
        let one = s.one();
        assert_eq!(one, ((true, Unit::MAX), Weight::ZERO));
        assert!(s.leq(&s.zero(), &one));
    }
}
