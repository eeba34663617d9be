//! The set-based semiring `⟨𝒫(A), ∪, ∩, ∅, A⟩`.

use std::collections::BTreeSet;
use std::fmt;

use crate::{IdempotentTimes, Residuated, Semiring};

/// The set-based semiring `⟨𝒫(A), ∪, ∩, ∅, A⟩` over a finite universe.
///
/// Levels are subsets of a fixed universe `A`: `+` is union, `×` is
/// intersection, the bottom is the empty set and the top is `A` itself.
/// The induced order is set inclusion — a *partial* order. The paper
/// uses this instance for security rights and admissible time slots
/// (Sec. 4).
///
/// The universe is part of the semiring value, so two `SetSemiring`s
/// are equal only if their universes are; values are expected to be
/// subsets of the universe and constructors validate this.
///
/// # Examples
///
/// ```
/// use softsoa_semiring::{Semiring, SetSemiring};
///
/// let s = SetSemiring::from_iter(["read", "write", "exec"]);
/// let client = s.subset(["read", "write"])?;
/// let provider = s.subset(["write", "exec"])?;
/// let granted = s.times(&client, &provider);
/// assert_eq!(granted, s.subset(["write"])?);
/// # Ok::<(), softsoa_semiring::NotInUniverseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSemiring<T: SetElement> {
    universe: BTreeSet<T>,
}

/// Bounds required of a set-based semiring element.
///
/// This is an alias-like helper trait, blanket-implemented for every
/// eligible type; you never implement it manually.
pub trait SetElement: Clone + Ord + fmt::Debug + Send + Sync + 'static {}

impl<T: Clone + Ord + fmt::Debug + Send + Sync + 'static> SetElement for T {}

/// An error returned when a set value contains elements outside the
/// semiring universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotInUniverseError(());

impl fmt::Display for NotInUniverseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "set value contains elements outside the semiring universe"
        )
    }
}

impl std::error::Error for NotInUniverseError {}

impl<T: SetElement> SetSemiring<T> {
    /// Creates the semiring with the given universe.
    pub fn new(universe: BTreeSet<T>) -> SetSemiring<T> {
        SetSemiring { universe }
    }

    /// The universe `A` of this semiring.
    pub fn universe(&self) -> &BTreeSet<T> {
        &self.universe
    }

    /// Builds a value from elements, validating membership.
    ///
    /// # Errors
    ///
    /// Returns [`NotInUniverseError`] if any element is not in the
    /// universe.
    pub fn subset<I>(&self, elements: I) -> Result<BTreeSet<T>, NotInUniverseError>
    where
        I: IntoIterator<Item = T>,
    {
        let set: BTreeSet<T> = elements.into_iter().collect();
        if set.is_subset(&self.universe) {
            Ok(set)
        } else {
            Err(NotInUniverseError(()))
        }
    }
}

impl<T: SetElement> FromIterator<T> for SetSemiring<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> SetSemiring<T> {
        SetSemiring::new(iter.into_iter().collect())
    }
}

impl<T: SetElement> Semiring for SetSemiring<T> {
    type Value = BTreeSet<T>;

    fn zero(&self) -> BTreeSet<T> {
        BTreeSet::new()
    }

    fn one(&self) -> BTreeSet<T> {
        self.universe.clone()
    }

    fn plus(&self, a: &BTreeSet<T>, b: &BTreeSet<T>) -> BTreeSet<T> {
        a.union(b).cloned().collect()
    }

    fn times(&self, a: &BTreeSet<T>, b: &BTreeSet<T>) -> BTreeSet<T> {
        a.intersection(b).cloned().collect()
    }

    fn is_total(&self) -> bool {
        // 𝒫(A) under inclusion is total only for |A| ≤ 1.
        self.universe.len() <= 1
    }

    fn leq(&self, a: &BTreeSet<T>, b: &BTreeSet<T>) -> bool {
        a.is_subset(b)
    }
}

impl<T: SetElement> IdempotentTimes for SetSemiring<T> {}

impl<T: SetElement> Residuated for SetSemiring<T> {
    fn div(&self, a: &BTreeSet<T>, b: &BTreeSet<T>) -> BTreeSet<T> {
        // max{x | b ∩ x ⊆ a} = a ∪ (A \ b).
        self.universe
            .iter()
            .filter(|e| a.contains(e) || !b.contains(e))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn semiring() -> SetSemiring<u8> {
        SetSemiring::from_iter(0..4)
    }

    fn set(elems: &[u8]) -> BTreeSet<u8> {
        elems.iter().copied().collect()
    }

    #[test]
    fn union_and_intersection() {
        let s = semiring();
        assert_eq!(s.plus(&set(&[0, 1]), &set(&[1, 2])), set(&[0, 1, 2]));
        assert_eq!(s.times(&set(&[0, 1]), &set(&[1, 2])), set(&[1]));
    }

    #[test]
    fn order_is_inclusion_and_partial() {
        let s = semiring();
        assert!(s.leq(&set(&[0]), &set(&[0, 1])));
        assert!(!s.leq(&set(&[0, 1]), &set(&[0])));
        // {0} and {1} are incomparable.
        assert_eq!(s.partial_cmp(&set(&[0]), &set(&[1])), None);
        assert!(!s.is_total());
    }

    #[test]
    fn subset_validation() {
        let s = semiring();
        assert!(s.subset([0, 3]).is_ok());
        assert!(s.subset([0, 9]).is_err());
    }

    #[test]
    fn residuation() {
        let s = semiring();
        // a ∪ complement(b)
        assert_eq!(s.div(&set(&[0]), &set(&[0, 1])), set(&[0, 2, 3]));
        assert_eq!(s.div(&set(&[]), &s.one()), set(&[]));
        assert_eq!(s.div(&set(&[1]), &set(&[])), s.one());
    }

    #[test]
    fn residuation_galois_property_exhaustive() {
        let s = SetSemiring::from_iter(0u8..3);
        let powerset: Vec<BTreeSet<u8>> = (0u8..8)
            .map(|bits| (0u8..3).filter(|i| bits & (1 << i) != 0).collect())
            .collect();
        for a in &powerset {
            for b in &powerset {
                let d = s.div(a, b);
                for x in &powerset {
                    assert_eq!(
                        s.leq(&s.times(b, x), a),
                        s.leq(x, &d),
                        "a={a:?} b={b:?} x={x:?} d={d:?}"
                    );
                }
            }
        }
    }
}
