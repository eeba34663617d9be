//! The shared constraint store `σ`.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use softsoa_core::{Constraint, Domain, Domains, MissingDomainError, Var};
use softsoa_semiring::{Residuated, Semiring};

/// An error produced by a store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// A variable involved in the operation has no declared domain.
    MissingDomain(MissingDomainError),
    /// `retract(c)` was attempted while `σ ⋢ c` (rule R7 requires the
    /// constraint to be entailed by the store).
    NotEntailed,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::MissingDomain(e) => write!(f, "{e}"),
            StoreError::NotEntailed => {
                write!(
                    f,
                    "cannot retract a constraint that the store does not entail"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::MissingDomain(e) => Some(e),
            StoreError::NotEntailed => None,
        }
    }
}

impl From<MissingDomainError> for StoreError {
    fn from(e: MissingDomainError) -> StoreError {
        StoreError::MissingDomain(e)
    }
}

/// The constraint store `σ ∈ C` of the `nmsccp` language.
///
/// A store is a single soft constraint (the combination of everything
/// told so far) together with the domain map of the problem's
/// variables. The empty store — written `0` in the paper's examples,
/// meaning the constraint with *empty support* — is the constraint
/// `1̄`, the unit of `⊗`.
///
/// Stores are immutable: every operation returns the next store, whose
/// `σ` is eagerly materialised into a dense table over its support so
/// that repeated queries (entailment, consistency checks on every
/// checked transition) never re-evaluate user closures. Once `σ` is
/// such a table, `tell`, `retract` and `update` walk its cells once
/// and write the next store's level vector, which shares `σ`'s scope
/// and layout.
///
/// Because `σ` is materialised on every operation,
/// [`consistency`](Store::consistency) — `σ ⇓ ∅`, the level every
/// checked transition of Fig. 3 compares against its interval — is one
/// `+`-fold over `σ`'s support, never dearer than the `materialize`
/// that operation already paid. It is computed once per store and
/// memoised.
///
/// # Examples
///
/// ```
/// use softsoa_nmsccp::Store;
/// use softsoa_core::{Constraint, Domain, Domains};
/// use softsoa_semiring::WeightedInt;
///
/// let doms = Domains::new().with("x", Domain::ints(0..=10));
/// let store = Store::empty(WeightedInt, doms);
/// // tell c3(x) = 2x, then c4(x) = x + 5 (Fig. 7 of the paper)
/// let c3 = Constraint::unary(WeightedInt, "x", |v| 2 * v.as_int().unwrap() as u64);
/// let c4 = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64 + 5);
/// let store = store.tell(&c3)?.tell(&c4)?;
/// // σ ⇓ ∅: best level over x is at x = 0 → 5 hours (Example 1).
/// assert_eq!(store.consistency()?, 5);
/// # Ok::<(), softsoa_nmsccp::StoreError>(())
/// ```
pub struct Store<S: Semiring> {
    semiring: S,
    domains: Arc<Domains>,
    sigma: Constraint<S>,
    /// The consistency level of this (immutable) store, once computed.
    memo: Mutex<Option<S::Value>>,
}

impl<S: Semiring> Clone for Store<S> {
    fn clone(&self) -> Store<S> {
        Store {
            semiring: self.semiring.clone(),
            domains: self.domains.clone(),
            sigma: self.sigma.clone(),
            memo: Mutex::new(self.memo.lock().clone()),
        }
    }
}

impl<S: Semiring> fmt::Debug for Store<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("semiring", &self.semiring)
            .field("domains", &self.domains)
            .field("sigma", &self.sigma)
            .finish()
    }
}

impl<S: Semiring> Store<S> {
    /// Creates the empty store (`σ = 1̄`) over the given domains, which
    /// stores of one negotiation may share.
    pub fn empty(semiring: S, domains: impl Into<Arc<Domains>>) -> Store<S> {
        Store {
            sigma: Constraint::always(semiring.clone()),
            semiring,
            domains: domains.into(),
            memo: Mutex::new(None),
        }
    }

    /// The next store after an operation: new `σ`, consistency not yet
    /// computed.
    fn derived(&self, sigma: Constraint<S>) -> Store<S> {
        Store {
            semiring: self.semiring.clone(),
            domains: self.domains.clone(),
            sigma,
            memo: Mutex::new(None),
        }
    }

    /// The semiring of the store.
    pub fn semiring(&self) -> &S {
        &self.semiring
    }

    /// The domain map of the store.
    pub fn domains(&self) -> &Domains {
        &self.domains
    }

    /// The store as a single soft constraint (`⊗` of everything told).
    pub fn sigma(&self) -> &Constraint<S> {
        &self.sigma
    }

    /// Declares (or replaces) a variable's domain — used by the hiding
    /// rule to introduce fresh variables.
    pub fn declare(&mut self, var: Var, domain: Domain) {
        Arc::make_mut(&mut self.domains).insert(var, domain);
        *self.memo.get_mut() = None;
    }

    /// Adds `c` to the store: `σ' = σ ⊗ c` (rule R1).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable of
    /// the result has no domain.
    pub fn tell(&self, c: &Constraint<S>) -> Result<Store<S>, StoreError> {
        let sigma = if self.is_unit() {
            c.materialize(&self.domains)?
        } else {
            self.sigma.combine_over(c, &self.domains)?
        };
        Ok(self.derived(sigma))
    }

    /// Whether `σ` is the unit `1̄` of an exact `×`, so that `σ ⊗ c`
    /// is `c` itself and the first `tell` materialises `c` directly.
    fn is_unit(&self) -> bool {
        self.semiring.exact_times()
            && self
                .sigma
                .as_constant()
                .is_some_and(|v| *v == self.semiring.one())
    }

    /// Fails as an operation with `c` would if a variable of `c`'s
    /// support has no domain (`σ`'s own support always has one).
    pub(crate) fn require_domains(&self, c: &Constraint<S>) -> Result<(), StoreError> {
        for var in c.scope() {
            self.domains.get(var)?;
        }
        Ok(())
    }

    /// Whether the store entails `c`: `σ ⊢ c ⇔ σ ⊑ c` (used by `ask`,
    /// rule R2, and negated by `nask`, rule R6).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn entails(&self, c: &Constraint<S>) -> Result<bool, StoreError> {
        Ok(self.sigma.leq(c, &self.domains)?)
    }

    /// The consistency level of the store: `σ ⇓ ∅`.
    ///
    /// This is the level the checked transitions of Fig. 3 compare
    /// against their interval thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn consistency(&self) -> Result<S::Value, StoreError> {
        if let Some(v) = self.memo.lock().clone() {
            return Ok(v);
        }
        let value = self.sigma.consistency(&self.domains)?;
        *self.memo.lock() = Some(value.clone());
        Ok(value)
    }

    /// Whether `σ ⊑ φ` (constraint upper thresholds of Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn leq(&self, phi: &Constraint<S>) -> Result<bool, StoreError> {
        Ok(self.sigma.leq(phi, &self.domains)?)
    }

    /// Whether `φ ⊑ σ` (constraint lower thresholds of Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn geq(&self, phi: &Constraint<S>) -> Result<bool, StoreError> {
        Ok(phi.leq(&self.sigma, &self.domains)?)
    }

    /// Uniformly worsens every level of the store by `factor`:
    /// `σ' = σ ⊗ factor̄` — the store-level form of a degradation
    /// fault, where a provider's whole policy loses quality without
    /// changing shape.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn attenuate(&self, factor: &S::Value) -> Result<Store<S>, StoreError> {
        let c =
            Constraint::constant(self.semiring.clone(), factor.clone()).with_label("attenuation");
        self.tell(&c)
    }

    /// Replaces the information on `vars`: `σ' = (σ ⇓ (V \ X)) ⊗ c`
    /// (rule R8) — the transactional *update* that resembles an
    /// imperative assignment.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::MissingDomain`] if a support variable has
    /// no domain.
    pub fn update(&self, vars: &[Var], c: &Constraint<S>) -> Result<Store<S>, StoreError> {
        let keep: Vec<Var> = self
            .domains
            .iter()
            .map(|(v, _)| v.clone())
            .filter(|v| !vars.contains(v))
            .collect();
        let projected = self.sigma.project(&keep, &self.domains)?;
        let sigma = projected.combine_over(c, &self.domains)?;
        Ok(self.derived(sigma))
    }
}

impl<S: Residuated> Store<S> {
    /// Removes `c` from the store: `σ' = σ ÷ c` (rule R7).
    ///
    /// Following R7, the constraint must be entailed by the store
    /// (`σ ⊑ c`); `c` need never have been told — retracting a weaker
    /// constraint acts as a *relaxation* (Example 2 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotEntailed`] if `σ ⋢ c`, or
    /// [`StoreError::MissingDomain`] if a support variable has no
    /// domain.
    pub fn retract(&self, c: &Constraint<S>) -> Result<Store<S>, StoreError> {
        if !self.entails(c)? {
            return Err(StoreError::NotEntailed);
        }
        self.retracted(c)
    }

    /// `σ ÷ c` for a `c` the caller knows the store entails.
    pub(crate) fn retracted(&self, c: &Constraint<S>) -> Result<Store<S>, StoreError> {
        let sigma = self.sigma.divide_over(c, &self.domains)?;
        Ok(self.derived(sigma))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_core::solve::{EnumerationSolver, Solver};
    use softsoa_core::{Assignment, Scsp};
    use softsoa_semiring::WeightedInt;

    fn doms() -> Domains {
        Domains::new().with("x", Domain::ints(0..=10))
    }

    fn c_linear(a: u64, b: u64) -> Constraint<WeightedInt> {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
    }

    #[test]
    fn empty_store_is_fully_consistent() {
        let store = Store::empty(WeightedInt, doms());
        assert_eq!(store.consistency().unwrap(), 0);
        assert!(store.sigma().is_constant());
    }

    #[test]
    fn example1_tell_combination() {
        // tell(c4) then tell(c3): σ = c4 ⊗ c3 ≡ 3x + 5, σ⇓∅ = 5.
        let store = Store::empty(WeightedInt, doms())
            .tell(&c_linear(1, 5))
            .unwrap()
            .tell(&c_linear(2, 0))
            .unwrap();
        assert_eq!(store.consistency().unwrap(), 5);
        let eta = Assignment::new().bind("x", 2);
        assert_eq!(store.sigma().eval(&eta), 11); // 3·2 + 5
    }

    #[test]
    fn example2_retract_is_relaxation() {
        // σ = c4 ⊗ c3 ≡ 3x + 5; retract c1 = x + 3 → 2x + 2, σ⇓∅ = 2.
        let store = Store::empty(WeightedInt, doms())
            .tell(&c_linear(1, 5))
            .unwrap()
            .tell(&c_linear(2, 0))
            .unwrap();
        let relaxed = store.retract(&c_linear(1, 3)).unwrap();
        assert_eq!(relaxed.consistency().unwrap(), 2);
        for x in 0..=10u64 {
            let eta = Assignment::new().bind("x", x as i64);
            assert_eq!(relaxed.sigma().eval(&eta), 2 * x + 2);
        }
    }

    #[test]
    fn retract_requires_entailment() {
        // σ = x + 5 does not entail 2x + 9 (at x = 10: 15 vs 29... the
        // store level 15 is *better* than 29, so σ ⋢ c there).
        let store = Store::empty(WeightedInt, doms())
            .tell(&c_linear(1, 5))
            .unwrap();
        let err = store.retract(&c_linear(2, 9)).unwrap_err();
        assert_eq!(err, StoreError::NotEntailed);
    }

    #[test]
    fn retract_after_tell_restores_level() {
        let c = c_linear(3, 1);
        let store = Store::empty(WeightedInt, doms());
        let told = store.tell(&c).unwrap();
        let back = told.retract(&c).unwrap();
        assert_eq!(back.consistency().unwrap(), store.consistency().unwrap());
    }

    #[test]
    fn example3_update_refreshes_variables() {
        // tell(c1 = x + 3), then update{x}(c2 = y + 1):
        // c1⇓(V\{x}) = 3̄, and 3̄ ⊗ c2 ≡ y + 4.
        let doms = Domains::new()
            .with("x", Domain::ints(0..=10))
            .with("y", Domain::ints(0..=10));
        let c1 = Constraint::unary(WeightedInt, "x", |v| v.as_int().unwrap() as u64 + 3);
        let c2 = Constraint::unary(WeightedInt, "y", |v| v.as_int().unwrap() as u64 + 1);
        let store = Store::empty(WeightedInt, doms).tell(&c1).unwrap();
        let updated = store.update(&[Var::new("x")], &c2).unwrap();
        for y in 0..=10u64 {
            let eta = Assignment::new().bind("y", y as i64).bind("x", 0);
            assert_eq!(updated.sigma().eval(&eta), y + 4);
        }
        assert_eq!(updated.consistency().unwrap(), 4);
        // The new store no longer depends on x.
        assert!(!updated.sigma().scope().contains(&Var::new("x")));
    }

    #[test]
    fn entailment_of_weaker_constraints() {
        let store = Store::empty(WeightedInt, doms())
            .tell(&c_linear(2, 2))
            .unwrap();
        // 2x + 2 entails x + 1 (pointwise worse-or-equal).
        assert!(store.entails(&c_linear(1, 1)).unwrap());
        // but not 3x + 3.
        assert!(!store.entails(&c_linear(3, 3)).unwrap());
    }

    #[test]
    fn attenuate_worsens_every_level_uniformly() {
        let store = Store::empty(WeightedInt, doms())
            .tell(&c_linear(2, 1))
            .unwrap();
        let degraded = store.attenuate(&3).unwrap();
        assert_eq!(degraded.consistency().unwrap(), 4); // (2·0 + 1) + 3
        for x in 0..=10u64 {
            let eta = Assignment::new().bind("x", x as i64);
            assert_eq!(degraded.sigma().eval(&eta), 2 * x + 1 + 3);
        }
    }

    #[test]
    fn declare_extends_domains() {
        let mut store = Store::empty(WeightedInt, doms());
        store.declare(Var::new("z"), Domain::ints(0..=1));
        assert!(store.domains().contains(&Var::new("z")));
    }

    #[test]
    fn consistency_matches_the_oracle_across_operations() {
        let doms = Domains::new()
            .with("x", Domain::ints(0..=6))
            .with("y", Domain::ints(0..=6));
        let cx = c_linear(2, 1);
        let cy = Constraint::unary(WeightedInt, "y", |v| 3 * v.as_int().unwrap() as u64 + 4);
        let cxy = Constraint::binary(WeightedInt, "x", "y", |x, y| {
            (x.as_int().unwrap() + 2 * y.as_int().unwrap()) as u64
        });
        let mut store = Store::empty(WeightedInt, doms);
        for step in 0..4usize {
            store = match step {
                0 => store.tell(&cx).unwrap(),
                1 => store.tell(&cy).unwrap(),
                2 => store.update(&[Var::new("y")], &cxy).unwrap(),
                _ => store.retract(&c_linear(1, 1)).unwrap(),
            };
            // σ ⇓ ∅ is the blevel of the problem {σ} with con = ∅.
            let mut oracle = Scsp::new(WeightedInt).with_constraint(store.sigma().clone());
            for (v, d) in store.domains().iter() {
                oracle.add_domain(v.clone(), d.clone());
            }
            assert_eq!(
                store.consistency().unwrap(),
                *EnumerationSolver::new().solve(&oracle).unwrap().blevel(),
                "divergence after step {step}"
            );
        }
    }
}
