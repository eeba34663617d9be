//! Finite variable domains and the domain map of a problem.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::{Val, Var};

/// A finite, explicitly enumerated variable domain.
///
/// Values are kept in sorted order without duplicates, so two domains
/// built from the same values in any order compare equal. The values
/// are shared: a clone (of a [`Domains`] map, or into a materialised
/// constraint) copies a pointer.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Domain, Val};
///
/// let d = Domain::ints(0..=3);
/// assert_eq!(d.len(), 4);
/// assert!(d.contains(&Val::Int(2)));
/// assert_eq!(d, Domain::new(vec![3.into(), 0.into(), 1.into(), 2.into()]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Domain {
    values: Arc<[Val]>,
}

impl Domain {
    /// Creates a domain from arbitrary values (sorted, deduplicated).
    pub fn new(mut values: Vec<Val>) -> Domain {
        values.sort();
        values.dedup();
        Domain {
            values: values.into(),
        }
    }

    /// The integer domain over an inclusive range.
    pub fn ints<I: IntoIterator<Item = i64>>(range: I) -> Domain {
        Domain::new(range.into_iter().map(Val::Int).collect())
    }

    /// The integer domain `{lo, lo+step, ..., ≤ hi}` — a discretised
    /// quantity axis (byte sizes, hours).
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn ints_stepped(lo: i64, hi: i64, step: i64) -> Domain {
        assert!(step > 0, "step must be positive");
        Domain::new((lo..=hi).step_by(step as usize).map(Val::Int).collect())
    }

    /// The boolean domain `{false, true}`.
    pub fn bools() -> Domain {
        Domain::new(vec![Val::Bool(false), Val::Bool(true)])
    }

    /// A symbolic domain from names (e.g. `{a, b}` of Fig. 1).
    pub fn syms<I, T>(names: I) -> Domain
    where
        I: IntoIterator<Item = T>,
        T: AsRef<str>,
    {
        Domain::new(names.into_iter().map(Val::sym).collect())
    }

    /// The powerset domain `𝒫{0, .., n-1}` used by the coalition
    /// variables of Sec. 6.1.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (the powerset would exceed a million values).
    pub fn powerset(n: u32) -> Domain {
        assert!(n <= 20, "powerset domain of more than 2^20 values");
        let values = (0u64..(1 << n))
            .map(|bits| Val::set((0..n).filter(|i| bits & (1 << i) != 0)))
            .collect();
        Domain::new(values)
    }

    /// The number of values in the domain.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the domain contains `value`.
    pub fn contains(&self, value: &Val) -> bool {
        self.values.binary_search(value).is_ok()
    }

    /// Iterates over the domain values in sorted order.
    pub fn iter(&self) -> std::slice::Iter<'_, Val> {
        self.values.iter()
    }

    /// The domain values as a slice, in sorted order.
    pub fn values(&self) -> &[Val] {
        &self.values
    }
}

impl<'a> IntoIterator for &'a Domain {
    type Item = &'a Val;
    type IntoIter = std::slice::Iter<'a, Val>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl FromIterator<Val> for Domain {
    fn from_iter<I: IntoIterator<Item = Val>>(iter: I) -> Domain {
        Domain::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("}")
    }
}

/// An error returned when an operation needs the domain of a variable
/// that has none declared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingDomainError {
    var: Var,
}

impl MissingDomainError {
    /// The variable whose domain is missing.
    pub fn var(&self) -> &Var {
        &self.var
    }
}

impl fmt::Display for MissingDomainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no domain declared for variable `{}`", self.var)
    }
}

impl std::error::Error for MissingDomainError {}

/// The domain map of a problem: every variable's finite domain.
///
/// All operations that quantify over assignments (combination
/// materialisation, projection, entailment, solving) enumerate these
/// domains.
///
/// # Examples
///
/// ```
/// use softsoa_core::{Domain, Domains, Var};
///
/// let mut doms = Domains::new();
/// doms.insert(Var::new("x"), Domain::syms(["a", "b"]));
/// assert_eq!(doms.get(&Var::new("x"))?.len(), 2);
/// # Ok::<(), softsoa_core::MissingDomainError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Domains {
    map: BTreeMap<Var, Domain>,
}

impl Domains {
    /// Creates an empty domain map.
    pub fn new() -> Domains {
        Domains::default()
    }

    /// Declares (or replaces) the domain of `var`.
    pub fn insert(&mut self, var: Var, domain: Domain) -> Option<Domain> {
        self.map.insert(var, domain)
    }

    /// Builder-style variant of [`Domains::insert`].
    pub fn with(mut self, var: impl Into<Var>, domain: Domain) -> Domains {
        self.map.insert(var.into(), domain);
        self
    }

    /// Looks up the domain of `var`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if no domain was declared.
    pub fn get(&self, var: &Var) -> Result<&Domain, MissingDomainError> {
        self.map
            .get(var)
            .ok_or_else(|| MissingDomainError { var: var.clone() })
    }

    /// Whether `var` has a declared domain.
    pub fn contains(&self, var: &Var) -> bool {
        self.map.contains_key(var)
    }

    /// Iterates over `(variable, domain)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Domain)> {
        self.map.iter()
    }

    /// The number of declared variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variable has a declared domain.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over all tuples of values for the given variables
    /// (the Cartesian product of their domains, in lexicographic order).
    ///
    /// # Errors
    ///
    /// Returns [`MissingDomainError`] if any variable has no domain.
    pub fn tuples(&self, vars: &[Var]) -> Result<TupleIter<'_>, MissingDomainError> {
        Ok(TupleIter {
            cursor: self.cursor(vars)?,
        })
    }

    /// The domains of `vars`, in order.
    pub(crate) fn of(&self, vars: &[Var]) -> Result<Vec<&Domain>, MissingDomainError> {
        vars.iter().map(|v| self.get(v)).collect()
    }

    /// A [`Cursor`] over the tuples [`Domains::tuples`] yields.
    pub(crate) fn cursor(&self, vars: &[Var]) -> Result<Cursor<'_>, MissingDomainError> {
        Ok(Cursor::new(self.of(vars)?))
    }

    /// The number of tuples [`Domains::tuples`] would yield, saturating
    /// at `usize::MAX`.
    pub fn tuple_count(&self, vars: &[Var]) -> Result<usize, MissingDomainError> {
        let mut count: usize = 1;
        for v in vars {
            count = count.saturating_mul(self.get(v)?.len());
        }
        Ok(count)
    }
}

/// Iterator over the Cartesian product of a list of domains.
///
/// Yields one `Vec<Val>` per tuple, in lexicographic order with the
/// *last* variable varying fastest. Returned by [`Domains::tuples`].
#[derive(Debug, Clone)]
pub struct TupleIter<'a> {
    cursor: Cursor<'a>,
}

impl<'a> Iterator for TupleIter<'a> {
    type Item = Vec<Val>;

    fn next(&mut self) -> Option<Vec<Val>> {
        let tuple = self.cursor.tuple()?.to_vec();
        self.cursor.advance();
        Some(tuple)
    }
}

/// A walk over the Cartesian product of a list of domains in
/// [`TupleIter`] order that reuses one index and one value buffer for
/// every tuple: a step re-clones only the positions that changed.
///
/// ```text
/// let mut cursor = domains.cursor(vars)?;
/// while let Some(tuple) = cursor.tuple() {
///     /* read `tuple` and `cursor.indices()` */
///     cursor.advance();
/// }
/// ```
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    domains: Vec<&'a [Val]>,
    indices: Vec<usize>,
    values: Vec<Val>,
    done: bool,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(domains: Vec<&'a Domain>) -> Cursor<'a> {
        Cursor::over(domains.into_iter().map(Domain::values).collect())
    }

    /// A cursor over domains given as sorted value slices.
    pub(crate) fn over(domains: Vec<&'a [Val]>) -> Cursor<'a> {
        let done = domains.iter().any(|d| d.is_empty());
        let values = if done {
            Vec::new()
        } else {
            domains.iter().map(|d| d[0].clone()).collect()
        };
        Cursor {
            indices: vec![0; domains.len()],
            domains,
            values,
            done,
        }
    }

    /// The current tuple, or `None` once the product is exhausted.
    pub(crate) fn tuple(&self) -> Option<&[Val]> {
        (!self.done).then_some(self.values.as_slice())
    }

    /// The current tuple's position in each domain.
    pub(crate) fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Steps to the next tuple (odometer increment, last position
    /// fastest).
    pub(crate) fn advance(&mut self) {
        for pos in (0..self.indices.len()).rev() {
            let domain = self.domains[pos];
            self.indices[pos] += 1;
            if self.indices[pos] < domain.len() {
                self.values[pos] = domain[self.indices[pos]].clone();
                return;
            }
            self.indices[pos] = 0;
            self.values[pos] = domain[0].clone();
        }
        self.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_dedup_and_order() {
        let d = Domain::new(vec![Val::Int(2), Val::Int(1), Val::Int(2)]);
        assert_eq!(d.values(), &[Val::Int(1), Val::Int(2)]);
    }

    #[test]
    fn stepped_domain() {
        let d = Domain::ints_stepped(0, 10, 4);
        assert_eq!(d.values(), &[Val::Int(0), Val::Int(4), Val::Int(8)]);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn stepped_domain_rejects_zero_step() {
        let _ = Domain::ints_stepped(0, 10, 0);
    }

    #[test]
    fn powerset_domain() {
        let d = Domain::powerset(3);
        assert_eq!(d.len(), 8);
        assert!(d.contains(&Val::set([])));
        assert!(d.contains(&Val::set([0, 1, 2])));
    }

    #[test]
    fn tuple_iteration_is_lexicographic() {
        let doms = Domains::new()
            .with("x", Domain::syms(["a", "b"]))
            .with("y", Domain::ints(0..=1));
        let vars = [Var::new("x"), Var::new("y")];
        let tuples: Vec<Vec<Val>> = doms.tuples(&vars).unwrap().collect();
        assert_eq!(
            tuples,
            vec![
                vec![Val::sym("a"), Val::Int(0)],
                vec![Val::sym("a"), Val::Int(1)],
                vec![Val::sym("b"), Val::Int(0)],
                vec![Val::sym("b"), Val::Int(1)],
            ]
        );
        assert_eq!(doms.tuple_count(&vars).unwrap(), 4);
    }

    #[test]
    fn empty_var_list_yields_one_empty_tuple() {
        let doms = Domains::new();
        let tuples: Vec<Vec<Val>> = doms.tuples(&[]).unwrap().collect();
        assert_eq!(tuples, vec![Vec::<Val>::new()]);
    }

    #[test]
    fn empty_domain_yields_no_tuples() {
        let doms = Domains::new().with("x", Domain::new(vec![]));
        let tuples: Vec<Vec<Val>> = doms.tuples(&[Var::new("x")]).unwrap().collect();
        assert!(tuples.is_empty());
    }

    #[test]
    fn missing_domain_error() {
        let doms = Domains::new();
        let err = doms.get(&Var::new("z")).unwrap_err();
        assert_eq!(err.var(), &Var::new("z"));
        assert!(err.to_string().contains("`z`"));
    }
}
