//! The dependability attribute taxonomy (Sec. 3 of the paper, after
//! Avižienis, Laprie, Randell & Landwehr).

use std::fmt;

/// A dependability attribute of a computing system.
///
/// The paper adopts the "generally agreed list" of attributes from
/// [Avižienis et al., 2004]; some are objectively quantifiable, others
/// (notably safety) are subjective scores.
///
/// # Examples
///
/// ```
/// use softsoa_dependability::{Attribute, MetricClass};
///
/// assert!(Attribute::Availability.is_quantifiable());
/// assert!(!Attribute::Safety.is_quantifiable());
/// assert!(Attribute::Reliability
///     .recommended_metrics()
///     .contains(&MetricClass::Multiplicative));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Attribute {
    /// The probability that a service is present and ready for use.
    Availability,
    /// The capability of maintaining the service and service quality.
    Reliability,
    /// The absence of catastrophic consequences.
    Safety,
    /// Information is accessible only to those authorised to use it.
    Confidentiality,
    /// The absence of improper system alterations.
    Integrity,
    /// The ability to undergo modifications and repairs.
    Maintainability,
}

impl Attribute {
    /// All six attributes, in the paper's order.
    pub const ALL: [Attribute; 6] = [
        Attribute::Availability,
        Attribute::Reliability,
        Attribute::Safety,
        Attribute::Confidentiality,
        Attribute::Integrity,
        Attribute::Maintainability,
    ];

    /// The attributes whose composite the paper calls *security*:
    /// confidentiality, integrity and availability.
    pub const SECURITY: [Attribute; 3] = [
        Attribute::Confidentiality,
        Attribute::Integrity,
        Attribute::Availability,
    ];

    /// Whether the attribute is quantifiable by direct measurement
    /// (a "rather objective score" in the paper's words). Safety is
    /// the canonical subjective one.
    pub fn is_quantifiable(self) -> bool {
        !matches!(self, Attribute::Safety)
    }

    /// The classes of metric the paper's Sec. 4 suggests for this
    /// attribute, in order of preference.
    pub fn recommended_metrics(self) -> &'static [MetricClass] {
        match self {
            // "availability and reliability can be modeled [as additive
            // metrics]"; "also availability can be represented with a
            // percentage value".
            Attribute::Availability => &[MetricClass::Additive, MetricClass::Multiplicative],
            // "the frequency of system faults can [be] studied from a
            // probabilistic point of view"; fuzzy when detailed
            // information is not available.
            Attribute::Reliability => &[
                MetricClass::Multiplicative,
                MetricClass::Additive,
                MetricClass::Concave,
            ],
            Attribute::Safety => &[MetricClass::Concave],
            // "related security rights, or time slots" — set-based.
            Attribute::Confidentiality => &[MetricClass::SetBased, MetricClass::Crisp],
            Attribute::Integrity => &[MetricClass::Crisp, MetricClass::Multiplicative],
            Attribute::Maintainability => &[MetricClass::Additive, MetricClass::Concave],
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Attribute::Availability => "availability",
            Attribute::Reliability => "reliability",
            Attribute::Safety => "safety",
            Attribute::Confidentiality => "confidentiality",
            Attribute::Integrity => "integrity",
            Attribute::Maintainability => "maintainability",
        };
        f.write_str(name)
    }
}

/// A class of QoS/dependability metric and the c-semiring that models
/// it (the instantiation list of Sec. 4).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum MetricClass {
    /// Counts/quantities to minimise — the Weighted semiring
    /// `⟨ℝ⁺, min, +, ∞, 0⟩`.
    Additive,
    /// Probabilities to maximise — the Probabilistic semiring
    /// `⟨[0,1], max, ·, 0, 1⟩`.
    Multiplicative,
    /// "Flattening" preferences — the Fuzzy semiring
    /// `⟨[0,1], max, min, 0, 1⟩`.
    Concave,
    /// Rights/time slots — the Set-based semiring `⟨𝒫(A), ∪, ∩, ∅, A⟩`.
    SetBased,
    /// True/false property checks — the Classical semiring
    /// `⟨{0,1}, ∨, ∧, 0, 1⟩`.
    Crisp,
}

impl MetricClass {
    /// The name of the c-semiring instance modelling this class.
    pub fn semiring_name(self) -> &'static str {
        match self {
            MetricClass::Additive => "Weighted",
            MetricClass::Multiplicative => "Probabilistic",
            MetricClass::Concave => "Fuzzy",
            MetricClass::SetBased => "Set-based",
            MetricClass::Crisp => "Classical",
        }
    }
}

impl fmt::Display for MetricClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MetricClass::Additive => "additive",
            MetricClass::Multiplicative => "multiplicative",
            MetricClass::Concave => "concave",
            MetricClass::SetBased => "set-based",
            MetricClass::Crisp => "crisp",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_six_distinct_attributes() {
        let mut set = std::collections::BTreeSet::new();
        set.extend(Attribute::ALL);
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn security_composite() {
        assert_eq!(
            Attribute::SECURITY,
            [
                Attribute::Confidentiality,
                Attribute::Integrity,
                Attribute::Availability
            ]
        );
    }

    #[test]
    fn only_safety_is_subjective() {
        for attr in Attribute::ALL {
            assert_eq!(attr.is_quantifiable(), attr != Attribute::Safety);
        }
    }

    #[test]
    fn every_attribute_has_a_metric() {
        for attr in Attribute::ALL {
            assert!(!attr.recommended_metrics().is_empty());
        }
    }

    #[test]
    fn semiring_names() {
        assert_eq!(MetricClass::Additive.semiring_name(), "Weighted");
        assert_eq!(MetricClass::Crisp.semiring_name(), "Classical");
    }

    #[test]
    fn display() {
        assert_eq!(Attribute::Integrity.to_string(), "integrity");
    }
}
