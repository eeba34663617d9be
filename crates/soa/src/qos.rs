//! QoS documents and their translation into soft constraints.
//!
//! Providers "publish QoS-enabled web services" by attaching an
//! XML-based QoS document to each service (Sec. 4, after the W3C QoS
//! note the paper cites). This module is the stand-in for that
//! document format: a typed, serialisable description of QoS offers
//! that the broker *translates into soft constraints* before adding
//! them to its store — the paper's "all the XML-translations are
//! executed inside [the solver component]".
//!
//! [`WireSemiring`] is that translation, written once: how a plain
//! number becomes a level of the semiring being negotiated, for the
//! broker, the wire protocol and the command-line documents alike.

use serde::{Deserialize, Serialize};
use softsoa_core::{Constraint, Var};
use softsoa_dependability::Attribute;
use softsoa_semiring::{Boolean, Fuzzy, Probabilistic, Residuated, Unit, Weight, Weighted};

/// The shape of a QoS offer: how the offered level depends on the
/// negotiation variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OfferShape {
    /// `level(x) = slope · x + intercept` — the paper's polynomial
    /// policies ("the reliability is equal to 80% plus 5% for each
    /// other processor", `c(x) = 2x`, ...).
    Linear {
        /// Level change per unit of the variable.
        slope: f64,
        /// Level at `x = 0`.
        intercept: f64,
    },
    /// Piecewise-linear interpolation through `(x, level)` points,
    /// clamped at the extremes (used for the preference profiles of
    /// Fig. 5).
    Piecewise {
        /// Interpolation points, sorted by `x`.
        points: Vec<(i64, f64)>,
    },
    /// A constant level, independent of the variable.
    Constant {
        /// The offered level.
        level: f64,
    },
    /// A crisp admissible range: full level inside `[min, max]`,
    /// bottom outside.
    Range {
        /// Smallest admissible value.
        min: i64,
        /// Largest admissible value.
        max: i64,
    },
}

impl OfferShape {
    /// The raw offered level at `x`, before any semiring
    /// interpretation.
    pub fn level_at(&self, x: i64) -> f64 {
        match self {
            OfferShape::Linear { slope, intercept } => slope * x as f64 + intercept,
            OfferShape::Constant { level } => *level,
            OfferShape::Range { min, max } => {
                if (*min..=*max).contains(&x) {
                    1.0
                } else {
                    0.0
                }
            }
            OfferShape::Piecewise { points } => {
                if points.is_empty() {
                    return 0.0;
                }
                if x <= points[0].0 {
                    return points[0].1;
                }
                if x >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                for pair in points.windows(2) {
                    let (x0, y0) = pair[0];
                    let (x1, y1) = pair[1];
                    if (x0..=x1).contains(&x) && x0 != x1 {
                        let t = (x - x0) as f64 / (x1 - x0) as f64;
                        return y0 + t * (y1 - y0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }
}

/// One QoS offer: an attribute, the negotiation variable it depends
/// on, and the offered level as a function of that variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosOffer {
    /// The dependability attribute being offered.
    pub attribute: Attribute,
    /// The negotiation variable name (e.g. `"failures"`).
    pub variable: String,
    /// The offered level as a function of the variable.
    pub shape: OfferShape,
}

/// A provider's QoS document: the offers attached to one service.
///
/// # Examples
///
/// ```
/// use softsoa_soa::{QosDocument, QosOffer, OfferShape};
/// use softsoa_dependability::Attribute;
///
/// let doc = QosDocument::new("photo-filter")
///     .with_offer(QosOffer {
///         attribute: Attribute::Reliability,
///         variable: "procs".into(),
///         // "reliability is 80% plus 5% per extra processor"
///         shape: OfferShape::Linear { slope: 0.05, intercept: 0.80 },
///     });
/// let json = doc.to_json().unwrap();
/// assert_eq!(QosDocument::from_json(&json).unwrap(), doc);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosDocument {
    /// The service the document describes.
    pub service: String,
    /// The offers, one per attribute/variable pair.
    pub offers: Vec<QosOffer>,
}

impl QosDocument {
    /// Creates an empty document for a service.
    pub fn new(service: impl Into<String>) -> QosDocument {
        QosDocument {
            service: service.into(),
            offers: Vec::new(),
        }
    }

    /// Adds an offer (builder style).
    pub fn with_offer(mut self, offer: QosOffer) -> QosDocument {
        self.offers.push(offer);
        self
    }

    /// The offer for a given attribute, if present.
    pub fn offer(&self, attribute: Attribute) -> Option<&QosOffer> {
        self.offers.iter().find(|o| o.attribute == attribute)
    }

    /// Serialises the document (the wire stand-in for the paper's
    /// XML-based QoS documents).
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] on serialisation failure.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a document from its serialised form.
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] on malformed input.
    pub fn from_json(json: &str) -> Result<QosDocument, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The one bridge from plain QoS numbers to the levels of a semiring
/// the broker negotiates over: how a provider's QoS document is
/// "translated into a soft constraint" (Sec. 4), how a client's policy
/// shape becomes its constraint, and how a plain number is read as a
/// level on the wire and in specification documents.
///
/// An implementation gives the two readings of a number — the lenient
/// [`level`](WireSemiring::level) that shapes go through and the strict
/// [`parse_level`](WireSemiring::parse_level) that explicit levels go
/// through — and the way back to a number; the constraint builders are
/// written once on top of them.
pub trait WireSemiring: Residuated + Default {
    /// The protocol name of the semiring (`fuzzy`, `weighted`, …).
    const NAME: &'static str;

    /// Reads a shape's raw level leniently: numbers outside the carrier
    /// are clamped or saturated into it (weighted: negative → 0 and
    /// NaN → ∞; fuzzy and probabilistic: into `[0, 1]`, NaN → 0;
    /// boolean: `x > 0`).
    fn level(x: f64) -> Self::Value;

    /// Reads an explicit level strictly.
    ///
    /// # Errors
    ///
    /// A reason that names the rejected number when it is outside the
    /// carrier (`1.5 is not in [0, 1]`).
    fn parse_level(x: f64) -> Result<Self::Value, String>;

    /// Renders a semiring value as a plain number.
    fn render_level(v: &Self::Value) -> f64;

    /// Normalises an agreed level into a *softness* in `[0, 1]`,
    /// higher-is-better, so fairness objectives can compare clients
    /// across semirings. Level-valued semirings pass through; cost
    /// semirings flip orientation (`1 / (1 + cost)`, `∞ → 0`).
    fn softness(v: &Self::Value) -> f64;

    /// Translates a registry offer into a provider constraint labelled
    /// `attribute/variable` (the broker's `translate` hook).
    fn translate(offer: &QosOffer) -> Constraint<Self> {
        shaped(&offer.variable, offer.shape.clone())
            .with_label(format!("{}/{}", offer.attribute, offer.variable))
    }

    /// Builds the client's policy constraint from an [`OfferShape`]
    /// over the negotiation variable, labelled `client`.
    fn shape_constraint(variable: &str, shape: OfferShape) -> Constraint<Self> {
        shaped(variable, shape).with_label("client")
    }
}

/// The unary constraint that reads `shape` leniently at each value of
/// `variable` (a non-integer value reads as 0).
fn shaped<S: WireSemiring>(variable: &str, shape: OfferShape) -> Constraint<S> {
    Constraint::unary(S::default(), Var::new(variable), move |v| {
        S::level(shape.level_at(v.as_int().unwrap_or(0)))
    })
}

fn parse_unit(x: f64) -> Result<Unit, String> {
    Unit::new(x).map_err(|_| format!("{x} is not in [0, 1]"))
}

impl WireSemiring for Weighted {
    const NAME: &'static str = "weighted";

    fn level(x: f64) -> Weight {
        Weight::saturating(x)
    }

    fn parse_level(x: f64) -> Result<Weight, String> {
        Weight::new(x).map_err(|_| format!("{x} is not a valid weight"))
    }

    fn render_level(v: &Weight) -> f64 {
        // `∞` is not representable in JSON; the largest finite float
        // is unambiguous on the wire (no agreed level ever reaches it).
        if v.is_infinite() {
            f64::MAX
        } else {
            v.get()
        }
    }

    fn softness(v: &Weight) -> f64 {
        if v.is_infinite() {
            0.0
        } else {
            1.0 / (1.0 + v.get())
        }
    }
}

impl WireSemiring for Fuzzy {
    const NAME: &'static str = "fuzzy";

    fn level(x: f64) -> Unit {
        Unit::clamped(x)
    }

    fn parse_level(x: f64) -> Result<Unit, String> {
        parse_unit(x)
    }

    fn render_level(v: &Unit) -> f64 {
        v.get()
    }

    fn softness(v: &Unit) -> f64 {
        v.get()
    }
}

impl WireSemiring for Probabilistic {
    const NAME: &'static str = "probabilistic";

    fn level(x: f64) -> Unit {
        Unit::clamped(x)
    }

    fn parse_level(x: f64) -> Result<Unit, String> {
        parse_unit(x)
    }

    fn render_level(v: &Unit) -> f64 {
        v.get()
    }

    fn softness(v: &Unit) -> f64 {
        v.get()
    }
}

impl WireSemiring for Boolean {
    const NAME: &'static str = "boolean";

    fn level(x: f64) -> bool {
        x > 0.0
    }

    fn parse_level(x: f64) -> Result<bool, String> {
        match x {
            0.0 => Ok(false),
            1.0 => Ok(true),
            other => Err(format!("{other} is not a crisp level (0 or 1)")),
        }
    }

    fn render_level(v: &bool) -> f64 {
        if *v {
            1.0
        } else {
            0.0
        }
    }

    fn softness(v: &bool) -> f64 {
        Self::render_level(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softsoa_core::Assignment;

    fn offer(shape: OfferShape) -> QosOffer {
        QosOffer {
            attribute: Attribute::Reliability,
            variable: "x".into(),
            shape,
        }
    }

    #[test]
    fn linear_shape() {
        let s = OfferShape::Linear {
            slope: 0.05,
            intercept: 0.80,
        };
        assert!((s.level_at(0) - 0.80).abs() < 1e-12);
        assert!((s.level_at(3) - 0.95).abs() < 1e-12);
    }

    #[test]
    fn piecewise_interpolates_and_clamps() {
        let s = OfferShape::Piecewise {
            points: vec![(1, 0.0), (5, 1.0), (9, 0.0)],
        };
        assert_eq!(s.level_at(0), 0.0); // clamp left
        assert!((s.level_at(3) - 0.5).abs() < 1e-12);
        assert_eq!(s.level_at(5), 1.0);
        assert!((s.level_at(7) - 0.5).abs() < 1e-12);
        assert_eq!(s.level_at(20), 0.0); // clamp right
    }

    #[test]
    fn range_shape_is_crisp() {
        let s = OfferShape::Range { min: 2, max: 4 };
        assert_eq!(s.level_at(1), 0.0);
        assert_eq!(s.level_at(2), 1.0);
        assert_eq!(s.level_at(5), 0.0);
    }

    #[test]
    fn empty_piecewise_is_zero() {
        let s = OfferShape::Piecewise { points: vec![] };
        assert_eq!(s.level_at(3), 0.0);
    }

    #[test]
    fn translations_agree_with_shape() {
        let o = offer(OfferShape::Linear {
            slope: 1.0,
            intercept: 2.0,
        });
        let eta = Assignment::new().bind("x", 3);
        assert_eq!(Weighted::translate(&o).eval(&eta).get(), 5.0);
        // Fuzzy/probabilistic clamp 5.0 into [0, 1].
        assert_eq!(Fuzzy::translate(&o).eval(&eta), Unit::MAX);
        assert_eq!(Probabilistic::translate(&o).eval(&eta), Unit::MAX);
        assert!(Boolean::translate(&o).eval(&eta));
    }

    #[test]
    fn crisp_translation_of_range() {
        let o = offer(OfferShape::Range { min: 0, max: 2 });
        let inside = Assignment::new().bind("x", 1);
        let outside = Assignment::new().bind("x", 3);
        assert!(Boolean::translate(&o).eval(&inside));
        assert!(!Boolean::translate(&o).eval(&outside));
    }

    /// The raw levels the bridge table pins, out-of-range ones included.
    const RAW: [f64; 6] = [-1.0, 0.0, 0.25, 1.0, 3.0, f64::NAN];

    /// Checks one semiring's bridge at every [`RAW`] level: the lenient
    /// reading through an offer's and a client's constraint (values and
    /// labels), and the strict reading (value or error message).
    fn pin_bridge<S: WireSemiring>(lenient: [S::Value; 6], strict: [Result<S::Value, &str>; 6])
    where
        S::Value: std::fmt::Debug,
    {
        let eta = Assignment::new().bind("x", 2);
        for ((raw, lenient), strict) in RAW.into_iter().zip(lenient).zip(strict) {
            let shape = OfferShape::Constant { level: raw };
            let provider = S::translate(&offer(shape.clone()));
            let client = S::shape_constraint("x", shape);
            assert_eq!(provider.eval(&eta), lenient, "{} offer at {raw}", S::NAME);
            assert_eq!(client.eval(&eta), lenient, "{} client at {raw}", S::NAME);
            assert_eq!(S::level(raw), lenient, "{} level {raw}", S::NAME);
            assert_eq!(provider.label(), Some("reliability/x"));
            assert_eq!(client.label(), Some("client"));
            let strict = strict.map_err(str::to_string);
            assert_eq!(S::parse_level(raw), strict, "{} parse {raw}", S::NAME);
        }
    }

    #[test]
    fn the_bridge_reads_plain_levels_as_before() {
        let w = |x| Weight::new(x).unwrap();
        pin_bridge::<Weighted>(
            [w(0.0), w(0.0), w(0.25), w(1.0), w(3.0), Weight::INFINITY],
            [
                Err("-1 is not a valid weight"),
                Ok(w(0.0)),
                Ok(w(0.25)),
                Ok(w(1.0)),
                Ok(w(3.0)),
                Err("NaN is not a valid weight"),
            ],
        );
        let u = |x| Unit::new(x).unwrap();
        let unit_strict = [
            Err("-1 is not in [0, 1]"),
            Ok(u(0.0)),
            Ok(u(0.25)),
            Ok(u(1.0)),
            Err("3 is not in [0, 1]"),
            Err("NaN is not in [0, 1]"),
        ];
        let unit_lenient = [u(0.0), u(0.0), u(0.25), u(1.0), u(1.0), u(0.0)];
        pin_bridge::<Fuzzy>(unit_lenient, unit_strict);
        pin_bridge::<Probabilistic>(unit_lenient, unit_strict);
        pin_bridge::<Boolean>(
            [false, false, true, true, true, false],
            [
                Err("-1 is not a crisp level (0 or 1)"),
                Ok(false),
                Err("0.25 is not a crisp level (0 or 1)"),
                Ok(true),
                Err("3 is not a crisp level (0 or 1)"),
                Err("NaN is not a crisp level (0 or 1)"),
            ],
        );
    }

    #[test]
    fn json_roundtrip() {
        let doc = QosDocument::new("svc")
            .with_offer(offer(OfferShape::Constant { level: 0.9 }))
            .with_offer(QosOffer {
                attribute: Attribute::Availability,
                variable: "slots".into(),
                shape: OfferShape::Range { min: 1, max: 8 },
            });
        let json = doc.to_json().unwrap();
        let back = QosDocument::from_json(&json).unwrap();
        assert_eq!(back, doc);
        assert!(back.offer(Attribute::Availability).is_some());
        assert!(back.offer(Attribute::Safety).is_none());
    }
}
