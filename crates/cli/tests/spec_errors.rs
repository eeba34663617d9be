//! The exact error texts of malformed `softsoa` documents.
//!
//! A document is read in one pass, and these texts pin the rules of
//! that read: a syntax error anywhere beats any type error, type errors
//! are reported in field declaration order, the first occurrence of a
//! repeated key wins, unknown keys are skipped, a missing `Option`
//! field reads as `None`, and every message keeps its `field: ` path,
//! its `missing field` / `unknown variant` / `expected … found …` text
//! and the number coercions of the field's type.

use softsoa_cli::{CoalitionSpec, DomainSpec, NegotiationSpec, PolicySpec, ProblemSpec};

/// A problem document with `domains` and `con` spliced in.
fn problem(domains: &str, con: &str) -> String {
    format!(r#"{{"semiring": "weighted", "domains": {domains}, "constraints": [], "con": {con}}}"#)
}

fn problem_error(text: &str) -> String {
    ProblemSpec::from_json(text)
        .expect_err("a malformed problem")
        .to_string()
}

fn negotiation_error(text: &str) -> String {
    NegotiationSpec::from_json(text)
        .expect_err("a malformed scenario")
        .to_string()
}

fn coalition_error(text: &str) -> String {
    CoalitionSpec::from_json(text)
        .expect_err("a malformed trust document")
        .to_string()
}

#[test]
fn a_syntax_error_after_a_type_error_wins() {
    let text =
        r#"{"semiring": "weighted", "domains": {"x": {"ints": "x"}}, "constraints": [], "con": [}"#;
    assert_eq!(
        problem_error(text),
        "malformed document: unexpected character `}` at byte 85"
    );
}

#[test]
fn type_errors_are_reported_in_declaration_order() {
    let text = r#"{"con": 5, "constraints": [], "domains": {}, "semiring": 7}"#;
    assert_eq!(
        problem_error(text),
        "malformed document: semiring: expected variant name or single-key object, found number"
    );
}

#[test]
fn the_first_occurrence_of_a_key_wins() {
    let text =
        r#"{"semiring": "weighted", "semiring": 7, "domains": {}, "constraints": [], "con": []}"#;
    let spec = ProblemSpec::from_json(text).expect("the second `semiring` is never read");
    assert_eq!(spec.semiring, softsoa_cli::SemiringKind::Weighted);
    let text =
        r#"{"semiring": 7, "semiring": "weighted", "domains": {}, "constraints": [], "con": []}"#;
    assert_eq!(
        problem_error(text),
        "malformed document: semiring: expected variant name or single-key object, found number"
    );
}

#[test]
fn a_bad_map_entry_and_a_bad_vec_element_name_their_path() {
    let domains = r#"{"x": {"ints": [0, 1]}, "y": {"syms": 3}}"#;
    assert_eq!(
        problem_error(&problem(domains, "[]")),
        "malformed document: domains: y: syms: expected array, found number"
    );
    assert_eq!(
        problem_error(&problem("{}", r#"["x", 3]"#)),
        "malformed document: con: expected string, found number"
    );
}

#[test]
fn externally_tagged_variants_report_their_shape() {
    let cases = [
        (
            r#"{"x": {"ints": "x"}}"#,
            "malformed document: domains: x: ints: expected array, found string",
        ),
        (
            r#"{"x": "ints"}"#,
            "malformed document: domains: x: unknown variant `ints` of DomainSpec",
        ),
        (
            r#"{"x": {"ints": [0, 1], "syms": ["a"]}}"#,
            "malformed document: domains: x: expected variant name or single-key object, found object",
        ),
        (
            r#"{"x": {"ints": [0, 1, 2]}}"#,
            "malformed document: domains: x: ints: expected array of 2 elements, found 3",
        ),
    ];
    for (domains, expected) in cases {
        assert_eq!(
            problem_error(&problem(domains, "[]")),
            expected,
            "{domains}"
        );
    }
    let constraint = |c: &str| {
        format!(r#"{{"semiring": "weighted", "domains": {{}}, "constraints": [{c}], "con": []}}"#)
    };
    assert_eq!(
        problem_error(&constraint(r#"{"linear": 3}"#)),
        "malformed document: constraints: expected object payload for variant `linear`, found number"
    );
    assert_eq!(
        problem_error(&constraint(r#"{"linear": {"var": "x", "intercept": "a"}}"#)),
        "malformed document: constraints: missing field `slope` in ConstraintSpec"
    );
}

#[test]
fn an_untagged_value_that_matches_no_variant_is_rejected() {
    let text = r#"{"semiring": "weighted", "domains": {"x": {"ints": [0, 1]}}, "constraints": [{"table": {"scope": ["x"], "entries": [[[true], 1.0]]}}], "con": []}"#;
    assert_eq!(
        problem_error(text),
        "malformed document: constraints: entries: no untagged variant of ValSpec matched the input"
    );
}

#[test]
fn numbers_coerce_by_the_field_type() {
    let spec = ProblemSpec::from_json(&problem(r#"{"x": {"ints": [0, 4.0]}}"#, r#"["x"]"#))
        .expect("an integral float reads as an integer");
    assert_eq!(spec.domains["x"], DomainSpec::Ints([0, 4]));
    assert_eq!(
        problem_error(&problem(r#"{"x": {"ints": [0, 4.5]}}"#, r#"["x"]"#)),
        "malformed document: domains: x: ints: expected integer, found number"
    );
    let scenario = r#"{"semiring": "fuzzy", "domains": {}, "constraints": {}, "agent": "success", "max_steps": -1}"#;
    assert_eq!(
        negotiation_error(scenario),
        "malformed document: max_steps: negative integer for unsigned field"
    );
    let scenario =
        r#"{"semiring": "fuzzy", "domains": {}, "constraints": {}, "policy": {"random": "x"}}"#;
    assert_eq!(
        negotiation_error(scenario),
        "malformed document: policy: random: expected integer, found string"
    );
    assert_eq!(
        coalition_error(r#"{"trust": [[1, "a"]]}"#),
        "malformed document: trust: expected number, found string"
    );
}

#[test]
fn defaults_fill_missing_fields_and_unknown_keys_are_skipped() {
    let scenario = r#"{"semiring": "fuzzy", "domains": {}, "constraints": {}, "extra": [1, {"a": null}], "invariant": null}"#;
    let spec = NegotiationSpec::from_json(scenario).expect("a minimal scenario");
    assert_eq!(spec.policy, PolicySpec::First);
    assert_eq!(spec.max_steps, 10_000);
    assert!(spec.agent.is_empty() && spec.levels.is_empty());
    assert!(spec.invariant.is_none() && spec.broker.is_none());
    let spec = CoalitionSpec::from_json(r#"{"trust": [], "max_coalitions": 2}"#)
        .expect("a minimal trust document");
    assert_eq!(spec.max_coalitions, Some(2));
    assert_eq!(
        (spec.compose.as_str(), spec.algorithm.as_str()),
        ("avg", "exact")
    );
}

#[test]
fn a_bad_offer_in_a_broker_section_names_its_path() {
    let scenario = |shape: &str| {
        format!(
            r#"{{"semiring": "fuzzy", "domains": {{}}, "constraints": {{}}, "broker": {{
                "capability": "c", "variable": "x", "client": "p", "acceptance": [0.1, 1.0],
                "providers": [{{"id": "s", "offers": [
                    {{"attribute": "Reliability", "variable": "x", "shape": {shape}}}]}}]}}}}"#
        )
    };
    let cases = [
        (
            r#"{"Piecewise": {"points": [[0, 1.0], [1]]}}"#,
            "malformed document: broker: providers: offers: shape: points: expected array of 2 elements, found array",
        ),
        (
            r#"{"Range": {"min": 0, "max": 1.5}}"#,
            "malformed document: broker: providers: offers: shape: max: expected integer, found number",
        ),
        (
            r#""Linear""#,
            "malformed document: broker: providers: offers: shape: unknown variant `Linear` of OfferShape",
        ),
    ];
    for (shape, expected) in cases {
        assert_eq!(negotiation_error(&scenario(shape)), expected, "{shape}");
    }
}

#[test]
fn missing_fields_trailing_text_and_deep_nesting_are_rejected() {
    assert_eq!(
        problem_error(r#"{"semiring": "weighted", "domains": {}, "constraints": []}"#),
        "malformed document: missing field `con` in ProblemSpec"
    );
    assert_eq!(
        problem_error(&format!("{} x", problem("{}", "[]"))),
        "malformed document: trailing characters after JSON value at byte 70"
    );
    assert_eq!(
        problem_error("{\"con\": 1} x"),
        "malformed document: trailing characters after JSON value at byte 11"
    );
    // `con` sits at depth 1, so 128 nested arrays reach the limit and
    // 129 pass it.
    let nested = |depth: usize| problem("{}", &("[".repeat(depth) + &"]".repeat(depth)));
    assert_eq!(
        problem_error(&nested(128)),
        "malformed document: con: expected string, found array"
    );
    assert_eq!(
        problem_error(&nested(129)),
        "malformed document: maximum nesting depth exceeded at byte 194"
    );
}
