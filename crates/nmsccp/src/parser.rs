//! A textual syntax for `nmsccp` programs, close to Fig. 2 of the
//! paper.
//!
//! ```text
//! program  := { clause } agent
//! clause   := name "(" [ vars ] ")" "::" agent "."
//! agent    := choice { "||" choice }
//! choice   := prim { "+" prim }            (branches must be guards)
//! prim     := "success"
//!           | "tell" "(" name ")" [ interval ] prim
//!           | "ask" "(" name ")" [ interval ] prim
//!           | "nask" "(" name ")" [ interval ] prim
//!           | "retract" "(" name ")" [ interval ] prim
//!           | "update" "{" vars "}" "(" name ")" [ interval ] prim
//!           | "exists" var "." prim
//!           | name "(" [ vars ] ")"        (procedure call)
//!           | "(" agent ")"
//! interval := "->" "[" bound "," bound "]"  (lower, upper; omitted = any)
//! bound    := name                          ("bot", "top", or a name
//!                                            bound in the environment)
//! ```
//!
//! Constraints and threshold levels are *named*: the parser resolves
//! them in a [`ParseEnv`] so the textual syntax stays independent of
//! the semiring. Example 1 of the paper reads almost verbatim:
//!
//! ```text
//! tell(c4) tell(sp2) ask(sp1) ->[ten, two] success
//! || tell(c3) tell(sp1) ask(sp2) ->[four, one] success
//! ```

use std::collections::HashMap;
use std::fmt;

use softsoa_core::{Constraint, Var};
use softsoa_semiring::Semiring;

use crate::{Agent, Bound, Guard, Interval, Program};

/// The name environment a program text is parsed against.
#[derive(Debug, Clone)]
pub struct ParseEnv<S: Semiring> {
    semiring: S,
    constraints: HashMap<String, Constraint<S>>,
    levels: HashMap<String, S::Value>,
}

impl<S: Semiring> ParseEnv<S> {
    /// Creates an empty environment over the semiring.
    pub fn new(semiring: S) -> ParseEnv<S> {
        ParseEnv {
            semiring,
            constraints: HashMap::new(),
            levels: HashMap::new(),
        }
    }

    /// Binds a constraint name (builder style). The constraint is also
    /// labelled with the name for readable traces.
    pub fn with_constraint(mut self, name: impl Into<String>, c: Constraint<S>) -> ParseEnv<S> {
        let name = name.into();
        let c = c.with_label(&name);
        self.constraints.insert(name, c);
        self
    }

    /// Binds a threshold-level name (builder style).
    pub fn with_level(mut self, name: impl Into<String>, level: S::Value) -> ParseEnv<S> {
        self.levels.insert(name.into(), level);
        self
    }

    fn constraint(&self, name: &str) -> Option<&Constraint<S>> {
        self.constraints.get(name)
    }

    fn bound(&self, name: &str) -> Option<Bound<S>> {
        match name {
            "bot" => Some(Bound::Level(self.semiring.zero())),
            "top" => Some(Bound::Level(self.semiring.one())),
            _ => self
                .levels
                .get(name)
                .map(|v| Bound::Level(v.clone()))
                .or_else(|| {
                    self.constraints
                        .get(name)
                        .map(|c| Bound::Constraint(c.clone()))
                }),
        }
    }
}

/// A syntax or resolution error, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    offset: usize,
}

impl ParseError {
    /// The byte offset in the input where the error occurred.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses a full program `F.A`: clauses followed by an initial agent.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors or names missing from the
/// environment.
pub fn parse_program<S: Semiring>(
    text: &str,
    env: &ParseEnv<S>,
) -> Result<(Program<S>, Agent<S>), ParseError> {
    let mut parser = Parser::new(text, env);
    let result = parser.program()?;
    parser.expect_eof()?;
    Ok(result)
}

/// Parses a single agent (no clause declarations).
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors or names missing from the
/// environment.
pub fn parse_agent<S: Semiring>(text: &str, env: &ParseEnv<S>) -> Result<Agent<S>, ParseError> {
    let mut parser = Parser::new(text, env);
    let agent = parser.agent()?;
    parser.expect_eof()?;
    Ok(agent)
}

struct Parser<'a, S: Semiring> {
    text: &'a str,
    pos: usize,
    env: &'a ParseEnv<S>,
}

impl<'a, S: Semiring> Parser<'a, S> {
    fn new(text: &'a str, env: &'a ParseEnv<S>) -> Parser<'a, S> {
        Parser { text, pos: 0, env }
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                b'#' => {
                    // Line comment.
                    while self.pos < bytes.len() && bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn peek_symbol(&mut self, sym: &str) -> bool {
        self.skip_ws();
        self.text[self.pos..].starts_with(sym)
    }

    fn eat_symbol(&mut self, sym: &str) -> bool {
        if self.peek_symbol(sym) {
            self.pos += sym.len();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: &str) -> Result<(), ParseError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{sym}`")))
        }
    }

    fn peek_ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        let mut len = 0;
        for (i, ch) in rest.char_indices() {
            let ok = if i == 0 {
                ch.is_ascii_alphabetic() || ch == '_'
            } else {
                ch.is_ascii_alphanumeric() || ch == '_' || ch == '\''
            };
            if ok {
                len = i + ch.len_utf8();
            } else {
                break;
            }
        }
        if len == 0 {
            None
        } else {
            Some(&rest[..len])
        }
    }

    fn eat_ident(&mut self) -> Option<&'a str> {
        let ident = self.peek_ident()?;
        self.pos += ident.len();
        Some(ident)
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        self.eat_ident()
            .ok_or_else(|| self.error("expected an identifier"))
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    fn program(&mut self) -> Result<(Program<S>, Agent<S>), ParseError> {
        let mut program = Program::new();
        // A clause starts with `name(params) ::`; look ahead for `::`.
        loop {
            let save = self.pos;
            if let Some(name) = self.eat_ident() {
                if self.eat_symbol("(") {
                    let params = self.var_list(")")?;
                    if self.eat_symbol("::") {
                        let body = self.agent()?;
                        self.expect_symbol(".")?;
                        program = program.with_clause(name, params, body);
                        continue;
                    }
                }
            }
            self.pos = save;
            break;
        }
        let agent = self.agent()?;
        Ok((program, agent))
    }

    fn agent(&mut self) -> Result<Agent<S>, ParseError> {
        let mut agents = vec![self.choice()?];
        while self.eat_symbol("||") {
            agents.push(self.choice()?);
        }
        Ok(Agent::par_all(agents))
    }

    fn choice(&mut self) -> Result<Agent<S>, ParseError> {
        let first = self.prim()?;
        if !self.peek_symbol("+") {
            return Ok(first);
        }
        let mut guards = self.sum_guards(first)?;
        while self.eat_symbol("+") {
            let next = self.prim()?;
            guards.extend(self.sum_guards(next)?);
        }
        Ok(Agent::sum(guards))
    }

    fn sum_guards(&self, agent: Agent<S>) -> Result<Vec<Guard<S>>, ParseError> {
        match agent {
            Agent::Sum(guards) => Ok(guards),
            _ => Err(self.error("only ask/nask guards can appear in a sum")),
        }
    }

    fn prim(&mut self) -> Result<Agent<S>, ParseError> {
        self.skip_ws();
        if self.eat_symbol("(") {
            let inner = self.agent()?;
            self.expect_symbol(")")?;
            return Ok(inner);
        }
        let ident = self.expect_ident()?;
        match ident {
            "success" => Ok(Agent::success()),
            "tell" | "ask" | "nask" | "retract" => {
                self.expect_symbol("(")?;
                let cname = self.expect_ident()?;
                let c = self
                    .env
                    .constraint(cname)
                    .cloned()
                    .ok_or_else(|| self.error(format!("unknown constraint `{cname}`")))?;
                self.expect_symbol(")")?;
                let interval = self.interval()?;
                let then = self.prim()?;
                Ok(match ident {
                    "tell" => Agent::tell(c, interval, then),
                    "ask" => Agent::ask(c, interval, then),
                    "nask" => Agent::nask(c, interval, then),
                    _ => Agent::retract(c, interval, then),
                })
            }
            "update" => {
                self.expect_symbol("{")?;
                let vars = self.var_list("}")?;
                self.expect_symbol("(")?;
                let cname = self.expect_ident()?;
                let c = self
                    .env
                    .constraint(cname)
                    .cloned()
                    .ok_or_else(|| self.error(format!("unknown constraint `{cname}`")))?;
                self.expect_symbol(")")?;
                let interval = self.interval()?;
                let then = self.prim()?;
                Ok(Agent::update(vars, c, interval, then))
            }
            "exists" => {
                let var = self.expect_ident()?;
                self.expect_symbol(".")?;
                let body = self.prim()?;
                Ok(Agent::hide(var, body))
            }
            name => {
                // A procedure call `name(args)`.
                self.expect_symbol("(")?;
                let args = self.var_list(")")?;
                Ok(Agent::call(name, args))
            }
        }
    }

    fn interval(&mut self) -> Result<Interval<S>, ParseError> {
        if !self.eat_symbol("->") {
            return Ok(Interval::any(&self.env.semiring));
        }
        self.expect_symbol("[")?;
        let lower = self.bound()?;
        self.expect_symbol(",")?;
        let upper = self.bound()?;
        self.expect_symbol("]")?;
        Ok(Interval::new(lower, upper))
    }

    fn bound(&mut self) -> Result<Bound<S>, ParseError> {
        let name = self.expect_ident()?;
        self.env
            .bound(name)
            .ok_or_else(|| self.error(format!("unknown level or constraint `{name}`")))
    }

    fn var_list(&mut self, close: &str) -> Result<Vec<Var>, ParseError> {
        let mut vars = Vec::new();
        if self.eat_symbol(close) {
            return Ok(vars);
        }
        loop {
            vars.push(Var::new(self.expect_ident()?));
            if self.eat_symbol(close) {
                return Ok(vars);
            }
            self.expect_symbol(",")?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interpreter, Outcome, Store};
    use softsoa_core::{Domain, Domains};
    use softsoa_semiring::WeightedInt;

    fn lin(a: u64, b: u64) -> Constraint<WeightedInt> {
        Constraint::unary(WeightedInt, "x", move |v| {
            a * v.as_int().unwrap() as u64 + b
        })
    }

    fn env() -> ParseEnv<WeightedInt> {
        ParseEnv::new(WeightedInt)
            .with_constraint("c1", lin(1, 3))
            .with_constraint("c3", lin(2, 0))
            .with_constraint("c4", lin(1, 5))
            .with_constraint("one", Constraint::always(WeightedInt))
            .with_level("two", 2u64)
            .with_level("four", 4u64)
            .with_level("ten", 10u64)
    }

    fn doms() -> Domains {
        Domains::new().with("x", Domain::ints(0..=10))
    }

    #[test]
    fn parses_success() {
        let a = parse_agent("success", &env()).unwrap();
        assert!(a.is_success());
    }

    #[test]
    fn parses_tell_chain_with_intervals() {
        let a = parse_agent("tell(c4) tell(c3) ->[ten, two] success", &env()).unwrap();
        match a {
            Agent::Tell(action) => {
                assert_eq!(action.constraint().label(), Some("c4"));
                assert!(matches!(*action.then(), Agent::Tell(_)));
            }
            _ => panic!("expected Tell"),
        }
    }

    #[test]
    fn parses_parallel_and_sum() {
        let a = parse_agent(
            "ask(c1) success + nask(c3) success || tell(c4) success",
            &env(),
        )
        .unwrap();
        match a {
            Agent::Par(left, _) => match &*left {
                Agent::Sum(guards) => assert_eq!(guards.len(), 2),
                _ => panic!("expected Sum"),
            },
            _ => panic!("expected Par"),
        }
    }

    #[test]
    fn sum_of_non_guards_is_rejected() {
        let err = parse_agent("tell(c4) success + success", &env()).unwrap_err();
        assert!(err.to_string().contains("guards"));
    }

    #[test]
    fn parses_update_exists_and_calls() {
        let text = "p(x) :: update{x}(c3) success . exists x. p(x)";
        let (program, agent) = parse_program(text, &env()).unwrap();
        assert_eq!(program.len(), 1);
        assert!(matches!(agent, Agent::Hide { .. }));
    }

    #[test]
    fn unknown_names_are_errors() {
        assert!(parse_agent("tell(nope) success", &env()).is_err());
        assert!(parse_agent("tell(c4) ->[zzz, top] success", &env()).is_err());
    }

    #[test]
    fn comments_and_whitespace() {
        let a = parse_agent("# a comment\n  success", &env()).unwrap();
        assert!(a.is_success());
    }

    /// Example 1 of the paper, parsed from text and executed: the
    /// negotiation must fail (deadlock at level 5).
    #[test]
    fn example1_from_text() {
        let text = "
            tell(c4) success
            || tell(c3) ask(one) ->[four, two] success
        ";
        let agent = parse_agent(text, &env()).unwrap();
        let report = Interpreter::new(Program::new())
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        match report.outcome {
            Outcome::Deadlock { store, .. } => {
                assert_eq!(store.consistency().unwrap(), 5)
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// Example 2 from text: retract(c1) relaxes the store to level 2.
    #[test]
    fn example2_from_text() {
        let text = "
            tell(c4) retract(c1) ->[ten, two] success
            || tell(c3) ask(one) ->[four, two] success
        ";
        let agent = parse_agent(text, &env()).unwrap();
        let report = Interpreter::new(Program::new())
            .with_policy(crate::Policy::Random(3))
            .run(agent, Store::empty(WeightedInt, doms()))
            .unwrap();
        match report.outcome {
            Outcome::Success { store } => {
                assert_eq!(store.consistency().unwrap(), 2)
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn error_offsets_point_into_the_text() {
        let err = parse_agent("success extra", &env()).unwrap_err();
        assert!(err.offset() >= 7);
    }
}
