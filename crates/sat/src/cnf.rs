//! CNF formulas and literals.

use std::fmt;

/// A literal: a propositional variable (0-based index) with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit {
    /// Encoded as `var << 1 | negated`.
    code: u32,
}

impl Lit {
    /// The positive literal of variable `var`.
    pub fn pos(var: usize) -> Self {
        Lit {
            code: (var as u32) << 1,
        }
    }

    /// The negative literal of variable `var`.
    pub fn neg(var: usize) -> Self {
        Lit {
            code: ((var as u32) << 1) | 1,
        }
    }

    /// The literal's variable.
    pub fn var(self) -> usize {
        (self.code >> 1) as usize
    }

    /// True if the literal is negated.
    pub fn is_neg(self) -> bool {
        self.code & 1 == 1
    }

    /// The complementary literal.
    pub fn negated(self) -> Self {
        Lit {
            code: self.code ^ 1,
        }
    }

    /// Evaluates the literal under an assignment.
    pub fn eval(self, assignment: &[bool]) -> bool {
        assignment[self.var()] ^ self.is_neg()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// A formula in conjunctive normal form over `num_vars` variables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

/// A DIMACS parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsError {
    /// Missing or malformed `p cnf <vars> <clauses>` header.
    BadHeader(String),
    /// A token that is not an integer.
    BadToken(String),
    /// A literal referencing a variable ≥ the declared count.
    VarOutOfRange(i64),
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::BadHeader(l) => write!(f, "bad DIMACS header: {l:?}"),
            DimacsError::BadToken(t) => write!(f, "bad DIMACS token: {t:?}"),
            DimacsError::VarOutOfRange(v) => write!(f, "literal {v} out of declared range"),
        }
    }
}

impl std::error::Error for DimacsError {}

impl Cnf {
    /// An empty formula over `num_vars` variables (trivially satisfiable).
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }

    /// Adds one clause (a disjunction of literals). An empty clause makes
    /// the formula unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            assert!(
                l.var() < self.num_vars,
                "literal {l} out of range (num_vars = {})",
                self.num_vars
            );
        }
        self.clauses.push(clause);
    }

    /// Evaluates the whole formula under a full assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars);
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| l.eval(assignment)))
    }

    /// Parses the DIMACS CNF format (`p cnf <vars> <clauses>`, clauses as
    /// 1-based signed integers terminated by `0`, `c` comment lines).
    pub fn parse_dimacs(text: &str) -> Result<Self, DimacsError> {
        let mut cnf: Option<Cnf> = None;
        let mut current: Vec<Lit> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('p') {
                let parts: Vec<&str> = line.split_whitespace().collect();
                if parts.len() != 4 || parts[1] != "cnf" {
                    return Err(DimacsError::BadHeader(line.to_owned()));
                }
                let vars: usize = parts[2]
                    .parse()
                    .map_err(|_| DimacsError::BadHeader(line.to_owned()))?;
                cnf = Some(Cnf::new(vars));
                continue;
            }
            let cnf_ref = cnf
                .as_mut()
                .ok_or_else(|| DimacsError::BadHeader("missing p line".to_owned()))?;
            for tok in line.split_whitespace() {
                let v: i64 = tok
                    .parse()
                    .map_err(|_| DimacsError::BadToken(tok.to_owned()))?;
                if v == 0 {
                    cnf_ref.clauses.push(std::mem::take(&mut current));
                } else {
                    let var = v.unsigned_abs() as usize - 1;
                    if var >= cnf_ref.num_vars {
                        return Err(DimacsError::VarOutOfRange(v));
                    }
                    current.push(if v > 0 { Lit::pos(var) } else { Lit::neg(var) });
                }
            }
        }
        let mut cnf = cnf.ok_or_else(|| DimacsError::BadHeader("empty input".to_owned()))?;
        if !current.is_empty() {
            cnf.clauses.push(current);
        }
        Ok(cnf)
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "(")?;
            for (j, l) in c.iter().enumerate() {
                if j > 0 {
                    write!(f, " ∨ ")?;
                }
                write!(f, "{l}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let p = Lit::pos(3);
        let n = Lit::neg(3);
        assert_eq!(p.var(), 3);
        assert!(!p.is_neg());
        assert!(n.is_neg());
        assert_eq!(p.negated(), n);
        assert_eq!(n.negated(), p);
        assert_eq!(p.to_string(), "x3");
        assert_eq!(n.to_string(), "¬x3");
    }

    #[test]
    fn literal_eval() {
        let assignment = [true, false];
        assert!(Lit::pos(0).eval(&assignment));
        assert!(!Lit::neg(0).eval(&assignment));
        assert!(!Lit::pos(1).eval(&assignment));
        assert!(Lit::neg(1).eval(&assignment));
    }

    #[test]
    fn formula_eval() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([Lit::pos(0), Lit::neg(1)]);
        cnf.add_clause([Lit::pos(1)]);
        assert!(cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[false, true]));
        assert!(!cnf.eval(&[false, false])); // second clause fails
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_panics() {
        let mut cnf = Cnf::new(1);
        cnf.add_clause([Lit::pos(1)]);
    }

    #[test]
    fn dimacs_parses_to_the_same_cnf() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause([Lit::pos(0), Lit::neg(2)]);
        cnf.add_clause([Lit::neg(0), Lit::pos(1), Lit::pos(2)]);
        let parsed = Cnf::parse_dimacs("p cnf 3 2\n1 -3 0\n-1 2 3 0\n").unwrap();
        assert_eq!(cnf, parsed);
    }

    #[test]
    fn dimacs_parses_comments_and_multiline_clauses() {
        let text = "c a comment\np cnf 2 2\n1 -2 0\n2\n0\n";
        let cnf = Cnf::parse_dimacs(text).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clauses()[1], vec![Lit::pos(1)]);
    }

    #[test]
    fn dimacs_errors() {
        assert!(matches!(
            Cnf::parse_dimacs(""),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            Cnf::parse_dimacs("p cnf x 1\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            Cnf::parse_dimacs("p cnf 1 1\n2 0\n"),
            Err(DimacsError::VarOutOfRange(2))
        ));
        assert!(matches!(
            Cnf::parse_dimacs("p cnf 1 1\nzz 0\n"),
            Err(DimacsError::BadToken(_))
        ));
        assert!(matches!(
            Cnf::parse_dimacs("1 0\n"),
            Err(DimacsError::BadHeader(_))
        ));
    }

    #[test]
    fn display_renders_formula() {
        let mut cnf = Cnf::new(2);
        cnf.add_clause([Lit::pos(0), Lit::neg(1)]);
        assert_eq!(cnf.to_string(), "(x0 ∨ ¬x1)");
    }
}
