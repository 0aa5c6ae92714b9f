//! ALCQI concepts, roles, and TBoxes.
//!
//! The description logic of the Theorem 3 proof: ALC plus qualified
//! number restrictions (`≥n R.C`, `≤n R.C`) and inverse roles (`R⁻`).
//! Concepts are kept in **negation normal form** — negation only in front
//! of concept names — which is what the tableau consumes.

use std::collections::BTreeMap;
use std::fmt;

/// A role: a (relationship-field) name, possibly inverted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Role {
    /// Index into the TBox role-name table.
    pub name: u32,
    /// True for `R⁻`.
    pub inverse: bool,
}

impl Role {
    /// The inverse of this role.
    pub fn inverted(self) -> Role {
        Role {
            name: self.name,
            inverse: !self.inverse,
        }
    }
}

/// A concept in negation normal form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Concept {
    /// ⊤
    Top,
    /// ⊥
    Bottom,
    /// A concept name (index into the TBox concept-name table).
    Name(u32),
    /// ¬A for a concept name (NNF keeps negation atomic).
    NegName(u32),
    /// C ⊓ D ⊓ …
    And(Vec<Concept>),
    /// C ⊔ D ⊔ …
    Or(Vec<Concept>),
    /// ∀R.C
    Forall(Role, Box<Concept>),
    /// ≥n R.C (∃R.C is `AtLeast(1, …)`).
    AtLeast(u32, Role, Box<Concept>),
    /// ≤n R.C
    AtMost(u32, Role, Box<Concept>),
}

impl Concept {
    /// ∃R.C
    pub fn exists(role: Role, c: Concept) -> Concept {
        Concept::AtLeast(1, role, Box::new(c))
    }

    /// Negates the concept, renormalising to NNF.
    pub fn negate(&self) -> Concept {
        match self {
            Concept::Top => Concept::Bottom,
            Concept::Bottom => Concept::Top,
            Concept::Name(n) => Concept::NegName(*n),
            Concept::NegName(n) => Concept::Name(*n),
            Concept::And(cs) => Concept::Or(cs.iter().map(Concept::negate).collect()),
            Concept::Or(cs) => Concept::And(cs.iter().map(Concept::negate).collect()),
            Concept::Forall(r, c) => Concept::exists(*r, c.negate()),
            Concept::AtLeast(n, r, c) => {
                if *n == 0 {
                    // ≥0 R.C ≡ ⊤
                    Concept::Bottom
                } else {
                    Concept::AtMost(n - 1, *r, c.clone())
                }
            }
            Concept::AtMost(n, r, c) => Concept::AtLeast(n + 1, *r, c.clone()),
        }
    }

    /// Structural simplification: flatten nested ⊓/⊔, drop ⊤/⊥ units.
    pub fn simplify(self) -> Concept {
        match self {
            Concept::And(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.simplify() {
                        Concept::Top => {}
                        Concept::Bottom => return Concept::Bottom,
                        Concept::And(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => Concept::Top,
                    // `out` holds exactly one concept here.
                    1 => out.pop().expect("one concept"),
                    _ => {
                        out.sort();
                        out.dedup();
                        Concept::And(out)
                    }
                }
            }
            Concept::Or(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.simplify() {
                        Concept::Bottom => {}
                        Concept::Top => return Concept::Top,
                        Concept::Or(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => Concept::Bottom,
                    // `out` holds exactly one concept here.
                    1 => out.pop().expect("one concept"),
                    _ => {
                        out.sort();
                        out.dedup();
                        Concept::Or(out)
                    }
                }
            }
            Concept::Forall(r, c) => Concept::Forall(r, Box::new(c.simplify())),
            Concept::AtLeast(n, r, c) => Concept::AtLeast(n, r, Box::new(c.simplify())),
            // ≤0 R.C ≡ ∀R.¬C — canonicalising makes double negation
            // structurally involutive and lets the tableau treat the
            // common case with the cheaper ∀-rule.
            Concept::AtMost(0, r, c) => Concept::Forall(r, Box::new(c.negate().simplify())),
            Concept::AtMost(n, r, c) => Concept::AtMost(n, r, Box::new(c.simplify())),
            other => other,
        }
    }
}

/// A TBox: name tables plus a set of *global constraints* — the
/// internalised form of the axioms `C ⊑ D`, kept as NNF concepts that
/// every individual must satisfy (`¬C ⊔ D`).
#[derive(Debug, Clone, Default)]
pub struct TBox {
    concept_names: Vec<String>,
    concept_by_name: BTreeMap<String, u32>,
    role_names: Vec<String>,
    role_by_name: BTreeMap<String, u32>,
    /// Concepts every individual must satisfy.
    pub globals: Vec<Concept>,
}

impl TBox {
    /// Creates an empty TBox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a concept name.
    pub fn concept(&mut self, name: &str) -> Concept {
        Concept::Name(self.concept_id(name))
    }

    /// Interns a concept name, returning its id.
    pub fn concept_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.concept_by_name.get(name) {
            return id;
        }
        let id = self.concept_names.len() as u32;
        self.concept_names.push(name.to_owned());
        self.concept_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned concept name.
    pub fn find_concept(&self, name: &str) -> Option<u32> {
        self.concept_by_name.get(name).copied()
    }

    /// The name of a concept id.
    pub fn concept_name(&self, id: u32) -> &str {
        &self.concept_names[id as usize]
    }

    /// Interns a role name.
    pub fn role(&mut self, name: &str) -> Role {
        if let Some(&id) = self.role_by_name.get(name) {
            return Role {
                name: id,
                inverse: false,
            };
        }
        let id = self.role_names.len() as u32;
        self.role_names.push(name.to_owned());
        self.role_by_name.insert(name.to_owned(), id);
        Role {
            name: id,
            inverse: false,
        }
    }

    /// The name of a role id.
    pub fn role_name(&self, id: u32) -> &str {
        &self.role_names[id as usize]
    }

    /// Adds the axiom `sub ⊑ sup` (internalised as the global constraint
    /// `¬sub ⊔ sup`).
    pub fn add_subsumption(&mut self, sub: Concept, sup: Concept) {
        self.globals
            .push(Concept::Or(vec![sub.negate(), sup]).simplify());
    }

    /// Adds the axiom `a ≡ b` (two subsumptions).
    pub fn add_equivalence(&mut self, a: Concept, b: Concept) {
        self.add_subsumption(a.clone(), b.clone());
        self.add_subsumption(b, a);
    }

    /// Renders a concept for debugging.
    pub fn render(&self, c: &Concept) -> String {
        struct R<'a>(&'a TBox, &'a Concept);
        impl fmt::Display for R<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let (tb, c) = (self.0, self.1);
                match c {
                    Concept::Top => write!(f, "⊤"),
                    Concept::Bottom => write!(f, "⊥"),
                    Concept::Name(n) => write!(f, "{}", tb.concept_name(*n)),
                    Concept::NegName(n) => write!(f, "¬{}", tb.concept_name(*n)),
                    Concept::And(cs) => {
                        write!(f, "(")?;
                        for (i, x) in cs.iter().enumerate() {
                            if i > 0 {
                                write!(f, " ⊓ ")?;
                            }
                            write!(f, "{}", R(tb, x))?;
                        }
                        write!(f, ")")
                    }
                    Concept::Or(cs) => {
                        write!(f, "(")?;
                        for (i, x) in cs.iter().enumerate() {
                            if i > 0 {
                                write!(f, " ⊔ ")?;
                            }
                            write!(f, "{}", R(tb, x))?;
                        }
                        write!(f, ")")
                    }
                    Concept::Forall(r, x) => {
                        write!(f, "∀{}{}.{}", tb.role_name(r.name), inv(r), R(tb, x))
                    }
                    Concept::AtLeast(n, r, x) => {
                        write!(f, "≥{n} {}{}.{}", tb.role_name(r.name), inv(r), R(tb, x))
                    }
                    Concept::AtMost(n, r, x) => {
                        write!(f, "≤{n} {}{}.{}", tb.role_name(r.name), inv(r), R(tb, x))
                    }
                }
            }
        }
        fn inv(r: &Role) -> &'static str {
            if r.inverse {
                "⁻"
            } else {
                ""
            }
        }
        R(self, c).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(n: u32) -> Concept {
        Concept::Name(n)
    }

    #[test]
    fn negation_is_involutive_in_nnf() {
        let mut tb = TBox::new();
        let r = tb.role("f");
        let samples = vec![
            Concept::Top,
            Concept::Bottom,
            name(0),
            Concept::NegName(1),
            Concept::And(vec![name(0), name(1)]),
            Concept::Or(vec![name(0), Concept::NegName(1)]),
            Concept::Forall(r, Box::new(name(0))),
            Concept::AtLeast(2, r, Box::new(name(0))),
            Concept::AtMost(1, r, Box::new(name(0))),
        ];
        for c in samples {
            let back = c.negate().negate().simplify();
            assert_eq!(back, c.clone().simplify(), "double negation of {c:?}");
        }
    }

    #[test]
    fn negate_number_restrictions() {
        let mut tb = TBox::new();
        let r = tb.role("f");
        // ¬(≥1 R.C) = ≤0 R.C
        assert_eq!(
            Concept::exists(r, name(0)).negate(),
            Concept::AtMost(0, r, Box::new(name(0)))
        );
        // ¬(≤1 R.C) = ≥2 R.C
        assert_eq!(
            Concept::AtMost(1, r, Box::new(name(0))).negate(),
            Concept::AtLeast(2, r, Box::new(name(0)))
        );
        // ¬∀R.C = ∃R.¬C
        assert_eq!(
            Concept::Forall(r, Box::new(name(0))).negate(),
            Concept::exists(r, Concept::NegName(0))
        );
    }

    #[test]
    fn simplify_flattens_and_prunes() {
        let c = Concept::And(vec![
            Concept::Top,
            Concept::And(vec![name(0), name(1)]),
            name(0),
        ])
        .simplify();
        assert_eq!(c, Concept::And(vec![name(0), name(1)]));
        let c = Concept::Or(vec![Concept::Bottom, name(2)]).simplify();
        assert_eq!(c, name(2));
        let c = Concept::Or(vec![Concept::Top, name(2)]).simplify();
        assert_eq!(c, Concept::Top);
        let c = Concept::And(vec![Concept::Bottom, name(2)]).simplify();
        assert_eq!(c, Concept::Bottom);
        assert_eq!(Concept::And(vec![]).simplify(), Concept::Top);
        assert_eq!(Concept::Or(vec![]).simplify(), Concept::Bottom);
    }

    #[test]
    fn interning_is_stable() {
        let mut tb = TBox::new();
        let a1 = tb.concept_id("A");
        let b = tb.concept_id("B");
        let a2 = tb.concept_id("A");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(tb.concept_name(a1), "A");
        assert_eq!(tb.find_concept("B"), Some(b));
        assert_eq!(tb.find_concept("C"), None);
        let r1 = tb.role("f");
        let r2 = tb.role("f");
        assert_eq!(r1, r2);
        assert_eq!(r1.inverted().inverted(), r1);
    }

    #[test]
    fn subsumption_internalises() {
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let b = tb.concept("B");
        tb.add_subsumption(a.clone(), b.clone());
        assert_eq!(tb.globals.len(), 1);
        // ¬A ⊔ B
        assert_eq!(
            tb.globals[0],
            Concept::Or(vec![b, Concept::NegName(0)]).simplify()
        );
    }

    #[test]
    fn render_is_readable() {
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let r = tb.role("f");
        let c = Concept::AtMost(1, r.inverted(), Box::new(a));
        assert_eq!(tb.render(&c), "≤1 f⁻.A");
    }
}
