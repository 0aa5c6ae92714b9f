//! The Theorem 2 construction: CNF-SAT ⟶ object-type satisfiability.
//!
//! Given `φ = ψ1 ∧ … ∧ ψn` over atoms `α`, the reduction builds an SDL
//! schema with:
//!
//! 1. an object type `OT` (the queried type);
//! 2. an interface `Clause_i` per clause, whose field `f: [OT]` carries
//!    `@requiredForTarget` — every `OT` node needs an incoming `f`-edge
//!    from a node implementing `Clause_i`, i.e. each clause must pick a
//!    satisfied literal;
//! 3. an object type `Lit_i_j` per literal occurrence, implementing its
//!    clause interface;
//! 4. for every complementary atom pair an interface `Conflict_…` whose
//!    field `f: [OT]` carries `@uniqueForTarget`, implemented by the two
//!    literal types — an `OT` node can receive an `f`-edge from at most
//!    one of them, so a variable cannot be both true and false.
//!
//! A Property Graph with an `OT` node strongly satisfying the schema
//! encodes a satisfying truth assignment and vice versa; the graph needs
//! at most `1 + n` nodes (`OT` plus one literal node per clause), which
//! makes the bounded finite search a complete decision procedure here
//! ([`Reduction::bound`]).
//!
//! Note on consistency: all fields involved are declared `[OT]` on
//! interfaces and implementors alike, so the schema is interface
//! consistent per Definition 4.3 (the paper's own sketch leaves the
//! field repetitions implicit).

use dpll::{Cnf, Lit};
use pg_schema::PgSchema;

/// The output of the reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The generated SDL text (parseable by `gql-sdl`).
    pub sdl: String,
    /// The name of the object type whose satisfiability mirrors the
    /// formula's ("OT").
    pub object_type: String,
    /// A complete finite-search bound: 1 + number of clauses.
    pub bound: usize,
}

/// Builds the schema of the Theorem 2 proof for `cnf`.
///
/// Empty clauses make the formula trivially unsatisfiable; the reduction
/// represents such a clause as an interface with **no** implementing
/// literal types, whose `@requiredForTarget` can then never be satisfied
/// once an `OT` node exists — except that DS4 quantifies over existing
/// source *nodes*; an implementor-less interface yields a
/// `requiredForTarget` that no node can discharge, which is exactly
/// "unsatisfiable clause".
pub fn reduce_cnf(cnf: &Cnf) -> Reduction {
    let mut sdl = String::new();
    sdl.push_str("type OT { }\n");
    for (i, clause) in cnf.clauses().iter().enumerate() {
        sdl.push_str(&format!(
            "interface Clause{i} {{ f: [OT] @requiredForTarget }}\n"
        ));
        for (j, lit) in clause.iter().enumerate() {
            let mut implements = vec![format!("Clause{i}")];
            // Conflict interfaces with complementary occurrences in
            // *later* positions (each unordered pair once).
            for (i2, clause2) in cnf.clauses().iter().enumerate() {
                for (j2, lit2) in clause2.iter().enumerate() {
                    if (i2, j2) <= (i, j) {
                        continue;
                    }
                    if *lit2 == lit.negated() {
                        implements.push(conflict_name(i, j, i2, j2));
                    }
                }
            }
            // ...and with complementary occurrences in earlier positions.
            for (i2, clause2) in cnf.clauses().iter().enumerate() {
                for (j2, lit2) in clause2.iter().enumerate() {
                    if (i2, j2) >= (i, j) {
                        continue;
                    }
                    if *lit2 == lit.negated() {
                        implements.push(conflict_name(i2, j2, i, j));
                    }
                }
            }
            sdl.push_str(&format!(
                "type {} implements {} {{ f: [OT] }}\n",
                lit_type_name(i, j, *lit),
                implements.join(" & "),
            ));
        }
    }
    // Conflict interfaces (declared once per complementary pair).
    for (i, clause) in cnf.clauses().iter().enumerate() {
        for (j, lit) in clause.iter().enumerate() {
            for (i2, clause2) in cnf.clauses().iter().enumerate() {
                for (j2, lit2) in clause2.iter().enumerate() {
                    if (i2, j2) <= (i, j) {
                        continue;
                    }
                    if *lit2 == lit.negated() {
                        sdl.push_str(&format!(
                            "interface {} {{ f: [OT] @uniqueForTarget }}\n",
                            conflict_name(i, j, i2, j2)
                        ));
                    }
                }
            }
        }
    }
    Reduction {
        sdl,
        object_type: "OT".to_owned(),
        bound: 1 + cnf.num_clauses(),
    }
}

fn lit_type_name(i: usize, j: usize, lit: Lit) -> String {
    format!(
        "Lit{}_{}_{}{}",
        i,
        j,
        if lit.is_neg() { "n" } else { "p" },
        lit.var()
    )
}

fn conflict_name(i: usize, j: usize, i2: usize, j2: usize) -> String {
    format!("Conflict_{i}_{j}__{i2}_{j2}")
}

/// Decides the formula through the reduction: builds the schema, then
/// searches for a finite model of `OT` up to the complete bound.
/// Returns the witness graph if satisfiable.
pub fn decide_via_reduction(cnf: &Cnf) -> Option<pgraph::PropertyGraph> {
    let red = reduce_cnf(cnf);
    // Every field is `[OT]` on interfaces and implementors alike, so the
    // emitted schema is consistent for every formula (module docs).
    let schema = PgSchema::parse(&red.sdl).expect("reduction emits a consistent schema");
    for k in 1..=red.bound {
        if let Some(g) = crate::finite::find_model(&schema, &red.object_type, k) {
            return Some(g);
        }
    }
    None
}

/// Extracts the truth assignment encoded by a witness graph: variable `v`
/// is true iff some positive-literal node of `v` has an `f`-edge.
/// Unconstrained variables default to false.
pub fn extract_assignment(cnf: &Cnf, witness: &pgraph::PropertyGraph) -> Vec<bool> {
    let mut assignment = vec![false; cnf.num_vars()];
    let mut forced_false = vec![false; cnf.num_vars()];
    for e in witness.edges() {
        if e.label() != "f" {
            continue;
        }
        let Some(label) = witness.node_label(e.source()) else {
            continue;
        };
        // Lit{i}_{j}_{p|n}{var}
        let Some(rest) = label.strip_prefix("Lit") else {
            continue;
        };
        let parts: Vec<&str> = rest.split('_').collect();
        if parts.len() != 3 {
            continue;
        }
        let polarity_var = parts[2];
        let (neg, var_str) = if let Some(v) = polarity_var.strip_prefix('p') {
            (false, v)
        } else if let Some(v) = polarity_var.strip_prefix('n') {
            (true, v)
        } else {
            continue;
        };
        if let Ok(var) = var_str.parse::<usize>() {
            if var < assignment.len() {
                if neg {
                    forced_false[var] = true;
                } else {
                    assignment[var] = true;
                }
            }
        }
    }
    // Sanity: conflicting forcings cannot happen in a valid witness; the
    // @uniqueForTarget conflict interfaces forbid them.
    for v in 0..assignment.len() {
        debug_assert!(
            !(assignment[v] && forced_false[v]),
            "witness sets x{v} both ways"
        );
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_object_type, ReasonerConfig, Satisfiability};
    use dpll::KsatParams;

    fn clause(lits: &[i32]) -> Vec<Lit> {
        lits.iter()
            .map(|&v| {
                let var = v.unsigned_abs() as usize - 1;
                if v > 0 {
                    Lit::pos(var)
                } else {
                    Lit::neg(var)
                }
            })
            .collect()
    }

    fn cnf(num_vars: usize, clauses: &[&[i32]]) -> Cnf {
        let mut c = Cnf::new(num_vars);
        for cl in clauses {
            c.add_clause(clause(cl));
        }
        c
    }

    #[test]
    fn reduction_emits_consistent_parseable_sdl() {
        let f = cnf(4, &[&[1, -2, 3], &[-1, -3], &[4, 2]]);
        let red = reduce_cnf(&f);
        let schema = PgSchema::parse(&red.sdl).unwrap();
        // OT + 3+2+2 literal types.
        assert_eq!(schema.schema().object_types().count(), 1 + 7, "{}", red.sdl);
        // 3 clause interfaces + conflicts: pairs (A,¬A): α(1,1)=A? atoms:
        // c0: x0 ¬x1 x2; c1: ¬x0 ¬x2; c2: x3 x1. Complementary pairs:
        // (x0,¬x0), (¬x1,x1), (x2,¬x2) → 3 conflict interfaces.
        assert_eq!(schema.schema().interface_types().count(), 3 + 3);
    }

    #[test]
    fn paper_example_formula_is_satisfiable_via_reduction() {
        // (A ∨ ¬B ∨ C) ∧ (¬A ∨ ¬C) ∧ (D ∨ B) — the formula of the
        // Theorem 2 proof sketch.
        let f = cnf(4, &[&[1, -2, 3], &[-1, -3], &[4, 2]]);
        let witness = decide_via_reduction(&f).expect("satisfiable");
        let assignment = extract_assignment(&f, &witness);
        assert!(f.eval(&assignment), "extracted assignment must satisfy φ");
    }

    #[test]
    fn unsat_formula_is_unsat_via_reduction() {
        let f = cnf(1, &[&[1], &[-1]]);
        assert!(decide_via_reduction(&f).is_none());
        assert!(dpll::solve(&f).is_none());
    }

    #[test]
    fn tableau_agrees_on_reduction_schemas() {
        let sat_f = cnf(2, &[&[1, 2], &[-1]]);
        let red = reduce_cnf(&sat_f);
        let schema = PgSchema::parse(&red.sdl).unwrap();
        match check_object_type(&schema, "OT", &ReasonerConfig::default()) {
            Satisfiability::Satisfiable { witness, .. } => {
                assert!(pg_schema::strongly_satisfies(&witness, &schema));
            }
            other => panic!("expected satisfiable, got {other:?}"),
        }
        let unsat_f = cnf(2, &[&[1], &[2], &[-1, -2]]);
        let red = reduce_cnf(&unsat_f);
        let schema = PgSchema::parse(&red.sdl).unwrap();
        let result = check_object_type(&schema, "OT", &ReasonerConfig::default());
        assert!(!result.is_satisfiable(), "UNSAT formula produced a witness");
    }

    #[test]
    fn random_instances_agree_with_dpll() {
        for seed in 0..8 {
            let f = dpll::random_ksat(&KsatParams {
                num_vars: 4,
                num_clauses: 6,
                k: 2,
                seed,
            });
            let oracle = dpll::solve(&f).is_some();
            let via_reduction = decide_via_reduction(&f).is_some();
            assert_eq!(oracle, via_reduction, "seed {seed}: formula {f}");
        }
    }

    #[test]
    fn empty_formula_is_satisfiable() {
        let f = Cnf::new(0);
        let g = decide_via_reduction(&f).unwrap();
        assert_eq!(g.node_count(), 1); // just the OT node
    }

    #[test]
    fn reduction_size_is_polynomial() {
        let f = dpll::random_ksat(&KsatParams {
            num_vars: 10,
            num_clauses: 20,
            k: 3,
            seed: 0,
        });
        let red = reduce_cnf(&f);
        // 1 OT + 60 literal types + 20 clause interfaces + ≤ C(60,2)
        // conflicts; SDL text stays small.
        assert!(red.sdl.len() < 200_000);
        assert!(PgSchema::parse(&red.sdl).is_ok());
    }
}
