//! # dpll — a small CNF toolkit and SAT solver
//!
//! The NP-hardness proof of Theorem 2 reduces CNF-SAT to object-type
//! satisfiability. To reproduce the reduction *executably* we need a SAT
//! substrate: a CNF representation ([`Cnf`], [`Lit`]), a complete solver
//! ([`solve`] — DPLL with unit propagation and pure-literal elimination),
//! a DIMACS-style parser ([`Cnf::parse_dimacs`]) and a random k-SAT
//! generator ([`random_ksat`]) for the phase-transition benchmark (E4).
//!
//! ```
//! use dpll::{Cnf, Lit};
//!
//! // (x1 ∨ ¬x2) ∧ (x2)
//! let mut cnf = Cnf::new(2);
//! cnf.add_clause([Lit::pos(0), Lit::neg(1)]);
//! cnf.add_clause([Lit::pos(1)]);
//! let model = dpll::solve(&cnf).expect("satisfiable");
//! assert!(model[0] && model[1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdcl;
mod cnf;
mod gen;
mod solver;

pub use cdcl::{solve_cdcl, solve_cdcl_with_stats, Budget, CdclStats, OutOfSteps};
pub use cnf::{Cnf, DimacsError, Lit};
pub use gen::{random_ksat, KsatParams};
pub use solver::{solve, solve_with_stats, SolveStats};
