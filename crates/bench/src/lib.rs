//! # pg-bench — table harness
//!
//! The `experiments` binary (`cargo run --release -p pg-bench --bin
//! experiments`) regenerates the paper's artifacts as the tables of
//! EXPERIMENTS.md: the §3.3 cardinality table, the SAT phase transition
//! and the Theorem 2 reduction's agreement with the oracle, the tableau's
//! verdicts on growing chains, the §6.2 satisfiability verdicts and the
//! violation-detection matrix. No table prints a time, so the output is
//! the same bytes on every run. Asymptotic bounds are pinned by the root
//! package's `tests/complexity.rs` as ratios of work counters; served
//! numbers come from `pgbench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tables;
