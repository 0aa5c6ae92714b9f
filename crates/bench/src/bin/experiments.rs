//! Regenerates the tables of EXPERIMENTS.md, the same bytes on every run.
//!
//! ```text
//! cargo run --release -p pg-bench --bin experiments            # all
//! cargo run --release -p pg-bench --bin experiments -- E4 E6   # subset
//! ```

use pg_bench::tables;

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let run = |id: &str| wanted.is_empty() || wanted.iter().any(|w| w == id);

    if run("E1") {
        println!("## E1 — cardinality combinations (§3.3 table)\n");
        println!("{}", tables::cardinality_table());
    }
    if run("E4") {
        println!("## E4a — random 3-SAT phase transition (DPLL oracle)\n");
        println!("{}", tables::phase_transition(30, 40));
        println!("## E4b — Theorem 2 reduction pipeline\n");
        println!("{}", tables::reduction_scaling(&[3, 4, 5, 6], 1.5, 5));
    }
    if run("E5") {
        println!("## E5 — tableau verdicts (Theorem 3)\n");
        println!("{}", tables::reasoner_scaling(&[1, 2, 4, 8, 12, 16]));
    }
    if run("E6") {
        println!("## E6 — §6.2 satisfiability verdicts\n");
        println!("{}", tables::satisfiability_verdicts());
    }
    if run("E10") {
        println!("## E10 — violation detection matrix\n");
        println!("{}", tables::detection_matrix());
    }
}
