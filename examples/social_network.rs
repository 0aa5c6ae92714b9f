//! A realistic scenario: a social-network catalogue with keys, distinct
//! follows-edges, no-self-follow, and edge properties. Generates a large
//! conforming instance, profiles both validation engines on it, then
//! demonstrates the per-rule detection matrix via violation injection.
//!
//! Run with: `cargo run --release --example social_network`

use std::time::Instant;

use pg_datagen::{inject, Defect, GraphGen, GraphGenParams};
use pg_schema::{validate, Engine, PgSchema, ValidationOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = PgSchema::parse(pg_datagen::schemagen::social_schema())?;

    let gen = GraphGen::new(
        &schema,
        GraphGenParams {
            nodes_per_type: 2_000,
            max_fanout: 4,
            ..Default::default()
        },
    );
    let graph = gen
        .generate_conforming(5)
        .ok_or("social schema should be generable")?;
    println!(
        "generated: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    for engine in [Engine::Indexed, Engine::Naive] {
        let start = Instant::now();
        let report = validate(&graph, &schema, &ValidationOptions::with_engine(engine));
        println!(
            "{engine:?} engine: conforms={} in {:?}",
            report.conforms(),
            start.elapsed()
        );
        assert!(report.conforms());
    }

    // Detection matrix: every applicable defect is caught by exactly the
    // rule it targets.
    println!("\ndefect → detected rule");
    for defect in Defect::ALL {
        let mut broken = graph.clone();
        if !inject(&mut broken, &schema, defect) {
            println!("  {defect:?}: not applicable to this schema");
            continue;
        }
        let report = validate(&broken, &schema, &ValidationOptions::default());
        let caught = report.by_rule(defect.rule()).next().is_some();
        println!(
            "  {defect:?} → {} ({} violation(s)){}",
            defect.rule(),
            report.len(),
            if caught { "" } else { "  !! MISSED" }
        );
        assert!(caught, "{defect:?} was not caught");
    }
    Ok(())
}
