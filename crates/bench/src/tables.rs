//! Table generators for EXPERIMENTS.md — one function per experiment id.
//!
//! Each generator returns a Markdown table as a `String` and prints no
//! time, so a table is the same bytes on every run; the `experiments`
//! binary prints them, and the unit tests smoke-run scaled-down versions
//! so the harness cannot rot.

use std::fmt::Write as _;

use dpll::KsatParams;
use pg_datagen::{inject, Defect, GraphGen, GraphGenParams};
use pg_reason::{check_object_type, ReasonerConfig, Satisfiability};
use pg_schema::{validate, PgSchema, ValidationOptions};

/// E1 — the §3.3 cardinality table, with measured verdicts.
pub fn cardinality_table() -> String {
    let mut out = String::from(
        "| rel is a | definition in A | fan-out (1 A → 2 Bs) | fan-in (2 As → 1 B) |\n\
         |---|---|---|---|\n",
    );
    let rows = [
        ("1:1", "rel: B @uniqueForTarget"),
        ("1:N", "rel: B"),
        ("N:1", "rel: [B] @uniqueForTarget"),
        ("N:M", "rel: [B]"),
    ];
    for (kind, def) in rows {
        let schema = PgSchema::parse(&format!("type A {{ {def} }}\ntype B {{ x: Int }}")).unwrap();
        let fan_out = pgraph::GraphBuilder::new()
            .node("a", "A")
            .node("b1", "B")
            .node("b2", "B")
            .edge("a", "b1", "rel")
            .edge("a", "b2", "rel")
            .build()
            .unwrap();
        let fan_in = pgraph::GraphBuilder::new()
            .node("a1", "A")
            .node("a2", "A")
            .node("b", "B")
            .edge("a1", "b", "rel")
            .edge("a2", "b", "rel")
            .build()
            .unwrap();
        let verdict = |g: &pgraph::PropertyGraph| {
            let r = validate(g, &schema, &ValidationOptions::default());
            if r.conforms() {
                "allowed".to_owned()
            } else {
                let rules: Vec<String> = r.counts().keys().map(|k| k.to_string()).collect();
                format!("rejected ({})", rules.join(", "))
            }
        };
        let _ = writeln!(
            out,
            "| {kind} | `{def}` | {} | {} |",
            verdict(&fan_out),
            verdict(&fan_in)
        );
    }
    out
}

/// E4a — the classic random 3-SAT phase transition, via the DPLL oracle.
pub fn phase_transition(num_vars: usize, instances: u64) -> String {
    let mut out =
        String::from("| clause/var ratio | SAT fraction | median decisions |\n|---|---|---|\n");
    for ratio10 in [10u32, 20, 30, 38, 43, 48, 60, 80] {
        let ratio = ratio10 as f64 / 10.0;
        let mut sat = 0u64;
        let mut decisions: Vec<u64> = Vec::new();
        for seed in 0..instances {
            let f = dpll::random_ksat(&KsatParams::three_sat(num_vars, ratio, seed));
            let (model, stats) = dpll::solve_with_stats(&f);
            if model.is_some() {
                sat += 1;
            }
            decisions.push(stats.decisions);
        }
        decisions.sort();
        let _ = writeln!(
            out,
            "| {ratio:.1} | {:.2} | {} |",
            sat as f64 / instances as f64,
            decisions[decisions.len() / 2]
        );
    }
    out
}

/// E4b — the Theorem 2 pipeline: does deciding each random 2-SAT
/// formula through the reduction (formula → SDL schema → finite model
/// search) agree with the DPLL oracle, as formula size grows?
pub fn reduction_scaling(var_counts: &[usize], ratio: f64, seeds: u64) -> String {
    let mut out = String::from("| vars | clauses | agree |\n|---|---|---|\n");
    for &n in var_counts {
        let clauses = (n as f64 * ratio).round() as usize;
        let agree = (0..seeds).all(|seed| {
            let f = dpll::random_ksat(&KsatParams {
                num_vars: n,
                num_clauses: clauses,
                k: 2,
                seed,
            });
            dpll::solve(&f).is_some() == pg_reason::reduction::decide_via_reduction(&f).is_some()
        });
        let _ = writeln!(
            out,
            "| {n} | {clauses} | {} |",
            if agree { "yes" } else { "NO" }
        );
    }
    out
}

/// E5 — tableau verdicts on required-chain schemas of growing depth.
pub fn reasoner_scaling(depths: &[usize]) -> String {
    let mut out = String::from("| chain depth | types | tableau verdict |\n|---|---|---|\n");
    for &d in depths {
        let mut sdl = String::new();
        for i in 0..d {
            let _ = writeln!(sdl, "type C{i} {{ next: C{} @required }}", i + 1);
        }
        let _ = writeln!(sdl, "type C{d} {{ x: Int }}");
        let schema = PgSchema::parse(&sdl).unwrap();
        let tbox = pg_reason::translate::translate(&schema);
        let outcome =
            pg_reason::tableau::check_concept_by_name(&tbox, "C0", &ReasonerConfig::default());
        let _ = writeln!(out, "| {d} | {} | {outcome:?} |", d + 1);
    }
    out
}

/// E6 — the §6.2 satisfiability verdicts (Example 6.1 / diagrams a–c).
pub fn satisfiability_verdicts() -> String {
    let cases: [(&str, &str, &str); 4] = [
        (
            "diagram (a) / Example 6.1",
            r#"
            type OT1 { }
            interface IT { hasOT1: [OT1] @uniqueForTarget }
            type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
            type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }
            "#,
            "OT1",
        ),
        (
            "diagram (b): infinite chain",
            r#"
            type OT1 { toOT3: [OT3] @required @uniqueForTarget }
            interface IT { toOT1: [OT1] @uniqueForTarget }
            type OT2 implements IT { toOT1: [OT1] @required }
            type OT3 implements IT { toOT1: [OT1] @required }
            "#,
            "OT2",
        ),
        (
            "diagram (c): forced coincidence",
            r#"
            type OT1 { }
            interface IT { f: [OT1] @uniqueForTarget }
            type OT2 implements IT { f: [OT1] @required }
            type OT3 implements IT { f: [OT1] @requiredForTarget }
            "#,
            "OT2",
        ),
        (
            "control (satisfiable)",
            r#"
            type Author { favoriteBook: Book }
            type Book { title: String! author: [Author] @required }
            "#,
            "Book",
        ),
    ];
    let mut out = String::from("| schema | queried type | verdict |\n|---|---|---|\n");
    for (name, sdl, ty) in cases {
        let schema = PgSchema::parse(sdl).unwrap();
        let verdict = match check_object_type(&schema, ty, &ReasonerConfig::default()) {
            Satisfiability::Satisfiable { size, .. } => {
                format!("satisfiable (witness: {size} nodes)")
            }
            Satisfiability::Unsatisfiable => "UNSATISFIABLE".to_owned(),
            Satisfiability::NoFiniteModelFound {
                bound,
                tableau_satisfiable,
            } => match tableau_satisfiable {
                Some(true) => format!("no finite model ≤ {bound}; infinite model exists"),
                _ => format!("no finite model ≤ {bound}; tableau inconclusive"),
            },
        };
        let _ = writeln!(out, "| {name} | {ty} | {verdict} |");
    }
    out
}

/// E10 — the defect-detection matrix. Defects are injected into the
/// social schema's graph where applicable, falling back to the library
/// schema (Examples 3.6 + 3.8) whose target-side directives give the
/// remaining defects a site.
pub fn detection_matrix() -> String {
    let fixtures: Vec<(&str, PgSchema)> = vec![
        (
            "social",
            PgSchema::parse(pg_datagen::schemagen::social_schema()).unwrap(),
        ),
        (
            "library",
            PgSchema::parse(pg_datagen::schemagen::library_schema()).unwrap(),
        ),
    ];
    let bases: Vec<pgraph::PropertyGraph> = fixtures
        .iter()
        .map(|(name, schema)| {
            GraphGen::new(
                schema,
                GraphGenParams {
                    nodes_per_type: 30,
                    ..Default::default()
                },
            )
            .generate_conforming(10)
            .unwrap_or_else(|| panic!("{name} schema generable"))
        })
        .collect();
    let mut out = String::from(
        "| injected defect | target rule | schema | detected | total violations |\n\
         |---|---|---|---|---|\n",
    );
    for defect in Defect::ALL {
        let mut placed = false;
        for ((name, schema), base) in fixtures.iter().zip(&bases) {
            let mut g = base.clone();
            if !inject(&mut g, schema, defect) {
                continue;
            }
            placed = true;
            let report = validate(&g, schema, &ValidationOptions::default());
            let caught = report.by_rule(defect.rule()).next().is_some();
            let _ = writeln!(
                out,
                "| {defect:?} | {} | {name} | {} | {} |",
                defect.rule(),
                if caught { "yes" } else { "MISSED" },
                report.len()
            );
            break;
        }
        if !placed {
            let _ = writeln!(
                out,
                "| {defect:?} | {} | — | n/a (no site) | — |",
                defect.rule()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinality_table_matches_paper() {
        let t = cardinality_table();
        assert!(
            t.contains("| 1:1 | `rel: B @uniqueForTarget` | rejected (WS4) | rejected (DS3) |"),
            "{t}"
        );
        assert!(
            t.contains("| N:M | `rel: [B]` | allowed | allowed |"),
            "{t}"
        );
    }

    #[test]
    fn phase_transition_smoke() {
        let t = phase_transition(10, 4);
        assert!(t.contains("| 4.3 |"), "{t}");
    }

    #[test]
    fn reduction_scaling_smoke() {
        let t = reduction_scaling(&[3, 4], 1.5, 2);
        let rows: Vec<&str> = t.lines().skip(2).collect();
        assert_eq!(rows.len(), 2, "{t}");
        for row in rows {
            let agree = row.split('|').nth(3).map(str::trim);
            assert_eq!(agree, Some("yes"), "oracle disagreement in {row:?}:\n{t}");
        }
    }

    #[test]
    fn reasoner_scaling_smoke() {
        let t = reasoner_scaling(&[1, 3]);
        assert!(t.contains("| 1 | 2 | Satisfiable |"), "{t}");
        assert!(t.contains("| 3 | 4 | Satisfiable |"), "{t}");
    }

    #[test]
    fn satisfiability_verdicts_match_section_6_2() {
        let t = satisfiability_verdicts();
        assert!(t.contains("| OT1 | UNSATISFIABLE |"), "{t}");
        assert!(t.contains("infinite model exists"), "{t}");
        assert!(t.contains("| Book | satisfiable"), "{t}");
    }

    #[test]
    fn detection_matrix_has_no_misses() {
        let t = detection_matrix();
        assert!(!t.contains("MISSED"), "{t}");
        assert!(t.contains("| yes |"), "{t}");
    }
}
