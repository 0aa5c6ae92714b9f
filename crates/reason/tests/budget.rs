//! The reasoner's one step budget: a finite search that cannot finish
//! stops at the largest size it refuted, and the tableau keeps its open
//! choice points on the heap, so a small stack holds any search.

use pg_reason::concept::{Concept, TBox};
use pg_reason::tableau::{check_concept, check_concept_by_name, TableauOutcome};
use pg_reason::{check_object_type, finite, translate, ReasonerConfig, Satisfiability};
use pg_schema::PgSchema;

/// Every `N` has exactly one `next` into `N`, no `N` receives two, and
/// `Root` points into `N` too: a pigeonhole CNF at every size.
const CHAIN: &str = "interface I { next: N @required @uniqueForTarget }
type Root implements I { next: N @required @uniqueForTarget }
type N implements I { next: N @required @uniqueForTarget }";

#[test]
fn the_size_loop_is_paid_for() {
    let config = ReasonerConfig {
        max_graph_size: 1_000_000,
        ..ReasonerConfig::default()
    };
    let chain = PgSchema::parse(CHAIN).unwrap();
    match check_object_type(&chain, "Root", &config) {
        Satisfiability::NoFiniteModelFound {
            bound,
            tableau_satisfiable,
        } => {
            assert!((8..1_000_000).contains(&bound), "bound {bound}");
            assert_eq!(tableau_satisfiable, Some(true));
        }
        other => panic!("expected no finite model, got {other:?}"),
    }
    // Diagram (a) is refuted at every size after few conflicts, so it is
    // the `k²` charge for each size that ends its size loop: before size
    // 45, since 1² + … + 45² exceeds the default 30 000 steps.
    let diagram_a = PgSchema::parse(
        "type OT1 { }
         interface IT { hasOT1: [OT1] @uniqueForTarget }
         type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
         type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }",
    )
    .unwrap();
    let bound = finite::search(&diagram_a, "OT1", &config).unwrap_err();
    assert!((8..45).contains(&bound), "bound {bound}");
}

#[test]
fn a_wide_schema_keeps_its_witness() {
    // Twenty object types, twenty relationship fields, and a required
    // chain `T0 → … → T5`, so `T0`'s smallest witness has six nodes. The
    // size charge does not grow with the schema: charging every clause
    // built would spend the whole budget before size 6.
    let mut sdl = String::new();
    for i in 0..5 {
        sdl.push_str(&format!("type T{i} {{ f{i}: T{} @required }}\n", i + 1));
    }
    for i in 5..20 {
        sdl.push_str(&format!("type T{i} {{ f{i}: [T0] }}\n"));
    }
    let wide = PgSchema::parse(&sdl).unwrap();
    match check_object_type(&wide, "T0", &ReasonerConfig::default()) {
        Satisfiability::Satisfiable { size, .. } => assert_eq!(size, 6),
        other => panic!("expected a six-node witness, got {other:?}"),
    }
}

#[test]
fn the_tableau_runs_on_a_small_stack() {
    // E5's depth-12 required chain: a wide search that outgrows the budget.
    let mut sdl = String::new();
    for i in 0..12 {
        sdl.push_str(&format!("type C{i} {{ next: C{} @required }}\n", i + 1));
    }
    sdl.push_str("type C12 { x: Int }\n");
    let chain = translate::translate(&PgSchema::parse(&sdl).unwrap());
    // 2 000 independent disjunctions on one node: a deep search, one open
    // choice point per disjunction, which a recursive search cannot hold
    // in 256 KiB.
    let mut deep = TBox::new();
    let root = deep.concept("Root");
    for i in 0..2000 {
        let either = Concept::Or(vec![
            deep.concept(&format!("A{i}")),
            deep.concept(&format!("B{i}")),
        ]);
        deep.add_subsumption(Concept::Top, either);
    }
    let (wide, deep) = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let config = ReasonerConfig::default();
            let wide = check_concept_by_name(&chain, "C0", &config);
            (wide, check_concept(&deep, &root, &config))
        })
        .unwrap()
        .join()
        .unwrap();
    assert_eq!(wide, TableauOutcome::ResourceLimit);
    assert_eq!(deep, TableauOutcome::Satisfiable);
}
