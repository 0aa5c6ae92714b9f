//! Bounded finite-model search.
//!
//! The paper's satisfiability notion quantifies over Property Graphs,
//! which are finite. [`find_model`] decides, for a given size `k`, whether
//! a strongly-satisfying graph with exactly `k` nodes and a node of the
//! queried type exists — by encoding the question propositionally and
//! handing it to the `dpll` solver — and, if so, **constructs the
//! witness**. [`search`] tries sizes `1, 2, …` in turn under one step
//! budget — `k²` steps for size `k` and a step per CDCL conflict — so a
//! schema whose CNF is hard at every size (a pigeonhole formula) still
//! ends in bounded time. Every encoding carries the symmetry-breaking
//! clauses (non-decreasing type indices over the interchangeable nodes
//! `1..k`); without them a refutation must rule out all `k!` renamings
//! of each candidate graph.
//!
//! The encoding covers exactly the rules that constrain graph *structure*:
//! SS1/SS4 (typed nodes, justified edges), WS3 (target types), WS4
//! (non-list cardinality), DS2 (`@noLoops`), DS3 (`@uniqueForTarget`),
//! DS4 (`@requiredForTarget`), DS6 (required edges). The remaining rules
//! never affect satisfiability (paper, proof of Theorem 3): `@distinct`
//! holds in any simple graph (and any multigraph model can be collapsed
//! to a simple one), and all property rules (WS1/WS2/DS5/DS7/SS2/SS3) are
//! satisfied by the witness builder, which fills required properties with
//! fresh values — mirroring the paper's assumption that scalar value
//! spaces are infinite. (For *finite* value spaces — `Boolean`, enums —
//! keyed types with more nodes than values are a documented corner the
//! builder cannot fix; the built witness is validated by callers in
//! tests.)

use std::collections::{BTreeMap, BTreeSet};

use dpll::{Budget, Cnf, Lit, OutOfSteps};
use gql_schema::{BuiltinScalar, ScalarInfo, TypeId, WrappedType};
use pg_schema::PgSchema;
use pgraph::{PropertyGraph, Value};

use crate::ReasonerConfig;

/// Searches for a strongly-satisfying Property Graph with exactly `k`
/// nodes containing at least one node labelled `ot_name`.
pub fn find_model(schema: &PgSchema, ot_name: &str, k: usize) -> Option<PropertyGraph> {
    // `u64::MAX` steps do not run out, so this is the complete answer.
    let mut unbounded = Budget::new(u64::MAX);
    model_of_size(schema, ot_name, k, &mut unbounded)
        .ok()
        .flatten()
}

/// Searches sizes `1..=config.max_graph_size` in turn for a witness of
/// `ot_name`, spending at most `config.max_steps` steps. `Err(bound)` when
/// none is found, where `bound` is the largest size fully refuted: the
/// maximum, or less when the budget ran out first.
pub fn search(
    schema: &PgSchema,
    ot_name: &str,
    config: &ReasonerConfig,
) -> Result<PropertyGraph, usize> {
    let mut budget = Budget::new(config.max_steps);
    for k in 1..=config.max_graph_size {
        match model_of_size(schema, ot_name, k, &mut budget) {
            Ok(Some(witness)) => return Ok(witness),
            Ok(None) => {}
            Err(OutOfSteps) => return Err(k - 1),
        }
    }
    Err(config.max_graph_size)
}

/// A witness with exactly `k` nodes, if one exists, paid for from
/// `budget`: `k²` steps for the size, one per ordered pair of its nodes,
/// then one per CDCL conflict.
///
/// The size is charged by node pairs, not by clauses: the encoding has
/// about `|object types| · |fields| · k²` clauses, so charging those would
/// let a wide schema's encoding use up the allowance meant for conflicts.
/// `k²` alone ends the size loop whatever the width: `1² + … + 45²`
/// exceeds the default 30 000.
fn model_of_size(
    schema: &PgSchema,
    ot_name: &str,
    k: usize,
    budget: &mut Budget,
) -> Result<Option<PropertyGraph>, OutOfSteps> {
    budget.spend((k as u64).saturating_mul(k as u64))?;
    let Some(enc) = Encoding::build(schema, ot_name, k) else {
        return Ok(None);
    };
    // CDCL is the production solver; the plain DPLL baseline is the
    // oracle it is cross-checked against (`dpll::cdcl` tests).
    let model = dpll::solve_cdcl(&enc.cnf, budget)?;
    Ok(model.map(|model| enc.decode(schema, &model)))
}

struct Encoding {
    cnf: Cnf,
    k: usize,
    object_types: Vec<TypeId>,
    field_names: Vec<String>,
    /// var(type) = v * |OT| + t
    type_base: usize,
    /// var(edge) = edge_base + ((v * k) + w) * |F| + f
    edge_base: usize,
}

impl Encoding {
    fn type_var(&self, v: usize, t: usize) -> usize {
        self.type_base + v * self.object_types.len() + t
    }

    fn edge_var(&self, v: usize, f: usize, w: usize) -> usize {
        self.edge_base + (v * self.k + w) * self.field_names.len() + f
    }

    /// The encoding of size `k`, or `None` if `ot_name` names no object
    /// type.
    fn build(schema: &PgSchema, ot_name: &str, k: usize) -> Option<Encoding> {
        let s = schema.schema();
        let queried = schema.label_type(ot_name)?;
        if !s.is_object(queried) {
            return None;
        }
        let object_types: Vec<TypeId> = s.object_types().collect();
        let owners: Vec<TypeId> = s.object_types().chain(s.interface_types()).collect();
        let mut field_set: BTreeSet<String> = BTreeSet::new();
        for &t in &owners {
            for rel in schema.relationships(t) {
                field_set.insert(rel.name.clone());
            }
        }
        let field_names: Vec<String> = field_set.into_iter().collect();
        let field_ix: BTreeMap<&str, usize> = field_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();

        let n_ot = object_types.len();
        let n_f = field_names.len().max(1);
        let type_base = 0;
        let edge_base = k * n_ot;
        let base_vars = edge_base + k * k * field_names.len();

        // Auxiliary vars for `edge(v,f,w) ∧ source-below-site`, one block
        // per constraint site needing them (DS3/DS4).
        let mut next_var = base_vars;
        let mut enc = Encoding {
            cnf: Cnf::new(base_vars),
            k,
            object_types: object_types.clone(),
            field_names: field_names.clone(),
            type_base,
            edge_base,
        };
        let mut clauses: Vec<Vec<Lit>> = Vec::new();

        // Each node has exactly one object type.
        for v in 0..k {
            clauses.push((0..n_ot).map(|t| Lit::pos(enc.type_var(v, t))).collect());
            for t1 in 0..n_ot {
                for t2 in (t1 + 1)..n_ot {
                    clauses.push(vec![
                        Lit::neg(enc.type_var(v, t1)),
                        Lit::neg(enc.type_var(v, t2)),
                    ]);
                }
            }
        }
        // Node 0 is the queried type.
        let queried_ix = object_types.iter().position(|&t| t == queried)?;
        clauses.push(vec![Lit::pos(enc.type_var(0, queried_ix))]);

        // Symmetry breaking: nodes 1..k are interchangeable, so demand
        // non-decreasing type indices — any model can be permuted into
        // this form. Collapses the k! node-renaming symmetry that
        // otherwise drowns DPLL on UNSAT instances.
        for v in 1..k.saturating_sub(1) {
            for t1 in 0..n_ot {
                for t2 in 0..t1 {
                    clauses.push(vec![
                        Lit::neg(enc.type_var(v, t1)),
                        Lit::neg(enc.type_var(v + 1, t2)),
                    ]);
                }
            }
        }

        // Per-object-type relationship constraints.
        // Precompute, per (object type, field): Some(rel) if declared.
        let rel_of = |t: TypeId, f: &str| schema.relationships(t).iter().find(|r| r.name == f);

        for (t_ix, &t) in object_types.iter().enumerate() {
            for (f_ix, f) in field_names.iter().enumerate() {
                match rel_of(t, f) {
                    None => {
                        // SS4: a t-node has no f-edges.
                        for v in 0..k {
                            for w in 0..k {
                                clauses.push(vec![
                                    Lit::neg(enc.type_var(v, t_ix)),
                                    Lit::neg(enc.edge_var(v, f_ix, w)),
                                ]);
                            }
                        }
                    }
                    Some(rel) => {
                        // WS3: targets are below basetype.
                        let target_ok: Vec<usize> = object_types
                            .iter()
                            .enumerate()
                            .filter(|(_, &ot2)| {
                                gql_schema::subtype::named_subtype(s, ot2, rel.target_base)
                            })
                            .map(|(i, _)| i)
                            .collect();
                        for v in 0..k {
                            for w in 0..k {
                                let mut c = vec![
                                    Lit::neg(enc.type_var(v, t_ix)),
                                    Lit::neg(enc.edge_var(v, f_ix, w)),
                                ];
                                c.extend(
                                    target_ok
                                        .iter()
                                        .map(|&s_ix| Lit::pos(enc.type_var(w, s_ix))),
                                );
                                clauses.push(c);
                            }
                        }
                        // WS4: non-list → at most one f-edge.
                        if !rel.multi {
                            for v in 0..k {
                                for w1 in 0..k {
                                    for w2 in (w1 + 1)..k {
                                        clauses.push(vec![
                                            Lit::neg(enc.type_var(v, t_ix)),
                                            Lit::neg(enc.edge_var(v, f_ix, w1)),
                                            Lit::neg(enc.edge_var(v, f_ix, w2)),
                                        ]);
                                    }
                                }
                            }
                        }
                        // DS6: required → at least one f-edge.
                        if rel.required {
                            for v in 0..k {
                                let mut c = vec![Lit::neg(enc.type_var(v, t_ix))];
                                c.extend((0..k).map(|w| Lit::pos(enc.edge_var(v, f_ix, w))));
                                clauses.push(c);
                            }
                        }
                    }
                }
            }
        }

        // Constraint sites (DS2, DS3, DS4) — sources range over object
        // types below the site type.
        for site in schema.constraint_sites() {
            let rel = &site.rel;
            let Some(&f_ix) = field_ix.get(rel.name.as_str()) else {
                continue;
            };
            let below_site: Vec<usize> = object_types
                .iter()
                .enumerate()
                .filter(|(_, &ot2)| gql_schema::subtype::named_subtype(s, ot2, site.site))
                .map(|(i, _)| i)
                .collect();
            if rel.no_loops {
                for v in 0..k {
                    for &t_ix in &below_site {
                        clauses.push(vec![
                            Lit::neg(enc.type_var(v, t_ix)),
                            Lit::neg(enc.edge_var(v, f_ix, v)),
                        ]);
                    }
                }
            }
            if rel.unique_for_target || rel.required_for_target {
                // aux(v, w) ↔ edge(v, f, w) ∧ type(v) ⊑ site.
                let aux_base = next_var;
                next_var += k * k;
                let aux = |v: usize, w: usize| aux_base + v * k + w;
                for v in 0..k {
                    for w in 0..k {
                        // aux → edge
                        clauses.push(vec![
                            Lit::neg(aux(v, w)),
                            Lit::pos(enc.edge_var(v, f_ix, w)),
                        ]);
                        // aux → ⋁ type(v) below site
                        let mut c = vec![Lit::neg(aux(v, w))];
                        c.extend(below_site.iter().map(|&t| Lit::pos(enc.type_var(v, t))));
                        clauses.push(c);
                        // edge ∧ type → aux
                        for &t in &below_site {
                            clauses.push(vec![
                                Lit::neg(enc.edge_var(v, f_ix, w)),
                                Lit::neg(enc.type_var(v, t)),
                                Lit::pos(aux(v, w)),
                            ]);
                        }
                    }
                }
                // Targets below the field type.
                let target_below: Vec<usize> = object_types
                    .iter()
                    .enumerate()
                    .filter(|(_, &ot2)| {
                        gql_schema::subtype::wrapped_subtype(s, &WrappedType::bare(ot2), &rel.ty)
                    })
                    .map(|(i, _)| i)
                    .collect();
                if rel.unique_for_target {
                    for w in 0..k {
                        for v1 in 0..k {
                            for v2 in (v1 + 1)..k {
                                clauses.push(vec![Lit::neg(aux(v1, w)), Lit::neg(aux(v2, w))]);
                            }
                        }
                    }
                }
                if rel.required_for_target {
                    for w in 0..k {
                        for &s_ix in &target_below {
                            let mut c = vec![Lit::neg(enc.type_var(w, s_ix))];
                            c.extend((0..k).map(|v| Lit::pos(aux(v, w))));
                            clauses.push(c);
                        }
                    }
                }
            }
        }

        // Rebuild the CNF with the final variable count.
        let mut cnf = Cnf::new(next_var.max(base_vars).max(k * n_ot + k * k * n_f));
        for c in clauses {
            cnf.add_clause(c);
        }
        enc.cnf = cnf;
        Some(enc)
    }

    /// Decodes a propositional model into a Property Graph and fills the
    /// property-level obligations (DS5 required properties, DS7 keys,
    /// §3.5 mandatory edge properties) with fresh conforming values.
    fn decode(&self, schema: &PgSchema, model: &[bool]) -> PropertyGraph {
        let s = schema.schema();
        let mut g = PropertyGraph::with_capacity(self.k, self.k * self.field_names.len());
        let mut node_ids = Vec::with_capacity(self.k);
        let mut uniq = 0usize;
        let mut node_types = Vec::with_capacity(self.k);
        for v in 0..self.k {
            // The CNF gives every node a type and `model` satisfies it.
            let t_ix = (0..self.object_types.len())
                .find(|&t| model[self.type_var(v, t)])
                .expect("exactly-one-type clause");
            let t = self.object_types[t_ix];
            node_types.push(t);
            let id = g.add_node(s.type_name(t).to_owned());
            node_ids.push(id);
            // Fill required attributes — from every supertype site.
            for owner in s.object_types().chain(s.interface_types()) {
                if !gql_schema::subtype::named_subtype(s, t, owner) {
                    continue;
                }
                for attr in schema.attributes(owner) {
                    if !attr.required {
                        continue;
                    }
                    // Generate against the node's own field type (WS1
                    // checks against λ(v)'s declaration).
                    let ty = schema
                        .attribute(s.type_name(t), &attr.name)
                        .map(|a| a.ty)
                        .unwrap_or(attr.ty);
                    uniq += 1;
                    g.set_node_property(id, attr.name.clone(), fresh_value(s, &ty, uniq));
                }
            }
            // Fill key fields (unique per node) — sites whose type covers t.
            for key in schema.keys() {
                if !gql_schema::subtype::named_subtype(s, t, key.site) {
                    continue;
                }
                for fname in &key.fields {
                    if g.node_property(id, fname).is_some() {
                        // Already set as a required attribute; overwrite
                        // with a fresh (still unique) value is fine, skip.
                        continue;
                    }
                    if let Some(attr) = schema.attribute(s.type_name(t), fname) {
                        uniq += 1;
                        g.set_node_property(id, fname.clone(), fresh_value(s, &attr.ty, uniq));
                    }
                }
            }
        }
        for v in 0..self.k {
            let src_label = s.type_name(node_types[v]);
            for (f_ix, f) in self.field_names.iter().enumerate() {
                for w in 0..self.k {
                    if !model[self.edge_var(v, f_ix, w)] {
                        continue;
                    }
                    // Both endpoints were added by the loop above.
                    let e = g
                        .add_edge(node_ids[v], node_ids[w], f.clone())
                        .expect("nodes exist");
                    // Mandatory edge properties (§3.5).
                    if let Some(rel) = schema.relationship(src_label, f) {
                        for ep in &rel.edge_props {
                            if ep.mandatory {
                                uniq += 1;
                                g.set_edge_property(
                                    e,
                                    ep.name.clone(),
                                    fresh_value(s, &ep.ty, uniq),
                                );
                            }
                        }
                    }
                }
            }
        }
        g
    }
}

/// Generates a fresh value conforming to `valuesW(ty)` (non-null), using
/// `n` as a uniqueness seed. For list types a singleton list is produced.
fn fresh_value(s: &gql_schema::Schema, ty: &WrappedType, n: usize) -> Value {
    let scalar = scalar_seed(s, ty.base, n);
    if ty.is_list() {
        Value::List(vec![scalar])
    } else {
        scalar
    }
}

fn scalar_seed(s: &gql_schema::Schema, base: TypeId, n: usize) -> Value {
    match s.scalar_info(base) {
        Some(ScalarInfo::Builtin(b)) => match b {
            BuiltinScalar::Int => Value::Int((n as i64) % (i32::MAX as i64)),
            BuiltinScalar::Float => Value::Float(n as f64),
            BuiltinScalar::String => Value::String(format!("v{n}")),
            // Finite value space — uniqueness impossible beyond 2 nodes;
            // mirrors the paper's infinite-value-space assumption.
            BuiltinScalar::Boolean => Value::Bool(n.is_multiple_of(2)),
            BuiltinScalar::Id => Value::Id(format!("id{n}")),
        },
        Some(ScalarInfo::Enum(symbols)) => symbols
            .get(n % symbols.len().max(1))
            .map(|sym| Value::Enum(sym.clone()))
            .unwrap_or(Value::Null),
        Some(ScalarInfo::Custom) => Value::String(format!("custom{n}")),
        None => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_schema::strongly_satisfies;

    fn pg(src: &str) -> PgSchema {
        PgSchema::parse(src).unwrap()
    }

    fn assert_witness(schema: &PgSchema, ty: &str, k: usize) -> PropertyGraph {
        let g =
            find_model(schema, ty, k).unwrap_or_else(|| panic!("no model of size {k} for {ty}"));
        assert!(
            strongly_satisfies(&g, schema),
            "witness does not strongly satisfy:\n{}",
            pg_schema::validate(&g, schema, &Default::default())
        );
        assert!(g.nodes().any(|n| n.label() == ty));
        g
    }

    #[test]
    fn single_free_type_has_singleton_model() {
        let s = pg("type A { x: Int }");
        let g = assert_witness(&s, "A", 1);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn required_properties_are_filled() {
        let s = pg(
            r#"type A @key(fields: ["k"]) { x: Int! @required k: String! tags: [String!]! @required }"#,
        );
        let g = assert_witness(&s, "A", 1);
        let n = g.nodes().next().unwrap();
        assert!(n.property("x").is_some());
        assert!(matches!(n.property("tags"), Some(Value::List(items)) if !items.is_empty()));
    }

    #[test]
    fn required_edge_forces_second_node_or_loop() {
        let s = pg(r#"
            type A { toB: B @required }
            type B { x: Int }
            "#);
        assert!(find_model(&s, "A", 1).is_none()); // a lone A can't point at a B
        let g = assert_witness(&s, "A", 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_referential_type_can_loop_unless_noloops() {
        let s = pg("type A { next: A @required }");
        let g = assert_witness(&s, "A", 1);
        assert_eq!(g.edge_count(), 1); // self-loop
        let s = pg("type A { next: [A] @required @noloops }");
        assert!(find_model(&s, "A", 1).is_none());
        assert_witness(&s, "A", 2); // two nodes pointing at each other
    }

    #[test]
    fn mandatory_edge_properties_are_filled() {
        let s = pg(r#"
            type A { toB(w: Float! note: String): B @required }
            type B { x: Int }
            "#);
        let g = assert_witness(&s, "A", 2);
        let e = g.edges().next().unwrap();
        assert!(e.property("w").is_some());
        assert!(e.property("note").is_none());
    }

    #[test]
    fn required_for_target_needs_a_source() {
        let s = pg(r#"
            type Publisher { published: [Book] @requiredForTarget }
            type Book { title: String! @required }
            "#);
        // A Book alone is impossible; Book + Publisher works.
        assert!(find_model(&s, "Book", 1).is_none());
        assert_witness(&s, "Book", 2);
        // A Publisher alone is fine (no Books to constrain).
        assert_witness(&s, "Publisher", 1);
    }

    #[test]
    fn unique_for_target_limits_incoming() {
        // Diagram (a) / Example 6.1 (consistent variant): OT1 needs
        // incoming from both OT2 and OT3, but ≤1 incoming from IT nodes.
        let s = pg(r#"
            type OT1 { }
            interface IT { hasOT1: [OT1] @uniqueForTarget }
            type OT2 implements IT { hasOT1: [OT1] @requiredForTarget }
            type OT3 implements IT { hasOT1: [OT1] @requiredForTarget }
            "#);
        for k in 1..=5 {
            assert!(find_model(&s, "OT1", k).is_none(), "OT1 sat at size {k}?");
        }
        // OT2 alone is satisfiable (no OT1 node to constrain).
        assert_witness(&s, "OT2", 1);
    }

    #[test]
    fn non_list_cardinality_is_enforced() {
        // A must point at B, C requires incoming from A… but A's field is
        // non-list so one A cannot serve two different targets; sat needs
        // one A per B.
        let s = pg(r#"
            type A { toB: B @required }
            type B { x: Int }
            "#);
        let g = assert_witness(&s, "A", 2);
        let a_nodes: Vec<_> = g.nodes().filter(|n| n.label() == "A").collect();
        for a in a_nodes {
            assert!(g.out_edges(a.id).count() <= 1);
        }
    }

    #[test]
    fn queried_type_must_be_an_object_type() {
        let s = pg("interface I { x: Int } type A implements I { x: Int }");
        assert!(find_model(&s, "I", 1).is_none());
        assert!(find_model(&s, "Ghost", 1).is_none());
        assert!(find_model(&s, "Int", 1).is_none());
    }

    #[test]
    fn union_targets_work() {
        let s = pg(r#"
            type Person { favoriteFood: Food @required }
            union Food = Pizza | Pasta
            type Pizza { n: Int }
            type Pasta { n: Int }
            "#);
        let g = assert_witness(&s, "Person", 2);
        let food = g
            .edges()
            .next()
            .map(|e| g.node_label(e.target()).unwrap().to_owned())
            .unwrap();
        assert!(food == "Pizza" || food == "Pasta");
    }
}
