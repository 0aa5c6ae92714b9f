//! The naive validation engine.
//!
//! A direct transcription of the first-order formulas of Definitions
//! 5.1–5.3 — the paper's observation after Theorem 1 that "a
//! straightforward implementation of the first-order logical formulas
//! leads already to a tractable algorithm with time complexity O(n³)".
//! Every quantifier becomes a loop over `V` or `E`; no indexes are built,
//! and none are read — not even the graph's own incidence lists, so the
//! engines that do read them are checked against a reference that does
//! not. This engine is the reference against which the indexed engine is
//! property-tested, and the baseline of benchmark E2.

use pgraph::{PropertyGraph, Value};

use crate::metrics::MetricsRecorder;
use crate::pgschema::PgSchema;
use crate::report::{RuleFamily, ValidationReport, Violation};
use crate::ValidationOptions;

pub(crate) fn run(
    g: &PropertyGraph,
    s: &PgSchema,
    options: &ValidationOptions,
) -> ValidationReport {
    let mut r = ValidationReport::with_limit(options.max_violations);
    let mut rec = MetricsRecorder::new(options.collect_metrics, "naive", 1);
    let (nv, ne) = (g.node_count() as u64, g.edge_count() as u64);
    if options.weak {
        rec.family(RuleFamily::Weak, &mut r, |r| {
            ws1(g, s, r);
            ws2(g, s, r);
            ws3(g, s, r);
            ws4(g, s, r);
        });
        // Outer-loop passes: two over V (WS1, WS4), two over E (WS2, WS3).
        rec.scanned(2 * nv, 2 * ne);
    }
    if options.directives && !r.at_limit() {
        rec.family(RuleFamily::Directives, &mut r, |r| {
            ds1_ds2_ds3(g, s, r);
            ds4(g, s, r);
            ds5_ds6(g, s, r);
            ds7(g, s, r);
        });
        rec.scanned(3 * nv, ne);
    }
    if options.strong && !s.is_open_world() && !r.at_limit() {
        rec.family(RuleFamily::Strong, &mut r, |r| ss(g, s, r));
        rec.scanned(nv, ne);
    }
    rec.finish(&mut r);
    r
}

/// WS1: ∀(v,f) ∈ dom(σ): f ∈ fieldsS(λ(v)) ∧ typeF(λ(v),f) ∈ S∪WS
///      ⟹ σ(v,f) ∈ valuesW(typeF(λ(v),f)).
fn ws1(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for n in g.nodes() {
        if r.at_limit() {
            return;
        }
        for (prop, value) in n.properties() {
            if let Some(attr) = s.attribute(n.label(), prop) {
                if !s.schema().value_conforms(value, &attr.ty) {
                    r.push(Violation::NodePropertyType {
                        node: n.id,
                        field: prop.to_owned(),
                        value: value.to_string(),
                        expected: s.display_type(&attr.ty),
                    });
                }
            }
        }
    }
}

/// WS2: ∀(e,a) ∈ dom(σ) with ρ(e)=(v1,v2), f=(λ(v1),λ(e)), a ∈ argsS(f)
///      ⟹ σ(e,a) ∈ valuesW(typeAF(f,a)).
fn ws2(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for e in g.edges() {
        if r.at_limit() {
            return;
        }
        let Some(src_label) = g.node_label(e.source()) else {
            continue;
        };
        let Some(rel) = s.relationship(src_label, e.label()) else {
            continue;
        };
        for (prop, value) in e.properties() {
            if let Some(ep) = rel.edge_props.iter().find(|p| p.name == prop) {
                if !s.schema().value_conforms(value, &ep.ty) {
                    r.push(Violation::EdgePropertyType {
                        edge: e.id,
                        prop: prop.to_owned(),
                        value: value.to_string(),
                        expected: s.display_type(&ep.ty),
                    });
                }
            }
        }
    }
}

/// WS3: ∀e ∈ E with ρ(e)=(v1,v2), f=(λ(v1),λ(e)) ∈ dom(typeF)
///      ⟹ λ(v2) ⊑S basetype(typeF(f)).
///
/// Note this quantifies over *all* field definitions, including attribute
/// definitions — an edge labelled like a scalar field can never satisfy
/// the subtype condition and is reported here (and again by SS4).
fn ws3(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for e in g.edges() {
        if r.at_limit() {
            return;
        }
        let Some(src_label) = g.node_label(e.source()) else {
            continue;
        };
        let Some(src_ty) = s.label_type(src_label) else {
            continue;
        };
        let Some(field) = s.schema().field(src_ty, e.label()) else {
            continue;
        };
        let target_label = g.node_label(e.target()).unwrap_or("");
        if !s.label_subtype(target_label, field.ty.base) {
            r.push(Violation::EdgeTargetType {
                edge: e.id,
                target: e.target(),
                target_label: target_label.to_owned(),
                expected: s.schema().type_name(field.ty.base).to_owned(),
            });
        }
    }
}

/// WS4: ∀e1,e2 sharing source and label with a non-list field type
///      ⟹ e1 = e2. Transcribed as: for every node and declared non-list
///      field, count the outgoing edges with that label.
fn ws4(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for n in g.nodes() {
        if r.at_limit() {
            return;
        }
        let Some(t) = s.label_type(n.label()) else {
            continue;
        };
        for f in s.schema().fields(t) {
            if f.ty.is_list() {
                continue;
            }
            let count = g
                .edges()
                .filter(|e| e.source() == n.id && e.label() == f.name)
                .count();
            if count > 1 {
                r.push(Violation::NonListFieldMultiEdge {
                    source: n.id,
                    field: f.name.clone(),
                    count,
                });
            }
        }
    }
}

/// DS1 (@distinct), DS2 (@noLoops), DS3 (@uniqueForTarget) — the edge-pair
/// rules, transcribed with nested loops over E × E (DS1, DS3) and E (DS2).
///
/// DS3 in the paper literally reads "λ(v2) ⊑S typeS(t, f)" for the source
/// of the second edge; following Example 6.1's own reasoning ("at most one
/// incoming edge *from a node of type IT*") we read it as λ(v2) ⊑S t, the
/// evident intent.
fn ds1_ds2_ds3(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for site in s.constraint_sites() {
        if r.at_limit() {
            return;
        }
        let rel = &site.rel;
        if rel.distinct {
            for e1 in g.edges() {
                if r.at_limit() {
                    return;
                }
                if e1.label() != rel.name
                    || !s.label_subtype(g.node_label(e1.source()).unwrap_or(""), site.site)
                {
                    continue;
                }
                let count = g
                    .edges()
                    .filter(|e2| {
                        e2.label() == rel.name
                            && e2.source() == e1.source()
                            && e2.target() == e1.target()
                    })
                    .count();
                if count > 1 {
                    r.push(Violation::DistinctViolated {
                        source: e1.source(),
                        target: e1.target(),
                        field: rel.name.clone(),
                        count,
                    });
                }
            }
        }
        if rel.no_loops {
            for e in g.edges() {
                if e.label() == rel.name
                    && e.source() == e.target()
                    && s.label_subtype(g.node_label(e.source()).unwrap_or(""), site.site)
                {
                    r.push(Violation::LoopViolated {
                        node: e.source(),
                        field: rel.name.clone(),
                    });
                }
            }
        }
        if rel.unique_for_target {
            for e1 in g.edges() {
                if r.at_limit() {
                    return;
                }
                if e1.label() != rel.name
                    || !s.label_subtype(g.node_label(e1.source()).unwrap_or(""), site.site)
                {
                    continue;
                }
                let count = g
                    .edges()
                    .filter(|e2| {
                        e2.label() == rel.name
                            && e2.target() == e1.target()
                            && s.label_subtype(g.node_label(e2.source()).unwrap_or(""), site.site)
                    })
                    .count();
                if count > 1 {
                    r.push(Violation::UniqueForTargetViolated {
                        target: e1.target(),
                        field: rel.name.clone(),
                        count,
                    });
                }
            }
        }
    }
}

/// DS4 (@requiredForTarget): ∀v2 with λ(v2) ⊑S typeS(t,f):
///      ∃e = (v1,v2) with λ(v1) ⊑S t ∧ λ(e) = f.
fn ds4(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for site in s.constraint_sites() {
        let rel = &site.rel;
        if !rel.required_for_target {
            continue;
        }
        for n in g.nodes() {
            if r.at_limit() {
                return;
            }
            if !s.label_subtype_wrapped(n.label(), &rel.ty) {
                continue;
            }
            let has_incoming = g.edges().any(|e| {
                e.target() == n.id
                    && e.label() == rel.name
                    && s.label_subtype(g.node_label(e.source()).unwrap_or(""), site.site)
            });
            if !has_incoming {
                r.push(Violation::RequiredForTargetViolated {
                    target: n.id,
                    field: rel.name.clone(),
                    site: s.schema().type_name(site.site).to_owned(),
                });
            }
        }
    }
}

/// DS5 (@required on attributes) and DS6 (@required on relationships):
/// ∀v with λ(v) ⊑S t: the property exists (and is a nonempty list where
/// list-typed) / an outgoing edge with the field's label exists.
fn ds5_ds6(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    // Attribute sites: @required attribute fields of every type (incl.
    // interfaces, whose constraints reach implementing nodes via ⊑).
    for t in s
        .schema()
        .object_types()
        .chain(s.schema().interface_types())
        .collect::<Vec<_>>()
    {
        for attr in s.attributes(t) {
            if !attr.required {
                continue;
            }
            for n in g.nodes() {
                if r.at_limit() {
                    return;
                }
                if !s.label_subtype(n.label(), t) {
                    continue;
                }
                match n.property(&attr.name) {
                    None => r.push(Violation::RequiredPropertyMissing {
                        node: n.id,
                        field: attr.name.clone(),
                        empty_list: false,
                    }),
                    Some(Value::List(items)) if attr.ty.is_list() && items.is_empty() => {
                        r.push(Violation::RequiredPropertyMissing {
                            node: n.id,
                            field: attr.name.clone(),
                            empty_list: true,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }
    for site in s.constraint_sites() {
        let rel = &site.rel;
        if !rel.required {
            continue;
        }
        for n in g.nodes() {
            if r.at_limit() {
                return;
            }
            if !s.label_subtype(n.label(), site.site) {
                continue;
            }
            if !g
                .edges()
                .any(|e| e.source() == n.id && e.label() == rel.name)
            {
                r.push(Violation::RequiredEdgeMissing {
                    node: n.id,
                    field: rel.name.clone(),
                });
            }
        }
    }
}

/// DS7 (@key): two distinct nodes below the keyed type must differ on at
/// least one scalar key field (where "agree" includes both lacking it).
fn ds7(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for key in s.keys() {
        // Only scalar key fields participate (condition typeS(t, fi) ∈ S∪WS).
        let scalar_fields: Vec<&str> = key
            .fields
            .iter()
            .filter(|f| {
                s.schema()
                    .field(key.site, f)
                    .is_some_and(|fi| s.schema().is_scalar(fi.ty.base))
            })
            .map(String::as_str)
            .collect();
        let nodes: Vec<_> = g
            .nodes()
            .filter(|n| s.label_subtype(n.label(), key.site))
            .collect();
        for (i, a) in nodes.iter().enumerate() {
            if r.at_limit() {
                return;
            }
            for b in nodes.iter().skip(i + 1) {
                let agree = scalar_fields
                    .iter()
                    .all(|f| match (a.property(f), b.property(f)) {
                        (None, None) => true,
                        (Some(x), Some(y)) => x == y,
                        _ => false,
                    });
                if agree {
                    r.push(Violation::KeyViolated {
                        a: a.id,
                        b: b.id,
                        ty: s.schema().type_name(key.site).to_owned(),
                        fields: key.fields.clone(),
                    });
                }
            }
        }
    }
}

/// SS1–SS4: justification of nodes, node properties, edge properties and
/// edges.
fn ss(g: &PropertyGraph, s: &PgSchema, r: &mut ValidationReport) {
    for n in g.nodes() {
        if r.at_limit() {
            return;
        }
        // SS1: λ(v) ∈ OT.
        if !s.is_object_label(n.label()) {
            r.push(Violation::UnjustifiedNode {
                node: n.id,
                label: n.label().to_owned(),
            });
        }
        // SS2: every property is backed by an attribute definition.
        for (prop, _) in n.properties() {
            if s.attribute(n.label(), prop).is_none() {
                r.push(Violation::UnjustifiedNodeProperty {
                    node: n.id,
                    prop: prop.to_owned(),
                });
            }
        }
    }
    for e in g.edges() {
        if r.at_limit() {
            return;
        }
        let src_label = g.node_label(e.source()).unwrap_or("");
        let rel = s.relationship(src_label, e.label());
        // SS4: the edge label must be a relationship field of the source's
        // type.
        if rel.is_none() {
            r.push(Violation::UnjustifiedEdge {
                edge: e.id,
                label: e.label().to_owned(),
                source_label: src_label.to_owned(),
            });
        }
        // SS3: every edge property is backed by a scalar-based argument.
        for (prop, _) in e.properties() {
            let justified = rel.is_some_and(|rd| rd.edge_props.iter().any(|p| p.name == prop));
            if !justified {
                r.push(Violation::UnjustifiedEdgeProperty {
                    edge: e.id,
                    prop: prop.to_owned(),
                });
            }
        }
    }
}
