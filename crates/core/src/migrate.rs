//! Live schema migration: impact analysis over the dirty region.
//!
//! [`plan`] answers "what would migrating this graph from schema `old`
//! to schema `new` do?" *without* a full revalidation. The insight is
//! the same rule-dependency analysis the incremental engine applies to
//! graph deltas, turned around for *schema* deltas: a
//! [`SchemaChange`] can only flip a rule's truth at anchors whose
//! inputs mention the changed declaration. Concretely:
//!
//! * a change naming type `T` affects nodes whose label is `⊑ T` (in
//!   either schema — removal is judged by the old subtype relation,
//!   addition by the new one) and, through the edge rules, the edges
//!   incident to them;
//! * a change to a relationship field additionally affects nodes below
//!   the field's *target* base type: DS3 and DS4 anchor violations at
//!   the target — and a DS4 violation sits at a target with *no*
//!   incoming edge of the label, unreachable by edge traversal from the
//!   source side;
//! * a closed-/open-world flip switches the strong family on or off for
//!   every element, so it affects every label; each side of the plan
//!   (and of the window) then runs under its own schema's mode;
//! * `@key` constraints group nodes across the whole site, so the
//!   affected label set is closed under key sites: if any affected
//!   label sits below a key's site, every label below that site joins
//!   the region (to a fixpoint, since joining can reach further keys).
//!   This is what makes running DS7 `Ds7Plan::Inline` over the region's
//!   scope sound — every key group that intersects the region is
//!   entirely inside it.
//!
//! The dirty region `D` (nodes with affected labels) ∪ `L` (incident
//! edges) is then frozen into a small columnar graph of its own (the
//! crate-private `rules::region::RegionCols`, assembled by the same
//! `pgraph::ColumnsBuilder` as every full pass) and validated twice
//! through the shared rule kernels — once per schema — and the multiset
//! difference of the two runs is the plan's violation preview: exact for
//! this graph, at a cost proportional to the region instead of the graph
//! (experiment E4m).
//!
//! The same region machinery seeds the incremental engine's dual-schema
//! window ([`IncrementalEngine::begin_migration`]): the candidate
//! side's violation set is `(old violations − region-anchored) ∪
//! (region run under the candidate)`, because outside the region the
//! two schemas decide every rule identically.
//!
//! [`IncrementalEngine::begin_migration`]: crate::IncrementalEngine::begin_migration

use std::collections::BTreeSet;
use std::fmt;

use pgraph::{EdgeId, NodeId, PropertyGraph};

use crate::diff::{self, Compat, SchemaChange};
use crate::pgschema::PgSchema;
use crate::report::{self, ReportEntry, ValidationReport, Violation};
use crate::rules::region::RegionCols;
use crate::rules::{self, Ds7Plan, Scope, Sink};
use crate::ValidationOptions;

/// One schema change with the node labels it can affect in this graph.
#[derive(Debug, Clone)]
pub struct ChangeImpact {
    /// The change, as reported by [`diff::diff`].
    pub change: SchemaChange,
    /// Labels present in the graph whose nodes the change can newly
    /// violate (or newly justify), sorted.
    pub affected_labels: Vec<String>,
}

/// The result of [`plan`]: per-change impact, the dirty region's size,
/// and an exact violation preview for this graph.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Every change with its affected labels, diff order.
    pub changes: Vec<ChangeImpact>,
    /// Nodes in the dirty region (affected labels, after key closure).
    pub dirty_nodes: usize,
    /// Live edges incident to the dirty region.
    pub dirty_edges: usize,
    /// `|V| + |E|` of the graph, for comparison.
    pub elements_total: usize,
    /// Violations the new schema introduces on this graph, canonical
    /// order.
    pub added: Vec<Violation>,
    /// Violations of the old schema that the new schema resolves,
    /// canonical order.
    pub removed: Vec<Violation>,
}

impl MigrationPlan {
    /// True iff migrating introduces no violation *on this graph* —
    /// stronger than the diff's static verdict (a statically breaking
    /// change is compatible with an instance that has no affected data).
    pub fn compatible(&self) -> bool {
        self.added.is_empty()
    }

    /// Renders the plan as a JSON document, following the report JSON
    /// conventions (`pgschema migrate plan --json`, the server's
    /// `action=plan` response).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"compatible\": {}, \"dirty_nodes\": {}, \"dirty_edges\": {}, \
             \"elements_total\": {}, \"changes\": [",
            self.compatible(),
            self.dirty_nodes,
            self.dirty_edges,
            self.elements_total
        );
        for (i, c) in self.changes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let compat = match c.change.compat() {
                Compat::Compatible => "compatible",
                Compat::Breaking => "breaking",
            };
            out.push_str("{\"change\": \"");
            pgraph::json::escape_into(&mut out, &c.change.describe());
            out.push_str(&format!(
                "\", \"compat\": \"{compat}\", \"affected_labels\": ["
            ));
            for (j, l) in c.affected_labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                pgraph::json::escape_into(&mut out, l);
                out.push('"');
            }
            out.push_str("]}");
        }
        out.push_str("], \"violations_added\": [");
        for (i, v) in self.added.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            report::write_violation_json(&mut out, v);
        }
        out.push_str("], \"violations_removed\": [");
        for (i, v) in self.removed.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            report::write_violation_json(&mut out, v);
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for MigrationPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.changes.is_empty() {
            writeln!(f, "schemas are equivalent; nothing to migrate")?;
            return Ok(());
        }
        writeln!(f, "{} change(s):", self.changes.len())?;
        for c in &self.changes {
            write!(f, "  {}", c.change)?;
            if c.affected_labels.is_empty() {
                writeln!(f, " — no nodes affected")?;
            } else {
                writeln!(f, " — affects label(s): {}", c.affected_labels.join(", "))?;
            }
        }
        writeln!(
            f,
            "region: {} node(s) + {} incident edge(s) of {} element(s)",
            self.dirty_nodes, self.dirty_edges, self.elements_total
        )?;
        for v in &self.added {
            writeln!(f, "  + {v}")?;
        }
        for v in &self.removed {
            writeln!(f, "  - {v}")?;
        }
        if self.compatible() {
            writeln!(
                f,
                "verdict: compatible — no new violations on this graph \
                 ({} resolved)",
                self.removed.len()
            )?;
        } else {
            writeln!(
                f,
                "verdict: BREAKING — {} new violation(s) on this graph",
                self.added.len()
            )?;
        }
        Ok(())
    }
}

/// The dirty region a schema diff maps to: nodes with affected labels
/// and the live edges incident to them.
pub(crate) struct Region {
    /// Nodes whose label is in the affected set.
    pub(crate) nodes: BTreeSet<NodeId>,
    /// Live edges with at least one endpoint in `nodes`.
    pub(crate) edges: BTreeSet<EdgeId>,
}

/// The distinct node labels present in the graph.
pub(crate) fn graph_labels(g: &PropertyGraph) -> BTreeSet<String> {
    g.nodes().map(|n| n.label().to_owned()).collect()
}

/// The named type a change hangs off; `None` for a closed-/open-world
/// flip, which hangs off every type at once.
fn change_type(c: &SchemaChange) -> Option<&str> {
    Some(match c {
        SchemaChange::WorldChanged { .. } => return None,
        SchemaChange::TypeAdded { name } | SchemaChange::TypeRemoved { name } => name,
        SchemaChange::FieldAdded { ty, .. }
        | SchemaChange::FieldRemoved { ty, .. }
        | SchemaChange::FieldTypeChanged { ty, .. }
        | SchemaChange::ConstraintAdded { ty, .. }
        | SchemaChange::ConstraintRemoved { ty, .. }
        | SchemaChange::KeyAdded { ty, .. }
        | SchemaChange::KeyRemoved { ty, .. }
        | SchemaChange::EdgePropChanged { ty, .. } => ty,
    })
}

/// The field a change names, when it names one.
fn change_field(c: &SchemaChange) -> Option<&str> {
    match c {
        SchemaChange::FieldAdded { field, .. }
        | SchemaChange::FieldRemoved { field, .. }
        | SchemaChange::FieldTypeChanged { field, .. }
        | SchemaChange::ConstraintAdded { field, .. }
        | SchemaChange::ConstraintRemoved { field, .. }
        | SchemaChange::EdgePropChanged { field, .. } => Some(field),
        SchemaChange::WorldChanged { .. }
        | SchemaChange::TypeAdded { .. }
        | SchemaChange::TypeRemoved { .. }
        | SchemaChange::KeyAdded { .. }
        | SchemaChange::KeyRemoved { .. } => None,
    }
}

/// Labels of `all` that are `⊑ ty_name` under `s` (no-op when the name
/// is not a type of `s`).
fn labels_under<'l>(s: &PgSchema, ty_name: &str, all: &'l BTreeSet<String>) -> Vec<&'l String> {
    let t = s.label_type(ty_name);
    all.iter()
        .filter(|l| t.is_some_and(|t| s.label_subtype(l, t)))
        .collect()
}

/// Maps each change of `sdiff` to the graph labels it can affect, and
/// returns the union closed under key sites (see module docs).
pub(crate) fn impacts(
    old: &PgSchema,
    new: &PgSchema,
    sdiff: &diff::SchemaDiff,
    all_labels: &BTreeSet<String>,
) -> (Vec<ChangeImpact>, BTreeSet<String>) {
    let mut affected: BTreeSet<String> = BTreeSet::new();
    let mut changes = Vec::with_capacity(sdiff.changes.len());
    for change in &sdiff.changes {
        let mut labels: BTreeSet<String> = BTreeSet::new();
        match change_type(change) {
            // The strong family judges every element, so switching it on
            // or off makes the whole graph the region — which is what
            // lets each side of a window run under its own schema's mode.
            None => labels.clone_from(all_labels),
            Some(ty) => {
                for s in [old, new] {
                    labels.extend(labels_under(s, ty, all_labels).into_iter().cloned());
                }
                // A changed relationship field also reaches the *targets*
                // of its edges (DS3/DS4 anchor there; DS4 at targets with
                // no incoming edge at all, which edge traversal from the
                // region would miss).
                if let Some(field) = change_field(change) {
                    for s in [old, new] {
                        if let Some(rel) = s.relationship(ty, field) {
                            labels.extend(
                                all_labels
                                    .iter()
                                    .filter(|l| s.label_subtype(l, rel.target_base))
                                    .cloned(),
                            );
                        }
                    }
                }
            }
        }
        affected.extend(labels.iter().cloned());
        changes.push(ChangeImpact {
            change: change.clone(),
            affected_labels: labels.into_iter().collect(),
        });
    }
    // Key-site closure: DS7 compares all nodes below a site, so the
    // region must hold whole sites. Joining a site can put labels below
    // further sites, hence the fixpoint loop (bounded by #labels).
    let mut grew = true;
    while grew {
        grew = false;
        for s in [old, new] {
            for key in s.keys() {
                let site: Vec<&String> = all_labels
                    .iter()
                    .filter(|l| s.label_subtype(l, key.site))
                    .collect();
                if site.iter().any(|l| affected.contains(*l))
                    && !site.iter().all(|l| affected.contains(*l))
                {
                    affected.extend(site.into_iter().cloned());
                    grew = true;
                }
            }
        }
    }
    (changes, affected)
}

/// True when `c` can change the verdict of a rule that reads edges.
///
/// Attribute-level changes and `@key` changes read node properties
/// only: the rules they can flip (DS5, DS6 on attributes, SS/DS7 on
/// keys) anchor at nodes and never consult adjacency. For those, the
/// *diff* of two region runs over an edge-free subgraph is still exact —
/// every edge-reading rule computes the same answer on both sides and
/// cancels. Type-level changes and anything naming a relationship field
/// (in either schema) keep the incident edges.
pub(crate) fn change_needs_edges(old: &PgSchema, new: &PgSchema, c: &SchemaChange) -> bool {
    match c {
        SchemaChange::KeyAdded { .. } | SchemaChange::KeyRemoved { .. } => false,
        SchemaChange::WorldChanged { .. }
        | SchemaChange::TypeAdded { .. }
        | SchemaChange::TypeRemoved { .. } => true,
        _ => {
            let ty = change_type(c).expect("field-level change names a type");
            let field = change_field(c).expect("field-level change names a field");
            [old, new]
                .iter()
                .any(|s| s.relationship(ty, field).is_some())
        }
    }
}

/// Materialises the dirty region: nodes with affected labels plus
/// (when `with_edges`) their incident live edges.
pub(crate) fn region_of(
    g: &PropertyGraph,
    affected: &BTreeSet<String>,
    with_edges: bool,
) -> Region {
    let mut nodes: BTreeSet<NodeId> = BTreeSet::new();
    for n in g.nodes() {
        if affected.contains(n.label()) {
            nodes.insert(n.id);
        }
    }
    let mut edges: BTreeSet<EdgeId> = BTreeSet::new();
    if with_edges {
        for &v in &nodes {
            edges.extend(g.out_edges(v).chain(g.in_edges(v)).map(|e| e.id));
        }
    }
    Region { nodes, edges }
}

/// Runs the rule kernels over the region under one schema, returning
/// the canonical (sorted, deduped) violations anchored there. DS7 runs
/// inline — sound because the region holds whole key sites.
pub(crate) fn region_run(
    g: &PropertyGraph,
    s: &PgSchema,
    options: &ValidationOptions,
    region: &Region,
) -> Vec<Violation> {
    // The preview must be complete to be diffable, and metrics belong to
    // the engines, not the planner.
    let mut options = *options;
    options.max_violations = None;
    options.collect_metrics = false;
    // The region is frozen into a copy of the schema's memoised symbol
    // space, its strings after the schema's names.
    let compiled = s.compiled();
    let cols = RegionCols::build(g, &region.nodes, &region.edges, compiled.symbols.clone());
    let scope = Scope::region(s, &compiled.sym, &cols);
    let mut report = ValidationReport::default();
    let mut sink = Sink::for_region(&mut report, false, &cols);
    rules::run(&scope, &options, &mut sink, Ds7Plan::Inline);
    sink.finish();
    let mut v = report.take_violations();
    v.sort();
    v.dedup();
    v
}

/// Splits two sorted, deduped violation slices into `(new \ old,
/// old \ new)` — the introduced and resolved violations.
pub(crate) fn diff_violations<E: ReportEntry>(
    old: &[E],
    new: &[Violation],
) -> (Vec<Violation>, Vec<Violation>) {
    let (mut i, mut j) = (0, 0);
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    while i < old.len() && j < new.len() {
        match old[i].violation().cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i].violation().clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend(old[i..].iter().map(|e| e.violation().clone()));
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

/// Computes the migration plan for taking `g` from `old` to `new`: the
/// per-change impact and an exact violation preview, at a cost
/// proportional to the dirty region rather than the graph.
pub fn plan(
    g: &PropertyGraph,
    old: &PgSchema,
    new: &PgSchema,
    options: &ValidationOptions,
) -> MigrationPlan {
    let sdiff = diff::diff(old, new);
    let all_labels = graph_labels(g);
    let (changes, affected) = impacts(old, new, &sdiff, &all_labels);
    // An edge-free region is sound here (not in the dual-schema window,
    // which needs the candidate side's *absolute* violation set): the
    // plan only reports the diff of two runs over the same subgraph, so
    // rules the change cannot touch cancel out.
    let with_edges = sdiff
        .changes
        .iter()
        .any(|c| change_needs_edges(old, new, c));
    let region = region_of(g, &affected, with_edges);
    let old_v = region_run(g, old, options, &region);
    let new_v = region_run(g, new, options, &region);
    let (added, removed) = diff_violations(&old_v, &new_v);
    MigrationPlan {
        changes,
        dirty_nodes: region.nodes.len(),
        dirty_edges: region.edges.len(),
        elements_total: g.node_count() + g.edge_count(),
        added,
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, Engine};
    use pgraph::{GraphBuilder, Value};

    fn parse(sdl: &str) -> PgSchema {
        PgSchema::parse(sdl).unwrap()
    }

    const OLD: &str = r#"
        type User @key(fields: ["login"]) {
            login: String! @required
            follows: [User]
        }
        type Post {
            title: String!
            author: User! @uniqueForTarget
        }
    "#;

    fn sample() -> PropertyGraph {
        GraphBuilder::new()
            .node("u1", "User")
            .prop("u1", "login", "alice")
            .node("u2", "User")
            .prop("u2", "login", "bob")
            .node("p", "Post")
            .prop("p", "title", "hello")
            .edge("u1", "u2", "follows")
            .edge("p", "u1", "author")
            .build()
            .unwrap()
    }

    /// The plan's seeding identity: `(full_old − region) ∪ region_new`
    /// must equal a full validation under the new schema — the property
    /// the dual-schema window's fast seed relies on.
    fn assert_region_sound(g: &PropertyGraph, old: &PgSchema, new: &PgSchema) {
        let options = ValidationOptions::default();
        let sdiff = diff::diff(old, new);
        let all_labels = graph_labels(g);
        let (_, affected) = impacts(old, new, &sdiff, &all_labels);
        let region = region_of(g, &affected, true);
        let full_old = validate(g, old, &options);
        let full_new = validate(g, new, &options);
        let fresh = region_run(g, new, &options, &region);
        let mut seeded: Vec<Violation> = full_old
            .violations()
            .iter()
            .filter(|v| !anchored_in(v, &region))
            .cloned()
            .collect();
        seeded.extend(fresh);
        seeded.sort();
        seeded.dedup();
        assert_eq!(
            seeded,
            full_new.violations(),
            "region seed diverged from full revalidation"
        );
    }

    fn anchored_in(v: &Violation, region: &Region) -> bool {
        let (n, e, pair) = crate::incremental::anchors(v);
        n.is_some_and(|n| region.nodes.contains(&n))
            || e.is_some_and(|e| region.edges.contains(&e))
            || pair.is_some_and(|(a, b)| region.nodes.contains(&a) || region.nodes.contains(&b))
    }

    #[test]
    fn identical_schemas_make_an_empty_plan() {
        let old = parse(OLD);
        let new = parse(OLD);
        let g = sample();
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(p.changes.is_empty());
        assert_eq!(p.dirty_nodes, 0);
        assert_eq!(p.dirty_edges, 0);
        assert!(p.compatible());
    }

    #[test]
    fn compatible_change_previews_clean() {
        let old = parse(OLD);
        // New type + new optional field: nothing existing can break.
        let new = parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                bio: String
                follows: [User]
            }
            type Post {
                title: String!
                author: User! @uniqueForTarget
            }
            type Tag { name: String! }
        "#,
        );
        let g = sample();
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(!p.changes.is_empty());
        assert!(p.compatible(), "added: {:?}", p.added);
        assert!(p.removed.is_empty());
        assert_region_sound(&g, &old, &new);
    }

    #[test]
    fn attribute_only_plans_skip_incident_edges() {
        let old = parse(OLD);
        // `nick` is an attribute in both schemas, so the region carries
        // no edges — and the preview still equals the full-validation
        // diff (edge-reading rules compute identically on both sides
        // and cancel).
        let new = parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                nick: String @required
                follows: [User]
            }
            type Post {
                title: String!
                author: User! @uniqueForTarget
            }
        "#,
        );
        let g = sample();
        let options = ValidationOptions::default();
        let p = plan(&g, &old, &new, &options);
        assert!(p.dirty_nodes > 0);
        assert_eq!(p.dirty_edges, 0, "attribute-only change needs no edges");
        let full_old = validate(&g, &old, &options);
        let full_new = validate(&g, &new, &options);
        let (added, removed) = diff_violations(full_old.violations(), full_new.violations());
        assert_eq!(p.added, added);
        assert_eq!(p.removed, removed);
        assert!(!p.added.is_empty(), "a missing nick violates DS5");
    }

    #[test]
    fn key_addition_previews_the_collisions() {
        let old = parse(OLD);
        // Keying Post.title collides nothing; keying User by a constant
        // property would — instead, force a collision by keying on a
        // property both users share (none), so craft one: key on `tier`.
        let new = parse(
            r#"
            type User @key(fields: ["login"]) @key(fields: ["tier"]) {
                login: String! @required
                tier: Int
                follows: [User]
            }
            type Post {
                title: String!
                author: User! @uniqueForTarget
            }
        "#,
        );
        let mut g = sample();
        // Both users lack `tier` → tuples agree → DS7 pair.
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(!p.compatible());
        assert_eq!(p.added.len(), 1);
        assert!(matches!(p.added[0], Violation::KeyViolated { .. }));
        assert_region_sound(&g, &old, &new);
        // Distinct tiers migrate cleanly.
        let ids: Vec<_> = g.node_ids().collect();
        g.set_node_property(ids[0], "tier", Value::Int(1));
        g.set_node_property(ids[1], "tier", Value::Int(2));
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(p.compatible());
        assert_region_sound(&g, &old, &new);
    }

    #[test]
    fn type_removal_affects_only_its_label() {
        let old = parse(OLD);
        let new = parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User]
            }
        "#,
        );
        let g = sample();
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(!p.compatible());
        // The Post node loses justification; the author edge becomes
        // unjustified and mistyped-at-best; User nodes stay clean but
        // u1 sits in the region as the author edge's target.
        assert!(p
            .added
            .iter()
            .any(|v| matches!(v, Violation::UnjustifiedNode { .. })));
        let removed_ty = p
            .changes
            .iter()
            .find(|c| matches!(c.change, SchemaChange::TypeRemoved { .. }))
            .unwrap();
        assert_eq!(removed_ty.affected_labels, vec!["Post".to_owned()]);
        assert_region_sound(&g, &old, &new);
    }

    #[test]
    fn constraint_tightening_reaches_targets() {
        let old = parse(OLD);
        // @requiredForTarget on Post.author: every User now needs an
        // incoming author edge — u2 has none, and DS4 anchors *at u2*,
        // which no edge from a Post reaches. The field wrapper is
        // relaxed to bare `User` because DS3/DS4 bind targets via
        // `λ(v) ⊑ type(t,f)` and a bare label never sits below `User!`.
        let new = parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User]
            }
            type Post {
                title: String!
                author: User @uniqueForTarget @requiredForTarget
            }
        "#,
        );
        let g = sample();
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(!p.compatible());
        assert!(p
            .added
            .iter()
            .any(|v| matches!(v, Violation::RequiredForTargetViolated { .. })));
        assert_region_sound(&g, &old, &new);
    }

    #[test]
    fn relaxation_previews_resolved_violations() {
        // Old requires `login`; the graph is missing one → violation.
        // Dropping @required resolves it.
        let old = parse(OLD);
        let new = parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String!
                follows: [User]
            }
            type Post {
                title: String!
                author: User! @uniqueForTarget
            }
        "#,
        );
        let mut g = sample();
        let u1 = g.node_ids().next().unwrap();
        g.remove_node_property(u1, "login");
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert!(p.compatible());
        assert_eq!(p.removed.len(), 1);
        assert!(matches!(
            p.removed[0],
            Violation::RequiredPropertyMissing { .. }
        ));
        assert_region_sound(&g, &old, &new);
    }

    /// Same declarations, opposite modes: the region is the whole graph
    /// and the plan equals the full-old vs full-new diff, both ways.
    #[test]
    fn world_flip_plans_the_whole_graph() {
        let strict = parse(OLD);
        let loose = parse(OLD).into_open_world();
        let mut g = sample();
        let u1 = g.node_ids().next().unwrap();
        g.set_node_property(u1, "nickname", Value::from("al"));
        let ghost = g.add_node("Ghost");
        g.add_edge(ghost, u1, "haunts").unwrap();
        let options = ValidationOptions::default();
        for (old, new) in [(&loose, &strict), (&strict, &loose)] {
            let p = plan(&g, old, new, &options);
            assert_eq!(p.changes.len(), 1, "{:?}", p.changes);
            assert_eq!(p.dirty_nodes, g.node_count());
            assert_eq!(p.dirty_edges, g.edge_count());
            let full_old = validate(&g, old, &options);
            let full_new = validate(&g, new, &options);
            let (added, removed) = diff_violations(full_old.violations(), full_new.violations());
            assert_eq!(p.added, added);
            assert_eq!(p.removed, removed);
            assert_region_sound(&g, old, new);
        }
        let closing = plan(&g, &loose, &strict, &options);
        // SS2 (nickname), SS1 (Ghost), SS4 (haunts).
        assert_eq!(closing.added.len(), 3, "{:?}", closing.added);
        assert!(plan(&g, &strict, &loose, &options).compatible());
    }

    #[test]
    fn region_excludes_untouched_types() {
        // A third, untouched type must stay out of the region.
        let old = parse(
            r#"
            type User { login: String! }
            type Island { x: Int }
        "#,
        );
        let new = parse(
            r#"
            type User { login: String! @required }
            type Island { x: Int }
        "#,
        );
        let g = GraphBuilder::new()
            .node("u", "User")
            .prop("u", "login", "alice")
            .node("i1", "Island")
            .node("i2", "Island")
            .build()
            .unwrap();
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        assert_eq!(p.dirty_nodes, 1, "only the User node is affected");
        assert_region_sound(&g, &old, &new);
    }

    #[test]
    fn plan_respects_family_selection() {
        let old = parse(OLD);
        let new = parse(
            r#"
            type User @key(fields: ["login"]) @key(fields: ["tier"]) {
                login: String! @required
                tier: Int
                follows: [User]
            }
            type Post {
                title: String!
                author: User! @uniqueForTarget
            }
        "#,
        );
        let g = sample();
        // Without the directives family, the DS7 collision is not checked.
        let weak_only = ValidationOptions::builder()
            .engine(Engine::Indexed)
            .families(true, false, true)
            .build();
        let p = plan(&g, &old, &new, &weak_only);
        assert!(p.compatible());
    }

    #[test]
    fn plan_json_is_well_formed() {
        let old = parse(OLD);
        let new = parse(
            r#"
            type User @key(fields: ["login"]) {
                login: String! @required
                follows: [User]
            }
        "#,
        );
        let g = sample();
        let p = plan(&g, &old, &new, &ValidationOptions::default());
        let json = p.to_json();
        assert!(json.starts_with("{\"compatible\": false"));
        assert!(json.contains("\"changes\": ["));
        assert!(json.contains("\"compat\": \"breaking\""));
        assert!(json.contains("\"violations_added\": [{\"rule\""));
    }
}
