//! Validation reports: which rule failed, where, and why.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use pgraph::{EdgeId, NodeId};

/// The fifteen rules of Definitions 5.1–5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Rule {
    WS1,
    WS2,
    WS3,
    WS4,
    DS1,
    DS2,
    DS3,
    DS4,
    DS5,
    DS6,
    DS7,
    SS1,
    SS2,
    SS3,
    SS4,
}

impl Rule {
    /// All rules in definition order.
    pub const ALL: [Rule; 15] = [
        Rule::WS1,
        Rule::WS2,
        Rule::WS3,
        Rule::WS4,
        Rule::DS1,
        Rule::DS2,
        Rule::DS3,
        Rule::DS4,
        Rule::DS5,
        Rule::DS6,
        Rule::DS7,
        Rule::SS1,
        Rule::SS2,
        Rule::SS3,
        Rule::SS4,
    ];

    /// Which of the three satisfaction notions the rule belongs to.
    pub fn family(self) -> RuleFamily {
        match self {
            Rule::WS1 | Rule::WS2 | Rule::WS3 | Rule::WS4 => RuleFamily::Weak,
            Rule::DS1 | Rule::DS2 | Rule::DS3 | Rule::DS4 | Rule::DS5 | Rule::DS6 | Rule::DS7 => {
                RuleFamily::Directives
            }
            Rule::SS1 | Rule::SS2 | Rule::SS3 | Rule::SS4 => RuleFamily::Strong,
        }
    }

    /// The paper's one-line gloss for the rule.
    pub fn gloss(self) -> &'static str {
        match self {
            Rule::WS1 => "node properties must be of the required type",
            Rule::WS2 => "edge properties must be of the required type",
            Rule::WS3 => "target nodes must be of the required type",
            Rule::WS4 => "non-list fields contain at most one edge",
            Rule::DS1 => "edges identified by nodes and label (@distinct)",
            Rule::DS2 => "no loops (@noLoops)",
            Rule::DS3 => "target has at most one incoming edge (@uniqueForTarget)",
            Rule::DS4 => "target has at least one incoming edge (@requiredForTarget)",
            Rule::DS5 => "property is required (@required)",
            Rule::DS6 => "edge is required (@required)",
            Rule::DS7 => "keys (@key)",
            Rule::SS1 => "all nodes are justified",
            Rule::SS2 => "all node properties are justified",
            Rule::SS3 => "all edge properties are justified",
            Rule::SS4 => "all edges are justified",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The three satisfaction notions of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleFamily {
    /// Definition 5.1 (weak schema satisfaction).
    Weak,
    /// Definition 5.2 (directives satisfaction).
    Directives,
    /// The additional justification rules of Definition 5.3.
    Strong,
}

/// One violation of one rule, with enough context to locate and explain it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    /// WS1: a node property value is outside `valuesW` of its declared type.
    NodePropertyType {
        /// The node.
        node: NodeId,
        /// The property/field name.
        field: String,
        /// Rendered offending value.
        value: String,
        /// Rendered declared type.
        expected: String,
    },
    /// WS2: an edge property value is outside `valuesW` of its declared
    /// argument type.
    EdgePropertyType {
        /// The edge.
        edge: EdgeId,
        /// The property/argument name.
        prop: String,
        /// Rendered offending value.
        value: String,
        /// Rendered declared type.
        expected: String,
    },
    /// WS3: an edge's target node label is not a subtype of the field's
    /// base type.
    EdgeTargetType {
        /// The edge.
        edge: EdgeId,
        /// The target node.
        target: NodeId,
        /// The target's label.
        target_label: String,
        /// Rendered expected base type.
        expected: String,
    },
    /// WS4: more than one outgoing edge for a non-list relationship field.
    NonListFieldMultiEdge {
        /// The source node.
        source: NodeId,
        /// The edge label / field name.
        field: String,
        /// How many outgoing edges were found.
        count: usize,
    },
    /// DS1: two parallel edges between the same endpoints with the same
    /// label under `@distinct`.
    DistinctViolated {
        /// The source node.
        source: NodeId,
        /// The target node.
        target: NodeId,
        /// The edge label.
        field: String,
        /// Number of parallel edges.
        count: usize,
    },
    /// DS2: a self-loop under `@noLoops`.
    LoopViolated {
        /// The node with the loop.
        node: NodeId,
        /// The edge label.
        field: String,
    },
    /// DS3: a target with multiple incoming edges under `@uniqueForTarget`.
    UniqueForTargetViolated {
        /// The target node.
        target: NodeId,
        /// The edge label.
        field: String,
        /// Number of incoming edges.
        count: usize,
    },
    /// DS4: a target with no incoming edge under `@requiredForTarget`.
    RequiredForTargetViolated {
        /// The node missing an incoming edge.
        target: NodeId,
        /// The edge label.
        field: String,
        /// The name of the type carrying the constraint.
        site: String,
    },
    /// DS5: a missing (or empty-list) required property.
    RequiredPropertyMissing {
        /// The node.
        node: NodeId,
        /// The property name.
        field: String,
        /// True if the property exists but is an empty list (clause 2 of
        /// DS5).
        empty_list: bool,
    },
    /// DS6: a missing required outgoing edge.
    RequiredEdgeMissing {
        /// The source node.
        node: NodeId,
        /// The edge label.
        field: String,
    },
    /// DS7: two distinct nodes agreeing on a key.
    KeyViolated {
        /// First node.
        a: NodeId,
        /// Second node.
        b: NodeId,
        /// The constrained type's name.
        ty: String,
        /// The key's property names.
        fields: Vec<String>,
    },
    /// SS1: a node label that is not an object type of the schema.
    UnjustifiedNode {
        /// The node.
        node: NodeId,
        /// Its label.
        label: String,
    },
    /// SS2: a node property not backed by an attribute definition.
    UnjustifiedNodeProperty {
        /// The node.
        node: NodeId,
        /// The property name.
        prop: String,
    },
    /// SS3: an edge property not backed by a (scalar-based) argument
    /// definition.
    UnjustifiedEdgeProperty {
        /// The edge.
        edge: EdgeId,
        /// The property name.
        prop: String,
    },
    /// SS4: an edge not backed by a relationship definition.
    UnjustifiedEdge {
        /// The edge.
        edge: EdgeId,
        /// The edge label.
        label: String,
        /// The source node's label.
        source_label: String,
    },
}

impl Violation {
    /// The rule this violation belongs to.
    pub fn rule(&self) -> Rule {
        match self {
            Violation::NodePropertyType { .. } => Rule::WS1,
            Violation::EdgePropertyType { .. } => Rule::WS2,
            Violation::EdgeTargetType { .. } => Rule::WS3,
            Violation::NonListFieldMultiEdge { .. } => Rule::WS4,
            Violation::DistinctViolated { .. } => Rule::DS1,
            Violation::LoopViolated { .. } => Rule::DS2,
            Violation::UniqueForTargetViolated { .. } => Rule::DS3,
            Violation::RequiredForTargetViolated { .. } => Rule::DS4,
            Violation::RequiredPropertyMissing { .. } => Rule::DS5,
            Violation::RequiredEdgeMissing { .. } => Rule::DS6,
            Violation::KeyViolated { .. } => Rule::DS7,
            Violation::UnjustifiedNode { .. } => Rule::SS1,
            Violation::UnjustifiedNodeProperty { .. } => Rule::SS2,
            Violation::UnjustifiedEdgeProperty { .. } => Rule::SS3,
            Violation::UnjustifiedEdge { .. } => Rule::SS4,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.rule())?;
        match self {
            Violation::NodePropertyType {
                node,
                field,
                value,
                expected,
            } => write!(f, "{node}.{field} = {value} does not conform to {expected}"),
            Violation::EdgePropertyType {
                edge,
                prop,
                value,
                expected,
            } => write!(f, "{edge}.{prop} = {value} does not conform to {expected}"),
            Violation::EdgeTargetType {
                edge,
                target,
                target_label,
                expected,
            } => write!(
                f,
                "{edge} points to {target} labelled {target_label:?}, expected ⊑ {expected}"
            ),
            Violation::NonListFieldMultiEdge {
                source,
                field,
                count,
            } => write!(
                f,
                "{source} has {count} outgoing {field:?} edges but the field is not list-typed"
            ),
            Violation::DistinctViolated {
                source,
                target,
                field,
                count,
            } => write!(
                f,
                "{count} parallel {field:?} edges {source} → {target} under @distinct"
            ),
            Violation::LoopViolated { node, field } => {
                write!(f, "self-loop {field:?} on {node} under @noLoops")
            }
            Violation::UniqueForTargetViolated {
                target,
                field,
                count,
            } => write!(
                f,
                "{target} has {count} incoming {field:?} edges under @uniqueForTarget"
            ),
            Violation::RequiredForTargetViolated {
                target,
                field,
                site,
            } => write!(
                f,
                "{target} lacks an incoming {field:?} edge required by {site} (@requiredForTarget)"
            ),
            Violation::RequiredPropertyMissing {
                node,
                field,
                empty_list,
            } => {
                if *empty_list {
                    write!(f, "{node}.{field} is required but is an empty list")
                } else {
                    write!(f, "{node} lacks required property {field:?}")
                }
            }
            Violation::RequiredEdgeMissing { node, field } => {
                write!(f, "{node} lacks required outgoing {field:?} edge")
            }
            Violation::KeyViolated { a, b, ty, fields } => write!(
                f,
                "nodes {a} and {b} of type {ty} agree on key ({})",
                fields.join(", ")
            ),
            Violation::UnjustifiedNode { node, label } => {
                write!(f, "{node} has label {label:?} which is not an object type")
            }
            Violation::UnjustifiedNodeProperty { node, prop } => {
                write!(f, "{node} has unjustified property {prop:?}")
            }
            Violation::UnjustifiedEdgeProperty { edge, prop } => {
                write!(f, "{edge} has unjustified property {prop:?}")
            }
            Violation::UnjustifiedEdge {
                edge,
                label,
                source_label,
            } => write!(
                f,
                "{edge} labelled {label:?} is not a relationship of source type {source_label:?}"
            ),
        }
    }
}

/// Wall time, elements examined and violation count attributed to one
/// rule kernel.
///
/// Produced by the kernel engines (indexed, parallel, incremental),
/// which run each of the fifteen rules as a separate kernel; the naive
/// oracle records only [`FamilyMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleMetrics {
    /// The rule the kernel checked.
    pub rule: Rule,
    /// Wall-clock nanoseconds spent in the kernel. For the parallel
    /// engine this is the slowest shard's time (the critical path), not
    /// the sum over workers; DS7 additionally includes the cross-shard
    /// reduce.
    pub nanos: u64,
    /// Elements the kernel examined: nodes or edges for the scan rules,
    /// index groups or per-site node-bucket entries for the group-keyed
    /// rules. Summed over workers for the parallel engine.
    pub elements_scanned: u64,
    /// Violations the kernel produced (before cross-engine
    /// canonicalisation and dedup).
    pub violations: usize,
}

/// Wall time and violation count attributed to one rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyMetrics {
    /// The rule family the block checked.
    pub family: RuleFamily,
    /// Wall-clock nanoseconds spent in the family's rule kernels (for
    /// the naive engine: in the family's rule block).
    pub nanos: u64,
    /// Violations the family's rules produced (before cross-engine
    /// canonicalisation).
    pub violations: usize,
}

/// Opt-in instrumentation of one validation run, collected when
/// [`ValidationOptions::collect_metrics`](crate::ValidationOptions) is
/// set and surfaced through [`ValidationReport::metrics`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationMetrics {
    /// Engine name: `"naive"`, `"indexed"`, `"parallel"` or
    /// `"incremental"`.
    pub engine: &'static str,
    /// Worker threads used (1 for the serial engines).
    pub threads: usize,
    /// Live nodes visited, summed over all rule blocks (a node scanned
    /// by two blocks counts twice).
    pub nodes_scanned: u64,
    /// Live edges visited, summed over all rule blocks.
    pub edges_scanned: u64,
    /// Nanoseconds freezing the graph into its [`pgraph::ColumnarGraph`]
    /// (0 for the naive engine, which runs index-free).
    pub index_build_nanos: u64,
    /// Per-rule timing, element and violation counters, in the order
    /// the kernels ran. Empty for the naive engine, which runs the
    /// paper's formulas as family blocks rather than per-rule kernels.
    pub rules: Vec<RuleMetrics>,
    /// Per-family timing, in the order the families ran. For the kernel
    /// engines this is the per-family aggregation of
    /// [`rules`](Self::rules).
    pub families: Vec<FamilyMetrics>,
    /// Live elements (`|V| + |E|`) per shard — empty for serial engines.
    /// The spread between entries is the shard skew.
    pub shard_elements: Vec<u64>,
    /// Elements actually re-checked by the run. Equals
    /// [`elements_total`](Self::elements_total) for the full engines; the
    /// incremental engine reports the dirty-region size here, so the
    /// ratio of the two is the work saved by a delta-driven re-check.
    pub elements_rechecked: u64,
    /// Live elements (`|V| + |E|`) of the validated graph. `0` when the
    /// engine did not record the recheck ratio (full engines before a
    /// graph was measured).
    pub elements_total: u64,
}

impl ValidationMetrics {
    /// Total wall time over all recorded family blocks plus index build.
    pub fn total_nanos(&self) -> u64 {
        self.index_build_nanos + self.families.iter().map(|f| f.nanos).sum::<u64>()
    }

    /// Shard skew: largest shard's element count divided by the mean
    /// (1.0 = perfectly balanced). `None` for serial engines.
    pub fn shard_skew(&self) -> Option<f64> {
        let max = *self.shard_elements.iter().max()?;
        let sum: u64 = self.shard_elements.iter().sum();
        if sum == 0 {
            return Some(1.0);
        }
        let mean = sum as f64 / self.shard_elements.len() as f64;
        Some(max as f64 / mean)
    }
}

impl fmt::Display for ValidationMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine: {} ({} thread{})",
            self.engine,
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )?;
        writeln!(
            f,
            "scanned: {} node visits, {} edge visits",
            self.nodes_scanned, self.edges_scanned
        )?;
        if self.index_build_nanos > 0 {
            writeln!(
                f,
                "index build: {:.3} ms",
                self.index_build_nanos as f64 / 1e6
            )?;
        }
        for rule in &self.rules {
            writeln!(
                f,
                "  {:<5} {:>10.3} ms  {:>8} scanned  {} violation(s)",
                rule.rule.to_string() + ":",
                rule.nanos as f64 / 1e6,
                rule.elements_scanned,
                rule.violations
            )?;
        }
        for fam in &self.families {
            writeln!(
                f,
                "{:<10} {:>10.3} ms  {} violation(s)",
                format!("{:?}:", fam.family).to_lowercase(),
                fam.nanos as f64 / 1e6,
                fam.violations
            )?;
        }
        if let Some(skew) = self.shard_skew() {
            writeln!(
                f,
                "shards: {} ({} elements), skew {:.2}",
                self.shard_elements.len(),
                self.shard_elements.iter().sum::<u64>(),
                skew
            )?;
        }
        if self.elements_total > 0 {
            writeln!(
                f,
                "re-checked: {} of {} elements ({:.2}%)",
                self.elements_rechecked,
                self.elements_total,
                100.0 * self.elements_rechecked as f64 / self.elements_total as f64
            )?;
        }
        write!(f, "total: {:.3} ms", self.total_nanos() as f64 / 1e6)
    }
}

/// The outcome of a validation run.
///
/// Equality compares the *verdict* — violations and the truncation flag —
/// and deliberately ignores [`metrics`](Self::metrics), so reports from
/// different engines (or timed vs untimed runs) compare equal whenever
/// they agree on what is wrong with the graph.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    violations: Vec<Violation>,
    limit: Option<usize>,
    truncated: bool,
    metrics: Option<ValidationMetrics>,
    engine: Option<&'static str>,
}

impl PartialEq for ValidationReport {
    fn eq(&self, other: &Self) -> bool {
        self.violations == other.violations && self.truncated == other.truncated
    }
}

impl Eq for ValidationReport {}

impl ValidationReport {
    /// Creates a report from raw violations (engines use this).
    pub fn new(violations: Vec<Violation>) -> Self {
        ValidationReport {
            violations,
            ..ValidationReport::default()
        }
    }

    /// Creates an empty report that will accept at most `limit`
    /// violations; further pushes are dropped and mark the report
    /// [`truncated`](Self::truncated).
    pub fn with_limit(limit: Option<usize>) -> Self {
        ValidationReport {
            limit,
            ..ValidationReport::default()
        }
    }

    /// Adds one violation (dropped, setting the truncation flag, once the
    /// limit is reached).
    pub fn push(&mut self, v: Violation) {
        if let Some(limit) = self.limit {
            if self.violations.len() >= limit {
                self.truncated = true;
                return;
            }
        }
        self.violations.push(v);
    }

    /// True once the violation limit has been reached — engines use this
    /// to stop scanning early.
    pub(crate) fn at_limit(&self) -> bool {
        self.limit.is_some_and(|l| self.violations.len() >= l)
    }

    /// True iff the report was cut short by
    /// [`max_violations`](crate::ValidationOptions::max_violations):
    /// the graph has at least the reported violations, and may have more.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    pub(crate) fn set_truncated(&mut self, truncated: bool) {
        self.truncated = truncated;
    }

    /// The engine that produced the report (`"naive"`, `"indexed"`,
    /// `"parallel"` or `"incremental"`), set by [`validate`](crate::validate)
    /// and by the incremental engine; `None` for hand-assembled reports.
    /// Ignored by equality, like [`metrics`](Self::metrics).
    pub fn engine(&self) -> Option<&'static str> {
        self.engine
    }

    pub(crate) fn set_engine(&mut self, engine: &'static str) {
        self.engine = Some(engine);
    }

    /// Instrumentation of the run, when
    /// [`collect_metrics`](crate::ValidationOptions::collect_metrics)
    /// was set.
    pub fn metrics(&self) -> Option<&ValidationMetrics> {
        self.metrics.as_ref()
    }

    pub(crate) fn set_metrics(&mut self, metrics: ValidationMetrics) {
        self.metrics = Some(metrics);
    }

    /// Moves the accumulated violations out (the parallel engine merges
    /// shard-local reports this way).
    pub(crate) fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// True iff no rule is violated — the graph satisfies the schema at
    /// the checked level. A [`truncated`](Self::truncated) report never
    /// conforms: the scan stopped early, so unseen violations may exist
    /// (relevant for `max_violations(0)`, which checks nothing at all).
    pub fn conforms(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }

    /// All violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations of one rule.
    pub fn by_rule(&self, rule: Rule) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.rule() == rule)
    }

    /// Violation counts per rule (only rules that fired).
    pub fn counts(&self) -> BTreeMap<Rule, usize> {
        fired(&self.violations).collect()
    }

    /// Sorts and deduplicates, so reports from different engines compare
    /// equal.
    pub fn canonicalize(&mut self) {
        self.violations.sort();
        self.violations.dedup();
    }

    /// Renders the report as a JSON document for machine consumption
    /// (CI pipelines via `pgschema validate --json`):
    ///
    /// ```json
    /// {"conforms": false, "engine": "indexed", "truncated": false,
    ///  "violations": [{"rule": "WS1", "family": "weak", "message": "…"}],
    ///  "rule_counts": {"WS1": 1}}
    /// ```
    ///
    /// The `"engine"` key appears when [`engine`](Self::engine) is set
    /// (always, for reports coming out of [`validate`](crate::validate)).
    /// `"rule_counts"` maps each rule that fired to its violation count
    /// (an empty object for a conforming graph). When metrics were
    /// collected a `"metrics"` object is appended with engine, threads,
    /// scan counters, per-rule and per-family nanosecond timings,
    /// per-shard element counts and the re-checked/total element counters.
    /// The full schema of this document is specified in the repository
    /// README ("JSON report schema").
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the document [`to_json`](Self::to_json) returns to `out`,
    /// so a caller embedding the report in a larger body (the server's
    /// session responses) renders it once, in place.
    pub fn write_json(&self, out: &mut String) {
        write_report_json(
            out,
            self.engine,
            self.truncated,
            &self.violations,
            self.metrics.as_ref(),
        );
    }

    /// Total number of violations.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True if there are no violations.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A formatter sink that JSON-escapes what is written through it, so a
/// `Display` value lands in a JSON string without an intermediate
/// `String`.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        pgraph::json::escape_into(self.0, s);
        Ok(())
    }
}

/// The wire name of a rule family.
pub(crate) fn family_name(f: RuleFamily) -> &'static str {
    match f {
        RuleFamily::Weak => "weak",
        RuleFamily::Directives => "directives",
        RuleFamily::Strong => "strong",
    }
}

/// Appends one violation as the `{"rule", "family", "message"}` JSON
/// object used by every violation list the crate renders.
pub(crate) fn write_violation_json(out: &mut String, v: &Violation) {
    let _ = write!(
        out,
        "{{\"rule\": \"{}\", \"family\": \"{}\", \"message\": \"",
        v.rule(),
        family_name(v.rule().family())
    );
    let _ = write!(Escaped(out), "{v}");
    out.push_str("\"}");
}

/// An entry of a canonical violation list: a plain [`Violation`], which
/// renders itself, or one stored beside its already rendered bytes (the
/// incremental engine's standing report), which copies them.
pub(crate) trait ReportEntry {
    /// The violation the entry stands for.
    fn violation(&self) -> &Violation;
    /// The entry for a violation just found.
    fn from_violation(v: Violation) -> Self;
    /// Appends what [`write_violation_json`] renders for
    /// [`violation`](Self::violation).
    fn write_json(&self, out: &mut String);
}

impl ReportEntry for Violation {
    fn violation(&self) -> &Violation {
        self
    }

    fn from_violation(v: Violation) -> Self {
        v
    }

    fn write_json(&self, out: &mut String) {
        write_violation_json(out, self);
    }
}

/// The rules that fired in `entries` with their violation counts, in
/// definition order, tallied on the stack.
fn fired<E: ReportEntry>(entries: &[E]) -> impl Iterator<Item = (Rule, usize)> {
    let mut tally = [0usize; Rule::ALL.len()];
    for e in entries {
        tally[e.violation().rule() as usize] += 1;
    }
    Rule::ALL.into_iter().zip(tally).filter(|(_, n)| *n > 0)
}

/// Appends the report document [`ValidationReport::to_json`] specifies
/// for `entries` — the one writer of that format, for rendered reports
/// and the incremental engine's stored bytes alike.
pub(crate) fn write_report_json<E: ReportEntry>(
    out: &mut String,
    engine: Option<&str>,
    truncated: bool,
    entries: &[E],
    metrics: Option<&ValidationMetrics>,
) {
    let conforms = entries.is_empty() && !truncated;
    let _ = write!(out, "{{\"conforms\": {conforms}");
    if let Some(engine) = engine {
        let _ = write!(out, ", \"engine\": \"{engine}\"");
    }
    let _ = write!(out, ", \"truncated\": {truncated}, \"violations\": [");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        e.write_json(out);
    }
    out.push_str("], \"rule_counts\": {");
    for (i, (rule, count)) in fired(entries).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{rule}\": {count}");
    }
    out.push('}');
    if let Some(m) = metrics {
        let _ = write!(
            out,
            ", \"metrics\": {{\"engine\": \"{}\", \"threads\": {}, \
             \"nodes_scanned\": {}, \"edges_scanned\": {}, \
             \"index_build_nanos\": {}, \"rules\": [",
            m.engine, m.threads, m.nodes_scanned, m.edges_scanned, m.index_build_nanos
        );
        for (i, rm) in m.rules.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"rule\": \"{}\", \"nanos\": {}, \"elements_scanned\": {}, \
                 \"violations\": {}}}",
                rm.rule, rm.nanos, rm.elements_scanned, rm.violations
            );
        }
        out.push_str("], \"families\": [");
        for (i, fam) in m.families.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"family\": \"{}\", \"nanos\": {}, \"violations\": {}}}",
                family_name(fam.family),
                fam.nanos,
                fam.violations
            );
        }
        out.push_str("], \"shard_elements\": [");
        for (i, n) in m.shard_elements.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{n}");
        }
        let _ = write!(
            out,
            "], \"elements_rechecked\": {}, \"elements_total\": {}}}",
            m.elements_rechecked, m.elements_total
        );
    }
    out.push('}');
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.conforms() {
            return writeln!(f, "graph strongly satisfies the schema");
        }
        if self.truncated {
            writeln!(
                f,
                "{} violation(s) (truncated; more may exist):",
                self.violations.len()
            )?;
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
        }
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_partition_into_families() {
        assert_eq!(
            Rule::ALL
                .iter()
                .filter(|r| r.family() == RuleFamily::Weak)
                .count(),
            4
        );
        assert_eq!(
            Rule::ALL
                .iter()
                .filter(|r| r.family() == RuleFamily::Directives)
                .count(),
            7
        );
        assert_eq!(
            Rule::ALL
                .iter()
                .filter(|r| r.family() == RuleFamily::Strong)
                .count(),
            4
        );
        for r in Rule::ALL {
            assert!(!r.gloss().is_empty());
        }
    }

    #[test]
    fn report_counts_and_canonicalization() {
        let v1 = Violation::UnjustifiedNode {
            node: NodeId::from_index(1),
            label: "X".into(),
        };
        let v0 = Violation::UnjustifiedNode {
            node: NodeId::from_index(0),
            label: "X".into(),
        };
        let mut r = ValidationReport::new(vec![v1.clone(), v0.clone(), v1.clone()]);
        r.canonicalize();
        assert_eq!(r.len(), 2);
        assert_eq!(r.violations()[0], v0);
        assert_eq!(r.counts()[&Rule::SS1], 2);
        assert!(!r.conforms());
        assert!(r.to_string().contains("SS1"));
    }

    #[test]
    fn limited_report_truncates_and_flags() {
        let mk = |ix| Violation::UnjustifiedNode {
            node: NodeId::from_index(ix),
            label: "X".into(),
        };
        let mut r = ValidationReport::with_limit(Some(2));
        assert!(!r.truncated());
        r.push(mk(0));
        assert!(!r.at_limit());
        r.push(mk(1));
        assert!(r.at_limit());
        r.push(mk(2));
        assert_eq!(r.len(), 2);
        assert!(r.truncated());
        assert!(r.to_json().contains("\"truncated\": true"));
        assert!(r.to_string().contains("truncated"));
        // Equality ignores metrics but not the truncation flag.
        let full = ValidationReport::new(vec![mk(0), mk(1)]);
        assert_ne!(r, full);
    }

    #[test]
    fn equality_ignores_metrics() {
        let v = Violation::UnjustifiedNode {
            node: NodeId::from_index(0),
            label: "X".into(),
        };
        let a = ValidationReport::new(vec![v.clone()]);
        let mut b = ValidationReport::new(vec![v]);
        b.set_metrics(ValidationMetrics {
            engine: "indexed",
            threads: 1,
            ..ValidationMetrics::default()
        });
        assert_eq!(a, b);
        assert!(b.metrics().is_some());
    }

    #[test]
    fn metrics_render_in_json_and_text() {
        let mut r = ValidationReport::default();
        r.set_metrics(ValidationMetrics {
            engine: "parallel",
            threads: 4,
            nodes_scanned: 100,
            edges_scanned: 50,
            index_build_nanos: 1_000,
            rules: vec![RuleMetrics {
                rule: Rule::WS1,
                nanos: 2_000,
                elements_scanned: 100,
                violations: 3,
            }],
            families: vec![FamilyMetrics {
                family: RuleFamily::Weak,
                nanos: 2_000,
                violations: 3,
            }],
            shard_elements: vec![40, 40, 40, 30],
            elements_rechecked: 150,
            elements_total: 150,
        });
        let json = r.to_json();
        assert!(json.contains("\"metrics\""), "{json}");
        assert!(json.contains("\"engine\": \"parallel\""), "{json}");
        assert!(
            json.contains(
                "\"rules\": [{\"rule\": \"WS1\", \"nanos\": 2000, \
                 \"elements_scanned\": 100, \"violations\": 3}]"
            ),
            "{json}"
        );
        assert!(
            json.contains("\"shard_elements\": [40, 40, 40, 30]"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let m = r.metrics().unwrap();
        assert_eq!(m.total_nanos(), 3_000);
        let skew = m.shard_skew().unwrap();
        assert!((skew - 40.0 / 37.5).abs() < 1e-9);
        let text = m.to_string();
        assert!(text.contains("engine: parallel (4 threads)"), "{text}");
        assert!(text.contains("WS1:"), "{text}");
        assert!(text.contains("skew"), "{text}");
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut r = ValidationReport::default();
        assert_eq!(
            r.to_json(),
            "{\"conforms\": true, \"truncated\": false, \"violations\": [], \
             \"rule_counts\": {}}"
        );
        r.push(Violation::UnjustifiedNodeProperty {
            node: NodeId::from_index(0),
            prop: "we\"ird\nname".into(),
        });
        let json = r.to_json();
        assert!(json.contains("\"conforms\": false"), "{json}");
        assert!(json.contains("\"rule\": \"SS2\""), "{json}");
        assert!(json.contains("\"family\": \"strong\""), "{json}");
        // The Display message debug-quotes the property name; the JSON
        // escaper then escapes those characters again.
        assert!(json.contains(r#"we\\\"ird\\nname"#), "{json}");
        // Must itself be valid JSON: cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // U+0008 and U+000C take their short escapes and parse back.
        let mut r = ValidationReport::default();
        let v = Violation::NodePropertyType {
            node: NodeId::from_index(0),
            field: "back\u{8}space form\u{c}feed".into(),
            value: "3".into(),
            expected: "String".into(),
        };
        let message = v.to_string();
        r.push(v);
        let json = r.to_json();
        assert!(json.contains(r"back\bspace form\ffeed"), "{json}");
        let parsed = pgraph::json::Json::parse(&json).unwrap();
        let violations = parsed.get("violations").and_then(|v| v.as_array());
        let first = violations.and_then(|vs| vs.first());
        let parsed_message = first
            .and_then(|v| v.get("message"))
            .and_then(|m| m.as_str());
        assert_eq!(parsed_message, Some(message.as_str()));
    }

    #[test]
    fn display_of_each_violation_mentions_its_rule() {
        let samples: Vec<Violation> = vec![
            Violation::NodePropertyType {
                node: NodeId::from_index(0),
                field: "f".into(),
                value: "3".into(),
                expected: "String".into(),
            },
            Violation::KeyViolated {
                a: NodeId::from_index(0),
                b: NodeId::from_index(1),
                ty: "User".into(),
                fields: vec!["id".into()],
            },
            Violation::UnjustifiedEdge {
                edge: EdgeId::from_index(0),
                label: "rel".into(),
                source_label: "A".into(),
            },
        ];
        for v in samples {
            let text = v.to_string();
            assert!(text.contains(&v.rule().to_string()), "{text}");
        }
    }
}
