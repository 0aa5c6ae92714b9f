//! # pg-reason — object-type satisfiability for Property Graph schemas
//!
//! Implements §6.2 of the paper: *"Is there a Property Graph that strongly
//! satisfies S and contains at least one node labelled `ot`?"*
//!
//! Three cooperating components:
//!
//! * [`translate`] — the Theorem 3 construction: a schema becomes an
//!   ALCQI TBox (concept names = named types, roles = relationship
//!   fields, inverse roles for the `ForTarget` directives, disjointness +
//!   covering axioms for "every node has exactly one object type").
//!   `@distinct`, `@noLoops`, scalar fields and `@key`s are dropped — the
//!   paper proves they do not affect satisfiability.
//! * [`tableau`] — a completion-tree calculus for ALCQI with qualified
//!   number restrictions, inverse roles and pairwise blocking. Decides
//!   *unrestricted* satisfiability (models may be infinite).
//! * [`finite`] — a bounded finite-model search: satisfiability at size
//!   `k` is encoded propositionally and handed to the DPLL solver; on
//!   success the model is decoded into an actual witness
//!   [`pgraph::PropertyGraph`] that *strongly satisfies* the schema
//!   (verified via `pg-schema`'s validator in the tests).
//!
//! The two semantics genuinely differ: Property Graphs are finite, and
//! ALCQI does not have the finite-model property. Diagram (b) of the
//! paper's §6.2 is the canonical witness — satisfiable only by an
//! infinite chain. [`check_object_type`] therefore reports a three-valued
//! [`Satisfiability`].
//!
//! [`reduction`] implements the Theorem 2 NP-hardness construction
//! (CNF-SAT ⟶ object-type satisfiability) executably; agreement between
//! the DPLL oracle and the reduction-plus-reasoner pipeline is
//! property-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concept;
pub mod extended;
pub mod finite;
pub mod reduction;
pub mod tableau;
pub mod translate;

pub use extended::{check, check_field_satisfiable, check_type_satisfiable};

use pg_schema::PgSchema;

/// The outcome of an object-type satisfiability check.
#[derive(Debug, Clone)]
pub enum Satisfiability {
    /// A finite witness exists (and is returned): the paper's notion of
    /// satisfiability, since Property Graphs are finite.
    Satisfiable {
        /// A Property Graph that strongly satisfies the schema and
        /// contains a node of the queried type.
        witness: pgraph::PropertyGraph,
        /// Number of nodes in the witness.
        size: usize,
    },
    /// Provably unsatisfiable (the tableau closed): no model at all, in
    /// particular no finite one.
    Unsatisfiable,
    /// No finite model up to `bound`. `tableau_satisfiable`
    /// distinguishes "infinite models exist" (diagram (b) of §6.2) from
    /// "the tableau ran out of steps".
    NoFiniteModelFound {
        /// The largest size the finite search fully refuted: the size
        /// bound, or less when the step budget ran out first.
        bound: usize,
        /// `Some(true)`: the tableau found an (infinite) model;
        /// `Some(false)` cannot occur here (that is `Unsatisfiable`);
        /// `None`: the tableau ran out of steps.
        tableau_satisfiable: Option<bool>,
    },
}

impl Satisfiability {
    /// True if a finite witness was found.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, Satisfiability::Satisfiable { .. })
    }

    /// True if provably unsatisfiable.
    pub fn is_unsatisfiable(&self) -> bool {
        matches!(self, Satisfiability::Unsatisfiable)
    }
}

/// Resource limits for the combined check.
#[derive(Debug, Clone, Copy)]
pub struct ReasonerConfig {
    /// Largest finite-model size to try (nodes).
    pub max_graph_size: usize,
    /// The steps each of the two searches may spend. The tableau pays one
    /// per generated node and tried branch; running out is
    /// [`tableau::TableauOutcome::ResourceLimit`]. The finite search pays
    /// `k²` for each size `k` and one per CDCL conflict; running out ends
    /// it at the largest size it fully refuted.
    pub max_steps: u64,
}

impl Default for ReasonerConfig {
    fn default() -> Self {
        ReasonerConfig {
            max_graph_size: 8,
            max_steps: 30_000,
        }
    }
}

/// Decides the Object-Type Satisfiability Problem for `ot_name`.
///
/// Strategy: try the tableau first (a closed tableau settles
/// *unsatisfiable* outright); otherwise search for a finite witness of
/// increasing size; report [`Satisfiability::NoFiniteModelFound`] when
/// the size bound or the step budget is exhausted. Both searches run on
/// the caller's thread.
pub fn check_object_type(
    schema: &PgSchema,
    ot_name: &str,
    config: &ReasonerConfig,
) -> Satisfiability {
    let tbox = translate::translate(schema);
    let tableau_satisfiable = match tableau::check_concept_by_name(&tbox, ot_name, config) {
        tableau::TableauOutcome::Unsatisfiable => return Satisfiability::Unsatisfiable,
        tableau::TableauOutcome::Satisfiable => Some(true),
        tableau::TableauOutcome::ResourceLimit => None,
    };
    match finite::search(schema, ot_name, config) {
        Ok(witness) => Satisfiability::Satisfiable {
            size: witness.node_count(),
            witness,
        },
        Err(bound) => Satisfiability::NoFiniteModelFound {
            bound,
            tableau_satisfiable,
        },
    }
}
