//! A completion-tree tableau for ALCQI — the decision procedure behind
//! Theorem 3.
//!
//! The paper's Theorem 3 places object-type satisfiability in PSPACE by
//! translating the schema into an ALCQI TBox (see
//! [`translate`](crate::translate)) and appealing to a decision
//! procedure for that logic; this module *is* that procedure.
//!
//! Decides concept satisfiability w.r.t. the (internalised) TBox, i.e.
//! *unrestricted* satisfiability — models may be infinite; termination on
//! infinite-model schemas comes from **pairwise blocking** (required in
//! the presence of inverse roles and number restrictions).
//!
//! The calculus is the standard one for SHIQ restricted to ALCQI:
//!
//! * ⊓-, ⊔-rules; the TBox rule adds every internalised global constraint
//!   to every node;
//! * ∀-rule over role neighbours (successors and, via inverse, the
//!   predecessor);
//! * ≥-rule: generate `n` fresh, pairwise-distinct successors (only on
//!   non-blocked nodes);
//! * choose-rule: every neighbour of a `≤n R.C` node decides `C` vs `¬C`;
//! * ≤-rule: too many `R.C`-neighbours → merge a non-distinct pair
//!   (with pruning, and edge rewiring when merging into the predecessor);
//!   all pairwise distinct → clash.
//!
//! Nondeterminism (⊔, choose, merge-pair selection) is explored depth
//! first over an explicit stack of open choice points, each holding the
//! state it was reached in, on the caller's thread. One step budget,
//! [`crate::ReasonerConfig::max_steps`], bounds the whole search.

use std::collections::BTreeSet;

use dpll::{Budget, OutOfSteps};

use crate::concept::{Concept, Role, TBox};
use crate::ReasonerConfig;

/// The three-valued tableau outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableauOutcome {
    /// A complete, clash-free completion tree exists: the concept is
    /// satisfiable (possibly only in an infinite model).
    Satisfiable,
    /// Every branch closes: unsatisfiable.
    Unsatisfiable,
    /// The step budget ran out before a verdict.
    ResourceLimit,
}

/// Checks satisfiability of the named concept w.r.t. the TBox. A name
/// never interned in the TBox denotes a fresh concept, which (with the
/// covering axiom over object types) is unsatisfiable for schema TBoxes.
pub fn check_concept_by_name(tbox: &TBox, name: &str, config: &ReasonerConfig) -> TableauOutcome {
    match tbox.find_concept(name) {
        Some(id) => check_concept(tbox, &Concept::Name(id), config),
        None => TableauOutcome::Unsatisfiable,
    }
}

/// Checks satisfiability of an arbitrary concept w.r.t. the TBox,
/// spending at most `config.max_steps` steps: one per generated node and
/// tried branch.
pub fn check_concept(tbox: &TBox, concept: &Concept, config: &ReasonerConfig) -> TableauOutcome {
    let mut budget = Budget::new(config.max_steps);
    match search(tbox, State::new(concept.clone()), &mut budget) {
        Ok(true) => TableauOutcome::Satisfiable,
        Ok(false) => TableauOutcome::Unsatisfiable,
        Err(OutOfSteps) => TableauOutcome::ResourceLimit,
    }
}

#[derive(Clone)]
struct NodeData {
    label: BTreeSet<Concept>,
    parent: Option<usize>,
    /// Roles `r` with `parent --r--> self`.
    edge_roles: BTreeSet<Role>,
    children: Vec<usize>,
    distinct_from: BTreeSet<usize>,
    alive: bool,
}

#[derive(Clone)]
struct State {
    nodes: Vec<NodeData>,
}

impl State {
    fn new(root_concept: Concept) -> Self {
        let mut label = BTreeSet::new();
        label.insert(root_concept.simplify());
        State {
            nodes: vec![NodeData {
                label,
                parent: None,
                edge_roles: BTreeSet::new(),
                children: Vec::new(),
                distinct_from: BTreeSet::new(),
                alive: true,
            }],
        }
    }

    fn alive_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].alive)
    }

    /// All `role`-neighbours of `x`: children reached by `role`, plus the
    /// parent if the inverse role labels the edge into `x`.
    fn neighbours(&self, x: usize, role: Role) -> Vec<usize> {
        let mut out = Vec::new();
        for &c in &self.nodes[x].children {
            if self.nodes[c].alive && self.nodes[c].edge_roles.contains(&role) {
                out.push(c);
            }
        }
        if let Some(p) = self.nodes[x].parent {
            if self.nodes[p].alive && self.nodes[x].edge_roles.contains(&role.inverted()) {
                out.push(p);
            }
        }
        out
    }

    fn distinct(&self, a: usize, b: usize) -> bool {
        self.nodes[a].distinct_from.contains(&b)
    }

    fn mark_distinct(&mut self, a: usize, b: usize) {
        self.nodes[a].distinct_from.insert(b);
        self.nodes[b].distinct_from.insert(a);
    }

    fn add_child(&mut self, parent: usize, role: Role, concepts: Vec<Concept>) -> usize {
        let ix = self.nodes.len();
        let mut label = BTreeSet::new();
        for c in concepts {
            label.insert(c.simplify());
        }
        let mut edge_roles = BTreeSet::new();
        edge_roles.insert(role);
        self.nodes.push(NodeData {
            label,
            parent: Some(parent),
            edge_roles,
            children: Vec::new(),
            distinct_from: BTreeSet::new(),
            alive: true,
        });
        self.nodes[parent].children.push(ix);
        ix
    }

    /// Removes `y` and its whole subtree.
    fn prune(&mut self, y: usize) {
        let mut stack = vec![y];
        while let Some(n) = stack.pop() {
            self.nodes[n].alive = false;
            let children = std::mem::take(&mut self.nodes[n].children);
            stack.extend(children);
        }
    }

    /// Merges node `y` (a child of `x`) into `target`, which is either a
    /// sibling child of `x` or the parent of `x`. Returns false on a
    /// distinctness clash.
    fn merge(&mut self, x: usize, y: usize, target: usize) -> bool {
        if self.distinct(y, target) {
            return false;
        }
        let label: Vec<Concept> = self.nodes[y].label.iter().cloned().collect();
        self.nodes[target].label.extend(label);
        let distinct: Vec<usize> = self.nodes[y].distinct_from.iter().copied().collect();
        for d in distinct {
            self.mark_distinct(target, d);
        }
        if self.nodes[x].parent == Some(target) {
            // Merging a child into the predecessor: the edge x→y becomes
            // an edge x→parent, recorded as inverse roles on x's own edge.
            let roles: Vec<Role> = self.nodes[y].edge_roles.iter().copied().collect();
            for r in roles {
                self.nodes[x].edge_roles.insert(r.inverted());
            }
        } else {
            // Sibling merge: target keeps x as parent, unions edge roles.
            let roles: Vec<Role> = self.nodes[y].edge_roles.iter().copied().collect();
            self.nodes[target].edge_roles.extend(roles);
        }
        self.prune(y);
        true
    }

    /// Pairwise blocking: `x` (with parent `x'`) is directly blocked by an
    /// ancestor pair `(y, y')` with identical labels and edge roles.
    fn blocked(&self, x: usize) -> bool {
        let mut cur = x;
        // A node is blocked if it or any ancestor is directly blocked.
        loop {
            if self.directly_blocked(cur) {
                return true;
            }
            match self.nodes[cur].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    fn directly_blocked(&self, x: usize) -> bool {
        let Some(xp) = self.nodes[x].parent else {
            return false;
        };
        // Walk strict ancestors y of x (with their parents y').
        let mut y = xp;
        loop {
            let Some(yp) = self.nodes[y].parent else {
                return false;
            };
            if self.nodes[x].label == self.nodes[y].label
                && self.nodes[xp].label == self.nodes[yp].label
                && self.nodes[x].edge_roles == self.nodes[y].edge_roles
            {
                return true;
            }
            y = yp;
        }
    }

    /// Whether `c` in `x`'s label is, or would be, a clash: `⊥`, or a
    /// literal whose complement the label holds.
    fn clashes_with(&self, x: usize, c: &Concept) -> bool {
        let label = &self.nodes[x].label;
        match c {
            Concept::Bottom => true,
            Concept::Name(n) => label.contains(&Concept::NegName(*n)),
            Concept::NegName(n) => label.contains(&Concept::Name(*n)),
            _ => false,
        }
    }

    fn has_clash(&self) -> bool {
        self.alive_nodes()
            .any(|x| self.nodes[x].label.iter().any(|c| self.clashes_with(x, c)))
    }
}

/// One applicable rule instance found by the scanner.
enum Todo {
    AddToLabel(usize, Vec<Concept>),
    Generate {
        node: usize,
        n: u32,
        role: Role,
        concept: Concept,
    },
    Choice(Vec<Choice>),
    Clash,
}

/// One option of a nondeterministic rule.
enum Choice {
    /// Add the concept to the node's label (⊔- and choose-rule).
    Label(usize, Concept),
    /// `(x, keep, gone)`: merge `gone`, a child of `x`, into `keep`
    /// (≤-rule).
    Merge(usize, usize, usize),
}

/// Where the deterministic rules leave a branch.
enum Expansion {
    /// Complete and clash-free.
    Complete,
    /// A clash: the branch has no model.
    Closed,
    /// A nondeterministic rule applies.
    Choice(ChoicePoint),
}

/// An open choice point on the search stack: the state the search reached
/// it in, its options, and the next option to try.
struct ChoicePoint {
    state: State,
    options: Vec<Choice>,
    next: usize,
}

impl ChoicePoint {
    /// The state of the next untried option that applies, each tried
    /// option costing one step; `None` once every option was tried.
    fn next_branch(&mut self, budget: &mut Budget) -> Result<Option<State>, OutOfSteps> {
        while let Some(choice) = self.options.get(self.next) {
            self.next += 1;
            let branch = match choice {
                Choice::Label(x, concept) => {
                    let concept = concept.clone().simplify();
                    // A literal whose complement the label holds would
                    // close its branch before any rule runs: skip it,
                    // without a step or a clone.
                    if self.state.clashes_with(*x, &concept) {
                        continue;
                    }
                    budget.spend(1)?;
                    let mut branch = self.state.clone();
                    branch.nodes[*x].label.insert(concept);
                    branch
                }
                Choice::Merge(x, keep, gone) => {
                    budget.spend(1)?;
                    let mut branch = self.state.clone();
                    if !branch.merge(*x, *gone, *keep) {
                        continue;
                    }
                    branch
                }
            };
            return Ok(Some(branch));
        }
        Ok(None)
    }
}

/// Depth-first search for a complete, clash-free completion tree. The
/// open choice points live on an explicit stack, innermost last, so
/// the search does not recurse: a closed branch resumes at the
/// innermost choice point with an option left.
fn search(tbox: &TBox, root: State, budget: &mut Budget) -> Result<bool, OutOfSteps> {
    let mut open: Vec<ChoicePoint> = Vec::new();
    let mut state = root;
    loop {
        match expand(tbox, state, budget)? {
            Expansion::Complete => return Ok(true),
            Expansion::Closed => {}
            Expansion::Choice(choice) => open.push(choice),
        }
        state = loop {
            let Some(choice) = open.last_mut() else {
                return Ok(false); // every branch closed
            };
            match choice.next_branch(budget)? {
                Some(branch) => break branch,
                None => {
                    open.pop();
                }
            }
        };
    }
}

/// Applies deterministic rules to `state` until it closes, completes or
/// reaches a choice. Each generated node costs one step; the other
/// deterministic rules are free. Each of them adds a concept of the
/// TBox's finite closure to a label, so their number between two charged
/// steps is bounded by the tree's size.
fn expand(tbox: &TBox, mut state: State, budget: &mut Budget) -> Result<Expansion, OutOfSteps> {
    loop {
        if state.has_clash() {
            return Ok(Expansion::Closed);
        }
        let Some(todo) = find_todo(tbox, &state) else {
            return Ok(Expansion::Complete);
        };
        match todo {
            Todo::Clash => return Ok(Expansion::Closed),
            Todo::Choice(options) => {
                return Ok(Expansion::Choice(ChoicePoint {
                    state,
                    options,
                    next: 0,
                }))
            }
            Todo::AddToLabel(x, cs) => {
                for c in cs {
                    state.nodes[x].label.insert(c.simplify());
                }
            }
            Todo::Generate {
                node,
                n,
                role,
                concept,
            } => {
                let mut created = Vec::new();
                for _ in 0..n {
                    budget.spend(1)?;
                    created.push(state.add_child(node, role, vec![concept.clone()]));
                }
                for (i, &a) in created.iter().enumerate() {
                    for &b in created.iter().skip(i + 1) {
                        state.mark_distinct(a, b);
                    }
                }
            }
        }
    }
}

/// Deterministically scans for the first applicable rule.
fn find_todo(tbox: &TBox, state: &State) -> Option<Todo> {
    let alive: Vec<usize> = state.alive_nodes().collect();
    // TBox rule first: every node carries every global constraint.
    for &x in &alive {
        let missing: Vec<Concept> = tbox
            .globals
            .iter()
            .filter(|g| !state.nodes[x].label.contains(*g))
            .cloned()
            .collect();
        if !missing.is_empty() {
            return Some(Todo::AddToLabel(x, missing));
        }
    }
    // ⊓-rule.
    for &x in &alive {
        for c in &state.nodes[x].label {
            if let Concept::And(cs) = c {
                let missing: Vec<Concept> = cs
                    .iter()
                    .filter(|cc| !state.nodes[x].label.contains(*cc))
                    .cloned()
                    .collect();
                if !missing.is_empty() {
                    return Some(Todo::AddToLabel(x, missing));
                }
            }
        }
    }
    // ∀-rule.
    for &x in &alive {
        for c in &state.nodes[x].label {
            if let Concept::Forall(r, inner) = c {
                for y in state.neighbours(x, *r) {
                    if !state.nodes[y].label.contains(inner.as_ref()) {
                        return Some(Todo::AddToLabel(y, vec![(**inner).clone()]));
                    }
                }
            }
        }
    }
    // choose-rule (before ≤ so merges count correctly). Membership is
    // checked against the *simplified* forms — labels only ever hold
    // simplified concepts.
    for &x in &alive {
        for c in &state.nodes[x].label {
            if let Concept::AtMost(_, r, inner) = c {
                let neg = inner.negate().simplify();
                for y in state.neighbours(x, *r) {
                    let has_c = state.nodes[y].label.contains(inner.as_ref());
                    let has_not_c = state.nodes[y].label.contains(&neg);
                    if !has_c && !has_not_c {
                        let options = vec![
                            Choice::Label(y, (**inner).clone()),
                            Choice::Label(y, inner.negate()),
                        ];
                        return Some(Todo::Choice(options));
                    }
                }
            }
        }
    }
    // ⊔-rule.
    for &x in &alive {
        for c in &state.nodes[x].label {
            if let Concept::Or(cs) = c {
                if cs.iter().all(|cc| !state.nodes[x].label.contains(cc)) {
                    let options = cs.iter().map(|c| Choice::Label(x, c.clone())).collect();
                    return Some(Todo::Choice(options));
                }
            }
        }
    }
    // ≤-rule (merge) before ≥ (generate) to keep trees small.
    for &x in &alive {
        for c in &state.nodes[x].label {
            if let Concept::AtMost(n, r, inner) = c {
                let holders: Vec<usize> = state
                    .neighbours(x, *r)
                    .into_iter()
                    .filter(|&y| state.nodes[y].label.contains(inner.as_ref()))
                    .collect();
                if holders.len() > *n as usize {
                    // Candidate merge pairs (gone must be a child of
                    // x, so the parent — if among holders — can only
                    // be the `keep` side).
                    let mut pairs = Vec::new();
                    for (i, &a) in holders.iter().enumerate() {
                        for &b in holders.iter().skip(i + 1) {
                            if state.distinct(a, b) {
                                continue;
                            }
                            // The dropped side must be a child of x,
                            // so a parent among the pair is always the
                            // `keep` side.
                            let parent = state.nodes[x].parent;
                            if Some(b) == parent {
                                pairs.push(Choice::Merge(x, b, a));
                            } else {
                                pairs.push(Choice::Merge(x, a, b));
                            }
                        }
                    }
                    if pairs.is_empty() {
                        return Some(Todo::Clash);
                    }
                    return Some(Todo::Choice(pairs));
                }
            }
        }
    }
    // ≥-rule (generating; skipped on blocked nodes).
    for &x in &alive {
        if state.blocked(x) {
            continue;
        }
        for c in &state.nodes[x].label {
            if let Concept::AtLeast(n, r, inner) = c {
                let holders: Vec<usize> = state
                    .neighbours(x, *r)
                    .into_iter()
                    .filter(|&y| state.nodes[y].label.contains(inner.as_ref()))
                    .collect();
                // Satisfied if n pairwise-distinct holders exist. With
                // n ∈ {1, 2} a simple check suffices; for general n we
                // approximate by requiring n holders that are pairwise
                // distinct (conservative: may regenerate).
                let satisfied = count_pairwise_distinct(state, &holders) >= *n as usize;
                if !satisfied {
                    return Some(Todo::Generate {
                        node: x,
                        n: *n,
                        role: *r,
                        concept: (**inner).clone(),
                    });
                }
            }
        }
    }
    None
}

/// Size of a greedy pairwise-distinct subset of `nodes`.
fn count_pairwise_distinct(state: &State, nodes: &[usize]) -> usize {
    let mut chosen: Vec<usize> = Vec::new();
    for &n in nodes {
        if chosen.iter().all(|&c| state.distinct(c, n)) {
            chosen.push(n);
        }
    }
    // Any single node is a distinct set of size 1.
    chosen.len().max(usize::from(!nodes.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::TBox;

    fn cfg() -> ReasonerConfig {
        ReasonerConfig::default()
    }

    #[test]
    fn atomic_concept_is_satisfiable_in_empty_tbox() {
        let mut tb = TBox::new();
        let a = tb.concept("A");
        assert_eq!(check_concept(&tb, &a, &cfg()), TableauOutcome::Satisfiable);
    }

    #[test]
    fn bottom_is_unsatisfiable() {
        let tb = TBox::new();
        assert_eq!(
            check_concept(&tb, &Concept::Bottom, &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn contradiction_is_unsatisfiable() {
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let c = Concept::And(vec![a.clone(), a.negate()]);
        assert_eq!(
            check_concept(&tb, &c, &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn tbox_subsumption_propagates() {
        // A ⊑ B, query A ⊓ ¬B → unsat.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let b = tb.concept("B");
        tb.add_subsumption(a.clone(), b.clone());
        let q = Concept::And(vec![a.clone(), b.negate()]);
        assert_eq!(
            check_concept(&tb, &q, &cfg()),
            TableauOutcome::Unsatisfiable
        );
        assert_eq!(check_concept(&tb, &a, &cfg()), TableauOutcome::Satisfiable);
    }

    #[test]
    fn existential_creates_successor_with_forall_clash() {
        // ∃r.A ⊓ ∀r.¬A → unsat.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let r = tb.role("r");
        let q = Concept::And(vec![
            Concept::exists(r, a.clone()),
            Concept::Forall(r, Box::new(a.negate())),
        ]);
        assert_eq!(
            check_concept(&tb, &q, &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn disjunction_branches() {
        // (A ⊔ B) ⊓ ¬A → satisfiable via B.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let b = tb.concept("B");
        let q = Concept::And(vec![Concept::Or(vec![a.clone(), b]), a.negate()]);
        assert_eq!(check_concept(&tb, &q, &cfg()), TableauOutcome::Satisfiable);
    }

    #[test]
    fn at_most_zero_with_exists_clashes() {
        // ∃r.A ⊓ ≤0 r.A → unsat.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let r = tb.role("r");
        let q = Concept::And(vec![
            Concept::exists(r, a.clone()),
            Concept::AtMost(0, r, Box::new(a)),
        ]);
        assert_eq!(
            check_concept(&tb, &q, &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn at_most_one_merges_two_existentials() {
        // ∃r.(A ⊓ B) ⊓ ∃r.(A ⊓ C) ⊓ ≤1 r.A → satisfiable by merging.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let b = tb.concept("B");
        let c = tb.concept("C");
        let r = tb.role("r");
        let q = Concept::And(vec![
            Concept::exists(r, Concept::And(vec![a.clone(), b])),
            Concept::exists(r, Concept::And(vec![a.clone(), c])),
            Concept::AtMost(1, r, Box::new(a)),
        ]);
        assert_eq!(check_concept(&tb, &q, &cfg()), TableauOutcome::Satisfiable);
    }

    #[test]
    fn at_most_one_with_disjoint_successors_clashes() {
        // ∃r.(A ⊓ B) ⊓ ∃r.(A ⊓ ¬B) ⊓ ≤1 r.A → merge forces B ⊓ ¬B.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let b = tb.concept("B");
        let r = tb.role("r");
        let q = Concept::And(vec![
            Concept::exists(r, Concept::And(vec![a.clone(), b.clone()])),
            Concept::exists(r, Concept::And(vec![a.clone(), b.negate()])),
            Concept::AtMost(1, r, Box::new(a)),
        ]);
        assert_eq!(
            check_concept(&tb, &q, &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn inverse_roles_propagate_to_predecessor() {
        // A ⊓ ∃r.(∀r⁻.B) ⊓ ¬B → the successor's ∀r⁻.B forces B on the
        // root → clash with ¬B.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let b = tb.concept("B");
        let r = tb.role("r");
        let q = Concept::And(vec![
            a,
            Concept::exists(r, Concept::Forall(r.inverted(), Box::new(b.clone()))),
            b.negate(),
        ]);
        assert_eq!(
            check_concept(&tb, &q, &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn infinite_model_terminates_via_blocking() {
        // A ⊑ ∃r.A with query A: only infinite r-chains (or cycles —
        // allowed in unrestricted models) satisfy it; blocking must
        // terminate with Satisfiable.
        let mut tb = TBox::new();
        let a = tb.concept("A");
        let r = tb.role("r");
        tb.add_subsumption(a.clone(), Concept::exists(r, a.clone()));
        assert_eq!(check_concept(&tb, &a, &cfg()), TableauOutcome::Satisfiable);
        // The same search with too few steps to reach the blocked tree.
        let tight = ReasonerConfig {
            max_steps: 3,
            ..cfg()
        };
        assert_eq!(
            check_concept(&tb, &a, &tight),
            TableauOutcome::ResourceLimit
        );
    }

    #[test]
    fn unknown_concept_name_is_unsat_by_convention() {
        let tb = TBox::new();
        assert_eq!(
            check_concept_by_name(&tb, "Ghost", &cfg()),
            TableauOutcome::Unsatisfiable
        );
    }

    #[test]
    fn functionality_with_inverse_chain() {
        // The diagram (c) pattern in miniature:
        //   OT2 ⊑ ∃f.OT1           (OT2 points to an OT1)
        //   OT1 ⊑ ∃f⁻.OT3          (every OT1 has an OT3 pointer)
        //   OT1 ⊑ ≤1 f⁻.IT        (≤1 incoming from IT)
        //   OT2 ⊑ IT, OT3 ⊑ IT    (via equivalence-free subsumptions)
        //   OT2 ⊓ OT3 ⊑ ⊥
        // → OT2 unsatisfiable.
        let mut tb = TBox::new();
        let ot1 = tb.concept("OT1");
        let ot2 = tb.concept("OT2");
        let ot3 = tb.concept("OT3");
        let it = tb.concept("IT");
        let f = tb.role("f");
        tb.add_subsumption(ot2.clone(), Concept::exists(f, ot1.clone()));
        tb.add_subsumption(ot1.clone(), Concept::exists(f.inverted(), ot3.clone()));
        tb.add_subsumption(
            ot1.clone(),
            Concept::AtMost(1, f.inverted(), Box::new(it.clone())),
        );
        tb.add_subsumption(ot2.clone(), it.clone());
        tb.add_subsumption(ot3.clone(), it.clone());
        tb.add_subsumption(
            Concept::And(vec![ot2.clone(), ot3.clone()]),
            Concept::Bottom,
        );
        assert_eq!(
            check_concept(&tb, &ot2, &cfg()),
            TableauOutcome::Unsatisfiable
        );
        // OT3 alone is fine.
        assert_eq!(
            check_concept(&tb, &ot3, &cfg()),
            TableauOutcome::Satisfiable
        );
    }
}
