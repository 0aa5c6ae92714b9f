//! A CDCL solver: two-watched-literal propagation, first-UIP conflict
//! analysis with clause learning and non-chronological backjumping,
//! VSIDS-style activity ordering with phase saving, and geometric
//! restarts.
//!
//! This is the production solver behind the bounded finite-model search;
//! the plain DPLL solver remains as the cross-checking baseline (the
//! solver-ablation experiment in EXPERIMENTS.md compares them).

use crate::cnf::{Cnf, Lit};

/// Statistics of one CDCL run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdclStats {
    /// Branching decisions.
    pub decisions: u64,
    /// Literals assigned by unit propagation.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Clauses learned.
    pub learned: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// The step allowance of a bounded search. Each unit of work spends its
/// steps, and the search stops with [`OutOfSteps`] when too few are left.
/// A caller that needs a complete answer grants `u64::MAX` steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget(u64);

/// A bounded search spent its whole [`Budget`] without reaching a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfSteps;

impl Budget {
    /// An allowance of `steps` steps.
    pub fn new(steps: u64) -> Budget {
        Budget(steps)
    }

    /// Spends `steps` steps, or reports that fewer are left.
    pub fn spend(&mut self, steps: u64) -> Result<(), OutOfSteps> {
        self.0 = self.0.checked_sub(steps).ok_or(OutOfSteps)?;
        Ok(())
    }
}

/// Decides satisfiability with CDCL, spending one step of `budget` per
/// conflict: `Ok(Some(model))` if satisfiable, `Ok(None)` if not.
pub fn solve_cdcl(cnf: &Cnf, budget: &mut Budget) -> Result<Option<Vec<bool>>, OutOfSteps> {
    solve_cdcl_with_stats(cnf, budget).0
}

/// Like [`solve_cdcl`], also returning statistics.
pub fn solve_cdcl_with_stats(
    cnf: &Cnf,
    budget: &mut Budget,
) -> (Result<Option<Vec<bool>>, OutOfSteps>, CdclStats) {
    let mut solver = Solver::new(cnf);
    let sat = match solver.preprocess(cnf) {
        Preprocess::Unsat => Ok(false),
        Preprocess::Ready => solver.run(budget),
    };
    let model = sat.map(|sat| {
        sat.then(|| {
            let model: Vec<bool> = solver.assign.iter().map(|a| a.unwrap_or(false)).collect();
            debug_assert!(cnf.eval(&model));
            model
        })
    });
    (model, solver.stats)
}

/// Literal index into watch lists: `var * 2 + sign`.
fn lit_ix(l: Lit) -> usize {
    l.var() * 2 + usize::from(l.is_neg())
}

enum Preprocess {
    Ready,
    Unsat,
}

struct Clause {
    lits: Vec<Lit>,
    /// Learned clauses may be garbage in future extensions; kept simple.
    #[allow(dead_code)]
    learned: bool,
}

struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit_ix] = clause indexes watching that literal.
    watches: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Reason clause per variable (None for decisions).
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    /// trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Saved phase per variable.
    phase: Vec<bool>,
    stats: CdclStats,
    conflicts_until_restart: u64,
    restart_interval: u64,
}

impl Solver {
    fn new(cnf: &Cnf) -> Self {
        let n = cnf.num_vars();
        Solver {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); n * 2],
            assign: vec![None; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            act_inc: 1.0,
            phase: vec![false; n],
            stats: CdclStats::default(),
            conflicts_until_restart: 100,
            restart_interval: 100,
        }
    }

    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var()].map(|v| v ^ l.is_neg())
    }

    fn preprocess(&mut self, cnf: &Cnf) -> Preprocess {
        for c in cnf.clauses() {
            // Deduplicate; drop tautologies.
            let mut lits = c.clone();
            lits.sort();
            lits.dedup();
            if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
                continue; // x ∨ ¬x — tautology
            }
            match lits.len() {
                0 => return Preprocess::Unsat,
                1 => match self.value(lits[0]) {
                    Some(false) => return Preprocess::Unsat,
                    Some(true) => {}
                    None => self.enqueue(lits[0], None),
                },
                _ => {
                    self.add_clause(lits, false);
                }
            }
        }
        if self.propagate().is_some() {
            return Preprocess::Unsat;
        }
        Preprocess::Ready
    }

    fn add_clause(&mut self, lits: Vec<Lit>, learned: bool) -> usize {
        debug_assert!(lits.len() >= 2);
        let ix = self.clauses.len();
        self.watches[lit_ix(lits[0])].push(ix);
        self.watches[lit_ix(lits[1])].push(ix);
        self.clauses.push(Clause { lits, learned });
        ix
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert!(self.value(l).is_none());
        self.assign[l.var()] = Some(!l.is_neg());
        self.level[l.var()] = self.decision_level();
        self.reason[l.var()] = reason;
        self.phase[l.var()] = !l.is_neg();
        self.trail.push(l);
    }

    /// Propagates to fixpoint; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Clauses watching ¬p must find a new watch or propagate.
            let false_lit = p.negated();
            let mut watch_list = std::mem::take(&mut self.watches[lit_ix(false_lit)]);
            let mut i = 0;
            while i < watch_list.len() {
                let cix = watch_list[i];
                // Ensure the false literal is at position 1.
                {
                    let lits = &mut self.clauses[cix].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                }
                // Satisfied via the other watch?
                let first = self.clauses[cix].lits[0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Find a replacement watch.
                let mut moved = false;
                let len = self.clauses[cix].lits.len();
                for k in 2..len {
                    let candidate = self.clauses[cix].lits[k];
                    if self.value(candidate) != Some(false) {
                        self.clauses[cix].lits.swap(1, k);
                        self.watches[lit_ix(candidate)].push(cix);
                        watch_list.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // No replacement: clause is unit or conflicting on first.
                match self.value(first) {
                    None => {
                        self.enqueue(first, Some(cix));
                        i += 1;
                    }
                    Some(false) => {
                        // Conflict: restore the watch list and report.
                        self.watches[lit_ix(false_lit)] = watch_list;
                        return Some(cix);
                    }
                    Some(true) => unreachable!("handled above"),
                }
            }
            self.watches[lit_ix(false_lit)] = watch_list;
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.act_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    fn decay(&mut self) {
        self.act_inc /= 0.95;
    }

    /// First-UIP conflict analysis (the MiniSat scheme). Returns
    /// (learned clause, backjump level); the asserting literal is first.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learned: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.assign.len()];
        let mut counter = 0usize; // current-level literals still open
        let mut pivot: Option<Lit> = None;
        let mut cix = conflict;
        let mut trail_pos = self.trail.len();
        let asserting = loop {
            let clause_lits = self.clauses[cix].lits.clone();
            for l in clause_lits {
                // Skip the pivot we are resolving on (it occurs positively
                // in its own reason clause).
                if Some(l) == pivot {
                    continue;
                }
                let v = l.var();
                if seen[v] || self.level[v] == 0 {
                    continue;
                }
                seen[v] = true;
                self.bump(v);
                if self.level[v] == current {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Next seen literal, walking the trail backwards.
            loop {
                trail_pos -= 1;
                if seen[self.trail[trail_pos].var()] {
                    break;
                }
            }
            let l = self.trail[trail_pos];
            seen[l.var()] = false;
            counter -= 1;
            if counter == 0 {
                break l; // the first UIP
            }
            cix = self.reason[l.var()].expect("non-decision literal has a reason");
            pivot = Some(l);
        };
        learned.insert(0, asserting.negated());

        // Backjump level = max level among the non-asserting literals.
        let bj = learned
            .iter()
            .skip(1)
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        (learned, bj)
    }

    fn backjump(&mut self, level: u32) {
        if let Some(&start) = self.trail_lim.get(level as usize) {
            for l in self.trail.drain(start..) {
                self.assign[l.var()] = None;
                self.reason[l.var()] = None;
            }
            self.trail_lim.truncate(level as usize);
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v].is_none() && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best.map(|v| {
            if self.phase[v] {
                Lit::pos(v)
            } else {
                Lit::neg(v)
            }
        })
    }

    fn run(&mut self, budget: &mut Budget) -> Result<bool, OutOfSteps> {
        loop {
            if let Some(conflict) = self.propagate() {
                budget.spend(1)?;
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    return Ok(false);
                }
                let (learned, bj) = self.analyze(conflict);
                self.backjump(bj);
                let asserting = learned[0];
                if learned.len() == 1 {
                    debug_assert_eq!(self.decision_level(), 0);
                    if self.value(asserting) == Some(false) {
                        return Ok(false);
                    }
                    if self.value(asserting).is_none() {
                        self.enqueue(asserting, None);
                    }
                } else {
                    let cix = self.add_clause(learned, true);
                    self.stats.learned += 1;
                    self.enqueue(asserting, Some(cix));
                }
                self.decay();
                if self.stats.conflicts >= self.conflicts_until_restart {
                    self.restart_interval = (self.restart_interval as f64 * 1.5) as u64;
                    self.conflicts_until_restart = self.stats.conflicts + self.restart_interval;
                    self.stats.restarts += 1;
                    self.backjump(0);
                }
            } else {
                match self.pick_branch() {
                    None => return Ok(true), // all assigned, no conflict
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_ksat, KsatParams};
    use crate::solver::solve;

    fn clause(lits: &[i32]) -> Vec<Lit> {
        lits.iter()
            .map(|&v| {
                let var = v.unsigned_abs() as usize - 1;
                if v > 0 {
                    Lit::pos(var)
                } else {
                    Lit::neg(var)
                }
            })
            .collect()
    }

    fn cnf(num_vars: usize, clauses: &[&[i32]]) -> Cnf {
        let mut c = Cnf::new(num_vars);
        for cl in clauses {
            c.add_clause(clause(cl));
        }
        c
    }

    /// A complete answer: `u64::MAX` steps do not run out.
    fn solve_all(cnf: &Cnf) -> Option<Vec<bool>> {
        solve_cdcl(cnf, &mut Budget::new(u64::MAX)).expect("unbounded budget")
    }

    #[test]
    fn trivial_cases() {
        assert!(solve_all(&Cnf::new(0)).is_some());
        assert!(solve_all(&Cnf::new(5)).is_some());
        let mut c = Cnf::new(1);
        c.add_clause([]);
        assert!(solve_all(&c).is_none());
    }

    #[test]
    fn unit_chain() {
        let c = cnf(3, &[&[1], &[-1, 2], &[-2, 3]]);
        assert_eq!(solve_all(&c).unwrap(), vec![true, true, true]);
    }

    #[test]
    fn direct_contradiction() {
        assert!(solve_all(&cnf(1, &[&[1], &[-1]])).is_none());
    }

    #[test]
    fn tautologies_are_ignored() {
        let c = cnf(2, &[&[1, -1], &[2]]);
        let m = solve_all(&c).unwrap();
        assert!(m[1]);
    }

    #[test]
    fn duplicate_literals_are_deduplicated() {
        let c = cnf(2, &[&[1, 1, 2], &[-1, -1]]);
        let m = solve_all(&c).unwrap();
        assert!(!m[0]);
        assert!(m[1]);
    }

    fn pigeonhole(pigeons: usize, holes: usize) -> Cnf {
        let var = |p: usize, h: usize| p * holes + h;
        let mut c = Cnf::new(pigeons * holes);
        for p in 0..pigeons {
            c.add_clause((0..holes).map(|h| Lit::pos(var(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    c.add_clause([Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        c
    }

    #[test]
    fn pigeonhole_unsat_instances() {
        assert!(solve_all(&pigeonhole(2, 1)).is_none());
        assert!(solve_all(&pigeonhole(4, 3)).is_none());
        assert!(solve_all(&pigeonhole(6, 5)).is_none());
        // And the satisfiable direction.
        assert!(solve_all(&pigeonhole(3, 3)).is_some());
    }

    #[test]
    fn agrees_with_dpll_on_random_3sat() {
        for seed in 0..40 {
            for ratio10 in [20u64, 43, 60] {
                let f = random_ksat(&KsatParams::three_sat(
                    12,
                    ratio10 as f64 / 10.0,
                    seed * 1000 + ratio10,
                ));
                let dpll_sat = solve(&f).is_some();
                let cdcl = solve_all(&f);
                assert_eq!(
                    dpll_sat,
                    cdcl.is_some(),
                    "solvers disagree on seed {seed} ratio {ratio10}: {f}"
                );
                if let Some(m) = cdcl {
                    assert!(f.eval(&m), "CDCL model does not satisfy: {f}");
                }
            }
        }
    }

    #[test]
    fn handles_larger_satisfiable_instances() {
        let f = random_ksat(&KsatParams::three_sat(150, 3.0, 7));
        let (model, stats) = solve_cdcl_with_stats(&f, &mut Budget::new(u64::MAX));
        let m = model.unwrap().expect("low-ratio instance should be SAT");
        assert!(f.eval(&m));
        assert!(stats.decisions > 0);
    }

    #[test]
    fn handles_larger_unsat_instances() {
        let f = random_ksat(&KsatParams::three_sat(60, 8.0, 3));
        let (model, stats) = solve_cdcl_with_stats(&f, &mut Budget::new(u64::MAX));
        assert_eq!(model, Ok(None));
        assert!(stats.conflicts > 0);
        assert!(stats.learned > 0);
    }

    #[test]
    fn restarts_fire_on_hard_instances() {
        let f = pigeonhole(7, 6);
        let (model, stats) = solve_cdcl_with_stats(&f, &mut Budget::new(u64::MAX));
        assert_eq!(model, Ok(None));
        assert!(stats.restarts > 0, "{stats:?}");
    }

    #[test]
    fn every_conflict_spends_a_step() {
        let f = pigeonhole(7, 6);
        let (model, stats) = solve_cdcl_with_stats(&f, &mut Budget::new(10));
        assert_eq!(model, Err(OutOfSteps));
        assert_eq!(stats.conflicts, 10);
    }

    #[test]
    fn phase_transition_instances() {
        let mut disagreements = 0;
        for seed in 100..120 {
            let f = random_ksat(&KsatParams::three_sat(20, 4.27, seed));
            if solve(&f).is_some() != solve_all(&f).is_some() {
                disagreements += 1;
            }
        }
        assert_eq!(disagreements, 0);
    }
}
