//! The structural DPLL(T) walk: an independent LIA search kept only as a
//! differential-testing oracle for the CDCL(T) engine.
//!
//! Product code decides formulas through [`crate::solver::Solver`], which
//! always runs [`crate::cdcl`]; nothing in the solving pipeline can select
//! this walk.  The differential tests and the smoke-fuzzer call
//! [`structural_solve`] directly and compare its verdicts with the engine's.
//!
//! The search walks the Boolean structure of the (negation-normal-form)
//! formula, accumulating a conjunction of asserted linear constraints.  At
//! every disjunction it branches; before branching and at every leaf it asks
//! the theory solver ([`crate::simplex`] for the rational relaxation,
//! [`crate::intfeas`] for integer feasibility) whether the current
//! conjunction is still consistent.  Before each branch, bound propagation
//! drops disjuncts the asserted bounds refute and asserts disjuncts that
//! became forced, without consuming decisions.
//!
//! The walk is sound for both answers: `Sat` comes with a model, and
//! `Unsat` is only reported when every branch was refuted by the theory
//! without hitting a resource limit.  Resource exhaustion, cancellation and
//! arithmetic overflow yield [`SolverResult::Unknown`].

use crate::bounds::{BoundEnv, BoundOutcome, ConstraintIndex};
use crate::cancel::CancelToken;
use crate::formula::{Atom, Cmp, Formula};
use crate::intfeas::{solve_integer, IntFeasConfig, IntFeasResult};
use crate::simplex::{IncrementalSimplex, Rel, SimplexConstraint};
use crate::solver::{solve_guarded, Model, SolverResult};
use crate::term::LinExpr;

/// The decision cap the differential callers use: a backstop against
/// runaway searches well above what their generated formulas need.
pub const MAX_DECISIONS: usize = 4_000;

/// Decides a quantifier-free LIA formula with the structural DPLL(T) walk.
///
/// Explores at most `max_decisions` disjunction branches and polls `cancel`
/// at every decision; either limit yields `Unknown`.
pub fn structural_solve(
    formula: &Formula,
    max_decisions: usize,
    cancel: &CancelToken,
) -> SolverResult {
    solve_guarded(formula, |nnf| {
        let mut search = Search {
            max_decisions,
            cancel,
            int_config: IntFeasConfig::default(),
            decisions: 0,
            steps: 0,
            saw_resource_out: false,
            cancelled: false,
            tableau: SessionSimplex::default(),
        };
        match search.explore(&mut Vec::new(), &mut vec![nnf.clone()]) {
            Some(model) => SolverResult::Sat(model),
            None if search.cancelled => SolverResult::Unknown(cancel.unknown_reason()),
            None if search.saw_resource_out => {
                SolverResult::Unknown("resource limit reached".to_string())
            }
            None => SolverResult::Unsat,
        }
    })
}

/// How many worklist steps pass between cancellation polls on straight-line
/// (disjunction-free) stretches.  Disjunction decisions always poll.
const CANCEL_POLL_INTERVAL: usize = 64;

struct Search<'a> {
    max_decisions: usize,
    cancel: &'a CancelToken,
    int_config: IntFeasConfig,
    decisions: usize,
    steps: usize,
    saw_resource_out: bool,
    cancelled: bool,
    /// Session-local incremental tableau for the pre-branch rational
    /// feasibility checks: the DFS re-checks clone-and-extend prefixes of
    /// the same asserted conjunction, so each check retracts to the common
    /// prefix with the previous one and asserts only the new suffix,
    /// warm-starting the pivoting from the shared basis.
    tableau: SessionSimplex,
}

impl Search<'_> {
    /// Explores the remaining `worklist` under the constraints already in
    /// `asserted`; returns a model if a satisfying leaf is found.
    fn explore(
        &mut self,
        asserted: &mut Vec<SimplexConstraint>,
        worklist: &mut Vec<Formula>,
    ) -> Option<Model> {
        loop {
            if self.cancel.can_fire() {
                self.steps += 1;
                if self.steps.is_multiple_of(CANCEL_POLL_INTERVAL) && self.cancel.is_cancelled() {
                    self.cancelled = true;
                    return None;
                }
            }
            // assert unit conjuncts before branching on any disjunction: the
            // theory-level pruning then has the full conjunctive context and
            // cuts refuted branches much earlier
            let next_index = worklist.iter().rposition(|f| !matches!(f, Formula::Or(_)));
            let Some(next) = next_index.map(|i| worklist.remove(i)) else {
                if worklist.is_empty() {
                    // leaf: integer feasibility of the asserted conjunction,
                    // with a cheap bound-propagation refutation first
                    if let (_, BoundOutcome::Refuted) = BoundEnv::from_constraints(asserted) {
                        return None;
                    }
                    return match solve_integer(asserted, &self.int_config) {
                        IntFeasResult::Sat(values) => Some(Model::from_values(values)),
                        IntFeasResult::Unsat => None,
                        IntFeasResult::ResourceOut => {
                            self.saw_resource_out = true;
                            None
                        }
                    };
                }
                // only disjunctions left: propagate, then branch.  Unit
                // propagation drops every disjunct whose implied unit atoms
                // contradict the asserted bounds (sound: bound refutation
                // implies integer infeasibility) and asserts disjuncts that
                // became forced, without consuming decisions.  Without this
                // the flow formulas of the Parikh encodings — many binary
                // disjunctions coupled through shared counters — take
                // exponential search to refute.
                let (env, outcome) = BoundEnv::from_constraints(asserted);
                if outcome == BoundOutcome::Refuted {
                    return None;
                }
                let index = ConstraintIndex::build(asserted);
                let mut forced = false;
                let mut i = 0;
                while i < worklist.len() {
                    let Formula::Or(parts) = &mut worklist[i] else {
                        unreachable!("all-Or worklist")
                    };
                    // an entailed disjunct makes the whole disjunction
                    // vacuous — drop it instead of branching on it
                    if parts.iter().any(|part| satisfied_by_bounds(&env, part)) {
                        worklist.swap_remove(i);
                        continue;
                    }
                    parts.retain(|part| {
                        !falsified_by_bounds(&env, part)
                            && !refuted_by_bounds(&env, asserted, &index, part)
                    });
                    match parts.len() {
                        0 => return None,
                        1 => forced = true,
                        _ => {}
                    }
                    i += 1;
                }
                if worklist.is_empty() {
                    continue;
                }
                if forced {
                    for entry in worklist.iter_mut() {
                        let Formula::Or(parts) = entry else { continue };
                        if parts.len() == 1 {
                            *entry = parts.pop().expect("singleton disjunction");
                        }
                    }
                    continue;
                }
                if self.tableau.infeasible(asserted) {
                    return None;
                }
                // branch on the smallest surviving disjunction
                let pick = worklist
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, f)| match f {
                        Formula::Or(parts) => parts.len(),
                        _ => usize::MAX,
                    })
                    .map(|(i, _)| i)
                    .expect("worklist is non-empty");
                let Formula::Or(parts) = worklist.remove(pick) else {
                    unreachable!("all-Or worklist")
                };
                for part in parts {
                    if self.cancel.is_cancelled() {
                        self.cancelled = true;
                        return None;
                    }
                    self.decisions += 1;
                    if self.decisions > self.max_decisions {
                        self.saw_resource_out = true;
                        return None;
                    }
                    let mut branch_asserted = asserted.clone();
                    let mut branch_worklist = worklist.clone();
                    branch_worklist.push(part);
                    if let Some(model) = self.explore(&mut branch_asserted, &mut branch_worklist) {
                        return Some(model);
                    }
                }
                return None;
            };
            match next {
                Formula::True => {}
                Formula::False => return None,
                Formula::And(parts) => worklist.extend(parts),
                Formula::Atom(atom) => match atom_to_constraints(&atom) {
                    AtomConstraints::Single(c) => asserted.push(c),
                    AtomConstraints::Split(left, right) => {
                        // a disequality: branch on the two half-spaces
                        let disjunction =
                            Formula::Or(vec![Formula::Atom(left), Formula::Atom(right)]);
                        worklist.push(disjunction);
                    }
                },
                Formula::Not(inner) => worklist.push(Formula::not(*inner)),
                Formula::Or(_) => unreachable!("disjunctions are handled above"),
                Formula::Forall(_, _) | Formula::Exists(_, _) => {
                    // unreachable: `solve_guarded` rejects quantified formulas
                    self.saw_resource_out = true;
                    return None;
                }
            }
        }
    }
}

/// `true` only when every point of the current bound box satisfies the
/// formula — the disjunction containing such a disjunct is entailed and can
/// be dropped without branching.  This is what eliminates vacuous
/// implications (`Σ = 1 → …` where the counters are already pinned to 0:
/// the negated premise is certainly true).
fn satisfied_by_bounds(env: &BoundEnv, formula: &Formula) -> bool {
    match formula {
        Formula::True => true,
        Formula::Atom(atom) => {
            let zero = crate::rational::Rat::from_int(0);
            let (min, max) = env.expr_range(&atom.expr);
            match atom.cmp {
                Cmp::Le => max.is_some_and(|m| m <= zero),
                Cmp::Lt => max.is_some_and(|m| m < zero),
                Cmp::Ge => min.is_some_and(|m| m >= zero),
                Cmp::Gt => min.is_some_and(|m| m > zero),
                Cmp::Eq => (min == Some(zero)) && (max == Some(zero)),
                Cmp::Ne => max.is_some_and(|m| m < zero) || min.is_some_and(|m| m > zero),
            }
        }
        Formula::And(parts) => parts.iter().all(|p| satisfied_by_bounds(env, p)),
        Formula::Or(parts) => parts.iter().any(|p| satisfied_by_bounds(env, p)),
        _ => false,
    }
}

/// The dual of [`satisfied_by_bounds`]: `true` only when *no* point of the
/// current bound box satisfies the formula.  This is what kills `≠`
/// disjuncts whose expression the bounds pin to zero (e.g. the `φ_len`
/// branch of a disequality once the lengths are forced equal) — atoms the
/// unit-probe path must skip because disequalities contribute no simplex
/// constraint.
fn falsified_by_bounds(env: &BoundEnv, formula: &Formula) -> bool {
    match formula {
        Formula::False => true,
        Formula::Atom(atom) => {
            let zero = crate::rational::Rat::from_int(0);
            let (min, max) = env.expr_range(&atom.expr);
            match atom.cmp {
                Cmp::Le => min.is_some_and(|m| m > zero),
                Cmp::Lt => min.is_some_and(|m| m >= zero),
                Cmp::Ge => max.is_some_and(|m| m < zero),
                Cmp::Gt => max.is_some_and(|m| m <= zero),
                Cmp::Eq => max.is_some_and(|m| m < zero) || min.is_some_and(|m| m > zero),
                Cmp::Ne => (min == Some(zero)) && (max == Some(zero)),
            }
        }
        Formula::And(parts) => parts.iter().any(|p| falsified_by_bounds(env, p)),
        Formula::Or(parts) => parts.iter().all(|p| falsified_by_bounds(env, p)),
        _ => false,
    }
}

/// Collects the unit simplex constraints a formula *implies* (top-level
/// atoms of conjunctions; disequalities and nested disjunctions contribute
/// nothing).  Returns `false` if the formula is syntactically `False`.
fn collect_probe(formula: &Formula, out: &mut Vec<SimplexConstraint>) -> bool {
    match formula {
        Formula::False => false,
        Formula::Atom(atom) => {
            if let AtomConstraints::Single(c) = atom_to_constraints(atom) {
                out.push(c);
            }
            true
        }
        Formula::And(parts) => parts.iter().all(|p| collect_probe(p, out)),
        _ => true,
    }
}

/// `true` if asserting the disjunct's unit atoms into the bound environment
/// of the current node derives a contradiction — a sound reason to drop the
/// disjunct (bound refutation implies integer infeasibility).  The asserted
/// context is re-propagated under the tightened bounds so the probe can
/// cascade through the flow equalities, which is where most refutations of
/// the Parikh encodings come from.
fn refuted_by_bounds(
    env: &BoundEnv,
    asserted: &[SimplexConstraint],
    index: &ConstraintIndex,
    disjunct: &Formula,
) -> bool {
    let mut probe = Vec::new();
    if !collect_probe(disjunct, &mut probe) {
        return true;
    }
    if probe.is_empty() {
        return false;
    }
    let mut local = env.clone();
    let budget = 8 * asserted.len().max(8);
    local.propagate(&probe, asserted, index, budget) == BoundOutcome::Refuted
}

enum AtomConstraints {
    Single(SimplexConstraint),
    Split(Atom, Atom),
}

/// Translates an atom `expr ⋈ 0` over integers into simplex constraints:
/// strict comparisons are shifted by one, disequality splits into two atoms.
fn atom_to_constraints(atom: &Atom) -> AtomConstraints {
    let expr = atom.expr.clone();
    match atom.cmp {
        Cmp::Le => AtomConstraints::Single(SimplexConstraint { expr, rel: Rel::Le }),
        Cmp::Ge => AtomConstraints::Single(SimplexConstraint { expr, rel: Rel::Ge }),
        Cmp::Eq => AtomConstraints::Single(SimplexConstraint { expr, rel: Rel::Eq }),
        Cmp::Lt => AtomConstraints::Single(SimplexConstraint {
            expr: expr + LinExpr::constant(1),
            rel: Rel::Le,
        }),
        Cmp::Gt => AtomConstraints::Single(SimplexConstraint {
            expr: expr - LinExpr::constant(1),
            rel: Rel::Ge,
        }),
        Cmp::Ne => AtomConstraints::Split(
            Atom {
                expr: expr.clone(),
                cmp: Cmp::Lt,
            },
            Atom { expr, cmp: Cmp::Gt },
        ),
    }
}

/// Adapts the incremental tableau to the walk's clone-and-extend DFS, which
/// re-checks whole constraint *slices* that evolve prefix-wise: each call
/// retracts to the longest common prefix with the previous one and asserts
/// only the new suffix.
#[derive(Default)]
struct SessionSimplex {
    simplex: IncrementalSimplex,
    asserted: Vec<SimplexConstraint>,
}

impl SessionSimplex {
    /// `true` iff the conjunction is rationally infeasible, reusing the
    /// tableau state shared with the previous call's constraint prefix.
    fn infeasible(&mut self, constraints: &[SimplexConstraint]) -> bool {
        let common = self
            .asserted
            .iter()
            .zip(constraints)
            .take_while(|(a, b)| a == b)
            .count();
        self.simplex.retract_to(common);
        self.asserted.truncate(common);
        for c in &constraints[common..] {
            if self
                .simplex
                .assert_constraint(c, self.asserted.len() as u32)
                .is_err()
            {
                return true;
            }
            self.asserted.push(c.clone());
        }
        self.simplex.check().is_err()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::check_feasibility;
    use crate::term::{Var, VarPool};

    /// Ten binary disjunctions under an unreachable sum: the walk has to
    /// enumerate branches to refute it.
    fn ten_binary_choices() -> Formula {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..10).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut conjuncts = Vec::new();
        for &v in &vars {
            conjuncts.push(Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
            ]));
        }
        conjuncts.push(Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(100),
        ));
        Formula::and(conjuncts)
    }

    #[test]
    fn decision_limit_yields_unknown() {
        match structural_solve(&ten_binary_choices(), 3, &CancelToken::none()) {
            SolverResult::Unknown(_) => {}
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_yields_unknown() {
        let token = CancelToken::new();
        token.cancel();
        match structural_solve(&ten_binary_choices(), MAX_DECISIONS, &token) {
            SolverResult::Unknown(reason) => assert_eq!(reason, crate::cancel::CANCELLED_MSG),
            other => panic!("expected unknown, got {other:?}"),
        }
    }

    fn le(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Le }
    }

    fn ge(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Ge }
    }

    #[test]
    fn session_simplex_matches_one_shot_checks() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let base = vec![
            ge(LinExpr::var(x)),
            ge(LinExpr::var(y)),
            le(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(6)),
        ];
        let mut branch_a = base.clone();
        branch_a.push(ge(LinExpr::var(x) - LinExpr::constant(7)));
        let mut branch_b = base.clone();
        branch_b.push(ge(LinExpr::var(x) - LinExpr::constant(4)));
        let mut branch_b2 = branch_b.clone();
        branch_b2.push(ge(LinExpr::var(y) - LinExpr::constant(3)));
        let mut session = SessionSimplex::default();
        for slice in [&base, &branch_a, &branch_b, &branch_b2, &base] {
            assert_eq!(
                session.infeasible(slice),
                !check_feasibility(slice).is_feasible(),
                "session disagrees with one-shot on {slice:?}"
            );
        }
    }
}
