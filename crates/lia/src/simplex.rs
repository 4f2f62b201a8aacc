//! Rational feasibility of conjunctions of linear constraints via the
//! *general simplex* algorithm of Dutertre & de Moura — in its full
//! **incremental, backtrackable** form.
//!
//! The central type is [`IncrementalSimplex`]: a tableau that lives for a
//! whole search (or a whole incremental solving session) instead of being
//! rebuilt per feasibility check.
//!
//! * **Atoms are registered once.**  Every constraint `Σ aᵢxᵢ + k ⋈ 0` is
//!   canonicalised to a *form* (coefficients divided by their gcd, leading
//!   sign positive, constant dropped).  A form with a single unit term is
//!   owned by the problem column itself; every other form gets one slack
//!   variable with the definitional row `s = Σ aᵢxᵢ`, created the first
//!   time the form is seen ([`IncrementalSimplex::prepare`]).  Atoms that
//!   differ only in their constant — the overwhelmingly common case in the
//!   CDCL(T) engine, where both polarities of a Boolean atom and all the
//!   branch bounds of branch-and-bound share a form — share one tableau
//!   variable.
//! * **Assertions are O(1) trail operations.**  Asserting a constraint
//!   ([`IncrementalSimplex::assert_prepared`]) tightens the owner
//!   variable's lower/upper bound, records the old bound on an undo trail,
//!   and (for a nonbasic owner) nudges the assignment inside the new
//!   bound.  No row is touched.  An immediately contradictory pair of
//!   bounds is reported with its two-element core without any pivoting.
//! * **Only `check` pivots, warm-starting from the previous basis.**  The
//!   `β` assignment and the basis survive assertions, retractions and
//!   earlier checks, so a re-check after one new bound typically pivots
//!   once or not at all — this is what makes the theory side of CDCL(T)
//!   as incremental as the Boolean side.
//! * **Rows are flat and sparse.**  A basic variable's row is a
//!   `SparseRow`: paired column/coefficient arrays sorted by column,
//!   drawn from a per-tableau arena and recycled across pivots instead of
//!   cloned.  A **column occurrence index** (`col_rows[j]` = the basic
//!   variables whose rows mention column `j`) is maintained through every
//!   pivot and assignment update, so `update`, `pivot_and_update` and
//!   `pivot` touch only the rows that actually contain the moving column
//!   instead of scanning the whole tableau.  The work saved is measured:
//!   [`IncrementalSimplex::row_touches`] counts rows actually visited,
//!   [`IncrementalSimplex::dense_row_touches`] the counterfactual cost of
//!   the old full scans, and both flow into `posr-obs` counters.
//! * **Backtracking** is stack-shaped: [`IncrementalSimplex::retract_to`]
//!   unwinds the bound trail to a given assertion count (the CDCL engine
//!   keeps assertions aligned with its theory-literal trail), and
//!   [`IncrementalSimplex::push_level`] / [`IncrementalSimplex::pop_level`]
//!   provide the same thing keyed by search depth (branch-and-bound).
//!   Retraction only ever *relaxes* bounds, so the current assignment
//!   stays consistent and nothing is recomputed.
//!
//! Infeasibility is reported with a **Farkas core**: the tags of an
//! irreducible jointly-infeasible set of asserted bounds (a stuck row's
//! violated bound plus the blocking bounds of its nonbasics).  Tags are
//! caller-chosen `u32`s — the CDCL engine passes theory-trail indices, so
//! cores translate directly into learned clauses.
//!
//! On top of the feasible assignment the engine runs **assignment-guided
//! theory propagation** (see `cdcl.rs`): after a consistent check, `β` is
//! a cheap necessary-condition filter for entailed atoms, and
//! `IncrementalSimplex::implied_bound` turns a candidate into an
//! entailment certificate (the asserted bounds of one row) without any
//! pivoting.
//!
//! The one-shot [`check_feasibility`] / [`check_feasibility_with_core`]
//! entry points survive as thin wrappers (register + assert + check on a
//! fresh tableau).
//!
//! Strict inequalities and disequalities never reach this layer: the
//! integer setting lets the upper layers rewrite `<`/`>` into `≤`/`≥`
//! with a shifted constant, and `≠` is split disjunctively.

use std::collections::{BTreeMap, HashMap};

use crate::rational::{gcd, Rat};
use crate::term::{LinExpr, Var};

/// Pivots performed across every tableau in the process (obs counter; the
/// per-engine number is derived from a `CounterScope` over this counter).
static OBS_PIVOTS: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("simplex.pivots"));

/// Rows actually visited through the occurrence index (process-wide).
static OBS_ROW_TOUCHES: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("simplex.row_touches"));

/// Counterfactual row visits a dense full-tableau scan would have made for
/// the same operations — the baseline the sparse win is measured against.
static OBS_DENSE_ROW_TOUCHES: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("simplex.row_touches.dense"));

/// The process-wide pivot counter (scopes attach to it for per-solve
/// attribution).
pub fn obs_pivot_counter() -> posr_obs::Counter {
    *OBS_PIVOTS
}

/// The process-wide sparse row-touch counter.
pub fn obs_row_touch_counter() -> posr_obs::Counter {
    *OBS_ROW_TOUCHES
}

/// The process-wide counterfactual dense row-touch counter.
pub fn obs_dense_row_touch_counter() -> posr_obs::Counter {
    *OBS_DENSE_ROW_TOUCHES
}

/// Relation of a simplex constraint `expr ⋈ bound`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rel {
    /// `expr ≤ bound`
    Le,
    /// `expr ≥ bound`
    Ge,
    /// `expr = bound`
    Eq,
}

/// A constraint handed to the simplex: `expr ⋈ 0` with `⋈ ∈ {≤, ≥, =}`.
/// The constant part of `expr` is honoured (it is moved to the bound side).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimplexConstraint {
    /// Linear expression (its constant part becomes part of the bound).
    pub expr: LinExpr,
    /// Relation against zero.
    pub rel: Rel,
}

/// Result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexResult {
    /// The constraints are satisfiable over ℚ; a witness assignment for every
    /// variable occurring in the constraints is returned.
    Feasible(BTreeMap<Var, Rat>),
    /// The constraints are unsatisfiable over ℚ (hence also over ℤ).
    Infeasible,
}

impl SimplexResult {
    /// Returns `true` if feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexResult::Feasible(_))
    }
}

/// Checks rational feasibility of a conjunction of constraints.
///
/// One-shot convenience over [`IncrementalSimplex`]: register and assert
/// every constraint on a fresh tableau, then run the check loop.
pub fn check_feasibility(constraints: &[SimplexConstraint]) -> SimplexResult {
    match check_feasibility_with_core(constraints) {
        Ok(model) => SimplexResult::Feasible(model),
        Err(_) => SimplexResult::Infeasible,
    }
}

/// [`check_feasibility`] with a Farkas-style core on infeasibility: the
/// `Err` value indexes an irreducible infeasible subset of `constraints`.
pub fn check_feasibility_with_core(
    constraints: &[SimplexConstraint],
) -> Result<BTreeMap<Var, Rat>, Vec<usize>> {
    let mut simplex = IncrementalSimplex::new();
    for (i, c) in constraints.iter().enumerate() {
        if let Err(core) = simplex.assert_constraint(c, i as u32) {
            return Err(core_to_indices(core));
        }
    }
    match simplex.check() {
        Ok(()) => Ok(simplex.model()),
        Err(core) => Err(core_to_indices(core)),
    }
}

fn core_to_indices(core: Vec<u32>) -> Vec<usize> {
    let mut out: Vec<usize> = core.into_iter().map(|t| t as usize).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The tableau variable that owns a canonicalised constraint form.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Owner {
    /// The form had no variables; `true` iff the (constant) constraint
    /// evaluated to a satisfied comparison at preparation time is decided
    /// per bound at assert time instead — this variant only records that
    /// there is nothing to assert on.
    Constant,
    /// Internal tableau variable (problem column or slack).
    Tableau(usize),
}

/// A constraint pre-compiled against a tableau: the owning variable plus
/// the bound(s) it asserts, ready for O(1) assertion.  Produced by
/// [`IncrementalSimplex::prepare`]; the CDCL engine caches one per theory
/// literal at registration time.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PreparedBound {
    owner: Owner,
    /// `owner ≥ lo` to assert (already sign/scale-normalised).
    lo: Option<Rat>,
    /// `owner ≤ hi` to assert.
    hi: Option<Rat>,
    /// For `Owner::Constant`: whether the constraint holds.
    const_sat: bool,
}

impl PreparedBound {
    /// The tableau column that owns this bound (`None` for constant
    /// constraints).  Used by assignment-guided propagation to group the
    /// atoms asserting on one column.
    pub(crate) fn tableau_owner(&self) -> Option<usize> {
        match self.owner {
            Owner::Constant => None,
            Owner::Tableau(x) => Some(x),
        }
    }

    /// The normalised lower bound this constraint asserts, if any.
    pub(crate) fn lo(&self) -> Option<Rat> {
        self.lo
    }

    /// The normalised upper bound this constraint asserts, if any.
    pub(crate) fn hi(&self) -> Option<Rat> {
        self.hi
    }
}

/// One undone bound change: which side of which variable, and the value
/// (with its tag) it had before.
struct UndoEntry {
    var: usize,
    upper: bool,
    old: Option<(Rat, u32)>,
}

/// A flat sparse row: paired column/coefficient arrays, columns strictly
/// ascending, coefficients nonzero.  Rows are recycled through the
/// tableau's arena instead of being reallocated per pivot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SparseRow {
    cols: Vec<u32>,
    coeffs: Vec<Rat>,
}

impl SparseRow {
    fn clear(&mut self) {
        self.cols.clear();
        self.coeffs.clear();
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    /// Coefficient of `col`, by binary search.
    fn get(&self, col: usize) -> Option<Rat> {
        self.cols
            .binary_search(&(col as u32))
            .ok()
            .map(|i| self.coeffs[i])
    }

    /// Appends an entry; `col` must exceed every column already present.
    fn push(&mut self, col: usize, coeff: Rat) {
        debug_assert!(self.cols.last().is_none_or(|&c| c < col as u32));
        debug_assert!(!coeff.is_zero());
        self.cols.push(col as u32);
        self.coeffs.push(coeff);
    }

    /// `(column, coefficient)` pairs in ascending column order.
    fn iter(&self) -> impl Iterator<Item = (usize, Rat)> + '_ {
        self.cols
            .iter()
            .zip(&self.coeffs)
            .map(|(&c, &a)| (c as usize, a))
    }
}

/// Drops `owner` from one column's occurrence list (order is not
/// significant, so the removal is a swap).
fn remove_occ(occ: &mut Vec<u32>, owner: usize) {
    if let Some(pos) = occ.iter().position(|&o| o == owner as u32) {
        occ.swap_remove(pos);
    }
}

/// The persistent, backtrackable general-simplex tableau (see the module
/// docs for the architecture).
pub struct IncrementalSimplex {
    /// Problem variable → internal tableau index.
    var_cols: HashMap<Var, usize>,
    /// Internal index → problem variable (`None` for slacks).
    col_vars: Vec<Option<Var>>,
    /// Canonical form → slack internal index.
    forms: HashMap<LinExpr, usize>,
    /// `rows[b]` is `Some(row)` iff variable `b` is basic, with
    /// `x_b = Σ row[n]·x_n` over the nonbasic variables `n`.
    rows: Vec<Option<SparseRow>>,
    /// Occurrence index: `col_rows[j]` lists the basic variables whose
    /// rows contain column `j` (unordered, duplicate-free).
    col_rows: Vec<Vec<u32>>,
    /// Arena of retired rows, recycled by the next pivot or slack.
    row_pool: Vec<SparseRow>,
    /// Lower bounds per variable, tagged with the asserting constraint.
    lower: Vec<Option<(Rat, u32)>>,
    /// Upper bounds per variable, tagged with the asserting constraint.
    upper: Vec<Option<(Rat, u32)>>,
    /// Current assignment per variable (kept consistent at all times:
    /// every basic value equals its row evaluated at the nonbasics).
    beta: Vec<Rat>,
    /// Undo trail of bound changes.
    undo: Vec<UndoEntry>,
    /// Per successful assertion: the undo-trail length before it.
    assert_marks: Vec<usize>,
    /// Per open level: the assertion count when it was pushed.
    level_marks: Vec<usize>,
    /// Candidate bound violations: every basic variable whose assignment
    /// or bounds moved since it was last verified in-bounds.  A superset
    /// of the actually-violating basics (violations only arise from those
    /// events), so `check` scans this set instead of the whole column
    /// range — the per-fixpoint eager checks of theory propagation would
    /// otherwise pay a dense scan each, pivoting or not.
    suspect: Vec<u32>,
    /// `suspect_flag[v]` ⇔ `v` is in `suspect` (dedup guard).
    suspect_flag: Vec<bool>,
    /// Cumulative pivot count (never reset; the engine reads deltas).
    pivots: u64,
    /// Rows visited through the occurrence index (cumulative).
    row_touches: u64,
    /// Rows a dense full scan would have visited for the same operations.
    dense_row_touches: u64,
    /// High-water marks of what `flush_obs` already pushed to the
    /// process-wide counters.
    obs_pivots_flushed: u64,
    obs_touches_flushed: u64,
    obs_dense_flushed: u64,
}

impl Default for IncrementalSimplex {
    fn default() -> IncrementalSimplex {
        IncrementalSimplex::new()
    }
}

impl IncrementalSimplex {
    /// An empty tableau.
    pub fn new() -> IncrementalSimplex {
        IncrementalSimplex {
            var_cols: HashMap::new(),
            col_vars: Vec::new(),
            forms: HashMap::new(),
            rows: Vec::new(),
            col_rows: Vec::new(),
            row_pool: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            beta: Vec::new(),
            undo: Vec::new(),
            assert_marks: Vec::new(),
            level_marks: Vec::new(),
            suspect: Vec::new(),
            suspect_flag: Vec::new(),
            pivots: 0,
            row_touches: 0,
            dense_row_touches: 0,
            obs_pivots_flushed: 0,
            obs_touches_flushed: 0,
            obs_dense_flushed: 0,
        }
    }

    /// Number of currently asserted constraints.
    pub fn num_asserted(&self) -> usize {
        self.assert_marks.len()
    }

    /// Cumulative structural pivots performed by [`IncrementalSimplex::check`].
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Cumulative rows visited through the occurrence index by assignment
    /// updates and pivots.
    pub fn row_touches(&self) -> u64 {
        self.row_touches
    }

    /// Cumulative rows a dense full-tableau scan would have visited for
    /// the same operations — the baseline [`IncrementalSimplex::row_touches`]
    /// is measured against.
    pub fn dense_row_touches(&self) -> u64 {
        self.dense_row_touches
    }

    /// Number of tableau variables (problem columns plus slacks).
    pub fn num_tableau_vars(&self) -> usize {
        self.beta.len()
    }

    fn alloc_row(&mut self) -> SparseRow {
        match self.row_pool.pop() {
            Some(mut row) => {
                row.clear();
                row
            }
            None => SparseRow::default(),
        }
    }

    fn free_row(&mut self, row: SparseRow) {
        self.row_pool.push(row);
    }

    fn add_var(&mut self, problem: Option<Var>) -> usize {
        let idx = self.beta.len();
        self.col_vars.push(problem);
        self.rows.push(None);
        self.col_rows.push(Vec::new());
        self.lower.push(None);
        self.upper.push(None);
        self.beta.push(Rat::ZERO);
        self.suspect_flag.push(false);
        // approximate per-column tableau growth for the memory budget
        posr_obs::budget::charge_mem(160);
        idx
    }

    /// Queues `v` for re-verification by the next `check`.
    #[inline]
    fn mark_suspect(&mut self, v: usize) {
        if !self.suspect_flag[v] {
            self.suspect_flag[v] = true;
            self.suspect.push(v as u32);
        }
    }

    fn col_of(&mut self, v: Var) -> usize {
        if let Some(&c) = self.var_cols.get(&v) {
            return c;
        }
        let c = self.add_var(Some(v));
        self.var_cols.insert(v, c);
        c
    }

    /// The slack variable of a canonical form, creating it (and its
    /// definitional row, expressed over the *current* nonbasics) on first
    /// sight.  New slacks can be registered at any point of a session —
    /// basic variables in the form are substituted by their rows, and the
    /// slack's assignment is computed from the current one, so the tableau
    /// invariants hold immediately.
    fn slack_of(&mut self, form: &LinExpr) -> usize {
        if let Some(&s) = self.forms.get(form) {
            return s;
        }
        // cold path: accumulate in a map, then freeze into a sparse row
        let mut row: BTreeMap<usize, Rat> = BTreeMap::new();
        for (v, c) in form.terms() {
            let col = self.col_of(v);
            let coeff = Rat::from_int(c);
            match &self.rows[col] {
                Some(def) => {
                    for (j, a) in def.iter() {
                        let entry = row.entry(j).or_insert(Rat::ZERO);
                        *entry += coeff * a;
                    }
                }
                None => {
                    let entry = row.entry(col).or_insert(Rat::ZERO);
                    *entry += coeff;
                }
            }
        }
        row.retain(|_, r| !r.is_zero());
        let mut value = Rat::ZERO;
        for (&j, &a) in &row {
            value += a * self.beta[j];
        }
        let s = self.add_var(None);
        let mut frozen = self.alloc_row();
        for (&j, &a) in &row {
            frozen.push(j, a);
            self.col_rows[j].push(s as u32);
        }
        self.rows[s] = Some(frozen);
        self.beta[s] = value;
        self.forms.insert(form.clone(), s);
        s
    }

    /// Pre-compiles a constraint: canonicalises its form, registers the
    /// owning tableau variable (idempotent), and normalises the bound so
    /// assertion is a constant-time trail operation.
    pub fn prepare(&mut self, constraint: &SimplexConstraint) -> PreparedBound {
        let k = constraint.expr.constant_part();
        if constraint.expr.is_constant() {
            let const_sat = match constraint.rel {
                Rel::Le => k <= 0,
                Rel::Ge => k >= 0,
                Rel::Eq => k == 0,
            };
            return PreparedBound {
                owner: Owner::Constant,
                lo: None,
                hi: None,
                const_sat,
            };
        }
        // canonical form: coefficients divided by their gcd, first
        // coefficient positive, constant dropped
        let mut g: i128 = 0;
        let mut first_sign: i128 = 0;
        for (_, c) in constraint.expr.terms() {
            g = gcd(g, c);
            if first_sign == 0 {
                first_sign = if c > 0 { 1 } else { -1 };
            }
        }
        let scale = g * first_sign; // expr = scale · form + k
        let mut form = LinExpr::zero();
        for (v, c) in constraint.expr.terms() {
            form.add_term(v, c / scale);
        }
        // expr ⋈ 0  ⟺  form ⋈ −k/scale (relation flips when scale < 0)
        let bound = Rat::from_int(-k) / Rat::from_int(scale);
        let rel = match (constraint.rel, scale > 0) {
            (rel, true) => rel,
            (Rel::Le, false) => Rel::Ge,
            (Rel::Ge, false) => Rel::Le,
            (Rel::Eq, false) => Rel::Eq,
        };
        let owner = if form.num_terms() == 1 {
            // canonical single-term forms have coefficient 1: the problem
            // column itself owns the bound, no slack row is needed
            let v = form.variables().next().expect("single term");
            Owner::Tableau(self.col_of(v))
        } else {
            Owner::Tableau(self.slack_of(&form))
        };
        let (lo, hi) = match rel {
            Rel::Le => (None, Some(bound)),
            Rel::Ge => (Some(bound), None),
            Rel::Eq => (Some(bound), Some(bound)),
        };
        PreparedBound {
            owner,
            lo,
            hi,
            const_sat: true,
        }
    }

    /// Asserts a pre-compiled constraint under `tag`.  O(1): tightens the
    /// owner's interval (recording the old bound for backtracking) and, for
    /// a nonbasic owner, moves its value inside the new bound.  On an
    /// immediate contradiction (`lo > hi`) the state is left unchanged and
    /// the two clashing tags are returned.
    pub fn assert_prepared(&mut self, prepared: &PreparedBound, tag: u32) -> Result<(), Vec<u32>> {
        let mark = self.undo.len();
        let x = match prepared.owner {
            Owner::Constant => {
                if prepared.const_sat {
                    self.assert_marks.push(mark);
                    return Ok(());
                }
                return Err(vec![tag]);
            }
            Owner::Tableau(x) => x,
        };
        if let Some(lo) = prepared.lo {
            if let Some((hi, hi_tag)) = self.upper[x] {
                if lo > hi {
                    return Err(vec![hi_tag, tag]);
                }
            }
            if self.lower[x].is_none_or(|(cur, _)| lo > cur) {
                self.undo.push(UndoEntry {
                    var: x,
                    upper: false,
                    old: self.lower[x],
                });
                self.lower[x] = Some((lo, tag));
                if self.rows[x].is_none() {
                    if self.beta[x] < lo {
                        self.update(x, lo);
                    }
                } else if self.beta[x] < lo {
                    self.mark_suspect(x);
                }
            }
        }
        if let Some(hi) = prepared.hi {
            if let Some((lo, lo_tag)) = self.lower[x] {
                if hi < lo {
                    // roll back a lower bound this same assertion recorded
                    self.unwind_to(mark);
                    return Err(vec![lo_tag, tag]);
                }
            }
            if self.upper[x].is_none_or(|(cur, _)| hi < cur) {
                self.undo.push(UndoEntry {
                    var: x,
                    upper: true,
                    old: self.upper[x],
                });
                self.upper[x] = Some((hi, tag));
                if self.rows[x].is_none() {
                    if self.beta[x] > hi {
                        self.update(x, hi);
                    }
                } else if self.beta[x] > hi {
                    self.mark_suspect(x);
                }
            }
        }
        self.assert_marks.push(mark);
        Ok(())
    }

    /// [`IncrementalSimplex::prepare`] + [`IncrementalSimplex::assert_prepared`]
    /// for callers without a preparation cache.
    pub fn assert_constraint(
        &mut self,
        constraint: &SimplexConstraint,
        tag: u32,
    ) -> Result<(), Vec<u32>> {
        let prepared = self.prepare(constraint);
        self.assert_prepared(&prepared, tag)
    }

    /// Retracts assertions (most recent first) until at most `n` remain,
    /// restoring the bounds they tightened.  Bounds only relax, so the
    /// current assignment — and the basis — stay valid.
    pub fn retract_to(&mut self, n: usize) {
        while self.assert_marks.len() > n {
            let mark = self.assert_marks.pop().expect("non-empty");
            self.unwind_to(mark);
        }
        // levels opened above the surviving assertions are gone too
        while self
            .level_marks
            .last()
            .is_some_and(|&m| m > self.assert_marks.len())
        {
            self.level_marks.pop();
        }
    }

    fn unwind_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            let entry = self.undo.pop().expect("non-empty");
            if entry.upper {
                self.upper[entry.var] = entry.old;
            } else {
                self.lower[entry.var] = entry.old;
            }
        }
    }

    /// Opens a backtracking level (branch-and-bound style).
    pub fn push_level(&mut self) {
        self.level_marks.push(self.assert_marks.len());
    }

    /// Closes the innermost level, retracting its assertions.
    pub fn pop_level(&mut self) {
        if let Some(n) = self.level_marks.pop() {
            self.retract_to(n);
        }
    }

    /// Pops levels until at most `depth` remain open.
    pub fn pop_to_level(&mut self, depth: usize) {
        while self.level_marks.len() > depth {
            self.pop_level();
        }
    }

    /// Number of open levels.
    pub fn num_levels(&self) -> usize {
        self.level_marks.len()
    }

    fn is_basic(&self, v: usize) -> bool {
        self.rows[v].is_some()
    }

    /// `true` iff `col` is a slack (owns a multi-term form).
    pub(crate) fn is_slack(&self, col: usize) -> bool {
        self.col_vars[col].is_none()
    }

    /// Current assignment of a tableau column.
    pub(crate) fn beta_of(&self, col: usize) -> Rat {
        self.beta[col]
    }

    /// The basic variables whose rows currently contain `col` (the
    /// occurrence index entry) — i.e. whose implied row bounds a bound
    /// change on `col` can move.
    pub(crate) fn rows_containing(&self, col: usize) -> &[u32] {
        &self.col_rows[col]
    }

    /// The bound on `col` implied by the *asserted* bounds alone (no
    /// pivoting): for a nonbasic column its own asserted bound; for a
    /// basic column the row sum `Σ aⱼ·bound(xⱼ)`, taking each nonbasic's
    /// upper bound when `upper == aⱼ > 0` and its lower bound otherwise.
    /// The tags of every contributing bound are pushed onto `tags` —
    /// exactly the premises of the entailment, ready to become a lazy
    /// explanation.  Returns `None` when a needed bound is missing or the
    /// row is longer than `row_cap`; `tags` may then hold a partial prefix
    /// and the caller is expected to clear it.
    pub(crate) fn implied_bound(
        &self,
        col: usize,
        upper: bool,
        row_cap: usize,
        tags: &mut Vec<u32>,
    ) -> Option<Rat> {
        match &self.rows[col] {
            None => {
                let (v, tag) = if upper {
                    self.upper[col]?
                } else {
                    self.lower[col]?
                };
                tags.push(tag);
                Some(v)
            }
            Some(row) => {
                if row.len() > row_cap {
                    return None;
                }
                let mut sum = Rat::ZERO;
                for (n, a) in row.iter() {
                    let (v, tag) = if upper == a.is_positive() {
                        self.upper[n]?
                    } else {
                        self.lower[n]?
                    };
                    tags.push(tag);
                    sum += a * v;
                }
                Some(sum)
            }
        }
    }

    fn violates_lower(&self, v: usize) -> bool {
        matches!(self.lower[v], Some((l, _)) if self.beta[v] < l)
    }

    fn violates_upper(&self, v: usize) -> bool {
        matches!(self.upper[v], Some((u, _)) if self.beta[v] > u)
    }

    /// Sets nonbasic `n` to `v`, propagating the delta into the basics
    /// whose rows contain `n` (straight off the occurrence index).
    fn update(&mut self, n: usize, v: Rat) {
        let delta = v - self.beta[n];
        self.beta[n] = v;
        if delta.is_zero() {
            return;
        }
        self.dense_row_touches += self.beta.len() as u64;
        self.row_touches += self.col_rows[n].len() as u64;
        for idx in 0..self.col_rows[n].len() {
            let b = self.col_rows[n][idx] as usize;
            let a_bn = self.rows[b]
                .as_ref()
                .expect("occurrence owner is basic")
                .get(n)
                .expect("indexed row contains the column");
            self.beta[b] += a_bn * delta;
            self.mark_suspect(b);
        }
    }

    /// Pivot basic variable `b` with nonbasic variable `n` and set `b` to `v`.
    fn pivot_and_update(&mut self, b: usize, n: usize, v: Rat) {
        let row_b = self.rows[b].take().expect("b must be basic");
        let a_bn = row_b.get(n).expect("n must occur in the row of b");
        let theta = (v - self.beta[b]) / a_bn;
        self.beta[b] = v;
        self.beta[n] += theta;
        // n enters the basis with a moved assignment: it may overshoot its
        // other bound, which is exactly what keeps the check loop going
        self.mark_suspect(n);
        self.dense_row_touches += self.beta.len() as u64;
        self.row_touches += self.col_rows[n].len() as u64;
        for idx in 0..self.col_rows[n].len() {
            let other = self.col_rows[n][idx] as usize;
            if other == b {
                continue; // b's value was already set to the target
            }
            let a_on = self.rows[other]
                .as_ref()
                .expect("occurrence owner is basic")
                .get(n)
                .expect("indexed row contains the column");
            self.beta[other] += a_on * theta;
            self.mark_suspect(other);
        }
        self.pivot(b, n, row_b, a_bn);
        self.pivots += 1;
    }

    /// Structural pivot: `b` leaves the basis, `n` enters it.  Touches only
    /// the rows the occurrence index lists for `n`; `row_b` is consumed and
    /// recycled through the arena.
    fn pivot(&mut self, b: usize, n: usize, row_b: SparseRow, a_bn: Rat) {
        // b's row disappears: drop b from the occurrence lists of its
        // columns first, so the index never points at a missing row (this
        // also removes b from col_rows[n] before it is drained below)
        for (k, _) in row_b.iter() {
            remove_occ(&mut self.col_rows[k], b);
        }
        // n = (b - Σ_{k≠n} a_bk·k) / a_bn — build n's row sorted, merging
        // the new column b into position
        let inv = Rat::ONE / a_bn;
        let mut new_row_n = self.alloc_row();
        let mut b_inserted = false;
        for (k, a_bk) in row_b.iter() {
            if k == n {
                continue;
            }
            if !b_inserted && b < k {
                new_row_n.push(b, inv);
                b_inserted = true;
            }
            new_row_n.push(k, -a_bk * inv);
        }
        if !b_inserted {
            new_row_n.push(b, inv);
        }
        // substitute n in exactly the rows that contain it
        let occ = std::mem::take(&mut self.col_rows[n]);
        self.dense_row_touches += self.rows.len() as u64;
        self.row_touches += occ.len() as u64;
        for &o in &occ {
            let other = o as usize;
            debug_assert_ne!(other, b, "b was removed from the index above");
            let old = self.rows[other].take().expect("occurrence owner is basic");
            let a_on = old.get(n).expect("indexed row contains the column");
            let merged = self.substitute(other, &old, n, a_on, &new_row_n);
            self.free_row(old);
            self.rows[other] = Some(merged);
        }
        // n becomes basic; register its row in the occurrence index
        for (k, _) in new_row_n.iter() {
            self.col_rows[k].push(n as u32);
        }
        self.rows[n] = Some(new_row_n);
        self.free_row(row_b);
    }

    /// `old − old[drop_col]·drop_col + a_on·sub`, as a sorted two-pointer
    /// merge.  Maintains the occurrence index for `owner`: fill-in columns
    /// gain `owner`, cancelled columns lose it (`drop_col` itself was
    /// already drained by the caller).
    fn substitute(
        &mut self,
        owner: usize,
        old: &SparseRow,
        drop_col: usize,
        a_on: Rat,
        sub: &SparseRow,
    ) -> SparseRow {
        let mut out = self.alloc_row();
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let ci = old.cols.get(i).copied();
            let cj = sub.cols.get(j).copied();
            let (take_old, take_sub) = match (ci, cj) {
                (Some(a), Some(b)) => (a <= b, b <= a),
                (Some(_), None) => (true, false),
                (None, Some(_)) => (false, true),
                (None, None) => break,
            };
            if take_old && take_sub {
                let k = ci.expect("both present") as usize;
                debug_assert_ne!(k, drop_col, "sub never contains the dropped column");
                let v = old.coeffs[i] + a_on * sub.coeffs[j];
                if v.is_zero() {
                    // cancellation: owner's row no longer mentions k
                    remove_occ(&mut self.col_rows[k], owner);
                } else {
                    out.push(k, v);
                }
                i += 1;
                j += 1;
            } else if take_old {
                let k = ci.expect("old present") as usize;
                if k != drop_col {
                    out.push(k, old.coeffs[i]);
                }
                i += 1;
            } else {
                let k = cj.expect("sub present") as usize;
                // fill-in: owner's row gains column k
                out.push(k, a_on * sub.coeffs[j]);
                self.col_rows[k].push(owner as u32);
                j += 1;
            }
        }
        out
    }

    /// Runs the check loop (Bland's rule for termination), warm-starting
    /// from the current basis and assignment.  `Err` carries the tags of a
    /// Farkas certificate — an irreducible jointly-infeasible subset of the
    /// asserted bounds (the stuck row's violated bound plus the blocking
    /// bounds of its nonbasics).
    pub fn check(&mut self) -> Result<(), Vec<u32>> {
        self.check_budgeted(u64::MAX)
            .expect("an unbounded check always reaches a verdict")
    }

    /// [`IncrementalSimplex::check`] with a pivot budget: `None` means the
    /// budget ran out before a verdict.  The tableau is left in a
    /// consistent mid-loop state (invariants hold, remaining violations
    /// stay queued in the suspect set), so a later call resumes the pivot
    /// sequence where this one stopped — eager callers use a small budget
    /// to harvest cheap propagations without stalling on a tableau that
    /// needs real pivot work, which the leaf check then finishes.
    pub fn check_budgeted(&mut self, max_pivots: u64) -> Option<Result<(), Vec<u32>>> {
        let _span = posr_obs::span!("simplex", "simplex.pivot-session");
        // chaos-test injection point: a leaf check may panic (unwinds to
        // the entry-point catch), stall, or simulate a coefficient
        // overflow exactly where the real ones happen
        if let Some(posr_obs::FaultKind::Overflow) = posr_obs::fault::fire(
            "simplex.check",
            &[
                posr_obs::FaultKind::Panic,
                posr_obs::FaultKind::Delay,
                posr_obs::FaultKind::Overflow,
            ],
        ) {
            crate::rational::overflow_panic();
        }
        let result = self.check_loop(max_pivots);
        self.flush_obs();
        result
    }

    /// Pushes the counter deltas accumulated since the last flush to the
    /// process-wide obs counters (pivots change only inside `check`, but
    /// row touches also accrue in assert-time `update`s — the watermark
    /// catches those at the next check).
    fn flush_obs(&mut self) {
        OBS_PIVOTS.add(self.pivots - self.obs_pivots_flushed);
        self.obs_pivots_flushed = self.pivots;
        OBS_ROW_TOUCHES.add(self.row_touches - self.obs_touches_flushed);
        self.obs_touches_flushed = self.row_touches;
        OBS_DENSE_ROW_TOUCHES.add(self.dense_row_touches - self.obs_dense_flushed);
        self.obs_dense_flushed = self.dense_row_touches;
    }

    fn check_loop(&mut self, max_pivots: u64) -> Option<Result<(), Vec<u32>>> {
        let mut budget = max_pivots;
        loop {
            // smallest basic variable violating one of its bounds — drawn
            // from the suspect set, which is a superset of the violating
            // basics (so the minimum over it is the true Bland minimum, and
            // the pivot sequence matches a dense scan exactly); verified
            // in-bounds suspects are dropped until an assignment or bound
            // event re-queues them
            let mut min_violating: Option<usize> = None;
            let mut i = 0;
            while i < self.suspect.len() {
                let v = self.suspect[i] as usize;
                if self.is_basic(v) && (self.violates_lower(v) || self.violates_upper(v)) {
                    if min_violating.is_none_or(|m| v < m) {
                        min_violating = Some(v);
                    }
                    i += 1;
                } else {
                    self.suspect_flag[v] = false;
                    self.suspect.swap_remove(i);
                }
            }
            let Some(b) = min_violating else {
                return Some(Ok(()));
            };
            if budget == 0 {
                return None;
            }
            budget -= 1;
            debug_assert_eq!(
                Some(b),
                (0..self.beta.len()).find(
                    |&v| self.is_basic(v) && (self.violates_lower(v) || self.violates_upper(v))
                ),
                "suspect set must select the dense Bland minimum"
            );
            let lower_violation = self.violates_lower(b);
            let target = if lower_violation {
                self.lower[b].expect("violated lower bound exists").0
            } else {
                self.upper[b].expect("violated upper bound exists").0
            };
            // Bland's rule: the *smallest* suitable nonbasic — rows keep
            // their columns sorted, so the first hit is the smallest.  A
            // lower violation needs β(b) to rise: a > 0 nonbasics must be
            // free to increase (below their upper bound), a < 0 free to
            // decrease — and dually for an upper violation.
            let row = self.rows[b].as_ref().expect("basic");
            let candidate = row
                .iter()
                .find(|&(n, a)| {
                    debug_assert!(!self.is_basic(n));
                    if lower_violation == a.is_positive() {
                        self.upper[n].is_none_or(|(u, _)| self.beta[n] < u)
                    } else {
                        self.lower[n].is_none_or(|(l, _)| self.beta[n] > l)
                    }
                })
                .map(|(n, _)| n);
            match candidate {
                None => return Some(Err(self.conflict_core(b, lower_violation))),
                Some(n) => self.pivot_and_update(b, n, target),
            }
        }
    }

    /// The bound tags of the Farkas certificate at a stuck row: when basic
    /// `b` violates a bound and no nonbasic in its row can move, every
    /// nonbasic is pinned at its blocking bound — those bounds plus the
    /// violated one are jointly infeasible, and the set is irreducible by
    /// construction.
    fn conflict_core(&self, b: usize, lower_violation: bool) -> Vec<u32> {
        let row = self.rows[b].as_ref().expect("basic");
        let mut core = Vec::with_capacity(row.len() + 1);
        let own = if lower_violation {
            self.lower[b].expect("violated bound").1
        } else {
            self.upper[b].expect("violated bound").1
        };
        core.push(own);
        for (n, a) in row.iter() {
            // lower violation needs β(b) to rise: a > 0 nonbasics are
            // blocked at their upper bound, a < 0 at their lower (and
            // dually for an upper violation)
            let blocking_upper = lower_violation == a.is_positive();
            let tag = if blocking_upper {
                self.upper[n].expect("blocking bound").1
            } else {
                self.lower[n].expect("blocking bound").1
            };
            core.push(tag);
        }
        core.sort_unstable();
        core.dedup();
        core
    }

    /// The current rational assignment of the registered problem variables.
    pub fn model(&self) -> BTreeMap<Var, Rat> {
        let mut out = BTreeMap::new();
        for (&var, &col) in &self.var_cols {
            out.insert(var, self.beta[col]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarPool;

    fn le(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Le }
    }
    fn ge(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Ge }
    }
    fn eq(expr: LinExpr) -> SimplexConstraint {
        SimplexConstraint { expr, rel: Rel::Eq }
    }

    fn check_model(constraints: &[SimplexConstraint], model: &BTreeMap<Var, Rat>) {
        for c in constraints {
            let mut value = Rat::from_int(c.expr.constant_part());
            for (v, coeff) in c.expr.terms() {
                value += Rat::from_int(coeff) * model.get(&v).copied().unwrap_or(Rat::ZERO);
            }
            let ok = match c.rel {
                Rel::Le => value <= Rat::ZERO,
                Rel::Ge => value >= Rat::ZERO,
                Rel::Eq => value == Rat::ZERO,
            };
            assert!(ok, "model violates constraint {:?} (value {value})", c.rel);
        }
    }

    #[test]
    fn simple_feasible_system() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x + y = 5, x >= 2, y >= 2
        let constraints = vec![
            eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
            ge(LinExpr::var(x) - LinExpr::constant(2)),
            ge(LinExpr::var(y) - LinExpr::constant(2)),
        ];
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => check_model(&constraints, &m),
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
    }

    #[test]
    fn simple_infeasible_system() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // x >= 3 and x <= 2
        let constraints = vec![
            ge(LinExpr::var(x) - LinExpr::constant(3)),
            le(LinExpr::var(x) - LinExpr::constant(2)),
        ];
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
    }

    #[test]
    fn infeasible_needs_combination() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        // x + y >= 10, x <= 3, y <= 3
        let constraints = vec![
            ge(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(10)),
            le(LinExpr::var(x) - LinExpr::constant(3)),
            le(LinExpr::var(y) - LinExpr::constant(3)),
        ];
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
    }

    #[test]
    fn rational_solution_found() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        // 2x = 1
        let constraints = vec![eq(LinExpr::scaled_var(x, 2) - LinExpr::constant(1))];
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => {
                assert_eq!(m[&x], Rat::new(1, 2));
            }
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
    }

    #[test]
    fn equalities_propagate() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let z = pool.fresh("z");
        // x = y, y = z, x + y + z = 9 -> all 3
        let constraints = vec![
            eq(LinExpr::var(x) - LinExpr::var(y)),
            eq(LinExpr::var(y) - LinExpr::var(z)),
            eq(LinExpr::var(x) + LinExpr::var(y) + LinExpr::var(z) - LinExpr::constant(9)),
        ];
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => {
                check_model(&constraints, &m);
                assert_eq!(m[&x], Rat::from_int(3));
            }
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
    }

    #[test]
    fn constant_contradiction() {
        // 0 >= 1 expressed as an expression with no variables
        let constraints = vec![ge(LinExpr::constant(-1))];
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
        let constraints = vec![ge(LinExpr::constant(1))];
        assert!(check_feasibility(&constraints).is_feasible());
    }

    #[test]
    fn larger_chain_is_feasible() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..20).map(|i| pool.fresh(&format!("x{i}"))).collect();
        // x0 >= 1, x_{i+1} >= x_i + 1, x_19 <= 100
        let mut constraints = vec![ge(LinExpr::var(vars[0]) - LinExpr::constant(1))];
        for w in vars.windows(2) {
            constraints.push(ge(LinExpr::var(w[1])
                - LinExpr::var(w[0])
                - LinExpr::constant(1)));
        }
        constraints.push(le(LinExpr::var(vars[19]) - LinExpr::constant(100)));
        match check_feasibility(&constraints) {
            SimplexResult::Feasible(m) => check_model(&constraints, &m),
            SimplexResult::Infeasible => panic!("should be feasible"),
        }
        // tightening the last bound to 10 makes it infeasible
        constraints.pop();
        constraints.push(le(LinExpr::var(vars[19]) - LinExpr::constant(10)));
        assert_eq!(check_feasibility(&constraints), SimplexResult::Infeasible);
    }

    #[test]
    fn atoms_sharing_a_form_share_a_tableau_variable() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut simplex = IncrementalSimplex::new();
        // four scalings/shifts of the same form x + y: one slack variable
        simplex.prepare(&le(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(3)));
        simplex.prepare(&ge(
            LinExpr::scaled_var(x, 2) + LinExpr::scaled_var(y, 2) - LinExpr::constant(8)
        ));
        simplex.prepare(&le(LinExpr::zero() - LinExpr::var(x) - LinExpr::var(y)));
        simplex.prepare(&eq(LinExpr::var(x) + LinExpr::var(y)));
        // two problem columns + one slack
        assert_eq!(simplex.num_tableau_vars(), 3);
    }

    #[test]
    fn assert_retract_roundtrip_restores_feasibility() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut simplex = IncrementalSimplex::new();
        simplex
            .assert_constraint(
                &eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
                0,
            )
            .unwrap();
        simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(2)), 1)
            .unwrap();
        assert!(simplex.check().is_ok());
        let base = simplex.num_asserted();
        // x + y = 5 ∧ x ≥ 2 ∧ y ≥ 4 is infeasible
        simplex
            .assert_constraint(&ge(LinExpr::var(y) - LinExpr::constant(4)), 2)
            .unwrap();
        let core = simplex.check().expect_err("infeasible");
        assert!(
            core.contains(&2),
            "core {core:?} must involve the new bound"
        );
        simplex.retract_to(base);
        assert!(simplex.check().is_ok(), "retraction restores feasibility");
        check_model(
            &[
                eq(LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(5)),
                ge(LinExpr::var(x) - LinExpr::constant(2)),
            ],
            &simplex.model(),
        );
    }

    #[test]
    fn immediate_bound_clash_returns_both_tags() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let mut simplex = IncrementalSimplex::new();
        simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(3)), 7)
            .unwrap();
        let err = simplex
            .assert_constraint(&le(LinExpr::var(x) - LinExpr::constant(2)), 9)
            .expect_err("clashing bounds");
        assert_eq!(err.len(), 2);
        assert!(err.contains(&7) && err.contains(&9));
        // the failed assertion left no trace
        assert_eq!(simplex.num_asserted(), 1);
        assert!(simplex.check().is_ok());
    }

    #[test]
    fn levels_nest_and_pop_in_order() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let mut simplex = IncrementalSimplex::new();
        simplex.assert_constraint(&ge(LinExpr::var(x)), 0).unwrap();
        simplex.push_level();
        simplex
            .assert_constraint(&le(LinExpr::var(x) - LinExpr::constant(5)), 1)
            .unwrap();
        simplex.push_level();
        assert!(simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(9)), 2)
            .is_err());
        simplex.pop_level();
        assert!(simplex.check().is_ok());
        assert!(simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(9)), 3)
            .is_err());
        simplex.pop_to_level(0);
        assert!(simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(9)), 4)
            .is_ok());
        assert!(simplex.check().is_ok());
        assert!(simplex.model()[&x] >= Rat::from_int(9));
    }

    #[test]
    fn sparse_saves_row_touches_on_a_long_chain() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..40).map(|i| pool.fresh(&format!("c{i}"))).collect();
        let mut simplex = IncrementalSimplex::new();
        let mut tag = 0u32;
        simplex
            .assert_constraint(&ge(LinExpr::var(vars[0]) - LinExpr::constant(1)), tag)
            .unwrap();
        for w in vars.windows(2) {
            tag += 1;
            simplex
                .assert_constraint(
                    &ge(LinExpr::var(w[1]) - LinExpr::var(w[0]) - LinExpr::constant(1)),
                    tag,
                )
                .unwrap();
        }
        assert!(simplex.check().is_ok());
        assert!(simplex.pivots() > 0);
        assert!(
            simplex.row_touches() < simplex.dense_row_touches(),
            "occurrence index must beat the dense scan on a chain: {} vs {}",
            simplex.row_touches(),
            simplex.dense_row_touches()
        );
    }

    #[test]
    fn implied_bounds_match_the_assignment() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let mut simplex = IncrementalSimplex::new();
        // 2 ≤ x ≤ 3, 1 ≤ y ≤ 4: the form x + y is implied into [3, 7]
        simplex
            .assert_constraint(&ge(LinExpr::var(x) - LinExpr::constant(2)), 0)
            .unwrap();
        simplex
            .assert_constraint(&le(LinExpr::var(x) - LinExpr::constant(3)), 1)
            .unwrap();
        simplex
            .assert_constraint(&ge(LinExpr::var(y) - LinExpr::constant(1)), 2)
            .unwrap();
        simplex
            .assert_constraint(&le(LinExpr::var(y) - LinExpr::constant(4)), 3)
            .unwrap();
        let p = simplex.prepare(&le(
            LinExpr::var(x) + LinExpr::var(y) - LinExpr::constant(100)
        ));
        let s = p.tableau_owner().expect("slack owner");
        assert!(simplex.is_slack(s));
        assert!(simplex.check().is_ok());
        let mut tags = Vec::new();
        let hi = simplex.implied_bound(s, true, 64, &mut tags);
        assert_eq!(hi, Some(Rat::from_int(7)));
        tags.sort_unstable();
        assert_eq!(tags, vec![1, 3]);
        tags.clear();
        let lo = simplex.implied_bound(s, false, 64, &mut tags);
        assert_eq!(lo, Some(Rat::from_int(3)));
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 2]);
        // β must sit inside the implied interval (the guided filter relies
        // on this necessary condition)
        assert!(simplex.beta_of(s) >= Rat::from_int(3));
        assert!(simplex.beta_of(s) <= Rat::from_int(7));
    }

    /// Structural invariants of the sparse layout: rows sorted with
    /// nonzero coefficients over nonbasic columns, the occurrence index
    /// exact (no stale or missing entries, no duplicates), and every basic
    /// value equal to its row evaluated at the nonbasics.
    fn check_invariants(s: &IncrementalSimplex) {
        for (b, row) in s.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            assert!(
                row.cols.windows(2).all(|w| w[0] < w[1]),
                "row of {b} not strictly sorted"
            );
            let mut value = Rat::ZERO;
            for (k, a) in row.iter() {
                assert!(!a.is_zero(), "zero coefficient in row of {b}");
                assert!(s.rows[k].is_none(), "row of {b} mentions basic {k}");
                assert!(
                    s.col_rows[k].contains(&(b as u32)),
                    "occurrence index misses {b} in column {k}"
                );
                value += a * s.beta[k];
            }
            assert_eq!(value, s.beta[b], "β inconsistent at basic {b}");
        }
        for (k, occ) in s.col_rows.iter().enumerate() {
            let mut sorted = occ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), occ.len(), "duplicate occurrence in col {k}");
            for &b in occ {
                let row = s.rows[b as usize]
                    .as_ref()
                    .unwrap_or_else(|| panic!("stale occurrence: {b} not basic (col {k})"));
                assert!(
                    row.get(k).is_some(),
                    "stale occurrence: row of {b} lacks col {k}"
                );
            }
        }
        // the suspect set over-approximates the violating basics, and its
        // dedup flags agree with the list
        for v in 0..s.beta.len() {
            if s.is_basic(v) && (s.violates_lower(v) || s.violates_upper(v)) {
                assert!(s.suspect_flag[v], "violating basic {v} not suspect");
            }
            assert_eq!(
                s.suspect_flag[v],
                s.suspect.contains(&(v as u32)),
                "suspect flag out of sync at {v}"
            );
        }
    }

    /// The retired dense `BTreeMap` tableau, kept verbatim as the
    /// differential oracle for the sparse rewrite.  Pivot selection is
    /// identical (Bland's rule over column-sorted rows), so a correct
    /// sparse tableau reproduces its pivot count, model, and cores
    /// *exactly* — not just its verdicts.
    mod dense {
        use super::super::{core_to_indices, Rel, SimplexConstraint};
        use crate::rational::{gcd, Rat};
        use crate::term::{LinExpr, Var};
        use std::collections::{BTreeMap, HashMap};

        struct UndoEntry {
            var: usize,
            upper: bool,
            old: Option<(Rat, u32)>,
        }

        pub struct DenseSimplex {
            var_cols: HashMap<Var, usize>,
            forms: HashMap<LinExpr, usize>,
            rows: Vec<Option<BTreeMap<usize, Rat>>>,
            lower: Vec<Option<(Rat, u32)>>,
            upper: Vec<Option<(Rat, u32)>>,
            beta: Vec<Rat>,
            undo: Vec<UndoEntry>,
            assert_marks: Vec<usize>,
            level_marks: Vec<usize>,
            pivots: u64,
        }

        impl DenseSimplex {
            pub fn new() -> DenseSimplex {
                DenseSimplex {
                    var_cols: HashMap::new(),
                    forms: HashMap::new(),
                    rows: Vec::new(),
                    lower: Vec::new(),
                    upper: Vec::new(),
                    beta: Vec::new(),
                    undo: Vec::new(),
                    assert_marks: Vec::new(),
                    level_marks: Vec::new(),
                    pivots: 0,
                }
            }

            pub fn num_asserted(&self) -> usize {
                self.assert_marks.len()
            }

            pub fn pivots(&self) -> u64 {
                self.pivots
            }

            fn add_var(&mut self) -> usize {
                let idx = self.beta.len();
                self.rows.push(None);
                self.lower.push(None);
                self.upper.push(None);
                self.beta.push(Rat::ZERO);
                idx
            }

            fn col_of(&mut self, v: Var) -> usize {
                if let Some(&c) = self.var_cols.get(&v) {
                    return c;
                }
                let c = self.add_var();
                self.var_cols.insert(v, c);
                c
            }

            fn slack_of(&mut self, form: &LinExpr) -> usize {
                if let Some(&s) = self.forms.get(form) {
                    return s;
                }
                let mut row: BTreeMap<usize, Rat> = BTreeMap::new();
                for (v, c) in form.terms() {
                    let col = self.col_of(v);
                    let coeff = Rat::from_int(c);
                    if let Some(def) = self.rows[col].clone() {
                        for (j, a) in def {
                            let entry = row.entry(j).or_insert(Rat::ZERO);
                            *entry += coeff * a;
                        }
                    } else {
                        let entry = row.entry(col).or_insert(Rat::ZERO);
                        *entry += coeff;
                    }
                }
                row.retain(|_, r| !r.is_zero());
                let mut value = Rat::ZERO;
                for (&j, &a) in &row {
                    value += a * self.beta[j];
                }
                let s = self.add_var();
                self.rows[s] = Some(row);
                self.beta[s] = value;
                self.forms.insert(form.clone(), s);
                s
            }

            pub fn assert_constraint(
                &mut self,
                constraint: &SimplexConstraint,
                tag: u32,
            ) -> Result<(), Vec<u32>> {
                let k = constraint.expr.constant_part();
                if constraint.expr.is_constant() {
                    let const_sat = match constraint.rel {
                        Rel::Le => k <= 0,
                        Rel::Ge => k >= 0,
                        Rel::Eq => k == 0,
                    };
                    if const_sat {
                        self.assert_marks.push(self.undo.len());
                        return Ok(());
                    }
                    return Err(vec![tag]);
                }
                let mut g: i128 = 0;
                let mut first_sign: i128 = 0;
                for (_, c) in constraint.expr.terms() {
                    g = gcd(g, c);
                    if first_sign == 0 {
                        first_sign = if c > 0 { 1 } else { -1 };
                    }
                }
                let scale = g * first_sign;
                let mut form = LinExpr::zero();
                for (v, c) in constraint.expr.terms() {
                    form.add_term(v, c / scale);
                }
                let bound = Rat::from_int(-k) / Rat::from_int(scale);
                let rel = match (constraint.rel, scale > 0) {
                    (rel, true) => rel,
                    (Rel::Le, false) => Rel::Ge,
                    (Rel::Ge, false) => Rel::Le,
                    (Rel::Eq, false) => Rel::Eq,
                };
                let x = if form.num_terms() == 1 {
                    let v = form.variables().next().expect("single term");
                    self.col_of(v)
                } else {
                    self.slack_of(&form)
                };
                let (lo, hi) = match rel {
                    Rel::Le => (None, Some(bound)),
                    Rel::Ge => (Some(bound), None),
                    Rel::Eq => (Some(bound), Some(bound)),
                };
                let mark = self.undo.len();
                if let Some(lo) = lo {
                    if let Some((hi, hi_tag)) = self.upper[x] {
                        if lo > hi {
                            return Err(vec![hi_tag, tag]);
                        }
                    }
                    if self.lower[x].is_none_or(|(cur, _)| lo > cur) {
                        self.undo.push(UndoEntry {
                            var: x,
                            upper: false,
                            old: self.lower[x],
                        });
                        self.lower[x] = Some((lo, tag));
                        if self.rows[x].is_none() && self.beta[x] < lo {
                            self.update(x, lo);
                        }
                    }
                }
                if let Some(hi) = hi {
                    if let Some((lo, lo_tag)) = self.lower[x] {
                        if hi < lo {
                            self.unwind_to(mark);
                            return Err(vec![lo_tag, tag]);
                        }
                    }
                    if self.upper[x].is_none_or(|(cur, _)| hi < cur) {
                        self.undo.push(UndoEntry {
                            var: x,
                            upper: true,
                            old: self.upper[x],
                        });
                        self.upper[x] = Some((hi, tag));
                        if self.rows[x].is_none() && self.beta[x] > hi {
                            self.update(x, hi);
                        }
                    }
                }
                self.assert_marks.push(mark);
                Ok(())
            }

            pub fn retract_to(&mut self, n: usize) {
                while self.assert_marks.len() > n {
                    let mark = self.assert_marks.pop().expect("non-empty");
                    self.unwind_to(mark);
                }
                while self
                    .level_marks
                    .last()
                    .is_some_and(|&m| m > self.assert_marks.len())
                {
                    self.level_marks.pop();
                }
            }

            fn unwind_to(&mut self, mark: usize) {
                while self.undo.len() > mark {
                    let entry = self.undo.pop().expect("non-empty");
                    if entry.upper {
                        self.upper[entry.var] = entry.old;
                    } else {
                        self.lower[entry.var] = entry.old;
                    }
                }
            }

            pub fn push_level(&mut self) {
                self.level_marks.push(self.assert_marks.len());
            }

            pub fn pop_level(&mut self) {
                if let Some(n) = self.level_marks.pop() {
                    self.retract_to(n);
                }
            }

            fn is_basic(&self, v: usize) -> bool {
                self.rows[v].is_some()
            }

            fn violates_lower(&self, v: usize) -> bool {
                matches!(self.lower[v], Some((l, _)) if self.beta[v] < l)
            }

            fn violates_upper(&self, v: usize) -> bool {
                matches!(self.upper[v], Some((u, _)) if self.beta[v] > u)
            }

            fn update(&mut self, n: usize, v: Rat) {
                let delta = v - self.beta[n];
                self.beta[n] = v;
                for other in 0..self.beta.len() {
                    if let Some(row) = &self.rows[other] {
                        if let Some(&a_on) = row.get(&n) {
                            self.beta[other] += a_on * delta;
                        }
                    }
                }
            }

            fn pivot_and_update(&mut self, b: usize, n: usize, v: Rat) {
                let row_b = self.rows[b].clone().expect("b must be basic");
                let a_bn = *row_b.get(&n).expect("n must occur in the row of b");
                let theta = (v - self.beta[b]) / a_bn;
                self.beta[b] = v;
                self.beta[n] += theta;
                for other in 0..self.beta.len() {
                    if other != b {
                        if let Some(row) = &self.rows[other] {
                            if let Some(&a_on) = row.get(&n) {
                                self.beta[other] += a_on * theta;
                            }
                        }
                    }
                }
                self.pivot(b, n, &row_b, a_bn);
                self.pivots += 1;
            }

            fn pivot(&mut self, b: usize, n: usize, row_b: &BTreeMap<usize, Rat>, a_bn: Rat) {
                let mut new_row_n: BTreeMap<usize, Rat> = BTreeMap::new();
                new_row_n.insert(b, Rat::ONE / a_bn);
                for (&k, &a_bk) in row_b {
                    if k != n {
                        new_row_n.insert(k, -a_bk / a_bn);
                    }
                }
                new_row_n.retain(|_, r| !r.is_zero());
                self.rows[b] = None;
                for other in 0..self.rows.len() {
                    if other == n {
                        continue;
                    }
                    let Some(row) = self.rows[other].clone() else {
                        continue;
                    };
                    if let Some(&a_on) = row.get(&n) {
                        let mut new_row = row.clone();
                        new_row.remove(&n);
                        for (&k, &c) in &new_row_n {
                            let entry = new_row.entry(k).or_insert(Rat::ZERO);
                            *entry += a_on * c;
                        }
                        new_row.retain(|_, r| !r.is_zero());
                        self.rows[other] = Some(new_row);
                    }
                }
                self.rows[n] = Some(new_row_n);
            }

            pub fn check(&mut self) -> Result<(), Vec<u32>> {
                loop {
                    let violating = (0..self.beta.len()).find(|&v| {
                        self.is_basic(v) && (self.violates_lower(v) || self.violates_upper(v))
                    });
                    let Some(b) = violating else {
                        return Ok(());
                    };
                    let row = self.rows[b].clone().expect("basic");
                    let lower_violation = self.violates_lower(b);
                    if lower_violation {
                        let target = self.lower[b].expect("violated lower bound exists").0;
                        let candidate = row.iter().find(|(&n, &a)| {
                            (a.is_positive() && self.upper[n].is_none_or(|(u, _)| self.beta[n] < u))
                                || (a.is_negative()
                                    && self.lower[n].is_none_or(|(l, _)| self.beta[n] > l))
                        });
                        match candidate {
                            None => return Err(self.conflict_core(b, &row, true)),
                            Some((&n, _)) => self.pivot_and_update(b, n, target),
                        }
                    } else {
                        let target = self.upper[b].expect("violated upper bound exists").0;
                        let candidate = row.iter().find(|(&n, &a)| {
                            (a.is_negative() && self.upper[n].is_none_or(|(u, _)| self.beta[n] < u))
                                || (a.is_positive()
                                    && self.lower[n].is_none_or(|(l, _)| self.beta[n] > l))
                        });
                        match candidate {
                            None => return Err(self.conflict_core(b, &row, false)),
                            Some((&n, _)) => self.pivot_and_update(b, n, target),
                        }
                    }
                }
            }

            fn conflict_core(
                &self,
                b: usize,
                row: &BTreeMap<usize, Rat>,
                lower_violation: bool,
            ) -> Vec<u32> {
                let mut core = Vec::with_capacity(row.len() + 1);
                let own = if lower_violation {
                    self.lower[b].expect("violated bound").1
                } else {
                    self.upper[b].expect("violated bound").1
                };
                core.push(own);
                for (&n, &a) in row {
                    let blocking_upper = lower_violation == a.is_positive();
                    let tag = if blocking_upper {
                        self.upper[n].expect("blocking bound").1
                    } else {
                        self.lower[n].expect("blocking bound").1
                    };
                    core.push(tag);
                }
                core.sort_unstable();
                core.dedup();
                core
            }

            pub fn model(&self) -> BTreeMap<Var, Rat> {
                let mut out = BTreeMap::new();
                for (&var, &col) in &self.var_cols {
                    out.insert(var, self.beta[col]);
                }
                out
            }

            pub fn check_with_core_indices(&mut self) -> Result<BTreeMap<Var, Rat>, Vec<usize>> {
                match self.check() {
                    Ok(()) => Ok(self.model()),
                    Err(core) => Err(core_to_indices(core)),
                }
            }
        }
    }

    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn int(&mut self, lo: i128, hi: i128) -> i128 {
            lo + (self.next() % ((hi - lo + 1) as u64)) as i128
        }
    }

    fn random_constraint(rng: &mut Rng, vars: &[Var]) -> SimplexConstraint {
        let n_terms = 1 + rng.below(3) as usize;
        let mut expr = LinExpr::constant(rng.int(-10, 10));
        for _ in 0..n_terms {
            let v = vars[rng.below(vars.len() as u64) as usize];
            let mut c = rng.int(-3, 3);
            if c == 0 {
                c = 1;
            }
            expr.add_term(v, c);
        }
        let rel = match rng.below(3) {
            0 => Rel::Le,
            1 => Rel::Ge,
            _ => Rel::Eq,
        };
        SimplexConstraint { expr, rel }
    }

    /// The tentpole pin: random assert/push/pop/check sessions must leave
    /// the sparse tableau and the retired dense oracle in *identical*
    /// observable states — same assert verdicts and clash tags, same check
    /// verdicts, same pivot counts, same models, same Farkas cores — with
    /// every returned core certified infeasible by a one-shot re-check and
    /// the occurrence-index invariants intact after every operation.
    #[test]
    fn sparse_tableau_matches_dense_oracle_over_random_sessions() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..6).map(|i| pool.fresh(&format!("v{i}"))).collect();
        for seed in 1..=10u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut sparse = IncrementalSimplex::new();
            let mut oracle = dense::DenseSimplex::new();
            let mut asserted: Vec<SimplexConstraint> = Vec::new();
            for _ in 0..80 {
                match rng.below(10) {
                    0..=4 => {
                        let c = random_constraint(&mut rng, &vars);
                        let tag = asserted.len() as u32;
                        let rs = sparse.assert_constraint(&c, tag);
                        let ro = oracle.assert_constraint(&c, tag);
                        assert_eq!(rs, ro, "assert disagreement on {c:?} (seed {seed})");
                        if rs.is_ok() {
                            asserted.push(c);
                        }
                    }
                    5 => {
                        sparse.push_level();
                        oracle.push_level();
                    }
                    6 => {
                        sparse.pop_level();
                        oracle.pop_level();
                        asserted.truncate(sparse.num_asserted());
                    }
                    _ => {
                        let rs = sparse.check();
                        let ro = oracle.check();
                        assert_eq!(rs, ro, "check disagreement (seed {seed})");
                        assert_eq!(
                            sparse.pivots(),
                            oracle.pivots(),
                            "pivot counts diverged (seed {seed})"
                        );
                        match rs {
                            Ok(()) => {
                                assert_eq!(
                                    sparse.model(),
                                    oracle.model(),
                                    "models diverged (seed {seed})"
                                );
                                check_model(&asserted, &sparse.model());
                            }
                            Err(core) => {
                                // certify: the core's constraints alone are
                                // jointly infeasible
                                let sub: Vec<SimplexConstraint> =
                                    core.iter().map(|&t| asserted[t as usize].clone()).collect();
                                assert!(
                                    !check_feasibility(&sub).is_feasible(),
                                    "core not infeasible (seed {seed}): {core:?}"
                                );
                                // an infeasible state stays infeasible; drop
                                // back to a clean prefix to keep the session
                                // going (mirrored on both sides)
                                let keep = asserted.len() / 2;
                                sparse.retract_to(keep);
                                oracle.retract_to(keep);
                                asserted.truncate(keep);
                            }
                        }
                    }
                }
                assert_eq!(sparse.num_asserted(), oracle.num_asserted());
                check_invariants(&sparse);
            }
        }
    }

    /// The dense oracle agrees with the one-shot public entry point — a
    /// sanity pin that the copied oracle is itself faithful.
    #[test]
    fn dense_oracle_matches_one_shot_entry_point() {
        let mut pool = VarPool::new();
        let vars: Vec<Var> = (0..5).map(|i| pool.fresh(&format!("w{i}"))).collect();
        let mut rng = Rng(0xdead_beef_cafe_f00d);
        for _ in 0..50 {
            let n = 2 + rng.below(6) as usize;
            let cs: Vec<SimplexConstraint> =
                (0..n).map(|_| random_constraint(&mut rng, &vars)).collect();
            let mut oracle = dense::DenseSimplex::new();
            let mut early = None;
            for (i, c) in cs.iter().enumerate() {
                if let Err(core) = oracle.assert_constraint(c, i as u32) {
                    early = Some(core_to_indices(core));
                    break;
                }
            }
            let oracle_result = match early {
                Some(core) => Err(core),
                None => oracle.check_with_core_indices(),
            };
            match (check_feasibility_with_core(&cs), oracle_result) {
                (Ok(m1), Ok(m2)) => assert_eq!(m1, m2),
                (Err(c1), Err(c2)) => assert_eq!(c1, c2),
                (a, b) => panic!("verdicts diverged: {a:?} vs {b:?}"),
            }
        }
    }
}
