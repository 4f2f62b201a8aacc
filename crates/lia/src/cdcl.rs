//! An iterative CDCL(T) search engine for quantifier-free LIA.
//!
//! This is the clause-learning successor of the recursive "structural
//! DPLL(T)" walk in [`crate::oracle`] (which is kept as a
//! differential-testing oracle).  The formula is clausified by [`crate::cnf`] into an
//! atom-indexed clause database; the search is the standard modern loop:
//!
//! * an **assignment trail** with decision levels and reason clauses,
//! * **two-watched-literal** Boolean constraint propagation,
//! * **1UIP conflict analysis** with clause learning and activity bumping,
//! * **non-chronological backjumping** to the second-highest level of the
//!   learned clause,
//! * **Luby restarts** and **VSIDS-style** activity-ordered decisions with
//!   phase saving.
//!
//! The engine is *persistent*: `Engine::solve` can be called repeatedly
//! on a growing clause database (`Engine::add_root_clause` /
//! `Engine::grow_theory`), under **assumptions** (literals enqueued as
//! pseudo-decisions before the search proper, the mechanism behind the
//! `push`/`pop` frames of [`crate::incremental`]).  Learned clauses, VSIDS
//! activities and saved phases survive across calls, and an LBD-ranked
//! learned-clause GC (`Engine::reduce_db`, triggered at restarts) keeps
//! long sessions from growing unboundedly.  One-shot solving
//! ([`solve_cdcl`]) is the special case of a fresh engine and no
//! assumptions.
//!
//! The theory side is as incremental as the Boolean side (the full
//! DPLL(T) architecture of Dutertre & de Moura):
//!
//! * every assigned theory literal contributes one bound constraint (both
//!   polarities are exact over ℤ, see [`crate::cnf`]);
//! * at every propagation fixpoint that added theory literals, interval
//!   propagation ([`crate::bounds`]) checks the conjunction incrementally
//!   (a persistent [`ConstraintIndex`] kept in lock-step with the trail
//!   drives the worklist cascade), and the divisibility test
//!   ([`crate::eqelim`]) re-runs when the set of bound-pinned variables
//!   actually changed (pinning is monotone within a decision level, so the
//!   pinned-count is an exact change detector; a periodic re-run covers
//!   equality pairs that complete without new pinning).  Refutations are
//!   narrowed to a minimal core by [`crate::explain`] and learned as
//!   clauses, which is what prunes the symmetric K≥2 mismatch case splits
//!   of the tag-automaton encodings;
//! * after each consistent fixpoint, **theory propagation** scans the
//!   variables whose intervals tightened against the atom→bound registry
//!   (atoms grouped by constant-stripped form, sorted by threshold) and
//!   enqueues every entailed literal with a *lazy* explanation — the
//!   entailing bound core is only materialised if conflict analysis later
//!   resolves on the literal — so bound/parity conflicts are cut off
//!   levels early instead of being rediscovered as full conflicts
//!   (`SolverConfig::theory_propagation`, on by default);
//! * at the leaves (a full assignment, or every original clause already
//!   satisfied) a **persistent, backtrackable simplex**
//!   ([`crate::simplex::IncrementalSimplex`]) re-checks rational
//!   feasibility: atoms are registered once at `Engine::grow_theory`,
//!   asserted literals become O(1) bound assertions kept in lock-step
//!   with the trail (retracted on backjump), and the pivot loop
//!   warm-starts from the previous basis — its Farkas certificate is the
//!   explanation.  Branch-and-bound ([`crate::intfeas`]) decides integer
//!   feasibility on its own push/pop tableau; integer-only conflicts are
//!   explained by budgeted deletion minimisation and learned.
//!
//! Soundness matches the structural walk: `Sat` carries a model the
//! caller can re-validate, `Unsat` is only reported when the search space
//! was exhausted without any resource-out — and, in a persistent session,
//! only while no search-heuristic blocking clause was ever learned (a
//! resource-out leaves the engine *tainted*: refutations from a tainted
//! database surface as `Unknown`).  Cancellation, the conflict cap and
//! integer resource-outs all surface as `Unknown`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use crate::bounds::{BoundEnv, BoundOutcome, ConstraintIndex};
use crate::cnf::{constraint_of_meaning, split_meaning, Clausifier, Lit};
use crate::explain;
use crate::formula::Formula;
use crate::intfeas::{
    solve_integer_with_pivots, IntFeasConfig, IntFeasResult, BRANCH_AND_BOUND_LIMIT_MSG,
};
use crate::proof::{farkas_coefficients, CertKind, ProofBuilder};
use crate::rational::Rat;
use crate::simplex::{
    check_feasibility, IncrementalSimplex, PreparedBound, Rel, SimplexConstraint,
};
use crate::solver::{Model, SolverConfig, SolverResult};
use crate::term::{LinExpr, Var};

/// Conflicts one `solve` call may spend before it answers
/// `Unknown(`[`CONFLICT_LIMIT_MSG`]`)`: a backstop against runaway
/// searches (wall clocks are the token's deadline).  It sits above what
/// the benchmark families need while keeping resource-outs at a few
/// seconds.
pub const MAX_CONFLICTS: u64 = 50_000;

/// The `Unknown` reason of a `solve` call that hit [`MAX_CONFLICTS`].
pub const CONFLICT_LIMIT_MSG: &str = "conflict limit reached";

/// Reason index of decisions and unassigned variables.
const NO_REASON: u32 = u32::MAX;

/// Approximate heap footprint of a clause of `len` literals, for the
/// memory-budget accounting (header + literal vector).
fn clause_bytes(len: usize) -> u64 {
    48 + 8 * len as u64
}

/// Reason index of theory-propagated literals: the explanation (a bound
/// core entailing the literal) is materialised *lazily*, only when the
/// literal is actually resolved on during conflict analysis.
const TPROP_REASON: u32 = u32::MAX - 1;

/// Restart interval base (conflicts), scaled by the Luby sequence.
const RESTART_BASE: u64 = 256;

/// Node budget of the integer checker during explanation minimisation
/// (failing to prove keeps the constraint — sound, just less minimal).
const EXPLAIN_INT_BUDGET: usize = 2_000;

/// Cores larger than this skip the (quadratic) deletion minimisation for
/// the expensive checkers; the unminimised core is still a sound clause.
const MINIMIZE_CAP: usize = 96;

/// Deletion attempts per conflict for the cheap (propagation-backed)
/// minimisers: the deepest members are tried first, so the budget buys the
/// backjump-relevant part of minimality at a bounded per-conflict cost.
const MINIMIZE_BUDGET: usize = 8;

/// The divisibility test re-runs at every fixpoint where the pinned-variable
/// set changed, and unconditionally every this-many bound checks (equality
/// pairs can complete without pinning anything new).
const GCD_PERIOD: u64 = 8;

/// Learned clauses this short are never garbage-collected (binary lemmas
/// cost next to nothing to keep and propagate eagerly).
const GC_EXEMPT_LEN: usize = 2;

/// The assignment-guided scan skips tableau rows longer than this: the
/// implied-bound sum is linear in the row, and a row this wide almost
/// never has every nonbasic bounded on the needed side anyway.  This is
/// the *starting* cap — the engine adapts it between
/// [`GUIDED_ROW_CAP_MIN`] and [`GUIDED_ROW_CAP_MAX`] by observed payoff.
const GUIDED_ROW_CAP: usize = 128;
const GUIDED_ROW_CAP_MIN: usize = 32;
const GUIDED_ROW_CAP_MAX: usize = 512;

/// Pivot budget of the *eager* simplex check behind guided propagation: a
/// warm-started re-check normally needs zero or a handful of pivots, and
/// that is the only case worth paying for early — when the budget runs out
/// the check is abandoned (resumably) and the leaf check finishes the work.
/// Also a starting value, adapted between [`GUIDED_PIVOT_BUDGET_MIN`] and
/// [`GUIDED_PIVOT_BUDGET_MAX`].
const GUIDED_PIVOT_BUDGET: u64 = 16;
const GUIDED_PIVOT_BUDGET_MIN: u64 = 4;
const GUIDED_PIVOT_BUDGET_MAX: u64 = 64;

/// Consecutive payoff observations (budget exhaustions, or scans that
/// entailed a literal) before the guided budgets move one step.
const GUIDED_ADAPT_STREAK: u32 = 3;

/// Times the guided budgets were doubled after a productive streak.
static OBS_GUIDED_RAISED: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("cdcl.guided_budget_raised"));

/// Times the guided budgets were halved after repeated exhaustion.
static OBS_GUIDED_LOWERED: LazyLock<posr_obs::Counter> =
    LazyLock::new(|| posr_obs::counter("cdcl.guided_budget_lowered"));

/// Distribution of pivots per simplex `check()` (leaf and guided).
static HIST_CHECK_PIVOTS: LazyLock<posr_obs::Histogram> =
    LazyLock::new(|| posr_obs::histogram("simplex.check_pivots"));

/// Distribution of learned-clause LBD scores.
static HIST_LBD: LazyLock<posr_obs::Histogram> = LazyLock::new(|| posr_obs::histogram("cdcl.lbd"));

// The stall watchdog's progress probe: store-latest gauges the search
// loop publishes with relaxed stores so the (separate) watchdog thread
// can report where a wedged solve got to without taking any lock the
// solver holds.  In a portfolio the lanes share these — latest writer
// wins, which is what a "current progress" probe means.
static PROGRESS_CONFLICTS: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cdcl.conflicts"));
static PROGRESS_DECISIONS: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cdcl.decisions"));
static PROGRESS_TRAIL: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("cdcl.trail_depth"));
static PROGRESS_PIVOTS: LazyLock<posr_obs::Gauge> =
    LazyLock::new(|| posr_obs::gauge("simplex.pivots"));

/// Pivots between cancellation polls in a *leaf* simplex check.  On
/// product tableaux with hundreds of rows a single check can run for
/// seconds — far past the search loop's per-iteration deadline poll — so
/// the unbounded check is sliced into resumable budget windows.  Large
/// enough that the slicing is free on normal instances (warm-started
/// checks rarely reach double digits).
const LEAF_CANCEL_SLICE: u64 = 4096;

/// Cumulative counters of a CDCL(T) engine (one search or a whole
/// incremental session — the counters never reset between
/// `Engine::solve` calls).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts resolved (clause learning events).
    pub conflicts: u64,
    /// VSIDS decisions taken (assumption enqueues excluded).
    pub decisions: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned over the engine's lifetime.
    pub learned_total: u64,
    /// Learned clauses currently in the database.
    pub learned_live: u64,
    /// Learned clauses dropped by the LBD-ranked GC.
    pub gc_dropped: u64,
    /// Theory fixpoint checks (bound propagation).
    pub bound_checks: u64,
    /// Divisibility (GCD) checks actually run.
    pub gcd_checks: u64,
    /// Simplex feasibility checks at leaves.
    pub simplex_checks: u64,
    /// Exact integer checks at leaves.
    pub final_checks: u64,
    /// Theory-propagated literals (bound-entailed atoms enqueued instead
    /// of being rediscovered as conflicts).
    pub theory_props: u64,
    /// Structural simplex pivots across all leaf checks — the rational
    /// feasibility checks *and* the branch-and-bound of the integer
    /// leaves (the incremental tableaux warm-start, so this is the
    /// direct measure of what the persistent bases save over per-check
    /// reconstruction).  Derived from the `obs` pivot counter through a
    /// [`posr_obs::CounterScope`] attached for the engine's lifetime, so
    /// this and `simplex.pivots` cannot drift.
    pub simplex_pivots: u64,
    /// Tableau rows actually visited by pivot/update loops (the
    /// occurrence-indexed cost); the dense layout would have scanned the
    /// whole row set each time.  Derived from the `obs` row-touch counter
    /// like `simplex_pivots`.
    pub row_touches: u64,
    /// The subset of `theory_props` enqueued by the assignment-guided
    /// tableau scan (multi-variable atoms the interval scan cannot see).
    pub tprop_entailed: u64,
}

impl SolverStats {
    /// The counter movement since `earlier` (field-wise saturating
    /// subtraction; `learned_live` is a gauge, not a counter, and is kept
    /// as-is).  This is how consumers of [`global_stats`] report "what my
    /// section did" without resetting the process-wide totals.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learned_total: self.learned_total.saturating_sub(earlier.learned_total),
            learned_live: self.learned_live,
            gc_dropped: self.gc_dropped.saturating_sub(earlier.gc_dropped),
            bound_checks: self.bound_checks.saturating_sub(earlier.bound_checks),
            gcd_checks: self.gcd_checks.saturating_sub(earlier.gcd_checks),
            simplex_checks: self.simplex_checks.saturating_sub(earlier.simplex_checks),
            final_checks: self.final_checks.saturating_sub(earlier.final_checks),
            theory_props: self.theory_props.saturating_sub(earlier.theory_props),
            simplex_pivots: self.simplex_pivots.saturating_sub(earlier.simplex_pivots),
            row_touches: self.row_touches.saturating_sub(earlier.row_touches),
            tprop_entailed: self.tprop_entailed.saturating_sub(earlier.tprop_entailed),
        }
    }
}

/// Process-wide accumulation of every engine's counters, flushed at the end
/// of each [`Engine::solve`]; `examples/portfolio.rs --stats` reads it.
static GLOBAL_CONFLICTS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DECISIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_PROPAGATIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_RESTARTS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_LEARNED: AtomicU64 = AtomicU64::new(0);
static GLOBAL_GC_DROPPED: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BOUND_CHECKS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_GCD_CHECKS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_SIMPLEX_CHECKS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_FINAL_CHECKS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_THEORY_PROPS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_SIMPLEX_PIVOTS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ROW_TOUCHES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TPROP_ENTAILED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide cumulative CDCL counters (all engines,
/// all threads, since process start).
pub fn global_stats() -> SolverStats {
    SolverStats {
        conflicts: GLOBAL_CONFLICTS.load(Ordering::Relaxed),
        decisions: GLOBAL_DECISIONS.load(Ordering::Relaxed),
        propagations: GLOBAL_PROPAGATIONS.load(Ordering::Relaxed),
        restarts: GLOBAL_RESTARTS.load(Ordering::Relaxed),
        learned_total: GLOBAL_LEARNED.load(Ordering::Relaxed),
        learned_live: 0,
        gc_dropped: GLOBAL_GC_DROPPED.load(Ordering::Relaxed),
        bound_checks: GLOBAL_BOUND_CHECKS.load(Ordering::Relaxed),
        gcd_checks: GLOBAL_GCD_CHECKS.load(Ordering::Relaxed),
        simplex_checks: GLOBAL_SIMPLEX_CHECKS.load(Ordering::Relaxed),
        final_checks: GLOBAL_FINAL_CHECKS.load(Ordering::Relaxed),
        theory_props: GLOBAL_THEORY_PROPS.load(Ordering::Relaxed),
        simplex_pivots: GLOBAL_SIMPLEX_PIVOTS.load(Ordering::Relaxed),
        row_touches: GLOBAL_ROW_TOUCHES.load(Ordering::Relaxed),
        tprop_entailed: GLOBAL_TPROP_ENTAILED.load(Ordering::Relaxed),
    }
}

/// Decides a quantifier-free NNF formula with the CDCL(T) engine.
pub fn solve_cdcl(nnf: &Formula, config: &SolverConfig) -> SolverResult {
    solve_cdcl_with_proof(nnf, config).0
}

/// [`solve_cdcl`] variant that also returns the serialized proof document
/// when `SolverConfig::proof_logging` is on.  The document is meaningful
/// for `Unsat` answers (it ends in a `final` step an independent replayer
/// can verify); for other answers it is just the log so far.
pub fn solve_cdcl_with_proof(
    nnf: &Formula,
    config: &SolverConfig,
) -> (SolverResult, Option<String>) {
    let cnf = Clausifier::clausify(nnf);
    if cnf.unsat {
        // the clausifier itself refuted the input (e.g. a false constant
        // constraint): the proof is one empty root clause
        let doc = config.proof_logging.then(|| {
            let mut p = ProofBuilder::new();
            p.root(Vec::new());
            p.query();
            p.finish(0);
            p.serialize()
        });
        return (SolverResult::Unsat, doc);
    }
    let mut engine = Engine::empty(config.clone());
    engine.grow_theory(&cnf.theory);
    for lits in cnf.clauses {
        engine.add_root_clause(lits);
    }
    let result = engine.solve(&[]);
    let doc = engine.proof().map(|p| p.serialize());
    (result, doc)
}

struct Clause {
    lits: Vec<Lit>,
    /// Learned (implied) clauses are excluded from the early-Sat check and
    /// are the GC's candidates.
    learnt: bool,
    /// Literal-block distance at learning time (0 for original clauses).
    lbd: u32,
    /// Stable id of this clause in the proof log (0 when logging is off).
    /// Strengthening keeps the id: the removed literals are root-false, so
    /// a replayer using the logged (longer) clause reaches the same units.
    proof_id: u64,
}

/// Everything the theory layer must restore on backjump, snapshotted per
/// decision level so no fixpoint is ever recomputed from scratch.
#[derive(Clone)]
struct TheorySnapshot {
    checked: usize,
    env: BoundEnv,
    gcd_fixed: usize,
}

/// The atoms of one constant-stripped linear form, sorted by threshold:
/// entry `(k, b)` means Boolean variable `b` asserts `form + k ≤ 0`.
/// Given the current interval `[min, max]` of `form`, the entailed-true
/// atoms are the prefix `k ≤ −max` and the entailed-false ones the suffix
/// `k ≥ 1 − min` — two binary-searchable runs.
#[derive(Default)]
struct FormAtoms {
    expr: LinExpr,
    atoms: Vec<(i128, usize)>,
}

/// The atom→bound registry driving theory propagation: every theory atom,
/// grouped by its constant-stripped form and sorted by threshold, plus a
/// variable→forms index so a bound-fixpoint only rescans the forms whose
/// variables actually tightened.
#[derive(Default)]
struct AtomTable {
    by_form: HashMap<LinExpr, usize>,
    forms: Vec<FormAtoms>,
    by_var: BTreeMap<Var, Vec<usize>>,
    /// Scan stamps (one slot per form) deduplicating the per-fixpoint
    /// form worklist without clearing a bitmap.
    stamps: Vec<u64>,
    cur_stamp: u64,
}

impl AtomTable {
    /// Registers the atom `var ⟺ (meaning ≤ 0)`.
    fn register(&mut self, var: usize, meaning: &LinExpr) {
        let (form, k) = split_meaning(meaning);
        let fi = match self.by_form.get(&form) {
            Some(&fi) => fi,
            None => {
                let fi = self.forms.len();
                for v in form.variables() {
                    self.by_var.entry(v).or_default().push(fi);
                }
                self.forms.push(FormAtoms {
                    expr: form.clone(),
                    atoms: Vec::new(),
                });
                self.stamps.push(0);
                self.by_form.insert(form, fi);
                fi
            }
        };
        let atoms = &mut self.forms[fi].atoms;
        let pos = atoms.partition_point(|&(key, _)| key < k);
        atoms.insert(pos, (k, var));
    }
}

/// The registered atoms constraining one tableau column, keyed for the
/// assignment-guided scan: `upper` holds `(hi, lit)` pairs — asserting
/// `lit` bounds the owner above by `hi` — sorted ascending by `hi`;
/// `lower` holds `(lo, lit)` pairs sorted ascending by `lo`.  The feasible
/// assignment β prunes both lists to the candidate run before any row sum
/// is computed (β ≤ implied-upper and implied-lower ≤ β always hold after
/// a consistent check, so atoms β already violates cannot be entailed).
#[derive(Default)]
struct GuidedAtoms {
    upper: Vec<(Rat, Lit)>,
    lower: Vec<(Rat, Lit)>,
}

pub(crate) struct Engine {
    config: SolverConfig,
    clauses: Vec<Clause>,
    /// Indices of the non-learned clauses (maintained by `attach` and
    /// rebuilt by `reduce_db`), so the early-Sat check scans only the
    /// originals instead of filtering the whole database per fixpoint.
    originals: Vec<u32>,
    /// `watches[lit.code()]`: indices of clauses currently watching `lit`.
    watches: Vec<Vec<u32>>,
    /// Assignment per variable: 0 unassigned, 1 true, -1 false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// Per-literal theory constraint (extended by [`Engine::grow_theory`]).
    lit_constraint: Vec<Option<SimplexConstraint>>,
    /// Constraints of the assigned theory literals, in trail order.
    theory_stack: Vec<SimplexConstraint>,
    /// The literals the `theory_stack` entries came from (parallel).
    theory_lits: Vec<Lit>,
    /// Variable → constraint dependency index, kept in lock-step with
    /// `theory_stack` (pushed on enqueue, popped on backjump) so the
    /// worklist propagation never rebuilds it.
    theory_index: ConstraintIndex,
    /// Per-literal pre-compiled simplex bound (owner variable + normalised
    /// bound), computed once at [`Engine::grow_theory`] so asserting into
    /// the persistent tableau is a constant-time trail operation.
    lit_prepared: Vec<Option<PreparedBound>>,
    /// The persistent Dutertre–de Moura tableau: atoms registered at
    /// `grow_theory`, bounds asserted in lock-step with `theory_stack`
    /// (lazily, at leaf checks — `simplex.num_asserted()` is the synced
    /// prefix length), retracted on backjump, basis warm across the whole
    /// session.
    simplex: IncrementalSimplex,
    /// The atom→bound registry of theory propagation.
    atom_table: AtomTable,
    /// Per Boolean variable: the `theory_stack` length at the moment the
    /// variable was theory-propagated — the prefix its lazy explanation is
    /// drawn from.  Only meaningful while `reason[var] == TPROP_REASON`.
    tprop_mark: Vec<usize>,
    /// Per Boolean variable: the theory-stack tags of the asserted bounds
    /// whose tableau row entailed an assignment-*guided* propagation, or
    /// `None` when the literal came from the interval scan.  Only
    /// meaningful while `reason[var] == TPROP_REASON`.
    tprop_guided: Vec<Option<Vec<u32>>>,
    /// Multi-variable atoms indexed by owning slack column, for the
    /// assignment-guided scan after each consistent eager simplex check
    /// (single-variable owners are already covered by the interval scan).
    guided: BTreeMap<usize, GuidedAtoms>,
    /// Registered columns whose implied bounds may have moved since the
    /// last guided scan (owners of newly asserted bounds plus the basics
    /// whose rows contain them); the scan visits only these unless the
    /// check pivoted (pivots restructure rows arbitrarily).
    guided_dirty: Vec<usize>,
    /// Adaptive pivot budget of the eager guided check: starts at
    /// [`GUIDED_PIVOT_BUDGET`], doubled after [`GUIDED_ADAPT_STREAK`]
    /// consecutive productive scans, halved after as many consecutive
    /// budget exhaustions.
    guided_pivot_budget: u64,
    /// Adaptive row cap of the guided implied-bound scan; moves in
    /// lock-step with `guided_pivot_budget`.
    guided_row_cap: usize,
    /// Consecutive guided checks whose pivot budget ran out.
    guided_exhausted_streak: u32,
    /// Consecutive guided scans that entailed at least one literal.
    guided_productive_streak: u32,
    /// Collects the `obs` pivot/row-touch increments made on this engine's
    /// solving thread; `SolverStats::simplex_pivots` and `row_touches` are
    /// *derived* from it, so the two accountings cannot drift.
    pivot_scope: posr_obs::CounterScope,
    /// Prefix length of `theory_stack` known bound- and GCD-consistent.
    theory_checked: usize,
    /// Interval environment of `theory_stack[..theory_checked]`, updated
    /// incrementally as the trail grows.
    cur_env: BoundEnv,
    /// Number of bound-pinned variables at the last divisibility check
    /// (pinning is monotone within a level, so a changed count is an exact
    /// "the substitution changed" detector).
    gcd_fixed_count: usize,
    /// Per decision level: the theory state at decision time, restored on
    /// backjump.
    env_snapshots: Vec<TheorySnapshot>,
    /// Prefix length known rationally feasible.
    simplex_checked: usize,
    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Assumption literals of the current `solve` call, enqueued as
    /// pseudo-decisions at levels `1..=assumptions.len()`.
    assumptions: Vec<Lit>,
    stats: SolverStats,
    /// The portion of `stats` already flushed to the global accumulator.
    flushed: SolverStats,
    /// GC threshold on live learned clauses; grows geometrically.
    max_learnts: usize,
    /// An empty clause was derived at the root: permanently unsatisfiable.
    root_unsat: bool,
    /// A search-heuristic blocking clause (integer resource-out) entered
    /// the database: refutations are no longer trustworthy.
    tainted: bool,
    /// Conflict count at the start of the current `solve` call (the
    /// per-call budget baseline).
    solve_base_conflicts: u64,
    saw_resource_out: bool,
    cancelled: bool,
    bound_time: std::time::Duration,
    gcd_time: std::time::Duration,
    simplex_time: std::time::Duration,
    explain_time: std::time::Duration,
    trace: bool,
    /// The proof log (`SolverConfig::proof_logging`); `None` = logging off.
    proof: Option<ProofBuilder>,
    /// Proof id to name in the `final` step of an Unsat answer: the derived
    /// empty clause or the assumption-core clause (0 = the root-level
    /// conflict a replayer finds by propagation alone).
    last_final_id: u64,
    /// After an Unsat answer: the subset of the `solve` call's assumptions
    /// refuted by the database (empty when the database itself is unsat).
    last_core: Option<Vec<Lit>>,
}

enum Step {
    /// A conflicting set of currently-false literals, paired with the
    /// proof id of the clause/lemma stating it (0 when logging is off).
    Conflict(Vec<Lit>, u64),
    Ok,
}

impl Engine {
    /// An engine over an empty clause database.
    pub(crate) fn empty(config: SolverConfig) -> Engine {
        let max_learnts = config.learnt_cap.max(1);
        let proof = config.proof_logging.then(ProofBuilder::new);
        Engine {
            config,
            clauses: Vec::new(),
            originals: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            lit_constraint: Vec::new(),
            theory_stack: Vec::new(),
            theory_lits: Vec::new(),
            theory_index: ConstraintIndex::default(),
            lit_prepared: Vec::new(),
            simplex: IncrementalSimplex::new(),
            atom_table: AtomTable::default(),
            tprop_mark: Vec::new(),
            tprop_guided: Vec::new(),
            guided: BTreeMap::new(),
            guided_dirty: Vec::new(),
            guided_pivot_budget: GUIDED_PIVOT_BUDGET,
            guided_row_cap: GUIDED_ROW_CAP,
            guided_exhausted_streak: 0,
            guided_productive_streak: 0,
            pivot_scope: posr_obs::CounterScope::new(),
            theory_checked: 0,
            cur_env: BoundEnv::new(),
            gcd_fixed_count: 0,
            env_snapshots: Vec::new(),
            simplex_checked: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::new(0),
            phase: Vec::new(),
            seen: Vec::new(),
            assumptions: Vec::new(),
            stats: SolverStats::default(),
            flushed: SolverStats::default(),
            max_learnts,
            root_unsat: false,
            tainted: false,
            solve_base_conflicts: 0,
            saw_resource_out: false,
            cancelled: false,
            bound_time: std::time::Duration::ZERO,
            gcd_time: std::time::Duration::ZERO,
            simplex_time: std::time::Duration::ZERO,
            explain_time: std::time::Duration::ZERO,
            trace: std::env::var_os("POSR_CDCL_STATS").is_some(),
            proof,
            last_final_id: 0,
            last_core: None,
        }
    }

    /// The proof log, when `SolverConfig::proof_logging` is on.
    pub(crate) fn proof(&self) -> Option<&ProofBuilder> {
        self.proof.as_ref()
    }

    /// The unsat core of the last `solve` call: the subset of its
    /// assumptions refuted by the database (empty when the database is
    /// unsatisfiable regardless of assumptions).  `None` unless the last
    /// call answered `Unsat`.
    pub(crate) fn last_core(&self) -> Option<&[Lit]> {
        self.last_core.as_deref()
    }

    /// Logs a theory lemma; returns its proof id (0 when logging is off).
    fn log_lemma(&mut self, lits: &[Lit], kind: CertKind) -> u64 {
        match &mut self.proof {
            Some(p) => p.lemma(lits.to_vec(), kind),
            None => 0,
        }
    }

    /// Marks the proof incomplete (no-op when logging is off).
    fn proof_incomplete(&mut self, reason: &str) {
        if let Some(p) = &mut self.proof {
            p.mark_incomplete(reason);
        }
    }

    /// Extends the variable tables to cover `theory` (the clausifier's
    /// per-variable meanings; existing entries must be unchanged).
    ///
    /// `initial phase `true`: deciding a gate true drives its
    /// Plaisted–Greenbaum definition towards satisfaction, which is what
    /// the early-Sat check needs; phase saving adapts from there.
    pub(crate) fn grow_theory(&mut self, theory: &[Option<LinExpr>]) {
        let old = self.assign.len();
        debug_assert!(theory.len() >= old);
        for (var, meaning) in theory.iter().enumerate().skip(old) {
            let meaning = meaning.as_ref();
            let pos = constraint_of_meaning(meaning, true);
            let neg = constraint_of_meaning(meaning, false);
            // register the atom once: pre-compile both polarities against
            // the persistent tableau (creating the owning column/slack)
            // and index the atom for theory propagation — each gated on
            // its switch so the oracle/baseline configurations measure
            // the genuine PR-4 path, not registration they never use
            if self.config.incremental_simplex {
                let pos_prep = pos.as_ref().map(|c| self.simplex.prepare(c));
                let neg_prep = neg.as_ref().map(|c| self.simplex.prepare(c));
                if self.config.theory_propagation {
                    self.register_guided(Lit::positive(var), pos_prep.as_ref());
                    self.register_guided(Lit::negative(var), neg_prep.as_ref());
                }
                self.lit_prepared.push(pos_prep);
                self.lit_prepared.push(neg_prep);
            } else {
                self.lit_prepared.push(None);
                self.lit_prepared.push(None);
            }
            if self.config.theory_propagation {
                if let Some(meaning) = meaning {
                    self.atom_table.register(var, meaning);
                }
            }
            if let Some(p) = &mut self.proof {
                if let Some(meaning) = meaning {
                    p.atom(var, meaning);
                }
            }
            self.lit_constraint.push(pos);
            self.lit_constraint.push(neg);
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
            self.assign.push(0);
            self.level.push(0);
            self.reason.push(NO_REASON);
            self.activity.push(0.0);
            self.phase.push(true);
            self.seen.push(false);
            self.tprop_mark.push(0);
            self.tprop_guided.push(None);
            self.heap.grow(var, &self.activity);
        }
    }

    /// Indexes a prepared atom for the assignment-guided scan when its
    /// owner is a slack column (a multi-variable form): the interval scan
    /// already entails everything a single-variable owner can, so the
    /// guided pass contributes exactly the row-entailed atoms the interval
    /// scan cannot see.
    fn register_guided(&mut self, lit: Lit, prepared: Option<&PreparedBound>) {
        let Some(p) = prepared else { return };
        let Some(col) = p.tableau_owner() else { return };
        if !self.simplex.is_slack(col) {
            return;
        }
        let g = self.guided.entry(col).or_default();
        if let Some(hi) = p.hi() {
            let at = g.upper.partition_point(|(v, _)| *v < hi);
            g.upper.insert(at, (hi, lit));
        }
        if let Some(lo) = p.lo() {
            let at = g.lower.partition_point(|(v, _)| *v <= lo);
            g.lower.insert(at, (lo, lit));
        }
    }

    /// Adds a clause at the root level: normalises (duplicate and
    /// tautology elimination), drops root-satisfied clauses, strengthens
    /// away root-false literals, and handles the unit/empty cases.
    ///
    /// # Panics
    /// Panics (in debug builds) when called above decision level 0; the
    /// incremental layer only asserts between solves.
    pub(crate) fn add_root_clause(&mut self, mut lits: Vec<Lit>) {
        debug_assert_eq!(self.decision_level(), 0);
        lits.sort_unstable();
        lits.dedup();
        for pair in lits.windows(2) {
            if pair[0].var() == pair[1].var() {
                return; // l ∨ ¬l: tautology
            }
        }
        // every non-tautological input clause is logged as stated, before
        // the root-trail simplifications: the proof's axioms must match
        // the clauses the caller asserted, not their strengthened forms
        let pid = match &mut self.proof {
            Some(p) => p.root(lits.clone()),
            None => 0,
        };
        // at level 0 every assignment is permanent, so satisfied clauses
        // are dropped and false literals removed (both sound)
        if lits.iter().any(|&l| self.value(l) == 1) {
            return;
        }
        lits.retain(|&l| self.value(l) == 0);
        match lits.len() {
            0 => {
                self.root_unsat = true;
                self.last_final_id = 0;
            }
            1 => {
                if !self.enqueue_root(lits[0]) {
                    self.root_unsat = true;
                    self.last_final_id = 0;
                }
            }
            _ => {
                self.attach(Clause {
                    lits,
                    learnt: false,
                    lbd: 0,
                    proof_id: pid,
                });
            }
        }
    }

    /// Cumulative counters (never reset across `solve` calls).
    /// `simplex_pivots` and `row_touches` are derived from the engine's
    /// counter scope — the tableaux count in one place ([`IncrementalSimplex`]
    /// flushes into the `obs` counters) and this is the only other reader,
    /// so the two views cannot drift.
    pub(crate) fn stats(&self) -> SolverStats {
        let mut stats = self.stats;
        stats.learned_live = self.clauses.iter().filter(|c| c.learnt).count() as u64;
        stats.simplex_pivots = self.pivot_scope.get(crate::simplex::obs_pivot_counter());
        stats.row_touches = self
            .pivot_scope
            .get(crate::simplex::obs_row_touch_counter());
        stats
    }

    /// `true` when every *original* clause has a true literal: the
    /// remaining unassigned variables are don't-cares, so the current
    /// theory conjunction already decides the formula (learned clauses are
    /// implied and need not be consulted).  This is what lets satisfiable
    /// encodings finish without enumerating the thousands of irrelevant
    /// gate variables.
    fn original_clauses_satisfied(&self) -> bool {
        self.originals
            .iter()
            .map(|&i| &self.clauses[i as usize])
            .all(|c| c.lits.iter().any(|&l| self.value(l) == 1))
    }

    fn value(&self, lit: Lit) -> i8 {
        let a = self.assign[lit.var()];
        if lit.is_positive() {
            a
        } else {
            -a
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn attach(&mut self, clause: Clause) -> u32 {
        debug_assert!(clause.lits.len() >= 2);
        let idx = self.clauses.len() as u32;
        self.watches[clause.lits[0].code()].push(idx);
        self.watches[clause.lits[1].code()].push(idx);
        if !clause.learnt {
            self.originals.push(idx);
        }
        self.clauses.push(clause);
        idx
    }

    /// Enqueues a root-level literal; `false` on immediate contradiction.
    fn enqueue_root(&mut self, lit: Lit) -> bool {
        match self.value(lit) {
            1 => true,
            -1 => false,
            _ => {
                self.enqueue(lit, NO_REASON);
                true
            }
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert_eq!(self.value(lit), 0);
        let var = lit.var();
        self.assign[var] = if lit.is_positive() { 1 } else { -1 };
        self.level[var] = self.decision_level();
        self.reason[var] = reason;
        self.trail.push(lit);
        if let Some(c) = &self.lit_constraint[lit.code()] {
            self.theory_index.push(c);
            self.theory_stack.push(c.clone());
            self.theory_lits.push(lit);
        }
    }

    /// Backtracks to `target` decision level, saving phases.
    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let keep = self.trail_lim[target as usize];
        for i in (keep..self.trail.len()).rev() {
            let lit = self.trail[i];
            let var = lit.var();
            self.phase[var] = lit.is_positive();
            self.assign[var] = 0;
            self.reason[var] = NO_REASON;
            self.heap.insert(var, &self.activity);
            if self.lit_constraint[lit.code()].is_some() {
                let c = self.theory_stack.pop().expect("parallel stacks");
                self.theory_index.pop(&c);
                self.theory_lits.pop();
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target as usize);
        self.qhead = keep;
        let snapshot = self.env_snapshots[target as usize].clone();
        self.env_snapshots.truncate(target as usize);
        self.theory_checked = snapshot.checked;
        self.cur_env = snapshot.env;
        self.gcd_fixed_count = snapshot.gcd_fixed;
        self.simplex_checked = self.simplex_checked.min(self.theory_stack.len());
        // retract the bounds of the popped theory literals; only relaxes
        // intervals, so the warm basis and assignment stay valid
        self.simplex.retract_to(self.theory_stack.len());
    }

    fn new_decision_level(&mut self) {
        self.env_snapshots.push(TheorySnapshot {
            checked: self.theory_checked,
            env: self.cur_env.clone(),
            gcd_fixed: self.gcd_fixed_count,
        });
        self.trail_lim.push(self.trail.len());
    }

    /// Two-watched-literal propagation to fixpoint.
    fn propagate(&mut self) -> Step {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let np = p.negate(); // this literal just became false
            let mut ws = std::mem::take(&mut self.watches[np.code()]);
            let mut i = 0;
            'clauses: while i < ws.len() {
                let ci = ws[i] as usize;
                // normalise: the false watch sits at position 1
                if self.clauses[ci].lits[0] == np {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                for k in 2..self.clauses[ci].lits.len() {
                    if self.value(self.clauses[ci].lits[k]) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        let new_watch = self.clauses[ci].lits[1];
                        self.watches[new_watch.code()].push(ws[i]);
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // no replacement: unit or conflict
                if self.value(first) == -1 {
                    let conflict = self.clauses[ci].lits.clone();
                    let pid = self.clauses[ci].proof_id;
                    self.watches[np.code()] = ws;
                    self.qhead = self.trail.len();
                    return Step::Conflict(conflict, pid);
                }
                self.stats.propagations += 1;
                self.enqueue(first, ws[i]);
                i += 1;
            }
            self.watches[np.code()] = ws;
        }
        Step::Ok
    }

    /// Checks the theory at a propagation fixpoint: *incremental* interval
    /// propagation of the constraints asserted since the last check (the
    /// worklist cascade of [`BoundEnv::propagate`] re-fires only the
    /// context constraints whose variables actually tightened, walking the
    /// persistent `theory_index`), then the divisibility test — but only
    /// when the set of bound-pinned variables changed since the last run
    /// (or periodically, for equality pairs that complete without new
    /// pinning) — each with a tracked/minimised explanation on refutation.
    /// On backjump the environment is restored from the decision-level
    /// snapshot, so no fixpoint is ever recomputed from scratch.
    fn theory_check(&mut self) -> Step {
        if self.theory_stack.len() <= self.theory_checked {
            return Step::Ok;
        }
        self.stats.bound_checks += 1;
        let t0 = std::time::Instant::now();
        let extra = self.theory_stack[self.theory_checked..].to_vec();
        let budget = 32 * self.theory_stack.len().max(8);
        let mut env = std::mem::take(&mut self.cur_env);
        let mut changed: Vec<Var> = Vec::new();
        let outcome = env.propagate_into(
            &extra,
            &self.theory_stack,
            &self.theory_index,
            budget,
            &mut changed,
        );
        self.cur_env = env;
        self.bound_time += t0.elapsed();
        if outcome == BoundOutcome::Refuted {
            let t0 = std::time::Instant::now();
            let core = match explain::bound_conflict_core(&self.theory_stack) {
                Some(core) => core,
                None => {
                    self.proof_incomplete("bound conflict without a tracked core");
                    (0..self.theory_stack.len()).collect()
                }
            };
            let core = if core.len() <= MINIMIZE_CAP {
                // the *checker* need not track provenance — it only has to
                // prove subsets infeasible — so the cheap untracked
                // propagation replaces the tracked one of the initial pass
                explain::minimize_core_budgeted(
                    &self.theory_stack,
                    core,
                    &explain::bound_infeasible,
                    MINIMIZE_BUDGET,
                )
            } else {
                core
            };
            self.explain_time += t0.elapsed();
            let conflict = self.core_to_conflict(&core);
            let pid = self.log_lemma(&conflict, CertKind::Bounds);
            return Step::Conflict(conflict, pid);
        }
        let pinned = self.cur_env.pinned_count();
        let run_gcd =
            pinned != self.gcd_fixed_count || self.stats.bound_checks.is_multiple_of(GCD_PERIOD);
        if !run_gcd {
            self.theory_checked = self.theory_stack.len();
            self.theory_propagate(&changed);
            return Step::Ok;
        }
        let step = self.gcd_check();
        match step {
            Step::Ok => {
                self.gcd_fixed_count = pinned;
                self.theory_checked = self.theory_stack.len();
                self.theory_propagate(&changed);
                Step::Ok
            }
            conflict => conflict,
        }
    }

    /// Assignment-guided theory propagation at the propagation fixpoint
    /// *before a decision* (not at every intermediate theory check — the
    /// eager simplex runs once per decision point, when its verdict can
    /// still preempt the decision): runs the persistent simplex and, when
    /// feasible, scans the registered multi-variable atoms against the
    /// bounds the tableau rows imply — enqueueing the entailed ones
    /// through the [`TPROP_REASON`] path.  The check itself is the
    /// warm-start case the persistent tableau makes cheap (a handful of
    /// bound assertions, usually zero pivots), and a conflict it finds
    /// here is one the leaf would otherwise rediscover a subtree later.
    fn guided_step(&mut self) -> Step {
        if !self.config.guided_propagation
            || !self.config.incremental_simplex
            || !self.config.theory_propagation
            || self.guided.is_empty()
            || self.theory_stack.len() <= self.simplex_checked
        {
            return Step::Ok;
        }
        // the bounds asserted since the last sync are what can move an
        // implied bound: their owner columns, plus the basics whose rows
        // contain them — collected before the sync consumes the range
        for i in self.simplex.num_asserted()..self.theory_stack.len() {
            let Some(p) = self.lit_prepared[self.theory_lits[i].code()].as_ref() else {
                continue;
            };
            let Some(c) = p.tableau_owner() else { continue };
            if self.guided.contains_key(&c) {
                self.guided_dirty.push(c);
            }
            for &b in self.simplex.rows_containing(c) {
                let b = b as usize;
                if self.guided.contains_key(&b) {
                    self.guided_dirty.push(b);
                }
            }
        }
        let pivots_before = self.simplex.pivots();
        match self.simplex_check_budgeted(self.guided_pivot_budget) {
            Some(Step::Ok) => {
                // pivots rewrite rows wholesale; fall back to a full scan
                let scan_all = self.simplex.pivots() != pivots_before;
                let entailed_before = self.stats.tprop_entailed;
                self.simplex_guided_propagate(scan_all);
                self.guided_exhausted_streak = 0;
                if self.stats.tprop_entailed > entailed_before {
                    // the eager check is earning its keep: after a streak
                    // of productive scans, spend more on it
                    self.guided_productive_streak += 1;
                    if self.guided_productive_streak >= GUIDED_ADAPT_STREAK
                        && self.guided_pivot_budget < GUIDED_PIVOT_BUDGET_MAX
                    {
                        self.guided_productive_streak = 0;
                        self.guided_pivot_budget =
                            (self.guided_pivot_budget * 2).min(GUIDED_PIVOT_BUDGET_MAX);
                        self.guided_row_cap = (self.guided_row_cap * 2).min(GUIDED_ROW_CAP_MAX);
                        OBS_GUIDED_RAISED.incr();
                    }
                } else {
                    self.guided_productive_streak = 0;
                }
                Step::Ok
            }
            Some(conflict) => conflict,
            None => {
                // budget ran out: the tableau needs real pivot work, which
                // the leaf check will finish — drop the propagation attempt
                // (it is an optimisation, never required for soundness).
                // Repeated exhaustion means warm starts are not warm here;
                // back the budget off so the wasted eager pivots shrink.
                self.guided_dirty.clear();
                self.guided_productive_streak = 0;
                self.guided_exhausted_streak += 1;
                if self.guided_exhausted_streak >= GUIDED_ADAPT_STREAK
                    && self.guided_pivot_budget > GUIDED_PIVOT_BUDGET_MIN
                {
                    self.guided_exhausted_streak = 0;
                    self.guided_pivot_budget =
                        (self.guided_pivot_budget / 2).max(GUIDED_PIVOT_BUDGET_MIN);
                    self.guided_row_cap = (self.guided_row_cap / 2).max(GUIDED_ROW_CAP_MIN);
                    OBS_GUIDED_LOWERED.incr();
                }
                Step::Ok
            }
        }
    }

    /// [`Engine::simplex_check`] with a pivot budget (see
    /// [`IncrementalSimplex::check_budgeted`]): `None` means the budget ran
    /// out — the new bounds are synced into the tableau but `simplex_checked`
    /// is *not* advanced, so the next unbudgeted check resumes the pivot
    /// sequence and delivers the verdict.
    fn simplex_check_budgeted(&mut self, max_pivots: u64) -> Option<Step> {
        if self.theory_stack.len() <= self.simplex_checked {
            return Some(Step::Ok);
        }
        if !self.config.incremental_simplex {
            return Some(self.simplex_check());
        }
        self.stats.simplex_checks += 1;
        let _span = posr_obs::span!("simplex", "simplex.check");
        let t0 = std::time::Instant::now();
        let pivots_before = self.simplex.pivots();
        let mut outcome = Some(Ok(()));
        for i in self.simplex.num_asserted()..self.theory_stack.len() {
            let prepared = self.lit_prepared[self.theory_lits[i].code()]
                .clone()
                .expect("theory literals are registered at grow_theory");
            if let Err(core) = self.simplex.assert_prepared(&prepared, i as u32) {
                outcome = Some(Err(core));
                break;
            }
        }
        if let Some(Ok(())) = outcome {
            outcome = self.simplex.check_budgeted(max_pivots);
        }
        self.simplex_time += t0.elapsed();
        HIST_CHECK_PIVOTS.record(self.simplex.pivots().saturating_sub(pivots_before));
        match outcome {
            Some(Ok(())) => {
                self.simplex_checked = self.theory_stack.len();
                Some(Step::Ok)
            }
            Some(Err(core)) => {
                let core: Vec<usize> = core.iter().map(|&i| i as usize).collect();
                let (conflict, pid) = self.certified_conflict(core);
                Some(Step::Conflict(conflict, pid))
            }
            None => None,
        }
    }

    /// The guided scan proper: for every registered slack column, the
    /// feasible assignment β prunes the atom lists to the candidates β
    /// does not already refute (β always lies inside the implied interval,
    /// so an atom β violates cannot be entailed), and only then is the
    /// implied row bound computed and compared.  Entailed atoms are
    /// enqueued with [`TPROP_REASON`] and their entailing bound tags — the
    /// premises of the lazy explanation — recorded in `tprop_guided`.
    fn simplex_guided_propagate(&mut self, scan_all: bool) {
        let cols: Vec<usize> = if scan_all {
            self.guided.keys().copied().collect()
        } else {
            let mut dirty = std::mem::take(&mut self.guided_dirty);
            dirty.sort_unstable();
            dirty.dedup();
            dirty
        };
        self.guided_dirty.clear();
        let mut entailed: Vec<(Lit, Vec<u32>)> = Vec::new();
        let mut tags: Vec<u32> = Vec::new();
        for col in cols {
            let Some(atoms) = self.guided.get(&col) else {
                continue;
            };
            let beta = self.simplex.beta_of(col);
            let upper_run = &atoms.upper[atoms.upper.partition_point(|(hi, _)| *hi < beta)..];
            if upper_run.iter().any(|&(_, l)| self.assign[l.var()] == 0) {
                tags.clear();
                if let Some(implied) =
                    self.simplex
                        .implied_bound(col, true, self.guided_row_cap, &mut tags)
                {
                    for &(hi, lit) in upper_run {
                        if implied <= hi && self.assign[lit.var()] == 0 {
                            entailed.push((lit, tags.clone()));
                        }
                    }
                }
            }
            let lower_run = &atoms.lower[..atoms.lower.partition_point(|(lo, _)| *lo <= beta)];
            if lower_run.iter().any(|&(_, l)| self.assign[l.var()] == 0) {
                tags.clear();
                if let Some(implied) =
                    self.simplex
                        .implied_bound(col, false, self.guided_row_cap, &mut tags)
                {
                    for &(lo, lit) in lower_run {
                        if implied >= lo && self.assign[lit.var()] == 0 {
                            entailed.push((lit, tags.clone()));
                        }
                    }
                }
            }
        }
        for (lit, tags) in entailed {
            if self.assign[lit.var()] != 0 {
                continue;
            }
            if self.proof.is_some() && !self.guided_certifiable(lit, &tags) {
                // a lemma the checker could not replay would poison the
                // proof; forgo the propagation instead (rare: the Farkas
                // recovery only fails on non-irreducible premise sets)
                continue;
            }
            self.stats.theory_props += 1;
            self.stats.tprop_entailed += 1;
            self.tprop_mark[lit.var()] = self.theory_stack.len();
            self.tprop_guided[lit.var()] = Some(tags);
            self.enqueue(lit, TPROP_REASON);
            // mirror the interval path: a root-level propagation must be
            // materialised eagerly for the replayer
            if self.proof.is_some() && self.decision_level() == 0 {
                let (lemma, kind) = self.explain_tprop(lit);
                self.log_lemma(&lemma, kind);
            }
        }
    }

    /// `true` when the guided entailment of `lit` from the premise tags has
    /// a recoverable Farkas certificate (the rows of the premises plus the
    /// negated literal's constraint combine to a positive contradiction).
    fn guided_certifiable(&self, lit: Lit, tags: &[u32]) -> bool {
        let Some(neg) = self.lit_constraint[lit.negate().code()].as_ref() else {
            return false;
        };
        let mut idx: Vec<usize> = tags.iter().map(|&t| t as usize).collect();
        idx.sort_unstable();
        idx.dedup();
        let mut rows = vec![le_row(neg)];
        rows.extend(idx.iter().map(|&i| le_row(&self.theory_stack[i])));
        farkas_coefficients(&rows).is_some()
    }

    /// Theory propagation: scans the atoms of every form one of `changed`
    /// variables occurs in, and enqueues the literals the current
    /// intervals entail — with a [`TPROP_REASON`] marker instead of a
    /// materialised clause; the bound core justifying the literal is only
    /// computed if conflict analysis later resolves on it
    /// ([`Engine::explain_tprop`]).  This is what cuts the
    /// parity/bound conflicts of the tag encodings off levels early:
    /// a literal the intervals already decide never becomes a decision,
    /// so whole refutation subtrees are skipped instead of being
    /// re-learned clause by clause.
    fn theory_propagate(&mut self, changed: &[Var]) {
        if !self.config.theory_propagation || changed.is_empty() {
            return;
        }
        self.atom_table.cur_stamp += 1;
        let stamp = self.atom_table.cur_stamp;
        let mut entailed: Vec<Lit> = Vec::new();
        for &v in changed {
            let Some(form_ids) = self.atom_table.by_var.get(&v) else {
                continue;
            };
            for &fi in form_ids {
                if self.atom_table.stamps[fi] == stamp {
                    continue;
                }
                self.atom_table.stamps[fi] = stamp;
                let form = &self.atom_table.forms[fi];
                let (min, max) = self.cur_env.expr_range(&form.expr);
                // form + k ≤ 0 is entailed true iff k ≤ −max(form) and
                // entailed false iff k ≥ 1 − min(form); the sorted atom
                // list makes both a run from one end
                if let Some(max) = max {
                    let cut = -max;
                    for &(k, b) in &form.atoms {
                        if Rat::from_int(k) > cut {
                            break;
                        }
                        if self.assign[b] == 0 {
                            entailed.push(Lit::positive(b));
                        }
                    }
                }
                if let Some(min) = min {
                    let cut = Rat::ONE - min;
                    for &(k, b) in form.atoms.iter().rev() {
                        if Rat::from_int(k) < cut {
                            break;
                        }
                        if self.assign[b] == 0 {
                            entailed.push(Lit::negative(b));
                        }
                    }
                }
            }
        }
        for lit in entailed {
            // an earlier enqueue of this scan may have assigned the
            // variable (the same atom can surface through several forms'
            // runs only if duplicated, but stay defensive)
            if self.assign[lit.var()] != 0 {
                continue;
            }
            self.stats.theory_props += 1;
            self.tprop_mark[lit.var()] = self.theory_stack.len();
            self.tprop_guided[lit.var()] = None;
            self.enqueue(lit, TPROP_REASON);
            // a level-0 theory propagation extends the *root* trail, which
            // a replayer cannot reproduce from clauses alone — materialise
            // its explanation eagerly as a bound lemma
            if self.proof.is_some() && self.decision_level() == 0 {
                let (lemma, kind) = self.explain_tprop(lit);
                self.log_lemma(&lemma, kind);
            }
        }
    }

    /// Materialises the lazy explanation of a theory-propagated literal,
    /// returning the lemma clause and the certificate kind a replayer
    /// verifies it under.
    ///
    /// A *guided* propagation recorded its premises (the bound tags of one
    /// tableau row) at enqueue time; the lemma is `lit ∨ ¬premises` and
    /// the certificate is the Farkas combination of the premise rows with
    /// the negated literal — interval propagation cannot replay a
    /// multi-variable row entailment.
    ///
    /// An *interval* propagation re-derives its core: the negated
    /// literal's constraint is jointly bound-infeasible with the
    /// theory-stack prefix recorded at propagation time, so the tracked
    /// propagator's conflict core over that set — minus the negated
    /// constraint itself — is a set of asserted literals implying `lit`.
    /// Falls back to the whole prefix when the from-scratch pass cannot
    /// reproduce the incremental fixpoint (round-capped): sound, just
    /// less sharp.
    fn explain_tprop(&mut self, lit: Lit) -> (Vec<Lit>, CertKind) {
        let t0 = std::time::Instant::now();
        if let Some(tags) = self.tprop_guided[lit.var()].clone() {
            let mut idx: Vec<usize> = tags.iter().map(|&t| t as usize).collect();
            idx.sort_unstable();
            idx.dedup();
            idx.retain(|&i| i < self.theory_stack.len());
            let mut lits = vec![lit];
            for &i in &idx {
                lits.push(self.theory_lits[i].negate());
            }
            let kind = if self.proof.is_some() {
                // same row order as the clause: entry j is the constraint
                // of the negation of clause literal j
                let neg = self.lit_constraint[lit.negate().code()]
                    .as_ref()
                    .expect("theory-propagated literals carry a constraint");
                let mut rows = vec![le_row(neg)];
                rows.extend(idx.iter().map(|&i| le_row(&self.theory_stack[i])));
                match farkas_coefficients(&rows) {
                    Some(lambda) => CertKind::Farkas(lambda),
                    None => {
                        self.proof_incomplete("guided propagation without a Farkas certificate");
                        CertKind::Bounds
                    }
                }
            } else {
                CertKind::Bounds
            };
            self.explain_time += t0.elapsed();
            return (lits, kind);
        }
        let mark = self.tprop_mark[lit.var()].min(self.theory_stack.len());
        let neg = self.lit_constraint[lit.negate().code()]
            .clone()
            .expect("theory-propagated literals carry a constraint");
        let mut constraints = self.theory_stack[..mark].to_vec();
        constraints.push(neg);
        let mut lits = vec![lit];
        match explain::bound_conflict_core(&constraints) {
            Some(core) => {
                for i in core {
                    if i < mark {
                        lits.push(self.theory_lits[i].negate());
                    }
                }
            }
            None => {
                self.proof_incomplete("theory propagation without a reproducible core");
                for i in 0..mark {
                    lits.push(self.theory_lits[i].negate());
                }
            }
        }
        self.explain_time += t0.elapsed();
        (lits, CertKind::Bounds)
    }

    /// Divisibility check over the asserted equality subsystem with the
    /// bound-pinned variables substituted out (the parity conflicts of
    /// loopy Parikh encodings); explanations come from the elimination's
    /// and the tracked propagator's reason sets.
    fn gcd_check(&mut self) -> Step {
        self.stats.gcd_checks += 1;
        let t0 = std::time::Instant::now();
        // fast path: pinned values without provenance
        let fixed_plain: crate::eqelim::FixedVars = self
            .cur_env
            .fixed()
            .into_iter()
            .map(|(v, k)| (v, (k, Default::default())))
            .collect();
        let refuted = crate::eqelim::conflict_core_fixed(&self.theory_stack, &fixed_plain);
        self.gcd_time += t0.elapsed();
        if refuted.is_none() {
            return Step::Ok;
        }
        // conflict: redo with tracked provenance so the fixing constraints
        // enter the core (required for the learned clause to be sound)
        let t0 = std::time::Instant::now();
        let fixed_tracked = explain::fixed_reasons(&self.theory_stack);
        // the minimisation checker only has to *prove* subsets infeasible,
        // so it runs the untracked propagation (no provenance bookkeeping)
        let core = match crate::eqelim::conflict_core_fixed(&self.theory_stack, &fixed_tracked) {
            Some(core) if core.len() <= MINIMIZE_CAP => explain::minimize_core_budgeted(
                &self.theory_stack,
                core,
                &gcd_refutes,
                MINIMIZE_BUDGET,
            ),
            Some(core) => core,
            // the tracked propagator pins at least the variables the
            // incremental environment pinned, so this is unreachable; fall
            // back to the full stack
            None => {
                self.proof_incomplete("gcd conflict without a reproducible core");
                (0..self.theory_stack.len()).collect()
            }
        };
        self.explain_time += t0.elapsed();
        let conflict = self.core_to_conflict(&core);
        let pid = self.log_lemma(&conflict, CertKind::Gcd);
        Step::Conflict(conflict, pid)
    }

    /// Simplex check of the asserted conjunction (run at the leaves); a
    /// refutation's explanation is the Farkas certificate of the stuck
    /// tableau row — already irreducible, no minimisation loop needed.
    ///
    /// The default path runs on the engine's *persistent* tableau: the
    /// literals asserted since the last check are synced as O(1) bound
    /// assertions (their atoms were registered at [`Engine::grow_theory`])
    /// and the pivot loop warm-starts from the previous basis, so a
    /// re-check after a handful of new bounds costs a few pivots instead
    /// of a full from-scratch solve.  `incremental_simplex: false`
    /// reconstructs a tableau per check — the differential oracle and the
    /// ablation baseline.
    fn simplex_check(&mut self) -> Step {
        if self.theory_stack.len() <= self.simplex_checked {
            return Step::Ok;
        }
        self.stats.simplex_checks += 1;
        let _span = posr_obs::span!("simplex", "simplex.check");
        let t0 = std::time::Instant::now();
        // the scope sees every tableau this thread pivots (persistent or
        // scratch), so its delta is the per-check pivot count either way
        let pivots_before = self.pivot_scope.get(crate::simplex::obs_pivot_counter());
        let outcome = if self.config.incremental_simplex {
            self.incremental_simplex_check()
        } else {
            self.scratch_simplex_check()
        };
        self.simplex_time += t0.elapsed();
        HIST_CHECK_PIVOTS.record(
            self.pivot_scope
                .get(crate::simplex::obs_pivot_counter())
                .saturating_sub(pivots_before),
        );
        match outcome {
            Some(Ok(())) => {
                self.simplex_checked = self.theory_stack.len();
                Step::Ok
            }
            Some(Err(core)) => {
                let core: Vec<usize> = core.iter().map(|&i| i as usize).collect();
                let (conflict, pid) = self.certified_conflict(core);
                Step::Conflict(conflict, pid)
            }
            None => {
                // cancelled mid-check: `simplex_checked` stays behind the
                // stack so nothing counts as verified, and the caller must
                // consult `self.cancelled` before trusting the `Ok`
                self.cancelled = true;
                Step::Ok
            }
        }
    }

    /// Sync-and-check on the persistent tableau.  Assertion tags are
    /// theory-stack indices, so both the O(1) clash cores of the sync and
    /// the Farkas cores of the pivot loop index asserted literals.
    ///
    /// The pivot loop runs in [`LEAF_CANCEL_SLICE`]-sized budget slices
    /// with a cancellation poll between them — on big tableaux a single
    /// check can pivot for seconds, far past the search loop's per-
    /// iteration poll.  `None` means cancelled: the tableau is left
    /// consistent mid-repair (a budget-exhausted check always is) and the
    /// remaining violations stay queued for whoever checks next.
    fn incremental_simplex_check(&mut self) -> Option<Result<(), Vec<u32>>> {
        for i in self.simplex.num_asserted()..self.theory_stack.len() {
            let prepared = self.lit_prepared[self.theory_lits[i].code()]
                .clone()
                .expect("theory literals are registered at grow_theory");
            if let Err(core) = self.simplex.assert_prepared(&prepared, i as u32) {
                return Some(Err(core));
            }
        }
        loop {
            if let Some(result) = self.simplex.check_budgeted(LEAF_CANCEL_SLICE) {
                return Some(result);
            }
            // a single check can pivot for seconds: keep the watchdog's
            // pivot gauge moving between search-loop iterations
            PROGRESS_PIVOTS.set(crate::simplex::obs_pivot_counter().value());
            if self.config.cancel.can_fire() && self.config.cancel.is_cancelled() {
                return None;
            }
        }
    }

    /// The PR-4 baseline: a fresh tableau per check (kept as a
    /// differential oracle; also what the ablation's incremental-vs-scratch
    /// pivot comparison runs against).  Sliced against cancellation like
    /// [`Engine::incremental_simplex_check`]; the abandoned tableau is
    /// simply dropped.
    fn scratch_simplex_check(&mut self) -> Option<Result<(), Vec<u32>>> {
        let mut simplex = IncrementalSimplex::new();
        for (i, c) in self.theory_stack.iter().enumerate() {
            if let Err(core) = simplex.assert_constraint(c, i as u32) {
                return Some(Err(core));
            }
        }
        loop {
            if let Some(result) = simplex.check_budgeted(LEAF_CANCEL_SLICE) {
                return Some(result);
            }
            PROGRESS_PIVOTS.set(crate::simplex::obs_pivot_counter().value());
            if self.config.cancel.can_fire() && self.config.cancel.is_cancelled() {
                return None;
            }
        }
    }

    /// The conflicting-clause form of a theory core: negations of the
    /// asserted literals the core names.
    fn core_to_conflict(&self, core: &[usize]) -> Vec<Lit> {
        core.iter().map(|&i| self.theory_lits[i].negate()).collect()
    }

    /// The conflict clause of a leaf theory core, certified when proof
    /// logging is on: the core is logged as a theory lemma whose
    /// certificate kind the independent checker replays — an interval
    /// refutation, a GCD/elimination refutation, or (after deletion-
    /// minimising to an irreducible rational core) an exact Farkas
    /// combination recovered by Gaussian elimination.  With logging off
    /// this is exactly [`Engine::core_to_conflict`].
    fn certified_conflict(&mut self, mut core: Vec<usize>) -> (Vec<Lit>, u64) {
        if self.proof.is_none() {
            return (self.core_to_conflict(&core), 0);
        }
        let cs: Vec<SimplexConstraint> =
            core.iter().map(|&i| self.theory_stack[i].clone()).collect();
        let kind = if explain::bound_infeasible(&cs) {
            CertKind::Bounds
        } else if gcd_refutes(&cs) {
            CertKind::Gcd
        } else if !check_feasibility(&cs).is_feasible() {
            // an irreducible rationally-infeasible subsystem has Farkas
            // multipliers that are unique up to scale, so minimise first
            // and recover them without a tableau
            let t0 = std::time::Instant::now();
            if core.len() <= MINIMIZE_CAP {
                core = explain::minimize_core(&self.theory_stack, core, &|cs| {
                    !check_feasibility(cs).is_feasible()
                });
            }
            self.explain_time += t0.elapsed();
            let rows: Vec<crate::term::LinExpr> = core
                .iter()
                .map(|&i| le_row(&self.theory_stack[i]))
                .collect();
            match farkas_coefficients(&rows) {
                Some(lambda) => CertKind::Farkas(lambda),
                None => {
                    self.proof_incomplete("rational conflict without a Farkas certificate");
                    CertKind::Bounds
                }
            }
        } else {
            // integer-infeasible but rationally feasible and not
            // GCD-refutable: the branch-and-bound refutation has no
            // replayable certificate (yet)
            self.proof_incomplete("integer conflict without a replayable certificate");
            CertKind::Bounds
        };
        let conflict = self.core_to_conflict(&core);
        let pid = self.log_lemma(&conflict, kind);
        (conflict, pid)
    }

    /// Full assignment: the exact integer check.  The branch-and-bound
    /// inherits the engine's cancel token so a deadline cuts it off
    /// mid-search (surfacing as a `ResourceOut` the caller converts into
    /// a clean cancellation rather than a tainting blocking clause).
    fn final_check(&mut self) -> FinalOutcome {
        self.stats.final_checks += 1;
        let int_config = IntFeasConfig {
            cancel: self.config.cancel.clone(),
            ..IntFeasConfig::default()
        };
        let (result, _pivots) = solve_integer_with_pivots(&self.theory_stack, &int_config);
        match result {
            IntFeasResult::Sat(values) => FinalOutcome::Model(Model::from_values(values)),
            IntFeasResult::Unsat => {
                let core: Vec<usize> = (0..self.theory_stack.len()).collect();
                let core = if core.len() <= MINIMIZE_CAP {
                    explain::minimize_core(&self.theory_stack, core, &|cs| {
                        explain::integer_infeasible(cs, EXPLAIN_INT_BUDGET)
                    })
                } else {
                    core
                };
                let (conflict, pid) = self.certified_conflict(core);
                FinalOutcome::Conflict(conflict, pid)
            }
            IntFeasResult::ResourceOut => FinalOutcome::ResourceOut,
        }
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(var, &self.activity);
    }

    /// 1UIP conflict analysis.  `conflict` is a set of literals all false
    /// under the current assignment, at least one at the current level.
    /// Returns the learned clause (asserting literal first), the backjump
    /// level, and — with proof logging on — the RUP hint chain: the proof
    /// ids of the resolved reasons in *forward trail order* followed by
    /// the conflict clause's id.  In that order each hint clause is unit
    /// (or conflicting) under the negated learned clause plus the root
    /// trail, so an independent replayer validates the clause by
    /// propagation alone.
    fn analyze(&mut self, conflict: Vec<Lit>, conflict_id: u64) -> (Vec<Lit>, u32, Vec<u64>) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::positive(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut reason_lits: Vec<Lit> = conflict;
        let mut skip: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut hint_steps: Vec<(usize, u64)> = Vec::new();
        loop {
            for &q in &reason_lits {
                if Some(q) == skip {
                    continue;
                }
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // next seen literal on the trail
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.negate();
                break;
            }
            let r = self.reason[p.var()];
            debug_assert_ne!(r, NO_REASON, "only the UIP may lack a reason");
            reason_lits = if r == TPROP_REASON {
                // lazy theory explanation, materialised only now that the
                // propagated literal is actually resolved on
                let (lemma, kind) = self.explain_tprop(p);
                if self.proof.is_some() {
                    let id = self.log_lemma(&lemma, kind);
                    hint_steps.push((index, id));
                }
                lemma
            } else {
                if self.proof.is_some() {
                    hint_steps.push((index, self.clauses[r as usize].proof_id));
                }
                self.clauses[r as usize].lits.clone()
            };
            skip = Some(p);
        }
        // backjump level: highest level among the non-UIP literals, which
        // also moves that literal into the second watch position
        let mut backjump = 0;
        for i in 1..learnt.len() {
            let lvl = self.level[learnt[i].var()];
            if lvl > backjump {
                backjump = lvl;
                learnt.swap(1, i);
            }
        }
        for &l in &learnt {
            self.seen[l.var()] = false;
        }
        let hints = if self.proof.is_some() {
            hint_steps.sort_unstable_by_key(|&(i, _)| i);
            let mut hints: Vec<u64> = hint_steps.into_iter().map(|(_, id)| id).collect();
            hints.push(conflict_id);
            hints
        } else {
            Vec::new()
        };
        (learnt, backjump, hints)
    }

    /// Literal-block distance of a learned clause: the number of distinct
    /// decision levels it spans (the standard quality measure driving GC).
    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    /// Learns from a conflict: analyse, backjump, assert.  `false` when the
    /// conflict is at the root level (search exhausted).
    fn resolve_conflict(&mut self, conflict: Vec<Lit>, conflict_id: u64) -> bool {
        self.stats.conflicts += 1;
        // theory conflicts may live entirely below the current level:
        // backtrack to the newest involved level first
        let max_level = conflict
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        self.cancel_until(max_level);
        if self.decision_level() == 0 {
            // the conflict clause is false on the root trail, so the empty
            // clause follows by propagation alone: one hint suffices
            if let Some(p) = &mut self.proof {
                let id = p.derived(Vec::new(), vec![conflict_id]);
                self.last_final_id = id;
            }
            return false;
        }
        let (learnt, backjump, hints) = self.analyze(conflict, conflict_id);
        self.cancel_until(backjump);
        let pid = match &mut self.proof {
            Some(p) => p.derived(learnt.clone(), hints),
            None => 0,
        };
        let asserting = learnt[0];
        let reason = if learnt.len() >= 2 {
            self.stats.learned_total += 1;
            let lbd = self.lbd_of(&learnt);
            HIST_LBD.record(lbd as u64);
            // approximate clause-DB growth against the memory budget
            // (credited back when the GC drops the clause)
            posr_obs::budget::charge_mem(clause_bytes(learnt.len()));
            self.attach(Clause {
                lits: learnt,
                learnt: true,
                lbd,
                proof_id: pid,
            })
        } else {
            NO_REASON
        };
        self.enqueue(asserting, reason);
        self.var_inc /= 0.95;
        true
    }

    /// Final conflict analysis at a failed assumption (MiniSat's
    /// `analyzeFinal`): `failed` is the pending assumption the current
    /// trail falsifies.  Walks the implication graph back from `¬failed`
    /// to the subset of *assumptions* it depends on — the unsat core —
    /// and, with proof logging on, derives the clause of negated core
    /// assumptions with the same forward-trail-order hint chain as
    /// [`Engine::analyze`] (here the falsifying reasons close the chain,
    /// so no separate conflict clause is appended).
    fn analyze_final(&mut self, failed: Lit) {
        let mut clause = vec![failed.negate()];
        let mut core = vec![failed];
        let mut hint_steps: Vec<(usize, u64)> = Vec::new();
        if self.level[failed.var()] > 0 {
            self.seen[failed.var()] = true;
            let start = self.trail_lim[0];
            for i in (start..self.trail.len()).rev() {
                let l = self.trail[i];
                let v = l.var();
                if !self.seen[v] {
                    continue;
                }
                self.seen[v] = false;
                let r = self.reason[v];
                if r == NO_REASON {
                    // above root level every reasonless literal is an
                    // assumption pseudo-decision (search decisions only
                    // happen once all assumptions are enqueued)
                    clause.push(l.negate());
                    core.push(l);
                    continue;
                }
                let reason_lits = if r == TPROP_REASON {
                    let (lemma, kind) = self.explain_tprop(l);
                    if self.proof.is_some() {
                        let id = self.log_lemma(&lemma, kind);
                        hint_steps.push((i, id));
                    }
                    lemma
                } else {
                    if self.proof.is_some() {
                        hint_steps.push((i, self.clauses[r as usize].proof_id));
                    }
                    self.clauses[r as usize].lits.clone()
                };
                for q in reason_lits {
                    if q.var() != v && self.level[q.var()] > 0 {
                        self.seen[q.var()] = true;
                    }
                }
            }
        }
        self.last_core = Some(core);
        if let Some(p) = &mut self.proof {
            hint_steps.sort_unstable_by_key(|&(i, _)| i);
            let hints: Vec<u64> = hint_steps.into_iter().map(|(_, id)| id).collect();
            let id = p.derived(clause, hints);
            self.last_final_id = id;
        }
    }

    /// LBD-ranked learned-clause garbage collection, run at decision level
    /// 0: binary lemmas always survive, the worse half of the rest (higher
    /// LBD, then older) is dropped.  Root-satisfied clauses of *any* kind
    /// are removed — this is what reclaims the guarded clauses of popped
    /// assertion frames — and root-false literals are strengthened away.
    /// Watches are rebuilt from scratch.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        posr_obs::instant("cdcl", "cdcl.gc");
        // root-level literals never participate in conflict analysis, so
        // their reason clauses are not needed and no clause is locked
        for r in &mut self.reason {
            *r = NO_REASON;
        }
        // rank the disposable learned clauses: keep low LBD, then newer
        let mut disposable: Vec<(u32, std::cmp::Reverse<usize>)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && c.lits.len() > GC_EXEMPT_LEN)
            .map(|(i, c)| (c.lbd, std::cmp::Reverse(i)))
            .collect();
        disposable.sort_unstable();
        let cutoff = disposable.len() / 2;
        let mut drop_mask = vec![false; self.clauses.len()];
        for &(_, std::cmp::Reverse(i)) in &disposable[cutoff..] {
            drop_mask[i] = true;
            self.stats.gc_dropped += 1;
        }
        let old = std::mem::take(&mut self.clauses);
        self.originals.clear();
        for w in &mut self.watches {
            w.clear();
        }
        for (i, mut clause) in old.into_iter().enumerate() {
            if drop_mask[i] {
                if let Some(p) = &mut self.proof {
                    p.delete(clause.proof_id);
                }
                posr_obs::budget::uncharge_mem(clause_bytes(clause.lits.len()));
                continue;
            }
            if clause.lits.iter().any(|&l| self.value(l) == 1) {
                // satisfied at the root: permanently true, and never again
                // an antecedent of a learned clause
                if let Some(p) = &mut self.proof {
                    p.delete(clause.proof_id);
                }
                continue;
            }
            // strengthening keeps the proof id: the removed literals are
            // root-false, so replaying the logged clause is equivalent
            clause.lits.retain(|&l| self.value(l) == 0);
            match clause.lits.len() {
                0 => {
                    self.root_unsat = true;
                    self.last_final_id = 0;
                }
                1 => {
                    if !self.enqueue_root(clause.lits[0]) {
                        self.root_unsat = true;
                        self.last_final_id = 0;
                    }
                }
                _ => {
                    self.attach(clause);
                }
            }
        }
    }

    fn decide(&mut self) -> bool {
        while let Some(var) = self.heap.pop_max(&self.activity) {
            if self.assign[var] == 0 {
                let lit = if self.phase[var] {
                    Lit::positive(var)
                } else {
                    Lit::negative(var)
                };
                self.stats.decisions += 1;
                self.new_decision_level();
                self.enqueue(lit, NO_REASON);
                return true;
            }
        }
        false
    }

    fn undecided_unknown(&self) -> SolverResult {
        if self.cancelled {
            // names the limit that fired: flag, memory budget, or deadline
            SolverResult::Unknown(self.config.cancel.unknown_reason())
        } else {
            SolverResult::Unknown(BRANCH_AND_BOUND_LIMIT_MSG.to_string())
        }
    }

    /// The `Unsat` verdict, demoted to `Unknown` when this call saw a
    /// resource-out or the database holds a blocking clause from an
    /// earlier one (tainted refutations are not proofs).
    fn unsat_result(&self) -> SolverResult {
        if self.saw_resource_out || self.tainted {
            SolverResult::Unknown(BRANCH_AND_BOUND_LIMIT_MSG.to_string())
        } else {
            SolverResult::Unsat
        }
    }

    /// Decides the current clause database under `assumptions`.
    ///
    /// `Unsat` means the database is unsatisfiable *under the assumptions*
    /// (for the incremental layer: the live assertion frames, selected by
    /// their guard literals, plus the caller's extra assumptions).  The
    /// engine backtracks to the root before returning, keeping learned
    /// clauses, activities and phases for the next call.
    pub(crate) fn solve(&mut self, assumptions: &[Lit]) -> SolverResult {
        self.saw_resource_out = false;
        self.cancelled = false;
        self.last_core = None;
        if let Some(p) = &mut self.proof {
            p.query();
            for &a in assumptions {
                p.assume(a);
            }
        }
        if !self.root_unsat {
            // between-solve GC: long incremental sessions accumulate
            // learned clauses even when no single search restarts
            let live = self.clauses.iter().filter(|c| c.learnt).count();
            if live > self.max_learnts {
                self.reduce_db();
                self.max_learnts += self.max_learnts / 2;
            }
        }
        if self.root_unsat {
            self.flush_global();
            let result = self.unsat_result();
            self.finish_query(&result);
            return result;
        }
        self.assumptions = assumptions.to_vec();
        self.solve_base_conflicts = self.stats.conflicts;
        let result = {
            let _span = posr_obs::span!("cdcl", "cdcl.solve");
            // every tableau this call touches (the persistent one, the
            // scratch oracle, branch-and-bound, the one-shot certifiers)
            // flushes its pivot/row-touch counts into the obs counters;
            // the attached scope is what `stats()` derives them from
            let _pivots = self.pivot_scope.attach();
            // layers below with no token in sight (proof sinks, caches)
            // charge the solve's budget through the thread attachment
            let _budget = self.config.cancel.budget().map(posr_obs::budget::attach);
            self.search()
        };
        self.cancel_until(0);
        self.assumptions.clear();
        self.flush_global();
        self.finish_query(&result);
        result
    }

    /// Closes out a query in the proof log: an `Unsat` answer is sealed
    /// with a `final` step naming the clause that refutes the query (and
    /// gets an unsat core, empty unless assumptions were refuted); any
    /// other answer clears the stale core.
    fn finish_query(&mut self, result: &SolverResult) {
        if matches!(result, SolverResult::Unsat) {
            if self.last_core.is_none() {
                self.last_core = Some(Vec::new());
            }
            if let Some(p) = &mut self.proof {
                p.finish(self.last_final_id);
            }
        } else {
            self.last_core = None;
        }
    }

    /// Publishes the stall watchdog's progress gauges (relaxed stores; a
    /// black-box dump reports the latest values).  Called once per search
    /// iteration — decision/conflict cadence, far off the propagation hot
    /// path.
    fn publish_progress(&self) {
        PROGRESS_CONFLICTS.set(self.stats.conflicts);
        PROGRESS_DECISIONS.set(self.stats.decisions);
        PROGRESS_TRAIL.set(self.trail.len() as u64);
        PROGRESS_PIVOTS.set(crate::simplex::obs_pivot_counter().value());
    }

    fn search(&mut self) -> SolverResult {
        let mut restart_limit = RESTART_BASE * luby(self.stats.restarts);
        let mut conflicts_at_restart = self.stats.conflicts;
        loop {
            self.publish_progress();
            // chaos-test injection point: the search loop absorbs every
            // fault kind (panics unwind to the entry-point catch, a forced
            // cancel fires the token below, an overflow takes the marker
            // path the slow lane and catch both know)
            match posr_obs::fault::fire(
                "cdcl.search",
                &[
                    posr_obs::FaultKind::Panic,
                    posr_obs::FaultKind::Delay,
                    posr_obs::FaultKind::Cancel,
                    posr_obs::FaultKind::Overflow,
                ],
            ) {
                Some(posr_obs::FaultKind::Cancel) => self.config.cancel.cancel(),
                Some(posr_obs::FaultKind::Overflow) => crate::rational::overflow_panic(),
                _ => {}
            }
            if self.config.cancel.can_fire() && self.config.cancel.is_cancelled() {
                self.cancelled = true;
                return self.undecided_unknown();
            }
            if self.trace {
                self.trace_line();
            }
            if self.stats.conflicts - self.solve_base_conflicts >= MAX_CONFLICTS {
                return SolverResult::Unknown(CONFLICT_LIMIT_MSG.to_string());
            }
            let step = match self.propagate() {
                Step::Conflict(c, id) => Step::Conflict(c, id),
                Step::Ok => self.theory_check(),
            };
            match step {
                Step::Conflict(conflict, conflict_id) => {
                    if !self.resolve_conflict(conflict, conflict_id) {
                        self.root_unsat = true;
                        return self.unsat_result();
                    }
                }
                Step::Ok => {
                    // theory propagation enqueued literals: run Boolean
                    // propagation over them before anything else
                    if self.qhead < self.trail.len() {
                        continue;
                    }
                    // assumptions are enqueued as pseudo-decisions before
                    // any search decision; a false assumption means the
                    // database refutes the assumption set
                    if (self.decision_level() as usize) < self.assumptions.len() {
                        let lit = self.assumptions[self.decision_level() as usize];
                        match self.value(lit) {
                            -1 => {
                                self.analyze_final(lit);
                                return self.unsat_result();
                            }
                            1 => {
                                // already implied: push an empty level so
                                // the remaining assumptions keep their slots
                                self.new_decision_level();
                            }
                            _ => {
                                self.new_decision_level();
                                self.enqueue(lit, NO_REASON);
                            }
                        }
                        continue;
                    }
                    if self.trail.len() == self.assign.len() || self.original_clauses_satisfied() {
                        // full assignment (or all original clauses already
                        // satisfied): exact checks
                        if let Step::Conflict(c, id) = self.simplex_check() {
                            if !self.resolve_conflict(c, id) {
                                self.root_unsat = true;
                                return self.unsat_result();
                            }
                            continue;
                        }
                        if self.cancelled {
                            // the check was cut off mid-repair; its Ok is
                            // not a feasibility verdict
                            return self.undecided_unknown();
                        }
                        match self.final_check() {
                            FinalOutcome::Model(model) => return SolverResult::Sat(model),
                            FinalOutcome::Conflict(c, id) => {
                                if !self.resolve_conflict(c, id) {
                                    self.root_unsat = true;
                                    return self.unsat_result();
                                }
                            }
                            FinalOutcome::ResourceOut => {
                                if self.config.cancel.can_fire()
                                    && self.config.cancel.is_cancelled()
                                {
                                    // a cancellation, not a real budget
                                    // exhaustion: bail cleanly instead of
                                    // tainting the database with a
                                    // blocking clause
                                    self.cancelled = true;
                                    return self.undecided_unknown();
                                }
                                self.saw_resource_out = true;
                                // block this branch by refuting its
                                // decisions — a search heuristic, not an
                                // implied clause, so the database is
                                // tainted for refutation purposes from
                                // here on
                                let blocking: Vec<Lit> = self
                                    .trail_lim
                                    .iter()
                                    .filter_map(|&i| self.trail.get(i))
                                    .map(|&l| l.negate())
                                    .collect();
                                if blocking.is_empty() {
                                    return self.undecided_unknown();
                                }
                                self.tainted = true;
                                self.proof_incomplete("resource-out blocking clause");
                                if !self.resolve_conflict(blocking, 0) {
                                    return self.undecided_unknown();
                                }
                            }
                        }
                    } else {
                        // stable partial assignment, about to decide: let
                        // the eager simplex veto or narrow the decision
                        match self.guided_step() {
                            Step::Conflict(c, id) => {
                                if !self.resolve_conflict(c, id) {
                                    self.root_unsat = true;
                                    return self.unsat_result();
                                }
                                continue;
                            }
                            Step::Ok => {
                                if self.qhead < self.trail.len() {
                                    // guided propagation enqueued literals;
                                    // propagate them instead of deciding
                                    continue;
                                }
                            }
                        }
                        if self.stats.conflicts - conflicts_at_restart >= restart_limit {
                            self.stats.restarts += 1;
                            posr_obs::instant("cdcl", "cdcl.restart");
                            conflicts_at_restart = self.stats.conflicts;
                            restart_limit = RESTART_BASE * luby(self.stats.restarts);
                            self.cancel_until(0);
                            let live = self.clauses.iter().filter(|c| c.learnt).count();
                            if live > self.max_learnts {
                                self.reduce_db();
                                if self.root_unsat {
                                    return self.unsat_result();
                                }
                                self.max_learnts += self.max_learnts / 2;
                            }
                            continue;
                        }
                        if !self.decide() {
                            // defensive: every variable assigned — handled by
                            // the full-assignment branch next iteration
                            continue;
                        }
                    }
                }
            }
        }
    }

    fn trace_line(&self) {
        let s = self.stats();
        let s = &s;
        if (s.decisions + s.conflicts).is_multiple_of(256) && s.decisions + s.conflicts > 0 {
            eprintln!(
                "cdcl: decisions {} conflicts {} restarts {} trail {}/{} theory {} checks b{}/g{}/s{}/f{} tprops {} pivots {} time b{:?}/g{:?}/s{:?}/e{:?}",
                s.decisions,
                s.conflicts,
                s.restarts,
                self.trail.len(),
                self.assign.len(),
                self.theory_stack.len(),
                s.bound_checks,
                s.gcd_checks,
                s.simplex_checks,
                s.final_checks,
                s.theory_props,
                s.simplex_pivots,
                self.bound_time,
                self.gcd_time,
                self.simplex_time,
                self.explain_time,
            );
        }
    }

    /// Pushes the counters accumulated since the last flush into the
    /// process-wide totals.
    fn flush_global(&mut self) {
        let now = self.stats();
        let f = &self.flushed;
        GLOBAL_CONFLICTS.fetch_add(now.conflicts - f.conflicts, Ordering::Relaxed);
        GLOBAL_DECISIONS.fetch_add(now.decisions - f.decisions, Ordering::Relaxed);
        GLOBAL_PROPAGATIONS.fetch_add(now.propagations - f.propagations, Ordering::Relaxed);
        GLOBAL_RESTARTS.fetch_add(now.restarts - f.restarts, Ordering::Relaxed);
        GLOBAL_LEARNED.fetch_add(now.learned_total - f.learned_total, Ordering::Relaxed);
        GLOBAL_GC_DROPPED.fetch_add(now.gc_dropped - f.gc_dropped, Ordering::Relaxed);
        GLOBAL_BOUND_CHECKS.fetch_add(now.bound_checks - f.bound_checks, Ordering::Relaxed);
        GLOBAL_GCD_CHECKS.fetch_add(now.gcd_checks - f.gcd_checks, Ordering::Relaxed);
        GLOBAL_SIMPLEX_CHECKS.fetch_add(now.simplex_checks - f.simplex_checks, Ordering::Relaxed);
        GLOBAL_FINAL_CHECKS.fetch_add(now.final_checks - f.final_checks, Ordering::Relaxed);
        GLOBAL_THEORY_PROPS.fetch_add(now.theory_props - f.theory_props, Ordering::Relaxed);
        GLOBAL_SIMPLEX_PIVOTS.fetch_add(now.simplex_pivots - f.simplex_pivots, Ordering::Relaxed);
        GLOBAL_ROW_TOUCHES.fetch_add(now.row_touches - f.row_touches, Ordering::Relaxed);
        GLOBAL_TPROP_ENTAILED.fetch_add(now.tprop_entailed - f.tprop_entailed, Ordering::Relaxed);
        self.flushed = now;
    }
}

enum FinalOutcome {
    Model(Model),
    Conflict(Vec<Lit>, u64),
    ResourceOut,
}

/// `true` when the GCD/elimination refutation applies to `cs` after
/// substituting its interval-pinned variables — the argument the checker
/// replays for `Gcd` lemmas (which also accepts a plain interval
/// refutation, the first arm here).
fn gcd_refutes(cs: &[SimplexConstraint]) -> bool {
    let (env, outcome) = BoundEnv::from_constraints(cs);
    if outcome == BoundOutcome::Refuted {
        return true;
    }
    let fixed: crate::eqelim::FixedVars = env
        .fixed()
        .into_iter()
        .map(|(v, k)| (v, (k, Default::default())))
        .collect();
    crate::eqelim::conflict_core_fixed(cs, &fixed).is_some()
}

/// The `lhs ≤ 0` row of an asserted constraint — the orientation the
/// Farkas recovery and the independent checker agree on.  `Eq` never
/// reaches the theory stack (the clausifier splits it into ≤-halves).
fn le_row(c: &SimplexConstraint) -> crate::term::LinExpr {
    match c.rel {
        Rel::Ge => -c.expr.clone(),
        Rel::Le | Rel::Eq => c.expr.clone(),
    }
}

/// The Luby restart sequence `1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …` (0-based).
fn luby(i: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = i;
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// An indexed max-heap over variable activities (the VSIDS order).
struct VarHeap {
    heap: Vec<usize>,
    /// Position of each variable in `heap`, `usize::MAX` when absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn new(n: usize) -> VarHeap {
        let mut h = VarHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
        };
        // all activities start equal; the identity layout is a valid heap
        debug_assert_eq!(h.heap.len(), h.pos.len());
        h.heap.shrink_to_fit();
        h
    }

    /// Registers variable `var` (the next dense index) and queues it.
    fn grow(&mut self, var: usize, activity: &[f64]) {
        debug_assert_eq!(var, self.pos.len());
        self.pos.push(usize::MAX);
        self.insert(var, activity);
    }

    fn contains(&self, var: usize) -> bool {
        self.pos[var] != usize::MAX
    }

    fn insert(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.pos[var] = self.heap.len();
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores heap order after `var`'s activity increased.
    fn update(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            self.sift_up(self.pos[var], activity);
        }
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top] = usize::MAX;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i]] <= activity[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len() && activity[self.heap[l]] > activity[self.heap[largest]] {
                largest = l;
            }
            if r < self.heap.len() && activity[self.heap[r]] > activity[self.heap[largest]] {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.swap(i, largest);
            i = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a]] = a;
        self.pos[self.heap[b]] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::CnfFormula;
    use crate::term::{LinExpr, VarPool};

    fn solve(f: &Formula) -> SolverResult {
        solve_cdcl(&f.nnf().simplify(), &SolverConfig::default())
    }

    fn engine_for(cnf: CnfFormula, config: SolverConfig) -> Engine {
        let mut engine = Engine::empty(config);
        engine.grow_theory(&cnf.theory);
        for lits in cnf.clauses {
            engine.add_root_clause(lits);
        }
        engine
    }

    #[test]
    fn luby_sequence_is_correct() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn heap_orders_by_activity() {
        let mut heap = VarHeap::new(4);
        let activity = [1.0, 9.0, 3.0, 7.0];
        // update with the real activities
        for v in 0..4 {
            heap.update(v, &activity);
        }
        let mut order = Vec::new();
        while let Some(v) = heap.pop_max(&activity) {
            order.push(v);
        }
        assert_eq!(order, vec![1, 3, 2, 0]);
        heap.insert(2, &activity);
        heap.insert(1, &activity);
        assert_eq!(heap.pop_max(&activity), Some(1));
    }

    #[test]
    fn sat_conjunction_produces_model() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let f = Formula::and(vec![
            Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5)),
            Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
            Formula::ge(LinExpr::var(y), LinExpr::constant(2)),
        ]);
        match solve(&f) {
            SolverResult::Sat(m) => assert!(m.satisfies(&f)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_interval_gap() {
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::scaled_var(x, 3), LinExpr::constant(1)),
            Formula::le(LinExpr::scaled_var(x, 3), LinExpr::constant(2)),
        ]);
        assert_eq!(solve(&f), SolverResult::Unsat);
    }

    #[test]
    fn backjump_level_is_second_highest() {
        // drive the engine over a pigeonhole-flavoured instance whose
        // refutation requires learning across levels; correctness of the
        // backjump computation shows up as termination with Unsat
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..6).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut conjuncts = Vec::new();
        for &v in &vars {
            conjuncts.push(Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
            ]));
        }
        conjuncts.push(Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(7),
        ));
        assert_eq!(solve(&Formula::and(conjuncts)), SolverResult::Unsat);
    }

    #[test]
    fn watched_literal_invariant_holds_under_search() {
        // a formula with many ternary clauses; after solving, every clause's
        // first two literals must be watched exactly by that clause
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..5).map(|i| pool.fresh(&format!("v{i}"))).collect();
        let mut conjuncts = Vec::new();
        for w in vars.windows(3) {
            conjuncts.push(Formula::or(vec![
                Formula::ge(LinExpr::var(w[0]), LinExpr::constant(1)),
                Formula::ge(LinExpr::var(w[1]), LinExpr::constant(1)),
                Formula::ge(LinExpr::var(w[2]), LinExpr::constant(1)),
            ]));
        }
        conjuncts.push(Formula::le(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(1),
        ));
        for &v in &vars {
            conjuncts.push(Formula::ge(LinExpr::var(v), LinExpr::constant(0)));
            conjuncts.push(Formula::le(LinExpr::var(v), LinExpr::constant(1)));
        }
        let f = Formula::and(conjuncts);
        let nnf = f.nnf().simplify();
        let cnf = crate::cnf::Clausifier::clausify(&nnf);
        let mut engine = engine_for(cnf, SolverConfig::default());
        let result = engine.solve(&[]);
        assert!(result.is_sat(), "got {result:?}");
        // invariant: every clause index appears in the watch lists of its
        // first two literals
        for (ci, clause) in engine.clauses.iter().enumerate() {
            for &watched in &clause.lits[..2] {
                assert!(
                    engine.watches[watched.code()].contains(&(ci as u32)),
                    "clause {ci} not watched by {watched:?}"
                );
            }
            for &other in &clause.lits[2..] {
                assert!(
                    !engine.watches[other.code()].contains(&(ci as u32)),
                    "clause {ci} spuriously watched by {other:?}"
                );
            }
        }
    }

    #[test]
    fn disequality_chain_unsat() {
        // x ∈ [0,1], x ≠ 0, x ≠ 1
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(1)),
            Formula::ne(LinExpr::var(x), LinExpr::constant(0)),
            Formula::ne(LinExpr::var(x), LinExpr::constant(1)),
        ]);
        assert_eq!(solve(&f), SolverResult::Unsat);
    }

    #[test]
    fn trivial_formulas() {
        assert!(solve(&Formula::True).is_sat());
        assert_eq!(solve(&Formula::False), SolverResult::Unsat);
    }

    #[test]
    fn repeated_solves_reuse_the_engine() {
        // a sat instance solved twice on one engine: the second call must
        // agree and keep the cumulative counters monotone
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let y = pool.fresh("y");
        let f = Formula::and(vec![
            Formula::or(vec![
                Formula::eq(LinExpr::var(x), LinExpr::constant(1)),
                Formula::eq(LinExpr::var(x), LinExpr::constant(2)),
            ]),
            Formula::eq(LinExpr::var(y), LinExpr::var(x) + LinExpr::constant(1)),
        ]);
        let cnf = crate::cnf::Clausifier::clausify(&f.nnf().simplify());
        let mut engine = engine_for(cnf, SolverConfig::default());
        let first = engine.solve(&[]);
        assert!(first.is_sat());
        let after_first = engine.stats();
        let second = engine.solve(&[]);
        assert!(second.is_sat());
        let after_second = engine.stats();
        assert!(after_second.decisions >= after_first.decisions);
        assert!(after_second.final_checks > after_first.final_checks);
    }

    #[test]
    fn assumption_solving_is_scoped() {
        // x ∈ [0, 5]; assuming x ≤ -1 is unsat, but the engine itself
        // stays satisfiable afterwards
        let mut pool = VarPool::new();
        let x = pool.fresh("x");
        let f = Formula::and(vec![
            Formula::ge(LinExpr::var(x), LinExpr::constant(0)),
            Formula::le(LinExpr::var(x), LinExpr::constant(5)),
        ]);
        let mut clausifier = crate::cnf::Clausifier::new();
        clausifier.assert_nnf(&f.nnf().simplify());
        let bad =
            clausifier.literal_of_nnf(&Formula::le(LinExpr::var(x), LinExpr::constant(-1)).nnf());
        let crate::cnf::LitOrConst::Lit(bad) = bad else {
            panic!("expected a literal");
        };
        let mut engine = Engine::empty(SolverConfig::default());
        engine.grow_theory(clausifier.theory());
        for c in clausifier.take_new_definitions() {
            engine.add_root_clause(c);
        }
        for c in clausifier.take_new_assertions() {
            engine.add_root_clause(c);
        }
        assert_eq!(engine.solve(&[bad]), SolverResult::Unsat);
        assert!(engine.solve(&[]).is_sat());
        assert!(engine.solve(&[bad.negate()]).is_sat());
    }

    #[test]
    fn reduce_db_keeps_verdicts_and_drops_clauses() {
        // an unsat pigeonhole instance learns clauses on the way to the
        // refutation; re-solving under a tiny learnt cap fires the
        // between-solve GC, and the verdict must stay Unsat throughout
        let mut pool = VarPool::new();
        let vars: Vec<_> = (0..12).map(|i| pool.fresh(&format!("x{i}"))).collect();
        let mut conjuncts = Vec::new();
        for &v in &vars {
            conjuncts.push(Formula::or(vec![
                Formula::eq(LinExpr::var(v), LinExpr::constant(0)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(1)),
                Formula::eq(LinExpr::var(v), LinExpr::constant(2)),
            ]));
        }
        // pairwise-coupled sums keep the per-conflict clauses long enough
        // that the GC's binary exemption does not protect everything
        for w in vars.windows(4) {
            conjuncts.push(Formula::le(
                LinExpr::sum_of_vars(w.iter().copied()),
                LinExpr::constant(5),
            ));
        }
        conjuncts.push(Formula::ge(
            LinExpr::sum_of_vars(vars.iter().copied()),
            LinExpr::constant(19),
        ));
        let f = Formula::and(conjuncts);
        let cnf = crate::cnf::Clausifier::clausify(&f.nnf().simplify());
        let config = SolverConfig {
            learnt_cap: 1,
            // theory propagation refutes this family in so few conflicts
            // that no restart (hence no in-search GC) ever fires; this
            // test targets the GC, so keep the conflict-driven dynamics
            theory_propagation: false,
            ..SolverConfig::default()
        };
        let mut engine = engine_for(cnf, config);
        let first = engine.solve(&[]);
        assert_eq!(first, SolverResult::Unsat);
        let stats = engine.stats();
        assert!(
            stats.learned_total > 1,
            "instance must actually learn clauses: {stats:?}"
        );
        let live_before = stats.learned_live;
        let second = engine.solve(&[]);
        assert_eq!(second, SolverResult::Unsat);
        let stats = engine.stats();
        assert!(
            stats.gc_dropped > 0 || stats.learned_live < live_before,
            "the between-solve GC must reclaim something: {stats:?} (live before {live_before})"
        );
    }
}
