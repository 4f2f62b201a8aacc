//! Fault-injection and runtime-limit integration tests: overflow forced
//! through every public solve entry point must come back as a clean answer
//! (never a panic escaping to the caller), the BigInt slow lane must rescue
//! coefficient systems past the machine-word boundary, and every limit the
//! one per-solve token carries — flag, deadline, memory budget, an injected
//! cancellation — must degrade to a self-describing `Unknown` through every
//! entry point.
//!
//! Injection state is process-global, so every test here takes the same
//! lock and disarms on exit (including panicking exits, via the guard).
//! This file is its own test binary; cargo runs binaries sequentially, so
//! the armed windows never overlap the rest of the suite.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use posr_core::ast::{LenCmp, LenTerm, StringFormula, StringTerm};
use posr_core::normal::PositionAtom;
use posr_core::position::{solve_position, PositionOptions, PositionOutcome, PositionProblem};
use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_lia::cancel::{CANCELLED_MSG, DEADLINE_MSG};
use posr_lia::formula::Formula;
use posr_lia::solver::{Solver, SolverConfig, SolverResult};
use posr_lia::term::{LinExpr, VarPool};
use posr_lia::{CancelToken, IncrementalSolver};
use posr_portfolio::{CdclPosStrategy, Strategy};

static SERIAL: Mutex<()> = Mutex::new(());

/// Disarms injection on drop, so a failing assertion cannot leave the
/// injector armed for the next test.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        posr_obs::fault::configure(0, 0.0);
    }
}

fn arm_overflow_everywhere() -> Disarm {
    posr_obs::fault::configure(0xFA17, 1.0);
    posr_obs::fault::set_allowed(&[posr_obs::FaultKind::Overflow]);
    Disarm
}

fn lia_formula() -> (VarPool, Formula) {
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let f = Formula::and(vec![
        Formula::eq(LinExpr::var(x) + LinExpr::var(y), LinExpr::constant(5)),
        Formula::ge(LinExpr::var(x), LinExpr::constant(2)),
        Formula::ge(LinExpr::var(y), LinExpr::constant(2)),
    ]);
    (pool, f)
}

/// The paper's flagship unsat instance: two `(ab)*` words of equal length
/// are equal.  Neither sampling nor the length abstraction decides it, so
/// every solve reaches the CEGAR loop and the CDCL(T) search.
fn flagship() -> StringFormula {
    StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ab)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y")
}

fn string_formula() -> StringFormula {
    StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ba)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y")
}

/// Forces [`posr_obs::FaultKind::Overflow`] through every public solve
/// entry point at rate 1.0 and requires each to come back with an answer —
/// `Unknown` is fine, an escaped `OVERFLOW_MSG` panic is the regression
/// this guards against.
#[test]
fn forced_overflow_degrades_every_entry_point_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = arm_overflow_everywhere();

    type Entry = (&'static str, Box<dyn Fn() -> String>);
    let entries: Vec<Entry> = vec![
        (
            "posr_lia::Solver::solve",
            Box::new(|| {
                let (_, f) = lia_formula();
                format!("{:?}", Solver::new().solve(&f))
            }),
        ),
        (
            "posr_lia::IncrementalSolver::solve",
            Box::new(|| {
                let (_, f) = lia_formula();
                let mut session = IncrementalSolver::new();
                session.assert_formula(&f);
                format!("{:?}", session.solve())
            }),
        ),
        (
            "posr_tagauto::SystemEncoding::solve_with_cuts",
            Box::new(|| {
                use posr_tagauto::{PositionConstraint, SystemEncoder, VarTable};
                let mut vars = VarTable::new();
                let x = vars.intern("x");
                let y = vars.intern("y");
                let mut automata = BTreeMap::new();
                automata.insert(x, posr_automata::Regex::parse("abc").unwrap().compile());
                automata.insert(y, posr_automata::Regex::parse("abc").unwrap().compile());
                let encoder = SystemEncoder::new(&automata, &vars);
                let mut pool = VarPool::new();
                let encoding =
                    encoder.encode(&[PositionConstraint::diseq(vec![x], vec![y])], &mut pool);
                let report = encoding.solve_with_cuts(&Formula::True, &SolverConfig::default(), 8);
                format!("{:?}", report.result)
            }),
        ),
        (
            "posr_core::StringSolver::solve",
            Box::new(|| format!("{:?}", StringSolver::new().solve(&string_formula()))),
        ),
        (
            "posr_core::SolverSession::check_sat",
            Box::new(|| {
                let mut session = posr_core::session::SolverSession::new();
                session.assert_all(string_formula().atoms);
                format!("{:?}", session.check_sat())
            }),
        ),
        (
            "posr_portfolio::solve_batch",
            Box::new(|| {
                let report = posr_portfolio::solve_batch(
                    &[posr_portfolio::BatchItem::new(
                        "chaos-item",
                        string_formula(),
                    )],
                    &posr_portfolio::PortfolioSolver::new(),
                    &posr_portfolio::BatchOptions::default(),
                );
                report.outcomes[0].status().to_string()
            }),
        ),
    ];

    for (name, run) in entries {
        // the assertion is the absence of a panic: each entry point's
        // overflow guard must turn the injected overflow into an answer
        let answer = run();
        assert!(!answer.is_empty(), "{name} returned nothing");
    }
}

/// The BigInt slow lane: a coefficient system past the `i64` boundary used
/// to drown in `OVERFLOW_MSG` panics (reported as `Unknown`); the checked
/// arbitrary-precision fallback now decides it both ways.
#[test]
fn huge_coefficient_systems_answer_definitely_via_the_slow_lane() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let slow_lane = posr_obs::counter("lia.rat.slow_lane");
    let before = slow_lane.value();

    // both past i64::MAX; the shared power-of-2 factor is what lets the
    // slow lane's gcd reduction pull overflowed intermediates back into
    // i128 range (fully coprime coefficients would produce tableau entries
    // that genuinely need >127 bits and correctly stay Unknown)
    let c1: i128 = 1i128 << 63;
    let c2: i128 = (1i128 << 63) + 2;
    let mut pool = VarPool::new();
    let x = pool.fresh("x");
    let y = pool.fresh("y");
    let sym = |a: i128, b: i128, c: i128| {
        Formula::eq(
            LinExpr::scaled_var(x, a) + LinExpr::scaled_var(y, b),
            LinExpr::constant(c),
        )
    };

    // c1·x + c2·y = c1 + c2 ∧ c2·x + c1·y = c1 + c2 has the unique
    // rational solution x = y = 1
    let base = vec![sym(c1, c2, c1 + c2), sym(c2, c1, c1 + c2)];
    let sat = Formula::and(base.clone());
    match Solver::new().solve(&sat) {
        SolverResult::Sat(model) => {
            assert_eq!(model.value(x), 1);
            assert_eq!(model.value(y), 1);
        }
        other => panic!("expected sat past the i64 boundary, got {other:?}"),
    }

    // … so forcing x + y = 3 on top is a refutation, not a resource-out
    let mut parts = base;
    parts.push(Formula::eq(
        LinExpr::var(x) + LinExpr::var(y),
        LinExpr::constant(3),
    ));
    let unsat = Formula::and(parts);
    assert_eq!(Solver::new().solve(&unsat), SolverResult::Unsat);

    assert!(
        slow_lane.value() > before,
        "the system decided without ever taking the slow lane — \
         coefficients no longer stress the fast path"
    );
}

/// A memory budget running out degrades to `Unknown` naming the axis.
#[test]
fn memory_budget_exhaustion_reports_its_axis() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let budget = Arc::new(posr_obs::Budget::unlimited().with_mem_limit(1));
    let token = CancelToken::new().with_budget(Arc::clone(&budget));
    let options = SolverOptions {
        cancel: token,
        ..SolverOptions::default()
    };
    let f = StringFormula::new()
        .in_re("x", "(ab)*")
        .in_re("y", "(ab)*")
        .diseq(StringTerm::var("x"), StringTerm::var("y"))
        .len_eq("x", "y");
    match StringSolver::with_options(options).solve(&f) {
        Answer::Unknown(reason) => {
            assert!(
                reason.contains(posr_obs::MEM_BUDGET_MSG),
                "reason should name the memory axis, got: {reason}"
            );
        }
        other => panic!("expected a budgeted Unknown, got {other:?}"),
    }
}

/// An already-passed deadline answers `Unknown(DEADLINE_MSG)` through every
/// way a caller can hand one to the solver, and a raised flag answers
/// `Unknown(CANCELLED_MSG)`: the per-solve token is built once and reaches
/// every layer.
#[test]
fn every_entry_point_reports_the_limit_that_fired() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let past = Instant::now() - Duration::from_millis(1);
    let raised = CancelToken::new();
    raised.cancel();
    let unknown = |answer: Answer| match answer {
        Answer::Unknown(reason) => reason,
        other => panic!("expected Unknown, got {other:?}"),
    };
    let solve =
        |options: SolverOptions| unknown(StringSolver::with_options(options).solve(&flagship()));

    let via_deadline = solve(SolverOptions {
        deadline: Some(past),
        ..SolverOptions::default()
    });
    assert_eq!(via_deadline, DEADLINE_MSG, "SolverOptions::deadline");
    let via_token = solve(SolverOptions {
        cancel: CancelToken::with_deadline(past),
        ..SolverOptions::default()
    });
    assert_eq!(via_token, DEADLINE_MSG, "SolverOptions::cancel");
    let via_flag = solve(SolverOptions {
        cancel: raised.clone(),
        ..SolverOptions::default()
    });
    assert_eq!(via_flag, CANCELLED_MSG, "raised SolverOptions::cancel");

    let lane = CdclPosStrategy::default();
    let racing = unknown(lane.solve(&flagship(), &CancelToken::with_deadline(past)));
    assert_eq!(racing, DEADLINE_MSG, "CdclPosStrategy racing token");
    let racing_flag = unknown(lane.solve(&flagship(), &raised));
    assert_eq!(racing_flag, CANCELLED_MSG, "CdclPosStrategy raised token");
    // the lane's own deadline is folded in by the solver too
    let lane_deadline = CdclPosStrategy {
        options: SolverOptions {
            deadline: Some(past),
            ..SolverOptions::default()
        },
    };
    let own = unknown(lane_deadline.solve(&flagship(), &CancelToken::new()));
    assert_eq!(own, DEADLINE_MSG, "CdclPosStrategy::options.deadline");

    let mut languages = BTreeMap::new();
    for name in ["x", "y"] {
        languages.insert(
            name.to_string(),
            posr_automata::Regex::parse("(ab)*").unwrap().compile(),
        );
    }
    let positions = vec![PositionAtom::Diseq(
        vec!["x".to_string()],
        vec!["y".to_string()],
    )];
    let lengths = vec![(LenTerm::len("x"), LenCmp::Eq, LenTerm::len("y"))];
    let problem = PositionProblem {
        languages: &languages,
        positions: &positions,
        lengths: &lengths,
    };
    let position =
        |token: &CancelToken| match solve_position(&problem, &PositionOptions::default(), token) {
            PositionOutcome::Unknown(reason) => reason,
            other => panic!("expected Unknown, got {other:?}"),
        };
    assert_eq!(
        position(&CancelToken::with_deadline(past)),
        DEADLINE_MSG,
        "solve_position"
    );
    assert_eq!(position(&raised), CANCELLED_MSG, "raised solve_position");
}

/// An injected `Cancel` fault fires the solve's token even when the caller
/// handed the solver no token of its own (only a deadline): the per-solve
/// token always has a flag for the fault to raise.
#[test]
fn injected_cancel_fires_a_deadline_only_solve() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let injected = posr_obs::counter("fault.injected.cancel");
    let before = injected.value();
    posr_obs::fault::configure(0xCA9C, 1.0);
    posr_obs::fault::set_allowed(&[posr_obs::FaultKind::Cancel]);
    let _disarm = Disarm;
    let options = SolverOptions {
        deadline: Some(Instant::now() + Duration::from_secs(60)),
        ..SolverOptions::default()
    };
    let answer = StringSolver::with_options(options).solve(&flagship());
    assert_eq!(answer, Answer::Unknown(CANCELLED_MSG.to_string()));
    assert_eq!(
        injected.value() - before,
        1,
        "the first injected cancellation ends the solve"
    );
}
