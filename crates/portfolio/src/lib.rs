//! `posr-portfolio`: a concurrent portfolio engine for the posr string
//! solver.
//!
//! The workspace ships four complementary decision procedures — the paper's
//! tag-automaton position pipeline under the clause-learning CDCL(T) LIA
//! core (`cdcl-pos`, the production lane), plus three baselines with very
//! different strengths (guess-and-check enumeration is fast on satisfiable
//! instances, the length abstraction refutes length-inconsistent inputs
//! almost for free, the naive order encoding handles tiny disequality
//! systems).  A [`PortfolioSolver`] races them on one thread each, accepts
//! the first *validated* answer and fires the [`CancelToken`]s of the
//! losers, which unwind cooperatively from the branch points of their
//! searches (the LIA engine's decision loop, the position procedure's CEGAR
//! loop, the baselines' enumeration loops).
//!
//! On a host with a single available core the race would only oversubscribe
//! the CPU, so the portfolio switches to a *sequential* schedule: a ranked
//! subset of the strategies runs round-robin under doubling time slices
//! (production lane first), with the same first-validated-answer-wins
//! policy.
//!
//! Soundness policy: `Unsat` is accepted from any strategy (each one is
//! individually sound for refutations), while `Sat` is accepted only when
//! the attached model re-validates against the input formula — strategies
//! that answer `Sat` without a reconstructible model (the naive-order
//! baseline) can therefore never win with a wrong model.
//!
//! The [`batch`] module drives many problems concurrently over a worker
//! pool with per-problem timeouts and aggregate statistics, including the
//! hit ratio of the shared automaton cache that makes racing workers reuse
//! compiled patterns.
//!
//! ```
//! use posr_core::ast::{StringFormula, StringTerm};
//! use posr_portfolio::PortfolioSolver;
//!
//! let formula = StringFormula::new()
//!     .in_re("x", "(ab)*")
//!     .in_re("y", "(ba)*")
//!     .diseq(StringTerm::var("x"), StringTerm::var("y"))
//!     .len_eq("x", "y");
//! let result = PortfolioSolver::new().solve_with(&formula, None, None);
//! assert!(result.answer.is_sat());
//! assert!(result.winner.is_some());
//! ```

pub mod batch;

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use posr_core::ast::StringFormula;
use posr_core::baselines::{
    BaselineSolver, EnumerationSolver, LengthAbstractionSolver, NaiveOrderSolver,
};
use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_lia::cancel::CancelToken;
use posr_smtfmt::ParsedScript;

pub use batch::{
    solve_batch, solve_scripts, BatchItem, BatchOptions, BatchOutcome, BatchReport, BatchStats,
};

/// Distribution of lane solve times (one strategy run each), µs — the
/// race's per-lane latency profile, p99-queryable via
/// [`posr_obs::HistogramSnapshot`].
static HIST_LANE_WALL: std::sync::LazyLock<posr_obs::Histogram> =
    std::sync::LazyLock::new(|| posr_obs::histogram("portfolio.lane_wall_us"));

/// Lanes (and batch workers) that panicked and were absorbed by the
/// isolation boundary instead of aborting the race.  Lands in the black-box
/// dump via the watchdog's counter snapshot.
static OBS_LANE_CRASHES: std::sync::LazyLock<posr_obs::Counter> =
    std::sync::LazyLock::new(|| posr_obs::counter("portfolio.lane_crashes"));
/// Backtrace hash of the most recent absorbed crash — enough to tell "the
/// same crash keeps happening" from "different crash sites" in a dump.
static OBS_LAST_CRASH_HASH: std::sync::LazyLock<posr_obs::Gauge> =
    std::sync::LazyLock::new(|| posr_obs::gauge("portfolio.last_crash_hash"));

thread_local! {
    /// Backtrace hash captured by the panic hook at the actual panic site
    /// (a backtrace taken at the `catch_unwind` would show the catcher).
    static LAST_BACKTRACE_HASH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

static CRASH_HOOK: std::sync::Once = std::sync::Once::new();

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Installs (once, process-wide) a panic hook that records a backtrace hash
/// for the isolation boundary below, and silences the default stderr report
/// for *expected* panics — injected faults and the arithmetic overflow that
/// the slow lane already turned into control flow — so a chaos run doesn't
/// drown the terminal.  Genuine panics still print through the previous
/// hook.
fn install_crash_hook() {
    CRASH_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let bt = std::backtrace::Backtrace::force_capture();
            LAST_BACKTRACE_HASH.with(|c| c.set(fnv1a(format!("{bt}").as_bytes())));
            let msg = panic_info_message(info);
            let expected =
                msg.contains(posr_obs::INJECTED_PANIC_MSG) || msg.contains(posr_lia::OVERFLOW_MSG);
            if !expected {
                prev(info);
            }
        }));
    });
}

fn panic_info_message(info: &std::panic::PanicHookInfo<'_>) -> String {
    if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::new()
    }
}

fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A panic absorbed at a lane/worker isolation boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneCrash {
    /// The panic message.
    pub message: String,
    /// FNV-1a hash of the backtrace captured at the panic site (0 if the
    /// hook never saw the panic).
    pub backtrace_hash: u64,
}

/// Runs one lane (or batch-worker) body under `catch_unwind`: a panic
/// becomes a [`LaneCrash`] record — counted, hashed, dumped — and the
/// caller's race or batch goes on without the crashed participant.
pub(crate) fn run_isolated<T>(name: &str, body: impl FnOnce() -> T) -> Result<T, LaneCrash> {
    install_crash_hook();
    LAST_BACKTRACE_HASH.with(|c| c.set(0));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(answer) => Ok(answer),
        Err(payload) => {
            let message = panic_payload_message(payload.as_ref());
            let backtrace_hash = LAST_BACKTRACE_HASH.with(|c| c.get());
            OBS_LANE_CRASHES.incr();
            OBS_LAST_CRASH_HASH.set(backtrace_hash);
            posr_obs::instant("portfolio", format!("lane.crash:{name}"));
            Err(LaneCrash {
                message,
                backtrace_hash,
            })
        }
    }
}

/// One engine in the portfolio.
///
/// Implementations must poll `cancel` at their branch points: the portfolio
/// joins every worker thread before returning, so a strategy that ignores
/// its token holds the whole race hostage.
pub trait Strategy: Send + Sync {
    /// Display name; also what SMT-LIB strategy hints match against.
    fn name(&self) -> &'static str;

    /// Decides the formula, answering `Unknown` promptly once `cancel` fires.
    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer;
}

/// The paper's tag-automaton position pipeline with the clause-learning
/// CDCL(T) LIA core (the production solver; the only lane that closes the
/// loopy unsat families).  The CEGAR loops run on one persistent
/// incremental LIA session per query.
#[derive(Clone, Debug, Default)]
pub struct CdclPosStrategy {
    /// Base options; the racing token replaces their `cancel` per query,
    /// and the solver folds their `deadline` into it.
    pub options: SolverOptions,
}

impl Strategy for CdclPosStrategy {
    fn name(&self) -> &'static str {
        "cdcl-pos"
    }

    fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
        let mut options = self.options.clone();
        options.cancel = cancel.clone();
        StringSolver::with_options(options).solve(formula)
    }
}

macro_rules! baseline_strategy {
    ($(#[$doc:meta])* $wrapper:ident, $inner:ty, $name:literal) => {
        $(#[$doc])*
        #[derive(Clone, Debug, Default)]
        pub struct $wrapper(pub $inner);

        impl Strategy for $wrapper {
            fn name(&self) -> &'static str {
                $name
            }

            fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
                self.0.solve(formula, cancel)
            }
        }
    };
}

baseline_strategy!(
    /// Guess-and-check enumeration: strong on satisfiable instances.
    EnumerationStrategy,
    EnumerationSolver,
    "enumeration"
);
baseline_strategy!(
    /// The naive mismatch-order automata baseline.
    NaiveOrderStrategy,
    NaiveOrderSolver,
    "naive-order"
);
baseline_strategy!(
    /// Length-abstraction-only refutations.
    LengthAbstractionStrategy,
    LengthAbstractionSolver,
    "length-abstraction"
);

/// What happened to one strategy during a race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyOutcome {
    /// Produced the accepted answer.
    Won,
    /// Finished with a definite answer after the race was already decided,
    /// or with an answer the portfolio did not accept (e.g. an unvalidated
    /// `Sat`).
    Finished(String),
    /// Abandoned: returned `Unknown` because its cancellation token fired.
    Cancelled,
    /// Panicked; the crash was absorbed at the isolation boundary and the
    /// race went on without this lane.
    Crashed {
        /// The panic message.
        message: String,
        /// FNV-1a hash of the backtrace captured at the panic site.
        backtrace_hash: u64,
    },
}

/// Per-strategy telemetry of one race.
#[derive(Clone, Debug)]
pub struct StrategyReport {
    /// Strategy name.
    pub name: &'static str,
    /// Wall-clock time until the strategy returned.
    pub elapsed: Duration,
    /// How the strategy ended.
    pub outcome: StrategyOutcome,
}

/// The result of one portfolio race.
#[derive(Clone, Debug)]
pub struct PortfolioResult {
    /// The accepted answer (`Unknown` if no strategy produced a validated
    /// answer before the timeout).
    pub answer: Answer,
    /// Name of the winning strategy, if any.
    pub winner: Option<&'static str>,
    /// Wall-clock time of the whole race, including the cooperative
    /// shutdown of the losers.
    pub elapsed: Duration,
    /// One report per strategy, in portfolio order.
    pub reports: Vec<StrategyReport>,
}

/// The preference order used when the portfolio must run *sequentially*
/// (single-core hosts): production CDCL lane first, then the baselines
/// whose sweet spots (fast Sat, fast length refutation) complement it.
/// Strategies not listed rank last, in their portfolio order.
const SEQUENTIAL_RANK: [&str; 4] = [
    "cdcl-pos",
    "enumeration",
    "length-abstraction",
    "naive-order",
];

/// How many strategies the sequential schedule rotates over (more lanes on
/// one core only dilute each other's time slices).
const SEQUENTIAL_SUBSET: usize = 3;

/// The first sequential time slice; slices double every full rotation, so
/// total work is at most twice the final slice per strategy.
const SEQUENTIAL_SLICE: Duration = Duration::from_millis(250);

/// Races a set of [`Strategy`] implementations over each query.
#[derive(Clone)]
pub struct PortfolioSolver {
    strategies: Vec<Arc<dyn Strategy>>,
    /// `None`: detect via `available_parallelism` per query.
    parallelism: Option<usize>,
}

impl Default for PortfolioSolver {
    fn default() -> PortfolioSolver {
        PortfolioSolver::new()
    }
}

impl PortfolioSolver {
    /// The default portfolio: the production CDCL(T) position solver plus
    /// the three baselines.
    pub fn new() -> PortfolioSolver {
        PortfolioSolver {
            strategies: vec![
                Arc::new(CdclPosStrategy::default()),
                Arc::new(EnumerationStrategy::default()),
                Arc::new(NaiveOrderStrategy::default()),
                Arc::new(LengthAbstractionStrategy::default()),
            ],
            parallelism: None,
        }
    }

    /// A portfolio over an explicit strategy list.
    ///
    /// # Panics
    /// Panics if `strategies` is empty.
    pub fn with_strategies(strategies: Vec<Arc<dyn Strategy>>) -> PortfolioSolver {
        assert!(
            !strategies.is_empty(),
            "a portfolio needs at least one strategy"
        );
        PortfolioSolver {
            strategies,
            parallelism: None,
        }
    }

    /// Overrides core-count detection: `1` forces the sequential
    /// time-sliced schedule, `≥ 2` forces the concurrent race.  Tests use
    /// this; production callers normally let the solver detect.
    pub fn with_parallelism(mut self, cores: usize) -> PortfolioSolver {
        self.parallelism = Some(cores.max(1));
        self
    }

    fn effective_parallelism(&self) -> usize {
        self.parallelism.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The strategy names in racing order.
    pub fn strategy_names(&self) -> Vec<&'static str> {
        self.strategies.iter().map(|s| s.name()).collect()
    }

    /// Convenience entry point: race with no timeout and no hint.
    pub fn solve(&self, formula: &StringFormula) -> Answer {
        self.solve_with(formula, None, None).answer
    }

    /// Solves a parsed SMT-LIB script, honouring its strategy hint: a hint
    /// restricts the race to the hinted strategy plus the production solver
    /// (the hint is advice, not a soundness waiver).
    pub fn solve_script(
        &self,
        script: &ParsedScript,
        timeout: Option<Duration>,
    ) -> PortfolioResult {
        self.solve_with(&script.formula, timeout, script.strategy_hint.as_deref())
    }

    /// The full racing entry point.
    ///
    /// * `timeout` bounds the race; on expiry every strategy is cancelled
    ///   and the answer is `Unknown`.
    /// * `hint` (usually from `(set-info :posr-strategy …)`) restricts the
    ///   race to the named strategy plus the production `cdcl-pos` lane;
    ///   unknown hints are ignored.
    ///
    /// On hosts with a single available core the portfolio does not
    /// oversubscribe threads: a ranked subset of the strategies runs
    /// *sequentially* under doubling time slices instead (first decisive
    /// answer wins, exactly as in the race).
    pub fn solve_with(
        &self,
        formula: &StringFormula,
        timeout: Option<Duration>,
        hint: Option<&str>,
    ) -> PortfolioResult {
        let start = Instant::now();
        let deadline = timeout.map(|t| start + t);

        let mut racers: Vec<Arc<dyn Strategy>> = match hint {
            Some(h) if self.strategies.iter().any(|s| s.name() == h) => self
                .strategies
                .iter()
                .filter(|s| s.name() == h || s.name() == "cdcl-pos")
                .cloned()
                .collect(),
            _ => self.strategies.clone(),
        };
        if racers.is_empty() {
            racers = self.strategies.clone();
        }

        if self.effective_parallelism() == 1 {
            return self.solve_sequential(formula, racers, start, deadline);
        }

        let tokens: Vec<CancelToken> = racers
            .iter()
            .map(|_| match deadline {
                Some(d) => CancelToken::with_deadline(d),
                None => CancelToken::new(),
            })
            .collect();

        let mut winner: Option<&'static str> = None;
        let mut accepted: Option<Answer> = None;
        let mut fallback: Option<Answer> = None;
        let mut first_seen = false;
        let mut reports: Vec<Option<StrategyReport>> = vec![None; racers.len()];

        // counter scopes are thread-local: capture the caller's (e.g. the
        // batch driver's per-batch scope) and re-attach inside every lane
        let inherited = posr_obs::attached_scopes();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<(usize, Result<Answer, LaneCrash>, Duration)>();
            for (index, strategy) in racers.iter().enumerate() {
                let tx = tx.clone();
                let token = tokens[index].clone();
                let strategy = Arc::clone(strategy);
                let inherited = &inherited;
                scope.spawn(move || {
                    let _attached: Vec<_> = inherited.iter().map(|s| s.attach()).collect();
                    posr_obs::set_thread_track(format!("lane:{}", strategy.name()));
                    posr_obs::instant("portfolio", "lane.spawn");
                    let begin = Instant::now();
                    // `catch_unwind` at the lane boundary: a panicking
                    // strategy loses the race instead of poisoning the scope
                    // (`std::thread::scope` re-raises panics on join)
                    let lane = run_isolated(strategy.name(), || {
                        posr_obs::fault::fire(
                            "portfolio.lane",
                            &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
                        );
                        let _span = posr_obs::span!("portfolio", "lane.solve");
                        strategy.solve(formula, &token)
                    });
                    HIST_LANE_WALL.record_duration(begin.elapsed());
                    // receiver may be gone if the race was already decided
                    let _ = tx.send((index, lane, begin.elapsed()));
                });
            }
            drop(tx);

            for (index, lane, elapsed) in rx.iter() {
                let name = racers[index].name();
                let answer = match lane {
                    Ok(answer) => answer,
                    Err(crash) => {
                        reports[index] = Some(StrategyReport {
                            name,
                            elapsed,
                            outcome: StrategyOutcome::Crashed {
                                message: crash.message,
                                backtrace_hash: crash.backtrace_hash,
                            },
                        });
                        continue;
                    }
                };
                let decisive = accepted.is_none() && answer_is_decisive(&answer, formula);
                if !first_seen {
                    first_seen = true;
                    posr_obs::instant("portfolio", format!("lane.first-answer:{name}"));
                }
                // `Unknown` after the token fired (flag or deadline) means the
                // strategy was abandoned, not that it genuinely gave up
                let cancelled = answer.is_unknown() && tokens[index].is_cancelled();
                let outcome = if decisive {
                    StrategyOutcome::Won
                } else if cancelled {
                    StrategyOutcome::Cancelled
                } else {
                    StrategyOutcome::Finished(describe(&answer))
                };
                reports[index] = Some(StrategyReport {
                    name,
                    elapsed,
                    outcome,
                });
                if decisive {
                    winner = Some(name);
                    accepted = Some(answer);
                    posr_obs::instant("portfolio", format!("lane.win:{name}"));
                    for (j, token) in tokens.iter().enumerate() {
                        if j != index {
                            token.cancel();
                            posr_obs::instant(
                                "portfolio",
                                format!("lane.cancel:{}", racers[j].name()),
                            );
                        }
                    }
                    // keep draining: the scope joins every thread anyway, and
                    // the reports should record how the losers ended
                } else if accepted.is_none()
                    && fallback.is_none()
                    && !cancelled
                    && !matches!(answer, Answer::Sat(_))
                {
                    // remember the most informative non-answer (an Unknown
                    // reason beats a generic "portfolio undecided").  A `Sat`
                    // that failed validation is *not* kept: reporting it
                    // would violate the validated-models-only policy
                    fallback = Some(answer);
                }
            }
        });

        let answer = accepted.or(fallback).unwrap_or_else(|| {
            Answer::Unknown("portfolio: no strategy produced an answer".to_string())
        });
        PortfolioResult {
            answer,
            winner,
            elapsed: start.elapsed(),
            reports: reports
                .into_iter()
                .map(|r| r.expect("every racer reports exactly once"))
                .collect(),
        }
    }

    /// The single-core schedule: a ranked subset of the racers runs
    /// round-robin under doubling time slices.  A strategy that answers
    /// `Unknown` *without* its slice token having fired has genuinely given
    /// up (unsupported fragment, internal limit below the slice) and leaves
    /// the rotation; slice-expired strategies retry with the next, longer
    /// slice.  Doubling keeps the total work within a factor of two of the
    /// final slice, so the schedule loses at most a small constant over
    /// clairvoyantly picking the right strategy.
    fn solve_sequential(
        &self,
        formula: &StringFormula,
        racers: Vec<Arc<dyn Strategy>>,
        start: Instant,
        deadline: Option<Instant>,
    ) -> PortfolioResult {
        let rank = |s: &Arc<dyn Strategy>| {
            SEQUENTIAL_RANK
                .iter()
                .position(|&n| n == s.name())
                .unwrap_or(SEQUENTIAL_RANK.len())
        };
        let mut ranked = racers;
        ranked.sort_by_key(rank);
        ranked.truncate(SEQUENTIAL_SUBSET.max(1));

        let mut reports: Vec<StrategyReport> = ranked
            .iter()
            .map(|s| StrategyReport {
                name: s.name(),
                elapsed: Duration::ZERO,
                outcome: StrategyOutcome::Cancelled,
            })
            .collect();
        let mut active: Vec<bool> = vec![true; ranked.len()];
        let mut fallback: Option<Answer> = None;
        let mut slice = SEQUENTIAL_SLICE;
        loop {
            let mut progressed = false;
            for (index, strategy) in ranked.iter().enumerate() {
                if !active[index] {
                    continue;
                }
                let now = Instant::now();
                if deadline.is_some_and(|d| now >= d) {
                    break;
                }
                let mut slice_end = now + slice;
                if let Some(d) = deadline {
                    slice_end = slice_end.min(d);
                }
                let token = CancelToken::with_deadline(slice_end);
                let begin = Instant::now();
                let lane = run_isolated(strategy.name(), || {
                    posr_obs::fault::fire(
                        "portfolio.lane",
                        &[posr_obs::FaultKind::Panic, posr_obs::FaultKind::Delay],
                    );
                    let _span = posr_obs::span("portfolio", format!("slice:{}", strategy.name()));
                    strategy.solve(formula, &token)
                });
                let elapsed = begin.elapsed();
                progressed = true;
                let answer = match lane {
                    Ok(answer) => answer,
                    Err(crash) => {
                        // a crashed lane leaves the rotation; the schedule
                        // keeps rotating over the survivors
                        reports[index] = StrategyReport {
                            name: strategy.name(),
                            elapsed,
                            outcome: StrategyOutcome::Crashed {
                                message: crash.message,
                                backtrace_hash: crash.backtrace_hash,
                            },
                        };
                        active[index] = false;
                        continue;
                    }
                };
                let decisive = answer_is_decisive(&answer, formula);
                let expired = answer.is_unknown() && token.is_cancelled();
                reports[index] = StrategyReport {
                    name: strategy.name(),
                    elapsed,
                    outcome: if decisive {
                        StrategyOutcome::Won
                    } else if expired {
                        StrategyOutcome::Cancelled
                    } else {
                        StrategyOutcome::Finished(describe(&answer))
                    },
                };
                if decisive {
                    return PortfolioResult {
                        answer,
                        winner: Some(strategy.name()),
                        elapsed: start.elapsed(),
                        reports,
                    };
                }
                if !expired {
                    // a genuine give-up: remember the reason, stop retrying.
                    // As in the race, an unvalidated `Sat` never becomes the
                    // reported answer
                    active[index] = false;
                    if fallback.is_none() && !matches!(answer, Answer::Sat(_)) {
                        fallback = Some(answer);
                    }
                }
            }
            let out_of_time = deadline.is_some_and(|d| Instant::now() >= d);
            let exhausted = !active.iter().any(|&a| a);
            if out_of_time || exhausted || !progressed {
                let answer = fallback.unwrap_or_else(|| {
                    Answer::Unknown("portfolio: no strategy produced an answer".to_string())
                });
                return PortfolioResult {
                    answer,
                    winner: None,
                    elapsed: start.elapsed(),
                    reports,
                };
            }
            slice = slice.saturating_mul(2);
        }
    }
}

/// `Unsat` is trusted from every (individually sound) strategy; `Sat` only
/// with a model that re-validates against the original formula.
fn answer_is_decisive(answer: &Answer, formula: &StringFormula) -> bool {
    match answer {
        Answer::Unsat => true,
        Answer::Sat(model) => model.satisfies(formula),
        Answer::Unknown(_) => false,
    }
}

fn describe(answer: &Answer) -> String {
    match answer {
        Answer::Sat(model) if model.strings().is_empty() => {
            "sat (unvalidated, no model)".to_string()
        }
        Answer::Sat(_) => "sat".to_string(),
        Answer::Unsat => "unsat".to_string(),
        Answer::Unknown(reason) => format!("unknown: {reason}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posr_core::ast::StringTerm;

    fn sat_formula() -> StringFormula {
        StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ba)*")
            .diseq(StringTerm::var("x"), StringTerm::var("y"))
            .len_eq("x", "y")
    }

    fn unsat_formula() -> StringFormula {
        StringFormula::new()
            .in_re("x", "abc")
            .diseq(StringTerm::var("x"), StringTerm::lit("abc"))
    }

    #[test]
    fn racing_portfolio_decides_sat() {
        // pin the concurrent race: on a 1-core host the auto-detected mode
        // would be the sequential schedule
        let result =
            PortfolioSolver::new()
                .with_parallelism(4)
                .solve_with(&sat_formula(), None, None);
        match &result.answer {
            Answer::Sat(model) => assert!(model.satisfies(&sat_formula())),
            other => panic!("expected sat, got {other:?}"),
        }
        assert!(result.winner.is_some());
        assert_eq!(result.reports.len(), 4);
    }

    #[test]
    fn racing_portfolio_decides_unsat() {
        let result =
            PortfolioSolver::new()
                .with_parallelism(4)
                .solve_with(&unsat_formula(), None, None);
        assert!(result.answer.is_unsat(), "got {:?}", result.answer);
    }

    #[test]
    fn sequential_schedule_decides_both_verdicts() {
        let portfolio = PortfolioSolver::new().with_parallelism(1);
        let sat = portfolio.solve_with(&sat_formula(), None, None);
        match &sat.answer {
            Answer::Sat(model) => assert!(model.satisfies(&sat_formula())),
            other => panic!("expected sat, got {other:?}"),
        }
        assert!(sat.winner.is_some());
        // the single-core schedule rotates over a ranked subset, not the
        // whole portfolio
        assert!(sat.reports.len() <= SEQUENTIAL_SUBSET);
        assert!(sat
            .reports
            .iter()
            .any(|r| r.outcome == StrategyOutcome::Won));
        let unsat = portfolio.solve_with(&unsat_formula(), None, None);
        assert!(unsat.answer.is_unsat(), "got {:?}", unsat.answer);
    }

    #[test]
    fn sequential_schedule_ranks_the_production_lane_first() {
        let portfolio = PortfolioSolver::new().with_parallelism(1);
        let result = portfolio.solve_with(&unsat_formula(), None, None);
        assert_eq!(result.reports[0].name, "cdcl-pos");
    }

    /// A strategy that never answers until its token fires — the direct test
    /// that losers are abandoned instead of joined to completion.
    struct HangingStrategy;

    impl Strategy for HangingStrategy {
        fn name(&self) -> &'static str {
            "hanging"
        }

        fn solve(&self, _formula: &StringFormula, cancel: &CancelToken) -> Answer {
            while !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Answer::Unknown(cancel.unknown_reason())
        }
    }

    #[test]
    fn losing_strategy_is_cancelled_once_the_race_is_decided() {
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(CdclPosStrategy::default()),
            Arc::new(HangingStrategy),
        ])
        .with_parallelism(2);
        let start = Instant::now();
        let result = portfolio.solve_with(&unsat_formula(), None, None);
        assert!(result.answer.is_unsat());
        assert_eq!(result.winner, Some("cdcl-pos"));
        // without cancellation this would hang forever
        assert!(start.elapsed() < Duration::from_secs(30));
        let hanging = result.reports.iter().find(|r| r.name == "hanging").unwrap();
        assert_eq!(hanging.outcome, StrategyOutcome::Cancelled);
    }

    #[test]
    fn timeout_abandons_a_portfolio_of_hungs() {
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(HangingStrategy),
            Arc::new(HangingStrategy),
        ])
        .with_parallelism(2);
        let result = portfolio.solve_with(&sat_formula(), Some(Duration::from_millis(100)), None);
        assert!(result.answer.is_unknown());
        assert!(result.elapsed < Duration::from_secs(30));
        assert!(result
            .reports
            .iter()
            .all(|r| r.outcome == StrategyOutcome::Cancelled));
    }

    #[test]
    fn hint_restricts_the_race() {
        let portfolio = PortfolioSolver::new().with_parallelism(4);
        let result = portfolio.solve_with(&sat_formula(), None, Some("enumeration"));
        assert!(result.answer.is_sat());
        let names: Vec<_> = result.reports.iter().map(|r| r.name).collect();
        assert!(names.contains(&"enumeration"));
        assert!(names.contains(&"cdcl-pos"));
        assert_eq!(names.len(), 2);
        // unknown hints fall back to the full portfolio
        let full = portfolio.solve_with(&sat_formula(), None, Some("no-such-strategy"));
        assert_eq!(full.reports.len(), 4);
    }

    /// A strategy that panics unconditionally — the stand-in for an
    /// injected lane crash (the fault injector panics at exactly this kind
    /// of point, nondeterministically; this pins the deterministic worst
    /// case where a whole lane dies).
    struct PanickingStrategy;

    impl Strategy for PanickingStrategy {
        fn name(&self) -> &'static str {
            "panicky"
        }

        fn solve(&self, _formula: &StringFormula, _cancel: &CancelToken) -> Answer {
            panic!("lane blew up mid-solve");
        }
    }

    /// The production lane under a name the sequential ranking does not
    /// list, so the single-core schedule rotates it *after* the test lane
    /// placed before it (the ranked `cdcl-pos` would always go first).
    struct Unranked(CdclPosStrategy);

    impl Strategy for Unranked {
        fn name(&self) -> &'static str {
            "unranked-cdcl-pos"
        }

        fn solve(&self, formula: &StringFormula, cancel: &CancelToken) -> Answer {
            self.0.solve(formula, cancel)
        }
    }

    #[test]
    fn crashed_lane_loses_but_the_race_still_answers() {
        let crashes_before = OBS_LANE_CRASHES.value();
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(PanickingStrategy),
            Arc::new(CdclPosStrategy::default()),
        ])
        .with_parallelism(2);
        let result = portfolio.solve_with(&unsat_formula(), None, None);
        // the surviving lane's validated answer is returned …
        assert!(result.answer.is_unsat(), "got {:?}", result.answer);
        assert_eq!(result.winner, Some("cdcl-pos"));
        // … and the crash is visible, not swallowed
        let crashed = result.reports.iter().find(|r| r.name == "panicky").unwrap();
        match &crashed.outcome {
            StrategyOutcome::Crashed { message, .. } => {
                assert!(message.contains("lane blew up"), "message: {message}");
            }
            other => panic!("expected a crash record, got {other:?}"),
        }
        assert!(OBS_LANE_CRASHES.value() > crashes_before);

        // same isolation policy on the single-core schedule
        let sequential = PortfolioSolver::with_strategies(vec![
            Arc::new(PanickingStrategy),
            Arc::new(Unranked(CdclPosStrategy::default())),
        ])
        .with_parallelism(1);
        let result = sequential.solve_with(&unsat_formula(), None, None);
        assert!(result.answer.is_unsat(), "got {:?}", result.answer);
        assert!(result
            .reports
            .iter()
            .any(|r| matches!(r.outcome, StrategyOutcome::Crashed { .. })));
    }

    #[test]
    fn unvalidated_sat_cannot_win() {
        /// Always answers `Sat` with an empty model, which validates only on
        /// formulas satisfied by the all-ε assignment.
        struct LiarStrategy;
        impl Strategy for LiarStrategy {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn solve(&self, _formula: &StringFormula, _cancel: &CancelToken) -> Answer {
                Answer::Sat(posr_core::solver::StringModel::default())
            }
        }
        // x must be non-empty, so the liar's ε-model does not validate
        let formula = StringFormula::new().in_re("x", "(ab)+");
        let portfolio = PortfolioSolver::with_strategies(vec![
            Arc::new(LiarStrategy),
            Arc::new(CdclPosStrategy::default()),
        ])
        .with_parallelism(2);
        let result = portfolio.solve_with(&formula, None, None);
        match &result.answer {
            Answer::Sat(model) => {
                assert!(model.satisfies(&formula));
                assert_eq!(result.winner, Some("cdcl-pos"));
            }
            other => panic!("expected sat from cdcl-pos, got {other:?}"),
        }
        // the sequential schedule applies the same validation policy
        let sequential = PortfolioSolver::with_strategies(vec![
            Arc::new(LiarStrategy),
            Arc::new(Unranked(CdclPosStrategy::default())),
        ])
        .with_parallelism(1);
        let result = sequential.solve_with(&formula, None, None);
        match &result.answer {
            Answer::Sat(model) => {
                assert!(model.satisfies(&formula));
                assert_eq!(result.winner, Some("unranked-cdcl-pos"));
            }
            other => panic!("expected sat from the unranked lane, got {other:?}"),
        }
    }
}
