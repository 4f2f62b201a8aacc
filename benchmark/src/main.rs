//! The repository benchmark: one closed-loop client driving the posr
//! library over a seeded workload, checking every verdict, and printing
//! the end-to-end metrics (or, with `--trace 1`, the per-layer metrics)
//! as one JSON line.
//!
//! ```text
//! posr-e2e-bench --workload <table1|smt-session>
//!                --seed <n> --seconds <s> --trace <0|1>
//! posr-e2e-bench --write-expected      # regenerates expected.tsv
//! ```
//!
//! One client sends one query at a time and waits for its answer, the
//! way a symbolic executor waits on its solver; the queries run on a
//! solver thread of their own.  A run makes whole passes
//! over the workload's query set until `--seconds` have elapsed.  A query
//! that has not returned two seconds after its deadline (the solver's
//! hang bound) is counted as overdue and left behind: its threads keep
//! running, and competing for the cores, until the process exits.

mod expected;
mod queries;
mod smt;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use posr_core::ast::{LenCmp, StringAtom, StringFormula};
use posr_core::solver::{Answer, SolverOptions, StringSolver};
use posr_core::{monadic, normal, SolverSession};
use posr_lia::formula::Formula;
use posr_lia::{LinExpr, SolverConfig, SolverResult, VarPool};
use posr_portfolio::{PortfolioSolver, StrategyOutcome};
use posr_smtfmt::{parse_commands, Command};
use posr_tagauto::system::{PositionConstraint, SystemEncoder};
use posr_tagauto::tags::VarTable;
use rand::prelude::*;

use expected::Verdict;
use queries::Query;
use trace::{Recorder, Span};

/// Per-query deadline of the Table-1 shaped workloads.
const DEADLINE: Duration = Duration::from_secs(2);
/// Per-query deadline of the product-cycle sweep (its queries take 1–7 s).
const CYCLE_DEADLINE: Duration = Duration::from_secs(20);
/// How long past its deadline a query may run before it counts as hung.
const HANG_BOUND: Duration = Duration::from_secs(2);
/// Set-up is repeated at least this often, and for at least
/// [`SETUP_SPAN`], and its fastest time reported.
const SETUP_REPEATS: usize = 51;
/// On a shared machine identical set-ups run about 1.5 times slower in
/// stretches of a fraction of a second to several seconds; two seconds
/// of repeats nearly always include a fast stretch, so the fastest
/// repeat moves with the work and not with the neighbours' load.
const SETUP_SPAN: Duration = Duration::from_secs(2);
/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 35] = [
    ("smtfmt.parse_ms", "ms"),
    ("smtfmt.bytes", "bytes"),
    ("core.normal.busy_ms", "ms"),
    ("core.normal.position_atoms", "count"),
    ("core.monadic.busy_ms", "ms"),
    ("core.monadic.cases", "count"),
    ("core.solver.self_ms", "ms"),
    ("core.session.check_ms", "ms"),
    ("automata.cache.hits", "count"),
    ("automata.cache.misses", "count"),
    ("automata.cache.hit_ratio", "share"),
    ("tagauto.encode_ms", "ms"),
    ("tagauto.levels", "count"),
    ("tagauto.ta_states", "count"),
    ("tagauto.ta_transitions", "count"),
    ("lia.solve_ms", "ms"),
    ("lia.cut_rounds", "count"),
    ("lia.conflicts", "count"),
    ("lia.decisions", "count"),
    ("lia.propagations", "count"),
    ("lia.theory_checks", "count"),
    ("lia.simplex_pivots", "count"),
    ("lia.row_touches", "count"),
    ("lia.ms_per_conflict", "ms"),
    ("lia.touches_per_pivot", "ratio"),
    ("portfolio.lane_busy_ms", "ms"),
    ("portfolio.useful_ratio", "share"),
    ("portfolio.shutdown_ms", "ms"),
    ("portfolio.wins.cdcl-pos", "count"),
    ("portfolio.wins.tag-pos", "count"),
    ("portfolio.wins.enumeration", "count"),
    ("portfolio.wins.naive-order", "count"),
    ("portfolio.wins.length-abstraction", "count"),
    ("portfolio.crashes", "count"),
    ("trace.overhead_ratio", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Table1,
    SmtSession,
    ProductCycle,
    Race,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "table1" => Workload::Table1,
            "smt-session" => Workload::SmtSession,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::SmtSession => "smt-session",
            Workload::ProductCycle => "product-cycle",
            Workload::Race => "race",
        }
    }

    fn base(self) -> Vec<Query> {
        match self {
            Workload::ProductCycle => queries::product_cycle(),
            _ => queries::table1(),
        }
    }

    /// Query sets the traced run of this workload also makes one traced
    /// pass over, so that its per-layer metrics cover the tag encoding and
    /// LIA layers called directly (`product-cycle`) and the portfolio
    /// (`race`).  Those two are not benchmark workloads: on a shared
    /// 2-core machine their latencies spread between seeds by up to 0.31
    /// (`product-cycle`, all CPU) and 0.48 (`race`, whose tail queries are
    /// won by different lanes from run to run), past the largest bound a
    /// metric may have.
    fn trace_probes(self) -> Vec<Workload> {
        match self {
            Workload::Table1 => vec![Workload::ProductCycle, Workload::Race],
            _ => Vec::new(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
    })
}

/// One query as sent: the renamed formula, its checks (one per position
/// constraint for a session, else the formula itself) and its SMT-LIB
/// text (the session script, or the flat script the traced run parses).
struct Input {
    id: String,
    formula: StringFormula,
    checks: Vec<(String, StringFormula)>,
    script: String,
}

/// The generated inputs, in pass order.
struct Inputs {
    items: Vec<Arc<Input>>,
}

fn set_up(workload: Workload, seed: u64) -> Inputs {
    let base = workload.base();
    let mut rng = StdRng::seed_from_u64(seed);
    let order = queries::balanced_order(&base);
    let items = order
        .into_iter()
        .map(|i| {
            let q = &base[i];
            let renaming = queries::Renaming::draw(&q.formula, &mut rng);
            let formula = renaming.apply(&q.formula);
            let (checks, script) = if workload == Workload::SmtSession {
                let checks = queries::session_checks(&formula)
                    .into_iter()
                    .enumerate()
                    .map(|(k, f)| (format!("{}/{k}", q.id), f))
                    .collect();
                (checks, smt::session_script(&formula))
            } else {
                (
                    vec![(q.id.clone(), formula.clone())],
                    smt::flat_script(&formula),
                )
            };
            Arc::new(Input {
                id: q.id.clone(),
                formula,
                checks,
                script,
            })
        })
        .collect();
    Inputs { items }
}

impl Inputs {
    /// FNV-1a over every generated input, so two runs can show they got
    /// the same ones.
    fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for item in &self.items {
            let text = format!("{:?}{:?}{}", item.formula, item.checks, item.script);
            for byte in text.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

/// What one query produced.
#[derive(Default)]
struct Done {
    /// One answer per check, in check order.
    answers: Vec<Answer>,
    /// Verdicts of direct LIA-layer calls, checked like answers.
    lia_verdicts: Vec<Verdict>,
    /// Wall time of the call(s), measured on the solving thread.
    latency: Duration,
    spans: Vec<Span>,
    layers: BTreeMap<&'static str, f64>,
}

impl Done {
    fn add(&mut self, key: &'static str, value: f64) {
        *self.layers.entry(key).or_default() += value;
    }

    fn decided(&self) -> bool {
        !self.answers.is_empty() && self.answers.iter().all(|a| !a.is_unknown())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The deadline budget a query gets, which with [`HANG_BOUND`] sets when
/// the client gives up waiting.
fn budget(workload: Workload, input: &Input) -> Duration {
    match workload {
        Workload::SmtSession => DEADLINE * input.checks.len() as u32,
        // only traced, and the traced query also solves through the layer
        // calls
        Workload::ProductCycle => CYCLE_DEADLINE * 2,
        Workload::Table1 | Workload::Race => DEADLINE,
    }
}

fn options(deadline: Duration) -> SolverOptions {
    SolverOptions {
        deadline: Some(Instant::now() + deadline),
        ..SolverOptions::default()
    }
}

/// One untraced query through the workload's entry point.
fn run_plain(workload: Workload, input: &Input) -> Done {
    let start = Instant::now();
    let answers = match workload {
        Workload::Table1 => {
            vec![StringSolver::with_options(options(DEADLINE)).solve(&input.formula)]
        }
        Workload::ProductCycle | Workload::Race => unreachable!("only traced"),
        Workload::SmtSession => {
            let opts = options(budget(workload, input));
            match posr_smtfmt::run_script_with_options(&input.script, opts) {
                Ok(outcome) => outcome.checks().into_iter().cloned().collect(),
                Err(e) => panic!("rendered script {} failed to run: {e}", input.id),
            }
        }
    };
    Done {
        answers,
        latency: start.elapsed(),
        ..Done::default()
    }
}

fn lia_delta(done: &mut Done, before: &posr_lia::SolverStats) -> posr_lia::SolverStats {
    let d = posr_lia::global_stats().since(before);
    done.add("lia.conflicts", d.conflicts as f64);
    done.add("lia.decisions", d.decisions as f64);
    done.add("lia.propagations", d.propagations as f64);
    done.add(
        "lia.theory_checks",
        (d.bound_checks + d.simplex_checks + d.final_checks) as f64,
    );
    done.add("lia.simplex_pivots", d.simplex_pivots as f64);
    done.add("lia.row_touches", d.row_touches as f64);
    d
}

/// Front-end calls every traced query makes: parse its SMT-LIB text,
/// normalise and decompose it.
fn trace_front_end(rec: &mut Recorder, done: &mut Done, formula: &StringFormula, text: &str) {
    let (parsed, t) = rec.span("smtfmt.parse", |_| parse_commands(text));
    parsed.expect("rendered scripts parse");
    done.add("smtfmt.parse_ms", ms(t));
    done.add("smtfmt.bytes", text.len() as f64);
    trace_normal_monadic(rec, done, formula);
}

fn trace_normal_monadic(rec: &mut Recorder, done: &mut Done, formula: &StringFormula) {
    let (nf, t) = rec.span("core.normal", |_| normal::normalize(formula));
    done.add("core.normal.busy_ms", ms(t));
    if let Ok(nf) = nf {
        done.add("core.normal.position_atoms", nf.positions.len() as f64);
        let (cases, t) = rec.span("core.monadic", |_| {
            monadic::decompose(&nf, monadic::DEFAULT_CASE_LIMIT)
        });
        done.add("core.monadic.busy_ms", ms(t));
        done.add("core.monadic.cases", cases.map_or(0, |c| c.len()) as f64);
    }
}

/// The cycle pair of a product-cycle query: the two variables, their
/// regexes and the cap, if any.
fn cycle_parts(formula: &StringFormula) -> (Vec<(&str, &str)>, Option<i64>) {
    let vars = formula
        .atoms
        .iter()
        .filter_map(|a| match a {
            StringAtom::InRe { var, regex, .. } => Some((var.as_str(), regex.as_str())),
            _ => None,
        })
        .collect();
    let cap = formula.atoms.iter().find_map(|a| match a {
        StringAtom::Length {
            cmp: LenCmp::Lt,
            rhs,
            ..
        } => Some(rhs.constant),
        _ => None,
    });
    (vars, cap)
}

/// Encodes the cycle pair with the tag automaton and solves it with the
/// connectivity-cut loop, as direct calls into `posr-tagauto` and
/// `posr-lia`.
fn trace_cycle_layers(rec: &mut Recorder, done: &mut Done, formula: &StringFormula) {
    let (pair, cap) = cycle_parts(formula);
    let mut vars = VarTable::new();
    let mut automata = BTreeMap::new();
    let ids: Vec<_> = pair
        .iter()
        .map(|(name, regex)| {
            let v = vars.intern(name);
            let nfa = posr_automata::Regex::parse(regex)
                .expect("cycle regexes parse")
                .compile();
            automata.insert(v, nfa);
            v
        })
        .collect();
    let constraints = [PositionConstraint::diseq(vec![ids[0]], vec![ids[1]])];
    let mut pool = VarPool::new();
    let (encoding, t) = rec.span("tagauto.encode", |_| {
        SystemEncoder::new(&automata, &vars).encode(&constraints, &mut pool)
    });
    done.add("tagauto.encode_ms", ms(t));
    done.add("tagauto.levels", encoding.levels as f64);
    done.add("tagauto.ta_states", encoding.ta.num_states() as f64);
    done.add(
        "tagauto.ta_transitions",
        encoding.ta.num_transitions() as f64,
    );
    let mut extra = vec![Formula::eq(
        encoding.length_of(ids[0]),
        encoding.length_of(ids[1]),
    )];
    if let Some(cap) = cap {
        extra.push(Formula::lt(
            encoding.length_of(ids[0]),
            LinExpr::constant(cap.into()),
        ));
    }
    let config = SolverConfig {
        cancel: posr_lia::CancelToken::with_deadline(Instant::now() + CYCLE_DEADLINE),
        ..SolverConfig::default()
    };
    let before = posr_lia::global_stats();
    let (report, t) = rec.span("lia.solve", |_| {
        encoding.solve_with_cuts(&Formula::and(extra), &config, 64)
    });
    let d = lia_delta(done, &before);
    // lia.solve_ms times only these calls, so lia.ms_per_conflict divides
    // by their conflicts alone
    done.add("lia.solve_conflicts", d.conflicts as f64);
    done.add("lia.solve_ms", ms(t));
    done.add("lia.cut_rounds", report.rounds as f64);
    done.lia_verdicts.push(match report.result {
        SolverResult::Sat(_) => Verdict::Sat,
        SolverResult::Unsat => Verdict::Unsat,
        SolverResult::Unknown(_) => Verdict::Unknown,
    });
}

/// One traced query: spans around the benchmark's calls into each layer.
fn run_traced(workload: Workload, input: &Input, epoch: Instant, index: usize) -> Done {
    let mut done = Done::default();
    let cache_before = posr_automata::cache::stats();
    let mut rec = Recorder::new(epoch, index);
    let start = Instant::now();
    rec.span("query", |rec| match workload {
        Workload::Table1 | Workload::ProductCycle => {
            let deadline = if workload == Workload::Table1 {
                DEADLINE
            } else {
                CYCLE_DEADLINE
            };
            trace_front_end(rec, &mut done, &input.formula, &input.script);
            let before = posr_lia::global_stats();
            let (answer, t) = rec.span("core.solver", |_| {
                StringSolver::with_options(options(deadline)).solve(&input.formula)
            });
            if workload == Workload::Table1 {
                lia_delta(&mut done, &before);
            }
            done.add("core.solver.busy_ms", ms(t));
            done.answers.push(answer);
            if workload == Workload::ProductCycle {
                trace_cycle_layers(rec, &mut done, &input.formula);
            }
        }
        Workload::SmtSession => {
            let (parsed, t) = rec.span("smtfmt.parse", |_| parse_commands(&input.script));
            done.add("smtfmt.parse_ms", ms(t));
            done.add("smtfmt.bytes", input.script.len() as f64);
            let parsed = parsed.expect("rendered scripts parse");
            let mut session = SolverSession::with_options(options(budget(workload, input)));
            for command in parsed.commands {
                match command {
                    Command::Assert { atoms, name } => {
                        for atom in atoms {
                            session.assert_named(atom, name.clone());
                        }
                    }
                    Command::Push(n) => session.push(n),
                    Command::Pop(n) => {
                        assert!(session.pop(n), "rendered scripts pop what they push");
                    }
                    Command::CheckSat => {
                        trace_normal_monadic(rec, &mut done, &session.assertions());
                        let before = posr_lia::global_stats();
                        let (answer, _) = rec.span("core.session", |_| session.check_sat());
                        lia_delta(&mut done, &before);
                        done.answers.push(answer);
                    }
                    _ => {}
                }
            }
            done.add("core.session.check_ms", ms(session.check_time()));
            done.add("core.solver.busy_ms", ms(session.check_time()));
        }
        Workload::Race => {
            trace_front_end(rec, &mut done, &input.formula, &input.script);
            let (result, _) = rec.span("portfolio.race", |_| {
                PortfolioSolver::new().solve_with(&input.formula, Some(DEADLINE), None)
            });
            let busy: f64 = result.reports.iter().map(|r| ms(r.elapsed)).sum();
            done.add("portfolio.lane_busy_ms", busy);
            for report in &result.reports {
                match &report.outcome {
                    StrategyOutcome::Won => {
                        done.add("portfolio.winner_ms", ms(report.elapsed));
                        done.add(
                            "portfolio.shutdown_ms",
                            ms(result.elapsed.saturating_sub(report.elapsed)),
                        );
                        let key = PER_LAYER
                            .iter()
                            .map(|(k, _)| *k)
                            .find(|k| k.strip_prefix("portfolio.wins.") == Some(report.name));
                        if let Some(key) = key {
                            done.add(key, 1.0);
                        }
                    }
                    StrategyOutcome::Crashed { .. } => done.add("portfolio.crashes", 1.0),
                    _ => {}
                }
            }
            done.answers.push(result.answer);
        }
    });
    done.latency = start.elapsed();
    let cache = posr_automata::cache::stats().since(cache_before);
    done.add("automata.cache.hits", cache.hits as f64);
    done.add("automata.cache.misses", cache.misses as f64);
    done.spans = rec.finish();
    done
}

type Job = Box<dyn FnOnce() -> Done + Send>;

/// A thread the client hands its queries to, so it can stop waiting on
/// a hung query without stopping itself.
struct Worker {
    jobs: mpsc::Sender<Job>,
    done: mpsc::Receiver<std::thread::Result<Done>>,
    handle: JoinHandle<()>,
}

impl Worker {
    fn spawn() -> Worker {
        let (jobs, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("solver".into())
            // the solver recurses over regex and formula trees
            .stack_size(64 << 20)
            .spawn(move || {
                for job in job_rx {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    if done_tx.send(result).is_err() {
                        break;
                    }
                }
            })
            .expect("spawning the solver thread");
        Worker { jobs, done, handle }
    }

    /// Joins the thread (it exits once its job channel closes).
    fn finish(self) {
        drop(self.jobs);
        if let Err(panic) = self.handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// How a query ended, from the client's side.
enum Outcome {
    Returned(Done),
    Panicked,
    Overdue,
}

/// Tallies of one measured stretch.
#[derive(Default)]
struct Tally {
    queries: usize,
    attempted: usize,
    decided: usize,
    overdue: usize,
    failed: usize,
    /// Time to verdict of each decided query.
    latencies_ms: Vec<f64>,
    /// The tail of each pass.
    tails: Vec<stats::Tail>,
    wall: Duration,
    passes: usize,
    layers: BTreeMap<&'static str, f64>,
    /// The spans of each returned traced query.
    spans: Vec<Vec<Span>>,
    /// The id of every query sent, by query number.
    ids: Vec<String>,
    /// The ids of the queries that returned undecided or not at all.
    undecided: Vec<String>,
}

/// Checks every answer of a returned query against the model re-check
/// and the expected-verdict table; `Err` names the first violation.
fn check(
    input: &Input,
    done: &Done,
    table: &BTreeMap<String, expected::Entry>,
) -> Result<(), String> {
    if done.answers.len() != input.checks.len() {
        return Err(format!(
            "{}: {} answers for {} checks",
            input.id,
            done.answers.len(),
            input.checks.len()
        ));
    }
    let direct = done
        .lia_verdicts
        .iter()
        .map(|v| (&input.checks[0].0, *v, None));
    let answers = input
        .checks
        .iter()
        .zip(&done.answers)
        .map(|((id, formula), answer)| {
            let verdict = match answer {
                Answer::Sat(_) => Verdict::Sat,
                Answer::Unsat => Verdict::Unsat,
                Answer::Unknown(_) => Verdict::Unknown,
            };
            (id, verdict, answer.model().map(|m| (m, formula)))
        });
    for (id, verdict, model) in answers.chain(direct) {
        if let Some((model, formula)) = model {
            if !formula.eval(model.strings(), model.ints()) {
                return Err(format!("{id}: sat model fails the re-check: {model:?}"));
            }
        }
        let entry = table
            .get(id)
            .ok_or_else(|| format!("{id}: no expected verdict"))?;
        let contradicts = matches!(
            (verdict, entry.verdict),
            (Verdict::Sat, Verdict::Unsat) | (Verdict::Unsat, Verdict::Sat)
        );
        if contradicts {
            return Err(format!(
                "{id}: answered {verdict:?}, expected {:?} ({})",
                entry.verdict, entry.justification
            ));
        }
    }
    Ok(())
}

struct Client {
    workload: Workload,
    worker: Worker,
    /// Workers left behind on hung queries; never joined (see the crate
    /// docs), they end with the process.
    abandoned: Vec<Worker>,
    table: BTreeMap<String, expected::Entry>,
    epoch: Instant,
}

impl Client {
    fn send(&mut self, input: &Arc<Input>, traced: bool, index: usize) -> Outcome {
        let workload = self.workload;
        let epoch = self.epoch;
        let job_input = Arc::clone(input);
        let job: Job = Box::new(move || {
            if traced {
                run_traced(workload, &job_input, epoch, index)
            } else {
                run_plain(workload, &job_input)
            }
        });
        self.worker.jobs.send(job).expect("solver thread alive");
        let wait = budget(workload, input) + HANG_BOUND;
        match self.worker.done.recv_timeout(wait) {
            Ok(Ok(done)) => Outcome::Returned(done),
            Ok(Err(_)) => Outcome::Panicked,
            Err(_) => {
                let hung = std::mem::replace(&mut self.worker, Worker::spawn());
                self.abandoned.push(hung);
                Outcome::Overdue
            }
        }
    }

    /// Runs whole passes until `min` has elapsed (`None`: exactly one
    /// pass).  Aborts the process on a wrong answer.
    fn measure(&mut self, inputs: &Inputs, min: Option<Duration>, traced: bool) -> Tally {
        let mut tally = Tally::default();
        let start = Instant::now();
        loop {
            let first = tally.latencies_ms.len();
            for input in &inputs.items {
                let index = tally.queries;
                tally.queries += 1;
                tally.ids.push(input.id.clone());
                tally.attempted += input.checks.len();
                match self.send(input, traced, index) {
                    Outcome::Returned(done) => {
                        if let Err(message) = check(input, &done, &self.table) {
                            abort(&message, &tally);
                        }
                        let decided = done.answers.iter().filter(|a| !a.is_unknown()).count();
                        tally.decided += decided;
                        if done.decided() {
                            // time to a verdict: queries that gave up or hung
                            // count in decided_share and on_time_share instead
                            tally.latencies_ms.push(ms(done.latency));
                            for (k, v) in &done.layers {
                                *tally.layers.entry(k).or_default() += v;
                            }
                        } else {
                            tally.undecided.push(input.id.clone());
                            // races report on every lane, decided or not
                            for (k, v) in done
                                .layers
                                .iter()
                                .filter(|(k, _)| k.starts_with("portfolio."))
                            {
                                *tally.layers.entry(k).or_default() += v;
                            }
                        }
                        if traced {
                            tally.spans.push(done.spans);
                        }
                    }
                    Outcome::Panicked => tally.failed += 1,
                    Outcome::Overdue => {
                        tally.overdue += input.checks.len();
                        tally.undecided.push(format!("{} (overdue)", input.id));
                    }
                }
            }
            tally.passes += 1;
            tally
                .tails
                .extend(stats::tail(&tally.latencies_ms[first..], TAIL_BEYOND));
            if min.is_none_or(|m| start.elapsed() >= m) {
                break;
            }
        }
        tally.wall = start.elapsed();
        tally
    }
}

fn abort(message: &str, tally: &Tally) -> ! {
    eprintln!("wrong answer: {message}");
    println!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    std::process::exit(1);
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line of a run whose answers all passed the checks.
fn json_line(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn decided_per_s(t: &Tally) -> f64 {
    ratio(t.decided as f64, t.wall.as_secs_f64())
}

/// The median over passes of each pass's tail: every pass has the same
/// queries, so its tail is taken at the same level, whatever number of
/// passes fits in the run.
fn tail_ms(t: &Tally) -> f64 {
    let values: Vec<f64> = t.tails.iter().map(|t| t.value).collect();
    stats::median(&values).unwrap_or(0.0)
}

fn end_to_end(t: &Tally, setup: f64) -> Vec<(&'static str, f64, &'static str)> {
    let p50 = stats::median(&t.latencies_ms).unwrap_or(0.0);
    vec![
        (
            "decided_share",
            ratio(t.decided as f64, t.attempted as f64),
            "share",
        ),
        ("decided_per_s", decided_per_s(t), "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_tail_ms", tail_ms(t), "ms"),
        (
            "on_time_share",
            1.0 - ratio(t.overdue as f64, t.attempted as f64),
            "share",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("setup_s", setup, "s"),
    ]
}

fn per_layer(
    layers: &BTreeMap<&'static str, f64>,
    overhead_ratio: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let l = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let solver_self =
        (l("core.solver.busy_ms") - l("core.normal.busy_ms") - l("core.monadic.busy_ms")).max(0.0);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "core.solver.self_ms" => solver_self,
                "automata.cache.hit_ratio" => ratio(
                    l("automata.cache.hits"),
                    l("automata.cache.hits") + l("automata.cache.misses"),
                ),
                "lia.ms_per_conflict" => ratio(l("lia.solve_ms"), l("lia.solve_conflicts")),
                "lia.touches_per_pivot" => ratio(l("lia.row_touches"), l("lia.simplex_pivots")),
                "portfolio.useful_ratio" => {
                    ratio(l("portfolio.winner_ms"), l("portfolio.lane_busy_ms"))
                }
                "trace.overhead_ratio" => overhead_ratio,
                other => l(other),
            };
            (name, value, unit)
        })
        .collect()
}

fn summary(workload: Workload, seed: u64, t: &Tally) -> String {
    let tail = t.tails.first().map_or("n/a".to_string(), |first| {
        format!(
            "p{} per pass (n = {}), median over passes {:.3} ms",
            first.percentile,
            first.n,
            tail_ms(t)
        )
    });
    format!(
        "{} seed {}: {} passes, {} queries, {}/{} decided in {:.3} s, overdue_share {:.4}, failed {}, tail {}\nundecided: {}",
        workload.name(),
        seed,
        t.passes,
        t.queries,
        t.decided,
        t.attempted,
        t.wall.as_secs_f64(),
        ratio(t.overdue as f64, t.attempted as f64),
        t.failed,
        tail,
        t.undecided.join(" "),
    )
}

/// Writes the Chrome trace and the self-time table under `bench-results/`.
fn write_trace(workload: Workload, seed: u64, t: &Tally) -> std::io::Result<String> {
    let dir = std::path::Path::new("bench-results");
    std::fs::create_dir_all(dir)?;
    let stem = format!("trace-{}-seed{}", workload.name(), seed);
    let table = trace::render_self_times(&trace::self_times(&t.spans));
    std::fs::write(
        dir.join(format!("{stem}.json")),
        trace::chrome_json(&t.spans, &t.ids),
    )?;
    std::fs::write(dir.join(format!("{stem}.selftime.txt")), &table)?;
    Ok(table)
}

/// Prints the summary and the self-time table of a traced pass and
/// writes its trace.
fn report_trace(workload: Workload, seed: u64, t: &Tally) {
    eprintln!("traced: {}", summary(workload, seed, t));
    match write_trace(workload, seed, t) {
        Ok(table) => eprint!("{table}"),
        Err(e) => eprintln!("could not write the trace: {e}"),
    }
}

/// Regenerates `expected.tsv` from the base sets: constructions first,
/// then the solver at a generous deadline, Sat models re-checked.
fn write_expected() {
    println!("# id\tverdict\tjustification (see src/expected.rs)");
    let solve = |f: &StringFormula| {
        let answer = StringSolver::with_options(options(CYCLE_DEADLINE)).solve(f);
        if let Answer::Sat(model) = &answer {
            assert!(
                f.eval(model.strings(), model.ints()),
                "model fails the re-check"
            );
        }
        answer
    };
    let line = |id: &str, f: &StringFormula, construction: Option<&str>| {
        let answer = solve(f);
        let (verdict, why) = match (construction, &answer) {
            (Some(c), Answer::Sat(_)) => panic!("{id}: sat against construction {c}"),
            (Some(c), _) => ("unsat", c),
            (None, Answer::Sat(_)) => ("sat", "model"),
            (None, Answer::Unsat) => ("unsat", "unconfirmed"),
            (None, Answer::Unknown(_)) => ("unknown", "-"),
        };
        println!("{id}\t{verdict}\t{why}");
    };
    for q in queries::table1() {
        line(&q.id, &q.formula, expected::unsat_construction(&q.formula));
        for (k, check) in queries::session_checks(&q.formula).iter().enumerate() {
            line(
                &format!("{}/{k}", q.id),
                check,
                expected::unsat_construction(check),
            );
        }
    }
    for q in queries::product_cycle() {
        let capped = q.id.ends_with("-capped");
        let answer = solve(&q.formula);
        let verdict = if capped {
            "unsat\tcapped-cycles"
        } else {
            "sat\tcycles-meet-at-lcm"
        };
        let contradicts = if capped {
            answer.is_sat()
        } else {
            answer.is_unsat()
        };
        assert!(
            !contradicts,
            "{}: {answer:?} against the construction",
            q.id
        );
        println!("{}\t{verdict}", q.id);
    }
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--write-expected") {
        write_expected();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // set-up: generate the inputs (and render the scripts) several times
    // and report the fastest, so work moved into set-up shows
    let mut setups = Vec::new();
    let mut inputs = set_up(args.workload, args.seed);
    setups.push(start.elapsed().as_secs_f64());
    while setups.len() < SETUP_REPEATS || start.elapsed() < SETUP_SPAN {
        // each repeat starts, like the first, with no inputs alive
        drop(inputs);
        let t = Instant::now();
        inputs = std::hint::black_box(set_up(args.workload, args.seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "set-up: {} times, fastest {:.3} ms, median {:.3} ms",
        setups.len(),
        setup_s * 1e3,
        stats::median(&setups).expect("set-up ran") * 1e3
    );
    eprintln!("inputs fnv64 {:016x}", inputs.digest());

    let mut client = Client {
        workload: args.workload,
        worker: Worker::spawn(),
        abandoned: Vec::new(),
        table: expected::table(),
        epoch: Instant::now(),
    };
    let seconds = Duration::from_secs(args.seconds);
    let plain = client.measure(&inputs, Some(seconds), false);
    eprintln!("{}", summary(args.workload, args.seed, &plain));
    let line = if args.trace {
        let traced = client.measure(&inputs, None, true);
        report_trace(args.workload, args.seed, &traced);
        let overhead = ratio(decided_per_s(&plain), decided_per_s(&traced));
        let (mut attempted, mut failed, mut layers) =
            (traced.attempted, traced.failed, traced.layers);
        for probe in args.workload.trace_probes() {
            client.workload = probe;
            let probe_inputs = set_up(probe, args.seed);
            let t = client.measure(&probe_inputs, None, true);
            report_trace(probe, args.seed, &t);
            attempted += t.attempted;
            failed += t.failed;
            for (k, v) in t.layers {
                *layers.entry(k).or_default() += v;
            }
        }
        json_line(attempted, failed, &per_layer(&layers, overhead))
    } else {
        json_line(plain.attempted, plain.failed, &end_to_end(&plain, setup_s))
    };
    println!("{line}");
    let hung = client.abandoned.len();
    client.worker.finish();
    if hung > 0 {
        eprintln!("{hung} hung queries still running; exiting without them");
    }
    // ends the threads of hung queries along with the process
    std::process::exit(0);
}
