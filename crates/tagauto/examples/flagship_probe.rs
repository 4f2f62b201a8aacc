//! Quick probe: flagship loopy unsat instance under the CDCL(T) engine and
//! the structural DPLL(T) oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use posr_automata::Regex;
use posr_lia::cancel::CancelToken;
use posr_lia::formula::Formula;
use posr_lia::oracle::{structural_solve, MAX_DECISIONS};
use posr_lia::solver::{Solver, SolverResult};
use posr_lia::term::VarPool;
use posr_tagauto::system::{PositionConstraint, SystemEncoder};
use posr_tagauto::tags::VarTable;

fn main() {
    if std::env::args().nth(1).as_deref() == Some("sat") {
        sat_probe();
        return;
    }
    let mut vars = VarTable::new();
    let mut automata = BTreeMap::new();
    let x = vars.intern("x");
    let y = vars.intern("y");
    automata.insert(x, Regex::parse("(ab)*").unwrap().compile());
    automata.insert(y, Regex::parse("(ab)*").unwrap().compile());
    let encoder = SystemEncoder::new(&automata, &vars);
    let mut pool = VarPool::new();
    let encoding = encoder.encode(&[PositionConstraint::diseq(vec![x], vec![y])], &mut pool);
    let extra = Formula::and(vec![Formula::eq(
        encoding.length_of(x),
        encoding.length_of(y),
    )]);
    let formula = Formula::and(vec![encoding.formula.clone(), extra]);
    eprintln!(
        "formula size {} atoms {}",
        formula.size(),
        formula.num_atoms()
    );
    let start = Instant::now();
    let result = Solver::new().solve(&formula);
    println!("Cdcl: {:?} in {:?}", status(result), start.elapsed());
    let start = Instant::now();
    let result = structural_solve(&formula, MAX_DECISIONS, &CancelToken::none());
    println!("Structural: {:?} in {:?}", status(result), start.elapsed());
}

fn status(result: SolverResult) -> String {
    match result {
        SolverResult::Sat(_) => "sat".to_string(),
        SolverResult::Unsat => "unsat".to_string(),
        SolverResult::Unknown(r) => format!("unknown: {r}"),
    }
}

fn sat_probe() {
    let mut vars = VarTable::new();
    let mut automata = BTreeMap::new();
    let x = vars.intern("x");
    let y = vars.intern("y");
    automata.insert(x, Regex::parse("(ab)*").unwrap().compile());
    automata.insert(y, Regex::parse("(ac)*").unwrap().compile());
    let encoder = SystemEncoder::new(&automata, &vars);
    let mut pool = VarPool::new();
    let encoding = encoder.encode(&[PositionConstraint::diseq(vec![x], vec![y])], &mut pool);
    let formula = encoding.formula.clone();
    eprintln!(
        "sat probe: formula size {} atoms {}",
        formula.size(),
        formula.num_atoms()
    );
    let start = Instant::now();
    let result = Solver::new().solve(&formula);
    eprintln!("Cdcl: {:?} in {:?}", status(result), start.elapsed());
}
