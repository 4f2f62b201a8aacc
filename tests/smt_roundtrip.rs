//! Integration of the SMT-LIB front end with the solver: parse scripts,
//! solve them, and validate the models against the parsed formula — plus
//! incremental command streams (`push`/`pop`, multiple `check-sat`)
//! through `run_script`, cross-checked against one-shot solves of the
//! equivalent flattened formulas.

use posr_core::solver::StringSolver;
use posr_smtfmt::{parse_script, run_script, CommandResponse};

fn solve_script(script: &str) -> posr_core::Answer {
    let parsed = parse_script(script).expect("script must parse");
    StringSolver::new().solve(&parsed.formula)
}

#[test]
fn sat_script_with_model_validation() {
    let script = r#"
      (declare-const x String)
      (declare-const y String)
      (assert (str.in_re x (re.+ (str.to_re "ab"))))
      (assert (str.in_re y (re.+ (str.to_re "ba"))))
      (assert (not (= x y)))
      (check-sat)
    "#;
    let parsed = parse_script(script).unwrap();
    match StringSolver::new().solve(&parsed.formula) {
        posr_core::Answer::Sat(model) => assert!(model.satisfies(&parsed.formula)),
        other => panic!("expected sat, got {other:?}"),
    }
}

#[test]
fn unsat_script() {
    let script = r#"
      (declare-const x String)
      (assert (str.in_re x (str.to_re "ab")))
      (assert (not (= x "ab")))
      (check-sat)
    "#;
    assert!(solve_script(script).is_unsat());
}

#[test]
fn not_contains_script() {
    let script = r#"
      (declare-const x String)
      (assert (str.in_re x (re.* (str.to_re "ab"))))
      (assert (not (str.contains (str.++ x x) x)))
      (check-sat)
    "#;
    assert!(solve_script(script).is_unsat());
}

#[test]
fn push_pop_script_flips_sat_to_unsat_and_recovers() {
    // the second check-sat flips sat → unsat after a pushed disequality
    // (two (ab)* words of equal length are necessarily equal) and the pop
    // recovers sat
    let script = r#"
      (declare-const x String)
      (declare-const y String)
      (assert (str.in_re x (re.* (str.to_re "ab"))))
      (assert (str.in_re y (re.* (str.to_re "ab"))))
      (assert (= (str.len x) (str.len y)))
      (check-sat)
      (push 1)
      (assert (not (= x y)))
      (check-sat)
      (pop 1)
      (check-sat)
    "#;
    let outcome = run_script(script).unwrap();
    assert_eq!(outcome.statuses(), ["sat", "unsat", "sat"]);
}

#[test]
fn per_command_answers_match_one_shot_solves_of_flattened_formulas() {
    let prefix = r#"
      (declare-const x String)
      (declare-const y String)
      (assert (str.in_re x (re.+ (str.to_re "ab"))))
      (assert (str.in_re y (re.+ (str.to_re "ba"))))
    "#;
    let pushed = r#"(assert (not (= x y)))"#;
    let script =
        format!("{prefix}(check-sat)\n(push 1)\n{pushed}\n(check-sat)\n(pop 1)\n(check-sat)");
    let outcome = run_script(&script).unwrap();

    // one-shot solves of the equivalent flattened conjunctions
    let flat_base = parse_script(&format!("{prefix}(check-sat)")).unwrap();
    let flat_pushed = parse_script(&format!("{prefix}{pushed}\n(check-sat)")).unwrap();
    let expect = [
        StringSolver::new().solve(&flat_base.formula),
        StringSolver::new().solve(&flat_pushed.formula),
        StringSolver::new().solve(&flat_base.formula),
    ];
    let statuses = outcome.statuses();
    for (i, answer) in expect.iter().enumerate() {
        assert_eq!(
            statuses[i],
            posr_core::solver::answer_status(answer),
            "command {i} disagrees with the flattened one-shot solve"
        );
    }
}

#[test]
fn nested_frames_and_models_across_checks() {
    let script = r#"
      (declare-const x String)
      (declare-const n Int)
      (assert (str.in_re x (re.* (str.to_re "abc"))))
      (push 1)
      (assert (= (str.len x) n))
      (assert (>= n 3))
      (push 1)
      (assert (<= n 3))
      (check-sat)
      (get-model)
      (pop 2)
      (check-sat)
    "#;
    let outcome = run_script(script).unwrap();
    assert_eq!(outcome.statuses(), ["sat", "sat"]);
    match &outcome.responses[1] {
        CommandResponse::Model(Some(model)) => {
            assert_eq!(model.string("x"), "abc");
            assert_eq!(model.int("n"), 3);
        }
        other => panic!("expected the |x| = n = 3 model, got {other:?}"),
    }
}

#[test]
fn length_script() {
    let script = r#"
      (declare-const x String)
      (declare-const n Int)
      (assert (str.in_re x (re.* (str.to_re "abc"))))
      (assert (= (str.len x) n))
      (assert (>= n 5))
      (assert (<= n 7))
      (check-sat)
    "#;
    match solve_script(script) {
        posr_core::Answer::Sat(model) => assert_eq!(model.string("x").len(), 6),
        other => panic!("expected sat, got {other:?}"),
    }
}

/// The value `x` takes in the model of a script expected to be sat.
fn sat_value_of_x(script: &str) -> String {
    match solve_script(script) {
        posr_core::Answer::Sat(model) => model.string("x").to_string(),
        other => panic!("expected sat, got {other:?}"),
    }
}

#[test]
fn empty_string_regex_accepts_the_empty_word() {
    let script = r#"
      (declare-const x String)
      (assert (str.in_re x (str.to_re "")))
      (assert (= (str.len x) 0))
      (check-sat)
    "#;
    assert_eq!(sat_value_of_x(script), "");
}

#[test]
fn empty_string_inside_a_union_is_epsilon() {
    let script = r#"
      (declare-const x String)
      (assert (str.in_re x (re.++ (str.to_re "a") (re.union (str.to_re "") (str.to_re "b")))))
      (assert (= (str.len x) 1))
      (check-sat)
    "#;
    assert_eq!(sat_value_of_x(script), "a");
}

#[test]
fn regex_metacharacters_in_string_literals_are_literal() {
    // the only word of (str.to_re "a*") is the two-character string "a*"
    let script = r#"
      (declare-const x String)
      (assert (str.in_re x (str.to_re "a*")))
      (assert (= (str.len x) 2))
      (check-sat)
    "#;
    assert_eq!(sat_value_of_x(script), "a*");
    let too_long = r#"
      (declare-const x String)
      (assert (str.in_re x (str.to_re "a*")))
      (assert (= (str.len x) 3))
      (check-sat)
    "#;
    assert!(solve_script(too_long).is_unsat());
}
