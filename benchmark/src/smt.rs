//! Renders string formulas as incremental SMT-LIB scripts in the subset
//! `posr_smtfmt` parses.

use std::fmt::Write;

use posr_automata::Regex;
use posr_core::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm, TermPart};

use crate::queries::is_position_atom;

fn string_lit(w: &str) -> String {
    format!("\"{}\"", w.replace('"', "\"\""))
}

fn term(t: &StringTerm) -> String {
    let parts: Vec<String> = t
        .parts
        .iter()
        .map(|p| match p {
            TermPart::Var(v) => v.clone(),
            TermPart::Lit(w) => string_lit(w),
        })
        .collect();
    match parts.len() {
        0 => string_lit(""),
        1 => parts.into_iter().next().expect("one part"),
        _ => format!("(str.++ {})", parts.join(" ")),
    }
}

fn len_term(t: &LenTerm) -> String {
    // the parsed subset has no multiplication: a coefficient c is c copies
    let mut parts = Vec::new();
    let terms = t
        .len_coeffs
        .iter()
        .map(|(v, c)| (format!("(str.len {v})"), *c))
        .chain(t.int_coeffs.iter().map(|(v, c)| (v.clone(), *c)));
    for (s, c) in terms {
        assert!(c > 0, "workload length terms have positive coefficients");
        parts.extend(std::iter::repeat_n(s, c as usize));
    }
    if t.constant != 0 || parts.is_empty() {
        parts.push(t.constant.to_string());
    }
    match parts.len() {
        1 => parts.into_iter().next().expect("one part"),
        _ => format!("(+ {})", parts.join(" ")),
    }
}

/// An SMT-LIB regular expression for a posr regex.  Bounded repetition
/// has no counterpart in the parsed subset, so `r{lo,hi}` is unrolled
/// into `lo` copies followed by `hi - lo` nested options.
///
/// # Panics
/// Panics on ε and ∅ and on loops that only match ε: the parser turns
/// `(str.to_re "")` into a membership regex holding the character `ε`,
/// so the workloads must not need them.
pub fn regex(r: &Regex) -> String {
    let lit = |c: char| format!("(str.to_re {})", string_lit(&c.to_string()));
    match r {
        Regex::Empty | Regex::Epsilon | Regex::Repeat(_, 0, Some(0)) => {
            panic!("no SMT-LIB rendering that parses back: {r}")
        }
        Regex::Literal(c) => lit(*c),
        Regex::Class(chars) if chars.len() == 1 => lit(chars[0]),
        Regex::Class(chars) => {
            let alts: Vec<String> = chars.iter().map(|&c| lit(c)).collect();
            format!("(re.union {})", alts.join(" "))
        }
        Regex::Concat(a, b) => format!("(re.++ {} {})", regex(a), regex(b)),
        Regex::Alt(a, b) => format!("(re.union {} {})", regex(a), regex(b)),
        Regex::Star(a) => format!("(re.* {})", regex(a)),
        Regex::Plus(a) => format!("(re.+ {})", regex(a)),
        Regex::Opt(a) => format!("(re.opt {})", regex(a)),
        Regex::Repeat(a, lo, hi) => {
            let inner = regex(a);
            // the part after the `lo` mandatory copies
            let mut tail = match hi {
                None => Some(format!("(re.* {inner})")),
                Some(hi) => (*lo..*hi).fold(None, |rest, _| {
                    Some(match rest {
                        None => format!("(re.opt {inner})"),
                        Some(rest) => format!("(re.opt (re.++ {inner} {rest}))"),
                    })
                }),
            };
            for _ in 0..*lo {
                tail = Some(match tail {
                    None => inner.clone(),
                    Some(rest) => format!("(re.++ {inner} {rest})"),
                });
            }
            tail.expect("a loop matching more than ε")
        }
    }
}

/// One atom as an SMT-LIB Boolean term.
///
/// # Panics
/// Panics on a membership whose regex does not parse: the workloads
/// build their regexes and never hand over an invalid one.
pub fn atom(a: &StringAtom) -> String {
    let not = |negated: bool, s: String| if negated { format!("(not {s})") } else { s };
    match a {
        StringAtom::Equation { lhs, rhs, negated } => {
            not(*negated, format!("(= {} {})", term(lhs), term(rhs)))
        }
        StringAtom::InRe {
            var,
            regex: pattern,
            negated,
        } => {
            let parsed = Regex::parse(pattern).expect("workload regexes parse");
            not(*negated, format!("(str.in_re {var} {})", regex(&parsed)))
        }
        StringAtom::PrefixOf {
            needle,
            haystack,
            negated,
        } => not(
            *negated,
            format!("(str.prefixof {} {})", term(needle), term(haystack)),
        ),
        StringAtom::SuffixOf {
            needle,
            haystack,
            negated,
        } => not(
            *negated,
            format!("(str.suffixof {} {})", term(needle), term(haystack)),
        ),
        StringAtom::Contains {
            haystack,
            needle,
            negated,
        } => not(
            *negated,
            format!("(str.contains {} {})", term(haystack), term(needle)),
        ),
        StringAtom::StrAt {
            var,
            term: t,
            index,
            negated,
        } => not(
            *negated,
            format!("(= {var} (str.at {} {}))", term(t), len_term(index)),
        ),
        StringAtom::Length { lhs, cmp, rhs } => {
            let (op, negated) = match cmp {
                LenCmp::Eq => ("=", false),
                LenCmp::Ne => ("=", true),
                LenCmp::Lt => ("<", false),
                LenCmp::Le => ("<=", false),
                LenCmp::Gt => (">", false),
                LenCmp::Ge => (">=", false),
            };
            not(
                negated,
                format!("({op} {} {})", len_term(lhs), len_term(rhs)),
            )
        }
    }
}

fn declarations(formula: &StringFormula, out: &mut String) {
    let strings = formula.variables();
    let mut ints: Vec<String> = Vec::new();
    for a in &formula.atoms {
        let terms: Vec<&LenTerm> = match a {
            StringAtom::Length { lhs, rhs, .. } => vec![lhs, rhs],
            StringAtom::StrAt { index, .. } => vec![index],
            _ => Vec::new(),
        };
        ints.extend(terms.iter().flat_map(|t| t.int_coeffs.keys().cloned()));
    }
    ints.sort();
    ints.dedup();
    for v in &strings {
        let _ = writeln!(out, "(declare-const {v} String)");
    }
    for v in &ints {
        let _ = writeln!(out, "(declare-const {v} Int)");
    }
}

/// The session a symbolic executor would send for `formula`: the
/// memberships, lengths and equations asserted once, then per position
/// constraint `(push 1) (assert c) (check-sat) (get-model) (pop 1)`.
/// A formula without position constraints gets one plain check.
pub fn session_script(formula: &StringFormula) -> String {
    let mut out = String::from("(set-logic QF_SLIA)\n");
    declarations(formula, &mut out);
    let (positions, base): (Vec<&StringAtom>, Vec<&StringAtom>) =
        formula.atoms.iter().partition(|a| is_position_atom(a));
    for a in base {
        let _ = writeln!(out, "(assert {})", atom(a));
    }
    if positions.is_empty() {
        out.push_str("(check-sat)\n(get-model)\n");
    }
    for p in positions {
        let _ = writeln!(
            out,
            "(push 1)\n(assert {})\n(check-sat)\n(get-model)\n(pop 1)",
            atom(p)
        );
    }
    out
}

/// The whole formula as one flat script, one assertion per atom.
pub fn flat_script(formula: &StringFormula) -> String {
    let mut out = String::from("(set-logic QF_SLIA)\n");
    declarations(formula, &mut out);
    for a in &formula.atoms {
        let _ = writeln!(out, "(assert {})", atom(a));
    }
    out.push_str("(check-sat)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{self, Renaming};
    use posr_automata::ops;
    use posr_smtfmt::{parse_commands, Command};
    use rand::prelude::*;

    fn same_language(a: &str, b: &str) -> bool {
        let a = Regex::parse(a).expect("parses").compile();
        let b = Regex::parse(b).expect("parses").compile();
        ops::is_equivalent(&a, &b)
    }

    fn parsed_atoms(script: &str) -> Vec<StringAtom> {
        parse_commands(script)
            .expect("rendered script parses")
            .commands
            .into_iter()
            .flat_map(|c| match c {
                Command::Assert { atoms, .. } => atoms,
                _ => Vec::new(),
            })
            .collect()
    }

    /// Rendering and parsing back gives the same atoms; memberships are
    /// compared by language, since unrolled loops come back as a
    /// different regex tree.
    fn assert_round_trip(formula: &StringFormula) {
        let back = parsed_atoms(&flat_script(formula));
        assert_eq!(back.len(), formula.atoms.len(), "{formula:?}");
        for (original, parsed) in formula.atoms.iter().zip(&back) {
            match (original, parsed) {
                (
                    StringAtom::InRe {
                        var: v1,
                        regex: r1,
                        negated: n1,
                    },
                    StringAtom::InRe {
                        var: v2,
                        regex: r2,
                        negated: n2,
                    },
                ) => {
                    assert_eq!((v1, n1), (v2, n2));
                    assert!(same_language(r1, r2), "{r1} vs {r2}");
                }
                _ => assert_eq!(original, parsed),
            }
        }
    }

    #[test]
    fn every_generated_query_round_trips() {
        let mut rng = StdRng::seed_from_u64(11);
        for q in queries::table1()
            .iter()
            .chain(queries::product_cycle().iter())
        {
            assert_round_trip(&q.formula);
            assert_round_trip(&Renaming::draw(&q.formula, &mut rng).apply(&q.formula));
        }
    }

    #[test]
    fn the_base_set_covers_the_hard_syntax() {
        let scripts: String = queries::table1()
            .iter()
            .map(|q| flat_script(&q.formula))
            .collect();
        // [acgt], {0,3} loops, str.at and ¬contains all reach the parser
        assert!(queries::table1().iter().any(|q| q.formula.atoms.iter().any(
            |a| matches!(a, StringAtom::InRe { regex, .. } if regex.contains("[acgt]{0,3}"))
        )));
        assert!(scripts.contains("(str.at "));
        assert!(scripts.contains("(not (str.contains "));
        assert!(scripts.contains("(re.opt (re.++ "));
    }

    #[test]
    fn loops_unroll_to_the_same_language() {
        for (pattern, unrolled) in [
            ("a{0,3}", "(a(aa?)?)?"),
            ("(ab){2,3}", "abab(ab)?"),
            ("a{2,}", "aaa*"),
            ("b{2}", "bb"),
        ] {
            let smt = regex(&Regex::parse(pattern).unwrap());
            let back = parsed_atoms(&format!(
                "(declare-const x String)\n(assert (str.in_re x {smt}))"
            ));
            let StringAtom::InRe { regex: parsed, .. } = &back[0] else {
                panic!("not a membership: {back:?}");
            };
            assert!(same_language(parsed, unrolled), "{pattern}: {parsed}");
        }
    }

    #[test]
    fn sessions_check_once_per_position_constraint() {
        for q in queries::table1() {
            let script = session_script(&q.formula);
            let parsed = parse_commands(&script).expect("session parses");
            let checks = parsed
                .commands
                .iter()
                .filter(|c| matches!(c, Command::CheckSat))
                .count();
            assert_eq!(checks, queries::session_checks(&q.formula).len());
        }
    }
}
