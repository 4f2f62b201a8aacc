//! Expected verdicts and the constructions that justify them.
//!
//! `expected.tsv` holds one line per check of every workload:
//! `id <TAB> verdict <TAB> justification`.  A `sat` line is justified by
//! a model the run re-checks with `StringFormula::eval`; an `unsat` line
//! names the generator's construction that makes it unsatisfiable, or
//! `unconfirmed` when only the solver vouches for it; `unknown` lines
//! carry no expectation.

use std::collections::BTreeMap;

use posr_core::ast::{StringAtom, StringFormula, StringTerm, TermPart};

/// The committed table.
pub const EXPECTED: &str = include_str!("../expected.tsv");

/// What the table expects of one check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Satisfiable.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Not known.
    Unknown,
}

/// One line of the table.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The expected verdict.
    pub verdict: Verdict,
    /// Why (see the module docs).
    pub justification: String,
}

/// Parses the table.
///
/// # Panics
/// Panics on a malformed line: the table is compiled in.
pub fn table() -> BTreeMap<String, Entry> {
    EXPECTED
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields.len(), 3, "malformed expected line {line:?}");
            let verdict = match fields[1] {
                "sat" => Verdict::Sat,
                "unsat" => Verdict::Unsat,
                "unknown" => Verdict::Unknown,
                other => panic!("unknown verdict {other:?}"),
            };
            (
                fields[0].to_string(),
                Entry {
                    verdict,
                    justification: fields[2].to_string(),
                },
            )
        })
        .collect()
}

fn single_var(t: &StringTerm) -> Option<&str> {
    match t.parts.as_slice() {
        [TermPart::Var(v)] => Some(v),
        _ => None,
    }
}

fn plain_word(regex: &str) -> bool {
    !regex.is_empty() && regex.chars().all(|c| c.is_ascii_lowercase() || c == '/')
}

/// The word `u` of a membership `u*` / `(u)*`.
fn power_base(regex: &str) -> Option<&str> {
    let inner = regex.strip_suffix('*')?;
    let inner = inner
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or(inner);
    (plain_word(inner) && (regex.starts_with('(') || inner.chars().count() == 1)).then_some(inner)
}

fn memberships(formula: &StringFormula) -> BTreeMap<&str, Vec<&str>> {
    let mut out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for a in &formula.atoms {
        if let StringAtom::InRe {
            var,
            regex,
            negated: false,
        } = a
        {
            out.entry(var).or_default().push(regex);
        }
    }
    out
}

/// The construction that makes `formula` unsatisfiable, when the
/// generator used one the benchmark can recognise:
/// * `singleton-diseq`: `v ∈ w` and `v ≠ "w"`;
/// * `commutation`: `xy ≠ yx` with `x, y ∈ u*` for one word `u`.
///
/// (The capped product cycles are justified where `queries::product_cycle`
/// makes them.)
pub fn unsat_construction(formula: &StringFormula) -> Option<&'static str> {
    let langs = memberships(formula);
    for a in &formula.atoms {
        let StringAtom::Equation {
            lhs,
            rhs,
            negated: true,
        } = a
        else {
            continue;
        };
        for (v, w) in [(lhs, rhs), (rhs, lhs)] {
            if let (Some(v), [TermPart::Lit(word)]) = (single_var(v), w.parts.as_slice()) {
                let singleton = langs
                    .get(v)
                    .is_some_and(|rs| rs.iter().any(|r| plain_word(r) && r == word));
                if singleton {
                    return Some("singleton-diseq");
                }
            }
        }
        if let ([TermPart::Var(x1), TermPart::Var(y1)], [TermPart::Var(y2), TermPart::Var(x2)]) =
            (lhs.parts.as_slice(), rhs.parts.as_slice())
        {
            let base = |v: &str| -> Vec<&str> {
                langs
                    .get(v)
                    .map(|rs| rs.iter().filter_map(|r| power_base(r)).collect())
                    .unwrap_or_default()
            };
            let shared = base(x1).iter().any(|u| base(y1).contains(u));
            if x1 == x2 && y1 == y2 && shared {
                return Some("commutation");
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;

    #[test]
    fn recognises_the_constructions() {
        let f = StringFormula::new()
            .in_re("d", "ca")
            .diseq(StringTerm::var("d"), StringTerm::lit("ca"));
        assert_eq!(unsat_construction(&f), Some("singleton-diseq"));
        let xy = StringTerm::concat(vec![StringTerm::var("x"), StringTerm::var("y")]);
        let yx = StringTerm::concat(vec![StringTerm::var("y"), StringTerm::var("x")]);
        let f = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ab)*")
            .diseq(xy.clone(), yx.clone());
        assert_eq!(unsat_construction(&f), Some("commutation"));
        let f = StringFormula::new()
            .in_re("x", "(ab)*")
            .in_re("y", "(ba)*")
            .diseq(xy, yx);
        assert_eq!(unsat_construction(&f), None);
        let f = StringFormula::new()
            .in_re("d", "ca")
            .diseq(StringTerm::var("d"), StringTerm::lit("ac"));
        assert_eq!(unsat_construction(&f), None);
    }

    /// Every `unsat` justification in the table is re-derived from the
    /// query itself, so the table cannot claim a construction the query
    /// does not have; every constructed query is listed as `unsat`.
    #[test]
    fn the_table_matches_the_constructions() {
        let table = table();
        let mut checks: Vec<(String, StringFormula)> = Vec::new();
        for q in queries::table1() {
            for (k, check) in queries::session_checks(&q.formula).into_iter().enumerate() {
                checks.push((format!("{}/{k}", q.id), check));
            }
            checks.push((q.id, q.formula));
        }
        for (id, formula) in &checks {
            let entry = table.get(id).unwrap_or_else(|| panic!("{id} missing"));
            match unsat_construction(formula) {
                Some(c) => {
                    assert_eq!(entry.verdict, Verdict::Unsat, "{id}");
                    assert_eq!(entry.justification, c, "{id}");
                }
                None if entry.verdict == Verdict::Unsat => {
                    assert_eq!(entry.justification, "unconfirmed", "{id}");
                }
                None => {}
            }
        }
        for q in queries::product_cycle() {
            let entry = &table[&q.id];
            let capped = q.id.ends_with("-capped");
            assert_eq!(entry.verdict == Verdict::Unsat, capped, "{}", q.id);
        }
        assert_eq!(table.len(), checks.len() + queries::product_cycle().len());
    }
}
