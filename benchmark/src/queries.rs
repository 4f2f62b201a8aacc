//! The query sets of the workloads and the seeded variation applied to
//! them.
//!
//! Every workload starts from a fixed base set whose verdicts are listed
//! in `expected.tsv`.  `--seed` draws a numeric suffix for every
//! variable of every query, and the order of a pass is fixed.  The
//! suffixes keep the variables' sort order, because the solver's speed
//! depends on it: fresh names that reorder the variables spread a
//! product-cycle pass over 12.7–17.8 s across five seeds, against a 6%
//! spread with order-keeping suffixes, and permuting the letters as well
//! spread the session workload over 92–155 decided checks per second
//! across three seeds.  So every seed runs the same work under other
//! names, and the spread between seeds is the machine's noise.

use std::collections::BTreeMap;

use posr_core::ast::{LenCmp, LenTerm, StringAtom, StringFormula, StringTerm, TermPart};
use rand::prelude::*;

/// The generator seed of the repository's Table-1 set.
pub const TABLE1_SEED: u64 = 2025;
/// Queries per Table-1 family.
pub const TABLE1_PER_FAMILY: usize = 25;

/// One base query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Stable id, the key into `expected.tsv`.
    pub id: String,
    /// Family (the stratum the order balances over).
    pub family: String,
    /// The formula, before any renaming.
    pub formula: StringFormula,
}

/// The paper-shaped Table-1 set: the four generated families in equal
/// counts.
pub fn table1() -> Vec<Query> {
    posr_bench::suite_names()
        .into_iter()
        .flat_map(|family| posr_bench::suite(family, TABLE1_PER_FAMILY, TABLE1_SEED))
        .map(|inst| Query {
            id: inst.name,
            family: inst.suite,
            formula: inst.formula,
        })
        .collect()
}

/// The cycle pairs `(n, m, capped)` of the product-cycle sweep: products
/// from 80 to 480 states.  Uncapped pairs are Sat at length lcm(n, m);
/// capped ones (`|x| < lcm`) are Unsat by length arithmetic.  The capped
/// 10×12 and 12×15 pairs (4 and 6 s) are left out: the traced run of
/// `table1` solves every pair twice and has to stay well inside three
/// minutes.
pub const CYCLE_PAIRS: [(usize, usize, bool); 6] = [
    (8, 10, false),
    (8, 10, true),
    (9, 11, false),
    (10, 12, false),
    (12, 15, false),
    (20, 24, false),
];

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `(a^{n-1}b)*`: an `n`-state cycle with one word per multiple of `n`.
pub fn cycle_regex(n: usize) -> String {
    format!("({}b)*", "a".repeat(n - 1))
}

/// The product-cycle sweep: `x ∈ (a^{n-1}b)*, y ∈ (a^{m-1}b)*, x ≠ y,
/// |x| = |y|`, plus `|x| < lcm(n, m)` on capped pairs.
pub fn product_cycle() -> Vec<Query> {
    CYCLE_PAIRS
        .iter()
        .map(|&(n, m, capped)| {
            let mut formula = StringFormula::new()
                .in_re("x", &cycle_regex(n))
                .in_re("y", &cycle_regex(m))
                .diseq(StringTerm::var("x"), StringTerm::var("y"))
                .len_eq("x", "y");
            if capped {
                let lcm = n * m / gcd(n, m);
                formula =
                    formula.length(LenTerm::len("x"), LenCmp::Lt, LenTerm::constant(lcm as i64));
            }
            Query {
                id: format!("cycle-{n}x{m}-{}", if capped { "capped" } else { "free" }),
                family: "product-cycle".to_string(),
                formula,
            }
        })
        .collect()
}

/// Atoms an SMT-LIB session checks one at a time: the position
/// constraints.
pub fn is_position_atom(atom: &StringAtom) -> bool {
    match atom {
        StringAtom::Equation { negated, .. }
        | StringAtom::PrefixOf { negated, .. }
        | StringAtom::SuffixOf { negated, .. }
        | StringAtom::Contains { negated, .. } => *negated,
        StringAtom::StrAt { .. } => true,
        StringAtom::InRe { .. } | StringAtom::Length { .. } => false,
    }
}

/// The checks of one SMT-LIB session: the formula without its position
/// constraints, plus one of them.  A query without position constraints
/// yields one check of the whole formula.
pub fn session_checks(formula: &StringFormula) -> Vec<StringFormula> {
    let (positions, base): (Vec<&StringAtom>, Vec<&StringAtom>) =
        formula.atoms.iter().partition(|a| is_position_atom(a));
    let base = StringFormula {
        atoms: base.into_iter().cloned().collect(),
    };
    if positions.is_empty() {
        return vec![base];
    }
    positions
        .into_iter()
        .map(|p| base.clone().atom(p.clone()))
        .collect()
}

/// A seeded renaming of the variables.
#[derive(Clone, Debug)]
pub struct Renaming {
    vars: BTreeMap<String, String>,
}

impl Renaming {
    /// Draws a suffix for each variable of `formula`, integer variables
    /// included.  The names are lowercase and none is a prefix of
    /// another, so `name_NNNN` sorts as `name` did.
    pub fn draw(formula: &StringFormula, rng: &mut StdRng) -> Renaming {
        let mut names: Vec<String> = formula.variables();
        for atom in &formula.atoms {
            let lens: Vec<&LenTerm> = match atom {
                StringAtom::Length { lhs, rhs, .. } => vec![lhs, rhs],
                StringAtom::StrAt { index, .. } => vec![index],
                _ => Vec::new(),
            };
            names.extend(lens.iter().flat_map(|t| t.int_coeffs.keys().cloned()));
        }
        names.sort();
        names.dedup();
        let vars = names
            .into_iter()
            .map(|name| {
                let suffix = rng.gen_range(0..10_000);
                let renamed = format!("{name}_{suffix:04}");
                (name, renamed)
            })
            .collect();
        Renaming { vars }
    }

    fn var(&self, v: &str) -> String {
        self.vars.get(v).cloned().unwrap_or_else(|| v.to_string())
    }

    fn term(&self, t: &StringTerm) -> StringTerm {
        StringTerm {
            parts: t
                .parts
                .iter()
                .map(|p| match p {
                    TermPart::Var(v) => TermPart::Var(self.var(v)),
                    TermPart::Lit(w) => TermPart::Lit(w.clone()),
                })
                .collect(),
        }
    }

    fn len(&self, t: &LenTerm) -> LenTerm {
        LenTerm {
            len_coeffs: t
                .len_coeffs
                .iter()
                .map(|(v, c)| (self.var(v), *c))
                .collect(),
            int_coeffs: t
                .int_coeffs
                .iter()
                .map(|(v, c)| (self.var(v), *c))
                .collect(),
            constant: t.constant,
        }
    }

    /// The renamed formula.
    pub fn apply(&self, formula: &StringFormula) -> StringFormula {
        let atoms = formula
            .atoms
            .iter()
            .map(|atom| match atom {
                StringAtom::Equation { lhs, rhs, negated } => StringAtom::Equation {
                    lhs: self.term(lhs),
                    rhs: self.term(rhs),
                    negated: *negated,
                },
                StringAtom::InRe {
                    var,
                    regex,
                    negated,
                } => StringAtom::InRe {
                    var: self.var(var),
                    regex: regex.clone(),
                    negated: *negated,
                },
                StringAtom::PrefixOf {
                    needle,
                    haystack,
                    negated,
                } => StringAtom::PrefixOf {
                    needle: self.term(needle),
                    haystack: self.term(haystack),
                    negated: *negated,
                },
                StringAtom::SuffixOf {
                    needle,
                    haystack,
                    negated,
                } => StringAtom::SuffixOf {
                    needle: self.term(needle),
                    haystack: self.term(haystack),
                    negated: *negated,
                },
                StringAtom::Contains {
                    haystack,
                    needle,
                    negated,
                } => StringAtom::Contains {
                    haystack: self.term(haystack),
                    needle: self.term(needle),
                    negated: *negated,
                },
                StringAtom::StrAt {
                    var,
                    term,
                    index,
                    negated,
                } => StringAtom::StrAt {
                    var: self.var(var),
                    term: self.term(term),
                    index: self.len(index),
                    negated: *negated,
                },
                StringAtom::Length { lhs, cmp, rhs } => StringAtom::Length {
                    lhs: self.len(lhs),
                    cmp: *cmp,
                    rhs: self.len(rhs),
                },
            })
            .collect();
        StringFormula { atoms }
    }
}

/// The order of a pass: families take turns, each in base order, so
/// every prefix of a pass keeps the workload's mix and a slow or hung
/// query sits at the same point of every run.
pub fn balanced_order(queries: &[Query]) -> Vec<usize> {
    let mut families: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        families.entry(q.family.as_str()).or_default().push(i);
    }
    let lanes: Vec<Vec<usize>> = families.into_values().collect();
    let longest = lanes.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|k| lanes.iter().filter_map(move |lane| lane.get(k).copied()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_is_deterministic_per_seed() {
        let base = table1();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            base.iter()
                .map(|q| Renaming::draw(&q.formula, &mut rng).apply(&q.formula))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn renaming_keeps_the_variable_order() {
        let mut rng = StdRng::seed_from_u64(5);
        for q in table1().iter().chain(product_cycle().iter()) {
            let renamed = Renaming::draw(&q.formula, &mut rng).apply(&q.formula);
            // `variables()` lists in first-occurrence order; sorting both
            // lists must pair every variable with its renamed self
            let mut before = q.formula.variables();
            let mut after = renamed.variables();
            before.sort();
            after.sort();
            for (b, a) in before.iter().zip(&after) {
                assert!(a.starts_with(&format!("{b}_")), "{b} sorted against {a}");
            }
        }
    }

    #[test]
    fn renaming_keeps_the_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        for q in table1().iter().chain(product_cycle().iter()) {
            let renamed = Renaming::draw(&q.formula, &mut rng).apply(&q.formula);
            assert_eq!(renamed.atoms.len(), q.formula.atoms.len());
            assert_eq!(renamed.variables().len(), q.formula.variables().len());
            for (a, b) in renamed.atoms.iter().zip(&q.formula.atoms) {
                assert_eq!(is_position_atom(a), is_position_atom(b));
            }
        }
    }

    #[test]
    fn balanced_order_is_a_permutation_with_families_interleaved() {
        let base = table1();
        let order = balanced_order(&base);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..base.len()).collect::<Vec<_>>());
        for chunk in order.chunks(4) {
            let mut families: Vec<&str> = chunk.iter().map(|&i| base[i].family.as_str()).collect();
            families.sort_unstable();
            families.dedup();
            assert_eq!(families.len(), 4);
        }
    }

    #[test]
    fn sessions_check_each_position_constraint() {
        for q in table1() {
            let checks = session_checks(&q.formula);
            let positions = q
                .formula
                .atoms
                .iter()
                .filter(|a| is_position_atom(a))
                .count();
            assert_eq!(checks.len(), positions.max(1));
            for check in checks {
                assert!(check.atoms.iter().filter(|a| is_position_atom(a)).count() <= 1);
            }
        }
    }
}
