//! A regular-expression parser and NFA compiler.
//!
//! The syntax is the usual textbook one used in the paper (e.g.
//! `(ab)*c((ab)* + (ba)*)`), extended with the operators commonly found in
//! SMT-LIB string benchmarks:
//!
//! * concatenation by juxtaposition,
//! * alternation with `|` or `+` at the top level of a group when preceded by
//!   whitespace — to avoid ambiguity with Kleene-plus, alternation uses `|`
//!   and Kleene plus uses a postfix `+`,
//! * postfix `*`, `+`, `?`, and bounded repetition `{n}`, `{n,m}`,
//! * character classes `[abc]`, ranges `[a-z]`, and negated classes `[^ab]`
//!   over a configurable background alphabet,
//! * `.` matching any symbol of the background alphabet,
//! * escaping with `\`.
//!
//! # Example
//!
//! ```
//! use posr_automata::regex::Regex;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let re = Regex::parse("(ab)*c")?;
//! let nfa = re.compile();
//! assert!(nfa.accepts_str("ababc"));
//! assert!(!nfa.accepts_str("abac"));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::nfa::{Nfa, Symbol};
use crate::ops;

/// Default background alphabet used by `.` and negated classes when the
/// caller does not provide one: lowercase letters, digits and a few symbols.
pub const DEFAULT_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyz0123456789_/.-";

/// Abstract syntax of regular expressions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The empty word ε.
    Epsilon,
    /// A single literal character.
    Literal(char),
    /// A character class: any of the listed characters.
    Class(Vec<char>),
    /// Concatenation `r · s`.
    Concat(Box<Regex>, Box<Regex>),
    /// Alternation `r | s`.
    Alt(Box<Regex>, Box<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
    /// Kleene plus `r⁺`.
    Plus(Box<Regex>),
    /// Option `r?`.
    Opt(Box<Regex>),
    /// Bounded repetition `r{lo,hi}`; `hi = None` means unbounded (`r{lo,}`).
    Repeat(Box<Regex>, usize, Option<usize>),
}

/// Errors produced while parsing a regular expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRegexError {
    /// Byte position in the input at which the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseRegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseRegexError {}

impl Regex {
    /// Parses a regular expression with the [`DEFAULT_ALPHABET`] as the
    /// background alphabet for `.` and negated classes.
    ///
    /// # Errors
    /// Returns a [`ParseRegexError`] on malformed input.
    pub fn parse(input: &str) -> Result<Regex, ParseRegexError> {
        Regex::parse_with_alphabet(input, DEFAULT_ALPHABET)
    }

    /// Parses a regular expression with an explicit background alphabet.
    ///
    /// # Errors
    /// Returns a [`ParseRegexError`] on malformed input.
    pub fn parse_with_alphabet(input: &str, alphabet: &str) -> Result<Regex, ParseRegexError> {
        let chars: Vec<char> = input.chars().collect();
        let mut parser = Parser {
            chars,
            pos: 0,
            alphabet: alphabet.chars().collect(),
        };
        let re = parser.parse_alt()?;
        if parser.pos != parser.chars.len() {
            return Err(parser.error("unexpected trailing input"));
        }
        Ok(re)
    }

    /// Compiles the regular expression into an ε-free NFA.
    pub fn compile(&self) -> Nfa {
        let nfa = self.compile_inner();
        nfa.remove_epsilon().trim()
    }

    fn compile_inner(&self) -> Nfa {
        match self {
            Regex::Empty => Nfa::empty_language(),
            Regex::Epsilon => Nfa::epsilon(),
            Regex::Literal(c) => {
                let mut nfa = Nfa::new();
                let q0 = nfa.add_state();
                let q1 = nfa.add_state();
                nfa.add_initial(q0);
                nfa.add_final(q1);
                nfa.add_transition(q0, Symbol::from_char(*c), q1);
                nfa
            }
            Regex::Class(chars) => {
                let mut nfa = Nfa::new();
                let q0 = nfa.add_state();
                let q1 = nfa.add_state();
                nfa.add_initial(q0);
                nfa.add_final(q1);
                for &c in chars {
                    nfa.add_transition(q0, Symbol::from_char(c), q1);
                }
                nfa
            }
            Regex::Concat(a, b) => ops::concat(&a.compile_inner(), &b.compile_inner()),
            Regex::Alt(a, b) => ops::union(&a.compile_inner(), &b.compile_inner()),
            Regex::Star(a) => ops::star(&a.compile_inner()),
            Regex::Plus(a) => ops::plus(&a.compile_inner()),
            Regex::Opt(a) => ops::optional(&a.compile_inner()),
            Regex::Repeat(a, lo, hi) => {
                let base = a.compile_inner();
                let mut result = Nfa::epsilon();
                for _ in 0..*lo {
                    result = ops::concat(&result, &base);
                }
                match hi {
                    None => ops::concat(&result, &ops::star(&base)),
                    Some(hi) => {
                        let opt = ops::optional(&base);
                        for _ in *lo..*hi {
                            result = ops::concat(&result, &opt);
                        }
                        result
                    }
                }
            }
        }
    }

    /// Returns `true` if the expression denotes a *flat* language by
    /// construction: a concatenation of pieces each of which is either a
    /// literal word or the iteration of a single literal word.  This is a
    /// syntactic sufficient condition; [`crate::flat::is_flat`] performs the
    /// semantic check on the compiled automaton.
    pub fn is_syntactically_flat(&self) -> bool {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Literal(_) => true,
            Regex::Class(chars) => chars.len() <= 1,
            Regex::Concat(a, b) => a.is_syntactically_flat() && b.is_syntactically_flat(),
            Regex::Star(a) | Regex::Plus(a) | Regex::Opt(a) | Regex::Repeat(a, _, _) => {
                a.is_single_word()
            }
            Regex::Alt(_, _) => false,
        }
    }

    fn is_single_word(&self) -> bool {
        match self {
            Regex::Epsilon | Regex::Literal(_) => true,
            Regex::Class(chars) => chars.len() == 1,
            Regex::Concat(a, b) => a.is_single_word() && b.is_single_word(),
            _ => false,
        }
    }
}

/// Characters that stand for themselves only when escaped outside a class.
const METACHARACTERS: &str = "\\()|*+?{[].";

/// Prints text that [`Regex::parse`] reads back as the same language: ε as
/// `()`, ∅ as the empty class `[]`, and metacharacter literals escaped.
impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Empty => write!(f, "[]"),
            Regex::Epsilon => write!(f, "()"),
            Regex::Literal(c) if METACHARACTERS.contains(*c) => write!(f, "\\{c}"),
            Regex::Literal(c) => write!(f, "{c}"),
            Regex::Class(chars) => {
                write!(f, "[")?;
                for (i, &c) in chars.iter().enumerate() {
                    // inside a class only `\` and `]` are always special; a
                    // leading `^` negates and an inner `-` forms a range
                    let special = c == '\\'
                        || c == ']'
                        || (c == '^' && i == 0)
                        || (c == '-' && i > 0 && i + 1 < chars.len());
                    if special {
                        write!(f, "\\")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "]")
            }
            Regex::Concat(a, b) => write!(f, "{a}{b}"),
            Regex::Alt(a, b) => write!(f, "({a}|{b})"),
            Regex::Star(a) => write!(f, "({a})*"),
            Regex::Plus(a) => write!(f, "({a})+"),
            Regex::Opt(a) => write!(f, "({a})?"),
            Regex::Repeat(a, lo, Some(hi)) => write!(f, "({a}){{{lo},{hi}}}"),
            Regex::Repeat(a, lo, None) => write!(f, "({a}){{{lo},}}"),
        }
    }
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    alphabet: Vec<char>,
}

impl Parser {
    fn error(&self, message: &str) -> ParseRegexError {
        ParseRegexError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn parse_alt(&mut self) -> Result<Regex, ParseRegexError> {
        let mut left = self.parse_concat()?;
        while self.peek() == Some('|') {
            self.bump();
            let right = self.parse_concat()?;
            left = Regex::Alt(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_concat(&mut self) -> Result<Regex, ParseRegexError> {
        let mut parts: Vec<Regex> = Vec::new();
        while let Some(c) = self.peek() {
            if c == ')' || c == '|' {
                break;
            }
            parts.push(self.parse_postfix()?);
        }
        Ok(match parts.len() {
            0 => Regex::Epsilon,
            _ => {
                let mut iter = parts.into_iter();
                let first = iter.next().expect("non-empty");
                iter.fold(first, |acc, r| Regex::Concat(Box::new(acc), Box::new(r)))
            }
        })
    }

    fn parse_postfix(&mut self) -> Result<Regex, ParseRegexError> {
        let mut base = self.parse_atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.bump();
                    base = Regex::Star(Box::new(base));
                }
                Some('+') => {
                    self.bump();
                    base = Regex::Plus(Box::new(base));
                }
                Some('?') => {
                    self.bump();
                    base = Regex::Opt(Box::new(base));
                }
                Some('{') => {
                    self.bump();
                    let (lo, hi) = self.parse_bounds()?;
                    base = Regex::Repeat(Box::new(base), lo, hi);
                }
                _ => break,
            }
        }
        Ok(base)
    }

    fn parse_bounds(&mut self) -> Result<(usize, Option<usize>), ParseRegexError> {
        let lo = self.parse_number()?;
        match self.peek() {
            Some('}') => {
                self.bump();
                Ok((lo, Some(lo)))
            }
            Some(',') => {
                self.bump();
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok((lo, None));
                }
                let hi = self.parse_number()?;
                if self.bump() != Some('}') {
                    return Err(self.error("expected '}' after repetition bounds"));
                }
                if hi < lo {
                    return Err(self.error("repetition upper bound smaller than lower bound"));
                }
                Ok((lo, Some(hi)))
            }
            _ => Err(self.error("expected '}' or ',' in repetition bounds")),
        }
    }

    fn parse_number(&mut self) -> Result<usize, ParseRegexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse().map_err(|_| self.error("number too large"))
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseRegexError> {
        match self.bump() {
            None => Err(self.error("unexpected end of input")),
            Some('(') => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(self.error("expected ')'"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('.') => Ok(Regex::Class(self.alphabet.clone())),
            Some('\\') => match self.bump() {
                Some(c) => Ok(Regex::Literal(c)),
                None => Err(self.error("dangling escape")),
            },
            Some(c) if c == '*' || c == '+' || c == '?' || c == ')' || c == '|' || c == '{' => {
                Err(self.error(&format!("unexpected operator '{c}'")))
            }
            Some(c) => Ok(Regex::Literal(c)),
        }
    }

    fn parse_class(&mut self) -> Result<Regex, ParseRegexError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut chars: Vec<char> = Vec::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated character class")),
                Some(']') => break,
                Some('\\') => match self.bump() {
                    Some(c) => chars.push(c),
                    None => return Err(self.error("dangling escape in character class")),
                },
                Some(c) => {
                    if self.peek() == Some('-')
                        && self
                            .chars
                            .get(self.pos + 1)
                            .copied()
                            .is_some_and(|d| d != ']')
                    {
                        self.bump(); // '-'
                        let end = self.bump().expect("checked above");
                        if (end as u32) < (c as u32) {
                            return Err(self.error("invalid character range"));
                        }
                        for code in (c as u32)..=(end as u32) {
                            if let Some(ch) = char::from_u32(code) {
                                chars.push(ch);
                            }
                        }
                    } else {
                        chars.push(c);
                    }
                }
            }
        }
        chars.sort_unstable();
        chars.dedup();
        if negated {
            let set: std::collections::BTreeSet<char> = chars.into_iter().collect();
            let complement: Vec<char> = self
                .alphabet
                .iter()
                .copied()
                .filter(|c| !set.contains(c))
                .collect();
            Ok(Regex::Class(complement))
        } else if chars.is_empty() {
            Ok(Regex::Empty)
        } else {
            Ok(Regex::Class(chars))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts(re: &str, word: &str) -> bool {
        Regex::parse(re).expect("parse").compile().accepts_str(word)
    }

    #[test]
    fn literal_word() {
        assert!(accepts("abc", "abc"));
        assert!(!accepts("abc", "ab"));
    }

    #[test]
    fn star_and_plus() {
        assert!(accepts("(ab)*", ""));
        assert!(accepts("(ab)*", "abab"));
        assert!(!accepts("(ab)+", ""));
        assert!(accepts("(ab)+", "ab"));
    }

    #[test]
    fn alternation() {
        assert!(accepts("abc|abd", "abc"));
        assert!(accepts("abc|abd", "abd"));
        assert!(!accepts("abc|abd", "abe"));
    }

    #[test]
    fn optional() {
        assert!(accepts("ab?c", "ac"));
        assert!(accepts("ab?c", "abc"));
        assert!(!accepts("ab?c", "abbc"));
    }

    #[test]
    fn classes_and_ranges() {
        assert!(accepts("[abc]x", "bx"));
        assert!(!accepts("[abc]x", "dx"));
        assert!(accepts("[a-d]*", "abcd"));
        assert!(!accepts("[a-d]*", "abce"));
    }

    #[test]
    fn negated_class_uses_alphabet() {
        let re = Regex::parse_with_alphabet("[^ab]", "abcd").expect("parse");
        let nfa = re.compile();
        assert!(nfa.accepts_str("c"));
        assert!(nfa.accepts_str("d"));
        assert!(!nfa.accepts_str("a"));
    }

    #[test]
    fn dot_matches_alphabet() {
        let re = Regex::parse_with_alphabet(".", "xy").expect("parse");
        let nfa = re.compile();
        assert!(nfa.accepts_str("x"));
        assert!(nfa.accepts_str("y"));
        assert!(!nfa.accepts_str("z"));
    }

    #[test]
    fn bounded_repetition() {
        assert!(accepts("a{3}", "aaa"));
        assert!(!accepts("a{3}", "aa"));
        assert!(accepts("a{2,4}", "aa"));
        assert!(accepts("a{2,4}", "aaaa"));
        assert!(!accepts("a{2,4}", "aaaaa"));
        assert!(accepts("a{2,}", "aaaaaaa"));
        assert!(!accepts("a{2,}", "a"));
    }

    #[test]
    fn escape_special_characters() {
        assert!(accepts(r"a\*b", "a*b"));
        assert!(!accepts(r"a\*b", "aab"));
    }

    #[test]
    fn paper_example_language_is_parsed() {
        // the flat language (ab)*c((ab)* | (ba)*) from Sec. 2
        let re = Regex::parse("(ab)*c((ab)*|(ba)*)").expect("parse");
        let nfa = re.compile();
        assert!(nfa.accepts_str("ababcbaba"));
        assert!(nfa.accepts_str("cab"));
        assert!(!nfa.accepts_str("abcabba"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Regex::parse("(ab").is_err());
        assert!(Regex::parse("a**)").is_err());
        assert!(Regex::parse("[abc").is_err());
        assert!(Regex::parse("a{2,1}").is_err());
        assert!(Regex::parse("*a").is_err());
    }

    #[test]
    fn syntactic_flatness() {
        assert!(Regex::parse("(ab)*c(ba)*")
            .expect("parse")
            .is_syntactically_flat());
        assert!(!Regex::parse("(a|b)*")
            .expect("parse")
            .is_syntactically_flat());
    }

    #[test]
    fn display_roundtrip_parses() {
        let re = Regex::parse("(ab)*c|d{2,3}").expect("parse");
        let printed = re.to_string();
        let reparsed = Regex::parse(&printed).expect("reparse");
        // languages agree on a few sample words
        let a = re.compile();
        let b = reparsed.compile();
        for w in ["ababc", "c", "dd", "ddd", "dddd", "ab"] {
            assert_eq!(a.accepts_str(w), b.accepts_str(w), "word {w:?}");
        }
    }

    #[test]
    fn display_prints_epsilon_empty_and_metacharacters_parseably() {
        let eps_or_b = Regex::Alt(Box::new(Regex::Epsilon), Box::new(Regex::Literal('b')));
        let cases = [
            (Regex::Epsilon, "()"),
            (Regex::Empty, "[]"),
            (
                Regex::Concat(Box::new(Regex::Literal('a')), Box::new(Regex::Literal('*'))),
                "a\\*",
            ),
            (
                Regex::Concat(Box::new(Regex::Literal('a')), Box::new(eps_or_b)),
                "a(()|b)",
            ),
            (Regex::Class(vec!['^', 'a', '-', 'z', ']']), "[\\^a\\-z\\]]"),
        ];
        for (re, printed) in cases {
            assert_eq!(re.to_string(), printed);
            assert!(Regex::parse(printed).is_ok(), "{printed} must parse");
        }
    }

    /// A random regex over letters that include every metacharacter, the
    /// characters `ε` and `∅`, and the class-special `^` and `-`.
    fn random_regex(rng: &mut rand::rngs::StdRng, depth: usize) -> Regex {
        use rand::Rng;
        const LETTERS: [char; 18] = [
            'a', 'b', '\\', '(', ')', '|', '*', '+', '?', '{', '}', '[', ']', '.', '^', '-', 'ε',
            '∅',
        ];
        let letter = |rng: &mut rand::rngs::StdRng| LETTERS[rng.gen_range(0..LETTERS.len())];
        let leaf = depth == 0 || rng.gen_bool(0.3);
        let boxed = |rng: &mut rand::rngs::StdRng| Box::new(random_regex(rng, depth - 1));
        match (leaf, rng.gen_range(0..7usize)) {
            (true, 0) => Regex::Epsilon,
            (true, 1) => Regex::Empty,
            (true, 2) => Regex::Class((0..rng.gen_range(0..4usize)).map(|_| letter(rng)).collect()),
            (true, _) => Regex::Literal(letter(rng)),
            (false, 0 | 1) => Regex::Concat(boxed(rng), boxed(rng)),
            (false, 2) => Regex::Alt(boxed(rng), boxed(rng)),
            (false, 3) => Regex::Star(boxed(rng)),
            (false, 4) => Regex::Plus(boxed(rng)),
            (false, 5) => Regex::Opt(boxed(rng)),
            (false, _) => {
                let lo = rng.gen_range(0..3usize);
                let hi = rng.gen_bool(0.5).then(|| lo + rng.gen_range(0..2usize));
                Regex::Repeat(boxed(rng), lo, hi)
            }
        }
    }

    /// Every word of length at most `max_len` over `alphabet`.
    fn words_up_to(alphabet: &[char], max_len: usize) -> Vec<String> {
        let mut all = vec![String::new()];
        let mut frontier = vec![String::new()];
        for _ in 0..max_len {
            frontier = frontier
                .iter()
                .flat_map(|w| alphabet.iter().map(move |&c| format!("{w}{c}")))
                .collect();
            all.extend(frontier.iter().cloned());
        }
        all
    }

    #[test]
    fn display_reparses_to_the_same_language() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_4E6E);
        for _ in 0..300 {
            let re = random_regex(&mut rng, 3);
            let printed = re.to_string();
            let reparsed = Regex::parse(&printed)
                .unwrap_or_else(|e| panic!("{printed:?} (from {re:?}) does not parse: {e}"));
            // the regex's own letters plus one the `.` class would match
            let mut alphabet: Vec<char> = printed.chars().chain(['a']).collect();
            alphabet.sort_unstable();
            alphabet.dedup();
            let (a, b) = (re.compile(), reparsed.compile());
            for word in words_up_to(&alphabet, 4) {
                assert_eq!(
                    a.accepts_str(&word),
                    b.accepts_str(&word),
                    "{re:?} printed as {printed:?} disagrees on {word:?}"
                );
            }
        }
    }
}
