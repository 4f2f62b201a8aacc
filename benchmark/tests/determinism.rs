//! At one seed, two runs get the same inputs and, over the decided
//! queries of the traced pass, the same LIA and automaton-cache counters,
//! so later changes may cite these counts.

use std::process::Command;

/// The counters a traced smt-session run reports that must repeat.
const COUNTERS: [&str; 12] = [
    "smtfmt.bytes",
    "core.normal.position_atoms",
    "core.monadic.cases",
    "automata.cache.hits",
    "automata.cache.misses",
    "lia.conflicts",
    "lia.decisions",
    "lia.propagations",
    "lia.theory_checks",
    "lia.simplex_pivots",
    "lia.row_touches",
    "lia.cut_rounds",
];

fn traced_run() -> (String, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_posr-e2e-bench"))
        .args([
            "--workload",
            "smt-session",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    let digest = stderr
        .lines()
        .find(|l| l.starts_with("inputs fnv64 "))
        .expect("digest line")
        .to_string();
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let json = stdout.lines().last().expect("result line");
    let counters = COUNTERS
        .iter()
        .map(|name| {
            let key = format!("\"{name}\": {{\"value\": ");
            let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
            let value: String = json[at..].chars().take_while(|&c| c != ',').collect();
            format!("{name}={value}")
        })
        .collect();
    (digest, counters)
}

#[test]
fn same_seed_same_inputs_and_counters() {
    let (digest_a, counters_a) = traced_run();
    let (digest_b, counters_b) = traced_run();
    assert_eq!(digest_a, digest_b);
    assert_eq!(counters_a, counters_b);
    assert!(counters_a
        .iter()
        .any(|c| c.starts_with("lia.conflicts=") && c != "lia.conflicts=0"));
}
