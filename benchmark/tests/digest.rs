//! Bit-identity of the simulated clock: two runs with one seed give
//! identical digests and identical sim-clock metrics, whether traced or
//! not; the seed-7 digests equal the committed ones; and a different seed
//! changes the inputs.

use std::process::Command;

/// The `-- digest` line and every sim-clock metric line of one run.
struct Run {
    sim: String,
    solution: String,
    inputs: String,
    sim_metrics: Vec<String>,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_trisolve-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("-- digest"))
        .expect("digest line");
    let field = |key: &str| {
        digest
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key))
            .unwrap_or_else(|| panic!("{key} in {digest}"))
            .to_string()
    };
    Run {
        sim: field("sim="),
        solution: field("solution="),
        inputs: field("inputs="),
        sim_metrics: stdout
            .lines()
            .filter(|l| l.contains("clock=sim"))
            .map(str::to_string)
            .collect(),
    }
}

/// Expected seed-7 digests: (workload, sim, solution, inputs). These gate
/// the simulated clock: a change that moves any sim-clock number or any
/// solution bit fails here. When a change is meant to move them, run
/// `cargo run --release --offline -- --workload <w> --seed 7 --seconds 0
/// --trace 0`, copy the `-- digest` line's values here, and say in the
/// change which sim metrics moved and why.
const EXPECTED: [(&str, &str, &str, &str); 4] = [
    (
        "adi-1k",
        "69133279e23100ec",
        "12eb876c98c10a04",
        "056f836877094fb1",
    ),
    (
        "single-2M",
        "7bcb4236dc0ffde5",
        "3ee2412be5008b0d",
        "6ba032e80f4235fe",
    ),
    (
        "tune-cold",
        "5241beeb8a35110b",
        "d37d3211570a6c1d",
        "beae5203cff0d652",
    ),
    (
        "serve-open",
        "7cee080b3c328abf",
        "a8ec966674149135",
        "e6575f6cda76c7b2",
    ),
];

fn check(workload: &str) {
    let a = run(workload, 7, false);
    let &(_, sim, solution, inputs) = EXPECTED
        .iter()
        .find(|e| e.0 == workload)
        .expect("expected digests");
    assert_eq!(
        (a.sim.as_str(), a.solution.as_str(), a.inputs.as_str()),
        (sim, solution, inputs),
        "{workload}: seed-7 digests differ from the committed ones"
    );
    let b = run(workload, 7, true);
    assert!(!a.sim_metrics.is_empty(), "{workload}: no sim metrics");
    assert_eq!(a.sim, b.sim, "{workload}: sim digest moved");
    assert_eq!(a.solution, b.solution, "{workload}: solution digest moved");
    assert_eq!(a.inputs, b.inputs, "{workload}: inputs moved");
    assert_eq!(
        a.sim_metrics, b.sim_metrics,
        "{workload}: sim metrics moved"
    );
    let c = run(workload, 8, false);
    assert_ne!(
        a.inputs, c.inputs,
        "{workload}: seed does not reach the inputs"
    );
}

#[test]
fn adi_1k_is_bit_identical_per_seed() {
    check("adi-1k");
}

#[test]
fn single_2m_is_bit_identical_per_seed() {
    check("single-2M");
}

#[test]
fn tune_cold_is_bit_identical_per_seed() {
    check("tune-cold");
}

#[test]
fn serve_open_is_bit_identical_per_seed() {
    check("serve-open");
}
