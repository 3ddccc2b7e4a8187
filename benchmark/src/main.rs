//! Two-clock benchmark for trisolve.
//!
//! ```text
//! trisolve-benchmark --workload <adi-1k|single-2M|tune-cold|serve-open|all>
//!                    --seed <n> --seconds <s> --trace <0|1>
//! trisolve-benchmark --regenerate-pins
//! ```
//!
//! Prints every metric with its clock, unit and sample count, the
//! workload's digests, and as the last line one JSON object with the
//! metrics named in `BENCHMARK.json` (end-to-end ones untraced, per-layer
//! ones with `--trace 1`). `--workload all` runs each workload in its own
//! child process, one after the other. See SCOPE.md.

mod adi;
mod gpustats;
mod harness;
mod layers;
mod pins;
mod serve;
mod single;
mod tune;

use std::process::{Command, ExitCode};
use std::time::Instant;

use harness::{peak_rss_mib, Clock, Metric, Options};

const WORKLOADS: [&str; 4] = ["adi-1k", "single-2M", "tune-cold", "serve-open"];

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("trisolve-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.regenerate_pins {
        return match pins::regenerate() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("trisolve-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.workload == "all" {
        return run_all(&args);
    }
    let trace = opts.trace;
    let ctx = harness::Ctx::new(opts, origin);
    let mut report = match ctx.opts.workload.as_str() {
        "adi-1k" => adi::run(&ctx),
        "single-2M" => single::run(&ctx),
        "tune-cold" => tune::run(&ctx),
        "serve-open" => serve::run(&ctx),
        other => {
            eprintln!(
                "trisolve-benchmark: unknown workload {other} (one of {} or all)",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    };
    report.detail.push(Metric::new(
        "peak_rss_mib",
        "MiB",
        Clock::Host,
        peak_rss_mib(),
        1,
    ));
    let reported = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let bad: Vec<String> = reported
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        report.fail(format!("metric {name} is not a finite number"));
    }
    print!("{}", report.render(trace));
    println!("{}", report.json(trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process with the same options, one
/// after the other, and fail if any child fails.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trisolve-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w])
            .args(&rest)
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
