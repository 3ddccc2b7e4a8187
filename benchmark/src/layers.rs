//! The per-layer metrics every workload reports in a traced run, and the
//! Chrome trace export that puts the benchmark's host spans next to the
//! program's simulated-clock spans.

use std::fmt::Write as _;

use trisolve_obs::chrome_trace;

use crate::harness::{median, Clock, Ctx, Metric, Report, Window};

/// Fill `report.per_layer` (the set named in BENCHMARK.json) and
/// `report.span_cover`, and in a traced run write the Chrome trace.
///
/// * `solve_ms`: per traced op, host ms inside the library call that
///   solves (the workload's solve entry point);
/// * `cpu_thomas_ms`: samples of plain CPU Thomas on the op's inputs, run
///   outside the timed window.
pub fn finish(ctx: &Ctx, w: &Window, solve_ms: &[f64], cpu_thomas_ms: &[f64], report: &mut Report) {
    let ops = w.traced_ops();
    let all = ctx.spans.all();
    report.span_cover = ops
        .iter()
        .map(|&i| {
            let inside: f64 = all
                .iter()
                .filter(|s| s.op == Some(i))
                .map(|s| s.dur_us / 1e3)
                .sum();
            inside / w.op_ms[i]
        })
        .collect();
    let outside: Vec<f64> = ops
        .iter()
        .zip(solve_ms)
        .map(|(&i, s)| w.op_ms[i] - s)
        .collect();
    let untraced = median(&w.untraced_ms());
    let overhead = median(&w.traced_ms()) / untraced - 1.0;
    report.per_layer = vec![
        Metric::new(
            "span.cover_frac",
            "ratio",
            Clock::Host,
            median(&report.span_cover),
            ops.len(),
        ),
        Metric::new(
            "obs.trace_overhead_frac",
            "ratio",
            Clock::Host,
            overhead,
            w.ops(),
        ),
        Metric::new(
            "solve_call_ms",
            "ms",
            Clock::Host,
            median(solve_ms),
            ops.len(),
        ),
        Metric::new(
            "outside_solve_ms",
            "ms",
            Clock::Host,
            median(&outside),
            ops.len(),
        ),
        Metric::new(
            "tridiag.cpu_thomas_ms",
            "ms",
            Clock::Host,
            median(cpu_thomas_ms),
            cpu_thomas_ms.len(),
        ),
    ];
    if ctx.opts.trace {
        match write_trace(ctx, w, &report.workload) {
            Ok(path) => report.trace_file = Some(path),
            Err(e) => report.fail(format!("chrome trace export: {e}")),
        }
    }
}

/// One Chrome trace: pid 0 is the program's simulated clock (the
/// `obs::Tracer` export, unchanged), pid 1 the benchmark's host clock (one
/// row of op spans, one row of public-call spans). Timestamps are µs of
/// their own clock.
fn write_trace(ctx: &Ctx, w: &Window, workload: &str) -> Result<String, String> {
    let sim = chrome_trace(&ctx.tracer.events(), &ctx.tracer.counters());
    let body = sim
        .strip_suffix("]}")
        .ok_or("unexpected chrome_trace document shape")?;
    let mut out = String::with_capacity(sim.len() + 64 * ctx.spans.all().len());
    out.push_str(body);
    let meta = [
        (0, "process_name", "sim clock (simulated us)"),
        (1, "process_name", "host clock (benchmark us)"),
    ];
    for (pid, kind, name) in meta {
        let _ = write!(
            out,
            ",{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (tid, name) in [(0, "ops"), (1, "public calls")] {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for (i, (&start, &ms)) in w.op_start_us.iter().zip(&w.op_ms).enumerate() {
        if w.traced[i] {
            let _ = write!(
                out,
                ",{{\"name\":\"op {i}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{start:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{}}}}",
                ms * 1e3
            );
        }
    }
    for s in ctx.spans.all() {
        let op = s.op.map_or("\"setup\"".to_string(), |i| i.to_string());
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"op\":{op}}}}}",
            s.name, s.start_us, s.dur_us
        );
    }
    out.push_str("]}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{workload}-seed{}.json", ctx.opts.seed));
    std::fs::write(&path, out).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}
