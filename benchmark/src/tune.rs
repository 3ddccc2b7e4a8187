//! `tune-cold`: one op runs the rotation {256×256, 16K×64, 4×64K}. For
//! each shape it builds a fresh device, harness and tuner (no cache, no
//! plan database), tunes with `DynamicTuner::tune_for_with`, then does one
//! verified solve with the tuned parameters.
//!
//! 256×256 exercises the on-chip/Thomas/variant phases, 16K×64 the
//! many-small layout resolution, and 4×64K the stage-1 target search.

use trisolve_analyze::{certify_plan, prune_onchip_axis, ONCHIP_SEARCH_CEILING};
use trisolve_autotune::{DynamicTuner, Microbench};
use trisolve_core::{lower_schedule, ResiliencePolicy, SolveSession};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::workloads::{random_dominant, WorkloadClass, WorkloadShape};
use trisolve_tridiag::SystemBatch;

use crate::harness::{
    all_finite, cpu_thomas_ms, end_to_end, median, within, Clock, Ctx, Digest, Metric, Report,
    PREFIX_OPS,
};

/// The rotation, as (label, systems, size).
const ROTATION: [(&str, usize, usize); 3] = [
    ("256x256", 256, 256),
    ("16Kx64", 16_384, 64),
    ("4x64K", 4, 65_536),
];

/// Set-ups per run: input generation only, since every op starts cold.
const SETUPS: usize = 5;
/// CPU Thomas reference repetitions (outside the timed window).
const CPU_REPS: usize = 3;

/// Deterministic (sim-clock) outcome of tuning and solving one shape.
#[derive(Clone, Default)]
struct ShapeSim {
    evals: usize,
    /// Candidates priced without touching the device: the harness's
    /// statically rejected ones plus the on-chip axis values the analyzer
    /// removed before the search.
    pruned: usize,
    /// Candidates considered: the harness's measurements plus the pruned
    /// axis values.
    considered: usize,
    tuned_sim_ms: f64,
    config: String,
    x_digest: String,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report {
        workload: "tune-cold".into(),
        ..Report::default()
    };
    let spans = &ctx.spans;
    let (batches, setup) = ctx.setup(SETUPS, |_| {
        ROTATION
            .iter()
            .enumerate()
            .map(|(k, &(_, m, n))| {
                random_dominant::<f32>(WorkloadShape::new(m, n), ctx.opts.seed ^ (k as u64 + 1))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<SystemBatch<f32>>, String>>()
    });
    let batches = match batches {
        Ok(b) => b,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };
    let mut inputs = Digest::default();
    for b in &batches {
        for v in [&b.a, &b.b, &b.c, &b.d] {
            inputs.f32s(v);
        }
    }
    report.input_digest = inputs.hex();

    let tol = ResiliencePolicy::for_elem_bytes(4).residual_tolerance;
    let mut sims: Vec<Vec<ShapeSim>> = Vec::new();
    // Per op, the host ms `tune_for_with` took for each shape.
    let mut tune_ms: Vec<Vec<f64>> = Vec::new();
    let mut op_failures: Vec<Vec<String>> = Vec::new();
    let window = ctx.window(|i, traced| {
        let mut failures = Vec::new();
        let mut op_sims = Vec::new();
        let mut op_tune_ms = Vec::new();
        for (&(label, m, n), batch) in ROTATION.iter().zip(&batches) {
            let shape = WorkloadShape::new(m, n);
            let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
            gpu.set_tracer(ctx.tracer_for(traced));
            let mut mb: Microbench<f32> = Microbench::new();
            let mut tuner = DynamicTuner::new();
            let t0 = std::time::Instant::now();
            let cfg = spans.time("autotune.tune_for_with", || {
                tuner.tune_for_with(&mut gpu, shape, &mut mb)
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let params = cfg.params_for(shape);
            let q = gpu.spec().queryable().clone();
            let prune = spans.time("analyze.prune_onchip_axis", || {
                prune_onchip_axis(&q, 4, ONCHIP_SEARCH_CEILING)
            });
            let mut sim = ShapeSim {
                evals: cfg.evaluations,
                pruned: mb.pruned_candidates + prune.pruned.len(),
                considered: mb.measurements + prune.pruned.len(),
                config: format!("{cfg:?}|{:?}", prune.pruned),
                ..ShapeSim::default()
            };
            let solved = (|| -> Result<(), String> {
                let mut session = spans
                    .time("engine.session_new", || SolveSession::new(&mut gpu, shape))
                    .map_err(|e| format!("session: {e}"))?;
                let plan = spans
                    .time("engine.plan_for", || session.plan_for(&params).cloned())
                    .map_err(|e| format!("tuned plan rejected: {e}"))?;
                let cert = spans.time("analyze.certify_plan", || {
                    certify_plan(&plan, WorkloadClass::Dominant, 4)
                });
                if !cert.precision_safe() {
                    return Err(format!("tuned plan not certified: {cert:?}"));
                }
                let violations = spans.time("schedule.lower_check", || {
                    lower_schedule(&plan, 2, 2).check()
                });
                if !violations.is_empty() {
                    return Err(format!("schedule rejected: {violations:?}"));
                }
                let out = spans
                    .time("engine.solve", || session.solve(&mut gpu, batch, &params))
                    .map_err(|e| format!("solve: {e}"))?;
                if !all_finite(&out.x) {
                    return Err("solution is not finite".into());
                }
                let worst = spans.time("tridiag.residual", || {
                    batch_worst_relative_residual(batch, &out.x).unwrap_or(f64::INFINITY)
                });
                if !within(worst, tol) {
                    return Err(format!("residual {worst:e} over {tol:e}"));
                }
                let mut d = Digest::default();
                d.f32s(&out.x);
                sim.tuned_sim_ms = out.sim_time_s * 1e3;
                sim.x_digest = d.hex();
                Ok(())
            })();
            if let Err(e) = solved {
                failures.push(format!("op {i} {label}: {e}"));
            }
            op_sims.push(sim);
            op_tune_ms.push(ms);
        }
        sims.push(op_sims);
        tune_ms.push(op_tune_ms);
        op_failures.push(failures);
    });
    for f in op_failures {
        report.record(f);
    }

    let cpu_ms: Vec<f64> = (0..CPU_REPS)
        .map(|_| batches.iter().map(cpu_thomas_ms).sum())
        .collect();

    let mut sim_digest = Digest::default();
    let mut solution = Digest::default();
    for op in &sims[..PREFIX_OPS] {
        for s in op {
            sim_digest.u64(s.evals as u64);
            sim_digest.u64(s.pruned as u64);
            sim_digest.u64(s.considered as u64);
            sim_digest.f64(s.tuned_sim_ms);
            sim_digest.str(&s.config);
            solution.str(&s.x_digest);
        }
    }
    report.sim_digest = sim_digest.hex();
    report.solution_digest = solution.hex();

    let first = &sims[0];
    let pruned: usize = first.iter().map(|s| s.pruned).sum();
    let considered: usize = first.iter().map(|s| s.considered).sum();
    let mut detail = vec![
        Metric::new(
            "sim_op_ms",
            "ms",
            Clock::Sim,
            first.iter().map(|s| s.tuned_sim_ms).sum(),
            1,
        ),
        Metric::new(
            "autotune.pruned_frac",
            "ratio",
            Clock::None,
            pruned as f64 / considered as f64,
            considered,
        ),
    ];
    for (&(label, ..), s) in ROTATION.iter().zip(first) {
        detail.push(Metric::new(
            format!("autotune.tuned_sim_ms.{label}"),
            "ms",
            Clock::Sim,
            s.tuned_sim_ms,
            1,
        ));
        detail.push(Metric::new(
            format!("autotune.evals.{label}"),
            "count",
            Clock::None,
            s.evals as f64,
            1,
        ));
    }

    let per_op_eqs: usize = ROTATION.iter().map(|&(_, m, n)| m * n).sum();
    let equations = (window.ops() * per_op_eqs) as f64;
    report.end_to_end = end_to_end(setup, &window, equations);

    // Host time per shape, over the untraced ops (the tuner runs the same
    // search every op, so these are like-for-like samples).
    let untraced: Vec<usize> = (0..window.ops()).filter(|&i| !window.traced[i]).collect();
    let evals_per_op: usize = first.iter().map(|s| s.evals).sum();
    for (k, &(label, ..)) in ROTATION.iter().enumerate() {
        let ms: Vec<f64> = untraced.iter().map(|&i| tune_ms[i][k]).collect();
        detail.push(Metric::new(
            format!("autotune.tune_ms.{label}"),
            "ms",
            Clock::Host,
            median(&ms),
            ms.len(),
        ));
    }
    let tune_total: Vec<f64> = untraced
        .iter()
        .map(|&i| tune_ms[i].iter().sum::<f64>())
        .collect();
    detail.push(Metric::new(
        "autotune.ms_per_eval",
        "ms",
        Clock::Host,
        median(&tune_total) / evals_per_op as f64,
        tune_total.len(),
    ));
    let solve = ctx.spans.traced_ms(&window, "engine.solve");
    if ctx.opts.trace {
        let us = |name: &str| {
            let v = ctx.spans.traced_ms(&window, name);
            (median(&v) * 1e3, v.len())
        };
        let (prune_us, n1) = us("analyze.prune_onchip_axis");
        let (certify_us, n2) = us("analyze.certify_plan");
        let (lower_us, n3) = us("schedule.lower_check");
        let residual = ctx.spans.traced_ms(&window, "tridiag.residual");
        detail.extend([
            Metric::new(
                "engine.solve_ms",
                "ms",
                Clock::Host,
                median(&solve),
                solve.len(),
            ),
            Metric::new("analyze.prune_us", "us", Clock::Host, prune_us, n1),
            Metric::new("analyze.certify_plan_us", "us", Clock::Host, certify_us, n2),
            Metric::new("schedule.lower_check_us", "us", Clock::Host, lower_us, n3),
            Metric::new(
                "tridiag.residual_ms",
                "ms",
                Clock::Host,
                median(&residual),
                residual.len(),
            ),
        ]);
    }
    report.detail = detail;
    crate::layers::finish(ctx, &window, &solve, &cpu_ms, &mut report);
    report
}
