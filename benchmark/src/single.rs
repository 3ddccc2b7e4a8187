//! `single-2M`: the paper's single system of 2,097,152 equations, solved
//! repeatedly on the synchronous path with `SolveSession::solve_resilient`.
//!
//! The only shape that reaches stage-1 cooperative splitting and the
//! stage-2 global PCR launches. The synchronous path charges no PCIe time,
//! so the simulated figure is kernel time only.

use trisolve_core::{ResiliencePolicy, SolveSession, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::workloads::random_dominant;
use trisolve_tridiag::SystemBatch;

use crate::gpustats::LaunchDelta;
use crate::harness::{
    all_finite, cpu_thomas_ms, end_to_end, engine_setup_metrics, mean, median, within, Clock, Ctx,
    Digest, Metric, Report, PREFIX_OPS,
};
use crate::pins;

/// Set-ups per run. Each ends with one warm-up solve, so the device
/// buffers are touched and the timed ops all run warm.
const SETUPS: usize = 3;
/// CPU Thomas reference repetitions (outside the timed window).
const CPU_REPS: usize = 3;

struct Setup {
    gpu: Gpu<f32>,
    session: SolveSession<f32>,
    params: SolverParams,
    batch: SystemBatch<f32>,
}

/// What one op returned.
struct SolveRecord {
    sim_ms: f64,
    launches: LaunchDelta,
    attempts: usize,
    first_try: bool,
    x_digest: String,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report {
        workload: "single-2M".into(),
        ..Report::default()
    };
    let spans = &ctx.spans;
    let shape = pins::SINGLE.shape;
    let policy = ResiliencePolicy::for_elem_bytes(4);
    let (built, setup) = ctx.setup(SETUPS, |_| {
        let batch = random_dominant::<f32>(shape, ctx.opts.seed).map_err(|e| e.to_string())?;
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = spans
            .time("engine.session_new", || SolveSession::new(&mut gpu, shape))
            .map_err(|e| format!("session: {e}"))?;
        let params = spans.time("engine.plan_first", || pins::SINGLE.check(&mut session))?;
        spans
            .time("engine.warmup", || {
                session.solve_resilient(&mut gpu, &batch, &params, &policy)
            })
            .map_err(|e| format!("warm-up solve: {e}"))?;
        Ok::<_, String>(Setup {
            gpu,
            session,
            params,
            batch,
        })
    });
    let mut st = match built {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || e);
            return report;
        }
    };
    let mut inputs = Digest::default();
    for v in [&st.batch.a, &st.batch.b, &st.batch.c, &st.batch.d] {
        inputs.f32s(v);
    }
    report.input_digest = inputs.hex();

    let mut records: Vec<SolveRecord> = Vec::new();
    let mut op_failures: Vec<Vec<String>> = Vec::new();
    let window = ctx.window(|i, traced| {
        st.gpu.set_tracer(ctx.tracer_for(traced));
        let mut failures = Vec::new();
        let out = spans.time("engine.solve_resilient", || {
            st.session
                .solve_resilient(&mut st.gpu, &st.batch, &st.params, &policy)
        });
        let rec = match out {
            Ok(ro) => {
                if !all_finite(&ro.outcome.x) {
                    failures.push(format!("op {i}: solution is not finite"));
                }
                let worst = spans.time("tridiag.residual", || {
                    batch_worst_relative_residual(&st.batch, &ro.outcome.x).unwrap_or(f64::INFINITY)
                });
                if !within(worst, policy.residual_tolerance) {
                    failures.push(format!(
                        "op {i}: residual {worst:e} over {:e}",
                        policy.residual_tolerance
                    ));
                }
                let mut d = Digest::default();
                d.f32s(&ro.outcome.x);
                SolveRecord {
                    sim_ms: ro.outcome.sim_time_s * 1e3,
                    launches: LaunchDelta::of(&ro.outcome.kernel_stats),
                    attempts: ro.attempts,
                    first_try: ro.first_try(),
                    x_digest: d.hex(),
                }
            }
            Err(e) => {
                failures.push(format!("op {i}: solve_resilient: {e}"));
                SolveRecord {
                    sim_ms: f64::NAN,
                    launches: LaunchDelta::default(),
                    attempts: 0,
                    first_try: false,
                    x_digest: String::new(),
                }
            }
        };
        records.push(rec);
        op_failures.push(failures);
    });
    st.gpu.set_tracer(ctx.tracer_for(false));
    for f in op_failures {
        report.record(f);
    }

    let cpu_ms: Vec<f64> = (0..CPU_REPS).map(|_| cpu_thomas_ms(&st.batch)).collect();

    let first = &records[0];
    let mut sim_digest = Digest::default();
    let mut solution = Digest::default();
    for r in &records[..PREFIX_OPS] {
        sim_digest.f64(r.sim_ms);
        sim_digest.f64(r.launches.kernel_ms);
        sim_digest.f64(r.launches.payload_bytes);
        sim_digest.u64(r.launches.launches as u64);
        solution.str(&r.x_digest);
    }
    report.sim_digest = sim_digest.hex();
    report.solution_digest = solution.hex();

    let attempts: Vec<f64> = records.iter().map(|r| r.attempts as f64).collect();
    let first_try: Vec<f64> = records
        .iter()
        .map(|r| f64::from(u8::from(r.first_try)))
        .collect();
    let mut detail = vec![
        Metric::new("sim_op_ms", "ms", Clock::Sim, first.sim_ms, 1),
        Metric::new(
            "gpusim.launches_per_op",
            "count",
            Clock::Sim,
            first.launches.launches as f64,
            1,
        ),
        Metric::new(
            "gpusim.gmem_payload_mib",
            "MiB",
            Clock::Sim,
            first.launches.payload_bytes / f64::from(1u32 << 20),
            1,
        ),
        // The synchronous path moves nothing over PCIe.
        Metric::new("gpusim.h2d_mib_per_op", "MiB", Clock::Sim, 0.0, 1),
        Metric::new("gpusim.copy_sim_ms", "ms", Clock::Sim, 0.0, 1),
        Metric::new("gpusim.overlap_ratio", "ratio", Clock::Sim, 0.0, 1),
        Metric::new(
            "resilience.attempts_per_solve",
            "count",
            Clock::None,
            mean(&attempts),
            attempts.len(),
        ),
        Metric::new(
            "resilience.first_try_frac",
            "ratio",
            Clock::None,
            mean(&first_try),
            first_try.len(),
        ),
    ];
    for (fam, ms) in &first.launches.family_ms {
        detail.push(Metric::new(
            format!("gpusim.kernel_sim_ms.{fam}"),
            "ms",
            Clock::Sim,
            *ms,
            1,
        ));
    }

    let equations = (window.ops() * shape.num_systems * shape.system_size) as f64;
    report.end_to_end = end_to_end(setup, &window, equations);

    let solve = ctx.spans.traced_ms(&window, "engine.solve_resilient");
    let per_launch_us: Vec<f64> = window
        .traced_ops()
        .iter()
        .zip(&solve)
        .map(|(&i, ms)| ms * 1e3 / records[i].launches.launches as f64)
        .collect();
    let residual = ctx.spans.traced_ms(&window, "tridiag.residual");
    if ctx.opts.trace {
        detail.extend([
            Metric::new(
                "engine.solve_ms",
                "ms",
                Clock::Host,
                median(&solve),
                solve.len(),
            ),
            Metric::new(
                "gpusim.host_us_per_launch",
                "us",
                Clock::Host,
                median(&per_launch_us),
                per_launch_us.len(),
            ),
            Metric::new(
                "tridiag.residual_ms",
                "ms",
                Clock::Host,
                median(&residual),
                residual.len(),
            ),
        ]);
        detail.extend(engine_setup_metrics(spans));
    }
    report.detail = detail;
    crate::layers::finish(ctx, &window, &solve, &cpu_ms, &mut report);
    report
}
