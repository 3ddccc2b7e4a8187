//! `adi-1k`: the 2-D heat equation on a 1024×1024 grid, stepped with ADI.
//!
//! One op is one time step: a row half-sweep, then a column half-sweep.
//! Each half-sweep builds the 1024 implicit line systems on the host,
//! solves them as 4 equal batches through the two-stream pipelined path
//! (`SolveSession::solve_pipelined`), checks the residual of every batch
//! and scatters the solution back into the grid. After the window the
//! benchmark replays the same number of steps with CPU Thomas and
//! compares the final grids.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use trisolve_core::{lower_schedule, NodeAction, ResiliencePolicy, SolvePlan, SolveSession};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::cpu_batch::{solve_batch_sequential, BatchAlgorithm};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::SystemBatch;

use crate::gpustats::LaunchDelta;
use crate::harness::{
    all_finite, end_to_end, engine_setup_metrics, max_or_nan, median, within, Clock, Ctx, Digest,
    Metric, Report, PREFIX_OPS,
};
use crate::pins;

/// Grid side: N×N unknowns, N line systems of N equations per half-sweep.
const N: usize = 1024;
/// Pipelined batches per half-sweep (equal splits of the N lines).
const BATCHES: usize = 4;
/// Diffusion number `α·Δt/Δx²` of each implicit half-step.
const R: f32 = 0.4;
/// Set-ups per run. Each ends with one warm-up half-sweep, so the device
/// buffers are touched and the timed steps all run warm.
const SETUPS: usize = 3;
/// Final-grid agreement with the CPU Thomas stepper: max |Δu| over the
/// grid may be at most this share of max |u|. Both steppers round in f32
/// and the ADI step contracts errors, so disagreement stays at a few ulps
/// of the field however many steps run.
const GRID_TOL: f64 = 1e-4;

/// The implicit systems `(I − R·δ²)u' = u` of lines `first..first+count`
/// along rows (`along_x`) or columns.
fn line_systems(u: &[f32], along_x: bool, first: usize, count: usize) -> SystemBatch<f32> {
    let total = count * N;
    let mut a = vec![-R; total];
    let b = vec![1.0 + 2.0 * R; total];
    let mut c = vec![-R; total];
    let mut d = vec![0.0f32; total];
    for l in 0..count {
        let line = first + l;
        a[l * N] = 0.0;
        c[l * N + N - 1] = 0.0;
        let row = &mut d[l * N..(l + 1) * N];
        if along_x {
            row.copy_from_slice(&u[line * N..(line + 1) * N]);
        } else {
            for (i, v) in row.iter_mut().enumerate() {
                *v = u[i * N + line];
            }
        }
    }
    SystemBatch::new(count, N, a, b, c, d).expect("valid ADI batch")
}

fn sweep_batches(u: &[f32], along_x: bool) -> Vec<SystemBatch<f32>> {
    let per = N / BATCHES;
    (0..BATCHES)
        .map(|k| line_systems(u, along_x, k * per, per))
        .collect()
}

/// Write solved lines back into the grid; `xs` holds consecutive batches
/// of whole lines.
fn scatter(u: &mut [f32], xs: &[Vec<f32>], along_x: bool) {
    let lines = xs.iter().flat_map(|x| x.chunks_exact(N));
    for (line, src) in lines.enumerate() {
        if along_x {
            u[line * N..(line + 1) * N].copy_from_slice(src);
        } else {
            for (i, v) in src.iter().enumerate() {
                u[i * N + line] = *v;
            }
        }
    }
}

/// The seeded initial field: uniform noise in [0, 100).
fn initial_field(seed: u64) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xad1_1c0de);
    (0..N * N).map(|_| rng.gen_range(0.0f32..100.0)).collect()
}

struct Setup {
    gpu: Gpu<f32>,
    session: SolveSession<f32>,
    params: trisolve_core::SolverParams,
    plan: SolvePlan,
    u0: Vec<f32>,
}

/// Sim-clock record of one step.
#[derive(Default)]
struct StepSim {
    wall_ms: f64,
    serial_ms: f64,
    h2d_bytes: f64,
    launches: LaunchDelta,
    residual: f64,
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report {
        workload: "adi-1k".into(),
        ..Report::default()
    };
    let spans = &ctx.spans;
    let (built, setup) = ctx.setup(SETUPS, |_| {
        let u0 = initial_field(ctx.opts.seed);
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut session = spans
            .time("engine.session_new", || {
                SolveSession::new(&mut gpu, pins::ADI.shape)
            })
            .map_err(|e| format!("session: {e}"))?;
        let params = spans.time("engine.plan_first", || pins::ADI.check(&mut session))?;
        let plan = session
            .plan_for(&params)
            .map_err(|e| e.to_string())?
            .clone();
        // A row half-sweep of the initial field, discarded.
        let batches = sweep_batches(&u0, true);
        spans
            .time("engine.warmup", || {
                session.solve_pipelined(&mut gpu, &batches, &params)
            })
            .map_err(|e| format!("warm-up sweep: {e}"))?;
        Ok(Setup {
            gpu,
            session,
            params,
            plan,
            u0,
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
    inputs.f32s(&st.u0);
    report.input_digest = inputs.hex();

    let tol = ResiliencePolicy::for_elem_bytes(4).residual_tolerance;
    let mut u = st.u0.clone();
    let mut sims: Vec<StepSim> = Vec::new();
    let mut prefix_grid = Digest::default();
    let mut step_failures: Vec<Vec<String>> = Vec::new();
    let mut steps = 0usize;
    let window = ctx.window(|i, traced| {
        st.gpu.set_tracer(ctx.tracer_for(traced));
        let mut sim = StepSim::default();
        let mut failures = Vec::new();
        for along_x in [true, false] {
            let batches = sweep_batches(&u, along_x);
            let violations = spans.time("schedule.lower_check", || {
                lower_schedule(&st.plan, BATCHES, 2).check()
            });
            if !violations.is_empty() {
                failures.push(format!("step {i}: schedule rejected: {violations:?}"));
            }
            let mark = st.gpu.timeline().len();
            let out = spans.time("engine.solve_pipelined", || {
                st.session
                    .solve_pipelined(&mut st.gpu, &batches, &st.params)
            });
            sim.launches
                .add(&LaunchDelta::of(&st.gpu.timeline()[mark..]));
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    failures.push(format!("step {i}: solve_pipelined: {e}"));
                    break;
                }
            };
            if !out.xs.iter().all(|x| all_finite(x)) {
                failures.push(format!("step {i}: solution is not finite"));
            }
            let worst = spans.time("tridiag.residual", || {
                batches
                    .iter()
                    .zip(&out.xs)
                    .map(|(b, x)| batch_worst_relative_residual(b, x).unwrap_or(f64::INFINITY))
                    .fold(0.0f64, max_or_nan)
            });
            if !within(worst, tol) {
                failures.push(format!("step {i}: residual {worst:e} over {tol:e}"));
            }
            scatter(&mut u, &out.xs, along_x);
            let uploads = out
                .schedule
                .nodes
                .iter()
                .filter(|n| matches!(n.action, NodeAction::H2d { .. }))
                .count();
            let per_batch = (N / BATCHES) * N * std::mem::size_of::<f32>();
            sim.wall_ms += out.wall_s * 1e3;
            sim.serial_ms += out.serial_s * 1e3;
            sim.h2d_bytes += (uploads * 4 * per_batch) as f64;
            sim.residual = max_or_nan(sim.residual, worst);
        }
        if i + 1 == PREFIX_OPS {
            prefix_grid.f32s(&u);
        }
        sims.push(sim);
        step_failures.push(failures);
        steps += 1;
    });
    st.gpu.set_tracer(ctx.tracer_for(false));
    // Every step is one checked op; any failed sub-check fails the step.
    for f in step_failures {
        report.record(f);
    }

    // CPU reference: the same recurrence, stepped with plain Thomas.
    let mut v = st.u0.clone();
    let mut cpu_ms = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut step_ms = 0.0;
        for along_x in [true, false] {
            let batch = line_systems(&v, along_x, 0, N);
            let t0 = std::time::Instant::now();
            let x = solve_batch_sequential(&batch, BatchAlgorithm::Thomas).expect("CPU Thomas");
            step_ms += t0.elapsed().as_secs_f64() * 1e3;
            scatter(&mut v, &[x], along_x);
        }
        cpu_ms.push(step_ms);
    }
    // NaN-propagating folds: a NaN anywhere in either grid fails the check.
    let scale = v
        .iter()
        .fold(0.0f64, |m, x| max_or_nan(m, f64::from(x.abs())));
    let worst = u
        .iter()
        .zip(&v)
        .fold(0.0f64, |m, (a, b)| max_or_nan(m, f64::from((a - b).abs())));
    report.check(within(worst, GRID_TOL * scale), || {
        format!(
            "final grid after {steps} steps differs from CPU Thomas by {worst:e} \
             (tolerance {:e})",
            GRID_TOL * scale
        )
    });

    // Digests and sim-clock metrics over the deterministic prefix.
    let first = &sims[0];
    let mut sim_digest = Digest::default();
    let sim_metrics = vec![
        Metric::new("sim_op_ms", "ms", Clock::Sim, first.wall_ms, 1),
        Metric::new("gpusim.serial_sim_ms", "ms", Clock::Sim, first.serial_ms, 1),
        Metric::new(
            "gpusim.copy_sim_ms",
            "ms",
            Clock::Sim,
            first.serial_ms - first.launches.kernel_ms,
            1,
        ),
        Metric::new(
            "gpusim.overlap_ratio",
            "ratio",
            Clock::Sim,
            1.0 - first.wall_ms / first.serial_ms,
            1,
        ),
        Metric::new(
            "gpusim.h2d_mib_per_op",
            "MiB",
            Clock::Sim,
            first.h2d_bytes / f64::from(1u32 << 20),
            1,
        ),
        Metric::new(
            "gpusim.gmem_payload_mib",
            "MiB",
            Clock::Sim,
            first.launches.payload_bytes / f64::from(1u32 << 20),
            1,
        ),
        Metric::new(
            "gpusim.launches_per_op",
            "count",
            Clock::Sim,
            first.launches.launches as f64,
            1,
        ),
        Metric::new(
            "tridiag.worst_residual",
            "ratio",
            Clock::None,
            first.residual,
            1,
        ),
    ];
    let mut detail = sim_metrics;
    for (fam, ms) in &first.launches.family_ms {
        detail.push(Metric::new(
            format!("gpusim.kernel_sim_ms.{fam}"),
            "ms",
            Clock::Sim,
            *ms,
            1,
        ));
    }
    for s in &sims[..PREFIX_OPS.min(sims.len())] {
        sim_digest.f64(s.wall_ms);
        sim_digest.f64(s.serial_ms);
        sim_digest.f64(s.launches.kernel_ms);
        sim_digest.f64(s.launches.payload_bytes);
        sim_digest.u64(s.launches.launches as u64);
    }
    report.sim_digest = sim_digest.hex();
    report.solution_digest = prefix_grid.hex();

    let equations = (steps * 2 * N * N) as f64;
    report.end_to_end = end_to_end(setup, &window, equations);

    // Host-clock layers, from the traced ops.
    let solve = ctx.spans.traced_ms(&window, "engine.solve_pipelined");
    let launches: Vec<f64> = window
        .traced_ops()
        .iter()
        .map(|&i| sims[i].launches.launches as f64)
        .collect();
    let per_launch_us: Vec<f64> = solve
        .iter()
        .zip(&launches)
        .map(|(ms, n)| ms * 1e3 / n)
        .collect();
    let residual = ctx.spans.traced_ms(&window, "tridiag.residual");
    let lower = ctx.spans.traced_ms(&window, "schedule.lower_check");
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
            Metric::new(
                "schedule.lower_check_us",
                "us",
                Clock::Host,
                median(&lower) * 1e3,
                lower.len(),
            ),
        ]);
        detail.extend(engine_setup_metrics(spans));
    }
    detail.push(Metric::new(
        "check.grid_vs_cpu_rel",
        "ratio",
        Clock::None,
        worst / scale,
        1,
    ));
    report.detail = detail;
    crate::layers::finish(ctx, &window, &solve, &cpu_ms, &mut report);
    report
}
