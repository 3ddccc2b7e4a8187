//! The `trisolve sanitize` harness: run every shipping kernel across the
//! paper's workload matrix under the dynamic sanitizer (see
//! [`trisolve_gpu_sim::sanitizer`]) and prove the tooling itself works by
//! first detecting four *injected* hazards.
//!
//! Two halves, mirroring `compute-sanitizer` practice:
//!
//! 1. **Fixture self-check** — synthetic kernels each containing one planted
//!    defect (an out-of-bounds access, an uninitialized read, an
//!    inter-barrier shared-memory race) plus one invalid launch
//!    configuration. Each must be *detected* and classified correctly; a
//!    sanitizer that misses its own fixtures proves nothing about clean
//!    runs.
//! 2. **Shipping sweep** — the multi-stage solver (both staged memory
//!    layouts), the interleaved batched-Thomas fast path on a many-small
//!    batch, the repack/unpack passes and the three prior-art baseline
//!    kernels over the Figure 5–8 workload grid, in both precisions, on
//!    the paper's devices. Every case must come back hazard-free and
//!    launch-valid.
//!
//! The harness is a library so the CI gate (`scripts/check.sh`), the
//! integration tests and the CLI subcommand all run the same code.

use trisolve_autotune::{StaticTuner, Tuner};
use trisolve_core::engine::SolveSession;
use trisolve_core::kernels::{
    baseline_solve, elem_bytes, repack_chains, unpack_solution, BaselineAlgo, Exec, GpuScalar,
};
use trisolve_core::{BaseVariant, SolverParams};
use trisolve_gpu_sim::{
    validate_launch, DeviceSpec, Gpu, HazardKind, LaunchConfig, OutMode, SanitizerReport,
};
use trisolve_tridiag::norms::batch_worst_relative_residual;
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

/// Deterministic seed for sweep workloads (the paper's publication year,
/// like the bench harness).
pub const SANITIZE_SEED: u64 = 2011;

/// Outcome of one injected-hazard fixture.
#[derive(Debug, Clone)]
pub struct FixtureOutcome {
    /// Fixture name (what was planted).
    pub name: &'static str,
    /// Did the sanitizer detect and correctly classify the planted hazard?
    pub detected: bool,
    /// The diagnostic the sanitizer produced (or why detection failed).
    pub detail: String,
}

/// Outcome of one shipping-kernel sweep case.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Human-readable case label (device, workload, precision, kernel set).
    pub label: String,
    /// Kernel launches the sanitizer checked.
    pub launches: usize,
    /// Rendered hazards (empty for a clean case).
    pub hazards: Vec<String>,
    /// Static launch-validation warnings (non-fatal).
    pub warnings: Vec<String>,
}

impl CaseResult {
    /// True when the case produced no hazard (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }
}

/// Options for the shipping sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Devices to sweep (defaults to all three paper devices).
    pub devices: Vec<DeviceSpec>,
    /// Linear shrink applied to the paper's workload grid so the sweep
    /// stays fast; 1 = the full Figure 5–8 sizes.
    pub shrink: usize,
    /// Sweep f32 as well as f64.
    pub both_precisions: bool,
}

impl SweepOptions {
    /// The full matrix: all devices, both precisions, moderately shrunk.
    pub fn full() -> Self {
        Self {
            devices: DeviceSpec::paper_devices(),
            shrink: 8,
            both_precisions: true,
        }
    }

    /// The CI smoke matrix: one device, f64 only, heavily shrunk.
    pub fn quick() -> Self {
        Self {
            devices: vec![DeviceSpec::gtx_470()],
            shrink: 16,
            both_precisions: false,
        }
    }
}

/// The canonical many-small workload (64K systems of 32 unknowns),
/// batch-shrunk for dynamic solves. The system size stays 32 — already
/// minimal — and the batch keeps the interleaved plan's 32-system floor,
/// so the shrunk shape still builds the `interleave → ithomas →
/// deinterleave` pipeline.
pub fn shrunk_many_small(shrink: usize) -> WorkloadShape {
    let full = WorkloadShape::new(64 * 1024, 32);
    WorkloadShape::new((full.num_systems / shrink.max(1)).max(32), full.system_size)
}

/// The Figure 5–8 workload grid, linearly shrunk (system sizes keep a 512
/// floor so multi-stage plans still exercise every stage).
pub fn shrunk_paper_grid(shrink: usize) -> Vec<WorkloadShape> {
    WorkloadShape::paper_grid()
        .into_iter()
        .map(|s| {
            WorkloadShape::new(
                (s.num_systems / shrink).max(1),
                (s.system_size / shrink).max(512),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fixture self-check
// ---------------------------------------------------------------------------

fn first_of(report: &SanitizerReport, want: &[HazardKind]) -> (bool, String) {
    match report.hazards.iter().find(|h| want.contains(&h.kind)) {
        Some(h) => (true, h.to_string()),
        None => (
            false,
            format!("planted hazard not detected: {}", report.summary()),
        ),
    }
}

fn oob_fixture() -> Result<FixtureOutcome, String> {
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    let input = gpu.alloc_from(&[1.0; 32]).map_err(|e| e.to_string())?;
    let out = gpu.alloc(32).map_err(|e| e.to_string())?;
    gpu.launch(
        &LaunchConfig::new("fixture[oob]", 1, 32),
        &[input],
        &[(out, OutMode::Scattered)],
        |_ctx, io| {
            // Planted defect: the input has 32 elements, index 99 is OOB.
            let _ = io.load(0, 99, 3, "fixture::oob_load");
        },
    )
    .map_err(|e| e.to_string())?;
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    let (detected, detail) = first_of(&report, &[HazardKind::OutOfBounds]);
    Ok(FixtureOutcome {
        name: "out-of-bounds load",
        detected: detected && detail.contains("99"),
        detail,
    })
}

fn uninit_fixture() -> Result<FixtureOutcome, String> {
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    // Planted defect: a fresh allocation is never uploaded or written.
    let never_written = gpu.alloc(32).map_err(|e| e.to_string())?;
    let out = gpu.alloc(32).map_err(|e| e.to_string())?;
    gpu.launch(
        &LaunchConfig::new("fixture[uninit]", 1, 32),
        &[never_written],
        &[(out, OutMode::Scattered)],
        |_ctx, io| {
            let v = io.load(0, 5, 5, "fixture::uninit_load");
            io.scattered[0].set_at(5, v, 5, "fixture::store");
        },
    )
    .map_err(|e| e.to_string())?;
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    let (detected, detail) = first_of(&report, &[HazardKind::UninitializedRead]);
    Ok(FixtureOutcome {
        name: "uninitialized read",
        detected,
        detail,
    })
}

fn race_fixture() -> Result<FixtureOutcome, String> {
    let mut gpu: Gpu<f32> = Gpu::with_sanitizer(DeviceSpec::gtx_470());
    let input = gpu.alloc_from(&[1.0; 32]).map_err(|e| e.to_string())?;
    let out = gpu.alloc(32).map_err(|e| e.to_string())?;
    gpu.launch(
        &LaunchConfig::new("fixture[race]", 1, 32).with_shared_mem(32 * 4),
        &[input],
        &[(out, OutMode::Scattered)],
        |ctx, io| {
            // Planted defect: threads 0 and 1 store shared element 7 with no
            // barrier between the stores.
            ctx.track_smem_write(7, 0, "fixture::first_store");
            ctx.track_smem_write(7, 1, "fixture::second_store");
            ctx.sync();
            io.scattered[0].set_at(0, 0.0, 0, "fixture::store");
        },
    )
    .map_err(|e| e.to_string())?;
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    let (detected, detail) = first_of(
        &report,
        &[HazardKind::RaceWriteWrite, HazardKind::RaceReadWrite],
    );
    Ok(FixtureOutcome {
        name: "inter-barrier shared-memory race",
        detected,
        detail,
    })
}

fn invalid_launch_fixture() -> FixtureOutcome {
    let q = DeviceSpec::gtx_470().queryable().clone();
    // Planted defect: 4096 threads per block exceeds every device's limit.
    let cfg = LaunchConfig::new("fixture[invalid-config]", 64, 4096);
    let report = validate_launch(&q, &cfg);
    let detail = report.errors().next().map_or_else(
        || "validation passed an invalid config".into(),
        ToString::to_string,
    );
    FixtureOutcome {
        name: "invalid launch configuration",
        detected: report.has_errors(),
        detail,
    }
}

/// Run the four injected-hazard fixtures. Each plants exactly one defect
/// class; a correct sanitizer detects all four.
pub fn fixture_checks() -> Result<Vec<FixtureOutcome>, String> {
    Ok(vec![
        oob_fixture()?,
        uninit_fixture()?,
        race_fixture()?,
        invalid_launch_fixture(),
    ])
}

// ---------------------------------------------------------------------------
// Shipping sweep
// ---------------------------------------------------------------------------

fn report_case(label: String, launches: usize, report: &SanitizerReport) -> CaseResult {
    let mut hazards: Vec<String> = report.hazards.iter().map(ToString::to_string).collect();
    if report.dropped > 0 {
        hazards.push(format!(
            "{} further hazards dropped past the cap",
            report.dropped
        ));
    }
    CaseResult {
        label,
        launches,
        hazards,
        warnings: Vec::new(),
    }
}

/// One full multi-stage solve under the sanitizer, with the memory-layout
/// variant forced. Public because the `analyze` harness and the soundness
/// integration tests re-run statically-certified cases through it and
/// fail on any dynamic hazard.
pub fn solve_case<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    variant: BaseVariant,
    precision: &str,
) -> Result<CaseResult, String> {
    let label = format!(
        "{} {} {} {:?}",
        dev.name(),
        shape.label(),
        precision,
        variant
    );
    let batch = random_dominant::<T>(shape, SANITIZE_SEED).map_err(|e| e.to_string())?;
    let params = SolverParams {
        variant,
        ..StaticTuner.params_for(shape, dev.queryable(), elem_bytes::<T>())
    };
    let mut gpu: Gpu<T> = Gpu::with_sanitizer(dev.clone());
    let mut session = SolveSession::new(&mut gpu, shape).map_err(|e| format!("{label}: {e}"))?;
    let outcome = session
        .solve(&mut gpu, &batch, &params)
        .map_err(|e| format!("{label}: {e}"))?;
    let residual = batch_worst_relative_residual(&batch, &outcome.x).map_err(|e| e.to_string())?;
    if !residual.is_finite() {
        return Err(format!("{label}: non-finite residual"));
    }
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    let mut case = report_case(label, report.launches_checked, &report);
    if let Some(v) = session.validation_for(&params) {
        case.warnings = v.warnings().map(ToString::to_string).collect();
    }
    Ok(case)
}

/// The repack/unpack transpose passes under the sanitizer.
fn repack_case<T: GpuScalar>(dev: &DeviceSpec, precision: &str) -> Result<CaseResult, String> {
    let (m, n, stride) = (4usize, 2048usize, 4usize);
    let label = format!(
        "{} repack/unpack {}x{}@{} {}",
        dev.name(),
        m,
        n,
        stride,
        precision
    );
    let shape = WorkloadShape::new(m, n);
    let batch = random_dominant::<T>(shape, SANITIZE_SEED).map_err(|e| e.to_string())?;
    let mut gpu: Gpu<T> = Gpu::with_sanitizer(dev.clone());
    let err = |e: trisolve_gpu_sim::SimError| e.to_string();
    let src = [
        gpu.alloc_from(&batch.a).map_err(err)?,
        gpu.alloc_from(&batch.b).map_err(err)?,
        gpu.alloc_from(&batch.c).map_err(err)?,
        gpu.alloc_from(&batch.d).map_err(err)?,
    ];
    let dst = [
        gpu.alloc(m * n).map_err(err)?,
        gpu.alloc(m * n).map_err(err)?,
        gpu.alloc(m * n).map_err(err)?,
        gpu.alloc(m * n).map_err(err)?,
    ];
    repack_chains(&mut gpu, Exec::Numeric, src, dst, m, n, stride)
        .map_err(|e| format!("{label}: {e}"))?;
    // Unpack the repacked right-hand side as a stand-in solution vector.
    let x_out = gpu.alloc(m * n).map_err(err)?;
    unpack_solution(&mut gpu, Exec::Numeric, dst[3], x_out, m, n, stride)
        .map_err(|e| format!("{label}: {e}"))?;
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    Ok(report_case(label, report.launches_checked, &report))
}

/// The three prior-art baseline kernels under the sanitizer. Baselines are
/// whole-system on-chip solvers, so they run at unit stride on systems small
/// enough to fit every device's block limits.
fn baseline_case<T: GpuScalar>(dev: &DeviceSpec, precision: &str) -> Result<CaseResult, String> {
    let (m, n, stride) = (8usize, 256usize, 1usize);
    let chain_len = n / stride;
    let label = format!(
        "{} baselines {}@{} {}",
        dev.name(),
        chain_len,
        stride,
        precision
    );
    let shape = WorkloadShape::new(m, n);
    let batch = random_dominant::<T>(shape, SANITIZE_SEED).map_err(|e| e.to_string())?;
    let mut gpu: Gpu<T> = Gpu::with_sanitizer(dev.clone());
    let err = |e: trisolve_gpu_sim::SimError| e.to_string();
    let src = [
        gpu.alloc_from(&batch.a).map_err(err)?,
        gpu.alloc_from(&batch.b).map_err(err)?,
        gpu.alloc_from(&batch.c).map_err(err)?,
        gpu.alloc_from(&batch.d).map_err(err)?,
    ];
    for algo in [
        BaselineAlgo::Pcr,
        BaselineAlgo::Cr,
        BaselineAlgo::CrPcr { pcr_threshold: 64 },
    ] {
        let x = gpu.alloc(m * n).map_err(err)?;
        baseline_solve(&mut gpu, src, x, m, n, chain_len, stride, algo)
            .map_err(|e| format!("{label}: {e}"))?;
    }
    let report = gpu.take_sanitizer_report().expect("sanitizer is on");
    Ok(report_case(label, report.launches_checked, &report))
}

fn sweep_device<T: GpuScalar>(
    dev: &DeviceSpec,
    shapes: &[WorkloadShape],
    many_small: WorkloadShape,
    precision: &str,
    out: &mut Vec<CaseResult>,
) -> Result<(), String> {
    for &shape in shapes {
        for variant in [BaseVariant::Strided, BaseVariant::Coalesced] {
            out.push(solve_case::<T>(dev, shape, variant, precision)?);
        }
    }
    // The interleaved batched-Thomas fast path, forced on a many-small
    // batch — the only shape class whose plan admits the layout.
    out.push(solve_case::<T>(
        dev,
        many_small,
        BaseVariant::Interleaved,
        precision,
    )?);
    out.push(repack_case::<T>(dev, precision)?);
    out.push(baseline_case::<T>(dev, precision)?);
    Ok(())
}

/// Run the shipping sweep. Every returned case lists the hazards found;
/// shipping kernels are expected to produce none.
pub fn sweep(opts: &SweepOptions) -> Result<Vec<CaseResult>, String> {
    let shapes = shrunk_paper_grid(opts.shrink);
    let many_small = shrunk_many_small(opts.shrink);
    let mut out = Vec::new();
    for dev in &opts.devices {
        sweep_device::<f64>(dev, &shapes, many_small, "f64", &mut out)?;
        if opts.both_precisions {
            sweep_device::<f32>(dev, &shapes, many_small, "f32", &mut out)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrunk_grid_keeps_shape_floors() {
        let g = shrunk_paper_grid(1024);
        assert_eq!(g.len(), WorkloadShape::paper_grid().len());
        assert!(g.iter().all(|s| s.num_systems >= 1 && s.system_size >= 512));
    }

    #[test]
    fn shrunk_many_small_keeps_the_interleaved_batch_floor() {
        assert_eq!(shrunk_many_small(16), WorkloadShape::new(4096, 32));
        // Even an absurd shrink never drops below the plan builder's
        // 32-system floor for the interleaved layout.
        assert_eq!(shrunk_many_small(1 << 20), WorkloadShape::new(32, 32));
    }

    #[test]
    fn all_fixtures_detected() {
        for f in fixture_checks().unwrap() {
            assert!(f.detected, "{}: {}", f.name, f.detail);
        }
    }
}
