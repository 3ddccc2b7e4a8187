//! The three GPU kernels of the multi-stage solver, written against the
//! simulator's launch API.
//!
//! Every kernel both *computes* (real arithmetic on real buffers, verified
//! against the CPU reference algorithms) and *meters* its memory traffic,
//! arithmetic and synchronisation so the simulator can time it. The metering
//! calls are the performance model of the real CUDA kernels; the analytic
//! expectations they encode are checked by the tests in this module tree.
//!
//! Every meter call takes launch-shape arguments only, never data, so a
//! launch's simulated cost is a pure function of its shape. Each kernel
//! family therefore states its per-block meter sequence once, in a plain
//! function of the block context and the launch geometry, and runs it in
//! one of two [`Exec`] modes: inside the numeric kernel, interleaved with
//! the arithmetic, or alone through
//! [`Gpu::launch_metered`](trisolve_gpu_sim::Gpu::launch_metered). Both
//! modes call the same function, so their `KernelStats` cannot drift.

pub mod access;
pub mod base;
pub mod baselines;
pub mod interleaved;
pub mod recurrence;
pub mod repack;
pub mod stage1;
pub mod stage2;

pub use access::{
    base_access_summary, baseline_access_summary, deinterleave_access_summary,
    interleave_access_summary, ithomas_access_summary, repack_access_summary,
    stage1_access_summary, stage2_access_summary, unpack_access_summary, AffineMap, AffineTerm,
    BarrierInterval, GlobalAccess, KernelAccessSummary, SmemAccess, SmemOwner,
};
pub use base::{base_config, base_solve};
pub use baselines::{baseline_config, baseline_solve, BaselineAlgo};
pub use interleaved::{
    deinterleave_config, deinterleave_solution, interleave_batch, interleave_config,
    ithomas_config, ithomas_solve,
};
pub use recurrence::{
    base_recurrence_summary, deinterleave_recurrence_summary, interleave_recurrence_summary,
    ithomas_recurrence_summary, stage1_recurrence_summary, stage2_recurrence_summary,
    RecurrenceKind, RecurrenceSummary, PCR_ROUNDING_OPS_PER_ROW, THOMAS_ROUNDING_OPS_PER_ROW,
};
pub use repack::{repack_chains, repack_config, unpack_config, unpack_solution};
pub use stage1::{stage1_config, stage1_step};
pub use stage2::{stage2_config, stage2_split};

use crate::Result;
use trisolve_gpu_sim::{
    BlockCtx, BlockIo, BufferId, Element, Gpu, KernelStats, LaunchConfig, OutMode,
};
use trisolve_tridiag::Scalar;

/// Scalars usable on the simulated GPU (`f32`, `f64`).
pub trait GpuScalar: Scalar + Element {}
impl<T: Scalar + Element> GpuScalar for T {}

/// Element width in bytes of a GPU scalar (disambiguates the `BYTES`
/// constants that both `Scalar` and `Element` define — they agree for every
/// implementor).
pub fn elem_bytes<T: GpuScalar>() -> usize {
    <T as Element>::BYTES
}

/// The four coefficient buffers `(a, b, c, d)` as one handle bundle.
pub type CoeffBuffers = [trisolve_gpu_sim::BufferId; 4];

/// How a kernel launch runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Compute the results and meter the work (the only mode that writes
    /// output buffers).
    Numeric,
    /// Run only the kernel's per-block meter sequence: identical
    /// `KernelStats` and simulated clock, output buffers untouched. Exact
    /// only when the numeric launch would succeed — no numerical breakdown,
    /// no scattered-write race or out-of-bounds write — which the caller
    /// must have proved.
    Metered,
}

impl Exec {
    /// Launch `cfg` in this mode: `kernel` (numerics plus meters) through
    /// [`Gpu::launch`], or `meter` alone through [`Gpu::launch_metered`].
    pub(crate) fn launch<T: GpuScalar>(
        self,
        gpu: &mut Gpu<T>,
        cfg: &LaunchConfig,
        inputs: &[BufferId],
        outputs: &[(BufferId, OutMode)],
        meter: impl Fn(&mut BlockCtx),
        kernel: impl Fn(&mut BlockCtx, &mut BlockIo<'_, T>) + Sync,
    ) -> Result<KernelStats> {
        Ok(match self {
            Exec::Numeric => gpu.launch(cfg, inputs, outputs, kernel)?,
            Exec::Metered => gpu.launch_metered(cfg, inputs, outputs, meter)?,
        })
    }
}
