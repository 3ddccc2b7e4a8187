//! The pinned tuned configurations behind `adi-1k` and `single-2M`.
//!
//! Both workloads solve with a configuration the dynamic tuner recorded
//! once, so they measure the solver and the simulator, not the search.
//! Regenerate the files with
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --regenerate-pins
//! ```
//!
//! which re-tunes both shapes on a fresh simulated GTX 470 (f32) and
//! rewrites `benchmark/pinned/*.json`.

use trisolve_autotune::{DynamicTuner, StaticTuner, TunedConfig, Tuner};
use trisolve_core::{SolveSession, SolverParams};
use trisolve_gpu_sim::{DeviceSpec, Gpu};
use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

/// One pinned workload: its name, the shape the tuner saw, and the
/// committed configuration text.
pub struct Pin {
    pub name: &'static str,
    pub shape: WorkloadShape,
    text: &'static str,
}

/// `adi-1k` solves 1024 line systems of 1024 equations per half-sweep,
/// split into 4 pipelined batches of 256 systems.
pub const ADI: Pin = Pin {
    name: "adi-1k",
    shape: WorkloadShape {
        num_systems: 256,
        system_size: 1024,
    },
    text: include_str!("../pinned/adi-1k.json"),
};

/// `single-2M`: the paper's single system of 2^21 equations.
pub const SINGLE: Pin = Pin {
    name: "single-2M",
    shape: WorkloadShape {
        num_systems: 1,
        system_size: 1 << 21,
    },
    text: include_str!("../pinned/single-2M.json"),
};

impl Pin {
    /// Parse the committed configuration into solver parameters for the
    /// pinned shape.
    pub fn params(&self) -> Result<SolverParams, String> {
        let cfg: TunedConfig = serde_json::from_str(self.text)
            .map_err(|e| format!("pinned config {} does not parse: {e}", self.name))?;
        Ok(cfg.params_for(self.shape))
    }

    /// Fail loudly unless the pinned parameters still build a plan the
    /// engine accepts on `session`'s device. Returns the parameters.
    pub fn check(&self, session: &mut SolveSession<f32>) -> Result<SolverParams, String> {
        let params = self.params()?;
        session.plan_for(&params).map_err(|e| {
            format!(
                "pinned config {} no longer builds a valid plan ({e}); \
                 regenerate it with --regenerate-pins",
                self.name
            )
        })?;
        Ok(params)
    }
}

/// Re-tune both pinned shapes and rewrite the files under
/// `benchmark/pinned/`.
pub fn regenerate() -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("pinned");
    for pin in [ADI, SINGLE] {
        let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_470());
        let mut tuner = DynamicTuner::new();
        let cfg = tuner.tune_for(&mut gpu, pin.shape);
        let tuned = cfg.params_for(pin.shape);
        let fixed = StaticTuner.params_for(pin.shape, gpu.spec().queryable(), 4);
        let batch = random_dominant::<f32>(pin.shape, 1).map_err(|e| e.to_string())?;
        let mut session = SolveSession::new(&mut gpu, pin.shape).map_err(|e| e.to_string())?;
        let sim_ms = |gpu: &mut Gpu<f32>, s: &mut SolveSession<f32>, p: &SolverParams| {
            s.measure(gpu, &batch, p)
                .map(|t| t * 1e3)
                .unwrap_or(f64::NAN)
        };
        let t_tuned = sim_ms(&mut gpu, &mut session, &tuned);
        let t_static = sim_ms(&mut gpu, &mut session, &fixed);
        let text = serde_json::to_string_pretty(&cfg).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}.json", pin.name));
        std::fs::write(&path, format!("{text}\n")).map_err(|e| e.to_string())?;
        println!(
            "{}: {} evaluations, tuned {tuned:?} = {t_tuned:.3} sim ms, static {fixed:?} = \
             {t_static:.3} sim ms -> {}",
            pin.name,
            cfg.evaluations,
            path.display()
        );
    }
    Ok(())
}
