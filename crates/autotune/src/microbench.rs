//! Micro-benchmark harness for the dynamic tuner: generates (and caches)
//! tuning workloads and measures candidate configurations on the simulated
//! device through reusable [`SolveSession`]s.
//!
//! ## Cost-only pricing
//!
//! A candidate's simulated cost is a pure function of its plan and the
//! device: every kernel meter takes launch-shape arguments only. So the
//! harness prices a candidate with [`SolveSession::measure_metered`] —
//! meters only, no numerics, no upload, no tuning batch — whenever that is
//! provably the number the numeric solve would return, and falls back to a
//! full numeric [`SolveSession::measure`] otherwise. The metered path is
//! admitted when all three hold:
//!
//! 1. the device has no fault campaign, no sanitizer and no active stream
//!    (the hooks that act on data or stream state);
//! 2. [`analyze_plan`] certifies the plan — every access in bounds and
//!    every scattered write disjoint, so no write race and no scatter
//!    panic;
//! 3. [`certify_plan`] certifies the plan for the class of the tuning batch
//!    ([`WorkloadClass::Dominant`], what [`random_dominant`] generates) —
//!    every Thomas pivot bounded away from zero, so no numerical breakdown.
//!
//! Either way the candidate gets the same cost, so the tuner's search, its
//! output and the evaluation counts are unchanged; only the host time
//! differs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use trisolve_analyze::{analyze_plan, certify_plan, statically_rejected, StabilityCertificate};
use trisolve_core::engine::SolveSession;
use trisolve_core::kernels::{elem_bytes, GpuScalar};
use trisolve_core::{SolvePlan, SolverParams};
use trisolve_gpu_sim::Gpu;
use trisolve_obs::arg;
use trisolve_tridiag::workloads::{random_dominant, WorkloadClass, WorkloadShape};
use trisolve_tridiag::SystemBatch;

/// Deterministic seed for tuning workloads: tuning must be reproducible
/// run-to-run so the cache stays meaningful.
const TUNING_SEED: u64 = 0x0007_1215_017e;

/// The class [`random_dominant`] tuning batches belong to: the class the
/// metered path's stability proof is stated for.
const TUNING_CLASS: WorkloadClass = WorkloadClass::Dominant;

/// Generates and caches tuning workloads; measures configurations.
///
/// Both the workload batch *and* a [`SolveSession`] are cached per shape,
/// so the tuner's hot loop — hundreds of measurements over a handful of
/// shapes — pays for padding, plan construction and device allocation once
/// per shape instead of once per measurement. A harness is therefore tied
/// to the first [`Gpu`] it measures each shape on (sessions hold device
/// buffers); use one harness per device, as the tuners do.
pub struct Microbench<T: GpuScalar> {
    batches: HashMap<WorkloadShape, SystemBatch<T>>,
    sessions: HashMap<WorkloadShape, SolveSession<T>>,
    reuse_sessions: bool,
    /// Precision-safety gate: when set (and the scalar is f32), every
    /// runnable candidate's plan is certified against this workload class
    /// by the stability analyzer before being measured, and candidates
    /// whose certificate fails [`StabilityCertificate::precision_safe`]
    /// cost `+inf` — the numerics analogue of `statically_rejected`.
    /// `None` (the default) leaves the harness bit-identical to the
    /// ungated behaviour.
    stability_class: Option<WorkloadClass>,
    /// Whether the metered path may be used at all (tests turn it off to
    /// compare against the numeric path).
    metered: bool,
    /// Total configurations measured (for reporting tuning cost).
    pub measurements: usize,
    /// Measurements priced by the metered path (see the module docs); the
    /// other device-priced measurements ran the numerics.
    pub metered_measurements: usize,
    /// Measurements that hit at least one transient device fault (see
    /// [`trisolve_gpu_sim::fault`]). Each is retried up to
    /// [`FAULT_RETRIES`] times before the candidate is written off as
    /// unrunnable — the search then steps around it instead of aborting.
    pub faulted_measurements: usize,
    /// Candidates the static analyzer proved invalid before any simulated
    /// timing (see [`trisolve_analyze::statically_rejected`]). Each still
    /// counts as a measurement and costs `+inf` — exactly what the
    /// execution engine would have returned — so pruning changes *when*
    /// the verdict is known, never the search trajectory.
    pub pruned_candidates: usize,
    /// Candidates whose stability certificate passed the precision-safety
    /// gate (only counted while [`Self::with_stability_class`] is active).
    pub stability_certified: usize,
    /// Candidates the stability gate refused (priced `+inf` without
    /// touching the device).
    pub stability_refuted: usize,
    /// Refused f32 candidates that were numerically sound but over the f32
    /// error-bound threshold — the f64 path would have passed, so the
    /// refusal is a *precision downgrade* recommendation.
    pub precision_downgraded: usize,
}

/// Transient-fault retries per measurement before a candidate costs `+inf`.
pub const FAULT_RETRIES: usize = 2;

impl<T: GpuScalar> Default for Microbench<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: GpuScalar> std::fmt::Debug for Microbench<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Microbench")
            .field("cached_batches", &self.batches.len())
            .field("cached_sessions", &self.sessions.len())
            .field("reuse_sessions", &self.reuse_sessions)
            .field("measurements", &self.measurements)
            .field("metered_measurements", &self.metered_measurements)
            .finish()
    }
}

impl<T: GpuScalar> Microbench<T> {
    /// Fresh, empty harness.
    pub fn new() -> Self {
        Self {
            batches: HashMap::new(),
            sessions: HashMap::new(),
            reuse_sessions: true,
            stability_class: None,
            metered: true,
            measurements: 0,
            metered_measurements: 0,
            faulted_measurements: 0,
            pruned_candidates: 0,
            stability_certified: 0,
            stability_refuted: 0,
            precision_downgraded: 0,
        }
    }

    /// Enable the precision-safety gate for a workload class: f32
    /// candidates whose certified error bound fails
    /// [`trisolve_analyze::F32_SAFETY_THRESHOLD`] (or whose class refutes
    /// dominance outright) are priced `+inf` before any simulated timing,
    /// steering the tuner toward layouts and precisions the certifier
    /// accepts. Without this call the harness is bit-identical to the
    /// ungated behaviour.
    #[must_use]
    pub fn with_stability_class(mut self, class: WorkloadClass) -> Self {
        self.stability_class = Some(class);
        self
    }

    /// A harness that builds (and drops) a fresh session per measurement —
    /// the pre-engine behaviour, kept for the `tuner_session_reuse` bench
    /// so the reuse speedup stays visible in the perf trajectory.
    pub fn without_session_reuse() -> Self {
        Self {
            reuse_sessions: false,
            ..Self::new()
        }
    }

    /// The (cached) tuning batch for a workload shape.
    pub fn batch(&mut self, shape: WorkloadShape) -> &SystemBatch<T> {
        tuning_batch(&mut self.batches, shape)
    }

    /// Measure the simulated solve time of `params` on `shape`, in seconds.
    ///
    /// Configurations that cannot run (invalid on the device, numerical
    /// breakdown) cost `+inf`, so searches simply step around them.
    ///
    /// When the device has a tracer attached, every measurement emits one
    /// `"tuner"/"eval"` event carrying the candidate's parameters, its
    /// measured cost (`null` when unrunnable) and a `runnable` flag — the
    /// raw material for reconstructing the tuner's search tree. A candidate
    /// priced on the device also carries `priced_by` (`"metered"` or
    /// `"numeric"`, counted in `tuner_evals_metered` /
    /// `tuner_evals_numeric`) and, when numeric, the `numeric_reason` the
    /// metered path was refused.
    pub fn measure(
        &mut self,
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
        params: &SolverParams,
    ) -> f64 {
        let tracer = gpu.tracer().clone();
        // Static pre-check: a candidate the analyzer proves the engine
        // would reject (plan construction or launch validation) is priced
        // +inf without touching the device. `statically_rejected` mirrors
        // `SolveSession::plan_for` exactly, so the cost function — and
        // therefore the tuned output — is bit-identical to measuring it.
        let pruned = statically_rejected(shape, params, gpu.spec().queryable(), elem_bytes::<T>());
        // Precision-safety gate (opt-in): certify the surviving candidate's
        // plan for the declared workload class. Like `statically_rejected`,
        // the verdict is reached without touching the device.
        let stability = if pruned.is_none() {
            self.stability_check(gpu, shape, params)
        } else {
            None
        };
        let refused = stability.as_ref().is_some_and(|c| !c.precision_safe());
        let (cost, fault_retries, priced_by) = if pruned.is_some() {
            self.measurements += 1;
            self.pruned_candidates += 1;
            (f64::INFINITY, 0, None)
        } else if refused {
            self.measurements += 1;
            self.stability_refuted += 1;
            if stability
                .as_ref()
                .is_some_and(StabilityCertificate::precision_downgrade_recommended)
            {
                self.precision_downgraded += 1;
            }
            (f64::INFINITY, 0, None)
        } else {
            if stability.is_some() {
                self.stability_certified += 1;
            }
            let (cost, fault_retries, pricing) = self.measure_inner(gpu, shape, params);
            (cost, fault_retries, Some(pricing))
        };
        if tracer.is_enabled() {
            let mut args = vec![
                arg("systems", shape.num_systems),
                arg("size", shape.system_size),
                arg("stage1_target", params.stage1_target_systems),
                arg("onchip_size", params.onchip_size),
                arg("thomas_switch", params.thomas_switch),
                arg("variant", format!("{:?}", params.variant)),
                arg("layout", params.variant.layout_name()),
                arg("cost_s", cost),
                arg("runnable", cost.is_finite()),
                arg("fault_retries", fault_retries),
                arg("pruned", pruned.is_some()),
            ];
            // Only gated harnesses carry stability args/counters, so
            // ungated traces stay byte-identical to the pre-gate output.
            if let Some(cert) = &stability {
                args.push(arg("stability_refused", refused));
                args.push(arg("bound_rel", cert.bound_rel));
            }
            match priced_by {
                Some(Pricing::Metered) => {
                    args.push(arg("priced_by", "metered"));
                    tracer.counter_add("tuner_evals_metered", 1);
                }
                Some(Pricing::Numeric(reason)) => {
                    args.push(arg("priced_by", "numeric"));
                    args.push(arg("numeric_reason", reason));
                    tracer.counter_add("tuner_evals_numeric", 1);
                }
                None => {}
            }
            tracer.instant_now("tuner", "eval", args);
            tracer.counter_add("tuner_evals", 1);
            // Eval-latency histogram over runnable candidates (pruned and
            // refused ones are priced +inf, which is not a latency).
            if cost.is_finite() {
                tracer.observe("tuner_eval_ms", cost * 1e3);
            }
            if pruned.is_some() {
                tracer.counter_add("candidates_pruned", 1);
                tracer.counter_add("proofs_failed", 1);
            }
            if let Some(cert) = &stability {
                if refused {
                    tracer.counter_add("stability_refuted", 1);
                    if cert.precision_downgrade_recommended() {
                        tracer.counter_add("precision_downgraded", 1);
                    }
                } else {
                    tracer.counter_add("stability_certified", 1);
                }
            }
        }
        cost
    }

    /// Certify a candidate's plan for the gate's workload class. Returns
    /// `None` when the gate is off or the scalar is not f32 — the gate
    /// guards *single-precision* candidates, the precision the paper's
    /// pivot-free stages actually lose digits in.
    fn stability_check(
        &self,
        gpu: &Gpu<T>,
        shape: WorkloadShape,
        params: &SolverParams,
    ) -> Option<StabilityCertificate> {
        let class = self.stability_class?;
        let eb = elem_bytes::<T>();
        if eb > 4 {
            return None;
        }
        let plan = SolvePlan::build(shape, params, gpu.spec().queryable(), eb).ok()?;
        Some(certify_plan(&plan, class, eb))
    }

    fn measure_inner(
        &mut self,
        gpu: &mut Gpu<T>,
        shape: WorkloadShape,
        params: &SolverParams,
    ) -> (f64, usize, Pricing) {
        self.measurements += 1;
        if !self.reuse_sessions {
            // Pre-engine behaviour: a full one-shot solve per measurement —
            // fresh session, re-allocation, and a result download.
            let batch = tuning_batch(&mut self.batches, shape);
            let t = SolveSession::new(gpu, shape)
                .and_then(|mut s| s.solve(gpu, batch, params))
                .map(|o| o.sim_time_s);
            let pricing = Pricing::Numeric("session-per-measurement");
            return (t.unwrap_or(f64::INFINITY), 0, pricing);
        }
        let session = match self.sessions.entry(shape) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => match SolveSession::new(gpu, shape) {
                Ok(s) => v.insert(s),
                // The shape itself doesn't fit the device: every parameter
                // point is unrunnable.
                Err(_) => return (f64::INFINITY, 0, Pricing::Numeric("shape-does-not-fit")),
            },
        };
        let refusal = if self.metered {
            metered_refusal(gpu, session, params, TUNING_CLASS)
        } else {
            Some("metered-off")
        };
        let Some(reason) = refusal else {
            self.metered_measurements += 1;
            let t = session.measure_metered(gpu, params);
            return (t.unwrap_or(f64::INFINITY), 0, Pricing::Metered);
        };
        let batch = tuning_batch(&mut self.batches, shape);
        // Transient device faults (injected launch failures, timeouts) get
        // a short retry budget so one blip does not disqualify a good
        // candidate; a candidate still faulting afterwards is skipped
        // (+inf) rather than aborting the whole search.
        let mut fault_retries = 0usize;
        loop {
            match session.measure(gpu, batch, params) {
                Ok(t) => return (t, fault_retries, Pricing::Numeric(reason)),
                Err(e) if e.is_transient() && fault_retries < FAULT_RETRIES => {
                    if fault_retries == 0 {
                        self.faulted_measurements += 1;
                    }
                    fault_retries += 1;
                }
                // Deterministic failures (bad params, validation, algebra,
                // numerical breakdown) and transient faults past the retry
                // budget: unrunnable.
                Err(_) => return (f64::INFINITY, fault_retries, Pricing::Numeric(reason)),
            }
        }
    }

    /// Number of shapes with a live cached session.
    pub fn cached_sessions(&self) -> usize {
        self.sessions.len()
    }
}

/// How a device-priced measurement was taken.
#[derive(Debug, Clone, Copy)]
enum Pricing {
    /// Meters only ([`SolveSession::measure_metered`]).
    Metered,
    /// A full numeric solve, for the recorded reason.
    Numeric(&'static str),
}

/// The (cached) tuning batch for `shape`, generated on first use.
fn tuning_batch<T: GpuScalar>(
    batches: &mut HashMap<WorkloadShape, SystemBatch<T>>,
    shape: WorkloadShape,
) -> &SystemBatch<T> {
    batches
        .entry(shape)
        .or_insert_with(|| random_dominant(shape, TUNING_SEED).expect("valid tuning shape"))
}

/// Why `params` cannot be priced by the metered path on this device and
/// session, or `None` when the metered reading is provably the numeric one
/// for a batch of class `batch_class` (the three-part predicate of the
/// module docs).
fn metered_refusal<T: GpuScalar>(
    gpu: &Gpu<T>,
    session: &mut SolveSession<T>,
    params: &SolverParams,
    batch_class: WorkloadClass,
) -> Option<&'static str> {
    if gpu.faults_enabled() {
        return Some("fault-plan");
    }
    if gpu.sanitizing() {
        return Some("sanitizer");
    }
    if gpu.active_stream().is_some() {
        return Some("active-stream");
    }
    let eb = elem_bytes::<T>();
    let Ok(plan) = session.plan_for(params) else {
        return Some("plan-rejected");
    };
    if !analyze_plan(plan, gpu.spec().queryable(), eb).certified() {
        return Some("access-unproven");
    }
    if !certify_plan(plan, batch_class, eb).certified() {
        return Some("stability-unproven");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_core::{solver, BaseVariant};
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_obs::Tracer;

    #[test]
    fn measures_and_counts() {
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(32, 512);
        let p = SolverParams::default_untuned();
        let t1 = mb.measure(&mut gpu, shape, &p);
        let t2 = mb.measure(&mut gpu, shape, &p);
        assert!(t1.is_finite() && t1 > 0.0);
        assert_eq!(t1, t2); // deterministic
        assert_eq!(mb.measurements, 2);
        assert_eq!(mb.cached_sessions(), 1);
    }

    #[test]
    fn measurements_match_one_shot_solves() {
        let mut mb: Microbench<f64> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(8, 1024);
        let p = SolverParams::default_untuned();
        let t_session = mb.measure(&mut gpu, shape, &p);
        let batch = random_dominant::<f64>(shape, TUNING_SEED).unwrap();
        let mut fresh: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let t_one_shot = solver::measure_solve_time(&mut fresh, &batch, &p).unwrap();
        assert_eq!(t_session, t_one_shot);
    }

    #[test]
    fn invalid_configs_cost_infinity() {
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let shape = WorkloadShape::new(8, 1024);
        let p = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 1024, // too large for the 8800
            thomas_switch: 64,
            variant: BaseVariant::Strided,
        };
        assert!(mb.measure(&mut gpu, shape, &p).is_infinite());
        // The session survives the rejected point and keeps serving.
        assert!(mb
            .measure(&mut gpu, shape, &SolverParams::default_untuned())
            .is_finite());
        assert_eq!(mb.cached_sessions(), 1);
    }

    #[test]
    fn transient_faults_are_retried_not_fatal() {
        use trisolve_gpu_sim::FaultPlan;
        let mut mb: Microbench<f32> = Microbench::new();
        // One guaranteed launch failure, then a clean device: the harness
        // should absorb the fault, retry, and still produce a finite cost.
        let plan = FaultPlan::seeded(11)
            .with_launch_failures(1.0)
            .with_max_faults(1);
        let mut gpu = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
        let shape = WorkloadShape::new(16, 512);
        let p = SolverParams::default_untuned();
        let t = mb.measure(&mut gpu, shape, &p);
        assert!(t.is_finite(), "fault should be retried, got {t}");
        assert_eq!(mb.faulted_measurements, 1);
        assert_eq!(mb.measurements, 1);
        // A clean follow-up measurement does not count as faulted.
        let t2 = mb.measure(&mut gpu, shape, &p);
        assert!(t2.is_finite());
        assert_eq!(mb.faulted_measurements, 1);
    }

    #[test]
    fn persistent_faults_cost_infinity() {
        use trisolve_gpu_sim::FaultPlan;
        let mut mb: Microbench<f32> = Microbench::new();
        // Unbounded guaranteed failures: the retry budget runs out and the
        // candidate is priced out of the search instead of aborting it.
        let plan = FaultPlan::seeded(3).with_launch_failures(1.0);
        let mut gpu = Gpu::with_faults(DeviceSpec::gtx_470(), plan);
        let shape = WorkloadShape::new(16, 512);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_infinite());
        assert_eq!(mb.faulted_measurements, 1);
    }

    #[test]
    fn statically_rejected_candidates_are_pruned_not_measured() {
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let shape = WorkloadShape::new(8, 1024);
        let bad = SolverParams {
            stage1_target_systems: 16,
            onchip_size: 1024, // provably too large for the 8800
            thomas_switch: 64,
            variant: BaseVariant::Strided,
        };
        assert!(mb.measure(&mut gpu, shape, &bad).is_infinite());
        assert_eq!(mb.pruned_candidates, 1);
        assert_eq!(mb.measurements, 1); // still counts as an evaluation
        assert_eq!(mb.cached_sessions(), 0); // the device was never touched
                                             // A runnable candidate is measured, not pruned.
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_finite());
        assert_eq!(mb.pruned_candidates, 1);
        assert_eq!(mb.measurements, 2);
    }

    #[test]
    fn pruning_agrees_with_the_engine_verdict() {
        use trisolve_analyze::statically_rejected;
        // Exactness over a parameter sweep: a candidate is pruned iff the
        // un-pruned harness would have priced it +inf via plan rejection;
        // un-pruned candidates always measure finite on this shape.
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let shape = WorkloadShape::new(16, 2048);
        let q = gpu.spec().queryable().clone();
        for onchip in [64usize, 128, 256, 512, 1024] {
            let p = SolverParams {
                stage1_target_systems: 16,
                onchip_size: onchip,
                thomas_switch: 32,
                variant: BaseVariant::Strided,
            };
            let before = mb.pruned_candidates;
            let cost = mb.measure(&mut gpu, shape, &p);
            let pruned = mb.pruned_candidates > before;
            assert_eq!(
                pruned,
                statically_rejected(shape, &p, &q, 4).is_some(),
                "onchip={onchip}"
            );
            assert_eq!(pruned, cost.is_infinite(), "onchip={onchip}");
        }
        assert!(mb.pruned_candidates >= 1);
    }

    #[test]
    fn stability_gate_refuses_unsafe_f32_candidates() {
        use trisolve_tridiag::workloads::WorkloadClass;
        // A non-dominant class refutes every f32 candidate outright.
        let mut mb: Microbench<f32> =
            Microbench::new().with_stability_class(WorkloadClass::NonDominant { dominance: 0.85 });
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(32, 512);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_infinite());
        assert_eq!(mb.stability_refuted, 1);
        assert_eq!(mb.precision_downgraded, 0); // refuted, not downgradeable
        assert_eq!(mb.measurements, 1);
        assert_eq!(mb.cached_sessions(), 0); // the device was never touched

        // A dominant class certifies and the candidate is measured.
        let mut mb: Microbench<f32> =
            Microbench::new().with_stability_class(WorkloadClass::Dominant);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_finite());
        assert_eq!(mb.stability_certified, 1);
        assert_eq!(mb.stability_refuted, 0);
    }

    #[test]
    fn stability_gate_recommends_downgrades_for_ill_conditioned_f32() {
        use trisolve_tridiag::workloads::WorkloadClass;
        // Margin 1e-3 on a deeply split huge system: numerically sound, but
        // the certified f32 bound blows through the safety threshold — the
        // gate refuses and records a precision downgrade.
        let class = WorkloadClass::IllConditioned { margin: 1e-3 };
        let mut mb: Microbench<f32> = Microbench::new().with_stability_class(class);
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(1, 1 << 21);
        let t = mb.measure(&mut gpu, shape, &SolverParams::default_untuned());
        assert!(t.is_infinite());
        assert_eq!(mb.stability_refuted, 1);
        assert_eq!(mb.precision_downgraded, 1);
    }

    #[test]
    fn stability_gate_is_inert_for_f64_and_by_default() {
        use trisolve_tridiag::workloads::WorkloadClass;
        // f64: the gate never engages even when a class is declared.
        let mut mb: Microbench<f64> =
            Microbench::new().with_stability_class(WorkloadClass::NonDominant { dominance: 0.85 });
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
        let shape = WorkloadShape::new(32, 512);
        assert!(mb
            .measure(&mut gpu, shape, &SolverParams::default_untuned())
            .is_finite());
        assert_eq!(mb.stability_certified + mb.stability_refuted, 0);

        // Default harness: identical costs with and without a Dominant gate
        // (the gate only ever *adds* refusals, and Dominant has none here).
        let mut plain: Microbench<f32> = Microbench::new();
        let mut gated: Microbench<f32> =
            Microbench::new().with_stability_class(WorkloadClass::Dominant);
        let mut g1 = Gpu::new(DeviceSpec::gtx_470());
        let mut g2 = Gpu::new(DeviceSpec::gtx_470());
        let p = SolverParams::default_untuned();
        assert_eq!(
            plain.measure(&mut g1, shape, &p).to_bits(),
            gated.measure(&mut g2, shape, &p).to_bits()
        );
        assert_eq!(plain.stability_certified, 0);
        assert_eq!(gated.stability_certified, 1);
    }

    /// `(priced_by, numeric_reason)` of every `"tuner"/"eval"` event.
    fn pricing_args(tracer: &Tracer) -> Vec<(Option<String>, Option<String>)> {
        tracer
            .events()
            .iter()
            .filter(|e| e.cat == "tuner" && e.name == "eval")
            .map(|e| {
                (
                    e.arg_str("priced_by").map(str::to_string),
                    e.arg_str("numeric_reason").map(str::to_string),
                )
            })
            .collect()
    }

    #[test]
    fn provable_candidates_are_priced_by_meters_alone() {
        let shape = WorkloadShape::new(32, 512);
        let p = SolverParams::default_untuned();
        let mut mb: Microbench<f32> = Microbench::new();
        let mut gpu = Gpu::new(DeviceSpec::gtx_470());
        let tracer = Tracer::enabled();
        gpu.set_tracer(tracer.clone());
        let t = mb.measure(&mut gpu, shape, &p);
        assert!(t.is_finite());
        assert_eq!(mb.metered_measurements, 1);
        assert_eq!(mb.cached_sessions(), 1);
        assert!(mb.batches.is_empty(), "no tuning batch needed");
        assert_eq!(pricing_args(&tracer), [(Some("metered".into()), None)]);
        assert!(tracer.counters().contains(&("tuner_evals_metered", 1)));

        // The numeric path, forced, reads the same cost.
        let mut numeric: Microbench<f32> = Microbench::new();
        numeric.metered = false;
        let t_numeric = numeric.measure(&mut Gpu::new(DeviceSpec::gtx_470()), shape, &p);
        assert_eq!(t.to_bits(), t_numeric.to_bits());
        assert_eq!(numeric.metered_measurements, 0);
    }

    #[test]
    fn hooked_devices_and_unproven_plans_fall_back_to_numeric_pricing() {
        use trisolve_gpu_sim::FaultPlan;
        let shape = WorkloadShape::new(32, 512);
        let p = SolverParams::default_untuned();
        let clean =
            Microbench::<f32>::new().measure(&mut Gpu::new(DeviceSpec::gtx_470()), shape, &p);

        let dev = DeviceSpec::gtx_470;
        // An armed campaign whose rate never fires within one solve.
        let faulty = Gpu::with_faults(dev(), FaultPlan::seeded(5).with_launch_failures(1e-12));
        let mut streamed = Gpu::new(dev());
        let streams = streamed.enable_streams(1);
        streamed.set_stream(Some(streams[0]));
        let cases = [
            ("fault-plan", faulty),
            ("sanitizer", Gpu::with_sanitizer(dev())),
            ("active-stream", streamed),
        ];
        for (reason, mut gpu) in cases {
            let mut mb: Microbench<f32> = Microbench::new();
            let tracer = Tracer::enabled();
            gpu.set_tracer(tracer.clone());
            let t = mb.measure(&mut gpu, shape, &p);
            assert_eq!(t.to_bits(), clean.to_bits(), "{reason}");
            assert_eq!(mb.metered_measurements, 0, "{reason}");
            assert_eq!(
                pricing_args(&tracer),
                [(Some("numeric".into()), Some(reason.into()))]
            );
            assert!(tracer.counters().contains(&("tuner_evals_numeric", 1)));
        }

        // A batch class the stability certifier refuses (non-dominant rows
        // admit a zero Thomas pivot) keeps the numerics, while the same
        // plan on the dominant tuning batch is admitted.
        let mut gpu: Gpu<f32> = Gpu::new(dev());
        let mut session = SolveSession::new(&mut gpu, shape).unwrap();
        let non_dominant = WorkloadClass::NonDominant { dominance: 0.85 };
        let refusal = metered_refusal(&gpu, &mut session, &p, non_dominant);
        assert_eq!(refusal, Some("stability-unproven"));
        assert_eq!(metered_refusal(&gpu, &mut session, &p, TUNING_CLASS), None);
    }

    #[test]
    fn metered_tuning_matches_numeric_tuning_on_the_tune_cold_rotation() {
        use crate::tuners::DynamicTuner;
        use trisolve_core::kernels::GpuScalar;

        // Tune on a fresh traced device; return the config, the harness
        // counters, every launch's stats and the final clock.
        fn tune<T: GpuScalar>(
            dev: &DeviceSpec,
            shape: WorkloadShape,
            metered: bool,
        ) -> (crate::TunedConfig, [usize; 3], String, u64) {
            let mut gpu: Gpu<T> = Gpu::new(dev.clone());
            gpu.set_tracer(Tracer::enabled());
            let mut mb: Microbench<T> = Microbench::new();
            mb.metered = metered;
            let cfg = DynamicTuner::new().tune_for_with(&mut gpu, shape, &mut mb);
            let counts = [
                mb.measurements,
                mb.pruned_candidates,
                mb.metered_measurements,
            ];
            // Debug prints every f64 in shortest round-trip form, so equal
            // strings mean equal bits.
            let launches = format!("{:?}", gpu.timeline());
            (cfg, counts, launches, gpu.elapsed_s().to_bits())
        }

        fn check<T: GpuScalar>(dev: &DeviceSpec, shape: WorkloadShape) {
            let label = format!(
                "{} {} {}B",
                dev.queryable().name,
                shape.label(),
                elem_bytes::<T>()
            );
            let (num_cfg, num_counts, num_launches, num_clock) = tune::<T>(dev, shape, false);
            let (met_cfg, met_counts, met_launches, met_clock) = tune::<T>(dev, shape, true);
            assert_eq!(num_cfg, met_cfg, "{label}");
            assert_eq!(num_counts[..2], met_counts[..2], "{label}: evals, pruned");
            assert_eq!(num_counts[2], 0, "{label}");
            // Every candidate that reached the device was metered.
            assert_eq!(met_counts[2], met_counts[0] - met_counts[1], "{label}");
            assert_eq!(num_launches, met_launches, "{label}: launches");
            assert_eq!(num_clock, met_clock, "{label}: clock");
        }

        // The benchmark's `tune-cold` rotation.
        for dev in DeviceSpec::paper_devices() {
            for (m, n) in [(256, 256), (16_384, 64), (4, 65_536)] {
                check::<f32>(&dev, WorkloadShape::new(m, n));
                check::<f64>(&dev, WorkloadShape::new(m, n));
            }
        }
    }

    #[test]
    fn batches_are_cached() {
        let mut mb: Microbench<f32> = Microbench::new();
        let shape = WorkloadShape::new(4, 256);
        let p1 = mb.batch(shape) as *const _;
        let p2 = mb.batch(shape) as *const _;
        assert_eq!(p1, p2);
    }
}
