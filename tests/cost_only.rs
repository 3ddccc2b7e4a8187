//! Cost-only execution is exact: pricing a plan with metered launches
//! (`SolveSession::measure_metered`) reports the same simulated time, the
//! same per-launch `KernelStats` and the same device clock, bit for bit, as
//! the numeric measurement it replaces — on every paper device, in both
//! precisions, over adversarial shapes and random (shape, params) points.

use proptest::prelude::*;
use trisolve::prelude::*;
use trisolve::solver::kernels::GpuScalar;
use trisolve::solver::params::INTERLEAVED_MIN_SYSTEMS;

/// Measure `params` on `shape` numerically and metered, each on a fresh
/// device, and assert the two agree bit for bit. Returns whether the
/// point was runnable (a plan both paths reject is fine).
fn assert_metered_exact<T: GpuScalar>(
    dev: &DeviceSpec,
    shape: WorkloadShape,
    params: &SolverParams,
) -> bool {
    let batch = random_dominant::<T>(shape, 0xC057).unwrap();
    let mut num_gpu: Gpu<T> = Gpu::new(dev.clone());
    let mut met_gpu: Gpu<T> = Gpu::new(dev.clone());
    let sessions = (
        SolveSession::new(&mut num_gpu, shape),
        SolveSession::new(&mut met_gpu, shape),
    );
    let (Ok(mut num_session), Ok(mut met_session)) = sessions else {
        let (a, b) = sessions;
        assert!(a.is_err() && b.is_err(), "session verdicts differ");
        return false;
    };
    let num = num_session.measure(&mut num_gpu, &batch, params);
    let met = met_session.measure_metered(&mut met_gpu, params);
    let label = format!("{} {} {params:?}", dev.queryable().name, shape.label());
    match (num, met) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: measured time");
            // Debug prints every f64 in shortest round-trip form, so equal
            // strings mean equal bits.
            let stats = |g: &Gpu<T>| format!("{:?}", g.timeline());
            assert_eq!(stats(&num_gpu), stats(&met_gpu), "{label}: launches");
            assert_eq!(
                num_gpu.elapsed_s().to_bits(),
                met_gpu.elapsed_s().to_bits(),
                "{label}: clock"
            );
            true
        }
        (Err(_), Err(_)) => false,
        (a, b) => panic!("{label}: numeric {a:?} vs metered {b:?}"),
    }
}

fn params(p1: usize, s3: usize, t4: usize, variant: BaseVariant) -> SolverParams {
    SolverParams {
        stage1_target_systems: p1,
        onchip_size: s3,
        thomas_switch: t4,
        variant,
    }
}

/// Shapes where the planner's edge cases live: one to three systems or
/// equations, sizes that pad to the next power of two, sizes at the
/// on-chip limit of each device, and batches just around the interleaved
/// floor.
fn adversarial_shapes() -> Vec<WorkloadShape> {
    let mut shapes = Vec::new();
    for tiny in [1usize, 2, 3] {
        for other in [1usize, 2, 3, 5, 100, 1000, 4097] {
            shapes.push(WorkloadShape::new(tiny, other));
            shapes.push(WorkloadShape::new(other, tiny));
        }
    }
    for n in [511usize, 512, 1023, 1024, 2048] {
        shapes.push(WorkloadShape::new(3, n));
    }
    for m in [INTERLEAVED_MIN_SYSTEMS - 1, INTERLEAVED_MIN_SYSTEMS, 100] {
        shapes.push(WorkloadShape::new(m, 64));
    }
    shapes
}

fn adversarial_params() -> Vec<SolverParams> {
    let mut out = vec![SolverParams::default_untuned()];
    for variant in [
        BaseVariant::Strided,
        BaseVariant::Coalesced,
        BaseVariant::Interleaved,
    ] {
        for (p1, s3, t4) in [(1, 64, 8), (16, 512, 64), (64, 1024, 1024), (4, 256, 1)] {
            out.push(params(p1, s3, t4, variant));
        }
    }
    out
}

#[test]
fn metered_measurement_is_exact_on_adversarial_shapes() {
    let mut runnable = 0usize;
    for dev in DeviceSpec::paper_devices() {
        for shape in adversarial_shapes() {
            for p in adversarial_params() {
                runnable += usize::from(assert_metered_exact::<f32>(&dev, shape, &p));
                runnable += usize::from(assert_metered_exact::<f64>(&dev, shape, &p));
            }
        }
    }
    // The sweep is not vacuous: most points plan and run.
    assert!(runnable > 1000, "only {runnable} runnable points");
}

#[test]
fn metered_measurement_leaves_the_session_reusable_for_numeric_solves() {
    let shape = WorkloadShape::new(6, 3000);
    let batch = random_dominant::<f32>(shape, 5).unwrap();
    let p = SolverParams::default_untuned();
    let mut gpu: Gpu<f32> = Gpu::new(DeviceSpec::gtx_280());
    let mut session = SolveSession::new(&mut gpu, shape).unwrap();
    let priced = session.measure_metered(&mut gpu, &p).unwrap();
    let solved = session.solve(&mut gpu, &batch, &p).unwrap();
    assert_eq!(priced.to_bits(), solved.sim_time_s.to_bits());
    assert!(batch_worst_relative_residual(&batch, &solved.x).unwrap() < 1e-4);
    assert_eq!(session.cached_plans(), 1);
}

/// Strategy: any (shape, params) point, including ones the planner or the
/// device rejects.
fn any_point() -> impl Strategy<Value = (usize, usize, SolverParams, usize)> {
    (
        1usize..80,
        1usize..3000,
        (0u32..8, 4u32..11, 0u32..11, 0usize..3),
        0usize..3,
    )
        .prop_map(|(m, n, (p1l, s3l, t4l, v), dev)| {
            let variant = [
                BaseVariant::Strided,
                BaseVariant::Coalesced,
                BaseVariant::Interleaved,
            ][v];
            (m, n, params(1 << p1l, 1 << s3l, 1 << t4l, variant), dev)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metered_measurement_is_exact_on_random_points((m, n, p, dev) in any_point()) {
        let dev = &DeviceSpec::paper_devices()[dev];
        let shape = WorkloadShape::new(m, n);
        assert_metered_exact::<f32>(dev, shape, &p);
        assert_metered_exact::<f64>(dev, shape, &p);
    }
}
