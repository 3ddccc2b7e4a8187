//! Stage 1 — cooperative splitting.
//!
//! One PCR step at a given stride, applied to *every* equation of every
//! system by the whole machine: blocks cover contiguous equation ranges, so
//! all global accesses are coalesced, and the split factor of every system
//! doubles. Because the next step needs the values written by this one,
//! each step is its own kernel launch — the global synchronisation whose
//! fixed cost (launch overhead) is exactly why the paper leaves stage 1 as
//! soon as there are enough independent systems (§III-C).

use crate::kernels::{CoeffBuffers, Exec, GpuScalar};
use crate::params::{SPLIT_KERNEL_REGS_PER_THREAD, SPLIT_KERNEL_THREADS};
use crate::Result;
use trisolve_gpu_sim::{BlockCtx, Gpu, KernelStats, LaunchConfig, OutMode};
use trisolve_tridiag::pcr;

/// Per-equation thread-operations of one PCR row update.
pub const PCR_OPS_PER_EQ: usize = 12;
/// Per-equation global loads of one PCR row update: own row plus two
/// neighbour rows, 4 values each. The neighbour streams overlap the own-row
/// stream and are staged through shared memory / caught by the texture
/// cache, so only `PCR_UNIQUE_LOADS_PER_EQ` of them are unique traffic.
pub const PCR_LOADS_PER_EQ: usize = 12;
/// Unique per-equation global loads of one PCR row update.
pub const PCR_UNIQUE_LOADS_PER_EQ: usize = 4;
/// Shared-memory accesses per equation for the neighbour staging.
pub const PCR_STAGING_SMEM_PER_EQ: usize = 12;
/// Per-equation global stores of one PCR row update.
pub const PCR_STORES_PER_EQ: usize = 4;

/// Launch geometry of one cooperative splitting step. The kernel launches
/// with exactly this configuration, so static validation of the config *is*
/// validation of the launch — the two cannot drift.
pub fn stage1_config(m: usize, n: usize, stride: usize) -> LaunchConfig {
    let total = m * n;
    let chunk = n.min(1024);
    let grid = total / chunk;
    LaunchConfig::new(
        format!("stage1[stride={stride}]"),
        grid,
        SPLIT_KERNEL_THREADS,
    )
    .with_regs(SPLIT_KERNEL_REGS_PER_THREAD)
}

/// Stage 1's per-block meter sequence: every block updates one `chunk` of
/// rows with the neighbour loads staged through shared memory.
fn stage1_meter(ctx: &mut BlockCtx, chunk: usize) {
    ctx.gmem_read_staged(PCR_LOADS_PER_EQ * chunk, PCR_UNIQUE_LOADS_PER_EQ * chunk, 1);
    ctx.gmem_write(PCR_STORES_PER_EQ * chunk, 1);
    ctx.smem(PCR_STAGING_SMEM_PER_EQ * chunk);
    ctx.ops(PCR_OPS_PER_EQ * chunk);
    ctx.sync();
}

/// Launch one cooperative splitting step: PCR at `stride` over a batch of
/// `m` systems of `n` (power-of-two) equations, reading `src` and writing
/// `dst`.
pub fn stage1_step<T: GpuScalar>(
    gpu: &mut Gpu<T>,
    exec: Exec,
    src: CoeffBuffers,
    dst: CoeffBuffers,
    m: usize,
    n: usize,
    stride: usize,
) -> Result<KernelStats> {
    debug_assert!(n.is_power_of_two());
    let chunk = n.min(1024);
    let cfg = stage1_config(m, n, stride);

    let outputs: Vec<_> = dst
        .iter()
        .map(|&b| (b, OutMode::Chunked { chunk }))
        .collect();

    let meter = |ctx: &mut BlockCtx| stage1_meter(ctx, chunk);
    exec.launch(gpu, &cfg, &src, &outputs, meter, |ctx, io| {
        // The block's chunk is one row range of one system (`chunk`
        // divides `n`), computed by the same row loop as the CPU step.
        let base = ctx.block_id as usize * chunk;
        let (sys, first) = (base / n, base % n);
        let system = sys * n..(sys + 1) * n;
        let (sa, sb, sc, sd) = (
            &io.inputs[0][system.clone()],
            &io.inputs[1][system.clone()],
            &io.inputs[2][system.clone()],
            &io.inputs[3][system],
        );
        let [oa, ob, oc, od] = &mut io.owned[..] else {
            unreachable!("stage 1 has four outputs")
        };
        pcr::pcr_rows(stride, first, sa, sb, sc, sd, oa, ob, oc, od);
        if ctx.sanitizing() {
            // Replay the accesses through the tracked APIs (the values were
            // already computed above) so memcheck/initcheck/racecheck see
            // the kernel's true access set. Logical thread `i` owns element
            // `i` of the block's chunk and reads its own row plus the
            // in-range stride-`s` neighbour rows of its system.
            for i in 0..chunk {
                let pos = first + i;
                let neighbours = [Some(pos), pos.checked_sub(stride), Some(pos + stride)];
                for p in neighbours.into_iter().flatten().filter(|&p| p < n) {
                    for k in 0..4 {
                        let _ = io.load(k, sys * n + p, i, "stage1::row");
                    }
                }
                for k in 0..4 {
                    let v = io.owned[k][i];
                    io.store(k, i, v, i, "stage1::store");
                }
            }
        }
        meter(ctx);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trisolve_gpu_sim::DeviceSpec;
    use trisolve_tridiag::pcr;
    use trisolve_tridiag::workloads::{random_dominant, WorkloadShape};

    fn upload(gpu: &mut Gpu<f64>, v: &[f64]) -> trisolve_gpu_sim::BufferId {
        gpu.alloc_from(v).unwrap()
    }

    #[test]
    fn matches_cpu_pcr_step() {
        // Bit-identical to the CPU step for one and several systems, from a
        // single equation up to systems that span several 1024-row blocks,
        // at strides below, at and beyond the system size.
        for m in [1usize, 3] {
            for n in [1usize, 2, 4, 8, 64, 1024, 2048, 4096] {
                let shape = WorkloadShape::new(m, n);
                let batch = random_dominant::<f64>(shape, 11).unwrap();
                let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_470());
                let src = [
                    upload(&mut gpu, &batch.a),
                    upload(&mut gpu, &batch.b),
                    upload(&mut gpu, &batch.c),
                    upload(&mut gpu, &batch.d),
                ];
                let total = shape.total_equations();
                let dst = [
                    gpu.alloc(total).unwrap(),
                    gpu.alloc(total).unwrap(),
                    gpu.alloc(total).unwrap(),
                    gpu.alloc(total).unwrap(),
                ];
                for stride in [1usize, 2, 4, 512, n, 2 * n] {
                    stage1_step(&mut gpu, Exec::Numeric, src, dst, m, n, stride).unwrap();
                    let got: Vec<Vec<f64>> =
                        dst.iter().map(|&b| gpu.download(b).unwrap()).collect();
                    // CPU reference: apply one PCR step per system.
                    for s in 0..m {
                        let sys = batch.system(s).unwrap();
                        let mut want = vec![vec![0.0; n]; 4];
                        let [ea, eb, ec, ed] = &mut want[..] else {
                            unreachable!()
                        };
                        pcr::pcr_step(stride, &sys.a, &sys.b, &sys.c, &sys.d, ea, eb, ec, ed);
                        for (k, want) in want.iter().enumerate() {
                            let got = &got[k][s * n..(s + 1) * n];
                            for i in 0..n {
                                assert_eq!(
                                    got[i].to_bits(),
                                    want[i].to_bits(),
                                    "m={m} n={n} stride={stride} system {s} array {k} row {i}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn traffic_is_coalesced_and_proportional() {
        let shape = WorkloadShape::new(4, 1024);
        let batch = random_dominant::<f64>(shape, 1).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::gtx_280());
        let src = [
            upload(&mut gpu, &batch.a),
            upload(&mut gpu, &batch.b),
            upload(&mut gpu, &batch.c),
            upload(&mut gpu, &batch.d),
        ];
        let total = shape.total_equations();
        let dst = [
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
            gpu.alloc(total).unwrap(),
        ];
        let stats = stage1_step(&mut gpu, Exec::Numeric, src, dst, 4, 1024, 1).unwrap();
        let expect_read = (PCR_UNIQUE_LOADS_PER_EQ * total * 8) as f64;
        let expect_write = (PCR_STORES_PER_EQ * total * 8) as f64;
        assert_eq!(stats.totals.gmem_read_bytes, expect_read);
        assert_eq!(stats.totals.gmem_write_bytes, expect_write);
        // Staging captures most of the redundant neighbour reads, but the
        // missed fraction still moves across the bus.
        let eff = stats.totals.coalescing_efficiency();
        assert!(eff > 0.5 && eff <= 1.0, "efficiency {eff}");
        // Each launch pays overhead: this is the stage-1 penalty.
        assert!(stats.overhead_s > 0.0);
    }

    #[test]
    fn each_step_is_one_launch() {
        let shape = WorkloadShape::new(1, 4096);
        let batch = random_dominant::<f64>(shape, 2).unwrap();
        let mut gpu: Gpu<f64> = Gpu::new(DeviceSpec::geforce_8800_gtx());
        let src = [
            upload(&mut gpu, &batch.a),
            upload(&mut gpu, &batch.b),
            upload(&mut gpu, &batch.c),
            upload(&mut gpu, &batch.d),
        ];
        let dst = [
            gpu.alloc(4096).unwrap(),
            gpu.alloc(4096).unwrap(),
            gpu.alloc(4096).unwrap(),
            gpu.alloc(4096).unwrap(),
        ];
        stage1_step(&mut gpu, Exec::Numeric, src, dst, 1, 4096, 1).unwrap();
        stage1_step(&mut gpu, Exec::Numeric, dst, src, 1, 4096, 2).unwrap();
        assert_eq!(gpu.timeline().len(), 2);
    }
}
