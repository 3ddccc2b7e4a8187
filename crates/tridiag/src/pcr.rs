//! Parallel cyclic reduction (PCR) — the splitting workhorse of every stage
//! of the multi-stage solver.
//!
//! One PCR step at stride `s` eliminates, for every equation `i`, the
//! couplings to `x[i−s]` and `x[i+s]` by combining equation `i` with its two
//! stride-`s` neighbours. After the step every equation couples to `x[i−2s]`
//! and `x[i+2s]` instead, so each step doubles the number of independent
//! interleaved subsystems ("chains"). `log2(n)` steps solve the system
//! outright; `j < log2(n)` steps split it into `2^j` chains, each of which is
//! an ordinary tridiagonal system at stride `2^j`.
//!
//! Out-of-range neighbours are treated as identity rows (`b = 1`, others 0),
//! which is exact because equation `i` provably has a zero stride-`s`
//! sub-coefficient whenever `i < s` (and symmetrically at the top) — the
//! invariant is checked in the tests.

use crate::error::SolverError;
use crate::scalar::Scalar;
use crate::system::{ChainView, TridiagonalSystem};
use crate::thomas;
use crate::Result;

/// Apply one PCR step at stride `stride` to the system stored in the `src`
/// slices, writing the transformed system into the `dst` slices.
///
/// All slices must have the same length `n` (the system size). `src` and
/// `dst` must be distinct buffers (double buffering), mirroring the
/// read-old/write-new discipline a GPU kernel needs. This is the
/// whole-system case of [`pcr_rows`].
#[allow(clippy::too_many_arguments)]
pub fn pcr_step<T: Scalar>(
    stride: usize,
    src_a: &[T],
    src_b: &[T],
    src_c: &[T],
    src_d: &[T],
    dst_a: &mut [T],
    dst_b: &mut [T],
    dst_c: &mut [T],
    dst_d: &mut [T],
) {
    pcr_rows(
        stride, 0, src_a, src_b, src_c, src_d, dst_a, dst_b, dst_c, dst_d,
    );
}

/// Apply one PCR step at stride `stride` to rows `first .. first + len` of
/// the `n`-equation system stored in the `src` slices, writing row
/// `first + k` into element `k` of the `dst` slices (`len` = their length).
///
/// Bit-identical to the corresponding rows of [`pcr_step`]: a block of
/// stage 1's cooperative splitting owns one row range of one system and
/// computes it with the same loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn pcr_rows<T: Scalar>(
    stride: usize,
    first: usize,
    src_a: &[T],
    src_b: &[T],
    src_c: &[T],
    src_d: &[T],
    dst_a: &mut [T],
    dst_b: &mut [T],
    dst_c: &mut [T],
    dst_d: &mut [T],
) {
    let n = src_b.len();
    let end = first + dst_b.len();
    debug_assert!(stride >= 1);
    debug_assert!(end <= n);
    // Rows `lo..hi` have both stride-`s` neighbours in range; only the rows
    // outside that range substitute identity rows.
    let lo = stride.min(n).clamp(first, end);
    let hi = n.saturating_sub(stride).clamp(lo, end);
    for i in (first..lo).chain(hi..end) {
        let (row_m, row_p) = neighbor_rows(i, stride, n, src_a, src_b, src_c, src_d);
        let own = (src_a[i], src_b[i], src_c[i], src_d[i]);
        let k = i - first;
        (dst_a[k], dst_b[k], dst_c[k], dst_d[k]) = pcr_row(own, row_m, row_p);
    }
    if hi == lo {
        return;
    }
    // The interior, sliced so that element `k` of every view belongs to
    // equation `lo + k`, its lower or its upper neighbour: the hot loop
    // carries no identity branch and no bounds check.
    let (m, p) = (lo - stride, lo + stride);
    let len = hi - lo;
    let (am, bm, cm, dm) = (
        &src_a[m..m + len],
        &src_b[m..m + len],
        &src_c[m..m + len],
        &src_d[m..m + len],
    );
    let (ap, bp, cp, dp) = (
        &src_a[p..p + len],
        &src_b[p..p + len],
        &src_c[p..p + len],
        &src_d[p..p + len],
    );
    let (a, b, c, d) = (
        &src_a[lo..hi],
        &src_b[lo..hi],
        &src_c[lo..hi],
        &src_d[lo..hi],
    );
    let (olo, ohi) = (lo - first, hi - first);
    let (oa, ob, oc, od) = (
        &mut dst_a[olo..ohi],
        &mut dst_b[olo..ohi],
        &mut dst_c[olo..ohi],
        &mut dst_d[olo..ohi],
    );
    for k in 0..len {
        (oa[k], ob[k], oc[k], od[k]) = pcr_row(
            (a[k], b[k], c[k], d[k]),
            (am[k], bm[k], cm[k], dm[k]),
            (ap[k], bp[k], cp[k], dp[k]),
        );
    }
}

/// One PCR row update: equation `(a, b, c, d)` eliminates its couplings to
/// the lower neighbour row `m` and the upper neighbour row `p`.
#[inline(always)]
fn pcr_row<T: Scalar>(
    (a, b, c, d): (T, T, T, T),
    (am, bm, cm, dm): (T, T, T, T),
    (ap, bp, cp, dp): (T, T, T, T),
) -> (T, T, T, T) {
    let alpha = -a / bm;
    let gamma = -c / bp;
    (
        alpha * am,
        b + alpha * cm + gamma * ap,
        gamma * cp,
        d + alpha * dm + gamma * dp,
    )
}

#[inline]
#[allow(clippy::type_complexity)]
fn neighbor_rows<T: Scalar>(
    i: usize,
    stride: usize,
    n: usize,
    a: &[T],
    b: &[T],
    c: &[T],
    d: &[T],
) -> ((T, T, T, T), (T, T, T, T)) {
    let identity = (T::ZERO, T::ONE, T::ZERO, T::ZERO);
    let row_m = if i >= stride {
        let j = i - stride;
        (a[j], b[j], c[j], d[j])
    } else {
        identity
    };
    let row_p = if i + stride < n {
        let j = i + stride;
        (a[j], b[j], c[j], d[j])
    } else {
        identity
    };
    (row_m, row_p)
}

/// The result of PCR-splitting a system: transformed coefficients plus the
/// final stride (`2^steps`), whose chains are independent subsystems.
#[derive(Debug, Clone)]
pub struct PcrSplit<T: Scalar> {
    /// Transformed sub-diagonal (couples at distance `stride`).
    pub a: Vec<T>,
    /// Transformed main diagonal.
    pub b: Vec<T>,
    /// Transformed super-diagonal (couples at distance `stride`).
    pub c: Vec<T>,
    /// Transformed right-hand side.
    pub d: Vec<T>,
    /// Final coupling distance = number of independent chains.
    pub stride: usize,
}

impl<T: Scalar> PcrSplit<T> {
    /// The independent chains of the split system.
    pub fn chains(&self) -> Vec<ChainView> {
        ChainView::chains_of(0, self.b.len(), self.stride)
    }
}

/// Run `steps` PCR steps on a system, returning the transformed coefficients.
pub fn pcr_split<T: Scalar>(sys: &TridiagonalSystem<T>, steps: u32) -> Result<PcrSplit<T>> {
    let n = sys.len();
    if n == 0 {
        return Err(SolverError::EmptySystem);
    }
    let mut cur = (sys.a.clone(), sys.b.clone(), sys.c.clone(), sys.d.clone());
    let mut next = (
        vec![T::ZERO; n],
        vec![T::ZERO; n],
        vec![T::ZERO; n],
        vec![T::ZERO; n],
    );
    let mut stride = 1usize;
    for _ in 0..steps {
        pcr_step(
            stride,
            &cur.0,
            &cur.1,
            &cur.2,
            &cur.3,
            &mut next.0,
            &mut next.1,
            &mut next.2,
            &mut next.3,
        );
        std::mem::swap(&mut cur, &mut next);
        stride *= 2;
    }
    Ok(PcrSplit {
        a: cur.0,
        b: cur.1,
        c: cur.2,
        d: cur.3,
        stride,
    })
}

/// Solve a system with pure PCR: split until every chain has length 1, then
/// divide. `O(n log n)` work, `O(log n)` steps.
pub fn solve_pcr<T: Scalar>(sys: &TridiagonalSystem<T>) -> Result<Vec<T>> {
    let n = sys.len();
    let steps = ceil_log2(n);
    let split = pcr_split(sys, steps)?;
    let mut x = vec![T::ZERO; n];
    for (i, xi) in x.iter_mut().enumerate() {
        let mag = split.b[i].abs().to_f64();
        if !mag.is_finite() || mag == 0.0 {
            return Err(SolverError::ZeroPivot {
                row: i,
                magnitude: mag,
            });
        }
        *xi = split.d[i] / split.b[i];
    }
    Ok(x)
}

/// Solve by `steps` PCR splits followed by a Thomas solve of every chain —
/// the algorithmic core of the paper's base kernel, on the CPU.
pub fn solve_pcr_then_thomas<T: Scalar>(sys: &TridiagonalSystem<T>, steps: u32) -> Result<Vec<T>> {
    let n = sys.len();
    let split = pcr_split(sys, steps)?;
    let mut x = vec![T::ZERO; n];
    let mut scratch = thomas::ChainScratch::new();
    for chain in split.chains() {
        thomas::solve_thomas_chain(
            &chain,
            &split.a,
            &split.b,
            &split.c,
            &split.d,
            &mut x,
            &mut scratch,
        )?;
    }
    Ok(x)
}

/// Smallest number of PCR steps after which every chain of an `n`-equation
/// system has length 1 (i.e. `ceil(log2(n))`).
pub fn ceil_log2(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// Number of PCR steps needed to split an `n`-equation system into chains of
/// at most `target` equations.
pub fn steps_to_reach(n: usize, target: usize) -> u32 {
    assert!(target >= 1);
    let mut steps = 0u32;
    let mut len = n;
    while len > target {
        len = len.div_ceil(2);
        steps += 1;
    }
    steps
}

/// Per-equation floating-point cost of one PCR step (cost models).
pub const PCR_FLOPS_PER_EQ: usize = 12;

/// Total floating-point cost of `steps` PCR steps over `n` equations.
pub fn pcr_flops(n: usize, steps: u32) -> usize {
    n * PCR_FLOPS_PER_EQ * steps as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thomas::solve_thomas;

    #[test]
    fn step_matches_the_per_row_update_bit_for_bit() {
        // The step splits rows into an identity-substituting rim and a
        // branch-free interior; both must be exactly the per-row update,
        // for every size/stride relation (including stride >= n).
        let val = |i: usize, k: usize| (((i * 7 + k * 13) % 17) as f32 - 8.0) * 0.37 + 0.01;
        for n in 1..40usize {
            let src: Vec<Vec<f32>> = (0..4)
                .map(|k| {
                    (0..n)
                        .map(|i| val(i, k) + if k == 1 { 9.0 } else { 0.0 })
                        .collect()
                })
                .collect();
            for stride in [1usize, 2, 3, 4, 7, 16, 32, 64] {
                let mut dst = vec![vec![0.0f32; n]; 4];
                let [da, db, dc, dd] = &mut dst[..] else {
                    unreachable!()
                };
                pcr_step(stride, &src[0], &src[1], &src[2], &src[3], da, db, dc, dd);
                for i in 0..n {
                    let (m, p) = neighbor_rows(i, stride, n, &src[0], &src[1], &src[2], &src[3]);
                    let own = (src[0][i], src[1][i], src[2][i], src[3][i]);
                    let (ea, eb, ec, ed) = pcr_row(own, m, p);
                    let got = [dst[0][i], dst[1][i], dst[2][i], dst[3][i]];
                    let want = [ea, eb, ec, ed];
                    let bits = |v: [f32; 4]| v.map(f32::to_bits);
                    assert_eq!(bits(got), bits(want), "n={n} stride={stride} row {i}");
                }
            }
        }
    }

    #[test]
    fn row_ranges_match_the_whole_step_bit_for_bit() {
        // Every row range of every size/stride relation — block boundaries
        // inside the identity rim, inside the interior and straddling both,
        // strides >= n, n in {1, 2, 3} and non-powers of two — must equal
        // the corresponding slice of the whole-system step.
        let val = |i: usize, k: usize| (((i * 5 + k * 11) % 13) as f64 - 6.0) * 0.29 + 0.03;
        for n in (1..34usize).chain([63, 100, 257]) {
            let src: Vec<Vec<f64>> = (0..4)
                .map(|k| {
                    (0..n)
                        .map(|i| val(i, k) + if k == 1 { 7.0 } else { 0.0 })
                        .collect()
                })
                .collect();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for stride in [1usize, 2, 3, 4, 5, 8, 16, 32, 64, n, n + 1] {
                let mut whole = vec![vec![0.0f64; n]; 4];
                let [wa, wb, wc, wd] = &mut whole[..] else {
                    unreachable!()
                };
                pcr_step(stride, &src[0], &src[1], &src[2], &src[3], wa, wb, wc, wd);
                // Exhaustive over ranges for small systems; every block
                // partition of a few block sizes for the larger ones.
                let ranges: Vec<(usize, usize)> = if n <= 33 {
                    (0..=n)
                        .flat_map(|first| (first..=n).map(move |end| (first, end)))
                        .collect()
                } else {
                    [1usize, 3, 16, 31, 64]
                        .iter()
                        .flat_map(|&bs| (0..n).step_by(bs).map(move |f| (f, (f + bs).min(n))))
                        .collect()
                };
                for (first, end) in ranges {
                    let len = end - first;
                    let mut part = vec![vec![0.0f64; len]; 4];
                    let [pa, pb, pc, pd] = &mut part[..] else {
                        unreachable!()
                    };
                    pcr_rows(
                        stride, first, &src[0], &src[1], &src[2], &src[3], pa, pb, pc, pd,
                    );
                    for k in 0..4 {
                        assert_eq!(
                            bits(&part[k]),
                            bits(&whole[k][first..end]),
                            "n={n} stride={stride} rows {first}..{end} array {k}"
                        );
                    }
                }
            }
        }
    }

    fn dominant(n: usize, scale: f64) -> TridiagonalSystem<f64> {
        let mut a = vec![-1.0; n];
        let b = vec![3.0 * scale; n];
        let mut c = vec![-1.2; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let d: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        TridiagonalSystem::new(a, b, c, d).unwrap()
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn steps_to_reach_values() {
        assert_eq!(steps_to_reach(1024, 256), 2);
        assert_eq!(steps_to_reach(1024, 1024), 0);
        assert_eq!(steps_to_reach(1000, 256), 2);
        assert_eq!(steps_to_reach(2_000_000, 256), 13);
        assert_eq!(steps_to_reach(1, 1), 0);
    }

    #[test]
    fn boundary_subcoefficients_vanish() {
        // Invariant: after j steps at stride 2^j, a[i] == 0 for i < 2^j and
        // c[i] == 0 for i >= n - 2^j.
        let sys = dominant(37, 1.0);
        for steps in 0..=6u32 {
            let split = pcr_split(&sys, steps).unwrap();
            let s = split.stride.min(37);
            for i in 0..s {
                assert!(
                    split.a[i].abs() < 1e-12,
                    "steps={steps} a[{i}]={}",
                    split.a[i]
                );
            }
            for i in 37 - s..37 {
                assert!(
                    split.c[i].abs() < 1e-12,
                    "steps={steps} c[{i}]={}",
                    split.c[i]
                );
            }
        }
    }

    #[test]
    fn split_chains_preserve_solution() {
        // Solving each chain of the split system must reproduce the direct
        // solution of the original.
        for n in [8usize, 16, 33, 100, 257] {
            let sys = dominant(n, 1.0);
            let direct = solve_thomas(&sys).unwrap();
            for steps in 0..=4u32 {
                let x = solve_pcr_then_thomas(&sys, steps).unwrap();
                for (u, v) in direct.iter().zip(&x) {
                    assert!((u - v).abs() < 1e-8, "n={n} steps={steps}");
                }
            }
        }
    }

    #[test]
    fn pure_pcr_matches_thomas() {
        for n in [1usize, 2, 7, 64, 129, 500] {
            let sys = dominant(n, 1.0);
            let direct = solve_thomas(&sys).unwrap();
            let x = solve_pcr(&sys).unwrap();
            for (u, v) in direct.iter().zip(&x) {
                assert!((u - v).abs() < 1e-7, "n={n}");
            }
        }
    }

    #[test]
    fn zero_steps_is_identity() {
        let sys = dominant(12, 1.0);
        let split = pcr_split(&sys, 0).unwrap();
        assert_eq!(split.a, sys.a);
        assert_eq!(split.b, sys.b);
        assert_eq!(split.stride, 1);
    }

    #[test]
    fn split_systems_stay_dominant() {
        // PCR preserves diagonal dominance (each step is a convex-like
        // combination); verify empirically on a dominant system.
        let sys = dominant(128, 1.0);
        let split = pcr_split(&sys, 4).unwrap();
        for i in 0..128 {
            assert!(
                split.b[i].abs() > split.a[i].abs() + split.c[i].abs() - 1e-12,
                "row {i} lost dominance"
            );
        }
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [3usize, 5, 9, 17, 31, 1000, 1023] {
            let sys = dominant(n, 1.0);
            let direct = solve_thomas(&sys).unwrap();
            let x = solve_pcr_then_thomas(&sys, 3.min(ceil_log2(n))).unwrap();
            for (u, v) in direct.iter().zip(&x) {
                assert!((u - v).abs() < 1e-7, "n={n}");
            }
        }
    }

    #[test]
    fn flops_model_scales() {
        assert_eq!(pcr_flops(100, 0), 0);
        assert_eq!(pcr_flops(100, 2), 2400);
    }

    #[test]
    fn singular_after_split_detected() {
        // An all-zero diagonal system cannot be solved by PCR's final divide.
        let sys = TridiagonalSystem::new(
            vec![0.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        // PCR step: alpha = -a/bm etc. — with zero diagonals the divide at
        // the end must fail rather than return NaN silently.
        assert!(solve_pcr(&sys).is_err() || solve_pcr(&sys).unwrap().iter().all(|v| v.is_finite()));
    }
}
