//! General matrix-matrix multiplication kernels (the paper's cuBLAS calls).
//!
//! The GCN forward/backward pass needs three transpose combinations
//! (eqs. 5, 10, 11 of the paper):
//!
//! * `C = H · W`        — [`gemm`]
//! * `C = HW_G · Wᵀ`    — [`gemm_a_bt`]
//! * `C = HW_Gᵀ · H`    — [`gemm_at_b`] (weight gradient)
//!
//! Each one reduces an output row to the shared row kernel
//! [`accumulate_rows`]: a list of `(value, B row)` terms summed into the
//! row in a fixed order with register-held accumulators. [`gemm`] and
//! [`gemm_at_b`] pass the nonzeros of their `A` row or column (compacted
//! branch-free, so zeros are skipped exactly as a zero test would skip
//! them); [`gemm_a_bt`] passes every `A` entry against a transposed copy
//! of its weight-sized `B`. The accumulation order of every output
//! element is fixed by the shapes alone, so results are bit-identical
//! for any thread count.

use crate::kernel::{accumulate_rows, compact_nonzeros};
use crate::matrix::Dense;
use rayon::prelude::*;

/// Whether a GeMM overwrites its output (`beta = 0`) or accumulates into it
/// (`beta = 1`), mirroring the BLAS `beta` parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accumulate {
    /// `C = A · B`
    Overwrite,
    /// `C += A · B`
    Add,
}

/// Rows per parallel task. Small enough to load-balance, large enough to
/// amortize task overhead.
const ROW_BLOCK: usize = 64;

/// `C = A · B` / `C += A · B` with `A: m×k`, `B: k×n`, `C: m×n`.
///
/// Output row `i` is `Σ_kk A[i,kk] · B[kk,:]` over the nonzero `A[i,kk]`
/// in `kk` order, starting from `+0.0` (Overwrite) or the old row (Add).
pub fn gemm(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.rows(), "gemm inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm output cols mismatch");
    let (k, n) = (a.cols(), b.cols());
    if c.is_empty() {
        return;
    }
    let b_data = b.as_slice();
    let a_data = a.as_slice();
    c.as_mut_slice().par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_chunk)| {
        let row0 = blk * ROW_BLOCK;
        let (mut vals, mut idx) = (vec![0.0f32; k], vec![0u32; k]);
        for (i, c_row) in c_chunk.chunks_mut(n).enumerate() {
            let a_row = &a_data[(row0 + i) * k..(row0 + i + 1) * k];
            let len = compact_nonzeros(a_row.iter().copied(), &mut vals, &mut idx);
            if acc == Accumulate::Overwrite {
                c_row.fill(0.0);
            }
            accumulate_rows(c_row, &vals[..len], &idx[..len], b_data);
        }
    });
}

/// `C = Aᵀ · B` / `C += Aᵀ · B` with `A: k×m`, `B: k×n`, `C: m×n`.
///
/// Used for the weight gradient `W_G = HW_Gᵀ · H` (paper eq. 10). The output
/// is small (`d×d`), so the reduction dimension `k` is split into the rayon
/// shim's fold pieces ([`rayon::fold_ranges`], a pure function of `k`).
/// Each piece sums, per output row `i`, the nonzero `A[kk,i]` of its
/// range in `kk` order from `+0.0`; the piece partials are then added
/// left to right onto `+0.0`, and the total is copied (Overwrite) or
/// added (Add) into `C`.
pub fn gemm_at_b(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.rows(), b.rows(), "gemm_at_b reduction dimension mismatch");
    assert_eq!(a.cols(), c.rows(), "gemm_at_b output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm_at_b output cols mismatch");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    if c.is_empty() {
        return;
    }
    let a_data = a.as_slice();
    let b_data = b.as_slice();

    let partials: Vec<Vec<f32>> = rayon::fold_ranges(k)
        .into_par_iter()
        .map(|range| {
            let mut part = vec![0.0f32; m * n];
            let (mut vals, mut idx) = (vec![0.0f32; range.len()], vec![0u32; range.len()]);
            let b_piece = &b_data[range.start * n..range.end * n];
            for (i, p_row) in part.chunks_mut(n).enumerate() {
                let column = range.clone().map(|kk| a_data[kk * m + i]);
                let len = compact_nonzeros(column, &mut vals, &mut idx);
                accumulate_rows(p_row, &vals[..len], &idx[..len], b_piece);
            }
            part
        })
        .collect();
    let mut total = vec![0.0f32; m * n];
    for part in partials {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }

    let c_slice = c.as_mut_slice();
    match acc {
        Accumulate::Overwrite => c_slice.copy_from_slice(&total),
        Accumulate::Add => {
            for (ci, ti) in c_slice.iter_mut().zip(total) {
                *ci += ti;
            }
        }
    }
}

/// `C = A · Bᵀ` / `C += A · Bᵀ` with `A: m×k`, `B: n×k`, `C: m×n`.
///
/// Used for the input gradient `H_G = HW_G · Wᵀ` (paper eq. 11). `B` is
/// the weight matrix, so a transposed copy of it is cheap; output element
/// `(i, j)` is the dot product `Σ_kk A[i,kk] · B[j,kk]` over every `kk`
/// in order, starting from `-0.0` as `Iterator::sum` does, then stored
/// (Overwrite) or added (Add) into `C`.
pub fn gemm_a_bt(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.cols(), b.cols(), "gemm_a_bt inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm_a_bt output rows mismatch");
    assert_eq!(b.rows(), c.cols(), "gemm_a_bt output cols mismatch");
    let (k, n) = (a.cols(), b.rows());
    if c.is_empty() {
        return;
    }
    let a_data = a.as_slice();
    let bt = b.transpose();
    let bt_data = bt.as_slice();
    let every_k: Vec<u32> = (0..u32::try_from(k).expect("gemm_a_bt: k fits u32")).collect();
    c.as_mut_slice().par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(|(blk, c_chunk)| {
        let row0 = blk * ROW_BLOCK;
        let mut dot = vec![0.0f32; n];
        for (i, c_row) in c_chunk.chunks_mut(n).enumerate() {
            let a_row = &a_data[(row0 + i) * k..(row0 + i + 1) * k];
            dot.fill(-0.0);
            accumulate_rows(&mut dot, a_row, &every_k, bt_data);
            match acc {
                Accumulate::Overwrite => c_row.copy_from_slice(&dot),
                Accumulate::Add => {
                    for (cj, dj) in c_row.iter_mut().zip(&dot) {
                        *cj += dj;
                    }
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Dense, b: &Dense) -> Dense {
        let mut c = Dense::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for kk in 0..a.cols() {
                    s += a.get(i, kk) * b.get(kk, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn arange(rows: usize, cols: usize, scale: f32) -> Dense {
        Dense::from_fn(rows, cols, |r, c| ((r * cols + c) as f32).sin() * scale)
    }

    #[test]
    fn gemm_matches_naive() {
        let a = arange(7, 5, 1.0);
        let b = arange(5, 9, 0.5);
        let mut c = Dense::zeros(7, 9);
        gemm(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-4);
    }

    #[test]
    fn gemm_accumulate_adds() {
        let a = arange(4, 3, 1.0);
        let b = arange(3, 4, 1.0);
        let mut c = Dense::from_fn(4, 4, |_, _| 1.0);
        gemm(&a, &b, &mut c, Accumulate::Add);
        let mut expect = naive(&a, &b);
        for x in expect.as_mut_slice() {
            *x += 1.0;
        }
        assert!(c.max_abs_diff(&expect) < 1e-4);
    }

    #[test]
    fn gemm_at_b_matches_naive_transpose() {
        let a = arange(6, 4, 1.0); // k=6, m=4
        let b = arange(6, 3, 1.0); // k=6, n=3
        let mut c = Dense::zeros(4, 3);
        gemm_at_b(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a.transpose(), &b)) < 1e-4);
    }

    #[test]
    fn gemm_a_bt_matches_naive_transpose() {
        let a = arange(5, 4, 1.0); // m=5, k=4
        let b = arange(6, 4, 1.0); // n=6, k=4
        let mut c = Dense::zeros(5, 6);
        gemm_a_bt(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a, &b.transpose())) < 1e-4);
    }

    #[test]
    fn gemm_large_parallel_path() {
        // Exceed ROW_BLOCK so multiple parallel chunks are exercised.
        let a = arange(200, 17, 1.0);
        let b = arange(17, 13, 1.0);
        let mut c = Dense::zeros(200, 13);
        gemm(&a, &b, &mut c, Accumulate::Overwrite);
        assert!(c.max_abs_diff(&naive(&a, &b)) < 1e-3);
    }

    #[test]
    fn gemm_at_b_accumulates() {
        let a = arange(6, 2, 1.0);
        let b = arange(6, 2, 1.0);
        let mut c = Dense::from_fn(2, 2, |_, _| 2.0);
        gemm_at_b(&a, &b, &mut c, Accumulate::Add);
        let mut expect = naive(&a.transpose(), &b);
        for x in expect.as_mut_slice() {
            *x += 2.0;
        }
        assert!(c.max_abs_diff(&expect) < 1e-4);
    }
}
