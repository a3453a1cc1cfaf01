//! Bitwise differential test of every GeMM and SpMM kernel against the
//! plain AXPY / dot-product loops they replaced.
//!
//! The public kernels all run through the register-blocked row kernel
//! (`mggcn_dense::accumulate_rows`). Their contract is not "close to" the
//! simple loops below but *bit-identical* to them: every output element
//! must see the same IEEE operations in the same order. Each kernel is
//! checked with `to_bits()` equality over a grid of shapes (including
//! empty ones and the 10000-row training shapes), zero fractions 0, ½
//! and 1, both accumulate modes, and planted ±0.0, ±inf and NaN in `A`,
//! `B` and the prior contents of `C`.

use mggcn_dense::{gemm, gemm_a_bt, gemm_at_b, Accumulate, Dense};
use mggcn_sparse::{spmm, spmm_csc, spmm_rows, Csc, Csr};

/// The kernels' loop bodies as they were before the shared row kernel,
/// kept verbatim as the oracle.
mod reference {
    pub use dense::{gemm, gemm_a_bt, gemm_at_b};
    pub use sparse::{spmm, spmm_csc, spmm_rows};

    mod dense {
        use mggcn_dense::{Accumulate, Dense};
        use rayon::prelude::*;

        const ROW_BLOCK: usize = 64;

        pub fn gemm(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
            let (k, n) = (a.cols(), b.cols());
            let b_data = b.as_slice();
            let a_data = a.as_slice();
            c.as_mut_slice().par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(
                |(blk, c_chunk)| {
                    let row0 = blk * ROW_BLOCK;
                    for (i, c_row) in c_chunk.chunks_mut(n).enumerate() {
                        let a_row = &a_data[(row0 + i) * k..(row0 + i + 1) * k];
                        if acc == Accumulate::Overwrite {
                            c_row.fill(0.0);
                        }
                        for (kk, &aik) in a_row.iter().enumerate() {
                            if aik == 0.0 {
                                continue;
                            }
                            let b_row = &b_data[kk * n..(kk + 1) * n];
                            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                                *cj += aik * bj;
                            }
                        }
                    }
                },
            );
        }

        pub fn gemm_at_b(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
            let (k, m, n) = (a.rows(), a.cols(), b.cols());
            let a_data = a.as_slice();
            let b_data = b.as_slice();

            let partial = (0..k)
                .into_par_iter()
                .fold(
                    || vec![0.0f32; m * n],
                    |mut acc_buf, kk| {
                        let a_row = &a_data[kk * m..(kk + 1) * m];
                        let b_row = &b_data[kk * n..(kk + 1) * n];
                        for (i, &aki) in a_row.iter().enumerate() {
                            if aki == 0.0 {
                                continue;
                            }
                            let c_row = &mut acc_buf[i * n..(i + 1) * n];
                            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                                *cj += aki * bj;
                            }
                        }
                        acc_buf
                    },
                )
                .reduce(
                    || vec![0.0f32; m * n],
                    |mut x, y| {
                        for (a, b) in x.iter_mut().zip(y) {
                            *a += b;
                        }
                        x
                    },
                );

            let c_slice = c.as_mut_slice();
            match acc {
                Accumulate::Overwrite => c_slice.copy_from_slice(&partial),
                Accumulate::Add => {
                    for (ci, pi) in c_slice.iter_mut().zip(partial) {
                        *ci += pi;
                    }
                }
            }
        }

        pub fn gemm_a_bt(a: &Dense, b: &Dense, c: &mut Dense, acc: Accumulate) {
            let (k, n) = (a.cols(), b.rows());
            let a_data = a.as_slice();
            let b_data = b.as_slice();
            c.as_mut_slice().par_chunks_mut(ROW_BLOCK * n).enumerate().for_each(
                |(blk, c_chunk)| {
                    let row0 = blk * ROW_BLOCK;
                    for (i, c_row) in c_chunk.chunks_mut(n).enumerate() {
                        let a_row = &a_data[(row0 + i) * k..(row0 + i + 1) * k];
                        for (j, cj) in c_row.iter_mut().enumerate() {
                            let b_row = &b_data[j * k..(j + 1) * k];
                            let dot: f32 = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
                            match acc {
                                Accumulate::Overwrite => *cj = dot,
                                Accumulate::Add => *cj += dot,
                            }
                        }
                    }
                },
            );
        }
    }

    mod sparse {
        use mggcn_dense::{Accumulate, Dense};
        use mggcn_sparse::{Csc, Csr};
        use rayon::prelude::*;

        const ROW_BLOCK: usize = 32;

        pub fn spmm(a: &Csr, b: &Dense, c: &mut Dense, acc: Accumulate) {
            let d = b.cols();
            let b_data = b.as_slice();
            let row_ptr = a.row_ptr();
            let col_idx = a.col_idx();
            let values = a.values();
            c.as_mut_slice().par_chunks_mut(ROW_BLOCK * d).enumerate().for_each(
                |(blk, c_chunk)| {
                    let row0 = blk * ROW_BLOCK;
                    for (i, c_row) in c_chunk.chunks_mut(d).enumerate() {
                        let r = row0 + i;
                        if acc == Accumulate::Overwrite {
                            c_row.fill(0.0);
                        }
                        for e in row_ptr[r]..row_ptr[r + 1] {
                            let v = values[e];
                            let b_row =
                                &b_data[col_idx[e] as usize * d..(col_idx[e] as usize + 1) * d];
                            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                                *cj += v * bj;
                            }
                        }
                    }
                },
            );
        }

        pub fn spmm_rows(a: &Csr, rows: &[u32], b: &Dense, c: &mut Dense, acc: Accumulate) {
            let d = b.cols();
            let b_data = b.as_slice();
            let row_ptr = a.row_ptr();
            let col_idx = a.col_idx();
            let values = a.values();
            c.as_mut_slice().par_chunks_mut(ROW_BLOCK * d).enumerate().for_each(
                |(blk, c_chunk)| {
                    let out0 = blk * ROW_BLOCK;
                    for (i, c_row) in c_chunk.chunks_mut(d).enumerate() {
                        let r = rows[out0 + i] as usize;
                        assert!(r < a.rows(), "spmm_rows row {r} out of bounds");
                        if acc == Accumulate::Overwrite {
                            c_row.fill(0.0);
                        }
                        for e in row_ptr[r]..row_ptr[r + 1] {
                            let v = values[e];
                            let b_row =
                                &b_data[col_idx[e] as usize * d..(col_idx[e] as usize + 1) * d];
                            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                                *cj += v * bj;
                            }
                        }
                    }
                },
            );
        }

        pub fn spmm_csc(a: &Csc, b: &Dense, c: &mut Dense, acc: Accumulate) {
            let d = b.cols();
            let b_data = b.as_slice();
            c.as_mut_slice().par_chunks_mut(ROW_BLOCK * d).enumerate().for_each(
                |(blk, c_chunk)| {
                    let col0 = blk * ROW_BLOCK;
                    for (i, c_row) in c_chunk.chunks_mut(d).enumerate() {
                        let j = col0 + i;
                        if acc == Accumulate::Overwrite {
                            c_row.fill(0.0);
                        }
                        for (r, v) in a.col(j) {
                            let b_row = &b_data[r as usize * d..(r as usize + 1) * d];
                            for (cj, bj) in c_row.iter_mut().zip(b_row) {
                                *cj += v * bj;
                            }
                        }
                    }
                },
            );
        }
    }
}

/// Small dimensions: empty, single, around the 8/16/32-wide column
/// blocks, and a two-block width.
const DIMS: [usize; 9] = [0, 1, 5, 7, 8, 31, 32, 33, 64];
/// The per-GPU training shapes `(n, k, m)` of the benchmark workload.
const TRAINING: [(usize, usize, usize); 2] = [(10_000, 32, 32), (10_000, 32, 5)];
const ZERO_FRACTIONS: [u64; 3] = [0, 50, 100]; // percent
const MODES: [Accumulate; 2] = [Accumulate::Overwrite, Accumulate::Add];
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

fn hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `rows × cols` matrix with about `zero_pct`% zeros (half of them
/// `-0.0`), values of mixed sign and magnitude, and the [`SPECIALS`]
/// planted at a few hashed positions.
fn matrix(rows: usize, cols: usize, zero_pct: u64, salt: u64) -> Dense {
    let mut m = Dense::from_fn(rows, cols, |r, c| {
        let h = hash(salt ^ ((r as u64) << 32 | c as u64));
        if h % 100 < zero_pct {
            if h & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        } else {
            let mag = 1.0 + ((h >> 8) % 1000) as f32 / 7.0;
            let scale = [1e-3f32, 1.0, 1e3][((h >> 20) % 3) as usize];
            if (h >> 40) & 1 == 0 {
                mag * scale
            } else {
                -mag * scale
            }
        }
    });
    let len = rows * cols;
    if len > 0 {
        for (i, &s) in SPECIALS.iter().enumerate() {
            let pos = (hash(salt.wrapping_add(i as u64)) % len as u64) as usize;
            m.as_mut_slice()[pos] = s;
        }
    }
    m
}

/// CSR of `dense` storing every entry that is not `+0.0`, plus an
/// explicit `+0.0` wherever the hash says so (sparse kernels must apply
/// stored zeros, unlike the dense zero skip).
fn csr(dense: &Dense, salt: u64) -> Csr {
    let (mut row_ptr, mut col_idx, mut values) = (vec![0usize], Vec::new(), Vec::new());
    for r in 0..dense.rows() {
        for (c, &x) in dense.row(r).iter().enumerate() {
            if x.to_bits() != 0 || hash(salt ^ ((r as u64) << 32 | c as u64)).is_multiple_of(5) {
                col_idx.push(c as u32);
                values.push(x);
            }
        }
        row_ptr.push(col_idx.len());
    }
    Csr::from_parts(dense.rows(), dense.cols(), row_ptr, col_idx, values)
}

/// The bits an output element is compared by: its `to_bits()`, except
/// that every NaN compares equal. Rust leaves the sign and payload of a
/// NaN produced by arithmetic unspecified, and the code generator may
/// swap the operands of `+` and `*`, which picks a different NaN when
/// both are NaN — so only "is NaN" is part of any kernel's contract.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    let grid = DIMS
        .iter()
        .flat_map(|&n| DIMS.iter().flat_map(move |&k| DIMS.iter().map(move |&m| (n, k, m))));
    grid.chain(TRAINING)
}

/// Run `kernel` and `oracle` on the same inputs from every case and
/// demand identical output bits. `build(n, k, m, zero_pct, salt)` returns
/// the two operands and the output shape.
fn check<T>(
    name: &str,
    build: impl Fn(usize, usize, usize, u64, u64) -> (T, Dense, (usize, usize)),
    kernel: impl Fn(&T, &Dense, &mut Dense, Accumulate),
    oracle: impl Fn(&T, &Dense, &mut Dense, Accumulate),
) {
    let mut cases = 0;
    for (n, k, m) in shapes() {
        for zero_pct in ZERO_FRACTIONS {
            let salt = hash((n * 1_000_003 + k * 1009 + m) as u64 ^ zero_pct << 56);
            let (a, b, (rows, cols)) = build(n, k, m, zero_pct, salt);
            for mode in MODES {
                let prior = matrix(rows, cols, 10, salt ^ 0xC0FFEE);
                let (mut got, mut want) = (prior.clone(), prior);
                kernel(&a, &b, &mut got, mode);
                // The old loops panic in `par_chunks_mut(0)` on a
                // zero-column output; an empty output has no bits anyway.
                if !got.is_empty() {
                    oracle(&a, &b, &mut want, mode);
                }
                let differs = |(g, w): (&f32, &f32)| bits(*g) != bits(*w);
                if let Some(at) = got.as_slice().iter().zip(want.as_slice()).position(differs) {
                    let (g, w) = (got.as_slice()[at], want.as_slice()[at]);
                    panic!(
                        "{name} (n={n}, k={k}, m={m}, zeros={zero_pct}%, {mode:?}): element {at} \
                         is {g:?} ({:#x}), oracle {w:?} ({:#x})",
                        g.to_bits(),
                        w.to_bits()
                    );
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, (DIMS.len().pow(3) + TRAINING.len()) * ZERO_FRACTIONS.len() * MODES.len());
}

#[test]
fn gemm_is_bit_identical_to_axpy_loop() {
    check(
        "gemm",
        |n, k, m, z, s| (matrix(n, k, z, s), matrix(k, m, z, s ^ 1), (n, m)),
        gemm,
        reference::gemm,
    );
}

#[test]
fn gemm_at_b_is_bit_identical_to_folded_axpy_loop() {
    check(
        "gemm_at_b",
        |n, k, m, z, s| (matrix(n, k, z, s), matrix(n, m, z, s ^ 1), (k, m)),
        gemm_at_b,
        reference::gemm_at_b,
    );
}

#[test]
fn gemm_a_bt_is_bit_identical_to_dot_product_sum() {
    check(
        "gemm_a_bt",
        |n, k, m, z, s| (matrix(n, k, z, s), matrix(m, k, z, s ^ 1), (n, m)),
        gemm_a_bt,
        reference::gemm_a_bt,
    );
}

#[test]
fn spmm_is_bit_identical_to_axpy_loop() {
    check(
        "spmm",
        |n, k, m, z, s| (csr(&matrix(n, k, z, s), s), matrix(k, m, z, s ^ 1), (n, m)),
        spmm,
        reference::spmm,
    );
}

#[test]
fn spmm_rows_is_bit_identical_to_axpy_loop() {
    // Every row once in a scrambled order, plus two repeats.
    let rows_of = |a: &Csr| -> Vec<u32> {
        let n = a.rows();
        if n == 0 {
            return Vec::new();
        }
        (0..n + 2).map(|i| ((i * 7 + 3) % n) as u32).collect()
    };
    check(
        "spmm_rows",
        |n, k, m, z, s| {
            let a = csr(&matrix(n, k, z, s), s);
            let rows = rows_of(&a);
            let out = (rows.len(), m);
            ((a, rows), matrix(k, m, z, s ^ 1), out)
        },
        |(a, rows), b, c, acc| spmm_rows(a, rows, b, c, acc),
        |(a, rows), b, c, acc| reference::spmm_rows(a, rows, b, c, acc),
    );
}

#[test]
fn spmm_csc_is_bit_identical_to_axpy_loop() {
    check(
        "spmm_csc",
        |n, k, m, z, s| {
            (Csc::from_csr(&csr(&matrix(n, k, z, s), s)), matrix(n, m, z, s ^ 1), (k, m))
        },
        spmm_csc,
        reference::spmm_csc,
    );
}
