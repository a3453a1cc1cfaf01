//! L0 host roofline and L1 kernel timings at a workload's own shapes.
//!
//! Byte counts are computed, not measured: the compulsory traffic of one
//! call (every input read once, every output written once, 4-byte values
//! and indices, 8-byte row pointers). A kernel's roofline fraction is its
//! achieved rate over `min(fma_gflops, stream_gbps * flop / byte)`; for a
//! copy (the collectives) only bandwidth is reported.

use crate::metrics::{median, Report};
use mggcn_dense::{gemm, gemm_a_bt, gemm_at_b, Accumulate, Dense};
use mggcn_sparse::{spmm, Csr};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time `f` until it has run at least `min_reps` times and for at least
/// `min_time`; returns the median seconds per call and the call count.
fn time_calls(min_reps: usize, min_time: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < min_time {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    (median(&samples), samples.len())
}

const KERNEL_TIME: Duration = Duration::from_millis(150);
const KERNEL_REPS: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct Roofline {
    pub stream_gbps: f64,
    pub fma_gflops: f64,
}

impl Roofline {
    /// Attainable GFLOP/s at `flop` per `bytes` (the classic roofline).
    pub fn attainable_gflops(&self, flop: f64, bytes: f64) -> f64 {
        self.fma_gflops.min(self.stream_gbps * flop / bytes)
    }
}

/// Measure L0 on `threads` threads: a STREAM-style triad over arrays far
/// larger than the caches, and independent multiply-add chains that keep
/// every lane busy. Both use the compiler settings the kernels use.
pub fn host_roofline(threads: usize, report: &mut Report) -> Roofline {
    const LEN: usize = 1 << 21; // per thread: 3 arrays x 8 MiB
    let mut arrays: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> =
        (0..threads).map(|_| (vec![0.0; LEN], vec![1.0; LEN], vec![2.0; LEN])).collect();
    let scalar = black_box(0.5f32);
    let (triad_s, triad_n) = time_calls(KERNEL_REPS, KERNEL_TIME, || {
        std::thread::scope(|s| {
            for (a, b, c) in arrays.iter_mut() {
                s.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *x = y + scalar * z;
                    }
                    black_box(&a[0]);
                });
            }
        });
    });
    let stream_gbps = (threads * LEN * 3 * 4) as f64 / triad_s / 1e9;

    const LANES: usize = 64;
    const ITERS: usize = 1 << 18;
    let (fma_s, fma_n) = time_calls(KERNEL_REPS, KERNEL_TIME, || {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let (mul, add) = (black_box(0.999_9f32), black_box(1.0e-3f32));
                    let mut acc = [1.0f32; LANES];
                    for _ in 0..ITERS {
                        for x in acc.iter_mut() {
                            *x = *x * mul + add;
                        }
                    }
                    black_box(acc);
                });
            }
        });
    });
    let fma_gflops = (threads * LANES * ITERS * 2) as f64 / fma_s / 1e9;

    report.set("host.stream_gbps", stream_gbps, triad_n);
    report.set("host.fma_gflops", fma_gflops, fma_n);
    Roofline { stream_gbps, fma_gflops }
}

/// Deterministic dense input (no zeros, so GeMM skips no work).
fn dense_input(rows: usize, cols: usize, salt: usize) -> Dense {
    Dense::from_fn(rows, cols, |r, c| 0.25 + (((r * 31 + c * 7 + salt) % 97) as f32) / 97.0)
}

/// The three GeMM variants of a GCN layer at `m` rows, `k` inputs and `n`
/// outputs: forward `H·W`, weight gradient `Gᵀ·H` and input gradient
/// `G·Wᵀ`.
pub fn dense_kernels(m: usize, k: usize, n: usize, roof: &Roofline, report: &mut Report) {
    let h = dense_input(m, k, 1);
    let w = dense_input(k, n, 2);
    let g = dense_input(m, n, 3);
    let flop = (2 * m * k * n) as f64;
    let mut fwd = Dense::zeros(m, n);
    let mut wgrad = Dense::zeros(n, k);
    let mut igrad = Dense::zeros(m, k);
    let cases: [(&'static str, f64, &mut dyn FnMut()); 3] = [
        ("dense.gemm", 4.0 * (m * k + k * n + m * n) as f64, &mut || {
            gemm(black_box(&h), &w, &mut fwd, Accumulate::Overwrite)
        }),
        ("dense.gemm_at_b", 4.0 * (m * n + m * k + n * k) as f64, &mut || {
            gemm_at_b(black_box(&g), &h, &mut wgrad, Accumulate::Overwrite)
        }),
        ("dense.gemm_a_bt", 4.0 * (m * n + k * n + m * k) as f64, &mut || {
            gemm_a_bt(black_box(&g), &w, &mut igrad, Accumulate::Overwrite)
        }),
    ];
    for (name, bytes, f) in cases {
        let (secs, reps) = time_calls(KERNEL_REPS, KERNEL_TIME, f);
        let gflops = flop / secs / 1e9;
        report.set(key(name, "_ms"), secs * 1e3, reps);
        report.set(key(name, "_gflops"), gflops, reps);
        report.set(key(name, "_flop"), flop, 1);
        report.set(key(name, "_bytes"), bytes, 1);
        report.set(key(name, "_roofline_frac"), gflops / roof.attainable_gflops(flop, bytes), reps);
    }
}

/// Compulsory bytes of a CSR SpMM touching `rows` rows with `nnz`
/// nonzeros over a `cols x d` input.
pub fn spmm_bytes(rows: usize, cols: usize, nnz: usize, d: usize) -> f64 {
    (nnz * 8 + (rows + 1) * 8 + cols * d * 4 + rows * d * 4) as f64
}

/// One GPU's forward SpMM: its row of tiles times the feature shards.
pub fn spmm_kernel(tiles: &[Csr], inputs: &[Dense], roof: &Roofline, report: &mut Report) {
    let d = inputs[0].cols();
    let mut outs: Vec<Dense> = tiles.iter().map(|t| Dense::zeros(t.rows(), d)).collect();
    let nnz: usize = tiles.iter().map(Csr::nnz).sum();
    let bytes: f64 = tiles.iter().map(|t| spmm_bytes(t.rows(), t.cols(), t.nnz(), d)).sum();
    let flop = (2 * nnz * d) as f64;
    let (secs, reps) = time_calls(KERNEL_REPS, KERNEL_TIME, || {
        for ((t, b), c) in tiles.iter().zip(inputs).zip(outs.iter_mut()) {
            spmm(black_box(t), b, c, Accumulate::Overwrite);
        }
    });
    let gflops = flop / secs / 1e9;
    report.set("sparse.spmm_ms", secs * 1e3, reps);
    report.set("sparse.spmm_gbps", bytes / secs / 1e9, reps);
    report.set("sparse.spmm_flop", flop, 1);
    report.set("sparse.spmm_bytes", bytes, 1);
    report.set("sparse.spmm_roofline_frac", gflops / roof.attainable_gflops(flop, bytes), reps);
}

/// The trainer's collectives at its sizes: a feature-tile broadcast to
/// every peer and the weight-gradient all-reduce.
pub fn comm_kernels(gpus: usize, tile_len: usize, weight_len: usize, report: &mut Report) {
    let src = vec![1.5f32; tile_len];
    let mut dsts: Vec<Vec<f32>> = vec![vec![0.0; tile_len]; gpus - 1];
    let bc_bytes = (tile_len * 4 * gpus) as f64; // one read, gpus-1 writes
    let (bc_s, bc_n) = time_calls(KERNEL_REPS, KERNEL_TIME, || {
        let mut views: Vec<&mut [f32]> = dsts.iter_mut().map(Vec::as_mut_slice).collect();
        mggcn_comm::broadcast(black_box(&src), &mut views);
    });
    let mut bufs: Vec<Vec<f32>> = vec![vec![0.25f32; weight_len]; gpus];
    // Reduce reads every buffer into the first, then writes the total back.
    let ar_bytes = (weight_len * 4 * (2 * gpus)) as f64;
    let (ar_s, ar_n) = time_calls(KERNEL_REPS, KERNEL_TIME, || {
        let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        mggcn_comm::all_reduce_sum(black_box(&mut views));
    });
    for (name, secs, reps, bytes) in
        [("comm.broadcast", bc_s, bc_n, bc_bytes), ("comm.all_reduce", ar_s, ar_n, ar_bytes)]
    {
        report.set(key(name, "_ms"), secs * 1e3, reps);
        report.set(key(name, "_gbps"), bytes / secs / 1e9, reps);
        report.set(key(name, "_bytes"), bytes, 1);
    }
}

/// `prefix + suffix` as a registered metric name.
fn key(prefix: &str, suffix: &str) -> &'static str {
    let full = format!("{prefix}{suffix}");
    crate::metrics::lookup(&full).unwrap_or_else(|| panic!("unregistered metric {full}")).name
}
