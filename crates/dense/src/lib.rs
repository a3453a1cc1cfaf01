//! Dense linear-algebra substrate for the MG-GCN reproduction.
//!
//! The paper performs its dense work (`H · W`, `HW_G · Wᵀ`, `HW_Gᵀ · H`,
//! activations, optimizer updates) with cuBLAS on row-major matrices. This
//! crate provides the equivalent CPU kernels: a row-major [`Dense`] matrix,
//! Rayon-parallel GeMM in all the transpose combinations the GCN
//! forward/backward pass needs, the register-blocked row kernel
//! ([`accumulate_rows`]) that every GeMM and SpMM reduces to, and the
//! elementwise kernels (ReLU, AXPY, scaling) that the training loop is
//! built from.

#![forbid(unsafe_code)]

pub mod elementwise;
pub mod gemm;
pub mod init;
pub mod kernel;
pub mod matrix;

pub use elementwise::{
    add_assign, axpy, relu, relu_backward, relu_backward_merge, relu_inplace, scale,
};
pub use gemm::{gemm, gemm_a_bt, gemm_at_b, Accumulate};
pub use kernel::accumulate_rows;
pub use matrix::Dense;
