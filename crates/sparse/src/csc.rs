//! Compressed Sparse Column matrices.
//!
//! The forward pass multiplies by `Âᵀ`; storing `Â` once in CSC makes its
//! transpose available for free (a CSC matrix *is* its transpose's CSR).
//! This gives users a choice the paper's C++ code makes implicitly with
//! cuSPARSE's `CUSPARSE_OPERATION_TRANSPOSE`: keep one copy and run the
//! transposed kernel, or keep both orientations and run the straight one.
//! [`spmm_csc`] computes `C = Aᵀ · B` directly from CSC storage.

use crate::csr::Csr;
use mggcn_dense::gemm::Accumulate;
use mggcn_dense::Dense;

/// Compressed Sparse Column matrix (`f32` values, `u32` row indices).
#[derive(Clone, Debug, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csc {
    /// Convert from CSR — `O(nnz + rows + cols)` counting sort.
    pub fn from_csr(a: &Csr) -> Self {
        let t = a.transpose(); // CSR of Aᵀ has exactly CSC(A)'s layout
        Self {
            rows: a.rows(),
            cols: a.cols(),
            col_ptr: t.row_ptr().to_vec(),
            row_idx: t.col_idx().to_vec(),
            values: t.values().to_vec(),
        }
    }

    /// Convert back to CSR.
    pub fn to_csr(&self) -> Csr {
        // CSC(A) is CSR(Aᵀ); transpose once more to get CSR(A).
        let at = Csr::from_parts(
            self.cols,
            self.rows,
            self.col_ptr.clone(),
            self.row_idx.clone(),
            self.values.clone(),
        );
        at.transpose()
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterate column `c`'s `(row, value)` pairs.
    pub fn col(&self, c: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let range = self.col_ptr[c]..self.col_ptr[c + 1];
        self.row_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }
}

/// `C = Aᵀ · B` with `A` in CSC (`rows × cols`), `B: rows × d`,
/// `C: cols × d` — the transposed product without materializing `Aᵀ`.
///
/// In CSC, column `j` of `A` lists exactly the entries of row `j` of `Aᵀ`,
/// so each output row is an independent gather — same parallel shape as
/// the CSR SpMM.
pub fn spmm_csc(a: &Csc, b: &Dense, c: &mut Dense, acc: Accumulate) {
    assert_eq!(a.rows(), b.rows(), "spmm_csc inner dimension mismatch");
    assert_eq!(a.cols(), c.rows(), "spmm_csc output rows mismatch");
    assert_eq!(b.cols(), c.cols(), "spmm_csc output cols mismatch");
    crate::spmm::gather_rows(&a.col_ptr, &a.row_idx, &a.values, |j| j, b, c, acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;
    use crate::spmm::spmm;

    fn sample() -> Csr {
        let mut coo = Coo::new(4, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(3, 0, 4.0);
        coo.push(3, 2, 5.0);
        coo.to_csr()
    }

    #[test]
    fn csr_csc_roundtrip() {
        let a = sample();
        let back = Csc::from_csr(&a).to_csr();
        assert_eq!(a, back);
    }

    #[test]
    fn csc_columns_list_rows() {
        let csc = Csc::from_csr(&sample());
        assert_eq!(csc.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (3, 4.0)]);
        assert_eq!(csc.col(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(csc.col(2).collect::<Vec<_>>(), vec![(0, 2.0), (3, 5.0)]);
    }

    #[test]
    fn spmm_csc_equals_transposed_csr_spmm() {
        let a = sample();
        let csc = Csc::from_csr(&a);
        let b = Dense::from_fn(4, 5, |r, c| ((r * 5 + c) as f32).sin());
        let mut via_csc = Dense::zeros(3, 5);
        spmm_csc(&csc, &b, &mut via_csc, Accumulate::Overwrite);
        let mut via_transpose = Dense::zeros(3, 5);
        spmm(&a.transpose(), &b, &mut via_transpose, Accumulate::Overwrite);
        assert!(via_csc.max_abs_diff(&via_transpose) < 1e-5);
    }

    #[test]
    fn spmm_csc_accumulates() {
        let a = sample();
        let csc = Csc::from_csr(&a);
        let b = Dense::from_fn(4, 2, |r, c| (r + c) as f32);
        let mut out = Dense::zeros(3, 2);
        spmm_csc(&csc, &b, &mut out, Accumulate::Overwrite);
        let first = out.clone();
        spmm_csc(&csc, &b, &mut out, Accumulate::Add);
        let mut doubled = first.clone();
        for x in doubled.as_mut_slice() {
            *x *= 2.0;
        }
        assert!(out.max_abs_diff(&doubled) < 1e-5);
    }

    #[test]
    fn nnz_preserved() {
        let a = sample();
        assert_eq!(Csc::from_csr(&a).nnz(), a.nnz());
    }
}
