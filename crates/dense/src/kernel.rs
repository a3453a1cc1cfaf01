//! The one inner kernel behind every GeMM and SpMM in the workspace.
//!
//! [`accumulate_rows`] computes `out[0..d] += Σ_e vals[e] · B[idx[e], 0..d]`
//! with the terms applied in `e` order. Each output element therefore sees
//! exactly one IEEE `acc + v·b` per term, in a fixed order — the same
//! sequence of roundings a plain AXPY loop over the output row produces —
//! so every caller is bit-identical to that loop. The difference is that
//! the accumulators live in a fixed-size array for a whole block of
//! columns, so the output row is loaded and stored once per block instead
//! of once per term, and the loop body has no data-dependent branch.
//!
//! Callers reduce their own shape to `(vals, idx)` lists: a CSR/CSC row as
//! stored, or a dense row compacted to its nonzeros by
//! [`compact_nonzeros`].

/// Widest column block held in accumulators (8 SSE registers of f32).
const BLOCK: usize = 32;

/// `out[j] += Σ_e vals[e] · b[idx[e] · d + j]` for `j < d = out.len()`,
/// accumulating the terms in `e` order; `b` is row-major with rows of
/// width `d`.
///
/// Panics if `vals` and `idx` differ in length or a row of `b` named by
/// `idx` is out of bounds.
pub fn accumulate_rows(out: &mut [f32], vals: &[f32], idx: &[u32], b: &[f32]) {
    assert_eq!(vals.len(), idx.len(), "accumulate_rows: vals/idx length mismatch");
    let d = out.len();
    let mut j0 = 0;
    while d - j0 >= BLOCK {
        block::<BLOCK>(&mut out[j0..j0 + BLOCK], vals, idx, b, d, j0);
        j0 += BLOCK;
    }
    if d - j0 >= 16 {
        block::<16>(&mut out[j0..j0 + 16], vals, idx, b, d, j0);
        j0 += 16;
    }
    if d - j0 >= 8 {
        block::<8>(&mut out[j0..j0 + 8], vals, idx, b, d, j0);
        j0 += 8;
    }
    let tail = &mut out[j0..];
    match tail.len() {
        0 => {}
        1 => block::<1>(tail, vals, idx, b, d, j0),
        2 => block::<2>(tail, vals, idx, b, d, j0),
        3 => block::<3>(tail, vals, idx, b, d, j0),
        4 => block::<4>(tail, vals, idx, b, d, j0),
        5 => block::<5>(tail, vals, idx, b, d, j0),
        6 => block::<6>(tail, vals, idx, b, d, j0),
        _ => block::<7>(tail, vals, idx, b, d, j0),
    }
}

/// One `W`-column block of [`accumulate_rows`], starting at column `j0`
/// of rows `stride` wide.
#[inline(always)]
fn block<const W: usize>(
    out: &mut [f32],
    vals: &[f32],
    idx: &[u32],
    b: &[f32],
    stride: usize,
    j0: usize,
) {
    let out: &mut [f32; W] = out.try_into().expect("block is W wide");
    let mut acc = *out;
    for (&v, &r) in vals.iter().zip(idx) {
        let start = r as usize * stride + j0;
        let row: &[f32; W] = b[start..start + W].try_into().expect("row slice is W wide");
        for j in 0..W {
            acc[j] += v * row[j];
        }
    }
    *out = acc;
}

/// Write the nonzero entries of `src` and their positions to the front of
/// `vals` and `idx`, in order, and return their count. Branch-free: every
/// entry is written, and the cursor advances only past nonzeros, so `0.0`
/// and `-0.0` are skipped and NaN is kept — exactly the entries a
/// `if x == 0.0 { continue }` loop would use.
///
/// Panics unless `src` has at most `vals.len() == idx.len()` entries.
pub(crate) fn compact_nonzeros(
    src: impl IntoIterator<Item = f32>,
    vals: &mut [f32],
    idx: &mut [u32],
) -> usize {
    assert_eq!(vals.len(), idx.len(), "compact_nonzeros: vals/idx length mismatch");
    assert!(u32::try_from(vals.len()).is_ok(), "compact_nonzeros: positions must fit u32");
    let (mut len, mut seen) = (0, 0);
    for (pos, x) in src.into_iter().enumerate() {
        vals[len] = x;
        idx[len] = pos as u32;
        len += usize::from(x != 0.0);
        seen = pos + 1;
    }
    assert!(seen <= vals.len(), "compact_nonzeros: more entries than buffer space");
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_in_term_order_for_every_block_and_tail_width() {
        let (vals, idx) = ([0.5f32, -1.25, 3.0], [2u32, 0, 2]);
        for d in 0..=72usize {
            let b: Vec<f32> = (0..3 * d).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut out: Vec<f32> = (0..d).map(|j| j as f32 * 0.1).collect();
            let mut expect = out.clone();
            for (&v, &r) in vals.iter().zip(&idx) {
                for (j, e) in expect.iter_mut().enumerate() {
                    *e += v * b[r as usize * d + j];
                }
            }
            accumulate_rows(&mut out, &vals, &idx, &b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expect), "d={d}");
        }
    }
}
