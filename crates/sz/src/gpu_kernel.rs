//! Dual-quantization: the fully parallel prediction scheme of the
//! *shipping* GPU SZ (cuSZ / cuSZ+, Tian et al., arXiv:2105.12912), and the
//! only block kernel of this crate.
//!
//! A classic SZ loop predicts from *reconstructed* neighbors, so every cell
//! waits for the quantization of the cell before it. Two quantizations
//! remove that read-after-write:
//!
//! 1. **Prequantization** — every value is independently rounded to an
//!    integer lattice: `q = round(v / 2eb)`. Reconstruction is
//!    `v' = 2eb * q`, so `|v' - v| <= eb` holds *before* any prediction
//!    happens, and it is checked on the very expression the decoder
//!    evaluates (including its final cast to `f32`).
//! 2. **Postquantization** — the predictor runs on the lattice itself:
//!    `code = q - pred(q neighbors) + radius`. `q` is known up front, so
//!    every code is computable in parallel and in exact integer arithmetic.
//!
//! The decoder runs the integer recurrence and multiplies back once.
//! Values the lattice cannot carry (non-finite, `|q| > Q_MAX`, a cast that
//! lands outside the bound) and deltas outside the code radius are stored
//! verbatim as outliers; both sides then predict their neighbors from the
//! same deterministic lattice value ([`prequant`] of the verbatim value).
//!
//! [`Lattice`] is the per-thread scratch both directions work in: the
//! block's lattice values inside a one-cell ghost border of zeros, so the
//! seven-point stencil needs no bounds or sign branches, and a row strip
//! the postquantize passes hand their predictions through.
//!
//! Every pass here is data-parallel along a row, so every pass is written
//! as a row loop the compiler can vectorize, and every function down to
//! the leaves is `#[inline(always)]`: `block` runs a block's passes as one
//! [`foresight_util::cpu::Kernel`], which `cpu::widest` compiles once per
//! vector width (baseline, AVX2, AVX-512) and picks at run time. Integer
//! arithmetic is exact, no multiply and add is ever fused, and division
//! and conversions round correctly at any width, so every width gives the
//! same bits (DESIGN §23).

use crate::block::{Block, PredictorTag};

/// Largest lattice magnitude kept on the fast path; beyond it the f64
/// rounding of `v / 2eb` can no longer guarantee the bound, so the value
/// goes out as a verbatim outlier.
const Q_MAX: f64 = (1u64 << 50) as f64;

/// `2^52`: adding and subtracting it rounds a smaller non-negative f64 to
/// an integer (ties to even) in two SSE2 instructions.
const ROUND_MAGIC: f64 = (1u64 << 52) as f64;

/// Cells of a row the two postquantize passes take at a time: the
/// predictions between them stay in L1 however long the row (a 1-D
/// segment is 32 768 cells).
const STRIP: usize = 512;

/// `f64::round` (ties away from zero) without the libm call baseline
/// x86-64 needs for it: ties-to-even through [`ROUND_MAGIC`], then the one
/// case that differs (a tie rounded down) fixed up. `a - y` is exact, so
/// the result is bit-equal to `round` for every input. Written with
/// selects, not branches, so the row loops vectorize.
#[inline(always)]
fn round_half_away(x: f64) -> f64 {
    let a = x.abs();
    let y = (a + ROUND_MAGIC) - ROUND_MAGIC;
    let y = y + if a - y == 0.5 { 1.0 } else { 0.0 };
    // At or past 2^52 every f64 is an integer already (or not finite).
    (if a < ROUND_MAGIC { y } else { a }).copysign(x)
}

/// An integer-valued f64 with `|q| <= 2^51` as an `i64`: the low mantissa
/// bits of `q + 1.5 * 2^52` hold it in two's complement. `q as i64` is the
/// same number, but its saturation fix-up is scalar-only before AVX-512 and
/// keeps the row loops from vectorizing.
#[inline(always)]
fn lattice_int(q: f64) -> i64 {
    const BIAS: f64 = (3u64 << 51) as f64;
    ((q + BIAS).to_bits() as i64).wrapping_sub(BIAS.to_bits() as i64)
}

/// Prequantizes one value: its lattice value and whether it is on the
/// lattice. A value that is not goes out verbatim and stands as 0 in its
/// neighbors' predictions — on both sides, since the decoder calls this on
/// the verbatim value.
///
/// NaN and ±inf fail the range comparison. The reconstruction is checked
/// after its cast to `f32`, which can push a borderline value past the
/// bound or overflow to infinity; both fail the second comparison.
#[inline(always)]
fn prequant(v: f32, eb: f64) -> (i64, bool) {
    let v = v as f64;
    let two_eb = 2.0 * eb;
    let q = round_half_away(v / two_eb);
    let recon = (q * two_eb) as f32;
    let on_lattice = (q.abs() <= Q_MAX) & ((recon as f64 - v).abs() <= eb);
    (lattice_int(if on_lattice { q } else { 0.0 }), on_lattice)
}

/// The regression plane `b0 + b1 i + b2 j + b3 k` rounded to the lattice.
/// Encoder and decoder both evaluate exactly this expression on the stored
/// `f32` coefficients; a plane the lattice cannot carry predicts 0.
#[inline(always)]
pub(crate) fn plane_lattice(coeffs: &[f32; 4], i: usize, j: usize, k: usize, eb: f64) -> i64 {
    let p = coeffs[0] as f64
        + coeffs[1] as f64 * i as f64
        + coeffs[2] as f64 * j as f64
        + coeffs[3] as f64 * k as f64;
    let q = round_half_away(p / (2.0 * eb));
    lattice_int(if q.abs() <= Q_MAX { q } else { 0.0 })
}

/// Cells of a block the predictor choice samples at most: 8 per axis of a
/// 32^3 cube, every 32nd value of a 1-D segment. Enough for a
/// four-parameter fit and a stable choice (at 512 a few noisy 1-D blocks
/// flipped to the plane and cost 1 % of a field), at under a tenth of the
/// cost of coding the block.
const SAMPLE_BUDGET: usize = 1024;

/// What pass 2 saw: the span of the non-zero codes and how many cells
/// became outliers.
pub(crate) struct CodeStats {
    /// Smallest and largest non-zero code, `None` when there is none.
    pub range: Option<(u32, u32)>,
    /// Cells coded 0.
    pub outliers: usize,
}

/// One block's lattice inside a zero ghost border: cell `(i, j, k)` lives
/// at `(i+1) + px*((j+1) + py*(k+1))` with `px = sx+1`, `py = sy+1`. The
/// border is zeroed when the block shape changes and never written after.
pub(crate) struct Lattice {
    q: Vec<i64>,
    size: [usize; 3],
    /// One strip of a row's predictions, between the two postquantize
    /// passes.
    strip: [i64; STRIP],
}

/// The rows the Lorenzo stencil of the row starting at padded index `base`
/// reads — `(j-1, k)`, `(j, k-1)`, `(j-1, k-1)` — each `px` long and
/// aligned with that row. `q` needs to hold only the cells ahead of `base`.
#[inline(always)]
fn stencil_rows(q: &[i64], base: usize, px: usize, pxy: usize) -> [&[i64]; 3] {
    [&q[base - px..base], &q[base - pxy..base - pxy + px], &q[base - pxy - px..base - pxy]]
}

/// First-order Lorenzo prediction of cell `i` of a row from the row itself
/// (`left` is cell `i - 1`, the ghost for `i = 0`) and its stencil rows.
#[inline(always)]
fn lorenzo(left: i64, [up, back, bu]: [&[i64]; 3], i: usize) -> i64 {
    left.wrapping_add(up[i + 1])
        .wrapping_sub(up[i])
        .wrapping_add(back[i + 1])
        .wrapping_sub(back[i])
        .wrapping_sub(bu[i + 1])
        .wrapping_add(bu[i])
}

impl Lattice {
    pub const fn new() -> Self {
        Self { q: Vec::new(), size: [0; 3], strip: [0; STRIP] }
    }

    #[inline(always)]
    fn layout(&mut self, size: [usize; 3]) {
        if self.size != size {
            let n = (size[0] + 1) * (size[1] + 1) * (size[2] + 1);
            self.q.clear();
            self.q.resize(n, 0);
            self.size = size;
        }
    }

    /// Padded row length and plane size.
    #[inline(always)]
    fn strides(&self) -> (usize, usize) {
        let px = self.size[0] + 1;
        (px, px * (self.size[1] + 1))
    }

    /// Padded index of the ghost cell that starts row `(j, k)`; the row's
    /// cells follow at `+1..=sx`.
    #[inline(always)]
    fn row_base(&self, j: usize, k: usize) -> usize {
        let (px, pxy) = self.strides();
        px * (j + 1) + pxy * (k + 1)
    }

    /// Pass 1: prequantizes the block into the lattice. `fast[c]` becomes 1
    /// where cell `c` is on the lattice and 0 where it must go out verbatim.
    #[inline(always)]
    pub fn prequantize(
        &mut self,
        data: &[f32],
        ext: [usize; 3],
        b: &Block,
        eb: f64,
        fast: &mut [u32],
    ) {
        self.layout(b.size);
        let [sx, sy, sz] = b.size;
        let mut marks = fast.chunks_exact_mut(sx);
        for k in 0..sz {
            for j in 0..sy {
                let src = b.row_start(ext, j, k);
                let base = self.row_base(j, k) + 1;
                let cells = self.q[base..base + sx].iter_mut();
                let marks = marks.next().unwrap_or_default();
                for ((q, m), &v) in cells.zip(marks).zip(&data[src..src + sx]) {
                    let (lattice, on_lattice) = prequant(v, eb);
                    *q = lattice;
                    *m = on_lattice as u32;
                }
            }
        }
    }

    /// Stride and count per axis of the sample the predictor choice looks
    /// at: every `stride`-th cell from the block's origin, with the smallest
    /// power-of-two stride that leaves at most [`SAMPLE_BUDGET`] cells, so
    /// choosing costs the same for every block.
    #[inline(always)]
    pub fn sample_grid(&self) -> [(usize, usize); 3] {
        let mut stride = 1;
        loop {
            let grid = self.size.map(|extent| (stride, extent.div_ceil(stride)));
            if grid.iter().map(|&(_, count)| count).product::<usize>() <= SAMPLE_BUDGET {
                return grid;
            }
            stride *= 2;
        }
    }

    /// Calls `f(i, j, k, q, lorenzo prediction of q)` on every cell of
    /// [`Self::sample_grid`].
    #[inline(always)]
    pub fn for_each_sample(&self, mut f: impl FnMut(usize, usize, usize, i64, i64)) {
        let (px, pxy) = self.strides();
        let [xs, ys, zs] =
            self.sample_grid().map(|(stride, count)| (0..count).map(move |s| s * stride));
        for k in zs {
            for j in ys.clone() {
                let base = self.row_base(j, k);
                let stencil = stencil_rows(&self.q, base, px, pxy);
                let cur = &self.q[base..base + px];
                for i in xs.clone() {
                    f(i, j, k, cur[i + 1], lorenzo(cur[i], stencil, i));
                }
            }
        }
    }

    /// Pass 2: turns each `fast` mark into the cell's code,
    /// `q - pred + radius` when that lies in `[1, 2*radius)` and 0 (an
    /// outlier) otherwise. The encoder's lattice stays within `Q_MAX`, so
    /// neither the stencil nor the delta can overflow.
    ///
    /// Two passes per [`STRIP`] of a row: the predictions (the Lorenzo
    /// stencil, which reads only rows and cells already in the lattice, or
    /// the plane) go into the strip, then one branch-free pass emits the
    /// codes and folds the code range and the outlier count.
    #[inline(always)]
    pub fn postquantize(
        &mut self,
        tag: PredictorTag,
        coeffs: &[f32; 4],
        eb: f64,
        radius: u32,
        codes: &mut [u32],
    ) -> CodeStats {
        let [sx, sy, sz] = self.size;
        let (px, pxy) = self.strides();
        let r = radius as i64;
        let (mut lo, mut hi, mut outliers) = (u32::MAX, 0u32, 0usize);
        let mut rows = codes.chunks_exact_mut(sx);
        for k in 0..sz {
            for j in 0..sy {
                let base = self.row_base(j, k);
                let (before, cur) = self.q.split_at(base);
                let cur = &cur[..px];
                let row = rows.next().unwrap_or_default();
                for (s, codes) in row.chunks_mut(STRIP).enumerate() {
                    let (start, n) = (s * STRIP, codes.len());
                    let pred = &mut self.strip[..n];
                    // `left` is `cur[i]`, cell `i` is `cur[i + 1]`.
                    let cur = &cur[start..=start + n];
                    match tag {
                        PredictorTag::Lorenzo => {
                            let stencil =
                                stencil_rows(before, base, px, pxy).map(|s| &s[start..=start + n]);
                            for (i, p) in pred.iter_mut().enumerate() {
                                *p = lorenzo(cur[i], stencil, i);
                            }
                        }
                        PredictorTag::Regression => {
                            for (i, p) in (start..).zip(pred.iter_mut()) {
                                *p = plane_lattice(coeffs, i, j, k, eb);
                            }
                        }
                    }
                    for ((code, &q), &pred) in codes.iter_mut().zip(&cur[1..]).zip(&*pred) {
                        let delta = q - pred;
                        let sym = delta + r;
                        let ok = (*code != 0) & (((sym - 1) as u64) < (2 * r - 1) as u64);
                        *code = if ok { sym as u32 } else { 0 };
                        lo = lo.min(if ok { sym as u32 } else { u32::MAX });
                        hi = hi.max(*code);
                        outliers += !ok as usize;
                    }
                }
            }
        }
        CodeStats { range: (lo <= hi).then_some((lo, hi)), outliers }
    }

    /// The inverse of both passes: rebuilds the lattice from `codes` and
    /// writes the block's cells of `out` — the slab of the array that
    /// starts at index `base` — a row at a time. Arithmetic
    /// wraps, since codes from a hostile stream can drive the recurrence
    /// anywhere — which is also why the Lorenzo sum may be reassociated:
    /// the terms that do not involve the row itself (the stencil and the
    /// code) go into the lattice row in one pass with no dependence along
    /// it, the recurrence that is left is a running sum, and the scale to
    /// `f32` is a third pass. A zero code ends a run: its cell takes the
    /// verbatim value, and the lattice value the encoder used for it
    /// starts the next run. Returns the number of zero codes.
    #[allow(clippy::too_many_arguments)] // mirrors `block::decompress_block`
    #[inline(always)]
    pub fn reconstruct(
        &mut self,
        codes: &[u32],
        outliers: &[f32],
        tag: PredictorTag,
        coeffs: &[f32; 4],
        ext: [usize; 3],
        b: &Block,
        eb: f64,
        radius: u32,
        base: usize,
        out: &mut [f32],
    ) -> usize {
        self.layout(b.size);
        let [sx, sy, sz] = b.size;
        let (px, pxy) = self.strides();
        let r = radius as i64;
        let two_eb = 2.0 * eb;
        let mut outliers = outliers.iter();
        let mut rows = codes.chunks_exact(sx);
        let mut all_zeros = 0;
        for k in 0..sz {
            for j in 0..sy {
                let dst = b.row_start(ext, j, k) - base;
                let out = &mut out[dst..dst + sx];
                let base = self.row_base(j, k);
                let (before, cur) = self.q.split_at_mut(base);
                let cur = &mut cur[..px];
                let row = rows.next().unwrap_or_default();
                let cells = cur[1..].iter_mut().zip(row).enumerate();
                let mut zeros = 0;
                match tag {
                    PredictorTag::Lorenzo => {
                        let stencil = stencil_rows(before, base, px, pxy);
                        for (i, (q, &sym)) in cells {
                            *q = lorenzo(sym as i64 - r, stencil, i);
                            zeros += (sym == 0) as usize;
                        }
                    }
                    PredictorTag::Regression => {
                        for (i, (q, &sym)) in cells {
                            *q = plane_lattice(coeffs, i, j, k, eb).wrapping_add(sym as i64 - r);
                            zeros += (sym == 0) as usize;
                        }
                    }
                }
                all_zeros += zeros;
                let mut start = 0;
                while start < sx {
                    let run = match zeros {
                        0 => sx - start,
                        _ => row[start..].iter().position(|&sym| sym == 0).unwrap_or(sx - start),
                    };
                    let end = start + run;
                    if tag == PredictorTag::Lorenzo {
                        let mut left = cur[start];
                        for q in &mut cur[start + 1..=end] {
                            left = left.wrapping_add(*q);
                            *q = left;
                        }
                    }
                    for (o, &q) in out[start..end].iter_mut().zip(&cur[start + 1..=end]) {
                        *o = (q as f64 * two_eb) as f32;
                    }
                    if end < sx {
                        // A verbatim cell predicts its neighbors from the
                        // lattice value the encoder used for it.
                        let v = outliers.next().copied().unwrap_or(0.0);
                        (cur[end + 1], out[end]) = (prequant(v, eb).0, v);
                    }
                    start = end + 1;
                }
            }
        }
        all_zeros
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{
        choose, compress_block, decompress_block, forced, gather_outliers, partition, BlockOutput,
        Decode, Encode,
    };
    use crate::config::{Dims, PredictorKind, SzConfig};
    use foresight_util::cpu::{self, Level};

    /// The per-cell loop [`Lattice::reconstruct`] replaced, kept as its
    /// bit-for-bit reference.
    #[allow(clippy::too_many_arguments)]
    fn reconstruct_reference(
        lattice: &mut Lattice,
        codes: &[u32],
        outliers: &[f32],
        tag: PredictorTag,
        coeffs: &[f32; 4],
        ext: [usize; 3],
        b: &Block,
        eb: f64,
        radius: u32,
        out: &mut [f32],
    ) {
        lattice.layout(b.size);
        let [sx, sy, sz] = b.size;
        let (px, pxy) = lattice.strides();
        let r = radius as i64;
        let two_eb = 2.0 * eb;
        let mut outliers = outliers.iter();
        // One cell: its lattice value (for its neighbors) and its output.
        // A verbatim cell predicts its neighbors from the lattice value the
        // encoder used for it.
        let mut cell = |sym: u32, pred: i64| {
            if sym == 0 {
                let v = outliers.next().copied().unwrap_or(0.0);
                (prequant(v, eb).0, v)
            } else {
                let q = pred.wrapping_add(sym as i64 - r);
                (q, (q as f64 * two_eb) as f32)
            }
        };
        let mut rows = codes.chunks_exact(sx);
        for k in 0..sz {
            for j in 0..sy {
                let dst = b.row_start(ext, j, k);
                let base = lattice.row_base(j, k);
                let (before, cur) = lattice.q.split_at_mut(base);
                let cur = &mut cur[..px];
                let row = rows.next().unwrap_or_default();
                let cells = out[dst..dst + sx].iter_mut().zip(row).enumerate();
                match tag {
                    PredictorTag::Lorenzo => {
                        let stencil = stencil_rows(before, base, px, pxy);
                        for (i, (o, &sym)) in cells {
                            (cur[i + 1], *o) = cell(sym, lorenzo(cur[i], stencil, i));
                        }
                    }
                    PredictorTag::Regression => {
                        for (i, (o, &sym)) in cells {
                            (cur[i + 1], *o) = cell(sym, plane_lattice(coeffs, i, j, k, eb));
                        }
                    }
                }
            }
        }
    }

    /// The per-cell loop [`Lattice::postquantize`] replaced, kept as its
    /// bit-for-bit reference.
    fn postquantize_reference(
        lattice: &Lattice,
        tag: PredictorTag,
        coeffs: &[f32; 4],
        eb: f64,
        radius: u32,
        codes: &mut [u32],
    ) -> CodeStats {
        let [sx, sy, sz] = lattice.size;
        let (px, pxy) = lattice.strides();
        let r = radius as i64;
        let (mut lo, mut hi, mut outliers) = (u32::MAX, 0u32, 0usize);
        let mut emit = |code: &mut u32, delta: i64| {
            let sym = delta + r;
            let ok = *code != 0 && ((sym - 1) as u64) < (2 * r - 1) as u64;
            *code = if ok { sym as u32 } else { 0 };
            lo = lo.min(if ok { sym as u32 } else { u32::MAX });
            hi = hi.max(*code);
            outliers += !ok as usize;
        };
        let mut rows = codes.chunks_exact_mut(sx);
        for k in 0..sz {
            for j in 0..sy {
                let base = lattice.row_base(j, k);
                let (before, cur) = lattice.q.split_at(base);
                let cur = &cur[..px];
                let row = rows.next().unwrap_or_default();
                match tag {
                    PredictorTag::Lorenzo => {
                        let stencil = stencil_rows(before, base, px, pxy);
                        for (i, code) in row.iter_mut().enumerate() {
                            emit(code, cur[i + 1] - lorenzo(cur[i], stencil, i));
                        }
                    }
                    PredictorTag::Regression => {
                        for (i, code) in row.iter_mut().enumerate() {
                            emit(code, cur[i + 1] - plane_lattice(coeffs, i, j, k, eb));
                        }
                    }
                }
            }
        }
        CodeStats { range: (lo <= hi).then_some((lo, hi)), outliers }
    }

    /// [`compress_block`] with [`postquantize_reference`] for pass 2, on a
    /// fresh lattice: the block output and the lattice it left.
    fn compress_reference(
        data: &[f32],
        ext: [usize; 3],
        b: &Block,
        eb: f64,
        radius: u32,
        pred: PredictorKind,
    ) -> (BlockOutput, Vec<i64>) {
        let mut lattice = Lattice::new();
        let mut codes = vec![0u32; b.cells()];
        lattice.prequantize(data, ext, b, eb, &mut codes);
        let (tag, coeffs) = choose(&lattice, pred, eb, radius);
        let stats = postquantize_reference(&lattice, tag, &coeffs, eb, radius, &mut codes);
        let outliers = gather_outliers(data, ext, b, &codes, stats.outliers);
        (BlockOutput { codes, code_range: stats.range, outliers, tag, coeffs }, lattice.q)
    }

    /// Everything a block output holds — codes, code range, outliers, tag
    /// and coefficients — with floats as bits (NaN outliers compare equal
    /// to themselves).
    type OutputBits = (Vec<u32>, Option<(u32, u32)>, Vec<u32>, PredictorTag, [u32; 4]);

    fn output_bits(o: &BlockOutput) -> OutputBits {
        let bits = o.outliers.iter().map(|v| v.to_bits()).collect();
        (o.codes.clone(), o.code_range, bits, o.tag, o.coeffs.map(f32::to_bits))
    }

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.013).sin() * 50.0 + (i as f32 * 0.0007).cos() * 500.0)
            .collect()
    }

    /// Every block of `dims` through both passes and back; returns the
    /// reconstruction and the number of outliers.
    fn roundtrip(
        data: &[f32],
        dims: Dims,
        eb: f64,
        bs: usize,
        pred: PredictorKind,
    ) -> (Vec<f32>, usize) {
        let ext = dims.extents();
        let mut rec = vec![0.0f32; data.len()];
        let mut outliers = 0;
        for b in &partition(dims, bs) {
            let o = compress_block(data, ext, b, eb, 1 << 15, pred);
            assert_eq!(o.codes.iter().filter(|&&c| c == 0).count(), o.outliers.len());
            outliers += o.outliers.len();
            let (codes, outliers) = (&o.codes, &o.outliers);
            decompress_block(codes, outliers, o.tag, o.coeffs, ext, b, eb, 1 << 15, 0, &mut rec);
        }
        (rec, outliers)
    }

    fn check_bound(orig: &[f32], rec: &[f32], eb: f64) {
        for (a, b) in orig.iter().zip(rec) {
            if a.is_finite() {
                assert!((*a as f64 - *b as f64).abs() <= eb, "{a} vs {b}");
            } else {
                assert_eq!(a.to_bits(), b.to_bits(), "non-finite must survive verbatim");
            }
        }
    }

    #[test]
    fn round_half_away_is_bit_equal_to_round() {
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            0.49999999999999994,
            -0.49999999999999994,
            1e15 + 0.5,
            -(1e15 + 0.5),
            Q_MAX,
            Q_MAX + 0.5,
            -Q_MAX - 0.5,
            ROUND_MAGIC - 0.5,
            ROUND_MAGIC,
            ROUND_MAGIC + 1.0,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let whole = (s >> 20) as f64 * if s & 1 == 0 { 1.0 } else { -1.0 };
            cases.extend([f64::from_bits(s), whole + 0.5, whole / 1024.0, whole / 3.0]);
        }
        for x in cases {
            if !x.is_nan() {
                assert_eq!(round_half_away(x).to_bits(), x.round().to_bits(), "{x:e}");
            }
        }
        assert!(round_half_away(f64::NAN).is_nan());
        for q in [0.0, -0.0, 1.0, -1.0, 123_456_789.0, -Q_MAX, Q_MAX, 2.0 * Q_MAX, -2.0 * Q_MAX] {
            assert_eq!(lattice_int(q), q as i64, "{q:e}");
        }
    }

    #[test]
    fn prequant_checks_the_expression_the_decoder_evaluates() {
        for (v, eb) in [(1.0f32, 0.01f64), (-123.456, 0.5), (1e-40, 1e-42), (16_777_218.0, 0.3)] {
            let (q, on_lattice) = prequant(v, eb);
            assert!(on_lattice && ((q as f64 * (2.0 * eb)) as f32 as f64 - v as f64).abs() <= eb);
            assert_eq!(q, (v as f64 / (2.0 * eb)).round() as i64);
        }
        assert_eq!(prequant(f32::NAN, 0.1), (0, false));
        assert_eq!(prequant(f32::INFINITY, 0.1), (0, false));
        assert_eq!(prequant(1e30, 1e-30), (0, false), "|q| past Q_MAX");
        // The lattice point is within the bound as an f64 but its f32 cast
        // (spacing 2 at 2^24) is not.
        let (v, eb) = (16_777_218.0f32, 1.4f64);
        let point = (v as f64 / (2.0 * eb)).round() * 2.0 * eb;
        assert!((point - v as f64).abs() <= eb && (point as f32 as f64 - v as f64).abs() > eb);
        assert_eq!(prequant(v, eb), (0, false));
    }

    #[test]
    fn roundtrip_1d_respects_bound() {
        let data = field(20_000);
        for eb in [0.5, 0.01] {
            for pred in [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::Adaptive]
            {
                let (rec, _) = roundtrip(&data, Dims::D1(20_000), eb, 16, pred);
                check_bound(&data, &rec, eb);
            }
        }
    }

    #[test]
    fn roundtrip_3d_respects_bound() {
        let data = field(17 * 13 * 9);
        for pred in [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::Adaptive] {
            let (rec, outliers) = roundtrip(&data, Dims::D3(17, 13, 9), 0.1, 8, pred);
            check_bound(&data, &rec, 0.1);
            assert!(outliers * 20 < data.len(), "{pred:?}: {outliers} outliers");
        }
    }

    #[test]
    fn non_finite_inputs_are_flagged() {
        let mut data = field(256);
        data[7] = f32::NAN;
        data[100] = f32::INFINITY;
        data[101] = f32::NEG_INFINITY;
        let (rec, outliers) = roundtrip(&data, Dims::D1(256), 0.1, 4, PredictorKind::Lorenzo);
        // The three non-finite cells, each block's first cell (far from the
        // zero ghost) and the cell after each verbatim run.
        assert!((3..16).contains(&outliers), "{outliers}");
        check_bound(&data, &rec, 0.1);
    }

    #[test]
    fn scratch_survives_a_change_of_block_shape() {
        // The ghost border must be re-zeroed when a thread's next block has
        // another shape: interleave two shapes on one thread.
        let data = field(9 * 9 * 9);
        let (full, _) = roundtrip(&data, Dims::D3(9, 9, 9), 0.05, 8, PredictorKind::Lorenzo);
        check_bound(&data, &full, 0.05);
        let (again, _) = roundtrip(&data, Dims::D3(9, 9, 9), 0.05, 8, PredictorKind::Lorenzo);
        assert_eq!(full, again);
    }

    #[test]
    fn row_passes_rebuild_what_the_per_cell_loop_rebuilds() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let outlier_values = [3.25f32, f32::NAN, -7.5, f32::INFINITY, 1e30, 0.0, f32::NEG_INFINITY];
        let planes = [
            [1.5f32, 0.25, -0.5, 0.125],
            [f32::NAN, 1.0, 1.0, 1.0],
            [f32::INFINITY, f32::NEG_INFINITY, 0.0, 1e38],
            [1e38, 1e38, -1e38, 1e38],
        ];
        // Which cells are coded 0: (cell, cells) -> bool.
        type Pattern = fn(usize, usize) -> bool;
        let patterns: [(&str, Pattern); 6] = [
            ("nowhere", |_, _| false),
            ("first cell", |c, _| c == 0),
            ("last cell", |c, n| c + 1 == n),
            ("adjacent pairs", |c, _| c % 7 < 2),
            ("every cell", |_, _| true),
            ("every 255th", |c, _| c % 255 == 254),
        ];
        let mut s = 0x9e37_79b9_7f4a_7c15u64;
        for size in [[1, 1, 1], [2, 2, 3], [33, 1, 1], [32_768, 1, 1], [17, 5, 1], [8, 4, 2], [9, 9, 9]] {
            let b = Block { origin: [1, 0, 0], size };
            let ext = [size[0] + 2, size[1], size[2]];
            let n = b.cells();
            for (what, is_zero) in patterns {
                let codes: Vec<u32> = (0..n)
                    .map(|c| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        if is_zero(c, n) { 0 } else { 32_768 - 40 + (s % 81) as u32 }
                    })
                    .collect();
                let zeros = codes.iter().filter(|&&c| c == 0).count();
                // One verbatim value per zero code, or one too few.
                for short in [0, 1] {
                    let outliers: Vec<f32> =
                        outlier_values.iter().cycle().take(zeros.saturating_sub(short)).copied().collect();
                    let lorenzo = std::iter::once((PredictorTag::Lorenzo, [0.0; 4]));
                    let cases = lorenzo.chain(planes.map(|p| (PredictorTag::Regression, p)));
                    for (tag, coeffs) in cases {
                        for (eb, radius) in [(0.01, 1 << 15), (1e-300, 1 << 15)] {
                            let (mut fast, mut slow) = (Lattice::new(), Lattice::new());
                            let (mut got, mut want) = (vec![-1.0f32; n + 2 * n / size[0]], vec![]);
                            want.clone_from(&got);
                            let counted = fast.reconstruct(
                                &codes, &outliers, tag, &coeffs, ext, &b, eb, radius, 0, &mut got,
                            );
                            assert_eq!(counted, zeros);
                            reconstruct_reference(
                                &mut slow, &codes, &outliers, tag, &coeffs, ext, &b, eb, radius, &mut want,
                            );
                            let ctx = format!("{size:?} zeros {what} -{short} {tag:?} {coeffs:?} eb={eb}");
                            assert_eq!(fast.q, slow.q, "{ctx}: lattice");
                            assert_eq!(bits(&got), bits(&want), "{ctx}: output");
                        }
                    }
                }
            }
        }
        // Hostile codes wrap the recurrence; neither loop panics and both
        // wrap alike.
        let b = Block { origin: [0, 0, 0], size: [8, 4, 2] };
        for tag in [PredictorTag::Lorenzo, PredictorTag::Regression] {
            let codes: Vec<u32> = (0..64).map(|c| if c % 9 == 4 { 0 } else { u32::MAX - c }).collect();
            let (mut fast, mut slow) = (Lattice::new(), Lattice::new());
            let (mut got, mut want) = (vec![0.0f32; 64], vec![0.0f32; 64]);
            let coeffs = [f32::INFINITY, f32::NAN, -1e38, 1e38];
            let ext = [8, 4, 2];
            fast.reconstruct(&codes, &[1.0], tag, &coeffs, ext, &b, 1e-300, u32::MAX, 0, &mut got);
            reconstruct_reference(
                &mut slow, &codes, &[1.0], tag, &coeffs, [8, 4, 2], &b, 1e-300, u32::MAX, &mut want,
            );
            assert_eq!(fast.q, slow.q, "{tag:?}");
            assert_eq!(bits(&got), bits(&want), "{tag:?}");
        }
    }

    #[test]
    fn hostile_codes_and_coefficients_decode_without_panic() {
        let b = Block { origin: [0, 0, 0], size: [8, 4, 2] };
        let codes = vec![u32::MAX; 64];
        let mut out = vec![0.0f32; 64];
        for (tag, coeffs) in [
            (PredictorTag::Lorenzo, [0.0; 4]),
            (PredictorTag::Regression, [f32::INFINITY, f32::NAN, -1e38, 1e38]),
        ] {
            let ext = [8, 4, 2];
            decompress_block(&codes, &[], tag, coeffs, ext, &b, 1e-300, u32::MAX, 0, &mut out);
        }
        // Zero codes with no outliers to draw from decode as 0.0.
        decompress_block(
            &[0; 64],
            &[],
            PredictorTag::Lorenzo,
            [0.0; 4],
            [8, 4, 2],
            &b,
            0.1,
            2,
            0,
            &mut out,
        );
        assert!(out.iter().all(|&v| v == 0.0));
    }

    /// A smooth field with every value class the lattice treats apart
    /// sprinkled in: NaN, ±inf, ±1e38, subnormals, values either side of
    /// the `Q_MAX` edge at `eb`, and exact ties of the rounding.
    fn hostile_field(n: usize, eb: f64) -> Vec<f32> {
        let edge = (Q_MAX * 2.0 * eb) as f32;
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e38,
            -1e38,
            1e-40,
            -1e-42,
            f32::MIN_POSITIVE,
            edge,
            -edge,
            edge.next_up(),
            edge.next_down(),
            (Q_MAX * 2.0 * eb * 1.5) as f32,
            (2.5 * 2.0 * eb) as f32,
            (-0.5 * 2.0 * eb) as f32,
        ];
        let mut data = field(n);
        for (c, v) in data.iter_mut().enumerate() {
            if c % 23 == 11 {
                *v = specials[(c / 23) % specials.len()];
            }
        }
        data
    }

    /// Levels this host runs, and the ones it skips (reported).
    fn host_levels(what: &str) -> Vec<Level> {
        let (ran, skipped): (Vec<Level>, Vec<Level>) =
            Level::ALL.into_iter().partition(|&l| l <= cpu::level());
        if !skipped.is_empty() {
            eprintln!("{what}: this CPU does not run {skipped:?}; those levels are skipped");
        }
        ran
    }

    #[test]
    fn every_level_codes_and_rebuilds_like_the_baseline_and_the_per_cell_loops() {
        let levels = host_levels("lattice passes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Rows longer than a strip come from 1-D segments, a 2-D tile of
        // 1024 and a 3-D cube of 1024 (one block, clamped to the array).
        let shapes =
            [Dims::D1(70_001), Dims::D2(1300, 7), Dims::D3(37, 21, 19), Dims::D3(600, 5, 3)];
        let preds = [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::Adaptive];
        let mut blocks_checked = 0;
        for dims in shapes {
            let ext = dims.extents();
            for bs in [2, 3, 8, 16, 32, 1024] {
                let tiles = partition(dims, bs);
                // The first block, the last (an edge block on every axis)
                // and one from the middle.
                let mut picks = vec![0, tiles.len() / 2, tiles.len() - 1];
                picks.dedup();
                // Plain values (where a fitted plane is a real slope) and
                // every special class; a radius of 4 makes outliers common.
                let cases = [
                    (1e-3, 1 << 15, false),
                    (1e-3, 1 << 15, true),
                    (0.5, 4, false),
                    (0.5, 4, true),
                ];
                for (eb, radius, hostile) in cases {
                    let data =
                        if hostile { hostile_field(dims.len(), eb) } else { field(dims.len()) };
                    for pred in preds {
                        for b in picks.iter().map(|&i| &tiles[i]) {
                            let ctx =
                                format!("{dims:?} bs {bs} {b:?} eb {eb} radius {radius} hostile {hostile} {pred:?}");
                            let (want, want_q) =
                                compress_reference(&data, ext, b, eb, radius, pred);
                            let mut want_out = vec![-1.0f32; data.len()];
                            let mut reference = Lattice::new();
                            reconstruct_reference(
                                &mut reference,
                                &want.codes,
                                &want.outliers,
                                want.tag,
                                &want.coeffs,
                                ext,
                                b,
                                eb,
                                radius,
                                &mut want_out,
                            );
                            for &level in &levels {
                                let ctx = format!("{ctx} at {level:?}");
                                // The kernels on a lattice of their own.
                                let mut lattice = Lattice::new();
                                let mut codes = vec![0u32; b.cells()];
                                let encode = Encode {
                                    lattice: &mut lattice,
                                    data: &data,
                                    ext,
                                    block: b,
                                    eb,
                                    radius,
                                    predictor: pred,
                                    codes: &mut codes,
                                };
                                let (tag, coeffs, stats) = cpu::at(level, encode).unwrap();
                                let outliers =
                                    gather_outliers(&data, ext, b, &codes, stats.outliers);
                                let got = BlockOutput {
                                    codes,
                                    code_range: stats.range,
                                    outliers,
                                    tag,
                                    coeffs,
                                };
                                assert_eq!(output_bits(&got), output_bits(&want), "{ctx}: encode");
                                assert_eq!(
                                    stats.outliers,
                                    want.outliers.len(),
                                    "{ctx}: outlier count"
                                );
                                assert_eq!(lattice.q, want_q, "{ctx}: encoder lattice");
                                let mut out = vec![-1.0f32; data.len()];
                                let decode = Decode {
                                    lattice: &mut lattice,
                                    codes: &got.codes,
                                    outliers: &got.outliers,
                                    tag,
                                    coeffs,
                                    ext,
                                    block: b,
                                    eb,
                                    radius,
                                    base: 0,
                                    out: &mut out,
                                };
                                assert_eq!(
                                    cpu::at(level, decode),
                                    Some(want.outliers.len()),
                                    "{ctx}"
                                );
                                assert_eq!(lattice.q, reference.q, "{ctx}: decoder lattice");
                                assert_eq!(bits(&out), bits(&want_out), "{ctx}: output");
                                // The public entries, forced to this level.
                                let got = forced::at(level, || {
                                    compress_block(&data, ext, b, eb, radius, pred)
                                });
                                assert_eq!(
                                    output_bits(&got.unwrap()),
                                    output_bits(&want),
                                    "{ctx}: compress_block"
                                );
                                let mut out = vec![-1.0f32; data.len()];
                                let zeros = forced::at(level, || {
                                    let (codes, outliers) = (&want.codes, &want.outliers);
                                    decompress_block(
                                        codes, outliers, tag, coeffs, ext, b, eb, radius, 0,
                                        &mut out,
                                    )
                                });
                                assert_eq!(zeros, Some(want.outliers.len()), "{ctx}");
                                assert_eq!(bits(&out), bits(&want_out), "{ctx}: decompress_block");
                            }
                            blocks_checked += 1;
                        }
                    }
                }
            }
        }
        assert!(blocks_checked > 500, "{blocks_checked}");
        // Hostile codes and coefficients wrap alike at every level.
        let b = Block { origin: [0, 0, 0], size: [37, 4, 2] };
        let codes: Vec<u32> =
            (0..b.cells() as u32).map(|c| if c % 9 == 4 { 0 } else { u32::MAX - c }).collect();
        for (tag, coeffs) in [
            (PredictorTag::Lorenzo, [0.0; 4]),
            (PredictorTag::Regression, [f32::INFINITY, f32::NAN, -1e38, 1e38]),
            (PredictorTag::Regression, [1e30, -3.5, 1e-30, 7.0]),
        ] {
            let mut reference = Lattice::new();
            let mut want = vec![0.0f32; b.cells()];
            let outliers = [1.0, f32::NAN, -1e38];
            let ext = b.size;
            reconstruct_reference(
                &mut reference,
                &codes,
                &outliers,
                tag,
                &coeffs,
                ext,
                &b,
                1e-300,
                u32::MAX,
                &mut want,
            );
            for &level in &levels {
                let mut lattice = Lattice::new();
                let mut out = vec![0.0f32; b.cells()];
                let decode = Decode {
                    lattice: &mut lattice,
                    codes: &codes,
                    outliers: &outliers,
                    tag,
                    coeffs,
                    ext,
                    block: &b,
                    eb: 1e-300,
                    radius: u32::MAX,
                    base: 0,
                    out: &mut out,
                };
                cpu::at(level, decode).unwrap();
                assert_eq!(lattice.q, reference.q, "{tag:?} {coeffs:?} at {level:?}");
                assert_eq!(bits(&out), bits(&want), "{tag:?} {coeffs:?} at {level:?}");
            }
        }
    }

    #[test]
    fn streams_are_identical_at_every_level_on_1_2_4_threads_and_the_device() {
        let levels = host_levels("streams");
        let cases = [
            (Dims::D1(70_001), SzConfig::abs(1e-3)),
            (Dims::D3(40, 33, 17), SzConfig { block_size: 16, ..SzConfig::abs(0.05) }),
            (
                Dims::D3(40, 33, 17),
                SzConfig {
                    block_size: 8,
                    predictor: PredictorKind::Regression,
                    ..SzConfig::abs(0.5)
                },
            ),
            (
                Dims::D2(130, 70),
                SzConfig { predictor: PredictorKind::Lorenzo, ..SzConfig::rel(1e-4) },
            ),
        ];
        for (dims, cfg) in cases {
            let data = hostile_field(dims.len(), 1e-3);
            let baseline =
                forced::at(Level::Baseline, || crate::compress(&data, dims, &cfg).unwrap())
                    .unwrap();
            let decoded =
                forced::at(Level::Baseline, || crate::decompress(&baseline).unwrap().0).unwrap();
            let decoded_bits: Vec<u32> = decoded.iter().map(|v| v.to_bits()).collect();
            for &level in &levels {
                let ctx = format!("{dims:?} {:?} {:?} at {level:?}", cfg.mode, cfg.predictor);
                forced::at(level, || {
                    for threads in [1, 2, 4] {
                        foresight_util::parallel::with_threads(threads, || {
                            assert!(
                                crate::compress(&data, dims, &cfg).unwrap() == baseline,
                                "{ctx}, {threads} threads"
                            );
                            let (values, _) = crate::decompress(&baseline).unwrap();
                            let got: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                            assert!(got == decoded_bits, "{ctx}, {threads} threads: values");
                        });
                    }
                    let mut device = gpu_sim::Device::new(gpu_sim::GpuSpec::tesla_v100());
                    let (on_device, _) =
                        crate::gpu_exec::compress_on(&mut device, &data, dims, &cfg).unwrap();
                    assert!(on_device == baseline, "{ctx}: device stream");
                    let (values, ..) =
                        crate::gpu_exec::decompress_on(&mut device, &baseline).unwrap();
                    let got: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                    assert!(got == decoded_bits, "{ctx}: device values");
                });
            }
        }
    }
}
