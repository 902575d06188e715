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
//! seven-point stencil needs no bounds or sign branches.

use crate::block::{Block, PredictorTag};

/// Largest lattice magnitude kept on the fast path; beyond it the f64
/// rounding of `v / 2eb` can no longer guarantee the bound, so the value
/// goes out as a verbatim outlier.
const Q_MAX: f64 = (1u64 << 50) as f64;

/// `2^52`: adding and subtracting it rounds a smaller non-negative f64 to
/// an integer (ties to even) in two SSE2 instructions.
const ROUND_MAGIC: f64 = (1u64 << 52) as f64;

/// `f64::round` (ties away from zero) without the libm call baseline
/// x86-64 needs for it: ties-to-even through [`ROUND_MAGIC`], then the one
/// case that differs (a tie rounded down) fixed up. `a - y` is exact, so
/// the result is bit-equal to `round` for every input. Written with
/// selects, not branches, so the pass-1 loop vectorizes.
#[inline]
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
/// keeps the pass-1 loop from vectorizing.
#[inline]
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
#[inline]
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
#[inline]
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
}

/// The rows the Lorenzo stencil of the row starting at padded index `base`
/// reads — `(j-1, k)`, `(j, k-1)`, `(j-1, k-1)` — each `px` long and
/// aligned with that row. `q` needs to hold only the cells ahead of `base`.
#[inline]
fn stencil_rows(q: &[i64], base: usize, px: usize, pxy: usize) -> [&[i64]; 3] {
    [&q[base - px..base], &q[base - pxy..base - pxy + px], &q[base - pxy - px..base - pxy]]
}

/// First-order Lorenzo prediction of cell `i` of a row from the row itself
/// (`left` is cell `i - 1`, the ghost for `i = 0`) and its stencil rows.
#[inline]
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
        Self { q: Vec::new(), size: [0; 3] }
    }

    fn layout(&mut self, size: [usize; 3]) {
        if self.size != size {
            let n = (size[0] + 1) * (size[1] + 1) * (size[2] + 1);
            self.q.clear();
            self.q.resize(n, 0);
            self.size = size;
        }
    }

    /// Padded row length and plane size.
    #[inline]
    fn strides(&self) -> (usize, usize) {
        let px = self.size[0] + 1;
        (px, px * (self.size[1] + 1))
    }

    /// Padded index of the ghost cell that starts row `(j, k)`; the row's
    /// cells follow at `+1..=sx`.
    #[inline]
    fn row_base(&self, j: usize, k: usize) -> usize {
        let (px, pxy) = self.strides();
        px * (j + 1) + pxy * (k + 1)
    }

    /// Pass 1: prequantizes the block into the lattice. `fast[c]` becomes 1
    /// where cell `c` is on the lattice and 0 where it must go out verbatim.
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
    pub fn postquantize(
        &self,
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
                let base = self.row_base(j, k);
                let (before, cur) = self.q.split_at(base);
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

    /// The inverse of both passes: rebuilds the lattice from `codes` and
    /// writes the block's cells of `out`, a row at a time. Arithmetic
    /// wraps, since codes from a hostile stream can drive the recurrence
    /// anywhere — which is also why the Lorenzo sum may be reassociated:
    /// the terms that do not involve the row itself (the stencil and the
    /// code) go into the lattice row in one pass with no dependence along
    /// it, the recurrence that is left is a running sum, and the scale to
    /// `f32` is a third pass. A zero code ends a run: its cell takes the
    /// verbatim value, and the lattice value the encoder used for it
    /// starts the next run. Returns the number of zero codes.
    #[allow(clippy::too_many_arguments)] // mirrors `block::decompress_block`
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
                let dst = b.row_start(ext, j, k);
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
    use crate::block::{compress_block, decompress_block, partition};
    use crate::config::{Dims, PredictorKind};

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
            decompress_block(&o.codes, &o.outliers, o.tag, o.coeffs, ext, b, eb, 1 << 15, &mut rec);
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
                            let counted = fast
                                .reconstruct(&codes, &outliers, tag, &coeffs, ext, &b, eb, radius, &mut got);
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
            fast.reconstruct(&codes, &[1.0], tag, &coeffs, [8, 4, 2], &b, 1e-300, u32::MAX, &mut got);
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
            decompress_block(&codes, &[], tag, coeffs, [8, 4, 2], &b, 1e-300, u32::MAX, &mut out);
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
            &mut out,
        );
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
