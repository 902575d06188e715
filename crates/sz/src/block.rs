//! The block tiling, per-block predictor choice, and the block
//! compress / decompress entry points.
//!
//! GPU-SZ (and cuSZ after it) obtains parallelism by cutting the array into
//! independent blocks; each block predicts only from data inside itself, so
//! blocks compress and decompress with no cross-block dependency. The cost
//! is decorrelation at block borders — the paper (Fig. 4a discussion)
//! attributes GPU-SZ's low-bitrate PSNR drop to exactly this, and this
//! implementation reproduces it faithfully: the first plane/row/point of a
//! block is predicted from an implicit zero ghost boundary.
//!
//! The arithmetic — dual quantization on an integer lattice — lives in
//! `gpu_kernel`; this module decides *which* predictor codes the
//! lattice and packages the result for the stream layer.
//!
//! A block's lattice passes run as one [`cpu::Kernel`] — [`Encode`] one
//! way, [`Decode`] the other — at the widest vector width the CPU has
//! (DESIGN §23). The thread's [`Lattice`] is borrowed *before* the
//! dispatch and passed in: a thread-local access inside the body would be
//! compiled at the baseline, and take the body's wide code with it.

use crate::config::{Dims, PredictorKind};
use crate::gpu_kernel::{plane_lattice, CodeStats, Lattice};
use foresight_util::{cpu, Result, Tiles};
use std::cell::RefCell;

/// A rectangular tile of the input array: origin and clamped extent.
pub use foresight_util::tiles::Tile as Block;

/// The block tiling of `dims`: `bs^3` cubes in 3-D, `bs^2` tiles in 2-D,
/// and segments of `bs^3` values in 1-D (so per-block overhead is
/// comparable).
pub fn tiles(dims: Dims, bs: usize) -> Result<Tiles> {
    // Saturating: `bs` can come from a stream header, and a saturated
    // segment is still exact for any array that fits in memory.
    let segment = bs.saturating_mul(bs).saturating_mul(bs);
    Tiles::cubes(dims, if dims.ndim() == 1 { segment } else { bs })
}

/// Every block of [`tiles`], in stream order (none for `bs == 0`).
pub fn partition(dims: Dims, bs: usize) -> Vec<Block> {
    tiles(dims, bs).map(|t| t.iter().collect()).unwrap_or_default()
}

/// Which predictor a block ended up using (stored per block in the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorTag {
    /// First-order Lorenzo prediction from the neighbors' lattice values.
    Lorenzo,
    /// The stored regression plane, rounded to the lattice.
    Regression,
}

impl PredictorTag {
    /// Stream encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            PredictorTag::Lorenzo => 0,
            PredictorTag::Regression => 1,
        }
    }

    /// Stream decoding.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(PredictorTag::Lorenzo),
            1 => Some(PredictorTag::Regression),
            _ => None,
        }
    }
}

/// Result of compressing one block.
#[derive(Debug, Clone)]
pub struct BlockOutput {
    /// Quantization symbols, one per cell; 0 marks an outlier.
    pub codes: Vec<u32>,
    /// Smallest and largest non-zero symbol (`None` when every cell is an
    /// outlier), so the histogram stage can size its table to the span.
    pub code_range: Option<(u32, u32)>,
    /// Raw values for cells that did not quantize within bound.
    pub outliers: Vec<f32>,
    /// Predictor actually used.
    pub tag: PredictorTag,
    /// Regression coefficients `[b0, b1, b2, b3]` (zeroed for Lorenzo).
    pub coeffs: [f32; 4],
}

thread_local! {
    /// Per-thread lattice scratch, reused across the blocks a worker handles.
    static LATTICE: RefCell<Lattice> = const { RefCell::new(Lattice::new()) };
}

/// Fits `q ~ b0 + b1*i + b2*j + b3*k` by least squares over the lattice
/// sample and returns the plane in value units.
///
/// The sample is a regular grid, so the coordinates are uncorrelated and
/// each slope is `cov(coord, q) / var(coord)` independently, with the
/// coordinate moments known in closed form.
#[inline(always)]
fn fit_plane(lattice: &Lattice, eb: f64) -> [f32; 4] {
    let grid = lattice.sample_grid();
    let n = grid.iter().map(|&(_, count)| count as f64).product::<f64>();
    // Sums of q, i*q, j*q, k*q.
    let mut sums = [0.0f64; 4];
    lattice.for_each_sample(|i, j, k, q, _| {
        let q = q as f64;
        for (sum, c) in sums.iter_mut().zip([1.0, i as f64, j as f64, k as f64]) {
            *sum += c * q;
        }
    });
    let mean_q = sums[0] / n;
    let mut plane = [mean_q; 4];
    for (axis, &(stride, count)) in grid.iter().enumerate() {
        let (stride, count) = (stride as f64, count as f64);
        let mean_c = stride * (count - 1.0) / 2.0;
        let var_c = stride * stride * (count * count - 1.0) / 12.0;
        let slope = if var_c > 0.0 { (sums[axis + 1] / n - mean_c * mean_q) / var_c } else { 0.0 };
        plane[axis + 1] = slope;
        plane[0] -= slope * mean_c;
    }
    plane.map(|b| (b * 2.0 * eb) as f32)
}

/// Whether the plane leaves smaller residuals than Lorenzo on the lattice
/// sample (the SZ 2.x selection heuristic, scored on the very deltas pass 2
/// would code; a delta past the radius costs an outlier either way).
#[inline(always)]
fn plane_wins(lattice: &Lattice, coeffs: &[f32; 4], eb: f64, radius: u32) -> bool {
    let cap = radius as u64;
    let (mut lorenzo_err, mut plane_err) = (0u64, 0u64);
    lattice.for_each_sample(|i, j, k, q, lorenzo| {
        lorenzo_err += q.abs_diff(lorenzo).min(cap);
        plane_err += q.abs_diff(plane_lattice(coeffs, i, j, k, eb)).min(cap);
    });
    plane_err < lorenzo_err
}

/// The predictor `predictor` picks for the prequantized lattice, and its
/// coefficients (zeroed for Lorenzo).
#[inline(always)]
pub(crate) fn choose(
    lattice: &Lattice,
    predictor: PredictorKind,
    eb: f64,
    radius: u32,
) -> (PredictorTag, [f32; 4]) {
    match predictor {
        PredictorKind::Lorenzo => (PredictorTag::Lorenzo, [0.0; 4]),
        PredictorKind::Regression => (PredictorTag::Regression, fit_plane(lattice, eb)),
        PredictorKind::Adaptive => {
            let plane = fit_plane(lattice, eb);
            if plane_wins(lattice, &plane, eb, radius) {
                (PredictorTag::Regression, plane)
            } else {
                (PredictorTag::Lorenzo, [0.0; 4])
            }
        }
    }
}

/// A block's encoder passes — prequantize, choose, postquantize — as one
/// body for [`cpu::widest`].
pub(crate) struct Encode<'a> {
    pub(crate) lattice: &'a mut Lattice,
    pub(crate) data: &'a [f32],
    pub(crate) ext: [usize; 3],
    pub(crate) block: &'a Block,
    pub(crate) eb: f64,
    pub(crate) radius: u32,
    pub(crate) predictor: PredictorKind,
    pub(crate) codes: &'a mut [u32],
}

impl cpu::Kernel for Encode<'_> {
    type Output = (PredictorTag, [f32; 4], CodeStats);

    #[inline(always)]
    fn run(self) -> Self::Output {
        let Encode { lattice, data, ext, block, eb, radius, predictor, codes } = self;
        lattice.prequantize(data, ext, block, eb, codes);
        let (tag, coeffs) = choose(lattice, predictor, eb, radius);
        (tag, coeffs, lattice.postquantize(tag, &coeffs, eb, radius, codes))
    }
}

/// A block's decoder pass, [`Lattice::reconstruct`], as one body for
/// [`cpu::widest`].
pub(crate) struct Decode<'a> {
    pub(crate) lattice: &'a mut Lattice,
    pub(crate) codes: &'a [u32],
    pub(crate) outliers: &'a [f32],
    pub(crate) tag: PredictorTag,
    pub(crate) coeffs: [f32; 4],
    pub(crate) ext: [usize; 3],
    pub(crate) block: &'a Block,
    pub(crate) eb: f64,
    pub(crate) radius: u32,
    pub(crate) base: usize,
    pub(crate) out: &'a mut [f32],
}

impl cpu::Kernel for Decode<'_> {
    type Output = usize;

    #[inline(always)]
    fn run(self) -> usize {
        let Decode { lattice, codes, outliers, tag, coeffs, ext, block, eb, radius, base, out } =
            self;
        lattice.reconstruct(codes, outliers, tag, &coeffs, ext, block, eb, radius, base, out)
    }
}

/// Runs a block's passes at the widest vector width the CPU has (or, in
/// tests, the width one forced).
fn dispatch<K: cpu::Kernel>(pass: K) -> K::Output {
    #[cfg(test)]
    if let Some(level) = forced::level() {
        return cpu::at(level, pass).expect("a forced level is one the host runs");
    }
    cpu::widest(pass)
}

/// The values of the cells `codes` marks 0, in cell order.
pub(crate) fn gather_outliers(
    data: &[f32],
    ext: [usize; 3],
    block: &Block,
    codes: &[u32],
    count: usize,
) -> Vec<f32> {
    let mut outliers = Vec::with_capacity(count);
    if count > 0 {
        for ((src, n), row) in block.rows(ext).zip(codes.chunks_exact(block.size[0])) {
            let cells = row.iter().zip(&data[src..src + n]);
            outliers.extend(cells.filter(|(&code, _)| code == 0).map(|(_, &v)| v));
        }
    }
    outliers
}

/// Compresses one block: prequantizes it to the integer lattice, picks the
/// predictor, codes the lattice deltas, and collects outliers.
pub fn compress_block(
    data: &[f32],
    ext: [usize; 3],
    block: &Block,
    eb: f64,
    radius: u32,
    predictor: PredictorKind,
) -> BlockOutput {
    let mut codes = vec![0u32; block.cells()];
    if codes.is_empty() {
        let (tag, coeffs) = (PredictorTag::Lorenzo, [0.0; 4]);
        return BlockOutput { codes, code_range: None, outliers: Vec::new(), tag, coeffs };
    }
    let (tag, coeffs, stats) = LATTICE.with_borrow_mut(|lattice| {
        let codes = &mut codes;
        dispatch(Encode { lattice, data, ext, block, eb, radius, predictor, codes })
    });
    let outliers = gather_outliers(data, ext, block, &codes, stats.outliers);
    BlockOutput { codes, outliers, tag, coeffs, code_range: stats.range }
}

/// Decompresses one block into `out`, the slab of the destination array
/// that starts at array index `base` and holds the block's cells, and
/// returns the number of zero symbols it met.
///
/// `codes` must hold exactly `block.cells()` symbols and `outliers` one
/// value per zero symbol; the caller (stream layer) validates the first
/// beforehand and the second against the returned count.
#[allow(clippy::too_many_arguments)] // mirrors the codec stage parameters
pub fn decompress_block(
    codes: &[u32],
    outliers: &[f32],
    tag: PredictorTag,
    coeffs: [f32; 4],
    ext: [usize; 3],
    block: &Block,
    eb: f64,
    radius: u32,
    base: usize,
    out: &mut [f32],
) -> usize {
    debug_assert_eq!(codes.len(), block.cells());
    if block.cells() == 0 {
        return 0;
    }
    LATTICE.with_borrow_mut(|lattice| {
        dispatch(Decode {
            lattice,
            codes,
            outliers,
            tag,
            coeffs,
            ext,
            block,
            eb,
            radius,
            base,
            out,
        })
    })
}

/// A vector width forced on every block pass of the test process, so the
/// stream, the thread pool and the device path can be run at each width.
/// Forcing tests take turns; other tests running meanwhile run at the
/// forced width too, which changes none of their results — that is the
/// property the forcing tests check.
#[cfg(test)]
pub(crate) mod forced {
    use foresight_util::cpu::{self, Level};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    /// 0 for none, else the index in [`Level::ALL`] plus one.
    static LEVEL: AtomicUsize = AtomicUsize::new(0);
    /// One forcing test at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    pub(crate) fn level() -> Option<Level> {
        LEVEL.load(Ordering::SeqCst).checked_sub(1).map(|i| Level::ALL[i])
    }

    /// Runs `f` with every block pass at `level`; `None` when the host
    /// does not run `level`.
    pub(crate) fn at<R>(level: Level, f: impl FnOnce() -> R) -> Option<R> {
        if level > cpu::level() {
            return None;
        }
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                LEVEL.store(0, Ordering::SeqCst);
            }
        }
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let _reset = Reset;
        LEVEL.store(level as usize + 1, Ordering::SeqCst);
        Some(f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_block(data: &[f32], ext: [usize; 3], block: Block, eb: f64, pred: PredictorKind) {
        let out = compress_block(data, ext, &block, eb, 32768, pred);
        let mut recon = vec![0.0f32; data.len()];
        decompress_block(
            &out.codes, &out.outliers, out.tag, out.coeffs, ext, &block, eb, 32768, 0, &mut recon,
        );
        let [sx, sy, sz] = block.size;
        for k in 0..sz {
            for j in 0..sy {
                for i in 0..sx {
                    let gi = block.row_start(ext, j, k) + i;
                    let (a, b) = (data[gi], recon[gi]);
                    if a.is_finite() {
                        assert!(
                            (a as f64 - b as f64).abs() <= eb,
                            "({i},{j},{k}): {a} vs {b} eb={eb}"
                        );
                    } else {
                        assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                    }
                }
            }
        }
    }

    #[test]
    fn partition_covers_domain() {
        for dims in [Dims::D3(65, 32, 17), Dims::D2(100, 7), Dims::D1(100_000)] {
            let blocks = partition(dims, 16);
            let total: usize = blocks.iter().map(|b| b.cells()).sum();
            assert_eq!(total, dims.len());
            // No overlaps: mark cells.
            let [nx, ny, _] = dims.extents();
            let mut seen = vec![false; dims.len()];
            for b in &blocks {
                for k in 0..b.size[2] {
                    for j in 0..b.size[1] {
                        for i in 0..b.size[0] {
                            let gi = (b.origin[0] + i)
                                + nx * ((b.origin[1] + j) + ny * (b.origin[2] + k));
                            assert!(!seen[gi], "cell {gi} covered twice");
                            seen[gi] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
        // A 1-D segment is `bs^3` values long, as a cube holds.
        let segments = partition(Dims::D1(100_000), 32);
        assert_eq!(segments.iter().map(|b| b.size[0]).collect::<Vec<_>>(), [32_768, 32_768, 32_768, 1696]);
    }

    #[test]
    fn smooth_block_roundtrips_within_bound() {
        let ext = [16, 16, 16];
        let data: Vec<f32> = (0..16 * 16 * 16)
            .map(|i| {
                let x = (i % 16) as f32;
                let y = ((i / 16) % 16) as f32;
                let z = (i / 256) as f32;
                (x * 0.3 + y * 0.1).sin() * 10.0 + z
            })
            .collect();
        let block = Block { origin: [0, 0, 0], size: [16, 16, 16] };
        for pred in [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::Adaptive] {
            roundtrip_block(&data, ext, block, 0.01, pred);
        }
    }

    #[test]
    fn partial_edge_block() {
        let ext = [10, 6, 3];
        let data: Vec<f32> = (0..180).map(|i| (i as f32 * 0.7).cos() * 100.0).collect();
        let block = Block { origin: [8, 4, 0], size: [2, 2, 3] };
        roundtrip_block(&data, ext, block, 0.5, PredictorKind::Adaptive);
    }

    #[test]
    fn non_finite_values_stored_exactly() {
        let ext = [8, 1, 1];
        let data = vec![1.0f32, f32::NAN, f32::INFINITY, -3.0, f32::NEG_INFINITY, 0.0, 2.0, 1.5];
        let block = Block { origin: [0, 0, 0], size: [8, 1, 1] };
        roundtrip_block(&data, ext, block, 0.1, PredictorKind::Lorenzo);
    }

    #[test]
    fn huge_jumps_become_outliers() {
        let ext = [4, 1, 1];
        let data = vec![0.0f32, 1e30, -1e30, 0.0];
        let block = Block { origin: [0, 0, 0], size: [4, 1, 1] };
        let out = compress_block(&data, ext, &block, 1e-6, 32768, PredictorKind::Lorenzo);
        assert!(out.outliers.len() >= 2);
        roundtrip_block(&data, ext, block, 1e-6, PredictorKind::Lorenzo);
    }

    #[test]
    fn regression_beats_lorenzo_on_linear_ramp_with_noise() {
        // A steep plane: Lorenzo's zero ghost boundary hurts the first
        // plane; regression models it exactly.
        let ext = [16, 16, 1];
        let data: Vec<f32> = (0..256)
            .map(|i| {
                let x = (i % 16) as f32;
                let y = (i / 16) as f32;
                1000.0 + 50.0 * x - 20.0 * y
            })
            .collect();
        let block = Block { origin: [0, 0, 0], size: [16, 16, 1] };
        let out = compress_block(&data, ext, &block, 0.01, 32768, PredictorKind::Adaptive);
        assert_eq!(out.tag, PredictorTag::Regression);
        roundtrip_block(&data, ext, block, 0.01, PredictorKind::Adaptive);
    }

    #[test]
    fn quantize_respects_bound() {
        // One-cell blocks: the code alone must reconstruct within the
        // bound, and what the lattice cannot carry goes out verbatim.
        let block = Block { origin: [0, 0, 0], size: [1, 1, 1] };
        for &(val, eb, on_lattice) in &[
            (1.0f32, 0.01f64, true),
            (-5.0, 0.5, true),
            (0.0, 1e-9, true),
            (1e20, 1.0, false),     // delta past the radius
            (3.0e38, 1e-30, false), // |q| past Q_MAX
            (f32::NAN, 0.1, false),
        ] {
            let out = compress_block(&[val], [1, 1, 1], &block, eb, 32768, PredictorKind::Lorenzo);
            assert_eq!(out.codes[0] != 0, on_lattice, "{val} eb={eb}");
            assert_eq!(out.outliers.len(), usize::from(!on_lattice));
            assert_eq!(out.code_range, on_lattice.then_some((out.codes[0], out.codes[0])));
            roundtrip_block(&[val], [1, 1, 1], block, eb, PredictorKind::Lorenzo);
        }
    }

    #[test]
    fn adaptive_fits_the_plane_once_on_the_sample() {
        // A forced-Regression block and an Adaptive block that picks
        // Regression carry the same coefficients: one fit, same sample.
        let ext = [16, 16, 1];
        let data: Vec<f32> =
            (0..256).map(|i| 1000.0 + 50.0 * (i % 16) as f32 - 20.0 * (i / 16) as f32).collect();
        let block = Block { origin: [0, 0, 0], size: [16, 16, 1] };
        let forced = compress_block(&data, ext, &block, 0.01, 32768, PredictorKind::Regression);
        let adaptive = compress_block(&data, ext, &block, 0.01, 32768, PredictorKind::Adaptive);
        assert_eq!(adaptive.tag, PredictorTag::Regression);
        assert_eq!(forced.coeffs, adaptive.coeffs);
        assert_eq!(forced.codes, adaptive.codes);
        for (c, want) in forced.coeffs.iter().zip([1000.0f32, 50.0, -20.0, 0.0]) {
            assert!((c - want).abs() <= 1e-2 * want.abs().max(1.0), "{:?}", forced.coeffs);
        }
    }

    #[test]
    fn hostile_block_size_cannot_stall_partition() {
        // bs^3 wraps to 0 for bs = 2^32 on 64-bit; the segment length must
        // saturate instead.
        let blocks = partition(Dims::D1(10), 1 << 32);
        assert_eq!(blocks, vec![Block { origin: [0, 0, 0], size: [10, 1, 1] }]);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let block = Block { origin: [0, 0, 0], size: [0, 1, 1] };
        let out = compress_block(&[], [0, 1, 1], &block, 0.1, 32768, PredictorKind::Adaptive);
        assert!(out.codes.is_empty() && out.outliers.is_empty() && out.code_range.is_none());
        decompress_block(&[], &[], out.tag, out.coeffs, [0, 1, 1], &block, 0.1, 32768, 0, &mut []);
    }
}
