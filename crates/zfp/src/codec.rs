//! Per-block ZFP codec: fixed-point cast, sequency reorder, and the
//! embedded bit-plane coder.
//!
//! A block is `N = 4^d` values (d = 1, 2, 3). Encoding steps:
//!
//! 1. **Common-exponent cast** — find the block's largest magnitude, derive
//!    exponent `emax` with `max < 2^emax`, and scale every value by
//!    `2^(30 - emax)` into `i32` fixed point (so `|q| < 2^30`, leaving
//!    headroom for the transform).
//! 2. **Decorrelating transform** — [`crate::lift`].
//! 3. **Sequency reorder** — coefficients sorted by total degree `i+j+k`
//!    so low-frequency (large) coefficients come first.
//! 4. **Negabinary** — signed to unsigned, magnitude-ordered bit planes.
//! 5. **Embedded coding** — planes emitted MSB-first; within a plane, bits
//!    of already-significant coefficients are sent verbatim and the rest
//!    run-length coded with unary group tests, stopping when the bit
//!    budget (`maxbits`) or the precision floor (`maxprec`) is reached.
//!
//! The header spends 1 bit on an all-zero flag plus 8 bits of biased
//! exponent; both count against the budget, exactly as in cuZFP.
//!
//! The scalar coder of 16- and 64-value blocks works a word at a time
//! (DESIGN.md §17.6): a plane is an `N`-bit word from an 8×8 bit-matrix
//! transpose of the coefficients' bytes, and a group test with its run is
//! one write, or one peek and one `trailing_zeros`. A 4-value block's
//! plane step is a table lookup (§17.7).
//!
//! [`cpu::Kernel`]s run at the widest vector width the CPU has (§24). A
//! fixed-rate block starts at `i * maxbits`, so [`DecodeLanes`] reads
//! every fixed-rate block [`LANES`] at a time ([`Lanes`], [`decode_line`]),
//! and [`EncodeLanes`] codes 1-D blocks of at most 64 bits the same way.
//! [`Stage`] and [`Unstage`] are the cast, transform, reorder and
//! negabinary of one 16- or 64-value block. Scalar: the variable-length
//! modes, whose blocks do not sit at fixed offsets, the device path's one
//! block per call, and the plane coder of the 2-D and 3-D encoder.

use crate::config::ZfpMode;
use crate::lift;
use foresight_util::bits::{BitReader, BitWriter, WriterTail};
use foresight_util::{cpu, Error, Result};

/// Bit planes in an `i32` coefficient.
pub const INTPREC: u32 = 32;
/// Header bits: all-zero flag + biased exponent.
pub const HEADER_BITS: u32 = 9;

/// Values per block for dimensionality `d`.
#[inline]
pub fn block_cells(d: u8) -> usize {
    4usize.pow(d as u32)
}

/// How many bit planes a block keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Planes {
    /// The same count for every block.
    Count(u32),
    /// Per block, enough that the absolute error stays below a tolerance;
    /// derived from the block's exponent on both sides. Holds
    /// `floor(log2(tolerance))`, see [`Planes::tolerance`].
    Tolerance(i32),
}

impl Planes {
    /// The planes that keep the absolute error below `tol`. A tolerance
    /// that bounds nothing — zero, negative, NaN, infinite — keeps them all.
    pub fn tolerance(tol: f64) -> Self {
        if tol > 0.0 && tol.is_finite() {
            Planes::Tolerance(tol.log2().floor() as i32)
        } else {
            Planes::Count(INTPREC)
        }
    }
}

/// The coding parameters of one stream; one value serves every block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCoding {
    /// Block dimensionality (1, 2 or 3).
    pub d: u8,
    /// Bit budget of one block: its exact size in fixed-rate mode, the
    /// encoder's hard cap — and so the staging slot a GPU encoder
    /// allocates per block before compaction — otherwise.
    pub maxbits: u32,
    /// Every block is padded to exactly `maxbits`, so block `i` starts at
    /// bit `i * maxbits`.
    pub fixed_rate: bool,
    /// Bit planes kept per block.
    pub planes: Planes,
}

impl BlockCoding {
    /// The coding `mode` prescribes for blocks of dimensionality `d`.
    pub fn new(mode: &ZfpMode, d: u8) -> Self {
        let cells = block_cells(d) as u32;
        let cap = HEADER_BITS + INTPREC * (cells + 2);
        let (maxbits, fixed_rate, planes) = match *mode {
            ZfpMode::FixedRate(rate) => {
                let bits = ((rate * cells as f64).round() as u32).max(HEADER_BITS + 1);
                (bits, true, Planes::Count(INTPREC))
            }
            ZfpMode::FixedPrecision(p) => (cap, false, Planes::Count(p.min(INTPREC))),
            ZfpMode::FixedAccuracy(tol) => (cap, false, Planes::tolerance(tol)),
        };
        Self { d, maxbits, fixed_rate, planes }
    }

    /// Planes kept by a block whose exponent is `emax`.
    ///
    /// Truncating negabinary planes below `kmin` perturbs a coefficient by
    /// at most `2^(kmin+1)` integer units; the inverse transform amplifies
    /// by at most `2^d`, and an integer unit is worth `2^(emax-30)`. Solving
    /// `2^(kmin+1+d+emax-30) <= tol` for `kmin` gives the plane cut-off.
    #[inline]
    fn maxprec(&self, emax: i32) -> u32 {
        match self.planes {
            Planes::Count(p) => p,
            Planes::Tolerance(log2_tol) => {
                let kmin = log2_tol - emax + 30 - (self.d as i32 + 1);
                (INTPREC as i32 - kmin.clamp(0, INTPREC as i32)) as u32
            }
        }
    }
}

/// Sequency permutation of an `N`-value block: `PERM[rank]` is the
/// block-local index of the coefficient with that rank, by total degree
/// `x + y + z` and then by index.
struct Sequency<const N: usize>;

impl<const N: usize> Sequency<N> {
    const PERM: [u8; N] = {
        let mut perm = [0u8; N];
        let mut rank = 0;
        let mut degree = 0;
        while rank < N {
            let mut i = 0;
            while i < N {
                if i % 4 + i / 4 % 4 + i / 16 == degree {
                    perm[rank] = i as u8;
                    rank += 1;
                }
                i += 1;
            }
            degree += 1;
        }
        perm
    };
}

/// Exponent `e` with `2^(e-1) <= |x| < 2^e` (frexp-style) for finite
/// `x`; `i32::MIN` for zero input.
#[inline]
fn exponent(x: f32) -> i32 {
    if x == 0.0 {
        i32::MIN
    } else {
        // Every non-zero f32, subnormals included, is a normal f64
        // `1.m * 2^(E-1023)`, so the exponent field answers directly.
        let bits = (x.abs() as f64).to_bits();
        (bits >> 52) as i32 - 1022
    }
}

/// `2^e` in f64, exact for the normal range; the codec stays within
/// `|e| <= 158`.
#[inline]
fn f64_pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// `v` in fixed point, `v * 2^(30 - emax)` truncated toward zero, for a
/// finite `v` with `|v| < 2^emax`, as the f64 product would give it: the
/// product with a power of two is exact and `|q| < 2^30`, so the cast
/// needs no clamp. Worked in integers — the mantissa shifted by the
/// exponents' difference, at most 8 places left — because a saturating
/// float-to-int cast does not widen to vector lanes.
#[inline(always)]
fn fixed_point(v: f32, emax: i32) -> i32 {
    let bits = v.to_bits();
    let field = (bits >> 23 & 0xff) as i32;
    // `v` is `mantissa * 2^(field - 150)`; a subnormal has field 0, no
    // implied one and the scale of field 1. The product is the mantissa
    // moved `field - 120 - emax <= 8` places left: 8 left, then the rest
    // right, all of it once the rest is a word.
    let mantissa = bits & 0x7f_ffff | ((field != 0) as u32) << 23;
    let right = (emax + 128 - field.max(1)) as u32;
    let magnitude = (mantissa << 8).checked_shr(right).unwrap_or(0) as i32;
    let sign = bits as i32 >> 31;
    (magnitude ^ sign) - sign
}

/// Largest magnitude in `values`, or `None` when any of them is NaN or
/// infinite. Magnitude order is the order of the sign-cleared bit
/// patterns, and every non-finite pattern sorts above every finite one.
#[inline]
fn finite_max(values: &[f32]) -> Option<f32> {
    const INF: u32 = 0x7f80_0000;
    let top = values.iter().fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff));
    (top < INF).then(|| f32::from_bits(top))
}

/// The low `n` bits set (`n <= 64`).
#[inline]
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// `x >> n` for `n <= 64`.
#[inline]
fn shr(x: u64, n: u32) -> u64 {
    if n >= 64 {
        0
    } else {
        x >> n
    }
}

/// Transposes an 8×8 bit matrix held row by row in the bytes of `x`: bit
/// `c` of byte `r` moves to bit `r` of byte `c`. Three delta-swaps
/// exchange the off-diagonal 1×1, 2×2 and 4×4 sub-blocks.
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Transposes an 8×8 byte matrix held row by row in `m`: byte `c` of
/// `m[r]` moves to byte `r` of `m[c]`. A `dense` matrix goes through the
/// same three delta-swaps, between words: 1×1, 2×2 and 4×4 sub-blocks of
/// bytes. One whose caller knows most rows to be zero, or wants only a
/// few rows of the result, is moved byte by byte, so that the compiler
/// drops the bytes that are zero or unused.
#[inline]
fn transpose_bytes(mut m: [u64; 8], dense: bool) -> [u64; 8] {
    if !dense {
        return std::array::from_fn(|r| {
            (0..8).fold(0, |row, c| row | (m[c] >> (8 * r) & 0xff) << (8 * c))
        });
    }
    const MASKS: [u64; 3] = [0x00FF_00FF_00FF_00FF, 0x0000_FFFF_0000_FFFF, 0x0000_0000_FFFF_FFFF];
    for (stage, mask) in MASKS.into_iter().enumerate() {
        let step = 1 << stage;
        for lo in (0..8).filter(|lo| lo & step == 0) {
            let t = (m[lo] >> (8 * step) ^ m[lo + step]) & mask;
            m[lo] ^= t << (8 * step);
            m[lo + step] ^= t;
        }
    }
    m
}

/// The negabinary coefficients of a block, in sequency order, stored as
/// four rows of bytes — `bytes[g][i]` is byte `g` of coefficient `i` — so
/// that the eight bit planes `8g..8g+8` of all `N` coefficients are one
/// pass of [`transpose8`] over row `g`, eight coefficients at a time.
struct Coefficients<const N: usize> {
    bytes: [[u8; N]; 4],
}

impl<const N: usize> Coefficients<N> {
    /// Words of eight coefficients in a row (`N` is 16 or 64).
    const WORDS: usize = N / 8;

    /// Eight coefficients of row `g` starting at `8 * j`, as one word.
    #[inline]
    fn word(&self, g: usize, j: usize) -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.bytes[g & 3][8 * j..8 * j + 8]);
        u64::from_le_bytes(w)
    }

    /// Planes `8g..8g+8`: bit `i` of `planes[p]` is bit `8g + p` of
    /// coefficient `i`.
    #[inline]
    fn planes(&self, g: usize) -> [u64; 8] {
        // Byte `p` of `m[j]` holds plane `8g + p` of coefficients
        // `8j..8j+8`; a transpose of bytes lines the planes up.
        let word = |j| if j < Self::WORDS { transpose8(self.word(g, j)) } else { 0 };
        transpose_bytes(std::array::from_fn(word), Self::WORDS == 8)
    }

    /// Stores planes `8g..8g+8`, the inverse of [`Coefficients::planes`].
    #[inline]
    fn set_planes(&mut self, g: usize, planes: &[u64; 8]) {
        let m = transpose_bytes(*planes, Self::WORDS == 8);
        for (j, &t) in m.iter().enumerate().take(Self::WORDS) {
            self.bytes[g & 3][8 * j..8 * j + 8].copy_from_slice(&transpose8(t).to_le_bytes());
        }
    }
}

/// A block's coefficients with one byte row of them held as planes, for
/// a coder that walks the planes from the top down. The encoder reads:
/// a row is transposed only when the coder first asks for one of its
/// planes. The decoder writes: the planes it puts are collected and the
/// row is deposited when the coder moves on to the next.
struct PlaneRows<const N: usize> {
    coeffs: Coefficients<N>,
    /// Planes of row `row`; when writing, zero where none was put.
    group: [u64; 8],
    /// Which row `group` holds; 4, which is none, to begin with.
    row: usize,
}

impl<const N: usize> PlaneRows<N> {
    #[inline]
    fn new() -> Self {
        Self { coeffs: Coefficients { bytes: [[0u8; N]; 4] }, group: [0; 8], row: 4 }
    }

    /// Plane `k` of the coefficients.
    #[inline]
    fn plane(&mut self, k: u32) -> u64 {
        let g = (k / 8) as usize;
        if g != self.row {
            self.group = self.coeffs.planes(g);
            self.row = g;
        }
        self.group[(k % 8) as usize]
    }

    /// Sets plane `k`; the coefficients have it once its row is flushed.
    #[inline]
    fn put(&mut self, k: u32, x: u64) {
        let g = (k / 8) as usize;
        if g != self.row {
            self.flush();
            self.row = g;
        }
        self.group[(k % 8) as usize] = x;
    }

    /// Deposits the row being written, if any.
    #[inline]
    fn flush(&mut self) {
        if self.row < 4 {
            self.coeffs.set_planes(self.row, &self.group);
            self.group = [0; 8];
        }
    }
}

/// Reads one bit plane of a 4-value block from the low `bits` bits of `x`
/// — all the budget has left — with `sig` coefficients significant, by the
/// rules of [`read_planes`] a bit at a time: the plane, the bits it spans
/// and the coefficients significant behind it. The two tables below are
/// this function, tabulated.
const fn read_plane4(mut x: u32, sig: u32, bits: u32) -> (u32, u32, u32) {
    let m = if sig < bits { sig } else { bits };
    let mut nibble = x & ((1 << m) - 1);
    x >>= m;
    let (mut left, mut pos) = (bits - m, sig);
    while pos < 4 && left > 0 {
        let passed = x & 1 != 0;
        (x, left) = (x >> 1, left - 1);
        if !passed {
            break;
        }
        // The run ends behind a one, at the last coefficient (whose one
        // is implied) or with the budget, and deposits its one there.
        while pos < 3 && left > 0 {
            let one = x & 1 != 0;
            (x, left) = (x >> 1, left - 1);
            if one {
                break;
            }
            pos += 1;
        }
        nibble |= 1 << pos;
        pos += 1;
    }
    (nibble, bits - left, pos)
}

/// `PLANE4_STEP[sig << 8 | 1 << r | x]`: the plane read from the `r <= 7`
/// bits `x` — bits spanned in bits 0..6, the plane in 6..10, `sig` behind
/// it from 10. Seven bits hold the longest code (four passed tests, a one
/// behind three of them), so `r = 7` serves any larger budget; key 1
/// (`r = 0`) reads nothing. Rows 5‥7 are for lanes that are done: they
/// read nothing from any key and lead back to their own row. They also
/// pad the table to a power of two, so a key masked to its length is in
/// bounds and a lane's gather needs no check.
pub static PLANE4_STEP: [u32; 8 << 8] = PLANE4.0;
/// `PLANE4_ENCODE[sig << 4 | nibble]`: the plane's code in bits 0..7, its
/// length in 8..11, `sig` behind it from 12. A block coded with no budget
/// and cut after `bits` bits *is* the budgeted code, so nothing else
/// decides it. Rows 5‥7 code nothing, as in [`PLANE4_STEP`].
pub static PLANE4_ENCODE: [u32; 8 << 4] = PLANE4.1;

/// ORed into the row of a lane that is done, so that its steps through
/// either table move nothing: `sig | DONE` is 5 or 7 for every `sig`.
const DONE: u32 = 5;

const PLANE4: ([u32; 8 << 8], [u32; 8 << 4]) = {
    let (mut step, mut code) = ([0u32; 8 << 8], [0u32; 8 << 4]);
    let mut i = 5 << 8;
    while i < 8 << 8 {
        step[i] = (i as u32 >> 8) << 10;
        code[i >> 4] = (i as u32 >> 8) << 12;
        i += 1;
    }
    let mut i = 0;
    while i < 5 << 8 {
        let (sig, key) = (i >> 8, i as u32 & 0xff);
        i += 1;
        if key == 0 {
            continue; // every key carries its `1 << r`
        }
        let r = 31 - key.leading_zeros();
        let x = key ^ (1 << r);
        let (nibble, len, after) = read_plane4(x, sig as u32, r);
        step[sig << 8 | key as usize] = len | nibble << 6 | after << 10;
        if r == 7 {
            let bits = x & ((1 << len) - 1);
            code[sig << 4 | nibble as usize] = bits | len << 8 | after << 12;
        }
    }
    (step, code)
};

/// Fixed-rate blocks a group codes or reads side by side: [`EncodeLanes`]
/// and [`DecodeLanes`] run one block per lane.
pub const LANES: usize = 16;

/// Codes the 4-value blocks of `values` into `w`, a short last block
/// padded with its last value, and reports each block's bit length to
/// `coded`. `None` when a block holds a NaN or an infinity; blocks are
/// written up to the one (or, at a fixed rate of at most 64 bits, the
/// group of [`LANES`] blocks) that holds it.
///
/// A fixed-rate block of at most 64 bits is one word, so such blocks run
/// as [`LANES`]-wide groups through [`EncodeLanes`] — the array's last
/// group padded, only its real blocks written. Any other coding runs a
/// block at a time through the scalar coder.
#[inline]
pub fn encode_line(
    values: &[f32],
    c: &BlockCoding,
    w: &mut BitWriter,
    mut coded: impl FnMut(u32),
) -> Option<()> {
    debug_assert!(c.d == 1 && c.maxbits >= HEADER_BITS);
    let mut tail = w.tail();
    if !(c.fixed_rate && c.maxbits <= 64) {
        for block in values.chunks(4) {
            let (emax, u) = stage4(&pad4(block))?;
            coded(encode_planes4(&u, emax, c, &mut tail));
        }
        return Some(());
    }
    let mut words = [0u64; LANES];
    let mut group = |values: &[f32; 4 * LANES], blocks: usize| {
        dispatch(EncodeLanes { values, maxbits: c.maxbits, words: &mut words })?;
        for &word in &words[..blocks] {
            tail.write_bits(word, c.maxbits);
            coded(c.maxbits);
        }
        Some(())
    };
    let (whole, rest) = values.as_chunks::<{ 4 * LANES }>();
    for values in whole {
        group(values, LANES)?;
    }
    if !rest.is_empty() {
        let mut padded = [0.0f32; 4 * LANES];
        for (to, block) in padded.chunks_exact_mut(4).zip(rest.chunks(4)) {
            to.copy_from_slice(&pad4(block));
        }
        group(&padded, rest.len().div_ceil(4))?;
    }
    Some(())
}

/// A block of one to four values, padded with its last.
#[inline]
fn pad4(block: &[f32]) -> [f32; 4] {
    let mut out = [block.last().copied().unwrap_or(0.0); 4];
    out[..block.len()].copy_from_slice(block);
    out
}

/// A 4-value block's exponent (`None` when it is all zero) and its
/// negabinary coefficients; `None` when it holds a NaN or an infinity.
#[inline]
fn stage4(block: &[f32; 4]) -> Option<(Option<i32>, [u32; 4])> {
    let vmax = finite_max(block)?;
    let emax = (vmax != 0.0).then(|| exponent(vmax).clamp(-127, 128));
    let mut q = block.map(|v| fixed_point(v, emax.unwrap_or(0)));
    lift::fwd_lift(&mut q);
    Some((emax, q.map(lift::int2uint)))
}

/// Codes a 4-value block (`emax` is `None` when it is all zero) from its
/// negabinary coefficients, a block at a time: a table step per plane
/// into a local word that is written when it fills. Serves the codings
/// [`EncodeLanes`] does not — variable length, blocks over 64 bits — and
/// the device path's one-block calls. Returns the bits written.
#[inline]
fn encode_planes4(u: &[u32; 4], emax: Option<i32>, c: &BlockCoding, w: &mut WriterTail<'_>) -> u32 {
    // The word, its fill, and the budget still open at its first bit.
    let (mut acc, mut len, mut left) = (0u64, 1, c.maxbits);
    if let Some(emax) = emax {
        (acc, len) = (1 | ((emax + 127) as u64) << 1, HEADER_BITS);
        let kmin = INTPREC.saturating_sub(c.maxprec(emax));
        // A plane above every coefficient's top bit: one failed test.
        let empty = (u[0] | u[1] | u[2] | u[3]).leading_zeros();
        let empty = empty.min(INTPREC - kmin).min(left - len);
        len += empty;
        let (mut k, mut sig) = (INTPREC - empty, 0);
        while k > kmin && len < left {
            if len > 64 - 7 {
                w.write_bits(acc, len);
                left -= len;
                (acc, len) = (0, 0);
            }
            k -= 1;
            let bit = |i: usize| (u[i] >> k & 1) << i;
            let e = PLANE4_ENCODE[sig << 4 | (bit(0) | bit(1) | bit(2) | bit(3)) as usize];
            acc |= (e as u64 & 0x7f) << len;
            len += e >> 8 & 7;
            sig = (e >> 12) as usize;
        }
    }
    // The budget cuts the last plane; at a fixed rate the padding rides
    // in the same write while it fits the word.
    let code = len.min(left);
    let span = if c.fixed_rate { left } else { code };
    if span <= 64 {
        w.write_bits(acc, span);
    } else {
        w.write_bits(acc, code);
        w.write_zeros(span - code);
    }
    c.maxbits - left + span
}

/// A group of [`LANES`] fixed-rate 4-value blocks of `maxbits <= 64` bits
/// each, coded side by side — one body for [`cpu::widest`]. Lane `l` is
/// the block `values[4l..4l + 4]`; its code, padding included, is left
/// in the low `maxbits` bits of `words[l]`. `None`, with `words`
/// untouched, when any lane holds a NaN or an infinity.
///
/// Each lane runs the steps of the scalar coder (`stage4`, then
/// `encode_planes4`) in the same order, on arrays of lanes: every lane
/// steps a plane at once until none is live, a lane that is done (no
/// plane left, or the budget spent) stepping through a done row of the
/// table, which codes nothing. Nothing in a step branches on a lane.
pub struct EncodeLanes<'a> {
    /// The group's blocks, one after the other.
    pub values: &'a [f32; 4 * LANES],
    /// Bits a block: more than [`HEADER_BITS`], at most 64.
    pub maxbits: u32,
    /// Each block's code.
    pub words: &'a mut [u64; LANES],
}

impl cpu::Kernel for EncodeLanes<'_> {
    type Output = Option<()>;

    #[inline(always)]
    fn run(self) -> Option<()> {
        const INF: u32 = 0x7f80_0000;
        let EncodeLanes { values, maxbits, words } = self;
        debug_assert!((HEADER_BITS + 1..=64).contains(&maxbits));
        // Value `i` of every lane.
        let mut v = [[0.0f32; LANES]; 4];
        for (l, block) in values.chunks_exact(4).enumerate() {
            for (vi, &x) in v.iter_mut().zip(block) {
                vi[l] = x;
            }
        }
        let mut top = [0u32; LANES];
        for (l, t) in top.iter_mut().enumerate() {
            *t = v.iter().fold(0, |m, vi| m.max(vi[l].to_bits() & 0x7fff_ffff));
        }
        if top.iter().fold(0, |m, &t| m.max(t)) >= INF {
            return None;
        }
        // Each lane's coefficients 0 and 1 in the halves of `lo`, 2 and 3
        // in `hi`'s; its word, its fill, the planes it has left and its
        // significant coefficients, times 16.
        let (mut lo, mut hi) = ([0u64; LANES], [0u64; LANES]);
        let (mut acc, mut len) = ([0u64; LANES], [0u32; LANES]);
        let (mut k, mut sig16) = ([0u32; LANES], [0u32; LANES]);
        for l in 0..LANES {
            let nonzero = top[l] != 0;
            let emax = if nonzero { exponent(f32::from_bits(top[l])).clamp(-127, 128) } else { 0 };
            let mut q = [0i32; 4];
            for (qi, vi) in q.iter_mut().zip(&v) {
                *qi = fixed_point(vi[l], emax);
            }
            lift::fwd_lift(&mut q);
            let u = q.map(lift::int2uint);
            lo[l] = u[0] as u64 | (u[1] as u64) << 32;
            hi[l] = u[2] as u64 | (u[3] as u64) << 32;
            // A plane above every coefficient's top bit: one failed test.
            let any = u[0] | u[1] | u[2] | u[3];
            let empty = any.leading_zeros().min(maxbits - HEADER_BITS);
            acc[l] = if nonzero { 1 | ((emax + 127) as u64) << 1 } else { 0 };
            len[l] = if nonzero { HEADER_BITS + empty } else { 1 };
            k[l] = if nonzero { INTPREC - empty } else { 0 };
        }
        loop {
            let mut any = 0;
            for l in 0..LANES {
                let live = lane_live(k[l], len[l], maxbits);
                let kk = k[l] - live;
                // Plane `kk` of two coefficients lands on bits 0 and 32.
                let pair = |x: u64| {
                    let x = x >> kk & 0x1_0000_0001;
                    (x | x >> 31) as u32 & 3
                };
                let row16 = sig16[l] | ((live ^ 1) * DONE) << 4;
                let e = PLANE4_ENCODE[(row16 | pair(lo[l]) | pair(hi[l]) << 2) as usize & 0x7f];
                acc[l] |= ((e & 0x7f) as u64).wrapping_shl(len[l]);
                len[l] += e >> 8 & 7;
                sig16[l] = e >> 8 & 0x70;
                k[l] = kk;
                any |= live;
            }
            if any == 0 {
                break;
            }
        }
        // A code the budget cut may run past it.
        let budget = u64::MAX >> (64 - maxbits);
        *words = acc.map(|a| a & budget);
        Some(())
    }
}

/// A 4-value block being decoded, between two planes.
struct Planes4 {
    emax: i32,
    /// Unread bits of the code, from bit 0, and bits read of `budget`.
    win: u64,
    used: u32,
    budget: u32,
    /// The plane last read, the last one coded, significant coefficients.
    k: u32,
    kmin: u32,
    sig: usize,
    /// Coefficients 0 and 1 in the halves of `lo`, 2 and 3 in `hi`'s.
    lo: u64,
    hi: u64,
}

impl Planes4 {
    /// Reads the header and the empty planes from `win`, the block's
    /// first 41 bits or more.
    #[inline]
    fn open(win: u64, c: &BlockCoding, budget: u32) -> Self {
        let (k, kmin) = (INTPREC, INTPREC);
        let mut st = Self { emax: 0, win: 0, used: 1, budget, k, kmin, sig: 0, lo: 0, hi: 0 };
        if win & 1 != 0 {
            st.emax = (win >> 1 & 0xff) as i32 - 127;
            st.kmin = INTPREC.saturating_sub(c.maxprec(st.emax));
            // Planes above every coefficient's top bit: a failed test each.
            let empty = (win >> HEADER_BITS | 1 << INTPREC).trailing_zeros();
            let empty = empty.min(INTPREC - st.kmin).min(budget.saturating_sub(HEADER_BITS));
            st.k -= empty;
            st.used = HEADER_BITS + empty;
            st.win = win >> st.used;
        }
        st // of an all-zero block no plane is coded
    }

    #[inline]
    fn live(&self) -> bool {
        self.k > self.kmin && self.used < self.budget
    }

    /// Reads the next plane from `win`, whose low seven bits — or all the
    /// budget has left — must be the code's. Nothing once no plane is
    /// left.
    #[inline(always)]
    fn step(&mut self) {
        let live = self.live();
        let r = if live { (self.budget - self.used).min(7) } else { 0 };
        let e = PLANE4_STEP[self.sig << 8 | self.win as usize & ((1 << r) - 1) | 1 << r] as u64;
        self.win >>= e & 63;
        self.used += (e & 63) as u32;
        self.k -= live as u32;
        let x = e >> 6 & 15;
        self.lo |= (x & 1 | (x & 2) << 31) << self.k;
        self.hi |= (x >> 2 & 1 | (x & 8) << 29) << self.k;
        self.sig = (e >> 10) as usize;
    }

    /// Undoes negabinary, lift and cast into `out`, cutting a last block.
    #[inline]
    fn rebuild(&self, out: &mut [f32]) {
        let u = [self.lo as u32, (self.lo >> 32) as u32, self.hi as u32, (self.hi >> 32) as u32];
        let mut q = u.map(lift::uint2int);
        lift::inv_lift(&mut q);
        let scale = f64_pow2(self.emax - 30);
        for (o, qi) in out.iter_mut().zip(q) {
            *o = (qi as f64 * scale) as f32;
        }
    }
}

/// Reads the code of one 4-value block under `budget`, as [`decode_block`]
/// does: its bit span and its planes. On error `r` stays where it was.
#[inline]
fn read_block4(r: &mut BitReader<'_>, c: &BlockCoding, budget: u32) -> Result<(u32, Planes4)> {
    let held = r.remaining_bits();
    let mut head = r.clone();
    let first = head.peek_bits(HEADER_BITS + INTPREC);
    if first & 1 != 0 && budget < HEADER_BITS {
        return Err(Error::corrupt("block shorter than its header"));
    }
    let mut st = Planes4::open(first, c, budget);
    head.skip_bits(st.used as u64);
    while st.live() {
        let before = st.used;
        st.win = head.peek_bits(7);
        st.step();
        head.skip_bits((st.used - before) as u64);
    }
    // A fixed-rate block always spans its whole budget.
    let span = if c.fixed_rate { budget.max(st.used) } else { st.used };
    if span as u64 > held {
        return Err(Error::corrupt("bit stream exhausted"));
    }
    r.skip_bits(span as u64);
    Ok((span, st))
}

/// Words of a lane's code: all a 64-value block can read, whatever its
/// budget (the header; per plane a failed test and a verbatim bit per
/// significant coefficient; per coefficient a passed test and its run),
/// and one more, so that a lane's 64-bit window is two loads anywhere.
pub const ROWS: usize = (HEADER_BITS + INTPREC * 65 + 2 * 64).div_ceil(64) as usize + 1;

/// The codes of a group of [`LANES`] fixed-rate blocks: `rows[j][l]` is
/// bits `64j..64j + 64` of lane `l`'s block, zero past its budget.
pub type LaneRows = [[u64; LANES]; ROWS];

/// One x-row of every block of a group, lane `l`'s four values at `4l`:
/// where the blocks follow one another along x, one run of the array.
pub type LaneRun = [f32; 4 * LANES];

/// A run of fixed-rate blocks, read [`LANES`] at a time: block `i` is the
/// `maxbits` bits at `i * maxbits`, so each lane finds its own code.
pub struct Lanes<'a> {
    data: &'a [u8],
    /// The next block's first bit in `data`.
    at: usize,
    maxbits: u32,
    rows: LaneRows,
}

impl<'a> Lanes<'a> {
    /// The `blocks` blocks at `r`; [`Error::Corrupt`] when the stream ends
    /// before their last bit.
    pub fn new(r: &BitReader<'a>, c: &BlockCoding, blocks: usize) -> Result<Self> {
        debug_assert!(c.fixed_rate && c.maxbits > HEADER_BITS);
        if r.remaining_bits() < blocks as u64 * c.maxbits as u64 {
            return Err(Error::corrupt("bit stream exhausted"));
        }
        let (data, at) = r.position();
        Ok(Self { data, at, maxbits: c.maxbits, rows: [[0; LANES]; ROWS] })
    }

    /// Decodes the next `blocks` (at most [`LANES`]) `N`-value blocks into
    /// `out` through [`DecodeLanes`]; the lanes past them are all-zero
    /// blocks.
    #[inline]
    pub fn group<const N: usize>(&mut self, blocks: usize, out: &mut [LaneRun]) {
        let maxbits = self.maxbits as usize;
        // A lane takes what its block can read; the rows past stay zero.
        let span = self.maxbits.min(64 * (ROWS as u32 - 1));
        let words = span.div_ceil(64) as usize;
        for j in 0..words {
            let mask = u64::MAX >> 64u32.saturating_sub(span - 64 * j as u32);
            for l in 0..LANES {
                let at = self.at + l * maxbits + 64 * j;
                self.rows[j][l] = if l < blocks { word_at(self.data, at) & mask } else { 0 };
            }
        }
        self.at += blocks * maxbits;
        dispatch(DecodeLanes::<N> { rows: &self.rows, maxbits: self.maxbits, out });
    }
}

/// Bits `at..at + 64` of `data`, zero past its end.
#[inline(always)]
fn word_at(data: &[u8], at: usize) -> u64 {
    let (i, mut b) = (at / 8, [0u8; 16]);
    match data.get(i..i + 16) {
        Some(s) => b.copy_from_slice(s),
        None => data.iter().skip(i).zip(&mut b).for_each(|(d, b)| *b = *d),
    }
    (u128::from_le_bytes(b) >> (at % 8)) as u64
}

/// [`decode_block`] for a run of fixed-rate 1-D blocks that holds `out`,
/// whose length may cut the last block: [`LANES`] at a time, the last
/// group padded with all-zero blocks. Leaves `r` behind the last block.
#[inline]
pub fn decode_line(r: &mut BitReader<'_>, c: &BlockCoding, out: &mut [f32]) -> Result<()> {
    debug_assert!(c.d == 1);
    let blocks = out.len().div_ceil(4);
    let mut lanes = Lanes::new(r, c, blocks)?;
    let (whole, rest) = out.as_chunks_mut::<{ 4 * LANES }>();
    for out in whole {
        lanes.group::<4>(LANES, std::slice::from_mut(out));
    }
    if !rest.is_empty() {
        let mut padded = [0.0f32; 4 * LANES];
        lanes.group::<4>(rest.len().div_ceil(4), std::slice::from_mut(&mut padded));
        rest.copy_from_slice(&padded[..rest.len()]);
    }
    r.skip_bits(blocks as u64 * c.maxbits as u64);
    Ok(())
}

/// A group of [`LANES`] fixed-rate `N`-value blocks, read side by side —
/// one body for [`cpu::widest`]. Nothing in a step branches on a lane,
/// and no lane reads past its own budget.
///
/// 4-value blocks of at most 64 bits step through the tables of `Planes4`,
/// a plane a step. Any other block steps through `read_planes`' actions
/// ([`Cursor::step`]), then its planes are transposed into coefficients
/// and negabinary, reorder, inverse transform and cast run across the
/// lanes, in `Unstage`'s order.
pub struct DecodeLanes<'a, const N: usize> {
    /// Each block's code.
    pub rows: &'a LaneRows,
    /// Bits a block: more than [`HEADER_BITS`].
    pub maxbits: u32,
    /// The group's values by x-row: `out[r]` holds values `4r..4r + 4`
    /// of every block; `N / 4` rows.
    pub out: &'a mut [LaneRun],
}

impl<const N: usize> cpu::Kernel for DecodeLanes<'_, N> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        read_lanes::<N, true>(self.rows, self.maxbits, self.out)
    }

    #[inline(always)]
    fn run_baseline(self) {
        read_lanes::<N, false>(self.rows, self.maxbits, self.out)
    }
}

/// `Planes4::open`, `step` and `rebuild` for lanes of 4-value blocks of
/// at most 64 bits, `words[l]` being lane `l`'s code.
#[inline(always)]
fn read_words4(words: &[u64; LANES], maxbits: u32, out: &mut LaneRun) {
    debug_assert!(maxbits == 64 || words.iter().all(|w| w >> maxbits == 0));
    // Each lane's unread bits, the bits it has read, its exponent, the
    // planes it has left and its significant coefficients.
    let (mut win, mut used, mut emax) = ([0u64; LANES], [0u32; LANES], [0i32; LANES]);
    let (mut k, mut sig) = ([0u32; LANES], [0u32; LANES]);
    for l in 0..LANES {
        let nonzero = words[l] & 1 != 0;
        // Planes above every coefficient's top bit: a failed test each.
        let empty = (words[l] >> HEADER_BITS | 1 << INTPREC).trailing_zeros();
        let empty = empty.min(maxbits - HEADER_BITS);
        emax[l] = if nonzero { (words[l] >> 1 & 0xff) as i32 - 127 } else { 0 };
        used[l] = if nonzero { HEADER_BITS + empty } else { 1 };
        k[l] = if nonzero { INTPREC - empty } else { 0 };
        win[l] = words[l] >> used[l];
    }
    // Coefficients 0 and 1 in the halves of `lo`, 2 and 3 in `hi`'s.
    let (mut lo, mut hi) = ([0u64; LANES], [0u64; LANES]);
    loop {
        let mut any = 0;
        for l in 0..LANES {
            let live = lane_live(k[l], used[l], maxbits);
            // Bits of `win` past the budget are zero, so only the marker
            // `1 << r` tells the table where the budget ends.
            let r = maxbits.wrapping_sub(used[l]).min(7);
            let row = sig[l] | ((live ^ 1) * DONE);
            let e = PLANE4_STEP[(row << 8 | win[l] as u32 & 0x7f | 1 << r) as usize & 0x7ff];
            let kk = k[l] - live;
            let x = (e >> 6 & 15) as u64;
            lo[l] |= (x & 1 | (x & 2) << 31) << kk;
            hi[l] |= (x >> 2 & 1 | (x & 8) << 29) << kk;
            win[l] >>= e & 63;
            used[l] += e & 63;
            sig[l] = e >> 10;
            k[l] = kk;
            any |= live;
        }
        if any == 0 {
            break;
        }
    }
    let mut v = [[0.0f32; LANES]; 4];
    for l in 0..LANES {
        let u = [lo[l] as u32, (lo[l] >> 32) as u32, hi[l] as u32, (hi[l] >> 32) as u32];
        let mut q = u.map(lift::uint2int);
        lift::inv_lift(&mut q);
        let scale = f64_pow2(emax[l] - 30);
        for (vi, qi) in v.iter_mut().zip(q) {
            vi[l] = (qi as f64 * scale) as f32;
        }
    }
    for (l, block) in out.chunks_exact_mut(4).enumerate() {
        for (o, vi) in block.iter_mut().zip(&v) {
            *o = vi[l];
        }
    }
}

/// One lane of [`read_lanes`]: its next bit, its plane, the coefficients
/// significant before it, the next one to test, 1 while the plane has
/// tests left, and the plane's bits so far.
#[derive(Clone, Copy)]
#[rustfmt::skip]
struct Cursor { cur: u32, k: u32, sig: u32, pos: u32, open: u32, x: u64 }

impl Cursor {
    /// 1 while the lane has an open plane, or a plane and budget left.
    #[inline(always)]
    fn live(&self, maxbits: u32) -> u32 {
        self.open | lane_live(self.k, self.cur, maxbits)
    }

    /// Takes `read_planes`' next actions from `w`, the 64 bits at `cur`:
    /// opens the next plane if none is open, reading the significant
    /// coefficients' bits verbatim, then, if the plane is open, one group
    /// test — a one, then a run that ends behind a one, at the last
    /// coefficient (whose one is implied) or with the budget. The verbatim
    /// bits are at most `pos` and the test and its run at most `n - pos`,
    /// so both fit the window. A lane that is done steps in place.
    #[inline(always)]
    fn step(self, w: u64, n: u32, maxbits: u32) -> Self {
        let Cursor { cur, k, sig, pos, open, x } = self;
        let start = (open ^ 1) & lane_live(k, cur, maxbits);
        let m = start * sig.min(maxbits - cur);
        let opened = 0u64.wrapping_sub(start as u64);
        let verbatim = w & ((1u64 << (m & 63)).wrapping_sub(1) | 0u64.wrapping_sub((m >> 6) as u64));
        let (cur, x) = (cur + m, x & !opened | verbatim & opened);
        let pos = pos.wrapping_add(start.wrapping_mul(sig.wrapping_sub(pos)));
        let open = open | start & (pos < n) as u32 & (cur < maxbits) as u32;
        let w = w >> (m & 63);
        let passed = open & (w as u32 & 1);
        let limit = (n - 1).wrapping_sub(pos).min((maxbits - cur).wrapping_sub(1)) & 63;
        let run = w >> 1 & ((1u64 << limit) - 1);
        let zeros = (run | 1 << limit).trailing_zeros();
        let read = zeros + (zeros < limit) as u32;
        let cur = cur + open * (1 + passed * read);
        let x = x | (passed as u64) << (pos.wrapping_add(zeros) & 63);
        let pos = pos + passed * (zeros + 1);
        let next = passed & (pos < n) as u32 & (cur < maxbits) as u32;
        // A plane that closes leaves its coefficients significant.
        let closes = (start | open) & (next ^ 1);
        let sig = sig.wrapping_add(closes.wrapping_mul(pos.wrapping_sub(sig)));
        Cursor { cur, k: k - start, sig, pos, open: next, x }
    }
}

/// Every lane's [`Cursor`], field by field: a step across the lanes is
/// one vector operation a field.
#[derive(Default)]
#[rustfmt::skip]
struct Cursors {
    cur: [u32; LANES], k: [u32; LANES], sig: [u32; LANES],
    pos: [u32; LANES], open: [u32; LANES], x: [u64; LANES],
}

#[rustfmt::skip]
impl Cursors {
    #[inline(always)]
    fn get(&self, l: usize) -> Cursor {
        let (cur, k, sig, pos, open) = (self.cur[l], self.k[l], self.sig[l], self.pos[l], self.open[l]);
        Cursor { cur, k, sig, pos, open, x: self.x[l] }
    }

    #[inline(always)]
    fn set(&mut self, l: usize, c: Cursor) {
        (self.cur[l], self.k[l], self.sig[l], self.pos[l]) = (c.cur, c.k, c.sig, c.pos);
        (self.open[l], self.x[l]) = (c.open, c.x);
    }
}

/// The 64 bits of lane `l`'s code from bit `cur`.
#[inline(always)]
fn window(rows: &LaneRows, l: usize, cur: u32) -> u64 {
    let (j, s) = ((cur >> 6).min(ROWS as u32 - 2) as usize, cur & 63);
    rows[j][l] >> s | rows[j + 1][l] << 1 << (63 - s)
}

/// Transposes a 32×32 bit matrix in every lane as far as rows
/// `0..R` of the result (bit `j` of `a[i][l]` moves to bit `i` of
/// `a[j][l]`): five rounds of delta swaps exchange the off-diagonal
/// 16×16 to 1×1 sub-blocks. A round at distance `j` only feeds rows
/// below `max(R, j)`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the lane index runs through two rows
fn transpose32<const R: usize>(a: &mut [[u32; LANES]; 32]) {
    let masks = [0x0000_FFFF, 0x00FF_00FF, 0x0F0F_0F0F, 0x3333_3333, 0x5555_5555u32];
    for (j, mask) in [16, 8, 4, 2, 1].into_iter().zip(masks) {
        for k in (0..R.max(j)).filter(|k| k & j == 0) {
            for l in 0..LANES {
                let t = (a[k][l] >> j ^ a[(k + j) % 32][l]) & mask;
                a[k][l] ^= t << j;
                if j < R {
                    a[(k + j) % 32][l] ^= t;
                }
            }
        }
    }
}

/// The body of [`DecodeLanes`]. `LOCKSTEP` steps every lane at once until
/// none is live, for the vector widths; otherwise the lanes run to their
/// ends two at a time, for the baseline, which would emulate the vector
/// form lane by lane.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the lane index is a column of several arrays
fn read_lanes<const N: usize, const LOCKSTEP: bool>(rows: &LaneRows, maxbits: u32, out: &mut [LaneRun]) {
    debug_assert!(maxbits > HEADER_BITS && matches!(N, 4 | 16 | 64) && out.len() == N / 4);
    if N == 4 && maxbits <= 64 {
        return read_words4(&rows[0], maxbits, &mut out[0]);
    }
    let n = N as u32;
    let (mut at, mut emax, mut any) = (Cursors::default(), [0i32; LANES], 0);
    for l in 0..LANES {
        let w = rows[0][l];
        // Planes above every coefficient's top bit: a failed test each.
        let empty = (w >> HEADER_BITS | 1 << INTPREC).trailing_zeros().min(maxbits - HEADER_BITS);
        emax[l] = (w >> 1 & 0xff) as i32 - 127;
        // An all-zero block has no plane to read.
        at.k[l] = (w & 1) as u32 * (INTPREC - empty);
        at.cur[l] = HEADER_BITS + empty;
        any |= lane_live(at.k[l], at.cur[l], maxbits);
    }
    // Plane `k` of lane `l`, as far as it has been read. The step loop
    // writes it at the lane's own `k`; were it also read at fixed rows,
    // LLVM would leave the loop scalar, so the transpose works on a copy.
    let mut planes = [[0u64; LANES]; INTPREC as usize];
    if LOCKSTEP {
        while any != 0 {
            any = 0;
            for l in 0..LANES {
                let c = at.get(l);
                let c = c.step(window(rows, l, c.cur), n, maxbits);
                planes[(c.k & 31) as usize][l] = c.x;
                any |= c.live(maxbits);
                at.set(l, c);
            }
        }
    } else {
        // Two chains of loads and shifts, each running while the other
        // waits.
        for (a, b) in (0..LANES / 2).map(|l| (l, l + LANES / 2)) {
            let (mut ca, mut cb) = (at.get(a), at.get(b));
            while ca.live(maxbits) | cb.live(maxbits) != 0 {
                ca = ca.step(window(rows, a, ca.cur), n, maxbits);
                cb = cb.step(window(rows, b, cb.cur), n, maxbits);
                planes[(ca.k & 31) as usize][a] = ca.x;
                planes[(cb.k & 31) as usize][b] = cb.x;
            }
        }
    }
    // Bit `r` of plane `k` is bit `k` of the coefficient of sequency rank
    // `r`, which is block value `PERM[r]`: 0..32 in `lo`, 32..64 in `hi`.
    let (mut lo, mut hi) = ([[0u32; LANES]; 32], [[0u32; LANES]; 32]);
    for (p, (lo, hi)) in planes.iter().zip(lo.iter_mut().zip(&mut hi)) {
        for ((lo, hi), &p) in lo.iter_mut().zip(hi.iter_mut()).zip(p) {
            (*lo, *hi) = (p as u32, (p >> 32) as u32);
        }
    }
    if N > 32 {
        transpose32::<32>(&mut lo);
        transpose32::<32>(&mut hi);
    } else {
        transpose32::<N>(&mut lo);
    }
    let mut q = [[0i32; LANES]; N];
    for (r, &p) in Sequency::<N>::PERM.iter().enumerate() {
        let u = if r < 32 { &lo[r % 32] } else { &hi[r % 32] };
        for l in 0..LANES {
            q[p as usize % N][l] = lift::uint2int(u[l]);
        }
    }
    lift::inv_xform_lanes(&mut q);
    let scale = emax.map(|e| f64_pow2(e - 30));
    for (r, run) in out.iter_mut().enumerate().take(N / 4) {
        for l in 0..LANES {
            for dx in 0..4 {
                run[4 * l + dx] = (q[(4 * r + dx) % N][l] as f64 * scale[l]) as f32;
            }
        }
    }
}

/// 1 while a lane has a plane left (`k > 0`) and budget to code it in
/// (`used < maxbits`), else 0 — from the sign bits, not by comparing, so
/// that nothing downstream becomes a branch.
#[inline(always)]
fn lane_live(k: u32, used: u32, maxbits: u32) -> u32 {
    (k.wrapping_neg() & used.wrapping_sub(maxbits)) >> 31
}

/// Runs a kernel at the widest vector width the CPU has (or, in tests,
/// the width one forced).
#[inline]
fn dispatch<K: cpu::Kernel>(body: K) -> K::Output {
    #[cfg(test)]
    if let Some(level) = forced::level() {
        return cpu::at(level, body).expect("a forced level is one the host runs");
    }
    cpu::widest(body)
}

/// Encodes one block of `N = 4^d` f32 values into `w`.
///
/// Returns the number of bits written (always exactly `c.maxbits` at a
/// fixed rate), or `None` — with `w` untouched — when the block holds a
/// NaN or an infinity: the cast to a common exponent has no defined
/// result for them, so the caller turns that into a typed error.
#[inline]
pub fn encode_block<const N: usize>(
    values: &[f32; N],
    c: &BlockCoding,
    w: &mut BitWriter,
) -> Option<u32> {
    debug_assert_eq!(block_cells(c.d), N);
    debug_assert!(c.maxbits >= HEADER_BITS);
    if N == 4 {
        let (emax, u) = stage4(&pad4(values))?;
        return Some(encode_planes4(&u, emax, c, &mut w.tail()));
    }
    let vmax = finite_max(values)?;
    let mut w = w.tail();
    let used = encode_finite(values, vmax, c, &mut w);
    if c.fixed_rate {
        w.write_zeros(c.maxbits - used);
        Some(c.maxbits)
    } else {
        Some(used)
    }
}

/// Codes a block whose largest magnitude is the finite `vmax`, without
/// padding; returns the bits written.
#[inline]
fn encode_finite<const N: usize>(
    values: &[f32; N],
    vmax: f32,
    c: &BlockCoding,
    w: &mut WriterTail<'_>,
) -> u32 {
    if vmax == 0.0 {
        w.write_bits(0, 1); // all-zero block
        return 1;
    }
    // emax in [-127, 128] stored with bias 127 -> [0, 255] in 8 bits,
    // behind the non-zero flag.
    let emax = exponent(vmax).clamp(-127, 128);
    w.write_bits(1 | ((emax + 127) as u64) << 1, HEADER_BITS);

    let mut fetch = PlaneRows::<N>::new();
    let any = dispatch(Stage { values, emax, rows: &mut fetch.coeffs.bytes });

    // Embedded coding.
    let budget = c.maxbits - HEADER_BITS;
    let mut bits = budget;
    let kmin = INTPREC.saturating_sub(c.maxprec(emax));
    let n = N as u32;
    let mut sig = 0u32; // number of coefficients known significant
    let mut k = INTPREC;
    // A plane above every coefficient's top bit has nothing significant
    // to send verbatim and fails its first group test: one zero bit.
    let empty = any.leading_zeros().min(k - kmin).min(bits);
    w.write_bits(0, empty);
    bits -= empty;
    k -= empty;
    while sig < n && bits > 0 && k > kmin {
        k -= 1;
        let mut x = fetch.plane(k);
        // Verbatim bits for known-significant coefficients.
        let m = sig.min(bits);
        bits -= m;
        w.write_bits(x, m);
        x = shr(x, m);
        // Group tests for the rest, each with the unary run behind it.
        while sig < n && bits > 0 {
            if x == 0 {
                w.write_bits(0, 1);
                bits -= 1;
                break;
            }
            // The test passes; then one zero per insignificant coefficient
            // and a one for the next significant one — unless that is the
            // last coefficient, where the one is implied, or the budget
            // ends first.
            let zeros = x.trailing_zeros();
            let run = (zeros + 1).min(n - 1 - sig).min(bits - 1);
            w.write_bits(1 | 2 << zeros, 1 + run);
            bits -= 1 + run;
            x = shr(x, zeros + 1);
            sig += zeros + 1;
        }
    }
    // Every coefficient is significant: what is left of the budget is
    // whole planes, as many to a word as fit.
    while bits > 0 && k > kmin {
        let take = (64 / n).min(k - kmin);
        let mut word = 0u64;
        for j in 0..take {
            k -= 1;
            word |= fetch.plane(k) << (n * j % 64);
        }
        let m = (take * n).min(bits);
        w.write_bits(word, m);
        bits -= m;
    }
    HEADER_BITS + budget - bits
}

/// Decodes one block; the mirror of [`encode_block`].
///
/// `budget` is the block's bit span: `c.maxbits` at a fixed rate, where
/// exactly that many bits are consumed, and the stored length otherwise,
/// which the block may not exceed. Returns the bits consumed and leaves
/// `r` behind them.
///
/// Reads inside the block cannot fail — bits past the end of the stream
/// read as zero — so the bits consumed are checked once against the bits
/// `r` held: a block the stream ends inside of is [`Error::Corrupt`],
/// with `out` untouched and `r` where it was.
#[inline]
pub fn decode_block<const N: usize>(
    r: &mut BitReader<'_>,
    c: &BlockCoding,
    budget: u32,
    out: &mut [f32; N],
) -> Result<u32> {
    debug_assert_eq!(block_cells(c.d), N);
    if N == 4 {
        let (span, st) = read_block4(r, c, budget)?;
        st.rebuild(out);
        return Ok(span);
    }
    let held = r.remaining_bits();
    let mut head = r.clone();
    let (used, coded) = read_planes::<N>(&mut head, c, budget)?;
    // A fixed-rate block always spans its whole budget.
    let span = if c.fixed_rate { budget.max(used) } else { used };
    if span as u64 > held {
        return Err(Error::corrupt("bit stream exhausted"));
    }
    head.skip_bits((span - used) as u64);
    *r = head;
    match coded {
        Some((emax, coeffs)) => dispatch(Unstage { emax, rows: &coeffs.bytes, out }),
        None => *out = [0.0; N],
    }
    Ok(span)
}

/// Reads the code of one block: the bits read, padding not included, and
/// the exponent and coefficients of a block that is not all zero.
#[inline]
fn read_planes<const N: usize>(
    r: &mut BitReader<'_>,
    c: &BlockCoding,
    budget: u32,
) -> Result<(u32, Option<(i32, Coefficients<N>)>)> {
    let header = r.peek_bits(HEADER_BITS);
    if header & 1 == 0 {
        r.skip_bits(1);
        return Ok((1, None));
    }
    let budget = budget
        .checked_sub(HEADER_BITS)
        .ok_or_else(|| Error::corrupt("block shorter than its header"))?;
    r.skip_bits(HEADER_BITS as u64);
    let emax = (header >> 1) as i32 - 127;

    let mut bits = budget;
    let kmin = INTPREC.saturating_sub(c.maxprec(emax));
    let n = N as u32;
    let mut sink = PlaneRows::<N>::new();
    let mut sig = 0u32;
    let mut k = INTPREC;
    // Planes above every coefficient's top bit: one failed test each.
    let empty = (r.peek_bits(INTPREC) | 1 << INTPREC).trailing_zeros().min(k - kmin).min(bits);
    r.skip_bits(empty as u64);
    bits -= empty;
    k -= empty;
    while sig < n && bits > 0 && k > kmin {
        k -= 1;
        let m = sig.min(bits);
        bits -= m;
        let mut x = r.take_bits(m);
        let mut pos = sig; // next untested coefficient
        while pos < n && bits > 0 {
            // One window holds the test and up to 55 bits of the run
            // behind it.
            let window = r.peek_bits(56);
            if window & 1 == 0 {
                r.skip_bits(1);
                bits -= 1;
                break;
            }
            // The run ends behind a one, at the last coefficient (whose
            // one is implied) or with the budget.
            let limit = (n - 1 - pos).min(bits - 1);
            let seen = limit.min(55);
            let run = window >> 1 & low_mask(seen);
            let (read, zeros) = scan_run(run, seen);
            r.skip_bits(1 + read as u64);
            bits -= 1 + read;
            pos += zeros;
            if run == 0 && limit > seen {
                // Only a 64-value block has runs longer than the window.
                let (read, zeros) = scan_run(r.peek_bits(limit - seen), limit - seen);
                r.skip_bits(read as u64);
                bits -= read;
                pos += zeros;
            }
            x |= 1u64 << (pos % 64);
            pos += 1;
        }
        sig = sig.max(pos);
        sink.put(k, x);
    }
    // Every coefficient is significant: whole planes, as many to a read
    // as fit in a word.
    while bits > 0 && k > kmin {
        let take = (64 / n).min(k - kmin);
        let m = (take * n).min(bits);
        let word = r.take_bits(m);
        bits -= m;
        for j in 0..take {
            k -= 1;
            sink.put(k, shr(word, n * j) & low_mask(n));
        }
    }
    sink.flush();
    Ok((HEADER_BITS + budget - bits, Some((emax, sink.coeffs))))
}

/// A unary run of at most `limit` bits held in `run`: the bits it spans —
/// through its terminating one, if it has one — and the zeros in it.
#[inline]
fn scan_run(run: u64, limit: u32) -> (u32, u32) {
    if run != 0 {
        let zeros = run.trailing_zeros();
        (zeros + 1, zeros)
    } else {
        (limit, limit)
    }
}

/// A block's fixed-point cast, transform, sequency reorder and
/// negabinary into byte rows — one body for [`cpu::widest`], run once per
/// 16- or 64-value block. Returns the OR of the coefficients.
pub struct Stage<'a, const N: usize> {
    /// The block, x fastest.
    pub values: &'a [f32; N],
    /// Its exponent: every `|v| < 2^emax`.
    pub emax: i32,
    /// Byte `g` of the coefficient of sequency rank `i` goes to
    /// `rows[g][i]`.
    pub rows: &'a mut [[u8; N]; 4],
}

impl<const N: usize> cpu::Kernel for Stage<'_, N> {
    type Output = u32;

    #[inline(always)]
    fn run(self) -> u32 {
        let mut q = [0i32; N];
        for (qi, &v) in q.iter_mut().zip(self.values) {
            *qi = fixed_point(v, self.emax);
        }
        lift::fwd_xform(&mut q);
        let mut u = [0u32; N];
        for (ui, &p) in u.iter_mut().zip(&Sequency::<N>::PERM) {
            *ui = lift::int2uint(q[p as usize % N]);
        }
        for (g, row) in self.rows.iter_mut().enumerate() {
            for (b, &ui) in row.iter_mut().zip(&u) {
                *b = (ui >> (8 * g)) as u8;
            }
        }
        u.iter().fold(0, |any, &ui| any | ui)
    }
}

/// The mirror of [`Stage`]: negabinary, reorder, inverse transform and
/// cast from a block's byte rows into `out` — one body for
/// [`cpu::widest`].
pub struct Unstage<'a, const N: usize> {
    /// The block's exponent.
    pub emax: i32,
    /// Its coefficients by byte row, as [`Stage`] leaves them.
    pub rows: &'a [[u8; N]; 4],
    /// The block, x fastest.
    pub out: &'a mut [f32; N],
}

impl<const N: usize> cpu::Kernel for Unstage<'_, N> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let [b0, b1, b2, b3] = self.rows;
        let mut u = [0u32; N];
        for (i, ui) in u.iter_mut().enumerate() {
            *ui = u32::from_le_bytes([b0[i], b1[i], b2[i], b3[i]]);
        }
        let mut q = [0i32; N];
        for (&ui, &p) in u.iter().zip(&Sequency::<N>::PERM) {
            q[p as usize % N] = lift::uint2int(ui);
        }
        lift::inv_xform(&mut q);
        let scale = f64_pow2(self.emax - 30);
        for (o, &qi) in self.out.iter_mut().zip(&q) {
            *o = (qi as f64 * scale) as f32;
        }
    }
}

/// A vector width forced on every kernel of the test process, so that
/// streams, thread counts and the device path can be run at each width.
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

    /// Runs `f` with every kernel at `level`; `None` when the host does
    /// not run `level`.
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

    fn rate_coding(d: u8, maxbits: u32) -> BlockCoding {
        BlockCoding { d, maxbits, fixed_rate: true, planes: Planes::Count(INTPREC) }
    }

    fn planes_coding(d: u8, maxprec: u32) -> BlockCoding {
        BlockCoding { d, maxbits: 1 << 16, fixed_rate: false, planes: Planes::Count(maxprec) }
    }

    fn roundtrip<const N: usize>(values: &[f32; N], maxbits: u32) -> [f32; N] {
        let c = rate_coding(N.ilog(4) as u8, maxbits);
        let mut w = BitWriter::new();
        let used = encode_block(values, &c, &mut w).unwrap();
        assert_eq!(used, maxbits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = [0.0f32; N];
        let consumed = decode_block(&mut r, &c, maxbits, &mut out).unwrap();
        assert_eq!(consumed, maxbits);
        out
    }

    #[test]
    fn perm_is_a_permutation_sorted_by_degree() {
        fn check<const N: usize>() {
            let degree = |i: &u8| (i % 4 + i / 4 % 4 + i / 16, *i);
            let mut want: Vec<u8> = (0..N as u8).collect();
            want.sort_by_key(degree);
            assert_eq!(Sequency::<N>::PERM.to_vec(), want);
        }
        check::<4>();
        check::<16>();
        check::<64>();
    }

    fn plane_naive(u: &[u32], k: u32) -> u64 {
        u.iter().enumerate().fold(0, |x, (i, &ui)| x | (((ui >> k) & 1) as u64) << i)
    }

    fn noise(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn transpose8_moves_bit_c_of_byte_r_to_bit_r_of_byte_c() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let cases = [0, u64::MAX, 1, 1 << 63, 0x8040_2010_0804_0201, 0x0102_0408_1020_4080];
        for x in cases.into_iter().chain((0..200).map(|_| noise(&mut seed))) {
            let mut want = 0u64;
            for r in 0..8 {
                for c in 0..8 {
                    want |= (x >> (8 * r + c) & 1) << (8 * c + r);
                }
            }
            assert_eq!(transpose8(x), want, "{x:#x}");
            assert_eq!(transpose8(transpose8(x)), x);
        }
    }

    #[test]
    fn transpose_bytes_moves_byte_c_of_word_r_to_byte_r_of_word_c_either_way() {
        let mut seed = 0xD1B5_4A32_D192_ED03u64;
        for _ in 0..100 {
            let m: [u64; 8] = std::array::from_fn(|_| noise(&mut seed));
            let want: [u64; 8] = std::array::from_fn(|r| {
                u64::from_le_bytes(std::array::from_fn(|c| m[c].to_le_bytes()[r]))
            });
            assert_eq!(transpose_bytes(m, true), want);
            assert_eq!(transpose_bytes(m, false), want);
        }
    }

    /// Fetch and deposit by byte row against the shift-and-or loop per
    /// plane they replaced, for every plane of the block sizes they serve.
    #[test]
    fn plane_fetch_and_deposit_equal_the_naive_loops() {
        fn check<const N: usize>(seed: &mut u64) {
            for round in 0..50 {
                // Sparse, dense and full-range coefficients.
                let u: [u32; N] = std::array::from_fn(|_| match round % 3 {
                    0 => noise(seed) as u32,
                    1 => (noise(seed) & noise(seed) & noise(seed)) as u32,
                    _ => (noise(seed) as u32) >> (noise(seed) % 32),
                });
                let mut fetch = PlaneRows::<N>::new();
                for (i, ui) in u.iter().enumerate() {
                    for (row, b) in fetch.coeffs.bytes.iter_mut().zip(ui.to_le_bytes()) {
                        row[i] = b;
                    }
                }
                let mut sink = PlaneRows::<N>::new();
                for k in (0..INTPREC).rev() {
                    let x = fetch.plane(k);
                    assert_eq!(x, plane_naive(&u, k), "plane {k} of {N}");
                    sink.put(k, x);
                }
                sink.flush();
                assert_eq!(sink.coeffs.bytes, fetch.coeffs.bytes);
            }
        }
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        check::<16>(&mut seed);
        check::<64>(&mut seed);
    }

    /// The tolerance's exponent, taken once per stream, against the libm
    /// call per block it replaced.
    #[test]
    fn maxprec_equals_the_per_block_log2_formula() {
        fn per_block(emax: i32, tol: f64, d: u8) -> u32 {
            if tol <= 0.0 || tol.is_nan() || tol.is_infinite() {
                return INTPREC;
            }
            let kmin = (tol.log2().floor() as i32) - emax + 30 - (d as i32 + 1);
            (INTPREC as i32 - kmin.clamp(0, INTPREC as i32)) as u32
        }
        let mut tols = vec![0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 5e-324];
        for e in -40..=25 {
            for m in [1.0, 1.0000001, 1.9999999, 2.0, 3.3, 5.0, 9.99] {
                tols.push(m * 10f64.powi(e));
            }
        }
        tols.extend((-135..=85).map(|e| 2f64.powi(e)));
        for tol in tols {
            for d in 1..=3u8 {
                let c = BlockCoding::new(&ZfpMode::FixedAccuracy(tol), d);
                for emax in -127..=128 {
                    assert_eq!(c.maxprec(emax), per_block(emax, tol, d), "tol {tol:e} emax {emax}");
                }
            }
        }
    }

    #[test]
    fn exponent_brackets_magnitude() {
        for &x in &[1.0f32, 0.5, 2.0, 3.7, 1e-20, 1e20, 0.99999, 1.00001] {
            let e = exponent(x);
            assert!((x.abs() as f64) < f64_pow2(e), "x={x} e={e}");
            assert!((x.abs() as f64) >= f64_pow2(e - 1), "x={x} e={e}");
        }
        assert_eq!(exponent(0.0), i32::MIN);
    }

    /// The libm formulation the bit-level `exponent`/`f64_pow2` replaced.
    fn exponent_libm(x: f32) -> i32 {
        let a = x.abs() as f64;
        let e = (a.log2().floor() as i32) + 1;
        if a >= f64::powi(2.0, e) {
            e + 1
        } else if a < f64::powi(2.0, e - 1) {
            e - 1
        } else {
            e
        }
    }

    #[test]
    fn exponent_and_pow2_equal_the_libm_formulas_for_every_f32_exponent() {
        let mut x = 0x2545_F491u32;
        for exp_field in 0..=254u32 {
            let mut mantissas = vec![0u32, 1, 0x7f_ffff];
            for _ in 0..8 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                mantissas.push(x & 0x7f_ffff);
            }
            for m in mantissas {
                let v = f32::from_bits(exp_field << 23 | m);
                if v == 0.0 {
                    continue;
                }
                assert_eq!(exponent(v), exponent_libm(v), "{v:e}");
                assert_eq!(exponent(-v), exponent_libm(v), "-{v:e}");
            }
        }
        for e in -160..=160 {
            assert_eq!(f64_pow2(e).to_bits(), f64::powi(2.0, e).to_bits(), "2^{e}");
        }
    }

    /// The integer cast against the f64 product it replaced, for every
    /// f32 exponent, both signs, and every block exponent the coder can
    /// pair with the value: its own, the clamp's, and up to 128.
    #[test]
    fn fixed_point_equals_the_f64_product_for_every_exponent() {
        let mut x = 0x9E37_79B9u32;
        for field in 0..=254u32 {
            let mut mantissas = vec![0u32, 1, 2, 0x40_0000, 0x7f_fffe, 0x7f_ffff];
            for _ in 0..6 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                mantissas.push(x & 0x7f_ffff);
            }
            for m in mantissas {
                for sign in [0, 1u32 << 31] {
                    let v = f32::from_bits(sign | field << 23 | m);
                    let own = if v == 0.0 { -127 } else { exponent(v).clamp(-127, 128) };
                    for emax in own..=128 {
                        let want = (v as f64 * f64_pow2(30 - emax)) as i32;
                        assert_eq!(fixed_point(v, emax), want, "{v:e} at emax {emax}");
                        assert!(want.unsigned_abs() < 1 << 30, "{v:e} at emax {emax}");
                    }
                }
            }
        }
    }

    /// A lane that is done steps through a `DONE` row: nothing coded or
    /// read, whatever the nibble or key, and the row stays done.
    #[test]
    fn done_rows_code_and_read_nothing() {
        for sig in 0..=4u32 {
            let row = sig | DONE;
            assert!(row >= 5, "{sig}");
            for nibble in 0..16 {
                assert_eq!(PLANE4_ENCODE[(row << 4 | nibble) as usize], row << 12);
            }
            for key in 0..256 {
                assert_eq!(PLANE4_STEP[(row << 8 | key) as usize], row << 10);
            }
        }
    }

    #[test]
    fn zero_block_roundtrips() {
        let v = [0.0f32; 64];
        assert_eq!(roundtrip(&v, 64), v);
    }

    #[test]
    fn generous_budget_is_near_lossless() {
        let v: [f32; 64] = std::array::from_fn(|i| ((i as f32) * 0.37).sin() * 100.0);
        // 32 planes * 64 values + header is a loose upper bound.
        let out = roundtrip(&v, 9 + 64 * 33 + 64);
        for (a, b) in v.iter().zip(&out) {
            let tol = a.abs().max(1.0) * 1e-6;
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn error_decreases_with_rate() {
        let v: [f32; 64] = std::array::from_fn(|i| {
            let (x, y, z) = ((i % 4) as f32, ((i / 4) % 4) as f32, (i / 16) as f32);
            (x * 0.5 + y * 0.3 + z * 0.2).sin() * 1000.0
        });
        let mut prev_err = f64::INFINITY;
        for rate in [2u32, 4, 8, 16] {
            let out = roundtrip(&v, rate * 64);
            let err: f64 = v.iter().zip(&out).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>();
            assert!(err <= prev_err * 1.5, "rate {rate}: err {err} vs prev {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 1.0, "high rate should be accurate, got {prev_err}");
    }

    #[test]
    fn d1_and_d2_blocks() {
        let v4 = [1.0f32, -2.0, 3.5, 10.0];
        let out = roundtrip(&v4, 9 + 4 * 33 + 16);
        for (a, b) in v4.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        let v16: [f32; 16] = std::array::from_fn(|i| i as f32 * 2.0 - 16.0);
        let out = roundtrip(&v16, 9 + 16 * 33 + 32);
        for (a, b) in v16.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn tiny_budget_still_produces_plausible_block() {
        // 16 bits for 64 values: only the DC scale survives, but decode
        // must not error and magnitudes must stay in the data's ballpark.
        let v = [100.0f32; 64];
        let out = roundtrip(&v, 16);
        for &b in &out {
            assert!(b.abs() <= 256.0, "decoded {b} from constant-100 block");
        }
    }

    #[test]
    fn maxprec_truncates_planes() {
        let v: [f32; 64] = std::array::from_fn(|i| (i as f32).sqrt() * 10.0);
        let mut w = BitWriter::new();
        let used_full = encode_block(&v, &planes_coding(3, INTPREC), &mut w).unwrap();
        let low = planes_coding(3, 8);
        let mut w2 = BitWriter::new();
        let used_low = encode_block(&v, &low, &mut w2).unwrap();
        assert!(used_low < used_full);
        let bytes = w2.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = [0.0f32; 64];
        decode_block(&mut r, &low, 1 << 16, &mut out).unwrap();
        // 8 planes on |v| < 2^7: quantization steps of 2^(7-8+1) = 1,
        // amplified by up to ~2^3 through the 3-D inverse transform.
        for (a, b) in v.iter().zip(&out) {
            assert!((a - b).abs() < 32.0, "{a} vs {b}");
        }
    }

    #[test]
    fn variable_length_blocks_chain() {
        // Without padding, consecutive blocks must decode back-to-back.
        let blocks: Vec<[f32; 64]> = (0..5)
            .map(|b| std::array::from_fn(|i| ((b * 64 + i) as f32 * 0.11).cos() * 50.0))
            .collect();
        let c = planes_coding(3, 16);
        let mut w = BitWriter::new();
        let mut lens = Vec::new();
        for b in &blocks {
            lens.push(encode_block(b, &c, &mut w).unwrap());
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (b, &len) in blocks.iter().zip(&lens) {
            let mut out = [0.0f32; 64];
            let used = decode_block(&mut r, &c, 1 << 16, &mut out).unwrap();
            assert_eq!(used, len);
            // 16 planes on |v| <= 64 leaves quantization steps of a few
            // times 2^(emax-16) ~ 0.004, amplified by the 3-D transform.
            for (a, o) in b.iter().zip(&out) {
                assert!((a - o).abs() < 0.1, "{a} vs {o}");
            }
        }
    }

    #[test]
    fn non_finite_inputs_are_refused_and_write_nothing() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in [0usize, 17, 63] {
                let mut v = [1.0f32; 64];
                v[at] = bad;
                let mut w = BitWriter::new();
                w.write_bits(0b101, 3);
                assert_eq!(encode_block(&v, &rate_coding(3, 64 * 8), &mut w), None);
                assert_eq!(w.bit_len(), 3, "{bad} at {at}");
            }
        }
        // The largest finite magnitudes are still data.
        let v = [f32::MAX, f32::MIN, f32::MIN_POSITIVE, -0.0];
        assert!(roundtrip(&v, 9 + 4 * 33 + 16).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn a_stored_length_shorter_than_the_header_is_corrupt() {
        let v = [3.0f32; 4];
        let c = planes_coding(1, INTPREC);
        let mut w = BitWriter::new();
        encode_block(&v, &c, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut out = [0.0f32; 4];
        for budget in 1..HEADER_BITS {
            assert!(decode_block(&mut BitReader::new(&bytes), &c, budget, &mut out).is_err());
        }
    }
}
