//! ZFP's block coder: fixed-point cast, sequency reorder, and the
//! embedded bit-plane coder, run on groups of blocks side by side.
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
//! cuZFP codes one block per GPU thread (PAPER §IV-B-1); here one block
//! is one lane, and [`EncodeLanes`] codes and [`DecodeLanes`] reads
//! [`LANES`] blocks at a time, in every mode and on every path (DESIGN.md
//! §17, §24). Both are [`cpu::Kernel`]s, run at the widest vector width
//! the CPU has. A 4-value block steps a plane at a time through a table
//! ([`PLANE4_STEP`], [`PLANE4_ENCODE`]); a larger block steps a group
//! test at a time, branch-free, on planes transposed across the lanes. At
//! a fixed rate every lane's budget is the one `maxbits` and every plane
//! is coded; in the variable-length modes each lane has its own budget
//! and its own lowest plane. The bodies are instantiated once for each
//! (`Limits`), so that fixed-rate groups pay nothing for the others.

use crate::config::ZfpMode;
use crate::lift;
use foresight_util::bits::{BitReader, BitWriter, WriterTail};
use foresight_util::{cpu, Error, Result};
use std::ops::Range;

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
    ///
    /// A block with exponent `emax` keeps the planes down to `kmin =
    /// ⌊log2 tol⌋ − emax + 30 − (d + 1)` ([`BlockCoding::maxprec`]), and
    /// its error is at most `tol`. Where `tol < 2^(emax − 28 + d)` that
    /// `kmin` clamps to 0 — the block's cast step `2^(emax − 30)` is
    /// within a few units of `tol` — and every plane is coded: then the
    /// error is the cast's truncation (under one step), the lift's
    /// roundtrip (at most `2^(d + 2)` steps) and the output's rounding to
    /// f32, which at most doubles them, so at most `2 (1 + 2^(d + 2))
    /// 2^(emax − 30)`. `tests/prop_zfp.rs` checks both over shapes and
    /// value classes.
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
    #[inline(always)]
    fn maxprec(&self, emax: i32) -> u32 {
        match self.planes {
            Planes::Count(p) => p,
            Planes::Tolerance(log2_tol) => {
                let kmin = log2_tol - emax + 30 - (self.d as i32 + 1);
                (INTPREC as i32 - kmin.clamp(0, INTPREC as i32)) as u32
            }
        }
    }
    /// One budget, `maxbits`, for every block, and every plane coded: a
    /// fixed rate's coding, whose groups run the [`Fixed`] bodies.
    #[inline(always)]
    pub fn fixed(&self) -> bool {
        self.fixed_rate && self.planes == Planes::Count(INTPREC)
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

/// Reads one bit plane of a 4-value block from the low `bits` bits of `x`
/// — all the budget has left — with `sig` coefficients significant, a bit
/// at a time by the coder's rules: the plane, the bits it spans
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

/// Blocks a group codes or reads side by side: [`EncodeLanes`]
/// and [`DecodeLanes`] run one block per lane.
pub const LANES: usize = 16;

/// Codes the 4-value blocks of `values` into `w`, [`LANES`] at a time
/// ([`encode_group`]), a short last block padded with its last value and
/// the last group with all-zero blocks, and reports each block's bit
/// length to `coded`. `None` when a block holds a NaN or an infinity; the
/// groups before it are written.
#[inline]
pub fn encode_line(
    values: &[f32],
    c: &BlockCoding,
    w: &mut BitWriter,
    mut coded: impl FnMut(u32),
) -> Option<()> {
    debug_assert!(c.d == 1 && c.maxbits > HEADER_BITS);
    let (mut rows, mut tail) = ([[0u64; LANES]; ROWS], w.tail());
    let (whole, rest) = values.as_chunks::<{ 4 * LANES }>();
    for values in whole {
        encode_group::<4>(std::slice::from_ref(values), LANES, c, &mut rows, &mut tail, &mut coded)?;
    }
    if !rest.is_empty() {
        let mut padded = [0.0f32; 4 * LANES];
        for (to, block) in padded.chunks_exact_mut(4).zip(rest.chunks(4)) {
            to.copy_from_slice(&pad4(block));
        }
        let blocks = rest.len().div_ceil(4);
        encode_group::<4>(std::slice::from_ref(&padded), blocks, c, &mut rows, &mut tail, coded)?;
    }
    Some(())
}

/// Codes a group of `N`-value blocks, `values` by x-row, through
/// [`EncodeLanes`] (`rows` its scratch), writes the first `blocks` codes
/// to `w` back to back — each padded to `maxbits` at a fixed rate — and
/// reports each one's bit length to `coded`. `None`, with nothing written,
/// when a lane holds a NaN or an infinity.
#[inline(always)]
pub fn encode_group<const N: usize>(
    values: &[LaneRun],
    blocks: usize,
    c: &BlockCoding,
    rows: &mut LaneRows,
    w: &mut WriterTail<'_>,
    mut coded: impl FnMut(u32),
) -> Option<()> {
    // The stream's mode picks the body.
    if c.fixed() {
        dispatch(EncodeLanes::<N, _> { values, lim: Fixed(c.maxbits), rows })?;
        // The rows hold each code and its padding as far as they reach;
        // past them is padding.
        let held = c.maxbits.min(64 * (ROWS as u32 - 1));
        (0..blocks).for_each(|l| write_code(rows, l, held, c.maxbits, w));
        (0..blocks).for_each(|_| coded(c.maxbits));
    } else {
        let lim = Variable::new(*c, [c.maxbits; LANES]);
        let lens = dispatch(EncodeLanes::<N, _> { values, lim, rows })?;
        for (l, &cur) in lens.iter().enumerate().take(blocks) {
            // The budget cuts a code that runs past it.
            let len = cur.min(c.maxbits);
            let span = if c.fixed_rate { c.maxbits } else { len };
            write_code(rows, l, len, span, w);
            coded(span);
        }
    }
    Some(())
}

/// Writes `held` bits of lane `l`'s code from `rows`, then zeros up to
/// `span`.
#[inline(always)]
fn write_code(rows: &LaneRows, l: usize, held: u32, span: u32, w: &mut WriterTail<'_>) {
    let whole = (held / 64) as usize;
    for row in &rows[..whole] {
        w.write_bits(row[l], 64);
    }
    w.write_bits(rows[whole][l], held % 64);
    w.write_zeros(span - held);
}

/// A block of one to four values, padded with its last.
#[inline]
fn pad4(block: &[f32]) -> [f32; 4] {
    let mut out = [block.last().copied().unwrap_or(0.0); 4];
    out[..block.len()].copy_from_slice(block);
    out
}

/// A group of [`LANES`] `N`-value blocks, coded side by side — one body
/// for [`cpu::widest`] per kind of [`Limits`], the mirror of
/// [`DecodeLanes`]: the cast, lift, reorder and negabinary across the
/// lanes, then 4-value blocks step through `PLANE4_ENCODE` and larger
/// ones' planes through `Cursor::put`. Returns each lane's code length,
/// which its budget cuts; `None`, with `rows` untouched, when any lane
/// holds a NaN or an infinity.
pub struct EncodeLanes<'a, const N: usize, L> {
    /// The group's values by x-row: `values[r]` holds values `4r..4r + 4`
    /// of every block; `N / 4` rows.
    pub values: &'a [LaneRun],
    /// The coding's budget — more than [`HEADER_BITS`] — and planes.
    pub lim: L,
    /// Each block's code, zero behind it; bits past the budget are not
    /// the block's.
    pub rows: &'a mut LaneRows,
}

impl<const N: usize, L: Limits> cpu::Kernel for EncodeLanes<'_, N, L> {
    type Output = Option<[u32; LANES]>;

    #[inline(always)]
    fn run(self) -> Self::Output {
        code_lanes::<N, true, L>(self.values, self.lim, self.rows)
    }

    #[inline(always)]
    fn run_baseline(self) -> Self::Output {
        code_lanes::<N, false, L>(self.values, self.lim, self.rows)
    }
}

/// What the lanes of a group may spend and which planes they code. A
/// coding's [`BlockCoding::fixed`] picks [`Fixed`], and [`Variable`]
/// otherwise: the stream's mode picks the instantiation of each body, so
/// that a fixed-rate one holds no per-lane arrays.
pub trait Limits: Copy {
    /// Lane `l`'s bit budget.
    fn budget(&self, l: usize) -> u32;
    /// The largest budget of any lane.
    fn widest(&self) -> u32;
    /// Each lane's lowest plane, the planes below it not coded,
    /// `emax[l]` its block's exponent.
    fn kmins(&self, emax: &[i32; LANES]) -> [u32; LANES];
}

/// `maxbits`, one budget for every lane, and every plane coded.
#[derive(Clone, Copy)]
pub struct Fixed(pub u32);

impl Limits for Fixed {
    #[inline(always)]
    fn budget(&self, _: usize) -> u32 {
        self.0
    }

    #[inline(always)]
    fn widest(&self) -> u32 {
        self.0
    }

    #[inline(always)]
    fn kmins(&self, _: &[i32; LANES]) -> [u32; LANES] {
        [0; LANES]
    }
}

/// Each lane's own budget, and the planes the coding keeps of its block.
#[derive(Clone, Copy)]
pub struct Variable {
    coding: BlockCoding,
    budgets: [u32; LANES],
}

impl Variable {
    /// Lane `l`'s budget is `budgets[l]`.
    #[inline(always)]
    pub fn new(coding: BlockCoding, budgets: [u32; LANES]) -> Self {
        Self { coding, budgets }
    }
}

impl Limits for Variable {
    #[inline(always)]
    fn budget(&self, l: usize) -> u32 {
        self.budgets[l]
    }

    #[inline(always)]
    fn widest(&self) -> u32 {
        self.budgets.iter().fold(0, |m, &b| m.max(b))
    }

    #[inline(always)]
    fn kmins(&self, emax: &[i32; LANES]) -> [u32; LANES] {
        emax.map(|e| INTPREC.saturating_sub(self.coding.maxprec(e)))
    }
}

/// The body of [`EncodeLanes`]. `LOCKSTEP` steps every lane at once until
/// none is live, for the vector widths; otherwise each lane runs to its
/// end, for the baseline, which would emulate the vector form lane by
/// lane.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the lane index is a column of several arrays
fn code_lanes<const N: usize, const LOCKSTEP: bool, L: Limits>(
    values: &[LaneRun],
    lim: L,
    rows: &mut LaneRows,
) -> Option<[u32; LANES]> {
    const INF: u32 = 0x7f80_0000;
    let maxbits = lim.widest();
    debug_assert!(maxbits > HEADER_BITS && matches!(N, 4 | 16 | 64) && values.len() == N / 4);
    let n = N as u32;
    // Value `i` of every lane, and each lane's largest magnitude.
    let (mut v, mut top) = ([[0u32; LANES]; N], [0u32; LANES]);
    for (r, run) in values.iter().enumerate().take(N / 4) {
        for l in 0..LANES {
            for dx in 0..4 {
                let bits = run[4 * l + dx].to_bits();
                v[(4 * r + dx) % N][l] = bits;
                top[l] = top[l].max(bits & 0x7fff_ffff);
            }
        }
    }
    if top.iter().fold(0, |m, &t| m.max(t)) >= INF {
        return None;
    }
    let mut emax = [0i32; LANES];
    for l in 0..LANES {
        emax[l] = if top[l] != 0 { exponent(f32::from_bits(top[l])).clamp(-127, 128) } else { 0 };
    }
    let kmin = lim.kmins(&emax);
    let mut q = [[0i32; LANES]; N];
    for (q, v) in q.iter_mut().zip(&v) {
        for l in 0..LANES {
            q[l] = fixed_point(f32::from_bits(v[l]), emax[l]);
        }
    }
    lift::xform_lanes(&mut q, true);
    // The coefficient of sequency rank `r` in row `r` of `lo` (0..32) or
    // `hi` (32..64), then a transpose: row `k` becomes plane `k`.
    let (mut lo, mut hi) = ([[0u32; LANES]; 32], [[0u32; LANES]; 32]);
    let mut any = [0u32; LANES];
    for (r, &p) in Sequency::<N>::PERM.iter().enumerate() {
        let u = if r < 32 { &mut lo[r % 32] } else { &mut hi[r % 32] };
        for l in 0..LANES {
            u[l] = lift::int2uint(q[p as usize % N][l]);
            any[l] |= u[l];
        }
    }
    // Each lane's code so far: the word at `cur`, filled below `cur % 64`.
    let (mut at, mut acc) = (Cursors::default(), [0u64; LANES]);
    for l in 0..LANES {
        // Planes above every coefficient's top bit: a failed test each.
        let nonzero = (top[l] != 0) as u32;
        let empty = any[l].leading_zeros().min(lim.budget(l) - HEADER_BITS).min(INTPREC - kmin[l]);
        acc[l] = (nonzero as u64) * (1 | ((emax[l] + 127) as u64) << 1);
        at.k[l] = nonzero * (INTPREC - empty);
        at.cur[l] = if nonzero != 0 { HEADER_BITS + empty } else { 1 };
    }
    let span = maxbits.min(64 * (ROWS as u32 - 1));
    rows[..span.div_ceil(64) as usize].fill([0; LANES]);
    if N == 4 {
        // A plane of lane `l` through `PLANE4_ENCODE`, a lane that is done
        // stepping through a done row of the table, which codes nothing;
        // 1 while the lane had a plane left. Coefficients 0 and 1 in the
        // halves of `pairs[0]`, 2 and 3 in `pairs[1]`'s, and the
        // significant ones, times 16. (Made a function, it leaves the
        // lanes scalar.)
        let (mut len, mut k, mut sig16) = (at.cur, at.k, [0u32; LANES]);
        let mut pairs = [[0u64; LANES]; 2];
        for l in 0..LANES {
            pairs[0][l] = lo[0][l] as u64 | (lo[1][l] as u64) << 32;
            pairs[1][l] = lo[2][l] as u64 | (lo[3][l] as u64) << 32;
        }
        macro_rules! plane4 {
            ($l:ident) => {{
                let live = lane_live(k[$l].wrapping_sub(kmin[$l]), len[$l], lim.budget($l));
                let kk = k[$l] - live;
                // Plane `kk` of two coefficients lands on bits 0 and 32.
                let pair = |x: u64| {
                    let x = x >> kk & 0x1_0000_0001;
                    (x | x >> 31) as u32 & 3
                };
                let row16 = sig16[$l] | ((live ^ 1) * DONE) << 4;
                let nibble = pair(pairs[0][$l]) | pair(pairs[1][$l]) << 2;
                let e = PLANE4_ENCODE[(row16 | nibble) as usize & 0x7f];
                let (code, s) = ((e & 0x7f) as u64, len[$l] & 63);
                let word = acc[$l] | code << s;
                if maxbits > 64 {
                    rows[(len[$l] >> 6).min(ROWS as u32 - 1) as usize][$l] = word;
                    acc[$l] = if s + (e >> 8 & 7) >= 64 { code >> 1 >> (63 - s) } else { word };
                } else {
                    acc[$l] = word;
                }
                len[$l] += e >> 8 & 7;
                sig16[$l] = e >> 8 & 0x70;
                k[$l] = kk;
                live
            }};
        }
        // At the baseline a code past one word runs a lane at a time to
        // its end; one-word codes are quicker in lockstep there too.
        if LOCKSTEP || maxbits <= 64 {
            loop {
                let mut any = 0;
                for l in 0..LANES {
                    any |= plane4!(l);
                }
                if any == 0 {
                    break;
                }
            }
        } else {
            for l in 0..LANES {
                while plane4!(l) != 0 {}
            }
        }
        at.cur = len;
    } else {
        // Planes 16..32 first, the rest only for a group in which some
        // lane's budget and planes reach below them: a block of a few
        // hundred bits codes a handful of planes.
        let mut planes = [[0u64; LANES]; INTPREC as usize];
        swap_rows::<16>(&mut lo, 0..32, true, 0x0000_FFFF);
        if N > 32 {
            swap_rows::<16>(&mut hi, 0..32, true, 0x0000_FFFF);
        }
        for floor in [16, 0] {
            let half = floor as usize..floor as usize + 16;
            // Each lane's lowest plane in this half.
            let stop: [u32; LANES] = std::array::from_fn(|l| kmin[l].max(floor));
            let open = |l: usize| lane_live(at.k[l].wrapping_sub(stop[l]), at.cur[l], lim.budget(l));
            if (0..LANES).all(|l| open(l) == 0) {
                continue;
            }
            transpose_half(&mut lo, half.clone());
            if N > 32 {
                transpose_half(&mut hi, half.clone());
            }
            for k in half {
                for l in 0..LANES {
                    planes[k][l] = lo[k][l] as u64 | (hi[k][l] as u64) << 32;
                }
            }
            // One `Cursor::put` of lane `l`, its code written into the lane's
            // rows at `cur`, `$acc` being its word there; a code of one word
            // stays in `$acc`. (Made a function, it leaves the lanes scalar.)
            macro_rules! put {
                ($c:ident, $l:ident, $acc:expr) => {{
                    let (j, s) = (($c.cur >> 6).min(ROWS as u32 - 1) as usize, $c.cur & 63);
                    let plane = planes[($c.k.wrapping_sub(1) & 31) as usize][$l];
                    let (c, code, len) = $c.put(plane, n, lim.budget($l), stop[$l]);
                    let word = $acc | code << s;
                    if maxbits > 64 {
                        rows[j][$l] = word;
                        // A code that fills the word leaves its rest for the next.
                        $acc = if s + len >= 64 { code >> 1 >> (63 - s) } else { word };
                    } else {
                        $acc = word;
                    }
                    c
                }};
            }
            if LOCKSTEP {
                let mut live = 1;
                while live != 0 {
                    live = 0;
                    for l in 0..LANES {
                        let c = at.get(l);
                        let c = put!(c, l, acc[l]);
                        live |= c.live(lim.budget(l), stop[l]);
                        at.set(l, c);
                    }
                }
            } else {
                // A lane at a time to its end: its state stays in registers.
                for l in 0..LANES {
                    let (mut c, mut word) = (at.get(l), acc[l]);
                    while c.live(lim.budget(l), stop[l]) != 0 {
                        c = put!(c, l, word);
                    }
                    acc[l] = word;
                    at.set(l, c);
                }
            }
        }
    }
    for l in 0..LANES {
        // A one-word code the budget cut may run past it.
        let j = if maxbits > 64 { (at.cur[l] >> 6).min(ROWS as u32 - 1) } else { 0 };
        rows[j as usize][l] = acc[l] & u64::MAX >> (64 - maxbits.min(64));
    }
    Some(at.cur)
}

/// Words of a lane's code: all a 64-value block can read, whatever its
/// budget (the header; per plane a failed test and a verbatim bit per
/// significant coefficient; per coefficient a passed test and its run),
/// and one more, so that a lane's 64-bit window is two loads anywhere.
pub const ROWS: usize = (HEADER_BITS + INTPREC * 65 + 2 * 64).div_ceil(64) as usize + 1;

/// The codes of a group of [`LANES`] blocks: `rows[j][l]` is
/// bits `64j..64j + 64` of lane `l`'s block, zero past its budget.
pub type LaneRows = [[u64; LANES]; ROWS];

/// One x-row of every block of a group, lane `l`'s four values at `4l`:
/// where the blocks follow one another along x, one run of the array.
pub type LaneRun = [f32; 4 * LANES];

/// A run of blocks, read [`LANES`] at a time, each lane from its own
/// start bit under its own budget: block `i` is the `maxbits` bits at `i *
/// maxbits` at a fixed rate, and otherwise its stored span, behind the
/// spans of the blocks before it.
pub struct Lanes<'a> {
    data: &'a [u8],
    /// The next block's first bit in `data`.
    at: usize,
    coding: BlockCoding,
    /// The stored spans of the blocks not yet read, a little-endian `u32`
    /// each; empty at a fixed rate.
    table: &'a [u8],
    /// The next block's index in the stream.
    next: usize,
    /// Each lane's budget: `maxbits` at a fixed rate.
    spans: [u32; LANES],
    /// Rows the last group filled.
    filled: usize,
    rows: LaneRows,
}

impl<'a> Lanes<'a> {
    /// The blocks `blocks` of a stream, the first at `r`, `table` their
    /// stored spans (empty at a fixed rate); [`Error::Corrupt`] when the
    /// stream ends before their last bit.
    pub fn new(
        r: &BitReader<'a>,
        c: &BlockCoding,
        blocks: Range<usize>,
        table: &'a [u8],
    ) -> Result<Self> {
        debug_assert!(c.fixed_rate || table.len() == 4 * blocks.len());
        let bits = if c.fixed_rate {
            blocks.len() as u64 * c.maxbits as u64
        } else {
            table.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64).sum()
        };
        if r.remaining_bits() < bits {
            return Err(Error::corrupt("bit stream exhausted"));
        }
        let (data, at) = r.position();
        let rows = [[0; LANES]; ROWS];
        let (next, spans) = (blocks.start, [c.maxbits; LANES]);
        Ok(Self { data, at, coding: *c, table, next, spans, filled: 0, rows })
    }

    /// Decodes the next `blocks` (at most [`LANES`]) `N`-value blocks into
    /// `out` through [`DecodeLanes`]; the lanes past them are all-zero
    /// blocks. A variable-length block must read exactly its stored span:
    /// the first that does not, in block order, is [`Error::Corrupt`].
    #[inline]
    pub fn group<const N: usize>(&mut self, blocks: usize, out: &mut [LaneRun]) -> Result<()> {
        let coding = &self.coding;
        if coding.fixed_rate {
            let maxbits = coding.maxbits as usize;
            // A lane takes what its block can read; the rows past stay zero.
            let span = coding.maxbits.min(64 * (ROWS as u32 - 1));
            let words = span.div_ceil(64) as usize;
            for j in 0..words {
                let mask = u64::MAX >> 64u32.saturating_sub(span - 64 * j as u32);
                for l in 0..LANES {
                    let at = self.at + l * maxbits + 64 * j;
                    self.rows[j][l] = if l < blocks { word_at(self.data, at) & mask } else { 0 };
                }
            }
            self.at += blocks * maxbits;
            if coding.fixed() {
                dispatch(DecodeLanes::<N, _> { rows: &self.rows, lim: Fixed(coding.maxbits), out });
            } else {
                dispatch(DecodeLanes::<N, _> { rows: &self.rows, lim: Variable::new(*coding, self.spans), out });
            }
            return Ok(());
        }
        let (table, rest) = self.table.split_at(4 * blocks);
        let (mut starts, mut words) = ([0usize; LANES], 0);
        for (l, b) in table.chunks_exact(4).enumerate() {
            self.spans[l] = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            starts[l] = self.at;
            self.at += self.spans[l] as usize;
            words = words.max(self.spans[l].min(64 * (ROWS as u32 - 1)).div_ceil(64) as usize);
        }
        self.spans[blocks..].fill(0);
        for j in 0..words.max(self.filled) {
            for (l, &start) in starts.iter().enumerate() {
                let left = self.spans[l].saturating_sub(64 * j as u32);
                let mask = u64::MAX >> ((64 - left.min(64)) % 64);
                self.rows[j][l] = if left > 0 { word_at(self.data, start + 64 * j) & mask } else { 0 };
            }
        }
        self.filled = words;
        let lim = Variable::new(*coding, self.spans);
        let used = dispatch(DecodeLanes::<N, _> { rows: &self.rows, lim, out });
        if let Some(l) = (0..blocks).find(|&l| used[l] != self.spans[l]) {
            return Err(Error::corrupt(format!(
                "block {} consumed {} bits, expected {}",
                self.next + l,
                used[l],
                self.spans[l]
            )));
        }
        (self.table, self.next) = (rest, self.next + blocks);
        Ok(())
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

/// Decodes the run of 1-D blocks `lanes` holds into `out`, whose length
/// may cut the last block: [`LANES`] at a time, straight into `out`, the
/// last group padded with all-zero blocks.
#[inline]
pub fn decode_line(lanes: &mut Lanes<'_>, out: &mut [f32]) -> Result<()> {
    debug_assert!(lanes.coding.d == 1);
    let (whole, rest) = out.as_chunks_mut::<{ 4 * LANES }>();
    for out in whole {
        lanes.group::<4>(LANES, std::slice::from_mut(out))?;
    }
    if !rest.is_empty() {
        let mut padded = [0.0f32; 4 * LANES];
        lanes.group::<4>(rest.len().div_ceil(4), std::slice::from_mut(&mut padded))?;
        rest.copy_from_slice(&padded[..rest.len()]);
    }
    Ok(())
}

/// A group of [`LANES`] `N`-value blocks, read side by side — one body for
/// [`cpu::widest`] per kind of [`Limits`]. Nothing in a step branches on
/// a lane, and no lane reads past its own budget.
///
/// 4-value blocks step through [`PLANE4_STEP`], a plane a step. Any other
/// block steps a group test at a time ([`Cursor::step`]), then its planes
/// are transposed into coefficients, and negabinary, reorder, inverse
/// transform and cast run across the lanes. Returns the bits each lane
/// read: one of an all-zero block, else its header, empty planes and
/// planes — at most its budget, unless the budget is shorter than the
/// header.
pub struct DecodeLanes<'a, const N: usize, L> {
    /// Each block's code, zero past its budget.
    pub rows: &'a LaneRows,
    /// The coding's budgets — each lane's stored span in the
    /// variable-length modes — and planes.
    pub lim: L,
    /// The group's values by x-row: `out[r]` holds values `4r..4r + 4`
    /// of every block; `N / 4` rows.
    pub out: &'a mut [LaneRun],
}

impl<const N: usize, L: Limits> cpu::Kernel for DecodeLanes<'_, N, L> {
    type Output = [u32; LANES];

    #[inline(always)]
    fn run(self) -> [u32; LANES] {
        read_lanes::<N, true, L>(self.rows, self.lim, self.out)
    }

    #[inline(always)]
    fn run_baseline(self) -> [u32; LANES] {
        read_lanes::<N, false, L>(self.rows, self.lim, self.out)
    }
}

/// The planes of lanes of 4-value blocks through [`PLANE4_STEP`], lane
/// `l`'s code in `rows[..][l]` — one word unless `WIDE` — and `at` where
/// its header and empty planes leave it, its planes down to `kmin[l]`:
/// coefficient `i` of lane `l` in `[i][l]`, and `at.cur` behind each
/// code. `LOCKSTEP` as in [`read_lanes`], for codes past one word.
#[inline(always)]
fn read_words4<const WIDE: bool, const LOCKSTEP: bool, L: Limits>(
    rows: &LaneRows,
    at: &mut Cursors,
    kmin: &[u32; LANES],
    lim: L,
) -> [[i32; LANES]; 4] {
    // Each lane's unread bits of a one-word code, the bits it has read,
    // the planes it has left and its significant coefficients.
    let (mut win, mut used, mut k, mut sig) = ([0u64; LANES], at.cur, at.k, [0u32; LANES]);
    for l in 0..LANES {
        win[l] = rows[0][l] >> (used[l] & 63);
    }
    // Coefficients 0 and 1 in the halves of `lo`, 2 and 3 in `hi`'s.
    let (mut lo, mut hi) = ([0u64; LANES], [0u64; LANES]);
    // A plane of lane `l`, or nothing once it is done; 1 while it had one
    // left. (Made a function, it leaves the lanes scalar.)
    macro_rules! plane4 {
        ($l:ident) => {{
            let budget = lim.budget($l);
            let live = lane_live(k[$l].wrapping_sub(kmin[$l]), used[$l], budget);
            // Bits past the budget are zero, so only the marker `1 << r`
            // tells the table where the budget ends.
            let r = budget.wrapping_sub(used[$l]).min(7);
            let row = sig[$l] | ((live ^ 1) * DONE);
            let w = if WIDE { window(rows, $l, used[$l]) } else { win[$l] };
            let e = PLANE4_STEP[(row << 8 | w as u32 & 0x7f | 1 << r) as usize & 0x7ff];
            let kk = k[$l] - live;
            let x = (e >> 6 & 15) as u64;
            lo[$l] |= (x & 1 | (x & 2) << 31) << kk;
            hi[$l] |= (x >> 2 & 1 | (x & 8) << 29) << kk;
            win[$l] >>= e & 63;
            used[$l] += e & 63;
            sig[$l] = e >> 10;
            k[$l] = kk;
            live
        }};
    }
    if LOCKSTEP || !WIDE {
        loop {
            let mut any = 0;
            for l in 0..LANES {
                any |= plane4!(l);
            }
            if any == 0 {
                break;
            }
        }
    } else {
        for l in 0..LANES {
            while plane4!(l) != 0 {}
        }
    }
    at.cur = used;
    let mut q = [[0i32; LANES]; 4];
    for l in 0..LANES {
        let u = [lo[l] as u32, (lo[l] >> 32) as u32, hi[l] as u32, (hi[l] >> 32) as u32];
        for (q, u) in q.iter_mut().zip(u) {
            q[l] = lift::uint2int(u);
        }
    }
    q
}

/// One lane of [`read_lanes`] or `code_lanes`: its next bit, its plane,
/// the coefficients significant before it, the next one to test, 1 while
/// the plane has tests left, and the plane's bits (read so far, or all).
#[derive(Clone, Copy)]
#[rustfmt::skip]
struct Cursor { cur: u32, k: u32, sig: u32, pos: u32, open: u32, x: u64 }

impl Cursor {
    /// 1 while the lane has an open plane, or a plane above `floor` and
    /// budget left.
    #[inline(always)]
    fn live(&self, maxbits: u32, floor: u32) -> u32 {
        self.open | lane_live(self.k.wrapping_sub(floor), self.cur, maxbits)
    }

    /// Takes the decoder's next actions from `w`, the 64 bits at `cur`:
    /// opens the next plane above `floor` if none is open and the budget
    /// is not spent, reading the significant
    /// coefficients' bits verbatim, then, if the plane is open, one group
    /// test — a one, then a run that ends behind a one, at the last
    /// coefficient (whose one is implied) or with the budget. The verbatim
    /// bits are at most `pos` and the test and its run at most `n - pos`,
    /// so both fit the window. A lane that is done steps in place.
    #[inline(always)]
    fn step(self, w: u64, n: u32, maxbits: u32, floor: u32) -> Self {
        let Cursor { cur, k, sig, pos, open, x } = self;
        let start = (open ^ 1) & lane_live(k.wrapping_sub(floor), cur, maxbits);
        let m = if start != 0 { sig.min(maxbits - cur) } else { 0 };
        let verbatim =
            w & ((1u64 << (m & 63)).wrapping_sub(1) | 0u64.wrapping_sub((m >> 6) as u64));
        let (x, pos, cur) = if start != 0 { (verbatim, sig, cur + m) } else { (x, pos, cur) };
        let open = open | start & (pos < n) as u32 & (cur < maxbits) as u32;
        let w = w >> (m & 63);
        let passed = open & (w as u32 & 1);
        let limit = (n - 1).wrapping_sub(pos).min(maxbits.wrapping_sub(cur).wrapping_sub(1)) & 63;
        let run = w >> 1 & ((1u64 << limit) - 1);
        let zeros = (run | 1 << limit).trailing_zeros();
        let read = zeros + (zeros < limit) as u32;
        let cur = cur + if passed != 0 { 1 + read } else { open };
        let x = x | (passed as u64) << (pos.wrapping_add(zeros) & 63);
        let pos = if passed != 0 { pos + zeros + 1 } else { pos };
        let next = passed & (pos < n) as u32 & (cur < maxbits) as u32;
        // A plane that closes leaves its coefficients significant.
        let closes = (start | open) & (next ^ 1);
        let sig = if closes != 0 { pos } else { sig };
        Cursor { cur, k: k - start, sig, pos, open: next, x }
    }

    /// The encoder's mirror of [`Cursor::step`]: the coder's next
    /// actions on `plane`, the one below the last opened (`x` while open),
    /// and the bits they write and how many. No plane at or below `floor`
    /// is opened, nor any past the budget, which cuts nothing else: a code
    /// cut after `maxbits` bits is the budgeted one (the prefix property).
    #[inline(always)]
    fn put(self, plane: u64, n: u32, maxbits: u32, floor: u32) -> (Self, u64, u32) {
        let Cursor { cur, k, sig, pos, open, x } = self;
        let start = (open ^ 1) & lane_live(k.wrapping_sub(floor), cur, maxbits);
        let (m, x, pos) = if start != 0 { (sig, plane, sig) } else { (0, x, pos) };
        let verbatim =
            x & ((1u64 << (m & 63)).wrapping_sub(1) | 0u64.wrapping_sub((m >> 6) as u64));
        let open = open | start & (pos < n) as u32;
        let rest = x >> (pos & 63);
        let passed = open & (rest != 0) as u32;
        let limit = (n - 1).wrapping_sub(pos) & 63;
        let zeros = (rest | 1 << limit).trailing_zeros();
        let ended = passed & (zeros < limit) as u32;
        let len = m + if passed != 0 { 1 + zeros + ended } else { open };
        let test = passed as u64 | (ended as u64) << ((zeros + 1) & 63);
        let pos = if passed != 0 { pos + zeros + 1 } else { pos };
        let cur = cur + len;
        let next = passed & (pos < n) as u32 & (cur < maxbits) as u32;
        // A plane that closes leaves its coefficients significant.
        let closes = (start | open) & (next ^ 1);
        let sig = if closes != 0 { pos } else { sig };
        (Cursor { cur, k: k - start, sig, pos, open: next, x }, verbatim | test << (m & 63), len)
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
fn transpose32<const R: usize>(a: &mut [[u32; LANES]; 32]) {
    swap_rows::<16>(a, 0..R.max(16), 16 < R, 0x0000_FFFF);
    swap_rows::<8>(a, 0..R.max(8), 8 < R, 0x00FF_00FF);
    swap_rows::<4>(a, 0..R.max(4), 4 < R, 0x0F0F_0F0F);
    swap_rows::<2>(a, 0..R.max(2), 2 < R, 0x3333_3333);
    swap_rows::<1>(a, 0..R, 1 < R, 0x5555_5555);
}

/// The last four rounds of [`transpose32`] on rows `half` (0..16 or
/// 16..32) alone, after its first round: they do not mix the halves.
#[inline(always)]
fn transpose_half(a: &mut [[u32; LANES]; 32], half: Range<usize>) {
    swap_rows::<8>(a, half.clone(), true, 0x00FF_00FF);
    swap_rows::<4>(a, half.clone(), true, 0x0F0F_0F0F);
    swap_rows::<2>(a, half.clone(), true, 0x3333_3333);
    swap_rows::<1>(a, half, true, 0x5555_5555);
}

/// One round of delta swaps at distance `J`: the pairs of rows `(k, k +
/// J)` with `k` in `rows`, the second row written back only if `both`.
#[inline(always)]
fn swap_rows<const J: usize>(
    a: &mut [[u32; LANES]; 32],
    rows: Range<usize>,
    both: bool,
    mask: u32,
) {
    for k in rows.filter(|k| k & J == 0) {
        // Both rows in hand: the compiler need not prove them apart.
        let (mut x, mut y) = (a[k % 32], a[(k + J) % 32]);
        for l in 0..LANES {
            let t = (x[l] >> J ^ y[l]) & mask;
            x[l] ^= t << J;
            y[l] ^= t;
        }
        a[k % 32] = x;
        if both {
            a[(k + J) % 32] = y;
        }
    }
}

/// The body of [`DecodeLanes`]. `LOCKSTEP` steps every lane at once until
/// none is live, for the vector widths; otherwise the lanes run to their
/// ends two at a time, for the baseline, which would emulate the vector
/// form lane by lane.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // the lane index is a column of several arrays
fn read_lanes<const N: usize, const LOCKSTEP: bool, L: Limits>(
    rows: &LaneRows,
    lim: L,
    out: &mut [LaneRun],
) -> [u32; LANES] {
    debug_assert!(matches!(N, 4 | 16 | 64) && out.len() == N / 4);
    let n = N as u32;
    let (mut at, mut any) = (Cursors::default(), 0);
    let emax: [i32; LANES] = std::array::from_fn(|l| (rows[0][l] >> 1 & 0xff) as i32 - 127);
    let kmin = lim.kmins(&emax);
    for l in 0..LANES {
        let (w, budget) = (rows[0][l], lim.budget(l));
        // Planes above every coefficient's top bit: a failed test each.
        let empty = (w >> HEADER_BITS | 1 << INTPREC).trailing_zeros();
        let empty = empty.min(budget.saturating_sub(HEADER_BITS)).min(INTPREC - kmin[l]);
        // An all-zero block has no plane to read, and reads its flag.
        let flag = (w & 1) as u32;
        at.k[l] = flag * (INTPREC - empty);
        at.cur[l] = if flag != 0 { HEADER_BITS + empty } else { 1 };
        any |= lane_live(at.k[l].wrapping_sub(kmin[l]), at.cur[l], budget);
    }
    let mut q = [[0i32; LANES]; N];
    if N == 4 && lim.widest() <= 64 {
        q[..4].copy_from_slice(&read_words4::<false, LOCKSTEP, L>(rows, &mut at, &kmin, lim));
    } else if N == 4 {
        q[..4].copy_from_slice(&read_words4::<true, LOCKSTEP, L>(rows, &mut at, &kmin, lim));
    } else {
        // Plane `k` of lane `l`, as far as it has been read. The step loop
        // writes it at the lane's own `k`; were it also read at fixed rows,
        // LLVM would leave the loop scalar, so the transpose works on a copy.
        let mut planes = [[0u64; LANES]; INTPREC as usize];
        if LOCKSTEP {
            while any != 0 {
                any = 0;
                for l in 0..LANES {
                    let (c, budget) = (at.get(l), lim.budget(l));
                    let c = c.step(window(rows, l, c.cur), n, budget, kmin[l]);
                    planes[(c.k & 31) as usize][l] = c.x;
                    any |= c.live(budget, kmin[l]);
                    at.set(l, c);
                }
            }
        } else {
            // Two chains of loads and shifts, each running while the other
            // waits.
            for (a, b) in (0..LANES / 2).map(|l| (l, l + LANES / 2)) {
                let (mut ca, mut cb) = (at.get(a), at.get(b));
                let (ba, bb) = (lim.budget(a), lim.budget(b));
                while ca.live(ba, kmin[a]) | cb.live(bb, kmin[b]) != 0 {
                    ca = ca.step(window(rows, a, ca.cur), n, ba, kmin[a]);
                    cb = cb.step(window(rows, b, cb.cur), n, bb, kmin[b]);
                    planes[(ca.k & 31) as usize][a] = ca.x;
                    planes[(cb.k & 31) as usize][b] = cb.x;
                }
                at.set(a, ca);
                at.set(b, cb);
            }
        }
        // Bit `r` of plane `k` is bit `k` of the coefficient of rank `r`,
        // block value `PERM[r]`: 0..32 in `lo`, 32..64 in `hi`. No lane
        // holds a plane below the lowest `k` any lane stopped at.
        let low = at.k.iter().fold(INTPREC, |m, &k| m.min(k)) as usize;
        let (mut lo, mut hi) = ([[0u32; LANES]; 32], [[0u32; LANES]; 32]);
        for k in low..INTPREC as usize {
            for l in 0..LANES {
                (lo[k][l], hi[k][l]) = (planes[k][l] as u32, (planes[k][l] >> 32) as u32);
            }
        }
        if N > 32 {
            transpose32::<32>(&mut lo);
            transpose32::<32>(&mut hi);
        } else {
            transpose32::<N>(&mut lo);
        }
        for (r, &p) in Sequency::<N>::PERM.iter().enumerate() {
            let u = if r < 32 { &lo[r % 32] } else { &hi[r % 32] };
            for l in 0..LANES {
                q[p as usize % N][l] = lift::uint2int(u[l]);
            }
        }
    }
    lift::xform_lanes(&mut q, false);
    let scale = emax.map(|e| f64_pow2(e - 30));
    for (r, run) in out.iter_mut().enumerate().take(N / 4) {
        for l in 0..LANES {
            for dx in 0..4 {
                run[4 * l + dx] = (q[(4 * r + dx) % N][l] as f64 * scale[l]) as f32;
            }
        }
    }
    at.cur
}

/// 1 while a lane has a plane left (`k > 0`, or above its lowest when
/// called with `k - kmin`) and budget to code it in (`used < maxbits`),
/// else 0 — from the sign bits, not by comparing, so
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

    /// `values` coded under `c` in lane 0 of a group whose other lanes are
    /// all-zero blocks: lane 0's code length and the group's rows.
    fn code<const N: usize>(values: &[f32; N], c: &BlockCoding) -> Option<(u32, LaneRows)> {
        let runs: Vec<LaneRun> = (0..N / 4)
            .map(|r| std::array::from_fn(|i| if i < 4 { values[4 * r + i] } else { 0.0 }))
            .collect();
        let mut rows = [[0; LANES]; ROWS];
        let lens = if c.fixed() {
            dispatch(EncodeLanes::<N, _> { values: &runs, lim: Fixed(c.maxbits), rows: &mut rows })
        } else {
            let lim = Variable::new(*c, [c.maxbits; LANES]);
            dispatch(EncodeLanes::<N, _> { values: &runs, lim, rows: &mut rows })
        }?;
        Some((lens[0].min(c.maxbits), rows))
    }

    /// Lane 0's code in `rows` read under `budget`: the bits read and the
    /// values.
    fn read<const N: usize>(rows: &LaneRows, c: &BlockCoding, budget: u32) -> (u32, [f32; N]) {
        let mut mine = [[0; LANES]; ROWS];
        for (j, row) in mine.iter_mut().enumerate().take(budget.div_ceil(64) as usize) {
            row[0] = rows[j][0] & u64::MAX >> 64u32.saturating_sub(budget - 64 * j as u32);
        }
        let (mut out, mut spans) = (vec![[f32::NAN; 4 * LANES]; N / 4], [0; LANES]);
        spans[0] = budget;
        let used = if c.fixed() {
            dispatch(DecodeLanes::<N, _> { rows: &mine, lim: Fixed(budget), out: &mut out })
        } else {
            dispatch(DecodeLanes::<N, _> { rows: &mine, lim: Variable::new(*c, spans), out: &mut out })
        };
        (used[0], std::array::from_fn(|i| out[i / 4][i % 4]))
    }

    fn roundtrip<const N: usize>(values: &[f32; N], maxbits: u32) -> [f32; N] {
        let c = rate_coding(N.ilog(4) as u8, maxbits);
        let (len, rows) = code(values, &c).unwrap();
        assert!(len <= maxbits);
        read(&rows, &c, maxbits).1
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

    fn noise(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    /// The lanes' plane fetch — the encoder's first round and then both
    /// halves — and deposit — the decoder's full transpose — against the
    /// shift-and-or loop per plane, for sparse, dense and full-range
    /// coefficients in every lane, as far as each block size reads.
    #[test]
    fn plane_fetch_and_deposit_equal_the_naive_loops() {
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for round in 0..100 {
            let u: [[u32; LANES]; 32] = std::array::from_fn(|_| {
                std::array::from_fn(|_| match round % 3 {
                    0 => noise(&mut seed) as u32,
                    1 => (noise(&mut seed) & noise(&mut seed) & noise(&mut seed)) as u32,
                    _ => (noise(&mut seed) as u32) >> (noise(&mut seed) % 32),
                })
            });
            let plane = |k: usize, l: usize| (0..32).fold(0, |x, i| x | (u[i][l] >> k & 1) << i);
            let mut fetch = u;
            swap_rows::<16>(&mut fetch, 0..32, true, 0x0000_FFFF);
            transpose_half(&mut fetch, 16..32);
            transpose_half(&mut fetch, 0..16);
            for (k, row) in fetch.iter().enumerate() {
                for (l, &x) in row.iter().enumerate() {
                    assert_eq!(x, plane(k, l), "plane {k} of lane {l}");
                }
            }
            let mut deposit = fetch;
            transpose32::<32>(&mut deposit);
            assert_eq!(deposit, u);
            // A 16-value block's coefficients are rows 0..16 of the result.
            let mut deposit = fetch;
            transpose32::<16>(&mut deposit);
            assert_eq!(deposit[..16], u[..16]);
        }
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
        let (used_full, _) = code(&v, &planes_coding(3, INTPREC)).unwrap();
        let low = planes_coding(3, 8);
        let (used_low, rows) = code(&v, &low).unwrap();
        assert!(used_low < used_full);
        let (used, out) = read::<64>(&rows, &low, used_low);
        assert_eq!(used, used_low);
        // 8 planes on |v| < 2^7: quantization steps of 2^(7-8+1) = 1,
        // amplified by up to ~2^3 through the 3-D inverse transform.
        for (a, b) in v.iter().zip(&out) {
            assert!((a - b).abs() < 32.0, "{a} vs {b}");
        }
    }

    #[test]
    fn variable_length_blocks_chain() {
        // Without padding, consecutive blocks must decode back-to-back,
        // each lane from behind the spans of the lanes before it.
        let blocks: Vec<[f32; 64]> = (0..5)
            .map(|b| std::array::from_fn(|i| ((b * 64 + i) as f32 * 0.11).cos() * 50.0))
            .collect();
        let c = planes_coding(3, 16);
        let runs: Vec<LaneRun> = (0..16)
            .map(|r| std::array::from_fn(|i| blocks.get(i / 4).map_or(0.0, |b| b[4 * r + i % 4])))
            .collect();
        let (mut w, mut rows, mut lens) = (BitWriter::new(), [[0; LANES]; ROWS], Vec::new());
        encode_group::<64>(&runs, 5, &c, &mut rows, &mut w.tail(), |len| lens.push(len)).unwrap();
        assert_eq!(w.bit_len(), lens.iter().map(|&l| l as u64).sum::<u64>());
        let bytes = w.into_bytes();
        let table: Vec<u8> = lens.iter().flat_map(|l| l.to_le_bytes()).collect();
        let mut lanes = Lanes::new(&BitReader::new(&bytes), &c, 0..5, &table).unwrap();
        let mut out = vec![[0.0f32; 4 * LANES]; 16];
        lanes.group::<64>(5, &mut out).unwrap();
        for (l, b) in blocks.iter().enumerate() {
            // 16 planes on |v| <= 64 leaves quantization steps of a few
            // times 2^(emax-16) ~ 0.004, amplified by the 3-D transform.
            for (i, a) in b.iter().enumerate() {
                let o = out[i / 4][4 * l + i % 4];
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
                assert!(code(&v, &rate_coding(3, 64 * 8)).is_none(), "{bad} at {at}");
                let runs = [[1.0f32; 4 * LANES]; 16].map(|mut run| {
                    run[at % 4] = v[at];
                    run
                });
                let (mut w, mut rows) = (BitWriter::new(), [[0; LANES]; ROWS]);
                w.write_bits(0b101, 3);
                let c = planes_coding(3, 20);
                assert_eq!(encode_group::<64>(&runs, 3, &c, &mut rows, &mut w.tail(), |_| ()), None);
                assert_eq!(w.bit_len(), 3, "{bad} at {at}");
            }
        }
        // The largest finite magnitudes are still data.
        let v = [f32::MAX, f32::MIN, f32::MIN_POSITIVE, -0.0];
        assert!(roundtrip(&v, 9 + 4 * 33 + 16).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn a_stored_length_shorter_than_the_header_is_corrupt() {
        let c = planes_coding(1, INTPREC);
        let (len, rows) = code(&[3.0f32; 4], &c).unwrap();
        let bytes: Vec<u8> = rows.iter().flat_map(|row| row[0].to_le_bytes()).collect();
        for span in 1..HEADER_BITS {
            let table = span.to_le_bytes();
            let mut lanes = Lanes::new(&BitReader::new(&bytes), &c, 0..1, &table).unwrap();
            let err = lanes.group::<4>(1, &mut [[0.0; 4 * LANES]]).unwrap_err();
            let want = format!("block 0 consumed {HEADER_BITS} bits, expected {span}");
            assert!(matches!(&err, Error::Corrupt(m) if *m == want), "{err}");
        }
        let table = len.to_le_bytes();
        let mut lanes = Lanes::new(&BitReader::new(&bytes), &c, 0..1, &table).unwrap();
        lanes.group::<4>(1, &mut [[0.0; 4 * LANES]]).unwrap();
    }
}
