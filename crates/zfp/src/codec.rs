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
//! One kernel serves 16- and 64-value blocks, monomorphised over `N`. It
//! works a word at a time (DESIGN.md §17.6): a plane is an `N`-bit word
//! taken from an 8×8 bit-matrix transpose of the coefficients' bytes, a
//! group test and the unary run behind it are one write — or one peek and
//! one `trailing_zeros` — and the bit stream's tail word is held by value.
//! A 4-value block has too few bits to a plane for that to pay: its plane
//! step is a table lookup (§17.7).

use crate::config::ZfpMode;
use crate::lift;
use foresight_util::bits::{BitReader, BitWriter, WriterTail};
use foresight_util::{Error, Result};

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

/// `PLANE4_STEP[sig][1 << r | x]`: the plane read from the `r <= 7` bits
/// `x` — bits spanned in bits 0..6, the plane in 6..10, `sig` behind it
/// from 10. Seven bits hold the longest code (four passed tests, a one
/// behind three of them), so `r = 7` serves any larger budget; entry 1
/// (`r = 0`) reads nothing.
pub static PLANE4_STEP: [[u16; 256]; 5] = PLANE4.0;
/// `PLANE4_ENCODE[sig][nibble]`: the plane's code in bits 0..7, its length
/// in 8..11, `sig` behind it from 12. A block coded with no budget and cut
/// after `bits` bits *is* the budgeted code, so nothing else decides it.
pub static PLANE4_ENCODE: [[u16; 16]; 5] = PLANE4.1;

const PLANE4: ([[u16; 256]; 5], [[u16; 16]; 5]) = {
    let (mut step, mut code) = ([[0u16; 256]; 5], [[0u16; 16]; 5]);
    let mut i = 0;
    while i < 5 * 256 {
        let (row, key) = (i / 256, i as u32 % 256);
        i += 1;
        if key == 0 {
            continue; // every key carries its `1 << r`
        }
        let r = 31 - key.leading_zeros();
        let x = key ^ (1 << r);
        let (nibble, len, sig) = read_plane4(x, row as u32, r);
        step[row][key as usize] = (len | nibble << 6 | sig << 10) as u16;
        if r == 7 {
            let bits = x & ((1 << len) - 1);
            code[row][nibble as usize] = (bits | len << 8 | sig << 12) as u16;
        }
    }
    (step, code)
};

/// Blocks of a line whose cast, lift and negabinary run in one plain loop
/// ahead of the bit coding, clear of the coder's data-dependent exits.
const LINE_GROUP: usize = 16;

/// [`encode_block`] for a run of 1-D blocks: codes `values` four at a time
/// into `w`, a short last block padded with its last value, and reports
/// each block's bit length to `coded`. `None` when a block holds a NaN or
/// an infinity; its group of [`LINE_GROUP`] blocks is then not written.
#[inline]
pub fn encode_line(
    values: &[f32],
    c: &BlockCoding,
    w: &mut BitWriter,
    mut coded: impl FnMut(u32),
) -> Option<()> {
    debug_assert!(c.d == 1 && c.maxbits >= HEADER_BITS);
    let (whole, rest) = values.split_at(values.len() / 4 * 4);
    let mut tail = w.tail();
    for group in whole.chunks(4 * LINE_GROUP) {
        let mut staged = [(None, [0u32; 4]); LINE_GROUP];
        for (slot, block) in staged.iter_mut().zip(group.chunks_exact(4)) {
            let vmax = finite_max(block)?;
            let emax = (vmax != 0.0).then(|| exponent(vmax).clamp(-127, 128));
            let scale = f64_pow2(30 - emax.unwrap_or(0));
            let mut q: [i32; 4] = std::array::from_fn(|i| (block[i] as f64 * scale) as i32);
            lift::fwd_lift(&mut q);
            *slot = (emax, q.map(lift::int2uint));
        }
        for (emax, u) in &staged[..group.len() / 4] {
            coded(encode_planes4(u, *emax, c, &mut tail));
        }
    }
    drop(tail);
    let Some(&last) = rest.last() else { return Some(()) };
    let mut block = [last; 4];
    block[..rest.len()].copy_from_slice(rest);
    encode_line(&block, c, w, coded)
}

/// Codes a 4-value block (`emax` is `None` when it is all zero) from its
/// negabinary coefficients: a table step per plane into a local word that
/// is written when it fills, so a fixed-rate block of at most 64 bits,
/// padding included, is one write. Returns the bits written.
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
            let e = PLANE4_ENCODE[sig][(bit(0) | bit(1) | bit(2) | bit(3)) as usize] as u64;
            acc |= (e & 0x7f) << len;
            len += (e >> 8 & 7) as u32;
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
    /// left, and no branch either way: two blocks step side by side.
    #[inline(always)]
    fn step(&mut self) {
        let live = self.live();
        let r = if live { (self.budget - self.used).min(7) } else { 0 };
        let e = PLANE4_STEP[self.sig][self.win as usize & ((1 << r) - 1) | 1 << r] as u64;
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

/// [`decode_block`] for a run of fixed-rate 1-D blocks of at most 64 bits
/// that holds `out`, whose length may cut the last block. Block `i` is
/// the `maxbits` bits at `i * maxbits`: blocks are taken a word each and
/// stepped two at a time, because the steps of one block are a chain of
/// dependent loads. Leaves `r` behind the last block.
#[inline]
pub fn decode_line(r: &mut BitReader<'_>, c: &BlockCoding, out: &mut [f32]) -> Result<()> {
    debug_assert!(c.d == 1 && c.fixed_rate && c.maxbits <= 64);
    if r.remaining_bits() < out.len().div_ceil(4) as u64 * c.maxbits as u64 {
        return Err(Error::corrupt("bit stream exhausted"));
    }
    let mut blocks = out.chunks_mut(4);
    while let Some(block) = blocks.next() {
        let pair = blocks.next();
        let mut a = Planes4::open(r.take_bits(c.maxbits), c, c.maxbits);
        let word = if pair.is_some() { r.take_bits(c.maxbits) } else { 0 };
        let mut b = Planes4::open(word, c, c.maxbits);
        while a.live() | b.live() {
            a.step();
            b.step();
        }
        a.rebuild(block);
        if let Some(block) = pair {
            b.rebuild(block);
        }
    }
    Ok(())
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
        let mut used = 0;
        encode_line(values, c, w, |bits| used = bits)?;
        return Some(used);
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

    // Fixed-point cast with |q| < 2^30, in f64 so the scale never
    // overflows even for denormal-dominated blocks. The bound needs no
    // clamp: |v| <= vmax < 2^emax, the product with a power of two is
    // exact, and the cast truncates toward zero.
    let scale = f64_pow2(30 - emax);
    let mut q = [0i32; N];
    for (qi, &v) in q.iter_mut().zip(values) {
        *qi = (v as f64 * scale) as i32;
    }
    lift::fwd_xform(&mut q);

    // Reorder + negabinary, stored by byte row.
    let mut fetch = PlaneRows::<N>::new();
    let mut any = 0u32;
    for (i, &p) in Sequency::<N>::PERM.iter().enumerate() {
        let u = lift::int2uint(q[p as usize % N]);
        any |= u;
        for (row, b) in fetch.coeffs.bytes.iter_mut().zip(u.to_le_bytes()) {
            row[i] = b;
        }
    }

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
        Some((emax, coeffs)) => reconstruct(emax, &coeffs, out),
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

/// Undoes negabinary, reorder, transform and cast.
#[inline]
fn reconstruct<const N: usize>(emax: i32, coeffs: &Coefficients<N>, out: &mut [f32; N]) {
    let [b0, b1, b2, b3] = &coeffs.bytes;
    let mut q = [0i32; N];
    for (i, &p) in Sequency::<N>::PERM.iter().enumerate() {
        q[p as usize % N] = lift::uint2int(u32::from_le_bytes([b0[i], b1[i], b2[i], b3[i]]));
    }
    lift::inv_xform(&mut q);
    let scale = f64_pow2(emax - 30);
    for (o, &qi) in out.iter_mut().zip(&q) {
        *o = (qi as f64 * scale) as f32;
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
