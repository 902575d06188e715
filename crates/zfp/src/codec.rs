//! Per-block ZFP codec: fixed-point cast, sequency reorder, and the
//! embedded bit-plane coder.
//!
//! A block is `4^d` values (d = 1, 2, 3). Encoding steps:
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

use crate::config::ZfpMode;
use crate::lift;
use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::{Error, Result};
use std::sync::OnceLock;

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
    /// Per block, enough that the absolute error stays below the
    /// tolerance; derived from the block's exponent on both sides.
    Tolerance(f64),
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
            ZfpMode::FixedAccuracy(tol) => (cap, false, Planes::Tolerance(tol)),
        };
        Self { d, maxbits, fixed_rate, planes }
    }

    /// Planes kept by a block whose exponent is `emax`.
    fn maxprec(&self, emax: i32) -> u32 {
        match self.planes {
            Planes::Count(p) => p,
            Planes::Tolerance(tol) => maxprec_from_emax(emax, tol, self.d),
        }
    }
}

/// Sequency permutation: `perm[d][rank] = block-local index`.
fn perm(d: u8) -> &'static [u16] {
    static P1: OnceLock<Vec<u16>> = OnceLock::new();
    static P2: OnceLock<Vec<u16>> = OnceLock::new();
    static P3: OnceLock<Vec<u16>> = OnceLock::new();
    let build = |d: u8| -> Vec<u16> {
        let n = block_cells(d);
        let mut idx: Vec<u16> = (0..n as u16).collect();
        let degree = |i: u16| -> (u16, u16) {
            let i = i as usize;
            let (x, y, z) = (i % 4, (i / 4) % 4, i / 16);
            ((x + y + z) as u16, i as u16)
        };
        idx.sort_by_key(|&i| degree(i));
        idx
    };
    match d {
        1 => P1.get_or_init(|| build(1)),
        2 => P2.get_or_init(|| build(2)),
        _ => P3.get_or_init(|| build(3)),
    }
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

/// Number of bit planes to keep so truncation error stays below `tol`.
///
/// Truncating negabinary planes below `kmin` perturbs a coefficient by at
/// most `2^(kmin+1)` integer units; the inverse transform amplifies by at
/// most `2^d`, and an integer unit is worth `2^(emax-30)`. Solving
/// `2^(kmin+1+d+emax-30) <= tol` for `kmin` gives the plane cut-off.
fn maxprec_from_emax(emax: i32, tol: f64, d: u8) -> u32 {
    if tol <= 0.0 || tol.is_nan() || tol.is_infinite() {
        return INTPREC;
    }
    let kmin = (tol.log2().floor() as i32) - emax + 30 - (d as i32 + 1);
    let kmin = kmin.clamp(0, INTPREC as i32);
    (INTPREC as i32 - kmin) as u32
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

/// Appends `n` zero bits.
fn write_zeros(w: &mut BitWriter, mut n: u32) {
    while n > 0 {
        let chunk = n.min(64);
        w.write_bits(0, chunk);
        n -= chunk;
    }
}

/// Skips `n` bits.
fn skip_bits(r: &mut BitReader<'_>, mut n: u32) -> Result<()> {
    while n > 0 {
        let chunk = n.min(56);
        r.consume(chunk)?;
        n -= chunk;
    }
    Ok(())
}

/// Encodes one block of `4^d` f32 values into `w`.
///
/// Returns the number of bits written (always exactly `c.maxbits` at a
/// fixed rate), or `None` — with `w` untouched — when the block holds a
/// NaN or an infinity: the cast to a common exponent has no defined
/// result for them, so the caller turns that into a typed error.
pub fn encode_block(values: &[f32], c: &BlockCoding, w: &mut BitWriter) -> Option<u32> {
    let n = block_cells(c.d);
    debug_assert_eq!(values.len(), n);
    debug_assert!(c.maxbits >= HEADER_BITS);
    let start = w.bit_len();
    let pad = |w: &mut BitWriter| {
        let used = (w.bit_len() - start) as u32;
        if c.fixed_rate {
            write_zeros(w, c.maxbits - used);
            c.maxbits
        } else {
            used
        }
    };

    let vmax = finite_max(values)?;
    if vmax == 0.0 {
        w.write_bit(false); // all-zero block
        return Some(pad(w));
    }
    // emax in [-127, 128] stored with bias 127 -> [0, 255] in 8 bits.
    let emax = exponent(vmax).clamp(-127, 128);
    w.write_bit(true);
    w.write_bits((emax + 127) as u64, 8);

    // Fixed-point cast with |q| < 2^30, in f64 so the scale never
    // overflows even for denormal-dominated blocks.
    let scale = f64_pow2(30 - emax);
    let mut q = [0i32; 64];
    for (qi, &v) in q[..n].iter_mut().zip(values) {
        *qi =
            (v as f64 * scale).clamp(-(1i64 << 30) as f64 + 1.0, (1i64 << 30) as f64 - 1.0) as i32;
    }
    lift::fwd_xform(&mut q[..n], c.d);

    // Reorder + negabinary.
    let p = perm(c.d);
    let mut u = [0u32; 64];
    let mut any = 0u32;
    for i in 0..n {
        u[i] = lift::int2uint(q[p[i] as usize]);
        any |= u[i];
    }

    // Embedded coding.
    let mut bits = c.maxbits - HEADER_BITS;
    let kmin = INTPREC.saturating_sub(c.maxprec(emax));
    let mut sig = 0usize; // number of coefficients known significant
    let mut k = INTPREC;
    // A plane above every coefficient's top bit has nothing significant
    // to send verbatim and fails its first group test: one zero bit.
    let empty = any.leading_zeros().min(k - kmin).min(bits);
    w.write_bits(0, empty);
    bits -= empty;
    k -= empty;
    while bits > 0 && k > kmin {
        k -= 1;
        // Gather plane k into an n-bit word.
        let mut x = 0u64;
        for (i, &ui) in u[..n].iter().enumerate() {
            x |= (((ui >> k) & 1) as u64) << i;
        }
        // Verbatim bits for known-significant coefficients.
        let m = (sig as u32).min(bits);
        bits -= m;
        w.write_bits(x, m);
        x = if m >= 64 { 0 } else { x >> m };
        // Unary group tests for the rest.
        while sig < n && bits > 0 {
            bits -= 1;
            let any = x != 0;
            w.write_bit(any);
            if !any {
                break;
            }
            while sig < n - 1 && bits > 0 {
                bits -= 1;
                let b = x & 1 != 0;
                w.write_bit(b);
                if b {
                    break;
                }
                x >>= 1;
                sig += 1;
            }
            x >>= 1;
            sig += 1;
        }
    }
    Some(pad(w))
}

/// Decodes one block; the mirror of [`encode_block`].
///
/// `budget` is the block's bit span: `c.maxbits` at a fixed rate, where
/// exactly that many bits are consumed, and the stored length otherwise,
/// which the block may not exceed. Returns the bits consumed.
pub fn decode_block(
    r: &mut BitReader<'_>,
    c: &BlockCoding,
    budget: u32,
    out: &mut [f32],
) -> Result<u32> {
    let n = block_cells(c.d);
    debug_assert_eq!(out.len(), n);
    // A fixed-rate block always spans its whole budget.
    let finish = |r: &mut BitReader<'_>, used: u32| -> Result<u32> {
        if c.fixed_rate {
            skip_bits(r, budget - used)?;
            Ok(budget)
        } else {
            Ok(used)
        }
    };
    let mut used = 1u32;
    if !r.read_bit()? {
        out.fill(0.0);
        return finish(r, used);
    }
    let mut bits = budget
        .checked_sub(HEADER_BITS)
        .ok_or_else(|| Error::corrupt("block shorter than its header"))?;
    let emax = r.read_bits(8)? as i32 - 127;
    used += 8;

    let mut u = [0u32; 64];
    let kmin = INTPREC.saturating_sub(c.maxprec(emax));
    let mut sig = 0usize;
    let mut k = INTPREC;
    while bits > 0 && k > kmin {
        k -= 1;
        let m = (sig as u32).min(bits);
        bits -= m;
        let mut x = r.read_bits(m)?;
        used += m;
        let mut pos = sig; // next untested coefficient
        while pos < n && bits > 0 {
            bits -= 1;
            used += 1;
            if !r.read_bit()? {
                break;
            }
            while pos < n - 1 && bits > 0 {
                bits -= 1;
                used += 1;
                if r.read_bit()? {
                    break;
                }
                pos += 1;
            }
            x |= 1u64 << pos;
            pos += 1;
        }
        sig = sig.max(pos);
        // Deposit the plane.
        let mut i = 0;
        let mut xx = x;
        while xx != 0 {
            u[i] |= ((xx & 1) as u32) << k;
            xx >>= 1;
            i += 1;
        }
    }

    // Undo negabinary + reorder + transform + cast.
    let p = perm(c.d);
    let mut q = [0i32; 64];
    for i in 0..n {
        q[p[i] as usize] = lift::uint2int(u[i]);
    }
    lift::inv_xform(&mut q[..n], c.d);
    let scale = f64_pow2(emax - 30);
    for (o, &qi) in out.iter_mut().zip(&q[..n]) {
        *o = (qi as f64 * scale) as f32;
    }

    finish(r, used)
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

    fn roundtrip(values: &[f32], d: u8, maxbits: u32) -> Vec<f32> {
        let c = rate_coding(d, maxbits);
        let mut w = BitWriter::new();
        let used = encode_block(values, &c, &mut w).unwrap();
        assert_eq!(used, maxbits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0.0f32; values.len()];
        let consumed = decode_block(&mut r, &c, maxbits, &mut out).unwrap();
        assert_eq!(consumed, maxbits);
        out
    }

    #[test]
    fn perm_is_a_permutation_sorted_by_degree() {
        for d in 1..=3u8 {
            let p = perm(d);
            let n = block_cells(d);
            assert_eq!(p.len(), n);
            let mut seen = vec![false; n];
            let mut last_deg = 0;
            for &i in p {
                assert!(!seen[i as usize]);
                seen[i as usize] = true;
                let i = i as usize;
                let deg = i % 4 + (i / 4) % 4 + i / 16;
                assert!(deg >= last_deg, "degree must be non-decreasing");
                last_deg = deg;
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
        let v = vec![0.0f32; 64];
        let out = roundtrip(&v, 3, 64);
        assert_eq!(out, v);
    }

    #[test]
    fn generous_budget_is_near_lossless() {
        let v: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.37).sin() * 100.0).collect();
        // 32 planes * 64 values + header is a loose upper bound.
        let out = roundtrip(&v, 3, 9 + 64 * 33 + 64);
        for (a, b) in v.iter().zip(&out) {
            let tol = a.abs().max(1.0) * 1e-6;
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn error_decreases_with_rate() {
        let v: Vec<f32> = (0..64)
            .map(|i| {
                let (x, y, z) = ((i % 4) as f32, ((i / 4) % 4) as f32, (i / 16) as f32);
                (x * 0.5 + y * 0.3 + z * 0.2).sin() * 1000.0
            })
            .collect();
        let mut prev_err = f64::INFINITY;
        for rate in [2u32, 4, 8, 16] {
            let out = roundtrip(&v, 3, rate * 64);
            let err: f64 = v.iter().zip(&out).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>();
            assert!(err <= prev_err * 1.5, "rate {rate}: err {err} vs prev {prev_err}");
            prev_err = err;
        }
        assert!(prev_err < 1.0, "high rate should be accurate, got {prev_err}");
    }

    #[test]
    fn d1_and_d2_blocks() {
        let v4: Vec<f32> = vec![1.0, -2.0, 3.5, 10.0];
        let out = roundtrip(&v4, 1, 9 + 4 * 33 + 16);
        for (a, b) in v4.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        let v16: Vec<f32> = (0..16).map(|i| i as f32 * 2.0 - 16.0).collect();
        let out = roundtrip(&v16, 2, 9 + 16 * 33 + 32);
        for (a, b) in v16.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn tiny_budget_still_produces_plausible_block() {
        // 16 bits for 64 values: only the DC scale survives, but decode
        // must not error and magnitudes must stay in the data's ballpark.
        let v = vec![100.0f32; 64];
        let out = roundtrip(&v, 3, 16);
        for &b in &out {
            assert!(b.abs() <= 256.0, "decoded {b} from constant-100 block");
        }
    }

    #[test]
    fn maxprec_truncates_planes() {
        let v: Vec<f32> = (0..64).map(|i| (i as f32).sqrt() * 10.0).collect();
        let mut w = BitWriter::new();
        let used_full = encode_block(&v, &planes_coding(3, INTPREC), &mut w).unwrap();
        let low = planes_coding(3, 8);
        let mut w2 = BitWriter::new();
        let used_low = encode_block(&v, &low, &mut w2).unwrap();
        assert!(used_low < used_full);
        let bytes = w2.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = vec![0.0f32; 64];
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
        let blocks: Vec<Vec<f32>> = (0..5)
            .map(|b| (0..64).map(|i| ((b * 64 + i) as f32 * 0.11).cos() * 50.0).collect())
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
            let mut out = vec![0.0f32; 64];
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
                let mut v = vec![1.0f32; 64];
                v[at] = bad;
                let mut w = BitWriter::new();
                w.write_bits(0b101, 3);
                assert_eq!(encode_block(&v, &rate_coding(3, 64 * 8), &mut w), None);
                assert_eq!(w.bit_len(), 3, "{bad} at {at}");
            }
        }
        // The largest finite magnitudes are still data.
        let v = vec![f32::MAX, f32::MIN, f32::MIN_POSITIVE, -0.0];
        assert!(roundtrip(&v, 1, 9 + 4 * 33 + 16).iter().all(|x| x.is_finite()));
    }

    #[test]
    fn a_stored_length_shorter_than_the_header_is_corrupt() {
        let v = vec![3.0f32; 4];
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
