//! The block coder this crate had before the word-at-a-time kernel, kept
//! verbatim as the reference: one `write_bit` / fallible `read_bit` per
//! group test, a shift-and-or loop over all coefficients per plane, libm
//! per block for the tolerance. Only the names of its parameter types
//! changed, and the body of its plane loop became a function of its own
//! in each direction ([`code_plane`], [`read_plane`]) so that the 4-value
//! tables can be checked against it entry by entry. It knows nothing of
//! `lossy_zfp::codec` beyond `block_cells` and the lifting steps. Shared
//! by `equivalence.rs` and `fuzz_stream.rs`.
#![allow(dead_code)]

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::{Error, Result};
use lossy_zfp::codec::{block_cells, HEADER_BITS, INTPREC};
use lossy_zfp::{lift, ZfpMode};
use std::sync::OnceLock;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Planes {
    Count(u32),
    Tolerance(f64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coding {
    pub d: u8,
    pub maxbits: u32,
    pub fixed_rate: bool,
    pub planes: Planes,
}

impl Coding {
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

    fn maxprec(&self, emax: i32) -> u32 {
        match self.planes {
            Planes::Count(p) => p,
            Planes::Tolerance(tol) => maxprec_from_emax(emax, tol, self.d),
        }
    }

    /// The same coding for the kernel under test.
    pub fn kernel(&self) -> lossy_zfp::codec::BlockCoding {
        use lossy_zfp::codec::Planes as P;
        let planes = match self.planes {
            Planes::Count(p) => P::Count(p),
            Planes::Tolerance(tol) => P::tolerance(tol),
        };
        let Coding { d, maxbits, fixed_rate, .. } = *self;
        lossy_zfp::codec::BlockCoding { d, maxbits, fixed_rate, planes }
    }
}

pub mod old_lift {
    use super::lift::{fwd_lift, inv_lift};

    /// The per-line lift the crate had before its lanes: one line of a
    /// `4^d` block stored x-fastest at a time, along the axis `stride`
    /// selects (1 = x, 4 = y, 16 = z).
    pub fn lift_axis(data: &mut [i32], stride: usize, forward: bool) {
        let n = data.len();
        debug_assert!(matches!(n, 4 | 16 | 64));
        let lines = n / 4;
        for line in 0..lines {
            // Map line id to the base offset for this stride.
            let base = match stride {
                1 => line * 4,
                4 => (line / 4) * 16 + (line % 4),
                16 => line,
                _ => unreachable!("stride must be 1, 4, or 16"),
            };
            let mut g =
                [data[base], data[base + stride], data[base + 2 * stride], data[base + 3 * stride]];
            if forward {
                fwd_lift(&mut g);
            } else {
                inv_lift(&mut g);
            }
            data[base] = g[0];
            data[base + stride] = g[1];
            data[base + 2 * stride] = g[2];
            data[base + 3 * stride] = g[3];
        }
    }

    pub fn fwd_xform(data: &mut [i32], d: u8) {
        lift_axis(data, 1, true);
        if d >= 2 {
            lift_axis(data, 4, true);
        }
        if d >= 3 {
            lift_axis(data, 16, true);
        }
    }

    pub fn inv_xform(data: &mut [i32], d: u8) {
        if d >= 3 {
            lift_axis(data, 16, false);
        }
        if d >= 2 {
            lift_axis(data, 4, false);
        }
        lift_axis(data, 1, false);
    }
}

/// Sequency permutation: `perm[d][rank] = block-local index`.
pub fn perm(d: u8) -> &'static [u16] {
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
pub fn exponent(x: f32) -> i32 {
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
pub fn f64_pow2(e: i32) -> f64 {
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

/// Encodes one block of `4^d` f32 values into `w`, a bit at a time.
///
/// Returns the number of bits written (always exactly `c.maxbits` at a
/// fixed rate), or `None` — with `w` untouched — when the block holds a
/// NaN or an infinity: the cast to a common exponent has no defined
/// result for them, so the caller turns that into a typed error.
pub fn encode_block(values: &[f32], c: &Coding, w: &mut BitWriter) -> Option<u32> {
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
    old_lift::fwd_xform(&mut q[..n], c.d);

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
        code_plane(w, x, n, &mut sig, &mut bits);
    }
    Some(pad(w))
}

/// Codes plane `x` of an `n`-value block of which `sig` coefficients are
/// known significant, within `bits` bits; updates both.
pub fn code_plane(w: &mut BitWriter, mut x: u64, n: usize, sig: &mut usize, bits: &mut u32) {
    // Verbatim bits for known-significant coefficients.
    let m = (*sig as u32).min(*bits);
    *bits -= m;
    w.write_bits(x, m);
    x = if m >= 64 { 0 } else { x >> m };
    // Unary group tests for the rest.
    while *sig < n && *bits > 0 {
        *bits -= 1;
        let any = x != 0;
        w.write_bit(any);
        if !any {
            break;
        }
        while *sig < n - 1 && *bits > 0 {
            *bits -= 1;
            let b = x & 1 != 0;
            w.write_bit(b);
            if b {
                break;
            }
            x >>= 1;
            *sig += 1;
        }
        x >>= 1;
        *sig += 1;
    }
}

/// Reads one plane of an `n`-value block of which `sig` coefficients are
/// known significant, from at most `bits` bits; updates both.
pub fn read_plane(r: &mut BitReader<'_>, n: usize, sig: &mut usize, bits: &mut u32) -> Result<u64> {
    let m = (*sig as u32).min(*bits);
    *bits -= m;
    let mut x = r.read_bits(m)?;
    let mut pos = *sig; // next untested coefficient
    while pos < n && *bits > 0 {
        *bits -= 1;
        if !r.read_bit()? {
            break;
        }
        while pos < n - 1 && *bits > 0 {
            *bits -= 1;
            if r.read_bit()? {
                break;
            }
            pos += 1;
        }
        x |= 1u64 << pos;
        pos += 1;
    }
    *sig = (*sig).max(pos);
    Ok(x)
}

/// Decodes one block a bit at a time; the mirror of [`encode_block`].
///
/// `budget` is the block's bit span: `c.maxbits` at a fixed rate, where
/// exactly that many bits are consumed, and the stored length otherwise,
/// which the block may not exceed. Returns the bits consumed.
pub fn decode_block(
    r: &mut BitReader<'_>,
    c: &Coding,
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
        let before = bits;
        let x = read_plane(r, n, &mut sig, &mut bits)?;
        used += before - bits;
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
    old_lift::inv_xform(&mut q[..n], c.d);
    let scale = f64_pow2(emax - 30);
    for (o, &qi) in out.iter_mut().zip(&q[..n]) {
        *o = (qi as f64 * scale) as f32;
    }

    finish(r, used)
}
