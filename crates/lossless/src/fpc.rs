//! FPC: fast lossless compression of floating-point streams
//! (Burtscher & Ratanaworabhan, IEEE TC 2008).
//!
//! Two table-based predictors race for every value: FCM (finite context
//! method — hash of recent values) and DFCM (the same over deltas). The
//! better prediction is XORed with the true bits; the result's leading
//! zero bytes are counted and only a small header plus the non-zero tail
//! is stored. Smooth data predicts well and collapses to a few bytes per
//! value; random mantissas degrade gracefully toward 1:1.
//!
//! This implementation works on `f32` streams (the datasets' type), with
//! a 4-bit header per value: 1 bit predictor selector + 3 bits leading-
//! zero-byte count (0..=4; 4 means the prediction was exact and no tail
//! bytes follow).

use foresight_util::{ByteReader, Error, Result};

const TABLE_BITS: u32 = 16;
const TABLE_SIZE: usize = 1 << TABLE_BITS;

struct Predictors {
    fcm: Vec<u32>,
    dfcm: Vec<u32>,
    fcm_hash: usize,
    dfcm_hash: usize,
    last: u32,
}

impl Predictors {
    fn new() -> Self {
        Self {
            fcm: vec![0; TABLE_SIZE],
            dfcm: vec![0; TABLE_SIZE],
            fcm_hash: 0,
            dfcm_hash: 0,
            last: 0,
        }
    }

    /// Returns the two predictions for the next value.
    #[inline]
    fn predict(&self) -> (u32, u32) {
        (self.fcm[self.fcm_hash], self.dfcm[self.dfcm_hash].wrapping_add(self.last))
    }

    /// Folds the true value into both predictor tables.
    #[inline]
    fn update(&mut self, actual: u32) {
        self.fcm[self.fcm_hash] = actual;
        self.fcm_hash = (((self.fcm_hash << 6) ^ (actual >> 16) as usize) & (TABLE_SIZE - 1))
            .min(TABLE_SIZE - 1);
        let delta = actual.wrapping_sub(self.last);
        self.dfcm[self.dfcm_hash] = delta;
        self.dfcm_hash = (((self.dfcm_hash << 2) ^ (delta >> 12) as usize) & (TABLE_SIZE - 1))
            .min(TABLE_SIZE - 1);
        self.last = actual;
    }
}

#[inline]
fn leading_zero_bytes(x: u32) -> u32 {
    x.leading_zeros() / 8 // 0..=4; 4 means a perfect prediction
}

/// Compresses an `f32` slice losslessly.
///
/// Stream layout: `u64` count, then for each pair of values a header byte
/// (two 4-bit codes), then all residual tails in order.
pub fn fpc_compress(data: &[f32]) -> Vec<u8> {
    let mut p = Predictors::new();
    let mut headers = Vec::with_capacity(data.len().div_ceil(2));
    // lint: allow(alloc-arith) — encoder-side: a size hint from an in-memory slice, not header data
    let mut tails: Vec<u8> = Vec::with_capacity(data.len() * 3);
    let mut half = 0u8;
    for (i, &v) in data.iter().enumerate() {
        let bits = v.to_bits();
        let (f, d) = p.predict();
        let (sel, resid) = {
            let xf = bits ^ f;
            let xd = bits ^ d;
            if leading_zero_bytes(xf) >= leading_zero_bytes(xd) {
                (0u8, xf)
            } else {
                (1u8, xd)
            }
        };
        let lzb = leading_zero_bytes(resid);
        let nbytes = 4 - lzb as usize;
        let code = (sel << 3) | (lzb as u8 & 0b111);
        if i % 2 == 0 {
            half = code;
        } else {
            headers.push(half << 4 | code);
        }
        // Little-endian tail of the residual's low `nbytes` bytes.
        let le = resid.to_le_bytes();
        tails.extend_from_slice(&le[..nbytes]);
        p.update(bits);
    }
    if data.len() % 2 == 1 {
        headers.push(half << 4);
    }
    // lint: allow(alloc-arith) — encoder-side: the exact size of buffers already in memory
    let mut out = Vec::with_capacity(8 + headers.len() + tails.len());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&headers);
    out.extend_from_slice(&tails);
    out
}

/// Decompresses a stream produced by [`fpc_compress`]; bit-exact.
pub fn fpc_decompress(stream: &[u8]) -> Result<Vec<f32>> {
    let mut r = ByteReader::new(stream);
    // Two 4-bit header codes per byte: the header table bounds the value
    // count by the stream's own length.
    let max_values = (stream.len() as u64).saturating_sub(8).saturating_mul(2);
    let n = r.u64_le_capped(max_values, "fpc value count")?;
    let headers = r.take(n.div_ceil(2))?;
    let mut p = Predictors::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let byte = headers[i / 2];
        let code = if i % 2 == 0 { byte >> 4 } else { byte & 0x0f };
        let sel = (code >> 3) & 1;
        let lzb = (code & 0b111) as usize;
        if lzb > 4 {
            return Err(Error::corrupt("fpc header code out of range"));
        }
        let nbytes = 4 - lzb;
        let mut le = [0u8; 4];
        le[..nbytes].copy_from_slice(r.take(nbytes)?);
        let resid = u32::from_le_bytes(le);
        let (f, d) = p.predict();
        let bits = resid ^ if sel == 0 { f } else { d };
        out.push(f32::from_bits(bits));
        p.update(bits);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32]) -> usize {
        let c = fpc_compress(data);
        let d = fpc_decompress(&c).unwrap();
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exactness violated");
        }
        c.len()
    }

    #[test]
    fn empty_and_small() {
        roundtrip(&[]);
        roundtrip(&[1.0]);
        roundtrip(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn special_values_survive() {
        roundtrip(&[0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE]);
    }

    #[test]
    fn constant_stream_compresses_hard() {
        let data = vec![std::f32::consts::PI; 10_000];
        let clen = roundtrip(&data);
        // Header (~0.5 B/value) only; tails vanish after warm-up.
        assert!(clen < data.len(), "clen={clen}");
    }

    #[test]
    fn smooth_stream_beats_raw() {
        let data: Vec<f32> = (0..50_000).map(|i| i as f32).collect();
        let clen = roundtrip(&data);
        assert!(clen < data.len() * 4, "clen={clen}");
    }

    #[test]
    fn random_mantissas_give_paper_like_low_ratio() {
        // The paper's §II-A point: dense scientific data with noisy
        // mantissas stays under ~2:1.
        let mut x = 0x2545F491u32;
        let data: Vec<f32> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                // Confined exponent range but random mantissa bits.
                f32::from_bits(0x3F00_0000 | (x & 0x007F_FFFF))
            })
            .collect();
        let clen = roundtrip(&data);
        let ratio = (data.len() * 4) as f64 / clen as f64;
        assert!(ratio < 2.0, "ratio {ratio} should be < 2 on noisy mantissas");
        assert!(ratio > 1.0, "ratio {ratio} should still save something");
    }

    #[test]
    fn corrupt_streams_error() {
        assert!(fpc_decompress(&[]).is_err());
        assert!(fpc_decompress(&[0; 4]).is_err());
        let c = fpc_compress(&[1.0, 2.0, 3.0, 4.0]);
        assert!(fpc_decompress(&c[..c.len() - 1]).is_err());
        let mut huge = Vec::new();
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(fpc_decompress(&huge).is_err());
    }
}
