//! fpzip-flavoured lossless codec: Lorenzo prediction in a monotonic
//! integer domain plus entropy-coded residual magnitudes.
//!
//! fpzip (Lindstrom & Isenburg 2006) predicts each value with a Lorenzo
//! stencil, maps the float and its prediction to sign-magnitude-ordered
//! integers, and entropy-codes the difference. This implementation keeps
//! that structure with simpler coding: the residual's group (leading-zero
//! count class) goes through a canonical Huffman code built per stream
//! and the remaining significant bits are written raw. Exact roundtrip.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::{ByteReader, Dims, Error, Result};
use lossy_sz::huffman::{histogram, Codebook};

/// Maps a float to an integer that preserves numeric order (the classic
/// bijective total-order trick: flip all bits of negatives, flip only the
/// sign bit of non-negatives). -0.0 and +0.0 map to adjacent distinct
/// keys, so the roundtrip is bit-exact for every input including NaNs.
#[inline]
fn f32_to_ordered(v: f32) -> i64 {
    let b = v.to_bits();
    let key = if b >> 31 == 1 { !b } else { b ^ 0x8000_0000 };
    key as i64
}

/// Inverse of [`f32_to_ordered`]; `x` must be in `[0, 2^32)`.
#[inline]
fn ordered_to_f32(x: i64) -> f32 {
    let key = x as u32;
    let b = if key >> 31 == 1 { key ^ 0x8000_0000 } else { !key };
    f32::from_bits(b)
}

/// Zig-zag mapping of a signed residual to unsigned.
#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// Lorenzo prediction over the ordered-integer domain.
fn predict(vals: &[i64], [nx, ny, _]: [usize; 3], x: usize, y: usize, z: usize) -> i64 {
    let at = |dx: usize, dy: usize, dz: usize| -> i64 {
        if x < dx || y < dy || z < dz {
            0
        } else {
            vals[(x - dx) + nx * ((y - dy) + ny * (z - dz))]
        }
    };
    at(1, 0, 0) + at(0, 1, 0) + at(0, 0, 1) - at(1, 1, 0) - at(1, 0, 1) - at(0, 1, 1)
        + at(1, 1, 1)
}

/// Compresses a float grid losslessly.
pub fn fpz_compress(data: &[f32], dims: Dims) -> Result<Vec<u8>> {
    dims.check_len(data.len())?;
    let ext = dims.extents();
    // Pass 1: residuals (as zig-zag magnitudes) and their bit-length class.
    let mut ordered = vec![0i64; data.len()];
    let mut resid = vec![0u64; data.len()];
    let mut classes = vec![0u32; data.len()];
    let mut idx = 0;
    for z in 0..ext[2] {
        for y in 0..ext[1] {
            for x in 0..ext[0] {
                let v = f32_to_ordered(data[idx]);
                let p = predict(&ordered, ext, x, y, z);
                ordered[idx] = v;
                let r = zigzag(v - p);
                resid[idx] = r;
                classes[idx] = 64 - r.leading_zeros(); // 0..=64 significant bits
                idx += 1;
            }
        }
    }
    // Entropy-code the class, then raw low bits (class-1 bits; the top
    // significant bit is implied by the class).
    let book = Codebook::from_frequencies(&histogram(&classes))?;
    let encoder = book.encoder();
    // lint: allow(alloc-arith) — encoder-side: a size hint from an in-memory slice, not header data
    let mut w = BitWriter::with_capacity(data.len() * 2);
    for i in 0..data.len() {
        encoder.encode(classes[i], &mut w)?;
        let c = classes[i];
        if c > 1 {
            w.write_bits(resid[i], c - 1);
        }
    }
    let payload = w.into_bytes();
    // lint: allow(alloc-arith) — encoder-side: the size of a payload already in memory
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(b"FPZL");
    for e in ext {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    book.serialize(&mut out);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decompresses a stream produced by [`fpz_compress`]; bit-exact. The
/// stream records three extents and no dimensionality, so the shape comes
/// back as its 3-D form (`D1(n)` as `D3(n, 1, 1)`).
pub fn fpz_decompress(stream: &[u8]) -> Result<(Vec<f32>, Dims)> {
    let mut r = ByteReader::new(stream);
    r.expect_magic(b"FPZL", "an FPZL stream")?;
    let mut extent = || -> Result<usize> {
        usize::try_from(r.u64_le()?).map_err(|_| Error::corrupt("fpz extent overflows usize"))
    };
    let ext = [extent()?, extent()?, extent()?];
    let dims = Dims::D3(ext[0], ext[1], ext[2]);
    let n = dims
        .checked_len()
        .filter(|&n| n <= 1 << 33)
        .ok_or_else(|| Error::corrupt("implausible dimensions"))?;
    let tail = r.take(r.remaining())?;
    let (book, used) = Codebook::deserialize(tail)?;
    let payload = tail.get(used..).ok_or_else(|| Error::corrupt("fpz codebook overruns the stream"))?;
    // Huffman spends at least one bit per value (a single-symbol book
    // codes 1 bit), so the payload holds at most 8 values per byte:
    // refuse extents that claim more before allocating for them.
    if n as u64 > (payload.len() as u64).saturating_mul(8) {
        return Err(Error::corrupt("fpz extents imply more values than the payload holds"));
    }
    if n == 0 {
        // A zero extent: nothing to decode, and the other extents may be
        // anything, so they must not bound a loop.
        return Ok((Vec::new(), dims));
    }
    let decoder = book.decoder_for(n);
    let mut r = BitReader::new(payload);
    let mut ordered = vec![0i64; n];
    let mut out = Vec::with_capacity(n);
    let mut idx = 0;
    for z in 0..ext[2] {
        for y in 0..ext[1] {
            for x in 0..ext[0] {
                let c = decoder.decode(&mut r)?;
                if c > 64 {
                    return Err(Error::corrupt("fpz class out of range"));
                }
                let mag = match c {
                    0 => 0u64,
                    1 => 1,
                    _ => (1u64 << (c - 1)) | r.read_bits(c - 1)?,
                };
                let p = predict(&ordered, ext, x, y, z);
                let v = p + unzigzag(mag);
                // Keys live in [0, 2^32); anything else is corruption.
                if !(0..(1i64 << 32)).contains(&v) {
                    return Err(Error::corrupt("fpz reconstruction out of range"));
                }
                ordered[idx] = v;
                out.push(ordered_to_f32(v));
                idx += 1;
            }
        }
    }
    Ok((out, dims))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[f32], dims: Dims) -> usize {
        let c = fpz_compress(data, dims).unwrap();
        let (d, rdims) = fpz_decompress(&c).unwrap();
        assert_eq!(rdims.extents(), dims.extents());
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        c.len()
    }

    #[test]
    fn ordered_mapping_is_monotonic_and_invertible() {
        let vals = [-1e30f32, -1.0, -1e-30, -0.0, 0.0, 1e-30, 1.0, 1e30];
        let mapped: Vec<i64> = vals.iter().map(|&v| f32_to_ordered(v)).collect();
        for w in mapped.windows(2) {
            assert!(w[0] <= w[1], "ordering broken: {mapped:?}");
        }
        for &v in &vals {
            assert_eq!(ordered_to_f32(f32_to_ordered(v)).to_bits(), v.to_bits());
        }
        // NaN also roundtrips (ordering irrelevant).
        let n = f32::NAN;
        assert_eq!(ordered_to_f32(f32_to_ordered(n)).to_bits(), n.to_bits());
    }

    #[test]
    fn zigzag_roundtrip() {
        for x in [-5i64, -1, 0, 1, 7, i32::MAX as i64, -(i32::MAX as i64)] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn smooth_3d_grid_compresses_well() {
        let n = 16usize;
        let data: Vec<f32> = (0..n * n * n)
            .map(|i| {
                let x = (i % n) as f32;
                let y = ((i / n) % n) as f32;
                let z = (i / (n * n)) as f32;
                x * 2.0 + y * 3.0 + z * 4.0
            })
            .collect();
        let clen = roundtrip(&data, Dims::d3(n, n, n));
        let ratio = (data.len() * 4) as f64 / clen as f64;
        assert!(ratio > 2.0, "linear field should compress well, got {ratio}");
    }

    #[test]
    fn noisy_data_stays_under_two_to_one() {
        let mut s = 88172645463325252u64;
        let data: Vec<f32> = (0..32 * 32 * 32)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / 16777216.0).exp()
            })
            .collect();
        let clen = roundtrip(&data, Dims::d3(32, 32, 32));
        let ratio = (data.len() * 4) as f64 / clen as f64;
        assert!(ratio < 2.5, "paper's <2:1-ish claim, got {ratio}");
    }

    #[test]
    fn special_values_roundtrip() {
        let data = vec![1.0f32, f32::NAN, -0.0, f32::INFINITY, -1.5, f32::NEG_INFINITY, 0.0, 2.0];
        roundtrip(&data, Dims::d1(8));
    }

    #[test]
    fn corrupt_streams_error() {
        let data = vec![1.0f32; 64];
        let c = fpz_compress(&data, Dims::d1(64)).unwrap();
        assert!(fpz_decompress(&c[..10]).is_err());
        assert!(fpz_decompress(b"nope").is_err());
        let mut bad = c.clone();
        bad[0] = b'X';
        assert!(fpz_decompress(&bad).is_err());
        // Extents the payload cannot hold are refused before anything is
        // allocated for them: 2^33 values claimed by a 64-value stream.
        let mut forged = c.clone();
        forged[4..12].copy_from_slice(&(1u64 << 33).to_le_bytes());
        assert!(matches!(fpz_decompress(&forged), Err(Error::Corrupt(_))));
        // A zero extent decodes to nothing, whatever the others claim;
        // they never bound a loop.
        let mut empty = fpz_compress(&[], Dims::d1(0)).unwrap();
        empty[12..28].fill(0xff);
        let (d, rdims) = fpz_decompress(&empty).unwrap();
        assert!(d.is_empty());
        assert_eq!(rdims.extents(), [0, usize::MAX, usize::MAX]);
        // Extents whose product overflows are refused, not multiplied.
        let mut huge = c;
        huge[4..12].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        huge[12..20].copy_from_slice(&4u64.to_le_bytes());
        assert!(matches!(fpz_decompress(&huge), Err(Error::Corrupt(_))));
    }

    #[test]
    fn a_single_class_stream_still_spends_a_bit_per_value() {
        // Every key and every prediction is 0, so every residual falls in
        // class 0 and the class book has one symbol: the floor the
        // decoder's payload check relies on is still one bit per value.
        let n = 4096;
        let data = vec![f32::from_bits(u32::MAX); n];
        let c = fpz_compress(&data, Dims::d1(n)).unwrap();
        let (book, used) = Codebook::deserialize(&c[28..]).unwrap();
        assert_eq!(book.len(), 1);
        assert_eq!(c.len() - 28 - used, n / 8, "one bit per value");
        roundtrip(&data, Dims::d1(n));
    }

    #[test]
    fn dims_validation() {
        assert!(fpz_compress(&[0.0; 10], Dims::d3(2, 2, 2)).is_err());
    }
}
