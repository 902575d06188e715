//! Unified codec interface over the two compressor crates.
//!
//! CBench treats compressors uniformly: a field goes in with a shape and a
//! configuration, a stream plus measured metrics come out. This module
//! adapts `lossy-sz` (GPU-SZ) and `lossy-zfp` (cuZFP) to that interface,
//! including the shape mapping between the two crates' dimension types.

use foresight_util::{Error, Result};
use lossy_sz::{Dims as SzDims, SzConfig};
use lossy_zfp::{Dims3 as ZfpDims, ZfpConfig};

/// Array shape shared across codecs (x fastest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 1-D array.
    D1(usize),
    /// 2-D array.
    D2(usize, usize),
    /// 3-D array.
    D3(usize, usize, usize),
}

impl Shape {
    /// Total number of values.
    pub fn len(&self) -> usize {
        match *self {
            Shape::D1(n) => n,
            Shape::D2(a, b) => a * b,
            Shape::D3(a, b, c) => a * b * c,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn to_sz(self) -> SzDims {
        match self {
            Shape::D1(n) => SzDims::D1(n),
            Shape::D2(a, b) => SzDims::D2(a, b),
            Shape::D3(a, b, c) => SzDims::D3(a, b, c),
        }
    }

    pub(crate) fn to_zfp(self) -> ZfpDims {
        match self {
            Shape::D1(n) => ZfpDims::D1(n),
            Shape::D2(a, b) => ZfpDims::D2(a, b),
            Shape::D3(a, b, c) => ZfpDims::D3(a, b, c),
        }
    }
}

/// Which compressor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressorId {
    /// The SZ-style prediction-based compressor (paper: "GPU-SZ").
    GpuSz,
    /// The ZFP-style transform-based compressor (paper: "cuZFP").
    CuZfp,
}

impl CompressorId {
    /// Display name as the paper writes it.
    pub fn display(&self) -> &'static str {
        match self {
            CompressorId::GpuSz => "GPU-SZ",
            CompressorId::CuZfp => "cuZFP",
        }
    }
}

/// A concrete codec configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecConfig {
    /// SZ with its full config.
    Sz(SzConfig),
    /// ZFP with its full config.
    Zfp(ZfpConfig),
}

impl CodecConfig {
    /// The compressor this config belongs to.
    pub fn id(&self) -> CompressorId {
        match self {
            CodecConfig::Sz(_) => CompressorId::GpuSz,
            CodecConfig::Zfp(_) => CompressorId::CuZfp,
        }
    }

    /// Short human-readable parameter string for tables ("abs=0.2",
    /// "rate=4").
    pub fn param_label(&self) -> String {
        match self {
            CodecConfig::Sz(c) => match c.mode {
                lossy_sz::ErrorBound::Abs(v) => format!("abs={v}"),
                lossy_sz::ErrorBound::Rel(v) => format!("rel={v}"),
                lossy_sz::ErrorBound::PwRel(v) => format!("pw_rel={v}"),
            },
            CodecConfig::Zfp(c) => match c.mode {
                lossy_zfp::ZfpMode::FixedRate(r) => format!("rate={r}"),
                lossy_zfp::ZfpMode::FixedPrecision(p) => format!("prec={p}"),
                lossy_zfp::ZfpMode::FixedAccuracy(t) => format!("acc={t}"),
            },
        }
    }
}

/// Compresses a field with either codec.
pub fn compress(data: &[f32], shape: Shape, cfg: &CodecConfig) -> Result<Vec<u8>> {
    match cfg {
        CodecConfig::Sz(c) => lossy_sz::compress(data, shape.to_sz(), c),
        CodecConfig::Zfp(c) => lossy_zfp::compress(data, shape.to_zfp(), c),
    }
}

/// Decompresses a stream produced by [`compress`], auto-detecting codec
/// via the magic tags the codec crates export.
pub fn decompress(stream: &[u8]) -> Result<(Vec<f32>, Shape)> {
    if stream.len() >= 4 && &stream[..4] == lossy_sz::MAGIC {
        let (data, dims) = lossy_sz::decompress(stream)?;
        let shape = match dims {
            SzDims::D1(n) => Shape::D1(n),
            SzDims::D2(a, b) => Shape::D2(a, b),
            SzDims::D3(a, b, c) => Shape::D3(a, b, c),
        };
        Ok((data, shape))
    } else if stream.len() >= 4 && &stream[..4] == lossy_zfp::MAGIC {
        let (data, dims) = lossy_zfp::decompress(stream)?;
        let shape = match dims {
            ZfpDims::D1(n) => Shape::D1(n),
            ZfpDims::D2(a, b) => Shape::D2(a, b),
            ZfpDims::D3(a, b, c) => Shape::D3(a, b, c),
        };
        Ok((data, shape))
    } else {
        Err(Error::corrupt("unknown stream magic"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Vec<f32> {
        (0..4096).map(|i| (i as f32 * 0.01).sin() * 100.0).collect()
    }

    #[test]
    fn sz_roundtrip_through_unified_api() {
        let data = field();
        let cfg = CodecConfig::Sz(SzConfig::abs(0.1));
        let stream = compress(&data, Shape::D3(16, 16, 16), &cfg).unwrap();
        let (rec, shape) = decompress(&stream).unwrap();
        assert_eq!(shape, Shape::D3(16, 16, 16));
        assert!(data.iter().zip(&rec).all(|(a, b)| (a - b).abs() <= 0.1));
    }

    #[test]
    fn zfp_roundtrip_through_unified_api() {
        let data = field();
        let cfg = CodecConfig::Zfp(ZfpConfig::rate(8.0));
        let stream = compress(&data, Shape::D3(16, 16, 16), &cfg).unwrap();
        let (rec, shape) = decompress(&stream).unwrap();
        assert_eq!(shape, Shape::D3(16, 16, 16));
        assert_eq!(rec.len(), data.len());
    }

    #[test]
    fn zfp_refuses_non_finite_input_in_every_mode() {
        for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(16), ZfpConfig::accuracy(1e-3)] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut data = field();
                data[1234] = bad;
                let err =
                    compress(&data, Shape::D3(16, 16, 16), &CodecConfig::Zfp(cfg)).unwrap_err();
                assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains("value 1234 "), "{err}");
            }
        }
    }

    #[test]
    fn unknown_magic_rejected() {
        assert!(decompress(b"WHAT is this").is_err());
        assert!(decompress(b"").is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(CodecConfig::Sz(SzConfig::abs(0.2)).param_label(), "abs=0.2");
        assert_eq!(CodecConfig::Zfp(ZfpConfig::rate(4.0)).param_label(), "rate=4");
        assert_eq!(CodecConfig::Sz(SzConfig::abs(0.2)).id().display(), "GPU-SZ");
    }
}
