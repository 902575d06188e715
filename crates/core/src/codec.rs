//! Unified codec interface over the two compressor crates.
//!
//! CBench treats compressors uniformly: a field goes in with a shape and a
//! configuration, a stream plus measured metrics come out. The interface
//! is the workspace's one codec seam, `foresight_store::codec` (one codec
//! enum, one dispatch), re-exported here with the one shape type,
//! [`foresight_util::Dims`], under the name CBench has always used.

pub use foresight_store::codec::{compress, decompress, CodecConfig, CodecKind};
pub use foresight_util::Dims as Shape;

#[cfg(test)]
mod tests {
    use super::*;
    use foresight_util::Error;
    use lossy_sz::SzConfig;
    use lossy_zfp::ZfpConfig;

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
