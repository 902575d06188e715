//! Property tests: the lossless baselines must be bit-exact on arbitrary
//! floats, including NaN payloads and signed zeros.

use lossless_fp::{fpc_compress, fpc_decompress, fpz_compress, fpz_decompress};
use foresight_util::Dims;
use proptest::prelude::*;

fn any_f32_bits() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fpc_bit_exact(data in prop::collection::vec(any_f32_bits(), 0..2000)) {
        let c = fpc_compress(&data);
        let d = fpc_decompress(&c).unwrap();
        prop_assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fpz_bit_exact(data in prop::collection::vec(any_f32_bits(), 1..1500)) {
        let dims = Dims::d1(data.len());
        let c = fpz_compress(&data, dims).unwrap();
        let (d, _) = fpz_decompress(&c).unwrap();
        for (a, b) in data.iter().zip(&d) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fpz_3d_bit_exact(nx in 1usize..8, ny in 1usize..8, nz in 1usize..8, seed in any::<u32>()) {
        let n = nx * ny * nz;
        let data: Vec<f32> = (0..n)
            .map(|i| f32::from_bits((i as u32).wrapping_mul(seed | 1)))
            .collect();
        let dims = Dims::d3(nx, ny, nz);
        let c = fpz_compress(&data, dims).unwrap();
        let (d, rdims) = fpz_decompress(&c).unwrap();
        prop_assert_eq!(rdims, dims);
        for (a, b) in data.iter().zip(&d) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_errors_not_panics(cut_frac in 0.0f64..0.99) {
        let data: Vec<f32> = (0..300).map(|i| (i as f32 * 0.7).sin()).collect();
        let c = fpc_compress(&data);
        let cut = ((c.len() as f64) * cut_frac) as usize;
        prop_assert!(fpc_decompress(&c[..cut]).is_err());
        let c = fpz_compress(&data, Dims::d1(300)).unwrap();
        let cut = ((c.len() as f64) * cut_frac) as usize;
        // fpz may decode garbage-but-valid streams for some cuts of the
        // payload region; it must simply never panic.
        let _ = fpz_decompress(&c[..cut]);
    }
}
