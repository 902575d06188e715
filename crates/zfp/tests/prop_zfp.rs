//! Property tests for the ZFP-style codec.

use lossy_zfp::{compress, decompress, Dims, ZfpConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fixed-rate streams decode to the right shape and the payload size
    /// is an exact function of rate and block count.
    #[test]
    fn fixed_rate_stream_shape(
        nx in 1usize..20, ny in 1usize..20, nz in 1usize..10,
        rate_q in 1u32..=16,
        seed in any::<u32>(),
    ) {
        let rate = rate_q as f64;
        let dims = Dims::D3(nx, ny, nz);
        let data: Vec<f32> = (0..dims.len())
            .map(|i| ((i as u32).wrapping_mul(seed | 1) as f32 * 1e-7).sin() * 1e3)
            .collect();
        let stream = compress(&data, dims, &ZfpConfig::rate(rate)).unwrap();
        let (rec, rdims) = decompress(&stream).unwrap();
        prop_assert_eq!(rdims, dims);
        prop_assert_eq!(rec.len(), data.len());
        prop_assert!(rec.iter().all(|v| v.is_finite()));
        let blocks = nx.div_ceil(4) * ny.div_ceil(4) * nz.div_ceil(4);
        let maxbits = ((rate * 64.0).round() as u64).max(10);
        let payload = (blocks as u64 * maxbits).div_ceil(8);
        // Header is 64 bytes (60 of fields plus a trailing header CRC).
        prop_assert_eq!(stream.len() as u64, 64 + payload);
    }

    /// High-rate reconstruction error is tiny relative to the data scale.
    #[test]
    fn high_rate_near_lossless(vals in prop::collection::vec(-1e6f32..1e6, 64..=64)) {
        let dims = Dims::D3(4, 4, 4);
        let stream = compress(&vals, dims, &ZfpConfig::rate(32.0)).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        let scale = vals.iter().fold(1.0f32, |m, v| m.max(v.abs())) as f64;
        for (a, b) in vals.iter().zip(&rec) {
            prop_assert!(((a - b) as f64).abs() <= scale * 1e-5, "{} vs {}", a, b);
        }
    }

    /// Fixed-accuracy mode honors its tolerance on random smooth fields.
    #[test]
    fn accuracy_mode_bounds_error(
        seed in any::<u32>(),
        tol_exp in -3i32..2,
    ) {
        let tol = 10f64.powi(tol_exp);
        let n = 8usize;
        let data: Vec<f32> = (0..n * n * n)
            .map(|i| {
                let t = (i as u32).wrapping_mul(seed | 1) as f32 * 1e-8;
                (t.sin() + (t * 3.1).cos()) * 50.0
            })
            .collect();
        let stream = compress(&data, Dims::D3(n, n, n), &ZfpConfig::accuracy(tol)).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        for (a, b) in data.iter().zip(&rec) {
            prop_assert!(((a - b) as f64).abs() <= tol, "{} vs {} (tol {})", a, b, tol);
        }
    }

    /// Decoding truncated or bit-flipped streams errors instead of panicking.
    #[test]
    fn corruption_never_panics(cut in 0usize..2000, flip in 0usize..2000) {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.37).cos()).collect();
        let stream = compress(&data, Dims::D3(8, 8, 8), &ZfpConfig::rate(6.0)).unwrap();
        if cut < stream.len() {
            prop_assert!(decompress(&stream[..cut]).is_err());
        }
        let mut bad = stream.clone();
        let pos = flip % bad.len();
        bad[pos] ^= 0x10;
        // Either an error or a decode of plausible shape; header CRC does
        // not cover itself so some flips decode to altered-but-valid data.
        if let Ok((rec, _)) = decompress(&bad) {
            prop_assert_eq!(rec.len(), data.len());
        }
    }

    /// Rate monotonicity: more bits never hurt (PSNR within noise).
    #[test]
    fn rate_monotone(seed in any::<u32>()) {
        let n = 12usize;
        let data: Vec<f32> = (0..n * n * n)
            .map(|i| {
                let t = (i as u32).wrapping_mul(seed | 1) as f32 * 1e-8;
                t.sin() * 100.0
            })
            .collect();
        let mse = |rate: f64| -> f64 {
            let s = compress(&data, Dims::D3(n, n, n), &ZfpConfig::rate(rate)).unwrap();
            let (rec, _) = decompress(&s).unwrap();
            data.iter().zip(&rec).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>()
        };
        let e4 = mse(4.0);
        let e16 = mse(16.0);
        prop_assert!(e16 <= e4 * 1.01 + 1e-12, "e4={} e16={}", e4, e16);
    }
}
