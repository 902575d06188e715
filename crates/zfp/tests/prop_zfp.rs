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

/// The value classes the fixed-accuracy bound must survive, `n` values
/// each: smooth, noise, subnormals, a huge dynamic range (the paper's
/// named failure mode of ZFP: values near the top of the f32 range next
/// to small ones in one block), mixed signs, constants and zeros.
fn value_classes(n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 40) as f32 / (1 << 24) as f32 - 0.5
    };
    let of = |f: &mut dyn FnMut(usize) -> f32| (0..n).map(f).collect::<Vec<f32>>();
    vec![
        ("smooth", of(&mut |i| (i as f32 * 0.37).sin() * 40.0 + (i as f32 * 0.011).cos() * 300.0)),
        ("noise", of(&mut |_| unit() * 2e4)),
        ("subnormals", of(&mut |i| f32::from_bits((i as u32 * 7919) % 0x0080_0000))),
        (
            "huge dynamic range",
            of(&mut |i| [3.0e38, (i as f32).sin(), -1.0e30, 1.0e-3 * i as f32][i % 4]),
        ),
        ("wide exponents", of(&mut |i| unit() * 10f32.powi(i as i32 % 60 - 30))),
        ("mixed signs", of(&mut |i| if i % 2 == 0 { 1e5 } else { -1e-5 })),
        ("constant", vec![-123.456; n]),
        ("zeros", vec![0.0; n]),
        ("finite extremes", of(&mut |i| [f32::MAX, f32::MIN, 0.0, 1.0][i % 4])),
    ]
}

/// The bound a fixed accuracy `tol` gives a block whose exponent is
/// `emax` (every `|v| < 2^emax`), in dimensionality `d`.
///
/// While `tol >= 2^(emax - 28 + d)` the block drops the planes below
/// `kmin >= 1` (`Planes::tolerance`) and the error is at most `tol`.
/// Below that, `kmin` clamps to 0: every plane is coded and the
/// coefficients come back exactly, so the error is the fixed-point
/// cast's truncation (under one unit of `2^(emax - 30)`), the lift's
/// roundtrip (at most `2^(d + 2)` units, pinned by `lift::tests`), and
/// the output's rounding to f32 — at most the distance to the input,
/// itself an f32, so it doubles the rest: `2 (1 + 2^(d + 2)) 2^(emax -
/// 30)`. That is the bound where a block's cast step already rivals
/// `tol`; it is never below `tol` there.
fn accuracy_bound(tol: f64, emax: i32, d: u8) -> f64 {
    let clamped = 2f64.powi(emax - 28 + d as i32);
    if tol >= clamped {
        tol
    } else {
        tol.max(2.0 * (1.0 + 2f64.powi(d as i32 + 2)) * 2f64.powi(emax - 30))
    }
}

/// Fixed accuracy over a matrix of shapes — each dimensionality, ragged
/// extents, 1×1×N — value classes and tolerances from far below to far
/// above the data's scale: every value within [`accuracy_bound`] of its
/// input, the block's exponent taken from the block's largest magnitude.
#[test]
fn accuracy_mode_bounds_error_across_shapes_and_value_classes() {
    let shapes = [
        Dims::D1(1),
        Dims::D1(37),
        Dims::D1(300),
        Dims::D2(5, 7),
        Dims::D2(17, 9),
        Dims::D3(4, 4, 4),
        Dims::D3(13, 7, 5),
        Dims::D3(1, 1, 50),
    ];
    for dims in shapes {
        let [nx, ny, nz] = dims.extents();
        let d = dims.ndim();
        for (class, data) in value_classes(dims.len()) {
            // Each value's block exponent: `2^(e-1) <= max|v| < 2^e`.
            let mut emax = vec![0i32; data.len()];
            for (bz, by, bx) in (0..nz.div_ceil(4))
                .flat_map(|z| (0..ny.div_ceil(4)).flat_map(move |y| (0..nx.div_ceil(4)).map(move |x| (z, y, x))))
            {
                let cells = || {
                    (0..64).map(move |i| (4 * bx + i % 4, 4 * by + i / 4 % 4, 4 * bz + i / 16))
                        .filter(move |&(x, y, z)| x < nx && y < ny && z < nz)
                        .map(move |(x, y, z)| x + nx * (y + ny * z))
                };
                let top = cells().fold(0.0f32, |m, i| m.max(data[i].abs()));
                let e = if top == 0.0 { -127 } else { ((top as f64).log2().floor() as i32 + 1).clamp(-127, 128) };
                cells().for_each(|i| emax[i] = e);
            }
            for tol in [1e-30, 1e-6, 1e-3, 0.5, 1e3, 1e30] {
                let stream = compress(&data, dims, &ZfpConfig::accuracy(tol)).unwrap();
                let (rec, _) = decompress(&stream).unwrap();
                for (i, (a, b)) in data.iter().zip(&rec).enumerate() {
                    let err = (*a as f64 - *b as f64).abs();
                    let bound = accuracy_bound(tol, emax[i], d);
                    assert!(
                        err <= bound,
                        "{dims:?} {class}, tol {tol:e}: value {i} {a:e} -> {b:e}, error {err:e} > {bound:e}"
                    );
                }
            }
        }
    }
}
