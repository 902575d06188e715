//! The error bound as a checked invariant of the SZ codec.
//!
//! For every mode, dimensionality, degenerate shape and hostile value
//! class below, a roundtrip must satisfy `|x - x'| <= eb` **exactly** — no
//! slack factor, compared in `f64` against the `eb_abs` the stream header
//! records — restore every non-finite value bit for bit, and produce the
//! same bytes on one thread, on four, and on the traced device path.
//!
//! PW_REL is checked in its own form. The kernel bounds `ln|x|` (held as an
//! `f32`) by `ln(1 + p)` exactly, which is the ABS property on the log
//! array; in value space the only allowance is the `f32` rounding of the
//! transform's own `ln` and `exp`, two ulps of `ln|x|`, which no kernel
//! controls. Zeros, signs and non-finite values survive exactly.

use gpu_sim::{Device, GpuSpec, SanitizerConfig};
use lossy_sz::{
    compress, decompress, gpu_exec, info, Dims, EntropyBackend, ErrorBound, PredictorKind, SzConfig,
};
use proptest::prelude::*;

/// Cube edge of the matrix configs: 3-D blocks are 4^3, 2-D tiles 4^2,
/// 1-D segments 64.
const BS: usize = 4;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The value classes the bound must survive, `n` values each.
fn value_classes(n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let smooth: Vec<f32> =
        (0..n).map(|i| (i as f32 * 0.37).sin() * 40.0 + (i as f32 * 0.011).cos() * 300.0).collect();
    let noise: Vec<f32> =
        (0..n).map(|_| (xorshift(&mut s) >> 40) as f32 / 1024.0 - 8192.0).collect();
    let denormal: Vec<f32> = (0..n)
        .map(|i| {
            f32::from_bits((i as u32 * 7919) % 0x0080_0000) * if i % 3 == 0 { -1.0 } else { 1.0 }
        })
        .collect();
    // Alternates values whose lattice index passes Q_MAX = 2^50 at every
    // bound used here with values near zero, so both the range check and
    // the delta check fire next to ordinary cells.
    let huge: Vec<f32> = (0..n)
        .map(|i| match i % 4 {
            0 => 3.0e38,
            1 => (i as f32).sin(),
            2 => -1.0e30,
            _ => 1.0e-3 * i as f32,
        })
        .collect();
    let mut non_finite = smooth.clone();
    for (i, v) in non_finite.iter_mut().enumerate() {
        match i % 7 {
            0 => *v = f32::from_bits(0x7fc0_0000 | (i as u32 & 0xffff)), // NaN payloads
            3 => *v = f32::INFINITY,
            5 => *v = f32::NEG_INFINITY,
            _ => {}
        }
    }
    vec![
        ("smooth", smooth),
        ("constant", vec![7.25; n]),
        ("noise", noise),
        ("denormal", denormal),
        ("huge", huge),
        ("non_finite", non_finite),
    ]
}

fn shapes() -> Vec<Dims> {
    let seg = BS * BS * BS;
    vec![
        Dims::D1(1),
        Dims::D1(seg - 1),
        Dims::D1(seg),
        Dims::D1(seg + 1),
        Dims::D1(3 * seg + 5),
        Dims::D2(1, 9),
        Dims::D2(BS - 1, BS - 1),
        Dims::D2(BS + 1, BS),
        Dims::D2(11, 7),
        Dims::D3(1, 1, 23),
        Dims::D3(BS - 1, BS - 1, BS - 1),
        Dims::D3(BS, BS, BS),
        Dims::D3(BS + 1, BS + 1, BS + 1),
        Dims::D3(9, 1, 6),
    ]
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

/// Compresses on 1, 2 and 4 threads and the traced device, requires the
/// four streams to be identical, and returns the stream.
fn compress_everywhere(data: &[f32], dims: Dims, cfg: &SzConfig, what: &str) -> Vec<u8> {
    let one = pool(1).install(|| compress(data, dims, cfg)).unwrap();
    for threads in [2, 4] {
        let many = pool(threads).install(|| compress(data, dims, cfg)).unwrap();
        assert_eq!(one, many, "{what}: bytes differ between 1 and {threads} threads");
    }
    let mut device = Device::new(GpuSpec::tesla_v100()).with_sanitizer(SanitizerConfig::full());
    let (traced, _) = gpu_exec::compress_on(&mut device, data, dims, cfg).unwrap();
    assert_eq!(one, traced, "{what}: bytes differ between host and gpu_exec");
    assert!(device.sanitizer_report().unwrap().is_clean(), "{what}: sanitizer findings");
    one
}

/// The mode's own form of the bound for one value, exact.
fn check_value(a: f32, b: f32, mode: ErrorBound, eb_abs: f64, what: &str) {
    if !a.is_finite() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: non-finite value must survive bit for bit");
        return;
    }
    match mode {
        ErrorBound::Abs(_) | ErrorBound::Rel(_) => {
            let err = (a as f64 - b as f64).abs();
            assert!(err <= eb_abs, "{what}: |{a:e} - {b:e}| = {err:e} > {eb_abs:e}");
        }
        ErrorBound::PwRel(p) => {
            if a == 0.0 {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: zero must survive exactly");
                return;
            }
            assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{what}: sign of {a:e}");
            let (la, lb) = ((a.abs() as f64).ln(), (b.abs() as f64).ln());
            let transform_rounding = 2.0 * f32::EPSILON as f64 * la.abs().max(1.0);
            let bound = (1.0 + p).ln() + transform_rounding;
            assert!((la - lb).abs() <= bound, "{what}: {a:e} -> {b:e} exceeds PW_REL {p}");
        }
    }
}

fn check_roundtrip(data: &[f32], dims: Dims, cfg: &SzConfig, what: &str) {
    let stream = compress_everywhere(data, dims, cfg, what);
    let eb_abs = info(&stream).unwrap().eb_abs;
    let (rec, rdims) = decompress(&stream).unwrap();
    assert_eq!(rdims, dims, "{what}");
    assert_eq!(rec.len(), data.len(), "{what}");
    for (&a, &b) in data.iter().zip(&rec) {
        check_value(a, b, cfg.mode, eb_abs, what);
    }
}

/// ABS / REL / PW_REL x 1-D / 2-D / 3-D x degenerate shapes x value
/// classes, with the predictor and the code radius (2, default, 2^20)
/// rotating through the matrix so every pairing occurs.
#[test]
fn bound_holds_exactly_across_modes_shapes_and_value_classes() {
    let modes = [
        ErrorBound::Abs(1e-3),
        ErrorBound::Abs(0.37),
        ErrorBound::Rel(1e-3),
        ErrorBound::PwRel(1e-2),
    ];
    let kernels = [
        (PredictorKind::Lorenzo, 2u32),
        (PredictorKind::Regression, 1 << 15),
        (PredictorKind::Adaptive, 1 << 20),
        (PredictorKind::Adaptive, 2),
        (PredictorKind::Lorenzo, 1 << 20),
        (PredictorKind::Regression, 2),
        (PredictorKind::Adaptive, 1 << 15),
    ];
    let mut case = 0usize;
    for dims in shapes() {
        for (class, data) in value_classes(dims.len()) {
            for mode in modes {
                let (predictor, radius) = kernels[case % kernels.len()];
                let entropy = if case.is_multiple_of(5) {
                    EntropyBackend::HuffmanLzss
                } else {
                    EntropyBackend::Huffman
                };
                case += 1;
                let cfg = SzConfig { mode, predictor, block_size: BS, entropy, radius };
                let what = format!("{class} {dims:?} {mode:?} {predictor:?} radius {radius}");
                check_roundtrip(&data, dims, &cfg, &what);
            }
        }
    }
}

/// The kernel's scratch is per thread and reused across blocks of
/// different shapes; a large field with ragged edges on every axis must
/// still come out within the bound and identical across thread counts.
#[test]
fn ragged_field_with_default_blocks() {
    let dims = Dims::D3(37, 33, 35);
    for (class, data) in value_classes(dims.len()) {
        for mode in [ErrorBound::Abs(1e-2), ErrorBound::PwRel(5e-2)] {
            let cfg = SzConfig { mode, ..SzConfig::default() };
            check_roundtrip(&data, dims, &cfg, &format!("{class} {mode:?}"));
        }
    }
}

fn any_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -1e7f32..1e7f32,
        -1e7f32..1e7f32,
        -1e7f32..1e7f32,
        -1.0f32..1.0f32,
        any::<u32>().prop_map(f32::from_bits), // anything, NaN payloads included
        Just(-0.0f32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bit patterns, bounds over seven decades, every predictor
    /// and radius: the ABS bound holds with no slack.
    #[test]
    fn kernel_bound_holds_for_arbitrary_data(
        data in prop::collection::vec(any_f32(), 1..2000),
        eb_exp in -4i32..3,
        pred_sel in 0u8..3,
        radius_sel in 0u8..3,
    ) {
        let cfg = SzConfig {
            mode: ErrorBound::Abs(10f64.powi(eb_exp)),
            predictor: [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::Adaptive]
                [pred_sel as usize],
            block_size: 3,
            entropy: EntropyBackend::Huffman,
            radius: [2, 1 << 15, 1 << 20][radius_sel as usize],
        };
        let dims = Dims::D1(data.len());
        let stream = compress(&data, dims, &cfg).unwrap();
        let eb_abs = info(&stream).unwrap().eb_abs;
        let (rec, _) = decompress(&stream).unwrap();
        for (&a, &b) in data.iter().zip(&rec) {
            if a.is_finite() {
                prop_assert!((a as f64 - b as f64).abs() <= eb_abs, "{} vs {} (eb {})", a, b, eb_abs);
            } else {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
