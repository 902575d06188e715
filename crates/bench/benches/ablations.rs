//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! SZ block size and predictor, HACC reshape policy, and ZFP block
//! dimensionality. Each group reports wall time; the companion ratio
//! numbers print once at startup so speed and compression are comparable
//! side by side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foresight::codec::{compress, CodecConfig, Shape};
use lossy_sz::{PredictorKind, SzConfig};
use lossy_zfp::ZfpConfig;
use std::sync::Once;

fn hacc_like_positions(n: usize) -> Vec<f32> {
    // Clustered-ish 1-D positions stream.
    (0..n)
        .map(|i| {
            let t = i as f32;
            128.0 + (t * 0.001).sin() * 90.0 + (t * 0.17).sin() * 5.0
        })
        .collect()
}

fn print_ratios_once(data: &[f32]) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        eprintln!("\n=== ablation compression ratios (bitrate in bits/value) ===");
        let n = data.len();
        for bs in [8usize, 16, 32] {
            let cfg = CodecConfig::Sz(SzConfig { block_size: bs, ..SzConfig::abs(0.005) });
            let s = compress(data, Shape::D1(n), &cfg).unwrap();
            eprintln!("sz block_size={bs}: {:.3} bits/value", s.len() as f64 * 8.0 / n as f64);
        }
        for (name, p) in [
            ("lorenzo", PredictorKind::Lorenzo),
            ("regression", PredictorKind::Regression),
            ("adaptive", PredictorKind::Adaptive),
        ] {
            let cfg = CodecConfig::Sz(SzConfig { predictor: p, ..SzConfig::abs(0.005) });
            let s = compress(data, Shape::D1(n), &cfg).unwrap();
            eprintln!("sz predictor={name}: {:.3} bits/value", s.len() as f64 * 8.0 / n as f64);
        }
        // HACC reshape policy: cube vs thin slab (paper §IV-B-4).
        let cube = cosmo_data::convert::cube_shape_for(n);
        let thin = cosmo_data::convert::thin_shape_for(n);
        for (name, (a, b, c)) in [("cube", cube), ("thin", thin)] {
            let padded = cosmo_data::convert::to_3d(data, (a, b, c)).unwrap();
            let mut total = 0usize;
            for p in &padded.parts {
                let s = compress(
                    p,
                    Shape::D3(a, b, c),
                    &CodecConfig::Zfp(ZfpConfig::rate(8.0)),
                )
                .unwrap();
                total += s.len();
            }
            eprintln!("zfp reshape={name}: {:.3} bits/value", total as f64 * 8.0 / n as f64);
        }
        eprintln!();
    });
}

fn bench_sz_block_size(c: &mut Criterion) {
    let data = hacc_like_positions(1 << 17);
    print_ratios_once(&data);
    let mut g = c.benchmark_group("ablation_sz_block_size");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for bs in [8usize, 16, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, &bs| {
            let cfg = CodecConfig::Sz(SzConfig { block_size: bs, ..SzConfig::abs(0.005) });
            b.iter(|| compress(&data, Shape::D1(data.len()), &cfg).unwrap());
        });
    }
    g.finish();
}

fn bench_sz_predictor(c: &mut Criterion) {
    let data = hacc_like_positions(1 << 17);
    let mut g = c.benchmark_group("ablation_sz_predictor");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for (name, p) in [
        ("lorenzo", PredictorKind::Lorenzo),
        ("regression", PredictorKind::Regression),
        ("adaptive", PredictorKind::Adaptive),
    ] {
        g.bench_function(name, |b| {
            let cfg = CodecConfig::Sz(SzConfig { predictor: p, ..SzConfig::abs(0.005) });
            b.iter(|| compress(&data, Shape::D1(data.len()), &cfg).unwrap());
        });
    }
    g.finish();
}

fn bench_zfp_dimensionality(c: &mut Criterion) {
    // 1-D stream compressed as 1-D vs reshaped 3-D blocks (paper found
    // 3-D reshape better for both codecs).
    let data = hacc_like_positions(1 << 15);
    let n = data.len();
    let mut g = c.benchmark_group("ablation_zfp_dims");
    g.throughput(Throughput::Bytes((n * 4) as u64));
    g.bench_function("d1", |b| {
        let cfg = CodecConfig::Zfp(ZfpConfig::rate(8.0));
        b.iter(|| compress(&data, Shape::D1(n), &cfg).unwrap());
    });
    g.bench_function("d3_cube", |b| {
        let (a, bb, cc) = cosmo_data::convert::cube_shape_for(n);
        let padded = cosmo_data::convert::to_3d(&data, (a, bb, cc)).unwrap();
        let cfg = CodecConfig::Zfp(ZfpConfig::rate(8.0));
        b.iter(|| {
            for p in &padded.parts {
                compress(p, Shape::D3(a, bb, cc), &cfg).unwrap();
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sz_block_size,
    bench_sz_predictor,
    bench_zfp_dimensionality
);
criterion_main!(benches);
