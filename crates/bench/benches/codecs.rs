//! Criterion benchmarks for the two codecs across configurations
//! (throughput backing for paper Figs. 7, 8, 10).

use cosmo_data::{generate_hacc, generate_nyx, SynthOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foresight::codec::{compress, decompress, CodecConfig, Shape};
use foresight_util::bits::{BitReader, BitWriter};
use lossy_sz::huffman::{histogram, Codebook, LANES};
use lossy_sz::{Dims, EntropyBackend, PredictorKind, SzConfig};
use lossy_zfp::{Dims3, ZfpConfig};
use std::time::Instant;

fn nyx_like_field(n: usize) -> Vec<f32> {
    (0..n * n * n)
        .map(|i| {
            let x = (i % n) as f32 / n as f32;
            let y = ((i / n) % n) as f32 / n as f32;
            let z = (i / (n * n)) as f32 / n as f32;
            let base = ((x * 6.3).sin() + (y * 4.4).cos() + (z * 9.1).sin()).exp();
            base * 35.0 + ((i as f32 * 0.61).sin() * 0.3)
        })
        .collect()
}

fn bench_compress(c: &mut Criterion) {
    let n = 48usize;
    let data = nyx_like_field(n);
    let shape = Shape::D3(n, n, n);
    let bytes = (data.len() * 4) as u64;

    let mut g = c.benchmark_group("compress");
    g.throughput(Throughput::Bytes(bytes));
    for eb in [1e-1, 1e-3] {
        g.bench_with_input(BenchmarkId::new("sz_abs", eb), &eb, |b, &eb| {
            let cfg = CodecConfig::Sz(SzConfig::abs(eb));
            b.iter(|| compress(&data, shape, &cfg).unwrap());
        });
    }
    for rate in [2.0, 8.0] {
        g.bench_with_input(BenchmarkId::new("zfp_rate", rate), &rate, |b, &rate| {
            let cfg = CodecConfig::Zfp(ZfpConfig::rate(rate));
            b.iter(|| compress(&data, shape, &cfg).unwrap());
        });
    }
    g.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let n = 48usize;
    let data = nyx_like_field(n);
    let shape = Shape::D3(n, n, n);
    let bytes = (data.len() * 4) as u64;

    let mut g = c.benchmark_group("decompress");
    g.throughput(Throughput::Bytes(bytes));
    let sz_stream = compress(&data, shape, &CodecConfig::Sz(SzConfig::abs(1e-3))).unwrap();
    g.bench_function("sz_abs_1e-3", |b| b.iter(|| decompress(&sz_stream).unwrap()));
    let zfp_stream = compress(&data, shape, &CodecConfig::Zfp(ZfpConfig::rate(8.0))).unwrap();
    g.bench_function("zfp_rate_8", |b| b.iter(|| decompress(&zfp_stream).unwrap()));
    g.finish();
}

fn bench_entropy_backends(c: &mut Criterion) {
    // Ablation: Huffman-only vs Huffman+LZSS (DESIGN.md ablation list).
    let n = 32usize;
    let data = nyx_like_field(n);
    let shape = Shape::D3(n, n, n);
    let mut g = c.benchmark_group("sz_entropy_backend");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for (name, backend) in
        [("huffman", EntropyBackend::Huffman), ("huffman_lzss", EntropyBackend::HuffmanLzss)]
    {
        g.bench_function(name, |b| {
            let cfg = CodecConfig::Sz(SzConfig { entropy: backend, ..SzConfig::abs(1e-3) });
            b.iter(|| compress(&data, shape, &cfg).unwrap());
        });
    }
    g.finish();
}

/// Quantization codes of a Nyx-like field plus the matching codebook and
/// encoded bitstream — the inputs of the isolated entropy stage.
fn entropy_inputs(n: usize) -> (Codebook, Vec<u32>, Vec<u8>) {
    let data = nyx_like_field(n);
    let dims = Dims::D3(n, n, n);
    let ext = dims.extents();
    let mut codes = Vec::new();
    for b in &lossy_sz::block::partition(dims, 32) {
        let o = lossy_sz::block::compress_block(&data, ext, b, 1e-3, 32768, PredictorKind::Lorenzo);
        codes.extend(o.codes);
    }
    let book = Codebook::from_frequencies(&histogram(&codes)).unwrap();
    let encoder = book.encoder();
    let mut w = BitWriter::with_capacity(codes.len());
    for &c in &codes {
        encoder.encode(c, &mut w).unwrap();
    }
    let bytes = w.into_bytes();
    (book, codes, bytes)
}

fn bench_huffman_entropy(c: &mut Criterion) {
    let (book, codes, bytes) = entropy_inputs(48);
    let mut g = c.benchmark_group("sz_huffman");
    g.throughput(Throughput::Elements(codes.len() as u64));
    g.bench_function("encode_packed", |b| {
        b.iter(|| {
            let encoder = book.encoder();
            let mut w = BitWriter::with_capacity(codes.len());
            for &s in &codes {
                encoder.encode(s, &mut w).unwrap();
            }
            w.into_bytes()
        });
    });
    g.bench_function("encode_bitwise", |b| {
        b.iter(|| {
            let mut w = BitWriter::with_capacity(codes.len());
            for &s in &codes {
                book.encode_bitwise(s, &mut w).unwrap();
            }
            w.into_bytes()
        });
    });
    g.bench_function("decode_lut", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            let mut r = BitReader::new(&bytes);
            book.decoder().decode_into(&mut r, codes.len(), &mut out).unwrap();
            out.last().copied()
        });
    });
    g.bench_function("decode_bitwise", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let mut sum = 0u64;
            for _ in 0..codes.len() {
                sum += book.decode_bitwise(&mut r).unwrap() as u64;
            }
            sum
        });
    });
    g.finish();
}

/// The ZFP block kernel without whole-field wall noise: inputs that stay
/// in cache (1 MiB each), one thread, both directions. Next to criterion's
/// mean, each case prints the *minimum* iteration as ns per block and
/// MB/s of uncompressed data — the figure to iterate on, since this VM's
/// clock swings for seconds at a time. `zfp_run_1d` is one work item of
/// the 1-D driver — a single run of 1 024 blocks of HACC positions or
/// velocities, rate 8 — so what a call pays around its blocks (header,
/// allocation, CRC) shows beside the kernel's share.
fn bench_zfp_block(c: &mut Criterion) {
    let line: Vec<f32> = (0..1usize << 18)
        .map(|i| (i as f32 * 0.003).sin() * 250.0 + (i as f32 * 0.61).sin() * 0.3)
        .collect();
    let cube = nyx_like_field(64);
    let opts = SynthOptions { n_side: 16, seed: 13, steps: 1, ..SynthOptions::default() };
    let hacc = generate_hacc(&opts).unwrap();
    let run = Dims3::D1(4096);
    assert_eq!(hacc.x.len(), 4096);
    let cases = [
        ("zfp_block", "1d_rate_8", &line, Dims3::D1(line.len()), 8.0),
        ("zfp_block", "3d_rate_4", &cube, Dims3::D3(64, 64, 64), 4.0),
        ("zfp_block", "3d_rate_8", &cube, Dims3::D3(64, 64, 64), 8.0),
        ("zfp_run_1d", "hacc_x", &hacc.x, run, 8.0),
        ("zfp_run_1d", "hacc_vx", &hacc.vx, run, 8.0),
    ];
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for (group, name, data, dims, rate) in cases {
        let mut g = c.benchmark_group(group);
        let cfg = ZfpConfig::rate(rate);
        let blocks = dims.extents().iter().map(|n| n.div_ceil(4)).product::<usize>();
        let stream = lossy_zfp::compress(data, dims, &cfg).unwrap();
        g.throughput(Throughput::Elements(blocks as u64));
        let mut run = |dir: &str, f: &(dyn Fn() -> usize + Sync)| {
            let mut best = f64::INFINITY;
            g.bench_function(format!("{dir}/{name}"), |b| {
                b.iter(|| {
                    let t = Instant::now();
                    let n = pool.install(f);
                    best = best.min(t.elapsed().as_secs_f64());
                    n
                })
            });
            if best.is_finite() {
                println!(
                    "{group}/{dir}/{name:<28} min: {:.1} ns/block, {:.0} MB/s",
                    best * 1e9 / blocks as f64,
                    (data.len() * 4) as f64 / best / 1e6
                );
            }
        };
        run("encode", &|| lossy_zfp::compress(data, dims, &cfg).unwrap().len());
        run("decode", &|| lossy_zfp::decompress(&stream).unwrap().0.len());
        g.finish();
    }
}

/// One chunk-sized SZ call (16^3, in cache, one thread) and the two table
/// builds inside it — what a `.fstr` chunk or a serve shard pays per call.
/// Prints the minimum iteration as ns per call, like `zfp_block`. The
/// bound is loose because 16 samples a side make this field rough: 0.5
/// gives a ~90-symbol book, the size real 16^3 cuts of smooth fields have.
fn bench_sz_chunk16(c: &mut Criterion) {
    let field = nyx_like_field(16);
    let dims = Dims::D3(16, 16, 16);
    let cfg = SzConfig::abs(0.5);
    let stream = lossy_sz::compress(&field, dims, &cfg).unwrap();
    let block = lossy_sz::block::partition(dims, cfg.block_size)[0];
    let codes = lossy_sz::block::compress_block(
        &field,
        dims.extents(),
        &block,
        cfg.mode.value(),
        cfg.radius,
        cfg.predictor,
    )
    .codes;
    let freqs = histogram(&codes);
    let mut table = Vec::new();
    Codebook::from_frequencies(&freqs).unwrap().serialize(&mut table);

    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let mut g = c.benchmark_group("sz_chunk16");
    let mut run = |name: &str, f: &(dyn Fn() -> usize + Sync)| {
        let mut best = f64::INFINITY;
        g.bench_function(name, |b| {
            b.iter(|| {
                let t = Instant::now();
                let n = pool.install(f);
                best = best.min(t.elapsed().as_secs_f64());
                n
            })
        });
        if best.is_finite() {
            println!("sz_chunk16/{name:<28} min: {:.0} ns/call", best * 1e9);
        }
    };
    run("compress", &|| lossy_sz::compress(&field, dims, &cfg).unwrap().len());
    run("decompress", &|| lossy_sz::decompress(&stream).unwrap().0.len());
    run("from_frequencies", &|| Codebook::from_frequencies(&freqs).unwrap().len());
    run("deserialize", &|| Codebook::deserialize(&table).unwrap().1);
    g.finish();
}

/// The two halves of an SZ read without the container around them, one
/// thread, minimum iteration like `zfp_block`. `huffman/*`: ns per symbol
/// over four blocks of a peaked book (Nyx `baryon_density`, under 2 bits a
/// symbol) and of a wide one (HACC `x`, over 10), decoded one after the
/// other (`decode_into`) and side by side (`decode_lanes`, what
/// `decompress` does). `reconstruct/*`: ns per value of one 32^3 block
/// through `block::decompress_block` — Lorenzo rows with no outlier, with
/// 16 of them, and a Regression block.
fn bench_sz_decode(c: &mut Criterion) {
    let opts = SynthOptions { n_side: 64, seed: 13, steps: 1, ..SynthOptions::default() };
    let nyx = generate_nyx(&opts).unwrap();
    let hacc = generate_hacc(&opts).unwrap();
    let range = |v: &[f32]| {
        let (lo, hi) = v.iter().fold((f32::MAX, f32::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        (hi - lo) as f64
    };
    let cfg = SzConfig::abs(0.0);
    let block_codes = |data: &[f32], dims: Dims, eb: f64, pred: PredictorKind| {
        lossy_sz::block::partition(dims, cfg.block_size)
            .iter()
            .take(LANES)
            .map(|b| lossy_sz::block::compress_block(data, dims.extents(), b, eb, cfg.radius, pred))
            .collect::<Vec<_>>()
    };
    let cube = Dims::D3(64, 64, 64);
    let density_eb = 1e-3 * range(&nyx.baryon_density);
    let peaked = block_codes(&nyx.baryon_density, cube, density_eb, cfg.predictor);
    let wide = block_codes(&hacc.x, Dims::D1(hacc.x.len()), 0.005, cfg.predictor);

    let mut g = c.benchmark_group("sz_decode");
    let mut run = |name: &str, per: usize, unit: &str, f: &mut dyn FnMut() -> usize| {
        let mut best = f64::INFINITY;
        g.bench_function(name, |b| {
            b.iter(|| {
                let t = Instant::now();
                let n = f();
                best = best.min(t.elapsed().as_secs_f64());
                n
            })
        });
        if best.is_finite() {
            println!("sz_decode/{name:<34} min: {:.2} ns/{unit}", best * 1e9 / per as f64);
        }
    };
    for (name, blocks) in [("peaked", &peaked), ("wide", &wide)] {
        let all: Vec<u32> = blocks.iter().flat_map(|o| o.codes.iter().copied()).collect();
        let book = Codebook::from_frequencies(&histogram(&all)).unwrap();
        let streams: Vec<Vec<u8>> = blocks
            .iter()
            .map(|o| {
                let (encoder, mut w) = (book.encoder(), BitWriter::new());
                o.codes.iter().for_each(|&c| encoder.encode(c, &mut w).unwrap());
                w.into_bytes()
            })
            .collect();
        let decoder = book.decoder();
        let counts: [usize; LANES] = std::array::from_fn(|l| blocks[l].codes.len());
        let mut outs: [Vec<u32>; LANES] = Default::default();
        run(&format!("huffman/{name}/one_lane"), all.len(), "symbol", &mut || {
            for (out, (bytes, n)) in outs.iter_mut().zip(streams.iter().zip(counts)) {
                out.clear();
                decoder.decode_into(&mut BitReader::new(bytes), n, out).unwrap();
            }
            outs[LANES - 1].len()
        });
        run(&format!("huffman/{name}/four_lanes"), all.len(), "symbol", &mut || {
            let lanes = std::array::from_fn(|l| &streams[l][..]);
            decoder.decode_lanes(lanes, counts, &mut outs).unwrap();
            outs[LANES - 1].len()
        });
        assert_eq!(outs.concat(), all);
    }

    let mut holed = nyx.baryon_density.clone();
    for cell in 0..16 {
        holed[cell * 2053 % 32 + 64 * (cell * 977 % 32) + 4096 * (cell * 31 % 32)] = f32::NAN;
    }
    let block = lossy_sz::block::partition(cube, cfg.block_size)[0];
    let mut out = vec![0.0f32; cube.len()];
    for (name, data, pred) in [
        ("lorenzo_0_outliers", &nyx.baryon_density, PredictorKind::Lorenzo),
        ("lorenzo_16_outliers", &holed, PredictorKind::Lorenzo),
        ("regression", &nyx.baryon_density, PredictorKind::Regression),
    ] {
        let o = &block_codes(data, cube, density_eb, pred)[0];
        println!("sz_decode/reconstruct/{name}: {} outliers", o.outliers.len());
        run(&format!("reconstruct/{name}"), block.cells(), "value", &mut || {
            lossy_sz::block::decompress_block(
                &o.codes,
                &o.outliers,
                o.tag,
                o.coeffs,
                cube.extents(),
                &block,
                density_eb,
                cfg.radius,
                &mut out,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_zfp_block,
    bench_sz_chunk16,
    bench_sz_decode,
    bench_compress,
    bench_decompress,
    bench_entropy_backends,
    bench_huffman_entropy
);
criterion_main!(benches);
