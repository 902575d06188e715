//! Criterion benchmarks for the two codecs across configurations
//! (throughput backing for paper Figs. 7, 8, 10).

use cosmo_data::{generate_hacc, SynthOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use foresight::codec::{compress, decompress, CodecConfig, Shape};
use foresight_util::bits::{BitReader, BitWriter};
use lossy_sz::huffman::{histogram, Codebook};
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

criterion_group!(
    benches,
    bench_zfp_block,
    bench_sz_chunk16,
    bench_compress,
    bench_decompress,
    bench_entropy_backends,
    bench_huffman_entropy
);
criterion_main!(benches);
