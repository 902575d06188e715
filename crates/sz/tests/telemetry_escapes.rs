//! `huffman.escape_hits` counts the codes the decode tables do not hold —
//! once per run, not once per symbol under the collector's lock — and so
//! reads the same whatever the thread count. The only test in this file:
//! telemetry is process-global.

use foresight_util::parallel::with_threads;
use foresight_util::telemetry;
use lossy_sz::huffman::{histogram, Codebook};
use lossy_sz::{block, compress, decompress, Dims, PredictorKind, SzConfig};

/// A 1-D walk whose 26 step sizes, and its verbatim cells, occur
/// Fibonacci-many times (1, 1, 2, 3, … 196 418): the Huffman tree of such
/// counts is a chain, so the rarest steps get codes past the 22 bits the
/// widest tables hold. The verbatim cells take the place of the step that
/// would occur 34 times: the first cell of each of the 16 blocks (far from
/// the zero ghost), nine NaNs and the cell after each.
fn fibonacci_walk() -> Vec<f32> {
    let mut steps = Vec::new();
    let (mut a, mut b) = (1usize, 1usize);
    for k in 1..=27i32 {
        if a != 34 {
            steps.extend(std::iter::repeat_n(if k % 2 == 0 { k } else { -k }, a));
        }
        (a, b) = (b, a + b);
    }
    // Fisher–Yates on a fixed LCG, so rare steps land mid-block.
    let mut s = 0x2545_f491_4f6c_dd1du64;
    for i in (1..steps.len()).rev() {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        steps.swap(i, (s >> 33) as usize % (i + 1));
    }
    let is_nan = |i: usize| i % 40_000 == 1000 && i < 9 * 40_000;
    let mut steps = steps.into_iter();
    let mut v = 8_000_000i32;
    (0..steps.len() + 34)
        .map(|i| {
            if is_nan(i) {
                return f32::NAN;
            }
            if i % 32_768 != 0 && !is_nan(i - 1) {
                v += steps.next().unwrap();
            }
            assert!((40_000..1 << 24).contains(&v));
            v as f32
        })
        .collect()
}

#[test]
fn escape_hits_are_the_same_on_1_2_4_threads_and_the_device() {
    let data = fibonacci_walk();
    let dims = Dims::D1(data.len());
    let cfg = SzConfig { predictor: PredictorKind::Lorenzo, ..SzConfig::abs(0.5) };
    let stream = compress(&data, dims, &cfg).unwrap();

    // What the stream's book must leave to the escape walk: every
    // occurrence of a symbol whose code is longer than root + 10 bits.
    let codes: Vec<u32> = block::partition(dims, cfg.block_size)
        .iter()
        .flat_map(|b| block::compress_block(&data, dims.extents(), b, 0.5, cfg.radius, cfg.predictor).codes)
        .collect();
    let freqs = histogram(&codes);
    let book = Codebook::from_frequencies(&freqs).unwrap();
    let expected: u64 = book
        .entries()
        .iter()
        .filter(|e| e.1 > 22)
        .map(|e| freqs.iter().find(|f| f.0 == e.0).unwrap().1)
        .sum();
    // Codes of 26, 26, 25, 24 and 23 bits on steps that occur 1, 1, 2, 3
    // and 5 times.
    assert_eq!(expected, 12);

    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let reference = decompress(&stream).unwrap().0;
    assert!(data.iter().zip(&reference).all(|(a, b)| (a - b).abs() <= 0.5 || a.is_nan() && b.is_nan()));
    let reference = bits(reference);
    telemetry::enable();
    for threads in [1, 2, 4] {
        telemetry::reset();
        telemetry::enable();
        let decoded = bits(with_threads(threads, || decompress(&stream).unwrap().0));
        let hits = telemetry::snapshot().metrics.counter("huffman.escape_hits");
        assert_eq!((hits, decoded == reference), (expected, true), "{threads} threads");
    }
    telemetry::reset();
    telemetry::enable();
    let mut device = gpu_sim::Device::new(gpu_sim::GpuSpec::tesla_v100());
    let (decoded, ..) = lossy_sz::gpu_exec::decompress_on(&mut device, &stream).unwrap();
    let decoded = bits(decoded);
    let hits = telemetry::snapshot().metrics.counter("huffman.escape_hits");
    assert_eq!((hits, decoded == reference), (expected, true), "device");
    telemetry::reset();
}
