//! Equivalence and metamorphic tests of the run-of-blocks ZFP driver.
//!
//! The oracle below is the driver this crate used to have, kept as test
//! code: one `BitWriter` per block spliced into the payload bit by bit, a
//! clamp per gathered sample, one reader per decoded block and a bounds
//! test per scattered sample. It also writes the container by hand, so the
//! `ZFPR` layout is pinned twice. The driver under test must produce the
//! same bytes and the same values for every mode, dimensionality, ragged
//! extent and run-boundary block count, on any number of threads, and the
//! traced device path must agree with both.

use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::crc::crc32;
use foresight_util::Error;
use gpu_sim::{Device, GpuSpec};
use lossy_zfp::codec::{block_cells, decode_block, encode_block, BlockCoding};
use lossy_zfp::gpu_exec::{compress_on, decompress_on};
use lossy_zfp::{compress, decompress, Dims3, ZfpConfig};
use rayon::ThreadPoolBuilder;

/// Blocks per work item in `lossy_zfp::stream`; the block counts below
/// sit on either side of it.
const G: usize = 1024;

fn block_origins(dims: Dims3) -> Vec<[usize; 3]> {
    let [nx, ny, nz] = dims.extents();
    let mut origins = Vec::new();
    for bz in 0..nz.div_ceil(4) {
        for by in 0..ny.div_ceil(4) {
            for bx in 0..nx.div_ceil(4) {
                origins.push([bx * 4, by * 4, bz * 4]);
            }
        }
    }
    origins
}

/// Block-local sample offsets `(dx, dy, dz)` in coding order.
fn cells(d: u8) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..block_cells(d)).map(|i| (i % 4, i / 4 % 4, i / 16))
}

fn oracle_compress(data: &[f32], dims: Dims3, cfg: &ZfpConfig) -> Vec<u8> {
    let d = dims.ndim();
    let [nx, ny, nz] = dims.extents();
    let coding = BlockCoding::new(&cfg.mode, d);
    let origins = block_origins(dims);
    let mut payload = BitWriter::new();
    let mut lens = Vec::new();
    for o in &origins {
        let vals: Vec<f32> = cells(d)
            .map(|(dx, dy, dz)| {
                let x = (o[0] + dx).min(nx - 1);
                let y = (o[1] + dy).min(ny - 1);
                let z = (o[2] + dz).min(nz - 1);
                data[x + nx * (y + ny * z)]
            })
            .collect();
        let mut w = BitWriter::new();
        let used = encode_block(&vals, &coding, &mut w).expect("finite input");
        let bytes = w.into_bytes();
        for i in 0..used as usize {
            payload.write_bit(bytes[i / 8] >> (i % 8) & 1 != 0);
        }
        lens.push(used);
    }
    let payload = payload.into_bytes();

    let mut out = Vec::new();
    out.extend_from_slice(b"ZFPR");
    out.extend_from_slice(&[2, cfg.mode.tag(), d, 0]);
    for e in dims.extents() {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    out.extend_from_slice(&cfg.mode.param().to_le_bytes());
    out.extend_from_slice(&(origins.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    let hcrc = crc32(&out);
    out.extend_from_slice(&hcrc.to_le_bytes());
    if !coding.fixed_rate {
        for l in &lens {
            out.extend_from_slice(&l.to_le_bytes());
        }
    }
    out.extend_from_slice(&payload);
    out
}

/// Decodes a stream the oracle way. The header is trusted: the streams
/// here come from the encoders above.
fn oracle_decompress(stream: &[u8], dims: Dims3, cfg: &ZfpConfig) -> Vec<f32> {
    let d = dims.ndim();
    let [nx, ny, nz] = dims.extents();
    let coding = BlockCoding::new(&cfg.mode, d);
    let origins = block_origins(dims);
    let table = if coding.fixed_rate { 0 } else { origins.len() * 4 };
    let payload = &stream[64 + table..];
    let mut out = vec![0.0f32; dims.len()];
    let mut at = 0u64;
    for (bi, o) in origins.iter().enumerate() {
        let span = if coding.fixed_rate {
            coding.maxbits
        } else {
            u32::from_le_bytes(stream[64 + bi * 4..68 + bi * 4].try_into().unwrap())
        };
        let mut r = BitReader::new(&payload[(at / 8) as usize..]);
        r.read_bits((at % 8) as u32).unwrap();
        let mut vals = vec![0.0f32; block_cells(d)];
        assert_eq!(decode_block(&mut r, &coding, span, &mut vals).unwrap(), span, "block {bi}");
        for (v, (dx, dy, dz)) in vals.iter().zip(cells(d)) {
            let (x, y, z) = (o[0] + dx, o[1] + dy, o[2] + dz);
            if x < nx && y < ny && z < nz {
                out[x + nx * (y + ny * z)] = *v;
            }
        }
        at += span as u64;
    }
    out
}

/// A field with structure at every scale plus a band of exact zeros, so
/// variable-length blocks really vary (all-zero blocks are one bit).
fn field(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if i % 97 < 11 {
                return 0.0;
            }
            let t = (i as u32).wrapping_mul(seed | 1) as f32 * 1e-9;
            (t.sin() * 300.0 + (i as f32 * 0.013).cos() * 40.0) * (1.0 + (i % 7) as f32)
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn on_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

/// Every shape class the issue names: ragged extents in each
/// dimensionality, 1×1×N, and block counts below, at and around `G` and
/// around the merged-slab item sizes in 2-D and 3-D.
fn shapes() -> Vec<Dims3> {
    vec![
        Dims3::D1(1),
        Dims3::D1(101),
        Dims3::D1(4 * G - 6),  // G - 1 blocks, the last one partial
        Dims3::D1(4 * G),      // exactly G
        Dims3::D1(4 * G + 1),  // G + 1: a one-block second run
        Dims3::D1(12 * G + 3), // several runs
        Dims3::D2(17, 9),
        Dims3::D2(3, 2),
        Dims3::D2(258, 70), // 65 x 18 blocks: two merged-slab items on decode
        Dims3::D3(13, 7, 5),
        Dims3::D3(1, 1, 50),
        Dims3::D3(50, 1, 1),
        Dims3::D3(64, 64, 21), // 256 blocks a slab: items of 4 slabs, ragged last
    ]
}

fn configs(d: u8) -> Vec<ZfpConfig> {
    let mut v = vec![
        ZfpConfig::rate(4.0),
        ZfpConfig::rate(11.0),
        ZfpConfig::precision(14),
        ZfpConfig::accuracy(0.5),
    ];
    // Block sizes that are not whole bytes: 10 bits in 1-D, 19 in 3-D.
    match d {
        1 => v.push(ZfpConfig::rate(2.5)),
        3 => v.push(ZfpConfig::rate(0.3)),
        _ => v.push(ZfpConfig::rate(0.7)),
    }
    v
}

#[test]
fn fractional_rates_give_block_sizes_that_are_not_whole_bytes() {
    use lossy_zfp::ZfpMode::FixedRate;
    assert_eq!(BlockCoding::new(&FixedRate(2.5), 1).maxbits, 10);
    assert_eq!(BlockCoding::new(&FixedRate(0.3), 3).maxbits, 19);
    assert_eq!(BlockCoding::new(&FixedRate(0.7), 2).maxbits, 11);
}

#[test]
fn driver_matches_the_per_block_oracle_byte_for_byte() {
    for dims in shapes() {
        let data = field(dims.len(), 0x9E37_79B9);
        for cfg in configs(dims.ndim()) {
            let want = oracle_compress(&data, dims, &cfg);
            let got = compress(&data, dims, &cfg).unwrap();
            assert!(got == want, "{dims:?} {:?}: stream bytes differ", cfg.mode);

            let (rec, rdims) = decompress(&got).unwrap();
            assert_eq!(rdims, dims);
            assert!(
                bits(&rec) == bits(&oracle_decompress(&got, dims, &cfg)),
                "{dims:?} {:?}: decoded values differ",
                cfg.mode
            );
        }
    }
}

#[test]
fn bytes_and_values_do_not_depend_on_the_thread_count() {
    for dims in [Dims3::D1(12 * G + 3), Dims3::D2(258, 70), Dims3::D3(64, 64, 21)] {
        let data = field(dims.len(), 77);
        for cfg in configs(dims.ndim()) {
            let base = on_threads(1, || compress(&data, dims, &cfg).unwrap());
            let base_rec = on_threads(1, || decompress(&base).unwrap().0);
            for threads in [2, 4] {
                let stream = on_threads(threads, || compress(&data, dims, &cfg).unwrap());
                assert!(stream == base, "{dims:?} {:?} on {threads} threads", cfg.mode);
                let rec = on_threads(threads, || decompress(&stream).unwrap().0);
                assert!(bits(&rec) == bits(&base_rec), "{dims:?} {:?} on {threads}", cfg.mode);
            }
        }
    }
}

#[test]
fn device_path_matches_the_host_path() {
    for dims in [Dims3::D1(4 * G + 1), Dims3::D2(258, 70), Dims3::D3(13, 7, 5)] {
        let data = field(dims.len(), 5);
        for cfg in configs(dims.ndim()) {
            let host = compress(&data, dims, &cfg).unwrap();
            let mut dev = Device::new(GpuSpec::tesla_v100());
            let (traced, _) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            assert!(traced == host, "{dims:?} {:?}", cfg.mode);
            let (rec, rdims, _) = decompress_on(&mut dev, &traced).unwrap();
            assert_eq!(rdims, dims);
            assert!(bits(&rec) == bits(&decompress(&host).unwrap().0), "{dims:?} {:?}", cfg.mode);
        }
    }
}

#[test]
fn empty_arrays_roundtrip() {
    for dims in [Dims3::D1(0), Dims3::D2(0, 7), Dims3::D3(5, 0, 3), Dims3::D3(5, 3, 0)] {
        for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(10)] {
            let stream = compress(&[], dims, &cfg).unwrap();
            assert_eq!(stream.len(), 64);
            let (rec, rdims) = decompress(&stream).unwrap();
            assert_eq!(rdims, dims);
            assert!(rec.is_empty());
        }
    }
}

/// ZFP has no representation for NaN or ±inf and the stream no side
/// channel, so they are a typed error naming the first offending index —
/// the same one on every path and thread count.
#[test]
fn non_finite_input_is_a_typed_error_in_every_mode() {
    let dims = Dims3::D3(20, 12, 9);
    for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(16), ZfpConfig::accuracy(1e-3)] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            // Two bad values: the later block order comes first in memory.
            let mut data = field(dims.len(), 3);
            let (first, second) = (20 * 12 * 2 + 7, 20 * 12 * 8 + 19);
            data[first] = bad;
            data[second] = f32::NAN;
            for threads in [1, 2, 4] {
                let err = on_threads(threads, || compress(&data, dims, &cfg)).unwrap_err();
                assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
                assert!(err.to_string().contains(&format!("value {first} ")), "{err}");
            }
            let mut dev = Device::new(GpuSpec::tesla_v100());
            let err = compress_on(&mut dev, &data, dims, &cfg).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
            assert!(err.to_string().contains(&format!("value {first} ")), "{err}");
            assert_eq!(dev.allocated_bytes(), 0, "a refused input must not leak device buffers");
        }
    }
    // The extremes of the finite range are data, not errors.
    let edge = [f32::MAX, f32::MIN, f32::MIN_POSITIVE, -0.0, 1e-45, 0.0, 1.0, -1.0];
    let stream = compress(&edge, Dims3::D1(8), &ZfpConfig::rate(32.0)).unwrap();
    assert!(decompress(&stream).unwrap().0.iter().all(|v| v.is_finite()));
}
