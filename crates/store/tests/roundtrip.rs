//! Round-trip property tests: packing is a pure re-arrangement of the
//! codecs' own streams.
//!
//! Two invariants, over arbitrary shapes × chunk shapes × codec/bound
//! combinations:
//!
//! 1. pack → extract is bit-identical to running the codec directly on
//!    each chunk (gather → compress → decompress → scatter). The
//!    container adds integrity metadata, never distortion of its own.
//! 2. A random subregion read equals the same slice of the full-field
//!    decode — chunk-granular access must be invisible to the caller.
//! 3. Any sequence of reads on one reader returns what a fresh reader
//!    returns for each — the decoded-chunk cache must be invisible too —
//!    and `ReadStats` counts only the work each call did.

use foresight_store::{
    ChunkCodec, ChunkGrid, FieldShape, ReadStats, Region, StoreReader, StoreWriter,
};
use lossy_sz::{ErrorBound, SzConfig};
use proptest::prelude::*;

fn synth(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(seed | 1) as f32 * 1e-8).sin() * 25.0 + 1.5)
        .collect()
}

fn codec_for(sel: u8) -> ChunkCodec {
    match sel % 4 {
        0 => ChunkCodec::sz_abs(1e-2),
        1 => ChunkCodec::sz_rel(1e-3),
        2 => ChunkCodec::zfp_rate(8.0),
        _ => ChunkCodec::zfp_rate(16.0),
    }
}

fn shape_for(sel: u8, a: usize, b: usize, c: usize) -> (FieldShape, [usize; 3]) {
    // Extents in 4..=20 per axis, chunks in 2..=9 — small enough for
    // debug-profile codecs, boundary-clamping chunks included.
    let (ax, bx, cx) = (4 + a % 17, 4 + b % 17, 4 + c % 17);
    let ch = |x: usize| 2 + x % 8;
    match sel % 3 {
        0 => (FieldShape::d1(ax * bx), [ch(a), 1, 1]),
        1 => (FieldShape::d2(ax, bx), [ch(a), ch(b), 1]),
        _ => (FieldShape::d3(ax, bx, cx), [ch(a), ch(b), ch(c)]),
    }
}

/// The expected full-field decode, built with the codec APIs directly:
/// per chunk, gather → compress → decompress → scatter. An SZ bound is
/// the one the field resolves to (REL of the whole field's range), as the
/// writer applies it to every chunk.
fn direct_decode(
    data: &[f32],
    shape: FieldShape,
    chunk: [usize; 3],
    codec: &ChunkCodec,
) -> Vec<f32> {
    let codec = &match codec {
        ChunkCodec::Sz(cfg) if matches!(cfg.mode, ErrorBound::Rel(_)) => ChunkCodec::Sz(SzConfig {
            mode: ErrorBound::Abs(lossy_sz::abs_bound(data, cfg.mode)),
            ..cfg.clone()
        }),
        other => other.clone(),
    };
    let grid = ChunkGrid::new(shape, chunk).unwrap();
    let full = Region::full(shape);
    let mut out = vec![0f32; shape.len()];
    for idx in grid.intersecting(&full) {
        let stream = codec.compress_chunk(&grid.gather(data, idx), grid.chunk_shape_at(idx)).unwrap();
        let values = match codec {
            ChunkCodec::Sz(_) => lossy_sz::decompress(&stream).unwrap().0,
            ChunkCodec::Zfp(_) => lossy_zfp::decompress(&stream).unwrap().0,
        };
        grid.scatter_into(&values, idx, &full, &mut out);
    }
    out
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: the container reproduces the codec's own output
    /// bit for bit, for every shape/chunk/codec combination.
    #[test]
    fn pack_extract_matches_direct_codec(
        sel in any::<u8>(),
        csel in any::<u8>(),
        a in any::<usize>(), b in any::<usize>(), c in any::<usize>(),
        seed in any::<u32>(),
    ) {
        let (shape, chunk) = shape_for(sel, a, b, c);
        let codec = codec_for(csel);
        let data = synth(shape.len(), seed);

        let mut w = StoreWriter::new();
        w.add_field(9, "field", &data, shape, chunk, &codec).unwrap();
        let reader = StoreReader::from_bytes(w.finish().unwrap()).unwrap();
        let (packed, stats) = reader.extract(9, "field").unwrap();

        let direct = direct_decode(&data, shape, chunk, &codec);
        prop_assert_eq!(bits(&packed), bits(&direct));
        prop_assert_eq!(stats.chunks_decoded, stats.chunks_in_field);
        prop_assert_eq!(stats.bytes_returned, (shape.len() as u64) * 4);
    }

    /// Invariant 2: a random subregion read equals the same slice of
    /// the full decode, bit for bit, with bounded work accounting.
    #[test]
    fn region_read_matches_full_decode_slice(
        sel in any::<u8>(),
        csel in any::<u8>(),
        a in any::<usize>(), b in any::<usize>(), c in any::<usize>(),
        seed in any::<u32>(),
        rsel in prop::collection::vec(any::<u32>(), 6),
    ) {
        let (shape, chunk) = shape_for(sel, a, b, c);
        let codec = codec_for(csel);
        let data = synth(shape.len(), seed);

        let mut w = StoreWriter::new();
        w.add_field(0, "f", &data, shape, chunk, &codec).unwrap();
        let reader = StoreReader::from_bytes(w.finish().unwrap()).unwrap();
        let (full, _) = reader.extract(0, "f").unwrap();

        // A random non-empty subregion per axis.
        let ext = shape.extents();
        let mut lo = [0usize; 3];
        let mut hi = [1usize; 3];
        for axis in 0..3 {
            if ext[axis] <= 1 {
                continue;
            }
            let x0 = rsel[axis] as usize % ext[axis];
            let x1 = rsel[axis + 3] as usize % ext[axis];
            lo[axis] = x0.min(x1);
            hi[axis] = x0.max(x1) + 1;
        }
        let region = Region::new(lo, hi).unwrap();
        let (sub, stats) = reader.read_region(0, "f", region).unwrap();

        // Slice the full decode by hand (x fastest).
        let rext = region.extents();
        let mut expected = Vec::with_capacity(rext[0] * rext[1] * rext[2]);
        for z in lo[2]..hi[2] {
            for y in lo[1]..hi[1] {
                for x in lo[0]..hi[0] {
                    expected.push(full[x + ext[0] * (y + ext[1] * z)]);
                }
            }
        }
        prop_assert_eq!(bits(&sub), bits(&expected));
        // The extract above left every chunk resident, so this read did
        // no decode; the plan carries the cacheless accounting.
        let planned = reader.plan_region(0, "f", region).unwrap();
        prop_assert_eq!((stats.chunks_decoded, stats.bytes_touched), (0, 0));
        prop_assert_eq!(stats.chunks_intersected, planned.chunks_decoded);
        prop_assert!(planned.chunks_decoded <= planned.chunks_in_field);
        prop_assert!(planned.bytes_touched >= planned.bytes_returned);
        prop_assert_eq!(stats.bytes_returned, (expected.len() as u64) * 4);
    }

    /// Invariant 3: any read sequence (repeats, overlaps, full extracts;
    /// an SZ and a ZFP field of one 1-D/2-D/3-D shape with clamped edge
    /// chunks) on one reader equals a fresh reader per read, under 1 and
    /// 4 threads, and the stats tell hits from decodes.
    #[test]
    fn cached_reads_match_fresh_readers_for_any_read_order(
        sel in any::<u8>(),
        a in any::<usize>(), b in any::<usize>(), c in any::<usize>(),
        seed in any::<u32>(),
        ops in prop::collection::vec(prop::collection::vec(any::<u32>(), 8), 1..10),
    ) {
        let (shape, chunk) = shape_for(sel, a, b, c);
        let data = synth(shape.len(), seed);
        let mut w = StoreWriter::new();
        w.add_field(0, "sz", &data, shape, chunk, &ChunkCodec::sz_abs(1e-2)).unwrap();
        w.add_field(0, "zfp", &data, shape, chunk, &ChunkCodec::zfp_rate(8.0)).unwrap();
        let archive = w.finish().unwrap();

        let ext = shape.extents();
        for threads in [1, 4] {
            let reader = StoreReader::from_bytes(archive.clone()).unwrap();
            foresight_util::parallel::with_threads(threads, || {
                for op in &ops {
                    let name = if op[0] % 2 == 0 { "sz" } else { "zfp" };
                    let region = if op[1] % 4 == 0 {
                        Region::full(shape)
                    } else {
                        let (mut lo, mut hi) = ([0usize; 3], [1usize; 3]);
                        for axis in 0..3 {
                            let x0 = op[2 + axis] as usize % ext[axis];
                            let x1 = op[5 + axis] as usize % ext[axis];
                            lo[axis] = x0.min(x1);
                            hi[axis] = x0.max(x1) + 1;
                        }
                        Region::new(lo, hi).unwrap()
                    };
                    let planned = reader.plan_region(0, name, region).unwrap();
                    let fresh = StoreReader::from_bytes(archive.clone()).unwrap();
                    let (want, cold) = fresh.read_region(0, name, region).unwrap();
                    prop_assert_eq!(cold, planned, "a cold read does exactly the planned work");

                    let (got, stats) = reader.read_region(0, name, region).unwrap();
                    prop_assert_eq!(bits(&got), bits(&want));
                    prop_assert!(stats.chunks_decoded <= stats.chunks_intersected);
                    prop_assert!(stats.bytes_touched <= planned.bytes_touched);
                    prop_assert_eq!(stats.cache_hits(), planned.chunks_decoded - stats.chunks_decoded);
                    let work = |s: ReadStats| ReadStats {
                        chunks_decoded: 0,
                        blocks_decoded: 0,
                        compressed_bytes_read: 0,
                        bytes_touched: 0,
                        ..s
                    };
                    prop_assert_eq!(work(stats), work(planned));

                    // The field is far smaller than the budget, so a
                    // repeat is fully warm: no decode, nothing touched.
                    let (again, warm) = reader.read_region(0, name, region).unwrap();
                    prop_assert_eq!(bits(&again), bits(&want));
                    prop_assert_eq!(work(warm), warm, "a warm read decodes nothing");
                    prop_assert_eq!(warm.cache_hits(), planned.chunks_decoded);
                }
            });
        }
    }
}

/// A ZFP field holding a NaN or an infinity is refused with a typed error
/// (ZFP has no representation for them); the writer drops that field only
/// and still seals what it already holds.
#[test]
fn zfp_field_with_non_finite_values_is_refused_and_the_writer_survives() {
    use foresight_util::Error;
    use lossy_zfp::ZfpConfig;
    let shape = FieldShape::d3(12, 10, 9);
    let good = synth(shape.len(), 7);
    let mut w = StoreWriter::new();
    w.add_field(0, "good", &good, shape, [8, 8, 8], &ChunkCodec::zfp_rate(8.0)).unwrap();
    for cfg in [ZfpConfig::rate(8.0), ZfpConfig::precision(16), ZfpConfig::accuracy(1e-3)] {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut data = good.clone();
            data[500] = bad;
            let err =
                w.add_field(0, "bad", &data, shape, [8, 8, 8], &ChunkCodec::Zfp(cfg)).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        }
    }
    let reader = StoreReader::from_bytes(w.finish().unwrap()).unwrap();
    assert_eq!(reader.fields().len(), 1);
    assert_eq!(reader.extract(0, "good").unwrap().0.len(), good.len());
}

/// A field with a zero extent, or a bad chunk shape, is refused at
/// `add_field` as an invalid argument, as the directory parser would
/// refuse it on open; the writer still seals an archive that opens.
#[test]
fn zero_extent_field_is_refused_and_the_archive_still_opens() {
    use foresight_util::Error;
    let mut w = StoreWriter::new();
    for shape in [FieldShape::d1(0), FieldShape::d2(4, 0), FieldShape::d3(0, 3, 3)] {
        let chunk = match shape.ndim() {
            1 => [4, 1, 1],
            2 => [4, 4, 1],
            _ => [4, 4, 4],
        };
        for codec in [ChunkCodec::sz_abs(1e-2), ChunkCodec::zfp_rate(8.0)] {
            let err = w.add_field(0, "empty", &[], shape, chunk, &codec).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{shape:?}: {err}");
        }
    }
    // A chunk shape with a zero extent, or an extent other than 1 on an
    // axis the field does not use, is the caller's mistake as well.
    let data = [1.5f32; 16];
    for (shape, chunk) in [
        (FieldShape::d3(4, 2, 2), [0, 2, 2]),
        (FieldShape::d2(4, 4), [4, 0, 1]),
        (FieldShape::d1(16), [4, 2, 1]),
        (FieldShape::d2(4, 4), [2, 2, 3]),
    ] {
        for codec in [ChunkCodec::sz_abs(1e-2), ChunkCodec::zfp_rate(8.0)] {
            let err = w.add_field(0, "bad chunk", &data, shape, chunk, &codec).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{shape:?} {chunk:?}: {err}");
        }
    }
    w.add_field(0, "one", &[1.5], FieldShape::d1(1), [4, 1, 1], &ChunkCodec::sz_abs(1e-2)).unwrap();
    let reader = StoreReader::from_bytes(w.finish().unwrap()).unwrap();
    assert_eq!(reader.fields().len(), 1);
}

/// Sealing fans out (chunk CRCs per chunk, payload digests per field,
/// dealt to workers by payload size): five fields of unequal size must
/// seal to the same bytes, and verify to the same tally, on any worker
/// count — fewer workers than fields, as many, and more.
#[test]
fn sealed_bytes_and_verify_tally_do_not_depend_on_the_thread_count() {
    let seal = || {
        let mut w = StoreWriter::new();
        for (i, planes) in [2usize, 12, 1, 6, 12].into_iter().enumerate() {
            let shape = FieldShape::d3(8, 8, planes);
            let data = synth(shape.len(), 77 + i as u32);
            let (name, codec) = (format!("f{i}"), codec_for(i as u8));
            w.add_field(i as u32 / 2, &name, &data, shape, [4, 4, 4], &codec).unwrap();
        }
        w.finish().unwrap()
    };
    let reference = foresight_util::parallel::with_threads(1, seal);
    for threads in [2, 4, 5, 9] {
        foresight_util::parallel::with_threads(threads, || {
            assert!(seal() == reference, "archive bytes differ on {threads} threads");
            let check = StoreReader::from_bytes(reference.clone()).unwrap().verify().unwrap();
            assert_eq!((check.fields_ok, check.chunks_ok), (5, 4 * (1 + 3 + 1 + 2 + 3)));
        });
    }
}
