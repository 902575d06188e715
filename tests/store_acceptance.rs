//! Region-read acceptance: chunk-granular access must touch a small,
//! provable fraction of the archive.
//!
//! A chunk-cube subvolume of a large 3-D field, deliberately unaligned
//! with the chunk grid (offset by half a chunk per axis, so it straddles
//! 2×2×2 = 8 chunks), is read through [`StoreReader::read_region`]. The
//! read must decode only those 8 intersecting chunks — under 2% of the
//! full-field decode bytes on the 8×8×8 chunk grid used here — and the
//! returned values must be byte-identical to slicing the full decode.
//!
//! The release profile runs the paper-scale geometry (512^3 field, 64^3
//! chunks); debug builds shrink to 256^3 / 32^3 — the same 8×8×8 chunk
//! grid and the same 1.5625% touched fraction — to stay fast under
//! unoptimized codecs.

use foresight::{ChunkCodec, FieldShape, Region, StoreReader, StoreWriter};
use foresight_store::ChunkGrid;
use foresight_util::telemetry;
use lossy_sz::{ErrorBound, SzConfig};

#[cfg(not(debug_assertions))]
const N_SIDE: usize = 512;
#[cfg(not(debug_assertions))]
const CHUNK: usize = 64;

#[cfg(debug_assertions)]
const N_SIDE: usize = 256;
#[cfg(debug_assertions)]
const CHUNK: usize = 32;

/// Deterministic field: smooth ramps plus integer-PRNG noise (no libm,
/// so identical bytes on every platform).
fn acceptance_field() -> Vec<f32> {
    let n = N_SIDE * N_SIDE * N_SIDE;
    let mut s = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 40) as f32 / 16_777_216.0 - 0.5;
            let x = (i % N_SIDE) as f32 / N_SIDE as f32;
            let y = ((i / N_SIDE) % N_SIDE) as f32 / N_SIDE as f32;
            let z = (i / (N_SIDE * N_SIDE)) as f32 / N_SIDE as f32;
            60.0 * (x * y - 0.25 * z) + 15.0 * (x * x + z * z) + 0.3 * noise
        })
        .collect()
}

#[test]
fn unaligned_region_read_touches_under_two_percent() {
    let data = acceptance_field();
    let shape = FieldShape::d3(N_SIDE, N_SIDE, N_SIDE);
    let mut w = StoreWriter::new();
    w.add_field(0, "rho", &data, shape, [CHUNK, CHUNK, CHUNK], &ChunkCodec::sz_abs(1e-2))
        .unwrap();
    drop(data);
    let archive = w.finish().unwrap();
    let reader = StoreReader::from_bytes(archive).unwrap();

    // A chunk-sized cube offset by half a chunk per axis: worst-case
    // alignment, straddling exactly 2 chunks per axis.
    let lo = CHUNK + CHUNK / 2;
    let region = Region::new([lo; 3], [lo + CHUNK; 3]).unwrap();

    telemetry::reset();
    telemetry::enable();
    let (sub, stats) = reader.read_region(0, "rho", region).unwrap();
    let snap = telemetry::snapshot();
    telemetry::reset();

    let chunks_per_axis = N_SIDE / CHUNK;
    assert_eq!(stats.chunks_in_field, (chunks_per_axis * chunks_per_axis * chunks_per_axis) as u64);
    assert_eq!(stats.chunks_decoded, 8, "an unaligned chunk cube straddles exactly 8 chunks");
    assert_eq!(sub.len(), CHUNK * CHUNK * CHUNK);

    // Work accounting: the read materialized only the 8 intersecting
    // chunks — under 2% of what a full-field decode would touch.
    let full_decode_bytes = (N_SIDE * N_SIDE * N_SIDE * 4) as u64;
    assert_eq!(stats.bytes_touched, (8 * CHUNK * CHUNK * CHUNK * 4) as u64);
    let fraction = stats.bytes_touched as f64 / full_decode_bytes as f64;
    assert!(
        fraction < 0.02,
        "region read touched {:.4}% of the full decode (limit 2%)",
        fraction * 100.0
    );
    // The same numbers must flow through the telemetry counters.
    assert_eq!(snap.metrics.counter("store.bytes_touched"), stats.bytes_touched);
    assert_eq!(snap.metrics.counter("store.chunks_decoded"), stats.chunks_decoded);
    assert_eq!(snap.metrics.counter("store.chunks_read"), stats.chunks_intersected);
    assert_eq!(snap.metrics.counter("store.cache.misses"), 8, "the reader was cold");
    assert_eq!(snap.metrics.counter("store.cache.hits"), 0);
    assert_eq!(snap.metrics.counter("store.bytes_returned"), stats.bytes_returned);

    // Correctness: byte-identical to slicing the full decode. The
    // extract is larger than the cache budget, so it inserts nothing,
    // but the region read's 8 chunks are resident and served as hits.
    let (full, full_stats) = reader.extract(0, "rho").unwrap();
    assert_eq!(full_stats.chunks_intersected, full_stats.chunks_in_field);
    assert_eq!(full_stats.cache_hits(), 8);
    let mut expected = Vec::with_capacity(sub.len());
    for z in lo..lo + CHUNK {
        for y in lo..lo + CHUNK {
            for x in lo..lo + CHUNK {
                expected.push(full[x + N_SIDE * (y + N_SIDE * z)]);
            }
        }
    }
    assert!(
        sub.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits()),
        "region read diverged from the full-decode slice"
    );
}

/// What a version-1 archive returned for a field: every chunk its own
/// whole `SZRS` stream at the bound the field resolves to, decoded alone.
fn whole_stream_decode(data: &[f32], shape: FieldShape, cfg: &SzConfig) -> Vec<f32> {
    let grid = ChunkGrid::new(shape, [16; 3]).unwrap();
    let mode = match cfg.mode {
        ErrorBound::Rel(_) => ErrorBound::Abs(lossy_sz::abs_bound(data, cfg.mode)),
        other => other,
    };
    let cfg = SzConfig { mode, ..cfg.clone() };
    let full = Region::full(shape);
    let mut out = vec![0f32; shape.len()];
    for idx in grid.intersecting(&full) {
        let stream =
            lossy_sz::compress(&grid.gather(data, idx), grid.chunk_shape_at(idx), &cfg).unwrap();
        grid.scatter_into(&lossy_sz::decompress(&stream).unwrap().0, idx, &full, &mut out);
    }
    out
}

/// A version-2 archive codes an SZ field's chunks against one codebook;
/// only the framing of the entropy stage moved, so every value read back
/// is bit for bit what whole per-chunk streams decode to — through
/// `extract`, every region class of the benchmark (32^3 cube, plane,
/// chunk, pencil), `serve` and `serve_cluster`, on 1, 2 and 4 threads.
#[test]
fn shared_codebook_reads_equal_whole_stream_chunks_everywhere() {
    use foresight::{serve, serve_cluster, ClusterOptions, ClusterRequest, ServeCluster};
    use foresight::{ServeNode, ServeOptions, ServePayload, ServeRequest};
    use lossy_sz::EntropyBackend;

    let (nx, ny, nz) = (48, 40, 36);
    let shape = FieldShape::d3(nx, ny, nz);
    let mut data: Vec<f32> = (0..shape.len())
        .map(|i| {
            ((i % nx) as f32 * 0.2).sin() * 30.0 + (i / (nx * ny)) as f32 - 0.01 * (i % 97) as f32
        })
        .collect();
    data[4321] = f32::NAN;
    data[999] = 0.0;
    let configs = [
        ("abs", SzConfig::abs(0.05)),
        ("rel", SzConfig::rel(1e-3)),
        ("pw_rel", SzConfig::pw_rel(1e-2)),
        ("lzss", SzConfig { entropy: EntropyBackend::HuffmanLzss, ..SzConfig::abs(0.2) }),
    ];
    let mut w = StoreWriter::new();
    for (name, cfg) in &configs {
        w.add_field(0, name, &data, shape, [16; 3], &ChunkCodec::Sz(cfg.clone())).unwrap();
    }
    let archive = w.finish().unwrap();
    let reader = std::sync::Arc::new(StoreReader::from_bytes(archive.clone()).unwrap());
    let regions = [
        Region::new([5, 3, 2], [37, 35, 34]).unwrap(),
        Region::new([0, 0, 17], [nx, ny, 18]).unwrap(),
        Region::new([16, 16, 16], [32, 32, 32]).unwrap(),
        Region::new([0, 21, 30], [nx, 22, 31]).unwrap(),
    ];
    let slice = |full: &[f32], r: &Region| -> Vec<u32> {
        let mut out = Vec::new();
        for z in r.lo[2]..r.hi[2] {
            for y in r.lo[1]..r.hi[1] {
                out.extend(
                    full[r.lo[0] + nx * (y + ny * z)..r.hi[0] + nx * (y + ny * z)]
                        .iter()
                        .map(|v| v.to_bits()),
                );
            }
        }
        out
    };
    let le_bits = |bytes: &[u8]| -> Vec<u32> {
        bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let requests: Vec<ServeRequest> = configs
        .iter()
        .flat_map(|(name, _)| regions.iter().map(move |r| (*name, *r)))
        .enumerate()
        .map(|(i, (name, region))| ServeRequest {
            id: i as u64,
            arrival_s: i as f64 * 1e-4,
            deadline_s: None,
            payload: ServePayload::StoreRead {
                store: reader.clone(),
                snapshot: 0,
                field: name.to_string(),
                region,
            },
        })
        .collect();
    let cluster_requests: Vec<ClusterRequest> = requests
        .iter()
        .map(|r| ClusterRequest { key: format!("r{}", r.id), priority: 1, req: r.clone() })
        .collect();
    let expected: Vec<Vec<f32>> =
        configs.iter().map(|(_, cfg)| whole_stream_decode(&data, shape, cfg)).collect();

    for threads in [1, 2, 4] {
        foresight_util::parallel::with_threads(threads, || {
            let fresh = StoreReader::from_bytes(archive.clone()).unwrap();
            for ((name, _), want) in configs.iter().zip(&expected) {
                let (full, _) = fresh.extract(0, name).unwrap();
                assert_eq!(bits(&full), bits(want), "{name} extract, {threads} threads");
                for r in &regions {
                    let (got, _) = fresh.read_region(0, name, *r).unwrap();
                    assert_eq!(bits(&got), slice(want, r), "{name} {r:?}, {threads} threads");
                }
            }
            let served =
                serve(&ServeNode::v100_pcie(2), &ServeOptions::default(), &requests).unwrap();
            let spec = ServeCluster::new(3, 2, ServeNode::v100_pcie(2));
            let clustered =
                serve_cluster(&spec, &ClusterOptions::default(), &cluster_requests).unwrap();
            for (i, (ci, r)) in
                (0..configs.len()).flat_map(|c| regions.iter().map(move |r| (c, r))).enumerate()
            {
                let want = slice(&expected[ci], r);
                for (how, out) in [
                    ("serve", served.response(i as u64).unwrap().output.as_ref()),
                    ("serve_cluster", clustered.response(i as u64).unwrap().output.as_ref()),
                ] {
                    let out = out.unwrap_or_else(|| panic!("{how}: request {i} not served"));
                    assert_eq!(le_bits(out), want, "{how} request {i}, {threads} threads");
                }
            }
        });
    }
}

/// Every value of a field, decoded chunk by chunk from the archive's
/// fragments as whole streams through the codec seam — no region read,
/// no cache, no block layers.
fn full_decode(reader: &StoreReader, archive: &[u8], name: &str) -> Vec<f32> {
    let entry = reader.find(0, name).unwrap();
    let full = Region::full(entry.shape());
    let mut out = vec![f32::NAN; entry.shape().len()];
    for idx in entry.grid.intersecting(&full) {
        let c = entry.chunks[entry.grid.linear(idx)];
        let fragment = &archive[c.offset as usize..(c.offset + c.len) as usize];
        let (values, _) = foresight::codec::decompress(fragment).unwrap();
        entry.grid.scatter_into(&values, idx, &full, &mut out);
    }
    out
}

/// Region reads are views of one full decode, whatever decodes them.
/// Planes, pencils, single chunks (one clamped), off-grid 32^3 cubes and
/// whole-field extracts of an SZ and a ZFP field — ZFP chunks decode in
/// layers of 4^3 blocks, so these need one layer, a few, or all — on 1,
/// 2 and 4 threads, cold (a fresh reader per read, doing exactly the
/// planned work) and warm (one reader, the reads in shuffled order),
/// return bit for bit the region's slice of `full_decode`; a read of a
/// region just read decodes nothing.
#[test]
fn region_reads_are_slices_of_one_full_decode_in_any_order_and_thread_count() {
    let (nx, ny, nz) = (48, 40, 36);
    let shape = FieldShape::d3(nx, ny, nz);
    let data: Vec<f32> = (0..shape.len())
        .map(|i| ((i % nx) as f32 * 0.2).sin() * 30.0 + (i / (nx * ny)) as f32 * 0.7)
        .collect();
    let names = ["sz", "zfp"];
    let mut w = StoreWriter::new();
    w.add_field(0, names[0], &data, shape, [16; 3], &ChunkCodec::sz_abs(0.05)).unwrap();
    w.add_field(0, names[1], &data, shape, [16; 3], &ChunkCodec::zfp_rate(8.0)).unwrap();
    let archive = w.finish().unwrap();
    let reader = StoreReader::from_bytes(archive.clone()).unwrap();
    let full: Vec<Vec<f32>> = names.iter().map(|n| full_decode(&reader, &archive, n)).collect();

    let mut regions = Vec::new();
    for z in [0, 13, 16, 35] {
        regions.push(Region::new([0, 0, z], [nx, ny, z + 1]).unwrap());
    }
    for (y, z) in [(0, 0), (21, 30), (39, 17)] {
        regions.push(Region::new([0, y, z], [nx, y + 1, z + 1]).unwrap());
    }
    regions.push(Region::new([16, 16, 16], [32, 32, 32]).unwrap());
    regions.push(Region::new([32, 32, 32], [nx, ny, nz]).unwrap());
    regions.push(Region::new([5, 3, 2], [37, 35, 34]).unwrap());
    regions.push(Region::new([13, 7, 3], [45, 39, 35]).unwrap());
    regions.push(Region::full(shape));
    let reads: Vec<(usize, Region)> =
        (0..2).flat_map(|f| regions.iter().map(move |r| (f, *r))).collect();

    let slice = |f: usize, r: &Region| -> Vec<u32> {
        let mut out = Vec::new();
        for z in r.lo[2]..r.hi[2] {
            for y in r.lo[1]..r.hi[1] {
                let row = nx * (y + ny * z);
                out.extend(full[f][row + r.lo[0]..row + r.hi[0]].iter().map(|v| v.to_bits()));
            }
        }
        out
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for threads in [1, 2, 4] {
        foresight_util::parallel::with_threads(threads, || {
            for (f, r) in &reads {
                let cold = StoreReader::from_bytes(archive.clone()).unwrap();
                let (got, stats) = cold.read_region(0, names[*f], *r).unwrap();
                assert_eq!(bits(&got), slice(*f, r), "cold {} {r:?}, {threads} threads", names[*f]);
                assert_eq!(stats, cold.plan_region(0, names[*f], *r).unwrap(), "{r:?}");
            }
            let warm = StoreReader::from_bytes(archive.clone()).unwrap();
            let mut order: Vec<usize> = (0..reads.len()).collect();
            for i in (1..order.len()).rev() {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (rng >> 33) as usize % (i + 1));
            }
            for i in order {
                let (f, r) = reads[i];
                for pass in ["first", "repeat"] {
                    let (got, stats) = warm.read_region(0, names[f], r).unwrap();
                    assert_eq!(bits(&got), slice(f, &r), "warm {pass} {} {r:?}", names[f]);
                    if pass == "repeat" {
                        let nothing =
                            (stats.chunks_decoded, stats.blocks_decoded, stats.bytes_touched);
                        assert_eq!(nothing, (0, 0, 0), "repeat of {} {r:?}", names[f]);
                    }
                }
            }
        });
    }
    // The ZFP layers are what make thin reads thin: a plane decodes one
    // layer of each chunk it crosses (16 blocks, 8 where y is clamped to
    // 8 rows), a pencil one layer of each of three.
    let plan = |r: &Region| reader.plan_region(0, names[1], *r).unwrap();
    let plane = plan(&regions[1]);
    assert_eq!((plane.blocks_decoded, plane.chunks_decoded), (6 * 16 + 3 * 8, 9));
    assert_eq!((plan(&regions[5]).blocks_decoded, plan(&regions[5]).chunks_decoded), (3 * 16, 3));
    assert_eq!(plan(&regions[7]).blocks_decoded, 64, "a whole chunk is every block");
}
