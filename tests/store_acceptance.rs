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
use foresight_util::telemetry;

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
