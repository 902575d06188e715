//! Mutation fuzzing of the archive container decoder.
//!
//! Start from valid archives, then truncate, bit-flip, splice, and
//! rewrite windows of bytes; also forge directories with hostile chunk
//! tables (overlapping fragments, out-of-bounds extents, wrong chunk
//! counts) whose CRCs and manifest digests are all *valid*. The
//! container must never panic, never allocate past the bytes actually
//! present, and must fail closed with a typed error: every byte of an
//! archive is covered by the superblock CRC, the manifest SHA-256, the
//! directory CRC, or a chunk CRC, so every mutation must surface as
//! `Err` from opening or from reading — never as silently wrong data.

use foresight_store::{
    ChunkCodec, ChunkGrid, ChunkRef, CodecKind, Directory, FieldEntry, FieldShape, Region,
    StoreReader, StoreWriter, Superblock,
};
use foresight_store::format::{BoundSpec, SUPERBLOCK_LEN, VERSION};
use foresight_util::sha256::sha256;
use proptest::prelude::*;
use std::sync::OnceLock;

const VARIANTS: usize = 6;

/// A modest valid corpus: both codecs over 1-D/2-D/3-D fields, chunk
/// shapes that exercise boundary clamping, and a two-field archive.
fn make_archive(variant: usize) -> &'static [u8] {
    static CORPUS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    &CORPUS.get_or_init(|| {
        (0..VARIANTS)
            .map(|v| {
                let data: Vec<f32> = (0..512)
                    .map(|i| ((i as f32) * 0.07 + v as f32).sin() * 30.0)
                    .collect();
                let codec = match v % 2 {
                    0 => ChunkCodec::sz_abs(1e-2),
                    _ => ChunkCodec::zfp_rate(8.0),
                };
                let (shape, chunk) = match v % 3 {
                    0 => (FieldShape::d1(512), [100, 1, 1]),
                    1 => (FieldShape::d2(32, 16), [10, 6, 1]),
                    _ => (FieldShape::d3(8, 8, 8), [4, 4, 4]),
                };
                let mut w = StoreWriter::new();
                w.add_field(1, "alpha", &data, shape, chunk, &codec).unwrap();
                if v >= 3 {
                    w.add_field(2, "beta", &data[..256], FieldShape::d3(8, 8, 4), [4, 4, 4], &codec)
                        .unwrap();
                }
                w.finish().unwrap()
            })
            .collect()
    })[variant]
}

/// Opens an archive image and extracts every field. Fragment corruption
/// only surfaces at read time (chunk CRCs), so fuzz checks must drive
/// both the open path and the read path.
fn open_and_extract_all(bytes: &[u8]) -> foresight_util::Result<usize> {
    let reader = StoreReader::from_bytes(bytes.to_vec())?;
    let keys: Vec<(u32, String)> =
        reader.fields().iter().map(|f| (f.snapshot, f.name.clone())).collect();
    let mut total = 0usize;
    for (snapshot, name) in keys {
        let (values, _) = reader.extract(snapshot, &name)?;
        total += values.len();
    }
    Ok(total)
}

/// Seals a hand-built directory into a syntactically perfect archive:
/// correct superblock CRC, correct manifest SHA-256, correct directory
/// CRC. Only semantic validation can reject it.
fn forge_archive(fields: Vec<FieldEntry>, frag_bytes: usize) -> Vec<u8> {
    let dir = Directory { fields }.encode();
    let dir_offset = SUPERBLOCK_LEN + frag_bytes;
    let sb = Superblock {
        version: VERSION,
        dir_offset: dir_offset as u64,
        dir_len: dir.len() as u64,
        archive_len: (dir_offset + dir.len()) as u64,
        dir_sha256: sha256(&dir),
    };
    let mut out = sb.encode();
    out.extend_from_slice(&vec![0xAAu8; frag_bytes]);
    out.extend_from_slice(&dir);
    out
}

fn forged_entry(chunks: Vec<ChunkRef>) -> FieldEntry {
    FieldEntry {
        snapshot: 1,
        name: "forged".into(),
        grid: ChunkGrid::new(FieldShape::d3(8, 8, 8), [4, 4, 8]).unwrap(),
        codec: CodecKind::Sz,
        bound: BoundSpec { tag: 0, value: 1e-3 },
        payload_sha256: [0u8; 32],
        chunks,
    }
}

#[test]
fn forged_overlapping_fragments_rejected() {
    // Two chunk refs aliasing the same bytes — an amplification trick.
    let chunks = vec![
        ChunkRef { offset: 68, len: 100, crc32: 0 },
        ChunkRef { offset: 100, len: 100, crc32: 0 },
        ChunkRef { offset: 268, len: 100, crc32: 0 },
        ChunkRef { offset: 368, len: 100, crc32: 0 },
    ];
    let err = StoreReader::from_bytes(forge_archive(vec![forged_entry(chunks)], 400)).unwrap_err();
    assert!(err.to_string().contains("overlap"), "{err}");
}

#[test]
fn forged_out_of_bounds_fragment_rejected() {
    // Last chunk points past the fragment region into the directory.
    let chunks = vec![
        ChunkRef { offset: 68, len: 100, crc32: 0 },
        ChunkRef { offset: 168, len: 100, crc32: 0 },
        ChunkRef { offset: 268, len: 100, crc32: 0 },
        ChunkRef { offset: 468, len: 10_000, crc32: 0 },
    ];
    let err = StoreReader::from_bytes(forge_archive(vec![forged_entry(chunks)], 400)).unwrap_err();
    assert!(err.to_string().contains("fragment"), "{err}");
}

#[test]
fn forged_fragment_inside_superblock_rejected() {
    let chunks = vec![
        ChunkRef { offset: 0, len: 60, crc32: 0 },
        ChunkRef { offset: 168, len: 100, crc32: 0 },
        ChunkRef { offset: 268, len: 100, crc32: 0 },
        ChunkRef { offset: 368, len: 100, crc32: 0 },
    ];
    assert!(StoreReader::from_bytes(forge_archive(vec![forged_entry(chunks)], 400)).is_err());
}

#[test]
fn forged_wrong_chunk_count_rejected() {
    // The 4x4x8 grid over 8x8x8 has 4 chunks; list only 2.
    let chunks = vec![
        ChunkRef { offset: 68, len: 100, crc32: 0 },
        ChunkRef { offset: 168, len: 100, crc32: 0 },
    ];
    let err = StoreReader::from_bytes(forge_archive(vec![forged_entry(chunks)], 400)).unwrap_err();
    assert!(err.to_string().contains("chunks"), "{err}");
}

#[test]
fn forged_chunk_crc_fails_at_read_not_open() {
    // A structurally valid archive whose fragment bytes (0xAA filler)
    // do not match the chunk CRCs: opening succeeds (the directory is
    // sound), but every read must fail closed on the chunk CRC.
    let chunks = (0..4)
        .map(|i| ChunkRef { offset: 68 + i * 100, len: 100, crc32: 0xDEAD_BEEF })
        .collect();
    let archive = forge_archive(vec![forged_entry(chunks)], 400);
    let reader = StoreReader::from_bytes(archive).unwrap();
    let err = reader.extract(1, "forged").unwrap_err();
    assert!(err.to_string().contains("CRC"), "{err}");
    assert!(reader.verify().is_err());
}

/// A 12x8x8 field in 4^3 chunks (12 of them) whose chunks `corrupt`
/// each had one payload byte flipped: the directory, its CRC and the
/// manifest digest are all still valid, only those chunks' CRCs are not.
fn archive_with_corrupt_chunks(codec: &ChunkCodec, corrupt: &[usize]) -> (Vec<u8>, Vec<u8>) {
    let data: Vec<f32> = (0..768).map(|i| (i as f32 * 0.05).cos() * 12.0).collect();
    let mut w = StoreWriter::new();
    w.add_field(0, "f", &data, FieldShape::d3(12, 8, 8), [4, 4, 4], codec).unwrap();
    let clean = w.finish().unwrap();
    let mut bad = clean.clone();
    let reader = StoreReader::from_bytes(clean.clone()).unwrap();
    for &id in corrupt {
        let c = reader.find(0, "f").unwrap().chunks[id];
        bad[(c.offset + c.len / 2) as usize] ^= 0x10;
    }
    (clean, bad)
}

/// The 4^3 box of chunk `id` in the 3x2x2 grid.
fn chunk_region(id: usize) -> Region {
    let lo = [id % 3 * 4, id / 3 % 2 * 4, id / 6 * 4];
    Region::new(lo, lo.map(|v| v + 4)).unwrap()
}

#[test]
fn corrupt_chunk_fails_every_read_that_touches_it_and_is_never_cached() {
    for codec in [ChunkCodec::sz_abs(1e-2), ChunkCodec::zfp_rate(8.0)] {
        let (clean, bad) = archive_with_corrupt_chunks(&codec, &[4]);
        let path = std::env::temp_dir().join(format!("fstr-corrupt-{}.fstr", std::process::id()));
        std::fs::write(&path, &bad).unwrap();
        let from_file = StoreReader::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let clean = StoreReader::from_bytes(clean).unwrap();

        for reader in [StoreReader::from_bytes(bad).unwrap(), from_file] {
            // Neighbours first, so the failing reads below run against a
            // cache that already holds every other chunk they touch.
            for id in [3, 5, 1, 7] {
                let (got, cold) = reader.read_region(0, "f", chunk_region(id)).unwrap();
                assert_eq!(got, clean.read_region(0, "f", chunk_region(id)).unwrap().0);
                assert_eq!(cold.chunks_decoded, 1);
                let (_, warm) = reader.read_region(0, "f", chunk_region(id)).unwrap();
                assert_eq!((warm.chunks_decoded, warm.cache_hits()), (0, 1), "neighbour is cacheable");
            }
            let touching = [
                chunk_region(4),
                Region::new([3, 3, 1], [9, 5, 3]).unwrap(),
                Region::full(FieldShape::d3(12, 8, 8)),
            ];
            for round in 0..3 {
                for region in touching {
                    let err = reader.read_region(0, "f", region).unwrap_err();
                    assert!(
                        matches!(err, foresight_util::Error::Corrupt(_))
                            && err.to_string().contains("chunk 4 "),
                        "round {round} {region:?}: {err}"
                    );
                }
            }
            assert!(reader.read_region(0, "f", chunk_region(3)).is_ok());
            assert!(reader.verify().is_err());
        }
    }
}

#[test]
fn two_corrupt_chunks_report_the_lower_id_under_any_thread_count() {
    let (_, bad) = archive_with_corrupt_chunks(&ChunkCodec::sz_abs(1e-2), &[9, 2]);
    for threads in [1, 2, 4, 7] {
        let reader = StoreReader::from_bytes(bad.clone()).unwrap();
        foresight_util::parallel::with_threads(threads, || {
            for _ in 0..2 {
                let err = reader.extract(0, "f").unwrap_err();
                assert!(err.to_string().contains("chunk 2 "), "{threads} threads: {err}");
            }
            // With chunk 2 out of the region, chunk 9 is the one reported.
            let upper = Region::new([0, 0, 4], [12, 8, 8]).unwrap();
            let err = reader.read_region(0, "f", upper).unwrap_err();
            assert!(err.to_string().contains("chunk 9 "), "{threads} threads: {err}");
        });
    }

    // `verify` fans out per field: with the corruptions in two different
    // fields (chunk 5 of "b", chunk 1 of "c"), the verdict is the one of
    // the lower field in directory order, whichever worker finishes first.
    let data: Vec<f32> = (0..1536).map(|i| (i as f32 * 0.05).sin() * 25.0).collect();
    let mut w = StoreWriter::new();
    let fields = [
        ("a", 256, ChunkCodec::zfp_rate(8.0)),
        ("b", 768, ChunkCodec::sz_abs(1e-2)),
        ("c", 1536, ChunkCodec::zfp_rate(12.0)),
    ];
    for (name, len, codec) in &fields {
        let shape = FieldShape::d3(8, 8, len / 64);
        w.add_field(0, name, &data[..*len], shape, [4, 4, 4], codec).unwrap();
    }
    let clean = w.finish().unwrap();
    let mut bad = clean.clone();
    let reader = StoreReader::from_bytes(clean).unwrap();
    for (name, id) in [("c", 1), ("b", 5)] {
        let c = reader.find(0, name).unwrap().chunks[id];
        bad[(c.offset + c.len / 2) as usize] ^= 0x10;
    }
    let bad = StoreReader::from_bytes(bad).unwrap();
    for threads in [1, 2, 4] {
        foresight_util::parallel::with_threads(threads, || {
            let check = reader.verify().unwrap();
            assert_eq!((check.fields_ok, check.chunks_ok), (3, 4 + 12 + 24), "{threads} threads");
            let err = bad.verify().unwrap_err();
            assert!(
                matches!(err, foresight_util::Error::Corrupt(_))
                    && err.to_string().contains("chunk 5 of field \"b\""),
                "{threads} threads: {err}"
            );
        });
    }
}

#[test]
fn empty_and_tiny_inputs_rejected() {
    for len in 0..SUPERBLOCK_LEN {
        assert!(StoreReader::from_bytes(vec![0x46; len]).is_err(), "len {len} accepted");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a valid archive must be rejected at open:
    /// the superblock pins the exact archive length.
    #[test]
    fn truncation_always_errors(variant in 0usize..VARIANTS, cut_sel in any::<u32>()) {
        let archive = make_archive(variant);
        let cut = cut_sel as usize % archive.len();
        prop_assert!(StoreReader::from_bytes(archive[..cut].to_vec()).is_err());
    }

    /// Every single-bit flip lands in a region covered by the superblock
    /// CRC, the manifest SHA-256, the directory CRC, or a chunk CRC —
    /// so open-plus-extract-everything must error, never return altered
    /// values as valid.
    #[test]
    fn bit_flip_fails_closed(variant in 0usize..VARIANTS, flip_sel in any::<u32>()) {
        let archive = make_archive(variant);
        let mut bad = archive.to_vec();
        let bit = flip_sel as usize % (bad.len() * 8);
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(open_and_extract_all(&bad).is_err(), "flip at bit {} accepted", bit);
    }

    /// Overwriting a window with arbitrary bytes must not panic; if the
    /// window changed anything, some integrity layer rejects it.
    #[test]
    fn window_rewrite_never_panics(
        variant in 0usize..VARIANTS,
        start_sel in any::<u32>(),
        junk in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let archive = make_archive(variant);
        let mut bad = archive.to_vec();
        let start = start_sel as usize % bad.len();
        let end = (start + junk.len()).min(bad.len());
        bad[start..end].copy_from_slice(&junk[..end - start]);
        if bad == archive {
            prop_assert!(open_and_extract_all(&bad).is_ok());
        } else {
            prop_assert!(open_and_extract_all(&bad).is_err());
        }
    }

    /// Splicing the head of one valid archive onto the tail of another
    /// (arbitrary cut points) must fail closed.
    #[test]
    fn splice_never_panics(
        va in 0usize..VARIANTS, vb in 0usize..VARIANTS,
        cut_sel in any::<u32>(),
    ) {
        let a = make_archive(va);
        let b = make_archive(vb);
        let cut = cut_sel as usize % a.len();
        let mut spliced = a[..cut].to_vec();
        spliced.extend_from_slice(&b[cut.min(b.len())..]);
        if spliced != a && spliced != b {
            prop_assert!(open_and_extract_all(&spliced).is_err());
        }
    }

    /// Raw garbage of any size must be rejected without panicking and
    /// without allocating past the input (the superblock's sizes must
    /// reconcile with the bytes actually present before any allocation).
    #[test]
    fn garbage_never_panics(junk in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(StoreReader::from_bytes(junk).is_err());
    }

    /// Garbage behind a valid-looking superblock (correct magic,
    /// version, CRC, self-consistent sizes) still fails closed on the
    /// manifest digest, and the directory allocation stays bounded by
    /// the declared (true) archive length.
    #[test]
    fn forged_superblock_over_garbage_errors(body in prop::collection::vec(any::<u8>(), 1..512)) {
        let sb = Superblock {
            version: VERSION,
            dir_offset: SUPERBLOCK_LEN as u64,
            dir_len: body.len() as u64,
            archive_len: (SUPERBLOCK_LEN + body.len()) as u64,
            dir_sha256: [0u8; 32], // almost surely not sha256(body)
        };
        let mut bytes = sb.encode();
        bytes.extend_from_slice(&body);
        if sha256(&body) != [0u8; 32] {
            prop_assert!(StoreReader::from_bytes(bytes).is_err());
        }
    }
}
