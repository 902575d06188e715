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
use foresight_util::crc::crc32;
use foresight_util::sha256::{sha256, Sha256};
use foresight_util::Error;
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
    // A real codebook of the same shape and bound, so only the forged
    // chunk table is wrong.
    let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.1).sin()).collect();
    let (shape, chunk) = (FieldShape::d3(8, 8, 8), [4, 4, 8]);
    let mut w = StoreWriter::new();
    w.add_field(1, "forged", &data, shape, chunk, &ChunkCodec::sz_abs(1e-3)).unwrap();
    let real = StoreReader::from_bytes(w.finish().unwrap()).unwrap();
    FieldEntry {
        snapshot: 1,
        name: "forged".into(),
        grid: ChunkGrid::new(shape, chunk).unwrap(),
        codec: CodecKind::Sz,
        bound: BoundSpec { tag: 0, value: 1e-3 },
        codebook: real.fields()[0].codebook.clone(),
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

/// A one-field SZ archive whose 4^3 chunks all hold outliers (a NaN
/// each) behind their codes.
fn sz_archive() -> Vec<u8> {
    let mut data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.11).sin() * 20.0).collect();
    for chunk in 0..8 {
        data[chunk % 2 * 4 + chunk / 2 % 2 * 32 + chunk / 4 * 256 + 9] = f32::NAN;
    }
    let mut w = StoreWriter::new();
    w.add_field(0, "f", &data, FieldShape::d3(8, 8, 8), [4, 4, 4], &ChunkCodec::sz_abs(1e-2))
        .unwrap();
    w.finish().unwrap()
}

/// `archive` with its directory replaced by `dir` (CRC re-sealed) and the
/// superblock re-sealed over it: only what `dir` says can be wrong.
fn with_directory(archive: &[u8], mut dir: Vec<u8>) -> Vec<u8> {
    let body = dir.len() - 4;
    let crc = crc32(&dir[..body]);
    dir[body..].copy_from_slice(&crc.to_le_bytes());
    let dir_offset = Superblock::parse(archive).unwrap().dir_offset;
    let sb = Superblock {
        version: VERSION,
        dir_offset,
        dir_len: dir.len() as u64,
        archive_len: dir_offset + dir.len() as u64,
        dir_sha256: sha256(&dir),
    };
    let mut out = sb.encode();
    out.extend_from_slice(&archive[SUPERBLOCK_LEN..dir_offset as usize]);
    out.extend_from_slice(&dir);
    out
}

/// The directory bytes of `archive` and where its field's serialized
/// codebook starts in them.
fn directory_and_codebook(archive: &[u8]) -> (Vec<u8>, usize, Vec<u8>) {
    let reader = StoreReader::from_bytes(archive.to_vec()).unwrap();
    let mut book = Vec::new();
    reader.fields()[0].codebook.as_ref().unwrap().serialize(&mut book);
    let dir = archive[Superblock::parse(archive).unwrap().dir_offset as usize..].to_vec();
    let at = dir.windows(book.len()).position(|w| w == book).unwrap();
    (dir, at, book)
}

/// Offset of the symbol count inside a serialized field codebook: mode,
/// two bounds, entropy, ndim, block size, radius.
const BOOK_COUNT_AT: usize = 1 + 8 + 8 + 1 + 1 + 4 + 4;

fn refused_on_open(what: &str, bytes: Vec<u8>, reason: &str) {
    match StoreReader::from_bytes(bytes) {
        Err(Error::Corrupt(msg)) => assert!(msg.contains(reason), "{what}: {msg}"),
        Err(other) => panic!("{what}: expected Error::Corrupt, got {other:?}"),
        Ok(_) => panic!("{what}: opened"),
    }
}

#[test]
fn forged_shared_codebooks_are_refused_on_open() {
    let archive = sz_archive();
    let (dir, at, book) = directory_and_codebook(&archive);
    let n = u32::from_le_bytes(book[BOOK_COUNT_AT..BOOK_COUNT_AT + 4].try_into().unwrap());
    let length_at = |i: usize| at + BOOK_COUNT_AT + 4 + 5 * i + 4;
    // A code length out of range, and lengths no prefix code can have.
    for (len, reason) in [(0u8, "out of range"), (59, "out of range"), (1, "Kraft")] {
        let mut bad = dir.clone();
        for i in 0..n as usize {
            if len == 1 || i == 0 {
                bad[length_at(i)] = len;
            }
        }
        refused_on_open(&format!("code length {len}"), with_directory(&archive, bad), reason);
    }
    // Counts the directory bytes cannot hold: the codebook's symbols and
    // the codebook's own length. Refused before anything is sized by them.
    let mut bad = dir.clone();
    bad[at + BOOK_COUNT_AT..at + BOOK_COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    refused_on_open("symbol count", with_directory(&archive, bad), "huffman symbol count");
    let mut bad = dir.clone();
    bad[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
    refused_on_open("codebook length", with_directory(&archive, bad), "field codebook byte count");
    // A codebook for another bound than the entry's.
    let mut bad = dir.clone();
    bad[at + 1..at + 9].copy_from_slice(&2e-2f64.to_le_bytes());
    refused_on_open("bound", with_directory(&archive, bad), "disagrees with the entry's bound");
}

#[test]
fn a_codebook_missing_a_symbol_the_fragments_use_fails_every_read() {
    let archive = sz_archive();
    let (dir, at, book) = directory_and_codebook(&archive);
    // Drop the first canonical entry — the shortest code, the commonest
    // symbol — and shrink the counts around it: a valid prefix code.
    let first = at + BOOK_COUNT_AT + 4;
    let n = u32::from_le_bytes(book[BOOK_COUNT_AT..BOOK_COUNT_AT + 4].try_into().unwrap());
    let mut bad = dir[..first].to_vec();
    bad.extend_from_slice(&dir[first + 5..]);
    bad[at + BOOK_COUNT_AT..first].copy_from_slice(&(n - 1).to_le_bytes());
    bad[at - 4..at].copy_from_slice(&(book.len() as u32 - 5).to_le_bytes());
    let reader = StoreReader::from_bytes(with_directory(&archive, bad)).unwrap();
    assert_eq!(reader.verify().unwrap().chunks_ok, 8, "fragments and digests are intact");
    for region in [Region::full(FieldShape::d3(8, 8, 8)), chunk_region(1)] {
        let err = reader.read_region(0, "f", region).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)) && err.to_string().contains("codebook"), "{err}");
    }
}

#[test]
fn fragments_cut_inside_their_codes_or_outliers_are_typed_errors() {
    let archive = sz_archive();
    let dir_offset = Superblock::parse(&archive).unwrap().dir_offset;
    let dir = &archive[dir_offset as usize..];
    let clean = Directory::parse(dir, SUPERBLOCK_LEN as u64, dir_offset).unwrap();
    let fragment = |c: &ChunkRef| &archive[c.offset as usize..(c.offset + c.len) as usize];
    // Prefix: magic, key, three one-byte extents; then one block's meta.
    let codes_at = 4 + 8 + 3 + 25;
    for id in [0, 5] {
        let len = clean.fields[0].chunks[id].len;
        for cut in [codes_at as u64 + 1, len / 2, len - 5, len - 1] {
            let mut forged = clean.clone();
            let entry = &mut forged.fields[0];
            entry.chunks[id].len = cut;
            entry.chunks[id].crc32 = crc32(fragment(&entry.chunks[id]));
            let mut digest = Sha256::new();
            for c in &entry.chunks {
                digest.update(fragment(c));
            }
            entry.payload_sha256 = digest.finalize();
            let bad = with_directory(&archive, forged.encode());
            let reader = StoreReader::from_bytes(bad).unwrap();
            assert_eq!(reader.verify().unwrap().chunks_ok, 8);
            let err = reader.extract(0, "f").unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)) && err.to_string().contains("truncated"),
                "chunk {id} cut at {cut} of {len}: {err}"
            );
            assert!(reader.read_region(0, "f", chunk_region(id ^ 1)).is_ok());
        }
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

/// A 16x16x32 ZFP field at rate 8 in two 16^3 chunks, clean and with one
/// byte of chunk 0 flipped inside its last layer of blocks: 64 blocks of
/// 64 bytes behind the 64-byte stream header, the last layer blocks
/// 48..64, which a read of the chunk's first layer never decodes.
fn zfp_archive_damaged_in_its_last_layer() -> (Vec<u8>, Vec<u8>) {
    let data: Vec<f32> = (0..16 * 16 * 32).map(|i| (i as f32 * 0.05).cos() * 12.0).collect();
    let mut w = StoreWriter::new();
    w.add_field(0, "v", &data, FieldShape::d3(16, 16, 32), [16; 3], &ChunkCodec::zfp_rate(8.0))
        .unwrap();
    let clean = w.finish().unwrap();
    let c = StoreReader::from_bytes(clean.clone()).unwrap().find(0, "v").unwrap().chunks[0];
    let mut bad = clean.clone();
    bad[(c.offset + 64 + 50 * 64 + 5) as usize] ^= 0x10;
    (clean, bad)
}

/// A thin read decodes one layer of a ZFP chunk, but the chunk's CRC
/// covers all of it and is checked before any block is decoded: damage
/// in blocks the read skips still fails it, as `Corrupt` through the
/// CRC, on every repeat and from memory and from a file, while the clean
/// neighbouring chunk still reads.
#[test]
fn damage_in_blocks_a_thin_read_skips_still_fails_it() {
    let (clean, bad) = zfp_archive_damaged_in_its_last_layer();
    let path = std::env::temp_dir().join(format!("fstr-thin-{}.fstr", std::process::id()));
    std::fs::write(&path, &bad).unwrap();
    let from_file = StoreReader::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let clean = StoreReader::from_bytes(clean).unwrap();
    let plane = Region::new([0, 0, 1], [16, 16, 2]).unwrap();
    let neighbour = Region::new([0, 0, 17], [16, 16, 18]).unwrap();

    for reader in [StoreReader::from_bytes(bad).unwrap(), from_file] {
        let plan = reader.plan_region(0, "v", plane).unwrap();
        assert_eq!((plan.chunks_decoded, plan.blocks_decoded), (1, 16), "one layer of chunk 0");
        for round in 0..2 {
            let err = reader.read_region(0, "v", plane).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_))
                    && err.to_string().contains("chunk 0 ")
                    && err.to_string().contains("CRC"),
                "round {round}: {err}"
            );
        }
        let (got, stats) = reader.read_region(0, "v", neighbour).unwrap();
        assert_eq!(got, clean.read_region(0, "v", neighbour).unwrap().0);
        assert_eq!(stats.blocks_decoded, 16);
        assert!(reader.extract(0, "v").is_err());
    }
}

/// Re-seals a ZFP stream's payload CRC and header CRC (the header is 64
/// bytes: CRCs at 56 and 60) after a forgery; `table` is the length
/// table's size.
fn reseal_zfp(stream: &mut [u8], table: usize) {
    let payload_crc = crc32(&stream[64 + table..]);
    stream[56..60].copy_from_slice(&payload_crc.to_le_bytes());
    let header_crc = crc32(&stream[..60]);
    stream[60..64].copy_from_slice(&header_crc.to_le_bytes());
}

/// `lossy_zfp::decompress_layers`, the range decoder thin reads go
/// through, fails closed as the whole-stream decoder does: every cut of
/// a 16^3 chunk stream, a payload shortened with its length and both
/// CRCs re-sealed, and a header re-sealed around a bigger extent are
/// `Corrupt` for every layer range; a length table with bits moved
/// between two blocks of the second layer (totals kept, so the payload
/// still adds up) fails a run that decodes them, in block order, while
/// the runs around it seek past and still read what they read before.
#[test]
fn range_decoder_refuses_cut_and_forged_streams() {
    use lossy_zfp::{decompress_layers, Dims, ZfpConfig};
    let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.03).sin() * 9.0 + 1.0).collect();
    let fixed = lossy_zfp::compress(&data, Dims::D3(16, 16, 16), &ZfpConfig::rate(8.0)).unwrap();
    let corrupt = |stream: &[u8], what: &str| {
        for layers in [0..1, 1..2, 3..4, 0..4] {
            match decompress_layers(stream, layers.clone()) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("{what}, layers {layers:?}: {:?}", other.map(|v| v.0.len())),
            }
        }
    };
    for cut in 0..fixed.len() {
        corrupt(&fixed[..cut], &format!("cut at {cut}"));
    }
    let mut short = fixed[..fixed.len() - 64].to_vec();
    let payload_len = short.len() as u64 - 64;
    short[48..56].copy_from_slice(&payload_len.to_le_bytes());
    reseal_zfp(&mut short, 0);
    corrupt(&short, "payload a block short");
    let mut taller = fixed.clone();
    taller[24..32].copy_from_slice(&20u64.to_le_bytes());
    reseal_zfp(&mut taller, 0);
    corrupt(&taller, "z extent 20");

    let precise =
        lossy_zfp::compress(&data, Dims::D3(16, 16, 16), &ZfpConfig::precision(16)).unwrap();
    let span =
        |s: &[u8], b: usize| u32::from_le_bytes(s[64 + 4 * b..68 + 4 * b].try_into().unwrap());
    let mut shifted = precise.clone();
    let (s19, s20) = (span(&precise, 19), span(&precise, 20));
    shifted[64 + 4 * 19..68 + 4 * 19].copy_from_slice(&(s19 + 8).to_le_bytes());
    shifted[64 + 4 * 20..68 + 4 * 20].copy_from_slice(&(s20 - 8).to_le_bytes());
    for layers in [1..2, 0..4, 1..3] {
        let err = decompress_layers(&shifted, layers.clone()).unwrap_err();
        assert!(
            matches!(err, Error::Corrupt(_)) && err.to_string().contains("block 19 "),
            "layers {layers:?}: {err}"
        );
    }
    for layers in [0..1, 2..3, 2..4] {
        let got = decompress_layers(&shifted, layers.clone()).unwrap();
        assert_eq!(got, decompress_layers(&precise, layers.clone()).unwrap(), "layers {layers:?}");
    }
}

/// Fixed-rate ZFP streams are read sixteen blocks at a time, each lane
/// at its own `i * maxbits`, in 1-D, 2-D and 3-D alike, and thin reads
/// reach the same lanes through `decompress_layers`. Every cut of such a
/// stream fails closed, whole or by layers; a header re-sealed around a
/// rate whose block bits disagree with the payload fails closed; and a
/// payload of hostile bits re-sealed under both CRCs — all zeros, all
/// ones, random — is still a stream of blocks: it decodes without a
/// panic, and every layer range to its slice of the whole.
#[test]
fn lanes_fail_closed_on_cut_streams_and_read_forged_payloads() {
    use foresight_util::Tiles;
    use lossy_zfp::{compress, decompress, decompress_layers, Dims, ZfpConfig};
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let cases = [
        (Dims::D3(16, 16, 16), 8.0),
        (Dims::D3(13, 7, 6), 5.5),
        (Dims::D2(30, 17), 4.0),
        (Dims::D1(301), 20.0),
    ];
    for (dims, rate) in cases {
        let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.07).sin() * 40.0).collect();
        let stream = compress(&data, dims, &ZfpConfig::rate(rate)).unwrap();
        let tiles = Tiles::cubes(dims, 4).unwrap();
        let n = tiles.layer_count();
        for cut in (0..stream.len()).step_by(5) {
            let whole = decompress(&stream[..cut]);
            assert!(matches!(whole, Err(Error::Corrupt(_))), "{dims:?} cut at {cut}");
            for layers in [0..1, n - 1..n, 0..n] {
                let part = decompress_layers(&stream[..cut], layers.clone());
                assert!(matches!(part, Err(Error::Corrupt(_))), "{dims:?} cut {cut} {layers:?}");
            }
        }
        let mut faster = stream.clone();
        faster[32..40].copy_from_slice(&(rate * 2.0).to_le_bytes());
        reseal_zfp(&mut faster, 0);
        assert!(matches!(decompress(&faster), Err(Error::Corrupt(_))), "{dims:?} rate x2");

        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        for fill in [Some(0x00), Some(0xFF), None] {
            let mut forged = stream.clone();
            for b in &mut forged[64..] {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                *b = fill.unwrap_or(seed as u8);
            }
            reseal_zfp(&mut forged, 0);
            let (whole, _) = decompress(&forged).unwrap();
            for a in 0..n {
                for b in a + 1..=n {
                    let (part, _) = decompress_layers(&forged, a..b).unwrap();
                    let slice = &whole[tiles.layers(a..b).values];
                    assert!(bits(&part) == bits(slice), "{dims:?} {fill:?} layers {a}..{b}");
                }
            }
        }
    }
}
