//! Chunk-granular archive reads.
//!
//! [`StoreReader`] opens an archive (in memory or file-backed), verifies
//! the superblock, the directory CRC, and the manifest SHA-256 up front,
//! and then serves `(snapshot, field, region)` reads in three steps:
//! look the intersecting chunks up in the decoded-chunk cache, decode
//! the misses in parallel, scatter. Every chunk payload is CRC-checked
//! before it reaches a decoder, and every decoded chunk must match the
//! shape and value count the directory promised; only a chunk that
//! passed both is ever cached, so a corrupt chunk fails every read that
//! touches it. A cached decode is not verified again: bytes that change
//! in the file after a chunk's first decode are not seen on a hit.
//!
//! The cache is an LRU over `(directory entry, chunk id)` under the fixed
//! byte budget [`CACHE_BUDGET_BYTES`]. A read whose intersecting chunks
//! decode to more than the whole budget (a full extract of a large
//! field) inserts nothing, so it cannot flush the hot set.
//!
//! [`StoreReader::plan_region`] is the accounting a cacheless read would
//! report, a pure function of directory and region. Anything that must
//! repeat run to run (the simulated clock in `foresight::serve`) reads
//! the plan; the [`ReadStats`] a read returns count the work that call
//! really did and depend on what earlier reads left in the cache.
//!
//! Telemetry (zero-cost when disabled):
//! - `store.region_reads`, `store.chunks_read` (chunks intersected),
//!   `store.chunks_decoded` (chunks really decoded)
//! - `store.cache.hits`, `store.cache.misses`, `store.cache.evictions`,
//!   gauge `store.cache.bytes` (resident decoded bytes)
//! - `store.compressed_bytes_read`, `store.bytes_touched`,
//!   `store.bytes_returned`
//! - gauge `store.read_amplification` = bytes touched / bytes returned
//!   for the most recent read (1.0 is perfect chunk alignment, 0 a read
//!   served from the cache alone).
//!
//! Everything but `region_reads`, `chunks_read` and `bytes_returned` is
//! host-side work: with concurrent readers on one `StoreReader` which of
//! two racing reads takes the miss depends on the schedule.

use crate::format::{self, ChunkRef, CodecKind, Directory, FieldEntry, Superblock, SUPERBLOCK_LEN};
use crate::grid::{FieldShape, Region};
use foresight_util::crc::crc32;
use foresight_util::sha256::{to_hex, Sha256};
use foresight_util::{telemetry, Error, Result};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Byte budget of a reader's decoded-chunk cache. The benchmark's
/// `store-chunks` round revisits 1 940 distinct 16 KiB chunks (31.8 MB):
/// 8 / 16 / 32 / 64 MiB measured 52 / 65 / 69 / 69 % hits, so 32 MiB is
/// the smallest budget that holds that working set (EXPERIMENTS.md).
pub const CACHE_BUDGET_BYTES: usize = 32 << 20;

/// Per-read accounting: how much work a region read actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadStats {
    /// Chunks in the field's grid.
    pub chunks_in_field: u64,
    /// Chunks the region intersects.
    pub chunks_intersected: u64,
    /// Chunks this read fetched, CRC-checked and decoded; the rest of
    /// the intersecting chunks were cache hits.
    pub chunks_decoded: u64,
    /// Compressed fragment bytes this read fetched from the archive.
    pub compressed_bytes_read: u64,
    /// Uncompressed bytes this read's chunk decodes materialized.
    pub bytes_touched: u64,
    /// Uncompressed bytes the caller asked for (region size × 4).
    pub bytes_returned: u64,
}

impl ReadStats {
    /// Bytes touched per byte returned; 1.0 means the region aligned
    /// perfectly with chunk boundaries, 0 that the cache served it all.
    pub fn amplification(&self) -> f64 {
        if self.bytes_returned == 0 {
            return 0.0;
        }
        self.bytes_touched as f64 / self.bytes_returned as f64
    }

    /// Intersecting chunks served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.chunks_intersected - self.chunks_decoded
    }
}

/// Result of a full-archive integrity verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCheck {
    /// Fields whose payload digest matched.
    pub fields_ok: usize,
    /// Chunk payloads whose CRC matched.
    pub chunks_ok: usize,
}

enum Backing {
    Bytes(Vec<u8>),
    File(Mutex<File>),
}

/// Cache key: index of the field's directory entry, linear chunk id.
type ChunkKey = (usize, usize);

/// Decoded chunks in least-recently-used order under a byte budget.
/// Both maps are ordered, so nothing here depends on hash order, and a
/// lookup, an insert and an eviction are each O(log n).
#[derive(Default)]
struct ChunkCache {
    /// Decoded bytes resident; never above the budget between calls.
    bytes: usize,
    /// Stamp of the most recent use; stamps are unique.
    clock: u64,
    /// Key → (stamp of its last use, decoded values).
    entries: BTreeMap<ChunkKey, (u64, Arc<[f32]>)>,
    /// Stamp → key: the first entry is the least recently used.
    by_age: BTreeMap<u64, ChunkKey>,
}

impl ChunkCache {
    /// The cached decode of `key`, marked most recently used.
    fn get(&mut self, key: ChunkKey) -> Option<Arc<[f32]>> {
        let (stamp, values) = self.entries.get_mut(&key)?;
        self.by_age.remove(stamp);
        self.clock += 1;
        *stamp = self.clock;
        self.by_age.insert(self.clock, key);
        Some(Arc::clone(values))
    }

    /// Caches a verified decode and evicts from the cold end until
    /// `budget` holds again; returns the number of evictions. A key
    /// already present (a racing reader decoded it too) keeps its entry.
    fn insert(&mut self, key: ChunkKey, values: Arc<[f32]>, budget: usize) -> u64 {
        let size = values.len() * 4;
        if size > budget || self.entries.contains_key(&key) {
            return 0;
        }
        self.clock += 1;
        self.entries.insert(key, (self.clock, values));
        self.by_age.insert(self.clock, key);
        self.bytes += size;
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((_, coldest)) = self.by_age.pop_first() else { break };
            if let Some((_, old)) = self.entries.remove(&coldest) {
                self.bytes -= old.len() * 4;
                evicted += 1;
            }
        }
        evicted
    }
}

/// One chunk a read intersects.
struct PlannedChunk {
    idx: [usize; 3],
    id: usize,
    fragment: ChunkRef,
    shape: FieldShape,
    decoded_bytes: u64,
}

/// The chunks `region` intersects in ascending id order, and the
/// accounting of reading them all with no cache.
fn plan(entry: &FieldEntry, region: &Region) -> Result<(Vec<PlannedChunk>, ReadStats)> {
    let grid = entry.grid;
    region.validate_in(grid.shape())?;
    let n = region
        .checked_len()
        .ok_or_else(|| Error::invalid("region value count overflows"))?;
    let mut stats = ReadStats {
        chunks_in_field: entry.chunks.len() as u64,
        bytes_returned: (n as u64) * 4,
        ..ReadStats::default()
    };
    let mut chunks = Vec::new();
    for idx in grid.intersecting(region) {
        let id = grid.linear(idx);
        let fragment = *entry
            .chunks
            .get(id)
            .ok_or_else(|| Error::corrupt(format!("chunk id {id} outside the directory")))?;
        let shape = grid.chunk_shape_at(idx);
        let decoded_bytes = shape
            .checked_len()
            .and_then(|len| (len as u64).checked_mul(4))
            .ok_or_else(|| Error::corrupt("chunk value count overflows"))?;
        stats.chunks_intersected += 1;
        stats.compressed_bytes_read += fragment.len;
        stats.bytes_touched += decoded_bytes;
        chunks.push(PlannedChunk { idx, id, fragment, shape, decoded_bytes });
    }
    stats.chunks_decoded = stats.chunks_intersected;
    Ok((chunks, stats))
}

/// Read-side handle over a sealed archive.
pub struct StoreReader {
    backing: Backing,
    superblock: Superblock,
    directory: Directory,
    cache: Mutex<ChunkCache>,
    /// [`CACHE_BUDGET_BYTES`], except in this module's eviction tests.
    budget: usize,
}

impl std::fmt::Debug for StoreReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreReader")
            .field("archive_len", &self.superblock.archive_len)
            .field("fields", &self.directory.fields.len())
            .finish()
    }
}

impl StoreReader {
    fn new(backing: Backing, superblock: Superblock, directory: Directory) -> Self {
        Self { backing, superblock, directory, cache: Mutex::default(), budget: CACHE_BUDGET_BYTES }
    }

    /// Opens an in-memory archive image, verifying superblock CRC,
    /// layout, manifest digest, and directory before returning.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self> {
        let (superblock, directory) = format::parse_archive(&bytes)?;
        Ok(Self::new(Backing::Bytes(bytes), superblock, directory))
    }

    /// Opens a file-backed archive, reading only the superblock and the
    /// directory tail; fragments stay on disk until a read needs them.
    pub fn open(path: &Path) -> Result<Self> {
        let mut f = File::open(path)?;
        let actual_len = f.metadata()?.len();
        let mut head = [0u8; SUPERBLOCK_LEN];
        f.read_exact(&mut head)?;
        let superblock = Superblock::parse(&head)?;
        let (dir_offset, dir_len) = superblock.layout(actual_len)?;
        // layout() proved dir_offset + dir_len == the real file length,
        // so this allocation is bounded by the bytes actually on disk.
        if (dir_len as u64) > actual_len {
            return Err(Error::corrupt("directory longer than the archive"));
        }
        let mut dir = vec![0u8; dir_len];
        f.seek(SeekFrom::Start(dir_offset as u64))?;
        f.read_exact(&mut dir)?;
        format::verify_manifest_digest(&superblock, &dir)?;
        let directory = Directory::parse(&dir, SUPERBLOCK_LEN as u64, superblock.dir_offset)?;
        Ok(Self::new(Backing::File(Mutex::new(f)), superblock, directory))
    }

    /// The verified superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.superblock
    }

    /// Manifest digest as lowercase hex.
    pub fn manifest_hex(&self) -> String {
        self.superblock.dir_sha256.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// All directory entries, in writer order.
    pub fn fields(&self) -> &[FieldEntry] {
        &self.directory.fields
    }

    /// Looks up one field by `(snapshot, name)`.
    pub fn find(&self, snapshot: u32, name: &str) -> Option<&FieldEntry> {
        self.directory.find(snapshot, name)
    }

    /// The directory entry of `(snapshot, name)` and its index.
    fn locate(&self, snapshot: u32, name: &str) -> Result<(usize, &FieldEntry)> {
        self.directory
            .fields
            .iter()
            .enumerate()
            .find(|(_, f)| f.snapshot == snapshot && f.name == name)
            .ok_or_else(|| {
                Error::invalid(format!("no field snapshot={snapshot} name={name:?} in the archive"))
            })
    }

    /// The accounting [`StoreReader::read_region`] would report with no
    /// cache: every intersecting chunk fetched and decoded. A pure
    /// function of the directory and the region; reads no fragment.
    pub fn plan_region(&self, snapshot: u32, name: &str, region: Region) -> Result<ReadStats> {
        let (_, entry) = self.locate(snapshot, name)?;
        Ok(plan(entry, &region)?.1)
    }

    /// Reads the subvolume `region` of field `(snapshot, name)`,
    /// decoding only intersecting chunks the cache does not hold.
    /// Returns the region's values in x-fastest order plus the read's
    /// accounting; the values are the same for any read order, thread
    /// count and cache state.
    pub fn read_region(
        &self,
        snapshot: u32,
        name: &str,
        region: Region,
    ) -> Result<(Vec<f32>, ReadStats)> {
        let (field, entry) = self.locate(snapshot, name)?;
        self.read_entry(field, entry, region)
    }

    /// Reads an entire field (every chunk).
    pub fn extract(&self, snapshot: u32, name: &str) -> Result<(Vec<f32>, ReadStats)> {
        let (field, entry) = self.locate(snapshot, name)?;
        self.read_entry(field, entry, Region::full(entry.grid.shape()))
    }

    fn read_entry(
        &self,
        field: usize,
        entry: &FieldEntry,
        region: Region,
    ) -> Result<(Vec<f32>, ReadStats)> {
        let (chunks, planned) = plan(entry, &region)?;
        let grid = entry.grid;
        let mut out = vec![0f32; (planned.bytes_returned / 4) as usize];

        // Look up. A poisoned lock means a reader panicked inside the
        // cache, so this read goes round it: all misses, no insert.
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        match self.cache.lock() {
            Ok(mut cache) => {
                for c in &chunks {
                    match cache.get((field, c.id)) {
                        Some(values) => hits.push((c, values)),
                        None => misses.push(c),
                    }
                }
            }
            Err(_) => misses.extend(&chunks),
        }
        for (c, values) in &hits {
            grid.scatter_into(values, c.idx, &region, &mut out);
        }

        // Decode the misses outside the lock, in windows of at most one
        // budget of decoded bytes: a read small enough to be cached is
        // one window, and a larger one never holds a second copy of the
        // region. `par_iter` keeps input order and the ids ascend, so
        // the first error is the lowest failing chunk's; a window of one
        // chunk runs inline in the rayon shim.
        let budget = self.budget as u64;
        let cacheable = planned.bytes_touched <= budget;
        let mut stats =
            ReadStats { chunks_decoded: 0, compressed_bytes_read: 0, bytes_touched: 0, ..planned };
        let mut fresh = Vec::new();
        let mut rest = misses.as_slice();
        while !rest.is_empty() {
            let mut window_bytes = 0;
            let len = rest
                .iter()
                .take_while(|c| {
                    window_bytes += c.decoded_bytes;
                    window_bytes <= budget
                })
                .count()
                .max(1);
            let (window, tail) = rest.split_at(len);
            rest = tail;
            let decoded = window
                .par_iter()
                .map(|c| self.decode(entry, c))
                .collect::<Result<Vec<_>>>()?;
            for (c, values) in window.iter().zip(decoded) {
                stats.chunks_decoded += 1;
                stats.compressed_bytes_read += c.fragment.len;
                stats.bytes_touched += c.decoded_bytes;
                grid.scatter_into(&values, c.idx, &region, &mut out);
                if cacheable {
                    fresh.push(((field, c.id), Arc::from(values)));
                }
            }
        }

        let mut evictions = 0;
        if !fresh.is_empty() {
            if let Ok(mut cache) = self.cache.lock() {
                for (key, values) in fresh {
                    evictions += cache.insert(key, values, self.budget);
                }
                telemetry::gauge("store.cache.bytes", cache.bytes as f64);
            }
        }
        telemetry::counter("store.region_reads", 1);
        telemetry::counter("store.chunks_read", stats.chunks_intersected);
        telemetry::counter("store.chunks_decoded", stats.chunks_decoded);
        telemetry::counter("store.cache.hits", stats.cache_hits());
        telemetry::counter("store.cache.misses", stats.chunks_decoded);
        telemetry::counter("store.cache.evictions", evictions);
        telemetry::counter("store.compressed_bytes_read", stats.compressed_bytes_read);
        telemetry::counter("store.bytes_touched", stats.bytes_touched);
        telemetry::counter("store.bytes_returned", stats.bytes_returned);
        telemetry::gauge("store.read_amplification", stats.amplification());
        Ok((out, stats))
    }

    /// Fetches, CRC-checks and decodes one chunk.
    fn decode(&self, entry: &FieldEntry, chunk: &PlannedChunk) -> Result<Vec<f32>> {
        let payload = self.fragment(&chunk.fragment)?;
        if crc32(&payload) != chunk.fragment.crc32 {
            return Err(Error::corrupt(format!(
                "chunk {} of field {:?} failed its CRC",
                chunk.id, entry.name
            )));
        }
        decode_chunk(entry.codec, &payload, chunk.shape)
    }

    /// Verifies every chunk CRC and every field payload digest without
    /// decoding any stream. Fields are checked in parallel and every one
    /// to its end or its first failure, so the verdict is the same on any
    /// thread count: on failure, the error of the lowest failing
    /// (field, chunk) in directory order.
    pub fn verify(&self) -> Result<StoreCheck> {
        let fields = &self.directory.fields;
        let field_bytes: Vec<u64> =
            fields.iter().map(|f| f.chunks.iter().map(|c| c.len).sum()).collect();
        let verdicts = crate::par_fields(&field_bytes, |i| self.verify_field(&fields[i]));
        let mut check = StoreCheck::default();
        for chunks_ok in verdicts {
            check.chunks_ok += chunks_ok?;
            check.fields_ok += 1;
        }
        Ok(check)
    }

    /// One field's chunk CRCs in id order, then its payload digest;
    /// returns the number of chunks checked.
    fn verify_field(&self, entry: &FieldEntry) -> Result<usize> {
        let mut digest = Sha256::new();
        for (cid, cref) in entry.chunks.iter().enumerate() {
            let frag = self.fragment(cref)?;
            if crc32(&frag) != cref.crc32 {
                return Err(Error::corrupt(format!(
                    "chunk {cid} of field {:?} failed its CRC",
                    entry.name
                )));
            }
            digest.update(&frag);
        }
        if digest.finalize() != entry.payload_sha256 {
            return Err(Error::corrupt(format!(
                "field {:?} failed its payload digest",
                entry.name
            )));
        }
        Ok(entry.chunks.len())
    }

    /// Hex digest of one field's concatenated payload (for manifests).
    pub fn field_payload_hex(&self, entry: &FieldEntry) -> Result<String> {
        let mut digest = Sha256::new();
        for cref in &entry.chunks {
            digest.update(&self.fragment(cref)?);
        }
        Ok(to_hex(&digest.finalize()))
    }

    /// Fetches one fragment: a borrow of the in-memory image, an owned
    /// buffer for a file. Offsets and lengths were validated against
    /// the fragment region at directory parse time.
    fn fragment(&self, cref: &ChunkRef) -> Result<Cow<'_, [u8]>> {
        let start = usize::try_from(cref.offset)
            .map_err(|_| Error::corrupt("fragment offset overflows usize"))?;
        let n = usize::try_from(cref.len)
            .map_err(|_| Error::corrupt("fragment length overflows usize"))?;
        match &self.backing {
            Backing::Bytes(bytes) => {
                let end = start
                    .checked_add(n)
                    .ok_or_else(|| Error::corrupt("fragment end overflows"))?;
                bytes
                    .get(start..end)
                    .map(Cow::Borrowed)
                    .ok_or_else(|| Error::corrupt("fragment outside the archive image"))
            }
            Backing::File(file) => {
                let mut f = file
                    .lock()
                    .map_err(|_| Error::corrupt("archive file handle poisoned"))?;
                // Directory parsing bounded every fragment inside
                // [SUPERBLOCK_LEN, dir_offset), which layout() proved is
                // inside the file, so n is bounded by the file size.
                if cref.len > self.superblock.archive_len {
                    return Err(Error::corrupt("fragment longer than the archive"));
                }
                let mut buf = vec![0u8; n];
                f.seek(SeekFrom::Start(cref.offset))?;
                f.read_exact(&mut buf)?;
                Ok(Cow::Owned(buf))
            }
        }
    }
}

/// Decodes one chunk payload and checks it against the shape the
/// directory promised for that chunk.
fn decode_chunk(codec: CodecKind, payload: &[u8], expect: FieldShape) -> Result<Vec<f32>> {
    let (values, ok) = match codec {
        CodecKind::Sz => {
            let (values, dims) = lossy_sz::decompress(payload)?;
            let ok = dims == expect.sz_dims();
            (values, ok)
        }
        CodecKind::Zfp => {
            let (values, dims) = lossy_zfp::decompress(payload)?;
            let ok = dims == expect.zfp_dims();
            (values, ok)
        }
    };
    if !ok {
        return Err(Error::corrupt("chunk stream dims disagree with the directory"));
    }
    let want = expect
        .checked_len()
        .ok_or_else(|| Error::corrupt("chunk value count overflows"))?;
    if values.len() != want {
        return Err(Error::corrupt(format!(
            "chunk decoded {} values but the directory promised {want}",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{ChunkCodec, StoreWriter};

    /// Three small fields: 3-D SZ and 2-D ZFP with clamped edge chunks,
    /// and a 1-D SZ array.
    fn archive() -> Vec<u8> {
        let data: Vec<f32> = (0..700).map(|i| (i as f32 * 0.13).sin() * 40.0).collect();
        let mut w = StoreWriter::new();
        w.add_field(0, "s3", &data[..630], FieldShape::d3(10, 9, 7), [4, 4, 4], &ChunkCodec::sz_abs(1e-2))
            .unwrap();
        w.add_field(0, "z2", &data[..260], FieldShape::d2(20, 13), [8, 5, 1], &ChunkCodec::zfp_rate(8.0))
            .unwrap();
        w.add_field(1, "s1", &data[..100], FieldShape::d1(100), [16, 1, 1], &ChunkCodec::sz_abs(1e-2))
            .unwrap();
        w.finish().unwrap()
    }

    /// The unit-test-only constructor: a reader whose cache evicts early.
    fn reader_with_budget(budget: usize) -> StoreReader {
        StoreReader { budget, ..StoreReader::from_bytes(archive()).unwrap() }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn resident(reader: &StoreReader) -> (usize, Vec<ChunkKey>) {
        let cache = reader.cache.lock().unwrap();
        assert_eq!(cache.entries.len(), cache.by_age.len());
        let sum: usize = cache.entries.values().map(|(_, v)| v.len() * 4).sum();
        assert_eq!(sum, cache.bytes);
        (cache.bytes, cache.entries.keys().copied().collect())
    }

    #[test]
    fn cache_evicts_the_least_recently_used_and_stays_inside_its_budget() {
        let chunk = |n: usize| -> Arc<[f32]> { vec![0f32; n].into() };
        let mut cache = ChunkCache::default();
        let budget = 100 * 4;
        assert_eq!(cache.insert((0, 0), chunk(40), budget), 0);
        assert_eq!(cache.insert((0, 1), chunk(40), budget), 0);
        assert_eq!(cache.insert((0, 1), chunk(40), budget), 0, "a present key keeps its entry");
        assert_eq!(cache.bytes, 320);
        // Touch (0, 0): (0, 1) is now the coldest and goes first.
        assert!(cache.get((0, 0)).is_some());
        assert_eq!(cache.insert((1, 0), chunk(40), budget), 1);
        assert!(cache.get((0, 1)).is_none());
        assert!(cache.get((0, 0)).is_some() && cache.get((1, 0)).is_some());
        // One large entry pushes out as many as it needs, coldest first.
        assert_eq!(cache.insert((2, 0), chunk(100), budget), 2);
        assert_eq!((cache.bytes, cache.entries.len(), cache.by_age.len()), (400, 1, 1));
        // An entry larger than the whole budget is refused and evicts nothing.
        assert_eq!(cache.insert((3, 0), chunk(101), budget), 0);
        assert!(cache.get((3, 0)).is_none() && cache.get((2, 0)).is_some());
    }

    /// Any read sequence on one reader with an evicting budget returns
    /// what a fresh reader returns, under 1 and 4 threads, and the
    /// cache never holds more than its budget.
    #[test]
    fn evicting_reader_matches_fresh_readers_for_any_read_order() {
        for (budget, threads) in [(600, 1), (600, 4), (256, 4), (0, 1)] {
            let reader = reader_with_budget(budget);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = |n: usize| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (rng >> 33) as usize % n
            };
            foresight_util::parallel::with_threads(threads, || {
                for step in 0..120 {
                    let entry = &reader.fields()[next(3)];
                    let ext = entry.shape().extents();
                    let region = if next(5) == 0 {
                        Region::full(entry.shape())
                    } else {
                        let (mut lo, mut hi) = ([0; 3], [1; 3]);
                        for axis in 0..3 {
                            let (a, b) = (next(ext[axis]), next(ext[axis]));
                            lo[axis] = a.min(b);
                            hi[axis] = a.max(b) + 1;
                        }
                        Region::new(lo, hi).unwrap()
                    };
                    let (got, stats) = reader.read_region(entry.snapshot, &entry.name, region).unwrap();
                    let fresh = StoreReader::from_bytes(archive()).unwrap();
                    let (want, cold) = fresh.read_region(entry.snapshot, &entry.name, region).unwrap();
                    assert_eq!(bits(&got), bits(&want), "budget {budget} step {step} {region:?}");
                    assert_eq!(cold, reader.plan_region(entry.snapshot, &entry.name, region).unwrap());
                    assert!(stats.chunks_decoded <= stats.chunks_intersected);
                    assert_eq!(stats.chunks_intersected, cold.chunks_intersected);
                    assert!(resident(&reader).0 <= budget);
                }
            });
        }
    }

    #[test]
    fn a_read_larger_than_the_budget_inserts_nothing() {
        // s3 is 630 values = 2 520 B; four of its 256 B chunks fit.
        let reader = reader_with_budget(1100);
        let corner = Region::new([0, 0, 0], [8, 8, 4]).unwrap();
        let (_, cold) = reader.read_region(0, "s3", corner).unwrap();
        assert_eq!((cold.chunks_intersected, cold.chunks_decoded), (4, 4));
        let before = resident(&reader);
        assert_eq!(before.0, 1024);

        let (full, stats) = reader.extract(0, "s3").unwrap();
        assert_eq!(stats.chunks_intersected, 18);
        assert_eq!(stats.chunks_decoded, 14, "the four resident chunks are hits");
        assert_eq!(resident(&reader), before, "the extract must not flush the hot set");
        let fresh = StoreReader::from_bytes(archive()).unwrap();
        assert_eq!(bits(&full), bits(&fresh.extract(0, "s3").unwrap().0));

        let (_, warm) = reader.read_region(0, "s3", corner).unwrap();
        assert_eq!((warm.chunks_decoded, warm.bytes_touched, warm.compressed_bytes_read), (0, 0, 0));
    }

    #[test]
    fn a_poisoned_cache_lock_is_bypassed_not_a_panic() {
        let reader = reader_with_budget(CACHE_BUDGET_BYTES);
        let region = Region::new([1, 2, 0], [9, 11, 1]).unwrap();
        let (want, _) = reader.read_region(0, "z2", region).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = reader.cache.lock().unwrap();
                panic!("poison the cache lock");
            })
            .join()
        });
        assert!(poisoner.is_err() && reader.cache.is_poisoned());
        for _ in 0..2 {
            let (got, stats) = reader.read_region(0, "z2", region).unwrap();
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(stats, reader.plan_region(0, "z2", region).unwrap(), "every chunk decoded");
        }
    }
}
