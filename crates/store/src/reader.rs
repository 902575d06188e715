//! Chunk-granular archive reads that decode only the blocks they return.
//!
//! [`StoreReader`] opens an archive (in memory or file-backed), verifies
//! the superblock, the directory CRC, and the manifest SHA-256 up front,
//! parses every SZ field's codebook once (its decode table, full width,
//! is built by the field's first decode and kept with it), and then
//! serves `(snapshot, field, region)` reads in three steps: look the
//! parts of the intersecting chunks the region needs up in the decode
//! cache, decode the rest in parallel, scatter.
//!
//! A chunk decodes in *layers* (DESIGN §14.7): a ZFP chunk in whole
//! layers of its `4^d` blocks along its slowest used axis, which a
//! fixed-rate stream reaches by seeking ([`lossy_zfp::decompress_layers`]),
//! an SZ fragment as one layer, the chunk (its block is the chunk). A
//! read decodes only the layers its region meets, so a one-value plane
//! through 16³ ZFP chunks decodes a quarter of their blocks, and a read
//! that needs a whole chunk decodes it in one pass. Every chunk payload
//! is CRC-checked whole before any block of it is decoded, and every
//! decode must match the shape and value count the directory promised;
//! only a decode that passed both is ever cached, so a corrupt chunk
//! fails every read that decodes it. A cached decode is not verified
//! again: bytes that change in the file after a decode are not seen on
//! a hit.
//!
//! The cache is an LRU of *units*, each a run of whole layers of one
//! chunk, keyed `(directory entry, chunk id, first layer)` under the
//! fixed byte budget [`CACHE_BUDGET_BYTES`]; a chunk's units are found
//! by one ordered range lookup. A read whose decodes would materialize
//! more than the whole budget (a full extract of a large field) inserts
//! nothing, so it cannot flush the hot set.
//!
//! [`StoreReader::plan_region`] is the accounting a cacheless read would
//! report, a pure function of directory and region. Anything that must
//! repeat run to run (the simulated clock in `foresight::serve`) reads
//! the plan; the [`ReadStats`] a read returns count the work that call
//! really did and depend on what earlier reads left in the cache.
//!
//! Telemetry (zero-cost when disabled):
//! - `store.region_reads`, `store.chunks_read` (chunks intersected),
//!   `store.chunks_decoded` (chunks decoded from), `store.blocks_decoded`
//! - `store.cache.hits`, `store.cache.misses`, `store.cache.evictions`,
//!   gauge `store.cache.bytes` (resident decoded bytes)
//! - `store.compressed_bytes_read`, `store.bytes_touched`,
//!   `store.bytes_returned`
//! - gauge `store.read_amplification` = bytes touched / bytes returned
//!   for the most recent read (0 for a read served from the cache alone).
//!
//! Everything but `region_reads`, `chunks_read` and `bytes_returned` is
//! host-side work: with concurrent readers on one `StoreReader` which of
//! two racing reads takes the miss depends on the schedule.

use crate::format::{self, ChunkRef, Directory, FieldEntry, Superblock, SUPERBLOCK_LEN};
use crate::grid::{ChunkGrid, FieldShape, Region};
use foresight_util::crc::crc32;
use foresight_util::sha256::{to_hex, Sha256};
use foresight_util::tiles::Tile;
use foresight_util::{telemetry, Error, Result};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::File;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Byte budget of a reader's decode cache. The benchmark's
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
    /// Chunks this read fetched, CRC-checked and decoded layers of; the
    /// cache held all the rest of the intersecting chunks needed.
    pub chunks_decoded: u64,
    /// Codec blocks this read decoded: the `4^d` blocks of the ZFP
    /// layers it needed, and one for each SZ fragment (decoded whole).
    pub blocks_decoded: u64,
    /// Compressed fragment bytes this read fetched from the archive:
    /// whole fragments, since a chunk's CRC covers all of it.
    pub compressed_bytes_read: u64,
    /// Uncompressed bytes this read's decodes materialized.
    pub bytes_touched: u64,
    /// Uncompressed bytes the caller asked for (region size × 4).
    pub bytes_returned: u64,
}

impl ReadStats {
    /// Bytes touched per byte returned; 0 when the cache served it all.
    pub fn amplification(&self) -> f64 {
        if self.bytes_returned == 0 {
            return 0.0;
        }
        self.bytes_touched as f64 / self.bytes_returned as f64
    }

    /// Intersecting chunks served from the cache alone.
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

/// Where fragments come from. A file is read with positional reads, so
/// parallel misses fetch at once with no lock or shared cursor.
enum Backing {
    Bytes(Vec<u8>),
    File(File),
}

/// Cache key: index of the field's directory entry, linear chunk id,
/// first layer of the unit.
type UnitKey = (usize, usize, usize);

/// One cached unit: a run of whole layers of one chunk.
struct Unit {
    /// Stamp of its last use; stamps are unique.
    stamp: u64,
    /// One past its last layer.
    end: usize,
    /// The decoded values of its layers, shared as decoded (an
    /// `Arc<[f32]>` would copy them).
    values: Arc<Vec<f32>>,
}

/// Decoded units in least-recently-used order under a byte budget.
/// Both maps are ordered, so nothing here depends on hash order. A hit
/// only restamps its unit, so a chunk's lookup is one range search;
/// eviction files a unit used since it was filed again at its last use
/// before it takes the next, so it still takes the least recently used.
#[derive(Default)]
struct ChunkCache {
    /// Decoded bytes resident; never above the budget between calls.
    bytes: usize,
    /// Stamp of the most recent use.
    clock: u64,
    entries: BTreeMap<UnitKey, Unit>,
    /// Stamp → key, one entry per unit, at its insert or at a use no
    /// later than its last.
    by_age: BTreeMap<u64, UnitKey>,
}

impl ChunkCache {
    /// What the cache holds of layers `want` of chunk `(field, id)`:
    /// hands `hit` each unit that covers a wanted layer no earlier unit
    /// covered, marked most recently used, and returns the layers left to
    /// decode: from the first wanted layer no unit covers to one past the
    /// last (empty when none is left), so a chunk decodes in one pass.
    fn lookup(
        &mut self,
        (field, id): (usize, usize),
        want: Range<usize>,
        mut hit: impl FnMut(Range<usize>, Arc<Vec<f32>>),
    ) -> Range<usize> {
        let (mut at, mut gap) = (want.start, want.end..want.end);
        let mut uncovered = |run: Range<usize>| {
            gap = if gap.is_empty() { run } else { gap.start..run.end };
        };
        for (&key, unit) in self.entries.range_mut((field, id, 0)..(field, id, want.end)) {
            if unit.end <= at {
                continue;
            }
            if key.2 > at {
                uncovered(at..key.2);
            }
            self.clock += 1;
            unit.stamp = self.clock;
            hit(key.2..unit.end, Arc::clone(&unit.values));
            at = unit.end;
        }
        if at < want.end {
            uncovered(at..want.end);
        }
        gap
    }

    /// Caches a verified decode of layers `key.2..end` and evicts from
    /// the cold end until `budget` holds again; returns the number of
    /// evictions. A key already present (a racing reader decoded it too)
    /// keeps its entry.
    fn insert(&mut self, key: UnitKey, end: usize, values: Arc<Vec<f32>>, budget: usize) -> u64 {
        let size = values.len() * 4;
        if size > budget || self.entries.contains_key(&key) {
            return 0;
        }
        self.clock += 1;
        self.entries.insert(key, Unit { stamp: self.clock, end, values });
        self.by_age.insert(self.clock, key);
        self.bytes += size;
        let mut evicted = 0;
        while self.bytes > budget {
            let Some((filed, coldest)) = self.by_age.pop_first() else { break };
            match self.entries.get(&coldest) {
                Some(unit) if unit.stamp != filed => {
                    self.by_age.insert(unit.stamp, coldest);
                }
                Some(unit) => {
                    self.bytes -= unit.values.len() * 4;
                    self.entries.remove(&coldest);
                    evicted += 1;
                }
                None => {}
            }
        }
        evicted
    }
}

/// One chunk a read intersects, and the layers of it the read needs.
struct PlannedChunk<'r> {
    id: usize,
    /// Where the chunk starts in the field.
    origin: [usize; 3],
    fragment: ChunkRef,
    shape: FieldShape,
    /// A ZFP chunk's `4^d` blocks, numbered in layers; `None` for an SZ
    /// fragment, which is one layer (0), the whole chunk.
    blocks: Option<&'r ChunkGrid>,
    /// The layers the region meets.
    layers: Range<usize>,
}

impl PlannedChunk<'_> {
    /// Codec blocks and values of decoding `layers`.
    fn cost(&self, layers: &Range<usize>) -> (u64, usize) {
        match self.blocks {
            Some(blocks) => {
                let slab = blocks.layers(layers.clone());
                (slab.tiles.len() as u64, slab.values.len())
            }
            None => (1, self.shape.len()),
        }
    }

    /// Copies the part of the decoded `layers` inside `region` into `out`.
    fn scatter(&self, layers: Range<usize>, values: &[f32], region: &Region, out: &mut [f32]) {
        let tile = match self.blocks {
            Some(blocks) => blocks.layer_box(layers, self.origin),
            None => Tile { origin: self.origin, size: self.shape.extents() },
        };
        tile.scatter_into(values, region, out);
    }
}

/// The chunks `region` intersects in ascending id order with the layers
/// of each it needs, and the accounting of reading them with no cache;
/// `tilings` is [`block_tilings`] of the entry.
fn plan<'r>(
    entry: &FieldEntry,
    tilings: &'r [ChunkGrid],
    region: &Region,
) -> Result<(Vec<PlannedChunk<'r>>, ReadStats)> {
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
    let intersecting = grid.intersecting(region);
    let mut chunks = Vec::with_capacity(intersecting.len());
    for idx in intersecting {
        let id = grid.linear(idx);
        let fragment = *entry
            .chunks
            .get(id)
            .ok_or_else(|| Error::corrupt(format!("chunk id {id} outside the directory")))?;
        let (origin, shape) = (grid.origin(idx), grid.chunk_shape_at(idx));
        shape.checked_len().ok_or_else(|| Error::corrupt("chunk value count overflows"))?;
        let blocks = match entry.codebook {
            Some(_) => None,
            None => Some(
                tilings
                    .iter()
                    .find(|b| b.shape() == shape)
                    .ok_or_else(|| Error::corrupt("a ZFP chunk's blocks do not tile it"))?,
            ),
        };
        let layers = blocks.map_or(0..1, |b| b.layers_within(region, origin));
        let c = PlannedChunk { id, origin, fragment, shape, blocks, layers };
        let (blocks, values) = c.cost(&c.layers);
        stats.chunks_intersected += 1;
        stats.blocks_decoded += blocks;
        stats.compressed_bytes_read += fragment.len;
        stats.bytes_touched += values as u64 * 4;
        chunks.push(c);
    }
    stats.chunks_decoded = stats.chunks_intersected;
    Ok((chunks, stats))
}

/// A ZFP field's chunk shapes — at most one per corner of its grid, as
/// only the last chunk along an axis is clamped — each tiled into its
/// `4^d` blocks; none for an SZ field.
fn block_tilings(entry: &FieldEntry) -> Vec<ChunkGrid> {
    let mut tilings: Vec<ChunkGrid> = Vec::new();
    if entry.codebook.is_some() {
        return tilings;
    }
    let last = entry.grid.counts().map(|n| n.saturating_sub(1));
    for corner in 0..8 {
        let shape = entry.grid.chunk_shape_at([0, 1, 2].map(|i| (corner >> i & 1) * last[i]));
        if tilings.iter().all(|b| b.shape() != shape) {
            tilings.extend(ChunkGrid::cubes(shape, 4));
        }
    }
    tilings
}

/// Read-side handle over a sealed archive.
pub struct StoreReader {
    backing: Backing,
    superblock: Superblock,
    directory: Directory,
    /// [`block_tilings`] of each directory entry.
    tilings: Vec<Vec<ChunkGrid>>,
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
        for book in directory.fields.iter().filter_map(|f| f.codebook.as_ref()) {
            crate::codec::register_codebook(book);
        }
        let tilings = directory.fields.iter().map(block_tilings).collect();
        Self {
            backing,
            superblock,
            directory,
            tilings,
            cache: Mutex::default(),
            budget: CACHE_BUDGET_BYTES,
        }
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
        let f = File::open(path)?;
        let actual_len = f.metadata()?.len();
        let mut head = [0u8; SUPERBLOCK_LEN];
        f.read_exact_at(&mut head, 0)?;
        let superblock = Superblock::parse(&head)?;
        let (dir_offset, dir_len) = superblock.layout(actual_len)?;
        // layout() proved dir_offset + dir_len == the real file length,
        // so this allocation is bounded by the bytes actually on disk.
        if (dir_len as u64) > actual_len {
            return Err(Error::corrupt("directory longer than the archive"));
        }
        let mut dir = vec![0u8; dir_len];
        f.read_exact_at(&mut dir, dir_offset as u64)?;
        format::verify_manifest_digest(&superblock, &dir)?;
        let directory = Directory::parse(&dir, SUPERBLOCK_LEN as u64, superblock.dir_offset)?;
        Ok(Self::new(Backing::File(f), superblock, directory))
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
    /// cache: every intersecting chunk fetched, and the layers of it the
    /// region meets decoded. A pure function of the directory and the
    /// region; reads no fragment.
    pub fn plan_region(&self, snapshot: u32, name: &str, region: Region) -> Result<ReadStats> {
        let (field, entry) = self.locate(snapshot, name)?;
        Ok(plan(entry, &self.tilings[field], &region)?.1)
    }

    /// Reads the subvolume `region` of field `(snapshot, name)`,
    /// decoding only the layers of intersecting chunks it needs that the
    /// cache does not hold.
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
        let (chunks, planned) = plan(entry, &self.tilings[field], &region)?;
        let mut out = vec![0f32; (planned.bytes_returned / 4) as usize];

        // Look up: per chunk, the cached units that cover its layers and
        // the run of layers left to decode (which the decode's scatter
        // overwrites any hit inside of with the same values). A poisoned
        // lock means a reader panicked inside the cache, so this read goes
        // round it: everything decoded, nothing inserted.
        let mut hits = Vec::with_capacity(chunks.len());
        let mut misses: Vec<(&PlannedChunk, Range<usize>)> = Vec::new();
        match self.cache.lock() {
            Ok(mut cache) => {
                for c in &chunks {
                    let hit = |layers, values| hits.push((c, layers, values));
                    let gap = cache.lookup((field, c.id), c.layers.clone(), hit);
                    if !gap.is_empty() {
                        misses.push((c, gap));
                    }
                }
            }
            Err(_) => misses.extend(chunks.iter().map(|c| (c, c.layers.clone()))),
        }
        for (c, layers, values) in hits {
            c.scatter(layers, &values, &region, &mut out);
        }

        // Decode the misses outside the lock, in windows of at most one
        // budget of decoded bytes: a read small enough to be cached is
        // one window, and a larger one never holds a second copy of the
        // region. `par_iter` keeps input order and the ids ascend, so
        // the first error is the lowest failing chunk's; a window of one
        // chunk runs inline in the rayon shim.
        let budget = self.budget as u64;
        let cacheable = planned.bytes_touched <= budget;
        let mut stats = ReadStats {
            chunks_decoded: 0,
            blocks_decoded: 0,
            compressed_bytes_read: 0,
            bytes_touched: 0,
            ..planned
        };
        let mut fresh = Vec::new();
        let mut rest = misses.as_slice();
        while !rest.is_empty() {
            let mut window_bytes = 0;
            let len = rest
                .iter()
                .take_while(|(c, layers)| {
                    window_bytes += c.cost(layers).1 as u64 * 4;
                    window_bytes <= budget
                })
                .count()
                .max(1);
            let (window, tail) = rest.split_at(len);
            rest = tail;
            let decoded = window
                .par_iter()
                .map(|(c, layers)| self.decode(entry, c, layers.clone()))
                .collect::<Result<Vec<_>>>()?;
            for ((c, layers), values) in window.iter().zip(decoded) {
                let (blocks, n) = c.cost(layers);
                stats.chunks_decoded += 1;
                stats.blocks_decoded += blocks;
                stats.compressed_bytes_read += c.fragment.len;
                stats.bytes_touched += n as u64 * 4;
                c.scatter(layers.clone(), &values, &region, &mut out);
                if cacheable {
                    fresh.push(((field, c.id, layers.start), layers.end, Arc::new(values)));
                }
            }
        }

        let mut evictions = 0;
        if !fresh.is_empty() {
            if let Ok(mut cache) = self.cache.lock() {
                for (key, end, values) in fresh {
                    evictions += cache.insert(key, end, values, self.budget);
                }
                telemetry::gauge("store.cache.bytes", cache.bytes as f64);
            }
        }
        telemetry::counter("store.region_reads", 1);
        telemetry::counter("store.chunks_read", stats.chunks_intersected);
        telemetry::counter("store.chunks_decoded", stats.chunks_decoded);
        telemetry::counter("store.blocks_decoded", stats.blocks_decoded);
        telemetry::counter("store.cache.hits", stats.cache_hits());
        telemetry::counter("store.cache.misses", stats.chunks_decoded);
        telemetry::counter("store.cache.evictions", evictions);
        telemetry::counter("store.compressed_bytes_read", stats.compressed_bytes_read);
        telemetry::counter("store.bytes_touched", stats.bytes_touched);
        telemetry::counter("store.bytes_returned", stats.bytes_returned);
        telemetry::gauge("store.read_amplification", stats.amplification());
        Ok((out, stats))
    }

    /// Fetches one chunk's fragment and checks its CRC — over all of it,
    /// before any block of it is decoded — then decodes `layers`.
    fn decode(
        &self,
        entry: &FieldEntry,
        chunk: &PlannedChunk,
        layers: Range<usize>,
    ) -> Result<Vec<f32>> {
        let payload = self.fragment(&chunk.fragment)?;
        if crc32(&payload) != chunk.fragment.crc32 {
            return Err(Error::corrupt(format!(
                "chunk {} of field {:?} failed its CRC",
                chunk.id, entry.name
            )));
        }
        decode_layers(entry, &payload, chunk, layers)
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
                // Directory parsing bounded every fragment inside
                // [SUPERBLOCK_LEN, dir_offset), which layout() proved is
                // inside the file, so n is bounded by the file size.
                if cref.len > self.superblock.archive_len {
                    return Err(Error::corrupt("fragment longer than the archive"));
                }
                let mut buf = vec![0u8; n];
                file.read_exact_at(&mut buf, cref.offset)?;
                Ok(Cow::Owned(buf))
            }
        }
    }
}

/// Decodes layers `layers` of one chunk payload — an SZ fragment (one
/// layer, the chunk) against its field's codebook, a ZFP stream on its
/// own, every layer of the run in one pass — and checks it against the
/// shape and value count the directory promised.
fn decode_layers(
    entry: &FieldEntry,
    payload: &[u8],
    chunk: &PlannedChunk,
    layers: Range<usize>,
) -> Result<Vec<f32>> {
    let (values, dims) = match &entry.codebook {
        Some(book) => book.decode(payload)?,
        None => {
            lossy_zfp::decompress_layers(payload, layers.clone()).map_err(Error::into_corrupt)?
        }
    };
    if dims != chunk.shape {
        return Err(Error::corrupt("chunk stream dims disagree with the directory"));
    }
    let want = chunk.cost(&layers).1;
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
    use crate::writer::StoreWriter;
    use crate::ChunkCodec;

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

    fn resident(reader: &StoreReader) -> (usize, Vec<UnitKey>) {
        let cache = reader.cache.lock().unwrap();
        assert_eq!(cache.entries.len(), cache.by_age.len());
        let sum: usize = cache.entries.values().map(|u| u.values.len() * 4).sum();
        assert_eq!(sum, cache.bytes);
        (cache.bytes, cache.entries.keys().copied().collect())
    }

    /// The units `lookup` hands out for layers `want` of chunk `(0, id)`,
    /// and the run it leaves to decode.
    fn look(cache: &mut ChunkCache, id: usize, want: Range<usize>) -> (Vec<[usize; 2]>, Range<usize>) {
        let mut hits = Vec::new();
        let gap = cache.lookup((0, id), want, |layers, _| hits.push([layers.start, layers.end]));
        (hits, gap)
    }

    #[test]
    fn cache_evicts_the_least_recently_used_and_stays_inside_its_budget() {
        let unit = |n: usize| Arc::new(vec![0f32; n]);
        let mut cache = ChunkCache::default();
        let budget = 100 * 4;
        assert_eq!(cache.insert((0, 0, 0), 1, unit(40), budget), 0);
        assert_eq!(cache.insert((0, 1, 0), 1, unit(40), budget), 0);
        assert_eq!(cache.insert((0, 1, 0), 1, unit(40), budget), 0, "a present key stays");
        assert_eq!(cache.bytes, 320);
        // Touch chunk 0: chunk 1 is now the coldest and goes first.
        assert_eq!(look(&mut cache, 0, 0..1), (vec![[0, 1]], 1..1));
        assert_eq!(cache.insert((1, 0, 0), 1, unit(40), budget), 1);
        assert_eq!(look(&mut cache, 1, 0..1), (vec![], 0..1));
        assert_eq!(look(&mut cache, 0, 0..1).0.len(), 1);
        // One large entry pushes out as many as it needs, coldest first.
        assert_eq!(cache.insert((2, 0, 0), 1, unit(100), budget), 2);
        assert_eq!((cache.bytes, cache.entries.len(), cache.by_age.len()), (400, 1, 1));
        // An entry larger than the whole budget is refused and evicts nothing.
        assert_eq!(cache.insert((3, 0, 0), 1, unit(101), budget), 0);
        assert_eq!(cache.entries.keys().copied().collect::<Vec<_>>(), [(2, 0, 0)]);
    }

    /// Units are runs of layers: a lookup uses those that cover what it
    /// wants, skips those a unit before them already covered, and leaves
    /// one run to decode, from the first uncovered layer to the end of the
    /// last; only the units it uses get younger.
    #[test]
    fn lookup_covers_wanted_layers_with_units_and_leaves_one_run() {
        let unit = |n: usize| Arc::new(vec![0f32; n]);
        let mut cache = ChunkCache::default();
        for (first, end) in [(1, 2), (4, 7), (5, 6), (8, 9)] {
            cache.insert((0, 0, first), end, unit(8), 1 << 20);
        }
        cache.insert((0, 1, 0), 9, unit(8), 1 << 20);
        let all = look(&mut cache, 0, 0..9);
        assert_eq!(all, (vec![[1, 2], [4, 7], [8, 9]], 0..8));
        assert_eq!(look(&mut cache, 0, 5..6), (vec![[4, 7]], 6..6));
        assert_eq!(look(&mut cache, 0, 2..4), (vec![], 2..4));
        assert_eq!(look(&mut cache, 0, 6..10), (vec![[4, 7], [8, 9]], 7..10));
        assert_eq!(look(&mut cache, 0, 4..7), (vec![[4, 7]], 7..7));
        // (0, 0, 5) was never used, and chunk 1's unit is older than the
        // rest, so each of two inserts at a full budget takes one of them.
        for (id, coldest) in [(0, (0, 0, 5)), (1, (0, 1, 0))] {
            assert_eq!(cache.insert((1, id, 0), 1, unit(8), 5 * 32), 1);
            assert!(!cache.entries.contains_key(&coldest), "{coldest:?}");
        }
        assert_eq!((cache.entries.len(), cache.by_age.len(), cache.bytes), (5, 5, 5 * 32));
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
