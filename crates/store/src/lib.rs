//! `foresight-store`: a seekable, write-once snapshot archive with
//! chunk-granular random access.
//!
//! The paper's serving story ("millions of users reading slices" of Nyx
//! snapshots) needs a durable format, not in-memory planes. This crate
//! provides an MSFZ-style container: many fields × timesteps in one
//! file, each field cut into fixed-shape chunks compressed independently
//! through the existing GPU-SZ / cuZFP stream codecs, addressed by a
//! compact directory so any subvolume decompresses without touching the
//! rest of the archive, and a reader that keeps the chunks it decoded
//! so a region read again costs a copy.
//!
//! Layout (see `format` for the byte-level contract):
//!
//! ```text
//! superblock (68 B) | chunk fragments ... | directory (tail)
//! ```
//!
//! Integrity is layered: a CRC32 on the superblock, a CRC32 per chunk
//! payload, a CRC32 on the directory, a SHA-256 payload digest per
//! field, and a SHA-256 manifest digest over the directory pinned in the
//! superblock. All parsing is fail-closed on
//! [`foresight_util::ByteReader`] with capped, checked sizes — malformed
//! archives produce typed errors, never panics or absurd allocations.
//!
//! ```
//! use foresight_store::{ChunkCodec, FieldShape, Region, StoreReader, StoreWriter};
//!
//! let shape = FieldShape::d3(16, 16, 16);
//! let data: Vec<f32> = (0..shape.len()).map(|i| (i % 97) as f32).collect();
//! let mut w = StoreWriter::new();
//! w.add_field(0, "rho", &data, shape, [8, 8, 8], &ChunkCodec::sz_abs(1e-3)).unwrap();
//! let store = StoreReader::from_bytes(w.finish().unwrap()).unwrap();
//! let region = Region::new([2, 2, 2], [8, 8, 8]).unwrap();
//! let (values, stats) = store.read_region(0, "rho", region).unwrap();
//! assert_eq!(values.len(), 216);
//! assert_eq!((stats.chunks_intersected, stats.chunks_decoded), (1, 1));
//! assert_eq!(stats.chunks_in_field, 8);
//! // The reader keeps decoded chunks (an LRU under `CACHE_BUDGET_BYTES`):
//! // the same read again decodes nothing and returns the same values.
//! let (again, warm) = store.read_region(0, "rho", region).unwrap();
//! assert_eq!((warm.chunks_decoded, warm.cache_hits()), (0, 1));
//! assert_eq!(again, values);
//! // What a cacheless read costs is a pure function of the directory.
//! assert_eq!(store.plan_region(0, "rho", region).unwrap(), stats);
//! ```

#![forbid(unsafe_code)]

pub mod format;
pub mod grid;
pub mod reader;
pub mod writer;

pub use format::{BoundSpec, ChunkRef, CodecKind, Directory, FieldEntry, Superblock};
pub use grid::{ChunkGrid, FieldShape, Region};
pub use reader::{ReadStats, StoreCheck, StoreReader, CACHE_BUDGET_BYTES};
pub use writer::{ChunkCodec, StoreWriter};

use rayon::prelude::*;

/// Runs `work(i)` for every field `i` across the rayon workers and
/// returns the results in field order. SHA-256 is sequential within a
/// field, so the field is the unit of work; fields differ in payload
/// (`bytes[i]`) by 2x and more, so they are dealt largest first to the
/// least-loaded worker rather than split by count.
pub(crate) fn par_fields<T: Send>(bytes: &[u64], work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = rayon::current_num_threads().clamp(1, bytes.len().max(1));
    let mut by_size: Vec<usize> = (0..bytes.len()).collect();
    by_size.sort_by_key(|&i| std::cmp::Reverse(bytes[i]));
    let mut bins = vec![(0u64, Vec::new()); workers];
    for i in by_size {
        if let Some(bin) = bins.iter_mut().min_by_key(|bin| bin.0) {
            bin.0 += bytes[i];
            bin.1.push(i);
        }
    }
    let mut done: Vec<(usize, T)> = bins
        .par_iter()
        .map(|(_, fields)| fields.iter().map(|&i| (i, work(i))).collect::<Vec<_>>())
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    done.sort_unstable_by_key(|d| d.0);
    done.into_iter().map(|d| d.1).collect()
}
