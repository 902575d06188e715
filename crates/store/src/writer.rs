//! Archive packing: chunk a field, compress every chunk, lay fragments
//! out contiguously, and seal the archive with its directory and
//! superblock.
//!
//! The writer is write-once: fields accumulate in memory and
//! [`StoreWriter::finish`] produces the final byte image in one pass.
//! Chunks compress (and are CRC'd) in parallel (rayon). An SZ field is
//! coded against one codebook ([`lossy_sz::compress_fragments`]): every
//! chunk is quantized at the bound resolved once over the whole field,
//! one histogram folds all their codes, and each fragment is encoded
//! against the codebook the directory entry carries — still one
//! independently decodable fragment per chunk, the property the reader
//! exploits for chunk-granular random access. A ZFP chunk is a whole
//! stream. Sealing hashes the fields' payloads in parallel across
//! fields; the image is sized once and every stream copied into it once.

use crate::codec::{CodecConfig, CodecKind};
use crate::format::{
    BoundSpec, ChunkRef, Directory, FieldEntry, Superblock, MAX_CHUNK_COUNT, MAX_FIELD_COUNT,
    MAX_NAME_LEN, SUPERBLOCK_LEN, VERSION,
};
use crate::grid::{ChunkGrid, FieldShape, Region};
use foresight_util::crc::crc32;
use foresight_util::sha256::{sha256, Sha256};
use foresight_util::{telemetry, Error, Result};
use lossy_sz::FieldCodebook;
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;

struct PendingField {
    snapshot: u32,
    name: String,
    grid: ChunkGrid,
    codec: CodecKind,
    bound: BoundSpec,
    codebook: Option<Arc<FieldCodebook>>,
    /// Each chunk's compressed stream and its CRC32, in chunk-id order.
    streams: Vec<(Vec<u8>, u32)>,
}

/// Accumulates compressed fields and seals them into one archive image.
#[derive(Default)]
pub struct StoreWriter {
    fields: Vec<PendingField>,
}

impl StoreWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of fields added so far.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Chunks and compresses `data` as field `(snapshot, name)`.
    ///
    /// `data` must hold exactly `shape.len()` values in x-fastest order;
    /// `chunk` is the nominal chunk shape (boundary chunks clamp). An SZ
    /// REL bound means REL of the whole field's value range, as for one
    /// stream over the field: every chunk is packed at that ABS bound.
    pub fn add_field(
        &mut self,
        snapshot: u32,
        name: &str,
        data: &[f32],
        shape: FieldShape,
        chunk: [usize; 3],
        codec: &CodecConfig,
    ) -> Result<()> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(Error::invalid(format!(
                "field name length {} not in 1..={MAX_NAME_LEN}",
                name.len()
            )));
        }
        if self.fields.len() >= MAX_FIELD_COUNT {
            return Err(Error::invalid(format!("archive field cap {MAX_FIELD_COUNT} reached")));
        }
        if self.fields.iter().any(|f| f.snapshot == snapshot && f.name == name) {
            return Err(Error::invalid(format!(
                "field snapshot={snapshot} name={name:?} already added"
            )));
        }
        let n = shape
            .checked_len()
            .ok_or_else(|| Error::invalid("field value count overflows"))?;
        // The directory parser refuses zero extents; accepting one here
        // would seal an archive that no reader can open.
        if shape.is_empty() {
            return Err(Error::invalid(format!(
                "field {name:?} has a zero extent in shape {:?}",
                shape.extents()
            )));
        }
        if data.len() != n {
            return Err(Error::invalid(format!(
                "field {name:?} has {} values but shape {:?} needs {n}",
                data.len(),
                shape.extents()
            )));
        }
        let grid = ChunkGrid::new(shape, chunk)?;
        let n_chunks = grid.len();
        if n_chunks > MAX_CHUNK_COUNT {
            return Err(Error::invalid(format!(
                "field {name:?} would need {n_chunks} chunks (cap {MAX_CHUNK_COUNT})"
            )));
        }
        let ids = grid.intersecting(&Region::full(shape));
        let (codebook, streams) = match codec {
            CodecConfig::Sz(cfg) => {
                let eb_abs = lossy_sz::abs_bound(data, cfg.mode);
                let gather = |i: usize| (grid.gather(data, ids[i]), grid.chunk_shape_at(ids[i]));
                let (book, fragments) =
                    lossy_sz::compress_fragments(ids.len(), gather, cfg, eb_abs)?;
                (Some(Arc::new(book)), fragments)
            }
            CodecConfig::Zfp(_) => {
                let streams = ids
                    .par_iter()
                    .map(|&idx| {
                        codec.compress_chunk(&grid.gather(data, idx), grid.chunk_shape_at(idx))
                    })
                    .collect::<Result<Vec<Vec<u8>>>>()?;
                (None, streams)
            }
        };
        let streams: Vec<(Vec<u8>, u32)> = streams
            .into_par_iter()
            .map(|s| {
                let crc = crc32(&s);
                (s, crc)
            })
            .collect();
        telemetry::counter("store.chunks_packed", streams.len() as u64);
        self.fields.push(PendingField {
            snapshot,
            name: name.to_string(),
            grid,
            codec: codec.id(),
            bound: codec.bound(),
            codebook,
            streams,
        });
        Ok(())
    }

    /// Seals the archive: lays fragments out after the superblock,
    /// builds the directory with per-chunk CRCs and per-field payload
    /// digests (hashed across fields in parallel), and pins it with the
    /// superblock's manifest SHA-256.
    pub fn finish(self) -> Result<Vec<u8>> {
        if self.fields.is_empty() {
            return Err(Error::invalid("an archive must hold at least one field"));
        }
        let field_bytes: Vec<u64> = self
            .fields
            .iter()
            .map(|f| f.streams.iter().map(|(s, _)| s.len() as u64).sum())
            .collect();
        let digests = crate::par_fields(&field_bytes, |i| {
            let mut digest = Sha256::new();
            for (s, _) in &self.fields[i].streams {
                digest.update(s);
            }
            digest.finalize()
        });
        let mut offset = SUPERBLOCK_LEN as u64;
        let entries = self
            .fields
            .iter()
            .zip(digests)
            .map(|(f, payload_sha256)| FieldEntry {
                snapshot: f.snapshot,
                name: f.name.clone(),
                grid: f.grid,
                codec: f.codec,
                bound: f.bound,
                codebook: f.codebook.clone(),
                payload_sha256,
                chunks: f
                    .streams
                    .iter()
                    .map(|&(ref s, crc32)| {
                        let chunk = ChunkRef { offset, len: s.len() as u64, crc32 };
                        offset += chunk.len;
                        chunk
                    })
                    .collect(),
            })
            .collect();
        let dir = Directory { fields: entries }.encode();
        let dir_offset = offset as usize;
        let archive_len = dir_offset + dir.len();
        let sb = Superblock {
            version: VERSION,
            dir_offset: dir_offset as u64,
            dir_len: dir.len() as u64,
            archive_len: archive_len as u64,
            dir_sha256: sha256(&dir),
        };
        let mut out = Vec::with_capacity(archive_len);
        out.extend_from_slice(&sb.encode());
        for (s, _) in self.fields.iter().flat_map(|f| &f.streams) {
            out.extend_from_slice(s);
        }
        debug_assert_eq!(out.len(), dir_offset);
        out.extend_from_slice(&dir);
        telemetry::counter("store.archives_packed", 1);
        telemetry::counter("store.packed_bytes", out.len() as u64);
        Ok(out)
    }

    /// Seals the archive and writes it to `path`.
    pub fn write_file(self, path: &Path) -> Result<()> {
        let bytes = self.finish()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }
}
