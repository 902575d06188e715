//! Archive packing: chunk a field, compress every chunk independently,
//! lay fragments out contiguously, and seal the archive with its
//! directory and superblock.
//!
//! The writer is write-once: fields accumulate in memory and
//! [`StoreWriter::finish`] produces the final byte image in one pass.
//! Chunks compress (and are CRC'd) in parallel (rayon) because chunking
//! makes each stream independent — exactly the property the reader
//! exploits for chunk-granular random access. Sealing hashes the fields'
//! payloads in parallel across fields; the image is sized once and every
//! stream copied into it once.

use crate::format::{
    BoundSpec, ChunkRef, CodecKind, Directory, FieldEntry, Superblock, MAX_CHUNK_COUNT,
    MAX_FIELD_COUNT, MAX_NAME_LEN, SUPERBLOCK_LEN, VERSION,
};
use crate::grid::{ChunkGrid, FieldShape, Region};
use foresight_util::crc::crc32;
use foresight_util::sha256::{sha256, Sha256};
use foresight_util::{telemetry, Error, Result};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use rayon::prelude::*;
use std::path::Path;

/// Codec + error-bound selection for one field's chunks.
#[derive(Debug, Clone)]
pub enum ChunkCodec {
    /// GPU-SZ with the given configuration.
    Sz(SzConfig),
    /// cuZFP with the given configuration.
    Zfp(ZfpConfig),
}

impl ChunkCodec {
    /// SZ with an absolute error bound.
    pub fn sz_abs(eb: f64) -> Self {
        ChunkCodec::Sz(SzConfig::abs(eb))
    }

    /// SZ with a value-range-relative error bound.
    pub fn sz_rel(rel: f64) -> Self {
        ChunkCodec::Sz(SzConfig::rel(rel))
    }

    /// ZFP in fixed-rate mode.
    pub fn zfp_rate(rate: f64) -> Self {
        ChunkCodec::Zfp(ZfpConfig::rate(rate))
    }

    /// Which codec family this is.
    pub fn kind(&self) -> CodecKind {
        match self {
            ChunkCodec::Sz(_) => CodecKind::Sz,
            ChunkCodec::Zfp(_) => CodecKind::Zfp,
        }
    }

    /// The bound metadata recorded in the directory.
    pub fn bound(&self) -> BoundSpec {
        match self {
            ChunkCodec::Sz(cfg) => {
                let tag = match cfg.mode {
                    lossy_sz::ErrorBound::Abs(_) => 0,
                    lossy_sz::ErrorBound::Rel(_) => 1,
                    lossy_sz::ErrorBound::PwRel(_) => 2,
                };
                BoundSpec { tag, value: cfg.mode.value() }
            }
            ChunkCodec::Zfp(cfg) => BoundSpec { tag: cfg.mode.tag(), value: cfg.mode.param() },
        }
    }

    /// Short human label, e.g. `GPU-SZ abs=0.001`.
    pub fn label(&self) -> String {
        let kind = self.kind();
        format!("{} {}", kind.display(), self.bound().label(kind))
    }

    /// Compresses one dense chunk with this codec.
    pub fn compress_chunk(&self, values: &[f32], shape: FieldShape) -> Result<Vec<u8>> {
        match self {
            ChunkCodec::Sz(cfg) => lossy_sz::compress(values, shape.sz_dims(), cfg),
            ChunkCodec::Zfp(cfg) => lossy_zfp::compress(values, shape.zfp_dims(), cfg),
        }
    }
}

struct PendingField {
    snapshot: u32,
    name: String,
    grid: ChunkGrid,
    codec: CodecKind,
    bound: BoundSpec,
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
    /// `chunk` is the nominal chunk shape (boundary chunks clamp).
    pub fn add_field(
        &mut self,
        snapshot: u32,
        name: &str,
        data: &[f32],
        shape: FieldShape,
        chunk: [usize; 3],
        codec: &ChunkCodec,
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
        if data.len() != n {
            return Err(Error::invalid(format!(
                "field {name:?} has {} values but shape {:?} needs {n}",
                data.len(),
                shape.extents()
            )));
        }
        let grid = ChunkGrid::new(shape, chunk)?;
        let n_chunks = grid
            .checked_n_chunks()
            .ok_or_else(|| Error::invalid("chunk count overflows"))?;
        if n_chunks > MAX_CHUNK_COUNT {
            return Err(Error::invalid(format!(
                "field {name:?} would need {n_chunks} chunks (cap {MAX_CHUNK_COUNT})"
            )));
        }
        let ids = grid.intersecting(&Region::full(shape));
        let streams = ids
            .par_iter()
            .map(|&idx| {
                let stream =
                    codec.compress_chunk(&grid.gather(data, idx), grid.chunk_shape_at(idx))?;
                let crc = crc32(&stream);
                Ok((stream, crc))
            })
            .collect::<Result<Vec<(Vec<u8>, u32)>>>()?;
        telemetry::counter("store.chunks_packed", streams.len() as u64);
        self.fields.push(PendingField {
            snapshot,
            name: name.to_string(),
            grid,
            codec: codec.kind(),
            bound: codec.bound(),
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
