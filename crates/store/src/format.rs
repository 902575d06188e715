//! On-disk layout of a foresight-store archive: superblock and chunk
//! directory.
//!
//! ```text
//! +--------------------+ offset 0
//! | superblock (68 B)  |  magic "FSTR" | version | dir_offset | dir_len
//! |                    |  | archive_len | dir_sha256 | crc32(first 64 B)
//! +--------------------+ offset 68
//! | fragments          |  chunk payloads: an SZ fragment (block metas,
//! |                    |  codes, outliers; no header, no Huffman table)
//! |                    |  or a complete ZFP stream
//! +--------------------+ offset dir_offset
//! | directory          |  magic "FDIR" | field entries | crc32
//! +--------------------+ offset archive_len
//! ```
//!
//! The directory is the archive's manifest: per field it records the
//! snapshot id, name, shape, chunk shape, codec, error-bound metadata,
//! for an SZ field its [`FieldCodebook`] (the header parameters its
//! fragments share, the absolute bound a REL bound resolved to over the
//! whole field, and the one Huffman codebook every fragment is coded
//! against), a SHA-256 over the field's concatenated chunk payloads, and
//! one `(offset, length, crc32)` fragment reference per chunk. The
//! superblock pins the directory with a SHA-256 so a reader can trust
//! the manifest after two small reads (superblock + directory tail) and
//! then touch only the fragments a request intersects.
//!
//! All parsing is fail-closed: every read goes through
//! [`foresight_util::ByteReader`], every header-derived size is capped
//! and checked, fragment references must land inside the fragment
//! region and must not overlap, and both the superblock CRC and the
//! directory CRC/SHA-256 must verify before any entry is returned.

use crate::codec::CodecKind;
use crate::grid::{ChunkGrid, FieldShape};
use foresight_util::crc::crc32;
use foresight_util::sha256::sha256;
use foresight_util::{ByteReader, Error, Result};
use lossy_sz::{ErrorBound, FieldCodebook};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Archive magic at offset 0.
pub const ARCHIVE_MAGIC: &[u8; 4] = b"FSTR";
/// Directory magic at `dir_offset`.
pub const DIR_MAGIC: &[u8; 4] = b"FDIR";
/// The only format version this crate reads or writes. Version 2 codes
/// an SZ field's chunks against one codebook in the directory; a
/// version-1 archive (every chunk a whole `SZRS` stream) is refused.
pub const VERSION: u32 = 2;
/// Fixed superblock size in bytes.
pub const SUPERBLOCK_LEN: usize = 68;
/// Longest accepted field name.
pub const MAX_NAME_LEN: usize = 256;
/// Largest accepted extent on any axis.
pub const MAX_EXTENT: u64 = 1 << 32;
/// Most chunks a single field may carry.
pub const MAX_CHUNK_COUNT: usize = 1 << 24;
/// Most fields an archive may carry.
pub const MAX_FIELD_COUNT: usize = 1 << 20;
/// Largest accepted single compressed fragment.
pub const MAX_FRAGMENT_LEN: u64 = 1 << 40;

/// The error bound a field was packed with, as the user gave it (display
/// and per-region bound selection; decoding never needs it — an SZ
/// field's [`FieldCodebook`] and a ZFP stream carry what they decode by).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSpec {
    /// Mode tag: SZ 0=abs, 1=rel, 2=pw_rel; ZFP 0=rate, 1=precision,
    /// 2=accuracy.
    pub tag: u8,
    /// The numeric bound parameter.
    pub value: f64,
}

impl BoundSpec {
    /// Validates tag range and parameter finiteness.
    pub fn validate(&self) -> Result<()> {
        if self.tag > 2 {
            return Err(Error::corrupt(format!("unknown bound tag {}", self.tag)));
        }
        if !self.value.is_finite() {
            return Err(Error::corrupt("non-finite bound parameter"));
        }
        Ok(())
    }

    /// Short human label, e.g. `abs=0.001` or `rate=8`.
    pub fn label(&self, codec: CodecKind) -> String {
        let name = match (codec, self.tag) {
            (CodecKind::Sz, 0) => "abs",
            (CodecKind::Sz, 1) => "rel",
            (CodecKind::Sz, _) => "pw_rel",
            (CodecKind::Zfp, 0) => "rate",
            (CodecKind::Zfp, 1) => "prec",
            (CodecKind::Zfp, _) => "acc",
        };
        format!("{name}={}", self.value)
    }
}

/// One chunk's fragment reference: where its compressed stream lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Absolute archive offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 of the payload bytes.
    pub crc32: u32,
}

/// One field × snapshot entry in the directory.
#[derive(Debug, Clone)]
pub struct FieldEntry {
    /// Snapshot (timestep) id.
    pub snapshot: u32,
    /// Field name (UTF-8, non-empty).
    pub name: String,
    /// The chunk decomposition (field shape + chunk shape).
    pub grid: ChunkGrid,
    /// Codec family all chunks use.
    pub codec: CodecKind,
    /// Error-bound metadata.
    pub bound: BoundSpec,
    /// An SZ field's shared part: what its fragments decode against.
    /// `None` for ZFP, whose chunks are complete streams.
    pub codebook: Option<Arc<FieldCodebook>>,
    /// SHA-256 over the field's concatenated chunk payloads.
    pub payload_sha256: [u8; 32],
    /// Fragment references in linear chunk order.
    pub chunks: Vec<ChunkRef>,
}

impl FieldEntry {
    /// The field's logical shape.
    pub fn shape(&self) -> FieldShape {
        self.grid.shape()
    }

    /// Compressed bytes of the field: its chunk payloads and, for SZ,
    /// the codebook its directory entry carries.
    pub fn compressed_len(&self) -> u64 {
        let shared = self.codebook.as_ref().map_or(0, |b| b.serialized_len() as u64);
        self.chunks.iter().fold(shared, |a, c| a.saturating_add(c.len))
    }

    /// The bound as packed, e.g. `abs=0.001`, with the absolute bound a
    /// REL bound resolved to over the whole field: `rel=0.001 abs=0.025400`.
    pub fn bound_label(&self) -> String {
        let label = self.bound.label(self.codec);
        match &self.codebook {
            Some(b) if matches!(b.mode(), ErrorBound::Rel(_)) => {
                format!("{label} abs={:.6}", b.eb_abs())
            }
            _ => label,
        }
    }

    /// Compression ratio relative to `len * 4` uncompressed bytes.
    pub fn ratio(&self) -> f64 {
        let comp = self.compressed_len();
        if comp == 0 {
            return f64::INFINITY;
        }
        (self.shape().len() as f64 * 4.0) / comp as f64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.snapshot.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.push(self.shape().ndim());
        for e in self.shape().extents() {
            out.extend_from_slice(&(e as u64).to_le_bytes());
        }
        for c in self.grid.chunk() {
            out.extend_from_slice(&(c as u64).to_le_bytes());
        }
        out.push(self.codec.tag());
        out.push(self.bound.tag);
        out.extend_from_slice(&self.bound.value.to_le_bytes());
        let shared = self.codebook.as_ref().map_or(0, |b| b.serialized_len());
        out.extend_from_slice(&(shared as u32).to_le_bytes());
        if let Some(b) = &self.codebook {
            b.serialize(out);
        }
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.offset.to_le_bytes());
            out.extend_from_slice(&c.len.to_le_bytes());
            out.extend_from_slice(&c.crc32.to_le_bytes());
        }
        out.extend_from_slice(&self.payload_sha256);
    }
}

/// The parsed archive directory.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// Entries in the order the writer added them.
    pub fields: Vec<FieldEntry>,
}

impl Directory {
    /// Serializes the directory, including its trailing CRC32.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DIR_MAGIC);
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for f in &self.fields {
            f.encode_into(&mut out);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Looks up a field by `(snapshot, name)`.
    pub fn find(&self, snapshot: u32, name: &str) -> Option<&FieldEntry> {
        self.fields.iter().find(|f| f.snapshot == snapshot && f.name == name)
    }

    /// Parses directory bytes, validating every fragment reference
    /// against the fragment region `[frag_lo, frag_hi)` and rejecting
    /// overlapping fragments and duplicate `(snapshot, name)` keys.
    pub fn parse(dir: &[u8], frag_lo: u64, frag_hi: u64) -> Result<Directory> {
        let mut r = ByteReader::new(dir);
        r.expect_magic(DIR_MAGIC, "a store directory")?;
        let n_fields = r.u32_le()? as usize;
        if n_fields > MAX_FIELD_COUNT {
            return Err(Error::corrupt(format!(
                "directory claims {n_fields} fields (cap {MAX_FIELD_COUNT})"
            )));
        }
        let mut fields = Vec::new();
        let mut seen: BTreeSet<(u32, String)> = BTreeSet::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n_fields {
            let f = parse_field(&mut r, frag_lo, frag_hi, &mut spans)?;
            if !seen.insert((f.snapshot, f.name.clone())) {
                return Err(Error::corrupt(format!(
                    "duplicate field entry snapshot={} name={:?}",
                    f.snapshot, f.name
                )));
            }
            fields.push(f);
        }
        let body_len = r.pos();
        let stored_crc = r.u32_le()?;
        if r.remaining() != 0 {
            return Err(Error::corrupt("trailing bytes after the directory CRC"));
        }
        let computed = crc32(&dir[..body_len]);
        if stored_crc != computed {
            return Err(Error::corrupt(format!(
                "directory CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            )));
        }
        // Fragments must not overlap: a reference aliasing another
        // chunk's bytes is either corruption or an amplification trick.
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(Error::corrupt(format!(
                    "overlapping chunk fragments at offsets {} and {}",
                    w[0].0, w[1].0
                )));
            }
        }
        Ok(Directory { fields })
    }
}

/// Parses one field entry, pushing its fragment spans for the
/// whole-directory overlap check.
fn parse_field(
    r: &mut ByteReader<'_>,
    frag_lo: u64,
    frag_hi: u64,
    spans: &mut Vec<(u64, u64)>,
) -> Result<FieldEntry> {
    let snapshot = r.u32_le()?;
    let name_len = r.u32_le()? as usize;
    if name_len == 0 || name_len > MAX_NAME_LEN {
        return Err(Error::corrupt(format!("field name length {name_len} out of range")));
    }
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| Error::corrupt("field name is not UTF-8"))?
        .to_string();
    let ndim = r.u8()?;
    let ext = [
        r.u64_le_capped(MAX_EXTENT, "field extent")?,
        r.u64_le_capped(MAX_EXTENT, "field extent")?,
        r.u64_le_capped(MAX_EXTENT, "field extent")?,
    ];
    let shape = FieldShape::from_parts(ndim, ext)?;
    if shape.checked_len().is_none() {
        return Err(Error::corrupt("field value count overflows"));
    }
    let chunk = [
        r.u64_le_capped(MAX_EXTENT, "chunk extent")?,
        r.u64_le_capped(MAX_EXTENT, "chunk extent")?,
        r.u64_le_capped(MAX_EXTENT, "chunk extent")?,
    ];
    let grid = ChunkGrid::new(shape, chunk).map_err(Error::into_corrupt)?;
    let expect_chunks = grid.len();
    if expect_chunks > MAX_CHUNK_COUNT {
        return Err(Error::corrupt(format!(
            "field claims {expect_chunks} chunks (cap {MAX_CHUNK_COUNT})"
        )));
    }
    let codec = CodecKind::from_tag(r.u8()?)?;
    let bound = BoundSpec { tag: r.u8()?, value: r.f64_le()? };
    bound.validate()?;
    let shared_len = r.u32_le()?;
    let shared_len = r.count(shared_len.into(), 1, "field codebook byte")?;
    let codebook = parse_codebook(codec, bound, shape, r.take(shared_len)?)?;
    let n_chunks = r.u32_le()? as usize;
    if n_chunks != expect_chunks {
        return Err(Error::corrupt(format!(
            "directory lists {n_chunks} chunks but the grid has {expect_chunks}"
        )));
    }
    let mut chunks = Vec::new();
    for _ in 0..n_chunks {
        let offset = r.u64_le()?;
        let len = r.u64_le_capped(MAX_FRAGMENT_LEN, "fragment length")? as u64;
        let crc = r.u32_le()?;
        if len == 0 {
            return Err(Error::corrupt("zero-length chunk fragment"));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| Error::corrupt("fragment end overflows"))?;
        if offset < frag_lo || end > frag_hi {
            return Err(Error::corrupt(format!(
                "fragment {offset}+{len} outside the fragment region [{frag_lo}, {frag_hi})"
            )));
        }
        spans.push((offset, end));
        chunks.push(ChunkRef { offset, len, crc32: crc });
    }
    let sha: [u8; 32] = r
        .take(32)?
        .try_into()
        .map_err(|_| Error::corrupt("short payload digest"))?;
    Ok(FieldEntry { snapshot, name, grid, codec, bound, codebook, payload_sha256: sha, chunks })
}

/// An SZ field's codebook, which must agree with the entry's bound and
/// shape; a ZFP field carries none.
fn parse_codebook(
    codec: CodecKind,
    bound: BoundSpec,
    shape: FieldShape,
    bytes: &[u8],
) -> Result<Option<Arc<FieldCodebook>>> {
    match codec {
        CodecKind::Zfp if bytes.is_empty() => Ok(None),
        CodecKind::Zfp => Err(Error::corrupt("a cuZFP field entry carries a codebook")),
        CodecKind::Sz if bytes.is_empty() => {
            Err(Error::corrupt("GPU-SZ field entry has no codebook"))
        }
        CodecKind::Sz => {
            let book = FieldCodebook::deserialize(bytes)?;
            let mode = book.mode();
            if mode.tag() != bound.tag || mode.value().to_bits() != bound.value.to_bits() {
                return Err(Error::corrupt("field codebook disagrees with the entry's bound"));
            }
            if book.ndim() != shape.ndim() {
                return Err(Error::corrupt("field codebook disagrees with the field's shape"));
            }
            Ok(Some(Arc::new(book)))
        }
    }
}

/// The fixed-size archive header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Format version (always [`VERSION`]).
    pub version: u32,
    /// Absolute offset of the directory.
    pub dir_offset: u64,
    /// Directory length in bytes.
    pub dir_len: u64,
    /// Total archive length in bytes.
    pub archive_len: u64,
    /// SHA-256 of the directory bytes (the manifest digest).
    pub dir_sha256: [u8; 32],
}

impl Superblock {
    /// Serializes the superblock, including its trailing CRC32.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SUPERBLOCK_LEN);
        out.extend_from_slice(ARCHIVE_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.dir_offset.to_le_bytes());
        out.extend_from_slice(&self.dir_len.to_le_bytes());
        out.extend_from_slice(&self.archive_len.to_le_bytes());
        out.extend_from_slice(&self.dir_sha256);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and CRC-checks a superblock from the front of `bytes`.
    pub fn parse(bytes: &[u8]) -> Result<Superblock> {
        let mut r = ByteReader::new(bytes);
        r.expect_magic(ARCHIVE_MAGIC, "a foresight-store archive")?;
        let version = r.u32_le()?;
        if version != VERSION {
            return Err(Error::corrupt(format!(
                "unsupported archive version {version} (expected {VERSION})"
            )));
        }
        let dir_offset = r.u64_le()?;
        let dir_len = r.u64_le()?;
        let archive_len = r.u64_le()?;
        let dir_sha256: [u8; 32] = r
            .take(32)?
            .try_into()
            .map_err(|_| Error::corrupt("short directory digest"))?;
        let body_len = r.pos();
        let stored_crc = r.u32_le()?;
        let computed = crc32(&bytes[..body_len]);
        if stored_crc != computed {
            return Err(Error::corrupt(format!(
                "superblock CRC mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"
            )));
        }
        Ok(Superblock { version, dir_offset, dir_len, archive_len, dir_sha256 })
    }

    /// Validates the region layout against the real archive length and
    /// returns the directory bounds as `usize` offsets.
    pub fn layout(&self, actual_len: u64) -> Result<(usize, usize)> {
        if self.archive_len != actual_len {
            return Err(Error::corrupt(format!(
                "superblock says {} bytes but the archive has {actual_len}",
                self.archive_len
            )));
        }
        if self.dir_offset < SUPERBLOCK_LEN as u64 {
            return Err(Error::corrupt("directory offset inside the superblock"));
        }
        let dir_end = self
            .dir_offset
            .checked_add(self.dir_len)
            .ok_or_else(|| Error::corrupt("directory end overflows"))?;
        if dir_end != self.archive_len {
            return Err(Error::corrupt(format!(
                "directory {}..{dir_end} does not end the {}-byte archive",
                self.dir_offset, self.archive_len
            )));
        }
        let off = usize::try_from(self.dir_offset)
            .map_err(|_| Error::corrupt("directory offset overflows usize"))?;
        let len = usize::try_from(self.dir_len)
            .map_err(|_| Error::corrupt("directory length overflows usize"))?;
        Ok((off, len))
    }
}

/// Parses a whole in-memory archive: superblock, layout checks, manifest
/// digest, directory.
pub fn parse_archive(bytes: &[u8]) -> Result<(Superblock, Directory)> {
    let sb = Superblock::parse(bytes)?;
    let (dir_offset, dir_len) = sb.layout(bytes.len() as u64)?;
    let mut r = ByteReader::new(bytes);
    let _superblock = r.take(SUPERBLOCK_LEN)?;
    let frag_len = dir_offset
        .checked_sub(SUPERBLOCK_LEN)
        .ok_or_else(|| Error::corrupt("directory offset inside the superblock"))?;
    let _fragments = r.take(frag_len)?;
    let dir = r.take(dir_len)?;
    if r.remaining() != 0 {
        return Err(Error::corrupt("trailing bytes after the directory"));
    }
    verify_manifest_digest(&sb, dir)?;
    let directory = Directory::parse(dir, SUPERBLOCK_LEN as u64, sb.dir_offset)?;
    Ok((sb, directory))
}

/// Checks directory bytes against the superblock's manifest digest.
pub fn verify_manifest_digest(sb: &Superblock, dir: &[u8]) -> Result<()> {
    let got = sha256(dir);
    if got != sb.dir_sha256 {
        return Err(Error::corrupt(
            "manifest digest mismatch: directory bytes do not hash to the superblock's SHA-256",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> FieldEntry {
        let grid = ChunkGrid::new(FieldShape::d3(8, 8, 8), [4, 4, 8]).unwrap();
        FieldEntry {
            snapshot: 3,
            name: "rho".into(),
            grid,
            codec: CodecKind::Zfp,
            bound: BoundSpec { tag: 1, value: 8.0 },
            codebook: None,
            payload_sha256: [7u8; 32],
            chunks: (0..4)
                .map(|i| ChunkRef { offset: 68 + i * 100, len: 100, crc32: i as u32 })
                .collect(),
        }
    }

    #[test]
    fn directory_round_trips() {
        let dir = Directory { fields: vec![sample_entry()] };
        let bytes = dir.encode();
        let back = Directory::parse(&bytes, 68, 68 + 400).unwrap();
        assert_eq!(back.fields.len(), 1);
        let f = &back.fields[0];
        assert_eq!(f.name, "rho");
        assert_eq!(f.snapshot, 3);
        assert_eq!(f.shape().extents(), [8, 8, 8]);
        assert_eq!(f.grid.chunk(), [4, 4, 8]);
        assert_eq!(f.chunks.len(), 4);
        assert_eq!(f.compressed_len(), 400);
        assert!(back.find(3, "rho").is_some());
        assert!(back.find(2, "rho").is_none());
    }

    #[test]
    fn directory_rejects_out_of_bounds_fragments() {
        let mut e = sample_entry();
        e.chunks[2].offset = 1_000_000; // past frag_hi
        let bytes = Directory { fields: vec![e] }.encode();
        assert!(Directory::parse(&bytes, 68, 68 + 400).is_err());
    }

    #[test]
    fn directory_rejects_overlapping_fragments() {
        let mut e = sample_entry();
        e.chunks[1].offset = e.chunks[0].offset + 1; // overlaps chunk 0
        let bytes = Directory { fields: vec![e] }.encode();
        let err = Directory::parse(&bytes, 68, 68 + 400).unwrap_err();
        assert!(err.to_string().contains("overlap"), "{err}");
    }

    #[test]
    fn directory_rejects_duplicate_keys() {
        let bytes = Directory { fields: vec![sample_entry(), sample_entry()] }.encode();
        // Duplicate (snapshot, name) also means overlapping fragments;
        // widen the second copy's offsets to isolate the key check.
        let mut e2 = sample_entry();
        for (i, c) in e2.chunks.iter_mut().enumerate() {
            c.offset = 68 + 400 + (i as u64) * 100;
        }
        let bytes2 = Directory { fields: vec![sample_entry(), e2] }.encode();
        assert!(Directory::parse(&bytes, 68, 68 + 800).is_err());
        let err = Directory::parse(&bytes2, 68, 68 + 800).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn directory_crc_catches_flips() {
        let bytes = Directory { fields: vec![sample_entry()] }.encode();
        for at in [5usize, 20, bytes.len() / 2] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(Directory::parse(&bad, 68, 68 + 400).is_err(), "flip at {at} accepted");
        }
    }

    #[test]
    fn superblock_round_trips_and_checks() {
        let sb = Superblock {
            version: VERSION,
            dir_offset: 1000,
            dir_len: 200,
            archive_len: 1200,
            dir_sha256: [9u8; 32],
        };
        let bytes = sb.encode();
        assert_eq!(bytes.len(), SUPERBLOCK_LEN);
        assert_eq!(Superblock::parse(&bytes).unwrap(), sb);
        assert_eq!(sb.layout(1200).unwrap(), (1000, 200));
        assert!(sb.layout(1201).is_err());
        let mut bad = bytes.clone();
        bad[10] ^= 1;
        assert!(Superblock::parse(&bad).is_err());
        for version in [1, 3] {
            let wrong_ver = Superblock { version, ..sb };
            assert!(Superblock::parse(&wrong_ver.encode()).is_err());
        }
    }
}
