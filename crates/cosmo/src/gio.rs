//! GIO-lite: a blocked, checksummed binary format for particle snapshots.
//!
//! GenericIO — HACC's native format — stores per-rank variable blocks with
//! CRC protection. GIO-lite keeps the properties the pipeline exercises
//! (named f32 columns, per-block CRC32, self-describing header) in a
//! deliberately small layout:
//!
//! ```text
//! magic "GIOL" | version u8 | reserved [3]u8 | num_rows u64 | num_fields u32
//! per field: name_len u16 | name bytes | payload_len u64 | crc32 u32
//! payloads in field order (f32 LE)
//! ```

use foresight_util::crc::crc32;
use foresight_util::{ByteReader, Error, Result};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"GIOL";
const VERSION: u8 = 1;

/// An in-memory GIO-lite document: named f32 columns of equal length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GioFile {
    /// `(name, column)` pairs, written in order.
    pub fields: Vec<(String, Vec<f32>)>,
}

impl GioFile {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a column; all columns must have the same length.
    pub fn push_field(&mut self, name: impl Into<String>, data: Vec<f32>) -> Result<()> {
        if let Some((_, first)) = self.fields.first() {
            if first.len() != data.len() {
                return Err(Error::invalid(format!(
                    "column length {} does not match {}",
                    data.len(),
                    first.len()
                )));
            }
        }
        self.fields.push((name.into(), data));
        Ok(())
    }

    /// Looks up a column by name.
    pub fn field(&self, name: &str) -> Option<&[f32]> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, d)| d.as_slice())
    }

    /// Rows per column (0 if no fields).
    pub fn rows(&self) -> usize {
        self.fields.first().map_or(0, |(_, d)| d.len())
    }

    /// Serializes to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&[0, 0, 0]);
        out.extend_from_slice(&(self.rows() as u64).to_le_bytes());
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(self.fields.len());
        for (name, data) in &self.fields {
            let mut payload = Vec::with_capacity(data.len() * 4);
            for &v in data {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(&payload).to_le_bytes());
            payloads.push(payload);
        }
        for p in payloads {
            out.extend_from_slice(&p);
        }
        out
    }

    /// Parses a document from bytes, verifying every CRC. A header the
    /// bytes cannot hold is an [`Error::Format`], never a panic.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        Self::parse(&mut ByteReader::new(data)).map_err(|e| match e {
            Error::Corrupt(msg) => Error::format(format!("GIO-lite file truncated: {msg}")),
            e => e,
        })
    }

    fn parse(r: &mut ByteReader) -> Result<Self> {
        if r.take(4)? != MAGIC {
            return Err(Error::format("not a GIO-lite file (bad magic)"));
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(Error::format(format!("unsupported GIO-lite version {version}")));
        }
        r.take(3)?;
        let rows = r.u64_le()?;
        let nfields = r.u32_le()?;
        if nfields > 4096 {
            return Err(Error::format("implausible field count"));
        }
        // A field header is at least 14 bytes: name_len, payload_len, crc32.
        let mut meta = Vec::with_capacity(r.count(nfields.into(), 14, "field")?);
        for _ in 0..nfields {
            let nlen = r.u16_le()?.into();
            let name = String::from_utf8(r.take(nlen)?.to_vec())
                .map_err(|_| Error::format("field name is not UTF-8"))?;
            let plen = r.u64_le()?;
            let crc = r.u32_le()?;
            meta.push((name, plen, crc));
        }
        let mut fields = Vec::with_capacity(meta.len());
        for (name, plen, crc) in meta {
            let payload = r.take(r.count(plen, 1, "payload byte")?)?;
            if crc32(payload) != crc {
                return Err(Error::format(format!("CRC mismatch in field '{name}'")));
            }
            if plen % 4 != 0 || plen / 4 != rows {
                return Err(Error::format(format!(
                    "field '{name}' has {plen} bytes, expected {} rows",
                    rows
                )));
            }
            let col: Vec<f32> =
                payload.chunks(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
            fields.push((name, col));
        }
        Ok(Self { fields })
    }

    /// Writes the document to a file.
    pub fn write(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Reads a document from a file.
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }
}

/// Writes a HACC snapshot as GIO-lite.
pub fn write_hacc(snap: &crate::field::HaccSnapshot, path: impl AsRef<Path>) -> Result<()> {
    let mut f = GioFile::new();
    for (name, data) in snap.fields() {
        f.push_field(name, data.to_vec())?;
    }
    f.write(path)
}

/// Reads a HACC snapshot from GIO-lite.
pub fn read_hacc(path: impl AsRef<Path>, box_size: f64) -> Result<crate::field::HaccSnapshot> {
    let f = GioFile::read(path)?;
    let get = |name: &str| -> Result<Vec<f32>> {
        f.field(name)
            .map(|d| d.to_vec())
            .ok_or_else(|| Error::format(format!("missing field '{name}'")))
    };
    Ok(crate::field::HaccSnapshot {
        x: get("x")?,
        y: get("y")?,
        z: get("z")?,
        vx: get("vx")?,
        vy: get("vy")?,
        vz: get("vz")?,
        box_size,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GioFile {
        let mut f = GioFile::new();
        f.push_field("x", vec![1.0, 2.0, 3.0]).unwrap();
        f.push_field("vx", vec![-0.5, 0.0, 0.5]).unwrap();
        f
    }

    #[test]
    fn roundtrip_bytes() {
        let f = sample();
        let bytes = f.to_bytes();
        let g = GioFile::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.field("vx").unwrap()[0], -0.5);
        assert!(g.field("nope").is_none());
    }

    #[test]
    fn roundtrip_file() {
        let dir = std::env::temp_dir().join("gio_lite_test");
        let path = dir.join("sample.gio");
        let f = sample();
        f.write(&path).unwrap();
        let g = GioFile::read(&path).unwrap();
        assert_eq!(f, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crc_detects_payload_corruption() {
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 2] ^= 0x01;
        let err = GioFile::from_bytes(&bad).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(GioFile::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn mismatched_column_length_rejected() {
        let mut f = GioFile::new();
        f.push_field("a", vec![1.0, 2.0]).unwrap();
        assert!(f.push_field("b", vec![1.0]).is_err());
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(GioFile::from_bytes(&bytes).is_err());
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert!(GioFile::from_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_document() {
        let f = GioFile::new();
        let g = GioFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.rows(), 0);
        assert!(g.fields.is_empty());
    }

    #[test]
    fn huge_payload_length_is_a_format_error() {
        // The first field's payload_len sits after the 20-byte file
        // header, its 2-byte name length and its 1-byte name "x".
        let mut bytes = sample().to_bytes();
        bytes[23..31].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = GioFile::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
    }
}
