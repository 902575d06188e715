//! H5-lite: a chunked, hierarchical container for grid snapshots.
//!
//! Nyx writes HDF5 with datasets like `/native_fields/baryon_density`.
//! H5-lite keeps the pieces the pipeline needs: hierarchical dataset
//! names, explicit dimensions, and chunked payloads with per-chunk CRCs
//! (so corruption is localized, as in real HDF5 checksum filters).
//!
//! ```text
//! magic "H5L1" | version u8 | reserved [3]u8 | num_datasets u32
//! per dataset: name_len u16 | name | ndim u8 | dims u64*ndim
//!              | chunk_values u32 | num_chunks u32
//!              | per chunk: payload_len u32 | crc32 u32
//! chunk payloads in order (f32 LE)
//! ```

use foresight_util::crc::crc32;
use foresight_util::{ByteReader, Error, Result};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"H5L1";
const VERSION: u8 = 1;
/// Default chunk size in values (1 MiB of f32).
pub const DEFAULT_CHUNK: usize = 1 << 18;

/// One named, dimensioned dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Hierarchical name, e.g. `/native_fields/baryon_density`.
    pub name: String,
    /// Dimensions (x fastest), product must equal `data.len()`.
    pub dims: Vec<u64>,
    /// Values.
    pub data: Vec<f32>,
}

/// An in-memory H5-lite document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct H5File {
    /// Datasets in file order.
    pub datasets: Vec<Dataset>,
}

impl H5File {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a dataset, validating dims against the data length.
    pub fn push(&mut self, name: impl Into<String>, dims: Vec<u64>, data: Vec<f32>) -> Result<()> {
        let prod: u64 = dims.iter().product();
        if prod != data.len() as u64 {
            return Err(Error::invalid(format!(
                "dims {:?} imply {} values, got {}",
                dims,
                prod,
                data.len()
            )));
        }
        self.datasets.push(Dataset { name: name.into(), dims, data });
        Ok(())
    }

    /// Looks up a dataset by name.
    pub fn get(&self, name: &str) -> Option<&Dataset> {
        self.datasets.iter().find(|d| d.name == name)
    }

    /// Serializes with the given chunk size (values per chunk).
    pub fn to_bytes_chunked(&self, chunk_values: usize) -> Vec<u8> {
        let chunk_values = chunk_values.max(1);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&[0, 0, 0]);
        out.extend_from_slice(&(self.datasets.len() as u32).to_le_bytes());
        let mut payloads = Vec::new();
        for ds in &self.datasets {
            out.extend_from_slice(&(ds.name.len() as u16).to_le_bytes());
            out.extend_from_slice(ds.name.as_bytes());
            out.push(ds.dims.len() as u8);
            for &d in &ds.dims {
                out.extend_from_slice(&d.to_le_bytes());
            }
            let chunks: Vec<&[f32]> = if ds.data.is_empty() {
                vec![]
            } else {
                ds.data.chunks(chunk_values).collect()
            };
            out.extend_from_slice(&(chunk_values as u32).to_le_bytes());
            out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
            for c in chunks {
                let mut payload = Vec::with_capacity(c.len() * 4);
                for &v in c {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&crc32(&payload).to_le_bytes());
                payloads.push(payload);
            }
        }
        for p in payloads {
            out.extend_from_slice(&p);
        }
        out
    }

    /// Serializes with [`DEFAULT_CHUNK`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_chunked(DEFAULT_CHUNK)
    }

    /// Parses a document, verifying every chunk CRC. A header the bytes
    /// cannot hold is an [`Error::Format`], never a panic, and nothing is
    /// allocated for entries the bytes do not hold.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        Self::parse(&mut ByteReader::new(data)).map_err(|e| match e {
            Error::Corrupt(msg) => Error::format(format!("H5-lite file truncated: {msg}")),
            e => e,
        })
    }

    fn parse(r: &mut ByteReader) -> Result<Self> {
        if r.take(4)? != MAGIC {
            return Err(Error::format("not an H5-lite file (bad magic)"));
        }
        if r.u8()? != VERSION {
            return Err(Error::format("unsupported H5-lite version"));
        }
        r.take(3)?;
        let nds = r.u32_le()?;
        if nds > 65536 {
            return Err(Error::format("implausible dataset count"));
        }
        struct Meta {
            name: String,
            dims: Vec<u64>,
            chunk_lens: Vec<(usize, u32)>,
        }
        // A dataset header is at least 11 bytes: name_len, ndim,
        // chunk_values, num_chunks; a chunk entry is 8.
        let mut metas = Vec::with_capacity(r.count(nds.into(), 11, "dataset")?);
        for _ in 0..nds {
            let nlen = r.u16_le()?.into();
            let name = String::from_utf8(r.take(nlen)?.to_vec())
                .map_err(|_| Error::format("dataset name is not UTF-8"))?;
            let ndim = r.u8()?;
            if ndim > 8 {
                return Err(Error::format("implausible rank"));
            }
            let dims = (0..ndim).map(|_| r.u64_le()).collect::<Result<Vec<u64>>>()?;
            let _chunk_values = r.u32_le()?;
            let nchunks = r.u32_le()?;
            if nchunks > (1 << 24) {
                return Err(Error::format("implausible chunk count"));
            }
            let mut chunk_lens = Vec::with_capacity(r.count(nchunks.into(), 8, "chunk")?);
            for _ in 0..nchunks {
                let plen = r.u32_le()? as usize;
                let crc = r.u32_le()?;
                chunk_lens.push((plen, crc));
            }
            metas.push(Meta { name, dims, chunk_lens });
        }
        let mut out = Self::new();
        for m in metas {
            let mut values: Vec<f32> = Vec::new();
            for (i, (plen, crc)) in m.chunk_lens.iter().enumerate() {
                let payload = r.take(*plen)?;
                if crc32(payload) != *crc {
                    return Err(Error::format(format!(
                        "CRC mismatch in '{}' chunk {i}",
                        m.name
                    )));
                }
                if plen % 4 != 0 {
                    return Err(Error::format("chunk length not a multiple of 4"));
                }
                values.extend(
                    payload.chunks(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())),
                );
            }
            let prod = m.dims.iter().try_fold(1u64, |p, &d| p.checked_mul(d));
            if prod != Some(values.len() as u64) {
                return Err(Error::format(format!(
                    "dataset '{}' dims {:?} do not match {} values",
                    m.name,
                    m.dims,
                    values.len()
                )));
            }
            out.datasets.push(Dataset { name: m.name, dims: m.dims, data: values });
        }
        Ok(out)
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

/// Writes a Nyx snapshot under `/native_fields/<name>` datasets.
pub fn write_nyx(snap: &crate::field::NyxSnapshot, path: impl AsRef<Path>) -> Result<()> {
    let mut f = H5File::new();
    let n = snap.n_side as u64;
    for (name, data) in snap.fields() {
        f.push(format!("/native_fields/{name}"), vec![n, n, n], data.to_vec())?;
    }
    f.write(path)
}

/// Reads a Nyx snapshot written by [`write_nyx`].
pub fn read_nyx(path: impl AsRef<Path>, box_size: f64) -> Result<crate::field::NyxSnapshot> {
    let f = H5File::read(path)?;
    let get = |name: &str| -> Result<(usize, Vec<f32>)> {
        let ds = f
            .get(&format!("/native_fields/{name}"))
            .ok_or_else(|| Error::format(format!("missing dataset '{name}'")))?;
        if ds.dims.len() != 3 || ds.dims[0] != ds.dims[1] || ds.dims[1] != ds.dims[2] {
            return Err(Error::format(format!("dataset '{name}' is not a cube")));
        }
        Ok((ds.dims[0] as usize, ds.data.clone()))
    };
    let (n, baryon_density) = get("baryon_density")?;
    Ok(crate::field::NyxSnapshot {
        n_side: n,
        box_size,
        baryon_density,
        dark_matter_density: get("dark_matter_density")?.1,
        temperature: get("temperature")?.1,
        velocity_x: get("velocity_x")?.1,
        velocity_y: get("velocity_y")?.1,
        velocity_z: get("velocity_z")?.1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> H5File {
        let mut f = H5File::new();
        f.push("/native_fields/baryon_density", vec![2, 2, 2], (0..8).map(|i| i as f32).collect())
            .unwrap();
        f.push("/derived_fields/vmag", vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        f
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let g = H5File::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(f, g);
        assert_eq!(g.get("/derived_fields/vmag").unwrap().data[3], 4.0);
    }

    #[test]
    fn small_chunks_roundtrip() {
        let f = sample();
        let bytes = f.to_bytes_chunked(3); // forces multiple chunks
        let g = H5File::from_bytes(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn chunk_crc_detects_corruption() {
        let bytes = sample().to_bytes_chunked(2);
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x80;
        assert!(H5File::from_bytes(&bad).is_err());
    }

    #[test]
    fn dims_validated() {
        let mut f = H5File::new();
        assert!(f.push("/a", vec![3, 3], vec![1.0; 8]).is_err());
        assert!(f.push("/a", vec![2, 4], vec![1.0; 8]).is_ok());
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample().to_bytes();
        for cut in [0usize, 5, 20, bytes.len() - 2] {
            assert!(H5File::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let mut f = H5File::new();
        f.push("/empty", vec![0], vec![]).unwrap();
        let g = H5File::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.get("/empty").unwrap().data.len(), 0);
    }

    /// A one-dataset header: no name, `dims`, then `nchunks` chunk
    /// entries announced and none present.
    fn header(dims: &[u64], nchunks: u32) -> Vec<u8> {
        let mut b = b"H5L1\x01\0\0\0".to_vec();
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&0u16.to_le_bytes());
        b.push(dims.len() as u8);
        dims.iter().for_each(|d| b.extend_from_slice(&d.to_le_bytes()));
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&nchunks.to_le_bytes());
        b
    }

    #[test]
    fn chunk_count_beyond_the_file_is_a_format_error() {
        let mut bytes = header(&[], 1 << 24);
        bytes.push(0);
        assert_eq!(bytes.len(), 24);
        // Refused by its count, before any entry is reserved or read.
        let err = H5File::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, Error::Format(_)) && err.to_string().contains("chunk count"), "{err}");
    }

    #[test]
    fn overflowing_dims_are_a_format_error() {
        let err = H5File::from_bytes(&header(&[1 << 32, 1 << 32, 2], 0)).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
    }
}
