//! The one codec seam: which codec, with which bound, and the one place
//! that dispatches a field to `lossy-sz` or `lossy-zfp`.
//!
//! Everything that compresses or decodes goes through here: the store's
//! writer and reader, `foresight::codec` (which re-exports this module),
//! the serve scheduler and the simulated-GPU backend. The store is the
//! lowest crate that sees both codecs, which is why the seam lives in it.
//!
//! [`decompress`] also takes a bare SZ fragment carved out of an archive.
//! A fragment names its field's codebook by key, the way a zstd frame
//! names its dictionary; the seam resolves the key against the codebooks
//! of the archives a [`crate::StoreReader`] holds open in this process,
//! and refuses a fragment whose archive is not open.

use crate::format::BoundSpec;
use foresight_util::{Dims, Error, Result};
use lossy_sz::{FieldCodebook, SzConfig};
use lossy_zfp::{ZfpConfig, ZfpMode};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// The SZ field codebooks of the open readers, by key. Weak: a codebook
/// lives exactly as long as a reader that holds it.
static OPEN_CODEBOOKS: Mutex<BTreeMap<u64, Weak<FieldCodebook>>> = Mutex::new(BTreeMap::new());

/// Makes `book`'s fragments decodable through [`decompress`] for as long
/// as the caller holds it.
pub(crate) fn register_codebook(book: &Arc<FieldCodebook>) {
    let mut open = OPEN_CODEBOOKS.lock().unwrap_or_else(PoisonError::into_inner);
    open.retain(|_, b| b.strong_count() > 0);
    open.insert(book.key(), Arc::downgrade(book));
}

/// The open codebook a bare fragment names.
fn open_codebook(fragment: &[u8]) -> Result<Arc<FieldCodebook>> {
    let key = FieldCodebook::key_of(fragment)?;
    let open = OPEN_CODEBOOKS.lock().unwrap_or_else(PoisonError::into_inner);
    open.get(&key).and_then(Weak::upgrade).ok_or_else(|| {
        Error::corrupt(format!(
            "SZ fragment names codebook {key:016x}, which no open archive holds"
        ))
    })
}

/// Which codec family: the paper's GPU-SZ or cuZFP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// SZ-style prediction-based streams (`SZRS` magic).
    Sz,
    /// ZFP-style transform-based streams (`ZFPR` magic).
    Zfp,
}

impl CodecKind {
    /// Wire tag in the store directory.
    pub fn tag(self) -> u8 {
        match self {
            CodecKind::Sz => 0,
            CodecKind::Zfp => 1,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(t: u8) -> Result<Self> {
        match t {
            0 => Ok(CodecKind::Sz),
            1 => Ok(CodecKind::Zfp),
            _ => Err(Error::corrupt(format!("unknown codec tag {t}"))),
        }
    }

    /// Display name as the paper writes it.
    pub fn display(self) -> &'static str {
        match self {
            CodecKind::Sz => "GPU-SZ",
            CodecKind::Zfp => "cuZFP",
        }
    }

    /// The codec that wrote `stream` (or an SZ fragment), by its magic
    /// tag; a stream with no known tag is [`Error::Corrupt`].
    pub fn of_stream(stream: &[u8]) -> Result<Self> {
        if stream.starts_with(lossy_sz::MAGIC) || stream.starts_with(lossy_sz::FRAGMENT_MAGIC) {
            Ok(CodecKind::Sz)
        } else if stream.starts_with(lossy_zfp::MAGIC) {
            Ok(CodecKind::Zfp)
        } else {
            Err(Error::corrupt("unknown stream magic"))
        }
    }

    /// Decodes a stream with this codec, or an SZ fragment against the
    /// open codebook it names; a stream of the other codec fails its
    /// magic check.
    pub fn decompress(self, stream: &[u8]) -> Result<(Vec<f32>, Dims)> {
        match self {
            CodecKind::Sz if stream.starts_with(lossy_sz::FRAGMENT_MAGIC) => {
                open_codebook(stream)?.decode(stream)
            }
            CodecKind::Sz => lossy_sz::decompress(stream),
            CodecKind::Zfp => lossy_zfp::decompress(stream),
        }
    }
}

/// A codec with its full configuration: what a caller asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecConfig {
    /// GPU-SZ with its full config.
    Sz(SzConfig),
    /// cuZFP with its full config.
    Zfp(ZfpConfig),
}

impl CodecConfig {
    /// SZ with an absolute error bound.
    pub fn sz_abs(eb: f64) -> Self {
        CodecConfig::Sz(SzConfig::abs(eb))
    }

    /// SZ with a value-range-relative error bound.
    pub fn sz_rel(rel: f64) -> Self {
        CodecConfig::Sz(SzConfig::rel(rel))
    }

    /// ZFP in fixed-rate mode.
    pub fn zfp_rate(rate: f64) -> Self {
        CodecConfig::Zfp(ZfpConfig::rate(rate))
    }

    /// The codec family this config belongs to.
    pub fn id(&self) -> CodecKind {
        match self {
            CodecConfig::Sz(_) => CodecKind::Sz,
            CodecConfig::Zfp(_) => CodecKind::Zfp,
        }
    }

    /// The bound metadata the store directory records.
    pub fn bound(&self) -> BoundSpec {
        match self {
            CodecConfig::Sz(cfg) => BoundSpec { tag: cfg.mode.tag(), value: cfg.mode.value() },
            CodecConfig::Zfp(cfg) => BoundSpec { tag: cfg.mode.tag(), value: cfg.mode.param() },
        }
    }

    /// Bits per value fixed before compression runs (ZFP fixed-rate
    /// only); every other mode's rate is known only afterwards.
    pub fn fixed_rate(&self) -> Option<f64> {
        match self {
            CodecConfig::Zfp(ZfpConfig { mode: ZfpMode::FixedRate(r) }) => Some(*r),
            _ => None,
        }
    }

    /// Short parameter string for tables, e.g. `abs=0.2` or `rate=4`.
    pub fn param_label(&self) -> String {
        self.bound().label(self.id())
    }

    /// Short human label, e.g. `GPU-SZ abs=0.001`.
    pub fn label(&self) -> String {
        format!("{} {}", self.id().display(), self.param_label())
    }

    /// Compresses one dense chunk: [`compress`] under the name the store
    /// has always used.
    pub fn compress_chunk(&self, values: &[f32], shape: Dims) -> Result<Vec<u8>> {
        compress(values, shape, self)
    }
}

/// Compresses `data` of shape `dims` with either codec.
pub fn compress(data: &[f32], dims: Dims, cfg: &CodecConfig) -> Result<Vec<u8>> {
    match cfg {
        CodecConfig::Sz(c) => lossy_sz::compress(data, dims, c),
        CodecConfig::Zfp(c) => lossy_zfp::compress(data, dims, c),
    }
}

/// Decompresses a stream produced by [`compress`], or a fragment of an
/// open archive, picking the codec by the magic tag.
pub fn decompress(stream: &[u8]) -> Result<(Vec<f32>, Dims)> {
    CodecKind::of_stream(stream)?.decompress(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_kinds_agree() {
        for (cfg, label) in [
            (CodecConfig::sz_abs(0.2), "GPU-SZ abs=0.2"),
            (CodecConfig::sz_rel(1e-3), "GPU-SZ rel=0.001"),
            (CodecConfig::Sz(SzConfig::pw_rel(0.01)), "GPU-SZ pw_rel=0.01"),
            (CodecConfig::zfp_rate(4.0), "cuZFP rate=4"),
            (CodecConfig::Zfp(ZfpConfig::precision(16)), "cuZFP prec=16"),
            (CodecConfig::Zfp(ZfpConfig::accuracy(0.5)), "cuZFP acc=0.5"),
        ] {
            assert_eq!(cfg.label(), label);
            assert_eq!(CodecKind::from_tag(cfg.id().tag()).unwrap(), cfg.id());
        }
        assert_eq!(CodecConfig::zfp_rate(6.5).fixed_rate(), Some(6.5));
        assert_eq!(CodecConfig::Zfp(ZfpConfig::precision(16)).fixed_rate(), None);
        assert_eq!(CodecConfig::sz_abs(0.1).fixed_rate(), None);
        assert!(CodecKind::from_tag(2).is_err());
    }

    #[test]
    fn streams_name_their_codec() {
        let data: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
        for cfg in [CodecConfig::sz_abs(0.1), CodecConfig::zfp_rate(8.0)] {
            let stream = compress(&data, Dims::D3(4, 4, 4), &cfg).unwrap();
            assert_eq!(CodecKind::of_stream(&stream).unwrap(), cfg.id());
            assert_eq!(decompress(&stream).unwrap().1, Dims::D3(4, 4, 4));
            let other = if cfg.id() == CodecKind::Sz { CodecKind::Zfp } else { CodecKind::Sz };
            assert!(matches!(other.decompress(&stream), Err(Error::Corrupt(_))));
        }
        assert!(matches!(CodecKind::of_stream(b"SZR"), Err(Error::Corrupt(_))));
        assert!(matches!(decompress(b"WHAT is this"), Err(Error::Corrupt(_))));
    }
}
