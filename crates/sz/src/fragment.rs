//! One codebook per field: the chunks of a `.fstr` SZ field coded as
//! *fragments* against one shared Huffman codebook (cuSZ+'s layout,
//! arXiv:2105.12912).
//!
//! A [`FieldCodebook`] is the field-level part of an SZ stream: the
//! header parameters every chunk of the field shares (error-bound mode,
//! the absolute bound it resolved to, block size, radius, entropy
//! backend, dimensionality) and the one canonical codebook built from the
//! histogram of all the field's chunks. A fragment is one chunk's
//! [`stream`] body without the Huffman table, behind a
//! short prefix:
//!
//! ```text
//! magic "SZFR" | codebook key u64 | chunk extents (ndim LEB128 varints)
//! body (LZSS-packed when the field's backend is HuffmanLzss):
//!   per-block meta | per-block code streams | outlier f32s
//!   [PW_REL only] sign bitmap | special bitmap | n_specials u32 | specials
//! ```
//!
//! The body is written by `stream::write_body` and decoded by
//! `stream::decode_body`, the same code an `SZRS` stream frames, so a
//! fragment decodes to exactly what the whole stream of the same chunk
//! at the same bound decodes to: only the framing of the lossless stage
//! differs. The key is the first eight bytes of the SHA-256 of the
//! serialized [`FieldCodebook`], so a fragment offered to any other
//! codebook is refused before a symbol is read. Fragments carry no CRC:
//! their container checks one per fragment.

use crate::block::{self, BlockOutput};
use crate::config::{Dims, EntropyBackend, ErrorBound, SzConfig};
use crate::huffman::Codebook;
use crate::lossless;
use crate::pwrel::PwRelTransformed;
use crate::stream::{self, StreamInfo};
use foresight_util::sha256::sha256;
use foresight_util::{telemetry, ByteReader, Error, Result};
use rayon::prelude::*;

/// Magic tag of a fragment.
pub const FRAGMENT_MAGIC: &[u8; 4] = b"SZFR";
/// Largest per-axis extent accepted from a fragment (as from a stream).
const MAX_EXTENT: u64 = 1 << 40;

/// The field-level part of an SZ stream: shared header parameters and
/// the field's one Huffman codebook.
#[derive(Debug)]
pub struct FieldCodebook {
    mode: ErrorBound,
    eb_abs: f64,
    entropy: EntropyBackend,
    ndim: u8,
    block_size: usize,
    radius: u32,
    book: Codebook,
    key: u64,
}

/// One chunk after prediction and quantization, waiting for its field's
/// codebook.
struct Quantized {
    dims: Dims,
    outputs: Vec<BlockOutput>,
    pw: Option<PwRelTransformed>,
}

/// Compresses the `count` chunks of one field against one codebook:
/// quantizes every chunk in parallel, folds one histogram over all of
/// them, builds one canonical codebook and encodes every fragment against
/// it. `chunk(i)` gathers chunk `i`'s values and shape; every chunk is
/// quantized at `eb_abs`, the bound [`stream::abs_bound`] resolves for
/// `cfg.mode` over the whole field. Returns the codebook and the
/// fragments in chunk order.
pub fn compress_fragments<F>(
    count: usize,
    chunk: F,
    cfg: &SzConfig,
    eb_abs: f64,
) -> Result<(FieldCodebook, Vec<Vec<u8>>)>
where
    F: Fn(usize) -> (Vec<f32>, Dims) + Sync + Send,
{
    cfg.validate()?;
    if !(eb_abs.is_finite() && eb_abs > 0.0) {
        return Err(Error::invalid(format!("resolved bound {eb_abs} is not finite and positive")));
    }
    let quantize = telemetry::span("sz.quantize");
    let chunks = (0..count)
        .into_par_iter()
        .map(|i| {
            let (values, dims) = chunk(i);
            stream::validate_input(&values, dims, cfg)?;
            let plan = stream::plan_with(&values, cfg.mode, eb_abs);
            let data = plan.working_data(&values);
            let ext = dims.extents();
            let outputs = block::tiles(dims, cfg.block_size)?
                .iter()
                .map(|b| block::compress_block(data, ext, &b, eb_abs, cfg.radius, cfg.predictor))
                .collect();
            Ok(Quantized { dims, outputs, pw: plan.pw })
        })
        .collect::<Result<Vec<Quantized>>>()?;
    drop(quantize);
    let ndim = chunks.first().map_or(1, |c| c.dims.ndim());
    if chunks.iter().any(|c| c.dims.ndim() != ndim) {
        return Err(Error::invalid("the chunks of one field must share a dimensionality"));
    }

    let histogram = telemetry::span("sz.histogram");
    let all: Vec<&BlockOutput> = chunks.iter().flat_map(|c| &c.outputs).collect();
    let book = stream::global_codebook(&all)?;
    drop(histogram);
    let field = FieldCodebook::new(cfg, eb_abs, ndim, book);

    // Each chunk's codes are freed as soon as its fragment is written.
    let _encode = telemetry::span("sz.huffman_encode");
    let fragments = chunks.into_par_iter().map(|c| field.encode(&c)).collect::<Result<Vec<_>>>()?;
    Ok((field, fragments))
}

impl FieldCodebook {
    fn new(cfg: &SzConfig, eb_abs: f64, ndim: u8, book: Codebook) -> Self {
        let mut field = Self {
            mode: cfg.mode,
            eb_abs,
            entropy: cfg.entropy,
            ndim,
            block_size: cfg.block_size,
            radius: cfg.radius,
            book,
            key: 0,
        };
        field.key = field.digest();
        field
    }

    /// The first eight bytes of the SHA-256 of the serialized part.
    fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.serialized_len());
        self.serialize(&mut bytes);
        let d = sha256(&bytes);
        u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
    }

    /// The error-bound mode with the user-facing parameter.
    pub fn mode(&self) -> ErrorBound {
        self.mode
    }

    /// The absolute bound every chunk of the field was quantized at (on
    /// `ln|x|` for PW_REL).
    pub fn eb_abs(&self) -> f64 {
        self.eb_abs
    }

    /// Dimensionality of the field and of every fragment.
    pub fn ndim(&self) -> u8 {
        self.ndim
    }

    /// The key every fragment of the field carries.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Appends the serialized part: `mode u8 | eb_param f64 | eb_abs f64 |
    /// entropy u8 | ndim u8 | block_size u32 | radius u32 | codebook`.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        out.push(self.mode.tag());
        out.extend_from_slice(&self.mode.value().to_le_bytes());
        out.extend_from_slice(&self.eb_abs.to_le_bytes());
        out.push(stream::entropy_tag(self.entropy));
        out.push(self.ndim);
        out.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        out.extend_from_slice(&self.radius.to_le_bytes());
        self.book.serialize(out);
    }

    /// Bytes [`FieldCodebook::serialize`] appends.
    pub fn serialized_len(&self) -> usize {
        1 + 8 + 8 + 1 + 1 + 4 + 4 + self.book.serialized_len()
    }

    /// Parses exactly the bytes [`FieldCodebook::serialize`] wrote; any
    /// malformed, truncated or trailing byte is [`Error::Corrupt`], and
    /// what it allocates is bounded by `bytes`.
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let mode_tag = r.u8()?;
        let eb_param = r.f64_le()?;
        let mode = ErrorBound::from_tag(mode_tag, eb_param)
            .ok_or_else(|| Error::corrupt(format!("bad mode {mode_tag}")))?;
        let eb_abs = r.f64_le()?;
        if !(eb_abs.is_finite() && eb_abs > 0.0) {
            return Err(Error::corrupt("bad error bound in the field codebook"));
        }
        let entropy = stream::entropy_from_tag(r.u8()?)?;
        let ndim = r.u8()?;
        if !(1..=3).contains(&ndim) {
            return Err(Error::corrupt(format!("bad ndim {ndim}")));
        }
        let block_size = r.u32_le()? as usize;
        let radius = r.u32_le()?;
        if block_size < 2 || radius < 2 {
            return Err(Error::corrupt("implausible block_size/radius"));
        }
        let rest = r.take(r.remaining())?;
        let (book, used) = Codebook::deserialize(rest)?;
        if used != rest.len() {
            return Err(Error::corrupt("trailing bytes after the field codebook"));
        }
        let mut field = Self { mode, eb_abs, entropy, ndim, block_size, radius, book, key: 0 };
        field.key = field.digest();
        Ok(field)
    }

    /// The key a fragment names its codebook by, without decoding it.
    pub fn key_of(fragment: &[u8]) -> Result<u64> {
        read_key(&mut ByteReader::new(fragment))
    }

    /// Encodes one quantized chunk as a fragment.
    fn encode(&self, chunk: &Quantized) -> Result<Vec<u8>> {
        let code_streams = chunk
            .outputs
            .iter()
            .map(|o| stream::encode_block_codes(&o.codes, &self.book))
            .collect::<Result<Vec<_>>>()?;
        let body_len = stream::body_len(&chunk.outputs, &code_streams, None, chunk.pw.as_ref());
        let mut out = Vec::with_capacity(4 + 8 + 3 * 6 + body_len); // lint: allow(alloc-arith) — encoder-side: the exact size of data already in memory
        out.extend_from_slice(FRAGMENT_MAGIC);
        out.extend_from_slice(&self.key.to_le_bytes());
        for e in &chunk.dims.extents()[..usize::from(self.ndim)] {
            put_varint(&mut out, *e as u64);
        }
        let start = out.len();
        stream::write_body(&mut out, &chunk.outputs, &code_streams, None, chunk.pw.as_ref());
        if self.entropy == EntropyBackend::HuffmanLzss {
            let packed = lossless::compress(&out[start..]);
            out.truncate(start);
            out.extend_from_slice(&packed);
        }
        Ok(out)
    }

    /// Decodes one fragment of this field, returning its values and shape.
    /// A fragment of another codebook, or one cut or forged anywhere, is
    /// [`Error::Corrupt`].
    pub fn decode(&self, fragment: &[u8]) -> Result<(Vec<f32>, Dims)> {
        let mut r = ByteReader::new(fragment);
        if read_key(&mut r)? != self.key {
            return Err(Error::corrupt("fragment was not coded against this field's codebook"));
        }
        let mut ext = [1usize; 3];
        for e in &mut ext[..usize::from(self.ndim)] {
            *e = varint(&mut r)?;
        }
        let dims = Dims::from_ndim(self.ndim, ext)
            .ok_or_else(|| Error::corrupt(format!("bad ndim {}", self.ndim)))?;
        dims.checked_len().ok_or_else(|| Error::corrupt("dims product overflows"))?;
        let raw = r.take(r.remaining())?;
        let expanded;
        let body = match self.entropy {
            EntropyBackend::Huffman => raw,
            EntropyBackend::HuffmanLzss => {
                let _lzss = telemetry::span("sz.lzss_decode");
                expanded = lossless::decompress(raw)?;
                &expanded[..]
            }
        };
        let inf = StreamInfo::of_fragment(
            dims,
            self.mode,
            self.eb_abs,
            self.block_size,
            self.radius,
            self.entropy,
        )?;
        Ok((stream::decode_body(&inf, body, Some(&self.book))?, dims))
    }
}

/// The magic and codebook key at the front of a fragment.
fn read_key(r: &mut ByteReader<'_>) -> Result<u64> {
    r.expect_magic(FRAGMENT_MAGIC, "an SZ fragment")?;
    r.u64_le()
}

/// Appends `v` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads an LEB128 extent of at most [`MAX_EXTENT`].
fn varint(r: &mut ByteReader<'_>) -> Result<usize> {
    let mut v = 0u64;
    for shift in (0..=42).step_by(7) {
        let b = r.u8()?;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            if v > MAX_EXTENT {
                break;
            }
            return usize::try_from(v).map_err(|_| Error::corrupt("extent overflows usize"));
        }
    }
    Err(Error::corrupt(format!("implausible fragment extent (cap {MAX_EXTENT})")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.021).sin() * 50.0 + (i % 13) as f32).collect()
    }

    /// Chunks of a 1-D field, cut every `len` values.
    fn pack(data: &[f32], len: usize, cfg: &SzConfig) -> (FieldCodebook, Vec<Vec<u8>>) {
        let eb = stream::abs_bound(data, cfg.mode);
        let count = data.len().div_ceil(len);
        compress_fragments(
            count,
            |i| {
                let part = &data[i * len..((i + 1) * len).min(data.len())];
                (part.to_vec(), Dims::D1(part.len()))
            },
            cfg,
            eb,
        )
        .unwrap()
    }

    #[test]
    fn fragments_decode_to_the_values_of_whole_streams_at_the_same_bound() {
        let mut data = field(5000);
        data[77] = f32::NAN;
        data[4000] = 0.0;
        for cfg in [
            SzConfig { block_size: 8, ..SzConfig::abs(0.05) },
            SzConfig { predictor: PredictorKind::Regression, ..SzConfig::rel(1e-3) },
            SzConfig::pw_rel(1e-2),
            SzConfig { entropy: EntropyBackend::HuffmanLzss, ..SzConfig::abs(0.5) },
        ] {
            let (book, fragments) = pack(&data, 1024, &cfg);
            let eb = stream::abs_bound(&data, cfg.mode);
            assert_eq!(book.eb_abs(), eb);
            for (i, frag) in fragments.iter().enumerate() {
                let part = &data[i * 1024..((i + 1) * 1024).min(data.len())];
                let whole_cfg = match cfg.mode {
                    ErrorBound::Rel(_) => SzConfig { mode: ErrorBound::Abs(eb), ..cfg.clone() },
                    _ => cfg.clone(),
                };
                let whole = stream::compress(part, Dims::D1(part.len()), &whole_cfg).unwrap();
                let want = stream::decompress(&whole).unwrap();
                let got = book.decode(frag).unwrap();
                assert_eq!(got.1, want.1);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.0), bits(&want.0), "{cfg:?} chunk {i}");
                assert!(frag.len() < whole.len(), "{cfg:?}: a fragment carries no table");
            }
        }
    }

    #[test]
    fn the_codebook_round_trips_and_names_its_fragments() {
        let data = field(3000);
        let (book, fragments) = pack(&data, 700, &SzConfig::abs(0.01));
        let mut bytes = Vec::new();
        book.serialize(&mut bytes);
        assert_eq!(bytes.len(), book.serialized_len());
        let back = FieldCodebook::deserialize(&bytes).unwrap();
        assert_eq!(
            (back.key(), back.eb_abs(), back.mode()),
            (book.key(), 0.01, ErrorBound::Abs(0.01))
        );
        assert_eq!(back.decode(&fragments[2]).unwrap(), book.decode(&fragments[2]).unwrap());
        assert_eq!(FieldCodebook::key_of(&fragments[0]).unwrap(), book.key());

        // Another field's codebook refuses the fragment before decoding.
        let (other, _) = pack(&data, 700, &SzConfig::abs(0.02));
        let err = other.decode(&fragments[0]).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)) && err.to_string().contains("codebook"), "{err}");
        // Trailing and missing bytes of the serialized part are refused.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(FieldCodebook::deserialize(&long), Err(Error::Corrupt(_))));
        for cut in 0..bytes.len() {
            assert!(matches!(FieldCodebook::deserialize(&bytes[..cut]), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn cut_and_hostile_fragments_are_typed_errors() {
        let mut data = field(2048);
        data[5] = f32::INFINITY;
        let (book, fragments) =
            pack(&data, 1024, &SzConfig { block_size: 8, ..SzConfig::abs(0.1) });
        let frag = &fragments[0];
        for cut in 0..frag.len() {
            let err = book.decode(&frag[..cut]).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "cut at {cut}: {err}");
        }
        // A varint extent past the cap, and one that never ends.
        let mut huge = frag[..12].to_vec();
        huge.extend_from_slice(&[0xff; 6]);
        huge.push(0x7f);
        assert!(book.decode(&huge).unwrap_err().to_string().contains("implausible"));
        let mut endless = frag[..12].to_vec();
        endless.extend_from_slice(&[0x80; 32]);
        assert!(matches!(book.decode(&endless), Err(Error::Corrupt(_))));
    }

    #[test]
    fn fragments_do_not_depend_on_the_thread_count() {
        let data = field(9000);
        let cfg = SzConfig { block_size: 6, ..SzConfig::rel(1e-3) };
        let (book, fragments) = pack(&data, 1000, &cfg);
        for threads in [1, 2, 4] {
            foresight_util::parallel::with_threads(threads, || {
                let (again, same) = pack(&data, 1000, &cfg);
                assert_eq!((again.key(), &same), (book.key(), &fragments), "{threads} threads");
            });
        }
    }
}
