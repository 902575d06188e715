//! Compressed stream container and the top-level (de)compression drivers.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "SZRS" | version u8 | mode u8 | entropy u8 | ndim u8
//! dims 3*u64 | block_size u32 | radius u32 | eb_abs f64 | eb_param f64
//! nblocks u64 | raw_body_len u64 | body_crc u32 | header_crc u32
//! body (LZSS-compressed when entropy == HuffmanLzss):
//!   per-block meta (tag u8 | n_outliers u32 | code_bytes u32 | coeffs 4*f32)
//!   huffman table | per-block code streams (byte-aligned) | outlier f32s
//!   [PW_REL only] sign bitmap | special bitmap | n_specials u32 | specials
//! ```
//!
//! The body is written by `write_body` and decoded by `decode_body`,
//! which [`crate::fragment`] frames too: a `.fstr` fragment is the same
//! body without the Huffman table, decoded against its field's one book.
//!
//! Blocks compress and decompress in parallel (rayon); the Huffman table is
//! global (one histogram over all blocks), matching the reference SZ. The
//! per-block code streams are independent and byte-aligned with their
//! lengths in the metas. Blocks are the array's [`Tiles`]; a decode worker
//! owns a slab of whole block layers ([`Tiles::par_slabs`]) and steps its
//! blocks four at a time ([`huffman::LANES`](crate::huffman::LANES)).

use crate::block::{self, Block, BlockOutput, PredictorTag};
use crate::config::{Dims, EntropyBackend, ErrorBound, SzConfig};
use crate::huffman::{Codebook, LANES};
use crate::pwrel::PwRelTransformed;
use crate::{lossless, pwrel};
use foresight_util::bits::BitWriter;
use foresight_util::crc::{crc32, crc32_parallel};
use foresight_util::stats::summarize;
use foresight_util::{telemetry, ByteReader, Error, Result, Tiles};
use rayon::prelude::*;
use std::borrow::{Borrow, Cow};
use std::cell::RefCell;

/// Stream magic tag identifying an SZ stream; exported so containers
/// and auto-detecting decoders match streams without private knowledge.
pub const MAGIC: &[u8; 4] = b"SZRS";
/// Version 2 added the trailing header CRC; version 3 is the same container
/// carrying integer-lattice (dual-quantization) codes, which a version-2
/// decoder would dequantize wrongly — so older streams are refused.
const VERSION: u8 = 3;
const META_BYTES: usize = 1 + 4 + 4 + 16;
/// Header bytes covered by the header CRC (everything before it).
const HDR_CRC_AT: usize = 4 + 1 + 1 + 1 + 1 + 24 + 4 + 4 + 8 + 8 + 8 + 8 + 4;
/// The last two fields the header CRC covers: raw body length, body CRC.
const BODY_CRC_AT: usize = HDR_CRC_AT - 4;
const RAW_LEN_AT: usize = BODY_CRC_AT - 8;
const HDR: usize = HDR_CRC_AT + 4;
/// Largest per-axis extent accepted from a header (2^40 values).
const MAX_EXTENT: u64 = 1 << 40;

/// Error-bound plan shared by the CPU driver and the traced device path:
/// the absolute bound actually applied, the user-facing parameter, the
/// header mode tag, and the PW_REL transform when active.
pub(crate) struct ModePlan {
    pub eb_abs: f64,
    pub eb_param: f64,
    pub tag: u8,
    pub pw: Option<pwrel::PwRelTransformed>,
}

impl ModePlan {
    /// The array the block kernels actually consume (log-space for PW_REL).
    pub fn working_data<'a>(&'a self, data: &'a [f32]) -> &'a [f32] {
        self.pw.as_ref().map_or(data, |t| &t.log_data[..])
    }
}

/// Validates configuration and data/dims agreement.
pub(crate) fn validate_input(data: &[f32], dims: Dims, cfg: &SzConfig) -> Result<()> {
    cfg.validate()?;
    dims.check_len(data.len())
}

/// The absolute bound `mode` applies to `data`: ABS as given, REL times
/// the value range of `data` (the bound itself when the range is zero or
/// not finite), PW_REL its bound on `ln|x|`.
pub fn abs_bound(data: &[f32], mode: ErrorBound) -> f64 {
    match mode {
        ErrorBound::Abs(eb) => eb,
        ErrorBound::Rel(rel) => {
            let range = summarize(data).range();
            if range > 0.0 && range.is_finite() {
                rel * range
            } else {
                rel
            }
        }
        ErrorBound::PwRel(p) => pwrel::abs_bound_for(p),
    }
}

/// Resolves the error-bound mode against the data.
pub(crate) fn plan_mode(data: &[f32], cfg: &SzConfig) -> ModePlan {
    plan_with(data, cfg.mode, abs_bound(data, cfg.mode))
}

/// The plan for `data` under `mode` with its absolute bound already
/// resolved (per field, for the fragments of a `.fstr` field).
pub(crate) fn plan_with(data: &[f32], mode: ErrorBound, eb_abs: f64) -> ModePlan {
    let pw = matches!(mode, ErrorBound::PwRel(_)).then(|| pwrel::forward(data));
    ModePlan { eb_abs, eb_param: mode.value(), tag: mode.tag(), pw }
}

/// Compresses `data` with the given configuration.
pub fn compress(data: &[f32], dims: Dims, cfg: &SzConfig) -> Result<Vec<u8>> {
    validate_input(data, dims, cfg)?;
    let plan = plan_mode(data, cfg);
    compress_inner(plan.working_data(data), dims, cfg, &plan)
}

fn compress_inner(data: &[f32], dims: Dims, cfg: &SzConfig, plan: &ModePlan) -> Result<Vec<u8>> {
    let ext = dims.extents();
    let blocks: Vec<Block> = block::tiles(dims, cfg.block_size)?.iter().collect();

    // Pass 1: predict + quantize every block in parallel.
    let quantize = telemetry::span("sz.quantize");
    let outputs: Vec<BlockOutput> = blocks
        .par_iter()
        .map(|b| block::compress_block(data, ext, b, plan.eb_abs, cfg.radius, cfg.predictor))
        .collect();
    drop(quantize);

    let histogram = telemetry::span("sz.histogram");
    let book = global_codebook(&outputs)?;
    drop(histogram);

    // Pass 2: entropy-encode each block.
    let encode = telemetry::span("sz.huffman_encode");
    let code_streams = outputs
        .par_iter()
        .map(|o| encode_block_codes(&o.codes, &book))
        .collect::<Result<Vec<Vec<u8>>>>()?;
    drop(encode);

    Ok(assemble(dims, cfg, plan, &outputs, &code_streams, &book))
}

/// Builds the global Huffman codebook over all block outputs.
///
/// Fold/reduce over per-chunk dense tables sized to the span of non-zero
/// symbols the kernel reported — a few hundred entries on real fields,
/// where `[0, 2*radius)` is 64 Ki. Symbol 0 is never counted: a block has
/// one per outlier.
pub(crate) fn global_codebook<B: Borrow<BlockOutput> + Sync>(outputs: &[B]) -> Result<Codebook> {
    let (lo, hi) = outputs
        .iter()
        .filter_map(|o| o.borrow().code_range)
        .fold((u32::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
    let span = if lo <= hi { (hi - lo) as usize + 1 } else { 0 };
    let new_acc = || vec![0u64; span];
    let dense = outputs
        .par_iter()
        .fold(new_acc, |mut acc: Vec<u64>, o| {
            for &c in o.borrow().codes.iter().filter(|&&c| c != 0) {
                acc[(c - lo) as usize] += 1;
            }
            acc
        })
        .reduce(new_acc, |mut a: Vec<u64>, b: Vec<u64>| {
            for (d, s) in a.iter_mut().zip(&b) {
                *d += s;
            }
            a
        });
    let outliers: u64 = outputs.iter().map(|o| o.borrow().outliers.len() as u64).sum();
    // Sorted by symbol: 0 first, then the dense span in order.
    let hist: Vec<(u32, u64)> = std::iter::once((0, outliers))
        .chain((lo..=hi).zip(dense))
        .filter(|&(_, f)| f > 0)
        .collect();
    Codebook::from_frequencies(&hist)
}

/// Entropy-encodes one block's quantization codes against the global book.
pub(crate) fn encode_block_codes(codes: &[u32], book: &Codebook) -> Result<Vec<u8>> {
    let encoder = book.encoder();
    let mut w = BitWriter::with_capacity(codes.len() / 2);
    for &c in codes {
        encoder.encode(c, &mut w)?;
    }
    Ok(w.into_bytes())
}

/// Bytes [`write_body`] appends for these blocks.
pub(crate) fn body_len(
    outputs: &[BlockOutput],
    code_streams: &[Vec<u8>],
    book: Option<&Codebook>,
    pw: Option<&PwRelTransformed>,
) -> usize {
    let code_bytes: usize = code_streams.iter().map(Vec::len).sum();
    let n_outliers: usize = outputs.iter().map(|o| o.outliers.len()).sum();
    let pw_bytes =
        pw.map_or(0, |t| t.sign_bitmap.len() + t.special_bitmap.len() + 4 + 4 * t.specials.len());
    outputs.len() * META_BYTES
        + book.map_or(0, Codebook::serialized_len)
        + code_bytes
        + 4 * n_outliers
        + pw_bytes
}

/// Appends the body: per-block meta, the Huffman table when the body
/// carries its own (`book`), code streams, outliers, PW_REL epilogue. An
/// `SZRS` stream and a `.fstr` fragment both frame this one writer.
pub(crate) fn write_body(
    out: &mut Vec<u8>,
    outputs: &[BlockOutput],
    code_streams: &[Vec<u8>],
    book: Option<&Codebook>,
    pw: Option<&PwRelTransformed>,
) {
    for (o, cs) in outputs.iter().zip(code_streams) {
        out.push(o.tag.to_u8());
        out.extend_from_slice(&(o.outliers.len() as u32).to_le_bytes());
        out.extend_from_slice(&(cs.len() as u32).to_le_bytes());
        for c in o.coeffs {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    if let Some(book) = book {
        book.serialize(out);
    }
    for cs in code_streams {
        out.extend_from_slice(cs);
    }
    for o in outputs {
        for &v in &o.outliers {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    if let Some(t) = pw {
        out.extend_from_slice(&t.sign_bitmap);
        out.extend_from_slice(&t.special_bitmap);
        out.extend_from_slice(&(t.specials.len() as u32).to_le_bytes());
        for &v in &t.specials {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Assembles the container: header, then the body (per-block meta,
/// Huffman table, code streams, outliers, PW_REL epilogue) appended in
/// place behind it, LZSS-packed when the backend asks. Shared verbatim by
/// the CPU driver and the traced device path so both produce bit-identical
/// streams.
pub(crate) fn assemble(
    dims: Dims,
    cfg: &SzConfig,
    plan: &ModePlan,
    outputs: &[BlockOutput],
    code_streams: &[Vec<u8>],
    book: &Codebook,
) -> Vec<u8> {
    let body_len = body_len(outputs, code_streams, Some(book), plan.pw.as_ref());
    let mut out = Vec::with_capacity(HDR + body_len); // lint: allow(alloc-arith) — encoder-side: the exact size of data already in memory

    // Header; the body's length and CRC and the header's own CRC are
    // patched in once the body is in place.
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(plan.tag);
    out.push(entropy_tag(cfg.entropy));
    out.push(dims.ndim());
    for e in dims.extents() {
        out.extend_from_slice(&(e as u64).to_le_bytes());
    }
    out.extend_from_slice(&(cfg.block_size as u32).to_le_bytes());
    out.extend_from_slice(&cfg.radius.to_le_bytes());
    out.extend_from_slice(&plan.eb_abs.to_le_bytes());
    out.extend_from_slice(&plan.eb_param.to_le_bytes());
    out.extend_from_slice(&(outputs.len() as u64).to_le_bytes());
    debug_assert_eq!(out.len(), RAW_LEN_AT);
    out.resize(HDR, 0);
    write_body(&mut out, outputs, code_streams, Some(book), plan.pw.as_ref());
    debug_assert_eq!(out.len(), HDR + body_len);

    let raw_len = (out.len() - HDR) as u64;
    let crc = crc32_parallel(&out[HDR..]);
    if cfg.entropy == EntropyBackend::HuffmanLzss {
        let _lzss = telemetry::span("sz.lzss");
        let packed = lossless::compress(&out[HDR..]);
        out.truncate(HDR);
        out.extend_from_slice(&packed);
    }
    out[RAW_LEN_AT..BODY_CRC_AT].copy_from_slice(&raw_len.to_le_bytes());
    out[BODY_CRC_AT..HDR_CRC_AT].copy_from_slice(&crc.to_le_bytes());
    // Header CRC: without it a bit flip in, say, the error bound would
    // decode to plausible-but-wrong data; with it any header mutation is
    // a hard `Corrupt` error.
    let hcrc = crc32(&out[..HDR_CRC_AT]);
    out[HDR_CRC_AT..HDR].copy_from_slice(&hcrc.to_le_bytes());
    out
}

/// The wire byte of an entropy backend.
pub(crate) fn entropy_tag(entropy: EntropyBackend) -> u8 {
    match entropy {
        EntropyBackend::Huffman => 0,
        EntropyBackend::HuffmanLzss => 1,
    }
}

/// The entropy backend of a wire byte.
pub(crate) fn entropy_from_tag(tag: u8) -> Result<EntropyBackend> {
    match tag {
        0 => Ok(EntropyBackend::Huffman),
        1 => Ok(EntropyBackend::HuffmanLzss),
        v => Err(Error::corrupt(format!("unknown entropy backend {v}"))),
    }
}

/// Header fields parsed from a compressed stream.
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// Logical dimensions of the original array.
    pub dims: Dims,
    /// Error-bound mode with the user-facing parameter.
    pub mode: ErrorBound,
    /// The absolute bound applied to the (possibly log-transformed) data.
    pub eb_abs: f64,
    /// Block size used at compression time.
    pub block_size: usize,
    /// Quantization radius.
    pub radius: u32,
    /// Entropy backend.
    pub entropy: EntropyBackend,
    nblocks: u64,
    raw_len: u64,
    crc: u32,
    body_offset: usize,
}

/// Parses and validates a stream header.
///
/// Every read is bounds-checked ([`ByteReader`]) and the whole header is
/// CRC-protected, so truncated or mutated input can only produce
/// [`Error::Corrupt`] — never a panic and never a huge allocation driven
/// by attacker-controlled fields.
pub fn info(stream: &[u8]) -> Result<StreamInfo> {
    let mut r = ByteReader::new(stream);
    r.expect_magic(MAGIC, "an SZRS stream")?;
    let version = r.u8()?;
    if version != VERSION {
        return Err(Error::corrupt(format!("unsupported version {version}")));
    }
    let mode_tag = r.u8()?;
    let entropy = entropy_from_tag(r.u8()?)?;
    let ndim = r.u8()?;
    let nx = r.u64_le_capped(MAX_EXTENT, "x extent")?;
    let ny = r.u64_le_capped(MAX_EXTENT, "y extent")?;
    let nz = r.u64_le_capped(MAX_EXTENT, "z extent")?;
    let dims = Dims::from_ndim(ndim, [nx, ny, nz])
        .ok_or_else(|| Error::corrupt(format!("bad ndim {ndim}")))?;
    dims.checked_len().ok_or_else(|| Error::corrupt("dims product overflows"))?;
    let block_size = r.u32_le()? as usize;
    let radius = r.u32_le()?;
    if block_size < 2 || radius < 2 {
        return Err(Error::corrupt("implausible block_size/radius"));
    }
    let eb_abs = r.f64_le()?;
    let eb_param = r.f64_le()?;
    if !(eb_abs.is_finite() && eb_abs > 0.0) {
        return Err(Error::corrupt("bad error bound in header"));
    }
    let mode = ErrorBound::from_tag(mode_tag, eb_param)
        .ok_or_else(|| Error::corrupt(format!("bad mode {mode_tag}")))?;
    let nblocks = r.u64_le()?;
    let raw_len = r.u64_le()?;
    let crc = r.u32_le()?;
    debug_assert_eq!(r.pos(), HDR_CRC_AT);
    let hcrc = r.u32_le()?;
    let hdr = stream.get(..HDR_CRC_AT).ok_or_else(|| Error::corrupt("truncated header"))?;
    if crc32(hdr) != hcrc {
        return Err(Error::corrupt("header CRC mismatch"));
    }
    Ok(StreamInfo {
        dims,
        mode,
        eb_abs,
        block_size,
        radius,
        entropy,
        nblocks,
        raw_len,
        crc,
        body_offset: HDR,
    })
}

impl StreamInfo {
    /// The header a fragment's body decodes under: its own `dims`, the
    /// rest shared by every fragment of its field.
    pub(crate) fn of_fragment(
        dims: Dims,
        mode: ErrorBound,
        eb_abs: f64,
        block_size: usize,
        radius: u32,
        entropy: EntropyBackend,
    ) -> Result<Self> {
        let nblocks = block::tiles(dims, block_size).map_err(Error::into_corrupt)?.len() as u64;
        let (raw_len, crc, body_offset) = (0, 0, 0);
        Ok(Self {
            dims,
            mode,
            eb_abs,
            block_size,
            radius,
            entropy,
            nblocks,
            raw_len,
            crc,
            body_offset,
        })
    }
}

/// Validates the body against the header (LZSS-expanding if needed) and
/// returns it; `scratch` owns the expanded bytes when LZSS was used.
pub(crate) fn checked_body<'a>(
    inf: &StreamInfo,
    stream: &'a [u8],
    scratch: &'a mut Vec<u8>,
) -> Result<&'a [u8]> {
    let body_raw =
        stream.get(inf.body_offset..).ok_or_else(|| Error::corrupt("truncated body"))?;
    let body: &[u8] = match inf.entropy {
        EntropyBackend::Huffman => body_raw,
        EntropyBackend::HuffmanLzss => {
            let _lzss = telemetry::span("sz.lzss_decode");
            *scratch = lossless::decompress(body_raw)?;
            scratch
        }
    };
    if body.len() as u64 != inf.raw_len {
        return Err(Error::corrupt(format!(
            "body length {} does not match header {}",
            body.len(),
            inf.raw_len
        )));
    }
    if crc32_parallel(body) != inf.crc {
        return Err(Error::corrupt("body CRC mismatch"));
    }
    Ok(body)
}

/// Per-block meta parsed from the body.
pub(crate) struct Meta {
    pub tag: PredictorTag,
    pub n_out: usize,
    pub code_bytes: usize,
    pub coeffs: [f32; 4],
}

/// Everything needed to decode blocks independently: the block tiling,
/// per-block metas, the Huffman book (the stream's own, or the one its
/// field shares), and byte offsets into the body.
pub(crate) struct DecodePlan<'a> {
    pub tiles: Tiles,
    pub metas: Vec<Meta>,
    pub book: Cow<'a, Codebook>,
    /// Symbols the book's decode table is sized for when this plan builds
    /// it: the stream's own count, or all of them for a shared book.
    pub table_values: usize,
    pub code_offsets: Vec<usize>,
    pub outlier_offsets: Vec<usize>,
    pub outliers_start: usize,
    pub outliers_end: usize,
    pub n_values: usize,
}

impl DecodePlan<'_> {
    /// Body byte range of block `bi`'s Huffman code stream.
    pub fn code_range(&self, bi: usize) -> (usize, usize) {
        (self.code_offsets[bi], self.code_offsets[bi] + self.metas[bi].code_bytes)
    }

    /// Body byte range of block `bi`'s outlier array.
    pub fn outlier_range(&self, bi: usize) -> (usize, usize) {
        let start = self.outliers_start + self.outlier_offsets[bi] * 4;
        (start, start + self.metas[bi].n_out * 4)
    }
}

/// Parses per-block metadata and, unless the body decodes against a
/// `shared` book, the Huffman table behind them, cross-checking every size
/// against the body before any dims-driven allocation.
pub(crate) fn prepare_decode<'a>(
    inf: &StreamInfo,
    body: &[u8],
    shared: Option<&'a Codebook>,
) -> Result<DecodePlan<'a>> {
    let n_values =
        inf.dims.checked_len().ok_or_else(|| Error::corrupt("dims product overflows"))?;
    // Arithmetic cross-checks BEFORE any dims-driven allocation: the
    // block count the tiling implies (checked as it is built) must match
    // the header's, and the meta region it implies must fit the body we
    // actually hold.
    let tiles = block::tiles(inf.dims, inf.block_size).map_err(Error::into_corrupt)?;
    if tiles.len() as u64 != inf.nblocks {
        return Err(Error::corrupt("block count mismatch"));
    }
    if inf
        .nblocks
        .checked_mul(META_BYTES as u64)
        .map(|m| m > body.len() as u64)
        .unwrap_or(true)
    {
        return Err(Error::corrupt("truncated block meta"));
    }

    // Per-block meta.
    let meta_len = tiles.len() * META_BYTES;
    let meta_bytes =
        body.get(..meta_len).ok_or_else(|| Error::corrupt("truncated block meta"))?;
    let mut metas = Vec::with_capacity(tiles.len());
    let mut mr = ByteReader::new(meta_bytes);
    for _ in 0..tiles.len() {
        let tag = PredictorTag::from_u8(mr.u8()?)
            .ok_or_else(|| Error::corrupt("bad predictor tag"))?;
        let n_out = mr.u32_le()? as usize;
        let code_bytes = mr.u32_le()? as usize;
        let mut coeffs = [0.0f32; 4];
        for c in coeffs.iter_mut() {
            *c = mr.f32_le()?;
        }
        metas.push(Meta { tag, n_out, code_bytes, coeffs });
    }

    // Huffman table: the stream's own, right behind the metas.
    let (book, table_len, table_values) = match shared {
        Some(book) => (Cow::Borrowed(book), 0, usize::MAX),
        None => {
            let table_bytes =
                body.get(meta_len..).ok_or_else(|| Error::corrupt("truncated Huffman table"))?;
            let (book, table_len) = Codebook::deserialize(table_bytes)?;
            (Cow::Owned(book), table_len, n_values)
        }
    };
    let codes_start = meta_len + table_len;

    // Slice boundaries for code streams and outliers; sum in u64 so a
    // forged meta table cannot overflow the offsets.
    let total_code_bytes: u64 = metas.iter().map(|m| m.code_bytes as u64).sum();
    let total_outliers: u64 = metas.iter().map(|m| m.n_out as u64).sum();
    let outliers_start_64 = codes_start as u64 + total_code_bytes;
    let outliers_end_64 = outliers_start_64 + total_outliers * 4;
    if outliers_end_64 > body.len() as u64 {
        return Err(Error::corrupt("truncated payload"));
    }
    // Huffman spends at least one bit per value, so a body with
    // `total_code_bytes` of codes can decode at most 8x that many
    // values — reject before allocating the output array.
    if n_values as u64 > total_code_bytes.saturating_mul(8) && n_values > 0 {
        return Err(Error::corrupt("dims imply more values than the code streams hold"));
    }
    let mut code_offsets = Vec::with_capacity(tiles.len());
    let mut outlier_offsets = Vec::with_capacity(tiles.len());
    let (mut co, mut oo) = (codes_start, 0usize);
    for m in &metas {
        code_offsets.push(co);
        outlier_offsets.push(oo);
        co += m.code_bytes;
        oo += m.n_out;
    }
    Ok(DecodePlan {
        tiles,
        metas,
        book,
        table_values,
        code_offsets,
        outlier_offsets,
        outliers_start: outliers_start_64 as usize,
        outliers_end: outliers_end_64 as usize,
        n_values,
    })
}

thread_local! {
    /// Per-thread symbol (one vector per decode lane) and outlier scratch,
    /// reused across the groups a worker decodes (as `block`'s lattice
    /// scratch is).
    static DECODE_SCRATCH: RefCell<([Vec<u32>; LANES], Vec<f32>)> =
        const { RefCell::new(([const { Vec::new() }; LANES], Vec::new())) };
}

/// Entropy-decodes `group`, at most [`LANES`] blocks numbered from `first`
/// on, side by side, and dequantizes each into `out`, the slab of the array
/// from index `base` that holds their cells. Fails with the error of its
/// lowest failing block. The decode table is sized to the plan's
/// `table_values`, by whichever group gets there first.
pub(crate) fn decode_group_into(
    inf: &StreamInfo,
    plan: &DecodePlan<'_>,
    body: &[u8],
    first: usize,
    group: &[Block],
    base: usize,
    out: &mut [f32],
) -> Result<()> {
    let (mut lanes, mut cells) = ([&[][..]; LANES], [0; LANES]);
    for (l, b) in group.iter().enumerate().take(LANES) {
        let (cs_start, cs_end) = plan.code_range(first + l);
        lanes[l] = body.get(cs_start..cs_end).ok_or_else(|| Error::corrupt("truncated codes"))?;
        cells[l] = b.cells();
    }
    let decoder = plan.book.decoder_for(plan.table_values);
    DECODE_SCRATCH.with_borrow_mut(|(codes, outliers)| {
        let decoded = decoder.decode_lanes(lanes, cells, codes);
        for (bi, (codes, b)) in (first..).zip(codes.iter().zip(group)) {
            let m = &plan.metas[bi];
            if codes.len() != b.cells() {
                // The lowest lane left short is the one that failed.
                return decoded.and(Err(Error::corrupt("truncated codes")));
            }
            let (o_start, o_end) = plan.outlier_range(bi);
            let outlier_bytes =
                body.get(o_start..o_end).ok_or_else(|| Error::corrupt("truncated outliers"))?;
            outliers.clear();
            outliers.extend(
                outlier_bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
            );
            // The rebuild counts the zero codes as it goes; a block whose
            // count is off fails here, whatever it wrote.
            let n_zero = block::decompress_block(
                codes,
                outliers,
                m.tag,
                m.coeffs,
                inf.dims.extents(),
                b,
                inf.eb_abs,
                inf.radius,
                base,
                out,
            );
            if n_zero != m.n_out {
                return Err(Error::corrupt("outlier count mismatch"));
            }
        }
        decoded
    })
}

/// Undoes the PW_REL log transform when active (bounds-checked reads).
pub(crate) fn finish_pwrel(
    inf: &StreamInfo,
    plan: &DecodePlan<'_>,
    body: &[u8],
    out: Vec<f32>,
) -> Result<Vec<f32>> {
    let ErrorBound::PwRel(_) = inf.mode else { return Ok(out) };
    let nbytes = plan.n_values.div_ceil(8);
    let tail =
        body.get(plan.outliers_end..).ok_or_else(|| Error::corrupt("truncated PW_REL tail"))?;
    let mut er = ByteReader::new(tail);
    let sign = er.take(nbytes)?;
    let special = er.take(nbytes)?;
    let nspec = er.u32_le()? as usize;
    let spec_bytes = er.take(
        nspec
            .checked_mul(4)
            .ok_or_else(|| Error::corrupt("PW_REL special count overflows"))?,
    )?;
    let specials: Vec<f32> = spec_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(pwrel::inverse(&out, sign, special, &specials))
}

/// Decompresses a stream, returning the data and its dimensions.
pub fn decompress(stream: &[u8]) -> Result<(Vec<f32>, Dims)> {
    let inf = info(stream)?;
    let mut scratch = Vec::new();
    let body = checked_body(&inf, stream, &mut scratch)?;
    Ok((decode_body(&inf, body, None)?, inf.dims))
}

/// Decodes a body laid out by [`write_body`]: against its own table, or
/// against the `shared` book of its field when it has none.
pub(crate) fn decode_body(
    inf: &StreamInfo,
    body: &[u8],
    shared: Option<&Codebook>,
) -> Result<Vec<f32>> {
    let plan = prepare_decode(inf, body, shared)?;

    let mut out = vec![0.0f32; plan.n_values];
    // One span covers entropy decode + dequantize: the two are fused in
    // the per-block loop, matching the reference SZ decoder's structure.
    let decode = telemetry::span("sz.huffman_decode");
    // A worker takes a slab's blocks a lane group at a time once there is
    // a whole group for every worker; fewer blocks than that go one by
    // one, in slabs as thin as the tiling allows.
    let tiles = &plan.tiles;
    let width = if tiles.len() >= LANES * rayon::current_num_threads() { LANES } else { 1 };
    tiles.par_slabs(&mut out, width, |slab, part| {
        let blocks: Vec<Block> =
            tiles.origins(slab.tiles.clone()).map(|o| tiles.tile_at(o)).collect();
        let firsts = (slab.tiles.start..).step_by(width);
        firsts.zip(blocks.chunks(width)).try_for_each(|(first, group)| {
            decode_group_into(inf, &plan, body, first, group, slab.values.start, part)
        })
    })?;
    drop(decode);

    finish_pwrel(inf, &plan, body, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorKind;

    fn sample_field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let t = i as f32;
                (t * 0.01).sin() * 100.0 + (t * 0.001).cos() * 1000.0
            })
            .collect()
    }

    fn check_bound(orig: &[f32], rec: &[f32], eb: f64) {
        for (a, b) in orig.iter().zip(rec) {
            assert!((*a as f64 - *b as f64).abs() <= eb, "{a} vs {b}");
        }
    }

    #[test]
    fn abs_roundtrip_1d() {
        let data = sample_field(10_000);
        let cfg = SzConfig::abs(0.5);
        let stream = compress(&data, Dims::D1(10_000), &cfg).unwrap();
        let (rec, dims) = decompress(&stream).unwrap();
        assert_eq!(dims, Dims::D1(10_000));
        check_bound(&data, &rec, 0.5);
        assert!(stream.len() < data.len() * 4, "no compression achieved");
    }

    #[test]
    fn abs_roundtrip_3d() {
        let data = sample_field(32 * 32 * 32);
        let cfg = SzConfig::abs(0.1);
        let stream = compress(&data, Dims::D3(32, 32, 32), &cfg).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        check_bound(&data, &rec, 0.1);
    }

    #[test]
    fn rel_mode_scales_with_range() {
        let data = sample_field(4096);
        let range = foresight_util::stats::summarize(&data).range();
        let cfg = SzConfig::rel(1e-3);
        let stream = compress(&data, Dims::D1(4096), &cfg).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        check_bound(&data, &rec, 1e-3 * range + 1e-9);
    }

    #[test]
    fn pwrel_mode_bounds_relative_error() {
        let data: Vec<f32> = (0..5000)
            .map(|i| {
                let t = i as f32 * 0.01;
                t.sin() * 10f32.powf((i % 7) as f32 - 3.0) * if i % 3 == 0 { -1.0 } else { 1.0 }
            })
            .collect();
        let p = 0.05;
        let cfg = SzConfig::pw_rel(p);
        let stream = compress(&data, Dims::D1(5000), &cfg).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        for (a, b) in data.iter().zip(&rec) {
            if *a == 0.0 {
                assert_eq!(*b, 0.0);
            } else {
                let rel = ((a - b) / a).abs();
                assert!(rel <= p as f32 * 1.001, "{a} vs {b} rel={rel}");
            }
        }
    }

    #[test]
    fn lzss_backend_roundtrips_and_shrinks_smooth_data() {
        let data = vec![7.25f32; 8192];
        let mut cfg = SzConfig::abs(1e-4);
        cfg.entropy = EntropyBackend::HuffmanLzss;
        let stream = compress(&data, Dims::D1(8192), &cfg).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        check_bound(&data, &rec, 1e-4);
        assert!(stream.len() < 2048, "len={}", stream.len());
    }

    #[test]
    fn all_predictors_roundtrip() {
        let data = sample_field(17 * 13 * 9);
        for pred in [PredictorKind::Lorenzo, PredictorKind::Regression, PredictorKind::Adaptive] {
            let cfg = SzConfig { predictor: pred, ..SzConfig::abs(0.2) };
            let stream = compress(&data, Dims::D3(17, 13, 9), &cfg).unwrap();
            let (rec, _) = decompress(&stream).unwrap();
            check_bound(&data, &rec, 0.2);
        }
    }

    #[test]
    fn corrupted_stream_detected() {
        let data = sample_field(1024);
        let stream = compress(&data, Dims::D1(1024), &SzConfig::abs(0.1)).unwrap();
        // Flip a payload byte: CRC must catch it.
        let mut bad = stream.clone();
        let n = bad.len();
        bad[n - 10] ^= 0xff;
        assert!(decompress(&bad).is_err());
        // Truncate: must error, not panic.
        assert!(decompress(&stream[..stream.len() / 2]).is_err());
        assert!(decompress(&stream[..10]).is_err());
        // Wrong magic.
        let mut bad = stream;
        bad[0] = b'X';
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn empty_input() {
        let stream = compress(&[], Dims::D1(0), &SzConfig::abs(0.1)).unwrap();
        let (rec, dims) = decompress(&stream).unwrap();
        assert!(rec.is_empty());
        assert_eq!(dims, Dims::D1(0));
    }

    #[test]
    fn length_mismatch_rejected() {
        let data = vec![0.0f32; 10];
        assert!(compress(&data, Dims::D1(11), &SzConfig::abs(0.1)).is_err());
    }

    #[test]
    fn info_reports_header() {
        let data = sample_field(2048);
        let cfg = SzConfig::abs(0.25);
        let stream = compress(&data, Dims::D1(2048), &cfg).unwrap();
        let inf = info(&stream).unwrap();
        assert_eq!(inf.dims, Dims::D1(2048));
        assert_eq!(inf.eb_abs, 0.25);
        assert_eq!(inf.block_size, cfg.block_size);
    }

    #[test]
    fn constant_field_compresses_extremely_well() {
        let data = vec![42.0f32; 64 * 64 * 64];
        // Huffman alone floors at ~1 bit/value (ratio 32); the LZSS stage
        // collapses the constant code stream far further.
        let stream = compress(&data, Dims::D3(64, 64, 64), &SzConfig::abs(1e-3)).unwrap();
        let ratio = (data.len() * 4) as f64 / stream.len() as f64;
        assert!(ratio > 25.0, "huffman-only ratio {ratio}");
        let mut cfg = SzConfig::abs(1e-3);
        cfg.entropy = EntropyBackend::HuffmanLzss;
        let stream = compress(&data, Dims::D3(64, 64, 64), &cfg).unwrap();
        let ratio = (data.len() * 4) as f64 / stream.len() as f64;
        assert!(ratio > 200.0, "lzss ratio {ratio}");
        let (rec, _) = decompress(&stream).unwrap();
        check_bound(&data, &rec, 1e-3);
    }

    /// Re-seals a doctored (Huffman-only) stream: body length, body CRC,
    /// header CRC — so what fails is the block decoder, not the container.
    fn reseal(stream: &mut [u8]) {
        let raw_len = (stream.len() - HDR) as u64;
        stream[RAW_LEN_AT..BODY_CRC_AT].copy_from_slice(&raw_len.to_le_bytes());
        let body_crc = crc32(&stream[HDR..]);
        stream[BODY_CRC_AT..HDR_CRC_AT].copy_from_slice(&body_crc.to_le_bytes());
        let hcrc = crc32(&stream[..HDR_CRC_AT]);
        stream[HDR_CRC_AT..HDR].copy_from_slice(&hcrc.to_le_bytes());
    }

    #[test]
    fn forged_code_streams_fail_alike_on_1_2_4_threads_and_the_device() {
        // Overwrite some blocks' code streams with all-ones (the longest
        // code over and over: the stream runs dry) and re-seal the stream.
        // Blocks decode four to a group: forged blocks in two groups, two
        // in one group, the last block of a three-block tail group, and
        // (3-D) blocks in two different tile layers, so two slabs.
        let cfg = SzConfig { block_size: 8, ..SzConfig::abs(0.5) };
        for (dims, nblocks, forged) in [
            (Dims::D1(4096), 8, [5, 2]),
            (Dims::D1(4096), 8, [3, 1]),
            (Dims::D1(3584), 7, [6, 6]),
            (Dims::D3(16, 16, 16), 8, [6, 1]),
        ] {
            let data = sample_field(dims.len());
            let stream = compress(&data, dims, &cfg).unwrap();
            let plan = prepare_decode(&info(&stream).unwrap(), &stream[HDR..], None).unwrap();
            assert_eq!(plan.tiles.len(), nblocks);
            let mut bad = stream.clone();
            for bi in forged {
                let (lo, hi) = plan.code_range(bi);
                bad[HDR + lo..HDR + hi].fill(0xff);
            }
            reseal(&mut bad);

            let good = decompress(&stream).unwrap();
            for threads in [1, 2, 4] {
                foresight_util::parallel::with_threads(threads, || {
                    assert_eq!(compress(&data, dims, &cfg).unwrap(), stream);
                    assert_eq!(decompress(&stream).unwrap(), good);
                    let err = decompress(&bad).unwrap_err();
                    assert!(matches!(err, Error::Corrupt(_)), "{threads} threads: {err}");
                    assert_eq!(err.to_string(), "corrupt stream: bit stream exhausted");
                });
            }
            let mut device = gpu_sim::Device::new(gpu_sim::GpuSpec::tesla_v100());
            let (on_device, ..) = crate::gpu_exec::decompress_on(&mut device, &stream).unwrap();
            assert_eq!(on_device, good.0, "{forged:?}");
            let err = crate::gpu_exec::decompress_on(&mut device, &bad).unwrap_err();
            assert_eq!(err.to_string(), "corrupt stream: bit stream exhausted");
            assert_eq!(device.allocated_bytes(), 0);
        }
    }

    #[test]
    fn a_group_fails_with_the_error_of_its_lowest_failing_block() {
        // Block 1 loses an outlier from its meta (its codes still decode);
        // block 2's code stream runs dry. One group holds both: block 1's
        // error is the verdict, as it is when blocks decode one by one.
        let mut data = sample_field(2048);
        data[600] = f32::NAN;
        let cfg = SzConfig { block_size: 8, ..SzConfig::abs(0.5) };
        let stream = compress(&data, Dims::D1(2048), &cfg).unwrap();
        let plan = prepare_decode(&info(&stream).unwrap(), &stream[HDR..], None).unwrap();
        assert!(plan.tiles.len() == 4 && plan.metas[1].n_out > 0);
        let mut bad = stream.clone();
        // n_outliers is the u32 behind the tag byte of block 1's meta; take
        // the same count off the payload's end so the sizes still add up.
        let at = HDR + META_BYTES + 1;
        let fewer = (plan.metas[1].n_out as u32 - 1).to_le_bytes();
        bad[at..at + 4].copy_from_slice(&fewer);
        bad.truncate(bad.len() - 4);
        let (lo, hi) = plan.code_range(2);
        bad[HDR + lo..HDR + hi].fill(0xff);
        reseal(&mut bad);
        for threads in [1, 2, 4] {
            foresight_util::parallel::with_threads(threads, || {
                let err = decompress(&bad).unwrap_err();
                assert_eq!(err.to_string(), "corrupt stream: outlier count mismatch", "{threads}");
            });
        }
        let mut device = gpu_sim::Device::new(gpu_sim::GpuSpec::tesla_v100());
        let err = crate::gpu_exec::decompress_on(&mut device, &bad).unwrap_err();
        assert_eq!(err.to_string(), "corrupt stream: outlier count mismatch");
        assert_eq!(device.allocated_bytes(), 0);
    }
}
