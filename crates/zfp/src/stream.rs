//! ZFP compressed-stream container and parallel drivers.
//!
//! Fixed-rate mode (the only mode cuZFP supported at the time of the paper,
//! §IV-B-1) gives every block exactly `rate * 4^d` bits, so block `i`
//! starts at bit `i * maxbits` and blocks (de)compress in parallel with no
//! side table. Fixed-precision and fixed-accuracy modes produce
//! variable-length blocks; their per-block bit lengths are stored in the
//! header so decoding stays parallel.
//!
//! A work item is a *run of blocks*, never a block. The encoder cuts the
//! block sequence into runs of [`G`] and codes each run back-to-back into
//! one writer; the runs are then joined by [`BitWriter::append`] right
//! behind the header. Within a run blocks are coded and read sixteen at a
//! time, in every mode ([`codec::EncodeLanes`], [`codec::Lanes`]): a 1-D
//! run is a slice of the array, which [`codec::encode_line`] and
//! [`codec::decode_line`] walk; a 2-D or 3-D group comes in and goes out
//! by x-runs of its blocks. At a fixed rate a lane's code starts at `i *
//! maxbits`; otherwise behind the stored spans of the blocks before it,
//! and it must read exactly its own span. Blocks are the array's
//! [`Tiles`] of edge 4. The decoder's work item is a slab
//! ([`Tiles::par_slabs`]): the part of the output that whole layers of
//! blocks own — four z-planes in 3-D, four rows in 2-D, merged until the
//! item holds at least `G` blocks — so items scatter into disjoint `&mut`
//! slices and nothing is shared. A call of at most `G` blocks is a single
//! item, which the rayon shim runs inline on the calling thread.
//!
//! Partial edge blocks are padded by replicating the nearest interior
//! sample, which avoids injecting artificial discontinuities.

use crate::codec::{self, BlockCoding};
use crate::config::{Dims, ZfpConfig, ZfpMode};
use foresight_util::bits::{BitReader, BitWriter};
use foresight_util::crc::{crc32, crc32_parallel};
use foresight_util::tiles::Slab;
use foresight_util::{telemetry, ByteReader, Error, Result, Tiles};
use rayon::prelude::*;
use std::ops::Range;

/// Stream magic tag identifying a ZFP stream; exported so containers
/// and auto-detecting decoders match streams without private knowledge.
pub const MAGIC: &[u8; 4] = b"ZFPR";
const VERSION: u8 = 2;
/// Byte offset of the trailing header CRC; the CRC covers `[0, HDR_CRC_AT)`.
const HDR_CRC_AT: usize = 4 + 1 + 1 + 1 + 1 + 24 + 8 + 8 + 8 + 4;
const HDR: usize = HDR_CRC_AT + 4;
/// Byte offsets of the payload length and payload CRC, the two fields
/// [`Encoder::assemble`] fills in once the payload is joined.
const PAYLOAD_LEN_AT: usize = HDR_CRC_AT - 12;
const PAYLOAD_CRC_AT: usize = HDR_CRC_AT - 4;
/// Upper bound on any single extent read from an untrusted header.
const MAX_EXTENT: u64 = 1 << 40;

/// Blocks per work item. A multiple of 8, so a fixed-rate run of `G`
/// blocks ends on a byte boundary whatever `maxbits` is and the runs
/// join by plain copies.
const G: usize = 1024;

/// Scatters a group's decoded values, `rows` by x-row as
/// [`codec::Lanes::group`] leaves them and `group` its blocks' origins,
/// into `out`, the part of the array from linear index `base`. A group's
/// blocks in one block row follow one another along x, so each of their
/// rows of values goes out as one copy, padding skipped.
#[inline]
pub(crate) fn scatter(
    ext: [usize; 3],
    group: &[[usize; 3]],
    rows: &[codec::LaneRun],
    base: usize,
    out: &mut [f32],
) {
    let [nx, ny, nz] = ext;
    let mut first = 0;
    while let Some(&[ox, oy, oz]) = group.get(first) {
        let run = group[first..].iter().take_while(|o| o[1] == oy && o[2] == oz).count();
        let width = (nx - ox).min(4 * run);
        for (row, values) in rows.iter().enumerate() {
            let (y, z) = (oy + row % 4, oz + row / 4);
            if y < ny && z < nz {
                let at = ox + nx * (y + ny * z) - base;
                out[at..at + width].copy_from_slice(&values[4 * first..4 * first + width]);
            }
        }
        first += run;
    }
}

/// One encoded run of blocks.
struct Run {
    bytes: Vec<u8>,
    nbits: u64,
    /// Bit length of each block; empty at a fixed rate.
    lens: Vec<u32>,
}

/// A validated compression call: the input, its block grid and coding.
/// Shared by the CPU driver and the traced device path so both produce
/// bit-identical streams.
pub(crate) struct Encoder<'a> {
    data: &'a [f32],
    pub mode: ZfpMode,
    pub tiles: Tiles,
    pub coding: BlockCoding,
}

impl<'a> Encoder<'a> {
    pub(crate) fn new(data: &'a [f32], dims: Dims, cfg: &ZfpConfig) -> Result<Self> {
        cfg.validate()?;
        dims.check_len(data.len())?;
        let tiles = Tiles::cubes(dims, 4)?;
        Ok(Self { data, mode: cfg.mode, tiles, coding: BlockCoding::new(&cfg.mode, dims.ndim()) })
    }

    /// Codes `blocks` back-to-back into `w` and reports each block's bit
    /// length to `coded`. The kernel is chosen here, once for the run.
    pub(crate) fn encode_blocks(
        &self,
        blocks: Range<usize>,
        w: &mut BitWriter,
        coded: impl FnMut(u32),
    ) -> Result<()> {
        match self.tiles.shape().ndim() {
            // The 1-D run is a slice: the kernel walks it, and pads the
            // array's last block the way `gather` would.
            1 => {
                let line = &self.data[4 * blocks.start..self.data.len().min(4 * blocks.end)];
                codec::encode_line(line, &self.coding, w, coded).ok_or_else(|| self.non_finite())
            }
            2 => self.encode_lanes::<16>(blocks, w, coded),
            _ => self.encode_lanes::<64>(blocks, w, coded),
        }
    }

    /// Codes the 2-D or 3-D `blocks` a group of [`codec::LANES`] at a
    /// time, the mirror of [`scatter`]: each row of values of a group's
    /// blocks in one block row comes in as one copy, edge samples
    /// replicated into the padding.
    fn encode_lanes<const N: usize>(
        &self,
        blocks: Range<usize>,
        w: &mut BitWriter,
        mut coded: impl FnMut(u32),
    ) -> Result<()> {
        let [nx, ny, nz] = self.tiles.shape().extents();
        let mut origins = self.tiles.origins(blocks);
        let (mut runs, mut group) = ([[0.0f32; 4 * codec::LANES]; 16], [[0; 3]; codec::LANES]);
        let (mut rows, mut tail) = ([[0; codec::LANES]; codec::ROWS], w.tail());
        while let m @ 1.. = group.iter_mut().zip(origins.by_ref()).map(|(g, o)| *g = o).count() {
            let mut first = 0;
            while let Some(&[ox, oy, oz]) = group[..m].get(first) {
                let run = group[first..m].iter().take_while(|o| o[1] == oy && o[2] == oz).count();
                let width = (nx - ox).min(4 * run);
                for (row, values) in runs[..N / 4].iter_mut().enumerate() {
                    let (y, z) = ((oy + row % 4).min(ny - 1), (oz + row / 4).min(nz - 1));
                    let (at, to) =
                        (ox + nx * (y + ny * z), &mut values[4 * first..4 * (first + run)]);
                    to[..width].copy_from_slice(&self.data[at..at + width]);
                    to[width..].fill(self.data[at + width - 1]);
                }
                first += run;
            }
            codec::encode_group::<N>(&runs[..N / 4], m, &self.coding, &mut rows, &mut tail, &mut coded)
                .ok_or_else(|| self.non_finite())?;
        }
        Ok(())
    }

    /// The typed error for an input the block scan refused. The scan only
    /// flags the block, so the index named is found here, off the hot
    /// path, and is the same whichever block tripped first.
    fn non_finite(&self) -> Error {
        match self.data.iter().position(|v| !v.is_finite()) {
            Some(i) => Error::invalid(format!(
                "value {i} is {}: ZFP cannot code NaN or infinities",
                self.data[i]
            )),
            None => Error::invalid("non-finite value in input"),
        }
    }

    /// Codes the run `blocks` back-to-back into one writer, presized when
    /// the rate fixes the size.
    fn encode_run(&self, blocks: Range<usize>) -> Result<Run> {
        let c = &self.coding;
        let exact = if c.fixed_rate { (blocks.len() * c.maxbits as usize).div_ceil(8) } else { 0 };
        let mut w = BitWriter::with_capacity(exact);
        let mut lens = Vec::new();
        self.encode_blocks(blocks, &mut w, |used| {
            if !c.fixed_rate {
                lens.push(used);
            }
        })?;
        let nbits = w.bit_len();
        Ok(Run { bytes: w.into_bytes(), nbits, lens })
    }

    /// Joins encoded pieces, in block order, into the container: header,
    /// length table (variable-length modes), payload. The pieces are
    /// joined in place behind the header — a plain copy each at a fixed
    /// rate, where runs end on byte boundaries — and the header fields
    /// that depend on the payload are filled in afterwards.
    pub(crate) fn assemble<'p>(
        &self,
        pieces: impl Iterator<Item = (&'p [u8], u64)> + Clone,
        lens: impl Iterator<Item = u32>,
    ) -> Vec<u8> {
        let total_bits: u64 = pieces.clone().map(|(_, nbits)| nbits).sum();
        let nblocks = self.tiles.len();
        let table = if self.coding.fixed_rate { 0 } else { nblocks * 4 };

        // lint: allow(alloc-arith) — encoder-side size of an already-materialized payload
        let mut out = Vec::with_capacity(HDR + table + total_bits.div_ceil(8) as usize);
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.mode.tag());
        out.push(self.tiles.shape().ndim());
        out.push(0); // reserved
        for e in self.tiles.shape().extents() {
            out.extend_from_slice(&(e as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.mode.param().to_le_bytes());
        out.extend_from_slice(&(nblocks as u64).to_le_bytes());
        out.resize(HDR, 0); // payload length, payload CRC, header CRC
        if !self.coding.fixed_rate {
            for l in lens {
                out.extend_from_slice(&l.to_le_bytes());
            }
        }
        let mut payload = BitWriter::from_bytes(out);
        for (bytes, nbits) in pieces {
            payload.append(bytes, nbits);
        }
        let mut out = payload.into_bytes();

        let (head, payload) = out.split_at_mut(HDR + table);
        head[PAYLOAD_LEN_AT..PAYLOAD_CRC_AT].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        head[PAYLOAD_CRC_AT..HDR_CRC_AT].copy_from_slice(&crc32_parallel(payload).to_le_bytes());
        let hcrc = crc32(&head[..HDR_CRC_AT]);
        head[HDR_CRC_AT..HDR].copy_from_slice(&hcrc.to_le_bytes());
        out
    }
}

/// Compresses `data` (layout per [`Dims`]) with `cfg`.
///
/// A NaN or an infinity anywhere in `data` is an [`Error::InvalidArgument`]
/// naming the first such index: the block transform has no
/// representation for them and the stream has no side channel.
pub fn compress(data: &[f32], dims: Dims, cfg: &ZfpConfig) -> Result<Vec<u8>> {
    let enc = Encoder::new(data, dims, cfg)?;
    let n = enc.tiles.len();
    let encode = telemetry::span("zfp.encode");
    let runs = (0..n.div_ceil(G))
        .into_par_iter()
        .map(|g| enc.encode_run(g * G..(g * G + G).min(n)))
        .collect::<Result<Vec<Run>>>()?;
    drop(encode);
    Ok(enc.assemble(
        runs.iter().map(|r| (&r.bytes[..], r.nbits)),
        runs.iter().flat_map(|r| r.lens.iter().copied()),
    ))
}

/// Parsed and validated stream header.
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// Logical dimensions.
    pub dims: Dims,
    /// Mode with its parameter.
    pub mode: ZfpMode,
    coding: BlockCoding,
    tiles: Tiles,
    /// Where the payload starts: after the header and the length table.
    payload_start: usize,
    crc: u32,
}

/// Parses a stream header and checks it against the stream it heads.
///
/// Every read is bounds-checked ([`ByteReader`]) and the whole header is
/// protected by a trailing CRC, so a truncated or bit-flipped header
/// surfaces as [`Error::Corrupt`] instead of a panic or a huge allocation.
/// The block count must be the one the extents imply and the header,
/// length table and payload must add up to exactly `stream.len()`, which
/// bounds every size a decoder derives by the bytes actually held.
pub fn info(stream: &[u8]) -> Result<StreamInfo> {
    let mut r = ByteReader::new(stream);
    r.expect_magic(MAGIC, "ZFPR stream")?;
    let version = r.u8()?;
    if version != VERSION {
        return Err(Error::corrupt(format!("unsupported version {version}")));
    }
    let mode_tag = r.u8()?;
    let ndim = r.u8()?;
    r.u8()?; // reserved
    let nx = r.u64_le_capped(MAX_EXTENT, "x extent")?;
    let ny = r.u64_le_capped(MAX_EXTENT, "y extent")?;
    let nz = r.u64_le_capped(MAX_EXTENT, "z extent")?;
    let dims = Dims::from_ndim(ndim, [nx, ny, nz])
        .ok_or_else(|| Error::corrupt(format!("bad ndim {ndim}")))?;
    if dims.checked_len().is_none() {
        return Err(Error::corrupt("dims product overflows"));
    }
    let param = r.f64_le()?;
    let mode = ZfpMode::from_tag(mode_tag, param)
        .ok_or_else(|| Error::corrupt(format!("bad mode {mode_tag}")))?;
    if (ZfpConfig { mode }).validate().is_err() {
        return Err(Error::corrupt(format!("bad mode parameter {param}")));
    }
    let nblocks = r.u64_le()?;
    let payload_len = r.u64_le()?;
    let crc = r.u32_le()?;
    debug_assert_eq!(r.pos(), HDR_CRC_AT);
    let hcrc = r.u32_le()?;
    let hdr = stream.get(..HDR_CRC_AT).ok_or_else(|| Error::corrupt("truncated header"))?;
    if crc32(hdr) != hcrc {
        return Err(Error::corrupt("header CRC mismatch"));
    }

    // The tiling checks the block count as it is built, before anything
    // is sized from it.
    let tiles = Tiles::cubes(dims, 4).map_err(Error::into_corrupt)?;
    if tiles.len() as u64 != nblocks {
        return Err(Error::corrupt("block count mismatch"));
    }
    let expected = tiles.len() as u128;
    let coding = BlockCoding::new(&mode, dims.ndim());
    let table: u128 = if coding.fixed_rate { 0 } else { expected * 4 };
    if HDR as u128 + table + payload_len as u128 != stream.len() as u128 {
        return Err(Error::corrupt("payload length mismatch"));
    }
    if coding.fixed_rate && (expected * coding.maxbits as u128).div_ceil(8) != payload_len as u128 {
        return Err(Error::corrupt("payload length disagrees with block bits"));
    }
    // Both now fit: they are bounded by `stream.len()`.
    Ok(StreamInfo {
        dims,
        mode,
        coding,
        tiles,
        payload_start: HDR + table as usize,
        crc,
    })
}

/// Where each work item's first block starts in the payload.
pub(crate) enum Offsets {
    /// Item `i` starts at bit `i * step` (fixed rate).
    Step(u64),
    /// Prefix sums of the stored block lengths.
    Table(Vec<u64>),
}

impl Offsets {
    pub(crate) fn get(&self, i: usize) -> u64 {
        match self {
            Offsets::Step(step) => i as u64 * step,
            Offsets::Table(starts) => starts[i],
        }
    }
}

/// A validated stream, ready to decode runs of blocks independently.
pub(crate) struct Decoder<'a> {
    pub tiles: Tiles,
    coding: BlockCoding,
    pub payload: &'a [u8],
    /// Little-endian `u32` bit length per block; empty at a fixed rate.
    table: &'a [u8],
    /// Values in the decoded array.
    pub n_values: usize,
}

impl<'a> Decoder<'a> {
    /// Validates `stream` — header, sizes, payload CRC, and the length
    /// table against the payload — before any dims-driven allocation.
    pub(crate) fn new(stream: &'a [u8]) -> Result<Self> {
        let inf = info(stream)?;
        let coding = inf.coding;
        let table = stream
            .get(HDR..inf.payload_start)
            .ok_or_else(|| Error::corrupt("truncated length table"))?;
        let payload =
            stream.get(inf.payload_start..).ok_or_else(|| Error::corrupt("truncated payload"))?;
        if crc32_parallel(payload) != inf.crc {
            return Err(Error::corrupt("payload CRC mismatch"));
        }

        let n_values =
            inf.dims.checked_len().ok_or_else(|| Error::corrupt("dims product overflows"))?;
        let dec = Self { tiles: inf.tiles, coding, payload, table, n_values };
        if !coding.fixed_rate {
            let total: u64 = dec.spans(0..dec.tiles.len()).map(u64::from).sum();
            if total.div_ceil(8) != payload.len() as u64 {
                return Err(Error::corrupt("length table disagrees with payload length"));
            }
        }
        Ok(dec)
    }

    /// Payload bit offset of block `bi`: a product at a fixed rate, the
    /// sum of the stored lengths before it otherwise.
    fn bit_of(&self, bi: usize) -> u64 {
        if self.coding.fixed_rate {
            return bi as u64 * self.coding.maxbits as u64;
        }
        self.spans(0..bi).map(u64::from).sum()
    }

    /// Bit span of block `bi`.
    pub(crate) fn block_bits(&self, bi: usize) -> u32 {
        self.spans(bi..bi + 1).next().unwrap_or(self.coding.maxbits)
    }

    /// Stored bit spans of `blocks`; none at a fixed rate, where the table
    /// is empty and every span is `coding.maxbits`.
    fn spans(&self, blocks: Range<usize>) -> impl Iterator<Item = u32> + 'a {
        let stored = self.table.get(blocks.start * 4..blocks.end * 4).unwrap_or(&[]);
        stored.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Payload bit offset of block `i * stride`, for every such block.
    pub(crate) fn offsets(&self, stride: usize) -> Offsets {
        if self.coding.fixed_rate {
            return Offsets::Step(stride as u64 * self.coding.maxbits as u64);
        }
        let mut starts = Vec::with_capacity(self.tiles.len().div_ceil(stride));
        let mut at = 0u64;
        for (bi, span) in self.spans(0..self.tiles.len()).enumerate() {
            if bi % stride == 0 {
                starts.push(at);
            }
            at += span as u64;
        }
        Offsets::Table(starts)
    }

    /// A reader positioned at payload bit `bit`.
    fn reader_at(&self, bit: u64) -> Result<BitReader<'a>> {
        let tail = self
            .payload
            .get((bit / 8) as usize..)
            .ok_or_else(|| Error::corrupt("block bits out of range"))?;
        let mut r = BitReader::new(tail);
        r.consume((bit % 8) as u32)?;
        Ok(r)
    }

    /// The blocks `blocks`, the first at payload bit `start`, as lanes.
    pub(crate) fn lanes(&self, blocks: Range<usize>, start: u64) -> Result<codec::Lanes<'a>> {
        let table = self.table.get(blocks.start * 4..blocks.end * 4).unwrap_or(&[]);
        codec::Lanes::new(&self.reader_at(start)?, &self.coding, blocks, table)
    }

    /// Decodes `blocks`, the first at payload bit `start`, a group of
    /// [`codec::LANES`] at a time, and hands each group's block origins and
    /// values by x-row to `place`. The kernel is chosen here, once for the
    /// run.
    pub(crate) fn decode_groups(
        &self,
        blocks: Range<usize>,
        start: u64,
        place: impl FnMut(&[[usize; 3]], &[codec::LaneRun]),
    ) -> Result<()> {
        match self.tiles.shape().ndim() {
            1 => self.decode_typed::<4>(blocks, start, place),
            2 => self.decode_typed::<16>(blocks, start, place),
            _ => self.decode_typed::<64>(blocks, start, place),
        }
    }

    fn decode_typed<const N: usize>(
        &self,
        blocks: Range<usize>,
        start: u64,
        mut place: impl FnMut(&[[usize; 3]], &[codec::LaneRun]),
    ) -> Result<()> {
        let mut lanes = self.lanes(blocks.clone(), start)?;
        let mut origins = self.tiles.origins(blocks);
        let (mut rows, mut group) = ([[0.0f32; 4 * codec::LANES]; 16], [[0; 3]; codec::LANES]);
        while let m @ 1.. = group.iter_mut().zip(origins.by_ref()).map(|(g, o)| *g = o).count() {
            lanes.group::<N>(m, &mut rows[..N / 4])?;
            place(&group[..m], &rows[..N / 4]);
        }
        Ok(())
    }

    /// Decodes `slab` — a run of blocks starting at payload bit `start` —
    /// into `part`, the output values those blocks own, [`codec::LANES`]
    /// at a time in every mode.
    fn decode_slab(&self, slab: Slab, start: u64, part: &mut [f32]) -> Result<()> {
        if self.tiles.shape().ndim() == 1 {
            // The slab is the values of the run, four a block: no scatter.
            return codec::decode_line(&mut self.lanes(slab.tiles, start)?, part);
        }
        let (ext, base) = (self.tiles.shape().extents(), slab.values.start);
        self.decode_groups(slab.tiles, start, |group, rows| scatter(ext, group, rows, base, part))
    }
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<(Vec<f32>, Dims)> {
    let dec = Decoder::new(stream)?;
    let mut out = vec![0.0f32; dec.n_values];
    // Every slab but the last holds the same number of blocks.
    let stride = dec.tiles.slabs(G).next().map_or(1, |s| s.tiles.len());
    let offsets = dec.offsets(stride);
    let decode = telemetry::span("zfp.decode");
    dec.tiles.par_slabs(&mut out, G, |slab, part| {
        let start = offsets.get(slab.tiles.start / stride);
        dec.decode_slab(slab, start, part)
    })?;
    drop(decode);
    Ok((out, dec.tiles.shape()))
}

/// Decodes only the block layers `layers` of `stream`: whole layers of
/// its `4^d` blocks along the slowest used axis, as [`Tiles::layers`]
/// numbers them (one z-layer of blocks in 3-D), so the values they own
/// are one contiguous run of the array. Returns those values — bit for
/// bit the same run of a [`decompress`] — and the stream's dims. At a
/// fixed rate the first block starts at bit `first * maxbits` and no
/// block before it is read. Header, sizes and payload CRC are checked as
/// [`decompress`] checks them; an empty range or one past the last
/// layer is [`Error::InvalidArgument`].
pub fn decompress_layers(stream: &[u8], layers: Range<usize>) -> Result<(Vec<f32>, Dims)> {
    let dec = Decoder::new(stream)?;
    if layers.is_empty() || layers.end > dec.tiles.layer_count() {
        return Err(Error::invalid(format!(
            "block layers {layers:?} outside the stream's {}",
            dec.tiles.layer_count()
        )));
    }
    let slab = dec.tiles.layers(layers);
    let (mut out, start) = (vec![0.0f32; slab.values.len()], dec.bit_of(slab.tiles.start));
    let decode = telemetry::span("zfp.decode");
    dec.decode_slab(slab, start, &mut out)?;
    drop(decode);
    Ok((out, dec.tiles.shape()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_3d(n: usize) -> Vec<f32> {
        (0..n * n * n)
            .map(|i| {
                let x = (i % n) as f32 / n as f32;
                let y = ((i / n) % n) as f32 / n as f32;
                let z = (i / (n * n)) as f32 / n as f32;
                ((x * 6.3).sin() + (y * 4.1).cos() + z * 2.0) * 100.0
            })
            .collect()
    }

    fn psnr(orig: &[f32], rec: &[f32]) -> f64 {
        let range = {
            let mut lo = f32::INFINITY;
            let mut hi = f32::NEG_INFINITY;
            for &v in orig {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (hi - lo) as f64
        };
        let mse: f64 = orig.iter().zip(rec).map(|(a, b)| ((a - b) as f64).powi(2)).sum::<f64>()
            / orig.len() as f64;
        20.0 * range.log10() - 10.0 * mse.log10()
    }

    #[test]
    fn fixed_rate_sizes_are_exact() {
        let data = smooth_3d(16);
        for rate in [1.0, 2.0, 4.0, 8.0] {
            let stream = compress(&data, Dims::D3(16, 16, 16), &ZfpConfig::rate(rate)).unwrap();
            let blocks = 64usize; // (16/4)^3
            let expected_payload = (blocks as u64 * (rate * 64.0) as u64).div_ceil(8);
            let inf = info(&stream).unwrap();
            assert_eq!((stream.len() - inf.payload_start) as u64, expected_payload, "rate {rate}");
            let (rec, dims) = decompress(&stream).unwrap();
            assert_eq!(dims, Dims::D3(16, 16, 16));
            assert_eq!(rec.len(), data.len());
        }
    }

    #[test]
    fn quality_improves_with_rate() {
        let data = smooth_3d(16);
        let mut last_psnr = 0.0;
        for rate in [2.0, 4.0, 8.0, 16.0] {
            let stream = compress(&data, Dims::D3(16, 16, 16), &ZfpConfig::rate(rate)).unwrap();
            let (rec, _) = decompress(&stream).unwrap();
            let p = psnr(&data, &rec);
            assert!(p > last_psnr, "rate {rate}: psnr {p} <= {last_psnr}");
            last_psnr = p;
        }
        assert!(last_psnr > 80.0, "rate 16 psnr {last_psnr}");
    }

    #[test]
    fn non_multiple_of_four_extents() {
        for dims in [Dims::D3(13, 7, 5), Dims::D2(17, 9), Dims::D1(101)] {
            let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.31).sin() * 42.0).collect();
            let stream = compress(&data, dims, &ZfpConfig::rate(16.0)).unwrap();
            let (rec, rdims) = decompress(&stream).unwrap();
            assert_eq!(rdims, dims);
            let p = psnr(&data, &rec);
            assert!(p > 60.0, "{dims:?}: psnr {p}");
        }
    }

    #[test]
    fn fixed_precision_roundtrip() {
        let data = smooth_3d(8);
        let stream = compress(&data, Dims::D3(8, 8, 8), &ZfpConfig::precision(24)).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        assert!(psnr(&data, &rec) > 90.0);
    }

    #[test]
    fn fixed_accuracy_bounds_error() {
        let data = smooth_3d(8);
        for tol in [1.0f64, 0.1, 0.01] {
            let stream = compress(&data, Dims::D3(8, 8, 8), &ZfpConfig::accuracy(tol)).unwrap();
            let (rec, _) = decompress(&stream).unwrap();
            for (a, b) in data.iter().zip(&rec) {
                assert!(
                    ((a - b) as f64).abs() <= tol,
                    "tol {tol}: {a} vs {b} diff {}",
                    (a - b).abs()
                );
            }
        }
    }

    #[test]
    fn zero_field_is_tiny_in_precision_mode() {
        let data = vec![0.0f32; 4096];
        let stream = compress(&data, Dims::D1(4096), &ZfpConfig::precision(32)).unwrap();
        let (rec, _) = decompress(&stream).unwrap();
        assert_eq!(rec, data);
        // 1 bit per 4-value block plus headers.
        assert!(stream.len() < 4096 + 1024, "len {}", stream.len());
    }

    #[test]
    fn corrupt_and_truncated_streams_error() {
        let data = smooth_3d(8);
        let stream = compress(&data, Dims::D3(8, 8, 8), &ZfpConfig::rate(8.0)).unwrap();
        let mut bad = stream.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x40;
        assert!(decompress(&bad).is_err());
        assert!(decompress(&stream[..stream.len() - 1]).is_err());
        assert!(decompress(&stream[..16]).is_err());
        assert!(decompress(b"nope").is_err());
        let mut bad = stream;
        bad[0] = b'Q';
        assert!(decompress(&bad).is_err());
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(compress(&[0.0; 5], Dims::D1(6), &ZfpConfig::rate(8.0)).is_err());
    }

    /// Every vector width codes the same streams and reads the same
    /// values as the baseline, on 1, 2 and 4 threads and on the device
    /// path, whose items are groups of lanes too: fixed-rate 1-D lengths
    /// through a group of lanes and a block past it and around a run,
    /// budgets of 10 to 64 bits and past a word, and 2-D and 3-D lanes
    /// with a partial last group at budgets that are not whole bytes or
    /// words, and at a tolerance — and every range of block layers reads
    /// to its slice of the baseline's values. Forged length tables fail
    /// with the same text at every width, host and device.
    #[test]
    fn streams_are_identical_at_every_level_thread_count_and_on_the_device() {
        use crate::codec::{forced, LANES};
        use foresight_util::cpu::Level;
        use gpu_sim::{Device, GpuSpec};
        let on = |threads: usize, f: &(dyn Fn() -> (Vec<u8>, Vec<u32>) + Sync)| {
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(f)
        };
        let mut cases: Vec<(Dims, ZfpConfig)> = Vec::new();
        for len in (0..=4 * LANES + 3).chain([4 * G - 1, 4 * G, 4 * G + 1]) {
            for rate in [2.5, 4.0, 8.0, 11.0, 16.0, 20.0] {
                cases.push((Dims::D1(len), ZfpConfig::rate(rate)));
            }
        }
        for dims in [Dims::D2(17, 9), Dims::D2(70, 66), Dims::D3(13, 7, 5), Dims::D3(24, 20, 9)] {
            for rate in [0.7, 4.0, 5.5, 8.0, 33.0] {
                cases.push((dims, ZfpConfig::rate(rate)));
            }
            cases.push((dims, ZfpConfig::accuracy(0.01)));
        }
        let values = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (dims, cfg) in cases {
            let data: Vec<f32> =
                (0..dims.len()).map(|i| ((i as f32 * 0.37).sin() * 300.0).powi(3) * 1e-4).collect();
            let roundtrip = || {
                let stream = compress(&data, dims, &cfg).unwrap();
                let decoded = values(decompress(&stream).unwrap().0);
                (stream, decoded)
            };
            let base = forced::at(Level::Baseline, || on(1, &roundtrip)).unwrap();
            for level in Level::ALL {
                let ran = forced::at(level, || {
                    for threads in [1, 2, 4] {
                        assert!(
                            on(threads, &roundtrip) == base,
                            "{dims:?} {cfg:?} {level:?} {threads}"
                        );
                    }
                    let mut dev = Device::new(GpuSpec::tesla_v100());
                    let (stream, _) =
                        crate::gpu_exec::compress_on(&mut dev, &data, dims, &cfg).unwrap();
                    assert!(stream == base.0, "{dims:?} {cfg:?} {level:?}: device bytes");
                    let (decoded, ..) = crate::gpu_exec::decompress_on(&mut dev, &stream).unwrap();
                    assert!(values(decoded) == base.1, "{dims:?} {cfg:?} {level:?}: device values");
                    let tiles = Tiles::cubes(dims, 4).unwrap();
                    let n = tiles.layer_count();
                    for layers in (0..n).flat_map(|a| (a + 1..=n).map(move |b| a..b)).take(40) {
                        let got = values(decompress_layers(&stream, layers.clone()).unwrap().0);
                        let want = &base.1[tiles.layers(layers.clone()).values];
                        assert!(got == want, "{dims:?} {cfg:?} {level:?}: layers {layers:?}");
                    }
                });
                if ran.is_none() {
                    eprintln!("skipped, this CPU does not run {level:?}");
                }
            }
        }
        // Forged length tables — a span of 0, 1, 8, the cap and the
        // largest a table holds, the next block's taking up the
        // difference where it can — fail alike at every level.
        let forged = [(Dims::D3(24, 20, 9), ZfpConfig::precision(16)), (Dims::D1(301), ZfpConfig::accuracy(1e-2))];
        for (dims, cfg) in forged {
            let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.37).sin() * 30.0).collect();
            let stream = compress(&data, dims, &cfg).unwrap();
            let cap = BlockCoding::new(&cfg.mode, dims.ndim()).maxbits;
            for span in [0, 1, 8, cap, u32::MAX] {
                let (bi, mut bad) = (17, stream.clone());
                let at = |bi: usize| HDR + 4 * bi..HDR + 4 * bi + 4;
                let len = |bad: &[u8], bi| u32::from_le_bytes(bad[at(bi)].try_into().unwrap()) as u64;
                let pair = len(&bad, bi) + len(&bad, bi + 1);
                bad[at(bi)].copy_from_slice(&span.to_le_bytes());
                if let Some(rest) = pair.checked_sub(span as u64) {
                    bad[at(bi + 1)].copy_from_slice(&(rest as u32).to_le_bytes());
                }
                let text = |r: Result<(Vec<f32>, Dims)>| r.map(|_| ()).unwrap_err().to_string();
                let base = forced::at(Level::Baseline, || text(decompress(&bad))).unwrap();
                for level in Level::ALL {
                    let got = forced::at(level, || {
                        let mut dev = Device::new(GpuSpec::tesla_v100());
                        let device = crate::gpu_exec::decompress_on(&mut dev, &bad);
                        (text(decompress(&bad)), device.map(|_| ()).unwrap_err().to_string())
                    });
                    if let Some((host, device)) = got {
                        assert!(host == base && device == base, "{dims:?} span {span} {level:?}: {base}");
                    }
                }
            }
        }
    }

    /// Every run of whole block layers decodes to exactly the values a
    /// whole-stream decode puts there — 1-D, 2-D and 3-D, with clamped
    /// edge blocks, at fixed rates and with a length table — and a range
    /// the stream does not have is refused.
    #[test]
    fn every_layer_range_equals_its_slice_of_the_whole_decode() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for dims in [Dims::D1(37), Dims::D2(17, 9), Dims::D3(16, 16, 16), Dims::D3(13, 7, 6)] {
            let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.37).sin() * 30.0).collect();
            let tiles = Tiles::cubes(dims, 4).unwrap();
            let n = tiles.layer_count();
            for cfg in [ZfpConfig::rate(8.0), ZfpConfig::rate(5.5), ZfpConfig::accuracy(0.01)] {
                let stream = compress(&data, dims, &cfg).unwrap();
                let (whole, _) = decompress(&stream).unwrap();
                for a in 0..n {
                    for b in a + 1..=n {
                        let (got, got_dims) = decompress_layers(&stream, a..b).unwrap();
                        assert_eq!(got_dims, dims);
                        let want = &whole[tiles.layers(a..b).values];
                        assert_eq!(bits(&got), bits(want), "{dims:?} {cfg:?} layers {a}..{b}");
                    }
                }
                for bad in [0..0, n..n + 1, 0..n + 1, Range { start: 2, end: 1 }] {
                    let err = decompress_layers(&stream, bad.clone()).unwrap_err();
                    assert!(matches!(err, Error::InvalidArgument(_)), "{dims:?} {bad:?}: {err}");
                }
            }
        }
    }

    #[test]
    fn compression_ratio_matches_rate() {
        // Rate r on 32-bit data gives ratio ~ 32/r (plus constant header).
        let data = smooth_3d(32);
        let stream = compress(&data, Dims::D3(32, 32, 32), &ZfpConfig::rate(4.0)).unwrap();
        let ratio = (data.len() * 4) as f64 / stream.len() as f64;
        assert!((ratio - 8.0).abs() < 0.5, "ratio {ratio}");
    }
}
