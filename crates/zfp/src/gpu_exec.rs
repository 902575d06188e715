//! Traced device execution of the ZFP pipeline.
//!
//! Runs the host's block coder through the gpu-sim block executor,
//! declaring every tracked-buffer range each block touches so the
//! sanitizer can bounds-check them (memcheck) and intersect them across
//! work items (racecheck). A work item is a group of [`LANES`] blocks,
//! like a warp of cuZFP threads, and it runs the very body a host run
//! does: [`crate::stream`]'s encoder codes the group into one writer, and
//! its decoder reads the group through [`crate::codec::Lanes`] and
//! scatters the values into the output. So traced output is
//! byte-identical to the plain CPU path, and the launch is charged for
//! its blocks, as one block a thread block.
//!
//! ZFP is the motivating case for the sanitizer's *bit*-granular access
//! records: at rate 4, block `i` occupies payload bits `[4·16·i,
//! 4·16·(i+1))`, so adjacent blocks legitimately share boundary *bytes* —
//! byte-level tracking would flag every fractional-rate stream as one long
//! write-write race. A block reads its rows of the array (edge blocks
//! replicate those samples into their padding, re-reading nothing else)
//! and writes the same rows on decode, skipping the padding, so items
//! write disjoint cells.

use crate::codec::LANES;
use crate::config::{Dims, ZfpConfig, ZfpMode};
use crate::stream::{self, Decoder, Encoder};
use foresight_util::bits::BitWriter;
use foresight_util::{Error, Result};
use gpu_sim::{launch_grid_traced, BlockGrid, BufferId, Device, GpuRunReport, KernelKind};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Compresses `data` on the simulated device with sanitizer tracing.
///
/// Produces exactly the bytes of [`crate::compress`] — and the same
/// [`Error::InvalidArgument`] for a NaN or an infinity; the report mirrors
/// [`gpu_sim::run_compression`] (only the compressed stream crosses PCIe).
pub fn compress_on(
    device: &mut Device,
    data: &[f32],
    dims: Dims,
    cfg: &ZfpConfig,
) -> Result<(Vec<u8>, GpuRunReport)> {
    let enc = Encoder::new(data, dims, cfg)?;
    device.reset_clock();
    let out = device.with_buffers(|device, held| {
        let encoded = encode_launch(device, &enc, data.len(), held)?;
        let out = enc.assemble(
            encoded.iter().map(|(bytes, nbits, _)| (&bytes[..], *nbits)),
            encoded.iter().flat_map(|(.., lens)| lens.iter().copied()),
        );
        device.d2h(out.len() as u64).map(|()| out)
    })?;
    let rep =
        GpuRunReport::from_breakdown(device.breakdown(), (data.len() * 4) as u64, out.len() as u64);
    Ok((out, rep))
}

/// The blocks of work item `item` of a grid of `blocks`.
fn item_blocks(item: usize, blocks: usize) -> Range<usize> {
    item * LANES..(item * LANES + LANES).min(blocks)
}

/// Each item's code, its bit length and its blocks' bit lengths.
type Encoded = Vec<(Vec<u8>, u64, Vec<u32>)>;

fn encode_launch(
    device: &mut Device,
    enc: &Encoder<'_>,
    n_values: usize,
    held: &mut Vec<BufferId>,
) -> Result<Encoded> {
    let nblocks = enc.tiles.len();
    // lint: allow(alloc-arith) — sized from an in-memory slice, not header data
    let in_buf = device.malloc((n_values * 4) as u64, "zfp.in")?;
    held.push(in_buf);
    device.mark_resident(in_buf)?;

    // Fixed-size staging slot per block — exact in fixed-rate mode, the
    // encoder's hard budget otherwise — matching cuZFP's pre-compaction
    // layout where block `i` starts at bit `i * maxbits`.
    let cap_bits = enc.coding.maxbits as u64;
    let stage_bytes = cap_bits
        .checked_mul(nblocks as u64)
        .map(|b| b.div_ceil(8))
        .ok_or_else(|| Error::invalid("encode staging size overflows"))?;
    let stage = device.malloc(stage_bytes, "zfp.stage")?;
    held.push(stage);

    let vpb = (n_values as u64).div_ceil(nblocks.max(1) as u64);
    let bits = match enc.mode {
        ZfpMode::FixedRate(rate) => rate,
        _ => 32.0,
    };
    let grid = BlockGrid { blocks: nblocks, values_per_block: vpb, bits_per_value: bits, per_item: LANES };
    // One allocation covers a fixed-rate group exactly; a variable-length
    // one rarely comes near its cap, so its writer grows on demand.
    let slot_bytes = if enc.coding.fixed_rate { (cap_bits as usize * LANES).div_ceil(8) } else { 0 };
    let (encoded, _) =
        launch_grid_traced(device, KernelKind::ZfpCompress, grid, "zfp.encode", |item, acc| {
            let blocks = item_blocks(item, nblocks);
            blocks.clone().for_each(|bi| acc.f32_rows(in_buf, enc.tiles.rows(bi), false));
            let (mut w, mut lens) = (BitWriter::with_capacity(slot_bytes), Vec::with_capacity(LANES));
            enc.encode_blocks(blocks.clone(), &mut w, |used| lens.push(used))?;
            for (bi, &used) in blocks.zip(&lens) {
                let start = bi as u64 * cap_bits;
                acc.write_bits(stage, start, start + used as u64);
            }
            let nbits = w.bit_len();
            Ok((w.into_bytes(), nbits, lens))
        })?;
    encoded.into_iter().collect()
}

/// Decompresses a stream on the simulated device with sanitizer tracing.
///
/// Produces exactly the result of [`crate::decompress`].
pub fn decompress_on(
    device: &mut Device,
    stream_bytes: &[u8],
) -> Result<(Vec<f32>, Dims, GpuRunReport)> {
    let dec = Decoder::new(stream_bytes)?;
    device.reset_clock();
    let out = device.with_buffers(|device, held| decode_launch(device, &dec, held))?;
    let unc = (out.len() * 4) as u64;
    let rep = GpuRunReport::from_breakdown(device.breakdown(), unc, stream_bytes.len() as u64);
    Ok((out, dec.tiles.shape(), rep))
}

fn decode_launch(
    device: &mut Device,
    dec: &Decoder<'_>,
    held: &mut Vec<BufferId>,
) -> Result<Vec<f32>> {
    let payload_len = dec.payload.len();
    let payload_buf = device.malloc(payload_len as u64, "zfp.payload")?;
    held.push(payload_buf);
    device.h2d_buf(payload_buf)?;
    let out_bytes = (dec.n_values as u64)
        .checked_mul(4)
        .ok_or_else(|| Error::corrupt("zfp output byte size overflows"))?;
    let out_buf = device.malloc(out_bytes, "zfp.out")?;
    held.push(out_buf);

    let nblocks = dec.tiles.len();
    let vpb = (dec.n_values as u64).div_ceil(nblocks.max(1) as u64);
    let bits = if dec.n_values == 0 { 0.0 } else { payload_len as f64 * 8.0 / dec.n_values as f64 };
    let grid = BlockGrid { blocks: nblocks, values_per_block: vpb, bits_per_value: bits, per_item: LANES };
    // The lock only hands the output to whichever item scatters a group.
    let out = Mutex::new(vec![0.0f32; dec.n_values]);
    let (ext, offsets) = (dec.tiles.shape().extents(), dec.offsets(LANES));
    let (decoded, _) =
        launch_grid_traced(device, KernelKind::ZfpDecompress, grid, "zfp.decode", |item, acc| {
            let (blocks, start) = (item_blocks(item, nblocks), offsets.get(item));
            // Bit-exact payload span of each block; fractional rates make
            // neighbors share boundary bytes, which bit records keep apart.
            let mut at = start;
            for bi in blocks.clone() {
                let end = at + dec.block_bits(bi) as u64;
                acc.read_bits(payload_buf, at, end);
                acc.f32_rows(out_buf, dec.tiles.rows(bi), true);
                at = end;
            }
            dec.decode_groups(blocks, start, |group, rows| {
                let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
                stream::scatter(ext, group, rows, 0, &mut out);
            })
        })?;
    decoded.into_iter().collect::<Result<()>>()?;
    device.d2h_buf(out_buf, "zfp.out")?;
    Ok(out.into_inner().unwrap_or_else(PoisonError::into_inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{launch_grid, GpuSpec, SanitizerConfig};

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

    fn traced_device() -> Device {
        Device::new(GpuSpec::tesla_v100()).with_sanitizer(SanitizerConfig::full())
    }

    #[test]
    fn traced_stream_is_byte_identical_for_every_mode() {
        let data = smooth_3d(16);
        let dims = Dims::D3(16, 16, 16);
        for cfg in [ZfpConfig::rate(4.0), ZfpConfig::precision(20), ZfpConfig::accuracy(0.01)] {
            let plain = crate::compress(&data, dims, &cfg).unwrap();
            let mut dev = traced_device();
            let (traced, rep) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            assert_eq!(plain, traced, "{:?}", cfg.mode);
            assert_eq!(rep.compressed_bytes as usize, traced.len());

            let (plain_rec, plain_dims) = crate::decompress(&plain).unwrap();
            let (rec, rdims, _) = decompress_on(&mut dev, &traced).unwrap();
            assert_eq!(plain_dims, rdims);
            assert_eq!(plain_rec, rec, "{:?}", cfg.mode);

            let report = dev.sanitizer_report().unwrap();
            assert!(report.is_clean(), "{:?}: {:?}", cfg.mode, report.diagnostics);
            assert_eq!(dev.allocated_bytes(), 0);
        }
    }

    #[test]
    fn fractional_rate_edge_blocks_stay_clean() {
        // Rate 3.5 puts consecutive blocks at non-byte-aligned payload
        // offsets, and 13x7x5 leaves partial blocks on every axis whose
        // clamped gathers re-read border samples: both must be race-free.
        for dims in [Dims::D3(13, 7, 5), Dims::D2(17, 9), Dims::D1(101)] {
            let data: Vec<f32> = (0..dims.len()).map(|i| (i as f32 * 0.31).sin() * 42.0).collect();
            let cfg = ZfpConfig::rate(3.5);
            let mut dev = traced_device();
            let (stream, _) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            let (rec, rdims, _) = decompress_on(&mut dev, &stream).unwrap();
            assert_eq!(rdims, dims);
            assert_eq!(rec, crate::decompress(&stream).unwrap().0);
            let report = dev.sanitizer_report().unwrap();
            assert!(report.is_clean(), "{dims:?}: {:?}", report.diagnostics);
        }
    }

    #[test]
    fn executor_runs_a_real_zfp_block_kernel() {
        // The block executor must produce exactly the encodings of the
        // serial path, a group of lanes an item (relocated from the gpu-sim
        // crate, which can no longer dev-depend on this one).
        let data = smooth_3d(12);
        let enc = Encoder::new(&data, Dims::D3(12, 12, 12), &ZfpConfig::rate(8.0)).unwrap();
        let blocks = enc.tiles.len();
        let encode_group = |item: usize| {
            let mut w = BitWriter::new();
            enc.encode_blocks(item_blocks(item, blocks), &mut w, |used| assert_eq!(used, 512)).unwrap();
            w.into_bytes()
        };
        let serial: Vec<Vec<u8>> = (0..blocks.div_ceil(LANES)).map(encode_group).collect();
        let mut dev = Device::new(GpuSpec::tesla_v100());
        let grid = BlockGrid { blocks, values_per_block: 64, bits_per_value: 8.0, per_item: LANES };
        let (parallel, report) =
            launch_grid(&mut dev, KernelKind::ZfpCompress, grid, "zfp.encode", encode_group).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(parallel.len(), 2, "27 blocks are two groups of lanes");
        assert!(report.simulated_seconds > 0.0);
    }

    #[test]
    fn error_paths_release_all_device_buffers() {
        use gpu_sim::{FaultPlan, FaultRates};
        let data = smooth_3d(8);
        let dims = Dims::D3(8, 8, 8);
        let cfg = ZfpConfig::rate(8.0);
        let mut ok_dev = traced_device();
        let (stream, _) = compress_on(&mut ok_dev, &data, dims, &cfg).unwrap();

        let rates = FaultRates { kernel: 1.0, ..Default::default() };
        let mut dev = Device::new(GpuSpec::tesla_v100())
            .with_sanitizer(SanitizerConfig::full())
            .with_fault_plan(FaultPlan::new(11, rates).with_max_retries(1));
        assert!(compress_on(&mut dev, &data, dims, &cfg).is_err());
        assert_eq!(dev.allocated_bytes(), 0, "leak: {:?}", dev.leak_report());
        assert!(decompress_on(&mut dev, &stream).is_err());
        assert_eq!(dev.allocated_bytes(), 0, "leak: {:?}", dev.leak_report());
    }
}
