//! Traced device execution of the ZFP pipeline.
//!
//! Runs the same `4^d` block kernels as [`crate::stream`] through the
//! gpu-sim block executor, declaring every tracked-buffer range each block
//! touches so the sanitizer can bounds-check them (memcheck) and intersect
//! them across blocks (racecheck). Blocks are coded, joined and decoded by
//! the shared [`crate::stream`] encoder and decoder, so traced output is
//! byte-identical to the plain CPU path. The executor's work item is a
//! block, so here — and only here — a writer serves one block; decoded
//! blocks go straight into the output slab that owns them.
//!
//! ZFP is the motivating case for the sanitizer's *bit*-granular access
//! records: at rate 4, block `i` occupies payload bits `[4·16·i,
//! 4·16·(i+1))`, so adjacent blocks legitimately share boundary *bytes* —
//! byte-level tracking would flag every fractional-rate stream as one long
//! write-write race. Gather reads clamp at the array edge exactly like
//! [`crate::stream::compress`] does, so partial edge blocks re-read border
//! samples (a benign read-read overlap the racecheck must not flag).

use crate::codec;
use crate::config::{Dims3, ZfpConfig, ZfpMode};
use crate::stream::{Decoder, Encoder, Grid};
use foresight_util::bits::BitWriter;
use foresight_util::{Error, Result};
use gpu_sim::{
    launch_grid_traced, BlockAccess, BlockGrid, BufferId, Device, GpuRunReport, KernelKind,
};
use std::sync::Mutex;

/// Rows of four x-samples in a block, as `(dy, dz)` offsets.
fn block_rows(d: u8) -> impl Iterator<Item = (usize, usize)> {
    (0..codec::block_cells(d) / 4).map(|i| (i % 4, i / 4))
}

/// Records the clamped row reads of one gathered block (mirrors the
/// encoder's gather: edge blocks re-read the nearest interior sample).
fn record_gather(acc: &mut BlockAccess, buf: BufferId, grid: &Grid, bi: usize) {
    let [nx, ny, nz] = grid.ext;
    let [ox, oy, oz] = grid.origin(bi);
    for (dy, dz) in block_rows(grid.d) {
        let row = nx * ((oy + dy).min(ny - 1) + ny * (oz + dz).min(nz - 1));
        let x0 = ox.min(nx - 1);
        let x1 = (ox + 3).min(nx - 1);
        acc.read(buf, (row + x0) as u64 * 4, (row + x1 + 1) as u64 * 4);
    }
}

/// Records the in-range row writes of one scattered block (mirrors the
/// decoder's scatter: replicated padding is skipped, so blocks write
/// disjoint cells).
fn record_scatter(acc: &mut BlockAccess, buf: BufferId, grid: &Grid, bi: usize) {
    let [nx, ny, nz] = grid.ext;
    let [ox, oy, oz] = grid.origin(bi);
    for (dy, dz) in block_rows(grid.d) {
        let (y, z) = (oy + dy, oz + dz);
        if y >= ny || z >= nz {
            continue;
        }
        let row = nx * (y + ny * z);
        acc.write(buf, (row + ox) as u64 * 4, (row + (ox + 4).min(nx)) as u64 * 4);
    }
}

/// Compresses `data` on the simulated device with sanitizer tracing.
///
/// Produces exactly the bytes of [`crate::compress`] — and the same
/// [`Error::InvalidArgument`] for a NaN or an infinity; the report mirrors
/// [`gpu_sim::run_compression`] (only the compressed stream crosses PCIe).
pub fn compress_on(
    device: &mut Device,
    data: &[f32],
    dims: Dims3,
    cfg: &ZfpConfig,
) -> Result<(Vec<u8>, GpuRunReport)> {
    let enc = Encoder::new(data, dims, cfg)?;
    device.reset_clock();
    let mut held = Vec::new();
    let out = encode_launch(device, &enc, data.len(), &mut held).and_then(|encoded| {
        let out = enc.assemble(
            encoded.iter().map(|(bytes, used)| (&bytes[..], *used as u64)),
            encoded.iter().map(|(_, used)| *used),
        );
        device.d2h(out.len() as u64).map(|()| out)
    });
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            for id in held {
                device.release(id);
            }
            return Err(e);
        }
    };
    for id in held.into_iter().rev() {
        device.free(id)?;
    }
    let rep =
        GpuRunReport::from_breakdown(device.breakdown(), (data.len() * 4) as u64, out.len() as u64);
    Ok((out, rep))
}

fn encode_launch(
    device: &mut Device,
    enc: &Encoder<'_>,
    n_values: usize,
    held: &mut Vec<BufferId>,
) -> Result<Vec<(Vec<u8>, u32)>> {
    let nblocks = enc.grid.nblocks();
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
    let grid = BlockGrid { blocks: nblocks, values_per_block: vpb, bits_per_value: bits };
    // One allocation covers a fixed-rate block exactly; a variable-length
    // one rarely comes near its cap, so its writer grows on demand.
    let slot_bytes = if enc.coding.fixed_rate { cap_bits.div_ceil(8) as usize } else { 0 };
    let (encoded, _) =
        launch_grid_traced(device, KernelKind::ZfpCompress, grid, "zfp.encode", |bi, acc| {
            record_gather(acc, in_buf, &enc.grid, bi);
            let mut w = BitWriter::with_capacity(slot_bytes);
            let used = enc.encode_block(bi, &mut w)?;
            let start = bi as u64 * cap_bits;
            acc.write_bits(stage, start, start + used as u64);
            Ok((w.into_bytes(), used))
        })?;
    encoded.into_iter().collect()
}

/// Decompresses a stream on the simulated device with sanitizer tracing.
///
/// Produces exactly the result of [`crate::decompress`].
pub fn decompress_on(
    device: &mut Device,
    stream_bytes: &[u8],
) -> Result<(Vec<f32>, Dims3, GpuRunReport)> {
    let dec = Decoder::new(stream_bytes)?;
    device.reset_clock();

    let mut held = Vec::new();
    let run = decode_launch(device, &dec, &mut held);
    let out = match run {
        Ok(out) => out,
        Err(e) => {
            for id in held {
                device.release(id);
            }
            return Err(e);
        }
    };
    for id in held.into_iter().rev() {
        device.free(id)?;
    }
    let unc = (out.len() * 4) as u64;
    let rep = GpuRunReport::from_breakdown(device.breakdown(), unc, stream_bytes.len() as u64);
    Ok((out, dec.dims, rep))
}

fn decode_launch(
    device: &mut Device,
    dec: &Decoder<'_>,
    held: &mut Vec<BufferId>,
) -> Result<Vec<f32>> {
    let payload_len = dec.payload_len();
    let payload_buf = device.malloc(payload_len as u64, "zfp.payload")?;
    held.push(payload_buf);
    device.h2d_buf(payload_buf)?;
    let out_bytes = (dec.n_values as u64)
        .checked_mul(4)
        .ok_or_else(|| Error::corrupt("zfp output byte size overflows"))?;
    let out_buf = device.malloc(out_bytes, "zfp.out")?;
    held.push(out_buf);

    let nblocks = dec.nblocks;
    let vpb = (dec.n_values as u64).div_ceil(nblocks.max(1) as u64);
    let bits = if dec.n_values == 0 { 0.0 } else { payload_len as f64 * 8.0 / dec.n_values as f64 };
    let grid = BlockGrid { blocks: nblocks, values_per_block: vpb, bits_per_value: bits };
    let mut out = vec![0.0f32; dec.n_values];
    // Each slab belongs to one run of blocks, as on the host; the lock
    // only hands it to whichever executor thread holds one of them.
    let slabs: Vec<Mutex<&mut [f32]>> = out.chunks_mut(dec.item_values).map(Mutex::new).collect();
    let offsets = dec.offsets(1);
    let (decoded, _) =
        launch_grid_traced(device, KernelKind::ZfpDecompress, grid, "zfp.decode", |bi, acc| {
            // Bit-exact payload span of this block; fractional rates make
            // neighbors share boundary bytes, which bit records keep apart.
            let start = offsets.get(bi);
            acc.read_bits(payload_buf, start, start + dec.block_bits(bi) as u64);
            record_scatter(acc, out_buf, &dec.grid, bi);
            let item = bi / dec.item_blocks;
            dec.decode_blocks(bi..bi + 1, &mut dec.reader_at(start)?, |origin, vals| {
                // lint: allow(decode-panic) — poisoned only if another block already panicked
                let mut slab = slabs[item].lock().expect("slab lock poisoned");
                dec.scatter(item, origin, vals, &mut slab);
            })
        })?;
    decoded.into_iter().collect::<Result<()>>()?;
    drop(slabs);
    device.d2h_buf(out_buf, "zfp.out")?;
    Ok(out)
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
        let dims = Dims3::D3(16, 16, 16);
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
        for dims in [Dims3::D3(13, 7, 5), Dims3::D2(17, 9), Dims3::D1(101)] {
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
        // The block executor must produce exactly the per-block encodings
        // of the serial path (relocated from the gpu-sim crate, which can
        // no longer dev-depend on this one).
        let data = smooth_3d(8);
        let enc = Encoder::new(&data, Dims3::D3(8, 8, 8), &ZfpConfig::rate(8.0)).unwrap();
        let encode_one = |bi: usize| {
            let mut w = BitWriter::new();
            let used = enc.encode_block(bi, &mut w).unwrap();
            (w.into_bytes(), used)
        };
        let blocks = enc.grid.nblocks();
        let serial: Vec<(Vec<u8>, u32)> = (0..blocks).map(encode_one).collect();
        let mut dev = Device::new(GpuSpec::tesla_v100());
        let grid = BlockGrid { blocks, values_per_block: 64, bits_per_value: 8.0 };
        let (parallel, report) =
            launch_grid(&mut dev, KernelKind::ZfpCompress, grid, "zfp.encode", encode_one).unwrap();
        assert_eq!(serial, parallel);
        assert!(report.simulated_seconds > 0.0);
    }

    #[test]
    fn error_paths_release_all_device_buffers() {
        use gpu_sim::{FaultPlan, FaultRates};
        let data = smooth_3d(8);
        let dims = Dims3::D3(8, 8, 8);
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
