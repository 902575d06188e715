//! Traced device execution of the SZ pipeline.
//!
//! Runs the same block kernels as [`crate::stream`] through the gpu-sim
//! block executor, declaring every tracked-buffer range each block reads
//! or writes so the sanitizer can bounds-check them (memcheck) and
//! intersect them across blocks (racecheck). The stream bytes themselves
//! come from the shared [`crate::stream`] assemble/decode-plan code, so
//! traced output is byte-identical to the plain CPU path.
//!
//! Device buffers model the paper's scenario (§III Metric 4): the input
//! field is already resident in GPU memory (`sz.in`), quantization codes
//! land in `sz.quant`, entropy coding stages per-block bitstreams into
//! worst-case slots of `sz.codes` (as real GPU entropy coders do before
//! the compaction prefix-sum), and only the compressed stream crosses
//! PCIe. Decompression mirrors it: the stream body uploads into
//! `sz.body`, blocks scatter into `sz.out`, and the full array downloads
//! at the end — which doubles as a whole-buffer initialization check.

use crate::block::{self, Block, BlockOutput};
use crate::config::{Dims, SzConfig};
use crate::huffman::Codebook;
use crate::stream::{self, ModePlan, SendPtr};
use foresight_util::{Error, Result};
use gpu_sim::{
    launch_grid_traced, BlockAccess, BlockGrid, BufferId, Device, GpuRunReport, KernelKind,
};

/// Records one block's row-wise accesses to an `f32` array buffer: one
/// contiguous byte range per `(y, z)` row of the block.
fn record_rows(acc: &mut BlockAccess, buf: BufferId, b: &Block, ext: [usize; 3], write: bool) {
    let [nx, ny, _] = ext;
    for dz in 0..b.size[2] {
        for dy in 0..b.size[1] {
            let row = ((b.origin[2] + dz) * ny + (b.origin[1] + dy)) * nx + b.origin[0];
            let start = row as u64 * 4;
            let end = start + b.size[0] as u64 * 4;
            if write {
                acc.write(buf, start, end);
            } else {
                acc.read(buf, start, end);
            }
        }
    }
}

/// Compresses `data` on the simulated device with sanitizer tracing.
///
/// Produces exactly the bytes of [`crate::compress`]; the report mirrors
/// [`gpu_sim::run_compression`] (kernel and overall throughput over the
/// uncompressed size, only the compressed stream charged to PCIe).
pub fn compress_on(
    device: &mut Device,
    data: &[f32],
    dims: Dims,
    cfg: &SzConfig,
) -> Result<(Vec<u8>, GpuRunReport)> {
    stream::validate_input(data, dims, cfg)?;
    let plan = stream::plan_mode(data, cfg);
    device.reset_clock();
    let mut held = Vec::new();
    let run = compress_launches(device, plan.working_data(data), dims, cfg, &plan, &mut held)
        .and_then(|(outputs, code_streams, book)| {
            let out = stream::assemble(dims, cfg, &plan, &outputs, &code_streams, &book);
            device.d2h(out.len() as u64)?;
            Ok(out)
        });
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
    let clen = out.len() as u64;
    let rep = GpuRunReport::from_breakdown(device.breakdown(), (data.len() * 4) as u64, clen);
    Ok((out, rep))
}

fn compress_launches(
    device: &mut Device,
    data: &[f32],
    dims: Dims,
    cfg: &SzConfig,
    plan: &ModePlan,
    held: &mut Vec<BufferId>,
) -> Result<(Vec<BlockOutput>, Vec<Vec<u8>>, Codebook)> {
    let ext = dims.extents();
    let blocks = block::partition(dims, cfg.block_size);
    let data_bytes = (data.len() as u64) * 4;

    let in_buf = device.malloc(data_bytes, "sz.in")?;
    held.push(in_buf);
    device.mark_resident(in_buf)?;
    let quant = device.malloc(data_bytes, "sz.quant")?;
    held.push(quant);

    let vpb = (data.len() as u64).div_ceil(blocks.len().max(1) as u64);
    let grid = BlockGrid { blocks: blocks.len(), values_per_block: vpb, bits_per_value: 32.0 };
    let (outputs, _) =
        launch_grid_traced(device, KernelKind::SzCompress, grid, "sz.quantize", |bi, acc| {
            let b = &blocks[bi];
            record_rows(acc, in_buf, b, ext, false);
            record_rows(acc, quant, b, ext, true);
            block::compress_block(data, ext, b, plan.eb_abs, cfg.radius, cfg.predictor)
        })?;

    let book = stream::global_codebook(&outputs)?;

    // Worst-case per-block staging slots for the encoded bitstreams
    // (64 bits per value plus slack), allocated up front the way real
    // GPU entropy coders do before the compaction prefix-sum pass.
    let max_cells = blocks.iter().map(Block::cells).max().unwrap_or(0) as u64;
    let stage_cap = max_cells
        .checked_mul(8)
        .and_then(|c| c.checked_add(64))
        .ok_or_else(|| Error::invalid("encode staging slot overflows"))?;
    let stage_total = stage_cap
        .checked_mul(blocks.len() as u64)
        .ok_or_else(|| Error::invalid("encode staging size overflows"))?;
    let codes_buf = device.malloc(stage_total, "sz.codes")?;
    held.push(codes_buf);

    let (enc, _) =
        launch_grid_traced(device, KernelKind::SzCompress, grid, "sz.huffman_encode", |bi, acc| {
            record_rows(acc, quant, &blocks[bi], ext, false);
            let cs = stream::encode_block_codes(&outputs[bi].codes, &book)?;
            let start = bi as u64 * stage_cap;
            acc.write(codes_buf, start, start + cs.len() as u64);
            Ok(cs)
        })?;
    let code_streams = enc.into_iter().collect::<Result<Vec<Vec<u8>>>>()?;
    Ok((outputs, code_streams, book))
}

/// Decompresses a stream on the simulated device with sanitizer tracing.
///
/// Produces exactly the result of [`crate::decompress`].
pub fn decompress_on(
    device: &mut Device,
    stream_bytes: &[u8],
) -> Result<(Vec<f32>, Dims, GpuRunReport)> {
    let inf = stream::info(stream_bytes)?;
    device.reset_clock();
    let mut scratch = Vec::new();
    let body = stream::checked_body(&inf, stream_bytes, &mut scratch)?;
    let plan = stream::prepare_decode(&inf, body)?;

    let mut held = Vec::new();
    let run = decode_launch(device, &inf, &plan, body, &mut held);
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
    let out = stream::finish_pwrel(&inf, &plan, body, out)?;
    let unc = (plan.n_values * 4) as u64;
    let rep =
        GpuRunReport::from_breakdown(device.breakdown(), unc, stream_bytes.len() as u64);
    Ok((out, inf.dims, rep))
}

fn decode_launch(
    device: &mut Device,
    inf: &stream::StreamInfo,
    plan: &stream::DecodePlan,
    body: &[u8],
    held: &mut Vec<BufferId>,
) -> Result<Vec<f32>> {
    let body_buf = device.malloc(body.len() as u64, "sz.body")?;
    held.push(body_buf);
    device.h2d_buf(body_buf)?;
    let out_bytes = (plan.n_values as u64)
        .checked_mul(4)
        .ok_or_else(|| Error::corrupt("sz output byte size overflows"))?;
    let out_buf = device.malloc(out_bytes, "sz.out")?;
    held.push(out_buf);

    let ext = inf.dims.extents();
    let mut out = vec![0.0f32; plan.n_values];
    let ptr = SendPtr(out.as_mut_ptr());
    let out_len = out.len();
    let nblocks = plan.blocks.len();
    let vpb = (plan.n_values as u64).div_ceil(nblocks.max(1) as u64);
    let bits = if plan.n_values == 0 {
        0.0
    } else {
        body.len() as f64 * 8.0 / plan.n_values as f64
    };
    let grid = BlockGrid { blocks: nblocks, values_per_block: vpb, bits_per_value: bits };
    let (results, _) = launch_grid_traced(
        device,
        KernelKind::SzDecompress,
        grid,
        "sz.huffman_decode",
        |bi, acc| {
            let (cs, ce) = plan.code_range(bi);
            acc.read(body_buf, cs as u64, ce as u64);
            let (os, oe) = plan.outlier_range(bi);
            acc.read(body_buf, os as u64, oe as u64);
            record_rows(acc, out_buf, &plan.blocks[bi], ext, true);
            let p = ptr;
            // SAFETY: blocks partition the array without overlap (see
            // `stream::SendPtr`); the racecheck verifies that claim over
            // the ranges recorded just above.
            #[allow(unsafe_code)]
            let slice = unsafe { std::slice::from_raw_parts_mut(p.0, out_len) };
            // A group of one: the same table and loop as the host path.
            stream::decode_group_into(inf, plan, body, bi..bi + 1, slice)
        },
    )?;
    results.into_iter().collect::<Result<()>>()?;
    device.d2h_buf(out_buf, "sz.out")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErrorBound;
    use gpu_sim::{GpuSpec, SanitizerConfig};

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 50.0 + (i as f32 * 0.0007).cos() * 500.0)
            .collect()
    }

    fn traced_device() -> Device {
        Device::new(GpuSpec::tesla_v100()).with_sanitizer(SanitizerConfig::full())
    }

    #[test]
    fn traced_stream_is_byte_identical_for_every_mode() {
        let data = field(24 * 24 * 24);
        let dims = Dims::D3(24, 24, 24);
        for mode in [ErrorBound::Abs(0.05), ErrorBound::Rel(1e-3), ErrorBound::PwRel(1e-2)] {
            let cfg = SzConfig { mode, ..SzConfig::abs(1.0) };
            let plain = crate::compress(&data, dims, &cfg).unwrap();
            let mut dev = traced_device();
            let (traced, rep) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            assert_eq!(plain, traced, "{mode:?}");
            assert_eq!(rep.compressed_bytes as usize, traced.len());
            assert!(rep.breakdown.kernel > 0.0 && rep.breakdown.memcpy > 0.0);

            let (plain_rec, plain_dims) = crate::decompress(&plain).unwrap();
            let (rec, rdims, _) = decompress_on(&mut dev, &traced).unwrap();
            assert_eq!(plain_dims, rdims);
            assert_eq!(plain_rec, rec, "{mode:?}");

            let report = dev.sanitizer_report().unwrap();
            assert!(report.is_clean(), "sanitizer findings: {:?}", report.diagnostics);
            assert_eq!(dev.allocated_bytes(), 0);
        }
    }

    #[test]
    fn traced_run_reports_zero_findings_in_1d_and_2d() {
        for (dims, n) in [(Dims::D1(5000), 5000), (Dims::D2(96, 70), 96 * 70)] {
            let data = field(n);
            let cfg = SzConfig::abs(0.1);
            let mut dev = traced_device();
            let (stream, _) = compress_on(&mut dev, &data, dims, &cfg).unwrap();
            let (rec, rdims, _) = decompress_on(&mut dev, &stream).unwrap();
            assert_eq!(rdims, dims);
            assert_eq!(rec, crate::decompress(&stream).unwrap().0);
            let report = dev.sanitizer_report().unwrap();
            assert!(report.is_clean(), "{:?}", report.diagnostics);
        }
    }

    #[test]
    fn dualquant_blocks_are_race_free_under_tracing() {
        // Route the block kernel alone through a traced launch: each block
        // codes its lattice and decodes into its own cells of a shared
        // output buffer, on whichever worker thread's scratch it lands.
        let data = field(4096);
        let dims = Dims::D1(4096);
        let ext = dims.extents();
        let blocks = block::partition(dims, 8);
        let (eb, radius) = (0.05, 1 << 15);
        let mut dev = traced_device();
        let out_buf = dev.malloc((data.len() * 4) as u64, "szdq.out").unwrap();
        let mut out = vec![0.0f32; data.len()];
        let ptr = SendPtr(out.as_mut_ptr());
        let out_len = out.len();
        let grid = BlockGrid {
            blocks: blocks.len(),
            values_per_block: (data.len() / blocks.len().max(1)) as u64,
            bits_per_value: 32.0,
        };
        launch_grid_traced(&mut dev, KernelKind::SzDecompress, grid, "szdq", |bi, acc| {
            let b = &blocks[bi];
            let o = block::compress_block(&data, ext, b, eb, radius, crate::PredictorKind::Lorenzo);
            record_rows(acc, out_buf, b, ext, true);
            let p = ptr;
            // SAFETY: disjoint blocks, validated by the racecheck.
            #[allow(unsafe_code)]
            let slice = unsafe { std::slice::from_raw_parts_mut(p.0, out_len) };
            block::decompress_block(&o.codes, &o.outliers, o.tag, o.coeffs, ext, b, eb, radius, slice);
        })
        .unwrap();
        dev.free(out_buf).unwrap();
        let report = dev.sanitizer_report().unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        for (a, b) in data.iter().zip(&out) {
            assert!((*a as f64 - *b as f64).abs() <= eb);
        }
    }

    #[test]
    fn error_paths_release_all_device_buffers() {
        // Persistent kernel faults abort both pipelines mid-flight, after
        // their buffers exist; the unwind must release every one.
        use gpu_sim::{FaultPlan, FaultRates};
        let data = field(1000);
        let cfg = SzConfig::abs(0.1);
        let mut ok_dev = traced_device();
        let (stream, _) = compress_on(&mut ok_dev, &data, Dims::D1(1000), &cfg).unwrap();

        let rates = FaultRates { kernel: 1.0, ..Default::default() };
        let mut dev = Device::new(GpuSpec::tesla_v100())
            .with_sanitizer(SanitizerConfig::full())
            .with_fault_plan(FaultPlan::new(5, rates).with_max_retries(1));
        assert!(compress_on(&mut dev, &data, Dims::D1(1000), &cfg).is_err());
        assert_eq!(dev.allocated_bytes(), 0, "leak: {:?}", dev.leak_report());
        assert!(decompress_on(&mut dev, &stream).is_err());
        assert_eq!(dev.allocated_bytes(), 0, "leak: {:?}", dev.leak_report());
    }
}
