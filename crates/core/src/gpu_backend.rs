//! GPU execution backend: runs the real codecs through the simulated
//! device to obtain the paper's GPU timing results.
//!
//! The compression work is genuine (the actual `lossy-sz`/`lossy-zfp`
//! codecs produce real streams and real reconstructions); only the clock
//! is simulated, per the substitution documented in DESIGN.md. The host
//! work goes through the one codec seam ([`crate::codec`]); this module
//! adds the device side of it: which kernels a codec launches, and the
//! codecs' traced launch-grid paths when a sanitizer is attached.

use crate::codec::{compress, CodecConfig, CodecKind, Shape};
use foresight_util::{Error, Result};
use gpu_sim::{run_compression, run_decompression, Device, GpuRunReport, KernelKind};

/// The simulated kernels a codec launches: `(compress, decompress)`.
pub(crate) fn kernels(kind: CodecKind) -> (KernelKind, KernelKind) {
    match kind {
        CodecKind::Sz => (KernelKind::SzCompress, KernelKind::SzDecompress),
        CodecKind::Zfp => (KernelKind::ZfpCompress, KernelKind::ZfpDecompress),
    }
}

/// Compresses on the simulated GPU; returns the stream and timing report.
///
/// The compressed stream crosses the simulated link for real: in chaos
/// mode the download may silently flip a bit (ECC escape), which only the
/// stream's own CRC can catch — at decompression time.
pub fn gpu_compress(
    device: &mut Device,
    cfg: &CodecConfig,
    data: &[f32],
    shape: Shape,
) -> Result<(Vec<u8>, GpuRunReport)> {
    // With a sanitizer attached, route through the codecs' traced
    // launch-grid paths so every per-block access is recorded for
    // memcheck/racecheck. The emitted stream is byte-identical to the
    // plain path (both assemble from the same per-block outputs).
    if device.sanitizer_active() {
        let (mut stream, report) = match cfg {
            CodecConfig::Sz(c) => lossy_sz::gpu_exec::compress_on(device, data, shape, c)?,
            CodecConfig::Zfp(z) => lossy_zfp::gpu_exec::compress_on(device, data, shape, z)?,
        };
        device.inject_ecc(&mut stream);
        return Ok((stream, report));
    }
    let (ck, _) = kernels(cfg.id());
    let label = cfg.id().display();
    let n = data.len() as u64;
    // For error-bounded codecs the achieved rate is only known after the
    // fact; run the codec first, then charge the model with actual bits.
    let (mut stream, report) = match cfg.fixed_rate() {
        Some(bits) => {
            let (stream, report) = run_compression(device, ck, n, bits, label, || {
                let s = compress(data, shape, cfg);
                let len = s.as_ref().map(|v| v.len() as u64).unwrap_or(0);
                (s, len)
            })?;
            (stream?, report)
        }
        None => {
            let stream = compress(data, shape, cfg)?;
            let bits = stream.len() as f64 * 8.0 / n.max(1) as f64;
            let slen = stream.len() as u64;
            run_compression(device, ck, n, bits, label, move || (stream, slen))?
        }
    };
    device.inject_ecc(&mut stream);
    Ok((stream, report))
}

/// Decompresses a stream of codec `id` on the simulated GPU; returns
/// data and timing report. Both device paths decode with `id`'s codec and
/// refuse a reconstruction that is not `n_values` long.
///
/// The upload leg may silently corrupt the stream in chaos mode; the
/// codec's CRC check then surfaces it as [`Error::Corrupt`], which
/// resilient callers treat like a transient device fault.
pub fn gpu_decompress(
    device: &mut Device,
    id: CodecKind,
    stream: &[u8],
    n_values: u64,
) -> Result<(Vec<f32>, GpuRunReport)> {
    let mut uploaded = stream.to_vec();
    device.inject_ecc(&mut uploaded);
    let (data, report) = if device.sanitizer_active() {
        let (data, _, report) = match id {
            CodecKind::Sz => lossy_sz::gpu_exec::decompress_on(device, &uploaded)?,
            CodecKind::Zfp => lossy_zfp::gpu_exec::decompress_on(device, &uploaded)?,
        };
        (data, report)
    } else {
        let (_, dk) = kernels(id);
        let bytes = uploaded.len() as u64;
        let (out, report) = run_decompression(device, dk, n_values, bytes, id.display(), || {
            id.decompress(&uploaded)
        })?;
        (out?.0, report)
    };
    if data.len() as u64 != n_values {
        return Err(Error::corrupt("reconstructed length mismatch"));
    }
    Ok((data, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuSpec;
    use lossy_zfp::ZfpConfig;

    fn field() -> Vec<f32> {
        (0..32 * 32 * 32).map(|i| (i as f32 * 0.003).sin() * 10.0).collect()
    }

    #[test]
    fn zfp_gpu_roundtrip_with_timing() {
        let mut dev = Device::new(GpuSpec::tesla_v100());
        let data = field();
        let cfg = CodecConfig::Zfp(ZfpConfig::rate(4.0));
        let (stream, crep) =
            gpu_compress(&mut dev, &cfg, &data, Shape::D3(32, 32, 32)).unwrap();
        assert!(crep.breakdown.kernel > 0.0 && crep.breakdown.memcpy > 0.0);
        assert!((crep.ratio() - 8.0).abs() < 0.5);
        let (rec, drep) =
            gpu_decompress(&mut dev, CodecKind::Zfp, &stream, data.len() as u64).unwrap();
        assert_eq!(rec.len(), data.len());
        assert!(drep.breakdown.kernel > 0.0);
        // Kernel throughput beats overall (transfers dominate on PCIe).
        assert!(crep.kernel_throughput_gbs > crep.overall_throughput_gbs);
    }

    #[test]
    fn sz_gpu_uses_achieved_bitrate() {
        let mut dev = Device::new(GpuSpec::tesla_v100());
        let data = field();
        let cfg = CodecConfig::Sz(lossy_sz::SzConfig::abs(0.01));
        let (stream, rep) = gpu_compress(&mut dev, &cfg, &data, Shape::D3(32, 32, 32)).unwrap();
        let achieved = stream.len() as f64 * 8.0 / data.len() as f64;
        assert!(achieved > 0.0 && achieved < 32.0);
        assert!(rep.compressed_bytes as usize == stream.len());
    }

    #[test]
    fn sz_kernel_model_is_slower_than_zfp() {
        // The paper's motivation for excluding GPU-SZ throughput.
        let data = field();
        let mut d1 = Device::new(GpuSpec::tesla_v100());
        let (_, zfp) = gpu_compress(
            &mut d1,
            &CodecConfig::Zfp(ZfpConfig::rate(4.0)),
            &data,
            Shape::D3(32, 32, 32),
        )
        .unwrap();
        let mut d2 = Device::new(GpuSpec::tesla_v100());
        let (_, sz) = gpu_compress(
            &mut d2,
            &CodecConfig::Sz(lossy_sz::SzConfig::abs(0.01)),
            &data,
            Shape::D3(32, 32, 32),
        )
        .unwrap();
        assert!(zfp.kernel_throughput_gbs > sz.kernel_throughput_gbs * 3.0);
    }

    /// The plain and sanitized paths decode with the named codec and
    /// check the length alike: a stream of the other codec, or a wrong
    /// value count, is `Corrupt` on both.
    #[test]
    fn both_device_paths_refuse_a_wrong_codec_or_length() {
        let data = field();
        let n = data.len() as u64;
        let cfg = CodecConfig::Zfp(ZfpConfig::rate(8.0));
        let stream = compress(&data, Shape::D3(32, 32, 32), &cfg).unwrap();
        for sanitized in [false, true] {
            let mut dev = Device::new(GpuSpec::tesla_v100());
            if sanitized {
                dev = dev.with_sanitizer(gpu_sim::SanitizerConfig::full());
            }
            for (id, want) in [(CodecKind::Sz, n), (CodecKind::Zfp, n + 1)] {
                let err = gpu_decompress(&mut dev, id, &stream, want).unwrap_err();
                assert!(matches!(err, Error::Corrupt(_)), "sanitized {sanitized}: {err}");
            }
            let (decoded, _) = gpu_decompress(&mut dev, CodecKind::Zfp, &stream, n).unwrap();
            assert_eq!(decoded.len(), data.len());
        }
    }
}
