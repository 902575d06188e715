//! High-level GPU compression pipelines (paper §III Metric 4 scenario).
//!
//! The paper's measurement scenario: simulation data already lives in GPU
//! memory; compression runs on-device and only the *compressed* stream
//! crosses PCIe to the host. Decompression mirrors this: the compressed
//! stream is uploaded and the reconstructed data stays on the GPU for the
//! next analysis task. These helpers run that exact sequence against a
//! [`Device`] and report the Fig. 7 breakdown plus the Fig. 10 kernel and
//! overall throughputs.

use crate::cost::KernelKind;
use crate::device::{Breakdown, Device};
use foresight_util::Result;

/// Outcome of one simulated (de)compression operation.
#[derive(Debug, Clone, Copy)]
pub struct GpuRunReport {
    /// Per-phase simulated seconds.
    pub breakdown: Breakdown,
    /// Kernel-only throughput over uncompressed bytes, GB/s.
    pub kernel_throughput_gbs: f64,
    /// End-to-end throughput including transfers, GB/s.
    pub overall_throughput_gbs: f64,
    /// Compressed stream size in bytes.
    pub compressed_bytes: u64,
    /// Uncompressed data size in bytes.
    pub uncompressed_bytes: u64,
}

impl GpuRunReport {
    /// Builds a report from a finished device clock: the one report
    /// arithmetic behind [`run_compression`], [`run_decompression`] and
    /// the codecs' traced pipelines.
    pub fn from_breakdown(breakdown: Breakdown, uncompressed_bytes: u64, compressed_bytes: u64) -> Self {
        Self {
            breakdown,
            kernel_throughput_gbs: gbs(uncompressed_bytes, breakdown.kernel),
            overall_throughput_gbs: gbs(uncompressed_bytes, breakdown.total()),
            compressed_bytes,
            uncompressed_bytes,
        }
    }

    /// Achieved compression ratio.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            f64::INFINITY
        } else {
            self.uncompressed_bytes as f64 / self.compressed_bytes as f64
        }
    }
}

/// Simulates on-device compression followed by a compressed-only download.
///
/// `work` performs the real compression and returns `(result, compressed
/// bytes)`; `bits_per_value` feeds the kernel cost model (use the target
/// rate for ZFP, the achieved rate for SZ).
pub fn run_compression<R>(
    device: &mut Device,
    kind: KernelKind,
    n_values: u64,
    bits_per_value: f64,
    label: &str,
    work: impl FnOnce() -> (R, u64),
) -> Result<(R, GpuRunReport)> {
    device.reset_clock();
    let out_cap = (n_values as f64 * bits_per_value / 8.0).ceil() as u64 + 4096;
    let (result, compressed_bytes) = device.with_buffers(|device, held| {
        held.push(device.malloc(out_cap, label)?);
        let out = device.launch(kind, n_values, bits_per_value, label, work)?;
        device.d2h(out.1)?;
        Ok(out)
    })?;
    Ok((result, GpuRunReport::from_breakdown(device.breakdown(), n_values * 4, compressed_bytes)))
}

/// Simulates upload of a compressed stream and on-device decompression.
pub fn run_decompression<R>(
    device: &mut Device,
    kind: KernelKind,
    n_values: u64,
    compressed_bytes: u64,
    label: &str,
    work: impl FnOnce() -> R,
) -> Result<(R, GpuRunReport)> {
    device.reset_clock();
    let bits_per_value =
        if n_values == 0 { 0.0 } else { compressed_bytes as f64 * 8.0 / n_values as f64 };
    let result = device.with_buffers(|device, held| {
        held.push(device.malloc(n_values * 4, label)?);
        device.h2d(compressed_bytes)?;
        device.launch(kind, n_values, bits_per_value, label, work)
    })?;
    Ok((result, GpuRunReport::from_breakdown(device.breakdown(), n_values * 4, compressed_bytes)))
}

/// The paper's no-compression baseline: moving raw data over PCIe.
pub fn baseline_transfer_seconds(device: &Device, n_values: u64) -> f64 {
    device.link.transfer_time(n_values * 4)
}

fn gbs(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        f64::INFINITY
    } else {
        bytes as f64 / 1e9 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::GpuSpec;

    #[test]
    fn compression_pipeline_produces_sane_report() {
        let mut d = Device::new(GpuSpec::tesla_v100());
        let n = 16 * 1024 * 1024u64;
        let rate = 4.0;
        let ((), rep) = run_compression(&mut d, KernelKind::ZfpCompress, n, rate, "zfp", || {
            ((), n * 4 / 8)
        })
        .unwrap();
        assert!((rep.ratio() - 8.0).abs() < 1e-9);
        assert!(rep.kernel_throughput_gbs > rep.overall_throughput_gbs);
        assert!(rep.breakdown.memcpy > 0.0);
        // Compression beats shipping raw data over PCIe.
        let raw = baseline_transfer_seconds(&d, n);
        assert!(rep.breakdown.total() < raw, "{} vs {raw}", rep.breakdown.total());
    }

    #[test]
    fn higher_rate_costs_more_time_overall() {
        let mut d = Device::new(GpuSpec::tesla_v100());
        let n = 8 * 1024 * 1024u64;
        let mut last = 0.0;
        for rate in [1.0, 2.0, 4.0, 8.0, 16.0] {
            let ((), rep) = run_compression(&mut d, KernelKind::ZfpCompress, n, rate, "c", || {
                ((), (n as f64 * rate / 8.0) as u64)
            })
            .unwrap();
            assert!(rep.breakdown.total() > last, "rate {rate}");
            last = rep.breakdown.total();
        }
    }

    #[test]
    fn decompression_pipeline_uploads_compressed() {
        let mut d = Device::new(GpuSpec::tesla_v100());
        let n = 1024 * 1024u64;
        let comp = n / 2;
        let (val, rep) =
            run_decompression(&mut d, KernelKind::ZfpDecompress, n, comp, "d", || 7u32).unwrap();
        assert_eq!(val, 7);
        assert_eq!(rep.compressed_bytes, comp);
        assert!(rep.breakdown.memcpy > 0.0 && rep.breakdown.kernel > 0.0);
    }

    #[test]
    fn faulted_runs_do_not_leak_device_memory() {
        use crate::fault::{FaultPlan, FaultRates};
        let rates = FaultRates { kernel: 1.0, ..Default::default() };
        let mut d = Device::new(GpuSpec::tesla_v100())
            .with_fault_plan(FaultPlan::new(3, rates).with_max_retries(1));
        let r = run_compression(&mut d, KernelKind::SzCompress, 1 << 16, 4.0, "c", || ((), 1024));
        assert!(r.is_err());
        assert_eq!(d.allocated_bytes(), 0, "error path must release the output buffer");
        let r = run_decompression(&mut d, KernelKind::SzDecompress, 1 << 16, 1024, "d", || ());
        assert!(r.is_err());
        assert_eq!(d.allocated_bytes(), 0);
        assert!(d.leak_report().is_empty());
    }

    #[test]
    fn oom_propagates() {
        let mut d = Device::new(GpuSpec::tesla_k80()); // 12 GB
        let n = 10_000_000_000u64; // 40 GB of f32 output would be needed
        let r = run_decompression(&mut d, KernelKind::ZfpDecompress, n, 1, "d", || ());
        assert!(r.is_err());
    }
}
