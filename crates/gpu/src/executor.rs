//! SM-style block executor: really runs per-block work, charges
//! wave-quantized simulated time.
//!
//! CUDA kernels execute as a grid of thread blocks scheduled onto
//! streaming multiprocessors in waves. This executor reproduces that
//! structure: the caller supplies one closure per block index, the blocks
//! run (for real, via rayon, producing real outputs) and the simulated
//! clock is charged `ceil(blocks / concurrent_blocks) * wave_time`, where
//! the per-wave time comes from the device's cost model. It is how a
//! custom "kernel" (e.g. a new compressor stage) can be timed without
//! being one of the four built-in [`KernelKind`]s.

use crate::cost::KernelKind;
use crate::device::{BufferId, Device};
use crate::sanitizer::AccessRecord;
use foresight_util::Result;
use rayon::prelude::*;

/// Launch geometry and cost inputs for a block grid.
#[derive(Debug, Clone, Copy)]
pub struct BlockGrid {
    /// Number of blocks in the grid.
    pub blocks: usize,
    /// f32 values processed per block (drives the memory-traffic model).
    pub values_per_block: u64,
    /// Compressed bits per value this kernel produces/consumes.
    pub bits_per_value: f64,
    /// Blocks one work item runs side by side, as the threads of a warp:
    /// the work closure gets an item index, and the grid's
    /// `blocks.div_ceil(per_item)` items cover every block. Timing and
    /// waves count blocks, whatever this is; 1 runs each block alone.
    pub per_item: usize,
}

/// Per-launch execution report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchReport {
    /// Scheduling waves (`ceil(blocks / concurrent)`).
    pub waves: usize,
    /// Blocks resident per wave on this device.
    pub concurrent_blocks: usize,
    /// Simulated kernel seconds charged.
    pub simulated_seconds: f64,
}

/// Blocks resident at once: two per shader pair, matching the cost model.
fn concurrency(device: &Device) -> usize {
    ((device.spec.shaders as usize) / 2).max(1)
}

/// Per-block access recorder handed to traced kernels.
///
/// A kernel closure calls [`BlockAccess::read`] / [`BlockAccess::write`]
/// for every tracked-buffer range it touches; the sanitizer then bounds-
/// checks each range and intersects them across blocks for the racecheck.
/// When the device has no sanitizer attached the recorder is inert: every
/// call is a single branch and nothing allocates, so traced kernels cost
/// nothing extra on untracked devices.
#[derive(Debug)]
pub struct BlockAccess {
    enabled: bool,
    records: Vec<AccessRecord>,
}

impl BlockAccess {
    fn new(enabled: bool) -> Self {
        Self { enabled, records: Vec::new() }
    }

    fn record(&mut self, buf: BufferId, start_bit: u64, end_bit: u64, write: bool) {
        if self.enabled && start_bit < end_bit {
            self.records.push(AccessRecord { buf, start_bit, end_bit, write });
        }
    }

    /// Records a read of bytes `[start, end)` of `buf`.
    pub fn read(&mut self, buf: BufferId, start: u64, end: u64) {
        self.record(buf, start * 8, end * 8, false);
    }

    /// Records a write of bytes `[start, end)` of `buf`.
    pub fn write(&mut self, buf: BufferId, start: u64, end: u64) {
        self.record(buf, start * 8, end * 8, true);
    }

    /// Records one access per `(first element, length)` row of an `f32`
    /// array buffer — a tile's rows, as `foresight_util::tiles` yields them.
    pub fn f32_rows(&mut self, buf: BufferId, rows: impl Iterator<Item = (usize, usize)>, w: bool) {
        rows.for_each(|(at, n)| self.record(buf, at as u64 * 32, (at + n) as u64 * 32, w));
    }

    /// Records a read of bits `[start, end)` — for bit-packed payloads
    /// whose blocks legitimately share boundary bytes.
    pub fn read_bits(&mut self, buf: BufferId, start: u64, end: u64) {
        self.record(buf, start, end, false);
    }

    /// Records a write of bits `[start, end)`.
    pub fn write_bits(&mut self, buf: BufferId, start: u64, end: u64) {
        self.record(buf, start, end, true);
    }
}

/// Executes `work(item) -> R` for every work item of the grid: block
/// `item` when [`BlockGrid::per_item`] is 1, else the item's group of
/// blocks.
///
/// Work really runs (in parallel); the device clock advances by the
/// modeled kernel time of the whole grid, wave-quantized. Outputs come
/// back in item order. In chaos mode the launch can abort like any
/// other kernel; each wasted attempt is charged to the fault lane and
/// the grid work itself runs exactly once, on the surviving attempt.
pub fn launch_grid<R: Send>(
    device: &mut Device,
    kind: KernelKind,
    grid: BlockGrid,
    label: &str,
    work: impl Fn(usize) -> R + Sync,
) -> Result<(Vec<R>, LaunchReport)> {
    launch_grid_traced(device, kind, grid, label, |b, _| work(b))
}

/// [`launch_grid`] with sanitizer tracing: the kernel closure additionally
/// receives a [`BlockAccess`] recorder for the buffer ranges it touches.
///
/// Timing, fault behaviour, and outputs are identical to [`launch_grid`];
/// only the (zero-simulated-cost) access analysis is added, and only when
/// the device carries a sanitizer. Races are detected *within* one launch —
/// blocks of one grid are concurrent, while separate launches are ordered
/// by the stream, matching `compute-sanitizer`'s model.
pub fn launch_grid_traced<R: Send>(
    device: &mut Device,
    kind: KernelKind,
    grid: BlockGrid,
    label: &str,
    work: impl Fn(usize, &mut BlockAccess) -> R + Sync,
) -> Result<(Vec<R>, LaunchReport)> {
    let tracing = device.sanitizer_active();
    let concurrent = concurrency(device);
    let waves = grid.blocks.div_ceil(concurrent).max(1);
    let total_values = grid.values_per_block * grid.blocks as u64;
    let traced: Vec<(R, Vec<AccessRecord>)> =
        device.launch(kind, total_values, grid.bits_per_value, label, || {
            (0..grid.blocks.div_ceil(grid.per_item.max(1)))
                .into_par_iter()
                .map(|b| {
                    let mut access = BlockAccess::new(tracing);
                    let r = work(b, &mut access);
                    (r, access.records)
                })
                .collect()
        })?;
    let report = LaunchReport {
        waves,
        concurrent_blocks: concurrent,
        simulated_seconds: device
            .timeline()
            .last()
            .map(|e| e.seconds)
            .unwrap_or_default(),
    };
    let (results, records): (Vec<R>, Vec<Vec<AccessRecord>>) = traced.into_iter().unzip();
    if tracing {
        device.sanitizer_analyze(label, &records);
    }
    Ok((results, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::GpuSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_block_runs_exactly_once_in_order() {
        let mut dev = Device::new(GpuSpec::tesla_v100());
        let counter = AtomicUsize::new(0);
        let grid = BlockGrid { blocks: 500, values_per_block: 64, bits_per_value: 4.0, per_item: 1 };
        let (out, report) = launch_grid(&mut dev, KernelKind::ZfpCompress, grid, "t", |b| {
            counter.fetch_add(1, Ordering::Relaxed);
            b * 2
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2, "results must be in block order");
        }
        assert!(report.simulated_seconds > 0.0);
        assert_eq!(report.waves, 1, "500 blocks fit one V100 wave");
    }

    #[test]
    fn wave_count_scales_with_grid() {
        let mut dev = Device::new(GpuSpec::tesla_k80());
        let concurrent = concurrency(&dev);
        let grid = BlockGrid {
            blocks: concurrent * 3 + 1,
            values_per_block: 64,
            bits_per_value: 4.0,
            per_item: 1,
        };
        let (_, report) = launch_grid(&mut dev, KernelKind::ZfpCompress, grid, "t", |_| ()).unwrap();
        assert_eq!(report.waves, 4);
    }

    #[test]
    fn traced_launch_matches_plain_launch_without_sanitizer() {
        // With no sanitizer attached, the traced path must be byte- and
        // clock-identical to the plain one and record nothing.
        let grid = BlockGrid { blocks: 64, values_per_block: 256, bits_per_value: 4.0, per_item: 1 };
        let mut plain = Device::new(GpuSpec::tesla_v100());
        let (a, ra) =
            launch_grid(&mut plain, KernelKind::SzCompress, grid, "k", |b| b as u64 * 3).unwrap();
        let mut traced = Device::new(GpuSpec::tesla_v100());
        let (b, rb) = launch_grid_traced(&mut traced, KernelKind::SzCompress, grid, "k", |i, acc| {
            acc.write(BufferId::raw(0), i as u64 * 8, (i as u64 + 1) * 8);
            i as u64 * 3
        })
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        assert_eq!(plain.elapsed(), traced.elapsed());
        assert!(traced.sanitizer_report().is_none());
    }

    #[test]
    fn traced_launch_feeds_the_sanitizer() {
        use crate::sanitizer::SanitizerConfig;
        let mut dev = Device::new(GpuSpec::tesla_v100()).with_sanitizer(SanitizerConfig::full());
        let buf = dev.malloc(64, "out").unwrap();
        let grid = BlockGrid { blocks: 2, values_per_block: 8, bits_per_value: 32.0, per_item: 1 };
        // Both blocks write the same first 8 bytes: a seeded WW race.
        launch_grid_traced(&mut dev, KernelKind::SzCompress, grid, "racy", |_, acc| {
            acc.write(buf, 0, 8);
        })
        .unwrap();
        let report = dev.sanitizer_report().unwrap();
        assert!(report.diagnostics.iter().any(|d| d.kind() == "race_ww"));
        dev.free(buf).unwrap();
    }
}
