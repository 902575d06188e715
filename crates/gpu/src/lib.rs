//! Software GPU device model.
//!
//! The paper measures cuZFP/GPU-SZ on seven CUDA GPUs (Table I). No GPU is
//! available to this reproduction, so `gpu-sim` substitutes a device model
//! that executes the *real* codec work on the host while charging a
//! simulated clock from an analytic hardware model:
//!
//! - [`specs`] — Table I verbatim, plus the paper's Xeon baseline;
//! - [`cost`] — the kernel timing model (bandwidth-bound, rate-dependent);
//! - [`device`] — memory accounting, PCIe transfers, phase timeline;
//! - [`pipeline`] — the paper's in-situ compress/decompress sequences,
//!   reporting Fig. 7 breakdowns and Fig. 9/10 throughputs;
//! - [`sanitizer`] — opt-in memcheck/racecheck for the device model, a
//!   `compute-sanitizer` analogue (shadow heap, leak report, cross-block
//!   conflict detection on traced launches).
//!
//! DESIGN.md documents why this substitution preserves the paper's
//! conclusions: the results are first-order functions of data volumes and
//! per-GPU bandwidth, both of which the model carries exactly.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{run_compression, Device, GpuSpec, KernelKind};
//!
//! let mut dev = Device::new(GpuSpec::tesla_v100());
//! let n = 1 << 20; // one million f32 values already on the device
//! let ((), report) = run_compression(
//!     &mut dev, KernelKind::ZfpCompress, n, 4.0, "demo",
//!     || ((), n / 2), // the real codec would run here
//! ).unwrap();
//! assert!(report.kernel_throughput_gbs > report.overall_throughput_gbs);
//! assert!((report.ratio() - 8.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod executor;
pub mod fault;
pub mod pipeline;
pub mod queue;
pub mod sanitizer;
pub mod specs;

pub use cost::{kernel_throughput_gbs, kernel_time, FixedCosts, KernelKind};
pub use executor::{launch_grid, launch_grid_traced, BlockAccess, BlockGrid, LaunchReport};
pub use fault::{
    FaultCounts, FaultKind, FaultPlan, FaultRates, NodeChaosPlan, NodeFaultEvent, NodeFaultKind,
    NodeHealth,
};
pub use device::{Breakdown, BufferId, Device, Event, PcieLink, Phase, PhaseTotals};
pub use pipeline::{baseline_transfer_seconds, run_compression, run_decompression, GpuRunReport};
pub use queue::{GpuQueueSim, QueueSlice, UnitTiming};
pub use sanitizer::{AccessRecord, Diagnostic, RaceKind, SanitizerConfig, SanitizerReport};
pub use specs::{table1, Arch, CpuSpec, GpuSpec};
