//! Simulated GPU device: memory accounting, PCIe transfers, kernel
//! launches, and a phase timeline.
//!
//! The device executes *real work* (kernel closures run on the host, e.g.
//! the actual ZFP/SZ codecs) while a simulated clock charges each phase
//! according to the hardware model: PCIe time per memcpy, the analytic
//! kernel cost, and fixed malloc/free latencies. The timeline reproduces
//! the paper's Fig. 7 breakdowns.
//!
//! # Fault injection
//!
//! Attaching a [`FaultPlan`] puts the device in chaos mode: transfers,
//! kernel launches, and allocations may transiently fail. Each failed
//! attempt charges its full modeled time to the [`Phase::Fault`] lane of
//! the timeline (the wasted work plus replay is what recovery costs on a
//! real machine), then the operation retries up to the plan's
//! `max_retries`. An operation that exhausts its budget returns
//! [`Error::DeviceFault`]. Without a plan — or with all rates zero — the
//! device is bit- and clock-identical to the fault-free model.

use crate::cost::{kernel_time, FixedCosts, KernelKind};
use crate::fault::{FaultCounts, FaultKind, FaultPlan};
use crate::sanitizer::{AccessRecord, Sanitizer, SanitizerConfig, SanitizerReport};
use crate::specs::GpuSpec;
use foresight_util::{telemetry, Error, Result};

/// PCIe link model; all the paper's GPUs sit on 16-lane PCIe 3.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieLink {
    /// Effective sustained bandwidth in GB/s (theoretical 16, ~12 real).
    pub bandwidth_gbs: f64,
    /// Per-transfer latency in seconds.
    pub latency_s: f64,
}

impl Default for PcieLink {
    fn default() -> Self {
        Self::gen3_x16()
    }
}

impl PcieLink {
    /// 16-lane PCIe 3.0 (the paper's interconnect).
    pub fn gen3_x16() -> Self {
        Self { bandwidth_gbs: 12.0, latency_s: 1e-5 }
    }

    /// NVLink 2.0-ish (the faster interconnect the paper's outlook cites).
    pub fn nvlink2() -> Self {
        Self { bandwidth_gbs: 70.0, latency_s: 5e-6 }
    }

    /// Transfer time for `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// Phase labels for the timeline (paper Fig. 7 legend, plus recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Parameter upload + device allocation.
    Init,
    /// Kernel execution.
    Kernel,
    /// Host-to-device or device-to-host copy.
    Memcpy,
    /// Device deallocation.
    Free,
    /// Time lost to injected faults: wasted attempts being replayed.
    Fault,
}

impl Phase {
    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Kernel => "kernel",
            Phase::Memcpy => "memcpy",
            Phase::Free => "free",
            Phase::Fault => "fault",
        }
    }
}

/// One timeline entry.
#[derive(Debug, Clone)]
pub struct Event {
    /// Phase category.
    pub phase: Phase,
    /// Human-readable label ("h2d", "zfp_compress", ...).
    pub label: String,
    /// Simulated duration in seconds.
    pub seconds: f64,
}

/// Handle to a simulated device allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferId(usize);

impl BufferId {
    /// Rebuilds a handle from its slot index (sanitizer internals/tests).
    pub(crate) fn raw(idx: usize) -> Self {
        Self(idx)
    }

    /// Slot index into the device's buffer table.
    pub(crate) fn index(&self) -> usize {
        self.0
    }
}

/// A live allocation slot: size plus the label given at `malloc` time.
#[derive(Debug, Clone)]
struct Buf {
    bytes: u64,
    label: String,
}

/// A simulated GPU.
#[derive(Debug)]
pub struct Device {
    /// Hardware spec driving the timing model.
    pub spec: GpuSpec,
    /// Host link.
    pub link: PcieLink,
    fixed: FixedCosts,
    faults: Option<FaultPlan>,
    buffers: Vec<Option<Buf>>, // live allocations, keyed by BufferId index
    sanitizer: Option<Box<Sanitizer>>,
    allocated: u64,
    clock: f64,
    epoch: f64,
    timeline: Vec<Event>,
    totals: Breakdown,
    label: String,
}

impl Device {
    /// Creates a device with the default PCIe 3.0 x16 link.
    pub fn new(spec: GpuSpec) -> Self {
        let label = spec.name.to_string();
        Self {
            spec,
            link: PcieLink::default(),
            fixed: FixedCosts::default(),
            faults: None,
            buffers: Vec::new(),
            sanitizer: None,
            allocated: 0,
            clock: 0.0,
            epoch: 0.0,
            timeline: Vec::new(),
            totals: Breakdown::default(),
            label,
        }
    }

    /// Replaces the host link (e.g. NVLink what-if runs).
    pub fn with_link(mut self, link: PcieLink) -> Self {
        self.link = link;
        self
    }

    /// Names this device instance for telemetry: its sim slices appear
    /// under a Chrome-trace process with this name. Defaults to the spec
    /// name; give concurrent devices distinct labels so their timelines
    /// land on separate tracks.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The telemetry process name for this device.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Attaches a fault-injection plan (chaos mode).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Faults injected on this device so far (zero without a plan).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults.as_ref().map(|p| p.counts()).unwrap_or_default()
    }

    /// Attaches the sanitizer (memcheck/racecheck). With both checks off
    /// this is a no-op and the device stays entirely untracked.
    pub fn with_sanitizer(mut self, cfg: SanitizerConfig) -> Self {
        self.sanitizer = cfg.any().then(|| Box::new(Sanitizer::new(cfg)));
        self
    }

    /// True when a sanitizer is attached (traced launches record accesses).
    pub fn sanitizer_active(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// The active checker configuration (all-off when detached).
    pub fn sanitizer_config(&self) -> SanitizerConfig {
        self.sanitizer.as_ref().map(|s| s.config()).unwrap_or_default()
    }

    /// Snapshot of sanitizer findings (plus current leaks under memcheck);
    /// `None` when no sanitizer is attached.
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer.as_ref().map(|s| s.report())
    }

    /// Hands one traced launch's per-block access records to the sanitizer.
    pub(crate) fn sanitizer_analyze(&mut self, label: &str, blocks: &[Vec<AccessRecord>]) {
        if let Some(s) = &mut self.sanitizer {
            s.analyze_launch(label, blocks);
        }
    }

    /// Live allocations as `(label, bytes)` — non-empty means a leak.
    /// Available with or without the sanitizer.
    pub fn leak_report(&self) -> Vec<(String, u64)> {
        self.buffers
            .iter()
            .flatten()
            .map(|b| (b.label.clone(), b.bytes))
            .collect()
    }

    fn record(&mut self, phase: Phase, label: impl Into<String>, seconds: f64) {
        let label = label.into();
        let start = self.epoch + self.clock;
        self.clock += seconds;
        self.totals.add(phase, seconds);
        if telemetry::is_enabled() {
            // Memcpy splits into the paper's H2D/D2H lanes by label; the
            // fault lane keeps the composite "op!kind" label.
            let track = match phase {
                Phase::Memcpy if label.starts_with("d2h") => "d2h",
                Phase::Memcpy => "h2d",
                p => p.name(),
            };
            telemetry::sim_slice(&self.label, track, &label, start, seconds);
        }
        self.timeline.push(Event { phase, label, seconds });
    }

    /// Runs one fault-gated attempt loop for an operation whose each
    /// failed attempt wastes `attempt_cost` seconds. Returns the number
    /// of wasted attempts, or the fault error once the retry budget is
    /// exhausted.
    fn attempt(&mut self, kind: FaultKind, attempt_cost: f64, label: &str) -> Result<u32> {
        let Some(plan) = self.faults.as_mut() else { return Ok(0) };
        let budget = plan.max_retries;
        let mut wasted = 0u32;
        while self.faults.as_mut().expect("plan attached").trip(kind) {
            wasted += 1;
            telemetry::counter("gpu.fault.retries", 1);
            if telemetry::is_enabled() {
                telemetry::counter(&format!("gpu.fault.{}", kind.name()), 1);
            }
            self.record(Phase::Fault, format!("{label}!{}", kind.name()), attempt_cost);
            if wasted > budget {
                return Err(Error::device_fault(format!(
                    "{label}: injected {} fault persisted through {budget} retries",
                    kind.name()
                )));
            }
        }
        Ok(wasted)
    }

    /// Allocates `bytes` of device memory (charged as `Init`).
    ///
    /// Chaos mode may inject transient allocation failures; each wasted
    /// attempt costs the fixed init latency.
    pub fn malloc(&mut self, bytes: u64, label: &str) -> Result<BufferId> {
        if self.allocated + bytes > self.spec.memory_bytes() {
            return Err(Error::ResourceExhausted(format!(
                "device OOM: {} + {} exceeds {} ({})",
                self.allocated,
                bytes,
                self.spec.memory_bytes(),
                self.spec.name
            )));
        }
        self.attempt(FaultKind::Oom, self.fixed.init_s, "malloc")?;
        self.allocated += bytes;
        self.buffers.push(Some(Buf { bytes, label: label.to_string() }));
        let id = BufferId(self.buffers.len() - 1);
        if let Some(s) = &mut self.sanitizer {
            s.on_malloc(id.0, bytes, label);
        }
        self.record(Phase::Init, format!("malloc:{label}"), self.fixed.init_s);
        Ok(id)
    }

    /// Frees a buffer (charged as `Free`); double-free is an error.
    pub fn free(&mut self, id: BufferId) -> Result<()> {
        let known = id.0 < self.buffers.len();
        let Some(buf) = self.buffers.get_mut(id.0).and_then(Option::take) else {
            if let Some(s) = &mut self.sanitizer {
                s.on_invalid_free(id.0);
            }
            return Err(Error::invalid(if known { "double free" } else { "unknown buffer id" }));
        };
        self.allocated -= buf.bytes;
        if let Some(s) = &mut self.sanitizer {
            s.on_free(id.0);
        }
        self.record(Phase::Free, "free", self.fixed.free_s);
        Ok(())
    }

    /// Releases a buffer without charging any simulated time or emitting a
    /// timeline event — for error-unwind paths, where real CUDA cleanup
    /// happens outside the measured region. Already-released handles are
    /// ignored (unwind code may run after a partial teardown).
    pub fn release(&mut self, id: BufferId) {
        if let Some(buf) = self.buffers.get_mut(id.0).and_then(Option::take) {
            self.allocated -= buf.bytes;
            if let Some(s) = &mut self.sanitizer {
                s.on_free(id.0);
            }
        }
    }

    /// Runs `work`, which pushes every buffer it allocates onto `held`. On
    /// success they are freed in reverse order; on error, [`Device::release`]d
    /// (no simulated time), so a faulted run neither leaks nor moves the clock.
    pub fn with_buffers<R>(
        &mut self,
        work: impl FnOnce(&mut Self, &mut Vec<BufferId>) -> Result<R>,
    ) -> Result<R> {
        let mut held = Vec::new();
        let result = work(self, &mut held);
        if result.is_err() {
            held.into_iter().for_each(|id| self.release(id));
            return result;
        }
        held.into_iter().rev().try_for_each(|id| self.free(id))?;
        result
    }

    /// Size of a live buffer.
    fn buffer_bytes(&self, id: BufferId) -> Result<u64> {
        self.buffers
            .get(id.0)
            .and_then(|s| s.as_ref())
            .map(|b| b.bytes)
            .ok_or_else(|| Error::invalid("unknown or freed buffer id"))
    }

    fn transfer(&mut self, bytes: u64, label: &str) -> Result<()> {
        let t = self.link.transfer_time(bytes);
        self.attempt(FaultKind::Transfer, t, label)?;
        if telemetry::is_enabled() {
            let dir = if label.starts_with("d2h") { "d2h" } else { "h2d" };
            telemetry::counter(&format!("pcie.{dir}.bytes"), bytes);
            telemetry::observe("pcie.transfer.sim_seconds", t);
        }
        self.record(Phase::Memcpy, label, t);
        Ok(())
    }

    /// Charges a host-to-device copy of `bytes`; retries injected
    /// transfer faults, charging each wasted attempt.
    pub fn h2d(&mut self, bytes: u64) -> Result<()> {
        self.transfer(bytes, "h2d")
    }

    /// Charges a device-to-host copy of `bytes`.
    pub fn d2h(&mut self, bytes: u64) -> Result<()> {
        self.transfer(bytes, "d2h")
    }

    /// Host-to-device upload filling a tracked buffer: charges the same
    /// transfer as [`Self::h2d`] for the buffer's full size and marks the
    /// buffer initialized for the sanitizer's uninitialized-read check.
    pub fn h2d_buf(&mut self, id: BufferId) -> Result<()> {
        let bytes = self.buffer_bytes(id)?;
        self.h2d(bytes)?;
        if let Some(s) = &mut self.sanitizer {
            s.on_h2d(id.0, bytes);
        }
        Ok(())
    }

    /// Marks a tracked buffer as fully initialized without a transfer —
    /// for data the simulation produced on-device (the paper's scenario:
    /// fields already resident in GPU memory when compression starts).
    /// Charges no simulated time.
    pub fn mark_resident(&mut self, id: BufferId) -> Result<()> {
        let bytes = self.buffer_bytes(id)?;
        if let Some(s) = &mut self.sanitizer {
            s.on_h2d(id.0, bytes);
        }
        Ok(())
    }

    /// Device-to-host download of a tracked buffer's full contents:
    /// charges the same transfer as [`Self::d2h`] and, under memcheck,
    /// verifies every downloaded byte was initialized by an upload or a
    /// kernel write.
    pub fn d2h_buf(&mut self, id: BufferId, label: &str) -> Result<()> {
        let bytes = self.buffer_bytes(id)?;
        self.d2h(bytes)?;
        if let Some(s) = &mut self.sanitizer {
            s.on_d2h(id.0, bytes, label);
        }
        Ok(())
    }

    /// Device-to-host copy of real payload bytes.
    ///
    /// On top of [`Self::d2h`]'s retriable transfer faults, chaos mode
    /// may inject a *silent* ECC bit flip into the delivered bytes — the
    /// link reports success and only downstream integrity checks (stream
    /// CRCs) can detect the corruption.
    pub fn d2h_data(&mut self, data: &mut [u8]) -> Result<()> {
        self.d2h(data.len() as u64)?;
        self.inject_ecc(data);
        Ok(())
    }

    /// Applies the silent ECC bit-flip draw to `data` without charging
    /// any transfer time — for callers that charge the transfer leg
    /// separately (e.g. the pipeline helpers) but still move real
    /// payload bytes across the simulated link.
    pub fn inject_ecc(&mut self, data: &mut [u8]) {
        if data.is_empty() {
            return;
        }
        if let Some(plan) = self.faults.as_mut() {
            if plan.trip(FaultKind::BitFlip) {
                let bit = plan.pick(data.len() * 8);
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// Runs `work` as a kernel of the given kind, charging modeled time.
    ///
    /// The closure does the real computation (e.g. invoking the codec);
    /// its wall time is irrelevant to the simulated clock. Chaos mode may
    /// abort launch attempts: each aborted attempt wastes the full
    /// modeled kernel time (the work is lost and replayed), and `work`
    /// itself runs exactly once, on the attempt that succeeds.
    pub fn launch<R>(
        &mut self,
        kind: KernelKind,
        n_values: u64,
        bits_per_value: f64,
        label: &str,
        work: impl FnOnce() -> R,
    ) -> Result<R> {
        let t = kernel_time(&self.spec, kind, n_values, bits_per_value);
        self.attempt(FaultKind::Kernel, t, label)?;
        let r = work();
        self.record(Phase::Kernel, label, t);
        Ok(r)
    }

    /// Simulated seconds elapsed since device creation.
    pub fn elapsed(&self) -> f64 {
        self.clock
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Full event timeline.
    pub fn timeline(&self) -> &[Event] {
        &self.timeline
    }

    /// Total simulated time per phase (the paper's Fig. 7 bars) since
    /// the last [`Self::reset_clock`].
    pub fn breakdown(&self) -> Breakdown {
        let mut b = Breakdown::default();
        for e in &self.timeline {
            b.add(e.phase, e.seconds);
        }
        b
    }

    /// Cumulative per-phase totals over the device's whole lifetime —
    /// unlike [`Self::breakdown`], these survive [`Self::reset_clock`].
    /// The telemetry exporters aggregate sim slices to exactly these
    /// numbers.
    pub fn phase_totals(&self) -> PhaseTotals {
        self.totals
    }

    /// Simulated seconds since device creation, across clock resets.
    pub fn total_elapsed(&self) -> f64 {
        self.epoch + self.clock
    }

    /// Clears the timeline and clock (memory state is kept). Lifetime
    /// accounting — [`Self::phase_totals`], [`Self::total_elapsed`], and
    /// telemetry slice placement — carries on across the reset.
    pub fn reset_clock(&mut self) {
        self.epoch += self.clock;
        self.clock = 0.0;
        self.timeline.clear();
    }
}

/// Per-phase totals (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Allocation/parameter upload.
    pub init: f64,
    /// Kernel execution.
    pub kernel: f64,
    /// PCIe copies.
    pub memcpy: f64,
    /// Deallocation.
    pub free: f64,
    /// Recovery cost: wasted attempts from injected faults.
    pub fault: f64,
}

/// Lifetime per-phase totals, as returned by [`Device::phase_totals`].
pub type PhaseTotals = Breakdown;

impl Breakdown {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.init + self.kernel + self.memcpy + self.free + self.fault
    }

    fn add(&mut self, phase: Phase, seconds: f64) {
        match phase {
            Phase::Init => self.init += seconds,
            Phase::Kernel => self.kernel += seconds,
            Phase::Memcpy => self.memcpy += seconds,
            Phase::Free => self.free += seconds,
            Phase::Fault => self.fault += seconds,
        }
    }

    /// `(name, seconds)` pairs in the paper's legend order.
    pub fn phases(&self) -> [(&'static str, f64); 5] {
        [
            ("init", self.init),
            ("kernel", self.kernel),
            ("memcpy", self.memcpy),
            ("free", self.free),
            ("fault", self.fault),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;

    #[test]
    fn pcie_transfer_time() {
        let l = PcieLink::gen3_x16();
        // 12 GB at 12 GB/s ~ 1s (+latency).
        let t = l.transfer_time(12_000_000_000);
        assert!((t - 1.0).abs() < 1e-3);
        assert!(l.transfer_time(0) > 0.0, "latency floor");
        assert!(PcieLink::nvlink2().transfer_time(1 << 30) < l.transfer_time(1 << 30));
    }

    #[test]
    fn oom_detected() {
        let mut d = Device::new(GpuSpec::rtx_2080ti()); // 11 GB
        assert!(d.malloc(10_000_000_000, "a").is_ok());
        let e = d.malloc(2_000_000_000, "b").unwrap_err();
        assert!(matches!(e, Error::ResourceExhausted(_)));
    }

    #[test]
    fn free_releases_memory_and_double_free_errors() {
        let mut d = Device::new(GpuSpec::tesla_v100());
        let b = d.malloc(1_000_000, "x").unwrap();
        assert_eq!(d.allocated_bytes(), 1_000_000);
        d.free(b).unwrap();
        assert_eq!(d.allocated_bytes(), 0);
        assert!(d.free(b).is_err());
    }

    #[test]
    fn timeline_accumulates_phases() {
        let mut d = Device::new(GpuSpec::tesla_v100());
        let b = d.malloc(4096, "buf").unwrap();
        d.h2d(4096).unwrap();
        let out = d
            .launch(KernelKind::ZfpCompress, 1024, 4.0, "compress", || 42)
            .unwrap();
        assert_eq!(out, 42);
        d.d2h(512).unwrap();
        d.free(b).unwrap();
        let br = d.breakdown();
        assert!(br.init > 0.0 && br.kernel > 0.0 && br.memcpy > 0.0 && br.free > 0.0);
        assert_eq!(br.fault, 0.0, "no plan, no fault time");
        assert!((br.total() - d.elapsed()).abs() < 1e-12);
        assert_eq!(d.timeline().len(), 5);
    }

    #[test]
    fn memcpy_dominates_for_large_low_rate_transfers() {
        // The paper's key Fig. 7 observation: data transfer, not the
        // kernel, is the bottleneck for cuZFP on PCIe.
        let mut d = Device::new(GpuSpec::tesla_v100());
        let n = 128 * 1024 * 1024u64; // values
        let rate = 4.0;
        let compressed = n * rate as u64 / 8;
        d.launch(KernelKind::ZfpCompress, n, rate, "c", || ()).unwrap();
        d.d2h(compressed).unwrap();
        let br = d.breakdown();
        assert!(br.memcpy > br.kernel, "memcpy {} kernel {}", br.memcpy, br.kernel);
    }

    #[test]
    fn reset_clock_keeps_memory() {
        let mut d = Device::new(GpuSpec::tesla_v100());
        let _b = d.malloc(1024, "x").unwrap();
        d.reset_clock();
        assert_eq!(d.elapsed(), 0.0);
        assert_eq!(d.allocated_bytes(), 1024);
    }

    #[test]
    fn phase_totals_accumulate_across_clock_resets() {
        let mut d = Device::new(GpuSpec::tesla_v100()).with_label("dev");
        assert_eq!(d.label(), "dev");
        let b = d.malloc(4096, "buf").unwrap();
        d.h2d(4096).unwrap();
        let first = d.breakdown();
        d.reset_clock();
        d.launch(KernelKind::SzCompress, 1024, 4.0, "k", || ()).unwrap();
        d.free(b).unwrap();
        let second = d.breakdown();
        let totals = d.phase_totals();
        assert!((totals.total() - (first.total() + second.total())).abs() < 1e-12);
        assert_eq!(totals.init, first.init);
        assert_eq!(totals.memcpy, first.memcpy);
        assert_eq!(totals.kernel, second.kernel);
        assert_eq!(totals.free, second.free);
        assert!((d.total_elapsed() - totals.total()).abs() < 1e-12);
        assert_eq!(d.elapsed(), second.total(), "windowed clock resets");
        let phases = totals.phases();
        let sum: f64 = phases.iter().map(|(_, s)| s).sum();
        assert!((sum - totals.total()).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_no_plan() {
        let script = |d: &mut Device| {
            let b = d.malloc(1 << 20, "x").unwrap();
            d.h2d(1 << 20).unwrap();
            d.launch(KernelKind::SzCompress, 1 << 18, 4.0, "k", || ()).unwrap();
            let mut bytes = vec![0xABu8; 4096];
            d.d2h_data(&mut bytes).unwrap();
            d.free(b).unwrap();
            (d.elapsed(), d.timeline().len(), bytes)
        };
        let mut plain = Device::new(GpuSpec::tesla_v100());
        let mut quiet =
            Device::new(GpuSpec::tesla_v100()).with_fault_plan(FaultPlan::quiet(123));
        let (ta, na, da) = script(&mut plain);
        let (tb, nb, db) = script(&mut quiet);
        assert_eq!(ta, tb);
        assert_eq!(na, nb);
        assert_eq!(da, db, "quiet plan must not corrupt data");
        assert_eq!(quiet.fault_counts().total(), 0);
    }

    #[test]
    fn transfer_faults_charge_recovery_time_and_eventually_error() {
        let rates = FaultRates { transfer: 1.0, ..Default::default() };
        let mut d = Device::new(GpuSpec::tesla_v100())
            .with_fault_plan(FaultPlan::new(9, rates).with_max_retries(2));
        let e = d.h2d(1 << 20).unwrap_err();
        assert!(e.is_device_fault(), "{e}");
        let br = d.breakdown();
        assert!(br.fault > 0.0, "wasted attempts must be charged");
        assert_eq!(br.memcpy, 0.0, "the transfer never completed");
        assert_eq!(d.fault_counts().transfer, 3, "initial + 2 retries");
    }

    #[test]
    fn moderate_fault_rate_recovers_with_visible_cost() {
        let rates = FaultRates { transfer: 0.4, kernel: 0.4, ..Default::default() };
        let mut d = Device::new(GpuSpec::tesla_v100())
            .with_fault_plan(FaultPlan::new(1234, rates).with_max_retries(8));
        let mut completed = 0;
        for _ in 0..50 {
            if d.h2d(1 << 22).is_ok() {
                completed += 1;
            }
            if d.launch(KernelKind::ZfpCompress, 1 << 16, 4.0, "k", || ()).is_ok() {
                completed += 1;
            }
        }
        assert!(completed >= 95, "40% faults with 8 retries almost always recover");
        let br = d.breakdown();
        assert!(br.fault > 0.0);
        assert!(d.fault_counts().total() > 10);
        assert!((br.total() - d.elapsed()).abs() < 1e-9);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let rates = FaultRates { bit_flip: 1.0, ..Default::default() };
        let mut d =
            Device::new(GpuSpec::tesla_v100()).with_fault_plan(FaultPlan::new(5, rates));
        let original = vec![0u8; 512];
        let mut data = original.clone();
        d.d2h_data(&mut data).unwrap();
        let flipped: u32 = original
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit flips per injected ECC event");
        assert_eq!(d.fault_counts().bit_flip, 1);
    }

    #[test]
    fn injected_oom_is_transient_under_retry_budget() {
        // 50% OOM rate with a generous budget: allocations succeed, and
        // the accounting stays exact.
        let rates = FaultRates { oom: 0.5, ..Default::default() };
        let mut d = Device::new(GpuSpec::tesla_v100())
            .with_fault_plan(FaultPlan::new(77, rates).with_max_retries(20));
        let mut ids = Vec::new();
        for _ in 0..20 {
            ids.push(d.malloc(1 << 10, "buf").unwrap());
        }
        assert_eq!(d.allocated_bytes(), 20 << 10);
        for id in ids {
            d.free(id).unwrap();
        }
        assert_eq!(d.allocated_bytes(), 0);
    }

    #[test]
    fn same_seed_same_timeline() {
        let rates = FaultRates { transfer: 0.3, kernel: 0.2, ..Default::default() };
        let run = || {
            let mut d = Device::new(GpuSpec::tesla_v100())
                .with_fault_plan(FaultPlan::new(42, rates).with_max_retries(10));
            for i in 0..30u64 {
                let _ = d.h2d(1 << (10 + i % 8));
                let _ = d.launch(KernelKind::SzCompress, 1 << 14, 4.0, "k", || ());
            }
            (d.elapsed(), d.fault_counts())
        };
        assert_eq!(run(), run());
    }
}
