//! Device → telemetry integration: sim slices, counters, and lifetime
//! phase totals.
//!
//! These tests enable the process-global telemetry collector, so they
//! live in their own integration-test binary (one process, serialized by
//! a local lock) instead of in the library's unit tests.

use foresight_util::telemetry;
use gpu_sim::{Device, GpuSpec, KernelKind};
use std::sync::Mutex;

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scripted_device() -> Device {
    let mut d = Device::new(GpuSpec::tesla_v100()).with_label("nyx/v100");
    let b = d.malloc(1 << 20, "input").unwrap();
    d.h2d(1 << 20).unwrap();
    d.launch(KernelKind::SzCompress, 1 << 18, 4.0, "compress", || ()).unwrap();
    d.d2h(1 << 18).unwrap();
    d.reset_clock(); // decompress leg starts a fresh window
    d.launch(KernelKind::SzDecompress, 1 << 18, 4.0, "decompress", || ()).unwrap();
    d.d2h(1 << 20).unwrap();
    d.free(b).unwrap();
    d
}

#[test]
fn slices_mirror_the_timeline_across_resets() {
    let _g = lock();
    telemetry::reset();
    telemetry::enable();
    let d = scripted_device();
    let snap = telemetry::snapshot();
    telemetry::reset();

    let dev_slices: Vec<_> =
        snap.spans.iter().filter(|s| s.process == "nyx/v100").collect();
    // malloc, h2d, compress, d2h, decompress, d2h, free.
    assert_eq!(dev_slices.len(), 7);

    // Slice starts are monotone on the lifetime clock even though
    // reset_clock() zeroed the windowed clock mid-script.
    let starts: Vec<f64> = dev_slices.iter().map(|s| s.start_s).collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    let last = dev_slices.last().unwrap();
    assert!(
        (last.start_s + last.dur_s - d.total_elapsed()).abs() < 1e-12,
        "slices tile the lifetime clock"
    );

    // Memcpy slices split into the paper's H2D/D2H lanes.
    let track_of = |name: &str| {
        dev_slices.iter().find(|s| s.name == name).map(|s| s.track.clone())
    };
    assert_eq!(track_of("h2d").as_deref(), Some("h2d"));
    assert_eq!(track_of("d2h").as_deref(), Some("d2h"));
    assert_eq!(track_of("compress").as_deref(), Some("kernel"));
    assert_eq!(track_of("free").as_deref(), Some("free"));

    // Per-track sums over the sim layout equal the device's lifetime
    // phase totals.
    let totals = d.phase_totals();
    let layout = snap.sim_layout();
    let get = |t: &str| {
        layout.slices.iter().filter(|(_, _, s)| s.track == t).map(|(_, _, s)| s.dur_s).sum::<f64>()
    };
    assert!((get("kernel") - totals.kernel).abs() < 1e-12);
    assert!((get("h2d") + get("d2h") - totals.memcpy).abs() < 1e-12);
    assert!((get("init") - totals.init).abs() < 1e-12);
    assert!((get("free") - totals.free).abs() < 1e-12);

    // PCIe byte counters saw both directions.
    assert_eq!(snap.metrics.counter("pcie.h2d.bytes"), 1 << 20);
    assert_eq!(snap.metrics.counter("pcie.d2h.bytes"), (1 << 18) + (1 << 20));
    let hist = snap.metrics.histogram("pcie.transfer.sim_seconds").expect("transfer histogram");
    assert_eq!(hist.count(), 3);
}

#[test]
fn disabled_telemetry_leaves_device_behavior_identical() {
    let _g = lock();
    telemetry::reset();
    let with_off = scripted_device();
    telemetry::enable();
    let with_on = scripted_device();
    let snap = telemetry::snapshot();
    telemetry::reset();
    assert_eq!(with_off.phase_totals(), with_on.phase_totals());
    assert_eq!(with_off.total_elapsed(), with_on.total_elapsed());
    assert!(!snap.sim_layout().slices.is_empty(), "enabled run collected slices");
}

#[test]
fn fault_retries_bump_counters() {
    let _g = lock();
    telemetry::reset();
    telemetry::enable();
    let rates = gpu_sim::FaultRates { transfer: 1.0, ..Default::default() };
    let mut d = Device::new(GpuSpec::tesla_v100())
        .with_fault_plan(gpu_sim::FaultPlan::new(9, rates).with_max_retries(2));
    assert!(d.h2d(1 << 20).is_err());
    let snap = telemetry::snapshot();
    telemetry::reset();
    assert_eq!(snap.metrics.counter("gpu.fault.retries"), 3, "initial + 2 retries");
    assert_eq!(snap.metrics.counter("gpu.fault.transfer"), 3);
    assert!(snap
        .spans
        .iter()
        .any(|s| s.track == "fault" && s.name == "h2d!transfer"));
}
