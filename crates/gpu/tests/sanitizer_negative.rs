//! Negative tests for the device sanitizer: seeded memory-discipline and
//! race bugs must be *detected*, not merely tolerated. The unit tests in
//! `sanitizer.rs` exercise the checker in isolation; these go through the
//! public `Device` + `launch_grid_traced` surface the codecs use, so a
//! regression in the wiring (hooks not firing, tracing disabled, reports
//! not surfacing) fails here even if the checker itself is intact.

use gpu_sim::{
    launch_grid_traced, BlockGrid, Device, GpuSpec, KernelKind, SanitizerConfig,
};

fn device(cfg: SanitizerConfig) -> Device {
    Device::new(GpuSpec::tesla_v100()).with_sanitizer(cfg)
}

fn grid(blocks: usize) -> BlockGrid {
    BlockGrid { blocks, values_per_block: 256, bits_per_value: 4.0, per_item: 1 }
}

fn kinds(dev: &Device) -> Vec<&'static str> {
    dev.sanitizer_report()
        .expect("sanitizer attached")
        .diagnostics
        .iter()
        .map(|d| d.kind())
        .collect()
}

#[test]
fn memcheck_flags_out_of_bounds_write() {
    let mut dev = device(SanitizerConfig::memcheck());
    let buf = dev.malloc(16, "small").unwrap();
    // One block writes bytes [12, 20) of a 16-byte buffer.
    launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(1), "oob_kernel", |_, acc| {
        acc.write(buf, 12, 20);
    })
    .unwrap();
    dev.free(buf).unwrap();
    assert_eq!(kinds(&dev), ["oob"]);
    let report = dev.sanitizer_report().unwrap();
    let line = &report.lines()[0];
    assert!(
        line.contains("small") && line.contains("oob_kernel"),
        "diagnostic names the buffer and launch: {line}"
    );
}

#[test]
fn memcheck_flags_double_free() {
    let mut dev = device(SanitizerConfig::memcheck());
    let buf = dev.malloc(64, "once").unwrap();
    dev.free(buf).unwrap();
    assert!(dev.free(buf).is_err(), "device rejects the second free");
    assert_eq!(kinds(&dev), ["double_free"]);
}

#[test]
fn memcheck_flags_use_after_free() {
    let mut dev = device(SanitizerConfig::memcheck());
    let buf = dev.malloc(64, "gone").unwrap();
    dev.free(buf).unwrap();
    launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(1), "stale", |_, acc| {
        acc.write(buf, 0, 8);
    })
    .unwrap();
    assert_eq!(kinds(&dev), ["use_after_free"]);
}

#[test]
fn memcheck_flags_uninitialized_read() {
    let mut dev = device(SanitizerConfig::memcheck());
    // Allocated but never uploaded or written: reading it is a bug.
    let buf = dev.malloc(32, "cold").unwrap();
    launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(1), "reader", |_, acc| {
        acc.read(buf, 0, 32);
    })
    .unwrap();
    dev.free(buf).unwrap();
    assert_eq!(kinds(&dev), ["uninit_read"]);
}

#[test]
fn memcheck_reports_leaks_with_labels() {
    let mut dev = device(SanitizerConfig::memcheck());
    let _kept = dev.malloc(1024, "leaky.stage").unwrap();
    let freed = dev.malloc(64, "fine").unwrap();
    dev.free(freed).unwrap();
    assert_eq!(kinds(&dev), ["leak"]);
    assert_eq!(dev.leak_report(), [("leaky.stage".to_string(), 1024u64)]);
}

#[test]
fn racecheck_flags_seeded_write_write_race() {
    let mut dev = device(SanitizerConfig::racecheck());
    let out = dev.malloc(4096, "racy.out").unwrap();
    // Every block writes [0, 64): a classic missing-offset bug where all
    // blocks scatter to the same output window.
    launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(4), "racy_kernel", |_, acc| {
        acc.write(out, 0, 64);
    })
    .unwrap();
    dev.free(out).unwrap();
    let report = dev.sanitizer_report().unwrap();
    assert!(!report.is_clean());
    assert!(kinds(&dev).iter().all(|k| *k == "race_ww"), "{:?}", kinds(&dev));
    let line = &report.lines()[0];
    assert!(line.contains("racy.out") && line.contains("racy_kernel"), "{line}");
}

#[test]
fn racecheck_flags_read_write_overlap() {
    let mut dev = device(SanitizerConfig::racecheck());
    let buf = dev.malloc(4096, "shared").unwrap();
    launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(2), "rw_kernel", |b, acc| {
        if b == 0 {
            acc.write(buf, 0, 128);
        } else {
            acc.read(buf, 64, 256); // overlaps block 0's write
        }
    })
    .unwrap();
    dev.free(buf).unwrap();
    assert_eq!(kinds(&dev), ["race_rw"]);
}

#[test]
fn racecheck_accepts_disjoint_block_partition() {
    // The shipped kernels' access pattern: block i owns its own slice.
    let mut dev = device(SanitizerConfig::full());
    let buf = dev.malloc(4096, "partitioned").unwrap();
    dev.h2d_buf(buf).unwrap();
    launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(8), "clean_kernel", |b, acc| {
        let start = (b as u64) * 512;
        acc.read(buf, start, start + 512);
        acc.write(buf, start, start + 512);
    })
    .unwrap();
    dev.free(buf).unwrap();
    let report = dev.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.lines());
    assert_eq!(report.launches_checked, 1);
    assert_eq!(report.buffers_tracked, 1);
}

#[test]
fn sanitizer_off_device_reports_nothing_and_runs_identically() {
    // Same deterministic workload on a plain and a sanitized device: the
    // checker must be observation-only (outputs and simulated time agree),
    // and an untouched device must not even produce a report.
    let run = |mut dev: Device| {
        let buf = dev.malloc(4096, "b").unwrap();
        dev.h2d_buf(buf).unwrap();
        let (out, _) =
            launch_grid_traced(&mut dev, KernelKind::SzCompress, grid(4), "k", |b, acc| {
                let start = (b as u64) * 1024;
                acc.read(buf, start, start + 1024);
                (b as u64) * 31 + 7
            })
            .unwrap();
        dev.free(buf).unwrap();
        (out, dev.elapsed())
    };
    let plain = Device::new(GpuSpec::tesla_v100());
    assert!(plain.sanitizer_report().is_none());
    assert!(!plain.sanitizer_active());
    let (out_plain, t_plain) = run(plain);
    let (out_san, t_san) = run(device(SanitizerConfig::full()));
    assert_eq!(out_plain, out_san);
    assert_eq!(t_plain, t_san);
}
