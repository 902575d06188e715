//! End-to-end integration tests spanning all crates: dataset synthesis ->
//! file formats -> compression -> analysis -> optimizer, exercised the way
//! the benchmark binaries drive them.

use cosmo_analysis::acceptance::{self, Verdict};
use cosmo_data::{generate_hacc, generate_nyx, gio, h5lite, SynthOptions};
use cosmo_fft::Grid3;
use foresight::cbench::{cross, run_sweep, FieldData};
use foresight::codec::{CodecConfig, Shape};
use foresight::{best_fit_per_field, Candidate, CodecKind};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;

fn opts(n: usize, steps: usize) -> SynthOptions {
    SynthOptions { n_side: n, box_size: 256.0, seed: 20200704, steps }
}

#[test]
fn nyx_full_pipeline_files_compression_analysis_optimizer() {
    let n = 32usize;
    let snap = generate_nyx(&opts(n, 6)).unwrap();

    // File format round trip (H5-lite, as Nyx uses HDF5).
    let path = std::env::temp_dir().join(format!("nyx_it_{}.h5l", std::process::id()));
    h5lite::write_nyx(&snap, &path).unwrap();
    let snap = h5lite::read_nyx(&path, 256.0).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(snap.n_side, n);

    // CBench sweep over two codecs.
    let fields: Vec<FieldData> = snap
        .fields()
        .iter()
        .map(|(name, d)| FieldData::new(*name, d.to_vec(), Shape::D3(n, n, n)).unwrap())
        .collect();
    let configs = vec![
        CodecConfig::Sz(SzConfig::rel(1e-3)),
        CodecConfig::Sz(SzConfig::rel(1e-2)),
        CodecConfig::Zfp(ZfpConfig::rate(4.0)),
        CodecConfig::Zfp(ZfpConfig::rate(8.0)),
    ];
    let records = run_sweep(&cross(&fields, &configs), true).unwrap();
    assert_eq!(records.len(), 24);

    // Power-spectrum acceptance per record, then the guideline.
    let grid = Grid3::cube(n);
    let mut candidates = Vec::new();
    for mut rec in records {
        let field = fields.iter().find(|f| f.name == rec.field).unwrap();
        let orig = acceptance::spectrum(&field.data, grid, 256.0).unwrap();
        let recon = rec.reconstructed.take().unwrap();
        let (_, dev) = acceptance::pk_curve(&orig, &recon, grid, 256.0).unwrap();
        candidates.push(Candidate { record: rec, verdict: Verdict::pk(dev) });
    }
    let sz = best_fit_per_field(&candidates, CodecKind::Sz).unwrap();
    assert_eq!(sz.len(), 6, "one best fit per field");
    for f in &sz {
        assert!(f.record.ratio > 1.0);
        assert!(f.acceptable_count >= 1);
    }
}

#[test]
fn hacc_full_pipeline_gio_compression_halos() {
    let n = 32usize;
    let snap = generate_hacc(&opts(n, 10)).unwrap();

    // GIO-lite round trip.
    let path = std::env::temp_dir().join(format!("hacc_it_{}.gio", std::process::id()));
    gio::write_hacc(&snap, &path).unwrap();
    let snap = gio::read_hacc(&path, 256.0).unwrap();
    std::fs::remove_file(&path).ok();

    let orig = acceptance::halos(&snap.x, &snap.y, &snap.z, 256.0).unwrap();
    assert!(orig.halos.len() >= 20, "halo-rich universe expected, got {}", orig.halos.len());

    // Tight-bound compression preserves the halo catalog almost exactly.
    let cfg = CodecConfig::Sz(SzConfig::abs(0.005));
    let mut recon = Vec::new();
    for coord in [&snap.x, &snap.y, &snap.z] {
        let f = FieldData::new("c", coord.clone(), Shape::D1(coord.len())).unwrap();
        let rec = foresight::cbench::run_one(&f, &cfg, true).unwrap();
        assert!(rec.distortion.max_abs_err <= 0.005 + 1e-9);
        recon.push(rec.reconstructed.unwrap());
    }
    let cat = acceptance::halos(&recon[0], &recon[1], &recon[2], 256.0).unwrap();
    let dev = acceptance::halo_deviation(&cosmo_analysis::halo_count_ratio(&orig, &cat));
    assert!(Verdict::halo(dev).acceptable(), "halo deviation {dev}");
    let diff = (cat.halos.len() as f64 - orig.halos.len() as f64).abs()
        / orig.halos.len() as f64;
    assert!(diff < 0.1, "halo count changed by {diff}: {} -> {}", orig.halos.len(), cat.halos.len());
}

#[test]
fn hacc_velocity_pwrel_beats_abs_at_same_quality() {
    // The paper's §IV-B-4 rationale: PW_REL on velocities gives better
    // compression for the same point-wise relative fidelity.
    let n = 32usize;
    let snap = generate_hacc(&SynthOptions { n_side: n, box_size: 256.0, seed: 5, steps: 8 })
        .unwrap();
    let f = FieldData::new("vx", snap.vx.clone(), Shape::D1(snap.vx.len())).unwrap();
    let pw = foresight::cbench::run_one(&f, &CodecConfig::Sz(SzConfig::pw_rel(0.01)), true)
        .unwrap();
    // ABS bound that achieves the same worst-case relative error on the
    // largest values: eb = 0.01 * max|v| (far too strict for small values).
    let vmax = snap.vx.iter().fold(0.0f32, |m, &v| m.max(v.abs())) as f64;
    let abs =
        foresight::cbench::run_one(&f, &CodecConfig::Sz(SzConfig::abs(0.01 * vmax)), true)
            .unwrap();
    // PW_REL bounds relative error everywhere; ABS at that budget does not.
    let max_rel = |rec: &foresight::CBenchRecord| -> f64 {
        snap.vx
            .iter()
            .zip(rec.reconstructed.as_ref().unwrap())
            .filter(|(&a, _)| a.abs() > 1.0)
            .map(|(&a, &b)| ((a as f64 - b as f64) / a as f64).abs())
            .fold(0.0f64, f64::max)
    };
    assert!(max_rel(&pw) <= 0.0101, "pw_rel bound violated: {}", max_rel(&pw));
    assert!(max_rel(&abs) > 0.0101, "abs mode should not bound relative error");
}

#[test]
fn cross_codec_streams_are_distinguishable() {
    let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
    let sz = foresight::codec::compress(
        &data,
        Shape::D1(4096),
        &CodecConfig::Sz(SzConfig::abs(1e-3)),
    )
    .unwrap();
    let zfp = foresight::codec::compress(
        &data,
        Shape::D1(4096),
        &CodecConfig::Zfp(ZfpConfig::rate(8.0)),
    )
    .unwrap();
    let (a, _) = foresight::codec::decompress(&sz).unwrap();
    let (b, _) = foresight::codec::decompress(&zfp).unwrap();
    assert_eq!(a.len(), data.len());
    assert_eq!(b.len(), data.len());
    // Swapping stream headers must fail loudly, not decode garbage.
    let mut franken = zfp.clone();
    franken[..4].copy_from_slice(&sz[..4]);
    assert!(foresight::codec::decompress(&franken).is_err());
}
