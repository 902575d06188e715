//! One acceptance rule: the exhibits and the pipeline runner judge a
//! configuration exactly as `cosmo_analysis::acceptance` does.
//!
//! - the `guideline` exhibit picks what `run_pipeline` picks on the config
//!   a `foresight-cli` user would write for the same sweep;
//! - every `fig5` verdict and pick is the rule's, recomputed here from the
//!   reconstructions;
//! - every `fig6` verdict is the rule's, recomputed from the exhibit's own
//!   halo counts, at `--n-side 16` and in the committed `results/fig6/`;
//! - `fig6` shows what `run_pipeline` finds on the config a `foresight-cli`
//!   user would write for its sweep: each position configuration's verdict
//!   and both overall HACC ratios, at `--n-side 16` and 32.
//!
//! ```sh
//! cargo test -q --offline -p foresight-bench --test agreement
//! ```

use cosmo_analysis::acceptance::{self, Verdict};
use cosmo_fft::Grid3;
use foresight::cbench::run_one;
use foresight::codec::CodecConfig;
use foresight::{best_fit_per_field, run_pipeline, Candidate, CodecKind};
use foresight::{ForesightConfig, SlurmSim};
use foresight_bench::{run, velocity_magnitude, Cli, Ctx, EXHIBITS};
use foresight_util::table::fmt_f64;
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use std::path::{Path, PathBuf};

/// Runs exhibit `id` at `--n-side n_side` and returns its output directory.
fn exhibit(id: &str, n_side: usize) -> PathBuf {
    let tmp = format!("foresight-agreement-{id}-{n_side}-{}", std::process::id());
    let out = std::env::temp_dir().join(tmp);
    let ctx = Ctx::new(Cli { n_side, out, ..Cli::default() });
    let entry = EXHIBITS.iter().find(|e| e.id == id).unwrap();
    run(&ctx, entry).unwrap()
}

/// The data rows of a CSV the exhibits write (no field holds a comma).
fn csv(path: &Path) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(path).unwrap();
    text.lines().skip(1).map(|l| l.split(',').map(String::from).collect()).collect()
}

#[test]
fn the_guideline_exhibit_picks_what_the_pipeline_picks() {
    let dir = exhibit("guideline", 16);
    let rows = csv(&dir.join("bestfit.csv"));
    std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();

    let cfg = ForesightConfig::from_json(
        r#"{"input": {"dataset": "nyx", "n_side": 16, "seed": 24301, "steps": 10},
            "compressors": [{"name": "gpu-sz", "mode": "rel", "bounds": [0.001, 0.003, 0.01]},
                            {"name": "cuzfp", "rates": [2, 4, 8]}],
            "analysis": ["power-spectrum"],
            "output": {"dir": "guideline-agreement"}}"#,
    )
    .unwrap();
    let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
    let mut picks = Vec::new();
    for comp in [CodecKind::Sz, CodecKind::Zfp] {
        for f in best_fit_per_field(&report.candidates, comp).unwrap() {
            let counts = format!("{}/{}", f.acceptable_count, f.total_count);
            let (rec, ratio) = (&f.record, fmt_f64(f.record.ratio));
            let row = [comp.display(), rec.field.as_str(), rec.param.as_str(), &ratio, &counts];
            picks.push(row.map(String::from).to_vec());
        }
    }
    assert_eq!(rows, picks);
}

#[test]
fn fig5_verdicts_and_picks_are_the_rules() {
    let dir = exhibit("fig5", 16);
    let verdicts = csv(&dir.join("fig5_acceptance.csv"));
    let picks = csv(&dir.join("fig5_bestfit.csv"));
    std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();

    let ctx = Ctx::new(Cli { n_side: 16, ..Cli::default() });
    let (grid, box_size) = (Grid3::cube(16), ctx.cli.synth().box_size);
    let fields = ctx.nyx().unwrap().1;
    // Fig. 5's six spectra, each from the fields it names.
    let spectra: [(&str, &[&str]); 6] = [
        ("baryon_density", &["baryon_density"]),
        ("dark_matter_density", &["dark_matter_density"]),
        ("overall_density", &["baryon_density", "dark_matter_density"]),
        ("temperature", &["temperature"]),
        ("velocity_magnitude", &["velocity_x", "velocity_y", "velocity_z"]),
        ("velocity_z", &["velocity_z"]),
    ];
    let input = |name: &str, data: &dyn Fn(&str) -> Vec<f32>| -> Vec<f32> {
        match name {
            "overall_density" => {
                let (b, d) = (data("baryon_density"), data("dark_matter_density"));
                b.iter().zip(&d).map(|(b, d)| b + d).collect()
            }
            "velocity_magnitude" => {
                velocity_magnitude(&data("velocity_x"), &data("velocity_y"), &data("velocity_z"))
            }
            other => data(other),
        }
    };
    let original = |name: &str| fields.iter().find(|f| f.name == name).unwrap().data.clone();

    let configs = [1.0, 2.0, 4.0, 8.0]
        .map(|r| CodecConfig::Zfp(ZfpConfig::rate(r)))
        .into_iter()
        .chain([3e-2, 1e-2, 3e-3, 1e-3].map(|b| CodecConfig::Sz(SzConfig::rel(b))));
    let (mut judged, mut candidates) = (0, Vec::new());
    for cfg in configs {
        let records: Vec<_> = fields.iter().map(|f| run_one(f, &cfg, true).unwrap()).collect();
        let recon = |name: &str| {
            let i = fields.iter().position(|f| f.name == name).unwrap();
            records[i].reconstructed.clone().unwrap()
        };
        let (label, mut devs) = (cfg.param_label(), Vec::new());
        for (spectrum, _) in &spectra {
            let orig = acceptance::spectrum(&input(spectrum, &original), grid, box_size);
            let rec = input(spectrum, &recon);
            let (_, dev) = acceptance::pk_curve(&orig.unwrap(), &rec, grid, box_size).unwrap();
            let key = [cfg.id().display(), label.as_str(), spectrum];
            let row = verdicts.iter().find(|r| r[..3] == key).unwrap();
            assert_eq!(row[3], fmt_f64(dev), "{key:?}");
            assert_eq!(row[4], Verdict::pk(dev).acceptable().to_string(), "{key:?}");
            devs.push(dev);
            judged += 1;
        }
        // A field is judged on every spectrum it feeds.
        for mut record in records {
            let dev = (spectra.iter().zip(&devs))
                .filter(|((_, from), _)| from.contains(&record.field.as_str()))
                .map(|(_, &d)| d)
                .fold(0.0, f64::max);
            record.reconstructed = None;
            candidates.push(Candidate { record, verdict: Verdict::pk(dev) });
        }
    }
    assert_eq!(judged, verdicts.len());

    for row in &picks {
        let comp = if row[0] == "GPU-SZ" { CodecKind::Sz } else { CodecKind::Zfp };
        let of_field: Vec<_> =
            candidates.iter().filter(|c| c.record.field == row[1]).cloned().collect();
        let (chosen, ratio) = match best_fit_per_field(&of_field, comp) {
            Ok(fits) => (fits[0].record.param.clone(), fmt_f64(fits[0].record.ratio)),
            Err(_) => ("none acceptable".to_string(), "-".to_string()),
        };
        assert_eq!([&row[2], &row[3]], [&chosen, &ratio], "{row:?}");
    }
}

/// Checks every configuration row of a `fig6_summary.csv` against the
/// rule applied to the halo counts of the `fig6_curves.csv` beside it.
fn fig6_agrees(dir: &Path) {
    let curves = csv(&dir.join("fig6_curves.csv"));
    let summary = csv(&dir.join("fig6_summary.csv"));
    for row in summary.iter().filter(|r| r[0] != "original") {
        let bins: Vec<(usize, usize, usize, f64)> = (curves.iter())
            .filter(|c| c[..2] == row[..2])
            .map(|c| {
                let [mass, orig, recon] = [2, 3, 4].map(|i| c[i].parse::<usize>().unwrap());
                (mass, orig, recon, recon as f64 / orig as f64)
            })
            .collect();
        let dev = acceptance::halo_deviation(&bins);
        assert_eq!(row[3], fmt_f64(dev), "{row:?}");
        assert_eq!(row[4], Verdict::halo(dev).acceptable().to_string(), "{row:?}");
    }
}

#[test]
fn fig6_verdicts_are_the_rules() {
    let dir = exhibit("fig6", 16);
    fig6_agrees(&dir);
    std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    fig6_agrees(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/fig6"));
}

#[test]
fn fig6_shows_what_the_pipeline_finds_on_the_clis_config() {
    for n_side in [16, 32] {
        let dir = exhibit("fig6", n_side);
        let summary = csv(&dir.join("fig6_summary.csv"));
        let overall = std::fs::read_to_string(dir.join("fig6_overall.txt")).unwrap();
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();

        let cfg = ForesightConfig::from_json(&format!(
            r#"{{"input": {{"dataset": "hacc", "n_side": {n_side}, "seed": 24301, "steps": 10}},
                "compressors": [{{"name": "gpu-sz", "mode": "abs", "bounds": [0.005, 0.025, 0.1]}},
                                {{"name": "cuzfp", "rates": [4, 8, 12]}}],
                "analysis": ["halo-finder"],
                "output": {{"dir": "fig6-agreement"}}}}"#
        ))
        .unwrap();
        let report = run_pipeline(&cfg, &SlurmSim::default()).unwrap();
        let rows: Vec<_> = summary.iter().filter(|r| r[0] != "original").collect();
        assert_eq!(rows.len(), 6);
        for row in rows {
            for axis in ["x", "y", "z"] {
                let c = report.candidates.iter().find(|c| {
                    let r = &c.record;
                    (r.field.as_str(), r.compressor.display(), &r.param) == (axis, &row[0], &row[1])
                });
                let v = c.unwrap().verdict;
                let cli = [fmt_f64(v.halo_deviation.unwrap()), v.acceptable().to_string()];
                assert_eq!(cli, [row[3].clone(), row[4].clone()], "{n_side}: {axis} {row:?}");
            }
        }
        // "<comp>: ... ratio <r>x ...", or no ratio when nothing passed.
        let ratio = |line: Option<&str>| {
            let after = line?.split("ratio ").nth(1)?;
            after.split('x').next().map(String::from)
        };
        for comp in ["GPU-SZ:", "cuZFP:"] {
            let cli = report.best_fit_lines.iter().find(|l| l.starts_with(comp));
            let fig6 = overall.lines().find(|l| l.starts_with(comp));
            assert_eq!(ratio(cli.map(String::as_str)), ratio(fig6), "{n_side}: {comp}");
        }
    }
}
