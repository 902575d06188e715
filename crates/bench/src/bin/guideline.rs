//! §V-D regenerator: the full configuration-optimization guideline as a
//! PAT workflow.
//!
//! Runs the paper's three steps end to end: (1) CBench sweeps both
//! compressors over the Nyx dataset, (2) power-spectrum analysis marks
//! each configuration acceptable or not, (3) the optimizer picks the
//! highest-ratio acceptable configuration per field. The stages execute
//! as dependent jobs on the simulated SLURM cluster and the artifacts
//! land in a Cinema database — the whole Fig. 2/3 pipeline in one binary.

use cosmo_analysis::{pk_ratio, power_spectrum_f32};
use cosmo_fft::Grid3;
use foresight::cbench::run_sweep;
use foresight::codec::CodecConfig;
use foresight::{
    best_fit_per_field, overall_best_ratio, Acceptance, Candidate, CinemaDb, CodecKind, Job,
    SlurmSim, Workflow,
};
use foresight_bench::{nyx_fields, Cli};
use foresight_util::table::{fmt_f64, Table};
use lossy_sz::SzConfig;
use lossy_zfp::ZfpConfig;
use parking_lot::Mutex;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let cli = Cli::parse();
    let dir = cli.exhibit_dir("guideline");
    let opts = cli.synth();
    let grid = Grid3::cube(cli.n_side);
    let box_size = opts.box_size;

    println!("generating Nyx snapshot (n_side={})...", cli.n_side);
    let (_, fields) = nyx_fields(&opts).expect("nyx");
    let fields = Arc::new(fields);

    let configs: Vec<CodecConfig> = [1e-3, 3e-3, 1e-2]
        .iter()
        .map(|&b| CodecConfig::Sz(SzConfig::rel(b)))
        .chain([2.0, 4.0, 8.0].iter().map(|&r| CodecConfig::Zfp(ZfpConfig::rate(r))))
        .collect();

    // Stage outputs shared between jobs.
    let records = Arc::new(Mutex::new(Vec::new()));
    let candidates = Arc::new(Mutex::new(Vec::<Candidate>::new()));

    let mut wf = Workflow::new();
    {
        let fields = fields.clone();
        let records = records.clone();
        let configs = configs.clone();
        wf.add(Job::new("cbench", 8, move || {
            let recs = run_sweep(&fields, &configs, true)?;
            let n = recs.len();
            *records.lock() = recs;
            Ok(format!("{n} records"))
        }))
        .unwrap();
    }
    {
        let fields = fields.clone();
        let records = records.clone();
        let candidates = candidates.clone();
        wf.add(
            Job::new("power-spectrum", 4, move || {
                let recs = std::mem::take(&mut *records.lock());
                let mut cands = Vec::with_capacity(recs.len());
                for mut rec in recs {
                    let field =
                        fields.iter().find(|f| f.name == rec.field).expect("field exists");
                    let orig = power_spectrum_f32(&field.data, grid, box_size, 10)?;
                    let recon = rec.reconstructed.take().expect("recon kept");
                    let pk = power_spectrum_f32(&recon, grid, box_size, 10)?;
                    let dev = pk_ratio(&orig, &pk)?
                        .iter()
                        .map(|&(_, r)| (r - 1.0).abs())
                        .fold(0.0f64, f64::max);
                    cands.push(Candidate {
                        record: rec,
                        pk_deviation: Some(dev),
                        halo_deviation: None,
                    });
                }
                let n = cands.len();
                *candidates.lock() = cands;
                Ok(format!("{n} candidates"))
            })
            .after("cbench"),
        )
        .unwrap();
    }
    {
        let candidates = candidates.clone();
        let dir = dir.clone();
        wf.add(
            Job::new("optimize", 1, move || {
                let cands = candidates.lock();
                let acc = Acceptance::default();
                let mut table =
                    Table::new(["compressor", "field", "chosen", "ratio", "acceptable/total"]);
                let mut lines = Vec::new();
                for comp in [CodecKind::Sz, CodecKind::Zfp] {
                    let fits = best_fit_per_field(&cands, comp, &acc)?;
                    let overall = overall_best_ratio(&fits, &cands);
                    for f in &fits {
                        table.push_row([
                            comp.display().to_string(),
                            f.field.clone(),
                            f.param.clone(),
                            fmt_f64(f.ratio),
                            format!("{}/{}", f.acceptable_count, f.total_count),
                        ]);
                    }
                    lines.push(format!(
                        "{}: overall best-fit ratio {:.2}x",
                        comp.display(),
                        overall
                    ));
                }
                let mut db = CinemaDb::create(&dir)?;
                db.add_table("bestfit.csv", &table, &[("stage", "optimize".into())])?;
                db.add_text("overall.txt", &lines.join("\n"), &[])?;
                db.finalize()?;
                println!("\n== best-fit configurations ==\n{}", table.to_ascii());
                Ok(lines.join("; "))
            })
            .after("power-spectrum"),
        )
        .unwrap();
    }

    let cluster = SlurmSim::default();
    let report = wf.run(&cluster).expect("workflow");
    println!("\n== PAT workflow report ==");
    for j in &report.jobs {
        println!("wave {} | {:<16} | {:>8.2}s | {}", j.wave, j.name, j.wall_seconds, j.output);
    }
    println!("\nsubmission script:\n{}", report.script);
    println!("wrote {}", dir.display());
    if !report.all_ok() {
        eprintln!("workflow failed:\n{}", report.failure_summary());
    }
    ExitCode::from(report.exit_code())
}
