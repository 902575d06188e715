//! Full Foresight pipeline from a JSON configuration: dataset synthesis,
//! CBench sweep, distortion analysis, and a Cinema artifact database, all
//! orchestrated as PAT jobs on the simulated SLURM cluster.
//!
//! ```text
//! cargo run --release --example foresight_pipeline
//! ```

use foresight::cbench::{run_sweep, CBenchRecord, FieldData};
use foresight::codec::Shape;
use foresight::{CinemaDb, DatasetKind, ForesightConfig, Job, SlurmSim, Workflow};
use foresight_util::table::{fmt_f64, Table};
use parking_lot::Mutex;
use std::process::ExitCode;
use std::sync::Arc;

const CONFIG: &str = r#"{
  "input":       { "dataset": "nyx", "n_side": 32, "seed": 99, "steps": 6 },
  "compressors": [ { "name": "gpu-sz", "mode": "rel", "bounds": [0.001, 0.01] },
                   { "name": "cuzfp", "rates": [4, 8] } ],
  "analysis":    [ "distortion" ],
  "output":      { "dir": "results/pipeline_example", "cinema": true }
}"#;

fn main() -> ExitCode {
    let cfg = ForesightConfig::from_json(CONFIG).expect("config");
    println!("parsed config: dataset={:?}, {} codec configs", cfg.input.dataset, cfg.codec_configs().len());

    // Stage 1 output shared between jobs.
    let fields: Arc<Mutex<Vec<FieldData>>> = Arc::new(Mutex::new(Vec::new()));
    let records: Arc<Mutex<Vec<CBenchRecord>>> = Arc::new(Mutex::new(Vec::new()));

    let mut wf = Workflow::new();
    {
        let fields = fields.clone();
        let input = cfg.input.clone();
        wf.add(Job::new("generate", 4, move || {
            let opts = cosmo_data::SynthOptions {
                n_side: input.n_side,
                box_size: input.box_size,
                seed: input.seed,
                steps: input.steps,
            };
            let out = match input.dataset {
                DatasetKind::Nyx => {
                    let snap = cosmo_data::generate_nyx(&opts)?;
                    let n = snap.n_side;
                    snap.fields()
                        .iter()
                        .map(|(name, d)| FieldData::new(*name, d.to_vec(), Shape::D3(n, n, n)))
                        .collect::<foresight_util::Result<Vec<_>>>()?
                }
                DatasetKind::Hacc => {
                    let snap = cosmo_data::generate_hacc(&opts)?;
                    snap.fields()
                        .iter()
                        .map(|(name, d)| FieldData::new(*name, d.to_vec(), Shape::D1(d.len())))
                        .collect::<foresight_util::Result<Vec<_>>>()?
                }
            };
            let n = out.len();
            *fields.lock() = out;
            Ok(format!("{n} fields"))
        }))
        .unwrap();
    }
    {
        let fields = fields.clone();
        let records = records.clone();
        let configs = cfg.codec_configs();
        wf.add(
            Job::new("cbench", 8, move || {
                let f = fields.lock();
                let recs = run_sweep(&f, &configs, false)?;
                let n = recs.len();
                *records.lock() = recs;
                Ok(format!("{n} records"))
            })
            .after("generate"),
        )
        .unwrap();
    }
    {
        let records = records.clone();
        let outdir = cfg.output.dir.clone();
        wf.add(
            Job::new("report", 1, move || {
                let recs = records.lock();
                let mut t = Table::new([
                    "field",
                    "compressor",
                    "param",
                    "ratio",
                    "bitrate",
                    "psnr_db",
                    "max_abs_err",
                ]);
                for r in recs.iter() {
                    t.push_row([
                        r.field.clone(),
                        r.compressor.display().to_string(),
                        r.param.clone(),
                        fmt_f64(r.ratio),
                        fmt_f64(r.bitrate),
                        fmt_f64(r.distortion.psnr),
                        fmt_f64(r.distortion.max_abs_err),
                    ]);
                }
                println!("\n== CBench results ==\n{}", t.to_ascii());
                let mut db = CinemaDb::create(&outdir)?;
                db.add_table("cbench.csv", &t, &[("stage", "cbench".into())])?;
                let n = db.finalize()?;
                Ok(format!("{n} artifacts in {}", outdir.display()))
            })
            .after("cbench"),
        )
        .unwrap();
    }

    let report = wf.run(&SlurmSim::default()).expect("workflow");
    println!("== PAT report ==");
    for j in &report.jobs {
        println!("wave {} | {:<10} | {:>7.2}s | {}", j.wave, j.name, j.wall_seconds, j.output);
    }
    if !report.all_ok() {
        eprintln!("workflow failed:\n{}", report.failure_summary());
    }
    ExitCode::from(report.exit_code())
}
