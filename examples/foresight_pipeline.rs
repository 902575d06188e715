//! Full Foresight pipeline from a JSON configuration: dataset synthesis,
//! CBench sweep, distortion analysis, and a Cinema artifact database, all
//! orchestrated as PAT jobs on the simulated SLURM cluster by
//! `run_pipeline`, the library behind `foresight-cli`.
//!
//! ```text
//! cargo run --release --example foresight_pipeline
//! ```

use foresight::{run_pipeline, ForesightConfig, SlurmSim};
use foresight_util::table::{fmt_f64, Table};
use std::process::ExitCode;

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
    let report = run_pipeline(&cfg, &SlurmSim::default()).expect("pipeline");

    let mut t =
        Table::new(["field", "compressor", "param", "ratio", "bitrate", "psnr_db", "max_abs_err"]);
    for r in &report.records {
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
    println!("== PAT report ==");
    for j in &report.workflow.jobs {
        println!("wave {} | {:<10} | {:>7.2}s | {}", j.wave, j.name, j.wall_seconds, j.output);
    }
    println!("{} artifacts in {}", report.artifacts, cfg.output.dir.display());
    if !report.workflow.all_ok() {
        eprintln!("workflow failed:\n{}", report.workflow.failure_summary());
    }
    ExitCode::from(report.workflow.exit_code())
}
