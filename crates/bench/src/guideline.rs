//! §V-D: the full configuration-optimization guideline as a PAT workflow.
//!
//! Runs the paper's three steps end to end: (1) CBench sweeps both
//! compressors over the Nyx dataset, (2) power-spectrum analysis marks
//! each configuration acceptable or not, (3) the optimizer picks the
//! highest-ratio acceptable configuration per field. The stages execute
//! as dependent jobs on the simulated SLURM cluster — the whole Fig. 2/3
//! pipeline in one exhibit. A failed or skipped job fails the exhibit.

use crate::prelude::*;
use foresight::cbench::run_sweep;
use foresight::{
    best_fit_per_field, overall_best_ratio, Acceptance, Candidate, CodecKind, Job, SlurmSim,
    Workflow,
};
use parking_lot::Mutex;
use std::sync::Arc;

pub(crate) fn build(ctx: &Ctx) -> Result<Exhibit> {
    let grid = Grid3::cube(ctx.cli.n_side);
    let box_size = ctx.cli.synth().box_size;
    let fields = Arc::new(ctx.nyx()?.1.to_vec());
    let configs: Vec<CodecConfig> = [1e-3, 3e-3, 1e-2]
        .iter()
        .map(|&b| CodecConfig::Sz(SzConfig::rel(b)))
        .chain([2.0, 4.0, 8.0].iter().map(|&r| CodecConfig::Zfp(ZfpConfig::rate(r))))
        .collect();

    // Stage outputs shared between jobs.
    let records = Arc::new(Mutex::new(Vec::new()));
    let candidates = Arc::new(Mutex::new(Vec::<Candidate>::new()));
    let exhibit = Arc::new(Mutex::new(Exhibit::default()));

    let mut wf = Workflow::new();
    let (f, r) = (fields.clone(), records.clone());
    wf.add(Job::new("cbench", 8, move || {
        let recs = run_sweep(&f, &configs, true)?;
        let n = recs.len();
        *r.lock() = recs;
        Ok(format!("{n} records"))
    }))?;
    let (r, c) = (records, candidates.clone());
    let spectra = Job::new("power-spectrum", 4, move || {
        let orig = (fields.iter())
            .map(|f| power_spectrum_f32(&f.data, grid, box_size, 10))
            .collect::<Result<Vec<_>>>()?;
        let mut cands = Vec::new();
        for mut rec in std::mem::take(&mut *r.lock()) {
            let i = (fields.iter().position(|f| f.name == rec.field))
                .ok_or_else(|| Error::invalid(format!("no field {}", rec.field)))?;
            let recon = rec.reconstructed.take().ok_or_else(|| Error::invalid("no recon kept"))?;
            let (_, dev) = pk_deviation(&orig[i], &recon, grid, box_size, 10)?;
            cands.push(Candidate { record: rec, pk_deviation: Some(dev), halo_deviation: None });
        }
        let n = cands.len();
        *c.lock() = cands;
        Ok(format!("{n} candidates"))
    });
    wf.add(spectra.after("cbench"))?;
    let out = exhibit.clone();
    let optimize = Job::new("optimize", 1, move || {
        let cands = candidates.lock();
        let acc = Acceptance::default();
        let mut table = Table::new(["compressor", "field", "chosen", "ratio", "acceptable/total"]);
        let mut lines = Vec::new();
        for comp in [CodecKind::Sz, CodecKind::Zfp] {
            let fits = best_fit_per_field(&cands, comp, &acc)?;
            for f in &fits {
                table.push_row([
                    comp.display().to_string(),
                    f.field.clone(),
                    f.param.clone(),
                    fmt_f64(f.ratio),
                    format!("{}/{}", f.acceptable_count, f.total_count),
                ]);
            }
            let overall = overall_best_ratio(&fits, &cands);
            lines.push(format!("{}: overall best-fit ratio {overall:.2}x", comp.display()));
        }
        let mut ex = Exhibit::default();
        ex.table("bestfit", table, &[("stage", "optimize")]);
        ex.text("overall.txt", lines.join("\n"), &[]);
        *out.lock() = ex;
        Ok(lines.join("; "))
    });
    wf.add(optimize.after("power-spectrum"))?;

    let report = wf.run(&SlurmSim::default())?;
    if !report.all_ok() {
        return Err(Error::Workflow(format!("workflow failed:\n{}", report.failure_summary())));
    }
    let ex = std::mem::take(&mut *exhibit.lock());
    Ok(ex)
}
