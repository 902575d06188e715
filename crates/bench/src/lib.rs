//! The paper's exhibits as one table.
//!
//! Every exhibit (Tables I–II, Figs. 1 and 4–10, the §V-D guideline, the
//! §II-A lossless baseline, the extension experiments and the Summit
//! projection) is a function `fn(&Ctx) -> Result<Exhibit>` registered in
//! [`EXHIBITS`] under its directory name in `results/`. The `exhibit`
//! binary runs one of them or all; [`Ctx`] synthesizes the Nyx and HACC
//! snapshots once, on first use, and every exhibit shares them.

#![forbid(unsafe_code)]

use cosmo_data::{generate_hacc, HaccSnapshot, NyxSnapshot, SynthOptions};
pub use foresight::cbench::nyx_fields;
use foresight::cbench::{run_one, FieldData};
use foresight::codec::{compress, CodecConfig};
use foresight::{ascii_chart, run_pipeline, CBenchRecord, CinemaDb};
use foresight::{ForesightConfig, PipelineReport, SlurmSim};
use foresight_util::cli::Failure;
use foresight_util::flags;
use foresight_util::rule::PowerOfTwo;
use foresight_util::table::Table;
use foresight_util::{Error, Result};
use gpu_sim::{run_compression, run_decompression, Breakdown, Device, GpuSpec, KernelKind};
use std::cell::OnceCell;
use std::path::{Path, PathBuf};

/// The vocabulary every exhibit module shares.
mod prelude {
    pub(crate) use crate::{chart, mean_bitrate, pipeline, roundtrip, simulate};
    pub(crate) use crate::{velocity_magnitude, Ctx, Exhibit, ZFP_KERNELS};
    pub(crate) use foresight::cbench::cubed;
    pub(crate) use cosmo_analysis::acceptance::{self, Verdict};
    pub(crate) use cosmo_analysis::power_spectrum_f32;
    pub(crate) use cosmo_fft::Grid3;
    pub(crate) use foresight::{ascii_chart, cbench::run_one, codec::CodecConfig};
    pub(crate) use foresight_util::table::{fmt_f64, Table};
    pub(crate) use foresight_util::{Error, Result};
    pub(crate) use lossy_sz::SzConfig;
    pub(crate) use lossy_zfp::ZfpConfig;
}

flags! {
    /// The options every exhibit reads.
    #[derive(Debug, Clone)]
    pub struct Cli: Default = "exhibit <id>|all" {
        /// grid / particle-lattice side (the paper used 512 / 1024)
        pub n_side: usize as "--n-side" "<n>" = 64, in PowerOfTwo(8);
        /// seed of the synthetic universe
        pub seed: u64 as "--seed" "<s>" = 0x5EED;
        /// particle-mesh steps
        pub steps: usize as "--steps" "<k>" = 10;
        // The codecs always run on the real n-side data; the device model,
        // linear in volume, is evaluated at sim-side^3 values a field so the
        // breakdown matches the paper's 512^3 scale.
        /// grid side the V100 timing model assumes (Figs. 7, 8, 10); the codecs run at n-side
        pub sim_side: usize as "--sim-side" "<m>" = 512;
        /// output root; each exhibit writes <dir>/<id>/
        pub out: PathBuf as "--out" "<dir>" = PathBuf::from("results");
    }
}

impl Cli {
    /// Synthesis options derived from the CLI.
    pub fn synth(&self) -> SynthOptions {
        SynthOptions { n_side: self.n_side, box_size: 256.0, seed: self.seed, steps: self.steps }
    }
}

/// Everything an exhibit reads: the CLI and the synthetic snapshots,
/// each generated on first use and shared by every exhibit after it.
pub struct Ctx {
    /// The parsed command line.
    pub cli: Cli,
    nyx: OnceCell<(NyxSnapshot, Vec<FieldData>)>,
    hacc: OnceCell<HaccSnapshot>,
}

impl Ctx {
    /// A context whose snapshots are not generated yet.
    pub fn new(cli: Cli) -> Self {
        Self { cli, nyx: OnceCell::new(), hacc: OnceCell::new() }
    }

    /// The Nyx snapshot and its six fields wrapped for CBench.
    pub fn nyx(&self) -> Result<(&NyxSnapshot, &[FieldData])> {
        let (snap, fields) = cached(&self.nyx, || nyx_fields(&self.cli.synth()))?;
        Ok((snap, fields))
    }

    /// The HACC snapshot.
    pub fn hacc(&self) -> Result<&HaccSnapshot> {
        cached(&self.hacc, || generate_hacc(&self.cli.synth()))
    }
}

/// The value in `cell`, made by `make` on first use.
fn cached<T>(cell: &OnceCell<T>, make: impl FnOnce() -> Result<T>) -> Result<&T> {
    if let Some(v) = cell.get() {
        return Ok(v);
    }
    let v = make()?;
    Ok(cell.get_or_init(|| v))
}

/// What one exhibit produced: the files of `results/<id>/`.
#[derive(Default)]
pub struct Exhibit {
    artifacts: Vec<(String, Body, Index)>,
}

enum Body {
    Table(Table),
    Text(String),
    /// Written but not indexed in `data.csv` (images).
    Bytes(Vec<u8>),
}

/// File-name suffix of a wall-clock table: rows measured on this host,
/// or derived from such measurements. Everything else an exhibit writes
/// is a function of the CLI alone; the pin and the CI diff skip these.
pub const WALL_CLOCK: &str = ".wall.csv";

/// An artifact's parameter columns in the Cinema index.
type Index = Vec<(&'static str, String)>;

fn params(p: &[(&'static str, &str)]) -> Index {
    p.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

impl Exhibit {
    /// A deterministic table, written as `<name>.csv`.
    pub fn table(&mut self, name: &str, table: Table, index: &[(&'static str, &str)]) {
        self.artifacts.push((format!("{name}.csv"), Body::Table(table), params(index)));
    }

    /// A wall-clock table, written as `<name>.wall.csv`.
    pub fn wall_table(&mut self, name: &str, table: Table, index: &[(&'static str, &str)]) {
        self.artifacts.push((format!("{name}{WALL_CLOCK}"), Body::Table(table), params(index)));
    }

    /// A text artifact (an ASCII chart or a summary).
    pub fn text(&mut self, file: &str, text: String, index: &[(&'static str, &str)]) {
        self.artifacts.push((file.to_string(), Body::Text(text), params(index)));
    }

    /// A binary file (an image), written but not indexed.
    pub fn file(&mut self, file: &str, bytes: Vec<u8>) {
        self.artifacts.push((file.to_string(), Body::Bytes(bytes), Vec::new()));
    }

    /// Prints every table's ASCII form and every text.
    pub fn print(&self) {
        for (file, body, _) in &self.artifacts {
            match body {
                Body::Table(t) => println!("{file}:\n{}", t.to_ascii()),
                Body::Text(s) => println!("{file}:\n{s}"),
                Body::Bytes(_) => {}
            }
        }
    }

    /// Writes every file into `dir` and indexes them in a Cinema DB.
    pub fn write(&self, dir: &Path) -> Result<()> {
        let mut db = CinemaDb::create(dir)?;
        for (file, body, index) in &self.artifacts {
            match body {
                Body::Table(t) => db.add_table(file, t, index)?,
                Body::Text(s) => db.add_text(file, s, index)?,
                Body::Bytes(b) => std::fs::write(dir.join(file), b)?,
            }
        }
        db.finalize()?;
        Ok(())
    }
}

/// One registered exhibit.
pub struct Entry {
    /// Its directory under the output root, and its name on the command line.
    pub id: &'static str,
    /// Computes it.
    pub build: fn(&Ctx) -> Result<Exhibit>,
}

/// Declares one module per exhibit and registers its `build` under the
/// module's name, so an id and its code cannot drift apart.
macro_rules! registry {
    ($($id:ident),*) => {
        $(mod $id;)*
        /// Every exhibit, in DESIGN §4 order.
        pub const EXHIBITS: &[Entry] = &[$(Entry { id: stringify!($id), build: $id::build }),*];
    };
}

registry! {
    table1, table2, fig1, fig4, fig5, fig6, fig7, fig8, fig9, fig10, guideline, baseline_lossless,
    extensions, summit_projection
}

/// Splits `exhibit <id>|all [flags]` into the exhibits to run and the CLI.
pub fn select(args: &[String]) -> std::result::Result<(Vec<&'static Entry>, Cli), Failure> {
    let (id, flags) = args.split_first().ok_or(Failure::usage("exhibit: missing exhibit id"))?;
    let entries: Vec<_> = EXHIBITS.iter().filter(|e| id == "all" || e.id == id).collect();
    if entries.is_empty() {
        return Err(Failure::usage(format!("exhibit: unknown exhibit '{id}'")));
    }
    Ok((entries, Cli::parse(flags, &[])?))
}

/// Builds one exhibit, prints it and writes it to `<out>/<id>/`.
pub fn run(ctx: &Ctx, entry: &Entry) -> Result<PathBuf> {
    let exhibit = (entry.build)(ctx)?;
    println!("== {} ==\n", entry.id);
    exhibit.print();
    let dir = ctx.cli.out.join(entry.id);
    exhibit.write(&dir)?;
    Ok(dir)
}

/// Runs the pipeline a `foresight-cli` user would configure over the
/// CLI's universe: `dataset`, and the config's `compressors` (`sweep`)
/// and `analysis` as JSON. A failed or skipped job fails the exhibit.
pub fn pipeline(ctx: &Ctx, dataset: &str, sweep: &str, analysis: &str) -> Result<PipelineReport> {
    let s = ctx.cli.synth();
    let cfg = ForesightConfig::from_json(&format!(
        r#"{{"input": {{"dataset": "{dataset}", "n_side": {}, "seed": {}, "steps": {},
                        "box_size": {:?}}},
            "compressors": {sweep}, "analysis": {analysis}, "output": {{"dir": "."}}}}"#,
        s.n_side, s.seed, s.steps, s.box_size
    ))?;
    let report = run_pipeline(&cfg, &SlurmSim::default())?;
    if !report.workflow.all_ok() {
        let failed = report.workflow.failure_summary();
        return Err(Error::Workflow(format!("workflow failed:\n{failed}")));
    }
    Ok(report)
}

/// Velocity magnitude `|v|` from three component arrays (paper Fig. 5's
/// power spectrum input).
pub fn velocity_magnitude(vx: &[f32], vy: &[f32], vz: &[f32]) -> Vec<f32> {
    vx.iter()
        .zip(vy)
        .zip(vz)
        .map(|((&x, &y), &z)| {
            ((x as f64).powi(2) + (y as f64).powi(2) + (z as f64).powi(2)).sqrt() as f32
        })
        .collect()
}

/// [`ascii_chart`] over named, owned series.
pub fn chart(series: &[(String, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    let refs: Vec<(&str, &[(f64, f64)])> =
        series.iter().map(|(n, s)| (n.as_str(), s.as_slice())).collect();
    ascii_chart(&refs, width, height)
}

/// Runs `cfg` over `field` and returns the record and the reconstruction.
pub fn roundtrip(field: &FieldData, cfg: &CodecConfig) -> Result<(CBenchRecord, Vec<f32>)> {
    let mut rec = run_one(field, cfg, true)?;
    let recon = rec.reconstructed.take().ok_or_else(|| Error::invalid("no reconstruction"))?;
    Ok((rec, recon))
}

/// The V100 model's cuZFP kernels: (compress, decompress).
pub const ZFP_KERNELS: (KernelKind, KernelKind) =
    (KernelKind::ZfpCompress, KernelKind::ZfpDecompress);

/// Mean achieved bits per value of `cfg` over `fields`.
pub fn mean_bitrate(fields: &[FieldData], cfg: &CodecConfig) -> Result<f64> {
    let mut bits = 0.0;
    for f in fields {
        bits += compress(&f.data, f.shape, cfg)?.len() as f64 * 8.0 / f.data.len() as f64;
    }
    Ok(bits / fields.len() as f64)
}

/// The V100 model's compression and decompression of `n_values` at
/// `bits` per value: the two time breakdowns.
pub fn simulate(
    kinds: (KernelKind, KernelKind),
    n_values: u64,
    bits: f64,
) -> Result<(Breakdown, Breakdown)> {
    let dev = &mut Device::new(GpuSpec::tesla_v100());
    let comp_bytes = (bits * n_values as f64 / 8.0) as u64;
    let ((), c) = run_compression(dev, kinds.0, n_values, bits, "exhibit", || ((), comp_bytes))?;
    let ((), d) = run_decompression(dev, kinds.1, n_values, comp_bytes, "exhibit", || ())?;
    Ok((c.breakdown, d.breakdown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use foresight::cbench::cubed;
    use foresight::codec::Shape;

    #[test]
    fn nyx_fields_have_right_shape() {
        let opts = SynthOptions { n_side: 16, box_size: 256.0, seed: 1, steps: 2 };
        let (snap, fields) = nyx_fields(&opts).unwrap();
        assert_eq!(fields.len(), 6);
        assert!(fields.iter().all(|f| f.shape == Shape::D3(16, 16, 16)));
        let v = velocity_magnitude(&snap.velocity_x, &snap.velocity_y, &snap.velocity_z);
        assert_eq!(v.len(), 4096);
    }

    #[test]
    fn hacc_cubed_fields_cover_all_particles() {
        let opts = SynthOptions { n_side: 16, box_size: 256.0, seed: 1, steps: 2 };
        let snap = generate_hacc(&opts).unwrap();
        let fields: Vec<_> = snap.fields().iter().map(|(n, d)| cubed(n, d).unwrap()).collect();
        assert_eq!(fields.len(), 6);
        for f in &fields {
            assert!(f.data.len() >= snap.len(), "{}: padded length", f.name);
        }
    }

    #[test]
    fn velocity_magnitude_is_nonnegative() {
        let opts = SynthOptions { n_side: 8, box_size: 256.0, seed: 3, steps: 1 };
        let (snap, _) = nyx_fields(&opts).unwrap();
        let v = velocity_magnitude(&snap.velocity_x, &snap.velocity_y, &snap.velocity_z);
        assert!(v.iter().all(|&v| v >= 0.0));
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn bad_arguments_are_usage_errors_not_panics() {
        for bad in [
            "fig4 --seed x",
            "fig4 --n-side 12",
            "fig4 --n-side 4",
            "fig4 --steps",
            "fig4 --bogus 1",
            "fig11",
            "",
        ] {
            let got = std::panic::catch_unwind(|| select(&argv(bad)).map(|_| ()));
            assert!(matches!(got, Ok(Err(_))), "'{bad}' must be a usage error: {got:?}");
        }
        let (entries, cli) = select(&argv("fig6 --n-side 16 --seed 7 --out o")).unwrap();
        assert_eq!((entries[0].id, cli.n_side, cli.seed), ("fig6", 16, 7));
        assert_eq!(select(&argv("all")).unwrap().0.len(), EXHIBITS.len());
    }
}
