//! JSON configuration for Foresight pipelines.
//!
//! The real Foresight is driven by "a simple JSON file" (paper §IV-A);
//! this module mirrors that: dataset selection, compressor sweeps,
//! analysis stages, and output location, parsed with the workspace's
//! own JSON module and validated before a run.
//!
//! ```json
//! {
//!   "input":       { "dataset": "nyx", "n_side": 64, "seed": 42, "steps": 10 },
//!   "compressors": [ { "name": "gpu-sz", "mode": "abs", "bounds": [0.1, 0.2] },
//!                    { "name": "cuzfp", "rates": [2, 4, 8] } ],
//!   "analysis":    [ "distortion", "power-spectrum" ],
//!   "output":      { "dir": "out", "cinema": true },
//!   "chaos":       { "seed": 7, "transfer": 0.05, "node": 0.1 },
//!   "sanitize":    { "memcheck": true, "racecheck": true },
//!   "serve":       { "devices": 6, "link": "nvlink", "requests": 48 }
//! }
//! ```
//!
//! The optional `chaos` section turns on seeded fault injection: the
//! sweep runs through the simulated GPU with the given failure rates and
//! the PAT workflow retries jobs under node-level faults (see
//! [`ChaosSettings`]). The optional `sanitize` section attaches the
//! device sanitizer to every GPU run (see [`SanitizeSettings`]). The
//! optional `serve` section configures the `serve-bench` scheduler
//! benchmark (see [`ServeSettings`]), and the optional `cluster` section
//! configures the `cluster-bench` multi-node serving benchmark — node
//! count, replication, router knobs, Zipf workload, and an explicit
//! node-fault schedule (see [`ClusterSettings`]). The optional `slo`
//! array declares service-level objectives evaluated over the windowed
//! telemetry series with multi-window burn-rate alerts (see
//! [`SloSetting`] and [`crate::obs`]).
//!
//! Every section below is one `section!` declaration that states each
//! option once; DESIGN.md "Configuration schema" has the policy.

use crate::cbench::ChaosConfig;
use crate::codec::CodecConfig;
use foresight_util::json::{must_be, Json, Value};
use foresight_util::rule::{Allowed, NonEmpty, OneOf};
use foresight_util::{Error, Result};
use gpu_sim::{FaultRates, SanitizerConfig};
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::path::PathBuf;

/// The dotted path of `key` inside the section at `at` (`""` is the top
/// level).
fn join(at: &str, key: &str) -> String {
    if at.is_empty() {
        key.to_string()
    } else {
        format!("{at}.{key}")
    }
}

/// Fails unless `section` is an object whose every key is in `known`.
fn known_keys(section: &Value, at: &str, known: &[&str]) -> Result<()> {
    let here = if at.is_empty() { "the top level" } else { at };
    let fields = section.as_object().ok_or_else(|| must_be(here, "an object", section))?;
    match fields.iter().find(|(key, _)| !known.contains(&key.as_str())) {
        None => Ok(()),
        Some((key, _)) => Err(Error::Config(format!(
            "{} is not a known option; {here} accepts: {}",
            join(at, key),
            known.join(", ")
        ))),
    }
}

/// A JSON object of `fields` in the order given; a `None` option is left
/// out rather than written as `null`.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    let kept = fields.into_iter().filter(|(_, v)| *v != Value::Null);
    Value::Object(kept.map(|(k, v)| (k.to_string(), v)).collect())
}

/// Above zero.
const POSITIVE: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Unbounded);

/// Fails with "`at` must be …" unless `rule` allows `value`.
fn allowed<T: Json>(rule: &impl Allowed<T>, value: &T, at: &str) -> Result<()> {
    if rule.allows(value) {
        Ok(())
    } else {
        Err(must_be(at, rule.describe(), &value.write()))
    }
}

/// Declares one config section, stating each option once:
///
/// ```text
/// /// doc comment
/// pub field [as "json_key"]: Type [= default] [, in rule] [, each in rule];
/// ```
///
/// The JSON key is the field name unless `as` renames it; an option
/// without a default is required; `default` may use the options declared
/// above it, and so may a `rule`, which is any [`Allowed`] applied to the
/// value (`in`) or to every entry of a list or optional (`each in`). `pub
/// struct Name:
/// Default` also derives `Default` (every option then needs a default).
/// `also rules` after the body names a hand-written `fn rules(&self, at:
/// &str) -> Result<()>` for what relates two options. The `pub enum Name
/// by "tag"` form declares a section whose `tag` key picks the variant.
///
/// Reading is the only place a rule is applied, so a section is valid
/// exactly when its written form reads back ([`ForesightConfig::validate`]).
macro_rules! section {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };

    // One option of section object `$v`: read or defaulted, then checked.
    (@read $v:ident, $at:ident, $key:expr, $ty:ty
        $(, = $default:expr)? $(, in $rule:expr)? $(, each in $each:expr)?) => {{
        let path = join($at, $key);
        let value: $ty = match $v.get($key) {
            Some(json) => Json::read(json, &path)?,
            None => section!(@absent path $(, $default)?),
        };
        $(allowed(&$rule, &value, &path)?;)?
        $(value.iter().try_for_each(|entry| allowed(&$each, entry, &path))?;)?
        value
    }};
    (@absent $path:ident, $default:expr) => { $default };
    (@absent $path:ident) => { return Err(Error::Config(format!("{} is required", $path))) };

    (@default Default, $name:ident { $($field:ident = $default:expr),+ }) => {
        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default),+ }
            }
        }
    };
    (@default , $($unused:tt)*) => {};

    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $derive_default:ident)? {
            $(
                $(#[$field_meta:meta])*
                pub $field:ident $(as $key:literal)? : $ty:ty $(= $default:expr)?
                    $(, in $rule:expr)? $(, each in $each:expr)? ;
            )+
        }
        $(also $rules:ident)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)+
        }

        section!(@default $($derive_default)?, $name { $($field $(= $default)?),+ });

        impl Json for $name {
            fn read(v: &Value, at: &str) -> Result<Self> {
                known_keys(v, at, &[$(section!(@key $field $($key)?)),+])?;
                $(
                    let $field = section!(
                        @read v, at, section!(@key $field $($key)?), $ty
                        $(, = $default)? $(, in $rule)? $(, each in $each)?
                    );
                )+
                let section = $name { $($field),+ };
                $(section.$rules(at)?;)?
                Ok(section)
            }
            fn write(&self) -> Value {
                object([$((section!(@key $field $($key)?), self.$field.write())),+])
            }
        }
    };

    (
        $(#[$meta:meta])*
        pub enum $name:ident by $tag:literal {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident = $text:literal {
                    $(
                        $(#[$field_meta:meta])*
                        $field:ident : $ty:ty $(= $default:expr)?
                            $(, in $rule:expr)? $(, each in $each:expr)? ;
                    )+
                }
            )+
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$variant_meta])* $variant { $($(#[$field_meta])* $field: $ty,)+ },)+
        }

        impl Json for $name {
            fn read(v: &Value, at: &str) -> Result<Self> {
                let tag = v.get($tag).unwrap_or(&Value::Null);
                match tag.as_str() {
                    $(Some($text) => {
                        known_keys(v, at, &[$tag, $(stringify!($field)),+])?;
                        $(
                            let $field = section!(
                                @read v, at, stringify!($field), $ty
                                $(, = $default)? $(, in $rule)? $(, each in $each)?
                            );
                        )+
                        Ok($name::$variant { $($field),+ })
                    })+
                    _ => Err(must_be(&join(at, $tag), OneOf(&[$($text),+]).describe(), tag)),
                }
            }
            fn write(&self) -> Value {
                match self {
                    $($name::$variant { $($field),+ } => object([
                        ($tag, Value::String($text.into())),
                        $((stringify!($field), $field.write())),+
                    ]),)+
                }
            }
        }
    };
}

/// Declares an enum whose variants configs write by name.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident { $($(#[$variant_meta:meta])* $variant:ident = $text:literal,)+ }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$variant_meta])* $variant,)+
        }

        impl Json for $name {
            fn read(v: &Value, at: &str) -> Result<Self> {
                match v.as_str() {
                    $(Some($text) => Ok($name::$variant),)+
                    _ => Err(must_be(at, OneOf(&[$($text),+]).describe(), v)),
                }
            }
            fn write(&self) -> Value {
                Value::String(match self { $($name::$variant => $text,)+ }.into())
            }
        }
    };
}

named_enum! {
    /// Which synthetic dataset to generate.
    pub enum DatasetKind {
        /// HACC-like particle snapshot (six 1-D arrays).
        Hacc = "hacc",
        /// Nyx-like grid snapshot (six 3-D fields).
        Nyx = "nyx",
    }
}

section! {
    /// Input dataset parameters.
    #[derive(Debug, Clone, PartialEq)]
    pub struct InputConfig {
        /// Dataset family.
        pub dataset: DatasetKind;
        /// Grid/particle-lattice side (default 64).
        pub n_side: usize = 64;
        /// RNG seed for the synthetic universe (default 0).
        pub seed: u64 = 0;
        /// PM steps (clustering strength, default 10).
        pub steps: usize = 10;
        /// Box side length (default 256.0).
        pub box_size: f64 = 256.0;
    }
    also rules
}

impl InputConfig {
    fn rules(&self, at: &str) -> Result<()> {
        if self.n_side < 8 || !self.n_side.is_power_of_two() {
            return Err(must_be(&join(at, "n_side"), "a power of two >= 8", &self.n_side.write()));
        }
        Ok(())
    }
}

named_enum! {
    /// SZ error-bound mode names used in configs.
    pub enum SzModeKind {
        /// Absolute bound.
        Abs = "abs",
        /// Value-range relative bound.
        Rel = "rel",
        /// Point-wise relative bound (log-transform scheme).
        PwRel = "pw_rel",
    }
}

section! {
    /// One compressor sweep entry.
    #[derive(Debug, Clone, PartialEq)]
    pub enum CompressorSweep by "name" {
        /// GPU-SZ with a list of error bounds.
        GpuSz = "gpu-sz" {
            /// Error-bound mode.
            mode: SzModeKind;
            /// Bounds to sweep.
            bounds: Vec<f64>, in NonEmpty, each in POSITIVE;
            /// Optional block-size override.
            block_size: Option<usize> = None, each in 2..;
        }
        /// cuZFP with a list of fixed rates.
        Cuzfp = "cuzfp" {
            /// Bitrates to sweep.
            rates: Vec<f64>, in NonEmpty, each in (Excluded(0.0), Included(64.0));
        }
    }
}

named_enum! {
    /// Analysis stages to run after compression.
    pub enum AnalysisKind {
        /// PSNR/MSE/MRE and rate-distortion.
        Distortion = "distortion",
        /// Matter power spectrum pk-ratio.
        PowerSpectrum = "power-spectrum",
        /// FoF halo finder comparison.
        HaloFinder = "halo-finder",
        /// GPU/CPU throughput modeling.
        Throughput = "throughput",
    }
}

section! {
    /// Output location and options.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OutputConfig {
        /// Directory for CSVs and the Cinema database.
        pub dir: PathBuf;
        /// Whether to emit a Cinema-style database (default false).
        pub cinema: bool = false;
    }
}

section! {
    /// Optional fault-injection ("chaos") settings for a pipeline run.
    ///
    /// When present, CBench runs through the simulated GPU with the given
    /// fault rates (quarantining persistently failing pairs) and the PAT
    /// workflow executes with per-job retries under node-level faults. All
    /// injection is seeded, so a run is reproducible bit-for-bit.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ChaosSettings {
        /// Master fault seed (default 0).
        pub seed: u64 = 0;
        /// Per-transfer PCIe failure probability (default 0).
        pub transfer: f64 = 0.0, in 0.0..=1.0;
        /// Per-download silent bit-flip probability (default 0).
        pub bit_flip: f64 = 0.0, in 0.0..=1.0;
        /// Per-launch kernel-fault probability (default 0).
        pub kernel: f64 = 0.0, in 0.0..=1.0;
        /// Per-allocation spurious-OOM probability (default 0).
        pub oom: f64 = 0.0, in 0.0..=1.0;
        /// Per-wave node-failure probability (default 0).
        pub node: f64 = 0.0, in 0.0..=1.0;
        /// Per-device-operation retry budget (default 3).
        pub device_retries: u32 = 3;
        /// Whole-GPU-roundtrip retries before CPU fallback (default 2).
        pub op_retries: u32 = 2;
        /// Per-job workflow retries (default 2).
        pub job_retries: u32 = 2;
    }
}

impl ChaosSettings {
    /// The device-level fault rates.
    pub fn fault_rates(&self) -> FaultRates {
        FaultRates {
            transfer: self.transfer,
            bit_flip: self.bit_flip,
            kernel: self.kernel,
            oom: self.oom,
            node: self.node,
        }
    }

    /// The CBench chaos-sweep configuration these settings describe.
    pub fn to_chaos_config(&self) -> ChaosConfig {
        ChaosConfig {
            device_retries: self.device_retries,
            op_retries: self.op_retries,
            ..ChaosConfig::new(self.seed, self.fault_rates())
        }
    }
}

section! {
    /// Optional device-sanitizer ("sanitize") settings for a pipeline run.
    ///
    /// When present, the sweep runs through the simulated GPU with a
    /// sanitizer attached: codec kernels execute on the traced launch path,
    /// memcheck shadows every device allocation, and racecheck intersects
    /// per-block access ranges. Findings surface in the pipeline report (and
    /// fail the CLI with a dedicated exit code). Both checks default to on;
    /// disable one with `"memcheck": false` / `"racecheck": false`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct SanitizeSettings {
        /// Shadow-heap checks: bounds, uninitialized reads, double-free,
        /// use-after-free, leaks (default true).
        pub memcheck: bool = true;
        /// Cross-block race detection on traced launches (default true).
        pub racecheck: bool = true;
    }
    also rules
}

impl SanitizeSettings {
    /// The device-level checker configuration.
    pub fn to_sanitizer_config(self) -> SanitizerConfig {
        SanitizerConfig { memcheck: self.memcheck, racecheck: self.racecheck }
    }

    fn rules(&self, at: &str) -> Result<()> {
        if !self.memcheck && !self.racecheck {
            return Err(Error::Config(format!(
                "{at} enables neither memcheck nor racecheck; drop the section instead"
            )));
        }
        Ok(())
    }
}

/// Host links a serving node's devices can sit on.
const LINKS: OneOf = OneOf(&["nvlink", "pcie"]);

/// `devices` V100s on the named host link.
fn v100_node(devices: usize, link: &str) -> crate::serve::ServeNode {
    let mut node = crate::serve::ServeNode::v100_pcie(devices);
    if link == "nvlink" {
        node.link = gpu_sim::PcieLink::nvlink2();
    }
    node
}

/// The largest `shard_kb`: `shard_kb * 1024` bytes must fit `u64`.
const MAX_SHARD_KB: usize = usize::MAX >> 10;

section! {
    /// Optional serving-scheduler ("serve") settings.
    ///
    /// When present, `foresight-cli serve-bench` uses these instead of its
    /// built-in defaults: the node shape (device count and host link), the
    /// scheduler knobs ([`crate::serve::ServeOptions`]), and the synthetic
    /// open-loop workload ([`crate::serve::WorkloadSpec`]). Device fault
    /// rates are *not* duplicated here — serve-bench reads them from the
    /// existing `chaos` section so one knob governs all fault injection.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServeSettings: Default {
        /// Simulated devices on the serving node (default 6).
        pub devices: usize = 6, in 1..;
        /// Host link: `"nvlink"` (default, Summit-like) or `"pcie"`.
        pub link: String = "nvlink".into(), in LINKS;
        /// Max units per dispatched batch (default 8).
        pub max_batch: usize = 8, in 1..;
        /// Outstanding-unit bound before admission rejects (default 64).
        pub queue_depth: usize = 64, in 1..;
        /// Shard threshold in KiB (default 256).
        pub shard_kb: usize = 256, in 1..=MAX_SHARD_KB;
        /// Batching window in milliseconds (default 1.0).
        pub window_ms: f64 = 1.0, in POSITIVE;
        /// Scheduler fault seed (default 0).
        pub seed: u64 = 0;
        /// Synthetic workload: request count (default 48).
        pub requests: usize = 48;
        /// Synthetic workload: mean arrival rate, requests/s (default 4000).
        pub arrival_hz: f64 = 4000.0, in POSITIVE;
        /// Synthetic workload: per-request deadline in ms; 0 means none
        /// (default 0).
        pub deadline_ms: f64 = 0.0, in 0.0..;
        /// Synthetic workload: decompression fraction (default 0.25).
        pub decompress_fraction: f64 = 0.25, in 0.0..=1.0;
    }
}

impl ServeSettings {
    /// The serving node these settings describe (V100 devices; the link
    /// string picks the interconnect).
    pub fn to_node(&self) -> crate::serve::ServeNode {
        v100_node(self.devices, &self.link)
    }

    /// Scheduler options; `rates` come from the `chaos` section (or
    /// default quiet).
    pub fn to_serve_options(&self, rates: FaultRates) -> crate::serve::ServeOptions {
        crate::serve::ServeOptions {
            max_batch: self.max_batch,
            queue_depth: self.queue_depth,
            shard_bytes: self.shard_kb as u64 * 1024,
            window_s: self.window_ms * 1e-3,
            seed: self.seed,
            rates,
            ..crate::serve::ServeOptions::default()
        }
    }

    /// The synthetic open-loop workload these settings describe.
    pub fn to_workload_spec(&self) -> crate::serve::WorkloadSpec {
        crate::serve::WorkloadSpec {
            requests: self.requests,
            seed: self.seed,
            arrival_hz: self.arrival_hz,
            deadline_s: (self.deadline_ms > 0.0).then_some(self.deadline_ms * 1e-3),
            decompress_fraction: self.decompress_fraction,
            ..crate::serve::WorkloadSpec::default()
        }
    }
}

section! {
    /// One scheduled node-level fault in a `cluster` section.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ClusterFaultSetting {
        /// `"crash"`, `"slow"`, or `"partition"`.
        pub kind: String, in OneOf(&["crash", "slow", "partition"]);
        /// Target node index.
        pub node: usize = 0;
        /// Onset, milliseconds on the simulated clock.
        pub at_ms: f64 = 0.0, in 0.0..;
        /// Duration in milliseconds (ignored for `crash`).
        pub duration_ms: f64 = 0.0, in 0.0..;
        /// Straggler factor (only for `slow`; must be >= 1).
        pub factor: f64 = 1.0;
    }
}

impl ClusterFaultSetting {
    fn to_event(&self) -> Result<gpu_sim::NodeFaultEvent> {
        let kind = match self.kind.as_str() {
            "crash" => gpu_sim::NodeFaultKind::Crash,
            "slow" => gpu_sim::NodeFaultKind::Slow,
            "partition" => gpu_sim::NodeFaultKind::Partition,
            other => {
                return Err(Error::Config(format!(
                    "cluster fault kind must be crash|slow|partition, got '{other}'"
                )))
            }
        };
        Ok(gpu_sim::NodeFaultEvent {
            node: self.node,
            kind,
            at_s: self.at_ms * 1e-3,
            duration_s: self.duration_ms * 1e-3,
            slow_factor: self.factor,
        })
    }
}

section! {
    /// Optional multi-node serving ("cluster") settings.
    ///
    /// When present, `foresight-cli cluster-bench` uses these instead of its
    /// built-in defaults: the cluster shape (node count, replication, devices
    /// per node), the router knobs ([`crate::cluster::ClusterOptions`]), the
    /// Zipf open-loop workload ([`crate::cluster::ClusterWorkloadSpec`]), and
    /// an explicit node-fault schedule (`faults`). Absent `faults` means a
    /// healthy run; `cluster-bench` injects its own node-kill when asked for
    /// chaos.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ClusterSettings: Default {
        /// Serving nodes (default 4).
        pub nodes: usize = 4, in 1..;
        /// Replicas per placement key (default 2).
        pub replication: usize = 2, in 1..=nodes;
        /// Devices per node (default 2).
        pub devices: usize = 2, in 1..;
        /// Host link per device: `"nvlink"` (default) or `"pcie"`.
        pub link: String = "nvlink".into(), in LINKS;
        /// Per-node outstanding-unit bound (default 64).
        pub queue_depth: usize = 64, in 1..;
        /// Shard threshold in KiB (default 256).
        pub shard_kb: usize = 256, in 1..=MAX_SHARD_KB;
        /// Batching window in milliseconds (default 1.0).
        pub window_ms: f64 = 1.0, in POSITIVE;
        /// Seed for jitter, workload, and fault streams (default 0).
        pub seed: u64 = 0;
        /// Health-probe interval in milliseconds (default 2.0).
        pub heartbeat_ms: f64 = 2.0, in POSITIVE;
        /// Missed probes before a node is marked down (default 2).
        pub probe_misses: u32 = 2, in 1..;
        /// Failures that open a node's circuit breaker (default 3).
        pub breaker_threshold: u32 = 3, in 1..;
        /// Open-breaker cooldown in milliseconds (default 20.0).
        pub breaker_open_ms: f64 = 20.0, in POSITIVE;
        /// First redirect backoff in milliseconds (default 0.5).
        pub backoff_base_ms: f64 = 0.5, in POSITIVE;
        /// Redirect backoff cap in milliseconds (default 8.0).
        pub backoff_cap_ms: f64 = 8.0, in backoff_base_ms..;
        /// Workload: request count (default 96).
        pub requests: usize = 96;
        /// Workload: mean arrival rate, requests/s (default 6000).
        pub arrival_hz: f64 = 6000.0, in POSITIVE;
        /// Workload: catalog size, distinct placement keys (default 12).
        pub fields: usize = 12, in 1..;
        /// Workload: Zipf popularity exponent (default 1.1).
        pub zipf_s: f64 = 1.1, in 0.0..;
        /// Workload: decompression fraction (default 0.25).
        pub decompress_fraction: f64 = 0.25, in 0.0..=1.0;
        /// Workload: per-request deadline in ms; 0 means none (default 0).
        pub deadline_ms: f64 = 0.0, in 0.0..;
        /// Workload: priority tiers (default 3).
        pub priorities: u8 = 3, in 1..;
        /// Scheduled node faults (default none).
        pub faults: Vec<ClusterFaultSetting> = Vec::new();
    }
    also rules
}

impl ClusterSettings {
    /// The cluster shape these settings describe.
    pub fn to_cluster(&self) -> crate::cluster::ServeCluster {
        let node = v100_node(self.devices, &self.link);
        crate::cluster::ServeCluster::new(self.nodes, self.replication, node)
    }

    /// Router options including the configured fault schedule.
    pub fn to_cluster_options(&self) -> Result<crate::cluster::ClusterOptions> {
        Ok(crate::cluster::ClusterOptions {
            serve: crate::serve::ServeOptions {
                queue_depth: self.queue_depth,
                shard_bytes: self.shard_kb as u64 * 1024,
                window_s: self.window_ms * 1e-3,
                seed: self.seed,
                ..crate::serve::ServeOptions::default()
            },
            heartbeat_s: self.heartbeat_ms * 1e-3,
            probe_misses: self.probe_misses,
            breaker_threshold: self.breaker_threshold,
            breaker_open_s: self.breaker_open_ms * 1e-3,
            backoff_base_s: self.backoff_base_ms * 1e-3,
            backoff_cap_s: self.backoff_cap_ms * 1e-3,
            chaos: self.to_chaos_plan()?,
        })
    }

    /// The configured node-fault schedule (quiet when `faults` is empty).
    pub fn to_chaos_plan(&self) -> Result<gpu_sim::NodeChaosPlan> {
        let events = self
            .faults
            .iter()
            .map(ClusterFaultSetting::to_event)
            .collect::<Result<Vec<_>>>()?;
        gpu_sim::NodeChaosPlan::new(events)
            .map_err(|e| Error::Config(format!("cluster faults: {e}")))
    }

    /// The Zipf open-loop workload these settings describe.
    pub fn to_workload_spec(&self) -> crate::cluster::ClusterWorkloadSpec {
        crate::cluster::ClusterWorkloadSpec {
            requests: self.requests,
            seed: self.seed,
            arrival_hz: self.arrival_hz,
            fields: self.fields,
            zipf_s: self.zipf_s,
            decompress_fraction: self.decompress_fraction,
            deadline_s: (self.deadline_ms > 0.0).then_some(self.deadline_ms * 1e-3),
            priorities: self.priorities,
        }
    }

    fn rules(&self, at: &str) -> Result<()> {
        for (i, f) in self.faults.iter().enumerate() {
            if f.node >= self.nodes {
                return Err(Error::Config(format!(
                    "{at}.faults[{i}].node must be below nodes={}, got {}",
                    self.nodes, f.node
                )));
            }
        }
        // The slow-factor rule depends on the fault kind; the chaos model
        // owns it.
        self.to_chaos_plan()?;
        Ok(())
    }
}

section! {
    /// One declarative service-level objective, from the optional `slo`
    /// array:
    ///
    /// ```json
    /// { "slo": [ { "metric": "cluster.latency.p99", "threshold_ms": 5.0,
    ///              "window": 0.002 } ] }
    /// ```
    ///
    /// `metric` is either `<series>.<stat>` over a histogram series (stat in
    /// `p50|p95|p99|mean|max`, compared in milliseconds) or a bare counter
    /// name (compared as a raw count). `window` is the fast alert window in
    /// sim seconds; `slow_window` defaults to 4x the fast one and `objective`
    /// to 0.99 availability. See [`crate::obs::SloSpec`] for the burn-rate
    /// semantics.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SloSetting {
        /// Metric selector, e.g. `cluster.latency.p99` or `cluster.shed`.
        pub metric: String, in NonEmpty;
        /// Per-window bad threshold (ms for latency stats, count otherwise).
        pub threshold_ms: f64, in POSITIVE;
        /// Fast burn-rate alert window in sim seconds.
        pub window_s as "window": f64, in POSITIVE;
        /// Slow burn-rate alert window in sim seconds (default `4 * window`).
        pub slow_window_s as "slow_window": f64 = window_s * 4.0, in window_s..;
        /// Availability objective in (0, 1); the error budget is `1 - objective`.
        pub objective: f64 = 0.99, in (Excluded(0.0), Excluded(1.0));
    }
}

impl SloSetting {
    /// The evaluator-side spec these settings describe.
    pub fn to_spec(&self) -> crate::obs::SloSpec {
        crate::obs::SloSpec {
            metric: self.metric.clone(),
            threshold_ms: self.threshold_ms,
            window_s: self.window_s,
            slow_window_s: self.slow_window_s,
            objective: self.objective,
        }
    }
}

section! {
    /// Optional archive-packing settings for the pipeline.
    ///
    /// When present, the pipeline adds an `archive` stage after dataset
    /// generation: every generated field is chunked, compressed through the
    /// first codec configuration of the sweep, and sealed into a
    /// `foresight-store` container under the output directory. The archive
    /// then serves chunk-granular `(snapshot, field, region)` reads via
    /// `foresight-cli store` and the store-backed serve path.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StoreSettings: Default {
        /// Archive file name inside the output directory (default
        /// "snapshot.fstr").
        pub file: String = "snapshot.fstr".into(), in NonEmpty;
        /// Chunk side length in values along each axis (default 16).
        pub chunk: usize = 16, in 4..;
        /// Snapshot id recorded for the packed fields (default 0).
        pub snapshot: u32 = 0;
    }
}

section! {
    /// A full pipeline configuration.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ForesightConfig {
        /// Dataset to generate.
        pub input: InputConfig;
        /// Compressors and their parameter sweeps.
        pub compressors: Vec<CompressorSweep>, in NonEmpty;
        /// Analyses to run.
        pub analysis: Vec<AnalysisKind>;
        /// Output options.
        pub output: OutputConfig;
        /// Optional fault-injection settings (absent means a quiet run).
        pub chaos: Option<ChaosSettings> = None;
        /// Optional device-sanitizer settings (absent means untraced runs).
        pub sanitize: Option<SanitizeSettings> = None;
        /// Optional serving-scheduler settings for `serve-bench` (absent
        /// means built-in defaults).
        pub serve: Option<ServeSettings> = None;
        /// Optional multi-node serving settings for `cluster-bench` (absent
        /// means built-in defaults).
        pub cluster: Option<ClusterSettings> = None;
        /// Optional service-level objectives evaluated over the windowed
        /// telemetry series (absent means no SLO report; present means at
        /// least one, since the series width derives from them).
        pub slo: Option<Vec<SloSetting>> = None, each in NonEmpty;
        /// Optional archive-packing settings (absent means no archive
        /// stage).
        pub store: Option<StoreSettings> = None;
    }
}

impl ForesightConfig {
    /// Parses and validates a JSON document.
    pub fn from_json(json: &str) -> Result<Self> {
        Self::read(&Value::parse(json)?, "")
    }

    /// Serializes back to a compact JSON document that [`Self::from_json`]
    /// accepts.
    pub fn to_json(&self) -> String {
        self.write().to_json()
    }

    /// Reads a config file.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }

    /// Validates every option's range and the cross-field rules: a config
    /// built or edited in code is valid exactly when its written form reads
    /// back.
    pub fn validate(&self) -> Result<()> {
        Self::read(&self.write(), "").map(drop)
    }

    /// Expands all sweeps into concrete codec configurations.
    pub fn codec_configs(&self) -> Vec<CodecConfig> {
        let mut out = Vec::new();
        for c in &self.compressors {
            match c {
                CompressorSweep::GpuSz { mode, bounds, block_size } => {
                    for &b in bounds {
                        let mut cfg = match mode {
                            SzModeKind::Abs => lossy_sz::SzConfig::abs(b),
                            SzModeKind::Rel => lossy_sz::SzConfig::rel(b),
                            SzModeKind::PwRel => lossy_sz::SzConfig::pw_rel(b),
                        };
                        if let Some(bs) = block_size {
                            cfg.block_size = *bs;
                        }
                        out.push(CodecConfig::Sz(cfg));
                    }
                }
                CompressorSweep::Cuzfp { rates } => {
                    for &r in rates {
                        out.push(CodecConfig::Zfp(lossy_zfp::ZfpConfig::rate(r)));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "input": { "dataset": "nyx", "n_side": 32, "seed": 42, "steps": 6 },
        "compressors": [
            { "name": "gpu-sz", "mode": "abs", "bounds": [0.1, 0.2] },
            { "name": "cuzfp", "rates": [2, 4] }
        ],
        "analysis": ["distortion", "power-spectrum"],
        "output": { "dir": "out", "cinema": true }
    }"#;

    #[test]
    fn parses_sample() {
        let cfg = ForesightConfig::from_json(SAMPLE).unwrap();
        assert_eq!(cfg.input.dataset, DatasetKind::Nyx);
        assert_eq!(cfg.input.n_side, 32);
        assert_eq!(cfg.analysis.len(), 2);
        assert!(cfg.output.cinema);
        let configs = cfg.codec_configs();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].param_label(), "abs=0.1");
        assert_eq!(configs[3].param_label(), "rate=4");
    }

    #[test]
    fn defaults_applied() {
        let cfg = ForesightConfig::from_json(
            r#"{
            "input": { "dataset": "hacc" },
            "compressors": [ { "name": "cuzfp", "rates": [4] } ],
            "analysis": [],
            "output": { "dir": "o" }
        }"#,
        )
        .unwrap();
        assert_eq!(cfg.input.n_side, 64);
        assert_eq!(cfg.input.box_size, 256.0);
        assert!(!cfg.output.cinema);
    }

    #[test]
    fn invalid_configs_rejected() {
        // Bad n_side.
        let bad = SAMPLE.replace("\"n_side\": 32", "\"n_side\": 33");
        assert!(ForesightConfig::from_json(&bad).is_err());
        // Negative bound.
        let bad = SAMPLE.replace("[0.1, 0.2]", "[-0.1]");
        assert!(ForesightConfig::from_json(&bad).is_err());
        // Rate too high.
        let bad = SAMPLE.replace("\"rates\": [2, 4]", "\"rates\": [100]");
        assert!(ForesightConfig::from_json(&bad).is_err());
        // Syntax error.
        assert!(ForesightConfig::from_json("{ nope").is_err());
        // No compressors.
        let bad = SAMPLE.replace(
            r#"[
            { "name": "gpu-sz", "mode": "abs", "bounds": [0.1, 0.2] },
            { "name": "cuzfp", "rates": [2, 4] }
        ]"#,
            "[]",
        );
        assert!(ForesightConfig::from_json(&bad).is_err());
    }

    #[test]
    fn unknown_enum_names_rejected() {
        let bad = SAMPLE.replace("\"nyx\"", "\"enzo\"");
        assert!(ForesightConfig::from_json(&bad).is_err());
        let bad = SAMPLE.replace("\"abs\"", "\"absolute\"");
        assert!(ForesightConfig::from_json(&bad).is_err());
        let bad = SAMPLE.replace("\"distortion\"", "\"spectrum\"");
        assert!(ForesightConfig::from_json(&bad).is_err());
    }

    #[test]
    fn chaos_section_parses_with_defaults() {
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"chaos\": { \"seed\": 7, \"transfer\": 0.1, \"node\": 0.2, \"job_retries\": 4 }",
        );
        let cfg = ForesightConfig::from_json(&json).unwrap();
        let chaos = cfg.chaos.as_ref().unwrap();
        assert_eq!(chaos.seed, 7);
        assert_eq!(chaos.transfer, 0.1);
        assert_eq!(chaos.bit_flip, 0.0);
        assert_eq!(chaos.device_retries, 3);
        assert_eq!(chaos.job_retries, 4);
        let cc = chaos.to_chaos_config();
        assert_eq!(cc.seed, 7);
        assert_eq!(cc.rates.node, 0.2);
        // Roundtrip keeps the section.
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg2.chaos.as_ref().unwrap().job_retries, 4);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().chaos.is_none());
    }

    #[test]
    fn sanitize_section_parses_roundtrips_and_validates() {
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"sanitize\": { \"racecheck\": false }",
        );
        let cfg = ForesightConfig::from_json(&json).unwrap();
        let san = cfg.sanitize.as_ref().unwrap();
        assert!(san.memcheck, "memcheck defaults on");
        assert!(!san.racecheck);
        let sc = san.to_sanitizer_config();
        assert!(sc.memcheck && !sc.racecheck);
        // Roundtrip keeps the section.
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        assert!(!cfg2.sanitize.unwrap().racecheck);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().sanitize.is_none());
        // Enabling neither check is a config error, not a silent no-op.
        let json = json.replace(
            "\"sanitize\": { \"racecheck\": false }",
            "\"sanitize\": { \"memcheck\": false, \"racecheck\": false }",
        );
        assert!(ForesightConfig::from_json(&json).is_err());
    }

    #[test]
    fn chaos_rates_out_of_range_rejected() {
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"chaos\": { \"transfer\": 1.5 }",
        );
        assert!(ForesightConfig::from_json(&json).is_err());
    }

    #[test]
    fn roundtrips_through_serde() {
        let cfg = ForesightConfig::from_json(SAMPLE).unwrap();
        let json = cfg.to_json();
        let cfg2 = ForesightConfig::from_json(&json).unwrap();
        assert_eq!(cfg2.codec_configs().len(), 4);
        assert_eq!(cfg2.input.seed, 42);
        assert_eq!(cfg2.analysis, cfg.analysis);
    }

    fn with_serve(section: &str) -> Result<ForesightConfig> {
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "nyx", "n_side": 16 }},
            "compressors": [ {{ "name": "cuzfp", "rates": [4] }} ],
            "analysis": [],
            "output": {{ "dir": "o" }},
            "serve": {section}
        }}"#
        ))
    }

    #[test]
    fn serve_section_parses_with_defaults() {
        let cfg = with_serve("{}").unwrap();
        let s = cfg.serve.expect("serve section present");
        assert_eq!(s.devices, 6);
        assert_eq!(s.link, "nvlink");
        assert_eq!(s.max_batch, 8);
        assert_eq!(s.queue_depth, 64);
        assert_eq!(s.shard_kb, 256);
        assert_eq!(s.requests, 48);
        assert!(s.to_workload_spec().deadline_s.is_none());
        let node = s.to_node();
        assert_eq!(node.devices, 6);
        // nvlink is the Summit-like default link.
        assert!(node.link.bandwidth_gbs > 50.0);
        // Absent section stays absent.
        let plain = ForesightConfig::from_json(SAMPLE).unwrap();
        assert!(plain.serve.is_none());
    }

    #[test]
    fn serve_section_roundtrips_and_maps_to_options() {
        let cfg = with_serve(
            r#"{ "devices": 4, "link": "pcie", "max_batch": 16, "queue_depth": 32,
                 "shard_kb": 128, "window_ms": 0.5, "seed": 9, "requests": 12,
                 "arrival_hz": 1000, "deadline_ms": 2.5, "decompress_fraction": 0.5 }"#,
        )
        .unwrap();
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        let s = cfg2.serve.unwrap();
        assert_eq!(s.devices, 4);
        assert_eq!(s.link, "pcie");
        let opts = s.to_serve_options(FaultRates::default());
        assert_eq!(opts.max_batch, 16);
        assert_eq!(opts.queue_depth, 32);
        assert_eq!(opts.shard_bytes, 128 * 1024);
        assert!((opts.window_s - 5e-4).abs() < 1e-12);
        assert_eq!(opts.seed, 9);
        let w = s.to_workload_spec();
        assert_eq!(w.requests, 12);
        assert!((w.deadline_s.unwrap() - 2.5e-3).abs() < 1e-12);
        assert!((w.decompress_fraction - 0.5).abs() < 1e-12);
    }

    fn with_cluster(section: &str) -> Result<ForesightConfig> {
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "nyx", "n_side": 16 }},
            "compressors": [ {{ "name": "cuzfp", "rates": [4] }} ],
            "analysis": [],
            "output": {{ "dir": "o" }},
            "cluster": {section}
        }}"#
        ))
    }

    #[test]
    fn cluster_section_parses_with_defaults() {
        let cfg = with_cluster("{}").unwrap();
        let c = cfg.cluster.expect("cluster section present");
        assert_eq!(c.nodes, 4);
        assert_eq!(c.replication, 2);
        assert_eq!(c.devices, 2);
        assert_eq!(c.priorities, 3);
        assert!(c.faults.is_empty());
        let spec = c.to_cluster();
        assert_eq!(spec.nodes, 4);
        assert_eq!(spec.node.devices, 2);
        let opts = c.to_cluster_options().unwrap();
        assert!((opts.heartbeat_s - 2e-3).abs() < 1e-12);
        assert!(opts.chaos.is_quiet());
        let w = c.to_workload_spec();
        assert_eq!(w.fields, 12);
        assert!((w.zipf_s - 1.1).abs() < 1e-12);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().cluster.is_none());
    }

    #[test]
    fn cluster_section_roundtrips_with_fault_schedule() {
        let cfg = with_cluster(
            r#"{ "nodes": 3, "replication": 2, "devices": 1, "link": "pcie",
                 "heartbeat_ms": 1.0, "breaker_open_ms": 10, "seed": 11,
                 "faults": [
                   { "kind": "crash", "node": 1, "at_ms": 0.8 },
                   { "kind": "slow", "node": 0, "at_ms": 0.2, "duration_ms": 2.0, "factor": 4.0 },
                   { "kind": "partition", "node": 2, "at_ms": 0.5, "duration_ms": 1.5 }
                 ] }"#,
        )
        .unwrap();
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        let c = cfg2.cluster.unwrap();
        assert_eq!(c.nodes, 3);
        assert_eq!(c.faults.len(), 3);
        let plan = c.to_chaos_plan().unwrap();
        assert!(!plan.is_quiet());
        assert!(!plan.reachable(1, 1.0), "crash at 0.8ms is permanent");
        assert!((plan.slow_factor(0, 1e-3) - 4.0).abs() < 1e-12);
        assert!(plan.reachable(2, 2.1e-3), "partition recovered");
        let opts = c.to_cluster_options().unwrap();
        assert!((opts.breaker_open_s - 1e-2).abs() < 1e-12);
        assert_eq!(opts.serve.seed, 11);
    }

    #[test]
    fn cluster_section_rejects_bad_values() {
        assert!(with_cluster(r#"{ "nodes": 0 }"#).is_err());
        assert!(with_cluster(r#"{ "replication": 5 }"#).is_err(), "R > nodes");
        assert!(with_cluster(r#"{ "link": "ethernet" }"#).is_err());
        assert!(with_cluster(r#"{ "heartbeat_ms": 0 }"#).is_err());
        assert!(with_cluster(r#"{ "backoff_base_ms": 9, "backoff_cap_ms": 1 }"#).is_err());
        assert!(with_cluster(r#"{ "priorities": 0 }"#).is_err());
        assert!(
            with_cluster(r#"{ "faults": [ { "kind": "meteor", "node": 0 } ] }"#).is_err(),
            "unknown fault kind"
        );
        assert!(
            with_cluster(r#"{ "faults": [ { "kind": "crash", "node": 9 } ] }"#).is_err(),
            "fault on a node outside the cluster"
        );
        assert!(
            with_cluster(r#"{ "faults": [ { "kind": "slow", "node": 0, "factor": 0.5 } ] }"#)
                .is_err(),
            "slow factor below 1"
        );
    }

    fn with_slo(section: &str) -> Result<ForesightConfig> {
        ForesightConfig::from_json(&format!(
            r#"{{
            "input": {{ "dataset": "nyx", "n_side": 16 }},
            "compressors": [ {{ "name": "cuzfp", "rates": [4] }} ],
            "analysis": [],
            "output": {{ "dir": "o" }},
            "slo": {section}
        }}"#
        ))
    }

    #[test]
    fn slo_section_parses_defaults_and_roundtrips() {
        let cfg = with_slo(
            r#"[ { "metric": "cluster.latency.p99", "threshold_ms": 5.0, "window": 0.002 },
                 { "metric": "cluster.shed", "threshold_ms": 1, "window": 0.004,
                   "slow_window": 0.02, "objective": 0.999 } ]"#,
        )
        .unwrap();
        let slo = cfg.slo.as_ref().expect("slo section present");
        assert_eq!(slo.len(), 2);
        assert_eq!(slo[0].metric, "cluster.latency.p99");
        assert!((slo[0].slow_window_s - 0.008).abs() < 1e-12, "slow defaults to 4x");
        assert!((slo[0].objective - 0.99).abs() < 1e-12);
        assert!((slo[1].slow_window_s - 0.02).abs() < 1e-12);
        let spec = slo[1].to_spec();
        assert_eq!(spec.metric, "cluster.shed");
        assert!((spec.objective - 0.999).abs() < 1e-12);
        let cfg2 = ForesightConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg2.slo.as_ref().unwrap(), slo);
        // Absent section stays absent.
        assert!(ForesightConfig::from_json(SAMPLE).unwrap().slo.is_none());
    }

    #[test]
    fn slo_section_rejects_bad_values() {
        assert!(with_slo(r#"{ "metric": "x" }"#).is_err(), "must be an array");
        match with_slo("[]") {
            Err(Error::Config(msg)) => assert!(msg.starts_with("slo must be non-empty"), "{msg}"),
            other => panic!("empty slo list must be a config error, got {other:?}"),
        }
        assert!(with_slo(r#"[ { "threshold_ms": 1, "window": 0.1 } ]"#).is_err(), "no metric");
        assert!(
            with_slo(r#"[ { "metric": "m", "threshold_ms": 0, "window": 0.1 } ]"#).is_err(),
            "zero threshold"
        );
        assert!(
            with_slo(r#"[ { "metric": "m", "threshold_ms": 1, "window": 0 } ]"#).is_err(),
            "zero window"
        );
        assert!(
            with_slo(
                r#"[ { "metric": "m", "threshold_ms": 1, "window": 0.1, "slow_window": 0.01 } ]"#
            )
            .is_err(),
            "slow window shorter than fast"
        );
        assert!(
            with_slo(r#"[ { "metric": "m", "threshold_ms": 1, "window": 0.1, "objective": 1.0 } ]"#)
                .is_err(),
            "objective must be < 1"
        );
    }

    #[test]
    fn serve_section_rejects_bad_values() {
        assert!(with_serve(r#"{ "devices": 0 }"#).is_err());
        assert!(with_serve(r#"{ "link": "infiniband" }"#).is_err());
        assert!(with_serve(r#"{ "window_ms": 0 }"#).is_err());
        assert!(with_serve(r#"{ "decompress_fraction": 1.5 }"#).is_err());
        assert!(with_serve(r#"{ "queue_depth": 0 }"#).is_err());
        assert!(with_serve(r#"[1]"#).is_err());
    }

    const TOP_LEVEL: [&str; 10] = [
        "input", "compressors", "analysis", "output", "chaos", "sanitize", "serve", "cluster",
        "slo", "store",
    ];

    // The probe inputs of ISSUE 15: each was accepted (wrapped, ignored or
    // overflowing later) before the schema carried types and key lists.

    #[test]
    fn integers_too_wide_for_their_type_are_errors_not_wraps() {
        let err = with_cluster(r#"{ "priorities": 257, "probe_misses": 4294967297 }"#).unwrap_err();
        assert!(err.to_string().contains("cluster.probe_misses"), "{err}");
        let err = with_cluster(r#"{ "priorities": 257 }"#).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        assert!(err.to_string().contains("cluster.priorities"), "{err}");
        let json = SAMPLE.replace(
            "\"output\": { \"dir\": \"out\", \"cinema\": true }",
            "\"output\": { \"dir\": \"out\", \"cinema\": true },\n        \
             \"chaos\": { \"device_retries\": 4294967296 }",
        );
        let err = ForesightConfig::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("chaos.device_retries"), "{err}");
    }

    #[test]
    fn unknown_keys_are_errors_that_list_the_valid_ones() {
        let err = with_cluster(r#"{ "hearbeat_ms": 5.0 }"#).unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        let msg = err.to_string();
        assert!(msg.contains("cluster.hearbeat_ms"), "{msg}");
        assert!(msg.contains("accepts: nodes, replication, devices, link,"), "{msg}");
        assert!(msg.contains("heartbeat_ms"), "{msg}");
        let json = SAMPLE.replace("\"output\":", "\"clustr\": { \"nodes\": 2 }, \"output\":");
        let msg = ForesightConfig::from_json(&json).unwrap_err().to_string();
        assert!(msg.contains("clustr is not a known option"), "{msg}");
        assert!(msg.ends_with(&format!("accepts: {}", TOP_LEVEL.join(", "))), "{msg}");
        // `null` for an optional section still means "absent".
        let json = SAMPLE.replace("\"output\":", "\"cluster\": null, \"output\":");
        assert!(ForesightConfig::from_json(&json).unwrap().cluster.is_none());
    }

    #[test]
    fn no_valid_shard_kb_overflows_the_byte_conversion() {
        // 2^54 KiB is 2^64 bytes: one past what `shard_kb * 1024` can hold.
        for section in [with_serve, with_cluster] {
            let err = section(r#"{ "shard_kb": 18014398509481984 }"#).unwrap_err();
            assert!(err.to_string().contains(".shard_kb"), "{err}");
        }
        assert!((MAX_SHARD_KB as u64).checked_mul(1024).is_some());
        assert!((MAX_SHARD_KB as u64 + 1).checked_mul(1024).is_none());
        // The largest value JSON can carry below the bound converts exactly.
        let cfg = with_serve(r#"{ "shard_kb": 18014398509481982 }"#).unwrap();
        let opts = cfg.serve.unwrap().to_serve_options(FaultRates::default());
        assert_eq!(opts.shard_bytes, 18014398509481982 * 1024);
        let cfg = with_cluster(r#"{ "shard_kb": 18014398509481982 }"#).unwrap();
        let opts = cfg.cluster.unwrap().to_cluster_options().unwrap();
        assert_eq!(opts.serve.shard_bytes, 18014398509481982 * 1024);
        // A value set in code is held to the same bound by `validate`.
        let mut cfg = with_serve("{}").unwrap();
        cfg.serve.as_mut().unwrap().shard_kb = usize::MAX;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("serve.shard_kb"), "{err}");
    }

    /// One option as the schema walk sees it.
    struct Row {
        key: &'static str,
        /// JSON of the value read when the key is absent; `None` when the
        /// option is required, `"null"` when absent stays absent.
        default: Option<&'static str>,
        /// A valid value other than the default, in written form.
        good: &'static str,
        /// Values of the right JSON type that the option must reject.
        bad: &'static [&'static str],
    }

    const fn row(
        key: &'static str,
        default: Option<&'static str>,
        good: &'static str,
        bad: &'static [&'static str],
    ) -> Row {
        Row { key, default, good, bad }
    }

    /// One section: where it sits in a document (`@` in `template`, the
    /// `pointer` into the parsed document) and a row per option.
    struct Case {
        path: &'static str,
        template: &'static str,
        pointer: &'static [&'static str],
        /// Where the same section sits in the maximal golden config.
        golden_pointer: &'static [&'static str],
        rows: &'static [Row],
    }

    const REST: &str = r#""input": { "dataset": "nyx", "n_side": 16 },
        "compressors": [ { "name": "cuzfp", "rates": [4] } ],
        "analysis": [], "output": { "dir": "o" }"#;

    const CASES: &[Case] = &[
        Case {
            path: "input",
            template: r#"{ "input": @, "compressors": [ { "name": "cuzfp", "rates": [4] } ],
                "analysis": [], "output": { "dir": "o" } }"#,
            pointer: &["input"],
            golden_pointer: &["input"],
            rows: &[
                row("dataset", None, r#""hacc""#, &[r#""enzo""#]),
                row("n_side", Some("64"), "32", &["33", "4", "-8", "16.5"]),
                row("seed", Some("0"), "42", &["-1", "1.5"]),
                row("steps", Some("10"), "6", &["-1"]),
                row("box_size", Some("256"), "128.5", &["1e999"]),
            ],
        },
        Case {
            path: "compressors[0]",
            template: r#"{ "input": { "dataset": "nyx" }, "compressors": [ @ ],
                "analysis": [], "output": { "dir": "o" } }"#,
            pointer: &["compressors", "0"],
            golden_pointer: &["compressors", "0"],
            rows: &[
                row("name", None, r#""gpu-sz""#, &[r#""zstd""#]),
                row("mode", None, r#""pw_rel""#, &[r#""absolute""#]),
                row("bounds", None, "[0.1,0.25]", &["[]", "[-0.1]", "[0]", "[1e999]"]),
                row("block_size", Some("null"), "8", &["1", "-2"]),
            ],
        },
        Case {
            path: "compressors[0]",
            template: r#"{ "input": { "dataset": "nyx" }, "compressors": [ @ ],
                "analysis": [], "output": { "dir": "o" } }"#,
            pointer: &["compressors", "0"],
            golden_pointer: &["compressors", "2"],
            rows: &[
                row("name", None, r#""cuzfp""#, &[r#""zstd""#]),
                row("rates", None, "[2,4.5]", &["[]", "[0]", "[65]"]),
            ],
        },
        Case {
            path: "output",
            template: r#"{ "input": { "dataset": "nyx" }, "analysis": [], "output": @,
                "compressors": [ { "name": "cuzfp", "rates": [4] } ] }"#,
            pointer: &["output"],
            golden_pointer: &["output"],
            rows: &[
                row("dir", None, r#""out/maximal""#, &[]),
                row("cinema", Some("false"), "true", &[]),
            ],
        },
        Case {
            path: "chaos",
            template: r#"{ "chaos": @, @REST }"#,
            pointer: &["chaos"],
            golden_pointer: &["chaos"],
            rows: &[
                row("seed", Some("0"), "7", &["-1"]),
                row("transfer", Some("0"), "0.05", &["1.5", "-0.1"]),
                row("bit_flip", Some("0"), "0.01", &["1.5", "-0.1"]),
                row("kernel", Some("0"), "0.02", &["1.5", "-0.1"]),
                row("oom", Some("0"), "0.03", &["1.5", "-0.1"]),
                row("node", Some("0"), "0.1", &["1.5", "-0.1"]),
                row("device_retries", Some("3"), "5", &["4294967296", "-1", "0.5"]),
                row("op_retries", Some("2"), "4", &["4294967296"]),
                row("job_retries", Some("2"), "6", &["4294967296"]),
            ],
        },
        Case {
            path: "sanitize",
            template: r#"{ "sanitize": @, @REST }"#,
            pointer: &["sanitize"],
            golden_pointer: &["sanitize"],
            rows: &[
                row("memcheck", Some("true"), "false", &[]),
                row("racecheck", Some("true"), "false", &[]),
            ],
        },
        Case {
            path: "serve",
            template: r#"{ "serve": @, @REST }"#,
            pointer: &["serve"],
            golden_pointer: &["serve"],
            rows: &[
                row("devices", Some("6"), "4", &["0"]),
                row("link", Some(r#""nvlink""#), r#""pcie""#, &[r#""infiniband""#]),
                row("max_batch", Some("8"), "16", &["0"]),
                row("queue_depth", Some("64"), "32", &["0"]),
                row("shard_kb", Some("256"), "128", &["0", "18014398509481984"]),
                row("window_ms", Some("1"), "0.5", &["0", "-1"]),
                row("seed", Some("0"), "9", &["-1"]),
                row("requests", Some("48"), "12", &["-1"]),
                row("arrival_hz", Some("4000"), "1000.5", &["0"]),
                row("deadline_ms", Some("0"), "2.5", &["-1"]),
                row("decompress_fraction", Some("0.25"), "0.5", &["1.5", "-0.1"]),
            ],
        },
        Case {
            path: "cluster.faults[0]",
            template: r#"{ "cluster": { "faults": [ @ ] }, @REST }"#,
            pointer: &["cluster", "faults", "0"],
            golden_pointer: &["cluster", "faults", "0"],
            rows: &[
                row("kind", None, r#""slow""#, &[r#""meteor""#]),
                row("node", Some("0"), "1", &["9"]),
                row("at_ms", Some("0"), "0.2", &["-1"]),
                row("duration_ms", Some("0"), "2", &["-1"]),
                // `factor >= 1` binds `slow` faults only; the chaos model
                // owns that rule (`cluster_section_rejects_bad_values`).
                row("factor", Some("1"), "4", &[]),
            ],
        },
        Case {
            path: "cluster",
            template: r#"{ "cluster": @, @REST }"#,
            pointer: &["cluster"],
            golden_pointer: &["cluster"],
            rows: &[
                row("nodes", Some("4"), "3", &["0"]),
                row("replication", Some("2"), "3", &["0", "5"]),
                row("devices", Some("2"), "1", &["0"]),
                row("link", Some(r#""nvlink""#), r#""pcie""#, &[r#""ethernet""#]),
                row("queue_depth", Some("64"), "48", &["0"]),
                row("shard_kb", Some("256"), "64", &["0", "18014398509481984"]),
                row("window_ms", Some("1"), "0.75", &["0"]),
                row("seed", Some("0"), "11", &["-1"]),
                row("heartbeat_ms", Some("2"), "1.5", &["0"]),
                row("probe_misses", Some("2"), "4", &["0", "4294967297"]),
                row("breaker_threshold", Some("3"), "5", &["0", "4294967296"]),
                row("breaker_open_ms", Some("20"), "10.5", &["0"]),
                row("backoff_base_ms", Some("0.5"), "0.25", &["0"]),
                row("backoff_cap_ms", Some("8"), "4.5", &["0", "0.1"]),
                row("requests", Some("96"), "24", &["-1"]),
                row("arrival_hz", Some("6000"), "2500.5", &["0"]),
                row("fields", Some("12"), "5", &["0"]),
                row("zipf_s", Some("1.1"), "0.9", &["-1"]),
                row("decompress_fraction", Some("0.25"), "0.4", &["1.5"]),
                row("deadline_ms", Some("0"), "3.5", &["-1"]),
                row("priorities", Some("3"), "2", &["0", "257"]),
                row(
                    "faults",
                    Some("[]"),
                    r#"[{"kind":"crash","node":2,"at_ms":0.8,"duration_ms":1,"factor":1.5}]"#,
                    &[],
                ),
            ],
        },
        Case {
            path: "slo[0]",
            template: r#"{ "slo": [ @ ], @REST }"#,
            pointer: &["slo", "0"],
            golden_pointer: &["slo", "0"],
            rows: &[
                row("metric", None, r#""cluster.latency.p99""#, &[r#""""#]),
                row("threshold_ms", None, "5", &["0"]),
                row("window", None, "0.002", &["0"]),
                row("slow_window", Some("0.008"), "0.016", &["0", "0.001"]),
                row("objective", Some("0.99"), "0.999", &["0", "1"]),
            ],
        },
        Case {
            path: "store",
            template: r#"{ "store": @, @REST }"#,
            pointer: &["store"],
            golden_pointer: &["store"],
            rows: &[
                row("file", Some(r#""snapshot.fstr""#), r#""maximal.fstr""#, &[r#""""#]),
                row("chunk", Some("16"), "8", &["3"]),
                row("snapshot", Some("0"), "3", &["4294967296"]),
            ],
        },
    ];

    fn descend<'a>(doc: &'a Value, pointer: &[&str]) -> &'a Value {
        pointer.iter().fold(doc, |v, step| match v {
            Value::Array(items) => &items[step.parse::<usize>().unwrap()],
            v => v.get(step).unwrap_or_else(|| panic!("no '{step}' in {}", v.to_json())),
        })
    }

    impl Case {
        /// Parses a document holding this section with `fields`.
        fn parse(&self, fields: &[(&str, &str)]) -> Result<ForesightConfig> {
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let section = format!("{{ {} }}", body.join(", "));
            ForesightConfig::from_json(&self.template.replace("@REST", REST).replace('@', &section))
        }

        /// The required options at their good values, plus `extra`.
        fn with<'a>(&'a self, extra: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
            let required = self.rows.iter().filter(|r| r.default.is_none());
            let mut fields: Vec<_> = required.map(|r| (r.key, r.good)).collect();
            for &(key, value) in extra {
                fields.retain(|(k, _)| *k != key);
                fields.push((key, value));
            }
            fields
        }

        /// What the section's `key` reads as after a parse and a write.
        fn written(&self, cfg: &ForesightConfig, key: &str) -> Value {
            let doc = Value::parse(&cfg.to_json()).unwrap();
            descend(&doc, self.pointer).get(key).cloned().unwrap_or(Value::Null)
        }
    }

    /// Walks every option of every section: the default is applied when
    /// the key is absent, a valid value round-trips, and an out-of-range
    /// value, a wrong JSON type and an unknown sibling key are each an
    /// error naming `section.key`. The unknown-key message lists the
    /// schema's keys, which ties the rows here to the declarations: an
    /// option added to a section without a row fails this test.
    #[test]
    fn every_option_defaults_round_trips_and_rejects() {
        let golden = Value::parse(include_str!("../../../tests/golden/config/maximal.json")).unwrap();
        for case in CASES {
            let keys: Vec<&str> = case.rows.iter().map(|r| r.key).collect();
            let err = case.parse(&case.with(&[("bogus_key", "1")])).unwrap_err().to_string();
            assert!(err.contains(&format!("{}.bogus_key", case.path)), "{err}");
            assert!(err.ends_with(&format!("accepts: {}", keys.join(", "))), "{err}");

            for r in case.rows {
                let at = format!("{}.{}", case.path, r.key);
                let absent: Vec<_> = case.with(&[]).into_iter().filter(|(k, _)| *k != r.key).collect();
                match r.default {
                    Some(default) => {
                        let cfg = case.parse(&absent).unwrap_or_else(|e| panic!("{at} absent: {e}"));
                        assert_eq!(case.written(&cfg, r.key), Value::parse(default).unwrap(), "{at}");
                    }
                    None => {
                        let err = case.parse(&absent).unwrap_err().to_string();
                        assert!(err.contains(&at), "{at} absent: {err}");
                    }
                }

                let good = Value::parse(r.good).unwrap();
                let cfg = case.parse(&case.with(&[(r.key, r.good)])).unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(case.written(&cfg, r.key), good, "{at}");
                assert_eq!(ForesightConfig::from_json(&cfg.to_json()).unwrap(), cfg, "{at}");

                let wrong_type = if good.as_str().is_some() { "7" } else { r#""x""# };
                for bad in r.bad.iter().chain([&wrong_type]) {
                    let err = match case.parse(&case.with(&[(r.key, bad)])) {
                        Ok(_) => panic!("{at} accepted {bad}"),
                        Err(e) => e,
                    };
                    assert!(matches!(err, Error::Config(_)), "{at} = {bad}: {err}");
                    assert!(err.to_string().contains(&at), "{at} = {bad}: {err}");
                }

                // The maximal golden config exercises the option at a
                // non-default value (both sanitize checks off is invalid).
                let pinned = descend(&golden, case.golden_pointer).get(r.key);
                let pinned = pinned.unwrap_or_else(|| panic!("maximal.json lacks {at}"));
                if at != "sanitize.racecheck" {
                    assert_ne!(Some(pinned), r.default.map(|d| Value::parse(d).unwrap()).as_ref(), "{at}");
                }
            }
        }
    }

    /// The top level is a section like any other: required and optional
    /// keys, strict types, and the six optional sections absent by default.
    #[test]
    fn top_level_sections_default_round_trip_and_reject() {
        let text = include_str!("../../../tests/golden/config/maximal.json");
        let golden = Value::parse(text).unwrap();
        let fields = golden.as_object().unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, TOP_LEVEL);
        for (i, (key, _)) in fields.iter().enumerate() {
            let without: Vec<_> = fields.iter().filter(|(k, _)| k != key).cloned().collect();
            match ForesightConfig::from_json(&Value::Object(without).to_json()) {
                Ok(cfg) => {
                    assert!(i >= 4, "{key} is required");
                    assert!(Value::parse(&cfg.to_json()).unwrap().get(key).is_none());
                }
                Err(e) => {
                    assert!(i < 4, "{key} is optional: {e}");
                    assert!(e.to_string().contains(key.as_str()), "{e}");
                }
            }
            let mut wrong = fields.to_vec();
            wrong[i].1 = Value::Number(7.0);
            let err = ForesightConfig::from_json(&Value::Object(wrong).to_json()).unwrap_err();
            assert!(err.to_string().contains(&format!("{key} must be")), "{key}: {err}");
        }
        assert_eq!(ForesightConfig::from_json(text).unwrap().to_json(), text);
    }
}
