//! Foresight: compression benchmark and analysis framework.
//!
//! Rust reproduction of LANL's VizAly-Foresight as used in *Understanding
//! GPU-Based Lossy Compression for Extreme-Scale Cosmological Simulations*
//! (Jin et al., 2020). The three components of the paper's Fig. 2 map to:
//!
//! - **CBench** ([`cbench`]) — runs compressor sweeps over dataset fields
//!   and records ratio, distortion, and throughput;
//! - **PAT** ([`pat`]) — a Job/Workflow engine with dependency-aware
//!   scheduling on a simulated SLURM cluster;
//! - **Cinema** ([`cinema`]) — an artifact database of CSV series and
//!   ASCII plots.
//!
//! Supporting modules: the unified codec layer ([`codec`]), JSON pipeline
//! configuration ([`config`]), the GPU execution backend ([`gpu_backend`]),
//! the paper's best-fit configuration guideline ([`optimizer`]), the
//! telemetry reporting layer ([`trace`]) that turns collected spans and
//! metrics into Chrome traces, flamegraphs and `telemetry.json`, the
//! batched multi-device serving scheduler ([`serve`]) — which also
//! serves `(snapshot, field, region)` reads straight out of sealed
//! `foresight-store` archives — and its fault-tolerant multi-node front
//! end ([`cluster`]) with replicated placement, health-checked failover,
//! and node-level chaos, observed end to end by the
//! distributed-tracing/SLO layer ([`obs`]).
//!
//! # Quickstart
//!
//! ```
//! use foresight::cbench::{run_one, FieldData};
//! use foresight::codec::{CodecConfig, Shape};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let field = FieldData::new("demo", data, Shape::D3(16, 16, 16)).unwrap();
//! let cfg = CodecConfig::Sz(lossy_sz::SzConfig::abs(1e-3));
//! let record = run_one(&field, &cfg, false).unwrap();
//! assert!(record.ratio > 1.0);
//! assert!(record.distortion.max_abs_err <= 1e-3);
//! ```

#![forbid(unsafe_code)]

pub mod cbench;
pub mod cinema;
pub mod cluster;
pub mod codec;
pub mod config;
pub mod gpu_backend;
pub mod obs;
pub mod optimizer;
pub mod pat;
pub mod runner;
pub mod serve;
pub mod trace;
pub mod viz;

pub use cbench::{
    run_one, run_one_gpu, run_sweep, run_sweep_chaos, CBenchRecord, ChaosConfig,
    ChaosSweepReport, ExecPath, FieldData, QuarantinedPair,
};
pub use cinema::{ascii_chart, CinemaDb};
pub use cluster::{
    cluster_workload, serve_cluster, BreakerState, BreakerTransition,
    ClusterOptions, ClusterReport, ClusterRequest, ClusterResponse, ClusterWorkloadSpec,
    ServeCluster,
};
pub use codec::{CodecConfig, CompressorId, Shape};
pub use config::{
    AnalysisKind, ChaosSettings, ClusterFaultSetting, ClusterSettings, DatasetKind,
    ForesightConfig, SanitizeSettings, ServeSettings, SloSetting, StoreSettings,
};
pub use obs::{
    evaluate_slo, evaluate_slos, ObsOptions, ObsRecorder, ObsTrace, SloLevel, SloSpec,
    SloVerdict, SpanNode, TraceContext,
};
pub use optimizer::{best_fit_per_field, overall_best_ratio, Acceptance, BestFit, Candidate};
pub use pat::{Job, JobResult, JobStatus, RetryPolicy, SlurmSim, Workflow, WorkflowReport};
pub use runner::{run_pipeline, PipelineReport};
pub use serve::{
    serve, serve_serial, synth_workload, ServeNode, ServeOptions, ServePayload, ServeReport,
    ServeRequest, ServeResponse, ServeStatus, WorkloadSpec,
};
// Re-exported so store-backed serve callers need only the `foresight`
// crate in scope.
pub use foresight_store::{
    ChunkCodec, ChunkGrid, FieldShape, Region, StoreReader, StoreWriter,
};
