//! Shared low-level utilities for the Foresight reproduction workspace.
//!
//! This crate holds the pieces every other crate needs and nothing
//! domain-specific: an error type, bit-granular stream I/O (used by both
//! compressor crates), CRC32 checksums (used by the GIO-lite file format),
//! chunked parallel helpers, wall-clock timers, running statistics, a
//! tiny ASCII table/CSV formatter used by the benchmark binaries, SHA-256
//! (golden-vector digests), the telemetry layer (spans, metrics,
//! Chrome-trace/flamegraph export), [`Dims`], the one array shape
//! every codec, the store and the scheduler share, [`Tiles`], the
//! one way they cut that shape into blocks and chunks, and [`cli`], the
//! one command grammar every binary parses its arguments with.
//!
//! CRC32 and SHA-256 run on the CPU's checksum instructions when it has
//! them, and [`cpu::widest`] runs a caller's kernel body compiled for the
//! widest vector level the CPU has. The only `unsafe` in the crate is the
//! calls into those target-feature functions after the runtime check, in
//! the audited [`cpu`] module (DESIGN §22, §23); everything else is safe
//! code.

// `deny` rather than `forbid`: `cpu` opts back in for those calls.
#![deny(unsafe_code)]

pub mod bits;
pub mod bytes;
pub mod cli;
pub mod cpu;
pub mod crc;
pub mod dims;
pub mod error;
pub mod json;
pub mod parallel;
pub mod rule;
pub mod sha256;
pub mod stats;
pub mod table;
pub mod telemetry;
pub mod tiles;
pub mod timer;

pub use bytes::ByteReader;
pub use dims::{Dims, Region};
pub use error::{Error, Result};
pub use tiles::Tiles;
