//! The workspace analyzer behind the `foresight-lint` bin: eight token
//! rules and three dataflow passes (taint, determinism,
//! panic-reachability) in one walk, one finding type, one escape
//! comment, one baseline and one rule table; see [`analyze`].
//!
//! Every pass reads files through [`scan`], so they agree on comment
//! stripping, `#[cfg(test)]` exclusion, the escape comment, and which
//! directories are never scanned. [`graph`] builds the per-file function
//! tables and the intra-crate call graph the dataflow passes walk.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod graph;
pub mod scan;
