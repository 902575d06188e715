//! Workspace-wide error type.
//!
//! Every crate in the workspace funnels failures through [`Error`] so that
//! the top-level framework (Foresight) can report a uniform diagnostic for
//! any stage of a pipeline — codec, file format, analysis, or scheduler.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Unified error type for the Foresight reproduction workspace.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A compressed stream was malformed, truncated, or failed validation.
    Corrupt(String),
    /// The caller passed an argument outside the supported domain
    /// (e.g. a non-power-of-two FFT length or a zero error bound).
    InvalidArgument(String),
    /// An operation exceeded a configured resource limit
    /// (e.g. simulated GPU device memory).
    ResourceExhausted(String),
    /// A file format error from the GIO-lite / H5-lite readers.
    Format(String),
    /// An underlying I/O error.
    Io(std::io::Error),
    /// A configuration file could not be parsed or validated.
    Config(String),
    /// A workflow/scheduler error (cyclic dependencies, unknown job ids...).
    Workflow(String),
    /// A (simulated) device fault: failed transfer, kernel abort, or a
    /// transient allocation failure that exhausted its retry budget.
    DeviceFault(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::ResourceExhausted(msg) => write!(f, "resource exhausted: {msg}"),
            Error::Format(msg) => write!(f, "format error: {msg}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Config(msg) => write!(f, "config error: {msg}"),
            Error::Workflow(msg) => write!(f, "workflow error: {msg}"),
            Error::DeviceFault(msg) => write!(f, "device fault: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Shorthand constructor for [`Error::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        Error::Corrupt(msg.into())
    }

    /// Shorthand constructor for [`Error::InvalidArgument`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        Error::InvalidArgument(msg.into())
    }

    /// Shorthand constructor for [`Error::Format`].
    pub fn format(msg: impl Into<String>) -> Self {
        Error::Format(msg.into())
    }

    /// Shorthand constructor for [`Error::DeviceFault`].
    pub fn device_fault(msg: impl Into<String>) -> Self {
        Error::DeviceFault(msg.into())
    }

    /// The same complaint as [`Error::Corrupt`], for a caller-input check
    /// that also vets bytes read from a stream.
    pub fn into_corrupt(self) -> Self {
        match self {
            Error::InvalidArgument(msg) => Error::Corrupt(msg),
            e => e,
        }
    }

    /// True for transient device-level failures that a caller may retry
    /// or route to a CPU fallback path.
    pub fn is_device_fault(&self) -> bool {
        matches!(self, Error::DeviceFault(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = Error::corrupt("bad magic");
        assert!(e.to_string().contains("bad magic"));
        let e = Error::invalid("eb must be > 0");
        assert!(e.to_string().contains("eb must be > 0"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let ioe = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: Error = ioe.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
