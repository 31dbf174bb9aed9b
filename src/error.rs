//! The suite-level error type behind the three binaries.
//!
//! The core crate's [`mempool::Error`] unifies everything the simulator
//! itself can raise, but the umbrella binary also drives the traffic
//! sweeps and fault campaigns, whose error types live *above* the core in
//! the dependency graph. [`Error`] is the top of that hierarchy: every
//! failure the CLI can hit converts into it, and [`Error::exit_code`]
//! maps it onto the documented process exit contract (`0` success, `1`
//! runtime error, `2` usage error).

use crate::cli::UsageError;
use std::error::Error as StdError;
use std::fmt;

/// Any failure the `mempool-run` CLI (or an embedding harness) can hit.
///
/// Sources are preserved: walking [`std::error::Error::source`] reaches
/// the originating crate-level error, so callers can downcast or print a
/// full chain.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The command line was malformed. Exits with status 2.
    Usage(UsageError),
    /// The simulator core failed (config, decode, bus, snapshot, ...).
    Sim(mempool::Error),
    /// A traffic sweep point failed.
    Sweep(mempool_traffic::SweepPointError),
    /// A fault campaign failed.
    Campaign(mempool_traffic::CampaignError),
    /// Assembling the program failed; carries the source path.
    Asm {
        /// Path of the assembly source file.
        path: String,
        /// The underlying assembler diagnostic.
        source: mempool_riscv::AsmError,
    },
    /// A file could not be read or written; carries the path.
    Io {
        /// Path of the file involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A free-form runtime failure (e.g. an engine digest divergence).
    Other(String),
    /// A campaign was interrupted (SIGINT/SIGTERM) after flushing its
    /// manifest and checkpoint; re-running with `--resume` continues
    /// exactly where it stopped. Exits with status 3 so scripts can tell
    /// a clean interruption from a runtime failure.
    Interrupted,
}

impl Error {
    /// The exit status of a usage error.
    pub const USAGE_EXIT_CODE: u8 = 2;

    /// Attaches a file path to an I/O error.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io { path: path.into(), source }
    }

    /// The process exit status this error maps to: `2` for usage errors,
    /// `3` for an interrupted (but cleanly checkpointed) campaign, `1` for
    /// everything else (`0` is reserved for success).
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Usage(_) => Self::USAGE_EXIT_CODE,
            Error::Interrupted => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(e) => write!(f, "{e}"),
            Error::Sim(e) => write!(f, "{e}"),
            Error::Sweep(e) => write!(f, "{e}"),
            Error::Campaign(e) => write!(f, "{e}"),
            Error::Asm { path, source } => write!(f, "{path}: {source}"),
            Error::Io { path, source } => write!(f, "{path}: {source}"),
            Error::Other(msg) => write!(f, "{msg}"),
            Error::Interrupted => {
                write!(f, "interrupted; progress saved, re-run with --resume to continue")
            }
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Usage(_) | Error::Other(_) | Error::Interrupted => None,
            Error::Sim(e) => Some(e),
            Error::Sweep(e) => Some(e),
            Error::Campaign(e) => Some(e),
            Error::Asm { source, .. } => Some(source),
            Error::Io { source, .. } => Some(source),
        }
    }
}

impl From<mempool::Error> for Error {
    fn from(e: mempool::Error) -> Self {
        Error::Sim(e)
    }
}

impl From<mempool_traffic::SweepPointError> for Error {
    fn from(e: mempool_traffic::SweepPointError) -> Self {
        Error::Sweep(e)
    }
}

impl From<mempool_traffic::CampaignError> for Error {
    fn from(e: mempool_traffic::CampaignError) -> Self {
        Error::Campaign(e)
    }
}

impl From<mempool::ValidateConfigError> for Error {
    fn from(e: mempool::ValidateConfigError) -> Self {
        Error::Sim(e.into())
    }
}

impl From<mempool::SimError> for Error {
    fn from(e: mempool::SimError) -> Self {
        Error::Sim(e.into())
    }
}

impl From<mempool::MetricsError> for Error {
    fn from(e: mempool::MetricsError) -> Self {
        Error::Sim(e.into())
    }
}

impl From<mempool::SnapshotError> for Error {
    fn from(e: mempool::SnapshotError) -> Self {
        Error::Sim(e.into())
    }
}

impl From<mempool::BusError> for Error {
    fn from(e: mempool::BusError) -> Self {
        Error::Sim(e.into())
    }
}

#[cfg(unix)]
impl From<mempool_serve::ClientError> for Error {
    fn from(e: mempool_serve::ClientError) -> Self {
        Error::Other(e.to_string())
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Other(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_error() -> mempool::MetricsError {
        mempool::MetricsError::UnknownScope {
            path: "cluster/tile99".to_owned(),
        }
    }

    #[test]
    fn exit_codes_follow_the_cli_contract() {
        assert_eq!(Error::Usage(UsageError::UnknownOption("--bad".into())).exit_code(), 2);
        assert_eq!(Error::Other("boom".into()).exit_code(), 1);
        assert_eq!(Error::Interrupted.exit_code(), 3);
        let sim: Error = metrics_error().into();
        assert_eq!(sim.exit_code(), 1);
    }

    #[test]
    fn source_chain_reaches_the_inner_error() {
        let e: Error = metrics_error().into();
        // Error::Sim -> mempool::Error::Metrics -> MetricsError
        let mid = e.source().expect("suite error has a source");
        let inner = mid.source().expect("core error has a source");
        assert!(inner.to_string().contains("cluster/tile99"));
        assert!(e.to_string().contains("metrics"));
    }
}
