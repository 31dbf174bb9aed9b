//! # mempool-suite
//!
//! The umbrella crate of the MemPool reproduction: re-exports every member
//! crate and hosts the runnable examples (`examples/`), the cross-crate
//! integration tests (`tests/`), and the command-line layer ([`cli`]) under the
//! `mempool-run`, `mempool-serve` and `mempool-cli` binaries.
//!
//! Start from [`mempool`] (the cluster simulator) or the repository
//! README.

pub mod bench;
pub mod cli;
pub mod error;
pub mod worker;

pub use error::Error;

pub use mempool;
pub use mempool_kernels;
pub use mempool_mem;
pub use mempool_noc;
pub use mempool_physical;
pub use mempool_riscv;
pub use mempool_snitch;
pub use mempool_traffic;
