//! Experiment harness reproducing every table and figure of the AccQOC
//! paper's evaluation (§VI).
//!
//! Each `fig*`/`table*` binary in `src/bin/` regenerates one artifact;
//! this library holds the shared setup (compiler, suite, pulse-cache
//! persistence) and the experiment implementations so binaries stay thin
//! and integration tests can call the same code.

#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod golden;
pub mod scenario;
pub mod table;

pub use context::{fast_mode, ExperimentContext};
pub use golden::{compute_corpus, diff_corpus, GoldenCorpus, GoldenRow};
pub use table::{print_table, write_csv};
