//! Experiment harness reproducing every table and figure of the AccQOC
//! paper's evaluation (§VI).
//!
//! The `paper` binary in `src/bin/` regenerates them all, or the ones it
//! is named; this library holds the shared setup (session, suite, the
//! in-process category pre-compile) and the experiment implementations,
//! so the binary only formats and records rows and integration tests can
//! call the same code.

#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod golden;
pub mod scenario;
pub mod table;

pub use context::{fast_mode, ExperimentContext};
pub use golden::{compute_corpus, diff_corpus, GoldenCorpus, GoldenRow};
pub use table::{print_table, write_csv, write_csv_in};
