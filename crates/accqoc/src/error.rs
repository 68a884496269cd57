//! The unified error hierarchy of the AccQOC compiler.
//!
//! Every fallible operation in this crate returns [`Error`]. Errors from
//! the lower layers — the GRAPE latency search ([`LatencyError`]), the
//! QASM parser ([`QasmError`]), the linear-algebra substrate
//! ([`LinalgError`]), cache persistence ([`JsonError`], [`io::Error`]) —
//! convert into it with `From`, so `?` works across every crate boundary
//! of the pipeline.

use std::fmt;
use std::io;

use accqoc_circuit::QasmError;
use accqoc_grape::LatencyError;
use accqoc_linalg::LinalgError;

use crate::json::JsonError;

/// Convenience alias: this crate's `Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Any failure of the AccQOC compilation pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// GRAPE could not reach the fidelity target for a group within the
    /// latency cap.
    CompileFailed {
        /// How many qubits the failing group had.
        n_qubits: usize,
        /// The latency-search failure.
        source: LatencyError,
    },
    /// A group was wider than the configured model set.
    GroupTooWide {
        /// Offending group arity.
        n_qubits: usize,
        /// Largest supported arity.
        max: usize,
    },
    /// A program declares more qubits than the session's device has, so
    /// the front end cannot map it.
    ProgramTooWide {
        /// Qubits the program declares.
        n_qubits: usize,
        /// Physical qubits of the device.
        device: usize,
    },
    /// A group over zero qubits was submitted (no control model exists
    /// for it, and no pulse could realize it).
    EmptyGroup,
    /// A caller-supplied target is not a finite `2^n × 2^n` unitary.
    InvalidTarget {
        /// Arity the target was submitted for.
        n_qubits: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A required [`crate::SessionBuilder`] field was never set.
    Builder {
        /// Name of the missing field.
        field: &'static str,
    },
    /// A configuration value is outside its supported domain.
    InvalidConfig {
        /// What was wrong.
        message: String,
    },
    /// A stage that needs every group pulse cached found one missing
    /// (run [`crate::Session::compile`] before [`crate::Session::latency`]).
    UncoveredGroup {
        /// Arity of the uncovered group.
        n_qubits: usize,
    },
    /// The batch pipeline needs every unique group of a program cached at
    /// once, but the library's LRU capacity bound is smaller than the
    /// program's unique-group count — compiled pulses would be evicted
    /// before the latency stage could read them back. Raise the bound or
    /// use the online [`crate::Session::serve_program`] path, which folds
    /// latencies as it compiles and works at any capacity.
    CapacityExceeded {
        /// The configured library capacity.
        capacity: usize,
        /// Unique groups the program needs cached simultaneously.
        required: usize,
    },
    /// A latency search failed outside of group compilation.
    Latency(LatencyError),
    /// QASM parsing failed.
    Qasm(QasmError),
    /// A linear-algebra kernel failed.
    Linalg(LinalgError),
    /// Pulse-cache JSON was malformed.
    Json(JsonError),
    /// File I/O failed (cache persistence).
    Io(io::Error),
    /// The durable library tier failed: a write-ahead-log or snapshot
    /// operation hit an I/O error, or recovery found a checksum-corrupted
    /// record (see [`accqoc_store::StoreError`] for which).
    Store(accqoc_store::StoreError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CompileFailed { n_qubits, source } => {
                write!(
                    f,
                    "pulse compilation failed for a {n_qubits}-qubit group: {source}"
                )
            }
            Self::GroupTooWide { n_qubits, max } => {
                write!(f, "group has {n_qubits} qubits but models stop at {max}")
            }
            Self::ProgramTooWide { n_qubits, device } => write!(
                f,
                "program declares {n_qubits} qubits but the device has {device}"
            ),
            Self::EmptyGroup => write!(f, "group spans zero qubits"),
            Self::InvalidTarget { n_qubits, message } => {
                write!(f, "the {n_qubits}-qubit target {message}")
            }
            Self::Builder { field } => {
                write!(f, "session builder is missing the required `{field}` field")
            }
            Self::InvalidConfig { message } => write!(f, "invalid configuration: {message}"),
            Self::UncoveredGroup { n_qubits } => write!(
                f,
                "a {n_qubits}-qubit group has no cached pulse (run the compile stage first)"
            ),
            Self::CapacityExceeded { capacity, required } => write!(
                f,
                "library capacity {capacity} is below the program's {required} unique groups \
                 (raise the bound or serve the program online)"
            ),
            Self::Latency(e) => write!(f, "latency search failed: {e}"),
            Self::Qasm(e) => write!(f, "qasm parsing failed: {e}"),
            Self::Linalg(e) => write!(f, "linear algebra failed: {e}"),
            Self::Json(e) => write!(f, "pulse-cache json malformed: {e}"),
            Self::Io(e) => write!(f, "i/o failed: {e}"),
            Self::Store(e) => write!(f, "durable store failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::CompileFailed { source, .. } => Some(source),
            Self::Latency(e) => Some(e),
            Self::Qasm(e) => Some(e),
            Self::Linalg(e) => Some(e),
            Self::Json(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LatencyError> for Error {
    fn from(e: LatencyError) -> Self {
        Self::Latency(e)
    }
}

impl From<QasmError> for Error {
    fn from(e: QasmError) -> Self {
        Self::Qasm(e)
    }
}

impl From<LinalgError> for Error {
    fn from(e: LinalgError) -> Self {
        Self::Linalg(e)
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Self::Json(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<accqoc_store::StoreError> for Error {
    fn from(e: accqoc_store::StoreError) -> Self {
        Self::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_covers_every_variant() {
        let latency = LatencyError::Infeasible {
            max_steps: 8,
            best_infidelity: 0.3,
        };
        let cases: Vec<(Error, &str)> = vec![
            (
                Error::CompileFailed {
                    n_qubits: 2,
                    source: latency.clone(),
                },
                "2-qubit group",
            ),
            (
                Error::GroupTooWide {
                    n_qubits: 5,
                    max: 2,
                },
                "5 qubits",
            ),
            (
                Error::ProgramTooWide {
                    n_qubits: 100,
                    device: 3,
                },
                "100 qubits but the device has 3",
            ),
            (Error::EmptyGroup, "zero qubits"),
            (Error::Builder { field: "topology" }, "`topology`"),
            (
                Error::InvalidConfig {
                    message: "bad".into(),
                },
                "bad",
            ),
            (Error::UncoveredGroup { n_qubits: 2 }, "no cached pulse"),
            (
                Error::CapacityExceeded {
                    capacity: 2,
                    required: 9,
                },
                "9 unique groups",
            ),
            (Error::Latency(latency.clone()), "latency search"),
            (
                Error::Qasm(QasmError {
                    line: 3,
                    message: "nope".into(),
                }),
                "qasm",
            ),
            (
                Error::Json(JsonError {
                    message: "eof".into(),
                    offset: 0,
                }),
                "json",
            ),
            (Error::Io(io::Error::other("disk")), "disk"),
            (
                Error::Store(accqoc_store::StoreError::Corrupt {
                    path: "wal.log".into(),
                    offset: 24,
                    records_ok: 3,
                    message: "frame checksum mismatch".into(),
                }),
                "checksum",
            ),
        ];
        for (e, needle) in cases {
            let shown = e.to_string();
            assert!(
                shown.contains(needle),
                "{shown:?} should mention {needle:?}"
            );
        }
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        let latency = LatencyError::Infeasible {
            max_steps: 8,
            best_infidelity: 0.3,
        };
        let e = Error::CompileFailed {
            n_qubits: 2,
            source: latency.clone(),
        };
        let source = e.source().expect("compile failures carry a source");
        assert_eq!(source.to_string(), latency.to_string());
        assert!(Error::EmptyGroup.source().is_none());
        assert!(Error::from(latency).source().is_some());
    }

    #[test]
    fn from_conversions_pick_the_right_variant() {
        let e: Error = QasmError {
            line: 1,
            message: "x".into(),
        }
        .into();
        assert!(matches!(e, Error::Qasm(_)));
        let e: Error = io::Error::other("x").into();
        assert!(matches!(e, Error::Io(_)));
        let e: Error = JsonError {
            message: "x".into(),
            offset: 3,
        }
        .into();
        assert!(matches!(e, Error::Json(_)));
        let e: Error = accqoc_store::StoreError::Io(io::Error::other("x")).into();
        assert!(matches!(e, Error::Store(_)));
        assert!(e.source().is_some());
    }
}
