//! The daemon's wire protocol: newline-delimited JSON frames.
//!
//! Every message is one line of compact JSON (no raw newlines — strings
//! escape control characters) terminated by `\n`. Requests carry a
//! client-chosen `id` that the matching response echoes, so a client can
//! pipeline calls over one connection. Circuits travel as OpenQASM
//! source ([`accqoc_circuit::parse_qasm`] / [`accqoc_circuit::to_qasm`]),
//! pulses as the same JSON artifact [`PulseCache`] persists to disk —
//! both ends of the wire speak formats the repository already pins as
//! byte-deterministic.
//!
//! Request frame:
//!
//! ```json
//! {"id": 1, "method": "serve_program", "params": {"qasm": "...", "return_pulses": true}}
//! ```
//!
//! Response frame (success / failure):
//!
//! ```json
//! {"id": 1, "ok": true, "result": {...}}
//! {"id": 1, "ok": false, "error": {"code": "busy", "message": "..."}}
//! ```

use accqoc::json::{self, hex_decode, hex_encode, JsonValue};
use accqoc::{LibraryStats, PulseCache, ServeReport, VerifyReport};
use accqoc_circuit::UnitaryKey;

/// Default page size of the `library` method when the request names none.
pub const DEFAULT_LIBRARY_LIMIT: usize = 50;
/// Hard page-size cap of the `library` method: a larger requested limit
/// is clamped, never honored (one page must stay a bounded frame).
pub const MAX_LIBRARY_LIMIT: usize = 500;

/// Group keys as the hex-string array every frame spells them with.
fn keys_to_json(keys: &[UnitaryKey]) -> JsonValue {
    JsonValue::Array(
        keys.iter()
            .map(|k| JsonValue::String(hex_encode(k.as_bytes())))
            .collect(),
    )
}

/// Decodes a hex-string key array (`keys` of a `pulses` call, `missing`
/// of a response). `field` names the array in the error message.
pub(crate) fn keys_from_json(items: &[JsonValue], field: &str) -> Result<Vec<UnitaryKey>, String> {
    items
        .iter()
        .map(|k| {
            let text = k
                .as_str()
                .ok_or_else(|| format!("`{field}` holds a non-string"))?;
            hex_decode(text)
                .map(UnitaryKey::from_bytes)
                .map_err(|e| format!("bad key: {e}"))
        })
        .collect()
}

/// Machine-readable failure classes a response can carry. Protocol-level
/// codes (`malformed_json` … `oversized`) mean the request never reached
/// the compiler; compiler-level codes (`qasm`, `compile`) wrap an
/// [`accqoc::Error`] from the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request line was not valid JSON.
    MalformedJson,
    /// The `method` field named no known method.
    UnknownMethod,
    /// The `params` object was missing a required field or mistyped.
    BadParams,
    /// The request line exceeded the daemon's size cap.
    Oversized,
    /// The admission queue was full — retry later (the daemon never
    /// blocks the accept loop on a full queue).
    Busy,
    /// The daemon is draining for shutdown.
    ShuttingDown,
    /// The QASM payload did not parse, or declares more qubits than the
    /// device has.
    Qasm,
    /// Pulse compilation or verification failed in the session.
    Compile,
    /// HTTP: the request path names no route.
    NotFound,
    /// HTTP: the route exists but not for the request's method verb.
    MethodNotAllowed,
    /// Router mode: the shard owning the request's groups did not answer
    /// within the router's bounded retry/backoff budget. Retryable — the
    /// shard may be restarting from its durable store.
    ShardUnavailable,
    /// Anything else (a bug, by definition).
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::MalformedJson => "malformed_json",
            Self::UnknownMethod => "unknown_method",
            Self::BadParams => "bad_params",
            Self::Oversized => "oversized",
            Self::Busy => "busy",
            Self::ShuttingDown => "shutting_down",
            Self::Qasm => "qasm",
            Self::Compile => "compile",
            Self::NotFound => "not_found",
            Self::MethodNotAllowed => "method_not_allowed",
            Self::ShardUnavailable => "shard_unavailable",
            Self::Internal => "internal",
        }
    }

    fn from_str(text: &str) -> Self {
        match text {
            "malformed_json" => Self::MalformedJson,
            "unknown_method" => Self::UnknownMethod,
            "bad_params" => Self::BadParams,
            "oversized" => Self::Oversized,
            "busy" => Self::Busy,
            "shutting_down" => Self::ShuttingDown,
            "qasm" => Self::Qasm,
            "compile" => Self::Compile,
            "not_found" => Self::NotFound,
            "method_not_allowed" => Self::MethodNotAllowed,
            "shard_unavailable" => Self::ShardUnavailable,
            _ => Self::Internal,
        }
    }
}

/// A typed failure carried in a response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Builds a wire error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    pub(crate) fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "code".into(),
                JsonValue::String(self.code.as_str().to_string()),
            ),
            ("message".into(), JsonValue::String(self.message.clone())),
        ])
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let code = value
            .get("code")
            .and_then(JsonValue::as_str)
            .ok_or("error missing `code`")?;
        let message = value
            .get("message")
            .and_then(JsonValue::as_str)
            .ok_or("error missing `message`")?;
        Ok(Self {
            code: ErrorCode::from_str(code),
            message: message.to_string(),
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// The methods the daemon serves, with their parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// Serve one program against the live pulse library
    /// ([`accqoc::Session::serve_program`] semantics: hits free, misses
    /// warm-started, results inserted back).
    ServeProgram {
        /// The program as OpenQASM source.
        qasm: String,
        /// When `true`, the response carries the resolved pulses for the
        /// program's unique groups as a [`PulseCache`] artifact.
        return_pulses: bool,
        /// Router mode: restrict serving to the unique groups of these
        /// widths (the groups the addressed shard owns on the hash
        /// ring). `None` — the single-process default — serves every
        /// group. Warm starts are width-local, so a width-filtered serve
        /// produces byte-identical pulses for the owned groups.
        only_qubits: Option<Vec<usize>>,
    },
    /// Batch pre-compilation of a profiled program set
    /// ([`accqoc::Session::precompile`], MST order).
    Precompile {
        /// The profiled programs as OpenQASM sources.
        programs: Vec<String>,
        /// Router mode: precompile only the unique groups of these
        /// widths (see [`Call::ServeProgram::only_qubits`]).
        only_qubits: Option<Vec<usize>>,
    },
    /// Semantic verification of a program against the library's pulses
    /// ([`accqoc::Session::verify_program`]).
    VerifyProgram {
        /// The program as OpenQASM source.
        qasm: String,
    },
    /// Library counters, server counters, and queue depth.
    Stats,
    /// A page of the live library's entry metadata (key, width, latency,
    /// pulse shape — not the amplitudes), sorted by key for stable
    /// pagination.
    Library {
        /// Maximum entries in the page (clamped to
        /// [`MAX_LIBRARY_LIMIT`]).
        limit: usize,
        /// Entries to skip (in key order) before the page starts.
        offset: usize,
    },
    /// Pulse amplitudes for an explicit key set — the router's verify
    /// path: fetch the owned pulses from each shard, then verify locally
    /// against the program's reference unitaries.
    Pulses {
        /// The canonical group keys to fetch.
        keys: Vec<UnitaryKey>,
    },
    /// Graceful shutdown: the daemon stops accepting, drains queued
    /// requests, and exits. Handled by the connection thread directly,
    /// so it works even when the admission queue is full.
    Shutdown,
}

impl Call {
    fn method(&self) -> &'static str {
        match self {
            Self::ServeProgram { .. } => "serve_program",
            Self::Precompile { .. } => "precompile",
            Self::VerifyProgram { .. } => "verify_program",
            Self::Stats => "stats",
            Self::Library { .. } => "library",
            Self::Pulses { .. } => "pulses",
            Self::Shutdown => "shutdown",
        }
    }

    /// Decodes a call whose parameters travel as one JSON object —
    /// `serve_program`, `precompile`, `verify_program` and `pulses` —
    /// from that object (`None` when the request carries none). Both wire
    /// surfaces decode these calls here, the line frame's `params` and
    /// the HTTP request body alike, so their error codes and messages
    /// agree.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadParams`] for a missing or mistyped parameter,
    /// [`ErrorCode::UnknownMethod`] for any other method name.
    pub(crate) fn from_params(method: &str, params: Option<&JsonValue>) -> Result<Self, WireError> {
        fn bad(message: impl Into<String>) -> WireError {
            WireError::new(ErrorCode::BadParams, message)
        }
        let param = |name: &str| params.and_then(|p| p.get(name));
        let string = |name: &str| {
            param(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("missing string param `{name}`")))
        };
        let array = |name: &str| {
            param(name)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad(format!("missing array param `{name}`")))
        };
        let widths = || match param("only_qubits") {
            None => Ok(None),
            Some(value) => value
                .as_array()
                .ok_or_else(|| bad("`only_qubits` must be an array"))?
                .iter()
                .map(|w| {
                    w.as_usize()
                        .ok_or_else(|| bad("`only_qubits` holds a non-integer"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        };
        Ok(match method {
            "serve_program" => Self::ServeProgram {
                qasm: string("qasm")?,
                return_pulses: matches!(param("return_pulses"), Some(JsonValue::Bool(true))),
                only_qubits: widths()?,
            },
            "precompile" => Self::Precompile {
                programs: array("programs")?
                    .iter()
                    .map(|p| {
                        p.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| bad("`programs` holds a non-string"))
                    })
                    .collect::<Result<_, _>>()?,
                only_qubits: widths()?,
            },
            "verify_program" => Self::VerifyProgram {
                qasm: string("qasm")?,
            },
            "pulses" => Self::Pulses {
                keys: keys_from_json(array("keys")?, "keys").map_err(bad)?,
            },
            other => {
                return Err(WireError::new(
                    ErrorCode::UnknownMethod,
                    format!("unknown method `{other}`"),
                ))
            }
        })
    }
}

/// One request frame: an `id` the response echoes, plus the call.
///
/// # Examples
///
/// ```
/// use accqoc_server::protocol::{Call, Request};
///
/// let request = Request {
///     id: 7,
///     call: Call::ServeProgram {
///         qasm: "qreg q[1]; h q[0];".into(),
///         return_pulses: false,
///         only_qubits: None,
///     },
/// };
/// let line = request.encode();
/// assert!(!line.contains('\n'), "one frame per line");
/// assert_eq!(Request::decode(&line).unwrap(), request);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed by the response.
    pub id: u64,
    /// The method and its parameters.
    pub call: Call,
}

/// A decode failure, carrying the request id when it could be salvaged
/// from the malformed frame (0 otherwise) so the error response still
/// correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Best-effort id of the offending request.
    pub id: u64,
    /// The typed failure to send back.
    pub error: WireError,
}

impl Request {
    /// Serializes the request as one compact JSON line (no trailing
    /// newline; the transport appends the frame delimiter).
    pub fn encode(&self) -> String {
        // `only_qubits: None` is omitted from the frame, so a pre-router
        // client's requests are byte-identical to what it sent before the
        // field existed.
        let widths_field = |fields: &mut Vec<(String, JsonValue)>, widths: &Option<Vec<usize>>| {
            if let Some(widths) = widths {
                fields.push((
                    "only_qubits".into(),
                    JsonValue::Array(
                        widths
                            .iter()
                            .map(|&w| JsonValue::Number(w as f64))
                            .collect(),
                    ),
                ));
            }
        };
        let params = match &self.call {
            Call::ServeProgram {
                qasm,
                return_pulses,
                only_qubits,
            } => {
                let mut fields = vec![
                    ("qasm".into(), JsonValue::String(qasm.clone())),
                    ("return_pulses".into(), JsonValue::Bool(*return_pulses)),
                ];
                widths_field(&mut fields, only_qubits);
                Some(JsonValue::Object(fields))
            }
            Call::Precompile {
                programs,
                only_qubits,
            } => {
                let mut fields = vec![(
                    "programs".into(),
                    JsonValue::Array(
                        programs
                            .iter()
                            .map(|p| JsonValue::String(p.clone()))
                            .collect(),
                    ),
                )];
                widths_field(&mut fields, only_qubits);
                Some(JsonValue::Object(fields))
            }
            Call::VerifyProgram { qasm } => Some(JsonValue::Object(vec![(
                "qasm".into(),
                JsonValue::String(qasm.clone()),
            )])),
            Call::Library { limit, offset } => Some(JsonValue::Object(vec![
                ("limit".into(), JsonValue::Number(*limit as f64)),
                ("offset".into(), JsonValue::Number(*offset as f64)),
            ])),
            Call::Pulses { keys } => {
                Some(JsonValue::Object(vec![("keys".into(), keys_to_json(keys))]))
            }
            Call::Stats | Call::Shutdown => None,
        };
        let mut fields = vec![
            ("id".into(), JsonValue::Number(self.id as f64)),
            (
                "method".into(),
                JsonValue::String(self.call.method().to_string()),
            ),
        ];
        if let Some(params) = params {
            fields.push(("params".into(), params));
        }
        JsonValue::Object(fields).to_compact()
    }

    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] with [`ErrorCode::MalformedJson`],
    /// [`ErrorCode::UnknownMethod`], or [`ErrorCode::BadParams`]; the
    /// carried id is salvaged from the frame when possible.
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        let doc = json::parse(line).map_err(|e| DecodeError {
            id: 0,
            error: WireError::new(ErrorCode::MalformedJson, e.to_string()),
        })?;
        let id = doc
            .get("id")
            .and_then(JsonValue::as_usize)
            .map(|n| n as u64)
            .unwrap_or(0);
        let fail = |code, message: String| DecodeError {
            id,
            error: WireError::new(code, message),
        };
        let method = doc
            .get("method")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| fail(ErrorCode::BadParams, "missing `method`".into()))?;
        let call = match method {
            "stats" => Call::Stats,
            "shutdown" => Call::Shutdown,
            "library" => {
                let param_count = |name: &str, default: usize| match doc
                    .get("params")
                    .and_then(|p| p.get(name))
                {
                    None => Ok(default),
                    Some(value) => value.as_usize().ok_or_else(|| {
                        fail(
                            ErrorCode::BadParams,
                            format!("param `{name}` must be a non-negative integer"),
                        )
                    }),
                };
                Call::Library {
                    limit: param_count("limit", DEFAULT_LIBRARY_LIMIT)?.min(MAX_LIBRARY_LIMIT),
                    offset: param_count("offset", 0)?,
                }
            }
            _ => Call::from_params(method, doc.get("params"))
                .map_err(|error| DecodeError { id, error })?,
        };
        Ok(Self { id, call })
    }

    /// Decodes one frame as read off the socket: the raw bytes before its
    /// `\n`, with an optional trailing `\r`. Bytes that are not UTF-8
    /// become U+FFFD, so they fail as JSON like any other bad text.
    /// `None` means a blank line, which the protocol skips.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode_frame(frame: &[u8]) -> Option<Result<Self, DecodeError>> {
        let frame = frame.strip_suffix(b"\r").unwrap_or(frame);
        let line = String::from_utf8_lossy(frame);
        if line.trim().is_empty() {
            return None;
        }
        Some(Self::decode(&line))
    }
}

/// Counters the daemon keeps about itself (the library's own
/// [`LibraryStats`] ride alongside in [`StatsSnapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Connections refused because the connection cap was reached.
    pub connections_rejected: u64,
    /// Requests a worker completed (success or typed failure).
    pub requests_served: u64,
    /// Requests rejected with [`ErrorCode::Busy`] at admission.
    pub requests_rejected_busy: u64,
    /// Malformed, oversized, or truncated frames observed.
    pub protocol_errors: u64,
    /// Serve requests that waited on another client's in-flight compile
    /// of the same group instead of compiling it again.
    pub coalesced_waits: u64,
}

impl ServerCounters {
    fn to_json_value(self) -> JsonValue {
        let field = |n: u64| JsonValue::Number(n as f64);
        JsonValue::Object(vec![
            (
                "connections_accepted".into(),
                field(self.connections_accepted),
            ),
            (
                "connections_rejected".into(),
                field(self.connections_rejected),
            ),
            ("requests_served".into(), field(self.requests_served)),
            (
                "requests_rejected_busy".into(),
                field(self.requests_rejected_busy),
            ),
            ("protocol_errors".into(), field(self.protocol_errors)),
            ("coalesced_waits".into(), field(self.coalesced_waits)),
        ])
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let field = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .map(|n| n as u64)
                .ok_or_else(|| format!("server counters missing `{name}`"))
        };
        Ok(Self {
            connections_accepted: field("connections_accepted")?,
            connections_rejected: field("connections_rejected")?,
            requests_served: field("requests_served")?,
            requests_rejected_busy: field("requests_rejected_busy")?,
            protocol_errors: field("protocol_errors")?,
            coalesced_waits: field("coalesced_waits")?,
        })
    }
}

/// The `stats` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The shared library's hit/miss/warm/scratch/eviction counters —
    /// the same numbers [`accqoc::PulseLibrary::stats`] reports
    /// in-process.
    pub library: LibraryStats,
    /// The daemon's own counters.
    pub server: ServerCounters,
    /// Entries currently stored in the library.
    pub library_len: usize,
    /// Requests currently queued for admission.
    pub queue_depth: usize,
}

/// The summary body of a `precompile` response (the wire projection of
/// [`accqoc::PrecompileReport`] — per-group frequency tables stay
/// server-side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecompileSummary {
    /// Programs profiled.
    pub n_programs: usize,
    /// Unique groups in the profiled category.
    pub n_unique_groups: usize,
    /// GRAPE iterations spent filling the library.
    pub total_iterations: usize,
}

/// Metadata of one library entry as the `library` method pages it out
/// (identity and shape, not the amplitude data — fetch pulses through
/// `serve_program` with `return_pulses`).
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryEntryInfo {
    /// The canonical group key, hex-encoded (the same spelling the
    /// pulse-cache artifact uses).
    pub key: String,
    /// Qubits the group spans.
    pub n_qubits: usize,
    /// Minimal feasible latency of the stored pulse, nanoseconds.
    pub latency_ns: f64,
    /// GRAPE iterations spent compiling the entry.
    pub iterations: usize,
    /// Time steps in the stored pulse.
    pub n_steps: usize,
}

impl LibraryEntryInfo {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("key".into(), JsonValue::String(self.key.clone())),
            ("n_qubits".into(), JsonValue::Number(self.n_qubits as f64)),
            ("latency_ns".into(), JsonValue::Number(self.latency_ns)),
            (
                "iterations".into(),
                JsonValue::Number(self.iterations as f64),
            ),
            ("n_steps".into(), JsonValue::Number(self.n_steps as f64)),
        ])
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let count = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("library entry missing `{name}`"))
        };
        Ok(Self {
            key: value
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or("library entry missing `key`")?
                .to_string(),
            n_qubits: count("n_qubits")?,
            latency_ns: value
                .get("latency_ns")
                .and_then(JsonValue::as_f64)
                .ok_or("library entry missing `latency_ns`")?,
            iterations: count("iterations")?,
            n_steps: count("n_steps")?,
        })
    }
}

/// One page of library entries (the `library` response body). `total`
/// counts the whole library at snapshot time, so a client pages with
/// `offset += entries.len()` until `offset >= total`.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryPage {
    /// Entries in the library when the page was cut.
    pub total: usize,
    /// The page's starting position in key order.
    pub offset: usize,
    /// The limit the page was cut with (after clamping).
    pub limit: usize,
    /// The page itself, sorted by key.
    pub entries: Vec<LibraryEntryInfo>,
}

impl LibraryPage {
    pub(crate) fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("total".into(), JsonValue::Number(self.total as f64)),
            ("offset".into(), JsonValue::Number(self.offset as f64)),
            ("limit".into(), JsonValue::Number(self.limit as f64)),
            (
                "entries".into(),
                JsonValue::Array(
                    self.entries
                        .iter()
                        .map(LibraryEntryInfo::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json_value(value: &JsonValue) -> Result<Self, String> {
        let count = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("library page missing `{name}`"))
        };
        Ok(Self {
            total: count("total")?,
            offset: count("offset")?,
            limit: count("limit")?,
            entries: value
                .get("entries")
                .and_then(JsonValue::as_array)
                .ok_or("library page missing `entries`")?
                .iter()
                .map(LibraryEntryInfo::from_json_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// A successful response body, one variant per method.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// `serve_program`: the full [`ServeReport`] the in-process path
    /// would return, plus the resolved pulses when requested.
    Serve {
        /// The serving report (same counters as in-process).
        report: ServeReport,
        /// The program's unique-group pulses, when
        /// `return_pulses: true`.
        pulses: Option<PulseCache>,
        /// Group keys the report covers whose pulses could *not* be read
        /// back — a capacity-bounded library evicted them between the
        /// serve and the response. Empty with an unbounded library; a
        /// client that requested pulses must treat these groups as
        /// unresolved instead of trusting a silently-short cache.
        missing: Vec<UnitaryKey>,
    },
    /// `precompile`: the category summary.
    Precompile(PrecompileSummary),
    /// `verify_program`: the full [`VerifyReport`].
    Verify(VerifyReport),
    /// `stats`: library + server counters.
    Stats(StatsSnapshot),
    /// `library`: one page of entry metadata.
    Library(LibraryPage),
    /// `pulses`: the requested entries, plus the keys the library no
    /// longer holds (evicted since the caller learned them).
    Pulses {
        /// The entries found, as the byte-deterministic cache artifact.
        pulses: PulseCache,
        /// Requested keys with no live entry, sorted.
        missing: Vec<UnitaryKey>,
    },
    /// `shutdown`: acknowledged; the daemon is draining.
    Shutdown,
}

impl Payload {
    /// The wire spelling of the method this payload answers.
    pub fn method(&self) -> &'static str {
        match self {
            Self::Serve { .. } => "serve_program",
            Self::Precompile(_) => "precompile",
            Self::Verify(_) => "verify_program",
            Self::Stats(_) => "stats",
            Self::Library(_) => "library",
            Self::Pulses { .. } => "pulses",
            Self::Shutdown => "shutdown",
        }
    }

    /// The payload's `result` object — shared by the legacy frame
    /// encoder and the HTTP response body.
    pub(crate) fn to_json_value(&self) -> JsonValue {
        match self {
            Payload::Serve {
                report,
                pulses,
                missing,
            } => {
                let mut result = vec![("report".into(), report.to_json_value())];
                if let Some(cache) = pulses {
                    result.push(("pulses".into(), cache.to_json_value()));
                }
                if !missing.is_empty() {
                    result.push(("missing".into(), keys_to_json(missing)));
                }
                JsonValue::Object(result)
            }
            Payload::Precompile(s) => JsonValue::Object(vec![
                ("n_programs".into(), JsonValue::Number(s.n_programs as f64)),
                (
                    "n_unique_groups".into(),
                    JsonValue::Number(s.n_unique_groups as f64),
                ),
                (
                    "total_iterations".into(),
                    JsonValue::Number(s.total_iterations as f64),
                ),
            ]),
            Payload::Verify(report) => report.to_json_value(),
            Payload::Stats(s) => JsonValue::Object(vec![
                ("library".into(), s.library.to_json_value()),
                ("server".into(), s.server.to_json_value()),
                (
                    "library_len".into(),
                    JsonValue::Number(s.library_len as f64),
                ),
                (
                    "queue_depth".into(),
                    JsonValue::Number(s.queue_depth as f64),
                ),
            ]),
            Payload::Library(page) => page.to_json_value(),
            Payload::Pulses { pulses, missing } => JsonValue::Object(vec![
                ("pulses".into(), pulses.to_json_value()),
                ("missing".into(), keys_to_json(missing)),
            ]),
            Payload::Shutdown => JsonValue::Object(vec![]),
        }
    }

    /// Rebuilds a payload from a `(method, result)` pair — shared by the
    /// legacy frame decoder (and exercised by every response roundtrip
    /// test).
    pub(crate) fn from_json_value(method: &str, result: &JsonValue) -> Result<Self, String> {
        let count = |value: &JsonValue, name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("result missing `{name}`"))
        };
        Ok(match method {
            "serve_program" => {
                let report = result
                    .get("report")
                    .ok_or_else(|| "serve result missing `report`".to_string())
                    .and_then(|r| {
                        ServeReport::from_json_value(r).map_err(|e| format!("bad report: {e}"))
                    })?;
                let pulses = match result.get("pulses") {
                    Some(value) => Some(
                        PulseCache::from_json_value(value)
                            .map_err(|e| format!("bad pulses: {e}"))?,
                    ),
                    None => None,
                };
                let missing = match result.get("missing") {
                    None => Vec::new(),
                    Some(value) => keys_from_json(
                        value.as_array().ok_or("`missing` is not an array")?,
                        "missing",
                    )?,
                };
                Payload::Serve {
                    report,
                    pulses,
                    missing,
                }
            }
            "precompile" => Payload::Precompile(PrecompileSummary {
                n_programs: count(result, "n_programs")?,
                n_unique_groups: count(result, "n_unique_groups")?,
                total_iterations: count(result, "total_iterations")?,
            }),
            "verify_program" => Payload::Verify(
                VerifyReport::from_json_value(result)
                    .map_err(|e| format!("bad verify report: {e}"))?,
            ),
            "stats" => Payload::Stats(StatsSnapshot {
                library: LibraryStats::from_json_value(
                    result.get("library").ok_or("stats missing `library`")?,
                )
                .map_err(|e| format!("bad library stats: {e}"))?,
                server: ServerCounters::from_json_value(
                    result.get("server").ok_or("stats missing `server`")?,
                )?,
                library_len: count(result, "library_len")?,
                queue_depth: count(result, "queue_depth")?,
            }),
            "library" => Payload::Library(LibraryPage::from_json_value(result)?),
            "pulses" => Payload::Pulses {
                pulses: PulseCache::from_json_value(
                    result
                        .get("pulses")
                        .ok_or("pulses result missing `pulses`")?,
                )
                .map_err(|e| format!("bad pulses: {e}"))?,
                missing: keys_from_json(
                    result
                        .get("missing")
                        .and_then(JsonValue::as_array)
                        .ok_or("pulses result missing `missing`")?,
                    "missing",
                )?,
            },
            "shutdown" => Payload::Shutdown,
            other => return Err(format!("unknown response method `{other}`")),
        })
    }
}

/// One response frame: the echoed request id and either a typed payload
/// or a typed error.
///
/// # Examples
///
/// ```
/// use accqoc_server::protocol::{ErrorCode, Payload, Response, WireError};
///
/// let ok = Response { id: 7, body: Ok(Payload::Shutdown) };
/// assert_eq!(Response::decode(&ok.encode()).unwrap(), ok);
///
/// let err = Response {
///     id: 8,
///     body: Err(WireError::new(ErrorCode::Busy, "queue full (64)")),
/// };
/// let line = err.encode();
/// assert!(line.contains("\"busy\""));
/// assert_eq!(Response::decode(&line).unwrap(), err);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers (0 when the request's id was
    /// unreadable).
    pub id: u64,
    /// Payload on success, typed error on failure.
    pub body: Result<Payload, WireError>,
}

impl Response {
    /// A failure response.
    pub fn failure(id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            id,
            body: Err(WireError::new(code, message)),
        }
    }

    /// Serializes the response as one compact JSON line (no trailing
    /// newline).
    pub fn encode(&self) -> String {
        let mut fields = vec![("id".into(), JsonValue::Number(self.id as f64))];
        match &self.body {
            Ok(payload) => {
                fields.push(("ok".into(), JsonValue::Bool(true)));
                fields.push((
                    "method".into(),
                    JsonValue::String(payload.method().to_string()),
                ));
                fields.push(("result".into(), payload.to_json_value()));
            }
            Err(error) => {
                fields.push(("ok".into(), JsonValue::Bool(false)));
                fields.push(("error".into(), error.to_json_value()));
            }
        }
        JsonValue::Object(fields).to_compact()
    }

    /// Parses one response frame.
    ///
    /// # Errors
    ///
    /// A description of what made the frame unreadable (a *transport*
    /// failure — a readable frame carrying a server-side error decodes
    /// into `Ok` with `body: Err(..)`).
    pub fn decode(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| format!("response is not json: {e}"))?;
        let id = doc
            .get("id")
            .and_then(JsonValue::as_usize)
            .ok_or("response missing `id`")? as u64;
        let ok = match doc.get("ok") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err("response missing `ok`".into()),
        };
        if !ok {
            let error = doc.get("error").ok_or("failure response missing `error`")?;
            return Ok(Self {
                id,
                body: Err(WireError::from_json_value(error)?),
            });
        }
        let method = doc
            .get("method")
            .and_then(JsonValue::as_str)
            .ok_or("success response missing `method`")?;
        let result = doc
            .get("result")
            .ok_or("success response missing `result`")?;
        Ok(Self {
            id,
            body: Ok(Payload::from_json_value(method, result)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_methods() {
        let calls = vec![
            Call::ServeProgram {
                qasm: "qreg q[2]; cx q[0],q[1];".into(),
                return_pulses: true,
                only_qubits: None,
            },
            Call::ServeProgram {
                qasm: "qreg q[2]; cx q[0],q[1];".into(),
                return_pulses: false,
                only_qubits: Some(vec![1, 2]),
            },
            Call::Precompile {
                programs: vec!["qreg q[1]; h q[0];".into(), "qreg q[1]; t q[0];".into()],
                only_qubits: None,
            },
            Call::Precompile {
                programs: vec!["qreg q[1]; h q[0];".into()],
                only_qubits: Some(vec![2]),
            },
            Call::VerifyProgram {
                qasm: "qreg q[1]; x q[0];".into(),
            },
            Call::Stats,
            Call::Library {
                limit: 25,
                offset: 100,
            },
            Call::Pulses {
                keys: vec![
                    UnitaryKey::from_bytes(vec![0, 255, 16]),
                    UnitaryKey::from_bytes(vec![42]),
                ],
            },
            Call::Shutdown,
        ];
        for (i, call) in calls.into_iter().enumerate() {
            let request = Request {
                id: i as u64 + 1,
                call,
            };
            let line = request.encode();
            assert!(!line.contains('\n'));
            assert_eq!(Request::decode(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn request_decode_salvages_id_and_types_errors() {
        let e = Request::decode("{nope").unwrap_err();
        assert_eq!(e.error.code, ErrorCode::MalformedJson);
        assert_eq!(e.id, 0);

        let e = Request::decode(r#"{"id": 9, "method": "frobnicate"}"#).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::UnknownMethod);
        assert_eq!(e.id, 9, "id salvaged from the malformed request");

        let e = Request::decode(r#"{"id": 3, "method": "serve_program"}"#).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadParams);
        assert_eq!(e.id, 3);

        let e = Request::decode(r#"{"id": 4}"#).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadParams);
    }

    #[test]
    fn response_roundtrip_stats_and_errors() {
        let stats = Response {
            id: 2,
            body: Ok(Payload::Stats(StatsSnapshot {
                library: LibraryStats {
                    hits: 5,
                    misses: 2,
                    warm_compiles: 1,
                    scratch_compiles: 1,
                    warm_iterations: 40,
                    scratch_iterations: 90,
                    evictions: 0,
                },
                server: ServerCounters {
                    connections_accepted: 3,
                    connections_rejected: 1,
                    requests_served: 7,
                    requests_rejected_busy: 2,
                    protocol_errors: 1,
                    coalesced_waits: 1,
                },
                library_len: 4,
                queue_depth: 0,
            })),
        };
        assert_eq!(Response::decode(&stats.encode()).unwrap(), stats);

        for code in [
            ErrorCode::MalformedJson,
            ErrorCode::UnknownMethod,
            ErrorCode::BadParams,
            ErrorCode::Oversized,
            ErrorCode::Busy,
            ErrorCode::ShuttingDown,
            ErrorCode::Qasm,
            ErrorCode::Compile,
            ErrorCode::NotFound,
            ErrorCode::MethodNotAllowed,
            ErrorCode::ShardUnavailable,
            ErrorCode::Internal,
        ] {
            let r = Response::failure(1, code, "detail");
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_decode_rejects_unreadable_frames() {
        assert!(Response::decode("junk").is_err());
        assert!(Response::decode("{}").is_err());
        assert!(Response::decode(r#"{"id": 1}"#).is_err());
        assert!(Response::decode(r#"{"id": 1, "ok": true}"#).is_err());
        assert!(Response::decode(r#"{"id": 1, "ok": false}"#).is_err());
        assert!(
            Response::decode(r#"{"id": 1, "ok": true, "method": "nope", "result": {}}"#).is_err()
        );
    }

    #[test]
    fn library_call_defaults_and_clamps() {
        let call = Request::decode(r#"{"id": 1, "method": "library"}"#)
            .unwrap()
            .call;
        assert_eq!(
            call,
            Call::Library {
                limit: DEFAULT_LIBRARY_LIMIT,
                offset: 0
            }
        );
        let call = Request::decode(r#"{"id": 1, "method": "library", "params": {"limit": 9999}}"#)
            .unwrap()
            .call;
        assert_eq!(
            call,
            Call::Library {
                limit: MAX_LIBRARY_LIMIT,
                offset: 0
            }
        );
        let e = Request::decode(r#"{"id": 1, "method": "library", "params": {"limit": "ten"}}"#)
            .unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadParams);
    }

    #[test]
    fn library_page_roundtrips() {
        let r = Response {
            id: 5,
            body: Ok(Payload::Library(LibraryPage {
                total: 12,
                offset: 10,
                limit: 50,
                entries: vec![LibraryEntryInfo {
                    key: "00ff10".into(),
                    n_qubits: 2,
                    latency_ns: 42.5,
                    iterations: 300,
                    n_steps: 17,
                }],
            })),
        };
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    fn empty_serve_report() -> ServeReport {
        ServeReport {
            overall_latency_ns: 10.0,
            gate_based_latency_ns: 20.0,
            coverage: accqoc::CoverageStats {
                covered: 0,
                total: 0,
            },
            groups: vec![],
            n_compiled: 0,
            n_warm_started: 0,
            dynamic_iterations: 0,
        }
    }

    #[test]
    fn serve_missing_keys_roundtrip_and_absent_by_default() {
        let r = Response {
            id: 1,
            body: Ok(Payload::Serve {
                report: empty_serve_report(),
                pulses: None,
                missing: vec![UnitaryKey::from_bytes(vec![0, 255, 16])],
            }),
        };
        let line = r.encode();
        assert!(line.contains("\"missing\""), "{line}");
        assert!(line.contains("\"00ff10\""), "{line}");
        assert_eq!(Response::decode(&line).unwrap(), r);

        // No missing keys → no `missing` field on the wire.
        let r_empty = Response {
            id: 1,
            body: Ok(Payload::Serve {
                report: empty_serve_report(),
                pulses: None,
                missing: vec![],
            }),
        };
        let line = r_empty.encode();
        assert!(!line.contains("\"missing\""), "{line}");
        assert_eq!(Response::decode(&line).unwrap(), r_empty);
    }

    #[test]
    fn only_qubits_is_absent_when_none_and_typed_when_bad() {
        // A filter-less request is byte-identical to the pre-sharding
        // wire format — old clients and new daemons interoperate.
        let line = Request {
            id: 1,
            call: Call::ServeProgram {
                qasm: "qreg q[1]; h q[0];".into(),
                return_pulses: false,
                only_qubits: None,
            },
        }
        .encode();
        assert!(!line.contains("only_qubits"), "{line}");

        let e = Request::decode(
            r#"{"id": 1, "method": "serve_program",
                "params": {"qasm": "x", "only_qubits": "two"}}"#,
        )
        .unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadParams);
        let e = Request::decode(
            r#"{"id": 1, "method": "serve_program",
                "params": {"qasm": "x", "only_qubits": ["two"]}}"#,
        )
        .unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadParams);
    }

    #[test]
    fn pulses_call_types_bad_keys() {
        let e = Request::decode(r#"{"id": 1, "method": "pulses"}"#).unwrap_err();
        assert_eq!(e.error.code, ErrorCode::BadParams);
        // Non-hex, odd-length, and even-length keys holding a multi-byte
        // character (which a byte-pair slicer would cut mid-char) are all
        // typed errors, never panics.
        for key in ["zz", "0", "aé0", "éé", "ab\\u00e9"] {
            let line =
                format!(r#"{{"id": 1, "method": "pulses", "params": {{"keys": ["{key}"]}}}}"#);
            let e = Request::decode(&line).unwrap_err();
            assert_eq!(e.error.code, ErrorCode::BadParams, "{line}");
            assert!(e.error.message.starts_with("bad key"), "{e:?}");
        }
    }

    #[test]
    fn pulses_payload_roundtrips() {
        let mut cache = PulseCache::new();
        cache.insert(
            UnitaryKey::from_bytes(vec![7, 7]),
            accqoc::CachedPulse {
                pulse: accqoc_grape::Pulse::zeros(2, 4, 1.0),
                latency_ns: 12.5,
                iterations: 3,
                n_qubits: 1,
            },
        );
        let r = Response {
            id: 4,
            body: Ok(Payload::Pulses {
                pulses: cache,
                missing: vec![UnitaryKey::from_bytes(vec![0, 255])],
            }),
        };
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }

    /// A cache whose numbers exercise every branch of the number writer:
    /// negative zero, integral values, huge and subnormal magnitudes.
    fn edge_case_cache() -> PulseCache {
        let mut cache = PulseCache::new();
        cache.insert(
            UnitaryKey::from_bytes((0..=255).collect()),
            accqoc::CachedPulse {
                pulse: accqoc_grape::Pulse::from_amps(
                    vec![
                        vec![-0.0, 3.0, 1e300, 5e-324],
                        vec![0.1, -2.5e-7, -1.0, f64::MIN_POSITIVE],
                    ],
                    0.5,
                ),
                latency_ns: 2.0,
                iterations: 300,
                n_qubits: 1,
            },
        );
        cache.insert(
            UnitaryKey::from_bytes(vec![7, 7]),
            accqoc::CachedPulse {
                pulse: accqoc_grape::Pulse::zeros(2, 3, 1.0 / 3.0),
                latency_ns: 1.0 / 3.0,
                iterations: 0,
                n_qubits: 2,
            },
        );
        cache
    }

    fn verify_report(fidelity: f64) -> VerifyReport {
        VerifyReport {
            groups: vec![accqoc::GroupVerification {
                key: UnitaryKey::from_bytes(vec![1, 2, 254]),
                n_qubits: 2,
                instances: 3,
                fidelity,
                latency_ns: -0.0,
            }],
            n_instances: 3,
            min_group_fidelity: 0.999_999_999_999_9,
            mean_group_fidelity: 1.0,
            program_fidelity_bound: 5e-324,
            exact_fidelity: None,
            state_fidelity: None,
            passed: true,
        }
    }

    /// The value-based codec writes the same bytes, and decodes to the
    /// same payload, as the text round trip it replaced:
    /// `json::parse(&x.to_json())` on encode and
    /// `X::from_json(&value.to_compact())` on decode.
    #[test]
    fn value_codec_matches_the_text_round_trip_byte_for_byte() {
        let reparse = |text: String| json::parse(&text).expect("own output parses");
        let old_missing = |keys: &[UnitaryKey]| {
            JsonValue::Array(
                keys.iter()
                    .map(|k| {
                        JsonValue::String(k.as_bytes().iter().map(|b| format!("{b:02x}")).collect())
                    })
                    .collect(),
            )
        };
        let old_frame = |id: f64, method: &str, result: JsonValue| {
            JsonValue::Object(vec![
                ("id".into(), JsonValue::Number(id)),
                ("ok".into(), JsonValue::Bool(true)),
                ("method".into(), JsonValue::String(method.into())),
                ("result".into(), result),
            ])
            .to_compact()
        };
        let old_decode = |line: &str| -> Result<Payload, String> {
            let doc = json::parse(line).map_err(|e| e.to_string())?;
            let method = doc.get("method").and_then(JsonValue::as_str).unwrap();
            let result = doc.get("result").unwrap();
            let old_keys = |value: &JsonValue| -> Vec<UnitaryKey> {
                value
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|k| UnitaryKey::from_bytes(hex_decode(k.as_str().unwrap()).unwrap()))
                    .collect()
            };
            let old_cache = |value: &JsonValue| {
                PulseCache::from_json(&value.to_compact()).map_err(|e| format!("bad pulses: {e}"))
            };
            Ok(match method {
                "serve_program" => Payload::Serve {
                    report: ServeReport::from_json_value(result.get("report").unwrap())
                        .map_err(|e| e.to_string())?,
                    pulses: result.get("pulses").map(old_cache).transpose()?,
                    missing: result.get("missing").map(old_keys).unwrap_or_default(),
                },
                "pulses" => Payload::Pulses {
                    pulses: old_cache(result.get("pulses").unwrap())?,
                    missing: old_keys(result.get("missing").unwrap()),
                },
                "verify_program" => Payload::Verify(
                    VerifyReport::from_json(&result.to_compact())
                        .map_err(|e| format!("bad verify report: {e}"))?,
                ),
                other => panic!("unexpected method {other}"),
            })
        };

        let cache = edge_case_cache();
        let missing = vec![
            UnitaryKey::from_bytes(vec![0, 255, 16]),
            UnitaryKey::from_bytes(vec![171]),
        ];
        let report = empty_serve_report();
        let cases = [
            (
                Payload::Serve {
                    report: report.clone(),
                    pulses: Some(cache.clone()),
                    missing: missing.clone(),
                },
                JsonValue::Object(vec![
                    ("report".into(), report.to_json_value()),
                    ("pulses".into(), reparse(cache.to_json())),
                    ("missing".into(), old_missing(&missing)),
                ]),
            ),
            (
                Payload::Pulses {
                    pulses: cache.clone(),
                    missing: missing.clone(),
                },
                JsonValue::Object(vec![
                    ("pulses".into(), reparse(cache.to_json())),
                    ("missing".into(), old_missing(&missing)),
                ]),
            ),
            (
                Payload::Verify(verify_report(0.75)),
                reparse(verify_report(0.75).to_json()),
            ),
            // A NaN fidelity renders as `null` either way (and then fails
            // to decode either way).
            (
                Payload::Verify(verify_report(f64::NAN)),
                reparse(verify_report(f64::NAN).to_json()),
            ),
        ];
        for (payload, old_result) in cases {
            let response = Response {
                id: 12,
                body: Ok(payload),
            };
            let line = response.encode();
            let method = response.body.as_ref().unwrap().method();
            assert_eq!(line, old_frame(12.0, method, old_result), "{method}");

            let new = Response::decode(&line).map(|r| r.body.unwrap());
            let old = old_decode(&line);
            match (&new, &old) {
                (Ok(new), Ok(old)) => {
                    assert_eq!(new, old, "{method}");
                    assert_eq!(new, response.body.as_ref().unwrap(), "{method}");
                }
                (Err(new), Err(old)) => assert_eq!(new, old, "{method}"),
                _ => panic!("{method}: decoders disagree: {new:?} vs {old:?}"),
            }
        }
        assert!(
            Response::decode(
                &Response {
                    id: 1,
                    body: Ok(Payload::Verify(verify_report(f64::NAN))),
                }
                .encode()
            )
            .is_err(),
            "NaN renders as null, which is not a fidelity"
        );
    }

    #[test]
    fn precompile_summary_roundtrips() {
        let r = Response {
            id: 11,
            body: Ok(Payload::Precompile(PrecompileSummary {
                n_programs: 3,
                n_unique_groups: 17,
                total_iterations: 4242,
            })),
        };
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
    }
}
