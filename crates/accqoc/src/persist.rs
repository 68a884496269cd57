//! The durable library tier: write-ahead logging, snapshot compaction,
//! and byte-identical restart recovery.
//!
//! The paper's amortization argument (§V) only holds if the pulse
//! library outlives the process that built it. This module makes the
//! in-memory [`PulseLibrary`](crate::PulseLibrary) durable without
//! changing its serving semantics:
//!
//! - **Write-ahead log** (`library.wal`): every mutation — insert,
//!   fingerprint indexing, eviction, wholesale replace, clear — is
//!   appended as a checksummed compact-JSON record via
//!   [`accqoc_store::WalWriter`] and fsync'd before the call returns.
//!   Records are written *after* the in-memory apply, under the library
//!   state lock, so log order always equals apply order even with
//!   concurrent writers.
//! - **Snapshot compaction** (`snapshot.json` + `snapshot.index.json`):
//!   periodically (every [`PersistOptions::snapshot_every`] inserts, on
//!   explicit checkpoint, and on clean daemon shutdown) the full cache
//!   is written as the ordinary deterministic [`PulseCache::to_json`]
//!   artifact, the fingerprint index's canonical unitaries go to a
//!   sidecar, and the WAL is truncated. Both files are written
//!   atomically (temp + rename), and the WAL is only reset *after*
//!   they land — a crash at any point leaves a recoverable pair.
//!   Because every logged operation is a state *assignment*, replaying
//!   a stale WAL suffix over a newer snapshot is idempotent, so no
//!   generation counters are needed.
//! - **Recovery** ([`open`]): load snapshot + sidecar if present,
//!   replay the WAL suffix (tolerating a torn tail from a crash
//!   mid-append; rejecting checksum corruption with a typed
//!   [`Error::Store`](crate::Error::Store)), and hand back a cache that
//!   is byte-identical to the pre-crash state plus the unitaries needed
//!   to re-index every fingerprint bucket — so a restarted session
//!   warm-starts, it does not just exact-hit.
//!
//! Journal append failures after attach do not poison serving: the
//! library keeps working from memory, the journal goes *sticky* (drops
//! further records so a broken log cannot interleave gaps), and the
//! next successful snapshot — automatic or via
//! [`Session::checkpoint`](crate::Session::checkpoint), which surfaces
//! the error — rewrites the full state and makes the directory whole
//! again.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use accqoc_circuit::UnitaryKey;
use accqoc_linalg::{Mat, C64};
use accqoc_store::{read_optional_string, write_atomic, StoreError, WalWriter};

use crate::cache::{entry_from_json_value, entry_to_json_value, CachedPulse, PulseCache};
use crate::error::Result;
use crate::json::{self, hex_decode, hex_encode, JsonError, JsonValue};

/// File name of the write-ahead log inside the persistence directory.
pub const WAL_FILE: &str = "library.wal";

/// File name of the snapshot cache artifact (a plain
/// [`PulseCache::to_json`] document, loadable on its own).
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// File name of the snapshot's fingerprint-index sidecar (canonical
/// unitaries keyed like the cache, so recovery can re-index).
pub const INDEX_FILE: &str = "snapshot.index.json";

/// Auto-compaction default: snapshot once this many inserts accumulate
/// in the WAL.
const DEFAULT_SNAPSHOT_EVERY: usize = 128;

/// Canonical unitaries ready for fingerprint re-indexing:
/// `(key, unitary, n_qubits)` per indexed entry.
pub(crate) type IndexedUnitaries = Vec<(UnitaryKey, Mat, usize)>;

/// Where and how a session persists its pulse library.
///
/// # Examples
///
/// ```
/// use accqoc::PersistOptions;
///
/// let options = PersistOptions::new("/tmp/accqoc-data").snapshot_every(64);
/// assert_eq!(options.snapshot_every, 64);
/// ```
#[derive(Debug, Clone)]
pub struct PersistOptions {
    /// Directory holding the WAL and snapshot pair (created on open).
    pub dir: PathBuf,
    /// Compact the WAL into a fresh snapshot after this many logged
    /// inserts. `0` disables auto-compaction — snapshots then happen
    /// only on explicit [`Session::checkpoint`](crate::Session::checkpoint)
    /// calls (and the daemon's clean shutdown).
    pub snapshot_every: usize,
}

impl PersistOptions {
    /// Persistence rooted at `dir`, compacting every
    /// 128 inserts.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }

    /// Overrides the auto-compaction threshold (`0` = explicit
    /// checkpoints only).
    #[must_use]
    pub fn snapshot_every(mut self, n: usize) -> Self {
        self.snapshot_every = n;
        self
    }
}

/// What open-time recovery found on disk. Exposed via
/// [`Session::recovery_report`](crate::Session::recovery_report).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Entries loaded from the snapshot artifact (0 on cold start).
    pub snapshot_entries: usize,
    /// Complete WAL records replayed on top of the snapshot.
    pub wal_records: usize,
    /// Bytes of torn WAL tail discarded (non-zero only after a crash
    /// mid-append; the truncated record's mutation was never
    /// acknowledged, so dropping it is correct).
    pub wal_truncated_bytes: u64,
    /// Entries in the recovered cache after replay.
    pub entries: usize,
    /// Recovered entries that carry a canonical unitary and are
    /// therefore fingerprint-indexed (warm-start capable) on load.
    pub indexed: usize,
}

/// One loggable library mutation, borrowed from the caller so the hot
/// path clones nothing unless a journal is attached.
pub(crate) enum Event<'a> {
    /// A pulse entered the cache (optionally with its canonical
    /// unitary, when it was indexed in the same call).
    Insert {
        /// Canonical key of the group.
        key: &'a UnitaryKey,
        /// The cached pulse payload.
        entry: &'a CachedPulse,
        /// Canonical unitary when the insert also indexed.
        unitary: Option<&'a Mat>,
    },
    /// An already-cached pulse gained its canonical unitary.
    Index {
        /// Canonical key of the group.
        key: &'a UnitaryKey,
        /// Width of the group.
        n_qubits: usize,
        /// The canonical unitary being indexed.
        unitary: &'a Mat,
    },
    /// The LRU policy dropped a pulse.
    Evict {
        /// Canonical key of the evicted group.
        key: &'a UnitaryKey,
    },
    /// The whole cache was swapped (entries pre-sorted by key).
    Replace {
        /// The replacement entries, sorted by key.
        entries: &'a [(UnitaryKey, CachedPulse)],
    },
    /// The whole cache was emptied.
    Clear,
}

/// A decoded WAL record, owned (the replay path's counterpart of
/// [`Event`]).
enum WalOp {
    Insert {
        key: UnitaryKey,
        entry: CachedPulse,
        unitary: Option<Mat>,
    },
    Index {
        key: UnitaryKey,
        n_qubits: usize,
        unitary: Mat,
    },
    Evict {
        key: UnitaryKey,
    },
    Replace {
        entries: Vec<(UnitaryKey, CachedPulse)>,
    },
    Clear,
}

fn malformed(message: &str) -> JsonError {
    JsonError {
        message: format!("durable store record: {message}"),
        offset: 0,
    }
}

/// Encodes a unitary as a flat `[re, im, re, im, ...]` JSON array in
/// row-major order (`2·d²` numbers for a `d×d` matrix).
fn unitary_to_json(u: &Mat) -> JsonValue {
    let cells = u.as_slice();
    let mut nums = Vec::with_capacity(cells.len() * 2);
    for c in cells {
        nums.push(JsonValue::Number(c.re));
        nums.push(JsonValue::Number(c.im));
    }
    JsonValue::Array(nums)
}

/// Decodes [`unitary_to_json`] output, checking the length against the
/// dimension implied by `n_qubits`.
fn unitary_from_json(value: &JsonValue, n_qubits: usize) -> Result<Mat> {
    let d = 1usize << n_qubits;
    let nums = value
        .as_array()
        .ok_or_else(|| malformed("unitary is not an array"))?;
    if nums.len() != 2 * d * d {
        return Err(malformed("unitary length does not match n_qubits").into());
    }
    let mut flat = Vec::with_capacity(d * d);
    for pair in nums.chunks(2) {
        let re = pair[0]
            .as_f64()
            .ok_or_else(|| malformed("unitary cell is not a number"))?;
        let im = pair[1]
            .as_f64()
            .ok_or_else(|| malformed("unitary cell is not a number"))?;
        flat.push(C64::new(re, im));
    }
    Ok(Mat::from_flat(&flat))
}

/// Serializes an event to its compact-JSON WAL payload.
fn encode_event(event: &Event<'_>) -> String {
    let value = match event {
        Event::Insert {
            key,
            entry,
            unitary,
        } => {
            let mut fields = vec![
                ("op".into(), JsonValue::String("insert".into())),
                ("entry".into(), entry_to_json_value(key, entry)),
            ];
            if let Some(u) = unitary {
                fields.push(("unitary".into(), unitary_to_json(u)));
            }
            JsonValue::Object(fields)
        }
        Event::Index {
            key,
            n_qubits,
            unitary,
        } => JsonValue::Object(vec![
            ("op".into(), JsonValue::String("index".into())),
            ("key".into(), JsonValue::String(hex_encode(key.as_bytes()))),
            ("n_qubits".into(), JsonValue::Number(*n_qubits as f64)),
            ("unitary".into(), unitary_to_json(unitary)),
        ]),
        Event::Evict { key } => JsonValue::Object(vec![
            ("op".into(), JsonValue::String("evict".into())),
            ("key".into(), JsonValue::String(hex_encode(key.as_bytes()))),
        ]),
        Event::Replace { entries } => JsonValue::Object(vec![
            ("op".into(), JsonValue::String("replace".into())),
            (
                "entries".into(),
                JsonValue::Array(
                    entries
                        .iter()
                        .map(|(key, entry)| entry_to_json_value(key, entry))
                        .collect(),
                ),
            ),
        ]),
        Event::Clear => JsonValue::Object(vec![("op".into(), JsonValue::String("clear".into()))]),
    };
    value.to_compact()
}

/// Parses one WAL payload back into an operation.
fn decode_record(payload: &[u8]) -> Result<WalOp> {
    let text = std::str::from_utf8(payload).map_err(|_| malformed("payload is not UTF-8"))?;
    let value = json::parse(text)?;
    let op = value
        .get("op")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed("record missing `op`"))?;
    match op {
        "insert" => {
            let entry = value
                .get("entry")
                .ok_or_else(|| malformed("insert record missing `entry`"))?;
            let (key, entry) = entry_from_json_value(entry)?;
            let unitary = match value.get("unitary") {
                Some(u) => Some(unitary_from_json(u, entry.n_qubits)?),
                None => None,
            };
            Ok(WalOp::Insert {
                key,
                entry,
                unitary,
            })
        }
        "index" => {
            let key = value
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("index record missing `key`"))?;
            let key = UnitaryKey::from_bytes(hex_decode(key)?);
            let n_qubits = value
                .get("n_qubits")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| malformed("index record missing `n_qubits`"))?;
            let unitary = value
                .get("unitary")
                .ok_or_else(|| malformed("index record missing `unitary`"))?;
            let unitary = unitary_from_json(unitary, n_qubits)?;
            Ok(WalOp::Index {
                key,
                n_qubits,
                unitary,
            })
        }
        "evict" => {
            let key = value
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("evict record missing `key`"))?;
            Ok(WalOp::Evict {
                key: UnitaryKey::from_bytes(hex_decode(key)?),
            })
        }
        "replace" => {
            let entries = value
                .get("entries")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| malformed("replace record missing `entries`"))?;
            let entries = entries
                .iter()
                .map(entry_from_json_value)
                .collect::<Result<Vec<_>>>()?;
            Ok(WalOp::Replace { entries })
        }
        "clear" => Ok(WalOp::Clear),
        other => Err(malformed(&format!("unknown op `{other}`")).into()),
    }
}

/// Serializes the index sidecar: `{"entries": [{key, n_qubits,
/// unitary}, ...]}` with entries pre-sorted by key by the caller.
fn sidecar_json(unitaries: &[(UnitaryKey, Mat, usize)]) -> String {
    JsonValue::Object(vec![(
        "entries".into(),
        JsonValue::Array(
            unitaries
                .iter()
                .map(|(key, unitary, n_qubits)| {
                    JsonValue::Object(vec![
                        ("key".into(), JsonValue::String(hex_encode(key.as_bytes()))),
                        ("n_qubits".into(), JsonValue::Number(*n_qubits as f64)),
                        ("unitary".into(), unitary_to_json(unitary)),
                    ])
                })
                .collect(),
        ),
    )])
    .to_pretty()
}

/// Parses [`sidecar_json`] output.
fn parse_sidecar(text: &str) -> Result<IndexedUnitaries> {
    let value = json::parse(text)?;
    let entries = value
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| malformed("index sidecar missing `entries`"))?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let key = entry
            .get("key")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| malformed("sidecar entry missing `key`"))?;
        let key = UnitaryKey::from_bytes(hex_decode(key)?);
        let n_qubits = entry
            .get("n_qubits")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| malformed("sidecar entry missing `n_qubits`"))?;
        let unitary = entry
            .get("unitary")
            .ok_or_else(|| malformed("sidecar entry missing `unitary`"))?;
        out.push((key, unitary_from_json(unitary, n_qubits)?, n_qubits));
    }
    Ok(out)
}

/// The extended user-facing cache artifact: the plain
/// [`PulseCache::to_json`] document with an optional `unitary` field
/// appended to every entry the fingerprint index holds, so
/// [`Session::load_cache`](crate::Session::load_cache) can re-index.
/// Still loadable by [`PulseCache::from_json`], which ignores the extra
/// field.
pub(crate) fn indexed_cache_json(
    cache: &PulseCache,
    unitaries: &[(UnitaryKey, Mat, usize)],
) -> String {
    let by_key: std::collections::HashMap<&UnitaryKey, &Mat> =
        unitaries.iter().map(|(k, u, _)| (k, u)).collect();
    let mut entries: Vec<(&UnitaryKey, &CachedPulse)> = cache.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    JsonValue::Object(vec![(
        "entries".into(),
        JsonValue::Array(
            entries
                .into_iter()
                .map(|(key, entry)| {
                    let mut object = entry_to_json_value(key, entry);
                    if let Some(unitary) = by_key.get(key) {
                        if let JsonValue::Object(fields) = &mut object {
                            fields.push(("unitary".into(), unitary_to_json(unitary)));
                        }
                    }
                    object
                })
                .collect(),
        ),
    )])
    .to_pretty()
}

/// Parses a cache artifact — plain or extended — returning the cache
/// plus whatever canonical unitaries the entries carried.
pub(crate) fn parse_indexed_cache(text: &str) -> Result<(PulseCache, IndexedUnitaries)> {
    let value = json::parse(text)?;
    let entries = value
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| malformed("cache artifact missing `entries`"))?;
    let mut cache = PulseCache::new();
    let mut unitaries = Vec::new();
    for entry in entries {
        let (key, cached) = entry_from_json_value(entry)?;
        if let Some(u) = entry.get("unitary") {
            unitaries.push((
                key.clone(),
                unitary_from_json(u, cached.n_qubits)?,
                cached.n_qubits,
            ));
        }
        cache.insert(key, cached);
    }
    Ok((cache, unitaries))
}

/// The live half of the durable tier: owns the WAL writer and the
/// compaction counter. Attached to a `PulseLibrary` after recovery has
/// seeded it, so recovered state is not re-logged.
#[derive(Debug)]
pub(crate) struct Journal {
    options: PersistOptions,
    inner: Mutex<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    wal: WalWriter,
    inserts_since_snapshot: usize,
    /// First append/snapshot failure since the last good snapshot.
    /// While set, further records are dropped (a log with silent gaps
    /// is worse than a short one) and the next successful snapshot —
    /// which rewrites the complete state — clears it.
    sticky: Option<StoreError>,
}

impl Journal {
    fn lock(&self) -> MutexGuard<'_, JournalInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends one mutation record; failures go sticky instead of
    /// surfacing (serving must not die on a full disk — the error
    /// resurfaces at the next explicit checkpoint).
    pub(crate) fn record(&self, event: &Event<'_>) {
        let payload = encode_event(event);
        let mut inner = self.lock();
        if inner.sticky.is_some() {
            return;
        }
        match inner.wal.append(payload.as_bytes()) {
            Ok(()) => {
                if matches!(event, Event::Insert { .. }) {
                    inner.inserts_since_snapshot += 1;
                }
            }
            Err(e) => inner.sticky = Some(e),
        }
    }

    /// Whether the auto-compaction insert threshold has been reached.
    pub(crate) fn due_for_snapshot(&self) -> bool {
        let inner = self.lock();
        self.options.snapshot_every > 0
            && inner.inserts_since_snapshot >= self.options.snapshot_every
    }

    /// Writes the snapshot artifact pair atomically and truncates the
    /// WAL. Clears the sticky error on success (the snapshot rewrote
    /// everything the lost records described); on failure the previous
    /// snapshot + WAL pair on disk stays recoverable.
    pub(crate) fn snapshot(
        &self,
        cache: &PulseCache,
        unitaries: &[(UnitaryKey, Mat, usize)],
    ) -> std::result::Result<(), StoreError> {
        let snapshot = cache.to_json();
        let sidecar = sidecar_json(unitaries);
        let mut inner = self.lock();
        match write_snapshot_pair(&self.options.dir, &snapshot, &sidecar, &mut inner.wal) {
            Ok(()) => {
                inner.inserts_since_snapshot = 0;
                inner.sticky = None;
                Ok(())
            }
            Err(e) => {
                if inner.sticky.is_none() {
                    inner.sticky = Some(StoreError::Io(io::Error::other(format!(
                        "snapshot failed: {e}"
                    ))));
                }
                Err(e)
            }
        }
    }

    /// The pending append failure, if any (test-only observability; a
    /// successful snapshot clears it by rewriting the full state).
    #[cfg(test)]
    pub(crate) fn sticky_error(&self) -> Option<String> {
        self.lock().sticky.as_ref().map(|e| e.to_string())
    }
}

fn write_snapshot_pair(
    dir: &Path,
    snapshot: &str,
    sidecar: &str,
    wal: &mut WalWriter,
) -> std::result::Result<(), StoreError> {
    write_atomic(&dir.join(SNAPSHOT_FILE), snapshot.as_bytes())?;
    write_atomic(&dir.join(INDEX_FILE), sidecar.as_bytes())?;
    wal.reset()
}

/// Recovery output: the state to seed a library with, plus the report.
pub(crate) struct Recovered {
    pub cache: PulseCache,
    pub unitaries: IndexedUnitaries,
    pub report: RecoveryReport,
}

/// Opens (or cold-starts) a persistence directory: loads the snapshot
/// pair if present, replays the WAL suffix on top, and returns the
/// journal ready for logging. A missing or empty directory is a cold
/// start, not an error; a checksum-corrupted WAL record is
/// [`Error::Store`](crate::Error::Store).
pub(crate) fn open(options: &PersistOptions) -> Result<(Journal, Recovered)> {
    std::fs::create_dir_all(&options.dir)?;
    let mut cache = match read_optional_string(&options.dir.join(SNAPSHOT_FILE))? {
        Some(text) => PulseCache::from_json(&text)?,
        None => PulseCache::new(),
    };
    let mut unitaries: BTreeMap<UnitaryKey, (Mat, usize)> = BTreeMap::new();
    if let Some(text) = read_optional_string(&options.dir.join(INDEX_FILE))? {
        for (key, unitary, n_qubits) in parse_sidecar(&text)? {
            unitaries.insert(key, (unitary, n_qubits));
        }
    }
    let snapshot_entries = cache.len();
    let (wal, replay) = WalWriter::open(&options.dir.join(WAL_FILE))?;
    let wal_records = replay.records.len();
    for record in &replay.records {
        match decode_record(record)? {
            WalOp::Insert {
                key,
                entry,
                unitary,
            } => {
                if let Some(u) = unitary {
                    unitaries.insert(key.clone(), (u, entry.n_qubits));
                }
                cache.insert(key, entry);
            }
            WalOp::Index {
                key,
                n_qubits,
                unitary,
            } => {
                // Mirrors the live `index_unitary`: indexing a key that
                // is no longer cached is a no-op.
                if cache.contains(&key) {
                    unitaries.insert(key, (unitary, n_qubits));
                }
            }
            WalOp::Evict { key } => {
                cache.remove(&key);
                unitaries.remove(&key);
            }
            WalOp::Replace { entries } => {
                cache = PulseCache::new();
                unitaries.clear();
                for (key, entry) in entries {
                    cache.insert(key, entry);
                }
            }
            WalOp::Clear => {
                cache = PulseCache::new();
                unitaries.clear();
            }
        }
    }
    // An insert can overwrite an entry whose unitary was indexed for a
    // *different* pulse generation; the live library keeps the stale
    // index entry too, so no pruning beyond cache membership is needed.
    unitaries.retain(|key, _| cache.contains(key));
    let unitaries: IndexedUnitaries = unitaries
        .into_iter()
        .map(|(key, (unitary, n_qubits))| (key, unitary, n_qubits))
        .collect();
    let report = RecoveryReport {
        snapshot_entries,
        wal_records,
        wal_truncated_bytes: replay.truncated_bytes,
        entries: cache.len(),
        indexed: unitaries.len(),
    };
    let journal = Journal {
        options: options.clone(),
        inner: Mutex::new(JournalInner {
            wal,
            inserts_since_snapshot: 0,
            sticky: None,
        }),
    };
    Ok((
        journal,
        Recovered {
            cache,
            unitaries,
            report,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_grape::Pulse;

    fn entry(n_qubits: usize, latency_ns: f64) -> CachedPulse {
        CachedPulse {
            pulse: Pulse::zeros(2 * n_qubits, 4, 1.0),
            latency_ns,
            iterations: 7,
            n_qubits,
        }
    }

    fn key(tag: u8) -> UnitaryKey {
        UnitaryKey::from_bytes(vec![tag; 4])
    }

    #[test]
    fn unitary_json_round_trips() {
        let u = Mat::from_flat(&[
            C64::new(0.6, 0.0),
            C64::new(0.0, -0.8),
            C64::new(0.0, -0.8),
            C64::new(0.6, 0.0),
        ]);
        let round = unitary_from_json(&unitary_to_json(&u), 1).expect("decodes");
        assert_eq!(round.as_slice(), u.as_slice());
        // Dimension mismatch is typed, not a panic.
        assert!(unitary_from_json(&unitary_to_json(&u), 2).is_err());
    }

    #[test]
    fn every_event_round_trips_through_the_record_codec() {
        let u = Mat::identity(2);
        let e = entry(1, 40.0);
        let pairs = vec![(key(1), entry(1, 40.0)), (key(2), entry(1, 50.0))];
        let events = [
            Event::Insert {
                key: &key(1),
                entry: &e,
                unitary: Some(&u),
            },
            Event::Insert {
                key: &key(1),
                entry: &e,
                unitary: None,
            },
            Event::Index {
                key: &key(1),
                n_qubits: 1,
                unitary: &u,
            },
            Event::Evict { key: &key(9) },
            Event::Replace { entries: &pairs },
            Event::Clear,
        ];
        for event in &events {
            let payload = encode_event(event);
            let op = decode_record(payload.as_bytes()).expect("decodes");
            match (event, &op) {
                (Event::Insert { unitary, .. }, WalOp::Insert { unitary: got, .. }) => {
                    assert_eq!(unitary.is_some(), got.is_some());
                }
                (Event::Index { .. }, WalOp::Index { n_qubits, .. }) => {
                    assert_eq!(*n_qubits, 1);
                }
                (Event::Evict { .. }, WalOp::Evict { key }) => {
                    assert_eq!(key.as_bytes(), &[9; 4]);
                }
                (Event::Replace { .. }, WalOp::Replace { entries }) => {
                    assert_eq!(entries.len(), 2);
                }
                (Event::Clear, WalOp::Clear) => {}
                _ => panic!("event decoded to the wrong op"),
            }
        }
    }

    #[test]
    fn unknown_op_is_a_typed_error() {
        assert!(decode_record(br#"{"op":"defrag"}"#).is_err());
        assert!(decode_record(b"\xff\xfe").is_err());
    }

    #[test]
    fn indexed_artifact_round_trips_and_stays_plain_loadable() {
        let mut cache = PulseCache::new();
        cache.insert(key(1), entry(1, 40.0));
        cache.insert(key(2), entry(1, 50.0));
        let unitaries = vec![(key(1), Mat::identity(2), 1)];
        let text = indexed_cache_json(&cache, &unitaries);
        let (round, round_unitaries) = parse_indexed_cache(&text).expect("parses");
        assert_eq!(round.len(), 2);
        assert_eq!(round_unitaries.len(), 1);
        assert_eq!(round_unitaries[0].0, key(1));
        // The plain loader ignores the `unitary` field.
        let plain = PulseCache::from_json(&text).expect("plain loader accepts");
        assert_eq!(plain.len(), 2);
        // Entries without unitaries produce the exact legacy document.
        let legacy = indexed_cache_json(&cache, &[]);
        assert_eq!(legacy, cache.to_json());
    }

    #[test]
    fn sidecar_round_trips_sorted() {
        let unitaries = vec![(key(1), Mat::identity(2), 1), (key(3), Mat::identity(4), 2)];
        let parsed = parse_sidecar(&sidecar_json(&unitaries)).expect("parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].2, 2);
        assert_eq!(parsed[1].1.as_slice(), Mat::identity(4).as_slice());
    }

    #[test]
    fn open_replays_wal_over_snapshot() {
        let dir = std::env::temp_dir().join(format!("accqoc-persist-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = PersistOptions::new(&dir).snapshot_every(0);
        // Cold start.
        let (journal, recovered) = open(&options).expect("cold start");
        assert_eq!(recovered.report, RecoveryReport::default());
        // Log a few mutations, snapshot mid-way, log more.
        journal.record(&Event::Insert {
            key: &key(1),
            entry: &entry(1, 40.0),
            unitary: Some(&Mat::identity(2)),
        });
        journal.record(&Event::Insert {
            key: &key(2),
            entry: &entry(1, 50.0),
            unitary: None,
        });
        let mut cache = PulseCache::new();
        cache.insert(key(1), entry(1, 40.0));
        cache.insert(key(2), entry(1, 50.0));
        journal
            .snapshot(&cache, &[(key(1), Mat::identity(2), 1)])
            .expect("snapshot");
        journal.record(&Event::Insert {
            key: &key(3),
            entry: &entry(1, 60.0),
            unitary: None,
        });
        journal.record(&Event::Evict { key: &key(2) });
        drop(journal);
        // Reopen: snapshot(2 entries) + WAL suffix(insert 3, evict 2).
        let (_journal, recovered) = open(&options).expect("recovers");
        assert_eq!(recovered.report.snapshot_entries, 2);
        assert_eq!(recovered.report.wal_records, 2);
        assert_eq!(recovered.report.entries, 2);
        assert_eq!(recovered.report.indexed, 1);
        assert!(recovered.cache.contains(&key(1)));
        assert!(recovered.cache.contains(&key(3)));
        assert!(!recovered.cache.contains(&key(2)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sticky_journal_drops_records_until_a_snapshot_repairs_it() {
        let dir =
            std::env::temp_dir().join(format!("accqoc-persist-sticky-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = PersistOptions::new(&dir).snapshot_every(0);
        let (journal, _) = open(&options).expect("cold start");
        // Simulate an append failure (e.g. disk full) going sticky.
        journal.lock().sticky = Some(StoreError::Io(io::Error::other("disk full")));
        assert!(journal
            .sticky_error()
            .expect("sticky")
            .contains("disk full"));
        // While sticky, records are dropped — no partial log with gaps.
        journal.record(&Event::Insert {
            key: &key(1),
            entry: &entry(1, 40.0),
            unitary: None,
        });
        // A successful snapshot rewrites the full state and clears it.
        let mut cache = PulseCache::new();
        cache.insert(key(1), entry(1, 40.0));
        journal.snapshot(&cache, &[]).expect("snapshot repairs");
        assert!(journal.sticky_error().is_none());
        drop(journal);
        // Recovery sees the snapshot only: the dropped record left no
        // trace, but the state it described was captured wholesale.
        let (_journal, recovered) = open(&options).expect("recovers");
        assert_eq!(recovered.report.snapshot_entries, 1);
        assert_eq!(recovered.report.wal_records, 0);
        assert!(recovered.cache.contains(&key(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
