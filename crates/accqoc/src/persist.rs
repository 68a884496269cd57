//! The durable library tier: write-ahead logging, snapshot compaction,
//! and byte-identical restart recovery.
//!
//! The paper's amortization argument (§V) only holds if the pulse
//! library outlives the process that built it. This module makes the
//! in-memory [`PulseLibrary`](crate::PulseLibrary) durable without
//! changing its serving semantics. On disk a library entry has one
//! shape, `{key, latency_ns, iterations, n_qubits, pulse, unitary?}`
//! (the `unitary` present when the entry is fingerprint-indexed), and a
//! data directory holds two files:
//!
//! - **Write-ahead log** (`library.wal`): every mutation is appended as
//!   a checksummed compact-JSON record via [`accqoc_store::WalWriter`]
//!   and fsync'd before the call returns. There are two record kinds:
//!   `{"op":"insert","entry":…}` and `{"op":"evict","key":…}`. Records
//!   are written *after* the in-memory apply, under the library state
//!   lock, so log order always equals apply order even with concurrent
//!   writers.
//! - **Snapshot** (`snapshot.json`): periodically (every
//!   [`PersistOptions::snapshot_every`] inserts, on explicit checkpoint,
//!   and on clean daemon shutdown) the whole library is written as the
//!   [`Session::save_cache`](crate::Session::save_cache) artifact, and
//!   the WAL is truncated. The snapshot is written atomically (temp +
//!   rename), and the WAL is only reset *after* it lands, so a crash at
//!   any point leaves a recoverable directory. Because every logged
//!   operation is a state *assignment*, replaying a stale WAL suffix
//!   over a newer snapshot is idempotent, so no generation counters are
//!   needed.
//! - **Recovery** ([`open`]): load the snapshot if present, replay the
//!   WAL suffix (tolerating a torn tail from a crash mid-append;
//!   rejecting checksum corruption with a typed
//!   [`Error::Store`](crate::Error::Store)), and hand back entries that
//!   are byte-identical to the pre-crash state, each with the unitary
//!   that re-indexes its fingerprint bucket, so a restarted session
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
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use accqoc_circuit::UnitaryKey;
use accqoc_linalg::Mat;
use accqoc_store::{read_optional_string, write_atomic, StoreError, WalWriter};

use crate::cache::{
    entries_from_json_value, entries_to_json_value, entry_from_json_value, entry_to_json_value,
    CachedPulse, StoredEntry,
};
use crate::error::Result;
use crate::json::{self, hex_decode, hex_encode, JsonError, JsonValue};

/// File name of the write-ahead log inside the persistence directory.
pub const WAL_FILE: &str = "library.wal";

/// File name of the snapshot: the
/// [`Session::save_cache`](crate::Session::save_cache) artifact of the
/// whole library, loadable on its own.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Auto-compaction default: snapshot once this many inserts accumulate
/// in the WAL.
const DEFAULT_SNAPSHOT_EVERY: usize = 128;

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
    /// Directory holding the WAL and the snapshot (created on open).
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
    /// Entries loaded from the snapshot (0 on cold start).
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
    /// A pulse entered the library, with its canonical unitary when the
    /// insert indexed it.
    Insert {
        /// Canonical key of the group.
        key: &'a UnitaryKey,
        /// The cached pulse payload.
        entry: &'a CachedPulse,
        /// Canonical unitary when the insert also indexed.
        unitary: Option<&'a Mat>,
    },
    /// The LRU policy dropped a pulse.
    Evict {
        /// Canonical key of the evicted group.
        key: &'a UnitaryKey,
    },
}

/// A decoded WAL record, owned (the replay path's counterpart of
/// [`Event`]).
enum WalOp {
    Insert(StoredEntry),
    Evict(UnitaryKey),
}

fn malformed(message: &str) -> JsonError {
    JsonError {
        message: format!("durable store record: {message}"),
        offset: 0,
    }
}

/// Serializes an event to its compact-JSON WAL payload.
fn encode_event(event: &Event<'_>) -> String {
    let fields = match event {
        Event::Insert {
            key,
            entry,
            unitary,
        } => vec![
            ("op".into(), JsonValue::String("insert".into())),
            ("entry".into(), entry_to_json_value(key, entry, *unitary)),
        ],
        Event::Evict { key } => vec![
            ("op".into(), JsonValue::String("evict".into())),
            ("key".into(), JsonValue::String(hex_encode(key.as_bytes()))),
        ],
    };
    JsonValue::Object(fields).to_compact()
}

/// Parses one WAL payload back into an operation. Record kinds other
/// than `insert` and `evict` (including the `index`, `replace` and
/// `clear` kinds of older data directories) are typed errors.
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
            Ok(WalOp::Insert(entry_from_json_value(entry)?))
        }
        "evict" => {
            let key = value
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| malformed("evict record missing `key`"))?;
            Ok(WalOp::Evict(UnitaryKey::from_bytes(hex_decode(key)?)))
        }
        other => Err(malformed(&format!("unknown op `{other}`")).into()),
    }
}

/// The library artifact — the [`Session::save_cache`](crate::Session::save_cache)
/// file and the durable snapshot — over entries the caller has sorted
/// by key: the [`PulseCache::to_json`](crate::PulseCache::to_json)
/// document with a `unitary` in every indexed entry. With no unitary it
/// is exactly that document, and [`PulseCache::from_json`](crate::PulseCache::from_json)
/// loads it either way.
pub(crate) fn library_json<'a>(
    entries: impl Iterator<Item = (&'a UnitaryKey, &'a CachedPulse, Option<&'a Mat>)>,
) -> String {
    entries_to_json_value(entries).to_pretty()
}

/// A parsed library artifact, keyed (so in sorted-key order, the order
/// every bulk load inserts in).
pub(crate) type LibraryEntries = BTreeMap<UnitaryKey, (CachedPulse, Option<Mat>)>;

/// Parses a [`library_json`] artifact (or a plain cache artifact, whose
/// entries carry no unitary). For a key listed twice the later entry
/// wins.
pub(crate) fn parse_library_json(text: &str) -> Result<LibraryEntries> {
    Ok(entries_from_json_value(&json::parse(text)?)?
        .into_iter()
        .map(|(key, entry, unitary)| (key, (entry, unitary)))
        .collect())
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

    /// Writes `snapshot` (a [`library_json`] artifact) atomically and
    /// truncates the WAL. Clears the sticky error on success (the
    /// snapshot rewrote everything the lost records described); on
    /// failure the previous snapshot + WAL on disk stay recoverable.
    pub(crate) fn snapshot(&self, snapshot: &str) -> std::result::Result<(), StoreError> {
        let mut inner = self.lock();
        let written = write_atomic(&self.options.dir.join(SNAPSHOT_FILE), snapshot.as_bytes())
            .and_then(|()| inner.wal.reset());
        match written {
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

/// Recovery output: the entries to seed a library with, sorted by key,
/// plus the report.
pub(crate) struct Recovered {
    pub entries: Vec<StoredEntry>,
    pub report: RecoveryReport,
}

/// Opens (or cold-starts) a persistence directory: loads the snapshot
/// if present, replays the WAL suffix on top, and returns the journal
/// ready for logging. A missing or empty directory is a cold start, not
/// an error; a checksum-corrupted WAL record is
/// [`Error::Store`](crate::Error::Store), and an undecodable record or
/// snapshot is [`Error::Json`](crate::Error::Json).
pub(crate) fn open(options: &PersistOptions) -> Result<(Journal, Recovered)> {
    std::fs::create_dir_all(&options.dir)?;
    let mut entries = match read_optional_string(&options.dir.join(SNAPSHOT_FILE))? {
        Some(text) => parse_library_json(&text)?,
        None => LibraryEntries::new(),
    };
    let snapshot_entries = entries.len();
    let (wal, replay) = WalWriter::open(&options.dir.join(WAL_FILE))?;
    for record in &replay.records {
        match decode_record(record)? {
            WalOp::Insert((key, entry, unitary)) => {
                // Mirrors the live library: an insert without a unitary
                // leaves the key's fingerprint index entry in place.
                let unitary = match unitary {
                    Some(u) => Some(u),
                    None => entries.remove(&key).and_then(|(_, u)| u),
                };
                entries.insert(key, (entry, unitary));
            }
            WalOp::Evict(key) => {
                entries.remove(&key);
            }
        }
    }
    let entries: Vec<StoredEntry> = entries
        .into_iter()
        .map(|(key, (entry, unitary))| (key, entry, unitary))
        .collect();
    let report = RecoveryReport {
        snapshot_entries,
        wal_records: replay.records.len(),
        wal_truncated_bytes: replay.truncated_bytes,
        entries: entries.len(),
        indexed: entries.iter().filter(|(_, _, u)| u.is_some()).count(),
    };
    let journal = Journal {
        options: options.clone(),
        inner: Mutex::new(JournalInner {
            wal,
            inserts_since_snapshot: 0,
            sticky: None,
        }),
    };
    Ok((journal, Recovered { entries, report }))
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

    /// The snapshot artifact of `(key, entry, unitary)` triples (sorted
    /// by the caller).
    fn artifact(entries: &[StoredEntry]) -> String {
        library_json(entries.iter().map(|(k, e, u)| (k, e, u.as_ref())))
    }

    #[test]
    fn every_event_round_trips_through_the_record_codec() {
        let u = Mat::identity(2);
        let e = entry(1, 40.0);
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
            Event::Evict { key: &key(9) },
        ];
        for event in &events {
            let payload = encode_event(event);
            let op = decode_record(payload.as_bytes()).expect("decodes");
            match (event, &op) {
                (Event::Insert { unitary, .. }, WalOp::Insert((k, got, got_u))) => {
                    assert_eq!(k, &key(1));
                    assert_eq!(got, &e);
                    assert_eq!(unitary.is_some(), got_u.is_some());
                }
                (Event::Evict { .. }, WalOp::Evict(key)) => {
                    assert_eq!(key.as_bytes(), &[9; 4]);
                }
                _ => panic!("event decoded to the wrong op"),
            }
        }
    }

    #[test]
    fn unknown_and_retired_ops_are_typed_errors() {
        assert!(decode_record(br#"{"op":"defrag"}"#).is_err());
        assert!(decode_record(b"\xff\xfe").is_err());
        // The record kinds of older data directories are not read.
        for op in ["index", "replace", "clear"] {
            let record = format!(r#"{{"op":"{op}","key":"01","entries":[]}}"#);
            assert!(decode_record(record.as_bytes()).is_err(), "{op}");
        }
    }

    #[test]
    fn library_artifact_round_trips_and_stays_plain_loadable() {
        let entries = vec![
            (key(1), entry(1, 40.0), Some(Mat::identity(2))),
            (key(2), entry(1, 50.0), None),
        ];
        let text = artifact(&entries);
        let round = parse_library_json(&text).expect("parses");
        assert_eq!(round.len(), 2);
        let indexed = round[&key(1)]
            .1
            .as_ref()
            .expect("key 1 carries its unitary");
        assert_eq!(indexed.as_slice(), Mat::identity(2).as_slice());
        assert!(round[&key(2)].1.is_none());
        // The plain loader drops the `unitary` field.
        let plain = crate::PulseCache::from_json(&text).expect("plain loader accepts");
        assert_eq!(plain.len(), 2);
        // Entries without unitaries produce the exact plain document.
        let bare: Vec<StoredEntry> = entries.into_iter().map(|(k, e, _)| (k, e, None)).collect();
        let mut cache = crate::PulseCache::new();
        for (k, e, _) in &bare {
            cache.insert(k.clone(), e.clone());
        }
        assert_eq!(artifact(&bare), cache.to_json());
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
        journal
            .snapshot(&artifact(&[
                (key(1), entry(1, 40.0), Some(Mat::identity(2))),
                (key(2), entry(1, 50.0), None),
            ]))
            .expect("snapshot");
        journal.record(&Event::Insert {
            key: &key(3),
            entry: &entry(1, 60.0),
            unitary: None,
        });
        journal.record(&Event::Evict { key: &key(2) });
        // An un-indexed re-insert keeps key 1's unitary, as live.
        journal.record(&Event::Insert {
            key: &key(1),
            entry: &entry(1, 45.0),
            unitary: None,
        });
        drop(journal);
        // Reopen: snapshot (2 entries) + WAL suffix (insert 3, evict 2,
        // re-insert 1).
        let (_journal, recovered) = open(&options).expect("recovers");
        assert_eq!(recovered.report.snapshot_entries, 2);
        assert_eq!(recovered.report.wal_records, 3);
        assert_eq!(recovered.report.entries, 2);
        assert_eq!(recovered.report.indexed, 1);
        let keys: Vec<&UnitaryKey> = recovered.entries.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, [&key(1), &key(3)]);
        assert_eq!(recovered.entries[0].1.latency_ns, 45.0);
        assert!(recovered.entries[0].2.is_some());
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
        journal
            .snapshot(&artifact(&[(key(1), entry(1, 40.0), None)]))
            .expect("snapshot repairs");
        assert!(journal.sticky_error().is_none());
        drop(journal);
        // Recovery sees the snapshot only: the dropped record left no
        // trace, but the state it described was captured wholesale.
        let (_journal, recovered) = open(&options).expect("recovers");
        assert_eq!(recovered.report.snapshot_entries, 1);
        assert_eq!(recovered.report.wal_records, 0);
        assert_eq!(recovered.entries[0].0, key(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
