//! Integration tests of the durable library tier: WAL + snapshot
//! recovery, crash edge cases, the entries the one decoder refuses,
//! and the warm-start re-indexing of persisted artifacts.

use std::path::{Path, PathBuf};

use accqoc_repro::accqoc::{
    caches_equivalent, CachedPulse, Error, PersistOptions, PulseCache, Session, SimilarityFn,
    SNAPSHOT_FILE, WAL_FILE,
};
use accqoc_repro::circuit::{circuit_unitary, Circuit, Gate, UnitaryKey};
use accqoc_repro::grape::Pulse;
use accqoc_repro::hw::Topology;
use accqoc_repro::linalg::Mat;
use accqoc_repro::store::WalWriter;
use proptest::prelude::*;

/// A scratch directory unique to this test (process id + tag).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("accqoc-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_session(dir: &Path, snapshot_every: usize) -> Session {
    Session::builder()
        .topology(Topology::linear(3))
        .persistence_with(PersistOptions::new(dir).snapshot_every(snapshot_every))
        .build()
        .expect("durable session builds")
}

fn rz(theta: f64) -> Mat {
    circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, theta)]))
}

fn entry(n_qubits: usize, latency_ns: f64) -> CachedPulse {
    CachedPulse {
        pulse: Pulse::zeros(2 * n_qubits, 4, 1.0),
        latency_ns,
        iterations: 3,
        n_qubits,
    }
}

#[test]
fn missing_data_dir_is_a_cold_start_not_an_error() {
    let dir = scratch_dir("cold");
    let session = durable_session(&dir, 0);
    let report = session.recovery_report().expect("durable sessions report");
    assert_eq!(report.entries, 0);
    assert_eq!(report.snapshot_entries, 0);
    assert_eq!(report.wal_records, 0);
    assert!(dir.is_dir(), "open creates the directory");
    // Non-durable sessions have no report.
    let plain = Session::builder()
        .topology(Topology::linear(3))
        .build()
        .expect("plain session");
    assert!(plain.recovery_report().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_recovers_byte_identical_and_reindexed() {
    let dir = scratch_dir("roundtrip");
    let live = durable_session(&dir, 0);
    for k in 1..=4 {
        let u = rz(0.4 * k as f64);
        live.library()
            .insert(UnitaryKey::canonical(&u, 1), entry(1, k as f64), Some(&u));
    }
    let pre_crash = live.cache_snapshot();
    let pre_indexed = live.library().indexed_len();
    drop(live); // crash: everything lives only in the WAL

    let recovered = durable_session(&dir, 0);
    let report = recovered.recovery_report().expect("report").clone();
    assert_eq!(report.snapshot_entries, 0, "no snapshot was ever written");
    assert_eq!(report.wal_records, 4);
    assert_eq!(report.entries, 4);
    assert_eq!(report.indexed, 4);
    // Byte-identical cache...
    assert_eq!(recovered.cache_snapshot().to_json(), pre_crash.to_json());
    // ...semantically equivalent under the oracle...
    let eq = caches_equivalent(
        recovered.models(),
        &pre_crash,
        &recovered.cache_snapshot(),
        1e-9,
        1e-9,
    )
    .expect("oracle runs");
    assert!(eq.equivalent(), "recovered cache must be equivalent");
    // ...and warm-start capable, not just exact-hit.
    assert_eq!(recovered.library().indexed_len(), pre_indexed);
    let near = recovered
        .library()
        .nearest(&rz(0.41), 1, 4, SimilarityFn::TraceOverlap)
        .expect("recovered index answers neighbor queries");
    assert_eq!(near.key, UnitaryKey::canonical(&rz(0.4), 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_discarded_cleanly() {
    let dir = scratch_dir("torn");
    let live = durable_session(&dir, 0);
    for k in 1..=3 {
        let u = rz(0.5 * k as f64);
        live.library()
            .insert(UnitaryKey::canonical(&u, 1), entry(1, k as f64), Some(&u));
    }
    drop(live);
    // Crash mid-append: chop a few bytes off the last record.
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal");
    file.set_len(len - 3).expect("truncate");
    drop(file);

    let recovered = durable_session(&dir, 0);
    let report = recovered.recovery_report().expect("report").clone();
    assert_eq!(report.wal_records, 2, "torn third record is dropped");
    assert!(report.wal_truncated_bytes > 0);
    assert_eq!(report.entries, 2);
    assert!(recovered.cache_contains(&UnitaryKey::canonical(&rz(0.5), 1)));
    assert!(!recovered.cache_contains(&UnitaryKey::canonical(&rz(1.5), 1)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_wal_record_is_a_typed_store_error() {
    let dir = scratch_dir("corrupt");
    let live = durable_session(&dir, 0);
    let u = rz(0.7);
    live.library()
        .insert(UnitaryKey::canonical(&u, 1), entry(1, 2.0), Some(&u));
    drop(live);
    // Flip one payload byte of the (complete) record: the length still
    // matches, the checksum no longer does.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).expect("read wal");
    let payload_start = 8 + 8; // magic + frame header
    bytes[payload_start + 4] ^= 0xFF;
    std::fs::write(&wal, &bytes).expect("write corrupted wal");

    let err = Session::builder()
        .topology(Topology::linear(3))
        .persistence(&dir)
        .build()
        .expect_err("corruption must not recover silently");
    match err {
        Error::Store(e) => {
            let shown = e.to_string();
            assert!(shown.contains("checksum"), "unexpected error: {shown}");
            assert!(shown.contains("0 records ok"), "unexpected error: {shown}");
        }
        other => panic!("expected Error::Store, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_plus_wal_replay_equals_pure_wal_replay() {
    let wal_only = scratch_dir("pure-wal");
    let compacted = scratch_dir("compacted");
    // Same mutation sequence on both; the compacted session snapshots
    // every 3 inserts (and once explicitly), the other never does.
    let a = durable_session(&wal_only, 0);
    let b = durable_session(&compacted, 3);
    for k in 1..=8 {
        let u = rz(0.3 * k as f64);
        let key = UnitaryKey::canonical(&u, 1);
        a.library()
            .insert(key.clone(), entry(1, k as f64), Some(&u));
        b.library().insert(key, entry(1, k as f64), Some(&u));
        if k == 5 {
            b.checkpoint().expect("explicit mid-sequence checkpoint");
        }
    }
    let reference = a.cache_snapshot().to_json();
    drop(a);
    drop(b);

    let ra = durable_session(&wal_only, 0);
    let rb = durable_session(&compacted, 3);
    let report_a = ra.recovery_report().expect("report").clone();
    let report_b = rb.recovery_report().expect("report").clone();
    assert_eq!(report_a.snapshot_entries, 0);
    assert!(
        report_b.snapshot_entries > 0,
        "compaction must have produced a snapshot"
    );
    assert!(report_b.wal_records < report_a.wal_records);
    assert_eq!(ra.cache_snapshot().to_json(), reference);
    assert_eq!(rb.cache_snapshot().to_json(), reference);
    assert_eq!(ra.library().indexed_len(), 8);
    assert_eq!(rb.library().indexed_len(), 8);
    let eq = caches_equivalent(
        ra.models(),
        &ra.cache_snapshot(),
        &rb.cache_snapshot(),
        1e-9,
        1e-9,
    )
    .expect("oracle runs");
    assert!(eq.equivalent());
    let _ = std::fs::remove_dir_all(&wal_only);
    let _ = std::fs::remove_dir_all(&compacted);
}

#[test]
fn save_cache_artifacts_reindex_on_load() {
    let dir = scratch_dir("artifact");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("library.json");
    let source = Session::builder()
        .topology(Topology::linear(3))
        .build()
        .expect("session");
    for k in 1..=3 {
        let u = rz(0.6 * k as f64);
        source
            .library()
            .insert(UnitaryKey::canonical(&u, 1), entry(1, k as f64), Some(&u));
    }
    source.save_cache(&path).expect("save");

    let fresh = Session::builder()
        .topology(Topology::linear(3))
        .build()
        .expect("session");
    assert_eq!(fresh.load_cache(&path).expect("load"), 3);
    // The historical warm-start gap: entries used to come back
    // un-indexed. Now the artifact embeds the canonical unitaries and
    // load re-indexes every one.
    assert_eq!(fresh.library().indexed_len(), 3);
    assert!(fresh
        .library()
        .nearest(&rz(0.61), 1, 4, SimilarityFn::TraceOverlap)
        .is_some());
    assert_eq!(
        fresh.cache_snapshot().to_json(),
        source.cache_snapshot().to_json()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn served_programs_survive_restart_without_recompiles() {
    let dir = scratch_dir("serve");
    let mut grape = accqoc_repro::grape::GrapeOptions::default();
    grape.stop.max_iters = 150;
    let build = || {
        Session::builder()
            .topology(Topology::linear(2))
            .grape(grape.clone())
            .persistence(&dir)
            .build()
            .expect("durable session")
    };
    let program = Circuit::from_gates(2, [Gate::H(0), Gate::Rz(1, 0.4)]);

    let live = build();
    let first = live.serve_program(&program).expect("first serving");
    assert!(first.n_compiled > 0, "cold library must compile");
    let artifact = live.cache_snapshot().to_json();
    drop(live); // crash without checkpoint

    let recovered = build();
    assert_eq!(recovered.cache_snapshot().to_json(), artifact);
    let replay = recovered.serve_program(&program).expect("replay");
    assert_eq!(
        replay.n_compiled, 0,
        "recovered library must serve the replay entirely from cache"
    );
    assert_eq!(recovered.cache_snapshot().to_json(), artifact);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `session`'s library artifact, written to `path` and read back: every
/// entry with its canonical unitary when indexed, so two equal
/// artifacts hold the same entries and index the same keys.
fn artifact(session: &Session, path: &Path) -> String {
    session.save_cache(path).expect("save");
    std::fs::read_to_string(path).expect("read artifact")
}

#[test]
fn checkpoint_leaves_one_snapshot_that_is_the_save_cache_artifact() {
    let dir = scratch_dir("checkpoint");
    let live = durable_session(&dir, 0);
    for k in 1..=3 {
        let u = rz(0.5 * k as f64);
        live.library()
            .insert(UnitaryKey::canonical(&u, 1), entry(1, k as f64), Some(&u));
    }
    let mut plain = PulseCache::new();
    plain.insert(UnitaryKey::canonical(&rz(2.5), 1), entry(1, 9.0));
    live.library().merge(plain);
    live.checkpoint().expect("checkpoint");

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("data dir")
        .map(|f| {
            f.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    files.sort();
    assert_eq!(files, [WAL_FILE, SNAPSHOT_FILE]);
    let snapshot = dir.join(SNAPSHOT_FILE);
    let text = std::fs::read_to_string(&snapshot).expect("snapshot");
    // The snapshot is byte for byte the `save_cache` artifact...
    let saved = dir.with_extension("json");
    assert_eq!(artifact(&live, &saved), text);
    // ...which the plain loader reads without the unitaries...
    let cache = PulseCache::from_json(&text).expect("plain load");
    assert_eq!(cache.to_json(), live.cache_snapshot().to_json());
    // ...and `load_cache` reads with them.
    let fresh = Session::builder()
        .topology(Topology::linear(3))
        .build()
        .expect("session");
    assert_eq!(fresh.load_cache(&snapshot).expect("load"), 4);
    assert_eq!(fresh.library().indexed_len(), 3);
    assert_eq!(live.library().indexed_len(), 3);
    let _ = std::fs::remove_file(&saved);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One entry object as JSON text, with each number spelled as given
/// (`unitary` is empty or a `, "unitary": [...]` field).
fn entry_text(latency_ns: &str, amp: &str, n_qubits: &str, unitary: &str) -> String {
    format!(
        r#"{{"key": "0a0b", "latency_ns": {latency_ns}, "iterations": 3, "n_qubits": {n_qubits}, "pulse": {{"dt_ns": 1, "amps": [[{amp}, 0], [0, 0]]}}{unitary}}}"#
    )
}

const IDENTITY: &str = r#", "unitary": [1, 0, 0, 0, 0, 0, 1, 0]"#;

/// Entries no library can hold: infinite numbers (`1e999` parses to
/// infinity) and a width whose unitary dimension overflows.
fn unrepresentable_entries() -> Vec<String> {
    vec![
        entry_text("1e999", "0.5", "1", ""),
        entry_text("4", "1e999", "1", ""),
        entry_text(
            "4",
            "0.5",
            "1",
            r#", "unitary": [1e999, 0, 0, 0, 0, 0, 1, 0]"#,
        ),
        entry_text("4", "0.5", "64", IDENTITY),
    ]
}

#[test]
fn load_cache_rejects_non_finite_numbers_and_over_wide_unitaries() {
    let dir = scratch_dir("bad-artifact");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("library.json");
    let loader = || {
        Session::builder()
            .topology(Topology::linear(3))
            .build()
            .expect("session")
    };
    for bad in unrepresentable_entries() {
        std::fs::write(&path, format!(r#"{{"entries": [{bad}]}}"#)).expect("write");
        let session = loader();
        match session.load_cache(&path) {
            Err(Error::Json(_)) => {}
            other => panic!("{bad}: expected Error::Json, got {other:?}"),
        }
        assert_eq!(session.cache_len(), 0, "{bad}: nothing loaded");
    }
    // The same entry spelled finitely, one qubit wide, loads indexed.
    std::fs::write(
        &path,
        format!(
            r#"{{"entries": [{}]}}"#,
            entry_text("4", "0.5", "1", IDENTITY)
        ),
    )
    .expect("write");
    let session = loader();
    assert_eq!(session.load_cache(&path).expect("valid entry loads"), 1);
    assert_eq!(session.library().indexed_len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_with_unrepresentable_entries_fails_recovery() {
    for (i, bad) in unrepresentable_entries().into_iter().enumerate() {
        let dir = scratch_dir(&format!("bad-snapshot-{i}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(
            dir.join(SNAPSHOT_FILE),
            format!(r#"{{"entries": [{bad}]}}"#),
        )
        .expect("write snapshot");
        let err = Session::builder()
            .topology(Topology::linear(3))
            .persistence(&dir)
            .build()
            .expect_err("an unrepresentable snapshot entry must not recover");
        assert!(matches!(err, Error::Json(_)), "{bad}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn wal_record_with_unrepresentable_entry_fails_recovery() {
    for (i, bad) in unrepresentable_entries().into_iter().enumerate() {
        let dir = scratch_dir(&format!("bad-wal-{i}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // A well-framed record (the checksum holds), so the entry
        // decoder is what must refuse it.
        let (mut wal, _) = WalWriter::open(&dir.join(WAL_FILE)).expect("open wal");
        wal.append(format!(r#"{{"op":"insert","entry":{bad}}}"#).as_bytes())
            .expect("append");
        drop(wal);
        let err = Session::builder()
            .topology(Topology::linear(3))
            .persistence(&dir)
            .build()
            .expect_err("an unrepresentable WAL entry must not recover");
        assert!(matches!(err, Error::Json(_)), "{bad}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn retired_wal_record_kinds_fail_recovery_with_a_typed_error() {
    for (i, record) in [
        r#"{"op":"index","key":"0a0b","n_qubits":1,"unitary":[1,0,0,0,0,0,1,0]}"#,
        r#"{"op":"replace","entries":[]}"#,
        r#"{"op":"clear"}"#,
    ]
    .into_iter()
    .enumerate()
    {
        let dir = scratch_dir(&format!("retired-{i}"));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (mut wal, _) = WalWriter::open(&dir.join(WAL_FILE)).expect("open wal");
        wal.append(record.as_bytes()).expect("append");
        drop(wal);
        let err = Session::builder()
            .topology(Topology::linear(3))
            .persistence(&dir)
            .build()
            .expect_err("older record kinds are not read");
        assert!(matches!(err, Error::Json(_)), "{record}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One random library mutation for the round-trip property test.
#[derive(Debug, Clone)]
enum Op {
    /// A compile's insert: indexed.
    Insert(u8),
    /// A plain-cache import: stored un-indexed (an index entry the key
    /// already has stays).
    Import(u8),
    Touch(u8),
    /// Snapshot and truncate the WAL, so recovery reads a snapshot plus
    /// a WAL suffix.
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted pick (compat proptest has no `prop_oneof`): mostly
    // inserts, some imports and touches, the occasional checkpoint.
    (0..12u8, 1..24u8).prop_map(|(kind, tag)| match kind {
        0..=5 => Op::Insert(tag),
        6..=7 => Op::Import(tag),
        8..=10 => Op::Touch(tag),
        _ => Op::Checkpoint,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any insert/import/touch/checkpoint sequence against a
    /// capacity-bounded durable library (evictions included) recovers
    /// byte-identically, with the same keys indexed.
    #[test]
    fn random_mutation_sequences_round_trip_through_recovery(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        seq in 0u32..1_000_000,
    ) {
        let dir = scratch_dir(&format!("prop-{seq}"));
        let build = || {
            Session::builder()
                .topology(Topology::linear(3))
                .library_capacity(4)
                .persistence_with(PersistOptions::new(&dir).snapshot_every(0))
                .build()
                .expect("durable session")
        };
        let live = build();
        for op in &ops {
            match op {
                Op::Insert(tag) => {
                    let u = rz(0.1 * *tag as f64);
                    live.library().insert(
                        UnitaryKey::canonical(&u, 1),
                        entry(1, *tag as f64),
                        Some(&u),
                    );
                }
                Op::Import(tag) => {
                    let mut plain = PulseCache::new();
                    plain.insert(
                        UnitaryKey::canonical(&rz(0.1 * *tag as f64), 1),
                        entry(1, 100.0 + *tag as f64),
                    );
                    live.library().merge(plain);
                }
                Op::Touch(tag) => {
                    let u = rz(0.1 * *tag as f64);
                    live.library().touch(&UnitaryKey::canonical(&u, 1));
                }
                Op::Checkpoint => live.checkpoint().expect("checkpoint"),
            }
        }
        let path = dir.with_extension("json");
        let reference = live.cache_snapshot().to_json();
        let indexed = artifact(&live, &path);
        drop(live);

        let recovered = build();
        prop_assert_eq!(recovered.cache_snapshot().to_json(), reference);
        // The same keys indexed, with bit-identical unitaries.
        prop_assert_eq!(artifact(&recovered, &path), indexed);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
