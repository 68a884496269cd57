//! Decoder fuzzing for the durable library's bytes: mutated snapshots,
//! WAL payloads and `load_cache` artifacts must each end in `Ok` or a
//! typed error, never a panic. The mutations start from valid
//! artifacts: byte flips, truncations, numbers swapped for values no
//! entry can hold (`1e999`, `64`, `-1`), and dropped fields.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use accqoc_repro::accqoc::{
    CachedPulse, PersistOptions, PulseCache, Result, Session, SimilarityFn, SNAPSHOT_FILE, WAL_FILE,
};
use accqoc_repro::circuit::{circuit_unitary, Circuit, Gate, UnitaryKey};
use accqoc_repro::grape::Pulse;
use accqoc_repro::hw::Topology;
use accqoc_repro::store::{replay_wal, WalWriter};
use proptest::prelude::*;

/// A fresh scratch directory, unique per call (the tests of this file
/// run concurrently in one process).
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("accqoc-fuzz-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder() -> accqoc_repro::accqoc::SessionBuilder {
    Session::builder().topology(Topology::linear(3))
}

/// A pulse with a distinct amplitude per cell, so the artifacts hold
/// plenty of numbers to mutate.
fn entry(n_qubits: usize, latency_ns: f64) -> CachedPulse {
    let mut pulse = Pulse::zeros(2 * n_qubits, 3, 0.5);
    for c in 0..2 * n_qubits {
        for k in 0..3 {
            pulse.set(c, k, 0.1 * (c + k) as f64 - 0.2);
        }
    }
    CachedPulse {
        pulse,
        latency_ns,
        iterations: 5,
        n_qubits,
    }
}

/// Fills `session`'s library with indexed one- and two-qubit entries
/// and one un-indexed entry.
fn populate(session: &Session) {
    let one = circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, 0.3), Gate::H(0)]));
    let two = circuit_unitary(&Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]));
    let library = session.library();
    library.insert(UnitaryKey::canonical(&one, 1), entry(1, 12.5), Some(&one));
    library.insert(UnitaryKey::canonical(&two, 2), entry(2, 40.0), Some(&two));
    let mut plain = PulseCache::new();
    let bare = circuit_unitary(&Circuit::from_gates(1, [Gate::X(0)]));
    plain.insert(UnitaryKey::canonical(&bare, 1), entry(1, 8.0));
    library.merge(plain);
}

/// A valid library artifact (the `save_cache` file and the snapshot
/// share it).
fn valid_artifact() -> Vec<u8> {
    let session = builder().build().expect("session");
    populate(&session);
    let dir = scratch_dir("artifact");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("library.json");
    session.save_cache(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read artifact");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Valid WAL payloads: indexed and un-indexed inserts, and evictions
/// (a capacity-2 library holding three entries evicts one).
fn valid_wal_records() -> Vec<Vec<u8>> {
    let dir = scratch_dir("records");
    let session = builder()
        .library_capacity(2)
        .persistence_with(PersistOptions::new(&dir).snapshot_every(0))
        .build()
        .expect("durable session");
    populate(&session);
    drop(session);
    let records = replay_wal(&dir.join(WAL_FILE)).expect("replay").records;
    let _ = std::fs::remove_dir_all(&dir);
    records
}

/// Spans of the JSON number tokens in `bytes` (outside strings).
fn number_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            spans.push((start, i));
            continue;
        }
        i += 1;
    }
    spans
}

/// Every field name an entry, a record or an artifact carries.
const FIELDS: [&str; 11] = [
    "entries",
    "key",
    "latency_ns",
    "iterations",
    "n_qubits",
    "pulse",
    "dt_ns",
    "amps",
    "unitary",
    "op",
    "entry",
];

/// One way to damage a valid artifact; `at` picks the site (modulo the
/// number of candidate sites).
#[derive(Debug, Clone)]
enum Mutation {
    FlipBit { at: usize, bit: u8 },
    Truncate { at: usize },
    SwapNumber { at: usize, with: &'static str },
    DropField { at: usize, field: &'static str },
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (0..4u8, 0..100_000usize, 0..8u8, 0..FIELDS.len()).prop_map(
        |(kind, at, pick, field)| match kind {
            0 => Mutation::FlipBit { at, bit: pick },
            1 => Mutation::Truncate { at },
            2 => Mutation::SwapNumber {
                at,
                with: ["1e999", "64", "-1", "-1e999"][pick as usize % 4],
            },
            _ => Mutation::DropField {
                at,
                field: FIELDS[field],
            },
        },
    )
}

/// Applies `mutation` to a copy of `bytes`.
fn mutate(bytes: &[u8], mutation: &Mutation) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match *mutation {
        Mutation::FlipBit { at, bit } => {
            let i = at % out.len();
            out[i] ^= 1 << bit;
        }
        Mutation::Truncate { at } => out.truncate(at % out.len()),
        Mutation::SwapNumber { at, with } => {
            let spans = number_spans(&out);
            if !spans.is_empty() {
                let (start, end) = spans[at % spans.len()];
                out.splice(start..end, with.bytes());
            }
        }
        Mutation::DropField { at, field } => {
            // Renaming the field drops it and keeps the JSON well formed.
            let needle = format!("\"{field}\"");
            let sites: Vec<usize> = (0..out.len().saturating_sub(needle.len() - 1))
                .filter(|&i| out[i..].starts_with(needle.as_bytes()))
                .collect();
            if !sites.is_empty() {
                out.insert(sites[at % sites.len()] + 1, b'x');
            }
        }
    }
    out
}

/// Uses a library that loaded without error: serves a neighbor query
/// and re-serializes it, so a bad value that slipped through would
/// surface here.
fn exercise(session: &Session) {
    let query = circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, 0.31), Gate::H(0)]));
    let _ = session
        .library()
        .nearest(&query, 1, 4, SimilarityFn::TraceOverlap);
    let _ = session.cache_snapshot().to_json();
}

/// Recovers a durable session from `dir`, using it when recovery
/// succeeds.
fn recover(dir: &Path) -> Result<Session> {
    let session = builder().persistence(dir).build()?;
    exercise(&session);
    Ok(session)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mutated artifact handed to `load_cache`, or left as a data
    /// dir's snapshot for recovery, loads or fails with a typed error.
    #[test]
    fn mutated_artifacts_load_or_fail_typed(mutation in mutation_strategy()) {
        let bytes = mutate(&valid_artifact(), &mutation);
        let dir = scratch_dir("mutated-artifact");
        std::fs::create_dir_all(&dir).expect("scratch dir");

        let path = dir.join("library.json");
        std::fs::write(&path, &bytes).expect("write artifact");
        let session = builder().build().expect("session");
        if session.load_cache(&path).is_ok() {
            exercise(&session);
        }

        let data = dir.join("data");
        std::fs::create_dir_all(&data).expect("data dir");
        std::fs::write(data.join(SNAPSHOT_FILE), &bytes).expect("write snapshot");
        let _ = recover(&data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mutated WAL payload, framed with a valid checksum so it reaches
    /// the record decoder, recovers or fails with a typed error.
    #[test]
    fn mutated_wal_records_recover_or_fail_typed(
        mutation in mutation_strategy(),
        record in 0..16usize,
    ) {
        let records = valid_wal_records();
        let target = record % records.len();
        let dir = scratch_dir("mutated-wal");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let (mut wal, _) = WalWriter::open(&dir.join(WAL_FILE)).expect("open wal");
        for (i, payload) in records.iter().enumerate() {
            let payload = if i == target {
                mutate(payload, &mutation)
            } else {
                payload.clone()
            };
            wal.append(&payload).expect("append");
        }
        drop(wal);
        let _ = recover(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn unmutated_artifacts_round_trip() {
    // The fuzz seeds are themselves valid: the artifact loads with its
    // two indexed entries, and the WAL holds inserts and an eviction.
    let dir = scratch_dir("seeds");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    std::fs::write(dir.join(SNAPSHOT_FILE), valid_artifact()).expect("write snapshot");
    let session = recover(&dir).expect("valid snapshot recovers");
    assert_eq!(session.cache_len(), 3);
    assert_eq!(session.library().indexed_len(), 2);
    let records = valid_wal_records();
    let text: Vec<String> = records
        .iter()
        .map(|r| String::from_utf8(r.clone()).expect("utf-8"))
        .collect();
    assert!(text.iter().any(|r| r.contains(r#""evict""#)), "{text:?}");
    assert!(text.iter().any(|r| r.contains(r#""unitary""#)));
    assert!(number_spans(records[0].as_slice()).len() > 10);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutations_change_the_bytes() {
    let artifact = valid_artifact();
    for mutation in [
        Mutation::FlipBit { at: 7, bit: 3 },
        Mutation::Truncate { at: 20 },
        Mutation::SwapNumber {
            at: 2,
            with: "1e999",
        },
        Mutation::DropField {
            at: 1,
            field: "unitary",
        },
    ] {
        assert_ne!(mutate(&artifact, &mutation), artifact, "{mutation:?}");
    }
}
