//! The pulse cache: the paper's "group list + pulse list + latency list"
//! artifact produced by static pre-compilation (§IV-C/D) and consulted by
//! dynamic compilation to skip covered groups.
//!
//! Persistence uses the self-contained JSON layer in [`crate::json`]
//! (this workspace builds offline, without serde). Keys serialize as hex
//! strings; amplitudes and latencies round-trip exactly through Rust's
//! shortest-f64 formatting, and entries are emitted sorted by key, so the
//! artifact is byte-deterministic for a given cache state.

use std::collections::HashMap;
use std::path::Path;

use accqoc_circuit::UnitaryKey;
use accqoc_grape::Pulse;

use crate::error::Result;
use crate::json::{self, hex_decode, hex_encode, JsonError, JsonValue};

/// A cached compilation result for one unique group.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPulse {
    /// The optimized control pulse.
    pub pulse: Pulse,
    /// Minimal feasible latency found by binary search, nanoseconds.
    pub latency_ns: f64,
    /// GRAPE iterations spent compiling this group (all probes).
    pub iterations: usize,
    /// Number of qubits of the group.
    pub n_qubits: usize,
}

/// Key-value store from canonical group identity to compiled pulse.
///
/// # Examples
///
/// ```
/// use accqoc::{CachedPulse, PulseCache};
/// use accqoc_circuit::UnitaryKey;
/// use accqoc_grape::Pulse;
/// use accqoc_linalg::Mat;
///
/// let mut cache = PulseCache::new();
/// let key = UnitaryKey::canonical(&Mat::identity(2), 1);
/// cache.insert(key.clone(), CachedPulse {
///     pulse: Pulse::zeros(2, 0, 1.0),
///     latency_ns: 0.0,
///     iterations: 0,
///     n_qubits: 1,
/// });
/// assert!(cache.lookup(&key).is_some());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PulseCache {
    entries: HashMap<UnitaryKey, CachedPulse>,
}

impl PulseCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached unique groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a group by canonical key.
    pub fn lookup(&self, key: &UnitaryKey) -> Option<&CachedPulse> {
        self.entries.get(key)
    }

    /// `true` when the group is covered.
    pub fn contains(&self, key: &UnitaryKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts or replaces an entry; returns the previous value if any.
    pub fn insert(&mut self, key: UnitaryKey, value: CachedPulse) -> Option<CachedPulse> {
        self.entries.insert(key, value)
    }

    /// Removes an entry; returns it if it was present (the write-ahead
    /// log replays evictions through this).
    pub fn remove(&mut self, key: &UnitaryKey) -> Option<CachedPulse> {
        self.entries.remove(key)
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&UnitaryKey, &CachedPulse)> {
        self.entries.iter()
    }

    /// Consumes the cache, yielding its entries (unordered — callers that
    /// need determinism sort by key, as [`PulseCache::to_json`] does).
    pub fn into_entries(self) -> impl Iterator<Item = (UnitaryKey, CachedPulse)> {
        self.entries.into_iter()
    }

    /// Merges another cache into this one (other wins on conflicts).
    pub fn merge(&mut self, other: PulseCache) {
        self.entries.extend(other.entries);
    }

    /// The cache as a JSON value: `{"entries": [...]}`, entries sorted by
    /// key (deterministic for a given cache state). The daemon embeds
    /// this value in its frames directly.
    pub fn to_json_value(&self) -> JsonValue {
        let mut entries: Vec<(&UnitaryKey, &CachedPulse)> = self.entries.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let entries = entries
            .into_iter()
            .map(|(key, entry)| entry_to_json_value(key, entry))
            .collect();
        JsonValue::Object(vec![("entries".into(), JsonValue::Array(entries))])
    }

    /// Serializes to pretty JSON ([`PulseCache::to_json_value`],
    /// byte-deterministic for a given cache state).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Rebuilds a cache from a [`PulseCache::to_json_value`] value.
    ///
    /// Unknown per-entry fields are ignored, so artifacts extended with
    /// canonical unitaries (see [`crate::Session::save_cache`]) load
    /// here too — they just drop the index metadata.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] on a malformed value.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self> {
        let entries = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| malformed("missing `entries` array"))?;
        let mut cache = PulseCache::new();
        for entry in entries {
            let (key, entry) = entry_from_json_value(entry)?;
            cache.insert(key, entry);
        }
        Ok(cache)
    }

    /// Deserializes from JSON produced by [`PulseCache::to_json`] (see
    /// [`PulseCache::from_json_value`]).
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self> {
        Self::from_json_value(&json::parse(text)?)
    }

    /// Writes the cache to a file as JSON. The write is atomic
    /// (temp-file + rename), so a crash mid-save never leaves a torn
    /// artifact behind.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Store`] from file creation or writing.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        accqoc_store::write_atomic(path.as_ref(), self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads a cache from a JSON file.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Io`] / [`crate::Error::Json`] on unreadable or malformed files.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text)
    }
}

fn malformed(message: &str) -> JsonError {
    JsonError {
        message: format!("pulse cache: {message}"),
        offset: 0,
    }
}

/// One cache entry as the canonical JSON object (`key`, `latency_ns`,
/// `iterations`, `n_qubits`, `pulse`). Shared by the artifact writer,
/// the extended indexed artifact, and the WAL record encoding, so every
/// persisted representation of an entry is byte-for-byte the same.
pub(crate) fn entry_to_json_value(key: &UnitaryKey, entry: &CachedPulse) -> JsonValue {
    JsonValue::Object(vec![
        ("key".into(), JsonValue::String(hex_encode(key.as_bytes()))),
        ("latency_ns".into(), JsonValue::Number(entry.latency_ns)),
        (
            "iterations".into(),
            JsonValue::Number(entry.iterations as f64),
        ),
        ("n_qubits".into(), JsonValue::Number(entry.n_qubits as f64)),
        (
            "pulse".into(),
            JsonValue::Object(vec![
                ("dt_ns".into(), JsonValue::Number(entry.pulse.dt_ns())),
                (
                    "amps".into(),
                    JsonValue::Array(
                        (0..entry.pulse.n_controls())
                            .map(|c| {
                                JsonValue::Array(
                                    entry
                                        .pulse
                                        .channel(c)
                                        .iter()
                                        .map(|&a| JsonValue::Number(a))
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ])
}

/// Parses one entry object produced by [`entry_to_json_value`]. Unknown
/// fields (e.g. the optional `unitary` of indexed artifacts) are
/// ignored.
pub(crate) fn entry_from_json_value(entry: &JsonValue) -> Result<(UnitaryKey, CachedPulse)> {
    let key_hex = entry
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed("entry missing `key`"))?;
    let key = UnitaryKey::from_bytes(hex_decode(key_hex)?);
    let latency_ns = entry
        .get("latency_ns")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| malformed("entry missing `latency_ns`"))?;
    let iterations = entry
        .get("iterations")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| malformed("entry missing `iterations`"))?;
    let n_qubits = entry
        .get("n_qubits")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| malformed("entry missing `n_qubits`"))?;
    let pulse = entry
        .get("pulse")
        .ok_or_else(|| malformed("entry missing `pulse`"))?;
    let dt_ns = pulse
        .get("dt_ns")
        .and_then(JsonValue::as_f64)
        .filter(|&dt| dt > 0.0)
        .ok_or_else(|| malformed("pulse missing positive `dt_ns`"))?;
    let amps = pulse
        .get("amps")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| malformed("pulse missing `amps`"))?;
    if amps.is_empty() {
        return Err(malformed("pulse has no control channels").into());
    }
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(amps.len());
    for row in amps {
        let row = row
            .as_array()
            .ok_or_else(|| malformed("amp row is not an array"))?;
        rows.push(
            row.iter()
                .map(|v| v.as_f64().ok_or_else(|| malformed("amp is not a number")))
                .collect::<std::result::Result<_, _>>()?,
        );
    }
    if rows.iter().any(|r| r.len() != rows[0].len()) {
        return Err(malformed("ragged amp rows").into());
    }
    Ok((
        key,
        CachedPulse {
            pulse: Pulse::from_amps(rows, dt_ns),
            latency_ns,
            iterations,
            n_qubits,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use accqoc_circuit::{circuit_unitary, Circuit, Gate};

    fn key_of(gates: &[Gate], n: usize) -> UnitaryKey {
        UnitaryKey::canonical(
            &circuit_unitary(&Circuit::from_gates(n, gates.iter().copied())),
            n,
        )
    }

    fn entry(n_qubits: usize, latency: f64) -> CachedPulse {
        CachedPulse {
            pulse: Pulse::zeros(2 * n_qubits, latency as usize, 1.0),
            latency_ns: latency,
            iterations: 17,
            n_qubits,
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut cache = PulseCache::new();
        let k = key_of(&[Gate::H(0)], 1);
        assert!(cache.lookup(&k).is_none());
        cache.insert(k.clone(), entry(1, 10.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&k).unwrap().latency_ns, 10.0);
    }

    #[test]
    fn equivalent_groups_hit_the_same_entry() {
        let mut cache = PulseCache::new();
        cache.insert(key_of(&[Gate::Cx(0, 1)], 2), entry(2, 20.0));
        // cx with permuted qubits: same canonical key ⇒ covered.
        assert!(cache.contains(&key_of(&[Gate::Cx(1, 0)], 2)));
        // A different operation is not covered.
        assert!(!cache.contains(&key_of(&[Gate::Cz(0, 1)], 2)));
    }

    #[test]
    fn json_roundtrip() {
        let mut cache = PulseCache::new();
        cache.insert(key_of(&[Gate::T(0)], 1), entry(1, 5.0));
        let mut wiggly = entry(2, 25.0);
        wiggly.pulse.set(1, 3, -0.123456789012345);
        cache.insert(key_of(&[Gate::Cx(0, 1), Gate::H(1)], 2), wiggly);
        let json = cache.to_json();
        let restored = PulseCache::from_json(&json).unwrap();
        assert_eq!(restored.len(), 2);
        for (k, v) in cache.iter() {
            assert_eq!(restored.lookup(k), Some(v), "exact round-trip");
        }
    }

    #[test]
    fn json_output_is_deterministic() {
        let build = || {
            let mut cache = PulseCache::new();
            cache.insert(key_of(&[Gate::T(0)], 1), entry(1, 5.0));
            cache.insert(key_of(&[Gate::H(0)], 1), entry(1, 7.0));
            cache.insert(key_of(&[Gate::Cx(0, 1)], 2), entry(2, 21.0));
            cache.to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn file_roundtrip() {
        let mut cache = PulseCache::new();
        cache.insert(key_of(&[Gate::X(0)], 1), entry(1, 10.0));
        let dir = std::env::temp_dir().join("accqoc_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        cache.save(&path).unwrap();
        let restored = PulseCache::load(&path).unwrap();
        assert_eq!(restored.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_prefers_other() {
        let k = key_of(&[Gate::H(0)], 1);
        let mut a = PulseCache::new();
        a.insert(k.clone(), entry(1, 10.0));
        let mut b = PulseCache::new();
        b.insert(k.clone(), entry(1, 8.0));
        a.merge(b);
        assert_eq!(a.lookup(&k).unwrap().latency_ns, 8.0);
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(matches!(
            PulseCache::from_json("not json"),
            Err(Error::Json(_))
        ));
        assert!(PulseCache::from_json("{\"entries\": [{\"key\": \"zz\"}]}").is_err());
        assert!(PulseCache::from_json("{\"entries\": 3}").is_err());
    }
}
