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

use accqoc_circuit::UnitaryKey;
use accqoc_grape::Pulse;
use accqoc_linalg::{Mat, C64};

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
        entries_to_json_value(entries.into_iter().map(|(key, entry)| (key, entry, None)))
    }

    /// Serializes to pretty JSON ([`PulseCache::to_json_value`],
    /// byte-deterministic for a given cache state).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_pretty()
    }

    /// Rebuilds a cache from a [`PulseCache::to_json_value`] value.
    ///
    /// Entries that carry a canonical `unitary` (every
    /// [`crate::Session::save_cache`] artifact and durable snapshot
    /// writes one per fingerprint-indexed entry) load here too; the
    /// unitary is checked and then dropped.
    ///
    /// # Errors
    ///
    /// [`crate::Error::Json`] on a malformed value.
    pub fn from_json_value(doc: &JsonValue) -> Result<Self> {
        let mut cache = PulseCache::new();
        for (key, entry, _) in entries_from_json_value(doc)? {
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
}

fn malformed(message: &str) -> JsonError {
    JsonError {
        message: format!("pulse cache: {message}"),
        offset: 0,
    }
}

/// One library entry as it is stored on disk: key, pulse, and the
/// canonical unitary when the entry is fingerprint-indexed.
pub(crate) type StoredEntry = (UnitaryKey, CachedPulse, Option<Mat>);

/// The artifact document `{"entries": [...]}` over entries the caller
/// has sorted by key. With no unitary anywhere this is exactly
/// [`PulseCache::to_json_value`].
pub(crate) fn entries_to_json_value<'a>(
    entries: impl Iterator<Item = (&'a UnitaryKey, &'a CachedPulse, Option<&'a Mat>)>,
) -> JsonValue {
    let entries = entries
        .map(|(key, entry, unitary)| entry_to_json_value(key, entry, unitary))
        .collect();
    JsonValue::Object(vec![("entries".into(), JsonValue::Array(entries))])
}

/// Parses an [`entries_to_json_value`] document, in document order.
pub(crate) fn entries_from_json_value(doc: &JsonValue) -> Result<Vec<StoredEntry>> {
    doc.get("entries")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| malformed("missing `entries` array"))?
        .iter()
        .map(entry_from_json_value)
        .collect()
}

/// One entry as the canonical JSON object (`key`, `latency_ns`,
/// `iterations`, `n_qubits`, `pulse`, and `unitary` when given). The
/// cache artifact, the durable snapshot and the WAL insert record all
/// write an entry through this one function.
pub(crate) fn entry_to_json_value(
    key: &UnitaryKey,
    entry: &CachedPulse,
    unitary: Option<&Mat>,
) -> JsonValue {
    let mut fields = vec![
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
    ];
    if let Some(unitary) = unitary {
        // Row-major `[re, im, re, im, ...]`: `2·d²` numbers.
        let cells = unitary
            .as_slice()
            .iter()
            .flat_map(|c| [JsonValue::Number(c.re), JsonValue::Number(c.im)])
            .collect();
        fields.push(("unitary".into(), JsonValue::Array(cells)));
    }
    JsonValue::Object(fields)
}

/// A finite number (`1e999` parses to infinity, which no entry field
/// can hold).
fn finite(value: &JsonValue) -> Option<f64> {
    value.as_f64().filter(|x| x.is_finite())
}

/// Parses one [`entry_to_json_value`] object. Every number must be
/// finite, and a `unitary` must be a unitary of the entry's width.
pub(crate) fn entry_from_json_value(entry: &JsonValue) -> Result<StoredEntry> {
    let key_hex = entry
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| malformed("entry missing `key`"))?;
    let key = UnitaryKey::from_bytes(hex_decode(key_hex)?);
    let latency_ns = entry
        .get("latency_ns")
        .and_then(finite)
        .ok_or_else(|| malformed("entry missing finite `latency_ns`"))?;
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
        .and_then(finite)
        .filter(|&dt| dt > 0.0)
        .ok_or_else(|| malformed("pulse missing finite positive `dt_ns`"))?;
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
                .map(|v| finite(v).ok_or_else(|| malformed("amp is not a finite number")))
                .collect::<std::result::Result<_, _>>()?,
        );
    }
    if rows.iter().any(|r| r.len() != rows[0].len()) {
        return Err(malformed("ragged amp rows").into());
    }
    let unitary = match entry.get("unitary") {
        Some(cells) => Some(unitary_from_json(cells, n_qubits)?),
        None => None,
    };
    Ok((
        key,
        CachedPulse {
            pulse: Pulse::from_amps(rows, dt_ns),
            latency_ns,
            iterations,
            n_qubits,
        },
        unitary,
    ))
}

/// Decodes an entry's `unitary` cells into the `2^n_qubits`-square
/// matrix they must form.
fn unitary_from_json(value: &JsonValue, n_qubits: usize) -> Result<Mat> {
    let cells = value
        .as_array()
        .ok_or_else(|| malformed("unitary is not an array"))?;
    let d = u32::try_from(n_qubits)
        .ok()
        .and_then(|n| 1usize.checked_shl(n));
    let len = d
        .and_then(|d| d.checked_mul(d))
        .and_then(|d2| d2.checked_mul(2));
    if len != Some(cells.len()) {
        return Err(malformed("unitary length does not match n_qubits").into());
    }
    let nums = cells
        .iter()
        .map(|v| finite(v).ok_or_else(|| malformed("unitary cell is not a finite number")))
        .collect::<std::result::Result<Vec<f64>, _>>()?;
    let flat: Vec<C64> = nums.chunks(2).map(|p| C64::new(p[0], p[1])).collect();
    let unitary = Mat::from_flat(&flat);
    if !unitary.is_unitary(1e-6) {
        return Err(malformed("unitary is not unitary").into());
    }
    Ok(unitary)
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

    #[test]
    fn entry_unitary_round_trips_and_must_fit_its_width() {
        let k = key_of(&[Gate::H(0)], 1);
        let u = circuit_unitary(&Circuit::from_gates(1, [Gate::Rz(0, 0.3), Gate::H(0)]));
        let value = entry_to_json_value(&k, &entry(1, 5.0), Some(&u));
        let (_, _, round) = entry_from_json_value(&value).unwrap();
        assert_eq!(round.expect("unitary kept").as_slice(), u.as_slice());
        // Two qubits wide: a 2×2 unitary has the wrong length.
        let wide = entry_to_json_value(&k, &entry(2, 5.0), Some(&u));
        assert!(matches!(entry_from_json_value(&wide), Err(Error::Json(_))));
        // The right length but not unitary.
        let doubled = entry_to_json_value(&k, &entry(1, 5.0), Some(&u.scale_re(2.0)));
        assert!(matches!(
            entry_from_json_value(&doubled),
            Err(Error::Json(_))
        ));
    }
}
