//! The shard router: a front-end [`CallHandler`] that partitions the
//! pulse library across N worker daemons by group width.
//!
//! A sharded deployment is N `accqoc-server` worker processes — each an
//! ordinary event-loop daemon owning its own durable store
//! (`--data-dir` per shard) — plus one router process built from this
//! module. The router speaks the *existing* wire surfaces unchanged
//! (legacy line-JSON and HTTP, via [`Server::bind_with_handler`](crate::Server::bind_with_handler)); a
//! client cannot tell a router from a single daemon except through
//! throughput.
//!
//! # Routing is by dimension class
//!
//! A group of width w belongs to shard `(w − 1) mod N`
//! ([`accqoc::shard_of`]): the key is the group's qubit width, not its
//! unitary. This is what makes sharding *byte-transparent*:
//! warm-start retrieval never crosses widths
//! ([`accqoc::UnitaryFingerprint`] distance is infinite across widths),
//! so the width-w slice of the library evolves identically whether it
//! lives in one process or on shard `shard_of(w, N)`. Routing finer than
//! the width class (e.g. by fingerprint bucket) would sever warm-start
//! chains and change the served pulses; routing by width cannot.
//!
//! Per call:
//!
//! - `serve_program` — the router runs the (deterministic, cheap) front
//!   end itself, maps each unique group's width to its owner shard, and
//!   forwards the program to every involved shard with
//!   `only_qubits: [widths it owns]`. Shards compile/serve only their
//!   groups; the router merges the per-group results back into target
//!   order, folds the program-level latency with
//!   [`accqoc::Session::overall_latency_from`], and sums the counters —
//!   landing on the same bytes a single process reports.
//! - `precompile` — same fan-out; shard summaries sum exactly (group
//!   keys never collide across widths).
//! - `verify_program` — fetch the owned pulses from each shard
//!   (`pulses` method), import them into a fork of the router's local
//!   session, verify locally.
//! - `stats` / `library` — fan out to every shard; library counters and
//!   entry pages merge in stable key order.
//! - `shutdown` — drains the router, then forwards the shutdown to
//!   every shard (best effort): one `shutdown` drains the deployment.
//!
//! # Shard death
//!
//! Every forwarded call is bounded: connections are opened with a
//! connect timeout, reads carry a read timeout, and a failed call is
//! retried with exponential backoff ([`RouterConfig::attempts`],
//! [`RouterConfig::backoff`]). A shard that stays dead yields a typed
//! [`ErrorCode::ShardUnavailable`] (HTTP 503) — never a hang. The error
//! is retryable by the client: a worker restarted from its `--data-dir`
//! recovers its library slice and resumes serving exact hits.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use accqoc::{PulseCache, ServeReport, Session};
use accqoc_circuit::UnitaryKey;

use crate::client::{Client, ClientError};
use crate::protocol::{
    Call, ErrorCode, LibraryEntryInfo, LibraryPage, Payload, PrecompileSummary, Response,
    StatsSnapshot, WireError, MAX_LIBRARY_LIMIT,
};
use crate::server::{parse_program, CallHandler, HandlerContext};

/// Tunables of the router's forwarding path.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Attempts per forwarded call before giving up with
    /// `shard_unavailable` (≥ 1). Connection failures and broken
    /// streams are retried; a shard's *typed* error answer is final.
    pub attempts: usize,
    /// Backoff before the first retry; each further retry waits 5×
    /// longer (10ms, 50ms, 250ms, …).
    pub backoff: Duration,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// Read timeout per response. Must comfortably exceed the longest
    /// GRAPE compile a serve can trigger.
    pub read_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            attempts: 3,
            backoff: Duration::from_millis(10),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(120),
        }
    }
}

/// One worker shard: its address and a cached connection. The mutex
/// serializes calls per shard — one connection per worker keeps the
/// daemon-side correlation trivial, and worker-side parallelism comes
/// from the workers' own pools, not from connection fan-out.
struct Shard {
    addr: String,
    client: Mutex<Option<Client>>,
}

/// The router's [`CallHandler`]: owns the shard connections,
/// and a local front-end [`Session`] (which never compiles — it groups
/// programs, folds latencies, and verifies fetched pulses).
pub struct RouterHandler {
    session: Arc<Session>,
    shards: Vec<Shard>,
    config: RouterConfig,
}

impl RouterHandler {
    /// Builds a router over worker daemons at `shard_addrs`. The shard
    /// count is the address count; the order of addresses IS the shard
    /// numbering and must match the workers' `--data-dir` layout
    /// (`shard-0`, `shard-1`, …) for rebalancing to line up.
    ///
    /// `session` must be configured identically to the workers'
    /// sessions (same topology/grouping), or the router's front end
    /// would disagree with the shards' about group keys.
    ///
    /// # Panics
    ///
    /// Panics when `shard_addrs` is empty (no shard could own a width).
    pub fn new(session: Arc<Session>, shard_addrs: Vec<String>, config: RouterConfig) -> Self {
        assert!(!shard_addrs.is_empty(), "a router needs at least one shard");
        let shards = shard_addrs
            .into_iter()
            .map(|addr| Shard {
                addr,
                client: Mutex::new(None),
            })
            .collect();
        Self {
            session,
            shards,
            config,
        }
    }

    /// The shard that owns groups of `n_qubits` qubits.
    pub fn owner_of(&self, n_qubits: usize) -> usize {
        accqoc::shard_of(n_qubits, self.shards.len())
    }

    /// Runs one client operation against a shard, reconnecting and
    /// retrying with backoff on transport failures. A shard's typed
    /// error answer is returned as-is (no retry); a shard that cannot
    /// be reached within the budget yields `shard_unavailable`.
    ///
    /// Retried operations may execute twice on the shard; every
    /// forwarded call is idempotent (serving is a cache, stats are
    /// reads).
    fn with_shard<T>(
        &self,
        shard: usize,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, WireError> {
        let slot = &self.shards[shard];
        let mut last = String::from("no attempt made");
        for attempt in 0..self.config.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.config.backoff * 5u32.pow(attempt as u32 - 1));
            }
            let mut guard = slot.client.lock().unwrap_or_else(|e| e.into_inner());
            if guard.is_none() {
                match Client::connect_with(
                    slot.addr.as_str(),
                    self.config.connect_timeout,
                    Some(self.config.read_timeout),
                ) {
                    Ok(client) => *guard = Some(client),
                    Err(e) => {
                        last = format!("connect: {e}");
                        continue;
                    }
                }
            }
            let client = guard.as_mut().expect("connected above");
            match op(client) {
                Ok(value) => return Ok(value),
                // A typed answer means the shard is alive and said no —
                // forward its verdict unchanged.
                Err(ClientError::Remote(e)) => return Err(e),
                Err(e) => {
                    // Transport trouble: the connection can no longer be
                    // trusted (a timed-out response may arrive later and
                    // misalign correlation). Drop it and retry fresh.
                    *guard = None;
                    last = e.to_string();
                }
            }
        }
        Err(WireError::new(
            ErrorCode::ShardUnavailable,
            format!(
                "shard {shard} ({}) unavailable after {} attempts: {last}",
                slot.addr,
                self.config.attempts.max(1)
            ),
        ))
    }

    /// Owner shard → the widths it owns, for the unique groups of
    /// `grouped` that pass the caller's own width filter.
    fn widths_by_owner(
        &self,
        grouped: &accqoc::GroupReport,
        only_qubits: Option<&[usize]>,
    ) -> std::collections::BTreeMap<usize, Vec<usize>> {
        let mut widths: Vec<usize> = grouped
            .targets
            .iter()
            .map(|t| t.n_qubits)
            .filter(|w| only_qubits.is_none_or(|allowed| allowed.contains(w)))
            .collect();
        widths.sort_unstable();
        widths.dedup();
        let mut by_owner: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for w in widths {
            by_owner.entry(self.owner_of(w)).or_default().push(w);
        }
        by_owner
    }

    fn serve(
        &self,
        qasm: &str,
        return_pulses: bool,
        only_qubits: Option<&[usize]>,
    ) -> Result<Payload, WireError> {
        let circuit = parse_program(&self.session, qasm)?;
        let grouped = self.session.front_end(&circuit);
        let by_owner = self.widths_by_owner(&grouped, only_qubits);
        if by_owner.is_empty() {
            // Nothing owned anywhere (empty program, or a filter that
            // matches no group): the local session serves it exactly —
            // no group means no compile, so the empty library is fine.
            let options = accqoc::ServeOptions {
                only_qubits: only_qubits.map(<[usize]>::to_vec),
                ..accqoc::ServeOptions::default()
            };
            let report = self
                .session
                .serve_grouped(&grouped, &options)
                .map_err(compile_failure)?;
            return Ok(Payload::Serve {
                report,
                pulses: return_pulses.then(PulseCache::new),
                missing: Vec::new(),
            });
        }

        let mut merged: std::collections::HashMap<UnitaryKey, accqoc::ServedGroup> =
            std::collections::HashMap::new();
        let mut pulses = return_pulses.then(PulseCache::new);
        let mut missing: Vec<UnitaryKey> = Vec::new();
        let mut n_compiled = 0;
        let mut n_warm_started = 0;
        let mut dynamic_iterations = 0;
        let mut covered = 0;
        let mut total = 0;
        for (&shard, widths) in &by_owner {
            let (report, shard_pulses, shard_missing) = self.with_shard(shard, |client| {
                client.serve_program_full(&circuit, return_pulses, Some(widths))
            })?;
            n_compiled += report.n_compiled;
            n_warm_started += report.n_warm_started;
            dynamic_iterations += report.dynamic_iterations;
            covered += report.coverage.covered;
            total += report.coverage.total;
            for group in report.groups {
                merged.insert(group.key.clone(), group);
            }
            if let (Some(cache), Some(shard_pulses)) = (pulses.as_mut(), shard_pulses) {
                cache.merge(shard_pulses);
            }
            missing.extend(shard_missing);
        }
        missing.sort();
        missing.dedup();

        // Re-emit the groups in target order — the order a single
        // process reports — and fold the program-level numbers the
        // shards cannot see.
        let owned = |w: usize| only_qubits.is_none_or(|allowed| allowed.contains(&w));
        let mut groups = Vec::new();
        for target in &grouped.targets {
            if !owned(target.n_qubits) {
                continue;
            }
            match merged.remove(&target.key) {
                Some(group) => groups.push(group),
                None => {
                    return Err(WireError::new(
                        ErrorCode::Internal,
                        format!(
                            "shard {} answered without group {}",
                            self.owner_of(target.n_qubits),
                            accqoc::json::hex_encode(target.key.as_bytes())
                        ),
                    ))
                }
            }
        }
        let (overall_latency_ns, gate_based_latency_ns) = if only_qubits.is_none() {
            let latency_of: std::collections::HashMap<&UnitaryKey, f64> =
                groups.iter().map(|g| (&g.key, g.latency_ns)).collect();
            let overall = self
                .session
                .overall_latency_from(&grouped, |k| latency_of.get(k).copied())
                .map_err(compile_failure)?;
            (overall, self.session.gate_based_latency(&grouped.processed))
        } else {
            // Subset semantics, exactly as a single daemon answers a
            // width-filtered request.
            (0.0, 0.0)
        };
        Ok(Payload::Serve {
            report: ServeReport {
                overall_latency_ns,
                gate_based_latency_ns,
                coverage: accqoc::CoverageStats { covered, total },
                groups,
                n_compiled,
                n_warm_started,
                dynamic_iterations,
            },
            pulses,
            missing,
        })
    }

    fn precompile(
        &self,
        programs: &[String],
        only_qubits: Option<&[usize]>,
    ) -> Result<Payload, WireError> {
        let mut circuits = Vec::with_capacity(programs.len());
        for qasm in programs {
            circuits.push(parse_program(&self.session, qasm)?);
        }
        let mut by_owner: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for circuit in &circuits {
            let grouped = self.session.front_end(circuit);
            for (owner, widths) in self.widths_by_owner(&grouped, only_qubits) {
                let entry = by_owner.entry(owner).or_default();
                entry.extend(widths);
                entry.sort_unstable();
                entry.dedup();
            }
        }
        let mut summary = PrecompileSummary {
            n_programs: circuits.len(),
            n_unique_groups: 0,
            total_iterations: 0,
        };
        for (&shard, widths) in &by_owner {
            let shard_summary =
                self.with_shard(shard, |client| client.precompile(&circuits, Some(widths)))?;
            summary.n_unique_groups += shard_summary.n_unique_groups;
            summary.total_iterations += shard_summary.total_iterations;
        }
        Ok(Payload::Precompile(summary))
    }

    fn verify(&self, qasm: &str) -> Result<Payload, WireError> {
        let circuit = parse_program(&self.session, qasm)?;
        let grouped = self.session.front_end(&circuit);
        // Fetch each shard's owned pulses, then verify locally against
        // the program's reference unitaries — the physics check runs in
        // one place, over exactly the bytes the shards serve.
        let mut fetched = PulseCache::new();
        for (&shard, widths) in &self.widths_by_owner(&grouped, None) {
            let keys: Vec<UnitaryKey> = grouped
                .targets
                .iter()
                .filter(|t| widths.contains(&t.n_qubits))
                .map(|t| t.key.clone())
                .collect();
            let (pulses, _missing) = self.with_shard(shard, |client| client.pulses(&keys))?;
            // Keys a shard no longer holds surface through the local
            // verify below exactly as a single daemon's missing entries
            // would.
            fetched.merge(pulses);
        }
        let fork = self.session.fork();
        fork.library().merge(fetched);
        fork.verify_program(&circuit)
            .map(Payload::Verify)
            .map_err(compile_failure)
    }

    fn stats(&self, ctx: &HandlerContext<'_>) -> Result<Payload, WireError> {
        let mut library = accqoc::LibraryStats::default();
        let mut library_len = 0;
        for shard in 0..self.shards.len() {
            let snapshot = self.with_shard(shard, Client::stats)?;
            library.hits += snapshot.library.hits;
            library.misses += snapshot.library.misses;
            library.warm_compiles += snapshot.library.warm_compiles;
            library.scratch_compiles += snapshot.library.scratch_compiles;
            library.warm_iterations += snapshot.library.warm_iterations;
            library.scratch_iterations += snapshot.library.scratch_iterations;
            library.evictions += snapshot.library.evictions;
            library_len += snapshot.library_len;
        }
        Ok(Payload::Stats(StatsSnapshot {
            library,
            server: ctx.server_counters(),
            library_len,
            queue_depth: ctx.queue_depth(),
        }))
    }

    fn library(&self, limit: usize, offset: usize) -> Result<Payload, WireError> {
        let mut entries: Vec<LibraryEntryInfo> = Vec::new();
        for shard in 0..self.shards.len() {
            let mut shard_offset = 0;
            loop {
                let page = self.with_shard(shard, |client| {
                    client.library(MAX_LIBRARY_LIMIT, shard_offset)
                })?;
                let n = page.entries.len();
                entries.extend(page.entries);
                shard_offset += n;
                if n == 0 || shard_offset >= page.total {
                    break;
                }
            }
        }
        // Hex keys sort exactly as the underlying bytes do, so the
        // merged page order matches a single daemon's.
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let total = entries.len();
        let page = entries.into_iter().skip(offset).take(limit).collect();
        Ok(Payload::Library(LibraryPage {
            total,
            offset,
            limit,
            entries: page,
        }))
    }

    fn pulses(&self, keys: &[UnitaryKey]) -> Result<Payload, WireError> {
        // A key alone does not reveal its width, so ownership cannot be
        // computed: ask every shard, keep what anyone holds.
        let mut found = PulseCache::new();
        for shard in 0..self.shards.len() {
            let (pulses, _missing) = self.with_shard(shard, |client| client.pulses(keys))?;
            found.merge(pulses);
        }
        let mut missing: Vec<UnitaryKey> = keys
            .iter()
            .filter(|k| !found.contains(k))
            .cloned()
            .collect();
        missing.sort();
        missing.dedup();
        Ok(Payload::Pulses {
            pulses: found,
            missing,
        })
    }
}

impl CallHandler for RouterHandler {
    fn handle(&self, id: u64, call: Call, ctx: &HandlerContext<'_>) -> Response {
        let body = match call {
            Call::ServeProgram {
                qasm,
                return_pulses,
                only_qubits,
            } => self.serve(&qasm, return_pulses, only_qubits.as_deref()),
            Call::Precompile {
                programs,
                only_qubits,
            } => self.precompile(&programs, only_qubits.as_deref()),
            Call::VerifyProgram { qasm } => self.verify(&qasm),
            Call::Stats => self.stats(ctx),
            Call::Library { limit, offset } => self.library(limit, offset),
            Call::Pulses { keys } => self.pulses(&keys),
            // The event loop answers shutdown inline; this arm exists
            // for completeness.
            Call::Shutdown => Ok(Payload::Shutdown),
        };
        Response { id, body }
    }

    fn on_shutdown(&self) {
        // One shutdown drains the deployment: forward to every shard,
        // best effort — a dead shard is already shut down.
        for shard in &self.shards {
            let mut guard = shard.client.lock().unwrap_or_else(|e| e.into_inner());
            if guard.is_none() {
                *guard = Client::connect_with(
                    shard.addr.as_str(),
                    self.config.connect_timeout,
                    Some(self.config.connect_timeout),
                )
                .ok();
            }
            if let Some(client) = guard.as_mut() {
                client.shutdown().ok();
            }
            *guard = None;
        }
    }
}

fn compile_failure(e: accqoc::Error) -> WireError {
    WireError::new(ErrorCode::Compile, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use accqoc_hw::Topology;

    fn front_session(qubits: usize) -> Arc<Session> {
        Arc::new(
            Session::builder()
                .topology(Topology::linear(qubits))
                .build()
                .expect("valid session"),
        )
    }

    fn router(shards: usize) -> RouterHandler {
        let addrs = (0..shards)
            .map(|i| format!("127.0.0.1:{}", 49152 + i))
            .collect();
        RouterHandler::new(front_session(3), addrs, RouterConfig::default())
    }

    #[test]
    fn ownership_is_the_width_map() {
        for shards in 1..=4 {
            let r = router(shards);
            for w in 1..=8 {
                assert_eq!(r.owner_of(w), (w - 1) % shards, "width {w}");
            }
        }
    }

    #[test]
    fn malformed_and_over_wide_programs_are_qasm_errors_before_any_shard() {
        // No daemon listens on the shards' ports: each program must fail
        // in the router's own parse, typed, before a shard is called.
        let r = router(3);
        for qasm in [
            "qreg q]x[;",
            "qreg a[18446744073709551615]; qreg b[1];",
            "qreg q[100]; h q[99];",
            "qreg q[1]; qreg q[1]; h q[0];",
        ] {
            let errors = [
                r.serve(qasm, true, None).map(|_| ()),
                r.precompile(&[qasm.to_string()], None).map(|_| ()),
                r.verify(qasm).map(|_| ()),
            ];
            for error in errors {
                let error = error.expect_err(qasm);
                assert_eq!(error.code, ErrorCode::Qasm, "{qasm}: {}", error.message);
            }
        }
    }

    #[test]
    fn dead_shards_yield_a_typed_error_within_the_retry_budget() {
        // A bound-but-never-served port: connects succeed (kernel
        // backlog) but no response ever comes. With tight timeouts the
        // router must answer shard_unavailable, not hang.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let config = RouterConfig {
            attempts: 2,
            backoff: Duration::from_millis(1),
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(100),
        };
        let handler = RouterHandler::new(front_session(2), vec![addr], config);
        let started = std::time::Instant::now();
        let err = handler
            .with_shard(0, Client::stats)
            .expect_err("no daemon answers");
        assert_eq!(err.code, ErrorCode::ShardUnavailable);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failure must be bounded, took {:?}",
            started.elapsed()
        );
    }
}
