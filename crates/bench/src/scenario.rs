//! One scenario harness for the serving gates: each arrival stream is
//! served in process once, and every deployment shape paired with it
//! must reproduce that baseline byte for byte.
//!
//! The paper's §V claim is that one pulse library serves every program
//! that comes after it. [`run`] checks that the claim survives
//! deployment: replayed through the daemon, through a sharded router
//! over real worker subprocesses, or across a crash of a durable
//! session, a [`Stream`] must get back the pulse bytes and latencies
//! [`Session::serve_program`] returns on one session ([`compare`]), and
//! clear its warm-start gates. Writes `results/scenarios.csv` (one row
//! per scenario, phase, client and arrival) and `BENCH_persist.json`
//! (the restart scenario's recovery numbers).

use std::io::{BufRead, BufReader, Read};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use accqoc::json::JsonValue;
use accqoc::{
    caches_equivalent, LibraryStats, PersistOptions, PulseCache, ServeReport, Session,
    SessionBuilder,
};
use accqoc_circuit::Circuit;
use accqoc_hw::Topology;
use accqoc_server::{
    Client, ClientError, ErrorCode, RouterConfig, RouterHandler, Server, ServerConfig,
};
use accqoc_workloads::{
    golden_suite, theta_grid, uccsd_family, zipf_arrivals, DEFAULT_GRID_POINTS,
};

use crate::write_csv;

/// GRAPE iteration cap of every serving scenario (see
/// [`crate::golden::golden_session`] for why the corpus differs).
const MAX_ITERS: usize = 300;

/// Device width: a 5-qubit linear chain holds every golden and UCCSD
/// program.
const QUBITS: usize = 5;

/// Worker daemons behind the router.
const SHARDS: usize = 3;

/// The router's kill/restart pass takes down the shard owning this
/// group width.
const VICTIM_WIDTH: usize = 2;

/// Restart scenario: arrivals served before the mid-stream checkpoint.
const PRE_CHECKPOINT: usize = 2;

/// Restart scenario: arrivals served before the simulated crash, so the
/// ones past [`PRE_CHECKPOINT`] live only in the write-ahead log.
const PRE_CRASH: usize = 3;

/// Register width of the UCCSD family.
pub const UCCSD_QUBITS: usize = 4;

/// UCCSD ansatz depth: slices per program.
pub const UCCSD_SLICES: usize = 3;

/// Zipf exponent of the UCCSD arrival stream — slightly hotter than the
/// rank-weighted default, so re-arrivals (exact hits) show up alongside
/// the warm misses.
pub const ZIPF_EXPONENT: f64 = 1.1;

/// UCCSD arrival-stream seed.
const STREAM_SEED: u64 = 0x0CC5;

/// CSV header of [`cells`].
pub const HEADER: [&str; 11] = [
    "scenario",
    "phase",
    "client",
    "arrival",
    "program",
    "coverage",
    "compiled",
    "warm",
    "iterations",
    "latency_reduction",
    "identical",
];

/// The session every serving scenario runs on: 5-qubit linear device,
/// 300-iteration GRAPE cap, stock similarity and warm-start config. The
/// router's worker daemons are spawned with the same flags.
pub fn serving_builder() -> SessionBuilder {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = MAX_ITERS;
    Session::builder()
        .topology(Topology::linear(QUBITS))
        .grape(grape)
}

/// How a stream is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// [`Session::serve_program`] on one session: the baseline itself.
    InProcess,
    /// One in-process daemon on loopback, `clients` concurrent
    /// connections each sending the whole stream in order. In-flight
    /// coalescing compiles each group once, against the same library
    /// prefix the sequential baseline saw.
    Daemon {
        /// Concurrent client connections.
        clients: usize,
    },
    /// A consistent-hash router over three `daemon` subprocesses with
    /// durable stores, one client; then the owner of width 2 is killed
    /// and restarted from its data dir, and the replay pass is served
    /// again.
    Router,
    /// A durable session checkpoints after 2 arrivals, crashes after 3,
    /// and a fresh session recovers and serves the rest.
    Restart,
}

impl Shape {
    fn label(self) -> String {
        match self {
            Self::InProcess => "in-process".into(),
            Self::Daemon { clients } => format!("daemon-x{clients}"),
            Self::Router => format!("router-x{SHARDS}"),
            Self::Restart => "restart".into(),
        }
    }
}

/// An arrival stream and the gates it carries.
pub struct Stream {
    /// Stream name, the first half of every scenario name.
    pub name: &'static str,
    /// `(program name, circuit)` in arrival order.
    pub programs: Vec<(String, Circuit)>,
    /// Minimum warm-start share of compiles. A stream that compiles
    /// nothing scores 0 and fails it too.
    pub warm_share_floor: f64,
    /// First arrival of a replay pass that must be served entirely from
    /// the library, if the stream has one.
    pub replay_from: Option<usize>,
    /// The deployment shapes this stream is gated on.
    pub shapes: &'static [Shape],
}

impl Stream {
    /// The golden suite served twice. The floor sits just under the
    /// measured 0.520 (26 of 50 compiles), the workload's intrinsic
    /// similarity budget: a broken fingerprint index or warm-start gate
    /// drops the share to 0, and losing a couple of neighbors trips it.
    pub fn golden() -> Self {
        let suite = golden_suite();
        Self {
            name: "golden",
            programs: suite
                .iter()
                .chain(&suite)
                .map(|p| (p.name.clone(), p.circuit.clone()))
                .collect(),
            warm_share_floor: 0.50,
            replay_from: Some(suite.len()),
            shapes: &[
                Shape::InProcess,
                Shape::Daemon { clients: 2 },
                Shape::Router,
                Shape::Restart,
            ],
        }
    }

    /// The UCCSD θ-grid family at the default grid density as zipf
    /// arrivals. Adjacent grid points are nearly identical unitaries, so
    /// nearly every compile past the first warm-starts: the measured
    /// share is 0.825 (33 of 40), far above the golden suite's.
    pub fn uccsd() -> Self {
        Self {
            name: "uccsd",
            programs: uccsd_programs(DEFAULT_GRID_POINTS),
            warm_share_floor: 0.80,
            replay_from: None,
            shapes: &[
                Shape::InProcess,
                Shape::Daemon { clients: 1 },
                Shape::Daemon { clients: 2 },
            ],
        }
    }
}

/// The zipf arrival stream over a `points`-point θ-grid UCCSD family:
/// two arrivals per grid point on average, so re-arrivals exercise exact
/// hits while fresh grid points exercise warm misses.
pub fn uccsd_programs(points: usize) -> Vec<(String, Circuit)> {
    let family = uccsd_family(UCCSD_QUBITS, UCCSD_SLICES, &theta_grid(points));
    zipf_arrivals(family.len(), family.len() * 2, ZIPF_EXPONENT, STREAM_SEED)
        .into_iter()
        .map(|i| (family[i].name.clone(), family[i].circuit.clone()))
        .collect()
}

/// One served arrival.
#[derive(Debug, Clone)]
pub struct Served {
    /// Phase of the scenario that served it.
    pub phase: &'static str,
    /// Client connection index (0 for single-client shapes).
    pub client: usize,
    /// Index into the stream.
    pub arrival: usize,
    /// The serving report.
    pub report: ServeReport,
    /// The served groups' pulses, serialized deterministically: the
    /// byte-identity unit of comparison.
    pub artifact: String,
}

/// Serves the `arrivals` of `programs` in order through `serve`, which
/// returns each report and its pulse artifact.
fn replay(
    programs: &[(String, Circuit)],
    arrivals: Range<usize>,
    phase: &'static str,
    client: usize,
    mut serve: impl FnMut(&Circuit) -> (ServeReport, String),
) -> Vec<Served> {
    let served = arrivals.map(|arrival| {
        let (report, artifact) = serve(&programs[arrival].1);
        Served {
            phase,
            client,
            arrival,
            report,
            artifact,
        }
    });
    served.collect()
}

/// In-process serving. The artifact reads the report's groups back from
/// the library; a capacity-bounded library can evict a group served
/// earlier in the same program first, and the artifact then holds the
/// surviving entries. The gated scenarios run unbounded.
fn in_process(session: &Session) -> impl FnMut(&Circuit) -> (ServeReport, String) + '_ {
    |circuit| {
        let report = session.serve_program(circuit).expect("stream serves");
        let mut cache = PulseCache::new();
        for group in &report.groups {
            if let Some(entry) = session.cached(&group.key) {
                cache.insert(group.key.clone(), entry);
            }
        }
        (report, cache.to_json())
    }
}

/// Serving over one client connection, pulses returned.
fn remote(client: &mut Client) -> impl FnMut(&Circuit) -> (ServeReport, String) + '_ {
    |circuit| {
        let (report, pulses) = client
            .serve_program(circuit, true)
            .expect("deployment serves");
        (report, pulses.map_or_else(String::new, |p| p.to_json()))
    }
}

/// Serves `programs` in order on `session`, recording each arrival's
/// report and pulse artifact.
pub fn serve_in_process(session: &Session, programs: &[(String, Circuit)]) -> Vec<Served> {
    replay(programs, 0..programs.len(), "serve", 0, in_process(session))
}

/// Compares one arrival served by a deployment against the in-process
/// baseline's serving of the same arrival. Pulse bytes and overall
/// latency must always match. `full_report` also requires every
/// [`ServeReport`] field to match; it is set for the single-client
/// router only, since a coalesced multi-client reply legitimately
/// reports no compiles for a group another client compiled.
///
/// # Errors
///
/// Names the scenario, client, arrival and the first difference found.
pub fn compare(
    scenario: &str,
    expected: &Served,
    got: &Served,
    full_report: bool,
) -> Result<(), String> {
    let difference = if got.artifact != expected.artifact {
        "pulse artifact"
    } else if got.report.overall_latency_ns != expected.report.overall_latency_ns {
        "overall latency"
    } else if full_report && got.report != expected.report {
        "serve report"
    } else {
        return Ok(());
    };
    Err(format!(
        "{scenario}: client {} arrival {} ({}): {difference} differs from in-process serving",
        got.client, got.arrival, got.phase
    ))
}

/// One CSV row, aligned with [`HEADER`]; `identical` is `None` where
/// there is no baseline to compare against.
pub fn cells(
    scenario: &str,
    program: &str,
    served: &Served,
    identical: Option<bool>,
) -> Vec<String> {
    let report = &served.report;
    vec![
        scenario.to_string(),
        served.phase.to_string(),
        served.client.to_string(),
        served.arrival.to_string(),
        program.to_string(),
        format!("{:.3}", report.coverage.rate()),
        report.n_compiled.to_string(),
        report.n_warm_started.to_string(),
        report.dynamic_iterations.to_string(),
        format!("{:.2}", report.latency_reduction()),
        identical.map_or_else(|| "-".into(), |b| b.to_string()),
    ]
}

/// Runs every scenario and returns the failures; an empty list means
/// every gate held.
pub fn run() -> Vec<String> {
    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for stream in [Stream::golden(), Stream::uccsd()] {
        let session = serving_builder().build().expect("serving session is valid");
        let baseline = Baseline {
            served: serve_in_process(&session, &stream.programs),
            stats: session.library().stats(),
            snapshot: session.cache_snapshot().to_json(),
            len: session.cache_len(),
        };
        for &shape in stream.shapes {
            let mut scenario = Scenario {
                name: format!("{}/{}", stream.name, shape.label()),
                stream: &stream,
                baseline: &baseline,
                failures: Vec::new(),
            };
            println!("{}", scenario.name);
            let served = match shape {
                Shape::InProcess => {
                    scenario.warm_start_gates(&baseline.stats);
                    baseline.served.clone()
                }
                Shape::Daemon { clients } => scenario.daemon(clients),
                Shape::Router => scenario.router(),
                Shape::Restart => scenario.restart(),
            };
            let mut mismatched = 0;
            for s in &served {
                let verdict = compare(
                    &scenario.name,
                    &baseline.served[s.arrival],
                    s,
                    shape == Shape::Router,
                );
                if let Err(failure) = &verdict {
                    mismatched += 1;
                    scenario.failures.push(failure.clone());
                }
                if stream.replay_from.is_some_and(|r| s.arrival >= r) && s.report.n_compiled > 0 {
                    scenario.fail(format!(
                        "client {} arrival {} ({}): replay compiled {} groups instead of hitting the library",
                        s.client, s.arrival, s.phase, s.report.n_compiled
                    ));
                }
                let program = &stream.programs[s.arrival].0;
                rows.push(cells(&scenario.name, program, s, Some(verdict.is_ok())));
            }
            println!(
                "  {} responses, {mismatched} differ from in-process serving",
                served.len()
            );
            failures.append(&mut scenario.failures);
        }
    }
    write_csv("scenarios.csv", &HEADER, &rows).ok();
    failures
}

/// A stream's in-process serving: the reference every shape meets.
struct Baseline {
    served: Vec<Served>,
    stats: LibraryStats,
    snapshot: String,
    len: usize,
}

/// One stream × shape pairing in flight.
struct Scenario<'a> {
    name: String,
    stream: &'a Stream,
    baseline: &'a Baseline,
    failures: Vec<String>,
}

impl Scenario<'_> {
    fn fail(&mut self, failure: String) {
        self.failures.push(format!("{}: {failure}", self.name));
    }

    /// The stream's warm-share floor, and warm compiles cheaper than
    /// scratch ones on mean GRAPE iterations.
    fn warm_start_gates(&mut self, stats: &LibraryStats) {
        let (share, floor) = (stats.warm_share(), self.stream.warm_share_floor);
        let (warm, scratch) = (
            stats.mean_warm_iterations(),
            stats.mean_scratch_iterations(),
        );
        println!(
            "  compiles {} ({} warm / {} scratch), warm share {share:.3} (floor {floor}), mean GRAPE iterations warm {warm:.1} vs scratch {scratch:.1}",
            stats.misses, stats.warm_compiles, stats.scratch_compiles,
        );
        if share < floor {
            self.fail(format!(
                "warm-start share {share:.3} below the floor {floor}"
            ));
        }
        if warm >= scratch {
            self.fail(format!(
                "warm compiles not cheaper than scratch ({warm:.1} vs {scratch:.1} mean iterations)"
            ));
        }
    }

    fn daemon(&mut self, clients: usize) -> Vec<Served> {
        let session = Arc::new(serving_builder().build().expect("daemon session"));
        let server = Server::bind(Arc::clone(&session), "127.0.0.1:0", ServerConfig::default())
            .expect("bind loopback");
        let addr = server.local_addr();
        let server_thread = std::thread::spawn(move || server.run());
        let programs = &self.stream.programs;
        let served = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|client| {
                    scope.spawn(move || {
                        let mut connection = Client::connect(addr).expect("client connects");
                        replay(
                            programs,
                            0..programs.len(),
                            "serve",
                            client,
                            remote(&mut connection),
                        )
                    })
                })
                .collect();
            let served = handles
                .into_iter()
                .map(|h| h.join().expect("client thread"));
            served.flatten().collect()
        });
        let mut client = Client::connect(addr).expect("stats client connects");
        let stats = client.stats().expect("stats").library;
        client.shutdown().expect("shutdown");
        server_thread
            .join()
            .expect("server thread")
            .expect("server ran cleanly");

        self.warm_start_gates(&stats);
        if session.cache_snapshot().to_json() != self.baseline.snapshot {
            self.fail("final library snapshot diverged from the in-process artifact".into());
        }
        if stats.misses != self.baseline.stats.misses {
            self.fail(format!(
                "compiled {} groups, the in-process baseline {} (coalescing broken?)",
                stats.misses, self.baseline.stats.misses
            ));
        }
        served
    }

    fn router(&mut self) -> Vec<Served> {
        let programs = &self.stream.programs;
        let replay_from = self
            .stream
            .replay_from
            .expect("the kill/restart pass re-serves the stream's replay pass");
        let exe = std::env::current_exe().expect("own path");
        let daemon = exe.with_file_name(format!("daemon{}", std::env::consts::EXE_SUFFIX));
        assert!(
            daemon.exists(),
            "worker binary not found at {} — build it first (`cargo build --release -p accqoc-server --bin daemon`)",
            daemon.display()
        );
        let data_base = std::env::temp_dir().join(format!("accqoc-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_base);
        let data_dir = |shard: usize| data_base.join(format!("shard-{shard}"));
        let mut workers: Vec<Worker> = (0..SHARDS)
            .map(|shard| Worker::spawn(&daemon, "127.0.0.1:0", &data_dir(shard)))
            .collect();
        let shard_addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
        let handler = Arc::new(RouterHandler::new(
            Arc::new(serving_builder().build().expect("router session")),
            shard_addrs.clone(),
            RouterConfig {
                attempts: 2,
                backoff: Duration::from_millis(10),
                connect_timeout: Duration::from_millis(500),
                ..RouterConfig::default()
            },
        ));
        let victim = handler.owner_of(VICTIM_WIDTH);
        let router = Server::bind_with_handler(handler, "127.0.0.1:0", ServerConfig::default())
            .expect("bind router");
        let router_addr = router.local_addr();
        let router_thread = std::thread::spawn(move || router.run());
        let mut client = Client::connect(router_addr).expect("connect router");

        let mut served = replay(programs, 0..programs.len(), "serve", 0, remote(&mut client));
        let stats = client.stats().expect("router stats");
        self.warm_start_gates(&stats.library);
        let baseline = self.baseline;
        if stats.library != baseline.stats || stats.library_len != baseline.len {
            self.fail(format!(
                "summed shard counters ({:?}, {} entries) diverged from the in-process baseline ({:?}, {} entries)",
                stats.library, stats.library_len, baseline.stats, baseline.len
            ));
        }

        // Kill the width-2 owner: the router must answer with a typed
        // error within its retry budget, never hang.
        workers[victim].child.kill().expect("kill shard");
        workers[victim].child.wait().expect("reap shard");
        let started = Instant::now();
        match client.serve_program(&programs[0].1, false) {
            Err(ClientError::Remote(wire)) if wire.code == ErrorCode::ShardUnavailable => println!(
                "  shard {victim} killed: typed shard_unavailable in {:?}",
                started.elapsed()
            ),
            other => self.fail(format!(
                "expected shard_unavailable with shard {victim} down, got {other:?}"
            )),
        }
        // Restarted from its data dir, the shard must serve the replay
        // pass from its recovered library without compiling anything.
        workers[victim] = Worker::spawn(&daemon, &shard_addrs[victim], &data_dir(victim));
        let arrivals = replay_from..programs.len();
        served.extend(replay(
            programs,
            arrivals,
            "post-restart",
            0,
            remote(&mut client),
        ));
        let shard = Client::connect(&*workers[victim].addr)
            .expect("connect restarted shard")
            .stats()
            .expect("shard stats");
        println!(
            "  shard {victim} restarted: {} entries recovered",
            shard.library_len
        );
        let (scratch, warm) = (shard.library.scratch_compiles, shard.library.warm_compiles);
        if scratch != 0 || warm != 0 {
            self.fail(format!(
                "restarted shard {victim} recompiled persisted groups ({scratch} scratch, {warm} warm)"
            ));
        }

        // Drain the whole deployment through the router.
        client.shutdown().expect("shutdown");
        router_thread
            .join()
            .expect("router thread")
            .expect("router ran cleanly");
        for worker in &mut workers {
            let status = worker.child.wait().expect("worker exits");
            assert!(status.success(), "worker exited with {status}");
            worker.stdout.read_to_string(&mut String::new()).ok();
        }
        let _ = std::fs::remove_dir_all(&data_base);
        served
    }

    fn restart(&mut self) -> Vec<Served> {
        let programs = &self.stream.programs;
        let data_dir = std::env::temp_dir().join(format!("accqoc-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        // Auto-compaction off, so the WAL suffix past the checkpoint
        // survives the crash.
        let options = PersistOptions::new(&data_dir).snapshot_every(0);
        let live = serving_builder()
            .persistence_with(options.clone())
            .build()
            .expect("live durable session");
        assert_eq!(
            live.recovery_report().map(|r| r.entries),
            Some(0),
            "a fresh data dir cold-starts empty"
        );
        let mut served = replay(programs, 0..PRE_CHECKPOINT, "live", 0, in_process(&live));
        live.checkpoint().expect("mid-stream checkpoint");
        let wal_only = PRE_CHECKPOINT..PRE_CRASH;
        served.extend(replay(programs, wal_only, "live", 0, in_process(&live)));
        let pre_crash = live.cache_snapshot();
        let pre_crash_indexed = live.library().indexed_len();
        drop(live); // the crash: no shutdown checkpoint, the WAL suffix stays on disk

        let started = Instant::now();
        let recovered = serving_builder()
            .persistence_with(options)
            .build()
            .expect("recovery");
        let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
        let report = recovered
            .recovery_report()
            .cloned()
            .expect("a durable session has a recovery report");
        let snapshot = recovered.cache_snapshot();
        if snapshot.to_json() != pre_crash.to_json() {
            self.fail("recovered snapshot is not byte-identical to the pre-crash snapshot".into());
        }
        let equivalence = caches_equivalent(recovered.models(), &pre_crash, &snapshot, 1e-9, 1e-9)
            .expect("equivalence oracle runs");
        if !equivalence.equivalent() {
            self.fail("recovered cache not semantically equivalent to the pre-crash cache".into());
        }
        let indexed = recovered.library().indexed_len();
        if indexed != pre_crash_indexed {
            self.fail(format!(
                "fingerprint index not restored ({indexed} indexed, pre-crash {pre_crash_indexed})"
            ));
        }
        let rest = PRE_CRASH..programs.len();
        let after = replay(programs, rest, "recovered", 0, in_process(&recovered));
        let scratch_recompiles = after
            .iter()
            .flat_map(|s| &s.report.groups)
            .filter(|g| !g.hit && g.warm_from.is_none() && pre_crash.contains(&g.key))
            .count();
        served.extend(after);
        if scratch_recompiles > 0 {
            self.fail(format!(
                "{scratch_recompiles} persisted groups were recompiled from scratch after recovery"
            ));
        }
        if recovered.cache_snapshot().to_json() != self.baseline.snapshot {
            self.fail("final recovered library artifact diverged from the baseline's".into());
        }
        let _ = std::fs::remove_dir_all(&data_dir);

        println!(
            "  recovered {} entries ({} indexed) in {recovery_ms:.1} ms = snapshot {} + {} WAL records",
            report.entries, report.indexed, report.snapshot_entries, report.wal_records,
        );
        let identical = served
            .iter()
            .filter(|s| compare("", &self.baseline.served[s.arrival], s, false).is_ok())
            .count();
        let wal_replay_rate = if recovery_ms > 0.0 {
            report.wal_records as f64 / (recovery_ms / 1e3)
        } else {
            0.0
        };
        let number = |key: &str, value: f64| (key.to_string(), JsonValue::Number(value));
        let bench = JsonValue::Object(vec![
            number("recovery_ms", recovery_ms),
            number("snapshot_entries", report.snapshot_entries as f64),
            number("wal_records", report.wal_records as f64),
            number("wal_replay_records_per_s", wal_replay_rate),
            number("recovered_entries", report.entries as f64),
            number("recovered_indexed", report.indexed as f64),
            number("scratch_recompiles_of_persisted", scratch_recompiles as f64),
            number("byte_identical_rows", identical as f64),
            number("rows", served.len() as f64),
        ]);
        std::fs::write("BENCH_persist.json", bench.to_pretty() + "\n").ok();
        served
    }
}

/// A worker daemon subprocess. The stdout reader stays alive for the
/// daemon's lifetime so its shutdown message never hits a closed pipe.
struct Worker {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Worker {
    fn spawn(daemon: &Path, addr: &str, data_dir: &Path) -> Self {
        let mut child = Command::new(daemon)
            .args(["--addr", addr, "--qubits", &QUBITS.to_string()])
            .args(["--max-iters", &MAX_ITERS.to_string(), "--data-dir"])
            .arg(data_dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn worker daemon");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("worker stdout");
            assert!(n > 0, "worker exited before announcing its address");
            if let Some(rest) = line.strip_prefix("accqoc-server listening on ") {
                break rest.split_whitespace().next().expect("address").into();
            }
        };
        Self {
            child,
            stdout,
            addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::OnceLock;

    use accqoc_circuit::Gate;

    /// A one-group program served twice in process: a compile, then an
    /// exact hit.
    fn baseline() -> &'static [Served] {
        static SERVED: OnceLock<Vec<Served>> = OnceLock::new();
        SERVED.get_or_init(|| {
            let session = serving_builder().build().expect("valid session");
            let bell = (
                "bell".to_string(),
                Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]),
            );
            serve_in_process(&session, &[bell.clone(), bell])
        })
    }

    #[test]
    fn artifact_latency_and_single_client_report_changes_are_flagged() {
        let expected = &baseline()[1];
        type Change = (fn(&mut Served), bool, &'static str);
        let changes: [Change; 8] = [
            (flip_one_artifact_byte, false, "pulse artifact"),
            (
                |s| s.report.overall_latency_ns += 1.0,
                false,
                "overall latency",
            ),
            (
                |s| s.report.gate_based_latency_ns += 1.0,
                true,
                "serve report",
            ),
            (|s| s.report.coverage.covered += 1, true, "serve report"),
            (|s| s.report.groups[0].hit ^= true, true, "serve report"),
            (|s| s.report.n_compiled += 1, true, "serve report"),
            (|s| s.report.n_warm_started += 1, true, "serve report"),
            (|s| s.report.dynamic_iterations += 1, true, "serve report"),
        ];
        for (change, full_report, what) in changes {
            let mut got = expected.clone();
            change(&mut got);
            let message = compare("golden/router-x3", expected, &got, full_report).expect_err(what);
            assert!(message.starts_with("golden/router-x3: "), "{message}");
            assert!(message.contains("arrival 1"), "{message}");
            assert!(message.contains(what), "{message}");
        }
        assert_eq!(
            compare("golden/router-x3", expected, expected, true),
            Ok(())
        );
    }

    fn flip_one_artifact_byte(served: &mut Served) {
        let at = served
            .artifact
            .find(|c: char| c.is_ascii_digit())
            .expect("a number");
        let flipped = if &served.artifact[at..=at] == "1" {
            "2"
        } else {
            "1"
        };
        served.artifact.replace_range(at..=at, flipped);
    }

    #[test]
    fn a_coalesced_reply_with_a_different_compile_count_is_accepted() {
        // Another client compiled the group; this one waited on it.
        let expected = &baseline()[0];
        assert_eq!(expected.report.n_compiled, 1, "the first arrival compiles");
        let mut coalesced = expected.clone();
        coalesced.client = 1;
        coalesced.report.n_compiled = 0;
        coalesced.report.dynamic_iterations = 0;
        assert_eq!(
            compare("golden/daemon-x2", expected, &coalesced, false),
            Ok(())
        );
    }
}
