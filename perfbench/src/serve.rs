//! `hot_daemon` and `durable_churn`: the workspace daemon boots from the
//! hot set's data dir and two connections replay a seeded zipf(1.1) mix
//! over the hot set in a closed loop. `durable_churn` makes every 8th
//! request of a connection a novel rotation that misses, compiles, and is
//! WAL-appended; `hot_daemon` asks for pulses back and must hit always.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use accqoc::{PulseCache, ServeOptions, ServeReport, Session, UnitaryFingerprint};
use accqoc_circuit::{to_qasm, Circuit};
use accqoc_server::{Call, Client, Payload, Request, Response};
use accqoc_workloads::{zipf_arrivals, BenchProgram};

use crate::daemon::{copy_dir, Daemon, HotSet};
use crate::probes::{self, Exchange};
use crate::programs::{novel_rotation, rng};
use crate::run::{
    self, counter_metrics, median_slices, recompile_metrics, set_grape_rate, Attribution, EndToEnd,
    Run, RunResult, SETUPS,
};
use crate::stats::{median, quantile, ratio, Metrics, Outcomes};
use crate::trace::{self, Trace};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Client connections of the daemon workloads.
const CLIENTS: u64 = 2;

/// Zipf exponent of the hot-set mix.
const ZIPF_S: f64 = 1.1;

/// Per connection, every `WRITE_EVERY`-th `durable_churn` request is a
/// novel rotation.
const WRITE_EVERY: usize = 8;

/// Novel rotations the traced `hot_daemon` run sends after its stream to
/// time the write path (its stream has none).
const WRITE_PROBES: usize = 8;

/// Request rate `durable_churn` sizes its fixed request count by: about
/// what the seed commit sustains on a 2-core machine.
const CHURN_NOMINAL_RATE: f64 = 320.0;

/// The daemon's default snapshot cadence (`--snapshot-every`).
const SNAPSHOT_EVERY: u64 = 128;

/// What a request asked for.
enum Kind {
    /// A hot-set program, by index.
    Hot(usize),
    /// A novel rotation.
    Novel(BenchProgram),
}

/// One request of the stream.
struct Sample {
    kind: Kind,
    rtt_ms: f64,
    /// Completion time, s after the stream started.
    done_s: f64,
    /// Client-side codec (request encode + response decode), traced only.
    client_codec_ms: f64,
    reply: std::result::Result<(ServeReport, Option<PulseCache>), String>,
}

/// A connection: `accqoc_server::Client` untraced; traced, the same
/// calls spelled out (`Request::encode`, write, read, `Response::decode`)
/// so the codec can be timed on each side of the round trip.
enum Conn {
    Client(Client),
    Raw {
        writer: TcpStream,
        reader: BufReader<TcpStream>,
        next_id: u64,
    },
}

impl Conn {
    fn open(addr: std::net::SocketAddr, traced: bool) -> Result<Self> {
        if !traced {
            return Ok(Conn::Client(Client::connect(addr)?));
        }
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn::Raw {
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Serves `circuit`, returning the reply and the client-side codec
    /// time (ms, traced only).
    fn serve(
        &mut self,
        circuit: &Circuit,
        return_pulses: bool,
        trace: &mut Trace,
        request: u64,
    ) -> (
        std::result::Result<(ServeReport, Option<PulseCache>), String>,
        f64,
    ) {
        let (writer, reader, next_id) = match self {
            Conn::Client(client) => {
                let reply = client
                    .serve_program(circuit, return_pulses)
                    .map_err(|e| e.to_string());
                return (reply, 0.0);
            }
            Conn::Raw {
                writer,
                reader,
                next_id,
            } => (writer, reader, next_id),
        };
        *next_id += 1;
        let root = trace.begin("request", Trace::root(), request);
        let t = Instant::now();
        let line = trace.time("protocol.request_encode", root, request, || {
            Request {
                id: *next_id,
                call: Call::ServeProgram {
                    qasm: to_qasm(circuit),
                    return_pulses,
                    only_qubits: None,
                },
            }
            .encode()
        });
        let encode_ms = t.elapsed().as_secs_f64() * 1e3;
        let wire = trace.begin("server.round_trip", root, request);
        let mut reply = String::new();
        let io = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .and_then(|()| reader.read_line(&mut reply));
        trace.end(wire);
        let t = Instant::now();
        let decoded = trace.time("protocol.response_decode", root, request, || {
            Response::decode(reply.trim_end())
        });
        let codec_ms = encode_ms + t.elapsed().as_secs_f64() * 1e3;
        trace.end(root);
        let result = match (io, decoded) {
            (Err(e), _) => Err(e.to_string()),
            (Ok(0), _) => Err("daemon closed the connection".into()),
            (Ok(_), Err(e)) => Err(e),
            (Ok(_), Ok(response)) => match response.body {
                Ok(Payload::Serve { report, pulses, .. }) => Ok((report, pulses)),
                Ok(other) => Err(format!("serve answered with {}", other.method())),
                Err(e) => Err(e.to_string()),
            },
        };
        (result, codec_ms)
    }
}

/// Boots the daemon `SETUPS` times over `data` (spawn, recovery, first
/// `stats` reply), keeping the last one running.
fn setup(run: &Run, data: &Path) -> Result<(Daemon, Vec<f64>)> {
    let mut setups_s = Vec::new();
    let mut last = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        let daemon = Daemon::spawn(&run.daemon_bin, data)?;
        Client::connect(daemon.addr)?.stats()?;
        setups_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            daemon.shutdown()?;
        } else {
            last = Some(daemon);
        }
    }
    Ok((last.expect("SETUPS > 0"), setups_s))
}

/// One connection's closed loop: until `start + run.seconds` for
/// `hot_daemon`, for a fixed request count for `durable_churn`.
fn client_loop(
    run: &Run,
    hot: &HotSet,
    conn_index: u64,
    mut conn: Conn,
    churn: bool,
    barrier: &Barrier,
    start: &OnceLock<Instant>,
) -> (Vec<Sample>, Vec<trace::Span>) {
    let requests = churn_requests(run.seconds);
    let mix = zipf_arrivals(
        hot.programs.len(),
        if churn { requests } else { 1 << 17 },
        ZIPF_S,
        run.seed.wrapping_mul(CLIENTS) + conn_index,
    );
    let mut rng = rng(run.seed, conn_index);
    let mut trace = Trace::new(run.trace, run.epoch);
    let mut samples = Vec::new();
    barrier.wait();
    let start = *start.get().expect("start set before the barrier");
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let mut i = 0usize;
    while if churn {
        i < requests
    } else {
        Instant::now() < deadline
    } {
        let kind = if churn && i % WRITE_EVERY == WRITE_EVERY - 1 {
            Kind::Novel(novel_rotation(&mut rng))
        } else {
            Kind::Hot(mix[i % mix.len()])
        };
        let circuit = match &kind {
            Kind::Hot(p) => &hot.programs[*p].program.circuit,
            Kind::Novel(p) => &p.circuit,
        };
        let request = conn_index * 1_000_000_000 + i as u64 + 1;
        let t = Instant::now();
        let (reply, client_codec_ms) = conn.serve(circuit, !churn, &mut trace, request);
        let done = Instant::now();
        samples.push(Sample {
            kind,
            rtt_ms: (done - t).as_secs_f64() * 1e3,
            done_s: (done - start).as_secs_f64(),
            client_codec_ms,
            reply,
        });
        i += 1;
    }
    (samples, trace.into_spans())
}

/// Requests per connection of a `durable_churn` run. Its library grows
/// with every write, so the run serves a fixed request count — sized to
/// take about `seconds` at [`CHURN_NOMINAL_RATE`] — rather than a fixed
/// time: library size, compactions and memory are then the same in every
/// run, whatever the machine's speed.
fn churn_requests(seconds: f64) -> usize {
    ((seconds * CHURN_NOMINAL_RATE / CLIENTS as f64).ceil() as usize).max(WRITE_EVERY)
}

/// Runs `hot_daemon` (`churn == false`) or `durable_churn`.
pub fn run(run: &Run, hot: &HotSet, churn: bool) -> Result<RunResult> {
    let data = run.run_dir.join("data");
    copy_dir(&hot.data_dir, &data)?;
    let (daemon, setups_s) = setup(run, &data)?;
    let mut admin = Client::connect(daemon.addr)?;
    // Untimed warm-up: the first serve calibrates the daemon's
    // gate-duration table.
    let warm = admin.serve_program(&hot.programs[0].program.circuit, false)?;
    if warm.0.n_compiled != 0 {
        return Err("warm-up serve of a hot-set program compiled".into());
    }
    let before = admin.stats()?;

    let barrier = Barrier::new(CLIENTS as usize + 1);
    let start = OnceLock::new();
    let conns: Vec<Conn> = (0..CLIENTS)
        .map(|_| Conn::open(daemon.addr, run.trace))
        .collect::<Result<_>>()?;
    let per_client: Vec<(Vec<Sample>, Vec<trace::Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, start) = (&barrier, &start);
                scope.spawn(move || client_loop(run, hot, c as u64, conn, churn, barrier, start))
            })
            .collect();
        start.set(Instant::now()).expect("start set once");
        barrier.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (per_client, mut spans): (Vec<Vec<Sample>>, Vec<Vec<trace::Span>>) =
        per_client.into_iter().unzip();
    let stream_s = per_client
        .iter()
        .flatten()
        .map(|s| s.done_s)
        .fold(0.0, f64::max);
    let after = admin.stats()?;
    let wal_records_now = accqoc_store::replay_wal(&data.join(accqoc::WAL_FILE))?
        .records
        .len() as u64;

    let samples: Vec<Sample> = per_client.into_iter().flatten().collect();
    let mut outcomes = Outcomes::default();
    check_samples(hot, &samples, churn, &mut outcomes);
    verify_programs(hot, &samples, &mut admin, &mut outcomes);

    // The traced hot_daemon times the write path after its stream.
    let mut probe_samples = Vec::new();
    if run.trace && !churn {
        let mut conn = Conn::open(daemon.addr, true)?;
        let mut trace = Trace::new(true, run.epoch);
        let mut rng = rng(run.seed, CLIENTS + 1);
        for _ in 0..WRITE_PROBES {
            let program = novel_rotation(&mut rng);
            let t = Instant::now();
            let (reply, client_codec_ms) = conn.serve(&program.circuit, false, &mut trace, 0);
            probe_samples.push(Sample {
                kind: Kind::Novel(program),
                rtt_ms: t.elapsed().as_secs_f64() * 1e3,
                done_s: 0.0,
                client_codec_ms,
                reply,
            });
        }
        spans.push(trace.into_spans());
    }
    let peak_rss_mb = daemon.peak_rss_mb();
    drop(admin);
    daemon.shutdown()?;

    let latencies_ms: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    let mut result = RunResult::default();
    EndToEnd {
        programs_per_s: samples.iter().filter(|s| s.reply.is_ok()).count() as f64
            / stream_s.max(1e-9),
        latencies_ms: &latencies_ms,
        reductions: &reductions(&samples),
        setups_s: &setups_s,
        peak_rss_mb,
    }
    .fill(&mut result.end_to_end);
    eprintln!(
        "perfbench: {} requests over {} connections in {stream_s:.2} s",
        samples.len(),
        CLIENTS
    );

    if run.trace {
        let stats = diff_stats(&before.library, &after.library);
        let spans = trace::merge(spans);
        let m = &mut result.per_layer;
        counter_metrics(&stats, m);
        m.set(
            "server.requests_served",
            (after.server.requests_served - before.server.requests_served) as f64,
            "count",
        );
        m.set(
            "server.rejected_busy",
            (after.server.requests_rejected_busy - before.server.requests_rejected_busy) as f64,
            "count",
        );
        m.set(
            "server.coalesced_waits",
            (after.server.coalesced_waits - before.server.coalesced_waits) as f64,
            "count",
        );
        // Every compile appends one insert record; each compaction
        // empties the log, so compactions are the records no longer in it.
        m.set("store.wal_records", stats.misses as f64, "count");
        m.set(
            "store.snapshots",
            (stats.misses.saturating_sub(wal_records_now) / SNAPSHOT_EVERY) as f64,
            "count",
        );
        replica_probes(
            run,
            hot,
            &data,
            &samples,
            &probe_samples,
            &mut result.per_layer,
        )?;
        run::tracing_overhead(&spans, "request", &mut result.per_layer);
        result.spans = spans;
    }
    result.outcomes = outcomes;
    Ok(result)
}

/// Checks every reply: no error or refusal; hot-set requests report
/// `n_compiled == 0` and the setup latency, and their pulses (when asked
/// for) are byte-identical to the setup set.
fn check_samples(hot: &HotSet, samples: &[Sample], churn: bool, outcomes: &mut Outcomes) {
    for s in samples {
        match (&s.kind, &s.reply) {
            (_, Err(e)) => outcomes.record(false, || format!("request failed: {e}")),
            (Kind::Hot(p), Ok((report, pulses))) => {
                let expected = &hot.programs[*p];
                let name = &expected.program.name;
                let pulses_ok = churn
                    || pulses
                        .as_ref()
                        .is_some_and(|got| got.to_json() == expected.pulses_json);
                outcomes.record(
                    report.n_compiled == 0
                        && report.overall_latency_ns == expected.overall_latency_ns
                        && pulses_ok,
                    || {
                        format!(
                            "{name}: compiled {} groups, latency {} (setup {}), pulses identical: {pulses_ok}",
                            report.n_compiled, report.overall_latency_ns, expected.overall_latency_ns
                        )
                    },
                );
            }
            (Kind::Novel(_), Ok(_)) => outcomes.record(true, String::new),
        }
    }
}

/// `verify_program` at default options on every distinct program served.
fn verify_programs(hot: &HotSet, samples: &[Sample], client: &mut Client, outcomes: &mut Outcomes) {
    let mut seen_hot = vec![false; hot.programs.len()];
    let mut distinct: Vec<&BenchProgram> = Vec::new();
    for s in samples.iter().filter(|s| s.reply.is_ok()) {
        match &s.kind {
            Kind::Hot(p) if !seen_hot[*p] => {
                seen_hot[*p] = true;
                distinct.push(&hot.programs[*p].program);
            }
            Kind::Novel(program) => distinct.push(program),
            Kind::Hot(_) => {}
        }
    }
    for program in distinct {
        let verdict = client.verify_program(&program.circuit);
        outcomes.record(matches!(&verdict, Ok(v) if v.passed), || {
            format!("{}: verify_program failed: {verdict:?}", program.name)
        });
    }
}

/// Gate-based ÷ pulse latency per distinct program served.
fn reductions(samples: &[Sample]) -> Vec<f64> {
    let mut by_program: BTreeMap<String, f64> = BTreeMap::new();
    for s in samples {
        if let Ok((report, _)) = &s.reply {
            let name = match &s.kind {
                Kind::Hot(p) => format!("hot{p}"),
                Kind::Novel(p) => p.name.clone(),
            };
            by_program.insert(name, report.latency_reduction());
        }
    }
    by_program.into_values().collect()
}

fn diff_stats(before: &accqoc::LibraryStats, after: &accqoc::LibraryStats) -> accqoc::LibraryStats {
    accqoc::LibraryStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        warm_compiles: after.warm_compiles - before.warm_compiles,
        scratch_compiles: after.scratch_compiles - before.scratch_compiles,
        warm_iterations: after.warm_iterations - before.warm_iterations,
        scratch_iterations: after.scratch_iterations - before.scratch_iterations,
        evictions: after.evictions - before.evictions,
    }
}

/// Server-side cost of serving one hot program, replayed in-process on a
/// replica of the daemon's library.
struct ServerSide {
    decompose_ms: f64,
    map_ms: f64,
    group_ms: f64,
    /// `serve_grouped` plus the pulse read-back of the reply.
    library_ms: f64,
    groups: usize,
}

/// The outside-only probes of a traced daemon run, on a replica session
/// recovered from the daemon's data dir after shutdown.
fn replica_probes(
    run: &Run,
    hot: &HotSet,
    data: &Path,
    samples: &[Sample],
    probe_samples: &[Sample],
    metrics: &mut Metrics,
) -> Result<()> {
    let replica_dir = run.run_dir.join("replica");
    copy_dir(data, &replica_dir)?;
    let session = crate::programs::session_builder()
        .persistence(&replica_dir)
        .build()?;
    session.gate_durations();
    let mut trace = Trace::new(true, run.epoch);

    // Front end and hit path per hot program, median of 3 replays.
    let server: Vec<ServerSide> = hot
        .programs
        .iter()
        .map(|p| {
            let reps: Vec<ServerSide> = (0..3)
                .map(|_| replay_server_side(&session, &p.program.circuit, &mut trace))
                .collect();
            ServerSide {
                decompose_ms: median(&reps.iter().map(|r| r.decompose_ms).collect::<Vec<_>>()),
                map_ms: median(&reps.iter().map(|r| r.map_ms).collect::<Vec<_>>()),
                group_ms: median(&reps.iter().map(|r| r.group_ms).collect::<Vec<_>>()),
                library_ms: median(&reps.iter().map(|r| r.library_ms).collect::<Vec<_>>()),
                groups: reps[0].groups,
            }
        })
        .collect();

    // Codec on the run's own requests and replies: one exchange per hot
    // program weighted by its request count, one for the novel writes.
    let mut counts = vec![0usize; hot.programs.len()];
    let mut first: Vec<Option<&Sample>> = vec![None; hot.programs.len()];
    let mut novel: Vec<&Sample> = Vec::new();
    for s in samples.iter().filter(|s| s.reply.is_ok()) {
        match &s.kind {
            Kind::Hot(p) => {
                counts[*p] += 1;
                first[*p].get_or_insert(s);
            }
            Kind::Novel(_) => novel.push(s),
        }
    }
    let exchange = |s: &Sample, weight: f64| {
        let (report, pulses) = s.reply.as_ref().expect("filtered to replies");
        let circuit = match &s.kind {
            Kind::Hot(p) => hot.programs[*p].program.circuit.clone(),
            Kind::Novel(p) => p.circuit.clone(),
        };
        Exchange {
            weight,
            circuit,
            return_pulses: pulses.is_some(),
            report: report.clone(),
            pulses: pulses.clone(),
        }
    };
    let mut exchanges = Vec::new();
    let mut exchange_of = vec![usize::MAX; hot.programs.len()];
    for (p, s) in first.iter().enumerate() {
        if let Some(s) = s {
            exchange_of[p] = exchanges.len();
            exchanges.push(exchange(s, counts[p] as f64));
        }
    }
    if let Some(s) = novel.first() {
        exchanges.push(exchange(s, novel.len() as f64));
    }
    let probe = trace.begin("probe.protocol", Trace::root(), 0);
    let codec = probes::protocol(&exchanges, metrics);
    trace.end(probe);

    // Attribution of each hit round trip.
    let (mut rtt, mut front, mut library, mut protocol, mut unattributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut decompose, mut map, mut group, mut hit_us, mut groups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in samples.iter().filter(|s| s.reply.is_ok()) {
        let Kind::Hot(p) = s.kind else { continue };
        let side = &server[p];
        let c = &codec[exchange_of[p]];
        let fe = side.decompose_ms + side.map_ms + side.group_ms;
        let proto = s.client_codec_ms + (c.request_side_ns + c.response_encode_ns) / 1e6;
        rtt.push(s.rtt_ms);
        front.push(fe);
        library.push(side.library_ms);
        protocol.push(proto);
        unattributed.push(s.rtt_ms - fe - side.library_ms - proto);
        decompose.push(side.decompose_ms);
        map.push(side.map_ms);
        group.push(side.group_ms);
        hit_us.push(side.library_ms * 1e3 / side.groups.max(1) as f64);
        groups.push(side.groups as f64);
    }
    Attribution {
        rtt: &rtt,
        front_end: &front,
        library: &library,
        protocol: &protocol,
        unattributed: &unattributed,
    }
    .fill(metrics);
    metrics.set("circuit.decompose_ms", median(&decompose), "ms");
    metrics.set("map.map_ms", median(&map), "ms");
    metrics.set("group.group_ms", median(&group), "ms");
    metrics.set("group.unique_groups", median(&groups), "count");
    metrics.set("library.hit_us_per_group", median(&hit_us), "us");
    metrics.set("server.unattributed_p50_ms", median(&unattributed), "ms");
    metrics.set(
        "server.unattributed_p99_ms",
        quantile(&unattributed, 0.99),
        "ms",
    );
    metrics.set("server.hit_rtt_p99_ms", quantile(&rtt, 0.99), "ms");

    // Write path: the stream's novel rotations, or the write probes.
    let writes: Vec<&Sample> = samples
        .iter()
        .chain(probe_samples)
        .filter(|s| matches!(s.kind, Kind::Novel(_)) && s.reply.is_ok())
        .collect();
    let write_rtt: Vec<f64> = writes.iter().map(|s| s.rtt_ms).collect();
    metrics.set("server.write_rtt_p50_ms", median(&write_rtt), "ms");
    metrics.set("server.write_rtt_p99_ms", quantile(&write_rtt, 0.99), "ms");
    metrics.set("stream.requests", samples.len() as f64, "count");
    metrics.set("stream.hit_requests", rtt.len() as f64, "count");
    metrics.set(
        "stream.write_requests",
        samples
            .iter()
            .filter(|s| matches!(s.kind, Kind::Novel(_)))
            .count() as f64,
        "count",
    );

    // Retrieval: one nearest_by_fingerprint per write's group.
    let candidates = ServeOptions::default().candidates;
    let probe = trace.begin("probe.retrieval", Trace::root(), 0);
    let mut retrieval_us = Vec::new();
    let mut recompiled = Vec::new();
    let mut recompile_ms = 0.0;
    for s in &writes {
        let (Kind::Novel(program), Ok((report, _))) = (&s.kind, &s.reply) else {
            continue;
        };
        let grouped = session.front_end(&program.circuit);
        for target in &grouped.targets {
            let fingerprint = UnitaryFingerprint::of(&target.unitary, target.n_qubits);
            let t = Instant::now();
            trace.time("library.nearest_by_fingerprint", probe, 0, || {
                std::hint::black_box(session.library().nearest_by_fingerprint(
                    &fingerprint,
                    &target.unitary,
                    candidates,
                    session.config().similarity,
                ))
            });
            retrieval_us.push(t.elapsed().as_secs_f64() * 1e6);
            // Re-compile guard on the scratch-served groups.
            if let Some(g) = report
                .groups
                .iter()
                .find(|g| g.key == target.key && !g.hit && g.warm_from.is_none())
            {
                let t = Instant::now();
                let result = session.compile_unitary(&target.unitary, target.n_qubits, None);
                recompile_ms += t.elapsed().as_secs_f64() * 1e3;
                recompiled.push((g.iterations, g.latency_ns, result.ok()));
            }
        }
    }
    trace.end(probe);
    metrics.set(
        "library.retrieval_us_per_query",
        median(&retrieval_us),
        "us",
    );
    metrics.set(
        "library.retrieval_queries",
        retrieval_us.len() as f64,
        "count",
    );
    recompile_metrics(&recompiled, metrics);

    // Kernels at dim 4 and the stream's median feasible slice count.
    let served_groups = first
        .iter()
        .flatten()
        .filter_map(|s| s.reply.as_ref().ok())
        .flat_map(|(report, _)| report.groups.iter());
    let model = session.models().for_qubits(2)?.clone();
    let slices = median_slices(served_groups, model.dt_ns());
    let target = hot
        .programs
        .iter()
        .find_map(|p| {
            session
                .front_end(&p.program.circuit)
                .targets
                .into_iter()
                .find(|t| t.n_qubits == 2)
        })
        .ok_or("hot set has no two-qubit group")?;
    let probe = trace.begin("probe.kernels", Trace::root(), 0);
    probes::kernels(&model, &target.unitary, slices, metrics);
    trace.end(probe);
    let iterations: usize = recompiled
        .iter()
        .filter_map(|(_, _, r)| r.as_ref())
        .map(|r| r.total_iterations)
        .sum();
    set_grape_rate(ratio(recompile_ms, iterations as f64), metrics);

    let probe = trace.begin("probe.store", Trace::root(), 0);
    probes::store(&run.run_dir, &session.cache_snapshot(), metrics);
    trace.end(probe);
    Ok(())
}

/// One in-process replay of what the daemon does for a hit request.
fn replay_server_side(session: &Session, circuit: &Circuit, trace: &mut Trace) -> ServerSide {
    let probe = trace.begin("probe.server_replay", Trace::root(), 0);
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e3
    };
    let mut decomposed = None;
    let decompose_ms = timed(&mut || decomposed = Some(session.decompose(circuit)));
    let mut mapped = None;
    let map_ms = timed(&mut || mapped = Some(session.map(decomposed.as_ref().expect("ran"))));
    let mut grouped = None;
    let group_ms = timed(&mut || grouped = Some(session.group(mapped.as_ref().expect("ran"))));
    let grouped = grouped.expect("ran");
    let library_ms = timed(&mut || {
        let report = session
            .serve_grouped(&grouped, &ServeOptions::default())
            .expect("replica serves its own hot set");
        let mut cache = PulseCache::new();
        for g in &report.groups {
            if let Some(entry) = session.cached(&g.key) {
                cache.insert(g.key.clone(), entry);
            }
        }
        std::hint::black_box(cache);
    });
    trace.end(probe);
    ServerSide {
        decompose_ms,
        map_ms,
        group_ms,
        library_ms,
        groups: grouped.n_unique(),
    }
}
