//! `golden_cold`: an in-process golden `Session` with an empty library
//! serves the golden programs in seed-permuted order. GRAPE-bound.

use std::collections::BTreeMap;
use std::time::Instant;

use accqoc::{GroupReport, ServeOptions, ServeReport, Session, UnitaryFingerprint};
use accqoc_workloads::BenchProgram;

use crate::probes::{self, Exchange};
use crate::programs;
use crate::run::{
    self, counter_metrics, median_slices, recompile_metrics, set_grape_rate, Attribution, EndToEnd,
    Run, RunResult, SETUPS,
};
use crate::stats::{geomean, median, quantile, ratio, Metrics, Outcomes};
use crate::trace::{self, Trace};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One served program of the stream.
struct Served {
    program: BenchProgram,
    grouped: Option<GroupReport>,
    report: ServeReport,
    latency_ms: f64,
    /// Index of the pass (and so of the session) that served it.
    pass: usize,
}

/// A fresh golden session with its gate-duration table calibrated: the
/// lazy set-up the first serve would otherwise pay.
fn setup() -> Result<(Session, f64)> {
    let t = Instant::now();
    let session = programs::session_builder().build()?;
    session.gate_durations();
    Ok((session, t.elapsed().as_secs_f64()))
}

/// Serves one program. Untraced, this is `Session::serve_program`; traced,
/// the same work split into its stages: decompose, map and group in
/// place of `front_end`, then `serve_grouped`.
fn serve(
    session: &Session,
    program: &BenchProgram,
    trace: &mut Trace,
    request: u64,
) -> accqoc::Result<(ServeReport, Option<GroupReport>)> {
    if !trace.enabled() {
        return Ok((session.serve_program(&program.circuit)?, None));
    }
    let root = trace.begin("request", Trace::root(), request);
    let decomposed = trace.time("circuit.decompose", root, request, || {
        session.decompose(&program.circuit)
    });
    let mapped = trace.time("map.map", root, request, || session.map(&decomposed));
    let grouped = trace.time("group.group", root, request, || session.group(&mapped));
    let report = trace.time("library.serve_grouped", root, request, || {
        session.serve_grouped(&grouped, &ServeOptions::default())
    });
    trace.end(root);
    Ok((report?, Some(grouped)))
}

/// One read-only `nearest_by_fingerprint` per miss of `program`, against
/// the library as it stands when the program arrives.
fn retrieval_probe(session: &Session, program: &BenchProgram, trace: &mut Trace) {
    let probe = trace.begin("probe.retrieval", Trace::root(), 0);
    let grouped = session.front_end(&program.circuit);
    let candidates = ServeOptions::default().candidates;
    for target in &grouped.targets {
        if session.cache_contains(&target.key) {
            continue;
        }
        let fingerprint = UnitaryFingerprint::of(&target.unitary, target.n_qubits);
        trace.time("library.nearest_by_fingerprint", probe, 0, || {
            std::hint::black_box(session.library().nearest_by_fingerprint(
                &fingerprint,
                &target.unitary,
                candidates,
                session.config().similarity,
            ))
        });
    }
    trace.end(probe);
}

/// Runs `golden_cold`.
pub fn run(run: &Run) -> Result<RunResult> {
    let programs = programs::golden_cold();
    let mut outcomes = Outcomes::default();
    let mut trace = Trace::new(run.trace, run.epoch);

    let mut setups_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let (session, secs) = setup()?;
        setups_s.push(secs);
        ready = Some(session);
    }

    let mut sessions: Vec<Session> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut stream_s = 0.0;
    let mut pass_s = 0.0;
    let mut request = 0u64;
    // Whole passes, each on a fresh session: as many as fit in the
    // requested time, judging by the last pass, and at least one.
    while sessions.is_empty() || stream_s + pass_s <= run.seconds {
        let pass_start_s = stream_s;
        let pass = sessions.len();
        let session = match ready.take() {
            Some(session) => session,
            None => {
                let (session, secs) = setup()?;
                setups_s.push(secs);
                session
            }
        };
        let mut order = programs.clone();
        programs::shuffle(&mut programs::rng(run.seed, pass as u64), &mut order);
        for program in order {
            request += 1;
            if trace.enabled() {
                retrieval_probe(&session, &program, &mut trace);
            }
            let t = Instant::now();
            let result = serve(&session, &program, &mut trace, request);
            let secs = t.elapsed().as_secs_f64();
            stream_s += secs;
            outcomes.record(result.is_ok(), || format!("{}: serve failed", program.name));
            match result {
                Ok((report, grouped)) => served.push(Served {
                    program,
                    grouped,
                    report,
                    latency_ms: secs * 1e3,
                    pass,
                }),
                Err(e) => eprintln!("perfbench: {}: {e}", program.name),
            }
        }
        sessions.push(session);
        pass_s = stream_s - pass_start_s;
    }
    let peak_rss_mb = crate::stats::peak_rss_mb("self");

    // Untimed checks: every served program verifies against the session
    // that served it, and the library's iteration counters add up to
    // the reports' summed dynamic iterations.
    for s in &served {
        let verdict = sessions[s.pass].verify_program(&s.program.circuit);
        outcomes.record(matches!(&verdict, Ok(v) if v.passed), || {
            format!("{}: verify_program failed: {verdict:?}", s.program.name)
        });
    }
    let stats = sessions.iter().map(|s| s.library().stats()).fold(
        accqoc::LibraryStats::default(),
        |mut acc, s| {
            acc.hits += s.hits;
            acc.misses += s.misses;
            acc.warm_compiles += s.warm_compiles;
            acc.scratch_compiles += s.scratch_compiles;
            acc.warm_iterations += s.warm_iterations;
            acc.scratch_iterations += s.scratch_iterations;
            acc
        },
    );
    let reported: usize = served.iter().map(|s| s.report.dynamic_iterations).sum();
    outcomes.record(
        (stats.warm_iterations + stats.scratch_iterations) as usize == reported,
        || {
            format!(
                "library counts {} + {} iterations, reports sum to {reported}",
                stats.scratch_iterations, stats.warm_iterations
            )
        },
    );

    let mut by_program: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &served {
        by_program
            .entry(s.program.name.as_str())
            .or_default()
            .push(s.report.latency_reduction());
    }
    let reductions: Vec<f64> = by_program.values().map(|v| geomean(v)).collect();
    let latencies_ms: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    let mut result = RunResult::default();
    EndToEnd {
        programs_per_s: served.len() as f64 / stream_s.max(1e-9),
        latencies_ms: &latencies_ms,
        reductions: &reductions,
        setups_s: &setups_s,
        peak_rss_mb,
    }
    .fill(&mut result.end_to_end);
    eprintln!(
        "perfbench: golden_cold served {} programs in {} pass(es): {}",
        served.len(),
        sessions.len(),
        served
            .iter()
            .map(|s| format!("{} {:.2}s", s.program.name, s.latency_ms / 1e3))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if run.trace {
        per_layer(
            run,
            &sessions,
            &served,
            &stats,
            &mut trace,
            &mut result.per_layer,
        );
        result.spans = trace.into_spans();
        run::tracing_overhead(&result.spans, "request", &mut result.per_layer);
        layer_spans(&result.spans, &served, &stats, &mut result.per_layer);
    }
    result.outcomes = outcomes;
    Ok(result)
}

/// The outside-only probes of the traced run.
fn per_layer(
    run: &Run,
    sessions: &[Session],
    served: &[Served],
    stats: &accqoc::LibraryStats,
    trace: &mut Trace,
    metrics: &mut Metrics,
) {
    // Hit path: re-serve every program on the session that compiled it;
    // all groups now hit.
    let mut hit_us_per_group = Vec::new();
    let mut hit_rtt_ms = Vec::new();
    for s in served {
        let session = &sessions[s.pass];
        let probe = trace.begin("probe.hit_replay", Trace::root(), 0);
        let t = Instant::now();
        let grouped = session.front_end(&s.program.circuit);
        let t_lib = Instant::now();
        let report = trace.time("library.serve_grouped", probe, 0, || {
            session.serve_grouped(&grouped, &ServeOptions::default())
        });
        hit_us_per_group.push(t_lib.elapsed().as_secs_f64() * 1e6 / grouped.n_unique() as f64);
        hit_rtt_ms.push(t.elapsed().as_secs_f64() * 1e3);
        trace.end(probe);
        debug_assert!(matches!(report, Ok(r) if r.n_compiled == 0));
    }
    metrics.set("library.hit_us_per_group", median(&hit_us_per_group), "us");
    metrics.set("server.hit_rtt_p99_ms", quantile(&hit_rtt_ms, 0.99), "ms");

    // Re-compile guard: each scratch group again through
    // `compile_unitary(target, n, None)`, the search the serve path ran.
    let mut recompiled = Vec::new();
    for s in served {
        let Some(grouped) = &s.grouped else { continue };
        for g in s
            .report
            .groups
            .iter()
            .filter(|g| !g.hit && g.warm_from.is_none())
        {
            let Some(target) = grouped.targets.iter().find(|t| t.key == g.key) else {
                continue;
            };
            let probe = trace.begin("probe.recompile", Trace::root(), 0);
            let result = trace.time("grape.compile_unitary", probe, 0, || {
                sessions[s.pass].compile_unitary(&target.unitary, target.n_qubits, None)
            });
            trace.end(probe);
            recompiled.push((g.iterations, g.latency_ns, result.ok()));
        }
    }
    recompile_metrics(&recompiled, metrics);

    let model_and_target = served.iter().find_map(|s| {
        let grouped = s.grouped.as_ref()?;
        let target = grouped.targets.iter().find(|t| t.n_qubits == 2)?;
        Some((
            sessions[s.pass].models().for_qubits(2).ok()?.clone(),
            target.unitary.clone(),
        ))
    });
    if let Some((model, target)) = model_and_target {
        let slices = median_slices(
            served.iter().flat_map(|s| s.report.groups.iter()),
            model.dt_ns(),
        );
        let probe = trace.begin("probe.kernels", Trace::root(), 0);
        probes::kernels(&model, &target, slices, metrics);
        trace.end(probe);
    }

    let exchanges: Vec<Exchange> = served
        .iter()
        .map(|s| Exchange {
            weight: 1.0,
            circuit: s.program.circuit.clone(),
            return_pulses: true,
            report: s.report.clone(),
            pulses: Some(program_pulses(&sessions[s.pass], &s.report)),
        })
        .collect();
    let probe = trace.begin("probe.protocol", Trace::root(), 0);
    probes::protocol(&exchanges, metrics);
    trace.end(probe);

    let probe = trace.begin("probe.store", Trace::root(), 0);
    let library = sessions
        .last()
        .map(Session::cache_snapshot)
        .unwrap_or_default();
    probes::store(&run.run_dir, &library, metrics);
    trace.end(probe);

    metrics.set("store.wal_records", 0.0, "count");
    metrics.set("store.snapshots", 0.0, "count");
    metrics.set("server.requests_served", served.len() as f64, "count");
    metrics.set("server.rejected_busy", 0.0, "count");
    metrics.set("server.coalesced_waits", 0.0, "count");
    counter_metrics(stats, metrics);
}

/// The per-layer metrics read off the request-path spans.
fn layer_spans(
    spans: &[trace::Span],
    served: &[Served],
    stats: &accqoc::LibraryStats,
    metrics: &mut Metrics,
) {
    let decompose = run::self_ms(spans, "circuit.decompose", true);
    let map = run::self_ms(spans, "map.map", true);
    let group = run::self_ms(spans, "group.group", true);
    let serve = run::self_ms(spans, "library.serve_grouped", true);
    let unattributed = run::self_ms(spans, "request", true);
    let rtt = run::wall_ms(spans, "request", true);
    metrics.set("circuit.decompose_ms", median(&decompose), "ms");
    metrics.set("map.map_ms", median(&map), "ms");
    metrics.set("group.group_ms", median(&group), "ms");
    let groups: Vec<f64> = served
        .iter()
        .map(|s| s.report.groups.len() as f64)
        .collect();
    metrics.set("group.unique_groups", median(&groups), "count");

    let retrieval = run::self_ms(spans, "library.nearest_by_fingerprint", false);
    metrics.set(
        "library.retrieval_us_per_query",
        median(&retrieval) * 1e3,
        "us",
    );
    metrics.set("library.retrieval_queries", retrieval.len() as f64, "count");

    // Every golden program compiles, so GRAPE time per iteration is the
    // serve time of the whole stream over its iterations.
    let iterations = (stats.scratch_iterations + stats.warm_iterations) as f64;
    let ms_per_iteration = ratio(serve.iter().sum(), iterations);
    set_grape_rate(ms_per_iteration, metrics);

    metrics.set("server.unattributed_p50_ms", median(&unattributed), "ms");
    metrics.set(
        "server.unattributed_p99_ms",
        quantile(&unattributed, 0.99),
        "ms",
    );
    metrics.set("server.write_rtt_p50_ms", median(&rtt), "ms");
    metrics.set("server.write_rtt_p99_ms", quantile(&rtt, 0.99), "ms");
    metrics.set("stream.requests", rtt.len() as f64, "count");
    metrics.set("stream.hit_requests", 0.0, "count");
    metrics.set("stream.write_requests", rtt.len() as f64, "count");

    let front: Vec<f64> = (0..rtt.len())
        .map(|i| decompose[i] + map[i] + group[i])
        .collect();
    Attribution {
        rtt: &rtt,
        front_end: &front,
        library: &serve,
        protocol: &vec![0.0; rtt.len()],
        unattributed: &unattributed,
    }
    .fill(metrics);
}

/// The pulses the daemon would return for `report`.
fn program_pulses(session: &Session, report: &ServeReport) -> accqoc::PulseCache {
    let mut cache = accqoc::PulseCache::new();
    for g in &report.groups {
        if let Some(entry) = session.cached(&g.key) {
            cache.insert(g.key.clone(), entry);
        }
    }
    cache
}
