//! End-to-end transparency of the sharded tier: a golden + UCCSD stream
//! through a 3-shard deployment (three worker daemons + the router, all
//! over loopback) produces byte-identical serve reports and pulses, and
//! identical library counters summed across shards, versus the
//! in-process `Session::serve_program` path on one session.

use std::sync::Arc;

use accqoc::Session;
use accqoc_circuit::{Circuit, Gate};
use accqoc_hw::Topology;
use accqoc_server::router::{RouterConfig, RouterHandler};
use accqoc_server::{Client, Server, ServerConfig};
use accqoc_workloads::{arrival_stream, uccsd_slice};

const QUBITS: usize = 3;

fn tiny_session() -> Session {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 150;
    Session::builder()
        .topology(Topology::linear(QUBITS))
        .grape(grape)
        .build()
        .expect("valid session")
}

fn boot<H: accqoc_server::CallHandler + Send + 'static>(
    server: Server<H>,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<accqoc_server::ServerCounters>>,
) {
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// A small mixed stream: golden-style fixed programs plus a UCCSD theta
/// sweep (the warm-start workload), with zipf repeats for exact hits.
fn programs() -> Vec<Circuit> {
    let mut programs = vec![
        Circuit::from_gates(QUBITS, [Gate::H(0), Gate::Cx(0, 1), Gate::T(2)]),
        Circuit::from_gates(QUBITS, [Gate::Rz(0, 0.3), Gate::Cx(1, 2), Gate::H(1)]),
        Circuit::from_gates(QUBITS, [Gate::Cx(0, 1), Gate::Rz(2, -0.7), Gate::H(0)]),
    ];
    for (slice, theta) in [(0usize, 0.10f64), (1, 0.14), (0, 0.18)] {
        programs.push(uccsd_slice(QUBITS, slice, theta));
    }
    programs
}

#[test]
fn three_shard_deployment_is_byte_transparent() {
    let programs = programs();
    let stream = arrival_stream(programs.len(), 10, 7);

    // In-process baseline: one session serves the whole stream.
    let baseline = tiny_session();
    let mut base_reports = Vec::new();
    for &i in &stream {
        base_reports.push(baseline.serve_program(&programs[i]).expect("serves"));
    }

    // The deployment: three worker daemons, each with its own (equally
    // configured) session, and the router in front.
    let workers: Vec<Arc<Session>> = (0..3).map(|_| Arc::new(tiny_session())).collect();
    let mut shard_addrs = Vec::new();
    let mut worker_handles = Vec::new();
    for session in &workers {
        let server = Server::bind(Arc::clone(session), "127.0.0.1:0", ServerConfig::default())
            .expect("bind worker");
        let (addr, handle) = boot(server);
        shard_addrs.push(addr.to_string());
        worker_handles.push(handle);
    }
    let handler = Arc::new(RouterHandler::new(
        Arc::new(tiny_session()),
        shard_addrs,
        RouterConfig::default(),
    ));
    let router = Server::bind_with_handler(handler, "127.0.0.1:0", ServerConfig::default())
        .expect("bind router");
    let (router_addr, router_handle) = boot(router);

    // The same stream, in order, through the router: every serve report
    // must be byte-identical to the in-process baseline's.
    let mut client = Client::connect(router_addr).expect("connect router");
    for (&i, expected) in stream.iter().zip(&base_reports) {
        let (report, pulses, missing) = client
            .serve_program_full(&programs[i], true, None)
            .expect("router serves");
        assert!(missing.is_empty(), "unbounded workers never evict");
        assert_eq!(&report, expected, "serve report diverged on program {i}");
        let pulses = pulses.expect("pulses were requested");
        for group in &report.groups {
            assert!(pulses.contains(&group.key), "returned cache misses a group");
        }
    }

    // Verification through the router (fetch pulses from the owners,
    // verify locally) matches verifying against the baseline library.
    for &i in &[stream[0], *stream.last().expect("non-empty stream")] {
        let expected = baseline.verify_program(&programs[i]).expect("verifies");
        let report = client
            .verify_program(&programs[i])
            .expect("router verifies");
        assert_eq!(report, expected, "verify report diverged on program {i}");
    }

    // Aggregates: summed shard counters equal the single-process ones,
    // and the merged library page walks the same key set.
    let stats = client.stats().expect("router stats");
    assert_eq!(stats.library, baseline.library().stats());
    assert_eq!(stats.library_len, baseline.cache_len());
    let page = client.library(500, 0).expect("router library");
    assert_eq!(page.total, baseline.cache_len());
    let mut expected_keys: Vec<String> = baseline
        .cache_snapshot()
        .iter()
        .map(|(k, _)| {
            k.as_bytes()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>()
        })
        .collect();
    expected_keys.sort();
    let merged_keys: Vec<String> = page.entries.iter().map(|e| e.key.clone()).collect();
    assert_eq!(merged_keys, expected_keys, "merged page order diverged");

    // The union of the shard libraries is byte-identical to the
    // baseline library.
    let mut union = accqoc::PulseCache::new();
    for session in &workers {
        union.merge(session.cache_snapshot());
    }
    assert_eq!(union.to_json(), baseline.cache_snapshot().to_json());

    // No shard holds a group another shard also holds (the partition is
    // a partition), and at 3 shards the pinned layout applies: width 1
    // on shard 0, width 2 on shard 2, shard 1 idle.
    let lens: Vec<usize> = workers.iter().map(|s| s.cache_len()).collect();
    assert_eq!(lens.iter().sum::<usize>(), baseline.cache_len());
    assert_eq!(lens[1], 0, "no width routes to shard 1 at 3 shards");
    assert!(lens[0] > 0 && lens[2] > 0, "both active shards compiled");

    // One shutdown through the router drains the whole deployment.
    client.shutdown().expect("shutdown");
    router_handle
        .join()
        .expect("router thread")
        .expect("router ran");
    for handle in worker_handles {
        handle.join().expect("worker thread").expect("worker ran");
    }
}
