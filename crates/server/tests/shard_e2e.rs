//! End-to-end transparency of the sharded tier: a golden + UCCSD stream
//! through a 2- and a 3-shard deployment (worker daemons + the router,
//! all over loopback) produces byte-identical serve reports and pulses,
//! and identical library counters summed across shards, versus the
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

/// Serves the stream through an `n_shards` deployment, asserts every
/// answer and aggregate is byte-identical to one in-process session, and
/// returns each shard's library.
fn serve_through_shards(n_shards: usize) -> Vec<accqoc::PulseCache> {
    let programs = programs();
    let stream = arrival_stream(programs.len(), 10, 7);

    // In-process baseline: one session serves the whole stream.
    let baseline = tiny_session();
    let mut base_reports = Vec::new();
    for &i in &stream {
        base_reports.push(baseline.serve_program(&programs[i]).expect("serves"));
    }

    // The deployment: `n_shards` worker daemons, each with its own
    // (equally configured) session, and the router in front.
    let workers: Vec<Arc<Session>> = (0..n_shards).map(|_| Arc::new(tiny_session())).collect();
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
    // baseline library. No shard holds a group another shard also holds
    // (the partition is a partition), and every entry sits on the owner
    // of its width.
    let libraries: Vec<accqoc::PulseCache> = workers.iter().map(|s| s.cache_snapshot()).collect();
    let mut union = accqoc::PulseCache::new();
    for (shard, library) in libraries.iter().enumerate() {
        for (_, entry) in library.iter() {
            assert_eq!(accqoc::shard_of(entry.n_qubits, n_shards), shard);
        }
        union.merge(library.clone());
    }
    assert_eq!(union.to_json(), baseline.cache_snapshot().to_json());
    let total: usize = libraries.iter().map(accqoc::PulseCache::len).sum();
    assert_eq!(total, baseline.cache_len());

    // One shutdown through the router drains the whole deployment.
    client.shutdown().expect("shutdown");
    router_handle
        .join()
        .expect("router thread")
        .expect("router ran");
    for handle in worker_handles {
        handle.join().expect("worker thread").expect("worker ran");
    }
    libraries
}

/// Widths of the entries in one shard's library.
fn widths(library: &accqoc::PulseCache) -> Vec<usize> {
    let mut widths: Vec<usize> = library.iter().map(|(_, e)| e.n_qubits).collect();
    widths.sort_unstable();
    widths.dedup();
    widths
}

#[test]
fn two_shard_deployment_puts_each_served_width_on_its_own_shard() {
    // The stream's widths 1 and 2 land on different shards: both hold
    // entries, and their union is the in-process library (asserted in
    // `serve_through_shards`).
    let libraries = serve_through_shards(2);
    assert_eq!(widths(&libraries[0]), vec![1]);
    assert_eq!(widths(&libraries[1]), vec![2]);
}

#[test]
fn three_shard_deployment_is_byte_transparent() {
    // Width 1 on shard 0, width 2 on shard 1, shard 2 idle.
    let libraries = serve_through_shards(3);
    assert_eq!(widths(&libraries[0]), vec![1]);
    assert_eq!(widths(&libraries[1]), vec![2]);
    assert!(libraries[2].is_empty(), "no width routes to shard 2");
}
