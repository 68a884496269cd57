//! End-to-end loopback tests of the serving daemon: served pulses are
//! byte-identical to the in-process `Session::serve_program` path,
//! concurrent requests for the same group coalesce into one GRAPE
//! compile, 256 simultaneous connections are all served, and shutdown
//! drains cleanly.

use std::sync::Arc;

use accqoc::Session;
use accqoc_circuit::{Circuit, Gate};
use accqoc_hw::Topology;
use accqoc_server::{Client, Server, ServerConfig};

fn tiny_session() -> Session {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    Session::builder()
        .topology(Topology::linear(2))
        .grape(grape)
        .build()
        .expect("valid session")
}

fn boot(
    session: Arc<Session>,
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<accqoc_server::ServerCounters>>,
) {
    let server = Server::bind(session, "127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

#[test]
fn served_pulses_are_byte_identical_to_in_process_serving() {
    let programs = [
        Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]),
        Circuit::from_gates(2, [Gate::H(0), Gate::T(1), Gate::Cx(0, 1)]),
    ];

    // In-process baseline on a fresh session.
    let baseline = tiny_session();
    let mut baseline_reports = Vec::new();
    for program in &programs {
        baseline_reports.push(baseline.serve_program(program).expect("serves"));
    }

    // The same stream through the daemon, one client, in order.
    let session = Arc::new(tiny_session());
    let (addr, handle) = boot(Arc::clone(&session), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    for (program, expected) in programs.iter().zip(&baseline_reports) {
        let (report, pulses, missing) = client
            .serve_program_full(program, true, None)
            .expect("daemon serves");
        assert!(
            missing.is_empty(),
            "an unbounded library never evicts, so nothing can be missing"
        );
        // Same counters as the in-process path…
        assert_eq!(report.to_json(), expected.to_json(), "reports must agree");
        // …and byte-identical pulses: the returned artifact equals the
        // baseline library's entries for the same keys, via the
        // deterministic PulseCache serialization.
        let pulses = pulses.expect("return_pulses was requested");
        let mut expected_cache = accqoc::PulseCache::new();
        for group in &expected.groups {
            expected_cache.insert(
                group.key.clone(),
                baseline.cached(&group.key).expect("baseline holds the key"),
            );
        }
        assert_eq!(
            pulses.to_json(),
            expected_cache.to_json(),
            "served pulses must be byte-identical to in-process serving"
        );
    }

    // Daemon library state equals the baseline library state.
    assert_eq!(
        session.cache_snapshot().to_json(),
        baseline.cache_snapshot().to_json()
    );

    // verify_program over the wire agrees with the in-process verifier.
    let remote = client.verify_program(&programs[0]).expect("verifies");
    let local = baseline.verify_program(&programs[0]).expect("verifies");
    assert_eq!(remote.to_json(), local.to_json());

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn identical_concurrent_requests_coalesce_into_one_compile() {
    let session = Arc::new(tiny_session());
    let (addr, handle) = boot(
        Arc::clone(&session),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );

    // Two clients request the same (uncached) program at once: the
    // groups must be compiled exactly once, yet both clients get full
    // responses.
    let program = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
    let n_unique = session.front_end(&program).targets.len();
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let program = program.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.serve_program(&program, false).expect("serves")
            })
        })
        .collect();
    let reports: Vec<_> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    // Both clients were answered with the full group set resolved.
    for (report, _) in &reports {
        assert_eq!(report.groups.len(), n_unique);
        assert_eq!(
            report.coverage.total,
            report.coverage.covered + report.n_compiled
        );
    }
    // One compile per unique group across BOTH requests: the library's
    // miss counter is exactly the program's unique-group count.
    let stats = session.library().stats();
    assert_eq!(
        stats.misses as usize, n_unique,
        "same group requested twice must compile once (misses {} vs unique {})",
        stats.misses, n_unique
    );
    assert_eq!(stats.hits as usize, n_unique, "the coalesced request hits");

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let session = Arc::new(tiny_session());
    let (addr, handle) = boot(Arc::clone(&session), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown acknowledged");
    let counters = handle.join().expect("server thread").expect("clean run");
    assert!(counters.connections_accepted >= 1);
    // The listener is gone; a fresh connect must fail (give the OS a
    // moment to tear the socket down).
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "daemon must stop accepting after shutdown"
    );
}

#[test]
fn precompile_then_serve_is_fully_covered() {
    let session = Arc::new(tiny_session());
    let (addr, handle) = boot(Arc::clone(&session), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let program = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
    let summary = client
        .precompile(std::slice::from_ref(&program), None)
        .expect("precompiles");
    assert!(summary.n_unique_groups > 0);
    assert_eq!(summary.n_programs, 1);

    let (report, _) = client.serve_program(&program, false).expect("serves");
    assert_eq!(report.n_compiled, 0, "precompiled program must be all hits");
    assert_eq!(report.coverage.covered, report.coverage.total);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.library_len, summary.n_unique_groups);
    assert!(stats.server.requests_served >= 3);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn capacity_bounded_library_marks_evicted_groups_missing() {
    // A library bounded below the program's unique-group count evicts
    // entries between the serve and the `return_pulses` readback. The
    // response must name those groups in `missing` instead of shipping
    // a silently-short cache.
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    let session = Arc::new(
        Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .library_capacity(1)
            .build()
            .expect("valid session"),
    );
    // Gates on the {0,1} and {1,2} pairs cannot merge into one
    // two-qubit group, so the front end yields at least two targets.
    let program = Circuit::from_gates(3, [Gate::H(0), Gate::Cx(0, 1), Gate::Cx(1, 2)]);
    let n_unique = session.front_end(&program).targets.len();
    assert!(n_unique >= 2, "the program must exceed the capacity of 1");

    let (addr, handle) = boot(Arc::clone(&session), ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let (report, pulses, missing) = client
        .serve_program_full(&program, true, None)
        .expect("daemon serves");
    let pulses = pulses.expect("return_pulses was requested");

    // Everything the report covers is either returned or named missing…
    assert_eq!(report.groups.len(), n_unique);
    assert_eq!(
        pulses.len() + missing.len(),
        n_unique,
        "returned + missing must cover every group"
    );
    assert!(
        !missing.is_empty(),
        "capacity 1 with {n_unique} groups must evict at least one before readback"
    );
    // …with no key in both sets, and every key from the report.
    for key in &missing {
        assert!(
            !pulses.contains(key),
            "a key cannot be both returned and missing"
        );
        assert!(report.groups.iter().any(|g| &g.key == key));
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn shutdown_drains_a_daemon_bound_to_the_wildcard_address() {
    // The old blocking accept loop woke itself with
    // `TcpStream::connect(local_addr)`, which cannot reach 0.0.0.0 —
    // shutdown hung on wildcard binds. The event loop needs no wake
    // hack; this pins that a wildcard-bound daemon drains.
    let session = Arc::new(tiny_session());
    let server = Server::bind(Arc::clone(&session), "0.0.0.0:0", ServerConfig::default())
        .expect("bind wildcard");
    let port = server.local_addr().port();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect via loopback");
    client.stats().expect("daemon serves on the wildcard bind");
    client.shutdown().expect("shutdown acknowledged");
    let counters = handle.join().expect("server thread").expect("clean run");
    assert_eq!(counters.connections_accepted, 1);
}

#[test]
fn refused_connections_count_as_rejected_not_accepted() {
    // The old accept loop bumped `connections_accepted` before checking
    // the limit, so every refusal counted on both sides. Admission now
    // decides which counter moves: exactly one, never both.
    let session = Arc::new(tiny_session());
    let (addr, handle) = boot(
        Arc::clone(&session),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(addr).expect("first connection fills the only slot");
    client.stats().expect("admitted and served");
    {
        use std::io::BufRead;
        let refused = std::net::TcpStream::connect(addr).expect("TCP connect still succeeds");
        let mut frame = String::new();
        std::io::BufReader::new(refused)
            .read_line(&mut frame)
            .expect("refusal frame");
        assert!(frame.contains("\"busy\""), "{frame}");
    }
    client.shutdown().expect("shutdown");
    let counters = handle.join().expect("server thread").expect("clean run");
    assert_eq!(
        counters.connections_accepted, 1,
        "the refused connection must not count as accepted"
    );
    assert_eq!(counters.connections_rejected, 1);
}

#[test]
fn soak_256_simultaneous_connections_each_complete_stats_and_serve() {
    // The event-loop transport must hold N connections open at once,
    // past any thread-per-connection budget.
    // Two barriers make the concurrency exact: no request goes out until
    // every socket is connected, and no socket closes until every
    // request is answered. Every thread reaches both barriers even when
    // a call fails, so a failure is an assertion, not a hang.
    const N: usize = 256;
    let config = ServerConfig {
        workers: 4,
        // Room for every connection's request at once, plus the final
        // shutdown client.
        queue_capacity: N + 8,
        max_connections: N + 8,
        ..ServerConfig::default()
    };
    let (addr, handle) = boot(Arc::new(tiny_session()), config);
    // One shared single-group program: the first serve compiles it, the
    // others coalesce onto that compile or hit the library.
    let program = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
    let all_connected = std::sync::Barrier::new(N);
    let all_answered = std::sync::Barrier::new(N);
    let outcomes: Vec<Result<Client, accqoc_server::ClientError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(|| {
                    let client = Client::connect(addr);
                    all_connected.wait();
                    let outcome = client.map_err(Into::into).and_then(|mut client| {
                        client.stats()?;
                        client.serve_program(&program, false)?;
                        Ok(client)
                    });
                    all_answered.wait();
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    for (i, outcome) in outcomes.into_iter().enumerate() {
        assert!(outcome.is_ok(), "connection {i}: {outcome:?}");
    }

    let mut client = Client::connect(addr).expect("shutdown client connects");
    client.shutdown().expect("shutdown");
    let counters = handle.join().expect("server thread").expect("clean run");
    assert_eq!(
        counters.connections_accepted,
        N as u64 + 1,
        "N soak connections plus the shutdown client"
    );
    assert_eq!(counters.connections_rejected, 0, "refused below the cap");
    assert_eq!(
        counters.requests_rejected_busy, 0,
        "rejected busy with a queue sized for the soak"
    );
}

#[test]
fn concurrent_uccsd_replay_coalesces_and_matches_in_process_bytes() {
    // The parameterized-workload traffic pattern end to end: several
    // clients replay the same UCCSD θ-grid family concurrently. The
    // in-flight coalescing guarantee scales from one group to a whole
    // family — total misses stay exactly the family's unique-group
    // count — and every served artifact is byte-identical to serial
    // in-process serving of the same stream.
    let family = accqoc_workloads::uccsd_family(3, 2, &accqoc_workloads::theta_grid(3));
    let session3 = || {
        let mut grape = accqoc_grape::GrapeOptions::default();
        grape.stop.max_iters = 200;
        Session::builder()
            .topology(Topology::linear(3))
            .grape(grape)
            .build()
            .expect("valid session")
    };

    // Serial in-process baseline: the byte-identity reference.
    let baseline = session3();
    let mut expected = Vec::new();
    for program in &family {
        let report = baseline.serve_program(&program.circuit).expect("serves");
        let mut cache = accqoc::PulseCache::new();
        for group in &report.groups {
            cache.insert(
                group.key.clone(),
                baseline.cached(&group.key).expect("baseline holds the key"),
            );
        }
        expected.push(cache.to_json());
    }
    let n_unique = baseline.library().stats().misses;

    let session = Arc::new(session3());
    let (addr, handle) = boot(
        Arc::clone(&session),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    );
    let replays: Vec<_> = (0..3)
        .map(|_| {
            let family = family.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                family
                    .iter()
                    .map(|p| {
                        let (_, pulses) = client
                            .serve_program(&p.circuit, true)
                            .expect("daemon serves");
                        pulses.expect("return_pulses was requested").to_json()
                    })
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    for handle in replays {
        let served = handle.join().expect("client thread");
        assert_eq!(
            served, expected,
            "daemon servings must be byte-identical to in-process serving"
        );
    }

    // Coalescing across the family: three full replays, one compile per
    // unique group — and the final library equals the baseline's.
    let stats = session.library().stats();
    assert_eq!(
        stats.misses, n_unique,
        "3 concurrent replays must compile each unique group once"
    );
    assert_eq!(
        session.cache_snapshot().to_json(),
        baseline.cache_snapshot().to_json()
    );

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}
