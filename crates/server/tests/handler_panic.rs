//! A handler that panics must not take its request, its connection or
//! its worker down with it: the panicking call is answered with a typed
//! `internal` error, later requests on the same connection are answered,
//! the pool keeps its size however many handlers panic, and the daemon
//! still shuts down cleanly. A compile that panics on a thread of the
//! compile executor answers the same way.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use accqoc::LibraryStats;
use accqoc_server::{
    Call, CallHandler, Client, ClientError, ErrorCode, HandlerContext, Payload, Response, Server,
    ServerConfig, StatsSnapshot,
};

/// Panics on `library` calls and answers everything else with stats.
struct PanicsOnLibrary;

impl CallHandler for PanicsOnLibrary {
    fn handle(&self, id: u64, call: Call, ctx: &HandlerContext<'_>) -> Response {
        if let Call::Library { .. } = call {
            panic!("handler bug on a library call");
        }
        Response {
            id,
            body: Ok(Payload::Stats(StatsSnapshot {
                library: LibraryStats::default(),
                server: ctx.server_counters(),
                library_len: 0,
                queue_depth: ctx.queue_depth(),
            })),
        }
    }
}

fn assert_internal(result: Result<accqoc_server::LibraryPage, ClientError>) {
    match result {
        Err(ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Internal, "{e:?}");
            assert!(e.message.contains("handler bug"), "{e:?}");
        }
        other => panic!("expected a typed internal error, got {other:?}"),
    }
}

#[test]
fn panicking_handler_answers_internal_and_keeps_serving() {
    let config = ServerConfig::default();
    let workers = config.workers;
    let server = Server::bind_with_handler(Arc::new(PanicsOnLibrary), "127.0.0.1:0", config)
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // A read timeout turns an unanswered request into a failure, not a
    // hang.
    let timeout = Some(Duration::from_secs(20));
    let mut client = Client::connect_with(addr, Duration::from_secs(5), timeout).expect("connect");

    assert_internal(client.library(1, 0));
    let stats = client.stats().expect("the same connection still answers");
    assert_eq!(stats.server.requests_served, 2);

    // More panics than workers: a worker lost per panic would leave
    // none to answer the stats call below.
    for _ in 0..workers + 1 {
        assert_internal(client.library(1, 0));
    }
    client.stats().expect("the pool survives every panic");

    // The HTTP surface maps the same failure to a 500.
    let mut http = TcpStream::connect(addr).expect("connect");
    http.set_read_timeout(timeout).expect("timeout");
    http.write_all(
        b"GET /library?limit=1&offset=0 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    .expect("write");
    let mut reply = String::new();
    http.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.1 500 "), "{reply}");
    assert!(reply.contains("internal"), "{reply}");

    client.shutdown().expect("shutdown");
    let counters = handle
        .join()
        .expect("run does not re-raise a handler panic")
        .expect("run returns Ok");
    assert_eq!(counters.requests_served, 2 + (workers as u64 + 1) + 1 + 1);
}

/// Serves, on every `library` call, a program of three independent
/// single-qubit groups labelled one qubit too wide, so each compile
/// panics in GRAPE on whichever lane of the compile executor runs it.
struct PanicsInACompile {
    session: accqoc::Session,
}

impl CallHandler for PanicsInACompile {
    fn handle(&self, _id: u64, _call: Call, _ctx: &HandlerContext<'_>) -> Response {
        let program = accqoc_circuit::Circuit::from_gates(
            3,
            [
                accqoc_circuit::Gate::H(0),
                accqoc_circuit::Gate::Rx(1, 0.9),
                accqoc_circuit::Gate::Ry(2, 2.3),
            ],
        );
        let mut grouped = self.session.front_end(&program);
        for target in &mut grouped.targets {
            target.n_qubits += 1;
        }
        let served = self
            .session
            .serve_grouped(&grouped, &accqoc::ServeOptions::default());
        panic!("a mis-sized compile returned: {served:?}");
    }
}

#[test]
fn a_compile_that_panics_on_any_lane_answers_internal() {
    let session = accqoc::Session::builder()
        .topology(accqoc_hw::Topology::linear(3))
        .build()
        .expect("valid session");
    let server = Server::bind_with_handler(
        Arc::new(PanicsInACompile { session }),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let timeout = Some(Duration::from_secs(20));
    let mut client = Client::connect_with(addr, Duration::from_secs(5), timeout).expect("connect");
    for _ in 0..3 {
        match client.library(1, 0) {
            Err(ClientError::Remote(e)) => {
                assert_eq!(e.code, ErrorCode::Internal, "{e:?}");
                assert!(e.message.contains("target dimension"), "{e:?}");
            }
            other => panic!("expected a typed internal error, got {other:?}"),
        }
    }
    client.shutdown().expect("shutdown");
    handle
        .join()
        .expect("run does not re-raise a handler panic")
        .expect("run returns Ok");
}
