//! Protocol framing edge cases over a live loopback daemon: truncated
//! frames, oversized request lines, unknown methods, malformed JSON, and
//! clients that disconnect mid-request. Every case must produce a typed
//! error response (when a response is possible at all) and must leave
//! the daemon serving subsequent connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use accqoc::Session;
use accqoc_hw::Topology;
use accqoc_server::{Client, ErrorCode, Server, ServerConfig};

/// Boots a daemon on an ephemeral port with a tiny 2-qubit session and
/// returns its address plus the join handle of the serving thread.
fn boot(
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<accqoc_server::ServerCounters>>,
) {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = 200;
    let session = Arc::new(
        Session::builder()
            .topology(Topology::linear(2))
            .grape(grape)
            .build()
            .expect("valid session"),
    );
    let server = Server::bind(session, "127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn raw_request(addr: std::net::SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    response.trim_end().to_string()
}

fn assert_error_code(response: &str, expected: &str) {
    assert!(
        response.contains(&format!("\"{expected}\"")),
        "expected `{expected}` error, got: {response}"
    );
    assert!(response.contains("\"ok\": false"), "{response}");
}

#[test]
fn framing_violations_get_typed_errors_and_daemon_stays_up() {
    let (addr, handle) = boot(ServerConfig::default());

    // Malformed JSON → typed error, connection stays usable for the
    // next (valid) frame.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"{this is not json\n").expect("write");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        assert_error_code(response.trim_end(), "malformed_json");
        // Same connection still serves valid requests.
        stream
            .write_all(b"{\"id\": 5, \"method\": \"stats\"}\n")
            .expect("write");
        response.clear();
        reader.read_line(&mut response).expect("read");
        assert!(response.contains("\"ok\": true"), "{response}");
        assert!(response.contains("\"id\": 5"), "{response}");
    }

    // Unknown method → typed error echoing the salvaged id.
    let response = raw_request(addr, r#"{"id": 41, "method": "frobnicate"}"#);
    assert_error_code(&response, "unknown_method");
    assert!(response.contains("\"id\": 41"), "{response}");

    // Missing params → typed error.
    let response = raw_request(addr, r#"{"id": 42, "method": "serve_program"}"#);
    assert_error_code(&response, "bad_params");

    // Bad QASM inside valid framing → typed qasm error from the worker.
    let response = raw_request(
        addr,
        r#"{"id": 43, "method": "serve_program", "params": {"qasm": "qreg q[1]; warp q[0];"}}"#,
    );
    assert_error_code(&response, "qasm");

    // Truncated frame: a client sends half a request and hangs up.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(br#"{"id": 44, "method": "sta"#)
            .expect("write partial");
        drop(stream); // no newline ever arrives
    }

    // Client disconnects mid-request: request admitted, client gone
    // before the response lands. The daemon must absorb the dead socket.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"{\"id\": 45, \"method\": \"stats\"}\n")
            .expect("write");
        drop(stream); // vanish without reading the response
    }

    // The daemon survived all of the above and still answers.
    let mut client = Client::connect(addr).expect("daemon is still up");
    let stats = client.stats().expect("stats still served");
    assert!(
        stats.server.protocol_errors >= 2,
        "malformed + unknown + bad-params + truncated frames must be counted, got {}",
        stats.server.protocol_errors
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn oversized_request_line_is_rejected_and_connection_closed() {
    let (addr, handle) = boot(ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    let huge = vec![b'x'; 4096];
    stream.write_all(&huge).expect("write oversized");
    stream.write_all(b"\n").expect("newline");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read");
    assert_error_code(response.trim_end(), "oversized");
    // The daemon closes the offending connection…
    response.clear();
    assert_eq!(reader.read_line(&mut response).expect("eof"), 0);
    // …but keeps serving new ones.
    let mut client = Client::connect(addr).expect("daemon is still up");
    assert!(client.stats().is_ok());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn connection_limit_refusal_is_typed_busy() {
    let (addr, handle) = boot(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    // Fill the only slot with an idle connection…
    let parked = TcpStream::connect(addr).expect("first connection");
    std::thread::sleep(std::time::Duration::from_millis(100));
    // …so the next connection is refused with an id-0 `busy` frame
    // before it sends anything (read it raw — writing first would race
    // the server-side close).
    {
        let refused = TcpStream::connect(addr).expect("TCP connect still succeeds");
        let mut reader = BufReader::new(refused);
        let mut frame = String::new();
        reader.read_line(&mut frame).expect("refusal frame");
        let response = accqoc_server::Response::decode(frame.trim_end()).expect("refusal decodes");
        assert_eq!(response.id, 0);
        match response.body {
            Err(e) => assert_eq!(e.code, ErrorCode::Busy, "{e}"),
            Ok(p) => panic!("expected busy refusal, got {p:?}"),
        }
    }
    // Freeing the slot lets a new client in (give the reader a poll tick
    // to notice the EOF and decrement the connection count).
    drop(parked);
    let mut client = loop {
        std::thread::sleep(std::time::Duration::from_millis(60));
        let mut candidate = Client::connect(addr).expect("connect");
        if candidate.stats().is_ok() {
            break candidate;
        }
    };
    client.shutdown().expect("shutdown");
    let counters = handle.join().expect("server thread").expect("clean run");
    assert!(counters.connections_rejected >= 1);
}

#[test]
fn client_surfaces_id_zero_refusals_as_remote_errors() {
    // A stub daemon that answers any first request with the id-0 `busy`
    // refusal frame the real accept loop emits at the connection limit:
    // the typed error must reach the caller as Remote(Busy), not as an
    // id-correlation protocol error.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("stub accepts");
        let mut request = String::new();
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut request)
            .expect("stub reads the request");
        let refusal =
            accqoc_server::Response::failure(0, ErrorCode::Busy, "connection limit reached (1)");
        stream
            .write_all(format!("{}\n", refusal.encode()).as_bytes())
            .expect("stub writes refusal");
    });
    let mut client = Client::connect(addr).expect("connect to stub");
    match client.stats() {
        Err(accqoc_server::ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Busy, "{e}");
        }
        other => panic!("expected Remote(Busy), got {other:?}"),
    }
    stub.join().expect("stub thread");
}

#[test]
fn client_surfaces_future_response_ids_as_typed_mismatch_without_wedging() {
    // A stub daemon that answers the first request with an id the
    // client never sent, then answers the second request correctly: the
    // client must surface a typed MismatchedId — not a stringly
    // protocol error — and the connection must stay usable.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("stub accepts");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("first request");
        let bogus = accqoc_server::Response {
            id: 999,
            body: Ok(accqoc_server::Payload::Shutdown),
        };
        stream
            .write_all(format!("{}\n", bogus.encode()).as_bytes())
            .expect("stub writes a future id");
        request.clear();
        reader.read_line(&mut request).expect("second request");
        let correct = accqoc_server::Response {
            id: 2,
            body: Ok(accqoc_server::Payload::Shutdown),
        };
        stream
            .write_all(format!("{}\n", correct.encode()).as_bytes())
            .expect("stub answers correctly");
    });
    let mut client = Client::connect(addr).expect("connect to stub");
    match client.shutdown() {
        Err(accqoc_server::ClientError::MismatchedId { expected, got }) => {
            assert_eq!((expected, got), (1, 999));
        }
        other => panic!("expected MismatchedId, got {other:?}"),
    }
    // Not wedged: the next call on the same connection succeeds.
    client
        .shutdown()
        .expect("the connection survives a mismatched id");
    stub.join().expect("stub thread");
}

#[test]
fn client_drains_stale_response_ids_and_keeps_its_correlation() {
    // A stub that answers request 2 with a duplicate of response 1
    // first: the stale frame is drained silently and the real answer
    // still correlates.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("stub accepts");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("first request");
        let first = accqoc_server::Response {
            id: 1,
            body: Ok(accqoc_server::Payload::Shutdown),
        };
        stream
            .write_all(format!("{}\n", first.encode()).as_bytes())
            .expect("answer 1");
        request.clear();
        reader.read_line(&mut request).expect("second request");
        // A stale duplicate of the first answer, then the real one.
        let second = accqoc_server::Response {
            id: 2,
            body: Ok(accqoc_server::Payload::Shutdown),
        };
        stream
            .write_all(format!("{}\n{}\n", first.encode(), second.encode()).as_bytes())
            .expect("stale then real");
    });
    let mut client = Client::connect(addr).expect("connect to stub");
    client.shutdown().expect("first call");
    client
        .shutdown()
        .expect("stale frame drained, real answer correlated");
    stub.join().expect("stub thread");
}

#[test]
fn full_admission_queue_rejects_with_busy() {
    // queue_capacity 0 admits nothing: every request is an immediate
    // typed `busy` rejection, yet shutdown (handled by the connection
    // thread, not the pool) still drains the daemon.
    let (addr, handle) = boot(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    match client.stats() {
        Err(accqoc_server::ClientError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Busy, "{e}");
        }
        other => panic!("expected busy rejection, got {other:?}"),
    }
    client
        .shutdown()
        .expect("shutdown works on a saturated daemon");
    let counters = handle.join().expect("server thread").expect("clean run");
    assert!(counters.requests_rejected_busy >= 1);
}

#[test]
fn non_ascii_pulse_keys_get_bad_params_and_daemon_keeps_serving() {
    let (addr, handle) = boot(ServerConfig::default());

    // `aé0` is 4 bytes: even length, but `é` straddles the second byte
    // pair. Decoded on the event-loop thread, so a panic here would take
    // the whole daemon down instead of answering.
    for key in ["aé0", "éé", "0é", "zz"] {
        let line = format!(r#"{{"id": 7, "method": "pulses", "params": {{"keys": ["{key}"]}}}}"#);
        let response = raw_request(addr, &line);
        assert_error_code(&response, "bad_params");
        assert!(response.contains("\"id\": 7"), "{response}");
    }

    // A well-formed key on the same daemon still answers (as missing).
    let response = raw_request(
        addr,
        r#"{"id": 8, "method": "pulses", "params": {"keys": ["00ff"]}}"#,
    );
    assert!(response.contains("\"ok\": true"), "{response}");
    assert!(response.contains("\"missing\": [\"00ff\"]"), "{response}");

    let mut client = Client::connect(addr).expect("daemon is still up");
    assert!(client.stats().is_ok());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}
