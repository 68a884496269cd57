//! HTTP surface edge cases over a live loopback daemon, mirroring
//! `protocol_edge.rs` for the second wire format: pipelined requests,
//! requests dribbled in over many partial writes, oversized bodies,
//! malformed request lines, format negotiation, pagination, and the two
//! protocols sharing one daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use accqoc::Session;
use accqoc_circuit::{to_qasm, Circuit, Gate};
use accqoc_hw::Topology;
use accqoc_server::{Client, Server, ServerConfig};

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

/// Reads one full HTTP response off the stream: status code, lowercased
/// headers, and the exact `Content-Length` body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status code in `{status_line}`"))
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let length: usize = headers
        .iter()
        .find(|(name, _)| name == "content-length")
        .expect("content-length header")
        .1
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, String::from_utf8(body).expect("utf8 body"))
}

fn shutdown_over_http(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        .expect("write shutdown");
    let mut reader = BufReader::new(stream);
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200, "shutdown must be acknowledged");
}

#[test]
fn stats_with_format_negotiation_on_one_keep_alive_connection() {
    let (addr, handle) = boot(ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(headers.contains(&("content-type".into(), "application/json".into())));
    assert!(headers.contains(&("connection".into(), "keep-alive".into())));
    // Compact: the whole object is one line.
    assert_eq!(body.trim_end().lines().count(), 1, "{body}");
    assert!(body.contains("\"library\""), "{body}");
    assert!(body.contains("\"queue_depth\""), "{body}");

    // Same connection, pretty suffix: indented multi-line body.
    stream
        .write_all(b"GET /stats.pretty HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let (status, _, pretty) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(pretty.trim_end().lines().count() > 5, "{pretty}");

    // And the explicit .json suffix matches the default spelling.
    stream
        .write_all(b"GET /stats.json HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let (status, _, compact) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(compact.trim_end().lines().count(), 1, "{compact}");

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn post_serve_executes_a_program_and_returns_the_report() {
    let (addr, handle) = boot(ServerConfig::default());

    let circuit = Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]);
    let qasm = to_qasm(&circuit).replace('"', "\\\"").replace('\n', "\\n");
    let body = format!("{{\"qasm\": \"{qasm}\", \"return_pulses\": true}}");
    let request = format!(
        "POST /serve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    let (status, _, response) = read_response(&mut reader);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"report\""), "{response}");
    assert!(response.contains("\"overall_latency_ns\""), "{response}");
    assert!(
        response.contains("\"pulses\""),
        "return_pulses was requested: {response}"
    );

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn pipelined_requests_answer_in_request_order() {
    let (addr, handle) = boot(ServerConfig::default());

    // Three requests in one write, no reads in between: responses must
    // come back complete and in order.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /library?limit=5 HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /stats.pretty HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .expect("pipelined write");
    let mut reader = BufReader::new(stream);
    let (s1, _, b1) = read_response(&mut reader);
    let (s2, _, b2) = read_response(&mut reader);
    let (s3, _, b3) = read_response(&mut reader);
    assert_eq!((s1, s2, s3), (200, 200, 200));
    assert!(b1.contains("\"queue_depth\""), "first is stats: {b1}");
    assert!(b2.contains("\"entries\""), "second is library: {b2}");
    assert!(
        b3.trim_end().lines().count() > 5,
        "third is pretty stats: {b3}"
    );

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn requests_split_across_many_partial_writes_still_frame() {
    let (addr, handle) = boot(ServerConfig::default());

    // The request arrives a few bytes at a time — the connection state
    // machine must buffer partial frames across event-loop ticks.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = b"GET /library?limit=2&offset=0 HTTP/1.1\r\nHost: dribble\r\n\r\n";
    for chunk in request.chunks(5) {
        stream.write_all(chunk).expect("partial write");
        stream.flush().expect("flush");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"total\""), "{body}");

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn responses_buffer_when_the_client_reads_late() {
    let (addr, handle) = boot(ServerConfig::default());

    // Queue up many responses without reading any of them: the daemon
    // must buffer under the backpressure and deliver everything once
    // the client finally drains, still in order.
    let mut stream = TcpStream::connect(addr).expect("connect");
    const N: usize = 32;
    for _ in 0..N {
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
            .expect("write");
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut reader = BufReader::new(stream);
    for i in 0..N {
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200, "response {i}");
        assert!(body.contains("\"queue_depth\""), "response {i}: {body}");
    }

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn oversized_body_gets_413_and_the_connection_closes() {
    let (addr, handle) = boot(ServerConfig {
        max_line_bytes: 256,
        ..ServerConfig::default()
    });

    let mut stream = TcpStream::connect(addr).expect("connect");
    // The declared length alone exceeds the cap — the daemon must
    // refuse without waiting for (or reading) the body.
    stream
        .write_all(b"POST /serve HTTP/1.1\r\nContent-Length: 100000\r\n\r\n")
        .expect("write");
    let mut reader = BufReader::new(stream);
    let (status, headers, body) = read_response(&mut reader);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"oversized\""), "{body}");
    assert!(headers.contains(&("connection".into(), "close".into())));
    let mut rest = String::new();
    assert_eq!(
        reader.read_to_string(&mut rest).expect("eof"),
        0,
        "connection must close after a framing violation"
    );

    // The daemon itself keeps serving.
    let mut client = Client::connect(addr).expect("daemon is still up");
    assert!(client.stats().is_ok());
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn malformed_request_line_gets_400_and_the_connection_closes() {
    let (addr, handle) = boot(ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /stats\r\n\r\n")
        .expect("write request line without a version");
    let mut reader = BufReader::new(stream);
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 400, "{body}");
    let mut rest = String::new();
    assert_eq!(reader.read_to_string(&mut rest).expect("eof"), 0);

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn unknown_routes_and_wrong_verbs_keep_the_connection() {
    let (addr, handle) = boot(ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    stream
        .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"not_found\""), "{body}");

    stream
        .write_all(b"GET /serve HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 405, "{body}");
    assert!(body.contains("\"method_not_allowed\""), "{body}");

    // Routing errors leave the stream intact: the same connection still
    // serves a valid request.
    stream
        .write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        .expect("write");
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn library_pagination_pages_the_whole_library_without_overlap() {
    let (addr, handle) = boot(ServerConfig::default());

    // Fill the library through the legacy surface. Each whole 2-qubit
    // circuit collapses into one group, so two distinct programs give
    // two distinct library entries.
    let mut client = Client::connect(addr).expect("connect");
    let programs = [
        Circuit::from_gates(2, [Gate::H(0), Gate::Cx(0, 1)]),
        Circuit::from_gates(2, [Gate::T(0), Gate::Cx(0, 1)]),
    ];
    let summary = client.precompile(&programs, None).expect("precompile");
    assert!(summary.n_unique_groups >= 2, "need at least 2 entries");

    // …then page it out over HTTP, one entry per page.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut seen = Vec::new();
    let mut offset = 0;
    loop {
        stream
            .write_all(
                format!("GET /library?limit=1&offset={offset} HTTP/1.1\r\nHost: x\r\n\r\n")
                    .as_bytes(),
            )
            .expect("write");
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        let page = accqoc::json::parse(&body).expect("page parses");
        let total = page.get("total").and_then(|v| v.as_usize()).expect("total");
        assert_eq!(total, summary.n_unique_groups);
        let entries = page
            .get("entries")
            .and_then(|v| v.as_array().map(|a| a.to_vec()))
            .expect("entries");
        if offset >= total {
            assert!(entries.is_empty(), "past-the-end page must be empty");
            break;
        }
        assert_eq!(entries.len(), 1, "limit=1 cuts one entry per page");
        let key = entries[0]
            .get("key")
            .and_then(|v| v.as_str())
            .expect("entry key")
            .to_string();
        seen.push(key);
        offset += 1;
    }
    assert_eq!(seen.len(), summary.n_unique_groups);
    let mut deduped = seen.clone();
    deduped.sort();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        seen.len(),
        "pages must not overlap: {seen:?}"
    );
    let mut sorted = seen.clone();
    sorted.sort();
    assert_eq!(sorted, seen, "key order makes pagination stable");

    // The legacy client reads the same page the HTTP surface serves.
    let page = client.library(10, 0).expect("library via line protocol");
    assert_eq!(page.total, summary.n_unique_groups);
    let legacy_keys: Vec<_> = page.entries.iter().map(|e| e.key.clone()).collect();
    assert_eq!(legacy_keys, seen);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn non_ascii_pulse_keys_get_400_bad_params_and_the_connection_survives() {
    let (addr, handle) = boot(ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    // `aé0` is 4 bytes: even length, but `é` straddles a byte pair.
    for key in ["aé0", "éé", "zz"] {
        let body = format!("{{\"keys\": [\"{key}\"]}}");
        let request = format!(
            "POST /pulses HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).expect("write");
        let (status, _, response) = read_response(&mut reader);
        assert_eq!(status, 400, "{key}: {response}");
        assert!(response.contains("\"bad_params\""), "{key}: {response}");
    }

    // Same connection, well-formed key: answered (as missing).
    let body = "{\"keys\": [\"00ff\"]}";
    let request = format!(
        "POST /pulses HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let (status, _, response) = read_response(&mut reader);
    assert_eq!(status, 200, "{response}");
    assert!(response.contains("\"missing\": [\"00ff\"]"), "{response}");

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}

#[test]
fn malformed_registers_and_over_wide_programs_get_typed_qasm_errors_on_both_surfaces() {
    // A register whose brackets close before they open, registers whose
    // sizes overflow the qubit count, a program wider than the 2-qubit
    // device, and a register name declared twice (which would otherwise
    // fit the device with `q[0]` naming qubit 1): each is the client's
    // `qasm` error (HTTP 400) on every QASM-carrying call, never a
    // handler panic's `internal`.
    let (addr, handle) = boot(ServerConfig::default());
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    for qasm in [
        "qreg q]x[;",
        "qreg a[18446744073709551615]; qreg b[1];",
        "qreg q[100]; h q[99];",
        "qreg q[1]; qreg q[1]; h q[0];",
    ] {
        let calls = [
            (
                "/serve",
                "serve_program",
                format!(r#"{{"qasm": "{qasm}"}}"#),
            ),
            (
                "/verify",
                "verify_program",
                format!(r#"{{"qasm": "{qasm}"}}"#),
            ),
            (
                "/precompile",
                "precompile",
                format!(r#"{{"programs": ["{qasm}"]}}"#),
            ),
        ];
        for (route, method, params) in calls {
            let request = format!(
                "POST {route} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{params}",
                params.len()
            );
            stream.write_all(request.as_bytes()).expect("write");
            let (status, _, body) = read_response(&mut reader);
            assert_eq!(status, 400, "{route} {qasm}: {body}");
            assert!(body.contains("\"qasm\""), "{route} {qasm}: {body}");

            let mut line = TcpStream::connect(addr).expect("connect");
            let frame = format!(r#"{{"id": 9, "method": "{method}", "params": {params}}}"#);
            line.write_all(frame.as_bytes()).expect("write");
            line.write_all(b"\n").expect("write newline");
            let mut response = String::new();
            BufReader::new(line)
                .read_line(&mut response)
                .expect("read response");
            assert!(
                response.contains("\"ok\": false"),
                "{method} {qasm}: {response}"
            );
            assert!(response.contains("\"qasm\""), "{method} {qasm}: {response}");
        }
    }

    shutdown_over_http(addr);
    handle.join().expect("server thread").expect("clean run");
}
