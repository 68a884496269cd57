//! Random bytes dribbled into a live daemon: every connection ends in
//! typed error frames or a plain close, within the write timeout, and
//! the daemon keeps serving afterwards.
//!
//! Each frame goes out in chunks of a few bytes over a fresh connection,
//! so the event loop reassembles it from many partial reads, each
//! arriving on its own readiness wake-up. The client then half-closes
//! and reads whatever the daemon answers until it closes the connection.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use accqoc::json;
use accqoc::Session;
use accqoc_hw::Topology;
use accqoc_server::protocol::Response;
use accqoc_server::{Client, ErrorCode, Server, ServerConfig};

/// Fresh connections, each carrying one random frame.
const CONNECTIONS: usize = 48;

/// How long the daemon may take to finish a connection; also its write
/// timeout.
const TIMEOUT: Duration = Duration::from_secs(5);

/// A small deterministic generator (SplitMix64), so a failure replays.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        (0..1 + self.below(max_len))
            .map(|_| self.next() as u8)
            .collect()
    }
}

/// One random frame, in one of four shapes: bare bytes (the protocol is
/// detected from them), a line-protocol frame opener, an HTTP request
/// line with random headers, and an HTTP request with a random body.
fn frame(rng: &mut SplitMix, shape: usize) -> Vec<u8> {
    let raw = rng.bytes(160);
    match shape {
        0 => raw,
        1 => [b"{".as_slice(), &raw, b"\n"].concat(),
        2 => [b"POST /serve HTTP/1.1\r\n".as_slice(), &raw, b"\r\n\r\n"].concat(),
        _ => {
            let head = format!(
                "POST /pulses HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                raw.len()
            );
            [head.as_bytes(), &raw].concat()
        }
    }
}

/// Checks that `answer` holds only typed errors: line-protocol error
/// frames, or HTTP 4xx responses with an `{"error": ...}` body. A
/// connection the daemon reset (it closed with unread client bytes) may
/// end in a cut-off frame; `reset` accepts that tail.
fn only_typed_errors(answer: &[u8], reset: bool) -> Result<(), String> {
    match typed_error_frames(answer) {
        Err(Truncated) if reset => Ok(()),
        Err(Truncated) => Err("the answer ends in a cut-off frame".into()),
        Ok(checked) => checked,
    }
}

/// A frame that ends before its terminator or its body does.
struct Truncated;

fn typed_error_frames(answer: &[u8]) -> Result<Result<(), String>, Truncated> {
    let mut rest = answer;
    while !rest.is_empty() {
        if let Some(after) = rest.strip_prefix(b"HTTP/1.1 ") {
            let head_end = find(after, b"\r\n\r\n").ok_or(Truncated)?;
            let body_start = head_end + 4;
            let head = String::from_utf8_lossy(&after[..head_end]);
            let length = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|n| n.parse::<usize>().ok());
            let Some(length) = length else {
                return Ok(Err(format!("no Content-Length in {head:?}")));
            };
            let body = after
                .get(body_start..body_start + length)
                .ok_or(Truncated)?;
            let status = head.get(..3).unwrap_or_default();
            if !status.starts_with('4') {
                return Ok(Err(format!("HTTP status {status} to random bytes")));
            }
            let body = json::parse(&String::from_utf8_lossy(body));
            let code = body.as_ref().ok().and_then(|body| {
                body.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(|c| c.as_str())
                    .map(str::to_string)
            });
            match code {
                Some(code) if code != ErrorCode::Internal.as_str() => {}
                other => return Ok(Err(format!("not a typed HTTP error: code {other:?}"))),
            }
            rest = &after[body_start + length..];
        } else {
            let end = find(rest, b"\n").ok_or(Truncated)?;
            let line = String::from_utf8_lossy(&rest[..end]);
            match Response::decode(&line).map(|r| r.body) {
                Ok(Err(error)) if error.code != ErrorCode::Internal => {}
                other => return Ok(Err(format!("not a typed error frame: {other:?}"))),
            }
            rest = &rest[end + 1..];
        }
    }
    Ok(Ok(()))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[test]
fn dribbled_random_frames_end_typed_or_closed_and_the_daemon_keeps_serving() {
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .expect("valid session");
    let config = ServerConfig {
        write_timeout: TIMEOUT,
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::new(session), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let mut rng = SplitMix(0xacc0_f022);
    let (mut answered, mut resets) = (0, 0);
    for connection in 0..CONNECTIONS {
        let frame = frame(&mut rng, connection % 4);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(TIMEOUT))
            .expect("read timeout");
        let mut sent = 0;
        while sent < frame.len() {
            let chunk = (1 + rng.below(8)).min(frame.len() - sent);
            // The daemon may close mid-frame after a framing violation;
            // what it answered is still checked below.
            if stream.write_all(&frame[sent..sent + chunk]).is_err() {
                break;
            }
            sent += chunk;
            std::thread::sleep(Duration::from_micros(200));
        }
        stream.shutdown(Shutdown::Write).ok();
        let mut answer = Vec::new();
        let reset = match stream.read_to_end(&mut answer) {
            Ok(_) => false,
            Err(e) => {
                assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "connection {connection}: no close within {TIMEOUT:?} after {frame:?}"
                );
                true
            }
        };
        if let Err(why) = only_typed_errors(&answer, reset) {
            panic!(
                "connection {connection}: {why}; sent {frame:?}, got {:?}",
                String::from_utf8_lossy(&answer)
            );
        }
        answered += usize::from(!answer.is_empty());
        resets += usize::from(reset);
    }
    println!("{CONNECTIONS} connections: {answered} answered with typed errors, {resets} reset");

    let mut client = Client::connect(addr).expect("connect after the fuzz");
    let stats = client.stats().expect("the daemon still answers stats");
    assert!(
        stats.server.protocol_errors > 0,
        "the frames were malformed"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
}
