//! Never-panic properties for the daemon's decoders: arbitrary text —
//! multi-byte characters, control bytes, JSON punctuation — and near-miss
//! frames that embed it into otherwise valid requests must decode to
//! `Ok` or a typed error, never a panic. Every frame decoder here runs on
//! the event-loop thread, where a panic takes the whole daemon down; the
//! QASM parser runs on a worker, where a panic answers `internal` instead
//! of the typed `qasm` error. The raw-byte properties feed both wire
//! surfaces what a socket can deliver, invalid UTF-8 included.

use accqoc::json;
use accqoc_circuit::parse_qasm;
use accqoc_server::http::{self, HttpParse};
use accqoc_server::protocol::{DecodeError, Request, Response};
use accqoc_server::ErrorCode;
use proptest::prelude::*;

/// Characters the generator draws from: JSON punctuation and escapes,
/// hex digits, whitespace and control bytes, and 2-, 3- and 4-byte
/// UTF-8 characters.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', 'u', 'n', 't', 'r', 'e', 'f', 'l', 's', 'a', 'b',
    'c', 'd', '0', '1', '9', '-', '+', '.', 'E', ' ', '\n', '\r', '\t', '\u{0}', '\u{1f}',
    '\u{7f}', 'é', 'ü', 'ß', '日', '本', '€', '\u{fffd}', '🦀', '𝄞',
];

fn text(max_len: usize) -> impl Strategy<Value = String> {
    collection::vec(0..ALPHABET.len(), 0..max_len)
        .prop_map(|idx| idx.into_iter().map(|i| ALPHABET[i]).collect())
}

/// `text`, wrapped so it sits in a JSON string slot: half the time
/// verbatim (possibly breaking the frame), half the time escaped the way
/// a well-behaved client would.
fn slot(max_len: usize) -> impl Strategy<Value = String> {
    (text(max_len), 0u8..2).prop_map(|(s, escape)| {
        if escape == 1 {
            let quoted = json::JsonValue::String(s).to_compact();
            quoted[1..quoted.len() - 1].to_string()
        } else {
            s
        }
    })
}

/// QASM fragments the QASM generator draws from besides [`ALPHABET`]:
/// statement keywords, gate names, register syntax, angle-expression
/// tokens, and sizes at the edge of `usize`.
const QASM_TOKENS: &[&str] = &[
    "qreg ",
    "creg ",
    "OPENQASM 2.0",
    "include \"qelib1.inc\"",
    "measure ",
    "barrier ",
    "q",
    "a",
    "[",
    "]",
    "(",
    ")",
    ";",
    ",",
    " ",
    "\n",
    "//",
    "->",
    "0",
    "1",
    "2",
    "9",
    "18446744073709551615",
    "h ",
    "x ",
    "cx ",
    "ccx ",
    "rz",
    "u3",
    "swap ",
    "pi",
    "-",
    "+",
    "*",
    "/",
    ".",
    "e",
    "1e400",
];

fn qasm_text(max_len: usize) -> impl Strategy<Value = String> {
    let n = QASM_TOKENS.len() + ALPHABET.len();
    collection::vec(0..n, 0..max_len).prop_map(|idx| {
        idx.into_iter()
            .map(|i| match QASM_TOKENS.get(i) {
                Some(token) => (*token).to_string(),
                None => ALPHABET[i - QASM_TOKENS.len()].to_string(),
            })
            .collect()
    })
}

/// Arbitrary bytes, `0x80`–`0xFF` included, so most draws are not UTF-8.
fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    collection::vec((0u16..256).prop_map(|b| b as u8), 0..max_len)
}

fn typed_decode_error(
    decoded: Result<Request, DecodeError>,
    input: &dyn std::fmt::Debug,
) -> Result<(), String> {
    match decoded {
        Ok(_) => Ok(()),
        Err(e) => match e.error.code {
            ErrorCode::MalformedJson | ErrorCode::BadParams | ErrorCode::UnknownMethod => Ok(()),
            other => Err(format!(
                "unexpected decode error class {other:?} for {input:?}"
            )),
        },
    }
}

fn typed_request_error(line: &str) -> Result<(), String> {
    typed_decode_error(Request::decode(line), &line)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics(s in text(64)) {
        let _ = json::parse(&s);
    }

    #[test]
    fn parse_qasm_never_panics(s in qasm_text(48), decl in qasm_text(8)) {
        let _ = parse_qasm(&s);
        // The same text after a valid register, and as a declaration.
        let _ = parse_qasm(&format!("qreg q[3]; {s}"));
        let _ = parse_qasm(&format!("qreg {decl}; h q[0]; {s}"));
    }

    #[test]
    fn request_decode_never_panics(s in text(64), key in slot(12), method in 0usize..4) {
        typed_request_error(&s)?;
        let method = ["pulses", "serve_program", "library", "precompile"][method];
        let frames = [
            format!(r#"{{"method":"pulses","params":{{"keys":["{key}"]}}}}"#),
            format!(r#"{{"id":1,"method":"{method}","params":{{"keys":["00","{key}"],"qasm":"{key}","programs":["{key}"],"only_qubits":[{key}]}}}}"#),
            format!(r#"{{"id":{key},"method":"{key}"}}"#),
            format!(r#"{{"id":2,"method":"library","params":{{"limit":{key},"offset":"{key}"}}}}"#),
        ];
        for frame in &frames {
            typed_request_error(frame)?;
        }
    }

    #[test]
    fn response_decode_never_panics(s in text(64), key in slot(12), ok in 0u8..2) {
        let _ = Response::decode(&s);
        let ok = ["false", "true"][usize::from(ok)];
        let frames = [
            format!(r#"{{"id":1,"ok":true,"method":"pulses","result":{{"pulses":{{"entries":[]}},"missing":["{key}"]}}}}"#),
            format!(r#"{{"id":1,"ok":true,"method":"pulses","result":{{"pulses":{{"entries":[{{"key":"{key}","latency_ns":1,"iterations":1,"n_qubits":1,"pulse":{{"dt_ns":1,"amps":[[0]]}}}}]}},"missing":[]}}}}"#),
            format!(r#"{{"id":1,"ok":true,"method":"serve_program","result":{{"report":{{}},"missing":["{key}"]}}}}"#),
            format!(r#"{{"id":1,"ok":true,"method":"verify_program","result":{{"groups":[{{"key":"{key}"}}],"passed":true}}}}"#),
            format!(r#"{{"id":1,"ok":{ok},"method":"{key}","error":{{"code":"{key}","message":"{key}"}},"result":{{}}}}"#),
        ];
        for frame in &frames {
            let _ = Response::decode(frame);
        }
    }

    #[test]
    fn http_parse_and_route_never_panic(s in text(48), key in slot(12)) {
        let bodies = [
            format!(r#"{{"keys":["{key}"]}}"#),
            format!(r#"{{"qasm":"{key}","return_pulses":true}}"#),
            format!(r#"{{"programs":["{key}"],"only_qubits":[{key}]}}"#),
            s.clone(),
        ];
        let mut requests = vec![
            format!("GET /library?limit={s}&offset={key} HTTP/1.1\r\nHost: {s}\r\n\r\n"),
            format!("GET /{s} HTTP/1.1\r\n\r\n"),
            s.clone(),
        ];
        for route in ["/pulses", "/serve", "/precompile", "/verify"] {
            for body in &bodies {
                requests.push(format!(
                    "POST {route} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ));
            }
        }
        for request in &requests {
            if let HttpParse::Request(parsed, consumed) =
                http::parse_request(request.as_bytes(), 8 << 10, 64 << 10)
            {
                prop_assert!(consumed <= request.len());
                let _ = http::route(&parsed);
            }
        }
    }

    #[test]
    fn raw_line_frames_decode_or_fail_typed(raw in bytes(96)) {
        // Bare, behind a frame opener, and inside a request's string slot.
        let frames = [
            raw.clone(),
            [b"{".as_slice(), &raw].concat(),
            [br#"{"id":1,"method":"serve_program","params":{"qasm":""#.as_slice(), &raw, br#""}}"#].concat(),
        ];
        for frame in &frames {
            if let Some(decoded) = Request::decode_frame(frame) {
                typed_decode_error(decoded, frame)?;
            }
        }
    }

    #[test]
    fn raw_http_bytes_parse_and_route_never_panic(raw in bytes(96), cut in 0usize..96) {
        let head = |line: &str| [line.as_bytes(), &raw, b"\r\n\r\n"].concat();
        let mut requests = vec![
            raw.clone(),
            head("GET /"),
            head("POST /pulses HTTP/1.1\r\n"),
            [format!("POST /serve HTTP/1.1\r\nContent-Length: {}\r\n\r\n", raw.len()).as_bytes(), &raw].concat(),
        ];
        // A request cut short anywhere must parse as incomplete, not panic.
        let whole = requests[3].clone();
        requests.push(whole[..cut.min(whole.len())].to_vec());
        for request in &requests {
            if let HttpParse::Request(parsed, consumed) = http::parse_request(request, 8 << 10, 64 << 10) {
                prop_assert!(consumed <= request.len());
                let _ = http::route(&parsed);
            }
        }
    }
}
