//! The daemon's HTTP/1.1 surface: request parsing, routing, format
//! negotiation, and response rendering.
//!
//! This is deliberately a *small* HTTP/1.1 — enough for `curl`, health
//! probes, and JSON-speaking operators, not a general web server:
//!
//! - methods `GET`/`POST`, `Content-Length` bodies only (chunked
//!   transfer encoding is refused with `501`),
//! - keep-alive and pipelining (responses always return in request
//!   order — the event loop sequences them),
//! - format negotiation by path suffix: `/stats` and `/stats.json`
//!   return compact JSON, `/stats.pretty` returns indented JSON,
//! - `limit`/`offset` pagination on `GET /library`.
//!
//! Routes:
//!
//! | route | call |
//! |---|---|
//! | `POST /serve` | [`Call::ServeProgram`] (body: `{"qasm": "...", "return_pulses": bool}`) |
//! | `POST /precompile` | [`Call::Precompile`] (body: `{"programs": ["...", ...]}`) |
//! | `POST /pulses` | [`Call::Pulses`] (body: `{"keys": ["<hex>", ...]}`) |
//! | `POST /verify` | [`Call::VerifyProgram`] (body: `{"qasm": "..."}`) |
//! | `GET /stats` | [`Call::Stats`] |
//! | `GET /library?limit=N&offset=M` | [`Call::Library`] |
//! | `POST /shutdown` | [`Call::Shutdown`] |
//!
//! Success bodies are the same `result` objects the line protocol puts
//! in its response envelope; error bodies are `{"error": {"code": ...,
//! "message": ...}}` with the status mapped from [`ErrorCode`].

use accqoc::json::{self, JsonValue};

use crate::protocol::{
    Call, ErrorCode, Payload, WireError, DEFAULT_LIBRARY_LIMIT, MAX_LIBRARY_LIMIT,
};

/// Response body rendering negotiated from the request path suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One-line compact JSON (default, and the `.json` suffix).
    #[default]
    Compact,
    /// Indented multi-line JSON (the `.pretty` suffix).
    Pretty,
}

impl Format {
    fn render(self, value: &JsonValue) -> String {
        match self {
            Self::Compact => value.to_compact(),
            Self::Pretty => value.to_pretty(),
        }
    }
}

/// One parsed HTTP request, reduced to what routing needs.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    /// Request method verb (`GET`, `POST`, …), uppercase as received.
    pub method: String,
    /// Decoded path without the query string (suffix still attached).
    pub path: String,
    /// Decoded query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Whether the connection survives this response (HTTP/1.1 default
    /// yes, `Connection: close` or HTTP/1.0 no).
    pub keep_alive: bool,
    /// The request body (`Content-Length` bytes; empty without one).
    pub body: Vec<u8>,
}

/// Why a byte stream cannot be (or is not yet) a complete request.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpParse {
    /// More bytes needed — leave the buffer alone and read again.
    Incomplete,
    /// A complete request occupying the first `consumed` buffer bytes.
    Request(Box<HttpRequest>, usize),
    /// Framing violation: answer with the error and close the
    /// connection (the stream cannot be trusted past it).
    Violation(WireError),
}

/// The verbs the router knows. Used both for routing and for protocol
/// auto-detection (a first line starting with one of these and ending in
/// an `HTTP/` version marker selects HTTP mode).
const METHODS: [&str; 7] = ["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"];

/// `true` when a connection's first line is HTTP-shaped: a known method
/// verb followed by a space. (Legacy protocol frames always start with
/// `{`, so the two surfaces cannot collide.)
pub(crate) fn looks_like_http(buf: &[u8]) -> bool {
    METHODS
        .iter()
        .any(|m| buf.len() > m.len() && buf.starts_with(m.as_bytes()) && buf[m.len()] == b' ')
}

/// Incrementally parses the front of `buf` as one HTTP/1.1 request.
/// `max_head_bytes` caps the header block, `max_body_bytes` the declared
/// body length; both map to typed violations, never truncation.
pub fn parse_request(buf: &[u8], max_head_bytes: usize, max_body_bytes: usize) -> HttpParse {
    let violation =
        |code: ErrorCode, message: String| HttpParse::Violation(WireError::new(code, message));
    // Find the end of the header block: CRLFCRLF (tolerating bare LF).
    let Some((head_end, body_start)) = find_head_end(buf) else {
        if buf.len() > max_head_bytes {
            return violation(
                ErrorCode::Oversized,
                format!("request headers exceed {max_head_bytes} bytes"),
            );
        }
        return HttpParse::Incomplete;
    };
    if head_end > max_head_bytes {
        return violation(
            ErrorCode::Oversized,
            format!("request headers exceed {max_head_bytes} bytes"),
        );
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return violation(
                ErrorCode::MalformedJson,
                format!("malformed request line `{request_line}`"),
            )
        }
    };
    if !version.starts_with("HTTP/1.") {
        return violation(
            ErrorCode::MalformedJson,
            format!("unsupported protocol version `{version}`"),
        );
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length: usize = 0;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return violation(
                ErrorCode::MalformedJson,
                format!("malformed header `{line}`"),
            );
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => match value.parse() {
                Ok(n) => content_length = n,
                Err(_) => {
                    return violation(
                        ErrorCode::MalformedJson,
                        format!("bad content-length `{value}`"),
                    )
                }
            },
            "transfer-encoding" => {
                return violation(
                    ErrorCode::MalformedJson,
                    "chunked transfer encoding is not supported".into(),
                )
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.contains("close") {
                    keep_alive = false;
                } else if value.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > max_body_bytes {
        return violation(
            ErrorCode::Oversized,
            format!("request body of {content_length} bytes exceeds {max_body_bytes}"),
        );
    }
    if buf.len() < body_start + content_length {
        return HttpParse::Incomplete;
    }
    let (path, query) = split_target(target);
    HttpParse::Request(
        Box::new(HttpRequest {
            method: method.to_string(),
            path,
            query,
            keep_alive,
            body: buf[body_start..body_start + content_length].to_vec(),
        }),
        body_start + content_length,
    )
}

/// Locates the blank line ending the header block, returning
/// `(header_bytes, body_offset)`. Accepts `\r\n\r\n` and bare `\n\n`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i] != b'\n' {
            continue;
        }
        if buf[i + 1..].first() == Some(&b'\n') {
            return Some((i + 1, i + 2));
        }
        if buf[i + 1..].starts_with(b"\r\n") {
            return Some((i + 1, i + 3));
        }
    }
    None
}

/// Splits a request target into decoded path and query pairs.
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (percent_decode(path), pairs)
}

/// Decodes `%XX` escapes and `+`-as-space. Malformed escapes pass
/// through literally (they will fail route matching loudly instead of
/// silently changing meaning).
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Resolves a parsed request to a daemon [`Call`] plus the negotiated
/// response [`Format`].
///
/// # Errors
///
/// A typed [`WireError`] ready to render with [`render_error`]:
/// `not_found` for unknown paths, `method_not_allowed` for known paths
/// with the wrong verb, `malformed_json`/`bad_params` for unreadable
/// bodies or query parameters.
pub fn route(request: &HttpRequest) -> Result<(Call, Format), WireError> {
    let (path, format) = negotiate_format(&request.path);
    let verb = request.method.as_str();
    // Body-carrying calls decode exactly as the line protocol's params.
    let body_call = |method: &str| {
        require_method(verb, "POST")?;
        Call::from_params(method, Some(&parse_body(&request.body)?))
    };
    let call = match path {
        "/serve" => body_call("serve_program")?,
        "/precompile" => body_call("precompile")?,
        "/pulses" => body_call("pulses")?,
        "/verify" => body_call("verify_program")?,
        "/stats" => {
            require_method(verb, "GET")?;
            Call::Stats
        }
        "/library" => {
            require_method(verb, "GET")?;
            Call::Library {
                limit: query_count(request, "limit", DEFAULT_LIBRARY_LIMIT)?.min(MAX_LIBRARY_LIMIT),
                offset: query_count(request, "offset", 0)?,
            }
        }
        "/shutdown" => {
            require_method(verb, "POST")?;
            Call::Shutdown
        }
        other => {
            return Err(WireError::new(
                ErrorCode::NotFound,
                format!("no route for `{other}`"),
            ))
        }
    };
    Ok((call, format))
}

/// Strips a `.json` / `.pretty` format suffix off the path.
fn negotiate_format(path: &str) -> (&str, Format) {
    if let Some(base) = path.strip_suffix(".pretty") {
        (base, Format::Pretty)
    } else if let Some(base) = path.strip_suffix(".json") {
        (base, Format::Compact)
    } else {
        (path, Format::Compact)
    }
}

fn require_method(got: &str, want: &str) -> Result<(), WireError> {
    if got == want {
        Ok(())
    } else {
        Err(WireError::new(
            ErrorCode::MethodNotAllowed,
            format!("route expects {want}, got {got}"),
        ))
    }
}

fn parse_body(body: &[u8]) -> Result<JsonValue, WireError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| WireError::new(ErrorCode::MalformedJson, "request body is not UTF-8"))?;
    json::parse(text)
        .map_err(|e| WireError::new(ErrorCode::MalformedJson, format!("request body: {e}")))
}

fn query_count(request: &HttpRequest, name: &str, default: usize) -> Result<usize, WireError> {
    match request.query.iter().find(|(k, _)| k == name) {
        None => Ok(default),
        Some((_, v)) => v.parse().map_err(|_| {
            WireError::new(
                ErrorCode::BadParams,
                format!("query param `{name}` must be a non-negative integer, got `{v}`"),
            )
        }),
    }
}

/// The HTTP status line an [`ErrorCode`] maps to.
pub fn status_of(code: ErrorCode) -> (u16, &'static str) {
    match code {
        ErrorCode::MalformedJson | ErrorCode::BadParams | ErrorCode::Qasm => (400, "Bad Request"),
        ErrorCode::UnknownMethod | ErrorCode::NotFound => (404, "Not Found"),
        ErrorCode::MethodNotAllowed => (405, "Method Not Allowed"),
        ErrorCode::Oversized => (413, "Payload Too Large"),
        ErrorCode::Busy | ErrorCode::ShuttingDown | ErrorCode::ShardUnavailable => {
            (503, "Service Unavailable")
        }
        ErrorCode::Compile | ErrorCode::Internal => (500, "Internal Server Error"),
    }
}

/// Renders a success response: status 200 with the payload's `result`
/// object as the body.
pub fn render_success(payload: &Payload, format: Format, keep_alive: bool) -> Vec<u8> {
    respond(200, "OK", &payload.to_json_value(), format, keep_alive)
}

/// Renders a typed error response with the status from [`status_of`] and
/// an `{"error": ...}` body.
pub fn render_error(error: &WireError, format: Format, keep_alive: bool) -> Vec<u8> {
    let (status, reason) = status_of(error.code);
    let body = JsonValue::Object(vec![("error".into(), error.to_json_value())]);
    respond(status, reason, &body, format, keep_alive)
}

fn respond(
    status: u16,
    reason: &str,
    body: &JsonValue,
    format: Format,
    keep_alive: bool,
) -> Vec<u8> {
    let mut body = format.render(body);
    body.push('\n');
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len(),
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> HttpParse {
        parse_request(text.as_bytes(), 8 << 10, 64 << 10)
    }

    #[test]
    fn parses_get_with_query_and_keep_alive_default() {
        let HttpParse::Request(req, consumed) =
            parse("GET /library?limit=5&offset=10 HTTP/1.1\r\nHost: x\r\n\r\n")
        else {
            panic!("expected a complete request");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/library");
        assert_eq!(
            req.query,
            vec![("limit".into(), "5".into()), ("offset".into(), "10".into())]
        );
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
        assert_eq!(
            consumed,
            "GET /library?limit=5&offset=10 HTTP/1.1\r\nHost: x\r\n\r\n".len()
        );
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let text = "POST /serve HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        let HttpParse::Request(req, consumed) = parse(text) else {
            panic!("expected a complete request");
        };
        assert_eq!(req.body, b"body");
        assert_eq!(consumed, text.len() - "EXTRA".len());
    }

    #[test]
    fn incomplete_until_body_arrives() {
        assert_eq!(
            parse("POST /serve HTTP/1.1\r\nContent-Length: 10\r\n\r\nbod"),
            HttpParse::Incomplete
        );
        assert_eq!(parse("GET /stats HTTP/1.1\r\nHost:"), HttpParse::Incomplete);
    }

    #[test]
    fn violations_are_typed() {
        let HttpParse::Violation(e) = parse("GET /stats\r\n\r\n") else {
            panic!("two-token request line must be a violation");
        };
        assert_eq!(e.code, ErrorCode::MalformedJson);

        let HttpParse::Violation(e) = parse("GET /stats SPDY/9\r\n\r\n") else {
            panic!("unknown protocol version must be a violation");
        };
        assert_eq!(e.code, ErrorCode::MalformedJson);

        let HttpParse::Violation(e) =
            parse("POST /serve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        else {
            panic!("chunked encoding must be refused");
        };
        assert_eq!(e.code, ErrorCode::MalformedJson);

        let HttpParse::Violation(e) = parse_request(
            b"POST /serve HTTP/1.1\r\nContent-Length: 999\r\n\r\n",
            8 << 10,
            100,
        ) else {
            panic!("oversized declared body must be a violation");
        };
        assert_eq!(e.code, ErrorCode::Oversized);

        let huge = format!("GET /{} HTTP/1.1", "x".repeat(512));
        let HttpParse::Violation(e) = parse_request(huge.as_bytes(), 64, 64) else {
            panic!("oversized header block must be a violation");
        };
        assert_eq!(e.code, ErrorCode::Oversized);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let HttpParse::Request(req, _) = parse("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
        else {
            panic!("complete request");
        };
        assert!(!req.keep_alive);
        let HttpParse::Request(req, _) = parse("GET /stats HTTP/1.0\r\n\r\n") else {
            panic!("complete request");
        };
        assert!(!req.keep_alive);
    }

    #[test]
    fn routes_and_formats() {
        let req = |method: &str, path: &str, body: &str| HttpRequest {
            method: method.into(),
            path: path.into(),
            query: vec![],
            keep_alive: true,
            body: body.as_bytes().to_vec(),
        };
        let (call, format) = route(&req("GET", "/stats", "")).unwrap();
        assert_eq!(call, Call::Stats);
        assert_eq!(format, Format::Compact);

        let (call, format) = route(&req("GET", "/stats.pretty", "")).unwrap();
        assert_eq!(call, Call::Stats);
        assert_eq!(format, Format::Pretty);

        let (call, format) = route(&req("GET", "/stats.json", "")).unwrap();
        assert_eq!(call, Call::Stats);
        assert_eq!(format, Format::Compact);

        let (call, _) = route(&req(
            "POST",
            "/serve",
            r#"{"qasm": "qreg q[1]; h q[0];", "return_pulses": true}"#,
        ))
        .unwrap();
        assert_eq!(
            call,
            Call::ServeProgram {
                qasm: "qreg q[1]; h q[0];".into(),
                return_pulses: true,
                only_qubits: None,
            }
        );

        let (call, _) = route(&req(
            "POST",
            "/serve",
            r#"{"qasm": "qreg q[1]; h q[0];", "only_qubits": [1, 2]}"#,
        ))
        .unwrap();
        assert_eq!(
            call,
            Call::ServeProgram {
                qasm: "qreg q[1]; h q[0];".into(),
                return_pulses: false,
                only_qubits: Some(vec![1, 2]),
            }
        );

        let (call, _) = route(&req("POST", "/pulses", r#"{"keys": ["00ff"]}"#)).unwrap();
        assert_eq!(
            call,
            Call::Pulses {
                keys: vec![accqoc_circuit::UnitaryKey::from_bytes(vec![0, 255])],
            }
        );

        let (call, _) = route(&req("POST", "/shutdown", "")).unwrap();
        assert_eq!(call, Call::Shutdown);

        assert_eq!(
            route(&req("GET", "/nope", "")).unwrap_err().code,
            ErrorCode::NotFound
        );
        assert_eq!(
            route(&req("GET", "/serve", "")).unwrap_err().code,
            ErrorCode::MethodNotAllowed
        );
        assert_eq!(
            route(&req("POST", "/serve", "{not json")).unwrap_err().code,
            ErrorCode::MalformedJson
        );
        assert_eq!(
            route(&req("POST", "/serve", "{}")).unwrap_err().code,
            ErrorCode::BadParams
        );
    }

    #[test]
    fn library_route_paginates_from_query() {
        let mut req = HttpRequest {
            method: "GET".into(),
            path: "/library".into(),
            query: vec![("limit".into(), "3".into()), ("offset".into(), "7".into())],
            keep_alive: true,
            body: vec![],
        };
        let (call, _) = route(&req).unwrap();
        assert_eq!(
            call,
            Call::Library {
                limit: 3,
                offset: 7
            }
        );
        req.query = vec![("limit".into(), "-2".into())];
        assert_eq!(route(&req).unwrap_err().code, ErrorCode::BadParams);
        req.query = vec![("limit".into(), "99999".into())];
        let (call, _) = route(&req).unwrap();
        assert_eq!(
            call,
            Call::Library {
                limit: MAX_LIBRARY_LIMIT,
                offset: 0
            }
        );
    }

    #[test]
    fn rendered_responses_frame_the_body_exactly() {
        let error = WireError::new(ErrorCode::Busy, "full");
        let bytes = render_error(&error, Format::Compact, true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(declared, body.len());
        assert!(head.contains("Connection: keep-alive"));
        assert!(body.contains("\"busy\""));

        let bytes = render_success(&Payload::Shutdown, Format::Pretty, false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
    }

    #[test]
    fn http_detection_matches_verbs_only() {
        assert!(looks_like_http(b"GET /stats HTTP/1.1"));
        assert!(looks_like_http(b"POST /serve HTTP/1.1"));
        assert!(!looks_like_http(b"{\"id\": 1}"));
        assert!(!looks_like_http(b"GETAWAY none"));
        assert!(!looks_like_http(b"garbage"));
    }

    #[test]
    fn percent_decoding_applies_to_query() {
        let (path, query) = split_target("/library?note=a%20b+c&x");
        assert_eq!(path, "/library");
        assert_eq!(
            query,
            vec![("note".into(), "a b c".into()), ("x".into(), String::new())]
        );
    }
}
