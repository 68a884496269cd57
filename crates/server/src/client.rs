//! A blocking client for the daemon's line protocol, used by the
//! bench/client bin, the integration tests, and scripts that prefer a
//! typed API over raw `nc` (the HTTP surface needs no client — `curl`
//! is one).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use accqoc::{PulseCache, ServeReport, VerifyReport};
use accqoc_circuit::{to_qasm, Circuit, UnitaryKey};

use crate::protocol::{
    Call, LibraryPage, Payload, PrecompileSummary, Request, Response, StatsSnapshot, WireError,
};

/// Why a call failed, from the client's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke.
    Io(std::io::Error),
    /// The daemon answered with a typed error (busy, malformed, compile
    /// failure, …).
    Remote(WireError),
    /// The daemon answered a request the client never made: the frame
    /// was readable but its id is ahead of every request sent on this
    /// connection. The connection itself stays usable — later calls
    /// keep their own correlation.
    MismatchedId {
        /// The id the pending call was waiting for.
        expected: u64,
        /// The id the daemon's frame carried.
        got: u64,
    },
    /// The daemon's frame was unreadable, or its payload did not match
    /// the method called.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "connection failed: {e}"),
            Self::Remote(e) => write!(f, "daemon refused: {e}"),
            Self::MismatchedId { expected, got } => write!(
                f,
                "response id {got} answers no pending request (expected {expected})"
            ),
            Self::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One connection to a running daemon. Calls are synchronous: each
/// method writes one request frame and blocks for the matching response.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        Self::wrap(writer)
    }

    /// [`Client::connect`] with bounds on how long the client waits —
    /// `connect_timeout` for the TCP handshake and `read_timeout` for
    /// each response read. Without them, a dead or wedged daemon blocks
    /// a call indefinitely (the OS keeps the socket open); with them,
    /// the call fails with [`ClientError::Io`] (`WouldBlock`/`TimedOut`)
    /// and the caller — e.g. the shard router — can retry or fail over.
    ///
    /// When `addr` resolves to several addresses, each is tried in turn
    /// with the full `connect_timeout`.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; resolution yielding no address is
    /// `InvalidInput`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        read_timeout: Option<Duration>,
    ) -> std::io::Result<Self> {
        let mut last_err = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, connect_timeout) {
                Ok(writer) => {
                    writer.set_read_timeout(read_timeout)?;
                    return Self::wrap(writer);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    fn wrap(writer: TcpStream) -> std::io::Result<Self> {
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Sends one call and blocks for its payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Remote`] for typed daemon errors,
    /// [`ClientError::MismatchedId`] when the daemon answers an id the
    /// client never sent (the connection stays usable), and
    /// [`ClientError::Io`] / [`ClientError::Protocol`] for transport
    /// problems.
    pub fn call(&mut self, call: Call) -> Result<Payload, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let request = Request { id, call };
        self.writer.write_all(request.encode().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol("daemon closed the connection".into()));
            }
            let response = Response::decode(line.trim_end()).map_err(ClientError::Protocol)?;
            if response.id == id {
                return response.body.map_err(ClientError::Remote);
            }
            // Id 0 failures are server-initiated refusals sent before any
            // request was read (e.g. the connection-limit `busy` frame) —
            // surface them typed, not as a correlation error.
            if response.id == 0 {
                if let Err(e) = response.body {
                    return Err(ClientError::Remote(e));
                }
            }
            if response.id < id {
                // A stale answer to an abandoned earlier call (its
                // waiter already errored out): drain it and keep
                // reading — the stream framing is intact.
                continue;
            }
            // An id from the future answers no request this client ever
            // sent: typed error; the next call reads past nothing.
            return Err(ClientError::MismatchedId {
                expected: id,
                got: response.id,
            });
        }
    }

    /// Serves a program; with `return_pulses` the daemon ships the
    /// resolved group pulses back as a [`PulseCache`] artifact.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn serve_program(
        &mut self,
        circuit: &Circuit,
        return_pulses: bool,
    ) -> Result<(ServeReport, Option<PulseCache>), ClientError> {
        let (report, pulses, _missing) = self.serve_program_full(circuit, return_pulses, None)?;
        Ok((report, pulses))
    }

    /// Like [`Client::serve_program`], but also surfaces the group keys
    /// whose pulses the daemon could not read back (a capacity-bounded
    /// library evicted them before the response was cut). Callers that
    /// persist or replay the returned cache must treat those groups as
    /// unresolved. `only_qubits` restricts the serve to the unique groups
    /// of those widths — how the shard router asks a worker for exactly
    /// the groups it owns on the hash ring; `None` serves the whole
    /// program.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn serve_program_full(
        &mut self,
        circuit: &Circuit,
        return_pulses: bool,
        only_qubits: Option<&[usize]>,
    ) -> Result<(ServeReport, Option<PulseCache>, Vec<UnitaryKey>), ClientError> {
        match self.call(Call::ServeProgram {
            qasm: to_qasm(circuit),
            return_pulses,
            only_qubits: only_qubits.map(<[usize]>::to_vec),
        })? {
            Payload::Serve {
                report,
                pulses,
                missing,
            } => Ok((report, pulses, missing)),
            other => Err(mismatch("serve_program", &other)),
        }
    }

    /// Batch pre-compiles a profiled program set into the daemon's
    /// library; `only_qubits` restricts it to the unique groups of those
    /// widths (see [`Client::serve_program_full`]), `None` compiles them
    /// all.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn precompile(
        &mut self,
        programs: &[Circuit],
        only_qubits: Option<&[usize]>,
    ) -> Result<PrecompileSummary, ClientError> {
        match self.call(Call::Precompile {
            programs: programs.iter().map(to_qasm).collect(),
            only_qubits: only_qubits.map(<[usize]>::to_vec),
        })? {
            Payload::Precompile(summary) => Ok(summary),
            other => Err(mismatch("precompile", &other)),
        }
    }

    /// Fetches pulse amplitudes for an explicit key set; the second
    /// element lists the requested keys the daemon no longer holds.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn pulses(
        &mut self,
        keys: &[UnitaryKey],
    ) -> Result<(PulseCache, Vec<UnitaryKey>), ClientError> {
        match self.call(Call::Pulses {
            keys: keys.to_vec(),
        })? {
            Payload::Pulses { pulses, missing } => Ok((pulses, missing)),
            other => Err(mismatch("pulses", &other)),
        }
    }

    /// Verifies a program against the daemon's library.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn verify_program(&mut self, circuit: &Circuit) -> Result<VerifyReport, ClientError> {
        match self.call(Call::VerifyProgram {
            qasm: to_qasm(circuit),
        })? {
            Payload::Verify(report) => Ok(report),
            other => Err(mismatch("verify_program", &other)),
        }
    }

    /// Fetches library + server counters.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(Call::Stats)? {
            Payload::Stats(snapshot) => Ok(snapshot),
            other => Err(mismatch("stats", &other)),
        }
    }

    /// Fetches one page of library-entry metadata, `limit` entries
    /// starting `offset` into key order.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn library(&mut self, limit: usize, offset: usize) -> Result<LibraryPage, ClientError> {
        match self.call(Call::Library { limit, offset })? {
            Payload::Library(page) => Ok(page),
            other => Err(mismatch("library", &other)),
        }
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::call`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(Call::Shutdown)? {
            Payload::Shutdown => Ok(()),
            other => Err(mismatch("shutdown", &other)),
        }
    }
}

fn mismatch(method: &str, got: &Payload) -> ClientError {
    ClientError::Protocol(format!("`{method}` answered with {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_timeout_bounds_a_call_against_a_silent_daemon() {
        // A listener that never accepts: the kernel backlog completes
        // the TCP handshake, so `connect` succeeds, but no response
        // will ever arrive. Without a read timeout `stats()` would
        // block forever — the latent gap the router cannot live with.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = Client::connect_with(
            addr,
            Duration::from_millis(500),
            Some(Duration::from_millis(50)),
        )
        .expect("handshake completes via the backlog");
        let started = std::time::Instant::now();
        let err = client.stats().expect_err("no daemon ever answers");
        let elapsed = started.elapsed();
        match err {
            ClientError::Io(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "expected a timeout kind, got {e:?}"
            ),
            other => panic!("expected ClientError::Io, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "timeout must bound the call, took {elapsed:?}"
        );
    }

    #[test]
    fn connect_with_rejects_empty_resolution() {
        let err = Client::connect_with(
            &[][..] as &[std::net::SocketAddr],
            Duration::from_millis(100),
            None,
        )
        .expect_err("nothing to connect to");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
