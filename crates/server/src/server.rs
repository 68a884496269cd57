//! The daemon itself: a non-blocking event loop multiplexing every
//! connection on one thread, feeding a fixed worker pool.
//!
//! # Request lifecycle
//!
//! ```text
//! accept ── event loop ── parse frame ── admit (bounded queue) ── worker
//!   (non-      │           (legacy line       │ full → busy         │
//!    blocking) │            or HTTP/1.1,      ▼                     ▼
//!              │            auto-detected) typed reject      coalesce (claim
//!              │                                             in-flight groups)
//!              ▼                                                   │
//!         write buffers  ◄──── completion mpsc ◄───── library resolve
//!         (ordered per connection)   + wake byte    (hit / warm / scratch)
//! ```
//!
//! One event-loop thread owns the listener and every socket, all
//! non-blocking, and sleeps in `poll(2)` on the listener, a wake socket
//! and every connection (this workspace builds offline and `std` exposes
//! no `epoll`; the one `unsafe` call lives in `sys`). A worker sends its
//! completion down an mpsc channel and then writes one byte to the wake
//! socket, so a finished request and newly arrived bytes both wake the
//! loop at once, and an idle daemon sleeps without a timeout. Each wake
//! services only the connections that are ready or that a completion
//! touched. Each connection is a read/write state machine: partial
//! frames buffer until complete, responses buffer until the socket
//! accepts them, and per-connection sequence numbers keep pipelined
//! responses in request order even when workers finish out of order.
//! Idle connections therefore cost a registry entry, not an OS thread —
//! the thread budget is `1 + workers` regardless of connection count,
//! plus the spare solver lanes of compiles: a worker serving a program's
//! misses compiles independent groups side by side on extra threads,
//! but only while fewer solver threads run in the process than it has
//! cores ([`accqoc_grape::SolverLane`]), so `w` workers compiling at once
//! settle on at most `max(w, cores)` solver threads. A single compile
//! runs on its worker's thread alone. A serve plans its
//! misses against the library as it stands when the plan is made.
//!
//! The first bytes of a connection select its protocol: `{` (or any
//! non-HTTP first line) means the newline-delimited JSON line protocol,
//! an HTTP method verb means HTTP/1.1 ([`crate::http`]). Both surfaces
//! execute the same [`Call`]s through the same admission queue
//! ([`crate::queue::BoundedQueue`]) and in-flight coalescing
//! ([`InflightGroups`]); only the framing differs.
//!
//! Shutdown is graceful and needs no self-connect wake hack (the old
//! blocking accept loop had to `connect(local_addr)` to wake itself,
//! which broke when the daemon bound `0.0.0.0`): the event loop flips a
//! local flag, stops accepting, closes admission, and exits once every
//! pending response is flushed. Worker threads join when the queue
//! drains.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use accqoc::json::hex_encode;
use accqoc::{PulseCache, Session};
use accqoc_circuit::{parse_qasm, Circuit, UnitaryKey};

use crate::http::{self, Format, HttpParse};
use crate::inflight::InflightGroups;
use crate::protocol::{
    Call, ErrorCode, LibraryEntryInfo, LibraryPage, Payload, PrecompileSummary, Request, Response,
    ServerCounters, StatsSnapshot, WireError,
};
use crate::queue::{BoundedQueue, EnqueueError};
use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};

/// Tunables of a [`Server`]. The defaults suit tests and small
/// deployments; production deployments mostly raise `workers` and
/// `queue_capacity` together.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads compiling/serving admitted requests (≥ 1). A
    /// worker serving several misses borrows each spare core it finds for
    /// an independent compile, so `workers` below the core count still
    /// keeps every core busy on a program with independent misses; more
    /// workers than cores only add lanes that share them.
    pub workers: usize,
    /// Admission-queue capacity: requests pending beyond the workers'
    /// in-flight set. A full queue rejects with a typed `busy` error —
    /// it never blocks the event loop.
    pub queue_capacity: usize,
    /// Concurrent client connections; further connects receive a `busy`
    /// error frame and are closed immediately.
    pub max_connections: usize,
    /// Request-frame size cap in bytes: one legacy line, or one HTTP
    /// header block / body. A bigger frame gets a typed `oversized`
    /// error and the connection is closed (framing cannot be trusted
    /// past an unbounded frame).
    pub max_line_bytes: usize,
    /// Write-progress timeout per connection. A client that stops
    /// reading (TCP backpressure on a large pulse payload) gets its
    /// connection dropped after this long without accepting a byte,
    /// instead of pinning its buffered responses — and graceful
    /// shutdown — forever.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_connections: 1024,
            max_line_bytes: 4 << 20,
            write_timeout: Duration::from_secs(30),
        }
    }
}

#[derive(Debug, Default)]
struct CounterCells {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests_served: AtomicU64,
    requests_rejected_busy: AtomicU64,
    protocol_errors: AtomicU64,
    coalesced_waits: AtomicU64,
}

impl CounterCells {
    fn snapshot(&self) -> ServerCounters {
        ServerCounters {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            requests_rejected_busy: self.requests_rejected_busy.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
        }
    }

    fn bump(&self, cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// How a response must be framed back to its connection.
#[derive(Debug, Clone, Copy)]
enum RenderMode {
    /// One compact-JSON line, `\n`-terminated.
    Legacy,
    /// A full HTTP/1.1 response with the negotiated body format.
    Http { format: Format, keep_alive: bool },
}

fn render_response(response: &Response, mode: RenderMode) -> Vec<u8> {
    match mode {
        RenderMode::Legacy => {
            let mut bytes = response.encode().into_bytes();
            bytes.push(b'\n');
            bytes
        }
        RenderMode::Http { format, keep_alive } => match &response.body {
            Ok(payload) => http::render_success(payload, format, keep_alive),
            Err(error) => http::render_error(error, format, keep_alive),
        },
    }
}

/// A request admitted to the worker queue.
struct Job {
    /// The connection the response belongs to.
    token: u64,
    /// Position in that connection's response order.
    seq: u64,
    /// Legacy correlation id (0 for HTTP requests, which correlate by
    /// order alone).
    id: u64,
    call: Call,
    mode: RenderMode,
}

/// A finished job: rendered bytes ready to slot into the connection's
/// ordered write stream.
struct Completion {
    token: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// Which protocol a connection speaks, decided by its first bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing conclusive read yet.
    Detect,
    /// Newline-delimited JSON frames.
    Legacy,
    /// HTTP/1.1.
    Http,
}

/// One connection's read/write state machine.
struct Conn {
    stream: TcpStream,
    mode: Mode,
    read_buf: Vec<u8>,
    /// Buffered response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written.
    written: usize,
    /// Next sequence number to assign to an incoming request.
    next_seq: u64,
    /// Next sequence number to move into `write_buf` (responses deliver
    /// strictly in request order, whatever order workers finish in).
    next_flush: u64,
    /// Completed responses waiting for their turn in the order.
    ready: BTreeMap<u64, Vec<u8>>,
    /// Requests dispatched to the worker pool, not yet completed.
    pending: usize,
    /// No more input will be consumed (EOF, framing violation, or
    /// `Connection: close`).
    reads_closed: bool,
    /// Drop the connection once everything pending has been flushed.
    close_when_flushed: bool,
    /// The peer hung up.
    eof: bool,
    /// Last instant the socket accepted bytes (write-stall detection).
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            mode: Mode::Detect,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            next_seq: 0,
            next_flush: 0,
            ready: BTreeMap::new(),
            pending: 0,
            reads_closed: false,
            close_when_flushed: false,
            eof: false,
            last_progress: Instant::now(),
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Queues an already-rendered response at the next sequence slot
    /// (the inline-handled path: protocol errors, busy rejections,
    /// shutdown acks).
    fn push_inline(&mut self, bytes: Vec<u8>) {
        let seq = self.alloc_seq();
        self.ready.insert(seq, bytes);
    }

    /// Stops consuming input and marks the connection for close once
    /// everything already in flight has been answered and flushed.
    fn finish_reads(&mut self) {
        self.reads_closed = true;
        self.close_when_flushed = true;
    }

    /// Pulls whatever is readable off the socket into `read_buf`.
    fn fill_read_buf(&mut self) {
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock => return,
                    std::io::ErrorKind::Interrupted => continue,
                    // Reset/abort mid-stream is a disconnect.
                    _ => {
                        self.eof = true;
                        return;
                    }
                },
            }
        }
    }

    /// Moves in-order completed responses into the write buffer.
    fn promote_ready(&mut self) {
        while let Some(bytes) = self.ready.remove(&self.next_flush) {
            self.write_buf.extend_from_slice(&bytes);
            self.next_flush += 1;
        }
    }

    /// Writes as much buffered output as the socket accepts. Returns
    /// `false` when the connection must be dropped (broken pipe, write
    /// stall past the timeout, or an ordered close point reached).
    fn flush(&mut self, write_timeout: Duration) -> bool {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.written += n;
                    self.last_progress = Instant::now();
                }
                Err(e) => match e.kind() {
                    std::io::ErrorKind::WouldBlock => {
                        // Backpressure: wait for `POLLOUT`, but not forever.
                        return self.last_progress.elapsed() <= write_timeout;
                    }
                    std::io::ErrorKind::Interrupted => continue,
                    _ => return false,
                },
            }
        }
        self.write_buf.clear();
        self.written = 0;
        let fully_answered = self.pending == 0 && self.ready.is_empty();
        if fully_answered && (self.close_when_flushed || self.eof) {
            return false;
        }
        true
    }

    /// `true` while response bytes wait for the socket to accept them.
    fn unflushed(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// `true` when nothing is owed to this connection.
    fn is_drained(&self) -> bool {
        self.pending == 0 && self.ready.is_empty() && !self.unflushed()
    }
}

/// What the server lends a handler for one call: live server-counter
/// access (for `stats` snapshots and coalesced-wait accounting) and the
/// admission queue's depth at pickup time.
pub struct HandlerContext<'a> {
    counters: &'a CounterCells,
    queue_depth: usize,
}

impl HandlerContext<'_> {
    /// The server's own counters, including the request being handled.
    pub fn server_counters(&self) -> ServerCounters {
        self.counters.snapshot()
    }

    /// Requests queued for admission when this call was picked up.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Records that this call waited on another request's in-flight
    /// compile instead of duplicating it.
    pub fn note_coalesced_wait(&self) {
        self.counters.bump(&self.counters.coalesced_waits);
    }
}

/// What a [`Server`] serves: both wire surfaces (legacy line-JSON and
/// HTTP) parse into the same [`Call`]s, and every admitted call lands
/// here on a worker thread. [`SessionHandler`] — the default — executes
/// calls against one local [`Session`]; the shard router implements the
/// same trait by forwarding to worker daemons instead, so both speak
/// identical wire surfaces.
pub trait CallHandler: Sync {
    /// Executes one admitted call. `id` is the legacy correlation id to
    /// echo (0 on the HTTP surface). A panic here is caught by the
    /// worker and answered with a typed `internal` error.
    fn handle(&self, id: u64, call: Call, ctx: &HandlerContext<'_>) -> Response;

    /// Called once, from the event loop, when a `shutdown` request
    /// starts the drain — after the shutdown response is queued and
    /// admission is closed. A router uses this to forward the shutdown
    /// to its worker shards; the default does nothing.
    fn on_shutdown(&self) {}
}

/// The default [`CallHandler`]: executes calls against one shared local
/// [`Session`], with in-flight group coalescing across workers.
pub struct SessionHandler {
    session: Arc<Session>,
    inflight: InflightGroups,
}

impl SessionHandler {
    /// Wraps a session for serving.
    pub fn new(session: Arc<Session>) -> Self {
        Self {
            session,
            inflight: InflightGroups::new(),
        }
    }

    /// The wrapped session.
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }
}

impl CallHandler for SessionHandler {
    fn handle(&self, id: u64, call: Call, ctx: &HandlerContext<'_>) -> Response {
        handle_call(id, call, &self.session, &self.inflight, ctx)
    }
}

/// The pulse-serving daemon: a TCP listener over a [`CallHandler`] —
/// by default a [`SessionHandler`] over one shared [`Session`]/pulse
/// library.
///
/// Built with [`Server::bind`] (so the OS-assigned port is known before
/// [`Server::run`] blocks), it serves until a client sends the
/// `shutdown` method (or `POST /shutdown`).
pub struct Server<H: CallHandler = SessionHandler> {
    handler: Arc<H>,
    listener: TcpListener,
    config: ServerConfig,
    local_addr: SocketAddr,
}

impl<H: CallHandler> std::fmt::Debug for Server<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Server<SessionHandler> {
    /// Binds the listener. The session is shared — the caller can keep a
    /// clone of the [`Arc`] and watch
    /// [`Session::library`](accqoc::Session::library) stats while the
    /// daemon serves.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(
        session: Arc<Session>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        Server::bind_with_handler(Arc::new(SessionHandler::new(session)), addr, config)
    }
}

impl<H: CallHandler> Server<H> {
    /// Binds the listener over an arbitrary [`CallHandler`] — the shard
    /// router's entry point. Both wire surfaces, admission, and
    /// connection handling behave exactly as with [`Server::bind`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with_handler(
        handler: Arc<H>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            handler,
            listener,
            config,
            local_addr,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `shutdown` request arrives, then drains and
    /// returns the final counters. All worker threads are joined before
    /// this returns.
    ///
    /// # Errors
    ///
    /// Propagates listener failures that make accepting impossible.
    pub fn run(&self) -> std::io::Result<ServerCounters> {
        self.listener.set_nonblocking(true)?;
        let workers = self.config.workers.max(1);
        let queue: BoundedQueue<Job> = BoundedQueue::new(self.config.queue_capacity);
        let counters = CounterCells::default();
        let handler: &H = &self.handler;
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        // Each worker writes one byte here after each completion; the
        // event loop polls the other end. Both ends are non-blocking: a
        // full socket already holds a pending wake.
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;

        std::thread::scope(|scope| -> std::io::Result<()> {
            let queue = &queue;
            let counters = &counters;
            for _ in 0..workers {
                let done = done_tx.clone();
                let mut wake = wake_tx.try_clone()?;
                scope.spawn(move || {
                    while let Some(job) = queue.pop() {
                        // Counted at pickup so a request's own `stats`
                        // snapshot includes itself.
                        counters.bump(&counters.requests_served);
                        let ctx = HandlerContext {
                            counters,
                            queue_depth: queue.len(),
                        };
                        let id = job.id;
                        // A panicking handler answers its own request with
                        // a typed error and keeps this worker in the pool:
                        // unanswered, the request would park every later
                        // reply on its connection behind its sequence
                        // number.
                        let response = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            handler.handle(id, job.call, &ctx)
                        }))
                        .unwrap_or_else(|panic| {
                            Response::failure(
                                id,
                                ErrorCode::Internal,
                                format!("handler panicked: {}", panic_message(&*panic)),
                            )
                        });
                        let bytes = render_response(&response, job.mode);
                        // A vanished client is not a daemon problem.
                        done.send(Completion {
                            token: job.token,
                            seq: job.seq,
                            bytes,
                        })
                        .ok();
                        wake.write_all(&[1]).ok();
                    }
                });
            }

            // Workers hold the only wake writers now: the event loop
            // reads end-of-file exactly when the whole pool has exited.
            drop(done_tx);
            drop(wake_tx);
            let on_shutdown = || handler.on_shutdown();
            let mut event_loop = EventLoop {
                listener: &self.listener,
                config: &self.config,
                queue,
                counters,
                done_rx,
                wake: &wake_rx,
                workers_done: false,
                conns: HashMap::new(),
                dirty: Vec::new(),
                next_token: 0,
                draining: false,
                on_shutdown: &on_shutdown,
            };
            let result = event_loop.run();
            // Whatever happened, release the workers so the scope joins.
            queue.close();
            result
        })?;
        Ok(counters.snapshot())
    }
}

/// The text a panic was raised with, when it is a string.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string payload")
}

/// The single-threaded reactor: accepts, reads, frames, dispatches, and
/// flushes every connection.
struct EventLoop<'a> {
    listener: &'a TcpListener,
    config: &'a ServerConfig,
    queue: &'a BoundedQueue<Job>,
    counters: &'a CounterCells,
    done_rx: mpsc::Receiver<Completion>,
    /// Read end of the wake socket the workers write to.
    wake: &'a UnixStream,
    /// The wake socket read end-of-file during a drain: every worker has
    /// exited, so it is no longer polled.
    workers_done: bool,
    conns: HashMap<u64, Conn>,
    /// Connections a completion touched since their last service.
    dirty: Vec<u64>,
    next_token: u64,
    draining: bool,
    /// The handler's shutdown hook, fired once when draining starts.
    on_shutdown: &'a dyn Fn(),
}

impl EventLoop<'_> {
    fn run(&mut self) -> std::io::Result<()> {
        let mut fds = Vec::new();
        let mut tokens = Vec::new();
        loop {
            while let Ok(done) = self.done_rx.try_recv() {
                self.complete(done);
            }
            self.dirty.sort_unstable();
            self.dirty.dedup();
            for token in std::mem::take(&mut self.dirty) {
                self.service(token, 0);
            }
            if self.draining && self.conns.values().all(Conn::is_drained) {
                return Ok(());
            }

            let watch_wake = !self.workers_done;
            let watch_listener = !self.draining;
            fds.clear();
            if watch_wake {
                fds.push(PollFd::new(self.wake.as_raw_fd(), POLLIN));
            }
            if watch_listener {
                fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            }
            let head = fds.len();
            let timeout = self.watch_conns(&mut fds, &mut tokens);
            sys::wait(&mut fds, timeout)?;

            let mut head_fds = fds[..head].iter();
            let wake_ready = watch_wake && head_fds.next().is_some_and(|fd| fd.revents() != 0);
            let accept_ready =
                watch_listener && head_fds.next().is_some_and(|fd| fd.revents() != 0);
            if wake_ready && !self.take_wakes()? {
                // Workers only exit once the queue closes; if they are
                // gone outside a drain, the pool died under us.
                if !self.draining {
                    return Err(std::io::Error::other("worker pool exited unexpectedly"));
                }
                self.workers_done = true;
            }
            if accept_ready {
                self.accept_ready()?;
            }
            for (fd, &token) in fds[head..].iter().zip(&tokens) {
                if fd.revents() != 0 {
                    self.service(token, fd.revents());
                }
            }
        }
    }

    /// Appends every connection to the poll set (its token to `tokens`,
    /// in the same order): `POLLIN` until its reads close, `POLLOUT`
    /// while it holds unflushed output. Returns the poll timeout: the
    /// nearest write-stall deadline, or none. A connection already past
    /// its deadline goes on the dirty list with a zero timeout, so the
    /// next pass drops it.
    fn watch_conns(&mut self, fds: &mut Vec<PollFd>, tokens: &mut Vec<u64>) -> Option<Duration> {
        tokens.clear();
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        for (&token, conn) in &self.conns {
            let mut events = 0;
            if !conn.reads_closed {
                events |= POLLIN;
            }
            if conn.unflushed() {
                events |= POLLOUT;
                let deadline = conn.last_progress + self.config.write_timeout;
                let left = deadline.saturating_duration_since(now);
                if left.is_zero() {
                    self.dirty.push(token);
                }
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            tokens.push(token);
        }
        timeout
    }

    /// Empties the wake socket. Returns `false` at end-of-file: every
    /// worker has exited.
    fn take_wakes(&self) -> std::io::Result<bool> {
        let (mut wake, mut buf) = (self.wake, [0u8; 64]);
        loop {
            match wake.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Slots a finished job's bytes into its connection's order (the
    /// connection may have dropped meanwhile — then the work is moot)
    /// and marks the connection for service.
    fn complete(&mut self, done: Completion) {
        if let Some(conn) = self.conns.get_mut(&done.token) {
            conn.pending -= 1;
            conn.ready.insert(done.seq, done.bytes);
            self.dirty.push(done.token);
        }
    }

    /// Accepts every connection the backlog holds right now.
    fn accept_ready(&mut self) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.config.max_connections {
                        // Refused, therefore never accepted: only the
                        // rejection counter moves.
                        self.counters.bump(&self.counters.connections_rejected);
                        refuse(stream, self.config);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.counters.bump(&self.counters.connections_accepted);
                    let token = self.next_token;
                    self.next_token += 1;
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                    ) =>
                {
                    // A peer that vanished mid-handshake is not a
                    // listener failure.
                    continue;
                }
                // Fatal listener failure: propagate; the caller drains.
                Err(e) => return Err(e),
            }
        }
    }

    /// One service pass over a connection with the events `poll`
    /// reported for it (0 when only a completion or a write deadline
    /// touched it): read when readable, frame, dispatch, and flush. Drops
    /// the connection when it is done, or when `revents` carries a
    /// hang-up or an error: the socket can deliver nothing more, and kept
    /// in the poll set it would wake every `poll` at once.
    fn service(&mut self, token: u64, revents: i16) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if revents & (POLLIN | POLLHUP | POLLERR) != 0 && !conn.reads_closed {
            conn.fill_read_buf();
            self.process_input(token, &mut conn);
        }
        conn.promote_ready();
        let dead = revents & (POLLHUP | POLLERR | POLLNVAL) != 0;
        if conn.flush(self.config.write_timeout) && !dead {
            self.conns.insert(token, conn);
        }
    }

    /// Consumes as many complete frames as `read_buf` holds.
    fn process_input(&mut self, token: u64, conn: &mut Conn) {
        loop {
            if conn.reads_closed {
                return;
            }
            let more = match conn.mode {
                Mode::Detect => self.detect_protocol(conn),
                Mode::Legacy => self.process_legacy(token, conn),
                Mode::Http => self.process_http(token, conn),
            };
            if !more {
                return;
            }
        }
    }

    /// Decides the connection's protocol from its first bytes. Returns
    /// `true` when a mode was selected and input processing should
    /// continue.
    fn detect_protocol(&mut self, conn: &mut Conn) -> bool {
        // Blank lines before the first frame are tolerated on both
        // surfaces.
        let skip = conn
            .read_buf
            .iter()
            .take_while(|&&b| b == b'\r' || b == b'\n')
            .count();
        if skip > 0 {
            conn.read_buf.drain(..skip);
        }
        if conn.read_buf.is_empty() {
            if conn.eof {
                conn.finish_reads();
            }
            return false;
        }
        if conn.read_buf[0] == b'{' {
            conn.mode = Mode::Legacy;
            return true;
        }
        if http::looks_like_http(&conn.read_buf) {
            conn.mode = Mode::Http;
            return true;
        }
        if conn.read_buf.contains(&b'\n') {
            // A complete first line that is neither JSON nor HTTP: let
            // the legacy decoder answer it with a typed malformed_json,
            // exactly as the line-protocol daemon always has.
            conn.mode = Mode::Legacy;
            return true;
        }
        if conn.read_buf.len() > self.config.max_line_bytes {
            self.legacy_violation(
                conn,
                ErrorCode::Oversized,
                format!("request line exceeds {} bytes", self.config.max_line_bytes),
            );
            return false;
        }
        if conn.eof {
            // Truncated garbage, then gone.
            self.counters.bump(&self.counters.protocol_errors);
            conn.finish_reads();
        }
        false
    }

    /// Frames and dispatches one legacy line, if complete. Returns
    /// `true` when another frame may follow immediately.
    fn process_legacy(&mut self, token: u64, conn: &mut Conn) -> bool {
        let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
            if conn.read_buf.len() > self.config.max_line_bytes {
                self.legacy_violation(
                    conn,
                    ErrorCode::Oversized,
                    format!("request line exceeds {} bytes", self.config.max_line_bytes),
                );
            } else if conn.eof {
                if !conn.read_buf.is_empty() {
                    // The client died mid-request. The daemon just
                    // notes it and moves on.
                    self.counters.bump(&self.counters.protocol_errors);
                }
                conn.finish_reads();
            }
            return false;
        };
        if pos > self.config.max_line_bytes {
            self.legacy_violation(
                conn,
                ErrorCode::Oversized,
                format!("request line exceeds {} bytes", self.config.max_line_bytes),
            );
            return false;
        }
        let decoded = Request::decode_frame(&conn.read_buf[..pos]);
        conn.read_buf.drain(..=pos);
        let Some(decoded) = decoded else {
            return true;
        };
        match decoded {
            Ok(request) => self.dispatch(token, conn, request.id, request.call, RenderMode::Legacy),
            Err(decode) => {
                // Malformed frame: typed error, connection stays usable.
                self.counters.bump(&self.counters.protocol_errors);
                let response = Response {
                    id: decode.id,
                    body: Err(decode.error),
                };
                conn.push_inline(render_response(&response, RenderMode::Legacy));
            }
        }
        true
    }

    /// Parses and dispatches one HTTP request, if complete. Returns
    /// `true` when a pipelined follow-up may be parsed immediately.
    fn process_http(&mut self, token: u64, conn: &mut Conn) -> bool {
        let parsed = http::parse_request(
            &conn.read_buf,
            self.config.max_line_bytes,
            self.config.max_line_bytes,
        );
        match parsed {
            HttpParse::Incomplete => {
                if conn.eof {
                    if !conn.read_buf.is_empty() {
                        self.counters.bump(&self.counters.protocol_errors);
                    }
                    conn.finish_reads();
                }
                false
            }
            HttpParse::Violation(error) => {
                // Framing cannot be trusted past the violation: answer
                // and close.
                self.counters.bump(&self.counters.protocol_errors);
                conn.push_inline(http::render_error(&error, Format::Compact, false));
                conn.read_buf.clear();
                conn.finish_reads();
                false
            }
            HttpParse::Request(request, consumed) => {
                conn.read_buf.drain(..consumed);
                let keep_alive = request.keep_alive;
                match http::route(&request) {
                    Ok((call, format)) => self.dispatch(
                        token,
                        conn,
                        0,
                        call,
                        RenderMode::Http { format, keep_alive },
                    ),
                    Err(error) => {
                        // Routing errors (404/405/bad body) keep the
                        // connection: the stream framing is intact.
                        self.counters.bump(&self.counters.protocol_errors);
                        conn.push_inline(http::render_error(&error, Format::Compact, keep_alive));
                    }
                }
                if keep_alive {
                    true
                } else {
                    conn.finish_reads();
                    false
                }
            }
        }
    }

    /// Answers a framing violation on the legacy surface and closes.
    fn legacy_violation(&mut self, conn: &mut Conn, code: ErrorCode, message: String) {
        self.counters.bump(&self.counters.protocol_errors);
        let response = Response::failure(0, code, message);
        conn.push_inline(render_response(&response, RenderMode::Legacy));
        conn.read_buf.clear();
        conn.finish_reads();
    }

    /// Routes one parsed call: shutdown inline (it must work even with a
    /// saturated queue), everything else through admission.
    fn dispatch(&mut self, token: u64, conn: &mut Conn, id: u64, call: Call, mode: RenderMode) {
        let seq = conn.alloc_seq();
        if matches!(call, Call::Shutdown) {
            let response = Response {
                id,
                body: Ok(Payload::Shutdown),
            };
            conn.ready.insert(seq, render_response(&response, mode));
            // Stop accepting, refuse new work, drain what is in flight.
            let first_shutdown = !self.draining;
            self.draining = true;
            self.queue.close();
            if first_shutdown {
                (self.on_shutdown)();
            }
            return;
        }
        let job = Job {
            token,
            seq,
            id,
            call,
            mode,
        };
        match self.queue.try_push(job) {
            Ok(()) => conn.pending += 1,
            Err(EnqueueError::Full) => {
                self.counters.bump(&self.counters.requests_rejected_busy);
                let response = Response::failure(
                    id,
                    ErrorCode::Busy,
                    format!(
                        "admission queue full ({} pending)",
                        self.config.queue_capacity
                    ),
                );
                conn.ready.insert(seq, render_response(&response, mode));
            }
            Err(EnqueueError::Closed) => {
                let response = Response::failure(id, ErrorCode::ShuttingDown, "daemon is draining");
                conn.ready.insert(seq, render_response(&response, mode));
            }
        }
    }
}

/// Writes the connection-limit refusal on a socket that was never
/// admitted. The frame is tiny (fits any socket buffer), but the write
/// timeout keeps a pathological peer from stalling the event loop.
fn refuse(mut stream: TcpStream, config: &ServerConfig) {
    stream.set_nonblocking(false).ok();
    stream.set_write_timeout(Some(config.write_timeout)).ok();
    let refusal = Response::failure(
        0,
        ErrorCode::Busy,
        format!("connection limit reached ({})", config.max_connections),
    );
    let mut line = refusal.encode().into_bytes();
    line.push(b'\n');
    stream.write_all(&line).ok();
}

/// Parses a request's QASM into a program that fits `session`'s device.
/// A parse error and a program wider than the device are both the
/// client's `qasm` error, caught before the front end (whose mapper
/// panics on a program wider than the device).
pub(crate) fn parse_program(session: &Session, qasm: &str) -> Result<Circuit, WireError> {
    let qasm_error = |message: String| WireError::new(ErrorCode::Qasm, message);
    let circuit = parse_qasm(qasm).map_err(|e| qasm_error(e.to_string()))?;
    session
        .check_width(&circuit)
        .map_err(|e| qasm_error(e.to_string()))?;
    Ok(circuit)
}

/// The library's pulses for `keys`, plus the keys it does not hold,
/// sorted and deduplicated (a capacity-bounded library may have evicted
/// them).
fn cached_pulses(
    session: &Session,
    keys: impl IntoIterator<Item = UnitaryKey>,
) -> (PulseCache, Vec<UnitaryKey>) {
    let mut pulses = PulseCache::new();
    let mut missing = Vec::new();
    for key in keys {
        match session.cached(&key) {
            Some(entry) => {
                pulses.insert(key, entry);
            }
            None => missing.push(key),
        }
    }
    missing.sort();
    missing.dedup();
    (pulses, missing)
}

/// Executes one admitted call against the shared session.
fn handle_call(
    id: u64,
    call: Call,
    session: &Session,
    inflight: &InflightGroups,
    ctx: &HandlerContext<'_>,
) -> Response {
    let compile_failure =
        |e: accqoc::Error| Response::failure(id, ErrorCode::Compile, e.to_string());
    match call {
        Call::ServeProgram {
            qasm,
            return_pulses,
            only_qubits,
        } => {
            let circuit = match parse_program(session, &qasm) {
                Ok(c) => c,
                Err(e) => return Response { id, body: Err(e) },
            };
            // Coalesce with other in-flight compiles of the same groups:
            // claim what the library still misses; waiting here means
            // another worker is compiling a shared group right now, and
            // it will resolve as a hit once published. The front end
            // runs once — the serve reuses the same GroupReport. In
            // router mode only the owned groups are claimed (the rest
            // belong to other shards and are never compiled here).
            let grouped = session.front_end(&circuit);
            let options = accqoc::ServeOptions {
                only_qubits,
                ..accqoc::ServeOptions::default()
            };
            let owned = |n_qubits: usize| {
                options
                    .only_qubits
                    .as_deref()
                    .is_none_or(|widths| widths.contains(&n_qubits))
            };
            let keys: Vec<_> = grouped
                .targets
                .iter()
                .filter(|t| owned(t.n_qubits))
                .map(|t| t.key.clone())
                .collect();
            let claim = inflight.claim(&keys, |k| !session.cache_contains(k));
            if claim.waited() {
                ctx.note_coalesced_wait();
            }
            let report = match session.serve_grouped(&grouped, &options) {
                Ok(report) => report,
                Err(e) => return compile_failure(e),
            };
            // Read the group pulses back while naming what a
            // capacity-bounded library already evicted — a silently
            // short cache would let the client mistake "evicted" for
            // "never existed".
            let (pulses, missing) = if return_pulses {
                let (cache, missing) =
                    cached_pulses(session, report.groups.iter().map(|g| g.key.clone()));
                (Some(cache), missing)
            } else {
                (None, Vec::new())
            };
            Response {
                id,
                body: Ok(Payload::Serve {
                    report,
                    pulses,
                    missing,
                }),
            }
        }
        Call::Precompile {
            programs,
            only_qubits,
        } => {
            let mut circuits = Vec::with_capacity(programs.len());
            for qasm in &programs {
                match parse_program(session, qasm) {
                    Ok(c) => circuits.push(c),
                    Err(e) => return Response { id, body: Err(e) },
                }
            }
            // Precompile coalesces too: claim the union of the batch's
            // (owned) group keys so a concurrent serve (or second
            // precompile) of an overlapping group waits instead of
            // duplicating GRAPE.
            let owned = |n_qubits: usize| {
                only_qubits
                    .as_deref()
                    .is_none_or(|widths| widths.contains(&n_qubits))
            };
            let mut keys: Vec<_> = circuits
                .iter()
                .flat_map(|c| {
                    session
                        .front_end(c)
                        .targets
                        .into_iter()
                        .filter(|t| owned(t.n_qubits))
                        .map(|t| t.key)
                        .collect::<Vec<_>>()
                })
                .collect();
            keys.sort();
            keys.dedup();
            let claim = inflight.claim(&keys, |k| !session.cache_contains(k));
            if claim.waited() {
                ctx.note_coalesced_wait();
            }
            let options = accqoc::PrecompileOptions {
                only_qubits: only_qubits.as_deref(),
                threads: None,
            };
            match session.precompile(&circuits, &options) {
                Ok((report, _)) => Response {
                    id,
                    body: Ok(Payload::Precompile(PrecompileSummary {
                        n_programs: report.n_programs,
                        n_unique_groups: report.n_unique_groups,
                        total_iterations: report.total_iterations,
                    })),
                },
                Err(e) => compile_failure(e),
            }
        }
        Call::VerifyProgram { qasm } => {
            let circuit = match parse_program(session, &qasm) {
                Ok(c) => c,
                Err(e) => return Response { id, body: Err(e) },
            };
            match session.verify_program(&circuit) {
                Ok(report) => Response {
                    id,
                    body: Ok(Payload::Verify(report)),
                },
                Err(e) => compile_failure(e),
            }
        }
        Call::Stats => Response {
            id,
            body: Ok(Payload::Stats(StatsSnapshot {
                library: session.library().stats(),
                server: ctx.server_counters(),
                library_len: session.cache_len(),
                queue_depth: ctx.queue_depth(),
            })),
        },
        Call::Pulses { keys } => {
            let (pulses, missing) = cached_pulses(session, keys);
            Response {
                id,
                body: Ok(Payload::Pulses { pulses, missing }),
            }
        }
        Call::Library { limit, offset } => {
            // Key order, cut under the library lock: only the page's rows
            // are built.
            let (total, page) =
                session
                    .library()
                    .page(offset, limit, |key, cached| LibraryEntryInfo {
                        key: hex_encode(key.as_bytes()),
                        n_qubits: cached.n_qubits,
                        latency_ns: cached.latency_ns,
                        iterations: cached.iterations,
                        n_steps: cached.pulse.n_steps(),
                    });
            Response {
                id,
                body: Ok(Payload::Library(LibraryPage {
                    total,
                    offset,
                    limit,
                    entries: page,
                })),
            }
        }
        // Shutdown never reaches the pool (the event loop handles it
        // inline), but answer sanely if a future refactor routes it
        // here.
        Call::Shutdown => Response {
            id,
            body: Ok(Payload::Shutdown),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_rendering_is_one_terminated_line() {
        let response = Response::failure(3, ErrorCode::Busy, "full");
        let bytes = render_response(&response, RenderMode::Legacy);
        assert_eq!(bytes.last(), Some(&b'\n'));
        let line = std::str::from_utf8(&bytes[..bytes.len() - 1]).unwrap();
        assert!(!line.contains('\n'), "one frame per line");
        assert_eq!(Response::decode(line).unwrap(), response);
    }

    #[test]
    fn http_rendering_maps_errors_to_statuses() {
        let response = Response::failure(0, ErrorCode::Busy, "full");
        let bytes = render_response(
            &response,
            RenderMode::Http {
                format: Format::Compact,
                keep_alive: true,
            },
        );
        assert!(bytes.starts_with(b"HTTP/1.1 503 "));
    }

    #[test]
    fn conn_delivers_responses_in_request_order() {
        // A socket is irrelevant here; use a loopback pair purely as a
        // valid stream handle.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(stream);
        let a = conn.alloc_seq();
        let b = conn.alloc_seq();
        let c = conn.alloc_seq();
        // Completions land out of order…
        conn.ready.insert(c, b"C".to_vec());
        conn.promote_ready();
        assert!(conn.write_buf.is_empty(), "seq 2 must wait for 0 and 1");
        conn.ready.insert(a, b"A".to_vec());
        conn.ready.insert(b, b"B".to_vec());
        conn.promote_ready();
        // …but flush in request order.
        assert_eq!(conn.write_buf, b"ABC");
    }
}
