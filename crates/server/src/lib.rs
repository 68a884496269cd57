//! `accqoc-server`: a multi-client pulse-serving daemon over the live
//! AccQOC pulse library.
//!
//! The paper's result is that pre-compilation plus similarity warm
//! starts make pulse generation cheap enough to keep up with compilation
//! demand; this crate is where that claim meets traffic. A [`Server`]
//! owns one shared [`accqoc::Session`] (and therefore one fingerprint-
//! indexed [`accqoc::PulseLibrary`]) and exposes it on a TCP socket
//! speaking two wire surfaces, auto-detected per connection:
//!
//! - the newline-delimited JSON line protocol ([`protocol`]) with seven
//!   methods: `serve_program`, `precompile`, `verify_program`, `stats`,
//!   `library`, `pulses`, and `shutdown`;
//! - HTTP/1.1 ([`http`]): `POST /serve`, `POST /precompile`,
//!   `POST /verify`, `GET /stats`, `GET /library` (limit/offset
//!   pagination), `POST /shutdown`, with `.json`/`.pretty` format
//!   suffixes for compact vs indented bodies.
//!
//! Everything is `std`-only (this workspace builds offline): the
//! transport is a non-blocking event loop over [`std::net::TcpListener`]
//! (one thread multiplexes every connection and sleeps in `poll(2)` until
//! one is ready, so idle clients cost a registry entry instead of an OS
//! thread or CPU time; Unix only), the worker pool is the same
//! [`std::thread::scope`] pattern as the batch engine behind a threaded
//! `accqoc::Session::precompile`, and the wire format reuses
//! `accqoc::json`.
//!
//! Three properties define the daemon's behavior under load:
//!
//! - **admission control** — requests pass through a bounded queue
//!   ([`queue::BoundedQueue`]); when it is full the client gets a typed
//!   `busy` error immediately. The accept loop never blocks on the
//!   backlog.
//! - **in-flight coalescing** — two clients requesting the same unitary
//!   trigger one GRAPE run ([`inflight::InflightGroups`]): the second
//!   waits for the first's pulse to land in the library and serves it as
//!   a cache hit.
//! - **in-process fidelity** — responses carry the same
//!   [`accqoc::ServeReport`] / [`accqoc::LibraryStats`] counters as the
//!   in-process path, and served pulses are byte-identical to what
//!   [`accqoc::Session::serve_program`] produces (the `server` bench bin
//!   asserts this over loopback).
//!
//! The same event loop also hosts the sharded tier: [`router`] is a
//! [`server::CallHandler`] that partitions the library across N worker
//! daemons by a consistent-hash ring on group width, while speaking
//! both wire surfaces unchanged (see `ARCHITECTURE.md`, "Sharded
//! serving tier").
//!
//! # Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use accqoc::Session;
//! use accqoc_hw::Topology;
//! use accqoc_server::{Client, Server, ServerConfig};
//!
//! let session = Arc::new(Session::builder().topology(Topology::linear(2)).build()?);
//! let server = Server::bind(session, "127.0.0.1:0", ServerConfig::default())?;
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let circuit = accqoc_circuit::parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")?;
//! let (report, _) = client.serve_program(&circuit, false).unwrap();
//! println!("latency {:.1} ns", report.overall_latency_ns);
//! client.shutdown().unwrap();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cli;
pub mod client;
pub mod http;
pub mod inflight;
pub mod protocol;
pub mod queue;
pub mod router;
pub mod server;
#[allow(unsafe_code)]
mod sys;

pub use client::{Client, ClientError};
pub use protocol::{
    Call, ErrorCode, LibraryEntryInfo, LibraryPage, Payload, PrecompileSummary, Request, Response,
    ServerCounters, StatsSnapshot, WireError,
};
pub use router::{RouterConfig, RouterHandler};
pub use server::{CallHandler, HandlerContext, Server, ServerConfig, SessionHandler};
