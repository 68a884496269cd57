//! An idle daemon costs no CPU: the event loop blocks on socket
//! readiness instead of waking on a timer, so 256 open connections that
//! send nothing keep it asleep.
//!
//! The measurement is this process's own CPU time from `/proc/self/stat`,
//! so the test lives in its own binary: no other test shares the
//! process. It starts no thread besides the server's (the event loop
//! and its workers); the idle connections are opened from the test
//! thread, which then sleeps.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accqoc::Session;
use accqoc_hw::Topology;
use accqoc_server::{Client, Server, ServerConfig};

/// Idle connections held open.
const CONNECTIONS: usize = 256;

/// How long they are held.
const IDLE: Duration = Duration::from_secs(2);

/// CPU the whole process may spend meanwhile, as a share of one core.
const MAX_CORE_SHARE: f64 = 0.02;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on
/// every Linux architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far: fields 14 and 15 of
/// `/proc/self/stat`. The fields are counted after the parenthesized
/// command name, which may itself hold spaces.
fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("comm is parenthesized") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field 14 is `fields[11]`.
    let ticks = |field: usize| -> f64 { fields[field - 3].parse().expect("tick count") };
    Duration::from_secs_f64((ticks(14) + ticks(15)) / USER_HZ)
}

#[test]
fn idle_connections_cost_no_cpu() {
    let session = Session::builder()
        .topology(Topology::linear(2))
        .build()
        .expect("valid session");
    let server =
        Server::bind(Arc::new(session), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    let idle: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // Answered on a connection opened after the idle ones, so the server
    // has accepted all of them.
    let mut client = Client::connect(addr).expect("connect");
    let accepted = client.stats().expect("stats").server.connections_accepted;
    assert_eq!(accepted, CONNECTIONS as u64 + 1);

    let (cpu_before, wall_before) = (cpu_time(), Instant::now());
    std::thread::sleep(IDLE);
    let (cpu, wall) = (cpu_time() - cpu_before, wall_before.elapsed());
    let share = cpu.as_secs_f64() / wall.as_secs_f64();

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server ran");
    drop(idle);
    println!(
        "{CONNECTIONS} idle connections: {:.1} ms of CPU in {:.2} s",
        cpu.as_secs_f64() * 1e3,
        wall.as_secs_f64()
    );
    assert!(
        share <= MAX_CORE_SHARE,
        "{CONNECTIONS} idle connections cost {:.1} ms of CPU in {:.2} s ({:.1} % of a core, limit {:.0} %)",
        cpu.as_secs_f64() * 1e3,
        wall.as_secs_f64(),
        share * 100.0,
        MAX_CORE_SHARE * 100.0,
    );
}
