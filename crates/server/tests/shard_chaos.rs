//! Deterministic shard-chaos test: kill a worker daemon mid-stream,
//! assert the router answers with a typed `shard_unavailable` error in
//! bounded time (never a hang), restart the worker from its data dir,
//! and assert the resumed stream's reports are byte-identical to an
//! uninterrupted single-process baseline — with the recovered WAL
//! prefix re-serving as exact hits, zero scratch recompiles.
//!
//! The workers are real `daemon` subprocesses with `--data-dir` per
//! shard (the deployment shape the README walks through); the router
//! runs in-process over loopback.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use accqoc::Session;
use accqoc_circuit::{Circuit, Gate};
use accqoc_hw::Topology;
use accqoc_server::router::{RouterConfig, RouterHandler};
use accqoc_server::{Client, ClientError, ErrorCode, Server, ServerConfig};
use accqoc_workloads::uccsd_slice;

const QUBITS: usize = 3;
const MAX_ITERS: usize = 150;

fn tiny_session() -> Session {
    let mut grape = accqoc_grape::GrapeOptions::default();
    grape.stop.max_iters = MAX_ITERS;
    Session::builder()
        .topology(Topology::linear(QUBITS))
        .grape(grape)
        .build()
        .expect("valid session")
}

struct Worker {
    child: Child,
    // Keeps the stdout pipe readable for the daemon's lifetime: dropping
    // it would make the daemon's shutdown println fail on a closed pipe.
    stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

fn spawn_worker(addr: &str, data_dir: &Path) -> Worker {
    let mut child = Command::new(env!("CARGO_BIN_EXE_daemon"))
        .args([
            "--addr",
            addr,
            "--qubits",
            &QUBITS.to_string(),
            "--max-iters",
            &MAX_ITERS.to_string(),
            "--workers",
            "1",
            "--data-dir",
            data_dir.to_str().expect("utf-8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn daemon");
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("daemon stdout");
        assert!(n > 0, "daemon exited before announcing its address");
        if let Some(rest) = line.strip_prefix("accqoc-server listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after prefix")
                .to_string();
        }
    };
    Worker {
        child,
        stdout,
        addr,
    }
}

fn temp_base() -> PathBuf {
    let base = std::env::temp_dir().join(format!("accqoc-shard-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create temp base");
    base
}

#[test]
fn killed_shard_yields_typed_error_and_resumes_byte_identically() {
    let base = temp_base();

    // The stream: two distinct programs, a repeat of the first (the
    // position the chaos hits — in the baseline it is all exact hits),
    // then two fresh programs that exercise post-recovery compiles and
    // warm starts on both active shards.
    let programs = [
        Circuit::from_gates(QUBITS, [Gate::H(0), Gate::Cx(0, 1), Gate::T(2)]),
        uccsd_slice(QUBITS, 0, 0.10),
        uccsd_slice(QUBITS, 0, 0.14),
        Circuit::from_gates(QUBITS, [Gate::Rz(0, 0.3), Gate::Cx(1, 2), Gate::H(1)]),
    ];
    let stream = [0usize, 1, 0, 2, 3];
    const KILL_AT: usize = 2;

    // Uninterrupted single-process baseline.
    let baseline = tiny_session();
    let base_reports: Vec<_> = stream
        .iter()
        .map(|&i| baseline.serve_program(&programs[i]).expect("serves"))
        .collect();
    assert!(
        base_reports[KILL_AT].groups.iter().all(|g| g.hit),
        "the chaos position must be an all-hits repeat in the baseline"
    );

    // Three workers (the stream's widths 1 and 2 occupy two of them; the
    // third idles), each a subprocess with its own durable store under
    // base/shard-<i>.
    let mut workers: Vec<Worker> = (0..3)
        .map(|i| spawn_worker("127.0.0.1:0", &base.join(format!("shard-{i}"))))
        .collect();
    let shard_addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();

    // Tight retry budget so deadness is detected fast; the read timeout
    // stays generous because live compiles take real time.
    let config = RouterConfig {
        attempts: 2,
        backoff: Duration::from_millis(5),
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(60),
    };
    let handler = Arc::new(RouterHandler::new(
        Arc::new(tiny_session()),
        shard_addrs.clone(),
        config,
    ));
    // The owner of width 2 is the kill target — it owns every
    // entangling group of the stream.
    let victim = handler.owner_of(2);
    let router = Server::bind_with_handler(handler, "127.0.0.1:0", ServerConfig::default())
        .expect("bind router");
    let router_addr = router.local_addr();
    let router_handle = std::thread::spawn(move || router.run());
    let mut client = Client::connect(router_addr).expect("connect router");

    // Serve the prefix; these compile the shard libraries.
    for pos in 0..KILL_AT {
        let (report, _, _) = client
            .serve_program_full(&programs[stream[pos]], false, None)
            .expect("prefix serves");
        assert_eq!(report, base_reports[pos], "prefix diverged at {pos}");
    }

    // Chaos: kill the width-2 owner mid-stream.
    workers[victim].child.kill().expect("kill shard");
    workers[victim].child.wait().expect("reap shard");

    // The next request needs the victim: the router must answer with the
    // typed error, bounded by its retry budget — never a hang.
    let started = std::time::Instant::now();
    let err = client
        .serve_program_full(&programs[stream[KILL_AT]], false, None)
        .expect_err("the width-2 owner is dead");
    let elapsed = started.elapsed();
    match err {
        ClientError::Remote(wire) => assert_eq!(
            wire.code,
            ErrorCode::ShardUnavailable,
            "expected shard_unavailable, got {wire}"
        ),
        other => panic!("expected a typed remote error, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "shard death must be detected in bounded time, took {elapsed:?}"
    );

    // Restart the worker from its data dir on the same address; the WAL
    // replay restores its library slice.
    workers[victim] = spawn_worker(&shard_addrs[victim], &base.join(format!("shard-{victim}")));

    // The failed request now succeeds, byte-identical to the baseline's
    // uninterrupted report at this position: the recovered entries serve
    // as exact hits, not recompiles.
    let (report, _, _) = client
        .serve_program_full(&programs[stream[KILL_AT]], false, None)
        .expect("resumes after restart");
    assert_eq!(report, base_reports[KILL_AT], "resume diverged");

    // Straight to the restarted shard: its recovered prefix re-served as
    // hits — zero scratch (and zero warm) recompiles of persisted groups.
    let mut direct = Client::connect(&*workers[victim].addr).expect("connect restarted shard");
    let stats = direct.stats().expect("shard stats");
    assert!(
        stats.library.hits > 0,
        "recovered entries must serve as hits"
    );
    assert_eq!(stats.library.scratch_compiles, 0, "no scratch recompiles");
    assert_eq!(stats.library.warm_compiles, 0, "no warm recompiles");
    assert_eq!(
        stats.library_len,
        base_reports[..KILL_AT]
            .iter()
            .flat_map(|r| r.groups.iter())
            .filter(|g| g.n_qubits == 2)
            .map(|g| &g.key)
            .collect::<std::collections::HashSet<_>>()
            .len(),
        "the recovered store holds exactly the width-2 groups compiled before the kill"
    );
    drop(direct);

    // The rest of the stream compiles fresh groups on both shards —
    // post-recovery warm-start chains continue byte-identically.
    for pos in KILL_AT + 1..stream.len() {
        let (report, _, _) = client
            .serve_program_full(&programs[stream[pos]], false, None)
            .expect("tail serves");
        assert_eq!(report, base_reports[pos], "tail diverged at {pos}");
    }

    // One shutdown through the router drains the whole deployment.
    client.shutdown().expect("shutdown");
    router_handle
        .join()
        .expect("router thread")
        .expect("router ran");
    for mut worker in workers {
        let status = worker.child.wait().expect("worker exits");
        assert!(status.success(), "worker exited with {status}");
        // Drain whatever the daemon printed while shutting down.
        let mut rest = String::new();
        use std::io::Read;
        worker.stdout.read_to_string(&mut rest).ok();
    }
    let _ = std::fs::remove_dir_all(&base);
}
