//! The workspace `daemon` binary as a child process, and the hot set's
//! data dir it boots from.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accqoc::json::{self, JsonValue};
use accqoc_server::Client;
use accqoc_workloads::BenchProgram;

use crate::programs::{self, MAX_ITERS, QUBITS};

type Error = Box<dyn std::error::Error + Send + Sync>;
type Result<T> = std::result::Result<T, Error>;

/// How long a daemon may take to print its listening line or to exit
/// after a shutdown request.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon child. Dropping it kills and reaps the process, so
/// no path out of the benchmark leaves a daemon behind.
pub struct Daemon {
    child: Option<Child>,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// The address the daemon listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Boots `bin` on a free loopback port over `data_dir` with the
    /// benchmark's device and GRAPE configuration, waiting for its
    /// listening line.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<Self> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(["--qubits", &QUBITS.to_string()])
            .args(["--max-iters", &MAX_ITERS.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let (tx, lines) = mpsc::channel();
        // The reader ends at EOF, when the daemon exits.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(|l| l.ok()) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Self {
            child: Some(child),
            lines,
            reader: Some(reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            let line = daemon
                .lines
                .recv_timeout(wait)
                .map_err(|_| "daemon exited or stalled before listening")?;
            if let Some(rest) = line.strip_prefix("accqoc-server listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr = addr
                    .parse()
                    .map_err(|e| format!("listening line `{line}`: {e}"))?;
                return Ok(daemon);
            }
        }
    }

    /// Process id, for `/proc` reads.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set of the daemon so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::stats::peak_rss_mb(&self.pid().to_string())
    }

    /// Sends `shutdown` and waits for a clean exit (the daemon
    /// checkpoints its data dir first).
    pub fn shutdown(mut self) -> Result<()> {
        Client::connect(self.addr)?.shutdown()?;
        let deadline = Instant::now() + PROCESS_TIMEOUT;
        let child = self.child.as_mut().ok_or("daemon already reaped")?;
        let status = loop {
            if let Some(status) = child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err("daemon did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        self.child = None;
        self.join_reader();
        if !status.success() {
            return Err(format!("daemon exited with {status}").into());
        }
        Ok(())
    }

    fn join_reader(&mut self) {
        if let Some(reader) = self.reader.take() {
            reader.join().ok();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        self.join_reader();
    }
}

/// One hot-set program with what the setup run recorded for it.
pub struct HotProgram {
    /// The program.
    pub program: BenchProgram,
    /// Its pulses as the setup daemon returned them (the byte reference).
    pub pulses_json: String,
    /// Its overall pulse latency, ns.
    pub overall_latency_ns: f64,
}

/// The hot set's data dir and byte references.
pub struct HotSet {
    /// Daemon data dir holding the hot set's pulses.
    pub data_dir: PathBuf,
    /// The programs, in hot-set order.
    pub programs: Vec<HotProgram>,
}

/// Loads the hot set from `work/hotset`, building it first when absent or
/// built by another daemon binary: a daemon over an empty data dir serves
/// the hot set once in order and checkpoints on shutdown. Built once per
/// build of the daemon; every run copies the data dir before booting from
/// it.
pub fn ensure_hot_set(bin: &Path, work: &Path) -> Result<HotSet> {
    let dir = work.join("hotset");
    let daemon = file_digest(bin)?;
    if built_by(&dir).as_deref() != Some(daemon.as_str()) {
        if dir.exists() {
            // Pulses of other code: its checks would compare old with old.
            std::fs::remove_dir_all(&dir)?;
        }
        let tmp = work.join(format!("hotset.tmp-{}", std::process::id()));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp)?;
        }
        std::fs::create_dir_all(tmp.join("expected"))?;
        let started = Instant::now();
        if let Err(e) = build_hot_set(bin, &daemon, &tmp) {
            std::fs::remove_dir_all(&tmp).ok();
            return Err(e);
        }
        eprintln!(
            "perfbench: built the hot set in {:.1} s",
            started.elapsed().as_secs_f64()
        );
        if std::fs::rename(&tmp, &dir).is_err() {
            // Another run built it first; keep theirs.
            std::fs::remove_dir_all(&tmp).ok();
        }
    }
    load_hot_set(&dir)
}

/// FNV-1a digest of a file's bytes, in hex.
fn file_digest(path: &Path) -> Result<String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Ok(format!("{hash:016x}"))
}

/// Digest of the daemon binary that built the hot set in `dir`, if any.
fn built_by(dir: &Path) -> Option<String> {
    let text = std::fs::read_to_string(dir.join("programs.json")).ok()?;
    let doc = json::parse(&text).ok()?;
    doc.get("daemon").and_then(JsonValue::as_str).map(str::to_string)
}

fn build_hot_set(bin: &Path, daemon_digest: &str, tmp: &Path) -> Result<()> {
    let daemon = Daemon::spawn(bin, &tmp.join("data"))?;
    let mut client = Client::connect(daemon.addr)?;
    let mut rows = Vec::new();
    for (i, p) in programs::hot_set().iter().enumerate() {
        let (report, pulses) = client.serve_program(&p.circuit, true)?;
        let pulses = pulses.ok_or("setup serve returned no pulses")?;
        std::fs::write(
            tmp.join("expected").join(format!("{i}.json")),
            pulses.to_json(),
        )?;
        rows.push(JsonValue::Object(vec![
            ("name".into(), JsonValue::String(p.name.clone())),
            (
                "overall_latency_ns".into(),
                JsonValue::Number(report.overall_latency_ns),
            ),
        ]));
    }
    drop(client);
    daemon.shutdown()?;
    let doc = JsonValue::Object(vec![
        ("daemon".into(), JsonValue::String(daemon_digest.into())),
        ("programs".into(), JsonValue::Array(rows)),
    ]);
    std::fs::write(tmp.join("programs.json"), doc.to_pretty())?;
    Ok(())
}

fn load_hot_set(dir: &Path) -> Result<HotSet> {
    let doc = json::parse(&std::fs::read_to_string(dir.join("programs.json"))?)?;
    let rows = doc
        .get("programs")
        .and_then(JsonValue::as_array)
        .ok_or("programs.json has no program list")?;
    let hot = programs::hot_set();
    if rows.len() != hot.len() {
        return Err("hot set changed since its data dir was built".into());
    }
    let mut programs = Vec::new();
    for (i, (row, program)) in rows.iter().zip(hot).enumerate() {
        if row.get("name").and_then(JsonValue::as_str) != Some(program.name.as_str()) {
            return Err("hot set changed since its data dir was built".into());
        }
        programs.push(HotProgram {
            program,
            pulses_json: std::fs::read_to_string(dir.join("expected").join(format!("{i}.json")))?,
            overall_latency_ns: row
                .get("overall_latency_ns")
                .and_then(JsonValue::as_f64)
                .ok_or("programs.json row without latency")?,
        });
    }
    Ok(HotSet {
        data_dir: dir.join("data"),
        programs,
    })
}

/// Copies the files of `src` into a fresh `dst`.
pub fn copy_dir(src: &Path, dst: &Path) -> Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}
