//! Smoke test of the benchmark: every workload at minimal length runs
//! green, every emitted name is well-formed, and a pulse corrupted in the
//! hot set's data dir is counted as a failure.
//!
//! Builds the workspace `daemon` next to the test binaries and builds the
//! hot set once (about 90 s of GRAPE), so it takes a few minutes:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use accqoc::json::{self, JsonValue};

/// Metric names a `BENCHMARK.json` list declares, in order.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    json::parse(&text)
        .expect("BENCHMARK.json is JSON")
        .get(list)
        .and_then(JsonValue::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Builds the release `daemon` into the target dir of this test and
/// returns its path.
fn daemon() -> PathBuf {
    let bench = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let target = bench
        .parent()
        .and_then(Path::parent)
        .expect("binary lives in <target>/<profile>/");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "accqoc-server",
            "--bin",
            "daemon",
        ])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "daemon build failed");
    target.join("release").join("daemon")
}

/// Runs one workload for one second and parses its result line.
fn run(daemon: &Path, work: &Path, workload: &str, trace: bool) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--daemon")
        .arg(daemon)
        .arg("--work-dir")
        .arg(work)
        .output()
        .expect("perfbench runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    json::parse(line).expect("the result line is JSON")
}

fn metric_names(result: &JsonValue) -> Vec<String> {
    match result.get("metrics") {
        Some(JsonValue::Object(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn assert_green(result: &JsonValue, workload: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_usize), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_usize) >= Some(1));
    for name in metric_names(result) {
        assert!(well_formed(&name), "{workload}: bad metric name `{name}`");
    }
}

/// Perturbs one amplitude of the pulse stored under the first group key
/// of `expected` (a hot program's pulse artifact) in a data dir's
/// snapshot.
fn corrupt_pulse(snapshot: &Path, expected: &Path) {
    let expected = std::fs::read_to_string(expected).expect("expected pulses exist");
    let key_field = "\"key\": \"";
    let start = expected.find(key_field).expect("a keyed entry") + key_field.len();
    let key = &expected[start..start + expected[start..].find('"').expect("key ends")];
    let mut text = std::fs::read_to_string(snapshot).expect("snapshot exists");
    let entry = text
        .find(&format!("{key_field}{key}\""))
        .expect("the key is in the snapshot");
    let amps = entry
        + text[entry..]
            .find("\"amps\"")
            .expect("the entry has a pulse");
    let at = amps
        + text[amps..]
            .find(|c: char| c.is_ascii_digit())
            .expect("an amplitude digit");
    let digit = if &text[at..=at] == "1" { "2" } else { "1" };
    text.replace_range(at..=at, digit);
    std::fs::write(snapshot, text).expect("snapshot rewritten");
}

#[test]
fn workloads_run_green_and_a_corrupt_pulse_fails() {
    let daemon = daemon();
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    std::fs::remove_dir_all(&tmp).ok();
    let work = tmp.join("work");
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));

    for workload in ["golden_cold", "hot_daemon", "durable_churn"] {
        let untraced = run(&daemon, &work, workload, false);
        assert_green(&untraced, workload);
        assert_eq!(metric_names(&untraced), end_to_end, "{workload}");
        for name in &end_to_end {
            assert!(metric(&untraced, name) > 0.0, "{workload}: {name} is 0");
        }
        let traced = run(&daemon, &work, workload, true);
        assert_green(&traced, workload);
        let mut names = metric_names(&traced);
        names.sort();
        let mut expected = per_layer.clone();
        expected.sort();
        assert_eq!(names, expected, "{workload}");
        assert_eq!(metric(&traced, "failed_share"), 0.0);
        assert_eq!(metric(&traced, "grape.recompile_valid"), 1.0, "{workload}");
    }

    // A pulse corrupted in a copy of the hot set's data dir: the daemon
    // boots from it and serves the corrupt bytes, so the requests for the
    // program holding that pulse must count as failed.
    let corrupt = tmp.join("corrupt");
    let copy = |from: &Path, to: &Path| {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
            }
        }
    };
    for sub in ["hotset", "hotset/data", "hotset/expected"] {
        copy(&work.join(sub), &corrupt.join(sub));
    }
    // Hot program 0 heads the zipf mix, so a one-second run requests it.
    corrupt_pulse(
        &corrupt.join("hotset/data/snapshot.json"),
        &corrupt.join("hotset/expected/0.json"),
    );
    let result = run(&daemon, &corrupt, "hot_daemon", true);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
    assert!(result.get("failed").and_then(JsonValue::as_usize) > Some(0));
    assert!(metric(&result, "failed_share") > 0.0);
}
