//! Strict flag parsing for the daemon and router binaries.
//!
//! Two failure modes of the old ad-hoc parser motivated this module:
//! unknown flags were silently ignored (a typo like `--worker 8` ran a
//! 2-worker daemon without a word), and a flag would happily consume a
//! following flag as its value (`--addr --qubits` bound a listener to
//! the address `--qubits`). Here every argument must be a known flag,
//! every flag must have a value, and a value that itself looks like a
//! flag is rejected — write `--flag=value` for the rare literal that
//! genuinely starts with `--`.

use crate::server::ServerConfig;

/// Usage text the binary prints for `--help` and under parse errors.
pub const USAGE: &str = "\
accqoc daemon — pulse-serving over TCP (legacy line protocol + HTTP/1.1)

USAGE:
  daemon [FLAGS]

FLAGS (all optional, `--flag VALUE` or `--flag=VALUE`):
  --addr HOST:PORT        listen address (default 127.0.0.1:7878; port 0
                          picks a free port and prints it)
  --qubits N              device width, linear topology (default 5)
  --workers N             worker threads (default 2)
  --queue N               admission-queue capacity (default 64)
  --max-connections N     concurrent client connections (default 1024)
  --max-iters N           GRAPE iteration cap per probe (default 300)
  --library-capacity N    LRU bound on the pulse library (default
                          unbounded; serving works at any capacity)
  --data-dir PATH         durable library tier: recover on startup,
                          write-ahead log while serving, snapshot on
                          clean shutdown
  --snapshot-every N      with --data-dir, compact the log into a fresh
                          snapshot every N inserts (default 128; 0 =
                          shutdown snapshot only)
  -h, --help              print this help
";

/// Everything the daemon binary needs to boot, parsed and validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonOptions {
    /// Listen address.
    pub addr: String,
    /// Device width (linear topology).
    pub qubits: usize,
    /// Worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue: usize,
    /// Concurrent-connection cap.
    pub max_connections: usize,
    /// GRAPE iteration cap per probe.
    pub max_iters: usize,
    /// LRU bound on the pulse library, when bounded.
    pub library_capacity: Option<usize>,
    /// Durable-tier directory, when persistence is on.
    pub data_dir: Option<String>,
    /// Snapshot compaction cadence (inserts) for the durable tier.
    pub snapshot_every: usize,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        let server = ServerConfig::default();
        Self {
            addr: "127.0.0.1:7878".to_string(),
            qubits: 5,
            workers: server.workers,
            queue: server.queue_capacity,
            max_connections: server.max_connections,
            max_iters: 300,
            library_capacity: None,
            data_dir: None,
            snapshot_every: 128,
        }
    }
}

impl DaemonOptions {
    /// The [`ServerConfig`] these options select.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            queue_capacity: self.queue,
            max_connections: self.max_connections,
            ..ServerConfig::default()
        }
    }
}

/// What the argument vector asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Boot the daemon with these options.
    Serve(DaemonOptions),
    /// Print usage and exit 0.
    Help,
}

/// Why the argument vector was rejected (the binary exits 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument that is not a known flag.
    UnknownFlag(String),
    /// A bare word where a flag was expected.
    UnexpectedArgument(String),
    /// A flag at the end of the line with no value after it.
    MissingValue(String),
    /// A flag whose next argument is itself flag-shaped (almost always
    /// a forgotten value, never silently consumed).
    FlagShapedValue {
        /// The flag awaiting a value.
        flag: String,
        /// The flag-shaped token that followed it.
        value: String,
    },
    /// A value that did not parse as the flag's type.
    BadValue {
        /// The flag.
        flag: String,
        /// The unparseable value.
        value: String,
    },
    /// A flag the selected mode requires was never given.
    MissingFlag(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            Self::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            Self::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            Self::FlagShapedValue { flag, value } => write!(
                f,
                "flag `{flag}` is followed by `{value}`, which looks like a flag, not a value \
                 (write `{flag}={value}` if that really is the value)"
            ),
            Self::BadValue { flag, value } => {
                write!(f, "invalid value for `{flag}`: `{value}`")
            }
            Self::MissingFlag(flag) => write!(f, "required flag `{flag}` was not given"),
        }
    }
}

impl std::error::Error for CliError {}

/// Splits an argument vector into `(flag, value)` pairs, strictly: every
/// argument must be one of `switches` (yielded with an empty value) or a
/// flag from `known` with a value, written inline after `=` or as the
/// next argument, which must not itself look like a flag. Both binaries
/// parse through here, so they reject the same mistakes the same way.
fn strict_flags<I: IntoIterator<Item = String>>(
    args: I,
    known: &'static [&'static str],
    switches: &'static [&'static str],
) -> impl Iterator<Item = Result<(String, String), CliError>> {
    let mut args = args.into_iter().peekable();
    std::iter::from_fn(move || {
        let arg = args.next()?;
        if switches.contains(&arg.as_str()) {
            return Some(Ok((arg, String::new())));
        }
        if !arg.starts_with("--") {
            return Some(Err(CliError::UnexpectedArgument(arg)));
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        if !known.contains(&flag.as_str()) {
            return Some(Err(CliError::UnknownFlag(flag)));
        }
        let value = match inline {
            Some(value) => value,
            None => match args.peek() {
                None => return Some(Err(CliError::MissingValue(flag))),
                Some(next) if next.starts_with("--") => {
                    let value = next.clone();
                    return Some(Err(CliError::FlagShapedValue { flag, value }));
                }
                Some(_) => args.next().expect("peeked"),
            },
        };
        Some(Ok((flag, value)))
    })
}

/// Parses `value` as the number `flag` takes.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

const HELP: [&str; 2] = ["-h", "--help"];

const KNOWN_FLAGS: [&str; 9] = [
    "--addr",
    "--qubits",
    "--workers",
    "--queue",
    "--max-connections",
    "--max-iters",
    "--library-capacity",
    "--data-dir",
    "--snapshot-every",
];

/// Parses the daemon's argument vector (without the program name).
///
/// # Errors
///
/// A [`CliError`] naming exactly what was wrong; nothing is ever
/// silently ignored or misassigned.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, CliError> {
    let mut options = DaemonOptions::default();
    for arg in strict_flags(args, &KNOWN_FLAGS, &HELP) {
        let (flag, value) = arg?;
        let count = || number::<usize>(&flag, &value);
        match flag.as_str() {
            "-h" | "--help" => return Ok(Command::Help),
            "--addr" => options.addr = value,
            "--qubits" => options.qubits = count()?,
            "--workers" => options.workers = count()?,
            "--queue" => options.queue = count()?,
            "--max-connections" => options.max_connections = count()?,
            "--max-iters" => options.max_iters = count()?,
            "--library-capacity" => options.library_capacity = Some(count()?),
            "--data-dir" => options.data_dir = Some(value),
            "--snapshot-every" => options.snapshot_every = count()?,
            _ => unreachable!("flag was checked against KNOWN_FLAGS"),
        }
    }
    Ok(Command::Serve(options))
}

/// Usage text the router binary prints for `--help` and under parse
/// errors.
pub const ROUTER_USAGE: &str = "\
accqoc router — front-end for a sharded pulse-library deployment

Speaks the daemon's wire surfaces (line protocol + HTTP/1.1) unchanged
and forwards each request to the worker daemons owning its groups: a
group of width W belongs to shard (W - 1) mod N.

USAGE:
  router --shards HOST:PORT,HOST:PORT,... [FLAGS]
  router --rebalance --data-base PATH --from N --to M

FLAGS (`--flag VALUE` or `--flag=VALUE`):
  --shards LIST           comma-separated worker addresses; the list
                          order is the shard numbering (required)
  --addr HOST:PORT        listen address (default 127.0.0.1:7979; port 0
                          picks a free port and prints it)
  --qubits N              device width of the front-end session, linear
                          topology — must match the workers (default 5)
  --workers N             router worker threads (default 2)
  --queue N               admission-queue capacity (default 64)
  --max-connections N     concurrent client connections (default 1024)
  --attempts N            forwarding attempts per call before answering
                          `shard_unavailable` (default 3)
  --backoff-ms MS         backoff before the first retry; each further
                          retry waits 5x longer (default 10)
  --connect-timeout-ms MS TCP connect timeout per attempt (default 1000)
  --read-timeout-ms MS    per-response read timeout (default 120000)

REBALANCE MODE (offline; stop the workers first):
  --rebalance             re-home the shard stores instead of serving
  --data-base PATH        directory holding the shard-N data dirs
  --from N                shard count the stores were written under
  --to M                  shard count to rebalance onto
  -h, --help              print this help
";

/// Everything the router binary needs to boot, parsed and validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterOptions {
    /// Listen address.
    pub addr: String,
    /// Worker-daemon addresses, in shard order.
    pub shards: Vec<String>,
    /// Device width of the front-end session (linear topology).
    pub qubits: usize,
    /// Router worker threads.
    pub workers: usize,
    /// Admission-queue capacity.
    pub queue: usize,
    /// Concurrent-connection cap.
    pub max_connections: usize,
    /// Forwarding attempts per call.
    pub attempts: usize,
    /// Backoff before the first retry, milliseconds.
    pub backoff_ms: u64,
    /// TCP connect timeout per attempt, milliseconds.
    pub connect_timeout_ms: u64,
    /// Per-response read timeout, milliseconds.
    pub read_timeout_ms: u64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        let server = ServerConfig::default();
        let router = crate::router::RouterConfig::default();
        Self {
            addr: "127.0.0.1:7979".to_string(),
            shards: Vec::new(),
            qubits: 5,
            workers: server.workers,
            queue: server.queue_capacity,
            max_connections: server.max_connections,
            attempts: router.attempts,
            backoff_ms: router.backoff.as_millis() as u64,
            connect_timeout_ms: router.connect_timeout.as_millis() as u64,
            read_timeout_ms: router.read_timeout.as_millis() as u64,
        }
    }
}

impl RouterOptions {
    /// The [`ServerConfig`] these options select for the router's own
    /// event loop.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            queue_capacity: self.queue,
            max_connections: self.max_connections,
            ..ServerConfig::default()
        }
    }

    /// The [`crate::router::RouterConfig`] these options select for the
    /// forwarding path.
    pub fn router_config(&self) -> crate::router::RouterConfig {
        use std::time::Duration;
        crate::router::RouterConfig {
            attempts: self.attempts,
            backoff: Duration::from_millis(self.backoff_ms),
            connect_timeout: Duration::from_millis(self.connect_timeout_ms),
            read_timeout: Duration::from_millis(self.read_timeout_ms),
        }
    }
}

/// The offline rebalance invocation, parsed and validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOptions {
    /// Directory holding the `shard-N` data dirs.
    pub data_base: String,
    /// Shard count the stores were written under.
    pub from: usize,
    /// Shard count to rebalance onto.
    pub to: usize,
}

/// What the router's argument vector asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterCommand {
    /// Boot the router with these options.
    Route(RouterOptions),
    /// Rebalance the shard stores offline, then exit.
    Rebalance(RebalanceOptions),
    /// Print usage and exit 0.
    Help,
}

const ROUTER_SWITCHES: [&str; 3] = ["-h", "--help", "--rebalance"];

const ROUTER_KNOWN_FLAGS: [&str; 13] = [
    "--shards",
    "--addr",
    "--qubits",
    "--workers",
    "--queue",
    "--max-connections",
    "--attempts",
    "--backoff-ms",
    "--connect-timeout-ms",
    "--read-timeout-ms",
    "--data-base",
    "--from",
    "--to",
];

/// Parses the router's argument vector (without the program name), with
/// the same strictness as [`parse_args`]: every argument must be a
/// known flag, every value-taking flag must have a value, and a value
/// that itself looks like a flag is rejected.
///
/// # Errors
///
/// A [`CliError`] naming exactly what was wrong; nothing is ever
/// silently ignored or misassigned.
pub fn parse_router_args(
    args: impl IntoIterator<Item = String>,
) -> Result<RouterCommand, CliError> {
    let mut options = RouterOptions::default();
    let mut rebalance = false;
    let mut data_base: Option<String> = None;
    let mut from: Option<usize> = None;
    let mut to: Option<usize> = None;
    for arg in strict_flags(args, &ROUTER_KNOWN_FLAGS, &ROUTER_SWITCHES) {
        let (flag, value) = arg?;
        let count = || number::<usize>(&flag, &value);
        let millis = || number::<u64>(&flag, &value);
        match flag.as_str() {
            "-h" | "--help" => return Ok(RouterCommand::Help),
            "--rebalance" => rebalance = true,
            "--shards" => {
                options.shards = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if options.shards.is_empty() {
                    return Err(CliError::BadValue { flag, value });
                }
            }
            "--addr" => options.addr = value,
            "--qubits" => options.qubits = count()?,
            "--workers" => options.workers = count()?,
            "--queue" => options.queue = count()?,
            "--max-connections" => options.max_connections = count()?,
            "--attempts" => options.attempts = count()?.max(1),
            "--backoff-ms" => options.backoff_ms = millis()?,
            "--connect-timeout-ms" => options.connect_timeout_ms = millis()?,
            "--read-timeout-ms" => options.read_timeout_ms = millis()?,
            "--data-base" => data_base = Some(value),
            "--from" => from = Some(count()?),
            "--to" => to = Some(count()?),
            _ => unreachable!("flag was checked against ROUTER_KNOWN_FLAGS"),
        }
    }
    if rebalance {
        return Ok(RouterCommand::Rebalance(RebalanceOptions {
            data_base: data_base.ok_or_else(|| CliError::MissingFlag("--data-base".into()))?,
            from: from.ok_or_else(|| CliError::MissingFlag("--from".into()))?,
            to: to.ok_or_else(|| CliError::MissingFlag("--to".into()))?,
        }));
    }
    if options.shards.is_empty() {
        return Err(CliError::MissingFlag("--shards".into()));
    }
    Ok(RouterCommand::Route(options))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    fn parse_router(args: &[&str]) -> Result<RouterCommand, CliError> {
        parse_router_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn router_needs_shards() {
        assert_eq!(
            parse_router(&[]),
            Err(CliError::MissingFlag("--shards".into()))
        );
        assert_eq!(
            parse_router(&["--shards", " , "]),
            Err(CliError::BadValue {
                flag: "--shards".into(),
                value: " , ".into(),
            })
        );
    }

    #[test]
    fn router_flags_parse_and_project() {
        let command = parse_router(&[
            "--shards=127.0.0.1:7001, 127.0.0.1:7002 ,127.0.0.1:7003",
            "--addr=0.0.0.0:0",
            "--qubits=3",
            "--attempts=5",
            "--backoff-ms=2",
            "--connect-timeout-ms=250",
            "--read-timeout-ms=9000",
            "--workers=4",
        ])
        .expect("valid args");
        let RouterCommand::Route(options) = command else {
            panic!("expected route options, got {command:?}");
        };
        assert_eq!(
            options.shards,
            vec!["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]
        );
        assert_eq!(options.qubits, 3);
        let router = options.router_config();
        assert_eq!(router.attempts, 5);
        assert_eq!(router.backoff, std::time::Duration::from_millis(2));
        assert_eq!(router.read_timeout, std::time::Duration::from_millis(9000));
        assert_eq!(options.server_config().workers, 4);
    }

    #[test]
    fn router_rejects_like_the_daemon() {
        assert_eq!(
            parse_router(&["--shard", "x"]),
            Err(CliError::UnknownFlag("--shard".into()))
        );
        assert_eq!(
            parse_router(&["--shards", "--addr"]),
            Err(CliError::FlagShapedValue {
                flag: "--shards".into(),
                value: "--addr".into(),
            })
        );
        assert_eq!(parse_router(&["-h"]), Ok(RouterCommand::Help));
    }

    #[test]
    fn rebalance_mode_requires_its_trio() {
        assert_eq!(
            parse_router(&["--rebalance", "--from=2", "--to=3"]),
            Err(CliError::MissingFlag("--data-base".into()))
        );
        assert_eq!(
            parse_router(&["--rebalance", "--data-base=/tmp/x", "--from=2", "--to=3"]),
            Ok(RouterCommand::Rebalance(RebalanceOptions {
                data_base: "/tmp/x".into(),
                from: 2,
                to: 3,
            }))
        );
    }

    fn options(args: &[&str]) -> DaemonOptions {
        match parse(args).expect("valid args") {
            Command::Serve(options) => options,
            Command::Help => panic!("expected options, got help"),
        }
    }

    #[test]
    fn empty_args_give_defaults() {
        assert_eq!(options(&[]), DaemonOptions::default());
    }

    #[test]
    fn every_flag_parses_in_both_spellings() {
        let spaced = options(&[
            "--addr",
            "0.0.0.0:0",
            "--qubits",
            "3",
            "--workers",
            "4",
            "--queue",
            "16",
            "--max-connections",
            "300",
            "--max-iters",
            "150",
            "--library-capacity",
            "8",
            "--data-dir",
            "/tmp/lib",
            "--snapshot-every",
            "5",
        ]);
        let inline = options(&[
            "--addr=0.0.0.0:0",
            "--qubits=3",
            "--workers=4",
            "--queue=16",
            "--max-connections=300",
            "--max-iters=150",
            "--library-capacity=8",
            "--data-dir=/tmp/lib",
            "--snapshot-every=5",
        ]);
        assert_eq!(spaced, inline);
        assert_eq!(spaced.addr, "0.0.0.0:0");
        assert_eq!(spaced.qubits, 3);
        assert_eq!(spaced.max_connections, 300);
        assert_eq!(spaced.library_capacity, Some(8));
        assert_eq!(spaced.data_dir.as_deref(), Some("/tmp/lib"));
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        assert_eq!(
            parse(&["--worker", "8"]),
            Err(CliError::UnknownFlag("--worker".into()))
        );
        assert_eq!(
            parse(&["--qubits", "3", "--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".into()))
        );
    }

    #[test]
    fn a_flag_never_consumes_a_following_flag_as_its_value() {
        // The motivating bug: `--addr --qubits` used to bind to the
        // literal address `--qubits`.
        assert_eq!(
            parse(&["--addr", "--qubits"]),
            Err(CliError::FlagShapedValue {
                flag: "--addr".into(),
                value: "--qubits".into(),
            })
        );
        // The `=` spelling is the explicit escape hatch.
        assert_eq!(options(&["--addr=--qubits"]).addr, "--qubits");
    }

    #[test]
    fn trailing_flags_and_bare_words_are_rejected() {
        assert_eq!(
            parse(&["--qubits"]),
            Err(CliError::MissingValue("--qubits".into()))
        );
        assert_eq!(
            parse(&["serve"]),
            Err(CliError::UnexpectedArgument("serve".into()))
        );
    }

    #[test]
    fn non_numeric_counts_are_rejected() {
        assert_eq!(
            parse(&["--qubits", "many"]),
            Err(CliError::BadValue {
                flag: "--qubits".into(),
                value: "many".into(),
            })
        );
        assert_eq!(
            parse(&["--queue=-1"]),
            Err(CliError::BadValue {
                flag: "--queue".into(),
                value: "-1".into(),
            })
        );
    }

    #[test]
    fn help_wins() {
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
        assert_eq!(parse(&["-h"]), Ok(Command::Help));
        assert_eq!(parse(&["--qubits", "3", "--help"]), Ok(Command::Help));
    }

    #[test]
    fn server_config_projection_carries_the_caps() {
        let options = options(&["--workers=7", "--queue=9", "--max-connections=11"]);
        let config = options.server_config();
        assert_eq!(config.workers, 7);
        assert_eq!(config.queue_capacity, 9);
        assert_eq!(config.max_connections, 11);
    }
}
