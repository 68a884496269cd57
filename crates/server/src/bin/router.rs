//! The shard-router binary: `cargo run --release -p accqoc-server --bin router`.
//!
//! Front-end of a sharded deployment: given N running worker daemons
//! (each an `accqoc-server --data-dir base/shard-I`), the router binds
//! the same wire surfaces a single daemon speaks and forwards each
//! request to the shards owning its groups (a group of width w belongs
//! to shard `(w − 1) mod N`). With `--rebalance` it instead re-homes the
//! shard stores offline (the workers must be stopped) and exits: onto a
//! new shard count, or with `--from N --to N` onto the current layout. Run with `--help` for the full
//! flag list.

use std::sync::Arc;

use accqoc::Session;
use accqoc_hw::Topology;
use accqoc_server::cli::{self, RebalanceOptions, RouterCommand, RouterOptions};
use accqoc_server::{RouterHandler, Server};

fn main() {
    match cli::parse_router_args(std::env::args().skip(1)) {
        Ok(RouterCommand::Route(options)) => route(options),
        Ok(RouterCommand::Rebalance(options)) => rebalance(options),
        Ok(RouterCommand::Help) => print!("{}", cli::ROUTER_USAGE),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprint!("{}", cli::ROUTER_USAGE);
            std::process::exit(2);
        }
    }
}

fn route(options: RouterOptions) {
    // The front-end session never compiles: it groups programs, folds
    // program-level latencies, and verifies fetched pulses. It must be
    // configured like the workers' sessions or group keys disagree.
    let session = match Session::builder()
        .topology(Topology::linear(options.qubits))
        .build()
    {
        Ok(session) => Arc::new(session),
        Err(e) => {
            eprintln!("session setup failed: {e}");
            std::process::exit(2);
        }
    };
    let handler = Arc::new(RouterHandler::new(
        session,
        options.shards.clone(),
        options.router_config(),
    ));
    for (shard, addr) in options.shards.iter().enumerate() {
        println!(
            "shard {shard}: {addr} (owns widths {:?} of 1..=8)",
            (1..=8usize)
                .filter(|&w| handler.owner_of(w) == shard)
                .collect::<Vec<_>>(),
        );
    }
    let server = match Server::bind_with_handler(handler, &options.addr, options.server_config()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind {} failed: {e}", options.addr);
            std::process::exit(1);
        }
    };
    println!(
        "accqoc-router listening on {} ({} shards, {}-qubit linear device, {} workers, queue {})",
        server.local_addr(),
        options.shards.len(),
        options.qubits,
        options.workers,
        options.queue,
    );
    println!(
        "stop with: {{\"id\": 1, \"method\": \"shutdown\"}}  (drains the router AND the shards)"
    );
    match server.run() {
        Ok(counters) => println!(
            "drained: {} requests served ({} busy-rejected)",
            counters.requests_served, counters.requests_rejected_busy,
        ),
        Err(e) => {
            eprintln!("router failed: {e}");
            std::process::exit(1);
        }
    }
}

fn rebalance(options: RebalanceOptions) {
    let base = std::path::Path::new(&options.data_base);
    match accqoc::rebalance(base, options.from, options.to) {
        Ok(report) => {
            println!(
                "rebalanced {} -> {} shards under {}: {} of {} entries moved",
                report.from_shards,
                report.to_shards,
                options.data_base,
                report.entries_moved,
                report.entries_total,
            );
            for m in &report.moves {
                println!(
                    "  width {}: shard {} -> shard {} ({} entries)",
                    m.n_qubits, m.from, m.to, m.entries
                );
            }
            println!(
                "  rewritten: {:?}, untouched: {:?}, retired: {:?}",
                report.shards_rewritten, report.shards_untouched, report.shards_retired
            );
        }
        Err(e) => {
            eprintln!("rebalance failed: {e}");
            std::process::exit(1);
        }
    }
}
