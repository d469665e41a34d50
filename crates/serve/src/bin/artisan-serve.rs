//! The design-server daemon.
//!
//! ```text
//! artisan-serve [--addr HOST:PORT] [--max-inflight N]
//!               [--batch-window-ms MS] [--max-batch N]
//!               [--cache-capacity N] [--no-batch]
//!               [--tenant-max-inflight N] [--tenant-budget-seconds S]
//!               [--journal-expire-secs S]
//! ```
//!
//! Flags override the `ARTISAN_SERVE_*` environment; a malformed
//! setting exits with status 2 and a message naming it. The daemon prints
//! the bound address on stdout (`listening on <addr>`) and serves
//! until either a client sends a `drain` frame or stdin reaches EOF —
//! the portable stand-in for SIGTERM in a std-only binary; process
//! managers close the child's stdin to request a graceful stop. Both
//! paths finish in-flight sessions, snapshot the shared cache, and
//! expire terminal journals before exit.

use artisan_serve::{Server, ServerConfig};
use std::io::{BufRead, Write};
use std::time::Duration;

fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn main() {
    let mut config = match ServerConfig::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("artisan-serve: {e}");
            std::process::exit(2);
        }
    };
    config.addr = arg_or("--addr", config.addr);
    config.max_inflight = arg_or("--max-inflight", config.max_inflight);
    config.batch_window = Duration::from_millis(arg_or(
        "--batch-window-ms",
        config.batch_window.as_millis() as u64,
    ));
    config.max_batch = arg_or("--max-batch", config.max_batch);
    config.cache_capacity = arg_or("--cache-capacity", config.cache_capacity);
    config.tenant_max_inflight = arg_or("--tenant-max-inflight", config.tenant_max_inflight);
    config.tenant_testbed_budget = arg_or("--tenant-budget-seconds", config.tenant_testbed_budget);
    if flag("--no-batch") {
        config.batching = false;
    }
    let expire = arg_or("--journal-expire-secs", -1i64);
    if expire >= 0 {
        config.journal_expire = Some(Duration::from_secs(expire as u64));
    }

    let mut server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("artisan-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());
    let _ = std::io::stdout().flush();

    // Two stop signals: a `drain` frame from the wire, or stdin EOF
    // from the process manager (the std-only stand-in for SIGTERM). A
    // watcher thread turns EOF into the same wire-drain code path, so
    // there is exactly one drain sequence.
    let addr = server.addr();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut lines = stdin.lock().lines();
        while let Some(Ok(_)) = lines.next() {}
        if let Ok(mut client) = artisan_serve::Client::connect(addr) {
            let _ = client.call(&artisan_serve::Request::Drain);
        }
    });
    while !server.stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    eprintln!("artisan-serve: drained, exiting");
}
