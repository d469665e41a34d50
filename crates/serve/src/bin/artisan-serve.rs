//! The design-server daemon.
//!
//! ```text
//! artisan-serve [--addr HOST:PORT] [--max-inflight N]
//!               [--cache-capacity N] [--tenant-max-inflight N]
//!               [--tenant-budget-seconds S] [--journal-expire-secs S]
//! ```
//!
//! `ARTISAN_SIM_CACHE_DIR` and `ARTISAN_JOURNAL_DIR` name the cache
//! snapshot and journal directories. A malformed flag value, a flag
//! without its value or an unknown argument exits with status 2 and a
//! message naming it. Terminal journals are expired on
//! drain only when `--journal-expire-secs` is given. The daemon prints
//! the bound address on stdout (`listening on <addr>`) and serves
//! until either a client sends a `drain` frame or stdin reaches EOF —
//! the portable stand-in for SIGTERM in a std-only binary; process
//! managers close the child's stdin to request a graceful stop. Both
//! paths finish in-flight sessions, snapshot the shared cache, and
//! expire terminal journals before exit.

use artisan_serve::{Server, ServerConfig};
use std::io::{BufRead, Write};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match ServerConfig::from_env().with_flags(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("artisan-serve: {e}");
            std::process::exit(2);
        }
    };

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
