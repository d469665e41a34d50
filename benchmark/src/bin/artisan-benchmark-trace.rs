//! Traced benchmark runs: per-layer metrics, with every allocation
//! counted.

use artisan_benchmark::alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    artisan_benchmark::cli::main(true)
}
