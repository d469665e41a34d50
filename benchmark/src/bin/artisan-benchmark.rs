//! Untraced benchmark runs: end-to-end metrics and output checks.

fn main() -> std::process::ExitCode {
    artisan_benchmark::cli::main(false)
}
