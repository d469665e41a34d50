//! Shared helpers for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper (see `DESIGN.md`'s per-experiment index); the criterion benches
//! in `benches/` measure the kernels those binaries are built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod netgen;

/// The value of `--flag value` among the process arguments, parsed as
/// a `T`; `default` when the flag is absent. A flag whose value is
/// missing or does not parse exits with status 2 and a message naming
/// the flag.
///
/// # Example
///
/// ```
/// let trials = artisan_bench::arg_or("--trials", 10usize);
/// assert!(trials >= 1);
/// ```
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_flag(&args, flag, default).unwrap_or_else(|message| {
        let name = std::path::Path::new(&program).file_name();
        eprintln!("{}: {message}", name.unwrap_or_default().to_string_lossy());
        std::process::exit(2);
    })
}

/// The value following the first `flag` in `args`, parsed as a `T`;
/// `default` when `flag` is absent.
///
/// # Errors
///
/// A message naming the flag when its value is missing or malformed.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let raw = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} is missing its value"))?;
    raw.parse().map_err(|_| {
        let kind = std::any::type_name::<T>();
        format!("{flag}={raw:?} is not a valid {kind}")
    })
}

/// True when `--quick` was passed (reduced budgets for smoke runs).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::parse_flag;

    fn parse(line: &str, flag: &str) -> Result<u64, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_flag(&args, flag, 10)
    }

    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(super::arg_or("--nope", 7usize), 7);
    }

    #[test]
    fn absent_flags_give_the_default_and_present_ones_their_value() {
        assert_eq!(parse("--quick --seed 3", "--trials"), Ok(10));
        assert_eq!(parse("--quick --trials 3 --seed 4", "--trials"), Ok(3));
        assert_eq!(parse("", "--trials"), Ok(10));
    }

    #[test]
    fn missing_or_malformed_values_are_errors_naming_the_flag() {
        for line in ["--trials ten", "--trials 0,2", "--trials -1", "--trials"] {
            let err = parse(line, "--trials")
                .err()
                .unwrap_or_else(|| panic!("{line:?} was accepted"));
            assert!(err.starts_with("--trials"), "{err}");
        }
    }
}
