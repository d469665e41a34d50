//! Shared helpers for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate every table and figure of the
//! paper (see `DESIGN.md`'s per-experiment index); the criterion benches
//! in `benches/` measure the kernels those binaries are built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use artisan_circuit::sample::{sample_topology, SampleRanges};
use artisan_circuit::{Netlist, Topology};
use artisan_math::lu::LANES;
use artisan_math::Complex64;
use artisan_sim::ac::{sweep, SweepConfig};
use artisan_sim::{MnaBlockWorkspace, MnaSystem, MnaWorkspace, SimError};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// A system the AC-measurement benches solve, with the default sweep
/// grid's points up to the first one below unity: the points an AC
/// measurement reads. Solved one at a time
/// ([`MeasureCase::solve_pointwise`]) or in blocks of [`LANES`]
/// ([`MeasureCase::solve_blocks`]), the two ways compare the scalar
/// and the lane kernel on the same work.
pub struct MeasureCase {
    /// Short name for report rows.
    pub name: &'static str,
    /// The netlist the system was built from.
    pub netlist: Netlist,
    /// Its MNA system.
    pub sys: MnaSystem,
    /// `s = jω` at every point of the default sweep grid.
    grid: Vec<Complex64>,
    /// Index of the first grid point below unity gain.
    below: usize,
}

impl MeasureCase {
    /// The case for `netlist`.
    ///
    /// # Errors
    ///
    /// The system's build or sweep failure, or
    /// [`SimError::NoUnityCrossing`] when its gain never falls through
    /// unity inside the grid.
    pub fn new(name: &'static str, netlist: Netlist) -> Result<Self, SimError> {
        let sys = MnaSystem::new(&netlist)?;
        let config = SweepConfig::default();
        let points = sweep(&sys, &config)?;
        let below = 1 + points
            .windows(2)
            .position(|w| w[0].h.abs() >= 1.0 && w[1].h.abs() < 1.0)
            .ok_or(SimError::NoUnityCrossing)?;
        let grid = config
            .frequencies()?
            .iter()
            .map(|&f| Complex64::jomega(2.0 * std::f64::consts::PI * f))
            .collect();
        Ok(MeasureCase {
            name,
            netlist,
            sys,
            grid,
            below,
        })
    }

    /// The NMC example and a fixed dim-8 sampled candidate (seed 4,
    /// 10 pF load).
    ///
    /// # Errors
    ///
    /// As [`MeasureCase::new`]; elaboration failures as
    /// [`SimError::BadNetlist`].
    pub fn pair() -> Result<[MeasureCase; 2], SimError> {
        let elaborate = |topo: Topology| {
            topo.elaborate()
                .map_err(|e| SimError::BadNetlist(e.to_string().into()))
        };
        let mut rng = StdRng::seed_from_u64(4);
        let sampled = sample_topology(&mut rng, &SampleRanges::default(), 10e-12);
        Ok([
            MeasureCase::new("nmc", elaborate(Topology::nmc_example())?)?,
            MeasureCase::new("sampled_dim8", elaborate(sampled)?)?,
        ])
    }

    /// Grid points the measurement reads.
    pub fn points(&self) -> usize {
        self.below + 1
    }

    /// Solves the measured points one at a time through `ws`, handing
    /// each point's index and transfer value to `each`.
    pub fn solve_pointwise(
        &self,
        ws: &mut MnaWorkspace,
        mut each: impl FnMut(usize, Result<Complex64, SimError>),
    ) {
        for (k, &s) in self.grid[..self.points()].iter().enumerate() {
            each(k, self.sys.transfer_with(s, ws));
        }
    }

    /// Solves the blocks of [`LANES`] grid points that cover the
    /// measured points through `ws`, as the AC measurement does, handing
    /// each measured point's index and transfer value to `each`; the
    /// lanes past the last measured point are dropped.
    pub fn solve_blocks(
        &self,
        ws: &mut MnaBlockWorkspace,
        mut each: impl FnMut(usize, Result<Complex64, SimError>),
    ) {
        let blocks = self.grid.chunks(LANES).take(self.below / LANES + 1);
        for (b, chunk) in blocks.enumerate() {
            let lanes = std::array::from_fn(|l| chunk[l.min(chunk.len() - 1)]);
            for (l, h) in self.sys.transfer_block(&lanes, ws).into_iter().enumerate() {
                let k = b * LANES + l;
                if k < self.points() {
                    each(k, h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_flag, MeasureCase};
    use artisan_math::Complex64;

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

    #[test]
    fn measure_cases_solve_the_same_bits_both_ways() {
        let cases = MeasureCase::pair().unwrap();
        assert_eq!(cases.each_ref().map(|c| c.sys.dim()), [3, 8]);
        let bits = |h: Result<_, _>| h.map(|z: Complex64| (z.re.to_bits(), z.im.to_bits()));
        for case in &cases {
            let mut pointwise = Vec::new();
            case.solve_pointwise(&mut case.sys.workspace(), |k, h| {
                pointwise.push((k, bits(h)))
            });
            let mut blocks = Vec::new();
            case.solve_blocks(&mut case.sys.block_workspace(), |k, h| {
                blocks.push((k, bits(h)))
            });
            assert_eq!(pointwise.len(), case.points());
            assert_eq!(blocks, pointwise, "{}", case.name);
        }
    }
}
