//! Property-based tests for the numerical substrate.

use artisan_math::width::Width;
use artisan_math::{
    cholesky::Cholesky, interp::newton_interpolate, lu, CMatrix, Complex64, DMatrix, Polynomial,
};
use proptest::prelude::*;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |x| {
        let span = range.end - range.start;
        range.start + (x.abs() % 1.0) * span
    })
}

fn complex_in(range: std::ops::Range<f64>) -> impl Strategy<Value = Complex64> {
    (finite_f64(range.clone()), finite_f64(range)).prop_map(|(re, im)| Complex64::new(re, im))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// z * z.recip() == 1 for any nonzero complex number.
    #[test]
    fn complex_recip_is_inverse(z in complex_in(-1e6..1e6)) {
        prop_assume!(z.abs() > 1e-9);
        let one = z * z.recip();
        prop_assert!((one - Complex64::ONE).abs() < 1e-9);
    }

    /// |z·w| == |z|·|w| (multiplicativity of the modulus).
    #[test]
    fn complex_abs_multiplicative(z in complex_in(-1e3..1e3), w in complex_in(-1e3..1e3)) {
        let lhs = (z * w).abs();
        let rhs = z.abs() * w.abs();
        prop_assert!((lhs - rhs).abs() <= 1e-9 * rhs.max(1.0));
    }

    /// sqrt(z)² == z on the principal branch.
    #[test]
    fn complex_sqrt_squares(z in complex_in(-1e4..1e4)) {
        let r = z.sqrt();
        prop_assert!((r * r - z).abs() <= 1e-8 * z.abs().max(1.0));
    }

    /// LU solve produces x with small relative residual ‖Ax−b‖/‖b‖.
    #[test]
    fn lu_solve_residual(seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..9);
        let data: Vec<Complex64> = (0..n*n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let a = CMatrix::from_rows(n, n, &data).unwrap();
        let b: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        if let Ok(x) = lu::solve(a.clone(), &b) {
            let ax = a.mul_vec(&x).unwrap();
            let num: f64 = ax.iter().zip(&b).map(|(p, q)| (*p - *q).abs_sq()).sum::<f64>().sqrt();
            let den: f64 = b.iter().map(|q| q.abs_sq()).sum::<f64>().sqrt().max(1e-12);
            prop_assert!(num / den < 1e-7);
        }
    }

    /// det(A·swap) = −det(A): LU determinant respects row-swap parity.
    #[test]
    fn lu_det_antisymmetric_under_swap(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..6);
        let data: Vec<Complex64> = (0..n*n)
            .map(|_| Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let a = CMatrix::from_rows(n, n, &data).unwrap();
        let mut b = a.clone();
        // swap first two rows by rebuilding
        let mut swapped = Vec::with_capacity(n*n);
        for r in 0..n {
            let src = match r { 0 => 1, 1 => 0, other => other };
            for c in 0..n {
                swapped.push(b[(src, c)]);
            }
        }
        b = CMatrix::from_rows(n, n, &swapped).unwrap();
        let da = lu::det(a).unwrap();
        let db = lu::det(b).unwrap();
        prop_assert!((da + db).abs() <= 1e-9 * da.abs().max(1e-9));
    }

    /// Cholesky solve inverts SPD systems built as B·Bᵀ + nI.
    #[test]
    fn cholesky_solves_spd(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10);
        let b = DMatrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n { acc += b[(i, k)] * b[(j, k)]; }
                a[(i, j)] = acc;
            }
        }
        a.add_diagonal(n as f64);
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let rhs = a.mul_vec(&x_true).unwrap();
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&rhs).unwrap();
        for (p, q) in x.iter().zip(&x_true) {
            prop_assert!((p - q).abs() < 1e-7);
        }
    }

    /// Roots found by Durand–Kerner evaluate to ~0 in the original polynomial.
    #[test]
    fn polynomial_roots_are_roots(seed in 0u64..300) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..6);
        let roots: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-10.0..-0.1), rng.gen_range(-5.0..5.0)))
            .collect();
        let p = Polynomial::from_roots(&roots);
        let found = p.roots(1e-12, 3000).unwrap();
        prop_assert_eq!(found.len(), n);
        // Scale tolerance by the polynomial's coefficient magnitude.
        let scale = p.coeffs().iter().map(|c| c.abs()).fold(0.0_f64, f64::max);
        for r in &found {
            prop_assert!(p.eval(*r).abs() <= 1e-5 * scale.max(1.0));
        }
    }

    /// Newton interpolation is exact on polynomials of matching degree.
    #[test]
    fn interpolation_reconstructs_polynomial(seed in 0u64..300) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let deg = rng.gen_range(0..6usize);
        let coeffs: Vec<f64> = (0..=deg).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let truth = Polynomial::from_real(&coeffs);
        // Distinct abscissae
        let pts: Vec<(Complex64, Complex64)> = (0..=deg)
            .map(|k| {
                let x = Complex64::from_real(-(k as f64 + 1.0) * 1.37);
                (x, truth.eval(x))
            })
            .collect();
        let p = newton_interpolate(&pts).unwrap();
        let probe = Complex64::from_real(rng.gen_range(-20.0..20.0));
        let diff = (p.eval(probe) - truth.eval(probe)).abs();
        prop_assert!(diff <= 1e-6 * truth.eval(probe).abs().max(1.0));
    }

    /// Welford matches batch statistics on arbitrary samples.
    #[test]
    fn welford_matches_batch(xs in prop::collection::vec(-1e3f64..1e3, 2..50)) {
        use artisan_math::stats::{mean, std_dev, Welford};
        let mut w = Welford::new();
        w.extend(xs.iter().copied());
        prop_assert!((w.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-6);
        prop_assert!((w.std_dev().unwrap() - std_dev(&xs).unwrap()).abs() < 1e-6);
    }
}

/// One entry for the lane-kernel property: mostly ordinary values, with
/// the cases where a careless lane kernel loses the scalar bits mixed
/// in — exact and signed zeros (skipped updates), small integers (ties
/// in pivot magnitude, exact cancellation into singular columns),
/// extreme magnitudes (both branches of Smith's reciprocal), and NaN
/// and ±∞.
fn awkward_entry(rng: &mut rand::rngs::StdRng) -> Complex64 {
    use rand::Rng;
    let part = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..20) {
        0..=7 => rng.gen_range(-1.0..1.0),
        8..=10 => 0.0,
        11..=12 => -0.0,
        13..=16 => f64::from(rng.gen_range(-2i8..=2)),
        17 => rng.gen_range(-1.0..1.0) * 1e150,
        18 => rng.gen_range(-1.0..1.0) * 1e-150,
        _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)],
    };
    Complex64::new(part(rng), part(rng))
}

/// Compares by bit pattern, with every NaN equal to every other: Rust
/// leaves a NaN result's payload unspecified.
fn same_bits(a: Complex64, b: Complex64) -> bool {
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
    same(a.re, b.re) && same(a.im, b.im)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// Every lane of a [`lu::LaneBlock`] reproduces `factor_in_place`
    /// and `solve_factored` on its own system bit for bit, at every
    /// width the host runs: the same singular verdict, the same factors,
    /// the same solution — also with back substitution stopped at a row.
    /// Lanes draw from a small set of base systems with some entries
    /// redrawn, so singular and regular lanes, ties and exact zeros sit
    /// side by side in a block, as the points of one sweep do.
    #[test]
    fn lane_block_matches_the_scalar_lu_bit_for_bit(seed in 0u64..u64::MAX) {
        use lu::LANES;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10usize);
        let dense = rng.gen_bool(0.5);
        let entry = |rng: &mut rand::rngs::StdRng| {
            if dense || rng.gen_bool(0.5) { awkward_entry(rng) } else { Complex64::ZERO }
        };
        let bases: Vec<Vec<Complex64>> = (0..3)
            .map(|_| (0..n * n + n).map(|_| entry(&mut rng)).collect())
            .collect();
        let mut systems = Vec::with_capacity(LANES);
        for _ in 0..LANES {
            let mut values = bases[rng.gen_range(0..bases.len())].clone();
            for _ in 0..rng.gen_range(0..3) {
                let at = rng.gen_range(0..values.len());
                values[at] = entry(&mut rng);
            }
            if rng.gen_bool(0.1) {
                // An exactly zero column: singular at or before it.
                let col = rng.gen_range(0..n);
                for r in 0..n {
                    values[r * n + col] = Complex64::ZERO;
                }
            }
            systems.push(values);
        }
        let first_row = rng.gen_range(0..n);
        for width in Width::available() {
            let mut block = block_of(n, &systems, width);
            factor_and_match_the_scalar_lu(&mut block, n, &systems, first_row);
        }
    }

    /// Blocks whose lanes all pivot the same rows (one matrix, a
    /// right-hand side per lane) and blocks whose lanes pivot different
    /// rows (the same matrix with its rows permuted per lane) both
    /// reproduce the scalar LU bit for bit at every width the host
    /// runs: whole-row swaps where the lanes agree and per-lane swaps
    /// where they do not change no bit.
    #[test]
    fn uniform_and_mixed_pivots_match_the_scalar_lu(seed in 0u64..u64::MAX) {
        use lu::LANES;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..10usize);
        let awkward = rng.gen_bool(0.3);
        let entry = |rng: &mut rand::rngs::StdRng| {
            if awkward {
                awkward_entry(rng)
            } else {
                Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            }
        };
        let base: Vec<Complex64> = (0..n * n).map(|_| entry(&mut rng)).collect();
        let mixed = rng.gen_bool(0.5);
        let mut systems = Vec::with_capacity(LANES);
        for _ in 0..LANES {
            let mut rows: Vec<usize> = (0..n).collect();
            if mixed {
                for i in 0..n {
                    rows.swap(i, rng.gen_range(i..n));
                }
            }
            let mut values: Vec<Complex64> = rows
                .iter()
                .flat_map(|&r| base[r * n..(r + 1) * n].iter().copied())
                .collect();
            values.extend((0..n).map(|_| entry(&mut rng)));
            systems.push(values);
        }
        for width in Width::available() {
            let mut block = block_of(n, &systems, width);
            factor_and_match_the_scalar_lu(&mut block, n, &systems, 0);
        }
    }

    /// On the imaginary axis, block assembly writes every entry's
    /// reduced expressions only where they equal the general `g + s·c`:
    /// each lane's matrix and right-hand side carry the bits of
    /// `g + s * c` on `Complex64`, with `−0.0`, ±∞ and NaN in `G` and `C`,
    /// and with lanes whose `s` has a real part of `−0.0` or NaN or an
    /// infinite or NaN imaginary part, which take the general path — at
    /// every width the host runs.
    #[test]
    fn axis_assembly_matches_the_general_expressions(seed in 0u64..u64::MAX) {
        use lu::{LaneBlock, LANES};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10usize);
        let matrix = |rng: &mut rand::rngs::StdRng| {
            let data: Vec<Complex64> = (0..n * n).map(|_| awkward_entry(rng)).collect();
            CMatrix::from_rows(n, n, &data).unwrap()
        };
        let (g, c) = (matrix(&mut rng), matrix(&mut rng));
        let rhs_g: Vec<Complex64> = (0..n).map(|_| awkward_entry(&mut rng)).collect();
        let rhs_c: Vec<Complex64> = (0..n).map(|_| awkward_entry(&mut rng)).collect();
        let mut s: [Complex64; LANES] = std::array::from_fn(|_| {
            Complex64::jomega(10f64.powf(rng.gen_range(-2.0..10.0)))
        });
        if rng.gen_bool(0.25) {
            let lane = rng.gen_range(0..LANES);
            s[lane] = match rng.gen_range(0..5) {
                0 => Complex64::new(-0.0, s[lane].im),
                1 => Complex64::new(f64::NAN, s[lane].im),
                2 => Complex64::jomega(f64::INFINITY),
                3 => Complex64::jomega(f64::NAN),
                _ => Complex64::ZERO,
            };
        }
        for width in Width::available() {
            let mut block = LaneBlock::with_width(n, width);
            block.assign_scale_add(&g, &c, &rhs_g, &rhs_c, &s).unwrap();
            for (lane, &s) in s.iter().enumerate() {
                for r in 0..n {
                    for col in 0..n {
                        let want = g[(r, col)] + s * c[(r, col)];
                        prop_assert!(
                            same_bits(block.get(r, col, lane), want),
                            "{:?} lane {} ({}, {}): g {:?} c {:?} s {:?}: {:?} vs {:?}",
                            width, lane, r, col, g[(r, col)], c[(r, col)], s,
                            block.get(r, col, lane), want
                        );
                    }
                    let want = rhs_g[r] + s * rhs_c[r];
                    prop_assert!(
                        same_bits(block.rhs(r, lane), want),
                        "{:?} lane {} rhs {}: {:?} vs {:?}", width, lane, r, block.rhs(r, lane), want
                    );
                }
            }
        }
    }

    /// A block at every width the host runs agrees with the portable
    /// block lane for lane, by bits, through assembly, factoring and
    /// solving: on awkward entries (`−0.0`, ±∞, NaN, extreme magnitudes
    /// that take both branches of Smith's reciprocal), with singular
    /// lanes, and with lanes that pivot alike or differently. Each lane
    /// assembles at its own point, on or off the imaginary axis.
    #[test]
    fn wide_blocks_match_the_portable_block_lane_for_lane(seed in 0u64..u64::MAX) {
        use lu::{LaneBlock, LANES};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..10usize);
        let matrix = |rng: &mut rand::rngs::StdRng| {
            let mut data: Vec<Complex64> = (0..n * n).map(|_| awkward_entry(rng)).collect();
            if rng.gen_bool(0.2) {
                // An exactly zero column in `G` and `C`: a singular lane
                // wherever `s` leaves it zero.
                let col = rng.gen_range(0..n);
                for r in 0..n {
                    data[r * n + col] = Complex64::ZERO;
                }
            }
            CMatrix::from_rows(n, n, &data).unwrap()
        };
        let (g, c) = (matrix(&mut rng), matrix(&mut rng));
        let rhs_g: Vec<Complex64> = (0..n).map(|_| awkward_entry(&mut rng)).collect();
        let rhs_c: Vec<Complex64> = (0..n).map(|_| awkward_entry(&mut rng)).collect();
        let s: [Complex64; LANES] = std::array::from_fn(|_| match rng.gen_range(0..6) {
            0 => Complex64::ZERO,
            1 => awkward_entry(&mut rng),
            _ => Complex64::jomega(10f64.powf(rng.gen_range(-2.0..12.0))),
        });
        let first_row = rng.gen_range(0..n);
        let run = |width: Width| {
            let mut block = LaneBlock::with_width(n, width);
            block.assign_scale_add(&g, &c, &rhs_g, &rhs_c, &s).unwrap();
            let assembled = block.clone();
            let singular = block.factor();
            block.solve(first_row);
            (assembled, singular, block)
        };
        let (want_assembled, want_singular, want) = run(Width::Portable);
        for width in Width::available() {
            let (assembled, singular, got) = run(width);
            prop_assert_eq!(singular, want_singular, "{:?}", width);
            for lane in 0..LANES {
                for r in 0..n {
                    for col in 0..n {
                        prop_assert!(
                            same_bits(assembled.get(r, col, lane), want_assembled.get(r, col, lane)),
                            "{:?} lane {} assembled ({}, {})", width, lane, r, col
                        );
                        prop_assert!(
                            same_bits(got.get(r, col, lane), want.get(r, col, lane)),
                            "{:?} lane {} factor ({}, {})", width, lane, r, col
                        );
                    }
                    prop_assert!(
                        same_bits(assembled.rhs(r, lane), want_assembled.rhs(r, lane)),
                        "{:?} lane {} rhs {}", width, lane, r
                    );
                    if !want_singular[lane] && r >= first_row {
                        prop_assert!(
                            same_bits(got.solution(r, lane), want.solution(r, lane)),
                            "{:?} lane {} x[{}]", width, lane, r
                        );
                    }
                }
            }
        }
    }
}

/// A block at `width` holding `systems[lane]` in each lane: the matrix
/// row-major, then the right-hand side.
fn block_of(n: usize, systems: &[Vec<Complex64>], width: Width) -> lu::LaneBlock {
    let mut block = lu::LaneBlock::with_width(n, width);
    for (lane, values) in systems.iter().enumerate() {
        for r in 0..n {
            for c in 0..n {
                block.set(r, c, lane, values[r * n + c]);
            }
            block.set_rhs(r, lane, values[n * n + r]);
        }
    }
    block
}

/// Factors the `n`-dim `block`, solves it down to `first_row`, and
/// checks every lane against `factor_in_place` + `solve_factored` on its
/// own system (`systems[lane]`: the matrix row-major, then the
/// right-hand side): the same singular verdict, factors and solution,
/// by bits.
fn factor_and_match_the_scalar_lu(
    block: &mut lu::LaneBlock,
    n: usize,
    systems: &[Vec<Complex64>],
    first_row: usize,
) {
    let singular = block.factor();
    block.solve(first_row);
    for (lane, values) in systems.iter().enumerate() {
        let mut a = CMatrix::from_rows(n, n, &values[..n * n]).unwrap();
        let mut perm = Vec::new();
        match lu::factor_in_place(&mut a, &mut perm) {
            Err(_) => prop_assert!(singular[lane], "lane {} missed a singular system", lane),
            Ok(_) => {
                prop_assert!(
                    !singular[lane],
                    "lane {} called a regular system singular",
                    lane
                );
                let mut x = Vec::new();
                lu::solve_factored(&a, &perm, &values[n * n..], &mut x).unwrap();
                for r in 0..n {
                    for c in 0..n {
                        prop_assert!(
                            same_bits(block.get(r, c, lane), a[(r, c)]),
                            "lane {} factor ({}, {}): {} vs {}",
                            lane,
                            r,
                            c,
                            block.get(r, c, lane),
                            a[(r, c)]
                        );
                    }
                }
                for (r, &want) in x.iter().enumerate().skip(first_row) {
                    prop_assert!(
                        same_bits(block.solution(r, lane), want),
                        "lane {} x[{}]: {} vs {}",
                        lane,
                        r,
                        block.solution(r, lane),
                        want
                    );
                }
            }
        }
    }
}
