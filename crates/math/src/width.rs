//! The register width the workspace's lane kernels run at, chosen at run
//! time.
//!
//! The lane kernels — [`crate::lu::LaneBlock`] here and the Gaussian
//! process's pool prediction in `artisan-opt` — keep eight `f64` lanes
//! side by side in `[f64; 8]` arrays. Compiled for the target's baseline
//! (SSE2 on x86-64), one instruction handles two lanes. A CPU with
//! AVX-512F handles all eight in one. [`Width::run`] compiles a
//! [`Kernel`] a second time inside a function that enables `avx512f`,
//! and calls that copy when the CPU reports the feature.
//!
//! **Bits.** Both widths compile the same Rust source, and Rust's
//! floating point has no fast-math: it never fuses `a*b + c` into one
//! rounding unless asked with `mul_add`, never reassociates, and rounds
//! `/` and `sqrt` correctly at any width. So each lane does the same
//! IEEE operations in the same order at either width and gets the same
//! bits. (Rust leaves a NaN's payload unspecified, so the tests compare
//! any NaN equal to any other.)
//!
//! **Inlining.** Only code inlined into the wide function is compiled
//! wide. [`Kernel::run`] and every helper it reaches must therefore be
//! `#[inline(always)]`; a helper that is not compiles once, at baseline
//! width, and runs narrow from either path.
//!
//! **Safety.** Running an AVX-512F instruction on a CPU without it is
//! undefined behaviour, so [`Width::run`] checks the CPU itself on every
//! call, with `is_x86_feature_detected!`, which also checks that the
//! operating system saves the 512-bit registers. A width the host lacks
//! runs the portable code. That check guards the workspace's only
//! `unsafe` block. Other architectures compile only the portable path.
//!
//! # Example
//!
//! ```
//! use artisan_math::width::{Kernel, Width};
//!
//! /// Squares eight lanes.
//! struct Square([f64; 8]);
//!
//! impl Kernel for Square {
//!     type Output = [f64; 8];
//!     #[inline(always)]
//!     fn run(self) -> [f64; 8] {
//!         self.0.map(|x| x * x)
//!     }
//! }
//!
//! let lanes = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
//! let want = Width::Portable.run(Square(lanes));
//! for width in Width::available() {
//!     assert_eq!(width.run(Square(lanes)), want);
//! }
//! ```

/// A register width a [`Kernel`] can run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// The target's baseline instructions. Every host has it, and it is
    /// the reference the wider width must match bit for bit.
    Portable,
    /// 512-bit registers (AVX-512F on x86-64): all eight lanes of an
    /// `[f64; 8]` in one instruction.
    Avx512f,
}

/// A computation [`Width::run`] can compile at each width.
///
/// Implement it on a small struct that carries the computation's
/// arguments. `run` must be `#[inline(always)]`, and so must every
/// function it calls that should run wide.
pub trait Kernel {
    /// What the computation returns.
    type Output;

    /// Does the computation.
    fn run(self) -> Self::Output;
}

impl Width {
    /// Every width, narrowest first.
    pub const ALL: [Width; 2] = [Width::Portable, Width::Avx512f];

    /// Whether this host's CPU and operating system can run the width.
    pub fn is_available(self) -> bool {
        match self {
            Width::Portable => true,
            Width::Avx512f => avx512f(),
        }
    }

    /// The widest width the host can run: the one every production
    /// caller gets. Detection is cached by the standard library, so
    /// repeated calls are cheap and agree.
    pub fn detected() -> Width {
        if Width::Avx512f.is_available() {
            Width::Avx512f
        } else {
            Width::Portable
        }
    }

    /// Every width the host can run, narrowest first: always
    /// [`Width::Portable`], then [`Width::detected`] if it is wider.
    pub fn available() -> impl Iterator<Item = Width> {
        Width::ALL.into_iter().filter(|w| w.is_available())
    }

    /// The width's name in reports: `"portable"` or `"avx512f"`.
    pub fn name(self) -> &'static str {
        match self {
            Width::Portable => "portable",
            Width::Avx512f => "avx512f",
        }
    }

    /// Runs `kernel` at this width, or at [`Width::Portable`] when the
    /// host cannot run it. Either way the result has the portable
    /// result's bits, if the kernel keeps the rules of the module docs.
    #[allow(unsafe_code)]
    #[inline(always)]
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        #[cfg(target_arch = "x86_64")]
        {
            /// The kernel compiled with AVX-512F enabled.
            #[target_feature(enable = "avx512f")]
            fn wide<K: Kernel>(kernel: K) -> K::Output {
                kernel.run()
            }
            if self == Width::Avx512f && std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: `wide` is a safe function whose only
                // precondition is that the CPU supports AVX-512F, and the
                // detection just above reported that it does, with the
                // operating system saving the ZMM registers. Nothing else
                // differs from calling `kernel.run()`.
                return unsafe { wide(kernel) };
            }
        }
        kernel.run()
    }
}

/// Whether the CPU and operating system support AVX-512F.
#[cfg(target_arch = "x86_64")]
fn avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Whether the CPU and operating system support AVX-512F: never, off
/// x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn avx512f() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eight lanes of a complex multiply-subtract, `acc − a·b`, as the
    /// lane LU does it.
    struct SubMul {
        acc: [f64; 8],
        a: [f64; 8],
        b: [f64; 8],
    }

    impl Kernel for SubMul {
        type Output = [f64; 8];
        #[inline(always)]
        fn run(self) -> [f64; 8] {
            let mut out = self.acc;
            for (l, x) in out.iter_mut().enumerate() {
                *x -= self.a[l] * self.b[l];
            }
            out
        }
    }

    fn probe() -> SubMul {
        SubMul {
            acc: [1.0, -0.0, 0.1, 1e300, f64::INFINITY, 3.0, -2.5, 1e-300],
            a: [0.1, 0.0, 0.3, 1e300, 1.0, f64::NAN, 7.0, 1e-10],
            b: [0.7, -0.0, 1.0 / 3.0, 10.0, 2.0, 1.0, -0.125, 1e-300],
        }
    }

    #[test]
    fn portable_is_always_available_and_listed_first() {
        assert!(Width::Portable.is_available());
        assert_eq!(Width::available().next(), Some(Width::Portable));
    }

    #[test]
    fn the_dispatcher_never_selects_a_width_the_host_lacks() {
        for width in Width::available() {
            assert!(width.is_available(), "{width:?}");
        }
        for width in Width::ALL {
            assert_eq!(
                Width::available().any(|w| w == width),
                width.is_available(),
                "{width:?}"
            );
        }
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            Width::Avx512f.is_available(),
            std::arch::is_x86_feature_detected!("avx512f")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!Width::Avx512f.is_available());
    }

    #[test]
    fn the_detected_width_is_the_widest_available_and_stable() {
        let first = Width::detected();
        assert!(first.is_available());
        assert_eq!(Width::available().last(), Some(first));
        for _ in 0..100 {
            assert_eq!(Width::detected(), first);
        }
    }

    /// Every width runs, the ones the host lacks through the portable
    /// fallback, and every lane keeps the portable bits.
    #[test]
    fn every_width_runs_with_the_portable_bits() {
        let want = Width::Portable.run(probe());
        for width in Width::ALL {
            let got = width.run(probe());
            for (l, (x, y)) in got.iter().zip(&want).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "{width:?} lane {l}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn names_are_the_report_strings() {
        assert_eq!(Width::Portable.name(), "portable");
        assert_eq!(Width::Avx512f.name(), "avx512f");
    }
}
