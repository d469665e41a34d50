//! The continuous topology embedding BOBO searches over.
//!
//! BOBO \[12\] optimizes opamp topologies "in continuous space via graph
//! embedding": a fixed-length real vector encodes both the discrete
//! connection choices and the component values. Our embedding, decoded
//! from the unit hypercube:
//!
//! - one coordinate per tunable position selecting among its legal
//!   connection types (uniform bins),
//! - three log-scaled coordinates per position for (R, C, gm),
//! - six coordinates for the three stages' (gm, intrinsic gain).
//!
//! Dimension: `7·4 + 6 = 34`.

use artisan_circuit::sample::SampleRanges;
use artisan_circuit::units::{Farads, Ohms, Siemens};
use artisan_circuit::{
    ConnectionParams, Placement, Position, PositionRules, Skeleton, StageParams, Topology,
};

/// Embedding dimensionality.
pub const DIM: usize = 7 * 4 + 6;

fn log_decode(u: f64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + u.clamp(0.0, 1.0) * (hi.ln() - lo.ln())).exp()
}

/// Decodes a point of `[0,1]^DIM` into a legal topology with load `cl`.
///
/// # Panics
///
/// Panics when `x.len() != DIM`.
pub fn decode(x: &[f64], cl: f64, ranges: &SampleRanges) -> Topology {
    assert_eq!(x.len(), DIM, "embedding has {} coordinates", DIM);
    let stage = |gm_u: f64, gain_u: f64| {
        StageParams::from_gm_and_gain(
            log_decode(gm_u, ranges.stage_gm.0, ranges.stage_gm.1),
            log_decode(gain_u, ranges.stage_gain.0, ranges.stage_gain.1),
        )
    };
    let base = 7 * 4;
    let skeleton = Skeleton::new(
        stage(x[base], x[base + 1]),
        stage(x[base + 2], x[base + 3]),
        stage(x[base + 4], x[base + 5]),
        1e6,
        cl,
    );
    let mut topo = Topology::new(skeleton);
    for (k, pos) in Position::ALL.iter().enumerate() {
        let legal = PositionRules::legal_types(*pos);
        let sel = (x[k * 4].clamp(0.0, 1.0 - 1e-9) * legal.len() as f64) as usize;
        let conn = legal[sel];
        if conn == artisan_circuit::ConnectionType::Open {
            continue;
        }
        let params = ConnectionParams {
            r: conn
                .needs_r()
                .then(|| Ohms(log_decode(x[k * 4 + 1], ranges.r.0, ranges.r.1))),
            c: conn
                .needs_c()
                .then(|| Farads(log_decode(x[k * 4 + 2], ranges.c.0, ranges.c.1))),
            gm: conn
                .needs_gm()
                .then(|| Siemens(log_decode(x[k * 4 + 3], ranges.gm.0, ranges.gm.1))),
        };
        #[allow(clippy::expect_used)] // decode maps into each position's legal set
        topo.place(Placement::new(*pos, conn, params))
            .expect("decoded connection is legal by construction");
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn decoded_topologies_always_validate() {
        let mut rng = StdRng::seed_from_u64(0);
        let ranges = SampleRanges::default();
        for _ in 0..200 {
            let x: Vec<f64> = (0..DIM).map(|_| rng.gen_range(0.0..1.0)).collect();
            let t = decode(&x, 10e-12, &ranges);
            t.validate().expect("decoded topology valid");
        }
    }

    #[test]
    fn zero_vector_decodes_to_bare_skeleton() {
        // Coordinate 0 selects the first legal type at each position,
        // which is always Open.
        let x = vec![0.0; DIM];
        let t = decode(&x, 10e-12, &SampleRanges::default());
        assert!(t.placements().is_empty());
    }

    #[test]
    fn decoding_is_deterministic_and_sensitive() {
        let ranges = SampleRanges::default();
        let mut a = vec![0.5; DIM];
        let t1 = decode(&a, 10e-12, &ranges);
        let t2 = decode(&a, 10e-12, &ranges);
        assert_eq!(t1, t2);
        a[0] = 0.95;
        let t3 = decode(&a, 10e-12, &ranges);
        assert_ne!(t1, t3);
    }

    #[test]
    #[should_panic(expected = "coordinates")]
    fn wrong_dimension_panics() {
        decode(&[0.5; 3], 10e-12, &SampleRanges::default());
    }

    #[test]
    fn boundary_coordinates_are_safe() {
        let ranges = SampleRanges::default();
        decode(&vec![1.0; DIM], 10e-12, &ranges)
            .validate()
            .expect("all-ones decodes legally");
    }
}
