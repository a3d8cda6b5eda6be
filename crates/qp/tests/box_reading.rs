//! Why Theorem IV.1 is solved over the simplex and not over the paper's
//! literal box `0 ≤ π ≤ 1`.
//!
//! Eq. (15) is `f₁(π) = (π·a)(π·g₁) + π·b ≤ 0`. At a box point
//! `π = s·e_i` it reads `s²·a_i·g₁_i + s·b_i`, which is positive for every
//! small enough `s` once `b_i > 0` — and `b_i > 0` for any release that can
//! happen while the event holds. So the box reading rejects every
//! mechanism, even the uniform one the paper's α → 0 termination argument
//! relies on, while the simplex reading certifies the same inputs. No
//! solver is needed to see the box violation: the witness is explicit.

use priste_core::test_support::{homogeneous_world, plm, presence};
use priste_geo::CellId;
use priste_linalg::Vector;
use priste_lppm::{Lppm, UniformMechanism};
use priste_qp::simplex::check_nonpositive;
use priste_qp::theorem::Constraint;
use priste_qp::{SolverConfig, TheoremChecker};
use priste_quantify::TheoremBuilder;

#[test]
fn box_reading_makes_eq15_violable_where_the_simplex_holds() {
    let (grid, chain) = homogeneous_world(3, 1.0);
    let m = grid.num_cells();
    let event = presence(m, 3, 2, 3);
    let checker = TheoremChecker::new(1.0, SolverConfig::default());
    let mechanisms: [Box<dyn Lppm>; 2] = [Box::new(UniformMechanism::new(m)), plm(&grid, 0.1)];
    for mechanism in &mechanisms {
        let mut builder = TheoremBuilder::new(&event, chain.clone()).unwrap();
        for observed in [0, 4, 8, 2] {
            let column = mechanism.emission_column(CellId(observed));
            let inputs = builder.candidate(&column).unwrap();
            let [(constraint, eq15), _] = checker.programs(&inputs.a, &inputs.b, &inputs.c);
            assert_eq!(constraint, Constraint::Eq15);
            let t = inputs.t;

            // Simplex reading: certified.
            assert!(
                check_nonpositive(&eq15, checker.config()).holds(),
                "t={t}: the simplex check must certify Eq. (15)"
            );

            // Box reading: π = s·e_i beats zero for every i with b_i > 0
            // (`h` is the scaled `b`), at any s below b_i / (a_i·|g_i|).
            let mut positive = 0;
            for i in (0..m).filter(|&i| eq15.h[i] > 0.0) {
                let s = 0.5 * eq15.h[i] / (1.0 + eq15.a[i] * eq15.g[i].abs());
                let mut pi = Vector::zeros(m);
                pi[i] = s;
                assert!(
                    eq15.eval(&pi) > 0.0,
                    "t={t}: box point {s}·e_{i} should violate Eq. (15)"
                );
                positive += 1;
            }
            assert!(positive > 0, "t={t}: some b_i must be positive");
            builder.commit(column).unwrap();
        }
    }
}
