//! Properties of the exact simplex pair scan: its witness is feasible and
//! achieves the reported maximum, and the maximum obeys the analytic
//! identities of the bilinear form.

use priste_linalg::Vector;
use priste_qp::simplex::maximize_simplex;
use priste_qp::BilinearProgram;
use proptest::prelude::*;

fn program(n: usize) -> impl Strategy<Value = BilinearProgram> {
    (
        proptest::collection::vec(0.0f64..1.0, n),
        proptest::collection::vec(-1.5f64..1.5, n),
        proptest::collection::vec(-1.0f64..1.0, n),
    )
        .prop_map(|(a, g, h)| {
            BilinearProgram::new(Vector::from(a), Vector::from(g), Vector::from(h))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The simplex scan's reported point achieves its reported value and is
    /// feasible.
    #[test]
    fn simplex_witness_is_feasible_and_achieving(p in program(6)) {
        let out = maximize_simplex(&p, u64::MAX, f64::INFINITY, None);
        prop_assert!((out.best_point.sum() - 1.0).abs() < 1e-9);
        for &x in out.best_point.as_slice() {
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&x));
        }
        prop_assert!((p.eval(&out.best_point) - out.best_value).abs() < 1e-9);
    }

    /// Shifting the linear term by c·1 shifts the simplex maximum by
    /// exactly c (since Σπ = 1) — an analytic identity the scan must obey.
    #[test]
    fn linear_shift_identity(p in program(4), c in -2.0f64..2.0) {
        let base = maximize_simplex(&p, u64::MAX, f64::INFINITY, None).best_value;
        let shifted_h = Vector::from(
            p.h.as_slice().iter().map(|&x| x + c).collect::<Vec<_>>(),
        );
        let shifted = BilinearProgram::new(p.a.clone(), p.g.clone(), shifted_h);
        let shifted_max = maximize_simplex(&shifted, u64::MAX, f64::INFINITY, None).best_value;
        prop_assert!(
            (shifted_max - base - c).abs() < 1e-8,
            "shift identity broken: {shifted_max} vs {base} + {c}"
        );
    }

    /// Scaling g by a positive constant scales the bilinear part: with
    /// h = 0, max is positively homogeneous in g.
    #[test]
    fn bilinear_homogeneity_in_g(p in program(4), k in 0.1f64..4.0) {
        let zero_h = BilinearProgram::new(p.a.clone(), p.g.clone(), Vector::zeros(4));
        let base = maximize_simplex(&zero_h, u64::MAX, f64::INFINITY, None).best_value;
        let scaled = BilinearProgram::new(
            p.a.clone(),
            p.g.scale(k),
            Vector::zeros(4),
        );
        let scaled_max = maximize_simplex(&scaled, u64::MAX, f64::INFINITY, None).best_value;
        // max(k·f) = k·max(f) only when max ≥ 0 is not required — it holds
        // for any sign because scaling g scales every pair value linearly.
        prop_assert!(
            (scaled_max - k * base).abs() < 1e-8 * (1.0 + base.abs() * k),
            "homogeneity broken: {scaled_max} vs {k}·{base}"
        );
    }
}
