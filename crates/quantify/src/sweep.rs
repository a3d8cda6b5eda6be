//! ε-capacity analysis: the *smallest* ε a release sequence can certify.
//!
//! The framework answers "does this release satisfy a given ε?"; users
//! tuning a deployment usually ask the inverse — "what is the strongest
//! guarantee this mechanism can give for my event?". The checker answers
//! that exactly, in one scan of the coordinate pairs
//! ([`TheoremChecker::capacity`]); this module adds the reporting range:
//! capacities below `eps_floor` are clamped up to it, capacities above
//! `eps_ceiling` are reported as off the scale.

use crate::{Result, TheoremInputs};
use priste_qp::{SolverConfig, TheoremChecker};

/// Result of an ε-capacity query.
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonCapacity {
    /// The smallest ε at which the check certifies, clamped up to
    /// `eps_floor`; `None` when it exceeds `eps_ceiling` or the scan ran
    /// out of work.
    pub min_epsilon: Option<f64>,
    /// Whether the solver's work budget or deadline ran out before the
    /// scan finished: the capacity is then unknown, not off the scale.
    pub exhausted: bool,
}

/// The smallest certifiable ε for one timestep's Theorem inputs, within
/// the reporting range `[eps_floor, eps_ceiling]`.
///
/// # Panics
/// Panics on a non-positive or inverted range (caller bug).
pub fn min_certifiable_epsilon(
    inputs: &TheoremInputs,
    eps_floor: f64,
    eps_ceiling: f64,
    solver: &SolverConfig,
) -> EpsilonCapacity {
    assert!(
        eps_floor > 0.0 && eps_floor < eps_ceiling,
        "invalid range [{eps_floor}, {eps_ceiling}]"
    );
    let capacity =
        TheoremChecker::new(eps_floor, solver.clone()).capacity(&inputs.a, &inputs.b, &inputs.c);
    EpsilonCapacity {
        min_epsilon: capacity
            .filter(|&k| k <= eps_ceiling)
            .map(|k| k.max(eps_floor)),
        exhausted: capacity.is_none(),
    }
}

/// Sweeps a whole release sequence: the per-timestep minimal certifiable ε
/// for a fixed (uncalibrated) mechanism — the curve that tells a user where
/// in time their event is most exposed.
///
/// `emission_columns[i]` is the column released at timestep `i+1`; the
/// builder is advanced with the same columns.
///
/// # Errors
/// Propagates quantification errors from the builder.
pub fn epsilon_capacity_curve<P: priste_markov::TransitionProvider>(
    builder: &mut crate::TheoremBuilder<P>,
    emission_columns: &[priste_linalg::Vector],
    eps_max: f64,
    solver: &SolverConfig,
) -> Result<Vec<EpsilonCapacity>> {
    let mut curve = Vec::with_capacity(emission_columns.len());
    for col in emission_columns {
        let inputs = builder.candidate(col)?;
        curve.push(min_certifiable_epsilon(&inputs, 1e-4, eps_max, solver));
        builder.commit(col.clone())?;
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TheoremBuilder;
    use priste_event::StEvent;
    use priste_linalg::Vector;
    use priste_markov::Homogeneous;

    fn setup() -> (StEvent, Homogeneous) {
        // Shared scaffolding: presence over the first two cells of the
        // paper's 3-state example, protected during timestamps 2–3.
        (
            priste_core::test_support::presence(3, 2, 2, 3),
            priste_core::test_support::paper_chain(),
        )
    }

    #[test]
    fn uninformative_columns_certify_tiny_epsilon() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let flat = Vector::from(vec![1.0 / 3.0; 3]);
        let inputs = builder.candidate(&flat).unwrap();
        let cap = min_certifiable_epsilon(&inputs, 1e-4, 4.0, &SolverConfig::default());
        assert_eq!(
            cap.min_epsilon,
            Some(1e-4),
            "flat column should certify at the floor"
        );
        assert!(!cap.exhausted);
    }

    #[test]
    fn informative_columns_need_more_epsilon() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let mild = Vector::from(vec![0.4, 0.35, 0.25]);
        let sharp = Vector::from(vec![0.9, 0.05, 0.05]);
        let cfg = SolverConfig::default();
        let mild_eps = min_certifiable_epsilon(&builder.candidate(&mild).unwrap(), 1e-4, 8.0, &cfg)
            .min_epsilon
            .unwrap();
        let sharp_eps =
            min_certifiable_epsilon(&builder.candidate(&sharp).unwrap(), 1e-4, 8.0, &cfg)
                .min_epsilon
                .unwrap();
        assert!(
            sharp_eps > mild_eps + 0.05,
            "sharper evidence must need more ε: {sharp_eps} vs {mild_eps}"
        );
    }

    #[test]
    fn capacity_is_a_boundary() {
        // Just below the returned ε the check fails; at it, it certifies.
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let col = Vector::from(vec![0.7, 0.2, 0.1]);
        let inputs = builder.candidate(&col).unwrap();
        let cfg = SolverConfig::default();
        let eps = min_certifiable_epsilon(&inputs, 1e-4, 8.0, &cfg)
            .min_epsilon
            .unwrap();
        let check = |eps: f64| {
            TheoremChecker::new(eps, cfg.clone())
                .check(&inputs.a, &inputs.b, &inputs.c)
                .satisfied()
        };
        assert!(check(eps + 1e-9));
        assert!(!check(eps - 1e-3), "ε − 0.001 should fail at the boundary");
    }

    #[test]
    fn capacity_curve_tracks_the_event_window() {
        let (ev, chain) = setup();
        let mut builder = TheoremBuilder::new(&ev, chain).unwrap();
        // Moderately informative columns at every step.
        let col = Vector::from(vec![0.5, 0.3, 0.2]);
        let cols = vec![col.clone(), col.clone(), col.clone(), col];
        let curve =
            epsilon_capacity_curve(&mut builder, &cols, 8.0, &SolverConfig::default()).unwrap();
        assert_eq!(curve.len(), 4);
        for c in &curve {
            assert!(c.min_epsilon.is_some());
        }
    }

    #[test]
    fn unreachable_bracket_reports_none() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let sharp = Vector::from(vec![0.98, 0.01, 0.01]);
        let inputs = builder.candidate(&sharp).unwrap();
        // ε ≤ 1e-3 cannot absorb this column's evidence.
        let cap = min_certifiable_epsilon(&inputs, 1e-4, 1e-3, &SolverConfig::default());
        assert_eq!(
            cap,
            EpsilonCapacity {
                min_epsilon: None,
                exhausted: false
            }
        );
    }

    #[test]
    fn exhausted_budget_is_unknown_not_off_scale() {
        let (ev, chain) = setup();
        let builder = TheoremBuilder::new(&ev, chain).unwrap();
        let inputs = builder
            .candidate(&Vector::from(vec![0.5, 0.3, 0.2]))
            .unwrap();
        let cap = min_certifiable_epsilon(&inputs, 1e-4, 8.0, &SolverConfig::with_budget(4));
        assert_eq!(
            cap,
            EpsilonCapacity {
                min_epsilon: None,
                exhausted: true
            }
        );
    }
}
