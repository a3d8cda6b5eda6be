//! Streaming-vs-offline equivalence: [`IncrementalTwoWorld`] fed one
//! observation at a time must agree with [`TheoremBuilder`] run over the
//! whole horizon, for random models, events and observation streams — the
//! engine-vs-enumeration oracle pattern of `tests/oracle.rs`, one layer up.

use priste_event::{Pattern, Presence, StEvent};
use priste_geo::{CellId, Region};
use priste_linalg::{Matrix, Vector};
use priste_markov::{Homogeneous, MarkovModel};
use priste_quantify::{IncrementalTwoWorld, QuantifyError, TheoremBuilder, TwoWorldEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random row-stochastic matrix of size m.
fn stochastic_matrix(m: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, m), m).prop_map(move |rows| {
        let mut mat = Matrix::from_rows(&rows).unwrap();
        mat.normalize_rows_mut();
        mat
    })
}

/// Strategy: a random probability distribution of length m.
fn distribution(m: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(0.01f64..1.0, m).prop_map(|raw| {
        let mut v = Vector::from(raw);
        v.normalize_mut().unwrap();
        v
    })
}

/// Strategy: a proper (non-empty, non-full) region over m cells.
fn region(m: usize) -> impl Strategy<Value = Region> {
    proptest::collection::vec(proptest::bool::ANY, m)
        .prop_filter("region must be proper", |bits| {
            let k = bits.iter().filter(|&&b| b).count();
            k > 0 && k < bits.len()
        })
        .prop_map(move |bits| {
            Region::from_cells(
                m,
                bits.iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| CellId(i)),
            )
            .unwrap()
        })
}

/// Strategy: a random PRESENCE or PATTERN event over m cells.
fn st_event(m: usize) -> impl Strategy<Value = StEvent> {
    (1usize..=3, 1usize..=3, region(m), proptest::bool::ANY).prop_flat_map(
        move |(start, len, r, is_presence)| {
            let end = start + len - 1;
            if is_presence {
                Just(StEvent::from(Presence::new(r.clone(), start, end).unwrap())).boxed()
            } else {
                proptest::collection::vec(region(m), len)
                    .prop_map(move |rs| StEvent::from(Pattern::new(rs, start).unwrap()))
                    .boxed()
            }
        },
    )
}

/// Builds the incremental state, skipping degenerate-prior cases (a random
/// event can be certain or impossible under a random chain).
fn build_or_skip<'c>(
    ev: &StEvent,
    chain: &'c Homogeneous,
    pi: &Vector,
) -> Option<IncrementalTwoWorld<&'c Homogeneous>> {
    match IncrementalTwoWorld::new(ev.clone(), chain, pi.clone()) {
        Ok(inc) => Some(inc),
        Err(QuantifyError::DegeneratePrior { .. }) => None,
        Err(e) => panic!("unexpected construction error: {e}"),
    }
}

fn random_emission(rng: &mut StdRng, m: usize) -> Vector {
    Vector::from(
        (0..m)
            .map(|_| rng.gen::<f64>() * 0.9 + 0.1)
            .collect::<Vec<_>>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-step joints, posteriors and losses from the incremental state
    /// equal the offline builder replaying the whole horizon.
    #[test]
    fn incremental_equals_full_horizon_replay(
        mat in stochastic_matrix(3),
        pi in distribution(3),
        ev in st_event(3),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        // A random event can be certain/impossible under a random chain;
        // there is no ratio to track and nothing to compare.
        // The shim inlines this body into the per-case loop, so `continue`
        // skips just this sampled case.
        let Some(mut inc) = build_or_skip(&ev, &chain, &pi) else { continue };
        let mut builder = TheoremBuilder::new(&ev, &chain).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // Observe two steps past the event end to exercise the Lemma III.3
        // (post-event, backward-chain) regime on the offline side.
        let horizon = ev.end() + 2;
        for t in 1..=horizon {
            let col = random_emission(&mut rng, 3);
            let stream = inc.observe(&col).unwrap();
            let inputs = builder.candidate(&col).unwrap();
            prop_assert_eq!(stream.t, t);
            prop_assert!((stream.prior - inputs.prior(&pi)).abs() < 1e-12);
            let (off_jb, off_jc) = (inputs.log_joint_event(&pi), inputs.log_joint_total(&pi));
            prop_assert!(
                (stream.log_joint_event - off_jb).abs() < 1e-9
                    || (stream.log_joint_event == f64::NEG_INFINITY
                        && off_jb == f64::NEG_INFINITY),
                "t={} joint(E): {} vs {} ({})", t, stream.log_joint_event, off_jb, ev
            );
            prop_assert!(
                (stream.log_joint_total - off_jc).abs() < 1e-9,
                "t={} joint(o): {} vs {} ({})", t, stream.log_joint_total, off_jc, ev
            );
            builder.commit(col).unwrap();
        }
    }

    /// The incremental posterior is the exact Bayesian adversary's,
    /// `π·b / π·c` of the offline builder, and its odds lift is the
    /// likelihood ratio: `privacy_loss == |ln odds_lift|` (Bayes).
    #[test]
    fn incremental_posterior_is_the_adversary_posterior(
        mat in stochastic_matrix(4),
        pi in distribution(4),
        ev in st_event(4),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        // The shim inlines this body into the per-case loop, so `continue`
        // skips just this sampled case.
        let Some(mut inc) = build_or_skip(&ev, &chain, &pi) else { continue };
        let mut builder = TheoremBuilder::new(&ev, &chain).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ev.end() + 2 {
            let col = random_emission(&mut rng, 4);
            let stream = inc.observe(&col).unwrap();
            let inputs = builder.candidate(&col).unwrap();
            let posterior = pi.dot(&inputs.b).unwrap() / pi.dot(&inputs.c).unwrap();
            prop_assert!(
                (stream.posterior - posterior).abs() < 1e-9,
                "posterior {} vs {} ({})", stream.posterior, posterior, ev
            );
            let lift_loss = stream.odds_lift.ln().abs();
            if stream.privacy_loss.is_finite() && lift_loss.is_finite() {
                prop_assert!(
                    (stream.privacy_loss - lift_loss).abs() < 1e-9 * (1.0 + lift_loss),
                    "loss {} vs |ln lift| {} ({})", stream.privacy_loss, lift_loss, ev
                );
            }
            builder.commit(col).unwrap();
        }
    }

    /// The batched path (one shared [`LiftedStep`] applied via
    /// `apply_rows`, then `observe_pre_stepped`) is the same recursion.
    #[test]
    fn pre_stepped_batching_equals_sequential_observe(
        mat in stochastic_matrix(3),
        pi in distribution(3),
        ev in st_event(3),
        seed in 0u64..u64::MAX / 2,
    ) {
        let chain = Homogeneous::new(MarkovModel::new(mat).unwrap());
        let Some(mut plain) = build_or_skip(&ev, &chain, &pi) else { continue };
        let mut batched = plain.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ev.end() + 2 {
            let col = random_emission(&mut rng, 3);
            let a = plain.observe(&col).unwrap();
            let stepped = match batched.next_step_index() {
                None => batched.lifted_state().clone(),
                Some(idx) => {
                    let engine = TwoWorldEngine::new(batched.event(), &chain).unwrap();
                    engine
                        .step_at(idx)
                        .apply_rows(std::slice::from_ref(batched.lifted_state()))
                        .pop()
                        .unwrap()
                }
            };
            let b = batched.observe_pre_stepped(stepped, &col).unwrap();
            prop_assert!((a.log_joint_event - b.log_joint_event).abs() < 1e-12);
            prop_assert!((a.log_joint_total - b.log_joint_total).abs() < 1e-12);
            prop_assert!((a.posterior - b.posterior).abs() < 1e-12);
        }
    }
}
