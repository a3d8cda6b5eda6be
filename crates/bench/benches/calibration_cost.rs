//! Cost of calibration: what the `priste-calibrate` subsystem charges for
//! its guarantee.
//!
//! Three questions, three groups:
//!
//! * `calibration_planner` — offline planner cost vs horizon, all three
//!   planners head to head (the greedy search is `O(T · rungs · m)` oracle
//!   calls along the canonical history; the uniform-split baseline pays
//!   the evaluation without the search; the knapsack allocator pays both
//!   probes plus the LP — the LP itself is noise next to the oracle, so
//!   expect roughly greedy + uniform + a repair walk).
//! * `capacity` — the planner's reporting workload: the exact ε-capacity
//!   of all `m` emission columns at one timestep, one pair scan per column
//!   (about the cost of one Theorem IV.1 check each).
//! * `guard_overhead` — per-release cost of the online guard versus the
//!   raw uncalibrated mechanism + audit: one peek per attempt plus the
//!   commit, all `O(m²)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use priste_calibrate::{
    plan_greedy, plan_knapsack, plan_uniform_split, CalibratedMechanism, GuardConfig,
    PlanarLaplaceError, PlannerConfig,
};
use priste_core::test_support::{homogeneous_world, plm, presence};
use priste_event::StEvent;
use priste_geo::GridMap;
use priste_linalg::Vector;
use priste_lppm::{Lppm, PlanarLaplace};
use priste_markov::Homogeneous;
use priste_qp::SolverConfig;
use priste_quantify::sweep::min_certifiable_epsilon;
use priste_quantify::{IncrementalTwoWorld, TheoremBuilder, TheoremInputs};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One world: a 4×4 grid (m = 16) and a presence event over steps 2–4.
fn setup() -> (GridMap, Homogeneous, StEvent) {
    let (grid, provider) = homogeneous_world(4, 1.0);
    let event = presence(grid.num_cells(), grid.num_cells() / 4, 2, 4);
    (grid, provider, event)
}

fn bench_planner_vs_horizon(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration_planner");
    group.sample_size(10);
    let (grid, provider, event) = setup();
    let cfg = PlannerConfig::default();

    for horizon in [2usize, 4, 6] {
        group.bench_with_input(BenchmarkId::new("greedy", horizon), &horizon, |b, &h| {
            b.iter(|| {
                plan_greedy(plm(&grid, 1.5), &event, provider.clone(), h, 0.8, &cfg)
                    .expect("plan")
                    .mean_budget()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("uniform_split", horizon),
            &horizon,
            |b, &h| {
                b.iter(|| {
                    plan_uniform_split(plm(&grid, 1.5), &event, provider.clone(), h, 0.8, &cfg)
                        .expect("plan")
                        .mean_budget()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("knapsack", horizon), &horizon, |b, &h| {
            b.iter(|| {
                plan_knapsack(
                    plm(&grid, 1.5),
                    &event,
                    provider.clone(),
                    h,
                    0.8,
                    &cfg,
                    &PlanarLaplaceError,
                )
                .expect("plan")
                .total_utility(&PlanarLaplaceError)
            })
        });
    }
    group.finish();
}

/// The planner's reporting workload: Theorem inputs for *every* emission
/// column of a sharp mechanism (α = 3) at one timestep.
fn column_inputs() -> Vec<TheoremInputs> {
    let (grid, provider, event) = setup();
    let m = grid.num_cells();
    let plm = PlanarLaplace::new(grid, 3.0).expect("plm");
    let builder = TheoremBuilder::new(&event, provider).expect("builder");
    (0..m)
        .map(|o| {
            builder
                .candidate(&plm.emission_column(priste_geo::CellId(o)))
                .expect("candidate")
        })
        .collect()
}

fn bench_capacity(c: &mut Criterion) {
    let mut group = c.benchmark_group("capacity");
    group.sample_size(10);
    let inputs = column_inputs();
    let solver = SolverConfig::default();

    group.bench_function("exact_all_columns", |b| {
        b.iter(|| {
            inputs
                .iter()
                .filter_map(|inp| min_certifiable_epsilon(inp, 1e-4, 8.0, &solver).min_epsilon)
                .fold(0.0f64, f64::max)
        })
    });
    group.finish();
}

fn bench_guard_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_overhead");
    group.sample_size(10);
    let (grid, provider, event) = setup();
    let m = grid.num_cells();
    let pi = Vector::uniform(m);
    let horizon = 12usize;
    let mut rng = StdRng::seed_from_u64(5);
    let trajectory = provider
        .model()
        .sample_trajectory_from(&pi, horizon, &mut rng)
        .expect("trajectory");

    // Baseline: raw perturb + audit-only incremental quantification.
    group.bench_function("uncalibrated_audit", |b| {
        let plm = PlanarLaplace::new(grid.clone(), 1.5).expect("plm");
        b.iter(|| {
            let mut world = IncrementalTwoWorld::new(event.clone(), provider.clone(), pi.clone())
                .expect("world");
            let mut rng = StdRng::seed_from_u64(9);
            let mut worst = 0.0f64;
            for &loc in &trajectory {
                let obs = plm.perturb(loc, &mut rng);
                worst = worst.max(
                    world
                        .observe(&plm.emission_column(obs))
                        .expect("observe")
                        .privacy_loss,
                );
            }
            worst
        })
    });
    // Guarded: peek-certify-backoff-commit per release.
    group.bench_function("calibrated_release", |b| {
        b.iter(|| {
            let mut mech = CalibratedMechanism::new(
                Box::new(PlanarLaplace::new(grid.clone(), 1.5).expect("plm")),
                std::slice::from_ref(&event),
                provider.clone(),
                pi.clone(),
                GuardConfig {
                    target_epsilon: 0.8,
                    ..GuardConfig::default()
                },
            )
            .expect("guard");
            let mut rng = StdRng::seed_from_u64(9);
            let mut worst = 0.0f64;
            for &loc in &trajectory {
                worst = worst.max(mech.release(loc, &mut rng).expect("release").loss);
            }
            worst
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_planner_vs_horizon,
    bench_capacity,
    bench_guard_overhead
);
criterion_main!(benches);
