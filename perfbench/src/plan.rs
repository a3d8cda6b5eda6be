//! `plan-m400`: `Pipeline::plan_greedy` on the CLI `calibrate` world at
//! `--side 20` (dense σ = 1 chain, α = 2, ε* = 0.8, horizon 4).

use crate::report::{Report, Scenario};
use crate::serving::replay_vecmat;
use crate::stats;
use crate::wrap::{LppmStats, TracedLppm, TracedProvider};
use crate::Options;
use priste::calibrate::{BudgetPlan, PlannerConfig};
use priste::geo::{CellId, GridMap};
use priste::linalg::Vector;
use priste::lppm::{Lppm, PlanarLaplace};
use priste::markov::{gaussian_kernel_chain, MarkovModel};
use priste::qp::{TheoremChecker, TheoremVerdict};
use priste::quantify::TheoremBuilder;
use priste::Pipeline;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SIDE: usize = 20;
const SIGMA: f64 = 1.0;
const ALPHA: f64 = 2.0;
const TARGET: f64 = 0.8;
const HORIZON: usize = 4;
const EVENT: &str = "PRESENCE(S={1:100}, T={2:3})";
/// Set-ups per run; the median is reported.
const SETUPS: usize = 15;
/// About how long one plan takes; a run makes `--seconds / NOMINAL_PLAN_S`
/// plans (rounded down, at least one), so the number of plans does not
/// depend on how fast the host happens to be.
const NOMINAL_PLAN_S: f64 = 10.0;

fn world() -> (GridMap, MarkovModel) {
    let grid = GridMap::new(SIDE, SIDE, 1.0).expect("valid grid");
    let chain = gaussian_kernel_chain(&grid, SIGMA).expect("valid chain");
    (grid, chain)
}

/// World, mechanism and pipeline; `traced` swaps in the counting
/// wrappers. Returns the pipeline and the wrappers' handles.
fn setup(
    opts: &Options,
    traced: bool,
) -> (
    Pipeline,
    Option<Arc<LppmStats>>,
    Option<Arc<TracedProvider>>,
) {
    let (grid, chain) = world();
    let plm = PlanarLaplace::new(grid.clone(), ALPHA).expect("valid PLM");
    let lppm = traced.then(|| Arc::new(LppmStats::default()));
    let provider = (traced || !opts.slow_transition.is_zero())
        .then(|| Arc::new(TracedProvider::new(chain.clone(), opts.slow_transition)));
    let mut builder = Pipeline::on(grid).mobility(chain);
    if let Some(p) = &provider {
        builder = builder.mobility_provider(Arc::clone(p));
    }
    builder = match &lppm {
        Some(stats) => builder.mechanism(TracedLppm::new(Box::new(plm), Arc::clone(stats))),
        None => builder.mechanism(plm),
    };
    let pipeline = builder
        .event_spec(EVENT)
        .target_epsilon(TARGET)
        .planner(PlannerConfig::default())
        .build()
        .expect("valid pipeline");
    // Warm-up: derive one mechanism instance, as every plan call does.
    pipeline.mechanism_instance().expect("mechanism derives");
    (pipeline, lppm, provider)
}

/// One plan: the plan, its wall time and the planning thread's CPU time
/// in seconds. `PlannerConfig::default()` plans on the calling thread, so
/// the CPU time is the plan's whole cost without the host's steal.
fn timed_plan(pipeline: &Pipeline) -> (Result<BudgetPlan, String>, f64, f64) {
    let cpu = stats::thread_cpu_s();
    let started = Instant::now();
    let plan = pipeline.plan_greedy(HORIZON).map_err(|e| e.to_string());
    let wall = started.elapsed().as_secs_f64();
    (plan, wall, stats::thread_cpu_s() - cpu)
}

/// Checks a plan: every step certified, and the budgets equal to the ones
/// this seed produced before (stored next to the durable directories).
fn check_plan(
    plan: &Result<BudgetPlan, String>,
    first: &mut Option<Vec<f64>>,
    opts: &Options,
    report: &mut Report,
) {
    report.attempted += 1;
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            report.failed += 1;
            report.correct = false;
            eprintln!("plan failed: {e}");
            return;
        }
    };
    if !plan.all_certified() {
        report.correct = false;
        eprintln!("plan is not all-certified:\n{plan}");
    }
    let budgets: Vec<f64> = plan.steps.iter().map(|s| s.budget).collect();
    match first {
        Some(expected) if *expected != budgets => {
            report.correct = false;
            eprintln!("plan budgets changed within the run: {expected:?} then {budgets:?}");
        }
        Some(_) => {}
        None => {
            let path = opts
                .run_dir
                .join(format!("plan-m400-seed{}.budgets", opts.seed));
            let text: String = budgets.iter().map(|b| format!("{b:?}\n")).collect();
            match std::fs::read_to_string(&path) {
                Ok(stored) if stored != text => {
                    report.correct = false;
                    eprintln!("plan budgets differ from an earlier run with this seed: {stored:?} vs {text:?}");
                }
                Ok(_) => {}
                Err(_) => {
                    let _ = std::fs::write(&path, &text);
                }
            }
            *first = Some(budgets);
        }
    }
}

/// Runs `plan-m400` and fills `report`.
pub fn run(opts: &Options, trace: bool, report: &mut Report, scenario: &mut Scenario) {
    let (_, chain) = world();
    scenario.m = chain.num_states();
    scenario.nnz = chain.transition_matrix().nnz();
    scenario.daemon =
        "none (in-process planner, PlannerConfig::default(), 1 planner thread)".into();
    scenario.generator = "none".into();
    if trace {
        run_traced(opts, report);
        return;
    }
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        setup(opts, false);
        setups.push(started.elapsed().as_secs_f64());
    }
    let plans = ((opts.seconds / NOMINAL_PLAN_S) as usize).max(1);
    let (mut times, mut walls) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut last = None;
    for _ in 0..plans {
        // Each plan runs on a pipeline of its own, as one CLI `calibrate`
        // call would: on a reused pipeline later plans measured slower.
        let (pipeline, _, _) = setup(opts, false);
        let (plan, wall, cpu) = timed_plan(&pipeline);
        check_plan(&plan, &mut first, opts, report);
        times.push(cpu);
        walls.push(wall);
        last = plan.ok();
    }
    let (certified, mean_budget) = last.map_or((0.0, 0.0), |p| {
        (p.certified_steps() as f64, p.mean_budget())
    });
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("p50_ms", stats::median(&times) * 1e3, "ms");
    report.metric(
        "sustained_rps",
        HORIZON as f64 / stats::median(&times),
        "1/s",
    );
    report.metric(
        "ok_share",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "share",
    );
    report.metric("released_share", certified / HORIZON as f64, "share");
    report.metric("release_mean_budget", mean_budget, "alpha");
    report.metric("peak_rss_mb", stats::proc_status_kb("VmHWM") / 1024.0, "MB");
    eprintln!(
        "plan-m400: {} plans, median CPU {:.3} s, wall {:.3} s, budgets {first:?}",
        times.len(),
        stats::median(&times),
        stats::median(&walls)
    );
}

/// The traced run: one untraced plan for the overhead baseline, one plan
/// through the counting wrappers, then a replay that re-certifies every
/// planned step over all `m` columns with `TheoremChecker`.
fn run_traced(opts: &Options, report: &mut Report) {
    let mut first = None;
    let (plain, _, _) = setup(opts, false);
    let (plan, untraced_s, _) = timed_plan(&plain);
    check_plan(&plan, &mut first, opts, report);

    let (pipeline, lppm, provider) = setup(opts, true);
    let lppm = lppm.expect("traced set-up");
    let provider = provider.expect("traced set-up");
    let (columns0, calls0) = (lppm.emission_column.calls(), provider.transition_at.calls());
    let (plan, traced_s, _) = timed_plan(&pipeline);
    check_plan(&plan, &mut first, opts, report);
    let Ok(plan) = plan else { return };
    let steps = HORIZON as f64;

    let replay = replay_checks(&plan);
    if replay.violated + replay.unknown > 0 {
        report.correct = false;
        eprintln!(
            "replay: {} violated and {} unknown of {} checks",
            replay.violated, replay.unknown, replay.checks
        );
    }
    let (_, chain) = world();
    report.zero_layers();
    report.metric(
        "calibrate.plan_rungs",
        plan.steps.iter().map(|s| s.rungs).sum::<usize>() as f64,
        "count",
    );
    report.metric(
        "lppm.emission_column_us",
        lppm.emission_column.mean_us(),
        "us",
    );
    report.metric(
        "lppm.emission_columns_per_req",
        (lppm.emission_column.calls() - columns0) as f64 / steps,
        "count",
    );
    report.metric(
        "lppm.with_budget_ms",
        lppm.with_budget.mean_us() / 1e3,
        "ms",
    );
    report.metric(
        "lppm.with_budget_calls",
        lppm.with_budget.calls() as f64,
        "count",
    );
    report.metric("lppm.perturb_us", lppm.perturb.mean_us(), "us");
    report.metric("quantify.candidate_ms", replay.candidate_ms, "ms");
    report.metric("qp.check_ms", replay.check_ms, "ms");
    report.metric("qp.checks", replay.checks as f64, "count");
    report.metric(
        "qp.unknown_share",
        replay.unknown as f64 / replay.checks.max(1) as f64,
        "share",
    );
    report.metric(
        "qp.violated_share",
        replay.violated as f64 / replay.checks.max(1) as f64,
        "share",
    );
    report.metric(
        "markov.transition_at_calls_per_req",
        (provider.transition_at.calls() - calls0) as f64 / steps,
        "count",
    );
    report.metric(
        "markov.transition_at_us",
        provider.transition_at.mean_us(),
        "us",
    );
    report.metric("linalg.vecmat_us", replay_vecmat(&chain), "us");
    report.metric("trace.overhead", traced_s / untraced_s, "ratio");
}

struct CheckReplay {
    candidate_ms: f64,
    check_ms: f64,
    checks: usize,
    unknown: usize,
    violated: usize,
}

/// Re-certifies each planned step at its planned budget over all `m`
/// candidate columns, advancing the history along the planner's canonical
/// worst column (highest realized loss under the uniform prior).
fn replay_checks(plan: &BudgetPlan) -> CheckReplay {
    let (grid, chain) = world();
    let m = grid.num_cells();
    let pipeline = Pipeline::on(grid.clone())
        .mobility(chain)
        .event_spec(EVENT)
        .build()
        .expect("valid pipeline");
    let mut builder =
        TheoremBuilder::new(&pipeline.events()[0], pipeline.provider()).expect("builder");
    let checker = TheoremChecker::new(TARGET, PlannerConfig::default().solver);
    let uniform = Vector::uniform(m);
    let mut out = CheckReplay {
        candidate_ms: 0.0,
        check_ms: 0.0,
        checks: 0,
        unknown: 0,
        violated: 0,
    };
    let (mut candidate_t, mut check_t) = (Duration::ZERO, Duration::ZERO);
    for step in &plan.steps {
        let mechanism = PlanarLaplace::new(grid.clone(), step.budget).expect("valid PLM");
        let mut worst = (f64::NEG_INFINITY, 0usize);
        for o in 0..m {
            let column = mechanism.emission_column(CellId(o));
            let started = Instant::now();
            let inputs = builder.candidate(&column).expect("candidate builds");
            candidate_t += started.elapsed();
            let started = Instant::now();
            let verdict = checker.check(&inputs.a, &inputs.b, &inputs.c);
            check_t += started.elapsed();
            out.checks += 1;
            match verdict {
                TheoremVerdict::Satisfied => {}
                TheoremVerdict::Violated { .. } => out.violated += 1,
                TheoremVerdict::Unknown { .. } => out.unknown += 1,
            }
            let loss = inputs.privacy_loss(&uniform).unwrap_or(f64::INFINITY);
            if loss > worst.0 {
                worst = (loss, o);
            }
        }
        builder
            .commit(mechanism.emission_column(CellId(worst.1)))
            .expect("commit");
    }
    out.candidate_ms = candidate_t.as_secs_f64() * 1e3 / out.checks.max(1) as f64;
    out.check_ms = check_t.as_secs_f64() * 1e3 / out.checks.max(1) as f64;
    out
}
