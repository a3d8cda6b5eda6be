//! The two serving workloads: `enforce-m2500` (one durable enforcing
//! daemon on a 50×50 CSR world) and `routed-m36` (a router in front of two
//! in-memory enforcing workers on the 6×6 dense world).

use crate::gen::{self, Mix, Phase, PhaseResult, World, THREADS};
use crate::report::{Report, Scenario};
use crate::stats::{self, Hist, Scrape};
use crate::wrap::{LppmStats, TracedLppm, TracedProvider};
use crate::Options;
use priste::calibrate::{peek_worst_loss, run_guard, GuardConfig, MechanismCache};
use priste::cluster::{Router, RouterConfig, ShardMap};
use priste::geo::{CellId, GridMap};
use priste::linalg::Vector;
use priste::lppm::{Lppm, PlanarLaplace};
use priste::markov::{gaussian_kernel_chain, gaussian_kernel_chain_sparse, MarkovModel};
use priste::obs::Registry;
use priste::online::{DurableOptions, OnlineConfig, UserId};
use priste::quantify::IncrementalTwoWorld;
use priste::serve::{proto, Server, ServerConfig};
use priste::{Pipeline, SharedProvider};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Guarded releases are certified against this ε (the CLI default).
const EPSILON: f64 = 1.0;
/// α of the α-PLM every serving workload runs.
const ALPHA: f64 = 2.0;
/// Per-user ledger budget (the CLI default).
const BUDGET: f64 = 20.0;

/// Static description of one serving workload.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Grid side (m = side²).
    pub side: usize,
    /// Gaussian kernel width of the mobility chain.
    pub sigma: f64,
    /// Build the chain banded on the CSR backend.
    pub sparse: bool,
    /// Front two workers with a router (otherwise one durable daemon).
    pub routed: bool,
    /// Request mix.
    pub mix: Mix,
    /// Reference rate for `p50_ms`, requests per second: a fifth or less
    /// of what the deployment sustains, so requests seldom queue behind
    /// one another and a slower host does not tip the run into backlog.
    pub ref_rate: f64,
    /// Closed-loop throughput the capacity phase is sized by, requests per
    /// second; the phase sends a fixed number of requests, so the users
    /// it registers (and the memory they hold) do not depend on host speed.
    pub nominal_rps: f64,
    /// Lateness budget of a phase: lateness growing by half of it counts
    /// as a growing backlog.
    pub late_limit_ms: f64,
    /// Rounds the run alternates reference and capacity slices over, so
    /// that both phases sample the host across the whole run rather than
    /// one stretch of it each. Every slice starts its sessions afresh, so
    /// a slice must hold many more requests than the 64 sessions in flight.
    pub rounds: usize,
    /// Closed-loop requests sent during set-up to fill lazy caches.
    pub warmup_requests: usize,
    /// Set-ups per run; the median is reported.
    pub setups: usize,
}

/// `enforce-m2500`.
pub const ENFORCE_M2500: Spec = Spec {
    name: "enforce-m2500",
    side: 50,
    sigma: 0.5,
    sparse: true,
    routed: false,
    mix: Mix::Release,
    ref_rate: 160.0,
    nominal_rps: 900.0,
    late_limit_ms: 50.0,
    rounds: 1,
    warmup_requests: 400,
    setups: 3,
};

/// `routed-m36`.
pub const ROUTED_M36: Spec = Spec {
    name: "routed-m36",
    side: 6,
    sigma: 1.0,
    sparse: false,
    routed: true,
    mix: Mix::IngestRelease,
    ref_rate: 2000.0,
    nominal_rps: 12000.0,
    late_limit_ms: 10.0,
    rounds: 5,
    warmup_requests: 2000,
    setups: 9,
};

/// Share of `--seconds` the reference phase is scheduled over; the
/// capacity phase is sized to take about the rest.
const REFERENCE_SHARE: f64 = 0.5;
/// Window of the capacity phase's median throughput, seconds.
const RATE_WINDOW_S: f64 = 0.25;

/// The daemons of one set-up and the handles the benchmark measures
/// them through.
struct Deployment {
    pipeline: Pipeline,
    servers: Vec<Server<SharedProvider>>,
    router: Option<Router>,
    entry: SocketAddr,
    workers: Vec<SocketAddr>,
    dir: Option<PathBuf>,
    lppm: Option<Arc<LppmStats>>,
    provider: Option<Arc<TracedProvider>>,
    setup_s: f64,
    warmup: PhaseResult,
}

fn world(spec: &Spec) -> (GridMap, MarkovModel) {
    let grid = GridMap::new(spec.side, spec.side, 1.0).expect("valid grid");
    let chain = if spec.sparse {
        gaussian_kernel_chain_sparse(&grid, spec.sigma)
    } else {
        gaussian_kernel_chain(&grid, spec.sigma)
    }
    .expect("valid chain");
    (grid, chain)
}

fn event_spec(m: usize) -> String {
    format!("PRESENCE(S={{1:{}}}, T={{2:5}})", m / 4)
}

impl Deployment {
    /// World, mechanism, pipeline, daemons, bind, and warm-up.
    fn start(spec: &Spec, opts: &Options, traced: bool, index: usize) -> Deployment {
        let started = Instant::now();
        let (grid, chain) = world(spec);
        let m = grid.num_cells();
        let plm = PlanarLaplace::new(grid.clone(), ALPHA).expect("valid PLM");
        let lppm = traced.then(|| Arc::new(LppmStats::default()));
        let provider = (traced || !opts.slow_transition.is_zero())
            .then(|| Arc::new(TracedProvider::new(chain.clone(), opts.slow_transition)));
        let mut builder = Pipeline::on(grid).mobility(chain.clone());
        if let Some(p) = &provider {
            builder = builder.mobility_provider(Arc::clone(p));
        }
        builder = match &lppm {
            Some(stats) => builder.mechanism(TracedLppm::new(Box::new(plm), Arc::clone(stats))),
            None => builder.mechanism(plm),
        };
        builder = builder
            .event_spec(&event_spec(m))
            .target_epsilon(EPSILON)
            .service_config(OnlineConfig {
                epsilon: EPSILON,
                num_shards: 8,
                linger: 2,
                budget: BUDGET,
            })
            .guard(GuardConfig::default());
        let mut dir = None;
        if !spec.routed {
            let path = opts
                .run_dir
                .join(format!("{}-{}-{index}", spec.name, std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create durable dir");
            builder = builder.durable(&path).durable_options(DurableOptions {
                fsync: false,
                ..DurableOptions::default()
            });
            dir = Some(path);
        }
        let pipeline = builder.build().expect("valid pipeline");
        let worker_count = if spec.routed { 2 } else { 1 };
        let servers: Vec<_> = (0..worker_count).map(|_| start_daemon(&pipeline)).collect();
        let workers: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
        let (router, entry) = if spec.routed {
            let map =
                ShardMap::from_workers(workers.iter().map(ToString::to_string)).expect("valid map");
            let router =
                Router::start(map, Registry::new(), RouterConfig::default(), "127.0.0.1:0")
                    .expect("router starts");
            let addr = router.local_addr();
            (Some(router), addr)
        } else {
            (None, workers[0])
        };
        let mut deployment = Deployment {
            pipeline,
            servers,
            router,
            entry,
            workers,
            dir,
            lppm,
            provider,
            setup_s: 0.0,
            warmup: PhaseResult::default(),
        };
        let mechanism = generator_mechanism(spec, deployment.pipeline.grid());
        let gen_world = World {
            chain: &chain,
            mechanism: mechanism.as_ref().map(|m| m as &dyn Lppm),
            mix: spec.mix,
            seed: opts.seed,
        };
        deployment.warmup = gen::run_phase(
            &gen_world,
            [deployment.entry; THREADS],
            Phase {
                rate: f64::INFINITY,
                requests: spec.warmup_requests,
                user_base: 9_000_000_000 + index as u64 * 10_000_000,
                session_base: 9_000_000_000,
                late_limit_ms: spec.late_limit_ms,
            },
        );
        deployment.setup_s = started.elapsed().as_secs_f64();
        deployment
    }

    /// Drains the router, then every worker, and waits for all of them.
    fn stop(self) -> Deployment {
        if let Some(router) = self.router {
            router.drain_handle().drain();
            router.wait().expect("router drains");
        }
        for server in self.servers {
            server.drain_handle().drain();
            server.wait().expect("daemon drains");
        }
        Deployment {
            servers: Vec::new(),
            router: None,
            ..self
        }
    }

    fn remove_dir(&self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// What `Pipeline::serve_http_enforcing` does, plus one empty
/// `release_batch`, which builds the guard's whole mechanism ladder up
/// front instead of lazily inside the first releases that need each rung.
fn start_daemon(pipeline: &Pipeline) -> Server<SharedProvider> {
    let registry = Registry::new();
    let mut service = pipeline.serve_enforcing().expect("enforcing service");
    service.observe(&registry);
    service.release_batch(&[], 0, 1).expect("ladder builds");
    Server::start(
        service,
        pipeline.mechanism_instance().ok(),
        registry,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("daemon starts")
}

/// The α-PLM the generator perturbs ingested cells with (ingest mix only).
fn generator_mechanism(spec: &Spec, grid: &GridMap) -> Option<PlanarLaplace> {
    (spec.mix == Mix::IngestRelease)
        .then(|| PlanarLaplace::new(grid.clone(), ALPHA).expect("valid PLM"))
}

/// Sequence of phases run on one deployment, with fresh user ids each.
struct Traffic<'a> {
    spec: &'a Spec,
    chain: MarkovModel,
    mechanism: Option<PlanarLaplace>,
    seed: u64,
    next_base: u64,
}

impl<'a> Traffic<'a> {
    fn new(spec: &'a Spec, seed: u64) -> Self {
        let (grid, chain) = world(spec);
        Traffic {
            spec,
            chain,
            mechanism: generator_mechanism(spec, &grid),
            seed,
            next_base: 0,
        }
    }

    /// Holds `rate` for `seconds`.
    fn phase(&mut self, targets: [SocketAddr; THREADS], rate: f64, seconds: f64) -> PhaseResult {
        let requests = ((rate * seconds).round() as usize).max(THREADS);
        self.requests(targets, rate, requests)
    }

    /// Sends `requests` at `rate` (`f64::INFINITY`: closed loop).
    fn requests(
        &mut self,
        targets: [SocketAddr; THREADS],
        rate: f64,
        requests: usize,
    ) -> PhaseResult {
        let world = World {
            chain: &self.chain,
            mechanism: self.mechanism.as_ref().map(|m| m as &dyn Lppm),
            mix: self.spec.mix,
            seed: self.seed,
        };
        let phase = Phase {
            rate,
            requests,
            user_base: self.next_base,
            session_base: 0,
            late_limit_ms: self.spec.late_limit_ms,
        };
        self.next_base += 100_000_000;
        gen::run_phase(&world, targets, phase)
    }
}

/// Result of the untraced measurement of one serving workload.
struct Measured {
    setups: Vec<f64>,
    reference: PhaseResult,
    capacity: PhaseResult,
    /// Median of the capacity slices' windowed throughputs.
    sustained: f64,
}

/// Runs the untraced measurement: set-ups, then `spec.rounds` rounds of a
/// reference-rate slice (open loop) and a fixed number of closed-loop
/// requests, whose median windowed throughput is the sustained rate.
fn measure(spec: &Spec, opts: &Options, report: &mut Report) -> (Measured, Deployment) {
    let mut setups = Vec::new();
    let mut deployment = None;
    for k in 0..spec.setups {
        if k + 1 == spec.setups && !stats::reset_peak_rss() {
            eprintln!("  could not reset VmHWM: peak_rss_mb includes the earlier set-ups");
        }
        let d = Deployment::start(spec, opts, false, k);
        setups.push(d.setup_s);
        check_phase(report, "warm-up", &d.warmup, false);
        if k + 1 < spec.setups {
            let d = d.stop();
            d.remove_dir();
        } else {
            deployment = Some(d);
        }
    }
    let deployment = deployment.expect("at least one set-up");
    let mut traffic = Traffic::new(spec, opts.seed);
    let (mut reference, mut capacity) = (PhaseResult::default(), PhaseResult::default());
    let mut rates = Vec::new();
    let mut daemon_cpu_s = 0.0;
    let slice_seconds = opts.seconds * REFERENCE_SHARE / spec.rounds as f64;
    let slice_requests = (spec.nominal_rps * opts.seconds * (1.0 - REFERENCE_SHARE)
        / spec.rounds as f64)
        .round() as usize;
    for _ in 0..spec.rounds {
        let entry = [deployment.entry; THREADS];
        reference.absorb(traffic.phase(entry, spec.ref_rate, slice_seconds));
        let cpu = stats::live_threads_cpu_s();
        let slice = traffic.requests(entry, f64::INFINITY, slice_requests);
        daemon_cpu_s += stats::live_threads_cpu_s() - cpu;
        rates.extend(slice.window_rates(RATE_WINDOW_S));
        capacity.absorb(slice);
    }
    check_phase(report, "reference", &reference, true);
    check_phase(report, "capacity", &capacity, true);
    eprintln!(
        "  reference {:.0} req/s: p50 {:.3} p90 {:.3} p99 {:.3} max {:.3} ms; late p50 {:.3} p99 {:.3} ms{}",
        spec.ref_rate,
        stats::median(&reference.due_ms),
        stats::quantile(&reference.due_ms, 0.9),
        stats::quantile(&reference.due_ms, 0.99),
        stats::quantile(&reference.due_ms, 1.0),
        stats::median(&reference.late_ms),
        stats::quantile(&reference.late_ms, 0.99),
        if reference.backlog_grew {
            "; WARNING: backlog grew"
        } else {
            ""
        },
    );
    eprintln!(
        "  capacity: {} requests, daemon CPU {:.3} ms/req; req/s over {RATE_WINDOW_S} s windows: q10 {:.0} median {:.0} q90 {:.0}; p50 {:.3} ms",
        capacity.attempted,
        daemon_cpu_s * 1e3 / capacity.attempted as f64,
        stats::quantile(&rates, 0.1),
        stats::median(&rates),
        stats::quantile(&rates, 0.9),
        stats::median(&capacity.due_ms),
    );
    (
        Measured {
            setups,
            reference,
            capacity,
            sustained: stats::median(&rates),
        },
        deployment,
    )
}

/// Counts a phase's failures into the report and logs the first ones.
fn check_phase(report: &mut Report, label: &str, r: &PhaseResult, counts_unsent: bool) {
    report.attempted += r.attempted as u64 - if counts_unsent { 0 } else { r.not_sent as u64 };
    report.failed += r.failed as u64 + if counts_unsent { r.not_sent as u64 } else { 0 };
    if r.failed > 0 || (counts_unsent && r.not_sent > 0) {
        report.correct = false;
        eprintln!(
            "{label}: {} failed, {} not sent; first errors: {:?}",
            r.failed, r.not_sent, r.errors
        );
    }
}

/// After the drain, recovers the durable directory and compares each
/// user's recovered state with what the responses said.
fn check_recovery(d: &Deployment, phases: &[&PhaseResult], report: &mut Report) {
    let Some(dir) = &d.dir else { return };
    let recovered = match d.pipeline.recover_service() {
        Ok(svc) => svc,
        Err(e) => {
            report.correct = false;
            eprintln!("recovery of {} failed: {e}", dir.display());
            return;
        }
    };
    let mut tally = BTreeMap::new();
    for p in phases {
        tally.extend(p.tally.iter().map(|(u, t)| (*u, *t)));
    }
    let mut bad = 0usize;
    for (user, t) in &tally {
        match recovered.session(UserId(*user)) {
            Some(s) if s.observed() == t.observed && s.ledger().spent() + 1e-9 >= t.max_spent => {}
            Some(s) => {
                bad += 1;
                if bad <= 3 {
                    eprintln!(
                        "user {user}: recovered {} observations / spent {}, responses said {} / {}",
                        s.observed(),
                        s.ledger().spent(),
                        t.observed,
                        t.max_spent
                    );
                }
            }
            None => bad += 1,
        }
    }
    if bad > 0 || tally.is_empty() {
        report.correct = false;
        eprintln!("recovery check: {bad} of {} users disagree", tally.len());
    }
}

/// Runs one serving workload and fills `report`.
pub fn run(spec: &Spec, opts: &Options, trace: bool, report: &mut Report, scenario: &mut Scenario) {
    let (grid, chain) = world(spec);
    scenario.m = grid.num_cells();
    scenario.nnz = chain.transition_matrix().nnz();
    scenario.daemon = if spec.routed {
        format!(
            "router + 2 workers, {} threads each (default configs)",
            ServerConfig::default().workers
        )
    } else {
        format!(
            "1 daemon, {} worker threads (default config)",
            ServerConfig::default().workers
        )
    };
    if trace {
        run_traced(spec, opts, report);
        return;
    }
    let (measured, deployment) = measure(spec, opts, report);
    let deployment = deployment.stop();
    let phases: Vec<&PhaseResult> =
        vec![&deployment.warmup, &measured.reference, &measured.capacity];
    check_recovery(&deployment, &phases, report);
    deployment.remove_dir();

    let measured_phases: Vec<&PhaseResult> = phases[1..].to_vec();
    let releases: usize = measured_phases.iter().map(|p| p.releases).sum();
    let suppressed: usize = measured_phases.iter().map(|p| p.suppressed).sum();
    let budget_sum: f64 = measured_phases.iter().map(|p| p.budget_sum).sum();
    let r = &measured.reference;
    report.metric("setup_s", stats::median(&measured.setups), "s");
    report.metric("p50_ms", stats::median(&r.due_ms), "ms");
    let sustained = measured.sustained;
    report.metric("sustained_rps", sustained, "1/s");
    report.metric(
        "ok_share",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "share",
    );
    report.metric(
        "released_share",
        1.0 - suppressed as f64 / releases.max(1) as f64,
        "share",
    );
    report.metric(
        "release_mean_budget",
        budget_sum / (releases - suppressed).max(1) as f64,
        "alpha",
    );
    report.metric("peak_rss_mb", stats::proc_status_kb("VmHWM") / 1024.0, "MB");
    eprintln!(
        "{}: reference {} req/s, {} requests, {} users; sustained {:.0} req/s",
        spec.name, spec.ref_rate, r.attempted, r.users, sustained
    );
}

/// The traced run: an untraced reference pass for the overhead baseline,
/// then a traced pass (wrapped mechanism and chain, `/metrics` scraped
/// around it), a direct-to-worker pass on `routed-m36`, and replays of
/// the recorded inputs through each layer's public functions.
fn run_traced(spec: &Spec, opts: &Options, report: &mut Report) {
    let seconds = opts.seconds * 0.4;
    let mut traffic = Traffic::new(spec, opts.seed);

    // Untraced baseline pass.
    let plain = Deployment::start(spec, opts, false, 0);
    check_phase(report, "warm-up", &plain.warmup, false);
    let base = traffic.phase([plain.entry; THREADS], spec.ref_rate, seconds);
    check_phase(report, "untraced", &base, true);
    let plain = plain.stop();
    plain.remove_dir();

    // Traced pass.
    let d = Deployment::start(spec, opts, true, 1);
    check_phase(report, "warm-up", &d.warmup, false);
    let provider = d.provider.clone().expect("traced deployment");
    let lppm = d.lppm.clone().expect("traced deployment");
    let transition_calls_before = provider.transition_at.calls();
    let columns_before = lppm.emission_column.calls();
    let scrape =
        |addr: SocketAddr| Scrape::parse(&gen::get(addr, "/metrics").expect("scrape /metrics"));
    let workers_before: Vec<Scrape> = d.workers.iter().map(|a| scrape(*a)).collect();
    let router_before = d.router.as_ref().map(|r| scrape(r.local_addr()));
    let rss_before = stats::proc_status_kb("VmRSS");
    let traced = traffic.phase([d.entry; THREADS], spec.ref_rate, seconds);
    let rss_after = stats::proc_status_kb("VmRSS");
    check_phase(report, "traced", &traced, true);
    let workers_after: Vec<Scrape> = d.workers.iter().map(|a| scrape(*a)).collect();
    let router_after = d.router.as_ref().map(|r| scrape(r.local_addr()));
    let transition_calls = provider.transition_at.calls() - transition_calls_before;
    let columns = lppm.emission_column.calls() - columns_before;

    // Same sessions sent straight to the owning worker (routed-m36 only).
    let direct = spec.routed.then(|| {
        let r = traffic.phase([d.workers[0], d.workers[1]], spec.ref_rate, seconds);
        check_phase(report, "direct", &r, true);
        r
    });
    let d = d.stop();
    check_recovery(&d, &[&d.warmup, &traced], report);
    d.remove_dir();

    // Scraped per-layer figures over the traced pass.
    let hist = |base: &str, labels: &[&str]| -> Hist {
        let mut after = Hist::default();
        let mut before = Hist::default();
        for (a, b) in workers_after.iter().zip(&workers_before) {
            after = merge(after, a.hist(base, labels));
            before = merge(before, b.hist(base, labels));
        }
        after.since(&before)
    };
    let total = |base: &str| -> f64 {
        workers_after.iter().map(|s| s.total(base)).sum::<f64>()
            - workers_before.iter().map(|s| s.total(base)).sum::<f64>()
    };
    let mut server = hist(
        "serve_request_seconds",
        &["route=\"/v1/release\"", "status=\"200\""],
    );
    server = merge(
        server,
        hist(
            "serve_request_seconds",
            &["route=\"/v1/ingest\"", "status=\"200\""],
        ),
    );
    let online_release = hist("online_release_seconds", &[]);
    let online_ingest = hist("online_ingest_batch_seconds", &[]);
    let online_all = merge(online_release.clone(), online_ingest.clone());
    let client_p50 = stats::median(&traced.send_ms);
    let server_p50 = server.quantile(0.5) * 1e3;
    let online_p50 = online_all.quantile(0.5) * 1e3;
    let requests = traced.attempted.max(1) as f64;
    let journaled = traced.send_ms.len().max(1) as f64;

    report.zero_layers();
    report.metric(
        "gen.late_ms_p99",
        stats::quantile(&traced.late_ms, 0.99),
        "ms",
    );
    report.metric("serve.server_ms_p50", server_p50, "ms");
    report.metric("serve.server_ms_p99", server.quantile(0.99) * 1e3, "ms");
    report.metric("serve.wire_ms_p50", client_p50 - server_p50, "ms");
    report.metric("serve.outside_online_ms", server_p50 - online_p50, "ms");
    report.metric("serve.decode_us", replay_decode(&traced.bodies), "us");
    eprintln!(
        "  accounting: wire {:.3} + outside online {:.3} + online {online_p50:.3} = traced client p50 {client_p50:.3} ms; \
         untraced client p50 {:.3} ms, untraced p50 from due over all requests {:.3} ms",
        client_p50 - server_p50,
        server_p50 - online_p50,
        stats::median(&base.send_ms),
        stats::median(&base.due_ms),
    );

    if let (Some(rb), Some(ra), Some(direct)) = (&router_before, &router_after, &direct) {
        let upstream = ra
            .hist("cluster_upstream_request_seconds", &[])
            .since(&rb.hist("cluster_upstream_request_seconds", &[]));
        report.metric(
            "cluster.router_added_ms_p50",
            client_p50 - stats::median(&direct.send_ms),
            "ms",
        );
        report.metric(
            "cluster.upstream_ms_p50",
            upstream.quantile(0.5) * 1e3,
            "ms",
        );
        report.metric(
            "cluster.upstream_retries",
            ra.total("cluster_upstream_retries_total") - rb.total("cluster_upstream_retries_total"),
            "count",
        );
        report.metric(
            "cluster.upstream_errors",
            ra.total("cluster_upstream_errors_total") - rb.total("cluster_upstream_errors_total"),
            "count",
        );
    }

    let wal = hist("durable_wal_append_seconds", &[]);
    report.metric(
        "online.release_ms_p50",
        online_release.quantile(0.5) * 1e3,
        "ms",
    );
    report.metric(
        "online.ingest_ms_p50",
        online_ingest.quantile(0.5) * 1e3,
        "ms",
    );
    report.metric("online.wal_append_us", wal.mean() * 1e6, "us");
    report.metric(
        "online.wal_bytes_per_req",
        total("durable_wal_bytes_total") / journaled,
        "B",
    );
    report.metric(
        "online.rss_kb_per_user",
        (rss_after - rss_before).max(0.0) / traced.users.max(1) as f64,
        "kB",
    );

    let (grid, chain) = world(spec);
    let replay = replay_guard(&d.pipeline, &grid, &traced.trajectories, opts.seed);
    report.metric(
        "calibrate.attempts_per_release",
        traced.attempts_sum as f64 / traced.releases.max(1) as f64,
        "count",
    );
    report.metric("calibrate.guard_us", replay.guard_us, "us");

    report.metric(
        "lppm.emission_column_us",
        lppm.emission_column.mean_us(),
        "us",
    );
    report.metric(
        "lppm.emission_columns_per_req",
        columns as f64 / requests,
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

    report.metric("quantify.peek_us", replay.peek_us, "us");
    report.metric(
        "quantify.peeks_per_release",
        replay.peeks_per_release,
        "count",
    );
    report.metric("quantify.observe_us", replay.observe_us, "us");

    report.metric(
        "markov.transition_at_calls_per_req",
        transition_calls as f64 / requests,
        "count",
    );
    report.metric(
        "markov.transition_at_us",
        provider.transition_at.mean_us(),
        "us",
    );
    report.metric("linalg.vecmat_us", replay_vecmat(&chain), "us");
    report.metric(
        "trace.overhead",
        client_p50 / stats::median(&base.send_ms).max(1e-9),
        "ratio",
    );
}

fn merge(mut a: Hist, b: Hist) -> Hist {
    a.absorb(b);
    a
}

/// Mean time to decode one recorded request body with the daemon's own
/// protocol decoder.
fn replay_decode(bodies: &[String]) -> f64 {
    if bodies.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut rounds = 0usize;
    while started.elapsed() < Duration::from_millis(200) {
        for body in bodies {
            let ok = if body.contains("observed") {
                proto::decode_ingest(body.as_bytes()).is_ok()
            } else {
                proto::decode_release(body.as_bytes()).is_ok()
            };
            assert!(ok, "recorded body must decode: {body}");
        }
        rounds += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / (rounds * bodies.len()) as f64
}

/// Replayed guard and quantifier timings.
struct GuardReplay {
    guard_us: f64,
    peek_us: f64,
    peeks_per_release: f64,
    observe_us: f64,
}

/// Replays recorded true trajectories through the guard exactly as a
/// fresh session would meet it: one event window seeded with the uniform
/// prior, `run_guard` peeking it with every candidate column, the
/// committed column observed, and the window evicted `linger` steps after
/// the event ends. The first pass fills the mechanism ladder; the second
/// is timed.
fn replay_guard(
    pipeline: &Pipeline,
    grid: &GridMap,
    trajectories: &[Vec<CellId>],
    seed: u64,
) -> GuardReplay {
    let event = pipeline.events()[0].clone();
    let provider = pipeline.provider();
    let m = grid.num_cells();
    let guard = GuardConfig {
        target_epsilon: EPSILON,
        ..GuardConfig::default()
    };
    let mut cache = MechanismCache::new(Box::new(
        PlanarLaplace::new(grid.clone(), ALPHA).expect("valid PLM"),
    ));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = GuardReplay {
        guard_us: 0.0,
        peek_us: 0.0,
        peeks_per_release: 0.0,
        observe_us: 0.0,
    };
    for timed in [false, true] {
        let (mut guard_t, mut peek_t, mut observe_t) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut releases, mut peeks, mut observes) = (0usize, 0usize, 0usize);
        for trajectory in trajectories {
            let mut window = Some(
                IncrementalTwoWorld::new(event.clone(), Arc::clone(&provider), Vector::uniform(m))
                    .expect("window attaches"),
            );
            for &cell in trajectory {
                let started = Instant::now();
                let outcome = run_guard(&mut cache, &guard, cell, &mut rng, |column| {
                    let t = Instant::now();
                    let r = peek_worst_loss(window.iter(), column);
                    peek_t += t.elapsed();
                    peeks += window.iter().count();
                    r
                })
                .expect("guard runs");
                guard_t += started.elapsed();
                releases += 1;
                if let Some(w) = &mut window {
                    let t = Instant::now();
                    w.observe(&outcome.column)
                        .expect("committed column observes");
                    observe_t += t.elapsed();
                    observes += 1;
                    if w.observed() >= w.event().end() + 2 {
                        window = None;
                    }
                }
            }
        }
        if timed {
            out.guard_us = guard_t.as_secs_f64() * 1e6 / releases.max(1) as f64;
            out.peek_us = peek_t.as_secs_f64() * 1e6 / peeks.max(1) as f64;
            out.peeks_per_release = peeks as f64 / releases.max(1) as f64;
            out.observe_us = observe_t.as_secs_f64() * 1e6 / observes.max(1) as f64;
        }
    }
    out
}

/// Mean time of one `vecmat_into` with the workload's transition matrix.
pub fn replay_vecmat(chain: &MarkovModel) -> f64 {
    let m = chain.num_states();
    let matrix = chain.transition_matrix();
    let x = Vector::uniform(m);
    let mut out = vec![0.0; m];
    let started = Instant::now();
    let mut calls = 0usize;
    while started.elapsed() < Duration::from_millis(100) {
        for _ in 0..16 {
            matrix.vecmat_into(std::hint::black_box(x.as_slice()), &mut out);
            std::hint::black_box(&out);
        }
        calls += 16;
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}
