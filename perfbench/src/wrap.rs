//! Counting and timing wrappers around the program's public seams: the
//! [`Lppm`] mechanism trait and the [`TransitionProvider`] mobility trait.
//!
//! The traced run installs these in place of the plain mechanism and
//! chain, so per-layer counts are measured where the work happens without
//! any tracing inside the crates. The provider wrapper can also add busy
//! work to every `transition_at` call: the sensitivity self-test uses that
//! to prove the benchmark notices a slower lifted step.

use priste::geo::CellId;
use priste::linalg::{Matrix, Vector};
use priste::lppm::{Lppm, Result as LppmResult};
use priste::markov::{Homogeneous, MarkovModel, TransitionMatrix, TransitionProvider};
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Call count and total busy time of one wrapped function.
#[derive(Debug, Default)]
pub struct CallStat {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl CallStat {
    fn record(&self, started: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean time per call in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        let calls = self.calls();
        if calls == 0 {
            return 0.0;
        }
        self.nanos.load(Ordering::Relaxed) as f64 / calls as f64 / 1e3
    }
}

/// Shared counters of every [`TracedLppm`] derived from one prototype.
#[derive(Debug, Default)]
pub struct LppmStats {
    /// `emission_column` calls.
    pub emission_column: CallStat,
    /// `perturb` calls.
    pub perturb: CallStat,
    /// `with_budget` calls (each builds one ladder variant).
    pub with_budget: CallStat,
}

/// An [`Lppm`] that times `emission_column`, `perturb` and `with_budget`.
/// Variants built through `with_budget` are wrapped too and share the
/// prototype's counters.
pub struct TracedLppm {
    inner: Box<dyn Lppm>,
    stats: Arc<LppmStats>,
}

impl TracedLppm {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: Box<dyn Lppm>, stats: Arc<LppmStats>) -> Self {
        TracedLppm { inner, stats }
    }
}

impl Lppm for TracedLppm {
    fn num_cells(&self) -> usize {
        self.inner.num_cells()
    }

    fn budget(&self) -> f64 {
        self.inner.budget()
    }

    fn emission_matrix(&self) -> &Matrix {
        self.inner.emission_matrix()
    }

    fn emission_column(&self, observation: CellId) -> Vector {
        let started = Instant::now();
        let column = self.inner.emission_column(observation);
        self.stats.emission_column.record(started);
        column
    }

    fn perturb(&self, true_loc: CellId, rng: &mut dyn RngCore) -> CellId {
        let started = Instant::now();
        let cell = self.inner.perturb(true_loc, rng);
        self.stats.perturb.record(started);
        cell
    }

    fn with_budget(&self, budget: f64) -> LppmResult<Box<dyn Lppm>> {
        let started = Instant::now();
        let variant = self.inner.with_budget(budget)?;
        self.stats.with_budget.record(started);
        Ok(Box::new(TracedLppm::new(variant, Arc::clone(&self.stats))))
    }
}

/// A homogeneous chain that times `transition_at` calls and optionally
/// spins for a fixed time inside each one.
#[derive(Debug)]
pub struct TracedProvider {
    chain: Homogeneous,
    /// `transition_at` calls.
    pub transition_at: CallStat,
    busy: Duration,
}

impl TracedProvider {
    /// Wraps `chain`; `busy` is extra work per `transition_at` call
    /// (zero in every measured run).
    pub fn new(chain: MarkovModel, busy: Duration) -> Self {
        TracedProvider {
            chain: Homogeneous::new(chain),
            transition_at: CallStat::default(),
            busy,
        }
    }
}

impl TransitionProvider for TracedProvider {
    fn num_states(&self) -> usize {
        self.chain.num_states()
    }

    fn transition_at(&self, t: usize) -> &TransitionMatrix {
        let started = Instant::now();
        while started.elapsed() < self.busy {
            std::hint::spin_loop();
        }
        let matrix = self.chain.transition_at(t);
        self.transition_at.record(started);
        matrix
    }
}
