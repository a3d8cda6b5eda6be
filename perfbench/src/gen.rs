//! Open-loop session generator and its minimal HTTP/1.1 client.
//!
//! Each simulated user is a session of [`STEPS`] steps along a true
//! trajectory sampled from the world's chain. Request `i` of a phase is
//! due at `start + i / rate` whatever happened before it, and its latency
//! is clocked from that due time, so a stall that delays later requests
//! is charged to them (no coordinated omission). Two threads each own one
//! keep-alive connection; a user's requests all travel on one connection,
//! so they reach the daemon in order.

use priste::cluster::jump_hash;
use priste::geo::CellId;
use priste::linalg::Vector;
use priste::lppm::Lppm;
use priste::markov::MarkovModel;
use priste::obs::json::{self, Json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Steps per user session.
pub const STEPS: usize = 8;
/// A spend read follows every `SPEND_EVERY`-th step.
pub const SPEND_EVERY: usize = 4;
/// Generator threads, each with one connection.
pub const THREADS: usize = 2;
/// Sessions each thread keeps in flight (users interleave round-robin).
pub const SESSIONS_PER_THREAD: usize = 32;
/// A thread gives up on a phase once it runs this late (gross overload).
const GIVE_UP_LATE: Duration = Duration::from_secs(2);

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    /// A lazily connected client for `addr`.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, Vec<u8>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.stream = Some((stream, reader));
        }
        let result = self.exchange(method, path, body);
        if matches!(result, Err(_) | Ok((_, _, true))) {
            self.stream = None;
        }
        result.map(|(status, body, _)| (status, body))
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, Vec<u8>, bool)> {
        let (stream, reader) = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let mut wire = head.into_bytes();
        wire.extend_from_slice(body.as_bytes());
        stream.write_all(&wire)?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {line:?}"),
                )
            })?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        Ok((status, body, close))
    }
}

/// One-shot `GET` on a fresh connection (used for `/metrics` scrapes).
pub fn get(addr: SocketAddr, path: &str) -> io::Result<String> {
    let (status, body) = Conn::new(addr).request("GET", path, "")?;
    if status != 200 {
        return Err(io::Error::other(format!("GET {path} answered {status}")));
    }
    String::from_utf8(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// What a workload sends per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One guarded `POST /v1/release` per step.
    Release,
    /// Odd steps `POST /v1/ingest` a cell the generator perturbs itself;
    /// even steps `POST /v1/release`.
    IngestRelease,
}

/// The generator's view of the served world.
pub struct World<'a> {
    /// Mobility chain the true trajectories are sampled from.
    pub chain: &'a MarkovModel,
    /// Mechanism that perturbs ingested cells ([`Mix::IngestRelease`]).
    pub mechanism: Option<&'a dyn Lppm>,
    /// Request mix.
    pub mix: Mix,
    /// Workload seed.
    pub seed: u64,
}

/// One phase: a rate held for a fixed number of requests.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered rate in requests per second (`f64::INFINITY` = as fast as
    /// the two connections go, for warm-up).
    pub rate: f64,
    /// Requests scheduled across both threads.
    pub requests: usize,
    /// First user id of the phase's namespace (ids are never reused).
    pub user_base: u64,
    /// Session counter offset, so two passes with equal offsets replay
    /// the same trajectories under different user ids.
    pub session_base: u64,
    /// Lateness growing by half of this over the phase counts as a
    /// growing backlog.
    pub late_limit_ms: f64,
}

/// Per-user tally, kept for the durability check.
#[derive(Debug, Clone, Copy, Default)]
pub struct UserTally {
    /// Observations (ingests and releases) answered 200.
    pub observed: usize,
    /// Highest `spent` any response reported.
    pub max_spent: f64,
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Latency from due time, every request, ms.
    pub due_ms: Vec<f64>,
    /// Latency from send time for ingest/release requests, ms.
    pub send_ms: Vec<f64>,
    /// Completion time of every sent request, seconds from the phase start
    /// (after [`PhaseResult::absorb`] of another phase, from either start).
    pub done_s: Vec<f64>,
    /// Send time minus due time, every sent request, ms.
    pub late_ms: Vec<f64>,
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests that got a non-200, a transport failure, or failed a check.
    pub failed: usize,
    /// Requests never sent because the thread fell too far behind.
    pub not_sent: usize,
    /// Release decisions.
    pub releases: usize,
    /// Suppressed release decisions.
    pub suppressed: usize,
    /// Sum of released budgets.
    pub budget_sum: f64,
    /// Sum of guard attempts over releases.
    pub attempts_sum: usize,
    /// Users that entered the phase.
    pub users: usize,
    /// Per-user tallies.
    pub tally: BTreeMap<u64, UserTally>,
    /// Request bodies (ingest and release), for the decode replay.
    pub bodies: Vec<String>,
    /// True trajectories of the phase's first sessions, for replays.
    pub trajectories: Vec<Vec<CellId>>,
    /// First few check failures, for the log.
    pub errors: Vec<String>,
    /// Whether the send lateness grew over the phase.
    pub backlog_grew: bool,
    /// Seconds from the phase start to the last response.
    pub busy_s: f64,
}

impl PhaseResult {
    /// Adds `other`'s requests and tallies to `self`.
    pub fn absorb(&mut self, other: PhaseResult) {
        self.due_ms.extend(other.due_ms);
        self.send_ms.extend(other.send_ms);
        self.done_s.extend(other.done_s);
        self.late_ms.extend(other.late_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.not_sent += other.not_sent;
        self.releases += other.releases;
        self.suppressed += other.suppressed;
        self.budget_sum += other.budget_sum;
        self.attempts_sum += other.attempts_sum;
        self.users += other.users;
        self.tally.extend(other.tally);
        self.bodies.extend(other.bodies);
        self.trajectories.extend(other.trajectories);
        self.errors.extend(other.errors);
        self.backlog_grew |= other.backlog_grew;
        self.busy_s = self.busy_s.max(other.busy_s);
    }

    /// Requests answered per second in each whole `window_s` window.
    pub fn window_rates(&self, window_s: f64) -> Vec<f64> {
        let windows = (self.busy_s / window_s).floor() as usize;
        if windows == 0 {
            return vec![self.done_s.len() as f64 / self.busy_s.max(1e-9)];
        }
        let mut counts = vec![0.0; windows];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut((t / window_s) as usize) {
                *c += 1.0 / window_s;
            }
        }
        counts
    }
}

struct SessionState {
    user: u64,
    trajectory: Vec<CellId>,
    rng: StdRng,
    step: usize,
    spend_due: bool,
}

enum Op {
    Release { user: u64, cell: usize },
    Ingest { user: u64, cell: usize },
    Spend { user: u64 },
}

/// Sessions of one thread: allocates users and emits their ops in turn.
struct Sessions<'w> {
    world: &'w World<'w>,
    thread: u64,
    phase: Phase,
    next_user: u64,
    next_session: u64,
    live: Vec<SessionState>,
    turn: usize,
    started: usize,
    trajectories: Vec<Vec<CellId>>,
}

impl<'w> Sessions<'w> {
    fn new(world: &'w World<'w>, thread: usize, phase: Phase) -> Self {
        Sessions {
            world,
            thread: thread as u64,
            phase,
            next_user: phase.user_base,
            next_session: 0,
            live: Vec::new(),
            turn: 0,
            started: 0,
            trajectories: Vec::new(),
        }
    }

    fn fresh(&mut self) -> SessionState {
        let user = loop {
            let id = self.next_user;
            self.next_user += 1;
            // The router's own slot rule, so a direct pass can send each
            // thread's users to the one worker that owns them.
            if u64::from(jump_hash(id, THREADS as u32)) == self.thread {
                break id;
            }
        };
        let session = self.phase.session_base + self.next_session * THREADS as u64 + self.thread;
        self.next_session += 1;
        let mut rng = StdRng::seed_from_u64(
            self.world.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ session.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        );
        let m = self.world.chain.num_states();
        let trajectory = self
            .world
            .chain
            .sample_trajectory_from(&Vector::uniform(m), STEPS, &mut rng)
            .expect("uniform start on the chain's own domain");
        if self.trajectories.len() < 32 {
            self.trajectories.push(trajectory.clone());
        }
        self.started += 1;
        SessionState {
            user,
            trajectory,
            rng,
            step: 0,
            spend_due: false,
        }
    }

    fn next_op(&mut self) -> Op {
        while self.live.len() < SESSIONS_PER_THREAD {
            let s = self.fresh();
            self.live.push(s);
        }
        self.turn = (self.turn + 1) % self.live.len();
        let world = self.world;
        let s = &mut self.live[self.turn];
        let op = if s.spend_due {
            s.spend_due = false;
            Op::Spend { user: s.user }
        } else {
            let cell = s.trajectory[s.step].index();
            s.step += 1;
            s.spend_due = s.step.is_multiple_of(SPEND_EVERY);
            match world.mix {
                Mix::IngestRelease if s.step % 2 == 1 => Op::Ingest {
                    user: s.user,
                    cell: world
                        .mechanism
                        .expect("ingest mix needs a mechanism")
                        .perturb(CellId(cell), &mut s.rng)
                        .index(),
                },
                _ => Op::Release { user: s.user, cell },
            }
        };
        if s.step == STEPS && !s.spend_due {
            let replacement = self.fresh();
            self.live[self.turn] = replacement;
        }
        op
    }
}

/// Runs one phase against `targets[k]` for thread `k` and merges the
/// threads' results.
pub fn run_phase(world: &World<'_>, targets: [SocketAddr; THREADS], phase: Phase) -> PhaseResult {
    let start = Instant::now() + Duration::from_millis(5);
    let mut merged = PhaseResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| scope.spawn(move || run_thread(world, targets[k], phase, k, start)))
            .collect();
        for h in handles {
            merged.absorb(h.join().expect("generator thread panicked"));
        }
    });
    merged
}

/// Asks the kernel to wake the calling thread from timed sleeps within
/// 1 ns of the deadline instead of the default 50 µs slack, which at a
/// 0.2 ms p50 would be a quarter of the measured latency. Only the
/// generator's threads do this; the daemons keep the default.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn run_thread(
    world: &World<'_>,
    target: SocketAddr,
    phase: Phase,
    k: usize,
    start: Instant,
) -> PhaseResult {
    tighten_timer_slack();
    let mut conn = Conn::new(target);
    let mut sessions = Sessions::new(world, k, phase);
    let mut out = PhaseResult::default();
    let mut gave_up = false;
    let mut i = k;
    while i < phase.requests {
        out.attempted += 1;
        let due = if phase.rate.is_finite() {
            start + Duration::from_secs_f64(i as f64 / phase.rate)
        } else {
            Instant::now()
        };
        i += THREADS;
        if gave_up {
            out.not_sent += 1;
            continue;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let op = sessions.next_op();
        let (method, path, body) = match &op {
            Op::Release { user, cell } => (
                "POST",
                "/v1/release".to_owned(),
                format!("{{\"user\": {user}, \"true_location\": {cell}}}"),
            ),
            Op::Ingest { user, cell } => (
                "POST",
                "/v1/ingest".to_owned(),
                format!("{{\"user\": {user}, \"observed\": {cell}}}"),
            ),
            Op::Spend { user } => ("GET", format!("/v1/users/{user}/spend"), String::new()),
        };
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due);
        let response = conn.request(method, &path, &body);
        let done = Instant::now();
        out.busy_s = done.saturating_duration_since(start).as_secs_f64();
        out.done_s.push(out.busy_s);
        out.late_ms.push(late.as_secs_f64() * 1e3);
        out.due_ms
            .push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
        if !matches!(op, Op::Spend { .. }) {
            out.send_ms.push((done - sent).as_secs_f64() * 1e3);
            if out.bodies.len() < 2048 {
                out.bodies.push(body);
            }
        }
        if let Err(msg) = check(&op, response, &mut out) {
            out.failed += 1;
            if out.errors.len() < 5 {
                out.errors.push(msg);
            }
        }
        if late > GIVE_UP_LATE {
            gave_up = true;
        }
    }
    out.users = sessions.started;
    out.trajectories = sessions.trajectories;
    out.backlog_grew = backlog_grew(&out.late_ms, phase.late_limit_ms);
    out
}

/// Lateness that keeps rising through a phase means the offered rate
/// outruns the daemon: compare the last tenth's median with the first's.
fn backlog_grew(late_ms: &[f64], limit_ms: f64) -> bool {
    let tenth = late_ms.len() / 10;
    if tenth < 5 {
        return false;
    }
    let head = crate::stats::median(&late_ms[..tenth]);
    let tail = crate::stats::median(&late_ms[late_ms.len() - tenth..]);
    tail > head + limit_ms / 2.0
}

/// Validates one response and folds it into the tallies.
fn check(
    op: &Op,
    response: io::Result<(u16, Vec<u8>)>,
    out: &mut PhaseResult,
) -> Result<(), String> {
    let (status, body) = response.map_err(|e| format!("transport: {e}"))?;
    let text = String::from_utf8(body).map_err(|_| "non-UTF-8 body".to_owned())?;
    if status != 200 {
        return Err(format!("status {status}: {text}"));
    }
    let doc = json::parse(&text).map_err(|e| format!("unparsable body {text:?}: {e}"))?;
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64);
    match *op {
        Op::Release { user, .. } => {
            let outcome = doc.get("outcome").and_then(Json::as_str).unwrap_or("");
            if doc.get("certified").and_then(Json::as_bool) != Some(true) {
                return Err(format!("release not certified: {text}"));
            }
            let attempts = num(&doc, "attempts").ok_or("release without attempts")?;
            match outcome {
                "released" => {
                    let budget = num(&doc, "budget").ok_or("released without budget")?;
                    out.budget_sum += budget;
                }
                "suppressed" => out.suppressed += 1,
                other => return Err(format!("unknown outcome {other:?}")),
            }
            out.releases += 1;
            out.attempts_sum += attempts as usize;
            let report = doc.get("report").ok_or("release without report")?;
            observe_report(user, report, out)
        }
        Op::Ingest { user, .. } => observe_report(user, &doc, out),
        Op::Spend { user } => {
            let tally = out.tally.entry(user).or_default();
            let observed = num(&doc, "observed").ok_or("spend without observed")? as usize;
            if observed != tally.observed {
                return Err(format!(
                    "user {user}: spend reports {observed} observations, {} were answered",
                    tally.observed
                ));
            }
            let spent = num(&doc, "spent").ok_or("spend without spent")?;
            tally.max_spent = tally.max_spent.max(spent);
            Ok(())
        }
    }
}

fn observe_report(user: u64, report: &Json, out: &mut PhaseResult) -> Result<(), String> {
    if report.get("user").and_then(Json::as_u64) != Some(user) {
        return Err(format!("report for the wrong user (wanted {user})"));
    }
    let tally = out.tally.entry(user).or_default();
    tally.observed += 1;
    Ok(())
}
