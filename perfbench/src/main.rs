//! One benchmark for the PriSTE workspace.
//!
//! ```text
//! perfbench --workload enforce-m2500|routed-m36|plan-m400 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every per-layer
//! metric; the last stdout line is the JSON result. See `README.md` in
//! this directory for the workloads, the metrics and how they relate.

mod gen;
mod plan;
mod report;
mod serving;
mod stats;
mod wrap;

use report::{Report, Scenario};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Options shared by every run of a workload.
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Extra busy work per `transition_at` (sensitivity self-test only).
    pub slow_transition: Duration,
    /// Where durable directories go.
    pub run_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload enforce-m2500|routed-m36|plan-m400 --seed N --seconds S --trace 0|1 [--slow-transition-us N]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    slow_transition: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        slow_transition: Duration::ZERO,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => args.trace = parse::<u8>(&flag, &value)? == 1,
            "--slow-transition-us" => {
                args.slow_transition = Duration::from_micros(parse(&flag, &value)?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

/// Pins the calling thread to the last CPU it may run on; threads spawned
/// afterwards inherit the pin. Daemons, router and generator then hand
/// requests to one another by same-CPU context switches instead of
/// cross-CPU wake-ups, whose cost on a virtual machine follows the
/// hypervisor's scheduling more than the program. Returns the CPU.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer (1024 bits),
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable `cpu_set_t`-sized buffer.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Durable directories and stored plan budgets live in the checkout.
    let run_dir = PathBuf::from(".perfbench_run");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("error: create {}: {e}", run_dir.display());
        return ExitCode::from(1);
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = pin_to_one_cpu();
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        slow_transition: args.slow_transition,
        run_dir,
    };
    let mut report = Report::new();
    let mut scenario = Scenario {
        workload: args.workload.clone(),
        seed: args.seed,
        generator: format!(
            "{} threads, {} keep-alive connections, open loop",
            gen::THREADS,
            gen::THREADS
        ),
        nproc,
        cpu,
        ..Scenario::default()
    };
    match args.workload.as_str() {
        "enforce-m2500" => serving::run(
            &serving::ENFORCE_M2500,
            &opts,
            args.trace,
            &mut report,
            &mut scenario,
        ),
        "routed-m36" => serving::run(
            &serving::ROUTED_M36,
            &opts,
            args.trace,
            &mut report,
            &mut scenario,
        ),
        "plan-m400" => plan::run(&opts, args.trace, &mut report, &mut scenario),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    println!("{}", scenario.to_json());
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
