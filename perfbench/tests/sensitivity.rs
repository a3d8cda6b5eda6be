//! Sensitivity self-test: a deliberately slowed lifted step must show.
//!
//! `--slow-transition-us N` makes the benchmark's `TransitionProvider`
//! wrapper spin for `N` µs inside every `transition_at` call, which slows
//! every lifted step the quantifier, the guard and the planner take. The
//! end-to-end latency of `enforce-m2500` and the plan time of `plan-m400`
//! must then worsen by more than the bounds `BENCHMARK.json` grants them,
//! and the traced run must show the slowdown in the `quantify` and
//! `markov` layers.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a few minutes: each case runs the benchmark twice).

use priste::obs::json::{self, Json};
use std::process::Command;

/// The benchmark's last stdout line, parsed, for one invocation.
fn run(workload: &str, trace: u8, slow_us: u64) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seed", "11", "--seconds", "4"])
        .args(["--trace", &trace.to_string()])
        .args(["--slow-transition-us", &slow_us.to_string()])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("result is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "outputs must check out: {last}"
    );
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

/// The `bound` of one end-to-end metric in `BENCHMARK.json`.
fn bound(name: &str) -> f64 {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|m| m.get("bound"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no bound for {name}"))
}

fn assert_worse(what: &str, base: f64, slow: f64, by: f64) {
    assert!(
        slow > base * (1.0 + by),
        "{what}: {base} -> {slow} did not worsen by more than {by}"
    );
}

#[test]
fn slowed_lifted_step_moves_enforce_m2500() {
    let base = run("enforce-m2500", 0, 0);
    let slow = run("enforce-m2500", 0, 300);
    assert_worse(
        "enforce-m2500 p50_ms",
        metric(&base, "p50_ms"),
        metric(&slow, "p50_ms"),
        bound("p50_ms"),
    );

    let base = run("enforce-m2500", 1, 0);
    let slow = run("enforce-m2500", 1, 300);
    for name in [
        "quantify.peek_us",
        "quantify.observe_us",
        "markov.transition_at_us",
    ] {
        assert_worse(name, metric(&base, name), metric(&slow, name), 0.25);
    }
}

#[test]
fn slowed_lifted_step_moves_plan_m400() {
    let base = run("plan-m400", 0, 0);
    let slow = run("plan-m400", 0, 1000);
    assert_worse(
        "plan-m400 p50_ms",
        metric(&base, "p50_ms"),
        metric(&slow, "p50_ms"),
        bound("p50_ms"),
    );
}
