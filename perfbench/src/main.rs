//! `perfbench`: one command that measures the pipeline end to end and layer
//! by layer on three workloads, and checks every output it measures.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_holdout|search_jobs|serve_v1 --seed N --seconds S \
//!     --trace 0|1 [--quick]
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). The line before it records the
//! host and the operations attempted and failed. `--quick` shrinks every
//! workload so its checks run in seconds (the package's own tests use it).
//! See `README.md` for the workloads, the metrics and reference figures.

mod check;
mod http;
mod probe;
mod search_jobs;
mod serve_v1;
mod train_holdout;
mod util;

use std::process::ExitCode;
use std::time::Instant;

use probe::Metrics;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("designs_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("holdout_mape_latency_pct", "%"),
    ("holdout_mape_resource_pct", "%"),
    ("adrs_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload never calls reads 0 (see the README's mapping).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.dataset.generate_s", "s"),
    ("gnn.train_inner_p_s", "s"),
    ("gnn.train_inner_np_s", "s"),
    ("gnn.train_global_s", "s"),
    ("hlsim.evaluate_us", "us"),
    ("core.model.prepare_us", "us"),
    ("cdfg.build_us", "us"),
    ("cdfg.nodes", "count"),
    ("core.features.annotate_us", "us"),
    ("core.hierarchy.split_us", "us"),
    ("core.model.inner_forward_us", "us"),
    ("core.model.global_forward_us", "us"),
    ("dse.score_ms", "ms"),
    ("search.eval_us", "us"),
    ("search.engine_ms", "ms"),
    ("core.session.prepared_hit_ratio", "ratio"),
    ("incr.hits", "count"),
    ("incr.recomputes", "count"),
    ("core.session.evictions", "count"),
    ("serve.decode_us", "us"),
    ("serve.batch_us", "us"),
    ("serve.lower_us", "us"),
    ("serve.prepare_us", "us"),
    ("serve.infer_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.batch_items_mean", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.latency_p99_us", "us"),
    ("frontc.parse_us", "us"),
    ("hir.lower_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Round index of the first traced round. The inputs of round `r` derive
/// from `(--seed, r)`, so the traced rounds do the same work whatever the
/// number of untraced rounds before them, and the first traced round's
/// counts depend on the seed alone.
pub const TRACED_ROUNDS_FROM: usize = 1 << 20;

const WORKLOADS: [&str; 3] = ["train_holdout", "search_jobs", "serve_v1"];

const USAGE: &str = "usage: perfbench --workload train_holdout|search_jobs|serve_v1 \
                     --seed N --seconds S --trace 0|1 [--quick]";

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase (split in two halves when tracing).
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes so every check runs in seconds.
    pub quick: bool,
}

/// What a workload hands back: its operation counts, check failures and
/// metrics (end-to-end or per-layer, following `RunConfig::trace`).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation kind counted in `attempted`/`failed`.
    pub op: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Figures printed on the host line beside the metrics (the make-up
    /// of the traffic, a tail the end-to-end metrics leave out).
    pub notes: Metrics,
}

fn parse_args() -> Result<RunConfig, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                });
            }
            "--quick" => {
                cfg.quick = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    cfg.seed = seed.ok_or("--seed is required")?;
    cfg.seconds = seconds.ok_or("--seconds is required")?;
    cfg.trace = trace.ok_or("--trace is required")?;
    Ok(cfg)
}

/// Runs `round` until `seconds` have gone by, at least once, and returns
/// the rounds.
pub fn timed_rounds<T>(
    seconds: f64,
    round: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    timed_rounds_with(seconds, round, |_| Ok(()))
}

/// Runs `round` until the rounds alone have taken `seconds`, at least
/// once, and returns them; `between(r)` runs after every round `r` but the
/// last, outside the timed phase.
pub fn timed_rounds_with<T>(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<T, String>,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<T>, String> {
    let mut timed = 0.0;
    let mut rounds = Vec::new();
    loop {
        let t = Instant::now();
        rounds.push(round(rounds.len())?);
        timed += t.elapsed().as_secs_f64();
        if timed >= seconds {
            return Ok(rounds);
        }
        between(rounds.len() - 1)?;
    }
}

/// Median of `reps` timed calls of `setup`, and the last value it built.
pub fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let built = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), util::median(&secs)))
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ticks = util::cpu_ticks();
    let result = match cfg.workload.as_str() {
        "train_holdout" => train_holdout::run(&cfg),
        "search_jobs" => search_jobs::run(&cfg),
        _ => serve_v1::run(&cfg),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("perfbench: {} failed: {msg}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if outcome.attempted == 0 {
        eprintln!("perfbench: {} attempted no operation", cfg.workload);
        return ExitCode::FAILURE;
    }
    for err in outcome.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {err}");
    }
    let (table, kind) = if cfg.trace {
        (PER_LAYER, "per_layer")
    } else {
        (END_TO_END, "end_to_end")
    };
    let mut correct = outcome.errors.is_empty();
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("perfbench: {kind} metric {name} is {v}");
                correct = false;
                0.0
            }
            None if cfg.trace => 0.0, // a layer this workload never calls
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            util::json_str(name),
            util::json_str(unit)
        ));
    }
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", util::json_str(k)))
        .collect();
    println!(
        "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{}}},\
         \"host\":{},\"ops\":{{{}:{{\"attempted\":{},\"failed\":{}}}}},\"notes\":{{{}}}}}",
        util::json_str(&cfg.workload),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.quick,
        util::host_json(ticks),
        util::json_str(outcome.op),
        outcome.attempted,
        outcome.failed,
        notes.join(",")
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use hier_hls_qor::serve::json::{as_array, as_str, field, parse};

    /// `BENCHMARK.json` lists exactly the workloads and metrics, with the
    /// units, that the binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("valid JSON");
        let pairs = |key: &str| -> Vec<(String, String)> {
            field(&doc, key)
                .and_then(as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| as_str(field(m, k).expect(k)).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), owned(END_TO_END));
        assert_eq!(pairs("per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = field(&doc, "workloads")
            .and_then(as_array)
            .expect("workloads")
            .iter()
            .map(|w| as_str(field(w, "name").expect("name")).expect("string"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
