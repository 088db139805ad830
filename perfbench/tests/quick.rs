//! Runs every workload in `--quick` mode, untraced and traced, and checks
//! the output contract: a host/ops line, then one result object whose
//! metrics are exactly the benchmark's end-to-end or per-layer set.

use std::process::Command;

use hier_hls_qor::obs::Json;
use hier_hls_qor::serve::json::{as_array, as_bool, as_f64, as_str, as_u64, field, parse};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn metric_names(doc: &Json, key: &str) -> Vec<String> {
    field(doc, key)
        .and_then(as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            as_str(field(m, "name").expect("name"))
                .expect("string")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--quick",
        ])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{stdout}");
    let info = parse(lines[lines.len() - 2]).expect("host line");
    let result = parse(lines[lines.len() - 1]).expect("result line");
    (info, result)
}

fn check_workload(workload: &str) {
    let bench = benchmark_json();
    for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (info, result) = run(workload, trace);
        let host = field(&info, "host").expect("host fingerprint");
        for key in ["nproc", "rustc", "profile", "qor_threads"] {
            assert!(field(host, key).is_some(), "host misses {key}");
        }
        assert_eq!(
            field(&result, "correct").and_then(as_bool),
            Some(true),
            "{workload}"
        );
        assert_eq!(
            field(&result, "failed").and_then(as_u64),
            Some(0),
            "{workload}"
        );
        assert!(field(&result, "attempted").and_then(as_u64).unwrap_or(0) > 0);
        if workload == "serve_v1" && trace == "0" {
            let notes = field(&info, "notes").expect("notes");
            assert!(field(notes, "latency_p99_us").and_then(as_f64).is_some());
        }
        let Some(Json::Obj(metrics)) = field(&result, "metrics") else {
            panic!("metrics object");
        };
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            got,
            metric_names(&bench, kind),
            "{workload} --trace {trace}"
        );
        for (name, m) in metrics {
            let v = field(m, "value").and_then(as_f64).expect("numeric value");
            assert!(v.is_finite(), "{name}");
            if kind == "end_to_end" {
                assert!(v > 0.0, "{workload}: {name} reads {v}");
            }
        }
    }
}

#[test]
fn train_holdout_quick() {
    check_workload("train_holdout");
}

#[test]
fn search_jobs_quick() {
    check_workload("search_jobs");
}

#[test]
fn serve_v1_quick() {
    check_workload("serve_v1");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "serve_v1", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "serve_v1",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "serve_v1",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
