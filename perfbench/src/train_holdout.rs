//! `train_holdout`: the paper's offline flow. Build the `TrainOptions::quick()`
//! dataset from the 12 training kernels, train `GNN_p`, `GNN_np` and
//! `GNN_g`, then run `dse::explore` over the full design spaces of the four
//! held-out kernels with the uncached `HierarchicalModel::predict`.
//!
//! One round is the whole flow; the inputs are fixed, and `--seed` picks
//! the sample that is re-predicted sequentially for the bit-for-bit check.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hier_hls_qor::dse::{self, ExploreOutcome};
use hier_hls_qor::hir::Function;
use hier_hls_qor::hlsim::{self, Qor};
use hier_hls_qor::pragma::PragmaConfig;
use hier_hls_qor::qor_core::{self, HierarchicalModel, TrainOptions};
use hier_hls_qor::{kernels, obs};

use crate::check::{self, Mape};
use crate::probe::{self, Metrics};
use crate::util::{self, Rng};
use crate::{timed_rounds, timed_setup, Outcome, RunConfig};

const SETUP_REPS: usize = 9;
/// Sweeps of the held-out spaces per trained model; `designs_per_s` is
/// their median rate.
const SWEEPS: usize = 4;
/// Designs re-predicted sequentially against the parallel sweep.
const SAMPLE: usize = 48;
/// Designs per held-out kernel in `--quick` mode.
const QUICK_DESIGNS: usize = 24;

struct HeldOut {
    name: &'static str,
    func: Arc<Function>,
    configs: Vec<PragmaConfig>,
    /// The `hlsim` oracle's QoR of every configuration.
    truth: Vec<Qor>,
    /// Microseconds of each oracle call.
    oracle_us: Vec<f64>,
}

/// Set-up: lower the held-out kernels, enumerate their design spaces and
/// label every design with the `hlsim` oracle the checks compare against.
fn held_out(quick: bool) -> Result<Vec<HeldOut>, String> {
    kernels::dse_kernels()
        .map(|k| {
            let func = kernels::lower_kernel(k.name).map_err(|e| e.to_string())?;
            let space = kernels::design_space(&func);
            let configs = if quick {
                space.enumerate_capped(QUICK_DESIGNS)
            } else {
                space.enumerate()
            };
            let (mut truth, mut oracle_us) = (Vec::new(), Vec::new());
            for c in &configs {
                let t = Instant::now();
                let r = hlsim::evaluate(&func, c)
                    .map_err(|e| format!("{}: oracle failed on {c}: {e}", k.name))?;
                oracle_us.push(util::us_since(t));
                truth.push(r.top);
            }
            Ok(HeldOut {
                name: k.name,
                func: Arc::new(func),
                configs,
                truth,
                oracle_us,
            })
        })
        .collect()
}

fn train_options(quick: bool) -> TrainOptions {
    if quick {
        TrainOptions::quick().with_epochs(2).with_max_designs(6)
    } else {
        TrainOptions::quick()
    }
}

struct Round {
    generate_s: f64,
    /// Dataset generation plus the hierarchical fit.
    train_s: f64,
    /// Seconds of each sweep over all held-out kernels.
    sweep_s: Vec<f64>,
    model: HierarchicalModel,
    /// Per sweep, per held-out kernel.
    outcomes: Vec<Vec<Result<ExploreOutcome, String>>>,
    latencies_us: Vec<f64>,
}

fn round(opts: &TrainOptions, held: &[HeldOut]) -> Result<Round, String> {
    let t = Instant::now();
    let data = qor_core::generate(&opts.data).map_err(|e| format!("dataset: {e}"))?;
    let generate_s = t.elapsed().as_secs_f64();
    let (model, _) =
        HierarchicalModel::train_with_designs(opts, &data).map_err(|e| format!("training: {e}"))?;
    let train_s = t.elapsed().as_secs_f64();
    drop(data);

    let latencies = Mutex::new(Vec::new());
    let predict = |f: &Function, c: &PragmaConfig| {
        let t0 = Instant::now();
        let q = model.predict(f, c);
        let us = util::us_since(t0);
        latencies.lock().expect("latency log").push(us);
        q
    };
    let (mut sweep_s, mut outcomes) = (Vec::new(), Vec::new());
    for _ in 0..SWEEPS {
        let t = Instant::now();
        outcomes.push(
            held.iter()
                .map(|h| {
                    dse::explore(h.name, &h.func, &h.configs, predict, 0.0)
                        .map_err(|e| e.to_string())
                })
                .collect(),
        );
        sweep_s.push(t.elapsed().as_secs_f64());
    }
    Ok(Round {
        generate_s,
        train_s,
        sweep_s,
        model,
        outcomes,
        latencies_us: latencies.into_inner().expect("latency log"),
    })
}

/// Quality figures measured while checking.
#[derive(Default)]
struct Checked {
    mape: Mape,
    adrs_pct: Vec<f64>,
}

/// Checks the first sweep against the oracle and the definitions, and
/// every later sweep, of any round, against the first.
fn check_rounds(
    rounds: &[&Round],
    held: &[HeldOut],
    seed: u64,
    errors: &mut Vec<String>,
) -> Checked {
    let mut out = Checked::default();
    let first = rounds[0];
    let mut rng = Rng::derive(seed, &[0x7261_696e]);
    for (h, outcome) in held.iter().zip(&first.outcomes[0]) {
        let Ok(o) = outcome else { continue };
        let truth = &h.truth;
        if o.points.len() != h.configs.len() {
            errors.push(format!(
                "{}: {} points for {} designs",
                h.name,
                o.points.len(),
                h.configs.len()
            ));
            continue;
        }
        for ((p, c), t) in o.points.iter().zip(&h.configs).zip(truth) {
            if p.config != *c || p.true_qor != *t {
                errors.push(format!(
                    "{}: point for {c} disagrees with the oracle",
                    h.name
                ));
                break;
            }
            out.mape.add(&p.predicted, t);
        }
        let predicted: Vec<(f64, f64)> = o
            .points
            .iter()
            .map(|p| check::point(&p.predicted))
            .collect();
        if let Err(e) = check::check_front(&predicted, o.pareto.indices()) {
            errors.push(format!("{}: {e}", h.name));
        }
        let true_pts: Vec<(f64, f64)> = truth.iter().map(check::point).collect();
        let approx: Vec<(f64, f64)> = check::pareto_indices(&predicted)
            .into_iter()
            .map(|i| true_pts[i])
            .collect();
        match check::check_adrs(&true_pts, &approx, o.adrs.value()) {
            Ok(a) => out.adrs_pct.push(100.0 * a),
            Err(e) => errors.push(format!("{}: {e}", h.name)),
        }
        for i in rng.sample(h.configs.len(), SAMPLE) {
            let reference = first.model.predict(&h.func, &h.configs[i]);
            if let Err(e) = check::check_same_qor(
                &format!("{} design {i} of the parallel sweep", h.name),
                &o.points[i].predicted,
                &reference,
            ) {
                errors.push(e);
            }
        }
    }
    for (r, round) in rounds.iter().enumerate() {
        for (s, sweep) in round.outcomes.iter().enumerate() {
            for (a, b) in first.outcomes[0].iter().zip(sweep) {
                if let (Ok(a), Ok(b)) = (a, b) {
                    if a.points
                        .iter()
                        .zip(&b.points)
                        .any(|(x, y)| x.predicted != y.predicted)
                    {
                        errors.push(format!(
                            "{}: sweep {s} of round {r} differs from the first",
                            a.kernel
                        ));
                    }
                }
            }
        }
    }
    out
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let (held, setup_s) = timed_setup(SETUP_REPS, || held_out(cfg.quick))?;
    let opts = train_options(cfg.quick);
    let half = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };

    let plain = timed_rounds(half, |_| round(&opts, &held))?;
    let peak_rss_mb = util::peak_rss_mb();
    let mut traced = Vec::new();
    let mut report = obs::Json::Null;
    if cfg.trace {
        probe::collect_spans(true);
        traced = timed_rounds(half, |_| round(&opts, &held))?;
        report = obs::report::report_json();
        probe::collect_spans(false);
    }

    let designs: usize = held.iter().map(|h| h.configs.len()).sum();
    let mut outcome = Outcome {
        op: "predictions",
        ..Outcome::default()
    };
    for r in plain.iter().chain(&traced) {
        for (h, o) in r.outcomes.iter().flat_map(|sweep| held.iter().zip(sweep)) {
            outcome.attempted += h.configs.len() as u64;
            if let Err(e) = o {
                outcome.failed += h.configs.len() as u64;
                eprintln!("perfbench: {}: explore failed: {e}", h.name);
            }
        }
    }
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let checked = check_rounds(&all, &held, cfg.seed, &mut outcome.errors);

    let m = &mut outcome.metrics;
    if cfg.trace {
        layer_metrics(m, &plain, &traced, &held, &report, cfg.seed)?;
    } else {
        let rates: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.sweep_s.iter().map(|s| designs as f64 / s))
            .collect();
        let train: Vec<f64> = plain.iter().map(|r| r.train_s).collect();
        let latencies: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect();
        m.insert("setup_s", setup_s);
        m.insert("train_s", util::median(&train));
        m.insert("designs_per_s", util::median(&rates));
        m.insert("latency_p50_us", util::median(&latencies));
        m.insert("holdout_mape_latency_pct", checked.mape.latency_pct());
        m.insert("holdout_mape_resource_pct", checked.mape.resource_pct());
        m.insert("adrs_pct", util::mean(&checked.adrs_pct));
        m.insert("peak_rss_mb", peak_rss_mb);
    }
    Ok(outcome)
}

fn layer_metrics(
    m: &mut Metrics,
    plain: &[Round],
    traced: &[Round],
    held: &[HeldOut],
    report: &obs::Json,
    seed: u64,
) -> Result<(), String> {
    let round_s = |rs: &[Round]| {
        util::mean(
            &rs.iter()
                .map(|r| r.train_s + r.sweep_s.iter().sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    m.insert(
        "trace.overhead_pct",
        100.0 * (round_s(traced) / round_s(plain) - 1.0),
    );
    m.insert(
        "core.dataset.generate_s",
        util::mean(&traced.iter().map(|r| r.generate_s).collect::<Vec<_>>()),
    );
    probe::training_spans(report, m);
    m.insert("dse.score_ms", probe::span_self_ms(report, "dse_explore"));
    let oracle_us: Vec<f64> = held.iter().flat_map(|h| h.oracle_us.clone()).collect();
    m.insert("hlsim.evaluate_us", util::mean(&oracle_us));

    let mut rng = Rng::derive(seed, &[0x7072_6f62]);
    let designs: Vec<probe::Design> = held
        .iter()
        .flat_map(|h| {
            rng.sample(h.configs.len(), 16)
                .into_iter()
                .map(|i| (Arc::clone(&h.func), h.configs[i].clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    probe::probe_designs(&plain[0].model, &designs, m);
    let sources: Vec<&str> = held
        .iter()
        .filter_map(|h| kernels::kernel_source(h.name))
        .collect();
    probe::probe_sources(&sources, m)
}
