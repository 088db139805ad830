//! `search_jobs`: seeded `SearchRun` jobs, several seeds each: random jobs
//! on every held-out kernel, anneal and genetic jobs on mvt (`JOBS`). All
//! jobs share one `Session` through `search::SessionEval`; the model is
//! trained in set-up at a reduced epoch count from a fixed seed.
//!
//! One round runs every job to its budget and then clears the session, so
//! each round starts from the same cold cache; the job seeds of round `r`
//! derive from `(--seed, r)`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hier_hls_qor::hir::Function;
use hier_hls_qor::hlsim::{self, Qor};
use hier_hls_qor::pragma::PragmaConfig;
use hier_hls_qor::qor_core::{self, HierarchicalModel, QorError, Session, TrainOptions};
use hier_hls_qor::search::{
    BatchEvaluate, EvalRecord, Evaluate, Genome, SearchOptions, SearchRun, SessionEval, SpaceModel,
    StrategyKind,
};
use hier_hls_qor::{kernels, obs, par};

use crate::check::{self, Mape};
use crate::probe::{self, Metrics};
use crate::util::{self, Rng};
use crate::{timed_rounds, timed_rounds_with, Outcome, RunConfig, TRACED_ROUNDS_FROM};

/// Set-ups per run. The first builds the session the rounds use; the
/// others repeat the same work after the first rounds (or, in a run of
/// fewer rounds, after the last) and are dropped, so that the samples of
/// `setup_s` and `train_s` are spread over the run and a slow spell of the
/// host reaches few of them.
pub const SETUP_REPS: usize = 4;
/// Epochs of the set-up model (the offline flow uses 60).
const SETUP_EPOCHS: usize = 4;
/// One round's jobs: kernel, strategy and seeds. Most jobs are random
/// searches of the two 280-design spaces, so that the jobs overlap and most
/// evaluations are prepared-cache hits, as in the DSE traffic this workload
/// stands for. Anneal and genetic jobs run on mvt only: on the smaller
/// spaces of bicg, symm and syrk the anneal chains and the genetic
/// population, on some seeds, stop proposing fresh designs before the
/// budget is spent (see `README.md`). `serve_v1` sends the same jobs.
pub const JOBS: &[(&str, StrategyKind, u64)] = &[
    ("bicg", StrategyKind::Random, 4),
    ("symm", StrategyKind::Random, 18),
    ("mvt", StrategyKind::Random, 2),
    ("mvt", StrategyKind::Anneal, 2),
    ("mvt", StrategyKind::Genetic, 2),
    ("syrk", StrategyKind::Random, 18),
];
pub const BUDGET: u64 = 80;
pub const QUICK_BUDGET: u64 = 12;
/// Ledger entries re-predicted without the session, bit for bit.
const SAMPLE: usize = 64;
/// Dry steps in a row after which a job is taken as exhausted (as in
/// `SearchRun::run`).
pub const MAX_STALL: u32 = 64;

/// The model `search_jobs` and `serve_v1` serve, with the seconds spent
/// generating its dataset and in generation plus the fit.
pub struct SetupModel {
    pub model: HierarchicalModel,
    pub generate_s: f64,
    pub train_s: f64,
}

/// Trains the set-up model: the quick dataset, a reduced epoch count and
/// the fixed default seed.
pub fn train_model(quick: bool) -> Result<SetupModel, String> {
    let opts = if quick {
        TrainOptions::quick().with_epochs(2).with_max_designs(6)
    } else {
        TrainOptions::quick().with_epochs(SETUP_EPOCHS)
    };
    let t = Instant::now();
    let data = qor_core::generate(&opts.data).map_err(|e| format!("dataset: {e}"))?;
    let generate_s = t.elapsed().as_secs_f64();
    let (model, _) = HierarchicalModel::train_with_designs(&opts, &data)
        .map_err(|e| format!("training: {e}"))?;
    Ok(SetupModel {
        model,
        generate_s,
        train_s: t.elapsed().as_secs_f64(),
    })
}

/// One set-up: the set-up model and a `Session` over it. Pushes its
/// (dataset generation, generation + fit) seconds to `setups` and its
/// whole time to `secs`.
fn set_up(
    quick: bool,
    setups: &mut Vec<(f64, f64)>,
    secs: &mut Vec<f64>,
) -> Result<Arc<Session>, String> {
    let t = Instant::now();
    let built = train_model(quick)?;
    let session = Arc::new(Session::new(built.model));
    secs.push(t.elapsed().as_secs_f64());
    setups.push((built.generate_s, built.train_s));
    Ok(session)
}

/// A held-out kernel's search space and the oracle over all of it.
struct Kernel {
    name: &'static str,
    func: Arc<Function>,
    space: SpaceModel,
    size: usize,
}

struct Job {
    kernel: usize,
    strategy: StrategyKind,
    ledger: Vec<EvalRecord>,
    front: Vec<(f64, f64)>,
    failed: bool,
}

/// Wall-clock accounting of every evaluation and every batch the engine
/// hands out.
#[derive(Default)]
struct EvalClock {
    eval_us: Mutex<Vec<f64>>,
    batch_ns: AtomicU64,
}

/// Times each evaluation and batch, then scores exactly as the
/// `BatchEvaluate` impl every `Evaluate` gets.
struct TimedEval<'a> {
    inner: &'a SessionEval,
    clock: &'a EvalClock,
}

impl BatchEvaluate for TimedEval<'_> {
    fn evaluate_batch(
        &self,
        batch: &[(Genome, PragmaConfig)],
    ) -> Result<Vec<(f64, f64)>, QorError> {
        let t = Instant::now();
        let scores = par::try_map("search/evaluate", batch, |_, (_, cfg)| {
            let t0 = Instant::now();
            let r = self.inner.evaluate(cfg);
            let us = util::us_since(t0);
            self.clock.eval_us.lock().expect("evaluation log").push(us);
            r
        });
        self.clock
            .batch_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        scores
    }
}

/// Steps `run` to its budget, timing every step.
pub fn drive<E: BatchEvaluate + ?Sized>(
    run: &mut SearchRun,
    eval: &E,
    step_us: &mut Vec<f64>,
) -> Result<(), QorError> {
    let mut stalled = 0;
    while !run.is_done() && stalled < MAX_STALL {
        let t = Instant::now();
        let report = run.step_with(eval)?;
        step_us.push(util::us_since(t));
        stalled = if report.evaluated == 0 {
            stalled + 1
        } else {
            0
        };
    }
    Ok(())
}

struct Round {
    jobs: Vec<Job>,
    /// Seconds of each job, in `job_specs` order.
    job_secs: Vec<f64>,
    step_us: Vec<f64>,
    evaluations: u64,
    secs: f64,
}

/// One job of a round.
pub struct JobSpec {
    /// Index into `kernels::dse_kernels()`.
    pub kernel: usize,
    pub strategy: StrategyKind,
    pub seed: u64,
}

/// Round `r`'s jobs in `JOBS` order (one seed per entry in `--quick` mode),
/// their seeds drawn from `(seed, r)`.
pub fn job_specs(seed: u64, r: usize, quick: bool) -> Vec<JobSpec> {
    let names: Vec<&str> = kernels::dse_kernels().map(|k| k.name).collect();
    let mut out = Vec::new();
    for &(name, strategy, seeds) in JOBS {
        let ki = names
            .iter()
            .position(|n| *n == name)
            .expect("a held-out kernel");
        let si = StrategyKind::all()
            .into_iter()
            .position(|s| s == strategy)
            .expect("a strategy");
        for s in 0..if quick { 1 } else { seeds } {
            let parts = [r as u64, ki as u64, si as u64, s];
            out.push(JobSpec {
                kernel: ki,
                strategy,
                seed: Rng::derive(seed, &parts).next_u64(),
            });
        }
    }
    out
}

fn round(
    r: usize,
    seed: u64,
    budget: u64,
    quick: bool,
    kernels: &[Kernel],
    session: &Arc<Session>,
    clock: &EvalClock,
) -> Result<Round, String> {
    let t = Instant::now();
    let mut out = Round {
        jobs: Vec::new(),
        job_secs: Vec::new(),
        step_us: Vec::new(),
        evaluations: 0,
        secs: 0.0,
    };
    let evals: Vec<SessionEval> = kernels
        .iter()
        .map(|k| SessionEval::new(Arc::clone(session), k.name))
        .collect();
    for spec in job_specs(seed, r, quick) {
        let k = &kernels[spec.kernel];
        let opts = SearchOptions::new(k.name, spec.strategy, budget).with_seed(spec.seed);
        let mut run = SearchRun::for_kernel(opts).map_err(|e| e.to_string())?;
        let timed = TimedEval {
            inner: &evals[spec.kernel],
            clock,
        };
        let t_job = Instant::now();
        let result = drive(&mut run, &timed, &mut out.step_us);
        out.job_secs.push(t_job.elapsed().as_secs_f64());
        if let Err(e) = &result {
            eprintln!("perfbench: {} {} job failed: {e}", k.name, spec.strategy);
        }
        out.evaluations += run.spent();
        out.jobs.push(Job {
            kernel: spec.kernel,
            strategy: spec.strategy,
            ledger: run.ledger().to_vec(),
            front: run.front_points(),
            failed: result.is_err(),
        });
    }
    out.secs = t.elapsed().as_secs_f64();
    session.clear();
    Ok(out)
}

#[derive(Default)]
struct Checked {
    mape: Mape,
    adrs_pct: Vec<f64>,
    hlsim_us: Vec<f64>,
    sample: Vec<probe::Design>,
}

/// Checks every job's ledger and front, re-predicts a seeded sample of
/// ledger entries without the session, and scores the fronts against the
/// oracle.
fn check_jobs(
    rounds: &[&Round],
    kernels: &[Kernel],
    budget: u64,
    model: &HierarchicalModel,
    seed: u64,
    errors: &mut Vec<String>,
) -> Checked {
    let mut out = Checked::default();
    // the oracle over every design of every held-out space
    let mut truth: Vec<BTreeMap<u64, Qor>> = Vec::new();
    for k in kernels {
        let mut by_fp = BTreeMap::new();
        for cfg in k.space.space().enumerate() {
            let t = Instant::now();
            match hlsim::evaluate(&k.func, &cfg) {
                Ok(r) => by_fp.insert(cfg.fingerprint(), r.top),
                Err(e) => {
                    errors.push(format!("{}: oracle failed: {e}", k.name));
                    return out;
                }
            };
            out.hlsim_us.push(util::us_since(t));
        }
        truth.push(by_fp);
    }
    let true_points: Vec<Vec<(f64, f64)>> = truth
        .iter()
        .map(|m| m.values().map(check::point).collect())
        .collect();

    let mut distinct: Vec<BTreeMap<u64, PragmaConfig>> = vec![BTreeMap::new(); kernels.len()];
    let jobs: Vec<&Job> = rounds
        .iter()
        .flat_map(|r| &r.jobs)
        .filter(|j| !j.failed && !j.ledger.is_empty())
        .collect();
    for job in &jobs {
        let k = &kernels[job.kernel];
        let fps: Vec<u64> = job.ledger.iter().map(|e| e.fingerprint).collect();
        let points: Vec<(f64, f64)> = job.ledger.iter().map(|e| e.point).collect();
        if let Err(e) = check::check_ledger(&fps, &points, &job.front, budget, k.size) {
            errors.push(format!("{} {} job: {e}", k.name, job.strategy));
        }
        for e in &job.ledger {
            let cfg = k.space.decode(&e.genome);
            if cfg.fingerprint() != e.fingerprint {
                errors.push(format!(
                    "{}: ledger genome decodes to another design",
                    k.name
                ));
                break;
            }
            distinct[job.kernel].entry(e.fingerprint).or_insert(cfg);
        }
        let approx: Vec<(f64, f64)> = check::pareto_indices(&points)
            .into_iter()
            .filter_map(|i| truth[job.kernel].get(&job.ledger[i].fingerprint))
            .map(check::point)
            .collect();
        out.adrs_pct
            .push(100.0 * check::adrs(&true_points[job.kernel], &approx));
    }

    let mut rng = Rng::derive(seed, &[0x7365_6172]);
    for _ in 0..SAMPLE.min(jobs.len() * 4) {
        let job = jobs[rng.below(jobs.len())];
        let e = &job.ledger[rng.below(job.ledger.len())];
        let k = &kernels[job.kernel];
        let cfg = k.space.decode(&e.genome);
        let reference = check::point(&model.predict(&k.func, &cfg));
        if reference.0.to_bits() != e.point.0.to_bits()
            || reference.1.to_bits() != e.point.1.to_bits()
        {
            errors.push(format!(
                "{}: session scored {cfg} as {:?}, uncached predict gives {reference:?}",
                k.name, e.point
            ));
        }
        out.sample.push((Arc::clone(&k.func), cfg));
    }

    // quality of the model over every design the searches visited
    let visited: Vec<(usize, &PragmaConfig)> = distinct
        .iter()
        .enumerate()
        .flat_map(|(ki, m)| m.values().map(move |c| (ki, c)))
        .collect();
    let predicted = par::map("perfbench/search/quality", &visited, |_, &(ki, cfg)| {
        model.predict(&kernels[ki].func, cfg)
    });
    for ((ki, cfg), p) in visited.iter().zip(&predicted) {
        if let Some(t) = truth[*ki].get(&cfg.fingerprint()) {
            out.mape.add(p, t);
        }
    }
    out
}

/// Evaluations per second of a round, with each job's time taken as its
/// median over the rounds. Job `j` of every round searches the same kernel
/// with the same strategy and budget (only its seed differs), so a slow
/// spell of the host that reaches one round's job moves the figure little.
fn robust_rate(rounds: &[Round]) -> f64 {
    let evaluations = rounds.iter().map(|r| r.evaluations).sum::<u64>() as f64;
    let secs: f64 = (0..rounds[0].job_secs.len())
        .map(|j| {
            let times: Vec<f64> = rounds.iter().map(|r| r.job_secs[j]).collect();
            util::median(&times)
        })
        .sum();
    evaluations / rounds.len() as f64 / secs
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let budget = if cfg.quick { QUICK_BUDGET } else { BUDGET };
    let kernels: Vec<Kernel> = kernels::dse_kernels()
        .map(|k| {
            let func = Arc::new(kernels::lower_kernel(k.name).map_err(|e| e.to_string())?);
            let space = SpaceModel::for_kernel(k.name, None).map_err(|e| e.to_string())?;
            let size = space.space().enumerate().len();
            Ok(Kernel {
                name: k.name,
                func,
                space,
                size,
            })
        })
        .collect::<Result<_, String>>()?;

    if cfg.trace {
        probe::collect_spans(true);
    }
    let mut setups = Vec::new();
    let mut setup_secs = Vec::new();
    let session = set_up(cfg.quick, &mut setups, &mut setup_secs)?;
    let setup_report = obs::report::report_json();
    probe::collect_spans(false);

    let half = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let plain_clock = EvalClock::default();
    let mut more_setups = || -> Result<(), String> {
        if setup_secs.len() < SETUP_REPS {
            set_up(cfg.quick, &mut setups, &mut setup_secs)?;
        }
        Ok(())
    };
    let mut first_peak = None;
    let plain = timed_rounds_with(
        half,
        |r| {
            round(
                r,
                cfg.seed,
                budget,
                cfg.quick,
                &kernels,
                &session,
                &plain_clock,
            )
        },
        |_| {
            // memory the rounds leave in the allocator adds to a repeated
            // set-up's, so the peak is read before the first of them
            first_peak.get_or_insert_with(util::peak_rss_mb);
            more_setups()
        },
    )?;
    let peak_rss_mb = first_peak.unwrap_or_else(util::peak_rss_mb);
    for _ in 0..SETUP_REPS {
        more_setups()?;
    }
    let setup_s = util::median(&setup_secs);
    let clock = EvalClock::default();
    let mut traced = Vec::new();
    let mut counts = Metrics::new();
    if cfg.trace {
        let before = session.stats();
        probe::collect_spans(true);
        traced = timed_rounds(half, |r| {
            let out = round(
                TRACED_ROUNDS_FROM + r,
                cfg.seed,
                budget,
                cfg.quick,
                &kernels,
                &session,
                &clock,
            )?;
            if r == 0 {
                probe::cache_counts(&session.stats(), &before, &mut counts);
            }
            Ok(out)
        })?;
        probe::collect_spans(false);
    }

    let mut outcome = Outcome {
        op: "evaluations",
        ..Outcome::default()
    };
    for r in plain.iter().chain(&traced) {
        outcome.attempted += r.jobs.len() as u64 * budget;
        for job in r.jobs.iter().filter(|j| j.failed) {
            outcome.failed += budget - job.ledger.len() as u64;
        }
    }
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    let checked = check_jobs(
        &all,
        &kernels,
        budget,
        session.model(),
        cfg.seed,
        &mut outcome.errors,
    );

    let m = &mut outcome.metrics;
    if cfg.trace {
        let per_eval = |rs: &[Round]| {
            rs.iter().map(|r| r.secs).sum::<f64>()
                / rs.iter().map(|r| r.evaluations).sum::<u64>() as f64
        };
        m.insert(
            "trace.overhead_pct",
            100.0 * (per_eval(&traced) / per_eval(&plain) - 1.0),
        );
        m.insert(
            "core.dataset.generate_s",
            util::mean(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        );
        probe::training_spans(&setup_report, m);
        m.insert("hlsim.evaluate_us", util::mean(&checked.hlsim_us));
        let evals = clock.eval_us.into_inner().expect("evaluation log");
        m.insert("search.eval_us", util::mean(&evals));
        let steps: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.step_us.iter().copied())
            .collect();
        let engine_us =
            steps.iter().sum::<f64>() - clock.batch_ns.load(Ordering::Relaxed) as f64 / 1e3;
        m.insert(
            "search.engine_ms",
            engine_us / steps.len().max(1) as f64 / 1e3,
        );
        m.append(&mut counts);
        probe::probe_designs(session.model(), &checked.sample, m);
        let sources: Vec<&str> = kernels
            .iter()
            .filter_map(|k| kernels::kernel_source(k.name))
            .collect();
        probe::probe_sources(&sources, m)?;
    } else {
        m.insert("setup_s", setup_s);
        m.insert(
            "train_s",
            util::median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        m.insert("designs_per_s", robust_rate(&plain));
        let evals = plain_clock.eval_us.into_inner().expect("evaluation log");
        m.insert("latency_p50_us", util::median(&evals));
        m.insert("holdout_mape_latency_pct", checked.mape.latency_pct());
        m.insert("holdout_mape_resource_pct", checked.mape.resource_pct());
        m.insert("adrs_pct", util::mean(&checked.adrs_pct));
        m.insert("peak_rss_mb", peak_rss_mb);
    }
    Ok(outcome)
}
