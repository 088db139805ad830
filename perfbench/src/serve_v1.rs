//! `serve_v1`: a live in-process `qor-serve` on loopback, driven by two
//! closed-loop clients posting `/v1/predict` (each client sends its next
//! request only after the previous reply, as DSE drivers and fleet
//! coordinators do).
//!
//! The clients are DSE drivers: every round they run the `search_jobs` job
//! mix (`search_jobs::JOBS`, job seeds from `(--seed, round)`), dealt
//! alternately to the two clients, and score each candidate over the wire.
//! A client sends the candidates of its even-numbered jobs one request
//! each, and each step's candidates of its odd-numbered jobs as one
//! `{"requests":[…]}` batch. Before each job it posts one inline
//! `kernels::synth` source (a cold `frontc` + `hir` lowering). Designs the
//! jobs share are cache hits, and single-flight dedup when both clients
//! ask at once; the server's cache is cleared after each round.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hier_hls_qor::hir::Function;
use hier_hls_qor::hlsim::{self, Qor};
use hier_hls_qor::obs::{self, Json};
use hier_hls_qor::pragma::PragmaConfig;
use hier_hls_qor::qor_core::{CacheStats, HierarchicalModel, QorError, Session};
use hier_hls_qor::search::{BatchEvaluate, Genome, SearchOptions, SearchRun};
use hier_hls_qor::serve::json::{as_array, as_bool, as_f64, as_str, as_u64, field, parse};
use hier_hls_qor::serve::{Server, ServerHandle};
use hier_hls_qor::{frontc, hir, kernels, par};

use crate::check::{self, Mape};
use crate::http::{config_json, request, wire_config};
use crate::probe::{self, Metrics};
use crate::search_jobs::{self, train_model, JobSpec};
use crate::util::{self, json_str, Rng};
use crate::{timed_rounds, timed_rounds_with, Outcome, RunConfig, TRACED_ROUNDS_FROM};

const CLIENTS: usize = 2;
/// Held-out designs per kernel in `--quick` mode.
const QUICK_DESIGNS: usize = 24;
/// Designs replayed through the layer probe.
const PROBE_DESIGNS: usize = 64;
/// Where the traced run points the program's `QOR_LOG` event sink.
const LOG_DIR: &str = ".perfbench-trace";

/// One design a request carried.
#[derive(Clone)]
struct Design {
    /// Index into the held-out kernels, or `None` for an inline source.
    kernel: Option<usize>,
    /// Index into `Catalog::sources`.
    source: Option<usize>,
    /// The configuration as the server decodes it from the request.
    cfg: PragmaConfig,
}

struct Source {
    text: String,
    top: String,
}

/// Everything the clients sent so far, deduplicated.
#[derive(Default)]
struct Catalog {
    designs: Vec<Design>,
    index: BTreeMap<(Option<usize>, Option<usize>, u64), usize>,
    sources: Vec<Source>,
    /// The QoR the server returned for each design (first response).
    served: Vec<Option<Qor>>,
}

impl Catalog {
    fn intern(&mut self, design: &Design) -> usize {
        let key = (design.kernel, design.source, design.cfg.fingerprint());
        if let Some(&i) = self.index.get(&key) {
            return i;
        }
        self.designs.push(design.clone());
        self.served.push(None);
        self.index.insert(key, self.designs.len() - 1);
        self.designs.len() - 1
    }
}

struct Held {
    names: Vec<&'static str>,
    funcs: Vec<Arc<Function>>,
    /// Every held-out design as `(kernel, config)`.
    pool: Vec<(usize, PragmaConfig)>,
}

/// One request as the client sent it and saw its reply.
struct Sent {
    items: Vec<Design>,
    batch: bool,
    latency_us: f64,
    result: std::io::Result<(u16, String)>,
}

/// A DSE driver's evaluator: scores a search step's candidates over
/// `POST /v1/predict`, one request per candidate or one batch per step,
/// and logs every request.
struct WireEval<'a> {
    addr: SocketAddr,
    kernel: usize,
    name: &'static str,
    batch: bool,
    log: &'a Mutex<Vec<Sent>>,
}

impl WireEval<'_> {
    fn item_json(&self, cfg: &PragmaConfig) -> String {
        format!(
            "{{\"kernel\":{},\"config\":{}}}",
            json_str(self.name),
            config_json(cfg)
        )
    }
}

impl BatchEvaluate for WireEval<'_> {
    fn evaluate_batch(
        &self,
        batch: &[(Genome, PragmaConfig)],
    ) -> Result<Vec<(f64, f64)>, QorError> {
        let items: Vec<Design> = batch
            .iter()
            .map(|(_, c)| Design {
                kernel: Some(self.kernel),
                source: None,
                cfg: wire_config(c),
            })
            .collect();
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let requests: Vec<(String, Vec<Design>)> = if self.batch {
            let bodies: Vec<String> = items.iter().map(|i| self.item_json(&i.cfg)).collect();
            vec![(format!("{{\"requests\":[{}]}}", bodies.join(",")), items)]
        } else {
            items
                .into_iter()
                .map(|i| (self.item_json(&i.cfg), vec![i]))
                .collect()
        };
        let mut scores = Vec::with_capacity(batch.len());
        for (body, items) in requests {
            let qors = send(self.addr, body, items, self.batch, self.log)
                .ok_or_else(|| QorError::Shape(format!("{}: request failed", self.name)))?;
            scores.extend(qors.iter().map(check::point));
        }
        Ok(scores)
    }
}

/// Posts one request, logs it, and returns the QoR of each item when the
/// reply is a 200 of the right shape.
fn send(
    addr: SocketAddr,
    body: String,
    items: Vec<Design>,
    batch: bool,
    log: &Mutex<Vec<Sent>>,
) -> Option<Vec<Qor>> {
    let t = Instant::now();
    let result = request(addr, "POST", "/v1/predict", &body);
    let latency_us = util::us_since(t);
    let qors = match &result {
        Ok((200, reply)) => qors_of(reply, items.len(), batch),
        _ => None,
    };
    log.lock().expect("request log").push(Sent {
        items,
        batch,
        latency_us,
        result,
    });
    qors
}

/// The QoR of each of `n` items in a 200 reply, if it has that shape.
fn qors_of(body: &str, n: usize, batch: bool) -> Option<Vec<Qor>> {
    let doc = parse(body).ok()?;
    if batch {
        let items = field(&doc, "results").and_then(as_array)?;
        if items.len() != n {
            return None;
        }
        items.iter().map(qor_of).collect()
    } else {
        Some(vec![qor_of(&doc)?])
    }
}

/// One client's share of a round: every `CLIENTS`-th job from `first`,
/// each after one inline source request.
fn client(
    addr: SocketAddr,
    first: usize,
    jobs: &[JobSpec],
    budget: u64,
    held: &Held,
    sources: &[(usize, &Source)],
) -> (Vec<Sent>, Vec<String>) {
    let log = Mutex::new(Vec::new());
    let mut failures = Vec::new();
    for (k, j) in (first..jobs.len()).step_by(CLIENTS).enumerate() {
        let (s, src) = sources[j];
        let body = format!(
            "{{\"source\":{},\"top\":{},\"config\":{}}}",
            json_str(&src.text),
            json_str(&src.top),
            config_json(&PragmaConfig::new())
        );
        let item = Design {
            kernel: None,
            source: Some(s),
            cfg: PragmaConfig::new(),
        };
        if send(addr, body, vec![item], false, &log).is_none() {
            failures.push(format!("inline source {} failed", src.top));
        }
        let spec = &jobs[j];
        let name = held.names[spec.kernel];
        let eval = WireEval {
            addr,
            kernel: spec.kernel,
            name,
            batch: k % 2 == 1,
            log: &log,
        };
        let opts = SearchOptions::new(name, spec.strategy, budget).with_seed(spec.seed);
        let result = SearchRun::for_kernel(opts)
            .and_then(|mut run| search_jobs::drive(&mut run, &eval, &mut Vec::new()));
        if let Err(e) = result {
            failures.push(format!("{name} {} job: {e}", spec.strategy));
        }
    }
    (log.into_inner().expect("request log"), failures)
}

fn qor_of(doc: &Json) -> Option<Qor> {
    let q = field(doc, "qor")?;
    let get = |k| field(q, k).and_then(as_u64);
    Some(Qor {
        latency: get("latency")?,
        lut: get("lut")?,
        ff: get("ff")?,
        dsp: get("dsp")?,
    })
}

/// Checks one reply's status and shape and records the QoR it served.
fn absorb(sent: &Sent, cat: &mut Catalog, errors: &mut Vec<String>) -> bool {
    let body = match &sent.result {
        Ok((200, body)) => body,
        Ok((status, body)) => {
            eprintln!("perfbench: request failed with {status}: {body}");
            return false;
        }
        Err(e) => {
            eprintln!("perfbench: request failed: {e}");
            return false;
        }
    };
    let Some(qors) = qors_of(body, sent.items.len(), sent.batch) else {
        errors.push(format!(
            "{} item(s) answered with {body:?}",
            sent.items.len()
        ));
        return true;
    };
    for (item, q) in sent.items.iter().zip(qors) {
        let d = cat.intern(item);
        match cat.served[d] {
            None => cat.served[d] = Some(q),
            Some(first) if q != first => {
                errors.push(format!(
                    "design {d} served as {q:?} and earlier as {first:?}"
                ));
            }
            _ => {}
        }
    }
    true
}

#[derive(Default)]
struct Round {
    latencies_us: Vec<f64>,
    client_s: f64,
    predictions: u64,
    requests: u64,
    batches: u64,
    inline: u64,
    failed: u64,
}

fn round(
    r: usize,
    cfg: &RunConfig,
    held: &Held,
    handle: &ServerHandle,
    cat: &mut Catalog,
    errors: &mut Vec<String>,
) -> Result<Round, String> {
    let jobs = search_jobs::job_specs(cfg.seed, r, cfg.quick);
    let budget = if cfg.quick {
        search_jobs::QUICK_BUDGET
    } else {
        search_jobs::BUDGET
    };
    let base = cat.sources.len();
    let sources: Vec<Source> = (0..jobs.len())
        .map(|j| {
            let synth_seed =
                Rng::derive(cfg.seed, &[0x7365_7276, r as u64, j as u64]).next_u64() >> 16;
            Source {
                text: kernels::synthetic_kernel(synth_seed),
                top: format!("synth{synth_seed}"),
            }
        })
        .collect();
    let numbered: Vec<(usize, &Source)> = sources
        .iter()
        .enumerate()
        .map(|(j, s)| (base + j, s))
        .collect();
    let addr = handle.addr();
    let t = Instant::now();
    let logs: Vec<(Vec<Sent>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (jobs, numbered) = (&jobs, &numbered);
                scope.spawn(move || client(addr, c, jobs, budget, held, numbered))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let client_s = t.elapsed().as_secs_f64();
    handle.registry().cache().clear();
    cat.sources.extend(sources);
    let mut out = Round {
        client_s,
        ..Round::default()
    };
    for (sent, failures) in &logs {
        for f in failures {
            eprintln!("perfbench: {f}");
        }
        for s in sent {
            out.latencies_us.push(s.latency_us);
            out.requests += 1;
            out.predictions += s.items.len() as u64;
            out.batches += u64::from(s.batch);
            out.inline += u64::from(s.items[0].source.is_some());
            if !absorb(s, cat, errors) {
                out.failed += 1;
            }
        }
    }
    Ok(out)
}

fn start_server(quick: bool, setups: &mut Vec<(f64, f64)>) -> Result<ServerHandle, String> {
    let built = train_model(quick)?;
    setups.push((built.generate_s, built.train_s));
    Server::bind("127.0.0.1:0", Session::new(built.model))
        .and_then(Server::spawn)
        .map_err(|e| format!("server: {e}"))
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    match request(addr, "GET", path, "") {
        Ok((200, body)) => parse(&body).map_err(|e| format!("{path}: {e}")),
        Ok((status, body)) => Err(format!("{path}: {status} {body}")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Quality of what was served, and the oracle's cost.
#[derive(Default)]
struct Checked {
    mape: Mape,
    adrs_pct: Vec<f64>,
    hlsim_us: Vec<f64>,
}

/// Compares every served design with an uncached `model.predict` (inline
/// sources lowered by the benchmark itself). The quality figures cover
/// every held-out design, as served or, where the clients never asked for
/// it, as the same uncached prediction.
fn check_served(
    cat: &Catalog,
    held: &Held,
    sources: &[Arc<Function>],
    model: &HierarchicalModel,
    errors: &mut Vec<String>,
) -> Checked {
    let mut out = Checked::default();
    let reference = par::map("perfbench/serve/reference", &cat.designs, |_, d| {
        model.predict(function_of(d, held, sources), &d.cfg)
    });
    for ((d, served), want) in cat.designs.iter().zip(&cat.served).zip(&reference) {
        if let Some(served) = served {
            if let Err(e) = check::check_same_qor(&format!("served {}", d.cfg), served, want) {
                errors.push(e);
            }
        }
    }
    let predicted = par::map("perfbench/serve/pool", &held.pool, |_, (k, c)| {
        let cfg = wire_config(c);
        match cat.index.get(&(Some(*k), None, cfg.fingerprint())) {
            Some(&d) => reference[d],
            None => model.predict(&held.funcs[*k], &cfg),
        }
    });
    // per held-out kernel: predicted and true objective points
    let mut predicted_pts = vec![Vec::new(); held.names.len()];
    let mut true_pts = vec![Vec::new(); held.names.len()];
    for ((k, cfg), p) in held.pool.iter().zip(&predicted) {
        let t = Instant::now();
        match hlsim::evaluate(&held.funcs[*k], &wire_config(cfg)) {
            Ok(r) => {
                out.hlsim_us.push(util::us_since(t));
                out.mape.add(p, &r.top);
                predicted_pts[*k].push(check::point(p));
                true_pts[*k].push(check::point(&r.top));
            }
            Err(e) => errors.push(format!("oracle failed on {cfg}: {e}")),
        }
    }
    for (predicted, truth) in predicted_pts.iter().zip(&true_pts) {
        let approx: Vec<(f64, f64)> = check::pareto_indices(predicted)
            .into_iter()
            .map(|i| truth[i])
            .collect();
        out.adrs_pct.push(100.0 * check::adrs(truth, &approx));
    }
    out
}

/// Lowers every inline source the clients sent, through `frontc::parse`
/// and `hir::lower`, for the uncached reference predictions.
fn lower_sources(cat: &Catalog) -> Result<Vec<Arc<Function>>, String> {
    cat.sources
        .iter()
        .map(|src| {
            let program = frontc::parse(&src.text).map_err(|e| format!("{}: {e}", src.top))?;
            let module = hir::lower(&program).map_err(|e| format!("{}: {e}", src.top))?;
            let func = module
                .function(&src.top)
                .ok_or_else(|| format!("{}: no such function", src.top))?;
            Ok(Arc::new(func.clone()))
        })
        .collect()
}

fn function_of<'a>(d: &Design, held: &'a Held, sources: &'a [Arc<Function>]) -> &'a Arc<Function> {
    match (d.kernel, d.source) {
        (Some(k), _) => &held.funcs[k],
        (_, Some(s)) => &sources[s],
        _ => unreachable!("a design names a kernel or a source"),
    }
}

/// Server-side numbers the traced half reads from the program's own
/// surfaces: `/debug/requests` flight stages, `/debug/vars` batcher
/// counters and the `session.predict` events of the `QOR_LOG` sink.
fn serve_layers(
    addr: SocketAddr,
    since_us: u64,
    vars_before: &Json,
    log: &str,
    client_us: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let flight = get_json(addr, "/debug/requests")?;
    let (mut decode, mut batch, mut total) = (Vec::new(), Vec::new(), Vec::new());
    for rec in field(&flight, "requests").and_then(as_array).unwrap_or(&[]) {
        let start = field(rec, "start_us").and_then(as_u64).unwrap_or(0);
        if field(rec, "label").and_then(as_str) != Some("POST /v1/predict") || start < since_us {
            continue;
        }
        total.push(field(rec, "total_us").and_then(as_u64).unwrap_or(0) as f64);
        for stage in field(rec, "stages").and_then(as_array).unwrap_or(&[]) {
            let us = field(stage, "us").and_then(as_u64).unwrap_or(0) as f64;
            match field(stage, "stage").and_then(as_str) {
                Some("decode") => decode.push(us),
                Some("batch") => batch.push(us),
                _ => {}
            }
        }
    }
    m.insert("serve.decode_us", util::mean(&decode));
    m.insert("serve.batch_us", util::mean(&batch));
    m.insert("serve.unaccounted_us", client_us - util::mean(&total));

    let vars = get_json(addr, "/debug/vars")?;
    let batcher = |doc: &Json, k: &str| {
        field(doc, "batcher")
            .and_then(|b| field(b, k))
            .and_then(as_u64)
            .unwrap_or(0) as f64
    };
    let items = batcher(&vars, "items") - batcher(vars_before, "items");
    let batches = batcher(&vars, "batches") - batcher(vars_before, "batches");
    m.insert("serve.batch_items_mean", items / batches.max(1.0));
    m.insert(
        "serve.dedup_ratio",
        (batcher(&vars, "deduped") - batcher(vars_before, "deduped")) / items.max(1.0),
    );

    let text = std::fs::read_to_string(log).map_err(|e| format!("{log}: {e}"))?;
    let (mut lower, mut prepare, mut infer) = (Vec::new(), Vec::new(), Vec::new());
    for line in text.lines() {
        let Ok(ev) = parse(line) else { continue };
        let ts = field(&ev, "ts_us").and_then(as_u64).unwrap_or(0);
        if field(&ev, "event").and_then(as_str) != Some("session.predict") || ts < since_us {
            continue;
        }
        let us = |k| field(&ev, k).and_then(as_u64).unwrap_or(0) as f64;
        lower.push(us("lower_us"));
        prepare.push(us("prepare_us"));
        infer.push(us("infer_us"));
    }
    m.insert("serve.lower_us", util::mean(&lower));
    m.insert("serve.prepare_us", util::mean(&prepare));
    m.insert("serve.infer_us", util::mean(&infer));
    Ok(())
}

/// What the traced run takes from its untraced reference run.
struct Reference {
    /// Requests the reference run sent (none of them failed).
    attempted: u64,
    designs_per_s: f64,
    latency_p99_us: f64,
}

/// The untraced half of a traced run: a `--trace 0` run of this workload
/// for half the time, in a child process started without the `QOR_LOG`
/// sink (which the program reads once per process), so that neither its
/// rate nor its tail carries the cost of the traced run's instruments.
fn untraced_reference(cfg: &RunConfig) -> Result<Reference, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", "serve_v1", "--trace", "0"])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &(cfg.seconds / 2.0).to_string()])
        .env_remove("QOR_LOG")
        .env_remove("QOR_FLIGHT_CAP")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("untraced run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    if !out.status.success() || lines.len() < 2 {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let info = parse(lines[lines.len() - 2]).map_err(|e| format!("untraced run: {e}"))?;
    let result = parse(lines[lines.len() - 1]).map_err(|e| format!("untraced run: {e}"))?;
    if field(&result, "correct").and_then(as_bool) != Some(true)
        || field(&result, "failed").and_then(as_u64) != Some(0)
    {
        return Err(format!(
            "untraced run failed its checks: {}",
            lines[lines.len() - 1]
        ));
    }
    let number = |doc: &Json, path: &[&str]| {
        path.iter()
            .try_fold(doc, |d, k| field(d, k))
            .and_then(as_f64)
            .ok_or_else(|| format!("untraced run: no {}", path.join(".")))
    };
    Ok(Reference {
        attempted: field(&result, "attempted").and_then(as_u64).unwrap_or(0),
        designs_per_s: number(&result, &["metrics", "designs_per_s", "value"])?,
        latency_p99_us: number(&info, &["notes", "latency_p99_us"])?,
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if !cfg.trace {
        return run_workload(cfg, None);
    }
    let reference = untraced_reference(cfg)?;
    let log = format!("{LOG_DIR}/serve-{}.jsonl", std::process::id());
    // both are read once, on first use, so they are set before the program
    // runs at all
    std::fs::create_dir_all(LOG_DIR).map_err(|e| format!("{LOG_DIR}: {e}"))?;
    std::env::set_var("QOR_LOG", format!("debug:{log}"));
    std::env::set_var("QOR_FLIGHT_CAP", "1000000");
    let result = run_workload(cfg, Some((&log, reference)));
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_dir(LOG_DIR);
    result
}

/// Prepared-cache hits over lookups between two snapshots.
fn hit_ratio(after: &CacheStats, before: &CacheStats) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    hits / (hits + (after.misses - before.misses) as f64).max(1.0)
}

/// Runs the workload untraced, or, given the log path and the untraced
/// reference, traced for half the time.
fn run_workload(cfg: &RunConfig, traced: Option<(&str, Reference)>) -> Result<Outcome, String> {
    let mut held = Held {
        names: Vec::new(),
        funcs: Vec::new(),
        pool: Vec::new(),
    };
    for k in kernels::dse_kernels() {
        let func = kernels::lower_kernel(k.name).map_err(|e| e.to_string())?;
        let ki = held.names.len();
        let space = kernels::design_space(&func);
        let configs = if cfg.quick {
            space.enumerate_capped(QUICK_DESIGNS)
        } else {
            space.enumerate()
        };
        held.pool.extend(configs.into_iter().map(|c| (ki, c)));
        held.names.push(k.name);
        held.funcs.push(Arc::new(func));
    }

    if traced.is_some() {
        probe::collect_spans(true);
    }
    let mut setups = Vec::new();
    let mut setup_secs = Vec::new();
    let t = Instant::now();
    let handle = start_server(cfg.quick, &mut setups)?;
    setup_secs.push(t.elapsed().as_secs_f64());
    let setup_report = obs::report::report_json();
    probe::collect_spans(false);

    let mut cat = Catalog::default();
    let mut outcome = Outcome {
        op: "requests",
        ..Outcome::default()
    };
    let before = handle.stats();
    let Some((log, reference)) = traced else {
        // as in `search_jobs`, the set-ups after the first are spread over
        // the run; their servers are shut down at once
        let mut more_setups = || -> Result<(), String> {
            if setup_secs.len() < search_jobs::SETUP_REPS {
                let t = Instant::now();
                let extra = start_server(cfg.quick, &mut setups)?;
                setup_secs.push(t.elapsed().as_secs_f64());
                extra.shutdown();
            }
            Ok(())
        };
        // read before the first repeated set-up, as in `search_jobs`
        let mut first_peak = None;
        let rounds = timed_rounds_with(
            cfg.seconds,
            |r| round(r, cfg, &held, &handle, &mut cat, &mut outcome.errors),
            |_| {
                first_peak.get_or_insert_with(util::peak_rss_mb);
                more_setups()
            },
        )?;
        let peak_rss_mb = first_peak.unwrap_or_else(util::peak_rss_mb);
        for _ in 0..search_jobs::SETUP_REPS {
            more_setups()?;
        }
        let setup_s = util::median(&setup_secs);
        let hits = hit_ratio(&handle.stats(), &before);
        let checked = check_run(&rounds, &cat, &held, &handle, &mut outcome)?;
        let latencies: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect();
        let sum = |f: fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
        let requests = sum(|r| r.requests);
        let notes = &mut outcome.notes;
        notes.insert("latency_p99_us", util::percentile(&latencies, 0.99));
        notes.insert("prepared_hit_ratio", hits);
        notes.insert("batch_request_share", sum(|r| r.batches) / requests);
        notes.insert("inline_request_share", sum(|r| r.inline) / requests);
        notes.insert("items_per_request", sum(|r| r.predictions) / requests);
        let m = &mut outcome.metrics;
        m.insert("setup_s", setup_s);
        m.insert(
            "train_s",
            util::median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
        );
        m.insert("designs_per_s", median_rate(&rounds));
        m.insert("latency_p50_us", util::median(&latencies));
        m.insert("holdout_mape_latency_pct", checked.mape.latency_pct());
        m.insert("holdout_mape_resource_pct", checked.mape.resource_pct());
        m.insert("adrs_pct", util::mean(&checked.adrs_pct));
        m.insert("peak_rss_mb", peak_rss_mb);
        handle.shutdown();
        return Ok(outcome);
    };

    let since_us = obs::log::now_us();
    let vars_before = get_json(handle.addr(), "/debug/vars")?;
    let mut layers = Metrics::new();
    probe::collect_spans(true);
    let rounds = timed_rounds(cfg.seconds / 2.0, |r| {
        let out = round(
            TRACED_ROUNDS_FROM + r,
            cfg,
            &held,
            &handle,
            &mut cat,
            &mut outcome.errors,
        )?;
        if r == 0 {
            probe::cache_counts(&handle.stats(), &before, &mut layers);
        }
        Ok(out)
    })?;
    probe::collect_spans(false);
    let client_us = util::mean(
        &rounds
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    serve_layers(
        handle.addr(),
        since_us,
        &vars_before,
        log,
        client_us,
        &mut layers,
    )?;
    let checked = check_run(&rounds, &cat, &held, &handle, &mut outcome)?;
    outcome.attempted += reference.attempted;
    let m = &mut outcome.metrics;
    m.append(&mut layers);
    m.insert(
        "trace.overhead_pct",
        100.0 * (reference.designs_per_s / median_rate(&rounds) - 1.0),
    );
    m.insert("serve.latency_p99_us", reference.latency_p99_us);
    m.insert(
        "core.dataset.generate_s",
        util::mean(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
    );
    probe::training_spans(&setup_report, m);
    m.insert("hlsim.evaluate_us", util::mean(&checked.hlsim_us));
    let sources = lower_sources(&cat)?;
    let model_entry = handle
        .registry()
        .default_entry()
        .map_err(|e| e.to_string())?;
    let model = model_entry.session().model();
    let mut rng = Rng::derive(cfg.seed, &[0x7072_6f62]);
    let sample: Vec<probe::Design> = rng
        .sample(cat.designs.len(), PROBE_DESIGNS)
        .into_iter()
        .map(|i| {
            let d = &cat.designs[i];
            (Arc::clone(function_of(d, &held, &sources)), d.cfg.clone())
        })
        .collect();
    probe::probe_designs(model, &sample, m);
    let texts: Vec<&str> = cat.sources.iter().map(|s| s.text.as_str()).collect();
    probe::probe_sources(&texts, m)?;
    drop(model_entry);
    handle.shutdown();
    Ok(outcome)
}

/// Predictions served per second of a round's client phase, median over
/// the rounds.
fn median_rate(rounds: &[Round]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.predictions as f64 / r.client_s)
        .collect();
    util::median(&rates)
}

/// Counts the rounds' requests into `outcome` and checks what was served
/// against uncached predictions of the served model.
fn check_run(
    rounds: &[Round],
    cat: &Catalog,
    held: &Held,
    handle: &ServerHandle,
    outcome: &mut Outcome,
) -> Result<Checked, String> {
    for r in rounds {
        outcome.attempted += r.requests;
        outcome.failed += r.failed;
    }
    let model_entry = handle
        .registry()
        .default_entry()
        .map_err(|e| e.to_string())?;
    let sources = lower_sources(cat)?;
    Ok(check_served(
        cat,
        held,
        &sources,
        model_entry.session().model(),
        &mut outcome.errors,
    ))
}
