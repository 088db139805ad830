//! The traced run's per-layer measurements.
//!
//! Two sources, both outside the program's code:
//!
//! * a **layer probe** that replays a seeded sample of the workload's own
//!   designs and sources through each layer's public entry point
//!   (`frontc::parse`, `hir::lower`, `split_hierarchy`, `GraphBuilder`,
//!   the feature functions, `HierarchicalModel::{prepare, predict_supers,
//!   predict_prepared}`) and times every call;
//! * the **run report** the program already emits (`obs` spans, the JSON
//!   that `QOR_REPORT` writes), read back in-process.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hier_hls_qor::cdfg::{GraphBuilder, GraphOptions};
use hier_hls_qor::hir::Function;
use hier_hls_qor::obs::Json;
use hier_hls_qor::pragma::PragmaConfig;
use hier_hls_qor::qor_core::{
    graph_aggregates, graph_to_gnn, loop_level_features, split_hierarchy, CacheStats,
    HierarchicalModel,
};
use hier_hls_qor::serve::json::{as_array, as_str, as_u64, field};
use hier_hls_qor::{frontc, hir, obs};

use crate::util::{mean, us_since};

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One design: a lowered function under a pragma configuration.
pub type Design = (Arc<Function>, PragmaConfig);

/// Times each front-half and forward layer on `designs`, one call at a
/// time on the calling thread. Per-design means; the inner forward is
/// `predict_supers − prepare` and the global forward is
/// `predict_prepared − inner forward`.
pub fn probe_designs(model: &HierarchicalModel, designs: &[Design], out: &mut Metrics) {
    if designs.is_empty() {
        return;
    }
    let opts = GraphOptions {
        max_nodes: model.options().graph_max_nodes,
    };
    let [mut split, mut build, mut annotate, mut nodes, mut prepare, mut supers, mut forward] =
        [0.0f64; 7];
    for (func, cfg) in designs {
        let t = Instant::now();
        let hierarchy = black_box(split_hierarchy(func, cfg));
        split += us_since(t);
        for inner in &hierarchy.inner {
            let t = Instant::now();
            let graph = GraphBuilder::new(func, cfg)
                .options(opts)
                .subgraph(inner.id.clone())
                .build();
            build += us_since(t);
            nodes += graph.num_nodes() as f64;
            let t = Instant::now();
            black_box((
                graph_to_gnn(&graph),
                loop_level_features(func, cfg, &inner.id, inner.pipelined),
                graph_aggregates(&graph),
            ));
            annotate += us_since(t);
        }
        let t = Instant::now();
        let prepared = model.prepare(Arc::clone(func), cfg.clone());
        prepare += us_since(t);
        let t = Instant::now();
        black_box(model.predict_supers(func, cfg));
        supers += us_since(t);
        let t = Instant::now();
        black_box(model.predict_prepared(&prepared));
        forward += us_since(t);
    }
    let n = designs.len() as f64;
    let inner_forward = (supers - prepare) / n;
    out.insert("core.hierarchy.split_us", split / n);
    out.insert("cdfg.build_us", build / n);
    out.insert("cdfg.nodes", nodes / n);
    out.insert("core.features.annotate_us", annotate / n);
    out.insert("core.model.prepare_us", prepare / n);
    out.insert("core.model.inner_forward_us", inner_forward);
    out.insert("core.model.global_forward_us", forward / n - inner_forward);
}

/// Times `frontc::parse` and `hir::lower` on each source.
pub fn probe_sources(sources: &[&str], out: &mut Metrics) -> Result<(), String> {
    let (mut parse, mut lower) = (Vec::new(), Vec::new());
    for src in sources {
        let t = Instant::now();
        let program = frontc::parse(src).map_err(|e| format!("probe parse: {e}"))?;
        parse.push(us_since(t));
        let t = Instant::now();
        black_box(hir::lower(&program).map_err(|e| format!("probe lower: {e}"))?);
        lower.push(us_since(t));
    }
    out.insert("frontc.parse_us", mean(&parse));
    out.insert("hir.lower_us", mean(&lower));
    Ok(())
}

/// Turns the program's span collection on or off: the run-time form of
/// what `QOR_REPORT` enables at start-up.
pub fn collect_spans(on: bool) {
    obs::test_support::force_collection(on);
}

/// Visits every span node of the report's forest.
fn walk<'a>(nodes: &'a [Json], visit: &mut impl FnMut(&'a Json)) {
    for node in nodes {
        visit(node);
        if let Some(children) = field(node, "children").and_then(as_array) {
            walk(children, visit);
        }
    }
}

fn spans(report: &Json) -> &[Json] {
    field(report, "spans").and_then(as_array).unwrap_or(&[])
}

fn dur_us(node: &Json) -> f64 {
    field(node, "dur_us").and_then(as_u64).unwrap_or(0) as f64
}

/// Mean duration in seconds of the spans called `name` whose `model`
/// attribute is `model` (any model when `None`); 0 when there are none.
fn span_mean_s(report: &Json, name: &str, model: Option<&str>) -> f64 {
    let mut durations = Vec::new();
    walk(spans(report), &mut |node| {
        let named = field(node, "name").and_then(as_str) == Some(name);
        let attr = field(node, "attrs")
            .and_then(|a| field(a, "model"))
            .and_then(as_str);
        if named && (model.is_none() || attr == model) {
            durations.push(dur_us(node) / 1e6);
        }
    });
    mean(&durations)
}

/// Mean self time in ms of the spans called `name`: duration minus the
/// time covered by their direct child spans.
pub fn span_self_ms(report: &Json, name: &str) -> f64 {
    let mut selfs = Vec::new();
    walk(spans(report), &mut |node| {
        if field(node, "name").and_then(as_str) == Some(name) {
            let children: f64 = field(node, "children")
                .and_then(as_array)
                .unwrap_or(&[])
                .iter()
                .map(dur_us)
                .sum();
            selfs.push((dur_us(node) - children) / 1e3);
        }
    });
    mean(&selfs)
}

/// The `GNN_p`/`GNN_np`/`GNN_g` training times from the report's
/// `train_inner`/`train_global` spans.
pub fn training_spans(report: &Json, out: &mut Metrics) {
    out.insert(
        "gnn.train_inner_p_s",
        span_mean_s(report, "train_inner", Some("GNN_p")),
    );
    out.insert(
        "gnn.train_inner_np_s",
        span_mean_s(report, "train_inner", Some("GNN_np")),
    );
    out.insert(
        "gnn.train_global_s",
        span_mean_s(report, "train_global", None),
    );
}

/// Prepared-cache and `incr` counts between two snapshots of the session
/// cache statistics, taken around the first traced round.
pub fn cache_counts(after: &CacheStats, before: &CacheStats, out: &mut Metrics) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    out.insert(
        "core.session.prepared_hit_ratio",
        hits / (hits + misses).max(1.0),
    );
    out.insert("incr.hits", (after.incr_hits - before.incr_hits) as f64);
    out.insert(
        "incr.recomputes",
        (after.incr_recomputes - before.incr_recomputes) as f64,
    );
    out.insert(
        "core.session.evictions",
        (after.evictions - before.evictions) as f64,
    );
}
