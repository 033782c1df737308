//! The recorded bench trajectory: a declarative suite of engine ×
//! workload cases whose measurements come out of the telemetry layer.
//!
//! Earlier experiment binaries (`exp_e1`..`exp_e11`) each hand-roll
//! their timing: `Instant::now()` pairs, ad-hoc percentile helpers,
//! bespoke table printing. This module replaces that for trajectory
//! tracking: every case records its per-hunt latency into a per-case
//! [`Registry`] histogram and derives **all** reported numbers from the
//! resulting [`MetricsSnapshot`] — the same snapshots
//! [`threatraptor_service::HuntServer::metrics`] serves — so the bench
//! numbers and the production metrics can never drift apart.
//!
//! The suite is the cross product of [`EngineKind`] (one shard, four
//! shards, streaming ingest, full event-driven server)
//! and a small set of [`Workload`]s. Results serialize to a
//! machine-readable JSON document (`schema: threatraptor-bench/v1`)
//! checked into the repo as `BENCH_<pr>.json`; [`diff`] renders the
//! trajectory against a previous record.
//!
//! Caveat: the container this runs in is scheduled on shared cores, so
//! absolute latencies are noisy — the recorded trajectory tracks shape
//! (relative engine cost, percentile spread), not absolute regressions.

use std::sync::Arc;
use std::time::Instant;
use threatraptor::{EngineError, ExecMode, HuntResult, ShardedEngine};
use threatraptor_audit::parser::ParsedLog;
use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
use threatraptor_audit::LogFeed;
use threatraptor_obs::{
    HistogramSummary, JsonValue, MetricsSnapshot, Registry, SampleValue, TraceSink,
};
use threatraptor_service::{
    FollowHunt, HuntServer, IngestConfig, PlanCache, ServerConfig, ServiceError,
};
use threatraptor_storage::{SealPolicy, ShardedStore, StreamingStore};

/// The current record's schema identifier.
pub const SCHEMA: &str = "threatraptor-bench/v1";
/// The PR this trajectory point belongs to.
pub const PR: u64 = 9;

/// Which execution stack a case drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// A one-shard [`ShardedStore`] under the [`ShardedEngine`].
    Single,
    /// A four-shard time-window [`ShardedStore`] under the
    /// [`ShardedEngine`].
    Sharded,
    /// A [`StreamingStore`] fed chunk-by-chunk, hunted via snapshots.
    Streaming,
    /// The full event-driven [`HuntServer`]: job queue + standing query.
    Server,
}

impl EngineKind {
    /// Every engine, in suite order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Single,
        EngineKind::Sharded,
        EngineKind::Streaming,
        EngineKind::Server,
    ];

    /// Stable label used in metrics and the JSON record.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Single => "single",
            EngineKind::Sharded => "sharded",
            EngineKind::Streaming => "streaming",
            EngineKind::Server => "server",
        }
    }
}

/// One declarative workload: a simulated scenario plus the hunts to run
/// over it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name used in metrics and the JSON record.
    pub name: &'static str,
    /// Simulator seed (the scenario is fully deterministic given it).
    pub seed: u64,
    /// Approximate raw event count to generate.
    pub target_events: usize,
    /// TBQL queries each engine executes.
    pub queries: &'static [&'static str],
    /// How many times the query list is repeated (warm-cache behavior is
    /// part of what the trajectory tracks).
    pub repeat: usize,
}

const HUNT_QUERIES: &[&str] = &[
    threatraptor_tbql::parser::FIG2_TBQL,
    "proc p read file f return distinct p, f",
    "proc p[\"%/bin/tar%\"] read file f return p, f",
    // `before` + e2's window give the DBM closure a tighter upper bound
    // for e1 than its (absent) window, so this hunt exercises the
    // feasible-range scan clamp — the suite's "pruned" column.
    "proc p read file f as e1 \
     proc p write file g as e2 window [0, 200000000] \
     with e1 before e2 return p, f, g",
];

/// The infeasible corpus: queries the static analyzer must reject at
/// compile time, before any row is scanned. Every engine case drives
/// these and records the refusals — the suite's lint/feasibility
/// column.
pub const INFEASIBLE_QUERIES: &[&str] = &[
    // Cyclic `before` ordering (E001).
    "proc p read file f as e1 proc p write file g as e2 \
     with e1 before e2, e2 before e1 return p",
    // Empty window (E001).
    "proc p read file f as e1 window [900, 100] return p, f",
    // Window + ordering conflict (E001): e2 must both end inside
    // [0, 100] and start after an event that ends at or after 200.
    "proc p read file f as e1 window [200, 300] \
     proc p write file g as e2 window [0, 100] \
     with e1 before e2 return p, f, g",
    // Contradictory filters on one variable (E002).
    "proc p[\"/bin/tar\"] read file f as e1 \
     proc p[\"/bin/gzip\"] write file g as e2 return p, f, g",
];

/// The declarative suite definition. `--smoke` shrinks scenario sizes
/// and repeats, not the case list: CI exercises every engine × workload
/// cell.
pub fn workloads(smoke: bool) -> Vec<Workload> {
    let scale = if smoke { 1 } else { 6 };
    vec![
        Workload {
            name: "leakage-small",
            seed: 42,
            target_events: 4_000 * scale,
            queries: HUNT_QUERIES,
            repeat: if smoke { 2 } else { 4 },
        },
        Workload {
            name: "all-attacks",
            seed: 7,
            target_events: 8_000 * scale,
            queries: HUNT_QUERIES,
            repeat: if smoke { 1 } else { 3 },
        },
    ]
}

/// One engine × workload measurement, extracted from the case's
/// [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// [`EngineKind::name`].
    pub engine: &'static str,
    /// [`Workload::name`].
    pub workload: &'static str,
    /// Raw events the scenario generated.
    pub events: usize,
    /// Hunts executed (query list × repeats).
    pub hunts: u64,
    /// Total matches across all hunts.
    pub matches: u64,
    /// Per-hunt latency (nanoseconds), from the case registry's
    /// `bench_hunt_ns` histogram.
    pub latency: HistogramSummary,
    /// Infeasible-corpus queries the static analyzer refused at compile
    /// time (from `bench_rejected_total`; every engine must refuse the
    /// whole corpus, so this equals [`INFEASIBLE_QUERIES`]'s length).
    pub rejected: u64,
    /// Rows excluded by DBM feasible-range clamping across all hunts
    /// (summed over `engine_rows_pruned_total{pattern}`; zero for
    /// engines that don't wire a registry into the scan path).
    pub rows_pruned: u64,
    /// Selected extra counters from the case snapshot (engine-specific:
    /// cache hits, deliveries, seals, ...), name → value.
    pub extra: Vec<(String, f64)>,
    /// Top-span attribution: the stage-latency series with the largest
    /// total time (`<family>/<stage>` → summed nanoseconds), worst
    /// first — where this case actually spent its hunts.
    pub profile: Vec<(String, u64)>,
}

/// How many top spans a case profile retains.
const PROFILE_TOP: usize = 5;

/// Extracts the top-span attribution from a case snapshot: every
/// `hunt_stage_ns` / `serve_stage_ns` series ranked by summed time.
fn profile_summary(snapshot: &MetricsSnapshot) -> Vec<(String, u64)> {
    let mut spans: Vec<(String, u64)> = snapshot
        .samples
        .iter()
        .filter(|s| s.name == "hunt_stage_ns" || s.name == "serve_stage_ns")
        .filter_map(|s| match &s.value {
            SampleValue::Histogram(h) => {
                let stage = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "stage")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("?");
                Some((format!("{}/{stage}", s.name), h.sum))
            }
            _ => None,
        })
        .collect();
    spans.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    spans.truncate(PROFILE_TOP);
    spans
}

fn scenario(w: &Workload) -> threatraptor_audit::sim::scenario::Scenario {
    ScenarioBuilder::new()
        .seed(w.seed)
        .attacks(&AttackKind::ALL)
        .target_events(w.target_events)
        .build()
}

fn case_labels(engine: EngineKind, w: &Workload) -> [(&'static str, &str); 2] {
    [("engine", engine.name()), ("workload", w.name)]
}

/// Extracts the [`CaseResult`] from a finished case's snapshot — the
/// single funnel every engine's numbers pass through.
fn extract(
    engine: EngineKind,
    w: &Workload,
    events: usize,
    snapshot: &MetricsSnapshot,
    latency_metric: &str,
    latency_labels: &[(&str, &str)],
    extra_names: &[&str],
) -> CaseResult {
    let labels = case_labels(engine, w);
    let latency = snapshot
        .histogram(latency_metric, latency_labels)
        .cloned()
        .unwrap_or_default();
    let hunts = snapshot
        .get("bench_hunts_total", &labels)
        .and_then(|s| match s.value {
            threatraptor_obs::SampleValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(latency.count);
    let matches = snapshot
        .get("bench_matches_total", &labels)
        .and_then(|s| match s.value {
            threatraptor_obs::SampleValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0);
    let extra = extra_names
        .iter()
        .filter_map(|name| {
            snapshot.get(name, &[]).map(|s| {
                let v = match &s.value {
                    threatraptor_obs::SampleValue::Counter(v) => *v as f64,
                    threatraptor_obs::SampleValue::Gauge(v) => *v as f64,
                    threatraptor_obs::SampleValue::Histogram(h) => h.count as f64,
                };
                (name.to_string(), v)
            })
        })
        .collect();
    let rejected = snapshot
        .get("bench_rejected_total", &labels)
        .and_then(|s| match s.value {
            threatraptor_obs::SampleValue::Counter(v) => Some(v),
            _ => None,
        })
        .unwrap_or(0);
    let rows_pruned = snapshot
        .samples
        .iter()
        .filter(|s| s.name == "engine_rows_pruned_total")
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    CaseResult {
        engine: engine.name(),
        workload: w.name,
        events,
        hunts,
        matches,
        latency,
        rejected,
        rows_pruned,
        extra,
        profile: profile_summary(snapshot),
    }
}

/// Runs the hunts of `w` against `hunt`, recording each execution into
/// the case registry (`bench_hunt_ns` / `bench_hunts_total` /
/// `bench_matches_total`, labeled by engine and workload) plus a
/// per-stage breakdown into `hunt_stage_ns` — the source of the case's
/// top-span profile.
fn drive_hunts<F>(registry: &Arc<Registry>, engine: EngineKind, w: &Workload, mut hunt: F)
where
    F: FnMut(&str) -> HuntResult,
{
    let labels = case_labels(engine, w);
    let latency = registry.histogram_labeled("bench_hunt_ns", &labels);
    let hunts = registry.counter_labeled("bench_hunts_total", &labels);
    let matches = registry.counter_labeled("bench_matches_total", &labels);
    let stages = TraceSink::new(Arc::clone(registry), "hunt_stage_ns");
    for _ in 0..w.repeat {
        for q in w.queries {
            let t = Instant::now();
            let result = hunt(q);
            latency.record_duration(t.elapsed());
            hunts.inc();
            matches.add(result.matches.len() as u64);
            result.stats.record_stages(&stages);
        }
    }
}

/// Drives the infeasible corpus at an engine, asserting every query is
/// refused at compile time and recording the refusals into
/// `bench_rejected_total` — the feasibility guardrail every case runs.
fn drive_rejections<F>(registry: &Arc<Registry>, engine: EngineKind, w: &Workload, mut rejected: F)
where
    F: FnMut(&str) -> bool,
{
    let counter = registry.counter_labeled("bench_rejected_total", &case_labels(engine, w));
    for q in INFEASIBLE_QUERIES {
        assert!(rejected(q), "static analysis must reject: {q}");
        counter.inc();
    }
}

/// The batch cases: one globally reduced log over `shards` time-window
/// shards, hunted by the scatter-gather executor.
fn run_batch(kind: EngineKind, shards: usize, w: &Workload, log: &ParsedLog) -> CaseResult {
    let registry = Arc::new(Registry::new());
    let store = ShardedStore::ingest(log, true, shards);
    let engine = ShardedEngine::new(&store).with_registry(&registry);
    drive_hunts(&registry, kind, w, |q| engine.hunt(q).expect("valid TBQL"));
    drive_rejections(&registry, kind, w, |q| {
        matches!(engine.hunt(q), Err(EngineError::Infeasible(_)))
    });
    let labels = case_labels(kind, w);
    extract(
        kind,
        w,
        log.events.len(),
        &registry.snapshot(),
        "bench_hunt_ns",
        &labels,
        &[],
    )
}

fn run_streaming(w: &Workload, raw: &str, log: &ParsedLog) -> CaseResult {
    let registry = Arc::new(Registry::new());
    let mut store = StreamingStore::new(true, SealPolicy::events(2_000));
    store.attach_metrics(&registry);
    for chunk in LogFeed::by_events(raw, 512) {
        store.append(&chunk.expect("well-formed log"));
    }
    // Hunts run against snapshots, exactly like the ingest service does.
    let snapshot = store.snapshot();
    let engine = ShardedEngine::new(&snapshot);
    drive_hunts(&registry, EngineKind::Streaming, w, |q| {
        engine.hunt(q).expect("valid TBQL")
    });
    drive_rejections(&registry, EngineKind::Streaming, w, |q| {
        matches!(engine.hunt(q), Err(EngineError::Infeasible(_)))
    });
    let labels = case_labels(EngineKind::Streaming, w);
    extract(
        EngineKind::Streaming,
        w,
        log.events.len(),
        &registry.snapshot(),
        "bench_hunt_ns",
        &labels,
        &[
            "storage_appends_total",
            "storage_seals_total",
            "storage_stored_events",
        ],
    )
}

fn run_server(w: &Workload, raw: &str, log: &ParsedLog) -> CaseResult {
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(2_000),
    )));
    // A standing query rides along so the snapshot carries follow-path
    // telemetry too.
    let (_alerts, _) = server
        .follow(threatraptor_tbql::parser::FIG2_TBQL)
        .expect("valid TBQL");
    for chunk in LogFeed::by_events(raw, 512) {
        server.append(&chunk.expect("well-formed log"));
    }
    let mut matches = 0u64;
    for _ in 0..w.repeat {
        for q in w.queries {
            // submit → wait: the job path stamps queue-wait, execution,
            // and end-to-end latency into the server registry itself.
            let result = server.hunt(q).expect("valid TBQL");
            matches += result.matches.len() as u64;
        }
    }
    assert!(server.wait_caught_up(std::time::Duration::from_secs(120)));
    drive_rejections(server.registry(), EngineKind::Server, w, |q| {
        matches!(server.hunt(q), Err(ServiceError::Infeasible(_)))
    });
    // The server's own end-to-end job latency IS the case latency: no
    // external stopwatch.
    let labels = case_labels(EngineKind::Server, w);
    server
        .registry()
        .counter_labeled("bench_matches_total", &labels)
        .add(matches);
    let snapshot = server.metrics();
    server.shutdown();
    extract(
        EngineKind::Server,
        w,
        log.events.len(),
        &snapshot,
        "job_latency_ns",
        &[("status", "ok")],
        &[
            "plan_cache_hits_total",
            "plan_cache_misses_total",
            "jobs_completed_total",
            "follow_deliveries_total",
            "follow_epochs_total",
            "storage_sealed_shards",
        ],
    )
}

/// The standing-query corpus: event-only hunts the incremental follow
/// path can carry. (Path queries fall back to full re-execution; that
/// behavior is pinned by `tests/follow_parity.rs`, not benchmarked.)
const STANDING_QUERIES: &[&str] = &[
    threatraptor_tbql::parser::FIG2_TBQL,
    "proc p read file f return distinct p, f",
    "proc p[\"%/bin/tar%\"] read file f return p, f",
];

/// Events appended between standing-query poll rounds. Small relative
/// to the workload's total so the sealed history grows well over 10×
/// across the run — the regime where flat-vs-linear separates.
const STANDING_CHUNK: usize = 500;

/// The `standing-queries` workload. Both follow cases share it so the
/// delta and oracle numbers are directly comparable.
fn standing_workload(smoke: bool) -> Workload {
    Workload {
        name: "standing-queries",
        seed: 11,
        target_events: if smoke { 6_000 } else { 30_000 },
        queries: STANDING_QUERIES,
        repeat: 1,
    }
}

/// Drives N concurrent standing queries under sustained chunked ingest,
/// polling every follow hunt after each appended chunk. `force_full`
/// selects the full-re-execution oracle (case `follow-full`) over the
/// incremental path (case `follow-delta`); the pair is the suite's
/// flat-vs-linear evidence. Per-poll latency comes from `bench_hunt_ns`
/// and per-poll scanned rows from diffing `follow_rows_scanned_total`
/// between rounds — both out of the case [`MetricsSnapshot`], like every
/// other case. The early/late mean scanned-rows-per-round land in
/// `extra` (`poll_rows_early` / `poll_rows_late`): flat for the delta
/// case, growing with the store for the oracle.
fn run_standing(w: &Workload, force_full: bool) -> CaseResult {
    let engine = if force_full {
        "follow-full"
    } else {
        "follow-delta"
    };
    let labels = [("engine", engine), ("workload", w.name)];
    let sc = scenario(w);
    let registry = Arc::new(Registry::new());
    let mut store = StreamingStore::new(true, SealPolicy::events(1_000));
    store.attach_metrics(&registry);
    store.append_batch(&sc.log.entities, &[]);

    let cache = PlanCache::new();
    let mut hunts: Vec<FollowHunt> = w
        .queries
        .iter()
        .map(|q| {
            let (plan, _) = cache.plan(q).expect("valid TBQL");
            let mut hunt = FollowHunt::new(plan, ExecMode::Scheduled, 1);
            if force_full {
                hunt = hunt.with_full_reexecution();
            }
            hunt.attach_metrics(&registry);
            hunt
        })
        .collect();

    let latency = registry.histogram_labeled("bench_hunt_ns", &labels);
    let hunts_total = registry.counter_labeled("bench_hunts_total", &labels);
    let matches_total = registry.counter_labeled("bench_matches_total", &labels);
    let rows_scanned = registry.counter("follow_rows_scanned_total");
    let mut round_rows = Vec::new();
    for batch in sc.log.events.chunks(STANDING_CHUNK) {
        store.append_batch(&[], batch);
        let snapshot = store.snapshot();
        let before = rows_scanned.get();
        for hunt in &mut hunts {
            let t = Instant::now();
            let delta = hunt.poll(&snapshot).expect("valid standing poll");
            latency.record_duration(t.elapsed());
            hunts_total.inc();
            matches_total.add(delta.new_matches as u64);
        }
        round_rows.push((rows_scanned.get() - before) as f64);
    }
    // Each hunt's cumulative stage breakdown feeds the case profile.
    let stages = TraceSink::new(Arc::clone(&registry), "hunt_stage_ns");
    for hunt in &hunts {
        if let Some(result) = hunt.result() {
            result.stats.record_stages(&stages);
        }
    }
    // The feasibility guardrail: infeasible queries must be refused at
    // plan time, before a standing query is ever registered.
    let rejected = registry.counter_labeled("bench_rejected_total", &labels);
    for q in INFEASIBLE_QUERIES {
        assert!(
            matches!(cache.plan(q), Err(EngineError::Infeasible(_))),
            "static analysis must reject: {q}"
        );
        rejected.inc();
    }

    // Flat-vs-linear: mean scanned rows per poll round over the first
    // and last quarter of the stream.
    let quarter = (round_rows.len() / 4).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let early = mean(&round_rows[..quarter]);
    let late = mean(&round_rows[round_rows.len() - quarter..]);

    let snapshot = registry.snapshot();
    let mut extra: Vec<(String, f64)> = vec![
        ("poll_rows_early".into(), early),
        ("poll_rows_late".into(), late),
        (
            "follow_partials_retained".into(),
            snapshot.gauge("follow_partials_retained").unwrap_or(0) as f64,
        ),
    ];
    for name in [
        "follow_rows_scanned_total",
        "follow_matches_total",
        "follow_delta_polls_total",
        "follow_delta_rows_total",
        "follow_full_fallback_total",
        "follow_invalidated_total",
        "follow_partials_aged_total",
        "follow_dedup_aged_total",
        "storage_seals_total",
    ] {
        if let Some(v) = snapshot.counter(name) {
            extra.push((name.into(), v as f64));
        }
    }
    let rows_pruned = snapshot
        .samples
        .iter()
        .filter(|s| s.name == "engine_rows_pruned_total")
        .map(|s| match s.value {
            SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    CaseResult {
        engine,
        workload: w.name,
        events: sc.log.events.len(),
        hunts: hunts_total.get(),
        matches: matches_total.get(),
        latency: snapshot
            .histogram("bench_hunt_ns", &labels)
            .cloned()
            .unwrap_or_default(),
        rejected: rejected.get(),
        rows_pruned,
        extra,
        profile: profile_summary(&snapshot),
    }
}

/// Runs one engine × workload cell.
pub fn run_case(engine: EngineKind, w: &Workload) -> CaseResult {
    let sc = scenario(w);
    match engine {
        EngineKind::Single => run_batch(engine, 1, w, &sc.log),
        EngineKind::Sharded => run_batch(engine, 4, w, &sc.log),
        EngineKind::Streaming => run_streaming(w, &sc.raw, &sc.log),
        EngineKind::Server => run_server(w, &sc.raw, &sc.log),
    }
}

/// Runs the whole suite, in deterministic order: the engine × workload
/// cross product, then the standing-query pair (incremental path vs.
/// full-re-execution oracle) over the shared `standing-queries`
/// workload.
pub fn run_suite(smoke: bool) -> Vec<CaseResult> {
    let mut out = Vec::new();
    for w in &workloads(smoke) {
        for engine in EngineKind::ALL {
            out.push(run_case(engine, w));
        }
    }
    let standing = standing_workload(smoke);
    out.push(run_standing(&standing, false));
    out.push(run_standing(&standing, true));
    out
}

/// Serializes suite results as the versioned bench record.
pub fn to_json(results: &[CaseResult], smoke: bool) -> JsonValue {
    let cases = results
        .iter()
        .map(|c| {
            JsonValue::Obj(vec![
                ("engine".into(), JsonValue::Str(c.engine.into())),
                ("workload".into(), JsonValue::Str(c.workload.into())),
                ("events".into(), JsonValue::Num(c.events as f64)),
                ("hunts".into(), JsonValue::Num(c.hunts as f64)),
                ("matches".into(), JsonValue::Num(c.matches as f64)),
                ("rejected".into(), JsonValue::Num(c.rejected as f64)),
                ("rows_pruned".into(), JsonValue::Num(c.rows_pruned as f64)),
                (
                    "latency_ns".into(),
                    JsonValue::Obj(vec![
                        ("count".into(), JsonValue::Num(c.latency.count as f64)),
                        ("sum".into(), JsonValue::Num(c.latency.sum as f64)),
                        ("p50".into(), JsonValue::Num(c.latency.p50 as f64)),
                        ("p90".into(), JsonValue::Num(c.latency.p90 as f64)),
                        ("p99".into(), JsonValue::Num(c.latency.p99 as f64)),
                        ("max".into(), JsonValue::Num(c.latency.max as f64)),
                    ]),
                ),
                (
                    "extra".into(),
                    JsonValue::Obj(
                        c.extra
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                            .collect(),
                    ),
                ),
                (
                    "profile".into(),
                    JsonValue::Obj(
                        c.profile
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("schema".into(), JsonValue::Str(SCHEMA.into())),
        ("pr".into(), JsonValue::Num(PR as f64)),
        ("smoke".into(), JsonValue::Bool(smoke)),
        ("cases".into(), JsonValue::Arr(cases)),
    ])
}

/// Validates a bench record against the `threatraptor-bench/v1` shape.
/// Returns a list of problems (empty = valid).
pub fn validate(doc: &JsonValue) -> Vec<String> {
    let mut problems = Vec::new();
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => {}
        Some(other) => problems.push(format!("unknown schema {other:?}")),
        None => problems.push("missing \"schema\"".into()),
    }
    if doc.get("pr").and_then(JsonValue::as_f64).is_none() {
        problems.push("missing numeric \"pr\"".into());
    }
    if doc.get("smoke").and_then(JsonValue::as_bool).is_none() {
        problems.push("missing boolean \"smoke\"".into());
    }
    let Some(cases) = doc.get("cases").and_then(JsonValue::as_array) else {
        problems.push("missing \"cases\" array".into());
        return problems;
    };
    if cases.is_empty() {
        problems.push("\"cases\" is empty".into());
    }
    for (i, case) in cases.iter().enumerate() {
        for key in ["engine", "workload"] {
            if case.get(key).and_then(JsonValue::as_str).is_none() {
                problems.push(format!("case {i}: missing string {key:?}"));
            }
        }
        for key in ["events", "hunts", "matches"] {
            if case.get(key).and_then(JsonValue::as_f64).is_none() {
                problems.push(format!("case {i}: missing numeric {key:?}"));
            }
        }
        // Since v8 records, every case carries the static-analysis
        // columns: infeasible queries rejected and rows pruned by the
        // DBM feasible-range clamp.
        for key in ["rejected", "rows_pruned"] {
            if case.get(key).and_then(JsonValue::as_f64).is_none() {
                problems.push(format!("case {i}: missing numeric {key:?}"));
            }
        }
        match case.get("latency_ns") {
            Some(lat) => {
                for key in ["count", "sum", "p50", "p90", "p99", "max"] {
                    if lat.get(key).and_then(JsonValue::as_f64).is_none() {
                        problems.push(format!("case {i}: latency_ns missing {key:?}"));
                    }
                }
                let count = lat.get("count").and_then(JsonValue::as_f64).unwrap_or(0.0);
                if count <= 0.0 {
                    problems.push(format!("case {i}: latency_ns.count must be > 0"));
                }
            }
            None => problems.push(format!("case {i}: missing \"latency_ns\"")),
        }
        // Since v7 records, every case carries its top-span profile:
        // an object of `<family>/<stage>` → summed nanoseconds.
        match case.get("profile") {
            Some(JsonValue::Obj(spans)) => {
                if spans.is_empty() {
                    problems.push(format!("case {i}: \"profile\" has no spans"));
                }
                for (k, v) in spans {
                    if v.as_f64().is_none() {
                        problems.push(format!("case {i}: profile span {k:?} not numeric"));
                    }
                }
            }
            Some(_) => problems.push(format!("case {i}: \"profile\" must be an object")),
            None => problems.push(format!("case {i}: missing \"profile\"")),
        }
    }
    problems
}

/// Human-readable trajectory diff: p50/p99 latency per case, current vs.
/// a previous record (matched on engine + workload; unmatched cases are
/// listed as new/dropped). `previous` may be any prior-PR record.
pub fn diff(current: &JsonValue, previous: &JsonValue) -> String {
    fn index(doc: &JsonValue) -> Vec<(String, &JsonValue)> {
        doc.get("cases")
            .and_then(JsonValue::as_array)
            .map(|cases| {
                cases
                    .iter()
                    .filter_map(|c| {
                        let engine = c.get("engine").and_then(JsonValue::as_str)?;
                        let workload = c.get("workload").and_then(JsonValue::as_str)?;
                        Some((format!("{engine}/{workload}"), c))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
    fn p(case: &JsonValue, q: &str) -> f64 {
        case.get("latency_ns")
            .and_then(|l| l.get(q))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    }
    let cur = index(current);
    let prev = index(previous);
    let prev_pr = previous
        .get("pr")
        .and_then(JsonValue::as_f64)
        .map(|v| format!("PR {v}"))
        .unwrap_or_else(|| "previous".into());
    let mut out = format!("trajectory vs {prev_pr} (latency ns; shape, not absolutes):\n");
    for (key, c) in &cur {
        match prev.iter().find(|(k, _)| k == key).map(|(_, p)| *p) {
            Some(old) => {
                let (c50, o50) = (p(c, "p50"), p(old, "p50"));
                let (c99, o99) = (p(c, "p99"), p(old, "p99"));
                let ratio = |new: f64, old: f64| {
                    if old > 0.0 {
                        format!("{:+.0}%", (new / old - 1.0) * 100.0)
                    } else {
                        "n/a".into()
                    }
                };
                out.push_str(&format!(
                    "  {key}: p50 {c50:.0} ({}) p99 {c99:.0} ({})\n",
                    ratio(c50, o50),
                    ratio(c99, o99)
                ));
            }
            None => out.push_str(&format!("  {key}: new (no previous record)\n")),
        }
    }
    for (key, _) in &prev {
        if !cur.iter().any(|(k, _)| k == key) {
            out.push_str(&format!("  {key}: dropped (present in {prev_pr} only)\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_definition_covers_every_engine() {
        let w = workloads(true);
        assert_eq!(w.len(), 2);
        assert_eq!(EngineKind::ALL.len(), 4);
        let names: Vec<&str> = EngineKind::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names, ["single", "sharded", "streaming", "server"]);
    }

    #[test]
    fn single_case_measures_through_the_registry() {
        let w = Workload {
            name: "tiny",
            seed: 42,
            target_events: 1_500,
            queries: &["proc p read file f return p"],
            repeat: 2,
        };
        let result = run_case(EngineKind::Single, &w);
        assert_eq!(result.hunts, 2, "repeat × queries");
        assert_eq!(result.latency.count, 2);
        assert!(result.latency.p50 > 0, "hunts take nonzero time");
        assert!(result.latency.p50 <= result.latency.p99);
        assert!(result.events > 0);
        // The feasibility guardrail drove the whole infeasible corpus.
        assert_eq!(result.rejected, INFEASIBLE_QUERIES.len() as u64);
        // Top-span attribution rides every case, worst span first.
        assert!(!result.profile.is_empty(), "case profile populated");
        assert!(result
            .profile
            .iter()
            .all(|(k, _)| k.starts_with("hunt_stage_ns/")));
        assert!(result.profile.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn standing_cases_separate_delta_from_full_reexecution() {
        let w = Workload {
            name: "standing-tiny",
            seed: 11,
            target_events: 5_000,
            queries: STANDING_QUERIES,
            repeat: 1,
        };
        let delta = run_standing(&w, false);
        let full = run_standing(&w, true);
        let get = |c: &CaseResult, k: &str| {
            c.extra
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| *v)
                .expect("extra present")
        };
        // Same workload, same deliveries.
        assert_eq!(delta.hunts, full.hunts);
        assert_eq!(delta.matches, full.matches);
        // Every poll of an event-only standing query runs incrementally;
        // the oracle never does.
        assert_eq!(get(&delta, "follow_delta_polls_total"), delta.hunts as f64);
        assert_eq!(get(&full, "follow_delta_polls_total"), 0.0);
        // Flat vs. linear: by the last quarter of the stream the oracle
        // re-scans the whole store each round while the delta case scans
        // rows proportional to the chunk, not the store.
        let (d_early, d_late) = (
            get(&delta, "poll_rows_early"),
            get(&delta, "poll_rows_late"),
        );
        let (f_early, f_late) = (get(&full, "poll_rows_early"), get(&full, "poll_rows_late"));
        assert!(
            f_late > f_early * 2.0,
            "oracle per-poll rows must grow with the store ({f_early} → {f_late})"
        );
        assert!(
            d_late < f_late / 2.0,
            "delta per-poll rows must stay well under the oracle's \
             (delta {d_early} → {d_late}, full {f_early} → {f_late})"
        );
        // Both cases serialize into a valid record.
        let doc = to_json(&[delta, full], true);
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
    }

    #[test]
    fn record_round_trips_and_validates() {
        let w = Workload {
            name: "tiny",
            seed: 42,
            target_events: 1_500,
            queries: &["proc p read file f return p"],
            repeat: 1,
        };
        let results = vec![
            run_case(EngineKind::Single, &w),
            run_case(EngineKind::Sharded, &w),
        ];
        let doc = to_json(&results, true);
        assert!(validate(&doc).is_empty(), "{:?}", validate(&doc));
        let reparsed = JsonValue::parse(&doc.pretty()).expect("valid JSON");
        assert!(validate(&reparsed).is_empty());
        // The diff against itself reports no new/dropped cases.
        let report = diff(&reparsed, &reparsed);
        assert!(report.contains("single/tiny"));
        assert!(!report.contains("dropped"));
        assert!(!report.contains("no previous record"));
    }

    #[test]
    fn validate_rejects_malformed_records() {
        let empty = JsonValue::Obj(vec![]);
        assert!(!validate(&empty).is_empty());
        let wrong = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str("other/v9".into())),
            ("pr".into(), JsonValue::Num(6.0)),
            ("smoke".into(), JsonValue::Bool(true)),
            ("cases".into(), JsonValue::Arr(vec![])),
        ]);
        let problems = validate(&wrong);
        assert!(problems.iter().any(|p| p.contains("unknown schema")));
        assert!(problems.iter().any(|p| p.contains("empty")));
    }
}
