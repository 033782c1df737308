//! The two closed-loop workloads over a sealed store.
//!
//! * `ioc-hunt` — retrospective hunting from threat intelligence: half
//!   the jobs are OSCTI reports (mostly fresh texts, about a third
//!   word-for-word repeats of a recent one), half the analysts'
//!   reference TBQL queries of the four attack cases; two closed-loop
//!   clients.
//! * `explore-hunt` — broad analyst exploration: one closed-loop client
//!   cycling through a fixed mix of broad reads, two-pattern joins and a
//!   path query.
//!
//! Every job's output is checked against an untimed reference pass over
//! a single-shard store in `ExecMode::Unscheduled`, and jobs of the four
//! attack cases against the simulator's ground truth.

use crate::layers::Layers;
use crate::stats::{mix, rows_digest, spin, Fnv, Series};
use crate::{end_to_end, Outcome, RunOptions, Workload, CHUNK_EVENTS, SETUP_REPS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use threatraptor::audit::event::EventId;
use threatraptor::audit::sim::scenario::Scenario;
use threatraptor::engine::compile::compile_with_lint;
use threatraptor::prelude::*;
use threatraptor::service::{HuntJob, HuntServer, JobReport, ServerConfig};
use threatraptor::tbql::analyze::analyze;
use threatraptor::tbql::parser::parse_query;
use threatraptor::{synthesize, JsonValue, LogChunk, ShardedStore};
use threatraptor_bench::{all_cases, corpus};

/// Raw events generated for `ioc-hunt` (about 64k stored after CPR).
const IOC_RAW_EVENTS: usize = 100_000;
/// Raw events generated for `explore-hunt` (about 20k stored).
const EXPLORE_RAW_EVENTS: usize = 32_000;
/// A phase runs at least this many hunts, so `hunt_p90_ms` has ten
/// samples beyond it.
const MIN_HUNTS: u64 = 100;
/// Report jobs from this index on may repeat an earlier text.
const REPEAT_FROM: u64 = 64;
/// A repeated report copies one submitted at most this many jobs
/// earlier (well inside the synthesis cache's LRU capacity).
const REPEAT_WINDOW: u64 = 40;

/// The fixed `explore-hunt` mix, run in this order: broad single-pattern
/// reads with and without `distinct`, a `before`-ordered join on a
/// shared process, a shared-file write→read join, and a path query. Four
/// reads of about the same cost sit in the middle of the cost order, so
/// the median falls inside their latencies rather than on the gap
/// between two queries of different cost.
pub const EXPLORE_QUERIES: [&str; 9] = [
    "proc p connect ip i return distinct p, i",
    "proc p write file f return distinct p",
    "proc p read file f return p, f",
    "proc p read file f return distinct p, f",
    "proc p read file f return distinct f",
    "proc p read file f return distinct p",
    "proc p ~>(2~3)[read] file f return distinct p, f",
    "proc p read file f as e1 proc p write file g as e2 with e1 before e2 return distinct p, f, g",
    "proc p1 write file f as e1 proc p2 read f as e2 with e1 before e2 return distinct p1, f, p2",
];

/// What a job must return.
#[derive(Debug)]
struct Expected {
    /// Canonical TBQL the server must resolve the job to.
    tbql: String,
    /// Digest and length of the reference pass's sorted rows, filled in
    /// by [`JobMix::reference`] after the untraced phase (so the
    /// reference store stays out of `peak_rss_mb`).
    digest: u64,
    rows: usize,
    /// Ground-truth events, for the attack cases' queries.
    truth: Option<Vec<EventId>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tbql,
    FreshReport,
    RepeatReport,
}

#[derive(Debug)]
struct Job {
    kind: Kind,
    text: String,
    expect: usize,
}

/// A workload's job source: job `i` is a pure function of the seed.
#[derive(Debug)]
struct JobMix {
    workload: Workload,
    seed: u64,
    expected: Vec<Expected>,
    /// TBQL sources and their expectation.
    tbqls: Vec<(String, usize)>,
    /// Base report texts and their expectation.
    reports: Vec<(&'static str, usize)>,
    /// Hash of every query and report text, in order.
    query_set_hash: u64,
}

impl JobMix {
    /// Builds the mix: the job texts, the TBQL each must resolve to and
    /// the ground truth of the attack cases' queries.
    fn build(workload: Workload, seed: u64, scenario: &Scenario) -> JobMix {
        let mut expected: Vec<Expected> = Vec::new();
        let mut expect = |tbql: String, truth: Option<Vec<EventId>>| -> usize {
            if let Some(i) = expected.iter().position(|e| e.tbql == tbql) {
                if expected[i].truth.is_none() {
                    expected[i].truth = truth;
                }
                return i;
            }
            expected.push(Expected {
                tbql,
                digest: 0,
                rows: 0,
                truth,
            });
            expected.len() - 1
        };
        let canonical = |src: &str| print_query(&parse_query(src).expect("workload TBQL parses"));
        let mut tbqls = Vec::new();
        let mut reports = Vec::new();
        let mut hash = Fnv::default();
        match workload {
            Workload::ExploreHunt => {
                for q in EXPLORE_QUERIES {
                    hash.write(q.as_bytes());
                    tbqls.push((q.to_string(), expect(canonical(q), None)));
                }
            }
            _ => {
                let cases = all_cases();
                for case in &cases {
                    hash.write(case.reference_tbql.as_bytes());
                    let truth = scenario.ground_truth(case.kind.case_name());
                    let i = expect(canonical(case.reference_tbql), Some(truth));
                    tbqls.push((case.reference_tbql.to_string(), i));
                }
                for report in corpus() {
                    let extraction = ThreatExtractor::new().extract(report.text);
                    // A report that synthesizes nothing would make every
                    // job on it fail; the mix leaves such reports out.
                    let Ok(query) = synthesize(&extraction.graph) else {
                        continue;
                    };
                    hash.write(report.text.as_bytes());
                    let truth = cases
                        .iter()
                        .find(|c| c.report == report.text)
                        .map(|c| scenario.ground_truth(c.kind.case_name()));
                    reports.push((report.text, expect(print_query(&query), truth)));
                }
            }
        }
        JobMix {
            workload,
            seed,
            expected,
            tbqls,
            reports,
            query_set_hash: hash.finish(),
        }
    }

    /// The untimed reference pass: every expected query once, over a
    /// single-shard store (the server's store has many shards),
    /// unscheduled.
    fn reference(&mut self, scenario: &Scenario) {
        let store = AuditStore::ingest(&scenario.log, true);
        let engine = Engine::new(&store);
        for exp in &mut self.expected {
            let rows = engine
                .hunt_mode(&exp.tbql, ExecMode::Unscheduled)
                .expect("reference queries execute")
                .rows;
            exp.digest = rows_digest(&rows);
            exp.rows = rows.len();
        }
    }

    /// Jobs per full pass of the mix: a phase ends on a boundary.
    fn cycle(&self) -> u64 {
        match self.workload {
            Workload::ExploreHunt => self.tbqls.len() as u64,
            _ => 1,
        }
    }

    fn is_fresh_report(&self, i: u64) -> bool {
        let h = mix(self.seed, i);
        h & 1 == 1 && !(i >= REPEAT_FROM && (h >> 8).is_multiple_of(3))
    }

    /// The fresh report text of job `j`: a corpus report behind a
    /// preamble sentence unique to `j`, which leaves the synthesized
    /// query unchanged (checked on every job) but defeats the synthesis
    /// cache.
    fn fresh_report(&self, j: u64) -> (String, usize) {
        let (base, expect) = self.reports[(mix(self.seed, j) >> 24) as usize % self.reports.len()];
        (
            format!("Analyst note {j} was filed for this report. {base}"),
            expect,
        )
    }

    fn job(&self, i: u64) -> Job {
        let h = mix(self.seed, i);
        if self.workload == Workload::ExploreHunt || h & 1 == 0 {
            let (text, expect) = &self.tbqls[match self.workload {
                Workload::ExploreHunt => i as usize,
                _ => (h >> 1) as usize,
            } % self.tbqls.len()];
            return Job {
                kind: Kind::Tbql,
                text: text.clone(),
                expect: *expect,
            };
        }
        if self.is_fresh_report(i) {
            let (text, expect) = self.fresh_report(i);
            return Job {
                kind: Kind::FreshReport,
                text,
                expect,
            };
        }
        let back = 1 + (h >> 16) % REPEAT_WINDOW;
        let repeated = (0..i.saturating_sub(back) + 1)
            .rev()
            .find(|&j| self.is_fresh_report(j));
        let (kind, j) = match repeated {
            Some(j) => (Kind::RepeatReport, j),
            None => (Kind::FreshReport, i),
        };
        let (text, expect) = self.fresh_report(j);
        Job { kind, text, expect }
    }

    /// Checks what can be checked while the phase runs: the job
    /// succeeded, resolved to the expected TBQL, and (attack cases) hit
    /// the ground truth exactly. Returns the rows' digest and count for
    /// [`JobMix::check_rows`].
    fn check(
        &self,
        job: &Job,
        report: &JobReport,
        snapshot: &ShardedStore,
    ) -> Result<(u64, usize), String> {
        let exp = &self.expected[job.expect];
        let result = report
            .outcome
            .as_ref()
            .map_err(|e| format!("{:?} job failed: {e}", job.kind))?;
        if report.tbql.as_deref() != Some(exp.tbql.as_str()) {
            return Err(format!(
                "{:?} job resolved to {:?}, expected {:?}",
                job.kind, report.tbql, exp.tbql
            ));
        }
        if let Some(truth) = &exp.truth {
            let (p, r) = result.precision_recall(snapshot, truth);
            if (p, r) != (1.0, 1.0) {
                return Err(format!("precision/recall {p:.3}/{r:.3}: {}", exp.tbql));
            }
        }
        Ok((rows_digest(&result.rows), result.rows.len()))
    }

    /// Checks the rows of every job of a phase against the reference
    /// pass; returns the number of mismatches and notes on the first few.
    fn check_rows(&self, rows: &[(u64, usize, u64, usize)], notes: &mut Vec<String>) -> u64 {
        let mut failed = 0;
        for &(i, expect, digest, n) in rows {
            let exp = &self.expected[expect];
            if digest != exp.digest {
                failed += 1;
                if notes.len() < 5 {
                    notes.push(format!(
                        "job {i}: rows differ from the reference pass ({n} rows, reference {}): {}",
                        exp.rows, exp.tbql
                    ));
                }
            }
        }
        failed
    }
}

/// Raw log text → a sealed server ready to answer: parse, append (CPR,
/// auto-seals), seal the rest, take the first snapshot. Parse and append
/// times land in `layers`.
pub fn setup_sealed(raw: &str, layers: &mut Layers) -> (HuntServer, f64) {
    let started = Instant::now();
    let server = HuntServer::new(ServerConfig::default());
    let mut feed = LogFeed::by_events(raw, CHUNK_EVENTS);
    loop {
        let t = Instant::now();
        let Some(chunk) = feed.next() else { break };
        let chunk = chunk.expect("generated logs parse");
        layers.parse += t.elapsed();
        layers.parse_events += chunk.events.len() as u64;
        timed_append(&server, &chunk, layers);
    }
    server.seal();
    let _ = server.snapshot();
    (server, started.elapsed().as_secs_f64())
}

/// `HuntServer::append`, timed: sealing appends apart from the rest.
pub fn timed_append(server: &HuntServer, chunk: &LogChunk, layers: &mut Layers) {
    let t = Instant::now();
    let outcome = server.append(chunk);
    let elapsed = t.elapsed();
    if outcome.sealed > 0 {
        layers.sealing_append.push_ms(elapsed);
    } else {
        layers.append += elapsed;
        layers.append_events += chunk.events.len() as u64;
    }
}

/// One client's share of a phase.
#[derive(Debug, Default)]
struct ClientLog {
    hunts: Series,
    layers: Layers,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// `(job, expectation, rows digest, rows)` of each successful job.
    rows: Vec<(u64, usize, u64, usize)>,
    last_done: Option<Instant>,
}

/// A finished phase.
#[derive(Debug, Default)]
struct Phase {
    hunts: Series,
    hunts_per_s: f64,
    layers: Layers,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    rows: Vec<(u64, usize, u64, usize)>,
}

/// The benchmark's own calls into each layer for one job, on the job's
/// input, timed; `blocking` sums the ones on the job's path through the
/// server (extraction only when the report was fresh, parse/analyze/
/// compile only on a plan-cache miss).
fn trace_job(
    job: &Job,
    report: &JobReport,
    queue_wait: Duration,
    mix: &JobMix,
    server: &HuntServer,
    layers: &mut Layers,
) {
    let mut blocking = queue_wait;
    let tbql = match job.kind {
        Kind::Tbql => job.text.clone(),
        Kind::RepeatReport => mix.expected[job.expect].tbql.clone(),
        Kind::FreshReport => {
            let t = Instant::now();
            let extraction = ThreatExtractor::new().extract(&job.text);
            let extract = t.elapsed();
            let t = Instant::now();
            let query = synthesize(&extraction.graph);
            let synth = t.elapsed();
            layers.extract.push_ms(extract);
            layers.synthesize.push_us(synth);
            blocking += extract + synth;
            match query {
                Ok(q) => print_query(&q),
                Err(_) => return,
            }
        }
    };
    let t = Instant::now();
    let Ok(query) = parse_query(&tbql) else {
        return;
    };
    let parse = t.elapsed();
    let t = Instant::now();
    let Ok(analyzed) = analyze(&query) else {
        return;
    };
    let analyze_time = t.elapsed();
    let t = Instant::now();
    let Ok((compiled, _)) = compile_with_lint(&analyzed) else {
        return;
    };
    let compile = t.elapsed();
    layers.tbql_parse.push_us(parse);
    layers.analyze.push_us(analyze_time);
    layers.compile.push_us(compile);
    if !report.cache_hit {
        blocking += parse + analyze_time + compile;
    }
    let t = Instant::now();
    let snapshot = server.snapshot();
    let snap = t.elapsed();
    layers.snapshot.push_ms(snap);
    let ingest = server.config().ingest;
    let t = Instant::now();
    let result = ShardedEngine::with_threads(&snapshot, ingest.shard_threads)
        .execute(&compiled, ingest.mode);
    let execute = t.elapsed();
    if let Ok(result) = result {
        layers.record_execute(execute, &result);
    }
    blocking += snap + execute;
    layers.blocking.push_ms(blocking);
}

/// Runs the closed loop for `opts.seconds` (and at least [`MIN_HUNTS`]
/// jobs, ending on a whole pass of the mix), checking every job.
fn phase(
    opts: &RunOptions,
    mix: &JobMix,
    server: &HuntServer,
    clients: usize,
    traced: bool,
) -> Phase {
    let snapshot = server.snapshot();
    let cache_before = server.cache_stats();
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let deadline = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ClientLog::default();
                    // ordering: Relaxed — the counter only hands out
                    // distinct job indices and the flag only ends loops.
                    while !stop.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if started.elapsed() >= deadline
                            && i >= MIN_HUNTS
                            && i.is_multiple_of(mix.cycle())
                        {
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                        let job = mix.job(i);
                        let due = Instant::now();
                        spin(opts.inject_busy);
                        let submitted = Instant::now();
                        let request = match job.kind {
                            Kind::Tbql => HuntJob::tbql(job.text.as_str()),
                            _ => HuntJob::report(job.text.as_str()),
                        };
                        let report = server.submit(request).wait();
                        let done = Instant::now();
                        log.hunts.push_ms(done - due);
                        let queue_wait = (done - submitted).saturating_sub(report.elapsed);
                        log.layers.queue_wait.push_ms(queue_wait);
                        log.layers.job_exec.push_ms(report.elapsed);
                        log.last_done = Some(done);
                        log.attempted += 1;
                        match mix.check(&job, &report, &snapshot) {
                            Ok((digest, n)) => log.rows.push((i, job.expect, digest, n)),
                            Err(note) => {
                                log.failed += 1;
                                if log.notes.len() < 5 {
                                    log.notes.push(format!("job {i}: {note}"));
                                }
                            }
                        }
                        if traced {
                            trace_job(&job, &report, queue_wait, mix, server, &mut log.layers);
                        }
                    }
                    log
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut out = Phase::default();
    let mut last = started;
    for log in &logs {
        out.hunts.extend_from(&log.hunts);
        out.layers.merge(&log.layers);
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.notes.extend(log.notes.iter().cloned());
        out.rows.extend(log.rows.iter().copied());
        last = last.max(log.last_done.unwrap_or(started));
    }
    out.hunts_per_s = out.hunts.len() as f64 / (last - started).as_secs_f64().max(1e-9);
    let cache = server.cache_stats();
    out.layers.cache_hits = (cache.hits - cache_before.hits) as u64;
    out.layers.cache_misses = (cache.misses - cache_before.misses) as u64;
    out.layers.cache_evictions = (cache.evictions - cache_before.evictions) as u64;
    let status = server.status();
    out.layers.reduction_factor = status.reduction.factor();
    out.layers.sealed_shards = status.sealed_shards as f64;
    out
}

/// Runs `ioc-hunt` or `explore-hunt`.
pub fn run(opts: &RunOptions) -> Outcome {
    let (raw_events, clients) = match opts.workload {
        Workload::ExploreHunt => (EXPLORE_RAW_EVENTS, 1),
        _ => (IOC_RAW_EVENTS, 2),
    };
    let scenario = ScenarioBuilder::new()
        .seed(opts.seed)
        .attacks(&AttackKind::ALL)
        .target_events(raw_events)
        .build();
    let mut mix = JobMix::build(opts.workload, opts.seed, &scenario);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let (s, secs) = setup_sealed(&scenario.raw, &mut Layers::default());
        setups.push(secs);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let stored = server.snapshot().event_count();
    let mut untraced = phase(opts, &mix, &server, clients, false);
    let mut deliveries = untraced.hunts.clone();
    let e2e = end_to_end(
        &setups,
        &mut untraced.hunts,
        untraced.hunts_per_s,
        &mut deliveries,
    );
    drop(server);

    mix.reference(&scenario);
    let (mut attempted, mut notes) = (untraced.attempted, untraced.notes);
    let mut failed = untraced.failed + mix.check_rows(&untraced.rows, &mut notes);
    let per_layer = if opts.trace {
        let mut layers = Layers::default();
        let (server, _) = setup_sealed(&scenario.raw, &mut layers);
        let mut traced = phase(opts, &mix, &server, clients, true);
        layers.merge(&traced.layers);
        layers.reduction_factor = traced.layers.reduction_factor;
        layers.sealed_shards = traced.layers.sealed_shards;
        layers.cache_hits = traced.layers.cache_hits;
        layers.cache_misses = traced.layers.cache_misses;
        layers.cache_evictions = traced.layers.cache_evictions;
        attempted += traced.attempted;
        failed += traced.failed + mix.check_rows(&traced.rows, &mut notes);
        notes.extend(traced.notes);
        let headline = traced.hunts.percentile(50.0).unwrap_or(0.0);
        layers.metrics(headline, e2e[1].value)
    } else {
        Vec::new()
    };

    Outcome {
        fingerprint: vec![
            ("workload", JsonValue::Str(opts.workload.name().into())),
            ("seed", JsonValue::Num(opts.seed as f64)),
            ("seconds", JsonValue::Num(opts.seconds)),
            (
                "raw_events",
                JsonValue::Num(scenario.log.events.len() as f64),
            ),
            ("stored_events", JsonValue::Num(stored as f64)),
            (
                "query_set_hash",
                JsonValue::Str(format!("{:016x}", mix.query_set_hash)),
            ),
            ("loop", JsonValue::Str("closed".into())),
            ("clients", JsonValue::Num(clients as f64)),
            ("chunk_events", JsonValue::Num(CHUNK_EVENTS as f64)),
            ("setup_reps", JsonValue::Num(SETUP_REPS as f64)),
        ],
        end_to_end: e2e,
        per_layer,
        attempted,
        failed,
        notes,
    }
}
