//! The `live-follow` workload: writes beside reads on a live system.
//!
//! Set-up preloads history and subscribes four standing queries. The
//! phase then runs open loop on two load threads: a feeder parses and
//! appends 512-event chunks on a fixed schedule, receiving standing-query
//! deliveries while it waits for the next due time; an analyst submits
//! the attack cases' reference TBQL hunts, one at a seeded random point
//! of each 80 ms slot.
//! Every latency is timed from the moment its chunk or hunt was due.
//!
//! Checks: each standing query's delivered match identities equal a
//! batch hunt over the final snapshot; each ad-hoc hunt's rows equal an
//! untimed reference pass (another seal policy, so another shard count;
//! `ExecMode::Unscheduled`) over some store prefix the hunt could have
//! seen; the final reference results hit the ground truth exactly.

use crate::layers::Layers;
use crate::sealed::timed_append;
use crate::stats::{mix, rows_digest, Fnv, Series};
use crate::{end_to_end, Outcome, RunOptions, CHUNK_EVENTS, SETUP_REPS};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use threatraptor::audit::sim::scenario::Scenario;
use threatraptor::prelude::*;
use threatraptor::service::{FollowSubscription, HuntJob, HuntServer, PlanCache, ServerConfig};
use threatraptor::{JsonValue, LogChunk, ShardedStore};
use threatraptor_bench::all_cases;

/// Raw events preloaded as history (80 chunks).
const HISTORY_RAW_EVENTS: usize = 80 * CHUNK_EVENTS;
/// Offered ingest rate, raw events per second (a chunk every 64 ms).
/// Chosen well below saturation: at twice this rate a 2-core host fell
/// behind within seconds and latencies grew with the backlog.
const INGEST_EVENTS_PER_S: f64 = 8_000.0;
/// Ad-hoc hunts: one in each slot of this length, at a point in the
/// slot drawn from the seed. A fixed count keeps the offered rate exact;
/// the random offsets make the hunts sample every phase of the chunk
/// cadence, which a fixed period would hit at the same few phases in
/// every run.
const HUNT_INTERVAL: Duration = Duration::from_millis(80);
/// The phase lasts at least long enough for 125 ad-hoc hunts, so
/// `hunt_p90_ms` has ten samples beyond it.
const MIN_PHASE: Duration = Duration::from_secs(10);
/// How long the feeder sleeps between delivery checks while it waits.
const RECEIVE_TICK: Duration = Duration::from_micros(200);
/// Seal policy of the verification replay (the server seals every 4,096
/// stored events, so the replay's stores have other shard counts).
const REPLAY_SEAL_EVENTS: usize = 16_384;

/// The ad-hoc hunts cycle through the attack cases' reference queries
/// in this order (indices into `all_cases()`). Password-crack, of middle
/// cost, takes half the slots so the median falls inside its latencies
/// rather than on the gap between two queries of different cost.
const AD_HOC_ROTATION: [usize; 6] = [1, 0, 1, 2, 1, 3];

/// Seeds the benign stream that follows the history.
const STREAM_SEED_SALT: u64 = 0x6c69_7665;

/// The standing queries (those of `exp_e11`).
pub const STANDING: [&str; 4] = [
    threatraptor::FIG2_TBQL,
    "proc p read file f return p, f",
    "proc p[\"%/bin/tar%\"] read file f return distinct p, f",
    "proc p write file f[\"%/tmp%\"] return distinct p, f",
];

/// Shifts every time in a raw log by `offset` ns — event start and end,
/// subject and object process start times — so a second simulated log
/// can follow the first. Processes are keyed by (pid, start time), so
/// the shifted log's processes are new ones; files are shared.
fn retime(raw: &str, offset: u64) -> String {
    let shift = |field: &str| {
        (field
            .parse::<u64>()
            .expect("generated timestamps are numbers")
            + offset)
            .to_string()
    };
    let mut out = String::with_capacity(raw.len() + raw.len() / 16);
    for line in raw.lines() {
        let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
        if fields.len() == 11 {
            for i in [0, 1, 5] {
                fields[i] = shift(&fields[i]);
            }
            if let Some(object) = fields[8].strip_prefix("P|") {
                // P|pid|exe|owner|pstart|cmdline
                let mut parts: Vec<String> = object.split('|').map(str::to_string).collect();
                parts[3] = shift(&parts[3]);
                fields[8] = format!("P|{}", parts.join("|"));
            }
        }
        out.push_str(&fields.join("\t"));
        out.push('\n');
    }
    out
}

/// A server with history preloaded and the standing queries subscribed,
/// plus the rest of the feed.
struct Live<'a> {
    server: HuntServer,
    subs: Vec<FollowSubscription>,
    /// Match identities delivered per standing query (the registration
    /// seed included).
    delivered: Vec<usize>,
    feed: LogFeed<'a>,
    /// Every chunk appended so far, in order (for the replay).
    chunks: Vec<LogChunk>,
}

fn setup_live<'a>(raw: &'a str, layers: &mut Layers) -> (Live<'a>, f64) {
    let started = Instant::now();
    let server = HuntServer::new(ServerConfig::default());
    let mut feed = LogFeed::by_events(raw, CHUNK_EVENTS);
    let mut chunks = Vec::new();
    for _ in 0..HISTORY_RAW_EVENTS / CHUNK_EVENTS {
        let t = Instant::now();
        let chunk = feed
            .next()
            .expect("history fits the log")
            .expect("generated logs parse");
        layers.parse += t.elapsed();
        layers.parse_events += chunk.events.len() as u64;
        timed_append(&server, &chunk, layers);
        chunks.push(chunk);
    }
    let _ = server.snapshot();
    let mut subs = Vec::new();
    let mut delivered = Vec::new();
    for q in STANDING {
        let (sub, seed) = server.follow(q).expect("standing queries compile");
        subs.push(sub);
        delivered.push(seed.new_matches);
    }
    let live = Live {
        server,
        subs,
        delivered,
        feed,
        chunks,
    };
    (live, started.elapsed().as_secs_f64())
}

/// One ad-hoc hunt: which reference query, the store prefix bounds it
/// could have seen (`[appended at submit, started at completion]`
/// chunks), and its rows' digest (`None` when it failed).
#[derive(Debug)]
struct AdHoc {
    query: usize,
    lo: usize,
    hi: usize,
    digest: Option<u64>,
}

#[derive(Debug, Default)]
struct LivePhase {
    hunts: Series,
    hunts_per_s: f64,
    deliveries: Series,
    layers: Layers,
    ad_hoc: Vec<AdHoc>,
    chunks_appended: usize,
}

/// Receives every pending delivery; latency runs from the due time of
/// the last chunk whose append could have produced it.
fn drain(
    server: &HuntServer,
    subs: &[FollowSubscription],
    delivered: &mut [usize],
    log: &[(u64, Instant)],
    out: &mut LivePhase,
) {
    for (i, sub) in subs.iter().enumerate() {
        while let Ok(event) = sub.try_recv() {
            let now = Instant::now();
            delivered[i] += event.delta.new_matches;
            let current = server.ingest().epoch();
            out.layers
                .epoch_lag
                .push(current.saturating_sub(event.epoch) as f64);
            let idx = log.partition_point(|(epoch, _)| *epoch <= event.epoch);
            if idx > 0 {
                out.deliveries.push_ms(now - log[idx - 1].1);
            }
        }
    }
}

/// Benchmark-owned standing queries, polled on each epoch's snapshot in
/// the traced phase.
fn own_follows(server: &HuntServer) -> Vec<FollowHunt> {
    let cache = PlanCache::new();
    let ingest = server.config().ingest;
    let snapshot = server.snapshot();
    STANDING
        .iter()
        .map(|q| {
            let (plan, _) = cache.plan(q).expect("standing queries compile");
            let mut hunt = FollowHunt::new(plan, ingest.mode, ingest.shard_threads);
            hunt.poll(&snapshot).expect("seed poll");
            hunt
        })
        .collect()
}

/// The traced phase's tracing thread: on every epoch it takes its own
/// snapshot and polls its own copies of the standing queries — the
/// dispatcher's work, timed from outside. `blocking` gets each epoch's
/// snapshot-plus-polls time.
fn trace_epochs(server: &HuntServer, mut own: Vec<FollowHunt>, feeding: &AtomicBool) -> Layers {
    let mut layers = Layers::default();
    let mut last = server.ingest().epoch();
    while feeding.load(Ordering::SeqCst) {
        let current = server
            .ingest()
            .wait_epoch_newer(last, Duration::from_millis(50));
        if current == last {
            continue;
        }
        last = current;
        let t = Instant::now();
        let snapshot = server.snapshot();
        let mut path = t.elapsed();
        layers.snapshot.push_ms(path);
        for hunt in &mut own {
            let t = Instant::now();
            let delta = hunt.poll(&snapshot).expect("standing poll");
            let poll = t.elapsed();
            path += poll;
            if delta.unchanged {
                continue;
            }
            layers.follow_poll.push_ms(poll);
            layers.polls += 1;
            match delta.delta {
                Some(d) if d.fresh_from > 0 => {
                    layers.delta_rows += (d.fresh_rows + d.carry_rows) as u64
                }
                _ => layers.full_fallback_polls += 1,
            }
        }
        layers.blocking.push_ms(path);
    }
    layers
}

/// Due times of the ad-hoc hunts within a phase: one at a seeded
/// uniform offset inside each [`HUNT_INTERVAL`] slot.
fn hunt_schedule(seed: u64, phase: Duration) -> Vec<Duration> {
    let slots = (phase.as_secs_f64() / HUNT_INTERVAL.as_secs_f64()) as u32;
    (0..slots)
        .map(|k| {
            // A uniform draw in [0, 1) from the top 53 bits.
            let u = (mix(seed ^ 0x6875_6e74, u64::from(k)) >> 11) as f64 / (1u64 << 53) as f64;
            HUNT_INTERVAL * k + HUNT_INTERVAL.mul_f64(u)
        })
        .collect()
}

fn phase(live: &mut Live, seed: u64, seconds: Duration, traced: bool) -> LivePhase {
    let chunk_interval = Duration::from_secs_f64(CHUNK_EVENTS as f64 / INGEST_EVENTS_PER_S);
    let chunks_due = (seconds.as_secs_f64() / chunk_interval.as_secs_f64()) as u32;
    let hunts_due = hunt_schedule(seed, seconds);
    let Live {
        server,
        subs,
        delivered,
        feed,
        chunks,
    } = live;
    let server: &HuntServer = server;
    let own = if traced {
        own_follows(server)
    } else {
        Vec::new()
    };
    let feeding = AtomicBool::new(true);
    let started_appending = AtomicUsize::new(chunks.len());
    let appended = AtomicUsize::new(chunks.len());
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut out = LivePhase::default();
    let (hunts, ad_hoc, analyst_layers, last_done) = std::thread::scope(|scope| {
        let analyst = scope.spawn(|| {
            let mut hunts = Series::default();
            let mut layers = Layers::default();
            let mut ad_hoc = Vec::new();
            let refs: Vec<&str> = all_cases().iter().map(|c| c.reference_tbql).collect();
            let mut last_done = t0;
            for (k, offset) in hunts_due.iter().enumerate() {
                let due = t0 + *offset;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let query = AD_HOC_ROTATION[k % AD_HOC_ROTATION.len()];
                // ordering: SeqCst — the bounds bracket the snapshot the
                // worker takes between these two loads.
                let lo = appended.load(Ordering::SeqCst);
                let submitted = Instant::now();
                let report = server.submit(HuntJob::tbql(refs[query])).wait();
                let done = Instant::now();
                let hi = started_appending.load(Ordering::SeqCst);
                hunts.push_ms(done - due);
                let queue_wait = (done - submitted).saturating_sub(report.elapsed);
                layers.queue_wait.push_ms(queue_wait);
                layers.job_exec.push_ms(report.elapsed);
                last_done = done;
                ad_hoc.push(AdHoc {
                    query,
                    lo,
                    hi,
                    digest: report.outcome.ok().map(|r| rows_digest(&r.rows)),
                });
            }
            (hunts, ad_hoc, layers, last_done)
        });

        let tracer = traced.then(|| scope.spawn(|| trace_epochs(server, own, &feeding)));

        // The feeder, on this thread.
        let mut log: Vec<(u64, Instant)> = Vec::new();
        for i in 0..chunks_due {
            let due = t0 + chunk_interval * i;
            let late = loop {
                drain(server, subs, delivered, &log, &mut out);
                let now = Instant::now();
                if now >= due {
                    break now - due;
                }
                std::thread::sleep((due - now).min(RECEIVE_TICK));
            };
            out.layers.late.push_ms(late);
            let t = Instant::now();
            let Some(chunk) = feed.next() else { break };
            let chunk = chunk.expect("generated logs parse");
            let parse = t.elapsed();
            out.layers.parse += parse;
            out.layers.parse_events += chunk.events.len() as u64;
            started_appending.fetch_add(1, Ordering::SeqCst);
            log.push((server.ingest().epoch() + 1, due));
            let t = Instant::now();
            timed_append(server, &chunk, &mut out.layers);
            let append = t.elapsed();
            appended.fetch_add(1, Ordering::SeqCst);
            chunks.push(chunk);
            out.chunks_appended += 1;
            out.layers.feed_path.push_ms(late + parse + append);
        }
        feeding.store(false, Ordering::SeqCst);
        // Backlog when the schedule ends: epochs the dispatcher has not
        // fanned out yet.
        out.layers.backlog_epochs =
            server.metrics().gauge("dispatcher_epoch_lag").unwrap_or(0) as f64;
        let deadline = Instant::now() + Duration::from_secs(60);
        while !(server.wait_caught_up(Duration::ZERO)
            && subs.iter().all(|s| s.receiver().is_empty()))
            && Instant::now() < deadline
        {
            drain(server, subs, delivered, &log, &mut out);
            std::thread::sleep(RECEIVE_TICK);
        }
        drain(server, subs, delivered, &log, &mut out);
        if let Some(tracer) = tracer {
            out.layers.merge(&tracer.join().expect("tracer thread"));
        }
        analyst.join().expect("analyst thread")
    });
    out.hunts_per_s = hunts.len() as f64 / (last_done - t0).as_secs_f64().max(1e-9);
    out.hunts = hunts;
    out.ad_hoc = ad_hoc;
    out.layers.merge(&analyst_layers);
    let status = server.status();
    out.layers.reduction_factor = status.reduction.factor();
    out.layers.sealed_shards = status.sealed_shards as f64;
    out
}

/// Distinct match identities in a result: bindings plus each witness's
/// CPR run identity (entity pair, op, run start) — what follow delivery
/// is exactly-once over (as in `exp_e11`).
fn identity_count(result: &HuntResult, store: &ShardedStore) -> usize {
    let keys: HashSet<String> = result
        .matches
        .iter()
        .map(|m| {
            let mut bindings: Vec<(&str, u32)> = m
                .bindings
                .iter()
                .map(|(v, id)| (v.as_str(), id.0))
                .collect();
            bindings.sort();
            let mut patterns: Vec<String> = m
                .events
                .iter()
                .map(|(pattern, positions)| {
                    let witnesses: Vec<String> = positions
                        .iter()
                        .map(|&p| {
                            let e = store.event_at(p);
                            format!("{}>{}:{:?}@{}", e.subject.0, e.object.0, e.op, e.start)
                        })
                        .collect();
                    format!("{pattern}={}", witnesses.join(","))
                })
                .collect();
            patterns.sort();
            format!("{bindings:?}|{patterns:?}")
        })
        .collect();
    keys.len()
}

/// Checks one phase; returns (attempted, failed, notes).
fn check(live: &Live, phase: &LivePhase, scenario: &Scenario) -> (u64, u64, Vec<String>) {
    let mut attempted = (phase.ad_hoc.len() + phase.chunks_appended) as u64;
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut fail = |note: String, failed: &mut u64| {
        *failed += 1;
        if notes.len() < 5 {
            notes.push(note);
        }
    };
    let last = live.server.snapshot();
    for (i, q) in STANDING.iter().enumerate() {
        attempted += 1;
        let batch = ShardedEngine::new(&last)
            .hunt(q)
            .expect("standing queries run");
        let want = identity_count(&batch, &last);
        if live.delivered[i] != want {
            fail(
                format!(
                    "standing query {i}: delivered {} identities, batch has {want}",
                    live.delivered[i]
                ),
                &mut failed,
            );
        }
    }

    // Each reference query's rows can only change at chunks holding an
    // event of one of its final matches: evaluate the reference pass at
    // those prefix lengths only.
    let cases = all_cases();
    let mut boundaries: Vec<BTreeSet<usize>> = Vec::new();
    for case in &cases {
        attempted += 1;
        let batch = ShardedEngine::new(&last)
            .hunt(case.reference_tbql)
            .expect("reference queries run");
        let truth = scenario.ground_truth(case.kind.case_name());
        let (p, r) = batch.precision_recall(&last, &truth);
        if (p, r) != (1.0, 1.0) {
            fail(
                format!("{}: final precision/recall {p:.3}/{r:.3}", case.name),
                &mut failed,
            );
        }
        let mut b: BTreeSet<usize> = batch
            .matched_event_ids(&last)
            .into_iter()
            .map(|id| id.0 as usize / CHUNK_EVENTS + 1)
            .collect();
        b.insert(0);
        boundaries.push(b);
    }
    // (query, prefix length) pairs the ad-hoc hunts need.
    let candidates = |h: &AdHoc| -> Vec<usize> {
        let b = &boundaries[h.query];
        let floor = b.range(..=h.lo).next_back().copied().unwrap_or(0);
        let later = (h.hi > h.lo).then(|| b.range(h.lo + 1..=h.hi).copied());
        std::iter::once(floor)
            .chain(later.into_iter().flatten())
            .collect()
    };
    let mut needed: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for h in &phase.ad_hoc {
        for k in candidates(h) {
            needed.entry(k).or_default().insert(h.query);
        }
    }
    let mut reference: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut replay = StreamingStore::new(true, SealPolicy::events(REPLAY_SEAL_EVENTS));
    let mut appended = 0;
    for (&k, queries) in &needed {
        while appended < k {
            replay.append(&live.chunks[appended]);
            appended += 1;
        }
        let snapshot = replay.snapshot();
        for &q in queries {
            let digest = if k == 0 {
                rows_digest(&[])
            } else {
                let rows = ShardedEngine::with_threads(&snapshot, 1)
                    .hunt_mode(cases[q].reference_tbql, ExecMode::Unscheduled)
                    .expect("reference queries run")
                    .rows;
                rows_digest(&rows)
            };
            reference.insert((q, k), digest);
        }
    }
    for (n, h) in phase.ad_hoc.iter().enumerate() {
        let ok = h.digest.is_some_and(|d| {
            candidates(h)
                .into_iter()
                .any(|k| reference.get(&(h.query, k)) == Some(&d))
        });
        if !ok {
            fail(
                format!(
                    "ad-hoc hunt {n} ({}): rows match no reference prefix in [{}, {}] chunks{}",
                    cases[h.query].name,
                    h.lo,
                    h.hi,
                    if h.digest.is_none() {
                        " (job failed)"
                    } else {
                        ""
                    }
                ),
                &mut failed,
            );
        }
    }
    (attempted, failed, notes)
}

/// Runs `live-follow`.
pub fn run(opts: &RunOptions) -> Outcome {
    let seconds = Duration::from_secs_f64(opts.seconds).max(MIN_PHASE);
    // Enough log for the history plus the whole schedule, with slack.
    let live_events = (INGEST_EVENTS_PER_S * seconds.as_secs_f64()) as usize;
    // The history holds all four attacks; the stream that follows it is
    // benign, so the ad-hoc hunts find the same rows (and cost about the
    // same) all phase long, whatever the seed puts where.
    let scenario = ScenarioBuilder::new()
        .seed(opts.seed)
        .attacks(&AttackKind::ALL)
        .target_events(HISTORY_RAW_EVENTS)
        .build();
    let stream = ScenarioBuilder::new()
        .seed(opts.seed ^ STREAM_SEED_SALT)
        .no_attacks()
        .target_events(live_events + 4 * CHUNK_EVENTS)
        .build();
    let history_end = scenario.log.events.iter().map(|e| e.end).max().unwrap_or(0);
    let raw = scenario.raw.clone() + &retime(&stream.raw, history_end + 1_000_000_000);
    let raw_events = scenario.log.events.len() + stream.log.events.len();

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let (l, secs) = setup_live(&raw, &mut Layers::default());
        setups.push(secs);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let mut untraced = phase(&mut live, opts.seed, seconds, false);
    let e2e = end_to_end(
        &setups,
        &mut untraced.hunts,
        untraced.hunts_per_s,
        &mut untraced.deliveries,
    );
    let stored = live.server.snapshot().event_count();
    let (mut attempted, mut failed, mut notes) = check(&live, &untraced, &scenario);
    drop(live);

    let per_layer = if opts.trace {
        let mut layers = Layers::default();
        let (mut live, _) = setup_live(&raw, &mut layers);
        let mut traced = phase(&mut live, opts.seed, seconds, true);
        let (a, f, n) = check(&live, &traced, &scenario);
        attempted += a;
        failed += f;
        notes.extend(n);
        layers.merge(&traced.layers);
        layers.reduction_factor = traced.layers.reduction_factor;
        layers.sealed_shards = traced.layers.sealed_shards;
        layers.backlog_epochs = traced.layers.backlog_epochs;
        let headline = traced.deliveries.percentile(50.0).unwrap_or(0.0);
        layers.metrics(headline, e2e[4].value)
    } else {
        Vec::new()
    };

    let mut hash = Fnv::default();
    for q in STANDING {
        hash.write(q.as_bytes());
    }
    for case in all_cases() {
        hash.write(case.reference_tbql.as_bytes());
    }
    Outcome {
        fingerprint: vec![
            ("workload", JsonValue::Str(opts.workload.name().into())),
            ("seed", JsonValue::Num(opts.seed as f64)),
            ("seconds", JsonValue::Num(seconds.as_secs_f64())),
            ("raw_events", JsonValue::Num(raw_events as f64)),
            (
                "history_raw_events",
                JsonValue::Num(HISTORY_RAW_EVENTS as f64),
            ),
            ("stored_events", JsonValue::Num(stored as f64)),
            (
                "query_set_hash",
                JsonValue::Str(format!("{:016x}", hash.finish())),
            ),
            ("loop", JsonValue::Str("open".into())),
            ("offered_events_per_s", JsonValue::Num(INGEST_EVENTS_PER_S)),
            (
                "offered_hunts_per_s",
                JsonValue::Num(1.0 / HUNT_INTERVAL.as_secs_f64()),
            ),
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
