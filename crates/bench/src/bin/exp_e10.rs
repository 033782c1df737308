//! E10 — streaming ingest throughput and hunt-under-ingest latency.
//!
//! The streaming layer (ISSUE 2) turns the batch store into a live one:
//! chunks append into an open window with incremental CPR, a seal policy
//! freezes immutable shards, and hunts run against snapshots while
//! ingestion continues. This experiment measures:
//!
//! 1. **ingest throughput** — raw events/s through append + auto-seal as
//!    a function of the seal threshold (which controls how many sealed
//!    shards the log ends up in), with and without CPR;
//! 2. **hunt-under-ingest latency** — snapshot + hunt cost of a server
//!    job at checkpoints during one continuous ingest, vs. the number of
//!    sealed shards at that moment (snapshot cost is bounded by the open
//!    window, so latency should track query cost, not stream length);
//! 3. **follow-mode polling** — cost of a standing query's poll when new
//!    data arrived vs. the free no-change fast path.
//!
//! `--smoke` runs a reduced configuration for CI.

use std::time::Instant;
use threatraptor::prelude::*;
use threatraptor_audit::LogFeed;
use threatraptor_bench::fmt;
use threatraptor_service::{IngestConfig, IngestService};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("== E10: streaming ingest & hunt-under-ingest ==\n");

    let target_events = if smoke { 8_000 } else { 60_000 };
    let chunk = 512;
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&AttackKind::ALL)
        .target_events(target_events)
        .build();
    let raw_events = scenario.log.events.len();
    println!(
        "scenario: {} raw events, {} entities | replay chunk: {} events\n",
        raw_events,
        scenario.log.entities.len(),
        chunk
    );

    // -- 1. ingest throughput vs seal threshold -------------------------
    let thresholds: &[usize] = if smoke {
        &[1_000, 4_000]
    } else {
        &[1_000, 4_000, 16_000, usize::MAX]
    };
    let mut rows = Vec::new();
    for &threshold in thresholds {
        for cpr in [true, false] {
            let policy = if threshold == usize::MAX {
                SealPolicy::manual()
            } else {
                SealPolicy::events(threshold)
            };
            let mut store = StreamingStore::new(cpr, policy);
            let t0 = Instant::now();
            for part in LogFeed::by_events(&scenario.raw, chunk) {
                store.append(&part.expect("well-formed log"));
            }
            let elapsed = t0.elapsed();
            let eps = raw_events as f64 / elapsed.as_secs_f64();
            rows.push(vec![
                if threshold == usize::MAX {
                    "manual".into()
                } else {
                    threshold.to_string()
                },
                if cpr { "on" } else { "off" }.into(),
                store.sealed_count().to_string(),
                store.open_len().to_string(),
                format!("{:.2}x", store.reduction().factor()),
                fmt::dur(elapsed),
                format!("{:.0}", eps),
            ]);
        }
    }
    println!(
        "{}",
        fmt::table(
            &[
                "seal every",
                "cpr",
                "sealed shards",
                "open events",
                "reduction",
                "ingest time",
                "events/s"
            ],
            &rows
        )
    );
    println!("(parse + incremental reduce + auto-seal; parsing dominates)\n");

    // -- 2. hunt-under-ingest latency vs sealed shard count -------------
    let threshold = if smoke { 1_000 } else { 4_000 };
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(threshold),
    )));
    let checkpoints = if smoke { 4 } else { 8 };
    let chunks: Vec<_> = LogFeed::by_events(&scenario.raw, chunk)
        .map(|c| c.expect("well-formed log"))
        .collect();
    let per_checkpoint = chunks.len().div_ceil(checkpoints);
    let mut rows = Vec::new();
    for group in chunks.chunks(per_checkpoint) {
        for part in group {
            server.append(part);
        }
        let status = server.status();
        let t0 = Instant::now();
        let result = server.hunt(threatraptor::FIG2_TBQL).unwrap();
        let hunt = t0.elapsed();
        rows.push(vec![
            status.total_events.to_string(),
            status.sealed_shards.to_string(),
            status.open_events.to_string(),
            result.matches.len().to_string(),
            fmt::dur(hunt),
        ]);
    }
    println!(
        "{}",
        fmt::table(
            &[
                "events stored",
                "sealed shards",
                "open events",
                "matches",
                "snapshot+hunt"
            ],
            &rows
        )
    );
    println!("shape check: latency tracks query cost, not total stream length.\n");

    // -- 3. follow-mode polling -----------------------------------------
    let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(threshold)));
    let (plan, _) = service.cache().plan(threatraptor::FIG2_TBQL).unwrap();
    let mut follow = FollowHunt::new(plan, ExecMode::Scheduled, 1);
    follow.poll(&service.snapshot()).unwrap();
    let mut data_polls = Vec::new();
    let mut fired_at_events = None;
    for part in &chunks {
        service.append(part);
        let t0 = Instant::now();
        let delta = follow.poll(&service.snapshot()).unwrap();
        data_polls.push(t0.elapsed());
        if !delta.is_empty() && fired_at_events.is_none() {
            fired_at_events = Some(service.status().reduction.before);
        }
    }
    let t0 = Instant::now();
    let idle = follow.poll(&service.snapshot()).unwrap();
    let idle_cost = t0.elapsed();
    assert!(idle.unchanged);
    let avg =
        data_polls.iter().sum::<std::time::Duration>() / u32::try_from(data_polls.len()).unwrap();
    println!(
        "follow-mode: {} polls, avg {} with new data | no-change poll {} | first alert after {} raw events | running matches: {}",
        follow.polls(),
        fmt::dur(avg),
        fmt::dur(idle_cost),
        fired_at_events.map_or("—".into(), |n| n.to_string()),
        follow.result().map_or(0, |r| r.matches.len()),
    );
}
