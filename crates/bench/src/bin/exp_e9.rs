//! E9 — service-layer hunt throughput vs. shards and workers.
//!
//! The paper's system executes one hunt at a time; the hunt server runs
//! many concurrently over a sealed store with a shared compiled-plan
//! cache. This experiment measures:
//!
//! 1. **worker scaling** — throughput (hunts/s) of a fixed mixed batch as
//!    the server's worker pool grows from 1 to the core count
//!    (throughput must not degrade as workers are added, and improves
//!    monotonically on multi-core hosts);
//! 2. **shard scaling** — single-hunt latency as the shard count grows
//!    with all-core shard fan-out (per-pattern scatter-gather);
//! 3. **plan-cache effect** — the same batch with a cold vs. warm cache.

use std::time::Instant;
use threatraptor::prelude::*;
use threatraptor::JobReport;
use threatraptor_bench::{all_cases, fmt};
use threatraptor_storage::ShardedStore;

/// A mixed job batch: every attack case, hunted both from the analyst
/// query and from the raw OSCTI report, repeated to `len` jobs.
fn mixed_batch(len: usize) -> Vec<HuntJob> {
    let cases = all_cases();
    let mut jobs = Vec::with_capacity(len);
    for i in 0..len {
        let case = &cases[i % cases.len()];
        if (i / cases.len()).is_multiple_of(2) {
            jobs.push(HuntJob::tbql(case.reference_tbql));
        } else {
            jobs.push(HuntJob::report(case.report));
        }
    }
    jobs
}

/// Submits every job, then waits for each handle in submission order.
fn run_batch(server: &HuntServer, jobs: Vec<HuntJob>) -> Vec<JobReport> {
    let handles: Vec<_> = jobs.into_iter().map(|job| server.submit(job)).collect();
    handles.iter().map(|handle| handle.wait()).collect()
}

fn main() {
    println!("== E9: concurrent hunt throughput over a sharded store ==\n");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&AttackKind::ALL)
        .target_events(60_000)
        .build();

    // -- 1. worker scaling over the sealed store ------------------------
    let raptor = ThreatRaptor::from_parsed(&scenario.log, true);
    let batch_len = 64;
    println!(
        "store: {} events | batch: {} mixed jobs (TBQL + OSCTI reports)\n",
        raptor.store().event_count(),
        batch_len
    );

    let mut worker_counts = vec![1usize];
    let mut w = 2;
    while w < cores {
        worker_counts.push(w);
        w *= 2;
    }
    if cores > 1 {
        worker_counts.push(cores);
    }

    let mut rows = Vec::new();
    let mut base = None;
    for &workers in &worker_counts {
        let server = raptor.service(ServerConfig::default().workers(workers));
        // Warm the caches once so every configuration measures execution,
        // not first-touch compilation.
        run_batch(&server, mixed_batch(batch_len));
        let t0 = Instant::now();
        let reports = run_batch(&server, mixed_batch(batch_len));
        let elapsed = t0.elapsed();
        assert!(reports.iter().all(|r| r.outcome.is_ok()));
        let hps = batch_len as f64 / elapsed.as_secs_f64();
        let speedup = *base.get_or_insert(hps);
        rows.push(vec![
            workers.to_string(),
            fmt::dur(elapsed),
            format!("{hps:.1}"),
            format!("{:.2}x", hps / speedup),
        ]);
    }
    println!(
        "{}",
        fmt::table(&["workers", "batch time", "hunts/s", "speedup"], &rows)
    );
    println!("shape check: hunts/s should rise monotonically up to the core count ({cores}).\n");

    // -- 2. shard scaling for one hunt with all-core fan-out ------------
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8, 16] {
        let store = ShardedStore::ingest(&scenario.log, true, shards);
        let engine = ShardedEngine::new(&store);
        engine.hunt(threatraptor::FIG2_TBQL).unwrap();
        let best = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let r = engine.hunt(threatraptor::FIG2_TBQL).unwrap();
                assert!(!r.is_empty());
                t0.elapsed()
            })
            .min()
            .unwrap();
        rows.push(vec![shards.to_string(), fmt::dur(best)]);
    }
    println!(
        "{}",
        fmt::table(&["shards", "single-hunt latency (best of 3)"], &rows)
    );

    // -- 3. plan-cache effect -------------------------------------------
    let server = raptor.service(ServerConfig::default().workers(cores));
    let t0 = Instant::now();
    run_batch(&server, mixed_batch(batch_len));
    let cold = t0.elapsed();
    let t0 = Instant::now();
    run_batch(&server, mixed_batch(batch_len));
    let warm = t0.elapsed();
    let stats = server.cache_stats();
    println!(
        "plan cache: cold batch {} vs warm batch {} ({:.2}x) | {} plans, {} syntheses, {:.0}% hit rate",
        fmt::dur(cold),
        fmt::dur(warm),
        cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
        stats.plans,
        stats.reports,
        stats.hit_ratio() * 100.0
    );
}
