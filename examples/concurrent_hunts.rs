//! Concurrent hunting with the hunt server: one sealed store, many
//! simultaneous hunts with mixed intelligence sources.
//!
//! Run with: `cargo run --release --example concurrent_hunts`

use threatraptor::prelude::*;
use threatraptor_bench::all_cases;

fn main() {
    // A server under both a data-leakage and a password-cracking attack,
    // buried in ~40k benign audit events.
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(40_000)
        .build();

    let raptor = ThreatRaptor::from_parsed(&scenario.log, true);
    println!(
        "ingested {} events ({}x reduced by CPR)\n",
        raptor.store().event_count(),
        format_args!("{:.1}", raptor.store().reduction.factor()),
    );

    // Start a server over the store: a worker per core.
    let server = raptor.service(ServerConfig::default());
    println!(
        "server: {} sealed shards, {} workers\n",
        server.status().sealed_shards,
        server.config().workers,
    );

    // A mixed batch: hunt the data-leakage case from its raw OSCTI report
    // (full extraction + synthesis) and the password-cracking case from an
    // analyst-written TBQL query — several times each, as a production
    // queue would see.
    let cases = all_cases();
    let mut jobs = Vec::new();
    for _ in 0..3 {
        jobs.push(HuntJob::report(cases[0].report)); // data leakage (OSCTI)
        jobs.push(HuntJob::tbql(cases[1].reference_tbql)); // password crack (TBQL)
    }

    let handles: Vec<_> = jobs.into_iter().map(|job| server.submit(job)).collect();
    let reports: Vec<_> = handles.iter().map(|handle| handle.wait()).collect();
    for report in &reports {
        match &report.outcome {
            Ok(result) => println!(
                "job {:>2} [{}] {:>5} matches  {:>8.2?}  cache_hit={}",
                report.index,
                report.job.kind(),
                result.matches.len(),
                report.elapsed,
                report.cache_hit,
            ),
            Err(e) => println!("job {:>2} failed: {e}", report.index),
        }
    }

    let stats = server.cache_stats();
    println!(
        "\nplan cache: {} plans, {} syntheses, {:.0}% hit rate",
        stats.plans,
        stats.reports,
        stats.hit_ratio() * 100.0
    );

    // Show one result table: the matched auditing records of the first
    // data-leakage hunt.
    if let Ok(result) = &reports[0].outcome {
        println!(
            "\nmatched records (data leakage):\n{}",
            result.render_table()
        );
    }
}
