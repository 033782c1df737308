//! Hunting while the audit stream is still arriving: streaming ingest
//! with a standing (follow-mode) query.
//!
//! A data-leakage attack is buried in ~20k benign audit events. Instead
//! of ingesting the finished log and hunting afterwards, this example
//! replays the raw log as a timed stream of chunks into an
//! `IngestService` — appendable open window, incremental CPR, automatic
//! sealing — and polls a follow-mode hunt with a snapshot after each
//! chunk. The standing query fires the moment the attack's behavior
//! pattern is fully present, long before the stream ends.
//!
//! Run with: `cargo run --release --example streaming_hunt`

use threatraptor::prelude::*;
use threatraptor_service::IngestService;

fn main() {
    let scenario = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(20_000)
        .build();
    println!(
        "replaying {} raw audit events as a live stream...\n",
        scenario.log.events.len()
    );

    // A live store: seal a shard every 2 000 open events, CPR on.
    let service = IngestService::new(IngestConfig::with_policy(SealPolicy::events(2_000)));

    // The standing query (the paper's Fig. 2 hunt). It compiles once;
    // every poll afterwards re-evaluates the cached plan and reports
    // only newly appeared matches.
    let (plan, _) = service
        .cache()
        .plan(threatraptor::FIG2_TBQL)
        .expect("valid TBQL");
    let mut hunt = FollowHunt::new(plan, ExecMode::Scheduled, 1);

    // Replay the raw log in ~1 500-event chunks, polling after each.
    for (i, chunk) in LogFeed::by_events(&scenario.raw, 1_500).enumerate() {
        let chunk = chunk.expect("well-formed log");
        let outcome = service.append(&chunk);
        let delta = hunt
            .poll(&service.snapshot())
            .expect("standing query executes");
        let status = service.status();
        print!(
            "chunk {i:>2}: +{:>5} events  [{} sealed shards | {:>5} open | {:.2}x reduced]",
            outcome.appended,
            status.sealed_shards,
            status.open_events,
            status.reduction.factor(),
        );
        if delta.is_empty() {
            println!();
        } else {
            println!("  ⚠ ALERT: {} new match(es)", delta.new_matches);
            for row in &delta.rows {
                println!("          {}", row.join(" | "));
            }
        }
    }

    // The accumulated result equals a from-scratch batch hunt.
    let merged = hunt.result().expect("polled at least once");
    println!(
        "\nstanding query `{}`\nfound {} match(es) over the whole stream:",
        hunt.tbql().lines().next().unwrap_or_default(),
        merged.matches.len()
    );
    println!("{}", merged.render_table());

    let batch = ThreatRaptor::from_parsed(&scenario.log, true);
    let reference = batch.hunt(threatraptor::FIG2_TBQL).expect("valid TBQL");
    assert_eq!(
        merged.matches.len(),
        reference.matches.len(),
        "streaming result must agree with batch ingestion"
    );
    println!("parity with batch ingestion: OK");
}
