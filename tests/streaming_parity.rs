//! Streaming/batch parity: chunked append + seal must be
//! indistinguishable from one-shot ingestion.
//!
//! The streaming layer's contract (ISSUE 2 acceptance criterion): for
//! any seed log, replaying it in chunks through a `StreamingStore` —
//! with sealing interleaved under any policy — yields hunt results
//! byte-identical to `ShardedStore::ingest` of the same log, with
//! identical `ReductionStats` totals, under both relational and graph
//! execution modes. And a hunt issued mid-ingest runs against a
//! consistent snapshot without blocking further appends.

use proptest::prelude::*;
use threatraptor::prelude::*;
use threatraptor_audit::LogFeed;
use threatraptor_bench::all_cases;
use threatraptor_storage::{SealPolicy, StreamingStore};

/// Replays a scenario's raw log chunk-by-chunk into a streaming store.
fn stream_store(raw: &str, chunk: usize, policy: SealPolicy, cpr: bool) -> StreamingStore {
    let mut store = StreamingStore::new(cpr, policy);
    for part in LogFeed::by_events(raw, chunk) {
        store.append(&part.expect("simulator logs are well-formed"));
    }
    store
}

/// The core parity assertion: identical stored stream, identical
/// reduction totals, byte-identical hunt results.
fn assert_streaming_parity(
    seed: u64,
    chunk: usize,
    policy: SealPolicy,
    query: &str,
    mode: ExecMode,
) {
    let sc = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(2_500)
        .build();
    let batch = ShardedStore::ingest(&sc.log, true, 4);
    let streamed = stream_store(&sc.raw, chunk, policy, true).snapshot();

    // Identical global stream and statistics.
    assert_eq!(streamed.event_count(), batch.event_count());
    assert_eq!(streamed.reduction(), batch.reduction());
    for pos in (0..batch.event_count()).step_by(97) {
        assert_eq!(
            streamed.event_at(pos),
            batch.event_at(pos),
            "position {pos}"
        );
    }

    // Byte-identical hunt results (positions are global and identical, so
    // even row order agrees — no normalization needed).
    let want = ShardedEngine::new(&batch).hunt_mode(query, mode).unwrap();
    let got = ShardedEngine::new(&streamed)
        .hunt_mode(query, mode)
        .unwrap();
    assert_eq!(got.rows, want.rows, "seed {seed}, chunk {chunk}, {mode:?}");
    assert_eq!(
        got.matched_event_ids(&streamed),
        want.matched_event_ids(&batch)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: parity holds across scenario seeds, chunk sizes, seal
    /// thresholds, and the reference query corpus, under relational and
    /// graph execution alike.
    #[test]
    fn streamed_hunts_match_batch_ingest(
        seed in 0u64..5,
        chunk in prop::sample::select(vec![64usize, 333, 1_000]),
        seal_every in prop::sample::select(vec![150usize, 600, usize::MAX]),
        case in prop::sample::select(vec![0usize, 1]),
        mode in prop::sample::select(vec![ExecMode::RelationalOnly, ExecMode::GraphOnly]),
    ) {
        let policy = if seal_every == usize::MAX {
            SealPolicy::manual()
        } else {
            SealPolicy::events(seal_every)
        };
        let query = all_cases()[case].reference_tbql;
        assert_streaming_parity(seed, chunk, policy, query, mode);
    }

    /// Path patterns — multi-hop flows crossing seal boundaries — keep
    /// parity too (the scheduled mode exercises the hybrid planner).
    #[test]
    fn streamed_path_hunts_match_batch_ingest(
        seed in 0u64..3,
        chunk in prop::sample::select(vec![100usize, 450]),
    ) {
        assert_streaming_parity(
            seed,
            chunk,
            SealPolicy::events(300),
            "proc p[\"%/bin/tar%\"] ~>(1~3)[write] file f return distinct p, f",
            ExecMode::Scheduled,
        );
    }
}

/// Stable identity of every match in a result: sorted bindings plus, per
/// pattern, the CPR run identity of each witness (entity pair, operation,
/// run start time) — the keying `FollowHunt` deduplicates deliveries by,
/// recomputed here from public API so the tests check the contract, not
/// the implementation.
fn identity_keys(
    matches: &[threatraptor_engine::result::Match],
    store: &threatraptor_storage::ShardedStore,
) -> Vec<String> {
    matches
        .iter()
        .map(|m| {
            let mut bindings: Vec<(String, u32)> =
                m.bindings.iter().map(|(v, id)| (v.clone(), id.0)).collect();
            bindings.sort();
            let mut pats: Vec<String> = m
                .events
                .iter()
                .map(|(pat, positions)| {
                    let witnesses: Vec<String> = positions
                        .iter()
                        .map(|&p| {
                            let e = store.event_at(p);
                            format!("{}>{}:{:?}@{}", e.subject.0, e.object.0, e.op, e.start)
                        })
                        .collect();
                    format!("{pat}={}", witnesses.join(","))
                })
                .collect();
            pats.sort();
            format!("{bindings:?}|{pats:?}")
        })
        .collect()
}

/// Adversarial tie generator (ISSUE 5): streams over a handful of entity
/// pairs where start times advance mostly by **zero** — equal-start
/// events on the same pair routinely straddle chunk boundaries, and
/// later arrivals with smaller `(end, id)` sort keys re-lead provisional
/// open-window runs. Exactly-once must hold anyway: across all polls, no
/// match identity is ever delivered twice, and the delivered identity
/// set equals a from-scratch batch hunt's.
mod tie_exactly_once {
    use super::*;
    use threatraptor_audit::entity::{Entity, EntityId};
    use threatraptor_audit::event::{Event, EventId, Operation};
    use threatraptor_service::PlanCache;
    use threatraptor_storage::ShardedStore;

    /// Per-event generator output: (pair selector, start advance,
    /// duration, mergeable?).
    type EventSpec = (usize, u64, u64, bool);

    fn build_events(specs: &[EventSpec], procs: &[EntityId], files: &[EntityId]) -> Vec<Event> {
        let mut start = 1u64;
        specs
            .iter()
            .enumerate()
            .map(|(i, &(pair, advance, dur, mergeable))| {
                start += advance;
                Event {
                    id: EventId(i as u32),
                    subject: procs[pair % procs.len()],
                    op: if mergeable {
                        Operation::Read
                    } else {
                        Operation::Open
                    },
                    object: files[(pair / procs.len()) % files.len()],
                    start,
                    end: start + dur,
                    bytes: 4,
                    merged: 1,
                    tag: None,
                }
            })
            .collect()
    }

    /// Replays `events` in chunks through a follow hunt, capturing each
    /// delivered match's identity **at delivery time, against the
    /// delivering snapshot** (positions are snapshot-relative; only the
    /// identity is stable across snapshots — that is the contract under
    /// test).
    fn stream_and_follow(
        entities: &[Entity],
        events: &[Event],
        chunk: usize,
        seal_every: usize,
        query: &str,
    ) -> (Vec<String>, ShardedStore) {
        let cache = PlanCache::new();
        let (plan, _) = cache.plan(query).expect("valid TBQL");
        let mut hunt = FollowHunt::new(plan, ExecMode::Scheduled, 1);
        let mut store = StreamingStore::new(true, SealPolicy::events(seal_every));
        store.append_batch(entities, &[]);
        hunt.poll(&store.snapshot()).expect("empty poll");
        let mut delivered_keys = Vec::new();
        for batch in events.chunks(chunk) {
            store.append_batch(&[], batch);
            let snapshot = store.snapshot();
            let delta = hunt.poll(&snapshot).expect("poll");
            let merged = &hunt.result().expect("polled").matches;
            let fresh = &merged[merged.len() - delta.new_matches..];
            delivered_keys.extend(identity_keys(fresh, &snapshot));
        }
        (delivered_keys, store.snapshot())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn tie_heavy_streams_deliver_each_identity_exactly_once(
            specs in prop::collection::vec(
                (
                    0usize..9,                                    // entity pair
                    prop::sample::select(vec![0u64, 0, 0, 0, 1]), // start advance: 80% ties
                    1u64..20,                                     // duration
                    prop::bool::weighted(0.8),                    // mostly mergeable reads
                ),
                1..120,
            ),
            chunk in prop::sample::select(vec![1usize, 3, 7, 16]),
            seal_every in prop::sample::select(vec![5usize, 17, usize::MAX - 1]),
        ) {
            let entities = ScenarioBuilder::new().seed(9).target_events(60).build().log.entities;
            let procs: Vec<EntityId> = entities
                .iter()
                .filter(|e| matches!(e, Entity::Process(_)))
                .map(|e| e.id())
                .take(3)
                .collect();
            let files: Vec<EntityId> = entities
                .iter()
                .filter(|e| matches!(e, Entity::File(_)))
                .map(|e| e.id())
                .take(3)
                .collect();
            // Deterministic seed: the scenario always has enough of each.
            prop_assert_eq!((procs.len(), files.len()), (3, 3));
            let events = build_events(&specs, &procs, &files);

            let query = "proc p read file f return p, f";
            let (mut keys, snapshot) =
                stream_and_follow(&entities, &events, chunk, seal_every, query);

            // Exactly-once, part 1: no identity is ever delivered twice.
            let total = keys.len();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(keys.len(), total, "an identity was delivered twice");

            // Exactly-once, part 2: no identity lost and none phantom —
            // the delivered identity set equals the batch identity set
            // over the final snapshot. Set, not multiset, deliberately:
            // the batch side can hold several matches with one identity
            // (distinct events CPR left separate — an interleaving touch
            // — that still share pair, op, and start time), and
            // identity-keyed delivery collapses those to one alert by
            // design. That collapse is the documented contract
            // (`crates/service/src/follow.rs`), not an accident of this
            // test.
            let batch = ShardedEngine::new(&snapshot).hunt(query).unwrap();
            let mut batch_keys = identity_keys(&batch.matches, &snapshot);
            batch_keys.sort();
            batch_keys.dedup();
            prop_assert_eq!(keys, batch_keys);
        }
    }
}

/// CPR-off parity: the pass-through frontier preserves arrival order
/// exactly as batch no-CPR ingestion does.
#[test]
fn streaming_without_cpr_matches_batch() {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(2_000)
        .build();
    let batch = ShardedStore::ingest(&sc.log, false, 4);
    let streamed = stream_store(&sc.raw, 128, SealPolicy::events(400), false).snapshot();
    assert_eq!(streamed.event_count(), batch.event_count());
    assert_eq!(streamed.reduction(), batch.reduction());
    let want = ShardedEngine::new(&batch)
        .hunt(threatraptor::FIG2_TBQL)
        .unwrap();
    let got = ShardedEngine::new(&streamed)
        .hunt(threatraptor::FIG2_TBQL)
        .unwrap();
    assert_eq!(got.rows, want.rows);
}

/// The full service path: ingest through a `HuntServer` with hunts (and
/// a standing follow-mode query) issued mid-ingest; the final answer
/// matches batch ingestion, and mid-ingest answers are consistent
/// prefixes that never block appends.
#[test]
fn hunts_under_ingest_are_consistent_and_end_in_parity() {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(3_000)
        .build();
    let server = HuntServer::new(ServerConfig::with_ingest(IngestConfig::with_policy(
        SealPolicy::events(350),
    )));
    let (follow, initial) = server.follow(threatraptor::FIG2_TBQL).unwrap();
    assert!(initial.is_empty());

    let mut match_counts = Vec::new();
    for chunk in LogFeed::by_events(&sc.raw, 500) {
        server.append(&chunk.unwrap());
        let mid = server.hunt(threatraptor::FIG2_TBQL).unwrap();
        match_counts.push(mid.matches.len());
    }
    assert!(server.wait_caught_up(std::time::Duration::from_secs(60)));

    // Mid-ingest match counts grow monotonically to the batch answer.
    let batch = ThreatRaptor::from_parsed(&sc.log, true);
    let want = batch.hunt(threatraptor::FIG2_TBQL).unwrap();
    assert!(match_counts.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*match_counts.last().unwrap(), want.matches.len());

    // The standing query accumulated the same final answer.
    let merged = server.follow_result(follow.id()).unwrap();
    let norm = |rows: &[Vec<String>]| {
        let mut r = rows.to_vec();
        r.sort();
        r
    };
    assert_eq!(norm(&merged.rows), norm(&want.rows));
}
