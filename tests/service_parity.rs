//! Service-layer integration tests: sharded/single execution parity over
//! randomized scenarios and queries, facade-server parity, plus
//! concurrent-hunt smoke tests.

use proptest::prelude::*;
use threatraptor::prelude::*;
use threatraptor_bench::all_cases;
use threatraptor_service::{HuntJob, ServiceError};
use threatraptor_storage::{AuditStore, ShardedStore};

/// A path query broad enough to cross shard boundaries at every shard
/// count: any 2–3 hop flow from a process ending in a file read.
const BROAD_PATH_TBQL: &str = "proc p ~>(2~3)[read] file f return p, f";

/// The core parity assertion: for one scenario seed and query, execution
/// over `shards` shards returns exactly the rows, in the same order, and
/// the matched events single-store execution returns.
fn assert_parity(seed: u64, shards: usize, query: &str) {
    let sc = ScenarioBuilder::new()
        .seed(seed)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(2_500)
        .build();
    let single = AuditStore::ingest(&sc.log, true);
    let sharded = ShardedStore::ingest(&sc.log, true, shards);

    let expected = Engine::new(&single).hunt(query).expect("single store");
    let got = ShardedEngine::new(&sharded).hunt(query).expect("sharded");

    assert_eq!(
        (&got.rows, got.matched_event_ids(&sharded)),
        (&expected.rows, expected.matched_event_ids(&single)),
        "sharded execution diverged (seed {seed}, {shards} shards)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: shard/single parity holds across scenario seeds, shard
    /// counts, and the reference query corpus — including shard counts
    /// large enough that attack chains straddle shard boundaries.
    #[test]
    fn sharded_hunts_match_single_store(
        seed in 0u64..6,
        shards in 1usize..24,
        case in prop::sample::select(vec![0usize, 1]),
    ) {
        let query = all_cases()[case].reference_tbql;
        assert_parity(seed, shards, query);
    }

    /// Parity also holds for path patterns, whose multi-hop flows are the
    /// hard case for partitioned execution.
    #[test]
    fn sharded_path_hunts_match_single_store(seed in 0u64..4, shards in 2usize..32) {
        assert_parity(
            seed,
            shards,
            "proc p[\"%/bin/tar%\"] ~>(1~3)[write] file f return distinct p, f",
        );
    }
}

#[test]
fn fig2_parity_all_shard_counts() {
    for shards in [1, 2, 3, 7, 8, 16, 64] {
        assert_parity(42, shards, threatraptor::FIG2_TBQL);
        assert_parity(42, shards, BROAD_PATH_TBQL);
    }
}

/// Every reference case and the broad path query return identical rows
/// and matches, in order, on 1, 4 and 32 shards under every execution
/// mode.
#[test]
fn reference_cases_agree_across_shard_counts_and_modes() {
    let sc = ScenarioBuilder::new()
        .seed(7)
        .attacks(&AttackKind::ALL)
        .target_events(4_000)
        .build();
    let stores: Vec<ShardedStore> = [1, 4, 32]
        .into_iter()
        .map(|n| ShardedStore::ingest(&sc.log, true, n))
        .collect();
    let queries = all_cases()
        .into_iter()
        .map(|c| c.reference_tbql)
        .chain([BROAD_PATH_TBQL]);
    for q in queries {
        let want = ShardedEngine::new(&stores[0]).hunt(q).unwrap();
        assert!(!want.is_empty(), "{q}");
        for store in &stores {
            for mode in [
                ExecMode::Scheduled,
                ExecMode::Unscheduled,
                ExecMode::RelationalOnly,
                ExecMode::GraphOnly,
            ] {
                let got = ShardedEngine::new(store).hunt_mode(q, mode).unwrap();
                let at = format!("{mode:?}, {} shards: {q}", store.shard_count());
                assert_eq!(got.rows, want.rows, "{at}");
                assert_eq!(got.matches, want.matches, "{at}");
            }
        }
    }
}

/// The facade's server agrees with the facade's direct hunts: same
/// stored events, and for every reference case (FIG2 included) the same
/// rows and the same precision/recall.
#[test]
fn service_facade_matches_direct_hunting_for_every_case() {
    for seed in [3, 7, 42] {
        let sc = ScenarioBuilder::new()
            .seed(seed)
            .attacks(&AttackKind::ALL)
            .target_events(6_000)
            .build();
        let raptor = ThreatRaptor::from_parsed(&sc.log, true);
        let server = raptor.service(ServerConfig::default().workers(2));
        let snapshot = server.snapshot();
        assert_eq!(snapshot.event_count(), raptor.store().event_count());
        for case in all_cases() {
            let truth = sc.ground_truth(case.kind.case_name());
            let direct = raptor.hunt(case.reference_tbql).unwrap();
            let served = server.hunt(case.reference_tbql).unwrap();
            assert_eq!(served.rows, direct.rows, "{} (seed {seed})", case.name);
            assert_eq!(
                served.precision_recall(&snapshot, &truth),
                direct.precision_recall(raptor.store(), &truth),
                "{} (seed {seed})",
                case.name
            );
        }
    }
}

/// Concurrency smoke test: ≥8 simultaneous hunts through one server,
/// every result identical to the sequential reference.
#[test]
fn eight_concurrent_hunts_agree_with_sequential() {
    let sc = ScenarioBuilder::new()
        .seed(42)
        .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
        .target_events(4_000)
        .build();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    let server = raptor.service(ServerConfig::default().workers(8));

    let cases = all_cases();
    let handles: Vec<_> = (0..16)
        .map(|i| server.submit(HuntJob::tbql(cases[i % 2].reference_tbql)))
        .collect();

    let reference: Vec<_> = (0..2)
        .map(|i| raptor.hunt(cases[i].reference_tbql).unwrap())
        .collect();
    for (i, handle) in handles.iter().enumerate() {
        let report = handle.wait();
        let result = report.outcome.as_ref().expect("hunt succeeds");
        assert_eq!(result.rows, reference[i % 2].rows, "job {i}");
        assert!(!result.is_empty());
    }
    // 16 jobs, 2 distinct plans: the cache must have absorbed the rest.
    // (Concurrent first touches of the same plan may each count a miss,
    // so bound the hits from below rather than exactly.)
    let stats = server.cache_stats();
    assert_eq!(stats.plans, 2);
    assert_eq!(stats.hits + stats.misses, 16);
    assert!(stats.hits >= 16 - 8, "cache absorbed too little: {stats:?}");
}

/// Raw threads hammering one server concurrently (beyond its own
/// pool): the server must be freely shareable.
#[test]
fn service_is_shareable_across_threads() {
    let sc = ScenarioBuilder::new()
        .seed(3)
        .attacks(&[AttackKind::DataLeakage])
        .target_events(2_000)
        .build();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    let server = raptor.service(ServerConfig::default().workers(2));
    let reference = server.hunt(threatraptor::FIG2_TBQL).unwrap();

    std::thread::scope(|scope| {
        for _ in 0..8 {
            scope.spawn(|| {
                let r = server.hunt(threatraptor::FIG2_TBQL).unwrap();
                assert_eq!(r.rows, reference.rows);
            });
        }
    });
}

/// Mixed submissions keep error isolation: one failing job must not
/// poison its neighbors.
#[test]
fn failing_jobs_are_isolated() {
    let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    // One worker: with a parallel pool, jobs 0 and 3 may both miss the
    // cache concurrently, making the final cache_hit assertion racy.
    let server = raptor.service(ServerConfig::default().workers(1));
    let handles: Vec<_> = [
        HuntJob::tbql(threatraptor::FIG2_TBQL),
        HuntJob::tbql("syntactically broken"),
        HuntJob::report("Nothing interesting happened today."),
        HuntJob::tbql(threatraptor::FIG2_TBQL),
    ]
    .into_iter()
    .map(|job| server.submit(job))
    .collect();
    let reports: Vec<_> = handles.iter().map(|handle| handle.wait()).collect();
    assert!(reports[0].outcome.is_ok());
    assert!(matches!(reports[1].outcome, Err(ServiceError::Engine(_))));
    assert!(matches!(
        reports[2].outcome,
        Err(ServiceError::Synthesis(_))
    ));
    assert!(reports[3].outcome.is_ok());
    assert!(reports[3].cache_hit, "plan from job 0 must be reused");
}

/// The plan cache returns byte-identical results for formatting variants
/// of one query.
#[test]
fn plan_cache_normalization_preserves_results() {
    let sc = ScenarioBuilder::new().seed(42).target_events(2_000).build();
    let raptor = ThreatRaptor::from_parsed(&sc.log, true);
    let server = raptor.service(ServerConfig::default().workers(2));

    let original = threatraptor::FIG2_TBQL;
    let reformatted = original.split_whitespace().collect::<Vec<_>>().join("  ");
    let a = server.hunt(original).unwrap();
    let b = server.hunt(&reformatted).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(
        server.cache_stats().plans,
        1,
        "one plan serves both spellings"
    );
}
