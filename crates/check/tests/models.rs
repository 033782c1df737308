//! Checked models of the four riskiest concurrency protocols in the
//! tree, exercised through the *real* production code (the sync facade
//! routes every lock, condvar, atomic write, and spawn through the
//! checker's scheduler when built with
//! `RUSTFLAGS="--cfg threatraptor_check"`):
//!
//! 1. `WorkerPool` submit/drain/shutdown — no accepted task is lost or
//!    run twice across any submit-vs-shutdown interleaving.
//! 2. `IngestService` epoch gate — `wait_epoch_newer` never misses a
//!    wakeup (the notify-under-lock protocol needs no timeout
//!    backstop), and `poke` wakes waiters without an epoch change.
//! 3. Dispatcher fan-out — a standing query polled concurrently with
//!    ingest delivers every match exactly once, including across the
//!    PR 3 re-led-run schedule (a same-start tie arriving between two
//!    polls re-leads the merged run under a new event id).
//! 4. `PlanCache` LRU — concurrent get-or-compile at capacity keeps
//!    the cache coherent (right plan returned, capacity respected).
//!
//! Built without the cfg these run once on real threads — plain
//! concurrency smoke tests in tier-1.

use std::time::Duration;

use threatraptor_audit::entity::Entity;
use threatraptor_audit::event::{Event, EventId, Operation};
use threatraptor_audit::parser::LogChunk;
use threatraptor_audit::sim::scenario::ScenarioBuilder;
use threatraptor_check::{model, CheckConfig, Report};
use threatraptor_engine::ExecMode;
use threatraptor_service::{
    FollowHunt, IngestConfig, IngestService, PlanCache, SubmitError, WorkerPool,
};
use threatraptor_storage::SealPolicy;
use threatraptor_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use threatraptor_sync::{thread, Arc};

fn cfg(name: &'static str, max_iterations: u64) -> CheckConfig {
    CheckConfig {
        name,
        preemption_bound: 2,
        max_iterations,
        max_steps: 100_000,
    }
}

fn finish(report: &Report, min_interleavings: u64) {
    println!(
        "model '{}': {} interleavings explored (exhausted: {}, divergences: {})",
        report.name, report.iterations, report.exhausted, report.divergences
    );
    report.assert_ok(min_interleavings);
}

/// The PR 3 re-leadable-run scenario: one entity chunk, then two event
/// chunks whose reads share a start time — the second sorts ahead of
/// the first and re-leads the merged CPR run under a new event id.
struct TieScenario {
    base: LogChunk,
    first: LogChunk,
    tie: LogChunk,
}

fn tie_scenario() -> TieScenario {
    let entities = ScenarioBuilder::new()
        .seed(1)
        .target_events(50)
        .build()
        .log
        .entities;
    let proc_id = entities
        .iter()
        .find_map(|e| matches!(e, Entity::Process(_)).then(|| e.id()))
        .expect("scenario has a process");
    let file_id = entities
        .iter()
        .find_map(|e| matches!(e, Entity::File(_)).then(|| e.id()))
        .expect("scenario has a file");
    let read = |id: u32, start: u64, end: u64| Event {
        id: EventId(id),
        subject: proc_id,
        op: Operation::Read,
        object: file_id,
        start,
        end,
        bytes: 8,
        merged: 1,
        tag: None,
    };
    TieScenario {
        base: LogChunk {
            new_entities: entities,
            events: Vec::new(),
        },
        first: LogChunk {
            new_entities: Vec::new(),
            events: vec![read(50, 100, 110)],
        },
        // Equal start, smaller (end, id) sort key: re-leads the run.
        tie: LogChunk {
            new_entities: Vec::new(),
            events: vec![read(60, 100, 105)],
        },
    }
}

fn manual_ingest() -> IngestService {
    IngestService::new(IngestConfig::with_policy(SealPolicy::manual()))
}

/// Model 1: WorkerPool submit/drain/shutdown. A second producer races
/// `submit` against `shutdown`; whatever the schedule, every *accepted*
/// task must run exactly once before `shutdown` returns, and
/// submissions after shutdown must be refused.
#[test]
fn model_pool_submit_drain_shutdown() {
    let report = model(cfg("worker-pool", 5_000), || {
        let pool = Arc::new(WorkerPool::new(2, 2));
        let ran = Arc::new(AtomicUsize::new(0));
        let accepted = Arc::new(AtomicUsize::new(0));

        let (pool2, ran2, accepted2) = (Arc::clone(&pool), Arc::clone(&ran), Arc::clone(&accepted));
        let racer = thread::spawn(move || {
            let task_ran = Arc::clone(&ran2);
            // ordering: test-local counters, no ordering contract.
            match pool2.submit(Box::new(move || {
                task_ran.fetch_add(1, Ordering::Relaxed);
            })) {
                Ok(()) => {
                    accepted2.fetch_add(1, Ordering::Relaxed);
                }
                Err(SubmitError::Shutdown) => {}
                Err(e) => panic!("unexpected submit error: {e:?}"),
            }
        });

        let task_ran = Arc::clone(&ran);
        pool.submit(Box::new(move || {
            task_ran.fetch_add(1, Ordering::Relaxed);
        }))
        .expect("submit before shutdown is accepted");
        accepted.fetch_add(1, Ordering::Relaxed);

        pool.shutdown();
        racer.join().unwrap();

        assert_eq!(
            pool.submit(Box::new(|| {})),
            Err(SubmitError::Shutdown),
            "post-shutdown submissions must be refused"
        );
        assert_eq!(
            ran.load(Ordering::Relaxed),
            accepted.load(Ordering::Relaxed),
            "every accepted task runs exactly once before shutdown returns"
        );
    });
    finish(&report, 2_500);
}

/// Model 2a: the ingest epoch gate. Two waiters park on
/// `wait_epoch_newer` while an appender bumps the epoch. The
/// notify-under-lock protocol means no schedule can lose the wakeup —
/// the timed wait must never fall back to its timeout (quiescence
/// wake), and both waiters must observe the advanced epoch.
#[test]
fn model_ingest_epoch_wakeup() {
    let sc = tie_scenario();
    let (base, chunk) = (sc.base, sc.first);
    let report = model(cfg("ingest-epoch", 4_000), move || {
        let svc = Arc::new(manual_ingest());
        svc.append(&base);
        let e0 = svc.epoch();
        let woke = Arc::new(AtomicU64::new(0));

        let waiters: Vec<_> = (0..2)
            .map(|i| {
                let (svc, woke) = (Arc::clone(&svc), Arc::clone(&woke));
                thread::spawn(move || {
                    let got = svc.wait_epoch_newer(e0, Duration::from_secs(30));
                    assert!(
                        got > e0,
                        "waiter {i} returned without an epoch change (got {got}, had {e0})"
                    );
                    // ordering: test-local accumulator, no contract.
                    woke.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();

        let svc2 = Arc::clone(&svc);
        let chunk = chunk.clone();
        let appender = thread::spawn(move || {
            svc2.append(&chunk);
        });

        for w in waiters {
            w.join().unwrap();
        }
        appender.join().unwrap();
        assert_eq!(woke.load(Ordering::Relaxed), 2);
        assert_eq!(
            threatraptor_check::quiescent_wakes(),
            0,
            "the epoch gate must never need the timeout backstop"
        );
    });
    finish(&report, 2_500);
}

/// Model 2b: `poke` semantics. A poke wakes a waiter without an epoch
/// change — unless the poke lands before the waiter parks, in which
/// case the timeout backstop (modelled as a quiescence wake) is what
/// returns control. Either way the waiter comes back with the epoch
/// unchanged and nothing deadlocks.
#[test]
fn model_ingest_poke_returns_unchanged_epoch() {
    let sc = tie_scenario();
    let base = sc.base;
    let report = model(cfg("ingest-poke", 2_000), move || {
        let svc = Arc::new(manual_ingest());
        svc.append(&base);
        let e0 = svc.epoch();

        let svc2 = Arc::clone(&svc);
        let waiter = thread::spawn(move || {
            let got = svc2.wait_epoch_newer(e0, Duration::from_secs(1));
            assert_eq!(got, e0, "no append happened: the epoch must be unchanged");
        });
        let svc3 = Arc::clone(&svc);
        let poker = thread::spawn(move || {
            svc3.poke();
        });

        waiter.join().unwrap();
        poker.join().unwrap();
        assert!(
            threatraptor_check::quiescent_wakes() <= 1,
            "at most the one missed-poke timeout"
        );
    });
    finish(&report, 1_000);
}

/// Model 3: dispatcher fan-out, exactly-once delivery. A dispatcher
/// thread re-polls a standing query on every epoch change and fans the
/// per-poll delta out over a channel, racing an appender that delivers
/// the re-leadable tie chunks. Across *all* schedules — including the
/// poll landing between the two chunks, where the merged run changes
/// its leading event id — the total delivered matches must equal the
/// from-scratch batch count. (The `check_mutants` build re-introduces
/// the PR 3 event-id `MatchKey` and this model must catch it.)
#[test]
fn model_dispatcher_exactly_once_fanout() {
    let sc = tie_scenario();
    let (base, first, tie) = (sc.base, sc.first, sc.tie);
    // Compile outside the model: plan compilation is single-threaded
    // and would only deepen every schedule without adding candidates.
    let plan = PlanCache::new()
        .plan("proc p read file f return p, f")
        .expect("pair query compiles")
        .0;
    let report = model(cfg("dispatcher-fanout", 4_000), move || {
        let svc = Arc::new(manual_ingest());
        svc.append(&base);
        let e0 = svc.epoch();
        let target = e0 + 2; // two appends, one epoch bump each

        let (tx, rx) = crossbeam::channel::bounded::<usize>(8);
        let svc2 = Arc::clone(&svc);
        let plan2 = Arc::clone(&plan);
        let dispatcher = thread::spawn(move || {
            let mut hunt = FollowHunt::new(plan2, ExecMode::Scheduled, 1);
            let mut last = e0;
            loop {
                let delta = hunt.poll(&svc2.snapshot()).expect("poll succeeds");
                tx.send(delta.new_matches).expect("subscriber is alive");
                if last >= target {
                    return;
                }
                last = svc2.wait_epoch_newer(last, Duration::from_secs(30));
            }
        });

        let svc3 = Arc::clone(&svc);
        let (first, tie) = (first.clone(), tie.clone());
        let appender = thread::spawn(move || {
            svc3.append(&first);
            svc3.append(&tie);
        });

        let delivered: usize = rx.iter().sum();
        dispatcher.join().unwrap();
        appender.join().unwrap();

        let batch = threatraptor_engine::ShardedEngine::new(&svc.snapshot())
            .hunt("proc p read file f return p, f")
            .expect("batch hunt succeeds")
            .matches
            .len();
        assert_eq!(batch, 1, "the tied reads merge into one run");
        assert_eq!(
            delivered, batch,
            "fan-out must deliver every match exactly once (re-led runs must not refire)"
        );
    });
    finish(&report, 1_500);
}

/// Model 4: PlanCache LRU under concurrent get-or-compile. Two threads
/// compile distinct queries into a capacity-1 cache (compile happens
/// outside the write lock; the loser of the insert race drops its
/// plan). Every caller must get the right plan and the capacity bound
/// must hold on every schedule.
#[test]
fn model_plan_cache_concurrent_get_or_compile() {
    let q1 = "proc p read file f return p, f";
    let q2 = "proc p write file f return p, f";
    let report = model(cfg("plan-cache", 4_000), move || {
        let cache = Arc::new(PlanCache::with_capacities(1, 1));
        // `CachedPlan::tbql` is the pretty-printed source; the operation
        // word identifies which query's plan a caller received.
        let handles: Vec<_> = [(q1, "read"), (q2, "write")]
            .into_iter()
            .map(|(q, op)| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || {
                    let (plan, _hit) = cache.plan(q).expect("query compiles");
                    assert!(plan.tbql.contains(op), "wrong plan returned for {q:?}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (plan, _) = cache.plan(q1).expect("recompile after possible eviction");
        assert!(plan.tbql.contains("read"));
        let stats = cache.stats();
        assert!(
            stats.plans <= 1,
            "capacity-1 cache holds {} plans",
            stats.plans
        );
        assert!(
            stats.misses >= 2,
            "two distinct queries cannot share a compilation"
        );
    });
    finish(&report, 2_500);
}
