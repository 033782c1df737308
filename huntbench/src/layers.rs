//! Per-layer measurements of the traced phase.
//!
//! Every time here comes from the benchmark timing its *own* call into
//! a crate's public function on the workload's inputs (parse a chunk,
//! append it, take a snapshot, extract a report, synthesize, parse,
//! analyze, compile, execute, poll a standing query). Nothing inside
//! the program is instrumented, and the program's self-reported stage
//! timings (`HuntStats::*_elapsed`, `StageTimings`) are not used; the
//! counts come from the returned `HuntStats`, `FollowDelta` and
//! `CacheStats`.

use crate::stats::{Metric, Series};
use std::time::Duration;
use threatraptor::HuntResult;

/// Per-layer metrics (`--trace 1`), in report order, with the unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("audit.parse_ms_per_10k_events", "ms"),
    ("storage.append_ms_per_10k_events", "ms"),
    ("storage.sealing_append_ms_p50", "ms"),
    ("storage.snapshot_ms_p50", "ms"),
    ("storage.reduction_factor", "ratio"),
    ("storage.sealed_shards", "count"),
    ("nlp.extract_ms_p50", "ms"),
    ("nlp.extract_ms_p90", "ms"),
    ("synth.synthesize_us_p50", "us"),
    ("tbql.parse_us_p50", "us"),
    ("tbql.analyze_us_p50", "us"),
    ("engine.compile_us_p50", "us"),
    ("engine.execute_ms_p50", "ms"),
    ("engine.execute_ms_p90", "ms"),
    ("engine.rows_fetched_per_hunt", "rows"),
    ("engine.rows_per_result_row", "ratio"),
    ("engine.join_candidates_per_hunt", "count"),
    ("engine.join_selectivity", "ratio"),
    ("engine.matches_per_hunt", "count"),
    ("engine.rows_pruned_per_hunt", "rows"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.job_exec_ms_p50", "ms"),
    ("service.plan_cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("service.follow_poll_ms_p50", "ms"),
    ("service.follow_poll_ms_p90", "ms"),
    ("service.delta_rows_per_poll", "rows"),
    ("service.full_fallback_polls", "count"),
    ("service.epoch_lag_p90", "epochs"),
    ("loadgen.late_ms_p90", "ms"),
    ("loadgen.backlog_epochs", "epochs"),
    ("trace.blocking_share_of_p50", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Accumulated layer measurements of one phase (or one load thread;
/// threads merge with [`Layers::merge`]).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    // audit
    pub parse: Duration,
    pub parse_events: u64,
    // storage
    pub append: Duration,
    pub append_events: u64,
    pub sealing_append: Series,
    pub snapshot: Series,
    pub reduction_factor: f64,
    pub sealed_shards: f64,
    // nlp, synth, tbql, engine
    pub extract: Series,
    pub synthesize: Series,
    pub tbql_parse: Series,
    pub analyze: Series,
    pub compile: Series,
    pub execute: Series,
    pub executions: u64,
    pub rows_fetched: u64,
    pub result_rows: u64,
    pub join_candidates: u64,
    pub join_outputs: u64,
    pub matches: u64,
    pub rows_pruned: u64,
    // service
    pub queue_wait: Series,
    pub job_exec: Series,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub follow_poll: Series,
    pub polls: u64,
    pub delta_rows: u64,
    pub full_fallback_polls: u64,
    pub epoch_lag: Series,
    // load generator
    pub late: Series,
    pub backlog_epochs: f64,
    /// Per operation: the summed layer times on its blocking path.
    pub blocking: Series,
    /// live-follow only: per chunk, the feeder's part of a delivery's
    /// blocking path (lateness, parse, append); `blocking` then holds
    /// the dispatch part (snapshot, polls) per epoch.
    pub feed_path: Series,
}

impl Layers {
    /// Records one timed `ShardedEngine::execute` and its counts.
    pub fn record_execute(&mut self, elapsed: Duration, result: &HuntResult) {
        let stats = &result.stats;
        self.execute.push_ms(elapsed);
        self.executions += 1;
        self.rows_fetched += stats.total_rows() as u64;
        self.result_rows += result.rows.len() as u64;
        self.matches += result.matches.len() as u64;
        for (_, j) in &stats.join_stats {
            self.join_candidates += j.candidates as u64;
            self.join_outputs += j.outputs as u64;
        }
        self.rows_pruned += stats.total_rows_pruned() as u64;
    }

    /// Folds another thread's measurements into this one.
    pub fn merge(&mut self, other: &Layers) {
        self.parse += other.parse;
        self.parse_events += other.parse_events;
        self.append += other.append;
        self.append_events += other.append_events;
        for (into, from) in [
            (&mut self.sealing_append, &other.sealing_append),
            (&mut self.snapshot, &other.snapshot),
            (&mut self.extract, &other.extract),
            (&mut self.synthesize, &other.synthesize),
            (&mut self.tbql_parse, &other.tbql_parse),
            (&mut self.analyze, &other.analyze),
            (&mut self.compile, &other.compile),
            (&mut self.execute, &other.execute),
            (&mut self.queue_wait, &other.queue_wait),
            (&mut self.job_exec, &other.job_exec),
            (&mut self.follow_poll, &other.follow_poll),
            (&mut self.epoch_lag, &other.epoch_lag),
            (&mut self.late, &other.late),
            (&mut self.blocking, &other.blocking),
            (&mut self.feed_path, &other.feed_path),
        ] {
            into.extend_from(from);
        }
        self.executions += other.executions;
        self.rows_fetched += other.rows_fetched;
        self.result_rows += other.result_rows;
        self.join_candidates += other.join_candidates;
        self.join_outputs += other.join_outputs;
        self.matches += other.matches;
        self.rows_pruned += other.rows_pruned;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.polls += other.polls;
        self.delta_rows += other.delta_rows;
        self.full_fallback_polls += other.full_fallback_polls;
    }

    /// The per-layer metric set, [`PER_LAYER`] order. `headline_p50` is
    /// the traced phase's `hunt_p50_ms` (or `delivery_p50_ms` on
    /// live-follow); `untraced_p50` the same metric untraced.
    pub fn metrics(&mut self, headline_p50: f64, untraced_p50: f64) -> Vec<Metric> {
        let per_10k = |d: Duration, events: u64| {
            if events == 0 {
                0.0
            } else {
                d.as_secs_f64() * 1e3 * 1e4 / events as f64
            }
        };
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let per_hunt = |n: u64| ratio(n, self.executions);
        let counted = |name, unit, value, n: usize| Metric {
            samples: Some(n),
            ..Metric::new(name, unit, value)
        };
        let blocking_p50 = self
            .blocking
            .percentile(50.0)
            .map(|b| b + self.feed_path.percentile(50.0).unwrap_or(0.0));
        let share = match (blocking_p50, headline_p50 > 0.0) {
            (Some(b), true) => b / headline_p50,
            _ => 0.0,
        };
        let overhead = if untraced_p50 > 0.0 && headline_p50 > 0.0 {
            headline_p50 / untraced_p50 - 1.0
        } else {
            0.0
        };
        let executions = self.executions as usize;
        let metrics = vec![
            Metric::new(
                "audit.parse_ms_per_10k_events",
                "ms",
                per_10k(self.parse, self.parse_events),
            ),
            Metric::new(
                "storage.append_ms_per_10k_events",
                "ms",
                per_10k(self.append, self.append_events),
            ),
            Metric::pct(
                "storage.sealing_append_ms_p50",
                "ms",
                &mut self.sealing_append,
                50.0,
            ),
            Metric::pct("storage.snapshot_ms_p50", "ms", &mut self.snapshot, 50.0),
            Metric::new("storage.reduction_factor", "ratio", self.reduction_factor),
            Metric::new("storage.sealed_shards", "count", self.sealed_shards),
            Metric::pct("nlp.extract_ms_p50", "ms", &mut self.extract, 50.0),
            Metric::pct("nlp.extract_ms_p90", "ms", &mut self.extract, 90.0),
            Metric::pct("synth.synthesize_us_p50", "us", &mut self.synthesize, 50.0),
            Metric::pct("tbql.parse_us_p50", "us", &mut self.tbql_parse, 50.0),
            Metric::pct("tbql.analyze_us_p50", "us", &mut self.analyze, 50.0),
            Metric::pct("engine.compile_us_p50", "us", &mut self.compile, 50.0),
            Metric::pct("engine.execute_ms_p50", "ms", &mut self.execute, 50.0),
            Metric::pct("engine.execute_ms_p90", "ms", &mut self.execute, 90.0),
            counted(
                "engine.rows_fetched_per_hunt",
                "rows",
                per_hunt(self.rows_fetched),
                executions,
            ),
            counted(
                "engine.rows_per_result_row",
                "ratio",
                ratio(self.rows_fetched, self.result_rows.max(1)),
                executions,
            ),
            counted(
                "engine.join_candidates_per_hunt",
                "count",
                per_hunt(self.join_candidates),
                executions,
            ),
            counted(
                "engine.join_selectivity",
                "ratio",
                ratio(self.join_outputs, self.join_candidates),
                executions,
            ),
            counted(
                "engine.matches_per_hunt",
                "count",
                per_hunt(self.matches),
                executions,
            ),
            counted(
                "engine.rows_pruned_per_hunt",
                "rows",
                per_hunt(self.rows_pruned),
                executions,
            ),
            Metric::pct(
                "service.queue_wait_ms_p50",
                "ms",
                &mut self.queue_wait,
                50.0,
            ),
            Metric::pct(
                "service.queue_wait_ms_p90",
                "ms",
                &mut self.queue_wait,
                90.0,
            ),
            Metric::pct("service.job_exec_ms_p50", "ms", &mut self.job_exec, 50.0),
            counted(
                "service.plan_cache_hit_ratio",
                "ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
                (self.cache_hits + self.cache_misses) as usize,
            ),
            Metric::new(
                "service.cache_evictions",
                "count",
                self.cache_evictions as f64,
            ),
            Metric::pct(
                "service.follow_poll_ms_p50",
                "ms",
                &mut self.follow_poll,
                50.0,
            ),
            Metric::pct(
                "service.follow_poll_ms_p90",
                "ms",
                &mut self.follow_poll,
                90.0,
            ),
            counted(
                "service.delta_rows_per_poll",
                "rows",
                ratio(self.delta_rows, self.polls),
                self.polls as usize,
            ),
            Metric::new(
                "service.full_fallback_polls",
                "count",
                self.full_fallback_polls as f64,
            ),
            Metric::pct("service.epoch_lag_p90", "epochs", &mut self.epoch_lag, 90.0),
            Metric::pct("loadgen.late_ms_p90", "ms", &mut self.late, 90.0),
            Metric::new("loadgen.backlog_epochs", "epochs", self.backlog_epochs),
            counted(
                "trace.blocking_share_of_p50",
                "ratio",
                share,
                self.blocking.len(),
            ),
            Metric::new("trace.overhead_frac", "ratio", overhead),
        ];
        debug_assert!(metrics
            .iter()
            .zip(PER_LAYER)
            .all(|(m, (name, unit))| m.name == *name && m.unit == *unit));
        metrics
    }
}
