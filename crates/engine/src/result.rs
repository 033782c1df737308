//! Hunt results: bindings, matched events, evaluation helpers.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::time::Duration;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::EventId;
use threatraptor_storage::store::EventLookup;

/// One complete match of all patterns: entity bindings plus the events
/// that witnessed each pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Entity variable → bound entity.
    pub bindings: HashMap<String, EntityId>,
    /// Pattern id → witnessing event positions (into the store's event
    /// vector); one for event patterns, one per hop for path patterns.
    pub events: HashMap<String, Vec<usize>>,
    /// Pattern id → `(start, end)` window of the witnessing events.
    pub times: HashMap<String, (u64, u64)>,
}

/// Candidate/output row counts of one pattern's join step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Row pairs considered: `|partial| × |fetched|` (just `|fetched|`
    /// for the first pattern, which seeds the partial set).
    pub candidates: usize,
    /// Partial matches surviving the join.
    pub outputs: usize,
}

impl JoinStats {
    /// Output/candidate ratio in `[0, 1]`; zero candidates yield 0.
    pub fn selectivity(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.outputs as f64 / self.candidates as f64
        }
    }
}

/// Actuals of one incremental (delta-mode) execution, carried on
/// [`HuntStats::delta`] when the hunt ran through the delta path
/// ([`crate::delta::DeltaState`]) instead of a full re-execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// First global event position scanned as "fresh": the epoch-delta
    /// range was `[fresh_from, event_count)`. Zero means the poll was a
    /// (first-poll or post-discontinuity) full re-execution.
    pub fresh_from: usize,
    /// Rows fetched from the fresh range across all patterns (the seed
    /// scans) — the quantity that stays O(delta) as the store grows.
    pub fresh_rows: usize,
    /// Rows fetched by carry scans (full-range, IN-set-filtered scans
    /// joining an upstream delta forward through later patterns).
    pub carry_rows: usize,
    /// Retained partial bindings consulted by this poll.
    pub carried_partials: usize,
    /// Partial bindings retained after this poll.
    pub retained_partials: usize,
}

/// Execution statistics.
#[derive(Debug, Clone, Default)]
pub struct HuntStats {
    /// Pattern ids in the order they were executed.
    pub execution_order: Vec<String>,
    /// Rows produced by each pattern's data query, in execution order.
    pub rows_fetched: Vec<(String, usize)>,
    /// Rows scanned per shard for each pattern, in execution order (one
    /// entry per shard; a single store is one shard).
    pub shard_rows: Vec<(String, Vec<usize>)>,
    /// Rows excluded per pattern by the DBM-derived feasible-range
    /// clamp, in execution order (zero for patterns without tightened
    /// bounds). The `engine_rows_pruned_total{pattern}` metric is bumped
    /// from these same counts, so EXPLAIN ANALYZE actuals and the metric
    /// agree by construction.
    pub rows_pruned: Vec<(String, usize)>,
    /// Constraint-propagation pruning per pattern, in execution order:
    /// for each variable that received a propagated IN-set filter, the
    /// number of already-bound entity ids pushed down (empty when no
    /// propagation applied — first pattern, or independent mode).
    pub propagated: Vec<(String, Vec<(String, usize)>)>,
    /// Join candidate/output counts per pattern, in execution order.
    pub join_stats: Vec<(String, JoinStats)>,
    /// Wall time spent in each pattern's data query (the scan), in
    /// execution order.
    pub pattern_elapsed: Vec<(String, Duration)>,
    /// Wall time building cross-pattern IN-set filters (constraint
    /// propagation; zero in independent mode).
    pub propagate_elapsed: Duration,
    /// Wall time joining fetched rows into the partial match set.
    pub join_elapsed: Duration,
    /// Wall time projecting matches into output rows.
    pub project_elapsed: Duration,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Present when this execution ran through the incremental (delta)
    /// path: the fresh-range and retained-partial actuals. `None` for
    /// full executions.
    pub delta: Option<DeltaStats>,
}

impl HuntStats {
    /// Total wall time across all pattern scans.
    pub fn scan_elapsed(&self) -> Duration {
        self.pattern_elapsed.iter().map(|(_, d)| *d).sum()
    }

    /// Total rows fetched across all patterns.
    pub fn total_rows(&self) -> usize {
        self.rows_fetched.iter().map(|(_, n)| n).sum()
    }

    /// Total rows excluded by the DBM feasible-range clamp.
    pub fn total_rows_pruned(&self) -> usize {
        self.rows_pruned.iter().map(|(_, n)| n).sum()
    }

    /// Records the per-stage breakdown into a [`TraceSink`] (one
    /// sample per stage: `scan`, `propagate`, `join`, `project`).
    ///
    /// [`TraceSink`]: threatraptor_obs::TraceSink
    pub fn record_stages(&self, sink: &threatraptor_obs::TraceSink) {
        sink.record("scan", self.scan_elapsed());
        sink.record("propagate", self.propagate_elapsed);
        sink.record("join", self.join_elapsed);
        sink.record("project", self.project_elapsed);
    }
}

/// The result of executing a TBQL query.
#[derive(Debug, Clone)]
pub struct HuntResult {
    /// Projected column names (`p1.exename`, …).
    pub columns: Vec<String>,
    /// Projected rows (deduplicated when the query says `distinct`).
    pub rows: Vec<Vec<String>>,
    /// Full matches (before projection).
    pub matches: Vec<Match>,
    /// Statistics.
    pub stats: HuntStats,
}

impl HuntResult {
    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// All matched event ids (original ids, stable across CPR). Works
    /// over any store the result was produced against: a single
    /// `AuditStore` (positions are table rows) or a `ShardedStore`
    /// (positions are global).
    pub fn matched_event_ids(&self, store: &impl EventLookup) -> BTreeSet<EventId> {
        self.matches
            .iter()
            .flat_map(|m| m.events.values().flatten())
            .map(|&pos| store.event_at(pos).id)
            .collect()
    }

    /// Precision/recall of matched events against ground truth.
    ///
    /// Returns `(precision, recall)`; empty result sets yield precision 1
    /// when nothing was expected, 0 otherwise.
    pub fn precision_recall(
        &self,
        store: &impl EventLookup,
        ground_truth: &[EventId],
    ) -> (f64, f64) {
        let got = self.matched_event_ids(store);
        let want: BTreeSet<EventId> = ground_truth.iter().copied().collect();
        let tp = got.intersection(&want).count() as f64;
        let precision = if got.is_empty() {
            if want.is_empty() {
                1.0
            } else {
                0.0
            }
        } else {
            tp / got.len() as f64
        };
        let recall = if want.is_empty() {
            1.0
        } else {
            tp / want.len() as f64
        };
        (precision, recall)
    }

    /// Renders the projected rows as an aligned text table (the "system
    /// auditing records" panel of the demo UI).
    pub fn render_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                out.push('+');
                out.push_str(&"-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, c) in self.columns.iter().enumerate() {
            write!(out, "| {c:<w$} ", w = widths[i]).unwrap();
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(out, "| {cell:<w$} ", w = widths[i]).unwrap();
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_rows(rows: Vec<Vec<String>>) -> HuntResult {
        HuntResult {
            columns: vec!["p1.exename".into(), "f1.name".into()],
            rows,
            matches: Vec::new(),
            stats: HuntStats::default(),
        }
    }

    #[test]
    fn table_rendering_aligns() {
        let r = result_with_rows(vec![
            vec!["/bin/tar".into(), "/etc/passwd".into()],
            vec!["/usr/bin/gpg".into(), "/tmp/upload".into()],
        ]);
        let t = r.render_table();
        assert!(t.contains("| p1.exename   |"));
        assert!(t.contains("| /bin/tar     |"));
        let lines: Vec<&str> = t.lines().collect();
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len), "{t}");
    }

    #[test]
    fn empty_result() {
        let r = result_with_rows(vec![]);
        assert!(r.is_empty());
        let t = r.render_table();
        assert!(t.contains("p1.exename"));
    }
}
