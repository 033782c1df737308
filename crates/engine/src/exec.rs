//! The executor: scheduling, constraint propagation, cross-pattern
//! assembly, and the baseline execution modes.

use crate::compile::{CompiledPattern, CompiledQuery, CompiledShape};
use crate::result::{HuntResult, HuntStats, JoinStats, Match};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use threatraptor_audit::entity::EntityId;
use threatraptor_audit::event::Operation;
use threatraptor_storage::relational::{Predicate, Table, Value};
use threatraptor_storage::store::{AuditStore, TABLE_EVENT};

/// Execution strategies. `Scheduled` is ThreatRaptor's; the others are
/// the baselines of the efficiency experiments (E3/E4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Pruning-score scheduling with constraint propagation across
    /// patterns connected by shared entities (the paper's §II-F design).
    Scheduled,
    /// Declaration order, every pattern executed independently with only
    /// its own filters (no propagation); independent data queries run in
    /// parallel.
    Unscheduled,
    /// Everything through the relational backend: path patterns take
    /// each hop from an event-table `subject` index probe (the join
    /// cascade plain SQL forces you into).
    RelationalOnly,
    /// Everything through the graph backend: event patterns scan edges
    /// without relational indexes.
    GraphOnly,
}

impl ExecMode {
    /// Human-readable label (used by the experiment harnesses).
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Scheduled => "ThreatRaptor (scheduled)",
            ExecMode::Unscheduled => "Unscheduled",
            ExecMode::RelationalOnly => "Relational-only (SQL)",
            ExecMode::GraphOnly => "Graph-only (Cypher)",
        }
    }
}

/// One pattern's data-query output row. Event positions are global:
/// leaf scans return shard-local rows, which the executor translates
/// before joining.
#[derive(Debug, Clone)]
pub(crate) struct PatternRow {
    pub(crate) subject: EntityId,
    pub(crate) object: EntityId,
    pub(crate) events: Vec<usize>,
    pub(crate) start: u64,
    pub(crate) end: u64,
}

/// Event pattern through the relational backend of one shard.
///
/// Access-path selection over the event table's indexes (the paper's
/// "mature indexing mechanisms"): probe by subject ids, by object ids,
/// or by operation — whichever is estimated cheapest — then filter
/// residual conditions. `s_ids`/`o_ids` are the endpoint variables'
/// entity sets, resolved once per pattern by the caller. Rows come back
/// sorted by (shard-local) position.
pub(crate) fn event_via_sql(
    store: &AuditStore,
    pat: &CompiledPattern,
    s_ids: &HashSet<EntityId>,
    o_ids: &HashSet<EntityId>,
) -> Vec<PatternRow> {
    let CompiledShape::Event { ops } = &pat.shape else {
        unreachable!()
    };
    let events = store.db.table(TABLE_EVENT);
    let op_set = op_set(ops);

    // Estimate each access path by exact index-bucket sizes.
    let probe_cost = |col: &str, ids: &HashSet<EntityId>| -> usize {
        ids.iter()
            .map(|id| {
                events
                    .index_get(col, &Value::from(id.0))
                    .map_or(usize::MAX / 4, <[usize]>::len)
            })
            .sum()
    };
    let op_values: Vec<Value> = ops.iter().map(|o| Value::str(o.as_str())).collect();
    let op_cost = op_values
        .iter()
        .map(|v| {
            events
                .index_get("op", v)
                .map_or(usize::MAX / 4, <[usize]>::len)
        })
        .sum();
    let s_cost = probe_cost("subject", s_ids);
    let o_cost = probe_cost("object", o_ids);

    let probe = |col: &str, ids: &HashSet<EntityId>| -> Vec<usize> {
        ids.iter()
            .flat_map(|id| {
                events
                    .index_get(col, &Value::from(id.0))
                    .unwrap_or_default()
                    .iter()
                    .copied()
            })
            .collect()
    };
    let candidates: Vec<usize> = if s_cost <= o_cost && s_cost <= op_cost {
        probe("subject", s_ids)
    } else if o_cost <= op_cost {
        probe("object", o_ids)
    } else {
        events.index_lookup("op", &op_values).unwrap_or_default()
    };

    let mut out = Vec::with_capacity(candidates.len() / 4 + 1);
    for pos in candidates {
        let ev = store.event_at(pos);
        if !op_set.contains(&ev.op) || !s_ids.contains(&ev.subject) || !o_ids.contains(&ev.object) {
            continue;
        }
        if let Some(w) = pat.window {
            if ev.start < w.lo || ev.end > w.hi {
                continue;
            }
        }
        out.push(PatternRow {
            subject: ev.subject,
            object: ev.object,
            events: vec![pos],
            start: ev.start,
            end: ev.end,
        });
    }
    out.sort_by_key(|r| r.events[0]);
    out
}

/// Event pattern through the graph backend of one shard: scan all edges,
/// filter by operation and endpoint sets (no relational indexes — the
/// baseline cost the paper's hybrid design avoids). Rows come back sorted
/// by (shard-local) position.
pub(crate) fn event_via_graph(
    store: &AuditStore,
    pat: &CompiledPattern,
    s_ids: &HashSet<EntityId>,
    o_ids: &HashSet<EntityId>,
) -> Vec<PatternRow> {
    let CompiledShape::Event { ops } = &pat.shape else {
        unreachable!()
    };
    let op_set = op_set(ops);
    // A graph store has no attribute indexes over edges; it scans.
    // The scan is parallelized across worker threads (crossbeam),
    // as a production graph database would — but only when the edge
    // set is large enough to amortize thread spawns. Small scans run
    // sequentially, which also keeps the executor (which invokes this
    // per shard, possibly from its own worker pool) from stacking a
    // third parallelism layer over tiny slices.
    const PARALLEL_SCAN_THRESHOLD: usize = 65_536;
    let n = store.graph.edge_count();
    let workers = if n < PARALLEL_SCAN_THRESHOLD {
        1
    } else {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .clamp(1, 8)
    };
    let chunk = n.div_ceil(workers);
    let mut out: Vec<PatternRow> = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(n));
            let op_set = &op_set;
            handles.push(scope.spawn(move |_| {
                let mut local = Vec::new();
                for idx in lo..hi {
                    let edge = store.graph.edge(idx);
                    if !op_set.contains(&edge.op) {
                        continue;
                    }
                    if let Some(w) = pat.window {
                        if edge.start < w.lo || edge.end > w.hi {
                            continue;
                        }
                    }
                    if !s_ids.contains(&edge.src) || !o_ids.contains(&edge.dst) {
                        continue;
                    }
                    local.push(PatternRow {
                        subject: edge.src,
                        object: edge.dst,
                        events: vec![edge.event_pos],
                        start: edge.start,
                        end: edge.end,
                    });
                }
                local
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("scan worker panicked"))
            .collect()
    })
    .expect("crossbeam scope");
    out.sort_by_key(|r| r.events[0]);
    out
}

fn op_set(ops: &[String]) -> HashSet<Operation> {
    ops.iter()
        .map(|o| o.parse().expect("ops validated"))
        .collect()
}

/// Entity ids in `table` satisfying `var`'s compiled predicate merged
/// with any propagated extra filter — the one resolution routine behind
/// the executor's entity filtering. The executor passes the store-level
/// entity table, so each variable resolves once per pattern, not once per
/// shard.
pub(crate) fn entity_filter_set_in(
    table: &Table,
    cq: &CompiledQuery,
    var: &str,
    extra: &HashMap<String, Predicate>,
) -> HashSet<EntityId> {
    let mut legs = vec![cq.var_predicates[var].clone()];
    if let Some(p) = extra.get(var) {
        legs.push(p.clone());
    }
    let pred = Predicate::and(legs);
    table
        .select(&pred)
        .into_iter()
        .map(|rid| EntityId(table.cell(rid, "id").as_int().expect("id column") as u32))
        .collect()
}

/// One pattern's data query as seen by the scheduling driver: pattern +
/// propagated per-variable filters in, rows out.
pub(crate) type PatternFetch<'a> =
    dyn FnMut(&CompiledPattern, &HashMap<String, Predicate>) -> Vec<PatternRow> + 'a;

/// The scheduling driver (paper §II-F): pruning-score ordering,
/// cross-pattern constraint propagation, join, and projection. The store
/// only enters through the two closures — `fetch` answers one pattern's
/// scatter-gather data query and `entity_attr` resolves projections.
pub(crate) fn run_schedule(
    cq: &CompiledQuery,
    mode: ExecMode,
    fetch: &mut PatternFetch<'_>,
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> HuntResult {
    let t0 = Instant::now();
    let mut stats = HuntStats::default();

    // Execution order.
    let mut order: Vec<&CompiledPattern> = cq.patterns.iter().collect();
    if mode == ExecMode::Scheduled {
        order.sort_by_key(|p| (std::cmp::Reverse(p.score), p.decl_index));
    }

    let mut partial: Option<Vec<Match>> = None;
    for pat in &order {
        // Constraint propagation (scheduled mode only): bindings from
        // already-executed patterns become IN-set filters on shared
        // variables.
        let mut extra: HashMap<String, Predicate> = HashMap::new();
        let mut propagated: Vec<(String, usize)> = Vec::new();
        if mode == ExecMode::Scheduled {
            let t_prop = Instant::now();
            if let Some(ms) = &partial {
                for var in [&pat.subject_var, &pat.object_var] {
                    let ids: HashSet<Value> = ms
                        .iter()
                        .filter_map(|m| m.bindings.get(var))
                        .map(|e| Value::from(e.0))
                        .collect();
                    if !ids.is_empty() {
                        propagated.push((var.clone(), ids.len()));
                        extra.insert(var.clone(), Predicate::InSet("id".into(), ids));
                    }
                }
            }
            stats.propagate_elapsed += t_prop.elapsed();
        }

        let t_fetch = Instant::now();
        let rows = fetch(pat, &extra);
        stats.execution_order.push(pat.id.clone());
        stats.rows_fetched.push((pat.id.clone(), rows.len()));
        stats.propagated.push((pat.id.clone(), propagated));
        stats
            .pattern_elapsed
            .push((pat.id.clone(), t_fetch.elapsed()));

        let t_join = Instant::now();
        let candidates = match &partial {
            Some(ms) => ms.len() * rows.len(),
            None => rows.len(),
        };
        partial = Some(join_rows(cq, partial, rows, pat));
        stats.join_stats.push((
            pat.id.clone(),
            JoinStats {
                candidates,
                outputs: partial.as_ref().map_or(0, Vec::len),
            },
        ));
        stats.join_elapsed += t_join.elapsed();
        if partial.as_ref().is_some_and(Vec::is_empty) {
            // No match can exist; still record remaining patterns as
            // skipped with zero rows for the stats.
            break;
        }
    }

    let matches = partial.unwrap_or_default();
    let t_project = Instant::now();
    let (columns, rows) = project_matches(cq, &matches, entity_attr);
    stats.project_elapsed = t_project.elapsed();
    stats.elapsed = t0.elapsed();
    HuntResult {
        columns,
        rows,
        matches,
        stats,
    }
}

/// Joins a pattern's rows into the partial match set, enforcing
/// shared-entity equality and all decidable temporal constraints. The
/// join is global: it runs after rows are gathered from every shard.
pub(crate) fn join_rows(
    cq: &CompiledQuery,
    partial: Option<Vec<Match>>,
    rows: Vec<PatternRow>,
    pat: &CompiledPattern,
) -> Vec<Match> {
    let same_var = pat.subject_var == pat.object_var;
    let rows: Vec<PatternRow> = rows
        .into_iter()
        .filter(|r| !same_var || r.subject == r.object)
        .collect();

    let Some(partial) = partial else {
        return rows
            .into_iter()
            .map(|r| {
                let mut bindings = HashMap::new();
                bindings.insert(pat.subject_var.clone(), r.subject);
                bindings.insert(pat.object_var.clone(), r.object);
                let mut events = HashMap::new();
                events.insert(pat.id.clone(), r.events);
                let mut times = HashMap::new();
                times.insert(pat.id.clone(), (r.start, r.end));
                Match {
                    bindings,
                    events,
                    times,
                }
            })
            .collect();
    };

    let mut out = Vec::new();
    for m in &partial {
        for r in &rows {
            // Shared-variable equality.
            if let Some(&b) = m.bindings.get(&pat.subject_var) {
                if b != r.subject {
                    continue;
                }
            }
            if let Some(&b) = m.bindings.get(&pat.object_var) {
                if b != r.object {
                    continue;
                }
            }
            // Temporal constraints involving this pattern.
            let ok = cq.before.iter().all(|(a, b)| {
                let ta = if a == &pat.id {
                    Some((r.start, r.end))
                } else {
                    m.times.get(a).copied()
                };
                let tb = if b == &pat.id {
                    Some((r.start, r.end))
                } else {
                    m.times.get(b).copied()
                };
                match (ta, tb) {
                    (Some(x), Some(y)) => x.1 < y.0,
                    _ => true, // undecidable yet
                }
            });
            if !ok {
                continue;
            }
            let mut nm = m.clone();
            nm.bindings.insert(pat.subject_var.clone(), r.subject);
            nm.bindings.insert(pat.object_var.clone(), r.object);
            nm.events.insert(pat.id.clone(), r.events.clone());
            nm.times.insert(pat.id.clone(), (r.start, r.end));
            out.push(nm);
        }
    }
    out
}

/// Projects matches into the result table, resolving entity attributes
/// through `entity_attr`.
pub(crate) fn project_matches(
    cq: &CompiledQuery,
    matches: &[Match],
    entity_attr: &dyn Fn(EntityId, &str) -> Option<String>,
) -> (Vec<String>, Vec<Vec<String>>) {
    let columns: Vec<String> = cq
        .returns
        .iter()
        .map(|(var, attr)| format!("{var}.{attr}"))
        .collect();
    let mut rows: Vec<Vec<String>> = matches
        .iter()
        .map(|m| {
            cq.returns
                .iter()
                .map(|(var, attr)| {
                    entity_attr(m.bindings[var], attr).unwrap_or_else(|| "<none>".into())
                })
                .collect()
        })
        .collect();
    if cq.distinct {
        rows.sort();
        rows.dedup();
    }
    (columns, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::Engine;
    use threatraptor_audit::sim::scenario::{AttackKind, ScenarioBuilder};
    use threatraptor_tbql::parser::FIG2_TBQL;

    fn store() -> AuditStore {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        AuditStore::ingest(&sc.log, true)
    }

    #[test]
    fn fig2_query_finds_the_attack() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let store = AuditStore::ingest(&sc.log, true);
        let engine = Engine::new(&store);
        let result = engine.hunt(FIG2_TBQL).expect("hunt succeeds");
        assert!(!result.is_empty(), "the attack must be found");
        // Exactly the ground-truth chain.
        let (precision, recall) = result.precision_recall(&store, &sc.ground_truth("data_leakage"));
        assert_eq!(precision, 1.0, "no benign events may match");
        assert_eq!(recall, 1.0, "all 8 steps must be matched");
        // The projection mirrors Fig. 2's return clause.
        assert_eq!(result.columns[0], "p1.exename");
        assert!(result.rows.iter().any(|r| r[0] == "/bin/tar"));
    }

    #[test]
    fn all_modes_agree_on_results() {
        let store = store();
        let engine = Engine::new(&store);
        for q in [FIG2_TBQL, "proc p ~>(2~3)[read] file f return p, f"] {
            let scheduled = engine.hunt_mode(q, ExecMode::Scheduled).unwrap();
            assert!(!scheduled.is_empty(), "{q}");
            for mode in [
                ExecMode::Unscheduled,
                ExecMode::RelationalOnly,
                ExecMode::GraphOnly,
            ] {
                let r = engine.hunt_mode(q, mode).unwrap();
                assert_eq!(r.rows, scheduled.rows, "mode {mode:?} must agree on {q}");
            }
        }
    }

    #[test]
    fn scheduled_executes_most_constrained_first() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine.hunt_mode(FIG2_TBQL, ExecMode::Scheduled).unwrap();
        // evt1 (2 filters) and evt8 (2 filters) precede 1-filter patterns.
        let order = &r.stats.execution_order;
        let pos = |id: &str| order.iter().position(|x| x == id).unwrap();
        assert!(pos("evt1") < pos("evt2"));
        assert!(pos("evt8") < pos("evt2"));
        // Unscheduled keeps declaration order.
        let r = engine.hunt_mode(FIG2_TBQL, ExecMode::Unscheduled).unwrap();
        assert_eq!(r.stats.execution_order[0], "evt1");
        assert_eq!(r.stats.execution_order[1], "evt2");
    }

    #[test]
    fn propagation_reduces_fetched_rows() {
        let store = store();
        let engine = Engine::new(&store);
        let scheduled = engine.hunt_mode(FIG2_TBQL, ExecMode::Scheduled).unwrap();
        let unscheduled = engine.hunt_mode(FIG2_TBQL, ExecMode::Unscheduled).unwrap();
        let total = |r: &HuntResult| -> usize { r.stats.rows_fetched.iter().map(|(_, n)| n).sum() };
        assert!(
            total(&scheduled) <= total(&unscheduled),
            "propagation must not fetch more rows ({} vs {})",
            total(&scheduled),
            total(&unscheduled)
        );
    }

    #[test]
    fn temporal_constraints_prune() {
        let store = store();
        let engine = Engine::new(&store);
        // Reversed ordering must not match (bzip2 runs after tar).
        let reversed = "proc p2[\"%/bin/bzip2%\"] read file f2[\"%/tmp/upload.tar%\"] as e1\n\
                        proc p1[\"%/bin/tar%\"] write f2 as e2\n\
                        with e1 before e2\n\
                        return p1, p2";
        let r = engine.hunt(reversed).unwrap();
        assert!(r.is_empty(), "temporal contradiction with reality");
    }

    #[test]
    fn path_patterns_find_multi_hop_flows() {
        let store = store();
        let engine = Engine::new(&store);
        // /etc/passwd flows to the C2 IP through tar→file→bzip2→… chain?
        // A 1~4 hop path from the tar process to a file whose final hop is
        // a write must exist (tar writes /tmp/upload.tar).
        let q = "proc p[\"%/bin/tar%\"] ~>(1~2)[write] file f[\"%/tmp/upload.tar%\"] as pp1\n\
                 return p, f";
        let r = engine.hunt(q).unwrap();
        assert!(!r.is_empty());
        // Graph and SQL expansion agree.
        let sql = engine.hunt_mode(q, ExecMode::RelationalOnly).unwrap();
        assert_eq!(r.rows, sql.rows);
    }

    #[test]
    fn empty_result_for_absent_behavior() {
        let store = store();
        let engine = Engine::new(&store);
        let r = engine
            .hunt("proc p[\"%/bin/ghost%\"] read file f return p")
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(r.precision_recall(&store, &[]), (1.0, 1.0));
    }

    #[test]
    fn semantic_errors_propagate() {
        let store = store();
        let engine = Engine::new(&store);
        let err = engine.hunt("file x read file f return f").unwrap_err();
        assert!(matches!(err, EngineError::Semantic(_)));
    }

    #[test]
    fn window_restricts_matches() {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage])
            .target_events(5_000)
            .build();
        let store = AuditStore::ingest(&sc.log, true);
        let engine = Engine::new(&store);
        // The attack happens somewhere inside the scenario; a window
        // ending at t=1 excludes it.
        let q =
            "proc p[\"%/bin/tar%\"] read file f[\"%/etc/passwd%\"] as e1 window [0, 1] return p";
        let r = engine.hunt(q).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn self_loop_patterns_require_same_entity() {
        let store = store();
        let engine = Engine::new(&store);
        // `p fork p` would require a process forking itself — none exist.
        let r = engine.hunt("proc p fork p as e1 return p").unwrap();
        assert!(r.is_empty());
    }
}
