//! # threatraptor-engine
//!
//! The TBQL query execution engine (paper §II-F).
//!
//! "To execute a TBQL query with multiple patterns, ThreatRaptor compiles
//! each pattern into a semantically equivalent SQL or Cypher data query,
//! and schedules the execution of these data queries in different
//! database backends. … For each pattern, ThreatRaptor computes a
//! *pruning score* by counting the number of constraints declared; a
//! pattern with more constraints has a higher score. For a variable-length
//! event path pattern, ThreatRaptor additionally considers the path
//! length … when scheduling the execution of the data queries,
//! ThreatRaptor considers both the pruning scores and the pattern
//! dependencies: if two patterns are connected by the same system entity,
//! ThreatRaptor will first execute the data query whose associated
//! pattern has a higher pruning score, and then use the execution results
//! to constrain the execution of the other data query (by adding
//! filters)."
//!
//! Modules:
//! * [`compile`] — event patterns → relational select-project-join plans
//!   (with SQL text rendering); path patterns → Cypher text rendering;
//! * [`score`] — pruning scores;
//! * [`exec`] — the scheduler (ordering, constraint propagation,
//!   join, projection), the per-shard event-pattern leaf scans, and the
//!   execution modes used by the efficiency experiments (unscheduled,
//!   relational-only, graph-only);
//! * `path` — the one depth-first path enumerator, over every shard's
//!   adjacency at once;
//! * [`sharded`] — [`ShardedEngine`], the one executor: scatter-gather
//!   over any store's shards ([`Engine`] is its single-store instance);
//! * [`result`] — hunt results, per-pattern matches, and evaluation
//!   against ground truth;
//! * [`explain`] — `EXPLAIN` / `EXPLAIN ANALYZE` reports: the compiled
//!   plan (schedule, filters, predicted fan-out) plus measured actuals
//!   (per-pattern × per-shard rows scanned, propagation prune sizes,
//!   join selectivity, per-stage wall time);
//! * [`delta`] — incremental execution for standing queries: epoch-range
//!   restricted scans joined against retained partial bindings, O(delta)
//!   per poll in the steady state.

pub mod compile;
pub mod delta;
pub mod error;
pub mod exec;
pub mod explain;
mod path;
pub mod result;
pub mod score;
pub mod sharded;

pub use delta::DeltaState;
pub use error::EngineError;
pub use exec::ExecMode;
pub use explain::{ExplainActuals, ExplainEntry, ExplainReport, PatternActuals};
pub use result::{DeltaStats, HuntResult, HuntStats, JoinStats, Match};
pub use sharded::{Engine, ShardedEngine};
