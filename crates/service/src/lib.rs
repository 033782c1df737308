//! # threatraptor-service
//!
//! The multi-hunt execution service: everything between "one parsed log,
//! one query at a time" and "a store serving heavy concurrent hunt
//! traffic".
//!
//! The reproduction's base pipeline (paper Fig. 1) is strictly
//! single-hunt: one [`AuditStore`], one query, one result. Production
//! threat hunting is not — intelligence arrives continuously, analysts
//! and automation hunt concurrently, and the same queries recur across
//! time windows and re-runs. This crate adds that layer:
//!
//! * [`job::HuntJob`] — a unit of hunt work: raw OSCTI text *or* TBQL;
//! * [`cache::PlanCache`] — compiled plans keyed by normalized query
//!   text, plus memoized report synthesis (keyed by content hash),
//!   shared by all workers, with LRU eviction on both maps;
//! * [`pool::WorkerPool`] — detached worker threads draining one bounded
//!   task queue: backpressure on overflow, panic isolation, graceful
//!   drain-then-join shutdown;
//! * [`ingest::IngestService`] — a thread-safe front-end over a
//!   [`StreamingStore`] accepting appended log chunks while hunts run
//!   against immutable snapshots, with epoch notification hooks for
//!   event-driven consumers;
//! * [`follow::FollowHunt`] — standing queries over a growing store:
//!   poll with successive snapshots, get only the newly appeared matches
//!   (exactly-once per match identity) merged into a running result;
//! * [`server::HuntServer`] — the one serving type, over all of the
//!   above: a persistent job queue with completion handles, and standing
//!   queries driven by ingest events through per-subscription channels
//!   instead of explicit polls. A pre-built store is served by appending
//!   it as one chunk and sealing it (see `ThreatRaptor::service` in the
//!   `threatraptor` crate);
//! * [`profile::HuntProfile`] — per-job execution profiles (trace tree
//!   plus headline timings), retained worst-N by latency in the
//!   server's slow-hunt log.
//!
//! Execution inside each job uses
//! [`threatraptor_engine::ShardedEngine`], whose scatter-gather returns
//! identical results for every shard count (fan-out happens at the
//! data-query level; joins stay global).
//!
//! [`AuditStore`]: threatraptor_storage::AuditStore
//! [`StreamingStore`]: threatraptor_storage::StreamingStore

pub mod cache;
pub mod follow;
pub mod ingest;
pub mod job;
pub mod pool;
pub mod profile;
pub mod server;

pub use cache::{normalize_tbql, CacheStats, CachedPlan, PlanCache, ReportKey};
pub use follow::{FollowDelta, FollowHunt};
pub use ingest::{IngestConfig, IngestService, IngestStatus};
pub use job::{HuntJob, JobReport, ServiceError};
pub use pool::{SubmitError, WorkerPool};
pub use profile::HuntProfile;
pub use server::{FollowEvent, FollowSubscription, HuntServer, JobHandle, JobId, ServerConfig};
