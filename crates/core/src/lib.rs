//! # ThreatRaptor
//!
//! A reproduction of **ThreatRaptor** (Gao et al., ICDE 2021): a system
//! that facilitates cyber threat hunting in computer systems using
//! open-source Cyber Threat Intelligence (OSCTI).
//!
//! The full pipeline (paper Fig. 1):
//!
//! ```text
//! OSCTI report ──► threat behavior extraction ──► threat behavior graph
//!                                                        │
//!                                                        ▼
//! system audit logs ──► parsing ──► storage ◄── TBQL query synthesis
//!                                     │                  │
//!                                     ▼                  ▼
//!                             query execution ◄── TBQL query
//!                                     │
//!                                     ▼
//!                         matched system auditing records
//! ```
//!
//! # Quickstart
//!
//! ```
//! use threatraptor::prelude::*;
//!
//! // 1. Obtain audit logs (here: the built-in host simulator).
//! let scenario = ScenarioBuilder::new()
//!     .seed(42)
//!     .attacks(&[AttackKind::DataLeakage])
//!     .target_events(3_000)
//!     .build();
//!
//! // 2. Build the hunting system over the parsed logs.
//! let raptor = ThreatRaptor::from_parsed(&scenario.log, true);
//!
//! // 3. Hunt directly from threat-intelligence text.
//! let outcome = raptor
//!     .hunt_report(threatraptor::FIG2_OSCTI_TEXT)
//!     .expect("the described behavior is present");
//! assert!(!outcome.result.is_empty());
//! println!("{}", outcome.tbql);
//! println!("{}", outcome.result.render_table());
//! ```

pub use threatraptor_audit as audit;
pub use threatraptor_engine as engine;
pub use threatraptor_nlp as nlp;
pub use threatraptor_obs as obs;
pub use threatraptor_service as service;
pub use threatraptor_storage as storage;
pub use threatraptor_synth as synth;
pub use threatraptor_tbql as tbql;

pub use threatraptor_audit::feed::{ChunkBy, LogFeed};
pub use threatraptor_audit::parser::{LogChunk, ParseError, ParsedLog};
pub use threatraptor_engine::{Engine, EngineError, ExecMode, HuntResult, ShardedEngine};
pub use threatraptor_nlp::pipeline::FIG2_OSCTI_TEXT;
pub use threatraptor_nlp::{ExtractionResult, ThreatBehaviorGraph, ThreatExtractor};
pub use threatraptor_obs::{JsonValue, MetricsSnapshot, Registry, TraceSink};
pub use threatraptor_service::{
    FollowDelta, FollowEvent, FollowHunt, FollowSubscription, HuntJob, HuntServer, IngestConfig,
    IngestService, JobHandle, JobId, JobReport, ServerConfig,
};
pub use threatraptor_storage::{AuditStore, SealPolicy, ShardedStore, StreamingStore};
pub use threatraptor_synth::{synthesize, synthesize_with_plan, SynthesisError, SynthesisPlan};
pub use threatraptor_tbql::parser::FIG2_TBQL;

use std::fmt;

/// Common imports for ThreatRaptor applications.
pub mod prelude {
    pub use crate::{HuntOutcome, ThreatRaptor, ThreatRaptorError};
    pub use threatraptor_audit::feed::{ChunkBy, LogFeed};
    pub use threatraptor_audit::sim::scenario::{AttackKind, BenignMix, ScenarioBuilder};
    pub use threatraptor_engine::{Engine, ExecMode, HuntResult, ShardedEngine};
    pub use threatraptor_nlp::{ThreatBehaviorGraph, ThreatExtractor};
    pub use threatraptor_service::{
        FollowHunt, HuntJob, HuntServer, IngestConfig, IngestService, ServerConfig,
    };
    pub use threatraptor_storage::{AuditStore, SealPolicy, ShardedStore, StreamingStore};
    pub use threatraptor_synth::{DefaultPlan, PathPatternPlan, TimeWindowPlan};
    pub use threatraptor_tbql::printer::print_query;
}

/// Errors from the end-to-end pipeline.
#[derive(Debug)]
pub enum ThreatRaptorError {
    /// Raw audit log parsing failed.
    Parse(ParseError),
    /// No TBQL query could be synthesized from the report.
    Synthesis(SynthesisError),
    /// Query execution failed.
    Engine(EngineError),
}

impl fmt::Display for ThreatRaptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreatRaptorError::Parse(e) => write!(f, "log parsing: {e}"),
            ThreatRaptorError::Synthesis(e) => write!(f, "query synthesis: {e}"),
            ThreatRaptorError::Engine(e) => write!(f, "query execution: {e}"),
        }
    }
}

impl std::error::Error for ThreatRaptorError {}

impl From<ParseError> for ThreatRaptorError {
    fn from(e: ParseError) -> Self {
        ThreatRaptorError::Parse(e)
    }
}

impl From<SynthesisError> for ThreatRaptorError {
    fn from(e: SynthesisError) -> Self {
        ThreatRaptorError::Synthesis(e)
    }
}

impl From<EngineError> for ThreatRaptorError {
    fn from(e: EngineError) -> Self {
        ThreatRaptorError::Engine(e)
    }
}

/// Result of an end-to-end hunt from an OSCTI report.
#[derive(Debug)]
pub struct HuntOutcome {
    /// The extraction result (threat behavior graph, IOC table, timings).
    pub extraction: ExtractionResult,
    /// The synthesized TBQL query (AST).
    pub query: tbql::ast::Query,
    /// The synthesized TBQL query (canonical text).
    pub tbql: String,
    /// The matched system auditing records.
    pub result: HuntResult,
}

/// The ThreatRaptor system: an audit store plus the OSCTI-to-query
/// pipeline.
#[derive(Debug, Clone)]
pub struct ThreatRaptor {
    store: AuditStore,
}

impl ThreatRaptor {
    /// Builds the system from raw Sysdig-like audit log text.
    ///
    /// `cpr` enables Causality-Preserved Reduction during ingestion
    /// (paper §II-B).
    pub fn from_raw_log(raw: &str, cpr: bool) -> Result<ThreatRaptor, ThreatRaptorError> {
        let log = audit::parser::Parser::new().parse_document(raw)?;
        Ok(Self::from_parsed(&log, cpr))
    }

    /// Builds the system from an already parsed log.
    pub fn from_parsed(log: &ParsedLog, cpr: bool) -> ThreatRaptor {
        ThreatRaptor {
            store: AuditStore::ingest(log, cpr),
        }
    }

    /// The underlying audit store.
    pub fn store(&self) -> &AuditStore {
        &self.store
    }

    /// Extracts a threat behavior graph from OSCTI text (Algorithm 1).
    pub fn extract(&self, oscti: &str) -> ExtractionResult {
        ThreatExtractor::new().extract(oscti)
    }

    /// Executes a TBQL query (scheduled strategy).
    pub fn hunt(&self, tbql_src: &str) -> Result<HuntResult, ThreatRaptorError> {
        Ok(Engine::new(&self.store).hunt(tbql_src)?)
    }

    /// Executes a TBQL query with an explicit strategy.
    pub fn hunt_mode(
        &self,
        tbql_src: &str,
        mode: ExecMode,
    ) -> Result<HuntResult, ThreatRaptorError> {
        Ok(Engine::new(&self.store).hunt_mode(tbql_src, mode)?)
    }

    /// End-to-end hunt: OSCTI text → behavior graph → synthesized TBQL →
    /// matched auditing records (the complete Fig. 2 pipeline).
    pub fn hunt_report(&self, oscti: &str) -> Result<HuntOutcome, ThreatRaptorError> {
        self.hunt_report_with_plan(oscti, &synth::DefaultPlan)
    }

    /// Starts a [`HuntServer`] over this system's (already reduced)
    /// store: the store is appended as one chunk and sealed, and the
    /// server runs concurrent hunts on its worker pool with a shared
    /// compiled-plan cache. Appends through the server extend the store
    /// as with any live server.
    ///
    /// `config.ingest.cpr` is ignored on this path: the store's own
    /// reduction setting is kept, so the server's `status().reduction`
    /// reads before == after and the facade's reduction stays in
    /// `self.store().reduction`.
    ///
    /// ```
    /// use threatraptor::prelude::*;
    ///
    /// let scenario = ScenarioBuilder::new().seed(42).target_events(3_000).build();
    /// let raptor = ThreatRaptor::from_parsed(&scenario.log, true);
    /// let server = raptor.service(ServerConfig::default().workers(2));
    /// let handles = [
    ///     server.submit(HuntJob::report(threatraptor::FIG2_OSCTI_TEXT)),
    ///     server.submit(HuntJob::tbql(threatraptor::FIG2_TBQL)),
    /// ];
    /// for handle in &handles {
    ///     assert!(!handle.wait().outcome.unwrap().is_empty());
    /// }
    /// ```
    pub fn service(&self, config: ServerConfig) -> HuntServer {
        let server = HuntServer::new(ServerConfig {
            ingest: config.ingest.no_cpr(),
            ..config
        });
        server.append(&LogChunk {
            new_entities: self.store.entities.to_vec(),
            events: self.store.events.clone(),
        });
        server.seal();
        server
    }

    /// End-to-end hunt with a custom synthesis plan.
    pub fn hunt_report_with_plan(
        &self,
        oscti: &str,
        plan: &dyn SynthesisPlan,
    ) -> Result<HuntOutcome, ThreatRaptorError> {
        let extraction = self.extract(oscti);
        let query = synthesize_with_plan(&extraction.graph, plan)?;
        let tbql_text = tbql::printer::print_query(&query);
        let result = Engine::new(&self.store).hunt_query(&query, ExecMode::Scheduled)?;
        Ok(HuntOutcome {
            extraction,
            query,
            tbql: tbql_text,
            result,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    fn raptor() -> (ThreatRaptor, audit::sim::scenario::Scenario) {
        let sc = ScenarioBuilder::new()
            .seed(42)
            .attacks(&[AttackKind::DataLeakage, AttackKind::PasswordCrack])
            .target_events(5_000)
            .build();
        (ThreatRaptor::from_parsed(&sc.log, true), sc)
    }

    #[test]
    fn end_to_end_fig2() {
        let (raptor, sc) = raptor();
        let outcome = raptor.hunt_report(FIG2_OSCTI_TEXT).expect("hunt succeeds");
        assert_eq!(outcome.extraction.graph.node_count(), 9);
        assert!(outcome.tbql.contains("%/bin/tar%"));
        let (p, r) = outcome
            .result
            .precision_recall(raptor.store(), &sc.ground_truth("data_leakage"));
        assert_eq!((p, r), (1.0, 1.0));
    }

    #[test]
    fn from_raw_log_round_trip() {
        let sc = ScenarioBuilder::new().seed(7).target_events(1_000).build();
        let raptor = ThreatRaptor::from_raw_log(&sc.raw, false).unwrap();
        assert_eq!(raptor.store().event_count(), sc.log.events.len());
        let bad = ThreatRaptor::from_raw_log("not\ta\tlog", false);
        assert!(matches!(bad, Err(ThreatRaptorError::Parse(_))));
    }

    #[test]
    fn direct_tbql_hunting() {
        let (raptor, _) = raptor();
        let result = raptor.hunt(FIG2_TBQL).unwrap();
        assert!(!result.is_empty());
        let err = raptor.hunt("syntactically broken").unwrap_err();
        assert!(matches!(err, ThreatRaptorError::Engine(_)));
    }

    #[test]
    fn service_facade_matches_direct_hunting() {
        let (raptor, sc) = raptor();
        let server = raptor.service(ServerConfig::default().workers(2));
        let snapshot = server.snapshot();
        assert_eq!(snapshot.event_count(), raptor.store().event_count());
        // The store arrives reduced; the server applies no second CPR pass.
        let status = server.status();
        assert_eq!(status.reduction.before, status.reduction.after);
        let direct = raptor.hunt(FIG2_TBQL).unwrap();
        let served = server.hunt(FIG2_TBQL).unwrap();
        assert_eq!(served.rows, direct.rows);
        let truth = sc.ground_truth("data_leakage");
        let (p, r) = served.precision_recall(&snapshot, &truth);
        assert_eq!((p, r), direct.precision_recall(raptor.store(), &truth));
        assert_eq!((p, r), (1.0, 1.0));
    }

    #[test]
    fn synthesis_failure_surfaces() {
        let (raptor, _) = raptor();
        let err = raptor
            .hunt_report("Nothing interesting happened today.")
            .unwrap_err();
        assert!(matches!(err, ThreatRaptorError::Synthesis(_)));
        assert!(err.to_string().contains("synthesis"));
    }
}
