//! # threatraptor-bench
//!
//! Benchmark and experiment harness for the ThreatRaptor reproduction.
//!
//! The demo paper carries no numbered result tables (see DESIGN.md); this
//! crate regenerates (a) the Fig. 2 end-to-end case study and (b) the
//! full-length paper's evaluation suite reconstructed from its experiment
//! design:
//!
//! | experiment | binary |
//! |---|---|
//! | E1 Fig. 2 case study          | `exp_e1` |
//! | E2 extraction accuracy        | `exp_e2` |
//! | E3 query-execution efficiency | `exp_e3` |
//! | E4 scheduling scaling         | `exp_e4` |
//! | E5 query conciseness          | `exp_e5` |
//! | E6 CPR data reduction         | `exp_e6` |
//! | E7 NLP pipeline throughput    | `exp_e7` |
//! | E8 synthesis correctness      | `exp_e8` |
//! | E9 concurrent hunt throughput | `exp_e9` |
//! | E10 streaming ingest & hunt-under-ingest | `exp_e10` |
//! | E11 live serving on the hunt server | `exp_e11` |
//!
//! Shared infrastructure: the annotated OSCTI [`corpus`], the per-attack
//! [`cases`] (report text + ground truth + reference queries), the
//! hand-written [`reference`] SQL/Cypher/TBQL texts, evaluation
//! [`metrics`], and table [`fmt`]ting.

pub mod cases;
pub mod corpus;
pub mod fmt;
pub mod metrics;
pub mod reference;
pub mod suite;

pub use cases::{all_cases, AttackCase};
pub use corpus::{corpus, CorpusReport, GoldIoc, GoldRelation};
pub use metrics::{extraction_scores, Prf};
pub use suite::{run_case, run_suite, CaseResult, EngineKind, Workload};
