//! TEESec: pre-silicon vulnerability discovery for trusted execution
//! environments — a full Rust reproduction of the ISCA 2023 paper.
//!
//! The framework jointly verifies a TEE (a Keystone-like security monitor,
//! `teesec-tee`) and the microarchitecture underneath it (a cycle-driven
//! out-of-order RISC-V core model, `teesec-uarch`) against two security
//! principles:
//!
//! * **P1** — no enclave data may be fetched into or remain in CPU
//!   microarchitectural state when the CPU is not in trusted enclave
//!   execution mode;
//! * **P2** — microarchitectural state influenced by enclave code must not
//!   affect the execution of any non-enclave code.
//!
//! The three framework components mirror the paper's architecture:
//!
//! 1. [`plan`] — the **Verification Plan**: storage-element inventory,
//!    the thirteen data + two metadata access paths ([`paths`]) with their
//!    permission-check policies, and the TEE API profile;
//! 2. [`gadgets`] / [`assemble`] / [`fuzz`] — the **Test Gadget
//!    Constructor**: 8 setup + 12 helper + 15 access gadgets composed into
//!    valid test cases by an execution-model-aware assembler and widened by
//!    a parameter fuzzer (585 cases by default, as in Table 2);
//! 3. [`runner`] / [`checker`] — the **TEESec Checker**: runs each case on
//!    the simulated platform and scans the per-cycle trace plus the final
//!    microarchitectural snapshot for secrets (hash-of-address values,
//!    [`secret`]) and metadata residue, classifying findings into the
//!    paper's D1–D8 / M1–M2 cases ([`report`]).
//!
//! [`campaign`] drives the full generate → simulate → check pipeline and
//! produces the paper's Table 3 vulnerability matrix; [`engine`] executes
//! corpora on a fault-isolated, work-stealing worker pool with a JSONL
//! event stream and aggregate metrics. Deep observability rides on top:
//! [`provenance`] holds each finding's *secret write → retention →
//! observation* chain, which the checker builds from the trace,
//! [`coverage`] maps which of the plan's structure × transition ×
//! observer cells a campaign actually exercised (plus secret-residency
//! windows), and [`metrics`] exposes campaign aggregates as
//! Prometheus-text and JSON snapshots.
//!
//! # Example
//!
//! ```no_run
//! use teesec::campaign::{vulnerability_matrix, Campaign};
//! use teesec::fuzz::Fuzzer;
//! use teesec_uarch::CoreConfig;
//!
//! let (boom, _) = Campaign::new(CoreConfig::boom(), Fuzzer::with_target(60)).run();
//! let (xs, _) = Campaign::new(CoreConfig::xiangshan(), Fuzzer::with_target(60)).run();
//! println!("{}", vulnerability_matrix(&[&boom, &xs]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod campaign;
pub mod checker;
pub mod coverage;
pub mod diff;
pub mod engine;
pub mod fuzz;
pub mod gadgets;
pub mod metrics;
pub mod minimize;
pub mod paths;
pub mod plan;
pub mod provenance;
pub mod report;
pub mod runner;
pub mod secret;
pub mod simlog;
pub mod stream;
pub mod testcase;

pub use campaign::{Campaign, CampaignResult};
pub use checker::{check_case, check_case_coverage};
pub use coverage::{
    CaseCoverage, CellKey, CoverageCell, ObserverKind, PlanCoverage, ResidencyWindow,
    StructureResidency, TransitionPoint,
};
pub use diff::{diff_case, DiffOptions, DiffVerdict, Divergence};
pub use engine::{
    CheckpointOptions, DiffMetrics, Engine, EngineEvent, EngineMetrics, EngineOptions, EventSink,
    ObsMetrics,
};
pub use fuzz::Fuzzer;
pub use metrics::campaign_snapshot;
pub use minimize::{minimize_case, Minimized};
pub use paths::AccessPath;
pub use plan::VerificationPlan;
pub use provenance::{ProvenanceChain, ProvenanceHop};
pub use report::{CheckReport, Finding, LeakClass, Principle};
pub use runner::{
    run_case, run_case_opts, BuildKind, RunOptions, SnapshotCache, SnapshotCacheMetrics,
};
pub use stream::StreamingChecker;
pub use testcase::TestCase;
