//! The MAGE engine: a multi-agent system for automated RTL code
//! generation (DAC 2025 reproduction).
//!
//! This crate is the paper's primary contribution: four specialized
//! agents (testbench generation, RTL generation, judging, debugging)
//! orchestrated by the five-step workflow of §III-A, with
//! high-temperature candidate sampling and mismatch-score ranking
//! (§III-B, Eqs. 1–4) and the Verilog-state-checkpoint debugging
//! mechanism (§III-C, Eqs. 5–6).
//!
//! * [`Mage`] — the engine, generic over any [`mage_llm::RtlLanguageModel`];
//! * [`MageConfig`] / [`SystemKind`] — the paper's configurations and the
//!   ablation protocols (vanilla / single-agent / two-agent / multi-agent);
//! * [`experiments`] — the evaluation harness and drivers regenerating
//!   every table and figure of §IV;
//! * [`metrics`] — the unbiased pass@k estimator (Eq. 7);
//! * [`casestudy`] — the Fig. 3 checkpoint-debugging case study.
//!
//! # Quickstart
//!
//! ```
//! use mage_core::{Mage, MageConfig, Task};
//! use mage_llm::{SyntheticModel, SyntheticModelConfig};
//! use mage_problems::by_id;
//!
//! let problem = by_id("prob010_mux2").expect("corpus problem");
//! let mut model = SyntheticModel::new(SyntheticModelConfig::default(), 42);
//! model.register(problem.id, problem.oracle(42));
//!
//! let mut engine = Mage::new(&mut model, MageConfig::high_temperature());
//! let trace = engine.solve(&Task { id: problem.id, spec: problem.spec });
//! assert!(trace.final_score > 0.0);
//! println!("solved with score {:.3}", trace.final_score);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod casestudy;
mod config;
mod engine;
pub mod experiments;
pub mod metrics;
pub mod solvejob;
pub mod tables;
pub mod tier;
pub mod units;

pub use config::{MageConfig, SystemKind};
pub use engine::{
    compile, compile_pooled, compile_with_provider, compile_with_units, Candidate, JobOutcome,
    Mage, SolveTrace, Task,
};
pub use solvejob::{
    execute_sim, execute_sim_pooled, execute_sim_with, PendingWork, SimOutcome, SimRequest,
    SolveJob, SolveStep, StepInput,
};
pub use tier::{CacheTierStats, TieredLru};
pub use units::{SolveUnits, UnitCache, DEFAULT_UNIT_CAPACITY};
