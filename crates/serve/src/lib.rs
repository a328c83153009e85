//! `mage-serve`: a concurrent solve-job engine over the resumable MAGE
//! state machine — many solves in flight, batched LLM dispatch, shared
//! simulation results, deterministic answers.
//!
//! # The state-machine protocol
//!
//! A solve is a [`mage_core::SolveJob`]: a plain value that yields, one
//! at a time, the external effects it needs —
//!
//! ```text
//!   NeedLlm(LlmRequest)  — a model call (owned; queueable; batchable)
//!   NeedSim(SimRequest)  — compile and/or score a candidate
//!   Done(SolveTrace)     — terminal
//! ```
//!
//! — and consumes their answers through `advance(StepInput)`. Because a
//! job never blocks, the [`ServeEngine`] can interleave hundreds of
//! them. *How* they interleave is the scheduler mode
//! ([`ServeOptions::sched`]).
//!
//! # The wave scheduler (default, [`SchedMode::Wave`])
//!
//! Jobs live in per-need queues. Each iteration:
//!
//! 1. *Wave boundary*: drain the streaming [`JobIntake`], re-enqueue
//!    restored checkpoints' parked requests, admit queued jobs up to
//!    `max_in_flight` (job order).
//! 2. *Advance* every job holding a resolved input once; each new need
//!    parks as [`mage_core::PendingWork`] in the LLM or sim queue; jobs
//!    that finish retire with their [`mage_core::SolveTrace`].
//! 3. *Launch*: if the sim pool is idle, the whole sim queue leaves as
//!    one **background wave** on `workers` threads (compiling through
//!    the shared [`DesignCache`], scoring through the [`ScoreCache`]).
//! 4. *Dispatch point*: whenever the LLM queue is non-empty it is cut
//!    as **one** coalesced [`LlmService`] batch — while the sim wave
//!    keeps crunching underneath. Only an empty LLM queue joins the
//!    wave. Sim latency thus hides under LLM latency instead of
//!    alternating with it; [`ServeStats::overlap_steps`] counts how
//!    often that overlap actually happened.
//!
//! # The BSP oracle ([`SchedMode::Bsp`])
//!
//! The original bulk-synchronous engine, kept verbatim as the
//! differential oracle: every job advances once per round, then the
//! round's LLM batch dispatches, then the round's sims run — each phase
//! a global barrier, so sim time and LLM time strictly alternate.
//!
//! # Determinism
//!
//! In both modes the *schedule* — which requests coalesce into which
//! batch, and in which order — is a pure function of job states and
//! queue contents, never of thread timing: the wave scheduler joins its
//! background sim wave only at deterministically chosen points (an
//! empty LLM queue, a checkpoint), never by polling for completion.
//! With per-job models ([`PerJobModels`], one independently seeded
//! backend per job) every trace is bit-identical whether the engine
//! runs with 1, 2 or 8 workers, in wave or BSP mode, and identical to
//! driving each job alone through [`mage_core::Mage::solve`]. The
//! determinism suite sweeps exactly this grid.
//!
//! # Streaming admission
//!
//! With the global round barrier gone, jobs are admitted at wave
//! boundaries, so [`ServeEngine::push_job`] is valid mid-run between
//! steps, and [`ServeEngine::intake`] hands out a clonable, thread-safe
//! [`JobIntake`]: submissions land while `run` is blocking and are
//! admitted at the next boundary; an idle engine parks on the intake
//! and `run` returns once it is closed and drained.
//!
//! # Fault tolerance
//!
//! LLM dispatch rides a resilience stack (`mage_llm`): a
//! [`mage_llm::Transport`] carries batched calls to one of several
//! backends, a [`mage_llm::Dispatcher`] wraps it with bounded retries
//! (jittered exponential backoff), hedged duplicates past a latency
//! threshold, rate-limit-aware batch down-sizing, and per-backend
//! health scoring (error/latency EMAs) that routes around sick or
//! scripted-dead backends. The [`FaultyService`] returned by
//! [`synthetic_service`] injects a seeded [`mage_llm::FaultPlan`]
//! (`$MAGE_FAULT_PLAN`, or [`synthetic_service_with`] explicitly):
//! transient errors, timeouts, rate limits, garbled replies and hard
//! backend outages, each decided purely by `(plan seed, request key,
//! attempt)` — never by wall clock or thread timing.
//!
//! Determinism survives the faults. A faulted attempt is dropped
//! *before* the model is consulted, so the per-job model streams
//! advance exactly once per request, and an absorbable plan yields
//! traces bit-identical to the fault-free run — the chaos suite sweeps
//! plans × modes × worker counts against exactly that invariant. All
//! virtual channel latency (fault draws, backoff, retry-after, hedges)
//! accrues on a per-job virtual clock that [`ServeOptions::deadline_ms`]
//! is checked against.
//!
//! When the dispatcher gives up ([`mage_llm::DispatchError`]), the
//! engine re-parks the request and re-dispatches it up to
//! [`ServeOptions::llm_retry_budget`] times; an exhausted budget, a
//! blown deadline, or a total backend outage finishes the job as a
//! structured [`mage_core::JobOutcome::Failed`] — the engine drains
//! gracefully (every job retires with a complete [`ServeReport`];
//! `run` always returns). [`ServeStats`] counts `retries`, `hedges`,
//! `rate_limit_defers`, `failovers` and `jobs_failed`; checkpoints
//! carry the in-flight retry state (attempt counts, emit sequence,
//! virtual clock) so a restored job resumes its retry schedule
//! bit-exactly.
//!
//! # Cache keying
//!
//! The [`DesignCache`] maps `fnv1a(source text) → elaboration result`
//! with the full text verified on every hit. Elaboration is a pure
//! function of the source, so a cache entry is valid for every job,
//! ablation and bench. The [`ScoreCache`] extends the same idea to
//! scoring: keyed by `fnv1a(candidate source ++ bench text)` (again
//! full-text-verified), it shares complete scoring outcomes between
//! jobs that generated textually identical benches — scores are pure in
//! `(source, bench)`, so sharing cannot leak state between solves. Both,
//! and the per-process [`UnitCache`], are one verified tiered LRU
//! ([`mage_core::TieredLru`]) under thin per-kind wrappers.
//!
//! # Checkpointing
//!
//! A running job can be [`ServeEngine::checkpoint`]ed — lifted out of
//! the engine as a value (job state + pending input *or* parked
//! request + its model state from the service) — held arbitrarily
//! long, and [`ServeEngine::restore`]d into the same or another engine,
//! in either scheduler mode, resuming mid-solve with bit-identical
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod scheduler;
mod service;
mod wave;

pub use cache::{
    DesignCache, ScoreCache, SourceHasher, UnitCache, DEFAULT_CACHE_CAPACITY,
    DEFAULT_SCORE_CAPACITY, DEFAULT_UNIT_CAPACITY,
};
pub use scheduler::{
    JobCheckpoint, JobId, JobIntake, JobSpec, SchedMode, ServeEngine, ServeOptions, ServeReport,
    ServeStats,
};
pub use service::{
    synthetic_service, synthetic_service_with, FaultyService, LlmCall, LlmOutcome, LlmService,
    PerJobModels, ServiceTransport, SharedModel, SyntheticPerJob, SYNTHETIC_BACKENDS,
};
