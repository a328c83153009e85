//! The seeded job stream every workload runs, and what one pass over
//! it produces.

use mage_core::experiments::unit_seed;
use mage_core::{MageConfig, SolveTrace, SystemKind};
use mage_problems::{Problem, SuiteId};
use mage_serve::JobSpec;
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Runs of every VerilogEval-V2 problem in one block: 67 × 15 = 1005
/// jobs, so one pass puts 20 latency samples beyond p98.
pub const RUNS: usize = 15;

/// Blocks an end-to-end run cycles through (4 × 1005 jobs). Each is
/// timed repeatedly; each of its turns' time, and each of its jobs'
/// latency, is the best over its passes, which drops the pauses a
/// shared machine puts into some passes and not others.
pub const BLOCKS: usize = 4;

/// Runs of block 0 that every run also drives through the other two
/// workloads for the cross-workload output check.
pub const CHECK_RUNS: usize = 2;

/// Jobs kept in flight by the served and fleet closed loops.
pub const IN_FLIGHT: usize = 32;

/// One block of the job stream: runs `first_run..first_run + runs` ×
/// every V2 problem, run-major, high temperature, full MAGE workflow.
/// Job `i`'s model is seeded with `unit_seed(seed, run, problem)` — the
/// scheme `evaluate_suite` uses.
pub struct Stream {
    pub specs: Vec<JobSpec>,
    pub problems: Vec<&'static Problem>,
    /// Job seed → index in the block (seeds are checked to be distinct).
    pub by_seed: HashMap<u64, usize>,
}

impl Stream {
    pub fn build(seed: u64, first_run: usize, runs: usize) -> Result<Stream, String> {
        let suite = mage_problems::suite(SuiteId::V2);
        let config = MageConfig::high_temperature().with_system(SystemKind::Mage);
        let mut specs = Vec::with_capacity(runs * suite.len());
        let mut problems = Vec::with_capacity(runs * suite.len());
        let mut by_seed = HashMap::with_capacity(runs * suite.len());
        for run in first_run..first_run + runs {
            for &p in &suite {
                let job_seed = unit_seed(seed, run, p.id);
                if by_seed.insert(job_seed, specs.len()).is_some() {
                    return Err(format!("stream seed {seed}: job seed {job_seed} repeats"));
                }
                specs.push(JobSpec {
                    problem_id: p.id.to_string(),
                    spec: p.spec.to_string(),
                    config: config.clone(),
                    seed: job_seed,
                });
                problems.push(p);
            }
        }
        Ok(Stream {
            specs,
            problems,
            by_seed,
        })
    }

    /// Block `block` of the stream.
    pub fn block(seed: u64, block: usize) -> Result<Stream, String> {
        Stream::build(seed, block * RUNS, RUNS)
    }

    pub fn len(&self) -> usize {
        self.specs.len()
    }
}

/// Splits a pass's wall time into turns: the units of work every pass
/// over a stream repeats identically — one job (`solo_high`), or one
/// turn of the closed loop around `step()` / `run_round()`, whose
/// schedule is a function of the stream alone.
pub struct Turns {
    mark: Instant,
    pub ms: Vec<f64>,
}

impl Turns {
    pub fn start() -> Turns {
        Turns {
            mark: Instant::now(),
            ms: Vec::new(),
        }
    }

    /// End the current turn (and start the next).
    pub fn end(&mut self) {
        let now = Instant::now();
        self.ms.push((now - self.mark).as_secs_f64() * 1e3);
        self.mark = now;
    }
}

/// What one pass over a stream produced.
pub struct Pass {
    /// Wall time of the pass (set-up and checks excluded).
    pub wall: Duration,
    /// The wall time split into [`Turns`], ms; they sum to `wall`
    /// (empty for a traced pass).
    pub turn_ms: Vec<f64>,
    /// Per-job latency, by stream index.
    pub latency_ms: Vec<f64>,
    /// Per-job solve traces, by stream index (emptied once checked).
    pub traces: Vec<SolveTrace>,
    /// Jobs that ended `JobOutcome::Failed`.
    pub failed: usize,
    /// Work counts; a pure function of the stream (bar the fleet's
    /// [`crate::served::SHARD_RACED`]), so they must repeat exactly
    /// between passes.
    pub counts: BTreeMap<&'static str, u64>,
    /// Highest live heap during the pass, bytes.
    pub peak_heap: usize,
}

impl Pass {
    pub fn new(
        wall: Duration,
        latency_ms: Vec<f64>,
        traces: Vec<SolveTrace>,
        counts: BTreeMap<&'static str, u64>,
        peak_heap: usize,
    ) -> Pass {
        let failed = traces.iter().filter(|t| t.outcome.is_failed()).count();
        Pass {
            wall,
            turn_ms: Vec::new(),
            latency_ms,
            traces,
            failed,
            counts,
            peak_heap,
        }
    }

    pub fn with_turns(self, turns: Turns) -> Pass {
        Pass {
            turn_ms: turns.ms,
            ..self
        }
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }
}

/// What a run keeps of one block: its reference pass (traces and work
/// counts every later pass of the block must reproduce) and the best
/// times and peak heap seen so far.
pub struct Block {
    pub reference: Pass,
    /// Best time of each turn over the timed passes, ms. Their sum is
    /// the block's time: the machine's speed swings within one pass on
    /// a shared host, and a turn's best drops the slow stretches at a
    /// finer grain than a whole pass's best could.
    pub best_turn_ms: Vec<f64>,
    /// Best latency of each job over the timed passes, ms.
    pub best_ms: Vec<f64>,
    /// Lowest peak live heap of a timed pass over the block, bytes.
    pub best_heap: usize,
}

impl Block {
    pub fn new(reference: Pass) -> Block {
        let n = reference.traces.len();
        Block {
            reference,
            best_turn_ms: Vec::new(),
            best_ms: vec![f64::INFINITY; n],
            best_heap: usize::MAX,
        }
    }

    /// Fold a timed pass's times into the bests. Passes over one block
    /// must take the same turns.
    pub fn time(&mut self, pass: &Pass) -> Result<(), String> {
        if self.best_turn_ms.is_empty() {
            self.best_turn_ms = vec![f64::INFINITY; pass.turn_ms.len()];
        }
        if self.best_turn_ms.len() != pass.turn_ms.len() {
            return Err(format!(
                "{} turns in a pass, {} in the block's first",
                pass.turn_ms.len(),
                self.best_turn_ms.len()
            ));
        }
        for (best, &ms) in self.best_turn_ms.iter_mut().zip(&pass.turn_ms) {
            *best = best.min(ms);
        }
        self.best_heap = self.best_heap.min(pass.peak_heap);
        for (best, &ms) in self.best_ms.iter_mut().zip(&pass.latency_ms) {
            *best = best.min(ms);
        }
        Ok(())
    }

    /// The block's time: the sum of its turns' bests, seconds.
    pub fn best_s(&self) -> f64 {
        self.best_turn_ms.iter().sum::<f64>() / 1e3
    }
}
