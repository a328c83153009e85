//! The fleet controller: N serve-engine shards behind a deterministic
//! router, with checkpoint-based job migration and a tiered cache
//! fabric.
//!
//! # Placement protocol
//!
//! A fleet run is a sequence of **rounds**. One [`FleetEngine::run_round`]
//! is, in order:
//!
//! 1. **Pinned migrations** recorded for the current round are applied
//!    (replay mode only; a no-op when recording).
//! 2. **Placement**: every job pushed since the last round is routed to
//!    a shard and handed over. Routing is affinity-first — a job's
//!    problem id hashes (FNV-1a) to its home shard, so repeats of the
//!    same problem land where that problem's designs and scores are
//!    already cached — with a load-aware spill: when the home shard's
//!    load exceeds the lightest shard's by more than
//!    [`FleetOptions::spread`], the job spills to the lightest shard
//!    (ties break on the lowest index).
//! 3. **Barrier**: every shard runs exactly one engine step, in
//!    parallel, and reports a pulse (progress flag, live count, running
//!    set). The pulses refresh the router's load signal.
//! 4. **Rebalance** (recording mode, every
//!    [`FleetOptions::migrate_after_steps`] rounds): if the hottest
//!    shard leads the coldest by ≥ 2 live jobs, up to
//!    [`FleetOptions::migrate_batch`] running jobs migrate hot → cold.
//!    Victims are the jobs with the fewest advances (ties on the lowest
//!    fleet id) — the cheapest state to move.
//!
//! Every decision — placement and migration alike — lands in a
//! [`PlacementTrace`]. All inputs to every decision (hashes, pulse
//! counts, victim sort keys) are deterministic values, so the trace is
//! a pure function of the job stream and the options.
//!
//! # Migration protocol
//!
//! A migration is park → checkpoint → restore: the source shard
//! checkpoints the job at a step boundary ([`mage_serve::ServeEngine::checkpoint`]
//! lifts the job with its resolved input or parked pending work, model
//! state, retry ledger and accrued usage), the checkpoint crosses to
//! the target thread together with the source service's
//! [`HealthSnapshot`], and the target merges the health (calls-weighted
//! — never clobbering its own observations) before restoring the job.
//! A job that is still queued on the source (pushed, not yet admitted)
//! is brought up by stepping the source shard alone until admission,
//! then checkpointed — so drains and replays never strand a job.
//!
//! # Determinism contract
//!
//! Two layers, separable:
//!
//! - **Job traces are placement-invariant.** Each job's model is seeded
//!   from its own spec (`(problem_id, seed)` via the shard roster), and
//!   fault outcomes key on the job's private dispatch sequence — so a
//!   job's [`SolveTrace`] is bit-identical no matter which shard (or
//!   how many shards, or which scheduler mode, or how many workers)
//!   runs it, including under any absorbable fault plan.
//! - **The schedule is replayable.** A run under a pinned trace applies
//!   the recorded placements and migrations at the recorded round
//!   boundaries and records what it did; the re-recorded trace equals
//!   the pinned one bit-for-bit.
//!
//! Together: a fleet run's sorted trace set equals a single engine's
//! over the same job stream, and a pinned replay reproduces the fleet
//! run exactly. Operator actions ([`FleetEngine::drain_shard`],
//! [`FleetEngine::restart_shard`], explicit [`FleetEngine::migrate`])
//! record into the trace like any other decision; under a pinned trace
//! drive the fleet with [`FleetEngine::run`] / [`FleetEngine::run_round`]
//! only and the recorded operator moves replay themselves.
//!
//! # Cache fabric
//!
//! Each shard compiles through private LRU tiers backed by shared
//! global tiers ([`mage_serve::DesignCache::tiered`] /
//! [`mage_serve::ScoreCache::tiered`] / [`mage_serve::UnitCache`]'s
//! `tiered`), all one verified tier type, [`mage_core::TieredLru`]:
//! local misses consult the global tier and promote hits into the local
//! tier; fresh results publish back. Affinity routing keeps a problem's
//! designs in one local tier; the global tier catches cross-shard and
//! post-migration reuse. The unit tier works below whole designs —
//! per-process compilation units keyed by `(fingerprint, binding)`, so a
//! debug iteration that edits one process recompiles only that process
//! even when the whole-design caches miss, and cross-shard edits of the
//! same problem share unchanged units through the global tier. Each
//! tier's counters snapshot as one [`CacheTierStats`]; the local
//! snapshots of every shard generation sum into [`FleetReport::fabric`]
//! beside the global ones.

use crate::service::{synthetic_shard_service, synthetic_shard_service_with};
use crate::shard::{
    shard_main, JobRoster, LiftedJob, RunningJob, ShardCmd, ShardFinal, ShardHandle, ShardPulse,
    ShardReply,
};
use crate::trace::{Migration, Placement, PlacementTrace};
use mage_core::{CacheTierStats, SolveTrace};
use mage_llm::{DispatchPolicy, FaultPlan, HealthSnapshot};
use mage_serve::{
    DesignCache, FaultyService, JobSpec, LlmService, ScoreCache, ServeEngine, ServeOptions,
    ServeReport, ServeStats, SyntheticPerJob, UnitCache,
};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of shards (≥ 1), each a [`ServeEngine`] on its own thread.
    pub shards: usize,
    /// Per-shard engine options (workers, scheduler mode, admission).
    pub serve: ServeOptions,
    /// Rebalance cadence: consider a hot → cold migration every this
    /// many fleet rounds (each round = one engine step per shard).
    /// `0` disables policy migration.
    pub migrate_after_steps: u64,
    /// Most jobs moved per rebalance.
    pub migrate_batch: usize,
    /// Affinity slack: a job spills off its home shard only when the
    /// home's load exceeds the minimum load by more than this.
    pub spread: usize,
    /// Capacity of each shard's local design-cache tier.
    pub local_design_capacity: usize,
    /// Capacity of each shard's local score-cache tier.
    pub local_score_capacity: usize,
    /// Capacity of each shard's local process-unit tier (delta
    /// compilation; see [`mage_serve::UnitCache`]).
    pub local_unit_capacity: usize,
    /// Replay mode: apply this trace's decisions instead of routing.
    pub pinned: Option<PlacementTrace>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            shards: 2,
            serve: ServeOptions::default(),
            migrate_after_steps: 0,
            migrate_batch: 2,
            spread: 2,
            local_design_capacity: 1024,
            local_score_capacity: 512,
            local_unit_capacity: 4096,
            pinned: None,
        }
    }
}

/// The cache fabric's aggregate counters: local tiers summed over all
/// shards (including restarted generations), plus the global tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// All local design tiers, summed.
    pub design_local: CacheTierStats,
    /// All local score tiers, summed.
    pub score_local: CacheTierStats,
    /// All local process-unit tiers, summed.
    pub unit_local: CacheTierStats,
    /// The shared global design tier.
    pub design_global: CacheTierStats,
    /// The shared global score tier.
    pub score_global: CacheTierStats,
    /// The shared global process-unit tier.
    pub unit_global: CacheTierStats,
}

impl FabricStats {
    /// Add one shard generation's local tiers.
    fn absorb_local(&mut self, shard: &ShardHandle) {
        self.design_local += shard.design.stats();
        self.score_local += shard.scores.stats();
        self.unit_local += shard.units.stats();
    }
}

/// Aggregate outcome of a fleet run.
pub struct FleetReport {
    /// Per-shard engine reports, in shard order (final generations).
    pub shards: Vec<ServeReport>,
    /// Engine reports of shard generations retired by
    /// [`FleetEngine::restart_shard`], in retirement order.
    pub retired: Vec<ServeReport>,
    /// Jobs pushed to the fleet.
    pub jobs: usize,
    /// Jobs retired (summed over shards — each job retires exactly
    /// once, on whichever shard last held it).
    pub done: usize,
    /// Jobs retired with a failure outcome.
    pub failed: usize,
    /// Dispatch counters summed over every shard generation.
    pub stats: ServeStats,
    /// Placement decisions recorded.
    pub placements: usize,
    /// Migrations applied (policy, operator and drain moves alike).
    pub migrations: usize,
    /// Shard restarts performed.
    pub restarts: usize,
    /// Fleet rounds run.
    pub rounds: u64,
    /// Cache-fabric counters.
    pub fabric: FabricStats,
    /// Backend health merged (calls-weighted) over every shard.
    pub health: Option<HealthSnapshot>,
    /// The run's placement trace (pin it to replay the run).
    pub trace: PlacementTrace,
    /// Completed solve traces, sorted by fleet job id.
    pub traces: Vec<(usize, SolveTrace)>,
    /// Wall-clock seconds spent inside the controller.
    pub wall_s: f64,
}

struct FleetJob {
    problem_id: String,
    /// Present until the job is handed to a shard.
    spec: Option<JobSpec>,
    /// The shard currently holding the job.
    shard: Option<usize>,
}

/// The sharded serve cluster (see the module docs for the protocol).
pub struct FleetEngine<S: LlmService + Send + 'static> {
    opts: FleetOptions,
    factory: Box<dyn Fn(usize, JobRoster) -> S>,
    shards: Vec<ShardHandle>,
    global_design: Arc<DesignCache>,
    global_scores: Arc<ScoreCache>,
    global_units: Arc<UnitCache>,
    jobs: Vec<FleetJob>,
    /// Fleet ids pushed but not yet placed.
    pending: Vec<usize>,
    round: u64,
    trace: PlacementTrace,
    /// Router load signal: live jobs per shard as of the last pulse,
    /// adjusted for hand-overs since.
    load: Vec<usize>,
    /// Running sets from the last barrier (rebalance victim pool).
    last_running: Vec<Vec<RunningJob>>,
    /// Reports and traces of restarted shard generations.
    retired: Vec<ShardFinal>,
    retired_fabric: FabricStats,
    restarts: usize,
    wall: Duration,
}

impl FleetEngine<FaultyService<SyntheticPerJob>> {
    /// A fleet whose shards run the standard synthetic service (plan
    /// from `MAGE_FAULT_PLAN`), seeded identically to
    /// [`mage_serve::synthetic_service`].
    pub fn synthetic(opts: FleetOptions) -> Self {
        Self::new(opts, |_, roster| synthetic_shard_service(&roster))
    }

    /// [`FleetEngine::synthetic`] with an explicit fault plan and
    /// dispatch policy (the chaos suite's entry point).
    pub fn synthetic_with(opts: FleetOptions, plan: FaultPlan, policy: DispatchPolicy) -> Self {
        Self::new(opts, move |_, roster| {
            synthetic_shard_service_with(&roster, plan.clone(), policy.clone())
        })
    }
}

impl<S: LlmService + Send + 'static> FleetEngine<S> {
    /// A fleet of `opts.shards` engines. `factory(shard_ix, roster)`
    /// builds each shard's service; it must resolve job models through
    /// the roster (not a frozen spec table) so migrated jobs find
    /// their entries.
    pub fn new(opts: FleetOptions, factory: impl Fn(usize, JobRoster) -> S + 'static) -> Self {
        assert!(opts.shards >= 1, "a fleet needs at least one shard");
        let global_design = Arc::new(DesignCache::new());
        let global_scores = Arc::new(ScoreCache::new());
        let global_units = Arc::new(UnitCache::new());
        let mut fleet = FleetEngine {
            shards: Vec::with_capacity(opts.shards),
            load: vec![0; opts.shards],
            last_running: vec![Vec::new(); opts.shards],
            factory: Box::new(factory),
            global_design,
            global_scores,
            global_units,
            jobs: Vec::new(),
            pending: Vec::new(),
            round: 0,
            trace: PlacementTrace::default(),
            retired: Vec::new(),
            retired_fabric: FabricStats::default(),
            restarts: 0,
            wall: Duration::ZERO,
            opts,
        };
        for ix in 0..fleet.opts.shards {
            let shard = fleet.spawn_shard(ix);
            fleet.shards.push(shard);
        }
        fleet
    }

    fn spawn_shard(&self, ix: usize) -> ShardHandle {
        let roster = JobRoster::new();
        let design = Arc::new(DesignCache::tiered(
            self.opts.local_design_capacity,
            Arc::clone(&self.global_design),
        ));
        let scores = Arc::new(ScoreCache::tiered(
            self.opts.local_score_capacity,
            Arc::clone(&self.global_scores),
        ));
        let units = Arc::new(UnitCache::tiered(
            self.opts.local_unit_capacity,
            Arc::clone(&self.global_units),
        ));
        let engine = ServeEngine::with_fabric(
            self.opts.serve.clone(),
            (self.factory)(ix, roster.clone()),
            Arc::clone(&design),
            Arc::clone(&scores),
            Arc::clone(&units),
        );
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (reply_tx, reply_rx) = mpsc::channel();
        let thread_roster = roster.clone();
        let thread = std::thread::Builder::new()
            .name(format!("mage-fleet-shard-{ix}"))
            .spawn(move || shard_main(engine, thread_roster, cmd_rx, reply_tx))
            .expect("spawn shard thread");
        ShardHandle {
            cmd: cmd_tx,
            reply: reply_rx,
            thread: Some(thread),
            design,
            scores,
            units,
        }
    }

    /// Queue a job; it is placed at the next round. Returns the fleet
    /// job id (push order).
    pub fn push_job(&mut self, spec: JobSpec) -> usize {
        let id = self.jobs.len();
        self.jobs.push(FleetJob {
            problem_id: spec.problem_id.clone(),
            spec: Some(spec),
            shard: None,
        });
        self.pending.push(id);
        id
    }

    /// The deterministic router (see the module docs). `exclude` bars
    /// one shard (the drain path).
    fn route(&self, problem_id: &str, exclude: Option<usize>) -> usize {
        let candidates: Vec<usize> = (0..self.shards.len())
            .filter(|&i| Some(i) != exclude)
            .collect();
        assert!(!candidates.is_empty(), "no shard to route to");
        let affinity = candidates
            [(mage_logic::fnv1a(problem_id.as_bytes()) % candidates.len() as u64) as usize];
        let min_load = candidates.iter().map(|&i| self.load[i]).min().unwrap();
        if self.load[affinity] > min_load + self.opts.spread {
            *candidates
                .iter()
                .find(|&&i| self.load[i] == min_load)
                .unwrap()
        } else {
            affinity
        }
    }

    /// Hand every pending job to its shard; returns how many.
    fn place_pending(&mut self) -> usize {
        let pending = std::mem::take(&mut self.pending);
        let placed = pending.len();
        for id in pending {
            let shard = match &self.opts.pinned {
                Some(p) => p
                    .shard_of(id)
                    .unwrap_or_else(|| panic!("pinned trace has no placement for fleet job {id}")),
                None => self.route(&self.jobs[id].problem_id, None),
            };
            assert!(shard < self.shards.len(), "placement to unknown shard");
            let spec = self.jobs[id].spec.take().expect("pending job has a spec");
            match self.shards[shard].call(ShardCmd::Push {
                fleet_job: id,
                spec,
            }) {
                ShardReply::Pushed => {}
                _ => unreachable!("push reply"),
            }
            self.jobs[id].shard = Some(shard);
            self.load[shard] += 1;
            self.trace.placements.push(Placement { job: id, shard });
        }
        placed
    }

    /// Checkpoint `job` off its shard and restore it on `to`,
    /// recording the move at the current round. A job still queued on
    /// the source is stepped up to admission first. Returns `false`
    /// (and moves nothing) if the job is unplaced, already on `to`,
    /// or already done.
    fn migrate_internal(&mut self, job: usize, to: usize) -> bool {
        let Some(from) = self.jobs.get(job).and_then(|j| j.shard) else {
            return false;
        };
        if from == to || to >= self.shards.len() {
            return false;
        }
        let mut solo_steps = 0usize;
        let lifted: Box<LiftedJob> = loop {
            match self.shards[from].call(ShardCmd::Checkpoint { fleet_job: job }) {
                ShardReply::Checkpointed(Some(l)) => break l,
                ShardReply::Checkpointed(None) => {
                    // Not running: either still queued (step the shard
                    // alone until admission brings it up) or done.
                    solo_steps += 1;
                    assert!(
                        solo_steps <= 100_000,
                        "migration of fleet job {job} never reached admission"
                    );
                    match self.shards[from].call(ShardCmd::Step) {
                        ShardReply::Pulse(p) => {
                            if !p.running.iter().any(|r| r.fleet_job == job) && !p.progress {
                                return false;
                            }
                        }
                        _ => unreachable!("step reply"),
                    }
                }
                _ => unreachable!("checkpoint reply"),
            }
        };
        match self.shards[to].call(ShardCmd::Restore {
            fleet_job: job,
            ck: lifted.ck,
            health: lifted.health,
        }) {
            ShardReply::Restored => {}
            _ => unreachable!("restore reply"),
        }
        self.jobs[job].shard = Some(to);
        self.load[from] = self.load[from].saturating_sub(1);
        self.load[to] += 1;
        self.trace.migrations.push(Migration {
            round: self.round,
            job,
            from,
            to,
        });
        true
    }

    /// Operator-initiated migration (recorded like any other decision).
    /// Returns `false` if the job is unplaced, done, or already there.
    pub fn migrate(&mut self, job: usize, to: usize) -> bool {
        self.migrate_internal(job, to)
    }

    /// The hot → cold rebalance pass (see the module docs).
    fn rebalance(&mut self) -> usize {
        let n = self.shards.len();
        if n < 2 {
            return 0;
        }
        let hot = (0..n)
            .max_by_key(|&i| (self.load[i], std::cmp::Reverse(i)))
            .unwrap();
        let cold = (0..n).min_by_key(|&i| (self.load[i], i)).unwrap();
        let (hot_load, cold_load) = (self.load[hot], self.load[cold]);
        if hot_load < cold_load + 2 {
            return 0;
        }
        let mut victims = self.last_running[hot].clone();
        victims.sort_by_key(|r| (r.advances, r.fleet_job));
        let quota = self
            .opts
            .migrate_batch
            .min((hot_load - cold_load) / 2)
            .min(victims.len());
        let mut moved = 0;
        for v in victims.into_iter().take(quota) {
            if self.migrate_internal(v.fleet_job, cold) {
                moved += 1;
            }
        }
        moved
    }

    /// One fleet round (see the module docs for the exact sequence).
    /// Returns `true` while another round could make progress.
    pub fn run_round(&mut self) -> bool {
        let t0 = Instant::now();
        let mut migrated = 0;
        let pinned_moves: Vec<Migration> = match &self.opts.pinned {
            Some(p) => p.migrations_at(self.round),
            None => Vec::new(),
        };
        {
            for m in pinned_moves {
                assert_eq!(
                    self.jobs.get(m.job).and_then(|j| j.shard),
                    Some(m.from),
                    "pinned migration source diverged (round {}, job {})",
                    m.round,
                    m.job
                );
                if self.migrate_internal(m.job, m.to) {
                    migrated += 1;
                }
            }
        }
        let placed = self.place_pending();
        for shard in &self.shards {
            shard.send(ShardCmd::Step);
        }
        let mut progress = false;
        for ix in 0..self.shards.len() {
            match self.shards[ix].recv() {
                ShardReply::Pulse(ShardPulse {
                    progress: p,
                    live,
                    running,
                }) => {
                    progress |= p;
                    self.load[ix] = live;
                    self.last_running[ix] = running;
                }
                _ => unreachable!("pulse reply"),
            }
        }
        self.round += 1;
        if self.opts.pinned.is_none()
            && self.opts.migrate_after_steps > 0
            && self.round.is_multiple_of(self.opts.migrate_after_steps)
        {
            migrated += self.rebalance();
        }
        self.wall += t0.elapsed();
        placed > 0 || migrated > 0 || progress
    }

    /// Gracefully empty shard `ix`: checkpoint every job off it and
    /// re-route each to another shard (recorded as migrations). Jobs
    /// still queued are admitted by stepping the shard alone. Returns
    /// how many jobs moved. The shard stays up (and empty) afterwards.
    pub fn drain_shard(&mut self, ix: usize) -> usize {
        assert!(
            self.shards.len() > 1,
            "cannot drain the only shard in the fleet"
        );
        let mut moved = 0;
        loop {
            let (jobs, live_after) = match self.shards[ix].call(ShardCmd::Drain) {
                ShardReply::Drained { jobs, live_after } => (jobs, live_after),
                _ => unreachable!("drain reply"),
            };
            for lifted in jobs {
                let job = lifted.fleet_job;
                let to = self.route(&self.jobs[job].problem_id, Some(ix));
                match self.shards[to].call(ShardCmd::Restore {
                    fleet_job: job,
                    ck: lifted.ck,
                    health: lifted.health,
                }) {
                    ShardReply::Restored => {}
                    _ => unreachable!("restore reply"),
                }
                self.jobs[job].shard = Some(to);
                self.load[to] += 1;
                self.trace.migrations.push(Migration {
                    round: self.round,
                    job,
                    from: ix,
                    to,
                });
                moved += 1;
            }
            if live_after == 0 {
                break;
            }
            // Queued jobs remain: one solo step admits the next batch.
            match self.shards[ix].call(ShardCmd::Step) {
                ShardReply::Pulse(p) => {
                    assert!(
                        p.progress || !p.running.is_empty() || p.live < live_after,
                        "drain of shard {ix} stalled with {live_after} jobs queued"
                    );
                }
                _ => unreachable!("step reply"),
            }
        }
        self.load[ix] = 0;
        self.last_running[ix].clear();
        moved
    }

    /// Drain shard `ix`, retire its engine (folding its report, traces
    /// and cache counters into the final aggregate), and bring up a
    /// fresh replacement in its slot. Returns how many jobs moved off.
    pub fn restart_shard(&mut self, ix: usize) -> usize {
        let moved = self.drain_shard(ix);
        self.shards[ix].send(ShardCmd::Finish);
        match self.shards[ix].recv() {
            ShardReply::Finished(final_) => self.retired.push(*final_),
            _ => unreachable!("finish reply"),
        }
        self.retired_fabric.absorb_local(&self.shards[ix]);
        self.shards[ix].join();
        let fresh = self.spawn_shard(ix);
        self.shards[ix] = fresh;
        self.restarts += 1;
        moved
    }

    /// Live jobs per shard as of the last pulse (the router's view).
    pub fn loads(&self) -> &[usize] {
        &self.load
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &PlacementTrace {
        &self.trace
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Run every round until quiescent, then collect and aggregate all
    /// shards into a [`FleetReport`].
    pub fn run(mut self) -> FleetReport {
        while self.run_round() {}
        let t0 = Instant::now();
        for shard in &self.shards {
            shard.send(ShardCmd::Finish);
        }
        let mut finals = Vec::with_capacity(self.shards.len());
        let mut fabric = self.retired_fabric;
        for shard in &mut self.shards {
            match shard.recv() {
                ShardReply::Finished(f) => finals.push(*f),
                _ => unreachable!("finish reply"),
            }
            fabric.absorb_local(shard);
            shard.join();
        }
        fabric.design_global = self.global_design.stats();
        fabric.score_global = self.global_scores.stats();
        fabric.unit_global = self.global_units.stats();
        self.wall += t0.elapsed();

        let mut stats = ServeStats::default();
        let mut done = 0;
        let mut failed = 0;
        let mut health: Option<HealthSnapshot> = None;
        let mut traces: Vec<(usize, SolveTrace)> = Vec::new();
        for f in finals.iter().chain(self.retired.iter()) {
            stats.absorb(&f.report.stats);
            done += f.report.done;
            failed += f.report.failed;
            traces.extend(f.traces.iter().cloned());
            match (&mut health, &f.health) {
                (Some(h), Some(o)) => h.merge(o),
                (h @ None, Some(o)) => *h = Some(o.clone()),
                (_, None) => {}
            }
        }
        traces.sort_by_key(|(id, _)| *id);

        FleetReport {
            shards: finals.into_iter().map(|f| f.report).collect(),
            retired: self.retired.iter().map(|f| f.report.clone()).collect(),
            jobs: self.jobs.len(),
            done,
            failed,
            stats,
            placements: self.trace.placements.len(),
            migrations: self.trace.migrations.len(),
            restarts: self.restarts,
            rounds: self.round,
            fabric,
            health,
            trace: std::mem::take(&mut self.trace),
            traces,
            wall_s: self.wall.as_secs_f64(),
        }
    }
}
