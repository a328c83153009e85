//! `serve_high` and `fleet_faults`: the same stream through one
//! `ServeEngine`, and through a two-shard `FleetEngine` under the
//! canonical fault plan, each as a closed loop holding
//! [`IN_FLIGHT`] jobs.

use crate::spans::Recorder;
use crate::stream::{Pass, Stream, Turns, IN_FLIGHT};
use crate::Workload;
use mage_fleet::{FleetEngine, FleetOptions, JobRoster};
use mage_llm::{
    DispatchPolicy, FaultPlan, HealthSnapshot, LlmRequest, LlmResponse, ResilienceCounters,
};
use mage_serve::{
    synthetic_service_with, FaultyService, JobId, LlmCall, LlmOutcome, LlmService, SchedMode,
    ServeEngine, ServeOptions, ServeReport, ServeStats, SyntheticPerJob,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the service wrappers of one pass observed.
#[derive(Default)]
struct Probe {
    /// `(key, when)` per retired job; the key is the stream index for
    /// a single engine and the job seed on a fleet shard.
    retired: Mutex<Vec<(u64, Instant)>>,
    /// Sum of the modelled dispatch latencies of every outcome, ms.
    virtual_ms: AtomicU64,
}

impl Probe {
    fn take_retired(&self) -> Vec<(u64, Instant)> {
        std::mem::take(&mut *self.retired.lock().expect("retire log poisoned"))
    }
}

/// An [`LlmService`] wrapper that logs retirements, sums modelled
/// latency and, when tracing, records a span per dispatch. It forwards
/// every trait method, so migration, health and metrics behave as if
/// it were absent.
pub struct Timed<S> {
    inner: S,
    probe: Arc<Probe>,
    rec: Option<Arc<Recorder>>,
    /// 0 for a single engine (spans nest under the step), shard + 1 on
    /// a fleet.
    lane: u32,
    /// A fleet shard's roster, to key retirements by job seed.
    roster: Option<JobRoster>,
}

impl<S: LlmService> Timed<S> {
    fn call<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let inner = &mut self.inner;
        match &self.rec {
            Some(rec) => rec.on_lane(self.lane, "serve", "llm", || f(inner)),
            None => f(inner),
        }
    }
}

impl<S: LlmService> LlmService for Timed<S> {
    fn run_batch(&mut self, batch: Vec<(JobId, LlmRequest)>) -> Vec<(JobId, LlmResponse)> {
        self.call(|s| s.run_batch(batch))
    }

    fn run_calls(&mut self, calls: Vec<LlmCall>) -> Vec<(JobId, LlmOutcome)> {
        let out = self.call(|s| s.run_calls(calls));
        let ms: u64 = out
            .iter()
            .map(|(_, o)| match o {
                LlmOutcome::Ok { latency_ms, .. } | LlmOutcome::Failed { latency_ms, .. } => {
                    *latency_ms
                }
            })
            .sum();
        self.probe.virtual_ms.fetch_add(ms, Ordering::Relaxed);
        out
    }

    fn resilience(&self) -> ResilienceCounters {
        self.inner.resilience()
    }

    fn health(&self) -> Option<HealthSnapshot> {
        self.inner.health()
    }

    fn import_health(&mut self, snap: HealthSnapshot) {
        self.inner.import_health(snap);
    }

    fn finish_job(&mut self, id: JobId) {
        self.inner.finish_job(id);
        let key = match &self.roster {
            Some(roster) => {
                roster
                    .get(id)
                    .expect("retired job is on its shard's roster")
                    .1
            }
            None => id as u64,
        };
        self.probe
            .retired
            .lock()
            .expect("retire log poisoned")
            .push((key, Instant::now()));
    }

    fn export_job(&mut self, id: JobId) -> Option<Box<dyn Any + Send>> {
        self.inner.export_job(id)
    }

    fn import_job(&mut self, id: JobId, state: Box<dyn Any + Send>) {
        self.inner.import_job(id, state);
    }
}

/// One engine (or shard): wave scheduler, batching on, one sim worker
/// — at most the caller's thread plus the wave thread.
fn serve_options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        batch_llm: true,
        max_in_flight: 0,
        sched: SchedMode::Wave,
        ..ServeOptions::default()
    }
}

pub type Service = FaultyService<SyntheticPerJob>;

/// The `serve_high` engine: fault-free synthetic service over the
/// stream's specs (engine job id = stream index).
fn serve_engine(
    stream: &Stream,
    probe: &Arc<Probe>,
    rec: Option<Arc<Recorder>>,
) -> ServeEngine<Timed<Service>> {
    let service = Timed {
        inner: synthetic_service_with(&stream.specs, FaultPlan::none(), DispatchPolicy::default()),
        probe: Arc::clone(probe),
        rec,
        lane: 0,
        roster: None,
    };
    ServeEngine::new(serve_options(), service)
}

/// The `fleet_faults` fleet: two shards (one per CPU of the reference
/// machine), rebalancer on, the canonical fault plan on every shard's
/// dispatcher.
fn fleet_engine(probe: &Arc<Probe>, rec: Option<Arc<Recorder>>) -> FleetEngine<Timed<Service>> {
    let opts = FleetOptions {
        shards: 2,
        serve: serve_options(),
        migrate_after_steps: 8,
        ..FleetOptions::default()
    };
    let probe = Arc::clone(probe);
    FleetEngine::new(opts, move |ix, roster| Timed {
        inner: mage_fleet::synthetic_shard_service_with(
            &roster,
            FaultPlan::canonical(),
            DispatchPolicy::default(),
        ),
        probe: Arc::clone(&probe),
        rec: rec.clone(),
        lane: ix as u32 + 1,
        roster: Some(roster),
    })
}

/// Construct the engine a pass of `w` runs on — the engine share of
/// set-up. A fleet comes back so that finishing it (joining its shard
/// threads) happens after the timing stops.
pub fn construct(w: Workload, stream: &Stream) -> Option<FleetEngine<Timed<Service>>> {
    let probe = Arc::new(Probe::default());
    match w {
        Workload::Solo => None,
        Workload::Serve => {
            drop(serve_engine(stream, &probe, None));
            None
        }
        Workload::Fleet => Some(fleet_engine(&probe, None)),
    }
}

/// The counts every engine keeps: dispatcher and scheduler counters
/// from `stats`, cache counters summed over `reports` (one engine, or
/// every shard), modelled LLM latency from the probe.
fn engine_counts(
    stats: &ServeStats,
    reports: &[ServeReport],
    probe: &Probe,
    failed: usize,
) -> BTreeMap<&'static str, u64> {
    let sum = |f: fn(&ServeReport) -> usize| -> u64 { reports.iter().map(|r| f(r) as u64).sum() };
    BTreeMap::from([
        ("llm.calls", stats.llm_batch_calls as u64),
        ("llm.requests", stats.llm_requests as u64),
        ("llm.retries", stats.retries),
        ("llm.hedges", stats.hedges),
        ("llm.rate_limit_defers", stats.rate_limit_defers),
        ("llm.failovers", stats.failovers),
        ("llm.virtual_ms", probe.virtual_ms.load(Ordering::Relaxed)),
        ("jobs.failed", failed as u64),
        ("serve.steps", stats.rounds as u64),
        ("serve.sim_waves", stats.sim_waves as u64),
        ("serve.overlap_steps", stats.overlap_steps as u64),
        ("serve.design_hits", sum(|r| r.cache_hits)),
        ("serve.design_misses", sum(|r| r.cache_misses)),
        ("serve.score_hits", sum(|r| r.score_hits)),
        ("serve.score_misses", sum(|r| r.score_misses)),
        ("serve.score_shortcircuits", sum(|r| r.score_shortcircuits)),
        ("serve.unit_hits", sum(|r| r.unit_hits)),
        ("serve.unit_misses", sum(|r| r.unit_misses)),
    ])
}

/// The closed loop's bookkeeping: push times, latencies, what is next.
struct Loop {
    pushed_at: Vec<Instant>,
    latency_ms: Vec<f64>,
}

impl Loop {
    fn new(n: usize) -> Loop {
        Loop {
            pushed_at: Vec::with_capacity(n),
            latency_ms: vec![f64::NAN; n],
        }
    }

    fn next(&self) -> usize {
        self.pushed_at.len()
    }

    fn retire(&mut self, ix: usize, at: Instant) {
        self.latency_ms[ix] = (at - self.pushed_at[ix]).as_secs_f64() * 1e3;
    }

    fn all_retired(&self) -> Result<(), String> {
        match self.latency_ms.iter().position(|l| l.is_nan()) {
            Some(ix) => Err(format!("job {ix} never retired")),
            None => Ok(()),
        }
    }
}

/// One `serve_high` pass: a fresh engine (empty caches), [`IN_FLIGHT`]
/// jobs kept in flight — a new job is pushed for every job that
/// retired in the last `step()` — each timed from push to retirement.
pub fn serve_pass(stream: &Stream, rec: Option<Arc<Recorder>>) -> Result<Pass, String> {
    let n = stream.len();
    let probe = Arc::new(Probe::default());
    let mut engine = serve_engine(stream, &probe, rec.clone());
    let mut lp = Loop::new(n);
    let (mut samples, mut llm_queued, mut sim_queued) = (0u64, 0u64, 0u64);
    crate::alloc::reset_peak();
    let t0 = Instant::now();
    let mut turns = Turns::start();
    while lp.next() < IN_FLIGHT.min(n) {
        lp.pushed_at.push(Instant::now());
        engine.push_job(stream.specs[lp.next() - 1].clone());
    }
    loop {
        let more = match &rec {
            Some(rec) => rec.span(None, "serve", "step", || engine.step()),
            None => engine.step(),
        };
        samples += 1;
        let (lq, sq) = engine.queued_wave_work();
        llm_queued += lq as u64;
        sim_queued += sq as u64;
        let retired = probe.take_retired();
        let mut pushed = false;
        for (key, at) in retired {
            lp.retire(key as usize, at);
            if lp.next() < n {
                lp.pushed_at.push(Instant::now());
                engine.push_job(stream.specs[lp.next() - 1].clone());
                pushed = true;
            }
        }
        turns.end();
        if !more && !pushed {
            break;
        }
    }
    let wall = t0.elapsed();
    let peak_heap = crate::alloc::peak_bytes();
    lp.all_retired()?;
    let traces = (0..n)
        .map(|id| {
            engine
                .trace(id)
                .cloned()
                .ok_or(format!("job {id} has no trace"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let r = engine.report();
    let mut counts = engine_counts(&r.stats, std::slice::from_ref(&r), &probe, r.failed);
    counts.extend([
        ("serve.queue_samples", samples),
        ("serve.llm_queued", llm_queued),
        ("serve.sim_queued", sim_queued),
    ]);
    Ok(Pass::new(wall, lp.latency_ms, traces, counts, peak_heap).with_turns(turns))
}

/// Work counts of a `fleet_faults` pass that the fleet does not fix.
/// Both shards compile through one shared global tier, concurrently:
/// whether a shard's local miss finds a design its sibling compiled
/// moments earlier, or misses and compiles it again (looking up its
/// units), depends on how the two threads interleave. The fabric only
/// moves where work happens, never what a lookup returns, so traces and
/// every other count still repeat exactly; so does the number of global
/// lookups (`fleet.design_global_lookups`). These are reported, not
/// compared; on a loaded machine they moved by 1 in over a thousand.
pub const SHARD_RACED: [&str; 4] = [
    "fleet.design_global_hits",
    "fleet.design_global_misses",
    "serve.unit_hits",
    "serve.unit_misses",
];

/// One `fleet_faults` pass on a fresh fleet. The closed loop tops the fleet up to
/// [`IN_FLIGHT`] live jobs (per `loads()`) after every round.
pub fn fleet_pass(stream: &Stream, rec: Option<Arc<Recorder>>) -> Result<Pass, String> {
    let n = stream.len();
    let probe = Arc::new(Probe::default());
    let mut fleet = fleet_engine(&probe, rec.clone());
    let mut lp = Loop::new(n);
    crate::alloc::reset_peak();
    let t0 = Instant::now();
    let mut turns = Turns::start();
    while lp.next() < IN_FLIGHT.min(n) {
        lp.pushed_at.push(Instant::now());
        fleet.push_job(stream.specs[lp.next() - 1].clone());
    }
    loop {
        let more = match &rec {
            Some(rec) => rec.span(None, "fleet", "round", || fleet.run_round()),
            None => fleet.run_round(),
        };
        for (seed, at) in probe.take_retired() {
            let ix = *stream
                .by_seed
                .get(&seed)
                .ok_or(format!("a shard retired unknown job seed {seed}"))?;
            lp.retire(ix, at);
        }
        let mut live: usize = fleet.loads().iter().sum();
        let mut pushed = false;
        while live < IN_FLIGHT && lp.next() < n {
            lp.pushed_at.push(Instant::now());
            fleet.push_job(stream.specs[lp.next() - 1].clone());
            live += 1;
            pushed = true;
        }
        turns.end();
        if !more && !pushed {
            break;
        }
    }
    let wall = t0.elapsed();
    let peak_heap = crate::alloc::peak_bytes();
    let r = fleet.run();
    lp.all_retired()?;
    if r.traces.len() != n || r.traces.iter().enumerate().any(|(i, (id, _))| *id != i) {
        return Err(format!(
            "fleet retired {} traces for {n} jobs",
            r.traces.len()
        ));
    }
    let mut counts = engine_counts(&r.stats, &r.shards, &probe, r.failed);
    let f = &r.fabric;
    counts.extend([
        ("fleet.rounds", r.rounds),
        ("fleet.migrations", r.migrations as u64),
        (
            "fleet.shard_jobs_max",
            r.shards.iter().map(|s| s.done as u64).max().unwrap_or(0),
        ),
        ("fleet.shards", r.shards.len() as u64),
        ("fleet.design_local_hits", f.design_local.hits as u64),
        ("fleet.design_local_misses", f.design_local.misses as u64),
        ("fleet.design_global_hits", f.design_global.hits as u64),
        ("fleet.design_global_misses", f.design_global.misses as u64),
        (
            "fleet.design_global_lookups",
            (f.design_global.hits + f.design_global.misses) as u64,
        ),
        ("fleet.score_local_hits", f.score_local.hits as u64),
        ("fleet.score_local_misses", f.score_local.misses as u64),
    ]);
    let traces = r.traces.into_iter().map(|(_, t)| t).collect();
    Ok(Pass::new(wall, lp.latency_ms, traces, counts, peak_heap).with_turns(turns))
}
