//! Turning passes into the reported metrics, and printing them.

use crate::spans::{Breakdown, Recorder, Span};
use crate::stream::{Block, Pass, Stream};
use crate::{solo, Workload};
use std::sync::Arc;

/// A traced pass with its spans (and, for `solo_high`, the grade of
/// every job, which the traced solo loop measures inline).
pub struct TracedPass {
    pub pass: Pass,
    pub spans: Vec<Span>,
    pub grades: Option<Vec<bool>>,
}

pub fn traced_pass(w: Workload, stream: &Stream) -> Result<TracedPass, String> {
    let rec = Arc::new(Recorder::new());
    let (pass, grades) = match w {
        Workload::Solo => {
            let (pass, grades) = solo::traced_pass(stream, &rec);
            (pass, Some(grades))
        }
        _ => (w.pass(stream, Some(Arc::clone(&rec)))?, None),
    };
    let rec = Arc::try_unwrap(rec).map_err(|_| "a service outlived its pass".to_string())?;
    Ok(TracedPass {
        pass,
        spans: rec.into_spans(),
        grades,
    })
}

/// Everything one run measured.
pub struct Report {
    pub workload: Workload,
    pub jobs: usize,
    pub setup_s: Vec<f64>,
    pub counted: Counted,
    pub blocks: Vec<Block>,
    pub untraced: Vec<Pass>,
    pub traced: Vec<TracedPass>,
    pub errors: Vec<String>,
}

/// Outputs of the counted blocks, for the quality metrics.
#[derive(Debug, Default)]
pub struct Counted {
    pub jobs: usize,
    pub passed: usize,
    pub tokens: usize,
    pub llm_calls: u64,
    pub failed: usize,
}

impl Counted {
    pub fn add(&mut self, pass: &Pass, grades: &[bool]) {
        self.jobs += pass.traces.len();
        self.passed += grades.iter().filter(|&&g| g).count();
        self.tokens += pass.traces.iter().map(|t| t.usage.total()).sum::<usize>();
        self.llm_calls += pass.count("llm.calls");
        self.failed += pass.failed;
    }

    fn share(&self, x: f64) -> f64 {
        x / self.jobs as f64
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

type Metric = (&'static str, f64, &'static str);

impl Report {
    /// Every job's best latency over the timed passes of its block.
    fn latencies(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .flat_map(|b| b.best_ms.iter().copied())
            .collect()
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let jobs = (self.jobs * self.blocks.len()) as f64;
        let wall: f64 = self.blocks.iter().map(Block::best_s).sum();
        let latencies = self.latencies();
        let heap: f64 = self.blocks.iter().map(|b| b.best_heap as f64).sum();
        let c = &self.counted;
        vec![
            ("jobs_per_s", jobs / wall, "1/s"),
            ("job_ms_p50", percentile(&latencies, 50.0), "ms"),
            ("pass_rate", c.share(c.passed as f64), "share"),
            ("tokens_per_job", c.share(c.tokens as f64), "tokens"),
            ("llm_calls_per_job", c.share(c.llm_calls as f64), "count"),
            ("completed_share", 1.0 - c.share(c.failed as f64), "share"),
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_heap_mb", heap / self.blocks.len() as f64 / 1e6, "MB"),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let n = self.jobs as f64;
        let bs: Vec<Breakdown> = self
            .traced
            .iter()
            .map(|t| Breakdown::of(&t.spans))
            .collect();
        let walls: Vec<f64> = self
            .traced
            .iter()
            .map(|t| t.pass.wall.as_secs_f64())
            .collect();
        // Self time of `key` per job, ms, median over traced passes.
        let ms = |key: &str| -> f64 {
            let v: Vec<f64> = bs.iter().map(|b| b.time(key).as_secs_f64()).collect();
            median(&v) * 1e3 / n
        };
        let over = |f: &dyn Fn(&Breakdown, f64) -> f64| -> f64 {
            median(
                &bs.iter()
                    .zip(&walls)
                    .map(|(b, &wall)| f(b, wall))
                    .collect::<Vec<_>>(),
            )
        };
        let untraced_wall = median(
            &self
                .untraced
                .iter()
                .map(|p| p.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let c = &self.traced[0].pass;
        let b0 = &bs[0];
        let per = |x: u64| x as f64 / n;
        let requests = c.count("llm.requests");
        let (retries, hedges) = (c.count("llm.retries"), c.count("llm.hedges"));
        let (reused, rebuilt) = (c.count("sim.units_reused"), c.count("sim.units_rebuilt"));
        let evals = c.count("sim.evals");
        let steps = c.count("serve.steps");
        let queue_samples = c.count("serve.queue_samples");
        let hits = |k: &str| c.count(&format!("{k}_hits"));
        let lookups = |k: &str| hits(k) + c.count(&format!("{k}_misses"));
        let shards = c.count("fleet.shards");

        vec![
            ("jobs_per_pass", n, "count"),
            // solo_high: calls into each crate, timed around the call.
            ("problems.oracle_ms_per_job", ms("problems.oracle"), "ms"),
            ("llm.dispatch_ms_per_job", ms("llm.dispatch"), "ms"),
            ("llm.requests_per_job", per(requests), "count"),
            ("core.advance_ms_per_job", ms("core.advance"), "ms"),
            (
                "core.advances_per_job",
                per(b0.count("core.advance")),
                "count",
            ),
            ("sim.compile_ms_per_job", ms("sim.compile"), "ms"),
            (
                "sim.compiles_per_job",
                per(c.count("sim.compiles")),
                "count",
            ),
            (
                "sim.compile_errors_per_job",
                per(c.count("sim.compile_errors")),
                "count",
            ),
            (
                "sim.units_reused_share",
                ratio(reused, reused + rebuilt),
                "share",
            ),
            ("sim.units_per_job", per(reused + rebuilt), "count"),
            ("verilog.parse_ms_per_job", ms("verilog.parse"), "ms"),
            ("tb.run_ms_per_job", ms("tb.run"), "ms"),
            ("tb.runs_per_job", per(c.count("tb.runs")), "count"),
            ("sim.evals_per_job", per(evals), "count"),
            (
                "sim.fused_share",
                ratio(c.count("sim.fused_evals"), evals),
                "share",
            ),
            (
                "sim.plan_steps_per_job",
                per(c.count("sim.plan_steps")),
                "count",
            ),
            (
                "sim.two_state_fallbacks_per_job",
                per(c.count("sim.two_state_fallbacks")),
                "count",
            ),
            ("core.grade_ms_per_job", ms("core.grade"), "ms"),
            // Every workload: what the spans do not cover, and what
            // tracing costs.
            (
                "residual_ms_per_job",
                over(&|b, wall| (wall - (b.side + b.top_level).as_secs_f64()) * 1e3 / n),
                "ms",
            ),
            (
                "named_layer_share",
                over(&|b, wall| b.top_level.as_secs_f64() / (wall - b.side.as_secs_f64())),
                "share",
            ),
            (
                "trace_overhead_share",
                over(&|b, wall| {
                    let solve = wall - (b.side + b.time("core.grade")).as_secs_f64();
                    solve / untraced_wall - 1.0
                }),
                "share",
            ),
            // serve_high (and the shards of fleet_faults).
            ("serve.llm_ms_per_job", ms("serve.llm"), "ms"),
            ("serve.step_ms_per_job", ms("serve.step"), "ms"),
            ("serve.steps_per_job", per(steps), "count"),
            (
                "serve.llm_batch_size",
                ratio(requests, c.count("llm.calls")),
                "count",
            ),
            (
                "serve.llm_batch_calls_per_job",
                per(c.count("llm.calls")),
                "count",
            ),
            (
                "serve.sim_waves_per_job",
                per(c.count("serve.sim_waves")),
                "count",
            ),
            (
                "serve.overlap_share",
                ratio(c.count("serve.overlap_steps"), steps),
                "share",
            ),
            (
                "serve.llm_queue_mean",
                ratio(c.count("serve.llm_queued"), queue_samples),
                "count",
            ),
            (
                "serve.sim_queue_mean",
                ratio(c.count("serve.sim_queued"), queue_samples),
                "count",
            ),
            (
                "serve.design_hit_share",
                ratio(hits("serve.design"), lookups("serve.design")),
                "share",
            ),
            (
                "serve.design_lookups_per_job",
                per(lookups("serve.design")),
                "count",
            ),
            (
                "serve.score_hit_share",
                ratio(hits("serve.score"), lookups("serve.score")),
                "share",
            ),
            (
                "serve.score_lookups_per_job",
                per(lookups("serve.score")),
                "count",
            ),
            (
                "serve.unit_hit_share",
                ratio(hits("serve.unit"), lookups("serve.unit")),
                "share",
            ),
            (
                "serve.unit_lookups_per_job",
                per(lookups("serve.unit")),
                "count",
            ),
            (
                "serve.score_shortcircuits_per_job",
                per(c.count("serve.score_shortcircuits")),
                "count",
            ),
            // fleet_faults.
            ("fleet.round_ms_per_job", ms("fleet.round"), "ms"),
            (
                "fleet.rounds_per_job",
                per(c.count("fleet.rounds")),
                "count",
            ),
            (
                "fleet.migrations",
                c.count("fleet.migrations") as f64,
                "count",
            ),
            (
                "fleet.load_imbalance",
                ratio(c.count("fleet.shard_jobs_max") * shards, self.jobs as u64),
                "ratio",
            ),
            (
                "fleet.design_local_hit_share",
                ratio(hits("fleet.design_local"), lookups("fleet.design_local")),
                "share",
            ),
            (
                "fleet.design_local_lookups_per_job",
                per(lookups("fleet.design_local")),
                "count",
            ),
            (
                "fleet.design_global_hit_share",
                ratio(hits("fleet.design_global"), lookups("fleet.design_global")),
                "share",
            ),
            (
                "fleet.design_global_lookups_per_job",
                per(lookups("fleet.design_global")),
                "count",
            ),
            (
                "fleet.score_local_hit_share",
                ratio(hits("fleet.score_local"), lookups("fleet.score_local")),
                "share",
            ),
            (
                "fleet.score_local_lookups_per_job",
                per(lookups("fleet.score_local")),
                "count",
            ),
            // The dispatcher (busy only under the fault plan).
            ("llm.retries_per_job", per(retries), "count"),
            ("llm.hedges_per_job", per(hedges), "count"),
            (
                "llm.rate_limit_defers_per_job",
                per(c.count("llm.rate_limit_defers")),
                "count",
            ),
            (
                "llm.failovers_per_job",
                per(c.count("llm.failovers")),
                "count",
            ),
            (
                "llm.useful_attempt_share",
                ratio(requests, requests + retries + hedges),
                "share",
            ),
            (
                "llm.attempts_per_job",
                per(requests + retries + hedges),
                "count",
            ),
            (
                "llm.virtual_ms_per_job",
                per(c.count("llm.virtual_ms")),
                "ms",
            ),
            ("failed_share", c.failed as f64 / n, "share"),
        ]
    }

    /// Print the human-readable summary and the result line; returns
    /// whether every check passed.
    pub fn print(&self, trace: bool) -> bool {
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let mut errors = self.errors.clone();
        for (name, value, _) in &metrics {
            if !value.is_finite() {
                errors.push(format!("metric {name} is not a number ({value})"));
            }
        }
        let passes = self.untraced.len() + self.traced.len();
        let latencies = self.latencies();
        println!(
            "{}: {} jobs/block, {} blocks, {} timed passes ({} untraced, {} traced); \
             {} latency samples (each job's best)",
            self.workload.name(),
            self.jobs,
            self.blocks.len(),
            passes,
            self.untraced.len(),
            self.traced.len(),
            latencies.len(),
        );
        for (name, value, unit) in &metrics {
            println!("{name:36} {value:>14.6} {unit}");
        }
        // The tail is printed, not reported: its run-to-run spread on a
        // shared machine exceeds any usable bound (see README).
        if !latencies.is_empty() {
            let tail: Vec<String> = [90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
                .iter()
                .map(|&q| format!("p{q} {:.3}", percentile(&latencies, q)))
                .collect();
            println!("job latency tail (ms): {}", tail.join(", "));
        }
        for e in &errors {
            println!("CHECK FAILED: {e}");
        }
        let attempted = self.jobs * passes;
        let failed: usize = self
            .untraced
            .iter()
            .chain(self.traced.iter().map(|t| &t.pass))
            .map(|p| p.failed)
            .sum();
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            errors.is_empty(),
            body.join(", ")
        );
        errors.is_empty()
    }
}
