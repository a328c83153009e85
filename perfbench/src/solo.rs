//! `solo_high`: one client, one thread, one `Mage::solve` after
//! another — the paper's evaluation loop, bypassing `serve` and `fleet`.

use crate::spans::Recorder;
use crate::stream::{Pass, Stream, Turns};
use mage_core::experiments::grade;
use mage_core::{
    compile_pooled, execute_sim_with, Mage, SolveJob, SolveStep, SolveTrace, SolveUnits, StepInput,
    Task,
};
use mage_llm::{
    DebugRequest, JudgeTbRequest, LlmRequest, LlmResponse, ModelOutput, RtlGenRequest,
    RtlLanguageModel, SyntaxFixRequest, SyntheticModel, SyntheticModelConfig, TbGenRequest,
};
use mage_problems::Problem;
use mage_tb::Testbench;
use std::collections::BTreeMap;
use std::time::Instant;

/// Forwards to the synthetic model, counting dispatch calls.
struct Counted {
    inner: SyntheticModel,
    calls: u64,
}

impl RtlLanguageModel for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn generate_rtl(&mut self, req: &RtlGenRequest<'_>) -> ModelOutput<String> {
        self.inner.generate_rtl(req)
    }
    fn generate_testbench(&mut self, req: &TbGenRequest<'_>) -> ModelOutput<Testbench> {
        self.inner.generate_testbench(req)
    }
    fn judge_testbench(&mut self, req: &JudgeTbRequest<'_>) -> ModelOutput<bool> {
        self.inner.judge_testbench(req)
    }
    fn debug_rtl(&mut self, req: &DebugRequest<'_>) -> ModelOutput<String> {
        self.inner.debug_rtl(req)
    }
    fn fix_syntax(&mut self, req: &SyntaxFixRequest<'_>) -> ModelOutput<String> {
        self.inner.fix_syntax(req)
    }
    fn dispatch(&mut self, req: &LlmRequest) -> LlmResponse {
        self.calls += 1;
        self.inner.dispatch(req)
    }
    fn generate_batch(&mut self, batch: &[LlmRequest]) -> Vec<LlmResponse> {
        self.calls += batch.len() as u64;
        self.inner.generate_batch(batch)
    }
}

/// The job's model: a fresh synthetic backend seeded with the job seed
/// and registered with the problem's oracle.
fn model_for(p: &Problem, seed: u64) -> SyntheticModel {
    let mut model = SyntheticModel::new(SyntheticModelConfig::default(), seed);
    model.register(p.id, p.oracle(seed));
    model
}

/// One untraced pass: `Mage::solve` per job, each job timed from model
/// construction to its trace.
pub fn pass(stream: &Stream) -> Pass {
    let n = stream.len();
    let mut latency_ms = Vec::with_capacity(n);
    let mut traces = Vec::with_capacity(n);
    let mut calls = 0;
    crate::alloc::reset_peak();
    let t0 = Instant::now();
    let mut turns = Turns::start();
    for (spec, &p) in stream.specs.iter().zip(&stream.problems) {
        let t = Instant::now();
        let mut model = Counted {
            inner: model_for(p, spec.seed),
            calls: 0,
        };
        let trace = Mage::new(&mut model, spec.config.clone()).solve(&Task {
            id: p.id,
            spec: p.spec,
        });
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        calls += model.calls;
        traces.push(trace);
        turns.end();
    }
    let wall = t0.elapsed();
    Pass::new(
        wall,
        latency_ms,
        traces,
        BTreeMap::from([("llm.calls", calls)]),
        crate::alloc::peak_bytes(),
    )
    .with_turns(turns)
}

/// One traced pass. Steps each `SolveJob` exactly as `Mage::solve`
/// does — same inputs in the same order, compiles through the same
/// per-solve unit pool — with a span around every call into a layer
/// and around the untimed-elsewhere grading. Side measurements (a
/// `mage_verilog::parse` of every compiled source and a counted re-run
/// of every bench) supply parse time and simulator counts without
/// touching the calls the solve makes.
///
/// Returns the pass (its wall includes grading and side measurements)
/// and the grade of every job.
pub fn traced_pass(stream: &Stream, rec: &Recorder) -> (Pass, Vec<bool>) {
    let n = stream.len();
    let mut traces = Vec::with_capacity(n);
    let mut passed = Vec::with_capacity(n);
    let mut c: BTreeMap<&'static str, u64> = BTreeMap::new();
    crate::alloc::reset_peak();
    let t0 = Instant::now();
    for (i, (spec, &p)) in stream.specs.iter().zip(&stream.problems).enumerate() {
        let job = Some(i);
        let mut model = rec.span(job, "problems", "oracle", || model_for(p, spec.seed));
        let trace = solve_traced(rec, job, &mut model, p, spec.config.clone(), &mut c);
        rec.span(job, "llm", "drop_model", || drop(model));
        passed.push(rec.span(job, "core", "grade", || grade(p, &trace.final_source)));
        traces.push(trace);
    }
    let wall = t0.elapsed();
    let pass = Pass::new(wall, Vec::new(), traces, c, crate::alloc::peak_bytes());
    (pass, passed)
}

fn solve_traced(
    rec: &Recorder,
    job: Option<usize>,
    model: &mut SyntheticModel,
    p: &Problem,
    config: mage_core::MageConfig,
    c: &mut BTreeMap<&'static str, u64>,
) -> SolveTrace {
    let mut sj = SolveJob::new(p.id, p.spec, config);
    let units = SolveUnits::new();
    let mut step = rec.span(job, "core", "advance", || sj.advance(StepInput::Start));
    loop {
        step = match step {
            SolveStep::NeedLlm(req) => {
                *c.entry("llm.requests").or_default() += 1;
                let resp = rec.span(job, "llm", "dispatch", || model.dispatch(&req));
                drop(req);
                rec.span(job, "core", "advance", || sj.advance(StepInput::Llm(resp)))
            }
            SolveStep::NeedSim(req) => {
                let mut delta = None;
                let outcome = rec.span(job, "tb", "run", || {
                    execute_sim_with(&req, |src| {
                        rec.span(job, "sim", "compile", || {
                            let r = compile_pooled(src, req.parent.as_ref(), &units);
                            delta = Some(r.as_ref().map(|(_, stats)| *stats).ok());
                            r.map(|(design, _)| design)
                        })
                    })
                });
                if let Some(delta) = delta {
                    *c.entry("sim.compiles").or_default() += 1;
                    match delta {
                        Some(s) => {
                            *c.entry("sim.units_reused").or_default() += s.reused as u64;
                            *c.entry("sim.units_rebuilt").or_default() += s.rebuilt as u64;
                        }
                        None => *c.entry("sim.compile_errors").or_default() += 1,
                    }
                    let parsed = rec.side(job, "verilog", "parse", || {
                        mage_verilog::parse(&req.source).is_ok()
                    });
                    std::hint::black_box(parsed);
                }
                if let (Ok(design), Some(bench)) = (&outcome.design, &req.bench) {
                    *c.entry("tb.runs").or_default() += 1;
                    let counted = rec.side(job, "tb", "counts", || {
                        mage_tb::run_testbench_with_counts(bench, design)
                    });
                    if let Ok((_, e)) = counted {
                        *c.entry("sim.evals").or_default() += e.total_evals();
                        *c.entry("sim.fused_evals").or_default() += e.fused_evals;
                        *c.entry("sim.plan_steps").or_default() += e.plan_steps;
                        *c.entry("sim.two_state_fallbacks").or_default() += e.two_state_fallbacks;
                    }
                }
                rec.span(job, "core", "advance", || {
                    sj.advance(StepInput::Sim(outcome))
                })
            }
            SolveStep::Done(trace) => {
                rec.span(job, "core", "drop_job", || drop((sj, units)));
                return *trace;
            }
        };
    }
}
