//! The MAGE job-stream benchmark.
//!
//! One seeded stream — every VerilogEval-V2 problem × [`stream::RUNS`],
//! high-temperature MAGE — run three ways, so that the difference
//! between workloads measures only the layers they add:
//!
//! * `solo_high`: one client on one thread, `Mage::solve` per job;
//! * `serve_high`: one `ServeEngine`, [`stream::IN_FLIGHT`] jobs in flight;
//! * `fleet_faults`: a two-shard `FleetEngine` with migration on and
//!   the canonical LLM fault plan, [`stream::IN_FLIGHT`] jobs in flight.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo_high --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run makes one untimed warm-up pass over block 0 of the stream (the
//! first pass in a process faults in fresh heap), then times whole
//! passes, cycling through [`stream::BLOCKS`] blocks, until `--seconds`
//! have been measured; each pass is preceded by timed set-ups. With
//! `--trace 0` it prints the end-to-end metrics, taking each turn's time
//! (see [`stream::Turns`]) and each job's latency as the best over the
//! block's passes;
//! with `--trace 1` it alternates untraced and traced passes over block
//! 0 and prints the per-layer metrics, writing the first traced pass as
//! Chrome trace-event JSON under `perfbench/out/`.
//!
//! Either way it checks its outputs: a block timed again must repeat
//! its first pass's traces and work counts exactly (block 0 repeats the
//! warm-up; [`served::SHARD_RACED`] lists the fleet counts exempt), every block's final sources are graded against each
//! problem's golden bench, and the first runs of block 0 also go
//! through the other two workloads, whose per-job traces must be
//! identical. The last line of standard output is one JSON object; a
//! failed check exits 1.

mod alloc;
mod metrics;
mod served;
mod solo;
mod spans;
mod stream;

use spans::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stream::{Pass, Stream};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest untraced and traced passes of a traced run.
const MIN_TRACED_PASSES: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Serve,
    Fleet,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Solo, Workload::Serve, Workload::Fleet];

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo_high",
            Workload::Serve => "serve_high",
            Workload::Fleet => "fleet_faults",
        }
    }

    /// Work counts a pass of this workload need not repeat (see
    /// [`served::SHARD_RACED`]).
    fn raced_counts(self) -> &'static [&'static str] {
        match self {
            Workload::Fleet => &served::SHARD_RACED,
            Workload::Solo | Workload::Serve => &[],
        }
    }

    /// One untraced pass (`rec = None`) or a traced serve/fleet pass.
    fn pass(self, stream: &Stream, rec: Option<Arc<Recorder>>) -> Result<Pass, String> {
        match self {
            Workload::Solo => Ok(solo::pass(stream)),
            Workload::Serve => served::serve_pass(stream, rec),
            Workload::Fleet => served::fleet_pass(stream, rec),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0xBE;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: want a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Set-ups timed before each pass.
const SETUPS_PER_PASS: usize = 3;

/// Set up for one pass, [`SETUPS_PER_PASS`] times over, timing each:
/// build a block of the stream, synthesize every problem's grading
/// bench, construct the workload's engine (torn down untimed). Every pass
/// is preceded by these, so the set-ups of a run are spread over its
/// whole length.
fn setup(w: Workload, seed: u64, block: usize, times: &mut Vec<f64>) -> Result<Stream, String> {
    let mut stream = None;
    for _ in 0..SETUPS_PER_PASS {
        let t = Instant::now();
        let s = Stream::block(seed, block)?;
        for p in mage_problems::suite(mage_problems::SuiteId::V2) {
            std::hint::black_box(mage_core::experiments::grading_bench(p));
        }
        let fleet = served::construct(w, &s);
        times.push(t.elapsed().as_secs_f64());
        if let Some(fleet) = fleet {
            drop(fleet.run());
        }
        stream = Some(s);
    }
    Ok(stream.expect("at least one set-up"))
}

/// Every difference between a pass and the reference pass of its block;
/// with `counts`, also in every work count but `w`'s raced ones.
fn diff_pass(w: Workload, what: &str, reference: &Pass, pass: &Pass, counts: bool) -> Vec<String> {
    let mut errs = Vec::new();
    for (i, (a, b)) in reference.traces.iter().zip(&pass.traces).enumerate() {
        if a != b {
            errs.push(format!("{what}: job {i} ({}) trace differs", a.problem_id));
        }
    }
    if reference.traces.len() != pass.traces.len() {
        errs.push(format!("{what}: trace count differs"));
    }
    let raced = w.raced_counts();
    let exact = |p: &Pass| -> BTreeMap<&'static str, u64> {
        p.counts
            .iter()
            .filter(|(k, _)| !raced.contains(k))
            .map(|(&k, &v)| (k, v))
            .collect()
    };
    if counts && exact(reference) != exact(pass) {
        errs.push(format!(
            "{what}: work counts differ: {:?} vs {:?}",
            reference.counts, pass.counts
        ));
    }
    errs
}

/// Run the first [`stream::CHECK_RUNS`] runs of block 0 through the
/// other two workloads and compare every job with the measured
/// workload's output.
fn cross_check(w: Workload, seed: u64, reference: &Pass) -> Result<Vec<String>, String> {
    let prefix = Stream::build(seed, 0, stream::CHECK_RUNS)?;
    let mut errs = Vec::new();
    for other in Workload::ALL.into_iter().filter(|&o| o != w) {
        let pass = other.pass(&prefix, None)?;
        let (wa, wb) = (w.name(), other.name());
        for (i, (a, b)) in reference.traces.iter().zip(&pass.traces).enumerate() {
            if a.final_source != b.final_source {
                errs.push(format!("job {i}: final_source differs, {wa} vs {wb}"));
            }
            if a.final_score.to_bits() != b.final_score.to_bits() {
                errs.push(format!(
                    "job {i}: final_score {} ({wa}) vs {} ({wb})",
                    a.final_score, b.final_score
                ));
            }
            if a.usage != b.usage {
                errs.push(format!("job {i}: token usage differs, {wa} vs {wb}"));
            }
            if a != b {
                errs.push(format!("job {i}: trace differs, {wa} vs {wb}"));
            }
        }
        if pass.traces.len() != prefix.len() {
            errs.push(format!(
                "{wb} retired {} of {} jobs",
                pass.traces.len(),
                prefix.len()
            ));
        }
    }
    Ok(errs)
}

/// Grade every final source of a pass against its problem's golden
/// grading bench.
fn grades(pass: &Pass) -> Vec<bool> {
    pass.traces
        .iter()
        .map(|t| {
            let p = mage_problems::by_id(&t.problem_id).expect("stream problems are registered");
            mage_core::experiments::grade(p, &t.final_source)
        })
        .collect()
}

fn run(args: &Args) -> Result<metrics::Report, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let stream = setup(w, args.seed, 0, &mut setup_s)?;
    let n = stream.len();

    // Block 0's warm-up pass is untimed; it is the reference block 0's
    // timed passes must reproduce, the pass cross-checked against the
    // other workloads, and the block every traced pass runs.
    let mut blocks = vec![stream::Block::new(w.pass(&stream, None)?)];
    let mut errors = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<metrics::TracedPass> = Vec::new();
    let mut measured = Duration::ZERO;
    // An end-to-end run times every block at least once.
    let min_untraced = if args.trace {
        MIN_TRACED_PASSES
    } else {
        stream::BLOCKS
    };
    while measured.as_secs_f64() < args.seconds
        || untraced.len() < min_untraced
        || (args.trace && traced.len() < MIN_TRACED_PASSES)
    {
        if args.trace && traced.len() < untraced.len() {
            setup(w, args.seed, 0, &mut setup_s)?;
            let t = metrics::traced_pass(w, &stream)?;
            // The traced solo loop counts per call; the engines'
            // counters must not notice the tracing.
            errors.extend(diff_pass(
                w,
                "traced pass",
                &blocks[0].reference,
                &t.pass,
                w != Workload::Solo,
            ));
            if let Some(f) = traced.first() {
                errors.extend(diff_pass(w, "traced pass", &f.pass, &t.pass, true));
            }
            measured += t.pass.wall;
            traced.push(t);
            continue;
        }
        let block = if args.trace {
            0
        } else {
            untraced.len() % stream::BLOCKS
        };
        let s = setup(w, args.seed, block, &mut setup_s)?;
        let mut p = w.pass(&s, None)?;
        eprintln!(
            "pass {} (block {block}): {:.3} s, {:.1} jobs/s, p50 {:.4} ms, p98 {:.4} ms, \
             peak heap {:.1} MB",
            untraced.len(),
            p.wall.as_secs_f64(),
            n as f64 / p.wall.as_secs_f64(),
            metrics::percentile(&p.latency_ms, 50.0),
            metrics::percentile(&p.latency_ms, 98.0),
            p.peak_heap as f64 / 1e6,
        );
        match blocks.get_mut(block) {
            Some(b) => {
                errors.extend(diff_pass(
                    w,
                    &format!("block {block}"),
                    &b.reference,
                    &p,
                    true,
                ));
                if let Err(e) = b.time(&p) {
                    errors.push(format!("block {block}: {e}"));
                }
            }
            None => {
                let reference = Pass::new(
                    p.wall,
                    Vec::new(),
                    std::mem::take(&mut p.traces),
                    p.counts.clone(),
                    p.peak_heap,
                );
                let mut b = stream::Block::new(reference);
                b.time(&p)
                    .expect("a block's first timed pass sets its turns");
                blocks.push(b);
            }
        }
        p.traces = Vec::new();
        measured += p.wall;
        untraced.push(p);
    }

    let warm = &blocks[0].reference;
    let passed0 = grades(warm);
    for t in &traced {
        if t.grades.as_ref().is_some_and(|g| *g != passed0) {
            errors.push("traced grading differs from the untimed grading".into());
        }
    }
    // The quality metrics count every block's reference pass: a fixed
    // set of jobs, so they depend on the seed alone.
    let mut counted = metrics::Counted::default();
    counted.add(warm, &passed0);
    for b in blocks.iter().skip(1) {
        counted.add(&b.reference, &grades(&b.reference));
    }
    errors.extend(cross_check(w, args.seed, warm)?);

    if let Some(first) = traced.first() {
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.trace.json", w.name()));
        std::fs::write(&path, spans::chrome_json(&first.spans, w.name()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("trace: {} ({} spans)", path.display(), first.spans.len());
    }

    Ok(metrics::Report {
        workload: w,
        jobs: n,
        setup_s,
        counted,
        blocks,
        untraced,
        traced,
        errors,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload solo_high|serve_high|fleet_faults \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    // The benchmark measures the default configuration: switches that
    // select reference oracles or inject faults do not leak in.
    for var in [
        "MAGE_SIM_EXEC",
        "MAGE_SIM_TWO_STATE",
        "MAGE_SIM_DELTA",
        "MAGE_SIM_FUSE",
        "MAGE_FAULT_PLAN",
    ] {
        std::env::remove_var(var);
    }
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ok = report.print(args.trace);
    if !ok {
        std::process::exit(1);
    }
}
