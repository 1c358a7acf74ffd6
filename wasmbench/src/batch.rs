//! The batch workloads: a closed loop on one thread over cells prepared
//! during set-up, checked run by run against their references.
//!
//! The serve-mix latency classes map onto a batch run by what each pays
//! the service: `cold` is a `prepare` (compile on an artifact miss),
//! `warm` an `execute` of a prepared artifact, and `hot` the
//! `encode_result` every response carries. Their percentiles come from
//! [`cell_latency`], because cells differ in length by up to 1000×.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use wasmperf_browsix::AppendPolicy;
use wasmperf_difftest::rng::Rng;
use wasmperf_harness::farm::encode_result;
use wasmperf_harness::{execute, prepare, Artifact, RunResult};

use crate::cells::{references, Cell, Reference};
use crate::layers::{compile_layers, execute_layers, self_times, write_spans, Tracer};
use crate::report::{peak_rss_mib, Report, PER_LAYER};
use crate::stats::{cell_latency, geomean, median, Outcome, Tally};

/// Samples behind every reported p90: `prepare` calls during set-up and
/// runs in the loop.
const TAIL_SAMPLES: usize = 100;

/// Set-ups per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 10;

/// Runs one batch workload over `cells`. With `trace`, runs the traced
/// variant and writes its spans there.
pub fn run(
    cells: &[Cell],
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
) -> Result<Report, String> {
    let refs = references(cells)?;
    match trace {
        None => untraced(cells, &refs, seed, seconds),
        Some(out) => traced(cells, &refs, seed, seconds, out),
    }
}

/// The order of one pass over `n` cells, drawn from `rng`.
pub fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// Checks one run (`None`: it returned an error) against its reference.
pub fn check(run: Option<&RunResult>, want: &Reference) -> Outcome {
    match run {
        Some(r) if want.matches(r) => Outcome::Ok,
        Some(_) => Outcome::Mismatch,
        None => Outcome::Error,
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Simulated MIPS over cells: the geomean of each cell's instructions
/// per host second at its median run time.
fn sim_mips(instructions: &[u64], run_ms: &[Vec<f64>]) -> Option<f64> {
    let per_cell: Vec<f64> = instructions
        .iter()
        .zip(run_ms)
        .map(|(&n, ms)| median(ms).map_or(f64::NAN, |m| n as f64 / (m * 1e3)))
        .collect();
    geomean(&per_cell)
}

fn untraced(cells: &[Cell], refs: &[Reference], seed: u64, seconds: f64) -> Result<Report, String> {
    let n = cells.len();
    let setups = TAIL_SAMPLES.div_ceil(n).max(MIN_SETUPS);
    let mut setup_s = Vec::new();
    let mut prepare_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut set_up = || -> Result<Vec<Artifact>, String> {
        let t = Instant::now();
        let artifacts = cells
            .iter()
            .zip(&mut prepare_ms)
            .map(|(c, ms)| {
                let t = Instant::now();
                let a = prepare(&c.bench, &c.engine).map_err(|e| e.to_string());
                ms.push(ms_since(t));
                a
            })
            .collect::<Result<_, _>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(artifacts)
    };
    let mut artifacts = set_up()?;
    let mut done_setups = 1;

    let mut rng = Rng::new(seed);
    let mut tally = Tally::default();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut encode_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut instructions = vec![0u64; n];
    let mut pass_s = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || tally.attempted < TAIL_SAMPLES as u64
        || done_setups < setups
    {
        let pass = Instant::now();
        for i in shuffled(n, &mut rng) {
            let c = &cells[i];
            let t = Instant::now();
            let run = execute(&c.bench, &c.engine, &artifacts[i], AppendPolicy::Chunked4K).ok();
            let dt = ms_since(t);
            tally.record(check(run.as_ref(), &refs[i]));
            if let Some(r) = run {
                run_ms[i].push(dt);
                instructions[i] = r.counters.instructions_retired;
                let t = Instant::now();
                black_box(encode_result(&r).render());
                encode_ms[i].push(ms_since(t));
            }
        }
        pass_s.push(pass.elapsed().as_secs_f64());
        // The remaining set-ups are spread between passes in proportion
        // to the time gone, so set-up and cold samples span the run like
        // the others do.
        let due = setups as f64 * start.elapsed().as_secs_f64() / seconds;
        while done_setups < setups && (done_setups as f64) < due {
            artifacts = set_up()?;
            done_setups += 1;
        }
    }
    let measured_s: f64 = pass_s.iter().sum();

    let mut report = Report::new();
    report.correct = tally.failed == 0;
    report.tally = tally;
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));
    report.set("peak_rss_mb", peak_rss_mib(&["self".to_string()])?);
    report.set("ok_frac", 1.0 - tally.fail_frac());
    report.set(
        "sim_mips",
        sim_mips(&instructions, &run_ms).ok_or("a cell never ran")?,
    );
    report.set("matrix_s", median(&pass_s).unwrap_or(0.0));
    for ((p50, p90), per_cell) in [
        (("cold_p50_ms", "cold_p90_ms"), &prepare_ms),
        (("warm_p50_ms", "warm_p90_ms"), &run_ms),
        (("hot_p50_ms", "hot_p90_ms"), &encode_ms),
    ] {
        let (v50, v90) = cell_latency(per_cell)?;
        report.set(p50, v50);
        report.set(p90, v90);
    }
    report.set("capacity_rps", tally.ok() as f64 / measured_s);
    Ok(report)
}

fn traced(
    cells: &[Cell],
    refs: &[Reference],
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Report, String> {
    let mut tr = Tracer::new("setup");
    let artifacts = prepare_traced(cells, &mut tr)?;
    let mut tally = Tally::default();
    let passes = traced_passes(cells, refs, &artifacts, seed, seconds, &mut tr, &mut tally)?;
    let mut report = Report::new();
    report.correct = tally.failed == 0;
    report.tally = tally;
    passes.set_metrics(cells, &tr, &mut report);
    report.set("trace.accounted_frac", accounted_frac(&tr));
    write_spans(out, "main", tr.spans())?;
    report.zero_unset(&PER_LAYER);
    Ok(report)
}

/// Set-up, traced: each cell compiled layer by layer, then prepared by
/// `harness::prepare` for the runs.
pub fn prepare_traced(cells: &[Cell], tr: &mut Tracer) -> Result<Vec<Artifact>, String> {
    cells
        .iter()
        .map(|c| {
            compile_layers(c, tr)?;
            tr.span("harness.prepare", || prepare(&c.bench, &c.engine))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// The share of the tracer's lifetime its spans' self times cover.
pub fn accounted_frac(tr: &Tracer) -> f64 {
    let covered: u64 = self_times(tr.spans()).iter().sum();
    covered as f64 / tr.now_us().max(1) as f64
}

/// Per-cell figures from [`traced_passes`].
pub struct Passes {
    instructions: Vec<u64>,
    host_calls: Vec<u64>,
    syscalls: Vec<u64>,
    untraced_ms: Vec<Vec<f64>>,
    traced_ms: Vec<Vec<f64>>,
    host_ms: Vec<Vec<f64>>,
    run_self_ms: Vec<Vec<f64>>,
}

/// Alternating passes over `cells`, at least two and until `seconds`
/// elapse: even passes call `harness::execute` (one span per run), odd
/// passes run layer by layer, so the two give the tracing overhead. A
/// layer-by-layer result must equal the harness's, counter for counter.
pub fn traced_passes(
    cells: &[Cell],
    refs: &[Reference],
    artifacts: &[Artifact],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Passes, String> {
    let n = cells.len();
    let mut p = Passes {
        instructions: vec![0; n],
        host_calls: vec![0; n],
        syscalls: vec![0; n],
        untraced_ms: vec![Vec::new(); n],
        traced_ms: vec![Vec::new(); n],
        host_ms: vec![Vec::new(); n],
        run_self_ms: vec![Vec::new(); n],
    };
    let mut first: Vec<Option<RunResult>> = vec![None; n];
    let mut rng = Rng::new(seed);
    tr.cat = "measure".into();
    let start = Instant::now();
    let mut pass = 0;
    while pass < 2 || start.elapsed().as_secs_f64() < seconds {
        for i in shuffled(n, &mut rng) {
            let c = &cells[i];
            let t = Instant::now();
            let (run, outcome) = if pass % 2 == 0 {
                let run = tr
                    .span("harness.execute", || {
                        execute(&c.bench, &c.engine, &artifacts[i], AppendPolicy::Chunked4K)
                    })
                    .ok();
                p.untraced_ms[i].push(ms_since(t));
                let outcome = check(run.as_ref(), &refs[i]);
                (run, outcome)
            } else {
                match execute_layers(c, &artifacts[i], tr) {
                    Ok(lr) => {
                        p.traced_ms[i].push(ms_since(t));
                        p.host_ms[i].push(lr.host_ms);
                        p.run_self_ms[i].push(lr.run_self_ms);
                        let outcome = match &first[i] {
                            Some(f) if *f != lr.result => Outcome::Mismatch,
                            _ => check(Some(&lr.result), &refs[i]),
                        };
                        (Some(lr.result), outcome)
                    }
                    Err(_) => (None, Outcome::Error),
                }
            };
            tally.record(outcome);
            if let Some(r) = run {
                tr.span("harness.encode", || black_box(encode_result(&r).render()));
                p.instructions[i] = r.counters.instructions_retired;
                p.host_calls[i] = r.counters.host_calls;
                p.syscalls[i] = r.kernel_syscalls;
                first[i].get_or_insert(r);
            }
        }
        pass += 1;
    }
    Ok(p)
}

impl Passes {
    /// Sets the per-layer metrics the in-process layers produce. Counts
    /// and per-pass totals cover one pass over the cells.
    pub fn set_metrics(&self, cells: &[Cell], tr: &Tracer, report: &mut Report) {
        for (metric, samples) in [
            ("cir.compile_ms", "cir.compile"),
            ("emcc.compile_ms", "emcc.compile"),
            ("emcc.wasm_kb", "emcc.wasm_kb"),
            ("wasm.validate_ms", "wasm.validate"),
            ("wasmjit.compile_ms", "wasmjit.compile"),
            ("wasmjit.code_kb", "wasmjit.code_kb"),
            ("clanglite.compile_ms", "clanglite.compile"),
            ("clanglite.code_kb", "clanglite.code_kb"),
            ("cpu.predecode_ms", "cpu.predecode"),
            ("cpu.superblock_ms", "cpu.superblock"),
            ("cpu.machine_new_ms", "cpu.machine_new"),
            ("cpu.run_ms", "cpu.run_self"),
            ("browsix.stage_ms", "browsix.stage_run"),
            ("harness.prepare_ms", "harness.prepare"),
            ("harness.execute_ms", "harness.execute"),
            ("harness.encode_ms", "harness.encode"),
        ] {
            report.set(metric, median(tr.samples(samples)).unwrap_or(0.0));
        }
        let med = |v: &Vec<f64>| median(v).unwrap_or(0.0);
        let replay = |i: &usize| cells[*i].bench.replay.is_some();
        let n = cells.len();
        let instructions: u64 = self.instructions.iter().sum();
        report.set("cpu.instructions", instructions as f64);
        report.set("cpu.host_calls", self.host_calls.iter().sum::<u64>() as f64);
        let run_self_ms: f64 = self.run_self_ms.iter().map(med).sum();
        report.set(
            "cpu.ns_per_inst",
            run_self_ms * 1e6 / instructions.max(1) as f64,
        );
        let live_ms: f64 = (0..n)
            .filter(|i| !replay(i))
            .map(|i| med(&self.host_ms[i]))
            .sum();
        let live_calls: u64 = (0..n)
            .filter(|i| !replay(i))
            .map(|i| self.syscalls[i])
            .sum();
        report.set("browsix.call_ms", live_ms);
        report.set("browsix.syscalls", live_calls as f64);
        report.set(
            "browsix.us_per_syscall",
            if live_calls > 0 {
                live_ms * 1e3 / live_calls as f64
            } else {
                0.0
            },
        );
        let replay_ms: f64 = (0..n).filter(replay).map(|i| med(&self.host_ms[i])).sum();
        let replay_calls: u64 = (0..n).filter(replay).map(|i| self.syscalls[i]).sum();
        report.set("replay.call_ms", replay_ms);
        report.set("replay.syscalls", replay_calls as f64);
        let traced = sim_mips(&self.instructions, &self.traced_ms).unwrap_or(0.0);
        let untraced = sim_mips(&self.instructions, &self.untraced_ms).unwrap_or(0.0);
        report.set("trace.overhead_sim_mips", traced - untraced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::matrix;
    use wasmperf_benchsuite::Size;

    #[test]
    fn a_corrupted_reference_is_reported_as_a_failure() {
        let cells = matrix(&["lu"], Size::Test, &["native"]).unwrap();
        let mut refs = references(&cells).unwrap();
        let good = untraced(&cells, &refs, 1, 0.0).unwrap();
        assert!(good.correct);
        assert_eq!(good.tally.failed, 0);
        refs[0].checksum ^= 1;
        let bad = untraced(&cells, &refs, 1, 0.0).unwrap();
        assert!(!bad.correct);
        assert_eq!(bad.tally.failed, bad.tally.attempted);
        assert_eq!(bad.get("ok_frac"), Some(0.0));
    }

    #[test]
    fn layer_by_layer_runs_equal_harness_runs() {
        let cells = matrix(&["401.bzip2"], Size::Test, &["native", "chrome"]).unwrap();
        let refs = references(&cells).unwrap();
        let mut tr = Tracer::new("test");
        let artifacts = prepare_traced(&cells, &mut tr).unwrap();
        let mut tally = Tally::default();
        traced_passes(&cells, &refs, &artifacts, 7, 0.0, &mut tr, &mut tally).unwrap();
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed, 0);
        assert!(tr.samples("browsix.call").len() == 2);
    }

    #[test]
    fn shuffles_are_permutations_fixed_by_the_seed() {
        let a = shuffled(12, &mut Rng::new(5));
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_eq!(a, shuffled(12, &mut Rng::new(5)));
        assert_ne!(a, shuffled(12, &mut Rng::new(6)));
    }
}
