//! The batch workloads' cells (one benchmark on one engine) and the
//! reference each cell's output is checked against.
//!
//! References never come from the compilers under test: a suite
//! benchmark's checksum and output files come from the CLite interpreter
//! (`wasmperf_cir::Interp`) over a staged Browsix kernel, and a replay
//! benchmark's checksum is the one its recording carries.

use wasmperf_benchsuite::{Benchmark, Size};
use wasmperf_browsix::{AppendPolicy, Kernel};
use wasmperf_harness::{Engine, RunResult};

/// batch-compute: the paper's headline matrix. Run lengths span 0.7 ms
/// (lu, ludcmp, where per-run machine set-up shows) to 600 ms (h264ref,
/// mcf, where only the hot loop shows).
pub const COMPUTE: [&str; 12] = [
    "gemm",
    "2mm",
    "fdtd-2d",
    "lu",
    "ludcmp",
    "401.bzip2",
    "429.mcf",
    "445.gobmk",
    "458.sjeng",
    "464.h264ref",
    "470.lbm",
    "473.astar",
];

/// batch-io: the syscall-bound programs at Ref size, where the Browsix
/// kernel carries real host time.
pub const IO: [&str; 4] = ["io.pipechain", "io.grep", "io.fsmeta", "io.rwmix"];

/// batch-io: recorded runs answered by the replay kernel (the checked-in
/// recordings are Test size).
pub const REPLAY: [&str; 2] = ["replay.io.rwmix", "replay.401.bzip2"];

/// Interpreter step budget for a reference run: far above any cell.
const ORACLE_FUEL: u64 = 40_000_000_000;

/// One benchmark on one engine.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The benchmark (source, staged inputs, declared outputs).
    pub bench: Benchmark,
    /// The engine it is compiled for.
    pub engine: Engine,
}

/// What a correct run of a benchmark returns and writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// The returned checksum.
    pub checksum: i32,
    /// The declared output files, in declaration order.
    pub outputs: Vec<(String, Vec<u8>)>,
}

impl Reference {
    /// Whether `run` returned and wrote exactly this.
    pub fn matches(&self, run: &RunResult) -> bool {
        run.checksum == self.checksum && run.outputs == self.outputs
    }
}

/// The batch-compute cells: [`COMPUTE`] at Test size on native, Chrome
/// and Firefox.
pub fn batch_compute() -> Result<Vec<Cell>, String> {
    matrix(&COMPUTE, Size::Test, &["native", "chrome", "firefox"])
}

/// The batch-io cells: [`IO`] at Ref size and [`REPLAY`] at Test size,
/// on native and Chrome.
pub fn batch_io() -> Result<Vec<Cell>, String> {
    let mut cells = matrix(&IO, Size::Ref, &["native", "chrome"])?;
    cells.extend(matrix(&REPLAY, Size::Test, &["native", "chrome"])?);
    Ok(cells)
}

/// Every named benchmark × every named engine, benchmark-major.
pub fn matrix(names: &[&str], size: Size, engines: &[&str]) -> Result<Vec<Cell>, String> {
    let mut suite = wasmperf_benchsuite::all(size);
    if names.iter().any(|n| n.starts_with("replay.")) {
        suite.extend(wasmperf_benchsuite::replay::all(size));
    }
    let mut cells = Vec::new();
    for name in names {
        let bench = suite
            .iter()
            .find(|b| b.name == *name)
            .ok_or_else(|| format!("no benchmark {name} at size {}", size.as_str()))?;
        for e in engines {
            let engine = Engine::parse(e).ok_or_else(|| format!("no engine {e}"))?;
            cells.push(Cell {
                bench: bench.clone(),
                engine,
            });
        }
    }
    Ok(cells)
}

/// The reference for `bench`.
pub fn reference(bench: &Benchmark) -> Result<Reference, String> {
    if let Some(rec) = &bench.replay {
        return Ok(Reference {
            checksum: rec.checksum,
            outputs: Vec::new(),
        });
    }
    let fail = |what: String| format!("reference run of {}: {what}", bench.name);
    let prog = wasmperf_cir::compile(&bench.source).map_err(fail)?;
    let mut kernel = Kernel::new(AppendPolicy::Chunked4K);
    for (path, data) in &bench.inputs {
        kernel
            .fs
            .write_all(path, data)
            .map_err(|e| fail(format!("staging {path}: {e:?}")))?;
    }
    let mut interp = wasmperf_cir::Interp::new(&prog, kernel);
    interp.set_fuel(ORACLE_FUEL);
    let ret = interp
        .run("main", &[])
        .map_err(|e| fail(e.to_string()))?
        .ok_or_else(|| fail("main returned no value".into()))?;
    let outputs = bench
        .outputs
        .iter()
        .map(|path| {
            interp
                .host()
                .fs
                .read_all(path)
                .map(|data| (path.clone(), data))
                .map_err(|e| fail(format!("output {path}: {e:?}")))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Reference {
        checksum: ret as u32 as i32,
        outputs,
    })
}

/// References for `cells`, one interpreter run per distinct benchmark.
pub fn references(cells: &[Cell]) -> Result<Vec<Reference>, String> {
    let mut done: Vec<(&Benchmark, Reference)> = Vec::new();
    let mut out = Vec::with_capacity(cells.len());
    for c in cells {
        let seen = done
            .iter()
            .find(|(b, _)| b.name == c.bench.name && b.source == c.bench.source);
        let r = match seen {
            Some((_, r)) => r.clone(),
            None => {
                let r = reference(&c.bench)?;
                done.push((&c.bench, r.clone()));
                r
            }
        };
        out.push(r);
    }
    Ok(out)
}
