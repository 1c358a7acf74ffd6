//! Engines under test, the compile/execute split, and the single-run
//! entry points.
//!
//! Compilation and execution are separate stages so the farm's
//! content-addressed artifact cache can share one compiled [`Artifact`]
//! across every trial, append policy, and experiment that needs it:
//!
//! - [`prepare`] compiles a benchmark for an engine (cir → clanglite, or
//!   cir → emcc → wasmjit) and returns the artifact;
//! - [`execute`] stages inputs into a fresh Browsix kernel and runs an
//!   artifact, producing a [`RunResult`];
//! - [`run_one`] / [`run_one_traced`] glue the two together for callers
//!   that don't cache.

use wasmperf_benchsuite::{Benchmark, Size};
use wasmperf_browsix::{AppendPolicy, Kernel, KernelStats};
use wasmperf_cir::hir::HProgram;
use wasmperf_clanglite::CompileOptions;
use wasmperf_cpu::{ExecMode, HostEnv, HostOutcome, Machine, Memory, PerfCounters};
use wasmperf_farm::hash::fnv1a;
use wasmperf_isa::{Module, TrapKind};
use wasmperf_replay::{Recorder, Recording, ReplayKernel};
use wasmperf_trace::{CycleProfile, SpanLog, StraceLog, SymbolMap, TraceConfig, TraceSession};
use wasmperf_wasmjit::{EngineProfile, SandboxModel, Tier, PKU_SWITCH_CYCLES};

use crate::error::Error;

/// An execution engine (compiler pipeline + runtime conventions).
#[derive(Debug, Clone, PartialEq)]
pub enum Engine {
    /// Clang-like native compilation.
    Native,
    /// Native with custom options (ablations).
    NativeWith(CompileOptions),
    /// A browser JIT profile (wasm or asm.js, any tier).
    Jit(EngineProfile),
}

impl Engine {
    /// Display name. Ablation configurations carry a short fingerprint
    /// suffix so two different [`Engine::NativeWith`] engines never share
    /// a name in result rows, labels, or trace keys.
    pub fn name(&self) -> String {
        match self {
            Engine::Native => "native".to_string(),
            Engine::NativeWith(_) => {
                format!("native-custom-{:08x}", self.fingerprint() as u32)
            }
            Engine::Jit(p) => p.name.clone(),
        }
    }

    /// A stable hash of the **full** engine configuration — register
    /// pools, tier, safety checks, compile options — used as the
    /// artifact-cache key component. Two profiles that differ in any
    /// knob (even sharing a display name) fingerprint differently.
    pub fn fingerprint(&self) -> u64 {
        // Engine (and everything inside it) derives a total Debug
        // representation; FNV over it is stable across processes.
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// Parses the display name of a standard engine configuration — the
    /// inverse of [`Engine::name`] for every engine a remote client can
    /// name over the wasmperf-serve wire protocol (native-compile
    /// ablation engines are constructed programmatically, not by name).
    /// The wasm profiles accept a `+bounds` / `+pku` sandbox-ablation
    /// suffix (`chrome+bounds`, `firefox+pku`, ...); the unsuffixed name
    /// is the guard-page baseline.
    pub fn parse(name: &str) -> Option<Engine> {
        if let Some((base, suffix)) = name.split_once('+') {
            let model = match suffix {
                "bounds" => SandboxModel::Bounds,
                "pku" => SandboxModel::Pku {
                    switch_cycles: PKU_SWITCH_CYCLES,
                },
                _ => return None,
            };
            let profile = match base {
                "chrome" => EngineProfile::chrome(),
                "firefox" => EngineProfile::firefox(),
                _ => return None,
            };
            return Some(Engine::Jit(profile.with_sandbox(model)));
        }
        match name {
            "native" => Some(Engine::Native),
            "chrome" => Some(Engine::Jit(EngineProfile::chrome())),
            "firefox" => Some(Engine::Jit(EngineProfile::firefox())),
            "chrome-asmjs" => Some(Engine::Jit(EngineProfile::chrome_asmjs())),
            "firefox-asmjs" => Some(Engine::Jit(EngineProfile::firefox_asmjs())),
            _ => None,
        }
    }

    /// The sandbox-ablation set for `report sandbox`: native, the
    /// guard-page baseline, and the two alternative protection
    /// strategies on the Chrome profile.
    pub fn sandbox_set() -> Vec<Engine> {
        vec![
            Engine::Native,
            Engine::Jit(EngineProfile::chrome()),
            Engine::Jit(EngineProfile::chrome().with_sandbox(SandboxModel::Bounds)),
            Engine::Jit(EngineProfile::chrome().with_sandbox(SandboxModel::Pku {
                switch_cycles: PKU_SWITCH_CYCLES,
            })),
        ]
    }

    /// The paper's engine set for the headline SPEC comparison.
    pub fn headline() -> Vec<Engine> {
        vec![
            Engine::Native,
            Engine::Jit(EngineProfile::chrome()),
            Engine::Jit(EngineProfile::firefox()),
        ]
    }

    /// Engines for the asm.js comparison (Figures 5/6).
    pub fn asmjs_set() -> Vec<Engine> {
        vec![
            Engine::Jit(EngineProfile::chrome()),
            Engine::Jit(EngineProfile::firefox()),
            Engine::Jit(EngineProfile::chrome_asmjs()),
            Engine::Jit(EngineProfile::firefox_asmjs()),
        ]
    }

    /// Tiered engines for the Figure 1 vintages.
    pub fn vintages() -> Vec<(u32, Vec<Engine>)> {
        let years = [
            (2017, Tier::Y2017),
            (2018, Tier::Y2018),
            (2019, Tier::Y2019),
        ];
        years
            .into_iter()
            .map(|(y, t)| {
                (
                    y,
                    vec![
                        Engine::Jit(EngineProfile::chrome().at_tier(t)),
                        Engine::Jit(EngineProfile::firefox().at_tier(t)),
                    ],
                )
            })
            .collect()
    }
}

/// Result of one (benchmark, engine) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Benchmark name.
    pub bench: String,
    /// Engine name.
    pub engine: String,
    /// The program's returned checksum.
    pub checksum: i32,
    /// Performance counters of the run.
    pub counters: PerfCounters,
    /// Kernel (Browsix) statistics.
    pub kernel_syscalls: u64,
    /// Payload bytes marshalled through the kernel's auxiliary buffer.
    pub kernel_bytes: u64,
    /// Output file contents, for cross-engine `cmp` validation.
    pub outputs: Vec<(String, Vec<u8>)>,
    /// Modeled compile cost in cycles (Table 2); see [`Artifact`].
    pub compile_cycles: u64,
    /// Emitted machine-code bytes.
    pub code_bytes: u64,
}

/// A compiled, executable build of one benchmark on one engine.
///
/// This is the unit the farm's content-addressed cache shares (behind an
/// `Arc`): immutable once built, reusable by any number of concurrent
/// executions.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The executable x86-64 module.
    pub module: Module,
    /// Per-function wasm instruction texts (JIT pipeline only), for
    /// trace symbolization.
    pub func_texts: Vec<Vec<String>>,
    /// Modeled compile cost in cycles (see below).
    pub compile_cycles: u64,
}

/// Modeled AOT compile cost per emitted code byte. The clanglite
/// pipeline runs graph-coloring allocation, unrolling, and fusion — the
/// slow, thorough path (paper Table 2: tens of seconds for SPEC).
const NATIVE_COMPILE_CYCLES_PER_BYTE: u64 = 60_000;

/// Modeled JIT compile cost per emitted code byte: single pass, linear
/// scan — roughly 15× cheaper than the AOT pipeline, matching Table 2's
/// contrast. The model is deterministic (a pure function of the emitted
/// module) so compile-time tables are byte-reproducible and resumable,
/// where the previous wall-clock measurement changed on every run.
const JIT_COMPILE_CYCLES_PER_BYTE: u64 = 4_000;

/// Default execution fuel (retired-instruction budget): generous; runs
/// are bounded by workload size. wasmperf-serve maps per-request
/// deadlines onto smaller budgets via [`execute_with_fuel`].
pub const DEFAULT_FUEL: u64 = 20_000_000_000;

/// Compiles `bench` for `engine`.
pub fn prepare(bench: &Benchmark, engine: &Engine) -> Result<Artifact, Error> {
    prepare_traced(bench, engine, None).map(|(a, _)| a)
}

/// [`prepare`] with optional compile-stage spans, also returning the HIR
/// program (needed to symbolize traces).
pub fn prepare_traced(
    bench: &Benchmark,
    engine: &Engine,
    mut spans: Option<&mut SpanLog>,
) -> Result<(Artifact, HProgram), Error> {
    let compile_err = |message: String| Error::Compile {
        bench: bench.name.to_string(),
        message,
    };

    let prog = match spans.as_mut() {
        Some(log) => log.scope("compile", "cir/frontend", || {
            wasmperf_cir::compile(&bench.source)
        }),
        None => wasmperf_cir::compile(&bench.source),
    }
    .map_err(compile_err)?;

    let artifact = match engine {
        Engine::Native | Engine::NativeWith(_) => {
            let default_opts;
            let opts = match engine {
                Engine::NativeWith(o) => o,
                _ => {
                    default_opts = CompileOptions::default();
                    &default_opts
                }
            };
            let module = wasmperf_clanglite::compile_traced(&prog, opts, spans.as_deref_mut());
            let compile_cycles = NATIVE_COMPILE_CYCLES_PER_BYTE * module.code_bytes();
            Artifact {
                module,
                func_texts: Vec::new(),
                compile_cycles,
            }
        }
        Engine::Jit(profile) => {
            // The wasm module ships to the browser; only JIT cost counts
            // (the paper measures Chrome's compile time, not
            // Emscripten's).
            let wasm = match spans.as_mut() {
                Some(log) => log.scope("compile", "emcc/compile", || wasmperf_emcc::compile(&prog)),
                None => wasmperf_emcc::compile(&prog),
            };
            wasmperf_wasm::validate(&wasm).map_err(|e| compile_err(format!("{e:?}")))?;
            let out = match spans.as_mut() {
                Some(log) => log.scope("compile", "wasmjit/compile", || {
                    wasmperf_wasmjit::compile(&wasm, profile)
                }),
                None => wasmperf_wasmjit::compile(&wasm, profile),
            }
            .map_err(compile_err)?;
            let compile_cycles = JIT_COMPILE_CYCLES_PER_BYTE * out.module.code_bytes();
            Artifact {
                module: out.module,
                func_texts: out.func_texts,
                compile_cycles,
            }
        }
    };
    Ok((artifact, prog))
}

/// Runs a compiled artifact: stages inputs into a fresh Browsix kernel,
/// executes, and collects counters and output files.
pub fn execute(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    policy: AppendPolicy,
) -> Result<RunResult, Error> {
    execute_with_fuel(bench, engine, artifact, policy, DEFAULT_FUEL)
}

/// [`execute`] with an explicit fuel budget. A run that exhausts `fuel`
/// before `main` returns yields [`Error::OutOfFuel`] — the simulated-time
/// half of wasmperf-serve's request deadlines.
pub fn execute_with_fuel(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    policy: AppendPolicy,
    fuel: u64,
) -> Result<RunResult, Error> {
    execute_with_mode_and_fuel(bench, engine, artifact, policy, ExecMode::Threaded, fuel)
}

/// [`execute_with_fuel`] pinned to a specific interpreter loop, for the
/// differential tests that hold the threaded loop byte-identical to the
/// legacy reference, out-of-fuel traps included.
pub fn execute_with_mode_and_fuel(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    policy: AppendPolicy,
    mode: ExecMode,
    fuel: u64,
) -> Result<RunResult, Error> {
    let host = RunHost::for_bench(bench, engine, policy, false)?;
    run(bench, engine, artifact, host, mode, fuel, false).map(|(result, _, _)| result)
}

/// Runs `bench` natively while recording its complete nondeterminism
/// boundary. Returns the run's result (byte-identical to an un-recorded
/// [`execute`] — recording is observation-only) and the captured
/// [`Recording`], ready to [`wasmperf_replay::save`] and replay on every
/// pipeline.
pub fn execute_recorded(
    bench: &Benchmark,
    artifact: &Artifact,
    policy: AppendPolicy,
    size: Size,
) -> Result<(RunResult, Recording), Error> {
    let engine = Engine::Native;
    let mut recorder = Recorder::new(policy);
    stage_inputs(&mut recorder.kernel, bench, &engine)?;
    let host = RunHost::Record(Box::new(recorder));
    let (result, host, _) = run(
        bench,
        &engine,
        artifact,
        host,
        ExecMode::Threaded,
        DEFAULT_FUEL,
        false,
    )?;
    let RunHost::Record(recorder) = host else {
        unreachable!("run returns the host it was given");
    };
    let recording = recorder
        .into_recording(
            &bench.name,
            size.as_str(),
            &bench.source,
            bench.inputs.clone(),
            result.checksum,
        )
        .map_err(|e| exec_err(bench, &engine, e.to_string()))?;
    Ok((result, recording))
}

/// Compiles and runs `bench` on `engine`, with inputs staged in a fresh
/// Browsix kernel using the given append policy. Uncached — the farm
/// path ([`crate::Session`]) shares compiled artifacts instead.
pub fn run_one(
    bench: &Benchmark,
    engine: &Engine,
    policy: AppendPolicy,
) -> Result<RunResult, Error> {
    run_one_traced(bench, engine, policy, TraceConfig::off()).map(|(r, _)| r)
}

/// [`run_one`] with observability: per the config, attributes cycles to
/// instruction addresses, records every Browsix syscall, and wraps compile
/// stages and execution in wall-clock spans.
///
/// Tracing is observation-only: the returned [`RunResult`] is identical to
/// an untraced run's, counter for counter and byte for byte. With
/// [`TraceConfig::off`] no [`TraceSession`] is returned and no collection
/// work happens.
pub fn run_one_traced(
    bench: &Benchmark,
    engine: &Engine,
    policy: AppendPolicy,
    config: TraceConfig,
) -> Result<(RunResult, Option<TraceSession>), Error> {
    let mut spans = if config.spans {
        Some(SpanLog::new())
    } else {
        None
    };
    let (artifact, prog) = prepare_traced(bench, engine, spans.as_mut())?;
    let host = RunHost::for_bench(bench, engine, policy, config.strace)?;
    let open = spans.as_ref().map(SpanLog::enter);
    let (result, mut host, profile) = run(
        bench,
        engine,
        &artifact,
        host,
        ExecMode::Threaded,
        DEFAULT_FUEL,
        config.profile,
    )?;
    if let (Some(log), Some(open)) = (spans.as_mut(), open) {
        log.exit(open, "exec", "run");
    }
    if config.is_off() {
        return Ok((result, None));
    }

    let mut t = TraceSession::new(&result.bench, &result.engine);
    t.spans = spans.map(|l| l.spans).unwrap_or_default();
    t.strace = host.take_strace();
    t.profile = profile;
    if config.profile {
        let mut symbols = SymbolMap::from_module(&artifact.module);
        symbols.attach_source(&wasmperf_clanglite::source_table(&prog));
        if !artifact.func_texts.is_empty() {
            symbols.attach_wasm_texts(&artifact.module, &artifact.func_texts);
        }
        t.symbols = Some(symbols);
    }
    let c = &result.counters;
    t.totals = vec![
        ("instructions_retired", c.instructions_retired),
        ("cycles", c.cycles),
        ("icache_misses", c.icache_misses),
        ("dcache_misses", c.dcache_misses),
        ("branch_mispredicts", c.branch_mispredicts),
        ("host_calls", c.host_calls),
        ("host_cycles", c.host_cycles),
        ("total_cycles", c.total_cycles()),
    ];
    Ok((result, Some(t)))
}

/// The one execution path behind every entry point: runs `artifact` from
/// its entry on `host` under `mode` with a `fuel` budget, maps traps to
/// [`Error`], and validates and collects what the host saw. `profile`
/// attributes cycles per instruction address (which always takes the
/// legacy loop). Returns the host for callers that read more from it.
fn run(
    bench: &Benchmark,
    engine: &Engine,
    artifact: &Artifact,
    host: RunHost,
    mode: ExecMode,
    fuel: u64,
    profile: bool,
) -> Result<(RunResult, RunHost, Option<CycleProfile>), Error> {
    let module = &artifact.module;
    let entry = module
        .entry
        .ok_or_else(|| exec_err(bench, engine, "no main".into()))?;
    let mut machine = Machine::new(module, host);
    machine.set_exec_mode(mode);
    if profile {
        machine.enable_profile();
    }
    let run = machine.run(entry, &[], fuel);
    let profile = machine.take_profile();
    let host = machine.into_host();
    let out = run.map_err(|e| {
        if e.kind == TrapKind::OutOfFuel {
            Error::OutOfFuel {
                bench: bench.name.to_string(),
                engine: engine.name(),
                fuel,
            }
        } else if let Some(msg) = host.divergence() {
            exec_err(bench, engine, format!("replay divergence: {msg}"))
        } else {
            exec_err(bench, engine, format!("{e:?}"))
        }
    })?;

    let checksum = out.ret as u32 as i32;
    let outputs = host.finish(bench, engine, checksum)?;
    let result = RunResult {
        bench: bench.name.to_string(),
        engine: engine.name(),
        checksum,
        counters: out.counters,
        kernel_syscalls: host.stats().syscalls,
        kernel_bytes: host.stats().bytes_marshalled,
        outputs,
        compile_cycles: artifact.compile_cycles,
        code_bytes: module.code_bytes(),
    };
    Ok((result, host, profile))
}

fn exec_err(bench: &Benchmark, engine: &Engine, message: String) -> Error {
    Error::Exec {
        bench: bench.name.to_string(),
        engine: engine.name(),
        message,
    }
}

/// Writes `bench`'s input files into `kernel`'s file system.
fn stage_inputs(kernel: &mut Kernel, bench: &Benchmark, engine: &Engine) -> Result<(), Error> {
    for (path, data) in &bench.inputs {
        kernel
            .fs
            .write_all(path, data)
            .map_err(|e| exec_err(bench, engine, format!("staging {path}: {e:?}")))?;
    }
    Ok(())
}

/// The host behind one execution: a live Browsix kernel, a replay kernel
/// answering syscalls from a recording ([`Suite::Replay`] benchmarks), or
/// a live kernel behind a [`Recorder`] capturing the syscall boundary.
///
/// [`Suite::Replay`]: wasmperf_benchsuite::Suite::Replay
enum RunHost {
    Live(Box<Kernel>),
    Replay(ReplayKernel),
    Record(Box<Recorder>),
}

impl RunHost {
    /// Builds the host for `bench`: a replay kernel when the benchmark
    /// carries a recording, else a fresh kernel with inputs staged.
    fn for_bench(
        bench: &Benchmark,
        engine: &Engine,
        policy: AppendPolicy,
        strace: bool,
    ) -> Result<RunHost, Error> {
        if let Some(rec) = &bench.replay {
            let mut k = ReplayKernel::new(rec.clone());
            if strace {
                k.strace = Some(StraceLog::default());
            }
            return Ok(RunHost::Replay(k));
        }
        let mut kernel = Kernel::new(policy);
        if strace {
            kernel.strace = Some(StraceLog::default());
        }
        stage_inputs(&mut kernel, bench, engine)?;
        Ok(RunHost::Live(Box::new(kernel)))
    }

    fn stats(&self) -> &KernelStats {
        match self {
            RunHost::Live(k) => &k.stats,
            RunHost::Replay(k) => &k.stats,
            RunHost::Record(r) => &r.kernel.stats,
        }
    }

    fn take_strace(&mut self) -> Option<StraceLog> {
        match self {
            RunHost::Live(k) => k.strace.take(),
            RunHost::Replay(k) => k.strace.take(),
            // The recorder's strace log is what its recording is built from.
            RunHost::Record(_) => None,
        }
    }

    /// Post-run validation and output collection. A replay host must have
    /// consumed its recording exactly and reproduced the recorded
    /// checksum; a live host yields the benchmark's declared output
    /// files.
    fn finish(
        &self,
        bench: &Benchmark,
        engine: &Engine,
        checksum: i32,
    ) -> Result<Vec<(String, Vec<u8>)>, Error> {
        let kernel: &Kernel = match self {
            RunHost::Replay(k) => {
                k.finish()
                    .map_err(|e| exec_err(bench, engine, e.to_string()))?;
                let rec = bench
                    .replay
                    .as_ref()
                    .expect("replay host without recording");
                if checksum != rec.checksum {
                    return Err(exec_err(
                        bench,
                        engine,
                        format!("replay checksum {checksum} != recorded {}", rec.checksum),
                    ));
                }
                return Ok(Vec::new());
            }
            RunHost::Live(k) => k,
            RunHost::Record(r) => &r.kernel,
        };
        bench
            .outputs
            .iter()
            .map(|path| {
                let data = kernel
                    .fs
                    .read_all(path)
                    .map_err(|e| exec_err(bench, engine, format!("output {path}: {e:?}")))?;
                Ok((path.clone(), data))
            })
            .collect()
    }

    /// The divergence message, if this is a replay host that strayed
    /// from its recording (the cause behind an `Abort` trap).
    fn divergence(&self) -> Option<&str> {
        match self {
            RunHost::Replay(k) => k.divergence(),
            RunHost::Live(_) | RunHost::Record(_) => None,
        }
    }
}

impl HostEnv for RunHost {
    fn call(
        &mut self,
        id: u32,
        args: &[u64; 6],
        mem: &mut Memory,
    ) -> Result<HostOutcome, TrapKind> {
        match self {
            RunHost::Live(k) => k.call(id, args, mem),
            RunHost::Replay(k) => k.call(id, args, mem),
            RunHost::Record(r) => r.call(id, args, mem),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasmperf_benchsuite::{spec, Size};

    #[test]
    fn parse_inverts_name_for_standard_engines() {
        for e in Engine::headline()
            .iter()
            .chain(Engine::asmjs_set().iter())
            .chain(Engine::sandbox_set().iter())
        {
            assert_eq!(Engine::parse(&e.name()).as_ref(), Some(e), "{}", e.name());
        }
        assert_eq!(Engine::parse("safari"), None);
        assert_eq!(Engine::parse(""), None);
        assert_eq!(Engine::parse("chrome+guard"), None);
        assert_eq!(Engine::parse("chrome-asmjs+bounds"), None);
        assert_eq!(Engine::parse("native+pku"), None);
        // Ablation engines are not nameable over the wire.
        let ablation = Engine::NativeWith(CompileOptions {
            unroll: false,
            ..CompileOptions::default()
        });
        assert_eq!(Engine::parse(&ablation.name()), None);
    }

    #[test]
    fn fuel_budget_bounds_execution() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let e = Engine::Native;
        let artifact = prepare(&b, &e)?;
        // A generous budget matches the default-fuel path byte for byte.
        let full = execute_with_fuel(&b, &e, &artifact, AppendPolicy::Chunked4K, DEFAULT_FUEL)?;
        assert_eq!(full, execute(&b, &e, &artifact, AppendPolicy::Chunked4K)?);
        // A budget below the run's retired instructions is a structured
        // deadline error, not a stringly Exec failure.
        let tiny = execute_with_fuel(&b, &e, &artifact, AppendPolicy::Chunked4K, 1_000);
        assert_eq!(
            tiny.unwrap_err(),
            Error::OutOfFuel {
                bench: "401.bzip2".into(),
                engine: "native".into(),
                fuel: 1_000,
            }
        );
        Ok(())
    }

    #[test]
    fn engines_have_distinct_names() {
        let names: Vec<String> = Engine::headline()
            .iter()
            .chain(Engine::asmjs_set().iter())
            .map(Engine::name)
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        // headline ∩ asmjs_set share chrome/firefox.
        assert!(dedup.len() >= 5, "{names:?}");
    }

    #[test]
    fn distinct_ablation_configs_share_neither_name_nor_result_key() {
        let a = Engine::NativeWith(CompileOptions {
            unroll: false,
            ..CompileOptions::default()
        });
        let b = Engine::NativeWith(CompileOptions {
            fuse_addressing: false,
            ..CompileOptions::default()
        });
        // Result rows, labels, and trace keys use the display name, so a
        // shared "native-custom" would silently merge two ablations.
        assert_ne!(a.name(), b.name());
        assert!(a.name().starts_with("native-custom-"), "{}", a.name());
        let bench = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let key = |e: &Engine| {
            crate::farm::job_spec(&bench, e, Size::Test, AppendPolicy::Chunked4K, 0).key()
        };
        assert_ne!(key(&a), key(&b));
        // Name and key stay deterministic run to run.
        assert_eq!(a.name(), a.name());
        assert_eq!(key(&a), key(&a));
    }

    #[test]
    fn fingerprints_distinguish_every_configuration() {
        let mut engines: Vec<Engine> = Engine::headline();
        engines.extend(Engine::asmjs_set());
        for (_, vintage) in Engine::vintages() {
            engines.extend(vintage);
        }
        engines.push(Engine::NativeWith(CompileOptions {
            unroll: false,
            ..CompileOptions::default()
        }));
        engines.push(Engine::Jit(EngineProfile {
            stack_check: false,
            ..EngineProfile::chrome()
        }));
        engines.push(Engine::Jit(
            EngineProfile::chrome().with_sandbox(SandboxModel::Bounds),
        ));
        engines.push(Engine::Jit(EngineProfile::firefox().with_sandbox(
            SandboxModel::Pku {
                switch_cycles: PKU_SWITCH_CYCLES,
            },
        )));
        let mut prints: Vec<u64> = engines.iter().map(Engine::fingerprint).collect();
        let before = prints.len();
        prints.sort();
        prints.dedup();
        // headline ∩ asmjs_set ∩ vintages share chrome/firefox at Y2019
        // (identical configurations fingerprint identically); everything
        // configured differently must differ.
        assert_eq!(prints.len(), before - 2, "{engines:?}");
        // Determinism: same configuration, same fingerprint.
        assert_eq!(Engine::Native.fingerprint(), Engine::Native.fingerprint());
    }

    #[test]
    fn one_io_benchmark_runs_on_all_headline_engines() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let mut checksums = Vec::new();
        for e in Engine::headline() {
            let r = run_one(&b, &e, AppendPolicy::Chunked4K)?;
            assert!(r.counters.instructions_retired > 0);
            assert!(r.kernel_syscalls > 0);
            assert!(!r.outputs[0].1.is_empty());
            checksums.push((r.checksum, r.outputs));
        }
        // Every engine agrees on checksum and output bytes (the cmp step).
        for w in checksums.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        Ok(())
    }

    #[test]
    fn prepare_execute_split_matches_run_one() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let e = Engine::Jit(EngineProfile::chrome());
        let artifact = prepare(&b, &e)?;
        assert!(artifact.compile_cycles > 0);
        let split = execute(&b, &e, &artifact, AppendPolicy::Chunked4K)?;
        let fused = run_one(&b, &e, AppendPolicy::Chunked4K)?;
        assert_eq!(split, fused);
        // The artifact is reusable: a second execution is identical.
        let again = execute(&b, &e, &artifact, AppendPolicy::Chunked4K)?;
        assert_eq!(split, again);
        Ok(())
    }

    #[test]
    fn compile_cost_model_contrasts_aot_and_jit() -> Result<(), Error> {
        let b = spec::all(Size::Test)
            .into_iter()
            .find(|b| b.name == "401.bzip2")
            .unwrap();
        let native = prepare(&b, &Engine::Native)?;
        let jit = prepare(&b, &Engine::Jit(EngineProfile::chrome()))?;
        // Table 2's shape: the AOT pipeline is far more expensive than
        // the JIT, even though the JIT emits more code.
        assert!(native.compile_cycles > 3 * jit.compile_cycles);
        Ok(())
    }
}
