//! The traced run's instruments: a span around every public call the
//! benchmark makes into a layer, a host wrapper that times kernel calls,
//! the self-time arithmetic, and the layer-by-layer versions of
//! `harness::prepare` and `harness::execute`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wasmperf_browsix::{AppendPolicy, Kernel};
use wasmperf_cpu::{
    Cache, HostEnv, HostOutcome, Machine, Memory, Predecoded, Threaded, TimingModel,
};
use wasmperf_harness::{Artifact, Engine, RunResult, DEFAULT_FUEL};
use wasmperf_isa::TrapKind;
use wasmperf_replay::ReplayKernel;
use wasmperf_trace::{Span, SpanLog};

use crate::cells::Cell;

/// One thread's span log, plus every call's duration at nanosecond
/// resolution (spans keep microseconds) for the per-layer medians.
pub struct Tracer {
    log: SpanLog,
    /// Category of the spans recorded next: the phase or request they
    /// belong to, so spans of one request share it.
    pub cat: String,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new(cat: &str) -> Tracer {
        Tracer {
            log: SpanLog::new(),
            cat: cat.to_string(),
            samples: BTreeMap::new(),
        }
    }

    /// Runs `f` as one call named `name`, recording its span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.log.enter();
        let t = Instant::now();
        let out = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.log.exit(open, &self.cat, name);
        self.record(name, ms);
        out
    }

    /// Records time `ms` spent in `name` inside the span closed last,
    /// as one child span: kernel calls are too many and too short to
    /// log one by one.
    pub fn child_of_last(&mut self, name: &'static str, ms: f64) {
        let parent = self
            .log
            .spans
            .last()
            .cloned()
            .expect("the parent span closed first");
        self.log.push(Span {
            name: name.to_string(),
            cat: parent.cat,
            start_us: parent.start_us,
            dur_us: ((ms * 1e3) as u64).min(parent.dur_us),
        });
        self.record(name, ms);
    }

    /// Records one value of `name` without a span.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Every value recorded for `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The last value recorded for `name`.
    pub fn last(&self, name: &str) -> f64 {
        self.samples(name).last().copied().unwrap_or(0.0)
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> u64 {
        self.log.now_us()
    }

    /// The spans recorded so far, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.log.spans
    }
}

/// Each span's self time in microseconds: its duration minus the part of
/// its interval covered by the spans nested directly inside it. The
/// spans must come from one thread, so any two either nest or are
/// disjoint.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let end = |i: usize| spans[i].start_us + spans[i].dur_us;
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        spans[a]
            .start_us
            .cmp(&spans[b].start_us)
            .then(spans[b].dur_us.cmp(&spans[a].dur_us))
    });
    let mut covered = vec![0u64; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = open.last() {
            if spans[i].start_us >= spans[top].start_us && end(i) <= end(top) {
                break;
            }
            open.pop();
        }
        if let Some(&top) = open.last() {
            covered[top] += spans[i].dur_us;
        }
        open.push(i);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_us.saturating_sub(c))
        .collect()
}

/// Appends `spans` with their self times to `path` as JSON lines tagged
/// with `thread` (each thread's log has its own epoch).
pub fn write_spans(path: &Path, thread: &str, spans: &[Span]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("writing {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(fail)?;
    let mut out = std::io::BufWriter::new(file);
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            "{{\"thread\":\"{thread}\",\"cat\":\"{}\",\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"self_us\":{self_us}}}",
            wasmperf_trace::json::escape(&s.cat),
            wasmperf_trace::json::escape(&s.name),
            s.start_us,
            s.dur_us
        )
        .map_err(fail)?;
    }
    out.flush().map_err(fail)
}

/// A host that times every call into the host it wraps.
pub struct TimedHost<H> {
    /// The wrapped kernel.
    pub inner: H,
    /// Nanoseconds spent inside `inner`.
    pub ns: u64,
}

impl<H: HostEnv> HostEnv for TimedHost<H> {
    fn call(
        &mut self,
        id: u32,
        args: &[u64; 6],
        mem: &mut Memory,
    ) -> Result<HostOutcome, TrapKind> {
        let t = Instant::now();
        let out = self.inner.call(id, args, mem);
        self.ns += t.elapsed().as_nanos() as u64;
        out
    }
}

/// Compiles `cell` one layer at a time (the calls `harness::prepare`
/// makes), then builds the simulator's per-artifact tables on the
/// emitted module.
pub fn compile_layers(cell: &Cell, tr: &mut Tracer) -> Result<(), String> {
    let prog = tr.span("cir.compile", || wasmperf_cir::compile(&cell.bench.source))?;
    let module = match &cell.engine {
        Engine::Native => {
            let opts = wasmperf_clanglite::CompileOptions::default();
            let module = tr.span("clanglite.compile", || {
                wasmperf_clanglite::compile(&prog, &opts)
            });
            tr.record("clanglite.code_kb", module.code_bytes() as f64 / 1024.0);
            module
        }
        Engine::Jit(profile) => {
            let wasm = tr.span("emcc.compile", || wasmperf_emcc::compile(&prog));
            tr.record(
                "emcc.wasm_kb",
                wasmperf_wasm::binary::encode(&wasm).len() as f64 / 1024.0,
            );
            tr.span("wasm.validate", || wasmperf_wasm::validate(&wasm))
                .map_err(|e| format!("{e:?}"))?;
            let out = tr.span("wasmjit.compile", || {
                wasmperf_wasmjit::compile(&wasm, profile)
            })?;
            tr.record("wasmjit.code_kb", out.module.code_bytes() as f64 / 1024.0);
            out.module
        }
        Engine::NativeWith(_) => return Err("ablation engines are not benchmarked".into()),
    };
    let line = Cache::l1().line_bytes();
    let pre = tr.span("cpu.predecode", || {
        Predecoded::new(&module, &TimingModel::default(), line)
    });
    tr.span("cpu.superblock", || Threaded::new(&pre, line));
    Ok(())
}

/// What one layer-by-layer run measured besides its result.
pub struct LayerRun {
    /// The run's result, as `harness::execute` would return it.
    pub result: RunResult,
    /// `Machine::run` minus the time inside kernel calls, ms.
    pub run_self_ms: f64,
    /// Time inside kernel calls, ms.
    pub host_ms: f64,
}

/// Runs `artifact` the way `harness::execute` does, with a span around
/// each call: kernel set-up and input staging, `Machine::new`,
/// `Machine::run` (kernel calls timed inside it), and output reads.
pub fn execute_layers(
    cell: &Cell,
    artifact: &Artifact,
    tr: &mut Tracer,
) -> Result<LayerRun, String> {
    let bench = &cell.bench;
    let module = &artifact.module;
    let entry = module.entry.ok_or("no main")?;
    let (out, stats, outputs, host_ms) = match &bench.replay {
        Some(rec) => {
            let host = TimedHost {
                inner: ReplayKernel::new(Arc::clone(rec)),
                ns: 0,
            };
            let mut m = tr.span("cpu.machine_new", || Machine::new(module, host));
            let run = tr.span("cpu.run", || m.run(entry, &[], DEFAULT_FUEL));
            let host = m.into_host();
            let host_ms = host.ns as f64 / 1e6;
            tr.child_of_last("replay.call", host_ms);
            let out = run.map_err(|e| e.to_string())?;
            host.inner.finish().map_err(|e| e.to_string())?;
            (out, host.inner.stats, Vec::new(), host_ms)
        }
        None => {
            let kernel = tr.span("browsix.stage", || {
                let mut k = Kernel::new(AppendPolicy::Chunked4K);
                for (path, data) in &bench.inputs {
                    k.fs.write_all(path, data)
                        .map_err(|e| format!("staging {path}: {e:?}"))?;
                }
                Ok::<Kernel, String>(k)
            })?;
            let host = TimedHost {
                inner: kernel,
                ns: 0,
            };
            let mut m = tr.span("cpu.machine_new", || Machine::new(module, host));
            let run = tr.span("cpu.run", || m.run(entry, &[], DEFAULT_FUEL));
            let host = m.into_host();
            let host_ms = host.ns as f64 / 1e6;
            tr.child_of_last("browsix.call", host_ms);
            let out = run.map_err(|e| e.to_string())?;
            let outputs = tr.span("browsix.collect", || {
                bench
                    .outputs
                    .iter()
                    .map(|p| {
                        host.inner
                            .fs
                            .read_all(p)
                            .map(|d| (p.clone(), d))
                            .map_err(|e| format!("output {p}: {e:?}"))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let stage = tr.last("browsix.stage") + tr.last("browsix.collect");
            tr.record("browsix.stage_run", stage);
            (out, host.inner.stats, outputs, host_ms)
        }
    };
    let run_self_ms = tr.last("cpu.run") - host_ms;
    tr.record("cpu.run_self", run_self_ms);
    Ok(LayerRun {
        result: RunResult {
            bench: bench.name.clone(),
            engine: cell.engine.name(),
            checksum: out.ret as u32 as i32,
            counters: out.counters,
            kernel_syscalls: stats.syscalls,
            kernel_bytes: stats.bytes_marshalled,
            outputs,
            compile_cycles: artifact.compile_cycles,
            code_bytes: module.code_bytes(),
        },
        run_self_ms,
        host_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, dur_us: u64) -> Span {
        Span {
            name: name.into(),
            cat: "t".into(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("child1", 10, 20),
            span("grandchild", 12, 8),
            span("parent", 0, 100),
            span("child2", 40, 10),
            span("after", 100, 5),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![12, 8, 70, 10, 5]);
        // Self times partition the traced interval.
        assert_eq!(selfs.iter().sum::<u64>(), 105);
    }

    #[test]
    fn a_child_recorded_after_its_parent_nests_inside_it() {
        let mut tr = Tracer::new("t");
        tr.span("cpu.run", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.child_of_last("browsix.call", 1.0);
        let selfs = self_times(tr.spans());
        let run = tr.spans()[0].dur_us;
        assert_eq!(selfs[1], 1000);
        assert_eq!(selfs[0], run - 1000);
    }
}
