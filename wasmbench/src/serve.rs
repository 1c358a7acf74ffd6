//! The serve-mix workload: an open loop, then a closed loop, against a
//! real `wasmperf-fleet up --shards 2 --workers 1` subprocess (a router
//! and two shards).
//!
//! Each request's class is drawn from the seed:
//!
//! - cold (20%): a unique generated CLite program sent as inline source;
//!   it misses both caches and is dominated by compile time;
//! - warm (30%): a short named key sent with a generous `deadline_ms`.
//!   Only unbounded-fuel results are cached, so it hits the artifact
//!   cache but executes every time;
//! - hot (50%): a named key with no deadline, result-cached during
//!   set-up, so it exercises HTTP, the router, the cache lookup and
//!   `encode_result`.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wasmperf_benchsuite::{Benchmark, Size, Suite};
use wasmperf_browsix::AppendPolicy;
use wasmperf_difftest::rng::Rng;
use wasmperf_farm::Json;
use wasmperf_harness::farm::{encode_result, job_spec};
use wasmperf_harness::{execute, prepare, Engine};
use wasmperf_serve::{Client, Response};

use crate::batch::{accounted_frac, prepare_traced, traced_passes};
use crate::cells::{reference, Cell, Reference};
use crate::layers::{write_spans, Tracer};
use crate::report::{peak_rss_mib, Report, PER_LAYER};
use crate::stats::{geomean, median, nearest_rank, tail_percentile, Outcome, Tally};

/// Open-loop arrival rate: a sixth to a tenth of the closed-loop
/// `capacity_rps` measured on a 2-core host (README.md records the
/// calibration and why it is not half).
pub const OPEN_RPS: f64 = 100.0;

/// Closed-loop requests per second of `--seconds`' closed share: the
/// capacity calibrated on the same host, so the closed loop runs for
/// about its share while its request count stays fixed.
const CLOSED_NOMINAL_RPS: f64 = 550.0;

/// CLite interpreter steps a cold program may take: keeps the rare
/// long-running generated program from making one seed's mix slower.
const COLD_FUEL: u64 = 50_000;

/// Generator threads, each with one keep-alive connection: the host's
/// 2 cores.
const CONNECTIONS: usize = 2;

/// Named keys: short runs, so a warm request costs machine set-up plus
/// hot loop.
const KEYS: [&str; 5] = ["lu", "ludcmp", "cholesky", "473.astar", "gemm"];
const ENGINES: [&str; 3] = ["native", "chrome", "firefox"];

/// Far above any key's simulated run time: warm runs finish, but carry
/// a deadline, so they bypass the result cache.
const WARM_DEADLINE_MS: f64 = 1000.0;

/// Class mix, percent; the rest is hot.
const COLD_PCT: u64 = 20;
const WARM_PCT: u64 = 30;
const COLD: usize = 0;
const WARM: usize = 1;
const HOT: usize = 2;
const CLASS: [&str; 3] = ["cold", "warm", "hot"];

/// Open-loop requests per class, at least: ten samples beyond p90.
const MIN_PER_CLASS: usize = 100;
/// Open-loop requests, at least: ten samples beyond `gen.late_ms_p99`.
const MIN_OPEN: usize = 1000;
/// How late the generator may send (p99) before a run's latencies stop
/// measuring the schedule they claim, and the run is not correct.
const GEN_LATE_LIMIT_MS: f64 = 100.0;
/// Fleets brought up per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shares of `--seconds` for the open loop, the closed loop, and the
/// sequential passes over the warm-key matrix.
const OPEN_SHARE: f64 = 0.6;
const CLOSED_SHARE: f64 = 0.3;
const MATRIX_SHARE: f64 = 0.1;
/// Rounds of hot keys sent both through the router and straight to
/// their shard (traced run).
const DIRECT_ROUNDS: usize = 8;

/// A named key with its expected response payload.
struct Named {
    bench: Benchmark,
    engine: &'static str,
    reference: Reference,
    /// `encode_result` of an in-process run, rendered: the bytes the
    /// response's `result` must carry.
    payload: Vec<u8>,
    instructions: u64,
    /// The content-addressed job key the router routes by.
    key: u64,
}

/// A generated program the CLite oracle runs to a normal return.
struct ColdProgram {
    source: String,
    checksum: i32,
    engine: usize,
}

enum Expect {
    Payload(usize),
    Checksum(i32),
}

/// One planned request.
struct Req {
    class: usize,
    /// Named key index (warm and hot) or cold program index.
    index: usize,
    engine: usize,
    body: Vec<u8>,
    expect: Expect,
    /// Offset from the open loop's start at which it is due.
    due_us: u64,
}

/// One request as it ended.
struct Sample {
    class: usize,
    index: usize,
    latency_ms: f64,
    late_ms: f64,
    outcome: Outcome,
    status: u16,
    cached: bool,
    queue_us: Option<u64>,
    exec_us: Option<u64>,
    traced: bool,
}

/// Runs serve-mix against the fleet binary `exe`. With `trace`, also
/// replays the run's cold sources and warm keys in-process, layer by
/// layer, sends hot keys straight to their shard, and writes spans
/// there.
pub fn run(exe: &Path, seed: u64, seconds: f64, trace: Option<&Path>) -> Result<Report, String> {
    let named = named_keys()?;
    let mut rng = Rng::new(seed);
    let open_s = seconds * OPEN_SHARE;
    let closed_s = seconds * CLOSED_SHARE;
    let expected_open = (OPEN_RPS * open_s).max(MIN_OPEN as f64) * 1.3;
    let closed_n = (CLOSED_NOMINAL_RPS * closed_s).ceil() as usize;
    let cold_needed = (expected_open + closed_n as f64) * COLD_PCT as f64 / 100.0 * 1.3;
    let colds = cold_programs(rng.next_u64(), (cold_needed / 3.0).ceil() as usize + 50);
    let mut next_cold = 0;
    let open_plan = plan_open(&mut rng, &named, &colds, &mut next_cold, open_s)?;
    let closed_plan = plan_closed(&mut rng, &named, &colds, &mut next_cold, closed_n)?;

    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let f = Fleet::up(exe)?;
        warm_up(&f.router, &named)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // Earlier fleets stop here, outside the timed set-up.
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    let router = fleet.router.clone();
    let before = get_json(&router, "/metrics")?;

    let traced = trace.is_some();
    let (open, gen_tracers) = open_loop(&router, &open_plan, &named, traced);
    let (closed, closed_s_used) = closed_loop(&router, &closed_plan, &named);
    let (matrix, pass_s) = matrix_passes(&router, &named, seconds * MATRIX_SHARE)?;
    let direct = if traced {
        Some(direct_hot(&router, &named)?)
    } else {
        None
    };
    let after = get_json(&router, "/metrics")?;
    let rss = peak_rss_mib(&fleet.pids)?;
    fleet.stop();

    let mut tally = Tally::default();
    for s in open.iter().chain(&closed).chain(&matrix) {
        tally.record(s.outcome);
    }
    let late: Vec<f64> = open.iter().map(|s| s.late_ms).collect();
    let late_p99 = tail_percentile(&late, 99)?;
    if late_p99 > GEN_LATE_LIMIT_MS {
        eprintln!(
            "wasmbench: generator p99 lateness {late_p99:.1} ms exceeds {GEN_LATE_LIMIT_MS} ms"
        );
    }
    let mut report = Report::new();
    match trace {
        None => {
            report.set("setup_s", median(&setup_s).unwrap_or(0.0));
            report.set("peak_rss_mb", rss);
            report.set("ok_frac", 1.0 - tally.fail_frac());
            report.set(
                "sim_mips",
                warm_mips(&named, open.iter().chain(&closed).chain(&matrix))?,
            );
            report.set("matrix_s", median(&pass_s).unwrap_or(0.0));
            for (class, (p50, p90)) in [
                ("cold", ("cold_p50_ms", "cold_p90_ms")),
                ("warm", ("warm_p50_ms", "warm_p90_ms")),
                ("hot", ("hot_p50_ms", "hot_p90_ms")),
            ] {
                let lat: Vec<f64> = open
                    .iter()
                    .filter(|s| CLASS[s.class] == class)
                    .map(|s| s.latency_ms)
                    .collect();
                report.set(p50, nearest_rank(&lat, 50).ok_or("no samples")?);
                report.set(p90, tail_percentile(&lat, 90)?);
            }
            let closed_ok = closed.iter().filter(|s| s.outcome == Outcome::Ok).count();
            report.set("capacity_rps", closed_ok as f64 / closed_s_used);
        }
        Some(out) => {
            let (router_ms, direct_ms, direct_samples) = direct.expect("traced runs send direct");
            for s in &direct_samples {
                tally.record(s.outcome);
            }
            let direct_p50 = median(&direct_ms).unwrap_or(0.0);
            report.set("serve.direct_hot_ms", direct_p50);
            report.set(
                "fleet.proxy_ms",
                median(&router_ms).unwrap_or(0.0) - direct_p50,
            );
            set_fleet_metrics(&mut report, &before, &after, &open, &closed, &matrix)?;
            report.set("gen.late_ms_p99", late_p99);
            let (cells, refs) = replay_cells(&named, &colds, &open_plan)?;
            let mut tr = Tracer::new("setup");
            let artifacts = prepare_traced(&cells, &mut tr)?;
            let passes = traced_passes(&cells, &refs, &artifacts, seed, 0.0, &mut tr, &mut tally)?;
            passes.set_metrics(&cells, &tr, &mut report);
            report.set("trace.accounted_frac", accounted_frac(&tr));
            write_spans(out, "main", tr.spans())?;
            for (i, g) in gen_tracers.iter().enumerate() {
                write_spans(out, &format!("gen-{i}"), g.spans())?;
            }
            report.zero_unset(&PER_LAYER);
        }
    }
    report.correct = tally.failed == 0 && late_p99 <= GEN_LATE_LIMIT_MS;
    report.tally = tally;
    Ok(report)
}

/// The named keys, each run in-process during set-up: its checksum and
/// outputs must match the CLite interpreter's, and its encoded result
/// becomes the payload every response is byte-compared against.
fn named_keys() -> Result<Vec<Named>, String> {
    let suite = wasmperf_benchsuite::all(Size::Test);
    let mut named = Vec::new();
    for name in KEYS {
        let bench = suite
            .iter()
            .find(|b| b.name == name)
            .ok_or_else(|| format!("no benchmark {name}"))?;
        let want = reference(bench)?;
        for e in ENGINES {
            let engine = Engine::parse(e).ok_or_else(|| format!("no engine {e}"))?;
            let artifact = prepare(bench, &engine).map_err(|e| e.to_string())?;
            let r = execute(bench, &engine, &artifact, AppendPolicy::Chunked4K)
                .map_err(|e| e.to_string())?;
            if !want.matches(&r) {
                return Err(format!("{name}/{e} disagrees with the CLite interpreter"));
            }
            named.push(Named {
                bench: bench.clone(),
                engine: e,
                reference: want.clone(),
                payload: encode_result(&r).render().into_bytes(),
                instructions: r.counters.instructions_retired,
                key: job_spec(bench, &engine, Size::Test, AppendPolicy::Chunked4K, 0).key(),
            });
        }
    }
    Ok(named)
}

/// `n` generated programs that the CLite oracle runs to a normal return
/// within [`COLD_FUEL`] steps and without C-undefined behaviour (about
/// 30% of raw seeds trap).
fn cold_programs(seed: u64, n: usize) -> Vec<ColdProgram> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let source = wasmperf_difftest::generate(rng.next_u64()).render();
        let Ok(prog) = wasmperf_cir::compile(&source) else {
            continue;
        };
        let mut interp = wasmperf_cir::Interp::new(&prog, wasmperf_cir::NoSyscalls);
        interp.set_fuel(COLD_FUEL);
        let ret = interp.run("main", &[]);
        if let (Ok(Some(v)), false) = (ret, interp.c_ub) {
            out.push(ColdProgram {
                source,
                checksum: v as u32 as i32,
                engine: rng.below(ENGINES.len() as u64) as usize,
            });
        }
    }
    out
}

fn body(fields: Vec<(&str, Json)>) -> Vec<u8> {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .render()
    .into_bytes()
}

/// The request for named key `k`: warm ones carry the deadline that
/// keeps them out of the result cache.
fn named_req(named: &[Named], k: usize, class: usize) -> Req {
    let n = &named[k];
    let mut fields = vec![
        ("bench", Json::Str(n.bench.name.clone())),
        ("engine", Json::Str(n.engine.into())),
        ("size", Json::Str("test".into())),
    ];
    if class == WARM {
        fields.push(("deadline_ms", Json::Num(WARM_DEADLINE_MS)));
    }
    Req {
        class,
        index: k,
        engine: 0,
        body: body(fields),
        expect: Expect::Payload(k),
        due_us: 0,
    }
}

/// Draws one request. Cold requests take the next unused (program,
/// engine) pair — each pair misses both caches — and `None` means the
/// pool is spent.
fn draw(
    rng: &mut Rng,
    named: &[Named],
    colds: &[ColdProgram],
    next_cold: &mut usize,
) -> Option<Req> {
    let roll = rng.below(100);
    if roll < COLD_PCT {
        let (program, round) = (*next_cold % colds.len(), *next_cold / colds.len());
        if round >= ENGINES.len() {
            return None;
        }
        *next_cold += 1;
        let c = &colds[program];
        let engine = (c.engine + round) % ENGINES.len();
        return Some(Req {
            class: COLD,
            index: program,
            engine,
            body: body(vec![
                ("source", Json::Str(c.source.clone())),
                ("engine", Json::Str(ENGINES[engine].into())),
            ]),
            expect: Expect::Checksum(c.checksum),
            due_us: 0,
        });
    }
    let k = rng.below(named.len() as u64) as usize;
    let class = if roll < COLD_PCT + WARM_PCT {
        WARM
    } else {
        HOT
    };
    Some(named_req(named, k, class))
}

/// The open loop's requests with seeded Poisson arrival times at
/// [`OPEN_RPS`], over `open_s` seconds and at least [`MIN_OPEN`]
/// requests with [`MIN_PER_CLASS`] of each class.
fn plan_open(
    rng: &mut Rng,
    named: &[Named],
    colds: &[ColdProgram],
    next_cold: &mut usize,
    open_s: f64,
) -> Result<Vec<Req>, String> {
    let mut plan: Vec<Req> = Vec::new();
    let mut per_class = [0usize; 3];
    let mut t = 0.0f64;
    while t < open_s || plan.len() < MIN_OPEN || per_class.iter().any(|&c| c < MIN_PER_CLASS) {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        t += -(1.0 - u).ln() / OPEN_RPS;
        let mut req = draw(rng, named, colds, next_cold).ok_or("cold program pool spent")?;
        req.due_us = (t * 1e6) as u64;
        per_class[req.class] += 1;
        plan.push(req);
    }
    Ok(plan)
}

/// The closed loop's `n` requests, drawn like the open loop's.
fn plan_closed(
    rng: &mut Rng,
    named: &[Named],
    colds: &[ColdProgram],
    next_cold: &mut usize,
    n: usize,
) -> Result<Vec<Req>, String> {
    (0..n)
        .map(|_| {
            draw(rng, named, colds, next_cold).ok_or_else(|| "cold program pool spent".to_string())
        })
        .collect()
}

/// The `result` payload of a `/run` response as the raw bytes the server
/// sent: the body is `{...,"result":<payload>}` and a newline, with
/// `result` last.
fn result_bytes(body: &[u8]) -> Option<&[u8]> {
    let body = body.strip_suffix(b"\n").unwrap_or(body);
    let body = body.strip_suffix(b"}")?;
    let marker = b",\"result\":";
    let at = body.windows(marker.len()).position(|w| w == marker)?;
    Some(&body[at + marker.len()..])
}

/// Sends `body` to `/run` on `conn` (reconnecting when there is none)
/// and checks the response. A connection that failed or answered with
/// an error is dropped, so the next request reconnects.
fn exchange(
    conn: &mut Option<Client>,
    addr: &str,
    req: &Req,
    named: &[Named],
) -> (Outcome, u16, Option<Json>) {
    if conn.is_none() {
        *conn = Client::connect(addr).ok();
    }
    let Some(client) = conn.as_mut() else {
        return (Outcome::Transport, 0, None);
    };
    let resp: Response = match client.request("POST", "/run", &req.body) {
        Ok(r) => r,
        Err(_) => {
            *conn = None;
            return (Outcome::Transport, 0, None);
        }
    };
    if resp.status != 200 {
        *conn = None;
        return (Outcome::Status(resp.status), resp.status, None);
    }
    let json = resp.body_json().ok();
    let ok = match req.expect {
        Expect::Payload(k) => result_bytes(&resp.body) == Some(named[k].payload.as_slice()),
        Expect::Checksum(c) => {
            json.as_ref()
                .and_then(|j| j.get("result"))
                .and_then(|r| r.get("checksum"))
                .and_then(Json::as_f64)
                == Some(c as f64)
        }
    };
    let outcome = if ok { Outcome::Ok } else { Outcome::Mismatch };
    (outcome, 200, json)
}

fn sample(req: &Req, outcome: Outcome, status: u16, json: Option<&Json>) -> Sample {
    let field = |name: &str| json.and_then(|j| j.get(name)).and_then(Json::as_u64);
    Sample {
        class: req.class,
        index: req.index,
        latency_ms: 0.0,
        late_ms: 0.0,
        outcome,
        status,
        cached: json.and_then(|j| j.get("cached")) == Some(&Json::Bool(true)),
        queue_us: field("queue_us"),
        exec_us: field("exec_us"),
        traced: false,
    }
}

/// The open loop: [`CONNECTIONS`] threads, each on one keep-alive
/// connection, take the next planned request, wait until it is due, send
/// it, and time it from its due time. In a traced run every other
/// request is sent inside a span, for the tracing overhead.
fn open_loop(
    addr: &str,
    plan: &[Req],
    named: &[Named],
    traced: bool,
) -> (Vec<Sample>, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let t0 = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut conn = Client::connect(addr).ok();
                let mut tr = Tracer::new("open");
                let mut samples = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(req) = plan.get(i) else { break };
                    let due = t0 + Duration::from_micros(req.due_us);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let in_span = traced && i % 2 == 1;
                    let (outcome, status, json) = if in_span {
                        tr.cat = format!("request-{i}");
                        tr.span(CLASS[req.class], || exchange(&mut conn, addr, req, named))
                    } else {
                        exchange(&mut conn, addr, req, named)
                    };
                    let end = Instant::now();
                    samples.push(Sample {
                        latency_ms: end.duration_since(due).as_secs_f64() * 1e3,
                        late_ms: sent.duration_since(due).as_secs_f64() * 1e3,
                        traced: in_span,
                        ..sample(req, outcome, status, json.as_ref())
                    });
                }
                done.lock()
                    .expect("generator threads do not panic")
                    .push((samples, tr));
            });
        }
    });
    let mut all = Vec::new();
    let mut tracers = Vec::new();
    for (samples, tr) in done.into_inner().expect("generator threads do not panic") {
        all.extend(samples);
        tracers.push(tr);
    }
    (all, tracers)
}

/// The closed loop on the same number of connections: each thread sends
/// its next request as soon as the previous one completes, until the
/// plan runs out. Returns the samples and the seconds it ran.
fn closed_loop(addr: &str, plan: &[Req], named: &[Named]) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut conn = Client::connect(addr).ok();
                let mut samples = Vec::new();
                while let Some(req) = plan.get(next.fetch_add(1, Ordering::SeqCst)) {
                    let t = Instant::now();
                    let (outcome, status, json) = exchange(&mut conn, addr, req, named);
                    samples.push(Sample {
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        ..sample(req, outcome, status, json.as_ref())
                    });
                }
                done.lock()
                    .expect("generator threads do not panic")
                    .extend(samples);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (
        done.into_inner().expect("generator threads do not panic"),
        elapsed,
    )
}

/// Sequential passes over the warm-key matrix on one connection — what
/// a user submitting the matrix waits for — until `seconds` elapse, at
/// least three.
fn matrix_passes(
    addr: &str,
    named: &[Named],
    seconds: f64,
) -> Result<(Vec<Sample>, Vec<f64>), String> {
    let reqs: Vec<Req> = (0..named.len())
        .map(|k| named_req(named, k, WARM))
        .collect();
    let mut conn = Some(Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?);
    let mut samples = Vec::new();
    let mut pass_s = Vec::new();
    let start = Instant::now();
    while pass_s.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        for req in &reqs {
            let (outcome, status, json) = exchange(&mut conn, addr, req, named);
            samples.push(sample(req, outcome, status, json.as_ref()));
        }
        pass_s.push(t.elapsed().as_secs_f64());
    }
    Ok((samples, pass_s))
}

/// Simulated MIPS of warm requests: per key, instructions ÷ median
/// `exec_us`, then the geomean over keys.
fn warm_mips<'a>(
    named: &[Named],
    samples: impl Iterator<Item = &'a Sample>,
) -> Result<f64, String> {
    let mut exec: Vec<Vec<f64>> = vec![Vec::new(); named.len()];
    for s in samples.filter(|s| s.class == WARM && s.outcome == Outcome::Ok) {
        if let Some(us) = s.exec_us {
            exec[s.index].push(us as f64);
        }
    }
    let per_key: Vec<f64> = named
        .iter()
        .zip(&exec)
        .map(|(n, us)| median(us).map_or(f64::NAN, |m| n.instructions as f64 / m))
        .collect();
    geomean(&per_key).ok_or_else(|| "a warm key never executed".to_string())
}

/// Caches every named key's result on the fleet (and builds the
/// artifacts warm requests reuse), checking each payload.
fn warm_up(addr: &str, named: &[Named]) -> Result<(), String> {
    let mut conn = None;
    for (k, n) in named.iter().enumerate() {
        let req = named_req(named, k, HOT);
        let (outcome, ..) = exchange(&mut conn, addr, &req, named);
        if outcome != Outcome::Ok {
            return Err(format!(
                "warm-up of {}/{} ended {outcome:?}",
                n.bench.name, n.engine
            ));
        }
    }
    Ok(())
}

/// Hot keys sent alternately through the router and straight to the
/// shard that owns them. Returns the router and direct latencies in ms,
/// and every sample for the tally.
#[allow(clippy::type_complexity)]
fn direct_hot(router: &str, named: &[Named]) -> Result<(Vec<f64>, Vec<f64>, Vec<Sample>), String> {
    let health = get_json(router, "/healthz")?;
    let shards: Vec<(String, String)> = health
        .get("shards")
        .and_then(Json::as_arr)
        .ok_or("router /healthz lists no shards")?
        .iter()
        .filter_map(|s| {
            Some((
                s.get("name")?.as_str()?.to_string(),
                s.get("addr")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let names: Vec<&str> = shards.iter().map(|(n, _)| n.as_str()).collect();
    let mut via_router = None;
    let mut direct: BTreeMap<String, Option<Client>> = BTreeMap::new();
    let (mut router_ms, mut direct_ms, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..DIRECT_ROUNDS {
        for (k, n) in named.iter().enumerate() {
            let owner = wasmperf_fleet::ring::pick(n.key, &names).ok_or("no shard owns a key")?;
            let addr = &shards
                .iter()
                .find(|(s, _)| s == owner)
                .expect("owner is listed")
                .1;
            let req = named_req(named, k, HOT);
            let t = Instant::now();
            let (outcome, status, json) = exchange(&mut via_router, router, &req, named);
            router_ms.push(t.elapsed().as_secs_f64() * 1e3);
            samples.push(sample(&req, outcome, status, json.as_ref()));
            let conn = direct.entry(addr.clone()).or_insert(None);
            let t = Instant::now();
            let (outcome, status, json) = exchange(conn, addr, &req, named);
            direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
            samples.push(sample(&req, outcome, status, json.as_ref()));
        }
    }
    Ok((router_ms, direct_ms, samples))
}

/// The farm, serve, fleet and generator metrics of a traced run.
fn set_fleet_metrics(
    report: &mut Report,
    before: &Json,
    after: &Json,
    open: &[Sample],
    closed: &[Sample],
    matrix: &[Sample],
) -> Result<(), String> {
    let cache = |m: &Json, field: &str| -> f64 {
        m.get("cache")
            .and_then(|c| c.get(field))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let delta = |field: &str| cache(after, field) - cache(before, field);
    report.set("farm.artifact_builds", delta("artifact_builds"));
    report.set("farm.artifact_hits", delta("artifact_hits"));
    let (hits, misses) = (delta("result_hits"), delta("result_misses"));
    report.set("farm.result_hit_ratio", hits / (hits + misses).max(1.0));

    let executed: Vec<&Sample> = open
        .iter()
        .filter(|s| !s.cached && s.exec_us.is_some())
        .collect();
    let queue_ms: Vec<f64> = executed
        .iter()
        .filter_map(|s| s.queue_us)
        .map(|us| us as f64 / 1e3)
        .collect();
    report.set(
        "farm.queue_ms_p50",
        nearest_rank(&queue_ms, 50).unwrap_or(0.0),
    );
    report.set("farm.queue_ms_p90", tail_percentile(&queue_ms, 90)?);
    for (metric, class) in [("serve.cold_exec_ms", COLD), ("serve.warm_exec_ms", WARM)] {
        let ms: Vec<f64> = executed
            .iter()
            .filter(|s| s.class == class)
            .filter_map(|s| s.exec_us)
            .map(|us| us as f64 / 1e3)
            .collect();
        report.set(metric, median(&ms).unwrap_or(0.0));
    }

    let runs = |m: &Json| -> Vec<f64> {
        match m.get("shards") {
            Some(Json::Obj(shards)) => shards
                .iter()
                .map(|(_, s)| {
                    s.get("syscalls")
                        .and_then(|x| x.get("runs_executed"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as f64
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let (b, a) = (runs(before), runs(after));
    let per_shard: Vec<f64> = a
        .iter()
        .zip(b.iter().chain(std::iter::repeat(&0.0)))
        .map(|(x, y)| x - y)
        .collect();
    let total: f64 = per_shard.iter().sum();
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    report.set("fleet.shard_share_max", max / total.max(1.0));
    let all = open.iter().chain(closed).chain(matrix);
    report.set(
        "fleet.status_503",
        all.filter(|s| s.status == 503).count() as f64,
    );

    report.set("gen.sent", open.len() as f64);
    let hot = |traced: bool| -> Vec<f64> {
        open.iter()
            .filter(|s| s.class == HOT && s.traced == traced)
            .map(|s| s.latency_ms)
            .collect()
    };
    let p50 = |v: Vec<f64>| nearest_rank(&v, 50).unwrap_or(0.0);
    report.set(
        "trace.overhead_hot_p50_ms",
        p50(hot(true)) - p50(hot(false)),
    );
    Ok(())
}

/// The cells the traced run replays in-process: every named key, and
/// every cold (source, engine) pair the open loop sent.
fn replay_cells(
    named: &[Named],
    colds: &[ColdProgram],
    open_plan: &[Req],
) -> Result<(Vec<Cell>, Vec<Reference>), String> {
    let mut cells = Vec::new();
    let mut refs = Vec::new();
    for n in named {
        cells.push(Cell {
            bench: n.bench.clone(),
            engine: Engine::parse(n.engine).ok_or("no engine")?,
        });
        refs.push(n.reference.clone());
    }
    for req in open_plan.iter().filter(|r| r.class == COLD) {
        let c = &colds[req.index];
        cells.push(Cell {
            // What the shard builds for an inline-source request.
            bench: Benchmark {
                name: "adhoc".into(),
                suite: Suite::PolyBench,
                source: c.source.clone(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                replay: None,
            },
            engine: Engine::parse(ENGINES[req.engine]).ok_or("no engine")?,
        });
        refs.push(Reference {
            checksum: c.checksum,
            outputs: Vec::new(),
        });
    }
    Ok((cells, refs))
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let resp = Client::connect(addr)
        .and_then(|mut c| c.get(path))
        .map_err(|e| format!("GET {path} on {addr}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} on {addr}: status {}", resp.status));
    }
    resp.body_json()
}

/// A running `wasmperf-fleet up` subprocess; dropping it drains the
/// fleet and waits for every process of it to end.
struct Fleet {
    child: Child,
    /// Held open so the supervisor never writes to a closed pipe.
    stdout: BufReader<ChildStdout>,
    router: String,
    /// The supervisor's pid (the router runs in it), then each shard's.
    pids: Vec<String>,
    stopped: bool,
}

impl Fleet {
    /// Spawns the fleet and waits until its router reports both shards
    /// live.
    fn up(exe: &Path) -> Result<Fleet, String> {
        let mut child = Command::new(exe)
            .args(["up", "--shards", "2", "--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut fleet = Fleet {
            pids: vec![child.id().to_string()],
            child,
            stdout: BufReader::new(stdout),
            router: String::new(),
            stopped: false,
        };
        // The supervisor's contract lines: one `shard NAME listening on
        // ADDR pid PID` per shard, then `router listening on ADDR`.
        let mut line = String::new();
        while fleet.router.is_empty() {
            line.clear();
            let n = fleet
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading the fleet's stdout: {e}"))?;
            if n == 0 {
                return Err("the fleet exited before its router listened".into());
            }
            if line.starts_with("wasmperf-fleet shard ") {
                if let Some(pid) = line.split_whitespace().last() {
                    fleet.pids.push(pid.to_string());
                }
            } else if let Some(addr) = line
                .trim()
                .strip_prefix("wasmperf-fleet router listening on ")
            {
                fleet.router = addr.to_string();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let live = get_json(&fleet.router, "/healthz")
                .ok()
                .and_then(|h| h.get("live").and_then(Json::as_u64));
            if live == Some(2) {
                return Ok(fleet);
            }
            if Instant::now() > deadline {
                return Err("the fleet's shards never came live".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Drains the fleet and waits for it to exit; kills what is left
    /// after a grace period.
    fn stop(&mut self) {
        if std::mem::replace(&mut self.stopped, true) {
            return;
        }
        if !self.router.is_empty() {
            let _ =
                Client::connect(&self.router).and_then(|mut c| c.request("POST", "/shutdown", b""));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if !self.router.is_empty() && Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
        // A shard outlives its supervisor only if the supervisor was
        // killed before reaping it.
        for pid in &self.pids[1..] {
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").args(["-9", pid]).status();
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_bytes_are_the_raw_payload() {
        let body = b"{\"id\":\"7\",\"cached\":true,\"queue_us\":0,\"exec_us\":0,\"syscalls\":{\"count\":0},\"result\":{\"bench\":\"lu\",\"checksum\":5}}\n";
        assert_eq!(
            result_bytes(body),
            Some(&b"{\"bench\":\"lu\",\"checksum\":5}"[..])
        );
        assert_eq!(result_bytes(b"{\"error\":\"x\"}\n"), None);
    }

    #[test]
    fn cold_programs_are_fixed_by_the_seed_and_return_normally() {
        let a = cold_programs(3, 4);
        let b = cold_programs(3, 4);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.checksum, y.checksum);
        }
        let mut sources: Vec<&str> = a.iter().map(|c| c.source.as_str()).collect();
        sources.dedup();
        assert_eq!(sources.len(), 4);
    }
}
