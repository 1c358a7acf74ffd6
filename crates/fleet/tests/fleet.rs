//! Socket-level fleet tests: router + shards over real loopback TCP,
//! driving the acceptance contract end to end — byte-identical routing,
//! shed-or-retry (never wrong) failover, ring re-admission, and warm
//! restarts from the persistent result store.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use wasmperf_farm::Json;
use wasmperf_fleet::{ring, router, RouterConfig, ShardSpec};
use wasmperf_serve::loadgen::{self, Mode, Options};
use wasmperf_serve::{Client, Registry, RunRequest, ServerConfig, ServerHandle};

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("wasmperf-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One in-process shard, as the supervisor would configure it.
fn shard(name: &str, results: Option<&std::path::Path>) -> (ServerHandle, ShardSpec) {
    let handle = wasmperf_serve::start(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        shard: Some(name.into()),
        results_dir: results.map(Into::into),
        ..ServerConfig::default()
    })
    .unwrap();
    let spec = ShardSpec {
        name: name.into(),
        addr: handle.addr().to_string(),
    };
    (handle, spec)
}

/// A router over the given shards with a fast health loop, so failover
/// and re-admission settle in a few hundred milliseconds.
fn router_over(shards: Vec<ShardSpec>) -> (router::RouterHandle, String) {
    let handle = router::start(RouterConfig {
        shards,
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn run_body(bench: &str, engine: &str) -> Json {
    Json::Obj(vec![
        ("bench".into(), Json::Str(bench.into())),
        ("engine".into(), Json::Str(engine.into())),
        ("size".into(), Json::Str("test".into())),
    ])
}

/// The content-addressed key the router routes this body by.
fn job_key(body: &Json) -> u64 {
    let req = RunRequest::from_json(body).unwrap();
    Registry::load().job_key(&req).unwrap()
}

fn get_json(addr: &str, path: &str) -> Json {
    let mut c = Client::connect(addr).unwrap();
    let resp = c.get(path).unwrap();
    assert_eq!(resp.status, 200, "{path}");
    resp.body_json().unwrap()
}

/// Polls the router until exactly `want` shards are live.
fn wait_live(addr: &str, want: u64) {
    let t0 = Instant::now();
    loop {
        let health = get_json(addr, "/healthz");
        if health.get("live").and_then(Json::as_u64) == Some(want) {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "router never reached {want} live shards: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn router_routes_by_key_and_relays_shard_bytes() {
    let (h0, s0) = shard("shard-0", None);
    let (h1, s1) = shard("shard-1", None);
    let (h2, s2) = shard("shard-2", None);
    let specs = vec![s0, s1, s2];
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let (rh, raddr) = router_over(specs.clone());

    let mut via_router = Client::connect(&raddr).unwrap();
    for (bench, engine) in [("gemm", "native"), ("gemm", "chrome"), ("2mm", "native")] {
        let body = run_body(bench, engine);
        let resp = via_router.post_json("/run", &body).unwrap();
        assert_eq!(resp.status, 200, "{bench}/{engine}");
        let routed = resp.body_json().unwrap();
        assert_eq!(routed.get("cached"), Some(&Json::Bool(false)));

        // The ring owner must now hold the result: resubmitting directly
        // to it is a warm hit with the identical result subtree — which
        // proves both where the router sent the run and that the relayed
        // bytes are the shard's bytes.
        let owner = ring::pick(job_key(&body), &names).unwrap();
        let owner_addr = &specs.iter().find(|s| s.name == owner).unwrap().addr;
        let mut direct = Client::connect(owner_addr).unwrap();
        let direct_resp = direct.post_json("/run", &body).unwrap();
        assert_eq!(direct_resp.status, 200);
        let direct_body = direct_resp.body_json().unwrap();
        assert_eq!(
            direct_body.get("cached"),
            Some(&Json::Bool(true)),
            "router sent {bench}/{engine} somewhere other than ring owner {owner}"
        );
        assert_eq!(
            direct_body.get("result").unwrap().render(),
            routed.get("result").unwrap().render(),
            "{bench}/{engine}: direct and router-proxied results diverged"
        );
    }

    // The full loadgen contract holds through the router: byte-identity
    // against in-process runs and exact /metrics reconciliation over
    // the fleet aggregate.
    let report = loadgen::run(&Options {
        addr: raddr.clone(),
        mode: Mode::Closed { conns: 2 },
        requests: 12,
        benches: vec!["gemm".into(), "2mm".into()],
        engines: vec!["native".into(), "chrome".into()],
        check: true,
        verify_metrics: true,
        ..Options::default()
    });
    assert!(report.ok(), "loadgen gates failed: {}", report.render());
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.status_counts.get(&200), Some(&12));

    // The fan-out /metrics view: per-shard sections plus an exactly
    // merged cross-shard latency histogram.
    let m = get_json(&raddr, "/metrics");
    let fleet = m.get("fleet").unwrap();
    assert_eq!(fleet.get("live").and_then(Json::as_u64), Some(3));
    let shards = m.get("shards").unwrap();
    let mut latency_sum = 0;
    for name in &names {
        let section = shards.get(name).unwrap();
        assert_eq!(
            section
                .get("shard")
                .and_then(|s| s.get("name"))
                .and_then(Json::as_str),
            Some(name.as_str()),
            "shard identity block missing for {name}"
        );
        latency_sum += section
            .get("latency")
            .and_then(|l| l.get("count"))
            .and_then(Json::as_u64)
            .unwrap();
    }
    let merged = fleet
        .get("shard_latency")
        .and_then(|l| l.get("count"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(merged, latency_sum, "merged histogram lost samples");

    // Draining the router drains the shards too, in order.
    let resp = Client::connect(&raddr)
        .unwrap()
        .request("POST", "/shutdown", b"")
        .unwrap();
    assert_eq!(resp.status, 200);
    rh.join();
    h0.join();
    h1.join();
    h2.join();
    assert!(
        Client::connect(&raddr).is_err(),
        "router outlived its drain"
    );
}

#[test]
fn dead_shard_fails_over_then_readmits_after_recovery() {
    let mut handles = Vec::new();
    let mut specs = Vec::new();
    for i in 0..3 {
        let (h, s) = shard(&format!("shard-{i}"), None);
        handles.push(Some(h));
        specs.push(s);
    }
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let (rh, raddr) = router_over(specs.clone());

    let body = run_body("gemm", "native");
    let owner = ring::pick(job_key(&body), &names).unwrap().to_string();
    let owner_index = names.iter().position(|n| *n == owner).unwrap();

    // Reference bytes while the fleet is whole.
    let mut c = Client::connect(&raddr).unwrap();
    let first = c.post_json("/run", &body).unwrap();
    assert_eq!(first.status, 200);
    let reference = first.body_json().unwrap().get("result").unwrap().render();

    // Kill the owner. Until the ring fails over, the only permissible
    // degraded answer is a 503 with a usable Retry-After — never a
    // wrong or torn response.
    let dead = handles[owner_index].take().unwrap();
    dead.shutdown();
    dead.join();
    let mut recovered = None;
    for _ in 0..100 {
        let mut c = Client::connect(&raddr).unwrap();
        let resp = c.post_json("/run", &body).unwrap();
        match resp.status {
            200 => {
                recovered = Some(resp.body_json().unwrap());
                break;
            }
            503 => {
                let retry: u64 = resp
                    .header("retry-after")
                    .expect("503 must carry Retry-After")
                    .parse()
                    .expect("Retry-After must be whole seconds");
                assert!(retry >= 1);
                std::thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unexpected status {other} during failover"),
        }
    }
    let failover = recovered.expect("ring never failed over to a live shard");
    assert_eq!(
        failover.get("result").unwrap().render(),
        reference,
        "failover changed the result bytes"
    );
    wait_live(&raddr, 2);

    // Restart the owner under its old name at a new address and
    // re-admit it; the health loop promotes it after clean probes.
    let (new_handle, new_spec) = shard(&owner, None);
    let admit = Json::Obj(vec![
        ("shard".into(), Json::Str(owner.clone())),
        ("addr".into(), Json::Str(new_spec.addr.clone())),
    ]);
    let resp = Client::connect(&raddr)
        .unwrap()
        .post_json("/admit", &admit)
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.body_json().unwrap().get("live"),
        Some(&Json::Bool(false)),
        "admit must start the shard in probation"
    );
    wait_live(&raddr, 3);

    // Unknown shards and malformed bodies are rejected, not admitted.
    let mut c = Client::connect(&raddr).unwrap();
    let bogus = Json::Obj(vec![
        ("shard".into(), Json::Str("shard-99".into())),
        ("addr".into(), Json::Str(new_spec.addr.clone())),
    ]);
    assert_eq!(c.post_json("/admit", &bogus).unwrap().status, 404);
    assert_eq!(c.request("POST", "/admit", b"{oops").unwrap().status, 400);

    // The key routes to the restarted owner again: it executes fresh
    // (empty caches), byte-identical, then serves warm.
    let r1 = c.post_json("/run", &body).unwrap();
    assert_eq!(r1.status, 200);
    let r1 = r1.body_json().unwrap();
    assert_eq!(r1.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(r1.get("result").unwrap().render(), reference);
    let r2 = c.post_json("/run", &body).unwrap();
    let r2 = r2.body_json().unwrap();
    assert_eq!(r2.get("cached"), Some(&Json::Bool(true)));
    let mut direct = Client::connect(&new_spec.addr).unwrap();
    let held = direct
        .post_json("/run", &body)
        .unwrap()
        .body_json()
        .unwrap();
    assert_eq!(
        held.get("cached"),
        Some(&Json::Bool(true)),
        "re-admitted owner does not hold its key"
    );

    rh.shutdown();
    rh.join();
    new_handle.join();
    for h in handles.into_iter().flatten() {
        h.join();
    }
}

#[test]
fn restarted_shard_comes_up_warm_from_its_result_store() {
    let tmp = TempDir::new("warm");
    let dir = tmp.0.join("shard-0");
    let (h, spec) = shard("shard-0", Some(&dir));
    let (rh, raddr) = router_over(vec![spec]);

    let body = run_body("2mm", "native");
    let mut c = Client::connect(&raddr).unwrap();
    let first = c.post_json("/run", &body).unwrap();
    assert_eq!(first.status, 200);
    let first = first.body_json().unwrap();
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let reference = first.get("result").unwrap().render();

    // Whole fleet down: shed-or-retry, not errors.
    h.shutdown();
    h.join();
    let resp = Client::connect(&raddr)
        .unwrap()
        .post_json("/run", &body)
        .unwrap();
    assert_eq!(resp.status, 503);
    assert!(resp.header("retry-after").is_some());

    // Restart over the same result store and re-admit.
    let (h2, spec2) = shard("shard-0", Some(&dir));
    let admit = Json::Obj(vec![
        ("shard".into(), Json::Str("shard-0".into())),
        ("addr".into(), Json::Str(spec2.addr.clone())),
    ]);
    assert_eq!(
        Client::connect(&raddr)
            .unwrap()
            .post_json("/admit", &admit)
            .unwrap()
            .status,
        200
    );
    wait_live(&raddr, 1);

    // The previously-seen key is answered warm: cached, byte-identical,
    // and with zero executions since the restart.
    let again = Client::connect(&raddr)
        .unwrap()
        .post_json("/run", &body)
        .unwrap();
    assert_eq!(again.status, 200);
    let again = again.body_json().unwrap();
    assert_eq!(
        again.get("cached"),
        Some(&Json::Bool(true)),
        "restart was not warm"
    );
    assert_eq!(again.get("result").unwrap().render(), reference);

    let m = get_json(&raddr, "/metrics");
    let section = m.get("shards").unwrap().get("shard-0").unwrap();
    let sys = section.get("syscalls").unwrap();
    assert_eq!(sys.get("runs_executed").and_then(Json::as_u64), Some(0));
    let cache = section.get("cache").unwrap();
    assert!(cache.get("store_hits").and_then(Json::as_u64).unwrap() >= 1);
    let identity = section.get("shard").unwrap();
    assert_eq!(identity.get("store_loaded").and_then(Json::as_u64), Some(1));
    assert_eq!(
        identity.get("runs_since_start").and_then(Json::as_u64),
        Some(0)
    );
    // The fleet aggregate mirrors the single warm shard.
    assert_eq!(
        m.get("syscalls")
            .and_then(|s| s.get("runs_executed"))
            .and_then(Json::as_u64),
        Some(0)
    );

    rh.shutdown();
    rh.join();
    h2.join();
}

#[test]
fn fleet_binary_up_route_run_drain() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let exe = env!("CARGO_BIN_EXE_wasmperf-fleet");
    let mut child = Command::new(exe)
        .args([
            "up",
            "--shards",
            "2",
            "--port",
            "0",
            "--workers",
            "1",
            "--queue",
            "8",
            "--health-interval-ms",
            "50",
        ])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut shard_lines = 0;
    let mut router_addr = None;
    let mut line = String::new();
    while router_addr.is_none() {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "fleet exited before the router came up");
        if line.contains(" shard shard-") {
            shard_lines += 1;
            assert!(line.contains(" pid "), "{line}");
        }
        if let Some((_, rest)) = line.split_once("router listening on ") {
            router_addr = Some(rest.trim().to_string());
        }
    }
    assert_eq!(shard_lines, 2, "expected one contract line per shard");
    let addr = router_addr.unwrap();

    let status = Command::new(exe)
        .args(["status", "--addr", &addr, "--wait-live", "2"])
        .output()
        .unwrap();
    assert!(
        status.status.success(),
        "status: {}",
        String::from_utf8_lossy(&status.stderr)
    );

    let route = Command::new(exe)
        .args([
            "route", "--addr", &addr, "--bench", "gemm", "--engine", "native",
        ])
        .output()
        .unwrap();
    assert!(route.status.success());
    let routed = String::from_utf8_lossy(&route.stdout);
    assert!(routed.contains("-> shard-"), "{routed}");

    let run = |expect: &str| {
        let out = Command::new(exe)
            .args([
                "run", "--addr", &addr, "--bench", "gemm", "--engine", "native",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains(expect), "wanted {expect} in {text}");
    };
    run("\"cached\":false");
    run("\"cached\":true");

    let drain = Command::new(exe)
        .args(["drain", "--addr", &addr])
        .output()
        .unwrap();
    assert!(drain.status.success());
    let exit = child.wait().unwrap();
    assert!(exit.success(), "fleet exited {exit:?} after drain");
}

#[test]
fn deeply_nested_json_is_400_at_router_and_shard() {
    let (h0, s0) = shard("shard-0", None);
    let shard_addr = s0.addr.clone();
    let (rh, raddr) = router_over(vec![s0]);
    wait_live(&raddr, 1);

    // 100,000 `[` bytes once overflowed the JSON parser's stack in both
    // the router and the shard, aborting each process.
    let hostile = "[".repeat(100_000);
    let limit = format!("deeper than {} levels", wasmperf_trace::json::MAX_DEPTH);
    for addr in [&raddr, &shard_addr] {
        let mut c = Client::connect(addr).unwrap();
        let resp = c.request("POST", "/run", hostile.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{addr}");
        let body = resp.body_json().unwrap();
        let err = body.get("error").and_then(Json::as_str).unwrap();
        assert!(err.contains(&limit), "{addr}: {err}");
    }

    // Both processes survived: a normal run through the router succeeds.
    let mut c = Client::connect(&raddr).unwrap();
    let resp = c.post_json("/run", &run_body("gemm", "native")).unwrap();
    assert_eq!(resp.status, 200);

    rh.shutdown();
    rh.join();
    h0.join();
}
