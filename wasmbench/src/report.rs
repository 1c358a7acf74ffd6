//! The metric catalogue and the one JSON line every run prints last.

use wasmperf_farm::Json;

use crate::stats::{valid_name, Tally};

/// End-to-end metrics (tracing off), as (name, unit), in output order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("sim_mips", "MIPS"),
    ("matrix_s", "s"),
    ("cold_p50_ms", "ms"),
    ("cold_p90_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_p90_ms", "ms"),
    ("hot_p50_ms", "ms"),
    ("hot_p90_ms", "ms"),
    ("capacity_rps", "1/s"),
];

/// Per-layer metrics (the traced run), as (name, unit). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("cir.compile_ms", "ms"),
    ("emcc.compile_ms", "ms"),
    ("emcc.wasm_kb", "KiB"),
    ("wasm.validate_ms", "ms"),
    ("wasmjit.compile_ms", "ms"),
    ("wasmjit.code_kb", "KiB"),
    ("clanglite.compile_ms", "ms"),
    ("clanglite.code_kb", "KiB"),
    ("cpu.predecode_ms", "ms"),
    ("cpu.superblock_ms", "ms"),
    ("cpu.machine_new_ms", "ms"),
    ("cpu.run_ms", "ms"),
    ("cpu.instructions", "count"),
    ("cpu.ns_per_inst", "ns"),
    ("cpu.host_calls", "count"),
    ("browsix.call_ms", "ms"),
    ("browsix.syscalls", "count"),
    ("browsix.us_per_syscall", "us"),
    ("browsix.stage_ms", "ms"),
    ("replay.call_ms", "ms"),
    ("replay.syscalls", "count"),
    ("harness.prepare_ms", "ms"),
    ("harness.execute_ms", "ms"),
    ("harness.encode_ms", "ms"),
    ("farm.artifact_builds", "count"),
    ("farm.artifact_hits", "count"),
    ("farm.result_hit_ratio", "frac"),
    ("farm.queue_ms_p50", "ms"),
    ("farm.queue_ms_p90", "ms"),
    ("serve.cold_exec_ms", "ms"),
    ("serve.warm_exec_ms", "ms"),
    ("serve.direct_hot_ms", "ms"),
    ("fleet.proxy_ms", "ms"),
    ("fleet.shard_share_max", "frac"),
    ("fleet.status_503", "count"),
    ("gen.late_ms_p99", "ms"),
    ("gen.sent", "count"),
    ("trace.accounted_frac", "frac"),
    ("trace.overhead_sim_mips", "MIPS"),
    ("trace.overhead_hot_p50_ms", "ms"),
];

/// One run's result: correctness, the operation tally, and metric
/// values by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Operations attempted and failed.
    pub tally: Tally,
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Sets (or replaces) metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Sets every metric of `catalogue` not set yet to 0: the layers
    /// this workload does not exercise.
    pub fn zero_unset(&mut self, catalogue: &[(&'static str, &str)]) {
        for (name, _) in catalogue {
            if self.get(name).is_none() {
                self.set(name, 0.0);
            }
        }
    }

    /// The result line: every metric of `catalogue` exactly once, each
    /// finite, and nothing else.
    pub fn render(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        if self.tally.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut metrics = Vec::new();
        for (name, unit) in catalogue {
            if !valid_name(name) {
                return Err(format!("invalid metric name {name:?}"));
            }
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            ));
        }
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !catalogue.iter().any(|(c, _)| c == n))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::u64(self.tally.attempted)),
            ("failed".into(), Json::u64(self.tally.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render())
    }
}

/// Summed peak resident memory (`VmHWM`) of processes `pids` (`self`
/// names this process), in MiB.
pub fn peak_rss_mib(pids: &[String]) -> Result<f64, String> {
    let mut kib = 0u64;
    for pid in pids {
        let path = format!("/proc/{pid}/status");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        kib += text
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .ok_or_else(|| format!("{path}: no VmHWM"))?;
    }
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(text.trim()).expect("BENCHMARK.json parses");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn render_demands_the_whole_catalogue_and_nothing_else() {
        let mut r = Report::new();
        r.tally.attempted = 2;
        r.set("setup_s", 0.5);
        assert!(r.render(&END_TO_END).is_err(), "missing metrics");
        r.zero_unset(&END_TO_END);
        let line = r.render(&END_TO_END).unwrap();
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(2));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        r.set("cpu.run_ms", 1.0);
        assert!(
            r.render(&END_TO_END).is_err(),
            "metric outside the catalogue"
        );
        let mut nan = Report::new();
        nan.tally.attempted = 1;
        nan.zero_unset(&END_TO_END);
        nan.set("sim_mips", f64::NAN);
        assert!(nan.render(&END_TO_END).is_err());
    }
}
