//! Metrics, per-layer aggregation over replays, the share table and the
//! final JSON line.

use crate::replay::{component_of, Replay};
use crate::spans::{fold, SpanLog};
use crate::stats::{Summary, UNCAPPED};
use sciql_repro::obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The metrics an untraced run reports, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 5] = ["setup_s", "ops_per_s", "p50_ms", "tail_ms", "peak_rss_mb"];

/// The metrics a traced run reports, in `BENCHMARK.json` order. Every
/// workload reports each of them; a layer the workload does not drive
/// reads zero in its count and ratio metrics.
pub const PER_LAYER: [&str; 37] = [
    "share.parser",
    "share.algebra",
    "share.mal",
    "share.gdk",
    "share.core",
    "share.net",
    "share.store",
    "share.repl",
    "parser.parse_us",
    "algebra.bind_us",
    "algebra.rewrite_us",
    "algebra.codegen_us",
    "algebra.codegen_instrs",
    "mal.optimize_us",
    "mal.opt_instrs",
    "mal.exec_ms",
    "mal.exec_share",
    "mal.instructions",
    "mal.par_instr_share",
    "mal.tuples_per_result_row",
    "mal.plan_cache_hit_ratio",
    "gdk.ns_per_tuple",
    "gdk.top1.ns_per_tuple",
    "gdk.top2.ns_per_tuple",
    "core.result_encode_us",
    "core.result_decode_us",
    "core.wire_bytes_per_value",
    "net.rtt_us",
    "net.overhead_us",
    "net.bytes_out_per_row",
    "store.fsyncs_per_write",
    "store.group_batch_mean",
    "store.wal_bytes_per_write",
    "repl.lag_bytes_max",
    "repl.shipped_minus_applied",
    "obs.trace_overhead_frac",
    "loadgen.late_tail_ms",
];

/// Put `metrics` in the order of `names`; an error names what is missing
/// or unexpected.
pub fn in_order(metrics: &[Metric], names: &[&str]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(names.len());
    for n in names {
        let m = metrics
            .iter()
            .find(|m| m.name == *n)
            .ok_or_else(|| format!("metric {n} was not measured"))?;
        out.push(m.clone());
    }
    if let Some(m) = metrics.iter().find(|m| !names.contains(&m.name.as_str())) {
        return Err(format!("unexpected metric {}", m.name));
    }
    Ok(out)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, by description.
    pub check_failures: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Further numbers printed in the human-readable report only: those
    /// that apply to this workload alone.
    pub extra: Vec<Metric>,
    /// Notes printed above the table (tail percentile, primitives, …).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what.into());
        }
    }
}

/// The end-to-end latency metrics of one sample (milliseconds), the tail
/// at most at the `cap` percentile.
pub fn latency_metrics(
    prefix: &str,
    lat_ms: &[f64],
    cap: usize,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let s = Summary::of(lat_ms, cap);
    notes.push(format!(
        "{prefix}tail_ms is {} of {} samples ({} beyond it)",
        s.tail_label(),
        s.n,
        s.beyond
    ));
    let full = Summary::of(lat_ms, UNCAPPED);
    if full.tail_per_mille != s.tail_per_mille {
        notes.push(format!(
            "{prefix}{} is {} ms ({} beyond it)",
            full.tail_label(),
            full.tail,
            full.beyond
        ));
    }
    vec![
        metric(format!("{prefix}p50_ms"), s.p50, "ms"),
        metric(format!("{prefix}tail_ms"), s.tail, "ms"),
    ]
}

/// How much a counter grew between two snapshots of one registry.
pub fn counter_delta(a: &MetricsSnapshot, b: &MetricsSnapshot, name: &str) -> f64 {
    b.counter(name).unwrap_or(0) as f64 - a.counter(name).unwrap_or(0) as f64
}

/// Plan-cache hits over lookups between two snapshots; 0 without lookups.
pub fn plan_cache_hit_ratio(a: &MetricsSnapshot, b: &MetricsSnapshot) -> f64 {
    let hits = counter_delta(a, b, "plan_cache_hits");
    let misses = counter_delta(a, b, "plan_cache_misses");
    hits / (hits + misses).max(1.0)
}

/// Arithmetic mean; 0 for no values.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer figures summed over every replay of a traced run.
#[derive(Debug, Default)]
pub struct LayerAgg {
    phases: BTreeMap<&'static str, Vec<f64>>,
    codegen_instrs: Vec<f64>,
    opt_instrs: Vec<f64>,
    exec_ns: Vec<f64>,
    kernel_ns: u64,
    total_ns: u64,
    instructions: u64,
    par_instructions: u64,
    tuples: u64,
    kernel_tuples: u64,
    rows: u64,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    wire_bytes: u64,
    values: u64,
    /// Primitive → (self ns, tuples).
    prims: BTreeMap<String, (u64, u64)>,
    /// Public call latency minus its in-process counterpart, ns.
    pub overhead_ns: Vec<f64>,
}

impl LayerAgg {
    pub fn add(&mut self, r: &Replay) {
        for &(name, ns) in &r.phases {
            self.phases.entry(name).or_default().push(ns as f64);
        }
        if r.codegen_instrs > 0 {
            self.codegen_instrs.push(r.codegen_instrs as f64);
            self.opt_instrs.push(r.opt_instrs as f64);
        }
        self.exec_ns.push(r.exec_ns as f64);
        self.total_ns += r.laid_ns();
        self.instructions += r.stats.instructions as u64;
        self.par_instructions += r.stats.par_instructions as u64;
        self.tuples += r.stats.tuples_produced as u64;
        if let Some(rs) = &r.rs {
            self.rows += rs.row_count() as u64;
            self.values += (rs.row_count() * rs.column_count()) as u64;
        }
        self.encode_ns.push(r.encode_ns as f64);
        self.decode_ns.push(r.decode_ns as f64);
        self.wire_bytes += r.wire_bytes as u64;
        for (prim, ns, tuples) in &r.instrs {
            if prim == "sql.bind" {
                continue;
            }
            self.kernel_ns += ns;
            self.kernel_tuples += tuples;
            let e = self.prims.entry(prim.clone()).or_default();
            e.0 += ns;
            e.1 += tuples;
        }
    }

    pub fn replays(&self) -> usize {
        self.exec_ns.len()
    }

    fn phase_us(&self, name: &str) -> f64 {
        self.phases.get(name).map_or(0.0, |v| mean(v) / 1e3)
    }

    /// Primitives by self time, highest first: (name, ns per tuple, self ns).
    pub fn top_prims(&self) -> Vec<(String, f64, u64)> {
        let mut v: Vec<(String, f64, u64)> = self
            .prims
            .iter()
            .map(|(p, &(ns, t))| (p.clone(), ns as f64 / t.max(1) as f64, ns))
            .collect();
        v.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The per-layer metrics every workload reports.
    pub fn metrics(&self, notes: &mut Vec<String>, extra: &mut Vec<Metric>) -> Vec<Metric> {
        let top = self.top_prims();
        let mut m = vec![
            metric("parser.parse_us", self.phase_us("parse"), "us"),
            metric("algebra.bind_us", self.phase_us("bind"), "us"),
            metric("algebra.rewrite_us", self.phase_us("rewrite"), "us"),
            metric("algebra.codegen_us", self.phase_us("codegen"), "us"),
            metric(
                "algebra.codegen_instrs",
                mean(&self.codegen_instrs),
                "count",
            ),
            metric("mal.optimize_us", self.phase_us("optimize"), "us"),
            metric("mal.opt_instrs", mean(&self.opt_instrs), "count"),
            metric("mal.exec_ms", mean(&self.exec_ns) / 1e6, "ms"),
            metric(
                "mal.exec_share",
                self.exec_ns.iter().sum::<f64>() / self.total_ns.max(1) as f64,
                "ratio",
            ),
            metric(
                "mal.instructions",
                self.instructions as f64 / self.replays().max(1) as f64,
                "count",
            ),
            metric(
                "mal.par_instr_share",
                self.par_instructions as f64 / self.instructions.max(1) as f64,
                "ratio",
            ),
            metric(
                "mal.tuples_per_result_row",
                self.tuples as f64 / self.rows.max(1) as f64,
                "ratio",
            ),
            metric(
                "gdk.ns_per_tuple",
                self.kernel_ns as f64 / self.kernel_tuples.max(1) as f64,
                "ns/tuple",
            ),
        ];
        for k in 0..2 {
            let (name, v) = top
                .get(k)
                .map_or(("none".to_string(), 0.0), |(p, v, _)| (p.clone(), *v));
            m.push(metric(
                format!("gdk.top{}.ns_per_tuple", k + 1),
                v,
                "ns/tuple",
            ));
            notes.push(format!("gdk.top{} is {name}", k + 1));
        }
        for (p, v, _) in top.iter().take(8) {
            extra.push(metric(format!("gdk.{p}.ns_per_tuple"), *v, "ns/tuple"));
        }
        m.extend([
            metric("core.result_encode_us", mean(&self.encode_ns) / 1e3, "us"),
            metric("core.result_decode_us", mean(&self.decode_ns) / 1e3, "us"),
            metric(
                "core.wire_bytes_per_value",
                self.wire_bytes as f64 / self.values.max(1) as f64,
                "B/value",
            ),
            metric("net.overhead_us", mean(&self.overhead_ns) / 1e3, "us"),
        ]);
        m
    }
}

/// The WAL and replication metrics of a workload without a vault: its
/// layers do no such work, so the counts read zero.
pub fn no_store_metrics() -> [Metric; 5] {
    [
        metric("store.fsyncs_per_write", 0.0, "ratio"),
        metric("store.group_batch_mean", 0.0, "writes"),
        metric("store.wal_bytes_per_write", 0.0, "B"),
        metric("repl.lag_bytes_max", 0.0, "B"),
        metric("repl.shipped_minus_applied", 0.0, "records"),
    ]
}

/// Fold the span log into per-component self time and print the share
/// table; returns the per-layer shares as metrics.
pub fn share_table(workload: &str, log: &SpanLog, out: &mut String) -> Vec<Metric> {
    let by_comp = fold(log.spans(), component_of);
    let total: u64 = by_comp.values().sum();
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    for (c, ns) in &by_comp {
        let layer = c.split('.').next().unwrap_or(c).to_string();
        *by_layer.entry(layer).or_default() += ns;
    }
    let _ = writeln!(
        out,
        "per-layer self time, {workload} ({} spans):",
        log.spans().len()
    );
    let _ = writeln!(
        out,
        "  {:<34} {:>12} {:>8}",
        "layer / component", "self ms", "share"
    );
    for (layer, ns) in &by_layer {
        let _ = writeln!(
            out,
            "  {:<34} {:>12.3} {:>7.1}%",
            layer,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total.max(1) as f64
        );
        let mut comps: Vec<(&String, &u64)> = by_comp
            .iter()
            .filter(|(c, _)| c.split('.').next() == Some(layer.as_str()))
            .collect();
        comps.sort_by(|a, b| b.1.cmp(a.1));
        for (c, cns) in comps.into_iter().take(8) {
            let _ = writeln!(
                out,
                "    {:<32} {:>12.3} {:>7.1}%",
                c,
                *cns as f64 / 1e6,
                100.0 * *cns as f64 / total.max(1) as f64
            );
        }
    }
    [
        "parser", "algebra", "mal", "gdk", "core", "net", "store", "repl",
    ]
    .iter()
    .map(|l| {
        metric(
            format!("share.{l}"),
            by_layer.get(*l).copied().unwrap_or(0) as f64 / total.max(1) as f64,
            "ratio",
        )
    })
    .collect()
}

/// Write the traced run's spans out once the run has ended.
pub fn write_spans(args: &crate::Args, log: &SpanLog) {
    let path = args
        .out
        .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(&args.out).and_then(|_| std::fs::write(&path, log.to_tsv()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[metric("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
