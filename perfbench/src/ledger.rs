//! Counter snapshots at window boundaries, and the metrics computed from
//! them: the end-to-end set a client sees and the per-layer ledger.

use std::collections::BTreeMap;

use mcgc::heap::{AllocShardStats, SweepCounters};
use mcgc::membar::FenceStats;
use mcgc::{CycleStats, Gc, Trigger};

use crate::server::WindowRecord;
use crate::stats::{mb, median, per, per_kreq, per_mb, percentile, slo_misses, Pct, FAILED};

/// Request latency limit for `slo_miss_ratio`.
pub const SLO_NS: u64 = 5_000_000;

/// Metrics printed with the rest but left out of the result line, so
/// no bound gates them. The end-to-end tails are set by a few
/// allocation stalls per GC cycle: on a 2-CPU host their spread across
/// seeds was 0.2 to 0.7 of the median, wider than any bound of at most
/// 0.25. A failed request already fails the run and shows in `failed`.
/// The straggler fence has no work in steady state, so its wall reads
/// exactly 0 on every run.
pub const REPORT_ONLY: [&str; 6] = [
    "latency_p99_us",
    "latency_p999_us",
    "slo_miss_ratio",
    "pause_p90_ms",
    "error_ratio",
    "pause.straggler_ms",
];
/// One named value with its unit, and the sample count and percentile
/// behind it where it is a percentile.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub pct: Option<Pct>,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        pct: None,
    }
}

/// A percentile metric; `scale` converts the sample unit (ns) to `unit`.
fn pm(name: &'static str, pct: Option<Pct>, scale: f64, unit: &'static str) -> Metric {
    let value = pct.map_or(0.0, |p| p.value as f64 * scale);
    Metric {
        name,
        value,
        unit,
        pct,
    }
}

/// Process CPU time (user + system, all threads) in ns, from
/// `/proc/self/stat`, whose tick fields are in USER_HZ (100 on Linux).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks * 10_000_000
}

/// Everything the ledger differences over a window, read at one
/// instant.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub cpu_ns: u64,
    pub cycles: usize,
    registry: BTreeMap<String, f64>,
    fences: FenceStats,
    allocated: u64,
    shards: AllocShardStats,
    sweep: SweepCounters,
    grows: u64,
}

impl Snapshot {
    pub fn take(gc: &Gc) -> Snapshot {
        gc.telemetry_sample();
        let heap = gc.heap();
        Snapshot {
            cpu_ns: process_cpu_ns(),
            cycles: gc.log().cycles.len(),
            registry: gc.telemetry().registry().sample().into_iter().collect(),
            fences: FenceStats::snapshot(),
            allocated: heap.bytes_allocated(),
            shards: heap.alloc_stats(),
            sweep: heap.sweep_counters(),
            grows: heap.segment_stats().grows,
        }
    }
}

/// The difference between two snapshots.
pub struct Delta<'a> {
    a: &'a Snapshot,
    b: &'a Snapshot,
}

impl<'a> Delta<'a> {
    pub fn new(a: &'a Snapshot, b: &'a Snapshot) -> Delta<'a> {
        Delta { a, b }
    }

    /// Growth of registry counter `name` (a missing counter reads 0).
    pub fn counter(&self, name: &str) -> f64 {
        let get = |s: &Snapshot| s.registry.get(name).copied().unwrap_or(0.0);
        get(self.b) - get(self.a)
    }

    pub fn fences(&self) -> FenceStats {
        self.b.fences.since(&self.a.fences)
    }

    pub fn allocated(&self) -> f64 {
        (self.b.allocated - self.a.allocated) as f64
    }

    pub fn cpu_ns(&self) -> f64 {
        (self.b.cpu_ns - self.a.cpu_ns) as f64
    }

    /// Packets tracers claimed from the pool, each returned once.
    pub fn packets_claimed(&self) -> f64 {
        self.counter("gc_pool_input_claims_total") + self.counter("gc_pool_output_claims_total")
    }

    /// The §5.1 rule: at most one publication fence per packet returned.
    pub fn one_fence_per_packet(&self) -> bool {
        self.fences().packet_publish as f64 <= self.packets_claimed()
    }
}

/// Summary of one window's requests (all threads).
pub struct Requests {
    pub attempted: usize,
    pub failed: u64,
    pub sorted_ns: Vec<u64>,
    /// Requests completed in each whole second of the window, by due
    /// time.
    pub per_second: Vec<f64>,
}

impl Requests {
    pub fn new(rec: &WindowRecord, secs: f64) -> Requests {
        let mut sorted_ns = rec.latencies.clone();
        sorted_ns.sort_unstable();
        let mut per_second = vec![0.0; secs as usize];
        for (&l, &s) in rec.latencies.iter().zip(&rec.due_s) {
            if let (Some(n), true) = (per_second.get_mut(s as usize), l != FAILED) {
                *n += 1.0;
            }
        }
        Requests {
            attempted: sorted_ns.len(),
            failed: sorted_ns.iter().rev().take_while(|&&l| l == FAILED).count() as u64,
            sorted_ns,
            per_second,
        }
    }

    /// Completed requests per second: the median over the window's
    /// whole seconds, so one slow second moves it little.
    pub fn throughput(&self, secs: f64) -> f64 {
        if self.per_second.is_empty() {
            return self.completed() / secs;
        }
        median(&mut self.per_second.clone())
    }

    pub fn completed(&self) -> f64 {
        (self.attempted as u64 - self.failed) as f64
    }
}

fn pauses_ns(cycles: &[CycleStats]) -> Vec<u64> {
    let mut v: Vec<u64> = cycles
        .iter()
        .map(|c| c.pause_wall.as_nanos() as u64)
        .collect();
    v.sort_unstable();
    v
}

/// The end-to-end metrics of one window; `secs` is its planned length.
pub fn end_to_end(
    req: &Requests,
    d: &Delta,
    cycles: &[CycleStats],
    secs: f64,
    setup_s: f64,
    heap_peak_bytes: f64,
) -> Vec<Metric> {
    let lat = |p| percentile(&req.sorted_ns, p);
    let pauses = pauses_ns(cycles);
    vec![
        m("setup_s", setup_s, "s"),
        m("throughput_rps", req.throughput(secs), "1/s"),
        pm("latency_p50_us", lat(0.50), 1e-3, "us"),
        pm("latency_p99_us", lat(0.99), 1e-3, "us"),
        pm("latency_p999_us", lat(0.999), 1e-3, "us"),
        m(
            "slo_miss_ratio",
            per(
                slo_misses(&req.sorted_ns, SLO_NS) as f64,
                req.attempted as f64,
            ),
            "ratio",
        ),
        pm("pause_p50_ms", percentile(&pauses, 0.50), 1e-6, "ms"),
        pm("pause_p90_ms", percentile(&pauses, 0.90), 1e-6, "ms"),
        m(
            "cpu_ms_per_kreq",
            per_kreq(d.cpu_ns() / 1e6, req.completed()),
            "ms",
        ),
        m("heap_peak_mb", mb(heap_peak_bytes), "MiB"),
        m(
            "error_ratio",
            per(req.failed as f64, req.attempted as f64),
            "ratio",
        ),
    ]
}

fn mean(cycles: &[CycleStats], f: impl Fn(&CycleStats) -> f64) -> f64 {
    per(cycles.iter().map(f).sum(), cycles.len() as f64)
}

fn wall_ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer ledger of the traced window.
pub fn layers(
    gc: &Gc,
    rec: &WindowRecord,
    req: &Requests,
    d: &Delta,
    cycles: &[CycleStats],
    secs: f64,
) -> Vec<Metric> {
    let l = &rec.layer;
    let n = cycles.len() as f64;
    let alloc = d.allocated();
    let fences = d.fences();
    let (a, b) = (d.a, d.b);
    let sum = |f: fn(&CycleStats) -> u64| cycles.iter().map(f).sum::<u64>() as f64;
    let mutator_traced = sum(|c| c.mutator_traced_bytes);
    let drain_s: f64 = cycles.iter().map(|c| c.drain_wall.as_secs_f64()).sum();
    let tel = gc.telemetry();
    vec![
        pm(
            "core.mutator.alloc_ns_p50",
            l.alloc_ns.percentile(0.50),
            1.0,
            "ns",
        ),
        pm(
            "core.mutator.alloc_ns_p99",
            l.alloc_ns.percentile(0.99),
            1.0,
            "ns",
        ),
        m(
            "core.mutator.alloc_slow_per_kreq",
            per_kreq(d.counter("heap_alloc_slow_path_total"), req.completed()),
            "1/kreq",
        ),
        pm(
            "core.mutator.barrier_ns_p50",
            l.barrier_ns.percentile(0.50),
            1.0,
            "ns",
        ),
        m(
            "core.mutator.safepoint_wait_ms_per_s",
            l.safepoint_wait_ns as f64 / 1e6 / secs,
            "ms/s",
        ),
        m(
            "core.mutator.alloc_stall_ms_per_s",
            l.stalls.total_ns() as f64 / 1e6 / secs,
            "ms/s",
        ),
        m(
            "core.mutator.alloc_stall_pause_ms_per_s",
            l.stalls.pause_ns as f64 / 1e6 / secs,
            "ms/s",
        ),
        m(
            "core.mutator.alloc_stall_work_ms_per_s",
            l.stalls.work_ns as f64 / 1e6 / secs,
            "ms/s",
        ),
        m("core.pacing.cycles_per_s", n / secs, "1/s"),
        m(
            "core.pacing.alloc_failure_share",
            per(
                cycles
                    .iter()
                    .filter(|c| c.trigger == Some(Trigger::AllocationFailure))
                    .count() as f64,
                n,
            ),
            "ratio",
        ),
        m(
            "core.pacing.cc_rate_failure_share",
            per(
                cycles.iter().filter(|c| c.cc_rate_failed()).count() as f64,
                n,
            ),
            "ratio",
        ),
        m(
            "core.pacing.mutator_traced_share",
            per(
                mutator_traced,
                mutator_traced + sum(|c| c.background_traced_bytes),
            ),
            "ratio",
        ),
        m(
            "core.pacing.increments_mutator_per_s",
            d.counter("gc_increments_mutator_total") / secs,
            "1/s",
        ),
        m(
            "core.pacing.increments_background_per_s",
            d.counter("gc_increments_background_total") / secs,
            "1/s",
        ),
        m(
            "core.pacing.rung_finish_per_s",
            d.counter("gc_alloc_rung_finish_total") / secs,
            "1/s",
        ),
        m(
            "core.tracing.cards_cleaned_concurrent_per_cycle",
            per(sum(|c| c.cards_cleaned_concurrent), n),
            "count",
        ),
        m(
            "core.tracing.cards_cleaned_stw_per_cycle",
            per(sum(|c| c.cards_cleaned_stw), n),
            "count",
        ),
        m(
            "core.tracing.cards_left_per_cycle",
            per(sum(|c| c.cards_left), n),
            "count",
        ),
        m(
            "core.tracing.handshakes_per_cycle",
            per(sum(|c| c.handshakes), n),
            "count",
        ),
        m(
            "core.tracing.handshake_timeouts",
            d.counter("gc_handshake_timeouts_total"),
            "count",
        ),
        m(
            "pause.cards_ms",
            mean(cycles, |c| wall_ms(c.cards_wall)),
            "ms",
        ),
        m(
            "pause.roots_ms",
            mean(cycles, |c| wall_ms(c.roots_wall)),
            "ms",
        ),
        m(
            "pause.drain_ms",
            mean(cycles, |c| wall_ms(c.drain_wall)),
            "ms",
        ),
        m(
            "pause.sweep_ms",
            mean(cycles, |c| wall_ms(c.sweep_wall)),
            "ms",
        ),
        m(
            "pause.clear_ms",
            mean(cycles, |c| wall_ms(c.clear_wall)),
            "ms",
        ),
        m(
            "pause.straggler_ms",
            mean(cycles, |c| wall_ms(c.straggler_wall)),
            "ms",
        ),
        m(
            "core.scheduler.drain_mb_per_s",
            per(mb(sum(|c| c.stw_traced_bytes)), drain_s),
            "MiB/s",
        ),
        m(
            "core.scheduler.sched_wakeups_per_pause",
            per(d.counter("gc_sched_wakeups_total"), n),
            "count",
        ),
        m(
            "core.scheduler.mmu_10ms",
            tel.minimum_mutator_utilization(10_000_000),
            "ratio",
        ),
        m(
            "core.scheduler.mmu_50ms",
            tel.minimum_mutator_utilization(50_000_000),
            "ratio",
        ),
        m(
            "heap.slow_path_per_mb",
            per_mb(d.counter("heap_alloc_slow_path_total"), alloc),
            "1/MiB",
        ),
        m(
            "heap.refill_steals_per_mb",
            per_mb(
                (b.shards.refill_steals - a.shards.refill_steals) as f64,
                alloc,
            ),
            "1/MiB",
        ),
        m(
            "heap.shard_contention_per_mb",
            per_mb(
                (b.shards.contended_locks - a.shards.contended_locks) as f64,
                alloc,
            ),
            "1/MiB",
        ),
        m(
            "heap.wilderness_refills_per_mb",
            per_mb(
                (b.shards.wilderness_refills - a.shards.wilderness_refills) as f64,
                alloc,
            ),
            "1/MiB",
        ),
        m(
            "heap.sweep_on_refill_chunks_per_s",
            (b.sweep.refill_chunks - a.sweep.refill_chunks) as f64 / secs,
            "1/s",
        ),
        m(
            "heap.bg_sweep_chunks_per_s",
            (b.sweep.bg_chunks - a.sweep.bg_chunks) as f64 / secs,
            "1/s",
        ),
        m(
            "heap.straggler_chunks_per_cycle",
            per(sum(|c| c.straggler_chunks), n),
            "count",
        ),
        m("heap.segment_grows", (b.grows - a.grows) as f64, "count"),
        m("heap.alloc_mb_per_s", mb(alloc) / secs, "MiB/s"),
        m(
            "packets.cas_ops_per_cycle",
            per(sum(|c| c.cas_ops), n),
            "count",
        ),
        m(
            "packets.overflows_per_cycle",
            per(sum(|c| c.overflows), n),
            "count",
        ),
        m(
            "packets.watermark_packets",
            cycles
                .iter()
                .map(|c| c.packets_in_use_watermark)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m(
            "packets.deferred_objects_per_cycle",
            per(sum(|c| c.deferred_objects), n),
            "count",
        ),
        m(
            "membar.fences_alloc_batch_per_mb",
            per_mb(fences.alloc_batch as f64, alloc),
            "1/MiB",
        ),
        m(
            "membar.fences_trace_batch_per_mb",
            per_mb(fences.trace_batch as f64, alloc),
            "1/MiB",
        ),
        m(
            "membar.fences_packet_publish_per_mb",
            per_mb(fences.packet_publish as f64, alloc),
            "1/MiB",
        ),
        m(
            "membar.fences_card_handshake_per_mb",
            per_mb(fences.card_handshake as f64, alloc),
            "1/MiB",
        ),
        pm(
            "harness.gen_late_p99_us",
            rec.gen_late.percentile(0.99),
            1e-3,
            "us",
        ),
        m("harness.offered_rps", req.attempted as f64 / secs, "1/s"),
    ]
}

/// The timed half's throughput and median latency over the untimed
/// half's: what timing each call costs.
pub fn tracing_overhead(untimed: &[Metric], timed: &[Metric]) -> Vec<Metric> {
    let ratio = |name| {
        let get = |v: &[Metric]| v.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        per(get(timed), get(untimed))
    };
    vec![
        m(
            "harness.tracing_overhead_rps",
            ratio("throughput_rps"),
            "ratio",
        ),
        m(
            "harness.tracing_overhead_p50",
            ratio("latency_p50_us"),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgc::GcConfig;

    /// Every quoted string inside each `"key": [ ... ]` array of `text`.
    fn arrays(text: &str, key: &str) -> Vec<String> {
        let open = format!("\"{key}\": [");
        let mut out = Vec::new();
        for part in text.split(&open).skip(1) {
            let body = &part[..part.find(']').expect("array closes")];
            out.extend(body.split('"').skip(1).step_by(2).map(str::to_string));
        }
        out
    }

    /// The `"name"` values in the section of `text` after `"key"`.
    fn names_after(text: &str, key: &str) -> Vec<String> {
        let section = &text[text.find(&format!("\"{key}\"")).expect("section")..];
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_and_predictions_name_what_the_ledger_reports() {
        let gc = Gc::new(GcConfig::with_heap_bytes(4 << 20));
        let (a, b) = (Snapshot::take(&gc), Snapshot::take(&gc));
        let d = Delta::new(&a, &b);
        let rec = WindowRecord::default();
        let req = Requests::new(&rec, 1.0);
        let e2e = end_to_end(&req, &d, &[], 1.0, 0.1, 1.0);
        let mut layer = layers(&gc, &rec, &req, &d, &[], 1.0);
        layer.extend(tracing_overhead(&e2e, &e2e));
        gc.shutdown();
        let gated: Vec<&str> = e2e
            .iter()
            .map(|m| m.name)
            .filter(|n| !REPORT_ONLY.contains(n))
            .collect();
        let layer: Vec<&str> = layer.iter().map(|m| m.name).collect();
        let layer_gated: Vec<&str> = layer
            .iter()
            .copied()
            .filter(|n| !REPORT_ONLY.contains(n))
            .collect();

        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let bench = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap();
        assert_eq!(names_after(&bench, "end_to_end"), gated);
        assert_eq!(names_after(&bench, "per_layer"), layer_gated);
        let workloads = names_after(&bench, "workloads");

        let pred =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json"))
                .unwrap();
        for name in arrays(&pred, "layer_metrics") {
            assert!(
                layer.contains(&name.as_str()),
                "unknown layer metric {name}"
            );
        }
        for name in arrays(&pred, "end_to_end") {
            let known = e2e.iter().any(|m| m.name == name) || layer.contains(&name.as_str());
            assert!(known, "unknown end-to-end metric {name}");
        }
        for name in arrays(&pred, "workloads") {
            assert!(workloads.contains(&name), "unknown workload {name}");
        }
        // Every layer metric has a prediction.
        let predicted = arrays(&pred, "layer_metrics");
        for name in &layer {
            assert!(
                predicted.iter().any(|p| p == name),
                "no prediction for {name}"
            );
        }
    }
}
