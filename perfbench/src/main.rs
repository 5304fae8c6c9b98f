//! Open-loop server benchmark for mcgc.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rpc-light --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process builds one collector and its live set, then drives it
//! from two mutator threads through the public `Mutator` API. After a
//! warm-up it measures `--seconds` in one window (`--trace 0`: the
//! end-to-end metrics) or in an untimed half followed by a timed half
//! (`--trace 1`: the per-layer ledger, plus the timed half's overhead
//! against the untimed one). It prints a report, then one JSON object as the last
//! line, and exits non-zero if any output of the program was wrong.

mod ledger;
mod server;
mod stats;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcgc::{CollectorMode, Gc, GcConfig, SweepMode};

use ledger::{Delta, Metric, Requests, Snapshot};
use server::{Generator, LiveSet, Plan, WindowRecord};

const HEAP_BYTES: usize = 64 << 20;
const THREADS: u64 = 2;
const WARMUP: Duration = Duration::from_secs(2);
/// Requests not served this long after the last window never complete.
const GRACE: Duration = Duration::from_secs(3);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// A traffic mix and the collector it runs against.
struct Workload {
    name: &'static str,
    mode: CollectorMode,
    sweep: SweepMode,
    /// Live set as a share of the heap.
    residency: f64,
    /// Offered requests per second over all threads; `None` is a closed
    /// loop.
    rate: Option<f64>,
}

const WORKLOADS: [Workload; 3] = [
    // Mostly idle CPU: the background tracer should do the marking.
    Workload {
        name: "rpc-light",
        mode: CollectorMode::Concurrent,
        sweep: SweepMode::Lazy,
        residency: 0.5,
        rate: Some(8_000.0),
    },
    // No idle CPU: mutator increments and allocation-failure finishes.
    Workload {
        name: "rpc-heavy",
        mode: CollectorMode::Concurrent,
        sweep: SweepMode::Lazy,
        residency: 0.5,
        rate: Some(20_000.0),
    },
    // The parallel pause is all of GC: scheduler, drain and sweep.
    Workload {
        name: "batch-stw",
        mode: CollectorMode::StopTheWorld,
        sweep: SweepMode::Eager,
        residency: 0.6,
        rate: None,
    },
];

impl Workload {
    fn config(&self) -> GcConfig {
        let mut c = GcConfig::with_heap_bytes(HEAP_BYTES);
        c.mode = self.mode;
        c.sweep = self.sweep;
        c.bg_sweep = true;
        c.stw_workers = 2;
        c.background_threads = 1;
        c
    }

    /// Stock-table bytes: the residency target minus a full cache ring.
    fn stock_bytes(&self) -> usize {
        let ring = server::RING_SLOTS as usize * server::request_bytes();
        (HEAP_BYTES as f64 * self.residency) as usize - ring
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds the collector and live set `SETUP_REPS` times, keeping the
/// last; returns it with the median set-up time.
fn set_up(w: &Workload) -> Result<(Arc<Gc>, LiveSet, f64), String> {
    let mut times = Vec::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let gc = Gc::new(w.config());
        let live = LiveSet::build(&gc, w.stock_bytes()).map_err(|e| format!("live set: {e:?}"))?;
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((gc, live, stats::median(&mut times)));
        }
        gc.shutdown();
    }
    unreachable!("SETUP_REPS > 0")
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

fn print_metric(m: &Metric) {
    let samples = m.pct.map_or(String::new(), |p| {
        format!("  (p{:.4} of n={})", p.pct * 100.0, p.count)
    });
    let gate = if ledger::REPORT_ONLY.contains(&m.name) {
        "*"
    } else {
        " "
    };
    println!(
        "{gate} {:<48} {:>16.4} {:<6}{}",
        m.name, m.value, m.unit, samples
    );
}

fn json(correct: bool, attempted: usize, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} mode={:?} sweep={:?} heap_mib={} residency={} \
         threads={} (one per CPU) offered_rps={} stw_workers=2 background_threads=1 gc_instances_live=1",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        w.mode,
        w.sweep,
        HEAP_BYTES >> 20,
        w.residency,
        THREADS,
        w.rate.map_or("closed-loop".to_string(), |r| r.to_string()),
    );
    println!("note: FenceStats is process-global; this process runs one Gc at a time, so its deltas are this Gc's");
    let (gc, live, setup_s) = set_up(w)?;

    let start = Instant::now();
    // A traced run splits its measured time between an untimed and a
    // timed half, so both kinds of run measure for `--seconds`.
    let window = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    let secs = window.as_secs_f64();
    let mut windows = vec![start + WARMUP, start + WARMUP + window];
    let mut timed = vec![false];
    if args.trace {
        windows.push(start + WARMUP + 2 * window);
        timed.push(true);
    }
    let plan = Plan {
        start,
        deadline: *windows.last().expect("windows") + GRACE,
        windows,
        timed,
    };
    let (snaps, records) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let g = Generator {
                    thread,
                    threads: THREADS,
                    seed: args.seed,
                    rate: w.rate.map(|r| r / THREADS as f64),
                };
                let (gc, live, plan) = (&gc, &live, &plan);
                s.spawn(move || g.run(gc, live, plan))
            })
            .collect();
        let snaps: Vec<Snapshot> = plan
            .windows
            .iter()
            .map(|&t| {
                sleep_until(t);
                Snapshot::take(&gc)
            })
            .collect();
        let records: Vec<Vec<WindowRecord>> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        (snaps, records)
    });
    let mut merged: Vec<WindowRecord> = vec![WindowRecord::default(); plan.windows.len() - 1];
    for per_thread in records {
        for (acc, r) in merged.iter_mut().zip(per_thread) {
            acc.merge(r);
        }
    }

    // Correctness: the cache ring and stock table, then the heap.
    let log = gc.log();
    let heap_peak = (gc.heap().segment_stats().peak * gc.heap().segment_stats().seg_bytes) as f64;
    let (sessions, mut violations) = {
        let m = gc.register_mutator();
        live.check(&m)
    };
    if sessions == 0 {
        violations.push("no session reached the cache ring".into());
    }
    gc.shutdown();
    violations.extend(
        gc.verify_heap()
            .iter()
            .map(|v| format!("verify_heap: {v:?}")),
    );
    let whole = Delta::new(&snaps[0], snaps.last().expect("snapshots"));
    if !whole.one_fence_per_packet() {
        violations.push(format!(
            "more packet-publish fences ({}) than packets claimed ({})",
            whole.fences().packet_publish,
            whole.packets_claimed()
        ));
    }

    let window_metrics = |i: usize| {
        let req = Requests::new(&merged[i], secs);
        let d = Delta::new(&snaps[i], &snaps[i + 1]);
        let cycles = &log.cycles[snaps[i].cycles..snaps[i + 1].cycles];
        let e2e = ledger::end_to_end(&req, &d, cycles, secs, setup_s, heap_peak);
        (req, d, cycles, e2e)
    };
    let (req0, _, _, e2e) = window_metrics(0);
    let mut attempted = req0.attempted;
    let mut failed = req0.failed;
    println!("end-to-end (untimed window; * = printed, not gated):");
    e2e.iter().for_each(print_metric);
    let mut reported: Vec<Metric> = e2e
        .iter()
        .filter(|m| !ledger::REPORT_ONLY.contains(&m.name))
        .cloned()
        .collect();
    if args.trace {
        let (req1, d, cycles, e2e_timed) = window_metrics(1);
        attempted += req1.attempted;
        failed += req1.failed;
        println!("end-to-end (timed window):");
        e2e_timed.iter().for_each(print_metric);
        let mut layers = ledger::layers(&gc, &merged[1], &req1, &d, cycles, secs);
        layers.extend(ledger::tracing_overhead(&e2e, &e2e_timed));
        println!("per-layer ledger (timed window):");
        layers.iter().for_each(print_metric);
        layers.retain(|m| !ledger::REPORT_ONLY.contains(&m.name));
        reported = layers;
    }
    if let Some(rate) = w.rate {
        println!("offered {rate} req/s; keeping up: {}", failed == 0);
    }
    println!(
        "cache ring sessions checked: {sessions}; violations: {}",
        violations.len()
    );
    for v in violations.iter().take(20) {
        println!("  violation: {v}");
    }
    let correct = violations.is_empty() && failed == 0;
    let nonfinite: Vec<_> = reported
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !nonfinite.is_empty() {
        return Err(format!("non-finite metrics: {nonfinite:?}"));
    }
    println!(
        "{}",
        json(
            correct,
            attempted,
            failed + violations.len() as u64,
            &reported
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <rpc-light|rpc-heavy|batch-stw> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
