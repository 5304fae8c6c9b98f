//! The simulated server: its long-lived state (a stock table and a
//! session cache ring), the request body, and the per-thread load
//! generators that drive it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcgc::telemetry::Counter;
use mcgc::workloads::rng::SmallRng;
use mcgc::{Gc, GcError, Mutator, ObjectRef, ObjectShape};

use crate::stats::{Histogram, StallSplit, FAILED};

/// Parts per session; slot `PARTS` of a session links its stock item.
const PARTS: u32 = 32;
const PART_DATA: u32 = 36;
const SESSION: ObjectShape = ObjectShape {
    refs: PARTS + 1,
    data: 4,
    class: 1,
};
const PART: ObjectShape = ObjectShape {
    refs: 0,
    data: PART_DATA,
    class: 2,
};
const STOCK: ObjectShape = ObjectShape {
    refs: 1,
    data: 30,
    class: 3,
};
const DIR_FANOUT: u32 = 256;
const DIRECTORY: ObjectShape = ObjectShape {
    refs: DIR_FANOUT,
    data: 0,
    class: 4,
};
pub const RING_SLOTS: u32 = 256;
/// One request in this many stores its session in the cache ring.
const CACHE_EVERY: u64 = 8;
const SESSION_TAG: u64 = 0x5E55_1011;
const STOCK_TAG: u64 = 0x57C0_C4ED;

/// Bytes a request allocates.
pub fn request_bytes() -> usize {
    SESSION.bytes() + PARTS as usize * PART.bytes()
}

/// The server's long-lived state, reachable from two global roots.
#[derive(Clone, Copy, Debug)]
pub struct LiveSet {
    top: ObjectRef,
    ring: ObjectRef,
    pub stock_items: u64,
}

impl LiveSet {
    /// Builds a stock table of about `bytes` behind a two-level
    /// directory, plus the empty session cache ring.
    pub fn build(gc: &Arc<Gc>, bytes: usize) -> Result<LiveSet, GcError> {
        let stock_items = (bytes / STOCK.bytes()) as u64;
        let dirs = stock_items.div_ceil(DIR_FANOUT as u64) as u32;
        let mut m = gc.register_mutator();
        let top = m.alloc(ObjectShape::new(dirs, 0, 5))?;
        gc.global_root_push(Some(top));
        let ring = m.alloc(ObjectShape::new(RING_SLOTS, 0, 6))?;
        gc.global_root_push(Some(ring));
        let mut idx = 0;
        for d in 0..dirs {
            let dir = m.alloc_into(top, d, DIRECTORY)?;
            let mut prev = None;
            for j in 0..DIR_FANOUT {
                if idx == stock_items {
                    break;
                }
                let item = m.alloc_into(dir, j, STOCK)?;
                m.write_data(item, 0, idx);
                m.write_data(item, 1, STOCK_TAG);
                m.write_ref(item, 0, prev);
                prev = Some(item);
                idx += 1;
            }
        }
        Ok(LiveSet {
            top,
            ring,
            stock_items,
        })
    }

    fn stock(&self, m: &Mutator, idx: u64) -> Option<ObjectRef> {
        let dir = m.read_ref(self.top, (idx / DIR_FANOUT as u64) as u32)?;
        m.read_ref(dir, (idx % DIR_FANOUT as u64) as u32)
    }

    /// Walks the stock table and every cached session. Returns the
    /// number of sessions found and the violations: a part that does not
    /// carry its session's request number, a stock link that is not the
    /// published table entry, or a damaged stock item.
    pub fn check(&self, m: &Mutator) -> (u64, Vec<String>) {
        let mut bad = Vec::new();
        for idx in 0..self.stock_items {
            match self.stock(m, idx) {
                Some(s) if m.read_data(s, 0) == idx && m.read_data(s, 1) == STOCK_TAG => {}
                _ => bad.push(format!("stock item {idx} missing or damaged")),
            }
        }
        let mut sessions = 0;
        for slot in 0..RING_SLOTS {
            let Some(s) = m.read_ref(self.ring, slot) else {
                continue;
            };
            sessions += 1;
            let reqno = m.read_data(s, 0);
            if m.read_data(s, 3) != SESSION_TAG
                || !reqno.is_multiple_of(CACHE_EVERY)
                || ring_slot(reqno) != slot
            {
                bad.push(format!("ring slot {slot}: foreign session (reqno {reqno})"));
                continue;
            }
            for i in 0..PARTS {
                match m.read_ref(s, i) {
                    Some(p) if m.read_data(p, 0) == reqno && m.read_data(p, 1) == i as u64 => {}
                    _ => bad.push(format!("session {reqno}: part {i} is not its own")),
                }
            }
            let idx = m.read_data(s, 1);
            let linked = m.read_ref(s, PARTS);
            if idx >= self.stock_items || linked.is_none() || linked != self.stock(m, idx) {
                bad.push(format!(
                    "session {reqno}: stock link is not published item {idx}"
                ));
            }
        }
        (sessions, bad)
    }
}

fn ring_slot(reqno: u64) -> u32 {
    ((reqno / CACHE_EVERY) % RING_SLOTS as u64) as u32
}

/// The benchmark's timed view of a mutator's calls.
#[derive(Clone, Debug, Default)]
pub struct LayerRecord {
    pub alloc_ns: Histogram,
    pub barrier_ns: Histogram,
    pub stalls: StallSplit,
    pub safepoint_wait_ns: u64,
}

impl LayerRecord {
    pub fn merge(&mut self, o: &LayerRecord) {
        self.alloc_ns.merge(&o.alloc_ns);
        self.barrier_ns.merge(&o.barrier_ns);
        self.stalls.merge(&o.stalls);
        self.safepoint_wait_ns += o.safepoint_wait_ns;
    }
}

/// How the request body reaches the mutator: directly, or through a
/// timer around each call into the program.
trait Calls {
    fn alloc(&mut self, m: &mut Mutator, shape: ObjectShape) -> Result<ObjectRef, GcError>;
    fn write_ref(&mut self, m: &mut Mutator, obj: ObjectRef, slot: u32, v: Option<ObjectRef>);
    fn safepoint(&mut self, m: &Mutator);
}

struct Direct;

impl Calls for Direct {
    #[inline]
    fn alloc(&mut self, m: &mut Mutator, shape: ObjectShape) -> Result<ObjectRef, GcError> {
        m.alloc(shape)
    }
    #[inline]
    fn write_ref(&mut self, m: &mut Mutator, obj: ObjectRef, slot: u32, v: Option<ObjectRef>) {
        m.write_ref(obj, slot, v);
    }
    #[inline]
    fn safepoint(&mut self, m: &Mutator) {
        m.safepoint();
    }
}

struct Timed<'a> {
    rec: &'a mut LayerRecord,
    pauses: &'a Counter,
}

impl Calls for Timed<'_> {
    fn alloc(&mut self, m: &mut Mutator, shape: ObjectShape) -> Result<ObjectRef, GcError> {
        let pauses = self.pauses.get();
        let t = Instant::now();
        let r = m.alloc(shape);
        let ns = t.elapsed().as_nanos() as u64;
        self.rec.alloc_ns.record(ns);
        self.rec.stalls.record(ns, self.pauses.get() != pauses);
        r
    }
    fn write_ref(&mut self, m: &mut Mutator, obj: ObjectRef, slot: u32, v: Option<ObjectRef>) {
        let t = Instant::now();
        m.write_ref(obj, slot, v);
        self.rec.barrier_ns.record(t.elapsed().as_nanos() as u64);
    }
    fn safepoint(&mut self, m: &Mutator) {
        let t = Instant::now();
        m.safepoint();
        self.rec.safepoint_wait_ns += t.elapsed().as_nanos() as u64;
    }
}

/// One generated request: everything the program is handed.
#[derive(Clone, Copy, Debug)]
struct Request {
    reqno: u64,
    stock: u64,
}

/// Serves one request: builds a session graph, links a stock item,
/// reads the graph back, and caches one session in [`CACHE_EVERY`].
fn serve(m: &mut Mutator, c: &mut impl Calls, live: &LiveSet, req: Request) -> Result<(), GcError> {
    c.safepoint(m);
    let base = m.root_len();
    let r = build_session(m, c, live, req);
    m.root_truncate(base);
    r
}

fn build_session(
    m: &mut Mutator,
    c: &mut impl Calls,
    live: &LiveSet,
    req: Request,
) -> Result<(), GcError> {
    let session = c.alloc(m, SESSION)?;
    m.root_push(Some(session));
    m.write_data(session, 0, req.reqno);
    m.write_data(session, 1, req.stock);
    m.write_data(session, 3, SESSION_TAG);
    for i in 0..PARTS {
        let part = c.alloc(m, PART)?;
        c.write_ref(m, session, i, Some(part));
        m.write_data(part, 0, req.reqno);
        m.write_data(part, 1, i as u64);
        for d in 2..PART_DATA {
            m.write_data(part, d, req.reqno ^ d as u64);
        }
    }
    let stock = live.stock(m, req.stock);
    c.write_ref(m, session, PARTS, stock);
    // "Render the response": read the whole graph back.
    let mut acc = 0u64;
    for i in 0..PARTS {
        let part = m.read_ref(session, i).expect("session part linked above");
        for d in 0..PART_DATA {
            acc = acc.wrapping_add(m.read_data(part, d));
        }
    }
    if let Some(s) = m.read_ref(session, PARTS) {
        acc = acc.wrapping_add(m.read_data(s, 0));
    }
    m.write_data(session, 2, acc);
    if req.reqno.is_multiple_of(CACHE_EVERY) {
        c.write_ref(m, live.ring, ring_slot(req.reqno), Some(session));
    }
    Ok(())
}

/// What one thread saw in one measured window.
#[derive(Clone, Debug, Default)]
pub struct WindowRecord {
    /// Latency of each attempted request in ns; [`FAILED`] for a request
    /// that returned an error or never completed.
    pub latencies: Vec<u64>,
    /// Whole seconds from the window's start to each request's due time.
    pub due_s: Vec<u32>,
    /// How late the generator issued requests, in ns: on waking from
    /// idle (open loop), or after the previous completion (closed loop).
    pub gen_late: Histogram,
    pub layer: LayerRecord,
}

impl WindowRecord {
    /// Records a request due `due_s` seconds into the window, with its
    /// latency, or `None` if it failed or never completed.
    fn record(&mut self, due_s: u32, latency_ns: Option<u64>) {
        self.due_s.push(due_s);
        self.latencies.push(latency_ns.unwrap_or(FAILED));
    }

    pub fn merge(&mut self, o: WindowRecord) {
        self.latencies.extend(o.latencies);
        self.due_s.extend(o.due_s);
        self.gen_late.merge(&o.gen_late);
        self.layer.merge(&o.layer);
    }
}

/// The run's time line, shared by every thread: requests due before
/// `windows[0]` are warm-up; window `i` spans `windows[i]..windows[i+1]`.
/// Requests of a window with `timed[i]` set go through [`Timed`].
#[derive(Clone, Debug)]
pub struct Plan {
    pub start: Instant,
    pub windows: Vec<Instant>,
    pub timed: Vec<bool>,
    /// Requests still unserved at this instant never complete.
    pub deadline: Instant,
}

impl Plan {
    fn window(&self, due: Instant) -> Option<usize> {
        let i = self.windows.iter().rposition(|&w| w <= due)?;
        (i + 1 < self.windows.len()).then_some(i)
    }

    fn end(&self) -> Instant {
        *self.windows.last().expect("plan has windows")
    }
}

/// Asks the kernel to end this thread's sleeps on time: the default
/// 50 µs timer slack would otherwise be added to every request that
/// arrives while its thread is idle.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // only sets the calling thread's timer slack; no memory is shared.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

/// Pins the calling thread to `cpu`. Left to the OS, the two mutators
/// sometimes share a CPU for a whole run and sometimes do not, and the
/// request tail differs by 2x between those runs; one mutator per CPU
/// fixes that choice. The GC pool thread stays unpinned.
#[cfg(target_os = "linux")]
fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte CPU set (glibc's `cpu_set_t`
    // size) that the call only reads; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// One thread's load: an open-loop Poisson stream at `rate` requests
/// per second, or a closed loop when `rate` is `None`.
pub struct Generator {
    pub thread: u64,
    pub threads: u64,
    pub seed: u64,
    pub rate: Option<f64>,
}

impl Generator {
    /// Runs the plan on this thread's mutator and returns one record per
    /// window.
    pub fn run(&self, gc: &Arc<Gc>, live: &LiveSet, plan: &Plan) -> Vec<WindowRecord> {
        tight_timer_slack();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        if !pin_to_cpu(self.thread as usize % cpus) {
            eprintln!("perfbench: could not pin mutator {} to a CPU", self.thread);
        }
        let mut m = gc.register_mutator();
        let pauses = gc.telemetry().registry().counter("gc_pauses_total");
        let mut rng = SmallRng::seed_from_u64(self.seed ^ self.thread.wrapping_mul(0x9E37_79B9));
        let mut out = vec![WindowRecord::default(); plan.windows.len() - 1];
        let mut warm = WindowRecord::default();
        let mut due = plan.start;
        let mut k = 0u64;
        let mut lapsed = false;
        loop {
            let req = Request {
                reqno: self.thread + k * self.threads,
                stock: rng.gen_range_u64(0, live.stock_items),
            };
            k += 1;
            if let Some(rate) = self.rate {
                // Inverse-CDF exponential gap: a Poisson arrival stream.
                due += Duration::from_secs_f64(-(1.0 - rng.gen_f64()).ln() / rate);
            }
            let mut now = Instant::now();
            if due >= plan.end() {
                break;
            }
            let w = plan.window(due);
            let due_s = |w: usize| (due - plan.windows[w]).as_secs() as u32;
            if lapsed || now >= plan.deadline {
                lapsed = true;
                if let Some(w) = w {
                    out[w].record(due_s(w), None);
                }
                continue;
            }
            let (rec, timed) = match w {
                Some(w) => (&mut out[w], plan.timed[w]),
                None => (&mut warm, false),
            };
            if now < due {
                // Idle until due, in a blocked region so the collector
                // never waits on a sleeping thread. Lateness is taken at
                // wake-up, before any wait for a pause on the way out.
                let woke = m.blocked(|| {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    Instant::now()
                });
                now = Instant::now();
                rec.gen_late.record((woke - due).as_nanos() as u64);
                if timed {
                    rec.layer.safepoint_wait_ns += (now - woke).as_nanos() as u64;
                }
            } else if self.rate.is_none() {
                // A closed loop's next request is due when the last one
                // completed; the gap is the generator's own overhead.
                rec.gen_late.record((now - due).as_nanos() as u64);
            }
            let r = if timed {
                let mut c = Timed {
                    rec: &mut rec.layer,
                    pauses: &pauses,
                };
                serve(&mut m, &mut c, live, req)
            } else {
                serve(&mut m, &mut Direct, live, req)
            };
            let done = Instant::now();
            if let Some(w) = w {
                rec.record(due_s(w), r.ok().map(|()| (done - due).as_nanos() as u64));
            }
            if self.rate.is_none() {
                due = done;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgc::GcConfig;

    fn small_run() -> (Arc<Gc>, LiveSet, Vec<WindowRecord>) {
        let gc = Gc::new(GcConfig::with_heap_bytes(8 << 20));
        let live = LiveSet::build(&gc, 2 << 20).unwrap();
        let start = Instant::now();
        let plan = Plan {
            start,
            windows: vec![
                start + Duration::from_millis(50),
                start + Duration::from_millis(400),
            ],
            timed: vec![true],
            deadline: start + Duration::from_secs(5),
        };
        let g = Generator {
            thread: 0,
            threads: 1,
            seed: 9,
            rate: None,
        };
        let recs = g.run(&gc, &live, &plan);
        (gc, live, recs)
    }

    #[test]
    fn a_clean_run_checks_clean() {
        let (gc, live, recs) = small_run();
        let rec = &recs[0];
        assert!(!rec.latencies.is_empty());
        assert!(!rec.latencies.contains(&FAILED));
        assert!(
            rec.layer.alloc_ns.percentile(0.5).is_some(),
            "timed window records calls"
        );
        let (sessions, bad) = live.check(&gc.register_mutator());
        assert!(sessions > 0);
        assert!(bad.is_empty(), "{bad:?}");
        gc.shutdown();
        assert!(gc.verify_heap().is_empty());
    }

    #[test]
    fn the_check_catches_a_foreign_part_and_a_wrong_stock_link() {
        let (gc, live, _) = small_run();
        let mut m = gc.register_mutator();
        let (slot, s) = (0..RING_SLOTS)
            .find_map(|i| m.read_ref(live.ring, i).map(|s| (i, s)))
            .expect("a cached session");
        let part = m.read_ref(s, 3).unwrap();
        m.write_data(part, 0, m.read_data(part, 0) + 1);
        let other = live.stock(&m, (m.read_data(s, 1) + 1) % live.stock_items);
        m.write_ref(s, PARTS, other);
        let (_, bad) = live.check(&m);
        assert_eq!(bad.len(), 2, "slot {slot}: {bad:?}");
        assert!(bad[0].contains("part 3"), "{bad:?}");
        assert!(bad[1].contains("stock link"), "{bad:?}");
        drop(m);
        gc.shutdown();
    }
}
