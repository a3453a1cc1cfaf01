//! mggcn-exec — the real multi-threaded execution runtime.
//!
//! `gpusim` *times* an op schedule; this crate *runs* one. It spawns one
//! OS thread per simulated GPU and executes the schedule's op bodies with
//! real synchronization, mapping the simulator's concepts onto threads:
//!
//! * **stream FIFOs + CUDA events** → each worker executes its GPU's ops
//!   in the simulator's deterministic completion order (a topological
//!   linearization that respects every lane FIFO), and blocks on the
//!   completion flags of an op's explicit `waits` — including the
//!   BC1/BC2 double-buffer WAR fences, which arrive here as ordinary
//!   dependency edges;
//! * **NCCL rendezvous** → a collective appears in every participant's
//!   worklist; participants count arrivals, the lowest-numbered GPU
//!   (the leader) runs the collective body once all have arrived — at
//!   which point every participant is quiescent, so cross-GPU reads are
//!   safe — and its completion releases the others (a barrier);
//! * **device failure** → a panicking body poisons the run: the error is
//!   recorded, every waiting worker is released, and [`execute`] returns
//!   `Err` instead of deadlocking a barrier.
//!
//! Deadlock freedom: the worklists are restrictions of one global
//! linearization in which every op's waits precede it, so by induction
//! the op with the globally smallest unfinished position can always make
//! progress.
//!
//! Each body is wall-clock timed, producing a measured per-op/per-category
//! profile next to the simulated timeline, so modeled and measured time
//! can be compared in one report ([`ExecReport`]).

#![forbid(unsafe_code)]

use mggcn_gpusim::engine::{OpDesc, OpRecord, SimOutcome};
use mggcn_gpusim::{Category, OpId, RunReport, Schedule};
use mggcn_sched::{Action, DispatchSite, Injector};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

pub use rayon::{current_num_threads, pool_size, set_active_threads};

/// How a trainer/server executes its op schedules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Discrete-event simulation only: bodies run sequentially on the
    /// calling thread in simulated-completion order (the seed behavior).
    #[default]
    Simulated,
    /// Real execution: worker-per-GPU threads + the parallel kernel pool.
    /// Numerics are bit-identical to [`Backend::Simulated`].
    Threaded,
}

impl Backend {
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "simulated" | "sim" => Some(Backend::Simulated),
            "threaded" | "exec" => Some(Backend::Threaded),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Backend::Simulated => "simulated",
            Backend::Threaded => "threaded",
        }
    }
}

/// Wall-clock measurement of one executed op body, or of time a worker
/// spent blocked before it (`category == Category::Barrier`): rendezvous
/// arrivals, waiting for the leader, and dependency waits all surface as
/// barrier spans so per-category sums account for the whole wall time
/// instead of silently attributing stalls to op categories.
#[derive(Clone, Copy, Debug)]
pub struct WallSpan {
    pub gpu: usize,
    pub stream: usize,
    pub category: Category,
    pub label: &'static str,
    /// Offset from the run's start (workers spawned), seconds.
    pub start: f64,
    /// Measured duration, seconds.
    pub seconds: f64,
}

impl WallSpan {
    /// Offset of the span's end from the run's start, seconds.
    pub fn end(&self) -> f64 {
        self.start + self.seconds
    }
}

/// Outcome of really executing a schedule: the simulated timing report
/// plus measured wall-clock, side by side.
#[derive(Debug)]
pub struct ExecReport {
    /// The rate-based DES prediction for the same schedule.
    pub sim: RunReport,
    /// Measured end-to-end wall-clock seconds (workers spawned → joined).
    pub wall_seconds: f64,
    /// Measured per-op spans (plus `Barrier` wait spans), in each worker's
    /// execution order.
    pub spans: Vec<WallSpan>,
    /// Ops whose bodies actually ran (barrier wait spans excluded).
    pub bodies_run: usize,
}

impl ExecReport {
    /// Total measured seconds per category (collective bodies count once,
    /// on the leader). Worker stall time appears under
    /// [`Category::Barrier`], so summing a GPU's entries approximates its
    /// whole wall time instead of just its busy time.
    pub fn category_wall_seconds(&self) -> BTreeMap<Category, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.category).or_insert(0.0) += s.seconds;
        }
        out
    }
}

/// Execution failed: some worker's op body panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    pub gpu: usize,
    pub label: &'static str,
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker for gpu {} panicked in op `{}`: {}", self.gpu, self.label, self.message)
    }
}

impl std::error::Error for ExecError {}

/// Safety net against lost wakeups: waiters re-check their predicate at
/// least this often even with no notification.
const WAIT_TICK: Duration = Duration::from_millis(50);

/// Waits shorter than this leave no `Barrier` span — an uncontended
/// predicate check costs a mutex lock (~100ns) and recording it would
/// double the span count with noise.
const WAIT_SPAN_MIN: f64 = 10e-6;

/// Per-op static metadata: descriptor, participating (gpu, stream)
/// lanes, and dependency list.
type OpMeta = (OpDesc, Vec<(usize, usize)>, Vec<OpId>);

struct Shared<'a, Ctx> {
    records: Vec<Mutex<Option<OpRecord<Ctx>>>>,
    meta: Vec<OpMeta>,
    done: Vec<AtomicBool>,
    arrivals: Vec<AtomicUsize>,
    failed: AtomicBool,
    error: Mutex<Option<ExecError>>,
    /// Global event channel: completions, arrivals and failures all
    /// notify here; waiters hold the lock while checking predicates.
    gate: Mutex<()>,
    cv: Condvar,
    ctx: &'a Ctx,
    /// Run epoch: wall spans record offsets from this instant.
    t0: Instant,
    /// Chaos hooks, consulted at every per-worker dispatch (no-op by
    /// default). Sites are `(gpu, worklist index)` — a pure function of the
    /// deterministic worklists, so fault plans replay identically
    /// regardless of thread interleaving or pool width.
    inj: &'a Injector,
}

impl<'a, Ctx> Shared<'a, Ctx> {
    /// Wait until `pred()` holds or the run has failed. Returns false on
    /// failure (caller bails out).
    fn wait_until(&self, mut pred: impl FnMut() -> bool) -> bool {
        let mut guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.failed.load(Ordering::SeqCst) {
                return false;
            }
            if pred() {
                return true;
            }
            let (g, _) = self.cv.wait_timeout(guard, WAIT_TICK).unwrap_or_else(|e| {
                let (g, t) = e.into_inner();
                (g, t)
            });
            guard = g;
        }
    }

    fn notify(&self) {
        let _g = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }

    fn mark_done(&self, id: OpId) {
        self.done[id].store(true, Ordering::SeqCst);
        self.notify();
    }

    fn fail(&self, gpu: usize, label: &'static str, payload: Box<dyn std::any::Any + Send>) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        {
            let mut slot = self.error.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(ExecError { gpu, label, message });
            }
        }
        self.failed.store(true, Ordering::SeqCst);
        self.notify();
    }

    fn waits_satisfied(&self, id: OpId) -> bool {
        self.meta[id].2.iter().all(|&w| self.done[w].load(Ordering::SeqCst))
    }

    /// Like [`Shared::wait_until`], but attributes measurable blocked time
    /// to a `Category::Barrier` wall span (the op's own label is kept so
    /// the stall can be traced back to what was waited on).
    fn timed_wait(
        &self,
        gpu: usize,
        stream: usize,
        desc: &OpDesc,
        spans: &mut Vec<WallSpan>,
        pred: impl FnMut() -> bool,
    ) -> bool {
        let begin = Instant::now();
        let ok = self.wait_until(pred);
        let seconds = begin.elapsed().as_secs_f64();
        if seconds >= WAIT_SPAN_MIN {
            let start = begin.duration_since(self.t0).as_secs_f64();
            spans.push(WallSpan {
                gpu,
                stream,
                category: Category::Barrier,
                label: desc.label,
                start,
                seconds,
            });
        }
        ok
    }

    /// Run one worker: execute `work` (this GPU's slice of the global
    /// completion order), honoring waits and collective rendezvous.
    fn worker(&self, gpu: usize, work: &[OpId], spans: &mut Vec<WallSpan>) {
        for (seq, &id) in work.iter().enumerate() {
            let (desc, lanes, _) = &self.meta[id];
            let leader = lanes.iter().map(|&(g, _)| g).min().expect("op has lanes");
            let stream =
                lanes.iter().find(|&&(g, _)| g == gpu).map(|&(_, s)| s).expect("op is on this gpu");
            if !self.inj.is_noop() {
                let site = DispatchSite::ExecOp { gpu, seq, collective: lanes.len() > 1 };
                match self.inj.at(site) {
                    Action::Kill => {
                        // Worker death. For a collective site the peers are
                        // already arriving at the rendezvous; the failed
                        // flag releases every waiter in bounded time, so
                        // the run ends with a tagged error, not a hang.
                        self.fail(
                            gpu,
                            desc.label,
                            Box::new(format!("injected worker death (gpu {gpu}, dispatch {seq})")),
                        );
                        return;
                    }
                    Action::Pause { seconds } => {
                        // Preemption: the worker is descheduled before the
                        // op. The pause is blocked time, so it lands in the
                        // reserved Barrier category — never inside the op's
                        // own category (which would corrupt the measured
                        // per-category profile).
                        let begin = Instant::now();
                        std::thread::sleep(Duration::from_secs_f64(seconds));
                        spans.push(WallSpan {
                            gpu,
                            stream,
                            category: Category::Barrier,
                            label: desc.label,
                            start: begin.duration_since(self.t0).as_secs_f64(),
                            seconds: begin.elapsed().as_secs_f64(),
                        });
                    }
                    Action::None => {}
                }
            }
            if lanes.len() > 1 {
                // Collective rendezvous: announce arrival, then either run
                // it (leader, after full quiescence) or wait for the leader.
                self.arrivals[id].fetch_add(1, Ordering::SeqCst);
                self.notify();
                if gpu == leader {
                    let all = lanes.len();
                    if !self.timed_wait(gpu, stream, desc, spans, || {
                        self.arrivals[id].load(Ordering::SeqCst) == all && self.waits_satisfied(id)
                    }) {
                        return;
                    }
                    if !self.run_body(id, gpu, stream, desc, spans) {
                        return;
                    }
                    self.mark_done(id);
                } else if !self
                    .timed_wait(gpu, stream, desc, spans, || self.done[id].load(Ordering::SeqCst))
                {
                    return;
                }
            } else {
                if !self.timed_wait(gpu, stream, desc, spans, || self.waits_satisfied(id)) {
                    return;
                }
                if !self.run_body(id, gpu, stream, desc, spans) {
                    return;
                }
                self.mark_done(id);
            }
        }
    }

    /// Execute the body of `id` (if any) under panic capture and timing.
    /// Returns false when the run is now failed.
    fn run_body(
        &self,
        id: OpId,
        gpu: usize,
        stream: usize,
        desc: &OpDesc,
        spans: &mut Vec<WallSpan>,
    ) -> bool {
        let body =
            self.records[id].lock().unwrap_or_else(|e| e.into_inner()).take().and_then(|r| r.body);
        let Some(body) = body else { return true };
        let label = desc.label;
        let begin = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| body(self.ctx)));
        let seconds = begin.elapsed().as_secs_f64();
        match r {
            Ok(()) => {
                let start = begin.duration_since(self.t0).as_secs_f64();
                spans.push(WallSpan {
                    gpu,
                    stream,
                    category: desc.category,
                    label,
                    start,
                    seconds,
                });
                true
            }
            Err(payload) => {
                self.fail(gpu, label, payload);
                false
            }
        }
    }
}

/// Really execute `sched` against `ctx` with one worker thread per GPU,
/// consulting `inj` at every per-worker dispatch before its op.
///
/// Numerics are bit-identical to `sched.run(ctx)`: each worker replays
/// its GPU's slice of the simulator's deterministic completion order, and
/// all cross-GPU orderings that matter are dependency edges or collective
/// barriers, enforced here with real synchronization.
///
/// * [`Action::Pause`] deschedules the worker for the given duration; the
///   blocked time is recorded as a [`Category::Barrier`] wall span.
/// * [`Action::Kill`] terminates the worker with a tagged
///   `"injected worker death"` error; the failed flag releases all other
///   workers (including peers blocked mid-rendezvous), so the run fails in
///   bounded time instead of hanging.
///
/// With [`Injector::none`] the hooks cost one branch per dispatch and
/// inject nothing.
pub fn execute<Ctx: Sync>(
    sched: Schedule<Ctx>,
    ctx: &Ctx,
    inj: &Injector,
) -> Result<ExecReport, ExecError> {
    // Static pre-flight before any worker starts: a schedule with a
    // dependency cycle would hang the barriers, one with an unordered
    // buffer conflict would corrupt data non-deterministically under real
    // threads, and one reading a never-initialized scratch buffer would
    // consume allocator garbage. All are cheap to prove absent on the
    // recorded op DAG.
    if let Err(message) = mggcn_analyze::preflight(&sched) {
        return Err(ExecError { gpu: 0, label: "preflight", message });
    }
    let gpu_count = sched.machine().gpu_count();
    let SimOutcome { report, completion_order } = sched.simulate();
    let records = sched.into_records();

    let meta: Vec<OpMeta> =
        records.iter().map(|r| (r.desc, r.lanes.clone(), r.waits.clone())).collect();
    let n_ops = records.len();

    // Per-GPU worklists: the global completion order restricted to each
    // GPU's lanes (collectives appear in every participant's list).
    let mut worklists: Vec<Vec<OpId>> = vec![Vec::new(); gpu_count];
    for &id in &completion_order {
        for &(g, _) in &meta[id].1 {
            worklists[g].push(id);
        }
    }

    let shared = Shared {
        records: records.into_iter().map(|r| Mutex::new(Some(r))).collect(),
        meta,
        done: (0..n_ops).map(|_| AtomicBool::new(false)).collect(),
        arrivals: (0..n_ops).map(|_| AtomicUsize::new(0)).collect(),
        failed: AtomicBool::new(false),
        error: Mutex::new(None),
        gate: Mutex::new(()),
        cv: Condvar::new(),
        ctx,
        t0: Instant::now(),
        inj,
    };

    let start = shared.t0;
    let mut all_spans: Vec<Vec<WallSpan>> = Vec::with_capacity(gpu_count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = worklists
            .iter()
            .enumerate()
            .map(|(gpu, work)| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut spans = Vec::with_capacity(work.len());
                    shared.worker(gpu, work, &mut spans);
                    spans
                })
            })
            .collect();
        for h in handles {
            // A worker thread itself cannot panic — bodies are caught —
            // but stay defensive about the join.
            match h.join() {
                Ok(spans) => all_spans.push(spans),
                Err(payload) => shared.fail(usize::MAX, "worker", payload),
            }
        }
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    if let Some(err) = shared.error.into_inner().unwrap_or_else(|e| e.into_inner()) {
        return Err(err);
    }
    let spans: Vec<WallSpan> = all_spans.into_iter().flatten().collect();
    let bodies_run = spans.iter().filter(|s| s.category != Category::Barrier).count();
    Ok(ExecReport { sim: report, wall_seconds, spans, bodies_run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mggcn_gpusim::engine::OpDesc;
    use mggcn_gpusim::{GpuSpec, MachineSpec, Work};
    use std::sync::atomic::AtomicU64;

    fn machine(n: usize) -> MachineSpec {
        let mut m = MachineSpec::uniform("exec-test", GpuSpec::v100(), n, 6, 25.0e9);
        m.comm_latency = 0.0;
        m
    }

    fn fixed() -> Work {
        Work::Fixed { seconds: 1e-6 }
    }

    #[test]
    fn bodies_run_exactly_once_and_in_dependency_order() {
        // GPU-local chains plus a cross-GPU wait; log (gpu, step) pairs.
        let log: Mutex<Vec<(usize, u32)>> = Mutex::new(Vec::new());
        let mut s: Schedule<Mutex<Vec<(usize, u32)>>> = Schedule::new(machine(2));
        let mut last = None;
        for step in 0..3u32 {
            for gpu in 0..2usize {
                let waits: Vec<OpId> = last.into_iter().collect();
                last = Some(s.launch(
                    gpu,
                    0,
                    fixed(),
                    OpDesc::new(Category::Other, "step"),
                    &waits,
                    Some(Box::new(move |l: &Mutex<Vec<(usize, u32)>>| {
                        l.lock().unwrap().push((gpu, step))
                    })),
                ));
            }
        }
        let r = execute(s, &log, &Injector::none()).expect("no panic");
        assert_eq!(r.bodies_run, 6);
        let got = log.into_inner().unwrap();
        assert_eq!(got.len(), 6);
        // The zig-zag waits serialize everything globally.
        let expect: Vec<(usize, u32)> =
            (0..3u32).flat_map(|s| (0..2usize).map(move |g| (g, s))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn collective_barrier_sees_all_prior_writes() {
        // Each GPU writes its slot, then an all-lane collective sums them.
        // The leader must observe every participant's write.
        struct Ctx {
            slots: Vec<AtomicU64>,
            total: AtomicU64,
        }
        let p = 4;
        let ctx =
            Ctx { slots: (0..p).map(|_| AtomicU64::new(0)).collect(), total: AtomicU64::new(0) };
        let mut s: Schedule<Ctx> = Schedule::new(machine(p));
        for g in 0..p {
            s.launch(
                g,
                0,
                fixed(),
                OpDesc::new(Category::Other, "write"),
                &[],
                Some(Box::new(move |c: &Ctx| {
                    c.slots[g].store((g as u64 + 1) * 10, Ordering::SeqCst)
                })),
            );
        }
        let lanes: Vec<(usize, usize)> = (0..p).map(|g| (g, 1)).collect();
        s.collective(
            &lanes,
            1.0e6,
            25.0e9,
            OpDesc::new(Category::Comm, "sum"),
            &[],
            Some(Box::new(|c: &Ctx| {
                let t: u64 = c.slots.iter().map(|s| s.load(Ordering::SeqCst)).sum();
                c.total.store(t, Ordering::SeqCst);
            })),
        );
        // After the barrier, every GPU doubles its own slot — must not race
        // with the collective read.
        for g in 0..p {
            // The collective is op index p.
            s.launch(
                g,
                0,
                fixed(),
                OpDesc::new(Category::Other, "after"),
                &[p],
                Some(Box::new(move |c: &Ctx| {
                    c.slots[g].fetch_add(1, Ordering::SeqCst);
                })),
            );
        }
        let r = execute(s, &ctx, &Injector::none()).expect("no panic");
        assert_eq!(ctx.total.load(Ordering::SeqCst), 10 + 20 + 30 + 40);
        assert_eq!(r.bodies_run, 2 * p + 1);
    }

    #[test]
    fn panic_in_body_returns_err_without_hanging() {
        let p = 4;
        let ctx = ();
        let mut s: Schedule<()> = Schedule::new(machine(p));
        for g in 0..p {
            s.launch(
                g,
                0,
                fixed(),
                OpDesc::new(Category::Other, "pre"),
                &[],
                Some(Box::new(move |_: &()| {
                    if g == 2 {
                        panic!("device 2 exploded");
                    }
                })),
            );
        }
        // A collective behind the panicking op: its barrier must not hang.
        let lanes: Vec<(usize, usize)> = (0..p).map(|g| (g, 0)).collect();
        s.collective(&lanes, 1.0e6, 25.0e9, OpDesc::new(Category::Comm, "barrier"), &[], None);
        let start = Instant::now();
        let err = execute(s, &ctx, &Injector::none()).expect_err("must fail");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded-time failure");
        assert_eq!(err.gpu, 2);
        assert!(err.message.contains("device 2 exploded"), "{err}");
    }

    #[test]
    fn wall_spans_cover_executed_bodies() {
        let ctx = ();
        let mut s: Schedule<()> = Schedule::new(machine(2));
        for g in 0..2 {
            s.launch(
                g,
                0,
                fixed(),
                OpDesc::new(Category::GeMM, "work"),
                &[],
                Some(Box::new(|_: &()| std::thread::sleep(Duration::from_millis(2)))),
            );
        }
        let r = execute(s, &ctx, &Injector::none()).expect("ok");
        assert_eq!(r.bodies_run, 2);
        let body_spans = r.spans.iter().filter(|s| s.category != Category::Barrier).count();
        assert_eq!(body_spans, 2);
        let cats = r.category_wall_seconds();
        assert!(cats[&Category::GeMM] >= 0.004 * 0.5, "timed sleeps: {cats:?}");
        assert!(r.wall_seconds > 0.0);
        assert!(r.sim.makespan > 0.0);
        for s in &r.spans {
            assert!(s.start >= 0.0 && s.end() <= r.wall_seconds + 1e-3, "{s:?}");
        }
    }

    /// Regression for the measured-profile accounting: time a worker spends
    /// blocked (dependency waits, rendezvous) must land in the `Barrier`
    /// category — not inside the waiting op's own category — and per-GPU
    /// category sums must account for the whole epoch wall time up to
    /// scheduling slack.
    #[test]
    fn wait_time_lands_in_barrier_category() {
        let ctx = ();
        let mut s: Schedule<()> = Schedule::new(machine(2));
        // GPU 0 works for ~40ms; GPU 1's only op depends on it, so GPU 1
        // spends those 40ms blocked.
        let a = s.launch(
            0,
            0,
            fixed(),
            OpDesc::new(Category::GeMM, "long"),
            &[],
            Some(Box::new(|_: &()| std::thread::sleep(Duration::from_millis(40)))),
        );
        s.launch(
            1,
            0,
            fixed(),
            OpDesc::new(Category::GeMM, "short"),
            &[a],
            Some(Box::new(|_: &()| std::thread::sleep(Duration::from_millis(2)))),
        );
        let r = execute(s, &ctx, &Injector::none()).expect("ok");

        // GPU 1's blocked time is barrier, not GeMM.
        let gpu1_barrier: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::Barrier)
            .map(|s| s.seconds)
            .sum();
        let gpu1_gemm: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::GeMM)
            .map(|s| s.seconds)
            .sum();
        assert!(gpu1_barrier >= 0.020, "wait not attributed to barrier: {gpu1_barrier}");
        assert!(gpu1_gemm < 0.020, "wait double-counted into GeMM: {gpu1_gemm}");

        // Per-GPU category sums ≈ wall time (generous slack for spawn and
        // scheduler jitter on loaded CI machines).
        for gpu in 0..2 {
            let sum: f64 = r.spans.iter().filter(|s| s.gpu == gpu).map(|s| s.seconds).sum();
            assert!(
                sum <= r.wall_seconds + 1e-3,
                "gpu {gpu} category sum {sum} exceeds wall {}",
                r.wall_seconds
            );
            assert!(
                sum >= 0.5 * r.wall_seconds,
                "gpu {gpu} category sum {sum} far below wall {}",
                r.wall_seconds
            );
        }
    }

    /// Companion regression to `wait_time_lands_in_barrier_category` for
    /// *injected* pauses: a chaos-plan preemption deschedules the worker
    /// before its op, and that blocked time must be attributed to the
    /// reserved `Barrier` category — never folded into the op's own
    /// category — while results stay identical to the fault-free run.
    #[test]
    fn injected_pause_lands_in_barrier_category() {
        use mggcn_sched::{FaultPlan, PauseAt};
        let ctx = Mutex::new(Vec::new());
        let mk = || {
            let mut s: Schedule<Mutex<Vec<usize>>> = Schedule::new(machine(2));
            for g in 0..2usize {
                s.launch(
                    g,
                    0,
                    fixed(),
                    OpDesc::new(Category::GeMM, "work"),
                    &[],
                    Some(Box::new(move |l: &Mutex<Vec<usize>>| l.lock().unwrap().push(g))),
                );
            }
            s
        };
        // Pause GPU 1 for 30ms before its first (and only) dispatch.
        let plan = FaultPlan {
            pauses: vec![PauseAt { gpu: 1, seq: 0, seconds: 0.030 }],
            ..FaultPlan::none()
        };
        let inj = Injector::new(plan);
        let r = execute(mk(), &ctx, &inj).expect("pauses are recoverable");
        assert_eq!(r.bodies_run, 2, "both bodies still run");
        assert_eq!(inj.fired().len(), 1, "the pause fired");

        let gpu1_barrier: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::Barrier)
            .map(|s| s.seconds)
            .sum();
        let gpu1_gemm: f64 = r
            .spans
            .iter()
            .filter(|s| s.gpu == 1 && s.category == Category::GeMM)
            .map(|s| s.seconds)
            .sum();
        assert!(gpu1_barrier >= 0.025, "pause not attributed to Barrier: {gpu1_barrier}");
        assert!(gpu1_gemm < 0.025, "pause leaked into the op's category: {gpu1_gemm}");

        // No silent corruption: same writes as a fault-free run (order may
        // legitimately differ across GPUs — both ops are independent).
        let mut got = std::mem::take(&mut *ctx.lock().unwrap());
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    /// Injected worker death must fail the run in bounded time with a
    /// tagged error — even when peers are blocked mid-rendezvous on a
    /// collective the dead worker never reaches.
    #[test]
    fn injected_death_mid_collective_fails_bounded_and_tagged() {
        use mggcn_sched::{FaultPlan, Kill};
        let p = 4;
        let mut s: Schedule<()> = Schedule::new(machine(p));
        let lanes: Vec<(usize, usize)> = (0..p).map(|g| (g, 0)).collect();
        s.collective(&lanes, 1.0e6, 25.0e9, OpDesc::new(Category::Comm, "allreduce"), &[], None);
        // Kill GPU 2 at its first dispatch — the collective itself, so the
        // other three participants are already arriving at the rendezvous.
        let plan = FaultPlan { kills: vec![Kill { gpu: 2, seq: 0 }], ..FaultPlan::none() };
        let inj = Injector::new(plan);
        let start = Instant::now();
        let err = execute(s, &(), &inj).expect_err("death must fail the run");
        assert!(start.elapsed() < Duration::from_secs(10), "bounded-time failure");
        assert_eq!(err.gpu, 2);
        assert!(err.message.contains("injected worker death"), "untagged error: {err}");
    }

    /// A schedule whose declared effects conflict without an ordering edge
    /// must be rejected before any worker thread (or body) starts.
    #[test]
    fn preflight_rejects_unordered_buffer_conflict() {
        use mggcn_gpusim::{BufId, Effects};
        let ran = AtomicBool::new(false);
        let mut s: Schedule<AtomicBool> = Schedule::new(machine(1));
        let buf = BufId::new(0, "HW");
        s.launch_fx(
            0,
            0,
            fixed(),
            OpDesc::new(Category::GeMM, "writer"),
            &[],
            Effects::none().writes([buf]),
            Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst))),
        );
        s.launch_fx(
            0,
            1,
            fixed(),
            OpDesc::new(Category::SpMM, "reader"),
            &[],
            Effects::none().reads([buf]),
            Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst))),
        );
        let err = execute(s, &ran, &Injector::none()).expect_err("hazardous schedule accepted");
        assert_eq!(err.label, "preflight");
        assert!(err.message.contains("RAW hazard"), "unexpected message: {}", err.message);
        assert!(!ran.load(Ordering::SeqCst), "a body ran despite preflight failure");
    }

    /// The def-use pass rides along in preflight: a schedule reading a
    /// scratch-family buffer nothing ever wrote is rejected before any
    /// worker thread (or body) starts.
    #[test]
    fn preflight_rejects_uninitialized_scratch_read() {
        use mggcn_gpusim::{BufId, Effects};
        let ran = AtomicBool::new(false);
        let mut s: Schedule<AtomicBool> = Schedule::new(machine(1));
        s.launch_fx(
            0,
            0,
            fixed(),
            OpDesc::new(Category::SpMM, "reader"),
            &[],
            Effects::none().reads([BufId::new(0, "BC1")]),
            Some(Box::new(|r: &AtomicBool| r.store(true, Ordering::SeqCst))),
        );
        let err = execute(s, &ran, &Injector::none()).expect_err("uninitialized read accepted");
        assert_eq!(err.label, "preflight");
        assert!(err.message.contains("uninitialized read"), "unexpected message: {}", err.message);
        assert!(!ran.load(Ordering::SeqCst), "a body ran despite preflight failure");
    }
}
