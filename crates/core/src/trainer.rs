//! The MG-GCN trainer: schedule construction and the epoch loop.
//!
//! One training epoch is issued exactly as §4 describes:
//!
//! * **Forward, per layer** (eqs. 5–7): a local GeMM (`HW = H·W`), then the
//!   staged distributed SpMM — `P` rounds, round `s` broadcasting GPU `s`'s
//!   tile of the dense operand into the double-buffered `BC1`/`BC2` and
//!   every GPU `j` accumulating `A^{js}·BC` into its result — then ReLU in
//!   place. When `d(l) < d(l+1)` and the §4.4 flag is set, the SpMM runs
//!   first on the narrower operand.
//! * **Loss** (§6 Model): masked softmax cross-entropy, gradient written
//!   over the logits in the last `AHW` buffer.
//! * **Backward, per layer** (eqs. 8–11): ReLU backward merging the
//!   incoming gradient over the saved activation, a staged SpMM with `Â`,
//!   the weight-gradient GeMM, a gradient all-reduce, the input-gradient
//!   GeMM, and Adam. Layer 0's backward SpMM is skipped under the §4.4
//!   flag.
//!
//! With `overlap` on, broadcasts live on stream 1 and the engine enforces
//! the paper's §4.3 dependency pattern: `spmm(s)` waits on `bcast(s)`, and
//! `bcast(s)` waits on the previous reader of its double buffer
//! (`spmm(s-2)` on every GPU).

use crate::config::{GcnConfig, Partition, TrainOptions};
use crate::loss::softmax_xent_inplace;
use crate::memplan::MemoryPlan;
use crate::metrics::{EpochReport, MeasuredEpoch};
use crate::optimizer::{adam_step, AdamParams};
use crate::problem::{Problem, RealData};
use crate::state::{BcSlot, DeviceState, GpuState};
use mggcn_dense::{gemm, gemm_a_bt, gemm_at_b, relu_inplace, Accumulate, Dense};
use mggcn_exec::Backend;
use mggcn_gpusim::engine::{Body, OpDesc};
use mggcn_gpusim::sched::Injector;
use mggcn_gpusim::{
    BufId, Category, Effects, OomError, OpId, RunReport, Schedule, StaleRead, Timeline,
};
use mggcn_sparse::spmm;
use std::sync::Arc;

/// Training failed at runtime (only possible on [`Backend::Threaded`],
/// where a worker's kernel body may panic; the simulated backend runs
/// bodies on the calling thread and propagates panics directly).
#[derive(Clone, Debug)]
pub enum TrainError {
    /// A worker thread panicked while executing an op body. The trainer's
    /// device state may be partially written; restore from a checkpoint
    /// before continuing.
    Exec(mggcn_exec::ExecError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Exec(e) => write!(f, "threaded execution failed: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Which logical buffer a schedule step reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Buf {
    /// The input feature shard.
    X,
    /// The shared GeMM↔SpMM temporary.
    Hw,
    /// Layer `l`'s result buffer.
    Ahw(usize),
}

fn read_buf(g: &GpuState, b: Buf) -> &Dense {
    g.note_read(buf_id(g.index(), b));
    match b {
        Buf::X => &g.x,
        Buf::Hw => &g.hw,
        Buf::Ahw(l) => &g.ahw[l],
    }
}

/// The logical-buffer id a [`Buf`] denotes on GPU `g`, for the declared
/// effect sets `mggcn-analyze` verifies. Names match §4.2's inventory.
fn buf_id(g: usize, b: Buf) -> BufId {
    match b {
        Buf::X => BufId::new(g, "X"),
        Buf::Hw => BufId::new(g, "HW"),
        Buf::Ahw(l) => BufId::indexed(g, "AHW", l),
    }
}

/// The broadcast double buffer `slot_idx` selects on GPU `g`.
fn bc_id(g: usize, slot_idx: usize) -> BufId {
    BufId::new(g, if slot_idx == 0 { "BC1" } else { "BC2" })
}

/// The 1.5D replicated-partial buffer on GPU `g`.
fn rp_id(g: usize) -> BufId {
    BufId::new(g, "RP")
}

/// Layer `l`'s bounded-staleness snapshot buffer on GPU `g` (DESIGN §15).
fn sf_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "SF", l)
}

/// Layer `l`'s weights on GPU `g`.
fn w_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "W", l)
}

/// Layer `l`'s weight-gradient buffer on GPU `g`.
fn wg_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "WG", l)
}

/// Layer `l`'s Adam moment state on GPU `g`.
fn adam_id(g: usize, l: usize) -> BufId {
    BufId::indexed(g, "ADAM", l)
}

/// SpMM direction: forward uses `Âᵀ` tiles, backward `Â` tiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    Fwd,
    Bwd,
}

/// What a bounded-staleness forward broadcast reads instead of the live
/// layer input (DESIGN §15). Carrying no dependency on the current epoch's
/// producers is exactly what lets the engine issue the broadcast during the
/// previous epoch's backward pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PrefetchSrc {
    /// The source tile is the constant input features `X`: prefetching is
    /// exact (no snapshot, no staleness declaration needed).
    Const,
    /// Layer `layer`'s snapshot buffer `SF`, `age` epochs stale.
    Snapshot { layer: usize, age: usize },
}

/// Number of per-GPU snapshot (`SF`) big buffers a bounded-staleness run
/// needs: one per layer whose broadcast source is not the constant input
/// features (layer 0 under the §4.4 spmm-first order broadcasts `X`
/// itself, which never goes stale). Zero when `staleness == 0` — the
/// memory plan and the `L + 3` liveness bound are untouched.
pub fn sf_buffer_count(cfg: &GcnConfig, opts: &TrainOptions) -> usize {
    if opts.staleness == 0 {
        return 0;
    }
    (0..cfg.layers())
        .filter(|&l| !(l == 0 && opts.op_order_opt && cfg.d_in(0) < cfg.d_out(0)))
        .count()
}

/// The MG-GCN multi-GPU trainer.
pub struct Trainer {
    cfg: GcnConfig,
    opts: TrainOptions,
    problem: Problem,
    state: DeviceState,
    epoch: usize,
    /// Epoch of the most recent `SF` snapshot, `None` until one exists
    /// (fresh trainer, or right after a checkpoint restore — snapshots are
    /// scratch, not checkpointed, so the first post-restore epoch trains
    /// fully fresh). Only meaningful when `opts.staleness >= 1`.
    sf_epoch: Option<usize>,
    plan: MemoryPlan,
    /// Observation-only tracer; `None` (the default) records nothing and
    /// costs nothing. Ingestion happens strictly after a schedule has run,
    /// so enabling it cannot perturb numerics or op ordering.
    tracer: Option<Arc<mggcn_trace::Tracer>>,
}

impl Trainer {
    /// Validate memory, allocate device state (when the problem is
    /// materialized), and get ready to train.
    pub fn new(problem: Problem, cfg: GcnConfig, opts: TrainOptions) -> Result<Self, OomError> {
        let m_total: u64 = problem.fwd_nnz.iter().sum();
        let plan = match opts.partition {
            Partition::OneD => MemoryPlan::new(
                problem.n as u64,
                m_total,
                &cfg,
                opts.gpus as u64,
                opts.buffer_policy,
            ),
            Partition::OneFiveD => {
                assert!(
                    opts.gpus >= 2 && opts.gpus.is_multiple_of(2),
                    "1.5D partitioning needs an even GPU count >= 2, got {}",
                    opts.gpus
                );
                MemoryPlan::new_15d(
                    problem.n as u64,
                    m_total,
                    &cfg,
                    opts.gpus as u64,
                    opts.buffer_policy,
                )
            }
        };
        let plan = if opts.staleness > 0 {
            let sf = sf_buffer_count(&cfg, &opts) as u64;
            plan.with_staleness(problem.n as u64, opts.gpus as u64, &cfg, sf)
        } else {
            plan
        };
        let capacity = opts.machine.gpus[0].mem_bytes;
        if !plan.fits(capacity) {
            return Err(OomError {
                gpu: 0,
                requested: plan.total(),
                in_use: 0,
                capacity,
                tag: format!("{} epoch working set", problem.name),
            });
        }
        let state = if problem.is_materialized() {
            DeviceState::for_problem(&problem, &cfg)
        } else {
            DeviceState::empty()
        };
        Ok(Self { cfg, opts, problem, state, epoch: 0, sf_epoch: None, plan, tracer: None })
    }

    /// Attach a tracer. Every subsequent epoch/evaluation ingests its
    /// simulated timeline, measured wall spans (threaded backend), and
    /// per-GPU big-buffer high-watermarks into it.
    pub fn set_tracer(&mut self, tracer: Arc<mggcn_trace::Tracer>) {
        tracer.set_memory_bound(self.plan.big_buffers);
        self.tracer = Some(tracer);
    }

    /// Planned per-GPU memory (bytes) — the Fig 12 quantity.
    pub fn memory_per_gpu(&self) -> u64 {
        self.plan.total()
    }

    /// The analytic per-GPU memory plan this trainer was admitted under.
    pub fn plan(&self) -> &MemoryPlan {
        &self.plan
    }

    pub fn options(&self) -> &TrainOptions {
        &self.opts
    }

    pub fn config(&self) -> &GcnConfig {
        &self.cfg
    }

    pub fn state(&self) -> &DeviceState {
        &self.state
    }

    /// Number of epochs trained so far.
    pub fn epochs_trained(&self) -> usize {
        self.epoch
    }

    /// Restore weights, Adam moments and the epoch counter from a
    /// checkpoint. Every GPU replica receives the same state, preserving
    /// the lockstep invariant. Errors on shape mismatch.
    pub fn restore(&mut self, ck: &crate::checkpoint::Checkpoint) -> Result<(), String> {
        if ck.weights.len() != self.cfg.layers() {
            return Err(format!(
                "checkpoint has {} layers, model has {}",
                ck.weights.len(),
                self.cfg.layers()
            ));
        }
        for (l, w) in ck.weights.iter().enumerate() {
            if (w.rows(), w.cols()) != (self.cfg.d_in(l), self.cfg.d_out(l)) {
                return Err(format!(
                    "layer {l}: checkpoint {}x{} vs model {}x{}",
                    w.rows(),
                    w.cols(),
                    self.cfg.d_in(l),
                    self.cfg.d_out(l)
                ));
            }
        }
        for i in 0..self.state.gpu_count() {
            let mut g = self.state.gpu(i);
            g.weights = ck.weights.clone();
            g.adam_m = ck.adam_m.clone();
            g.adam_v = ck.adam_v.clone();
        }
        self.epoch = ck.epoch as usize;
        self.sf_epoch = None;
        Ok(())
    }

    /// Run one full-batch epoch (forward, loss, backward, Adam) and report.
    ///
    /// On [`Backend::Simulated`] this cannot fail. On
    /// [`Backend::Threaded`] the schedule really executes on
    /// worker-per-GPU threads; a panicking kernel body surfaces as
    /// [`TrainError::Exec`] (never a hang), and the report carries the
    /// measured wall-clock profile in [`EpochReport::measured`].
    pub fn train_epoch(&mut self) -> Result<EpochReport, TrainError> {
        if self.opts.staleness > 0 {
            // One-epoch pipelined schedule: numerically identical to the
            // fused multi-epoch build because snapshot ages and cadence are
            // functions of the absolute epoch counter, and `SF` persists in
            // device state between calls.
            return self.train_pipelined(1).map(|mut v| v.pop().expect("one epoch"));
        }
        let sched = self.build_epoch();
        self.state.reset_scratch();
        let (run, measured) = self.dispatch(sched)?;
        let (train_acc, test_acc) = self.state.accuracy();
        let report = EpochReport {
            epoch: self.epoch,
            sim_seconds: run.makespan + self.opts.epoch_host_overhead,
            loss: self.state.total_loss(),
            train_acc,
            test_acc,
            timeline: run.timeline,
            measured,
        };
        self.epoch += 1;
        Ok(report)
    }

    /// Run a built schedule on the configured backend.
    fn dispatch(
        &self,
        sched: Schedule<DeviceState>,
    ) -> Result<(RunReport, Option<MeasuredEpoch>), TrainError> {
        let (run, measured) = match self.opts.backend {
            Backend::Simulated => (sched.run(&self.state), None),
            Backend::Threaded => {
                let r = mggcn_exec::execute(sched, &self.state, &Injector::none())
                    .map_err(TrainError::Exec)?;
                if let Some(tracer) = &self.tracer {
                    tracer.ingest_wall_spans(&r.spans, r.wall_seconds);
                }
                let measured = MeasuredEpoch {
                    wall_seconds: r.wall_seconds,
                    category_seconds: r.category_wall_seconds(),
                    bodies_run: r.bodies_run,
                };
                (r.sim, Some(measured))
            }
        };
        if let Some(tracer) = &self.tracer {
            tracer.ingest_sim_timeline_on(&run.timeline, run.makespan, &self.opts.machine);
            for g in 0..self.state.gpu_count() {
                tracer.record_memory(g, self.state.big_buffer_bytes(g));
            }
        }
        Ok((run, measured))
    }

    /// Train `epochs` epochs, returning every report. With
    /// `--staleness >= 1` all epochs are recorded into ONE fused,
    /// epoch-tagged schedule so epoch `e + 1`'s prefetch broadcasts really
    /// issue during epoch `e`'s backward pass (DESIGN §15).
    pub fn train(&mut self, epochs: usize) -> Result<Vec<EpochReport>, TrainError> {
        if self.opts.staleness == 0 || epochs == 0 {
            (0..epochs).map(|_| self.train_epoch()).collect()
        } else {
            self.train_pipelined(epochs)
        }
    }

    /// Record `epochs` consecutive training epochs into one fused schedule
    /// (DESIGN §15): every op carries its epoch tag, remote forward
    /// broadcasts read the bounded-staleness `SF` snapshots, and prefetch
    /// broadcasts ride a dedicated stream past the comm lane. Returns the
    /// schedule plus the epoch of the last snapshot taken (the trainer's
    /// `sf_epoch` after a run).
    fn build_pipelined(&self, epochs: usize) -> (Schedule<DeviceState>, Option<usize>) {
        let k = self.opts.staleness;
        assert!(k >= 1, "pipelined schedules need staleness >= 1");
        assert!(epochs >= 1, "pipelined schedules need at least one epoch");
        let mut b = EpochBuilder::new(&self.cfg, &self.opts, &self.problem, self.epoch);
        let mut last_snap = self.sf_epoch;
        for e in self.epoch..self.epoch + epochs {
            // Snapshot cadence: refresh `SF` whenever the current snapshot
            // would otherwise exceed age `k`, so every stale read has age
            // in `1..=k`. The very first epoch (no snapshot yet) trains
            // fully fresh and seeds `SF`.
            let sf_age = last_snap.map(|s| e - s);
            let snap = last_snap.is_none_or(|s| e - s >= k);
            b.begin_epoch(e, sf_age, snap);
            b.forward();
            b.loss();
            b.backward();
            if snap {
                last_snap = Some(e);
            }
        }
        (b.sched, last_snap)
    }

    /// A fused `epochs`-epoch bounded-staleness schedule, recorded but not
    /// run — the epoch-tagged input `mggcn-analyze` verifies (every stale
    /// read declared with its true age) and the conformance suites mutate.
    /// Requires `staleness >= 1`.
    pub fn pipelined_schedule(&self, epochs: usize) -> Schedule<DeviceState> {
        self.build_pipelined(epochs).0
    }

    /// Run a fused bounded-staleness schedule and split the single run
    /// report back into per-epoch reports using the span epoch tags.
    fn train_pipelined(&mut self, epochs: usize) -> Result<Vec<EpochReport>, TrainError> {
        let base = self.epoch;
        let (sched, sf_epoch) = self.build_pipelined(epochs);
        self.state.reset_scratch();
        let (run, mut measured) = self.dispatch(sched)?;
        self.sf_epoch = sf_epoch;
        self.epoch = base + epochs;
        let stats: Vec<Vec<crate::state::EpochStats>> =
            (0..self.state.gpu_count()).map(|g| self.state.gpu(g).epoch_stats.clone()).collect();
        let mut reports = Vec::with_capacity(epochs);
        let mut prev_boundary = 0.0f64;
        for i in 0..epochs {
            let e = base + i;
            // Epoch e ends when its last tagged span ends. Epoch e + 1's
            // prefetch spans are tagged e + 1, so time they overlap into
            // epoch e's backward is — correctly — not billed to epoch e.
            let boundary = run
                .timeline
                .spans
                .iter()
                .filter(|s| s.epoch.is_some_and(|se| se <= e))
                .map(|s| s.end)
                .fold(prev_boundary, f64::max);
            let mut timeline = Timeline::default();
            timeline
                .spans
                .extend(run.timeline.spans.iter().filter(|s| s.epoch == Some(e)).cloned());
            let (mut loss, mut tc, mut tt, mut ec, mut et) = (0.0f64, 0usize, 0, 0, 0);
            for per_gpu in &stats {
                if let Some(&(ls, a, b, c, d)) = per_gpu.get(i) {
                    loss += ls;
                    tc += a;
                    tt += b;
                    ec += c;
                    et += d;
                }
            }
            reports.push(EpochReport {
                epoch: e,
                sim_seconds: boundary - prev_boundary + self.opts.epoch_host_overhead,
                loss,
                train_acc: if tt == 0 { 0.0 } else { tc as f64 / tt as f64 },
                test_acc: if et == 0 { 0.0 } else { ec as f64 / et as f64 },
                timeline,
                measured: if i + 1 == epochs { measured.take() } else { None },
            });
            prev_boundary = boundary;
        }
        Ok(reports)
    }

    /// Forward pass + loss only — inference. Weights are untouched (the
    /// loss kernel overwrites the logits buffer with gradients, but no
    /// backward step consumes them). Reports loss/accuracy and the
    /// simulated inference time; does not advance the epoch counter.
    pub fn evaluate(&mut self) -> Result<EpochReport, TrainError> {
        let mut b = EpochBuilder::new(&self.cfg, &self.opts, &self.problem, self.epoch);
        b.forward();
        b.loss();
        let sched = b.sched;
        self.state.reset_scratch();
        let (run, measured) = self.dispatch(sched)?;
        let (train_acc, test_acc) = self.state.accuracy();
        Ok(EpochReport {
            epoch: self.epoch,
            sim_seconds: run.makespan + self.opts.epoch_host_overhead,
            loss: self.state.total_loss(),
            train_acc,
            test_acc,
            timeline: run.timeline,
            measured,
        })
    }

    /// Run forward + loss + backward (all-reduce included, Adam excluded)
    /// and return the per-layer weight gradients from GPU 0's replica.
    /// Weights, Adam moments and the epoch counter are untouched, so this
    /// is the conformance hook for differential gradient checking: the
    /// result is exactly the global gradient `Σ_g X_gᵀ·HW_G` the next Adam
    /// step would consume. Panics on a timing-only (non-materialized)
    /// problem.
    pub fn compute_gradients(&mut self) -> Vec<Dense> {
        assert!(self.problem.is_materialized(), "compute_gradients needs a materialized problem");
        let mut b = EpochBuilder::new(&self.cfg, &self.opts, &self.problem, self.epoch);
        b.forward();
        b.loss();
        b.backward_ops(false);
        let sched = b.sched;
        self.state.reset_scratch();
        sched.run(&self.state);
        self.state.gpu(0).wgrad.clone()
    }

    /// Deterministic textual dump of one epoch's schedule (structure only:
    /// op order, lanes, dependency edges, declared buffer effects) — the
    /// golden-snapshot hook.
    pub fn epoch_schedule_dump(&self) -> String {
        self.build_epoch().dump_ops()
    }

    /// One training epoch's schedule, fully recorded but not run — the
    /// input `mggcn-analyze` verifies (hazards, deadlock-freedom, the
    /// `L + 3` liveness bound) and the mutation harness perturbs.
    pub fn epoch_schedule(&self) -> Schedule<DeviceState> {
        self.build_epoch()
    }

    /// Run `sched`'s bodies against a *fresh* device state under the
    /// shadow effect recorder and return what each op actually read and
    /// wrote (`crate::shadow`) — the effect-soundness oracle's input. The
    /// trainer's own state is untouched, so auditing is side-effect free.
    /// Panics on a timing-only (non-materialized) problem, whose schedules
    /// carry no bodies to observe.
    pub fn record_actual_effects(
        &self,
        sched: Schedule<DeviceState>,
    ) -> Vec<mggcn_gpusim::shadow::ActualEffects> {
        assert!(
            self.problem.is_materialized(),
            "effect audit needs a materialized problem (bodies to observe)"
        );
        crate::shadow::record_actual_effects(sched, &self.problem, &self.cfg)
    }

    /// Execute one epoch schedule's bodies in an explicit linearization
    /// `order` against a fresh, identically-seeded device state and digest
    /// the resulting weight bits — the DPOR model checker's execution
    /// oracle. `mutate` edits the rebuilt schedule first (the mutation
    /// harness deletes a wait edge through it); pass `|_| {}` for the
    /// as-declared schedule. The trainer's own state is untouched.
    pub fn linearization_digest(
        &self,
        mutate: impl FnOnce(&mut Schedule<DeviceState>),
        order: &[OpId],
    ) -> u64 {
        assert!(
            self.problem.is_materialized(),
            "model checking needs a materialized problem (bodies to execute)"
        );
        let mut sched = self.epoch_schedule();
        mutate(&mut sched);
        let fresh = DeviceState::for_problem(&self.problem, &self.cfg);
        sched.run_in_order(&fresh, order);
        fresh.weights_digest()
    }

    /// Closed-form per-stage broadcast bytes for **one** training epoch of
    /// this trainer's schedule — the §5.1 prediction a tracer's
    /// `sim.bcast.bytes.stage.*` counters must match exactly (× epochs).
    pub fn expected_broadcast_bytes(&self) -> Vec<u64> {
        let rows: Vec<usize> = (0..self.opts.gpus).map(|s| self.problem.rows_of(s)).collect();
        if self.opts.partition == Partition::OneFiveD && self.opts.gpus == 2 {
            // Singleton replication groups: every intra-group "broadcast" is
            // a one-lane collective, which the engine models as a zero-byte
            // fixed-latency hop — the traced stage counters see no bytes.
            // At P >= 4 each stage is still broadcast exactly once with the
            // same payload as under 1D, so the 1D closed form applies.
            return vec![0; self.opts.gpus];
        }
        mggcn_comm::analysis::epoch_broadcast_bytes(
            &rows,
            &self.cfg.dims,
            self.opts.op_order_opt,
            self.opts.skip_first_backward_spmm,
        )
    }

    fn build_epoch(&self) -> Schedule<DeviceState> {
        let mut b = EpochBuilder::new(&self.cfg, &self.opts, &self.problem, self.epoch);
        b.forward();
        b.loss();
        b.backward();
        b.sched
    }
}

/// Per-epoch schedule builder.
struct EpochBuilder<'a> {
    sched: Schedule<DeviceState>,
    cfg: &'a GcnConfig,
    opts: &'a TrainOptions,
    problem: &'a Problem,
    real: Option<Arc<RealData>>,
    /// Adam step (1-based) of this epoch.
    t: u64,
    /// Per-GPU op that produced the current layer-input buffer.
    producers: Vec<Option<OpId>>,
    /// Ops that last read each broadcast buffer (WAR guards).
    bc_readers: [Vec<OpId>; 2],
    /// 1.5D: per replication group, the ops that last read each broadcast
    /// slot (the group-local WAR guards — the two groups never share a BC
    /// buffer, so their guard sets are independent).
    bc_readers15: [[Vec<OpId>; 2]; 2],
    /// 1.5D: the cross-group reduction ops of the most recent staged SpMM.
    /// They read *every* GPU's `src` shard, so each GPU's next op must
    /// order after all of them once; lane FIFO carries the edge from there.
    /// Always empty under 1D, so 1D schedules are untouched.
    pending_sync: Vec<OpId>,
    /// Which GPUs have already consumed [`EpochBuilder::pending_sync`].
    sync_taken: Vec<bool>,
    /// `Some(e)` while recording epoch `e` of a fused bounded-staleness
    /// schedule (DESIGN §15); `None` for classic single-epoch builds, which
    /// therefore dump, analyze and run bit-identically to every prior
    /// release.
    epoch_tag: Option<usize>,
    /// Age (epochs) of the `SF` snapshot this epoch's remote forward
    /// broadcasts read; `None` means train fully fresh.
    sf_age: Option<usize>,
    /// Whether this epoch refreshes the `SF` snapshots after its forward
    /// reads them.
    snap_this_epoch: bool,
    /// `sf_writer[l][g]`: the op that last wrote `SF(l)` on GPU `g` (the
    /// RAW guard for stale broadcasts).
    sf_writer: Vec<Vec<Option<OpId>>>,
    /// `sf_reader[l][g]`: the broadcast that last read `SF(l)` rooted at
    /// GPU `g` (the WAR guard for snapshot refreshes).
    sf_reader: Vec<Vec<Option<OpId>>>,
}

impl<'a> EpochBuilder<'a> {
    fn new(cfg: &'a GcnConfig, opts: &'a TrainOptions, problem: &'a Problem, epoch: usize) -> Self {
        let mut sched = Schedule::new(opts.machine.clone());
        sched.launch_overhead = opts.launch_overhead;
        Self {
            sched,
            cfg,
            opts,
            problem,
            real: problem.real.clone(),
            t: epoch as u64 + 1,
            producers: vec![None; opts.gpus],
            bc_readers: [Vec::new(), Vec::new()],
            bc_readers15: [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]],
            pending_sync: Vec::new(),
            sync_taken: vec![false; opts.gpus],
            epoch_tag: None,
            sf_age: None,
            snap_this_epoch: false,
            sf_writer: vec![vec![None; opts.gpus]; cfg.layers()],
            sf_reader: vec![vec![None; opts.gpus]; cfg.layers()],
        }
    }

    /// Start recording epoch `epoch` of a fused bounded-staleness schedule.
    /// Layer-input producers reset (the prefetch paths supply their own
    /// dependencies); the broadcast-buffer WAR chains, the 1.5D pending
    /// sync and the `SF` reader/writer guards deliberately persist — they
    /// carry the cross-epoch ordering that makes every stale read *declared
    /// state* rather than a race.
    fn begin_epoch(&mut self, epoch: usize, sf_age: Option<usize>, snap: bool) {
        self.t = epoch as u64 + 1;
        self.epoch_tag = Some(epoch);
        self.sf_age = sf_age;
        self.snap_this_epoch = snap;
        self.producers = vec![None; self.opts.gpus];
    }

    /// Epoch-tagged [`OpDesc`] (classic builds stay untagged).
    fn mk_desc(&self, cat: Category, label: &'static str) -> OpDesc {
        let d = OpDesc::new(cat, label);
        match self.epoch_tag {
            Some(e) => d.in_epoch(e),
            None => d,
        }
    }

    /// Epoch-tagged staged [`OpDesc`] (classic builds stay untagged).
    fn mk_staged(&self, cat: Category, label: &'static str, stage: usize) -> OpDesc {
        let d = OpDesc::staged(cat, label, stage);
        match self.epoch_tag {
            Some(e) => d.in_epoch(e),
            None => d,
        }
    }

    /// Declare the epoch-carried read of `buf` (weights / Adam moments
    /// written by the previous epoch's optimizer) on fused schedules: that
    /// cross-epoch RAW is the intended age-1 pipeline dependency, not a
    /// hazard. Lane FIFO already orders it; the declaration tells
    /// `mggcn-analyze` it is deliberate.
    fn declare_epoch_carry(&self, fx: Effects, buf: BufId) -> Effects {
        if self.epoch_tag.is_some() {
            fx.stale([StaleRead { buf, age: 1 }])
        } else {
            fx
        }
    }

    /// Whether layer `l`'s forward broadcast needs an `SF` snapshot to go
    /// stale (layer 0 under spmm-first broadcasts the constant `X`).
    fn needs_sf(&self, l: usize) -> bool {
        !(l == 0 && self.opts.op_order_opt && self.cfg.d_in(0) < self.cfg.d_out(0))
    }

    /// The pending cross-group-reduction waits GPU `g` still owes, consumed
    /// exactly once per GPU per staged 1.5D SpMM (subsequent same-lane ops
    /// inherit the ordering through lane FIFO). Empty under 1D.
    fn take_sync(&mut self, g: usize) -> Vec<OpId> {
        if self.sync_taken[g] {
            Vec::new()
        } else {
            self.sync_taken[g] = true;
            self.pending_sync.clone()
        }
    }

    /// Partition dispatch: the paper's 1D broadcast pipeline or the §5.1
    /// 1.5D replicated pipeline. Both return the per-GPU producer of `dst`.
    /// `prefetch` (forward layers of a bounded-staleness epoch only)
    /// replaces the remote broadcast source with snapshot/constant state.
    fn staged(
        &mut self,
        dir: Dir,
        src: Buf,
        dst: Buf,
        d: usize,
        src_producers: Vec<Option<OpId>>,
        prefetch: Option<PrefetchSrc>,
    ) -> Vec<OpId> {
        match self.opts.partition {
            Partition::OneD => self.staged_spmm(dir, src, dst, d, src_producers, prefetch),
            Partition::OneFiveD => self.staged_spmm_15d(dir, src, dst, d, src_producers, prefetch),
        }
    }

    fn p(&self) -> usize {
        self.opts.gpus
    }

    fn gpu_spec(&self, g: usize) -> &mggcn_gpusim::GpuSpec {
        &self.opts.machine.gpus[g]
    }

    /// Forward pass over all layers.
    fn forward(&mut self) {
        let layers = self.cfg.layers();
        for l in 0..layers {
            let d_in = self.cfg.d_in(l);
            let d_out = self.cfg.d_out(l);
            let input = if l == 0 { Buf::X } else { Buf::Ahw(l - 1) };
            let spmm_first = self.opts.op_order_opt && d_in < d_out;
            // Bounded-staleness epochs prefetch every forward broadcast:
            // from the layer's SF snapshot when the source can go stale,
            // or straight from the constant X (exact) when it cannot.
            let prefetch = self.sf_age.map(|age| {
                if self.needs_sf(l) {
                    PrefetchSrc::Snapshot { layer: l, age }
                } else {
                    PrefetchSrc::Const
                }
            });

            let (snap_src, snap_d);
            if spmm_first {
                // AH = Âᵀ·H (width d_in) into HW, then AHW = AH·W.
                let spmm_ops =
                    self.staged(Dir::Fwd, input, Buf::Hw, d_in, self.producers.clone(), prefetch);
                let gemm_ops = self.local_gemm_xw(l, Buf::Hw, Buf::Ahw(l), &spmm_ops);
                self.producers = gemm_ops.into_iter().map(Some).collect();
                (snap_src, snap_d) = (input, d_in);
            } else {
                // HW = H·W (width d_out) into HW, then AHW = Âᵀ·HW.
                let gemm_ops = self.local_gemm_xw(l, input, Buf::Hw, &[]);
                let srcs: Vec<Option<OpId>> = gemm_ops.into_iter().map(Some).collect();
                let spmm_ops = self.staged(Dir::Fwd, Buf::Hw, Buf::Ahw(l), d_out, srcs, prefetch);
                self.producers = spmm_ops.into_iter().map(Some).collect();
                (snap_src, snap_d) = (Buf::Hw, d_out);
            }
            self.snapshot_source(l, snap_src, snap_d);

            if l + 1 < layers {
                let relu_ops = self.relu_forward(l);
                self.producers = relu_ops.into_iter().map(Some).collect();
            }
        }
    }

    /// Refresh layer `l`'s `SF` snapshot from this epoch's live broadcast
    /// source (DESIGN §15) — recorded right after the layer's staged SpMM,
    /// while the source buffer still holds this layer's operand. Waits on
    /// the broadcast that last read the old snapshot (WAR); lane-0 FIFO
    /// orders it against the local source writers.
    fn snapshot_source(&mut self, l: usize, src: Buf, d: usize) {
        if !(self.snap_this_epoch && self.needs_sf(l)) {
            return;
        }
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.elementwise((n_g * d) as u64, 2.0);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    let v = read_buf(gs, src).as_slice()[..n_g * d].to_vec();
                    // A snapshot of an unchanged source is byte-identical;
                    // the oracle's fingerprint diff needs the explicit note.
                    gs.note_write(sf_id(g, l));
                    gs.sf[l].resize(n_g, d);
                    gs.sf[l].as_mut_slice()[..n_g * d].copy_from_slice(&v);
                }) as Body<DeviceState>
            });
            let waits: Vec<OpId> = self.sf_reader[l][g].into_iter().collect();
            let op = self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::Other, "sf-snap"),
                &waits,
                Effects::none().reads([buf_id(g, src)]).writes([sf_id(g, l)]),
                body,
            );
            self.sf_writer[l][g] = Some(op);
        }
    }

    /// Masked softmax cross-entropy over the final logits.
    fn loss(&mut self) {
        let last = self.cfg.layers() - 1;
        let classes = self.cfg.d_out(last);
        let train_count = self.problem.train_count.max(1);
        let mut ops = Vec::with_capacity(self.p());
        let fused = self.epoch_tag.is_some();
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.loss(n_g as u64, classes as u64);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    gs.note_read(buf_id(g, Buf::Ahw(last)));
                    let stats = softmax_xent_inplace(
                        &mut gs.ahw[last],
                        &gs.labels,
                        &gs.train_mask,
                        &gs.test_mask,
                        train_count,
                    );
                    gs.loss_sum = stats.loss_sum;
                    gs.train_correct = stats.train_correct;
                    gs.train_total = stats.train_total;
                    gs.test_correct = stats.test_correct;
                    gs.test_total = stats.test_total;
                    if fused {
                        // Fused multi-epoch schedules keep a per-epoch
                        // trail: epoch e's loss is HB-before epoch e+1's
                        // (through backward → Adam → forward), so push
                        // order is epoch order on every GPU.
                        gs.epoch_stats.push((
                            stats.loss_sum,
                            stats.train_correct,
                            stats.train_total,
                            stats.test_correct,
                            stats.test_total,
                        ));
                    }
                }) as Body<DeviceState>
            });
            let waits = self.take_sync(g);
            let id = self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::LossLayer, "softmax-xent"),
                &waits,
                Effects::none().rw(buf_id(g, Buf::Ahw(last))),
                body,
            );
            ops.push(id);
        }
        self.producers = ops.into_iter().map(Some).collect();
    }

    /// Backward pass, Adam included.
    fn backward(&mut self) {
        self.backward_ops(true);
    }

    /// Backward pass; `with_adam` gates the optimizer step so the
    /// conformance harness can read raw gradients without mutating weights.
    fn backward_ops(&mut self, with_adam: bool) {
        let layers = self.cfg.layers();
        for l in (0..layers).rev() {
            let d_in = self.cfg.d_in(l);
            let d_out = self.cfg.d_out(l);

            // (eq. 8) ReLU backward for every layer but the last (the loss
            // already wrote the last layer's gradient into its AHW buffer).
            if l + 1 < layers {
                let ops = self.relu_backward_layer(l);
                self.producers = ops.into_iter().map(Some).collect();
            }

            // (eq. 9) HW_G = Â · AHW_G — skipped at layer 0 under §4.4.
            let skip_spmm = l == 0 && self.opts.skip_first_backward_spmm;
            let hwg_buf = if skip_spmm { Buf::Ahw(0) } else { Buf::Hw };
            if !skip_spmm {
                let ops = self.staged(
                    Dir::Bwd,
                    Buf::Ahw(l),
                    Buf::Hw,
                    d_out,
                    self.producers.clone(),
                    None,
                );
                self.producers = ops.into_iter().map(Some).collect();
            }

            // (eq. 10) W_G = Hᵀ · HW_G, then all-reduce and Adam.
            let x_buf = if l == 0 { Buf::X } else { Buf::Ahw(l - 1) };
            let wgrad_ops = self.weight_grad(l, x_buf, hwg_buf);
            let reduce_op = self.all_reduce_wgrad(l, &wgrad_ops);

            // (eq. 11) H_G = HW_G · Wᵀ — only needed above layer 0. Must
            // run before Adam mutates W.
            if l > 0 {
                let ops = self.input_grad(l, d_in);
                self.producers = ops.into_iter().map(Some).collect();
            }

            if with_adam {
                self.adam(l, reduce_op);
            }
        }
    }

    /// The staged distributed SpMM (§4.1 solution 1, broadcast variant).
    ///
    /// `src` is the dense operand (each GPU owns one tile row of it), `dst`
    /// the accumulation target, `d` the operand width. `src_producers[s]`
    /// is the op that produced GPU `s`'s `src` tile. Returns the final
    /// per-GPU SpMM op (the producer of `dst`).
    fn staged_spmm(
        &mut self,
        dir: Dir,
        src: Buf,
        dst: Buf,
        d: usize,
        src_producers: Vec<Option<OpId>>,
        prefetch: Option<PrefetchSrc>,
    ) -> Vec<OpId> {
        let p = self.p();
        // A single GPU broadcasts nothing and always consumes its own live
        // tile: staleness never changes P = 1 numerics.
        let prefetch = if p > 1 { prefetch } else { None };
        let comm_stream = self.opts.comm_stream();
        // Prefetched broadcasts ride a dedicated stream: on the comm lane
        // they would FIFO behind the previous epoch's gradient all-reduce,
        // which is exactly the serialization staleness exists to break.
        let bcast_stream =
            if prefetch.is_some() { self.opts.prefetch_stream() } else { comm_stream };
        let group: Vec<usize> = self.opts.gpu_ids();
        let lanes: Vec<(usize, usize)> = group.iter().map(|&g| (g, bcast_stream)).collect();
        let mut last_spmm: Vec<OpId> = Vec::with_capacity(p);
        for (s, &src_producer) in src_producers.iter().enumerate() {
            let slot = BcSlot::for_stage(s);
            let slot_idx = s % 2;
            let rows = self.problem.rows_of(s);
            // Broadcast stage s: wait for the previous readers of this
            // double buffer (WAR) plus the source of truth — the live
            // tile's producer when fresh, the snapshot's writer when stale
            // (constant X needs neither).
            let mut waits: Vec<OpId> = self.bc_readers[slot_idx].clone();
            let bcast_fx = match prefetch {
                Some(PrefetchSrc::Snapshot { layer, age }) => {
                    if let Some(w) = self.sf_writer[layer][s] {
                        waits.push(w);
                    }
                    Effects::none()
                        .stale([StaleRead { buf: sf_id(s, layer), age }])
                        .writes(group.iter().map(|&g| bc_id(g, slot_idx)))
                }
                Some(PrefetchSrc::Const) | None => {
                    if prefetch.is_none() {
                        if let Some(prod) = src_producer {
                            waits.push(prod);
                        }
                    }
                    Effects::none()
                        .reads([buf_id(s, src)])
                        .writes(group.iter().map(|&g| bc_id(g, slot_idx)))
                }
            };
            let bytes = rows as f64 * d as f64 * 4.0;
            let bw = self.opts.machine.broadcast_bw(s, &group);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| match prefetch {
                    Some(PrefetchSrc::Snapshot { layer, .. }) => {
                        ctx.broadcast_into_bc(s, move |g| g.sf_ref(layer), rows, d, slot);
                    }
                    _ => {
                        ctx.broadcast_into_bc(s, move |g| read_buf(g, src), rows, d, slot);
                    }
                }) as Body<DeviceState>
            });
            let bcast = self.sched.collective_fx(
                &lanes,
                bytes,
                bw,
                self.mk_staged(Category::Comm, "bcast-H", s),
                &waits,
                bcast_fx,
                body,
            );
            if let Some(PrefetchSrc::Snapshot { layer, .. }) = prefetch {
                self.sf_reader[layer][s] = Some(bcast);
            }

            // SpMM stage s on every GPU. Under prefetch, the diagonal tile
            // (j == s, the stage's data lives here) reads the live source
            // directly instead of the stale double buffer, preserving the
            // exact local gradient path (DESIGN §15).
            let mut readers = Vec::with_capacity(p);
            for j in 0..p {
                let local_fresh = prefetch.is_some() && j == s;
                let nnz = match dir {
                    Dir::Fwd => self.problem.fwd_tile_nnz(j, s),
                    Dir::Bwd => self.problem.bwd_tile_nnz(j, s),
                };
                let n_j = self.problem.rows_of(j);
                let acc = s > 0;
                let work = self.opts.cost.spmm(
                    self.gpu_spec(j),
                    n_j as u64,
                    rows as u64,
                    nnz,
                    d as u64,
                    acc,
                );
                let real = self.real.clone();
                let body = real.map(|rc| {
                    Box::new(move |ctx: &DeviceState| {
                        let tile = match dir {
                            Dir::Fwd => &rc.fwd_tiles[j * p + s],
                            Dir::Bwd => &rc.bwd_tiles[j * p + s],
                        };
                        let g = &mut *ctx.gpu(j);
                        let accumulate = if acc { Accumulate::Add } else { Accumulate::Overwrite };
                        if acc {
                            g.note_read(buf_id(j, dst));
                        }
                        g.note_write(buf_id(j, dst));
                        // Move the destination out so the broadcast buffer
                        // can be borrowed from the same GpuState.
                        let mut out = match dst {
                            Buf::Hw => std::mem::take(&mut g.hw),
                            Buf::Ahw(l) => std::mem::take(&mut g.ahw[l]),
                            Buf::X => unreachable!("X is never an SpMM destination"),
                        };
                        if !acc {
                            out.resize(n_j, d);
                        }
                        if local_fresh {
                            spmm(tile, read_buf(g, src), &mut out, accumulate);
                        } else {
                            spmm(tile, g.bc_ref(slot), &mut out, accumulate);
                        }
                        match dst {
                            Buf::Hw => g.hw = out,
                            Buf::Ahw(l) => g.ahw[l] = out,
                            Buf::X => unreachable!(),
                        }
                    }) as Body<DeviceState>
                });
                let mut waits = Vec::new();
                let mut fx = if local_fresh {
                    // local_fresh implies j == s, so the diagonal tile's
                    // source producer is this stage's.
                    if let Some(prod) = src_producer {
                        waits.push(prod);
                    }
                    Effects::none().reads([buf_id(j, src)]).writes([buf_id(j, dst)])
                } else {
                    waits.push(bcast);
                    Effects::none().reads([bc_id(j, slot_idx)]).writes([buf_id(j, dst)])
                };
                if acc {
                    // Accumulating stages read the running sum too.
                    fx = fx.reads([buf_id(j, dst)]);
                }
                let op = self.sched.launch_fx(
                    j,
                    0,
                    work,
                    self.mk_staged(Category::SpMM, "spmm", s),
                    &waits,
                    fx,
                    body,
                );
                if !local_fresh {
                    readers.push(op);
                }
                if s == p - 1 {
                    last_spmm.push(op);
                }
            }
            // When every consumer took the fresh local path (possible only
            // under prefetch), the broadcast itself anchors the slot's
            // WAR/WAW chain so later writers of this buffer stay ordered.
            self.bc_readers[slot_idx] = if readers.is_empty() { vec![bcast] } else { readers };
        }
        last_spmm
    }

    /// The 1.5D staged distributed SpMM (§5.1, replication factor c = 2).
    ///
    /// The machine splits into two replication groups `G0 = {0..P/2}` and
    /// `G1 = {P/2..P}`; GPU `j`'s mate is `(j + P/2) % P`. Phase A runs
    /// `P/2` rounds; in round `r` the two groups broadcast concurrently
    /// (G0 stage `r`, G1 stage `P/2 + r`, each inside its own group only)
    /// and every GPU folds the received tile into **two** partials: its own
    /// partition's (into `dst`) and its mate's (into the `RP` replica
    /// buffer — the §5.1 2× memory). Phase B runs `P/2` concurrent pairwise
    /// cross-group reductions, one per mate pair, exchanging the partials
    /// over the inter-group links and finalizing `dst` on both members.
    ///
    /// Numerics: the reduction body re-folds `dst` in the canonical 1D
    /// stage order `s = 0..P`, so 1.5D results are bit-identical to the 1D
    /// pipeline by construction; the declared bytes/bandwidth/op structure
    /// (what the DES times and the tracer counts) remain genuinely 1.5D.
    fn staged_spmm_15d(
        &mut self,
        dir: Dir,
        src: Buf,
        dst: Buf,
        d: usize,
        src_producers: Vec<Option<OpId>>,
        prefetch: Option<PrefetchSrc>,
    ) -> Vec<OpId> {
        let p = self.p();
        assert!(p >= 2 && p.is_multiple_of(2), "1.5D needs an even GPU count >= 2");
        let half = p / 2;
        let comm_stream = self.opts.comm_stream();
        // Prefetched broadcasts ride the dedicated staleness stream (same
        // reasoning as the 1D pipeline).
        let bcast_stream =
            if prefetch.is_some() { self.opts.prefetch_stream() } else { comm_stream };
        let groups: [Vec<usize>; 2] = [(0..half).collect(), (half..p).collect()];
        // Tail of each GPU's phase-A lane-0 chain — what the reductions wait on.
        let mut tail: Vec<Option<OpId>> = vec![None; p];

        for r in 0..half {
            // The two groups broadcast concurrently on disjoint lane sets.
            let mut bcasts = [None, None];
            for (gi, members) in groups.iter().enumerate() {
                let s = if gi == 0 { r } else { half + r };
                let slot_idx = s % 2;
                let slot = BcSlot::for_stage(s);
                let rows = self.problem.rows_of(s);
                let mut waits: Vec<OpId> = self.bc_readers15[gi][slot_idx].clone();
                let fx = match prefetch {
                    Some(PrefetchSrc::Snapshot { layer, age }) => {
                        if let Some(w) = self.sf_writer[layer][s] {
                            waits.push(w);
                        }
                        Effects::none()
                            .stale([StaleRead { buf: sf_id(s, layer), age }])
                            .writes(members.iter().map(|&g| bc_id(g, slot_idx)))
                    }
                    Some(PrefetchSrc::Const) | None => {
                        if prefetch.is_none() {
                            if let Some(prod) = src_producers[s] {
                                waits.push(prod);
                            }
                        }
                        Effects::none()
                            .reads([buf_id(s, src)])
                            .writes(members.iter().map(|&g| bc_id(g, slot_idx)))
                    }
                };
                let bytes = rows as f64 * d as f64 * 4.0;
                let bw = self.opts.machine.broadcast_bw(s, members);
                let lanes: Vec<(usize, usize)> =
                    members.iter().map(|&g| (g, bcast_stream)).collect();
                let mem = members.clone();
                let body = self.real.as_ref().map(|_| {
                    Box::new(move |ctx: &DeviceState| match prefetch {
                        Some(PrefetchSrc::Snapshot { layer, .. }) => {
                            ctx.broadcast_into_bc_group(
                                s,
                                move |g| g.sf_ref(layer),
                                rows,
                                d,
                                slot,
                                &mem,
                            );
                        }
                        _ => {
                            ctx.broadcast_into_bc_group(
                                s,
                                move |g| read_buf(g, src),
                                rows,
                                d,
                                slot,
                                &mem,
                            );
                        }
                    }) as Body<DeviceState>
                });
                let bcast = self.sched.collective_fx(
                    &lanes,
                    bytes,
                    bw,
                    self.mk_staged(Category::Comm, "bcast-H", s),
                    &waits,
                    fx,
                    body,
                );
                if let Some(PrefetchSrc::Snapshot { layer, .. }) = prefetch {
                    self.sf_reader[layer][s] = Some(bcast);
                }
                bcasts[gi] = Some(bcast);
            }

            // Each member folds the received stage twice: into its own
            // partial (dst) and its mate's partial (RP).
            for (gi, members) in groups.iter().enumerate() {
                let s = if gi == 0 { r } else { half + r };
                let slot_idx = s % 2;
                let slot = BcSlot::for_stage(s);
                let rows = self.problem.rows_of(s);
                let bcast = bcasts[gi].expect("broadcast emitted above");
                let acc = r > 0;
                let mut readers = Vec::with_capacity(members.len() * 2);
                for &j in members {
                    // The stage's data lives on GPU s: when prefetching,
                    // that member folds both its partials from the live
                    // source, keeping the diagonal contribution exact.
                    let local_fresh = prefetch.is_some() && j == s;
                    let mut waits = Vec::new();
                    if local_fresh {
                        if let Some(prod) = src_producers[j] {
                            waits.push(prod);
                        }
                    } else {
                        waits.push(bcast);
                    }
                    if r == 0 {
                        waits.extend(self.take_sync(j));
                    }
                    // Own partition: tile row j into dst.
                    let nnz = match dir {
                        Dir::Fwd => self.problem.fwd_tile_nnz(j, s),
                        Dir::Bwd => self.problem.bwd_tile_nnz(j, s),
                    };
                    let n_j = self.problem.rows_of(j);
                    let work = self.opts.cost.spmm(
                        self.gpu_spec(j),
                        n_j as u64,
                        rows as u64,
                        nnz,
                        d as u64,
                        acc,
                    );
                    let body = self.real.clone().map(|rc| {
                        Box::new(move |ctx: &DeviceState| {
                            let tile = match dir {
                                Dir::Fwd => &rc.fwd_tiles[j * p + s],
                                Dir::Bwd => &rc.bwd_tiles[j * p + s],
                            };
                            let g = &mut *ctx.gpu(j);
                            let accumulate =
                                if acc { Accumulate::Add } else { Accumulate::Overwrite };
                            if acc {
                                g.note_read(buf_id(j, dst));
                            }
                            g.note_write(buf_id(j, dst));
                            let mut out = match dst {
                                Buf::Hw => std::mem::take(&mut g.hw),
                                Buf::Ahw(l) => std::mem::take(&mut g.ahw[l]),
                                Buf::X => unreachable!("X is never an SpMM destination"),
                            };
                            if !acc {
                                out.resize(n_j, d);
                            }
                            if local_fresh {
                                spmm(tile, read_buf(g, src), &mut out, accumulate);
                            } else {
                                spmm(tile, g.bc_ref(slot), &mut out, accumulate);
                            }
                            match dst {
                                Buf::Hw => g.hw = out,
                                Buf::Ahw(l) => g.ahw[l] = out,
                                Buf::X => unreachable!(),
                            }
                        }) as Body<DeviceState>
                    });
                    let mut fx = if local_fresh {
                        Effects::none().reads([buf_id(j, src)]).writes([buf_id(j, dst)])
                    } else {
                        Effects::none().reads([bc_id(j, slot_idx)]).writes([buf_id(j, dst)])
                    };
                    if acc {
                        fx = fx.reads([buf_id(j, dst)]);
                    }
                    let own = self.sched.launch_fx(
                        j,
                        0,
                        work,
                        self.mk_staged(Category::SpMM, "spmm", s),
                        &waits,
                        fx,
                        body,
                    );
                    if !local_fresh {
                        readers.push(own);
                    }

                    // Mate's partition: tile row mate(j) into the RP replica.
                    let m = (j + half) % p;
                    let nnz_m = match dir {
                        Dir::Fwd => self.problem.fwd_tile_nnz(m, s),
                        Dir::Bwd => self.problem.bwd_tile_nnz(m, s),
                    };
                    let n_m = self.problem.rows_of(m);
                    let work_m = self.opts.cost.spmm(
                        self.gpu_spec(j),
                        n_m as u64,
                        rows as u64,
                        nnz_m,
                        d as u64,
                        acc,
                    );
                    let body_m = self.real.clone().map(|rc| {
                        Box::new(move |ctx: &DeviceState| {
                            let tile = match dir {
                                Dir::Fwd => &rc.fwd_tiles[m * p + s],
                                Dir::Bwd => &rc.bwd_tiles[m * p + s],
                            };
                            let g = &mut *ctx.gpu(j);
                            let accumulate =
                                if acc { Accumulate::Add } else { Accumulate::Overwrite };
                            if acc {
                                g.note_read(rp_id(j));
                            }
                            g.note_write(rp_id(j));
                            let mut out = std::mem::take(&mut g.rp);
                            if !acc {
                                out.resize(n_m, d);
                            }
                            if local_fresh {
                                spmm(tile, read_buf(g, src), &mut out, accumulate);
                            } else {
                                spmm(tile, g.bc_ref(slot), &mut out, accumulate);
                            }
                            g.rp = out;
                        }) as Body<DeviceState>
                    });
                    let mut waits_m = Vec::new();
                    let mut fx_m = if local_fresh {
                        if let Some(prod) = src_producers[j] {
                            waits_m.push(prod);
                        }
                        Effects::none().reads([buf_id(j, src)]).writes([rp_id(j)])
                    } else {
                        waits_m.push(bcast);
                        Effects::none().reads([bc_id(j, slot_idx)]).writes([rp_id(j)])
                    };
                    if acc {
                        fx_m = fx_m.reads([rp_id(j)]);
                    }
                    let mate = self.sched.launch_fx(
                        j,
                        0,
                        work_m,
                        self.mk_staged(Category::SpMM, "spmm-rp", s),
                        &waits_m,
                        fx_m,
                        body_m,
                    );
                    if !local_fresh {
                        readers.push(mate);
                    }
                    tail[j] = Some(mate);
                }
                // Singleton groups under prefetch record no readers; the
                // broadcast anchors the slot chain (see staged_spmm).
                self.bc_readers15[gi][slot_idx] =
                    if readers.is_empty() { vec![bcast] } else { readers };
            }
        }

        // Phase B: P/2 concurrent pairwise cross-group reductions. Pair
        // (a, a + P/2) exchanges both partials over the a↔mate link(s).
        let rows_all: Vec<usize> = (0..p).map(|s| self.problem.rows_of(s)).collect();
        let mut reduces: Vec<OpId> = Vec::with_capacity(half);
        let mut out_ops: Vec<Option<OpId>> = vec![None; p];
        for a in 0..half {
            let b = a + half;
            let lanes = [(a, comm_stream), (b, comm_stream)];
            let bytes = ((rows_all[a] + rows_all[b]) * d * 4) as f64;
            let bw = self.opts.machine.reduce_bw(a, &[a, b]);
            let waits =
                [tail[a].expect("phase A emitted for a"), tail[b].expect("phase A emitted for b")];
            let rows_body = rows_all.clone();
            let (fx, body);
            if self.epoch_tag.is_some() {
                // Fused bounded-staleness schedules use the genuine
                // pairwise exchange: each member's final result is its own
                // partial plus its mate's RP replica. The canonical refold
                // below would re-read every GPU's live src shard — an
                // undeclared cross-epoch RAW once stale broadcasts drop
                // their producer edges. The pairwise sum's f32 association
                // differs from the 1D fold, so k >= 1 1.5D runs are
                // oracle-band-equal, not bit-equal, to 1D (DESIGN §15).
                body = self.real.clone().map(|_| {
                    Box::new(move |ctx: &DeviceState| {
                        for &(t, o) in &[(a, b), (b, a)] {
                            let n_t = rows_body[t];
                            let partial = {
                                let g = ctx.gpu(o);
                                g.rp_ref().as_slice()[..n_t * d].to_vec()
                            };
                            let gs = &mut *ctx.gpu(t);
                            gs.note_read(buf_id(t, dst));
                            gs.note_write(buf_id(t, dst));
                            let out = match dst {
                                Buf::Hw => &mut gs.hw,
                                Buf::Ahw(l) => &mut gs.ahw[l],
                                Buf::X => unreachable!("X is never an SpMM destination"),
                            };
                            for (x, v) in out.as_mut_slice()[..n_t * d].iter_mut().zip(&partial) {
                                *x += v;
                            }
                        }
                    }) as Body<DeviceState>
                });
                fx = Effects::none()
                    .reads([rp_id(a), rp_id(b), buf_id(a, dst), buf_id(b, dst)])
                    .writes([buf_id(a, dst), buf_id(b, dst)]);
            } else {
                body = self.real.clone().map(|rc| {
                    Box::new(move |ctx: &DeviceState| {
                        // Stage every GPU's src shard to the host, one lock at
                        // a time (collective bodies run at rendezvous
                        // quiescence; concurrent pair reductions only ever
                        // share read access to these shards).
                        let views: Vec<Dense> = (0..p)
                            .map(|s| {
                                let g = ctx.gpu(s);
                                let v = read_buf(&g, src).as_slice()[..rows_body[s] * d].to_vec();
                                Dense::from_vec(rows_body[s], d, v)
                            })
                            .collect();
                        // Finalize both members by re-folding in the canonical
                        // 1D stage order — bit-identical to the 1D pipeline.
                        for &t in &[a, b] {
                            let n_t = rows_body[t];
                            let gs = &mut *ctx.gpu(t);
                            gs.note_write(buf_id(t, dst));
                            let mut out = match dst {
                                Buf::Hw => std::mem::take(&mut gs.hw),
                                Buf::Ahw(l) => std::mem::take(&mut gs.ahw[l]),
                                Buf::X => unreachable!("X is never an SpMM destination"),
                            };
                            out.resize(n_t, d);
                            for (s, view) in views.iter().enumerate() {
                                let tile = match dir {
                                    Dir::Fwd => &rc.fwd_tiles[t * p + s],
                                    Dir::Bwd => &rc.bwd_tiles[t * p + s],
                                };
                                let accumulate =
                                    if s == 0 { Accumulate::Overwrite } else { Accumulate::Add };
                                spmm(tile, view, &mut out, accumulate);
                            }
                            match dst {
                                Buf::Hw => gs.hw = out,
                                Buf::Ahw(l) => gs.ahw[l] = out,
                                Buf::X => unreachable!(),
                            }
                        }
                    }) as Body<DeviceState>
                });
                fx = Effects::none()
                    .reads((0..p).map(|s| buf_id(s, src)))
                    .reads([rp_id(a), rp_id(b)])
                    .writes([buf_id(a, dst), buf_id(b, dst)]);
            }
            let op = self.sched.collective_fx(
                &lanes,
                bytes,
                bw,
                self.mk_desc(Category::Comm, "reduce-AH"),
                &waits,
                fx,
                body,
            );
            reduces.push(op);
            out_ops[a] = Some(op);
            out_ops[b] = Some(op);
        }
        self.pending_sync = reduces;
        self.sync_taken = vec![false; p];
        out_ops.into_iter().map(|o| o.expect("every GPU belongs to one pair")).collect()
    }

    /// Local GeMM `dst = src · W(l)` on every GPU (paper eq. 5).
    fn local_gemm_xw(&mut self, l: usize, src: Buf, dst: Buf, extra_waits: &[OpId]) -> Vec<OpId> {
        let d_in = self.cfg.d_in(l);
        let d_out = self.cfg.d_out(l);
        let mut ops = Vec::with_capacity(self.p());
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.gemm(self.gpu_spec(g), n_g as u64, d_in as u64, d_out as u64);
            // The GeMM on GPU `g` only reads `g`'s own tile, so only `g`'s
            // producer is a real dependency — the analyzer verifies this.
            let mut waits: Vec<OpId> = extra_waits.get(g).copied().into_iter().collect();
            if src != Buf::Hw {
                if let Some(prod) = self.producers[g] {
                    waits.push(prod);
                }
            }
            waits.extend(self.take_sync(g));
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    let mut out = match dst {
                        Buf::Hw => std::mem::take(&mut gs.hw),
                        Buf::Ahw(dl) => std::mem::take(&mut gs.ahw[dl]),
                        Buf::X => unreachable!("X is never a GeMM destination"),
                    };
                    out.resize(n_g, d_out);
                    gemm(read_buf(gs, src), gs.w_ref(l), &mut out, Accumulate::Overwrite);
                    match dst {
                        Buf::Hw => gs.hw = out,
                        Buf::Ahw(dl) => gs.ahw[dl] = out,
                        Buf::X => unreachable!(),
                    }
                }) as Body<DeviceState>
            });
            // On fused schedules W(l) was last written by the previous
            // epoch's Adam step — the intended age-1 epoch carry.
            let fx = self.declare_epoch_carry(
                Effects::none().reads([buf_id(g, src), w_id(g, l)]).writes([buf_id(g, dst)]),
                w_id(g, l),
            );
            let op = self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::GeMM, "gemm-HW"),
                &waits,
                fx,
                body,
            );
            ops.push(op);
        }
        ops
    }

    /// In-place ReLU over `AHW(l)` (paper eq. 7).
    fn relu_forward(&mut self, l: usize) -> Vec<OpId> {
        let d_out = self.cfg.d_out(l);
        let mut ops = Vec::with_capacity(self.p());
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.elementwise((n_g * d_out) as u64, 2.0);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let mut gs = ctx.gpu(g);
                    // In-place RMW: an all-nonnegative input leaves the
                    // bytes unchanged, so both sides are noted explicitly.
                    gs.note_read(buf_id(g, Buf::Ahw(l)));
                    gs.note_write(buf_id(g, Buf::Ahw(l)));
                    relu_inplace(gs.ahw[l].as_mut_slice());
                }) as Body<DeviceState>
            });
            let waits = self.take_sync(g);
            ops.push(self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::Activation, "relu"),
                &waits,
                Effects::none().rw(buf_id(g, Buf::Ahw(l))),
                body,
            ));
        }
        ops
    }

    /// ReLU backward (paper eq. 8): merge the incoming gradient in
    /// `AHW(l+1)` over the saved activation in `AHW(l)`.
    fn relu_backward_layer(&mut self, l: usize) -> Vec<OpId> {
        let d = self.cfg.d_out(l);
        let mut ops = Vec::with_capacity(self.p());
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.elementwise((n_g * d) as u64, 3.0);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    let (grad, act) = gs.ahw_pair_mut(l + 1, l);
                    mggcn_dense::relu_backward_merge(grad.as_slice(), act.as_mut_slice());
                }) as Body<DeviceState>
            });
            let waits = self.take_sync(g);
            ops.push(self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::Activation, "relu-bwd"),
                &waits,
                Effects::none().reads([buf_id(g, Buf::Ahw(l + 1))]).rw(buf_id(g, Buf::Ahw(l))),
                body,
            ));
        }
        ops
    }

    /// Weight gradient `W_G(l) = Xᵀ · HW_G` (paper eq. 10).
    fn weight_grad(&mut self, l: usize, x_buf: Buf, hwg_buf: Buf) -> Vec<OpId> {
        let d_in = self.cfg.d_in(l);
        let d_out = self.cfg.d_out(l);
        let mut ops = Vec::with_capacity(self.p());
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.gemm(self.gpu_spec(g), d_in as u64, n_g as u64, d_out as u64);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    gs.note_write(wg_id(g, l));
                    let mut out = std::mem::take(&mut gs.wgrad[l]);
                    out.resize(d_in, d_out);
                    gemm_at_b(
                        read_buf(gs, x_buf),
                        read_buf(gs, hwg_buf),
                        &mut out,
                        Accumulate::Overwrite,
                    );
                    gs.wgrad[l] = out;
                }) as Body<DeviceState>
            });
            let waits = self.take_sync(g);
            ops.push(self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::GeMM, "gemm-WG"),
                &waits,
                Effects::none().reads([buf_id(g, x_buf), buf_id(g, hwg_buf)]).writes([wg_id(g, l)]),
                body,
            ));
        }
        ops
    }

    /// All-reduce the layer's weight gradients (ring volume `2(P−1)/P`).
    fn all_reduce_wgrad(&mut self, l: usize, waits: &[OpId]) -> OpId {
        let group = self.opts.gpu_ids();
        let comm_stream = self.opts.comm_stream();
        let lanes: Vec<(usize, usize)> = group.iter().map(|&g| (g, comm_stream)).collect();
        let param_bytes = (self.cfg.d_in(l) * self.cfg.d_out(l) * 4) as f64;
        let p = self.p() as f64;
        let bytes = 2.0 * param_bytes * (p - 1.0) / p;
        let bw = self.opts.machine.allreduce_bw(&group);
        let body = self.real.as_ref().map(|_| {
            Box::new(move |ctx: &DeviceState| ctx.all_reduce_wgrad(l)) as Body<DeviceState>
        });
        let mut fx = Effects::none();
        for &g in &group {
            fx = fx.rw(wg_id(g, l));
        }
        self.sched.collective_fx(
            &lanes,
            bytes,
            bw,
            self.mk_desc(Category::Comm, "allreduce-WG"),
            waits,
            fx,
            body,
        )
    }

    /// Input gradient `H_G = HW_G · Wᵀ` (paper eq. 11) into `AHW(l)`.
    fn input_grad(&mut self, l: usize, d_in: usize) -> Vec<OpId> {
        let d_out = self.cfg.d_out(l);
        let mut ops = Vec::with_capacity(self.p());
        for g in 0..self.p() {
            let n_g = self.problem.rows_of(g);
            let work = self.opts.cost.gemm(self.gpu_spec(g), n_g as u64, d_out as u64, d_in as u64);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    let mut out = std::mem::take(&mut gs.ahw[l]);
                    out.resize(n_g, d_in);
                    gemm_a_bt(read_buf(gs, Buf::Hw), gs.w_ref(l), &mut out, Accumulate::Overwrite);
                    gs.ahw[l] = out;
                }) as Body<DeviceState>
            });
            let waits = self.take_sync(g);
            // W(l) here still carries the previous epoch's Adam write on
            // fused schedules (this epoch's Adam for layer l runs after).
            let fx = self.declare_epoch_carry(
                Effects::none()
                    .reads([buf_id(g, Buf::Hw), w_id(g, l)])
                    .writes([buf_id(g, Buf::Ahw(l))]),
                w_id(g, l),
            );
            ops.push(self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::GeMM, "gemm-HG"),
                &waits,
                fx,
                body,
            ));
        }
        ops
    }

    /// Adam update of `W(l)` on every GPU (identical updates keep the
    /// replicas in lockstep).
    fn adam(&mut self, l: usize, reduce_op: OpId) {
        let lr = self.cfg.lr * self.cfg.lr_schedule.factor(self.t as usize - 1);
        let params = AdamParams { lr, ..AdamParams::default() };
        let t = self.t;
        for g in 0..self.p() {
            let count = (self.cfg.d_in(l) * self.cfg.d_out(l)) as u64;
            let work = self.opts.cost.adam(count);
            let body = self.real.as_ref().map(|_| {
                Box::new(move |ctx: &DeviceState| {
                    let gs = &mut *ctx.gpu(g);
                    gs.note_read(wg_id(g, l));
                    gs.note_read(adam_id(g, l));
                    gs.note_write(adam_id(g, l));
                    gs.note_write(w_id(g, l));
                    let grad = std::mem::take(&mut gs.wgrad[l]);
                    adam_step(
                        &params,
                        t,
                        gs.weights[l].as_mut_slice(),
                        grad.as_slice(),
                        gs.adam_m[l].as_mut_slice(),
                        gs.adam_v[l].as_mut_slice(),
                    );
                    gs.wgrad[l] = grad;
                }) as Body<DeviceState>
            });
            let mut waits = self.take_sync(g);
            waits.push(reduce_op);
            // The Adam moments read here were last written by the previous
            // epoch's Adam step — the optimizer's own age-1 epoch carry.
            let fx = self.declare_epoch_carry(
                Effects::none().reads([wg_id(g, l)]).rw(adam_id(g, l)).writes([w_id(g, l)]),
                adam_id(g, l),
            );
            self.sched.launch_fx(
                g,
                0,
                work,
                self.mk_desc(Category::Adam, "adam"),
                &waits,
                fx,
                body,
            );
        }
    }
}
