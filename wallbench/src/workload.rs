//! The workloads and the run that measures them.
//!
//! Every workload is the same user journey at a different size and mix:
//! build a graph and a trainer, train a little and freeze the model into a
//! server (set-up), then alternate, in one-second rounds, timed
//! `Trainer::train_epoch` calls with a closed-loop client of timed
//! `Server::query` batches and a one-edge `Server::apply_delta` after every
//! ten queries. The size decides which layer dominates; the time split
//! decides which end-to-end metric carries the most samples. `METRICS.md`
//! says why each workload exists.

use crate::kernels;
use crate::metrics::{
    median, percentile, tail_supported, Report, Rounds, Tally, EPOCH_TAIL, QUERY_TAIL,
};
use mggcn_core::checkpoint::Checkpoint;
use mggcn_core::{Backend, EpochReport, GcnConfig, Problem, TrainOptions, Trainer};
use mggcn_dense::{Accumulate, Dense};
use mggcn_gpusim::Category;
use mggcn_gpusim::MachineSpec;
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_graph::sampling::khop_induced;
use mggcn_graph::Graph;
use mggcn_serve::{BatchPolicy, LoadGenConfig, ServeConfig, Server, ServingModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Simulated GPU workers: one per host core on the 2-core reference host.
pub const GPUS: usize = 2;
pub const HIDDEN: usize = 32;
pub const COMMUNITIES: usize = 5;
pub const BATCH: usize = 32;
/// Queries between one-edge graph deltas.
pub const WRITE_EVERY: usize = 10;
/// Set-up repeats at least `SETUP_REPS` times and for at least
/// `SETUP_SECONDS` (at most `SETUP_MAX_REPS` times); `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;
pub const SETUP_SECONDS: f64 = 1.0;
pub const SETUP_MAX_REPS: usize = 200;
/// Length of one train-then-serve round.
pub const ROUND_SECONDS: f64 = 1.0;
/// Leading epochs whose losses must match a `Backend::Simulated` run bit
/// for bit.
pub const SIM_CHECK_EPOCHS: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    /// SBM vertex count (`community_benchmark(vertices, 5)`, 32 features).
    pub vertices: usize,
    /// Epochs trained inside set-up before the model is frozen: the
    /// warm-up epoch, or the serving model's whole training.
    pub setup_epochs: usize,
    /// Share of the measured seconds spent training; the rest serves.
    pub train_share: f64,
    /// Floor on the final test accuracy (5 classes: chance is 0.2).
    pub acc_floor: f64,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "train-large",
        vertices: 20_000,
        setup_epochs: 1,
        train_share: 0.8,
        acc_floor: 0.9,
    },
    Spec {
        name: "serve-mixed",
        vertices: 5_000,
        setup_epochs: 20,
        train_share: 0.2,
        acc_floor: 0.9,
    },
];

impl Spec {
    /// Whether serving takes most of the measured time.
    pub fn serves_mostly(&self) -> bool {
        self.train_share < 0.5
    }
}

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

fn train_options(backend: Backend) -> TrainOptions {
    let mut o = TrainOptions::quick(GPUS);
    o.backend = backend;
    o
}

fn model_config(graph: &Graph, seed: u64) -> GcnConfig {
    let mut cfg = GcnConfig::new(graph.features.cols(), &[HIDDEN], graph.classes);
    cfg.seed = seed;
    cfg
}

/// Propagation cache holding about a quarter of the vertex rows: the 5%
/// hot set fits, but the uniform tail still evicts.
fn serve_config(vertices: usize, feat_dim: usize) -> ServeConfig {
    let cache_bytes = vertices / 4 * feat_dim * std::mem::size_of::<f32>();
    ServeConfig::new(MachineSpec::dgx_a100(), BatchPolicy::new(1e-3, BATCH), cache_bytes)
}

/// Everything set-up produces; one of these is kept for the run.
struct Setup {
    graph: Graph,
    trainer: Trainer,
    server: Server,
    losses: Vec<f64>,
    last: Option<EpochReport>,
    /// (graph.generate_s, core.problem_s, core.trainer_new_s, serve.freeze_s)
    parts: [f64; 4],
    total_s: f64,
}

fn setup(spec: &Spec, seed: u64, tally: &mut Tally) -> Result<Setup, String> {
    let t0 = Instant::now();
    let graph = sbm::generate(&SbmConfig::community_benchmark(spec.vertices, COMMUNITIES), seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let cfg = model_config(&graph, seed);
    let opts = train_options(Backend::Threaded);
    let t = Instant::now();
    let problem = Problem::from_graph(&graph, &cfg, &opts);
    let problem_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut trainer = Trainer::new(problem, cfg, opts).map_err(|e| e.to_string())?;
    let trainer_new_s = t.elapsed().as_secs_f64();
    let mut losses = Vec::new();
    let mut last = None;
    for _ in 0..spec.setup_epochs {
        let r = trainer.train_epoch();
        if let Some(r) = record_epoch(r, &mut losses, tally) {
            last = Some(r);
        }
    }
    let t = Instant::now();
    let model = ServingModel::from_checkpoint(&Checkpoint::from_trainer(&trainer), &graph)?;
    let server = Server::new(model, serve_config(graph.n(), graph.features.cols()));
    let freeze_s = t.elapsed().as_secs_f64();
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        graph,
        trainer,
        server,
        losses,
        last,
        parts: [generate_s, problem_s, trainer_new_s, freeze_s],
        total_s,
    })
}

/// Count an epoch attempt: it must succeed with a finite loss.
fn record_epoch(
    r: Result<EpochReport, mggcn_core::TrainError>,
    losses: &mut Vec<f64>,
    tally: &mut Tally,
) -> Option<EpochReport> {
    match r {
        Ok(rep) => {
            let loss = rep.loss;
            losses.push(loss);
            tally.check(loss.is_finite(), || format!("epoch {} loss {loss}", rep.epoch));
            Some(rep)
        }
        Err(e) => {
            tally.check(false, || format!("epoch failed: {e}"));
            None
        }
    }
}

/// Per-layer samples of the traced run, reduced to medians at the end.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn report_medians(&self, report: &mut Report) {
        for (name, v) in &self.0 {
            report.set(name, median(v), v.len());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Options of one run, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Outcome of one run: the metrics and the attempt tally.
pub struct Outcome {
    pub report: Report,
    pub tally: Tally,
    /// Notes for the provenance block: final accuracy, and any tail
    /// percentile with under ten samples beyond it.
    pub notes: Vec<String>,
}

/// Run `spec` once. With `opts.trace`, alternate epochs and query batches
/// also time the inner public calls, and the per-layer metrics are filled;
/// otherwise the end-to-end metrics are.
pub fn run(spec: &Spec, opts: RunOptions) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut layers = Layers::default();
    let mut notes = Vec::new();

    // Set-up, repeated; keep the last one. Earlier ones are dropped before
    // the next starts so at most one is resident.
    let mut setup_times = Vec::new();
    let mut kept = None;
    let t0 = Instant::now();
    while setup_times.len() < SETUP_REPS
        || (t0.elapsed().as_secs_f64() < SETUP_SECONDS && setup_times.len() < SETUP_MAX_REPS)
    {
        drop(kept.take());
        let s = setup(spec, opts.seed, &mut tally)?;
        setup_times.push(s.total_s);
        for (name, v) in
            ["graph.generate_s", "core.problem_s", "core.trainer_new_s", "serve.freeze_s"]
                .into_iter()
                .zip(s.parts)
        {
            layers.add(name, v);
        }
        kept = Some(s);
    }
    let Setup { graph, mut trainer, mut server, losses, last, .. } =
        kept.expect("at least one set-up");

    let mut train = TrainLoop { losses, last, ..TrainLoop::default() };
    let mut serve = ServeLoop::new(graph.n(), opts.seed);

    // Alternate training and serving in rounds so both sample the whole
    // measured interval, and the host's slow and fast spells alike.
    let ticks_before = cpu_ticks();
    let rounds = (opts.seconds / ROUND_SECONDS).round().max(1.0) as usize;
    let round = opts.seconds / rounds as f64;
    for _ in 0..rounds {
        train.epoch_ms.start();
        serve.query_ms.start();
        serve.delta_ms.start();
        let t = Instant::now();
        let budget = Duration::from_secs_f64(round * spec.train_share);
        while t.elapsed() < budget {
            train.step(&mut trainer, opts.trace, &mut layers, &mut tally);
        }
        let t = Instant::now();
        let budget = Duration::from_secs_f64(round * (1.0 - spec.train_share));
        let answered = serve.answered;
        while t.elapsed() < budget {
            serve.step(&mut server, opts.trace, &mut layers, &mut tally);
        }
        serve.rps.push((serve.answered - answered) as f64 / t.elapsed().as_secs_f64());
    }
    let traced_empty = train.traced_epoch_ms.is_empty() || serve.traced_query_ms.is_empty();
    if train.epoch_ms.is_empty()
        || serve.query_ms.is_empty()
        || serve.delta_ms.is_empty()
        || (opts.trace && traced_empty)
    {
        return Err(format!(
            "run too short: {} epochs, {} queries, {} deltas",
            train.epoch_ms.len(),
            serve.query_ms.len(),
            serve.delta_ms.len()
        ));
    }
    let rss_mb = peak_rss_mb()?;
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        notes.push(format!("host steal share during the rounds {share:.3}"));
    }

    // Output checks (untimed).
    let test_acc = train.last.as_ref().map_or(0.0, |r| r.test_acc);
    tally.check(test_acc >= spec.acc_floor, || {
        format!("final test accuracy {test_acc:.4} below floor {}", spec.acc_floor)
    });
    notes.push(format!("final test accuracy {test_acc:.4}"));
    check_served(&mut server, &serve.since_delta, &mut serve.load, &mut tally);
    check_against_simulated(&graph, opts.seed, &train.losses, &mut tally);

    if opts.trace {
        let stats = *server.cache().stats();
        let (hits, misses) = (stats.hits - serve.probe_hits, stats.misses - serve.probe_misses);
        layers.add("serve.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
        layers.add("serve.evictions", stats.evictions as f64);
        layers.add("serve.invalidations", stats.invalidations as f64);
        let overhead = |traced: &[f64], plain: &[f64]| median(traced) - median(plain);
        let (epoch_ms, query_ms) = (train.epoch_ms.all(), serve.query_ms.all());
        layers.add("trace.epoch_overhead_ms", overhead(&train.traced_epoch_ms, &epoch_ms));
        layers.add("trace.query_overhead_ms", overhead(&serve.traced_query_ms, &query_ms));
        let block_rows = median(&serve.agg_rows);
        let roof = per_layer_kernels(spec, &graph, opts.seed, block_rows, &mut report);
        for &(secs, flop, bytes) in &serve.spmm_rows_calls {
            let frac = flop / secs / 1e9 / roof.attainable_gflops(flop, bytes);
            layers.add("sparse.spmm_rows_roofline_frac", frac);
        }
        layers.report_medians(&mut report);
    } else {
        let (epoch_ms, query_ms) = (&train.epoch_ms, &serve.query_ms);
        report.set("setup_s", median(&setup_times), setup_times.len());
        let tail = |q: f64| move |s: &[f64]| percentile(s, q);
        report.set("epoch_ms_p50", epoch_ms.median_of(median), epoch_ms.len());
        report.set("epoch_ms_p80", epoch_ms.median_of(tail(EPOCH_TAIL)), epoch_ms.len());
        report.set("query_ms_p50", query_ms.median_of(median), query_ms.len());
        report.set("query_ms_p95", query_ms.median_of(tail(QUERY_TAIL)), query_ms.len());
        report.set("serve_rps", median(&serve.rps), serve.rps.len());
        let delta_ms = &serve.delta_ms;
        report.set("delta_ms_p50", delta_ms.median_of(median), delta_ms.len());
        report.set("peak_rss_mb", rss_mb, 1);
        for (what, n, q) in
            [("epoch", epoch_ms.len(), EPOCH_TAIL), ("query", query_ms.len(), QUERY_TAIL)]
        {
            if !tail_supported(n, q) {
                notes.push(format!("{what} p{:.0}: under 10 samples beyond it (n={n})", q * 100.0));
            }
        }
    }
    report.set("success_rate", tally.success_rate(), tally.attempted as usize);
    Ok(Outcome { report, tally, notes })
}

/// Timed `train_epoch` calls. Traced epochs (every other one in a traced
/// run) also time the schedule build, the DES and the preflight the epoch
/// runs internally, by calling the same public functions beside it.
#[derive(Default)]
struct TrainLoop {
    losses: Vec<f64>,
    last: Option<EpochReport>,
    epoch_ms: Rounds,
    traced_epoch_ms: Vec<f64>,
    steps: usize,
}

impl TrainLoop {
    fn step(&mut self, trainer: &mut Trainer, trace: bool, layers: &mut Layers, tally: &mut Tally) {
        let traced = trace && self.steps % 2 == 1;
        self.steps += 1;
        if traced {
            let t = Instant::now();
            let sched = trainer.epoch_schedule();
            layers.add("gpusim.build_ms", ms(t.elapsed()));
            layers.add("gpusim.ops", sched.op_count() as f64);
            let t = Instant::now();
            std::hint::black_box(sched.simulate());
            layers.add("gpusim.simulate_ms", ms(t.elapsed()));
            let t = Instant::now();
            let pre = mggcn_analyze::preflight(&sched);
            layers.add("analyze.preflight_ms", ms(t.elapsed()));
            tally.check(pre.is_ok(), || format!("preflight: {pre:?}"));
        }
        let t = Instant::now();
        let r = trainer.train_epoch();
        let outer = ms(t.elapsed());
        let Some(rep) = record_epoch(r, &mut self.losses, tally) else { return };
        if traced {
            self.traced_epoch_ms.push(outer);
            match &rep.measured {
                Some(m) => record_measured(m, outer, layers),
                None => {
                    tally.check(false, || "threaded epoch carries no measurement".into());
                }
            }
        } else {
            self.epoch_ms.push(outer);
        }
        self.last = Some(rep);
    }
}

/// One closed-loop client: a `Server::query` batch, and after every
/// `WRITE_EVERY` batches a one-edge `Server::apply_delta`. Traced batches
/// also time the k-hop extraction, the layer-0 aggregation and the batch
/// schedule build beside the query.
struct ServeLoop {
    load: LoadStream,
    writes: SmallRng,
    query_ms: Rounds,
    traced_query_ms: Vec<f64>,
    delta_ms: Rounds,
    /// Answers given since the last delta, checked at the end.
    since_delta: Vec<(Vec<u32>, Dense)>,
    /// Cache lookups made by `batch_schedule` probes, not by queries.
    probe_hits: u64,
    probe_misses: u64,
    /// Traced batches' layer-0 aggregation calls: (seconds, flop, bytes).
    spmm_rows_calls: Vec<(f64, f64, f64)>,
    /// Layer-0 aggregation rows per traced batch.
    agg_rows: Vec<f64>,
    answered: usize,
    batches: usize,
    /// Vertices answered per wall second of each round's serving.
    rps: Vec<f64>,
}

impl ServeLoop {
    fn new(n: usize, seed: u64) -> Self {
        Self {
            load: LoadStream::new(n, seed),
            writes: SmallRng::seed_from_u64(seed ^ 0xde17a),
            query_ms: Rounds::default(),
            traced_query_ms: Vec::new(),
            delta_ms: Rounds::default(),
            since_delta: Vec::new(),
            probe_hits: 0,
            probe_misses: 0,
            spmm_rows_calls: Vec::new(),
            agg_rows: Vec::new(),
            answered: 0,
            batches: 0,
            rps: Vec::new(),
        }
    }

    fn step(&mut self, server: &mut Server, trace: bool, layers: &mut Layers, tally: &mut Tally) {
        let vs = self.load.next_batch();
        let traced = trace && self.batches % 2 == 1;
        self.batches += 1;
        if traced {
            self.trace_layers(server, &vs, layers);
        }
        let t = Instant::now();
        let out = server.query(&vs);
        let q = ms(t.elapsed());
        tally.attempted += 1;
        self.answered += vs.len();
        if traced {
            self.traced_query_ms.push(q);
        } else {
            self.query_ms.push(q);
        }
        self.since_delta.push((vs, out));
        if self.batches.is_multiple_of(WRITE_EVERY) {
            let n = server.model().vertices() as u32;
            let u = self.writes.gen_range(0..n);
            let v = (u + self.writes.gen_range(1..n)) % n;
            let t = Instant::now();
            server.apply_delta(&[(u, v)]);
            self.delta_ms.push(ms(t.elapsed()));
            tally.attempted += 1;
            self.since_delta.clear();
        }
    }

    fn trace_layers(&mut self, server: &mut Server, vs: &[u32], layers: &mut Layers) {
        let hops = server.model().layers();
        let a_hat_t = server.model().a_hat_t().clone();
        let t = Instant::now();
        let block = khop_induced(&a_hat_t, vs, hops);
        layers.add("graph.khop_ms", ms(t.elapsed()));
        layers.add("graph.khop_vertices", block.vertices.len() as f64);
        // Layer-0 aggregation rows of the batch: what the cache holds.
        let rows: Vec<u32> = block
            .locals_within(hops as u32 - 1)
            .into_iter()
            .map(|l| block.vertices[l as usize])
            .collect();
        let feats = server.model().features().clone();
        let mut out = Dense::zeros(rows.len(), feats.cols());
        let t = Instant::now();
        mggcn_sparse::spmm_rows(&a_hat_t, &rows, &feats, &mut out, Accumulate::Overwrite);
        let secs = t.elapsed().as_secs_f64();
        let nnz: usize = rows.iter().map(|&r| a_hat_t.row_nnz(r as usize)).sum();
        let bytes = kernels::spmm_bytes(rows.len(), rows.len(), nnz, feats.cols());
        layers.add("sparse.spmm_rows_ms", secs * 1e3);
        layers.add("sparse.spmm_rows_gbps", bytes / secs / 1e9);
        self.spmm_rows_calls.push((secs, (2 * nnz * feats.cols()) as f64, bytes));
        self.agg_rows.push(rows.len() as f64);
        // The probe counts cache hits and misses that the query counts
        // again; keep them out of the hit rate.
        let before = *server.cache().stats();
        let t = Instant::now();
        drop(server.batch_schedule(vs, 0));
        layers.add("serve.batch_schedule_ms", ms(t.elapsed()));
        let after = *server.cache().stats();
        self.probe_hits += after.hits - before.hits;
        self.probe_misses += after.misses - before.misses;
    }
}

/// Fold one traced epoch's executor measurement into the layer samples.
fn record_measured(m: &mggcn_core::MeasuredEpoch, outer_ms: f64, layers: &mut Layers) {
    let cat = |c: Category| m.category_seconds.get(&c).copied().unwrap_or(0.0) * 1e3;
    let total: f64 = m.category_seconds.values().sum::<f64>() * 1e3;
    let wall = m.wall_seconds * 1e3;
    let (gemm, spmm, comm, barrier) =
        (cat(Category::GeMM), cat(Category::SpMM), cat(Category::Comm), cat(Category::Barrier));
    layers.add("exec.wall_ms", wall);
    layers.add("exec.gemm_ms", gemm);
    layers.add("exec.spmm_ms", spmm);
    layers.add("exec.comm_ms", comm);
    layers.add("exec.other_ms", total - gemm - spmm - comm - barrier);
    layers.add("exec.barrier_ms", barrier);
    layers.add("exec.barrier_share", barrier / total.max(f64::MIN_POSITIVE));
    layers.add("exec.bodies", m.bodies_run as f64);
    layers.add("core.overhead_ms", outer_ms - wall);
}

/// L0 and L1 at the workload's shapes: GeMM at the per-GPU training shape,
/// or for the serving workload at a batch's layer-0 aggregation rows; SpMM
/// on GPU 0's forward tiles; collectives at the tile and weight sizes.
fn per_layer_kernels(
    spec: &Spec,
    graph: &Graph,
    seed: u64,
    block_rows: f64,
    report: &mut Report,
) -> kernels::Roofline {
    let threads = mggcn_exec::pool_size();
    let roof = kernels::host_roofline(threads, report);
    let d0 = graph.features.cols();
    let cfg = model_config(graph, seed);
    let problem = Problem::from_graph(graph, &cfg, &train_options(Backend::Simulated));
    let real = problem.real.as_ref().expect("materialized problem");
    let rows = problem.rows_of(0);
    let gemm_rows = if spec.serves_mostly() { block_rows.round().max(1.0) as usize } else { rows };
    kernels::dense_kernels(gemm_rows, d0, HIDDEN, &roof, report);
    kernels::spmm_kernel(&real.fwd_tiles[..GPUS], &real.features, &roof, report);
    let weight_len = cfg.param_count();
    kernels::comm_kernels(GPUS, rows * d0, weight_len, report);
    roof
}

/// Skewed query stream: `LoadGenConfig::skewed` traces, regenerated in
/// chunks so a run of any length never repeats a chunk.
struct LoadStream {
    n: usize,
    seed: u64,
    chunk: u64,
    buf: Vec<u32>,
    pos: usize,
}

impl LoadStream {
    const CHUNK: usize = BATCH * 1024;

    fn new(n: usize, seed: u64) -> Self {
        Self { n, seed, chunk: 0, buf: Vec::new(), pos: 0 }
    }

    fn next_batch(&mut self) -> Vec<u32> {
        if self.pos + BATCH > self.buf.len() {
            let cfg =
                LoadGenConfig::skewed(1e4, Self::CHUNK, self.n, self.seed ^ (self.chunk << 32));
            self.buf = mggcn_serve::generate_load(&cfg).into_iter().map(|r| r.vertex).collect();
            self.chunk += 1;
            self.pos = 0;
        }
        self.pos += BATCH;
        self.buf[self.pos - BATCH..self.pos].to_vec()
    }
}

/// Served answers must be bit-identical to `forward_full` rows of the
/// current model: the answers given since the last delta, and a fresh
/// batch asked after all deltas.
fn check_served(
    server: &mut Server,
    since_delta: &[(Vec<u32>, Dense)],
    load: &mut LoadStream,
    tally: &mut Tally,
) {
    let reference = server.model().forward_full();
    let fresh = load.next_batch();
    let fresh_out = server.query(&fresh);
    for (vs, out) in since_delta.iter().chain(std::iter::once(&(fresh, fresh_out))) {
        let same = vs.iter().enumerate().all(|(i, &v)| {
            out.row(i)
                .iter()
                .zip(reference.row(v as usize))
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        tally.check(same, || format!("served rows differ from forward_full for {vs:?}"));
    }
}

/// The threaded run's leading losses must equal a `Backend::Simulated`
/// run's bit for bit.
fn check_against_simulated(graph: &Graph, seed: u64, losses: &[f64], tally: &mut Tally) {
    let cfg = model_config(graph, seed);
    let opts = train_options(Backend::Simulated);
    let problem = Problem::from_graph(graph, &cfg, &opts);
    let mut sim = match Trainer::new(problem, cfg, opts) {
        Ok(t) => t,
        Err(e) => {
            tally.check(false, || format!("simulated trainer: {e}"));
            return;
        }
    };
    for (e, &threaded) in losses.iter().take(SIM_CHECK_EPOCHS).enumerate() {
        let want = sim.train_epoch().map(|r| r.loss);
        tally.check(want.as_ref().is_ok_and(|w| w.to_bits() == threaded.to_bits()), || {
            format!("epoch {e}: threaded loss {threaded} vs simulated {want:?}")
        });
    }
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else, which inflates
/// every wall-clock figure of the run.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set of this process so far (Linux `VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("peak RSS: no VmHWM line")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// A scaled-down copy of each workload runs clean, traced and not.
    #[test]
    fn smoke_run_of_each_workload_passes() {
        for w in WORKLOADS {
            let small =
                Spec { vertices: 400, setup_epochs: w.setup_epochs.min(3), acc_floor: 0.0, ..w };
            for trace in [false, true] {
                let out = run(&small, RunOptions { seed: 7, seconds: 0.6, trace })
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                assert_eq!(out.tally.failed, 0, "{} trace={trace}", w.name);
                let set = if trace { PER_LAYER } else { END_TO_END };
                out.report.render(set, out.tally).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn a_wrong_served_answer_is_counted_as_failed() {
        let small = Spec { vertices: 300, ..WORKLOADS[1] };
        let mut tally = Tally::default();
        let s = setup(&small, 3, &mut tally).expect("setup");
        let mut server = s.server;
        let mut load = LoadStream::new(300, 3);
        let vs = load.next_batch();
        let mut out = server.query(&vs);
        out.set(0, 0, out.get(0, 0) + 1.0);
        check_served(&mut server, &[(vs, out)], &mut load, &mut tally);
        assert_eq!(tally.failed, 1, "the corrupted answer fails, the fresh batch passes");
    }

    #[test]
    fn a_perturbed_loss_fails_the_simulated_identity_check() {
        let graph = sbm::generate(&SbmConfig::community_benchmark(200, COMMUNITIES), 5);
        let mut tally = Tally::default();
        check_against_simulated(&graph, 5, &[f64::NAN], &mut tally);
        assert_eq!(tally, Tally { attempted: 1, failed: 1 });
    }
}
