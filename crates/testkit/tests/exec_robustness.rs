//! Failure semantics of the threaded execution backend: a worker dying
//! mid-epoch must surface as a prompt `Err` — never a deadlock — and must
//! not corrupt anything a checkpoint restore cannot repair.
//!
//! The injected fault kills one worker partway through a training epoch,
//! while other workers are blocked on barriers and fences that the dead
//! worker will never signal. The executor's failure flag plus its
//! re-checking waits turn that into bounded-time unwinding.

use mggcn_core::checkpoint::Checkpoint;
use mggcn_core::config::{GcnConfig, TrainOptions};
use mggcn_core::problem::Problem;
use mggcn_core::trainer::Trainer;
use mggcn_exec::{execute, Backend};
use mggcn_graph::generators::sbm::{self, SbmConfig};
use mggcn_sched::{FaultPlan, Injector, Kill};
use std::time::{Duration, Instant};

#[test]
fn injected_worker_death_fails_fast_and_checkpoint_recovers() {
    if std::env::var("MGGCN_THREADS").is_err() {
        std::env::set_var("MGGCN_THREADS", "4");
    }
    let g = sbm::generate(&SbmConfig::community_benchmark(96, 3), 17);
    let cfg = GcnConfig::new(g.features.cols(), &[8], g.classes);
    let mut opts = TrainOptions::quick(4);
    opts.backend = Backend::Threaded;
    let trainer = |opts: &TrainOptions| {
        let problem = Problem::from_graph(&g, &cfg, opts);
        Trainer::new(problem, cfg.clone(), opts.clone()).expect("fits")
    };

    // Healthy prefix: two threaded epochs, then checkpoint.
    let mut t = trainer(&opts);
    t.train(2).expect("healthy epochs");
    let ck = Checkpoint::from_trainer(&t);

    // Inject: GPU 1's worker dies at its 5th dispatch of the next epoch,
    // while its peers may already have written device state. The epoch
    // must fail, promptly.
    let inj =
        Injector::new(FaultPlan { kills: vec![Kill { gpu: 1, seq: 5 }], ..FaultPlan::none() });
    let sched = t.epoch_schedule();
    t.state().reset_scratch();
    let start = Instant::now();
    let err = execute(sched, t.state(), &inj).expect_err("a dead worker must fail the epoch");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(30),
        "failure took {elapsed:?}; workers must not hang on a dead peer"
    );
    assert_eq!(inj.fired().len(), 1, "the kill fired");
    assert_eq!(err.gpu, 1, "error names the dead worker: {err}");
    let msg = err.to_string();
    assert!(msg.contains("injected worker death"), "error lost the fault tag: {msg}");
    assert!(msg.contains("panicked"), "error does not name the failure mode: {msg}");

    // Recovery: restore the pre-fault checkpoint into the *same* trainer
    // (whose device state the aborted epoch may have half-written) and
    // train on. The result must be bit-identical to a fresh trainer
    // resumed from the same checkpoint — the fault left no residue a
    // restore cannot clear.
    ck.restore_into(&mut t).expect("restore into the faulted trainer");
    let after = t.train_epoch().expect("training must continue after recovery");
    assert!(after.loss.is_finite());

    let mut clean = trainer(&opts);
    ck.restore_into(&mut clean).expect("restore into a fresh trainer");
    let want = clean.train_epoch().expect("clean resumed epoch");
    assert_eq!(after.loss, want.loss, "recovered epoch loss must be bit-identical");
    let (ga, gb) = (t.state().gpu(0), clean.state().gpu(0));
    for (l, (x, y)) in ga.weights.iter().zip(&gb.weights).enumerate() {
        assert_eq!(x.as_slice(), y.as_slice(), "recovered weights differ at layer {l}");
    }
}
