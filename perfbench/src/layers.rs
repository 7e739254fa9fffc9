//! Per-layer replays for the traced run. Each one times calls into a
//! single crate's public functions, outside the file-to-model wall clock,
//! on the data and final model of a run that just finished.

use crate::workloads::{Workload, WORKERS};
use isasgd_balance::{decide, BalancePolicy};
use isasgd_cluster::Message;
use isasgd_core::solvers::plan::build_plan;
use isasgd_core::solvers::sgd::SgdSolver;
use isasgd_core::solvers::{Feedback, Sched, Solver};
use isasgd_core::{importance_weights, CommitPolicy, Dataset};
use isasgd_sampling::rng::derive_seeds;
use isasgd_sampling::ScheduleStream;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each whole-dataset call; the median is reported.
const REPS: usize = 5;

/// Median seconds of `reps` calls of `f`.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&mut t)
}

/// `isasgd_losses::importance_weights` over the whole dataset.
pub fn importance_s(w: &Workload, ds: &Dataset) -> f64 {
    let obj = w.objective();
    median_secs(REPS, || {
        importance_weights(ds, &obj.loss, obj.reg, w.importance())
    })
}

/// `isasgd_balance::decide` on the dataset's importance weights, with the
/// seed the plan derives for it.
pub fn decide_s(w: &Workload, ds: &Dataset, seed: u64) -> f64 {
    let obj = w.objective();
    let weights = importance_weights(ds, &obj.loss, obj.reg, w.importance());
    let balance_seed = derive_seeds(seed, WORKERS + 1)[WORKERS];
    median_secs(REPS, || {
        decide(&weights, BalancePolicy::default(), balance_seed, WORKERS)
    })
}

/// `solvers::plan::build_plan` for this workload's configuration.
pub fn plan_s(w: &Workload, ds: &Dataset, seed: u64) -> Result<f64, String> {
    let obj = w.objective();
    let cfg = w.train_config(seed);
    build_plan(ds, &obj, &cfg, WORKERS, w.sampling()).map_err(|e| e.to_string())?;
    Ok(median_secs(REPS, || {
        build_plan(ds, &obj, &cfg, WORKERS, w.sampling())
    }))
}

/// Per-step costs from one epoch of worker 0's plan, replayed on one
/// thread from the trained model.
#[derive(Debug, Default)]
pub struct StepCosts {
    /// `ScheduleStream::fill_chunk`, per draw.
    pub draw_ns: f64,
    /// `Objective::margin`, per drawn row.
    pub margin_ns: f64,
    /// `Solver::compute` + `Solver::apply`, per step.
    pub apply_ns: f64,
    /// `ScheduleStream::observe` calls that did not commit, per call.
    pub observe_ns: f64,
    /// `ScheduleStream::observe` calls that committed, per commit.
    pub commit_us: f64,
}

pub fn replay_epoch(
    w: &Workload,
    ds: &Dataset,
    model: &[f64],
    seed: u64,
) -> Result<StepCosts, String> {
    let obj = w.objective();
    let cfg = w.train_config(seed);
    let mut plan = build_plan(ds, &obj, &cfg, WORKERS, w.sampling()).map_err(|e| e.to_string())?;
    let data = &plan.data;
    let proto = plan.feedback.as_ref();
    let stream = &mut plan.streams[0];
    // The pull stride the threaded engine uses.
    let chunk_len = match w.commit() {
        CommitPolicy::EveryK(k) => k.max(1),
        CommitPolicy::EpochBoundary => ScheduleStream::DEFAULT_CHUNK,
    };
    let mut solver = SgdSolver::new(&obj);
    solver.init(data).map_err(|e| e.to_string())?;
    let lambda = cfg.step_size;
    let mut weights = model.to_vec();
    let clock_ns = clock_read_ns();

    let (mut draw, mut margin, mut apply) = (0.0, 0.0, 0.0);
    let (mut observe, mut commit) = (0.0, 0.0);
    let (mut draws, mut observed, mut commits) = (0u64, 0u64, 0u64);
    let mut chunk: Vec<Sched> = Vec::with_capacity(chunk_len);
    let mut obs: Vec<(u32, f64)> = Vec::new();
    loop {
        let t = Instant::now();
        let pulled = stream.fill_chunk(&mut chunk, chunk_len);
        draw += t.elapsed().as_secs_f64();
        if pulled == 0 {
            break;
        }
        draws += pulled as u64;

        let t = Instant::now();
        let mut acc = 0.0;
        for s in &chunk {
            acc += obj.margin(&data.row(s.row as usize), &weights);
        }
        black_box(acc);
        margin += t.elapsed().as_secs_f64();

        let t = Instant::now();
        for s in &chunk {
            let mut fb = if proto.is_some() {
                Feedback::into_buf(&mut obs)
            } else {
                Feedback::disabled()
            };
            let update = solver.compute(data, std::slice::from_ref(s), lambda, &weights, &mut fb);
            solver.apply(data, lambda, update, &mut weights);
        }
        apply += t.elapsed().as_secs_f64();

        if let Some(p) = proto {
            let left = stream.remaining();
            for (j, &(row, g)) in obs.iter().enumerate() {
                let age = left + (pulled - 1 - j);
                let version = stream.commit_version();
                let t = Instant::now();
                stream.observe(p, row as usize, g, age);
                let dt = t.elapsed().as_secs_f64() * 1e9 - clock_ns;
                if stream.commit_version() > version {
                    commit += dt;
                    commits += 1;
                } else {
                    observe += dt;
                    observed += 1;
                }
            }
            obs.clear();
        }
    }
    let per = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs / n as f64 };
    Ok(StepCosts {
        draw_ns: per(draw * 1e9, draws),
        margin_ns: per(margin * 1e9, draws),
        apply_ns: per(apply * 1e9, draws),
        observe_ns: per(observe, observed).max(0.0),
        commit_us: per(commit, commits).max(0.0) / 1e3,
    })
}

/// Nanoseconds one `Instant::now()` costs, subtracted from the per-call
/// timings above (each includes one clock read).
fn clock_read_ns() -> f64 {
    const N: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(N)
}

/// `Message::encode` / `Message::decode` throughput in GB/s on a
/// `ModelUpdate` carrying `model`. Fails if the frame does not round-trip.
pub fn codec_gbps(model: &[f64]) -> Result<(f64, f64), String> {
    const FRAMES: usize = 40;
    let msg = Message::ModelUpdate {
        node: 0,
        round: 1,
        model: model.to_vec(),
    };
    let mut buf = Vec::new();
    msg.encode(&mut buf);
    if Message::decode(&buf).map_err(|e| e.to_string())? != msg {
        return Err("ModelUpdate did not round-trip through the wire codec".into());
    }
    let gb = (buf.len() * FRAMES) as f64 / 1e9;
    let encode = median_secs(REPS, || {
        for _ in 0..FRAMES {
            buf.clear();
            msg.encode(&mut buf);
        }
        buf.len()
    });
    let decode = median_secs(REPS, || {
        for _ in 0..FRAMES {
            black_box(Message::decode(black_box(&buf)).is_ok());
        }
    });
    Ok((gb / encode, gb / decode))
}
