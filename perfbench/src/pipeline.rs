//! One file-to-model run: the calls `isasgd train` makes, in one process,
//! with a clock only around each of the three.

use crate::workloads::{Workload, LOCAL_EPOCHS};
use isasgd_core::{Dataset, Trace};
use isasgd_model::SavedModel;
use std::path::Path;
use std::time::Instant;

/// What one run measured and produced.
pub struct Run {
    /// Libsvm file to saved model.
    pub wall_s: f64,
    /// `read_file`.
    pub load_s: f64,
    /// Size of the libsvm file read.
    pub file_bytes: u64,
    /// `SavedModel::from_dense(..).save`.
    pub save_s: f64,
    /// Size of the saved model file. Hogwild races perturb the digits of
    /// the weights, so engine runs vary it by a few bytes.
    pub save_bytes: u64,
    /// Engine: `RunResult::setup_secs`. Cluster: the part of the call
    /// outside timed rounds.
    pub plan_s: f64,
    /// Engine: `RunResult::train_secs`. Cluster: last trace `wall_secs`.
    pub train_s: f64,
    /// Engine: `RunResult::eval_secs`. Cluster: not reported (0).
    pub epoch_eval_s: f64,
    /// The part of the call the program itself times: setup, train and
    /// eval seconds (engine) or round seconds (cluster).
    pub reported_s: f64,
    pub trace: Trace,
    pub model: Vec<f64>,
    /// Error rate the program reports for its final model.
    pub reported_err: f64,
    pub counts: Counts,
    pub data: Dataset,
}

/// Counts that must repeat exactly across runs on one data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub rows: u64,
    pub nnz: u64,
    pub steps: u64,
    pub commits: u64,
    pub wire_tx_bytes: u64,
    pub wire_rx_bytes: u64,
    /// Cluster runs are deterministic, so their final error repeats
    /// bit for bit; engine runs race (Hogwild) and record `None`.
    pub final_err_bits: Option<u64>,
}

impl Run {
    pub fn setup_s(&self) -> f64 {
        self.load_s + self.plan_s
    }

    /// Wall time not covered by the timed calls or the program's own
    /// split of the training call.
    pub fn unaccounted_s(&self) -> f64 {
        self.wall_s - (self.load_s + self.reported_s + self.save_s)
    }

    /// Per-round training seconds (cluster runs), from trace differences.
    pub fn round_secs(&self) -> Vec<f64> {
        self.trace
            .points
            .windows(2)
            .map(|w| w[1].wall_secs - w[0].wall_secs)
            .collect()
    }
}

/// Loads `data`, trains `w` on it, and saves the model to `model_out`.
pub fn run(w: &Workload, data: &Path, model_out: &Path, seed: u64) -> Result<Run, String> {
    let obj = w.objective();
    let name = data.to_string_lossy();
    let t0 = Instant::now();
    let ds =
        isasgd_sparse::libsvm::read_file(data, None).map_err(|e| format!("reading {name}: {e}"))?;
    let t1 = Instant::now();
    let trained = if w.is_cluster() {
        isasgd_cluster::run(&ds, &obj, &w.cluster_config(seed))
            .map(Trained::Cluster)
            .map_err(|e| e.to_string())
    } else {
        isasgd_core::train(
            &ds,
            &obj,
            w.algorithm(),
            w.execution(),
            &w.train_config(seed),
            &name,
        )
        .map(Trained::Engine)
        .map_err(|e| e.to_string())
    }?;
    let t2 = Instant::now();
    let (model, algorithm) = trained.model();
    SavedModel::from_dense(model, algorithm, &name, w.step_size, w.epochs, seed)
        .and_then(|m| m.save(model_out))
        .map_err(|e| format!("saving {}: {e}", model_out.display()))?;
    let t3 = Instant::now();

    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let (wall_s, load_s, call_s, save_s) = (secs(t0, t3), secs(t0, t1), secs(t1, t2), secs(t2, t3));
    let file_len = |p: &Path| {
        std::fs::metadata(p)
            .map(|m| m.len())
            .map_err(|e| e.to_string())
    };
    let (file_bytes, save_bytes) = (file_len(data)?, file_len(model_out)?);
    let rows = ds.n_samples() as u64;
    let nnz = ds.nnz() as u64;
    Ok(match trained {
        Trained::Engine(r) => Run {
            plan_s: r.setup_secs,
            train_s: r.train_secs,
            epoch_eval_s: r.eval_secs,
            reported_s: r.setup_secs + r.train_secs + r.eval_secs,
            reported_err: r.final_metrics.error_rate,
            counts: Counts {
                rows,
                nnz,
                steps: r.steps,
                commits: r.sampler_commits.last().copied().unwrap_or(0),
                wire_tx_bytes: 0,
                wire_rx_bytes: 0,
                final_err_bits: None,
            },
            trace: r.trace,
            model: r.model,
            wall_s,
            load_s,
            file_bytes,
            save_s,
            save_bytes,
            data: ds,
        },
        Trained::Cluster(r) => {
            let train_s = r.trace.points.last().map_or(0.0, |p| p.wall_secs);
            let last = r.rounds.last().ok_or("cluster run has no rounds")?;
            Run {
                plan_s: call_s - train_s,
                train_s,
                epoch_eval_s: 0.0,
                reported_s: train_s,
                reported_err: last.error_rate,
                counts: Counts {
                    rows,
                    nnz,
                    steps: (r.syncs * LOCAL_EPOCHS) as u64 * rows,
                    commits: 0,
                    wire_tx_bytes: r.net.iter().map(|s| s.tx_total_bytes()).sum(),
                    wire_rx_bytes: r.net.iter().map(|s| s.rx_total_bytes()).sum(),
                    final_err_bits: Some(last.error_rate.to_bits()),
                },
                trace: r.trace,
                model: r.model,
                wall_s,
                load_s,
                file_bytes,
                save_s,
                save_bytes,
                data: ds,
            }
        }
    })
}

enum Trained {
    Engine(isasgd_core::RunResult),
    Cluster(isasgd_cluster::ClusterRun),
}

impl Trained {
    fn model(&self) -> (&[f64], &str) {
        match self {
            Trained::Engine(r) => (&r.model, &r.trace.algorithm),
            Trained::Cluster(r) => (&r.model, &r.trace.algorithm),
        }
    }
}
