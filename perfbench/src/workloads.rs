//! The three workloads: what data each generates, how it trains, and the
//! error-rate target and bound its correctness checks use.

use isasgd_cluster::{ClusterConfig, TransportConfig, WireEncoding};
use isasgd_core::{
    Algorithm, CommitPolicy, Execution, ImportanceScheme, LogisticLoss, Objective, Regularizer,
    SamplingStrategy, TrainConfig,
};
use isasgd_datagen::PaperProfile;

/// Hogwild threads (engine) or nodes (cluster): every workload fits a
/// 2-core host.
pub const WORKERS: usize = 2;

/// Data sets generated per invocation. Convergence, and with it
/// `time_to_target_s` and `final_err`, differs by 10-15% from one data
/// set to the next; the median over several keeps those two metrics
/// steady from one `--seed` to another.
pub const DATASETS: usize = 8;

/// The seed of data set `i` of the invocation with `--seed seed`. Runs on
/// that data set train with the same seed. Consecutive `--seed` values
/// give disjoint data sets.
pub fn data_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(DATASETS as u64).wrapping_add(i as u64)
}

/// Local passes per cluster round. Two halve the round barriers a run
/// waits on, which halves how much CPU time taken by other tenants of a
/// shared host stretches the run.
pub const LOCAL_EPOCHS: usize = 2;

/// Which runtime trains the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Runtime {
    /// `isasgd_core::train` with IS-ASGD on `WORKERS` Hogwild threads.
    Engine {
        sampling: SamplingStrategy,
        commit: CommitPolicy,
    },
    /// `isasgd_cluster::run` with `WORKERS` nodes over TCP loopback.
    ClusterTcp,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub profile: PaperProfile,
    pub runtime: Runtime,
    /// Epochs (engine) or synchronization rounds of `LOCAL_EPOCHS` passes
    /// each (cluster).
    pub epochs: usize,
    pub step_size: f64,
    /// Training error rate whose first crossing `time_to_target_s` times.
    /// It is reached in the second half of a run, where the crossing time
    /// varies less from one data set to the next than early on.
    pub target_err: f64,
    /// A run whose saved model errs above this is counted as failed.
    pub max_final_err: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "kdd-static-hogwild",
        profile: PaperProfile::KddBridge,
        runtime: Runtime::Engine {
            sampling: SamplingStrategy::Static,
            commit: CommitPolicy::EpochBoundary,
        },
        epochs: 8,
        step_size: 0.5,
        target_err: 0.06,
        max_final_err: 0.08,
    },
    Workload {
        name: "kdd-adaptive-every256",
        profile: PaperProfile::KddBridge,
        runtime: Runtime::Engine {
            sampling: SamplingStrategy::Adaptive,
            commit: CommitPolicy::EveryK(256),
        },
        epochs: 8,
        step_size: 0.5,
        target_err: 0.02,
        max_final_err: 0.03,
    },
    Workload {
        name: "url-cluster-tcp",
        profile: PaperProfile::Url,
        runtime: Runtime::ClusterTcp,
        epochs: 8,
        step_size: 0.05,
        target_err: 0.02,
        max_final_err: 0.03,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Logistic loss with L1 regularization (η = 1e-5), as `isasgd train`
    /// defaults to.
    pub fn objective(&self) -> Objective<LogisticLoss> {
        Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-5 })
    }

    pub fn importance(&self) -> ImportanceScheme {
        ImportanceScheme::GradNormBound { radius: 1.0 }
    }

    pub fn algorithm(&self) -> Algorithm {
        Algorithm::IsAsgd
    }

    pub fn execution(&self) -> Execution {
        Execution::Threads(WORKERS)
    }

    /// The strategy every worker draws from.
    pub fn sampling(&self) -> SamplingStrategy {
        match self.runtime {
            Runtime::Engine { sampling, .. } => sampling,
            Runtime::ClusterTcp => SamplingStrategy::Static,
        }
    }

    pub fn commit(&self) -> CommitPolicy {
        match self.runtime {
            Runtime::Engine { commit, .. } => commit,
            Runtime::ClusterTcp => CommitPolicy::EpochBoundary,
        }
    }

    /// The engine configuration `isasgd train` builds for this workload.
    pub fn train_config(&self, seed: u64) -> TrainConfig {
        let mut cfg = TrainConfig::default()
            .with_epochs(self.epochs)
            .with_step_size(self.step_size)
            .with_seed(seed);
        cfg.importance = self.importance();
        cfg.sampling = Some(self.sampling());
        cfg.commit = self.commit();
        cfg
    }

    /// The cluster configuration `isasgd train --cluster 2
    /// --cluster-transport tcp` builds for this workload.
    pub fn cluster_config(&self, seed: u64) -> ClusterConfig {
        ClusterConfig {
            nodes: WORKERS,
            rounds: self.epochs,
            local_epochs: LOCAL_EPOCHS,
            step_size: self.step_size,
            importance: self.importance(),
            sampling: self.sampling(),
            commit: self.commit(),
            transport: TransportConfig::Tcp {
                bind: "127.0.0.1:0".into(),
                encoding: WireEncoding::Auto,
            },
            seed,
            ..ClusterConfig::default()
        }
    }

    pub fn is_cluster(&self) -> bool {
        self.runtime == Runtime::ClusterTcp
    }
}
