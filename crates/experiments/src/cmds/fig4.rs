//! Figure 4 — absolute convergence (RMSE & error-rate vs *wall-clock*),
//! with the paper's optimum markers: the wall-clock at which ASGD reaches
//! its best error, and the (earlier) wall-clock at which IS-ASGD reaches
//! the same error.
//!
//! These runs use **real Hogwild threads** over the lock-free shared
//! model, so wall-clock numbers reflect genuine parallel execution at
//! whatever `--threads` the host supports (paper: 16/32/44 on a 44-core
//! Xeon; see DESIGN.md for the substitution note). SVRG-ASGD joins only
//! on the News20-like profile, as in the paper.

use crate::common::{merge_results, paper_objective, run_averaged, Ctx};
use isasgd_core::{train, Algorithm, Execution, SvrgVariant, TrainConfig};
use isasgd_datagen::PaperProfile;
use isasgd_metrics::interpolate::time_to_error;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_metrics::{traces_to_json, Trace};

/// Runs the Figure-4 sweep; returns all traces and writes
/// `fig4_traces.json` for fig5/summary to reuse.
pub fn run(ctx: &mut Ctx) -> Vec<Trace> {
    println!("\n=== Figure 4: absolute convergence (wall-clock axis) ===\n");
    let obj = paper_objective();
    let threads = ctx.settings.threads.clone();
    let mut traces: Vec<Trace> = Vec::new();
    let mut table = TextTable::new(vec![
        "dataset",
        "threads",
        "algo",
        "train_s",
        "best_err",
        "t_to_asgd_opt_s",
        "speedup_vs_asgd",
        "setup_overhead",
    ]);
    let mut csv = String::from("dataset,algo,threads,epoch,wall_secs,rmse,error_rate,objective\n");

    for p in PaperProfile::ALL {
        let data = ctx.dataset_training(p);
        let ds = &data.dataset;
        let epochs = ctx.settings.epochs_for(p);
        let mut cfg = TrainConfig::default()
            .with_epochs(epochs)
            .with_step_size(p.paper_step_size())
            .with_seed(ctx.settings.seed);
        cfg.importance = isasgd_core::ImportanceScheme::GradNormBound { radius: 1.0 };

        // Sequential SGD baseline for the wall-clock axis.
        let reps = ctx.settings.reps.max(1);
        eprintln!("[fig4] {} SGD ({reps} reps)…", p.id());
        let sgd = run_averaged(reps, ctx.settings.seed, |seed| {
            let c = cfg.with_seed(seed);
            train(ds, &obj, Algorithm::Sgd, Execution::Sequential, &c, p.id()).expect("sgd run")
        });
        push_csv(&mut csv, p.id(), 1, &sgd.trace);
        traces.push(sgd.trace.clone());

        for &k in &threads {
            if k < 2 {
                continue; // threads=1 is the SGD row above
            }
            let exec = Execution::Threads(k);
            // Interleave the two algorithms rep by rep, alternating which
            // goes first, so slow machine-state drift (thermal, cache,
            // background load) cannot masquerade as an algorithmic
            // wall-clock difference; traces and timings are then averaged
            // per algorithm.
            eprintln!(
                "[fig4] {} ASGD/IS-ASGD k={k} ({reps} interleaved reps)…",
                p.id()
            );
            let seeds = isasgd_sampling::rng::derive_seeds(ctx.settings.seed, reps);
            let mut asgd_runs = Vec::with_capacity(reps);
            let mut is_runs = Vec::with_capacity(reps);
            for (i, &seed) in seeds.iter().enumerate() {
                let c = cfg.with_seed(seed);
                let run_asgd = || train(ds, &obj, Algorithm::Asgd, exec, &c, p.id()).expect("asgd");
                let run_is =
                    || train(ds, &obj, Algorithm::IsAsgd, exec, &c, p.id()).expect("is-asgd");
                if i % 2 == 0 {
                    asgd_runs.push(run_asgd());
                    is_runs.push(run_is());
                } else {
                    is_runs.push(run_is());
                    asgd_runs.push(run_asgd());
                }
            }
            let asgd = merge_results(asgd_runs);
            let is_asgd = merge_results(is_runs);

            // The paper's optimum marker: ASGD's best error, and when
            // each algorithm first reaches it.
            let opt = asgd.trace.best_error().unwrap_or(f64::NAN);
            let t_asgd = time_to_error(&asgd.trace, opt);
            let t_is = time_to_error(&is_asgd.trace, opt);
            let speedup = match (t_asgd, t_is) {
                (Some(a), Some(b)) if b > 0.0 => Some(a / b),
                _ => None,
            };

            for (r, label, sp) in [(&asgd, "ASGD", None), (&is_asgd, "IS-ASGD", speedup)] {
                table.row(vec![
                    p.id().to_string(),
                    k.to_string(),
                    label.to_string(),
                    fmt_num(r.train_secs),
                    fmt_num(r.trace.best_error().unwrap_or(f64::NAN)),
                    time_to_error(&r.trace, opt).map_or("-".into(), fmt_num),
                    sp.map_or("-".into(), fmt_num),
                    format!("{:.1}%", r.setup_overhead() * 100.0),
                ]);
                push_csv(&mut csv, p.id(), k, &r.trace);
            }
            traces.push(asgd.trace);
            traces.push(is_asgd.trace);

            // SVRG-ASGD wall-clock only on the dense small profile.
            if p == PaperProfile::News20 {
                eprintln!("[fig4] {} SVRG-ASGD k={k}…", p.id());
                let svrg = run_averaged(1, ctx.settings.seed, |seed| {
                    let c = cfg.with_seed(seed);
                    train(
                        ds,
                        &obj,
                        Algorithm::SvrgAsgd(SvrgVariant::Literature),
                        exec,
                        &c,
                        p.id(),
                    )
                    .expect("svrg")
                });
                table.row(vec![
                    p.id().to_string(),
                    k.to_string(),
                    "SVRG-ASGD".to_string(),
                    fmt_num(svrg.train_secs),
                    fmt_num(svrg.trace.best_error().unwrap_or(f64::NAN)),
                    time_to_error(&svrg.trace, opt).map_or("-".into(), fmt_num),
                    "-".to_string(),
                    "-".to_string(),
                ]);
                push_csv(&mut csv, p.id(), k, &svrg.trace);
                traces.push(svrg.trace);
            }
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Expected shape (paper Fig. 4): IS-ASGD reaches ASGD's optimum error\n\
         earlier (paper: 1.13–1.54×); SVRG-ASGD's wall-clock is far behind on\n\
         sparse data despite its per-epoch advantage; IS setup overhead is a few\n\
         percent of training time.\n"
    );
    ctx.write("fig4.txt", &rendered);
    ctx.write("fig4_curves.csv", &csv);
    ctx.write("fig4_traces.json", &traces_to_json(&traces));
    traces
}

fn push_csv(csv: &mut String, dataset: &str, threads: usize, trace: &Trace) {
    for q in &trace.points {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            dataset,
            trace.algorithm,
            threads,
            q.epoch,
            q.wall_secs,
            q.rmse,
            q.error_rate,
            q.objective
        ));
    }
}
