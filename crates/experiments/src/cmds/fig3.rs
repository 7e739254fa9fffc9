//! Figure 3 — iterative convergence (RMSE & error-rate vs *epoch*) of
//! SGD, ASGD, IS-ASGD (and SVRG-ASGD on the News20-like profile) under
//! the paper's τ ∈ {16, 32, 44} concurrency sweep.
//!
//! Concurrency is reproduced with the deterministic bounded-staleness
//! simulator (DESIGN.md §2), so these curves are exact functions of the
//! seed — per-epoch behaviour does not depend on host parallelism.

use crate::common::{paper_objective, run_averaged, Ctx};
use isasgd_core::{train, Algorithm, Execution, SvrgVariant, TrainConfig};
use isasgd_datagen::PaperProfile;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_metrics::trace::best_error_curve_by_epoch;
use isasgd_metrics::{interpolate::time_to_target, traces_to_json, Trace};

/// Simulated workers backing each τ (the paper equates τ with threads; we
/// shard data over min(τ, 8) workers to keep shards non-trivial).
fn workers_for(tau: usize) -> usize {
    tau.clamp(1, 8)
}

/// Runs the Figure-3 sweep, returning all traces (also written as JSON).
pub fn run(ctx: &mut Ctx) -> Vec<Trace> {
    println!("\n=== Figure 3: iterative convergence (epoch axis) ===\n");
    let obj = paper_objective();
    let taus = ctx.settings.taus.clone();
    let mut traces: Vec<Trace> = Vec::new();
    let mut table = TextTable::new(vec![
        "dataset",
        "tau",
        "algo",
        "final_rmse",
        "final_err",
        "best_err",
        "epochs_to_asgd_opt",
    ]);
    let mut csv = String::from("dataset,algo,tau,epoch,rmse,error_rate,objective\n");

    for p in PaperProfile::ALL {
        let data = ctx.dataset_training(p);
        let ds = &data.dataset;
        let epochs = ctx.settings.epochs_for(p);
        let mut cfg = TrainConfig::default()
            .with_epochs(epochs)
            .with_step_size(p.paper_step_size())
            .with_seed(ctx.settings.seed);
        // Gradient-norm importance weights: for the bounded-derivative
        // logistic loss, sup‖∇φ_i‖ = ‖x_i‖, which is the Eq. 11/12 bound
        // (the smoothness constant over-weights heavy rows and
        // destabilizes the corrections; see DESIGN.md §"importance
        // scheme").
        cfg.importance = isasgd_core::ImportanceScheme::GradNormBound { radius: 1.0 };

        // SGD baseline: sequential (τ-independent).
        let avg = ctx.settings.avg_runs;
        eprintln!("[fig3] {} SGD ({epochs} epochs, {avg}-seed avg)…", p.id());
        let sgd = run_averaged(avg, ctx.settings.seed, |seed| {
            let c = cfg.with_seed(seed);
            train(ds, &obj, Algorithm::Sgd, Execution::Sequential, &c, p.id()).expect("sgd run")
        });
        traces.push(sgd.trace.clone());

        for &tau in &taus {
            let exec = Execution::Simulated {
                tau,
                workers: workers_for(tau),
            };
            let mut runs = vec![(Algorithm::Asgd, "ASGD"), (Algorithm::IsAsgd, "IS-ASGD")];
            // The paper evaluates SVRG-ASGD only on News20 (elsewhere it
            // "fails to finish training in a reasonable time").
            if p == PaperProfile::News20 {
                runs.push((Algorithm::SvrgAsgd(SvrgVariant::Literature), "SVRG-ASGD"));
            }
            let mut asgd_best = f64::NAN;
            for (algo, label) in runs {
                eprintln!("[fig3] {} {} tau={tau}…", p.id(), label);
                let r = run_averaged(avg, ctx.settings.seed, |seed| {
                    let c = cfg.with_seed(seed);
                    train(ds, &obj, algo, exec, &c, p.id()).expect("fig3 run")
                });
                let best = r.trace.best_error().unwrap_or(f64::NAN);
                if label == "ASGD" {
                    asgd_best = best;
                }
                // Iterative acceleration: epochs for this algo to reach
                // ASGD's optimum error.
                let to_opt = if asgd_best.is_finite() {
                    time_to_target(&best_error_curve_by_epoch(&r.trace), asgd_best)
                } else {
                    None
                };
                table.row(vec![
                    p.id().to_string(),
                    tau.to_string(),
                    label.to_string(),
                    fmt_num(r.trace.points.last().map_or(f64::NAN, |q| q.rmse)),
                    fmt_num(r.trace.points.last().map_or(f64::NAN, |q| q.error_rate)),
                    fmt_num(best),
                    to_opt.map_or("-".into(), fmt_num),
                ]);
                for q in &r.trace.points {
                    csv.push_str(&format!(
                        "{},{},{},{},{},{},{}\n",
                        p.id(),
                        label,
                        tau,
                        q.epoch,
                        q.rmse,
                        q.error_rate,
                        q.objective
                    ));
                }
                traces.push(r.trace);
            }
        }
        // SGD rows in the CSV for plotting alongside.
        for q in &sgd.trace.points {
            csv.push_str(&format!(
                "{},SGD,0,{},{},{},{}\n",
                p.id(),
                q.epoch,
                q.rmse,
                q.error_rate,
                q.objective
            ));
        }
    }

    let rendered = table.render();
    println!("{rendered}");
    println!(
        "Expected shape (paper Fig. 3): IS-ASGD ≥ ASGD everywhere per epoch; the\n\
         gap grows on the low-ψ KDD-like profiles; ASGD degrades as τ rises while\n\
         IS-ASGD stays near SGD; SVRG-ASGD has the best per-epoch curve on the\n\
         small dense profile.\n"
    );
    ctx.write("fig3.txt", &rendered);
    ctx.write("fig3_curves.csv", &csv);
    ctx.write("fig3_traces.json", &traces_to_json(&traces));
    traces
}
