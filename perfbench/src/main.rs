//! The repo's file-to-model benchmark; see `README.md` beside this crate.
//!
//! ```text
//! perfbench gen  --workload <name> --seed <n> --dir <dir>
//! perfbench run  --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <dir>
//! perfbench once --workload <name> --seed <n> --dir <dir>
//! ```
//!
//! `gen` writes the workload's data sets to `<dir>/data-<i>.svm`. `run`
//! repeats the file-to-model pipeline on them for `<s>` seconds, checks
//! every run, prints each metric by name with its unit, and ends with one
//! JSON line. `once` makes one checked run on data set 0, for a peak
//! memory reading of a single run. Each exits 1 when a check fails and 2
//! on a usage or I/O error.

mod host;
mod layers;
mod pipeline;
mod stats;
mod workloads;

use isasgd_metrics::time_to_error;
use isasgd_model::SavedModel;
use pipeline::{Counts, Run};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{data_seed, Workload, DATASETS};

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args
        .next()
        .ok_or("usage: perfbench gen|run|once --workload <name> ...")?;
    let mut flags = HashMap::new();
    while let Some(k) = args.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k}"))?;
        let v = args.next().ok_or(format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), v);
    }
    let get = |k: &str| flags.get(k).ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let w = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let dir = PathBuf::from(get("dir")?);
    match cmd.as_str() {
        "gen" => gen(&w, seed, &dir).map(|()| 0),
        "once" => {
            let set: usize = get("set")?.parse().map_err(|e| format!("--set: {e}"))?;
            if set >= DATASETS {
                return Err(format!("--set must be below {DATASETS}"));
            }
            once(&w, seed, set, &dir)
        }
        "run" => {
            let seconds: f64 = get("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            let trace = match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            };
            bench(&w, seed, seconds, trace, &dir)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn data_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("data-{i}.svm"))
}

/// Generates the workload's training-calibrated data sets from `seed` and
/// writes each as a libsvm file, two at a time.
fn gen(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                scope.spawn(move || -> Result<(), String> {
                    for i in (t..DATASETS).step_by(2) {
                        gen_one(w, data_seed(seed, i), dir, i)?;
                    }
                    Ok(())
                })
            })
            .collect();
        workers.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "generator thread panicked".to_string())?
        })
    })
}

fn gen_one(w: &Workload, seed: u64, dir: &Path, i: usize) -> Result<(), String> {
    let g = isasgd_datagen::generate(&w.profile.training(), seed);
    let tmp = dir.join(format!("data-{i}.svm.tmp"));
    isasgd_sparse::libsvm::write_file(&g.dataset, &tmp).map_err(|e| e.to_string())?;
    // Flushed now, so that write-back does not compete with the runs.
    std::fs::File::open(&tmp)
        .and_then(|f| f.sync_all())
        .map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, data_path(dir, i)).map_err(|e| e.to_string())?;
    eprintln!(
        "[gen] {} data set {i} (seed {seed}): n={} d={} nnz={}",
        w.profile.id(),
        g.dataset.n_samples(),
        g.dataset.dim(),
        g.dataset.nnz()
    );
    Ok(())
}

/// What the checks and clocks took from one pipeline run.
struct Sample {
    wall_s: f64,
    setup_s: f64,
    train_s: f64,
    time_to_target_s: Option<f64>,
    samples_per_s: f64,
    final_err: f64,
    load_s: f64,
    load_mb_per_s: f64,
    epoch_eval_s: f64,
    save_s: f64,
    save_bytes: f64,
    eval_s: f64,
    unaccounted_s: f64,
    round_secs: Vec<f64>,
}

/// Correctness bookkeeping across every run of one invocation.
#[derive(Default)]
struct Book {
    attempted: u64,
    failed: u64,
    /// The first run's counts, per data set.
    counts: [Option<Counts>; DATASETS],
    count_mismatch: Option<String>,
}

impl Book {
    /// Checks one run: the saved model reloads equal to the trained one,
    /// its error matches what the program reported and stays under the
    /// workload's bound, the target is reached, and the exact counts
    /// match the first run's.
    fn check(&mut self, w: &Workload, set: usize, run: &Run, model_path: &Path) -> Sample {
        self.attempted += 1;
        let mut problems = Vec::new();
        let saved = match SavedModel::load(model_path) {
            Ok(m) => m.to_dense(),
            Err(e) => {
                problems.push(format!("saved model does not reload: {e}"));
                run.model.clone()
            }
        };
        let same = saved.len() == run.model.len()
            && saved
                .iter()
                .zip(&run.model)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            problems.push("reloaded model differs from the trained vector".into());
        }
        let t = Instant::now();
        let final_err = w.objective().eval(&run.data, &saved).error_rate;
        let eval_s = t.elapsed().as_secs_f64();
        if (final_err - run.reported_err).abs() > 1e-12 {
            problems.push(format!(
                "saved model errs {final_err} but the run reported {}",
                run.reported_err
            ));
        }
        if final_err > w.max_final_err {
            problems.push(format!("final_err {final_err} > bound {}", w.max_final_err));
        }
        let time_to_target_s = time_to_error(&run.trace, w.target_err);
        if time_to_target_s.is_none() {
            problems.push(format!("error rate never reached {}", w.target_err));
        }
        match &self.counts[set] {
            None => self.counts[set] = Some(run.counts.clone()),
            Some(first) if *first != run.counts => {
                self.count_mismatch
                    .get_or_insert(format!("data set {set}: {first:?} then {:?}", run.counts));
            }
            Some(_) => {}
        }
        eprintln!(
            "[run {}] data set {set}: wall {:.4} s, train {:.4} s, target at {}, final_err {final_err:.5}",
            self.attempted,
            run.wall_s,
            run.train_s,
            time_to_target_s.map_or("-".into(), |t| format!("{t:.4} s")),
        );
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!(
                "[check] run {} failed: {}",
                self.attempted,
                problems.join("; ")
            );
        }
        Sample {
            wall_s: run.wall_s,
            setup_s: run.setup_s(),
            train_s: run.train_s,
            time_to_target_s,
            samples_per_s: run.counts.steps as f64 / run.train_s,
            final_err,
            load_s: run.load_s,
            load_mb_per_s: run.file_bytes as f64 / 1e6 / run.load_s,
            epoch_eval_s: run.epoch_eval_s,
            save_s: run.save_s,
            save_bytes: run.save_bytes as f64,
            eval_s,
            unaccounted_s: run.unaccounted_s(),
            round_secs: run.round_secs(),
        }
    }
}

/// Median of one field over `samples`.
fn med(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    stats::median(&mut samples.iter().map(f).collect::<Vec<_>>())
}

fn check_data(dir: &Path) -> Result<(), String> {
    for i in 0..DATASETS {
        if !data_path(dir, i).is_file() {
            return Err(format!(
                "{} is missing (run `gen` first)",
                data_path(dir, i).display()
            ));
        }
    }
    Ok(())
}

/// One checked run on data set `set`.
fn once(w: &Workload, seed: u64, set: usize, dir: &Path) -> Result<i32, String> {
    check_data(dir)?;
    let model_path = dir.join("model.json");
    let run = pipeline::run(w, &data_path(dir, set), &model_path, data_seed(seed, set))?;
    let mut book = Book::default();
    book.check(w, set, &run, &model_path);
    Ok(if book.failed == 0 { 0 } else { 1 })
}

fn bench(w: &Workload, seed: u64, seconds: f64, trace: bool, dir: &Path) -> Result<i32, String> {
    check_data(dir)?;
    let model_path = dir.join("model.json");
    let mut book = Book::default();
    let run_on = |i: usize| pipeline::run(w, &data_path(dir, i), &model_path, data_seed(seed, i));

    // One untimed run first: the allocator reaches its steady state, as on
    // any run after the first. It also gives data set 0 the second run the
    // exact-count check compares.
    let warm = run_on(0)?;
    book.check(w, 0, &warm, &model_path);
    drop(warm);

    // Runs go round the data sets, each once untraced and, with --trace 1,
    // once traced right after, until the time is up and every data set has
    // been run.
    let (mut plain, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    let mut last: Option<(usize, Run)> = None;
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let mut runs = 0;
    while runs < DATASETS || t0.elapsed() < budget {
        let i = runs % DATASETS;
        for is_traced in [false, true].into_iter().take(1 + usize::from(trace)) {
            // The previous run's data is released before the next loads.
            drop(last.take());
            let run = match run_on(i) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("perfbench: run {} failed: {e}", book.attempted + 1);
                    return Ok(1);
                }
            };
            let sample = book.check(w, i, &run, &model_path);
            if is_traced { &mut traced } else { &mut plain }.push(sample);
            last = Some((i, run));
        }
        runs += 1;
    }
    if let Some(m) = &book.count_mismatch {
        eprintln!("perfbench: exact counts differ between runs of one data set: {m}");
        return Ok(1);
    }
    let (set, run) = last.as_ref().ok_or("no run completed")?;
    let counts = book.counts[0].clone().ok_or("no run completed")?;

    let mut out = Report::default();
    if trace {
        layer_metrics(
            &mut out,
            w,
            data_seed(seed, *set),
            run,
            &counts,
            &plain,
            &traced,
        )?;
    } else {
        let mut tts: Vec<f64> = plain.iter().filter_map(|s| s.time_to_target_s).collect();
        out.time("wall_s", &plain, |s| s.wall_s);
        out.time("setup_s", &plain, |s| s.setup_s);
        out.time("train_s", &plain, |s| s.train_s);
        out.push("time_to_target_s", stats::median(&mut tts), "s");
        out.push("samples_per_s", med(&plain, |s| s.samples_per_s), "1/s");
        out.push("final_err", med(&plain, |s| s.final_err), "ratio");
    }
    eprintln!(
        "[bench] {} seed={seed}: {} untraced and {} traced runs over {DATASETS} data sets after one warm-up",
        w.name,
        plain.len(),
        traced.len()
    );
    let curve: Vec<String> = run
        .trace
        .points
        .iter()
        .map(|p| format!("{:.3}s:{:.4}", p.wall_secs, p.error_rate))
        .collect();
    eprintln!(
        "[bench] last run's error rate by training time: {}",
        curve.join(" ")
    );
    let correct = book.failed == 0;
    out.print(correct, book.attempted, book.failed)?;
    Ok(if correct { 0 } else { 1 })
}

fn layer_metrics(
    out: &mut Report,
    w: &Workload,
    seed: u64,
    run: &Run,
    counts: &Counts,
    plain: &[Sample],
    traced: &[Sample],
) -> Result<(), String> {
    let ds = &run.data;
    out.time("sparse.load_s", traced, |s| s.load_s);
    out.push(
        "sparse.load_mb_per_s",
        med(traced, |s| s.load_mb_per_s),
        "MB/s",
    );
    out.push("sparse.rows", counts.rows as f64, "count");
    out.push("sparse.nnz", counts.nnz as f64, "count");

    let steps = layers::replay_epoch(w, ds, &run.model, seed)?;
    out.push("losses.importance_s", layers::importance_s(w, ds), "s");
    out.push("losses.margin_ns", steps.margin_ns, "ns");
    out.time("losses.eval_s", traced, |s| s.eval_s);
    out.push("balance.decide_s", layers::decide_s(w, ds, seed), "s");
    out.push("core.plan_s", layers::plan_s(w, ds, seed)?, "s");
    out.push("core.apply_ns", steps.apply_ns, "ns");
    out.time("core.epoch_eval_s", traced, |s| s.epoch_eval_s);
    out.push("core.steps", counts.steps as f64, "count");
    out.push("sampling.draw_ns", steps.draw_ns, "ns");
    out.push("sampling.observe_ns", steps.observe_ns, "ns");
    out.push("sampling.commit_us", steps.commit_us, "us");
    out.push("sampling.commits", counts.commits as f64, "count");
    out.time("model.save_s", traced, |s| s.save_s);
    out.push("model.save_bytes", med(traced, |s| s.save_bytes), "bytes");

    let (round_s, encode, decode) = if w.is_cluster() {
        let mut rounds: Vec<f64> = traced.iter().flat_map(|s| s.round_secs.clone()).collect();
        let (encode, decode) = layers::codec_gbps(&run.model)?;
        (stats::median(&mut rounds), encode, decode)
    } else {
        (0.0, 0.0, 0.0)
    };
    out.push("cluster.round_s", round_s, "s");
    out.push(
        "cluster.wire_tx_bytes",
        counts.wire_tx_bytes as f64,
        "bytes",
    );
    out.push(
        "cluster.wire_rx_bytes",
        counts.wire_rx_bytes as f64,
        "bytes",
    );
    out.push("cluster.encode_model_gbps", encode, "GB/s");
    out.push("cluster.decode_model_gbps", decode, "GB/s");

    let traced_wall = med(traced, |s| s.wall_s);
    out.time("traced_wall_s", traced, |s| s.wall_s);
    out.push(
        "trace_overhead_s",
        traced_wall - med(plain, |s| s.wall_s),
        "s",
    );
    out.time("unaccounted_s", traced, |s| s.unaccounted_s);

    out.push("host.nproc", host::nproc(), "count");
    out.push("host.memcpy_gbps", host::memcpy_gbps(), "GB/s");
    out.push("host.fma_gflops", host::fma_gflops(), "GFLOP/s");
    Ok(())
}

/// Metrics in print order.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit, String::new()));
    }

    /// A timing in seconds: the median over `samples`, printed with its
    /// quartiles and sample count.
    fn time(&mut self, name: &'static str, samples: &[Sample], f: impl Fn(&Sample) -> f64) {
        let (q1, q2, q3) = stats::quartiles(&mut samples.iter().map(f).collect::<Vec<_>>());
        let note = format!("  (median of {}; q1 {q1:.4}, q3 {q3:.4})", samples.len());
        self.metrics.push((name, q2, "s", note));
    }

    /// One line per metric, then the result as one JSON line.
    fn print(&self, correct: bool, attempted: u64, failed: u64) -> Result<(), String> {
        let mut json = Vec::new();
        for (name, value, unit, note) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("{name} is not finite ({value})"));
            }
            println!("{name:<28} {value:>16.6} {unit}{note}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            json.join(", ")
        );
        Ok(())
    }
}
