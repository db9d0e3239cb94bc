//! `pipeline_flat`: the Figure-3 framework without its ILP stage (BSPg and
//! Source, each followed by HC and HCcs) on ~20k-node fine-grained DAGs.
//!
//! The local-search budget is an hour, so every search stops at its local
//! minimum and solve time measures work.  The traced run rebuilds each
//! branch from the public calls (initializer, `hc_improve`, `hccs_improve`)
//! and requires the same costs as `Pipeline::run_report`.

use crate::check::{check, check_cost};
use crate::inputs::{fine, machines, Rng};
use crate::instance::{digest as digest_items, with_baselines, Instance, SolveLog};
use crate::stats::Tracer;
use crate::{rounds, timed_setup, Outcome};
use bsp_model::{request_key, BspSchedule, Dag, Machine};
use bsp_sched::pipeline::BranchReport;
use bsp_sched::{
    hc_improve, hccs_improve, BspgScheduler, HillClimbConfig, Pipeline, PipelineConfig, Scheduler,
    SourceScheduler,
};
use std::time::{Duration, Instant};

/// Nodes per fine-grained DAG.
const NODES: usize = 20_000;

/// A local-search budget no instance comes near.
pub const UNBOUNDED: Duration = Duration::from_secs(3600);

fn items(seed: u64) -> Vec<(String, Dag, Machine)> {
    // A DAG of its own per instance: nine independent draws average out
    // more of one seed's luck than three shared ones.
    let mut out = Vec::new();
    for kind in ["spmv", "exp", "cg"] {
        for (mname, machine) in machines() {
            let name = format!("{kind}/{mname}");
            let dag = fine(kind, NODES, &mut Rng::derive(seed, &name));
            out.push((name, dag, machine));
        }
    }
    out
}

pub fn digest(seed: u64) -> u64 {
    digest_items(&items(seed))
}

/// The solver's default configuration without the ILP stage and with no
/// binding clock.
pub fn config() -> PipelineConfig {
    PipelineConfig::heuristics_only().with_hill_climb_time(UNBOUNDED)
}

/// One branch rebuilt from public calls, each timed under its layer's span.
/// Returns `(init cost, final cost)`; both searches must reach their local
/// minimum.
pub fn rebuild_branch(
    tracer: &mut Tracer,
    dag: &Dag,
    machine: &Machine,
    init: &dyn Scheduler,
    hc_moves: &mut usize,
) -> Result<(u64, u64), String> {
    let span = if init.name() == "BSPg" {
        "init.bspg"
    } else {
        "init.source"
    };
    let mut sched: BspSchedule = tracer.span(span, || {
        let mut s = init.schedule(dag, machine);
        s.normalize(dag);
        s
    });
    let init_cost = check(dag, machine, &sched)?;
    // The pipeline's 90/10 split of one budget between HC and HCcs.
    let hc_cfg = HillClimbConfig::with_time_limit(UNBOUNDED.mul_f64(0.9));
    let hccs_cfg = HillClimbConfig::with_time_limit(UNBOUNDED.mul_f64(0.1));
    let hc = tracer.span("hc.search", || {
        hc_improve(dag, machine, &mut sched, &hc_cfg)
    });
    let hccs = tracer.span("hccs.search", || {
        hccs_improve(dag, machine, &mut sched, &hccs_cfg)
    });
    *hc_moves += hc.steps;
    if !hc.reached_local_minimum || !hccs.reached_local_minimum {
        return Err(format!(
            "{} branch stopped before its local minimum",
            init.name()
        ));
    }
    Ok((init_cost, check(dag, machine, &sched)?))
}

/// Each branch ends no costlier than its initializer.
pub fn check_branches(branches: &[BranchReport]) -> Result<(), String> {
    match branches.iter().find(|b| b.local_search_cost > b.init_cost) {
        Some(b) => Err(format!(
            "{} branch ends at {} above its initial {}",
            b.init_name, b.local_search_cost, b.init_cost
        )),
        None => Ok(()),
    }
}

/// Times `cost`, `validate` and `request_key` on one solved instance.
pub fn time_model(tracer: &mut Tracer, dag: &Dag, machine: &Machine, sched: &BspSchedule) {
    std::hint::black_box(tracer.span("model.cost", || sched.cost(dag, machine)));
    let _ = std::hint::black_box(tracer.span("model.validate", || sched.validate(dag, machine)));
    std::hint::black_box(tracer.span("model.fingerprint", || request_key(dag, machine)));
}

/// Model-layer metrics (median per call) from the tracer.
pub fn model_metrics(tracer: &Tracer, out: &mut Outcome) {
    for (span, metric) in [
        ("model.cost", "model.cost_us"),
        ("model.validate", "model.validate_us"),
        ("model.fingerprint", "model.fingerprint_us"),
    ] {
        out.metrics
            .insert(metric, tracer.tally(span).median() * 1e6);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let (instances, setup_s): (Vec<Instance>, f64) = timed_setup(|| with_baselines(items(seed)));
    out.metrics.insert("setup_s", setup_s);
    if trace {
        for inst in &instances {
            let _ = tracer.span("baselines", || {
                crate::instance::best_baseline(&inst.dag, &inst.machine)
            });
        }
    }

    let pipeline = Pipeline::new(config());
    let mut log = SolveLog::new(instances.len());
    let mut hc_moves = 0usize;
    // Σ over solves of the slower rebuilt branch: the pipeline runs its two
    // branches concurrently, so the slower one is what the solve waits for.
    let mut critical_path = 0.0;
    let n_rounds = rounds(seconds, |_| {
        for (i, inst) in instances.iter().enumerate() {
            let (dag, machine) = (&inst.dag, &inst.machine);
            let t = Instant::now();
            let report = pipeline.run_report(dag, machine);
            let dt = t.elapsed().as_secs_f64();
            let mut result = check_cost(dag, machine, &report.schedule, report.final_cost)
                .and_then(|cost| log.record(i, dt, cost))
                .and_then(|()| check_branches(&report.branches));
            if trace && result.is_ok() {
                tracer.spans.push(crate::stats::Span {
                    name: "solve",
                    start_s: 0.0,
                    dur_s: dt,
                });
                time_model(&mut tracer, dag, machine, &report.schedule);
                let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
                let mut slowest_branch = 0.0f64;
                for (init, branch) in inits.into_iter().zip(&report.branches) {
                    let t = Instant::now();
                    result = result.and_then(|()| {
                        let (init_cost, cost) =
                            rebuild_branch(&mut tracer, dag, machine, init, &mut hc_moves)?;
                        if (init_cost, cost) != (branch.init_cost, branch.local_search_cost) {
                            return Err(format!(
                                "rebuilt {} branch costs ({init_cost}, {cost}), pipeline ({}, {})",
                                branch.init_name, branch.init_cost, branch.local_search_cost
                            ));
                        }
                        Ok(())
                    });
                    slowest_branch = slowest_branch.max(t.elapsed().as_secs_f64());
                }
                critical_path += slowest_branch;
            }
            out.op(&inst.name, result);
        }
    });
    log.end_to_end(&instances, &mut out);
    eprintln!(
        "end to end: solve_s {:.4}, latency_p50_ms {:.2}",
        out.metrics["solve_s"], out.metrics["latency_p50_ms"]
    );

    if trace {
        let per_round = |name: &str| tracer.tally(name).sum() / n_rounds as f64;
        let m = &mut out.metrics;
        m.insert("init.bspg_s", per_round("init.bspg"));
        m.insert("init.source_s", per_round("init.source"));
        m.insert("hc.search_s", per_round("hc.search"));
        m.insert("hccs.search_s", per_round("hccs.search"));
        m.insert("hc.moves", hc_moves as f64 / n_rounds as f64);
        m.insert(
            "hc.moves_per_s",
            hc_moves as f64 / tracer.tally("hc.search").sum(),
        );
        m.insert("baselines.s", tracer.tally("baselines").sum());
        model_metrics(&tracer, &mut out);
        let solve = tracer.tally("solve").sum();
        eprintln!(
            "layer accounting: slower rebuilt branch {critical_path:.3} s over pipeline solves \
             {solve:.3} s (share {:.3})",
            critical_path / solve
        );
        tracer.write_summary();
    }
    eprintln!("rounds: {n_rounds}");
    out
}
