//! `multilevel`: `MultilevelScheduler::run_report` with the default ratios
//! and a heuristics-only base, on ~3k-node fine-grained DAGs (refinement
//! dominates) and ~50k-node coarse-grained GraphBLAS DAGs (the base solve
//! dominates).  No phase has a binding clock; refinement phases stop at
//! their step limit or local minimum.
//!
//! Multilevel phases have no public entry on the solve path, so the traced
//! run records the `MultilevelReport` timings the program returns and times
//! `coarsen_with` directly as a cross-check.

use crate::check::check_cost;
use crate::flat::{model_metrics, time_model, UNBOUNDED};
use crate::inputs::{bicgstab, fine, machines, pagerank, Rng};
use crate::instance::{digest as digest_items, with_baselines, Instance, SolveLog};
use crate::stats::{Span, Tracer};
use crate::{rounds, timed_setup, Outcome};
use bsp_model::{Dag, Machine};
use bsp_sched::multilevel::MultilevelReport;
use bsp_sched::multilevel::{coarsen_with, CoarsenConfig};
use bsp_sched::{MultilevelConfig, MultilevelScheduler, PipelineConfig};
use std::time::Instant;

/// Nodes per fine-grained DAG.
const FINE_NODES: usize = 3_000;
/// Iterations giving ~50k-node coarse-grained DAGs (6 and 13 nodes each).
const PAGERANK_ITERS: usize = 8_333;
const BICGSTAB_ITERS: usize = 3_846;

/// One machine class per DAG, so a round stays a few seconds long while
/// every class meets both grains.
fn items(seed: u64) -> Vec<(String, Dag, Machine)> {
    let machine = |name: &str| {
        let (_, m) = machines()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("a known machine class");
        (name.to_string(), m)
    };
    let fine_dag = |kind: &str| fine(kind, FINE_NODES, &mut Rng::derive(seed, kind));
    [
        ("spmv", fine_dag("spmv"), machine("commheavy")),
        ("exp", fine_dag("exp"), machine("numa")),
        ("cg", fine_dag("cg"), machine("uniform")),
        ("pagerank", pagerank(PAGERANK_ITERS), machine("numa")),
        ("bicgstab", bicgstab(BICGSTAB_ITERS), machine("commheavy")),
    ]
    .into_iter()
    .map(|(kind, dag, (mname, m))| (format!("{kind}/{mname}"), dag, m))
    .collect()
}

pub fn digest(seed: u64) -> u64 {
    digest_items(&items(seed))
}

fn config() -> MultilevelConfig {
    MultilevelConfig {
        base: PipelineConfig::heuristics_only().with_hill_climb_time(UNBOUNDED),
        refine_time_limit: UNBOUNDED,
        final_comm_time_limit: UNBOUNDED,
        ..MultilevelConfig::default()
    }
}

/// Every ratio's cost is recorded and none beats the selected schedule.
fn check_report(report: &MultilevelReport) -> Result<(), String> {
    match report.ratio_outcomes.iter().map(|r| r.cost).min() {
        Some(best) if best != report.final_cost => Err(format!(
            "selected cost {} but a ratio reached {best}",
            report.final_cost
        )),
        None if !report.used_base_only => Err("no ratio outcome reported".into()),
        _ => Ok(()),
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

    let config = config();
    let scheduler = MultilevelScheduler::new(config.clone());
    let mut log = SolveLog::new(instances.len());
    let mut contractions = 0usize;
    let mut refine_phases = 0usize;
    let mut critical_path = 0.0;
    let phase = |name: &'static str, dur_s: f64, tracer: &mut Tracer| {
        tracer.spans.push(Span {
            name,
            start_s: 0.0,
            dur_s,
        })
    };
    let n_rounds = rounds(seconds, |_| {
        for (i, inst) in instances.iter().enumerate() {
            let (dag, machine) = (&inst.dag, &inst.machine);
            let t = Instant::now();
            let report = scheduler.run_report(dag, machine);
            let dt = t.elapsed().as_secs_f64();
            let result = check_cost(dag, machine, &report.schedule, report.final_cost)
                .and_then(|cost| log.record(i, dt, cost))
                .and_then(|()| check_report(&report));
            if trace && result.is_ok() {
                phase("solve", dt, &mut tracer);
                let t = report.total_timings();
                phase("ml.coarsen", t.coarsen_seconds, &mut tracer);
                phase("ml.base_solve", t.base_solve_seconds, &mut tracer);
                phase("ml.uncontract", t.uncontract_seconds, &mut tracer);
                phase("ml.refine", t.refine_seconds, &mut tracer);
                phase("ml.final_sweep", t.final_sweep_seconds, &mut tracer);
                phase("ml.final_comm", t.final_comm_seconds, &mut tracer);
                // The ratio runs go concurrently; the slowest one's phases
                // are what the solve waits for.
                critical_path += report
                    .ratio_outcomes
                    .iter()
                    .map(|r| {
                        let t = &r.timings;
                        t.coarsen_seconds
                            + t.base_solve_seconds
                            + t.uncontract_seconds
                            + t.refine_seconds
                            + t.final_sweep_seconds
                            + t.final_comm_seconds
                    })
                    .fold(0.0, f64::max);
                contractions += t.coarsen_stats.contractions;
                refine_phases += t.refine_phases;
                // Cross-check of the reported coarsening time.
                for r in &report.ratio_outcomes {
                    let target = (dag.n() as f64 * r.ratio).round() as usize;
                    let cfg = CoarsenConfig {
                        threads: bsp_sched::parallel_budget(
                            config.effective_threads() / config.coarsen_ratios.len(),
                        ),
                        ..CoarsenConfig::default()
                    };
                    tracer.span("coarsen_with", || coarsen_with(dag, target, &cfg));
                }
                time_model(&mut tracer, dag, machine, &report.schedule);
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
        m.insert("ml.coarsen_s", per_round("ml.coarsen"));
        m.insert("ml.contractions", contractions as f64 / n_rounds as f64);
        m.insert("ml.base_solve_s", per_round("ml.base_solve"));
        m.insert("ml.uncontract_s", per_round("ml.uncontract"));
        m.insert("ml.refine_s", per_round("ml.refine"));
        m.insert("ml.refine_phases", refine_phases as f64 / n_rounds as f64);
        m.insert(
            "ml.final_comm_s",
            per_round("ml.final_comm") + per_round("ml.final_sweep"),
        );
        m.insert("baselines.s", tracer.tally("baselines").sum());
        model_metrics(&tracer, &mut out);
        let solve = tracer.tally("solve").sum();
        eprintln!(
            "layer accounting: slowest ratio's phases {critical_path:.3} s over solves \
             {solve:.3} s (share {:.3})",
            critical_path / solve
        );
        eprintln!(
            "coarsen cross-check: coarsen_with {:.3} s against reported {:.3} s",
            tracer.tally("coarsen_with").sum(),
            tracer.tally("ml.coarsen").sum()
        );
        tracer.write_summary();
    }
    eprintln!("rounds: {n_rounds}");
    out
}
