//! Solver instances and what the two solver workloads share: baseline
//! costs, per-solve bookkeeping and the end-to-end metrics built from it.

use crate::check::check;
use crate::inputs::{digest_dag, digest_machine, Fnv};
use crate::stats::{geomean, Tally};
use crate::Outcome;
use bsp_model::{Dag, Machine};
use bsp_sched::{BlEstScheduler, CilkScheduler, HDaggScheduler, Scheduler};

/// One DAG on one machine, with the cost the solver's result is compared to.
pub struct Instance {
    pub name: String,
    pub dag: Dag,
    pub machine: Machine,
    /// Cheapest of Cilk, HDagg and BL-EST, costed by the benchmark's checker.
    pub baseline: u64,
}

/// The cost of the best of the three fast baselines (ETF is left out: it
/// takes seconds per instance and was never the best on these inputs).
pub fn best_baseline(dag: &Dag, machine: &Machine) -> Result<u64, String> {
    let schedulers: [&dyn Scheduler; 3] = [
        &CilkScheduler::default(),
        &HDaggScheduler::default(),
        &BlEstScheduler,
    ];
    let mut best = u64::MAX;
    for s in schedulers {
        let cost = check(dag, machine, &s.schedule(dag, machine))
            .map_err(|e| format!("baseline {}: {e}", s.name()))?;
        best = best.min(cost);
    }
    Ok(best)
}

/// Builds instances from `(name, dag, machine)` triples, computing baselines.
pub fn with_baselines(items: Vec<(String, Dag, Machine)>) -> Vec<Instance> {
    items
        .into_iter()
        .map(|(name, dag, machine)| {
            let baseline = best_baseline(&dag, &machine)
                .unwrap_or_else(|e| panic!("{name}: invalid baseline schedule: {e}"));
            Instance {
                name,
                dag,
                machine,
                baseline,
            }
        })
        .collect()
}

/// Digest of an instance list's DAGs and machines.
pub fn digest(items: &[(String, Dag, Machine)]) -> u64 {
    let mut h = Fnv::new();
    for (name, dag, machine) in items {
        h.bytes(name.as_bytes());
        digest_dag(&mut h, dag);
        digest_machine(&mut h, machine);
    }
    h.finish()
}

/// Per-instance solve times and costs across the rounds of a run.
pub struct SolveLog {
    times: Vec<Tally>,
    costs: Vec<Option<u64>>,
}

impl SolveLog {
    pub fn new(instances: usize) -> Self {
        SolveLog {
            times: vec![Tally::default(); instances],
            costs: vec![None; instances],
        }
    }

    /// Records one solve; a cost that differs from an earlier round's is an
    /// error, since every solve runs to its local minimum, not to a clock.
    pub fn record(&mut self, i: usize, seconds: f64, cost: u64) -> Result<(), String> {
        self.times[i].push(seconds);
        match self.costs[i].replace(cost) {
            Some(prev) if prev != cost => {
                Err(format!("cost {cost} after {prev} in an earlier round"))
            }
            _ => Ok(()),
        }
    }

    /// `solve_s`, `throughput_rps` (solves per second), `latency_p50_ms`,
    /// `latency_p99_ms` (of whole passes) and `cost_ratio` into `out`.
    pub fn end_to_end(&self, instances: &[Instance], out: &mut Outcome) {
        // Per-instance medians, so a run's length does not tilt the sum.
        let solve_s: f64 = self.times.iter().map(Tally::median).sum();
        // One request of a solver workload is one pass over the instance
        // set: a single solve's time says more about which instance sits in
        // the middle than about the solver.
        let mut passes = Tally::default();
        let rounds = self.times.iter().map(Tally::len).min().unwrap_or(0);
        for r in 0..rounds {
            passes.push(self.times.iter().map(|t| t.values()[r]).sum());
        }
        let ratios: Vec<f64> = instances
            .iter()
            .zip(&self.costs)
            .map(|(inst, c)| c.unwrap_or(0) as f64 / inst.baseline as f64)
            .collect();
        for ((inst, t), c) in instances.iter().zip(&self.times).zip(&self.costs) {
            eprintln!(
                "  {:<20} n={:<6} edges={:<7} cost={:<8} baseline={:<8} median {:.3} s {:?}",
                inst.name,
                inst.dag.n(),
                inst.dag.num_edges(),
                c.unwrap_or(0),
                inst.baseline,
                t.median(),
                t.values()
            );
        }
        let m = &mut out.metrics;
        m.insert("solve_s", solve_s);
        m.insert("throughput_rps", instances.len() as f64 / solve_s);
        m.insert("latency_p50_ms", passes.median() * 1e3);
        m.insert("latency_p99_ms", passes.quantile(0.99) * 1e3);
        m.insert("cost_ratio", geomean(&ratios));
    }
}
