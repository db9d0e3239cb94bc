//! An independent schedule checker.  It re-derives validity and cost from
//! the paper's definitions and calls neither `bsp_model::validate` nor any
//! cost function of the program.
//!
//! * Every `(v, p1, p2, s) ∈ Γ` sends a value `p1` holds in superstep `s`:
//!   `v` was computed there with `τ(v) ≤ s`, or arrived in a phase `s' < s`.
//! * Every edge `(u, v)` with `π(u) = π(v)` has `τ(u) ≤ τ(v)`; otherwise
//!   `u` reaches `π(v)` in a phase `s < τ(v)`.
//! * Cost is `Σ_s (max_p work + g · max_p max(send, recv) + ℓ)`, with sends
//!   and receives weighted by `c(v) · λ(p1, p2)`, over supersteps
//!   `0..=max(τ, Γ steps)`.

use bsp_model::{BspSchedule, Dag, Machine};
use std::collections::HashMap;

/// Checks `sched` and returns its recomputed cost.
pub fn check(dag: &Dag, machine: &Machine, sched: &BspSchedule) -> Result<u64, String> {
    let n = dag.n();
    let p = machine.p();
    let (proc, step) = (&sched.assignment.proc, &sched.assignment.superstep);
    if proc.len() != n || step.len() != n {
        return Err(format!("assignment covers {} of {n} nodes", proc.len()));
    }
    if let Some(v) = (0..n).find(|&v| proc[v] >= p) {
        return Err(format!("node {v} on processor {} of {p}", proc[v]));
    }

    // First superstep from which `v` is usable on processor `q`.
    let mut ready: HashMap<(usize, usize), usize> = HashMap::new();
    let mut comms: Vec<(usize, usize, usize, usize)> = sched
        .comm
        .steps()
        .iter()
        .map(|c| (c.step, c.node, c.from, c.to))
        .collect();
    comms.sort_unstable();
    for &(s, v, from, to) in &comms {
        if v >= n || from >= p || to >= p || from == to {
            return Err(format!("malformed transfer ({v}, {from}, {to}, {s})"));
        }
        let held = if proc[v] == from {
            step[v]
        } else {
            ready.get(&(v, from)).copied().unwrap_or(usize::MAX)
        };
        if held > s {
            return Err(format!(
                "node {v} sent from {from} in phase {s} before it is there"
            ));
        }
        // Arrivals in phase `s` are usable from superstep `s + 1`; a
        // same-phase forward therefore fails the check above.
        let slot = ready.entry((v, to)).or_insert(usize::MAX);
        *slot = (*slot).min(s + 1);
    }
    for (u, v) in dag.edges() {
        let ok = if proc[u] == proc[v] {
            step[u] <= step[v]
        } else {
            ready.get(&(u, proc[v])).is_some_and(|&r| r <= step[v])
        };
        if !ok {
            return Err(format!("edge ({u}, {v}) is not satisfied"));
        }
    }

    let last = step
        .iter()
        .copied()
        .chain(comms.iter().map(|c| c.0))
        .max()
        .unwrap_or(0);
    let steps = last + 1;
    let mut work = vec![0u64; steps * p];
    let mut send = vec![0u64; steps * p];
    let mut recv = vec![0u64; steps * p];
    for v in 0..n {
        work[step[v] * p + proc[v]] += dag.work(v);
    }
    for &(s, v, from, to) in &comms {
        let h = dag.comm(v) * machine.lambda(from, to);
        send[s * p + from] += h;
        recv[s * p + to] += h;
    }
    let mut cost = 0u64;
    for s in 0..steps {
        let row = s * p..(s + 1) * p;
        let w = work[row.clone()].iter().max().copied().unwrap_or(0);
        let h = row.map(|i| send[i].max(recv[i])).max().unwrap_or(0);
        cost += w + machine.g() * h + machine.latency();
    }
    Ok(cost)
}

/// Checks `sched` and that its recomputed cost equals `reported`.
pub fn check_cost(
    dag: &Dag,
    machine: &Machine,
    sched: &BspSchedule,
    reported: u64,
) -> Result<u64, String> {
    let cost = check(dag, machine, sched)?;
    if cost != reported {
        return Err(format!("reported cost {reported}, recomputed {cost}"));
    }
    Ok(cost)
}
