//! `serve_router`: the documented deployment in-process — a `Router` over
//! two `Server` shards with one worker each, over loopback TCP — driven by a
//! closed loop of two `PipelinedClient` connections with a fixed window.
//!
//! Each round starts a fresh deployment and replays the same seeded stream
//! of ~1.5k-node heuristics-mode requests, so every round meets the same
//! cache states.  Each connection's stream has two halves separated by a
//! barrier:
//!
//! * `Cold`: a first sighting of a new DAG;
//! * `Replay`: a repeat of an entry this connection already got back (the
//!   client sends it as an `FP` replay);
//! * `Warm`: a re-weighted variant of a settled cold entry (same structural
//!   family), at most one per entry;
//! * `Cross` (second half only): a full-payload repeat of an entry the other
//!   connection settled in the first half.
//!
//! No request carries a deadline and every service budget is an hour, so
//! every reply is deterministic and every solve stops at its local minimum.

use crate::check::{check, check_cost};
use crate::flat::{model_metrics, rebuild_branch, time_model, UNBOUNDED};
use crate::inputs::{digest_dag, digest_machine, fine, machines, reweight, Fnv, Rng};
use crate::instance::best_baseline;
use crate::stats::{geomean, Tally, Tracer};
use crate::{rounds, timed_setup, Outcome};
use bsp_model::{request_key, Assignment, BspSchedule, Dag, Machine};
use bsp_sched::{
    hc_improve, BspgScheduler, HillClimbConfig, Pipeline, PipelineConfig, Scheduler,
    SourceScheduler,
};
use bsp_serve::protocol::{
    encode_fingerprint_request, encode_request, encode_response, read_incoming, read_reply,
    read_response,
};
use bsp_serve::{
    Client, Completion, MetricsSnapshot, Mode, PipelinedClient, PlacementScope, Reply,
    RequestOptions, Router, RouterConfig, RouterHandle, ScheduleRequest, ScheduleResponse,
    ScheduleService, ScheduleSource, Server, ServerConfig, ServerHandle, ServiceConfig,
};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const NODES: usize = 1_500;
const SHARDS: usize = 2;
const CONNECTIONS: usize = 2;
/// Requests each connection keeps in flight.
const WINDOW: usize = 4;
/// Operations per connection per half.
const OPS_PER_HALF: usize = 60;
/// The fixed mix every connection follows, one letter per position and
/// repeating: `C` cold, `R` replay, `W` warm, `X` cross-connection repeat
/// (a replay in the first half).  Its shares are `exp_serve`'s documented
/// defaults (`--repeat-pct 40 --warm-pct 15`): 9 cold, 8 exact repeats and
/// 3 warm variants in 20.  A slot whose kind has nothing settled to refer to
/// yet falls back to cold; that depends on positions only, so the mix is the
/// same for every seed and the seed picks only the DAGs and the entries each
/// slot refers to.
const TEMPLATE: &[u8; 20] = b"CRCWCRCXCRCWRCRCXWCR";
/// Cold entries per round re-solved in-process and compared.
const COLD_SAMPLE: usize = 2;
/// FP replays per round timed through the router and at the owning shard.
const OVERHEAD_SAMPLE: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Cold,
    Replay,
    Warm,
    Cross,
}

impl Kind {
    fn expected_source(self) -> ScheduleSource {
        match self {
            Kind::Cold => ScheduleSource::Cold,
            Kind::Warm => ScheduleSource::CacheWarm,
            Kind::Replay | Kind::Cross => ScheduleSource::CacheExact,
        }
    }
}

struct Entry {
    dag: Arc<Dag>,
    machine: Machine,
    baseline: u64,
    /// For a warm variant, the entry it re-weights.
    base: Option<usize>,
}

#[derive(Clone, Copy)]
struct Op {
    kind: Kind,
    entry: usize,
}

struct Stream {
    entries: Vec<Entry>,
    /// `ops[half][connection]`.
    ops: Vec<Vec<Vec<Op>>>,
}

impl Stream {
    fn generate(seed: u64) -> Stream {
        let mut rng = Rng::derive(seed, "serve_router");
        let classes: Vec<Machine> = machines()
            .into_iter()
            .filter(|(n, _)| *n != "commheavy")
            .map(|(_, m)| m)
            .collect();
        let mut entries: Vec<(Arc<Dag>, Machine, Option<usize>)> = Vec::new();
        let mut ops = vec![vec![Vec::new(); CONNECTIONS]; 2];
        // Per connection: (entry, position) of everything it submitted, and
        // the cold entries that may still get a variant.
        let mut own: Vec<Vec<(usize, usize)>> = vec![Vec::new(); CONNECTIONS];
        let mut unvaried: Vec<Vec<(usize, usize)>> = vec![Vec::new(); CONNECTIONS];
        let mut first_half: Vec<Vec<usize>> = vec![Vec::new(); CONNECTIONS];
        let mut colds = 0usize;
        for (half, half_ops) in ops.iter_mut().enumerate() {
            for (c, conn_ops) in half_ops.iter_mut().enumerate() {
                for i in 0..OPS_PER_HALF {
                    let pos = half * OPS_PER_HALF + i;
                    let settled = |list: &Vec<(usize, usize)>| {
                        list.iter()
                            .enumerate()
                            .filter(|(_, &(_, p))| p + WINDOW <= pos)
                            .map(|(k, _)| k)
                            .collect::<Vec<_>>()
                    };
                    let pick =
                        |rng: &mut Rng, from: &[usize]| from[rng.below(from.len() as u64) as usize];
                    let slot = TEMPLATE[pos % TEMPLATE.len()];
                    let replays = settled(&own[c]);
                    let bases = settled(&unvaried[c]);
                    let other = &first_half[(c + 1) % CONNECTIONS];
                    let cross = half == 1 && slot == b'X' && !other.is_empty();
                    let op = if cross {
                        Op {
                            kind: Kind::Cross,
                            entry: pick(&mut rng, other),
                        }
                    } else if matches!(slot, b'R' | b'X') && !replays.is_empty() {
                        let k = pick(&mut rng, &replays);
                        Op {
                            kind: Kind::Replay,
                            entry: own[c][k].0,
                        }
                    } else if slot == b'W' && !bases.is_empty() {
                        let k = pick(&mut rng, &bases);
                        let (base, _) = unvaried[c].swap_remove(k);
                        let dag = reweight(&entries[base].0, &mut rng);
                        let machine = entries[base].1.clone();
                        entries.push((Arc::new(dag), machine, Some(base)));
                        Op {
                            kind: Kind::Warm,
                            entry: entries.len() - 1,
                        }
                    } else {
                        // Every (kind, machine) pair equally often.
                        let kind = ["spmv", "exp", "cg"][colds % 3];
                        let machine = classes[(colds / 3) % classes.len()].clone();
                        colds += 1;
                        let dag = fine(kind, NODES, &mut rng);
                        entries.push((Arc::new(dag), machine, None));
                        unvaried[c].push((entries.len() - 1, pos));
                        Op {
                            kind: Kind::Cold,
                            entry: entries.len() - 1,
                        }
                    };
                    if op.kind != Kind::Replay {
                        own[c].push((op.entry, pos));
                    }
                    if half == 0 && op.kind != Kind::Replay {
                        first_half[c].push(op.entry);
                    }
                    conn_ops.push(op);
                }
            }
        }
        let entries = entries
            .into_iter()
            .map(|(dag, machine, base)| Entry {
                baseline: 0,
                dag,
                machine,
                base,
            })
            .collect();
        Stream { entries, ops }
    }

    fn with_baselines(mut self) -> Stream {
        for e in &mut self.entries {
            e.baseline = best_baseline(&e.dag, &e.machine)
                .unwrap_or_else(|err| panic!("invalid baseline schedule: {err}"));
        }
        self
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for e in &self.entries {
            digest_dag(&mut h, &e.dag);
            digest_machine(&mut h, &e.machine);
            h.u64(e.base.map_or(u64::MAX, |b| b as u64));
        }
        for op in self.ops.iter().flatten().flatten() {
            h.u64(op.kind as u64);
            h.u64(op.entry as u64);
        }
        h.finish()
    }

    /// Writes the stream's makeup to stderr.
    fn describe(&self) {
        let ops: Vec<&Op> = self.ops.iter().flatten().flatten().collect();
        let count = |k: Kind| ops.iter().filter(|op| op.kind == k).count();
        let nodes = self.entries.iter().map(|e| e.dag.n());
        let edges = self.entries.iter().map(|e| e.dag.num_edges());
        eprintln!(
            "stream: {} entries ({} variants), nodes {}..={}, edges {}..={}; \
             per round {} cold, {} replay, {} warm, {} cross",
            self.entries.len(),
            self.entries.iter().filter(|e| e.base.is_some()).count(),
            nodes.clone().min().unwrap_or(0),
            nodes.max().unwrap_or(0),
            edges.clone().min().unwrap_or(0),
            edges.max().unwrap_or(0),
            count(Kind::Cold),
            count(Kind::Replay),
            count(Kind::Warm),
            count(Kind::Cross)
        );
    }

    /// The first `k` cold entries of connection 0.
    fn cold_sample(&self, k: usize) -> Vec<usize> {
        self.ops[0][0]
            .iter()
            .filter(|op| op.kind == Kind::Cold)
            .take(k)
            .map(|op| op.entry)
            .collect()
    }
}

pub fn digest(seed: u64) -> u64 {
    Stream::generate(seed).digest()
}

/// Solve threads per shard: shards × workers × threads ≤ host cores.
fn solve_threads() -> usize {
    (bsp_sched::resolve_threads(0) / SHARDS).max(1)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        cache_bytes: 512 << 20,
        local_search_budget: UNBOUNDED,
        warm_budget: UNBOUNDED,
        default_deadline: None,
        solve_threads: solve_threads(),
        ..ServiceConfig::default()
    }
}

/// The pipeline a shard runs for a cold heuristics-mode request.
fn cold_pipeline() -> Pipeline {
    let mut config = PipelineConfig::heuristics_only().with_thread_budget(solve_threads());
    config.hill_climb.time_limit = UNBOUNDED;
    Pipeline::new(config)
}

fn options() -> RequestOptions {
    RequestOptions::new().with_mode(Mode::HeuristicsOnly)
}

/// Two shards and a router; shut down explicitly or on drop.
struct Deployment {
    shards: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

impl Deployment {
    fn start() -> Deployment {
        let shards: Vec<ServerHandle> = (0..SHARDS)
            .map(|shard| {
                let config = ServerConfig {
                    workers: 1,
                    solve_threads: solve_threads(),
                    service: ServiceConfig {
                        placement: Some(PlacementScope {
                            shards: SHARDS,
                            shard,
                        }),
                        ..service_config()
                    },
                    ..ServerConfig::default()
                };
                Server::bind("127.0.0.1:0", config)
                    .and_then(Server::spawn)
                    .expect("start a shard on loopback")
            })
            .collect();
        let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
            .and_then(Router::spawn)
            .expect("start the router on loopback");
        Deployment {
            shards,
            router: Some(router),
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").addr()
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for shard in self.shards.drain(..) {
            shard.shutdown();
        }
    }
}

/// The first reply of each entry (its cold or warm solve): cost and
/// assignment.
type Firsts = Vec<Option<(u64, Arc<Assignment>)>>;

/// What one connection saw in one round.
#[derive(Default)]
struct ConnLog {
    attempted: u64,
    failures: Vec<String>,
    latency: Tally,
    by_source: [Tally; 3],
    server_micros: u64,
    /// Service-side micros by source, slots as in `by_source`.
    micros_by_source: [u64; 3],
    fp_fallbacks: u64,
    /// Every reply, checked after the timed window so the checker does not
    /// compete with the shards for the host's cores.
    replies: Vec<(Op, ScheduleResponse)>,
}

fn source_slot(s: ScheduleSource) -> usize {
    match s {
        ScheduleSource::CacheExact => 0,
        ScheduleSource::CacheWarm => 1,
        ScheduleSource::Cold => 2,
    }
}

/// Checks every reply of a round against the benchmark's own computations
/// and returns each entry's first reply.
fn verify_round(stream: &Stream, logs: &mut [ConnLog]) -> Firsts {
    let mut firsts: Firsts = vec![None; stream.entries.len()];
    for (op, resp) in logs.iter().flat_map(|l| &l.replies) {
        if matches!(op.kind, Kind::Cold | Kind::Warm) {
            firsts[op.entry] = Some((resp.cost, Arc::new(resp.schedule.assignment.clone())));
        }
    }
    for log in logs.iter_mut() {
        for (op, resp) in std::mem::take(&mut log.replies) {
            if let Err(e) = verify(stream, &firsts, op, &resp) {
                log.failures.push(format!("entry {}: {e}", op.entry));
            }
        }
    }
    firsts
}

fn verify(stream: &Stream, firsts: &Firsts, op: Op, resp: &ScheduleResponse) -> Result<(), String> {
    let e = &stream.entries[op.entry];
    check_cost(&e.dag, &e.machine, &resp.schedule, resp.cost)?;
    if resp.source != op.kind.expected_source() {
        return Err(format!(
            "{:?} request served as {}",
            op.kind,
            resp.source.as_str()
        ));
    }
    let (first, _) = firsts[op.entry].as_ref().ok_or("entry never solved")?;
    if *first != resp.cost {
        return Err(format!(
            "cost {} against the entry's first reply {first}",
            resp.cost
        ));
    }
    if let (Kind::Warm, Some(base)) = (op.kind, e.base) {
        let (_, seed) = firsts[base].as_ref().ok_or("warm seed never solved")?;
        let lazy = BspSchedule::from_assignment_lazy(&e.dag, (**seed).clone());
        let bound = check(&e.dag, &e.machine, &lazy)?;
        if resp.cost > bound {
            return Err(format!(
                "warm cost {} above its re-costed seed {bound}",
                resp.cost
            ));
        }
    }
    Ok(())
}

/// One connection's closed loop over both halves of the stream.
fn drive(stream: &Stream, addr: SocketAddr, c: usize, barrier: &Barrier) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = PipelinedClient::connect(addr).ok();
    let mut done = vec![false; stream.entries.len()];
    let mut in_flight: HashMap<u64, (Op, Instant)> = HashMap::new();
    let options = options();
    for half in &stream.ops {
        for &op in &half[c] {
            log.attempted += 1;
            let dep = match op.kind {
                Kind::Replay => Some(op.entry),
                Kind::Warm => stream.entries[op.entry].base,
                _ => None,
            };
            while client.is_some() && (in_flight.len() >= WINDOW || dep.is_some_and(|d| !done[d])) {
                recv_one(&mut client, &mut in_flight, &mut done, &mut log);
            }
            let Some(cl) = client.as_mut() else {
                log.failures.push("connection lost".into());
                continue;
            };
            let e = &stream.entries[op.entry];
            match cl.submit(&e.dag, &e.machine, &options) {
                Ok(id) => {
                    in_flight.insert(id, (op, Instant::now()));
                }
                Err(err) => {
                    log.failures.push(format!("submit: {err}"));
                    client = None;
                }
            }
        }
        while client.is_some() && !in_flight.is_empty() {
            recv_one(&mut client, &mut in_flight, &mut done, &mut log);
        }
        for _ in in_flight.drain() {
            log.failures.push("no reply".into());
        }
        barrier.wait();
    }
    log.fp_fallbacks = client.as_ref().map_or(0, PipelinedClient::fp_fallbacks);
    log
}

fn recv_one(
    client: &mut Option<PipelinedClient>,
    in_flight: &mut HashMap<u64, (Op, Instant)>,
    done: &mut [bool],
    log: &mut ConnLog,
) {
    let Some(cl) = client.as_mut() else { return };
    match cl.recv() {
        Ok(Completion::Ok(resp)) => {
            let Some((op, sent)) = in_flight.remove(&resp.id) else {
                log.failures
                    .push(format!("reply to unknown id {}", resp.id));
                return;
            };
            let latency = sent.elapsed().as_secs_f64();
            done[op.entry] = true;
            log.latency.push(latency);
            log.by_source[source_slot(resp.source)].push(latency);
            log.server_micros += resp.micros;
            log.micros_by_source[source_slot(resp.source)] += resp.micros;
            log.replies.push((op, resp));
        }
        Ok(Completion::Failed { id, error }) => {
            if let Some((op, _)) = in_flight.remove(&id) {
                done[op.entry] = true;
            }
            log.failures.push(format!("request {id}: {error}"));
        }
        Err(err) => {
            log.failures.push(format!("connection: {err}"));
            *client = None;
        }
    }
}

/// One FP replay on a fresh connection; `Some(seconds)` if it was a hit.
fn fp_alone(addr: SocketAddr, fingerprint: u128, structure: u64) -> Option<f64> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    let mut wire = String::new();
    encode_fingerprint_request(&mut wire, 1, fingerprint, Some(structure), None);
    let t = Instant::now();
    writer.write_all(wire.as_bytes()).ok()?;
    let reply = read_reply(&mut reader).ok()?;
    let dt = t.elapsed().as_secs_f64();
    matches!(reply, Reply::Ok(_)).then_some(dt)
}

/// Everything a traced round adds, measured after the timed window.
#[derive(Default)]
struct TraceState {
    tracer: Option<Tracer>,
    shard_metrics: MetricsSnapshot,
    placement: [u64; 3],
    cache: [u64; 3],
    router_fp: Tally,
    shard_fp: Tally,
    hc_moves: usize,
}

fn trace_round(
    stream: &Stream,
    dep: &Deployment,
    firsts: &Firsts,
    ts: &mut TraceState,
    out: &mut Outcome,
) {
    let tracer = ts.tracer.get_or_insert_with(Tracer::new);
    for shard in &dep.shards {
        let stats = shard.stats();
        ts.cache[0] += stats.cache.hits;
        ts.cache[1] += stats.cache.warm_hits;
        ts.cache[2] += stats.cache.misses;
        if let Some(snap) = Client::connect(shard.addr())
            .ok()
            .and_then(|mut c| c.metrics().ok())
            .and_then(|text| MetricsSnapshot::parse(&text).ok())
        {
            ts.shard_metrics.merge_from(&snap);
        }
    }
    if let Some(snap) = Client::connect(dep.addr())
        .ok()
        .and_then(|mut c| c.metrics().ok())
        .and_then(|text| MetricsSnapshot::parse(&text).ok())
    {
        for (i, decision) in ["affinity", "range_cold", "load_steered"]
            .iter()
            .enumerate()
        {
            let label = format!("decision=\"{decision}\"");
            ts.placement[i] += snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("bsp_placement_total") && k.contains(&label))
                .map(|(_, v)| v)
                .sum::<u64>();
        }
    }

    // Router overhead: the same settled FP replay, alone, through the
    // router and at the shard that owns it.
    for &i in &stream.cold_sample(OVERHEAD_SAMPLE) {
        let e = &stream.entries[i];
        let key = request_key(&e.dag, &e.machine);
        let via_router = fp_alone(dep.addr(), key.full, key.structure);
        let direct = dep
            .shards
            .iter()
            .find_map(|s| fp_alone(s.addr(), key.full, key.structure));
        match (via_router, direct) {
            (Some(r), Some(d)) => {
                ts.router_fp.push(r);
                ts.shard_fp.push(d);
            }
            _ => out.op("fp replay", Err(format!("settled entry {i} missed"))),
        }
    }

    // Protocol, model and solver layers on a sample of cold entries, and the
    // sampled cold costs against an in-process run.
    let pipeline = cold_pipeline();
    for i in stream.cold_sample(COLD_SAMPLE) {
        let e = &stream.entries[i];
        let mut wire = String::new();
        let request_opts = options();
        tracer
            .span("protocol.encode_request", || {
                encode_request(&mut wire, 1, &e.dag, &e.machine, &request_opts)
            })
            .expect("uniform and tree machines encode");
        let parsed = tracer.span("protocol.parse_request", || {
            read_incoming(&mut wire.as_bytes())
        });
        let report = pipeline.run_report(&e.dag, &e.machine);
        let response = ScheduleResponse {
            id: 1,
            cost: report.final_cost,
            supersteps: report.schedule.num_supersteps(),
            source: ScheduleSource::Cold,
            micros: 1,
            trace_id: 0,
            schedule: report.schedule.clone(),
        };
        let mut reply = String::new();
        tracer.span("protocol.encode_response", || {
            encode_response(&mut reply, &response)
        });
        let back = tracer.span("protocol.parse_response", || {
            read_response(&mut reply.as_bytes())
        });
        let mut result = match (parsed, back) {
            (Ok(Some(_)), Ok(r)) if r.cost == response.cost => Ok(()),
            _ => Err("protocol round trip failed".to_string()),
        };
        time_model(tracer, &e.dag, &e.machine, &report.schedule);
        let inits: [&dyn Scheduler; 2] = [&BspgScheduler, &SourceScheduler];
        for (init, branch) in inits.into_iter().zip(&report.branches) {
            result = result.and_then(|()| {
                let costs = rebuild_branch(tracer, &e.dag, &e.machine, init, &mut ts.hc_moves)?;
                (costs == (branch.init_cost, branch.local_search_cost))
                    .then_some(())
                    .ok_or(format!("rebuilt {} branch differs", branch.init_name))
            });
        }
        out.op("traced cold sample", result);
    }

    // The service layer in-process: cold, exact, FP and warm on the first
    // warm variant's family, plus the warm search itself.
    let Some(warm) = stream.ops[0][0].iter().find(|op| op.kind == Kind::Warm) else {
        return;
    };
    let variant = &stream.entries[warm.entry];
    let base_idx = variant.base.expect("a warm entry has a base");
    let base = &stream.entries[base_idx];
    let request = |e: &Entry| ScheduleRequest {
        id: 1,
        dag: (*e.dag).clone(),
        machine: e.machine.clone(),
        options: options(),
    };
    let (base_req, variant_req) = (request(base), request(variant));
    let service = ScheduleService::new(service_config());
    let served = |i: usize| firsts[i].clone();
    let expect = |name: &str,
                  reply: Result<bsp_serve::ServeReply, bsp_serve::ServeError>,
                  source: ScheduleSource,
                  cost: Option<u64>| {
        match reply {
            Ok(r) if r.source == source && Some(r.cost) == cost => Ok(()),
            Ok(r) => Err(format!("{name}: {} at cost {}", r.source.as_str(), r.cost)),
            Err(e) => Err(format!("{name}: {e}")),
        }
    };
    let base_cost = served(base_idx).map(|(c, _)| c);
    let cold = tracer.span("service.cold", || service.handle(&base_req));
    out.op(
        "service cold",
        expect("cold", cold, ScheduleSource::Cold, base_cost),
    );
    let exact = tracer.span("service.exact", || service.handle(&base_req));
    out.op(
        "service exact",
        expect("exact", exact, ScheduleSource::CacheExact, base_cost),
    );
    let key = request_key(&base.dag, &base.machine);
    let fp = tracer.span("service.fp", || service.handle_fingerprint(key.full));
    out.op(
        "service fp",
        expect("fp", fp, ScheduleSource::CacheExact, base_cost),
    );
    let warm_reply = tracer.span("service.warm", || service.handle(&variant_req));
    let warm_cost = served(warm.entry).map(|(c, _)| c);
    out.op(
        "service warm",
        expect("warm", warm_reply, ScheduleSource::CacheWarm, warm_cost),
    );
    if let Some((_, seed)) = served(base_idx) {
        let mut sched = BspSchedule::from_assignment_lazy(&variant.dag, (*seed).clone());
        let cfg =
            HillClimbConfig::with_time_limit(UNBOUNDED.mul_f64(0.9)).with_threads(solve_threads());
        tracer.span("hc.warm_search", || {
            hc_improve(&variant.dag, &variant.machine, &mut sched, &cfg)
        });
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let ((stream, mut first_dep), setup_s) = timed_setup(|| {
        let stream = Stream::generate(seed).with_baselines();
        (stream, Some(Deployment::start()))
    });
    out.metrics.insert("setup_s", setup_s);
    stream.describe();
    let mut ts = TraceState::default();
    if trace {
        let tracer = ts.tracer.get_or_insert_with(Tracer::new);
        for e in &stream.entries {
            let _ = tracer.span("baselines", || best_baseline(&e.dag, &e.machine));
        }
    }

    let mut logs: Vec<ConnLog> = Vec::new();
    let mut round_micros = Tally::default();
    let mut wall = 0.0;
    let mut costs: Vec<Option<u64>> = vec![None; stream.entries.len()];
    let pipeline = cold_pipeline();
    let n_rounds = rounds(seconds, |_| {
        let dep = first_dep.take().unwrap_or_else(Deployment::start);
        let barrier = Barrier::new(CONNECTIONS);
        let start = Instant::now();
        let mut round_logs: Vec<ConnLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|c| {
                    let (stream, barrier) = (&stream, &barrier);
                    let addr = dep.addr();
                    s.spawn(move || drive(stream, addr, c, barrier))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a connection thread panicked"))
                .collect()
        });
        wall += start.elapsed().as_secs_f64();
        round_micros.push(round_logs.iter().map(|l| l.server_micros).sum::<u64>() as f64);

        // Untimed checks: every entry's cost repeats across rounds, and a
        // sample of cold replies matches an in-process pipeline run.
        let firsts = verify_round(&stream, &mut round_logs);
        for (i, first) in firsts.iter().enumerate() {
            let now = first.as_ref().map(|(c, _)| *c);
            match costs[i].replace(now.unwrap_or(0)) {
                Some(prev) if Some(prev) != now => out.op(
                    "repeat round",
                    Err(format!("entry {i} cost {now:?} after {prev}")),
                ),
                _ => {}
            }
        }
        for i in stream.cold_sample(COLD_SAMPLE) {
            let e = &stream.entries[i];
            let local = pipeline.run_report(&e.dag, &e.machine).final_cost;
            let served = firsts[i].as_ref().map(|(c, _)| *c);
            out.op(
                "cold sample",
                (served == Some(local))
                    .then_some(())
                    .ok_or(format!("entry {i}: served {served:?}, in-process {local}")),
            );
        }
        if trace {
            trace_round(&stream, &dep, &firsts, &mut ts, &mut out);
        }
        drop(dep);
        logs.extend(round_logs);
    });

    let mut latency = Tally::default();
    let mut by_source: [Tally; 3] = Default::default();
    let mut fp_fallbacks = 0;
    let mut micros_by_source = [0u64; 3];
    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failures.len() as u64;
        for f in &log.failures {
            eprintln!("FAILED {f}");
        }
        log.latency.values().iter().for_each(|&x| latency.push(x));
        for (pooled, own) in by_source.iter_mut().zip(&log.by_source) {
            own.values().iter().for_each(|&x| pooled.push(x));
        }
        fp_fallbacks += log.fp_fallbacks;
        for (sum, own) in micros_by_source.iter_mut().zip(log.micros_by_source) {
            *sum += own;
        }
    }
    let ratios: Vec<f64> = stream
        .entries
        .iter()
        .zip(&costs)
        .map(|(e, c)| c.unwrap_or(0) as f64 / e.baseline as f64)
        .collect();
    let m = &mut out.metrics;
    m.insert("solve_s", round_micros.median() / 1e6);
    m.insert("cost_ratio", geomean(&ratios));
    m.insert("throughput_rps", latency.len() as f64 / wall);
    m.insert("latency_p50_ms", latency.median() * 1e3);
    m.insert("latency_p99_ms", latency.quantile(0.99) * 1e3);
    eprintln!(
        "rounds: {n_rounds}, requests: {}, exact/warm/cold: {}/{}/{}, fp fallbacks: {fp_fallbacks}",
        latency.len(),
        by_source[0].len(),
        by_source[1].len(),
        by_source[2].len()
    );
    eprintln!(
        "end to end: solve_s {:.4}, throughput_rps {:.2}, latency_p50_ms {:.2}, latency_p99_ms {:.2}",
        m["solve_s"], m["throughput_rps"], m["latency_p50_ms"], m["latency_p99_ms"]
    );
    for ((name, t), micros) in ["exact", "warm", "cold"]
        .iter()
        .zip(&by_source)
        .zip(micros_by_source)
    {
        eprintln!(
            "  {name}: p50 {:.2} ms, p99 {:.2} ms, service time {:.3} s per round",
            t.median() * 1e3,
            t.quantile(0.99) * 1e3,
            micros as f64 / 1e6 / n_rounds as f64
        );
    }
    if trace {
        let rounds_f = n_rounds as f64;
        for (name, t) in [
            "request.exact_p50_ms",
            "request.warm_p50_ms",
            "request.cold_p50_ms",
        ]
        .into_iter()
        .zip(&by_source)
        {
            m.insert(name, t.median() * 1e3);
        }
        for (name, v) in ["cache.exact_hits", "cache.warm_hits", "cache.misses"]
            .into_iter()
            .zip(ts.cache)
        {
            m.insert(name, v as f64 / rounds_f);
        }
        for (name, v) in [
            "placement.affinity",
            "placement.range_cold",
            "placement.load_steered",
        ]
        .into_iter()
        .zip(ts.placement)
        {
            m.insert(name, v as f64 / rounds_f);
        }
        if let Some(h) = ts.shard_metrics.histogram("bsp_queue_wait_micros") {
            m.insert(
                "server.queue_wait_p50_ms",
                h.quantile_micros(0.5) as f64 / 1e3,
            );
            m.insert(
                "server.queue_wait_p99_ms",
                h.quantile_micros(0.99) as f64 / 1e3,
            );
        }
        m.insert(
            "router.overhead_us",
            (ts.router_fp.median() - ts.shard_fp.median()) * 1e6,
        );
        let tracer = ts.tracer.take().expect("traced rounds record spans");
        let per_round = |name: &str| tracer.tally(name).sum() / rounds_f;
        let median_us = |name: &str| tracer.tally(name).median() * 1e6;
        m.insert("init.bspg_s", per_round("init.bspg"));
        m.insert("init.source_s", per_round("init.source"));
        m.insert("hc.search_s", per_round("hc.search"));
        m.insert("hccs.search_s", per_round("hccs.search"));
        m.insert("hc.moves", ts.hc_moves as f64 / rounds_f);
        m.insert(
            "hc.moves_per_s",
            ts.hc_moves as f64 / tracer.tally("hc.search").sum(),
        );
        m.insert("hc.warm_search_s", per_round("hc.warm_search"));
        m.insert("baselines.s", tracer.tally("baselines").sum());
        for (metric, span) in [
            ("protocol.encode_request_us", "protocol.encode_request"),
            ("protocol.parse_request_us", "protocol.parse_request"),
            ("protocol.encode_response_us", "protocol.encode_response"),
            ("protocol.parse_response_us", "protocol.parse_response"),
            ("service.exact_us", "service.exact"),
            ("service.fp_us", "service.fp"),
        ] {
            m.insert(metric, median_us(span));
        }
        m.insert("service.cold_ms", median_us("service.cold") / 1e3);
        m.insert("service.warm_ms", median_us("service.warm") / 1e3);
        model_metrics(&tracer, &mut out);
        tracer.write_summary();
    }
    out
}
