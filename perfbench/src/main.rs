//! End-to-end and per-layer benchmark of the scheduling stack.
//!
//! ```text
//! perfbench --workload <pipeline_flat|multilevel|serve_router>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --digest --seed <n>
//! ```
//!
//! A run builds its inputs from the seed, sets up five times (reporting
//! the median as `setup_s`), then repeats whole rounds of the workload until
//! `--seconds` have passed.  Every schedule it receives is checked by
//! [`check`], which shares no code with the program's own validator or cost
//! function.  The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`).  See `perfbench/README.md`.

mod check;
mod flat;
mod inputs;
mod instance;
mod multilevel;
mod serve;
mod stats;

use stats::Tally;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, measured with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics, measured by the traced run.  A workload that never
/// enters a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("init.bspg_s", "s"),
    ("init.source_s", "s"),
    ("hc.search_s", "s"),
    ("hccs.search_s", "s"),
    ("hc.moves", "count"),
    ("hc.moves_per_s", "1/s"),
    ("hc.warm_search_s", "s"),
    ("ml.coarsen_s", "s"),
    ("ml.contractions", "count"),
    ("ml.base_solve_s", "s"),
    ("ml.uncontract_s", "s"),
    ("ml.refine_s", "s"),
    ("ml.refine_phases", "count"),
    ("ml.final_comm_s", "s"),
    ("baselines.s", "s"),
    ("model.cost_us", "us"),
    ("model.validate_us", "us"),
    ("model.fingerprint_us", "us"),
    ("protocol.encode_request_us", "us"),
    ("protocol.parse_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.parse_response_us", "us"),
    ("service.exact_us", "us"),
    ("service.fp_us", "us"),
    ("service.cold_ms", "ms"),
    ("service.warm_ms", "ms"),
    ("cache.exact_hits", "count"),
    ("cache.warm_hits", "count"),
    ("cache.misses", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p99_ms", "ms"),
    ("router.overhead_us", "us"),
    ("placement.affinity", "count"),
    ("placement.range_cold", "count"),
    ("placement.load_steered", "count"),
    ("request.exact_p50_ms", "ms"),
    ("request.warm_p50_ms", "ms"),
    ("request.cold_p50_ms", "ms"),
];

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; names come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation; `result` is its check.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    /// Required for a workload run; there is no default run length.
    seconds: Option<f64>,
    trace: bool,
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        digest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            args.digest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Tally::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times.median())
}

/// Runs whole rounds until `seconds` have passed (at least one).
pub fn rounds(seconds: f64, mut round: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut r = 0;
    while r == 0 || start.elapsed().as_secs_f64() < seconds {
        round(r);
        r += 1;
    }
    r
}

/// Peak resident set of this process in MB: `VmHWM` of `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The recorded input digests, one `<workload> <seed> <hex>` per line.
const RECORDED_DIGESTS: &str = include_str!("../inputs.digest");

fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    RECORDED_DIGESTS.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        let (w, s, d) = (it.next()?, it.next()?, it.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

const WORKLOADS: [&str; 3] = ["pipeline_flat", "multilevel", "serve_router"];

fn digest_of(workload: &str, seed: u64) -> u64 {
    match workload {
        "pipeline_flat" => flat::digest(seed),
        "multilevel" => multilevel::digest(seed),
        _ => serve::digest(seed),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.digest {
        for w in WORKLOADS {
            println!("{w} {} {:016x}", args.seed, digest_of(w, args.seed));
        }
        return;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: --workload must be one of {WORKLOADS:?}");
        std::process::exit(2);
    }
    let Some(seconds) = args.seconds else {
        eprintln!("perfbench: --seconds is required");
        std::process::exit(2);
    };
    let digest = digest_of(&args.workload, args.seed);
    match recorded_digest(&args.workload, args.seed) {
        Some(d) if d != digest => {
            eprintln!(
                "perfbench: inputs of {} seed {} digest to {digest:016x}, recorded {d:016x}",
                args.workload, args.seed
            );
            std::process::exit(3);
        }
        Some(_) => eprintln!("inputs match the recorded digest {digest:016x}"),
        None => eprintln!("inputs digest {digest:016x} (seed not recorded)"),
    }

    let mut outcome = match args.workload.as_str() {
        "pipeline_flat" => flat::run(args.seed, seconds, args.trace),
        "multilevel" => multilevel::run(args.seed, seconds, args.trace),
        _ => serve::run(args.seed, seconds, args.trace),
    };
    outcome.metrics.insert("peak_rss_mb", peak_rss_mb());

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("workload did not report {name}"),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
