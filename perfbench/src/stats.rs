//! Sample tallies and the small statistics the benchmark reports.

use std::collections::BTreeMap;
use std::time::Instant;

/// A bag of samples.
#[derive(Debug, Default, Clone)]
pub struct Tally(Vec<f64>);

impl Tally {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

/// One span recorded by the benchmark around a call into the program.
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub dur_s: f64,
}

/// In-memory span recorder of the traced run; summarised on stderr at the
/// end of the run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` under span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            start_s: (start - self.origin).as_secs_f64(),
            dur_s: start.elapsed().as_secs_f64(),
        });
        out
    }

    /// Durations of every span called `name`.
    pub fn tally(&self, name: &str) -> Tally {
        let mut t = Tally::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            t.push(s.dur_s);
        }
        t
    }

    /// Writes a per-name summary (count, total, median) to stderr.
    pub fn write_summary(&self) {
        let mut by_name: BTreeMap<&str, Tally> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s.dur_s);
        }
        let end = self
            .spans
            .iter()
            .map(|s| s.start_s + s.dur_s)
            .fold(0.0, f64::max);
        eprintln!("spans: {} recorded over {end:.3} s", self.spans.len());
        for (name, t) in by_name {
            eprintln!(
                "  {name:<24} n={:<6} total={:>10.4} s  median={:>12.1} us",
                t.len(),
                t.sum(),
                t.median() * 1e6
            );
        }
    }
}
