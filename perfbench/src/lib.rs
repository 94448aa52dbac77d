//! End-to-end and per-layer benchmark of the hpcnet workspace.
//!
//! Three workloads, each one process and at most two busy threads:
//!
//! * `kernels` — steady-state SciMark kernels and Grande section-1
//!   microcells on warmed VMs (no JIT inside the timed part);
//! * `conform` (module `sweep`) — differential judging of a corpus of
//!   generated programs across the 50-engine conform matrix (the tier-1
//!   sweep's traffic);
//! * `serve` (module `service`) — the multi-tenant job service, closed
//!   loop, 2 workers.
//!
//! An untraced run ([`run_untraced`]) reports the end-to-end metrics of one
//! workload. A traced run ([`run_traced`]) times calls into each layer's
//! public functions from outside the program and reports the per-layer
//! metrics of all three sections; it also runs a share of each section's
//! work untraced so the tracing overhead is reported beside the layer
//! times. See `perfbench/README.md` for the metric table.

mod kernels;
mod service;
mod sweep;

use hpcnet_core::CountersSnapshot;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["kernels", "conform", "serve"];

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measured time of the run (traced runs split it over three sections).
    pub budget: Duration,
    /// Shrink every fixed size to the minimum that still exercises each
    /// code path (self-test only; numbers are meaningless).
    pub tiny: bool,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run produced: correctness accounting plus metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (first few), for the human-readable log.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub(crate) fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count one checked operation; `Err` marks it failed.
    pub(crate) fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Fold a section's report into this one, prefixing metric names.
    fn absorb(&mut self, prefix: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        for m in other.metrics {
            let name = if m.name.starts_with(&format!("{prefix}.")) {
                m.name
            } else {
                format!("{prefix}.{}", m.name)
            };
            self.metrics.push(Metric { name, ..m });
        }
    }

    /// The one-line result object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a non-finite measurement becomes `null`
/// so the result line stays parseable and the defect stays visible.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// End-to-end metrics of one workload. Every workload reports the same
/// names; the README defines what an operation is for each.
pub fn run_untraced(workload: &str, opts: &Opts) -> Result<Report, String> {
    let r = match workload {
        "kernels" => kernels::untraced(opts),
        "conform" => sweep::untraced(opts),
        "serve" => service::untraced(opts),
        other => {
            return Err(format!(
                "unknown workload {other}; known: {}",
                WORKLOADS.join(" ")
            ))
        }
    };
    // Logged, not gated: the allocator's high-water mark moved 67 -> 133 MiB
    // between identical serve runs.
    println!("peak_rss_mb: {:.1}", peak_rss_mb());
    Ok(r)
}

/// Per-layer metrics: every section traced, each given a third of the
/// budget. `workload` only picks which section runs first.
pub fn run_traced(workload: &str, opts: &Opts) -> Result<Report, String> {
    let first = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {workload}; known: {}",
                WORKLOADS.join(" ")
            )
        })?;
    let section = Opts {
        budget: opts.budget / 3,
        ..*opts
    };
    let mut out = Report::default();
    for k in 0..WORKLOADS.len() {
        let w = WORKLOADS[(first + k) % WORKLOADS.len()];
        let r = match w {
            "kernels" => kernels::traced(&section),
            "conform" => sweep::traced(&section),
            _ => service::traced(&section),
        };
        out.absorb(w, r);
    }
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    Ok(out)
}

// ---- shared measurement helpers ----

/// Seconds since `t`.
pub(crate) fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call.
pub(crate) fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += secs(t);
    v
}

/// Seconds a traced section spent in each layer. The layers of a section
/// partition its work, so their sum is checked against its wall time.
#[derive(Default)]
pub(crate) struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Run `f`, charging its time to `layer`.
    pub(crate) fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.add(layer, secs(t));
        v
    }

    pub(crate) fn add(&mut self, layer: &'static str, secs: f64) {
        *self.0.entry(layer).or_default() += secs;
    }

    pub(crate) fn secs(&self, layer: &str) -> f64 {
        self.0.get(layer).copied().unwrap_or(0.0)
    }

    pub(crate) fn total(&self) -> f64 {
        self.0.values().sum()
    }
}

pub(crate) fn add_counters(into: &mut CountersSnapshot, c: &CountersSnapshot) {
    into.calls += c.calls;
    into.throws += c.throws;
    into.jit_compiles += c.jit_compiles;
    into.bce_elided_idiom += c.bce_elided_idiom;
    into.bce_elided_range += c.bce_elided_range;
    into.bce_elided_versioned += c.bce_elided_versioned;
    into.licm_hoisted += c.licm_hoisted;
    into.loops_versioned += c.loops_versioned;
}

/// The VM counters a section reports, as exact counts.
pub(crate) fn push_counters(r: &mut Report, c: &CountersSnapshot) {
    for (name, v) in [
        ("vm.jit_compiles", c.jit_compiles),
        ("vm.bce_elided.idiom", c.bce_elided_idiom),
        ("vm.bce_elided.range", c.bce_elided_range),
        ("vm.bce_elided.versioned", c.bce_elided_versioned),
        ("vm.licm_hoisted", c.licm_hoisted),
        ("vm.loops_versioned", c.loops_versioned),
        ("vm.calls", c.calls),
        ("vm.throws", c.throws),
    ] {
        r.push(name, v as f64, "count");
    }
}

pub(crate) fn median(xs: &[f64]) -> f64 {
    hpcnet_harness::stats::median(xs)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub(crate) fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub(crate) fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64 step, for seeded orderings.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Set-up repetitions per run: `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 5;
