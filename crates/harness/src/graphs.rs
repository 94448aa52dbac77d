//! Per-graph experiment definitions.
//!
//! One generator per paper artifact (Graphs 1–12); each produces a
//! [`Table`] with the same rows/series the paper plots. See DESIGN.md §4
//! for the experiment index and EXPERIMENTS.md for recorded
//! paper-vs-measured comparisons.

use crate::bench::cell_note;
use crate::measure::{native_baseline, time_entry, time_native, Measurement};
use crate::report::Table;
use hpcnet_core::json::Json;
use hpcnet_core::{lookup_entry, lookup_group, vm_for, BenchGroup, Entry, Vm, VmProfile};
use std::sync::Arc;
use std::time::Duration;

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Minimum wall time per measurement.
    pub min_time: Duration,
    /// Use the paper's large memory-model sizes.
    pub large: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            min_time: Duration::from_millis(250),
            large: false,
        }
    }
}

impl Config {
    /// Fast configuration for smoke tests.
    pub fn quick() -> Config {
        Config {
            min_time: Duration::from_millis(30),
            large: false,
        }
    }

    /// Problem size for an entry under this configuration's memory model.
    pub fn n_for(&self, e: &Entry) -> i32 {
        if self.large {
            e.large_n
        } else {
            e.small_n
        }
    }
}

fn group(id: &str) -> BenchGroup {
    lookup_group(id).unwrap_or_else(|e| panic!("{e}"))
}

fn entry<'g>(g: &'g BenchGroup, id: &str) -> &'g Entry {
    lookup_entry(g, id).unwrap_or_else(|e| panic!("{e}"))
}

/// Time a managed entry, aborting the report on measurement failure
/// (kernel traps and nondeterministic checksums are bugs, not data).
fn timed(vm: &Arc<Vm>, e: &Entry, n: i32, min_time: Duration) -> Measurement {
    time_entry(vm, e, n, min_time).unwrap_or_else(|err| panic!("{err}"))
}

/// Time a native baseline under the same protocol and failure policy.
fn timed_native(f: impl FnMut() -> f64, ops: f64, min_time: Duration) -> Measurement {
    time_native(f, ops, min_time).unwrap_or_else(|err| panic!("{err}"))
}

/// Measure a list of entries (rows) across profiles (columns).
fn sweep(
    cfg: &Config,
    title: &str,
    unit: &str,
    group_id: &str,
    rows: &[(&str, &str)], // (row label, entry id)
    profiles: &[VmProfile],
) -> Table {
    let g = group(group_id);
    let mut table = Table::new(title, unit);
    for p in profiles {
        table.add_column(p.name);
    }
    let vms: Vec<Arc<Vm>> = profiles.iter().map(|p| vm_for(&g, *p)).collect();
    for (label, eid) in rows {
        let e = entry(&g, eid);
        let n = cfg.n_for(e);
        let mut cells = Vec::new();
        let mut notes = Vec::new();
        for vm in &vms {
            let m = timed(vm, e, n, cfg.min_time);
            cells.push(m.rate);
            notes.push(cell_note(&m));
        }
        table.add_row_noted(label, cells, notes);
    }
    for vm in vms {
        vm.join_all_threads();
    }
    table
}

/// Graphs 1–2: integer arithmetic across the four micro-bench runtimes.
pub fn g1_integer_arith(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 1-2: Integer Arithmetic (ops/sec)",
        "ops/sec",
        "arith",
        &[
            ("Addition (int)", "arith.add.int"),
            ("Multiplication (int)", "arith.mult.int"),
            ("Division (int)", "arith.div.int"),
            ("Addition (long)", "arith.add.long"),
            ("Multiplication (long)", "arith.mult.long"),
            ("Division (long)", "arith.div.long"),
        ],
        &VmProfile::micro_lineup(),
    )
}

/// Graph 3: floating-point arithmetic.
pub fn g3_float_arith(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 3: Floating Point Arithmetic (ops/sec)",
        "ops/sec",
        "arith",
        &[
            ("Add-Float", "arith.add.float"),
            ("Multiply-Float", "arith.mult.float"),
            ("Division-Float", "arith.div.float"),
            ("Add-Double", "arith.add.double"),
            ("Multiply-Double", "arith.mult.double"),
            ("Division-Double", "arith.div.double"),
        ],
        &VmProfile::micro_lineup(),
    )
}

/// Graph 4: loop overheads.
pub fn g4_loops(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 4: Loop Performance (iterations/sec)",
        "iter/sec",
        "loop",
        &[
            ("For", "loop.for"),
            ("ReverseFor", "loop.reversefor"),
            ("While", "loop.while"),
        ],
        &VmProfile::micro_lineup(),
    )
}

/// Graph 5: exception handling.
pub fn g5_exceptions(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 5: Exception Handling (exceptions/sec)",
        "exc/sec",
        "exception",
        &[
            ("Throw", "exception.throw"),
            ("New", "exception.new"),
            ("Method", "exception.method"),
        ],
        &VmProfile::micro_lineup(),
    )
}

/// Graph 6: Math library — abs/max/min across numeric kinds.
pub fn g6_math_absminmax(cfg: &Config) -> Table {
    let rows: Vec<(&str, &str)> = vec![
        ("AbsInt", "math.abs.int"),
        ("AbsLong", "math.abs.long"),
        ("AbsFloat", "math.abs.float"),
        ("AbsDouble", "math.abs.double"),
        ("MaxInt", "math.max.int"),
        ("MaxLong", "math.max.long"),
        ("MaxFloat", "math.max.float"),
        ("MaxDouble", "math.max.double"),
        ("MinInt", "math.min.int"),
        ("MinLong", "math.min.long"),
        ("MinFloat", "math.min.float"),
        ("MinDouble", "math.min.double"),
    ];
    sweep(
        cfg,
        "Graph 6: Math Library I (calls/sec)",
        "calls/sec",
        "math",
        &rows,
        &VmProfile::micro_lineup(),
    )
}

/// Graph 7: Math library — trigonometry.
pub fn g7_math_trig(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 7: Math Library II (calls/sec)",
        "calls/sec",
        "math",
        &[
            ("SinDouble", "math.sin"),
            ("CosDouble", "math.cos"),
            ("TanDouble", "math.tan"),
            ("AsinDouble", "math.asin"),
            ("AcosDouble", "math.acos"),
            ("AtanDouble", "math.atan"),
            ("Atan2Double", "math.atan2"),
        ],
        &VmProfile::micro_lineup(),
    )
}

/// Graph 8: Math library — floor/ceil/sqrt/exp/log/pow/rint/random/round.
pub fn g8_math_misc(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 8: Math Library III (calls/sec)",
        "calls/sec",
        "math",
        &[
            ("FloorDouble", "math.floor"),
            ("CeilDouble", "math.ceil"),
            ("SqrtDouble", "math.sqrt"),
            ("ExpDouble", "math.exp"),
            ("LogDouble", "math.log"),
            ("PowDouble", "math.pow"),
            ("RintDouble", "math.rint"),
            ("Random", "math.random"),
            ("RoundFloat", "math.round.float"),
            ("RoundDouble", "math.round.double"),
        ],
        &VmProfile::micro_lineup(),
    )
}

const SCIMARK_ENTRIES: [(&str, &str); 5] = [
    ("FFT", "scimark.fft"),
    ("SOR", "scimark.sor"),
    ("MonteCarlo", "scimark.montecarlo"),
    ("Sparse", "scimark.sparse"),
    ("LU", "scimark.lu"),
];

/// Per-kernel SciMark MFlops for one memory model, native baseline first
/// (Graphs 10–11).
pub fn g10_scimark_kernels(cfg: &Config) -> Table {
    let g = group("scimark");
    let model = if cfg.large { "large" } else { "small" };
    let mut table = Table::new(
        &format!("Graph {}: SciMark kernels, {model} memory model (MFlops)",
            if cfg.large { 11 } else { 10 }),
        "MFlops",
    );
    table.add_column("MS - C (native)");
    let profiles = VmProfile::scimark_lineup();
    for p in &profiles {
        table.add_column(p.name);
    }
    let vms: Vec<Arc<Vm>> = profiles.iter().map(|p| vm_for(&g, *p)).collect();
    for (label, eid) in SCIMARK_ENTRIES {
        let e = entry(&g, eid);
        let n = cfg.n_for(e);
        let ops = (e.ops)(n);
        let nat = native_baseline(eid, n).expect("scimark baseline");
        let m = timed_native(nat, ops, cfg.min_time);
        let mut cells = vec![m.rate / 1e6];
        let mut notes = vec![cell_note(&m)];
        for vm in &vms {
            let m = timed(vm, e, n, cfg.min_time);
            cells.push(m.rate / 1e6);
            notes.push(cell_note(&m));
        }
        table.add_row_noted(label, cells, notes);
    }
    table
}

/// Graph 9: SciMark composite (arithmetic mean of the five kernels) for
/// both memory models.
pub fn g9_scimark_composite(cfg: &Config) -> Table {
    let mut table = Table::new("Graph 9: SciMark composite (MFlops)", "MFlops");
    table.add_column("small model");
    table.add_column("large model");
    let g = group("scimark");
    let profiles = VmProfile::scimark_lineup();

    // Native first.
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut native_cells = Vec::new();
    for large in [false, true] {
        let sub = Config {
            large,
            ..*cfg
        };
        let mut total = 0.0;
        for (_, eid) in SCIMARK_ENTRIES {
            let e = entry(&g, eid);
            let n = sub.n_for(e);
            let ops = (e.ops)(n);
            let nat = native_baseline(eid, n).unwrap();
            total += timed_native(nat, ops, cfg.min_time).rate / 1e6;
        }
        native_cells.push(total / SCIMARK_ENTRIES.len() as f64);
    }
    rows.push(("MS - C (native)".into(), native_cells));

    for p in &profiles {
        let vm = vm_for(&g, *p);
        let mut cells = Vec::new();
        for large in [false, true] {
            let sub = Config { large, ..*cfg };
            let mut total = 0.0;
            for (_, eid) in SCIMARK_ENTRIES {
                let e = entry(&g, eid);
                let n = sub.n_for(e);
                total += timed(&vm, e, n, cfg.min_time).rate / 1e6;
            }
            cells.push(total / SCIMARK_ENTRIES.len() as f64);
        }
        rows.push((p.name.to_string(), cells));
    }
    for (label, cells) in rows {
        table.add_row(&label, cells);
    }
    table
}

/// Graph 12: matrix styles on the CLI implementations (the paper shows
/// CLR 1.1; we sweep all three CLIs for context).
pub fn g12_matrix(cfg: &Config) -> Table {
    sweep(
        cfg,
        "Graph 12: Matrix styles (element copies/sec)",
        "copies/sec",
        "matrix",
        &[
            ("multidim value", "matrix.multi.value"),
            ("jagged value", "matrix.jagged.value"),
            ("multidim object", "matrix.multi.object"),
            ("jagged object", "matrix.jagged.object"),
        ],
        &VmProfile::cli_lineup(),
    )
}

/// Table 2 benchmarks: threaded micro suite.
pub fn t2_threads(cfg: &Config) -> Table {
    let mut table = Table::new("Table 2: Threaded micro suite (events/sec)", "events/sec");
    let profiles = [VmProfile::clr11(), VmProfile::jvm_ibm131(), VmProfile::mono023()];
    for p in &profiles {
        table.add_column(p.name);
    }
    for (group_id, label, eid) in [
        ("barrier", "Barrier (simple)", "barrier.simple"),
        ("barrier", "Barrier (tournament)", "barrier.tournament"),
        ("forkjoin", "ForkJoin", "forkjoin"),
        ("sync", "Sync (method)", "sync.method"),
        ("sync", "Sync (block)", "sync.block"),
    ] {
        let g = group(group_id);
        let e = entry(&g, eid);
        let n = cfg.n_for(e);
        let mut cells = Vec::new();
        let mut notes = Vec::new();
        for p in &profiles {
            let vm = vm_for(&g, *p);
            let m = timed(&vm, e, n, cfg.min_time);
            cells.push(m.rate);
            notes.push(cell_note(&m));
            vm.join_all_threads();
        }
        table.add_row_noted(label, cells, notes);
    }
    table
}

/// Table 4 macro suite: application kernels relative to native.
pub fn t4_apps(cfg: &Config) -> Table {
    let mut table = Table::new(
        "Table 4: Application kernels (work units/sec)",
        "units/sec",
    );
    table.add_column("native");
    let profiles = [VmProfile::clr11(), VmProfile::jvm_ibm131(), VmProfile::mono023(), VmProfile::sscli10()];
    for p in &profiles {
        table.add_column(p.name);
    }
    for (group_id, label, eid) in [
        ("apps.small", "Fibonacci", "app.fibonacci"),
        ("apps.small", "Sieve", "app.sieve"),
        ("apps.small", "Hanoi", "app.hanoi"),
        ("apps.small", "HeapSort", "app.heapsort"),
        ("app.crypt", "Crypt (IDEA)", "app.crypt"),
        ("app.moldyn", "MolDyn", "app.moldyn"),
        ("app.euler", "Euler", "app.euler"),
        ("app.search", "Search", "app.search"),
        ("app.raytracer", "RayTracer", "app.raytracer"),
    ] {
        let g = group(group_id);
        let e = entry(&g, eid);
        let n = cfg.n_for(e);
        let ops = (e.ops)(n);
        let nat = native_baseline(eid, n).expect("app baseline");
        let m = timed_native(nat, ops, cfg.min_time);
        let mut cells = vec![m.rate];
        let mut notes = vec![cell_note(&m)];
        for p in &profiles {
            let vm = vm_for(&g, *p);
            let m = timed(&vm, e, n, cfg.min_time);
            cells.push(m.rate);
            notes.push(cell_note(&m));
        }
        table.add_row_noted(label, cells, notes);
    }
    table
}

/// Ablation study: CLR 1.1 with each optimization mechanism removed, on
/// the SciMark kernels — how much each Section-5 mechanism contributes.
pub fn ablation(cfg: &Config) -> Table {
    use hpcnet_core::VmProfile;
    let mut no_bce = VmProfile::clr11();
    no_bce.name = "CLR - BCE";
    no_bce.passes.bce = false;
    let mut no_inline = VmProfile::clr11();
    no_inline.name = "CLR - inlining";
    no_inline.passes.inline = false;
    let mut no_enreg = VmProfile::clr11();
    no_enreg.name = "CLR 4 regs";
    no_enreg.max_enreg_prim = 4;
    no_enreg.max_enreg_ref = 4;
    let mut no_passes = VmProfile::clr11();
    no_passes.name = "CLR no passes";
    no_passes.passes = hpcnet_core::vm_profile_pass_none();
    let profiles = [
        VmProfile::clr11(),
        no_bce,
        no_inline,
        no_enreg,
        no_passes,
    ];
    let g = group("scimark");
    let mut table = Table::new(
        "Ablation: CLR 1.1 with mechanisms removed (SciMark, MFlops)",
        "MFlops",
    );
    for p in &profiles {
        table.add_column(p.name);
    }
    for (label, eid) in SCIMARK_ENTRIES {
        let e = entry(&g, eid);
        let n = cfg.n_for(e);
        let mut cells = Vec::new();
        let mut notes = Vec::new();
        for p in &profiles {
            let vm = vm_for(&g, *p);
            let m = timed(&vm, e, n, cfg.min_time);
            cells.push(m.rate / 1e6);
            notes.push(cell_note(&m));
        }
        table.add_row_noted(label, cells, notes);
    }
    table
}

/// Optimization-pass observability: compile each SciMark kernel under
/// every profile and report how many array bounds checks the JIT removed
/// (the Section 5 "eliminating array bounds checking" mechanism —
/// docs/OPTIMIZATIONS.md maps every mechanism to its `PassConfig` knob).
///
/// Side effect: writes `BENCH_opt.json` to the working directory with the
/// per-kernel timings and the full VM counter table per profile.
pub fn opt_counters(cfg: &Config) -> Table {
    let g = group("scimark");
    let profiles = VmProfile::scimark_lineup();
    let mut table = Table::new(
        "Optimization: array bounds checks eliminated at JIT time (SciMark)",
        "checks eliminated (static count per kernel)",
    );
    for p in &profiles {
        table.add_column(p.name);
    }
    // One fresh VM per (kernel, profile) cell so the counters are
    // attributable to a single kernel's compilation.
    let mut per_profile: Vec<Vec<Json>> = vec![Vec::new(); profiles.len()];
    for (label, eid) in SCIMARK_ENTRIES {
        let e = entry(&g, eid);
        let n = cfg.n_for(e);
        let mut cells = Vec::new();
        for (pi, p) in profiles.iter().enumerate() {
            let vm = vm_for(&g, *p);
            let m = timed(&vm, e, n, cfg.min_time);
            let c = vm.counters.snapshot();
            cells.push(c.bounds_checks_eliminated as f64);
            let mut kernel = Json::obj(vec![
                ("id", Json::Str(eid.to_string())),
                ("label", Json::Str(label.to_string())),
                ("mflops", Json::num(m.rate / 1e6)),
                (
                    "classification",
                    Json::Str(m.stats.classification.as_str().to_string()),
                ),
            ]);
            kernel.push_counts(c.iter());
            per_profile[pi].push(kernel);
        }
        table.add_row(label, cells);
    }
    let profile_docs: Vec<Json> = profiles
        .iter()
        .zip(per_profile)
        .map(|(p, kernels)| {
            Json::obj(vec![
                ("profile", Json::Str(p.name.to_string())),
                (
                    "passes",
                    Json::obj(vec![
                        ("bce", Json::Bool(p.passes.bce)),
                        ("licm", Json::Bool(p.passes.licm)),
                    ]),
                ),
                ("kernels", Json::Arr(kernels)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![
        ("suite", Json::Str("scimark".to_string())),
        ("large", Json::Bool(cfg.large)),
        ("min_time_ms", Json::num(cfg.min_time.as_millis() as f64)),
        ("profiles", Json::Arr(profile_docs)),
    ]);
    match std::fs::write("BENCH_opt.json", doc.render()) {
        Ok(()) => eprintln!("wrote BENCH_opt.json"),
        Err(e) => eprintln!("could not write BENCH_opt.json: {e}"),
    }
    table
}

/// All graph generators keyed by CLI name.
pub fn all_reports() -> Vec<(&'static str, fn(&Config) -> Table)> {
    vec![
        ("g1", g1_integer_arith as fn(&Config) -> Table),
        ("g3", g3_float_arith),
        ("g4", g4_loops),
        ("g5", g5_exceptions),
        ("g6", g6_math_absminmax),
        ("g7", g7_math_trig),
        ("g8", g8_math_misc),
        ("g9", g9_scimark_composite),
        ("g10", g10_scimark_kernels),
        ("g12", g12_matrix),
        ("t2", t2_threads),
        ("t4", t4_apps),
        ("ablation", ablation),
        ("opt", opt_counters),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_core::run_entry;

    /// The acceptance check for the loop-aware tier: the optimizing CLR
    /// drops bounds checks in the SciMark SOR sweep and the sparse
    /// matmult, while Mono (no loop passes) keeps every check.
    #[test]
    fn clr_eliminates_scimark_bounds_checks_and_mono_does_not() {
        use std::sync::atomic::Ordering::Relaxed;
        let g = group("scimark");
        for eid in ["scimark.sor", "scimark.sparse"] {
            let e = entry(&g, eid);
            let n = e.small_n;
            let clr = vm_for(&g, VmProfile::clr11());
            run_entry(&clr, e, n).unwrap();
            assert!(
                clr.counters.bounds_checks_eliminated.load(Relaxed) > 0,
                "{eid}: CLR 1.1 should eliminate bounds checks"
            );
            assert!(clr.counters.loops_found.load(Relaxed) > 0, "{eid}");

            let mono = vm_for(&g, VmProfile::mono023());
            run_entry(&mono, e, n).unwrap();
            assert_eq!(
                mono.counters.bounds_checks_eliminated.load(Relaxed),
                0,
                "{eid}: Mono 0.23 has no BCE at all"
            );
        }
    }
}
