//! `kernels`: steady-state execution on warmed VMs, single thread.
//!
//! Nineteen cells: the five SciMark kernels on the CLR 1.1 exec tier and on
//! its direct-threaded twin, plus nine Grande section-1 microcells on the
//! threaded tier, one per runtime mechanism (dispatch, prim arrays, fields,
//! ref slots, static and instance calls, throws, allocation, monitors).
//! Set-up compiles, verifies, builds, initialises and calls every cell once,
//! so the timed part performs no JIT — which the benchmark checks.
//!
//! Sizes are fixed per cell so one invocation takes roughly 3–75 ms: long
//! enough to time, short enough that the harness classifier gets tens of
//! samples per cell (a single quick-mode sample of a 1.5 s cell is why
//! `bench --quick` calls most cells `no-steady-state`).

use crate::{
    add_counters, geomean, median, percentile, push_counters, ratio, secs, timed, Layers, Opts,
    Report, SETUP_REPS,
};
use hpcnet_core::{
    find_entry, run_entry, vm_for, BenchGroup, CountersSnapshot, Entry, Vm, VmProfile,
};
use hpcnet_harness::measure::{native_baseline, time_entry, time_native, Measurement};
use hpcnet_harness::stats::Classification;
use hpcnet_minics::STARTUP_INIT;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Engine {
    /// `VmProfile::clr11()`: the exec-tier dispatch loop.
    Exec,
    /// `VmProfile::clr11_compiled()`: the direct-threaded tier.
    Threaded,
}

impl Engine {
    fn profile(self) -> VmProfile {
        match self {
            Engine::Exec => VmProfile::clr11(),
            Engine::Threaded => VmProfile::clr11_compiled(),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Engine::Exec => "clr11",
            Engine::Threaded => "clr11_threaded",
        }
    }
}

/// One measured cell.
struct CellSpec {
    id: &'static str,
    engine: Engine,
    n: i32,
    tiny_n: i32,
    /// The runtime mechanism a microcell isolates (`runtime.<layer>_ns`).
    runtime: Option<&'static str>,
}

const fn sci(id: &'static str, engine: Engine, n: i32, tiny_n: i32) -> CellSpec {
    CellSpec {
        id,
        engine,
        n,
        tiny_n,
        runtime: None,
    }
}

const fn micro(id: &'static str, runtime: &'static str, n: i32) -> CellSpec {
    CellSpec {
        id,
        engine: Engine::Threaded,
        n,
        tiny_n: 64,
        runtime: Some(runtime),
    }
}

/// SciMark small model, except MonteCarlo (a tenth: 0.8 MFlops makes the
/// small model 0.5 s per call) and Sparse (half: ~130 ms per call).
/// Microcell sizes differ per cell because their per-operation costs do
/// (an instance call costs ~9x a static one).
const CELLS: [CellSpec; 19] = [
    sci("scimark.fft", Engine::Exec, 1024, 64),
    sci("scimark.sor", Engine::Exec, 100, 10),
    sci("scimark.montecarlo", Engine::Exec, 10_000, 100),
    sci("scimark.sparse", Engine::Exec, 500, 20),
    sci("scimark.lu", Engine::Exec, 100, 10),
    sci("scimark.fft", Engine::Threaded, 1024, 64),
    sci("scimark.sor", Engine::Threaded, 100, 10),
    sci("scimark.montecarlo", Engine::Threaded, 10_000, 100),
    sci("scimark.sparse", Engine::Threaded, 500, 20),
    sci("scimark.lu", Engine::Threaded, 100, 10),
    micro("loop.for", "dispatch", 200_000),
    micro("assign.array", "prim_array", 50_000),
    micro("assign.instance", "field", 50_000),
    micro("matrix.jagged.object", "ref_slot", 20),
    micro("method.static", "call_static", 50_000),
    micro("method.instance", "call_instance", 10_000),
    micro("exception.throw", "throw", 5_000),
    micro("create.objects", "alloc", 10_000),
    micro("lock.uncontended", "monitor", 10_000),
];

impl CellSpec {
    fn size(&self, tiny: bool) -> i32 {
        if tiny {
            self.tiny_n
        } else {
            self.n
        }
    }

    /// `scimark.fft.clr11`, `loop.for.clr11_threaded`, …
    fn label(&self) -> String {
        format!("{}.{}", self.id, self.engine.tag())
    }

    fn is_scimark(&self) -> bool {
        self.runtime.is_none()
    }
}

/// A warmed cell: its VM has run the entry once.
struct Cell {
    spec: &'static CellSpec,
    entry: Entry,
    n: i32,
    vm: Arc<Vm>,
    checksum: f64,
}

fn lookup(spec: &CellSpec) -> (BenchGroup, Entry) {
    find_entry(spec.id).unwrap_or_else(|| panic!("registry has no entry {}", spec.id))
}

fn validate(cell: &Cell, checksum: f64) -> Result<(), String> {
    (cell.entry.validate)(cell.n, checksum).map_err(|e| format!("{}: {e}", cell.spec.label()))?;
    if checksum.to_bits() != cell.checksum.to_bits() {
        return Err(format!(
            "{}: checksum {checksum:?} differs from the first call's {:?}",
            cell.spec.label(),
            cell.checksum
        ));
    }
    Ok(())
}

/// Untraced set-up of every cell: compile, verify, build, static init and
/// the first (JIT-polluted) call. Returns the cells and the seconds taken.
fn setup(r: &mut Report, tiny: bool) -> (Vec<Cell>, f64) {
    let t = Instant::now();
    let mut cells = Vec::with_capacity(CELLS.len());
    for spec in &CELLS {
        let (group, entry) = lookup(spec);
        let n = spec.size(tiny);
        let vm = vm_for(&group, spec.engine.profile());
        match run_entry(&vm, &entry, n) {
            Ok(checksum) => {
                let cell = Cell {
                    spec,
                    entry,
                    n,
                    vm,
                    checksum,
                };
                r.check(validate(&cell, checksum));
                cells.push(cell);
            }
            Err(e) => r.check(Err(format!("{}: first call failed: {e}", spec.label()))),
        }
    }
    (cells, secs(t))
}

/// Cells in a seeded order (the kernels have no input of their own; the
/// seed only decides which cell runs when).
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| crate::mix(seed ^ ((i as u64) << 32)));
    idx
}

/// A cell's timed series. Set-up already made the first call and the
/// timed part compiles nothing, so every sample is post-JIT; the metrics
/// use the whole series (a `no-steady-state` verdict on this machine
/// usually marks a late level shift of the machine, after which the
/// classifier's steady segment can be three samples long).
struct Steady {
    m: Measurement,
    /// Per-invocation seconds, every sample.
    series: Vec<f64>,
    /// Median of `series`.
    median: f64,
    /// Work units per second at the median.
    rate: f64,
    secs: f64,
}

/// Time a warmed cell. Any JIT compile inside the timed part, a checksum
/// that drifts between repeats, or one the native oracle rejects fails it.
fn steady(r: &mut Report, cell: &Cell, budget: Duration) -> Option<Steady> {
    let jit_before = cell.vm.counters.snapshot().jit_compiles;
    let t = Instant::now();
    let m = match time_entry(&cell.vm, &cell.entry, cell.n, budget) {
        Ok(m) => m,
        Err(e) => {
            r.check(Err(format!("{}: {e}", cell.spec.label())));
            return None;
        }
    };
    let secs = secs(t);
    let jit = cell.vm.counters.snapshot().jit_compiles - jit_before;
    r.check(if jit == 0 {
        validate(cell, m.checksum)
    } else {
        Err(format!(
            "{}: {jit} JIT compiles inside the timed part",
            cell.spec.label()
        ))
    });
    let series = m.per_run_series();
    let median = median(&series);
    let rate = (cell.entry.ops)(cell.n) / median;
    Some(Steady {
        m,
        series,
        median,
        rate,
        secs,
    })
}

pub(crate) fn untraced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let (c, s) = setup(&mut r, opts.tiny);
        setups.push(s);
        cells = c;
    }
    let per_cell = opts.budget / CELLS.len() as u32;
    let mut rates = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut nss = 0;
    for i in seeded_order(cells.len(), opts.seed) {
        let Some(s) = steady(&mut r, &cells[i], per_cell) else {
            continue;
        };
        rates.push(s.rate);
        p50.push(s.median);
        p95.push(percentile(&s.series, 95.0));
        nss += (s.m.stats.classification == Classification::NoSteadyState) as usize;
        let st = &s.m.stats;
        println!(
            "  {:<44} {:>4} samples  {:<16} steady from {:>3}  median {:>9.4} ms  IQR ±{:.1}%",
            cells[i].spec.label(),
            s.m.series.len(),
            st.classification.as_str(),
            st.steady_start,
            s.median * 1e3,
            50.0 * (percentile(&s.series, 75.0) - percentile(&s.series, 25.0)) / s.median
        );
    }
    println!(
        "kernels: {} cells measured, {nss} no-steady-state",
        rates.len()
    );
    r.push("throughput_per_s", geomean(&rates), "1/s");
    r.push("latency_p50_ms", geomean(&p50) * 1e3, "ms");
    r.push("latency_p95_ms", geomean(&p95) * 1e3, "ms");
    r.push("setup_s", median(&setups), "s");
    r
}

/// The methods a lazy first call compiles: run the entry once on a
/// throwaway VM, then ask for every method's code — a method whose
/// request leaves `jit_compiles` unchanged was already compiled.
fn compiled_set(
    group: &BenchGroup,
    entry: &Entry,
    n: i32,
    engine: Engine,
) -> (Vec<hpcnet_cil::MethodId>, CountersSnapshot) {
    let vm = vm_for(group, engine.profile());
    let _ = run_entry(&vm, entry, n);
    let counters = vm.counters.snapshot();
    let mut set = Vec::new();
    for i in 0..vm.module.methods.len() as u32 {
        let m = hpcnet_cil::MethodId(i);
        let before = vm.counters.snapshot().jit_compiles;
        let ok = match engine {
            Engine::Exec => vm.compiled(m).is_ok(),
            Engine::Threaded => vm.threaded(m).is_ok(),
        };
        if ok && vm.counters.snapshot().jit_compiles == before {
            set.push(m);
        }
    }
    (set, counters)
}

/// Traced set-up of one cell, layer by layer from outside: compile,
/// verify, build, JIT of exactly the methods the first call needs, static
/// init, first call. The counters must equal those of the lazy probe VM.
fn traced_setup(
    r: &mut Report,
    l: &mut Layers,
    spec: &'static CellSpec,
    tiny: bool,
) -> Option<(Cell, f64, CountersSnapshot)> {
    let (group, entry) = lookup(spec);
    let n = spec.size(tiny);
    let (set, lazy) = l.time("probe", || compiled_set(&group, &entry, n, spec.engine));
    let compiled = l.time("compile", || hpcnet_minics::compile(group.source));
    let mut module = match compiled {
        Ok(m) => m,
        Err(e) => {
            r.check(Err(format!("{}: compile: {e}", spec.label())));
            return None;
        }
    };
    if let Err(e) = l.time("verify", || hpcnet_cil::verify_module(&mut module)) {
        r.check(Err(format!("{}: verify: {e}", spec.label())));
        return None;
    }
    let vm = l.time("build", || {
        Vm::new_shared(Arc::new(module), spec.engine.profile())
    });
    let jit = match spec.engine {
        Engine::Exec => "jit_exec",
        Engine::Threaded => "jit_threaded",
    };
    let jitted = l.time(jit, || {
        set.iter().all(|&m| match spec.engine {
            Engine::Exec => vm.compiled(m).is_ok(),
            Engine::Threaded => vm.threaded(m).is_ok(),
        })
    });
    let init = l.time("build", || match vm.module.find_method(STARTUP_INIT) {
        Some(_) => vm.invoke_by_name(STARTUP_INIT, vec![]).map(|_| ()),
        None => Ok(()),
    });
    if !jitted || init.is_err() {
        r.check(Err(format!(
            "{}: pre-JIT or static init failed: {init:?}",
            spec.label()
        )));
        return None;
    }
    let before = vm.counters.snapshot();
    let mut first = 0.0;
    let checksum = match timed(&mut first, || run_entry(&vm, &entry, n)) {
        Ok(c) => c,
        Err(e) => {
            r.check(Err(format!("{}: first call failed: {e}", spec.label())));
            return None;
        }
    };
    l.add("first_call", first);
    let after = vm.counters.snapshot();
    let cell = Cell {
        spec,
        entry,
        n,
        vm,
        checksum,
    };
    r.check(validate(&cell, checksum).and_then(|()| {
        if after.jit_compiles != before.jit_compiles {
            Err(format!(
                "{}: first call still compiled after the pre-JIT",
                spec.label()
            ))
        } else if after != lazy {
            Err(format!(
                "{}: counters differ from the lazy run: {after:?} vs {lazy:?}",
                spec.label()
            ))
        } else {
            Ok(())
        }
    }));
    Some((cell, first, after.delta(&before)))
}

pub(crate) fn traced(opts: &Opts) -> Report {
    let start = Instant::now();
    let mut r = Report::default();
    let mut l = Layers::default();
    let natives: Vec<&CellSpec> = CELLS
        .iter()
        .filter(|c| c.is_scimark() && c.engine == Engine::Exec)
        .collect();
    let per_cell = opts.budget / (CELLS.len() + natives.len()) as u32;

    let mut untraced_setup = 0.0;
    let _ = timed(&mut untraced_setup, || setup(&mut r, opts.tiny));
    l.add("untraced_twin", untraced_setup);

    let setup_start = Instant::now();
    let mut cells = Vec::new();
    let mut totals = CountersSnapshot::default();
    let mut first_ms = Vec::new();
    for spec in &CELLS {
        if let Some((cell, first, call)) = traced_setup(&mut r, &mut l, spec, opts.tiny) {
            // Compile-time counts of the whole VM; calls and throws of the
            // first call alone (static init excluded).
            let c = cell.vm.counters.snapshot();
            add_counters(
                &mut totals,
                &CountersSnapshot {
                    calls: call.calls,
                    throws: call.throws,
                    ..c
                },
            );
            first_ms.push((spec.label(), first * 1e3));
            cells.push(cell);
        }
    }
    let traced_setup_secs = secs(setup_start);

    let (mut exec_ms, mut threaded_ms) = (0.0, 0.0);
    let mut mflops = [Vec::new(), Vec::new()];
    let mut micro = Vec::new();
    let mut rates = Vec::new();
    let mut nss = 0;
    let mut reuses = 0.0;
    for cell in &cells {
        let Some(s) = l.time("steady", || steady(&mut r, cell, per_cell)) else {
            continue;
        };
        let label = cell.spec.label();
        rates.push((label.clone(), s.rate));
        r.push(format!("vm.steady_ms.{label}"), s.median * 1e3, "ms");
        nss += (s.m.stats.classification == Classification::NoSteadyState) as usize;
        let first = first_ms
            .iter()
            .find(|(f, _)| *f == label)
            .map_or(0.0, |f| f.1);
        let ms = first + s.secs * 1e3;
        match cell.spec.engine {
            Engine::Exec => exec_ms += ms,
            Engine::Threaded => threaded_ms += ms,
        }
        match cell.spec.runtime {
            Some(layer) => {
                micro.push(s.rate);
                r.push(format!("runtime.{layer}_ns"), 1e9 / s.rate, "ns");
            }
            None => mflops[(cell.spec.engine == Engine::Threaded) as usize].push(s.rate / 1e6),
        }

        // Warm reuse: snapshot, one replay, reset, isolation audit.
        let snap = l.time("snapshot", || cell.vm.snapshot());
        let replay = l.time("replay", || run_entry(&cell.vm, &cell.entry, cell.n));
        let reset = l.time("reset", || cell.vm.reset_to(&snap));
        let leaks = l.time("verify_snapshot", || cell.vm.verify_snapshot(&snap));
        r.check(match (replay, reset) {
            (Ok(c), Ok(_)) if leaks == 0 => validate(cell, c),
            (replay, reset) => Err(format!(
                "{label}: warm replay {replay:?}, reset {:?}, {leaks} leaks",
                reset.err()
            )),
        });
        reuses += 1.0;
    }
    for (label, ms) in &first_ms {
        r.push(format!("vm.first_call_ms.{label}"), *ms, "ms");
    }

    for spec in natives {
        let n = spec.size(opts.tiny);
        let (_, entry) = lookup(spec);
        let Some(f) = native_baseline(spec.id, n) else {
            continue;
        };
        let m = l.time("native", || time_native(f, (entry.ops)(n), per_cell));
        let kernel = spec.id.trim_start_matches("scimark.");
        match m {
            Ok(m) => {
                r.check(
                    (entry.validate)(n, m.checksum).map_err(|e| format!("native {kernel}: {e}")),
                );
                let native = m.rate / 1e6;
                r.push(format!("native.mflops.{kernel}"), native, "MFlops");
                // The paper's comparison: CLR 1.1 against the native oracle.
                let label = format!("{}.{}", spec.id, Engine::Exec.tag());
                let vm = rates
                    .iter()
                    .find(|(l, _)| *l == label)
                    .map_or(0.0, |r| r.1 / 1e6);
                r.push(
                    format!("vm_native_ratio.{kernel}"),
                    ratio(vm, native),
                    "ratio",
                );
            }
            Err(e) => r.check(Err(format!("native {kernel}: {e}"))),
        }
    }

    r.push("scimark_mflops.clr11", geomean(&mflops[0]), "MFlops");
    r.push(
        "scimark_mflops.clr11_threaded",
        geomean(&mflops[1]),
        "MFlops",
    );
    r.push("micro_mops", geomean(&micro) / 1e6, "Mops/s");
    r.push("no_steady_state_cells", nss as f64, "count");
    r.push("minics.compile_ms", l.secs("compile") * 1e3, "ms");
    r.push("cil.verify_ms", l.secs("verify") * 1e3, "ms");
    r.push("vm.build_ms", l.secs("build") * 1e3, "ms");
    r.push("vm.jit_ms.exec", l.secs("jit_exec") * 1e3, "ms");
    r.push("vm.jit_ms.threaded", l.secs("jit_threaded") * 1e3, "ms");
    push_counters(&mut r, &totals);
    r.push("vm.exec_ms.exec", exec_ms, "ms");
    r.push("vm.exec_ms.threaded", threaded_ms, "ms");
    r.push(
        "vm.snapshot_us",
        ratio(l.secs("snapshot") * 1e6, reuses),
        "us",
    );
    r.push("vm.reset_us", ratio(l.secs("reset") * 1e6, reuses), "us");
    r.push(
        "vm.verify_snapshot_us",
        ratio(l.secs("verify_snapshot") * 1e6, reuses),
        "us",
    );
    let wall = secs(start);
    r.push("traced_wall_ms", wall * 1e3, "ms");
    r.push("self_time_share", l.total() / wall, "ratio");
    r.push(
        "trace_overhead_ratio",
        ratio(traced_setup_secs, untraced_setup),
        "ratio",
    );
    println!(
        "kernels (traced): {} cells, {nss} no-steady-state, layers cover {:.1}% of {:.2} s",
        cells.len(),
        100.0 * l.total() / wall,
        wall
    );
    r
}
