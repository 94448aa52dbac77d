//! `conform`: differential judging of generated programs, single thread.
//!
//! Each program is compiled, verified and run on the 50-engine conform
//! matrix with three inputs, and every engine's result is compared with
//! the interpreter oracle — the traffic of the tier-1 conform sweep, whose
//! time is mostly JIT (lowering, optimisation, allocation) with execution
//! second. Compile-pipeline changes show here and barely anywhere else.
//!
//! Programs differ in judging cost by 65% (coefficient of variation) and
//! the cost is heavy-tailed: 300-program windows starting at different
//! seeds judged at 9.5 to 11.7 programs/s. So the run judges a fixed corpus
//! — the first programs of the tier-1 sweep's seed range, five per second
//! of `--seconds` — twice, each pass in a seeded order, and keeps each
//! program's faster judgement, which also sheds bursts of load from other
//! processes on the machine.

use crate::{
    add_counters, median, mix, percentile, push_counters, ratio, secs, timed, Layers, Opts, Report,
    SETUP_REPS,
};
use conform::gen::{generate, render};
use conform::matrix::{compile_verified, engine_matrix, norm_result, run_seed, RunOutcome};
use hpcnet_core::{CountersSnapshot, Tier, Value, Vm};
use hpcnet_minics::STARTUP_INIT;
use hpcnet_vm::OptShare;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Corpus programs per second of the run's budget (each is judged twice;
/// one judgement takes ~0.1 s on a 2-core container).
const PROGRAMS_PER_SECOND: u64 = 5;
const PASSES: usize = 2;

/// The corpus: generator seeds `1..=n` — the start of the range the tier-1
/// sweep proves divergence-free — in an order drawn from `--seed`.
fn corpus(opts: &Opts, pass: u64) -> Vec<u64> {
    let n = if opts.tiny {
        1
    } else {
        (PROGRAMS_PER_SECOND * opts.budget.as_secs()).max(1)
    };
    let mut seeds: Vec<u64> = (1..=n).collect();
    seeds.sort_by_key(|&s| mix(opts.seed.wrapping_add(pass << 48) ^ (s << 20)));
    seeds
}

/// Judge one seed with the library's own matrix runner.
fn judge(r: &mut Report, seed: u64) -> Option<conform::matrix::ProgramResult> {
    match run_seed(seed) {
        Ok((_, res)) => {
            r.check(match res.divergences.first() {
                None => Ok(()),
                Some(d) => Err(format!(
                    "seed {seed}: {} divergences, first on {} input {:?}: oracle {:?}, got {:?}",
                    res.divergences.len(),
                    d.engine,
                    d.input,
                    d.oracle,
                    d.got
                )),
            });
            Some(res)
        }
        Err(e) => {
            r.check(Err(format!("rejected program: {e}")));
            None
        }
    }
}

/// Set-up: generate and front-end check every program of the corpus.
fn setup(r: &mut Report, seeds: &[u64]) -> f64 {
    let t = Instant::now();
    for &seed in seeds {
        r.check(
            compile_verified(&render(&generate(seed)))
                .map(|_| ())
                .map_err(|e| format!("seed {seed} rejected: {e}")),
        );
    }
    secs(t)
}

pub(crate) fn untraced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| setup(&mut r, &corpus(opts, 0)))
        .collect();
    let mut best: BTreeMap<u64, f64> = BTreeMap::new();
    for pass in 0..PASSES as u64 {
        for seed in corpus(opts, pass) {
            let mut s = 0.0;
            timed(&mut s, || judge(&mut r, seed));
            let b = best.entry(seed).or_insert(s);
            *b = b.min(s);
        }
    }
    let times: Vec<f64> = best.into_values().collect();
    let total: f64 = times.iter().sum();
    println!(
        "conform: {} programs judged {PASSES} times each",
        times.len()
    );
    r.push("throughput_per_s", times.len() as f64 / total, "1/s");
    r.push("latency_p50_ms", median(&times) * 1e3, "ms");
    r.push("latency_p95_ms", percentile(&times, 95.0) * 1e3, "ms");
    r.push("setup_s", median(&setups), "s");
    r
}

/// Exact counts of a traced section.
#[derive(Default)]
struct Counts {
    vm: CountersSnapshot,
    snapshots: u64,
    resets: u64,
    front_hits: u64,
    front_misses: u64,
    verifies: u64,
}

/// The matrix of `conform::matrix::run_matrix`, driven from outside so each
/// call into the compiler, verifier and VM is timed. Register-tier engines
/// replay their inputs once more on warm code: first-call time minus warm
/// time is the JIT's share, warm time the execution's. Returns the
/// per-seed reset and front-half statistics for comparison with the
/// library run.
fn traced_seed(seed: u64, l: &mut Layers, c: &mut Counts) -> Result<[u64; 7], String> {
    let program = l.time("gen", || generate(seed));
    let src = l.time("gen", || render(&program));
    let mut module = l
        .time("compile", || hpcnet_minics::compile(&src))
        .map_err(|e| format!("seed {seed}: compile: {e}"))?;
    l.time("verify", || hpcnet_cil::verify_module(&mut module))
        .map_err(|e| format!("seed {seed}: verify: {e}"))?;
    let module = Arc::new(module);
    let share = Arc::new(OptShare::new());
    let engines = l.time("build", engine_matrix);
    let mut outcomes: Vec<Vec<RunOutcome>> = Vec::with_capacity(engines.len());
    // The fields of `conform::matrix::ResetAgg` the library run reports:
    // snapshots, resets, objects tracked, objects restored, statics
    // restored, front-half hits, front-half misses.
    let mut stats = [0u64; 7];
    for (ei, eng) in engines.iter().enumerate() {
        let vm = l.time("build", || {
            let vm = Vm::new_shared(module.clone(), eng.profile);
            vm.set_opt_share(share.clone());
            vm
        });
        if ei == 0 {
            vm.set_op_coverage(true);
        }
        let init = l.time("build", || match vm.module.find_method(STARTUP_INIT) {
            Some(_) => vm.invoke_by_name(STARTUP_INIT, vec![]).map(|_| ()),
            None => Ok(()),
        });
        let snap = l.time("snapshot", || vm.snapshot());
        stats[0] += 1;
        let run = |vm: &Arc<Vm>, (a, b): (i32, i32), acc: &mut f64| -> RunOutcome {
            let result = match &init {
                Ok(()) => {
                    let r = timed(acc, || {
                        vm.invoke_by_name("Gen.Run", vec![Value::I4(a), Value::I4(b)])
                    });
                    norm_result(vm, r)
                }
                Err(e) => format!("init-{}", norm_result(vm, Err(e.clone()))),
            };
            RunOutcome {
                result,
                console: vm.take_console(),
            }
        };
        let mut cold = 0.0;
        let mut per_input = Vec::with_capacity(program.inputs.len());
        for &input in &program.inputs {
            per_input.push(run(&vm, input, &mut cold));
            let rs = l
                .time("reset", || vm.reset_to(&snap))
                .map_err(|e| format!("seed {seed}: reset: {e}"))?;
            stats[1] += 1;
            stats[2] += rs.objects_tracked;
            stats[3] += rs.objects_restored;
            stats[4] += rs.statics_restored;
        }
        let counters = vm.counters.snapshot();
        add_counters(&mut c.vm, &counters);
        match eng.profile.tier {
            Tier::Interpreter => l.add("exec_interp", cold),
            tier => {
                let mut warm = 0.0;
                let t = Instant::now();
                for (k, &input) in program.inputs.iter().enumerate() {
                    if run(&vm, input, &mut warm) != per_input[k] {
                        return Err(format!(
                            "seed {seed}: {} replay differs on input {input:?}",
                            eng.label
                        ));
                    }
                    vm.reset_to(&snap)
                        .map_err(|e| format!("seed {seed}: reset: {e}"))?;
                }
                l.add("replay", secs(t));
                if vm.counters.snapshot().jit_compiles != counters.jit_compiles {
                    return Err(format!(
                        "seed {seed}: {} compiled during its warm replay",
                        eng.label
                    ));
                }
                let (jit, exec) = if tier == Tier::Rir {
                    ("jit_exec", "exec_exec")
                } else {
                    ("jit_threaded", "exec_threaded")
                };
                l.add(jit, cold - warm);
                l.add(exec, warm);
            }
        }
        let leaks = l.time("verify_snapshot", || vm.verify_snapshot(&snap));
        c.verifies += 1;
        if leaks != 0 {
            return Err(format!(
                "seed {seed}: {} left {leaks} locations changed after reset",
                eng.label
            ));
        }
        outcomes.push(per_input);
        l.time("teardown", || drop(vm));
    }
    let (hits, misses) = share.stats();
    stats[5] = hits;
    stats[6] = misses;
    let diverged = l.time("compare", || {
        let (oracle, rest) = outcomes.split_first().expect("the matrix has an oracle");
        rest.iter()
            .map(|o| {
                o.iter()
                    .zip(oracle)
                    .filter(|(got, want)| got != want)
                    .count()
            })
            .sum::<usize>()
    });
    l.time("teardown", || {
        drop((outcomes, engines, share, module, program, src))
    });
    if diverged != 0 {
        return Err(format!("seed {seed}: {diverged} divergent runs"));
    }
    c.snapshots += stats[0];
    c.resets += stats[1];
    c.front_hits += hits;
    c.front_misses += misses;
    Ok(stats)
}

pub(crate) fn traced(opts: &Opts) -> Report {
    let start_t = Instant::now();
    let mut r = Report::default();
    let mut l = Layers::default();
    let mut c = Counts::default();
    // One pass over the corpus: the program set depends only on the
    // budget, so the exact counts repeat for any seed.
    let mut traced_secs = 0.0;
    let mut seeds = 0u64;
    for seed in corpus(opts, 0) {
        seeds += 1;
        let lib = l.time("untraced_twin", || judge(&mut r, seed));
        let t = Instant::now();
        let outcome = traced_seed(seed, &mut l, &mut c);
        traced_secs += secs(t);
        // The replica must count exactly what the library run counted.
        r.check(outcome.and_then(|s| match lib {
            Some(res) => {
                let a = &res.resets;
                let want = [
                    a.snapshots,
                    a.resets,
                    a.objects_tracked,
                    a.objects_restored,
                    a.statics_restored,
                    a.front_hits,
                    a.front_misses,
                ];
                if s == want {
                    Ok(())
                } else {
                    Err(format!(
                        "seed {seed}: traced counts {s:?} differ from the library run's {want:?}"
                    ))
                }
            }
            None => Ok(()),
        }));
    }
    r.push("minics.compile_ms", l.secs("compile") * 1e3, "ms");
    r.push("cil.verify_ms", l.secs("verify") * 1e3, "ms");
    r.push("vm.build_ms", l.secs("build") * 1e3, "ms");
    r.push("vm.jit_ms.exec", l.secs("jit_exec") * 1e3, "ms");
    r.push("vm.jit_ms.threaded", l.secs("jit_threaded") * 1e3, "ms");
    push_counters(&mut r, &c.vm);
    r.push(
        "vm.opt_share_hit_ratio",
        ratio(c.front_hits as f64, (c.front_hits + c.front_misses) as f64),
        "ratio",
    );
    r.push("vm.exec_ms.interp", l.secs("exec_interp") * 1e3, "ms");
    r.push("vm.exec_ms.exec", l.secs("exec_exec") * 1e3, "ms");
    r.push("vm.exec_ms.threaded", l.secs("exec_threaded") * 1e3, "ms");
    r.push(
        "vm.snapshot_us",
        ratio(l.secs("snapshot") * 1e6, c.snapshots as f64),
        "us",
    );
    r.push(
        "vm.reset_us",
        ratio(l.secs("reset") * 1e6, c.resets as f64),
        "us",
    );
    r.push(
        "vm.verify_snapshot_us",
        ratio(l.secs("verify_snapshot") * 1e6, c.verifies as f64),
        "us",
    );
    let wall = secs(start_t);
    r.push("traced_wall_ms", wall * 1e3, "ms");
    r.push("self_time_share", l.total() / wall, "ratio");
    r.push(
        "trace_overhead_ratio",
        ratio(traced_secs, l.secs("untraced_twin")),
        "ratio",
    );
    println!(
        "conform (traced): {seeds} programs, layers cover {:.1}% of {:.2} s",
        100.0 * l.total() / wall,
        wall
    );
    r
}
