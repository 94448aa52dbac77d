//! Property tests: snapshot → run → reset is bitwise-idempotent.
//!
//! The tentpole claim behind the conform fleet is that a warmed VM reused
//! via [`Vm::reset_to`] is *observationally indistinguishable* from a VM
//! built from scratch. These tests pin that claim on both corpora the
//! ISSUE names: real Java Grande kernels (via `hpcnet-grande`) and
//! fuzzer-generated conform seeds — N runs through one snapshot-reset VM
//! must produce exactly what N fresh VMs produce: bitwise-equal results,
//! identical console output, identical `calls`/`throws` counter deltas.
//! On top of that, the reset runs must show `jit_compiles == 0` after the
//! first run — the proof that resets actually reuse compiled code — and
//! `Vm::verify_snapshot` must report zero divergences after every reset,
//! including after exception unwinds and a mid-sequence cycle collection.

use conform::gen::{generate, render};
use conform::matrix::compile_verified;
use hpcnet_cil::Module;
use hpcnet_grande::{find_entry, run_entry, vm_for};
use hpcnet_minics::STARTUP_INIT;
use hpcnet_runtime::{gc, Value};
use hpcnet_vm::{CountersSnapshot, Tier, Vm, VmError, VmProfile};
use std::sync::Arc;

const RESETS: usize = 3;

/// Everything one run observably did.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Observation {
    result: String,
    console: Vec<String>,
    delta: CountersSnapshot,
}

fn norm(vm: &Arc<Vm>, r: Result<Option<Value>, VmError>) -> String {
    match r {
        Ok(None) => "void".into(),
        Ok(Some(Value::I4(x))) => format!("i4:{x}"),
        Ok(Some(Value::I8(x))) => format!("i8:{x}"),
        Ok(Some(Value::R4(x))) => format!("r4:{:08x}", x.to_bits()),
        Ok(Some(Value::R8(x))) => format!("r8:{:016x}", x.to_bits()),
        Ok(Some(other)) => format!("{other:?}"),
        Err(VmError::Exception(o)) => {
            let class = o
                .class_id()
                .map(|c| vm.module.class(c).name.clone())
                .unwrap_or_else(|| "<classless>".into());
            format!("trap:{class}")
        }
        Err(e) => format!("err:{e:?}"),
    }
}

fn run_once(vm: &Arc<Vm>, entry: &str, args: Vec<Value>) -> Observation {
    let before = vm.counters.snapshot();
    let r = vm.invoke_by_name(entry, args);
    let result = norm(vm, r);
    Observation {
        result,
        console: vm.take_console(),
        delta: vm.counters.snapshot().delta(&before),
    }
}

/// Counter deltas that must agree between a fresh VM and a reset VM.
/// Telemetry that legitimately differs under reuse (`jit_compiles` — the
/// warmed VM does *not* recompile, which is the point) is compared
/// separately.
fn behavioral(delta: &CountersSnapshot) -> (u64, u64) {
    (delta.calls, delta.throws)
}

fn fresh_vm(module: &Arc<Module>, profile: VmProfile) -> Arc<Vm> {
    let vm = Vm::new_shared(module.clone(), profile);
    if vm.module.find_method(STARTUP_INIT).is_some() {
        vm.invoke_by_name(STARTUP_INIT, vec![]).expect("static init");
    }
    vm
}

/// Core property: `RESETS` runs through one snapshot-reset VM ==
/// `RESETS` runs through fresh VMs, for one module/entry/args triple.
fn assert_reset_equals_fresh(module: &Arc<Module>, profile: VmProfile, entry: &str, args: &[Value]) {
    let fresh: Vec<Observation> = (0..RESETS)
        .map(|_| run_once(&fresh_vm(module, profile), entry, args.to_vec()))
        .collect();

    let vm = fresh_vm(module, profile);
    let snap = vm.snapshot();
    let mut reused = Vec::new();
    for i in 0..RESETS {
        let obs = run_once(&vm, entry, args.to_vec());
        if i > 0 {
            assert_eq!(
                obs.delta.jit_compiles, 0,
                "reset run {i} recompiled — snapshot reset failed to keep code warm"
            );
        }
        vm.reset_to(&snap).expect("own snapshot");
        assert_eq!(
            vm.verify_snapshot(&snap),
            0,
            "state diverged from snapshot after reset {i} ({entry})"
        );
        reused.push(obs);
    }

    for (i, (f, r)) in fresh.iter().zip(reused.iter()).enumerate() {
        assert_eq!(f.result, r.result, "run {i} result ({entry})");
        assert_eq!(f.console, r.console, "run {i} console ({entry})");
        assert_eq!(
            behavioral(&f.delta),
            behavioral(&r.delta),
            "run {i} calls/throws delta ({entry})"
        );
    }
    // Fresh runs are identical to each other (determinism baseline), so
    // one comparison above covers all N; make that explicit.
    assert!(fresh.windows(2).all(|w| w[0] == w[1]), "fresh runs differ among themselves");
}

/// Grande kernels: pure compute, statics mutation, heap churn, and
/// exception unwinds — each under an interpreter and a compiled profile.
#[test]
fn grande_kernels_reset_equals_fresh() {
    let cases: &[(&str, i32)] = &[
        ("arith.add.int", 10_000),   // pure compute
        ("assign.static", 5_000),    // statics written every run
        ("create.objects", 2_000),   // heap allocation churn
        ("exception.throw", 200),    // EH unwinds on every iteration
        ("app.heapsort", 500),       // array-heavy kernel with validation
    ];
    for &(id, n) in cases {
        let (group, entry) = find_entry(id).expect(id);
        let mut module = hpcnet_grande::compile_group(&group);
        hpcnet_cil::verify_module(&mut module).expect("grande modules verify");
        let module = Arc::new(module);
        for profile in [VmProfile::sscli10(), VmProfile::clr11().with_tier(Tier::Compiled)] {
            assert_reset_equals_fresh(&module, profile, entry.entry, &[Value::I4(n)]);
        }
        // And through the grande registry's own construction path.
        let vm = vm_for(&group, VmProfile::clr11());
        let snap = vm.snapshot();
        let a = run_entry(&vm, &entry, n).map(f64::to_bits);
        vm.reset_to(&snap).expect("own snapshot");
        assert_eq!(vm.verify_snapshot(&snap), 0);
        let b = run_entry(&vm, &entry, n).map(f64::to_bits);
        assert_eq!(a.ok(), b.ok(), "{id}: checksum changed across reset");
    }
}

/// Conform seeds: generated programs (arrays, helper calls, try/catch,
/// statics) across the interpreter and both register allocators.
#[test]
fn conform_seeds_reset_equals_fresh() {
    for seed in 2000..2010 {
        let p = generate(seed);
        let module = Arc::new(compile_verified(&render(&p)).expect("gen programs verify"));
        for profile in [
            VmProfile::sscli10(),
            VmProfile::jvm_ibm131(),
            VmProfile::clr11().with_tier(Tier::Compiled),
        ] {
            for &(a, b) in &p.inputs {
                assert_reset_equals_fresh(
                    &module,
                    profile,
                    "Gen.Run",
                    &[Value::I4(a), Value::I4(b)],
                );
            }
        }
    }
}

/// Statics isolation, directly observable: a program whose result depends
/// on leftover static state returns different answers without resets and
/// identical answers with them.
#[test]
fn reset_isolates_static_state_across_runs() {
    let src = "class Gen {
        static int calls;
        static long Run(int a, int b) {
            calls = calls + 1;
            return (long)calls;
        }
    }";
    let module = Arc::new(compile_verified(src).unwrap());
    let vm = fresh_vm(&module, VmProfile::clr11());
    let snap = vm.snapshot();
    for _ in 0..4 {
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(0), Value::I4(0)]);
        assert_eq!(norm(&vm, r), "i8:1", "every reset run starts from calls == 0");
        vm.reset_to(&snap).expect("own snapshot");
    }
    // Control: without reset the counter accumulates.
    let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(0), Value::I4(0)]);
    assert_eq!(norm(&vm, r), "i8:1");
    let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(0), Value::I4(0)]);
    assert_eq!(norm(&vm, r), "i8:2");
}

/// Reset after an exception unwind restores mid-mutation state: the run
/// mutates statics *then* traps, and the reset must still roll everything
/// back (unwinds must not skip dirty tracking).
#[test]
fn reset_after_exception_unwind() {
    let src = "class Gen {
        static int poisoned;
        static long Run(int a, int b) {
            poisoned = poisoned + 100;
            if (poisoned > 100) { return (long)poisoned; }
            int z = 0;
            return (long)(a / z);
        }
    }";
    let module = Arc::new(compile_verified(src).unwrap());
    for profile in [VmProfile::sscli10(), VmProfile::clr11().with_tier(Tier::Compiled)] {
        let vm = fresh_vm(&module, profile);
        let snap = vm.snapshot();
        for i in 0..RESETS {
            let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(1), Value::I4(0)]);
            assert_eq!(
                norm(&vm, r),
                "trap:DivideByZeroException",
                "run {i}: leftover poisoned state leaked past a reset"
            );
            vm.reset_to(&snap).expect("own snapshot");
            assert_eq!(vm.verify_snapshot(&snap), 0);
        }
    }
}

/// A snapshot only ever replays into the VM that took it. Two VMs built
/// from the *same* module still refuse each other's snapshots: statics
/// and heap handles are per-VM, and replaying them across VMs would
/// cross-contaminate both — the exact corruption a VM-pooling service
/// must detect rather than trust caller discipline to avoid.
#[test]
fn reset_rejects_snapshot_from_a_different_vm() {
    let src = "class Gen {
        static int counter;
        static long Run(int a, int b) { counter = counter + a; return (long)counter; }
    }";
    let module = Arc::new(compile_verified(src).unwrap());
    let vm_a = fresh_vm(&module, VmProfile::clr11());
    let vm_b = fresh_vm(&module, VmProfile::clr11());
    let snap_a = vm_a.snapshot();
    let snap_b = vm_b.snapshot();

    // Foreign snapshot: refused, with the mismatch named in the error.
    let err = vm_b.reset_to(&snap_a).expect_err("foreign snapshot must be rejected");
    assert!(
        format!("{err}").contains("different VM") || format!("{err}").contains("foreign"),
        "error should explain the identity mismatch: {err}"
    );
    // And it never verifies.
    assert_ne!(vm_b.verify_snapshot(&snap_a), 0);

    // The refusal touched nothing: vm_b's own snapshot still verifies
    // clean and still resets.
    assert_eq!(vm_b.verify_snapshot(&snap_b), 0);
    let r = vm_b.invoke_by_name("Gen.Run", vec![Value::I4(7), Value::I4(0)]);
    assert_eq!(norm(&vm_b, r), "i8:7");
    vm_b.reset_to(&snap_b).expect("own snapshot");
    assert_eq!(vm_b.verify_snapshot(&snap_b), 0);
}

/// Console/serial isolation across tenants: a job that writes output and
/// *then* traps must not leak a single line (or serialized byte) into the
/// next run's harvest, even when the harvest happens on the error path.
/// This pins the serve layer's harvest-then-reset discipline at the VM
/// level: after `take_console` + `reset_to`, the next tenant observes
/// exactly the snapshot's (drained-empty) buffers.
#[test]
fn trapping_job_cannot_leak_console_or_serial_into_next_run() {
    let src = "class Gen {
        static long Run(int a, int b) {
            if (a == 1) {
                Console.WriteLine(\"tenant-A line 1\");
                Console.WriteLine(\"tenant-A line 2\");
                int[] boom = new int[2];
                return (long)boom[5];   // traps IndexOutOfRange mid-output
            }
            Console.WriteLine(\"tenant-B only\");
            return (long)b;
        }
    }";
    let module = Arc::new(compile_verified(src).unwrap());
    for profile in [VmProfile::sscli10(), VmProfile::clr11().with_tier(Tier::Compiled)] {
        let vm = fresh_vm(&module, profile);
        // Serve discipline: drain init-time output so the snapshot's
        // buffers are empty and every job harvests only its own lines.
        let _init_lines = vm.take_console();
        let snap = vm.snapshot();

        // Tenant A writes two lines, then traps. Harvest on the error path.
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(1), Value::I4(0)]);
        assert_eq!(norm(&vm, r), "trap:IndexOutOfRangeException");
        let harvest_a = vm.take_console();
        assert_eq!(harvest_a, vec!["tenant-A line 1", "tenant-A line 2"]);
        vm.reset_to(&snap).expect("own snapshot");
        assert_eq!(vm.verify_snapshot(&snap), 0, "tenant A left residue past the reset");

        // Tenant B's harvest contains only tenant B's output.
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(0), Value::I4(42)]);
        assert_eq!(norm(&vm, r), "i8:42");
        assert_eq!(vm.take_console(), vec!["tenant-B only"], "tenant A's lines leaked");
        vm.reset_to(&snap).expect("own snapshot");
        assert_eq!(vm.verify_snapshot(&snap), 0);
    }
}

/// Fuel exhaustion is (a) deterministic — the same budget stops the same
/// program at the same point on every run — and (b) fully rolled back by
/// a reset: the next job on the same VM runs to completion untouched.
#[test]
fn fuel_exhaustion_is_deterministic_and_reset_isolated() {
    let src = "class Gen {
        static int progress;
        static long Run(int a, int b) {
            int i = 0;
            while (i < a) { progress = progress + 1; i = i + 1; }
            return (long)progress;
        }
    }";
    let module = Arc::new(compile_verified(src).unwrap());
    for profile in [
        VmProfile::sscli10(),
        VmProfile::clr11(),
        VmProfile::clr11().with_tier(Tier::Compiled),
    ] {
        let vm = fresh_vm(&module, profile);
        let snap = vm.snapshot();

        // Exhaust: a 1_000_000-iteration loop under a tiny budget.
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            vm.set_fuel(Some(500));
            let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(1_000_000), Value::I4(0)]);
            outcomes.push(norm(&vm, r));
            assert_eq!(vm.fuel_remaining(), Some(0));
            vm.set_fuel(None);
            vm.reset_to(&snap).expect("own snapshot");
            assert_eq!(vm.verify_snapshot(&snap), 0, "exhausted run left residue");
        }
        assert!(
            outcomes.iter().all(|o| o.starts_with("err:Limit")),
            "budget must surface as VmError::Limit: {outcomes:?} ({})",
            vm.profile.name
        );
        assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "fuel exhaustion must be deterministic: {outcomes:?}"
        );

        // Disarmed again: the same VM finishes a real job, from clean state.
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(10), Value::I4(0)]);
        assert_eq!(norm(&vm, r), "i8:10", "{}", vm.profile.name);
        // And a sufficient budget is not charged for straight-line work.
        vm.reset_to(&snap).expect("own snapshot");
        vm.set_fuel(Some(1_000_000));
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(10), Value::I4(0)]);
        assert_eq!(norm(&vm, r), "i8:10");
        let spent = 1_000_000 - vm.fuel_remaining().unwrap();
        assert!(spent > 0 && spent < 1_000, "unexpected fuel spend {spent}");
        vm.set_fuel(None);
    }
}

/// A cycle collection between runs composes with reset: `clear_refs` on
/// dead objects marks them dirty, and live objects the GC inspected must
/// come back bitwise-identical.
#[test]
fn reset_survives_cycle_collection() {
    let src = "class Gen {
        static int[][] table;
        static long Run(int a, int b) {
            int[][] scratch = new int[4][];
            int i = 0;
            while (i < 4) { scratch[i] = new int[8]; scratch[i][0] = a + i; i = i + 1; }
            table = scratch;
            return (long)(table[1][0] + table[3][0]);
        }
    }";
    let module = Arc::new(compile_verified(src).unwrap());
    let vm = fresh_vm(&module, VmProfile::clr11());
    vm.heap.set_tracking(true); // register post-snapshot allocations
    let snap = vm.snapshot();
    let mut results = Vec::new();
    for _ in 0..RESETS {
        let r = vm.invoke_by_name("Gen.Run", vec![Value::I4(5), Value::I4(0)]);
        results.push(norm(&vm, r));
        // Collect with the snapshot's roots (the statics) — everything the
        // run allocated becomes garbage once the reset detaches it.
        let roots: Vec<_> = vm.statics.refs.iter().filter_map(|s| s.get()).collect();
        gc::collect(&vm.heap, &roots);
        vm.reset_to(&snap).expect("own snapshot");
        assert_eq!(vm.verify_snapshot(&snap), 0, "GC between runs corrupted snapshot state");
    }
    assert!(results.iter().all(|r| r == &results[0]), "{results:?}");
}
