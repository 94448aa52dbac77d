//! The virtual machine host: module instance, statics, intrinsics.
//!
//! A [`Vm`] binds a verified [`Module`] to a [`VmProfile`]. All profiles
//! share this host — heap, statics, monitors, threads, math dispatch — and
//! differ only in how method bodies are executed (see [`crate::interp`] and
//! [`crate::compiled`]), which is precisely the experimental isolation the
//! paper aims for by running one CIL image on several runtimes.

use crate::error::{VmError, VmResult};
use crate::interp;
use crate::observe::{ObserveLevel, ObserveReport, Observer, PhaseTiming, VmPhase};
use crate::profile::{MathKind, Tier, VmProfile};
use crate::rir::compile::CompiledMethod;
use hpcnet_cil::{
    verify_module, ClassId, ElemKind, Intrinsic, MethodId, Module, NumTy,
    StrId,
};
use hpcnet_runtime::heap::Heap;
use hpcnet_runtime::math::{global_random, MathTable};
use hpcnet_runtime::object::{HeapObj, ObjBody, RefSlot};
use hpcnet_runtime::serial::{Reader, Tag, Writer};
use hpcnet_runtime::snapshot::HeapSnapshot;
use hpcnet_runtime::threads::ThreadRegistry;
use hpcnet_runtime::{timer, Obj, Value};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub use hpcnet_cil::prelude::{
    declare_prelude, DIV_ZERO_CLASS, EXCEPTION_CLASS, INDEX_OOB_CLASS, INVALID_CAST_CLASS,
    NULL_REF_CLASS,
};

/// Resolved ids of the well-known exception classes.
#[derive(Clone, Copy, Debug, Default)]
pub struct WellKnown {
    pub exception: Option<ClassId>,
    pub null_ref: Option<ClassId>,
    pub index_oob: Option<ClassId>,
    pub div_zero: Option<ClassId>,
    pub invalid_cast: Option<ClassId>,
}

impl WellKnown {
    fn resolve(module: &Module) -> WellKnown {
        WellKnown {
            exception: module.find_class(EXCEPTION_CLASS),
            null_ref: module.find_class(NULL_REF_CLASS),
            index_oob: module.find_class(INDEX_OOB_CLASS),
            div_zero: module.find_class(DIV_ZERO_CLASS),
            invalid_cast: module.find_class(INVALID_CAST_CLASS),
        }
    }
}

/// A capture of a VM's mutable program state, taken by [`Vm::snapshot`]
/// (typically right after static initialization) and replayed by
/// [`Vm::reset_to`]. Holding one keeps every captured heap object alive,
/// so a warmed VM — loaded module and compiled code — can be
/// reused across thousands of isolated runs at microsecond cost.
///
/// A snapshot is bound to the VM that took it: it carries that VM's
/// identity token, and [`Vm::reset_to`] refuses to replay it into any
/// other VM (restoring foreign statics/heap handles would silently
/// corrupt both VMs — load-bearing once a service pools warmed VMs).
pub struct VmSnapshot {
    /// Identity of the [`Vm`] this snapshot was captured from.
    vm_id: u64,
    heap: HeapSnapshot,
    statics_prim: Box<[u64]>,
    statics_refs: Box<[Option<Obj>]>,
    console: Vec<String>,
    serial_sink: Vec<u8>,
}

impl VmSnapshot {
    /// Heap objects the snapshot tracks.
    pub fn objects_tracked(&self) -> usize {
        self.heap.len()
    }
}

/// What one [`Vm::reset_to`] did — the reuse evidence the conform
/// harness aggregates (how much cheaper a reset was than a rebuild).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResetStats {
    /// Heap objects tracked by the snapshot.
    pub objects_tracked: u64,
    /// Heap objects rewritten because the run mutated them.
    pub objects_restored: u64,
    /// Static slots (prim + ref) rewritten.
    pub statics_restored: u64,
}

impl ResetStats {
    /// Accumulate another reset's counts (fleet aggregation).
    pub fn merge(&mut self, other: &ResetStats) {
        self.objects_tracked += other.objects_tracked;
        self.objects_restored += other.objects_restored;
        self.statics_restored += other.statics_restored;
    }
}

/// Module-wide static field storage.
#[derive(Debug)]
pub struct Statics {
    pub prim: Box<[AtomicU64]>,
    pub refs: Box<[RefSlot]>,
}

/// Defines the VM counter table once: the atomic [`Counters`], its
/// plain-value [`CountersSnapshot`], `snapshot()`, the saturating
/// `delta()`, and the `(name, value)` listing every report and artifact
/// validator iterates. A counter's field name is its artifact key.
macro_rules! vm_counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Execution counters (observable effects for tests and the harness).
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[doc = $doc])+ pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`Counters`] — the plain-value form reports
        /// and the `BENCH_*.json` artifacts embed.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CountersSnapshot {
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl Counters {
            /// Snapshot every counter (relaxed loads; counters are monotonic
            /// event counts, not synchronization).
            pub fn snapshot(&self) -> CountersSnapshot {
                CountersSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        impl CountersSnapshot {
            /// Every counter name (= artifact key), in table order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// Counter activity since `earlier`: field-wise saturating
            /// subtraction. Saturating because consumers diff snapshots from
            /// before/after a measured region and a mismatched pair (or a
            /// restarted VM) must degrade to zero, not wrap to 2^64.
            pub fn delta(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
                CountersSnapshot { $($name: self.$name.saturating_sub(earlier.$name),)+ }
            }

            /// `(name, value)` for every counter, in [`Self::NAMES`] order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::NAMES.iter().copied().zip([$(self.$name),+])
            }
        }
    };
}

vm_counters! {
    /// Managed method invocations (all tiers, excluding inlined calls —
    /// inlining visibly reduces this, as it should).
    calls,
    /// Managed exceptions thrown (by `throw` or by runtime faults).
    throws,
    /// Methods translated to RIR.
    jit_compiles,
    /// Natural loops discovered by the loop-aware optimizer (counted once
    /// per compiled method, only when a loop pass is enabled).
    loops_found,
    /// Array bounds checks removed at compile time — total across every
    /// mechanism (the three `bce_elided_*` counters below sum to this).
    bounds_checks_eliminated,
    /// Checks removed as the counted-loop idiom: the structural matcher's
    /// block guards plus range analysis under a direct `i < arr.Length`.
    bce_elided_idiom,
    /// Checks removed by symbolic range analysis (derived indices such as
    /// `a[i+k]`, hoisted-length and triangular bounds).
    bce_elided_range,
    /// Checks removed in guarded loop-version fast clones.
    bce_elided_versioned,
    /// Loops given a guarded check-free version.
    loops_versioned,
    /// Instructions hoisted out of loops by LICM.
    licm_hoisted,
}

/// Process-wide VM identity source (see [`Vm::id`]). Never reused, so a
/// [`VmSnapshot`] can always be matched to the exact VM that took it.
static NEXT_VM_ID: AtomicU64 = AtomicU64::new(1);

/// A module bound to an execution profile.
pub struct Vm {
    /// Unique identity of this VM instance (snapshot ownership checks).
    id: u64,
    pub module: Arc<Module>,
    pub profile: VmProfile,
    pub heap: Heap,
    pub statics: Statics,
    pub math: MathTable,
    pub counters: Counters,
    pub(crate) threads: ThreadRegistry,
    code_cache: RwLock<Vec<Option<Arc<CompiledMethod>>>>,
    pub(crate) well_known: WellKnown,
    /// Pre-created string literal objects.
    literals: Vec<Obj>,
    /// `Run` method resolution per class (managed thread entry points).
    run_methods: HashMap<ClassId, MethodId>,
    /// Captured console output.
    console: Mutex<Vec<String>>,
    echo_console: AtomicBool,
    /// In-memory sink for the Serial benchmark.
    serial_sink: Mutex<Vec<u8>>,
    /// Maximum managed call depth (soft stack-overflow guard).
    max_depth: std::sync::atomic::AtomicU32,
    /// Executed-opcode coverage, one counter per [`hpcnet_cil::Op`] kind
    /// (see `Op::kind_index`). Recorded by the interpreter tier only when
    /// [`Vm::set_op_coverage`] enabled it — the conformance fuzzer's
    /// per-opcode "executed at least once" accounting.
    op_coverage: Box<[AtomicU64]>,
    op_coverage_on: AtomicBool,
    /// Fuel (step-budget) guard: when `fuel_on`, every managed call and
    /// every taken branch decrements `fuel`; hitting zero aborts the run
    /// with [`VmError::Limit`]. The deterministic per-job timeout of the
    /// serve layer — wall clocks vary across machines, branch counts do
    /// not (see [`Vm::set_fuel`]).
    fuel_on: AtomicBool,
    fuel: std::sync::atomic::AtomicI64,
    /// Per-method attribution profiler + typed event trace, sized by the
    /// profile's [`ObserveLevel`] at construction (see [`crate::observe`]).
    pub(crate) observer: Observer,
    /// Optional shared compile front-half cache (see [`crate::rir::share`]).
    opt_share: std::sync::OnceLock<Arc<crate::rir::share::OptShare>>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm").field("profile", &self.profile.name).finish()
    }
}

impl Vm {
    /// Verify `module` and bind it to `profile`.
    pub fn new(mut module: Module, profile: VmProfile) -> VmResult<Arc<Vm>> {
        verify_module(&mut module)
            .map_err(|e| VmError::Internal(format!("module failed verification: {e}")))?;
        Ok(Self::new_unverified(module, profile))
    }

    /// Bind an already-verified module (differential tests reuse one
    /// verified module across many profiles).
    pub fn new_unverified(module: Module, profile: VmProfile) -> Arc<Vm> {
        Self::new_shared(Arc::new(module), profile)
    }

    /// Bind an already-shared module without re-verifying or cloning it.
    /// Engine fleets (the conform matrix) build every VM of a cell from
    /// one `Arc<Module>`; all module-derived ids (methods, strings,
    /// classes) are identical across those VMs by construction.
    pub fn new_shared(module: Arc<Module>, profile: VmProfile) -> Arc<Vm> {
        let heap = Heap::new();
        let statics = Statics {
            prim: (0..module.n_static_prim).map(|_| AtomicU64::new(0)).collect(),
            refs: (0..module.n_static_ref).map(|_| RefSlot::default()).collect(),
        };
        let literals = module
            .strings
            .iter()
            .map(|s| heap.adopt(HeapObj::new_str(s.clone())))
            .collect();
        let mut run_methods = HashMap::new();
        for (ci, _) in module.classes.iter().enumerate() {
            let class = ClassId(ci as u32);
            let mut cur = Some(class);
            'chain: while let Some(c) = cur {
                for mid in module.methods_of(c) {
                    let m = module.method(mid);
                    if m.name == "Run" && !m.is_static && m.params.is_empty() {
                        let resolved = module.resolve_virtual(class, mid);
                        run_methods.insert(class, resolved);
                        break 'chain;
                    }
                }
                cur = module.class(c).base;
            }
        }
        let n_methods = module.methods.len();
        Arc::new(Vm {
            id: NEXT_VM_ID.fetch_add(1, Ordering::Relaxed),
            well_known: WellKnown::resolve(&module),
            math: match profile.math {
                MathKind::Fast => MathTable::fast(),
                MathKind::Strict => MathTable::strict(),
            },
            module,
            profile,
            heap,
            statics,
            counters: Counters::default(),
            threads: ThreadRegistry::new(),
            code_cache: RwLock::new(vec![None; n_methods]),
            literals,
            run_methods,
            console: Mutex::new(Vec::new()),
            echo_console: AtomicBool::new(false),
            serial_sink: Mutex::new(Vec::new()),
            max_depth: std::sync::atomic::AtomicU32::new(256),
            op_coverage: (0..hpcnet_cil::Op::KIND_COUNT).map(|_| AtomicU64::new(0)).collect(),
            op_coverage_on: AtomicBool::new(false),
            fuel_on: AtomicBool::new(false),
            fuel: std::sync::atomic::AtomicI64::new(0),
            observer: Observer::new(profile.observe, n_methods),
            opt_share: std::sync::OnceLock::new(),
        })
    }

    /// This VM's unique identity (every constructed VM gets a fresh one;
    /// ids are never reused within a process). Snapshots record it so
    /// [`Vm::reset_to`] can reject a snapshot taken from a different VM.
    pub fn id(&self) -> u64 {
        self.id
    }

    // ---- fuel (deterministic step budget) ----

    /// Arm or disarm the fuel guard. `Some(n)` grants a budget of `n`
    /// steps — one step per managed call and per taken branch, across
    /// every execution tier — after which the running job aborts with
    /// [`VmError::Limit`]. `None` disarms the guard (the default; the
    /// only cost when disarmed is one relaxed load per branch).
    ///
    /// Step counts are a pure function of the executed program and the
    /// profile, so fuel exhaustion is bitwise-deterministic: the same job
    /// on the same profile exhausts at the same point on every machine
    /// and every worker — the property the serve layer's per-job timeout
    /// needs that a wall-clock deadline cannot give.
    pub fn set_fuel(&self, budget: Option<u64>) {
        match budget {
            Some(n) => {
                self.fuel
                    .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::Relaxed);
                self.fuel_on.store(true, Ordering::Relaxed);
            }
            None => {
                self.fuel_on.store(false, Ordering::Relaxed);
                self.fuel.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Remaining fuel, or `None` when the guard is disarmed. Exhausted
    /// runs report `Some(0)`.
    pub fn fuel_remaining(&self) -> Option<u64> {
        if !self.fuel_on.load(Ordering::Relaxed) {
            return None;
        }
        Some(self.fuel.load(Ordering::Relaxed).max(0) as u64)
    }

    /// Spend one unit of fuel (no-op when disarmed). Called by every
    /// tier's dispatch loop on taken branches and by [`Vm::invoke_at_depth`]
    /// on managed calls — any runaway program must do one or the other.
    #[inline]
    pub(crate) fn charge_fuel(&self) -> VmResult<()> {
        if !self.fuel_on.load(Ordering::Relaxed) {
            return Ok(());
        }
        let prev = self.fuel.fetch_sub(1, Ordering::Relaxed);
        if prev <= 0 {
            // Clamp so `fuel_remaining` reads 0, not a negative count
            // racing further down.
            self.fuel.store(0, Ordering::Relaxed);
            return Err(VmError::Limit("fuel budget exhausted".into()));
        }
        Ok(())
    }

    /// Attach a shared compile front-half cache (see [`crate::rir::share`]).
    /// Must be called before the first method compiles; later calls are
    /// ignored. VMs without a share compile independently.
    pub fn set_opt_share(&self, share: Arc<crate::rir::share::OptShare>) {
        let _ = self.opt_share.set(share);
    }

    pub(crate) fn opt_share(&self) -> Option<&Arc<crate::rir::share::OptShare>> {
        self.opt_share.get()
    }

    /// Invoke a method by id. `args` must match the signature (receiver
    /// first for instance methods).
    pub fn invoke(self: &Arc<Self>, method: MethodId, args: Vec<Value>) -> VmResult<Option<Value>> {
        self.invoke_at_depth(method, args, 0)
    }

    /// Invoke `"Class.Method"` by name.
    pub fn invoke_by_name(
        self: &Arc<Self>,
        qualified: &str,
        args: Vec<Value>,
    ) -> VmResult<Option<Value>> {
        let id = self
            .module
            .find_method(qualified)
            .ok_or_else(|| VmError::Internal(format!("no such method {qualified}")))?;
        self.invoke(id, args)
    }

    pub(crate) fn invoke_at_depth(
        self: &Arc<Self>,
        method: MethodId,
        args: Vec<Value>,
        depth: u32,
    ) -> VmResult<Option<Value>> {
        let max_depth = self.max_depth.load(Ordering::Relaxed);
        if depth >= max_depth {
            return Err(VmError::Limit(format!(
                "managed call depth exceeded {max_depth} in {}",
                self.module.method(method).name
            )));
        }
        self.charge_fuel()?;
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        if self.observer.enabled() {
            let before = self.observer.enter(method);
            let r = match self.profile.tier {
                Tier::Interpreter => interp::call(self, method, args, depth),
                Tier::Rir | Tier::Compiled => crate::compiled::call(self, method, args, depth),
            };
            // Runs on unwinds too: the opcodes a frame executed before
            // faulting stay attributed to it.
            self.observer.leave(method, before);
            return r;
        }
        match self.profile.tier {
            Tier::Interpreter => interp::call(self, method, args, depth),
            Tier::Rir | Tier::Compiled => crate::compiled::call(self, method, args, depth),
        }
    }

    /// Fetch (translating on first use) the register-tier code for a
    /// method: RIR allocated by the profile tier's allocator, translated to
    /// threaded closures (see [`crate::rir::compile`]). One cache serves
    /// both register tiers.
    pub fn compiled(self: &Arc<Self>, method: MethodId) -> VmResult<Arc<CompiledMethod>> {
        if let Some(m) = &self.code_cache.read()[method.idx()] {
            return Ok(m.clone());
        }
        let compiled = Arc::new(crate::rir::compile::compile(self, method)?);
        let mut cache = self.code_cache.write();
        if let Some(m) = &cache[method.idx()] {
            return Ok(m.clone()); // lost the race; use the winner
        }
        // Count only the translation that wins the cache race, so
        // `jit_compiles` means "methods compiled", bitwise equal across
        // runs and thread schedules (a loser used to be counted too).
        self.counters.jit_compiles.fetch_add(1, Ordering::Relaxed);
        cache[method.idx()] = Some(compiled.clone());
        Ok(compiled)
    }

    /// The same code as [`Vm::compiled`], under the name the threaded
    /// tier's callers use.
    pub fn threaded(self: &Arc<Self>, method: MethodId) -> VmResult<Arc<CompiledMethod>> {
        self.compiled(method)
    }

    /// Drain the attribution profiler into plain values; `None` when the
    /// profile's [`ObserveLevel`] is `Off`. Counts only — bit-identical
    /// across runs of a deterministic program (docs/OBSERVABILITY.md).
    pub fn observe_report(&self) -> Option<ObserveReport> {
        if !self.observer.enabled() {
            return None;
        }
        Some(self.observer.report(|m| self.method_display_name(m)))
    }

    /// The profiler's display name for a method: `"Class.Method"`.
    pub fn method_display_name(&self, m: MethodId) -> String {
        let md = self.module.method(m);
        format!("{}.{}", self.module.class(md.owner).name, md.name)
    }

    /// The VM's observation level (from the profile at construction).
    pub fn observe_level(&self) -> ObserveLevel {
        self.observer.level()
    }

    /// Install the observer's phase-timing time source (first caller
    /// wins; the default is the process wall clock). Only
    /// [`ObserveLevel::Trace`] ever reads it — overhead tests install a
    /// counting clock and assert zero reads at lower levels.
    pub fn set_trace_clock(&self, clock: Arc<dyn Fn() -> u64 + Send + Sync>) {
        self.observer.set_clock(clock);
    }

    /// Per-phase VM timing (JIT passes, EH unwind) accumulated at
    /// [`ObserveLevel::Trace`]; empty below it. Durations come from the
    /// installed trace clock, so unlike [`Vm::observe_report`] this is
    /// *not* deterministic under the default wall clock.
    pub fn phase_timings(&self) -> Vec<PhaseTiming> {
        self.observer.phase_timings()
    }

    /// Adjust the managed call-depth guard. Hosts running deeply recursive
    /// kernels (Fibonacci, Hanoi, game search) on big-stack threads may
    /// raise it; see [`run_on_big_stack`].
    pub fn set_max_depth(&self, d: u32) {
        self.max_depth.store(d, Ordering::Relaxed);
    }

    /// The interned string object for a literal.
    pub fn literal(&self, id: StrId) -> Obj {
        self.literals[id.idx()].clone()
    }

    // ---- snapshot / reset ----

    /// Capture the VM's mutable program state — heap (reachable from
    /// statics and string literals), static fields, console and serial
    /// buffers — so later runs can be undone with [`Vm::reset_to`].
    ///
    /// Must be called at a safepoint: no managed code running, all
    /// `Sys.Start` threads joined (this method joins them). Telemetry
    /// (counters, opcode coverage, observer events) is deliberately
    /// *not* part of the snapshot: it keeps accumulating across resets,
    /// and callers diff [`CountersSnapshot`]s around each run instead.
    /// The code cache is likewise untouched — keeping warmed compiled code
    /// across resets is the whole point.
    pub fn snapshot(&self) -> VmSnapshot {
        self.join_all_threads();
        let statics_refs: Box<[Option<Obj>]> =
            self.statics.refs.iter().map(|s| s.get()).collect();
        let mut roots: Vec<Obj> = statics_refs.iter().flatten().cloned().collect();
        roots.extend(self.literals.iter().cloned());
        VmSnapshot {
            vm_id: self.id,
            heap: HeapSnapshot::capture(&self.heap, &roots),
            statics_prim: self
                .statics
                .prim
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            statics_refs,
            console: self.console.lock().clone(),
            serial_sink: self.serial_sink.lock().clone(),
        }
    }

    /// Roll every effect of runs since `snap` back: statics, mutated heap
    /// objects (dirty-tracked — untouched objects are not rewritten),
    /// console and serial buffers, heap accounting. After this the VM is
    /// observationally identical to one freshly built and initialized,
    /// except that compiled code and telemetry are retained.
    ///
    /// Errors (without touching any state) if `snap` was captured from a
    /// different VM: replaying foreign statics and heap handles would
    /// silently cross-contaminate both VMs — exactly the corruption a
    /// VM-pooling service must never risk, so the mismatch is detected
    /// by identity token rather than trusted to caller discipline.
    ///
    /// Reference cycles created *after* the snapshot are the one thing
    /// not reclaimed here (reference counting frees everything acyclic
    /// once statics are restored); hosts running adversarial programs
    /// for long periods can run [`hpcnet_runtime::gc::collect`] on a
    /// tracking heap between resets.
    pub fn reset_to(&self, snap: &VmSnapshot) -> VmResult<ResetStats> {
        if snap.vm_id != self.id {
            return Err(VmError::Internal(format!(
                "reset_to: snapshot belongs to VM #{} but this is VM #{} \
                 (module {:p}); refusing to replay foreign state",
                snap.vm_id,
                self.id,
                Arc::as_ptr(&self.module),
            )));
        }
        self.join_all_threads();
        let mut statics_restored = 0u64;
        for (cell, &bits) in self.statics.prim.iter().zip(snap.statics_prim.iter()) {
            if cell.load(Ordering::Relaxed) != bits {
                cell.store(bits, Ordering::Relaxed);
                statics_restored += 1;
            }
        }
        for (slot, v) in self.statics.refs.iter().zip(snap.statics_refs.iter()) {
            let cur = slot.get();
            let same = match (&cur, v) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            if !same {
                slot.set(v.clone());
                statics_restored += 1;
            }
        }
        let heap = snap.heap.restore(&self.heap);
        *self.console.lock() = snap.console.clone();
        *self.serial_sink.lock() = snap.serial_sink.clone();
        Ok(ResetStats {
            objects_tracked: heap.objects_tracked,
            objects_restored: heap.objects_restored,
            statics_restored,
        })
    }

    /// Count state divergences from `snap` (0 ⇔ bitwise-identical heap
    /// payloads, statics, and console/serial buffers). Test-oriented:
    /// proves a reset reproduced the captured state exactly. A snapshot
    /// taken from a different VM never verifies: it reports one mismatch
    /// immediately instead of comparing unrelated state.
    pub fn verify_snapshot(&self, snap: &VmSnapshot) -> usize {
        if snap.vm_id != self.id {
            return 1;
        }
        let mut mismatches = snap.heap.verify();
        for (cell, &bits) in self.statics.prim.iter().zip(snap.statics_prim.iter()) {
            if cell.load(Ordering::Relaxed) != bits {
                mismatches += 1;
            }
        }
        for (slot, v) in self.statics.refs.iter().zip(snap.statics_refs.iter()) {
            let same = match (&slot.get(), v) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            };
            if !same {
                mismatches += 1;
            }
        }
        if *self.console.lock() != snap.console {
            mismatches += 1;
        }
        if *self.serial_sink.lock() != snap.serial_sink {
            mismatches += 1;
        }
        mismatches
    }

    // ---- console ----

    /// Echo console writes to stdout (examples); capture-only otherwise.
    pub fn set_echo(&self, on: bool) {
        self.echo_console.store(on, Ordering::Relaxed);
    }

    pub fn write_line(&self, s: String) {
        if self.echo_console.load(Ordering::Relaxed) {
            println!("{s}");
        }
        self.console.lock().push(s);
    }

    /// Drain captured console output.
    pub fn take_console(&self) -> Vec<String> {
        std::mem::take(&mut *self.console.lock())
    }

    // ---- executed-opcode coverage ----

    /// Enable or disable per-opcode execution recording. Only the
    /// interpreter tier records (the register tiers execute RIR, not CIL);
    /// coverage consumers run an interpreter profile over the module.
    pub fn set_op_coverage(&self, on: bool) {
        self.op_coverage_on.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_op(&self, op: &hpcnet_cil::Op) {
        if self.op_coverage_on.load(Ordering::Relaxed) {
            self.op_coverage[op.kind_index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Executed count per opcode kind, indexed like
    /// [`hpcnet_cil::OP_KIND_NAMES`].
    pub fn op_coverage_counts(&self) -> Vec<u64> {
        self.op_coverage.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    // ---- managed exception construction ----

    fn raise(&self, class: Option<ClassId>, what: &str, depth: u32) -> VmError {
        self.counters.throws.fetch_add(1, Ordering::Relaxed);
        self.throw_overhead(depth);
        match class {
            Some(c) => {
                let cd = self.module.class(c);
                let obj = self.heap.alloc_instance(
                    c,
                    cd.n_prim_slots as usize,
                    cd.n_ref_slots as usize,
                );
                VmError::Exception(obj)
            }
            None => VmError::Internal(format!("{what} (no prelude exception class declared)")),
        }
    }

    pub(crate) fn raise_null_ref(&self, depth: u32) -> VmError {
        self.raise(self.well_known.null_ref, "NullReferenceException", depth)
    }

    pub(crate) fn raise_index_oob(&self, depth: u32) -> VmError {
        self.raise(self.well_known.index_oob, "IndexOutOfRangeException", depth)
    }

    pub(crate) fn raise_div_zero(&self, depth: u32) -> VmError {
        self.raise(self.well_known.div_zero, "DivideByZeroException", depth)
    }

    pub(crate) fn raise_invalid_cast(&self, depth: u32) -> VmError {
        self.raise(self.well_known.invalid_cast, "InvalidCastException", depth)
    }

    /// Account for a user-level `throw` (cost model + counters).
    pub(crate) fn note_throw(&self, depth: u32) {
        self.counters.throws.fetch_add(1, Ordering::Relaxed);
        self.throw_overhead(depth);
    }

    /// The per-throw unwind/stack-trace work this profile performs. The
    /// CLI's two-pass SEH-style unwind with trace capture is modeled as
    /// real string-building work proportional to call depth; the JVM
    /// profiles do one pass (Graph 5's effect).
    fn throw_overhead(&self, depth: u32) {
        let t = self.observer.phase_start();
        let units = self.profile.exception_cost_units;
        if units != 0 {
            let mut trace = String::with_capacity(16 * (depth as usize + 1));
            for u in 0..units {
                trace.clear();
                for d in 0..=depth {
                    let _ = write!(trace, " at frame {d}/{u};");
                }
                std::hint::black_box(&trace);
            }
        }
        self.observer.phase_end(VmPhase::EhUnwind, t);
    }

    /// Can `sub` be treated as an instance of `sup`?
    pub(crate) fn instance_of(&self, obj: &Obj, class: ClassId) -> bool {
        match obj.class_id() {
            Some(c) => self.module.is_subclass_of(c, class),
            None => false,
        }
    }

    // ---- intrinsic dispatch ----

    /// Execute an intrinsic. `args` are in declaration order.
    pub(crate) fn intrinsic(
        self: &Arc<Self>,
        i: Intrinsic,
        args: &[Value],
        depth: u32,
    ) -> VmResult<Option<Value>> {
        use Intrinsic::*;
        let r8 = |k: usize| args[k].as_r8();
        let i4 = |k: usize| args[k].as_i4();
        let i8v = |k: usize| args[k].as_i8();
        let r4 = |k: usize| args[k].as_r4();
        let some_r8 = |v: f64| Ok(Some(Value::R8(v)));
        match i {
            AbsI4 => Ok(Some(Value::I4(i4(0).wrapping_abs()))),
            AbsI8 => Ok(Some(Value::I8(i8v(0).wrapping_abs()))),
            AbsR4 => Ok(Some(Value::R4(r4(0).abs()))),
            AbsR8 => some_r8(r8(0).abs()),
            MaxI4 => Ok(Some(Value::I4(i4(0).max(i4(1))))),
            MaxI8 => Ok(Some(Value::I8(i8v(0).max(i8v(1))))),
            MaxR4 => Ok(Some(Value::R4(r4(0).max(r4(1))))),
            MaxR8 => some_r8(r8(0).max(r8(1))),
            MinI4 => Ok(Some(Value::I4(i4(0).min(i4(1))))),
            MinI8 => Ok(Some(Value::I8(i8v(0).min(i8v(1))))),
            MinR4 => Ok(Some(Value::R4(r4(0).min(r4(1))))),
            MinR8 => some_r8(r8(0).min(r8(1))),
            Sin => some_r8((self.math.sin)(r8(0))),
            Cos => some_r8((self.math.cos)(r8(0))),
            Tan => some_r8((self.math.tan)(r8(0))),
            Asin => some_r8((self.math.asin)(r8(0))),
            Acos => some_r8((self.math.acos)(r8(0))),
            Atan => some_r8((self.math.atan)(r8(0))),
            Atan2 => some_r8((self.math.atan2)(r8(0), r8(1))),
            Floor => some_r8((self.math.floor)(r8(0))),
            Ceil => some_r8((self.math.ceil)(r8(0))),
            Sqrt => some_r8((self.math.sqrt)(r8(0))),
            Exp => some_r8((self.math.exp)(r8(0))),
            Log => some_r8((self.math.log)(r8(0))),
            Pow => some_r8((self.math.pow)(r8(0), r8(1))),
            Rint => some_r8((self.math.rint)(r8(0))),
            Random => some_r8(global_random()),
            RoundR4 => Ok(Some(Value::I4(crate::numerics::f64_to_i32(
                (self.math.rint)(r4(0) as f64),
            )))),
            RoundR8 => Ok(Some(Value::I8(crate::numerics::f64_to_i64(
                (self.math.rint)(r8(0)),
            )))),
            ConsoleWriteLineStr => {
                let s = match args[0].as_ref_opt() {
                    Some(o) => o.as_str().unwrap_or("<non-string>").to_string(),
                    None => return Err(self.raise_null_ref(depth)),
                };
                self.write_line(s);
                Ok(None)
            }
            ConsoleWriteLineI4 => {
                self.write_line(i4(0).to_string());
                Ok(None)
            }
            ConsoleWriteLineR8 => {
                self.write_line(format!("{:?}", r8(0)));
                Ok(None)
            }
            CurrentTimeMillis => Ok(Some(Value::I8(timer::millis()))),
            NanoTime => Ok(Some(Value::I8(timer::nanos()))),
            ThreadStart => {
                let obj = args[0]
                    .as_ref_opt()
                    .cloned()
                    .ok_or_else(|| self.raise_null_ref(depth))?;
                let class = obj
                    .class_id()
                    .ok_or_else(|| VmError::Internal("Sys.Start on non-instance".into()))?;
                let run = *self.run_methods.get(&class).ok_or_else(|| {
                    VmError::Internal(format!(
                        "class {} has no Run() method",
                        self.module.class(class).name
                    ))
                })?;
                let vm = self.clone();
                let handle = self.threads.spawn(move || {
                    vm.invoke(run, vec![Value::Ref(obj)])
                        .expect("managed thread body raised an unhandled exception");
                });
                Ok(Some(Value::I4(handle)))
            }
            ThreadJoin => {
                self.threads.join(i4(0));
                Ok(None)
            }
            ThreadYield => {
                std::thread::yield_now();
                Ok(None)
            }
            MonitorEnter => match args[0].as_ref_opt() {
                Some(o) => {
                    o.monitor.enter();
                    Ok(None)
                }
                None => Err(self.raise_null_ref(depth)),
            },
            MonitorExit => match args[0].as_ref_opt() {
                Some(o) => o
                    .monitor
                    .exit()
                    .map(|_| None)
                    .map_err(|_| VmError::Internal("Monitor.Exit without ownership".into())),
                None => Err(self.raise_null_ref(depth)),
            },
            StrConcat => {
                let a = args[0].as_ref_opt().and_then(|o| o.as_str()).unwrap_or("");
                let b = args[1].as_ref_opt().and_then(|o| o.as_str()).unwrap_or("");
                Ok(Some(Value::Ref(self.heap.alloc_str(format!("{a}{b}")))))
            }
            StrFromI4 => Ok(Some(Value::Ref(self.heap.alloc_str(i4(0).to_string())))),
            StrFromI8 => Ok(Some(Value::Ref(self.heap.alloc_str(i8v(0).to_string())))),
            StrFromR8 => Ok(Some(Value::Ref(self.heap.alloc_str(format!("{:?}", r8(0)))))),
            StrLen => {
                let n = args[0]
                    .as_ref_opt()
                    .and_then(|o| o.as_str())
                    .map(|s| s.chars().count())
                    .ok_or_else(|| self.raise_null_ref(depth))?;
                Ok(Some(Value::I4(n as i32)))
            }
            SerializeObj => {
                let bytes = match args[0].as_ref_opt() {
                    Some(o) => self.serialize(o),
                    None => return Err(self.raise_null_ref(depth)),
                };
                let n = bytes.len() as i32;
                *self.serial_sink.lock() = bytes;
                Ok(Some(Value::I4(n)))
            }
            DeserializeObj => {
                let bytes = self.serial_sink.lock().clone();
                let obj = self
                    .deserialize(&bytes)
                    .map_err(|e| VmError::Internal(format!("deserialize: {e}")))?;
                Ok(Some(match obj {
                    Some(o) => Value::Ref(o),
                    None => Value::Null,
                }))
            }
        }
    }

    // ---- serialization (the Serial micro-benchmark) ----

    /// Serialize an object graph (handles sharing and cycles with
    /// back-references).
    pub fn serialize(&self, root: &Obj) -> Vec<u8> {
        let mut w = Writer::new();
        let mut ids: HashMap<usize, u64> = HashMap::new();
        self.ser_obj(&mut w, &mut ids, Some(root));
        w.into_bytes()
    }

    fn ser_obj(&self, w: &mut Writer, ids: &mut HashMap<usize, u64>, obj: Option<&Obj>) {
        let obj = match obj {
            Some(o) => o,
            None => {
                w.tag(Tag::Null);
                return;
            }
        };
        let key = Obj::as_ptr(obj) as usize;
        if let Some(&id) = ids.get(&key) {
            w.tag(Tag::BackRef);
            w.varint(id);
            return;
        }
        ids.insert(key, ids.len() as u64);
        match &obj.body {
            ObjBody::Str(s) => {
                w.tag(Tag::Str);
                w.bytes(s.as_bytes());
            }
            ObjBody::Boxed { ty, bits } => {
                w.tag(Tag::Boxed);
                w.varint(num_ty_code(*ty) as u64);
                w.word(*bits);
            }
            ObjBody::Instance { class, prim, refs } => {
                w.tag(Tag::Instance);
                w.varint(class.0 as u64);
                w.varint(prim.len() as u64);
                for p in prim.iter() {
                    w.word(p.load(Ordering::Relaxed));
                }
                w.varint(refs.len() as u64);
                for r in refs.iter() {
                    self.ser_obj(w, ids, r.get().as_ref());
                }
            }
            ObjBody::ArrRef(d) => {
                w.tag(Tag::ArrRef);
                w.varint(d.len() as u64);
                for r in d.iter() {
                    self.ser_obj(w, ids, r.get().as_ref());
                }
            }
            ObjBody::MultiRef { dims, data } => {
                w.tag(Tag::MultiRef);
                w.varint(dims.len() as u64);
                for &d in dims.iter() {
                    w.varint(d as u64);
                }
                for r in data.iter() {
                    self.ser_obj(w, ids, r.get().as_ref());
                }
            }
            ObjBody::MultiPrim { kind, dims, data } => {
                w.tag(Tag::MultiPrim);
                w.varint(elem_code(*kind) as u64);
                w.varint(dims.len() as u64);
                for &d in dims.iter() {
                    w.varint(d as u64);
                }
                for p in data.iter() {
                    w.word(p.load(Ordering::Relaxed));
                }
            }
            body => {
                // Primitive SZ arrays.
                let kind = match body {
                    ObjBody::ArrU1(_) => ElemKind::U1,
                    ObjBody::ArrI4(_) => ElemKind::I4,
                    ObjBody::ArrI8(_) => ElemKind::I8,
                    ObjBody::ArrR4(_) => ElemKind::R4,
                    _ => ElemKind::R8,
                };
                let data = obj.prim_data();
                w.tag(Tag::ArrPrim);
                w.varint(elem_code(kind) as u64);
                w.varint(data.len() as u64);
                for p in data.iter() {
                    w.word(p.load(Ordering::Relaxed));
                }
            }
        }
    }

    /// Reconstruct an object graph from [`Vm::serialize`] output.
    pub fn deserialize(&self, bytes: &[u8]) -> Result<Option<Obj>, String> {
        let mut r = Reader::new(bytes);
        let mut table: Vec<Obj> = Vec::new();
        self.de_obj(&mut r, &mut table).map_err(|e| e.to_string())
    }

    fn de_obj(
        &self,
        r: &mut Reader<'_>,
        table: &mut Vec<Obj>,
    ) -> Result<Option<Obj>, hpcnet_runtime::serial::DecodeError> {
        use hpcnet_runtime::serial::DecodeError;
        let bad = |m: &str| DecodeError(m.to_string());
        match r.tag()? {
            Tag::Null => Ok(None),
            Tag::BackRef => {
                let id = r.varint()? as usize;
                table.get(id).cloned().map(Some).ok_or_else(|| bad("dangling backref"))
            }
            Tag::Str => {
                let s = String::from_utf8(r.bytes()?.to_vec()).map_err(|_| bad("bad utf8"))?;
                let o = self.heap.alloc_str(s);
                table.push(o.clone());
                Ok(Some(o))
            }
            Tag::Boxed => {
                let ty = code_num_ty(r.varint()? as u8).ok_or_else(|| bad("bad numty"))?;
                let o = self.heap.alloc_boxed(ty, r.word()?);
                table.push(o.clone());
                Ok(Some(o))
            }
            Tag::Instance => {
                let class = ClassId(r.varint()? as u32);
                if class.idx() >= self.module.classes.len() {
                    return Err(bad("bad class id"));
                }
                let n_prim = r.varint()? as usize;
                let cd = self.module.class(class);
                if n_prim != cd.n_prim_slots as usize {
                    return Err(bad("field count mismatch"));
                }
                let o = self
                    .heap
                    .alloc_instance(class, n_prim, cd.n_ref_slots as usize);
                table.push(o.clone());
                for slot in 0..n_prim {
                    o.set_prim_field(slot as u32, r.word()?);
                }
                let n_ref = r.varint()? as usize;
                if n_ref != cd.n_ref_slots as usize {
                    return Err(bad("ref count mismatch"));
                }
                for slot in 0..n_ref {
                    let child = self.de_obj(r, table)?;
                    o.set_ref_field(slot as u32, child);
                }
                Ok(Some(o))
            }
            Tag::ArrPrim => {
                let kind = code_elem(r.varint()? as u8).ok_or_else(|| bad("bad elem"))?;
                let len = r.varint()? as usize;
                let o = self.heap.alloc_array(kind, len);
                table.push(o.clone());
                for i in 0..len {
                    o.prim_data()[i].store(r.word()?, Ordering::Relaxed);
                }
                Ok(Some(o))
            }
            Tag::ArrRef => {
                let len = r.varint()? as usize;
                let o = self.heap.alloc_array(ElemKind::Ref, len);
                table.push(o.clone());
                for i in 0..len {
                    let child = self.de_obj(r, table)?;
                    o.ref_data()[i].set(child);
                }
                Ok(Some(o))
            }
            Tag::MultiPrim => {
                let kind = code_elem(r.varint()? as u8).ok_or_else(|| bad("bad elem"))?;
                let rank = r.varint()? as usize;
                let mut dims = Vec::with_capacity(rank);
                for _ in 0..rank {
                    dims.push(r.varint()? as u32);
                }
                let o = self.heap.alloc_multi(kind, &dims);
                table.push(o.clone());
                let n = o.prim_data().len();
                for i in 0..n {
                    o.prim_data()[i].store(r.word()?, Ordering::Relaxed);
                }
                Ok(Some(o))
            }
            Tag::MultiRef => {
                let rank = r.varint()? as usize;
                let mut dims = Vec::with_capacity(rank);
                for _ in 0..rank {
                    dims.push(r.varint()? as u32);
                }
                let o = self.heap.alloc_multi(ElemKind::Ref, &dims);
                table.push(o.clone());
                let n = o.ref_data().len();
                for i in 0..n {
                    let child = self.de_obj(r, table)?;
                    o.ref_data()[i].set(child);
                }
                Ok(Some(o))
            }
        }
    }

    /// Wait for every managed thread spawned via `Sys.Start`.
    pub fn join_all_threads(&self) {
        self.threads.join_all();
    }
}

/// Run a closure on a thread with a large (64 MiB) stack.
///
/// Managed recursion is bounded by the VM's depth guard, but each managed
/// frame consumes several native frames whose size varies by build
/// profile; hosts running deep recursive kernels at raised depth limits
/// should wrap the entry invocation in this.
pub fn run_on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .expect("spawn big-stack thread")
        .join()
        .expect("big-stack thread panicked")
}

fn num_ty_code(t: NumTy) -> u8 {
    match t {
        NumTy::I4 => 0,
        NumTy::I8 => 1,
        NumTy::R4 => 2,
        NumTy::R8 => 3,
    }
}

fn code_num_ty(c: u8) -> Option<NumTy> {
    Some(match c {
        0 => NumTy::I4,
        1 => NumTy::I8,
        2 => NumTy::R4,
        3 => NumTy::R8,
        _ => return None,
    })
}

fn elem_code(k: ElemKind) -> u8 {
    match k {
        ElemKind::U1 => 0,
        ElemKind::I4 => 1,
        ElemKind::I8 => 2,
        ElemKind::R4 => 3,
        ElemKind::R8 => 4,
        ElemKind::Ref => 5,
    }
}

fn code_elem(c: u8) -> Option<ElemKind> {
    Some(match c {
        0 => ElemKind::U1,
        1 => ElemKind::I4,
        2 => ElemKind::I8,
        3 => ElemKind::R4,
        4 => ElemKind::R8,
        5 => ElemKind::Ref,
        _ => return None,
    })
}
