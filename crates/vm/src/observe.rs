//! Per-method attribution profiling and the structured event trace.
//!
//! The paper's Section 5 explains every CLR/Mono/Rotor gap by *mechanism*
//! — enregistration, bounds-check elimination, exception-path cost — but
//! wall-time rates alone cannot show which mechanism fired where. This
//! module is the deterministic attribution layer: per-method counters
//! (invocations, inclusive/exclusive executed-opcode counts, opcode-kind
//! histograms, bounds checks executed vs. elided, allocations, exception
//! dispatches by handler kind) plus a bounded trace of typed events (JIT
//! compile outcomes, loop-pass rejection reasons, EH dispatch steps,
//! allocation milestones).
//!
//! Everything is gated behind [`ObserveLevel`] on
//! [`crate::profile::VmProfile`]:
//!
//! * `Off` — the default. Every recording entry point is a single
//!   predictable branch on a plain enum field; no cells are allocated.
//! * `Counters` — per-method atomic counters, no events.
//! * `Trace` — counters plus the bounded typed-event buffer.
//!
//! Determinism: all recorded quantities are *counts* of deterministic VM
//! work (never wall times), so for a single-threaded program two runs of
//! the same module under the same profile produce bit-identical
//! [`ObserveReport`]s. With managed threads the per-method exclusive
//! counters remain exact (they are atomic), but inclusive counts and
//! event interleaving depend on the schedule.
//!
//! Scope notes (documented limits, pinned by tests where they matter):
//!
//! * Bounds-check accounting covers one-dimensional `ldelem`/`stelem` —
//!   the domain of the `bce` mechanisms.
//!   Multi-dimensional accesses validate per-dimension inside the
//!   accessor and are out of ABCE's reach (Graph 12's point).
//! * Allocation counts are derived from executed allocation opcodes
//!   (`newobj`, `newarr`, `newmultiarr`, `box`). Exception objects the
//!   *runtime* allocates while raising a fault (and strings built by
//!   intrinsics) are not attributed to a method.
//! * Inclusive opcode counts attribute a callee's work to every live
//!   caller frame; recursive methods therefore count their own subtree
//!   once per live activation, the standard inclusive-profile caveat.

use crate::rir::{BoundsMode, RInst};
use hpcnet_cil::{MethodId, Op, OP_KIND_NAMES};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How much the VM records while executing (a knob on
/// [`crate::profile::VmProfile`]; `Off` in every stock profile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObserveLevel {
    /// Record nothing; the check is one predictable branch per hook.
    #[default]
    Off,
    /// Per-method counters (invocations, opcode histograms, bounds
    /// checks, allocations, EH dispatches).
    Counters,
    /// Counters plus the bounded typed-event trace.
    Trace,
}

impl ObserveLevel {
    /// Stable lowercase name (used by reports and CLI flags).
    pub fn as_str(&self) -> &'static str {
        match self {
            ObserveLevel::Off => "off",
            ObserveLevel::Counters => "counters",
            ObserveLevel::Trace => "trace",
        }
    }

    /// Parse the name produced by [`ObserveLevel::as_str`].
    pub fn parse(s: &str) -> Option<ObserveLevel> {
        Some(match s {
            "off" => ObserveLevel::Off,
            "counters" => ObserveLevel::Counters,
            "trace" => ObserveLevel::Trace,
            _ => return None,
        })
    }
}

/// Maximum retained events; later events increment
/// [`ObserveReport::events_dropped`] instead of growing without bound.
pub const EVENT_CAP: usize = 4096;

/// An [`Event::AllocMilestone`] is emitted every this-many allocations.
pub const ALLOC_MILESTONE_EVERY: u64 = 1024;

/// A VM-internal phase the observer times at [`ObserveLevel::Trace`].
///
/// Unlike every other observed quantity these are *durations*, so they
/// are inherently nondeterministic and live outside [`ObserveReport`]
/// (which stays bit-identical across runs). Consumers drain them
/// separately via [`crate::machine::Vm::phase_timings`]. Below `Trace`
/// no clock is ever read — the serve-layer overhead tests pin that with
/// a counting clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmPhase {
    /// CIL → RIR lowering (front-half cache misses only; a shared-cache
    /// hit performs no lowering and records nothing).
    JitLower,
    /// The optimization pipeline over lowered RIR (misses only).
    JitOptimize,
    /// Register/slot allocation (runs per VM on both register tiers,
    /// hit or miss).
    JitAllocate,
    /// The per-throw unwind/stack-trace cost model
    /// (`exception_cost_units`).
    EhUnwind,
}

/// Number of [`VmPhase`] variants.
pub const VM_PHASE_COUNT: usize = 4;

impl VmPhase {
    /// All phases, in the order reports list them.
    pub const ALL: [VmPhase; VM_PHASE_COUNT] = [
        VmPhase::JitLower,
        VmPhase::JitOptimize,
        VmPhase::JitAllocate,
        VmPhase::EhUnwind,
    ];

    /// Stable kebab-case name (used by the TRACE json schema).
    pub fn as_str(&self) -> &'static str {
        match self {
            VmPhase::JitLower => "jit-lower",
            VmPhase::JitOptimize => "jit-optimize",
            VmPhase::JitAllocate => "jit-allocate",
            VmPhase::EhUnwind => "eh-unwind",
        }
    }

    fn idx(self) -> usize {
        match self {
            VmPhase::JitLower => 0,
            VmPhase::JitOptimize => 1,
            VmPhase::JitAllocate => 2,
            VmPhase::EhUnwind => 3,
        }
    }
}

/// Accumulated timing for one [`VmPhase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTiming {
    pub phase: VmPhase,
    /// Times the phase ran.
    pub count: u64,
    /// Total nanoseconds across all runs (per the installed clock).
    pub total_ns: u64,
}

/// The observer's time source — swappable so tests drive phase timing
/// from a virtual or counting clock (`Vm::set_trace_clock`).
struct PhaseClock(Arc<dyn Fn() -> u64 + Send + Sync>);

impl std::fmt::Debug for PhaseClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseClock(..)")
    }
}

/// Process-wide wall-clock default, anchored at first use so readings
/// stay small.
fn default_now_ns() -> u64 {
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    ORIGIN
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Why range analysis certified no access in a natural loop (one reason
/// per loop, the first disqualifier found — the same order the pass
/// checks them in).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopRejectReason {
    /// The loop body overlaps an exception-handling region.
    OverlapsEh,
    /// The header's terminator is not a recognizable compare-and-branch
    /// guard over a slot the pass can reason about.
    NoHeaderGuard,
    /// A guard exists but its shape is wrong: both edges land in the
    /// loop, the predicate is not a strict bound, or the bound is not an
    /// array length.
    GuardShape,
    /// The hand-hoisted `len` local is written inside the loop.
    BoundMutated,
    /// The array reference is redefined inside the loop.
    ArrayMutated,
    /// The induction variable has an in-loop definition that is not a
    /// positive constant increment.
    IndexStep,
    /// Some entry edge reaches the header without a known non-negative
    /// constant for the induction variable.
    EntryUnknown,
}

impl LoopRejectReason {
    /// Stable kebab-case name (used by the PROFILE json schema).
    pub fn as_str(&self) -> &'static str {
        match self {
            LoopRejectReason::OverlapsEh => "overlaps-eh",
            LoopRejectReason::NoHeaderGuard => "no-header-guard",
            LoopRejectReason::GuardShape => "guard-shape",
            LoopRejectReason::BoundMutated => "bound-mutated",
            LoopRejectReason::ArrayMutated => "array-mutated",
            LoopRejectReason::IndexStep => "index-step",
            LoopRejectReason::EntryUnknown => "entry-unknown",
        }
    }
}

/// Which kind of handler an exception dispatch step reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EhDispatchKind {
    /// A catch handler matched and took the exception.
    Catch,
    /// A finally handler ran as part of the dispatch.
    Finally,
    /// No handler in the frame took it — the exception propagated out
    /// (the fault path through this frame).
    FaultPath,
}

impl EhDispatchKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            EhDispatchKind::Catch => "catch",
            EhDispatchKind::Finally => "finally",
            EhDispatchKind::FaultPath => "fault-path",
        }
    }
}

/// Per-pass outcome of one JIT compilation (register-tier profiles only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JitOutcome {
    /// Final RIR instruction count.
    pub rir_len: u32,
    /// Checks removed as the counted-loop idiom (`ElidedIdiom`): by the
    /// structural matcher or by range analysis under a direct length guard.
    pub idiom_removed: u32,
    /// Natural loops the loop tier found (0 when `bce` and `licm` are
    /// both off — the tier does not even build the CFG then).
    pub loops_found: u32,
    /// Checks removed by symbolic range analysis (derived indices).
    pub range_removed: u32,
    /// Checks removed in guarded loop-version fast clones.
    pub versioned_removed: u32,
    /// Loops given a guarded check-free version.
    pub loops_versioned: u32,
    /// Instructions hoisted by LICM.
    pub licm_hoisted: u32,
    /// Primitive virtual registers that won a register-file slot.
    pub enreg_prim: u16,
    /// Primitive virtual registers spilled to the (volatile) frame.
    pub spill_prim: u16,
    /// Reference registers enregistered / spilled.
    pub enreg_ref: u16,
    pub spill_ref: u16,
}

/// A typed trace record. Drained via [`ObserveReport::events`]; never a
/// formatted string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A method was translated to RIR, with its per-pass outcomes.
    JitCompile { method: MethodId, outcome: JitOutcome },
    /// Range analysis (`bce`) certified no access in one natural loop.
    LoopRejected { method: MethodId, header_pc: u32, reason: LoopRejectReason },
    /// One exception dispatch step in a frame of `method`.
    EhDispatch { method: MethodId, kind: EhDispatchKind },
    /// Every [`ALLOC_MILESTONE_EVERY`]-th allocation.
    AllocMilestone { total: u64 },
}

/// Defines the per-method counter table once: the atomic cells of
/// [`MethodCell`], the plain-value fields of [`MethodProfile`], the one
/// loader between them, and the `(name, value)` listing the artifacts
/// emit and validate. A counter's field name is its artifact key.
///
/// The table holds the summable event counts; invocations, the
/// inclusive/exclusive opcode counts and the kind histogram are frame
/// bookkeeping with their own invariants, so they stay outside it.
macro_rules! method_counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// Per-method atomic accumulation cells.
        #[derive(Debug)]
        struct MethodCell {
            invocations: AtomicU64,
            /// Opcodes executed in this method's own frames.
            ops_excl: AtomicU64,
            /// Opcodes executed in this method's frames plus everything its
            /// calls executed (single-threaded attribution).
            ops_incl: AtomicU64,
            /// Executed-opcode histogram, indexed like [`OP_KIND_NAMES`]. The
            /// register tier maps each `RInst` to its closest CIL kind.
            kinds: Box<[AtomicU64]>,
            $($name: AtomicU64,)+
        }

        impl MethodCell {
            fn new() -> MethodCell {
                MethodCell {
                    invocations: AtomicU64::new(0),
                    ops_excl: AtomicU64::new(0),
                    ops_incl: AtomicU64::new(0),
                    kinds: (0..Op::KIND_COUNT).map(|_| AtomicU64::new(0)).collect(),
                    $($name: AtomicU64::new(0),)+
                }
            }

            /// Every cell as a plain value (relaxed loads).
            fn load(&self, method: MethodId, name: String) -> MethodProfile {
                let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
                MethodProfile {
                    method,
                    name,
                    invocations: ld(&self.invocations),
                    ops_excl: ld(&self.ops_excl),
                    ops_incl: ld(&self.ops_incl),
                    op_kinds: self.kinds.iter().map(ld).collect(),
                    $($name: ld(&self.$name),)+
                }
            }
        }

        /// Plain-value attribution for one method (all counts; no times).
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct MethodProfile {
            pub method: MethodId,
            /// `"Class.Method"`.
            pub name: String,
            pub invocations: u64,
            /// Opcodes executed in this method's own frames.
            pub ops_excl: u64,
            /// Opcodes executed in this method's frames plus its callees'.
            pub ops_incl: u64,
            /// Executed-opcode histogram, indexed like [`OP_KIND_NAMES`].
            pub op_kinds: Vec<u64>,
            $($(#[doc = $doc])+ pub $name: u64,)+
        }

        impl MethodProfile {
            /// Every per-method counter name (= artifact key), in table order.
            pub const COUNTER_NAMES: &'static [&'static str] = &[$(stringify!($name)),+];

            /// `(name, value)` for every table counter, in
            /// [`Self::COUNTER_NAMES`] order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::COUNTER_NAMES.iter().copied().zip([$(self.$name),+])
            }
        }
    };
}

method_counters! {
    /// One-dimensional element accesses that tested bounds at run time.
    bounds_checks_executed,
    /// Element accesses whose check was elided at JIT time, crossed at run
    /// time — the three mechanism splits below sum to this.
    bounds_checks_elided,
    /// Elided as the counted-loop idiom (`bce`: structural matcher, or
    /// range analysis under a direct length guard).
    bounds_checks_elided_idiom,
    /// Elided by symbolic range analysis on derived indices (`bce`).
    bounds_checks_elided_range,
    /// Elided inside a guarded loop-version fast clone (`bce`).
    bounds_checks_elided_versioned,
    /// Allocation opcodes executed (`newobj`, `newarr`, `newmultiarr`, `box`).
    allocs,
    /// Exception dispatch steps where a catch handler took the exception.
    eh_catch,
    /// Exception dispatch steps that ran a finally handler.
    eh_finally,
    /// Exception dispatch steps that left the frame unhandled.
    eh_fault_path,
}

/// The per-VM observation state. Constructed once per
/// [`crate::machine::Vm`] from the profile's [`ObserveLevel`]; the level
/// never changes afterwards, so the off path stays branch-predictable.
#[derive(Debug)]
pub(crate) struct Observer {
    level: ObserveLevel,
    /// One cell per module method; empty when `Off`.
    cells: Box<[MethodCell]>,
    /// Total opcodes executed across all methods (the exclusive counts
    /// sum to this; enter/leave deltas derive inclusive counts from it).
    ops_total: AtomicU64,
    allocs_total: AtomicU64,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
    /// Per-[`VmPhase`] run counts and total nanoseconds; only written at
    /// `Trace` level (below it [`Observer::phase_start`] never reads the
    /// clock).
    phase_counts: [AtomicU64; VM_PHASE_COUNT],
    phase_ns: [AtomicU64; VM_PHASE_COUNT],
    clock: OnceLock<PhaseClock>,
}

impl Observer {
    pub(crate) fn new(level: ObserveLevel, n_methods: usize) -> Observer {
        let cells = match level {
            ObserveLevel::Off => Box::from([]),
            _ => (0..n_methods).map(|_| MethodCell::new()).collect(),
        };
        Observer {
            level,
            cells,
            ops_total: AtomicU64::new(0),
            allocs_total: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            events_dropped: AtomicU64::new(0),
            phase_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            clock: OnceLock::new(),
        }
    }

    #[inline(always)]
    pub(crate) fn enabled(&self) -> bool {
        self.level != ObserveLevel::Off
    }

    #[inline(always)]
    pub(crate) fn tracing(&self) -> bool {
        self.level == ObserveLevel::Trace
    }

    pub(crate) fn level(&self) -> ObserveLevel {
        self.level
    }

    /// Record frame entry; the returned token feeds [`Observer::leave`].
    #[inline]
    pub(crate) fn enter(&self, method: MethodId) -> u64 {
        self.cells[method.idx()].invocations.fetch_add(1, Ordering::Relaxed);
        self.ops_total.load(Ordering::Relaxed)
    }

    /// Record frame exit: everything executed since `enter` is inclusive
    /// work of `method`.
    #[inline]
    pub(crate) fn leave(&self, method: MethodId, ops_before: u64) {
        let delta = self.ops_total.load(Ordering::Relaxed).saturating_sub(ops_before);
        self.cells[method.idx()].ops_incl.fetch_add(delta, Ordering::Relaxed);
    }

    /// Record one executed CIL opcode (interpreter tier).
    #[inline]
    pub(crate) fn record_interp_op(&self, method: MethodId, op: &Op) {
        self.ops_total.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[method.idx()];
        cell.ops_excl.fetch_add(1, Ordering::Relaxed);
        cell.kinds[op.kind_index()].fetch_add(1, Ordering::Relaxed);
        match op {
            // The interpreter bounds-checks every element access inline.
            Op::LdElem(_) | Op::StElem(_) => {
                cell.bounds_checks_executed.fetch_add(1, Ordering::Relaxed);
            }
            Op::NewObj(_) | Op::NewArr(_) | Op::NewMultiArr { .. } | Op::BoxVal(_) => {
                self.alloc(cell);
            }
            _ => {}
        }
    }

    /// Record one executed RIR instruction (register tier).
    #[inline]
    pub(crate) fn record_exec_op(&self, method: MethodId, inst: &RInst) {
        self.ops_total.fetch_add(1, Ordering::Relaxed);
        let cell = &self.cells[method.idx()];
        cell.ops_excl.fetch_add(1, Ordering::Relaxed);
        cell.kinds[rinst_kind_index(inst)].fetch_add(1, Ordering::Relaxed);
        match inst {
            RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } => match bounds {
                BoundsMode::Checked => {
                    cell.bounds_checks_executed.fetch_add(1, Ordering::Relaxed);
                }
                BoundsMode::ElidedIdiom => {
                    cell.bounds_checks_elided.fetch_add(1, Ordering::Relaxed);
                    cell.bounds_checks_elided_idiom.fetch_add(1, Ordering::Relaxed);
                }
                BoundsMode::ElidedRange => {
                    cell.bounds_checks_elided.fetch_add(1, Ordering::Relaxed);
                    cell.bounds_checks_elided_range.fetch_add(1, Ordering::Relaxed);
                }
                BoundsMode::ElidedVersioned => {
                    cell.bounds_checks_elided.fetch_add(1, Ordering::Relaxed);
                    cell.bounds_checks_elided_versioned.fetch_add(1, Ordering::Relaxed);
                }
            },
            RInst::NewObj { .. }
            | RInst::NewArr { .. }
            | RInst::NewMulti { .. }
            | RInst::BoxV { .. } => self.alloc(cell),
            _ => {}
        }
    }

    #[inline]
    fn alloc(&self, cell: &MethodCell) {
        cell.allocs.fetch_add(1, Ordering::Relaxed);
        let total = self.allocs_total.fetch_add(1, Ordering::Relaxed) + 1;
        if self.tracing() && total % ALLOC_MILESTONE_EVERY == 0 {
            self.push_event(Event::AllocMilestone { total });
        }
    }

    /// Record one exception dispatch step in a frame of `method`.
    #[inline]
    pub(crate) fn eh_dispatch(&self, method: MethodId, kind: EhDispatchKind) {
        let cell = &self.cells[method.idx()];
        match kind {
            EhDispatchKind::Catch => cell.eh_catch.fetch_add(1, Ordering::Relaxed),
            EhDispatchKind::Finally => cell.eh_finally.fetch_add(1, Ordering::Relaxed),
            EhDispatchKind::FaultPath => cell.eh_fault_path.fetch_add(1, Ordering::Relaxed),
        };
        if self.tracing() {
            self.push_event(Event::EhDispatch { method, kind });
        }
    }

    // ---- phase timing (Trace level only) ----

    /// Take a clock reading at phase entry — `None` (no clock read at
    /// all) below `Trace`. Pass the token to [`Observer::phase_end`].
    #[inline(always)]
    pub(crate) fn phase_start(&self) -> Option<u64> {
        if self.level != ObserveLevel::Trace {
            return None;
        }
        Some(self.clock_now())
    }

    /// Close a phase opened by [`Observer::phase_start`]; a `None` token
    /// is free.
    #[inline]
    pub(crate) fn phase_end(&self, phase: VmPhase, start: Option<u64>) {
        let Some(s) = start else { return };
        let dur = self.clock_now().saturating_sub(s);
        self.phase_counts[phase.idx()].fetch_add(1, Ordering::Relaxed);
        self.phase_ns[phase.idx()].fetch_add(dur, Ordering::Relaxed);
    }

    fn clock_now(&self) -> u64 {
        match self.clock.get() {
            Some(c) => (c.0)(),
            None => default_now_ns(),
        }
    }

    /// Install the phase-timing time source (first caller wins; the
    /// default is the process wall clock).
    pub(crate) fn set_clock(&self, f: Arc<dyn Fn() -> u64 + Send + Sync>) {
        let _ = self.clock.set(PhaseClock(f));
    }

    /// Phases that ran at least once, in [`VmPhase::ALL`] order.
    pub(crate) fn phase_timings(&self) -> Vec<PhaseTiming> {
        VmPhase::ALL
            .iter()
            .filter_map(|&phase| {
                let count = self.phase_counts[phase.idx()].load(Ordering::Relaxed);
                if count == 0 {
                    return None;
                }
                Some(PhaseTiming {
                    phase,
                    count,
                    total_ns: self.phase_ns[phase.idx()].load(Ordering::Relaxed),
                })
            })
            .collect()
    }

    /// Append an event, bounded by [`EVENT_CAP`].
    pub(crate) fn push_event(&self, ev: Event) {
        let mut buf = self.events.lock();
        if buf.len() < EVENT_CAP {
            buf.push(ev);
        } else {
            self.events_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot everything into plain values. `name_of` resolves
    /// method ids to display names ("Class.Method").
    pub(crate) fn report(&self, name_of: impl Fn(MethodId) -> String) -> ObserveReport {
        let methods = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                if c.invocations.load(Ordering::Relaxed) == 0
                    && c.ops_excl.load(Ordering::Relaxed) == 0
                {
                    return None;
                }
                let method = MethodId(i as u32);
                Some(c.load(method, name_of(method)))
            })
            .collect();
        ObserveReport {
            level: self.level,
            total_ops: self.ops_total.load(Ordering::Relaxed),
            total_allocs: self.allocs_total.load(Ordering::Relaxed),
            methods,
            events: self.events.lock().clone(),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
        }
    }
}

impl MethodProfile {
    /// Nonzero entries of the opcode histogram as `(kind-name, count)`,
    /// in kind order.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        self.op_kinds
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (OP_KIND_NAMES[i], n))
            .collect()
    }
}

/// Everything one VM observed, in plain values — the drain format for
/// the harness (see [`crate::machine::Vm::observe_report`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObserveReport {
    pub level: ObserveLevel,
    /// Total opcodes executed (equals the sum of `ops_excl`).
    pub total_ops: u64,
    pub total_allocs: u64,
    /// Methods that ran (or were called), in method-id order.
    pub methods: Vec<MethodProfile>,
    pub events: Vec<Event>,
    /// Events discarded after [`EVENT_CAP`] was reached.
    pub events_dropped: u64,
}

impl ObserveReport {
    /// The profile for a method id, if it ran.
    pub fn method(&self, m: MethodId) -> Option<&MethodProfile> {
        self.methods.iter().find(|p| p.method == m)
    }

    /// Sum a per-method metric over all methods.
    pub fn total_of(&self, f: impl Fn(&MethodProfile) -> u64) -> u64 {
        self.methods.iter().map(f).sum()
    }

    /// Every per-method table counter summed over all methods, in
    /// [`MethodProfile::COUNTER_NAMES`] order.
    pub fn counter_totals(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut sums = vec![0u64; MethodProfile::COUNTER_NAMES.len()];
        for m in &self.methods {
            for (sum, (_, v)) in sums.iter_mut().zip(m.counters()) {
                *sum += v;
            }
        }
        MethodProfile::COUNTER_NAMES.iter().copied().zip(sums)
    }
}

/// Map a register-tier instruction to the CIL opcode kind it descends
/// from, as an index into [`OP_KIND_NAMES`]. Lowering is not 1:1 — moves
/// from copy elimination report as `ldloc`, any constant materialization
/// as `ldc.i4`, both branch-on-bool forms as `brtrue` — a documented
/// approximation that keeps the two tiers' histograms comparable.
fn rinst_kind_index(inst: &RInst) -> usize {
    // Compact per-variant code, resolved to OP_KIND_NAMES positions once.
    const RK_NAMES: [&str; 39] = [
        "nop",            // 0 Nop
        "ldloc",          // 1 MovP
        "ldloc",          // 2 MovR
        "ldc.i4",         // 3 ConstP
        "ldnull",         // 4 ConstNull
        "ldstr",          // 5 ConstStr
        "bin",            // 6 Bin
        "un",             // 7 Un
        "conv",           // 8 Conv
        "cmp",            // 9 Cmp
        "cmp",            // 10 CmpRef
        "br",             // 11 Br
        "brtrue",         // 12 BrIf
        "brtrue",         // 13 BrIfRef
        "brcmp",          // 14 BrCmp
        "call",           // 15 Call (direct)
        "callvirt",       // 16 Call (virtual)
        "callintrinsic",  // 17 CallIntr
        "ret",            // 18 Ret
        "newobj",         // 19 NewObj
        "ldfld",          // 20 LdFld
        "stfld",          // 21 StFld
        "ldsfld",         // 22 LdSFld
        "stsfld",         // 23 StSFld
        "isinst",         // 24 IsInst
        "castclass",      // 25 CastClass
        "newarr",         // 26 NewArr
        "ldlen",          // 27 LdLen
        "ldelem",         // 28 LdElem
        "stelem",         // 29 StElem
        "newmultiarr",    // 30 NewMulti
        "ldelem.multi",   // 31 LdElemMulti
        "stelem.multi",   // 32 StElemMulti
        "ldlen.multi",    // 33 LdMultiLen
        "box",            // 34 BoxV
        "unbox",          // 35 UnboxV
        "throw",          // 36 Throw
        "leave",          // 37 Leave
        "endfinally",     // 38 EndFinally
    ];
    static LUT: OnceLock<[usize; 39]> = OnceLock::new();
    let lut = LUT.get_or_init(|| {
        let mut t = [0usize; 39];
        for (i, name) in RK_NAMES.iter().enumerate() {
            t[i] = OP_KIND_NAMES
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("unknown opcode kind name {name}"));
        }
        t
    });
    let code = match inst {
        RInst::Nop => 0,
        RInst::MovP { .. } => 1,
        RInst::MovR { .. } => 2,
        RInst::ConstP { .. } => 3,
        RInst::ConstNull { .. } => 4,
        RInst::ConstStr { .. } => 5,
        RInst::Bin { .. } => 6,
        RInst::Un { .. } => 7,
        RInst::Conv { .. } => 8,
        RInst::Cmp { .. } => 9,
        RInst::CmpRef { .. } => 10,
        RInst::Br { .. } => 11,
        RInst::BrIf { .. } => 12,
        RInst::BrIfRef { .. } => 13,
        RInst::BrCmp { .. } => 14,
        RInst::Call { virt, .. } => {
            if *virt {
                16
            } else {
                15
            }
        }
        RInst::CallIntr { .. } => 17,
        RInst::Ret { .. } => 18,
        RInst::NewObj { .. } => 19,
        RInst::LdFld { .. } => 20,
        RInst::StFld { .. } => 21,
        RInst::LdSFld { .. } => 22,
        RInst::StSFld { .. } => 23,
        RInst::IsInst { .. } => 24,
        RInst::CastClass { .. } => 25,
        RInst::NewArr { .. } => 26,
        RInst::LdLen { .. } => 27,
        RInst::LdElem { .. } => 28,
        RInst::StElem { .. } => 29,
        RInst::NewMulti { .. } => 30,
        RInst::LdElemMulti { .. } => 31,
        RInst::StElemMulti { .. } => 32,
        RInst::LdMultiLen { .. } => 33,
        RInst::BoxV { .. } => 34,
        RInst::UnboxV { .. } => 35,
        RInst::Throw { .. } => 36,
        RInst::Leave { .. } => 37,
        RInst::EndFinally => 38,
    };
    lut[code]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_roundtrip() {
        for l in [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace] {
            assert_eq!(ObserveLevel::parse(l.as_str()), Some(l));
        }
        assert_eq!(ObserveLevel::parse("bogus"), None);
        assert!(ObserveLevel::Off < ObserveLevel::Counters);
        assert!(ObserveLevel::Counters < ObserveLevel::Trace);
    }

    #[test]
    fn rinst_kinds_resolve_to_valid_indices() {
        // Every variant's mapping must land on a real CIL kind name.
        let samples: Vec<RInst> = vec![
            RInst::Nop,
            RInst::MovP { dst: 0, src: 0 },
            RInst::ConstP { dst: 0, bits: 1 },
            RInst::Br { t: 0 },
            RInst::EndFinally,
        ];
        for inst in &samples {
            assert!(rinst_kind_index(inst) < Op::KIND_COUNT);
        }
        assert_eq!(OP_KIND_NAMES[rinst_kind_index(&RInst::Nop)], "nop");
        assert_eq!(OP_KIND_NAMES[rinst_kind_index(&RInst::MovP { dst: 0, src: 0 })], "ldloc");
    }

    #[test]
    fn event_buffer_is_bounded() {
        let obs = Observer::new(ObserveLevel::Trace, 1);
        for i in 0..(EVENT_CAP as u64 + 10) {
            obs.push_event(Event::AllocMilestone { total: i });
        }
        let rep = obs.report(|_| "M".into());
        assert_eq!(rep.events.len(), EVENT_CAP);
        assert_eq!(rep.events_dropped, 10);
    }

    #[test]
    fn off_observer_allocates_no_cells() {
        let obs = Observer::new(ObserveLevel::Off, 100);
        assert!(!obs.enabled());
        assert_eq!(obs.cells.len(), 0);
    }

    #[test]
    fn phase_timing_only_reads_clock_at_trace() {
        use std::sync::atomic::AtomicU64;
        for level in [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace] {
            let obs = Observer::new(level, 1);
            let reads = Arc::new(AtomicU64::new(0));
            let r = reads.clone();
            obs.set_clock(Arc::new(move || r.fetch_add(1, Ordering::Relaxed) * 50));
            let t = obs.phase_start();
            obs.phase_end(VmPhase::JitLower, t);
            if level == ObserveLevel::Trace {
                assert_eq!(reads.load(Ordering::Relaxed), 2);
                let timings = obs.phase_timings();
                assert_eq!(timings.len(), 1);
                assert_eq!(timings[0].phase, VmPhase::JitLower);
                assert_eq!(timings[0].count, 1);
                assert_eq!(timings[0].total_ns, 50);
            } else {
                assert!(t.is_none());
                assert_eq!(reads.load(Ordering::Relaxed), 0, "{level:?} read the clock");
                assert!(obs.phase_timings().is_empty());
            }
        }
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = VmPhase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(names, ["jit-lower", "jit-optimize", "jit-allocate", "eh-unwind"]);
        for (i, p) in VmPhase::ALL.iter().enumerate() {
            assert_eq!(p.idx(), i);
        }
    }
}
