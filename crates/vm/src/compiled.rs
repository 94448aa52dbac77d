//! The register-tier execution engine.
//!
//! Runs [`crate::rir::compile::CompiledMethod`] code: a flat array of
//! pre-resolved closures, one per allocated RIR instruction, produced by
//! [`crate::rir::compile`]. The loop fetches `ops[pc]` and calls it:
//! operands, immediates, literals and class layouts were all resolved at
//! translation time, so the per-op work is the operation itself plus one
//! indirect call — no per-execution decode of the instruction.
//!
//! Both register tiers run here. They differ in one compile step only, the
//! slot allocator: [`crate::profile::Tier::Rir`] ranks virtual registers
//! by static use count (`rir::opt::allocate`), while
//! [`crate::profile::Tier::Compiled`] reuses registers by linear scan over
//! live intervals. Either way the frame is split the way the paper's
//! Section 5 describes real JIT frames: an *enregistered* file
//! (`preg`/`rreg`, plain array slots — the "registers") and a *spill
//! frame* (`pspill`/`rspill`) accessed through volatile loads/stores, so
//! spilled virtual registers cost genuine memory traffic on every touch. A
//! profile that enregisters one value (Mono) therefore pays for every
//! stack-shuffle move in memory, while a 64-register profile (CLR 1.1,
//! IBM) runs the same loop entirely out of the register file.
//!
//! Profiles select the allocator with [`crate::profile::Tier`];
//! [`crate::profile::VmProfile::clr11_compiled`] is the stock linear-scan
//! example.
//!
//! ```
//! use hpcnet_cil::{BinOp, CilType, MethodKind, ModuleBuilder};
//! use hpcnet_vm::{declare_prelude, Tier, Vm, VmProfile};
//! use hpcnet_runtime::Value;
//!
//! let mut mb = ModuleBuilder::new();
//! declare_prelude(&mut mb);
//! let c = mb.declare_class("P", None);
//! let mut f = mb.method(c, "Twice", vec![CilType::I4], CilType::I4, MethodKind::Static);
//! f.ld_arg(0);
//! f.ld_arg(0);
//! f.bin(BinOp::Add);
//! f.ret();
//! f.finish();
//!
//! // Any profile can be moved onto the linear-scan allocator; the answer
//! // is the same as on every other engine, only the slot map differs.
//! let profile = VmProfile::mono023().with_tier(Tier::Compiled);
//! let vm = Vm::new(mb.finish(), profile).unwrap();
//! let r = vm.invoke_by_name("P.Twice", vec![Value::I4(21)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 42);
//! ```

use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::rir::compile::CompiledMethod;
use crate::rir::{slot_index, ArgSlot, DstSlot, Operand, RirMethod, SPILL_BIT};
use hpcnet_cil::module::{EhKind, MethodId};
use hpcnet_cil::ElemKind;
use hpcnet_runtime::{Obj, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Entry point used by [`Vm::invoke`] for register-tier profiles.
pub(crate) fn call(
    vm: &Arc<Vm>,
    method: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> VmResult<Option<Value>> {
    let code = vm.compiled(method)?;
    let mut fr = Frame::new(&code.rir);
    for (v, loc) in args.into_iter().zip(&code.rir.arg_locs) {
        fr.store_arg(loc, v);
    }
    let mut ex = Threaded {
        vm,
        code: &code,
        fr,
        depth,
        // The observe level is fixed at Vm construction, so the check can
        // be hoisted out of the dispatch loop.
        observing: vm.observer.enabled(),
    };
    match ex.run(0, None)? {
        RunEnd::Return(v) => Ok(v),
        RunEnd::EndFinally => Err(VmError::Internal("endfinally outside handler".into())),
    }
}

pub(crate) struct Frame {
    preg: Vec<u64>,
    pspill: Vec<u64>,
    rreg: Vec<Option<Obj>>,
    rspill: Vec<Option<Obj>>,
}

impl Frame {
    pub(crate) fn new(rir: &RirMethod) -> Frame {
        Frame {
            preg: vec![0; rir.n_preg as usize],
            pspill: vec![0; rir.n_pspill as usize],
            rreg: vec![None; rir.n_rreg as usize],
            rspill: vec![None; rir.n_rspill as usize],
        }
    }

    /// Read a primitive slot. Spill slots go through a volatile load —
    /// genuine memory traffic the optimizer cannot elide.
    #[inline(always)]
    pub(crate) fn pget(&self, s: u16) -> u64 {
        if s & SPILL_BIT == 0 {
            self.preg[s as usize]
        } else {
            let slot = &self.pspill[slot_index(s)];
            // SAFETY: `slot` is a live, aligned reference into the frame.
            unsafe { std::ptr::read_volatile(slot) }
        }
    }

    #[inline(always)]
    pub(crate) fn pset(&mut self, s: u16, v: u64) {
        if s & SPILL_BIT == 0 {
            self.preg[s as usize] = v;
        } else {
            let slot = &mut self.pspill[slot_index(s)];
            // SAFETY: `slot` is a live, aligned, exclusive reference into
            // the frame.
            unsafe { std::ptr::write_volatile(slot, v) }
        }
    }

    #[inline(always)]
    pub(crate) fn operand(&self, o: &Operand) -> u64 {
        match o {
            Operand::Slot(s) => self.pget(*s),
            Operand::Imm(v) => *v,
        }
    }

    #[inline(always)]
    pub(crate) fn rget(&self, s: u16) -> Option<Obj> {
        if s & SPILL_BIT == 0 {
            self.rreg[s as usize].clone()
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx].clone()
        }
    }

    /// Borrow a reference slot without touching the refcount (hot path
    /// for array/field access).
    #[inline(always)]
    pub(crate) fn rref(&self, s: u16) -> Option<&Obj> {
        if s & SPILL_BIT == 0 {
            self.rreg[s as usize].as_ref()
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx].as_ref()
        }
    }

    #[inline(always)]
    pub(crate) fn rset(&mut self, s: u16, v: Option<Obj>) {
        if s & SPILL_BIT == 0 {
            self.rreg[s as usize] = v;
        } else {
            let idx = std::hint::black_box(slot_index(s));
            self.rspill[idx] = v;
        }
    }

    pub(crate) fn load_value(&self, a: &ArgSlot) -> Value {
        match a {
            ArgSlot::P(t, s) => Value::from_bits(*t, self.pget(*s)),
            ArgSlot::R(s) => match self.rget(*s) {
                Some(o) => Value::Ref(o),
                None => Value::Null,
            },
        }
    }

    /// Write an incoming argument into its allocated slot.
    fn store_arg(&mut self, a: &ArgSlot, v: Value) {
        match a {
            ArgSlot::P(_, s) => self.pset(*s, v.to_bits()),
            ArgSlot::R(s) => self.rset(*s, v.as_ref_opt().cloned()),
        }
    }

    pub(crate) fn store_dst(&mut self, d: &DstSlot, v: Value) {
        match d {
            DstSlot::P(s) => self.pset(*s, v.to_bits()),
            DstSlot::R(s) => self.rset(*s, v.as_ref_opt().cloned()),
        }
    }
}

enum RunEnd {
    Return(Option<Value>),
    EndFinally,
}

/// What a translated instruction tells the dispatch loop to do next.
pub(crate) enum Flow {
    Next,
    Jump(u32),
    Return(Option<Value>),
    Leave(u32),
    EndFinally,
}

struct Threaded<'v> {
    vm: &'v Arc<Vm>,
    code: &'v CompiledMethod,
    fr: Frame,
    depth: u32,
    observing: bool,
}

impl<'v> Threaded<'v> {
    fn internal<T>(&self, msg: &str) -> VmResult<T> {
        // Same shape as the stack interpreter's internal errors: both
        // engines must render an identical string for an identical failure.
        Err(VmError::Internal(format!(
            "{} in {}",
            msg,
            self.vm.module.method(self.code.rir.method).name
        )))
    }

    /// The threaded dispatch loop. With `finally_bound = Some(handler
    /// range)` the run is executing a finally handler in-frame: an
    /// `endfinally` terminates it, and exception dispatch is restricted to
    /// regions nested inside the handler — anything else propagates out so
    /// the *enclosing* run performs the dispatch (otherwise an enclosing
    /// catch would execute inside the finally sub-run and a later `ret`
    /// would falsely read as "return inside finally").
    fn run(&mut self, entry: u32, finally_bound: Option<(u32, u32)>) -> VmResult<RunEnd> {
        let mut pc = entry;
        loop {
            if self.observing {
                self.vm
                    .observer
                    .record_exec_op(self.code.rir.method, &self.code.rir.code[pc as usize]);
            }
            match (self.code.ops[pc as usize])(&mut self.fr, self.vm, self.depth) {
                Ok(Flow::Next) => pc += 1,
                Ok(Flow::Jump(t)) => {
                    // Fuel: one unit per taken branch (see `Vm::set_fuel`)
                    // — same charge points as the interpreter tier.
                    self.vm.charge_fuel()?;
                    pc = t;
                }
                Ok(Flow::Return(v)) => return Ok(RunEnd::Return(v)),
                Ok(Flow::EndFinally) => {
                    if finally_bound.is_some() {
                        return Ok(RunEnd::EndFinally);
                    }
                    return self.internal("endfinally outside handler");
                }
                Ok(Flow::Leave(target)) => {
                    match self.run_leave_finallys(pc, target, finally_bound)? {
                        Some(handler_pc) => pc = handler_pc,
                        None => pc = target,
                    }
                }
                Err(VmError::Exception(exc)) => {
                    pc = self.dispatch_exception(pc, exc, finally_bound)?;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// Run the finally handlers exited by `leave pc -> target`. Returns
    /// `Some(handler_pc)` when a finally threw and an enclosing catch takes
    /// over (the exception search restarts from the faulting handler, per
    /// CLI semantics: it replaces the leave, and outer finallys between the
    /// handler and the catch still run as part of that dispatch).
    fn run_leave_finallys(
        &mut self,
        pc: u32,
        target: u32,
        bound: Option<(u32, u32)>,
    ) -> VmResult<Option<u32>> {
        let regions: Vec<(u32, u32)> = self
            .code
            .rir
            .eh
            .iter()
            .filter(|r| {
                matches!(r.kind, EhKind::Finally)
                    && r.covers(pc)
                    && !(r.try_start <= target && target < r.try_end)
            })
            .map(|r| (r.handler_start, r.handler_end))
            .collect();
        for (hs, he) in regions {
            match self.run(hs, Some((hs, he))) {
                Ok(RunEnd::EndFinally) => {}
                Ok(RunEnd::Return(_)) => return self.internal("return inside finally"),
                Err(VmError::Exception(exc)) => {
                    return self.dispatch_exception(hs, exc, bound).map(Some)
                }
                Err(other) => return Err(other),
            }
        }
        Ok(None)
    }

    /// Find a handler for `exc` thrown at `pc`; runs intervening finallys.
    /// With `bound`, only regions nested inside that handler range are
    /// eligible (dispatch from inside a finally handler must not escape it —
    /// the caller owns anything further out).
    fn dispatch_exception(
        &mut self,
        pc: u32,
        mut exc: Obj,
        bound: Option<(u32, u32)>,
    ) -> VmResult<u32> {
        for (i, r) in self.code.rir.eh.iter().enumerate() {
            if !r.covers(pc) {
                continue;
            }
            if let Some((lo, hi)) = bound {
                if r.try_start < lo || r.handler_end > hi {
                    continue;
                }
            }
            match r.kind {
                EhKind::Catch(class) => {
                    if self.vm.instance_of(&exc, class) {
                        if self.observing {
                            self.vm.observer.eh_dispatch(
                                self.code.rir.method,
                                crate::observe::EhDispatchKind::Catch,
                            );
                        }
                        let slot = self.code.rir.eh_exc_slots[i];
                        self.fr.rset(slot, Some(exc));
                        return Ok(r.handler_start);
                    }
                }
                EhKind::Finally => {
                    if self.observing {
                        self.vm.observer.eh_dispatch(
                            self.code.rir.method,
                            crate::observe::EhDispatchKind::Finally,
                        );
                    }
                    match self.run(r.handler_start, Some((r.handler_start, r.handler_end))) {
                        Ok(RunEnd::EndFinally) => {}
                        Ok(RunEnd::Return(_)) => return self.internal("return inside finally"),
                        // An exception raised inside the finally replaces
                        // the one in flight (CLI semantics).
                        Err(VmError::Exception(newer)) => exc = newer,
                        Err(other) => return Err(other),
                    }
                }
            }
        }
        if self.observing {
            self.vm
                .observer
                .eh_dispatch(self.code.rir.method, crate::observe::EhDispatchKind::FaultPath);
        }
        Err(VmError::Exception(exc))
    }
}

/// An element value in transit (untagged bits or a reference).
pub(crate) enum Loaded {
    Bits(u64),
    Ref(Option<Obj>),
}

#[inline]
pub(crate) fn elem_read(o: &Obj, kind: ElemKind, idx: usize) -> VmResult<Loaded> {
    match kind.num_ty() {
        Some(_) => Ok(Loaded::Bits(
            o.prim_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
                .load(Ordering::Relaxed),
        )),
        None => Ok(Loaded::Ref(
            o.ref_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
                .get(),
        )),
    }
}

#[inline]
pub(crate) fn elem_write(o: &Obj, kind: ElemKind, idx: usize, val: Loaded) -> VmResult<()> {
    o.mark_dirty();
    match val {
        Loaded::Bits(mut bits) => {
            if kind == ElemKind::U1 {
                bits &= 0xFF;
            }
            o.prim_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
                .store(bits, Ordering::Relaxed);
        }
        Loaded::Ref(v) => {
            o.ref_data()
                .get(idx)
                .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
                .set(v);
        }
    }
    Ok(())
}

/// Flat offset of a multidimensional access with per-dimension bounds
/// checks; the `helper` flavor is the uninlinable generic accessor.
#[inline]
pub(crate) fn multi_offset_of(o: &Obj, idxs: &[i32], helper: bool) -> Option<usize> {
    if helper {
        multi_helper(o, idxs)
    } else {
        o.multi_offset(idxs)
    }
}

/// The helper-call lowering of multidimensional access: re-reads the
/// dimension vector defensively, validates twice, and cannot be inlined —
/// modeling the generic accessor path.
#[inline(never)]
fn multi_helper(o: &Obj, idxs: &[i32]) -> Option<usize> {
    // Marshal the indices into a helper frame (the generic accessor takes
    // them boxed/by-array): real stores the optimizer cannot remove.
    let mut frame = [0i32; 4];
    for (slot, &i) in frame.iter_mut().zip(idxs.iter()) {
        // SAFETY: `slot` is a live, aligned, exclusive array reference.
        unsafe { std::ptr::write_volatile(slot, i) };
    }
    let dims = std::hint::black_box(o.multi_dims()?);
    for (k, &d) in dims.iter().enumerate() {
        // SAFETY: `&frame[k]` is a live, aligned (bounds-checked) reference.
        let i = unsafe { std::ptr::read_volatile(&frame[k]) };
        if i < 0 || std::hint::black_box(i as u32) >= d {
            return None;
        }
    }
    std::hint::black_box(o.multi_offset(idxs))
}
