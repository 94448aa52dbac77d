//! RIR → direct-threaded code: slot allocation and closure compilation,
//! the only JIT entry of the register tiers (run by [`crate::compiled`]).
//!
//! `compile` lowers and optimizes a method (through the shared front half
//! in [`crate::rir::share`]), allocates its slots, then translates each
//! instruction **once** into a pre-resolved closure (operands, immediates,
//! string literals, class layouts and callee null-check requirements are
//! all captured at compile time); the method body becomes a flat `Vec` of
//! those closures indexed by pc. The per-`(op, type)` monomorphization
//! happens here, at translation time, so the Rust compiler constant-folds
//! the type dispatch an instruction decoder would perform per execution.
//!
//! The allocator is the one tier-dependent step: one executor, two
//! allocators.
//!
//! * [`crate::profile::Tier::Rir`] ranks virtual registers by static use
//!   count (`opt::allocate`): the top `max_enreg_*` own a register for
//!   the whole method, everything else spills.
//! * [`crate::profile::Tier::Compiled`] runs a **linear scan** over live
//!   intervals: intervals are the span from first to last occurrence
//!   (extended across backward branches, and pessimized to whole-method
//!   spans when exception regions make linear order a lie), registers are
//!   reused as intervals expire, and when the profile's enregistration cap
//!   is exhausted the value staying live longest is evicted to the
//!   volatile spill frame.
//!
//! Under the CLR profile's 64-register file a method with more than 64
//! competing values takes genuine spills either way — the paper's
//! Section 5 enregistration limit as a real allocation decision.
//!
//! ```
//! use hpcnet_cil::{BinOp, CilType, CmpOp, MethodKind, ModuleBuilder};
//! use hpcnet_vm::{declare_prelude, Vm, VmProfile};
//! use hpcnet_runtime::Value;
//!
//! let mut mb = ModuleBuilder::new();
//! declare_prelude(&mut mb);
//! let c = mb.declare_class("P", None);
//! let mut f = mb.method(c, "Sum", vec![CilType::I4], CilType::I4, MethodKind::Static);
//! let sum = f.local(CilType::I4);
//! let i = f.local(CilType::I4);
//! let top = f.new_label();
//! let out = f.new_label();
//! f.place(top);
//! f.ld_loc(i); f.ld_arg(0); f.br_cmp(CmpOp::Ge, out);
//! f.ld_loc(sum); f.ld_loc(i); f.bin(BinOp::Add); f.st_loc(sum);
//! f.ld_loc(i); f.ldc_i4(1); f.bin(BinOp::Add); f.st_loc(i);
//! f.br(top);
//! f.place(out);
//! f.ld_loc(sum);
//! f.ret();
//! f.finish();
//!
//! // The threaded profile shares the CLR 1.1 knobs but allocates by
//! // linear scan.
//! let vm = Vm::new(mb.finish(), VmProfile::clr11_compiled()).unwrap();
//! let r = vm.invoke_by_name("P.Sum", vec![Value::I4(10)]).unwrap();
//! assert_eq!(r.unwrap().as_i4(), 45);
//! ```

use crate::compiled::{elem_read, elem_write, multi_offset_of, Flow, Frame, Loaded};
use crate::error::{VmError, VmResult};
use crate::machine::Vm;
use crate::numerics;
use crate::profile::Tier;
use crate::rir::lower::{self, Lowered};
use crate::rir::{opt, ArgSlot, DstSlot, Operand, RInst, RirMethod, SPILL_BIT};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, CmpOp, ElemKind, NumTy};
use hpcnet_runtime::{Obj, ObjBody, Value};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One translated instruction: all decoding already done, only the
/// dynamic operands (frame slots, the heap, callee dispatch) remain.
pub(crate) type OpFn = Box<dyn Fn(&mut Frame, &Arc<Vm>, u32) -> VmResult<Flow> + Send + Sync>;

/// A method compiled to direct-threaded code. `rir` is the allocated
/// register IR the closures were built from — kept for the observer (which
/// records per-opcode attribution from it), for [`crate::rir::print_rir`]
/// listings, and for frame construction.
pub struct CompiledMethod {
    /// The allocated RIR backing the threaded code.
    pub rir: RirMethod,
    pub(crate) ops: Vec<OpFn>,
}

impl std::fmt::Debug for CompiledMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledMethod")
            .field("rir", &self.rir)
            .field("ops", &self.ops.len())
            .finish()
    }
}

/// Compile a method for the register tiers: lower and optimize (the front
/// half may be served from the VM's shared cache, see
/// [`crate::rir::share`]), allocate under this VM's register caps with the
/// profile tier's allocator, then close over every instruction.
pub(crate) fn compile(vm: &Arc<Vm>, method: MethodId) -> VmResult<CompiledMethod> {
    let (lowered, res) = crate::rir::share::front(vm, method)?;
    let t = vm.observer.phase_start();
    let rir = match vm.profile.tier {
        Tier::Compiled => linear_scan(vm, method, lowered, &res.force_spill_p),
        Tier::Rir | Tier::Interpreter => opt::allocate(vm, method, lowered, &res.force_spill_p),
    };
    vm.observer.phase_end(crate::observe::VmPhase::JitAllocate, t);
    opt::push_compile_events(vm, method, &rir, res);
    let ops = build_ops(vm, &rir);
    Ok(CompiledMethod { rir, ops })
}

// ---------------------------------------------------------------------------
// Linear-scan slot allocation
// ---------------------------------------------------------------------------

/// Record an occurrence of vreg `v` at instruction index `at`.
fn touch(iv: &mut [(u32, u32)], v: u16, at: u32) {
    let e = &mut iv[v as usize];
    if e.0 == u32::MAX {
        *e = (at, at);
    } else {
        if at < e.0 {
            e.0 = at;
        }
        if at > e.1 {
            e.1 = at;
        }
    }
}

/// Allocate virtual registers to the profile-capped register file by
/// linear scan over live intervals, spilling the rest. Shares the
/// `SPILL_BIT` slot encoding (and therefore [`Frame`]) with the use-count
/// allocator, so one executor runs the output of either.
fn linear_scan(
    vm: &Arc<Vm>,
    method: MethodId,
    mut l: Lowered,
    force_spill_p: &HashSet<u16>,
) -> RirMethod {
    let len = l.code.len() as u32;
    // (first, last) occurrence per vreg; first == u32::MAX means dead.
    let mut pint = vec![(u32::MAX, 0u32); l.n_pvreg as usize];
    let mut rint = vec![(u32::MAX, 0u32); l.n_rvreg as usize];
    for (i, inst) in l.code.iter_mut().enumerate() {
        let at = i as u32;
        lower::rewrite_slots(
            inst,
            &mut |v| {
                touch(&mut pint, v, at);
                v
            },
            &mut |v| {
                touch(&mut rint, v, at);
                v
            },
        );
    }
    // Arguments are written before the first instruction executes.
    for a in &l.arg_locs {
        match a {
            ArgSlot::P(_, v) => touch(&mut pint, *v, 0),
            ArgSlot::R(v) => touch(&mut rint, *v, 0),
        }
    }
    // Exception slots are written by dispatch on handler entry.
    for (r, &v) in l.eh.iter().zip(&l.eh_exc_vregs) {
        if v != u16::MAX {
            touch(&mut rint, v, r.handler_start);
        }
    }

    // A value live across a backward branch is live for the whole loop:
    // extend any interval overlapping [target, branch] to the branch.
    // Processing branches in increasing pc order reaches the fixpoint in
    // one pass (extension only grows ends, and later edges sit later).
    let mut back: Vec<(u32, u32)> = Vec::new();
    for (j, inst) in l.code.iter().enumerate() {
        if let Some(t) = inst.target() {
            if t <= j as u32 {
                back.push((j as u32, t));
            }
        }
    }
    for ints in [&mut pint, &mut rint] {
        for &(j, t) in &back {
            for e in ints.iter_mut() {
                if e.0 != u32::MAX && e.0 <= j && e.1 >= t && e.1 < j {
                    e.1 = j;
                }
            }
        }
    }
    // Exception dispatch enters handlers from any pc inside the protected
    // region — edges linear order cannot see. Methods with EH regions keep
    // every live value in its slot for the whole body (no interval reuse);
    // the hot loop kernels this tier exists for have no EH.
    if !l.eh.is_empty() {
        for ints in [&mut pint, &mut rint] {
            for e in ints.iter_mut() {
                if e.0 != u32::MAX {
                    *e = (0, len);
                }
            }
        }
    }

    let (pmap, n_preg, n_pspill) = scan_assign(&pint, vm.profile.max_enreg_prim, force_spill_p);
    let empty = HashSet::new();
    let (rmap, n_rreg, n_rspill) = scan_assign(&rint, vm.profile.max_enreg_ref, &empty);

    for inst in &mut l.code {
        lower::rewrite_slots(inst, &mut |v| pmap[v as usize], &mut |v| rmap[v as usize]);
    }
    let arg_locs = l
        .arg_locs
        .iter()
        .map(|a| match a {
            ArgSlot::P(t, v) => ArgSlot::P(*t, pmap[*v as usize]),
            ArgSlot::R(v) => ArgSlot::R(rmap[*v as usize]),
        })
        .collect();
    let eh_exc_slots = l
        .eh_exc_vregs
        .iter()
        .map(|&v| if v == u16::MAX { u16::MAX } else { rmap[v as usize] })
        .collect();

    RirMethod {
        method,
        code: l.code,
        eh: l.eh,
        eh_exc_slots,
        arg_locs,
        n_preg,
        n_pspill,
        n_rreg,
        n_rspill,
    }
}

/// The scan itself: intervals in `(start, vreg)` order, lowest free
/// register first, furthest-end eviction when the file is full. Returns
/// `(vreg → slot map, registers used, spill slots used)`. Fully
/// deterministic — same input, same allocation, on every run and thread.
fn scan_assign(intervals: &[(u32, u32)], cap: u16, force: &HashSet<u16>) -> (Vec<u16>, u16, u16) {
    let n_vregs = intervals.len();
    let mut map = vec![0u16; n_vregs];
    let mut decided = vec![false; n_vregs];
    let mut n_spill: u16 = 0;
    let mut n_reg: u16 = 0;
    // Dead and force-spilled vregs take spill slots up front — same
    // convention as the use-count allocator: only live values compete for
    // the register file.
    for v in 0..n_vregs {
        if intervals[v].0 == u32::MAX || force.contains(&(v as u16)) {
            map[v] = SPILL_BIT | n_spill;
            n_spill += 1;
            decided[v] = true;
        }
    }
    let mut order: Vec<usize> = (0..n_vregs).filter(|&v| !decided[v]).collect();
    order.sort_by_key(|&v| (intervals[v].0, v));
    let mut free: BTreeSet<u16> = (0..cap).collect();
    let mut active: Vec<(u32, usize, u16)> = Vec::new(); // (end, vreg, reg)
    for &v in &order {
        let (start, end) = intervals[v];
        active.retain(|&(e, _, r)| {
            if e < start {
                free.insert(r);
                false
            } else {
                true
            }
        });
        if let Some(&r) = free.iter().next() {
            free.remove(&r);
            map[v] = r;
            n_reg = n_reg.max(r + 1);
            active.push((end, v, r));
        } else {
            // File full: evict the value staying live longest, if it
            // outlives the new one; otherwise the new one spills.
            let victim = active
                .iter()
                .enumerate()
                .max_by_key(|&(_, &(e, vr, _))| (e, vr))
                .map(|(i, _)| i);
            match victim {
                Some(i) if active[i].0 > end => {
                    let (_, victim_v, r) = active[i];
                    map[victim_v] = SPILL_BIT | n_spill;
                    n_spill += 1;
                    map[v] = r;
                    active[i] = (end, v, r);
                }
                _ => {
                    map[v] = SPILL_BIT | n_spill;
                    n_spill += 1;
                }
            }
        }
    }
    (map, n_reg, n_spill)
}

// ---------------------------------------------------------------------------
// Closure compilation
// ---------------------------------------------------------------------------

/// Expand `$m!(op, ty)` for every numeric compare × type combination —
/// the build-time monomorphization of the compare family.
macro_rules! op_ty_cross {
    ($op:expr, $ty:expr, $m:ident) => {
        match ($op, $ty) {
            (CmpOp::Eq, NumTy::I4) => $m!(Eq, I4),
            (CmpOp::Eq, NumTy::I8) => $m!(Eq, I8),
            (CmpOp::Eq, NumTy::R4) => $m!(Eq, R4),
            (CmpOp::Eq, NumTy::R8) => $m!(Eq, R8),
            (CmpOp::Ne, NumTy::I4) => $m!(Ne, I4),
            (CmpOp::Ne, NumTy::I8) => $m!(Ne, I8),
            (CmpOp::Ne, NumTy::R4) => $m!(Ne, R4),
            (CmpOp::Ne, NumTy::R8) => $m!(Ne, R8),
            (CmpOp::Lt, NumTy::I4) => $m!(Lt, I4),
            (CmpOp::Lt, NumTy::I8) => $m!(Lt, I8),
            (CmpOp::Lt, NumTy::R4) => $m!(Lt, R4),
            (CmpOp::Lt, NumTy::R8) => $m!(Lt, R8),
            (CmpOp::Le, NumTy::I4) => $m!(Le, I4),
            (CmpOp::Le, NumTy::I8) => $m!(Le, I8),
            (CmpOp::Le, NumTy::R4) => $m!(Le, R4),
            (CmpOp::Le, NumTy::R8) => $m!(Le, R8),
            (CmpOp::Gt, NumTy::I4) => $m!(Gt, I4),
            (CmpOp::Gt, NumTy::I8) => $m!(Gt, I8),
            (CmpOp::Gt, NumTy::R4) => $m!(Gt, R4),
            (CmpOp::Gt, NumTy::R8) => $m!(Gt, R8),
            (CmpOp::Ge, NumTy::I4) => $m!(Ge, I4),
            (CmpOp::Ge, NumTy::I8) => $m!(Ge, I8),
            (CmpOp::Ge, NumTy::R4) => $m!(Ge, R4),
            (CmpOp::Ge, NumTy::R8) => $m!(Ge, R8),
        }
    };
}

/// Primitive element load, shared by the specialized array closures.
/// Identical failure string to [`elem_read`].
#[inline(always)]
fn prim_elem(o: &Obj, idx: usize) -> VmResult<u64> {
    Ok(o.prim_data()
        .get(idx)
        .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
        .load(Ordering::Relaxed))
}

#[inline(always)]
fn ref_elem(o: &Obj, idx: usize) -> VmResult<Option<Obj>> {
    Ok(o.ref_data()
        .get(idx)
        .ok_or_else(|| VmError::Internal("unchecked access out of bounds".into()))?
        .get())
}

fn build_ops(vm: &Arc<Vm>, rir: &RirMethod) -> Vec<OpFn> {
    rir.code.iter().map(|inst| build_op(vm, inst)).collect()
}

/// `op BinOp, NumTy` monomorphized: the type/op dispatch an instruction
/// decoder does per execution happens once, here.
fn bin_op(op: BinOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> OpFn {
    macro_rules! arm {
        ($o:ident) => {
            match ty {
                NumTy::I4 => Box::new(move |fr: &mut Frame, vm: &Arc<Vm>, depth: u32| {
                    let out = numerics::bin_i4(
                        BinOp::$o,
                        fr.pget(a) as u32 as i32,
                        fr.operand(&b) as u32 as i32,
                    )
                    .map_err(|_| vm.raise_div_zero(depth))? as u32 as u64;
                    fr.pset(dst, out);
                    Ok(Flow::Next)
                }) as OpFn,
                NumTy::I8 => Box::new(move |fr: &mut Frame, vm: &Arc<Vm>, depth: u32| {
                    let out = numerics::bin_i8(BinOp::$o, fr.pget(a) as i64, fr.operand(&b) as i64)
                        .map_err(|_| vm.raise_div_zero(depth))? as u64;
                    fr.pset(dst, out);
                    Ok(Flow::Next)
                }) as OpFn,
                NumTy::R4 => Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                    let out = numerics::bin_r4(
                        BinOp::$o,
                        f32::from_bits(fr.pget(a) as u32),
                        f32::from_bits(fr.operand(&b) as u32),
                    )
                    .to_bits() as u64;
                    fr.pset(dst, out);
                    Ok(Flow::Next)
                }) as OpFn,
                NumTy::R8 => Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                    let out = numerics::bin_r8(
                        BinOp::$o,
                        f64::from_bits(fr.pget(a)),
                        f64::from_bits(fr.operand(&b)),
                    )
                    .to_bits();
                    fr.pset(dst, out);
                    Ok(Flow::Next)
                }) as OpFn,
            }
        };
    }
    match op {
        BinOp::Add => arm!(Add),
        BinOp::Sub => arm!(Sub),
        BinOp::Mul => arm!(Mul),
        BinOp::Div => arm!(Div),
        BinOp::Rem => arm!(Rem),
        BinOp::And => arm!(And),
        BinOp::Or => arm!(Or),
        BinOp::Xor => arm!(Xor),
        BinOp::Shl => arm!(Shl),
        BinOp::Shr => arm!(Shr),
        BinOp::ShrUn => arm!(ShrUn),
    }
}

fn cmp_op(op: CmpOp, ty: NumTy, dst: u16, a: u16, b: Operand) -> OpFn {
    macro_rules! arm {
        ($o:ident, $t:ident) => {
            Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                let r = numerics::cmp_bits(CmpOp::$o, NumTy::$t, fr.pget(a), fr.operand(&b));
                fr.pset(dst, r as u32 as u64);
                Ok(Flow::Next)
            }) as OpFn
        };
    }
    op_ty_cross!(op, ty, arm)
}

fn br_cmp_op(op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32) -> OpFn {
    macro_rules! arm {
        ($o:ident, $t:ident) => {
            Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                if numerics::cmp_bits(CmpOp::$o, NumTy::$t, fr.pget(a), fr.operand(&b)) != 0 {
                    Ok(Flow::Jump(t))
                } else {
                    Ok(Flow::Next)
                }
            }) as OpFn
        };
    }
    op_ty_cross!(op, ty, arm)
}

fn conv_op(from: NumTy, to: NumTy, dst: u16, src: u16) -> OpFn {
    macro_rules! arm {
        ($f:ident, $t:ident) => {
            Box::new(move |fr: &mut Frame, _: &Arc<Vm>, _: u32| {
                let v = numerics::conv_bits(NumTy::$f, NumTy::$t, fr.pget(src));
                fr.pset(dst, v);
                Ok(Flow::Next)
            }) as OpFn
        };
    }
    match (from, to) {
        (NumTy::I4, NumTy::I4) => arm!(I4, I4),
        (NumTy::I4, NumTy::I8) => arm!(I4, I8),
        (NumTy::I4, NumTy::R4) => arm!(I4, R4),
        (NumTy::I4, NumTy::R8) => arm!(I4, R8),
        (NumTy::I8, NumTy::I4) => arm!(I8, I4),
        (NumTy::I8, NumTy::I8) => arm!(I8, I8),
        (NumTy::I8, NumTy::R4) => arm!(I8, R4),
        (NumTy::I8, NumTy::R8) => arm!(I8, R8),
        (NumTy::R4, NumTy::I4) => arm!(R4, I4),
        (NumTy::R4, NumTy::I8) => arm!(R4, I8),
        (NumTy::R4, NumTy::R4) => arm!(R4, R4),
        (NumTy::R4, NumTy::R8) => arm!(R4, R8),
        (NumTy::R8, NumTy::I4) => arm!(R8, I4),
        (NumTy::R8, NumTy::I8) => arm!(R8, I8),
        (NumTy::R8, NumTy::R4) => arm!(R8, R4),
        (NumTy::R8, NumTy::R8) => arm!(R8, R8),
    }
}

/// Translate one instruction. Every closure keeps the stack interpreter's
/// evaluation order, raise helpers and internal-error strings, so both
/// allocators' code stays bitwise interchangeable with the interpreter
/// under the conformance matrix.
fn build_op(vm: &Arc<Vm>, inst: &RInst) -> OpFn {
    match inst {
        RInst::Nop => Box::new(|_, _, _| Ok(Flow::Next)),
        RInst::MovP { dst, src } => {
            let (dst, src) = (*dst, *src);
            Box::new(move |fr, _, _| {
                let v = fr.pget(src);
                fr.pset(dst, v);
                Ok(Flow::Next)
            })
        }
        RInst::MovR { dst, src } => {
            let (dst, src) = (*dst, *src);
            Box::new(move |fr, _, _| {
                let v = fr.rget(src);
                fr.rset(dst, v);
                Ok(Flow::Next)
            })
        }
        RInst::ConstP { dst, bits } => {
            let (dst, bits) = (*dst, *bits);
            Box::new(move |fr, _, _| {
                fr.pset(dst, bits);
                Ok(Flow::Next)
            })
        }
        RInst::ConstNull { dst } => {
            let dst = *dst;
            Box::new(move |fr, _, _| {
                fr.rset(dst, None);
                Ok(Flow::Next)
            })
        }
        RInst::ConstStr { dst, s } => {
            // Pre-resolved: the interned literal is captured, not looked
            // up per execution. Identity is stable either way.
            let dst = *dst;
            let lit = vm.literal(*s);
            Box::new(move |fr, _, _| {
                fr.rset(dst, Some(lit.clone()));
                Ok(Flow::Next)
            })
        }
        RInst::Bin { op, ty, dst, a, b } => bin_op(*op, *ty, *dst, *a, *b),
        RInst::Un { op, ty, dst, a } => {
            let (op, dst, a) = (*op, *dst, *a);
            match ty {
                NumTy::I4 => Box::new(move |fr, _, _| {
                    let v = numerics::un_i4(op, fr.pget(a) as u32 as i32) as u32 as u64;
                    fr.pset(dst, v);
                    Ok(Flow::Next)
                }),
                NumTy::I8 => Box::new(move |fr, _, _| {
                    let v = numerics::un_i8(op, fr.pget(a) as i64) as u64;
                    fr.pset(dst, v);
                    Ok(Flow::Next)
                }),
                NumTy::R4 => Box::new(move |fr, _, _| {
                    let v = (-f32::from_bits(fr.pget(a) as u32)).to_bits() as u64;
                    fr.pset(dst, v);
                    Ok(Flow::Next)
                }),
                NumTy::R8 => Box::new(move |fr, _, _| {
                    let v = (-f64::from_bits(fr.pget(a))).to_bits();
                    fr.pset(dst, v);
                    Ok(Flow::Next)
                }),
            }
        }
        RInst::Conv { from, to, dst, src } => conv_op(*from, *to, *dst, *src),
        RInst::Cmp { op, ty, dst, a, b } => cmp_op(*op, *ty, *dst, *a, *b),
        RInst::CmpRef { op, dst, a, b } => {
            let (dst, a, b) = (*dst, *a, *b);
            let negate = match op {
                CmpOp::Eq => false,
                CmpOp::Ne => true,
                _ => {
                    return Box::new(|_, _, _| Err(VmError::Internal("ordered ref compare".into())))
                }
            };
            Box::new(move |fr, _, _| {
                let av = fr.rget(a);
                let bv = fr.rget(b);
                let same = match (&av, &bv) {
                    (Some(x), Some(y)) => Obj::ptr_eq(x, y),
                    (None, None) => true,
                    _ => false,
                };
                fr.pset(dst, (same != negate) as u64);
                Ok(Flow::Next)
            })
        }
        RInst::Br { t } => {
            let t = *t;
            Box::new(move |_, _, _| Ok(Flow::Jump(t)))
        }
        RInst::BrIf { cond, t, negate } => {
            let (cond, t) = (*cond, *t);
            if *negate {
                Box::new(move |fr, _, _| {
                    Ok(if fr.pget(cond) == 0 { Flow::Jump(t) } else { Flow::Next })
                })
            } else {
                Box::new(move |fr, _, _| {
                    Ok(if fr.pget(cond) != 0 { Flow::Jump(t) } else { Flow::Next })
                })
            }
        }
        RInst::BrIfRef { cond, t, negate } => {
            let (cond, t) = (*cond, *t);
            if *negate {
                Box::new(move |fr, _, _| {
                    Ok(if fr.rref(cond).is_none() { Flow::Jump(t) } else { Flow::Next })
                })
            } else {
                Box::new(move |fr, _, _| {
                    Ok(if fr.rref(cond).is_some() { Flow::Jump(t) } else { Flow::Next })
                })
            }
        }
        RInst::BrCmp { op, ty, a, b, t } => br_cmp_op(*op, *ty, *a, *b, *t),
        RInst::Call { target, virt, args, dst } => {
            let (target, virt, dst) = (*target, *virt, *dst);
            let args = args.clone();
            // Pre-resolved: whether the callee needs a this-null check.
            let needs_null = !virt && !vm.module.method(target).is_static;
            Box::new(move |fr, vm, depth| {
                let mut vals = Vec::with_capacity(args.len());
                for a in args.iter() {
                    vals.push(fr.load_value(a));
                }
                let callee = if virt {
                    let recv = vals[0]
                        .as_ref_opt()
                        .ok_or_else(|| vm.raise_null_ref(depth))?;
                    let class = recv
                        .class_id()
                        .ok_or_else(|| VmError::Internal("callvirt on non-instance".into()))?;
                    vm.module.resolve_virtual(class, target)
                } else {
                    if needs_null && vals[0].as_ref_opt().is_none() {
                        return Err(vm.raise_null_ref(depth));
                    }
                    target
                };
                let ret = vm.invoke_at_depth(callee, vals, depth + 1)?;
                if let (Some(d), Some(v)) = (dst, ret) {
                    fr.store_dst(&d, v);
                }
                Ok(Flow::Next)
            })
        }
        RInst::CallIntr { i, args, dst } => {
            let (i, dst) = (*i, *dst);
            let args = args.clone();
            Box::new(move |fr, vm, depth| {
                let mut vals = Vec::with_capacity(args.len());
                for a in args.iter() {
                    vals.push(fr.load_value(a));
                }
                let ret = vm.intrinsic(i, &vals, depth)?;
                if let (Some(d), Some(v)) = (dst, ret) {
                    fr.store_dst(&d, v);
                }
                Ok(Flow::Next)
            })
        }
        RInst::Ret { src } => {
            let src = *src;
            Box::new(move |fr, _, _| {
                Ok(Flow::Return(src.as_ref().map(|a| fr.load_value(a))))
            })
        }
        RInst::NewObj { ctor, args, dst } => {
            let (ctor, dst) = (*ctor, *dst);
            let args = args.clone();
            // Pre-resolved: the instance layout of the constructed class.
            let owner = vm.module.method(ctor).owner;
            let class = vm.module.class(owner);
            let (np, nr) = (class.n_prim_slots as usize, class.n_ref_slots as usize);
            Box::new(move |fr, vm, depth| {
                let obj = vm.heap.alloc_instance(owner, np, nr);
                let mut vals = Vec::with_capacity(args.len() + 1);
                vals.push(Value::Ref(obj.clone()));
                for a in args.iter() {
                    vals.push(fr.load_value(a));
                }
                vm.invoke_at_depth(ctor, vals, depth + 1)?;
                fr.rset(dst, Some(obj));
                Ok(Flow::Next)
            })
        }
        RInst::LdFld { obj, slot, dst } => {
            let (obj, slot) = (*obj, *slot);
            match *dst {
                DstSlot::P(d) => Box::new(move |fr, vm, depth| {
                    let bits = match fr.rref(obj) {
                        Some(o) => o.prim_field(slot),
                        None => return Err(vm.raise_null_ref(depth)),
                    };
                    fr.pset(d, bits);
                    Ok(Flow::Next)
                }),
                DstSlot::R(d) => Box::new(move |fr, vm, depth| {
                    let v = match fr.rref(obj) {
                        Some(o) => o.ref_field(slot),
                        None => return Err(vm.raise_null_ref(depth)),
                    };
                    fr.rset(d, v);
                    Ok(Flow::Next)
                }),
            }
        }
        RInst::StFld { obj, slot, src } => {
            let (obj, slot) = (*obj, *slot);
            match *src {
                ArgSlot::P(_, s) => Box::new(move |fr, vm, depth| {
                    let bits = fr.pget(s);
                    match fr.rref(obj) {
                        Some(o) => o.set_prim_field(slot, bits),
                        None => return Err(vm.raise_null_ref(depth)),
                    }
                    Ok(Flow::Next)
                }),
                ArgSlot::R(s) => Box::new(move |fr, vm, depth| {
                    let v = fr.rget(s);
                    match fr.rref(obj) {
                        Some(o) => o.set_ref_field(slot, v),
                        None => return Err(vm.raise_null_ref(depth)),
                    }
                    Ok(Flow::Next)
                }),
            }
        }
        RInst::LdSFld { slot, dst } => {
            let slot = *slot as usize;
            match *dst {
                DstSlot::P(d) => Box::new(move |fr, vm, _| {
                    let bits = vm.statics.prim[slot].load(Ordering::Relaxed);
                    fr.pset(d, bits);
                    Ok(Flow::Next)
                }),
                DstSlot::R(d) => Box::new(move |fr, vm, _| {
                    let v = vm.statics.refs[slot].get();
                    fr.rset(d, v);
                    Ok(Flow::Next)
                }),
            }
        }
        RInst::StSFld { slot, src } => {
            let slot = *slot as usize;
            match *src {
                ArgSlot::P(_, s) => Box::new(move |fr, vm, _| {
                    vm.statics.prim[slot].store(fr.pget(s), Ordering::Relaxed);
                    Ok(Flow::Next)
                }),
                ArgSlot::R(s) => Box::new(move |fr, vm, _| {
                    vm.statics.refs[slot].set(fr.rget(s));
                    Ok(Flow::Next)
                }),
            }
        }
        RInst::IsInst { class, src, dst } => {
            let (class, src, dst) = (*class, *src, *dst);
            Box::new(move |fr, vm, _| {
                let r = match fr.rget(src) {
                    Some(o) => vm.instance_of(&o, class),
                    None => false,
                };
                fr.pset(dst, r as u64);
                Ok(Flow::Next)
            })
        }
        RInst::CastClass { class, src, dst } => {
            let (class, src, dst) = (*class, *src, *dst);
            Box::new(move |fr, vm, depth| {
                let v = fr.rget(src);
                if let Some(o) = &v {
                    if !vm.instance_of(o, class) {
                        return Err(vm.raise_invalid_cast(depth));
                    }
                }
                fr.rset(dst, v);
                Ok(Flow::Next)
            })
        }
        RInst::NewArr { kind, len, dst } => {
            let (kind, len, dst) = (*kind, *len, *dst);
            Box::new(move |fr, vm, depth| {
                let n = fr.pget(len) as u32 as i32;
                if n < 0 {
                    return Err(vm.raise_index_oob(depth));
                }
                let arr = vm.heap.alloc_array(kind, n as usize);
                fr.rset(dst, Some(arr));
                Ok(Flow::Next)
            })
        }
        RInst::LdLen { arr, dst } => {
            let (arr, dst) = (*arr, *dst);
            Box::new(move |fr, vm, depth| {
                let n = match fr.rref(arr) {
                    Some(o) => o
                        .array_len()
                        .ok_or_else(|| VmError::Internal("ldlen on non-array".into()))?,
                    None => return Err(vm.raise_null_ref(depth)),
                };
                fr.pset(dst, n as u64);
                Ok(Flow::Next)
            })
        }
        RInst::LdElem { kind, arr, idx, dst, bounds } => {
            let (arr, idx, checked) = (*arr, *idx, bounds.is_checked());
            match (kind.num_ty().is_some(), *dst) {
                (true, DstSlot::P(d)) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let bits = {
                        let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                        let len = o.array_len().unwrap_or(0);
                        if i < 0 || i as usize >= len {
                            return Err(vm.raise_index_oob(depth));
                        }
                        prim_elem(o, i as usize)?
                    };
                    fr.pset(d, bits);
                    Ok(Flow::Next)
                }),
                (true, DstSlot::P(d)) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let bits = {
                        let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                        prim_elem(o, i as usize)?
                    };
                    fr.pset(d, bits);
                    Ok(Flow::Next)
                }),
                (false, DstSlot::R(d)) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let v = {
                        let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                        let len = o.array_len().unwrap_or(0);
                        if i < 0 || i as usize >= len {
                            return Err(vm.raise_index_oob(depth));
                        }
                        ref_elem(o, i as usize)?
                    };
                    fr.rset(d, v);
                    Ok(Flow::Next)
                }),
                (false, DstSlot::R(d)) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let v = {
                        let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                        ref_elem(o, i as usize)?
                    };
                    fr.rset(d, v);
                    Ok(Flow::Next)
                }),
                _ => Box::new(|_, _, _| Err(VmError::Internal("elem kind mismatch".into()))),
            }
        }
        RInst::StElem { kind, arr, idx, src, bounds } => {
            let (arr, idx, checked) = (*arr, *idx, bounds.is_checked());
            let mask = *kind == ElemKind::U1;
            match *src {
                ArgSlot::P(_, s) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let mut bits = fr.pget(s);
                    let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    let len = o.array_len().unwrap_or(0);
                    if i < 0 || i as usize >= len {
                        return Err(vm.raise_index_oob(depth));
                    }
                    if mask {
                        bits &= 0xFF;
                    }
                    o.mark_dirty();
                    o.prim_data()
                        .get(i as usize)
                        .ok_or_else(|| {
                            VmError::Internal("unchecked access out of bounds".into())
                        })?
                        .store(bits, Ordering::Relaxed);
                    Ok(Flow::Next)
                }),
                ArgSlot::P(_, s) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let mut bits = fr.pget(s);
                    let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    if mask {
                        bits &= 0xFF;
                    }
                    o.mark_dirty();
                    o.prim_data()
                        .get(i as usize)
                        .ok_or_else(|| {
                            VmError::Internal("unchecked access out of bounds".into())
                        })?
                        .store(bits, Ordering::Relaxed);
                    Ok(Flow::Next)
                }),
                ArgSlot::R(s) if checked => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let v = fr.rget(s);
                    let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    let len = o.array_len().unwrap_or(0);
                    if i < 0 || i as usize >= len {
                        return Err(vm.raise_index_oob(depth));
                    }
                    o.mark_dirty();
                    o.ref_data()
                        .get(i as usize)
                        .ok_or_else(|| {
                            VmError::Internal("unchecked access out of bounds".into())
                        })?
                        .set(v);
                    Ok(Flow::Next)
                }),
                ArgSlot::R(s) => Box::new(move |fr, vm, depth| {
                    let i = fr.pget(idx) as u32 as i32;
                    let v = fr.rget(s);
                    let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    o.mark_dirty();
                    o.ref_data()
                        .get(i as usize)
                        .ok_or_else(|| {
                            VmError::Internal("unchecked access out of bounds".into())
                        })?
                        .set(v);
                    Ok(Flow::Next)
                }),
            }
        }
        RInst::NewMulti { kind, dims, dst } => {
            let (kind, dst) = (*kind, *dst);
            let dims = dims.clone();
            Box::new(move |fr, vm, depth| {
                let mut lens = Vec::with_capacity(dims.len());
                for d in dims.iter() {
                    let n = fr.pget(*d) as u32 as i32;
                    if n < 0 {
                        return Err(vm.raise_index_oob(depth));
                    }
                    lens.push(n as u32);
                }
                let arr = vm.heap.alloc_multi(kind, &lens);
                fr.rset(dst, Some(arr));
                Ok(Flow::Next)
            })
        }
        RInst::LdElemMulti { kind, arr, idxs, dst, helper } => {
            let (kind, arr, dst, helper) = (*kind, *arr, *dst, *helper);
            let idxs = idxs.clone();
            Box::new(move |fr, vm, depth| {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = fr.pget(*s) as u32 as i32;
                }
                let loaded = {
                    let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    let off = multi_offset_of(o, &vals[..idxs.len()], helper)
                        .ok_or_else(|| vm.raise_index_oob(depth))?;
                    elem_read(o, kind, off)?
                };
                match (dst, loaded) {
                    (DstSlot::P(d), Loaded::Bits(b)) => fr.pset(d, b),
                    (DstSlot::R(d), Loaded::Ref(v)) => fr.rset(d, v),
                    _ => return Err(VmError::Internal("elem kind mismatch".into())),
                }
                Ok(Flow::Next)
            })
        }
        RInst::StElemMulti { kind, arr, idxs, src, helper } => {
            let (kind, arr, src, helper) = (*kind, *arr, *src, *helper);
            let idxs = idxs.clone();
            Box::new(move |fr, vm, depth| {
                let mut vals = [0i32; 3];
                for (k, s) in idxs.iter().enumerate() {
                    vals[k] = fr.pget(*s) as u32 as i32;
                }
                let val = match src {
                    ArgSlot::P(_, s) => Loaded::Bits(fr.pget(s)),
                    ArgSlot::R(s) => Loaded::Ref(fr.rget(s)),
                };
                let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                let off = multi_offset_of(o, &vals[..idxs.len()], helper)
                    .ok_or_else(|| vm.raise_index_oob(depth))?;
                elem_write(o, kind, off, val)?;
                Ok(Flow::Next)
            })
        }
        RInst::LdMultiLen { arr, dim, dst } => {
            let (arr, dim, dst) = (*arr, *dim as usize, *dst);
            Box::new(move |fr, vm, depth| {
                let n = {
                    let o = fr.rref(arr).ok_or_else(|| vm.raise_null_ref(depth))?;
                    let dims = o
                        .multi_dims()
                        .ok_or_else(|| VmError::Internal("GetLength on non-multi".into()))?;
                    *dims.get(dim).ok_or_else(|| vm.raise_index_oob(depth))?
                };
                fr.pset(dst, n as u64);
                Ok(Flow::Next)
            })
        }
        RInst::BoxV { ty, src, dst } => {
            let (ty, src, dst) = (*ty, *src, *dst);
            Box::new(move |fr, vm, _| {
                let o = vm.heap.alloc_boxed(ty, fr.pget(src));
                fr.rset(dst, Some(o));
                Ok(Flow::Next)
            })
        }
        RInst::UnboxV { ty, src, dst } => {
            let (ty, src, dst) = (*ty, *src, *dst);
            Box::new(move |fr, vm, depth| {
                let o = fr.rget(src).ok_or_else(|| vm.raise_null_ref(depth))?;
                match &o.body {
                    ObjBody::Boxed { ty: t2, bits } if *t2 == ty => {
                        fr.pset(dst, *bits);
                    }
                    _ => return Err(vm.raise_invalid_cast(depth)),
                }
                Ok(Flow::Next)
            })
        }
        RInst::Throw { src } => {
            let src = *src;
            Box::new(move |fr, vm, depth| {
                let o = fr.rget(src).ok_or_else(|| vm.raise_null_ref(depth))?;
                vm.note_throw(depth);
                Err(VmError::Exception(o))
            })
        }
        RInst::Leave { t } => {
            let t = *t;
            Box::new(move |_, _, _| Ok(Flow::Leave(t)))
        }
        RInst::EndFinally => Box::new(|_, _, _| Ok(Flow::EndFinally)),
    }
}
