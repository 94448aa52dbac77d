//! RIR optimization passes and register allocation.
//!
//! Each pass corresponds to a codegen capability the paper attributes to a
//! specific JIT (see [`crate::profile`]). Passes run under the profile's
//! [`PassConfig`]; Mono 0.23 runs none of them and keeps the naive lowering.
//!
//! Register allocation then models *enregistration*: virtual registers are
//! ranked by static use count and the top `max_enreg` live in the register
//! file (plain array access at run time); the rest — and anything in the
//! force-spill set — live in the spill frame, accessed through volatile
//! loads/stores (real memory traffic). CLR 1.0/1.1 "only consider a maximum
//! of 64 local variables for enregistration"; that cap is exactly this
//! parameter.

use crate::machine::Vm;
use crate::observe::{Event, JitOutcome, LoopRejectReason};
use crate::profile::PassConfig;
use crate::rir::audit::{CertKind, ElisionCert};
use crate::rir::loops::{find_loops, Cfg, NaturalLoop};
use crate::rir::lower::{rewrite_slots, Lowered};
use crate::rir::{ArgSlot, BoundsMode, DstSlot, Operand, RInst, RirMethod, SPILL_BIT};
use hpcnet_cil::module::MethodId;
use hpcnet_cil::{BinOp, CmpOp, NumTy, UnOp};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What the pass pipeline did to a method, before allocation: the partial
/// [`JitOutcome`] (enreg/spill filled in by the allocator's caller), the
/// loop-rejection trace, and the force-spill set the allocator must honor.
#[derive(Clone)]
pub(crate) struct OptResult {
    pub outcome: JitOutcome,
    pub rejections: Vec<(u32, LoopRejectReason)>,
    pub force_spill_p: HashSet<u16>,
}

/// Run a pass configuration over lowered code in place. Both register
/// tiers share this pipeline — `Tier::Rir` hands the result to the
/// use-count allocator below, `Tier::Compiled` to the linear-scan
/// allocator in [`crate::rir::compile`] — so a pass combination means the
/// same thing under either allocator.
///
/// This is a pure function of `(passes, l)`: per-VM counters are applied
/// separately by [`apply_outcome_counters`] so the result can be memoized
/// across engines (see [`crate::rir::share`]).
pub(crate) fn optimize(passes: &PassConfig, l: &mut Lowered) -> OptResult {
    let passes = *passes;
    if passes.const_prop {
        const_and_copy_prop(l, &passes);
    } else if passes.copy_prop {
        const_and_copy_prop(
            l,
            &PassConfig {
                const_prop: false,
                ..passes
            },
        );
    }
    if passes.mul_strength_reduction {
        strength_reduce(l);
    }
    let mut outcome = JitOutcome::default();
    if passes.bce {
        outcome.idiom_removed = eliminate_bounds_checks(l) as u32;
    }
    if passes.dce {
        dead_code_elim(l);
    }
    compact(l);
    // The loop-aware tier runs on compacted code (shuffle moves already
    // erased by copy-prop + DCE), where the guard compare reads the named
    // locals directly.
    let mut rejections: Vec<(u32, LoopRejectReason)> = Vec::new();
    if (passes.bce || passes.licm) && !l.code.is_empty() {
        let cfg = Cfg::build(l);
        let loops = find_loops(l, &cfg);
        outcome.loops_found = loops.len() as u32;
        if passes.bce {
            rejections = crate::rir::range::range_abce(l, &cfg, &loops, &mut outcome);
        }
        if passes.licm {
            let n = loop_invariant_code_motion(l);
            outcome.licm_hoisted = n as u32;
        }
        if passes.bce {
            // LICM moved code; versioning needs fresh structure.
            let cfg = Cfg::build(l);
            let loops = find_loops(l, &cfg);
            let (n, lv) = crate::rir::range::version_loops(l, &cfg, &loops);
            outcome.versioned_removed = n as u32;
            outcome.loops_versioned = lv as u32;
        }
    }
    let force_spill_p = if passes.div_const_temp_quirk {
        apply_div_const_quirk(l)
    } else {
        HashSet::new()
    };
    OptResult { outcome, rejections, force_spill_p }
}

/// Apply one compile's pass outcome to a VM's counters. Split out of
/// [`optimize`] so a memoized front half (cache hit) bumps the consuming
/// VM's counters exactly as a fresh compile would.
pub(crate) fn apply_outcome_counters(vm: &Vm, o: &JitOutcome) {
    let idiom = o.idiom_removed as u64;
    vm.counters.bounds_checks_eliminated.fetch_add(
        idiom + o.range_removed as u64 + o.versioned_removed as u64,
        Ordering::Relaxed,
    );
    vm.counters
        .bce_elided_idiom
        .fetch_add(idiom, Ordering::Relaxed);
    vm.counters
        .bce_elided_range
        .fetch_add(o.range_removed as u64, Ordering::Relaxed);
    vm.counters
        .bce_elided_versioned
        .fetch_add(o.versioned_removed as u64, Ordering::Relaxed);
    vm.counters
        .loops_versioned
        .fetch_add(o.loops_versioned as u64, Ordering::Relaxed);
    vm.counters
        .loops_found
        .fetch_add(o.loops_found as u64, Ordering::Relaxed);
    vm.counters
        .licm_hoisted
        .fetch_add(o.licm_hoisted as u64, Ordering::Relaxed);
}

/// Emit the typed compile trace for a finished method: the `JitCompile`
/// event with the allocator's enreg/spill split folded into the outcome,
/// plus any loop rejections. Both tiers call this after allocation.
pub(crate) fn push_compile_events(
    vm: &Arc<Vm>,
    method: MethodId,
    compiled: &RirMethod,
    mut opt: OptResult,
) {
    if !vm.observer.tracing() {
        return;
    }
    opt.outcome.rir_len = compiled.code.len() as u32;
    opt.outcome.enreg_prim = compiled.n_preg;
    opt.outcome.spill_prim = compiled.n_pspill;
    opt.outcome.enreg_ref = compiled.n_rreg;
    opt.outcome.spill_ref = compiled.n_rspill;
    vm.observer
        .push_event(Event::JitCompile { method, outcome: opt.outcome });
    for (header_pc, reason) in opt.rejections {
        vm.observer
            .push_event(Event::LoopRejected { method, header_pc, reason });
    }
}

/// Basic-block leader set: entry, branch targets, post-terminator
/// instructions, and EH boundaries.
pub(crate) fn leaders(l: &Lowered) -> HashSet<u32> {
    let mut set = HashSet::new();
    set.insert(0);
    for (i, inst) in l.code.iter().enumerate() {
        if let Some(t) = inst.target() {
            set.insert(t);
        }
        if matches!(
            inst,
            RInst::Br { .. }
                | RInst::BrIf { .. }
                | RInst::BrIfRef { .. }
                | RInst::BrCmp { .. }
                | RInst::Ret { .. }
                | RInst::Throw { .. }
                | RInst::Leave { .. }
                | RInst::EndFinally
        ) {
            set.insert(i as u32 + 1);
        }
    }
    for r in &l.eh {
        set.insert(r.try_start);
        set.insert(r.handler_start);
    }
    set
}

/// The primitive slot an instruction defines, if any.
pub(crate) fn def_p(inst: &RInst) -> Option<u16> {
    match inst {
        RInst::MovP { dst, .. }
        | RInst::ConstP { dst, .. }
        | RInst::Bin { dst, .. }
        | RInst::Un { dst, .. }
        | RInst::Conv { dst, .. }
        | RInst::Cmp { dst, .. }
        | RInst::CmpRef { dst, .. }
        | RInst::IsInst { dst, .. }
        | RInst::LdLen { dst, .. }
        | RInst::LdMultiLen { dst, .. }
        | RInst::UnboxV { dst, .. } => Some(*dst),
        RInst::Call { dst: Some(DstSlot::P(d)), .. }
        | RInst::CallIntr { dst: Some(DstSlot::P(d)), .. }
        | RInst::LdFld { dst: DstSlot::P(d), .. }
        | RInst::LdSFld { dst: DstSlot::P(d), .. }
        | RInst::LdElem { dst: DstSlot::P(d), .. }
        | RInst::LdElemMulti { dst: DstSlot::P(d), .. } => Some(*d),
        _ => None,
    }
}

/// The reference slot an instruction defines, if any.
pub(crate) fn def_r(inst: &RInst) -> Option<u16> {
    match inst {
        RInst::MovR { dst, .. }
        | RInst::ConstNull { dst }
        | RInst::ConstStr { dst, .. }
        | RInst::NewObj { dst, .. }
        | RInst::CastClass { dst, .. }
        | RInst::NewArr { dst, .. }
        | RInst::NewMulti { dst, .. }
        | RInst::BoxV { dst, .. } => Some(*dst),
        RInst::Call { dst: Some(DstSlot::R(d)), .. }
        | RInst::CallIntr { dst: Some(DstSlot::R(d)), .. }
        | RInst::LdFld { dst: DstSlot::R(d), .. }
        | RInst::LdSFld { dst: DstSlot::R(d), .. }
        | RInst::LdElem { dst: DstSlot::R(d), .. }
        | RInst::LdElemMulti { dst: DstSlot::R(d), .. } => Some(*d),
        _ => None,
    }
}

/// Rewrite only the *use* (read) positions of an instruction.
fn rewrite_uses(
    inst: &mut RInst,
    pf: &mut dyn FnMut(u16) -> u16,
    rf: &mut dyn FnMut(u16) -> u16,
) {
    // Save defs, apply the uniform rewrite, restore defs.
    let dp = def_p(inst);
    let dr = def_r(inst);
    rewrite_slots(inst, pf, rf);
    if let Some(d) = dp {
        restore_def_p(inst, d);
    }
    if let Some(d) = dr {
        restore_def_r(inst, d);
    }
}

fn restore_def_p(inst: &mut RInst, d: u16) {
    match inst {
        RInst::MovP { dst, .. }
        | RInst::ConstP { dst, .. }
        | RInst::Bin { dst, .. }
        | RInst::Un { dst, .. }
        | RInst::Conv { dst, .. }
        | RInst::Cmp { dst, .. }
        | RInst::CmpRef { dst, .. }
        | RInst::IsInst { dst, .. }
        | RInst::LdLen { dst, .. }
        | RInst::LdMultiLen { dst, .. }
        | RInst::UnboxV { dst, .. } => *dst = d,
        RInst::Call { dst: Some(DstSlot::P(x)), .. }
        | RInst::CallIntr { dst: Some(DstSlot::P(x)), .. }
        | RInst::LdFld { dst: DstSlot::P(x), .. }
        | RInst::LdSFld { dst: DstSlot::P(x), .. }
        | RInst::LdElem { dst: DstSlot::P(x), .. }
        | RInst::LdElemMulti { dst: DstSlot::P(x), .. } => *x = d,
        _ => {}
    }
}

fn restore_def_r(inst: &mut RInst, d: u16) {
    match inst {
        RInst::MovR { dst, .. }
        | RInst::ConstNull { dst }
        | RInst::ConstStr { dst, .. }
        | RInst::NewObj { dst, .. }
        | RInst::CastClass { dst, .. }
        | RInst::NewArr { dst, .. }
        | RInst::NewMulti { dst, .. }
        | RInst::BoxV { dst, .. } => *dst = d,
        RInst::Call { dst: Some(DstSlot::R(x)), .. }
        | RInst::CallIntr { dst: Some(DstSlot::R(x)), .. }
        | RInst::LdFld { dst: DstSlot::R(x), .. }
        | RInst::LdSFld { dst: DstSlot::R(x), .. }
        | RInst::LdElem { dst: DstSlot::R(x), .. }
        | RInst::LdElemMulti { dst: DstSlot::R(x), .. } => *x = d,
        _ => {}
    }
}

/// Combined local (per basic block) constant and copy propagation.
///
/// * copies: after `mov d, s`, uses of `d` read `s` directly;
/// * constants: after `mov d, #k`, `d` is known; const-const operations
///   fold, and with `imm_fusion` a known right operand becomes an
///   immediate (IBM's "constants throughout the loop").
fn const_and_copy_prop(l: &mut Lowered, passes: &PassConfig) {
    let heads = leaders(l);
    let mut pconst: HashMap<u16, u64> = HashMap::new();
    let mut pcopy: HashMap<u16, u16> = HashMap::new();
    let mut rcopy: HashMap<u16, u16> = HashMap::new();

    for i in 0..l.code.len() {
        if heads.contains(&(i as u32)) {
            pconst.clear();
            pcopy.clear();
            rcopy.clear();
        }
        // Rewrite uses through the copy maps.
        if passes.copy_prop {
            let (pc, rc) = (&pcopy, &rcopy);
            rewrite_uses(
                &mut l.code[i],
                &mut |v| *pc.get(&v).unwrap_or(&v),
                &mut |v| *rc.get(&v).unwrap_or(&v),
            );
        }
        // Constant folding / fusion.
        if passes.const_prop {
            let folded = fold_inst(&l.code[i], &pconst, passes.imm_fusion);
            if let Some(new) = folded {
                l.code[i] = new;
            }
        }
        // Update the dataflow state from the (possibly rewritten) inst.
        let inst = &l.code[i];
        let dp = def_p(inst);
        let dr = def_r(inst);
        if let Some(d) = dp {
            pconst.remove(&d);
            pcopy.remove(&d);
            pcopy.retain(|_, v| *v != d);
        }
        if let Some(d) = dr {
            rcopy.remove(&d);
            rcopy.retain(|_, v| *v != d);
        }
        match inst {
            RInst::ConstP { dst, bits } => {
                pconst.insert(*dst, *bits);
            }
            RInst::MovP { dst, src } if dst != src => {
                if let Some(&c) = pconst.get(src) {
                    pconst.insert(*dst, c);
                }
                // Canonicalize toward the lower-numbered vreg: arguments
                // and locals precede stack cells, so facts about named
                // variables (e.g. the BCE length idiom) survive the
                // store-to-local direction too.
                if dst < src {
                    pcopy.insert(*src, *dst);
                } else {
                    pcopy.insert(*dst, *src);
                }
            }
            RInst::MovR { dst, src } if dst != src => {
                if dst < src {
                    rcopy.insert(*src, *dst);
                } else {
                    rcopy.insert(*dst, *src);
                }
            }
            _ => {}
        }
    }
}

/// Fold one instruction against the known-constant map.
fn fold_inst(inst: &RInst, pconst: &HashMap<u16, u64>, imm_fusion: bool) -> Option<RInst> {
    let known = |s: &u16| pconst.get(s).copied();
    match inst {
        RInst::MovP { dst, src } => known(src).map(|bits| RInst::ConstP { dst: *dst, bits }),
        RInst::Bin { op, ty, dst, a, b } => {
            let bval = match b {
                Operand::Imm(v) => Some(*v),
                Operand::Slot(s) => known(s),
            };
            if let (Some(av), Some(bv)) = (known(a), bval) {
                // Fold fully-constant operations (but never fold a trap).
                if let Some(bits) = eval_bin(*op, *ty, av, bv) {
                    return Some(RInst::ConstP { dst: *dst, bits });
                }
            }
            if imm_fusion {
                if let (Operand::Slot(s), Some(bv)) = (b, bval) {
                    let _ = s;
                    return Some(RInst::Bin {
                        op: *op,
                        ty: *ty,
                        dst: *dst,
                        a: *a,
                        b: Operand::Imm(bv),
                    });
                }
            }
            None
        }
        RInst::Un { op, ty, dst, a } => known(a).and_then(|av| {
            eval_un(*op, *ty, av).map(|bits| RInst::ConstP { dst: *dst, bits })
        }),
        RInst::Conv { from, to, dst, src } => known(src).map(|bits| RInst::ConstP {
            dst: *dst,
            bits: crate::numerics::conv_bits(*from, *to, bits),
        }),
        RInst::Cmp { op, ty, dst, a, b } => {
            let bval = match b {
                Operand::Imm(v) => Some(*v),
                Operand::Slot(s) => known(s),
            };
            if let (Some(av), Some(bv)) = (known(a), bval) {
                return Some(RInst::ConstP {
                    dst: *dst,
                    bits: crate::numerics::cmp_bits(*op, *ty, av, bv) as u32 as u64,
                });
            }
            // Compare immediates exist on every target (`cmp r, imm`);
            // they are fused whenever constants are known, independent of
            // general-operand fusion.
            if let (Operand::Slot(_), Some(bv)) = (b, bval) {
                return Some(RInst::Cmp {
                    op: *op,
                    ty: *ty,
                    dst: *dst,
                    a: *a,
                    b: Operand::Imm(bv),
                });
            }
            None
        }
        RInst::BrCmp { op, ty, a, b, t } => match b {
            Operand::Slot(s) => known(s).map(|bv| RInst::BrCmp {
                op: *op,
                ty: *ty,
                a: *a,
                b: Operand::Imm(bv),
                t: *t,
            }),
            Operand::Imm(_) => None,
        },
        _ => None,
    }
}

fn eval_bin(op: BinOp, ty: NumTy, a: u64, b: u64) -> Option<u64> {
    use crate::numerics::{bin_i4, bin_i8, bin_r4, bin_r8};
    match ty {
        NumTy::I4 => bin_i4(op, a as u32 as i32, b as u32 as i32)
            .ok()
            .map(|v| v as u32 as u64),
        NumTy::I8 => bin_i8(op, a as i64, b as i64).ok().map(|v| v as u64),
        NumTy::R4 => Some(bin_r4(op, f32::from_bits(a as u32), f32::from_bits(b as u32)).to_bits() as u64),
        NumTy::R8 => Some(bin_r8(op, f64::from_bits(a), f64::from_bits(b)).to_bits()),
    }
}

fn eval_un(op: UnOp, ty: NumTy, a: u64) -> Option<u64> {
    use crate::numerics::{un_i4, un_i8};
    Some(match ty {
        NumTy::I4 => un_i4(op, a as u32 as i32) as u32 as u64,
        NumTy::I8 => un_i8(op, a as i64) as u64,
        NumTy::R4 => match op {
            UnOp::Neg => (-f32::from_bits(a as u32)).to_bits() as u64,
            UnOp::Not => return None,
        },
        NumTy::R8 => match op {
            UnOp::Neg => (-f64::from_bits(a)).to_bits(),
            UnOp::Not => return None,
        },
    })
}

/// Multiply-by-power-of-two becomes a shift (the CLR's faster integer
/// multiplication in Graph 1). Works on immediates and on register
/// operands with an in-block constant reaching definition — shift counts
/// are immediates in every real encoding, independent of whether the
/// profile fuses general constants.
fn strength_reduce(l: &mut Lowered) {
    let heads = leaders(l);
    let mut consts: HashMap<u16, u64> = HashMap::new();
    for i in 0..l.code.len() {
        if heads.contains(&(i as u32)) {
            consts.clear();
        }
        if let RInst::Bin { op, ty, b, .. } = &mut l.code[i] {
            if *op == BinOp::Mul && ty.is_int() {
                let c = match b {
                    Operand::Imm(c) => Some(*c),
                    Operand::Slot(s) => consts.get(s).copied(),
                };
                if let Some(c) = c {
                    let val = match ty {
                        NumTy::I4 => c as u32 as i32 as i64,
                        _ => c as i64,
                    };
                    if val > 0 && (val as u64).is_power_of_two() {
                        *op = BinOp::Shl;
                        *b = Operand::Imm(val.trailing_zeros() as u64);
                    }
                }
            }
        }
        match &l.code[i] {
            RInst::ConstP { dst, bits } => {
                consts.insert(*dst, *bits);
            }
            inst => {
                if let Some(d) = def_p(inst) {
                    consts.remove(&d);
                }
            }
        }
    }
}

/// Bounds-check elimination for the canonical counted-loop shape:
/// the index starts at zero, increments by a positive constant, and is
/// guarded by a compare against `ldlen` of the same array ("using the
/// array.length property as the bounds in the loop", Section 5 — worth
/// 15 % on the sparse kernel).
///
/// The matcher works the way the era's JITs did — structural pattern
/// recognition over the block-local facts of [`collect_loop_facts`]
/// rather than natural-loop analysis — so, unlike the loop passes in
/// [`crate::rir::range`], it also covers loops that overlap exception
/// regions (an access inside or after a `try` in the loop body). Each
/// match is trial-committed against the independent certificate checker.
fn eliminate_bounds_checks(l: &mut Lowered) -> u64 {
    let facts = collect_loop_facts(l);
    // Counter shape, method-wide: a zero init, stack-cell increments
    // (`mov i, <i + k>`), and no other definition. A one-instruction
    // `i = i + k` taints the counter here, although the loop passes
    // accept it as an increment.
    #[derive(Default)]
    struct Ind {
        zero: bool,
        inc: bool,
        tainted: bool,
    }
    let mut ind: HashMap<u16, Ind> = HashMap::new();
    for (pc, inst) in l.code.iter().enumerate() {
        let Some(d) = def_p(inst) else { continue };
        let c = ind.entry(d).or_default();
        match inst {
            RInst::ConstP { bits: 0, .. } => c.zero = true,
            RInst::MovP { .. } if matches!(facts.defs.get(&pc), Some(DefKind::Increment)) => {
                c.inc = true
            }
            _ => c.tainted = true,
        }
    }
    // (index origin, array origin) -> pc of the first compare of the
    // counter against that array's length, recorded for the certificate.
    let mut guards: HashMap<(u16, u16), u32> = HashMap::new();
    for pc in 0..l.code.len() {
        let Some(g) = facts.guard.get(&pc) else {
            continue;
        };
        let Some(b) = g.b else { continue };
        if let Some((arr, _)) = g.b_len {
            guards.entry((g.a, arr)).or_insert(pc as u32);
        }
        if let Some((arr, _)) = g.a_len {
            guards.entry((b, arr)).or_insert(pc as u32);
        }
    }
    let mut cands: Vec<ElisionCert> = Vec::new();
    for pc in 0..l.code.len() {
        let Some(&(idx_o, arr_o)) = facts.access.get(&pc) else {
            continue;
        };
        let Some(&guard_pc) = guards.get(&(idx_o, arr_o)) else {
            continue;
        };
        if ind
            .get(&idx_o)
            .is_some_and(|c| c.zero && c.inc && !c.tainted)
        {
            cands.push(ElisionCert {
                pc: pc as u32,
                mechanism: BoundsMode::ElidedIdiom,
                kind: CertKind::BlockGuard {
                    guard_pc,
                    ivar: idx_o,
                    arr: arr_o,
                },
            });
        }
    }
    // The block-local facts above are necessary but not sufficient (a
    // compare against the length that never controls the access would
    // match — conform seed 330); the checker verifies the certificate's
    // guard-edge dominance.
    commit_certified(l, cands).len() as u64
}

/// Trial-commit proposed elisions: apply each one whose access is still
/// checked (the first proposal for a pc wins), keep those the independent
/// checker ([`crate::rir::audit::check`]) accepts and revert the rest.
/// Returns the indices of the accepted proposals.
///
/// A certificate's validity does not depend on which other accesses are
/// elided, so one check of the whole batch usually settles it; only a
/// rejected batch falls back to checking the proposals one at a time.
pub(crate) fn commit_certified(l: &mut Lowered, cands: Vec<ElisionCert>) -> Vec<usize> {
    let base = l.certs.len();
    let mut applied = Vec::new();
    for (i, cert) in cands.iter().enumerate() {
        if access_checked(l, cert.pc as usize) {
            set_bounds(l, cert.pc as usize, cert.mechanism);
            l.certs.push(cert.clone());
            applied.push(i);
        }
    }
    if applied.is_empty() || crate::rir::audit::check(l).is_ok() {
        return applied;
    }
    for pc in l
        .certs
        .drain(base..)
        .map(|c| c.pc as usize)
        .collect::<Vec<_>>()
    {
        set_bounds(l, pc, BoundsMode::Checked);
    }
    let mut won = Vec::new();
    for (i, cert) in cands.into_iter().enumerate() {
        let pc = cert.pc as usize;
        if !access_checked(l, pc) {
            continue;
        }
        set_bounds(l, pc, cert.mechanism);
        l.certs.push(cert);
        if crate::rir::audit::check(l).is_ok() {
            won.push(i);
        } else {
            l.certs.pop();
            set_bounds(l, pc, BoundsMode::Checked);
        }
    }
    won
}

/// Does the element access at `pc` still test bounds at run time?
fn access_checked(l: &Lowered, pc: usize) -> bool {
    match &l.code[pc] {
        RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } => bounds.is_checked(),
        _ => unreachable!("access_checked on a non-access instruction"),
    }
}

/// Set the bounds mode of the element access at `pc`.
fn set_bounds(l: &mut Lowered, pc: usize, mode: BoundsMode) {
    match &mut l.code[pc] {
        RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } => *bounds = mode,
        _ => unreachable!("set_bounds on a non-access instruction"),
    }
}

// ---------------------------------------------------------------------------
// Block-local facts shared by the structural matcher and the loop passes.
// ---------------------------------------------------------------------------

/// Guard operands of an I4 fused compare-branch, resolved through the
/// block-local fact maps.
pub(crate) struct GuardFacts {
    pub op: CmpOp,
    /// Resolved origin of the left operand.
    pub a: u16,
    /// Resolved origin of the right operand, when it is a slot.
    pub b: Option<u16>,
    /// `(array origin, fact_is_global)` when the left operand holds that
    /// array's length. Block-local facts come from an `ldlen` in the same
    /// block (re-derived every iteration); global facts are the
    /// hand-hoisted `int len = arr.Length;` idiom (single-definition
    /// locals only).
    pub a_len: Option<(u16, bool)>,
    /// Same for the right operand.
    pub b_len: Option<(u16, bool)>,
}

/// Classification of a primitive definition site.
pub(crate) enum DefKind {
    /// `x = x + k` with constant `k > 0` — a counted-loop increment
    /// (directly, or through the stack-cell `mov x, <x+k>` shape).
    Increment,
    Other,
}

/// Per-instruction facts for bounds-check elimination, resolved through
/// the naive stack-shuffle lowering by block-local copy, constant,
/// `x = local + k` and `x = arr.Length` maps.
pub(crate) struct LoopFacts {
    /// pc of an element access -> (index origin, array origin).
    pub access: HashMap<usize, (u16, u16)>,
    /// pc of an I4 `BrCmp` -> resolved guard operands.
    pub guard: HashMap<usize, GuardFacts>,
    /// pc with a primitive def -> classification.
    pub defs: HashMap<usize, DefKind>,
    /// Block leader -> constants known at the end of that block (for the
    /// induction variable's entry value).
    pub end_consts: HashMap<u32, HashMap<u16, u64>>,
}

/// One forward scan computing [`LoopFacts`]. Facts reset at block leaders,
/// except the hand-hoisted `int len = arr.Length;` idiom, promoted to a
/// method-wide fact when the local has a single real definition.
pub(crate) fn collect_loop_facts(l: &Lowered) -> LoopFacts {
    let heads = leaders(l);
    let mut rdef_count: HashMap<u16, u32> = HashMap::new();
    let mut real_pdefs: HashMap<u16, u32> = HashMap::new();
    for inst in &l.code {
        if let Some(d) = def_p(inst) {
            if !matches!(inst, RInst::ConstP { bits: 0, .. }) {
                *real_pdefs.entry(d).or_default() += 1;
            }
        }
        if let Some(d) = def_r(inst) {
            if !matches!(inst, RInst::ConstNull { .. }) {
                *rdef_count.entry(d).or_default() += 1;
            }
        }
    }

    let mut facts = LoopFacts {
        access: HashMap::new(),
        guard: HashMap::new(),
        defs: HashMap::new(),
        end_consts: HashMap::new(),
    };
    let mut copies: HashMap<u16, u16> = HashMap::new();
    let mut rcopies: HashMap<u16, u16> = HashMap::new();
    let mut consts: HashMap<u16, u64> = HashMap::new();
    let mut incof: HashMap<u16, u16> = HashMap::new();
    let mut lenof: HashMap<u16, u16> = HashMap::new();
    let mut global_lenof: HashMap<u16, u16> = HashMap::new();
    let mut cur_leader = 0u32;

    for i in 0..l.code.len() {
        if i > 0 && heads.contains(&(i as u32)) {
            facts.end_consts.insert(cur_leader, consts.clone());
            cur_leader = i as u32;
            copies.clear();
            rcopies.clear();
            consts.clear();
            incof.clear();
            lenof.clear();
        }
        let presolve = |v: u16, copies: &HashMap<u16, u16>| *copies.get(&v).unwrap_or(&v);
        let rresolve = |v: u16, rcopies: &HashMap<u16, u16>| *rcopies.get(&v).unwrap_or(&v);

        // Read-side facts (pre-instruction state).
        match &l.code[i] {
            RInst::BrCmp { op, ty: NumTy::I4, a, b, .. } => {
                let a_res = presolve(*a, &copies);
                let b_res = match b {
                    Operand::Slot(s) => Some(presolve(*s, &copies)),
                    Operand::Imm(_) => None,
                };
                let len_fact = |raw: u16, res: u16| -> Option<(u16, bool)> {
                    lenof
                        .get(&raw)
                        .or_else(|| lenof.get(&res))
                        .map(|&arr| (arr, false))
                        .or_else(|| {
                            global_lenof
                                .get(&raw)
                                .or_else(|| global_lenof.get(&res))
                                .map(|&arr| (arr, true))
                        })
                };
                let a_len = len_fact(*a, a_res);
                let b_len = match b {
                    Operand::Slot(s) => len_fact(*s, b_res.unwrap()),
                    Operand::Imm(_) => None,
                };
                facts.guard.insert(
                    i,
                    GuardFacts { op: *op, a: a_res, b: b_res, a_len, b_len },
                );
            }
            RInst::LdElem { arr, idx, .. } | RInst::StElem { arr, idx, .. } => {
                facts
                    .access
                    .insert(i, (presolve(*idx, &copies), rresolve(*arr, &rcopies)));
            }
            _ => {}
        }

        let dp = def_p(&l.code[i]);
        let dr = def_r(&l.code[i]);
        enum NewFact {
            Const(u64),
            Copy(u16),
            IncOf(u16),
            LenOf(u16),
            None,
        }
        let mut fact = NewFact::None;
        match &l.code[i] {
            RInst::ConstP { bits, .. } => fact = NewFact::Const(*bits),
            RInst::MovP { dst, src } => {
                if incof.get(src).copied() == Some(*dst) {
                    facts.defs.insert(i, DefKind::Increment);
                } else {
                    fact = NewFact::Copy(presolve(*src, &copies));
                    if let Some(&arr) = lenof.get(src) {
                        if real_pdefs.get(dst).copied().unwrap_or(0) == 1 {
                            global_lenof.insert(*dst, arr);
                        }
                    }
                }
            }
            RInst::MovR { src, .. } => {
                fact = NewFact::Copy(rresolve(*src, &rcopies));
            }
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst, a, b } => {
                let k = match b {
                    Operand::Imm(k) => Some(*k),
                    Operand::Slot(s) => consts.get(s).copied(),
                };
                if let Some(k) = k {
                    if (k as u32 as i32) > 0 {
                        let a_res = presolve(*a, &copies);
                        if a_res == *dst {
                            // `i = i + k` in one instruction.
                            facts.defs.insert(i, DefKind::Increment);
                        } else {
                            fact = NewFact::IncOf(a_res);
                        }
                    }
                }
            }
            RInst::LdLen { arr, .. } => {
                let ao = rresolve(*arr, &rcopies);
                if rdef_count.get(&ao).copied().unwrap_or(0) <= 1 {
                    fact = NewFact::LenOf(ao);
                }
            }
            _ => {}
        }
        if let Some(d) = dp {
            facts.defs.entry(i).or_insert(DefKind::Other);
            let _ = d;
        }
        if let Some(d) = dp {
            copies.remove(&d);
            consts.remove(&d);
            incof.remove(&d);
            lenof.remove(&d);
            copies.retain(|_, o| *o != d);
            incof.retain(|_, o| *o != d);
        }
        if let Some(d) = dr {
            rcopies.remove(&d);
            rcopies.retain(|_, o| *o != d);
            lenof.retain(|_, o| *o != d);
        }
        match (fact, dp, dr) {
            (NewFact::Const(c), Some(d), _) => {
                consts.insert(d, c);
            }
            (NewFact::Copy(o), Some(d), _) if o != d => {
                copies.insert(d, o);
                if let Some(&c) = consts.get(&o) {
                    consts.insert(d, c);
                }
            }
            (NewFact::Copy(o), _, Some(d)) if o != d => {
                rcopies.insert(d, o);
            }
            (NewFact::IncOf(o), Some(d), _) if o != d => {
                incof.insert(d, o);
            }
            (NewFact::LenOf(a), Some(d), _) => {
                lenof.insert(d, a);
            }
            _ => {}
        }
    }
    facts.end_consts.insert(cur_leader, consts);
    facts
}

// ---------------------------------------------------------------------------
// Loop-aware tier: LICM over natural loops (see `rir::loops`).
// ---------------------------------------------------------------------------

/// Loop-invariant code motion.
///
/// Pure arithmetic whose operands have no definition inside the loop
/// computes the same value every iteration; it is recomputed once in front
/// of the header into a fresh virtual register, and the original
/// instruction becomes a register move. Constant materializations count
/// too (the profiles without immediate fusion re-load every literal each
/// iteration), and a candidate may use the value of an *earlier candidate
/// in the same block* — the chain hoists together, reading the fresh
/// registers. The guard's `ldlen` is hoisted the same way when it sits in
/// the header with nothing effectful before it (the null-pointer trap
/// then fires one instruction earlier, which is unobservable in an
/// EH-free loop — and loops overlapping EH regions are skipped entirely).
///
/// Each round hoists one loop's candidates and re-analyzes; hoisted code
/// lands outside the loop, so nested invariants migrate outward one level
/// per round until a fixpoint.
fn loop_invariant_code_motion(l: &mut Lowered) -> u64 {
    let mut total = 0u64;
    'rounds: for _ in 0..64 {
        // Leave ample headroom below the spill-bit encoding for the fresh
        // registers hoisting allocates.
        if l.n_pvreg as u32 >= 0x4000 {
            break;
        }
        let cfg = Cfg::build(l);
        let loops = find_loops(l, &cfg);
        for lp in loops.iter().filter(|lp| lp.clean) {
            let plans = plan_hoists(l, &cfg, lp);
            if !plans.is_empty() {
                total += plans.len() as u64;
                hoist(l, &cfg, lp, plans);
                continue 'rounds;
            }
        }
        break;
    }
    total
}

/// May this instruction precede a hoisted `ldlen` in the header? Only
/// trap-free register arithmetic (plus other `ldlen`s — reordering two
/// null traps of the same exception class is unobservable without EH).
fn effect_free(inst: &RInst) -> bool {
    matches!(
        inst,
        RInst::Nop
            | RInst::MovP { .. }
            | RInst::MovR { .. }
            | RInst::ConstP { .. }
            | RInst::ConstNull { .. }
            | RInst::Un { .. }
            | RInst::Conv { .. }
            | RInst::Cmp { .. }
            | RInst::CmpRef { .. }
            | RInst::LdLen { .. }
    ) || matches!(inst, RInst::Bin { op, .. } if !matches!(op, BinOp::Div | BinOp::Rem))
}

/// Select the instructions of `lp` that compute loop-invariant values and
/// prepare their hoisted clones.
///
/// An operand is invariant when it has no definition anywhere in the loop
/// — or when its *most recent same-block definition* is an earlier
/// candidate: straight-line execution guarantees that definition reaches
/// this use, so the clone reads the earlier candidate's fresh register.
/// Fresh registers are numbered from `l.n_pvreg`; [`hoist`] commits the
/// allocation.
fn plan_hoists(l: &Lowered, cfg: &Cfg, lp: &NaturalLoop) -> Vec<(usize, RInst)> {
    let mut pdefs: HashSet<u16> = HashSet::new();
    let mut rdefs: HashSet<u16> = HashSet::new();
    for &b in &lp.body {
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            if let Some(d) = def_p(&l.code[pc]) {
                pdefs.insert(d);
            }
            if let Some(d) = def_r(&l.code[pc]) {
                rdefs.insert(d);
            }
        }
    }
    let (hs, _) = cfg.ranges[lp.header];
    let mut plans: Vec<(usize, RInst)> = Vec::new();
    let mut next_fresh = l.n_pvreg;
    for &b in &lp.body {
        // Slot -> fresh register of the candidate that is the slot's most
        // recent definition in this block.
        let mut cur_fresh: HashMap<u16, u16> = HashMap::new();
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            let inst = &l.code[pc];
            let inv = |s: u16| !pdefs.contains(&s) || cur_fresh.contains_key(&s);
            let inv_op = |o: &Operand| match o {
                Operand::Imm(_) => true,
                Operand::Slot(s) => inv(*s),
            };
            let ok = match inst {
                RInst::ConstP { .. } => true,
                RInst::Bin { op, a, b, .. } if !matches!(op, BinOp::Div | BinOp::Rem) => {
                    inv(*a) && inv_op(b)
                }
                RInst::Un { a, .. } => inv(*a),
                RInst::Conv { src, .. } => inv(*src),
                RInst::Cmp { a, b, .. } => inv(*a) && inv_op(b),
                RInst::LdLen { arr, .. } => {
                    b == lp.header
                        && !rdefs.contains(arr)
                        && l.code[hs..pc].iter().all(effect_free)
                }
                _ => false,
            };
            let d = def_p(inst);
            if ok {
                let mut clone = inst.clone();
                // Redirect operands defined by earlier candidates to the
                // fresh registers (at the hoist point the original slots
                // still hold their pre-loop values).
                let sub = |s: &mut u16, cf: &HashMap<u16, u16>| {
                    if let Some(&f) = cf.get(s) {
                        *s = f;
                    }
                };
                match &mut clone {
                    RInst::Bin { a, b, .. } => {
                        sub(a, &cur_fresh);
                        if let Operand::Slot(s) = b {
                            sub(s, &cur_fresh);
                        }
                    }
                    RInst::Un { a, .. } => sub(a, &cur_fresh),
                    RInst::Conv { src, .. } => sub(src, &cur_fresh),
                    RInst::Cmp { a, b, .. } => {
                        sub(a, &cur_fresh);
                        if let Operand::Slot(s) = b {
                            sub(s, &cur_fresh);
                        }
                    }
                    _ => {}
                }
                let fresh = next_fresh;
                next_fresh += 1;
                restore_def_p(&mut clone, fresh);
                plans.push((pc, clone));
                if let Some(d) = d {
                    cur_fresh.insert(d, fresh);
                }
            } else if let Some(d) = d {
                cur_fresh.remove(&d);
            }
        }
    }
    // A hoisted constant is live across the whole loop and costs a
    // register, while rematerializing it in the body is free — keep a
    // `ConstP` plan only when a hoisted computation consumes its value.
    let base = l.n_pvreg;
    let mut needed: HashSet<u16> = HashSet::new();
    let mut keep = vec![false; plans.len()];
    for i in (0..plans.len()).rev() {
        let clone = &plans[i].1;
        let fresh = def_p(clone).expect("LICM candidates define a primitive");
        if !matches!(clone, RInst::ConstP { .. }) || needed.contains(&fresh) {
            keep[i] = true;
            let mut mark = |s: u16| {
                if s >= base {
                    needed.insert(s);
                }
            };
            match clone {
                RInst::Bin { a, b, .. } | RInst::Cmp { a, b, .. } => {
                    mark(*a);
                    if let Operand::Slot(s) = b {
                        mark(*s);
                    }
                }
                RInst::Un { a, .. } => mark(*a),
                RInst::Conv { src, .. } => mark(*src),
                _ => {}
            }
        }
    }
    // Renumber the survivors contiguously so the allocator never sees
    // holes in the vreg space.
    let mut remap: HashMap<u16, u16> = HashMap::new();
    let mut next = base;
    let mut out = Vec::with_capacity(plans.len());
    for (i, (pc, mut clone)) in plans.into_iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let re = |s: &mut u16, remap: &HashMap<u16, u16>| {
            if let Some(&n) = remap.get(s) {
                *s = n;
            }
        };
        match &mut clone {
            RInst::Bin { a, b, .. } | RInst::Cmp { a, b, .. } => {
                re(a, &remap);
                if let Operand::Slot(s) = b {
                    re(s, &remap);
                }
            }
            RInst::Un { a, .. } => re(a, &remap),
            RInst::Conv { src, .. } => re(src, &remap),
            _ => {}
        }
        let old = def_p(&clone).expect("LICM candidates define a primitive");
        restore_def_p(&mut clone, next);
        remap.insert(old, next);
        next += 1;
        out.push((pc, clone));
    }
    out
}

/// Insert the planned clones in front of the loop header, turn the
/// originals into register moves, and remap branches and EH ranges.
/// Entry edges fall into (or retarget to) the hoisted block; back edges
/// retarget past it.
fn hoist(l: &mut Lowered, cfg: &Cfg, lp: &NaturalLoop, plans: Vec<(usize, RInst)>) {
    let h = cfg.ranges[lp.header].0;
    let k = plans.len();
    let mut hoisted = Vec::with_capacity(k);
    for (pc, clone) in plans {
        let fresh = def_p(&clone).expect("LICM candidates define a primitive");
        l.n_pvreg = l.n_pvreg.max(fresh + 1);
        let dst = def_p(&l.code[pc]).expect("LICM candidates define a primitive");
        hoisted.push(clone);
        l.code[pc] = RInst::MovP { dst, src: fresh };
    }
    let in_body = |pc: usize| lp.body.contains(&cfg.block_of(pc as u32));
    let old = std::mem::take(&mut l.code);
    let mut code: Vec<RInst> = Vec::with_capacity(old.len() + k);
    let mut iter = old.into_iter();
    code.extend(iter.by_ref().take(h));
    code.extend(hoisted);
    code.extend(iter);
    for np in 0..code.len() {
        if np >= h && np < h + k {
            continue; // hoisted instructions never branch
        }
        let old_pc = if np < h { np } else { np - k };
        if let Some(t) = code[np].target() {
            let nt = if (t as usize) < h {
                t
            } else if (t as usize) == h {
                // Entry edges execute the hoisted code; back edges from
                // inside the body skip it.
                if in_body(old_pc) { (h + k) as u32 } else { h as u32 }
            } else {
                t + k as u32
            };
            code[np].set_target(nt);
        }
    }
    l.code = code;
    // Hoisting never targets loops overlapping EH, so no region boundary
    // can fall strictly inside the insertion point's block; inclusive
    // starts shift when at-or-after `h`, exclusive ends when after `h`.
    let k32 = k as u32;
    for r in &mut l.eh {
        if r.try_start >= h as u32 {
            r.try_start += k32;
        }
        if r.try_end > h as u32 {
            r.try_end += k32;
        }
        if r.handler_start >= h as u32 {
            r.handler_start += k32;
        }
        if r.handler_end > h as u32 {
            r.handler_end += k32;
        }
    }
    // Certificates cite instruction pcs (the access, its guard); every
    // pc at-or-after the insertion point slides down by `k`.
    for c in &mut l.certs {
        c.remap_pcs(&mut |p| if p >= h as u32 { p + k32 } else { p });
    }
}

/// Liveness-based dead-code elimination.
///
/// Global backward liveness over basic blocks, then a backward sweep that
/// deletes pure definitions whose destination is dead — this is what
/// erases the stack-shuffle moves the naive lowering produces, i.e. the
/// difference between Mono 0.23's CIL-mirroring code and the compact
/// loops the CLR and IBM JITs emit (Tables 6–8). Exception edges are
/// handled conservatively: every block inside a protected range may
/// transfer to its handler.
fn dead_code_elim(l: &mut Lowered) {
    loop {
        if !dce_round(l) {
            break;
        }
    }
}

#[inline]
fn bit_set(bs: &mut [u64], i: usize) {
    bs[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn bit_clear(bs: &mut [u64], i: usize) {
    bs[i / 64] &= !(1u64 << (i % 64));
}

#[inline]
fn bit_get(bs: &[u64], i: usize) -> bool {
    bs[i / 64] >> (i % 64) & 1 != 0
}

/// One liveness + sweep round; true if anything was removed.
///
/// Liveness state is kept in flat `u64` bitset rows (one row per block)
/// and the per-instruction use/def sets are recorded once per round into
/// a shared arena by running the slot rewriter over the instruction with
/// identity mappings — no per-instruction clones or allocations, which is
/// what keeps a fixpoint of rounds affordable on heavily-inlined methods.
fn dce_round(l: &mut Lowered) -> bool {
    let n = l.code.len();
    if n == 0 {
        return false;
    }
    // Block structure.
    let mut heads: Vec<u32> = leaders(l).into_iter().filter(|&h| h < n as u32).collect();
    heads.sort_unstable();
    let block_of = |pc: u32| -> usize {
        match heads.binary_search(&pc) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    };
    let nb = heads.len();
    let block_range = |b: usize| -> (usize, usize) {
        let start = heads[b] as usize;
        let end = if b + 1 < nb { heads[b + 1] as usize } else { n };
        (start, end)
    };
    // Successors. Blocks ending in `endfinally` resume at an unknown
    // continuation (leave target or exception re-dispatch) — they are
    // treated as fully live below.
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nb];
    // Exception edges are kept separate from `succ`: a throw can occur at
    // *any* instruction of a protected block, so everything live into the
    // handler is live at every point of the block — defs inside the try
    // must not kill those slots (the handler may observe the pre-store
    // value). They bypass the kill set below instead of flowing through
    // live_out.
    let mut eh_succ: Vec<Vec<usize>> = vec![Vec::new(); nb];
    let mut endfinally_blocks: Vec<bool> = vec![false; nb];
    for b in 0..nb {
        let (start, end) = block_range(b);
        let last = &l.code[end - 1];
        if matches!(last, RInst::EndFinally) {
            endfinally_blocks[b] = true;
        }
        if let Some(t) = last.target() {
            succ[b].push(block_of(t));
        }
        let falls = !matches!(
            last,
            RInst::Br { .. }
                | RInst::Ret { .. }
                | RInst::Throw { .. }
                | RInst::Leave { .. }
                | RInst::EndFinally
        );
        if falls && end < n {
            succ[b].push(block_of(end as u32));
        }
        // Conservative exception edges.
        for r in &l.eh {
            if (start as u32) < r.try_end && (end as u32) > r.try_start {
                succ[b].push(block_of(r.handler_start));
                eh_succ[b].push(block_of(r.handler_start));
            }
        }
        let _ = start;
    }

    // Per-instruction uses/defs over the combined vreg space (primitive
    // slots first, then reference slots), recorded once into a flat arena.
    let np = l.n_pvreg as usize;
    let nr = l.n_rvreg as usize;
    let total = np + nr;
    let words = total.div_ceil(64);
    const NONE: u32 = u32::MAX;
    let mut slot_arena: Vec<u32> = Vec::with_capacity(n * 3);
    let mut inst_uses: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut inst_defs: Vec<[u32; 2]> = Vec::with_capacity(n);
    {
        let arena = std::cell::RefCell::new(&mut slot_arena);
        for inst in l.code.iter_mut() {
            let dp = def_p(inst).map(|d| d as u32);
            let dr = def_r(inst).map(|d| np as u32 + d as u32);
            let start = arena.borrow().len() as u32;
            rewrite_slots(
                inst,
                &mut |v| {
                    arena.borrow_mut().push(v as u32);
                    v
                },
                &mut |v| {
                    arena.borrow_mut().push(np as u32 + v as u32);
                    v
                },
            );
            let mut a = arena.borrow_mut();
            let end = a.len() as u32;
            // One occurrence of each def slot was recorded as a use;
            // blank it so `x = x` still keeps `x` live.
            for d in [dp, dr].into_iter().flatten() {
                if let Some(p) = a[start as usize..end as usize].iter().position(|&x| x == d) {
                    a[start as usize + p] = NONE;
                }
            }
            inst_uses.push((start, end));
            inst_defs.push([dp.unwrap_or(NONE), dr.unwrap_or(NONE)]);
        }
    }

    // Block-level gen/kill, one bitset row per block.
    let mut gen: Vec<u64> = vec![0; nb * words];
    let mut kill: Vec<u64> = vec![0; nb * words];
    for b in 0..nb {
        let (start, end) = block_range(b);
        let g = &mut gen[b * words..(b + 1) * words];
        let k = &mut kill[b * words..(b + 1) * words];
        for i in (start..end).rev() {
            for d in inst_defs[i] {
                if d != NONE {
                    bit_clear(g, d as usize);
                    bit_set(k, d as usize);
                }
            }
            let (us, ue) = inst_uses[i];
            for &u in &slot_arena[us as usize..ue as usize] {
                if u != NONE {
                    bit_set(g, u as usize);
                }
            }
        }
    }
    // Iterate to fixpoint: live_in = gen ∪ (live_out − kill).
    let mut live_in: Vec<u64> = vec![0; nb * words];
    let mut live_out: Vec<u64> = vec![0; nb * words];
    let mut out_buf: Vec<u64> = vec![0; words];
    let mut eh_buf: Vec<u64> = vec![0; words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            out_buf.fill(if endfinally_blocks[b] { u64::MAX } else { 0 });
            for &s in &succ[b] {
                for (o, i2) in out_buf.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                    *o |= *i2;
                }
            }
            // Handler live-in is live throughout the protected block and
            // is immune to this block's kills.
            eh_buf.fill(0);
            for &s in &eh_succ[b] {
                for (o, i2) in eh_buf.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                    *o |= *i2;
                }
            }
            let mut blk_changed = false;
            for w in 0..words {
                let inn =
                    gen[b * words + w] | (out_buf[w] & !kill[b * words + w]) | eh_buf[w];
                if inn != live_in[b * words + w] || out_buf[w] != live_out[b * words + w] {
                    blk_changed = true;
                }
                live_in[b * words + w] = inn;
                live_out[b * words + w] = out_buf[w];
            }
            if blk_changed {
                changed = true;
            }
        }
    }

    // Backward sweep per block: delete pure defs of dead slots. Slots
    // live into a reachable handler stay live at every pc of the
    // protected block (a throw may observe the pre-kill value).
    let mut removed = false;
    let mut live: Vec<u64> = vec![0; words];
    for b in 0..nb {
        let (start, end) = block_range(b);
        live.copy_from_slice(&live_out[b * words..(b + 1) * words]);
        eh_buf.fill(0);
        for &s in &eh_succ[b] {
            for (o, i2) in eh_buf.iter_mut().zip(&live_in[s * words..(s + 1) * words]) {
                *o |= *i2;
            }
        }
        for i in (start..end).rev() {
            let defs = inst_defs[i];
            let pure = matches!(
                &l.code[i],
                RInst::MovP { .. }
                    | RInst::MovR { .. }
                    | RInst::ConstP { .. }
                    | RInst::ConstNull { .. }
                    | RInst::ConstStr { .. }
                    | RInst::Un { .. }
                    | RInst::Conv { .. }
                    | RInst::Cmp { .. }
                    | RInst::CmpRef { .. }
                    | RInst::IsInst { .. }
                    | RInst::LdSFld { .. }
            ) || matches!(
                &l.code[i],
                RInst::Bin { op, .. } if !matches!(op, BinOp::Div | BinOp::Rem)
            );
            let has_def = defs[0] != NONE || defs[1] != NONE;
            if pure
                && has_def
                && defs.iter().all(|&d| {
                    d == NONE
                        || (!bit_get(&live, d as usize) && !bit_get(&eh_buf, d as usize))
                })
            {
                l.code[i] = RInst::Nop;
                removed = true;
                continue;
            }
            for d in defs {
                if d != NONE {
                    bit_clear(&mut live, d as usize);
                }
            }
            let (us, ue) = inst_uses[i];
            for &u in &slot_arena[us as usize..ue as usize] {
                if u != NONE {
                    bit_set(&mut live, u as usize);
                }
            }
        }
    }
    removed
}

/// Remove `nop`s, remapping branch targets and EH ranges.
fn compact(l: &mut Lowered) {
    let n = l.code.len();
    let mut new_idx = Vec::with_capacity(n + 1);
    let mut kept = 0u32;
    for inst in &l.code {
        new_idx.push(kept);
        if !matches!(inst, RInst::Nop) {
            kept += 1;
        }
    }
    new_idx.push(kept);
    let old = std::mem::take(&mut l.code);
    l.code = old
        .into_iter()
        .filter(|i| !matches!(i, RInst::Nop))
        .collect();
    for inst in &mut l.code {
        if let Some(t) = inst.target() {
            inst.set_target(new_idx[t as usize]);
        }
    }
    for r in &mut l.eh {
        r.try_start = new_idx[r.try_start as usize];
        r.try_end = new_idx[r.try_end as usize];
        r.handler_start = new_idx[r.handler_start as usize];
        r.handler_end = new_idx[r.handler_end as usize];
    }
    for c in &mut l.certs {
        c.remap_pcs(&mut |p| new_idx[p as usize]);
    }
}

/// Reproduce CLR 1.1's Table-6 quirk: a constant feeding an integer
/// division is "temporarily stored in a variable" — i.e. it lives in a
/// stack-frame temporary rather than a register. We retarget the constant
/// load that reaches each division into a fresh virtual register and
/// force that register to spill.
///
/// Returns the set of forced-spill virtual registers.
fn apply_div_const_quirk(l: &mut Lowered) -> HashSet<u16> {
    let heads = leaders(l);
    let mut force = HashSet::new();
    for i in 0..l.code.len() {
        let (s, is_div) = match &l.code[i] {
            RInst::Bin { op: BinOp::Div | BinOp::Rem, ty, b: Operand::Slot(s), .. }
                if ty.is_int() =>
            {
                (*s, true)
            }
            _ => (0, false),
        };
        if !is_div {
            continue;
        }
        // Find the in-block reaching definition of the divisor slot.
        let mut j = i;
        let reach = loop {
            if j == 0 || heads.contains(&(j as u32)) {
                break None;
            }
            j -= 1;
            if def_p(&l.code[j]) == Some(s) {
                break Some(j);
            }
        };
        let Some(j) = reach else { continue };
        let RInst::ConstP { bits, .. } = l.code[j] else { continue };
        // The slot must be untouched between the constant load and the
        // division (other than by the division itself).
        let mut clean = true;
        for inst in &mut l.code[j + 1..i] {
            let mut seen = false;
            rewrite_slots(
                inst,
                &mut |v| {
                    seen |= v == s;
                    v
                },
                &mut |v| v,
            );
            if seen {
                clean = false;
                break;
            }
        }
        if !clean {
            continue;
        }
        let tmp = l.n_pvreg;
        l.n_pvreg += 1;
        l.code[j] = RInst::ConstP { dst: tmp, bits };
        if let RInst::Bin { b, .. } = &mut l.code[i] {
            *b = Operand::Slot(tmp);
        }
        force.insert(tmp);
    }
    force
}

/// Use-count-ranked register allocation under the profile's caps.
pub(crate) fn allocate(
    vm: &Arc<Vm>,
    method: MethodId,
    mut l: Lowered,
    force_spill_p: &HashSet<u16>,
) -> RirMethod {
    let mut pcount: HashMap<u16, u32> = HashMap::new();
    let mut rcount: HashMap<u16, u32> = HashMap::new();
    for inst in &mut l.code {
        rewrite_slots(
            inst,
            &mut |v| {
                *pcount.entry(v).or_default() += 1;
                v
            },
            &mut |v| {
                *rcount.entry(v).or_default() += 1;
                v
            },
        );
    }
    // Argument registers are written at entry; count that use.
    for a in &l.arg_locs {
        match a {
            ArgSlot::P(_, v) => *pcount.entry(*v).or_default() += 1,
            ArgSlot::R(v) => *rcount.entry(*v).or_default() += 1,
        }
    }
    for &v in &l.eh_exc_vregs {
        if v != u16::MAX {
            *rcount.entry(v).or_default() += 1;
        }
    }

    let assign = |count: &HashMap<u16, u32>,
                  n_vregs: u16,
                  cap: u16,
                  force: &HashSet<u16>|
     -> (Vec<u16>, u16, u16) {
        let mut order: Vec<u16> = (0..n_vregs).collect();
        order.sort_by_key(|v| std::cmp::Reverse(count.get(v).copied().unwrap_or(0)));
        let mut map = vec![0u16; n_vregs as usize];
        let mut n_reg = 0u16;
        let mut n_spill = 0u16;
        for v in order {
            if !force.contains(&v) && n_reg < cap && count.get(&v).copied().unwrap_or(0) > 0 {
                map[v as usize] = n_reg;
                n_reg += 1;
            } else {
                map[v as usize] = SPILL_BIT | n_spill;
                n_spill += 1;
            }
        }
        (map, n_reg, n_spill)
    };

    let (pmap, n_preg, n_pspill) = assign(
        &pcount,
        l.n_pvreg,
        vm.profile.max_enreg_prim,
        force_spill_p,
    );
    let empty = HashSet::new();
    let (rmap, n_rreg, n_rspill) = assign(&rcount, l.n_rvreg, vm.profile.max_enreg_ref, &empty);

    for inst in &mut l.code {
        rewrite_slots(
            inst,
            &mut |v| pmap[v as usize],
            &mut |v| rmap[v as usize],
        );
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


#[cfg(test)]
mod tests {
    use crate::machine::declare_prelude;
    use crate::profile::VmProfile;
    use crate::rir::{print_rir, RInst};
    use crate::Vm;
    use hpcnet_cil::{BinOp, CilType, CmpOp, MethodKind, ModuleBuilder};

    /// Build `static int F(int n)` with the given body emitter and return
    /// the RIR text per profile.
    fn rir_for(
        profile: VmProfile,
        build: impl FnOnce(&mut hpcnet_cil::MethodBuilder),
    ) -> (String, Vec<RInst>) {
        let (text, code, _) = rir_and_vm(profile, build);
        (text, code)
    }

    /// Like [`rir_for`] but also hands back the `Vm` so tests can inspect
    /// the optimization counters the compile incremented.
    fn rir_and_vm(
        profile: VmProfile,
        build: impl FnOnce(&mut hpcnet_cil::MethodBuilder),
    ) -> (String, Vec<RInst>, std::sync::Arc<Vm>) {
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        build(&mut f);
        f.finish();
        let m = mb.finish();
        let vm = Vm::new(m, profile).unwrap();
        let id = vm.module.find_method("P.F").unwrap();
        let code = vm.compiled(id).unwrap();
        (print_rir(&code.rir), code.rir.code.clone(), vm)
    }

    fn const_times_eight(f: &mut hpcnet_cil::MethodBuilder) {
        f.ld_arg(0);
        f.ldc_i4(8);
        f.bin(BinOp::Mul);
        f.ret();
    }

    #[test]
    fn strength_reduction_turns_const_mul_into_shift() {
        // CLR reduces ×8 to <<3; IBM (no SR) keeps the multiply.
        let (clr, _) = rir_for(VmProfile::clr11(), const_times_eight);
        assert!(clr.contains("shl"), "{clr}");
        let (ibm, _) = rir_for(VmProfile::jvm_ibm131(), const_times_eight);
        assert!(!ibm.contains("shl"), "{ibm}");
        assert!(ibm.contains("mul"), "{ibm}");
    }

    #[test]
    fn imm_fusion_is_ibm_only() {
        let add_const = |f: &mut hpcnet_cil::MethodBuilder| {
            f.ld_arg(0);
            f.ldc_i4(7);
            f.bin(BinOp::Add);
            f.ret();
        };
        let (ibm, _) = rir_for(VmProfile::jvm_ibm131(), add_const);
        assert!(ibm.contains("#0x7"), "IBM should fuse the constant:\n{ibm}");
        let (mono, _) = rir_for(VmProfile::mono023(), add_const);
        assert!(
            !mono.lines().any(|l| l.contains("add") && l.contains('#')),
            "Mono must not fuse immediates:\n{mono}"
        );
    }

    #[test]
    fn dce_erases_stack_shuffles_on_optimizing_tiers() {
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            let x = f.local(CilType::I4);
            f.ld_arg(0);
            f.st_loc(x);
            f.ld_loc(x);
            f.ld_loc(x);
            f.bin(BinOp::Add);
            f.ret();
        };
        let (_, clr) = rir_for(VmProfile::clr11(), body);
        let (_, mono) = rir_for(VmProfile::mono023(), body);
        assert!(clr.len() < mono.len(), "CLR {} vs Mono {}", clr.len(), mono.len());
        // Neither contains nops after compaction.
        assert!(!clr.iter().any(|i| matches!(i, RInst::Nop)));
        assert!(!mono.iter().any(|i| matches!(i, RInst::Nop)));
    }

    #[test]
    fn constant_folding_collapses_pure_subexpressions() {
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            // return n + (6 * 7 - 2);
            f.ld_arg(0);
            f.ldc_i4(6);
            f.ldc_i4(7);
            f.bin(BinOp::Mul);
            f.ldc_i4(2);
            f.bin(BinOp::Sub);
            f.bin(BinOp::Add);
            f.ret();
        };
        let (text, code) = rir_for(VmProfile::jvm_ibm131(), body);
        // The folded 40 appears as an immediate; no mul/sub survives.
        assert!(text.contains("#0x28"), "{text}");
        assert!(
            !code.iter().any(|i| matches!(i, RInst::Bin { op: BinOp::Mul | BinOp::Sub, .. })),
            "{text}"
        );
    }

    #[test]
    fn enregistration_cap_forces_spills() {
        // 40 live locals under a cap of 24 (Sun) must produce spill slots;
        // under 64 (CLR) none.
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            let locals: Vec<u16> = (0..40).map(|_| f.local(CilType::I4)).collect();
            for (k, &l) in locals.iter().enumerate() {
                f.ld_arg(0);
                f.ldc_i4(k as i32);
                f.bin(BinOp::Add);
                f.st_loc(l);
            }
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_arg(0);
            f.ldc_i4(0);
            f.br_cmp(CmpOp::Le, exit);
            // keep everything live across the loop
            for &l in &locals {
                f.ld_loc(l);
                f.ldc_i4(1);
                f.bin(BinOp::Add);
                f.st_loc(l);
            }
            f.ld_arg(0);
            f.ldc_i4(1);
            f.bin(BinOp::Sub);
            f.st_arg(0);
            f.br(head);
            f.place(exit);
            f.ld_loc(locals[39]);
            f.ret();
        };
        let (sun, _) = rir_for(VmProfile::jvm_sun14(), body);
        assert!(sun.contains("[psp"), "Sun's 24-reg cap must spill:\n{sun}");
        let (clr, _) = rir_for(VmProfile::clr11(), body);
        assert!(!clr.contains("[psp"), "CLR's 64-reg cap fits 40 locals:\n{clr}");
    }

    // -- loop-aware tier --------------------------------------------------

    /// `int s = 0; for (int j = 0; j < a.Length; j++) s += a[j];` over a
    /// freshly allocated `int[n]`.
    fn sum_over_length_loop(f: &mut hpcnet_cil::MethodBuilder) {
        use hpcnet_cil::{ElemKind, Op};
        let arr = f.local(CilType::Array(Box::new(CilType::I4)));
        let s = f.local(CilType::I4);
        let j = f.local(CilType::I4);
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(j);
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.ld_loc(j);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.br_cmp(CmpOp::Ge, exit);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(j);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(j);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(j);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
    }

    #[test]
    fn abce_unchecks_length_guarded_access() {
        let (clr, _, vm) = rir_and_vm(VmProfile::clr11(), sum_over_length_loop);
        assert!(clr.contains(".nobound"), "CLR must drop the in-range check:\n{clr}");
        assert!(
            vm.counters.bounds_checks_eliminated.load(std::sync::atomic::Ordering::Relaxed) > 0
        );
        assert!(vm.counters.loops_found.load(std::sync::atomic::Ordering::Relaxed) > 0);

        let (mono, _, vm) = rir_and_vm(VmProfile::mono023(), sum_over_length_loop);
        assert!(!mono.contains(".nobound"), "Mono has no ABCE:\n{mono}");
        assert_eq!(
            vm.counters.bounds_checks_eliminated.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    /// Same loop, but the hoisted bound local is decremented inside the
    /// body: `int len = a.Length; for (j = 0; j < len; j++) { s += a[j];
    /// len = len - 1; }`. The bound is no longer the array's length on
    /// every iteration, so ABCE must leave the check in place.
    fn mutated_bound_loop(f: &mut hpcnet_cil::MethodBuilder) {
        use hpcnet_cil::{ElemKind, Op};
        let arr = f.local(CilType::Array(Box::new(CilType::I4)));
        let len = f.local(CilType::I4);
        let s = f.local(CilType::I4);
        let j = f.local(CilType::I4);
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.st_loc(len);
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(j);
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.ld_loc(j);
        f.ld_loc(len);
        f.br_cmp(CmpOp::Ge, exit);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(j);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(len);
        f.ldc_i4(1);
        f.bin(BinOp::Sub);
        f.st_loc(len);
        f.ld_loc(j);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(j);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
    }

    #[test]
    fn abce_keeps_checks_when_bound_is_mutated() {
        let (clr, _, vm) = rir_and_vm(VmProfile::clr11(), mutated_bound_loop);
        assert!(!clr.contains(".nobound"), "mutated bound must stay checked:\n{clr}");
        assert_eq!(
            vm.counters.bounds_checks_eliminated.load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    /// The single-definition `int len = a.Length;` idiom (no mutation)
    /// must be recognized through the global fact.
    fn hoisted_len_loop(f: &mut hpcnet_cil::MethodBuilder) {
        use hpcnet_cil::{ElemKind, Op};
        let arr = f.local(CilType::Array(Box::new(CilType::I4)));
        let len = f.local(CilType::I4);
        let s = f.local(CilType::I4);
        let j = f.local(CilType::I4);
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.st_loc(len);
        f.ldc_i4(0);
        f.st_loc(s);
        f.ldc_i4(0);
        f.st_loc(j);
        let head = f.new_label();
        let exit = f.new_label();
        f.place(head);
        f.ld_loc(j);
        f.ld_loc(len);
        f.br_cmp(CmpOp::Ge, exit);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(j);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(j);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(j);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
    }

    #[test]
    fn abce_sees_through_hoisted_length_local() {
        let (clr, _, _) = rir_and_vm(VmProfile::clr11(), hoisted_len_loop);
        assert!(clr.contains(".nobound"), "single-def len local is the array length:\n{clr}");
    }

    #[test]
    fn licm_hoists_invariant_multiply() {
        // for (j = 0; j < n; j++) s += n * 3;  — the multiply is invariant.
        let body = |f: &mut hpcnet_cil::MethodBuilder| {
            let s = f.local(CilType::I4);
            let j = f.local(CilType::I4);
            f.ldc_i4(0);
            f.st_loc(s);
            f.ldc_i4(0);
            f.st_loc(j);
            let head = f.new_label();
            let exit = f.new_label();
            f.place(head);
            f.ld_loc(j);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(s);
            f.ld_arg(0);
            f.ldc_i4(3);
            f.bin(BinOp::Mul);
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(j);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(j);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
        };
        let (clr, _, vm) = rir_and_vm(VmProfile::clr11(), body);
        assert!(
            vm.counters.licm_hoisted.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "CLR should hoist n*3 out of the loop:\n{clr}"
        );
        let (_, _, vm) = rir_and_vm(VmProfile::mono023(), body);
        assert_eq!(vm.counters.licm_hoisted.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    /// Loop-rejection reasons a traced VM reported, in event order.
    fn rejection_reasons(vm: &Vm) -> Vec<&'static str> {
        use crate::observe::Event;
        let events = vm.observe_report().unwrap().events;
        events
            .iter()
            .filter_map(|e| match e {
                Event::LoopRejected { reason, .. } => Some(reason.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Loop-rejection reasons the trace reports for `P.F` under CLR 1.1.
    fn loop_rejections(build: impl FnOnce(&mut hpcnet_cil::MethodBuilder)) -> Vec<&'static str> {
        use crate::observe::ObserveLevel;
        let (_, _, vm) = rir_and_vm(VmProfile::clr11().with_observe(ObserveLevel::Trace), build);
        rejection_reasons(&vm)
    }

    /// `for (i = 0; i < a.Length; i++) { try { s++; } catch/finally { … }
    /// s += a[i]; }` under CLR 1.1 at trace level: the element accesses'
    /// bounds modes, the loop-rejection reasons, and `F(5)`.
    fn eh_loop(catch: bool) -> (Vec<crate::rir::BoundsMode>, Vec<&'static str>, i32) {
        use crate::observe::ObserveLevel;
        use hpcnet_cil::{ElemKind, Op};
        use hpcnet_runtime::Value;
        let mut mb = ModuleBuilder::new();
        declare_prelude(&mut mb);
        let exc = mb.class_id("Exception").unwrap();
        let c = mb.declare_class("P", None);
        let mut f = mb.method(c, "F", vec![CilType::I4], CilType::I4, MethodKind::Static);
        let arr = f.local(CilType::Array(Box::new(CilType::I4)));
        let s = f.local(CilType::I4);
        let i = f.local(CilType::I4);
        let (head, exit, after) = (f.new_label(), f.new_label(), f.new_label());
        let (ts, te, hs, he) = (f.new_label(), f.new_label(), f.new_label(), f.new_label());
        let bump = |f: &mut hpcnet_cil::MethodBuilder| {
            f.ld_loc(s);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(s);
        };
        f.ld_arg(0);
        f.emit(Op::NewArr(ElemKind::I4));
        f.st_loc(arr);
        f.place(head);
        f.ld_loc(i);
        f.ld_loc(arr);
        f.emit(Op::LdLen);
        f.br_cmp(CmpOp::Ge, exit);
        f.place(ts);
        bump(&mut f);
        f.leave(after);
        f.place(te);
        f.place(hs);
        if catch {
            f.emit(Op::Pop);
            f.leave(after);
        } else {
            bump(&mut f);
            f.emit(Op::EndFinally);
        }
        f.place(he);
        f.place(after);
        f.ld_loc(s);
        f.ld_loc(arr);
        f.ld_loc(i);
        f.emit(Op::LdElem(ElemKind::I4));
        f.bin(BinOp::Add);
        f.st_loc(s);
        f.ld_loc(i);
        f.ldc_i4(1);
        f.bin(BinOp::Add);
        f.st_loc(i);
        f.br(head);
        f.place(exit);
        f.ld_loc(s);
        f.ret();
        if catch {
            f.eh_catch(ts, te, hs, he, exc);
        } else {
            f.eh_finally(ts, te, hs, he);
        }
        f.finish();
        let vm = Vm::new(
            mb.finish(),
            VmProfile::clr11().with_observe(ObserveLevel::Trace),
        )
        .unwrap();
        let id = vm.module.find_method("P.F").unwrap();
        let modes = vm
            .compiled(id)
            .unwrap()
            .rir
            .code
            .iter()
            .filter_map(|inst| match inst {
                RInst::LdElem { bounds, .. } => Some(*bounds),
                _ => None,
            })
            .collect();
        let r = vm
            .invoke_by_name("P.F", vec![Value::I4(5)])
            .unwrap()
            .unwrap();
        (modes, rejection_reasons(&vm), r.as_i4())
    }

    /// A loop that overlaps an EH region is skipped by range analysis and
    /// versioning, so only the structural matcher can drop the check on
    /// the access after the handler.
    #[test]
    fn structural_matcher_covers_loops_that_overlap_eh() {
        use crate::rir::BoundsMode;
        let (modes, reasons, r) = eh_loop(false);
        assert_eq!(modes, [BoundsMode::ElidedIdiom]);
        assert_eq!(reasons, ["overlaps-eh"]);
        assert_eq!(r, 10);
        // A catch handler that leaves back into the body is an extra
        // entry the normal-flow CFG cannot see past, so no natural loop
        // (and no rejection) is found; the matcher still elides.
        let (modes, _, r) = eh_loop(true);
        assert_eq!(modes, [BoundsMode::ElidedIdiom]);
        assert_eq!(r, 5);
    }

    #[test]
    fn range_pass_reports_why_a_loop_kept_its_checks() {
        // A clean length-guarded loop certifies its access: no rejection.
        assert!(loop_rejections(sum_over_length_loop).is_empty());
        // `j < n` bounds no array length.
        let unbounded = |f: &mut hpcnet_cil::MethodBuilder| {
            let s = f.local(CilType::I4);
            let j = f.local(CilType::I4);
            let (head, exit) = (f.new_label(), f.new_label());
            f.place(head);
            f.ld_loc(j);
            f.ld_arg(0);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(s);
            f.ld_loc(j);
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(j);
            f.ldc_i4(1);
            f.bin(BinOp::Add);
            f.st_loc(j);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
        };
        assert_eq!(loop_rejections(unbounded), ["guard-shape"]);
        // `j < a.Length; j = j + n` — a step that is not a constant.
        let strided = |f: &mut hpcnet_cil::MethodBuilder| {
            use hpcnet_cil::{ElemKind, Op};
            let arr = f.local(CilType::Array(Box::new(CilType::I4)));
            let s = f.local(CilType::I4);
            let j = f.local(CilType::I4);
            let (head, exit) = (f.new_label(), f.new_label());
            f.ld_arg(0);
            f.emit(Op::NewArr(ElemKind::I4));
            f.st_loc(arr);
            f.place(head);
            f.ld_loc(j);
            f.ld_loc(arr);
            f.emit(Op::LdLen);
            f.br_cmp(CmpOp::Ge, exit);
            f.ld_loc(s);
            f.ld_loc(arr);
            f.ld_loc(j);
            f.emit(Op::LdElem(ElemKind::I4));
            f.bin(BinOp::Add);
            f.st_loc(s);
            f.ld_loc(j);
            f.ld_arg(0);
            f.bin(BinOp::Add);
            f.st_loc(j);
            f.br(head);
            f.place(exit);
            f.ld_loc(s);
            f.ret();
        };
        assert_eq!(loop_rejections(strided), ["index-step"]);
    }
}
