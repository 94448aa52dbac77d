//! Symbolic range ABCE and guarded loop versioning — the loop half of the
//! `bce` knob (the structural matcher in [`crate::rir::opt`] is the other).
//!
//! * **Range ABCE** ([`range_abce`]): per-loop symbolic intervals for the
//!   induction variable prove indices in bounds — the counted-loop idiom
//!   `arr[i]` under `i < arr.Length` (labelled `BoundsMode::ElidedIdiom`),
//!   and *derived* indices labelled `BoundsMode::ElidedRange`: `arr[i+k]`
//!   and `arr[i-k]` once the guard bounds `i` below the length with enough
//!   slack, and triangular nests (`for j < i` under `for i < arr.Length`)
//!   by chaining the inner bound through the outer loop's supremum. Every
//!   elision carries a [`CertKind::Loop`] certificate recording the
//!   interval facts, and the pass reports why each loop that kept all its
//!   checks did (the `LoopRejected` trace).
//! * **Loop versioning** ([`version_loops`]): loops whose guard bound is
//!   *not* statically tied to an array length (SparseMatMul's row-pointer
//!   bounds, LU's dimension argument) get a check-free clone selected by
//!   an up-front guard — null tests, `ivar >= 0` at entry, and
//!   `bound <= arr.Length` per array. The guard falls back to the
//!   original, fully checked loop whenever any test fails, so the clone
//!   runs only under the exact dynamic facts its
//!   [`CertKind::Versioned`] certificates cite.
//!
//! Both passes are *oracle-filtered*: candidate derivation here is
//! written independently of [`crate::rir::audit`], and every proposed
//! transformation is trial-committed — applied, re-verified with
//! [`audit::check`], and reverted if the independent checker rejects it.
//! A disagreement between this pass and the checker therefore degrades
//! to a missed optimization, never to an unsound elision or an
//! audit-time hard failure.

use crate::observe::{JitOutcome, LoopRejectReason};
use crate::rir::audit::{self, CertKind, ElisionCert};
use crate::rir::loops::{Cfg, NaturalLoop};
use crate::rir::lower::Lowered;
use crate::rir::opt::{collect_loop_facts, commit_certified, def_p, def_r, DefKind, LoopFacts};
use crate::rir::{BoundsMode, Operand, RInst};
use hpcnet_cil::{BinOp, CmpOp, NumTy};
use std::collections::HashSet;

/// Largest loop region (in instructions) versioning will clone; beyond
/// this the code-size cost outweighs the per-iteration check savings.
const MAX_CLONE_INSTS: usize = 48;

/// Most distinct arrays one versioning guard will test.
const MAX_GUARD_ARRAYS: usize = 4;

// ---------------------------------------------------------------------------
// Shared guard/induction analysis (independent of the audit checker).
// ---------------------------------------------------------------------------

/// A loop-header guard normalized to "stay while `ivar < bound`" (or
/// `<=` when not strict).
struct GuardInfo {
    /// Header terminator pc.
    term: usize,
    /// Induction slot, copies resolved.
    ivar: u16,
    /// Bound operand exactly as written in the `BrCmp` (the versioning
    /// guard must re-test the *raw* slot the clone's header reads).
    raw_bound: Operand,
    strict: bool,
    /// `(array origin, via_global_chain)` when the bound operand holds
    /// that array's length.
    len_bound: Option<(u16, bool)>,
    /// Resolved bound slot, when the bound is a slot.
    bound_res: Option<u16>,
}

fn guard_info(l: &Lowered, cfg: &Cfg, facts: &LoopFacts, lp: &NaturalLoop) -> Option<GuardInfo> {
    let (_, he) = cfg.ranges[lp.header];
    let term = he - 1;
    let g = facts.guard.get(&term)?;
    let RInst::BrCmp { a, b, t, .. } = l.code[term] else {
        return None;
    };
    let tgt_in = lp.body.contains(&cfg.block_of(t));
    let fall_in = he < l.code.len() && lp.body.contains(&cfg.block_of(he as u32));
    if tgt_in == fall_in {
        return None;
    }
    // The predicate that holds on the edge staying in the loop.
    let stay = if fall_in { g.op.negate() } else { g.op };
    match stay {
        CmpOp::Lt | CmpOp::Le => Some(GuardInfo {
            term,
            ivar: g.a,
            raw_bound: b,
            strict: stay == CmpOp::Lt,
            len_bound: g.b_len,
            bound_res: g.b,
        }),
        CmpOp::Gt | CmpOp::Ge => Some(GuardInfo {
            term,
            ivar: g.b?,
            raw_bound: Operand::Slot(a),
            strict: stay == CmpOp::Gt,
            len_bound: g.a_len,
            bound_res: Some(g.a),
        }),
        _ => None,
    }
}

/// Are all in-loop definitions of `v` positive constant increments?
fn increments_only(
    l: &Lowered,
    cfg: &Cfg,
    facts: &LoopFacts,
    lp: &NaturalLoop,
    v: u16,
) -> bool {
    lp.body.iter().all(|&b| {
        let (s, e) = cfg.ranges[b];
        (s..e).all(|pc| {
            def_p(&l.code[pc]) != Some(v)
                || matches!(facts.defs.get(&pc), Some(DefKind::Increment))
        })
    })
}

/// In-loop definition pcs of `v`.
fn loop_defs(l: &Lowered, cfg: &Cfg, lp: &NaturalLoop, v: u16) -> Vec<usize> {
    let mut out = Vec::new();
    for &b in &lp.body {
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            if def_p(&l.code[pc]) == Some(v) {
                out.push(pc);
            }
        }
    }
    out
}

/// Everything downstream of an increment without re-passing the header
/// guard — the region the guard's bound no longer covers.
fn post_region(
    cfg: &Cfg,
    lp: &NaturalLoop,
    inc_pcs: &[usize],
) -> (HashSet<usize>, HashSet<usize>) {
    let mut post_pcs: HashSet<usize> = HashSet::new();
    let mut post_blocks: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = Vec::new();
    for &ipc in inc_pcs {
        let b = cfg.block_of(ipc as u32);
        post_pcs.extend(ipc + 1..cfg.ranges[b].1);
        stack.extend(
            cfg.succs[b]
                .iter()
                .copied()
                .filter(|s| lp.body.contains(s) && *s != lp.header),
        );
    }
    while let Some(b) = stack.pop() {
        if post_blocks.insert(b) {
            stack.extend(
                cfg.succs[b]
                    .iter()
                    .copied()
                    .filter(|s| lp.body.contains(s) && *s != lp.header),
            );
        }
    }
    (post_pcs, post_blocks)
}

/// Block-local constant value of an operand before `at`, following move
/// chains back to a `ConstP`.
fn const_local(l: &Lowered, bs: usize, at: usize, o: &Operand) -> Option<i64> {
    match o {
        Operand::Imm(v) => Some(*v as u32 as i32 as i64),
        Operand::Slot(s) => {
            let mut cur = *s;
            let mut at = at;
            for _ in 0..16 {
                let d = (bs..at)
                    .rev()
                    .find(|&j| def_p(&l.code[j]) == Some(cur))?;
                match &l.code[d] {
                    RInst::ConstP { bits, .. } => return Some(*bits as u32 as i32 as i64),
                    RInst::MovP { src, .. } => {
                        cur = *src;
                        at = d;
                    }
                    _ => return None,
                }
            }
            None
        }
    }
}

/// Resolve `slot` at `pc` (same block) to `root + k`, walking backward
/// through moves and constant add/sub; `root` must stay unredefined
/// between the rooted read and `pc`.
fn affine_to(l: &Lowered, cfg: &Cfg, pc: usize, slot: u16, root: u16) -> Option<i64> {
    let bs = cfg.ranges[cfg.block_of(pc as u32)].0;
    let mut cur = slot;
    let mut k: i64 = 0;
    let mut at = pc;
    for _ in 0..16 {
        if cur == root {
            if (at..pc).any(|j| def_p(&l.code[j]) == Some(root)) {
                return None;
            }
            return Some(k);
        }
        let d = (bs..at)
            .rev()
            .find(|&j| def_p(&l.code[j]) == Some(cur))?;
        match &l.code[d] {
            RInst::MovP { src, .. } => cur = *src,
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                k = k.checked_add(const_local(l, bs, d, b)?)?;
                cur = *a;
            }
            RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                k = k.checked_sub(const_local(l, bs, d, b)?)?;
                cur = *a;
            }
            _ => return None,
        }
        at = d;
    }
    None
}

/// Supremum offset the header guard enforces for the loop's induction
/// variable relative to `len(arr)`: `ivar <= len(arr) + ret` on every
/// covered path. Direct length bounds and triangular chains through an
/// enclosing counted loop are recognized.
fn sup_of(
    l: &Lowered,
    cfg: &Cfg,
    facts: &LoopFacts,
    loops: &[NaturalLoop],
    lp: &NaturalLoop,
    arr: u16,
    depth: u8,
) -> Option<i64> {
    let gi = guard_info(l, cfg, facts, lp)?;
    let adj = if gi.strict { -1 } else { 0 };
    if let Some((a, _)) = gi.len_bound {
        return if a == arr { Some(adj) } else { None };
    }
    if depth == 0 {
        return None;
    }
    // Triangular: the bound is an enclosing loop's counted induction
    // variable, itself guarded below the array length.
    let bs = gi.bound_res?;
    for olp in loops {
        if olp.header == lp.header || !olp.clean || !lp.body.is_subset(&olp.body) {
            continue;
        }
        let Some(ogi) = guard_info(l, cfg, facts, olp) else {
            continue;
        };
        if ogi.ivar != bs || !increments_only(l, cfg, facts, olp, bs) {
            continue;
        }
        if let Some(os) = sup_of(l, cfg, facts, loops, olp, arr, depth - 1) {
            return Some(os + adj);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Range ABCE.
// ---------------------------------------------------------------------------

/// Elide checks on accesses proven in `[0, len)` by the loop's symbolic
/// interval, adding the idiom and range counts to `outcome`. Every removal
/// carries a [`CertKind::Loop`] certificate already accepted by the
/// independent checker. A certificate of the counted-loop idiom's shape —
/// index exactly the induction variable (`offset` 0, `entry_lo` 0) under
/// a direct strict length guard (`sup_off` −1) — is labelled
/// [`BoundsMode::ElidedIdiom`]; every other one `ElidedRange`.
///
/// Returns the loops that kept all their checks, each with the first
/// loop-level disqualifier found (the `LoopRejected` trace).
pub(crate) fn range_abce(
    l: &mut Lowered,
    cfg: &Cfg,
    loops: &[NaturalLoop],
    outcome: &mut JitOutcome,
) -> Vec<(u32, LoopRejectReason)> {
    let facts = collect_loop_facts(l);
    let gates: Vec<Result<GuardInfo, LoopRejectReason>> = loops
        .iter()
        .map(|lp| loop_guard(l, cfg, &facts, lp))
        .collect();
    let mut cands: Vec<(usize, ElisionCert)> = Vec::new();
    for (li, (lp, gate)) in loops.iter().zip(&gates).enumerate() {
        let Ok(gi) = gate else { continue };
        for &b in &lp.body {
            if b == lp.header {
                continue;
            }
            let (s, e) = cfg.ranges[b];
            for pc in s..e {
                let idx_raw = match &l.code[pc] {
                    RInst::LdElem { idx, bounds, .. } | RInst::StElem { idx, bounds, .. }
                        if bounds.is_checked() =>
                    {
                        *idx
                    }
                    _ => continue,
                };
                let Some(&(_, aorigin)) = facts.access.get(&pc) else {
                    continue;
                };
                let Some(k) = affine_to(l, cfg, pc, idx_raw, gi.ivar) else {
                    continue;
                };
                let Some(sup_off) = sup_of(l, cfg, &facts, loops, lp, aorigin, 3) else {
                    continue;
                };
                // Interval: [entry_lo + k, len + sup_off + k] ⊆ [0, len).
                // The smallest sufficient entry bound is claimed; the
                // checker verifies the actual entry constants reach it.
                let entry_lo = if k < 0 { -k } else { 0 };
                if sup_off + k > -1 {
                    continue;
                }
                let direct = gi.len_bound.is_some_and(|(a, _)| a == aorigin);
                let mechanism = if k == 0 && sup_off == -1 && direct {
                    BoundsMode::ElidedIdiom
                } else {
                    BoundsMode::ElidedRange
                };
                cands.push((
                    li,
                    ElisionCert {
                        pc: pc as u32,
                        mechanism,
                        kind: CertKind::Loop {
                            guard_pc: gi.term as u32,
                            ivar: gi.ivar,
                            offset: k,
                            entry_lo,
                            sup_arr: aorigin,
                            sup_off,
                        },
                    },
                ));
            }
        }
    }
    // A nested loop may propose a pc twice; the first proposal the
    // checker accepts wins.
    let (owners, cands): (Vec<usize>, Vec<ElisionCert>) = cands.into_iter().unzip();
    let base = l.certs.len();
    let won: HashSet<usize> = commit_certified(l, cands)
        .into_iter()
        .map(|i| owners[i])
        .collect();
    for cert in &l.certs[base..] {
        if cert.mechanism == BoundsMode::ElidedIdiom {
            outcome.idiom_removed += 1;
        } else {
            outcome.range_removed += 1;
        }
    }
    let l = &*l;
    loops
        .iter()
        .zip(gates)
        .enumerate()
        .filter_map(|(li, (lp, gate))| {
            let reason = match gate {
                Err(reason) => Some(reason),
                Ok(gi) if !won.contains(&li) => uncertified_reason(l, cfg, &facts, lp, &gi),
                Ok(_) => None,
            };
            reason.map(|r| (cfg.ranges[lp.header].0 as u32, r))
        })
        .collect()
}

/// The loop-level gate of [`range_abce`]: a clean loop whose header guard
/// bounds an induction variable that only steps up by constants.
fn loop_guard(
    l: &Lowered,
    cfg: &Cfg,
    facts: &LoopFacts,
    lp: &NaturalLoop,
) -> Result<GuardInfo, LoopRejectReason> {
    if !lp.clean {
        return Err(LoopRejectReason::OverlapsEh);
    }
    if !facts.guard.contains_key(&(cfg.ranges[lp.header].1 - 1)) {
        return Err(LoopRejectReason::NoHeaderGuard);
    }
    let gi = guard_info(l, cfg, facts, lp).ok_or(LoopRejectReason::GuardShape)?;
    if !increments_only(l, cfg, facts, lp, gi.ivar) {
        return Err(LoopRejectReason::IndexStep);
    }
    Ok(gi)
}

/// Why a loop that passed [`loop_guard`] still certified nothing: the
/// first loop-level fact a length-guard certificate needs that does not
/// hold, or `None` when the loop simply has no matching access.
fn uncertified_reason(
    l: &Lowered,
    cfg: &Cfg,
    facts: &LoopFacts,
    lp: &NaturalLoop,
    gi: &GuardInfo,
) -> Option<LoopRejectReason> {
    let (Some((arr, global)), true) = (gi.len_bound, gi.strict) else {
        return Some(LoopRejectReason::GuardShape);
    };
    if global
        && gi
            .bound_res
            .is_some_and(|b| !loop_defs(l, cfg, lp, b).is_empty())
    {
        return Some(LoopRejectReason::BoundMutated);
    }
    let arr_written = lp.body.iter().any(|&b| {
        let (s, e) = cfg.ranges[b];
        (s..e).any(|pc| def_r(&l.code[pc]) == Some(arr))
    });
    if arr_written {
        return Some(LoopRejectReason::ArrayMutated);
    }
    // Every edge entering the header from outside carries a known
    // non-negative constant for the induction variable.
    let mut entries = cfg.preds[lp.header]
        .iter()
        .filter(|p| !lp.body.contains(p))
        .peekable();
    let entry_known = entries.peek().is_some()
        && entries.all(|&p| {
            facts
                .end_consts
                .get(&cfg.heads[p])
                .and_then(|m| m.get(&gi.ivar))
                .is_some_and(|&v| v as u32 as i32 >= 0)
        });
    if !entry_known {
        return Some(LoopRejectReason::EntryUnknown);
    }
    None
}

// ---------------------------------------------------------------------------
// Guarded loop versioning.
// ---------------------------------------------------------------------------

/// One loop's versioning plan, pinned to pre-transformation pcs.
struct Plan {
    /// Contiguous loop region `[hs, hi)`, header first.
    hs: usize,
    hi: usize,
    /// Header terminator pc.
    term: usize,
    ivar: u16,
    /// Raw bound operand from the header compare, re-tested by the guard.
    bound: Operand,
    /// Distinct array origins the guard length-tests, in first-use order.
    arrs: Vec<u16>,
    /// `(access pc, array origin)` for every check the clone drops.
    accesses: Vec<(usize, u16)>,
}

/// Clone almost-provable loops behind an up-front guard and drop the
/// clone's checks. Returns `(checks removed, loops versioned)`; each
/// applied transformation has already passed the independent checker.
pub(crate) fn version_loops(
    l: &mut Lowered,
    cfg: &Cfg,
    loops: &[NaturalLoop],
) -> (u64, u64) {
    if l.code.is_empty() {
        return (0, 0);
    }
    let facts = collect_loop_facts(l);
    let mut plans: Vec<Plan> = Vec::new();
    for lp in loops {
        if let Some(p) = plan_version(l, cfg, &facts, lp) {
            plans.push(p);
        }
    }
    // Innermost (highest header pc) first: applying a transformation only
    // moves code at or above its own region, so every lower-pc plan's
    // pcs stay valid. Overlapping regions (nests) are first-come.
    plans.sort_by(|a, b| b.hs.cmp(&a.hs));
    let mut applied: Vec<(usize, usize)> = Vec::new();
    let mut removed = 0u64;
    let mut versioned = 0u64;
    for p in plans {
        if applied.iter().any(|&(s, e)| p.hs < e && s < p.hi) {
            continue;
        }
        let mut trial = l.clone();
        apply_version(&mut trial, &p);
        if audit::check(&trial).is_ok() {
            *l = trial;
            removed += p.accesses.len() as u64;
            versioned += 1;
            applied.push((p.hs, p.hi));
        }
    }
    (removed, versioned)
}

/// Real (non-`ConstNull`) definition count of a reference slot.
fn real_r_count(l: &Lowered, v: u16) -> usize {
    l.code
        .iter()
        .filter(|i| def_r(i) == Some(v) && !matches!(i, RInst::ConstNull { .. }))
        .count()
}

fn plan_version(
    l: &Lowered,
    cfg: &Cfg,
    facts: &LoopFacts,
    lp: &NaturalLoop,
) -> Option<Plan> {
    if !lp.clean {
        return None;
    }
    let gi = guard_info(l, cfg, facts, lp)?;
    // The clone keeps the original guard, so it must already be a strict
    // upper bound for `bound <= len` to imply `ivar < len`.
    if !gi.strict {
        return None;
    }
    // Contiguous region with the header first; the last instruction must
    // not fall through (the clone is appended at the end of the body).
    let mut hs = usize::MAX;
    let mut hi = 0usize;
    let mut size = 0usize;
    for &b in &lp.body {
        let (s, e) = cfg.ranges[b];
        hs = hs.min(s);
        hi = hi.max(e);
        size += e - s;
    }
    if hi - hs != size || cfg.ranges[lp.header].0 != hs || hi - hs > MAX_CLONE_INSTS {
        return None;
    }
    if !matches!(
        l.code[hi - 1],
        RInst::Br { .. } | RInst::Ret { .. } | RInst::Throw { .. }
    ) {
        return None;
    }
    // The guard re-reads the bound before entry, so it must be loop-
    // invariant (raw and resolved forms both).
    if let Operand::Slot(bs) = gi.raw_bound {
        if !loop_defs(l, cfg, lp, bs).is_empty() {
            return None;
        }
    }
    if let Some(br) = gi.bound_res {
        if !loop_defs(l, cfg, lp, br).is_empty() {
            return None;
        }
    }
    let inc_pcs = loop_defs(l, cfg, lp, gi.ivar);
    if inc_pcs.is_empty() || !increments_only(l, cfg, facts, lp, gi.ivar) {
        return None;
    }
    let (post_pcs, post_blocks) = post_region(cfg, lp, &inc_pcs);
    let mut arrs: Vec<u16> = Vec::new();
    let mut accesses: Vec<(usize, u16)> = Vec::new();
    for &b in &lp.body {
        if b == lp.header || post_blocks.contains(&b) {
            continue;
        }
        let (s, e) = cfg.ranges[b];
        for pc in s..e {
            if post_pcs.contains(&pc) {
                continue;
            }
            let idx_raw = match &l.code[pc] {
                RInst::LdElem { idx, bounds, .. } | RInst::StElem { idx, bounds, .. }
                    if bounds.is_checked() =>
                {
                    *idx
                }
                _ => continue,
            };
            let Some(&(_, aorigin)) = facts.access.get(&pc) else {
                continue;
            };
            if affine_to(l, cfg, pc, idx_raw, gi.ivar) != Some(0) {
                continue;
            }
            // The guard's one length test must stay valid for the whole
            // clone: single-definition array, never written in the loop.
            if real_r_count(l, aorigin) > 1 {
                continue;
            }
            if (hs..hi).any(|p| {
                def_r(&l.code[p]) == Some(aorigin)
                    && !matches!(l.code[p], RInst::ConstNull { .. })
            }) {
                continue;
            }
            if !arrs.contains(&aorigin) {
                if arrs.len() == MAX_GUARD_ARRAYS {
                    continue;
                }
                arrs.push(aorigin);
            }
            accesses.push((pc, aorigin));
        }
    }
    if accesses.is_empty() {
        return None;
    }
    // Fresh-register headroom (2 primitive temps per array, 1 null ref).
    if l.n_pvreg as u32 + 2 * arrs.len() as u32 >= 0x4000
        || l.n_rvreg as u32 + 1 >= 0x4000
    {
        return None;
    }
    Some(Plan {
        hs,
        hi,
        term: gi.term,
        ivar: gi.ivar,
        bound: gi.raw_bound,
        arrs,
        accesses,
    })
}

/// Rewrite `l` per the plan:
///
/// ```text
///   [0, hs)            unchanged prefix
///   [hs, hs+gk)        versioning guard (bails to hs+gk on any failure)
///   [hs+gk, len+gk)    original code, shifted; the checked loop survives
///                      at [hs+gk, hi+gk) as the fall-back
///   [len+gk, ..)       check-free clone of [hs, hi)
/// ```
///
/// with `gk = 3 + 4·|arrs|`. Branches into the old `hs` from outside the
/// region now enter the guard (and re-select a version); the region's own
/// back edges keep targeting the shifted original header.
fn apply_version(l: &mut Lowered, p: &Plan) {
    let m = p.arrs.len();
    let gk = 3 + 4 * m;
    let old_len = l.code.len();
    let nc = old_len + gk; // clone start == clone header
    let (hs, hi) = (p.hs, p.hi);
    let orig = (hs + gk) as u32;
    let in_region = |t: usize| t >= hs && t < hi;

    // Every original instruction — prefix included — remaps its target:
    // below the guard nothing moves, the old header becomes the guard for
    // outside entries (and the shifted header for the region's own back
    // edges), everything past the insertion point shifts by `gk`.
    let shift = |src: usize, t: usize| -> usize {
        if t < hs {
            t
        } else if t == hs {
            if in_region(src) {
                hs + gk
            } else {
                hs
            }
        } else {
            t + gk
        }
    };

    let base_p = l.n_pvreg;
    let tn = l.n_rvreg; // fresh null-reference temp
    let mut code: Vec<RInst> = Vec::with_capacity(old_len + gk + (hi - hs));
    for pc in 0..hs {
        let mut inst = l.code[pc].clone();
        if let Some(t) = inst.target() {
            inst.set_target(shift(pc, t as usize) as u32);
        }
        code.push(inst);
    }
    // Guard: null-test every array, entry lower bound, length tests.
    code.push(RInst::ConstNull { dst: tn });
    for (j, &a) in p.arrs.iter().enumerate() {
        let tz = base_p + j as u16;
        code.push(RInst::CmpRef { op: CmpOp::Eq, dst: tz, a, b: tn });
        code.push(RInst::BrCmp {
            op: CmpOp::Ne,
            ty: NumTy::I4,
            a: tz,
            b: Operand::Imm(0),
            t: orig,
        });
    }
    code.push(RInst::BrCmp {
        op: CmpOp::Lt,
        ty: NumTy::I4,
        a: p.ivar,
        b: Operand::Imm(0),
        t: orig,
    });
    for (j, &a) in p.arrs.iter().enumerate() {
        let tl = base_p + (m + j) as u16;
        code.push(RInst::LdLen { arr: a, dst: tl });
        code.push(match p.bound {
            Operand::Slot(bs) => RInst::BrCmp {
                op: CmpOp::Gt,
                ty: NumTy::I4,
                a: bs,
                b: Operand::Slot(tl),
                t: orig,
            },
            Operand::Imm(c) => RInst::BrCmp {
                op: CmpOp::Lt,
                ty: NumTy::I4,
                a: tl,
                b: Operand::Imm(c),
                t: orig,
            },
        });
    }
    code.push(RInst::Br { t: nc as u32 });
    debug_assert_eq!(code.len(), hs + gk);
    // Shifted original. A branch to the old header from inside the region
    // is a back edge and stays in the fall-back loop; one from outside
    // re-enters through the guard.
    for pc in hs..old_len {
        let mut inst = l.code[pc].clone();
        if let Some(t) = inst.target() {
            inst.set_target(shift(pc, t as usize) as u32);
        }
        code.push(inst);
    }
    debug_assert_eq!(code.len(), nc);
    // Check-free clone. Planned accesses become versioned; every other
    // elision in the clone reverts to a plain check (its certificate
    // stays with the original copy).
    for pc in hs..hi {
        let mut inst = l.code[pc].clone();
        if let RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } = &mut inst {
            *bounds = if p.accesses.iter().any(|&(apc, _)| apc == pc) {
                BoundsMode::ElidedVersioned
            } else {
                BoundsMode::Checked
            };
        }
        if let Some(t) = inst.target() {
            let t = t as usize;
            let nt = if in_region(t) {
                nc + (t - hs)
            } else if t < hs {
                t
            } else {
                t + gk
            };
            inst.set_target(nt as u32);
        }
        code.push(inst);
    }
    l.code = code;
    l.n_pvreg += 2 * m as u16;
    l.n_rvreg += 1;
    // EH ranges shift like the code (the loop itself is clean, and the
    // appended clone ends before any shifted region boundary reappears).
    let gk32 = gk as u32;
    for r in &mut l.eh {
        if r.try_start >= hs as u32 {
            r.try_start += gk32;
        }
        if r.try_end > hs as u32 {
            r.try_end += gk32;
        }
        if r.handler_start >= hs as u32 {
            r.handler_start += gk32;
        }
        if r.handler_end > hs as u32 {
            r.handler_end += gk32;
        }
    }
    for c in &mut l.certs {
        c.remap_pcs(&mut |q| if (q as usize) < hs { q } else { q + gk32 });
    }
    for &(apc, aorigin) in &p.accesses {
        let j = p.arrs.iter().position(|&a| a == aorigin).unwrap();
        l.certs.push(ElisionCert {
            pc: (nc + (apc - hs)) as u32,
            mechanism: BoundsMode::ElidedVersioned,
            kind: CertKind::Versioned {
                guard_start: hs as u32,
                guard_pc: (nc + (p.term - hs)) as u32,
                ivar: p.ivar,
                arr: aorigin,
                null_check_pc: (hs + 1 + 2 * j) as u32,
                lo_check_pc: (hs + 1 + 2 * m) as u32,
                len_check_pc: (hs + 2 + 2 * m + 2 * j) as u32,
            },
        });
    }
}
