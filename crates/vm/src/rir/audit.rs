//! Elision certificates and their independent checker.
//!
//! Every bounds-check elimination mechanism under the `bce` knob (the
//! structural idiom matcher, symbolic range analysis, guarded loop
//! versioning) records one [`ElisionCert`] per check it removes: the access pc, the
//! mechanism, and the facts justifying the elision (which guard, which
//! induction variable, the index's affine offset and derived interval).
//! Certificates live in `Lowered` and every pass that moves instructions
//! remaps their pcs alongside branch targets and EH ranges.
//!
//! `check` re-verifies each certificate against the *final* optimized
//! code with its own resolvers (separate from the pass-side fact
//! machinery): it re-finds the loop, re-classifies the induction variable's
//! definitions, re-resolves the guard's bound to an `arr.Length`-relative
//! symbol, re-derives the entry lower bound, and re-checks the interval
//! arithmetic `[entry_lo + k, len(arr) + sup_off + k] ⊆ [0, len(arr))`.
//! It also sweeps for completeness: an elided access without a matching
//! certificate (or vice versa) is an error. Profiles with `audit` set run
//! the checker on every method they compile (the conform matrix enables
//! it everywhere), so an unsound elision is a hard engine error rather
//! than a silent wrong answer.
//!
//! The checker trusts only the CFG/natural-loop utilities it shares with
//! the optimizer (`rir::loops`); all value reasoning is re-implemented
//! here. Idiom certificates verify the structural facts the era JITs
//! keyed on (zero-init monotone counter + a guard against the array
//! length); range and versioned certificates verify the full interval
//! derivation.

use crate::rir::loops::{find_loops, Cfg, NaturalLoop};
use crate::rir::lower::Lowered;
use crate::rir::opt::{def_p, def_r, leaders};
use crate::rir::{BoundsMode, Operand, RInst};
use hpcnet_cil::{BinOp, CmpOp, NumTy};
use std::collections::{HashMap, HashSet};

/// Offsets and constants beyond this magnitude are rejected outright so
/// interval arithmetic stays far away from `i32` wrap.
const K_CAP: i64 = 1 << 20;

/// One elided bounds check and the facts that justify it.
#[derive(Clone, Debug, PartialEq)]
pub struct ElisionCert {
    /// pc of the elided `LdElem`/`StElem` in the optimized
    /// (pre-allocation) code.
    pub pc: u32,
    /// Which mechanism removed the check (never `Checked`).
    pub mechanism: BoundsMode,
    pub kind: CertKind,
}

/// The mechanism-specific justification.
#[derive(Clone, Debug, PartialEq)]
pub enum CertKind {
    /// Structural idiom: `ivar` is a zero-initialized counter whose only
    /// other definitions are positive constant increments, and the method
    /// guards it against `arr`'s length at `guard_pc`.
    BlockGuard { guard_pc: u32, ivar: u16, arr: u16 },
    /// Counted loop: the access index equals `ivar + offset`; the loop
    /// header's guard at `guard_pc` keeps `ivar <= len(sup_arr) + sup_off`
    /// on every covered path, and every loop entry reaches the header with
    /// `ivar >= entry_lo`.
    Loop {
        guard_pc: u32,
        ivar: u16,
        offset: i64,
        entry_lo: i64,
        sup_arr: u16,
        sup_off: i64,
    },
    /// Check-free clone selected by the run-time guard emitted at
    /// `guard_start`: a null test on `arr` (`null_check_pc`), an entry
    /// lower-bound test `ivar >= 0` (`lo_check_pc`), and a length test
    /// `bound <= len(arr)` (`len_check_pc`), all bailing to the checked
    /// original. `guard_pc` is the clone loop's own header terminator.
    Versioned {
        guard_start: u32,
        guard_pc: u32,
        ivar: u16,
        arr: u16,
        null_check_pc: u32,
        lo_check_pc: u32,
        len_check_pc: u32,
    },
}

impl ElisionCert {
    /// Apply an instruction-position remap to every pc this certificate
    /// references (passes that insert or delete instructions call this).
    pub fn remap_pcs(&mut self, f: &mut dyn FnMut(u32) -> u32) {
        self.pc = f(self.pc);
        match &mut self.kind {
            CertKind::BlockGuard { guard_pc, .. } => *guard_pc = f(*guard_pc),
            CertKind::Loop { guard_pc, .. } => *guard_pc = f(*guard_pc),
            CertKind::Versioned {
                guard_start,
                guard_pc,
                null_check_pc,
                lo_check_pc,
                len_check_pc,
                ..
            } => {
                *guard_start = f(*guard_start);
                *guard_pc = f(*guard_pc);
                *null_check_pc = f(*null_check_pc);
                *lo_check_pc = f(*lo_check_pc);
                *len_check_pc = f(*len_check_pc);
            }
        }
    }
}

/// Global definition sites, with "real" filters matching the invariants
/// the passes rely on: entry zero-inits (`ConstP 0` / `ConstNull`) do not
/// count against single-definition reasoning.
struct Defs {
    p: HashMap<u16, Vec<usize>>,
    r: HashMap<u16, Vec<usize>>,
    real_p: HashMap<u16, Vec<usize>>,
    real_r: HashMap<u16, Vec<usize>>,
}

impl Defs {
    fn collect(l: &Lowered) -> Defs {
        let mut d = Defs {
            p: HashMap::new(),
            r: HashMap::new(),
            real_p: HashMap::new(),
            real_r: HashMap::new(),
        };
        for (i, inst) in l.code.iter().enumerate() {
            if let Some(v) = def_p(inst) {
                d.p.entry(v).or_default().push(i);
                if !matches!(inst, RInst::ConstP { bits: 0, .. }) {
                    d.real_p.entry(v).or_default().push(i);
                }
            }
            if let Some(v) = def_r(inst) {
                d.r.entry(v).or_default().push(i);
                if !matches!(inst, RInst::ConstNull { .. }) {
                    d.real_r.entry(v).or_default().push(i);
                }
            }
        }
        d
    }

    fn real_r_count(&self, v: u16) -> usize {
        self.real_r.get(&v).map_or(0, |d| d.len())
    }
}

/// Everything the per-certificate checks need.
struct Ck<'a> {
    l: &'a Lowered,
    heads: Vec<u32>,
    defs: Defs,
    cfg: Cfg,
    loops: Vec<NaturalLoop>,
}

impl<'a> Ck<'a> {
    /// Start pc of the basic block containing `pc`.
    fn block_start(&self, pc: usize) -> usize {
        match self.heads.binary_search(&(pc as u32)) {
            Ok(i) => self.heads[i] as usize,
            Err(i) => self.heads[i - 1] as usize,
        }
    }

    /// Immediate `i64` value of an operand, resolving constant slots
    /// through their last in-block definition before `at` (walking move
    /// chains, as the pass-side constant facts do).
    fn const_op(&self, block_start: usize, at: usize, o: &Operand) -> Option<i64> {
        match o {
            Operand::Imm(v) => Some(*v as u32 as i32 as i64),
            Operand::Slot(s) => {
                let mut cur = *s;
                let mut at = at;
                for _ in 0..16 {
                    let d = (block_start..at)
                        .rev()
                        .find(|&j| def_p(&self.l.code[j]) == Some(cur))?;
                    match &self.l.code[d] {
                        RInst::ConstP { bits, .. } => {
                            return Some(*bits as u32 as i32 as i64)
                        }
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

    /// Resolve `slot` at `pc` (same block) to an affine form `root + k`,
    /// walking backward through moves and constant add/sub. Returns `k`
    /// when the chain roots at `root` and `root` is not redefined between
    /// the rooted read and `pc` (so the value at `pc` really is the
    /// current `root + k`).
    fn affine_of(&self, pc: usize, slot: u16, root: u16) -> Option<i64> {
        let bs = self.block_start(pc);
        let mut cur = slot;
        let mut k: i64 = 0;
        let mut at = pc;
        for _ in 0..16 {
            if cur == root {
                if (at..pc).any(|j| def_p(&self.l.code[j]) == Some(root)) {
                    return None;
                }
                return if k.abs() <= K_CAP { Some(k) } else { None };
            }
            let d = (bs..at)
                .rev()
                .find(|&j| def_p(&self.l.code[j]) == Some(cur))?;
            match &self.l.code[d] {
                RInst::MovP { src, .. } => cur = *src,
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                    k = k.checked_add(self.const_op(bs, d, b)?)?;
                    cur = *a;
                }
                RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                    k = k.checked_sub(self.const_op(bs, d, b)?)?;
                    cur = *a;
                }
                _ => return None,
            }
            at = d;
        }
        None
    }

    /// Resolve a reference slot at `pc` (same block) through `MovR` copies
    /// to its origin, requiring the origin unredefined up to `pc`.
    fn resolve_r(&self, pc: usize, slot: u16) -> Option<u16> {
        let bs = self.block_start(pc);
        let mut cur = slot;
        let mut at = pc;
        for _ in 0..16 {
            let d = (bs..at)
                .rev()
                .find(|&j| def_r(&self.l.code[j]) == Some(cur));
            match d {
                None => {
                    if (at..pc).any(|j| def_r(&self.l.code[j]) == Some(cur)) {
                        return None;
                    }
                    return Some(cur);
                }
                Some(d) => match &self.l.code[d] {
                    RInst::MovR { src, .. } => {
                        cur = *src;
                        at = d;
                    }
                    _ => {
                        // Defined here by a non-copy: this slot is its own
                        // origin from this point on.
                        if (d + 1..pc).any(|j| def_r(&self.l.code[j]) == Some(cur) && j != d) {
                            return None;
                        }
                        return Some(cur);
                    }
                },
            }
        }
        None
    }

    /// Is `slot` provably `len(arr) + c` at `at`? Chains resolve through
    /// the last in-block definition before `at` (re-derived on every
    /// execution of that block), falling back to a global single-definition
    /// site — which, when a loop is given, must lie outside it so the
    /// global fact is loop-invariant.
    fn len_plus(
        &self,
        at: Option<usize>,
        slot: u16,
        arr: u16,
        depth: u8,
        lp: Option<&NaturalLoop>,
    ) -> Option<i64> {
        if depth == 0 || self.defs.real_r_count(arr) > 1 {
            return None;
        }
        let d = match at {
            Some(at) => {
                let bs = self.block_start(at);
                match (bs..at)
                    .rev()
                    .find(|&j| def_p(&self.l.code[j]) == Some(slot))
                {
                    Some(d) => d,
                    None => self.invariant_real_p_def(slot, lp)?,
                }
            }
            None => self.invariant_real_p_def(slot, lp)?,
        };
        let bs = self.block_start(d);
        match &self.l.code[d] {
            RInst::LdLen { arr: a, .. } => {
                // Resolve both the instruction's operand and the certified
                // slot at the same point: a cert may name a single-def slot
                // whose value was copied out of a reused temp (`MovR s, t`
                // right after `NewArr t`), in which case the chain-resolved
                // origins agree even though the raw slots differ.
                let origin = self.resolve_r(d, *a)?;
                if origin == arr || Some(origin) == self.resolve_r(d, arr) {
                    Some(0)
                } else {
                    None
                }
            }
            RInst::MovP { src, .. } => self.len_plus(Some(d), *src, arr, depth - 1, lp),
            RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                let c = self.const_op(bs, d, b)?;
                let inner = self.len_plus(Some(d), *a, arr, depth - 1, lp)?;
                let c = inner.checked_sub(c)?;
                if c.abs() <= K_CAP { Some(c) } else { None }
            }
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                let c = self.const_op(bs, d, b)?;
                let inner = self.len_plus(Some(d), *a, arr, depth - 1, lp)?;
                let c = inner.checked_add(c)?;
                if c.abs() <= K_CAP { Some(c) } else { None }
            }
            _ => None,
        }
    }

    /// Is the primitive slot an incoming argument? Argument slots carry
    /// caller-supplied values, so they are never implicitly zero.
    fn is_arg_p(&self, slot: u16) -> bool {
        self.l
            .arg_locs
            .iter()
            .any(|a| matches!(a, crate::rir::ArgSlot::P(_, s) if *s == slot))
    }

    /// The single real (non-zero-init) definition site of a primitive
    /// slot, if it has exactly one.
    fn single_real_p_def(&self, slot: u16) -> Option<usize> {
        match self.defs.real_p.get(&slot) {
            Some(d) if d.len() == 1 => Some(d[0]),
            _ => None,
        }
    }

    /// [`Self::single_real_p_def`], additionally outside the given loop
    /// (a length fact sourced from inside the loop is not invariant).
    fn invariant_real_p_def(&self, slot: u16, lp: Option<&NaturalLoop>) -> Option<usize> {
        let d = self.single_real_p_def(slot)?;
        if let Some(lp) = lp {
            if lp.body.contains(&self.cfg.block_of(d as u32)) {
                return None;
            }
        }
        Some(d)
    }

    /// In-loop definition sites of a primitive slot.
    fn loop_p_defs(&self, lp: &NaturalLoop, v: u16) -> Vec<usize> {
        let mut out = Vec::new();
        for &b in &lp.body {
            let (s, e) = self.cfg.ranges[b];
            out.extend((s..e).filter(|&pc| def_p(&self.l.code[pc]) == Some(v)));
        }
        out
    }

    /// Does the loop redefine the reference slot (ignoring zero-inits)?
    fn loop_redefines_r(&self, lp: &NaturalLoop, v: u16) -> bool {
        lp.body.iter().any(|&b| {
            let (s, e) = self.cfg.ranges[b];
            (s..e).any(|pc| {
                def_r(&self.l.code[pc]) == Some(v)
                    && !matches!(self.l.code[pc], RInst::ConstNull { .. })
            })
        })
    }

    /// Classify the definition at `pc` as `v = v + step` (directly or via
    /// a same-block temp) and return the positive constant `step`.
    fn def_step(&self, pc: usize, v: u16) -> Option<i64> {
        let bs = self.block_start(pc);
        let k = match &self.l.code[pc] {
            RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst, a, b } if *dst == v => {
                let base = self.affine_of_at(bs, pc, *a, v)?;
                base.checked_add(self.const_op(bs, pc, b)?)?
            }
            RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, dst, a, b } if *dst == v => {
                let base = self.affine_of_at(bs, pc, *a, v)?;
                base.checked_sub(self.const_op(bs, pc, b)?)?
            }
            RInst::MovP { dst, src } if *dst == v => self.affine_of_at(bs, pc, *src, v)?,
            _ => return None,
        };
        // Any positive `i32` step keeps the counter monotone; only the
        // offsets that enter interval arithmetic are `K_CAP`-bounded.
        if k >= 1 && k <= i32::MAX as i64 { Some(k) } else { None }
    }

    /// [`Self::affine_of`] with an explicit block start (for use while
    /// already scanning inside a block).
    fn affine_of_at(&self, bs: usize, pc: usize, slot: u16, root: u16) -> Option<i64> {
        let mut cur = slot;
        let mut k: i64 = 0;
        let mut at = pc;
        for _ in 0..16 {
            if cur == root {
                if (at..pc).any(|j| def_p(&self.l.code[j]) == Some(root)) {
                    return None;
                }
                return if k.abs() <= K_CAP { Some(k) } else { None };
            }
            let d = (bs..at)
                .rev()
                .find(|&j| def_p(&self.l.code[j]) == Some(cur))?;
            match &self.l.code[d] {
                RInst::MovP { src, .. } => cur = *src,
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, a, b, .. } => {
                    k = k.checked_add(self.const_op(bs, d, b)?)?;
                    cur = *a;
                }
                RInst::Bin { op: BinOp::Sub, ty: NumTy::I4, a, b, .. } => {
                    k = k.checked_sub(self.const_op(bs, d, b)?)?;
                    cur = *a;
                }
                _ => return None,
            }
            at = d;
        }
        None
    }

    /// Every in-loop definition of `v` must be a positive constant
    /// increment; returns their pcs.
    fn increments(&self, lp: &NaturalLoop, v: u16) -> Option<Vec<usize>> {
        let defs = self.loop_p_defs(lp, v);
        for &pc in &defs {
            self.def_step(pc, v)?;
        }
        Some(defs)
    }

    /// Blocks and tail-pcs downstream of an increment without re-passing
    /// the header (mirrors the pass-side post-increment exclusion).
    fn post_region(
        &self,
        lp: &NaturalLoop,
        inc_pcs: &[usize],
    ) -> (HashSet<usize>, HashSet<usize>) {
        let mut post_pcs: HashSet<usize> = HashSet::new();
        let mut post_blocks: HashSet<usize> = HashSet::new();
        let mut stack: Vec<usize> = Vec::new();
        for &ipc in inc_pcs {
            let b = self.cfg.block_of(ipc as u32);
            post_pcs.extend(ipc + 1..self.cfg.ranges[b].1);
            stack.extend(
                self.cfg.succs[b]
                    .iter()
                    .copied()
                    .filter(|s| lp.body.contains(s) && *s != lp.header),
            );
        }
        while let Some(b) = stack.pop() {
            if post_blocks.insert(b) {
                stack.extend(
                    self.cfg.succs[b]
                        .iter()
                        .copied()
                        .filter(|s| lp.body.contains(s) && *s != lp.header),
                );
            }
        }
        (post_pcs, post_blocks)
    }

    /// Constant value of `v` at the end of block `b`, looking through
    /// blocks that do not define it (depth-limited, cycle-safe). Used for
    /// entry lower bounds: hoisted preheaders and versioning guards sit
    /// between the initializing block and the header.
    fn const_at_block_end(
        &self,
        b: usize,
        v: u16,
        depth: u8,
        visited: &mut HashSet<usize>,
    ) -> Option<i64> {
        if depth == 0 || !visited.insert(b) {
            return None;
        }
        let (s, e) = self.cfg.ranges[b];
        // Forward constant scan of the block.
        let mut val: Option<i64> = None;
        let mut defined = false;
        let mut consts: HashMap<u16, i64> = HashMap::new();
        for pc in s..e {
            match &self.l.code[pc] {
                RInst::ConstP { dst, bits } => {
                    consts.insert(*dst, *bits as u32 as i32 as i64);
                    if *dst == v {
                        defined = true;
                        val = Some(*bits as u32 as i32 as i64);
                    }
                }
                RInst::MovP { dst, src } => {
                    let c = consts.get(src).copied();
                    match c {
                        Some(c) => consts.insert(*dst, c),
                        None => consts.remove(dst),
                    };
                    if *dst == v {
                        defined = true;
                        val = c;
                    }
                }
                inst => {
                    if let Some(d) = def_p(inst) {
                        consts.remove(&d);
                        if d == v {
                            defined = true;
                            val = None;
                        }
                    }
                }
            }
        }
        if defined {
            return val;
        }
        // Not defined here: every predecessor must agree on a constant
        // (we take the minimum — a valid lower bound).
        let preds = &self.cfg.preds[b];
        if preds.is_empty() {
            return None;
        }
        let mut lo: Option<i64> = None;
        for &p in preds {
            let c = self.const_at_block_end(p, v, depth - 1, visited)?;
            lo = Some(lo.map_or(c, |l: i64| l.min(c)));
        }
        lo
    }

    /// Lower bound of `v` on every edge entering the loop header from
    /// outside the loop.
    fn entry_lo(&self, lp: &NaturalLoop, v: u16) -> Option<i64> {
        let entry_preds: Vec<usize> = self.cfg.preds[lp.header]
            .iter()
            .copied()
            .filter(|p| !lp.body.contains(p))
            .collect();
        if entry_preds.is_empty() {
            return None;
        }
        let mut lo: Option<i64> = None;
        for p in entry_preds {
            let mut visited = HashSet::new();
            // Depth covers the chains of small non-defining blocks that
            // LICM preheaders and versioning guards insert before headers.
            let c = self.const_at_block_end(p, v, 32, &mut visited)?;
            lo = Some(lo.map_or(c, |l: i64| l.min(c)));
        }
        lo
    }

    /// Normalize a loop-header guard: the terminator at `guard_pc` must be
    /// an I4 `BrCmp` with exactly one of target/fallthrough inside the
    /// loop. Returns the raw guarded slot, the bound operand, and whether
    /// the staying predicate is strict (`<`) or non-strict (`<=`).
    fn normalize_guard(&self, lp: &NaturalLoop, guard_pc: u32) -> Option<(u16, Operand, bool)> {
        let (_, he) = self.cfg.ranges[lp.header];
        if guard_pc as usize != he - 1 {
            return None;
        }
        let RInst::BrCmp { op, ty: NumTy::I4, a, b, t } = self.l.code[guard_pc as usize] else {
            return None;
        };
        let tgt_in = lp.body.contains(&self.cfg.block_of(t));
        let fall_in =
            he < self.l.code.len() && lp.body.contains(&self.cfg.block_of(he as u32));
        if tgt_in == fall_in {
            return None;
        }
        let stay = if fall_in { op.negate() } else { op };
        match stay {
            CmpOp::Lt => Some((a, b, true)),
            CmpOp::Le => Some((a, b, false)),
            CmpOp::Gt => match b {
                Operand::Slot(s) => Some((s, Operand::Slot(a), true)),
                Operand::Imm(_) => None,
            },
            CmpOp::Ge => match b {
                Operand::Slot(s) => Some((s, Operand::Slot(a), false)),
                Operand::Imm(_) => None,
            },
            _ => None,
        }
    }

    /// Upper bound the loop guard enforces for `ivar`: `ivar <= len(arr)
    /// + ret` on every covered (non-post-increment) path. Handles bounds
    /// that are the array length (possibly offset by constants) and
    /// bounds that are an enclosing loop's induction variable.
    fn loop_sup(
        &self,
        lp: &NaturalLoop,
        guard_pc: u32,
        ivar: u16,
        arr: u16,
        depth: u8,
    ) -> Option<i64> {
        let (raw, bound, strict) = self.normalize_guard(lp, guard_pc)?;
        // The guarded slot must carry the induction variable's value.
        if self.affine_of(guard_pc as usize, raw, ivar)? != 0 {
            return None;
        }
        let adj = if strict { -1 } else { 0 };
        let Operand::Slot(bs) = bound else { return None };
        // Path 1: the bound is (a constant offset from) the array length.
        // Block-local links re-derive every iteration; global links are
        // required (inside `len_plus`) to be single-defined outside the
        // loop, so the whole chain is iteration-stable.
        if let Some(c) = self.len_plus(Some(guard_pc as usize), bs, arr, 6, Some(lp)) {
            return Some(c + adj);
        }
        // Path 2: the bound is an enclosing loop's induction variable,
        // itself guarded below the array length (triangular loops).
        if depth == 0 || !self.loop_p_defs(lp, bs).is_empty() {
            return None;
        }
        for olp in &self.loops {
            if olp.header == lp.header || !olp.clean || !lp.body.is_subset(&olp.body) {
                continue;
            }
            let (_, ohe) = self.cfg.ranges[olp.header];
            let og = (ohe - 1) as u32;
            let Some(oinc) = self.increments(olp, bs) else { continue };
            // The inner loop must run before the outer increment within
            // each outer iteration, or the guard no longer covers `bs`.
            let (post_pcs, post_blocks) = self.post_region(olp, &oinc);
            let inner_in_post = lp.body.iter().any(|&b| {
                post_blocks.contains(&b)
                    || (b != olp.header && {
                        let (s, e) = self.cfg.ranges[b];
                        (s..e).any(|pc| post_pcs.contains(&pc))
                    })
            });
            if inner_in_post {
                continue;
            }
            if let Some(osup) = self.loop_sup(olp, og, bs, arr, depth - 1) {
                return Some(osup + adj);
            }
        }
        None
    }
}

/// Verify every certificate against the final code and sweep for
/// completeness. Returns the first failure as a human-readable message.
pub(crate) fn check(l: &Lowered) -> Result<(), String> {
    // Completeness both ways: elided accesses and certificates must match
    // one-to-one on (pc, mechanism).
    let mut elided: HashMap<u32, BoundsMode> = HashMap::new();
    for (pc, inst) in l.code.iter().enumerate() {
        if let RInst::LdElem { bounds, .. } | RInst::StElem { bounds, .. } = inst {
            if !bounds.is_checked() {
                elided.insert(pc as u32, *bounds);
            }
        }
    }
    let mut seen: HashSet<u32> = HashSet::new();
    for c in &l.certs {
        if !seen.insert(c.pc) {
            return Err(format!("duplicate certificate for pc {}", c.pc));
        }
        match elided.get(&c.pc) {
            Some(m) if *m == c.mechanism => {}
            Some(m) => {
                return Err(format!(
                    "certificate at pc {} claims {:?} but access is {:?}",
                    c.pc, c.mechanism, m
                ))
            }
            None => {
                return Err(format!(
                    "certificate at pc {} has no matching elided access",
                    c.pc
                ))
            }
        }
    }
    for (&pc, m) in &elided {
        if !seen.contains(&pc) {
            return Err(format!("elided access at pc {} ({:?}) has no certificate", pc, m));
        }
    }
    if l.certs.is_empty() {
        return Ok(());
    }
    let mut heads: Vec<u32> = leaders(l)
        .into_iter()
        .filter(|&h| (h as usize) < l.code.len())
        .collect();
    heads.sort_unstable();
    let cfg = Cfg::build(l);
    let loops = find_loops(l, &cfg);
    let ck = Ck { l, heads, defs: Defs::collect(l), cfg, loops };
    for c in &l.certs {
        check_one(&ck, c).map_err(|e| format!("cert at pc {}: {}", c.pc, e))?;
    }
    Ok(())
}

/// The access instruction's raw `(idx, arr)` slots.
fn access_slots(l: &Lowered, pc: u32) -> Result<(u16, u16), String> {
    match l.code.get(pc as usize) {
        Some(RInst::LdElem { arr, idx, .. }) | Some(RInst::StElem { arr, idx, .. }) => {
            Ok((*idx, *arr))
        }
        _ => Err("not an element access".into()),
    }
}

fn check_one(ck: &Ck, cert: &ElisionCert) -> Result<(), String> {
    match &cert.kind {
        CertKind::BlockGuard { guard_pc, ivar, arr } => {
            check_block_guard(ck, cert.pc, *guard_pc, *ivar, *arr)
        }
        CertKind::Loop { guard_pc, ivar, offset, entry_lo, sup_arr, sup_off } => check_loop(
            ck, cert.pc, *guard_pc, *ivar, *offset, *entry_lo, *sup_arr, *sup_off,
        ),
        CertKind::Versioned {
            guard_start,
            guard_pc,
            ivar,
            arr,
            null_check_pc,
            lo_check_pc,
            len_check_pc,
        } => check_versioned(
            ck,
            cert.pc,
            *guard_start,
            *guard_pc,
            *ivar,
            *arr,
            *null_check_pc,
            *lo_check_pc,
            *len_check_pc,
        ),
    }
}

/// Structural idiom: verify the access reads `ivar` into `arr`, that
/// `ivar` is a zero-initialized monotone counter, that the claimed guard
/// is a strict-order compare of the counter against `arr`'s length, and
/// that the guard's in-bounds edge controls the access — dominates it,
/// the out-of-bounds edge cannot reach it guard-free, and no guard-free
/// path from the edge to the access redefines the counter.
fn check_block_guard(ck: &Ck, pc: u32, guard_pc: u32, ivar: u16, arr: u16) -> Result<(), String> {
    let (idx, araw) = access_slots(ck.l, pc)?;
    if ck.affine_of(pc as usize, idx, ivar) != Some(0) {
        return Err("index does not resolve to the certified counter".into());
    }
    if ck.resolve_r(pc as usize, araw) != Some(arr) {
        return Err("array does not resolve to the certified origin".into());
    }
    if ck.defs.real_r_count(arr) > 1 {
        return Err("array origin has multiple definitions".into());
    }
    // Counter shape: starts at zero (an explicit `ConstP 0`, or the
    // implicit zero-initialization every non-argument local gets), every
    // other def an increment.
    let defs = ck.defs.p.get(&ivar).cloned().unwrap_or_default();
    let mut zero = !ck.is_arg_p(ivar);
    let mut inc = false;
    for d in defs {
        if matches!(ck.l.code[d], RInst::ConstP { bits: 0, .. }) {
            zero = true;
        } else if ck.def_step(d, ivar).is_some() {
            inc = true;
        } else {
            return Err("counter has a non-increment definition".into());
        }
    }
    if !zero || !inc {
        return Err("counter is not a zero-init incremented local".into());
    }
    // The guard compares the counter against the array length.
    let RInst::BrCmp { ty: NumTy::I4, op, a, b, t } = ck.l.code[guard_pc as usize] else {
        return Err("guard is not an I4 compare-branch".into());
    };
    let gp = guard_pc as usize;
    if gp + 1 >= ck.l.code.len() {
        return Err("guard has no fall-through".into());
    }
    let len_side = |s: u16| ck.len_plus(Some(gp), s, arr, 6, None) == Some(0);
    let ivar_side = |s: u16| ck.affine_of(gp, s, ivar) == Some(0);
    let Operand::Slot(bs) = b else {
        return Err("guard does not compare the counter against the array length".into());
    };
    // Which branch edge implies `ivar < len`? Only strict orderings
    // qualify: an `!=`/`==`/`<=` compare against the length anywhere in
    // the method does not bound the counter (conform seed 330: a ternary's
    // `i != arr.Length` must not certify `arr[i]` in an `i < 12` loop).
    let in_bounds_taken = if ivar_side(a) && len_side(bs) {
        match op {
            CmpOp::Lt => true,
            CmpOp::Ge => false,
            _ => return Err("guard comparison does not bound the counter below the length".into()),
        }
    } else if ivar_side(bs) && len_side(a) {
        match op {
            CmpOp::Gt => true,
            CmpOp::Le => false,
            _ => return Err("guard comparison does not bound the counter below the length".into()),
        }
    } else {
        return Err("guard does not compare the counter against the array length".into());
    };
    // The in-bounds edge must control the access: no path from entry or
    // from the out-of-bounds edge may reach it without passing the guard,
    // and no guard-free path from the in-bounds edge to the access may
    // redefine the counter (the canonical latch increment sits on a path
    // that re-enters the guard, so it stays legal).
    let gb = ck.cfg.block_of(guard_pc);
    let ab = ck.cfg.block_of(pc);
    if ab == gb {
        return Err("access shares the guard's block and runs before the test".into());
    }
    let (in_succ, out_succ) = if in_bounds_taken {
        (ck.cfg.block_of(t), ck.cfg.block_of(guard_pc + 1))
    } else {
        (ck.cfg.block_of(guard_pc + 1), ck.cfg.block_of(t))
    };
    let entry = ck.cfg.block_of(0);
    if reach_avoiding(&ck.cfg, entry, gb).contains(&ab) {
        return Err("guard does not dominate the access".into());
    }
    if reach_avoiding(&ck.cfg, out_succ, gb).contains(&ab) {
        return Err("out-of-bounds edge reaches the access without re-passing the guard".into());
    }
    let r_in = reach_avoiding(&ck.cfg, in_succ, gb);
    if !r_in.contains(&ab) {
        return Err("in-bounds edge does not reach the access".into());
    }
    let to_access = coreach_avoiding(&ck.cfg, ab, gb);
    // Defs after the access in its own block only matter when a guard-free
    // cycle can revisit the block.
    let ab_cycle = ck.cfg.succs[ab]
        .iter()
        .any(|&s| s != gb && (s == ab || reach_avoiding(&ck.cfg, s, gb).contains(&ab)));
    for &bk in r_in.iter().filter(|bk| to_access.contains(bk)) {
        let (s, e) = ck.cfg.ranges[bk];
        let e = if bk == ab && !ab_cycle { pc as usize } else { e };
        if (s..e).any(|j| def_p(&ck.l.code[j]) == Some(ivar)) {
            return Err("counter is redefined between the guard and the access".into());
        }
    }
    Ok(())
}

/// Blocks reachable from `from` along successor edges that never enter
/// `avoid`. Includes `from`; empty when `from == avoid`.
fn reach_avoiding(cfg: &Cfg, from: usize, avoid: usize) -> HashSet<usize> {
    let mut seen = HashSet::new();
    if from == avoid {
        return seen;
    }
    let mut stack = vec![from];
    while let Some(b) = stack.pop() {
        if !seen.insert(b) {
            continue;
        }
        for &s in &cfg.succs[b] {
            if s != avoid && !seen.contains(&s) {
                stack.push(s);
            }
        }
    }
    seen
}

/// Blocks from which `to` is reachable along edges that never enter
/// `avoid`. Includes `to`; empty when `to == avoid`.
fn coreach_avoiding(cfg: &Cfg, to: usize, avoid: usize) -> HashSet<usize> {
    let mut seen = HashSet::new();
    if to == avoid {
        return seen;
    }
    let mut stack = vec![to];
    while let Some(b) = stack.pop() {
        if !seen.insert(b) {
            continue;
        }
        for &p in &cfg.preds[b] {
            if p != avoid && !seen.contains(&p) {
                stack.push(p);
            }
        }
    }
    seen
}

/// Find the loop whose header terminator is `guard_pc` and that contains
/// `pc`.
fn loop_for<'c>(ck: &'c Ck, pc: u32, guard_pc: u32) -> Result<&'c NaturalLoop, String> {
    ck.loops
        .iter()
        .find(|lp| {
            ck.cfg.ranges[lp.header].1 as u32 == guard_pc + 1
                && lp.body.contains(&ck.cfg.block_of(pc))
        })
        .ok_or_else(|| "no loop with the certified guard contains the access".into())
}

#[allow(clippy::too_many_arguments)]
fn check_loop(
    ck: &Ck,
    pc: u32,
    guard_pc: u32,
    ivar: u16,
    offset: i64,
    entry_lo: i64,
    sup_arr: u16,
    sup_off: i64,
) -> Result<(), String> {
    let lp = loop_for(ck, pc, guard_pc)?;
    if !lp.clean {
        return Err("loop overlaps an exception region".into());
    }
    let (idx, araw) = access_slots(ck.l, pc)?;
    if ck.affine_of(pc as usize, idx, ivar) != Some(offset) {
        return Err("index is not ivar + certified offset".into());
    }
    if ck.resolve_r(pc as usize, araw) != Some(sup_arr) {
        return Err("access array does not match the certified bound array".into());
    }
    if ck.loop_redefines_r(lp, sup_arr) {
        return Err("array is redefined inside the loop".into());
    }
    if ck.defs.real_r_count(sup_arr) > 1 {
        return Err("array origin has multiple definitions".into());
    }
    let inc = ck
        .increments(lp, ivar)
        .ok_or("induction variable has a non-increment in-loop definition")?;
    let (post_pcs, post_blocks) = ck.post_region(lp, &inc);
    let b = ck.cfg.block_of(pc);
    if b == lp.header || post_blocks.contains(&b) || post_pcs.contains(&(pc as usize)) {
        return Err("access is not covered by the header guard".into());
    }
    let derived = ck
        .loop_sup(lp, guard_pc, ivar, sup_arr, 3)
        .ok_or("guard does not bound ivar below the array length")?;
    if derived != sup_off {
        return Err(format!(
            "certified sup len{:+} does not match derived len{:+}",
            sup_off, derived
        ));
    }
    let lo = ck
        .entry_lo(lp, ivar)
        .ok_or("entry value of ivar is unknown")?;
    if lo < entry_lo {
        return Err(format!("entry bound {} below certified {}", lo, entry_lo));
    }
    // The interval check itself: [entry_lo + k, len + sup_off + k] must
    // sit inside [0, len).
    if entry_lo + offset < 0 {
        return Err("interval lower bound below zero".into());
    }
    if sup_off + offset > -1 {
        return Err("interval upper bound reaches the array length".into());
    }
    Ok(())
}

/// Instructions a versioning guard region may contain.
fn guard_whitelisted(inst: &RInst) -> bool {
    matches!(
        inst,
        RInst::ConstNull { .. }
            | RInst::CmpRef { .. }
            | RInst::LdLen { .. }
            | RInst::BrCmp { .. }
            | RInst::Br { .. }
    )
}

#[allow(clippy::too_many_arguments)]
fn check_versioned(
    ck: &Ck,
    pc: u32,
    guard_start: u32,
    guard_pc: u32,
    ivar: u16,
    arr: u16,
    null_check_pc: u32,
    lo_check_pc: u32,
    len_check_pc: u32,
) -> Result<(), String> {
    let lp = loop_for(ck, pc, guard_pc)?;
    if !lp.clean {
        return Err("clone loop overlaps an exception region".into());
    }
    // --- The clone loop itself -------------------------------------------
    let (idx, araw) = access_slots(ck.l, pc)?;
    if ck.affine_of(pc as usize, idx, ivar) != Some(0) {
        return Err("index does not resolve to the induction variable".into());
    }
    if ck.resolve_r(pc as usize, araw) != Some(arr) {
        return Err("access array does not match the guarded array".into());
    }
    if ck.defs.real_r_count(arr) > 1 {
        return Err("array origin has multiple definitions".into());
    }
    if ck.loop_redefines_r(lp, arr) {
        return Err("array is redefined inside the clone".into());
    }
    let inc = ck
        .increments(lp, ivar)
        .ok_or("induction variable has a non-increment definition in the clone")?;
    let (post_pcs, post_blocks) = ck.post_region(lp, &inc);
    let b = ck.cfg.block_of(pc);
    if b == lp.header || post_blocks.contains(&b) || post_pcs.contains(&(pc as usize)) {
        return Err("access is not covered by the clone's header guard".into());
    }
    let (raw, bound, strict) = ck
        .normalize_guard(lp, guard_pc)
        .ok_or("clone header guard has no recognizable shape")?;
    if !strict {
        return Err("clone guard is not a strict upper bound".into());
    }
    if ck.affine_of(guard_pc as usize, raw, ivar) != Some(0) {
        return Err("clone guard does not test the induction variable".into());
    }
    if let Operand::Slot(bs) = bound {
        if !ck.loop_p_defs(lp, bs).is_empty() {
            return Err("bound slot is redefined inside the clone".into());
        }
    }
    // --- The guard region -------------------------------------------------
    // It must be a contiguous whitelisted run ending in `Br clone_header`,
    // every conditional bailing to the same place outside the clone, with
    // no definitions of the certified slots.
    let gs = guard_start as usize;
    let clone_header = ck.cfg.heads[lp.header];
    let mut orig: Option<u32> = None;
    let mut end: Option<usize> = None;
    for j in gs..ck.l.code.len() {
        let inst = &ck.l.code[j];
        if !guard_whitelisted(inst) {
            return Err("guard region contains a non-whitelisted instruction".into());
        }
        if def_p(inst) == Some(ivar) || def_r(inst) == Some(arr) {
            return Err("guard region redefines a certified slot".into());
        }
        if let Operand::Slot(bs) = bound {
            if def_p(inst) == Some(bs) {
                return Err("guard region redefines the bound slot".into());
            }
        }
        match inst {
            RInst::BrCmp { t, .. } => match orig {
                None => orig = Some(*t),
                Some(o) if o == *t => {}
                Some(_) => return Err("guard checks bail to different targets".into()),
            },
            RInst::Br { t } => {
                if *t != clone_header {
                    return Err("guard does not enter the clone header".into());
                }
                end = Some(j);
                break;
            }
            _ => {}
        }
    }
    let end = end.ok_or("guard region has no terminating branch")?;
    let orig = orig.ok_or("guard region has no bail-out checks")?;
    if lp.body.contains(&ck.cfg.block_of(orig)) {
        return Err("guard bail-out lands inside the clone".into());
    }
    // Only the guard's final `Br` may enter the clone from outside.
    for b in 0..ck.cfg.ranges.len() {
        if lp.body.contains(&b) {
            continue;
        }
        for &s in &ck.cfg.succs[b] {
            if lp.body.contains(&s) {
                if s != lp.header || ck.cfg.ranges[b].1 != end + 1 {
                    return Err("clone is reachable without passing the guard".into());
                }
            }
        }
    }
    // --- The three checks --------------------------------------------------
    let within = |p: u32| (p as usize) >= gs && (p as usize) < end;
    if !within(null_check_pc) || !within(lo_check_pc) || !within(len_check_pc) {
        return Err("certified check pcs fall outside the guard region".into());
    }
    // Null check: `tz = (arr == null); if (tz != 0) goto orig`.
    let ncp = null_check_pc as usize;
    let RInst::CmpRef { op: CmpOp::Eq, dst: tz, a: na, b: nb } = ck.l.code[ncp] else {
        return Err("null check is not a reference equality".into());
    };
    let null_ok = |s: u16| {
        ck.defs.r.get(&s).map_or(false, |d| {
            d.len() == 1 && matches!(ck.l.code[d[0]], RInst::ConstNull { .. })
        })
    };
    if !((na == arr && null_ok(nb)) || (nb == arr && null_ok(na))) {
        return Err("null check does not test the guarded array".into());
    }
    match ck.l.code.get(ncp + 1) {
        Some(RInst::BrCmp { op: CmpOp::Ne, ty: NumTy::I4, a, b: Operand::Imm(0), t })
            if *a == tz && *t == orig => {}
        _ => return Err("null check does not bail to the original loop".into()),
    }
    if ck.defs.p.get(&tz).map_or(0, |d| d.len()) != 1 {
        return Err("null-check temp has extra definitions".into());
    }
    // Lower-bound check: `if (ivar < 0) goto orig`.
    match ck.l.code.get(lo_check_pc as usize) {
        Some(RInst::BrCmp { op: CmpOp::Lt, ty: NumTy::I4, a, b: Operand::Imm(0), t })
            if *a == ivar && *t == orig => {}
        _ => return Err("entry lower-bound check missing or malformed".into()),
    }
    // Length check: `tl = len(arr); if (bound > tl) goto orig` (slot
    // bound) or `if (tl < c) goto orig` (immediate bound).
    let lcp = len_check_pc as usize;
    let RInst::LdLen { arr: larr, dst: tl } = ck.l.code[lcp] else {
        return Err("length check does not load the array length".into());
    };
    if larr != arr {
        return Err("length check reads a different array".into());
    }
    if ck.defs.p.get(&tl).map_or(0, |d| d.len()) != 1 {
        return Err("length temp has extra definitions".into());
    }
    let len_ok = match (ck.l.code.get(lcp + 1), bound) {
        (
            Some(RInst::BrCmp { op: CmpOp::Gt, ty: NumTy::I4, a, b: Operand::Slot(s), t }),
            Operand::Slot(bs),
        ) => *a == bs && *s == tl && *t == orig,
        (
            Some(RInst::BrCmp { op: CmpOp::Lt, ty: NumTy::I4, a, b: Operand::Imm(c), t }),
            Operand::Imm(bc),
        ) => *a == tl && *c == bc && *t == orig,
        _ => false,
    };
    if !len_ok {
        return Err("length check does not bound the loop's limit".into());
    }
    // Interval: guard gives ivar >= 0 on entry and bound <= len(arr);
    // the clone's strict header guard keeps ivar < bound <= len(arr) on
    // every covered path, and increments only grow ivar. The index equals
    // ivar, so it stays inside [0, len).
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rir::{ArgSlot, DstSlot};
    use hpcnet_cil::ElemKind;

    fn lowered(code: Vec<RInst>, certs: Vec<ElisionCert>) -> Lowered {
        Lowered {
            code,
            eh: Vec::new(),
            eh_exc_vregs: Vec::new(),
            arg_locs: Vec::new(),
            n_pvreg: 16,
            n_rvreg: 4,
            certs,
        }
    }

    /// `for (i = 0; i < a.Length; i++) a[i] = i;` in RIR, with the store
    /// elided and certified.
    fn counted_loop(mechanism: BoundsMode, cert: ElisionCert) -> Lowered {
        lowered(
            vec![
                // 0: i = 0
                RInst::ConstP { dst: 0, bits: 0 },
                // 1: len = a.Length   (header)
                RInst::LdLen { arr: 0, dst: 1 },
                // 2: if i >= len goto 6
                RInst::BrCmp { op: CmpOp::Ge, ty: NumTy::I4, a: 0, b: Operand::Slot(1), t: 6 },
                // 3: a[i] = i (elided)
                RInst::StElem {
                    kind: ElemKind::I4,
                    arr: 0,
                    idx: 0,
                    src: ArgSlot::P(NumTy::I4, 0),
                    bounds: mechanism,
                },
                // 4: i = i + 1
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst: 0, a: 0, b: Operand::Imm(1) },
                // 5: goto 1
                RInst::Br { t: 1 },
                // 6: ret
                RInst::Ret { src: None },
            ],
            vec![cert],
        )
    }

    fn good_loop_cert() -> ElisionCert {
        ElisionCert {
            pc: 3,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::Loop {
                guard_pc: 2,
                ivar: 0,
                offset: 0,
                entry_lo: 0,
                sup_arr: 0,
                sup_off: -1,
            },
        }
    }

    #[test]
    fn valid_loop_certificate_passes() {
        let l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        assert_eq!(check(&l), Ok(()));
    }

    #[test]
    fn tampered_offset_is_rejected() {
        // Claiming the index is `i + 1` when the code reads `a[i]` must
        // fail: the checker re-derives the affine offset.
        let mut cert = good_loop_cert();
        if let CertKind::Loop { offset, .. } = &mut cert.kind {
            *offset = 1;
        }
        let l = counted_loop(BoundsMode::ElidedIdiom, cert);
        assert!(check(&l).unwrap_err().contains("offset"));
    }

    #[test]
    fn unsound_interval_is_rejected() {
        // An index that can reach `len(a)` must fail the interval check
        // even if every structural fact matches: here the access really
        // is `a[i+1]` and a certificate honestly describing it cannot
        // prove it in range.
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        // Rewrite the access to a[i+1] via a temp, and the cert to match.
        l.code[3] = RInst::StElem {
            kind: ElemKind::I4,
            arr: 0,
            idx: 2,
            src: ArgSlot::P(NumTy::I4, 0),
            bounds: BoundsMode::ElidedIdiom,
        };
        l.code.insert(3, RInst::Bin {
            op: BinOp::Add,
            ty: NumTy::I4,
            dst: 2,
            a: 0,
            b: Operand::Imm(1),
        });
        // Fix branch targets after the insertion.
        l.code[2].set_target(7);
        l.code[6].set_target(1);
        l.certs[0] = ElisionCert {
            pc: 4,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::Loop {
                guard_pc: 2,
                ivar: 0,
                offset: 1,
                entry_lo: 0,
                sup_arr: 0,
                sup_off: -1,
            },
        };
        assert!(check(&l).unwrap_err().contains("upper bound"));
    }

    #[test]
    fn missing_certificate_is_rejected() {
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        l.certs.clear();
        assert!(check(&l).unwrap_err().contains("no certificate"));
    }

    #[test]
    fn certificate_without_elision_is_rejected() {
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        if let RInst::StElem { bounds, .. } = &mut l.code[3] {
            *bounds = BoundsMode::Checked;
        }
        assert!(check(&l).unwrap_err().contains("no matching"));
    }

    #[test]
    fn mutated_bound_is_rejected() {
        // Same loop but with the guard comparing against a plain local
        // that is NOT the array length — the cert's sup claim must fail.
        let l = lowered(
            vec![
                RInst::ConstP { dst: 0, bits: 0 },
                RInst::ConstP { dst: 1, bits: 100 },
                // header
                RInst::BrCmp { op: CmpOp::Ge, ty: NumTy::I4, a: 0, b: Operand::Slot(1), t: 6 },
                RInst::StElem {
                    kind: ElemKind::I4,
                    arr: 0,
                    idx: 0,
                    src: ArgSlot::P(NumTy::I4, 0),
                    bounds: BoundsMode::ElidedRange,
                },
                RInst::Bin { op: BinOp::Add, ty: NumTy::I4, dst: 0, a: 0, b: Operand::Imm(1) },
                RInst::Br { t: 2 },
                RInst::Ret { src: None },
            ],
            vec![ElisionCert {
                pc: 3,
                mechanism: BoundsMode::ElidedRange,
                kind: CertKind::Loop {
                    guard_pc: 2,
                    ivar: 0,
                    offset: 0,
                    entry_lo: 0,
                    sup_arr: 0,
                    sup_off: -1,
                },
            }],
        );
        assert!(check(&l).unwrap_err().contains("bound"));
    }

    #[test]
    fn block_guard_certificate_checks_counter_shape() {
        let mut l = counted_loop(BoundsMode::ElidedIdiom, ElisionCert {
            pc: 3,
            mechanism: BoundsMode::ElidedIdiom,
            kind: CertKind::BlockGuard { guard_pc: 2, ivar: 0, arr: 0 },
        });
        assert_eq!(check(&l), Ok(()));
        // Taint the counter with a non-increment definition.
        l.code.push(RInst::Nop);
        l.code[7] = RInst::ConstP { dst: 0, bits: 5 };
        assert!(check(&l).unwrap_err().contains("non-increment"));
    }

    #[test]
    fn loads_use_dst_elided_certs_too() {
        // An elided LdElem is matched by pc exactly like a store.
        let mut l = counted_loop(BoundsMode::ElidedIdiom, good_loop_cert());
        l.code[3] = RInst::LdElem {
            kind: ElemKind::I4,
            arr: 0,
            idx: 0,
            dst: DstSlot::P(3),
            bounds: BoundsMode::ElidedIdiom,
        };
        assert_eq!(check(&l), Ok(()));
    }
}
