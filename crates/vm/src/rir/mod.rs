//! RIR — the register intermediate representation the optimizing tiers
//! execute.
//!
//! Stack CIL is translated into three-address code over virtual registers
//! (one primitive file, one reference file), the form every JIT in the
//! paper lowers to before emitting machine code. The pipeline, start to
//! finish:
//!
//! 1. **Lower** ([`crate::rir::lower`]): verified stack CIL → naive
//!    three-address code. Every stack push/pop becomes a virtual-register
//!    move; this is the code Mono 0.23 runs as-is.
//! 2. **Scalar passes** ([`crate::rir::opt`]): constant/copy propagation,
//!    strength reduction, the structural bounds-check matcher, dead-code
//!    elimination — each gated by a [`crate::profile::PassConfig`] flag.
//! 3. **Loop-aware tier** (`rir::loops` + [`crate::rir::opt`] +
//!    `rir::range`): basic blocks, dominators and natural loops
//!    are recovered from the compacted code; symbolic range analysis
//!    proves counted-loop indices in range — the `i < arr.Length` idiom
//!    and derived indices (`i±k`, triangular, strided) — and drops their
//!    checks, LICM hoists invariant arithmetic and the guard's `ldlen`
//!    into the preheader, and guarded loop versioning clones
//!    almost-provable loops behind an up-front guard. Every elision
//!    carries a certificate re-verified by [`crate::rir::audit`].
//!    Per-method results are tallied on [`crate::machine::Counters`].
//! 4. **Allocate** ([`crate::rir::opt`] or [`crate::rir::compile`]): at
//!    most `max_enreg` virtual registers live in the register file (plain
//!    array access at run time); the rest spill to a frame arena (volatile
//!    memory traffic) — the enregistration mechanism Section 5 of the
//!    paper identifies as dominating low-level performance. `Tier::Rir`
//!    ranks virtual registers by static use count; `Tier::Compiled` reuses
//!    registers by linear scan over live intervals.
//! 5. **Execute** ([`crate::compiled`]): the allocated code is translated
//!    once to threaded closures and run; an "unchecked" element access
//!    that is out of range is an engine error, so unsound eliminations
//!    fail loudly in differential tests.
//!
//! [`print_rir`] renders the allocated code in an assembly-like listing;
//! `examples/jit_compare.rs` uses it to reproduce the paper's Tables 6–8
//! (the same division loop as compiled by each engine) and
//! `examples/loop_opt_compare.rs` shows the loop-aware tier's effect on a
//! length-bounded loop. docs/OPTIMIZATIONS.md maps every optimization
//! mechanism to its profile knob.

pub mod audit;
pub mod compile;
pub mod lower;
pub(crate) mod loops;
pub mod opt;
pub(crate) mod range;
pub mod share;

use hpcnet_cil::module::{EhRegion, MethodId};
use hpcnet_cil::{BinOp, ClassId, CmpOp, ElemKind, Intrinsic, NumTy, StrId, UnOp};
use std::fmt::Write;

/// Spill flag: slot ids with this bit set live in the spill frame.
pub const SPILL_BIT: u16 = 0x8000;

/// Is the slot in the spill frame?
#[inline]
pub fn is_spill(slot: u16) -> bool {
    slot & SPILL_BIT != 0
}

/// Index within its file (register or spill).
#[inline]
pub fn slot_index(slot: u16) -> usize {
    (slot & !SPILL_BIT) as usize
}

/// Right-hand operand: a primitive slot or an immediate constant fused
/// into the instruction (the "constants in registers throughout the loop"
/// codegen of Table 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    Slot(u16),
    Imm(u64),
}

/// A typed argument/return location (for calls and stores).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArgSlot {
    P(NumTy, u16),
    R(u16),
}

/// A destination location.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DstSlot {
    P(u16),
    R(u16),
}

/// How an element access's bounds check is handled. `Checked` tests the
/// index against the array length at run time; the elided variants record
/// *which* elimination mechanism proved (or guarded) the access in range,
/// so the observer can attribute elisions per mechanism and the audit
/// checker ([`crate::rir::audit`]) can match each one to a certificate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BoundsMode {
    /// Run-time check; IndexOutOfRangeException on failure.
    Checked,
    /// Structural / counted-loop idiom matcher (`i < arr.Length` guards).
    ElidedIdiom,
    /// Symbolic range analysis (derived indices: `arr[i+k]`, triangular
    /// bounds, strided loops) proved the index in `[0, len)` statically.
    ElidedRange,
    /// Check-free fast clone of a loop, selected by an up-front
    /// loop-versioning guard; the checked original remains as fallback.
    ElidedVersioned,
}

impl BoundsMode {
    /// Does this access still test bounds at run time?
    #[inline]
    pub fn is_checked(self) -> bool {
        matches!(self, BoundsMode::Checked)
    }

    /// Mechanism name used in counters and reports (`None` when checked).
    pub fn mechanism(self) -> Option<&'static str> {
        match self {
            BoundsMode::Checked => None,
            BoundsMode::ElidedIdiom => Some("idiom"),
            BoundsMode::ElidedRange => Some("range"),
            BoundsMode::ElidedVersioned => Some("versioned"),
        }
    }

    /// Listing suffix; every elided variant starts with `.nobound` so
    /// "was the check removed at all" greps stay mechanism-agnostic.
    fn suffix(self) -> &'static str {
        match self {
            BoundsMode::Checked => "",
            BoundsMode::ElidedIdiom => ".nobound",
            BoundsMode::ElidedRange => ".nobound.rng",
            BoundsMode::ElidedVersioned => ".nobound.ver",
        }
    }
}

/// A register-IR instruction. `u16` fields are slot ids (virtual registers
/// before allocation, file-encoded slots after).
#[derive(Clone, Debug, PartialEq)]
pub enum RInst {
    Nop,
    /// Primitive move.
    MovP { dst: u16, src: u16 },
    /// Reference move.
    MovR { dst: u16, src: u16 },
    /// Load an immediate into a primitive slot.
    ConstP { dst: u16, bits: u64 },
    /// Load null into a reference slot.
    ConstNull { dst: u16 },
    /// Load a string literal.
    ConstStr { dst: u16, s: StrId },
    Bin { op: BinOp, ty: NumTy, dst: u16, a: u16, b: Operand },
    Un { op: UnOp, ty: NumTy, dst: u16, a: u16 },
    Conv { from: NumTy, to: NumTy, dst: u16, src: u16 },
    /// Numeric compare producing 0/1.
    Cmp { op: CmpOp, ty: NumTy, dst: u16, a: u16, b: Operand },
    /// Reference identity compare (Eq/Ne only) producing 0/1.
    CmpRef { op: CmpOp, dst: u16, a: u16, b: u16 },
    Br { t: u32 },
    /// Branch if the primitive slot is nonzero (or zero, when negated).
    BrIf { cond: u16, t: u32, negate: bool },
    /// Branch if the reference slot is non-null (or null, when negated).
    BrIfRef { cond: u16, t: u32, negate: bool },
    /// Fused compare-and-branch.
    BrCmp { op: CmpOp, ty: NumTy, a: u16, b: Operand, t: u32 },
    Call {
        target: MethodId,
        virt: bool,
        args: Box<[ArgSlot]>,
        dst: Option<DstSlot>,
    },
    CallIntr {
        i: Intrinsic,
        args: Box<[ArgSlot]>,
        dst: Option<DstSlot>,
    },
    Ret { src: Option<ArgSlot> },
    NewObj {
        ctor: MethodId,
        args: Box<[ArgSlot]>,
        dst: u16,
    },
    LdFld { obj: u16, slot: u32, dst: DstSlot },
    StFld { obj: u16, slot: u32, src: ArgSlot },
    LdSFld { slot: u32, dst: DstSlot },
    StSFld { slot: u32, src: ArgSlot },
    IsInst { class: ClassId, src: u16, dst: u16 },
    /// Class cast check; raises InvalidCastException, otherwise copies.
    CastClass { class: ClassId, src: u16, dst: u16 },
    NewArr { kind: ElemKind, len: u16, dst: u16 },
    LdLen { arr: u16, dst: u16 },
    /// `bounds` records whether the run-time check survives and, if not,
    /// which elimination mechanism removed it.
    LdElem { kind: ElemKind, arr: u16, idx: u16, dst: DstSlot, bounds: BoundsMode },
    StElem { kind: ElemKind, arr: u16, idx: u16, src: ArgSlot, bounds: BoundsMode },
    NewMulti { kind: ElemKind, dims: Box<[u16]>, dst: u16 },
    /// `helper: true` models the helper-call lowering of runtimes without
    /// optimized multidimensional accessors (Graph 12's effect).
    LdElemMulti { kind: ElemKind, arr: u16, idxs: Box<[u16]>, dst: DstSlot, helper: bool },
    StElemMulti { kind: ElemKind, arr: u16, idxs: Box<[u16]>, src: ArgSlot, helper: bool },
    LdMultiLen { arr: u16, dim: u8, dst: u16 },
    BoxV { ty: NumTy, src: u16, dst: u16 },
    UnboxV { ty: NumTy, src: u16, dst: u16 },
    Throw { src: u16 },
    Leave { t: u32 },
    EndFinally,
}

impl RInst {
    /// Branch target, if any.
    pub fn target(&self) -> Option<u32> {
        match self {
            RInst::Br { t }
            | RInst::BrIf { t, .. }
            | RInst::BrIfRef { t, .. }
            | RInst::BrCmp { t, .. }
            | RInst::Leave { t } => Some(*t),
            _ => None,
        }
    }

    /// Rewrite the branch target.
    pub fn set_target(&mut self, new: u32) {
        match self {
            RInst::Br { t }
            | RInst::BrIf { t, .. }
            | RInst::BrIfRef { t, .. }
            | RInst::BrCmp { t, .. }
            | RInst::Leave { t } => *t = new,
            _ => panic!("set_target on non-branch"),
        }
    }
}

/// A compiled (lowered, optimized, register-allocated) method.
#[derive(Clone, Debug)]
pub struct RirMethod {
    pub method: MethodId,
    pub code: Vec<RInst>,
    /// Exception regions over RIR instruction indices.
    pub eh: Vec<EhRegion>,
    /// For each EH region, the (allocated) reference slot that receives the
    /// in-flight exception at handler entry (catch handlers only).
    pub eh_exc_slots: Vec<u16>,
    /// Where each incoming argument is stored on entry.
    pub arg_locs: Vec<ArgSlot>,
    /// Primitive register-file size.
    pub n_preg: u16,
    /// Primitive spill-frame size.
    pub n_pspill: u16,
    /// Reference register-file size.
    pub n_rreg: u16,
    /// Reference spill-frame size.
    pub n_rspill: u16,
}

fn fmt_slot(prefix: char, s: u16) -> String {
    if is_spill(s) {
        format!("[{}sp{}]", prefix, slot_index(s))
    } else {
        format!("{}r{}", prefix, slot_index(s))
    }
}

fn fmt_operand(o: &Operand) -> String {
    match o {
        Operand::Slot(s) => fmt_slot('p', *s),
        Operand::Imm(v) => format!("#{:#x}", v),
    }
}

fn fmt_arg(a: &ArgSlot) -> String {
    match a {
        ArgSlot::P(ty, s) => format!("{}:{}", fmt_slot('p', *s), ty),
        ArgSlot::R(s) => fmt_slot('o', *s),
    }
}

fn fmt_dst(d: &DstSlot) -> String {
    match d {
        DstSlot::P(s) => fmt_slot('p', *s),
        DstSlot::R(s) => fmt_slot('o', *s),
    }
}

/// Render allocated RIR as an assembly-like listing. Spilled slots print
/// as `[psp3]` (memory operands), enregistered slots as `pr3` — so the
/// Mono-vs-CLR difference the paper shows in Tables 6–8 is visible at a
/// glance.
pub fn print_rir(r: &RirMethod) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "; regs: p={} (+{} spill)  o={} (+{} spill)",
        r.n_preg, r.n_pspill, r.n_rreg, r.n_rspill
    );
    for region in &r.eh {
        let _ = writeln!(
            out,
            "; eh {:?} try {}..{} handler {}..{}",
            region.kind, region.try_start, region.try_end, region.handler_start, region.handler_end
        );
    }
    for (i, inst) in r.code.iter().enumerate() {
        let text = match inst {
            RInst::Nop => "nop".to_string(),
            RInst::MovP { dst, src } => format!("mov   {}, {}", fmt_slot('p', *dst), fmt_slot('p', *src)),
            RInst::MovR { dst, src } => format!("mov   {}, {}", fmt_slot('o', *dst), fmt_slot('o', *src)),
            RInst::ConstP { dst, bits } => format!("mov   {}, #{:#x}", fmt_slot('p', *dst), bits),
            RInst::ConstNull { dst } => format!("mov   {}, null", fmt_slot('o', *dst)),
            RInst::ConstStr { dst, s } => format!("ldstr {}, str#{}", fmt_slot('o', *dst), s.0),
            RInst::Bin { op, ty, dst, a, b } => format!(
                "{:<5} {}, {}, {}  ; {ty}",
                op.mnemonic(),
                fmt_slot('p', *dst),
                fmt_slot('p', *a),
                fmt_operand(b)
            ),
            RInst::Un { op, ty, dst, a } => format!(
                "{:?}  {}, {}  ; {ty}",
                op,
                fmt_slot('p', *dst),
                fmt_slot('p', *a)
            ),
            RInst::Conv { from, to, dst, src } => format!(
                "conv  {}, {}  ; {from}->{to}",
                fmt_slot('p', *dst),
                fmt_slot('p', *src)
            ),
            RInst::Cmp { op, ty, dst, a, b } => format!(
                "c{}   {}, {}, {}  ; {ty}",
                op.mnemonic(),
                fmt_slot('p', *dst),
                fmt_slot('p', *a),
                fmt_operand(b)
            ),
            RInst::CmpRef { op, dst, a, b } => format!(
                "c{}.ref {}, {}, {}",
                op.mnemonic(),
                fmt_slot('p', *dst),
                fmt_slot('o', *a),
                fmt_slot('o', *b)
            ),
            RInst::Br { t } => format!("jmp   L{t}"),
            RInst::BrIf { cond, t, negate } => format!(
                "{}  {}, L{t}",
                if *negate { "jz " } else { "jnz" },
                fmt_slot('p', *cond)
            ),
            RInst::BrIfRef { cond, t, negate } => format!(
                "{} {}, L{t}",
                if *negate { "jnull " } else { "jnnull" },
                fmt_slot('o', *cond)
            ),
            RInst::BrCmp { op, ty, a, b, t } => format!(
                "j{}   {}, {}, L{t}  ; {ty}",
                op.mnemonic(),
                fmt_slot('p', *a),
                fmt_operand(b)
            ),
            RInst::Call { target, virt, args, dst } => format!(
                "call{} m#{} ({}){}",
                if *virt { "v" } else { " " },
                target.0,
                args.iter().map(fmt_arg).collect::<Vec<_>>().join(", "),
                dst.map(|d| format!(" -> {}", fmt_dst(&d))).unwrap_or_default()
            ),
            RInst::CallIntr { i, args, dst } => format!(
                "call  [{}] ({}){}",
                i.name(),
                args.iter().map(fmt_arg).collect::<Vec<_>>().join(", "),
                dst.map(|d| format!(" -> {}", fmt_dst(&d))).unwrap_or_default()
            ),
            RInst::Ret { src } => match src {
                Some(a) => format!("ret   {}", fmt_arg(a)),
                None => "ret".to_string(),
            },
            RInst::NewObj { ctor, args, dst } => format!(
                "new   m#{} ({}) -> {}",
                ctor.0,
                args.iter().map(fmt_arg).collect::<Vec<_>>().join(", "),
                fmt_slot('o', *dst)
            ),
            RInst::LdFld { obj, slot, dst } => format!(
                "ldfld {}, {}.f{}",
                fmt_dst(dst),
                fmt_slot('o', *obj),
                slot
            ),
            RInst::StFld { obj, slot, src } => format!(
                "stfld {}.f{}, {}",
                fmt_slot('o', *obj),
                slot,
                fmt_arg(src)
            ),
            RInst::LdSFld { slot, dst } => format!("ldsfld {}, s{}", fmt_dst(dst), slot),
            RInst::StSFld { slot, src } => format!("stsfld s{}, {}", slot, fmt_arg(src)),
            RInst::IsInst { class, src, dst } => format!(
                "isinst {}, {}, c#{}",
                fmt_slot('p', *dst),
                fmt_slot('o', *src),
                class.0
            ),
            RInst::CastClass { class, src, dst } => format!(
                "cast  {}, {}, c#{}",
                fmt_slot('o', *dst),
                fmt_slot('o', *src),
                class.0
            ),
            RInst::NewArr { kind, len, dst } => format!(
                "newarr.{} {}, {}",
                kind.suffix(),
                fmt_slot('o', *dst),
                fmt_slot('p', *len)
            ),
            RInst::LdLen { arr, dst } => {
                format!("ldlen {}, {}", fmt_slot('p', *dst), fmt_slot('o', *arr))
            }
            RInst::LdElem { kind, arr, idx, dst, bounds } => format!(
                "ldelem.{}{} {}, {}[{}]",
                kind.suffix(),
                bounds.suffix(),
                fmt_dst(dst),
                fmt_slot('o', *arr),
                fmt_slot('p', *idx)
            ),
            RInst::StElem { kind, arr, idx, src, bounds } => format!(
                "stelem.{}{} {}[{}], {}",
                kind.suffix(),
                bounds.suffix(),
                fmt_slot('o', *arr),
                fmt_slot('p', *idx),
                fmt_arg(src)
            ),
            RInst::NewMulti { kind, dims, dst } => format!(
                "newmarr.{} {} dims({})",
                kind.suffix(),
                fmt_slot('o', *dst),
                dims.iter().map(|d| fmt_slot('p', *d)).collect::<Vec<_>>().join(", ")
            ),
            RInst::LdElemMulti { kind, arr, idxs, dst, helper } => format!(
                "ldmelem.{}{} {}, {}[{}]",
                kind.suffix(),
                if *helper { ".helper" } else { "" },
                fmt_dst(dst),
                fmt_slot('o', *arr),
                idxs.iter().map(|d| fmt_slot('p', *d)).collect::<Vec<_>>().join(", ")
            ),
            RInst::StElemMulti { kind, arr, idxs, src, helper } => format!(
                "stmelem.{}{} {}[{}], {}",
                kind.suffix(),
                if *helper { ".helper" } else { "" },
                fmt_slot('o', *arr),
                idxs.iter().map(|d| fmt_slot('p', *d)).collect::<Vec<_>>().join(", "),
                fmt_arg(src)
            ),
            RInst::LdMultiLen { arr, dim, dst } => format!(
                "ldmlen {}, {}.dim{}",
                fmt_slot('p', *dst),
                fmt_slot('o', *arr),
                dim
            ),
            RInst::BoxV { ty, src, dst } => format!(
                "box.{} {}, {}",
                ty.suffix(),
                fmt_slot('o', *dst),
                fmt_slot('p', *src)
            ),
            RInst::UnboxV { ty, src, dst } => format!(
                "unbox.{} {}, {}",
                ty.suffix(),
                fmt_slot('p', *dst),
                fmt_slot('o', *src)
            ),
            RInst::Throw { src } => format!("throw {}", fmt_slot('o', *src)),
            RInst::Leave { t } => format!("leave L{t}"),
            RInst::EndFinally => "endfinally".to_string(),
        };
        let _ = writeln!(out, "L{i:<4} {text}");
    }
    out
}
