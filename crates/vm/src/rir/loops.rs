//! Natural-loop detection over the RIR control-flow graph.
//!
//! The loop-aware passes (range analysis and versioning in `rir::range`,
//! LICM in [`crate::rir::opt`]) need the structure the era's optimizing
//! JITs recovered before anything else: basic blocks, dominators, and
//! natural loops (back edges whose target dominates their source, plus
//! the backward-reachable body). The CFG here
//! covers *normal* control flow only; any loop whose instructions overlap
//! an exception region is reported as not `clean` and the loop passes skip
//! it — the era's JITs likewise gave up on protected regions, and every
//! Grande/SciMark kernel body is EH-free.

use crate::rir::lower::Lowered;
use crate::rir::RInst;
use std::collections::BTreeSet;

/// Basic-block partition of a [`Lowered`] body with normal-flow edges.
pub(crate) struct Cfg {
    /// Sorted block start pcs.
    pub heads: Vec<u32>,
    /// Half-open instruction range per block.
    pub ranges: Vec<(usize, usize)>,
    pub succs: Vec<Vec<usize>>,
    pub preds: Vec<Vec<usize>>,
}

impl Cfg {
    pub fn build(l: &Lowered) -> Cfg {
        let n = l.code.len();
        let mut heads: Vec<u32> = super::opt::leaders(l)
            .into_iter()
            .filter(|&h| h < n as u32)
            .collect();
        heads.sort_unstable();
        let nb = heads.len();
        let block_of = |pc: u32| -> usize {
            match heads.binary_search(&pc) {
                Ok(b) => b,
                Err(b) => b - 1,
            }
        };
        let mut ranges = Vec::with_capacity(nb);
        for b in 0..nb {
            let start = heads[b] as usize;
            let end = if b + 1 < nb { heads[b + 1] as usize } else { n };
            ranges.push((start, end));
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for b in 0..nb {
            let (_, end) = ranges[b];
            let last = &l.code[end - 1];
            if let Some(t) = last.target() {
                succs[b].push(block_of(t));
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
                succs[b].push(block_of(end as u32));
            }
        }
        for b in 0..nb {
            for &s in &succs[b] {
                preds[s].push(b);
            }
        }
        Cfg { heads, ranges, succs, preds }
    }

    pub fn block_of(&self, pc: u32) -> usize {
        match self.heads.binary_search(&pc) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    }

    /// Dominator sets via iterative bit-vector dataflow, one flat `u64`
    /// row per block (blocks are few; simplicity over the Lengauer–Tarjan
    /// constant). `row(b)` has bit `d` set when block `d` dominates `b`;
    /// a block with no predecessors converges to `{b}` alone and thus
    /// never contributes a non-trivial back edge.
    fn dominators(&self) -> DomSets {
        let nb = self.ranges.len();
        let words = nb.div_ceil(64);
        let mut bits: Vec<u64> = vec![u64::MAX; nb * words];
        bits[..words].fill(0);
        bits[0] = 1; // entry dominated only by itself
        let mut row = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..nb {
                row.fill(if self.preds[b].is_empty() { 0 } else { u64::MAX });
                for &p in &self.preds[b] {
                    for (r, d) in row.iter_mut().zip(&bits[p * words..(p + 1) * words]) {
                        *r &= *d;
                    }
                }
                row[b / 64] |= 1u64 << (b % 64);
                if row != bits[b * words..(b + 1) * words] {
                    bits[b * words..(b + 1) * words].copy_from_slice(&row);
                    changed = true;
                }
            }
        }
        DomSets { words, bits }
    }
}

/// Flat bitset dominator matrix produced by [`Cfg::dominators`].
struct DomSets {
    words: usize,
    bits: Vec<u64>,
}

impl DomSets {
    /// Does block `d` dominate block `b`?
    fn dominates(&self, d: usize, b: usize) -> bool {
        self.bits[b * self.words + d / 64] >> (d % 64) & 1 != 0
    }
}

/// One natural loop: a header block and the blocks that can reach a back
/// edge without leaving through the header. Loops sharing a header are
/// merged.
pub(crate) struct NaturalLoop {
    pub header: usize,
    pub body: BTreeSet<usize>,
    /// No instruction of the loop lies inside any EH try or handler range,
    /// so exception edges cannot re-enter the body and the loop passes may
    /// reason over normal flow alone.
    pub clean: bool,
}

impl NaturalLoop {
    /// Is instruction `pc` inside the loop?
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn contains_pc(&self, cfg: &Cfg, pc: usize) -> bool {
        self.body.contains(&cfg.block_of(pc as u32))
    }
}

/// Find all natural loops (merged per header), headers in ascending order.
pub(crate) fn find_loops(l: &Lowered, cfg: &Cfg) -> Vec<NaturalLoop> {
    let dom = cfg.dominators();
    let nb = cfg.ranges.len();
    // Back edges b -> h where h dominates b.
    let mut latches_of: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for b in 0..nb {
        for &s in &cfg.succs[b] {
            if dom.dominates(s, b) {
                latches_of[s].push(b);
            }
        }
    }
    let mut out = Vec::new();
    for h in 0..nb {
        if latches_of[h].is_empty() {
            continue;
        }
        // Body: header plus backward closure from the latches that stops
        // at the header.
        let mut body = BTreeSet::from([h]);
        let mut stack = latches_of[h].clone();
        while let Some(b) = stack.pop() {
            if body.insert(b) {
                stack.extend(cfg.preds[b].iter().copied());
            }
        }
        let clean = body.iter().all(|&b| {
            let (start, end) = cfg.ranges[b];
            l.eh.iter().all(|r| {
                let outside_try = end as u32 <= r.try_start || start as u32 >= r.try_end;
                let outside_handler =
                    end as u32 <= r.handler_start || start as u32 >= r.handler_end;
                outside_try && outside_handler
            })
        });
        out.push(NaturalLoop { header: h, body, clean });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rir::lower::Lowered;
    use crate::rir::{Operand, RInst};
    use hpcnet_cil::{CmpOp, NumTy};

    fn lowered(code: Vec<RInst>) -> Lowered {
        Lowered {
            code,
            eh: Vec::new(),
            eh_exc_vregs: Vec::new(),
            arg_locs: Vec::new(),
            n_pvreg: 8,
            n_rvreg: 2,
            certs: Vec::new(),
        }
    }

    #[test]
    fn counted_loop_is_detected() {
        // 0: i = 0
        // 1: if i >= 10 goto 4   <- header
        // 2: i = i + 1
        // 3: goto 1              <- latch / back edge
        // 4: ret
        let l = lowered(vec![
            RInst::ConstP { dst: 0, bits: 0 },
            RInst::BrCmp { op: CmpOp::Ge, ty: NumTy::I4, a: 0, b: Operand::Imm(10), t: 4 },
            RInst::Bin {
                op: hpcnet_cil::BinOp::Add,
                ty: NumTy::I4,
                dst: 0,
                a: 0,
                b: Operand::Imm(1),
            },
            RInst::Br { t: 1 },
            RInst::Ret { src: None },
        ]);
        let cfg = Cfg::build(&l);
        let loops = find_loops(&l, &cfg);
        assert_eq!(loops.len(), 1);
        let lp = &loops[0];
        assert!(lp.clean);
        assert_eq!(cfg.ranges[lp.header].0, 1);
        assert!(lp.contains_pc(&cfg, 2));
        assert!(!lp.contains_pc(&cfg, 0));
        assert!(!lp.contains_pc(&cfg, 4));
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let l = lowered(vec![
            RInst::ConstP { dst: 0, bits: 7 },
            RInst::Ret { src: None },
        ]);
        let cfg = Cfg::build(&l);
        assert!(find_loops(&l, &cfg).is_empty());
    }
}
