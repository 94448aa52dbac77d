//! Virtual-machine profiles.
//!
//! Section 5 of the paper traces every performance difference it measures
//! to the quality of the code each runtime's JIT emits. A [`VmProfile`]
//! encodes those mechanisms as explicit knobs; every profile executes the
//! *same verified CIL*, so differences in results come only from these:
//!
//! | Paper observation | Knob |
//! |---|---|
//! | Rotor: portability JIT, every local in memory, emulated `cdq` | `tier = Interpreter`, `emulate_cdq` |
//! | Mono 0.23: near-1:1 CIL lowering, one register, rest memory | `tier = Rir`, all passes off, `max_enreg_prim = 1` |
//! | CLR 1.1: registers + constants, 64-local enregistration cap | full passes, `max_enreg_prim = 64` |
//! | CLR 1.1: "something weird by temporarily storing the constant" in the division loop | `div_const_temp_quirk` |
//! | IBM JVM: "registers and constants throughout the loop" | `imm_fusion` |
//! | CLR: faster multiplication (Graph 1) | `mul_strength_reduction` |
//! | CLR: bounds check eliminated when the bound is `arr.Length` (+15 % on Sparse) | `bce` (structural matcher, range analysis, loop versioning) |
//! | Optimizing JITs keep loop-invariant work out of the body | `licm` |
//! | CLI exceptions ≫ JVM exceptions (Graph 5) | `exception_cost_units` |
//! | CLR math library faster than JVM's (Graphs 6–8) | `math` |
//! | True multidim accessors miss the optimizations even on CLR (Graph 12) | `multidim` (`FlatOffset` kept for ablation) |
//!
//! docs/OPTIMIZATIONS.md expands this table into a mechanism-by-mechanism
//! map with the RIR listings each knob produces; the `opt` report
//! (`hpcnet-report opt`) prints the per-profile pass counters these knobs
//! gate. Profiles feed the pipeline described in [`crate::rir`]: CIL →
//! lower → scalar passes → loop-aware tier → allocate → execute.

use crate::observe::ObserveLevel;

/// Which execution tier runs the code.
///
/// The two register tiers share one executor ([`crate::compiled`]: each
/// optimized RIR instruction pre-resolved to a closure at compile time)
/// and differ only in the slot allocator — one executor, two allocators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Direct stack interpretation (the SSCLI/Rotor portability tier).
    Interpreter,
    /// Stack-to-register translation with per-profile optimization passes;
    /// slots come from the use-count allocator, so the enregistration cap
    /// bounds the *total* number of locals and temporaries that ever own
    /// a register (CLR 1.1's "64 local variables" rule).
    Rir,
    /// The same optimized RIR with slots from a linear-scan allocator, so
    /// the enregistration cap bounds *simultaneously live* values rather
    /// than total locals.
    Compiled,
}

/// Math-library implementation quality (see [`hpcnet_runtime::math`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MathKind {
    /// Hardware/libm intrinsics (CLR-style).
    Fast,
    /// Software strict implementations (JVM-style).
    Strict,
}

/// How true multidimensional element accesses are compiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MultiDimStyle {
    /// Inline flat-offset computation (CLR 1.1's optimized accessors).
    FlatOffset,
    /// Helper-call lowering: per-access dimension walk with redundant
    /// re-validation, as unoptimized runtimes did.
    HelperCall,
}

/// Optimization-pass configuration for the register tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PassConfig {
    /// Constant propagation/folding.
    pub const_prop: bool,
    /// Copy propagation (eliminates the stack-shuffle moves).
    pub copy_prop: bool,
    /// Dead-code elimination.
    pub dce: bool,
    /// Fold constants into instructions as immediates ("constants in
    /// registers throughout the loop", Table 7's IBM codegen).
    pub imm_fusion: bool,
    /// Multiply-by-power-of-two → shift.
    pub mul_strength_reduction: bool,
    /// Reproduce CLR 1.1's quirk of spilling the divisor constant to a
    /// temporary before `idiv` (Table 6).
    pub div_const_temp_quirk: bool,
    /// Array bounds-check elimination, three certified mechanisms behind
    /// one knob: the structural matcher for `for (i = 0; i < a.Length;
    /// i++)` (`rir::opt`; the only one that works in loops overlapping
    /// exception regions), symbolic range analysis over natural loops
    /// (the same idiom plus derived indices `a[i+k]` and triangular
    /// bounds), and guarded loop versioning (a check-free clone behind an
    /// up-front null/length guard); see `rir::range`.
    pub bce: bool,
    /// Loop-invariant code motion: hoist invariant arithmetic and the
    /// guard's `ldlen` out of natural loops into the preheader.
    pub licm: bool,
    /// Inline small static/final callees.
    pub inline: bool,
    /// Maximum callee size (in RIR instructions) considered for inlining.
    pub inline_max_ops: usize,
}

impl PassConfig {
    /// Everything off — the Mono 0.23 "mirror the CIL" pipeline.
    pub const fn none() -> PassConfig {
        PassConfig {
            const_prop: false,
            copy_prop: false,
            dce: false,
            imm_fusion: false,
            mul_strength_reduction: false,
            div_const_temp_quirk: false,
            bce: false,
            licm: false,
            inline: false,
            inline_max_ops: 0,
        }
    }

    /// The full pipeline, before per-profile adjustments.
    pub const fn full() -> PassConfig {
        PassConfig {
            const_prop: true,
            copy_prop: true,
            dce: true,
            imm_fusion: true,
            mul_strength_reduction: true,
            div_const_temp_quirk: false,
            bce: true,
            licm: true,
            inline: true,
            inline_max_ops: 24,
        }
    }
}

/// A complete engine configuration modeling one of the paper's platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VmProfile {
    /// Display name matching the paper's graph legends.
    pub name: &'static str,
    pub tier: Tier,
    pub passes: PassConfig,
    /// How many primitive virtual registers may live in the register file;
    /// the rest spill to the (slower) frame arena. CLR 1.1's documented
    /// limit is 64.
    pub max_enreg_prim: u16,
    /// Same cap for reference registers.
    pub max_enreg_ref: u16,
    /// Interpreter tier: emulate `cdq` with loads and shifts before every
    /// signed division (the SSCLI 1.0 JIT behavior in Table 8).
    pub emulate_cdq: bool,
    /// Interpreter tier: route every instruction through the portability
    /// abstraction layer (an uninlinable helper call with memory traffic)
    /// — SSCLI trades performance for portability by calling through PAL
    /// helpers where the commercial JIT inlines.
    pub portability_shim: bool,
    /// Units of stack-trace/unwind work performed per managed throw. The
    /// CLI's two-pass SEH-style unwind makes this large; the JVM's is
    /// cheap (Graph 5).
    pub exception_cost_units: u32,
    pub math: MathKind,
    pub multidim: MultiDimStyle,
    /// How much the VM records while executing (docs/OBSERVABILITY.md).
    /// `Off` in every stock profile; not part of the modeled platform, so
    /// it must never change execution results — the conform fuzzer runs
    /// the whole engine matrix with this raised to prove it.
    pub observe: ObserveLevel,
    /// Run the independent elision-certificate checker (`rir::audit`) on
    /// every compiled method and fail the compile hard if any elided
    /// bounds check lacks a sound certificate. `false` in every stock
    /// profile (it is a verification harness, not a modeled platform
    /// knob); the conform matrix switches it on.
    pub audit: bool,
}

impl VmProfile {
    /// The same profile with a different [`ObserveLevel`] (builder-style,
    /// usable in consts).
    pub const fn with_observe(mut self, level: ObserveLevel) -> VmProfile {
        self.observe = level;
        self
    }

    /// The same profile with the elision-certificate audit toggled
    /// (builder-style, usable in consts).
    pub const fn with_audit(mut self, audit: bool) -> VmProfile {
        self.audit = audit;
        self
    }

    /// The same profile running on a different [`Tier`] (builder-style,
    /// usable in consts). The conform matrix uses this to run every
    /// register-tier profile's pass configuration under the linear-scan
    /// allocator as well.
    pub const fn with_tier(mut self, tier: Tier) -> VmProfile {
        self.tier = tier;
        self
    }

    /// CLR 1.1 codegen knobs with linear-scan allocation — the "what if
    /// registers were reused across lifetimes" engine the bench harness
    /// compares against [`VmProfile::clr11`].
    pub const fn clr11_compiled() -> VmProfile {
        let mut p = Self::clr11();
        p.name = "C# .NET 1.1 (threaded)";
        p.tier = Tier::Compiled;
        p
    }

    /// Microsoft .NET CLR 1.1 — the optimizing commercial CLI JIT.
    pub const fn clr11() -> VmProfile {
        let mut p = PassConfig::full();
        p.div_const_temp_quirk = true; // Table 6's extra constant store
        p.imm_fusion = false; // CLR kept operands in registers, not imms
        VmProfile {
            name: "C# .NET 1.1",
            tier: Tier::Rir,
            passes: p,
            max_enreg_prim: 64,
            max_enreg_ref: 64,
            emulate_cdq: false,
            portability_shim: false,
            exception_cost_units: 8,
            math: MathKind::Fast,
            // Graph 12's irony: even on CLR 1.1 the multidimensional
            // accessors miss the optimizations jagged code enjoys — they
            // run at ~25% of jagged throughput. The `FlatOffset` style
            // exists for ablation (what optimized accessors would do).
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// Microsoft J# on .NET 1.1 — the CLR engine fed slightly poorer IL.
    pub const fn jsharp11() -> VmProfile {
        let mut p = PassConfig::full();
        p.div_const_temp_quirk = true;
        p.imm_fusion = false;
        p.mul_strength_reduction = false;
        p.inline = false;
        VmProfile {
            name: "J# .NET 1.1",
            tier: Tier::Rir,
            passes: p,
            max_enreg_prim: 32,
            max_enreg_ref: 32,
            emulate_cdq: false,
            portability_shim: false,
            exception_cost_units: 8,
            math: MathKind::Fast,
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// Mono 0.23 — machine code "very close to the actual CIL".
    pub const fn mono023() -> VmProfile {
        VmProfile {
            name: "Mono-0.23",
            tier: Tier::Rir,
            passes: PassConfig::none(),
            max_enreg_prim: 1,
            max_enreg_ref: 1,
            emulate_cdq: false,
            portability_shim: false,
            exception_cost_units: 10,
            math: MathKind::Fast,
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// SSCLI 1.0 "Rotor" — the portability-first shared-source CLI.
    pub const fn sscli10() -> VmProfile {
        VmProfile {
            name: "Rotor 1.0",
            tier: Tier::Interpreter,
            passes: PassConfig::none(),
            max_enreg_prim: 0,
            max_enreg_ref: 0,
            emulate_cdq: true,
            portability_shim: true,
            exception_cost_units: 12,
            math: MathKind::Fast,
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// IBM JVM 1.3.1 — the top-of-the-line JVM in the paper.
    pub const fn jvm_ibm131() -> VmProfile {
        let mut p = PassConfig::full();
        p.mul_strength_reduction = false; // CLR wins multiplication
        VmProfile {
            name: "Java IBM 1.3.1",
            tier: Tier::Rir,
            passes: p,
            max_enreg_prim: 64,
            max_enreg_ref: 64,
            emulate_cdq: false,
            portability_shim: false,
            exception_cost_units: 1,
            math: MathKind::Strict,
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// BEA JRockit 8.1 server JVM.
    pub const fn jvm_bea81() -> VmProfile {
        let mut p = PassConfig::full();
        p.mul_strength_reduction = false;
        p.imm_fusion = false;
        p.bce = false;
        VmProfile {
            name: "Java BEA JRockit 8.1",
            tier: Tier::Rir,
            passes: p,
            max_enreg_prim: 48,
            max_enreg_ref: 48,
            emulate_cdq: false,
            portability_shim: false,
            exception_cost_units: 1,
            math: MathKind::Strict,
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// Sun HotSpot 1.4.
    pub const fn jvm_sun14() -> VmProfile {
        let mut p = PassConfig::full();
        p.mul_strength_reduction = false;
        p.imm_fusion = false;
        p.bce = false;
        p.inline = false;
        VmProfile {
            name: "Java Sun 1.4",
            tier: Tier::Rir,
            passes: p,
            max_enreg_prim: 24,
            max_enreg_ref: 24,
            emulate_cdq: false,
            portability_shim: false,
            exception_cost_units: 1,
            math: MathKind::Strict,
            multidim: MultiDimStyle::HelperCall,
            observe: ObserveLevel::Off,
            audit: false,
        }
    }

    /// The three CLI implementations the paper benchmarks (Graphs 1–8).
    pub fn cli_lineup() -> Vec<VmProfile> {
        vec![Self::clr11(), Self::mono023(), Self::sscli10()]
    }

    /// The bench-harness lineup: the paper's CLI trio plus the
    /// direct-threaded compiled tier, so every `BENCH_*.json` artifact
    /// carries the dispatch-elimination comparison alongside the
    /// historical engines.
    pub fn bench_lineup() -> Vec<VmProfile> {
        vec![
            Self::clr11(),
            Self::clr11_compiled(),
            Self::mono023(),
            Self::sscli10(),
        ]
    }

    /// The micro-benchmark lineup: IBM JVM vs the three CLIs (Section 4).
    pub fn micro_lineup() -> Vec<VmProfile> {
        vec![
            Self::jvm_ibm131(),
            Self::clr11(),
            Self::mono023(),
            Self::sscli10(),
        ]
    }

    /// The full SciMark lineup of Graph 9 (native C is handled separately
    /// by the harness).
    pub fn scimark_lineup() -> Vec<VmProfile> {
        vec![
            Self::jvm_ibm131(),
            Self::clr11(),
            Self::jvm_bea81(),
            Self::jsharp11(),
            Self::jvm_sun14(),
            Self::mono023(),
            Self::sscli10(),
        ]
    }

    /// Is this one of the CLI implementations (vs a JVM)?
    pub fn is_cli(&self) -> bool {
        matches!(
            self.name,
            "C# .NET 1.1" | "J# .NET 1.1" | "Mono-0.23" | "Rotor 1.0"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineups_have_expected_sizes() {
        assert_eq!(VmProfile::cli_lineup().len(), 3);
        assert_eq!(VmProfile::bench_lineup().len(), 4);
        assert_eq!(VmProfile::micro_lineup().len(), 4);
        assert_eq!(VmProfile::scimark_lineup().len(), 7);
    }

    #[test]
    fn compiled_variant_shares_clr_knobs() {
        let base = VmProfile::clr11();
        let compiled = VmProfile::clr11_compiled();
        assert_eq!(compiled.tier, Tier::Compiled);
        assert_eq!(compiled.passes, base.passes);
        assert_eq!(compiled.max_enreg_prim, base.max_enreg_prim);
        assert_ne!(compiled.name, base.name, "artifact keys must differ");
        // with_tier only changes the tier.
        let t = base.with_tier(Tier::Compiled);
        assert_eq!(t.tier, Tier::Compiled);
        assert_eq!(t.with_tier(Tier::Rir), base);
    }

    #[test]
    fn rotor_is_the_interpreter() {
        assert_eq!(VmProfile::sscli10().tier, Tier::Interpreter);
        assert!(VmProfile::sscli10().emulate_cdq);
        assert_eq!(VmProfile::clr11().tier, Tier::Rir);
    }

    #[test]
    fn cli_exceptions_cost_more_than_jvm() {
        for cli in VmProfile::cli_lineup() {
            assert!(cli.exception_cost_units > VmProfile::jvm_ibm131().exception_cost_units);
        }
    }

    #[test]
    fn clr_enregisters_64_locals() {
        assert_eq!(VmProfile::clr11().max_enreg_prim, 64);
        assert_eq!(VmProfile::mono023().max_enreg_prim, 1);
    }

    #[test]
    fn cli_classification() {
        assert!(VmProfile::clr11().is_cli());
        assert!(VmProfile::mono023().is_cli());
        assert!(!VmProfile::jvm_ibm131().is_cli());
    }

    #[test]
    fn jvm_math_is_strict_cli_math_is_fast() {
        assert_eq!(VmProfile::clr11().math, MathKind::Fast);
        assert_eq!(VmProfile::jvm_ibm131().math, MathKind::Strict);
        assert_eq!(VmProfile::jvm_sun14().math, MathKind::Strict);
    }

    #[test]
    fn observe_defaults_off_and_with_observe_only_changes_level() {
        for p in VmProfile::scimark_lineup() {
            assert_eq!(p.observe, ObserveLevel::Off);
            let traced = p.with_observe(ObserveLevel::Trace);
            assert_eq!(traced.observe, ObserveLevel::Trace);
            // Everything else is untouched.
            assert_eq!(traced.with_observe(ObserveLevel::Off), p);
        }
    }
}
