//! Differential testing of the execution tiers.
//!
//! The reproduction's core claim is that every profile — interpreter,
//! Mono-style unoptimized translation, and the fully-optimizing CLR/IBM
//! pipelines (constant propagation, copy propagation, liveness DCE,
//! loop-aware bounds-check elimination, LICM, inlining, enregistration) —
//! computes the *same function*. These tests generate MiniC# programs from
//! a deterministic PRNG (no crates.io dependency, so they run in the
//! offline tier-1 verify) and require bit-identical integer results and
//! exact floating-point agreement across all tiers.
//!
//! Status: every case in this file runs un-ignored and passes. The much
//! larger generative matrix — every profile of the paper's lineup crossed
//! with every `bce`/`licm` pass combination, plus trap and console
//! comparison and a shrinker for failures — lives in `crates/conform`
//! (see `docs/TESTING.md`); this file keeps the small, fast facade-level
//! differential checks.

use hpcnet::{compile_and_load, Tier, Value, VmProfile};

/// Deterministic 64-bit LCG (MMIX constants) so the generated corpus is
/// identical on every run and failures reproduce from the case index.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.below((hi - lo) as u64) as i32)
    }
}

/// A random integer expression over variables a, b, c with total-function
/// arithmetic (divisions guarded so no profile can trap).
fn int_expr(rng: &mut Lcg, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(4) {
            0 => "a".to_string(),
            1 => "b".to_string(),
            2 => "c".to_string(),
            _ => format!("{}", rng.range_i32(-100, 100)),
        };
    }
    let x = int_expr(rng, depth - 1);
    match rng.below(11) {
        0 => format!("({x} + {})", int_expr(rng, depth - 1)),
        1 => format!("({x} - {})", int_expr(rng, depth - 1)),
        2 => format!("({x} * {})", int_expr(rng, depth - 1)),
        3 => format!("({x} / ((({}) & 15) + 1))", int_expr(rng, depth - 1)),
        4 => format!("({x} % ((({}) & 15) + 1))", int_expr(rng, depth - 1)),
        5 => format!("({x} ^ {})", int_expr(rng, depth - 1)),
        6 => format!("({x} & {})", int_expr(rng, depth - 1)),
        7 => format!("({x} | {})", int_expr(rng, depth - 1)),
        8 => format!("({x} << {})", rng.below(31)),
        9 => format!("({x} >> {})", rng.below(31)),
        _ => format!(
            "(({x}) > 0 ? ({}) : ({}))",
            int_expr(rng, depth - 1),
            int_expr(rng, depth - 1)
        ),
    }
}

/// A random program: a loop that folds the expressions into an
/// accumulator, exercising locals, branches, and the array path.
fn program(exprs: &[String]) -> String {
    let mut body = String::new();
    for (i, e) in exprs.iter().enumerate() {
        body.push_str(&format!(
            "acc = acc * 31 + {e};\n                    scratch[{}] = acc;\n",
            i % 4
        ));
    }
    format!(
        r#"
        class Gen {{
            static int Run(int a, int b) {{
                int c = a ^ b;
                int acc = 0;
                int[] scratch = new int[4];
                for (int iter = 0; iter < 7; iter++) {{
                    {body}
                    a = a + scratch[iter & 3];
                    b = b - 1;
                }}
                return acc + scratch[0] + scratch[3] + a;
            }}
        }}"#
    )
}

fn profiles() -> Vec<VmProfile> {
    vec![
        VmProfile::sscli10(),
        VmProfile::mono023(),
        VmProfile::clr11(),
        VmProfile::jvm_ibm131(),
        VmProfile::jvm_sun14(),
        // The linear-scan allocator: same CLR knobs and executor, register
        // reuse across lifetimes instead of use-count ranking.
        VmProfile::clr11_compiled(),
        VmProfile::mono023().with_tier(Tier::Compiled),
    ]
}

#[test]
fn all_tiers_compute_the_same_integers() {
    for case in 0..48u64 {
        let mut rng = Lcg::new(case);
        let n_exprs = 1 + rng.below(3) as usize;
        let exprs: Vec<String> =
            (0..n_exprs).map(|_| int_expr(&mut rng, 3)).collect();
        let src = program(&exprs);
        let a = rng.range_i32(-1000, 1000);
        let b = rng.range_i32(-1000, 1000);
        let mut expected: Option<i32> = None;
        for p in profiles() {
            let vm = compile_and_load(&src, p.clone())
                .unwrap_or_else(|e| panic!("case {case}: compile failed: {e}\n{src}"));
            let r = vm
                .invoke_by_name("Gen.Run", vec![Value::I4(a), Value::I4(b)])
                .unwrap_or_else(|e| {
                    panic!("case {case}: run failed on {}: {e}\n{src}", p.name)
                })
                .unwrap()
                .as_i4();
            match expected {
                None => expected = Some(r),
                Some(want) => assert_eq!(
                    r, want,
                    "case {case}: profile {} diverged on a={a} b={b}\n{src}",
                    p.name
                ),
            }
        }
    }
}

#[test]
fn float_arithmetic_is_bit_identical_across_tiers() {
    // FP add/mul/div are IEEE-deterministic; every tier must agree bit
    // for bit (the math *library* differs by profile, plain arithmetic
    // must not).
    let src = r#"
        class F {
            static double Run(double x, double y) {
                double s = 0.0;
                for (int i = 0; i < 10; i++) {
                    s = s * 0.5 + (x - y) * (x + y) / (1.0 + x * x);
                    x = x + 0.25;
                    y = y - 0.125;
                }
                return s;
            }
        }"#;
    let mut rng = Lcg::new(0xf10a7);
    for case in 0..32 {
        let x = (rng.range_i32(-1_000_000, 1_000_000) as f64) / 3.0;
        let y = (rng.range_i32(-1_000_000, 1_000_000) as f64) / 7.0;
        let mut expected: Option<u64> = None;
        for p in profiles() {
            let vm = compile_and_load(src, p.clone()).unwrap();
            let r = vm
                .invoke_by_name("F.Run", vec![Value::R8(x), Value::R8(y)])
                .unwrap()
                .unwrap()
                .as_r8();
            match expected {
                None => expected = Some(r.to_bits()),
                Some(want) => assert_eq!(
                    r.to_bits(),
                    want,
                    "case {case}: profile {} diverged on {x},{y}",
                    p.name
                ),
            }
        }
    }
}
