//! Shows what bounds-check elimination and LICM do to a counted loop:
//! the same MiniC# sums compiled by CLR 1.1 with the `bce` and `licm`
//! knobs off and on.
//!
//! With both off every access keeps its check. With them on, `RowSum`
//! (a clean counted loop) is simple enough for the structural BCE
//! matcher, and LICM hoists the `ldlen` out of the loop. `SumThenPeek`
//! reuses the index variable after the loop (`j = row.Length - 1`),
//! which taints it for the whole-method structural matcher; range
//! analysis reasons per natural loop, so it still unchecks the in-loop
//! access (labelled idiom: offset 0 under a direct length guard) while
//! leaving the post-loop peek checked. docs/OPTIMIZATIONS.md embeds this
//! output.
//!
//! ```text
//! cargo run --release --example loop_opt_compare
//! ```

use hpcnet::{compile, print_rir, Vm, VmProfile};

fn main() {
    let source = r#"
        class Bench {
            static double RowSum(double[] row) {
                double sum = 0.0;
                for (int j = 0; j < row.Length; j++) {
                    sum = sum + row[j];
                }
                return sum;
            }
            static double SumThenPeek(double[] row) {
                double sum = 0.0;
                int j = 0;
                for (j = 0; j < row.Length; j++) {
                    sum = sum + row[j];
                }
                j = row.Length - 1;
                if (j >= 0) {
                    sum = sum + row[j];
                }
                return sum;
            }
        }"#;
    let module = compile(source).expect("compile");

    let mut off = VmProfile::clr11();
    off.name = "CLR 1.1 (bce and licm off)";
    off.passes.bce = false;
    off.passes.licm = false;
    let on = VmProfile::clr11();

    for profile in [off, on] {
        let vm = Vm::new(module.clone(), profile).expect("load");
        for method in ["Bench.RowSum", "Bench.SumThenPeek"] {
            let id = vm.module.find_method(method).unwrap();
            let code = vm.compiled(id).expect("translate");
            println!("===== {method} on {} =====", profile.name);
            println!("{}", print_rir(&code.rir));
        }
        let c = vm.counters.snapshot();
        println!(
            "loops found: {}, bounds checks eliminated: {} (idiom {} / range {} / versioned {}), hoisted: {}\n",
            c.loops_found,
            c.bounds_checks_eliminated,
            c.bce_elided_idiom,
            c.bce_elided_range,
            c.bce_elided_versioned,
            c.licm_hoisted,
        );
    }
}
