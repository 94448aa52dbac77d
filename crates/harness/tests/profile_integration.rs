//! Integration guarantees of the `hpcnet-report profile` artifact:
//!
//! 1. **Determinism** — the document is built from counts only (no wall
//!    times, no environment probes), so two consecutive runs of the same
//!    build must produce byte-identical JSON.
//! 2. **Mechanism attribution** — per-profile bounds-checks-executed
//!    counts differ *exactly* where the `bce` knob predicts: the
//!    dynamic access total (executed + elided) is invariant across
//!    profiles, profiles without elimination passes elide nothing, and
//!    the delta rows against the reference equal the reference's elided
//!    count to the access.

use hpcnet_core::json::{check_document, Json};
use hpcnet_harness::profile::{run_profile, validate, ProfileConfig};

fn cfg(n: i32) -> ProfileConfig {
    ProfileConfig { n: Some(n), large: false, quick: false }
}

fn profile_obj<'j>(doc: &'j Json, name: &str) -> &'j Json {
    doc.get("profiles")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|p| p.get("profile").unwrap().as_str() == Some(name))
        .unwrap_or_else(|| panic!("profile {name} missing"))
}

fn total(doc: &Json, profile: &str, key: &str) -> f64 {
    profile_obj(doc, profile)
        .get("totals")
        .unwrap()
        .get(key)
        .unwrap_or_else(|| panic!("totals.{key} missing"))
        .as_f64()
        .unwrap()
}

#[test]
fn profile_document_is_bit_identical_across_consecutive_runs() {
    let a = run_profile("loop.for", &cfg(512)).unwrap().doc.render();
    let b = run_profile("loop.for", &cfg(512)).unwrap().doc.render();
    assert_eq!(a, b, "profile artifact must be deterministic");
    check_document(&a, validate).unwrap();
}

#[test]
fn bounds_check_counts_differ_exactly_where_the_knobs_predict() {
    // FFT is dominated by 1-D `data.Length`-guarded loops, the exact
    // shape bounds-check elimination (`bce`) targets.
    let run = run_profile("scimark.fft", &cfg(256)).unwrap();
    let doc = &run.doc;
    check_document(&doc.render(), validate).unwrap();

    let clr = "C# .NET 1.1"; // bce + licm on (reference profile)
    let mono = "Mono-0.23"; // register tier, every pass off
    let rotor = "Rotor 1.0"; // interpreter tier

    // The dynamic access count is an invariant of the program, not the
    // engine: elimination converts executed checks to elided ones 1:1.
    let accesses = |p: &str| {
        total(doc, p, "bounds_checks_executed") + total(doc, p, "bounds_checks_elided")
    };
    assert_eq!(accesses(clr), accesses(mono), "access total must not depend on passes");
    assert_eq!(accesses(clr), accesses(rotor), "access total must not depend on tier");

    // No elimination pass → nothing elided; every check executes.
    assert_eq!(total(doc, mono, "bounds_checks_elided"), 0.0);
    assert_eq!(total(doc, rotor, "bounds_checks_elided"), 0.0);
    assert_eq!(
        total(doc, mono, "bounds_checks_executed"),
        total(doc, rotor, "bounds_checks_executed"),
        "pass-less register tier and interpreter execute identical check counts"
    );

    // The optimizing profile elided a real share, and the delta rows in
    // the attribution section equal its elided count exactly.
    let elided = total(doc, clr, "bounds_checks_elided");
    assert!(elided > 0.0, "CLR 1.1 should eliminate checks on FFT");
    let deltas = doc.get("attribution").unwrap().get("deltas").unwrap().as_arr().unwrap();
    for d in deltas {
        let name = d.get("profile").unwrap().as_str().unwrap();
        let bc_delta = d.get("bounds_checks_executed_delta").unwrap().as_f64().unwrap();
        assert_eq!(bc_delta, elided, "{name}: delta must equal the reference's elided count");
        let mechanisms: Vec<&str> = d
            .get("mechanisms")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| m.as_str().unwrap())
            .collect();
        assert!(
            mechanisms.iter().any(|m| m.contains("bounds-check elimination")),
            "{name}: mechanisms must name bounds-check elimination: {mechanisms:?}"
        );
    }

    // Event-trace sanity: the JIT tiers emit compile events, the
    // interpreter emits none.
    let jit_events = |p: &str| {
        profile_obj(doc, p).get("events").unwrap().get("jit").unwrap().as_arr().unwrap().len()
    };
    assert!(jit_events(clr) > 0, "CLR must record JitCompile events");
    assert!(jit_events(mono) > 0, "Mono compiles to RIR too");
    assert_eq!(jit_events(rotor), 0, "the interpreter never JITs");
}
