//! The `hpcnet-report profile` artifact: per-method attribution for one
//! benchmark entry across the CLI lineup.
//!
//! Where `bench` answers *how fast* each engine runs an entry, `profile`
//! answers *why*: every profile executes the entry **once** at a fixed
//! problem size with the VM's attribution profiler at full level
//! ([`hpcnet_core::ObserveLevel::Trace`]), and the per-method opcode,
//! bounds-check, allocation and exception-dispatch counts are written to
//! a schema'd `PROFILE_<entry>.json` together with the JIT event trace
//! (per-pass compile outcomes, loop-pass rejection reasons).
//!
//! The document carries **counts only — no wall times** — so two
//! consecutive runs on the same build produce byte-identical files; the
//! integration tests assert this. Per-profile deltas against the
//! reference engine (the first of the lineup, CLR 1.1) are annotated with
//! the docs/OPTIMIZATIONS.md mechanism knobs that explain them:
//! bounds-checks-executed maps to mechanism 4 (`bce`), managed
//! calls map to the `inline` knob, and interpreter-tier rows are marked
//! as executing every check with no JIT passes at all.
//!
//! `--overhead` is the exception: it *does* time the entry (via the
//! normal [`crate::measure`] protocol) at each [`ObserveLevel`] and
//! prints the rates, demonstrating that `Off` costs nothing measurable.
//! Those rates go to stdout only, never into the JSON.

use crate::counters::{
    check_method_counters, check_observer_totals, check_vm_counters, elided_split,
    observer_totals_json,
};
use crate::measure::{time_entry, MeasureError};
use crate::report::Table;
use hpcnet_core::json::{Check, Json};
use hpcnet_core::{
    find_entry, registry, run_entry, vm_for, BenchGroup, CountersSnapshot, Entry, Event,
    MethodProfile, ObserveLevel, ObserveReport, Tier, Vm, VmProfile,
};
use std::sync::Arc;
use std::time::Duration;

/// Document format version (bump on breaking schema changes).
/// 1.1: totals, per-method rows and JIT events split elided bounds checks
/// by mechanism (idiom guard / symbolic range / loop versioning), the
/// passes object carries the `range_abce`/`loop_versioning` knobs, and
/// attribution deltas include the per-mechanism dynamic split.
/// 1.2: `totals` carries the VM counter table under its own names
/// (`bounds_checks_eliminated_static` became `bounds_checks_eliminated`,
/// `loops_found` added).
/// 1.3: one `bce` knob replaces `bce`/`abce`/`range_abce`/`loop_versioning`
/// in the passes object; JIT events report `idiom_removed` in place of
/// `bce_removed` + `abce_removed`.
pub const PROFILE_SCHEMA_VERSION: f64 = 1.3;

/// Hot methods kept per profile (the rest are summarized by
/// `methods_total` so the cap is never silent).
const TOP_METHODS: usize = 12;

/// Opcode-kind histogram entries kept per method, by count.
const TOP_KINDS: usize = 8;

/// Configuration for a profile run.
#[derive(Clone, Debug, Default)]
pub struct ProfileConfig {
    /// Explicit problem size; overrides the registry sizes.
    pub n: Option<i32>,
    /// Use the large-memory-model size instead of the small one.
    pub large: bool,
    /// Shrink the problem size for smoke tests (~1/100 of small).
    pub quick: bool,
}

impl ProfileConfig {
    fn resolve_n(&self, e: &Entry) -> i32 {
        if let Some(n) = self.n {
            return n;
        }
        if self.large {
            return e.large_n;
        }
        if self.quick {
            return (e.small_n / 100).max(64);
        }
        e.small_n
    }
}

/// A completed profile run: the JSON document plus the rendered
/// hot-method and attribution tables.
pub struct ProfileRun {
    pub doc: Json,
    /// Top methods by exclusive opcode count, one column per profile.
    pub hot: Table,
    /// Per-profile deltas vs. the reference, annotated with mechanisms.
    pub attribution: Table,
}

fn tier_str(t: Tier) -> &'static str {
    match t {
        Tier::Interpreter => "interpreter",
        Tier::Rir => "register",
        Tier::Compiled => "threaded",
    }
}

/// One profile's complete observation of the entry.
struct ProfiledCell {
    profile: VmProfile,
    checksum: f64,
    report: ObserveReport,
    /// Counter movement attributable to the single timed invocation
    /// (the snapshot taken after `vm_for` excludes static init).
    delta: CountersSnapshot,
    vm: Arc<Vm>,
}

fn profile_one(
    group: &BenchGroup,
    entry: &Entry,
    p: VmProfile,
    n: i32,
) -> Result<ProfiledCell, String> {
    let vm = vm_for(group, p.with_observe(ObserveLevel::Trace));
    let before = vm.counters.snapshot();
    let checksum = run_entry(&vm, entry, n).map_err(|e| format!("{}: {e}", p.name))?;
    (entry.validate)(n, checksum).map_err(|e| format!("{}: validation: {e}", p.name))?;
    let delta = vm.counters.snapshot().delta(&before);
    let report = vm.observe_report().expect("observability is on");
    Ok(ProfiledCell { profile: p, checksum, report, delta, vm })
}

/// Observer totals plus the VM counter table of the profiled invocation.
fn totals_json(cell: &ProfiledCell) -> Json {
    let mut totals = observer_totals_json(&cell.report);
    totals.push_counts(cell.delta.iter());
    totals
}

fn passes_json(p: &VmProfile) -> Json {
    Json::obj(vec![
        ("bce", Json::Bool(p.passes.bce)),
        ("licm", Json::Bool(p.passes.licm)),
        ("inline", Json::Bool(p.passes.inline)),
    ])
}

/// Hot methods of a report: invoked methods by descending exclusive
/// opcode count, method id as the deterministic tie-break.
pub(crate) fn hot_methods(report: &ObserveReport) -> Vec<&MethodProfile> {
    let mut ms: Vec<_> = report.methods.iter().filter(|m| m.invocations > 0).collect();
    ms.sort_by(|a, b| b.ops_excl.cmp(&a.ops_excl).then(a.method.0.cmp(&b.method.0)));
    ms
}

fn methods_json(cell: &ProfiledCell) -> (Json, usize) {
    let hot = hot_methods(&cell.report);
    let total = hot.len();
    let docs = hot
        .iter()
        .take(TOP_METHODS)
        .map(|m| {
            // Top kinds by count; kind order breaks ties so the artifact
            // is stable across runs.
            let mut kinds = m.kind_counts();
            kinds.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            let kinds = kinds
                .into_iter()
                .take(TOP_KINDS)
                .map(|(name, n)| {
                    Json::Arr(vec![Json::Str(name.to_string()), Json::num(n as f64)])
                })
                .collect();
            let mut doc = Json::obj(vec![
                ("name", Json::Str(m.name.clone())),
                ("invocations", Json::num(m.invocations as f64)),
                ("ops_excl", Json::num(m.ops_excl as f64)),
                ("ops_incl", Json::num(m.ops_incl as f64)),
            ]);
            doc.push_counts(m.counters());
            doc.push("kinds", Json::Arr(kinds));
            doc
        })
        .collect();
    (Json::Arr(docs), total)
}

fn events_json(cell: &ProfiledCell) -> Json {
    let mut jit = Vec::new();
    let mut rejections = Vec::new();
    let mut eh_dispatches = 0u64;
    let mut alloc_milestones = 0u64;
    for ev in &cell.report.events {
        match ev {
            Event::JitCompile { method, outcome } => jit.push(Json::obj(vec![
                ("method", Json::Str(cell.vm.method_display_name(*method))),
                ("rir_len", Json::num(outcome.rir_len as f64)),
                ("loops_found", Json::num(outcome.loops_found as f64)),
                ("idiom_removed", Json::num(outcome.idiom_removed as f64)),
                ("range_removed", Json::num(outcome.range_removed as f64)),
                ("versioned_removed", Json::num(outcome.versioned_removed as f64)),
                ("loops_versioned", Json::num(outcome.loops_versioned as f64)),
                ("licm_hoisted", Json::num(outcome.licm_hoisted as f64)),
                ("enreg_prim", Json::num(outcome.enreg_prim as f64)),
                ("spill_prim", Json::num(outcome.spill_prim as f64)),
                ("enreg_ref", Json::num(outcome.enreg_ref as f64)),
                ("spill_ref", Json::num(outcome.spill_ref as f64)),
            ])),
            Event::LoopRejected { method, header_pc, reason } => {
                rejections.push(Json::obj(vec![
                    ("method", Json::Str(cell.vm.method_display_name(*method))),
                    ("header_pc", Json::num(*header_pc as f64)),
                    ("reason", Json::Str(reason.as_str().to_string())),
                ]))
            }
            Event::EhDispatch { .. } => eh_dispatches += 1,
            Event::AllocMilestone { .. } => alloc_milestones += 1,
        }
    }
    Json::obj(vec![
        ("jit", Json::Arr(jit)),
        ("loop_rejections", Json::Arr(rejections)),
        ("eh_dispatches", Json::num(eh_dispatches as f64)),
        ("alloc_milestones", Json::num(alloc_milestones as f64)),
        ("dropped", Json::num(cell.report.events_dropped as f64)),
    ])
}

/// The docs/OPTIMIZATIONS.md mechanisms explaining a delta row.
/// `elided` is the profile's dynamic elided-access split
/// `(idiom, range, versioned)`, so a bounds-check delta is attributed to
/// the specific elision mechanism(s) that produced it, not just to the
/// aggregate pass family.
fn mechanisms_for(
    reference: &VmProfile,
    p: &VmProfile,
    bc_delta: i64,
    calls_delta: i64,
    elided: (u64, u64, u64),
) -> Vec<String> {
    let mut out = Vec::new();
    if p.tier == Tier::Interpreter {
        out.push(
            "tier: interpreter executes CIL directly; no JIT passes run, every bounds check executes"
                .to_string(),
        );
    }
    if bc_delta != 0 {
        if reference.passes.bce != p.passes.bce || p.tier == Tier::Interpreter {
            out.push("bounds-check elimination (`bce`) — mechanism 4".to_string());
        }
        let (idiom, range, versioned) = elided;
        if idiom > 0 {
            out.push(format!("idiom guard elision — {idiom} accesses"));
        }
        if range > 0 {
            out.push(format!("symbolic range analysis — {range} accesses"));
        }
        if versioned > 0 {
            out.push(format!("guarded loop versioning — {versioned} accesses"));
        }
    }
    if calls_delta != 0 && (reference.passes.inline != p.passes.inline || p.tier == Tier::Interpreter)
    {
        out.push("inlining (`inline`, `inline_max_ops`)".to_string());
    }
    out
}

/// Run `entry_id` once per CLI-lineup profile under full observability
/// and assemble the `PROFILE_<entry>.json` document plus tables.
pub fn run_profile(entry_id: &str, cfg: &ProfileConfig) -> Result<ProfileRun, String> {
    let (group, entry) = find_entry(entry_id).ok_or_else(|| {
        let known: Vec<String> = registry()
            .iter()
            .flat_map(|g| g.entries.iter().map(|e| e.id.to_string()))
            .collect();
        format!("no benchmark entry {entry_id}; known entries: {}", known.join(" "))
    })?;
    if entry.threaded {
        return Err(format!("{entry_id} spawns threads; profiling covers serial entries"));
    }
    let n = cfg.resolve_n(&entry);
    let profiles = VmProfile::cli_lineup();
    let cells: Vec<ProfiledCell> = profiles
        .iter()
        .map(|p| profile_one(&group, &entry, *p, n))
        .collect::<Result<_, _>>()?;

    // Hot-method table: reference profile picks the rows.
    let mut hot = Table::new(
        &format!("profile: {entry_id} (n={n})"),
        "exclusive opcodes executed (×invocations noted)",
    );
    for c in &cells {
        hot.add_column(c.profile.name);
    }
    for m in hot_methods(&cells[0].report).iter().take(TOP_METHODS) {
        let mut row = Vec::new();
        let mut notes = Vec::new();
        for c in &cells {
            match c.report.methods.iter().find(|o| o.name == m.name) {
                Some(o) if o.invocations > 0 => {
                    row.push(o.ops_excl as f64);
                    notes.push(format!("×{}", o.invocations));
                }
                // Inlined away (or never reached) under this profile.
                _ => {
                    row.push(f64::NAN);
                    notes.push(String::new());
                }
            }
        }
        hot.add_row_noted(&m.name, row, notes);
    }

    // Attribution: per-profile deltas against the reference engine.
    let ref_bc = cells[0].report.total_of(|m| m.bounds_checks_executed) as i64;
    let ref_calls = cells[0].delta.calls as i64;
    let mut attribution = Table::new(
        &format!("attribution vs {} — docs/OPTIMIZATIONS.md mechanisms", cells[0].profile.name),
        "count delta (mechanism noted)",
    );
    attribution.add_column("bounds-checks-executed Δ");
    attribution.add_column("calls Δ");
    let mut delta_docs = Vec::new();
    for c in cells.iter().skip(1) {
        let bc = c.report.total_of(|m| m.bounds_checks_executed) as i64 - ref_bc;
        let calls = c.delta.calls as i64 - ref_calls;
        let elided = (
            c.report.total_of(|m| m.bounds_checks_elided_idiom),
            c.report.total_of(|m| m.bounds_checks_elided_range),
            c.report.total_of(|m| m.bounds_checks_elided_versioned),
        );
        let mechanisms = mechanisms_for(&cells[0].profile, &c.profile, bc, calls, elided);
        attribution.add_row_noted(
            c.profile.name,
            vec![bc as f64, calls as f64],
            vec![mechanisms.join("; "), String::new()],
        );
        let mut delta = Json::obj(vec![
            ("profile", Json::Str(c.profile.name.to_string())),
            ("bounds_checks_executed_delta", Json::num(bc as f64)),
        ]);
        let split = elided_split();
        delta.push_counts(c.report.counter_totals().filter(|(name, _)| split.contains(name)));
        delta.push("calls_delta", Json::num(calls as f64));
        delta.push("mechanisms", Json::Arr(mechanisms.into_iter().map(Json::Str).collect()));
        delta_docs.push(delta);
    }

    let profile_docs = cells
        .iter()
        .map(|c| {
            let (methods, methods_total) = methods_json(c);
            Json::obj(vec![
                ("profile", Json::Str(c.profile.name.to_string())),
                ("tier", Json::Str(tier_str(c.profile.tier).to_string())),
                ("passes", passes_json(&c.profile)),
                ("checksum", Json::num(c.checksum)),
                ("totals", totals_json(c)),
                ("methods", methods),
                ("methods_total", Json::num(methods_total as f64)),
                ("events", events_json(c)),
            ])
        })
        .collect();

    // Deliberately no environment/time/host fields: the document must be
    // byte-identical across consecutive runs of the same build.
    let doc = Json::obj(vec![
        ("schema_version", Json::num(PROFILE_SCHEMA_VERSION)),
        ("kind", Json::Str("profile".to_string())),
        ("entry", Json::Str(entry.id.to_string())),
        ("group", Json::Str(group.id.to_string())),
        ("n", Json::num(n as f64)),
        ("observe", Json::Str(ObserveLevel::Trace.as_str().to_string())),
        ("profiles", Json::Arr(profile_docs)),
        (
            "attribution",
            Json::obj(vec![
                ("reference", Json::Str(cells[0].profile.name.to_string())),
                ("deltas", Json::Arr(delta_docs)),
            ]),
        ),
    ]);
    Ok(ProfileRun { doc, hot, attribution })
}

/// Time one entry at every [`ObserveLevel`] (rates to stdout only; the
/// JSON artifact stays time-free). Demonstrates `Off` is zero-cost.
pub fn overhead_table(entry_id: &str, min_time: Duration) -> Result<Table, MeasureError> {
    let (group, entry) =
        find_entry(entry_id).unwrap_or_else(|| panic!("no benchmark entry {entry_id}"));
    let mut t = Table::new(
        &format!("observability overhead: {entry_id}"),
        "work units/sec by ObserveLevel",
    );
    let levels = [ObserveLevel::Off, ObserveLevel::Counters, ObserveLevel::Trace];
    for level in levels {
        t.add_column(level.as_str());
    }
    for p in VmProfile::cli_lineup() {
        let mut row = Vec::new();
        let mut notes = Vec::new();
        for level in levels {
            let vm = vm_for(&group, p.with_observe(level));
            let m = time_entry(&vm, &entry, entry.small_n, min_time)?;
            row.push(m.rate);
            notes.push(crate::bench::cell_note(&m));
        }
        t.add_row_noted(p.name, row, notes);
    }
    Ok(t)
}

// ---- schema validation ----

/// Validate a parsed profile document. Returns every problem found.
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut c = Check::new();
    c.schema_version(doc, &[PROFILE_SCHEMA_VERSION]);
    match doc.get("kind").and_then(Json::as_str) {
        Some("profile") => {}
        _ => c.fail("$", "kind must be \"profile\""),
    }
    c.str_field(doc, "$", "entry");
    c.str_field(doc, "$", "group");
    c.num(doc, "$", "n");
    match doc.get("observe").and_then(Json::as_str) {
        Some(s) if ObserveLevel::parse(s).is_some() => {}
        _ => c.fail("$", "observe must be a valid ObserveLevel name"),
    }

    let profiles = c.arr(doc, "$", "profiles");
    if profiles.len() < 2 {
        c.fail("$.profiles", "fewer than 2 profiles recorded");
    }
    for (pi, p) in profiles.iter().enumerate() {
        let path = format!("$.profiles[{pi}]");
        c.str_field(p, &path, "profile");
        match p.get("tier").and_then(Json::as_str) {
            Some("interpreter" | "register") => {}
            _ => c.fail(&path, "tier must be interpreter|register"),
        }
        let passes = c.obj(p, &path, "passes");
        for key in ["bce", "licm", "inline"] {
            c.bool_field(passes, &format!("{path}.passes"), key);
        }
        c.num(p, &path, "checksum");
        let tpath = format!("{path}.totals");
        let totals = c.obj(p, &path, "totals");
        check_observer_totals(&mut c, totals, &tpath);
        check_vm_counters(&mut c, totals, &tpath);
        let methods = c.arr(p, &path, "methods");
        if methods.is_empty() {
            c.fail(&path, "no methods profiled");
        }
        let mut ops_sum = 0.0;
        for (mi, m) in methods.iter().enumerate() {
            let mpath = format!("{path}.methods[{mi}]");
            c.str_field(m, &mpath, "name");
            match c.num(m, &mpath, "invocations") {
                Some(v) if v <= 0.0 => c.fail(&mpath, "non-positive invocations"),
                _ => {}
            }
            let excl = c.num(m, &mpath, "ops_excl");
            let incl = c.num(m, &mpath, "ops_incl");
            if let (Some(e), Some(i)) = (excl, incl) {
                ops_sum += e;
                if i < e {
                    c.fail(&mpath, &format!("ops_incl {i} < ops_excl {e}"));
                }
            }
            check_method_counters(&mut c, m, &mpath);
            for (ki, kind) in c.arr(m, &mpath, "kinds").iter().enumerate() {
                match kind.as_arr() {
                    Some([name, count]) if name.as_str().is_some() && count.as_f64().is_some() => {}
                    _ => c.fail(&mpath, &format!("kinds[{ki}] must be [name, count]")),
                }
            }
        }
        // The hot-method list is truncated, so its ops can only account
        // for at most the totals.
        if let Some(total_ops) = totals.get("ops").and_then(Json::as_f64) {
            if ops_sum > total_ops {
                c.fail(&path, &format!("method ops_excl sum {ops_sum} exceeds totals.ops {total_ops}"));
            }
        }
        c.num(p, &path, "methods_total");
        let epath = format!("{path}.events");
        let ev = c.obj(p, &path, "events");
        c.arr(ev, &epath, "jit");
        for (ri, r) in c.arr(ev, &epath, "loop_rejections").iter().enumerate() {
            let rpath = format!("{epath}.loop_rejections[{ri}]");
            c.str_field(r, &rpath, "method");
            c.num(r, &rpath, "header_pc");
            c.str_field(r, &rpath, "reason");
        }
        c.nums(ev, &epath, &["eh_dispatches", "alloc_milestones", "dropped"]);
    }

    let attr = c.obj(doc, "$", "attribution");
    c.str_field(attr, "$.attribution", "reference");
    let deltas = c.arr(attr, "$.attribution", "deltas");
    if deltas.len() + 1 != profiles.len().max(1) {
        c.fail("$.attribution", "one delta row per non-reference profile expected");
    }
    for (di, d) in deltas.iter().enumerate() {
        let dpath = format!("$.attribution.deltas[{di}]");
        c.str_field(d, &dpath, "profile");
        c.nums(d, &dpath, &["bounds_checks_executed_delta", "calls_delta"]);
        c.nums(d, &dpath, &elided_split());
        c.arr(d, &dpath, "mechanisms");
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcnet_core::json::check_document;

    fn tiny() -> ProfileConfig {
        ProfileConfig { n: Some(256), ..ProfileConfig::default() }
    }

    #[test]
    fn loop_profile_is_schema_valid_and_roundtrips() {
        let run = run_profile("loop.for", &tiny()).unwrap();
        validate(&run.doc).unwrap_or_else(|p| panic!("invalid document: {p:#?}"));
        let text = run.doc.render();
        check_document(&text, validate).unwrap();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        // The hot table has one column per CLI profile and a real row.
        assert_eq!(run.hot.columns.len(), 3);
        assert!(!run.hot.rows.is_empty());
        assert!(run.hot.render().contains("Loops.For"), "{}", run.hot.render());
    }

    #[test]
    fn every_counter_key_is_required_and_reported_once() {
        use crate::counters::tests::assert_each_key_required;
        let doc = &run_profile("loop.for", &tiny()).unwrap().doc;
        let totals = "profiles/0/totals";
        assert_each_key_required(doc, totals, &["ops"], validate);
        assert_each_key_required(doc, totals, MethodProfile::COUNTER_NAMES, validate);
        assert_each_key_required(doc, totals, CountersSnapshot::NAMES, validate);
        assert_each_key_required(doc, "profiles/0/methods/0", MethodProfile::COUNTER_NAMES, validate);
    }

    #[test]
    fn unknown_entry_reports_known_ids() {
        let e = run_profile("no.such.entry", &tiny()).err().unwrap();
        assert!(e.contains("no benchmark entry"), "{e}");
        assert!(e.contains("loop.for"), "should list known entries: {e}");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let run = run_profile("loop.for", &tiny()).unwrap();
        let mut bad = run.doc.clone();
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "attribution");
        }
        let problems = validate(&bad).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("attribution")),
            "{problems:#?}"
        );
        assert!(check_document("[1, 2", validate).is_err());
    }
}
