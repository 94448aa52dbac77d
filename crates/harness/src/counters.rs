//! The two counter families as artifact JSON: one emitter and one checker
//! per table, shared by the bench and profile artifacts.
//!
//! The tables themselves live with the VM — [`CountersSnapshot::NAMES`]
//! (VM-wide JIT and execution counters) and
//! [`MethodProfile::COUNTER_NAMES`] (per-method observer counters) — and
//! every key below comes from them, so a counter added to a table reaches
//! every artifact and every validator with no list to update here.

use hpcnet_core::json::{Check, Json};
use hpcnet_core::{CountersSnapshot, MethodProfile, ObserveReport};

/// Name prefix of each table's per-mechanism bounds-check split; the
/// split counters partition their table's total.
const VM_SPLIT: (&str, &str) = ("bounds_checks_eliminated", "bce_elided_");
const OBSERVER_SPLIT: (&str, &str) = ("bounds_checks_elided", "bounds_checks_elided_");

/// The counters of `names` that start with `prefix`, in table order.
fn split_of(names: &'static [&'static str], prefix: &str) -> Vec<&'static str> {
    names
        .iter()
        .copied()
        .filter(|n| n.starts_with(prefix))
        .collect()
}

/// Every VM counter under its table name.
pub(crate) fn vm_counters_json(c: &CountersSnapshot) -> Json {
    let mut counters = Json::obj(vec![]);
    counters.push_counts(c.iter());
    counters
}

/// One observed run's totals: opcodes executed plus every per-method
/// counter summed over methods (bench `attribution`, profile `totals`).
pub(crate) fn observer_totals_json(r: &ObserveReport) -> Json {
    let mut totals = Json::obj(vec![("ops", Json::num(r.total_ops as f64))]);
    totals.push_counts(r.counter_totals());
    totals
}

/// Every VM counter is a number and the mechanism split sums to the
/// eliminated total.
pub(crate) fn check_vm_counters(c: &mut Check, v: &Json, path: &str) {
    c.nums(v, path, CountersSnapshot::NAMES);
    let (total, prefix) = VM_SPLIT;
    c.partition(v, path, total, &split_of(CountersSnapshot::NAMES, prefix));
}

/// Every per-method counter is a number and the elided split sums to
/// the elided total (one method's row, or the totals over all of them).
pub(crate) fn check_method_counters(c: &mut Check, v: &Json, path: &str) {
    c.nums(v, path, MethodProfile::COUNTER_NAMES);
    let (total, prefix) = OBSERVER_SPLIT;
    c.partition(
        v,
        path,
        total,
        &split_of(MethodProfile::COUNTER_NAMES, prefix),
    );
}

/// The shape [`observer_totals_json`] emits.
pub(crate) fn check_observer_totals(c: &mut Check, v: &Json, path: &str) {
    c.num(v, path, "ops");
    check_method_counters(c, v, path);
}

/// The per-mechanism dynamic elided split names (`bounds_checks_elided_*`).
pub(crate) fn elided_split() -> Vec<&'static str> {
    split_of(MethodProfile::COUNTER_NAMES, OBSERVER_SPLIT.1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The object at a `/`-separated path of keys and array indices.
    fn fields_at<'j>(mut v: &'j mut Json, at: &str) -> &'j mut Vec<(String, Json)> {
        for step in at.split('/') {
            v = match v {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
                Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
                _ => panic!("{at}: {step} is not in a container"),
            };
        }
        match v {
            Json::Obj(fields) => fields,
            _ => panic!("{at} is not an object"),
        }
    }

    /// Removing any one of `names` from the object at `at` (keys and
    /// array indices, `/`-separated) must fail `validate` with exactly
    /// one problem, and that problem must name the key.
    pub(crate) fn assert_each_key_required(
        doc: &Json,
        at: &str,
        names: &[&str],
        validate: fn(&Json) -> Result<(), Vec<String>>,
    ) {
        for name in names {
            let mut broken = doc.clone();
            let fields = fields_at(&mut broken, at);
            let before = fields.len();
            fields.retain(|(k, _)| k != name);
            assert_eq!(fields.len() + 1, before, "{at} has no {name}");
            let problems = validate(&broken).expect_err(&format!("{at} without {name} validated"));
            assert_eq!(problems.len(), 1, "{at} without {name}: {problems:#?}");
            assert!(problems[0].contains(&format!("'{name}'")), "{problems:#?}");
        }
    }

    #[test]
    fn counter_tables_have_disjoint_names() {
        // Profile `totals` merges both tables into one object.
        for name in CountersSnapshot::NAMES {
            assert!(
                !MethodProfile::COUNTER_NAMES.contains(name),
                "{name} is in both tables"
            );
        }
        assert!(!MethodProfile::COUNTER_NAMES.contains(&"ops"));
    }

    #[test]
    fn mechanism_splits_are_nonempty() {
        assert_eq!(split_of(CountersSnapshot::NAMES, VM_SPLIT.1).len(), 3);
        assert_eq!(elided_split().len(), 3);
    }

    #[test]
    fn observability_doc_lists_every_counter() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        for name in CountersSnapshot::NAMES
            .iter()
            .chain(MethodProfile::COUNTER_NAMES)
        {
            assert!(
                doc.contains(&format!("| `{name}` |")),
                "docs/OBSERVABILITY.md lacks a row for {name}"
            );
        }
    }

    #[test]
    fn partition_flags_a_split_that_does_not_sum() {
        let c = CountersSnapshot {
            bounds_checks_eliminated: 3,
            bce_elided_idiom: 2,
            ..Default::default()
        };
        let mut check = Check::new();
        check_vm_counters(&mut check, &vm_counters_json(&c), "$");
        let problems = check.finish().unwrap_err();
        assert_eq!(problems.len(), 1, "{problems:#?}");
        assert!(
            problems[0].contains("bounds_checks_eliminated 3"),
            "{problems:#?}"
        );
    }
}
