//! Hostile input for the CLI's spec grammars: `--fault-plan`
//! ([`FaultPlan::parse`]), `--what-if` ([`WhatIf::parse`]) and the
//! `--device-class` list ([`DeviceClass::parse_list`]). Arbitrary
//! strings, truncated specs and oversized or non-finite numbers must
//! give `Ok` or an `Err` that says why — never a panic — and whatever
//! parses must survive its own rendering.

use proptest::prelude::*;
use swdual_core::whatif::WhatIf;
use swdual_gpusim::DeviceClass;
use swdual_runtime::faults::WorkerFault;
use swdual_runtime::FaultPlan;

/// Counts as a user, a script or a fuzzer might write them: mostly
/// valid, so that whole plans parse often enough to be checked.
const COUNTS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "5",
    "100",
    "007",
    "+4",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "-1",
    " 5",
    "2.5",
    "x",
    "",
];

/// Straggle factors, valid and not: below 1, non-finite, oversized.
const FACTORS: &[&str] = &[
    "1", "1.5", "2.5", "3", "1e30", "1e31", "1e308", "inf", "infinity", "1e309", "-inf", "NaN",
    "0.5", "-3", "x", "",
];

const FAULT_KINDS: &[&str] = &[
    "noreg",
    "crash@",
    "vanish@",
    "device@",
    "straggle@",
    "straggle@",
    "straggle@",
    "warp@",
];

const CLASS_NAMES: &[&str] = &[
    "c2050", "tesla", "phi", "xeon-phi", "knl", "bioseal", " KNL ", "mixed", "gpu", "",
];

const WHAT_IFS: &[&str] = &[
    "drop-worker:",
    "plus-gpu:",
    "perfect-calibration",
    "zero-transfer",
    "no-faults",
    " no-faults ",
    "",
];

const JUNK: &str = "[ -~\t\u{e9}\u{3bb}]{0,40}";

fn pick(options: &[&'static str]) -> impl Strategy<Value = &'static str> {
    prop::sample::select(options.to_vec())
}

/// `text` whole, or cut after its first `cut` characters.
fn cut(text: String, cut: usize) -> String {
    text.chars().take(cut).collect()
}

/// Plans of one to four entries, each put together from the grammar's
/// pieces, sometimes cut short.
fn fault_spec() -> impl Strategy<Value = String> {
    let entry = (
        pick(COUNTS),
        pick(FAULT_KINDS),
        pick(COUNTS),
        pick(&["x", "x", "x", "", "xx"]),
        pick(FACTORS),
    )
        .prop_map(|(worker, kind, a, x, b)| match kind {
            "noreg" => format!("{worker}:noreg"),
            "straggle@" => format!("{worker}:straggle@{a}{x}{b}"),
            _ => format!("{worker}:{kind}{a}"),
        });
    (
        prop::collection::vec(entry, 1..4),
        pick(&[",", " , ", ",,"]),
        0usize..160,
    )
        .prop_map(|(entries, sep, at)| cut(entries.join(sep), at))
}

fn what_if_spec() -> impl Strategy<Value = String> {
    (pick(WHAT_IFS), pick(COUNTS), pick(CLASS_NAMES), 0usize..40).prop_map(
        |(head, number, class, at)| match head {
            "drop-worker:" => cut(format!("{head}{number}"), at),
            "plus-gpu:" => cut(format!("{head}{class}"), at),
            _ => cut(head.to_string(), at),
        },
    )
}

fn class_list() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(pick(CLASS_NAMES), 1..6),
        pick(&[",", " , ", ",,"]),
        0usize..60,
    )
        .prop_map(|(names, sep, at)| cut(names.join(sep), at))
}

fn check_fault_plan(spec: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    let Ok(plan) = FaultPlan::parse(spec) else {
        return Ok(());
    };
    for (_, fault) in plan.iter() {
        if let WorkerFault::Straggler { factor, .. } = fault {
            prop_assert!(
                factor.is_finite() && (1.0..=1e30).contains(&factor),
                "{spec:?} gave straggle factor {factor}"
            );
        }
    }
    prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
    Ok(())
}

fn check_what_if(spec: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    if let Ok(premise) = WhatIf::parse(spec) {
        prop_assert_eq!(WhatIf::parse(&premise.label()), Ok(premise));
    }
    Ok(())
}

fn check_class_list(spec: &str) -> Result<(), proptest::test_runner::TestCaseError> {
    if let Ok(list) = DeviceClass::parse_list(spec) {
        prop_assert!(!list.is_empty());
        let names: Vec<&str> = list.iter().map(|c| c.name()).collect();
        prop_assert_eq!(DeviceClass::parse_list(&names.join(",")), Ok(list));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fault_plans_parse_or_say_why_and_round_trip(spec in fault_spec()) {
        check_fault_plan(&spec)?;
    }

    #[test]
    fn what_if_specs_parse_or_say_why_and_round_trip(spec in what_if_spec()) {
        check_what_if(&spec)?;
    }

    #[test]
    fn device_class_lists_parse_or_say_why_and_round_trip(spec in class_list()) {
        check_class_list(&spec)?;
    }

    #[test]
    fn arbitrary_text_never_panics_a_grammar(
        spec in prop::string::string_regex(JUNK).unwrap()
    ) {
        check_fault_plan(&spec)?;
        check_what_if(&spec)?;
        check_class_list(&spec)?;
    }
}
