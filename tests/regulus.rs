//! Figure 1's Regulus row: IP-backbone monitoring data whose headline
//! problem is *multiple missing-value representations* — §5.2 reports the
//! project using accumulator programs to find them all ("typical examples
//! include 0, a blank, NONE, and Nothing"). Each test is a matrix cell
//! (`common/contract.rs`) plus the values only it asserts.

#[path = "common/contract.rs"]
mod contract;

use contract::figure1;
use pads::{Engine, Prim, RecoveryPolicy, Value};
use pads_tools::Accumulator;

#[test]
fn all_four_missing_value_representations_parse() {
    let truth = &figure1::regulus().cells()[0];
    assert!(truth.clean(6));
    let branch = |i: usize| match truth.at(i, "util") {
        Some(Value::Union { branch, .. }) => branch.as_str(),
        other => panic!("expected union, got {other:?}"),
    };
    // `0` parses as the float 0.0 — the numeric missing-value encoding the
    // Sirius example also used; distinguishing it is the analyst's job.
    let branches: Vec<_> = (0..5).map(branch).collect();
    assert_eq!(branches, ["value", "none", "value", "nothing", "blank"]);
}

#[test]
fn accumulator_reveals_the_representations() {
    // The §5.2 workflow: run the accumulator, read the union-tag
    // distribution, discover how many ways "no data" is spelled.
    let feed = figure1::regulus();
    let mut acc = Accumulator::new(&feed.schema, "meas_t");
    feed.cells()[0].run.items.iter().for_each(|(v, pd)| acc.add(v, pd));
    let report = acc.report("<top>");
    // The union tag section lists every representation that occurred.
    let tag_section = report.split("<top>.util.<tag>").nth(1).expect("tag section present");
    let tag_section = &tag_section[..tag_section.find("<top>.").unwrap_or(tag_section.len())];
    for repr in ["none", "nothing", "blank", "value"] {
        assert!(tag_section.contains(repr), "missing {repr} in:\n{tag_section}");
    }
    // And the value distribution shows `0` hiding among real measurements.
    let vals = acc.stats_at("util.value").expect("value stats");
    assert!(vals.top(5).iter().any(|(v, _)| *v == "0"), "{:?}", vals.top(5));
}

#[test]
fn normalising_pass_unifies_them() {
    // The Figure 7 pattern applied to Regulus: rewrite every missing-value
    // spelling to the canonical NONE branch, verify, re-emit.
    let feed = figure1::regulus();
    let writer = pads::Writer::new(&feed.schema, &feed.registry);
    let mut out = Vec::new();
    for (mut rec, _) in feed.cells().swap_remove(0).run.items {
        let util = rec.field_mut("util").expect("util");
        let Value::Union { branch, value, .. } = util else { panic!("{util:?}") };
        let zero = branch == "value" && value.as_prim() == Some(&Prim::Float(0.0));
        if zero || branch == "nothing" || branch == "blank" {
            let value = Box::new(Value::Prim(Prim::String("NONE".into())));
            *util = Value::Union { branch: "none".into(), index: 0, value };
        }
        writer.write_named(&mut out, "meas_t", &rec).unwrap();
    }
    let text = String::from_utf8(out).unwrap();
    assert!(!text.contains("Nothing") && !text.contains(", ,"), "{text}");
    assert_eq!(text.matches("NONE").count(), 4, "{text}");
    // The normalised output still parses cleanly.
    let parser = feed.description().parser(RecoveryPolicy::unlimited(), Engine::Interp);
    let (_, pd) = parser.parse_source(text.as_bytes(), &contract::mask());
    assert!(pd.is_ok());
}
