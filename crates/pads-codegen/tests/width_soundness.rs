//! Width-interval soundness: the fact database claims every parse of a
//! type `T` consumes between `min` and `max` bytes (`max` absent for
//! unbounded types). This property test replays the torture corpora and
//! the 1000-seed fault harness through BOTH engines with an unbounded
//! tracing core attached, and checks every clean span against the computed
//! interval. Record types get one byte of slack: the record close
//! consumes the newline terminator, which sits outside the type's
//! content width.

#[path = "../../../tests/common/trace_tally.rs"]
mod trace_tally;

use std::collections::HashMap;

use pads::generated::{clf, mixed, sirius};
use pads::{descriptions, PadsParser};
use pads_check::ir::Schema;
use pads_check::lint::facts::{SemFacts, WidthInterval};
use pads_check::lint::firstset::Facts;
use pads_runtime::{BaseMask, Cursor, FaultPlan, Mask, MetricsCore, ParseDesc, Registry};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// `(type name, consumed bytes)` for every *clean* type exit; errored or
/// partial parses may legitimately stop anywhere.
#[derive(Default)]
struct SpanLog {
    spans: Vec<(String, u64)>,
}

impl SpanLog {
    /// The clean spans of the whole event stream `core` traced.
    fn of(core: &MetricsCore) -> SpanLog {
        let clean = trace_tally::spans(core).into_iter().filter(|(_, span)| span.nerr == 0);
        SpanLog {
            spans: clean.map(|(name, s)| (name.to_owned(), (s.end - s.start) as u64)).collect(),
        }
    }
}

/// Per-type width intervals plus the record flag controlling newline
/// slack.
fn width_table(schema: &Schema) -> HashMap<String, (WidthInterval, bool)> {
    let firsts = Facts::compute(schema);
    let sem = SemFacts::compute(schema, &firsts);
    (0..schema.types.len())
        .map(|id| {
            let def = schema.def(id);
            (def.name.clone(), (sem.width_of(id), def.is_record))
        })
        .collect()
}

fn check_spans(label: &str, log: &SpanLog, table: &HashMap<String, (WidthInterval, bool)>) {
    assert!(!log.spans.is_empty(), "{label}: no clean spans observed");
    for (name, consumed) in &log.spans {
        let Some((w, is_record)) = table.get(name) else {
            panic!("{label}: the trace holds unknown type `{name}`");
        };
        let slack = u64::from(*is_record);
        assert!(
            *consumed >= w.min,
            "{label}: `{name}` consumed {consumed} bytes, below proven min {}",
            w.min
        );
        if let Some(max) = w.max {
            assert!(
                *consumed <= max + slack,
                "{label}: `{name}` consumed {consumed} bytes, above proven max {max} (+{slack} record slack)"
            );
        }
    }
}

fn interp_spans(schema: &Schema, data: &[u8]) -> SpanLog {
    let registry = Registry::standard();
    let parser = PadsParser::new(schema, &registry);
    let core = trace_tally::unbounded(parser.metrics_core()).into_handle();
    let _ = parser.with_metrics(core.clone()).parse_source(data, &mask());
    let core = core.borrow();
    SpanLog::of(&core)
}

/// A generated module's whole-source entry and its pre-interned core.
type Generated = (fn(&mut Cursor<'_>, &Mask) -> ParseDesc, fn() -> MetricsCore);

fn gen_spans((parse, metrics_core): Generated, data: &[u8]) -> SpanLog {
    let core = trace_tally::unbounded(metrics_core()).into_handle();
    let mut cur = Cursor::new(data).with_metrics(core.clone());
    let _ = parse(&mut cur, &mask());
    let core = core.borrow();
    SpanLog::of(&core)
}

#[test]
fn torture_corpora_respect_width_intervals_on_both_engines() {
    let cases: [(&str, &[u8], Generated); 3] = [
        (
            "clf",
            include_bytes!("../../../tests/data/torture_clf.log"),
            (|cur, m| clf::parse_source(cur, m).1, clf::metrics_core),
        ),
        (
            "sirius",
            include_bytes!("../../../tests/data/torture_sirius.txt"),
            (|cur, m| sirius::parse_source(cur, m).1, sirius::metrics_core),
        ),
        (
            "mixed",
            include_bytes!("../../../tests/data/torture_mixed.txt"),
            (|cur, m| mixed::parse_source(cur, m).1, mixed::metrics_core),
        ),
    ];
    let schemas = [descriptions::clf(), descriptions::sirius(), descriptions::mixed()];
    for ((name, data, parse), schema) in cases.into_iter().zip(&schemas) {
        let table = width_table(schema);
        check_spans(
            &format!("{name}/interpreted"),
            &interp_spans(schema, data),
            &table,
        );
        check_spans(&format!("{name}/generated"), &gen_spans(parse, data), &table);
    }
}

#[test]
fn fault_harness_respects_width_intervals_on_both_engines() {
    // 1000 seeded mutations of a clean CLF corpus: bit flips, deletions,
    // insertions, truncation. Soundness must hold on whatever clean
    // sub-parses survive the damage.
    let clean = pads_gen::clf::generate(&pads_gen::ClfConfig {
        records: 15,
        ..Default::default()
    })
    .0;
    let schema = descriptions::clf();
    let table = width_table(&schema);
    let mut checked = 0usize;
    for seed in 0..1000 {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let ilog = interp_spans(&schema, &data);
        let glog = gen_spans((|c, m| clf::parse_source(c, m).1, clf::metrics_core), &data);
        // Mutated corpora can in principle fail every parse; only check
        // non-empty logs (check_spans asserts non-emptiness).
        for (label, log) in
            [(format!("seed {seed}/interpreted"), &ilog), (format!("seed {seed}/generated"), &glog)]
        {
            if !log.spans.is_empty() {
                check_spans(&label, log, &table);
                checked += 1;
            }
        }
    }
    assert!(checked >= 1900, "too few seeds produced clean spans: {checked}");
}
