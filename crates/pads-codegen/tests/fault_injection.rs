//! Fault-injected recovery: the adversarial harness for the panic-free
//! guarantee. Each description's clean corpus is run through a thousand
//! deterministic [`FaultPlan`] mutations (bit flips, byte deletions,
//! insertions, truncation) and both engines — the interpreting parser and
//! the generated parsers — must (a) never panic, (b) agree on the error
//! verdict, and (c) account for every byte of every record (consumed +
//! panic-skipped = record length). A second group of tests demonstrates
//! the three [`OnExhausted`] degradation modes of the error budget.

use pads::generated::{clf, mixed, sirius};
use pads::{descriptions, PadsParser, ParseOptions, Value};
use pads_runtime::{
    BaseMask, Cursor, ErrorCode, FaultPlan, Mask, OnExhausted, ParseDesc, ParseState, PdKind,
    RecoveryPolicy,
};

const SEEDS: u64 = 1000;

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

fn clean_clf() -> Vec<u8> {
    pads_gen::clf::generate(&pads_gen::ClfConfig { records: 15, ..Default::default() }).0
}

fn clean_sirius(records: usize, syntax_errors: usize) -> Vec<u8> {
    pads_gen::sirius::generate(&pads_gen::SiriusConfig {
        records,
        syntax_errors,
        sort_violations: 0,
        ..Default::default()
    })
    .0
}

fn clean_mixed() -> Vec<u8> {
    let schema = descriptions::mixed();
    let config = pads_gen::GenConfig { seed: 7, min_len: 0, max_len: 4, ..Default::default() }
        .with_override("code", pads_gen::FieldGen::UintRange(1000, 9999))
        .with_override("kind", pads_gen::FieldGen::UintRange(0, 2))
        .with_override("nvals", pads_gen::FieldGen::UintRange(0, 9));
    pads_gen::Generator::new(&schema, config).generate_records("rec_t", 15)
}

/// `(nerr, is_ok, state)` — the verdict both engines must agree on.
fn sig(pd: &ParseDesc) -> (u32, bool, ParseState) {
    (pd.nerr, pd.is_ok(), pd.state)
}

/// Runs `SEEDS` mutations of `clean` through both engines and cross-checks
/// the verdict and the number of materialised records. `gen_parse` returns
/// the generated side's `(record_count, pd)`.
fn fault_sweep(
    name: &str,
    schema: &pads_check::ir::Schema,
    clean: &[u8],
    expect_panic: bool,
    gen_parse: impl Fn(&mut Cursor<'_>, &Mask) -> (usize, ParseDesc),
) {
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(schema, &registry);
    let m = mask();
    let mut panicked = 0u32;
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(clean);
        let (iv, ipd) = parser.parse_source(&data, &m);
        let mut cur = Cursor::new(&data);
        let (grecords, gpd) = gen_parse(&mut cur, &m);
        assert_eq!(
            sig(&ipd),
            sig(&gpd),
            "{name} seed {seed}: engines disagree on the verdict\n  interp: {ipd}\n  gen:    {gpd}"
        );
        let irecords = match iv {
            Value::Array(elts) => elts.len(),
            Value::Struct { ref fields } => fields
                .iter()
                .find_map(|(_, v)| match v {
                    Value::Array(elts) => Some(elts.len()),
                    _ => None,
                })
                .unwrap_or(0),
            _ => 0,
        };
        assert_eq!(
            irecords, grecords,
            "{name} seed {seed}: engines materialised different record counts"
        );
        if ipd.state == ParseState::Panic {
            panicked += 1;
        }
    }
    // The mutations are aggressive enough that panic-mode recovery actually
    // ran; a sweep that never panics is not exercising resynchronisation.
    // (Descriptions whose records consume to the record boundary regardless
    // of errors never leave bytes to skip, so the check is opt-in.)
    if expect_panic {
        assert!(panicked > 0, "{name}: no mutation triggered panic recovery");
    }
}

#[test]
fn clf_survives_one_thousand_fault_plans() {
    let schema = descriptions::clf();
    fault_sweep("clf", &schema, &clean_clf(), true, |cur, m| {
        let (v, pd) = clf::parse_source(cur, m);
        (v.0.len(), pd)
    });
}

#[test]
fn sirius_survives_one_thousand_fault_plans() {
    let schema = descriptions::sirius();
    fault_sweep("sirius", &schema, &clean_sirius(12, 0), false, |cur, m| {
        let (v, pd) = sirius::parse_source(cur, m);
        (v.es.0.len(), pd)
    });
}

#[test]
fn mixed_survives_one_thousand_fault_plans() {
    let schema = descriptions::mixed();
    fault_sweep("mixed", &schema, &clean_mixed(), true, |cur, m| {
        let (v, pd) = mixed::parse_source(cur, m);
        (v.0.len(), pd)
    });
}

/// `ParseDesc::has_syntax_error` walks error codes without allocating; it
/// must answer exactly what the definition it replaced answered — "state
/// not Ok, or some `errors()` entry is not semantic" — at every node of
/// every descriptor the fault harness produces, for all three corpora.
#[test]
fn has_syntax_error_agrees_with_errors_walk_on_every_fault_descriptor() {
    fn check(pd: &ParseDesc, at: &str) {
        let old = pd.state != ParseState::Ok
            || (pd.nerr > 0 && pd.errors().iter().any(|(_, code, _)| !code.is_semantic()));
        assert_eq!(pd.has_syntax_error(), old, "{at}: {pd}");
        match &pd.kind {
            PdKind::Base => {}
            PdKind::Struct { fields } => fields.iter().for_each(|(_, child)| check(child, at)),
            PdKind::Array { elts, .. } => elts.iter().for_each(|child| check(child, at)),
            PdKind::Union { pd: inner, .. }
            | PdKind::Opt { inner }
            | PdKind::Typedef { inner } => inner.iter().for_each(|child| check(child, at)),
        }
    }
    let registry = pads_runtime::Registry::standard();
    let m = mask();
    let mut syntactic = 0u32;
    for (name, schema, clean) in [
        ("clf", descriptions::clf(), clean_clf()),
        ("sirius", descriptions::sirius(), clean_sirius(12, 0)),
        ("mixed", descriptions::mixed(), clean_mixed()),
    ] {
        let parser = PadsParser::new(&schema, &registry);
        for seed in 0..SEEDS {
            let data = FaultPlan::for_seed(seed).apply(&clean);
            let (_, pd) = parser.parse_source(&data, &m);
            check(&pd, &format!("{name} seed {seed}"));
            syntactic += u32::from(pd.has_syntax_error());
        }
    }
    assert!(syntactic > 0, "no mutation produced a syntax error");
}

/// Record-at-a-time byte accounting: every byte of the mutated source is
/// either consumed by a record parse or skipped by panic recovery, and the
/// descriptor of each panicked record reports the skipped span inside the
/// record's extent.
#[test]
fn fault_recovery_accounts_for_every_byte() {
    let schema = descriptions::clf();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let m = mask();
    let clean = clean_clf();
    for seed in 0..SEEDS {
        let data = FaultPlan::for_seed(seed).apply(&clean);
        let mut cur = parser.open(&data);
        let mut covered = 0usize;
        while !cur.at_eof() {
            let before = cur.position().offset;
            let (_, pd) = parser.parse_named(&mut cur, "entry_t", &[], &m);
            let after = cur.position().offset;
            assert!(
                after > before,
                "seed {seed}: record parse made no progress at offset {before}"
            );
            covered += after - before;
            if pd.state == ParseState::Panic {
                let skip = pd
                    .errors()
                    .into_iter()
                    .find(|(_, code, _)| *code == ErrorCode::PanicSkipped);
                let (_, _, loc) = skip.unwrap_or_else(|| {
                    panic!("seed {seed}: panicked record has no PanicSkipped span: {pd}")
                });
                let loc = loc.unwrap_or_else(|| panic!("seed {seed}: PanicSkipped without loc"));
                assert!(
                    before <= loc.begin.offset && loc.end.offset <= after,
                    "seed {seed}: skipped span {}..{} outside record {before}..{after}",
                    loc.begin.offset,
                    loc.end.offset
                );
                assert!(loc.end.offset > loc.begin.offset, "seed {seed}: empty panic skip");
            }
        }
        assert_eq!(
            covered,
            data.len(),
            "seed {seed}: record extents do not tile the source"
        );
    }
}

// ---- error budgets and graceful degradation ---------------------------------

/// A Sirius corpus where a known number of records carry syntax errors.
fn dirty_sirius() -> Vec<u8> {
    clean_sirius(40, 10)
}

fn interp_with(policy: RecoveryPolicy) -> ParseOptions {
    ParseOptions { policy, ..Default::default() }
}

/// `OnExhausted::Stop`: parsing halts at the budget and says so.
#[test]
fn budget_stop_halts_both_engines_identically() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::Stop);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry).with_options(interp_with(policy));
    let (iv, ipd) = parser.parse_source(&data, &mask());
    let mut cur = Cursor::new(&data).with_policy(policy);
    let (gv, gpd) = sirius::parse_source(&mut cur, &mask());
    assert!(cur.stopped(), "budget never tripped");
    // Both report the exhaustion and stop short of the full corpus.
    for pd in [&ipd, &gpd] {
        assert!(
            pd.errors().iter().any(|(_, c, _)| *c == ErrorCode::BudgetExhausted),
            "missing BudgetExhausted: {pd}"
        );
    }
    assert!(gv.es.0.len() < 40, "stop mode parsed the whole corpus");
    let irecords = iv.at_path("es").and_then(|v| v.len()).unwrap_or(0);
    assert_eq!(irecords, gv.es.0.len());
    assert_eq!(sig(&ipd), sig(&gpd));
}

/// `OnExhausted::SkipRecord`: once the budget is spent, remaining records
/// are skipped wholesale and marked `BudgetExhausted`/`Panic`, but every
/// record still materialises (with its default value).
#[test]
fn budget_skip_record_degrades_gracefully() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::SkipRecord);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry).with_options(interp_with(policy));
    let (_, ipd) = parser.parse_source(&data, &mask());
    let mut cur = Cursor::new(&data).with_policy(policy);
    let (gv, gpd) = sirius::parse_source(&mut cur, &mask());
    assert_eq!(gv.es.0.len(), 40, "skip-record mode must keep consuming records");
    assert_eq!(sig(&ipd), sig(&gpd));
    fn skipped_records(pd: &ParseDesc) -> usize {
        fn go(pd: &ParseDesc, out: &mut usize) {
            if pd.err_code == ErrorCode::BudgetExhausted && pd.state == ParseState::Panic {
                *out += 1;
            }
            match &pd.kind {
                PdKind::Struct { fields } => fields.iter().for_each(|(_, f)| go(f, out)),
                PdKind::Array { elts, .. } => elts.iter().for_each(|e| go(e, out)),
                PdKind::Union { pd, .. } => {
                    if let Some(p) = pd {
                        go(p, out);
                    }
                }
                PdKind::Typedef { inner } => {
                    if let Some(i) = inner {
                        go(i, out);
                    }
                }
                PdKind::Opt { inner } => {
                    if let Some(i) = inner {
                        go(i, out);
                    }
                }
                PdKind::Base => {}
            }
        }
        let mut out = 0;
        go(pd, &mut out);
        out
    }
    let iskipped = skipped_records(&ipd);
    assert!(iskipped > 0, "budget never forced a record skip");
    assert_eq!(iskipped, skipped_records(&gpd));
}

/// `OnExhausted::BestEffort`: parsing continues but per-record descriptor
/// detail is dropped — aggregate counts stay truthful, the tree flattens.
#[test]
fn budget_best_effort_flattens_detail() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited().with_max_errs(3).with_on_exhausted(OnExhausted::BestEffort);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry).with_options(interp_with(policy));
    let (_, ipd) = parser.parse_source(&data, &mask());
    let mut cur = Cursor::new(&data).with_policy(policy);
    let (gv, gpd) = sirius::parse_source(&mut cur, &mask());
    assert_eq!(gv.es.0.len(), 40, "best-effort mode must parse the whole corpus");
    assert_eq!(sig(&ipd), sig(&gpd));
    // After exhaustion, erroneous records carry a flat Base descriptor with
    // a real (promoted) error code instead of the full tree.
    fn flat_error_records(pd: &ParseDesc) -> usize {
        match &pd.kind {
            PdKind::Struct { fields } => fields.iter().map(|(_, f)| flat_error_records(f)).sum(),
            PdKind::Array { elts, .. } => elts
                .iter()
                .filter(|e| e.nerr > 0 && e.kind == PdKind::Base)
                .count(),
            _ => 0,
        }
    }
    let iflat = flat_error_records(&ipd);
    assert!(iflat > 0, "best-effort mode kept full descriptor detail");
    assert_eq!(iflat, flat_error_records(&gpd));
}

/// A per-record error cap truncates detail for noisy records even when the
/// global budget is unlimited.
#[test]
fn per_record_error_cap_truncates_detail() {
    let data = dirty_sirius();
    let policy = RecoveryPolicy::unlimited().with_max_record_errs(0);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry).with_options(interp_with(policy));
    let (_, capped) = parser.parse_source(&data, &mask());
    let (_, full) = PadsParser::new(&schema, &registry).parse_source(&data, &mask());
    // Same aggregate verdict, less detail: every record over the cap is a
    // flat Base descriptor in the capped parse but a full tree in the other.
    assert_eq!(capped.nerr, full.nerr);
    fn record_elts(pd: &ParseDesc, pred: impl Fn(&ParseDesc) -> bool + Copy) -> usize {
        match &pd.kind {
            PdKind::Struct { fields } => {
                fields.iter().map(|(_, f)| record_elts(f, pred)).sum()
            }
            PdKind::Array { elts, .. } => {
                elts.iter().filter(|e| e.nerr > 0 && pred(e)).count()
            }
            _ => 0,
        }
    }
    let flattened = record_elts(&capped, |e| e.kind == PdKind::Base);
    assert!(flattened > 0, "per-record cap did not truncate descriptor detail");
    assert_eq!(
        flattened,
        record_elts(&full, |e| e.kind != PdKind::Base),
        "cap must flatten exactly the records that carry errors"
    );
}
