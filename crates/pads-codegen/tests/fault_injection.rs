//! The fault sweep: a thousand `FaultPlan` mutations of each bundled
//! description's clean corpus, each seed's truth computed once and checked
//! in the rows of the contract matrix (`tests/common/contract.rs`) the
//! description's sweep gives it, and the facts on blocks of seeds of their
//! own. Then the three [`OnExhausted`] degradation modes of the error
//! budget, on a Sirius corpus with a known number of damaged records: the
//! interpreting parser and the generated one degrade identically.

#[path = "../../../tests/common/contract.rs"]
mod contract;

use contract::bundled::{self, Bundled};
use contract::{seeds, sweep, Plan, Truth};
use pads::generated::sirius;
use pads::{descriptions, Engine, PadsParser, ParseOptions};
use pads_runtime::{
    BaseMask, Cursor, ErrorCode, Mask, OnExhausted, ParseDesc, ParseState, PdKind, RecoveryPolicy,
};

/// The main sweep of `bundled`, each seed checked in the rows `plan` gives
/// it: its mutations must reach panic-mode recovery (where the description
/// can) and syntax errors, and on nine seeds in ten leave clean spans for
/// the width check.
fn survives(bundled: Bundled, plan: impl Fn(u64, &Truth) -> Plan + Sync) {
    let reached = sweep(&bundled, seeds::SWEEP, plan);
    let (name, panics) = (bundled.name, bundled.panics);
    assert!(reached.panicked > 0 || !panics, "{name}: no mutation triggered panic recovery");
    assert!(reached.syntax > 0, "{name}: no mutation produced a syntax error");
    assert!(reached.spans > reached.seeds * 9 / 10, "{name}: {reached:?}");
}

/// Sirius and mixed seeds: the VM on one thread with every event traced,
/// the batch, and the generated module's whole-source verdict. The sharded,
/// killed and generated-reader rows run on every CLF seed; Sirius seeds
/// are killed in `crash_resume.rs`'s header-source cell.
fn vm_and_generated(_: u64, _: &Truth) -> Plan {
    Plan { sequential: vec![Engine::Vm], batch: true, generated: true, ..Plan::default() }
}

#[test]
fn clf_survives_one_thousand_fault_plans() {
    survives(bundled::clf(), Plan::for_seed);
}

#[test]
fn sirius_survives_one_thousand_fault_plans() {
    survives(bundled::sirius(), vm_and_generated);
}

#[test]
fn mixed_survives_one_thousand_fault_plans() {
    survives(bundled::mixed(), vm_and_generated);
}

/// `ParseDesc::has_syntax_error` walks error codes without allocating; the
/// facts hold it to what the definition it replaced answered — "state not
/// Ok, or some `errors()` entry is not semantic" — at every node of every
/// descriptor, here on a block of fault seeds of each bundled description.
#[test]
fn has_syntax_error_agrees_with_errors_walk_on_every_fault_descriptor() {
    let syntax: u64 = bundled::all()
        .iter()
        .map(|bundled| sweep(bundled, seeds::SYNTAX, |_, _| Plan::default()).syntax)
        .sum();
    assert!(syntax > 0, "no mutation produced a syntax error");
}

/// CLF fault seeds read record at a time: every byte of the mutated source
/// is consumed by a record or skipped by panic recovery, and each panicked
/// record reports its skipped span inside its extent.
#[test]
fn fault_recovery_accounts_for_every_byte() {
    sweep(&bundled::clf(), seeds::BYTES, |_, _| Plan {
        records: vec![Engine::Interp],
        ..Plan::default()
    });
}

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// `(nerr, is_ok, state)` — the verdict both engines must agree on.
fn sig(pd: &ParseDesc) -> (u32, bool, ParseState) {
    (pd.nerr, pd.is_ok(), pd.state)
}

/// A Sirius corpus where a known number of records carry syntax errors.
fn dirty_sirius() -> Vec<u8> {
    let config = pads_gen::SiriusConfig {
        records: 40,
        syntax_errors: 10,
        sort_violations: 0,
        ..Default::default()
    };
    pads_gen::sirius::generate(&config).0
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
