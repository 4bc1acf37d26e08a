//! The bytecode VM against the interpreter: the VM's cells of the contract
//! matrix (`common/contract.rs`) — sequential with every event traced, the
//! element iterator, every geometry, every resume point, the batch, killed
//! through an on-disk journal — and the generated reader the VM's runs are
//! held to; then the per-charset program witness.

#[path = "common/contract.rs"]
mod contract;

use std::sync::Arc;

use contract::bundled::{self, Bundled};
use contract::{
    every_boundary, every_geometry, mask, seeds, sweep, torture, Kill, Plan, CHUNKS_OF_TWO,
    SEQUENTIAL,
};
use pads::{compile, Charset, Engine, PadsParser, ParseOptions, Registry, Value};
use pads_runtime::KillPlan;

fn vm_tiers(bundled: Bundled) {
    let vm = Engine::Vm;
    torture(&bundled, |truth| Plan {
        records: vec![vm],
        geometries: every_geometry(vm),
        counted: true,
        resumes: every_boundary(truth).map(|(k, geometry)| (k, vm, geometry)).collect(),
        batch: true,
        batched: vec![(vm, 1), (vm, 4)],
        ..Plan::default()
    });
}

#[test]
fn torture_clf_vm_matches_interpreter() {
    vm_tiers(bundled::clf());
}

#[test]
fn torture_sirius_vm_matches_interpreter() {
    vm_tiers(bundled::sirius());
}

#[test]
fn torture_mixed_vm_matches_interpreter() {
    vm_tiers(bundled::mixed());
}

/// CLF fault seeds under the VM: sequentially, record at a time, and on
/// one and on four workers taking two records at a time — rows every seed
/// of the main sweep (`fault_injection.rs`) runs too, here on a block of
/// seeds of their own.
#[test]
fn fault_harness_vm_matches_interpreter() {
    let vm = Engine::Vm;
    sweep(&bundled::clf(), seeds::VM, |_, _| Plan {
        sequential: vec![vm],
        records: vec![vm],
        geometries: vec![(vm, SEQUENTIAL), (vm, CHUNKS_OF_TWO)],
        ..Plan::default()
    });
}

/// The VM's sequential run over each torture corpus, an observing fold
/// beside it: every event the whole-tree parse traces, its counters, its
/// summary.
#[test]
fn vm_observer_stream_matches_interpreter() {
    for bundled in bundled::all() {
        torture(&bundled, |_| Plan { sequential: vec![Engine::Vm], ..Plan::default() });
    }
}

/// The generated CLF reader yields the descriptors, boundaries and budget
/// of the run the VM is held to, and writes what the interpreter writes.
#[test]
fn vm_matches_generated_reader_on_torture_clf() {
    torture(&bundled::clf(), |_| Plan { reader: true, ..Plan::default() });
}

/// CLF fault seeds: a VM run killed at the seed's `KillPlan`, its
/// checkpoints — budget and counters — committed to an on-disk journal,
/// reopened and resumed on the VM, ends as the interpreter's uninterrupted
/// run, counters included.
#[test]
fn vm_journal_kill_resume_matches_uninterrupted_interpreter() {
    sweep(&bundled::clf(), seeds::VM_JOURNAL, |seed, truth| {
        let plan = KillPlan::for_seed(seed, truth.len());
        let kill = Kill { counted: true, journal: true, ..Kill::at(plan, Engine::Vm) };
        Plan { kills: vec![kill], ..Plan::default() }
    });
}

/// The VM runs whatever charset the cursor carries — the program compiled
/// for it — and agrees with the interpreter under both. A compiled program
/// holds the base-type handles it resolved, so the reference count of the
/// description's one `Puint32` witnesses that the VM parser compiled and
/// kept a program per charset rather than fall back to the interpreter.
#[test]
fn vm_runs_under_either_charset_and_agrees_with_the_interpreter() {
    let registry = Registry::standard();
    let schema = compile(
        "Precord Pstruct charset_witness_t { Puint32 n; '|'; Pstring(:'|':) tag; '|'; };",
        &registry,
    )
    .expect("compiles");
    let ebcdic = Charset::Ebcdic;
    let line: Vec<u8> = b"17|west|".iter().map(|&b| ebcdic.encode(b)).collect();
    let interp = PadsParser::new(&schema, &registry);
    let options = ParseOptions { engine: Engine::Vm, ..Default::default() };
    let vm = PadsParser::new(&schema, &registry).with_options(options);
    let uint = Arc::clone(registry.get("Puint32").expect("standard registry"));
    let holders = Arc::strong_count(&uint);

    // Both parsers were built for ASCII; hand them cursors of either kind.
    for (charset, data) in [(Charset::Ascii, &b"17|west|"[..]), (ebcdic, &line[..])] {
        let parse = |parser: &PadsParser<'_>| {
            let mut cur = parser.open(data).with_charset(charset);
            parser.parse_named(&mut cur, "charset_witness_t", &[], &mask())
        };
        let (iv, ipd) = parse(&interp);
        let (vv, vpd) = parse(&vm);
        assert!(ipd.is_ok(), "{charset:?}: {ipd}");
        assert_eq!(iv.at_path("n").and_then(Value::as_u64), Some(17), "{charset:?}");
        assert_eq!(vv, iv, "{charset:?}: VM value diverges");
        assert_eq!(vpd, ipd, "{charset:?}: VM descriptor diverges");
    }
    assert_eq!(
        Arc::strong_count(&uint),
        holders + 2,
        "the VM parser holds the ASCII and the EBCDIC program it ran"
    );
}
