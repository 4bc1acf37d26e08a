//! The contract matrix (`common/contract.rs`) cannot pass vacuously: each
//! row here plants a fault in a candidate run and must fail the column
//! meant to catch it. The cells that run the matrix are the suites that
//! include it.

#[path = "common/contract.rs"]
mod contract;

use contract::bundled::Clf;
use contract::{
    bundled, figure1, generated, Case, Description, Generated, Kill, Observe, Plan, Truth,
    CHUNKS_OF_TWO, ORDERS, SEQUENTIAL,
};
use pads::{Cursor, Engine, ErrorCode, Mask, ParseDesc, PdKind, RecoveryPolicy, Value};
use pads_runtime::{KillPlan, MetricsCore};

/// Every file of `tests/descriptions/` is the input of a case: a
/// description a Figure 1 case or the `cli` suites' `orders_t` reads, or
/// a copybook whose translation a case reads.
#[test]
fn every_test_description_is_loaded_by_a_case() {
    let mut loaded: Vec<_> = figure1::all().into_iter().map(|s| s.text).collect();
    loaded.push(ORDERS.to_owned());
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/descriptions");
    for path in std::fs::read_dir(dir).expect("the directory").map(|entry| entry.unwrap().path()) {
        let text = std::fs::read_to_string(&path).expect("a text file");
        let text = match path.extension().and_then(|e| e.to_str()) {
            Some("pads") => text,
            Some("cpy") => pads_cobol::translate(&text).expect("the copybook translates"),
            _ => panic!("{} is neither a description nor a copybook", path.display()),
        };
        assert!(loaded.contains(&text), "no case loads {}", path.display());
    }
}

/// The torture CLF case and its unlimited-policy truth, handed to `fault`.
fn planted(fault: impl FnOnce(&Case<'_>, &Truth)) {
    let clf = bundled::clf();
    let description = Description::new(&clf.schema, &clf.registry);
    let case = Case::new("clf", &description, clf.torture);
    fault(&case, &Truth::of(&case, RecoveryPolicy::unlimited()));
}

#[test]
#[should_panic(expected = "geometry Vm jobs=2 inflight=1: record count")]
fn a_run_missing_its_last_record_fails_the_geometry_column() {
    planted(|case, truth| {
        let mut got = case.streamed(truth.policy, Engine::Vm, (2, 1), Observe::Off);
        got.run.items.pop();
        got.run.progress.pop();
        truth.geometry(Engine::Vm, (2, 1), &got);
    });
}

#[test]
#[should_panic(expected = "sequential Vm: descriptor [")]
fn a_descriptor_whose_nerr_is_off_by_one_fails_the_sequential_column() {
    planted(|case, truth| {
        let mut got = case.streamed(truth.policy, Engine::Vm, SEQUENTIAL, Observe::Trace);
        let (_, pd) = got.run.items.iter_mut().find(|(_, pd)| !pd.is_ok()).expect("an error");
        pd.nerr += 1;
        truth.sequential(Engine::Vm, &got);
    });
}

#[test]
#[should_panic(expected = "killed Interp after 6 every 2 (1, 8)→(4, 8) memory: end")]
fn a_budget_one_error_short_fails_the_killed_column() {
    planted(|case, truth| {
        let plan = KillPlan { kill_after: 6, checkpoint_every: 2 };
        let jobs = ((1, 8), CHUNKS_OF_TWO);
        let kill = Kill { plan, engine: Engine::Interp, jobs, counted: true, journal: false };
        let (killed, mut resumed) = case.killed(truth.policy, &kill);
        resumed.run.end.budget.errs -= 1;
        truth.killed(&kill, &killed, &resumed);
    });
}

#[test]
#[should_panic(expected = "geometry Interp jobs=4 inflight=1: counters")]
fn a_counter_snapshot_missing_a_node_fails_the_geometry_column() {
    planted(|case, truth| {
        let mut got = case.streamed(truth.policy, Engine::Interp, (4, 1), Observe::Count);
        got.counters.as_mut().expect("counted").types.pop_last();
        truth.geometry(Engine::Interp, (4, 1), &got);
    });
}

/// The generated CLF module, its reader rewriting what it returns as
/// `FAULT` says: `OLD_TYPEDEF` puts the error of a failed `response` read
/// back on the typedef's own node, its base descriptor dropped (the shape
/// generated code once gave a typedef over a base type); `DAMAGED_LEAF`
/// adds one to the `length` of a record with errors.
struct Planted<const FAULT: u8>;
const OLD_TYPEDEF: u8 = 0;
const DAMAGED_LEAF: u8 = 1;

impl<const FAULT: u8> Generated for Planted<FAULT> {
    type Record<'d> = <Clf as Generated>::Record<'d>;

    fn read<'d>(cur: &mut Cursor<'d>, mask: &Mask) -> (Self::Record<'d>, ParseDesc) {
        let (mut record, mut pd) = Clf::read(cur, mask);
        if FAULT == DAMAGED_LEAF && !pd.is_ok() {
            record.length += 1;
        }
        if let (OLD_TYPEDEF, PdKind::Struct { fields }) = (FAULT, &mut pd.kind) {
            for (_, response) in fields.iter_mut().filter(|(name, _)| *name == "response") {
                if let PdKind::Typedef { inner: Some(base) } = &response.kind {
                    response.err_code = base.err_code;
                    response.kind = PdKind::typedef(ParseDesc::ok());
                }
            }
        }
        (record, pd)
    }

    fn write(record: &Self::Record<'_>, out: &mut Vec<u8>) -> Result<(), ErrorCode> {
        Clf::write(record, out)
    }

    fn verify(record: &Self::Record<'_>) -> bool {
        Clf::verify(record)
    }

    fn value(record: &Self::Record<'_>) -> Value {
        Clf::value(record)
    }

    fn parse_source(cur: &mut Cursor<'_>, mask: &Mask) -> (Value, ParseDesc) {
        Clf::parse_source(cur, mask)
    }

    fn metrics_core() -> MetricsCore {
        Clf::metrics_core()
    }
}

#[test]
#[should_panic(expected = "generated reader: descriptor [")]
fn a_typedef_descriptor_in_its_old_shape_fails_the_generated_reader_column() {
    let plan = Plan { reader: true, ..Plan::default() };
    planted(|case, truth| generated::<Planted<OLD_TYPEDEF>>(case, truth, &plan));
}

#[test]
#[should_panic(expected = "generated reader: value [")]
fn a_damaged_record_with_one_leaf_changed_fails_the_generated_reader_column() {
    let plan = Plan { reader: true, ..Plan::default() };
    planted(|case, truth| generated::<Planted<DAMAGED_LEAF>>(case, truth, &plan));
}
