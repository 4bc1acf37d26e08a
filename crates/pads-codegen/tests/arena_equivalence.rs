//! The arena lowering (`to_arena`) emitted into the generated modules, on
//! its own: read back ([`pads::to_value`]) it is the interpreter's value,
//! of a whole source and of each record lowered into one arena reset
//! between records (the generated columns of the contract matrix,
//! `tests/common/contract.rs`, compare every value through a fresh arena);
//! it keeps borrowed string leaves borrowed (no text is copied into the
//! arena's spill heap on the ASCII fast path); and it feeds a
//! [`RecordBatch`] the rows the interpreter's owned values do.

use pads::generated::{clf, sirius};
use pads::{descriptions, to_value, PadsParser, RecordBatch, Value};
use pads_runtime::{BaseMask, Cursor, Mask, ValueArena};

fn mask() -> Mask {
    Mask::all(BaseMask::CheckAndSet)
}

/// 300 clean Sirius records, lowered whole.
#[test]
fn sirius_to_arena_round_trips_to_the_interpreter_source_value() {
    let config = pads_gen::SiriusConfig {
        records: 300,
        syntax_errors: 0,
        sort_violations: 0,
        ..pads_gen::SiriusConfig::default()
    };
    let (data, _) = pads_gen::sirius::generate(&config);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let (want, _) = PadsParser::new(&schema, &registry).parse_source(&data, &mask());
    let (gv, gpd) = sirius::parse_source(&mut Cursor::new(&data), &mask());
    assert!(gpd.is_ok(), "{:?}", gpd.errors().first());
    let mut arena = ValueArena::new();
    let root = gv.to_arena(&mut arena);
    assert_eq!(to_value(arena.get(root), &sirius::name_table()), want);
}

/// 400 generated CLF records, some with the dash length of §5.2, lowered
/// one at a time: damaged records too.
#[test]
fn clf_to_arena_round_trips_record_by_record() {
    let config = pads_gen::ClfConfig { records: 400, ..pads_gen::ClfConfig::default() };
    let (data, _) = pads_gen::clf::generate(&config);
    let schema = descriptions::clf();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let want: Vec<Value> = parser.records(&data, "entry_t", &mask()).map(|(v, _)| v).collect();
    let names = clf::name_table();
    let mut arena = ValueArena::new();
    let mut cur = Cursor::new(&data);
    for (i, want) in want.iter().enumerate() {
        let (gv, _) = clf::EntryT::read(&mut cur, &mask());
        arena.reset();
        let root = gv.to_arena(&mut arena);
        assert_eq!(to_value(arena.get(root), &names), *want, "record {i}");
    }
    assert!(cur.at_eof(), "the interpreter stopped at {} records", want.len());
}

#[test]
fn to_arena_keeps_ascii_string_leaves_borrowed() {
    let config = pads_gen::SiriusConfig {
        records: 5,
        syntax_errors: 0,
        sort_violations: 0,
        ..pads_gen::SiriusConfig::default()
    };
    let (data, _) = pads_gen::sirius::generate(&config);
    let mut cur = Cursor::new(&data);
    let (gv, gpd) = sirius::parse_source(&mut cur, &mask());
    assert!(gpd.is_ok());

    let names = sirius::name_table();
    let mut arena = ValueArena::new();
    let h = gv.to_arena(&mut arena);
    let entry = arena.get(h).field("es", &names).unwrap().index(0).unwrap();
    let order_type = entry
        .field("header", &names)
        .unwrap()
        .field("order_type", &names)
        .unwrap()
        .as_str()
        .unwrap();
    // The leaf's bytes live inside the input buffer, not in the arena.
    let range = data.as_ptr_range();
    let p = order_type.as_ptr();
    assert!(range.contains(&p), "string leaf was copied instead of borrowed");
}

#[test]
fn record_batch_rows_agree_between_owned_and_generated_arena_producers() {
    let config = pads_gen::SiriusConfig {
        records: 200,
        syntax_errors: 0,
        sort_violations: 0,
        ..pads_gen::SiriusConfig::default()
    };
    let (data, _) = pads_gen::sirius::generate(&config);
    let schema = descriptions::sirius();
    let registry = pads_runtime::Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let m = mask();

    // Owned producer: interpreter values pushed as trees.
    let mut owned = RecordBatch::new();
    for (v, pd) in parser.records(&data, "entry_t", &m) {
        owned.push(&v, &pd);
    }

    // Arena producer: generated typed values lowered per record, with the
    // arena reset between records (the batch copies what it keeps).
    let names = sirius::name_table();
    let mut arena = ValueArena::new();
    let mut batch = RecordBatch::new();
    let mut cur = Cursor::new(&data);
    while !cur.at_eof() {
        let (gv, gpd) = sirius::EntryT::read(&mut cur, &m);
        arena.reset();
        let h = gv.to_arena(&mut arena);
        batch.push_arena(arena.get(h), &names, &gpd);
    }

    assert_eq!(owned.len(), batch.len());
    for i in 0..owned.len() {
        assert_eq!(owned.row(i), batch.row(i), "row {i}");
    }
    assert_eq!(owned.error_rows(), batch.error_rows());
}
