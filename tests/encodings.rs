//! Ambient-coding coverage: the same description parsing ASCII, EBCDIC,
//! and binary data (§3's coding-ambiguous base types), plus binary
//! call-detail-style fixed-width records (Figure 1). Each test is a matrix
//! cell (`common/contract.rs`) plus the values only it asserts.

#[path = "common/contract.rs"]
mod contract;

use contract::{figure1, ENGINES};
use pads::{Value, Writer};

/// `source`'s clean corpus, written back from the whole-tree value.
fn written(source: &figure1::Source, truth: &contract::Truth) -> Vec<u8> {
    let writer = Writer::new(&source.schema, &source.registry).with_options(source.options);
    writer.write_source(&truth.whole.as_ref().expect("streams").value).expect("writes")
}

#[test]
fn same_description_reads_ascii_and_ebcdic() {
    // `Puint32`/`Pstring` use the *ambient* coding: the same truths from
    // both codings, locations included.
    let ebcdic = figure1::ambient_ebcdic();
    let truths = ebcdic.cells();
    for (ascii, ebcdic) in figure1::ambient().cells().iter().zip(&truths) {
        assert_eq!(ascii.run, ebcdic.run, "{}", ebcdic.at);
    }
    assert_eq!(truths[0].at(0, "tag").and_then(Value::as_str), Some("west"));
    // And writing back in EBCDIC reproduces the EBCDIC bytes.
    assert_eq!(written(&ebcdic, &truths[0]), ebcdic.corpora[0].1);
}

#[test]
fn binary_call_detail_fixed_width_records() {
    // Figure 1: call detail is fixed-width binary records (~7 GB/day). A
    // minimal analogue: caller (4B), callee (4B), duration (2B), flags (1B).
    let calls = figure1::call_detail();
    let truth = &calls.cells()[0];
    assert!(truth.clean(2));
    assert_eq!(truth.int(0, "caller"), Some(0x01020304));
    assert_eq!(truth.int(1, "duration"), Some(9));
    // Little-endian ambient order decodes differently, same description.
    assert_eq!(figure1::call_detail_le().cells()[0].int(0, "caller"), Some(0x04030201));
    assert_eq!(written(&calls, truth), calls.corpora[0].1);
}

#[test]
fn flags_constraint_fires_on_binary_data() {
    let errors = figure1::call_detail().cells()[1].run.items[2].1.errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].0 == "flags" && errors[0].1.is_semantic(), "{errors:?}");
}

#[test]
fn mixed_text_and_binary_in_one_record() {
    // Figure 1 mentions mixed formats; a tag string followed by a binary
    // counter in the same record.
    let truth = &figure1::tagged_count().cells()[0];
    assert!(truth.clean(2));
    assert_eq!(truth.at(0, "tag").and_then(Value::as_str), Some("abc"));
    assert_eq!(truth.int(0, "count"), Some(256));
}

#[test]
fn bit_fields_parse_packet_headers() {
    // §9 future work, delivered: an IPv4-style header start — version (4
    // bits), IHL (4 bits), DSCP (6 bits), ECN (2 bits), total length
    // (16 bits) — parsed straight from the description.
    let [clean, damaged] = &figure1::iphdr().cells()[..] else { panic!("two corpora") };
    assert!(clean.clean(2));
    // 0x45 = version 4, IHL 5; 0x00 = dscp 0, ecn 0; 0x05DC = 1500.
    let fields = ["version", "ihl", "total_len"].map(|path| clean.int(0, path));
    assert_eq!(fields, [Some(4), Some(5), Some(1500)]);
    assert_eq!([clean.int(1, "dscp"), clean.int(1, "total_len")], [Some(2), Some(40)]);
    // Constraints on bit fields work like any other.
    for (i, field) in [(2, "version"), (3, "ihl")] {
        let errors = damaged.run.items[i].1.errors();
        assert!(errors.iter().any(|(p, c, _)| p == field && c.is_semantic()), "{errors:?}");
    }
}

#[test]
fn unsized_array_of_sub_byte_bit_fields_reads_every_field() {
    // Two 4-bit fields per one-byte record: the array must stop at the
    // record end, not one field early because the half-read byte looked
    // consumed.
    let truth = &figure1::nibbles().cells()[0];
    assert!(truth.clean(2));
    let nibbles = [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(i, k)| truth.int(i, &format!("[{k}]")));
    assert_eq!(nibbles, [0xa, 0xb, 0xc, 0xd].map(Some));
    assert!(truth.run.items.iter().all(|(r, _)| r.len() == Some(2)));
}

#[test]
fn bit_fields_that_end_mid_byte_pad_to_the_byte() {
    // Unread bits of the last partly read byte are padding, as in C bit
    // fields: neither the record close nor the source close sees them as
    // leftover data, and a `Peor` literal matches in front of them.
    for source in figure1::half_bytes() {
        let truth = &source.cells()[0];
        let whole = truth.whole.as_ref().expect("the source streams");
        assert!(whole.pd.is_ok(), "{}: {:?}", truth.at, whole.pd.errors());
    }
    // A source that is no record array has no whole-tree column.
    let registry = pads::Registry::standard();
    let schema = pads::compile("Psource Pstruct t { Pbits(:4:) hi; };", &registry).unwrap();
    let description = contract::Description::records(&schema, &registry, "t");
    for parser in ENGINES.map(|engine| description.parser(Default::default(), engine)) {
        let (_, pd) = parser.parse_source(b"\xab", &contract::mask());
        assert!(pd.is_ok(), "{:?}: {:?}", parser.options().engine, pd.errors());
    }
}
