//! E9: XML conversion and XML Schema generation (§5.3.2) on the Sirius
//! description — including the paper's choice of embedding parse
//! descriptors for buggy data.

use pads::{descriptions, BaseMask, Mask, PadsParser, Registry};
use pads_tools::{schema_to_xsd, value_to_xml};

const FIGURE_3: &[u8] = b"0|1005022800\n9152|9152|1|9735551212|0||9085551212|07988|no_ii152272|EDTF_6|0|APRL1|DUO|10|1000295291\n";

#[test]
fn sirius_xsd_contains_the_event_seq_embedding() {
    // Compare with the paper's §5.3.2 fragment: the array type maps to a
    // sequence of `elt` elements, a `length`, and an optional `pd` whose
    // type carries pstate/nerr/errCode/loc plus the array extras
    // neerr/firstError.
    let xsd = schema_to_xsd(&descriptions::sirius());
    assert!(xsd.contains("<xs:complexType name=\"eventSeq\">"), "{xsd}");
    assert!(xsd.contains(
        "<xs:element name=\"elt\" type=\"event_t\" minOccurs=\"0\" maxOccurs=\"unbounded\"/>"
    ));
    assert!(xsd.contains("<xs:element name=\"length\" type=\"xs:unsignedInt\"/>"));
    assert!(xsd.contains("<xs:element name=\"pd\" type=\"Ppd\" minOccurs=\"0\" maxOccurs=\"1\"/>"));
    for field in ["pstate", "nerr", "errCode", "loc", "neerr", "firstError"] {
        assert!(xsd.contains(&format!("<xs:element name=\"{field}\"")), "missing {field}");
    }
    // Optional fields from Popt map to minOccurs="0".
    assert!(xsd.contains("<xs:element name=\"zip_code\" type=\"xs:string\" minOccurs=\"0\"/>"));
    // The source element is declared.
    assert!(xsd.contains("<xs:element name=\"out_sum\" type=\"out_sum\"/>"));
}

#[test]
fn clean_sirius_value_converts_without_pds() {
    let schema = descriptions::sirius();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let (v, pd) = parser.parse_source(FIGURE_3, &Mask::all(BaseMask::CheckAndSet));
    assert!(pd.is_ok());
    let xml = value_to_xml(&v, Some(&pd), "out_sum", 0);
    assert!(xml.contains("<tstamp>1005022800</tstamp>"));
    assert!(xml.contains("<order_num>9152</order_num>"));
    assert!(xml.contains("<state>10</state>"));
    assert!(xml.contains("<length>1</length>"));
    // Popt NONE becomes a self-closing element.
    assert!(xml.contains("<nlp_service_tn/>"));
    // Union branch name wraps the value.
    assert!(xml.contains("<genRamp>"));
    assert!(!xml.contains("<pd>"));
}

#[test]
fn buggy_sirius_value_embeds_parse_descriptors() {
    let schema = descriptions::sirius();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    // Unsorted events: a semantic error, so the value exists AND carries pd.
    let data = b"0|1005022800\n9|9|1|0|0|0|0||1|T|0|||A|200|B|100\n";
    let (v, pd) = parser.parse_source(data, &Mask::all(BaseMask::CheckAndSet));
    assert!(!pd.is_ok());
    let xml = value_to_xml(&v, Some(&pd), "out_sum", 0);
    assert!(xml.contains("<pd>"), "{xml}");
    assert!(xml.contains("<errCode>"));
    assert!(xml.contains("ForallViolation"));
    // The data itself is still all there for exploration.
    assert!(xml.contains("<state>A</state>"));
}

/// A `Penum` that matched no variant keeps its error: line 4 of the CLF
/// torture corpus (`"BREW /a …"`) renders its method as the default
/// variant under `<val>`, next to a `<pd>` carrying `EnumNoMatch`.
#[test]
fn bad_enum_embeds_its_parse_descriptor() {
    let schema = descriptions::clf();
    let registry = Registry::standard();
    let parser = PadsParser::new(&schema, &registry);
    let corpus = String::from_utf8_lossy(include_bytes!("data/torture_clf.log"));
    let line = format!("{}\n", corpus.lines().nth(3).expect("line 4"));
    assert!(line.contains("\"BREW /a "), "{line}");
    let (v, pd) = parser.parse_source(line.as_bytes(), &Mask::all(BaseMask::CheckAndSet));
    assert!(pd.errors().iter().any(|(_, code, _)| *code == pads::ErrorCode::EnumNoMatch));
    let xml = value_to_xml(&v, Some(&pd), "clt_t", 0);
    let meth = xml.find("<meth>").map(|at| &xml[at..]).expect("a <meth> node");
    let meth = &meth[..meth.find("</meth>").expect("closed") + "</meth>".len()];
    assert!(meth.contains("<val>GET</val>"), "{meth}");
    assert!(meth.contains("<errCode>EnumNoMatch</errCode>"), "{meth}");
}

#[test]
fn clf_xsd_uses_choice_for_unions_and_enumeration_for_enums() {
    let xsd = schema_to_xsd(&descriptions::clf());
    assert!(xsd.contains("<xs:choice>"));
    assert!(xsd.contains("<xs:enumeration value=\"GET\"/>"));
    assert!(xsd.contains("<xs:enumeration value=\"UNLINK\"/>"));
    assert!(xsd.contains("<xs:simpleType name=\"response_t\">"));
}

/// A typedef's value is its underlying type's, so wrapping an aggregate in a
/// `Ptypedef` changes neither the accumulator's report nor the XML below the
/// wrapped node (whose `<pd>` is the typedef's): not `request_t` over the CLF
/// torture corpus, nor a union matching no branch and a struct with a bad field.
#[test]
fn a_typedef_around_an_aggregate_changes_no_output() {
    let registry = Registry::standard();
    let outputs = |text: &str, data: &[u8], record| {
        let schema = pads::compile(text, &registry).expect("compiles");
        let parser = PadsParser::new(&schema, &registry);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let mut acc = pads_tools::Accumulator::new(&schema, record);
        parser.records(data, record, &mask).for_each(|(v, pd)| acc.add(&v, &pd));
        let (v, pd) = parser.parse_source(data, &mask);
        (acc.report("<top>"), value_to_xml(&v, Some(&pd), &schema.source_def().name, 0))
    };
    let same = |wrapped: &str, plain: &str, data: &[u8], record| {
        let (got, want) = (outputs(wrapped, data, record), outputs(plain, data, record));
        assert_eq!(got.0, want.0, "accum");
        assert_eq!(got.1.lines().count(), want.1.lines().count(), "{}", got.1);
        for (got, want) in got.1.lines().zip(want.1.lines()).filter(|(got, want)| got != want) {
            assert_eq!(got.trim(), "<errCode>NestedError</errCode>", "in place of {want}");
        }
        got
    };
    let clf = descriptions::CLF.replace("\"] \"; request_t", "\"] \"; wrapped_t");
    let typedef = "Ptypedef request_t wrapped_t; Precord Pstruct entry_t";
    let clf = clf.replace("Precord Pstruct entry_t", typedef);
    same(&clf, descriptions::CLF, include_bytes!("data/torture_clf.log"), "entry_t");
    let pair = |u: &str, w: &str| {
        format!(
            "Punion num_t {{ Puint32 n; Pstring_ME(:\"NONE\":) none; }}; Ptypedef num_t wu_t;
            Pstruct pair_t {{ Puint32 a; ','; Puint32 b; }}; Ptypedef pair_t wp_t;
            Precord Pstruct r_t {{ {u} u; ' '; {w} w; }}; Psource Parray rs_t {{ r_t[]; }};"
        )
    };
    let data = b"7 1,2\n? 3,4\nNONE 5,x\n? 7,8\n";
    let (report, _) = same(&pair("wu_t", "wp_t"), &pair("num_t", "pair_t"), data, "r_t");
    // Two unions matched no branch; their default `n` is no data.
    let n = report.split("<top>.u.n ").nth(1).and_then(|n| n.lines().nth(2));
    assert_eq!(n, Some("good: 1 bad: 0 pcnt-bad: 0.000"), "{report}");
}
