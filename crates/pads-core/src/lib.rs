//! **pads** — a Rust implementation of the PADS data description language.
//!
//! PADS (*Processing Ad hoc Data Sources*; Fisher & Gruber, PLDI 2005) lets
//! a data analyst describe the physical layout *and* semantic properties of
//! an ad hoc data source — web logs, provisioning feeds, binary call
//! detail, Cobol billing files — and get a full manipulation library in
//! exchange: parser, printer, verifier, statistical profiler, format
//! converters, and query support.
//!
//! This crate is the user-facing entry point of the workspace:
//!
//! * [`compile`] — description text → checked [`Schema`];
//! * [`PadsParser`] — parse bytes into ([`Value`], [`ParseDesc`]) pairs,
//!   whole-source or record-at-a-time, under a constraint [`Mask`];
//! * [`Writer`] — write representations back out in original form;
//! * [`Verifier`] — re-check semantic constraints on in-memory values;
//! * [`descriptions`] — the paper's CLF and Sirius descriptions, bundled.
//!
//! Sibling crates extend this core the way the PADS compiler's generated
//! artifacts did: `pads-tools` (accumulators, formatting, XML),
//! `pads-query` (XQuery-style selection), `pads-gen` (synthetic data),
//! `pads-codegen` (Rust code generation), and `pads-cobol` (copybook
//! translation).
//!
//! # Quickstart
//!
//! ```
//! use pads::{compile, PadsParser, Value};
//! use pads_runtime::{BaseMask, Mask, Registry};
//!
//! let registry = Registry::standard();
//! let schema = compile(
//!     r#"
//!     Precord Pstruct order_t {
//!         Puint32 id;
//!         '|'; Pstring(:'|':) state;
//!         '|'; Puint32 total : total >= id;
//!     };
//!     Psource Parray orders_t { order_t[]; };
//!     "#,
//!     &registry,
//! )?;
//! let parser = PadsParser::new(&schema, &registry);
//! let mask = Mask::all(BaseMask::CheckAndSet);
//! let (orders, pd) = parser.parse_source(b"7|OPEN|19\n8|SHIP|20\n", &mask);
//! assert!(pd.is_ok());
//! assert_eq!(orders.len(), Some(2));
//! assert_eq!(orders.at_path("[1].state").and_then(Value::as_str), Some("SHIP"));
//! # Ok::<(), pads_check::CompileError>(())
//! ```

// Parsers must never abort on data: a reachable `unwrap`/`expect` on the
// parse path is a defect. Errors belong in parse descriptors. Tests are
// exempt (failing loudly is what they are for).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod batch;
pub mod descriptions;
pub mod generated;
pub mod eval;
pub mod parallel;
pub mod parse;
pub mod source;
pub mod value;
pub mod verify;
pub mod vm;
pub mod write;

pub use pads_check::ir::{Schema, TypeId};
pub use pads_check::{check, compile, CheckError, CompileError};
pub use pads_runtime::{
    BaseMask, Charset, Cursor, Endian, ErrorBudget, ErrorCode, Loc, Mask, OnExhausted, ParseDesc,
    ParseState, Parsed, PdChild, PdKind, Pos, Prim, PrimKind, Progress, RecordDiscipline,
    RecoveryPolicy, Registry, ResumePoint, DEFAULT_MAX_INFLIGHT,
};
pub use pads_syntax::{parse as parse_description, Program, SyntaxError};

pub use arena::{push_value, to_value};
pub use batch::RecordBatch;
pub use eval::{Env, Ev};
pub use parse::{Engine, PadsParser, ParseOptions, Records};
pub use source::{RecordSink, SourceEnd, SourceFold, SourceJob, SourceShape, SourceSummary};
pub use vm::VmProgram;
pub use value::Value;
pub use verify::{Verifier, Violation};
pub use write::Writer;

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(src: &str) -> (Schema, Registry) {
        let registry = Registry::standard();
        let schema = compile(src, &registry).expect("test description compiles");
        (schema, registry)
    }

    fn caset() -> Mask {
        Mask::all(BaseMask::CheckAndSet)
    }

    // ---- struct / literal basics ---------------------------------------

    #[test]
    fn parses_simple_struct() {
        let (schema, registry) = setup("Pstruct v_t { \"HTTP/\"; Puint8 major; '.'; Puint8 minor; };");
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"HTTP/1.0");
        let (v, pd) = parser.parse_named(&mut cur, "v_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.at_path("major").and_then(Value::as_u64), Some(1));
        assert_eq!(v.at_path("minor").and_then(Value::as_u64), Some(0));
    }

    #[test]
    fn literal_mismatch_is_partial() {
        let (schema, registry) = setup("Pstruct v_t { \"HTTP/\"; Puint8 major; };");
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"HTTQ/1");
        let (_, pd) = parser.parse_named(&mut cur, "v_t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::LitMismatch);
        assert_eq!(pd.state, ParseState::Partial);
    }

    #[test]
    fn constraint_violation_is_semantic_and_keeps_value() {
        let (schema, registry) = setup("Pstruct p_t { Puint8 a; ','; Puint8 b : b > a; };");
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"9,3");
        let (v, pd) = parser.parse_named(&mut cur, "p_t", &[], &caset());
        assert_eq!(pd.nerr, 1);
        // The violation is recorded on the field's descriptor (aggregated
        // as NestedError at the struct level, like any nested error).
        let errors = pd.errors();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].0, "b");
        assert_eq!(errors[0].1, ErrorCode::ConstraintViolation);
        let b = pd.child(PdChild::Field("b")).unwrap();
        assert_eq!(b.err_code, ErrorCode::ConstraintViolation);
        assert_eq!(v.at_path("b").and_then(Value::as_u64), Some(3));
        assert!(!pd.has_syntax_error());
    }

    #[test]
    fn masks_disable_constraint_checking() {
        let (schema, registry) = setup("Pstruct p_t { Puint8 a; ','; Puint8 b : b > a; };");
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"9,3");
        let (_, pd) = parser.parse_named(&mut cur, "p_t", &[], &Mask::all(BaseMask::Set));
        assert!(pd.is_ok(), "Set mask must skip the constraint: {pd}");
    }

    // ---- unions ---------------------------------------------------------

    #[test]
    fn ordered_union_takes_first_clean_branch() {
        let (schema, registry) = setup(
            r#"
            Punion client_t { Pip ip; Phostname host; };
            Pstruct t { client_t c; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"207.136.97.49 ");
        let (v, pd) = parser.parse_named(&mut cur, "client_t", &[], &caset());
        assert!(pd.is_ok());
        assert!(matches!(v, Value::Union { ref branch, .. } if branch == "ip"));
        let mut cur = parser.open(b"tj62.aol.com ");
        let (v, pd) = parser.parse_named(&mut cur, "client_t", &[], &caset());
        assert!(pd.is_ok());
        assert!(matches!(v, Value::Union { ref branch, .. } if branch == "host"));
    }

    #[test]
    fn union_constraints_select_branches_even_with_checks_off() {
        let (schema, registry) = setup(
            r#"
            Punion auth_id_t {
                Pchar unauthorized : unauthorized == '-';
                Pstring(:' ':) id;
            };
            Pstruct t { auth_id_t a; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        for mask in [caset(), Mask::all(BaseMask::Set)] {
            let mut cur = parser.open(b"- ");
            let (v, pd) = parser.parse_named(&mut cur, "auth_id_t", &[], &mask);
            assert!(pd.is_ok());
            assert!(matches!(v, Value::Union { ref branch, .. } if branch == "unauthorized"));
            let mut cur = parser.open(b"kfisher ");
            let (v, _) = parser.parse_named(&mut cur, "auth_id_t", &[], &mask);
            assert!(matches!(v, Value::Union { ref branch, .. } if branch == "id"));
        }
    }

    #[test]
    fn union_failure_reports_no_branch() {
        let (schema, registry) = setup(
            r#"
            Punion n_t { Puint8 small; Pip addr; };
            Pstruct t { n_t n; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"xyz");
        let (_, pd) = parser.parse_named(&mut cur, "n_t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::UnionNoBranch);
    }

    #[test]
    fn switched_union_follows_selector() {
        let (schema, registry) = setup(
            r#"
            Punion body_t (:Puint8 kind:) Pswitch(kind) {
                Pcase 0: Puint32 num;
                Pcase 1: Pstring(:';':) text;
                Pdefault: Pvoid skip;
            };
            Pstruct msg_t { Puint8 kind; ':'; body_t(:kind:) body; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"0:12345");
        let (v, pd) = parser.parse_named(&mut cur, "msg_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.at_path("body.num").and_then(Value::as_u64), Some(12345));
        let mut cur = parser.open(b"1:hello;");
        let (v, _) = parser.parse_named(&mut cur, "msg_t", &[], &caset());
        assert_eq!(v.at_path("body.text").and_then(Value::as_str), Some("hello"));
        let mut cur = parser.open(b"9:whatever");
        let (v, pd) = parser.parse_named(&mut cur, "msg_t", &[], &caset());
        assert!(matches!(v.at_path("body"), Some(Value::Union { branch, .. }) if branch == "skip"));
        // Default branch consumes nothing, so the switch itself succeeded.
        assert!(pd.is_ok());
    }

    // ---- arrays -----------------------------------------------------------

    #[test]
    fn array_with_separator_and_eor_terminator() {
        let (schema, registry) = setup(
            r#"
            Pstruct ev_t { Pstring(:'|':) state; '|'; Puint32 ts; };
            Parray seq_t { ev_t[] : Psep('|') && Pterm(Peor); } Pwhere {
                Pforall (i Pin [0..length-2] : elts[i].ts <= elts[i+1].ts);
            };
            Precord Pstruct rec_t { Puint32 id; '|'; seq_t events; };
            Psource Parray recs_t { rec_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let data = b"7|A|10|B|20|C|30\n8|X|5\n";
        let (v, pd) = parser.parse_source(data, &caset());
        assert!(pd.is_ok(), "{pd:?}");
        assert_eq!(v.len(), Some(2));
        assert_eq!(v.at_path("[0].events").unwrap().len(), Some(3));
        assert_eq!(v.at_path("[0].events.[2].state").and_then(Value::as_str), Some("C"));
        assert_eq!(v.at_path("[1].events.[0].ts").and_then(Value::as_u64), Some(5));
    }

    #[test]
    fn array_where_clause_detects_unsorted_timestamps() {
        let (schema, registry) = setup(
            r#"
            Pstruct ev_t { Pstring(:'|':) state; '|'; Puint32 ts; };
            Parray seq_t { ev_t[] : Psep('|') && Pterm(Peor); } Pwhere {
                Pforall (i Pin [0..length-2] : elts[i].ts <= elts[i+1].ts);
            };
            Precord Pstruct rec_t { Puint32 id; '|'; seq_t events; };
            Psource Parray recs_t { rec_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let (_, pd) = parser.parse_source(b"7|A|30|B|20\n", &caset());
        assert_eq!(pd.nerr, 1);
        let errors = pd.errors();
        assert_eq!(errors[0].1, ErrorCode::ForallViolation);
        // ... and the mask can turn exactly that check off (Figure 7).
        let mut mask = caset();
        mask.child_mut(pads_runtime::mask::ELT).set_compound_at("events", BaseMask::Set);
        let (_, pd) = parser.parse_source(b"7|A|30|B|20\n", &mask);
        assert!(pd.is_ok(), "{pd}");
    }

    #[test]
    fn fixed_size_array_from_parameter() {
        let (schema, registry) = setup(
            r#"
            Parray bytes_t (:Puint32 n:) { Puint8[n] : Psep(','); };
            Pstruct packet_t { Puint32 len; ':'; bytes_t(:len:) body; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"3:7,8,9");
        let (v, pd) = parser.parse_named(&mut cur, "packet_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.at_path("body").unwrap().len(), Some(3));
        // Too few elements.
        let mut cur = parser.open(b"3:7,8");
        let (_, pd) = parser.parse_named(&mut cur, "packet_t", &[], &caset());
        assert!(!pd.is_ok());
    }

    #[test]
    fn array_with_literal_terminator() {
        let (schema, registry) = setup("Parray csv_t { Puint32[] : Psep(',') && Pterm(';'); };");
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"1,2,3;rest");
        let (v, pd) = parser.parse_named(&mut cur, "csv_t", &[], &caset());
        assert!(pd.is_ok());
        assert_eq!(v.len(), Some(3));
        assert_eq!(cur.rest(), b"rest");
        // Empty array: terminator immediately.
        let mut cur = parser.open(b";rest");
        let (v, pd) = parser.parse_named(&mut cur, "csv_t", &[], &caset());
        assert!(pd.is_ok());
        assert_eq!(v.len(), Some(0));
    }

    #[test]
    fn array_ended_predicate() {
        let (schema, registry) = setup(
            "Parray until_zero_t { Puint32[] : Psep(',') && Pended(elts[length-1] == 0); };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"5,3,0,7,1");
        let (v, pd) = parser.parse_named(&mut cur, "until_zero_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.len(), Some(3));
    }

    // ---- Popt, enums, typedefs -------------------------------------------

    #[test]
    fn popt_present_and_absent() {
        let (schema, registry) = setup(
            "Pstruct o_t { Puint32 a; '|'; Popt Puint32 b; '|'; Puint32 c; };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"1|2|3");
        let (v, pd) = parser.parse_named(&mut cur, "o_t", &[], &caset());
        assert!(pd.is_ok());
        assert_eq!(v.at_path("b").and_then(Value::as_u64), Some(2));
        let mut cur = parser.open(b"1||3");
        let (v, pd) = parser.parse_named(&mut cur, "o_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.at_path("b"), Some(&Value::Opt(None)));
    }

    #[test]
    fn enum_longest_match_and_failure() {
        let (schema, registry) = setup(
            r#"
            Penum m_t { GET, GETX, PUT };
            Pstruct t { m_t m; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"GETX ");
        let (v, pd) = parser.parse_named(&mut cur, "m_t", &[], &caset());
        assert!(pd.is_ok());
        assert!(matches!(v, Value::Enum { ref variant, .. } if variant == "GETX"));
        let mut cur = parser.open(b"ZAP");
        let (_, pd) = parser.parse_named(&mut cur, "m_t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::EnumNoMatch);
    }

    #[test]
    fn typedef_range_constraint() {
        let (schema, registry) = setup(
            r#"
            Ptypedef Puint16_FW(:3:) response_t :
                response_t x => { 100 <= x && x < 600};
            Pstruct t { response_t r; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"200");
        let (v, pd) = parser.parse_named(&mut cur, "response_t", &[], &caset());
        assert!(pd.is_ok());
        assert_eq!(v.as_u64(), Some(200));
        let mut cur = parser.open(b"999");
        let (_, pd) = parser.parse_named(&mut cur, "response_t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::ConstraintViolation);
    }

    // ---- records, recovery, entry points ----------------------------------

    #[test]
    fn panic_recovery_resynchronises_at_record_boundary() {
        let (schema, registry) = setup(
            r#"
            Precord Pstruct line_t { Puint32 n; ','; Puint32 m; };
            Psource Parray lines_t { line_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let data = b"1,2\ngarbage here\n5,6\n";
        let (v, pd) = parser.parse_source(data, &caset());
        assert_eq!(v.len(), Some(3));
        assert!(pd.nerr >= 1);
        // Records 0 and 2 are clean, record 1 is the bad one.
        assert_eq!(v.at_path("[0].n").and_then(Value::as_u64), Some(1));
        assert_eq!(v.at_path("[2].m").and_then(Value::as_u64), Some(6));
        let errors = pd.errors();
        assert!(errors.iter().all(|(p, _, _)| p.starts_with("[1]")));
    }

    #[test]
    fn element_at_a_time_iteration_matches_bulk_parse() {
        let (schema, registry) = setup(
            r#"
            Precord Pstruct line_t { Puint32 n; ','; Pstring(:',':) tag; };
            Psource Parray lines_t { line_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let data = b"1,ab
2,cd
3,ef
";
        let mask = caset();
        let (bulk, _) = parser.parse_source(data, &mask);
        let streamed: Vec<Value> =
            parser.records(data, "line_t", &mask).map(|(v, _)| v).collect();
        assert_eq!(bulk, Value::Array(streamed));
    }

    #[test]
    fn element_streaming_handles_separators_and_terminators() {
        let (schema, registry) = setup("Parray csv_t { Puint32[] : Psep(',') && Pterm(';'); };");
        let parser = PadsParser::new(&schema, &registry);
        let mask = caset();
        let mut cur = parser.open(b"5,6,7;rest");
        let (v, pd) = parser.parse_named(&mut cur, "csv_t", &[], &mask);
        assert!(pd.is_ok(), "{pd}");
        let Value::Array(items) = v else { panic!("csv_t parses to an array") };
        let vals: Vec<u64> = items.iter().filter_map(Value::as_u64).collect();
        assert_eq!(vals, vec![5, 6, 7]);
        assert_eq!(cur.rest(), b"rest");
        // A bad separator ends the array after the elements before it.
        let mut cur = parser.open(b"5|6;");
        let (v, pd) = parser.parse_named(&mut cur, "csv_t", &[], &mask);
        assert_eq!(v.len(), Some(1));
        assert_eq!((pd.err_code, pd.state), (ErrorCode::ArraySepMismatch, ParseState::Partial));
    }

    #[test]
    fn record_at_a_time_iteration_matches_bulk_parse() {
        let (schema, registry) = setup(
            r#"
            Precord Pstruct line_t { Puint32 n; };
            Psource Parray lines_t { line_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let data = b"1\n2\n3\n";
        let mask = caset();
        let (bulk, _) = parser.parse_source(data, &mask);
        let streamed: Vec<Value> =
            parser.records(data, "line_t", &mask).map(|(v, _)| v).collect();
        assert_eq!(bulk, Value::Array(streamed));
    }

    #[test]
    fn extra_data_before_eor_is_flagged() {
        let (schema, registry) = setup(
            r#"
            Precord Pstruct line_t { Puint32 n; };
            Psource Parray lines_t { line_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let (_, pd) = parser.parse_source(b"12 trailing\n", &caset());
        assert!(pd.errors().iter().any(|(_, c, _)| *c == ErrorCode::ExtraDataBeforeEor));
    }

    #[test]
    fn dependent_field_parsing() {
        // The width of the payload depends on an earlier field.
        let (schema, registry) = setup(
            "Pstruct p_t { Puint32 n; ':'; Pstring_FW(:n:) body; };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"5:hello rest");
        let (v, pd) = parser.parse_named(&mut cur, "p_t", &[], &caset());
        assert!(pd.is_ok());
        assert_eq!(v.at_path("body").and_then(Value::as_str), Some("hello"));
    }

    #[test]
    fn regex_literal_members_match_and_consume() {
        let (schema, registry) = setup(
            "Pstruct t { Pre \"[a-z]+=\"; Puint32 n; };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"width=42");
        let (v, pd) = parser.parse_named(&mut cur, "t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.at_path("n").and_then(Value::as_u64), Some(42));
        let mut cur = parser.open(b"WIDTH=42");
        let (_, pd) = parser.parse_named(&mut cur, "t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::RegexMismatch);
    }

    #[test]
    fn array_with_string_terminator() {
        let (schema, registry) = setup(
            "Parray csv_t { Puint32[] : Psep(',') && Pterm(\"END\"); };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"1,2END rest");
        let (v, pd) = parser.parse_named(&mut cur, "csv_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert_eq!(v.len(), Some(2));
        assert_eq!(cur.rest(), b" rest");
    }

    #[test]
    fn union_rejects_named_branch_on_semantic_error() {
        let (schema, registry) = setup(
            r#"
            Ptypedef Puint8 small_t : small_t v => { v < 10 };
            Punion n_t { small_t small; Puint32 big; };
            Pstruct t { n_t n; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        // 7 fits the constrained branch.
        let mut cur = parser.open(b"7");
        let (v, pd) = parser.parse_named(&mut cur, "n_t", &[], &caset());
        assert!(pd.is_ok());
        assert!(matches!(v, Value::Union { ref branch, .. } if branch == "small"));
        // 42 violates small_t, so the union falls through to `big`.
        let mut cur = parser.open(b"42");
        let (v, pd) = parser.parse_named(&mut cur, "n_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        assert!(matches!(v, Value::Union { ref branch, .. } if branch == "big"));
    }

    #[test]
    fn date_constraints_compare_as_epochs() {
        let (schema, registry) = setup(
            "Pstruct t { Pdate(:'|':) d : d >= 875000000; };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"15/Oct/1997:18:46:51 -0700|");
        let (_, pd) = parser.parse_named(&mut cur, "t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        let mut cur = parser.open(b"15/Oct/1967:18:46:51 -0700|");
        let (_, pd) = parser.parse_named(&mut cur, "t", &[], &caset());
        assert_eq!(pd.errors()[0].1, ErrorCode::ConstraintViolation);
    }

    #[test]
    fn nested_unions_resolve_inside_out() {
        let (schema, registry) = setup(
            r#"
            Punion inner_t { Pip ip; Puint32 num; };
            Punion outer_t { inner_t structured; Pstring(:' ':) raw; };
            Pstruct t { outer_t o; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"1.2.3.4 x");
        let (v, _) = parser.parse_named(&mut cur, "outer_t", &[], &caset());
        assert!(v.at_path("structured.ip").is_some(), "{v}");
        let mut cur = parser.open(b"99 x");
        let (v, _) = parser.parse_named(&mut cur, "outer_t", &[], &caset());
        assert!(v.at_path("structured.num").is_some(), "{v}");
        let mut cur = parser.open(b"hello x");
        let (v, _) = parser.parse_named(&mut cur, "outer_t", &[], &caset());
        assert_eq!(v.at_path("raw").and_then(Value::as_str), Some("hello"));
    }

    #[test]
    fn struct_pwhere_relates_fields() {
        let (schema, registry) = setup(
            "Pstruct span_t { Puint32 lo; ','; Puint32 hi; } Pwhere { lo <= hi };",
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"3,9");
        let (_, pd) = parser.parse_named(&mut cur, "span_t", &[], &caset());
        assert!(pd.is_ok());
        let mut cur = parser.open(b"9,3");
        let (_, pd) = parser.parse_named(&mut cur, "span_t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::WhereViolation);
        // ... and the compound mask turns exactly that off.
        let mut m = caset();
        m.set_compound(BaseMask::Set);
        let mut cur = parser.open(b"9,3");
        let (_, pd) = parser.parse_named(&mut cur, "span_t", &[], &m);
        assert!(pd.is_ok());
    }

    #[test]
    fn functions_usable_in_array_where() {
        let (schema, registry) = setup(
            r#"
            bool within(int v, int cap) { return v <= cap; };
            Parray caps_t { Puint32[] : Psep(',') && Pterm(';'); } Pwhere {
                Pforall (i Pin [0..length-1] : within(elts[i], 100))
            };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"5,50,99;");
        let (_, pd) = parser.parse_named(&mut cur, "caps_t", &[], &caset());
        assert!(pd.is_ok(), "{pd}");
        let mut cur = parser.open(b"5,500;");
        let (_, pd) = parser.parse_named(&mut cur, "caps_t", &[], &caset());
        assert_eq!(pd.err_code, ErrorCode::ForallViolation);
    }

    // ---- write-back --------------------------------------------------------

    #[test]
    fn write_back_round_trips_clean_records() {
        let (schema, registry) = setup(
            r#"
            Precord Pstruct line_t { Puint32 n; '|'; Pstring(:'|':) tag; '|'; Popt Puint32 x; };
            Psource Parray lines_t { line_t[]; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let writer = Writer::new(&schema, &registry);
        let data = b"1|abc|9\n2|def|\n";
        let (v, pd) = parser.parse_source(data, &caset());
        assert!(pd.is_ok());
        let out = writer.write_source(&v).unwrap();
        assert_eq!(out, data);
    }

    // ---- verify -------------------------------------------------------------

    #[test]
    fn verify_detects_broken_invariants_after_mutation() {
        let (schema, registry) = setup(
            r#"
            Pstruct p_t { Puint8 a; ','; Puint8 b : b >= a; };
            "#,
        );
        let parser = PadsParser::new(&schema, &registry);
        let mut cur = parser.open(b"3,9");
        let (mut v, pd) = parser.parse_named(&mut cur, "p_t", &[], &caset());
        assert!(pd.is_ok());
        let verifier = Verifier::new(&schema);
        assert!(verifier.is_valid("p_t", &v));
        // Break the invariant in memory.
        *v.field_mut("b").unwrap() = Value::Prim(Prim::Uint(1));
        let violations = verifier.verify_named("p_t", &v);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].path, "b");
    }
}

#[cfg(test)]
mod write_tests {
    use super::*;

    #[test]
    fn dependent_width_write_back_round_trips() {
        // The width argument of the string is an earlier field; the writer
        // must evaluate it from the in-memory representation.
        let registry = Registry::standard();
        let schema = compile(
            "Precord Pstruct p_t { Puint32 n; ':'; Pstring_FW(:n:) body; }; Psource Parray ps_t { p_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let writer = Writer::new(&schema, &registry);
        let data = b"5:hello\n2:ab\n11:hello world\n";
        let (v, pd) = parser.parse_source(data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "{:?}", pd.errors());
        assert_eq!(writer.write_source(&v).unwrap(), data);
    }

    #[test]
    fn switched_union_write_back_round_trips() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Punion b_t (:Puint8 k:) Pswitch(k) {
                Pcase 0: Puint32 num;
                Pcase 1: Pstring(:'|':) text;
                Pdefault: Pvoid nothing;
            };
            Precord Pstruct m_t { Puint8 k; ':'; b_t(:k:) body; '|'; Puint8 z; };
            Psource Parray ms_t { m_t[]; };
            "#,
        &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let writer = Writer::new(&schema, &registry);
        let data = b"0:42|7\n1:hi|8\n5:|9\n";
        let (v, pd) = parser.parse_source(data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "{:?}", pd.errors());
        assert_eq!(writer.write_source(&v).unwrap(), data);
    }

    #[test]
    fn length_prefixed_record_write_back() {
        let registry = Registry::standard();
        let schema = compile(
            "Precord Pstruct r_t { Pstring_FW(:3:) s; }; Psource Parray rs_t { r_t[]; };",
            &registry,
        )
        .unwrap();
        let opts = ParseOptions {
            discipline: RecordDiscipline::LengthPrefixed {
                header_bytes: 2,
                endian: Endian::Big,
            },
            ..Default::default()
        };
        let parser = PadsParser::new(&schema, &registry).with_options(opts);
        let writer = Writer::new(&schema, &registry).with_options(opts);
        let data = [0u8, 3, b'a', b'b', b'c', 0, 3, b'x', b'y', b'z'];
        let (v, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok());
        assert_eq!(writer.write_source(&v).unwrap(), data);
    }
}

#[cfg(test)]
mod verify_more_tests {
    use super::*;

    #[test]
    fn verifier_handles_parameterised_arrays() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Parray vals_t (:Puint8 n:) { Puint32[n] : Psep(','); };
            Precord Pstruct r_t { Puint8 nvals; '|'; vals_t(:nvals:) vals; };
            Psource Parray rs_t { r_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let verifier = Verifier::new(&schema);
        let (v, pd) = parser.parse_source(b"3|7,8,9\n", &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok());
        let rec = v.index(0).unwrap();
        assert!(verifier.is_valid("r_t", rec));
        // Shrink the array without updating nvals: the verifier has no
        // physical layout to check, so this still verifies (sizes are
        // syntax); but a broken union branch name is caught.
        let mut broken = rec.clone();
        *broken.field_mut("vals").unwrap() = Value::Union {
            branch: "nosuch".into(),
            index: 0,
            value: Box::new(Value::unit()),
        };
        assert!(!verifier.is_valid("r_t", &broken));
    }

    #[test]
    fn verifier_checks_array_where_with_parameters() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Parray caps_t (:Puint32 cap:) { Puint32[] : Psep(',') && Pterm(';'); } Pwhere {
                Pforall (i Pin [0..length-1] : elts[i] <= cap)
            };
            Pstruct t { Puint32 cap; ':'; caps_t(:cap:) vals; };
            "#,
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let verifier = Verifier::new(&schema);
        let mut cur = parser.open(b"50:5,49;");
        let (mut v, pd) = parser.parse_named(&mut cur, "t", &[], &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "{pd}");
        assert!(verifier.is_valid("t", &v));
        // Raise an element above the cap in memory.
        if let Some(Value::Array(elts)) = v.field_mut("vals") {
            elts[0] = Value::Prim(Prim::Uint(99));
        }
        let violations = verifier.verify_named("t", &v);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].code, ErrorCode::ForallViolation);
    }
}
