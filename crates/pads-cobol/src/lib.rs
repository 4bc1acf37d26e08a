//! Cobol copybook → PADS description translation.
//!
//! AT&T's Altair project receives ~4000 Cobol-format files per day; §5.2 of
//! the paper mentions "a tool that automatically translates Cobol copybooks
//! into PADS descriptions" so accumulator profiles can watch every feed.
//! This crate is that tool: it parses a useful subset of copybook syntax
//! and emits a PADS description (via the `pads-syntax` pretty-printer) that
//! parses the corresponding EBCDIC records.
//!
//! Supported subset:
//!
//! * level numbers 01–49 and 77; level 66/88 entries are skipped;
//! * `PIC X(n)`/`PIC A(n)` (also repeated-letter forms `XXX`),
//!   `PIC 9(n)`, `PIC S9(n)`, implied decimals `9(n)V9(m)`;
//! * `USAGE DISPLAY` (default) → zoned decimal / fixed-width strings,
//!   `COMP`/`COMP-4`/`BINARY` → binary integers, `COMP-3` → packed decimal;
//! * `OCCURS n TIMES` → fixed-size `Parray`;
//! * `REDEFINES` → `Punion` of the original and redefining layouts;
//! * `FILLER` → synthesised field names.
//!
//! # Examples
//!
//! ```
//! let copybook = "
//!     01 CUSTOMER-REC.
//!        05 CUST-ID      PIC 9(6).
//!        05 CUST-NAME    PIC X(20).
//!        05 BALANCE      PIC S9(7)V99 COMP-3.
//! ";
//! let description = pads_cobol::translate(copybook)?;
//! assert!(description.contains("Pstruct customer_rec_t"));
//! assert!(description.contains("Pebc_zoned(:6:) cust_id"));
//! assert!(description.contains("Ppacked(:9:) balance"));
//! # Ok::<(), pads_cobol::CobolError>(())
//! ```

use pads_syntax::ast::{
    ArrayCond, Decl, DeclKind, Expr, Member, Program, TyApp, TyExpr,
};
use pads_syntax::Span;

/// Error translating a copybook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CobolError {
    msg: String,
    line: usize,
}

impl CobolError {
    fn new(msg: impl Into<String>, line: usize) -> CobolError {
        CobolError { msg: msg.into(), line }
    }

    /// 1-based line the error was found on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl std::fmt::Display for CobolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "copybook error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for CobolError {}

/// How a picture clause is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Usage {
    Display,
    Comp3,
    Binary,
}

/// A parsed picture clause.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pic {
    /// `X(n)` / `A(n)`: character data.
    Text(usize),
    /// `9(n)` with optional sign and implied decimals (total digit count).
    Num { digits: usize, signed: bool },
}

#[derive(Debug, Clone)]
struct Item {
    line: usize,
    level: u32,
    name: String,
    pic: Option<Pic>,
    usage: Usage,
    occurs: Option<usize>,
    redefines: Option<String>,
    children: Vec<Item>,
}

/// Translates copybook text into PADS description text.
///
/// The emitted description uses one `Pstruct` per group item (named
/// `<item>_t` in snake case), `Parray` declarations for `OCCURS`, and
/// `Punion` declarations for `REDEFINES`. The 01-level record is annotated
/// `Precord`; parse it with the EBCDIC charset and a fixed-width or
/// length-prefixed record discipline.
///
/// # Errors
///
/// [`CobolError`] when the copybook uses syntax outside the supported
/// subset.
pub fn translate(copybook: &str) -> Result<String, CobolError> {
    let program = translate_to_ast(copybook)?;
    Ok(pads_syntax::pretty::program(&program))
}

/// Translates copybook text into a PADS syntax tree (for callers that want
/// to compile it directly).
///
/// # Errors
///
/// See [`translate`].
pub fn translate_to_ast(copybook: &str) -> Result<Program, CobolError> {
    let items = parse_items(copybook)?;
    if items.is_empty() {
        return Err(CobolError::new("copybook defines no items", 1));
    }
    let mut out = Program::default();
    let mut used_names = Vec::new();
    let mut record_tys = Vec::new();
    for item in &items {
        record_tys.push(emit_item(item, &mut out, &mut used_names)?);
    }
    // A copybook describes one record layout; a data file is a sequence of
    // such records, so the source type is an array over the last (usually
    // only) 01-level record.
    if let Some(last_ty) = record_tys.pop() {
        let file_name = unique("copybook_file_t", &mut used_names);
        out.decls.push(Decl {
            name: file_name,
            params: vec![],
            is_record: false,
            is_source: true,
            kind: DeclKind::Array { elem: last_ty, cond: ArrayCond::default() },
            where_clause: None,
            span: span(),
        });
    }
    Ok(out)
}

// ---- copybook parsing ------------------------------------------------------

fn parse_items(copybook: &str) -> Result<Vec<Item>, CobolError> {
    // Sentences end with '.'; gather tokens per sentence with line numbers.
    let mut sentences: Vec<(usize, Vec<String>)> = Vec::new();
    let mut current: Vec<String> = Vec::new();
    let mut current_line = 1;
    for (i, line) in copybook.lines().enumerate() {
        let line = line.trim();
        // Fixed-format comment lines start with '*' in column 7; free
        // format uses '*>' — accept both, plus blank lines.
        if line.is_empty() || line.starts_with('*') {
            continue;
        }
        for raw in line.split_whitespace() {
            let (tok, ends) = match raw.strip_suffix('.') {
                Some(t) => (t, true),
                None => (raw, false),
            };
            if !tok.is_empty() {
                if current.is_empty() {
                    current_line = i + 1;
                }
                current.push(tok.to_uppercase());
            }
            if ends && !current.is_empty() {
                sentences.push((current_line, std::mem::take(&mut current)));
            }
        }
    }
    if !current.is_empty() {
        sentences.push((current_line, current));
    }

    // Parse each sentence into a flat item, then nest by level number.
    let mut flat: Vec<Item> = Vec::new();
    let mut filler = 0usize;
    for (line, toks) in sentences {
        let mut it = toks.into_iter().peekable();
        let Some(level_tok) = it.next() else { continue };
        let Ok(level) = level_tok.parse::<u32>() else {
            return Err(CobolError::new(
                format!("expected a level number, found `{level_tok}`"),
                line,
            ));
        };
        if level == 66 || level == 88 {
            continue; // RENAMES / condition names: no storage
        }
        let raw_name = it.next().unwrap_or_else(|| "FILLER".to_owned());
        let name = if raw_name == "FILLER" {
            filler += 1;
            format!("filler_{filler}")
        } else {
            snake(&raw_name)
        };
        let mut item = Item {
            line,
            level,
            name,
            pic: None,
            usage: Usage::Display,
            occurs: None,
            redefines: None,
            children: Vec::new(),
        };
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "PIC" | "PICTURE" => {
                    let spec = it
                        .next()
                        .ok_or_else(|| CobolError::new("PIC without a picture", line))?;
                    item.pic = Some(parse_pic(&spec, line)?);
                }
                "USAGE" | "IS" => {}
                "COMP" | "COMP-4" | "COMPUTATIONAL" | "BINARY" => item.usage = Usage::Binary,
                "COMP-3" | "COMPUTATIONAL-3" | "PACKED-DECIMAL" => item.usage = Usage::Comp3,
                "DISPLAY" => item.usage = Usage::Display,
                "OCCURS" => {
                    let n = it
                        .next()
                        .and_then(|t| t.parse::<usize>().ok())
                        .ok_or_else(|| CobolError::new("OCCURS without a count", line))?;
                    item.occurs = Some(n);
                    // Optional "TIMES".
                    if it.peek().is_some_and(|t| t == "TIMES") {
                        it.next();
                    }
                }
                "REDEFINES" => {
                    let target = it
                        .next()
                        .ok_or_else(|| CobolError::new("REDEFINES without a target", line))?;
                    item.redefines = Some(snake(&target));
                }
                "VALUE" | "VALUES" => {
                    // Initial values do not affect layout; swallow one token.
                    it.next();
                }
                "SYNC" | "SYNCHRONIZED" | "JUST" | "JUSTIFIED" | "RIGHT" | "LEFT" => {}
                other => {
                    return Err(CobolError::new(
                        format!("unsupported clause `{other}`"),
                        line,
                    ))
                }
            }
        }
        flat.push(item);
    }

    // Nest by level numbers.
    let mut roots: Vec<Item> = Vec::new();
    let mut stack: Vec<Item> = Vec::new();
    for item in flat {
        while let Some(done) = stack.pop_if(|top| top.level >= item.level) {
            attach(&mut roots, &mut stack, done);
        }
        stack.push(item);
    }
    while let Some(done) = stack.pop() {
        attach(&mut roots, &mut stack, done);
    }
    Ok(roots)
}

fn attach(roots: &mut Vec<Item>, stack: &mut [Item], done: Item) {
    match stack.last_mut() {
        Some(parent) => parent.children.push(done),
        None => roots.push(done),
    }
}

fn parse_pic(spec: &str, line: usize) -> Result<Pic, CobolError> {
    let bytes = spec.as_bytes();
    let mut signed = false;
    let mut digits = 0usize;
    let mut text = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        // Count with optional (n) repetition.
        let mut count = 1usize;
        if bytes.get(i + 1) == Some(&b'(') {
            let close = spec[i + 2..]
                .find(')')
                .ok_or_else(|| CobolError::new("unclosed `(` in picture", line))?;
            count = spec[i + 2..i + 2 + close]
                .parse()
                .map_err(|_| CobolError::new("bad repetition in picture", line))?;
            i += close + 2;
        }
        match c {
            'S' => signed = true,
            '9' => digits += count,
            'X' | 'A' => text += count,
            'V' => {} // implied decimal point: no storage
            '.' | ',' => {} // insertion characters (rare in our subset)
            other => {
                return Err(CobolError::new(
                    format!("unsupported picture character `{other}`"),
                    line,
                ))
            }
        }
        i += 1;
    }
    if text > 0 && digits == 0 {
        Ok(Pic::Text(text))
    } else if digits > 0 && text == 0 {
        Ok(Pic::Num { digits, signed })
    } else {
        Err(CobolError::new("mixed or empty picture", line))
    }
}

fn snake(name: &str) -> String {
    name.to_lowercase().replace('-', "_")
}

// ---- emission ----------------------------------------------------------------

fn span() -> Span {
    Span::default()
}

fn ty_app(name: &str, args: Vec<Expr>) -> TyExpr {
    TyExpr::App(TyApp { name: name.to_owned(), args, span: span() })
}

/// Base type for an elementary item.
fn elementary_ty(item: &Item) -> Result<TyExpr, CobolError> {
    let Some(pic) = &item.pic else {
        return Err(CobolError::new(
            format!("`{}` has neither a PIC nor subordinate items", item.name),
            item.line,
        ));
    };
    match (pic, item.usage) {
        (Pic::Text(n), _) => Ok(ty_app("Pstring_FW", vec![Expr::Int(*n as i64)])),
        (Pic::Num { digits, .. }, Usage::Display) => {
            Ok(ty_app("Pebc_zoned", vec![Expr::Int(*digits as i64)]))
        }
        (Pic::Num { digits, .. }, Usage::Comp3) => {
            Ok(ty_app("Ppacked", vec![Expr::Int(*digits as i64)]))
        }
        (Pic::Num { digits, signed }, Usage::Binary) => {
            // Standard Cobol binary sizes by digit count.
            let bits = match digits {
                0..=4 => 16,
                5..=9 => 32,
                _ => 64,
            };
            let name =
                if *signed { format!("Pb_int{bits}") } else { format!("Pb_uint{bits}") };
            Ok(ty_app(&name, vec![]))
        }
    }
}

/// Emits declarations for `item` (bottom-up) and returns the type name (or
/// base type) to reference it by.
fn emit_item(
    item: &Item,
    out: &mut Program,
    used: &mut Vec<String>,
) -> Result<TyExpr, CobolError> {
    if item.children.is_empty() {
        let base = elementary_ty(item)?;
        return wrap_occurs(item, base, out, used);
    }
    // Group item: fields, with REDEFINES folded into unions.
    let mut members: Vec<Member> = Vec::new();
    let mut i = 0usize;
    while i < item.children.len() {
        let child = &item.children[i];
        // Collect any following siblings that REDEFINE this child.
        let mut alts = vec![child];
        let mut j = i + 1;
        while j < item.children.len() {
            let sib = &item.children[j];
            if sib.redefines.as_deref() == Some(child.name.as_str()) {
                alts.push(sib);
                j += 1;
            } else {
                break;
            }
        }
        let ty = if alts.len() == 1 {
            emit_item(child, out, used)?
        } else {
            // Build a union declaration over the alternative layouts.
            let union_name = unique(&format!("{}_layout_t", child.name), used);
            let mut branches = Vec::new();
            for alt in &alts {
                let bty = emit_item(alt, out, used)?;
                branches.push(pads_syntax::ast::Branch {
                    case: None,
                    field: pads_syntax::ast::Field {
                        name: alt.name.clone(),
                        ty: bty,
                        constraint: None,
                        span: span(),
                    },
                });
            }
            out.decls.push(Decl {
                name: union_name.clone(),
                params: vec![],
                is_record: false,
                is_source: false,
                kind: DeclKind::Union { switch: None, branches },
                where_clause: None,
                span: span(),
            });
            ty_app(&union_name, vec![])
        };
        members.push(Member::Field(pads_syntax::ast::Field {
            name: child.name.clone(),
            ty,
            constraint: None,
            span: span(),
        }));
        i += alts.len();
    }
    let struct_name = unique(&format!("{}_t", item.name), used);
    out.decls.push(Decl {
        name: struct_name.clone(),
        params: vec![],
        is_record: item.level == 1,
        is_source: false,
        kind: DeclKind::Struct { members },
        where_clause: None,
        span: span(),
    });
    wrap_occurs(item, ty_app(&struct_name, vec![]), out, used)
}

/// Wraps a type in a fixed-size `Parray` when the item has `OCCURS`.
fn wrap_occurs(
    item: &Item,
    base: TyExpr,
    out: &mut Program,
    used: &mut Vec<String>,
) -> Result<TyExpr, CobolError> {
    let Some(n) = item.occurs else { return Ok(base) };
    let arr_name = unique(&format!("{}_seq_t", item.name), used);
    out.decls.push(Decl {
        name: arr_name.clone(),
        params: vec![],
        is_record: false,
        is_source: false,
        kind: DeclKind::Array {
            elem: base,
            cond: ArrayCond { size: Some(Expr::Int(n as i64)), ..ArrayCond::default() },
        },
        where_clause: None,
        span: span(),
    });
    Ok(ty_app(&arr_name, vec![]))
}

fn unique(want: &str, used: &mut Vec<String>) -> String {
    let mut name = want.to_owned();
    let mut n = 1;
    while used.iter().any(|u| u == &name) {
        n += 1;
        name = format!("{want}{n}");
    }
    used.push(name.clone());
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
       01 BILLING-REC.
          05 ACCOUNT-ID       PIC 9(8).
          05 CUST-NAME        PIC X(12).
          05 BALANCE          PIC S9(5)V99 COMP-3.
          05 USAGE-COUNT      PIC 9(4) COMP.
          05 HISTORY OCCURS 3 TIMES.
             10 HIST-CODE     PIC X(2).
             10 HIST-AMT      PIC S9(5) COMP-3.
    ";

    #[test]
    fn translates_the_sample_copybook() {
        let desc = translate(SAMPLE).unwrap();
        assert!(desc.contains("Pebc_zoned(:8:) account_id"), "{desc}");
        assert!(desc.contains("Pstring_FW(:12:) cust_name"));
        assert!(desc.contains("Ppacked(:7:) balance"));
        assert!(desc.contains("Pb_uint16 usage_count"));
        assert!(desc.contains("Parray history_seq_t"));
        assert!(desc.contains("history_t[3]"));
        assert!(desc.contains("Precord Pstruct billing_rec_t"));
        assert!(desc.contains("Psource Parray copybook_file_t"));
    }

    #[test]
    fn translation_compiles_as_a_pads_description() {
        let desc = translate(SAMPLE).unwrap();
        let registry = pads_runtime::Registry::standard();
        pads_check::compile(&desc, &registry)
            .unwrap_or_else(|e| panic!("translated description must compile:\n{e}\n{desc}"));
    }

    #[test]
    fn redefines_becomes_a_union() {
        let src = "
           01 REC.
              05 RAW-DATE       PIC X(8).
              05 NUM-DATE REDEFINES RAW-DATE PIC 9(8).
        ";
        let desc = translate(src).unwrap();
        assert!(desc.contains("Punion raw_date_layout_t"), "{desc}");
        assert!(desc.contains("Pstring_FW(:8:) raw_date"));
        assert!(desc.contains("Pebc_zoned(:8:) num_date"));
        let registry = pads_runtime::Registry::standard();
        pads_check::compile(&desc, &registry).unwrap();
    }

    #[test]
    fn repeated_letter_pictures() {
        let src = "
           01 R.
              05 A PIC XXX.
              05 B PIC S999V99.
        ";
        let desc = translate(src).unwrap();
        assert!(desc.contains("Pstring_FW(:3:) a"));
        assert!(desc.contains("Pebc_zoned(:5:) b"));
    }

    #[test]
    fn fillers_get_fresh_names() {
        let src = "
           01 R.
              05 FILLER PIC X(2).
              05 FILLER PIC X(3).
        ";
        let desc = translate(src).unwrap();
        assert!(desc.contains("filler_1"));
        assert!(desc.contains("filler_2"));
    }

    #[test]
    fn level_88_condition_names_are_skipped() {
        let src = "
           01 R.
              05 STATUS-CODE PIC X.
                 88 IS-ACTIVE VALUE 'A'.
              05 AMOUNT PIC 9(3).
        ";
        let desc = translate(src).unwrap();
        assert!(desc.contains("status_code"));
        assert!(!desc.contains("is_active"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = translate("01 R.\n   05 F PIC Q(3).").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unsupported picture"));
    }

    #[test]
    fn an_item_with_neither_picture_nor_children_is_an_error() {
        let err = translate("01 R.\n   05 A PIC X.\n   05 B.").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("`b` has neither a PIC"), "{err}");
    }

    #[test]
    fn round_trip_parse_of_generated_ebcdic_record() {
        use pads::PadsParser;
        use pads_runtime::{BaseMask, Charset, Mask, RecordDiscipline, Registry};

        let src = "
           01 TINY.
              05 CODE PIC X(2).
              05 QTY  PIC 9(3).
        ";
        let desc = translate(src).unwrap();
        let registry = Registry::standard();
        let schema = pads_check::compile(&desc, &registry).unwrap();
        // Record bytes: "AB" in EBCDIC followed by zoned 042.
        let e = |b: u8| Charset::Ebcdic.encode(b);
        let data = [e(b'A'), e(b'B'), 0xF0, 0xF4, 0xF2];
        let parser = PadsParser::new(&schema, &registry).with_options(pads::ParseOptions {
            charset: Charset::Ebcdic,
            discipline: RecordDiscipline::FixedWidth(5),
            ..Default::default()
        });
        let (v, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "{pd:?}");
        assert_eq!(v.at_path("[0].code").and_then(pads::Value::as_str), Some("AB"));
        assert_eq!(v.at_path("[0].qty").and_then(pads::Value::as_u64), Some(42));
    }
}

