//! XML conversion (§5.3.2): a canonical mapping from PADS values into XML,
//! and an XML Schema generator describing that embedding.
//!
//! Both PADS and XML describe semi-structured data, so the mapping is
//! natural. One deliberate choice from the paper is kept: when data is
//! buggy, the parse descriptor is embedded alongside the value (`<pd>`
//! elements), so the error portions of a source can be explored like any
//! other data.
//!
//! XML 1.0 cannot carry the C0 control characters other than tab, line feed
//! and carriage return, not even as character references, so text that
//! holds one (a `Pchar` of `\0`, a string with a `\x01` byte) is written
//! with each replaced by U+FFFD, the replacement character.

use std::io::{self, Write as _};

use pads::{ParseDesc, Prim, Progress, RecordSink, Schema, SourceEnd, SourceFold, SourceSummary, Value};
use pads_check::ir::{MemberIr, TypeKind, TyUse};
use pads_runtime::{render, MetricsHandle, PdChild, PdKind};

/// Appends `text` escaped for XML content, a C0 control XML 1.0 forbids
/// written as U+FFFD: as is when it holds no special byte, which is the
/// common case.
fn escaped(out: &mut Vec<u8>, text: &[u8]) {
    fn entity(b: u8) -> Option<&'static [u8]> {
        Some(match b {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'"' => b"&quot;",
            b'\'' => b"&apos;",
            b'\t' | b'\n' | b'\r' => return None,
            0..=0x1f => "\u{FFFD}".as_bytes(),
            _ => return None,
        })
    }
    if !text.iter().any(|&b| entity(b).is_some()) {
        out.extend_from_slice(text);
        return;
    }
    for &b in text {
        match entity(b) {
            Some(e) => out.extend_from_slice(e),
            None => out.push(b),
        }
    }
}

/// Renders a parsed value as XML under `tag`, embedding parse descriptors
/// wherever the data was buggy (the paper's `write_xml_2io`).
pub fn value_to_xml(value: &Value, pd: Option<&ParseDesc>, tag: &str, indent: usize) -> String {
    let mut out = Vec::new();
    write_xml(&mut out, value, pd, tag, indent);
    // Every byte written is UTF-8 text: tags, `str`s and rendered values.
    // The conversion takes the buffer over, so the document is held once.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// One tag: `indent` spaces, `open`, the name, `end`.
fn mark(indent: usize, open: &[u8], name: &str, end: &[u8], out: &mut Vec<u8>) {
    out.resize(out.len() + indent, b' ');
    out.extend_from_slice(open);
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(end);
}

fn open(tag: &str, indent: usize, out: &mut Vec<u8>) {
    mark(indent, b"<", tag, b">\n", out);
}

fn close(tag: &str, indent: usize, out: &mut Vec<u8>) {
    mark(indent, b"</", tag, b">\n", out);
}

/// `<tag>text</tag>` on one line, `text` being what `text` appends.
fn leaf(tag: &str, indent: usize, out: &mut Vec<u8>, text: impl FnOnce(&mut Vec<u8>)) {
    mark(indent, b"<", tag, b">", out);
    text(out);
    close(tag, 0, out);
}

/// A base value's text. Only strings and characters can hold a byte XML
/// escapes; every other form is digits, dots, signs and month names.
fn prim_text(p: &Prim, out: &mut Vec<u8>) {
    match p {
        Prim::String(s) => escaped(out, s.as_bytes()),
        Prim::Char(c) => escaped(out, char::from(*c).encode_utf8(&mut [0; 2]).as_bytes()),
        _ => render::prim(out, p),
    }
}

/// [`value_to_xml`] appended to `out`: tags, padding and text are written
/// as they are produced, with no intermediate strings.
pub fn write_xml(out: &mut Vec<u8>, value: &Value, pd: Option<&ParseDesc>, tag: &str, indent: usize) {
    // The descriptor rides along only when it records an error.
    let bad_pd = pd.filter(|p| !p.is_ok());
    match value {
        Value::Prim(p) => scalar(tag, bad_pd, indent, out, |out| prim_text(p, out)),
        Value::Enum { variant, .. } => {
            scalar(tag, bad_pd, indent, out, |out| escaped(out, variant.as_bytes()))
        }
        Value::Opt(None) => mark(indent, b"<", tag, b"/>\n", out),
        Value::Opt(Some(inner)) => {
            write_xml(out, inner, pd.and_then(|p| p.child(PdChild::Present)), tag, indent);
        }
        Value::Struct { fields } => {
            open(tag, indent, out);
            for (name, v) in fields {
                let fpd = pd.and_then(|p| p.child(PdChild::Field(name)));
                write_xml(out, v, fpd, name, indent + 2);
            }
            if let Some(d) = bad_pd {
                write_pd(d, indent + 2, out);
            }
            close(tag, indent, out);
        }
        Value::Union { branch, value, .. } => {
            open(tag, indent, out);
            write_xml(out, value, pd.and_then(|p| p.child(PdChild::Branch)), branch, indent + 2);
            if let Some(d) = bad_pd {
                write_pd(d, indent + 2, out);
            }
            close(tag, indent, out);
        }
        Value::Array(elts) => {
            open(tag, indent, out);
            for (i, v) in elts.iter().enumerate() {
                write_xml(out, v, pd.and_then(|p| p.child(PdChild::Elt(i))), "elt", indent + 2);
            }
            array_tail(elts.len(), bad_pd, indent + 2, out);
            close(tag, indent, out);
        }
    }
}

/// A base value or enum variant: `<tag>text</tag>`, or, when its
/// descriptor records an error, the text under `<val>` next to the `<pd>`.
fn scalar(
    tag: &str,
    bad_pd: Option<&ParseDesc>,
    indent: usize,
    out: &mut Vec<u8>,
    text: impl FnOnce(&mut Vec<u8>),
) {
    match bad_pd {
        Some(d) => {
            open(tag, indent, out);
            leaf("val", indent + 2, out, text);
            write_pd(d, indent + 2, out);
            close(tag, indent, out);
        }
        None => leaf(tag, indent, out, text),
    }
}

/// What follows an array's elements: its length, then its descriptor when
/// that records an error. Every aggregate comes after the elements, which
/// is what lets [`XmlSourceSink`] write a source without holding it.
fn array_tail(len: usize, bad_pd: Option<&ParseDesc>, indent: usize, out: &mut Vec<u8>) {
    leaf("length", indent, out, |out| render::uint(out, len as u64, 0));
    if let Some(d) = bad_pd {
        write_pd(d, indent, out);
    }
}

/// A descriptor's fields. Only bad records have one, so this path keeps
/// `write!`; none of its texts holds a byte XML escapes.
fn write_pd(pd: &ParseDesc, indent: usize, out: &mut Vec<u8>) {
    // Writing into a `Vec` cannot fail.
    fn text(t: impl std::fmt::Display) -> impl FnOnce(&mut Vec<u8>) {
        move |out| drop(write!(out, "{t}"))
    }
    open("pd", indent, out);
    leaf("pstate", indent + 2, out, text(pd.state));
    leaf("nerr", indent + 2, out, text(pd.nerr));
    leaf("errCode", indent + 2, out, text(format_args!("{:?}", pd.err_code)));
    if let Some(loc) = pd.loc {
        leaf("loc", indent + 2, out, text(loc));
    }
    if let PdKind::Array { neerr, first_error, .. } = &pd.kind {
        leaf("neerr", indent + 2, out, text(neerr));
        if let Some(fe) = first_error {
            leaf("firstError", indent + 2, out, text(fe));
        }
    }
    close("pd", indent, out);
}

/// The XML sink of the source driver: writes the document
/// [`value_to_xml`] renders for the whole-source value — root tag, header,
/// one `<elt>` per record, then `<length>` and the aggregate `<pd>`s — as
/// the records arrive, byte for byte, keeping a [`SourceFold`] for the
/// aggregates instead of the tree.
pub struct XmlSourceSink<W: io::Write> {
    fold: SourceFold,
    /// Root tag: the source type's name.
    root: String,
    out: W,
    /// One record's rendering, reused.
    buf: Vec<u8>,
    /// The first write error; nothing is written after it.
    failed: Option<io::Error>,
}

impl<W: io::Write> XmlSourceSink<W> {
    /// A sink for `schema`'s source type (one [`pads::SourceShape::infer`]
    /// accepts) writing to `out`.
    pub fn new(schema: &Schema, out: W) -> XmlSourceSink<W> {
        let mut sink = XmlSourceSink {
            fold: SourceFold::new(schema),
            root: schema.source_def().name.clone(),
            out,
            buf: Vec::new(),
            failed: None,
        };
        open(&sink.root, 0, &mut sink.buf);
        sink.flush_buf();
        sink
    }

    /// [`SourceFold::observe`] for the fold this sink keeps.
    pub fn observe(mut self, core: MetricsHandle, start: usize) -> XmlSourceSink<W> {
        self.fold = self.fold.observe(core, start);
        self
    }

    /// Indentation of the record array's children.
    fn elt_indent(&self) -> usize {
        if self.fold.fields().is_some() {
            4
        } else {
            2
        }
    }

    fn flush_buf(&mut self) {
        if self.failed.is_none() {
            self.failed = self.out.write_all(&self.buf).err();
        }
        self.buf.clear();
    }

    /// What follows the last record: the array's length and descriptor,
    /// the source struct's descriptor, the closing tags.
    fn write_tail(&mut self, summary: &SourceSummary) {
        let indent = self.elt_indent();
        let root_pd = Some(&summary.root).filter(|pd| !pd.is_ok());
        let buf = &mut self.buf;
        match self.fold.fields() {
            Some((_, field)) => {
                let array_pd = Some(self.fold.array()).filter(|pd| !pd.is_ok());
                array_tail(self.fold.len(), array_pd, indent, buf);
                close(field, 2, buf);
                if let Some(pd) = root_pd {
                    write_pd(pd, 2, buf);
                }
            }
            None => array_tail(self.fold.len(), root_pd, indent, buf),
        }
        close(&self.root, 0, buf);
    }

    /// Closes the document over a run that ended at `end` and flushes it.
    ///
    /// # Errors
    ///
    /// The first error writing to the output, if any.
    pub fn finish(mut self, end: &SourceEnd) -> io::Result<SourceSummary> {
        let summary = self.fold.finish(end);
        self.write_tail(&summary);
        self.flush_buf();
        match self.failed {
            Some(e) => Err(e),
            None => self.out.flush().map(|()| summary),
        }
    }
}

impl<W: io::Write> RecordSink for XmlSourceSink<W> {
    fn header(&mut self, value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        if let Some((header, array)) = self.fold.fields() {
            write_xml(&mut self.buf, &value, Some(&pd), header, 2);
            open(array, 2, &mut self.buf);
            self.flush_buf();
        }
        self.fold.header(value, pd, progress)
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        let indent = self.elt_indent();
        write_xml(&mut self.buf, value, Some(pd), "elt", indent);
        self.flush_buf();
        self.fold.record(index, value, pd, progress);
    }
}

/// Generates an XML Schema describing the canonical embedding of every
/// type in `schema` (the paper's generated XSD; compare its `eventSeq`
/// fragment).
pub fn schema_to_xsd(schema: &Schema) -> String {
    let mut out = String::new();
    out.push_str("<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n");
    // Shared parse-descriptor type.
    out.push_str(
        "  <xs:complexType name=\"Ppd\">\n    <xs:sequence>\n      \
         <xs:element name=\"pstate\" type=\"xs:string\"/>\n      \
         <xs:element name=\"nerr\" type=\"xs:unsignedInt\"/>\n      \
         <xs:element name=\"errCode\" type=\"xs:string\"/>\n      \
         <xs:element name=\"loc\" type=\"xs:string\" minOccurs=\"0\"/>\n      \
         <xs:element name=\"neerr\" type=\"xs:unsignedInt\" minOccurs=\"0\"/>\n      \
         <xs:element name=\"firstError\" type=\"xs:unsignedInt\" minOccurs=\"0\"/>\n    \
         </xs:sequence>\n  </xs:complexType>\n",
    );
    for def in &schema.types {
        match &def.kind {
            TypeKind::Struct { members } => {
                out.push_str(&format!("  <xs:complexType name=\"{}\">\n", def.name));
                out.push_str("    <xs:sequence>\n");
                for m in members {
                    if let MemberIr::Field(f) = m {
                        out.push_str(&element_for(&f.name, &f.ty, schema));
                    }
                }
                out.push_str(
                    "      <xs:element name=\"pd\" type=\"Ppd\" minOccurs=\"0\" maxOccurs=\"1\"/>\n",
                );
                out.push_str("    </xs:sequence>\n  </xs:complexType>\n");
            }
            TypeKind::Union { branches, .. } => {
                out.push_str(&format!("  <xs:complexType name=\"{}\">\n", def.name));
                out.push_str("    <xs:choice>\n");
                for b in branches {
                    out.push_str(&element_for(&b.field.name, &b.field.ty, schema));
                }
                out.push_str("    </xs:choice>\n  </xs:complexType>\n");
            }
            TypeKind::Array { elem, .. } => {
                out.push_str(&format!("  <xs:complexType name=\"{}\">\n", def.name));
                out.push_str("    <xs:sequence>\n");
                out.push_str(&format!(
                    "      <xs:element name=\"elt\" type=\"{}\" minOccurs=\"0\" maxOccurs=\"unbounded\"/>\n",
                    ty_name(elem, schema)
                ));
                out.push_str("      <xs:element name=\"length\" type=\"xs:unsignedInt\"/>\n");
                out.push_str(
                    "      <xs:element name=\"pd\" type=\"Ppd\" minOccurs=\"0\" maxOccurs=\"1\"/>\n",
                );
                out.push_str("    </xs:sequence>\n  </xs:complexType>\n");
            }
            TypeKind::Enum { variants } => {
                out.push_str(&format!(
                    "  <xs:simpleType name=\"{}\">\n    <xs:restriction base=\"xs:string\">\n",
                    def.name
                ));
                for v in variants {
                    out.push_str(&format!("      <xs:enumeration value=\"{v}\"/>\n"));
                }
                out.push_str("    </xs:restriction>\n  </xs:simpleType>\n");
            }
            TypeKind::Typedef { base, .. } => {
                out.push_str(&format!(
                    "  <xs:simpleType name=\"{}\">\n    <xs:restriction base=\"{}\"/>\n  </xs:simpleType>\n",
                    def.name,
                    ty_name(base, schema)
                ));
            }
        }
    }
    let src = schema.source_def();
    out.push_str(&format!(
        "  <xs:element name=\"{0}\" type=\"{0}\"/>\n",
        src.name
    ));
    out.push_str("</xs:schema>\n");
    out
}

fn element_for(name: &str, ty: &TyUse, schema: &Schema) -> String {
    match ty {
        TyUse::Opt(inner) => format!(
            "      <xs:element name=\"{}\" type=\"{}\" minOccurs=\"0\"/>\n",
            name,
            ty_name(inner, schema)
        ),
        _ => format!(
            "      <xs:element name=\"{}\" type=\"{}\"/>\n",
            name,
            ty_name(ty, schema)
        ),
    }
}

fn ty_name(ty: &TyUse, schema: &Schema) -> String {
    match ty {
        TyUse::Base { name, .. } => xsd_base(name),
        TyUse::Named { id, .. } => schema.def(*id).name.clone(),
        TyUse::Opt(inner) => ty_name(inner, schema),
    }
}

/// XSD scalar for a base-type name.
fn xsd_base(name: &str) -> String {
    let n = name.strip_prefix("Pa_").or_else(|| name.strip_prefix("Pe_"))
        .or_else(|| name.strip_prefix("Pb_")).or_else(|| name.strip_prefix("P"))
        .unwrap_or(name);
    let n = n.strip_suffix("_FW").unwrap_or(n);
    match n {
        "int8" => "xs:byte".into(),
        "int16" => "xs:short".into(),
        "int32" => "xs:int".into(),
        "int64" => "xs:long".into(),
        "uint8" => "xs:unsignedByte".into(),
        "uint16" => "xs:unsignedShort".into(),
        "uint32" => "xs:unsignedInt".into(),
        "uint64" => "xs:unsignedLong".into(),
        "float32" => "xs:float".into(),
        "float64" => "xs:double".into(),
        "char" => "xs:string".into(),
        "date" => "xs:dateTime".into(),
        _ => "xs:string".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads::{compile, PadsParser};
    use pads_runtime::{BaseMask, Mask, Registry};

    fn setup() -> (Schema, Registry) {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Pstruct ev_t { Pstring(:'|':) state; '|'; Puint32 ts; };
            Parray seq_t { ev_t[] : Psep('|') && Pterm(Peor); };
            Precord Pstruct rec_t { Puint32 id : id > 0; '|'; seq_t events; };
            Psource Parray recs_t { rec_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        (schema, registry)
    }

    #[test]
    fn clean_value_has_no_pd_elements() {
        let (schema, registry) = setup();
        let parser = PadsParser::new(&schema, &registry);
        let (v, pd) = parser.parse_source(b"7|A|10\n", &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok());
        let xml = value_to_xml(&v, Some(&pd), "recs_t", 0);
        assert!(xml.contains("<id>7</id>"));
        assert!(xml.contains("<state>A</state>"));
        assert!(xml.contains("<length>1</length>"));
        assert!(!xml.contains("<pd>"));
    }

    #[test]
    fn buggy_value_embeds_parse_descriptor() {
        let (schema, registry) = setup();
        let parser = PadsParser::new(&schema, &registry);
        // id = 0 violates the constraint.
        let (v, pd) = parser.parse_source(b"0|A|10\n", &Mask::all(BaseMask::CheckAndSet));
        assert!(!pd.is_ok());
        let xml = value_to_xml(&v, Some(&pd), "recs_t", 0);
        assert!(xml.contains("<pd>"), "{xml}");
        assert!(xml.contains("<errCode>"));
        assert!(xml.contains("<nerr>"));
    }

    #[test]
    fn escaping() {
        let v = Value::Prim(pads::Prim::String("a<b&c>\"d\"".into()));
        let xml = value_to_xml(&v, None, "s", 0);
        assert_eq!(xml, "<s>a&lt;b&amp;c&gt;&quot;d&quot;</s>\n");
        let v = Value::Prim(pads::Prim::Char(b'\''));
        assert_eq!(value_to_xml(&v, None, "c", 0), "<c>&apos;</c>\n");
        let v = Value::Enum { variant: pads_runtime::Name::from_static("a&b"), index: 0 };
        assert_eq!(value_to_xml(&v, None, "e", 0), "<e>a&amp;b</e>\n");
        // C0 controls XML 1.0 forbids become U+FFFD; tab, LF and CR stay.
        let v = Value::Prim(pads::Prim::Char(0));
        assert_eq!(value_to_xml(&v, None, "c", 0), "<c>\u{FFFD}</c>\n");
        let v = Value::Prim(pads::Prim::String("/a\x01b\t\n\r".into()));
        assert_eq!(value_to_xml(&v, None, "s", 0), "<s>/a\u{FFFD}b\t\n\r</s>\n");
        // Every other form is written as rendered.
        let v = Value::Prim(pads::Prim::Int(-3));
        assert_eq!(value_to_xml(&v, None, "i", 2), "  <i>-3</i>\n");
    }

    #[test]
    fn xsd_has_paper_array_shape() {
        let (schema, _) = setup();
        let xsd = schema_to_xsd(&schema);
        // The eventSeq-style embedding from §5.3.2: elt*, length, optional pd.
        assert!(xsd.contains("<xs:complexType name=\"seq_t\">"));
        assert!(xsd.contains(
            "<xs:element name=\"elt\" type=\"ev_t\" minOccurs=\"0\" maxOccurs=\"unbounded\"/>"
        ));
        assert!(xsd.contains("<xs:element name=\"length\" type=\"xs:unsignedInt\"/>"));
        assert!(xsd.contains("<xs:element name=\"pd\" type=\"Ppd\" minOccurs=\"0\" maxOccurs=\"1\"/>"));
        assert!(xsd.contains("<xs:element name=\"recs_t\" type=\"recs_t\"/>"));
    }

    #[test]
    fn xsd_scalars() {
        assert_eq!(xsd_base("Puint32"), "xs:unsignedInt");
        assert_eq!(xsd_base("Pb_int16"), "xs:short");
        assert_eq!(xsd_base("Puint16_FW"), "xs:unsignedShort");
        assert_eq!(xsd_base("Pstring"), "xs:string");
        assert_eq!(xsd_base("Pdate"), "xs:dateTime");
    }
}
