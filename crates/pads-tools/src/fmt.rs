//! The formatting tool: flatten values into delimited text (§5.3.1).
//!
//! The generated `*_fmt2io` functions take a delimiter list; at each field
//! boundary the current delimiter is printed, at each nested-type boundary
//! the list advances (reusing its last entry when exhausted). A mask
//! suppresses fields, and dates can be rendered with a user format — the
//! configuration that turns Figure 2's records into Figure 8's
//! pipe-delimited output. [`FormatSink`] is the generated formatting
//! program: the same formatter as a sink of the source driver.

use std::io;

use pads::{BaseMask, Mask, ParseDesc, Prim, Progress, RecordSink, Value};

/// Delimiter-list formatter.
///
/// # Examples
///
/// ```
/// use pads_tools::fmt::Formatter;
/// use pads::{Prim, Value};
///
/// let v = Value::Struct { fields: vec![
///     ("a".into(), Value::Prim(Prim::Uint(1))),
///     ("b".into(), Value::Struct { fields: vec![
///         ("c".into(), Value::Prim(Prim::Uint(2))),
///         ("d".into(), Value::Prim(Prim::Uint(3))),
///     ]}),
/// ]};
/// let fmt = Formatter::new(&["|"]);
/// assert_eq!(fmt.format(&v), "1|2|3");
/// ```
#[derive(Debug, Clone)]
pub struct Formatter {
    delims: Vec<String>,
    date_format: Option<String>,
    mask: Option<Mask>,
}

impl Formatter {
    /// Creates a formatter with the given delimiter list (must be
    /// non-empty).
    ///
    /// # Panics
    ///
    /// Panics when `delims` is empty.
    pub fn new(delims: &[&str]) -> Formatter {
        assert!(!delims.is_empty(), "formatter needs at least one delimiter");
        Formatter {
            delims: delims.iter().map(|s| s.to_string()).collect(),
            date_format: None,
            mask: None,
        }
    }

    /// Sets the output format for dates (e.g. `"%D:%T"` as in §5.3.1).
    pub fn with_date_format(mut self, fmt: &str) -> Formatter {
        self.date_format = Some(fmt.to_owned());
        self
    }

    /// Sets a mask; fields whose mask is [`BaseMask::Ignore`] are
    /// suppressed from the output.
    pub fn with_mask(mut self, mask: Mask) -> Formatter {
        self.mask = Some(mask);
        self
    }

    fn delim(&self, depth: usize) -> &str {
        &self.delims[depth.min(self.delims.len() - 1)]
    }

    /// Renders one value.
    pub fn format(&self, value: &Value) -> String {
        let mut leaves: Vec<(Vec<usize>, String)> = Vec::new();
        let mask = self.mask.clone().unwrap_or_else(|| Mask::all(BaseMask::CheckAndSet));
        self.collect(value, &mask, &mut Vec::new(), &mut leaves);
        // The delimiter between two adjacent leaves belongs to their lowest
        // common ancestor: two fields of the top-level struct are separated
        // by the first delimiter, fields of a nested struct by the next one,
        // and so on (reusing the last when the list is exhausted).
        let mut out = String::new();
        for (i, (chain, s)) in leaves.iter().enumerate() {
            if i > 0 {
                let prev = &leaves[i - 1].0;
                let diverge =
                    prev.iter().zip(chain.iter()).take_while(|(a, b)| a == b).count();
                out.push_str(self.delim(diverge));
            }
            out.push_str(s);
        }
        out
    }

    /// `chain` records the child index taken at each container level, so
    /// adjacent leaves can be compared for their divergence depth.
    fn collect(
        &self,
        value: &Value,
        mask: &Mask,
        chain: &mut Vec<usize>,
        out: &mut Vec<(Vec<usize>, String)>,
    ) {
        match value {
            Value::Prim(p) => out.push((chain.clone(), self.prim(p))),
            Value::Enum { variant, .. } => out.push((chain.clone(), variant.as_str().to_owned())),
            Value::Opt(None) => out.push((chain.clone(), String::new())),
            Value::Opt(Some(inner)) => self.collect(inner, mask, chain, out),
            Value::Union { branch, index, value } => {
                chain.push(*index);
                self.collect(value, &mask.child(branch), chain, out);
                chain.pop();
            }
            Value::Struct { fields } => {
                for (i, (name, v)) in fields.iter().enumerate() {
                    let child = mask.child(name);
                    if child.base() == BaseMask::Ignore {
                        continue;
                    }
                    chain.push(i);
                    self.collect(v, &child, chain, out);
                    chain.pop();
                }
            }
            Value::Array(elts) => {
                let child = mask.child(pads_runtime::mask::ELT);
                for (i, v) in elts.iter().enumerate() {
                    chain.push(i);
                    self.collect(v, &child, chain, out);
                    chain.pop();
                }
            }
        }
    }

    fn prim(&self, p: &Prim) -> String {
        match (p, &self.date_format) {
            (Prim::Date(d), Some(fmt)) => d.format(fmt),
            _ => p.to_string(),
        }
    }
}

/// The formatting program (§5.3.1) as a sink of the source driver: one
/// [`Formatter::format`] line per record, written as the record arrives,
/// and a count of the records that carried errors. The header is not
/// formatted.
pub struct FormatSink<W: io::Write> {
    formatter: Formatter,
    out: W,
    /// The first write error; nothing is written after it.
    failed: Option<io::Error>,
    bad_records: u64,
}

impl<W: io::Write> FormatSink<W> {
    /// A sink writing `formatter`'s lines to `out`.
    pub fn new(formatter: Formatter, out: W) -> FormatSink<W> {
        FormatSink { formatter, out, failed: None, bad_records: 0 }
    }

    /// Records so far whose descriptor is not ok.
    pub fn bad_records(&self) -> u64 {
        self.bad_records
    }

    /// Flushes the output.
    ///
    /// # Errors
    ///
    /// The first error writing to the output, if any.
    pub fn finish(mut self) -> io::Result<()> {
        match self.failed {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl<W: io::Write> RecordSink for FormatSink<W> {
    fn record(&mut self, _index: usize, value: &Value, pd: &ParseDesc, _progress: &Progress) {
        self.bad_records += u64::from(!pd.is_ok());
        if self.failed.is_none() {
            self.failed = writeln!(self.out, "{}", self.formatter.format(value)).err();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads::{descriptions, PadsParser, Registry, SourceJob, SourceShape};
    use pads_runtime::date::PDate;

    fn record() -> Value {
        Value::Struct {
            fields: vec![
                ("client".into(), Value::Prim(Prim::Ip([207, 136, 97, 49]))),
                ("remoteID".into(), Value::Prim(Prim::Char(b'-'))),
                (
                    "date".into(),
                    Value::Prim(Prim::Date(
                        PDate::parse("15/Oct/1997:18:46:51 -0700").unwrap(),
                    )),
                ),
                ("length".into(), Value::Prim(Prim::Uint(30))),
            ],
        }
    }

    #[test]
    fn pipe_delimited_with_date_format() {
        let fmt = Formatter::new(&["|"]).with_date_format("%D:%T");
        assert_eq!(fmt.format(&record()), "207.136.97.49|-|10/16/97:01:46:51|30");
    }

    #[test]
    fn mask_suppresses_fields() {
        let mut mask = Mask::all(BaseMask::CheckAndSet);
        mask.set_at("date", BaseMask::Ignore);
        let fmt = Formatter::new(&["|"]).with_mask(mask);
        assert_eq!(fmt.format(&record()), "207.136.97.49|-|30");
    }

    #[test]
    fn multiple_delimiters_advance_by_depth() {
        let v = Value::Struct {
            fields: vec![
                ("a".into(), Value::Prim(Prim::Uint(1))),
                (
                    "b".into(),
                    Value::Struct {
                        fields: vec![
                            ("c".into(), Value::Prim(Prim::Uint(2))),
                            ("d".into(), Value::Prim(Prim::Uint(3))),
                        ],
                    },
                ),
                ("e".into(), Value::Prim(Prim::Uint(4))),
            ],
        };
        // Top-level boundaries use ";", nested ones use ",".
        let fmt = Formatter::new(&[";", ",", ","]);
        assert_eq!(fmt.format(&v), "1;2,3;4");
    }

    #[test]
    fn opt_none_renders_empty() {
        let v = Value::Struct {
            fields: vec![
                ("a".into(), Value::Prim(Prim::Uint(1))),
                ("b".into(), Value::Opt(None)),
                ("c".into(), Value::Prim(Prim::Uint(3))),
            ],
        };
        let fmt = Formatter::new(&["|"]);
        assert_eq!(fmt.format(&v), "1||3");
    }

    #[test]
    fn arrays_flatten() {
        let v = Value::Array(vec![
            Value::Prim(Prim::Uint(1)),
            Value::Prim(Prim::Uint(2)),
        ]);
        assert_eq!(Formatter::new(&["|"]).format(&v), "1|2");
    }

    #[test]
    fn format_sink_writes_one_line_per_record() {
        let registry = Registry::standard();
        let schema = descriptions::clf();
        let (data, _) = pads_gen::clf::generate(&pads_gen::ClfConfig {
            records: 25,
            dash_length_rate: 0.0,
            ..Default::default()
        });
        let fmt = Formatter::new(&["|"]).with_date_format("%D:%T");
        let mut out = Vec::new();
        let mut sink = FormatSink::new(fmt, &mut out);
        let mask = Mask::all(BaseMask::CheckAndSet);
        let job = SourceJob::new(SourceShape::records("entry_t"), &mask);
        PadsParser::new(&schema, &registry).stream_source(&data, &job, &mut sink);
        assert_eq!(sink.bad_records(), 0);
        sink.finish().unwrap();
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out.lines().count(), 25);
        assert!(out.lines().all(|l| l.matches('|').count() >= 9), "{out}");
    }
}
