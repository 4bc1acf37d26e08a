//! Streaming record parsing from readers.
//!
//! §1 of the paper: "Such volumes mean it must be possible to process the
//! data without loading it all into memory at once" (300 M calls/day,
//! netflow at a gigabit per second). [`StreamRecords`] reads one record's
//! bytes at a time from any [`BufRead`] — a file, socket, or pipe — and
//! parses it with the record type, so memory use is bounded by the largest
//! single record.
//!
//! Framing follows the parser's record discipline: newline-delimited,
//! fixed-width, or length-prefixed.

use std::io::{BufRead, Read};

use pads_runtime::io::length_prefix;
use pads_runtime::{ErrorBudget, ErrorCode, Loc, ParseDesc, ParseState, Pos, RecordDiscipline};

use crate::parse::PadsParser;
use crate::value::Value;
use pads_runtime::{Mask, Prim};

/// Iterator of `(Value, ParseDesc)` records read incrementally from a
/// reader. I/O errors surface as parse descriptors with
/// [`ErrorCode::IoError`] and end the stream. The parser's
/// [`RecoveryPolicy`](pads_runtime::RecoveryPolicy) is enforced across the
/// whole stream: the error budget carries over from record to record.
pub struct StreamRecords<'p, 's, R> {
    parser: &'p PadsParser<'s>,
    reader: R,
    type_id: pads_check::ir::TypeId,
    mask: &'p Mask,
    buf: Vec<u8>,
    record_index: usize,
    done: bool,
    poison: Option<ErrorCode>,
    budget: ErrorBudget,
}

impl<'s> PadsParser<'s> {
    /// Streams records of the named type from `reader`, one at a time,
    /// using this parser's record discipline for framing.
    ///
    /// When `name` is not declared in the schema, or the parser's
    /// discipline is [`RecordDiscipline::None`] (whole-source framing
    /// cannot stream), the iterator yields one
    /// [`ErrorCode::InternalError`] item and ends — never a panic.
    pub fn stream_records<'p, R: BufRead>(
        &'p self,
        reader: R,
        name: &str,
        mask: &'p Mask,
    ) -> StreamRecords<'p, 's, R> {
        let mut poison = None;
        if matches!(self.options().discipline, RecordDiscipline::None) {
            poison = Some(ErrorCode::InternalError);
        }
        let type_id = match self.schema().type_id(name) {
            Some(id) => id,
            None => {
                poison = Some(ErrorCode::InternalError);
                self.schema().source()
            }
        };
        StreamRecords {
            parser: self,
            reader,
            type_id,
            mask,
            buf: Vec::with_capacity(256),
            record_index: 0,
            done: false,
            poison,
            budget: ErrorBudget::new(),
        }
    }
}

impl<'p, 's, R: BufRead> StreamRecords<'p, 's, R> {
    /// Reads the next record's raw bytes into `self.buf` (including the
    /// framing the cursor expects). Returns `Ok(false)` at end of input.
    fn fill_record(&mut self) -> Result<bool, std::io::Error> {
        self.buf.clear();
        match self.parser.options().discipline {
            RecordDiscipline::Newline => {
                let n = self.reader.read_until(b'\n', &mut self.buf)?;
                Ok(n > 0)
            }
            RecordDiscipline::FixedWidth(w) => {
                self.buf.resize(w, 0);
                let mut got = 0;
                while got < w {
                    let n = self.reader.read(&mut self.buf[got..])?;
                    if n == 0 {
                        break;
                    }
                    got += n;
                }
                self.buf.truncate(got);
                Ok(got > 0)
            }
            RecordDiscipline::LengthPrefixed { header_bytes, endian } => {
                // `take` bounds each read by the length asked for while the
                // buffer grows only with the bytes that exist: a prefix that
                // lies leaves a short body for the parser to flag.
                let got =
                    self.reader.by_ref().take(header_bytes as u64).read_to_end(&mut self.buf)?;
                if got == header_bytes {
                    let len = length_prefix(&self.buf, endian);
                    self.reader.by_ref().take(len as u64).read_to_end(&mut self.buf)?;
                }
                Ok(got > 0)
            }
            // Rejected (poisoned) in `stream_records`; treat as end of
            // input defensively rather than crash.
            RecordDiscipline::None => Ok(false),
        }
    }
}

impl<'p, 's, R: BufRead> Iterator for StreamRecords<'p, 's, R> {
    type Item = (Value, ParseDesc);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(code) = self.poison.take() {
            self.done = true;
            let mut pd = ParseDesc::error(
                code,
                Loc::at(Pos { offset: 0, record: self.record_index, byte: 0 }),
            );
            pd.state = ParseState::Partial;
            return Some((Value::Prim(Prim::Unit), pd));
        }
        if self.budget.stopped() {
            self.done = true;
            return None;
        }
        match self.fill_record() {
            Ok(false) => {
                self.done = true;
                None
            }
            Err(_) => {
                self.done = true;
                let mut pd = ParseDesc::error(
                    ErrorCode::IoError,
                    Loc::at(Pos { offset: 0, record: self.record_index, byte: 0 }),
                );
                pd.state = ParseState::Partial;
                Some((self.parser.default_def(self.type_id), pd))
            }
            Ok(true) => {
                // Each record parses against its own cursor over the frame
                // buffer, but the error budget is one per stream: copy it
                // in, parse, copy the updated budget back out.
                let mut cur = self.parser.open(&self.buf);
                cur.set_budget(self.budget);
                let (value, pd) =
                    self.parser.parse_named_id(&mut cur, self.type_id, &[], self.mask);
                self.budget = cur.budget();
                self.record_index += 1;
                Some((value, pd))
            }
        }
    }
}

impl<'p, 's, R: BufRead> std::iter::FusedIterator for StreamRecords<'p, 's, R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::{BaseMask, Charset, Endian, Registry};
    use std::io::Cursor as IoCursor;

    fn mask() -> Mask {
        Mask::all(BaseMask::CheckAndSet)
    }

    #[test]
    fn newline_streaming_matches_slice_parsing() {
        let registry = Registry::standard();
        let schema = crate::compile(
            "Precord Pstruct r_t { Puint32 n; ','; Pstring(:',':) tag; }; Psource Parray rs_t { r_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry);
        let data = b"1,ab\n2,cd\nbroken\n4,ef\n";
        let m = mask();
        let streamed: Vec<(Value, bool)> = parser
            .stream_records(IoCursor::new(&data[..]), "r_t", &m)
            .map(|(v, pd)| (v, pd.is_ok()))
            .collect();
        let sliced: Vec<(Value, bool)> =
            parser.records(&data[..], "r_t", &m).map(|(v, pd)| (v, pd.is_ok())).collect();
        assert_eq!(streamed, sliced);
        assert_eq!(streamed.len(), 4);
        assert!(!streamed[2].1);
    }

    #[test]
    fn fixed_width_streaming() {
        let registry = Registry::standard();
        let schema = crate::compile(
            "Precord Pstruct c_t { Pb_uint16 a; Pb_uint8 b; }; Psource Parray cs_t { c_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry).with_options(crate::ParseOptions {
            discipline: RecordDiscipline::FixedWidth(3),
            ..Default::default()
        });
        let data = [0u8, 7, 1, 0, 9, 2];
        let m = mask();
        let vals: Vec<u64> = parser
            .stream_records(IoCursor::new(&data[..]), "c_t", &m)
            .map(|(v, pd)| {
                assert!(pd.is_ok());
                v.at_path("a").and_then(Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(vals, vec![7, 9]);
    }

    /// Every length-prefixed framing the reader meets parses as the slice
    /// path parses the same bytes: values, verdicts and error codes
    /// (locations are frame-relative here, source-relative there).
    #[test]
    fn length_prefixed_streaming() {
        let registry = Registry::standard();
        let schema = crate::compile(
            "Precord Pstruct m_t { Pstring_FW(:3:) s; }; Psource Parray ms_t { m_t[]; };",
            &registry,
        )
        .unwrap();
        let m = mask();
        let wide = [&[0u8; 9][..], &[3], b"abc", &[0; 9], &[3], b"xyz"].concat();
        let cases: [(&str, usize, Endian, &[u8], usize); 7] = [
            ("two records", 2, Endian::Big, &[0, 3, b'a', b'b', b'c', 0, 3, b'x', b'y', b'z'], 2),
            ("little-endian", 2, Endian::Little, &[3, 0, b'a', b'b', b'c'], 1),
            // 2^56 bytes announced, three present: memory follows the bytes.
            ("lying prefix", 8, Endian::Big, &[1, 0, 0, 0, 0, 0, 0, 0, b'a', b'b', b'c'], 0),
            ("header wider than a usize", 10, Endian::Big, &wide, 2),
            ("wide header that saturates", 10, Endian::Big, b"\x01\0\0\0\0\0\0\0\0\x03abc", 0),
            ("header cut short", 4, Endian::Big, &[0, 0], 0),
            ("body cut short", 2, Endian::Big, &[0, 3, b'a'], 0),
        ];
        for (label, header_bytes, endian, data, clean) in cases {
            let parser = PadsParser::new(&schema, &registry).with_options(crate::ParseOptions {
                discipline: RecordDiscipline::LengthPrefixed { header_bytes, endian },
                ..Default::default()
            });
            let verdict = |(v, pd): (Value, ParseDesc)| (v, pd.state, pd.err_code, pd.nerr);
            let streamed: Vec<_> =
                parser.stream_records(IoCursor::new(data), "m_t", &m).map(verdict).collect();
            let sliced: Vec<_> = parser.records(data, "m_t", &m).map(verdict).collect();
            assert_eq!(streamed, sliced, "{label}");
            let ok = streamed.iter().filter(|r| !r.2.is_error()).count();
            assert_eq!(ok, clean, "{label}: clean records");
        }
    }

    #[test]
    fn truncated_fixed_width_tail_is_flagged() {
        let registry = Registry::standard();
        let schema = crate::compile(
            "Precord Pstruct c_t { Pb_uint16 a; }; Psource Parray cs_t { c_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry).with_options(crate::ParseOptions {
            discipline: RecordDiscipline::FixedWidth(2),
            ..Default::default()
        });
        let data = [0u8, 7, 9]; // one full record + one truncated byte
        let m = mask();
        let items: Vec<bool> = parser
            .stream_records(IoCursor::new(&data[..]), "c_t", &m)
            .map(|(_, pd)| pd.is_ok())
            .collect();
        assert_eq!(items, vec![true, false]);
    }

    #[test]
    fn streaming_works_under_ebcdic() {
        let registry = Registry::standard();
        let schema = crate::compile(
            "Precord Pstruct r_t { Puint32 n; }; Psource Parray rs_t { r_t[]; };",
            &registry,
        )
        .unwrap();
        let parser = PadsParser::new(&schema, &registry).with_options(crate::ParseOptions {
            charset: Charset::Ebcdic,
            ..Default::default()
        });
        // Two fixed-width EBCDIC records: "12", "34". (Newline framing for
        // streams splits on ASCII '\n', so EBCDIC sources stream with fixed
        // or length-prefixed framing.)
        let data = [0xF1, 0xF2, 0xF3, 0xF4];
        let m = mask();
        let parser_fixed = PadsParser::new(&schema, &registry).with_options(crate::ParseOptions {
            charset: Charset::Ebcdic,
            discipline: RecordDiscipline::FixedWidth(2),
            ..Default::default()
        });
        let vals: Vec<u64> = parser_fixed
            .stream_records(IoCursor::new(&data[..]), "r_t", &m)
            .map(|(v, pd)| {
                assert!(pd.is_ok(), "{:?}", pd.errors());
                v.at_path("n").and_then(Value::as_u64).unwrap()
            })
            .collect();
        assert_eq!(vals, vec![12, 34]);
        let _ = parser;
    }
}
