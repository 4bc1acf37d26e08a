//! The *gen* tier: the paper's "generated program", built on the
//! committed generated modules `pads::generated::{sirius, clf}` instead
//! of the runtime engines behind the `pads` CLI.
//!
//! ```text
//! gen_tool sirius-vet <file> [--bitmap <path>]   Figure 10 `padsvet`
//! gen_tool clf-accum  <file>                     §5.2 accumulator report
//! gen_tool clf-xml    <file>                     §5.3.2 XML conversion
//! ```
//!
//! Output goes to stdout. Exit status follows the CLI: 0 clean, 2 when
//! the data had errors, 1 on hard failure. `--bitmap` additionally writes
//! one byte per order record (`1` clean, `0` rejected) so the harness can
//! compare the accept/reject decisions with the interpreter's.

use std::io::Write;
use std::process::ExitCode;

use pads::generated::{clf, sirius};
use pads::{descriptions, BaseMask, Charset, Cursor, Endian, Mask, RecordBatch};
use pads_e2e_bench::workload::{ACCUM_CHUNK_ROWS, ACCUM_TOP_K, ACCUM_TRACKED};
use pads_runtime::ValueArena;
use pads_tools::Accumulator;

/// Stdout is flushed whenever the pending output passes this size.
const FLUSH_BYTES: usize = 1 << 16;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(msg) => {
            eprintln!("gen_tool: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Returns whether the data was clean.
fn run(args: &[String]) -> Result<bool, String> {
    let (mode, path) = match args {
        [mode, path, ..] => (mode.as_str(), path.as_str()),
        _ => {
            return Err(
                "usage: gen_tool <sirius-vet|clf-accum|clf-xml> <file> [--bitmap <path>]".into()
            )
        }
    };
    let bitmap_path = match &args[2..] {
        [] => None,
        [flag, p] if flag == "--bitmap" => Some(p.as_str()),
        other => return Err(format!("unexpected arguments {other:?}")),
    };
    let data = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let clean = match mode {
        "sirius-vet" => {
            let mut bitmap = bitmap_path.map(|_| Vec::new());
            let clean = sirius_vet(&data, &mut out, bitmap.as_mut())?;
            if let (Some(p), Some(bits)) = (bitmap_path, bitmap) {
                std::fs::write(p, bits).map_err(|e| format!("{p}: {e}"))?;
            }
            clean
        }
        "clf-accum" => clf_accum(&data, &mut out)?,
        "clf-xml" => clf_xml(&data, &mut out)?,
        other => return Err(format!("unknown mode `{other}`")),
    };
    out.flush().map_err(|e| e.to_string())?;
    Ok(clean)
}

/// All checks on (including the event sort order); the header and every
/// clean order record re-emitted through the generated `write`.
fn sirius_vet(
    data: &[u8],
    out: &mut impl Write,
    mut bitmap: Option<&mut Vec<u8>>,
) -> Result<bool, String> {
    let mask = Mask::all(BaseMask::CheckAndSet);
    let mut cur = Cursor::new(data);
    let mut buf = Vec::with_capacity(2 * FLUSH_BYTES);
    let mut bad = 0usize;
    let (header, hpd) = sirius::SummaryHeaderT::read(&mut cur, &mask);
    if hpd.is_ok() {
        header
            .write(&mut buf, Charset::Ascii, Endian::Big)
            .map_err(|c| format!("header write: {c}"))?;
    } else {
        bad += 1;
    }
    while !cur.at_eof() {
        let (entry, pd) = sirius::EntryT::read(&mut cur, &mask);
        let ok = pd.is_ok();
        if ok {
            entry
                .write(&mut buf, Charset::Ascii, Endian::Big)
                .map_err(|c| format!("entry write: {c}"))?;
            if buf.len() >= FLUSH_BYTES {
                out.write_all(&buf).map_err(|e| e.to_string())?;
                buf.clear();
            }
        } else {
            bad += 1;
        }
        if let Some(bits) = bitmap.as_deref_mut() {
            bits.push(if ok { b'1' } else { b'0' });
        }
    }
    out.write_all(&buf).map_err(|e| e.to_string())?;
    Ok(bad == 0)
}

/// `read` → `to_arena` → `RecordBatch::push_arena` → `Accumulator::add_batch`
/// → `report`, a chunk of rows at a time.
fn clf_accum(data: &[u8], out: &mut impl Write) -> Result<bool, String> {
    let mask = Mask::all(BaseMask::CheckAndSet);
    let schema = descriptions::clf();
    let names = clf::name_table();
    let mut acc = Accumulator::with_limits(&schema, "entry_t", ACCUM_TRACKED, ACCUM_TOP_K);
    let mut arena = ValueArena::new();
    let mut batch = RecordBatch::new();
    let mut cur = Cursor::new(data);
    while !cur.at_eof() {
        let (entry, pd) = clf::EntryT::read(&mut cur, &mask);
        arena.reset();
        let h = entry.to_arena(&mut arena);
        batch.push_arena(arena.get(h), &names, &pd);
        if batch.len() == ACCUM_CHUNK_ROWS {
            acc.add_batch(&batch);
            batch.clear();
        }
    }
    acc.add_batch(&batch);
    out.write_all(acc.report("<top>").as_bytes()).map_err(|e| e.to_string())?;
    Ok(acc.bad_records == 0)
}

/// `parse_source` → `to_arena` → `pads::to_value` → `value_to_xml`.
fn clf_xml(data: &[u8], out: &mut impl Write) -> Result<bool, String> {
    let mask = Mask::all(BaseMask::CheckAndSet);
    let names = clf::name_table();
    let mut cur = Cursor::new(data);
    let (source, pd) = clf::parse_source(&mut cur, &mask);
    let mut arena = ValueArena::new();
    let h = source.to_arena(&mut arena);
    let value = pads::to_value(arena.get(h), &names);
    let xml = pads_tools::value_to_xml(&value, Some(&pd), "clt_t", 0);
    out.write_all(xml.as_bytes()).map_err(|e| e.to_string())?;
    Ok(pd.is_ok())
}
