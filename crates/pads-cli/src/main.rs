//! `pads` — command-line tools generated from PADS descriptions.
//!
//! The original system shipped "wrappers that build tools to summarize the
//! data, format it, or convert it to XML" (§1). This binary is that
//! surface:
//!
//! ```text
//! pads check  <descr.pads> [--lint[=deny|warn|allow]] verify (and lint) a description
//!             [--lint-format=json]              machine-readable diagnostics
//! pads diff   <old.pads> <new.pads>             schema-evolution check (PD0xx)
//! pads parse  <descr.pads> <data> [--format {report,xml,none}]  parse; report, XML, or discard
//!             [--trace[=json]]                  dump the parse-span tree
//!             [--metrics[=prom|json]]           emit runtime metrics
//!             [--profile]                       per-node cost table on stderr
//!             [--jobs N]                        parse chunks of records on N worker threads
//!             [--engine {vm,interp}]            execution engine (default vm; see docs/VM.md)
//!             [--journal <path> [--resume]]     durable ingest (see docs/DURABILITY.md)
//! pads profile <descr.pads> <data>              per-schema-node cost profile
//!             [--folded]                        folded stacks (flamegraph input)
//!             [--times]                         add sampled self-time column
//! pads accum  <descr.pads> <data> [--summaries]  §5.2 accumulator report
//!             [--jobs N]                        … from N worker threads, same report
//! pads fmt    <descr.pads> <data> [opts]        §5.3.1 delimited output
//! pads xsd    <descr.pads>                      §5.3.2 XML Schema
//! pads query  <descr.pads> <data> <query>       §5.4 path query (counts matches)
//! pads gen    <descr.pads> [--records N]        §9 conforming random data
//! pads cobol  <copybook>                        copybook -> description
//! pads codegen <descr.pads>                     Rust parser source
//! ```
//!
//! `<data>` is a path, or `-` for standard input. `parse`, `profile`,
//! `accum` and `fmt` stream it: the source driver reads the input through
//! a bounded window (1 MiB per job) cut at record boundaries, so memory
//! does not grow with the input. When the source type is a plain array of
//! records, or a struct of exactly a header and such an array, `pads parse`
//! parses the header with the source cursor and hands each record to the
//! `--format` sink (report fold, XML writer, nothing) and drops it — with
//! output byte-identical to the whole-tree parse, observed (`--trace`,
//! `--metrics`, `--profile`, `pads profile`) or not. Only a source of any
//! other shape, and `query`, read the input to its end and parse it into
//! one value first. See docs/PERFORMANCE.md, "Memory".
//!
//! Common options: `--ebcdic`, `--fixed <N>`, `--lenpfx <N>` select the
//! ambient coding / record discipline; `--record <T>` and `--header <T>`
//! pick the §5.2 source shape (default: inferred from the source type when
//! it is such a header + records source).
//! Error budgets (the C runtime's `Pmax_errs` discipline): `--max-errs <N>`,
//! `--max-record-errs <N>`, `--max-panic-skip <N>`, and
//! `--on-overflow <stop|skip|best-effort>`.
//!
//! Durable ingest: `--journal <path>` commits a write-ahead checkpoint
//! (byte offset, record index, error budget, metrics snapshot) every
//! `--checkpoint-records <N>` records or `--checkpoint-bytes <N>` bytes,
//! fsyncing every `--fsync-every <N>` commits; `--resume` continues a
//! killed run from the last valid checkpoint with identical results.
//! `--kill-after <N>` is the crash-test hook.
//!
//! `--jobs <N>` (`parse`, `accum`) cuts the records of the source — after
//! its header, if it has one — into small chunks of consecutive records
//! that N worker threads parse side by side; the chunks reach the same sink
//! in source order, so every output is byte-identical to `--jobs 1`. `--max-inflight-records <N>` (default
//! 1024) bounds the records a worker may hold ahead of that sink — a
//! quarter of it is the chunk size, and under `--journal` the distance
//! between two checkpoints of a `--jobs` run.
//!
//! Every run executes on the bytecode VM — the engine the benchmark measures
//! — unless `--engine interp` asks for the tree-walking reference evaluator,
//! which prints the same bytes (docs/VM.md, "Engine selection contract").
//!
//! Exit status: 0 on success, 2 when parsing completed but recorded errors
//! in the data, 3 when `pads check --lint` found findings at or above the
//! requested level **or `pads diff` found a breaking change**, 4 when
//! `--journal`/`--resume` found the journal unusable, 1 on hard failure
//! (bad usage, I/O — a closed stdout included — broken description).

use std::fmt::Write as _;
use std::io::{Read, Seek, SeekFrom, Write};
use std::process::ExitCode;

use pads::{
    BaseMask, Charset, Endian, Engine, ErrorCode, Mask, OnExhausted, PadsParser, ParseDesc,
    ParseOptions, Progress, RecordDiscipline, RecordSink, RecoveryPolicy, Registry, Schema,
    SourceFold, SourceJob, SourceShape, SourceSummary, Value,
};
use pads_check::lint;
use pads_observe::{metrics, trace, MetricsCore, MetricsHandle};

/// Records `pads gen` generates between writes.
const GEN_BATCH: usize = 1024;

/// Exit status for "the data had errors but the run completed".
const EXIT_DATA_ERRORS: u8 = 2;

/// Exit status for "the description tripped `--lint` findings".
const EXIT_LINT: u8 = 3;

/// Exit status for "the checkpoint journal is unusable" (missing or
/// malformed on `--resume`, corrupt frames, wrong source).
const EXIT_JOURNAL: u8 = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match run(&args, &mut out).and_then(|code| out.flush().map(|()| code).map_err(stdout_err)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("pads: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A failed write to stdout — a reader that has gone away, say — is a hard
/// failure like any other I/O error, not a panic.
fn stdout_err(e: std::io::Error) -> String {
    format!("stdout: {e}")
}

/// Writes `text` to stdout — the one writer `main` locks, which every
/// subcommand prints through — and flushes it, so it precedes whatever the
/// subcommand says on stderr next.
fn emit(out: &mut impl Write, text: impl std::fmt::Display) -> Result<(), String> {
    write!(out, "{text}").and_then(|()| out.flush()).map_err(stdout_err)
}

struct Opts {
    positional: Vec<String>,
    charset: Charset,
    discipline: RecordDiscipline,
    record: Option<String>,
    header: Option<String>,
    records: usize,
    seed: u64,
    tracked: usize,
    top: usize,
    delim: String,
    date_fmt: Option<String>,
    /// `--format {report,xml,none}` (parse): the error report (default),
    /// the XML rendering, or nothing — the discard sink parses, prints no
    /// stdout output, and reports only through stderr and the exit code.
    /// `--xml` is shorthand for `--format xml`.
    format: OutputFormat,
    summaries: bool,
    policy: RecoveryPolicy,
    /// `--lint[=deny|warn|allow]`: run the lint passes; render findings at
    /// or above this level and exit 3 when any finding reaches it.
    lint: Option<lint::Level>,
    /// `--lint-format=json`: emit the findings as a deterministic JSON
    /// array on stdout instead of rustc-style text on stderr.
    lint_format: LintFormat,
    /// `--trace[=json]`: dump the parse-span tree (rendered, or JSONL).
    trace: Option<TraceFormat>,
    /// `--metrics[=prom|json]`: emit runtime metrics on stdout after the
    /// parse output, plus a throughput summary line on stderr.
    metrics: Option<MetricsFormat>,
    /// `--profile` (parse): attach the per-schema-node cost profiler and
    /// print the per-node cost table on stderr after the run.
    profile: bool,
    /// `--folded` (profile): emit folded-stack lines (flamegraph input)
    /// instead of the per-node table.
    folded: bool,
    /// `--times` (profile): append the sampled self-time column to the
    /// table (approximate wall-clock — not deterministic).
    times: bool,
    /// `--jobs N`: parse the source's records on up to N worker threads, a
    /// chunk of consecutive records at a time (byte-identical results to a
    /// sequential parse).
    jobs: usize,
    /// `--engine {vm,interp}`: which execution engine runs the schema —
    /// the cached bytecode tier (default) or the IR interpreter, the
    /// reference it is checked against (byte-identical results; see
    /// docs/VM.md).
    engine: Engine,
    /// `--journal <path>`: commit checkpoints to this write-ahead journal.
    journal: Option<String>,
    /// `--resume`: continue from the journal's last valid checkpoint.
    resume: bool,
    /// `--checkpoint-records N`: commit every N records (default 1).
    checkpoint_records: u64,
    /// `--checkpoint-bytes N`: also commit once N source bytes have been
    /// consumed since the last checkpoint.
    checkpoint_bytes: Option<u64>,
    /// `--fsync-every N`: fsync the journal every N commits.
    fsync_every: usize,
    /// `--max-inflight-records N`: per-worker bound on records parsed
    /// ahead of the in-order merge; a quarter of it is the chunk size.
    max_inflight: usize,
    /// `--kill-after N` (test hook): stop abruptly — no final checkpoint —
    /// once N records have been consumed this run (under `--jobs`, at the
    /// end of the chunk that holds the Nth).
    kill_after: Option<u64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Report,
    Xml,
    None,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<OutputFormat, String> {
        match s {
            "report" => Ok(OutputFormat::Report),
            "xml" => Ok(OutputFormat::Xml),
            "none" => Ok(OutputFormat::None),
            other => Err(format!("--format: expected report, xml, or none, got `{other}`")),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Tree,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Prom,
    Json,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        positional: Vec::new(),
        charset: Charset::Ascii,
        discipline: RecordDiscipline::Newline,
        record: None,
        header: None,
        records: 10,
        seed: 1,
        tracked: 1000,
        top: 10,
        delim: "|".to_owned(),
        date_fmt: None,
        format: OutputFormat::Report,
        summaries: false,
        policy: RecoveryPolicy::unlimited(),
        lint: None,
        lint_format: LintFormat::Text,
        trace: None,
        metrics: None,
        profile: false,
        folded: false,
        times: false,
        jobs: 1,
        engine: Engine::Vm,
        journal: None,
        resume: false,
        checkpoint_records: 1,
        checkpoint_bytes: None,
        fsync_every: pads_journal::DEFAULT_FSYNC_EVERY,
        max_inflight: pads::DEFAULT_MAX_INFLIGHT,
        kill_after: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--ebcdic" => o.charset = Charset::Ebcdic,
            "--fixed" => {
                let n: usize = grab("--fixed")?.parse().map_err(|_| "--fixed: bad number")?;
                o.discipline = RecordDiscipline::FixedWidth(n);
            }
            "--lenpfx" => {
                let n: usize = grab("--lenpfx")?.parse().map_err(|_| "--lenpfx: bad number")?;
                o.discipline =
                    RecordDiscipline::LengthPrefixed { header_bytes: n, endian: Endian::Big };
            }
            "--record" => o.record = Some(grab("--record")?),
            "--header" => o.header = Some(grab("--header")?),
            "--records" => {
                o.records = grab("--records")?.parse().map_err(|_| "--records: bad number")?
            }
            "--seed" => o.seed = grab("--seed")?.parse().map_err(|_| "--seed: bad number")?,
            "--tracked" => {
                o.tracked = grab("--tracked")?.parse().map_err(|_| "--tracked: bad number")?
            }
            "--top" => o.top = grab("--top")?.parse().map_err(|_| "--top: bad number")?,
            "--jobs" => {
                let n: usize = grab("--jobs")?.parse().map_err(|_| "--jobs: bad number")?;
                if n == 0 {
                    return Err("--jobs: must be at least 1".into());
                }
                o.jobs = n;
            }
            "--engine" => {
                o.engine = match grab("--engine")?.as_str() {
                    "interp" => Engine::Interp,
                    "vm" => Engine::Vm,
                    other => {
                        return Err(format!("--engine: expected interp or vm, got `{other}`"))
                    }
                };
            }
            "--journal" => o.journal = Some(grab("--journal")?),
            "--resume" => o.resume = true,
            "--checkpoint-records" => {
                let n: u64 = grab("--checkpoint-records")?
                    .parse()
                    .map_err(|_| "--checkpoint-records: bad number")?;
                if n == 0 {
                    return Err("--checkpoint-records: must be at least 1".into());
                }
                o.checkpoint_records = n;
            }
            "--checkpoint-bytes" => {
                let n = grab("--checkpoint-bytes")?
                    .parse()
                    .map_err(|_| "--checkpoint-bytes: bad number")?;
                o.checkpoint_bytes = Some(n);
            }
            "--fsync-every" => {
                o.fsync_every =
                    grab("--fsync-every")?.parse().map_err(|_| "--fsync-every: bad number")?;
            }
            "--max-inflight-records" => {
                let n: usize = grab("--max-inflight-records")?
                    .parse()
                    .map_err(|_| "--max-inflight-records: bad number")?;
                if n == 0 {
                    return Err("--max-inflight-records: must be at least 1".into());
                }
                o.max_inflight = n;
            }
            "--kill-after" => {
                o.kill_after = Some(
                    grab("--kill-after")?.parse().map_err(|_| "--kill-after: bad number")?,
                );
            }
            "--delim" => o.delim = grab("--delim")?,
            "--date-fmt" => o.date_fmt = Some(grab("--date-fmt")?),
            "--xml" => o.format = OutputFormat::Xml,
            "--format" => o.format = grab("--format")?.parse()?,
            flag if flag.starts_with("--format=") => {
                o.format = flag["--format=".len()..].parse()?;
            }
            "--summaries" => o.summaries = true,
            "--max-errs" => {
                let n = grab("--max-errs")?.parse().map_err(|_| "--max-errs: bad number")?;
                o.policy = o.policy.with_max_errs(n);
            }
            "--max-record-errs" => {
                let n = grab("--max-record-errs")?
                    .parse()
                    .map_err(|_| "--max-record-errs: bad number")?;
                o.policy = o.policy.with_max_record_errs(n);
            }
            "--max-panic-skip" => {
                let n = grab("--max-panic-skip")?
                    .parse()
                    .map_err(|_| "--max-panic-skip: bad number")?;
                o.policy = o.policy.with_max_panic_skip(n);
            }
            "--on-overflow" => {
                let mode: OnExhausted = grab("--on-overflow")?
                    .parse()
                    .map_err(|_| "--on-overflow: expected stop, skip, or best-effort")?;
                o.policy = o.policy.with_on_exhausted(mode);
            }
            "--lint" => o.lint = Some(lint::Level::Deny),
            flag if flag.starts_with("--lint=") => {
                o.lint = Some(match &flag["--lint=".len()..] {
                    "deny" => lint::Level::Deny,
                    "warn" => lint::Level::Warn,
                    "allow" => lint::Level::Allow,
                    other => {
                        return Err(format!(
                            "--lint: expected deny, warn, or allow, got `{other}`"
                        ))
                    }
                });
            }
            flag if flag.starts_with("--lint-format=") => {
                o.lint_format = match &flag["--lint-format=".len()..] {
                    "json" => LintFormat::Json,
                    "text" => LintFormat::Text,
                    other => {
                        return Err(format!(
                            "--lint-format: expected json or text, got `{other}`"
                        ))
                    }
                };
            }
            "--trace" => o.trace = Some(TraceFormat::Tree),
            flag if flag.starts_with("--trace=") => {
                o.trace = Some(match &flag["--trace=".len()..] {
                    "json" => TraceFormat::Json,
                    "tree" => TraceFormat::Tree,
                    other => return Err(format!("--trace: expected json or tree, got `{other}`")),
                });
            }
            "--profile" => o.profile = true,
            "--folded" => o.folded = true,
            "--times" => o.times = true,
            "--metrics" => o.metrics = Some(MetricsFormat::Prom),
            flag if flag.starts_with("--metrics=") => {
                o.metrics = Some(match &flag["--metrics=".len()..] {
                    "prom" => MetricsFormat::Prom,
                    "json" => MetricsFormat::Json,
                    other => {
                        return Err(format!("--metrics: expected prom or json, got `{other}`"))
                    }
                });
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(a.clone()),
        }
    }
    Ok(o)
}

fn load_schema(path: &str, registry: &Registry) -> Result<Schema, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    pads::compile(&src, registry).map_err(|e| {
        if let pads::CompileError::Syntax(se) = &e {
            let (line, col) = se.line_col(&src);
            format!("{path}:{line}:{col}: {e}")
        } else {
            format!("{path}: {e}")
        }
    })
}

/// The data source `path` names — standard input for `-` — to be read from
/// its start.
fn open_source(path: &str) -> Result<Box<dyn Read>, String> {
    if path == "-" {
        return Ok(Box::new(std::io::stdin().lock()));
    }
    let file = std::fs::File::open(path).map_err(read_err(path))?;
    Ok(Box::new(file))
}

/// The whole of the data source `path` names: what a parse into one value
/// needs before it can start.
fn read_source(path: &str) -> Result<Vec<u8>, String> {
    let mut data = Vec::new();
    open_source(path)?.read_to_end(&mut data).map_err(read_err(path))?;
    Ok(data)
}

/// A failed open or read of the data source is a hard failure.
fn read_err(path: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{path}: {e}")
}

/// Ends a parse whose data diagnosis is `summary`: clean data is status 0;
/// otherwise the error-summary line — a count per distinct `ErrorCode` —
/// goes to stderr, so scripts can separate the diagnosis from stdout
/// output, and the status is the distinct "data errors" one.
fn data_status(summary: &SourceSummary, source: &str) -> ExitCode {
    if summary.is_ok() {
        return ExitCode::SUCCESS;
    }
    eprintln!("pads: {}", summary.error_line(source));
    ExitCode::from(EXIT_DATA_ERRORS)
}

/// Rejects `--record`/`--header` names that are not declared in the schema
/// before they reach an accumulator (which would otherwise abort).
fn validate_type(schema: &Schema, name: &str) -> Result<(), String> {
    if schema.type_id(name).is_none() {
        return Err(format!("type `{name}` is not declared in the description"));
    }
    Ok(())
}

/// The §5.2 source shape of `accum`/`fmt`: `--record`/`--header` where
/// given, otherwise what [`SourceShape::infer`] reads off the source type.
fn source_shape<'a>(schema: &'a Schema, o: &'a Opts) -> Result<SourceShape<'a>, String> {
    let inferred = SourceShape::infer(schema);
    let record = (o.record.as_deref())
        .or(inferred.map(|s| s.record))
        .ok_or("cannot infer the record type; pass --record <T>")?;
    validate_type(schema, record)?;
    let header = o.header.as_deref().or(inferred.and_then(|s| s.header));
    if let Some(h) = header {
        validate_type(schema, h)?;
    }
    Ok(SourceShape { header, record })
}

/// The whole source under `--jobs` and `--max-inflight-records`.
fn source_job<'a>(o: &Opts, shape: SourceShape<'a>, mask: &'a Mask) -> SourceJob<'a> {
    SourceJob { jobs: o.jobs, max_inflight: o.max_inflight, ..SourceJob::new(shape, mask) }
}

/// CPU time consumed so far (user + system, milliseconds), from
/// `/proc/self/stat`; `None` off Linux or if the fields are unreadable.
fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces but is parenthesised; utime and
    // stime are the 12th and 13th fields after the closing paren.
    let after = stat.rsplit(')').next()?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    let hz = 100.0; // USER_HZ on Linux
    Some((utime + stime) * 1000.0 / hz)
}

/// Peak resident set size (KiB), from `VmHWM` in `/proc/self/status`;
/// `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The `--metrics` stderr summary: throughput from the core, plus CPU
/// time and peak RSS when the probes are available, so one line answers
/// "how expensive was this run".
fn metrics_summary_line(core: &MetricsCore) -> String {
    let mut line = format!("pads: {}", metrics::summary_line(core));
    if let Some(ms) = cpu_ms() {
        let _ = write!(line, ", cpu {ms:.0} ms");
    }
    if let Some(kb) = peak_rss_kb() {
        let _ = write!(line, ", peak rss {kb} KiB");
    }
    line
}

/// `--metrics`: the exposition on stdout, the summary line on stderr.
fn print_metrics(
    out: &mut impl Write,
    core: &MetricsCore,
    fmt: MetricsFormat,
) -> Result<(), String> {
    match fmt {
        MetricsFormat::Prom => emit(out, metrics::prometheus(core))?,
        MetricsFormat::Json => emit(out, format_args!("{}\n", metrics::counts_json(core)))?,
    }
    eprintln!("{}", metrics_summary_line(core));
    Ok(())
}

/// `pads parse` and `pads profile` over the whole source at `path`, heard by
/// one core — returned with the summary — that has the profiler and the
/// trace `o` asks for switched on.
///
/// A `[header] + records` source goes through the source driver, a window
/// of input and a record live at a time, into the sink `--format` names —
/// the report fold
/// (`report`, `none`) or the XML writer over it — which also emits the
/// source type's own events, so the core hears what a whole-tree parse
/// would tell it. The driver shards the records under `--jobs N` unless the
/// core wants an ordered event stream. Output is byte-identical to the
/// whole-tree parse, which only a source of any other shape still takes.
fn parse_whole(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    o: &Opts,
    path: &str,
    out: &mut impl Write,
) -> Result<(SourceSummary, MetricsHandle), String> {
    let mut parser = PadsParser::new(schema, registry).with_options(options);
    let mut core = parser.metrics_core();
    if o.profile {
        core = core.with_profile();
    }
    if o.trace.is_some() {
        core = core.with_trace(trace::DEFAULT_DEPTH, trace::DEFAULT_SPANS);
    }
    let core = core.into_handle();
    if o.metrics.is_some() || o.profile || o.trace.is_some() {
        parser = parser.with_metrics(core.clone());
    }
    let mask = Mask::all(BaseMask::CheckAndSet);
    let xml = o.format == OutputFormat::Xml;
    let Some(shape) = SourceShape::infer(schema) else {
        let (v, pd) = parser.parse_source(&read_source(path)?, &mask);
        if xml {
            emit(out, pads_tools::value_to_xml(&v, Some(&pd), &schema.source_def().name, 0))?;
        }
        return Ok((SourceSummary::of(&pd), core));
    };
    let job = source_job(o, shape, &mask);
    let source = open_source(path)?;
    let summary = if xml {
        let mut sink = pads_tools::XmlSourceSink::new(schema, out).observe(core.clone(), 0);
        let end = parser.stream_reader(source, &job, &mut sink).map_err(read_err(path))?;
        sink.finish(&end).map_err(stdout_err)?
    } else {
        let mut sink = SourceFold::new(schema).observe(core.clone(), 0);
        let end = parser.stream_reader(source, &job, &mut sink).map_err(read_err(path))?;
        sink.finish(&end)
    };
    Ok((summary, core))
}

/// What an observed `pads parse` prints once the run is over: the trace,
/// then the `--metrics` exposition, on stdout; the `--profile` table on
/// stderr.
fn print_observed(out: &mut impl Write, core: &MetricsCore, o: &Opts) -> Result<(), String> {
    let traced = o.trace.and_then(|fmt| match fmt {
        TraceFormat::Json => trace::jsonl(core),
        TraceFormat::Tree => trace::render(core),
    });
    if let Some(text) = traced {
        emit(out, text)?;
    }
    if let Some(fmt) = o.metrics {
        print_metrics(out, core, fmt)?;
    }
    if let Some(table) = core.profile_table(o.times) {
        eprint!("{table}");
    }
    Ok(())
}

/// FNV-1a fingerprint over (length, first 64 bytes, last 64 bytes) of the
/// source file, and its length: cheap, stable identification of "the same
/// data file" across runs, recorded in every checkpoint so `--resume` can
/// reject a journal written for different data. Three seeks, no scan.
fn source_fingerprint(file: &mut std::fs::File) -> std::io::Result<(u64, u64)> {
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
    let len = file.metadata()?.len();
    let mut edge = [0; 64];
    let edge = &mut edge[..len.min(64) as usize];
    let mut h = fnv(0xcbf2_9ce4_8422_2325, &len.to_le_bytes());
    for from in [0, len - edge.len() as u64] {
        file.seek(SeekFrom::Start(from))?;
        file.read_exact(edge)?;
        h = fnv(h, edge);
    }
    Ok((h, len))
}

/// Commit cadence over a journal: counts records and source bytes since
/// the last checkpoint; one falls due when either interval is reached.
struct Committer {
    journal: pads_journal::Journal,
    source_id: u64,
    every_records: u64,
    every_bytes: Option<u64>,
    records_since: u64,
    bytes_since: u64,
    last_offset: u64,
}

impl Committer {
    /// Accounts one consumed record ending at `offset`.
    fn on_record(&mut self, offset: u64) {
        self.records_since += 1;
        self.bytes_since += offset.saturating_sub(self.last_offset);
        self.last_offset = offset;
    }

    /// Whether a checkpoint interval has elapsed since the last commit.
    fn due(&self) -> bool {
        self.records_since >= self.every_records
            || self.every_bytes.is_some_and(|b| self.bytes_since >= b)
    }

    /// Commits unconditionally — unless the position does not advance past
    /// the last checkpoint (a resumed run with nothing new), which is a
    /// no-op rather than an out-of-order error.
    fn commit(
        &mut self,
        offset: u64,
        record: u64,
        budget: pads::ErrorBudget,
        metrics: &MetricsCore,
    ) -> Result<(), pads_journal::JournalError> {
        self.records_since = 0;
        self.bytes_since = 0;
        let advances = self.journal.last().is_none_or(|cp| {
            offset >= cp.offset && record >= cp.record && (offset > cp.offset || record > cp.record)
        });
        if !advances {
            return Ok(());
        }
        self.journal.commit(pads_journal::Checkpoint {
            source_id: self.source_id,
            offset,
            record,
            budget,
            metrics: metrics.snapshot(),
        })
    }
}

/// `pads parse --journal <path>`: the durable-ingest driver. Parses the
/// record-array source (sequentially or record-sharded), committing a
/// checkpoint — byte offset, record index, error budget, metrics snapshot
/// — at the configured cadence, so a killed run can `--resume` from the
/// last valid checkpoint with byte-identical results. See
/// docs/DURABILITY.md for the format and guarantees.
fn parse_journaled(
    schema: &Schema,
    parser: PadsParser<'_>,
    o: &Opts,
    source_path: &str,
    shape: SourceShape<'_>,
    journal_path: &str,
    out: &mut impl Write,
) -> Result<ExitCode, String> {
    if source_path == "-" {
        return Err("--journal needs a seekable file to fingerprint and resume; `-` is not".into());
    }
    let mut source = std::fs::File::open(source_path).map_err(read_err(source_path))?;
    let (source_id, source_len) = source_fingerprint(&mut source).map_err(read_err(source_path))?;
    let path = std::path::Path::new(journal_path);
    fn fail(err: &pads_journal::JournalError) -> Result<ExitCode, String> {
        eprintln!("pads: journal: {err}");
        Ok(ExitCode::from(EXIT_JOURNAL))
    }

    // Open (--resume) or start a fresh journal; recover a torn tail with a
    // notice, reject anything structurally unsound or from another source.
    let (journal, resume, restored) = if o.resume {
        let (journal, repaired) = match pads_journal::Journal::open(path) {
            Ok(j) => j,
            Err(e) => return fail(&e),
        };
        if let Some(r) = repaired {
            eprintln!(
                "pads: journal: {}: dropped {} trailing byte(s); {} checkpoint(s) kept",
                ErrorCode::JournalTornTail.name(),
                r.dropped_bytes,
                r.checkpoints_kept
            );
        }
        match journal.last() {
            Some(cp) if cp.source_id != source_id => {
                return fail(&pads_journal::JournalError {
                    code: ErrorCode::JournalSourceMismatch,
                    detail: format!(
                        "journal is for source {:#018x}, data is {:#018x}",
                        cp.source_id, source_id
                    ),
                });
            }
            Some(cp) => {
                let core = MetricsCore::restore(&cp.metrics);
                if core.is_none() {
                    eprintln!(
                        "pads: journal: metrics snapshot unreadable; counters restart at the checkpoint"
                    );
                }
                let resume = pads::ResumePoint {
                    offset: cp.offset.min(source_len) as usize,
                    record: cp.record as usize,
                    budget: cp.budget,
                };
                (journal, resume, core.unwrap_or_default())
            }
            None => (journal, pads::ResumePoint::default(), MetricsCore::new()),
        }
    } else {
        match pads_journal::Journal::create(path) {
            Ok(j) => (j, pads::ResumePoint::default(), MetricsCore::new()),
            Err(e) => return fail(&e),
        }
    };
    let com = Committer {
        journal: journal.with_fsync_every(o.fsync_every),
        source_id,
        every_records: o.checkpoint_records,
        every_bytes: o.checkpoint_bytes,
        records_since: 0,
        bytes_since: 0,
        last_offset: resume.offset as u64,
    };

    // One metrics core over the schema's type table, seeded from the
    // restored snapshot, hears the run and is snapshotted at every commit.
    let mut seeded = parser.metrics_core();
    seeded.merge(&restored);
    let core = seeded.into_handle();
    let parser = parser.with_metrics(core.clone());
    let mask = Mask::all(BaseMask::CheckAndSet);
    let job = SourceJob { start: resume, ..source_job(o, shape, &mask) };
    let mut sink = JournalSink {
        fold: SourceFold::new(schema),
        com,
        core,
        kill_after: o.kill_after,
        consumed: 0,
        killed: false,
        // Position of the first unconsumed (byte, record) — the final commit.
        last_pos: (resume.offset as u64, resume.record as u64),
        last_budget: resume.budget,
        commit_err: None,
    };
    source.seek(SeekFrom::Start(resume.offset as u64)).map_err(read_err(source_path))?;
    let end = parser.stream_reader(source, &job, &mut sink).map_err(read_err(source_path))?;
    let JournalSink { mut fold, mut com, core, consumed, killed, last_pos, commit_err, .. } = sink;
    if let Some(e) = commit_err {
        return fail(&e);
    }
    if killed {
        // Crash simulation: exit without the final commit or sync, leaving
        // exactly the periodic checkpoints a real kill would have left.
        eprintln!("pads: --kill-after: stopped after {consumed} record(s); rerun with --resume");
        return Ok(ExitCode::SUCCESS);
    }
    let budget = end.budget;
    let final_core = core.borrow();
    if let Err(e) = com.commit(last_pos.0, last_pos.1, budget, &final_core) {
        return fail(&e);
    }
    if let Err(e) = com.journal.sync() {
        return fail(&e);
    }

    // Report: the fold covers this run's records; the exit code comes from
    // the *budget*, which carries the whole run's tally across kills and
    // resumes.
    let summary = fold.finish(&end);
    if o.metrics.is_none() && o.format == OutputFormat::Report {
        emit(out, summary.report())?;
    }
    if let Some(fmt) = o.metrics {
        print_metrics(out, &final_core, fmt)?;
    }
    if summary.is_ok() && (budget.errs > 0 || budget.skipped_records > 0) {
        // All the errors predate the resume point; the budget is the only
        // witness this run sees.
        eprintln!(
            "pads: {} error(s) in {} (all before the resume point)",
            budget.errs, o.positional[1]
        );
        return Ok(ExitCode::from(EXIT_DATA_ERRORS));
    }
    Ok(data_status(&summary, &o.positional[1]))
}

/// The durable-ingest sink: every record folds into the report and
/// advances the commit cadence, until `--kill-after` or a failed commit
/// ends the run (later records are dropped, as a real kill would).
///
/// A checkpoint carries a metrics snapshot, so one that has fallen due is
/// committed — and the kill switch thrown — only where the driver says the
/// counters are exact: after every record of a sequential run, at the next
/// chunk boundary of a sharded one.
struct JournalSink {
    fold: SourceFold,
    com: Committer,
    /// The core the run counts into.
    core: MetricsHandle,
    kill_after: Option<u64>,
    consumed: u64,
    killed: bool,
    last_pos: (u64, u64),
    last_budget: pads::ErrorBudget,
    commit_err: Option<pads_journal::JournalError>,
}

impl RecordSink for JournalSink {
    fn observed(&mut self) {
        if self.killed || self.commit_err.is_some() {
            return;
        }
        if self.com.due() {
            let (offset, record) = self.last_pos;
            let committed = self.com.commit(offset, record, self.last_budget, &self.core.borrow());
            self.commit_err = committed.err();
        }
        self.killed = self.kill_after.is_some_and(|n| self.consumed >= n);
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        if self.killed || self.commit_err.is_some() {
            return;
        }
        self.fold.record(index, value, pd, progress);
        self.consumed += 1;
        self.last_pos = (progress.end.offset as u64, progress.record as u64 + 1);
        self.last_budget = progress.budget;
        self.com.on_record(self.last_pos.0);
    }
}

fn run(args: &[String], out: &mut impl Write) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(
            "usage: pads <check|diff|parse|profile|accum|fmt|xsd|query|gen|cobol|codegen> …"
                .into(),
        );
    };
    let mut o = parse_opts(rest)?;
    let registry = Registry::standard();
    let options = ParseOptions {
        charset: o.charset,
        discipline: o.discipline,
        policy: o.policy,
        engine: o.engine,
        ..Default::default()
    };
    let need = |n: usize| -> Result<(), String> {
        if o.positional.len() < n {
            Err(format!("`pads {cmd}` needs {n} argument(s)"))
        } else {
            Ok(())
        }
    };

    match cmd.as_str() {
        "check" => {
            need(1)?;
            let path = &o.positional[0];
            let src = match std::fs::read_to_string(path) {
                Ok(src) => src,
                Err(e) => {
                    // A missing description is not a finding *in* any file:
                    // report it as a spanless diagnostic and fail hard.
                    let d = lint::Diagnostic {
                        code: "io",
                        level: lint::Level::Deny,
                        span: Default::default(),
                        message: format!("cannot read `{path}`: {e}"),
                        hint: None,
                    };
                    eprint!("{}", lint::render::render_diagnostic(&d, "", path));
                    return Ok(ExitCode::FAILURE);
                }
            };
            let (schema, diags) =
                pads_check::compile_with_lints(&src, &registry).map_err(|e| {
                    if let pads::CompileError::Syntax(se) = &e {
                        let (line, col) = se.line_col(&src);
                        format!("{path}:{line}:{col}: {e}")
                    } else {
                        format!("{path}: {e}")
                    }
                })?;
            // `--lint-format=json` without `--lint` still runs the lints
            // (at the default deny threshold for the exit status).
            let threshold = match (o.lint, o.lint_format) {
                (Some(t), _) => Some(t),
                (None, LintFormat::Json) => Some(lint::Level::Deny),
                (None, LintFormat::Text) => None,
            };
            if let Some(threshold) = threshold {
                match o.lint_format {
                    // Render at the *chosen* threshold, so `--lint=allow`
                    // reveals the Allow-level notes (PL206, PL304, …).
                    LintFormat::Text => eprint!(
                        "{}",
                        lint::render::render_all(&diags, &src, path, threshold)
                    ),
                    // The JSON stream always carries every finding;
                    // machine consumers filter by level themselves.
                    LintFormat::Json => {
                        emit(out, lint::render::render_json(&diags, &src, path))?;
                    }
                }
                if diags.any_at(threshold) {
                    return Ok(ExitCode::from(EXIT_LINT));
                }
            }
            // With `--lint-format=json`, stdout is reserved for the JSON
            // report; the human summary moves to stderr.
            let ok_line = format!(
                "ok: {} type(s), source `{}`",
                schema.types.len(),
                schema.source_def().name
            );
            match o.lint_format {
                LintFormat::Text => emit(out, format_args!("{ok_line}\n"))?,
                LintFormat::Json => eprintln!("{ok_line}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            // Schema-evolution check: classify old → new on the
            // compatible < widens < narrows < breaks lattice. Breaking
            // changes exit 3 — the same "static gate tripped" status as
            // `check --lint` — so registries can gate hot reloads on it.
            need(2)?;
            let old = load_schema(&o.positional[0], &registry)?;
            let new = load_schema(&o.positional[1], &registry)?;
            let report = pads_check::diff::diff_schemas(&old, &new);
            emit(out, report.render())?;
            if report.breaks() {
                Ok(ExitCode::from(EXIT_LINT))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "parse" => {
            need(2)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let path = &o.positional[1];
            let shape = SourceShape::infer(&schema);
            if let Some(journal_path) = &o.journal {
                // Durable ingest: the journal records progress per record,
                // which only makes sense for a plain record-array source
                // with the plain record report.
                if o.trace.is_some() {
                    return Err("--journal cannot be combined with --trace".into());
                }
                if o.profile {
                    return Err("--journal cannot be combined with --profile".into());
                }
                if o.format == OutputFormat::Xml {
                    return Err("--journal cannot be combined with --format xml".into());
                }
                let Some(shape @ SourceShape { header: None, .. }) = shape else {
                    return Err("--journal requires a plain record-array source".into());
                };
                return parse_journaled(
                    &schema,
                    PadsParser::new(&schema, &registry).with_options(options),
                    &o,
                    path,
                    shape,
                    journal_path,
                    out,
                );
            }
            // The driver decides how the run executes; say so where
            // `--jobs` cannot take effect. The trace and the profiler each
            // need one ordered event stream, and only a `[header] +
            // records` source has records to shard.
            if o.jobs > 1 {
                let ordered =
                    o.trace.map(|_| "--trace").or(o.profile.then_some("--profile"));
                if let Some(flag) = ordered {
                    eprintln!("pads: {flag} forces a sequential parse; ignoring --jobs");
                } else if shape.is_none() {
                    eprintln!("pads: source is not a plain record array; ignoring --jobs");
                }
            }
            let (summary, core) = parse_whole(&schema, &registry, options, &o, path, out)?;
            if o.format == OutputFormat::Report && o.trace.is_none() && o.metrics.is_none() {
                emit(out, summary.report())?;
            }
            print_observed(out, &core.borrow(), &o)?;
            // The run itself completed; if the *data* has errors, summarise
            // on stderr and use the distinct "data errors" status.
            Ok(data_status(&summary, path))
        }
        "profile" => {
            // Per-schema-node cost profile: parse the source sequentially
            // with a profiling dense core attached, then print the
            // per-node cost table — or, with `--folded`, folded-stack
            // lines for `inferno`/flamegraph tooling. Both outputs are
            // deterministic for a given input unless `--times` opts into
            // the sampled (approximate) self-time column.
            need(2)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            o.profile = true;
            o.format = OutputFormat::None;
            let (summary, core) =
                parse_whole(&schema, &registry, options, &o, &o.positional[1], out)?;
            let core = core.borrow();
            let table =
                if o.folded { core.profile_folded() } else { core.profile_table(o.times) };
            if let Some(table) = table {
                emit(out, table)?;
            }
            eprintln!(
                "pads: profile: {} record(s), {} error(s) in {}",
                core.records(),
                core.errors_total(),
                o.positional[1]
            );
            if summary.is_ok() {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(EXIT_DATA_ERRORS))
            }
        }
        "accum" => {
            need(2)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let path = &o.positional[1];
            let shape = source_shape(&schema, &o)?;
            let parser = PadsParser::new(&schema, &registry).with_options(options);
            let mask = Mask::all(BaseMask::CheckAndSet);
            let cfg = pads_tools::AccConfig {
                tracked: o.tracked,
                top_k: o.top,
                // §9 histogram/quantile summaries.
                summaries: o.summaries.then_some((16, 1024)),
            };
            let mut acc = pads_tools::Accumulator::with_config(&schema, shape.record, cfg);
            // `--jobs N` shards the records across workers feeding this
            // same sink in record order.
            parser
                .stream_reader(open_source(path)?, &source_job(&o, shape, &mask), &mut acc)
                .map_err(read_err(path))?;
            emit(out, acc.report("<top>"))?;
            if acc.bad_records > 0 {
                eprintln!("pads: {} bad record(s) in {path}", acc.bad_records);
                Ok(ExitCode::from(EXIT_DATA_ERRORS))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "fmt" => {
            need(2)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let path = &o.positional[1];
            let shape = source_shape(&schema, &o)?;
            let mut fmt = pads_tools::Formatter::new(&[o.delim.as_str()]);
            if let Some(df) = &o.date_fmt {
                fmt = fmt.with_date_format(df);
            }
            let source = open_source(path)?;
            pads_tools::format_source(&schema, &registry, options, &shape, source, &fmt, out)
                .map_err(read_err(path))?
                .map_err(stdout_err)?;
            Ok(ExitCode::SUCCESS)
        }
        "xsd" => {
            need(1)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            emit(out, pads_tools::schema_to_xsd(&schema))?;
            Ok(ExitCode::SUCCESS)
        }
        "query" => {
            need(3)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let data = read_source(&o.positional[1])?;
            let parser = PadsParser::new(&schema, &registry).with_options(options);
            let mask = Mask::all(BaseMask::CheckAndSet);
            let (v, pd) = parser.parse_source(&data, &mask);
            let root = pads_query::Node::root(&schema.source_def().name, &v, Some(&pd));
            let q = pads_query::Query::parse(&o.positional[2]).map_err(|e| e.to_string())?;
            emit(out, format_args!("{}\n", q.count(&root)))?;
            Ok(ExitCode::SUCCESS)
        }
        "gen" => {
            need(1)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let record = source_shape(&schema, &o)?.record;
            let config = pads_gen::GenConfig { seed: o.seed, ..Default::default() };
            let mut g = pads_gen::Generator::new(&schema, config);
            // A batch at a time: the generator carries its state on, so the
            // bytes are those of one call, and none of them wait for the last.
            let mut left = o.records;
            while left > 0 {
                let batch = left.min(GEN_BATCH);
                out.write_all(&g.generate_records(record, batch)).map_err(stdout_err)?;
                left -= batch;
            }
            Ok(ExitCode::SUCCESS)
        }
        "cobol" => {
            need(1)?;
            let copybook = std::fs::read_to_string(&o.positional[0])
                .map_err(|e| format!("{}: {e}", o.positional[0]))?;
            let description = pads_cobol::translate(&copybook).map_err(|e| e.to_string())?;
            emit(out, description)?;
            Ok(ExitCode::SUCCESS)
        }
        "codegen" => {
            need(1)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let module = pads_codegen::generate_rust(&schema, &o.positional[0])
                .map_err(|e| e.to_string())?;
            emit(out, module)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}
