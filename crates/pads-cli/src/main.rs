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
//!             [--profile [--times]]             per-node cost table on stderr
//!             [--jobs N]                        parse chunks of records on N worker threads
//!             [--engine {vm,interp}]            execution engine (default vm; see docs/VM.md)
//!             [--max-inflight-records N]        … at most N parsed ahead, per worker
//!             [--journal <path> [--resume]]     durable ingest (see docs/DURABILITY.md)
//! pads profile <descr.pads> <data>              per-schema-node cost profile
//!             [--folded]                        folded stacks (flamegraph input)
//!             [--times]                         add sampled self-time column
//! pads accum  <descr.pads> <data> [--summaries]  §5.2 accumulator report
//!             [--tracked N] [--top N]           distinct values tracked / printed
//!             [--jobs N] [--max-inflight-records N]  … from N worker threads, same report
//! pads fmt    <descr.pads> <data>               §5.3.1 delimited output
//!             [--delim D] [--date-fmt F]
//! pads xsd    <descr.pads>                      §5.3.2 XML Schema
//! pads query  <descr.pads> <data> <query>       §5.4 path query (counts matches)
//! pads gen    <descr.pads> [--records N] [--seed S] [--record T]  §9 random data,
//!                                               syntactically conforming only
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
//! Common options, wherever data is parsed (`parse`, `profile`, `accum`,
//! `fmt`, `query`): `--ebcdic`, `--fixed <N>`, `--lenpfx <N>` select the
//! ambient coding / record discipline. `--record <T>` and `--header <T>`
//! (`accum`, `fmt`; `gen` takes `--record`) pick the §5.2 source shape
//! (default: inferred from the source type when it is such a header +
//! records source).
//! Error budgets (the C runtime's `Pmax_errs` discipline): `--max-errs <N>`,
//! `--max-record-errs <N>`, `--max-panic-skip <N>`, and
//! `--on-overflow <stop|skip|best-effort>`.
//!
//! Durable ingest: `pads parse --journal <path>` is the same run with the
//! journal in front of its sink — any source that streams, Sirius's header
//! and records included. It commits a write-ahead checkpoint (byte offset,
//! record index, error budget, metrics snapshot) every
//! `--checkpoint-records <N>` records or `--checkpoint-bytes <N>` bytes,
//! always at the end of a record, fsyncing every `--fsync-every <N>`
//! commits; `--resume` continues a killed run from the last valid
//! checkpoint — past the header, which lies behind every checkpoint — with
//! identical results. `--kill-after <N>` is the crash-test hook. Refused,
//! with the reason: `--format xml`, `--trace`/`--profile`, a source that
//! does not stream, and `-`.
//!
//! An option is accepted only by the subcommands that read it (the block
//! above; the common options wherever data is parsed), and the journal's
//! options only with `--journal`; anything else is status 1.
//!
//! `--jobs <N>` (`parse`, `accum`) cuts the records of the source — after
//! its header, if it has one — into small chunks of consecutive records
//! that N worker threads (at most 64, however large N is) parse side by
//! side; the chunks reach the same sink in source order, so every output
//! is byte-identical to `--jobs 1`. `--max-inflight-records <N>` (default
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
    BaseMask, Charset, Endian, Engine, ErrorCode, Mask, PadsParser, ParseDesc,
    ParseOptions, Progress, RecordDiscipline, RecordSink, RecoveryPolicy, Registry, ResumePoint,
    Schema, SourceFold, SourceJob, SourceShape, SourceSummary, Value,
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

/// Wherever data is parsed: the coding, the record discipline, the error
/// budgets and the engine.
const DATA: &[&str] = &["parse", "profile", "accum", "fmt", "query"];

/// Every option, one row each: its name, the subcommands that read it, how
/// it takes its value, and what it sets (the module doc says what each
/// means). An option given to any other subcommand is refused rather than
/// dropped: a run that wrote no journal must not exit as if it had.
const OPTIONS: &[Opt] = &[
    opt("--ebcdic", DATA, Switch, |o, _| set(&mut o.charset, Charset::Ebcdic)),
    opt("--fixed", DATA, Next, |o, v| {
        set(&mut o.discipline, RecordDiscipline::FixedWidth(v.positive()?))
    }),
    opt("--lenpfx", DATA, Next, |o, v| {
        let (header_bytes, endian) = (v.positive()?, Endian::Big);
        set(&mut o.discipline, RecordDiscipline::LengthPrefixed { header_bytes, endian })
    }),
    opt("--max-errs", DATA, Next, |o, v| set(&mut o.policy.max_errs, Some(v.number()?))),
    opt("--max-record-errs", DATA, Next, |o, v| {
        set(&mut o.policy.max_record_errs, Some(v.number()?))
    }),
    opt("--max-panic-skip", DATA, Next, |o, v| {
        set(&mut o.policy.max_panic_skip, Some(v.number()?))
    }),
    opt("--on-overflow", DATA, Next, |o, v| {
        let expected = "--on-overflow: expected stop, skip, or best-effort";
        set(&mut o.policy.on_exhausted, v.text().parse().map_err(|_| expected)?)
    }),
    opt("--engine", DATA, Next, |o, v| {
        set(&mut o.engine, v.pick(&[("interp", Engine::Interp), ("vm", Engine::Vm)])?)
    }),
    opt("--format", &["parse"], NextOrEq, |o, v| {
        let (report, xml, none) = (OutputFormat::Report, OutputFormat::Xml, OutputFormat::None);
        set(&mut o.format, v.pick(&[("report", report), ("xml", xml), ("none", none)])?)
    }),
    opt("--trace", &["parse"], Eq(Some("tree")), |o, v| {
        let formats = [("json", TraceFormat::Json), ("tree", TraceFormat::Tree)];
        set(&mut o.trace, Some(v.pick(&formats)?))
    }),
    opt("--metrics", &["parse"], Eq(Some("prom")), |o, v| {
        let formats = [("prom", MetricsFormat::Prom), ("json", MetricsFormat::Json)];
        set(&mut o.metrics, Some(v.pick(&formats)?))
    }),
    opt("--profile", &["parse"], Switch, |o, _| set(&mut o.profile, true)),
    opt("--journal", &["parse"], Next, |o, v| set(&mut o.journal, Some(v.text()))),
    journal_opt("--resume", Switch, |o, _| set(&mut o.resume, true)),
    journal_opt("--checkpoint-records", Next, |o, v| set(&mut o.checkpoint_records, v.positive()?)),
    journal_opt("--checkpoint-bytes", Next, |o, v| {
        set(&mut o.checkpoint_bytes, Some(v.positive()?))
    }),
    journal_opt("--fsync-every", Next, |o, v| set(&mut o.fsync_every, v.positive()?)),
    journal_opt("--kill-after", Next, |o, v| set(&mut o.kill_after, Some(v.number()?))),
    opt("--times", &["parse", "profile"], Switch, |o, _| set(&mut o.times, true)),
    opt("--folded", &["profile"], Switch, |o, _| set(&mut o.folded, true)),
    opt("--jobs", &["parse", "accum"], Next, |o, v| set(&mut o.jobs, v.positive()?)),
    opt("--max-inflight-records", &["parse", "accum"], Next, |o, v| {
        set(&mut o.max_inflight, v.positive()?)
    }),
    opt("--tracked", &["accum"], Next, |o, v| set(&mut o.tracked, v.number()?)),
    opt("--top", &["accum"], Next, |o, v| set(&mut o.top, v.number()?)),
    opt("--summaries", &["accum"], Switch, |o, _| set(&mut o.summaries, true)),
    opt("--header", &["accum", "fmt"], Next, |o, v| set(&mut o.header, Some(v.text()))),
    opt("--record", &["accum", "fmt", "gen"], Next, |o, v| set(&mut o.record, Some(v.text()))),
    opt("--delim", &["fmt"], Next, |o, v| set(&mut o.delim, v.text())),
    opt("--date-fmt", &["fmt"], Next, |o, v| set(&mut o.date_fmt, Some(v.text()))),
    opt("--records", &["gen"], Next, |o, v| set(&mut o.records, v.number()?)),
    opt("--seed", &["gen"], Next, |o, v| set(&mut o.seed, v.number()?)),
    opt("--lint", &["check"], Eq(Some("deny")), |o, v| {
        let (deny, warn, allow) = (lint::Level::Deny, lint::Level::Warn, lint::Level::Allow);
        set(&mut o.lint, Some(v.pick(&[("deny", deny), ("warn", warn), ("allow", allow)])?))
    }),
    opt("--lint-format", &["check"], Eq(None), |o, v| {
        set(&mut o.lint_format, v.pick(&[("json", LintFormat::Json), ("text", LintFormat::Text)])?)
    }),
];

/// How an option takes its value: not at all (`--name`), as the next
/// argument (`--name V`), as that or after `=` (`--name=V`), or only after
/// `=` — given bare, an `Eq` option has the value named here, if any.
#[derive(Clone, Copy)]
enum Takes {
    Switch,
    Next,
    NextOrEq,
    Eq(Option<&'static str>),
}
use Takes::{Eq, Next, NextOrEq, Switch};

/// What an option sets, from its value.
type Set = fn(&mut Opts, &Val<'_>) -> Result<(), String>;

/// A row of [`OPTIONS`].
struct Opt {
    name: &'static str,
    cmds: &'static [&'static str],
    takes: Takes,
    set: Set,
    /// Says how to journal, and means nothing without `--journal`.
    journal: bool,
}

const fn opt(name: &'static str, cmds: &'static [&'static str], takes: Takes, set: Set) -> Opt {
    Opt { name, cmds, takes, set, journal: false }
}

/// A row for an option of `pads parse` that says how to journal.
const fn journal_opt(name: &'static str, takes: Takes, set: Set) -> Opt {
    Opt { name, cmds: &["parse"], takes, set, journal: true }
}

/// What an option sets.
fn set<T>(field: &mut T, value: T) -> Result<(), String> {
    *field = value;
    Ok(())
}

/// An option's value as given, under the option's name.
struct Val<'a> {
    name: &'static str,
    /// `None` for a switch and for an [`Eq`] option with no default given
    /// bare.
    value: Option<&'a str>,
}

impl Val<'_> {
    fn text(&self) -> String {
        self.value.unwrap_or_default().to_owned()
    }

    fn number<T: std::str::FromStr>(&self) -> Result<T, String> {
        self.text().parse().map_err(|_| format!("{}: bad number", self.name))
    }

    /// A [`number`](Self::number) that must not be zero.
    fn positive<T: std::str::FromStr + PartialEq + From<u8>>(&self) -> Result<T, String> {
        let n = self.number()?;
        (n != T::from(0)).then_some(n).ok_or_else(|| format!("{}: must be at least 1", self.name))
    }

    /// The one of the two or three `choices` the value names.
    fn pick<T: Copy>(&self, choices: &[(&str, T)]) -> Result<T, String> {
        let name = self.name;
        let Some(text) = self.value else {
            let forms: Vec<String> = choices.iter().map(|(c, _)| format!("{name}={c}")).collect();
            return Err(format!("{name} needs a value: {}", forms.join(" or ")));
        };
        if let Some(&(_, choice)) = choices.iter().find(|&&(c, _)| c == text) {
            return Ok(choice);
        }
        let expected = match choices {
            [(a, _), (b, _)] => format!("{a} or {b}"),
            [(a, _), (b, _), (c, _)] => format!("{a}, {b}, or {c}"),
            _ => String::new(),
        };
        Err(format!("{name}: expected {expected}, got `{text}`"))
    }
}

/// What the options say, each field set by a row of [`OPTIONS`].
#[derive(Default)]
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
    format: OutputFormat,
    summaries: bool,
    policy: RecoveryPolicy,
    lint: Option<lint::Level>,
    lint_format: LintFormat,
    trace: Option<TraceFormat>,
    metrics: Option<MetricsFormat>,
    profile: bool,
    folded: bool,
    times: bool,
    jobs: usize,
    engine: Engine,
    journal: Option<String>,
    resume: bool,
    checkpoint_records: u64,
    checkpoint_bytes: Option<u64>,
    fsync_every: usize,
    max_inflight: usize,
    kill_after: Option<u64>,
}

/// `--format` (parse): the error report, the XML rendering, or nothing —
/// the discard sink parses, prints no stdout output, and reports only
/// through stderr and the exit code.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum OutputFormat {
    #[default]
    Report,
    Xml,
    None,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Tree,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq, Default)]
enum LintFormat {
    #[default]
    Text,
    Json,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Prom,
    Json,
}

/// The arguments of `pads cmd`: the positional ones, and each option read
/// through its row of [`OPTIONS`] — refused where `cmd` does not read it.
fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        records: 10,
        seed: 1,
        tracked: 1000,
        top: 10,
        delim: "|".to_owned(),
        jobs: 1,
        engine: Engine::Vm,
        checkpoint_records: 1,
        fsync_every: pads_journal::DEFAULT_FSYNC_EVERY,
        max_inflight: pads::DEFAULT_MAX_INFLIGHT,
        ..Opts::default()
    };
    // The first option given that says how to journal.
    let mut journaled = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            o.positional.push(arg.clone());
            continue;
        }
        let (name, eq) = arg.split_once('=').map_or((arg.as_str(), None), |(n, v)| (n, Some(v)));
        let opt = (OPTIONS.iter())
            .find(|opt| opt.name == name && (eq.is_none() || matches!(opt.takes, NextOrEq | Eq(_))))
            .ok_or_else(|| format!("unknown option {arg}"))?;
        if !opt.cmds.contains(&cmd) {
            return Err(format!("{name} is not an option of `pads {cmd}`"));
        }
        let value = match (opt.takes, eq) {
            (Next | NextOrEq, None) => {
                Some(it.next().ok_or_else(|| format!("{name} needs a value"))?.as_str())
            }
            (Eq(bare), None) => bare,
            (_, eq) => eq,
        };
        (opt.set)(&mut o, &Val { name: opt.name, value })?;
        journaled = journaled.or(opt.journal.then_some(opt.name));
    }
    match journaled {
        Some(name) if o.journal.is_none() => Err(format!("{name} needs --journal")),
        _ => Ok(o),
    }
}

fn load_schema(path: &str, registry: &Registry) -> Result<Schema, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    pads::compile(&src, registry).map_err(|e| compile_err(path, &src, &e))
}

/// A description `path` holds as `src` that does not compile: where, if
/// the error is a syntax error, and why.
fn compile_err(path: &str, src: &str, e: &pads::CompileError) -> String {
    if let pads::CompileError::Syntax(se) = e {
        let (line, col) = se.line_col(src);
        return format!("{path}:{line}:{col}: {e}");
    }
    format!("{path}: {e}")
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

/// How a completed run of a §5 program ends: status 2, and a line saying
/// so, when some record of `path` had errors.
fn bad_records_status(bad_records: u64, path: &str) -> ExitCode {
    if bad_records == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("pads: {bad_records} bad record(s) in {path}");
    ExitCode::from(EXIT_DATA_ERRORS)
}

/// A failed open or read of the data source is a hard failure.
fn read_err(path: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{path}: {e}")
}

/// Ends a parse whose data diagnosis is `summary` and whose tally is
/// `budget`: clean data is status 0; otherwise the error-summary line — a
/// count per distinct `ErrorCode` — goes to stderr, so scripts can separate
/// the diagnosis from stdout output, and the status is the distinct "data
/// errors" one. The summary covers this run's records and the budget the
/// whole run's, across kills and resumes: when every error predates the
/// resume point the budget is the only witness, and says so.
fn data_status(summary: &SourceSummary, budget: &pads::ErrorBudget, source: &str) -> ExitCode {
    if !summary.is_ok() {
        eprintln!("pads: {}", summary.error_line(source));
    } else if budget.errs > 0 || budget.skipped_records > 0 {
        eprintln!("pads: {} error(s) in {source} (all before the resume point)", budget.errs);
    } else {
        return ExitCode::SUCCESS;
    }
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

/// What an observed `pads parse` prints once the run is over: the trace,
/// then the `--metrics` exposition, on stdout; the `--metrics` summary line
/// and the `--profile` table on stderr.
fn print_observed(out: &mut impl Write, core: &MetricsCore, o: &Opts) -> Result<(), String> {
    let traced = o.trace.and_then(|fmt| match fmt {
        TraceFormat::Json => trace::jsonl(core),
        TraceFormat::Tree => trace::render(core),
    });
    if let Some(text) = traced {
        emit(out, text)?;
    }
    if let Some(fmt) = o.metrics {
        match fmt {
            MetricsFormat::Prom => emit(out, metrics::prometheus(core))?,
            MetricsFormat::Json => emit(out, format_args!("{}\n", metrics::counts_json(core)))?,
        }
        eprintln!("{}", metrics_summary_line(core));
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
    /// Records delivered since the last checkpoint (or the start), and the
    /// offset it (or the run) stands at.
    records_since: u64,
    committed_offset: u64,
}

impl Committer {
    /// Whether a checkpoint interval has elapsed between the last commit
    /// and the record end `at`.
    fn due(&self, at: &ResumePoint) -> bool {
        let bytes_since = (at.offset as u64).saturating_sub(self.committed_offset);
        self.records_since >= self.every_records
            || self.every_bytes.is_some_and(|b| bytes_since >= b)
    }

    /// Commits `at`, a record end past the last checkpoint.
    fn commit(
        &mut self,
        at: ResumePoint,
        metrics: &MetricsCore,
    ) -> Result<(), pads_journal::JournalError> {
        self.records_since = 0;
        self.committed_offset = at.offset as u64;
        self.journal.commit(pads_journal::Checkpoint {
            source_id: self.source_id,
            offset: at.offset as u64,
            record: at.record as u64,
            budget: at.budget,
            metrics: metrics.snapshot(),
        })
    }
}

/// An unusable journal: the stable code on stderr, the status of its own.
fn journal_failed(err: &pads_journal::JournalError) -> ExitCode {
    eprintln!("pads: journal: {err}");
    ExitCode::from(EXIT_JOURNAL)
}

/// What `--journal` opens: the data file, fingerprinted and standing where
/// the run starts; the cadence over the journal; and that start.
type Journaling = (std::fs::File, Committer, ResumePoint);

/// Starts a fresh journal at `journal_path`, or under `--resume` opens the
/// one there: recovers a torn tail with a notice, rejects anything
/// structurally unsound or written for another source, and folds the
/// counters as of its last checkpoint into `core`.
fn open_journal(
    o: &Opts,
    source_path: &str,
    journal_path: &str,
    core: &MetricsHandle,
) -> Result<Result<Journaling, pads_journal::JournalError>, String> {
    let mut source = std::fs::File::open(source_path).map_err(read_err(source_path))?;
    let (source_id, source_len) = source_fingerprint(&mut source).map_err(read_err(source_path))?;
    let path = std::path::Path::new(journal_path);
    let opened = (|| {
        let journal = if o.resume {
            let (journal, repaired) = pads_journal::Journal::open(path)?;
            if let Some(r) = repaired {
                eprintln!(
                    "pads: journal: {}: dropped {} trailing byte(s); {} checkpoint(s) kept",
                    ErrorCode::JournalTornTail.name(),
                    r.dropped_bytes,
                    r.checkpoints_kept
                );
            }
            journal
        } else {
            pads_journal::Journal::create(path)?
        };
        let start = match journal.last() {
            Some(cp) if cp.source_id != source_id => {
                return Err(pads_journal::JournalError {
                    code: ErrorCode::JournalSourceMismatch,
                    detail: format!(
                        "journal is for source {:#018x}, data is {:#018x}",
                        cp.source_id, source_id
                    ),
                });
            }
            Some(cp) => {
                match MetricsCore::restore(&cp.metrics) {
                    Some(restored) => core.borrow_mut().merge(&restored),
                    None => eprintln!(
                        "pads: journal: metrics snapshot unreadable; counters restart at the checkpoint"
                    ),
                }
                ResumePoint {
                    offset: cp.offset.min(source_len) as usize,
                    record: cp.record as usize,
                    budget: cp.budget,
                }
            }
            None => ResumePoint::default(),
        };
        let com = Committer {
            journal: journal.with_fsync_every(o.fsync_every),
            source_id,
            every_records: o.checkpoint_records,
            every_bytes: o.checkpoint_bytes,
            records_since: 0,
            committed_offset: start.offset as u64,
        };
        Ok((com, start))
    })();
    Ok(match opened {
        Ok((com, start)) => {
            source.seek(SeekFrom::Start(start.offset as u64)).map_err(read_err(source_path))?;
            Ok((source, com, start))
        }
        Err(e) => Err(e),
    })
}

/// The durable-ingest adapter in front of a run's sink: the header and
/// every record go on to `inner`, and each record advances the commit
/// cadence, until `--kill-after` or a failed commit ends the run (later
/// records are dropped, as a real kill would).
///
/// A checkpoint carries a metrics snapshot, so one that has fallen due is
/// committed — and the kill switch thrown — only where the driver says the
/// counters are exact: after every record of a sequential run, at the next
/// chunk boundary of a sharded one. Checkpoints are therefore only ever
/// taken at record ends, with the header behind them.
struct Journaled<S> {
    inner: S,
    com: Committer,
    /// The core the run counts into.
    core: MetricsHandle,
    kill_after: Option<u64>,
    consumed: u64,
    killed: bool,
    /// The end of the last record delivered, until a checkpoint says it:
    /// what the next one commits, if a record has ended since the last.
    last: Option<ResumePoint>,
    commit_err: Option<pads_journal::JournalError>,
}

impl<S> Journaled<S> {
    fn new(inner: S, com: Committer, core: MetricsHandle, kill_after: Option<u64>) -> Self {
        let (consumed, killed, last, commit_err) = (0, false, None, None);
        Journaled { inner, com, core, kill_after, consumed, killed, last, commit_err }
    }

    /// Closes the journal over a run that ended with `budget` — the final
    /// commit, then the sync that makes every commit durable — and hands
    /// the sink back; or the status of a run that has no more to say: the
    /// journal's own on a failed commit, success after `--kill-after`,
    /// which leaves exactly the periodic checkpoints a real kill would.
    fn finish(mut self, budget: pads::ErrorBudget) -> Result<S, ExitCode> {
        if let Some(e) = &self.commit_err {
            return Err(journal_failed(e));
        }
        if self.killed {
            let n = self.consumed;
            eprintln!("pads: --kill-after: stopped after {n} record(s); rerun with --resume");
            return Err(ExitCode::SUCCESS);
        }
        let committed = match self.last.take() {
            Some(at) => self.com.commit(ResumePoint { budget, ..at }, &self.core.borrow()),
            None => Ok(()),
        };
        match committed.and_then(|()| self.com.journal.sync()) {
            Ok(()) => Ok(self.inner),
            Err(e) => Err(journal_failed(&e)),
        }
    }
}

impl<S: RecordSink> RecordSink for Journaled<S> {
    fn header(&mut self, value: Value, pd: ParseDesc, progress: &Progress) -> bool {
        self.inner.header(value, pd, progress)
    }

    fn record(&mut self, index: usize, value: &Value, pd: &ParseDesc, progress: &Progress) {
        if self.killed || self.commit_err.is_some() {
            return;
        }
        self.inner.record(index, value, pd, progress);
        self.consumed += 1;
        self.com.records_since += 1;
        self.last = Some(ResumePoint {
            offset: progress.end.offset,
            record: progress.record + 1,
            budget: progress.budget,
        });
    }

    fn observed(&mut self) {
        if self.killed || self.commit_err.is_some() {
            return;
        }
        self.inner.observed();
        if let Some(at) = self.last.take_if(|at| self.com.due(at)) {
            self.commit_err = self.com.commit(at, &self.core.borrow()).err();
        }
        self.killed = self.kill_after.is_some_and(|n| self.consumed >= n);
    }
}

/// Why `--journal` cannot cover this run, where it cannot.
fn journal_refusal(o: &Opts, shape: Option<SourceShape<'_>>, path: &str) -> Option<&'static str> {
    if path == "-" {
        Some("--journal needs a seekable file to fingerprint and resume; `-` is not")
    } else if o.format == OutputFormat::Xml {
        Some(
            "--journal cannot be combined with --format xml: the document is written as records \
             arrive, and a resumed run cannot re-emit what preceded the checkpoint",
        )
    } else if o.trace.is_some() || o.profile {
        Some(
            "--journal cannot be combined with --trace or --profile: their state is not in the \
             checkpoint's metrics snapshot",
        )
    } else if shape.is_none() {
        Some(
            "--journal needs a source that streams (records, or a header and records): any other \
             has no record boundary to commit at",
        )
    } else {
        None
    }
}

/// `pads parse` and `pads profile` (`profiling`), the one place a run over
/// the whole source is described: a core with the profiler and the trace
/// `o` asks for switched on, the sink `--format` names, the journal in
/// front of it under `--journal`, the source driver from where the journal
/// says the run starts, and what the run prints when it is over.
///
/// A `[header] + records` source goes through the source driver, a window
/// of input and a record live at a time, into the report fold (`report`,
/// `none`) or the XML writer over it — which also emit the source type's
/// own events, so the core hears what a whole-tree parse would tell it. The
/// driver shards the records under `--jobs N` unless the core wants an
/// ordered event stream. Output is byte-identical to the whole-tree parse,
/// which only a source of any other shape still takes.
fn parse(
    schema: &Schema,
    registry: &Registry,
    options: ParseOptions,
    o: &Opts,
    profiling: bool,
    out: &mut impl Write,
) -> Result<ExitCode, String> {
    let path = &o.positional[1];
    let shape = SourceShape::infer(schema);
    if let Some(why) = o.journal.as_ref().and_then(|_| journal_refusal(o, shape, path)) {
        return Err(why.into());
    }
    // The driver decides how the run executes; say so where `--jobs` cannot
    // take effect. The trace and the profiler each need one ordered event
    // stream, and only a `[header] + records` source has records to shard.
    if o.jobs > 1 {
        let ordered = o.trace.map(|_| "--trace").or(o.profile.then_some("--profile"));
        if let Some(flag) = ordered {
            eprintln!("pads: {flag} forces a sequential parse; ignoring --jobs");
        } else if shape.is_none() {
            eprintln!("pads: source is not a plain record array; ignoring --jobs");
        }
    }
    let mut parser = PadsParser::new(schema, registry).with_options(options);
    let mut core = parser.metrics_core();
    if o.profile {
        core = core.with_profile();
    }
    if o.trace.is_some() {
        core = core.with_trace(trace::DEFAULT_DEPTH, trace::DEFAULT_SPANS);
    }
    let core = core.into_handle();
    // A checkpoint snapshots the counters, so a journaled run always counts.
    if o.journal.is_some() || o.metrics.is_some() || o.profile || o.trace.is_some() {
        parser = parser.with_metrics(core.clone());
    }
    let mask = Mask::all(BaseMask::CheckAndSet);
    let xml = o.format == OutputFormat::Xml;
    let (summary, budget) = if let Some(shape) = shape {
        let (source, start, com): (Box<dyn Read>, _, _) = match &o.journal {
            None => (open_source(path)?, ResumePoint::default(), None),
            Some(journal_path) => match open_journal(o, path, journal_path, &core)? {
                Ok((source, com, start)) => (Box::new(source), start, Some(com)),
                Err(e) => return Ok(journal_failed(&e)),
            },
        };
        let job = SourceJob { start, ..source_job(o, shape, &mask) };
        if xml {
            let sink = pads_tools::XmlSourceSink::new(schema, &mut *out);
            let mut sink = sink.observe(core.clone(), 0);
            let end = parser.stream_reader(source, &job, &mut sink).map_err(read_err(path))?;
            (sink.finish(&end).map_err(stdout_err)?, end.budget)
        } else if let Some(com) = com {
            // A fold that resumes has not seen the records before the
            // checkpoint, so what it would say of the source's own two nodes
            // is not the whole run's: a journaled run counts the header and
            // the records, which the snapshot carries across a kill.
            let mut sink = Journaled::new(SourceFold::new(schema), com, core.clone(), o.kill_after);
            let end = parser.stream_reader(source, &job, &mut sink).map_err(read_err(path))?;
            match sink.finish(end.budget) {
                Ok(mut fold) => (fold.finish(&end), end.budget),
                Err(status) => return Ok(status),
            }
        } else {
            let mut sink = SourceFold::new(schema).observe(core.clone(), 0);
            let end = parser.stream_reader(source, &job, &mut sink).map_err(read_err(path))?;
            (sink.finish(&end), end.budget)
        }
    } else {
        let (v, pd) = parser.parse_source(&read_source(path)?, &mask);
        if xml {
            emit(out, pads_tools::value_to_xml(&v, Some(&pd), &schema.source_def().name, 0))?;
        }
        (SourceSummary::of(&pd), pads::ErrorBudget::new())
    };

    let core = core.borrow();
    if profiling {
        // Deterministic for a given input unless `--times` opts into the
        // sampled (approximate) self-time column.
        let table = if o.folded { core.profile_folded() } else { core.profile_table(o.times) };
        if let Some(table) = table {
            emit(out, table)?;
        }
        let (records, errors) = (core.records(), core.errors_total());
        eprintln!("pads: profile: {records} record(s), {errors} error(s) in {path}");
        let status = if summary.is_ok() { 0 } else { EXIT_DATA_ERRORS };
        return Ok(ExitCode::from(status));
    }
    if o.format == OutputFormat::Report && o.trace.is_none() && o.metrics.is_none() {
        emit(out, summary.report())?;
    }
    print_observed(out, &core, o)?;
    Ok(data_status(&summary, &budget, path))
}

fn run(args: &[String], out: &mut impl Write) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(
            "usage: pads <check|diff|parse|profile|accum|fmt|xsd|query|gen|cobol|codegen> …"
                .into(),
        );
    };
    let mut o = parse_opts(cmd, rest)?;
    let registry = Registry::standard();
    let options = ParseOptions {
        charset: o.charset,
        discipline: o.discipline,
        policy: o.policy,
        engine: o.engine,
        ..Default::default()
    };
    // Every subcommand takes exactly `n` arguments: one more is refused,
    // not dropped.
    let need = |n: usize| -> Result<(), String> {
        let got = o.positional.len();
        if got < n {
            return Err(format!("`pads {cmd}` needs {n} argument(s)"));
        }
        if got > n {
            let extra: Vec<String> = o.positional[n..].iter().map(|a| format!("`{a}`")).collect();
            return Err(format!(
                "`pads {cmd}` takes {n} argument(s), got {got} ({})",
                extra.join(", ")
            ));
        }
        Ok(())
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
            let (schema, diags) = pads_check::compile_with_lints(&src, &registry)
                .map_err(|e| compile_err(path, &src, &e))?;
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
        "parse" | "profile" => {
            need(2)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            // `pads profile` is a sequential parse with the profiler on
            // whose output is the per-node cost table — or, with
            // `--folded`, folded-stack lines for `inferno`/flamegraph
            // tooling.
            let profiling = cmd == "profile";
            if profiling {
                o.profile = true;
                o.format = OutputFormat::None;
            }
            parse(&schema, &registry, options, &o, profiling, out)
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
            Ok(bad_records_status(acc.bad_records, path))
        }
        "fmt" => {
            need(2)?;
            let schema = load_schema(&o.positional[0], &registry)?;
            let path = &o.positional[1];
            let shape = source_shape(&schema, &o)?;
            let parser = PadsParser::new(&schema, &registry).with_options(options);
            let mask = Mask::all(BaseMask::CheckAndSet);
            let mut fmt = pads_tools::Formatter::new(&[o.delim.as_str()]);
            if let Some(df) = &o.date_fmt {
                fmt = fmt.with_date_format(df);
            }
            let mut sink = pads_tools::FormatSink::new(fmt, &mut *out);
            parser
                .stream_reader(open_source(path)?, &SourceJob::new(shape, &mask), &mut sink)
                .map_err(read_err(path))?;
            let bad_records = sink.bad_records();
            sink.finish().map_err(stdout_err)?;
            Ok(bad_records_status(bad_records, path))
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
