//! The traced run of one workload: the per-layer numbers.
//!
//! ```text
//! traced --workload <name> --seed <n> --seconds <s> --trace 1
//! ```
//!
//! In-process, this binary re-enacts each tier's pipeline by calling the
//! layers' public functions on the workload's corpus, with a span around
//! every call, and then times each layer on its own over the first
//! [`LAYER_RECORDS`] records of that corpus: whole passes over all layers,
//! as many as the end-to-end run times rounds ([`workload::rounds_for`]),
//! each timed metric the median over passes. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` at exit. Allocation counts come
//! from the counting `#[global_allocator]` below and, like every other
//! count here, repeat exactly from run to run.
//!
//! The end-to-end numbers are never taken from this binary: the counting
//! allocator and the spans are the tracing overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pads::generated::{clf, sirius};
use pads::{
    BaseMask, Charset, Cursor, Endian, Engine, ErrorCode, Mask, PadsParser, ParseDesc,
    ParseOptions, RecordBatch, RecordDiscipline, Registry, Schema, Value, Writer,
};
use pads_e2e_bench::args::Args;
use pads_e2e_bench::json;
use pads_e2e_bench::metrics::{measured, PER_LAYER};
use pads_e2e_bench::span::Tracer;
use pads_e2e_bench::stats::median;
use pads_e2e_bench::workload::{
    self, Description, Prepared, Task, Tier, Tools, Workload, ACCUM_CHUNK_ROWS, ACCUM_TOP_K,
    ACCUM_TRACKED,
};
use pads_e2e_bench::{corpus, sys};
use pads_journal::{Checkpoint, Journal};
use pads_runtime::{AVal, ErrorBudget, NameTable, ValueArena};
use pads_tools::{Accumulator, SourceShape};

/// Counts every heap allocation (the growth half of `realloc` included)
/// and forwards to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Records each layer is timed over: the leading records of the
/// workload's corpus, so a pass over every layer stays near a second.
const LAYER_RECORDS: usize = 20_000;

/// Times each tier is re-enacted in-process and run as an untraced child.
const TIER_REPEATS: usize = 3;

/// Checkpoints committed per timed journal pass.
const JOURNAL_COMMITS: u64 = 64;

/// Iterations of the spin loop behind `env.effective_cores`.
const SPIN_ITERS: u64 = 40_000_000;

/// The span around one pass over all layers; the per-layer medians are
/// taken over its children only, never over the tiers' spans.
const PASS: &str = "layers.pass";

/// What the harness needs from a generated module's record type.
trait GenRecord<'d>: Sized {
    fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (Self, ParseDesc);
    fn write_to(&self, out: &mut Vec<u8>) -> Result<(), ErrorCode>;
    fn lower(&self, arena: &mut ValueArena<'d>) -> AVal;
    fn names() -> NameTable;
}

macro_rules! impl_gen_record {
    ($module:ident) => {
        impl<'d> GenRecord<'d> for $module::EntryT<'d> {
            fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (Self, ParseDesc) {
                $module::EntryT::read(cur, mask)
            }
            fn write_to(&self, out: &mut Vec<u8>) -> Result<(), ErrorCode> {
                self.write(out, Charset::Ascii, Endian::Big)
            }
            fn lower(&self, arena: &mut ValueArena<'d>) -> AVal {
                self.to_arena(arena)
            }
            fn names() -> NameTable {
                $module::name_table()
            }
        }
    };
}
impl_gen_record!(sirius);
impl_gen_record!(clf);

fn read_all<'d, R: GenRecord<'d>>(data: &'d [u8], mask: &Mask) -> Vec<(R, ParseDesc)> {
    let mut cur = Cursor::new(data);
    let mut out = Vec::new();
    while !cur.at_eof() {
        out.push(R::read(&mut cur, mask));
    }
    out
}

fn main() -> ExitCode {
    let (args, w) = match Args::from_env().and_then(|a| a.one_workload().map(|w| (a, w))) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("traced: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args, w) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("traced: {}: {msg}", w.name);
            println!("{}", json::result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// Everything the layers are measured on.
struct Inputs {
    workload: &'static Workload,
    description_src: String,
    registry: Registry,
    schema: Schema,
    /// The workload's corpus, as the programs under test read it.
    full: Vec<u8>,
    /// Offset of the first `entry_t` record in `full`.
    body_start: usize,
    /// Leading records of the undamaged and damaged bodies; the
    /// workload's own layer corpus is one of the two.
    layer_clean: Vec<u8>,
    layer_damaged: Vec<u8>,
    /// Sirius order records for the `pads-baseline` row.
    baseline_body: Vec<u8>,
    journal_path: std::path::PathBuf,
}

impl Inputs {
    fn layer(&self) -> &[u8] {
        if self.workload.dirty {
            &self.layer_damaged
        } else {
            &self.layer_clean
        }
    }
}

fn run(args: &Args, w: &'static Workload) -> Result<(), String> {
    let tools = Tools::beside_current_exe()?;
    let mut t = Tracer::new(w.name);

    // Set-up, outside the spans: corpus on disk and verified references.
    let records = args.records_of(w);
    let prepared = workload::prepare(w, args.seed, records, &tools)?;
    let header = w.description.header_records();
    let clean = match w.description {
        Description::Sirius => corpus::sirius(args.seed, records).0,
        Description::Clf => corpus::clf(args.seed, records).0,
    };
    let (damaged, _) = corpus::damage(&clean, header, args.seed);
    let start = if header == 0 { 0 } else { corpus::prefix_records(&clean, header).len() };
    let layer_of = |data: &[u8]| corpus::prefix_records(&data[start..], LAYER_RECORDS).to_vec();
    let layer_clean = layer_of(&clean);
    let layer_damaged = layer_of(&damaged);
    let full = if w.dirty { damaged } else { clean };
    if corpus::hash64(&full) != prepared.corpus_hash {
        return Err("the traced corpus is not the corpus on disk".into());
    }
    let baseline_body = match w.description {
        Description::Sirius => {
            if w.dirty {
                layer_damaged.clone()
            } else {
                layer_clean.clone()
            }
        }
        Description::Clf => {
            let (data, _) = corpus::sirius(args.seed, LAYER_RECORDS);
            data[corpus::prefix_records(&data, 1).len()..].to_vec()
        }
    };
    let description_path = tools.descriptions.join(w.description.file());
    let description_src = std::fs::read_to_string(&description_path)
        .map_err(|e| format!("{}: {e}", description_path.display()))?;
    let registry = Registry::standard();
    let schema = pads::compile(&description_src, &registry).map_err(|e| format!("{e}"))?;
    let inputs = Inputs {
        workload: w,
        description_src,
        registry,
        schema,
        full,
        body_start: start,
        layer_clean,
        layer_damaged,
        baseline_body,
        journal_path: tools.out_dir.join(w.name).join("journal.wal"),
    };

    // Tiers: untraced children for the wall time, then the same pipelines
    // in-process under spans.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut unaccounted = Vec::new();
    for (tier, label) in [(Tier::Vm, "vm"), (Tier::Gen, "gen")] {
        let mut child_wall = Vec::new();
        let mut accounted = Vec::new();
        for _ in 0..TIER_REPEATS {
            let (run, ok) = workload::timed_run(&tools, &prepared, tier)?;
            attempted += 1;
            failed += u64::from(!ok);
            child_wall.push(run.wall_s);

            let root = t.begin(if tier == Tier::Vm { "tier.vm" } else { "tier.gen" });
            let checked = match tier {
                Tier::Vm => reenact_vm(&inputs, &prepared, &tools, &mut t)?,
                _ => match w.description {
                    Description::Sirius => reenact_gen_vet(&prepared, &tools, &mut t)?,
                    Description::Clf => reenact_gen_clf(&inputs, &prepared, &tools, &mut t)?,
                },
            };
            t.end(root);
            if let Some(ok) = checked {
                attempted += 1;
                failed += u64::from(!ok);
            }
            accounted.push(t.children_seconds(root));
        }
        let (child, spans) = (median(&child_wall), median(&accounted));
        let share = 1.0 - spans / child;
        println!(
            "tier {} {label}: child wall {child:.4} s, spans account for {spans:.4} s, unaccounted share {share:.4}",
            w.name
        );
        unaccounted.push(share);
    }

    let passes = workload::rounds_for(args.seconds);
    let mut metrics = match w.description {
        Description::Sirius => layers::<sirius::EntryT<'_>>(&inputs, &mut t, passes)?,
        Description::Clf => layers::<clf::EntryT<'_>>(&inputs, &mut t, passes)?,
    };
    metrics.push(("trace.vm_unaccounted_share", unaccounted[0]));
    metrics.push(("trace.gen_unaccounted_share", unaccounted[1]));

    workload::remove_outputs(&tools, w);
    let trace_path = tools.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, t.to_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    println!("trace {} {} spans written to {}", w.name, t.spans().len(), trace_path.display());

    // Self time of the re-enacted tiers' spans, by tier and call.
    let mut by_name: BTreeMap<(&str, &str), (u64, usize)> = BTreeMap::new();
    for (id, s) in t.spans().iter().enumerate() {
        let tier = match s.parent {
            None if s.name != PASS => s.name,
            Some(p) if t.spans()[p].name != PASS => t.spans()[p].name,
            _ => continue,
        };
        let e = by_name.entry((tier, s.name)).or_default();
        e.0 += t.self_ns(id);
        e.1 += 1;
    }
    for ((tier, name), (ns, n)) in &by_name {
        println!("self {} {tier} {name} {:.3} ms over {n} span(s)", w.name, *ns as f64 / 1e6);
    }

    json::print_result(w.name, failed == 0, attempted, failed, &measured(&PER_LAYER, &metrics));
    Ok(())
}

fn write_out(tools: &Tools, w: &Workload, bytes: &[u8]) -> Result<(), String> {
    let path = tools.out_dir.join(w.name).join("traced.out");
    std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `pads` CLI's vm pipeline, call by call. Returns whether the output
/// matched the reference, where a public function produces that output;
/// for the vet report, whether the error count is the one the CLI printed.
fn reenact_vm(
    inputs: &Inputs,
    p: &Prepared,
    tools: &Tools,
    t: &mut Tracer,
) -> Result<Option<bool>, String> {
    let w = inputs.workload;
    let data =
        t.span("io.read_file", || std::fs::read(&p.corpus_path)).map_err(|e| e.to_string())?;
    let schema = t
        .span("check.compile", || pads::compile(&inputs.description_src, &inputs.registry))
        .map_err(|e| e.to_string())?;
    let options = ParseOptions { engine: Engine::Vm, ..Default::default() };
    let mask = Mask::all(BaseMask::CheckAndSet);
    match w.task {
        Task::Vet | Task::Xml => {
            let parser = PadsParser::new(&schema, &inputs.registry).with_options(options);
            let (value, pd) = t.span("vm.parse_source", || parser.parse_source(&data, &mask));
            let checked = if w.task == Task::Xml {
                let xml = t.span("xml.value_to_xml", || {
                    pads_tools::value_to_xml(&value, Some(&pd), &schema.source_def().name, 0)
                });
                t.span("io.write_out", || write_out(tools, w, xml.as_bytes()))?;
                Some(corpus::hash64(xml.as_bytes()) == p.vm_ref)
            } else {
                // The report's wording is the CLI's own; what it reports is
                // this call, held to the error count the CLI printed.
                let errors = t.span("pd.errors", || pd.errors());
                let report = format!("{} errors, {} listed\n", pd.nerr, errors.len().min(25));
                t.span("io.write_out", || write_out(tools, w, report.as_bytes()))?;
                p.vm_errors.map(|n| n == u64::from(pd.nerr))
            };
            // Tearing the whole-source tree down is left outside the spans.
            drop((value, pd));
            Ok(checked)
        }
        Task::Accum => {
            let shape = SourceShape::records("entry_t");
            let (_, report) = t.span("tools.accumulator_program", || {
                pads_tools::accumulator_program(
                    &schema,
                    &inputs.registry,
                    options,
                    &shape,
                    &data,
                    ACCUM_TRACKED,
                    ACCUM_TOP_K,
                )
            });
            t.span("io.write_out", || write_out(tools, w, report.as_bytes()))?;
            Ok(Some(corpus::hash64(report.as_bytes()) == p.vm_ref))
        }
    }
}

/// `gen_tool sirius-vet` in phases: read every record, then write the
/// clean ones (the tool itself interleaves the two per record).
fn reenact_gen_vet(p: &Prepared, tools: &Tools, t: &mut Tracer) -> Result<Option<bool>, String> {
    let data =
        t.span("io.read_file", || std::fs::read(&p.corpus_path)).map_err(|e| e.to_string())?;
    let mask = Mask::all(BaseMask::CheckAndSet);
    let mut cur = Cursor::new(&data);
    let mut out = Vec::with_capacity(data.len());
    let (header, hpd) = sirius::SummaryHeaderT::read(&mut cur, &mask);
    if hpd.is_ok() {
        header.write(&mut out, Charset::Ascii, Endian::Big).map_err(|c| c.to_string())?;
    }
    let entries = t.span("gen.read", || {
        let mut entries = Vec::new();
        while !cur.at_eof() {
            entries.push(sirius::EntryT::read(&mut cur, &mask));
        }
        entries
    });
    t.span("gen.write", || {
        for (entry, pd) in &entries {
            if pd.is_ok() {
                entry.write(&mut out, Charset::Ascii, Endian::Big)?;
            }
        }
        Ok::<(), ErrorCode>(())
    })
    .map_err(|c| c.to_string())?;
    t.span("io.write_out", || write_out(tools, &p.workload, &out))?;
    Ok(Some(corpus::hash64(&out) == p.gen_ref))
}

/// `gen_tool clf-accum` and `gen_tool clf-xml`, call by call.
fn reenact_gen_clf(
    inputs: &Inputs,
    p: &Prepared,
    tools: &Tools,
    t: &mut Tracer,
) -> Result<Option<bool>, String> {
    let w = inputs.workload;
    let data =
        t.span("io.read_file", || std::fs::read(&p.corpus_path)).map_err(|e| e.to_string())?;
    let mask = Mask::all(BaseMask::CheckAndSet);
    let names = clf::name_table();
    let out = if w.task == Task::Accum {
        let schema = t.span("check.compile", pads::descriptions::clf);
        let mut acc = Accumulator::with_limits(&schema, "entry_t", ACCUM_TRACKED, ACCUM_TOP_K);
        let entries = t.span("gen.read", || read_all::<clf::EntryT<'_>>(&data, &mask));
        let mut arena = ValueArena::new();
        let mut batch = RecordBatch::new();
        for chunk in entries.chunks(ACCUM_CHUNK_ROWS) {
            t.span("gen.to_arena+batch.push_arena", || {
                for (entry, pd) in chunk {
                    arena.reset();
                    let h = entry.to_arena(&mut arena);
                    batch.push_arena(arena.get(h), &names, pd);
                }
            });
            t.span("acc.add_batch", || acc.add_batch(&batch));
            batch.clear();
        }
        t.span("acc.report", || acc.report("<top>")).into_bytes()
    } else {
        let mut cur = Cursor::new(&data);
        let (source, pd) = t.span("gen.parse_source", || clf::parse_source(&mut cur, &mask));
        let mut arena = ValueArena::new();
        let h = t.span("gen.to_arena", || source.to_arena(&mut arena));
        let value = t.span("arena.to_value", || pads::to_value(arena.get(h), &names));
        t.span("xml.value_to_xml", || pads_tools::value_to_xml(&value, Some(&pd), "clt_t", 0))
            .into_bytes()
    };
    t.span("io.write_out", || write_out(tools, w, &out))?;
    Ok(Some(corpus::hash64(&out) == p.gen_ref))
}

/// Seconds of two spinners side by side against one alone: how many
/// cores the box really gives this process.
fn effective_cores() -> f64 {
    fn spin() -> u64 {
        let mut x = 0x9E37_79B9u64;
        for i in 0..SPIN_ITERS {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        x
    }
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        black_box(spin());
        let alone = start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(spin);
            let b = s.spawn(spin);
            black_box((a.join().expect("spinner"), b.join().expect("spinner")));
        });
        ratios.push(2.0 * alone / start.elapsed().as_secs_f64());
    }
    median(&ratios)
}

/// Times every layer on its own and returns the per-layer metrics (all
/// but the two `trace.*` shares).
fn layers<'d, R: GenRecord<'d>>(
    inputs: &'d Inputs,
    t: &mut Tracer,
    passes: usize,
) -> Result<Vec<(&'static str, f64)>, String> {
    let layer = inputs.layer();
    let body = &inputs.full[inputs.body_start..];
    let (schema, registry) = (&inputs.schema, &inputs.registry);
    let check_and_set = Mask::all(BaseMask::CheckAndSet);
    let set = Mask::all(BaseMask::Set);
    let vm_options = ParseOptions { engine: Engine::Vm, ..Default::default() };
    let vm = PadsParser::new(schema, registry).with_options(vm_options);
    let interp = PadsParser::new(schema, registry);
    let vm_observed = PadsParser::new(schema, registry)
        .with_options(vm_options)
        .with_metrics(vm.metrics_core().into_handle());
    let writer = Writer::new(schema, registry);
    let names = R::names();
    let jobs = sys::nproc();

    // Inputs the layers consume, built once outside the spans.
    let values: Vec<(Value, ParseDesc)> = vm.records(layer, "entry_t", &check_and_set).collect();
    let n = values.len();
    let typed: Vec<(R, ParseDesc)> = read_all::<R>(layer, &check_and_set);
    if typed.len() != n {
        return Err(format!("generated module framed {} records, the vm {n}", typed.len()));
    }
    let mut lowered_arena = ValueArena::new();
    let lowered: Vec<AVal> = typed.iter().map(|(r, _)| r.lower(&mut lowered_arena)).collect();
    let (value_batch, _) = vm.records_batched(layer, "entry_t", &check_and_set);
    let program_len = pads::vm::compile(schema, registry, Charset::Ascii).len();
    let shards =
        pads_runtime::par::plan_shards(body, RecordDiscipline::Newline, Charset::Ascii, jobs)
            .shards
            .len();

    let mut arena = ValueArena::new();
    let mut batch = RecordBatch::new();
    let mut out = Vec::with_capacity(layer.len());
    let mut cpu_one = Vec::new();
    let mut cpu_par = Vec::new();
    let mut xml_bytes = 0usize;
    let mut budget = ErrorBudget::new();
    for _ in 0..passes {
        let pass = t.begin(PASS);
        t.span("check.compile", || {
            black_box(pads::compile(&inputs.description_src, registry).is_ok())
        });
        t.span("scan.count_byte", || black_box(pads_runtime::count_byte(&inputs.full, b'\n')));
        t.span("io.framing", || {
            let mut cur = Cursor::new(layer);
            let mut framed = 0usize;
            while !cur.at_eof() && cur.begin_record().is_ok() {
                cur.end_record();
                framed += 1;
            }
            black_box(framed)
        });
        t.span("vm.compile", || {
            black_box(pads::vm::compile(schema, registry, Charset::Ascii).len())
        });
        t.span("vm.parse", || black_box(vm.records(layer, "entry_t", &check_and_set).count()));
        t.span("vm.parse_set", || black_box(vm.records(layer, "entry_t", &set).count()));
        t.span("vm.batched", || {
            black_box(vm.records_batched(layer, "entry_t", &check_and_set).0.len())
        });
        t.span("interp.parse", || {
            black_box(interp.records(layer, "entry_t", &check_and_set).count())
        });
        t.span("obs.vm_parse_with_metrics", || {
            black_box(vm_observed.records(layer, "entry_t", &check_and_set).count())
        });
        t.span("gen.read", || {
            let mut cur = Cursor::new(layer);
            let mut read = 0usize;
            while !cur.at_eof() {
                black_box(R::read(&mut cur, &check_and_set));
                read += 1;
            }
            read
        });
        t.span("gen.write", || {
            out.clear();
            for (r, pd) in &typed {
                if pd.is_ok() {
                    r.write_to(&mut out).expect("a clean record writes");
                }
            }
            black_box(out.len())
        });
        t.span("gen.to_arena", || {
            for (r, _) in &typed {
                arena.reset();
                black_box(r.lower(&mut arena));
            }
        });
        t.span("batch.push_arena", || {
            batch.clear();
            for (h, (_, pd)) in lowered.iter().zip(&typed) {
                batch.push_arena(lowered_arena.get(*h), &names, pd);
            }
            black_box(batch.len())
        });
        t.span("write.write_named", || {
            out.clear();
            for (v, pd) in &values {
                if pd.is_ok() {
                    writer.write_named(&mut out, "entry_t", v).expect("a clean record writes");
                }
            }
            black_box(out.len())
        });
        let mut acc = Accumulator::with_limits(schema, "entry_t", ACCUM_TRACKED, ACCUM_TOP_K);
        t.span("acc.add_batch", || acc.add_batch(&value_batch));
        black_box(t.span("acc.report", || acc.report("<top>")).len());
        let mut acc = Accumulator::with_limits(schema, "entry_t", ACCUM_TRACKED, ACCUM_TOP_K);
        t.span("acc.add", || {
            for (v, pd) in &values {
                acc.add(v, pd);
            }
        });
        black_box(acc.records);
        xml_bytes = t.span("xml.value_to_xml", || {
            values
                .iter()
                .map(|(v, pd)| pads_tools::value_to_xml(v, Some(pd), "entry_t", 2).len())
                .sum()
        });
        t.span("par.plan_shards", || {
            black_box(
                pads_runtime::par::plan_shards(
                    body,
                    RecordDiscipline::Newline,
                    Charset::Ascii,
                    jobs,
                )
                .shards
                .len(),
            )
        });
        for (label, jobs, cpu) in
            [("par.batched_jobs1", 1, &mut cpu_one), ("par.batched_nproc", jobs, &mut cpu_par)]
        {
            let before = sys::process_cpu_s();
            t.span(label, || {
                black_box(vm.records_par_batched(layer, "entry_t", &check_and_set, jobs).0.len())
            });
            cpu.push(sys::process_cpu_s() - before);
        }
        t.span("recovery.vm_parse_clean", || {
            black_box(vm.records(&inputs.layer_clean, "entry_t", &check_and_set).count())
        });
        budget = t.span("recovery.vm_parse_damaged", || {
            let mut records = vm.records(&inputs.layer_damaged, "entry_t", &check_and_set);
            black_box(records.by_ref().count());
            records.budget()
        });
        t.span("journal.commits", || {
            let mut journal = Journal::create(&inputs.journal_path)?;
            for i in 1..=JOURNAL_COMMITS {
                journal.commit(Checkpoint {
                    source_id: 1,
                    offset: i * 128,
                    record: i,
                    budget: ErrorBudget::new(),
                    metrics: Vec::new(),
                })?;
            }
            Ok::<(), pads_journal::JournalError>(())
        })
        .map_err(|e| e.to_string())?;
        t.span("baseline.vet", || {
            out.clear();
            black_box(pads_baseline::vet(&inputs.baseline_body, &mut out).clean)
        });
        t.end(pass);
    }

    // Counts, taken once the passes above have grown every reusable buffer.
    let (vm_allocs, _) = allocs_during(|| vm.records(layer, "entry_t", &check_and_set).count());
    let (interp_allocs, _) =
        allocs_during(|| interp.records(layer, "entry_t", &check_and_set).count());
    let (gen_allocs, _) = allocs_during(|| {
        let mut cur = Cursor::new(layer);
        while !cur.at_eof() {
            black_box(R::read(&mut cur, &check_and_set));
        }
    });
    let cores = effective_cores();

    let secs = |name: &str| median(&t.seconds_of(PASS, name));
    let ns_per_record = |name: &str| secs(name) * 1e9 / n as f64;
    let lines = |data: &[u8]| pads_runtime::count_byte(data, b'\n').max(1) as f64;
    println!(
        "layers {} passes {passes} records {n} nproc {jobs} effective_cores {cores:.3} bytes {}",
        inputs.workload.name,
        layer.len()
    );
    Ok(vec![
        ("check.compile_us", secs("check.compile") * 1e6),
        ("scan.count_byte_mb_per_s", inputs.full.len() as f64 / 1e6 / secs("scan.count_byte")),
        ("io.framing_ns_per_record", ns_per_record("io.framing")),
        ("vm.compile_us", secs("vm.compile") * 1e6),
        ("vm.program_len", program_len as f64),
        ("vm.parse_ns_per_record", ns_per_record("vm.parse")),
        ("vm.parse_set_ns_per_record", ns_per_record("vm.parse_set")),
        ("vm.batched_ns_per_record", ns_per_record("vm.batched")),
        ("vm.allocs_per_record", vm_allocs as f64 / n as f64),
        ("interp.parse_ns_per_record", ns_per_record("interp.parse")),
        ("interp.allocs_per_record", interp_allocs as f64 / n as f64),
        ("gen.read_ns_per_record", ns_per_record("gen.read")),
        ("gen.write_ns_per_record", ns_per_record("gen.write")),
        ("gen.to_arena_ns_per_record", ns_per_record("gen.to_arena")),
        ("gen.allocs_per_record", gen_allocs as f64 / n as f64),
        ("batch.push_ns_per_record", ns_per_record("batch.push_arena")),
        ("batch.error_rows", batch.error_rows() as f64),
        ("write.ns_per_record", ns_per_record("write.write_named")),
        ("acc.add_batch_ns_per_record", ns_per_record("acc.add_batch")),
        ("acc.add_ns_per_record", ns_per_record("acc.add")),
        ("acc.report_us", secs("acc.report") * 1e6),
        ("xml.ns_per_record", ns_per_record("xml.value_to_xml")),
        ("xml.out_bytes_per_in_byte", xml_bytes as f64 / layer.len() as f64),
        ("par.plan_shards_us", secs("par.plan_shards") * 1e6),
        ("par.shards", shards as f64),
        ("par.batched_cpu_ratio", median(&cpu_par) / median(&cpu_one)),
        ("par.wall_speedup", secs("par.batched_jobs1") / secs("par.batched_nproc")),
        ("env.effective_cores", cores),
        ("obs.metrics_ratio", secs("obs.vm_parse_with_metrics") / secs("vm.parse")),
        ("recovery.bad_records", budget.bad_records as f64),
        ("recovery.errors", budget.errs as f64),
        ("recovery.panic_skipped_bytes", budget.panic_skipped as f64),
        (
            "recovery.clean_ns_per_record",
            secs("recovery.vm_parse_clean") * 1e9 / lines(&inputs.layer_clean),
        ),
        (
            "recovery.damaged_ns_per_record",
            secs("recovery.vm_parse_damaged") * 1e9 / lines(&inputs.layer_damaged),
        ),
        ("journal.commit_us", secs("journal.commits") * 1e6 / JOURNAL_COMMITS as f64),
        ("baseline.vet_ns_per_record", secs("baseline.vet") * 1e9 / lines(&inputs.baseline_body)),
    ])
}
