//! The interpreting parser: executes a checked [`Schema`] over bytes.
//!
//! This component plays the role of the paper's *generated* parsing
//! functions (§4): for every type there is an entry point, the result is
//! always a `(representation, parse descriptor)` pair, masks select which
//! constraints run, and errors never abort — syntax errors put the parser
//! into panic mode, which resynchronises at the record boundary.
//!
//! Entry points mirror the paper's multiple-granularity design:
//!
//! * [`PadsParser::parse_source`] — the whole source in one call;
//! * [`PadsParser::records`] — record-at-a-time iteration for sources too
//!   large to hold in memory;
//! * [`PadsParser::parse_named`] — any declared type at the cursor.

use pads_check::ir::{Schema, TypeDef, TypeId, TypeKind, TyUse};
use pads_runtime::io::{new_regex_cache, RegexCache};
use pads_runtime::pd::PdKind;
use pads_runtime::{
    Charset, Cursor, Endian, ErrorBudget, ErrorCode, Loc, Mask, MetricsCore,
    MetricsHandle, Name, ParseDesc, ParseState, Pos, Prim, RecordDiscipline,
    RecordReader, RecoveryPolicy, Registry, ResumePoint,
};
use pads_syntax::ast::{CaseLabel, Expr, Literal};

use crate::eval::{self, Env};
use crate::value::Value;

/// Cursor configuration for a parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParseOptions {
    /// Ambient charset.
    pub charset: Charset,
    /// Ambient byte order for binary base types.
    pub endian: Endian,
    /// Record discipline.
    pub discipline: RecordDiscipline,
    /// Error budget and degradation mode (the paper's `Pmax_errs` /
    /// `Perror_rep` knobs). The default is unlimited: every error is
    /// recorded in full detail and parsing never stops early.
    pub policy: RecoveryPolicy,
    /// Which execution engine runs the schema (see [`Engine`]).
    pub engine: Engine,
}

/// How a [`PadsParser`] executes its schema.
///
/// Both engines are proven byte-identical (values, descriptors, budgets,
/// observation events) by the contract matrix; the choice is purely a
/// speed/startup trade-off. See `docs/VM.md` for the selection contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Walk the checked IR directly — no warm-up cost. The default of
    /// `ParseOptions`; the `pads` CLI defaults to [`Engine::Vm`] instead.
    #[default]
    Interp,
    /// Compile the schema to a [`crate::vm::VmProgram`] on first use, kept
    /// by the parser, and run the bytecode tier.
    Vm,
}

/// An interpreting parser for one schema.
///
/// # Examples
///
/// ```
/// use pads::{PadsParser, Value};
/// use pads_runtime::{BaseMask, Mask, Registry};
///
/// let registry = Registry::standard();
/// let schema = pads_check::compile(
///     "Precord Pstruct line_t { Puint32 n; ','; Pstring(:',':) tag; };",
///     &registry,
/// ).unwrap();
/// let parser = PadsParser::new(&schema, &registry);
/// let (value, pd) = parser.parse_source(b"17,west\n", &Mask::all(BaseMask::CheckAndSet));
/// assert!(pd.is_ok());
/// assert_eq!(value.at_path("n").and_then(Value::as_u64), Some(17));
/// ```
pub struct PadsParser<'s> {
    schema: &'s Schema,
    registry: &'s Registry,
    options: ParseOptions,
    metrics: Option<MetricsHandle>,
    /// One compiled-regex cache per parser: every cursor the parser builds
    /// shares it, so each `Pre` pattern in the schema compiles once — not
    /// once per record as the streaming front-end used to.
    regexes: RegexCache,
    /// Per-`TypeId` interned structure names (field/branch/variant/param),
    /// by declaration index. Carrying a name into a value or descriptor is
    /// a pointer copy, never a per-record `String` allocation or interner
    /// lookup — the same dense-id interning the metrics `ObsSchema` uses.
    names: Vec<TypeNames>,
    /// The lazily compiled VM program (only populated when
    /// [`ParseOptions::engine`] is [`Engine::Vm`]).
    vm: std::cell::OnceCell<crate::vm::VmProgram>,
}

/// Interned names for one type definition (see [`PadsParser::names`]);
/// the verifier and the writer keep the same table.
pub(crate) struct TypeNames {
    /// Struct members, union branches, or enum variants by declaration
    /// index; literal struct members hold the empty name. A typedef's
    /// predicate variable, when it has one.
    pub(crate) items: Vec<Name>,
    /// Value-parameter names.
    pub(crate) params: Vec<Name>,
}

/// Every name of `schema`, interned: called when a parser, verifier or
/// writer is built, so no record pays for an interner lookup.
pub(crate) fn intern_names(schema: &Schema) -> Vec<TypeNames> {
    use pads_check::ir::MemberIr;
    schema
        .types
        .iter()
        .map(|def| {
            let items = match &def.kind {
                TypeKind::Struct { members } => members
                    .iter()
                    .map(|m| match m {
                        MemberIr::Field(f) => Name::intern(&f.name),
                        MemberIr::Lit(_) => Name::EMPTY,
                    })
                    .collect(),
                TypeKind::Union { branches, .. } => {
                    branches.iter().map(|b| Name::intern(&b.field.name)).collect()
                }
                TypeKind::Enum { variants } => {
                    variants.iter().map(|v| Name::intern(v)).collect()
                }
                TypeKind::Typedef { var, .. } => var.iter().map(|v| Name::intern(v)).collect(),
                TypeKind::Array { .. } => Vec::new(),
            };
            let params = def.params.iter().map(|p| Name::intern(&p.name)).collect();
            TypeNames { items, params }
        })
        .collect()
}

impl<'s> PadsParser<'s> {
    /// Creates a parser with default options (ASCII, big-endian, newline
    /// records).
    pub fn new(schema: &'s Schema, registry: &'s Registry) -> PadsParser<'s> {
        PadsParser {
            schema,
            registry,
            options: ParseOptions::default(),
            metrics: None,
            regexes: new_regex_cache(),
            names: intern_names(schema),
            vm: Default::default(),
        }
    }

    /// Sets cursor options (builder style).
    pub fn with_options(mut self, options: ParseOptions) -> PadsParser<'s> {
        self.options = options;
        self
    }

    /// Attaches a dense-id metrics core; every cursor the parser builds
    /// (including the per-record cursors of the streaming front-end)
    /// carries it, and a sharded [`stream_source`](Self::stream_source) run
    /// folds its workers' counters into it, so it hears every run. The
    /// engines' type ids *are* the core's node ids: build the core over
    /// this schema's type names ([`PadsParser::metrics_core`]) — a core
    /// over any other table drops the type events it cannot attribute.
    pub fn with_metrics(mut self, core: MetricsHandle) -> PadsParser<'s> {
        self.metrics = Some(core);
        self
    }

    /// A [`MetricsCore`] whose dense node-id table is this schema's type
    /// list, in `TypeId` order — the core to attach via
    /// [`with_metrics`](PadsParser::with_metrics), optionally with its
    /// profiler or trace switched on first.
    pub fn metrics_core(&self) -> MetricsCore {
        MetricsCore::with_names(self.schema.types.iter().map(|d| d.name.as_str()))
    }

    /// The schema this parser interprets.
    pub fn schema(&self) -> &'s Schema {
        self.schema
    }

    /// The parse options in effect.
    pub fn options(&self) -> ParseOptions {
        self.options
    }

    /// The base-type registry this parser resolves against.
    pub(crate) fn registry(&self) -> &'s Registry {
        self.registry
    }

    /// The attached metrics core, if any.
    pub(crate) fn metrics(&self) -> Option<&MetricsHandle> {
        self.metrics.as_ref()
    }

    fn cursor<'d>(&self, data: &'d [u8]) -> Cursor<'d> {
        let cur = Cursor::new(data)
            .with_charset(self.options.charset)
            .with_endian(self.options.endian)
            .with_discipline(self.options.discipline)
            .with_policy(self.options.policy)
            .with_regex_cache(self.regexes.clone());
        match &self.metrics {
            Some(core) => cur.with_metrics(core.clone()),
            None => cur,
        }
    }

    /// Parses the source type against the entire input.
    ///
    /// Never fails: all problems are recorded in the returned
    /// [`ParseDesc`]. Unconsumed input is flagged as
    /// [`ErrorCode::ExtraDataAtEof`].
    pub fn parse_source(&self, data: &[u8], mask: &Mask) -> (Value, ParseDesc) {
        let mut cur = self.cursor(data);
        let (value, mut pd) = self.parse_def(&mut cur, self.schema.source(), &[], mask);
        if cur.stopped() {
            let loc = Loc::at(cur.position());
            pd.add_root_error(ErrorCode::BudgetExhausted, loc);
            cur.observe_error(ErrorCode::BudgetExhausted, loc);
        } else if !cur.at_eof() {
            let loc = Loc::at(cur.position());
            pd.add_error(ErrorCode::ExtraDataAtEof, loc);
            cur.observe_error(ErrorCode::ExtraDataAtEof, loc);
        }
        (value, pd)
    }

    /// Parses the named type at the cursor position.
    ///
    /// When `name` is not declared in the schema (an API-misuse, not a data
    /// error) the result is a default value with a single
    /// [`ErrorCode::InternalError`] descriptor — never a panic. Use
    /// [`Schema::type_id`] to probe first.
    pub fn parse_named(
        &self,
        cur: &mut Cursor<'_>,
        name: &str,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let Some(id) = self.schema.type_id(name) else {
            return (
                Value::Prim(Prim::Unit),
                ParseDesc::error(ErrorCode::InternalError, Loc::at(cur.position())),
            );
        };
        self.parse_def(cur, id, args, mask)
    }

    /// Record-at-a-time iteration over `data` with the named record type —
    /// the multiple-entry-point pattern for very large sources.
    ///
    /// When `name` is not declared in the schema, the iterator yields one
    /// [`ErrorCode::InternalError`] item and ends — never a panic.
    pub fn records<'p, 'd>(
        &'p self,
        data: &'d [u8],
        name: &str,
        mask: &'p Mask,
    ) -> Records<'p, 's, 'd> {
        self.records_in(data, (0, usize::MAX), name, mask, ResumePoint::default())
    }

    /// [`records`](Self::records) over a window of the source, continuing
    /// from a committed [`ResumePoint`]: `data[0]` is the source's byte
    /// `base`, the cursor starts at `resume.offset` (a record boundary) with
    /// record indices from `resume.record` and the budget `resume.budget`,
    /// every position reported is a whole-source one, and the iteration
    /// ends at byte `until` — a record boundary — short of the window's
    /// end, so that a record's own end-of-source test sees the bytes that
    /// follow. Resuming a source is [`SourceJob::start`](crate::SourceJob)
    /// on the driver, which opens its records here.
    pub(crate) fn records_in<'p, 'd>(
        &'p self,
        data: &'d [u8],
        (base, until): (usize, usize),
        name: &str,
        mask: &'p Mask,
        resume: ResumePoint,
    ) -> Records<'p, 's, 'd> {
        Records::open(ParserRef::Borrowed(self), data, (base, until), name, mask, resume)
    }

    /// [`records_in`](Self::records_in) for a parser the iterator owns:
    /// what a shard worker opens over its own thread-local parser.
    pub(crate) fn into_records<'p, 'd>(
        self,
        data: &'d [u8],
        (base, until): (usize, usize),
        name: &str,
        mask: &'p Mask,
        resume: ResumePoint,
    ) -> Records<'p, 's, 'd> {
        Records::open(ParserRef::Owned(Box::new(self)), data, (base, until), name, mask, resume)
    }

    /// Drains [`PadsParser::records`] into a columnar
    /// [`RecordBatch`](crate::batch::RecordBatch), returning the batch and
    /// the final error-budget tally. Row `i` of the batch reconstructs the
    /// exact `(Value, ParseDesc)` the iterator would have yielded.
    pub fn records_batched(
        &self,
        data: &[u8],
        name: &str,
        mask: &Mask,
    ) -> (crate::batch::RecordBatch, pads_runtime::ErrorBudget) {
        let mut batch = crate::batch::RecordBatch::new();
        let mut it = self.records(data, name, mask);
        for (value, pd) in it.by_ref() {
            batch.push(&value, &pd);
        }
        (batch, it.budget())
    }

    /// A cursor over `data` configured with this parser's options, for
    /// callers sequencing their own entry-point calls.
    pub fn open<'d>(&self, data: &'d [u8]) -> Cursor<'d> {
        self.cursor(data)
    }

    // ---- internals -------------------------------------------------------

    /// Parses the definition `id`, bracketing the work with type-enter /
    /// type-exit events. The observation test is a single discriminant
    /// check, so the unobserved path pays nothing.
    fn parse_def(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        if self.options.engine == Engine::Vm {
            let charset = cur.charset();
            let prog = self.vm.get_or_init(|| crate::vm::compile(self.schema, self.registry, charset));
            return crate::vm::exec(self.schema, prog, cur, id, args, mask);
        }
        if !cur.observing() {
            return self.parse_def_inner(cur, id, args, mask);
        }
        // TypeId doubles as the dense metrics node id (the core attached
        // by `with_metrics` is built over the same type list).
        let start = cur.offset();
        cur.observe_enter_id(id as u32);
        let (value, pd) = self.parse_def_inner(cur, id, args, mask);
        cur.observe_exit_id(id as u32, start, &pd);
        (value, pd)
    }

    fn parse_def_inner(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let def = self.schema.def(id);

        // Error budget exhausted in skip mode: frame the record and skip it
        // wholesale instead of parsing it (graceful degradation, mirroring
        // the C runtime's `Pmax_errs` behaviour).
        if def.is_record && !cur.in_record() && cur.skip_records() && !cur.at_eof() {
            // The record-relative byte of a record's own start is 0; the
            // cursor's tracking still points at the previous record here
            // (and a resumed cursor has no previous record at all).
            let start = Pos { byte: 0, ..cur.position() };
            // A record whose framing fails (a fixed-width tail cut short, a
            // length header that overruns) is the rest of the source: skipped
            // and closed like any other, not left open for the next to nest in.
            let _ = cur.begin_record();
            let _ = cur.end_record();
            let mut pd =
                ParseDesc::error(ErrorCode::BudgetExhausted, Loc::new(start, cur.position()));
            pd.state = ParseState::Panic;
            cur.note_skipped_record();
            cur.observe_record_close(&pd);
            return (self.default_def(id), pd);
        }

        let params: Vec<(Name, Value)> = self.names[id]
            .params
            .iter()
            .zip(args)
            .map(|(n, a)| (*n, Value::Prim(a.clone())))
            .collect();

        // Record framing.
        let opened = def.is_record && !cur.in_record();
        let mut record_err = None;
        if opened {
            if let Err(code) = cur.begin_record() {
                if code == ErrorCode::UnexpectedEof {
                    let mut pd = ParseDesc::error(code, Loc::at(cur.position()));
                    pd.state = ParseState::Partial;
                    return (self.default_def(id), pd);
                }
                record_err = Some((code, Loc::at(cur.position())));
            }
        }

        let (value, mut pd) = self.parse_kind(cur, id, def, &params, mask);

        if let Some((code, loc)) = record_err {
            pd.add_error(code, loc);
        }

        if opened {
            let mut panic_skipped = 0u64;
            if pd.has_syntax_error() {
                // Panic mode: skip to the record boundary and resume there.
                // The skipped span is recorded so descriptors account for
                // every byte of the record (consumed + skipped = length).
                let at = cur.position();
                let close = cur.end_record();
                if close.skipped > 0 {
                    pd.note_panic_skip(Loc::new(
                        at,
                        Pos {
                            offset: at.offset + close.skipped,
                            record: at.record,
                            byte: at.byte + close.skipped,
                        },
                    ));
                    panic_skipped = close.skipped as u64;
                }
            } else {
                if !cur.at_eor() {
                    pd.add_error(ErrorCode::ExtraDataBeforeEor, Loc::at(cur.position()));
                }
                let close = cur.end_record();
                panic_skipped = close.skipped as u64;
            }
            // Per-record error cap: keep the aggregate counts truthful but
            // drop the per-node detail once a record exceeds the cap.
            if let Some(cap) = cur.policy().max_record_errs {
                if pd.nerr > cap {
                    pd.truncate_detail();
                }
            }
            cur.note_record_errors(pd.nerr, panic_skipped);
            if cur.best_effort() {
                pd.truncate_detail();
            }
            cur.observe_record_close(&pd);
        }
        (value, pd)
    }

    fn parse_kind(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        def: &'s TypeDef,
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        match &def.kind {
            TypeKind::Struct { members } => self.parse_struct(cur, id, def, members, params, mask),
            TypeKind::Union { switch, branches } => {
                self.parse_union(cur, id, def, switch, branches, params, mask)
            }
            TypeKind::Array { elem, sep, term, ended, size } => {
                self.parse_array(cur, def, elem, sep, term, ended, size, params, mask)
            }
            TypeKind::Enum { variants } => self.parse_enum(cur, id, variants),
            TypeKind::Typedef { base, pred, .. } => {
                let var = self.names[id].items.first().copied();
                self.parse_typedef(cur, base, var, pred, params, mask)
            }
        }
    }

    fn env<'e>(&'e self, params: &'e [(Name, Value)], fields: &'e [(Name, Value)]) -> Env<'e>
    where
        's: 'e,
    {
        Env::bound(self.schema, params, fields)
    }

    fn eval_args(
        &self,
        args: &'s [Expr],
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
    ) -> Result<Vec<Prim>, ErrorCode> {
        // Fast path: literal arguments (`Pstring(:'|':)`, `Puint16_FW(:3:)`)
        // need no environment — the overwhelmingly common case.
        if let Some(prims) = args.iter().map(eval::literal).collect::<Option<Vec<_>>>() {
            return Ok(prims);
        }
        let mut env = self.env(params, fields);
        args.iter().map(|a| eval::eval_prim(a, &mut env)).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn parse_struct(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        def: &'s TypeDef,
        members: &'s [pads_check::ir::MemberIr],
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        use pads_check::ir::MemberIr;
        let names = &self.names[id].items;
        let mut fields: Vec<(Name, Value)> = Vec::new();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut pd = ParseDesc::ok();
        let mut aborted = false;
        let mut member_iter = members.iter().enumerate();
        for (mi, m) in member_iter.by_ref() {
            match m {
                MemberIr::Lit(lit) => {
                    if let Err((code, loc)) = self.match_literal(cur, lit) {
                        pd.add_error(code, loc);
                        pd.state = ParseState::Partial;
                        aborted = true;
                        break;
                    }
                }
                MemberIr::Field(f) => {
                    let child_mask = mask.child(&f.name);
                    let start = cur.position();
                    let (value, mut child_pd) =
                        self.parse_field_ty(cur, &f.ty, params, &fields, &child_mask);
                    let syntax_fail = child_pd.has_syntax_error();
                    fields.push((names[mi], value));
                    // Constraint, with the field itself in scope. The error
                    // lands on the *field* descriptor and is aggregated into
                    // the struct by `absorb` (never double-reported).
                    if !syntax_fail && child_mask.base().checks() {
                        if let Some(c) = &f.constraint {
                            let mut env = self.env(params, &fields);
                            let verdict = eval::eval_bool(c, &mut env);
                            let loc = Loc::new(start, cur.position());
                            child_pd.add_verdict(verdict, ErrorCode::ConstraintViolation, loc);
                        }
                    }
                    pd.absorb(&child_pd);
                    // Struct descriptors are sparse: only fields that
                    // contain errors get a child entry (clean fields are
                    // implicitly ok). This keeps the per-record descriptor
                    // cost proportional to the number of problems.
                    if !child_pd.is_ok() {
                        pds.push((names[mi], child_pd));
                    }
                    if syntax_fail {
                        pd.state = ParseState::Partial;
                        aborted = true;
                        break;
                    }
                }
            }
        }
        if aborted {
            // Fill the remaining fields with defaults so the representation
            // has the declared shape (the paper's "Partial" state).
            for (mi, m) in member_iter {
                if let MemberIr::Field(f) = m {
                    fields.push((names[mi], self.default_tyuse(&f.ty)));
                }
            }
        }
        // Pwhere clause at struct level.
        if !aborted && mask.compound().checks() {
            if let Some(w) = &def.where_clause {
                let mut env = self.env(params, &fields);
                let verdict = eval::eval_bool(w, &mut env);
                pd.add_verdict(verdict, ErrorCode::WhereViolation, Loc::at(cur.position()));
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (Value::Struct { fields }, pd)
    }

    /// Parses a field's type, evaluating its argument expressions in the
    /// current scope first.
    fn parse_field_ty(
        &self,
        cur: &mut Cursor<'_>,
        ty: &'s TyUse,
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        match ty {
            TyUse::Opt(inner) => {
                let cp = cur.checkpoint();
                let (value, pd) = self.parse_field_ty(cur, inner, params, fields, mask);
                if pd.is_ok() {
                    let mut opd = ParseDesc::ok();
                    opd.kind = PdKind::opt(pd);
                    (Value::Opt(Some(Box::new(value))), opd)
                } else {
                    cur.restore(cp);
                    let mut opd = ParseDesc::ok();
                    opd.kind = PdKind::Opt { inner: None };
                    (Value::Opt(None), opd)
                }
            }
            TyUse::Base { name, args } => {
                let prims = match self.eval_args(args, params, fields) {
                    Ok(p) => p,
                    Err(code) => {
                        return (
                            self.default_tyuse(ty),
                            ParseDesc::error(code, Loc::at(cur.position())),
                        )
                    }
                };
                self.parse_base(cur, name, &prims, mask)
            }
            TyUse::Named { id, args } => {
                let prims = match self.eval_args(args, params, fields) {
                    Ok(p) => p,
                    Err(code) => {
                        return (
                            self.default_tyuse(ty),
                            ParseDesc::error(code, Loc::at(cur.position())),
                        )
                    }
                };
                self.parse_def(cur, *id, &prims, mask)
            }
        }
    }

    fn parse_base(
        &self,
        cur: &mut Cursor<'_>,
        name: &str,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        // A checked schema only references known base types; a miss here is
        // an interpreter invariant violation — recorded, never a crash.
        let Some(bt) = self.registry.get(name) else {
            return (
                Value::Prim(Prim::Unit),
                ParseDesc::error(ErrorCode::InternalError, Loc::at(cur.position())),
            );
        };
        let start = cur.position();
        let cp = cur.checkpoint();
        match bt.parse(cur, args) {
            Ok(prim) => {
                // Constraints read the value, so `Check` keeps it too: only
                // `Ignore` leaves the default in its place.
                let base = mask.base();
                let value = if base.sets() || base.checks() {
                    Value::Prim(prim)
                } else {
                    Value::Prim(bt.default_value(args))
                };
                (value, ParseDesc::ok())
            }
            Err(code) => {
                cur.restore(cp);
                let loc = Loc::new(start, cur.position());
                (Value::Prim(bt.default_value(args)), ParseDesc::error(code, loc))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn parse_union(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        def: &'s TypeDef,
        switch: &'s Option<Expr>,
        branches: &'s [pads_check::ir::BranchIr],
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let start = cur.position();
        if let Some(sel) = switch {
            return self.parse_switched(cur, id, sel, branches, params, mask);
        }
        let names = &self.names[id].items;
        // Ordered union: the first branch that parses without error wins.
        // Branch constraints take part in selection regardless of mask (they
        // are what distinguishes the alternatives), matching §3's
        // `auth_id_t` example.
        for (index, b) in branches.iter().enumerate() {
            let cp = cur.checkpoint();
            let branch_mask = mask.child(&b.field.name);
            let (value, bpd) =
                self.parse_field_ty(cur, &b.field.ty, params, &[], &branch_mask);
            if bpd.is_ok() {
                if let Some(c) = &b.field.constraint {
                    let bound = [(names[index], value.clone())];
                    let mut env = self.env(params, &bound);
                    if eval::eval_bool(c, &mut env) != Ok(true) {
                        cur.restore(cp);
                        continue;
                    }
                }
                let mut pd = ParseDesc::ok();
                pd.kind = PdKind::union(names[index], bpd);
                return (
                    Value::Union { branch: names[index], index, value: Box::new(value) },
                    pd,
                );
            }
            cur.restore(cp);
        }
        let _ = def;
        let mut pd = ParseDesc::error(ErrorCode::UnionNoBranch, Loc::at(start));
        pd.state = ParseState::Partial;
        let Some(first) = branches.first() else {
            // A checked schema never produces an empty union.
            pd.err_code = ErrorCode::InternalError;
            return (Value::Prim(Prim::Unit), pd);
        };
        pd.kind = PdKind::union_ok(names[0]);
        (
            Value::Union {
                branch: names[0],
                index: 0,
                value: Box::new(self.default_tyuse(&first.field.ty)),
            },
            pd,
        )
    }

    fn parse_switched(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        sel: &'s Expr,
        branches: &'s [pads_check::ir::BranchIr],
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let start = cur.position();
        let names = &self.names[id].items;
        let Some(front) = branches.first() else {
            // A checked schema never produces an empty union.
            let mut pd = ParseDesc::error(ErrorCode::InternalError, Loc::at(start));
            pd.state = ParseState::Partial;
            return (Value::Prim(Prim::Unit), pd);
        };
        // A selector that fails to evaluate, or picks no case, reads no
        // branch: the union holds the first branch's default.
        let unread = |code| {
            let mut pd = ParseDesc::error(code, Loc::at(start));
            pd.state = ParseState::Partial;
            pd.kind = PdKind::union_ok(names[0]);
            let value = Box::new(self.default_tyuse(&front.field.ty));
            (Value::Union { branch: names[0], index: 0, value }, pd)
        };
        let sel_val = match eval::eval(sel, &mut self.env(params, &[])) {
            Ok(v) => v.into_value(),
            Err(code) => return unread(code),
        };
        let mut chosen = None;
        let mut default = None;
        for (index, b) in branches.iter().enumerate() {
            match &b.case {
                Some(CaseLabel::Expr(e)) => {
                    let mut env = self.env(params, &[]);
                    let case = eval::eval(e, &mut env);
                    if case.is_ok_and(|case| eval::case_eq(&sel_val, case.value())) {
                        chosen = Some((index, b));
                        break;
                    }
                }
                Some(CaseLabel::Default) => default = Some((index, b)),
                None => {}
            }
        }
        let Some((index, b)) = chosen.or(default) else {
            return unread(ErrorCode::SwitchNoMatch);
        };
        let child_mask = mask.child(&b.field.name);
        let (value, bpd) = self.parse_field_ty(cur, &b.field.ty, params, &[], &child_mask);
        let mut pd = ParseDesc::ok();
        pd.absorb(&bpd);
        // Branch constraint (always evaluated, as for ordered unions).
        if let Some(c) = &b.field.constraint {
            let bound = [(names[index], value.clone())];
            let mut env = self.env(params, &bound);
            let verdict = eval::eval_bool(c, &mut env);
            pd.add_verdict(verdict, ErrorCode::ConstraintViolation, Loc::at(cur.position()));
        }
        pd.kind = PdKind::union(names[index], bpd);
        (Value::Union { branch: names[index], index, value: Box::new(value) }, pd)
    }

    #[allow(clippy::too_many_arguments)]
    fn parse_array(
        &self,
        cur: &mut Cursor<'_>,
        def: &'s TypeDef,
        elem: &'s TyUse,
        sep: &'s Option<Literal>,
        term: &'s Option<Literal>,
        ended: &'s Option<Expr>,
        size: &'s Option<Expr>,
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let mut elts: Vec<Value> = Vec::new();
        let mut elt_pds = pads_runtime::SparseElts::new();
        let mut pd = ParseDesc::ok();
        let mut neerr: u32 = 0;
        let mut first_error: Option<usize> = None;
        let elem_mask = mask.child(pads_runtime::mask::ELT);
        // Record elements perform their own panic recovery (skip
        // to the record boundary), so the array can continue past them; a
        // syntax error in a non-record element leaves the cursor
        // unsynchronised and stops the array.
        let elem_recovers =
            matches!(elem, TyUse::Named { id, .. } if self.schema.def(*id).is_record);

        let want_size = match size {
            Some(e) => {
                let mut env = self.env(params, &[]);
                match eval::eval_prim(e, &mut env).map(|p| p.as_u64()) {
                    Ok(Some(n)) => Some(n as usize),
                    _ => {
                        pd.add_error(ErrorCode::EvalError, Loc::at(cur.position()));
                        Some(0)
                    }
                }
            }
            None => None,
        };

        loop {
            // Completion checks before each element.
            if let Some(n) = want_size {
                if elts.len() >= n {
                    break;
                }
            }
            if want_size.is_none() && self.term_matches(cur, term) {
                self.consume_term(cur, term);
                break;
            }
            if want_size.is_none() && term.is_none() && self.at_natural_end(cur) {
                break;
            }
            // Separator between elements.
            if !elts.is_empty() {
                if let Some(s) = sep {
                    let cp = cur.checkpoint();
                    if let Err((_, loc)) = self.match_literal(cur, s) {
                        cur.restore(cp);
                        // Classified as the array-specific code (not the raw
                        // literal code) to match the generated parsers.
                        pd.add_error(ErrorCode::ArraySepMismatch, loc);
                        pd.state = ParseState::Partial;
                        break;
                    }
                    // A separator directly followed by the terminator means
                    // the separator actually belonged to the terminator
                    // context; treat as end (defensive for `sep == term`
                    // prefixes).
                }
            }
            let before = cur.bit_offset();
            let (value, elt_pd) = self.parse_field_ty(cur, elem, params, &[], &elem_mask);
            let bad = !elt_pd.is_ok();
            let syntax_fail = elt_pd.has_syntax_error();
            if bad {
                neerr += 1;
                if first_error.is_none() {
                    first_error = Some(elts.len());
                }
            }
            pd.absorb(&elt_pd);
            elts.push(value);
            elt_pds.push(elt_pd);
            if syntax_fail && !elem_recovers {
                pd.state = ParseState::Partial;
                break;
            }
            if cur.bit_offset() == before && want_size.is_none() {
                // Zero-width element with no size bound: stop rather than
                // loop forever (e.g. `Pvoid[]`).
                pd.add_error(ErrorCode::ArrayTermMismatch, Loc::at(cur.position()));
                break;
            }
            // User-supplied termination predicate over the parsed prefix.
            if let Some(e) = ended {
                let arr = Value::Array(std::mem::take(&mut elts));
                let len = Value::Prim(Prim::Uint(arr.len().unwrap_or(0) as u64));
                let bound =
                    [(Name::from_static("elts"), arr), (Name::from_static("length"), len)];
                let mut env = self.env(params, &bound);
                let done = eval::eval_bool(e, &mut env).unwrap_or(false);
                if let Some((_, Value::Array(back))) = bound.into_iter().next() {
                    elts = back;
                }
                if done {
                    // A trailing terminator, if declared, is still consumed.
                    if self.term_matches(cur, term) {
                        self.consume_term(cur, term);
                    }
                    break;
                }
            }
        }

        if let Some(n) = want_size {
            if elts.len() != n {
                pd.add_error(ErrorCode::ArraySizeMismatch, Loc::at(cur.position()));
            }
        }

        // Pwhere over the completed sequence (mask-controlled: Figure 7
        // turns exactly this check off for Sirius timestamps).
        if mask.compound().checks() && pd.state == ParseState::Ok {
            if let Some(w) = &def.where_clause {
                let arr = Value::Array(std::mem::take(&mut elts));
                let len = Value::Prim(Prim::Uint(arr.len().unwrap_or(0) as u64));
                let bound =
                    [(Name::from_static("elts"), arr), (Name::from_static("length"), len)];
                let mut env = self.env(params, &bound);
                let violation = if matches!(w, Expr::Forall { .. }) {
                    ErrorCode::ForallViolation
                } else {
                    ErrorCode::WhereViolation
                };
                pd.add_verdict(eval::eval_bool(w, &mut env), violation, Loc::at(cur.position()));
                if let Some((_, Value::Array(back))) = bound.into_iter().next() {
                    elts = back;
                }
            }
        }

        pd.kind = PdKind::Array { elts: elt_pds.finish(), neerr, first_error };
        (Value::Array(elts), pd)
    }

    /// Whether the array terminator matches at the cursor (lookahead only).
    /// The record or source end holds off while a byte is partly read: its
    /// unread bits may hold further sub-byte elements.
    fn term_matches(&self, cur: &mut Cursor<'_>, term: &Option<Literal>) -> bool {
        match term {
            None => false,
            Some(Literal::Eor) => !cur.mid_byte() && cur.at_eor(),
            Some(Literal::Eof) => !cur.mid_byte() && cur.at_eof(),
            Some(lit) => {
                let cp = cur.checkpoint();
                let ok = self.match_literal(cur, lit).is_ok();
                cur.restore(cp);
                ok
            }
        }
    }

    fn consume_term(&self, cur: &mut Cursor<'_>, term: &Option<Literal>) {
        match term {
            Some(Literal::Eor) | Some(Literal::Eof) | None => {}
            Some(lit) => {
                let _ = self.match_literal(cur, lit);
            }
        }
    }

    /// Natural end for unbounded arrays: end of record when inside one,
    /// end of source otherwise, on a byte boundary.
    fn at_natural_end(&self, cur: &Cursor<'_>) -> bool {
        if cur.mid_byte() {
            false
        } else if cur.in_record() {
            cur.at_eor()
        } else {
            cur.at_eof()
        }
    }

    fn parse_enum(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        variants: &[String],
    ) -> (Value, ParseDesc) {
        let charset = cur.charset();
        let start = cur.position();
        // Longest-match over the variants, so `GETX` does not stop at `GET`
        // when both are declared.
        let mut best: Option<(usize, usize)> = None; // (len, index)
        for (i, v) in variants.iter().enumerate() {
            if best.is_none_or(|(len, _)| v.len() > len) && encoded_at(cur.rest(), v, charset) {
                best = Some((v.len(), i));
            }
        }
        let names = &self.names[id].items;
        match best {
            Some((len, index)) => {
                cur.advance(len);
                (Value::Enum { variant: names[index], index }, ParseDesc::ok())
            }
            None => {
                let pd = ParseDesc::error(ErrorCode::EnumNoMatch, Loc::at(start));
                let variant = names.first().cloned().unwrap_or_default();
                (Value::Enum { variant, index: 0 }, pd)
            }
        }
    }

    fn parse_typedef(
        &self,
        cur: &mut Cursor<'_>,
        base: &'s TyUse,
        var: Option<Name>,
        pred: &'s Option<Expr>,
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let start = cur.position();
        let (value, bpd) = self.parse_field_ty(cur, base, params, &[], mask);
        let mut pd = ParseDesc::ok();
        pd.absorb(&bpd);
        if mask.base().checks() && pd.is_ok() {
            if let (Some(v), Some(p)) = (var, pred) {
                let bound = [(v, value.clone())];
                let mut env = self.env(params, &bound);
                let verdict = eval::eval_bool(p, &mut env);
                let loc = Loc::new(start, cur.position());
                pd.add_verdict(verdict, ErrorCode::ConstraintViolation, loc);
            }
        }
        pd.kind = PdKind::typedef(bpd);
        (value, pd)
    }

    fn match_literal(
        &self,
        cur: &mut Cursor<'_>,
        lit: &Literal,
    ) -> Result<(), (ErrorCode, Loc)> {
        let start = cur.position();
        let charset = cur.charset();
        // A character or string is compared in place in the charset, and
        // consumed when it matches.
        let matched = match lit {
            Literal::Char(c) => cur.peek() == Some(charset.encode(*c)) && cur.advance(1) == 1,
            Literal::Str(s) => {
                encoded_at(cur.rest(), s, charset) && cur.advance(s.len()) == s.len()
            }
            Literal::Regex(pat) => {
                let re = cur.regex(pat).map_err(|c| (c, Loc::at(start)))?;
                if cur.match_regex(&re).is_none() {
                    return Err((ErrorCode::RegexMismatch, Loc::at(start)));
                }
                true
            }
            Literal::Eor => cur.at_eor(),
            Literal::Eof => cur.at_eof(),
        };
        if matched {
            Ok(())
        } else {
            Err((ErrorCode::LitMismatch, Loc::at(start)))
        }
    }

    // ---- defaults ---------------------------------------------------------

    /// A default value with the shape of the named type (used for masked-out
    /// and error-recovered representations).
    pub fn default_def(&self, id: TypeId) -> Value {
        let def = self.schema.def(id);
        let names = &self.names[id].items;
        match &def.kind {
            TypeKind::Struct { members } => Value::Struct {
                fields: members
                    .iter()
                    .enumerate()
                    .filter_map(|(mi, m)| match m {
                        pads_check::ir::MemberIr::Field(f) => {
                            Some((names[mi], self.default_tyuse(&f.ty)))
                        }
                        pads_check::ir::MemberIr::Lit(_) => None,
                    })
                    .collect(),
            },
            TypeKind::Union { branches, .. } => match branches.first() {
                Some(b) => Value::Union {
                    branch: names[0],
                    index: 0,
                    value: Box::new(self.default_tyuse(&b.field.ty)),
                },
                None => Value::Prim(Prim::Unit),
            },
            TypeKind::Array { .. } => Value::Array(Vec::new()),
            TypeKind::Enum { .. } => {
                Value::Enum { variant: names.first().cloned().unwrap_or_default(), index: 0 }
            }
            TypeKind::Typedef { base, .. } => self.default_tyuse(base),
        }
    }

    fn default_tyuse(&self, ty: &TyUse) -> Value {
        match ty {
            TyUse::Opt(_) => Value::Opt(None),
            TyUse::Base { name, .. } => Value::Prim(
                self.registry.get(name).map_or(Prim::Unit, |bt| bt.default_value(&[])),
            ),
            TyUse::Named { id, .. } => self.default_def(*id),
        }
    }
}

/// Whether the ASCII `text`, each byte encoded in `charset`, comes first
/// in `rest`: the interpreter's own comparison, byte by byte in place.
fn encoded_at(rest: &[u8], text: &str, charset: Charset) -> bool {
    rest.len() >= text.len() && text.bytes().zip(rest).all(|(t, &r)| charset.encode(t) == r)
}

/// The parser a [`Records`] iterator runs: the caller's, or its own.
enum ParserRef<'p, 's> {
    Borrowed(&'p PadsParser<'s>),
    Owned(Box<PadsParser<'s>>),
}

impl<'s> std::ops::Deref for ParserRef<'_, 's> {
    type Target = PadsParser<'s>;

    fn deref(&self) -> &PadsParser<'s> {
        match self {
            ParserRef::Borrowed(p) => p,
            ParserRef::Owned(p) => p,
        }
    }
}

/// Iterator over records parsed one at a time (see
/// [`PadsParser::records`]). Also the interpreter's and the VM's
/// [`RecordReader`] under the sharded driver.
pub struct Records<'p, 's, 'd> {
    parser: ParserRef<'p, 's>,
    cur: Cursor<'d>,
    id: TypeId,
    mask: &'p Mask,
    /// Whole-source offset the iteration ends at, if the slice goes on.
    until: usize,
    done: bool,
    poison: Option<ErrorCode>,
}

impl<'p, 's, 'd> Records<'p, 's, 'd> {
    fn open(
        parser: ParserRef<'p, 's>,
        data: &'d [u8],
        (base, until): (usize, usize),
        name: &str,
        mask: &'p Mask,
        start: ResumePoint,
    ) -> Records<'p, 's, 'd> {
        let (id, poison) = match parser.schema.type_id(name) {
            Some(id) => (id, None),
            None => (parser.schema.source(), Some(ErrorCode::InternalError)),
        };
        let mut cur = parser.cursor(data).with_base(base).with_start(start.offset, start.record);
        cur.set_budget(start.budget);
        Records { parser, cur, id, mask, until, done: false, poison }
    }

    /// The cursor's current absolute offset (for progress reporting).
    pub fn offset(&self) -> usize {
        self.cur.offset()
    }

    /// The cursor's full position — where a source-level error raised
    /// after the record just yielded is located.
    pub fn position(&self) -> Pos {
        self.cur.position()
    }

    /// The running error-budget tally of the underlying cursor.
    pub fn budget(&self) -> ErrorBudget {
        self.cur.budget()
    }
}

impl RecordReader for Records<'_, '_, '_> {
    type Item = Value;

    fn next_record(&mut self) -> Option<(Value, ParseDesc)> {
        self.next()
    }

    fn position(&self) -> Pos {
        let pos = self.cur.position();
        Pos { offset: pos.offset - self.cur.base(), ..pos }
    }

    fn budget(&self) -> ErrorBudget {
        self.cur.budget()
    }

    fn seek(&mut self, offset: usize, record: usize) {
        self.cur.seek(self.cur.base() + offset, record);
        self.done = false;
    }
}

impl<'p, 's, 'd> Iterator for Records<'p, 's, 'd> {
    type Item = (Value, ParseDesc);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if let Some(code) = self.poison.take() {
            self.done = true;
            let mut pd = ParseDesc::error(code, Loc::at(self.cur.position()));
            pd.state = ParseState::Partial;
            return Some((Value::Prim(Prim::Unit), pd));
        }
        if self.cur.at_eof() || self.cur.offset() >= self.until {
            return None;
        }
        let before = self.cur.offset();
        let item = self.parser.parse_def(&mut self.cur, self.id, &[], self.mask);
        if self.cur.offset() == before {
            // No progress: the record type consumed nothing (e.g. repeated
            // begin-record failure). Stop instead of looping forever.
            self.done = true;
        }
        Some(item)
    }
}

impl<'p, 's, 'd> std::iter::FusedIterator for Records<'p, 's, 'd> {}
