//! The bytecode tier: checked schemas compiled to a pre-resolved program
//! executed by a tight dispatch loop.
//!
//! The interpreter ([`crate::parse::PadsParser`]) re-derives per-record
//! facts that never change for a given schema: it looks base types up in
//! the registry `HashMap` on every field, charset-encodes every literal
//! and every enum variant into a fresh `Vec<u8>` per record, re-evaluates
//! constant argument expressions, and re-interns parameter names. The
//! generated (`pads-codegen`) parsers erase all of that at rustc time but
//! need a compile step — useless for descriptions that arrive at runtime
//! (ROADMAP item 2, the paper's 300 M-calls/day hot-loading scenario).
//!
//! This module is the middle tier: a single-pass compiler from the checked
//! [`Schema`] to a flat [`VmProgram`] (one `CDef` per `TypeId`, with
//! pre-resolved `Arc<dyn BaseType>` handles, interned literal text,
//! pre-evaluated constant arguments, interned [`Name`]s and
//! precomputed default values) plus an executor with the interpreter's
//! record framing, recovery policies, error budgets, observation events and
//! descriptor shapes, proven byte-identical by the contract matrix
//! (`tests/contract.rs`).
//!
//! The executor holds no rule of its own but the struct read and the
//! evaluation of a switch selector. Every other kind runs the rule
//! [`pads_runtime::rules`] holds once for both compiled tiers (the array
//! loop, union trial, the switched-union read, typedefs, enum longest
//! match, literals), called with closures over the `CDef`s; record
//! framing is `Cursor::open_record`/`close_record`. The interpreter keeps
//! its own copy of each, the oracle both tiers are compared against.
//!
//! Beyond that pre-resolution the compiler keeps only the specialisations
//! a benchmark workload pays for (`docs/VM.md` has the table):
//!
//! * constraints that name only the value they guard, earlier siblings,
//!   enum variants and inlinable `Pfun` calls lower to `CPred::Fast`
//!   (every CLF constraint);
//! * the adjacent-pairs `Pforall` on an array lowers to `CWhere::Sorted`
//!   (Sirius `eventSeq`).
//!
//! Everything else runs as the interpreter runs it, the zero-width array
//! guard included.
//!
//! A parser compiles its program on first use and keeps it; a shard worker
//! builds its own parser, so it compiles its own. See `docs/VM.md`.

use std::sync::Arc;

use pads_check::ir::{Schema, TypeId, TypeKind, TyUse};
use pads_runtime::pd::PdKind;
use pads_runtime::rules::{
    read_array, read_enum, read_switched, read_typedef, read_union, ArrayShape, Lit,
};
use pads_runtime::{
    BaseType, Charset, Cursor, ErrorCode, Loc, Mask, Name, ParseDesc, ParseState, Prim,
    RecordOpen, Registry,
};
use pads_syntax::ast::{BinOp, CaseLabel, Expr, Literal, Stmt, UnOp};

use crate::eval::{self, Env, Ev};
use crate::value::Value;

// ---- compiled form --------------------------------------------------------

/// A schema compiled for one charset: everything per-record-invariant is
/// resolved, encoded, evaluated and interned ahead of time.
///
/// `Send + Sync`: names are interned `&'static str`s, base-type handles are
/// `Arc<dyn BaseType>`, and regex literals are stored as pattern strings
/// (compiled through each cursor's own cache).
pub struct VmProgram {
    defs: Vec<CDef>,
}

impl VmProgram {
    /// Number of compiled definitions (one per schema `TypeId`).
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the program has no definitions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

/// One compiled type definition.
struct CDef {
    is_record: bool,
    /// Interned value-parameter names, by declaration index.
    params: Box<[Name]>,
    /// `Pwhere` clause (structs and arrays).
    where_clause: Option<CWhere>,
    kind: CKind,
    /// The default (masked-out / error-recovery) value of this type,
    /// precomputed; handing it out is a clone of an existing tree, not a
    /// registry walk.
    default: Value,
}

enum CKind {
    Struct {
        members: Box<[CMember]>,
        /// Field count, for exact `Vec` capacity in the executor.
        n_fields: usize,
    },
    Union {
        names: Box<[Name]>,
        branches: Box<[CBranch]>,
        switch: Option<Expr>,
    },
    Array(Box<CArray>),
    Enum {
        variants: Box<[Name]>,
    },
    Typedef {
        base: CTy,
        var: Option<Name>,
        pred: Option<CPred>,
    },
}

/// A constraint expression, compiled. Most constraints in real
/// descriptions reference only the value they guard (`100 <= x && x <
/// 600`, `unauthorized == '-'`), so the compiler lowers that subset to a
/// closed [`PExpr`] evaluated directly against the parsed value — no
/// environment construction, no name lookups, no `Ev` clones per record.
/// Everything else falls back to the interpreter's evaluator over a
/// scoped [`Env`], so semantics never fork.
enum CPred {
    Fast(PExpr),
    Generic(Expr),
}

/// A `Pwhere` clause, compiled. The paper's Sirius description guards its
/// event sequences with the adjacent-pairs idiom
/// `Pforall (i Pin [0..length-2] : elts[i].f OP elts[i+1].f)`; the
/// compiler recognises exactly that shape and lowers it to a direct
/// windowed sweep over the element slice ([`CWhere::Sorted`]), skipping
/// the per-index environment churn of the generic `Pforall` evaluator.
enum CWhere {
    Sorted { field: Name, op: BinOp },
    Generic(Expr),
}

/// A compiled predicate expression: literals, the bound variable, earlier
/// sibling fields, field projections, and operators. Comparison and
/// projection leaves delegate to [`eval::binary`] and
/// [`eval::project_field`] — the same functions the interpreter uses — so
/// the two engines cannot disagree on numeric coercion, union-branch
/// transparency, or string semantics. Enum variant references and pure
/// `Pfun` calls are resolved at compile time (variants to their global
/// index, calls by inlining the function body), eliminating the
/// per-record environment swap of the generic `Expr::Call` path.
#[derive(Clone)]
enum PExpr {
    Const(Value),
    Var,
    /// An earlier sibling field, by index into the struct's parsed-fields
    /// vector (constraints run after their field is pushed, so every
    /// index below the current field is bound).
    Sibling(usize),
    /// Field projection `e.name` ([`eval::project_field`] semantics).
    Proj(Box<PExpr>, Name),
    Cmp(BinOp, Box<PExpr>, Box<PExpr>),
    And(Box<PExpr>, Box<PExpr>),
    Or(Box<PExpr>, Box<PExpr>),
    Not(Box<PExpr>),
    /// Conditional `c ? t : e` (also the compiled form of inlined
    /// `if (c) return t; …` function bodies).
    If(Box<PExpr>, Box<PExpr>, Box<PExpr>),
}

struct CArray {
    elem: CTy,
    shape: ArrayShape<'static>,
    ended: Option<Expr>,
    size: Option<CSize>,
}

enum CSize {
    /// Constant size expression, evaluated at compile time.
    Const(usize),
    /// Constant expression that does not evaluate to an unsigned size
    /// (the interpreter records `EvalError` and sizes the array 0).
    ConstBad,
    Dyn(Expr),
}

struct CBranch {
    case: Option<CCase>,
    ty: CTy,
    constraint: Option<CPred>,
}

enum CCase {
    /// Constant case label, evaluated at compile time.
    Const(Value),
    Dyn(Expr),
    Default,
}

enum CMember {
    Lit(Lit<'static>),
    Field(CField),
}

struct CField {
    name: Name,
    ty: CTy,
    constraint: Option<CPred>,
}

enum CTy {
    Opt(Box<CTy>),
    Base {
        /// Pre-resolved handle: no registry lookup per record.
        bt: Arc<dyn BaseType>,
        args: CArgs,
        /// `bt.default_value(&[])`, precomputed for argument-evaluation
        /// failures and masked-out parses.
        default: Prim,
    },
    /// The registry had no such base type at compile time; executing it
    /// reports `InternalError`, exactly as the interpreter's lookup miss.
    MissingBase,
    Named {
        id: TypeId,
        args: CArgs,
    },
}

enum CArgs {
    None,
    /// All-constant argument list, evaluated once at compile time (the
    /// interpreter's `const_prim` fast path re-allocates this `Vec` —
    /// including cloning string arguments — on every record).
    Const(Box<[Prim]>),
    Dyn(Box<[Expr]>),
}

// ---- compiler -------------------------------------------------------------

/// Compiles `schema`, resolving base types against `registry`. Compilation
/// never fails: a checked schema cannot produce a malformed program, and
/// defensive cases (unknown base type) compile to ops that report the same
/// `InternalError` the interpreter would.
///
/// The program is the same for every charset, since literals and enum
/// variants match in the cursor's own: the charset argument is not read.
pub fn compile(schema: &Schema, registry: &Registry, _charset: Charset) -> VmProgram {
    let defs = schema
        .types
        .iter()
        .enumerate()
        .map(|(id, def)| compile_def(schema, registry, id, def))
        .collect();
    VmProgram { defs }
}

fn compile_def(
    schema: &Schema,
    registry: &Registry,
    id: TypeId,
    def: &pads_check::ir::TypeDef,
) -> CDef {
    use pads_check::ir::MemberIr;
    let pnames: Vec<Name> = def.params.iter().map(|p| Name::intern(&p.name)).collect();
    let kind = match &def.kind {
        TypeKind::Struct { members } => {
            let compiled = compile_members(schema, registry, members, &pnames);
            let n_fields =
                members.iter().filter(|m| matches!(m, MemberIr::Field(_))).count();
            CKind::Struct { members: compiled, n_fields }
        }
        TypeKind::Union { switch, branches } => CKind::Union {
            switch: switch.clone(),
            names: branches.iter().map(|b| Name::intern(&b.field.name)).collect(),
            branches: branches
                .iter()
                .map(|b| CBranch {
                    case: b.case.as_ref().map(compile_case),
                    ty: compile_tyuse(registry, &b.field.ty),
                    constraint: b
                        .field
                        .constraint
                        .as_ref()
                        .map(|c| compile_pred(schema, c, &b.field.name, &[], &pnames)),
                })
                .collect(),
        },
        TypeKind::Array { elem, sep, term, ended, size } => {
            let elem_recovers =
                matches!(elem, TyUse::Named { id, .. } if schema.def(*id).is_record);
            let size_c = size.as_ref().map(|e| match const_prim(e) {
                Some(p) => match p.as_u64() {
                    Some(n) => CSize::Const(n as usize),
                    None => CSize::ConstBad,
                },
                None => CSize::Dyn(e.clone()),
            });
            let shape = ArrayShape {
                sep: sep.as_ref().map(compile_lit),
                term: term.as_ref().map(compile_lit),
                elem_recovers,
                forall: matches!(def.where_clause, Some(Expr::Forall { .. })),
            };
            CKind::Array(Box::new(CArray {
                elem: compile_tyuse(registry, elem),
                shape,
                ended: ended.clone(),
                size: size_c,
            }))
        }
        TypeKind::Enum { variants } => {
            CKind::Enum { variants: variants.iter().map(|v| Name::intern(v)).collect() }
        }
        TypeKind::Typedef { base, var, pred } => CKind::Typedef {
            base: compile_tyuse(registry, base),
            var: var.as_ref().map(|v| Name::intern(v)),
            pred: match (var, pred) {
                (Some(v), Some(p)) => Some(compile_pred(schema, p, v, &[], &pnames)),
                (_, p) => p.as_ref().map(|p| CPred::Generic(p.clone())),
            },
        },
    };
    // Only array `Pwhere` clauses are candidates for the sorted-sweep
    // lowering; struct clauses reference arbitrary fields and stay generic.
    let is_array = matches!(def.kind, TypeKind::Array { .. });
    CDef {
        is_record: def.is_record,
        params: pnames.into_boxed_slice(),
        where_clause: def.where_clause.as_ref().map(|w| compile_where(w, is_array)),
        kind,
        default: default_def(schema, registry, id, 0),
    }
}

/// Name-resolution scope for predicate compilation. Mirrors the generic
/// evaluator's environment exactly: in constraint position the bound
/// variable is innermost, then sibling fields (later shadows earlier),
/// then def parameters, then global enum variants; inside an inlined
/// `Pfun` body only the function's parameters and globals are visible.
enum PScope<'s> {
    Caller {
        /// The bound variable (the field/branch/typedef value under check).
        var: &'s str,
        /// Names of sibling fields already parsed, in declaration order.
        siblings: &'s [Name],
        /// Def value-parameter names; referencing one forces the generic
        /// path (parameters live outside the compiled fields vector).
        params: &'s [Name],
    },
    Func {
        /// The inlined function's parameters.
        params: &'s [pads_syntax::ast::Param],
        /// Pre-compiled (caller-scope) argument expressions, by position.
        args: &'s [PExpr],
    },
}

/// Inline-expansion bound for nested `Pfun` calls. Any chain this deep
/// (or any recursion) falls back to the generic evaluator, whose own
/// `MAX_CALL_DEPTH` governs runtime behaviour.
const MAX_INLINE_DEPTH: u32 = 8;

/// Compiles a constraint over a single bound variable: [`CPred::Fast`]
/// when every name resolves at compile time (the variable, earlier
/// sibling fields, enum variants, inlinable `Pfun` calls), otherwise the
/// generic evaluator.
fn compile_pred(schema: &Schema, e: &Expr, var: &str, siblings: &[Name], params: &[Name]) -> CPred {
    let scope = PScope::Caller { var, siblings, params };
    match compile_pexpr(schema, &scope, e, 0) {
        Some(p) => CPred::Fast(p),
        None => CPred::Generic(e.clone()),
    }
}

fn compile_pexpr(schema: &Schema, scope: &PScope<'_>, e: &Expr, depth: u32) -> Option<PExpr> {
    Some(match e {
        Expr::Int(v) => PExpr::Const(Value::Prim(Prim::Int(*v))),
        Expr::Float(v) => PExpr::Const(Value::Prim(Prim::Float(*v))),
        Expr::Char(c) => PExpr::Const(Value::Prim(Prim::Char(*c))),
        Expr::Str(s) => PExpr::Const(Value::Prim(Prim::String(s.clone()))),
        Expr::Bool(b) => PExpr::Const(Value::Prim(Prim::Bool(*b))),
        Expr::Ident(n) => match scope {
            PScope::Caller { var, siblings, params } => {
                if n == var {
                    PExpr::Var
                } else if let Some(i) = siblings.iter().rposition(|s| s.as_str() == n) {
                    PExpr::Sibling(i)
                } else if params.iter().any(|p| p.as_str() == n) {
                    // Def parameters live outside the fields vector; the
                    // generic path binds them.
                    return None;
                } else if let Some((_, idx)) = schema.enum_variants.get(n) {
                    PExpr::Const(Value::Prim(Prim::Uint(*idx as u64)))
                } else {
                    // Unbound: stay generic so the runtime EvalError (and
                    // any future binding forms) come from one place.
                    return None;
                }
            }
            PScope::Func { params, args } => {
                // Function bodies see only their parameters and globals
                // (the evaluator swaps the environment on entry).
                if let Some(i) = params.iter().rposition(|p| p.name == *n) {
                    args.get(i)?.clone()
                } else if let Some((_, idx)) = schema.enum_variants.get(n) {
                    PExpr::Const(Value::Prim(Prim::Uint(*idx as u64)))
                } else {
                    return None;
                }
            }
        },
        Expr::Field(base, name) => PExpr::Proj(
            Box::new(compile_pexpr(schema, scope, base, depth)?),
            Name::intern(name),
        ),
        Expr::Call(name, call_args) => {
            if depth >= MAX_INLINE_DEPTH {
                return None;
            }
            let func = schema.funcs.get(name)?;
            if func.params.len() != call_args.len() {
                return None;
            }
            let cargs = call_args
                .iter()
                .map(|a| compile_pexpr(schema, scope, a, depth))
                .collect::<Option<Vec<_>>>()?;
            // The generic evaluator binds every argument before entering
            // the body, so an argument whose evaluation can fail must
            // fail even when the body never reads it. Inlining duplicates
            // or elides argument sites, so only infallible argument forms
            // (plain bindings and constants) are eligible.
            if !cargs.iter().all(pexpr_infallible) {
                return None;
            }
            let body: Vec<&Stmt> = func.body.iter().collect();
            let fscope = PScope::Func { params: &func.params, args: &cargs };
            return compile_stmts(schema, &fscope, &body, depth + 1);
        }
        Expr::Unary(UnOp::Not, a) => {
            PExpr::Not(Box::new(compile_pexpr(schema, scope, a, depth)?))
        }
        Expr::Binary(BinOp::And, a, b) => PExpr::And(
            Box::new(compile_pexpr(schema, scope, a, depth)?),
            Box::new(compile_pexpr(schema, scope, b, depth)?),
        ),
        Expr::Binary(BinOp::Or, a, b) => PExpr::Or(
            Box::new(compile_pexpr(schema, scope, a, depth)?),
            Box::new(compile_pexpr(schema, scope, b, depth)?),
        ),
        Expr::Binary(op, a, b) => PExpr::Cmp(
            *op,
            Box::new(compile_pexpr(schema, scope, a, depth)?),
            Box::new(compile_pexpr(schema, scope, b, depth)?),
        ),
        Expr::Ternary(c, t, e2) => PExpr::If(
            Box::new(compile_pexpr(schema, scope, c, depth)?),
            Box::new(compile_pexpr(schema, scope, t, depth)?),
            Box::new(compile_pexpr(schema, scope, e2, depth)?),
        ),
        _ => return None,
    })
}

/// Whether a compiled expression can never fail at runtime — the forms
/// safe to duplicate or drop when inlining a function call.
fn pexpr_infallible(p: &PExpr) -> bool {
    matches!(p, PExpr::Const(_) | PExpr::Var | PExpr::Sibling(_))
}

/// Compiles a `Pfun` statement list to an expression with `exec_stmts`
/// semantics: `return e` yields `e` (later statements are dead),
/// `if (c) …` branches into then/else each continued by the remaining
/// statements, and a list that can fall off the end has no value — the
/// compile fails and the call stays generic (runtime `EvalError`).
fn compile_stmts(
    schema: &Schema,
    scope: &PScope<'_>,
    stmts: &[&Stmt],
    depth: u32,
) -> Option<PExpr> {
    let (first, rest) = stmts.split_first()?;
    match first {
        Stmt::Return(e) => compile_pexpr(schema, scope, e, depth),
        Stmt::If { cond, then_body, else_body } => {
            let c = compile_pexpr(schema, scope, cond, depth)?;
            let then_chain: Vec<&Stmt> = then_body.iter().chain(rest.iter().copied()).collect();
            let else_chain: Vec<&Stmt> = else_body.iter().chain(rest.iter().copied()).collect();
            let t = compile_stmts(schema, scope, &then_chain, depth)?;
            let e = compile_stmts(schema, scope, &else_chain, depth)?;
            Some(PExpr::If(Box::new(c), Box::new(t), Box::new(e)))
        }
    }
}

/// Compiles a `Pwhere` clause, lowering the adjacent-pairs `Pforall`
/// idiom on arrays to a windowed sweep.
fn compile_where(w: &Expr, is_array: bool) -> CWhere {
    if is_array {
        if let Some((field, op)) = sorted_pattern(w) {
            return CWhere::Sorted { field, op };
        }
    }
    CWhere::Generic(w.clone())
}

/// Recognises `Pforall (i Pin [0..length-2] : elts[i].f OP elts[i+1].f)`
/// (a comparison operator, the same field on both sides).
fn sorted_pattern(w: &Expr) -> Option<(Name, BinOp)> {
    let Expr::Forall { var, lo, hi, body } = w else {
        return None;
    };
    if !matches!(**lo, Expr::Int(0)) {
        return None;
    }
    let Expr::Binary(BinOp::Sub, len, two) = &**hi else {
        return None;
    };
    if !matches!(&**len, Expr::Ident(n) if n == "length") || !matches!(**two, Expr::Int(2)) {
        return None;
    }
    let Expr::Binary(op, a, b) = &**body else {
        return None;
    };
    if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne) {
        return None;
    }
    let (fa, ia) = elts_field_at(a)?;
    let (fb, ib) = elts_field_at(b)?;
    // Left side indexes `elts[i]`, right side `elts[i+1]`, same field.
    if fa != fb || ia != IndexShape::Var(var.as_str()) || ib != IndexShape::VarPlusOne(var.as_str())
    {
        return None;
    }
    Some((Name::intern(fa), *op))
}

#[derive(PartialEq)]
enum IndexShape<'a> {
    Var(&'a str),
    VarPlusOne(&'a str),
    Other,
}

/// Decomposes `elts[<idx>].<field>` into the field name and index shape.
fn elts_field_at<'e>(e: &'e Expr) -> Option<(&'e str, IndexShape<'e>)> {
    let Expr::Field(base, field) = e else {
        return None;
    };
    let Expr::Index(arr, idx) = &**base else {
        return None;
    };
    if !matches!(&**arr, Expr::Ident(n) if n == "elts") {
        return None;
    }
    let shape = match &**idx {
        Expr::Ident(i) => IndexShape::Var(i),
        Expr::Binary(BinOp::Add, v, one)
            if matches!(&**v, Expr::Ident(_)) && matches!(**one, Expr::Int(1)) =>
        {
            match &**v {
                Expr::Ident(i) => IndexShape::VarPlusOne(i),
                _ => IndexShape::Other,
            }
        }
        _ => IndexShape::Other,
    };
    Some((field, shape))
}

fn compile_case(c: &CaseLabel) -> CCase {
    match c {
        CaseLabel::Default => CCase::Default,
        CaseLabel::Expr(e) => match const_prim(e) {
            Some(p) => CCase::Const(Value::Prim(p)),
            None => CCase::Dyn(e.clone()),
        },
    }
}

fn compile_members(
    schema: &Schema,
    registry: &Registry,
    members: &[pads_check::ir::MemberIr],
    params: &[Name],
) -> Box<[CMember]> {
    use pads_check::ir::MemberIr;
    let mut out: Vec<CMember> = Vec::with_capacity(members.len());
    // Names of fields compiled so far: a field constraint may reference
    // any earlier sibling (the checker scopes them in), and the compiled
    // form addresses those by position in the executor's fields vector.
    let mut siblings: Vec<Name> = Vec::new();
    for m in members {
        match m {
            MemberIr::Lit(lit) => out.push(CMember::Lit(compile_lit(lit))),
            MemberIr::Field(f) => {
                out.push(CMember::Field(CField {
                    name: Name::intern(&f.name),
                    ty: compile_tyuse(registry, &f.ty),
                    constraint: f
                        .constraint
                        .as_ref()
                        .map(|c| compile_pred(schema, c, &f.name, &siblings, params)),
                }));
                siblings.push(Name::intern(&f.name));
            }
        }
    }
    out.into_boxed_slice()
}

/// A literal for the runtime's matchers. Its text is interned, as names
/// are, so the program holds it without an owner of its own.
fn compile_lit(lit: &Literal) -> Lit<'static> {
    match lit {
        Literal::Char(c) => Lit::Char(*c),
        Literal::Str(s) => Lit::Str(Name::intern(s).as_str().as_bytes()),
        Literal::Regex(pat) => Lit::Regex(Name::intern(pat).as_str()),
        Literal::Eor => Lit::Eor,
        Literal::Eof => Lit::Eof,
    }
}

fn compile_tyuse(registry: &Registry, ty: &TyUse) -> CTy {
    match ty {
        TyUse::Opt(inner) => CTy::Opt(Box::new(compile_tyuse(registry, inner))),
        TyUse::Base { name, args } => match registry.get(name) {
            Some(bt) => CTy::Base {
                bt: Arc::clone(bt),
                args: compile_args(args),
                default: bt.default_value(&[]),
            },
            None => CTy::MissingBase,
        },
        TyUse::Named { id, args } => CTy::Named { id: *id, args: compile_args(args) },
    }
}

fn compile_args(args: &[Expr]) -> CArgs {
    if args.is_empty() {
        return CArgs::None;
    }
    match args.iter().map(const_prim).collect::<Option<Vec<_>>>() {
        Some(prims) => CArgs::Const(prims.into_boxed_slice()),
        None => CArgs::Dyn(args.to_vec().into_boxed_slice()),
    }
}

/// Evaluates literal expressions without an environment (the compile-time
/// twin of the interpreter's per-record fast path).
fn const_prim(e: &Expr) -> Option<Prim> {
    match e {
        Expr::Int(v) => Some(Prim::Int(*v)),
        Expr::Char(c) => Some(Prim::Char(*c)),
        Expr::Str(s) => Some(Prim::String(s.clone())),
        Expr::Bool(b) => Some(Prim::Bool(*b)),
        Expr::Float(v) => Some(Prim::Float(*v)),
        _ => None,
    }
}

/// Recursion guard for default-value precomputation. A checked schema has
/// no recursive types; this bound only protects the compiler from a
/// pathological IR (where the interpreter itself would diverge).
const MAX_DEFAULT_DEPTH: u32 = 256;

fn default_def(schema: &Schema, registry: &Registry, id: TypeId, depth: u32) -> Value {
    use pads_check::ir::MemberIr;
    if depth > MAX_DEFAULT_DEPTH {
        return Value::Prim(Prim::Unit);
    }
    let def = schema.def(id);
    match &def.kind {
        TypeKind::Struct { members } => Value::Struct {
            fields: members
                .iter()
                .filter_map(|m| match m {
                    MemberIr::Field(f) => Some((
                        Name::intern(&f.name),
                        default_tyuse(schema, registry, &f.ty, depth + 1),
                    )),
                    MemberIr::Lit(_) => None,
                })
                .collect(),
        },
        TypeKind::Union { branches, .. } => match branches.first() {
            Some(b) => Value::Union {
                branch: Name::intern(&b.field.name),
                index: 0,
                value: Box::new(default_tyuse(schema, registry, &b.field.ty, depth + 1)),
            },
            None => Value::Prim(Prim::Unit),
        },
        TypeKind::Array { .. } => Value::Array(Vec::new()),
        TypeKind::Enum { variants } => Value::Enum {
            variant: variants.first().map(|v| Name::intern(v)).unwrap_or_default(),
            index: 0,
        },
        TypeKind::Typedef { base, .. } => default_tyuse(schema, registry, base, depth + 1),
    }
}

fn default_tyuse(schema: &Schema, registry: &Registry, ty: &TyUse, depth: u32) -> Value {
    if depth > MAX_DEFAULT_DEPTH {
        return Value::Prim(Prim::Unit);
    }
    match ty {
        TyUse::Opt(_) => Value::Opt(None),
        TyUse::Base { name, .. } => {
            Value::Prim(registry.get(name).map_or(Prim::Unit, |bt| bt.default_value(&[])))
        }
        TyUse::Named { id, .. } => default_def(schema, registry, *id, depth + 1),
    }
}

// ---- compiled-predicate evaluation ----------------------------------------

/// Evaluates a compiled predicate against the bound value and the
/// struct's parsed fields (empty outside struct-field constraints).
/// Leaves delegate to [`eval::binary`] and [`eval::project_field`], so
/// coercions match the interpreter exactly.
fn eval_pexpr<'a>(
    p: &'a PExpr,
    var: &'a Value,
    fields: &'a [(Name, Value)],
) -> Result<Ev<'a>, ErrorCode> {
    match p {
        PExpr::Const(v) => Ok(Ev::Ref(v)),
        PExpr::Var => Ok(Ev::Ref(var)),
        PExpr::Sibling(i) => match fields.get(*i) {
            Some((_, v)) => Ok(Ev::Ref(v)),
            // Unreachable for compiler-produced indices; recorded as data.
            None => Err(ErrorCode::EvalError),
        },
        PExpr::Proj(a, name) => eval::project_field(eval_pexpr(a, var, fields)?, name.as_str()),
        PExpr::Cmp(op, a, b) => {
            let lhs = eval_pexpr(a, var, fields)?;
            let rhs = eval_pexpr(b, var, fields)?;
            eval::binary(*op, &lhs, &rhs)
        }
        PExpr::And(a, b) => {
            // Short-circuit, like the interpreter.
            if !pexpr_bool(a, var, fields)? {
                return Ok(Ev::prim(Prim::Bool(false)));
            }
            Ok(Ev::prim(Prim::Bool(pexpr_bool(b, var, fields)?)))
        }
        PExpr::Or(a, b) => {
            if pexpr_bool(a, var, fields)? {
                return Ok(Ev::prim(Prim::Bool(true)));
            }
            Ok(Ev::prim(Prim::Bool(pexpr_bool(b, var, fields)?)))
        }
        PExpr::Not(a) => Ok(Ev::prim(Prim::Bool(!pexpr_bool(a, var, fields)?))),
        PExpr::If(c, t, e) => {
            if pexpr_bool(c, var, fields)? {
                eval_pexpr(t, var, fields)
            } else {
                eval_pexpr(e, var, fields)
            }
        }
    }
}

fn pexpr_bool(p: &PExpr, var: &Value, fields: &[(Name, Value)]) -> Result<bool, ErrorCode> {
    match eval_pexpr(p, var, fields)?.value() {
        Value::Prim(Prim::Bool(b)) => Ok(*b),
        _ => Err(ErrorCode::EvalError),
    }
}

/// The sorted sweep: `elts[i].field OP elts[i+1].field` over every
/// adjacent pair, in index order — empty and singleton arrays are
/// vacuously true, exactly as the `Pforall` range `[0..length-2]` is.
fn eval_sorted(field: &str, op: BinOp, elts: &[Value]) -> Result<bool, ErrorCode> {
    for pair in elts.windows(2) {
        let a = eval::project_field(Ev::Ref(&pair[0]), field)?;
        let b = eval::project_field(Ev::Ref(&pair[1]), field)?;
        match eval::binary(op, &a, &b)?.value() {
            Value::Prim(Prim::Bool(true)) => {}
            Value::Prim(Prim::Bool(false)) => return Ok(false),
            _ => return Err(ErrorCode::EvalError),
        }
    }
    Ok(true)
}

// ---- executor -------------------------------------------------------------

/// Executes definition `id` of `prog` at the cursor — the VM twin of
/// `PadsParser::parse_def`, byte-identical in values, descriptors, budget
/// accounting and observation events (proven by `tests/contract.rs`).
pub(crate) fn exec(
    schema: &Schema,
    prog: &VmProgram,
    cur: &mut Cursor<'_>,
    id: TypeId,
    args: &[Prim],
    mask: &Mask,
) -> (Value, ParseDesc) {
    Exec { schema, prog }.exec_def(cur, id, args, mask)
}

struct Exec<'p> {
    /// The source schema, for expression evaluation (`Pfun` bodies and
    /// enum-variant literals resolve through it).
    schema: &'p Schema,
    prog: &'p VmProgram,
}

impl<'p> Exec<'p> {
    fn env<'e>(&'e self, params: &'e [(Name, Value)], fields: &'e [(Name, Value)]) -> Env<'e>
    where
        'p: 'e,
    {
        let mut env = Env::new(self.schema);
        for (n, v) in params {
            env.push(n, Ev::Ref(v));
        }
        for (n, v) in fields {
            env.push(n, Ev::Ref(v));
        }
        env
    }

    fn exec_def(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let Some(def) = self.prog.defs.get(id) else {
            // Out-of-range id: API misuse recorded as data, never a panic.
            return (
                Value::Prim(Prim::Unit),
                ParseDesc::error(ErrorCode::InternalError, Loc::at(cur.position())),
            );
        };
        if !cur.observing() {
            return self.exec_def_inner(cur, id, def, args, mask);
        }
        let start = cur.offset();
        cur.observe_enter_id(id as u32);
        let (value, pd) = self.exec_def_inner(cur, id, def, args, mask);
        cur.observe_exit_id(id as u32, start, &pd);
        (value, pd)
    }

    fn exec_def_inner(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        def: &'p CDef,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        // Record framing and recovery policy live in the runtime, shared
        // with generated parsers (`Cursor::open_record`/`close_record`).
        let mut opened = false;
        let mut record_err = None;
        if def.is_record {
            match cur.open_record() {
                RecordOpen::Nested => {}
                RecordOpen::Opened(err) => {
                    opened = true;
                    record_err = err;
                }
                RecordOpen::Done(pd) => return (def.default.clone(), pd),
            }
        }

        // Most definitions take no parameters: skip the iterator set-up.
        let params: Vec<(Name, Value)> = if def.params.is_empty() {
            Vec::new()
        } else {
            def.params.iter().zip(args).map(|(n, a)| (*n, Value::Prim(a.clone()))).collect()
        };

        let (value, mut pd) = self.exec_kind(cur, id, def, &params, mask);

        if let Some((code, loc)) = record_err {
            pd.add_error(code, loc);
        }
        if opened {
            cur.close_record(&mut pd);
        }
        (value, pd)
    }

    fn exec_kind(
        &self,
        cur: &mut Cursor<'_>,
        id: TypeId,
        def: &'p CDef,
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let _ = id;
        match &def.kind {
            CKind::Struct { members, n_fields } => {
                self.exec_struct(cur, def, members, *n_fields, params, mask)
            }
            CKind::Union { names, branches, switch: Some(sel) } => {
                self.exec_switched(cur, def, sel, names, branches, params, mask)
            }
            CKind::Union { names, branches, switch: None } => read_union(
                cur,
                mask,
                names,
                |cur, index, m| {
                    let (b, branch) = (branches.get(index)?, *names.get(index)?);
                    let (value, bpd) = self.exec_ty(cur, &b.ty, params, &[], m);
                    let holds = |c| self.holds(c, branch, &value, params) == Ok(true);
                    if !bpd.is_ok() || !b.constraint.as_ref().is_none_or(holds) {
                        return None;
                    }
                    Some((Value::Union { branch, index, value: Box::new(value) }, bpd))
                },
                || def.default.clone(),
            ),
            CKind::Array(arr) => self.exec_array(cur, def, arr, params, mask),
            CKind::Enum { variants } => {
                let (index, pd) = read_enum(cur, variants);
                let variant = variants.get(index).copied().unwrap_or_default();
                (Value::Enum { variant, index }, pd)
            }
            CKind::Typedef { base, var, pred } => read_typedef(
                cur,
                mask,
                true,
                |cur| self.exec_ty(cur, base, params, &[], mask),
                |value| match (var, pred) {
                    (Some(v), Some(p)) => self.holds(p, *v, value, params),
                    _ => Ok(true),
                },
            ),
        }
    }

    fn exec_struct(
        &self,
        cur: &mut Cursor<'_>,
        def: &'p CDef,
        members: &'p [CMember],
        n_fields: usize,
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let mut fields: Vec<(Name, Value)> = Vec::with_capacity(n_fields);
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut pd = ParseDesc::ok();
        let mut aborted = false;
        let mut i = 0;
        while i < members.len() {
            match &members[i] {
                CMember::Lit(lit) => {
                    if let Err(code) = cur.match_lit(lit) {
                        pd.add_error(code, Loc::at(cur.position()));
                        pd.state = ParseState::Partial;
                        aborted = true;
                        break;
                    }
                }
                CMember::Field(f) => {
                    let child_mask = mask.child_cow(&f.name);
                    let start = cur.position();
                    let (value, mut child_pd) =
                        self.exec_ty(cur, &f.ty, params, &fields, &child_mask);
                    let syntax_fail = child_pd.has_syntax_error();
                    fields.push((f.name, value));
                    if !syntax_fail && child_mask.base().checks() {
                        if let Some(c) = &f.constraint {
                            let verdict = match c {
                                // The constraint references only this
                                // field and earlier siblings: no
                                // environment needed.
                                CPred::Fast(p) => match fields.last() {
                                    Some((_, v)) => pexpr_bool(p, v, &fields),
                                    None => Err(ErrorCode::EvalError),
                                },
                                CPred::Generic(c) => {
                                    let mut env = self.env(params, &fields);
                                    eval::eval_bool(c, &mut env)
                                }
                            };
                            let loc = Loc::new(start, cur.position());
                            child_pd.add_verdict(verdict, ErrorCode::ConstraintViolation, loc);
                        }
                    }
                    pd.absorb(&child_pd);
                    if !child_pd.is_ok() {
                        pds.push((f.name, child_pd));
                    }
                    if syntax_fail {
                        pd.state = ParseState::Partial;
                        aborted = true;
                        break;
                    }
                }
            }
            i += 1;
        }
        if aborted {
            for m in members.iter().skip(i + 1) {
                if let CMember::Field(f) = m {
                    fields.push((f.name, self.default_cty(&f.ty)));
                }
            }
        }
        if !aborted && mask.compound().checks() {
            // Struct clauses always compile to `Generic` (the sorted
            // lowering is array-only).
            if let Some(CWhere::Generic(w)) = &def.where_clause {
                let verdict = eval::eval_bool(w, &mut self.env(params, &fields));
                pd.add_verdict(verdict, ErrorCode::WhereViolation, Loc::at(cur.position()));
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (Value::Struct { fields }, pd)
    }

    fn exec_ty(
        &self,
        cur: &mut Cursor<'_>,
        ty: &'p CTy,
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        match ty {
            CTy::Opt(inner) => {
                let cp = cur.checkpoint();
                let (value, pd) = self.exec_ty(cur, inner, params, fields, mask);
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
            CTy::Base { bt, args, default } => match args {
                CArgs::None => self.exec_base(cur, bt, &[], mask),
                CArgs::Const(prims) => self.exec_base(cur, bt, prims, mask),
                CArgs::Dyn(exprs) => match self.eval_dyn_args(exprs, params, fields) {
                    Ok(prims) => self.exec_base(cur, bt, &prims, mask),
                    Err(code) => (
                        Value::Prim(default.clone()),
                        ParseDesc::error(code, Loc::at(cur.position())),
                    ),
                },
            },
            CTy::MissingBase => (
                Value::Prim(Prim::Unit),
                ParseDesc::error(ErrorCode::InternalError, Loc::at(cur.position())),
            ),
            CTy::Named { id, args } => match args {
                CArgs::None => self.exec_def(cur, *id, &[], mask),
                CArgs::Const(prims) => self.exec_def(cur, *id, prims, mask),
                CArgs::Dyn(exprs) => match self.eval_dyn_args(exprs, params, fields) {
                    Ok(prims) => self.exec_def(cur, *id, &prims, mask),
                    Err(code) => (
                        self.default_cty(ty),
                        ParseDesc::error(code, Loc::at(cur.position())),
                    ),
                },
            },
        }
    }

    fn eval_dyn_args(
        &self,
        exprs: &'p [Expr],
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
    ) -> Result<Vec<Prim>, ErrorCode> {
        let mut env = self.env(params, fields);
        exprs.iter().map(|a| eval::eval_prim(a, &mut env)).collect()
    }

    fn exec_base(
        &self,
        cur: &mut Cursor<'_>,
        bt: &Arc<dyn BaseType>,
        args: &[Prim],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
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
    fn exec_switched(
        &self,
        cur: &mut Cursor<'_>,
        def: &'p CDef,
        sel: &'p Expr,
        names: &'p [Name],
        branches: &'p [CBranch],
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let sel = eval::eval(sel, &mut self.env(params, &[])).map(Ev::into_value);
        let chosen = sel.map(|sel| self.select(&sel, branches, params));
        read_switched(
            cur,
            mask,
            names,
            chosen,
            |cur, index, m| match (branches.get(index), names.get(index)) {
                (Some(b), Some(&branch)) => {
                    let (value, bpd) = self.exec_ty(cur, &b.ty, params, &[], m);
                    let holds = |c| self.holds(c, branch, &value, params);
                    let verdict = b.constraint.as_ref().map_or(Ok(true), holds);
                    (Value::Union { branch, index, value: Box::new(value) }, bpd, verdict)
                }
                _ => (def.default.clone(), ParseDesc::ok(), Ok(true)),
            },
            || def.default.clone(),
        )
    }

    /// The branch a switch selector's value picks: the first case equal to
    /// it, else the default case.
    fn select(
        &self,
        sel: &Value,
        branches: &'p [CBranch],
        params: &[(Name, Value)],
    ) -> Option<usize> {
        let mut default = None;
        for (index, b) in branches.iter().enumerate() {
            let picked = match &b.case {
                Some(CCase::Const(case)) => case_eq(sel, case),
                Some(CCase::Dyn(e)) => eval::eval(e, &mut self.env(params, &[]))
                    .is_ok_and(|case| case_eq(sel, case.value())),
                Some(CCase::Default) => {
                    default = Some(index);
                    false
                }
                None => false,
            };
            if picked {
                return Some(index);
            }
        }
        default
    }

    fn exec_array(
        &self,
        cur: &mut Cursor<'_>,
        def: &'p CDef,
        arr: &'p CArray,
        params: &[(Name, Value)],
        mask: &Mask,
    ) -> (Value, ParseDesc) {
        let size = arr.size.as_ref().map(|size| match size {
            CSize::Const(n) => Some(*n),
            CSize::ConstBad => None,
            CSize::Dyn(e) => {
                let n = eval::eval_prim(e, &mut self.env(params, &[])).ok();
                n.and_then(|p| p.as_u64()).map(|n| n as usize)
            }
        });
        let (elts, pd) = read_array(
            cur,
            mask,
            &arr.shape,
            size,
            |cur, m| self.exec_ty(cur, &arr.elem, params, &[], m),
            |elts| arr.ended.as_ref().is_some_and(|e| self.eval_elts(e, elts, params) == Ok(true)),
            |elts| match &def.where_clause {
                Some(CWhere::Sorted { field, op }) => eval_sorted(field, *op, elts),
                Some(CWhere::Generic(w)) => self.eval_elts(w, elts, params),
                None => Ok(true),
            },
        );
        (Value::Array(elts), pd)
    }

    /// Evaluates `e` with `elts` and `length` bound to the elements read so
    /// far, which it hands back.
    fn eval_elts(
        &self,
        e: &Expr,
        elts: &mut Vec<Value>,
        params: &[(Name, Value)],
    ) -> Result<bool, ErrorCode> {
        let arr = Value::Array(std::mem::take(elts));
        let len = Value::Prim(Prim::Uint(arr.len().unwrap_or(0) as u64));
        let bound = [(Name::from_static("elts"), arr), (Name::from_static("length"), len)];
        let verdict = eval::eval_bool(e, &mut self.env(params, &bound));
        if let [(_, Value::Array(back)), _] = bound {
            *elts = back;
        }
        verdict
    }

    /// A union branch's or typedef's constraint on `value`, bound to `var`.
    fn holds(
        &self,
        pred: &CPred,
        var: Name,
        value: &Value,
        params: &[(Name, Value)],
    ) -> Result<bool, ErrorCode> {
        match pred {
            CPred::Fast(p) => pexpr_bool(p, value, &[]),
            CPred::Generic(c) => {
                let bound = [(var, value.clone())];
                eval::eval_bool(c, &mut self.env(params, &bound))
            }
        }
    }

    fn default_cty(&self, ty: &CTy) -> Value {
        match ty {
            CTy::Opt(_) => Value::Opt(None),
            CTy::Base { default, .. } => Value::Prim(default.clone()),
            CTy::MissingBase => Value::Prim(Prim::Unit),
            CTy::Named { id, .. } => self
                .prog
                .defs
                .get(*id)
                .map(|d| d.default.clone())
                .unwrap_or(Value::Prim(Prim::Unit)),
        }
    }
}

/// Case-label comparison: numeric labels compare as integers across
/// signedness, anything else structurally (interpreter semantics).
fn case_eq(sel: &Value, case: &Value) -> bool {
    match (sel.as_i64(), case.as_i64()) {
        (Some(a), Some(b)) => a == b,
        _ => sel == case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptions;

    fn kind<'p>(prog: &'p VmProgram, schema: &Schema, name: &str) -> &'p CKind {
        let id = schema.type_id(name).expect("bundled type declared");
        &prog.defs[id].kind
    }

    /// The two specialisations a benchmark workload pays for (`docs/VM.md`)
    /// must keep firing on the descriptions those workloads run: demoted to
    /// `Generic`, output stays identical and only the stopwatch notices.
    #[test]
    fn bundled_descriptions_lower_to_the_paying_specialisations() {
        let registry = Registry::standard();
        let sirius = descriptions::sirius();
        let prog = compile(&sirius, &registry, Charset::Ascii);
        let id = sirius.type_id("eventSeq").expect("eventSeq declared");
        assert!(
            matches!(prog.defs[id].where_clause, Some(CWhere::Sorted { .. })),
            "eventSeq's Pwhere lowers to CWhere::Sorted"
        );

        let clf = descriptions::clf();
        let prog = compile(&clf, &registry, Charset::Ascii);
        let fast = |p: &Option<CPred>| matches!(p, Some(CPred::Fast(_)));
        let CKind::Union { branches, .. } = kind(&prog, &clf, "auth_id_t") else {
            panic!("auth_id_t is a union")
        };
        assert!(fast(&branches[0].constraint), "`unauthorized == '-'` lowers to CPred::Fast");
        let CKind::Typedef { pred, .. } = kind(&prog, &clf, "response_t") else {
            panic!("response_t is a typedef")
        };
        assert!(fast(pred), "response_t's range lowers to CPred::Fast");
        let CKind::Struct { members, .. } = kind(&prog, &clf, "request_t") else {
            panic!("request_t is a struct")
        };
        let version = members.iter().find_map(|m| match m {
            CMember::Field(f) if f.name == "version" => Some(f),
            _ => None,
        });
        assert!(
            version.is_some_and(|f| fast(&f.constraint)),
            "the chkVersion call lowers to CPred::Fast"
        );
    }
}
