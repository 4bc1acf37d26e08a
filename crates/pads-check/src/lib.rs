//! Semantic analysis for PADS descriptions.
//!
//! Turns a parsed [`pads_syntax::Program`] into a checked
//! [`ir::Schema`], enforcing the language's static rules:
//!
//! * types are declared before use (§3 of the paper: "types are declared
//!   before they are used"), which also rules out recursion;
//! * base-type references exist in the runtime registry with the right
//!   number of parameters; declared-type references pass the right number
//!   of arguments;
//! * field and branch names are unique per type, enum variants unique
//!   per description;
//! * constraint expressions only mention names in scope — earlier fields
//!   (and the constrained field itself), type parameters, enum variants,
//!   functions, and the array pseudo-variables `elts`/`length`;
//! * switched unions label every branch, ordered unions label none;
//! * regular-expression literals compile.
//!
//! # Examples
//!
//! ```
//! use pads_runtime::Registry;
//!
//! let schema = pads_check::compile(
//!     r#"
//!     Pstruct pair_t {
//!         Puint32 lo;
//!         ','; Puint32 hi : lo <= hi;
//!     };
//!     "#,
//!     &Registry::standard(),
//! )?;
//! assert_eq!(schema.source_def().name, "pair_t");
//! # Ok::<(), pads_check::CompileError>(())
//! ```

pub mod diff;
pub mod facts;
pub mod ir;
pub mod lint;
pub mod types;

use std::collections::HashSet;

use pads_runtime::ops::{self, Scalar};
use pads_runtime::{ErrorCode, Registry};
use pads_syntax::ast::{
    BinOp, CaseLabel, Decl, DeclKind, Expr, Literal, Member, Program, Stmt, TyExpr,
};
use pads_syntax::{Span, SyntaxError};

use ir::{BranchIr, FieldIr, MemberIr, Schema, TypeDef, TypeKind, TyUse};
use types::{ETy, Scope, Typer};

/// Applies a binary operator through [`pads_runtime::ops`], for the
/// evaluator and the lint's constant folding (generated code calls `ops` by
/// name). `&&` and `||` short-circuit in their callers and are `EvalError`
/// here, as is any operator's failure.
#[inline]
pub fn apply(op: BinOp, a: Scalar<'_>, b: Scalar<'_>) -> Result<Scalar<'static>, ErrorCode> {
    let holds = |verdict: Result<bool, ErrorCode>| verdict.map(Scalar::Bool);
    match op {
        BinOp::Eq => holds(ops::eq(a, b)),
        BinOp::Ne => holds(ops::ne(a, b)),
        BinOp::Lt => holds(ops::lt(a, b)),
        BinOp::Le => holds(ops::le(a, b)),
        BinOp::Gt => holds(ops::gt(a, b)),
        BinOp::Ge => holds(ops::ge(a, b)),
        BinOp::Add => ops::add(a, b),
        BinOp::Sub => ops::sub(a, b),
        BinOp::Mul => ops::mul(a, b),
        BinOp::Div => ops::div(a, b),
        BinOp::Rem => ops::rem(a, b),
        BinOp::And | BinOp::Or => Err(ErrorCode::EvalError),
    }
}

/// A single semantic error with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    msg: String,
    span: Span,
}

impl CheckError {
    fn new(msg: impl Into<String>, span: Span) -> CheckError {
        CheckError { msg: msg.into(), span }
    }

    /// Where the error occurred.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The error message without the span prefix.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "check error at {}: {}", self.span, self.msg)
    }
}

impl std::error::Error for CheckError {}

/// Error from the combined parse+check pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The description failed to parse.
    Syntax(SyntaxError),
    /// The description parsed but failed the semantic checks.
    Check(Vec<CheckError>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Syntax(e) => write!(f, "{e}"),
            CompileError::Check(errs) => {
                for (i, e) in errs.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SyntaxError> for CompileError {
    fn from(e: SyntaxError) -> Self {
        CompileError::Syntax(e)
    }
}

/// Parses and checks a description in one step.
///
/// # Errors
///
/// [`CompileError::Syntax`] for parse failures, [`CompileError::Check`]
/// with every detected semantic error otherwise.
pub fn compile(src: &str, registry: &Registry) -> Result<Schema, CompileError> {
    let prog = pads_syntax::parse(src)?;
    check(&prog, registry).map_err(CompileError::Check)
}

/// Parses, checks, and lints a description in one step.
///
/// On success the returned [`lint::Diagnostics`] holds every lint finding
/// (sorted by span and code); semantic errors still abort compilation.
///
/// # Errors
///
/// Same contract as [`compile`].
pub fn compile_with_lints(
    src: &str,
    registry: &Registry,
) -> Result<(Schema, lint::Diagnostics), CompileError> {
    let schema = compile(src, registry)?;
    let diags = lint::lint_schema(&schema);
    Ok((schema, diags))
}

/// Checks a parsed program against a base-type registry.
///
/// # Errors
///
/// Every semantic error found (the checker does not stop at the first).
pub fn check(prog: &Program, registry: &Registry) -> Result<Schema, Vec<CheckError>> {
    let mut ck = Checker { registry, schema: Schema::default(), errors: Vec::new() };
    ck.run(prog);
    if ck.errors.is_empty() {
        Ok(ck.schema)
    } else {
        // Deterministic output: golden tests and CI logs rely on a stable
        // order regardless of the internal traversal.
        ck.errors.sort_by(|a, b| {
            (a.span.start, a.span.end, &a.msg).cmp(&(b.span.start, b.span.end, &b.msg))
        });
        Err(ck.errors)
    }
}

struct Checker<'r> {
    registry: &'r Registry,
    schema: Schema,
    errors: Vec<CheckError>,
}

/// What an expression context demands of the expression's type.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Require {
    Bool,
    Num,
    Any,
}

impl<'r> Checker<'r> {
    fn err(&mut self, msg: impl Into<String>, span: Span) {
        self.errors.push(CheckError::new(msg, span));
    }

    fn typer(&self) -> Typer<'_> {
        Typer { schema: &self.schema, registry: self.registry }
    }

    /// Name-scope check plus static typing for one expression.
    fn check_expr_typed(
        &mut self,
        e: &Expr,
        scope: &Scope<'_>,
        span: Span,
        require: Require,
    ) {
        // Name scoping (unbound identifiers, unknown calls, arity).
        let names: Vec<&str> = scope.iter().map(|(n, _)| *n).collect();
        self.check_expr(e, &names, span);
        // Typing.
        let mut errs = Vec::new();
        {
            let typer = self.typer();
            match require {
                Require::Bool => typer.require_bool(e, scope, &mut errs),
                Require::Num => typer.require_num(e, scope, &mut errs),
                Require::Any => {
                    let _ = typer.infer(e, scope, &mut errs);
                }
            }
        }
        for m in errs {
            self.err(m, span);
        }
    }

    /// The ETy named by a parameter annotation, with an error on unknown
    /// annotation names.
    fn param_ety(&mut self, ty: &str, span: Span) -> ETy {
        match self.typer().annot_ety(ty) {
            Some(t) => t,
            None => {
                self.err(format!("unknown parameter type `{ty}`"), span);
                ETy::Unknown
            }
        }
    }

    fn run(&mut self, prog: &Program) {
        if prog.decls.is_empty() {
            self.err("description declares no types", Span::default());
            return;
        }
        // Functions are visible everywhere (the paper interleaves them).
        for f in &prog.funcs {
            if self.schema.funcs.insert(f.name.clone(), f.clone()).is_some() {
                self.err(format!("duplicate function `{}`", f.name), f.span);
            }
        }
        let mut source_span: Option<Span> = None;
        for d in &prog.decls {
            if self.schema.type_id(&d.name).is_some() {
                self.err(format!("duplicate type `{}`", d.name), d.span);
                continue;
            }
            if self.registry.contains(&d.name) {
                self.err(
                    format!("type `{}` shadows a base type of the same name", d.name),
                    d.span,
                );
            }
            let def = self.check_decl(d);
            let id = self.schema.insert(def);
            if d.is_source {
                if let Some(prev) = source_span {
                    self.err(
                        format!("multiple Psource declarations (first at {prev})"),
                        d.span,
                    );
                }
                source_span = Some(d.span);
                self.schema.set_source(id);
            }
        }
        if source_span.is_none() {
            // PADS convention: the type describing the whole source is the
            // last declaration.
            self.schema.set_source(self.schema.types.len() - 1);
        }
        // Check function bodies once all enum variants are known.
        for f in prog.funcs.iter() {
            let mut scope: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
            let mut seen = HashSet::new();
            for p in &f.params {
                if !seen.insert(p.name.as_str()) {
                    self.err(format!("duplicate parameter `{}`", p.name), f.span);
                }
                let _ = self.param_ety(&p.ty, f.span);
            }
            self.check_stmts(&f.body, &mut scope, f.span);
            if !Self::always_returns(&f.body) {
                self.err(
                    format!("function `{}` may finish without returning", f.name),
                    f.span,
                );
            }
            // Static typing of the body (conditions, returns, arguments).
            let mut errs = Vec::new();
            self.typer().check_func(f, &mut errs);
            for m in errs {
                self.err(m, f.span);
            }
        }
    }

    fn always_returns(body: &[Stmt]) -> bool {
        body.iter().any(|s| match s {
            Stmt::Return(_) => true,
            Stmt::If { then_body, else_body, .. } => {
                !else_body.is_empty()
                    && Self::always_returns(then_body)
                    && Self::always_returns(else_body)
            }
        })
    }

    fn check_stmts<'a>(&mut self, body: &'a [Stmt], scope: &mut Vec<&'a str>, span: Span) {
        for s in body {
            match s {
                Stmt::Return(e) => self.check_expr(e, scope, span),
                Stmt::If { cond, then_body, else_body } => {
                    self.check_expr(cond, scope, span);
                    self.check_stmts(then_body, scope, span);
                    self.check_stmts(else_body, scope, span);
                }
            }
        }
    }

    fn check_decl(&mut self, d: &Decl) -> TypeDef {
        let mut seen = HashSet::new();
        let mut params: Scope<'_> = Vec::new();
        for p in &d.params {
            if !seen.insert(p.name.as_str()) {
                self.err(format!("duplicate parameter `{}`", p.name), d.span);
            }
            let t = self.param_ety(&p.ty, d.span);
            params.push((&p.name, t));
        }
        let kind = match &d.kind {
            DeclKind::Struct { members } => self.check_struct(d, members, &params),
            DeclKind::Union { switch, branches } => {
                self.check_union(d, switch, branches, &params)
            }
            DeclKind::Array { elem, cond } => self.check_array(d, elem, cond, &params),
            DeclKind::Enum { variants } => self.check_enum(d, variants),
            DeclKind::Typedef { base, var, pred } => {
                let base_ir = self.resolve_ty_with_scope(base, &params);
                if let Some(p) = pred {
                    let mut scope = params.clone();
                    if let Some(v) = var {
                        let t = self.typer().tyuse_ety(&base_ir);
                        scope.push((v, t));
                    }
                    self.check_expr_typed(p, &scope, d.span, Require::Bool);
                }
                TypeKind::Typedef { base: base_ir, var: var.clone(), pred: pred.clone() }
            }
        };
        // Pwhere scope: parameters plus the names the body introduces.
        if let Some(w) = &d.where_clause {
            let mut scope = params.clone();
            match &kind {
                TypeKind::Struct { members } => {
                    for m in members {
                        if let MemberIr::Field(f) = m {
                            let t = self.typer().tyuse_ety(&f.ty);
                            scope.push((&f.name, t));
                        }
                    }
                }
                TypeKind::Union { branches, .. } => {
                    for b in branches {
                        let t = self.typer().tyuse_ety(&b.field.ty);
                        scope.push((&b.field.name, t));
                    }
                }
                TypeKind::Array { elem, .. } => {
                    let t = self.typer().tyuse_ety(elem);
                    scope.push(("elts", ETy::Array(Box::new(t))));
                    scope.push(("length", ETy::Num));
                }
                _ => {}
            }
            self.check_expr_typed(w, &scope, d.span, Require::Bool);
        }
        TypeDef {
            name: d.name.clone(),
            params: d.params.clone(),
            is_record: d.is_record,
            is_source: d.is_source,
            where_clause: d.where_clause.clone(),
            kind,
            span: d.span,
        }
    }

    fn check_struct(
        &mut self,
        d: &Decl,
        members: &[Member],
        params: &Scope<'_>,
    ) -> TypeKind {
        let mut out = Vec::new();
        let mut scope = params.clone();
        let mut names = HashSet::new();
        for m in members {
            match m {
                Member::Lit(l) => {
                    self.check_literal(l, d.span);
                    out.push(MemberIr::Lit(l.clone()));
                }
                Member::Field(f) => {
                    if !names.insert(f.name.as_str()) {
                        self.err(format!("duplicate field `{}`", f.name), f.span);
                    }
                    let ty = self.resolve_ty_with_scope(&f.ty, &scope);
                    let field_ety = self.typer().tyuse_ety(&ty);
                    scope.push((&f.name, field_ety));
                    if let Some(c) = &f.constraint {
                        self.check_expr_typed(c, &scope, f.span, Require::Bool);
                    }
                    out.push(MemberIr::Field(FieldIr {
                        name: f.name.clone(),
                        ty,
                        constraint: f.constraint.clone(),
                        span: f.span,
                    }));
                }
            }
        }
        TypeKind::Struct { members: out }
    }

    fn check_union(
        &mut self,
        d: &Decl,
        switch: &Option<Expr>,
        branches: &[pads_syntax::ast::Branch],
        params: &Scope<'_>,
    ) -> TypeKind {
        if let Some(sel) = switch {
            self.check_expr_typed(sel, params, d.span, Require::Num);
        }
        if branches.is_empty() {
            self.err("union has no branches", d.span);
        }
        let mut out = Vec::new();
        let mut names = HashSet::new();
        let mut defaults = 0;
        for b in branches {
            if !names.insert(b.field.name.as_str()) {
                self.err(format!("duplicate branch `{}`", b.field.name), b.field.span);
            }
            match (&b.case, switch) {
                (Some(_), None) => {
                    self.err("Pcase label outside a Pswitch union", b.field.span)
                }
                (None, Some(_)) => {
                    self.err("branch in a Pswitch union needs a Pcase or Pdefault", b.field.span)
                }
                _ => {}
            }
            if let Some(CaseLabel::Default) = b.case {
                defaults += 1;
                if defaults > 1 {
                    self.err("multiple Pdefault branches", b.field.span);
                }
            }
            if let Some(CaseLabel::Expr(e)) = &b.case {
                self.check_expr_typed(e, params, b.field.span, Require::Num);
            }
            let ty = self.resolve_ty_with_scope(&b.field.ty, params);
            let branch_ety = self.typer().tyuse_ety(&ty);
            let mut scope = params.clone();
            scope.push((&b.field.name, branch_ety));
            if let Some(c) = &b.field.constraint {
                self.check_expr_typed(c, &scope, b.field.span, Require::Bool);
            }
            out.push(BranchIr {
                case: b.case.clone(),
                field: FieldIr {
                    name: b.field.name.clone(),
                    ty,
                    constraint: b.field.constraint.clone(),
                    span: b.field.span,
                },
            });
        }
        TypeKind::Union { switch: switch.clone(), branches: out }
    }

    fn check_array(
        &mut self,
        d: &Decl,
        elem: &TyExpr,
        cond: &pads_syntax::ast::ArrayCond,
        params: &Scope<'_>,
    ) -> TypeKind {
        let elem_ir = self.resolve_ty_with_scope(elem, params);
        if let Some(sep) = &cond.sep {
            self.check_literal(sep, d.span);
            if matches!(sep, Literal::Eor | Literal::Eof) {
                self.err("Psep cannot be Peor or Peof", d.span);
            }
        }
        if let Some(term) = &cond.term {
            self.check_literal(term, d.span);
        }
        if let Some(sz) = &cond.size {
            self.check_expr_typed(sz, params, d.span, Require::Num);
        }
        if let Some(ended) = &cond.ended {
            let mut scope = params.clone();
            let elem_ety = self.typer().tyuse_ety(&elem_ir);
            scope.push(("elts", ETy::Array(Box::new(elem_ety))));
            scope.push(("length", ETy::Num));
            self.check_expr_typed(ended, &scope, d.span, Require::Bool);
        }
        TypeKind::Array {
            elem: elem_ir,
            sep: cond.sep.clone(),
            term: cond.term.clone(),
            ended: cond.ended.clone(),
            size: cond.size.clone(),
        }
    }

    fn check_enum(&mut self, d: &Decl, variants: &[String]) -> TypeKind {
        let id = self.schema.types.len(); // the id this def will get
        for (i, v) in variants.iter().enumerate() {
            if let Some((prev, _)) = self.schema.enum_variants.get(v) {
                let prev_name = self.schema.def(*prev).name.clone();
                self.err(
                    format!("enum variant `{v}` already defined in `{prev_name}`"),
                    d.span,
                );
            } else {
                self.schema.enum_variants.insert(v.clone(), (id, i));
            }
        }
        if variants.is_empty() {
            self.err("enum has no variants", d.span);
        }
        TypeKind::Enum { variants: variants.to_vec() }
    }

    fn check_literal(&mut self, l: &Literal, span: Span) {
        match l {
            Literal::Regex(pat) => {
                if let Err(e) = pads_regex::Regex::new(pat) {
                    self.err(format!("invalid regex literal: {e}"), span);
                }
            }
            Literal::Str(s) if s.is_empty() => {
                self.err("empty string literal matches nothing", span);
            }
            _ => {}
        }
    }

    fn resolve_ty_with_scope(&mut self, ty: &TyExpr, scope: &Scope<'_>) -> TyUse {
        match ty {
            TyExpr::Opt(inner) => {
                TyUse::Opt(Box::new(self.resolve_ty_with_scope(inner, scope)))
            }
            TyExpr::App(app) => {
                for a in &app.args {
                    self.check_expr_typed(a, scope, app.span, Require::Any);
                }
                if let Some(id) = self.schema.type_id(&app.name) {
                    let want = self.schema.def(id).params.len();
                    if app.args.len() != want {
                        self.err(
                            format!(
                                "type `{}` takes {} parameter(s), {} given",
                                app.name,
                                want,
                                app.args.len()
                            ),
                            app.span,
                        );
                    }
                    TyUse::Named { id, args: app.args.clone() }
                } else if let Some(bt) = self.registry.get(&app.name) {
                    let (lo, hi) = bt.arity();
                    if app.args.len() < lo || app.args.len() > hi {
                        self.err(
                            format!(
                                "base type `{}` takes {} parameter(s), {} given",
                                app.name,
                                if lo == hi {
                                    lo.to_string()
                                } else {
                                    format!("{lo}..{hi}")
                                },
                                app.args.len()
                            ),
                            app.span,
                        );
                    }
                    TyUse::Base { name: app.name.clone(), args: app.args.clone() }
                } else {
                    self.err(
                        format!(
                            "unknown type `{}` (types must be declared before use)",
                            app.name
                        ),
                        app.span,
                    );
                    TyUse::Base { name: app.name.clone(), args: app.args.clone() }
                }
            }
        }
    }

    /// Checks that every free identifier in `e` is in scope: local names,
    /// enum variants, or (for calls) functions.
    fn check_expr(&mut self, e: &Expr, scope: &[&str], span: Span) {
        self.check_calls(e, span);
        for name in e.free_idents() {
            let known = scope.contains(&name)
                || self.schema.enum_variants.contains_key(name)
                || self.schema.funcs.contains_key(name);
            if !known {
                self.err(format!("name `{name}` is not in scope"), span);
            }
        }
    }

    fn check_calls(&mut self, e: &Expr, span: Span) {
        match e {
            Expr::Call(name, args) => {
                match self.schema.funcs.get(name) {
                    None => self.err(format!("call to unknown function `{name}`"), span),
                    Some(f) => {
                        if f.params.len() != args.len() {
                            self.err(
                                format!(
                                    "function `{name}` takes {} argument(s), {} given",
                                    f.params.len(),
                                    args.len()
                                ),
                                span,
                            );
                        }
                    }
                }
                for a in args {
                    self.check_calls(a, span);
                }
            }
            Expr::Field(a, _) => self.check_calls(a, span),
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                self.check_calls(a, span);
                self.check_calls(b, span);
            }
            Expr::Unary(_, a) => self.check_calls(a, span),
            Expr::Ternary(a, b, c) => {
                self.check_calls(a, span);
                self.check_calls(b, span);
                self.check_calls(c, span);
            }
            Expr::Forall { lo, hi, body, .. } => {
                self.check_calls(lo, span);
                self.check_calls(hi, span);
                self.check_calls(body, span);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::standard()
    }

    fn ok(src: &str) -> Schema {
        compile(src, &reg()).unwrap_or_else(|e| panic!("expected ok, got:\n{e}"))
    }

    fn errs(src: &str) -> Vec<CheckError> {
        match compile(src, &reg()) {
            Err(CompileError::Check(e)) => e,
            Err(CompileError::Syntax(e)) => panic!("syntax error, not check error: {e}"),
            Ok(_) => panic!("expected check errors"),
        }
    }

    #[test]
    fn resolves_base_and_named_types() {
        let s = ok(r#"
            Pstruct inner_t { Puint8 x; };
            Pstruct outer_t { inner_t a; ','; Pstring(:',':) b; };
        "#);
        assert_eq!(s.types.len(), 2);
        assert_eq!(s.source_def().name, "outer_t");
        match &s.def(1).kind {
            TypeKind::Struct { members } => {
                match &members[0] {
                    MemberIr::Field(f) => assert!(matches!(f.ty, TyUse::Named { id: 0, .. })),
                    other => panic!("expected field, got {other:?}"),
                }
                match &members[2] {
                    MemberIr::Field(f) => {
                        assert!(matches!(&f.ty, TyUse::Base { name, .. } if name == "Pstring"))
                    }
                    other => panic!("expected field, got {other:?}"),
                }
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn rejects_use_before_declaration() {
        let e = errs("Pstruct a_t { later_t x; };\nPstruct later_t { Puint8 y; };");
        assert!(e.iter().any(|e| e.to_string().contains("unknown type `later_t`")));
    }

    #[test]
    fn rejects_wrong_base_arity() {
        let e = errs("Pstruct t { Pstring x; };");
        assert!(e[0].to_string().contains("takes 1 parameter"));
        let e = errs("Pstruct t { Puint8(:3:) x; };");
        assert!(e[0].to_string().contains("takes 0 parameter"));
    }

    #[test]
    fn earlier_fields_are_in_scope_later_ones_not() {
        ok("Pstruct t { Puint8 a; Puint8 b : b >= a; };");
        let e = errs("Pstruct t { Puint8 a : a < b; Puint8 b; };");
        assert!(e[0].to_string().contains("`b` is not in scope"));
    }

    #[test]
    fn enum_variants_are_global_constants() {
        ok(r#"
            Penum method_t { GET, PUT };
            Pstruct t { method_t m : m == GET; };
        "#);
        let e = errs(r#"
            Penum a_t { X };
            Penum b_t { X };
        "#);
        assert!(e[0].to_string().contains("already defined"));
    }

    #[test]
    fn function_checks() {
        ok(r#"
            bool both(int a, int b) { return a == b; };
            Pstruct t { Puint8 x; Puint8 y : both(x, y); };
        "#);
        let e = errs(r#"
            bool f(int a) { return a == 1; };
            Pstruct t { Puint8 x : f(x, x); };
        "#);
        assert!(e[0].to_string().contains("takes 1 argument"));
        let e = errs(r#"
            bool f(int a) { if (a == 1) return true; };
            Pstruct t { Puint8 x : f(x); };
        "#);
        assert!(e[0].to_string().contains("without returning"));
    }

    #[test]
    fn switched_union_rules() {
        ok(r#"
            Punion u_t (:Puint8 k:) Pswitch(k) {
                Pcase 0: Puint32 n;
                Pdefault: Pvoid other;
            };
        "#);
        // Missing labels in a switched union (and labels in an ordered
        // one) are already rejected by the parser.
        assert!(matches!(
            compile("Punion u_t (:Puint8 k:) Pswitch(k) { Puint32 n; };", &reg()),
            Err(CompileError::Syntax(_))
        ));
        assert!(matches!(
            compile("Punion u_t { Pcase 0: Puint32 n; };", &reg()),
            Err(CompileError::Syntax(_))
        ));
        // Duplicate Pdefault is a semantic error.
        let e = errs(r#"
            Punion u_t (:Puint8 k:) Pswitch(k) {
                Pdefault: Puint32 n;
                Pdefault: Pvoid other;
            };
        "#);
        assert!(e[0].to_string().contains("multiple Pdefault"));
    }

    #[test]
    fn array_pseudo_variables() {
        ok(r#"
            Pstruct e_t { Puint32 v; };
            Parray seq_t { e_t[] : Pterm(Peor); } Pwhere {
                Pforall (i Pin [0..length-2] : elts[i].v <= elts[i+1].v);
            };
        "#);
        let e = errs("Parray a_t { Puint8[] : Psep(Peor); };");
        assert!(e[0].to_string().contains("Psep cannot"));
    }

    #[test]
    fn bad_regex_literal_is_reported() {
        let e = errs(r#"Pstruct t { Pre "("; Puint8 x; };"#);
        assert!(e[0].to_string().contains("invalid regex"));
    }

    #[test]
    fn duplicate_names() {
        let e = errs("Pstruct t { Puint8 x; };\nPstruct t { Puint8 y; };");
        assert!(e[0].to_string().contains("duplicate type"));
        let e = errs("Pstruct t { Puint8 x; ' '; Puint8 x; };");
        assert!(e[0].to_string().contains("duplicate field"));
    }

    #[test]
    fn shadowing_base_types_is_an_error() {
        let e = errs("Pstruct Puint8 { Puint16 x; };");
        assert!(e[0].to_string().contains("shadows a base type"));
    }

    #[test]
    fn parameterised_declared_types() {
        ok(r#"
            Parray bytes_t (:Puint32 n:) { Puint8[n]; };
            Pstruct packet_t { Puint32 len; ':'; bytes_t(:len:) body; };
        "#);
        let e = errs(r#"
            Parray bytes_t (:Puint32 n:) { Puint8[n]; };
            Pstruct packet_t { bytes_t body; };
        "#);
        assert!(e[0].to_string().contains("takes 1 parameter"));
    }

    #[test]
    fn constraints_must_be_boolean() {
        let e = errs("Pstruct t { Puint8 x : x + 1; };");
        assert!(e[0].to_string().contains("must be a bool"), "{e:?}");
        let e = errs("Pstruct t { Puint8 x; } Pwhere { x };");
        assert!(e[0].to_string().contains("must be a bool"), "{e:?}");
    }

    #[test]
    fn arithmetic_on_strings_is_rejected() {
        let e = errs("Pstruct t { Pstring(:'|':) s : s + 1 == 2; };");
        assert!(e[0].to_string().contains("needs numbers"), "{e:?}");
        let e = errs("Pstruct t { Pstring(:'|':) s : s < 3; };");
        assert!(e[0].to_string().contains("cannot compare"), "{e:?}");
    }

    #[test]
    fn projections_are_typechecked() {
        let e = errs(
            r#"
            Pstruct inner_t { Puint8 a; };
            Pstruct t { inner_t i; ','; Puint8 y : i.nosuch == 1; };
            "#,
        );
        assert!(e[0].to_string().contains("no field or branch `nosuch`"), "{e:?}");
        let e = errs("Pstruct t { Puint8 x : x.field == 1; };");
        assert!(e[0].to_string().contains("cannot project"), "{e:?}");
        let e = errs("Pstruct t { Puint8 x : x[0] == 1; };");
        assert!(e[0].to_string().contains("cannot index"), "{e:?}");
    }

    #[test]
    fn function_signatures_are_typechecked() {
        let e = errs(
            r#"
            bool f(string s) { return s == "x"; };
            Pstruct t { Puint8 n : f(n); };
            "#,
        );
        assert!(e[0].to_string().contains("expects string"), "{e:?}");
        let e = errs(
            r#"
            int g(int a) { return a == 1; };
            Pstruct t { Puint8 n : g(n) == 1; };
            "#,
        );
        assert!(e.iter().any(|e| e.to_string().contains("return type mismatch")), "{e:?}");
        let e = errs(
            r#"
            bool h(int a) { if (a + 1) return true; return false; };
            Pstruct t { Puint8 n : h(n); };
            "#,
        );
        assert!(e.iter().any(|e| e.to_string().contains("condition must be a bool")), "{e:?}");
    }

    #[test]
    fn switch_selectors_and_sizes_must_be_numeric() {
        let e = errs(
            r#"
            Punion u_t (:string s:) Pswitch(s) {
                Pcase 0: Puint8 a;
                Pdefault: Pvoid b;
            };
            "#,
        );
        assert!(e.iter().any(|e| e.to_string().contains("expected a number")), "{e:?}");
        let e = errs("Parray a_t (:string s:) { Puint8[s]; };");
        assert!(e.iter().any(|e| e.to_string().contains("expected a number")), "{e:?}");
    }

    #[test]
    fn bool_operators_need_bools() {
        let e = errs("Pstruct t { Puint8 x : x && true; };");
        assert!(e[0].to_string().contains("needs bools"), "{e:?}");
        let e = errs("Pstruct t { Puint8 x : !x; };");
        assert!(e[0].to_string().contains("needs a bool"), "{e:?}");
    }

    #[test]
    fn unknown_parameter_types_are_reported() {
        let e = errs("Pstruct t (:nosuch_t p:) { Puint8 x; };");
        assert!(e[0].to_string().contains("unknown parameter type"), "{e:?}");
    }

    #[test]
    fn opt_values_compare_transparently() {
        ok("Pstruct t { Popt Puint8 a; ','; Puint8 b : a == b || b > 0; };");
    }

    #[test]
    fn full_clf_description_checks() {
        ok(r#"
            Punion client_t { Pip ip; Phostname host; };
            Punion auth_id_t {
                Pchar unauthorized : unauthorized == '-';
                Pstring(:' ':) id;
            };
            Pstruct version_t { "HTTP/"; Puint8 major; '.'; Puint8 minor; };
            Penum method_t { GET, PUT, POST, HEAD, DELETE, LINK, UNLINK };
            bool chkVersion(version_t v, method_t m) {
                if ((v.major == 1) && (v.minor == 1)) return true;
                if ((m == LINK) || (m == UNLINK)) return false;
                return true;
            };
            Pstruct request_t {
                '\"'; method_t meth;
                ' '; Pstring(:' ':) req_uri;
                ' '; version_t version : chkVersion(version, meth);
                '\"';
            };
            Ptypedef Puint16_FW(:3:) response_t :
                response_t x => { 100 <= x && x < 600};
            Precord Pstruct entry_t {
                client_t client;
                ' '; auth_id_t remoteID;
                ' '; auth_id_t auth;
                " ["; Pdate(:']':) date;
                "] "; request_t request;
                ' '; response_t response;
                ' '; Puint32 length;
            };
            Psource Parray clt_t { entry_t[]; };
        "#);
    }
}
