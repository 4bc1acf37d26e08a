//! Rust source generation from a checked schema.
//!
//! For every type in a description the generator emits (mirroring §4 of the
//! paper, which emits C): a native representation type, a `read` function
//! returning `(rep, ParseDesc)` that honours masks and performs the same
//! error handling as the interpreting parser, a `write` function, and a
//! `verify` function re-checking semantic constraints in memory.
//! Generated modules link `pads_runtime::genrt` — the fixed runtime library
//! of base-type readers and writers — instead of carrying a copy.

use std::collections::HashMap;
use std::fmt::Write as _;

use pads_check::ir::{BranchIr, MemberIr, Schema, TypeId, TypeKind, TyUse};
use pads_syntax::ast::{BinOp, CaseLabel, Expr, FuncDecl, Literal, Stmt, UnOp};

/// A construct the generator cannot compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenError(String);

impl CodegenError {
    fn new(msg: impl Into<String>) -> CodegenError {
        CodegenError(msg.into())
    }
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.0)
    }
}

impl std::error::Error for CodegenError {}

type GenResult<T> = Result<T, CodegenError>;

/// Representation category of a compiled value; drives both Rust type
/// selection and expression compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    UInt(u32),
    Int(u32),
    Float,
    Char,
    Str,
    Date,
    Ip,
    Unit,
    Prim,
    Named(TypeId),
    Opt(Box<Repr>),
    /// Slice over elements (the `elts` pseudo-binding).
    Slice(Box<Repr>),
}

/// Generates a complete Rust module implementing parsers for `schema`.
///
/// `header` becomes the module doc comment (one line).
///
/// # Errors
///
/// [`CodegenError`] naming the unsupported construct, if any.
pub fn generate_rust(schema: &Schema, header: &str) -> GenResult<String> {
    let g = Gen {
        schema,
        lt: compute_lifetimes(schema),
        names: collect_arena_names(schema),
    };
    let mut out = String::new();
    let _ = writeln!(out, "//! {header}");
    out.push_str("//!\n//! @generated by pads-codegen — do not edit by hand.\n");
    out.push_str("#![allow(unused_mut, unused_variables, unused_parens, unused_assignments, unreachable_code, non_snake_case, non_camel_case_types, clippy::all)]\n");
    out.push_str("\npub use pads_runtime::genrt::*;\n\n");
    // Predicate functions first.
    let mut func_names: Vec<&String> = schema.funcs.keys().collect();
    func_names.sort();
    for name in func_names {
        g.gen_func(&schema.funcs[name], &mut out)?;
    }
    for id in 0..schema.types.len() {
        g.gen_type(id, &mut out)?;
    }
    g.gen_obs_table(&mut out);
    g.gen_name_table(&mut out);
    g.gen_entry_points(&mut out)?;
    Ok(out)
}

struct Gen<'s> {
    schema: &'s Schema,
    /// Per-type: whether the representation borrows from the input buffer
    /// (contains a `PStr<'d>` leaf, directly or transitively) and therefore
    /// carries a `<'d>` lifetime parameter.
    lt: Vec<bool>,
    /// Field/branch/variant names the `to_arena` lowerings reference, in
    /// the dense order the module's `name_table()` interns them — so the
    /// `NameId(i)` literals baked into generated code line up.
    names: Vec<String>,
}

/// Collects every field, union-branch, and enum-variant name in the
/// schema, deduplicated in first-use order (type-id order, member order
/// within a type). This is the interning order of the generated
/// `name_table()`.
fn collect_arena_names(schema: &Schema) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    let push = |n: &str, names: &mut Vec<String>| {
        if !names.iter().any(|x| x == n) {
            names.push(n.to_owned());
        }
    };
    for def in &schema.types {
        match &def.kind {
            TypeKind::Struct { members } => {
                for m in members {
                    if let MemberIr::Field(f) = m {
                        push(&f.name, &mut names);
                    }
                }
            }
            TypeKind::Union { branches, .. } => {
                for b in branches {
                    push(&b.field.name, &mut names);
                }
            }
            TypeKind::Enum { variants } => {
                for v in variants {
                    push(v, &mut names);
                }
            }
            TypeKind::Array { .. } | TypeKind::Typedef { .. } => {}
        }
    }
    names
}

/// Computes, by fixpoint over the type graph, which representations
/// transitively contain a string leaf (string leaves borrow the buffer,
/// so every type containing one is lifetime-parameterised).
fn compute_lifetimes(schema: &Schema) -> Vec<bool> {
    fn tyuse_borrows(ty: &TyUse, lt: &[bool]) -> bool {
        match ty {
            TyUse::Base { name, .. } => base_repr(name) == Repr::Str,
            TyUse::Named { id, .. } => lt[*id],
            TyUse::Opt(inner) => tyuse_borrows(inner, lt),
        }
    }
    let mut lt = vec![false; schema.types.len()];
    loop {
        let mut changed = false;
        for (id, def) in schema.types.iter().enumerate() {
            if lt[id] {
                continue;
            }
            let borrows = match &def.kind {
                TypeKind::Struct { members } => members.iter().any(|m| {
                    matches!(m, MemberIr::Field(f) if tyuse_borrows(&f.ty, &lt))
                }),
                TypeKind::Union { branches, .. } => {
                    branches.iter().any(|b| tyuse_borrows(&b.field.ty, &lt))
                }
                TypeKind::Array { elem, .. } => tyuse_borrows(elem, &lt),
                TypeKind::Typedef { base, .. } => tyuse_borrows(base, &lt),
                TypeKind::Enum { .. } => false,
            };
            if borrows {
                lt[id] = true;
                changed = true;
            }
        }
        if !changed {
            return lt;
        }
    }
}

/// `entry_t` → `EntryT`.
fn camel(name: &str) -> String {
    let mut out = String::new();
    let mut upper = true;
    for c in name.chars() {
        if c == '_' || c == '-' {
            upper = true;
        } else if upper {
            out.extend(c.to_uppercase());
            upper = false;
        } else {
            out.push(c);
        }
    }
    out
}

/// Sanitises a field name against Rust keywords.
fn field_name(name: &str) -> String {
    const KEYWORDS: &[&str] = &[
        "as", "box", "break", "const", "continue", "crate", "else", "enum", "extern", "fn",
        "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
        "return", "self", "static", "struct", "super", "trait", "true", "false", "type",
        "unsafe", "use", "where", "while", "async", "await", "dyn",
    ];
    if KEYWORDS.contains(&name) {
        format!("{name}_")
    } else {
        name.to_owned()
    }
}

fn bits_of(name: &str) -> u32 {
    name.trim_end_matches("_FW")
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(64)
}

/// The representation of base type `name`.
fn base_repr(name: &str) -> Repr {
    let stripped = name
        .strip_prefix("Pa_")
        .or_else(|| name.strip_prefix("Pe_"))
        .or_else(|| name.strip_prefix("Pb_"))
        .or_else(|| name.strip_prefix("P"))
        .unwrap_or(name);
    let core = stripped.trim_end_matches("_FW");
    if core.starts_with("uint") {
        Repr::UInt(bits_of(core))
    } else if core.starts_with("int") {
        Repr::Int(bits_of(core))
    } else if core.starts_with("string") || core == "hostname" || core == "zip" {
        Repr::Str
    } else if core == "char" {
        Repr::Char
    } else if core == "date" {
        Repr::Date
    } else if core == "ip" {
        Repr::Ip
    } else if core.starts_with("float") {
        Repr::Float
    } else if core == "void" {
        Repr::Unit
    } else if name == "Pebc_zoned" || name == "Ppacked" {
        Repr::Int(64)
    } else if name == "Pbits" {
        Repr::UInt(64)
    } else {
        Repr::Prim
    }
}

impl<'s> Gen<'s> {
    fn tyuse_repr(&self, ty: &TyUse) -> Repr {
        match ty {
            TyUse::Base { name, .. } => base_repr(name),
            TyUse::Named { id, .. } => Repr::Named(*id),
            TyUse::Opt(inner) => Repr::Opt(Box::new(self.tyuse_repr(inner))),
        }
    }

    fn rust_ty(&self, repr: &Repr) -> String {
        match repr {
            Repr::UInt(b) => format!("u{b}"),
            Repr::Int(b) => format!("i{b}"),
            Repr::Float => "f64".into(),
            Repr::Char => "u8".into(),
            Repr::Str => "PStr<'d>".into(),
            Repr::Date => "PDate".into(),
            Repr::Ip => "[u8; 4]".into(),
            Repr::Unit => "()".into(),
            Repr::Prim => "Prim".into(),
            Repr::Named(id) => format!("{}{}", camel(&self.schema.def(*id).name), self.lt_args(*id)),
            Repr::Opt(inner) => format!("Option<{}>", self.rust_ty(inner)),
            Repr::Slice(inner) => format!("[{}]", self.rust_ty(inner)),
        }
    }

    /// `<'d>` when the type's representation borrows the buffer, else `""`.
    fn lt_args(&self, id: TypeId) -> &'static str {
        if self.lt[id] {
            "<'d>"
        } else {
            ""
        }
    }

    /// The representation reached when projecting a field of a struct repr.
    fn field_repr(&self, id: TypeId, field: &str) -> GenResult<Repr> {
        let def = self.schema.def(id);
        match &def.kind {
            TypeKind::Struct { members } => {
                for m in members {
                    if let MemberIr::Field(f) = m {
                        if f.name == field {
                            return Ok(self.tyuse_repr(&f.ty));
                        }
                    }
                }
                Err(CodegenError::new(format!("no field `{field}` on `{}`", def.name)))
            }
            TypeKind::Typedef { base, .. } => {
                // Project through the newtype's inner representation.
                if let Repr::Named(inner) = self.tyuse_repr(base) {
                    self.field_repr(inner, field)
                } else {
                    Err(CodegenError::new(format!(
                        "cannot project `{field}` through typedef `{}`",
                        def.name
                    )))
                }
            }
            _ => Err(CodegenError::new(format!(
                "field projection `{field}` on non-struct `{}` is not supported by codegen",
                def.name
            ))),
        }
    }

    /// Element representation of an array type.
    fn elem_repr(&self, id: TypeId) -> GenResult<Repr> {
        match &self.schema.def(id).kind {
            TypeKind::Array { elem, .. } => Ok(self.tyuse_repr(elem)),
            _ => Err(CodegenError::new("indexing a non-array representation")),
        }
    }

    // ---- expression compilation -----------------------------------------
    //
    // An expression prints as calls into `pads_runtime::ops` over the
    // `Scalar` views of its operands: a condition as a `bool`, any other
    // value as a `Scalar`. The calls are qualified (`ops::eq`), so a `Pfun`
    // named like an operator does not capture them. Either may propagate an
    // evaluation error with `?`, so it is printed inside a function or
    // closure that returns `Result<_, ErrorCode>`: a `Pfun`, a rule's
    // predicate closure, or `eval(|| Ok(..))`.

    /// The `Scalar` view of `place`, a value of `repr`.
    fn view(&self, place: &str, repr: &Repr) -> GenResult<String> {
        Ok(match repr {
            Repr::Char => format!("Scalar::Char({place})"),
            Repr::Opt(inner) => format!(
                "{place}.as_ref().map_or(Scalar::Absent, |pc_v| {})",
                self.view("(*pc_v)", inner)?
            ),
            Repr::Named(id) => match &self.schema.def(*id).kind {
                TypeKind::Enum { .. } => format!("Scalar::Enum({place} as u64)"),
                TypeKind::Typedef { base, .. } => {
                    self.view(&format!("{place}.0"), &self.tyuse_repr(base))?
                }
                _ => {
                    let name = &self.schema.def(*id).name;
                    return Err(CodegenError::new(format!("`{name}` is not a scalar operand")));
                }
            },
            Repr::Slice(_) => return Err(CodegenError::new("an array is not a scalar operand")),
            _ => format!("{place}.view()"),
        })
    }

    /// A `Pfun` parameter type: the aggregate passed by reference, or
    /// `None` for a value passed as a `Scalar`.
    fn param_type(&self, ty: &str) -> Option<TypeId> {
        let id = self.schema.type_id(ty)?;
        let by_ref = matches!(
            self.schema.def(id).kind,
            TypeKind::Struct { .. } | TypeKind::Union { .. } | TypeKind::Array { .. }
        );
        by_ref.then_some(id)
    }

    fn gen_func(&self, f: &FuncDecl, out: &mut String) -> GenResult<()> {
        let mut ctx = Ctx::new();
        let mut params = Vec::new();
        for p in &f.params {
            let pname = field_name(&p.name);
            match self.param_type(&p.ty) {
                None => {
                    ctx.bind(&p.name, Operand::Scalar(pname.clone()));
                    params.push(format!("{pname}: Scalar<'a>"));
                }
                Some(id) => {
                    ctx.bind(&p.name, Operand::Place(format!("(*{pname})"), Repr::Named(id)));
                    params.push(format!("{pname}: &'a {}", camel(&self.schema.def(id).name)));
                }
            }
        }
        let ret = match f.ret.as_str() {
            "bool" => "bool",
            "int" | "uint" | "char" | "float" => "Scalar<'a>",
            other => {
                return Err(CodegenError::new(format!(
                    "unsupported function return type `{other}`"
                )))
            }
        };
        let name = field_name(&f.name);
        let _ = writeln!(
            out,
            "pub fn {name}<'a>({}) -> Result<{ret}, ErrorCode> {{",
            params.join(", ")
        );
        out.push_str(&self.gen_stmts(&f.body, &ctx, f.ret == "bool")?);
        // A body that ends without returning fails, as in the interpreter.
        out.push_str("    Err(ErrorCode::EvalError)\n}\n\n");
        Ok(())
    }

    fn gen_stmts(&self, body: &[Stmt], ctx: &Ctx, ret_bool: bool) -> GenResult<String> {
        let mut out = String::new();
        for s in body {
            match s {
                Stmt::Return(e) => {
                    let code = if ret_bool {
                        self.compile_bool(e, ctx)?
                    } else {
                        self.compile_scalar(e, ctx)?
                    };
                    let _ = writeln!(out, "    return Ok({code});");
                }
                Stmt::If { cond, then_body, else_body } => {
                    let c = self.compile_bool(cond, ctx)?;
                    let _ = writeln!(out, "    if {c} {{");
                    out.push_str(&self.gen_stmts(then_body, ctx, ret_bool)?);
                    if else_body.is_empty() {
                        out.push_str("    }\n");
                    } else {
                        out.push_str("    } else {\n");
                        out.push_str(&self.gen_stmts(else_body, ctx, ret_bool)?);
                        out.push_str("    }\n");
                    }
                }
            }
        }
        Ok(out)
    }

    /// A condition, as a `bool`.
    fn compile_bool(&self, e: &Expr, ctx: &Ctx) -> GenResult<String> {
        let pair = |a, b| -> GenResult<(String, String)> {
            Ok((self.compile_scalar(a, ctx)?, self.compile_scalar(b, ctx)?))
        };
        Ok(match e {
            Expr::Bool(b) => b.to_string(),
            Expr::Unary(UnOp::Not, a) => format!("(!{})", self.compile_bool(a, ctx)?),
            Expr::Binary(BinOp::And, a, b) => {
                format!("({} && {})", self.compile_bool(a, ctx)?, self.compile_bool(b, ctx)?)
            }
            Expr::Binary(BinOp::Or, a, b) => {
                format!("({} || {})", self.compile_bool(a, ctx)?, self.compile_bool(b, ctx)?)
            }
            Expr::Binary(
                op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                a,
                b,
            ) => {
                let (a, b) = pair(a, b)?;
                format!("ops::{}({a}, {b})?", op_fn(*op))
            }
            Expr::Call(name, _) if self.returns_bool(name) => self.compile_call(e, ctx)?,
            Expr::Forall { var, lo, hi, body } => {
                let (lo, hi) = pair(lo, hi)?;
                let i = field_name(var);
                let mut inner = ctx.clone();
                inner.bind(var, Operand::Place(i.clone(), Repr::Int(64)));
                format!("ops::forall({lo}, {hi}, |{i}| Ok({}))?", self.compile_bool(body, &inner)?)
            }
            Expr::Ternary(c, t, f) => format!(
                "(if {} {{ {} }} else {{ {} }})",
                self.compile_bool(c, ctx)?,
                self.compile_bool(t, ctx)?,
                self.compile_bool(f, ctx)?
            ),
            _ => format!("ops::truth({})?", self.compile_scalar(e, ctx)?),
        })
    }

    /// A value, as a `Scalar`.
    fn compile_scalar(&self, e: &Expr, ctx: &Ctx) -> GenResult<String> {
        match self.compile_operand(e, ctx)? {
            Operand::Place(code, repr) => self.view(&code, &repr),
            Operand::Scalar(code) => Ok(code),
        }
    }

    /// A type argument, as an `i64`.
    fn compile_int(&self, e: &Expr, ctx: &Ctx) -> GenResult<String> {
        match e {
            Expr::Int(v) => Ok(format!("{v}i64")),
            Expr::Char(c) => Ok(format!("{c}i64")),
            _ => Ok(format!("{}.int()?", self.compile_scalar(e, ctx)?)),
        }
    }

    fn returns_bool(&self, func: &str) -> bool {
        self.schema.funcs.get(func).is_some_and(|f| f.ret == "bool")
    }

    fn compile_operand(&self, e: &Expr, ctx: &Ctx) -> GenResult<Operand> {
        let scalar = |code: String| Ok(Operand::Scalar(code));
        match e {
            Expr::Int(v) => scalar(format!("Scalar::Int({v})")),
            Expr::Float(v) => scalar(format!("Scalar::Float({v:?})")),
            Expr::Char(c) => scalar(format!("Scalar::Char({c})")),
            Expr::Str(s) => scalar(format!("Scalar::Str({s:?})")),
            Expr::Bool(b) => scalar(format!("Scalar::Bool({b})")),
            Expr::Ident(name) => {
                if let Some(op) = ctx.lookup(name) {
                    return Ok(op.clone());
                }
                if let Some((_, idx)) = self.schema.enum_variants.get(name) {
                    return scalar(format!("Scalar::Uint({idx})"));
                }
                Err(CodegenError::new(format!("unbound name `{name}` in constraint")))
            }
            Expr::Field(base, fname) => {
                let (code, id) = match self.compile_operand(base, ctx)? {
                    Operand::Place(code, Repr::Named(id)) => (code, id),
                    // A field of an absent `Popt` fails.
                    Operand::Place(code, Repr::Opt(inner)) => match *inner {
                        Repr::Named(id) => (format!("ops::present(&{code})?"), id),
                        _ => return Err(CodegenError::new("field access on optional non-struct")),
                    },
                    other => {
                        return Err(CodegenError::new(format!(
                            "field access `{fname}` on non-struct operand {other:?}"
                        )))
                    }
                };
                let repr = self.field_repr(id, fname)?;
                Ok(Operand::Place(format!("{code}.{}", field_name(fname)), repr))
            }
            Expr::Index(base, idx) => {
                let i = self.compile_scalar(idx, ctx)?;
                let (code, elem) = match self.compile_operand(base, ctx)? {
                    Operand::Place(code, Repr::Slice(elem)) => (code, *elem),
                    Operand::Place(code, Repr::Named(id)) => {
                        (format!("{code}.0"), self.elem_repr(id)?)
                    }
                    other => {
                        return Err(CodegenError::new(format!(
                            "indexing non-array operand {other:?}"
                        )))
                    }
                };
                Ok(Operand::Place(format!("(*ops::index(&{code}, {i})?)"), elem))
            }
            Expr::Call(name, _) => {
                let call = self.compile_call(e, ctx)?;
                scalar(if self.returns_bool(name) { format!("Scalar::Bool({call})") } else { call })
            }
            Expr::Unary(UnOp::Neg, a) => scalar(format!("ops::neg({})?", self.compile_scalar(a, ctx)?)),
            Expr::Binary(
                op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem),
                a,
                b,
            ) => {
                let (a, b) = (self.compile_scalar(a, ctx)?, self.compile_scalar(b, ctx)?);
                scalar(format!("ops::{}({a}, {b})?", op_fn(*op)))
            }
            Expr::Ternary(c, t, f) => scalar(format!(
                "(if {} {{ {} }} else {{ {} }})",
                self.compile_bool(c, ctx)?,
                self.compile_scalar(t, ctx)?,
                self.compile_scalar(f, ctx)?
            )),
            Expr::Unary(UnOp::Not, _) | Expr::Binary(..) | Expr::Forall { .. } => {
                scalar(format!("Scalar::Bool({})", self.compile_bool(e, ctx)?))
            }
        }
    }

    fn compile_call(&self, e: &Expr, ctx: &Ctx) -> GenResult<String> {
        let Expr::Call(name, args) = e else {
            return Err(CodegenError::new("not a call"));
        };
        let f = self
            .schema
            .funcs
            .get(name)
            .ok_or_else(|| CodegenError::new(format!("call to unknown function `{name}`")))?;
        let mut compiled = Vec::new();
        for (p, a) in f.params.iter().zip(args) {
            compiled.push(match self.param_type(&p.ty) {
                None => self.compile_scalar(a, ctx)?,
                Some(id) => match self.compile_operand(a, ctx)? {
                    Operand::Place(code, Repr::Named(arg)) if arg == id => format!("&({code})"),
                    other => {
                        return Err(CodegenError::new(format!(
                            "argument for `{}` parameter is not a matching place: {other:?}",
                            p.ty
                        )))
                    }
                },
            });
        }
        Ok(format!("{}({})?", field_name(name), compiled.join(", ")))
    }

    // The remaining generation methods live in `rust_gen_types.rs` via the
    // inherent-impl continuation below.
}

/// The `pads_runtime::ops` function of a comparison or arithmetic operator.
fn op_fn(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::And | BinOp::Or => "",
    }
}

/// Whether printed code propagates an evaluation error (has a `?`; one
/// inside a string literal only costs a needless `eval` around it), so
/// needs a `Result` context.
fn fallible(code: &str) -> bool {
    code.contains('?')
}

/// A compiled operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    /// A place expression with its representation.
    Place(String, Repr),
    /// An expression of type `Scalar`.
    Scalar(String),
}

/// Compilation scope: names → operands.
#[derive(Debug, Clone, Default)]
struct Ctx {
    bindings: HashMap<String, Operand>,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx::default()
    }

    fn bind(&mut self, name: &str, op: Operand) {
        self.bindings.insert(name.to_owned(), op);
    }

    fn lookup(&self, name: &str) -> Option<&Operand> {
        self.bindings.get(name)
    }
}

include!("rust_gen_types.rs");
