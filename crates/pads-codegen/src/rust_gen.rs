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
    fn str_base(name: &str) -> bool {
        let stripped = name
            .strip_prefix("Pa_")
            .or_else(|| name.strip_prefix("Pe_"))
            .or_else(|| name.strip_prefix("Pb_"))
            .or_else(|| name.strip_prefix("P"))
            .unwrap_or(name);
        let core = stripped.trim_end_matches("_FW");
        core.starts_with("string") || core == "hostname" || core == "zip"
    }
    fn tyuse_borrows(ty: &TyUse, lt: &[bool]) -> bool {
        match ty {
            TyUse::Base { name, .. } => str_base(name),
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

impl<'s> Gen<'s> {
    fn base_repr(&self, name: &str) -> Repr {
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

    fn tyuse_repr(&self, ty: &TyUse) -> Repr {
        match ty {
            TyUse::Base { name, .. } => self.base_repr(name),
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

    fn gen_func(&self, f: &FuncDecl, out: &mut String) -> GenResult<()> {
        let mut ctx = Ctx::new();
        let mut args = Vec::new();
        for p in &f.params {
            let pname = field_name(&p.name);
            match p.ty.as_str() {
                "int" | "uint" | "char" => {
                    ctx.bind(&p.name, Operand::Num(pname.clone()));
                    args.push(format!("{pname}: i64"));
                }
                "bool" => {
                    ctx.bind(&p.name, Operand::Num(format!("({pname} as i64)")));
                    args.push(format!("{pname}: bool"));
                }
                "float" => {
                    ctx.bind(&p.name, Operand::Num(format!("({pname} as i64)")));
                    args.push(format!("{pname}: f64"));
                }
                "string" => {
                    ctx.bind(&p.name, Operand::Place(pname.clone(), Repr::Str));
                    args.push(format!("{pname}: &str"));
                }
                tyname => {
                    let id = self.schema.type_id(tyname).ok_or_else(|| {
                        CodegenError::new(format!("unknown function parameter type `{tyname}`"))
                    })?;
                    let def = self.schema.def(id);
                    if matches!(def.kind, TypeKind::Enum { .. }) {
                        ctx.bind(&p.name, Operand::Place(pname.clone(), Repr::Named(id)));
                        args.push(format!("{pname}: {}", camel(&def.name)));
                    } else {
                        ctx.bind(
                            &p.name,
                            Operand::Place(format!("(*{pname})"), Repr::Named(id)),
                        );
                        args.push(format!("{pname}: &{}", camel(&def.name)));
                    }
                }
            }
        }
        let ret = match f.ret.as_str() {
            "bool" => "bool",
            "int" | "uint" | "char" => "i64",
            "float" => "f64",
            other => {
                return Err(CodegenError::new(format!(
                    "unsupported function return type `{other}`"
                )))
            }
        };
        let _ = writeln!(out, "pub fn {}({}) -> {} {{", field_name(&f.name), args.join(", "), ret);
        let body = self.gen_stmts(&f.body, &ctx, f.ret == "bool")?;
        out.push_str(&body);
        // The checker proved all paths return; the fallback value keeps the
        // compiler satisfied without planting a reachable panic.
        let fallback = match ret {
            "bool" => "false",
            "f64" => "0.0",
            _ => "0",
        };
        let _ = writeln!(out, "    {fallback}");
        out.push_str("}\n\n");
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
                        self.compile_num(e, ctx)?
                    };
                    let _ = writeln!(out, "    return {code};");
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

    fn compile_bool(&self, e: &Expr, ctx: &Ctx) -> GenResult<String> {
        match e {
            Expr::Bool(b) => Ok(b.to_string()),
            Expr::Unary(UnOp::Not, a) => Ok(format!("!({})", self.compile_bool(a, ctx)?)),
            Expr::Binary(BinOp::And, a, b) => Ok(format!(
                "({} && {})",
                self.compile_bool(a, ctx)?,
                self.compile_bool(b, ctx)?
            )),
            Expr::Binary(BinOp::Or, a, b) => Ok(format!(
                "({} || {})",
                self.compile_bool(a, ctx)?,
                self.compile_bool(b, ctx)?
            )),
            Expr::Binary(op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), a, b) => {
                self.compile_cmp(*op, a, b, ctx)
            }
            Expr::Call(name, _) if self.schema.funcs.get(name).is_some_and(|f| f.ret == "bool") => {
                self.compile_call(e, ctx)
            }
            Expr::Forall { var, lo, hi, body } => {
                let lo = self.compile_num(lo, ctx)?;
                let hi = self.compile_num(hi, ctx)?;
                let mut inner = ctx.clone();
                inner.bind(var, Operand::Num(field_name(var)));
                let body = self.compile_bool(body, &inner)?;
                Ok(format!(
                    "(({lo})..=({hi})).all(|{}| {body})",
                    field_name(var)
                ))
            }
            Expr::Ternary(c, t, f) => Ok(format!(
                "(if {} {{ {} }} else {{ {} }})",
                self.compile_bool(c, ctx)?,
                self.compile_bool(t, ctx)?,
                self.compile_bool(f, ctx)?
            )),
            Expr::Ident(_) | Expr::Field(..) | Expr::Index(..) => {
                // A bare place in boolean position: compare to zero like C.
                Ok(format!("({} != 0)", self.compile_num(e, ctx)?))
            }
            other => Err(CodegenError::new(format!(
                "expression is not compilable as a boolean: {other:?}"
            ))),
        }
    }

    fn compile_cmp(&self, op: BinOp, a: &Expr, b: &Expr, ctx: &Ctx) -> GenResult<String> {
        let lhs = self.compile_operand(a, ctx)?;
        let rhs = self.compile_operand(b, ctx)?;
        // String-typed places (or literals) use the polymorphic helpers;
        // everything else compares as i64.
        let stringy = |o: &Operand| {
            matches!(o, Operand::Place(_, Repr::Str) | Operand::StrLit(_))
        };
        if stringy(&lhs) || stringy(&rhs) {
            let l = lhs.as_ref_code();
            let r = rhs.as_ref_code();
            return Ok(match op {
                BinOp::Eq => format!("pc_eq({l}, {r})"),
                BinOp::Ne => format!("!pc_eq({l}, {r})"),
                BinOp::Lt => format!("(pc_cmp({l}, {r}) == std::cmp::Ordering::Less)"),
                BinOp::Le => format!("(pc_cmp({l}, {r}) != std::cmp::Ordering::Greater)"),
                BinOp::Gt => format!("(pc_cmp({l}, {r}) == std::cmp::Ordering::Greater)"),
                BinOp::Ge => format!("(pc_cmp({l}, {r}) != std::cmp::Ordering::Less)"),
                _ => unreachable!("comparison operator"),
            });
        }
        let l = lhs.as_num_code();
        let r = rhs.as_num_code();
        let sym = match op {
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            _ => unreachable!("comparison operator"),
        };
        Ok(format!("(({l}) {sym} ({r}))"))
    }

    fn compile_num(&self, e: &Expr, ctx: &Ctx) -> GenResult<String> {
        Ok(self.compile_operand(e, ctx)?.as_num_code())
    }

    fn compile_operand(&self, e: &Expr, ctx: &Ctx) -> GenResult<Operand> {
        match e {
            Expr::Int(v) => Ok(Operand::Num(format!("{v}i64"))),
            Expr::Char(c) => Ok(Operand::Num(format!("{}i64", *c as i64))),
            Expr::Float(v) => Ok(Operand::Num(format!("({v}f64 as i64)"))),
            Expr::Bool(b) => Ok(Operand::Num(format!("({b} as i64)"))),
            Expr::Str(s) => Ok(Operand::StrLit(format!("{s:?}"))),
            Expr::Ident(name) => {
                if let Some(op) = ctx.lookup(name) {
                    return Ok(op.clone());
                }
                if let Some((_, idx)) = self.schema.enum_variants.get(name) {
                    return Ok(Operand::Num(format!("{idx}i64")));
                }
                Err(CodegenError::new(format!("unbound name `{name}` in constraint")))
            }
            Expr::Field(base, fname) => {
                let b = self.compile_operand(base, ctx)?;
                match b {
                    Operand::Place(code, Repr::Named(id)) => {
                        let repr = self.field_repr(id, fname)?;
                        Ok(Operand::Place(format!("{code}.{}", field_name(fname)), repr))
                    }
                    Operand::Place(code, Repr::Opt(inner)) => {
                        // Project through a present option; absent values
                        // read as defaults, matching PcVal on Option.
                        if let Repr::Named(id) = *inner {
                            let repr = self.field_repr(id, fname)?;
                            Ok(Operand::Place(
                                format!(
                                    "{code}.as_ref().map(|v| v.{}.clone()).unwrap_or_default()",
                                    field_name(fname)
                                ),
                                repr,
                            ))
                        } else {
                            Err(CodegenError::new("field access on optional non-struct"))
                        }
                    }
                    other => Err(CodegenError::new(format!(
                        "field access `{fname}` on non-struct operand {other:?}"
                    ))),
                }
            }
            Expr::Index(base, idx) => {
                let b = self.compile_operand(base, ctx)?;
                let i = self.compile_num(idx, ctx)?;
                match b {
                    Operand::Place(code, Repr::Slice(elem)) => Ok(Operand::Place(
                        format!("{code}[({i}) as usize]"),
                        *elem,
                    )),
                    Operand::Place(code, Repr::Named(id)) => {
                        let elem = self.elem_repr(id)?;
                        Ok(Operand::Place(format!("{code}.0[({i}) as usize]"), elem))
                    }
                    other => Err(CodegenError::new(format!(
                        "indexing non-array operand {other:?}"
                    ))),
                }
            }
            Expr::Call(..) => {
                let code = self.compile_call(e, ctx)?;
                Ok(Operand::Num(format!("({code} as i64)")))
            }
            Expr::Unary(UnOp::Neg, a) => {
                Ok(Operand::Num(format!("(-({}))", self.compile_num(a, ctx)?)))
            }
            Expr::Unary(UnOp::Not, _) => {
                Ok(Operand::Num(format!("(({}) as i64)", self.compile_bool(e, ctx)?)))
            }
            Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b) => {
                let sym = match op {
                    BinOp::Add => "wrapping_add",
                    BinOp::Sub => "wrapping_sub",
                    _ => "wrapping_mul",
                };
                Ok(Operand::Num(format!(
                    "(({}).{sym}({}))",
                    self.compile_num(a, ctx)?,
                    self.compile_num(b, ctx)?
                )))
            }
            Expr::Binary(BinOp::Div, a, b) => Ok(Operand::Num(format!(
                "(({}).checked_div({}).unwrap_or(0))",
                self.compile_num(a, ctx)?,
                self.compile_num(b, ctx)?
            ))),
            Expr::Binary(BinOp::Rem, a, b) => Ok(Operand::Num(format!(
                "(({}).checked_rem({}).unwrap_or(0))",
                self.compile_num(a, ctx)?,
                self.compile_num(b, ctx)?
            ))),
            Expr::Binary(..) | Expr::Forall { .. } => {
                Ok(Operand::Num(format!("(({}) as i64)", self.compile_bool(e, ctx)?)))
            }
            Expr::Ternary(c, t, f) => Ok(Operand::Num(format!(
                "(if {} {{ {} }} else {{ {} }})",
                self.compile_bool(c, ctx)?,
                self.compile_num(t, ctx)?,
                self.compile_num(f, ctx)?
            ))),
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
            match p.ty.as_str() {
                "int" | "uint" | "char" => compiled.push(self.compile_num(a, ctx)?),
                "bool" => compiled.push(self.compile_bool(a, ctx)?),
                "float" => compiled.push(format!("(({}) as f64)", self.compile_num(a, ctx)?)),
                "string" => {
                    let op = self.compile_operand(a, ctx)?;
                    compiled.push(op.as_ref_code());
                }
                tyname => {
                    let op = self.compile_operand(a, ctx)?;
                    match op {
                        Operand::Place(code, Repr::Named(id))
                            if self.schema.def(id).name == *tyname =>
                        {
                            if matches!(self.schema.def(id).kind, TypeKind::Enum { .. }) {
                                compiled.push(code);
                            } else {
                                compiled.push(format!("&({code})"));
                            }
                        }
                        other => {
                            return Err(CodegenError::new(format!(
                                "argument for `{tyname}` parameter is not a matching place: {other:?}"
                            )))
                        }
                    }
                }
            }
        }
        Ok(format!("{}({})", field_name(name), compiled.join(", ")))
    }

    // The remaining generation methods live in `rust_gen_types.rs` via the
    // inherent-impl continuation below.
}

/// A compiled operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    /// An `i64`-typed Rust expression.
    Num(String),
    /// A place expression with its representation.
    Place(String, Repr),
    /// A string literal (already a `&'static str`).
    StrLit(String),
}

impl Operand {
    fn as_num_code(&self) -> String {
        match self {
            Operand::Num(c) => c.clone(),
            Operand::Place(c, _) => format!("({c}).pc_num()"),
            Operand::StrLit(_) => "0i64".to_owned(),
        }
    }

    fn as_ref_code(&self) -> String {
        match self {
            Operand::Num(c) => format!("&({c})"),
            Operand::Place(c, _) => format!("&({c})"),
            Operand::StrLit(c) => c.clone(),
        }
    }
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
