//! Verification of in-memory values (`*_verify` in the paper's generated
//! library).
//!
//! After an application transforms a representation — like Figure 7's
//! `cnvPhoneNumbers` — it can re-check every semantic constraint without
//! reparsing: field constraints, typedef predicates, and `Pwhere` clauses,
//! recursively. Physical syntax (literals, widths) is not involved; that is
//! the parser's business.

use pads_check::ir::{MemberIr, Schema, TypeId, TypeKind, TyUse};
use pads_runtime::{ErrorCode, Name, Prim};
use pads_syntax::ast::Expr;

use crate::eval::{self, Env};
use crate::parse::{intern_names, TypeNames};
use crate::value::Value;

/// A constraint violation found by [`Verifier::verify_named`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Dotted path to the offending node (array elements as `[i]`).
    pub path: String,
    /// What went wrong.
    pub code: ErrorCode,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.code)
    }
}

/// Re-checks semantic constraints on in-memory values.
pub struct Verifier<'s> {
    schema: &'s Schema,
    /// The schema's names, interned once (as the parser keeps them).
    names: Vec<TypeNames>,
}

impl<'s> Verifier<'s> {
    /// Creates a verifier for `schema`.
    pub fn new(schema: &'s Schema) -> Verifier<'s> {
        Verifier { schema, names: intern_names(schema) }
    }

    /// Verifies `value` against the named type. Returns every violation
    /// (empty means the value satisfies all constraints).
    ///
    /// When `name` is not declared in the schema the result is a single
    /// [`ErrorCode::InternalError`] violation — never a panic.
    pub fn verify_named(&self, name: &str, value: &Value) -> Vec<Violation> {
        let Some(id) = self.schema.type_id(name) else {
            return vec![Violation { path: String::new(), code: ErrorCode::InternalError }];
        };
        let mut out = Vec::new();
        self.verify_def(id, &[], value, "", &mut out);
        out
    }

    /// Convenience predicate: no violations (the paper's
    /// `entry_t_verify(rep)` boolean).
    pub fn is_valid(&self, name: &str, value: &Value) -> bool {
        self.verify_named(name, value).is_empty()
    }

    fn verify_def(
        &self,
        id: TypeId,
        args: &[Prim],
        value: &Value,
        path: &str,
        out: &mut Vec<Violation>,
    ) {
        let def = self.schema.def(id);
        let names = &self.names[id];
        let params: Vec<(Name, Value)> =
            names.params.iter().zip(args).map(|(n, a)| (*n, Value::Prim(a.clone()))).collect();
        match (&def.kind, value) {
            (TypeKind::Struct { members }, Value::Struct { fields }) => {
                for m in members {
                    let MemberIr::Field(f) = m else { continue };
                    let Some(v) = value.field(&f.name) else {
                        out.push(Violation {
                            path: join(path, &f.name),
                            code: ErrorCode::EvalError,
                        });
                        continue;
                    };
                    if let Some(c) = &f.constraint {
                        self.check(c, &params, fields, &join(path, &f.name), out);
                    }
                    self.verify_tyuse(&f.ty, &params, fields, v, &join(path, &f.name), out);
                }
                if let Some(w) = &def.where_clause {
                    self.check(w, &params, fields, path, out);
                }
            }
            (TypeKind::Union { branches, .. }, Value::Union { branch, value: inner, .. }) => {
                let Some(b) = branches.iter().find(|b| &b.field.name == branch) else {
                    out.push(Violation { path: path.to_owned(), code: ErrorCode::EvalError });
                    return;
                };
                let bound = [(*branch, (**inner).clone())];
                if let Some(c) = &b.field.constraint {
                    self.check(c, &params, &bound, &join(path, branch), out);
                }
                self.verify_tyuse(&b.field.ty, &params, &[], inner, &join(path, branch), out);
            }
            (TypeKind::Array { elem, .. }, Value::Array(elts)) => {
                for (i, e) in elts.iter().enumerate() {
                    self.verify_tyuse(elem, &params, &[], e, &join(path, &format!("[{i}]")), out);
                }
                if let Some(w) = &def.where_clause {
                    let arr = Value::Array(elts.clone());
                    let len = Value::Prim(Prim::Uint(elts.len() as u64));
                    let bound =
                        [(Name::from_static("elts"), arr), (Name::from_static("length"), len)];
                    self.check_with_code(
                        w,
                        &params,
                        &bound,
                        path,
                        forall_code(w),
                        out,
                    );
                }
            }
            (TypeKind::Enum { variants }, Value::Enum { variant, .. }) => {
                if !variants.iter().any(|v| v == variant) {
                    out.push(Violation { path: path.to_owned(), code: ErrorCode::EnumNoMatch });
                }
            }
            (TypeKind::Typedef { base, pred, .. }, v) => {
                if let (Some(name), Some(p)) = (names.items.first(), pred) {
                    let bound = [(*name, v.clone())];
                    self.check(p, &params, &bound, path, out);
                }
                self.verify_tyuse(base, &params, &[], v, path, out);
            }
            _ => out.push(Violation { path: path.to_owned(), code: ErrorCode::EvalError }),
        }
    }

    fn verify_tyuse(
        &self,
        ty: &TyUse,
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
        value: &Value,
        path: &str,
        out: &mut Vec<Violation>,
    ) {
        match (ty, value) {
            (TyUse::Opt(_), Value::Opt(None)) => {}
            (TyUse::Opt(inner), Value::Opt(Some(v))) => {
                self.verify_tyuse(inner, params, fields, v, path, out)
            }
            (TyUse::Base { .. }, Value::Prim(_)) => {}
            (TyUse::Named { id, args }, v) => {
                let mut env = self.env(params, fields);
                let prims: Result<Vec<Prim>, _> =
                    args.iter().map(|a| eval::eval_prim(a, &mut env)).collect();
                drop(env);
                match prims {
                    Ok(prims) => self.verify_def(*id, &prims, v, path, out),
                    Err(code) => out.push(Violation { path: path.to_owned(), code }),
                }
            }
            _ => out.push(Violation { path: path.to_owned(), code: ErrorCode::EvalError }),
        }
    }

    fn env<'e>(
        &'e self,
        params: &'e [(Name, Value)],
        fields: &'e [(Name, Value)],
    ) -> Env<'e> {
        Env::bound(self.schema, params, fields)
    }

    fn check(
        &self,
        expr: &Expr,
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
        path: &str,
        out: &mut Vec<Violation>,
    ) {
        self.check_with_code(expr, params, fields, path, ErrorCode::ConstraintViolation, out);
    }

    fn check_with_code(
        &self,
        expr: &Expr,
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
        path: &str,
        code: ErrorCode,
        out: &mut Vec<Violation>,
    ) {
        let mut env = self.env(params, fields);
        let verdict = eval::eval_bool(expr, &mut env);
        if verdict != Ok(true) {
            out.push(Violation { path: path.to_owned(), code: verdict.err().unwrap_or(code) });
        }
    }
}

fn forall_code(w: &Expr) -> ErrorCode {
    if matches!(w, Expr::Forall { .. }) {
        ErrorCode::ForallViolation
    } else {
        ErrorCode::WhereViolation
    }
}

fn join(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_owned()
    } else {
        format!("{path}.{name}")
    }
}
