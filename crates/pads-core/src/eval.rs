//! Evaluator for the C-like constraint expression language.
//!
//! Constraints run during parsing (when the mask requests checking), during
//! verification of in-memory values, and inside the data generator. The
//! evaluator is defined over [`Value`]s; scalar results are `Value::Prim`s.
//! The operators themselves are [`pads_runtime::ops`], which generated code
//! calls too: this module binds names, projects fields, calls functions
//! and hands the operands over as [`Scalar`]s.

use pads_check::ir::Schema;
use pads_runtime::ops::{self, Scalar};
use pads_runtime::{ErrorCode, Name, Prim};
use pads_syntax::ast::{BinOp, Expr, Stmt, UnOp};

use crate::value::Value;

/// An evaluation result: borrowed when it names existing data, owned when
/// computed.
#[derive(Debug, Clone)]
pub enum Ev<'a> {
    /// Borrowed from the environment.
    Ref(&'a Value),
    /// Computed.
    Owned(Value),
}

impl<'a> Ev<'a> {
    /// Wraps a computed primitive.
    pub fn prim(p: Prim) -> Ev<'a> {
        Ev::Owned(Value::Prim(p))
    }

    /// The underlying value.
    pub fn value(&self) -> &Value {
        match self {
            Ev::Ref(v) => v,
            Ev::Owned(v) => v,
        }
    }

    /// Converts into an owned value.
    pub fn into_value(self) -> Value {
        match self {
            Ev::Ref(v) => v.clone(),
            Ev::Owned(v) => v,
        }
    }

    pub(crate) fn as_bool(&self) -> Result<bool, ErrorCode> {
        ops::truth(self.scalar()?)
    }

    /// The operand an operator reads; `EvalError` for an aggregate.
    fn scalar(&self) -> Result<Scalar<'_>, ErrorCode> {
        self.value().scalar().ok_or(ErrorCode::EvalError)
    }
}

/// A literal's value; `None` for any other expression (which needs an
/// environment).
pub(crate) fn literal(e: &Expr) -> Option<Prim> {
    match e {
        Expr::Int(v) => Some(Prim::Int(*v)),
        Expr::Char(c) => Some(Prim::Char(*c)),
        Expr::Str(s) => Some(Prim::String(s.clone())),
        Expr::Bool(b) => Some(Prim::Bool(*b)),
        Expr::Float(v) => Some(Prim::Float(*v)),
        _ => None,
    }
}

/// A lexical scope mapping names to values.
///
/// Bindings are pushed in order; lookups scan from the innermost end, so
/// shadowing (e.g. a `Pforall` variable) behaves as expected.
pub struct Env<'a> {
    /// The schema (for functions and enum variants).
    pub schema: &'a Schema,
    vars: Vec<(&'a str, Ev<'a>)>,
}

impl<'a> Env<'a> {
    /// An empty environment over `schema`.
    pub fn new(schema: &'a Schema) -> Env<'a> {
        Env { schema, vars: Vec::new() }
    }

    /// An environment over `schema` binding a type's `params`, then the
    /// `fields` in scope.
    pub fn bound(
        schema: &'a Schema,
        params: &'a [(Name, Value)],
        fields: &'a [(Name, Value)],
    ) -> Env<'a> {
        let mut env = Env::new(schema);
        for (n, v) in params.iter().chain(fields) {
            env.push(n, Ev::Ref(v));
        }
        env
    }

    /// Pushes a binding; returns a token for [`truncate`](Env::truncate).
    pub fn push(&mut self, name: &'a str, value: Ev<'a>) -> usize {
        self.vars.push((name, value));
        self.vars.len() - 1
    }

    /// Pops bindings down to a previous length.
    pub fn truncate(&mut self, len: usize) {
        self.vars.truncate(len);
    }

    /// Current number of bindings.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the environment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    fn lookup(&self, name: &str) -> Option<&Ev<'a>> {
        self.vars.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

const MAX_CALL_DEPTH: u32 = 64;

/// Evaluates an expression to a value.
///
/// # Errors
///
/// [`ErrorCode::EvalError`] on unbound names, type mismatches, division by
/// zero, or call-depth overflow.
pub fn eval<'a>(expr: &'a Expr, env: &mut Env<'a>) -> Result<Ev<'a>, ErrorCode> {
    eval_at(expr, env, 0)
}

/// Evaluates an expression expected to produce a boolean (constraints).
pub fn eval_bool<'a>(expr: &'a Expr, env: &mut Env<'a>) -> Result<bool, ErrorCode> {
    eval(expr, env)?.as_bool()
}

/// Evaluates an expression expected to produce a primitive (type args).
pub fn eval_prim<'a>(expr: &'a Expr, env: &mut Env<'a>) -> Result<Prim, ErrorCode> {
    eval(expr, env)?.scalar()?.to_prim()
}

fn eval_at<'a>(expr: &'a Expr, env: &mut Env<'a>, depth: u32) -> Result<Ev<'a>, ErrorCode> {
    match expr {
        Expr::Int(_) | Expr::Float(_) | Expr::Char(_) | Expr::Str(_) | Expr::Bool(_) => {
            literal(expr).map(Ev::prim).ok_or(ErrorCode::EvalError)
        }
        Expr::Ident(name) => {
            if let Some(v) = env.lookup(name) {
                return Ok(v.clone());
            }
            if let Some((_, idx)) = env.schema.enum_variants.get(name) {
                return Ok(Ev::prim(Prim::Uint(*idx as u64)));
            }
            Err(ErrorCode::EvalError)
        }
        Expr::Field(base, name) => {
            let base = eval_at(base, env, depth)?;
            project_field(base, name)
        }
        Expr::Index(base, idx) => {
            let i = eval_at(idx, env, depth)?;
            let i = i.scalar()?;
            match eval_at(base, env, depth)? {
                Ev::Ref(Value::Array(elts)) => ops::index(elts, i).map(Ev::Ref),
                Ev::Owned(Value::Array(elts)) => ops::index(&elts, i).cloned().map(Ev::Owned),
                _ => Err(ErrorCode::EvalError),
            }
        }
        Expr::Call(name, args) => {
            if depth >= MAX_CALL_DEPTH {
                return Err(ErrorCode::EvalError);
            }
            let func = env.schema.funcs.get(name).ok_or(ErrorCode::EvalError)?;
            if func.params.len() != args.len() {
                return Err(ErrorCode::EvalError);
            }
            let mut bound: Vec<(&'a str, Ev<'a>)> = Vec::with_capacity(args.len());
            for (p, a) in func.params.iter().zip(args) {
                bound.push((p.name.as_str(), eval_at(a, env, depth)?));
            }
            // Function bodies see only their parameters (plus globals).
            let saved = std::mem::take(&mut env.vars);
            env.vars = bound;
            let result = exec_stmts(&func.body, env, depth + 1);
            env.vars = saved;
            match result? {
                Some(v) => Ok(v),
                None => Err(ErrorCode::EvalError),
            }
        }
        Expr::Unary(UnOp::Not, a) => {
            let v = eval_at(a, env, depth)?.as_bool()?;
            Ok(Ev::prim(Prim::Bool(!v)))
        }
        Expr::Unary(UnOp::Neg, a) => {
            let v = eval_at(a, env, depth)?;
            ops::neg(v.scalar()?)?.to_prim().map(Ev::prim)
        }
        // Short-circuit: `false && x` and `true || x` never evaluate `x`.
        Expr::Binary(BinOp::And, a, b) => Ok(Ev::prim(Prim::Bool(
            eval_at(a, env, depth)?.as_bool()? && eval_at(b, env, depth)?.as_bool()?,
        ))),
        Expr::Binary(BinOp::Or, a, b) => Ok(Ev::prim(Prim::Bool(
            eval_at(a, env, depth)?.as_bool()? || eval_at(b, env, depth)?.as_bool()?,
        ))),
        Expr::Binary(op, a, b) => {
            let lhs = eval_at(a, env, depth)?;
            let rhs = eval_at(b, env, depth)?;
            binary(*op, &lhs, &rhs)
        }
        Expr::Ternary(c, t, e) => {
            if eval_at(c, env, depth)?.as_bool()? {
                eval_at(t, env, depth)
            } else {
                eval_at(e, env, depth)
            }
        }
        Expr::Forall { var, lo, hi, body } => {
            let (lo, hi) = (eval_at(lo, env, depth)?, eval_at(hi, env, depth)?);
            let mark = env.len();
            let holds = ops::forall(lo.scalar()?, hi.scalar()?, |i| {
                env.truncate(mark);
                env.push(var, Ev::prim(Prim::Int(i)));
                eval_at(body, env, depth)?.as_bool()
            });
            env.truncate(mark);
            holds.map(|b| Ev::prim(Prim::Bool(b)))
        }
    }
}

fn exec_stmts<'a>(
    body: &'a [Stmt],
    env: &mut Env<'a>,
    depth: u32,
) -> Result<Option<Ev<'a>>, ErrorCode> {
    for s in body {
        match s {
            Stmt::Return(e) => return eval_at(e, env, depth).map(Some),
            Stmt::If { cond, then_body, else_body } => {
                let taken = if eval_at(cond, env, depth)?.as_bool()? {
                    then_body
                } else {
                    else_body
                };
                if let Some(v) = exec_stmts(taken, env, depth)? {
                    return Ok(Some(v));
                }
            }
        }
    }
    Ok(None)
}

/// Projects a named field out of a value, looking through matching union
/// branches and present optionals — the semantics of `Expr::Field`.
/// Shared with the VM's compiled predicates so both engines agree.
pub(crate) fn project_field<'a>(base: Ev<'a>, name: &str) -> Result<Ev<'a>, ErrorCode> {
    fn get<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
        match v {
            Value::Union { branch, value, .. } if branch == name => Some(value),
            Value::Opt(Some(inner)) => get(inner, name),
            other => other.field(name),
        }
    }
    match base {
        Ev::Ref(v) => get(v, name).map(Ev::Ref).ok_or(ErrorCode::EvalError),
        Ev::Owned(v) => get(&v, name).cloned().map(Ev::Owned).ok_or(ErrorCode::EvalError),
    }
}

/// Applies a non-logical binary operator — the semantics of
/// `Expr::Binary` for everything but `&&`/`||` — through
/// [`pads_check::apply`]. Aggregates only compare, structurally. Shared
/// with the VM's compiled predicates so both engines agree.
pub(crate) fn binary<'a>(op: BinOp, lhs: &Ev<'_>, rhs: &Ev<'_>) -> Result<Ev<'a>, ErrorCode> {
    match (lhs.value().scalar(), rhs.value().scalar()) {
        (Some(a), Some(b)) => pads_check::apply(op, a, b)?.to_prim().map(Ev::prim),
        _ if op == BinOp::Eq => Ok(Ev::prim(Prim::Bool(lhs.value() == rhs.value()))),
        _ if op == BinOp::Ne => Ok(Ev::prim(Prim::Bool(lhs.value() != rhs.value()))),
        _ => Err(ErrorCode::EvalError),
    }
}

/// Whether switch selector `sel` picks `case` ([`ops::case_eq`]);
/// aggregates compare structurally.
pub(crate) fn case_eq(sel: &Value, case: &Value) -> bool {
    match (sel.scalar(), case.scalar()) {
        (Some(a), Some(b)) => ops::case_eq(a, b),
        _ => sel == case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads_runtime::Registry;
    use pads_syntax::parse_expr;

    fn schema() -> Schema {
        pads_check::compile(
            r#"
            Penum method_t { GET, PUT, LINK };
            bool chk(int a, int b) {
                if (a == b) return true;
                return a + 1 == b;
            };
            int fact(int n) {
                if (n <= 1) return 1;
                return n * fact(n - 1);
            };
            Pstruct t { Puint8 x; };
            "#,
            &Registry::standard(),
        )
        .unwrap()
    }

    fn run(src: &str, schema: &Schema, vars: &[(&str, Value)]) -> Result<Value, ErrorCode> {
        let expr = parse_expr(src).unwrap();
        let mut env = Env::new(schema);
        for (n, v) in vars {
            // Bind by leaking nothing: names must outlive env, so use the
            // schema-independent 'static trick via Box::leak in tests only.
            let name: &str = Box::leak((*n).to_string().into_boxed_str());
            env.push(name, Ev::Owned(v.clone()));
        }
        let expr: &'static Expr = Box::leak(Box::new(expr));
        eval(expr, &mut env).map(Ev::into_value)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let s = schema();
        assert_eq!(run("1 + 2 * 3", &s, &[]), Ok(Value::Prim(Prim::Int(7))));
        assert_eq!(run("(10 - 4) / 3", &s, &[]), Ok(Value::Prim(Prim::Int(2))));
        assert_eq!(run("7 % 3", &s, &[]), Ok(Value::Prim(Prim::Int(1))));
        assert_eq!(run("100 <= 200 && 200 < 600", &s, &[]), Ok(Value::Prim(Prim::Bool(true))));
        assert_eq!(run("1 / 0", &s, &[]), Err(ErrorCode::EvalError));
        assert_eq!(run("2.5 + 1", &s, &[]), Ok(Value::Prim(Prim::Float(3.5))));
    }

    #[test]
    fn short_circuit_protects_rhs() {
        let s = schema();
        assert_eq!(run("false && (1 / 0 == 0)", &s, &[]), Ok(Value::Prim(Prim::Bool(false))));
        assert_eq!(run("true || (1 / 0 == 0)", &s, &[]), Ok(Value::Prim(Prim::Bool(true))));
    }

    #[test]
    fn enum_variants_and_equality() {
        let s = schema();
        let m = Value::Enum { variant: "LINK".into(), index: 2 };
        assert_eq!(run("m == LINK", &s, &[("m", m.clone())]), Ok(Value::Prim(Prim::Bool(true))));
        assert_eq!(run("m == GET", &s, &[("m", m)]), Ok(Value::Prim(Prim::Bool(false))));
    }

    #[test]
    fn char_and_string_comparison() {
        let s = schema();
        let c = Value::Prim(Prim::Char(b'-'));
        assert_eq!(run("c == '-'", &s, &[("c", c)]), Ok(Value::Prim(Prim::Bool(true))));
        let st = Value::Prim(Prim::String("abc".into()));
        assert_eq!(run("s == \"abc\"", &s, &[("s", st.clone())]), Ok(Value::Prim(Prim::Bool(true))));
        assert_eq!(run("s < \"abd\"", &s, &[("s", st)]), Ok(Value::Prim(Prim::Bool(true))));
    }

    #[test]
    fn function_calls_and_recursion() {
        let s = schema();
        assert_eq!(run("chk(1, 2)", &s, &[]), Ok(Value::Prim(Prim::Bool(true))));
        assert_eq!(run("chk(1, 5)", &s, &[]), Ok(Value::Prim(Prim::Bool(false))));
        assert_eq!(run("fact(5)", &s, &[]), Ok(Value::Prim(Prim::Int(120))));
        // Unbounded recursion hits the depth limit instead of overflowing.
        assert_eq!(run("fact(-1)", &s, &[]), Ok(Value::Prim(Prim::Int(1))));
    }

    #[test]
    fn forall_over_array() {
        let s = schema();
        let arr = Value::Array(vec![
            Value::Prim(Prim::Uint(1)),
            Value::Prim(Prim::Uint(2)),
            Value::Prim(Prim::Uint(5)),
        ]);
        let sorted = "Pforall (i Pin [0..length-2] : elts[i] <= elts[i+1])";
        let vars = [("elts", arr.clone()), ("length", Value::Prim(Prim::Uint(3)))];
        assert_eq!(run(sorted, &s, &vars), Ok(Value::Prim(Prim::Bool(true))));
        let unsorted = Value::Array(vec![Value::Prim(Prim::Uint(9)), Value::Prim(Prim::Uint(2))]);
        let vars = [("elts", unsorted), ("length", Value::Prim(Prim::Uint(2)))];
        assert_eq!(run(sorted, &s, &vars), Ok(Value::Prim(Prim::Bool(false))));
        // Empty range (single element) is vacuously true.
        let one = Value::Array(vec![Value::Prim(Prim::Uint(9))]);
        let vars = [("elts", one), ("length", Value::Prim(Prim::Uint(1)))];
        assert_eq!(run(sorted, &s, &vars), Ok(Value::Prim(Prim::Bool(true))));
    }

    #[test]
    fn field_projection_through_unions_and_opts() {
        let s = schema();
        let v = Value::Struct {
            fields: vec![(
                "ramp".into(),
                Value::Union {
                    branch: "genRamp".into(),
                    index: 1,
                    value: Box::new(Value::Prim(Prim::Uint(42))),
                },
            )],
        };
        assert_eq!(run("v.ramp.genRamp == 42", &s, &[("v", v)]), Ok(Value::Prim(Prim::Bool(true))));
        let o = Value::Opt(Some(Box::new(Value::Prim(Prim::Uint(7)))));
        assert_eq!(run("o == 7", &s, &[("o", o)]), Ok(Value::Prim(Prim::Bool(true))));
    }

    #[test]
    fn unbound_name_is_eval_error() {
        let s = schema();
        assert_eq!(run("nosuch + 1", &s, &[]), Err(ErrorCode::EvalError));
    }

    #[test]
    fn ternary() {
        let s = schema();
        assert_eq!(run("1 < 2 ? 10 : 20", &s, &[]), Ok(Value::Prim(Prim::Int(10))));
    }
}
