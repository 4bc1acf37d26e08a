//! Writing values back out in their original form (`*_write2io` in the
//! paper's generated library).
//!
//! The writer mirrors the parse: literals are re-emitted, base values are
//! rendered by their base types, unions write only the taken branch, and
//! record framing (newline / fixed width / length prefix) is re-applied.
//!
//! Reproduction notes: fixed-width numbers are written zero-padded and
//! regex *literals* (not `Pstring_ME` values, which are stored) cannot be
//! regenerated — neither form appears in the paper's descriptions.

use pads_check::ir::{MemberIr, Schema, TypeId, TypeKind, TyUse};
use pads_runtime::{Charset, Endian, ErrorCode, Name, Prim, RecordDiscipline, Registry};
use pads_syntax::ast::{Expr, Literal};

use crate::eval::{self, Env};
use crate::parse::{intern_names, ParseOptions, TypeNames};
use crate::value::Value;

/// Writes parsed values back to bytes.
pub struct Writer<'s> {
    schema: &'s Schema,
    registry: &'s Registry,
    options: ParseOptions,
    /// The schema's names, interned once (as the parser keeps them).
    names: Vec<TypeNames>,
}

impl<'s> Writer<'s> {
    /// Creates a writer with default options.
    pub fn new(schema: &'s Schema, registry: &'s Registry) -> Writer<'s> {
        Writer { schema, registry, options: ParseOptions::default(), names: intern_names(schema) }
    }

    /// Sets cursor options (must match the parse).
    pub fn with_options(mut self, options: ParseOptions) -> Writer<'s> {
        self.options = options;
        self
    }

    /// Renders `value` (parsed as type `name`) into `out`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::EvalError`] when the value's shape does not match the
    /// type, or when an unreproducible construct (regex literal) is hit;
    /// [`ErrorCode::InternalError`] when `name` is not declared in the
    /// schema.
    pub fn write_named(
        &self,
        out: &mut Vec<u8>,
        name: &str,
        value: &Value,
    ) -> Result<(), ErrorCode> {
        let id = self.schema.type_id(name).ok_or(ErrorCode::InternalError)?;
        self.write_def(out, id, &[], value)
    }

    /// Renders the source-type `value` into a byte vector.
    ///
    /// # Errors
    ///
    /// See [`write_named`](Writer::write_named).
    pub fn write_source(&self, value: &Value) -> Result<Vec<u8>, ErrorCode> {
        let mut out = Vec::new();
        self.write_def(&mut out, self.schema.source(), &[], value)?;
        Ok(out)
    }

    fn charset(&self) -> Charset {
        self.options.charset
    }

    fn endian(&self) -> Endian {
        self.options.endian
    }

    /// Writes a declared type.
    fn write_def(
        &self,
        out: &mut Vec<u8>,
        id: TypeId,
        args: &[Prim],
        value: &Value,
    ) -> Result<(), ErrorCode> {
        let def = self.schema.def(id);
        let params: Vec<(Name, Value)> = self.names[id]
            .params
            .iter()
            .zip(args)
            .map(|(n, a)| (*n, Value::Prim(a.clone())))
            .collect();
        if def.is_record {
            let mut body = Vec::new();
            self.write_kind(&mut body, id, &params, value)?;
            match self.options.discipline {
                RecordDiscipline::Newline => {
                    out.extend_from_slice(&body);
                    out.push(self.charset().encode(b'\n'));
                }
                RecordDiscipline::FixedWidth(_) | RecordDiscipline::None => {
                    out.extend_from_slice(&body)
                }
                RecordDiscipline::LengthPrefixed { header_bytes, endian } => {
                    let len = body.len();
                    let mut hdr = vec![0u8; header_bytes];
                    for (i, b) in hdr.iter_mut().enumerate() {
                        let shift = match endian {
                            Endian::Big => 8 * (header_bytes - 1 - i),
                            Endian::Little => 8 * i,
                        };
                        *b = (len >> shift) as u8;
                    }
                    out.extend_from_slice(&hdr);
                    out.extend_from_slice(&body);
                }
            }
            Ok(())
        } else {
            self.write_kind(out, id, &params, value)
        }
    }

    fn write_kind(
        &self,
        out: &mut Vec<u8>,
        id: TypeId,
        params: &[(Name, Value)],
        value: &Value,
    ) -> Result<(), ErrorCode> {
        let def = self.schema.def(id);
        match (&def.kind, value) {
            (TypeKind::Struct { members }, Value::Struct { fields }) => {
                for m in members {
                    match m {
                        MemberIr::Lit(l) => self.write_literal(out, l)?,
                        MemberIr::Field(f) => {
                            let v = value.field(&f.name).ok_or(ErrorCode::EvalError)?;
                            self.write_tyuse(out, &f.ty, params, fields, v)?;
                        }
                    }
                }
                Ok(())
            }
            (TypeKind::Union { branches, .. }, Value::Union { branch, value: inner, .. }) => {
                let b = branches
                    .iter()
                    .find(|b| &b.field.name == branch)
                    .ok_or(ErrorCode::EvalError)?;
                self.write_tyuse(out, &b.field.ty, params, &[], inner)
            }
            (TypeKind::Array { elem, sep, term, .. }, Value::Array(elts)) => {
                for (i, e) in elts.iter().enumerate() {
                    if i > 0 {
                        if let Some(s) = sep {
                            self.write_literal(out, s)?;
                        }
                    }
                    self.write_tyuse(out, elem, params, &[], e)?;
                }
                match term {
                    Some(Literal::Eor) | Some(Literal::Eof) | None => {}
                    Some(lit) => self.write_literal(out, lit)?,
                }
                Ok(())
            }
            (TypeKind::Enum { variants }, Value::Enum { variant, .. }) => {
                if !variants.iter().any(|v| v == variant) {
                    return Err(ErrorCode::EvalError);
                }
                out.extend(variant.bytes().map(|b| self.charset().encode(b)));
                Ok(())
            }
            (TypeKind::Typedef { base, .. }, v) => self.write_tyuse(out, base, params, &[], v),
            _ => Err(ErrorCode::EvalError),
        }
    }

    fn write_tyuse(
        &self,
        out: &mut Vec<u8>,
        ty: &TyUse,
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
        value: &Value,
    ) -> Result<(), ErrorCode> {
        match (ty, value) {
            (TyUse::Opt(_), Value::Opt(None)) => Ok(()),
            (TyUse::Opt(inner), Value::Opt(Some(v))) => {
                self.write_tyuse(out, inner, params, fields, v)
            }
            (TyUse::Base { name, args }, Value::Prim(p)) => {
                let prims = self.eval_args(args, params, fields)?;
                let bt = self.registry.get(name).ok_or(ErrorCode::InternalError)?;
                bt.write(out, p, &prims, self.charset(), self.endian())
            }
            (TyUse::Named { id, args }, v) => {
                let prims = self.eval_args(args, params, fields)?;
                self.write_def(out, *id, &prims, v)
            }
            _ => Err(ErrorCode::EvalError),
        }
    }

    fn eval_args(
        &self,
        args: &[Expr],
        params: &[(Name, Value)],
        fields: &[(Name, Value)],
    ) -> Result<Vec<Prim>, ErrorCode> {
        let mut env = Env::bound(self.schema, params, fields);
        args.iter().map(|a| eval::eval_prim(a, &mut env)).collect()
    }

    fn write_literal(&self, out: &mut Vec<u8>, lit: &Literal) -> Result<(), ErrorCode> {
        match lit {
            Literal::Char(c) => {
                out.push(self.charset().encode(*c));
                Ok(())
            }
            Literal::Str(s) => {
                out.extend(s.bytes().map(|b| self.charset().encode(b)));
                Ok(())
            }
            // A regex literal's matched text is not retained in the
            // representation, so it cannot be written back.
            Literal::Regex(_) => Err(ErrorCode::EvalError),
            Literal::Eor | Literal::Eof => Ok(()),
        }
    }
}
