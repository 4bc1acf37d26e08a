// Continuation of the `Gen` impl: representation types, read/write/verify
// generation per type kind, and module entry points. Included from
// `rust_gen.rs` so both halves share private items.

impl<'s> Gen<'s> {
    fn params_sig(&self, id: TypeId) -> String {
        self.schema
            .def(id)
            .params
            .iter()
            .map(|p| format!(", p_{}: i64", field_name(&p.name)))
            .collect()
    }

    /// The cursor lifetime of read methods: `'d` when the representation
    /// borrows the buffer (bound by the surrounding `impl<'d>`), else `'_`.
    fn cur_lt(&self, id: TypeId) -> &'static str {
        if self.lt[id] {
            "'d"
        } else {
            "'_"
        }
    }

    /// Emits the public `read` entry: a thin wrapper bracketing
    /// `read_impl` with type-enter/type-exit events. With no metrics core
    /// attached the wrapper is a single discriminant test plus a tail
    /// call, which the optimiser flattens away; a counting core hears the
    /// exit alone (`observe_enter_id` is a no-op for it), a profiling or
    /// tracing one both.
    ///
    /// The type is identified by its dense node id (`TypeId` doubles as
    /// the `ObsSchema` index — the module's `OBS_TYPES` table is emitted
    /// in the same order), so the core bumps flat slabs without a name
    /// lookup.
    fn emit_read_wrapper(&self, id: TypeId, mask_used: bool, out: &mut String) {
        self.emit_read_entry(id, mask_used, "read", "read_impl", out);
    }

    /// [`Self::emit_read_wrapper`] for an entry called `entry` around `body`.
    fn emit_read_entry(
        &self,
        id: TypeId,
        mask_used: bool,
        entry: &str,
        body: &str,
        out: &mut String,
    ) {
        let def = self.schema.def(id);
        let name = camel(&def.name);
        let lt = self.lt_args(id);
        let cur_lt = self.cur_lt(id);
        let mask_param = if mask_used { "mask" } else { "_mask" };
        let args: String =
            def.params.iter().map(|p| format!(", p_{}", field_name(&p.name))).collect();
        let _ = writeln!(
            out,
            "    pub fn {entry}(cur: &mut Cursor<{cur_lt}>, {mask_param}: &Mask{}) -> ({name}{lt}, ParseDesc) {{",
            self.params_sig(id)
        );
        let _ = writeln!(out, "        if !cur.observing() {{");
        let _ = writeln!(out, "            return Self::{body}(cur, {mask_param}{args});");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "        let obs_off = cur.offset();");
        let _ = writeln!(out, "        cur.observe_enter_id({id}u32);");
        let _ = writeln!(out, "        let (v, pd) = Self::{body}(cur, {mask_param}{args});");
        let _ = writeln!(out, "        cur.observe_exit_id({id}u32, obs_off, &pd);");
        let _ = writeln!(out, "        (v, pd)");
        let _ = writeln!(out, "    }}");
    }

    fn param_ctx(&self, id: TypeId) -> Ctx {
        let mut ctx = Ctx::new();
        for p in &self.schema.def(id).params {
            ctx.bind(&p.name, Operand::Place(format!("p_{}", field_name(&p.name)), Repr::Int(64)));
        }
        ctx
    }

    /// The parameters and a struct's fields as `self.` places: the scope of
    /// its `write` and `verify`.
    fn self_ctx(&self, id: TypeId, members: &[MemberIr]) -> Ctx {
        let mut ctx = self.param_ctx(id);
        for m in members {
            if let MemberIr::Field(f) = m {
                let place = format!("self.{}", field_name(&f.name));
                ctx.bind(&f.name, Operand::Place(place, self.tyuse_repr(&f.ty)));
            }
        }
        ctx
    }

    /// Compiled argument list (`, expr1, expr2`) for calling a
    /// parameterised type's read/write/verify.
    fn call_args(&self, args: &[Expr], ctx: &Ctx) -> GenResult<String> {
        let mut out = String::new();
        for a in args {
            let _ = write!(out, ", {}", self.compile_int(a, ctx)?);
        }
        Ok(out)
    }

    /// Code reading named type `id` with `args` under the mask `m`; arguments
    /// that may fail to evaluate go through `rd_args`, which records the
    /// failure as the interpreter does.
    fn named_read_code(
        &self,
        id: TypeId,
        args: &[Expr],
        m: &str,
        read: &str,
        ctx: &Ctx,
    ) -> GenResult<String> {
        let ty = camel(&self.schema.def(id).name);
        let call_args = self.call_args(args, ctx)?;
        if !fallible(&call_args) {
            return Ok(format!("{ty}::{read}(cur, {m}{call_args})"));
        }
        let names: Vec<String> = (0..args.len()).map(|i| format!("pc_a{i}")).collect();
        Ok(format!(
            "rd_args(cur, eval(|| Ok([{}])), |cur, [{}]| {ty}::{read}(cur, {m}, {}))",
            call_args.trim_start_matches(", "),
            names.join(", "),
            names.join(", ")
        ))
    }

    fn gen_type(&self, id: TypeId, out: &mut String) -> GenResult<()> {
        let def = self.schema.def(id);
        let name = camel(&def.name);
        let lt = self.lt_args(id);
        match &def.kind {
            TypeKind::Struct { members } => {
                let _ = writeln!(out, "/// Representation of `{}` (Pstruct).", def.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, PartialEq, Default)]");
                let _ = writeln!(out, "pub struct {name}{lt} {{");
                for m in members {
                    if let MemberIr::Field(f) = m {
                        let repr = self.tyuse_repr(&f.ty);
                        let _ = writeln!(
                            out,
                            "    pub {}: {},",
                            field_name(&f.name),
                            self.rust_ty(&repr)
                        );
                    }
                }
                out.push_str("}\n\n");
                let _ = writeln!(out, "impl{lt} {name}{lt} {{");
                self.gen_struct_read(id, members, out)?;
                self.gen_struct_write(id, members, out)?;
                self.gen_struct_verify(id, members, out)?;
                self.gen_struct_to_arena(id, members, out)?;
                out.push_str("}\n\n");
            }
            TypeKind::Union { switch, branches } => {
                let _ = writeln!(out, "/// Representation of `{}` (Punion).", def.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, PartialEq)]");
                let _ = writeln!(out, "pub enum {name}{lt} {{");
                for b in branches {
                    let repr = self.tyuse_repr(&b.field.ty);
                    let _ = writeln!(
                        out,
                        "    {}({}),",
                        camel(&b.field.name),
                        self.rust_ty(&repr)
                    );
                }
                out.push_str("}\n\n");
                let first = camel(&branches[0].field.name);
                let _ = writeln!(out, "impl{lt} Default for {name}{lt} {{");
                let _ = writeln!(
                    out,
                    "    fn default() -> Self {{ {name}::{first}(Default::default()) }}"
                );
                out.push_str("}\n\n");
                let _ = writeln!(out, "impl{lt} {name}{lt} {{");
                match switch {
                    None => self.gen_union_read(id, branches, out)?,
                    Some(sel) => self.gen_switch_read(id, sel, branches, out)?,
                }
                self.gen_union_write(id, branches, out)?;
                self.gen_union_verify(id, branches, out)?;
                self.gen_union_to_arena(id, branches, out)?;
                out.push_str("}\n\n");
            }
            TypeKind::Array { elem, .. } => {
                let repr = self.tyuse_repr(elem);
                let _ = writeln!(out, "/// Representation of `{}` (Parray).", def.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, PartialEq, Default)]");
                let _ = writeln!(out, "pub struct {name}{lt}(pub Vec<{}>);\n", self.rust_ty(&repr));
                let _ = writeln!(out, "impl{lt} {name}{lt} {{");
                self.gen_array_read(id, out)?;
                self.gen_array_write(id, out)?;
                self.gen_array_verify(id, out)?;
                self.gen_array_to_arena(id, out)?;
                out.push_str("}\n\n");
            }
            TypeKind::Enum { variants } => {
                let _ = writeln!(out, "/// Representation of `{}` (Penum).", def.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]");
                let _ = writeln!(out, "pub enum {name} {{");
                for (i, v) in variants.iter().enumerate() {
                    if i == 0 {
                        let _ = writeln!(out, "    #[default]");
                    }
                    let _ = writeln!(out, "    {} = {i},", camel(v));
                }
                out.push_str("}\n\n");
                let _ = writeln!(out, "impl {name} {{");
                self.gen_enum_read(id, variants, &name, out)?;
                self.gen_enum_write(variants, &name, out)?;
                let _ = writeln!(out, "    /// Enums carry no constraints.");
                let _ = writeln!(out, "    pub fn verify(&self) -> bool {{ true }}");
                self.gen_enum_to_arena(variants, &name, out)?;
                out.push_str("}\n\n");
            }
            TypeKind::Typedef { base, var, pred } => {
                let repr = self.tyuse_repr(base);
                let _ = writeln!(out, "/// Representation of `{}` (Ptypedef).", def.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, PartialEq, Default)]");
                let _ = writeln!(out, "pub struct {name}{lt}(pub {});\n", self.rust_ty(&repr));
                let _ = writeln!(out, "impl{lt} {name}{lt} {{");
                self.gen_typedef_read(id, base, var, pred, out)?;
                self.gen_typedef_write(id, base, out)?;
                self.gen_typedef_verify(id, base, var, pred, out)?;
                self.gen_typedef_to_arena(id, base, out)?;
                out.push_str("}\n\n");
            }
        }
        Ok(())
    }

    // ---- base-type read call text -------------------------------------------

    /// Code evaluating to `Result<RustTy, ErrorCode>` for a base-type read.
    fn base_read_code(&self, name: &str, args: &[Expr], ctx: &Ctx) -> GenResult<String> {
        let forced = if name.starts_with("Pa_") {
            "Some(Charset::Ascii)"
        } else if name.starts_with("Pe_") {
            "Some(Charset::Ebcdic)"
        } else {
            "None"
        };
        let repr = base_repr(name);
        let cast = |code: String, repr: &Repr| match repr {
            Repr::UInt(b) if *b < 64 => format!("{code}.map(|v| v as u{b})"),
            Repr::Int(b) if *b < 64 => format!("{code}.map(|v| v as i{b})"),
            _ => code,
        };
        let arg_prims = self.arg_prims(args, ctx)?;
        let code = match name {
            // Binary and fixed-width integers go through the registry under
            // the type's own (static) name.
            _ if name.starts_with("Pb_") || (name.contains("int") && name.ends_with("_FW")) => {
                let rd = if matches!(repr, Repr::UInt(_)) { "rd_u64_dyn" } else { "rd_i64_dyn" };
                cast(format!("{rd}(cur, \"{name}\", &[{arg_prims}])"), &repr)
            }
            _ if name.contains("uint") => {
                let bits = bits_of(name);
                cast(format!("rd_uint(cur, {bits}, {forced})"), &Repr::UInt(bits))
            }
            _ if name.contains("int") => {
                let bits = bits_of(name);
                cast(format!("rd_int(cur, {bits}, {forced})"), &Repr::Int(bits))
            }
            "Pstring" => match args {
                [Expr::Char(term)] => format!("rd_string_term(cur, {term}u8)"),
                _ => format!("rd_string(cur, \"{name}\", &[{arg_prims}])"),
            },
            "Pstring_FW" | "Pstring_ME" | "Pstring_SE" | "Pzip" | "Phostname" => {
                format!("rd_string(cur, \"{name}\", &[{arg_prims}])")
            }
            "Pchar" | "Pa_char" | "Pe_char" => format!("rd_char(cur, {forced})"),
            "Pdate" => format!("rd_date(cur, &[{arg_prims}])"),
            "Pip" => "rd_ip(cur)".to_owned(),
            "Pfloat32" | "Pfloat64" => format!("rd_float(cur, \"{name}\")"),
            "Pvoid" => "Ok::<(), ErrorCode>(())".to_owned(),
            "Pebc_zoned" | "Ppacked" => {
                format!("rd_i64_dyn(cur, \"{name}\", &[{arg_prims}])")
            }
            "Pbits" => format!("rd_u64_dyn(cur, \"Pbits\", &[{arg_prims}])"),
            other => format!("rd_prim(cur, \"{other}\", &[{arg_prims}])"),
        };
        // Arguments that may fail to evaluate fail the read.
        Ok(if fallible(&arg_prims) { format!("eval(|| {code})") } else { code })
    }

    /// Compiles base-type arguments into the `Prim`s the interpreter
    /// passes.
    fn arg_prims(&self, args: &[Expr], ctx: &Ctx) -> GenResult<String> {
        let mut parts = Vec::new();
        for a in args {
            parts.push(match a {
                Expr::Int(v) => format!("Prim::Int({v})"),
                Expr::Char(c) => format!("Prim::Char({c}u8)"),
                Expr::Str(s) => format!("Prim::String({s:?}.to_owned())"),
                _ => format!("{}.to_prim()?", self.compile_scalar(a, ctx)?),
            });
        }
        Ok(parts.join(", "))
    }

    /// Code reading `ty` as a `(value, ParseDesc)` pair under the mask `m`;
    /// `what` names the construct in the refusal of a `Popt`.
    fn tyuse_read_code(&self, ty: &TyUse, m: &str, ctx: &Ctx, what: &str) -> GenResult<String> {
        match ty {
            TyUse::Base { name, args } => {
                Ok(format!("rd_pd(cur, |cur| {})", self.base_read_code(name, args, ctx)?))
            }
            TyUse::Named { id, args } => self.named_read_code(*id, args, m, "read", ctx),
            TyUse::Opt(_) => {
                Err(CodegenError::new(format!("Popt {what} are not supported by codegen")))
            }
        }
    }

    /// The signature line of a type's `read_impl` with `generics`.
    fn emit_read_impl(&self, id: TypeId, generics: &str, out: &mut String) {
        let _ = writeln!(
            out,
            "    fn read_impl{generics}(cur: &mut Cursor<{}>, mask: &Mask{}) -> ({}{}, ParseDesc) {{",
            self.cur_lt(id),
            self.params_sig(id),
            camel(&self.schema.def(id).name),
            self.lt_args(id)
        );
    }

    /// `const NAMES`, the branch names a union rule reads.
    fn emit_branch_names(&self, branches: &[BranchIr], out: &mut String) {
        let names: Vec<String> =
            branches.iter().map(|b| format!("Name::from_static({:?})", b.field.name)).collect();
        let _ = writeln!(out, "        const NAMES: &[Name] = &[{}];", names.join(", "));
    }

    // ---- struct ----------------------------------------------------------------

    fn gen_struct_read(
        &self,
        id: TypeId,
        members: &[MemberIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let name = camel(&def.name);
        let _ = writeln!(
            out,
            "    /// Parses one `{}` at the cursor (mask-directed).",
            def.name
        );
        self.emit_read_wrapper(id, true, out);
        self.emit_read_impl(id, "", out);
        let _ = writeln!(out, "        let mut pd = ParseDesc::ok();");
        let _ = writeln!(out, "        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();");
        // Pre-declare fields.
        for m in members {
            if let MemberIr::Field(f) = m {
                let repr = self.tyuse_repr(&f.ty);
                let _ = writeln!(
                    out,
                    "        let mut f_{}: {} = Default::default();",
                    field_name(&f.name),
                    self.rust_ty(&repr)
                );
            }
        }
        if def.is_record {
            out.push_str(
                "        let pc_opened = match cur.open_record() {\n            \
                 RecordOpen::Nested => false,\n            \
                 RecordOpen::Opened(None) => true,\n            \
                 RecordOpen::Opened(Some((code, loc))) => {\n                pd.add_error(code, loc);\n                true\n            }\n            \
                 RecordOpen::Done(pd) => return (Default::default(), pd),\n        };\n",
            );
        }
        let mut ctx = self.param_ctx(id);
        let _ = writeln!(out, "        'body: {{");
        for m in members {
            match m {
                MemberIr::Lit(lit) => {
                    let _ = writeln!(
                        out,
                        "            if let Err(e) = cur.match_lit(&{}) {{\n                pd.add_error(e, Loc::at(cur.position()));\n                pd.state = ParseState::Partial;\n                break 'body;\n            }}",
                        lit_code(lit)
                    );
                }
                MemberIr::Field(f) => {
                    self.gen_struct_field(f, &mut ctx, out)?;
                }
            }
        }
        // Pwhere at the end of the body (skipped when aborted).
        if let Some(w) = &def.where_clause {
            let cond = self.compile_bool(w, &ctx)?;
            let _ = writeln!(
                out,
                "            if mask.compound().checks() {{\n                pd.add_verdict(eval(|| Ok({cond})), ErrorCode::WhereViolation, Loc::at(cur.position()));\n            }}"
            );
        }
        let _ = writeln!(out, "        }}");
        // Descriptor shape must be in place before the record closes: the
        // close may flatten it (per-record cap / best-effort degradation).
        let _ = writeln!(out, "        pd.kind = PdKind::Struct {{ fields: pds }};");
        if def.is_record {
            out.push_str("        if pc_opened { cur.close_record(&mut pd); }\n");
        }
        let fields: Vec<String> = members
            .iter()
            .filter_map(|m| match m {
                MemberIr::Field(f) => {
                    let n = field_name(&f.name);
                    Some(format!("{n}: f_{n}"))
                }
                MemberIr::Lit(_) => None,
            })
            .collect();
        let _ = writeln!(out, "        ({name} {{ {} }}, pd)", fields.join(", "));
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_struct_field(
        &self,
        f: &pads_check::ir::FieldIr,
        ctx: &mut Ctx,
        out: &mut String,
    ) -> GenResult<()> {
        let fname = field_name(&f.name);
        let repr = self.tyuse_repr(&f.ty);
        let _ = writeln!(out, "            {{");
        let _ = writeln!(out, "                let m = mask.child({:?});", f.name);
        // `start` feeds error locations and constraint spans; named and
        // optional fields without constraints never consult it.
        let needs_start =
            matches!(&f.ty, TyUse::Base { .. }) || f.constraint.is_some();
        if needs_start {
            let _ = writeln!(out, "                let start = cur.position();");
        }
        let key = format!("Name::from_static({:?})", f.name);
        // Binds the field once its read is printed, then compiles its
        // constraint in that scope.
        let bind = |ctx: &mut Ctx| {
            ctx.bind(&f.name, Operand::Place(format!("f_{fname}"), repr.clone()));
            f.constraint.as_ref().map(|c| self.compile_bool(c, ctx)).transpose()
        };
        let add_verdict = |cond: &str| {
            format!("fpd.add_verdict(eval(|| Ok({cond})), ErrorCode::ConstraintViolation, {AT});")
        };
        let keep = format!(
            "                pd.absorb(&fpd);\n                if !fpd.is_ok() {{ pds.push(({key}, fpd)); }}"
        );
        match &f.ty {
            TyUse::Base { name, args } => {
                // The clean path writes the value and, under a constraint
                // that holds, nothing else. A failed read keeps the
                // default and aborts the struct unless its error is
                // semantic (a type argument that fails to evaluate); the
                // constraint still judges the default, as in the
                // interpreter.
                let call = self.base_read_code(name, args, ctx)?;
                let (clean, failed) = match bind(ctx)? {
                    Some(cond) => (
                        guarded(24, "m.base().checks()", &format!(
                            "field_verdict(&mut pd, &mut pds, {key}, eval(|| Ok({cond})), {AT});"
                        )),
                        guarded(24, "!syn && m.base().checks()", &add_verdict(&cond)),
                    ),
                    None => Default::default(),
                };
                let _ = writeln!(
                    out,
                    "                match {call} {{
                    Ok(v) => {{
                        f_{fname} = v;
{clean}                    }}
                    Err(e) => {{
                        let mut fpd = ParseDesc::error(e, {AT});
                        let syn = fpd.has_syntax_error();
{failed}                        pd.absorb(&fpd);
                        pds.push(({key}, fpd));
                        if syn {{ pd.state = ParseState::Partial; break 'body; }}
                    }}
                }}"
                );
            }
            TyUse::Named { id, args } => {
                let read = self.named_read_code(*id, args, "&m", "read", ctx)?;
                let checked = bind(ctx)?.map_or(String::new(), |cond| {
                    guarded(16, "!syn && m.base().checks()", &add_verdict(&cond))
                });
                let _ = writeln!(
                    out,
                    "                let (v, mut fpd) = {read};
                f_{fname} = v;
                let syn = fpd.has_syntax_error();
{checked}{keep}
                if syn {{ pd.state = ParseState::Partial; break 'body; }}"
                );
            }
            TyUse::Opt(inner) => {
                // A constraint's verdict lands on the optional's own
                // descriptor, which then holds what the read held.
                let constrained = f.constraint.is_some();
                if constrained {
                    out.push_str("                let mut fpd = ParseDesc::ok();\n");
                    out.push_str("                fpd.kind = PdKind::Opt { inner: None };\n");
                }
                self.gen_opt_read(&fname, &f.name, inner, constrained, ctx, out)?;
                if let Some(cond) = bind(ctx)? {
                    let checked = guarded(16, "m.base().checks()", &add_verdict(&cond));
                    let _ = writeln!(out, "{checked}{keep}");
                }
            }
        }
        let _ = writeln!(out, "            }}");
        Ok(())
    }

    fn gen_opt_read(
        &self,
        fname: &str,
        orig_name: &str,
        inner: &TyUse,
        keep: bool,
        ctx: &Ctx,
        out: &mut String,
    ) -> GenResult<()> {
        // An optional field is clean by construction: either the inner parse
        // succeeds, or the cursor is rolled back and the field is `None`.
        // Its descriptor carries no errors in either arm, so no fpd is built
        // and nothing is absorbed into the struct descriptor; a typedef is
        // read by `read_opt`, which nests no descriptor for a failed read.
        let _ = writeln!(out, "                let cp = cur.checkpoint();");
        match inner {
            TyUse::Base { name, args } => {
                let call = self.base_read_code(name, args, ctx)?;
                let _ = writeln!(
                    out,
                    "                match {call} {{\n                    Ok(v) => {{ f_{fname} = Some(v); }}\n                    Err(_) => {{ cur.restore(cp); f_{fname} = None; }}\n                }}"
                );
            }
            TyUse::Named { id, args } => {
                let def = self.schema.def(*id);
                let read =
                    if matches!(def.kind, TypeKind::Typedef { .. }) { "read_opt" } else { "read" };
                let read = self.named_read_code(*id, args, "&m", read, ctx)?;
                let kept = if keep { " fpd.kind = PdKind::opt(ipd);" } else { "" };
                let _ = writeln!(
                    out,
                    "                let (v, ipd) = {read};\n                if ipd.is_ok() {{\n                    f_{fname} = Some(v);{kept}\n                }} else {{\n                    cur.restore(cp);\n                    f_{fname} = None;\n                }}"
                );
            }
            TyUse::Opt(_) => {
                return Err(CodegenError::new(format!(
                    "nested Popt on field `{orig_name}` is not supported by codegen"
                )))
            }
        }
        Ok(())
    }

    // ---- union ------------------------------------------------------------------

    fn gen_union_read(
        &self,
        id: TypeId,
        branches: &[BranchIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let name = camel(&def.name);
        let _ = writeln!(
            out,
            "    /// Parses one `{}`: the first branch that parses without error wins.",
            def.name
        );
        self.emit_read_wrapper(id, true, out);
        self.emit_read_impl(id, "", out);
        self.emit_branch_names(branches, out);
        let _ = writeln!(out, "        read_union(cur, mask, NAMES, |cur, i, m| match i {{");
        let ctx = self.param_ctx(id);
        for (i, b) in branches.iter().enumerate() {
            let bname = field_name(&b.field.name);
            let read = self.tyuse_read_code(&b.field.ty, "m", &ctx, "union branches")?;
            let mut bctx = ctx.clone();
            let repr = self.tyuse_repr(&b.field.ty);
            bctx.bind(&b.field.name, Operand::Place(format!("f_{bname}"), repr));
            let cond = match &b.field.constraint {
                Some(c) => format!(" && eval(|| Ok({})) == Ok(true)", self.compile_bool(c, &bctx)?),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "            {i} => {{\n                let (f_{bname}, bpd) = {read};\n                (bpd.is_ok(){cond}).then(|| ({name}::{}(f_{bname}), bpd))\n            }}",
                camel(&b.field.name)
            );
        }
        let _ = writeln!(out, "            _ => None,\n        }}, Self::default)");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_switch_read(
        &self,
        id: TypeId,
        sel: &Expr,
        branches: &[BranchIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let name = camel(&def.name);
        let ctx = self.param_ctx(id);
        let _ = writeln!(out, "    /// Parses one `{}` (Pswitch union).", def.name);
        self.emit_read_wrapper(id, true, out);
        self.emit_read_impl(id, "", out);
        self.emit_branch_names(branches, out);
        // The selector picks the first case equal to it, else the default;
        // one that fails to evaluate picks none, and is recorded.
        let sel = self.compile_scalar(sel, &ctx)?;
        let _ = writeln!(out, "        let sel = eval(|| Ok({sel}));");
        let mut chosen = String::from("        let chosen = sel.map(|sel| ");
        let mut default = "None".to_owned();
        let mut arms = String::new();
        for (i, b) in branches.iter().enumerate() {
            match &b.case {
                Some(CaseLabel::Expr(e)) => {
                    let case = self.compile_scalar(e, &ctx)?;
                    let picks = if fallible(&case) {
                        format!("eval(|| Ok({case})).is_ok_and(|case| ops::case_eq(sel, case))")
                    } else {
                        format!("ops::case_eq(sel, {case})")
                    };
                    let _ = write!(chosen, "if {picks} {{ Some({i}) }} else ");
                }
                Some(CaseLabel::Default) => default = format!("Some({i})"),
                None => {}
            }
            let bname = field_name(&b.field.name);
            let read = self.tyuse_read_code(&b.field.ty, "m", &ctx, "switch branches")?;
            let mut bctx = ctx.clone();
            let repr = self.tyuse_repr(&b.field.ty);
            bctx.bind(&b.field.name, Operand::Place(format!("f_{bname}"), repr));
            let holds = match &b.field.constraint {
                Some(c) => format!("eval(|| Ok({}))", self.compile_bool(c, &bctx)?),
                None => "Ok(true)".to_owned(),
            };
            let _ = writeln!(
                arms,
                "            {i} => {{\n                let (f_{bname}, bpd) = {read};\n                let holds = {holds};\n                ({name}::{}(f_{bname}), bpd, holds)\n            }}",
                camel(&b.field.name)
            );
        }
        let _ = writeln!(out, "{chosen}{{ {default} }});");
        out.push_str("        read_switched(cur, mask, NAMES, chosen, |cur, i, m| match i {\n");
        out.push_str(&arms);
        let _ = writeln!(
            out,
            "            _ => (Self::default(), ParseDesc::ok(), Ok(true)),\n        }}, Self::default)"
        );
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_union_write(
        &self,
        id: TypeId,
        branches: &[BranchIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let ctx = self.param_ctx(id);
        let _ = writeln!(out, "    /// Writes the taken branch in original form.");
        let _ = writeln!(
            out,
            "    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian{}) -> Result<(), ErrorCode> {{",
            self.params_sig(id)
        );
        let _ = writeln!(out, "        match self {{");
        for b in branches {
            let variant = camel(&b.field.name);
            let wcode = self.tyuse_write_code(&b.field.ty, "v", &ctx)?;
            let _ = writeln!(
                out,
                "            {}::{variant}(v) => {{ {wcode} }}",
                camel(&def.name)
            );
        }
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "        Ok(())");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_union_verify(
        &self,
        id: TypeId,
        branches: &[BranchIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let ctx = self.param_ctx(id);
        let _ = writeln!(out, "    /// Re-checks branch constraints in memory.");
        let _ = writeln!(
            out,
            "    pub fn verify(&self{}) -> bool {{",
            self.params_sig(id)
        );
        let _ = writeln!(out, "        match self {{");
        for b in branches {
            let variant = camel(&b.field.name);
            let repr = self.tyuse_repr(&b.field.ty);
            let mut bctx = ctx.clone();
            bctx.bind(&b.field.name, Operand::Place("(*v)".to_owned(), repr));
            let mut cond = match &b.field.constraint {
                Some(c) => holds(&self.compile_bool(c, &bctx)?),
                None => "true".to_owned(),
            };
            if let Some(nested) = self.nested_verify_code(&b.field.ty, "v", &ctx)? {
                cond = format!("{cond} && {}", holds(&nested));
            }
            let _ = writeln!(out, "            {}::{variant}(v) => {cond},", camel(&def.name));
        }
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    // ---- array --------------------------------------------------------------------

    fn gen_array_read(&self, id: TypeId, out: &mut String) -> GenResult<()> {
        let def = self.schema.def(id);
        let TypeKind::Array { elem, sep, term, ended, size } = &def.kind else {
            unreachable!("gen_array_read on non-array")
        };
        let ctx = self.param_ctx(id);
        let elts = Operand::Place("elts".to_owned(), Repr::Slice(Box::new(self.tyuse_repr(elem))));
        let mut ectx = ctx.clone();
        ectx.bind("elts", elts);
        ectx.bind("length", Operand::Scalar("Scalar::Uint(elts.len() as u64)".to_owned()));
        let _ = writeln!(out, "    /// Parses the sequence with its separator/terminator conditions.");
        self.emit_read_wrapper(id, true, out);
        self.emit_read_impl(id, "", out);
        let lit = |l: &Option<Literal>| {
            l.as_ref().map_or("None".to_owned(), |l| format!("Some({})", lit_code(l)))
        };
        let _ = writeln!(
            out,
            "        const SHAPE: ArrayShape<'static> = ArrayShape {{ sep: {}, term: {}, elem_recovers: {}, forall: {} }};",
            lit(sep),
            lit(term),
            matches!(elem, TyUse::Named { id, .. } if self.schema.def(*id).is_record),
            matches!(def.where_clause, Some(Expr::Forall { .. }))
        );
        let size = match size {
            Some(sz) => format!(
                "Some(eval(|| Ok({})).ok().and_then(|n| usize::try_from(n.as_u64()?).ok()))",
                self.compile_scalar(sz, &ctx)?
            ),
            None => "None".to_owned(),
        };
        let read = self.tyuse_read_code(elem, "m", &ctx, "array elements")?;
        let ended = match ended {
            Some(e) => self.compile_bool(e, &ectx)?,
            None => "false".to_owned(),
        };
        let holds = match &def.where_clause {
            Some(w) => self.compile_bool(w, &ectx)?,
            None => "true".to_owned(),
        };
        let _ = writeln!(
            out,
            "        let (elts, pd) = read_array(cur, mask, &SHAPE, {size}, |cur, m| {read}, |elts| Ok({ended}), |elts| Ok({holds}));"
        );
        let _ = writeln!(out, "        ({}(elts), pd)", camel(&def.name));
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_array_write(&self, id: TypeId, out: &mut String) -> GenResult<()> {
        let def = self.schema.def(id);
        let TypeKind::Array { elem, sep, term, .. } = &def.kind else {
            unreachable!("gen_array_write on non-array")
        };
        let ctx = self.param_ctx(id);
        let _ = writeln!(out, "    /// Writes the sequence in original form.");
        let _ = writeln!(
            out,
            "    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian{}) -> Result<(), ErrorCode> {{",
            self.params_sig(id)
        );
        let _ = writeln!(out, "        for (i, v) in self.0.iter().enumerate() {{");
        if let Some(s) = sep {
            let _ = writeln!(out, "            if i > 0 {{ {} }}", self.lit_write_code(s)?);
        }
        let wcode = self.tyuse_write_code(elem, "v", &ctx)?;
        let _ = writeln!(out, "            {wcode}");
        let _ = writeln!(out, "        }}");
        if let Some(t) = term {
            if !matches!(t, Literal::Eor | Literal::Eof) {
                let _ = writeln!(out, "        {}", self.lit_write_code(t)?);
            }
        }
        let _ = writeln!(out, "        Ok(())");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_array_verify(&self, id: TypeId, out: &mut String) -> GenResult<()> {
        let def = self.schema.def(id);
        let TypeKind::Array { elem, .. } = &def.kind else {
            unreachable!("gen_array_verify on non-array")
        };
        let ctx = self.param_ctx(id);
        let elem_repr = self.tyuse_repr(elem);
        let _ = writeln!(out, "    /// Re-checks sequence constraints in memory.");
        let _ = writeln!(out, "    pub fn verify(&self{}) -> bool {{", self.params_sig(id));
        let _ = writeln!(out, "        let mut ok = true;");
        if let Some(nested) = self.nested_verify_code(elem, "e", &ctx)? {
            let _ = writeln!(out, "        ok &= self.0.iter().all(|e| {});", holds(&nested));
        }
        if let Some(w) = &def.where_clause {
            let mut wctx = ctx.clone();
            wctx.bind(
                "elts",
                Operand::Place("self.0".to_owned(), Repr::Slice(Box::new(elem_repr))),
            );
            wctx.bind("length", Operand::Scalar("Scalar::Uint(self.0.len() as u64)".to_owned()));
            let cond = self.compile_bool(w, &wctx)?;
            let _ = writeln!(out, "        ok &= {};", holds(&cond));
        }
        let _ = writeln!(out, "        ok");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    // ---- enum ---------------------------------------------------------------------

    fn gen_enum_read(
        &self,
        id: TypeId,
        variants: &[String],
        name: &str,
        out: &mut String,
    ) -> GenResult<()> {
        let _ = writeln!(out, "    /// Parses the longest matching variant literal.");
        self.emit_read_wrapper(id, false, out);
        let _ = writeln!(
            out,
            "    fn read_impl(cur: &mut Cursor<'_>, _mask: &Mask) -> ({name}, ParseDesc) {{"
        );
        let texts: Vec<String> =
            variants.iter().map(|v| format!("Name::from_static({v:?})")).collect();
        let all: Vec<String> = variants.iter().map(|v| format!("{name}::{}", camel(v))).collect();
        let _ = writeln!(out, "        const VARIANTS: &[Name] = &[{}];", texts.join(", "));
        let _ = writeln!(out, "        const ALL: &[{name}] = &[{}];", all.join(", "));
        let _ = writeln!(out, "        let (i, pd) = read_enum(cur, VARIANTS);");
        let _ = writeln!(out, "        (ALL.get(i).copied().unwrap_or_default(), pd)");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_enum_write(
        &self,
        variants: &[String],
        name: &str,
        out: &mut String,
    ) -> GenResult<()> {
        let _ = writeln!(out, "    /// Writes the variant literal in the ambient coding.");
        let _ = writeln!(
            out,
            "    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, _endian: Endian) -> Result<(), ErrorCode> {{"
        );
        let _ = writeln!(out, "        let lit: &[u8] = match self {{");
        for v in variants {
            let _ = writeln!(out, "            {name}::{} => {},", camel(v), bytes_lit(v));
        }
        let _ = writeln!(out, "        }};");
        let _ = writeln!(out, "        out.extend(lit.iter().map(|&b| charset.encode(b)));");
        let _ = writeln!(out, "        Ok(())");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    // ---- typedef -------------------------------------------------------------------

    /// Whether some struct field reads type `id` under a `Popt`.
    fn read_under_popt(&self, id: TypeId) -> bool {
        let popt = |m: &MemberIr| match m {
            MemberIr::Field(f) => match &f.ty {
                TyUse::Opt(inner) => matches!(**inner, TyUse::Named { id: o, .. } if o == id),
                _ => false,
            },
            MemberIr::Lit(_) => false,
        };
        self.schema.types.iter().any(|def| match &def.kind {
            TypeKind::Struct { members } => members.iter().any(popt),
            _ => false,
        })
    }

    fn gen_typedef_read(
        &self,
        id: TypeId,
        base: &TyUse,
        var: &Option<String>,
        pred: &Option<Expr>,
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let ctx = self.param_ctx(id);
        let _ = writeln!(out, "    /// Parses the underlying type, then checks the constraint.");
        // A `Popt` keeps only a clean read's value, so the typedef it reads
        // gets a second entry that nests no descriptor for it to drop: a
        // failed read then allocates nothing.
        let (generics, nest) = if self.read_under_popt(id) {
            self.emit_read_entry(id, true, "read", "read_impl::<true>", out);
            let _ = writeln!(out, "    /// `read` for a `Popt`, which keeps only a clean read's value: the");
            let _ = writeln!(out, "    /// same value and events, the underlying descriptor not nested.");
            self.emit_read_entry(id, true, "read_opt", "read_impl::<false>", out);
            ("<const NEST: bool>", "NEST")
        } else {
            self.emit_read_wrapper(id, true, out);
            ("", "true")
        };
        self.emit_read_impl(id, generics, out);
        let holds = match (var, pred) {
            (Some(v), Some(p)) => {
                let mut pctx = ctx.clone();
                pctx.bind(v, Operand::Place("(*v)".to_owned(), self.tyuse_repr(base)));
                self.compile_bool(p, &pctx)?
            }
            _ => "true".to_owned(),
        };
        let read = self.tyuse_read_code(base, "mask", &ctx, "typedef bases")?;
        let _ = writeln!(
            out,
            "        let (v, pd) = read_typedef(cur, mask, {nest}, |cur| {read}, |v| Ok({holds}));"
        );
        let _ = writeln!(out, "        ({}(v), pd)", camel(&def.name));
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_typedef_write(&self, id: TypeId, base: &TyUse, out: &mut String) -> GenResult<()> {
        let ctx = self.param_ctx(id);
        let wcode = self.tyuse_write_code(base, "(&self.0)", &ctx)?;
        let _ = writeln!(out, "    /// Writes the underlying value in original form.");
        let _ = writeln!(
            out,
            "    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian{}) -> Result<(), ErrorCode> {{",
            self.params_sig(id)
        );
        let _ = writeln!(out, "        {wcode}");
        let _ = writeln!(out, "        Ok(())");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_typedef_verify(
        &self,
        id: TypeId,
        base: &TyUse,
        var: &Option<String>,
        pred: &Option<Expr>,
        out: &mut String,
    ) -> GenResult<()> {
        let ctx = self.param_ctx(id);
        let mut cond = "true".to_owned();
        if let (Some(v), Some(p)) = (var, pred) {
            let mut pctx = ctx.clone();
            pctx.bind(v, Operand::Place("self.0".to_owned(), self.tyuse_repr(base)));
            cond = holds(&self.compile_bool(p, &pctx)?);
        }
        if let Some(nested) = self.nested_verify_code(base, "(&self.0)", &ctx)? {
            cond = format!("{cond} && {}", holds(&nested));
        }
        let _ = writeln!(out, "    /// Re-checks the typedef constraint in memory.");
        let _ = writeln!(out, "    pub fn verify(&self{}) -> bool {{", self.params_sig(id));
        let _ = writeln!(out, "        {cond}");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    // ---- arena lowering ---------------------------------------------------------

    /// Dense id of `name` in the module's `name_table()` interning order.
    fn name_id(&self, name: &str) -> GenResult<usize> {
        self.names.iter().position(|n| n == name).ok_or_else(|| {
            CodegenError::new(format!("name `{name}` missing from the arena name table"))
        })
    }

    /// `'d` when the type borrows the buffer (the arena must share its
    /// lifetime), else elided.
    fn arena_lt(&self, id: TypeId) -> &'static str {
        if self.lt[id] {
            "'d"
        } else {
            "'_"
        }
    }

    /// Expression lowering `expr` (a place of representation `repr`) into
    /// the arena `a`; evaluates to an `AVal`. String leaves preserve their
    /// `Cow` state — a borrowed `PStr` becomes a borrowed arena leaf, so
    /// the lowering itself never copies text.
    fn arena_lower(&self, repr: &Repr, expr: &str) -> GenResult<String> {
        Ok(match repr {
            Repr::UInt(_) => format!("a.uint(({expr}) as u64)"),
            Repr::Int(_) => format!("a.int(({expr}) as i64)"),
            Repr::Float => format!("a.float({expr})"),
            Repr::Char => format!("a.char({expr})"),
            Repr::Str => format!(
                "match &({expr}).0 {{ std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) }}"
            ),
            Repr::Date => format!("a.date({expr})"),
            Repr::Ip => format!("a.ip({expr})"),
            Repr::Unit => "a.unit()".to_owned(),
            Repr::Prim => format!("a.prim(&({expr}))"),
            Repr::Named(_) => format!("({expr}).to_arena(a)"),
            Repr::Opt(inner) => {
                let icode = self.arena_lower(inner, "(*pc_v)")?;
                format!(
                    "match &({expr}) {{ Some(pc_v) => {{ let pc_h = {icode}; a.opt_some(pc_h) }} None => a.opt_none() }}"
                )
            }
            Repr::Slice(_) => {
                return Err(CodegenError::new(
                    "slice representations cannot lower to the arena",
                ))
            }
        })
    }

    fn emit_to_arena_doc(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "    /// Lowers the parsed value into `a` without allocating (borrowed\n    \
                 /// text stays borrowed); `NameId`s index this module's [`name_table`]."
        );
    }

    fn gen_struct_to_arena(
        &self,
        id: TypeId,
        members: &[MemberIr],
        out: &mut String,
    ) -> GenResult<()> {
        self.emit_to_arena_doc(out);
        let _ = writeln!(
            out,
            "    pub fn to_arena(&self, a: &mut ValueArena<{}>) -> AVal {{",
            self.arena_lt(id)
        );
        let mut pairs = Vec::new();
        for m in members {
            if let MemberIr::Field(f) = m {
                let repr = self.tyuse_repr(&f.ty);
                let fname = field_name(&f.name);
                let code = self.arena_lower(&repr, &format!("self.{fname}"))?;
                let nid = self.name_id(&f.name)?;
                let _ = writeln!(out, "        let pc_a_{fname} = {code};");
                pairs.push(format!("(NameId({nid}u32), pc_a_{fname})"));
            }
        }
        let _ = writeln!(out, "        a.strct(&[{}])", pairs.join(", "));
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_union_to_arena(
        &self,
        id: TypeId,
        branches: &[BranchIr],
        out: &mut String,
    ) -> GenResult<()> {
        let name = camel(&self.schema.def(id).name);
        self.emit_to_arena_doc(out);
        let _ = writeln!(
            out,
            "    pub fn to_arena(&self, a: &mut ValueArena<{}>) -> AVal {{",
            self.arena_lt(id)
        );
        let _ = writeln!(out, "        match self {{");
        for (i, b) in branches.iter().enumerate() {
            let repr = self.tyuse_repr(&b.field.ty);
            let code = self.arena_lower(&repr, "(*pc_v)")?;
            let nid = self.name_id(&b.field.name)?;
            let _ = writeln!(
                out,
                "            {name}::{}(pc_v) => {{ let pc_h = {code}; a.union(NameId({nid}u32), {i}usize, pc_h) }}",
                camel(&b.field.name)
            );
        }
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_array_to_arena(&self, id: TypeId, out: &mut String) -> GenResult<()> {
        let TypeKind::Array { elem, .. } = &self.schema.def(id).kind else {
            unreachable!("gen_array_to_arena on non-array")
        };
        let elem_repr = self.tyuse_repr(elem);
        let code = self.arena_lower(&elem_repr, "(*pc_e)")?;
        self.emit_to_arena_doc(out);
        let _ = writeln!(
            out,
            "    pub fn to_arena(&self, a: &mut ValueArena<{}>) -> AVal {{",
            self.arena_lt(id)
        );
        let _ = writeln!(out, "        let pc_mark = a.scratch_mark();");
        let _ = writeln!(out, "        for pc_e in &self.0 {{");
        let _ = writeln!(out, "            let pc_h = {code};");
        let _ = writeln!(out, "            a.scratch_push(pc_h);");
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "        a.array_from_scratch(pc_mark)");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_enum_to_arena(
        &self,
        variants: &[String],
        name: &str,
        out: &mut String,
    ) -> GenResult<()> {
        self.emit_to_arena_doc(out);
        let _ = writeln!(out, "    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {{");
        let _ = writeln!(out, "        match self {{");
        for (i, v) in variants.iter().enumerate() {
            let nid = self.name_id(v)?;
            let _ = writeln!(
                out,
                "            {name}::{} => a.enumv(NameId({nid}u32), {i}usize),",
                camel(v)
            );
        }
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_typedef_to_arena(&self, id: TypeId, base: &TyUse, out: &mut String) -> GenResult<()> {
        // The interpreter passes a typedef's underlying value through
        // unwrapped, so the newtype lowers as just its inner value.
        let code = self.arena_lower(&self.tyuse_repr(base), "self.0")?;
        self.emit_to_arena_doc(out);
        let _ = writeln!(
            out,
            "    pub fn to_arena(&self, a: &mut ValueArena<{}>) -> AVal {{",
            self.arena_lt(id)
        );
        let _ = writeln!(out, "        {code}");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    // ---- shared write/verify helpers -------------------------------------------

    fn lit_write_code(&self, lit: &Literal) -> GenResult<String> {
        Ok(match lit {
            Literal::Char(c) => format!("out.push(charset.encode({c}u8));"),
            Literal::Str(s) => format!(
                "out.extend({}.iter().map(|&b| charset.encode(b)));",
                bytes_lit(s)
            ),
            Literal::Regex(_) => {
                return Err(CodegenError::new(
                    "regex literals cannot be written back (no canonical text)",
                ))
            }
            Literal::Eor | Literal::Eof => String::new(),
        })
    }

    /// Code writing `place` (a reference or local of the tyuse's rep).
    fn tyuse_write_code(&self, ty: &TyUse, place: &str, ctx: &Ctx) -> GenResult<String> {
        match ty {
            TyUse::Named { id: _, args } => {
                let args_code = self.call_args(args, ctx)?;
                Ok(format!("{place}.write(out, charset, endian{args_code})?;"))
            }
            TyUse::Opt(inner) => {
                let inner_code = self.tyuse_write_code(inner, "pc_inner", ctx)?;
                Ok(format!(
                    "if let Some(pc_inner) = &({place}) {{ {inner_code} }}"
                ))
            }
            TyUse::Base { name, args } => {
                let repr = base_repr(name);
                // Hot-path writers for ambient text families: no Prim
                // boxing, no registry lookup.
                match (name.as_str(), &repr) {
                    (
                        "Pstring" | "Pstring_ME" | "Pstring_SE" | "Pzip" | "Phostname",
                        Repr::Str,
                    ) => {
                        return Ok(format!("wr_text(out, &{place}, charset);"));
                    }
                    (n, Repr::UInt(_)) if !n.ends_with("_FW") && !n.starts_with("Pb_")
                        && !n.starts_with("Pe_") && !n.starts_with("Pa_") && n != "Pbits" =>
                    {
                        return Ok(format!("wr_u64(out, (*{place}) as u64, charset);"));
                    }
                    (n, Repr::Int(_)) if !n.ends_with("_FW") && !n.starts_with("Pb_")
                        && !n.starts_with("Pe_") && !n.starts_with("Pa_")
                        && n != "Pebc_zoned" && n != "Ppacked" =>
                    {
                        return Ok(format!("wr_i64(out, (*{place}) as i64, charset);"));
                    }
                    ("Pchar", Repr::Char) => {
                        return Ok(format!("out.push(charset.encode(*{place}));"));
                    }
                    _ => {}
                }
                let prim = match repr {
                    Repr::UInt(_) => format!("Prim::Uint((*{place}) as u64)"),
                    Repr::Int(_) => format!("Prim::Int((*{place}) as i64)"),
                    Repr::Float => format!("Prim::Float(*{place})"),
                    Repr::Char => format!("Prim::Char(*{place})"),
                    Repr::Str => format!("Prim::String({place}.as_str().to_owned())"),
                    Repr::Date => format!("Prim::Date(*{place})"),
                    Repr::Ip => format!("Prim::Ip(*{place})"),
                    Repr::Unit => "Prim::Unit".to_owned(),
                    Repr::Prim => format!("{place}.clone()"),
                    _ => return Err(CodegenError::new("unexpected base representation")),
                };
                let arg_prims = self.arg_prims(args, ctx)?;
                Ok(format!(
                    "wr_prim(out, \"{name}\", &{prim}, &[{arg_prims}], charset, endian)?;"
                ))
            }
        }
    }

    /// Verification call for a nested representation, or `None` when the
    /// type carries no constraints (bases).
    fn nested_verify_code(
        &self,
        ty: &TyUse,
        place: &str,
        ctx: &Ctx,
    ) -> GenResult<Option<String>> {
        match ty {
            TyUse::Base { .. } => Ok(None),
            TyUse::Named { id: _, args } => {
                let call_args = self.call_args(args, ctx)?;
                Ok(Some(format!("{place}.verify({})", call_args.trim_start_matches(", "))))
            }
            TyUse::Opt(inner) => Ok(self.nested_verify_code(inner, "pc_inner", ctx)?.map(|code| {
                format!("(match &({place}) {{ Some(pc_inner) => {code}, None => true }})")
            })),
        }
    }

    fn gen_struct_write(
        &self,
        id: TypeId,
        members: &[MemberIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let ctx = self.self_ctx(id, members);
        let _ = writeln!(
            out,
            "    /// Writes the value in its original on-disk form{}.",
            if def.is_record { " (newline-terminated record)" } else { "" }
        );
        let _ = writeln!(
            out,
            "    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian{}) -> Result<(), ErrorCode> {{",
            self.params_sig(id)
        );
        for m in members {
            match m {
                MemberIr::Lit(l) => {
                    let code = self.lit_write_code(l)?;
                    if !code.is_empty() {
                        let _ = writeln!(out, "        {code}");
                    }
                }
                MemberIr::Field(f) => {
                    let place = format!("(&self.{})", field_name(&f.name));
                    let code = self.tyuse_write_code(&f.ty, &place, &ctx)?;
                    let _ = writeln!(out, "        {code}");
                }
            }
        }
        if def.is_record {
            let _ = writeln!(out, "        out.push(charset.encode(b'\\n'));");
        }
        let _ = writeln!(out, "        Ok(())");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    fn gen_struct_verify(
        &self,
        id: TypeId,
        members: &[MemberIr],
        out: &mut String,
    ) -> GenResult<()> {
        let def = self.schema.def(id);
        let ctx = self.self_ctx(id, members);
        let _ = writeln!(out, "    /// Re-checks all semantic constraints in memory.");
        let _ = writeln!(out, "    pub fn verify(&self{}) -> bool {{", self.params_sig(id));
        let _ = writeln!(out, "        let mut ok = true;");
        for m in members {
            if let MemberIr::Field(f) = m {
                if let Some(c) = &f.constraint {
                    let _ = writeln!(out, "        ok &= {};", holds(&self.compile_bool(c, &ctx)?));
                }
                let place = format!("(&self.{})", field_name(&f.name));
                if let Some(nested) = self.nested_verify_code(&f.ty, &place, &ctx)? {
                    let _ = writeln!(out, "        ok &= {};", holds(&nested));
                }
            }
        }
        if let Some(w) = &def.where_clause {
            let _ = writeln!(out, "        ok &= {};", holds(&self.compile_bool(w, &ctx)?));
        }
        let _ = writeln!(out, "        ok");
        let _ = writeln!(out, "    }}\n");
        Ok(())
    }

    // ---- module entry points -------------------------------------------------

    /// Emits the dense observation-id table and the pre-interned metrics
    /// core constructor: `OBS_TYPES[id]` is the schema name of the type
    /// whose readers emit `observe_enter_id(id, ..)` — the table order is
    /// the type-emission order, so ids are stable for a given description.
    fn gen_obs_table(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "/// Schema type names in dense observation-id order: `OBS_TYPES[id]`\n\
             /// names the type whose readers emit `observe_enter_id(id, ..)`."
        );
        let _ = writeln!(out, "pub const OBS_TYPES: &[&str] = &[");
        for def in &self.schema.types {
            let _ = writeln!(out, "    {:?},", def.name);
        }
        let _ = writeln!(out, "];");
        let _ = writeln!(
            out,
            "\n/// A metrics core pre-interned with this module's types, in dense-id\n\
             /// order — attach with `Cursor::with_metrics` and the readers' ids\n\
             /// index its counter slabs directly (no name lookups on the hot path).\n\
             pub fn metrics_core() -> MetricsCore {{\n    \
                 MetricsCore::with_names(OBS_TYPES.iter().copied())\n\
             }}\n"
        );
    }

    /// Emits `name_table()`: the dense per-schema name interning the
    /// `NameId(i)` literals in the `to_arena` lowerings index into.
    fn gen_name_table(&self, out: &mut String) {
        let _ = writeln!(
            out,
            "/// Interns every field/branch/variant name this module's `to_arena`\n\
             /// lowerings reference — `NameId(i)` in generated code names entry `i`."
        );
        let _ = writeln!(out, "pub fn name_table() -> NameTable {{");
        let _ = writeln!(out, "    let mut t = NameTable::new();");
        for n in &self.names {
            let _ = writeln!(out, "    t.intern({n:?});");
        }
        let _ = writeln!(out, "    t");
        let _ = writeln!(out, "}}\n");
    }

    fn gen_entry_points(&self, out: &mut String) -> GenResult<()> {
        let src = self.schema.source_def();
        if !src.params.is_empty() {
            return Ok(()); // parameterised sources have no standalone entry
        }
        let name = camel(&src.name);
        let src_id = self.schema.source();
        let lt = self.lt_args(src_id);
        // A free function, so it binds `'d` itself (unlike read methods,
        // whose `'d` comes from the surrounding impl).
        let (gen_lt, cur_lt) = if self.lt[src_id] { ("<'d>", "'d") } else { ("", "'_") };
        let _ = writeln!(
            out,
            "/// Parses the whole source ({}; the paper's single-call entry point).",
            src.name
        );
        let _ = writeln!(
            out,
            "pub fn parse_source{gen_lt}(cur: &mut Cursor<{cur_lt}>, mask: &Mask) -> ({name}{lt}, ParseDesc) {{"
        );
        let _ = writeln!(out, "    let (v, mut pd) = {name}::read(cur, mask);");
        let _ = writeln!(
            out,
            "    if cur.stopped() {{\n        \
                 let loc = Loc::at(cur.position());\n        \
                 pd.add_root_error(ErrorCode::BudgetExhausted, loc);\n        \
                 cur.observe_error(ErrorCode::BudgetExhausted, loc);\n    \
             }} else if !cur.at_eof() {{\n        \
                 let loc = Loc::at(cur.position());\n        \
                 pd.add_error(ErrorCode::ExtraDataAtEof, loc);\n        \
                 cur.observe_error(ErrorCode::ExtraDataAtEof, loc);\n    \
             }}"
        );
        let _ = writeln!(out, "    (v, pd)");
        let _ = writeln!(out, "}}");
        Ok(())
    }
}

/// The span a struct field's errors and verdicts are recorded at.
const AT: &str = "Loc::new(start, cur.position())";

/// `stmt` under `if guard`, indented by `pad`, as whole lines.
fn guarded(pad: usize, guard: &str, stmt: &str) -> String {
    let pad = " ".repeat(pad);
    format!("{pad}if {guard} {{\n{pad}    {stmt}\n{pad}}}\n")
}

/// A condition printed where no `Result` is returned: whether it holds,
/// an evaluation error counting as a violation (as the `Verifier` counts
/// it).
fn holds(cond: &str) -> String {
    if fallible(cond) {
        format!("(eval(|| Ok({cond})) == Ok(true))")
    } else {
        format!("({cond})")
    }
}

/// A literal as the runtime's `Lit`.
fn lit_code(lit: &Literal) -> String {
    match lit {
        Literal::Char(c) => format!("Lit::Char({c}u8)"),
        Literal::Str(s) => format!("Lit::Str({})", bytes_lit(s)),
        Literal::Regex(pat) => format!("Lit::Regex({pat:?})"),
        Literal::Eor => "Lit::Eor".to_owned(),
        Literal::Eof => "Lit::Eof".to_owned(),
    }
}

/// Renders a byte-string literal for ASCII text.
fn bytes_lit(s: &str) -> String {
    let mut out = String::from("b\"");
    for b in s.bytes() {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            0x20..=0x7E => out.push(b as char),
            other => out.push_str(&format!("\\x{other:02x}")),
        }
    }
    out.push('"');
    out
}
