//! Generated parser for `tests/descriptions/operators.pads`.
//!
//! @generated by pads-codegen — do not edit by hand.
#![allow(unused_mut, unused_variables, unused_parens, unused_assignments, unreachable_code, non_snake_case, non_camel_case_types, clippy::all)]

pub use pads_runtime::genrt::*;

pub fn gt<'a>(v: Scalar<'a>, lim: Scalar<'a>) -> Result<bool, ErrorCode> {
    return Ok(ops::gt(v, lim)?);
    Err(ErrorCode::EvalError)
}

/// Representation of `quot_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuotT {
    pub a: u32,
    pub b: u32,
}

impl QuotT {
    /// Parses one `quot_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (QuotT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(0u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(0u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (QuotT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_a: u32 = Default::default();
        let mut f_b: u32 = Default::default();
        'body: {
            {
                let m = mask.child("a");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_a = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("a"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(44u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("b");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_b = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("b"), eval(|| Ok(ops::ge(ops::div(f_a.view(), f_b.view())?, Scalar::Int(1))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(ops::ge(ops::div(f_a.view(), f_b.view())?, Scalar::Int(1))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("b"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (QuotT { a: f_a, b: f_b }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.a)) as u64, charset);
        out.push(charset.encode(44u8));
        wr_u64(out, (*(&self.b)) as u64, charset);
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(ops::ge(ops::div(self.a.view(), self.b.view())?, Scalar::Int(1))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_a = a.uint((self.a) as u64);
        let pc_a_b = a.uint((self.b) as u64);
        a.strct(&[(NameId(0u32), pc_a_a), (NameId(1u32), pc_a_b)])
    }

}

/// Representation of `big_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BigT {
    pub c: u64,
}

impl BigT {
    /// Parses one `big_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (BigT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(1u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(1u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (BigT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_c: u64 = Default::default();
        'body: {
            {
                let m = mask.child("c");
                let start = cur.position();
                match rd_uint(cur, 64, None) {
                    Ok(v) => {
                        f_c = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("c"), eval(|| Ok(ops::gt(f_c.view(), Scalar::Int(0))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(ops::gt(f_c.view(), Scalar::Int(0))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("c"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (BigT { c: f_c }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.c)) as u64, charset);
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(ops::gt(self.c.view(), Scalar::Int(0))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_c = a.uint((self.c) as u64);
        a.strct(&[(NameId(2u32), pc_a_c)])
    }

}

/// Representation of `frac_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FracT {
    pub f: f64,
}

impl FracT {
    /// Parses one `frac_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (FracT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(2u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(2u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (FracT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_f: f64 = Default::default();
        'body: {
            {
                let m = mask.child("f");
                let start = cur.position();
                match rd_float(cur, "Pfloat64") {
                    Ok(v) => {
                        f_f = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("f"), eval(|| Ok(ops::gt(f_f.view(), Scalar::Float(0.5))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(ops::gt(f_f.view(), Scalar::Float(0.5))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("f"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (FracT { f: f_f }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_prim(out, "Pfloat64", &Prim::Float(*(&self.f)), &[], charset, endian)?;
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(ops::gt(self.f.view(), Scalar::Float(0.5))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_f = a.float(self.f);
        a.strct(&[(NameId(3u32), pc_a_f)])
    }

}

/// Representation of `opt_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptT {
    pub x: Option<u32>,
    pub y: u32,
}

impl OptT {
    /// Parses one `opt_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (OptT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(3u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(3u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (OptT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_x: Option<u32> = Default::default();
        let mut f_y: u32 = Default::default();
        'body: {
            {
                let m = mask.child("x");
                let cp = cur.checkpoint();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => { f_x = Some(v); }
                    Err(_) => { cur.restore(cp); f_x = None; }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(44u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("y");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_y = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("y"), eval(|| Ok(ops::gt(f_y.view(), f_x.as_ref().map_or(Scalar::Absent, |pc_v| (*pc_v).view()))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(ops::gt(f_y.view(), f_x.as_ref().map_or(Scalar::Absent, |pc_v| (*pc_v).view()))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("y"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (OptT { x: f_x, y: f_y }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        if let Some(pc_inner) = &((&self.x)) { wr_u64(out, (*pc_inner) as u64, charset); }
        out.push(charset.encode(44u8));
        wr_u64(out, (*(&self.y)) as u64, charset);
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(ops::gt(self.y.view(), self.x.as_ref().map_or(Scalar::Absent, |pc_v| (*pc_v).view()))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_x = match &(self.x) { Some(pc_v) => { let pc_h = a.uint(((*pc_v)) as u64); a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_y = a.uint((self.y) as u64);
        a.strct(&[(NameId(4u32), pc_a_x), (NameId(5u32), pc_a_y)])
    }

}

/// Representation of `run_t` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunT(pub Vec<u8>);

impl RunT {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (RunT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(4u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(4u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (RunT, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: Some(Lit::Char(44u8)), term: Some(Lit::Eor), elem_recovers: false, forall: true };
        let (elts, pd) = read_array(cur, mask, &SHAPE, None, |cur, m| rd_pd(cur, |cur| rd_uint(cur, 8, None).map(|v| v as u8)), |elts| Ok(false), |elts| Ok(ops::forall(Scalar::Int(0), ops::sub(Scalar::Uint(elts.len() as u64), Scalar::Int(1))?, |i| Ok(ops::le((*ops::index(&elts, i.view())?).view(), (*ops::index(&elts, ops::add(i.view(), Scalar::Int(1))?)?).view())?))?));
        (RunT(elts), pd)
    }

    /// Writes the sequence in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 { out.push(charset.encode(44u8)); }
            wr_u64(out, (*v) as u64, charset);
        }
        Ok(())
    }

    /// Re-checks sequence constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(ops::forall(Scalar::Int(0), ops::sub(Scalar::Uint(self.0.len() as u64), Scalar::Int(1))?, |i| Ok(ops::le((*ops::index(&self.0, i.view())?).view(), (*ops::index(&self.0, ops::add(i.view(), Scalar::Int(1))?)?).view())?))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_mark = a.scratch_mark();
        for pc_e in &self.0 {
            let pc_h = a.uint(((*pc_e)) as u64);
            a.scratch_push(pc_h);
        }
        a.array_from_scratch(pc_mark)
    }

}

/// Representation of `sorted_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SortedT {
    pub s: RunT,
}

impl SortedT {
    /// Parses one `sorted_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (SortedT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(5u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(5u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (SortedT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_s: RunT = Default::default();
        'body: {
            {
                let m = mask.child("s");
                let (v, mut fpd) = RunT::read(cur, &m);
                f_s = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("s"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (SortedT { s: f_s }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        (&self.s).write(out, charset, endian)?;
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.s).verify());
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_s = (self.s).to_arena(a);
        a.strct(&[(NameId(6u32), pc_a_s)])
    }

}

/// Representation of `fun_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FunT {
    pub g: f64,
}

impl FunT {
    /// Parses one `fun_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (FunT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(6u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(6u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (FunT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_g: f64 = Default::default();
        'body: {
            {
                let m = mask.child("g");
                let start = cur.position();
                match rd_float(cur, "Pfloat64") {
                    Ok(v) => {
                        f_g = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("g"), eval(|| Ok(gt(f_g.view(), Scalar::Float(0.25))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(gt(f_g.view(), Scalar::Float(0.25))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("g"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (FunT { g: f_g }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_prim(out, "Pfloat64", &Prim::Float(*(&self.g)), &[], charset, endian)?;
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(gt(self.g.view(), Scalar::Float(0.25))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_g = a.float(self.g);
        a.strct(&[(NameId(7u32), pc_a_g)])
    }

}

/// Representation of `pick_t` (Punion).
#[derive(Debug, Clone, PartialEq)]
pub enum PickT<'d> {
    Two(u8),
    Other(PStr<'d>),
}

impl<'d> Default for PickT<'d> {
    fn default() -> Self { PickT::Two(Default::default()) }
}

impl<'d> PickT<'d> {
    /// Parses one `pick_t` (Pswitch union).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask, p_k: i64) -> (PickT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask, p_k);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(7u32);
        let (v, pd) = Self::read_impl(cur, mask, p_k);
        cur.observe_exit_id(7u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask, p_k: i64) -> (PickT<'d>, ParseDesc) {
        const NAMES: &[Name] = &[Name::from_static("two"), Name::from_static("other")];
        let sel = eval(|| Ok(ops::div(Scalar::Int(10), p_k.view())?));
        let chosen = sel.map(|sel| if ops::case_eq(sel, Scalar::Int(5)) { Some(0) } else { Some(1) });
        read_switched(cur, mask, NAMES, chosen, |cur, i, m| match i {
            0 => {
                let (f_two, bpd) = rd_pd(cur, |cur| rd_uint(cur, 8, None).map(|v| v as u8));
                let holds = Ok(true);
                (PickT::Two(f_two), bpd, holds)
            }
            1 => {
                let (f_other, bpd) = rd_pd(cur, |cur| rd_string_term(cur, 44u8));
                let holds = Ok(true);
                (PickT::Other(f_other), bpd, holds)
            }
            _ => (Self::default(), ParseDesc::ok(), Ok(true)),
        }, Self::default)
    }

    /// Writes the taken branch in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian, p_k: i64) -> Result<(), ErrorCode> {
        match self {
            PickT::Two(v) => { wr_u64(out, (*v) as u64, charset); }
            PickT::Other(v) => { wr_text(out, &v, charset); }
        }
        Ok(())
    }

    /// Re-checks branch constraints in memory.
    pub fn verify(&self, p_k: i64) -> bool {
        match self {
            PickT::Two(v) => true,
            PickT::Other(v) => true,
        }
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        match self {
            PickT::Two(pc_v) => { let pc_h = a.uint(((*pc_v)) as u64); a.union(NameId(8u32), 0usize, pc_h) }
            PickT::Other(pc_v) => { let pc_h = match &((*pc_v)).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) }; a.union(NameId(9u32), 1usize, pc_h) }
        }
    }

}

/// Representation of `sel_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelT<'d> {
    pub k: u32,
    pub pick: PickT<'d>,
}

impl<'d> SelT<'d> {
    /// Parses one `sel_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (SelT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(8u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(8u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (SelT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_k: u32 = Default::default();
        let mut f_pick: PickT<'d> = Default::default();
        'body: {
            {
                let m = mask.child("k");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_k = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("k"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(44u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("pick");
                let (v, mut fpd) = rd_args(cur, eval(|| Ok([f_k.view().int()?])), |cur, [pc_a0]| PickT::read(cur, &m, pc_a0));
                f_pick = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("pick"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (SelT { k: f_k, pick: f_pick }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.k)) as u64, charset);
        out.push(charset.encode(44u8));
        (&self.pick).write(out, charset, endian, self.k.view().int()?)?;
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok((&self.pick).verify(self.k.view().int()?))) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_k = a.uint((self.k) as u64);
        let pc_a_pick = (self.pick).to_arena(a);
        a.strct(&[(NameId(10u32), pc_a_k), (NameId(11u32), pc_a_pick)])
    }

}

/// Representation of `width_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WidthT<'d> {
    pub n: u8,
    pub w: PStr<'d>,
    pub z: u8,
}

impl<'d> WidthT<'d> {
    /// Parses one `width_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (WidthT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(9u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(9u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (WidthT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_n: u8 = Default::default();
        let mut f_w: PStr<'d> = Default::default();
        let mut f_z: u8 = Default::default();
        'body: {
            {
                let m = mask.child("n");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_n = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("n"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(44u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("w");
                let start = cur.position();
                match eval(|| rd_string(cur, "Pstring_FW", &[ops::div(Scalar::Int(10), f_n.view())?.to_prim()?])) {
                    Ok(v) => {
                        f_w = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("w"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(44u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("z");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_z = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("z"), eval(|| Ok(ops::gt(f_z.view(), Scalar::Int(0))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(ops::gt(f_z.view(), Scalar::Int(0))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("z"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (WidthT { n: f_n, w: f_w, z: f_z }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.n)) as u64, charset);
        out.push(charset.encode(44u8));
        wr_prim(out, "Pstring_FW", &Prim::String((&self.w).as_str().to_owned()), &[ops::div(Scalar::Int(10), self.n.view())?.to_prim()?], charset, endian)?;
        out.push(charset.encode(44u8));
        wr_u64(out, (*(&self.z)) as u64, charset);
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok(ops::gt(self.z.view(), Scalar::Int(0))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_n = a.uint((self.n) as u64);
        let pc_a_w = match &(self.w).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        let pc_a_z = a.uint((self.z) as u64);
        a.strct(&[(NameId(12u32), pc_a_n), (NameId(13u32), pc_a_w), (NameId(14u32), pc_a_z)])
    }

}

/// Representation of `probe_t` (Punion).
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeT<'d> {
    Quot(QuotT),
    Big(BigT),
    Frac(FracT),
    Opt(OptT),
    Sorted(SortedT),
    Fun(FunT),
    Sel(SelT<'d>),
    Width(WidthT<'d>),
}

impl<'d> Default for ProbeT<'d> {
    fn default() -> Self { ProbeT::Quot(Default::default()) }
}

impl<'d> ProbeT<'d> {
    /// Parses one `probe_t` (Pswitch union).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask, p_op: i64) -> (ProbeT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask, p_op);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(10u32);
        let (v, pd) = Self::read_impl(cur, mask, p_op);
        cur.observe_exit_id(10u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask, p_op: i64) -> (ProbeT<'d>, ParseDesc) {
        const NAMES: &[Name] = &[Name::from_static("quot"), Name::from_static("big"), Name::from_static("frac"), Name::from_static("opt"), Name::from_static("sorted"), Name::from_static("fun"), Name::from_static("sel"), Name::from_static("width")];
        let sel = eval(|| Ok(p_op.view()));
        let chosen = sel.map(|sel| if ops::case_eq(sel, Scalar::Int(0)) { Some(0) } else if ops::case_eq(sel, Scalar::Int(1)) { Some(1) } else if ops::case_eq(sel, Scalar::Int(2)) { Some(2) } else if ops::case_eq(sel, Scalar::Int(3)) { Some(3) } else if ops::case_eq(sel, Scalar::Int(4)) { Some(4) } else if ops::case_eq(sel, Scalar::Int(5)) { Some(5) } else if ops::case_eq(sel, Scalar::Int(6)) { Some(6) } else if ops::case_eq(sel, Scalar::Int(7)) { Some(7) } else { None });
        read_switched(cur, mask, NAMES, chosen, |cur, i, m| match i {
            0 => {
                let (f_quot, bpd) = QuotT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Quot(f_quot), bpd, holds)
            }
            1 => {
                let (f_big, bpd) = BigT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Big(f_big), bpd, holds)
            }
            2 => {
                let (f_frac, bpd) = FracT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Frac(f_frac), bpd, holds)
            }
            3 => {
                let (f_opt, bpd) = OptT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Opt(f_opt), bpd, holds)
            }
            4 => {
                let (f_sorted, bpd) = SortedT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Sorted(f_sorted), bpd, holds)
            }
            5 => {
                let (f_fun, bpd) = FunT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Fun(f_fun), bpd, holds)
            }
            6 => {
                let (f_sel, bpd) = SelT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Sel(f_sel), bpd, holds)
            }
            7 => {
                let (f_width, bpd) = WidthT::read(cur, m);
                let holds = Ok(true);
                (ProbeT::Width(f_width), bpd, holds)
            }
            _ => (Self::default(), ParseDesc::ok(), Ok(true)),
        }, Self::default)
    }

    /// Writes the taken branch in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian, p_op: i64) -> Result<(), ErrorCode> {
        match self {
            ProbeT::Quot(v) => { v.write(out, charset, endian)?; }
            ProbeT::Big(v) => { v.write(out, charset, endian)?; }
            ProbeT::Frac(v) => { v.write(out, charset, endian)?; }
            ProbeT::Opt(v) => { v.write(out, charset, endian)?; }
            ProbeT::Sorted(v) => { v.write(out, charset, endian)?; }
            ProbeT::Fun(v) => { v.write(out, charset, endian)?; }
            ProbeT::Sel(v) => { v.write(out, charset, endian)?; }
            ProbeT::Width(v) => { v.write(out, charset, endian)?; }
        }
        Ok(())
    }

    /// Re-checks branch constraints in memory.
    pub fn verify(&self, p_op: i64) -> bool {
        match self {
            ProbeT::Quot(v) => true && (v.verify()),
            ProbeT::Big(v) => true && (v.verify()),
            ProbeT::Frac(v) => true && (v.verify()),
            ProbeT::Opt(v) => true && (v.verify()),
            ProbeT::Sorted(v) => true && (v.verify()),
            ProbeT::Fun(v) => true && (v.verify()),
            ProbeT::Sel(v) => true && (v.verify()),
            ProbeT::Width(v) => true && (v.verify()),
        }
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        match self {
            ProbeT::Quot(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(15u32), 0usize, pc_h) }
            ProbeT::Big(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(16u32), 1usize, pc_h) }
            ProbeT::Frac(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(17u32), 2usize, pc_h) }
            ProbeT::Opt(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(18u32), 3usize, pc_h) }
            ProbeT::Sorted(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(19u32), 4usize, pc_h) }
            ProbeT::Fun(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(20u32), 5usize, pc_h) }
            ProbeT::Sel(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(21u32), 6usize, pc_h) }
            ProbeT::Width(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(22u32), 7usize, pc_h) }
        }
    }

}

/// Representation of `rec_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecT<'d> {
    pub op: u8,
    pub probe: ProbeT<'d>,
}

impl<'d> RecT<'d> {
    /// Parses one `rec_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (RecT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(11u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(11u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (RecT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_op: u8 = Default::default();
        let mut f_probe: ProbeT<'d> = Default::default();
        let pc_opened = match cur.open_record() {
            RecordOpen::Nested => false,
            RecordOpen::Opened(None) => true,
            RecordOpen::Opened(Some((code, loc))) => {
                pd.add_error(code, loc);
                true
            }
            RecordOpen::Done(pd) => return (Default::default(), pd),
        };
        'body: {
            {
                let m = mask.child("op");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_op = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("op"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(58u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("probe");
                let (v, mut fpd) = rd_args(cur, eval(|| Ok([f_op.view().int()?])), |cur, [pc_a0]| ProbeT::read(cur, &m, pc_a0));
                f_probe = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("probe"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        if pc_opened { cur.close_record(&mut pd); }
        (RecT { op: f_op, probe: f_probe }, pd)
    }

    /// Writes the value in its original on-disk form (newline-terminated record).
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.op)) as u64, charset);
        out.push(charset.encode(58u8));
        (&self.probe).write(out, charset, endian, self.op.view().int()?)?;
        out.push(charset.encode(b'\n'));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= (eval(|| Ok((&self.probe).verify(self.op.view().int()?))) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_op = a.uint((self.op) as u64);
        let pc_a_probe = (self.probe).to_arena(a);
        a.strct(&[(NameId(23u32), pc_a_op), (NameId(24u32), pc_a_probe)])
    }

}

/// Representation of `recs_t` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecsT<'d>(pub Vec<RecT<'d>>);

impl<'d> RecsT<'d> {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (RecsT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(12u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(12u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (RecsT<'d>, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: None, term: None, elem_recovers: true, forall: false };
        let (elts, pd) = read_array(cur, mask, &SHAPE, None, |cur, m| RecT::read(cur, m), |elts| Ok(false), |elts| Ok(true));
        (RecsT(elts), pd)
    }

    /// Writes the sequence in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        for (i, v) in self.0.iter().enumerate() {
            v.write(out, charset, endian)?;
        }
        Ok(())
    }

    /// Re-checks sequence constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= self.0.iter().all(|e| (e.verify()));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_mark = a.scratch_mark();
        for pc_e in &self.0 {
            let pc_h = ((*pc_e)).to_arena(a);
            a.scratch_push(pc_h);
        }
        a.array_from_scratch(pc_mark)
    }

}

/// Schema type names in dense observation-id order: `OBS_TYPES[id]`
/// names the type whose readers emit `observe_enter_id(id, ..)`.
pub const OBS_TYPES: &[&str] = &[
    "quot_t",
    "big_t",
    "frac_t",
    "opt_t",
    "run_t",
    "sorted_t",
    "fun_t",
    "pick_t",
    "sel_t",
    "width_t",
    "probe_t",
    "rec_t",
    "recs_t",
];

/// A metrics core pre-interned with this module's types, in dense-id
/// order — attach with `Cursor::with_metrics` and the readers' ids
/// index its counter slabs directly (no name lookups on the hot path).
pub fn metrics_core() -> MetricsCore {
    MetricsCore::with_names(OBS_TYPES.iter().copied())
}

/// Interns every field/branch/variant name this module's `to_arena`
/// lowerings reference — `NameId(i)` in generated code names entry `i`.
pub fn name_table() -> NameTable {
    let mut t = NameTable::new();
    t.intern("a");
    t.intern("b");
    t.intern("c");
    t.intern("f");
    t.intern("x");
    t.intern("y");
    t.intern("s");
    t.intern("g");
    t.intern("two");
    t.intern("other");
    t.intern("k");
    t.intern("pick");
    t.intern("n");
    t.intern("w");
    t.intern("z");
    t.intern("quot");
    t.intern("big");
    t.intern("frac");
    t.intern("opt");
    t.intern("sorted");
    t.intern("fun");
    t.intern("sel");
    t.intern("width");
    t.intern("op");
    t.intern("probe");
    t
}

/// Parses the whole source (recs_t; the paper's single-call entry point).
pub fn parse_source<'d>(cur: &mut Cursor<'d>, mask: &Mask) -> (RecsT<'d>, ParseDesc) {
    let (v, mut pd) = RecsT::read(cur, mask);
    if cur.stopped() {
        let loc = Loc::at(cur.position());
        pd.add_root_error(ErrorCode::BudgetExhausted, loc);
        cur.observe_error(ErrorCode::BudgetExhausted, loc);
    } else if !cur.at_eof() {
        let loc = Loc::at(cur.position());
        pd.add_error(ErrorCode::ExtraDataAtEof, loc);
        cur.observe_error(ErrorCode::ExtraDataAtEof, loc);
    }
    (v, pd)
}
