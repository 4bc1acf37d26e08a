//! Generated parser for `descriptions/mixed.pads`.
//!
//! @generated by pads-codegen — do not edit by hand.
#![allow(unused_mut, unused_variables, unused_parens, unused_assignments, unreachable_code, non_snake_case, non_camel_case_types, clippy::all)]

pub use pads_runtime::genrt::*;

/// Representation of `sev_t` (Penum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SevT {
    #[default]
    LOW = 0,
    MED = 1,
    HIGH = 2,
}

impl SevT {
    /// Parses the longest matching variant literal.
    pub fn read(cur: &mut Cursor<'_>, _mask: &Mask) -> (SevT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, _mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(0u32);
        let (v, pd) = Self::read_impl(cur, _mask);
        cur.observe_exit_id(0u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, _mask: &Mask) -> (SevT, ParseDesc) {
        const VARIANTS: &[Name] = &[Name::from_static("LOW"), Name::from_static("MED"), Name::from_static("HIGH")];
        const ALL: &[SevT] = &[SevT::LOW, SevT::MED, SevT::HIGH];
        let (i, pd) = read_enum(cur, VARIANTS);
        (ALL.get(i).copied().unwrap_or_default(), pd)
    }

    /// Writes the variant literal in the ambient coding.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, _endian: Endian) -> Result<(), ErrorCode> {
        let lit: &[u8] = match self {
            SevT::LOW => b"LOW",
            SevT::MED => b"MED",
            SevT::HIGH => b"HIGH",
        };
        out.extend(lit.iter().map(|&b| charset.encode(b)));
        Ok(())
    }

    /// Enums carry no constraints.
    pub fn verify(&self) -> bool { true }
    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        match self {
            SevT::LOW => a.enumv(NameId(0u32), 0usize),
            SevT::MED => a.enumv(NameId(1u32), 1usize),
            SevT::HIGH => a.enumv(NameId(2u32), 2usize),
        }
    }

}

/// Representation of `pair_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PairT<'d> {
    pub key: PStr<'d>,
    pub val: f64,
}

impl<'d> PairT<'d> {
    /// Parses one `pair_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask, p_w: i64) -> (PairT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask, p_w);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(1u32);
        let (v, pd) = Self::read_impl(cur, mask, p_w);
        cur.observe_exit_id(1u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask, p_w: i64) -> (PairT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_key: PStr<'d> = Default::default();
        let mut f_val: f64 = Default::default();
        'body: {
            {
                let m = mask.child("key");
                let start = cur.position();
                match eval(|| rd_string(cur, "Pstring_FW", &[p_w.view().to_prim()?])) {
                    Ok(v) => {
                        f_key = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("key"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(61u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("val");
                let start = cur.position();
                match rd_float(cur, "Pfloat64") {
                    Ok(v) => {
                        f_val = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("val"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (PairT { key: f_key, val: f_val }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian, p_w: i64) -> Result<(), ErrorCode> {
        wr_prim(out, "Pstring_FW", &Prim::String((&self.key).as_str().to_owned()), &[p_w.view().to_prim()?], charset, endian)?;
        out.push(charset.encode(61u8));
        wr_prim(out, "Pfloat64", &Prim::Float(*(&self.val)), &[], charset, endian)?;
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self, p_w: i64) -> bool {
        let mut ok = true;
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_key = match &(self.key).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        let pc_a_val = a.float(self.val);
        a.strct(&[(NameId(3u32), pc_a_key), (NameId(4u32), pc_a_val)])
    }

}

/// Representation of `body_t` (Punion).
#[derive(Debug, Clone, PartialEq)]
pub enum BodyT<'d> {
    Num(u32),
    Text(PStr<'d>),
    Skip(()),
}

impl<'d> Default for BodyT<'d> {
    fn default() -> Self { BodyT::Num(Default::default()) }
}

impl<'d> BodyT<'d> {
    /// Parses one `body_t` (Pswitch union).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask, p_kind: i64) -> (BodyT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask, p_kind);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(2u32);
        let (v, pd) = Self::read_impl(cur, mask, p_kind);
        cur.observe_exit_id(2u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask, p_kind: i64) -> (BodyT<'d>, ParseDesc) {
        const NAMES: &[Name] = &[Name::from_static("num"), Name::from_static("text"), Name::from_static("skip")];
        let sel = eval(|| Ok(p_kind.view()));
        let chosen = sel.map(|sel| if ops::case_eq(sel, Scalar::Int(0)) { Some(0) } else if ops::case_eq(sel, Scalar::Int(1)) { Some(1) } else { Some(2) });
        read_switched(cur, mask, NAMES, chosen, |cur, i, m| match i {
            0 => {
                let (f_num, bpd) = rd_pd(cur, |cur| rd_uint(cur, 32, None).map(|v| v as u32));
                let holds = Ok(true);
                (BodyT::Num(f_num), bpd, holds)
            }
            1 => {
                let (f_text, bpd) = rd_pd(cur, |cur| rd_string_term(cur, 124u8));
                let holds = Ok(true);
                (BodyT::Text(f_text), bpd, holds)
            }
            2 => {
                let (f_skip, bpd) = rd_pd(cur, |cur| Ok::<(), ErrorCode>(()));
                let holds = Ok(true);
                (BodyT::Skip(f_skip), bpd, holds)
            }
            _ => (Self::default(), ParseDesc::ok(), Ok(true)),
        }, Self::default)
    }

    /// Writes the taken branch in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian, p_kind: i64) -> Result<(), ErrorCode> {
        match self {
            BodyT::Num(v) => { wr_u64(out, (*v) as u64, charset); }
            BodyT::Text(v) => { wr_text(out, &v, charset); }
            BodyT::Skip(v) => { wr_prim(out, "Pvoid", &Prim::Unit, &[], charset, endian)?; }
        }
        Ok(())
    }

    /// Re-checks branch constraints in memory.
    pub fn verify(&self, p_kind: i64) -> bool {
        match self {
            BodyT::Num(v) => true,
            BodyT::Text(v) => true,
            BodyT::Skip(v) => true,
        }
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        match self {
            BodyT::Num(pc_v) => { let pc_h = a.uint(((*pc_v)) as u64); a.union(NameId(5u32), 0usize, pc_h) }
            BodyT::Text(pc_v) => { let pc_h = match &((*pc_v)).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) }; a.union(NameId(6u32), 1usize, pc_h) }
            BodyT::Skip(pc_v) => { let pc_h = a.unit(); a.union(NameId(7u32), 2usize, pc_h) }
        }
    }

}

/// Representation of `vals_t` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValsT(pub Vec<u32>);

impl ValsT {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask, p_n: i64) -> (ValsT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask, p_n);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(3u32);
        let (v, pd) = Self::read_impl(cur, mask, p_n);
        cur.observe_exit_id(3u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask, p_n: i64) -> (ValsT, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: Some(Lit::Char(44u8)), term: None, elem_recovers: false, forall: false };
        let (elts, pd) = read_array(cur, mask, &SHAPE, Some(eval(|| Ok(p_n.view())).ok().and_then(|n| usize::try_from(n.as_u64()?).ok())), |cur, m| rd_pd(cur, |cur| rd_uint(cur, 32, None).map(|v| v as u32)), |elts| Ok(false), |elts| Ok(true));
        (ValsT(elts), pd)
    }

    /// Writes the sequence in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian, p_n: i64) -> Result<(), ErrorCode> {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 { out.push(charset.encode(44u8)); }
            wr_u64(out, (*v) as u64, charset);
        }
        Ok(())
    }

    /// Re-checks sequence constraints in memory.
    pub fn verify(&self, p_n: i64) -> bool {
        let mut ok = true;
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

/// Representation of `until0_t` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Until0T(pub Vec<u32>);

impl Until0T {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (Until0T, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(4u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(4u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (Until0T, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: Some(Lit::Char(44u8)), term: None, elem_recovers: false, forall: false };
        let (elts, pd) = read_array(cur, mask, &SHAPE, None, |cur, m| rd_pd(cur, |cur| rd_uint(cur, 32, None).map(|v| v as u32)), |elts| Ok(ops::eq((*ops::index(&elts, ops::sub(Scalar::Uint(elts.len() as u64), Scalar::Int(1))?)?).view(), Scalar::Int(0))?), |elts| Ok(true));
        (Until0T(elts), pd)
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

/// Representation of `code_t` (Ptypedef).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CodeT(pub u16);

impl CodeT {
    /// Parses the underlying type, then checks the constraint.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (CodeT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(5u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(5u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (CodeT, ParseDesc) {
        let (v, pd) = read_typedef(cur, mask, true, |cur| rd_pd(cur, |cur| rd_u64_dyn(cur, "Puint16_FW", &[Prim::Int(4)]).map(|v| v as u16)), |v| Ok((ops::le(Scalar::Int(1000), (*v).view())? && ops::le((*v).view(), Scalar::Int(9999))?)));
        (CodeT(v), pd)
    }

    /// Writes the underlying value in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_prim(out, "Puint16_FW", &Prim::Uint((*(&self.0)) as u64), &[Prim::Int(4)], charset, endian)?;
        Ok(())
    }

    /// Re-checks the typedef constraint in memory.
    pub fn verify(&self) -> bool {
        (eval(|| Ok((ops::le(Scalar::Int(1000), self.0.view())? && ops::le(self.0.view(), Scalar::Int(9999))?))) == Ok(true))
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        a.uint((self.0) as u64)
    }

}

/// Representation of `rec_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecT<'d> {
    pub code: CodeT,
    pub sev: SevT,
    pub kind: u8,
    pub body: BodyT<'d>,
    pub extra: Option<PairT<'d>>,
    pub tag8: u64,
    pub nvals: u8,
    pub vals: ValsT,
}

impl<'d> RecT<'d> {
    /// Parses one `rec_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (RecT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(6u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(6u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (RecT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_code: CodeT = Default::default();
        let mut f_sev: SevT = Default::default();
        let mut f_kind: u8 = Default::default();
        let mut f_body: BodyT<'d> = Default::default();
        let mut f_extra: Option<PairT<'d>> = Default::default();
        let mut f_tag8: u64 = Default::default();
        let mut f_nvals: u8 = Default::default();
        let mut f_vals: ValsT = Default::default();
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
                let m = mask.child("code");
                let (v, mut fpd) = CodeT::read(cur, &m);
                f_code = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("code"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("sev");
                let (v, mut fpd) = SevT::read(cur, &m);
                f_sev = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("sev"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("kind");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_kind = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("kind"), eval(|| Ok(ops::le(f_kind.view(), Scalar::Int(2))?)), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok(ops::le(f_kind.view(), Scalar::Int(2))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("kind"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("body");
                let (v, mut fpd) = rd_args(cur, eval(|| Ok([f_kind.view().int()?])), |cur, [pc_a0]| BodyT::read(cur, &m, pc_a0));
                f_body = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("body"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("extra");
                let cp = cur.checkpoint();
                let (v, ipd) = PairT::read(cur, &m, 3i64);
                if ipd.is_ok() {
                    f_extra = Some(v);
                } else {
                    cur.restore(cp);
                    f_extra = None;
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("tag8");
                let start = cur.position();
                match rd_u64_dyn(cur, "Pbits", &[Prim::Int(8)]) {
                    Ok(v) => {
                        f_tag8 = v;
                        if m.base().checks() {
                            field_verdict(&mut pd, &mut pds, Name::from_static("tag8"), eval(|| Ok((ops::le(Scalar::Int(32), f_tag8.view())? && ops::le(f_tag8.view(), Scalar::Int(126))?))), Loc::new(start, cur.position()));
                        }
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        if !syn && m.base().checks() {
                            fpd.add_verdict(eval(|| Ok((ops::le(Scalar::Int(32), f_tag8.view())? && ops::le(f_tag8.view(), Scalar::Int(126))?))), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                        }
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("tag8"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("nvals");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_nvals = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("nvals"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("vals");
                let (v, mut fpd) = rd_args(cur, eval(|| Ok([f_nvals.view().int()?])), |cur, [pc_a0]| ValsT::read(cur, &m, pc_a0));
                f_vals = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("vals"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if mask.compound().checks() {
                pd.add_verdict(eval(|| Ok(ops::le(f_nvals.view(), Scalar::Int(9))?)), ErrorCode::WhereViolation, Loc::at(cur.position()));
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        if pc_opened { cur.close_record(&mut pd); }
        (RecT { code: f_code, sev: f_sev, kind: f_kind, body: f_body, extra: f_extra, tag8: f_tag8, nvals: f_nvals, vals: f_vals }, pd)
    }

    /// Writes the value in its original on-disk form (newline-terminated record).
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        (&self.code).write(out, charset, endian)?;
        out.push(charset.encode(124u8));
        (&self.sev).write(out, charset, endian)?;
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.kind)) as u64, charset);
        out.push(charset.encode(124u8));
        (&self.body).write(out, charset, endian, self.kind.view().int()?)?;
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.extra)) { pc_inner.write(out, charset, endian, 3i64)?; }
        out.push(charset.encode(124u8));
        wr_prim(out, "Pbits", &Prim::Uint((*(&self.tag8)) as u64), &[Prim::Int(8)], charset, endian)?;
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.nvals)) as u64, charset);
        out.push(charset.encode(124u8));
        (&self.vals).write(out, charset, endian, self.nvals.view().int()?)?;
        out.push(charset.encode(b'\n'));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.code).verify());
        ok &= ((&self.sev).verify());
        ok &= (eval(|| Ok(ops::le(self.kind.view(), Scalar::Int(2))?)) == Ok(true));
        ok &= (eval(|| Ok((&self.body).verify(self.kind.view().int()?))) == Ok(true));
        ok &= ((match &((&self.extra)) { Some(pc_inner) => pc_inner.verify(3i64), None => true }));
        ok &= (eval(|| Ok((ops::le(Scalar::Int(32), self.tag8.view())? && ops::le(self.tag8.view(), Scalar::Int(126))?))) == Ok(true));
        ok &= (eval(|| Ok((&self.vals).verify(self.nvals.view().int()?))) == Ok(true));
        ok &= (eval(|| Ok(ops::le(self.nvals.view(), Scalar::Int(9))?)) == Ok(true));
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_code = (self.code).to_arena(a);
        let pc_a_sev = (self.sev).to_arena(a);
        let pc_a_kind = a.uint((self.kind) as u64);
        let pc_a_body = (self.body).to_arena(a);
        let pc_a_extra = match &(self.extra) { Some(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_tag8 = a.uint((self.tag8) as u64);
        let pc_a_nvals = a.uint((self.nvals) as u64);
        let pc_a_vals = (self.vals).to_arena(a);
        a.strct(&[(NameId(8u32), pc_a_code), (NameId(9u32), pc_a_sev), (NameId(10u32), pc_a_kind), (NameId(11u32), pc_a_body), (NameId(12u32), pc_a_extra), (NameId(13u32), pc_a_tag8), (NameId(14u32), pc_a_nvals), (NameId(15u32), pc_a_vals)])
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
        cur.observe_enter_id(7u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(7u32, obs_off, &pd);
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
    "sev_t",
    "pair_t",
    "body_t",
    "vals_t",
    "until0_t",
    "code_t",
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
    t.intern("LOW");
    t.intern("MED");
    t.intern("HIGH");
    t.intern("key");
    t.intern("val");
    t.intern("num");
    t.intern("text");
    t.intern("skip");
    t.intern("code");
    t.intern("sev");
    t.intern("kind");
    t.intern("body");
    t.intern("extra");
    t.intern("tag8");
    t.intern("nvals");
    t.intern("vals");
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
