//! Generated parser for the kitchen-sink `mixed` description.
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

impl PcVal for SevT {
    fn pc_num(&self) -> i64 { *self as i64 }
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
        if pc_match_str(cur, b"HIGH") { return (SevT::HIGH, ParseDesc::ok()); }
        if pc_match_str(cur, b"LOW") { return (SevT::LOW, ParseDesc::ok()); }
        if pc_match_str(cur, b"MED") { return (SevT::MED, ParseDesc::ok()); }
        let pd = ParseDesc::error(ErrorCode::EnumNoMatch, Loc::at(cur.position()));
        (SevT::default(), pd)
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
                match rd_string(cur, "Pstring_FW", &[Prim::Uint((p_w) as u64)]) {
                    Ok(v) => {
                        f_key = v;
                    }
                    Err(e) => {
                        let fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("key"), fpd));
                        pd.state = ParseState::Partial;
                        break 'body;
                    }
                }
            }
            if !(pc_match_char(cur, 61u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
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
                        let fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("val"), fpd));
                        pd.state = ParseState::Partial;
                        break 'body;
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (PairT { key: f_key, val: f_val }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian, p_w: i64) -> Result<(), ErrorCode> {
        wr_prim(out, "Pstring_FW", &Prim::String((&self.key).as_str().to_owned()), &[Prim::Uint((p_w) as u64)], charset, endian)?;
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
        let start = cur.position();
        let sel: i64 = p_kind;
        if sel == (0i64) {
            let m = mask.child("num");
            let (f_num, mut bpd) = match rd_uint(cur, 32, None).map(|v| v as u32) {
                Ok(v) => (v, ParseDesc::ok()),
                Err(e) => (Default::default(), ParseDesc::error(e, Loc::new(start, cur.position()))),
            };
            let mut pd = ParseDesc::ok();
            pd.absorb(&bpd);
            pd.kind = PdKind::union(Name::from_static("num"), bpd);
            return (BodyT::Num(f_num), pd);
        }
        if sel == (1i64) {
            let m = mask.child("text");
            let (f_text, mut bpd) = match rd_string_term(cur, (124i64) as u8) {
                Ok(v) => (v, ParseDesc::ok()),
                Err(e) => (Default::default(), ParseDesc::error(e, Loc::new(start, cur.position()))),
            };
            let mut pd = ParseDesc::ok();
            pd.absorb(&bpd);
            pd.kind = PdKind::union(Name::from_static("text"), bpd);
            return (BodyT::Text(f_text), pd);
        }
        {
            let m = mask.child("skip");
            let (f_skip, mut bpd) = match Ok::<(), ErrorCode>(()) {
                Ok(v) => (v, ParseDesc::ok()),
                Err(e) => (Default::default(), ParseDesc::error(e, Loc::new(start, cur.position()))),
            };
            let mut pd = ParseDesc::ok();
            pd.absorb(&bpd);
            pd.kind = PdKind::union(Name::from_static("skip"), bpd);
            return (BodyT::Skip(f_skip), pd);
        }
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
        let mut elts: Vec<u32> = Vec::new();
        let mut elt_pds = SparseElts::new();
        let mut pd = ParseDesc::ok();
        let mut neerr: u32 = 0;
        let mut first_error: Option<usize> = None;
        let elem_mask = mask.child("elt");
        let want: usize = (p_n) as usize;
        loop {
            if elts.len() >= want { break; }
            if !elts.is_empty() {
                let cp = cur.checkpoint();
                if !(pc_match_char(cur, 44u8)) {
                    cur.restore(cp);
                    pd.add_error(ErrorCode::ArraySepMismatch, Loc::at(cur.position()));
                    pd.state = ParseState::Partial;
                    break;
                }
            }
            let before = cur.offset();
            let (v, epd) = {
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => (v, ParseDesc::ok()),
                    Err(e) => (Default::default(), ParseDesc::error(e, Loc::new(start, cur.position()))),
                }
            };
            let bad = !epd.is_ok();
            let syn = epd.has_syntax_error();
            if bad {
                neerr += 1;
                if first_error.is_none() { first_error = Some(elts.len()); }
            }
            pd.absorb(&epd);
            elts.push(v);
            elt_pds.push(epd);
            if syn && !false { pd.state = ParseState::Partial; break; }
        }
        if elts.len() != want { pd.add_error(ErrorCode::ArraySizeMismatch, Loc::at(cur.position())); }
        pd.kind = PdKind::Array { elts: elt_pds.finish(), neerr, first_error };
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
        let mut elts: Vec<u32> = Vec::new();
        let mut elt_pds = SparseElts::new();
        let mut pd = ParseDesc::ok();
        let mut neerr: u32 = 0;
        let mut first_error: Option<usize> = None;
        let elem_mask = mask.child("elt");
        loop {
            if (if cur.in_record() { cur.at_eor() } else { cur.at_eof() }) { break; }
            if !elts.is_empty() {
                let cp = cur.checkpoint();
                if !(pc_match_char(cur, 44u8)) {
                    cur.restore(cp);
                    pd.add_error(ErrorCode::ArraySepMismatch, Loc::at(cur.position()));
                    pd.state = ParseState::Partial;
                    break;
                }
            }
            let before = cur.offset();
            let (v, epd) = {
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => (v, ParseDesc::ok()),
                    Err(e) => (Default::default(), ParseDesc::error(e, Loc::new(start, cur.position()))),
                }
            };
            let bad = !epd.is_ok();
            let syn = epd.has_syntax_error();
            if bad {
                neerr += 1;
                if first_error.is_none() { first_error = Some(elts.len()); }
            }
            pd.absorb(&epd);
            elts.push(v);
            elt_pds.push(epd);
            if syn && !false { pd.state = ParseState::Partial; break; }
            if cur.offset() == before { pd.add_error(ErrorCode::ArrayTermMismatch, Loc::at(cur.position())); break; }
            if (((elts[((((elts.len() as i64)).wrapping_sub(1i64))) as usize]).pc_num()) == (0i64)) {  break; }
        }
        pd.kind = PdKind::Array { elts: elt_pds.finish(), neerr, first_error };
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

impl PcVal for CodeT {
    fn pc_num(&self) -> i64 { (self.0).pc_num() }
    fn pc_str(&self) -> Option<&str> { (self.0).pc_str() }
}

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
        let start = cur.position();
        match rd_u64_dyn(cur, "Puint16_FW", &[Prim::Uint((4i64) as u64)]).map(|v| v as u16) {
            Ok(v) => {
                let mut pd = ParseDesc::ok();
                if mask.base().checks() && !((((1000i64) <= ((v).pc_num())) && (((v).pc_num()) <= (9999i64)))) { pd.add_error(ErrorCode::ConstraintViolation, Loc::new(start, cur.position())); }
                pd.kind = PdKind::typedef(ParseDesc::ok());
                (CodeT(v), pd)
            }
            Err(e) => {
                let mut pd = ParseDesc::error(e, Loc::new(start, cur.position()));
                pd.kind = PdKind::typedef(ParseDesc::ok());
                (CodeT::default(), pd)
            }
        }
    }

    /// Writes the underlying value in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_prim(out, "Puint16_FW", &Prim::Uint((*(&self.0)) as u64), &[Prim::Uint((4i64) as u64)], charset, endian)?;
        Ok(())
    }

    /// Re-checks the typedef constraint in memory.
    pub fn verify(&self) -> bool {
        (((1000i64) <= ((self.0).pc_num())) && (((self.0).pc_num()) <= (9999i64)))
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
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
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
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("kind");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_kind = v;
                        if m.base().checks() && !((((f_kind).pc_num()) <= (2i64))) {
                            let mut fpd = ParseDesc::ok();
                            fpd.add_error(ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                            pd.absorb(&fpd);
                            pds.push((Name::from_static("kind"), fpd));
                        }
                    }
                    Err(e) => {
                        let fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("kind"), fpd));
                        pd.state = ParseState::Partial;
                        break 'body;
                    }
                }
            }
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("body");
                let (v, mut fpd) = BodyT::read(cur, &m, ((f_kind).pc_num()));
                f_body = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("body"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("extra");
                let cp = cur.checkpoint();
                let (v, ipd) = PairT::read(cur, &m, (3i64));
                if ipd.is_ok() {
                    f_extra = Some(v);
                } else {
                    cur.restore(cp);
                    f_extra = None;
                }
            }
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("tag8");
                let start = cur.position();
                match rd_u64_dyn(cur, "Pbits", &[Prim::Uint((8i64) as u64)]) {
                    Ok(v) => {
                        f_tag8 = v;
                        if m.base().checks() && !((((32i64) <= ((f_tag8).pc_num())) && (((f_tag8).pc_num()) <= (126i64)))) {
                            let mut fpd = ParseDesc::ok();
                            fpd.add_error(ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                            pd.absorb(&fpd);
                            pds.push((Name::from_static("tag8"), fpd));
                        }
                    }
                    Err(e) => {
                        let fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("tag8"), fpd));
                        pd.state = ParseState::Partial;
                        break 'body;
                    }
                }
            }
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
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
                        let fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("nvals"), fpd));
                        pd.state = ParseState::Partial;
                        break 'body;
                    }
                }
            }
            if !(pc_match_char(cur, 124u8)) {
                pd.add_error(ErrorCode::LitMismatch, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("vals");
                let (v, mut fpd) = ValsT::read(cur, &m, ((f_nvals).pc_num()));
                f_vals = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("vals"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if mask.compound().checks() && !((((f_nvals).pc_num()) <= (9i64))) {
                pd.add_error(ErrorCode::WhereViolation, Loc::at(cur.position()));
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
        (&self.body).write(out, charset, endian, ((self.kind).pc_num()))?;
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.extra)) { pc_inner.write(out, charset, endian, (3i64))?; }
        out.push(charset.encode(124u8));
        wr_prim(out, "Pbits", &Prim::Uint((*(&self.tag8)) as u64), &[Prim::Uint((8i64) as u64)], charset, endian)?;
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.nvals)) as u64, charset);
        out.push(charset.encode(124u8));
        (&self.vals).write(out, charset, endian, ((self.nvals).pc_num()))?;
        out.push(charset.encode(b'\n'));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.code).verify());
        ok &= ((&self.sev).verify());
        ok &= ((((self.kind).pc_num()) <= (2i64)));
        ok &= ((&self.body).verify(((self.kind).pc_num())));
        ok &= ((&self.extra).as_ref().map_or(true, |pc_inner| pc_inner.verify((3i64))));
        ok &= ((((32i64) <= ((self.tag8).pc_num())) && (((self.tag8).pc_num()) <= (126i64))));
        ok &= ((&self.vals).verify(((self.nvals).pc_num())));
        ok &= ((((self.nvals).pc_num()) <= (9i64)));
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
        let mut elts: Vec<RecT<'d>> = Vec::new();
        let mut elt_pds = SparseElts::new();
        let mut pd = ParseDesc::ok();
        let mut neerr: u32 = 0;
        let mut first_error: Option<usize> = None;
        let elem_mask = mask.child("elt");
        loop {
            if (if cur.in_record() { cur.at_eor() } else { cur.at_eof() }) { break; }
            let before = cur.offset();
            let (v, epd) = RecT::read(cur, &elem_mask);
            let bad = !epd.is_ok();
            let syn = epd.has_syntax_error();
            if bad {
                neerr += 1;
                if first_error.is_none() { first_error = Some(elts.len()); }
            }
            pd.absorb(&epd);
            elts.push(v);
            elt_pds.push(epd);
            if syn && !true { pd.state = ParseState::Partial; break; }
            if cur.offset() == before { pd.add_error(ErrorCode::ArrayTermMismatch, Loc::at(cur.position())); break; }
        }
        pd.kind = PdKind::Array { elts: elt_pds.finish(), neerr, first_error };
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
        ok &= self.0.iter().all(|e| e.verify());
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
