//! Generated parser for `descriptions/sirius.pads`.
//!
//! @generated by pads-codegen — do not edit by hand.
#![allow(unused_mut, unused_variables, unused_parens, unused_assignments, unreachable_code, non_snake_case, non_camel_case_types, clippy::all)]

pub use pads_runtime::genrt::*;

/// Representation of `summary_header_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryHeaderT {
    pub tstamp: u32,
}

impl SummaryHeaderT {
    /// Parses one `summary_header_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (SummaryHeaderT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(0u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(0u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (SummaryHeaderT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_tstamp: u32 = Default::default();
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
            if let Err(e) = cur.match_lit(&Lit::Str(b"0|")) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("tstamp");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_tstamp = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("tstamp"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        if pc_opened { cur.close_record(&mut pd); }
        (SummaryHeaderT { tstamp: f_tstamp }, pd)
    }

    /// Writes the value in its original on-disk form (newline-terminated record).
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        out.extend(b"0|".iter().map(|&b| charset.encode(b)));
        wr_u64(out, (*(&self.tstamp)) as u64, charset);
        out.push(charset.encode(b'\n'));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_tstamp = a.uint((self.tstamp) as u64);
        a.strct(&[(NameId(0u32), pc_a_tstamp)])
    }

}

/// Representation of `no_ramp_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NoRampT {
    pub id: u64,
}

impl NoRampT {
    /// Parses one `no_ramp_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (NoRampT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(1u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(1u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (NoRampT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_id: u64 = Default::default();
        'body: {
            if let Err(e) = cur.match_lit(&Lit::Str(b"no_ii")) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("id");
                let start = cur.position();
                match rd_uint(cur, 64, None) {
                    Ok(v) => {
                        f_id = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("id"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (NoRampT { id: f_id }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        out.extend(b"no_ii".iter().map(|&b| charset.encode(b)));
        wr_u64(out, (*(&self.id)) as u64, charset);
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        let pc_a_id = a.uint((self.id) as u64);
        a.strct(&[(NameId(1u32), pc_a_id)])
    }

}

/// Representation of `dib_ramp_t` (Punion).
#[derive(Debug, Clone, PartialEq)]
pub enum DibRampT {
    Ramp(i64),
    GenRamp(NoRampT),
}

impl Default for DibRampT {
    fn default() -> Self { DibRampT::Ramp(Default::default()) }
}

impl DibRampT {
    /// Parses one `dib_ramp_t`: the first branch that parses without error wins.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (DibRampT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(2u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(2u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (DibRampT, ParseDesc) {
        const NAMES: &[Name] = &[Name::from_static("ramp"), Name::from_static("genRamp")];
        read_union(cur, mask, NAMES, |cur, i, m| match i {
            0 => {
                let (f_ramp, bpd) = rd_pd(cur, |cur| rd_int(cur, 64, None));
                (bpd.is_ok()).then(|| (DibRampT::Ramp(f_ramp), bpd))
            }
            1 => {
                let (f_genRamp, bpd) = NoRampT::read(cur, m);
                (bpd.is_ok()).then(|| (DibRampT::GenRamp(f_genRamp), bpd))
            }
            _ => None,
        }, Self::default)
    }

    /// Writes the taken branch in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        match self {
            DibRampT::Ramp(v) => { wr_i64(out, (*v) as i64, charset); }
            DibRampT::GenRamp(v) => { v.write(out, charset, endian)?; }
        }
        Ok(())
    }

    /// Re-checks branch constraints in memory.
    pub fn verify(&self) -> bool {
        match self {
            DibRampT::Ramp(v) => true,
            DibRampT::GenRamp(v) => true && (v.verify()),
        }
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        match self {
            DibRampT::Ramp(pc_v) => { let pc_h = a.int(((*pc_v)) as i64); a.union(NameId(2u32), 0usize, pc_h) }
            DibRampT::GenRamp(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.union(NameId(3u32), 1usize, pc_h) }
        }
    }

}

/// Representation of `pn_t` (Ptypedef).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PnT(pub u64);

impl PnT {
    /// Parses the underlying type, then checks the constraint.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (PnT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl::<true>(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(3u32);
        let (v, pd) = Self::read_impl::<true>(cur, mask);
        cur.observe_exit_id(3u32, obs_off, &pd);
        (v, pd)
    }
    /// `read` for a `Popt`, which keeps only a clean read's value: the
    /// same value and events, the underlying descriptor not nested.
    pub fn read_opt(cur: &mut Cursor<'_>, mask: &Mask) -> (PnT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl::<false>(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(3u32);
        let (v, pd) = Self::read_impl::<false>(cur, mask);
        cur.observe_exit_id(3u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl<const NEST: bool>(cur: &mut Cursor<'_>, mask: &Mask) -> (PnT, ParseDesc) {
        let (v, pd) = read_typedef(cur, mask, NEST, |cur| rd_pd(cur, |cur| rd_uint(cur, 64, None)), |v| Ok(true));
        (PnT(v), pd)
    }

    /// Writes the underlying value in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.0)) as u64, charset);
        Ok(())
    }

    /// Re-checks the typedef constraint in memory.
    pub fn verify(&self) -> bool {
        true
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        a.uint((self.0) as u64)
    }

}

/// Representation of `order_header_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OrderHeaderT<'d> {
    pub order_num: u32,
    pub att_order_num: u32,
    pub ord_version: u32,
    pub service_tn: Option<PnT>,
    pub billing_tn: Option<PnT>,
    pub nlp_service_tn: Option<PnT>,
    pub nlp_billing_tn: Option<PnT>,
    pub zip_code: Option<PStr<'d>>,
    pub ramp: DibRampT,
    pub order_type: PStr<'d>,
    pub order_details: u32,
    pub unused: PStr<'d>,
    pub stream: PStr<'d>,
}

impl<'d> OrderHeaderT<'d> {
    /// Parses one `order_header_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (OrderHeaderT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(4u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(4u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (OrderHeaderT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_order_num: u32 = Default::default();
        let mut f_att_order_num: u32 = Default::default();
        let mut f_ord_version: u32 = Default::default();
        let mut f_service_tn: Option<PnT> = Default::default();
        let mut f_billing_tn: Option<PnT> = Default::default();
        let mut f_nlp_service_tn: Option<PnT> = Default::default();
        let mut f_nlp_billing_tn: Option<PnT> = Default::default();
        let mut f_zip_code: Option<PStr<'d>> = Default::default();
        let mut f_ramp: DibRampT = Default::default();
        let mut f_order_type: PStr<'d> = Default::default();
        let mut f_order_details: u32 = Default::default();
        let mut f_unused: PStr<'d> = Default::default();
        let mut f_stream: PStr<'d> = Default::default();
        'body: {
            {
                let m = mask.child("order_num");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_order_num = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("order_num"), fpd));
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
                let m = mask.child("att_order_num");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_att_order_num = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("att_order_num"), fpd));
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
                let m = mask.child("ord_version");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_ord_version = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("ord_version"), fpd));
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
                let m = mask.child("service_tn");
                let cp = cur.checkpoint();
                let (v, ipd) = PnT::read_opt(cur, &m);
                if ipd.is_ok() {
                    f_service_tn = Some(v);
                } else {
                    cur.restore(cp);
                    f_service_tn = None;
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("billing_tn");
                let cp = cur.checkpoint();
                let (v, ipd) = PnT::read_opt(cur, &m);
                if ipd.is_ok() {
                    f_billing_tn = Some(v);
                } else {
                    cur.restore(cp);
                    f_billing_tn = None;
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("nlp_service_tn");
                let cp = cur.checkpoint();
                let (v, ipd) = PnT::read_opt(cur, &m);
                if ipd.is_ok() {
                    f_nlp_service_tn = Some(v);
                } else {
                    cur.restore(cp);
                    f_nlp_service_tn = None;
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("nlp_billing_tn");
                let cp = cur.checkpoint();
                let (v, ipd) = PnT::read_opt(cur, &m);
                if ipd.is_ok() {
                    f_nlp_billing_tn = Some(v);
                } else {
                    cur.restore(cp);
                    f_nlp_billing_tn = None;
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("zip_code");
                let cp = cur.checkpoint();
                match rd_string(cur, "Pzip", &[]) {
                    Ok(v) => { f_zip_code = Some(v); }
                    Err(_) => { cur.restore(cp); f_zip_code = None; }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("ramp");
                let (v, mut fpd) = DibRampT::read(cur, &m);
                f_ramp = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("ramp"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("order_type");
                let start = cur.position();
                match rd_string_term(cur, 124u8) {
                    Ok(v) => {
                        f_order_type = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("order_type"), fpd));
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
                let m = mask.child("order_details");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_order_details = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("order_details"), fpd));
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
                let m = mask.child("unused");
                let start = cur.position();
                match rd_string_term(cur, 124u8) {
                    Ok(v) => {
                        f_unused = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("unused"), fpd));
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
                let m = mask.child("stream");
                let start = cur.position();
                match rd_string_term(cur, 124u8) {
                    Ok(v) => {
                        f_stream = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("stream"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(124u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (OrderHeaderT { order_num: f_order_num, att_order_num: f_att_order_num, ord_version: f_ord_version, service_tn: f_service_tn, billing_tn: f_billing_tn, nlp_service_tn: f_nlp_service_tn, nlp_billing_tn: f_nlp_billing_tn, zip_code: f_zip_code, ramp: f_ramp, order_type: f_order_type, order_details: f_order_details, unused: f_unused, stream: f_stream }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_u64(out, (*(&self.order_num)) as u64, charset);
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.att_order_num)) as u64, charset);
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.ord_version)) as u64, charset);
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.service_tn)) { pc_inner.write(out, charset, endian)?; }
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.billing_tn)) { pc_inner.write(out, charset, endian)?; }
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.nlp_service_tn)) { pc_inner.write(out, charset, endian)?; }
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.nlp_billing_tn)) { pc_inner.write(out, charset, endian)?; }
        out.push(charset.encode(124u8));
        if let Some(pc_inner) = &((&self.zip_code)) { wr_text(out, &pc_inner, charset); }
        out.push(charset.encode(124u8));
        (&self.ramp).write(out, charset, endian)?;
        out.push(charset.encode(124u8));
        wr_text(out, &(&self.order_type), charset);
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.order_details)) as u64, charset);
        out.push(charset.encode(124u8));
        wr_text(out, &(&self.unused), charset);
        out.push(charset.encode(124u8));
        wr_text(out, &(&self.stream), charset);
        out.push(charset.encode(124u8));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((match &((&self.service_tn)) { Some(pc_inner) => pc_inner.verify(), None => true }));
        ok &= ((match &((&self.billing_tn)) { Some(pc_inner) => pc_inner.verify(), None => true }));
        ok &= ((match &((&self.nlp_service_tn)) { Some(pc_inner) => pc_inner.verify(), None => true }));
        ok &= ((match &((&self.nlp_billing_tn)) { Some(pc_inner) => pc_inner.verify(), None => true }));
        ok &= ((&self.ramp).verify());
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_order_num = a.uint((self.order_num) as u64);
        let pc_a_att_order_num = a.uint((self.att_order_num) as u64);
        let pc_a_ord_version = a.uint((self.ord_version) as u64);
        let pc_a_service_tn = match &(self.service_tn) { Some(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_billing_tn = match &(self.billing_tn) { Some(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_nlp_service_tn = match &(self.nlp_service_tn) { Some(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_nlp_billing_tn = match &(self.nlp_billing_tn) { Some(pc_v) => { let pc_h = ((*pc_v)).to_arena(a); a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_zip_code = match &(self.zip_code) { Some(pc_v) => { let pc_h = match &((*pc_v)).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) }; a.opt_some(pc_h) } None => a.opt_none() };
        let pc_a_ramp = (self.ramp).to_arena(a);
        let pc_a_order_type = match &(self.order_type).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        let pc_a_order_details = a.uint((self.order_details) as u64);
        let pc_a_unused = match &(self.unused).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        let pc_a_stream = match &(self.stream).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        a.strct(&[(NameId(4u32), pc_a_order_num), (NameId(5u32), pc_a_att_order_num), (NameId(6u32), pc_a_ord_version), (NameId(7u32), pc_a_service_tn), (NameId(8u32), pc_a_billing_tn), (NameId(9u32), pc_a_nlp_service_tn), (NameId(10u32), pc_a_nlp_billing_tn), (NameId(11u32), pc_a_zip_code), (NameId(2u32), pc_a_ramp), (NameId(12u32), pc_a_order_type), (NameId(13u32), pc_a_order_details), (NameId(14u32), pc_a_unused), (NameId(15u32), pc_a_stream)])
    }

}

/// Representation of `event_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventT<'d> {
    pub state: PStr<'d>,
    pub tstamp: u32,
}

impl<'d> EventT<'d> {
    /// Parses one `event_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (EventT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(5u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(5u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (EventT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_state: PStr<'d> = Default::default();
        let mut f_tstamp: u32 = Default::default();
        'body: {
            {
                let m = mask.child("state");
                let start = cur.position();
                match rd_string_term(cur, 124u8) {
                    Ok(v) => {
                        f_state = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("state"), fpd));
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
                let m = mask.child("tstamp");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_tstamp = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("tstamp"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (EventT { state: f_state, tstamp: f_tstamp }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_text(out, &(&self.state), charset);
        out.push(charset.encode(124u8));
        wr_u64(out, (*(&self.tstamp)) as u64, charset);
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_state = match &(self.state).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        let pc_a_tstamp = a.uint((self.tstamp) as u64);
        a.strct(&[(NameId(16u32), pc_a_state), (NameId(0u32), pc_a_tstamp)])
    }

}

/// Representation of `eventSeq` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventSeq<'d>(pub Vec<EventT<'d>>);

impl<'d> EventSeq<'d> {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (EventSeq<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(6u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(6u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (EventSeq<'d>, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: Some(Lit::Char(124u8)), term: Some(Lit::Eor), elem_recovers: false, forall: true };
        let (elts, pd) = read_array(cur, mask, &SHAPE, None, |cur, m| EventT::read(cur, m), |elts| Ok(false), |elts| Ok(ops::forall(Scalar::Int(0), ops::sub(Scalar::Uint(elts.len() as u64), Scalar::Int(2))?, |i| Ok(ops::le((*ops::index(&elts, i.view())?).tstamp.view(), (*ops::index(&elts, ops::add(i.view(), Scalar::Int(1))?)?).tstamp.view())?))?));
        (EventSeq(elts), pd)
    }

    /// Writes the sequence in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 { out.push(charset.encode(124u8)); }
            v.write(out, charset, endian)?;
        }
        Ok(())
    }

    /// Re-checks sequence constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= self.0.iter().all(|e| (e.verify()));
        ok &= (eval(|| Ok(ops::forall(Scalar::Int(0), ops::sub(Scalar::Uint(self.0.len() as u64), Scalar::Int(2))?, |i| Ok(ops::le((*ops::index(&self.0, i.view())?).tstamp.view(), (*ops::index(&self.0, ops::add(i.view(), Scalar::Int(1))?)?).tstamp.view())?))?)) == Ok(true));
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

/// Representation of `entry_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EntryT<'d> {
    pub header: OrderHeaderT<'d>,
    pub events: EventSeq<'d>,
}

impl<'d> EntryT<'d> {
    /// Parses one `entry_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (EntryT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(7u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(7u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (EntryT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_header: OrderHeaderT<'d> = Default::default();
        let mut f_events: EventSeq<'d> = Default::default();
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
                let m = mask.child("header");
                let (v, mut fpd) = OrderHeaderT::read(cur, &m);
                f_header = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("header"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            {
                let m = mask.child("events");
                let (v, mut fpd) = EventSeq::read(cur, &m);
                f_events = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("events"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        if pc_opened { cur.close_record(&mut pd); }
        (EntryT { header: f_header, events: f_events }, pd)
    }

    /// Writes the value in its original on-disk form (newline-terminated record).
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        (&self.header).write(out, charset, endian)?;
        (&self.events).write(out, charset, endian)?;
        out.push(charset.encode(b'\n'));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.header).verify());
        ok &= ((&self.events).verify());
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_header = (self.header).to_arena(a);
        let pc_a_events = (self.events).to_arena(a);
        a.strct(&[(NameId(17u32), pc_a_header), (NameId(18u32), pc_a_events)])
    }

}

/// Representation of `entries_t` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EntriesT<'d>(pub Vec<EntryT<'d>>);

impl<'d> EntriesT<'d> {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (EntriesT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(8u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(8u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (EntriesT<'d>, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: None, term: None, elem_recovers: true, forall: false };
        let (elts, pd) = read_array(cur, mask, &SHAPE, None, |cur, m| EntryT::read(cur, m), |elts| Ok(false), |elts| Ok(true));
        (EntriesT(elts), pd)
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

/// Representation of `out_sum` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OutSum<'d> {
    pub h: SummaryHeaderT,
    pub es: EntriesT<'d>,
}

impl<'d> OutSum<'d> {
    /// Parses one `out_sum` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (OutSum<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(9u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(9u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (OutSum<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_h: SummaryHeaderT = Default::default();
        let mut f_es: EntriesT<'d> = Default::default();
        'body: {
            {
                let m = mask.child("h");
                let (v, mut fpd) = SummaryHeaderT::read(cur, &m);
                f_h = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("h"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            {
                let m = mask.child("es");
                let (v, mut fpd) = EntriesT::read(cur, &m);
                f_es = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("es"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (OutSum { h: f_h, es: f_es }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        (&self.h).write(out, charset, endian)?;
        (&self.es).write(out, charset, endian)?;
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.h).verify());
        ok &= ((&self.es).verify());
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_h = (self.h).to_arena(a);
        let pc_a_es = (self.es).to_arena(a);
        a.strct(&[(NameId(19u32), pc_a_h), (NameId(20u32), pc_a_es)])
    }

}

/// Schema type names in dense observation-id order: `OBS_TYPES[id]`
/// names the type whose readers emit `observe_enter_id(id, ..)`.
pub const OBS_TYPES: &[&str] = &[
    "summary_header_t",
    "no_ramp_t",
    "dib_ramp_t",
    "pn_t",
    "order_header_t",
    "event_t",
    "eventSeq",
    "entry_t",
    "entries_t",
    "out_sum",
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
    t.intern("tstamp");
    t.intern("id");
    t.intern("ramp");
    t.intern("genRamp");
    t.intern("order_num");
    t.intern("att_order_num");
    t.intern("ord_version");
    t.intern("service_tn");
    t.intern("billing_tn");
    t.intern("nlp_service_tn");
    t.intern("nlp_billing_tn");
    t.intern("zip_code");
    t.intern("order_type");
    t.intern("order_details");
    t.intern("unused");
    t.intern("stream");
    t.intern("state");
    t.intern("header");
    t.intern("events");
    t.intern("h");
    t.intern("es");
    t
}

/// Parses the whole source (out_sum; the paper's single-call entry point).
pub fn parse_source<'d>(cur: &mut Cursor<'d>, mask: &Mask) -> (OutSum<'d>, ParseDesc) {
    let (v, mut pd) = OutSum::read(cur, mask);
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
