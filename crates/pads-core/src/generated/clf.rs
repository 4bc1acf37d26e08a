//! Generated parser for `descriptions/clf.pads`.
//!
//! @generated by pads-codegen — do not edit by hand.
#![allow(unused_mut, unused_variables, unused_parens, unused_assignments, unreachable_code, non_snake_case, non_camel_case_types, clippy::all)]

pub use pads_runtime::genrt::*;

pub fn chkVersion<'a>(v: &'a VersionT, m: Scalar<'a>) -> Result<bool, ErrorCode> {
    if (ops::eq((*v).major.view(), Scalar::Int(1))? && ops::eq((*v).minor.view(), Scalar::Int(1))?) {
    return Ok(true);
    }
    if (ops::eq(m, Scalar::Uint(5))? || ops::eq(m, Scalar::Uint(6))?) {
    return Ok(false);
    }
    return Ok(true);
    Err(ErrorCode::EvalError)
}

/// Representation of `client_t` (Punion).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientT<'d> {
    Ip([u8; 4]),
    Host(PStr<'d>),
}

impl<'d> Default for ClientT<'d> {
    fn default() -> Self { ClientT::Ip(Default::default()) }
}

impl<'d> ClientT<'d> {
    /// Parses one `client_t`: the first branch that parses without error wins.
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (ClientT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(0u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(0u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (ClientT<'d>, ParseDesc) {
        const NAMES: &[Name] = &[Name::from_static("ip"), Name::from_static("host")];
        read_union(cur, mask, NAMES, |cur, i, m| match i {
            0 => {
                let (f_ip, bpd) = rd_pd(cur, |cur| rd_ip(cur));
                (bpd.is_ok()).then(|| (ClientT::Ip(f_ip), bpd))
            }
            1 => {
                let (f_host, bpd) = rd_pd(cur, |cur| rd_string(cur, "Phostname", &[]));
                (bpd.is_ok()).then(|| (ClientT::Host(f_host), bpd))
            }
            _ => None,
        }, Self::default)
    }

    /// Writes the taken branch in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        match self {
            ClientT::Ip(v) => { wr_prim(out, "Pip", &Prim::Ip(*v), &[], charset, endian)?; }
            ClientT::Host(v) => { wr_text(out, &v, charset); }
        }
        Ok(())
    }

    /// Re-checks branch constraints in memory.
    pub fn verify(&self) -> bool {
        match self {
            ClientT::Ip(v) => true,
            ClientT::Host(v) => true,
        }
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        match self {
            ClientT::Ip(pc_v) => { let pc_h = a.ip((*pc_v)); a.union(NameId(0u32), 0usize, pc_h) }
            ClientT::Host(pc_v) => { let pc_h = match &((*pc_v)).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) }; a.union(NameId(1u32), 1usize, pc_h) }
        }
    }

}

/// Representation of `auth_id_t` (Punion).
#[derive(Debug, Clone, PartialEq)]
pub enum AuthIdT<'d> {
    Unauthorized(u8),
    Id(PStr<'d>),
}

impl<'d> Default for AuthIdT<'d> {
    fn default() -> Self { AuthIdT::Unauthorized(Default::default()) }
}

impl<'d> AuthIdT<'d> {
    /// Parses one `auth_id_t`: the first branch that parses without error wins.
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (AuthIdT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(1u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(1u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (AuthIdT<'d>, ParseDesc) {
        const NAMES: &[Name] = &[Name::from_static("unauthorized"), Name::from_static("id")];
        read_union(cur, mask, NAMES, |cur, i, m| match i {
            0 => {
                let (f_unauthorized, bpd) = rd_pd(cur, |cur| rd_char(cur, None));
                (bpd.is_ok() && eval(|| Ok(ops::eq(Scalar::Char(f_unauthorized), Scalar::Char(45))?)) == Ok(true)).then(|| (AuthIdT::Unauthorized(f_unauthorized), bpd))
            }
            1 => {
                let (f_id, bpd) = rd_pd(cur, |cur| rd_string_term(cur, 32u8));
                (bpd.is_ok()).then(|| (AuthIdT::Id(f_id), bpd))
            }
            _ => None,
        }, Self::default)
    }

    /// Writes the taken branch in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        match self {
            AuthIdT::Unauthorized(v) => { out.push(charset.encode(*v)); }
            AuthIdT::Id(v) => { wr_text(out, &v, charset); }
        }
        Ok(())
    }

    /// Re-checks branch constraints in memory.
    pub fn verify(&self) -> bool {
        match self {
            AuthIdT::Unauthorized(v) => (eval(|| Ok(ops::eq(Scalar::Char((*v)), Scalar::Char(45))?)) == Ok(true)),
            AuthIdT::Id(v) => true,
        }
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        match self {
            AuthIdT::Unauthorized(pc_v) => { let pc_h = a.char((*pc_v)); a.union(NameId(2u32), 0usize, pc_h) }
            AuthIdT::Id(pc_v) => { let pc_h = match &((*pc_v)).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) }; a.union(NameId(3u32), 1usize, pc_h) }
        }
    }

}

/// Representation of `version_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VersionT {
    pub major: u8,
    pub minor: u8,
}

impl VersionT {
    /// Parses one `version_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (VersionT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(2u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(2u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (VersionT, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_major: u8 = Default::default();
        let mut f_minor: u8 = Default::default();
        'body: {
            if let Err(e) = cur.match_lit(&Lit::Str(b"HTTP/")) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("major");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_major = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("major"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(46u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("minor");
                let start = cur.position();
                match rd_uint(cur, 8, None).map(|v| v as u8) {
                    Ok(v) => {
                        f_minor = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("minor"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (VersionT { major: f_major, minor: f_minor }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        out.extend(b"HTTP/".iter().map(|&b| charset.encode(b)));
        wr_u64(out, (*(&self.major)) as u64, charset);
        out.push(charset.encode(46u8));
        wr_u64(out, (*(&self.minor)) as u64, charset);
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
        let pc_a_major = a.uint((self.major) as u64);
        let pc_a_minor = a.uint((self.minor) as u64);
        a.strct(&[(NameId(4u32), pc_a_major), (NameId(5u32), pc_a_minor)])
    }

}

/// Representation of `method_t` (Penum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MethodT {
    #[default]
    GET = 0,
    PUT = 1,
    POST = 2,
    HEAD = 3,
    DELETE = 4,
    LINK = 5,
    UNLINK = 6,
}

impl MethodT {
    /// Parses the longest matching variant literal.
    pub fn read(cur: &mut Cursor<'_>, _mask: &Mask) -> (MethodT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, _mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(3u32);
        let (v, pd) = Self::read_impl(cur, _mask);
        cur.observe_exit_id(3u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, _mask: &Mask) -> (MethodT, ParseDesc) {
        const VARIANTS: &[Name] = &[Name::from_static("GET"), Name::from_static("PUT"), Name::from_static("POST"), Name::from_static("HEAD"), Name::from_static("DELETE"), Name::from_static("LINK"), Name::from_static("UNLINK")];
        const ALL: &[MethodT] = &[MethodT::GET, MethodT::PUT, MethodT::POST, MethodT::HEAD, MethodT::DELETE, MethodT::LINK, MethodT::UNLINK];
        let (i, pd) = read_enum(cur, VARIANTS);
        (ALL.get(i).copied().unwrap_or_default(), pd)
    }

    /// Writes the variant literal in the ambient coding.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, _endian: Endian) -> Result<(), ErrorCode> {
        let lit: &[u8] = match self {
            MethodT::GET => b"GET",
            MethodT::PUT => b"PUT",
            MethodT::POST => b"POST",
            MethodT::HEAD => b"HEAD",
            MethodT::DELETE => b"DELETE",
            MethodT::LINK => b"LINK",
            MethodT::UNLINK => b"UNLINK",
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
            MethodT::GET => a.enumv(NameId(6u32), 0usize),
            MethodT::PUT => a.enumv(NameId(7u32), 1usize),
            MethodT::POST => a.enumv(NameId(8u32), 2usize),
            MethodT::HEAD => a.enumv(NameId(9u32), 3usize),
            MethodT::DELETE => a.enumv(NameId(10u32), 4usize),
            MethodT::LINK => a.enumv(NameId(11u32), 5usize),
            MethodT::UNLINK => a.enumv(NameId(12u32), 6usize),
        }
    }

}

/// Representation of `request_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestT<'d> {
    pub meth: MethodT,
    pub req_uri: PStr<'d>,
    pub version: VersionT,
}

impl<'d> RequestT<'d> {
    /// Parses one `request_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (RequestT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(4u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(4u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (RequestT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_meth: MethodT = Default::default();
        let mut f_req_uri: PStr<'d> = Default::default();
        let mut f_version: VersionT = Default::default();
        'body: {
            if let Err(e) = cur.match_lit(&Lit::Char(34u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("meth");
                let (v, mut fpd) = MethodT::read(cur, &m);
                f_meth = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("meth"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(32u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("req_uri");
                let start = cur.position();
                match rd_string_term(cur, 32u8) {
                    Ok(v) => {
                        f_req_uri = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("req_uri"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(32u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("version");
                let start = cur.position();
                let (v, mut fpd) = VersionT::read(cur, &m);
                f_version = v;
                let syn = fpd.has_syntax_error();
                if !syn && m.base().checks() {
                    fpd.add_verdict(eval(|| Ok(chkVersion(&(f_version), Scalar::Enum(f_meth as u64))?)), ErrorCode::ConstraintViolation, Loc::new(start, cur.position()));
                }
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("version"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(34u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        (RequestT { meth: f_meth, req_uri: f_req_uri, version: f_version }, pd)
    }

    /// Writes the value in its original on-disk form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        out.push(charset.encode(34u8));
        (&self.meth).write(out, charset, endian)?;
        out.push(charset.encode(32u8));
        wr_text(out, &(&self.req_uri), charset);
        out.push(charset.encode(32u8));
        (&self.version).write(out, charset, endian)?;
        out.push(charset.encode(34u8));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.meth).verify());
        ok &= (eval(|| Ok(chkVersion(&(self.version), Scalar::Enum(self.meth as u64))?)) == Ok(true));
        ok &= ((&self.version).verify());
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_meth = (self.meth).to_arena(a);
        let pc_a_req_uri = match &(self.req_uri).0 { std::borrow::Cow::Borrowed(s) => a.str_borrowed(*s), std::borrow::Cow::Owned(s) => a.str_spilled(s) };
        let pc_a_version = (self.version).to_arena(a);
        a.strct(&[(NameId(13u32), pc_a_meth), (NameId(14u32), pc_a_req_uri), (NameId(15u32), pc_a_version)])
    }

}

/// Representation of `response_t` (Ptypedef).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResponseT(pub u16);

impl ResponseT {
    /// Parses the underlying type, then checks the constraint.
    pub fn read(cur: &mut Cursor<'_>, mask: &Mask) -> (ResponseT, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(5u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(5u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'_>, mask: &Mask) -> (ResponseT, ParseDesc) {
        let (v, pd) = read_typedef(cur, mask, true, |cur| rd_pd(cur, |cur| rd_u64_dyn(cur, "Puint16_FW", &[Prim::Int(3)]).map(|v| v as u16)), |v| Ok((ops::le(Scalar::Int(100), (*v).view())? && ops::lt((*v).view(), Scalar::Int(600))?)));
        (ResponseT(v), pd)
    }

    /// Writes the underlying value in original form.
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        wr_prim(out, "Puint16_FW", &Prim::Uint((*(&self.0)) as u64), &[Prim::Int(3)], charset, endian)?;
        Ok(())
    }

    /// Re-checks the typedef constraint in memory.
    pub fn verify(&self) -> bool {
        (eval(|| Ok((ops::le(Scalar::Int(100), self.0.view())? && ops::lt(self.0.view(), Scalar::Int(600))?))) == Ok(true))
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'_>) -> AVal {
        a.uint((self.0) as u64)
    }

}

/// Representation of `entry_t` (Pstruct).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EntryT<'d> {
    pub client: ClientT<'d>,
    pub remoteID: AuthIdT<'d>,
    pub auth: AuthIdT<'d>,
    pub date: PDate,
    pub request: RequestT<'d>,
    pub response: ResponseT,
    pub length: u32,
}

impl<'d> EntryT<'d> {
    /// Parses one `entry_t` at the cursor (mask-directed).
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (EntryT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(6u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(6u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (EntryT<'d>, ParseDesc) {
        let mut pd = ParseDesc::ok();
        let mut pds: Vec<(Name, ParseDesc)> = Vec::new();
        let mut f_client: ClientT<'d> = Default::default();
        let mut f_remoteID: AuthIdT<'d> = Default::default();
        let mut f_auth: AuthIdT<'d> = Default::default();
        let mut f_date: PDate = Default::default();
        let mut f_request: RequestT<'d> = Default::default();
        let mut f_response: ResponseT = Default::default();
        let mut f_length: u32 = Default::default();
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
                let m = mask.child("client");
                let (v, mut fpd) = ClientT::read(cur, &m);
                f_client = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("client"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(32u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("remoteID");
                let (v, mut fpd) = AuthIdT::read(cur, &m);
                f_remoteID = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("remoteID"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(32u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("auth");
                let (v, mut fpd) = AuthIdT::read(cur, &m);
                f_auth = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("auth"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Str(b" [")) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("date");
                let start = cur.position();
                match rd_date(cur, &[Prim::Char(93u8)]) {
                    Ok(v) => {
                        f_date = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("date"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
            if let Err(e) = cur.match_lit(&Lit::Str(b"] ")) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("request");
                let (v, mut fpd) = RequestT::read(cur, &m);
                f_request = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("request"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(32u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("response");
                let (v, mut fpd) = ResponseT::read(cur, &m);
                f_response = v;
                let syn = fpd.has_syntax_error();
                pd.absorb(&fpd);
                if !fpd.is_ok() { pds.push((Name::from_static("response"), fpd)); }
                if syn { pd.state = ParseState::Partial; break 'body; }
            }
            if let Err(e) = cur.match_lit(&Lit::Char(32u8)) {
                pd.add_error(e, Loc::at(cur.position()));
                pd.state = ParseState::Partial;
                break 'body;
            }
            {
                let m = mask.child("length");
                let start = cur.position();
                match rd_uint(cur, 32, None).map(|v| v as u32) {
                    Ok(v) => {
                        f_length = v;
                    }
                    Err(e) => {
                        let mut fpd = ParseDesc::error(e, Loc::new(start, cur.position()));
                        let syn = fpd.has_syntax_error();
                        pd.absorb(&fpd);
                        pds.push((Name::from_static("length"), fpd));
                        if syn { pd.state = ParseState::Partial; break 'body; }
                    }
                }
            }
        }
        pd.kind = PdKind::Struct { fields: pds };
        if pc_opened { cur.close_record(&mut pd); }
        (EntryT { client: f_client, remoteID: f_remoteID, auth: f_auth, date: f_date, request: f_request, response: f_response, length: f_length }, pd)
    }

    /// Writes the value in its original on-disk form (newline-terminated record).
    pub fn write(&self, out: &mut Vec<u8>, charset: Charset, endian: Endian) -> Result<(), ErrorCode> {
        (&self.client).write(out, charset, endian)?;
        out.push(charset.encode(32u8));
        (&self.remoteID).write(out, charset, endian)?;
        out.push(charset.encode(32u8));
        (&self.auth).write(out, charset, endian)?;
        out.extend(b" [".iter().map(|&b| charset.encode(b)));
        wr_prim(out, "Pdate", &Prim::Date(*(&self.date)), &[Prim::Char(93u8)], charset, endian)?;
        out.extend(b"] ".iter().map(|&b| charset.encode(b)));
        (&self.request).write(out, charset, endian)?;
        out.push(charset.encode(32u8));
        (&self.response).write(out, charset, endian)?;
        out.push(charset.encode(32u8));
        wr_u64(out, (*(&self.length)) as u64, charset);
        out.push(charset.encode(b'\n'));
        Ok(())
    }

    /// Re-checks all semantic constraints in memory.
    pub fn verify(&self) -> bool {
        let mut ok = true;
        ok &= ((&self.client).verify());
        ok &= ((&self.remoteID).verify());
        ok &= ((&self.auth).verify());
        ok &= ((&self.request).verify());
        ok &= ((&self.response).verify());
        ok
    }

    /// Lowers the parsed value into `a` without allocating (borrowed
    /// text stays borrowed); `NameId`s index this module's [`name_table`].
    pub fn to_arena(&self, a: &mut ValueArena<'d>) -> AVal {
        let pc_a_client = (self.client).to_arena(a);
        let pc_a_remoteID = (self.remoteID).to_arena(a);
        let pc_a_auth = (self.auth).to_arena(a);
        let pc_a_date = a.date(self.date);
        let pc_a_request = (self.request).to_arena(a);
        let pc_a_response = (self.response).to_arena(a);
        let pc_a_length = a.uint((self.length) as u64);
        a.strct(&[(NameId(16u32), pc_a_client), (NameId(17u32), pc_a_remoteID), (NameId(18u32), pc_a_auth), (NameId(19u32), pc_a_date), (NameId(20u32), pc_a_request), (NameId(21u32), pc_a_response), (NameId(22u32), pc_a_length)])
    }

}

/// Representation of `clt_t` (Parray).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CltT<'d>(pub Vec<EntryT<'d>>);

impl<'d> CltT<'d> {
    /// Parses the sequence with its separator/terminator conditions.
    pub fn read(cur: &mut Cursor<'d>, mask: &Mask) -> (CltT<'d>, ParseDesc) {
        if !cur.observing() {
            return Self::read_impl(cur, mask);
        }
        let obs_off = cur.offset();
        cur.observe_enter_id(7u32);
        let (v, pd) = Self::read_impl(cur, mask);
        cur.observe_exit_id(7u32, obs_off, &pd);
        (v, pd)
    }
    fn read_impl(cur: &mut Cursor<'d>, mask: &Mask) -> (CltT<'d>, ParseDesc) {
        const SHAPE: ArrayShape<'static> = ArrayShape { sep: None, term: None, elem_recovers: true, forall: false };
        let (elts, pd) = read_array(cur, mask, &SHAPE, None, |cur, m| EntryT::read(cur, m), |elts| Ok(false), |elts| Ok(true));
        (CltT(elts), pd)
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
    "client_t",
    "auth_id_t",
    "version_t",
    "method_t",
    "request_t",
    "response_t",
    "entry_t",
    "clt_t",
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
    t.intern("ip");
    t.intern("host");
    t.intern("unauthorized");
    t.intern("id");
    t.intern("major");
    t.intern("minor");
    t.intern("GET");
    t.intern("PUT");
    t.intern("POST");
    t.intern("HEAD");
    t.intern("DELETE");
    t.intern("LINK");
    t.intern("UNLINK");
    t.intern("meth");
    t.intern("req_uri");
    t.intern("version");
    t.intern("client");
    t.intern("remoteID");
    t.intern("auth");
    t.intern("date");
    t.intern("request");
    t.intern("response");
    t.intern("length");
    t
}

/// Parses the whole source (clt_t; the paper's single-call entry point).
pub fn parse_source<'d>(cur: &mut Cursor<'d>, mask: &Mask) -> (CltT<'d>, ParseDesc) {
    let (v, mut pd) = CltT::read(cur, mask);
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
