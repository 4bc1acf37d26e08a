//! Schema-driven random data generation.
//!
//! Given any checked description, produces bytes that parse back cleanly
//! under that description (syntactically; semantic constraints are the
//! caller's business via overrides). This is the paper's future-work item
//! "generate random data that conforms to a given specification,
//! particularly when the real data is proprietary" (§9) — exactly our
//! situation with AT&T's feeds.

use std::collections::HashMap;

use pads::{Prim, Schema};
use pads_check::ir::{MemberIr, TypeId, TypeKind, TyUse};
use pads_syntax::ast::Literal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-path value generation override.
#[derive(Debug, Clone)]
pub enum FieldGen {
    /// Uniform unsigned integer in `[lo, hi]`.
    UintRange(u64, u64),
    /// Uniform signed integer in `[lo, hi]`.
    IntRange(i64, i64),
    /// Random word over `[a-z]` with a length in `[lo, hi]`.
    Word(usize, usize),
    /// Pick uniformly from a fixed set of strings.
    Choice(Vec<String>),
    /// Always the same text.
    Const(String),
    /// Monotonically increasing unsigned counter: starts in `[lo, hi]`,
    /// each subsequent draw (within one array instance) adds a step in
    /// `[1, step]`. Used to satisfy sortedness constraints like the Sirius
    /// event timestamps.
    SortedUint {
        /// Range of the starting value.
        start: (u64, u64),
        /// Maximum step between consecutive values.
        step: u64,
    },
}

/// Configuration for the generic generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed (generation is deterministic given the seed).
    pub seed: u64,
    /// Length used for unbounded arrays: uniform in `[min_len, max_len]`.
    pub min_len: usize,
    /// See `min_len`.
    pub max_len: usize,
    /// Probability a `Popt` value is present.
    pub opt_present: f64,
    /// Per-field overrides keyed by dotted path from the generated type
    /// (array elements contribute no path component).
    pub overrides: HashMap<String, FieldGen>,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            seed: 0x9ad5_7ea1,
            min_len: 0,
            max_len: 5,
            opt_present: 0.7,
            overrides: HashMap::new(),
        }
    }
}

impl GenConfig {
    /// Adds an override at `path` (builder style).
    pub fn with_override(mut self, path: &str, g: FieldGen) -> GenConfig {
        self.overrides.insert(path.to_owned(), g);
        self
    }
}

/// A deterministic random generator for one schema.
pub struct Generator<'s> {
    schema: &'s Schema,
    config: GenConfig,
    rng: StdRng,
    counters: HashMap<String, u64>,
}

impl<'s> Generator<'s> {
    /// Creates a generator.
    pub fn new(schema: &'s Schema, config: GenConfig) -> Generator<'s> {
        let rng = StdRng::seed_from_u64(config.seed);
        Generator { schema, config, rng, counters: HashMap::new() }
    }

    /// Generates one instance of the named type into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in the schema.
    #[allow(clippy::expect_used)] // the documented contract: callers validate the name
    pub fn generate_named(&mut self, name: &str, out: &mut Vec<u8>) {
        let id = self.schema.type_id(name).expect("type not declared in schema");
        self.gen_def(id, &[], "", out);
    }

    /// Generates `n` instances of the named record type (each followed by a
    /// newline, matching the default record discipline).
    pub fn generate_records(&mut self, name: &str, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for _ in 0..n {
            self.generate_named(name, &mut out);
            out.push(b'\n');
        }
        out
    }

    fn gen_def(&mut self, id: TypeId, args: &[Prim], path: &str, out: &mut Vec<u8>) {
        let def = self.schema.def(id);
        let params: Vec<(String, Prim)> = def
            .params
            .iter()
            .zip(args)
            .map(|(p, a)| (p.name.clone(), a.clone()))
            .collect();
        match &def.kind {
            TypeKind::Struct { members } => {
                let mut fields: Vec<(String, Prim)> = params.clone();
                for m in members {
                    match m {
                        MemberIr::Lit(l) => emit_literal(l, out),
                        MemberIr::Field(f) => {
                            let fpath = join(path, &f.name);
                            let before = out.len();
                            self.gen_tyuse(&f.ty, &fields, &fpath, out);
                            // Remember scalar fields so later dependent
                            // widths/switches see consistent values.
                            if let Some(p) = scalar_of(&out[before..], &f.ty) {
                                fields.push((f.name.clone(), p));
                            }
                        }
                    }
                }
            }
            TypeKind::Union { switch, branches } => {
                // For switched unions pick the branch the selector demands;
                // for ordered unions pick uniformly.
                let index = match switch {
                    Some(sel) => self
                        .eval_selector(sel, &params, branches)
                        .unwrap_or(branches.len() - 1),
                    None => self.rng.gen_range(0..branches.len()),
                };
                let b = &branches[index];
                let fields: Vec<(String, Prim)> = params.clone();
                self.gen_tyuse(&b.field.ty, &fields, &join(path, &b.field.name), out);
            }
            TypeKind::Array { elem, sep, term, size, .. } => {
                let n = match size {
                    Some(e) => self.const_size(e, &params).unwrap_or(0),
                    None => self.rng.gen_range(self.config.min_len..=self.config.max_len),
                };
                // Counters reset per array instance so sorted sequences
                // restart for each record.
                self.reset_counters(path);
                for i in 0..n {
                    if i > 0 {
                        if let Some(s) = sep {
                            emit_literal(s, out);
                        }
                    }
                    self.gen_tyuse(elem, &params.clone(), path, out);
                }
                if let Some(t @ (Literal::Char(_) | Literal::Str(_))) = term {
                    emit_literal(t, out);
                }
            }
            TypeKind::Enum { variants } => {
                let v = match self.config.overrides.get(path) {
                    Some(FieldGen::Const(s)) => s.clone(),
                    Some(FieldGen::Choice(cs)) => {
                        cs[self.rng.gen_range(0..cs.len())].clone()
                    }
                    _ => variants[self.rng.gen_range(0..variants.len())].clone(),
                };
                out.extend_from_slice(v.as_bytes());
            }
            TypeKind::Typedef { base, .. } => {
                self.gen_tyuse(base, &params, path, out);
            }
        }
    }

    fn reset_counters(&mut self, prefix: &str) {
        self.counters.retain(|k, _| !k.starts_with(prefix));
    }

    /// Picks the branch a `Pswitch` selector demands: evaluates the
    /// selector over the bound parameters and matches it against constant
    /// case labels, falling back to the `Pdefault` branch (or the last).
    fn eval_selector(
        &mut self,
        sel: &pads_syntax::ast::Expr,
        params: &[(String, Prim)],
        branches: &[pads_check::ir::BranchIr],
    ) -> Option<usize> {
        use pads_syntax::ast::CaseLabel;
        let sel_val = self.eval_arg(sel, params)?.as_i64()?;
        let mut default = None;
        for (i, b) in branches.iter().enumerate() {
            match &b.case {
                Some(CaseLabel::Expr(e))
                    if self.eval_arg(e, params).and_then(|p| p.as_i64()) == Some(sel_val) =>
                {
                    return Some(i)
                }
                Some(CaseLabel::Default) => default = Some(i),
                Some(CaseLabel::Expr(_)) | None => {}
            }
        }
        default
    }

    fn const_size(&mut self, e: &pads_syntax::ast::Expr, params: &[(String, Prim)]) -> Option<usize> {
        use pads_syntax::ast::Expr;
        match e {
            Expr::Int(v) => usize::try_from(*v).ok(),
            Expr::Ident(name) => params
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, p)| p.as_u64())
                .and_then(|v| usize::try_from(v).ok()),
            _ => None,
        }
    }

    fn gen_tyuse(
        &mut self,
        ty: &TyUse,
        fields: &[(String, Prim)],
        path: &str,
        out: &mut Vec<u8>,
    ) {
        match ty {
            TyUse::Opt(inner) => {
                if self.rng.gen_bool(self.config.opt_present) {
                    self.gen_tyuse(inner, fields, path, out);
                }
            }
            TyUse::Named { id, args } => {
                let prims: Vec<Prim> = args
                    .iter()
                    .map(|a| self.eval_arg(a, fields).unwrap_or(Prim::Uint(0)))
                    .collect();
                self.gen_def(*id, &prims, path, out);
            }
            TyUse::Base { name, args } => {
                let prims: Vec<Prim> = args
                    .iter()
                    .map(|a| self.eval_arg(a, fields).unwrap_or(Prim::Uint(0)))
                    .collect();
                self.gen_base(name, &prims, path, out);
            }
        }
    }

    fn eval_arg(
        &mut self,
        e: &pads_syntax::ast::Expr,
        fields: &[(String, Prim)],
    ) -> Option<Prim> {
        use pads_syntax::ast::Expr;
        match e {
            Expr::Int(v) => Some(Prim::Int(*v)),
            Expr::Char(c) => Some(Prim::Char(*c)),
            Expr::Str(s) => Some(Prim::String(s.clone())),
            Expr::Ident(name) => fields.iter().find(|(n, _)| n == name).map(|(_, p)| p.clone()),
            _ => None,
        }
    }

    fn override_at(&self, path: &str) -> Option<&FieldGen> {
        self.config.overrides.get(path)
    }

    fn gen_base(&mut self, name: &str, args: &[Prim], path: &str, out: &mut Vec<u8>) {
        // Path overrides first.
        if let Some(g) = self.override_at(path).cloned() {
            match g {
                FieldGen::UintRange(lo, hi) => {
                    let v = self.rng.gen_range(lo..=hi);
                    self.emit_number(name, v as i64, args, out);
                    return;
                }
                FieldGen::IntRange(lo, hi) => {
                    let v = self.rng.gen_range(lo..=hi);
                    self.emit_number(name, v, args, out);
                    return;
                }
                FieldGen::Word(lo, hi) => {
                    let len = self.rng.gen_range(lo..=hi);
                    for _ in 0..len {
                        out.push(self.rng.gen_range(b'a'..=b'z'));
                    }
                    return;
                }
                FieldGen::Choice(cs) => {
                    let s = &cs[self.rng.gen_range(0..cs.len())];
                    out.extend_from_slice(s.as_bytes());
                    return;
                }
                FieldGen::Const(s) => {
                    out.extend_from_slice(s.as_bytes());
                    return;
                }
                FieldGen::SortedUint { start, step } => {
                    let next = match self.counters.get(path) {
                        Some(&cur) => cur + self.rng.gen_range(1..=step.max(1)),
                        None => self.rng.gen_range(start.0..=start.1),
                    };
                    self.counters.insert(path.to_owned(), next);
                    self.emit_number(name, next as i64, args, out);
                    return;
                }
            }
        }
        // Defaults per base family.
        match name {
            _ if name.contains("int") && name.starts_with("Pb_") => {
                // Binary ints: random bytes of the right width.
                let bytes: usize = name
                    .trim_start_matches("Pb_")
                    .trim_start_matches(['i', 'u'])
                    .trim_start_matches("nt")
                    .parse::<usize>()
                    .unwrap_or(32)
                    / 8;
                for _ in 0..bytes {
                    out.push(self.rng.gen());
                }
            }
            _ if name.contains("uint") => {
                let hi = int_cap(name, args, false);
                let v: u64 = self.rng.gen_range(0..=hi as u64);
                self.emit_number(name, v as i64, args, out);
            }
            _ if name.contains("int") => {
                let hi = int_cap(name, args, true);
                let v: i64 = self.rng.gen_range(-hi..=hi);
                self.emit_number(name, v, args, out);
            }
            "Pfloat32" | "Pfloat64" => {
                let v: f64 = self.rng.gen_range(-1000.0..1000.0);
                out.extend_from_slice(format!("{v:.3}").as_bytes());
            }
            "Pchar" | "Pa_char" => out.push(self.rng.gen_range(b'a'..=b'z')),
            "Pe_char" => {
                let c = self.rng.gen_range(b'a'..=b'z');
                out.push(pads_runtime::Charset::Ebcdic.encode(c));
            }
            "Pstring" | "Pstring_SE" => {
                let len = self.rng.gen_range(1..=8);
                for _ in 0..len {
                    out.push(self.rng.gen_range(b'a'..=b'z'));
                }
            }
            "Pstring_FW" => {
                let n = args.first().and_then(Prim::as_u64).unwrap_or(4) as usize;
                for _ in 0..n {
                    out.push(self.rng.gen_range(b'a'..=b'z'));
                }
            }
            "Pstring_ME" => {
                // Regex-conforming generation is limited to the digit-run
                // patterns used in practice; override for anything richer.
                let n = 10;
                for _ in 0..n {
                    out.push(self.rng.gen_range(b'0'..=b'9'));
                }
            }
            "Pip" => {
                let s = format!(
                    "{}.{}.{}.{}",
                    self.rng.gen_range(1..255),
                    self.rng.gen_range(0..256),
                    self.rng.gen_range(0..256),
                    self.rng.gen_range(1..255)
                );
                out.extend_from_slice(s.as_bytes());
            }
            "Phostname" => {
                let labels = self.rng.gen_range(2..=3);
                for i in 0..labels {
                    if i > 0 {
                        out.push(b'.');
                    }
                    let len = self.rng.gen_range(2..=6);
                    for _ in 0..len {
                        out.push(self.rng.gen_range(b'a'..=b'z'));
                    }
                }
            }
            "Pzip" => {
                for _ in 0..5 {
                    out.push(self.rng.gen_range(b'0'..=b'9'));
                }
            }
            "Pdate" => {
                // CLF style by default: the only bundled description using
                // Pdate is the web log.
                let epoch = self.rng.gen_range(850_000_000i64..1_050_000_000);
                let d = pads_runtime::date::PDate {
                    epoch,
                    tz_minutes: -420,
                    style: pads_runtime::date::DateStyle::Clf,
                };
                pads_runtime::render::date(out, &d);
            }
            "Pvoid" => {}
            "Pbits" => {
                // Byte-multiple bit fields only; emit printable bytes so the
                // output stays friendly to newline-framed records.
                let n = args.first().and_then(Prim::as_u64).unwrap_or(8) as usize;
                for _ in 0..n.div_ceil(8) {
                    out.push(self.rng.gen_range(b'A'..=b'Z'));
                }
            }
            "Pebc_zoned" => {
                let n = args.first().and_then(Prim::as_u64).unwrap_or(3) as usize;
                for i in 0..n {
                    let d = self.rng.gen_range(0u8..10);
                    let zone = if i == n - 1 { 0xC0 } else { 0xF0 };
                    out.push(zone | d);
                }
            }
            "Ppacked" => {
                let n = args.first().and_then(Prim::as_u64).unwrap_or(3) as usize;
                let mut nibbles: Vec<u8> = Vec::new();
                if n.is_multiple_of(2) {
                    nibbles.push(0);
                }
                for _ in 0..n {
                    nibbles.push(self.rng.gen_range(0..10));
                }
                nibbles.push(0xC);
                for pair in nibbles.chunks(2) {
                    out.push(pair[0] << 4 | pair[1]);
                }
            }
            _ => {
                // Unknown (user-registered) base type: digits are the safest
                // bet; override for anything else.
                for _ in 0..4 {
                    out.push(self.rng.gen_range(b'0'..=b'9'));
                }
            }
        }
    }

    fn emit_number(&mut self, base: &str, v: i64, args: &[Prim], out: &mut Vec<u8>) {
        let text = if base.ends_with("_FW") {
            let w = args.first().and_then(Prim::as_u64).unwrap_or(4) as usize;
            format!("{:0>width$}", v, width = w)
        } else {
            v.to_string()
        };
        if base.starts_with("Pe_") {
            out.extend(text.bytes().map(|b| pads_runtime::Charset::Ebcdic.encode(b)));
        } else {
            out.extend_from_slice(text.as_bytes());
        }
    }
}

/// Largest magnitude a default-generated integer may take: bounded by the
/// declared bit width, the fixed width in characters (when `_FW`), and a
/// compactness cap of 100 000.
fn int_cap(name: &str, args: &[Prim], signed: bool) -> i64 {
    let bits: u32 = name
        .trim_end_matches("_FW")
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(32);
    let type_max: i64 = if signed {
        ((1u64 << (bits - 1).min(62)) - 1) as i64
    } else {
        ((1u128 << bits.min(63)) - 1).min(i64::MAX as u128) as i64
    };
    let mut cap = type_max.min(100_000);
    if name.ends_with("_FW") {
        let w = args.first().and_then(Prim::as_u64).unwrap_or(4).min(10) as u32;
        let digits = if signed { w.saturating_sub(1).max(1) } else { w };
        cap = cap.min(10i64.pow(digits) - 1);
    }
    cap.max(1)
}

fn scalar_of(bytes: &[u8], ty: &TyUse) -> Option<Prim> {
    // Recover the numeric value of a just-generated scalar field from its
    // text, so dependent fields (widths, switch selectors) can use it.
    if let TyUse::Base { name, .. } = ty {
        if name.contains("int") && !name.starts_with("Pb_") {
            let text = std::str::from_utf8(bytes).ok()?;
            return text.parse::<i64>().ok().map(Prim::Int);
        }
    }
    None
}

fn emit_literal(l: &Literal, out: &mut Vec<u8>) {
    match l {
        Literal::Char(c) => out.push(*c),
        Literal::Str(s) => out.extend_from_slice(s.as_bytes()),
        // A regex literal has no canonical text; emit nothing (callers
        // should avoid regex literals in generated descriptions).
        Literal::Regex(_) => {}
        Literal::Eor | Literal::Eof => {}
    }
}

fn join(path: &str, name: &str) -> String {
    if path.is_empty() {
        name.to_owned()
    } else {
        format!("{path}.{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pads::{compile, PadsParser};
    use pads_runtime::{BaseMask, Mask, Registry};

    #[test]
    fn generated_data_parses_cleanly() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Penum color_t { RED, GREEN, BLUE };
            Precord Pstruct r_t {
                Puint32 id;
                '|'; color_t color;
                '|'; Popt Pzip zip;
                '|'; Pip addr;
                '|'; Pstring(:'|':) tag;
                '|'; Puint16_FW(:5:) fixed;
            };
            Psource Parray rs_t { r_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        let mut g = Generator::new(&schema, GenConfig::default());
        let data = g.generate_records("r_t", 200);
        let parser = PadsParser::new(&schema, &registry);
        let (v, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "generated data must parse: {:?}", pd.errors().first());
        assert_eq!(v.len(), Some(200));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let registry = Registry::standard();
        let schema = compile(
            "Precord Pstruct r_t { Puint32 a; ','; Pstring(:',':) b; }; Psource Parray rs_t { r_t[]; };",
            &registry,
        )
        .unwrap();
        let a = Generator::new(&schema, GenConfig::default()).generate_records("r_t", 50);
        let b = Generator::new(&schema, GenConfig::default()).generate_records("r_t", 50);
        assert_eq!(a, b);
        let c = Generator::new(&schema, GenConfig { seed: 7, ..GenConfig::default() })
            .generate_records("r_t", 50);
        assert_ne!(a, c);
    }

    #[test]
    fn sorted_override_satisfies_where_clauses() {
        let registry = Registry::standard();
        let schema = compile(
            r#"
            Pstruct ev_t { Pstring(:'|':) s; '|'; Puint32 ts; };
            Parray seq_t { ev_t[] : Psep('|') && Pterm(Peor); } Pwhere {
                Pforall (i Pin [0..length-2] : elts[i].ts <= elts[i+1].ts);
            };
            Precord Pstruct r_t { Puint32 id; '|'; seq_t events; };
            Psource Parray rs_t { r_t[]; };
            "#,
            &registry,
        )
        .unwrap();
        let config = GenConfig {
            min_len: 1,
            max_len: 8,
            ..GenConfig::default()
        }
        .with_override("events.ts", FieldGen::SortedUint { start: (1_000_000, 2_000_000), step: 500 });
        let mut g = Generator::new(&schema, config);
        let data = g.generate_records("r_t", 100);
        let parser = PadsParser::new(&schema, &registry);
        let (_, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "sorted override must satisfy Pwhere: {:?}", pd.errors().first());
    }

    #[test]
    fn dependent_width_fields_are_consistent() {
        let registry = Registry::standard();
        let schema = compile(
            "Precord Pstruct p_t { Puint8 n : n > 0; ':'; Pstring_FW(:n:) body; }; Psource Parray ps_t { p_t[]; };",
            &registry,
        )
        .unwrap();
        let config = GenConfig::default().with_override("n", FieldGen::UintRange(1, 9));
        let mut g = Generator::new(&schema, config);
        let data = g.generate_records("p_t", 100);
        let parser = PadsParser::new(&schema, &registry);
        let (_, pd) = parser.parse_source(&data, &Mask::all(BaseMask::CheckAndSet));
        assert!(pd.is_ok(), "{:?}", pd.errors().first());
    }
}
