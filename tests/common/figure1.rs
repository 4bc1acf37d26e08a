//! Figure 1's other sources as the contract matrix runs them (a submodule of `contract.rs`),
//! each named after its file in `tests/descriptions/` (Altair's translates a copybook) and read
//! with the options its source needs over a hand-built corpus and a damaged one.

use pads::{Charset, Endian, ParseOptions, RecordDiscipline, Registry, Schema};

use super::{every_policy, Case, Description, Plan, Truth};

/// A file of `tests/descriptions/`: its stem and its text.
macro_rules! file {
    ($stem:literal) => {
        ($stem, include_str!(concat!("../descriptions/", $stem, ".pads")))
    };
}

/// One description read with one set of options over its corpora.
pub struct Source {
    pub name: String,
    pub text: String,
    pub schema: Schema,
    pub registry: Registry,
    pub options: ParseOptions,
    /// The record type a source whose shape is not inferred is read as.
    pub record: Option<&'static str>,
    pub corpora: Vec<(&'static str, Vec<u8>)>,
}

type Corpora = Vec<(&'static str, Vec<u8>)>;

impl Source {
    fn new((name, text): (&str, &str), options: ParseOptions, corpora: Corpora) -> Source {
        let registry = Registry::standard();
        let schema = pads::compile(text, &registry).expect("the description compiles");
        let (name, text, record) = (name.to_owned(), text.to_owned(), None);
        Source { name, text, schema, registry, options, record, corpora }
    }

    pub fn description(&self) -> Description<'_> {
        let (schema, registry) = (&self.schema, &self.registry);
        let description = match self.record {
            Some(record) => Description::records(schema, registry, record),
            None => Description::new(schema, registry),
        };
        description.with_text(&self.text).with_options(self.options)
    }

    /// Every corpus under every policy in each column its shape allows but
    /// `cli` (a `pads-cli` suite's): each corpus's unlimited truth. Records
    /// that are no `Precord` count positions from the start of the source,
    /// which a resume point does not hold: such a source is not resumed.
    pub fn cells(&self) -> Vec<Truth> {
        let description = self.description();
        let plan = |truth: &Truth| match self.record {
            Some(_) => Plan { resumes: Vec::new(), kills: Vec::new(), ..Plan::every_column(truth) },
            None => Plan::every_column(truth),
        };
        let cell = |(corpus, data): &(&str, Vec<u8>)| {
            let case = Case::new(format!("{} {corpus}", self.name), &description, data);
            every_policy(&case, plan).swap_remove(0)
        };
        self.corpora.iter().map(cell).collect()
    }
}

fn fixed(width: usize) -> ParseOptions {
    ParseOptions { discipline: RecordDiscipline::FixedWidth(width), ..ParseOptions::default() }
}

/// A clean corpus and a damaged one: the clean one with `damage` after it.
fn corpora(clean: &[u8], damage: &[u8]) -> Corpora {
    vec![("clean", clean.to_vec()), ("damaged", [clean, damage].concat())]
}

pub fn ebcdic(text: &[u8]) -> Vec<u8> {
    text.iter().map(|&b| Charset::Ebcdic.encode(b)).collect()
}

/// Two comma-separated records; then a bad count and a missing tag.
pub fn ambient() -> Source {
    let corpora = corpora(b"42,west\n7,east\n", b"x,east\n7\n");
    Source::new(file!("ambient"), ParseOptions::default(), corpora)
}

/// [`ambient`]'s corpora in EBCDIC, and the description read in EBCDIC.
pub fn ambient_ebcdic() -> Source {
    let ascii = ambient();
    let corpora = ascii.corpora.iter().map(|(name, data)| (*name, ebcdic(data))).collect();
    let options = ParseOptions { charset: Charset::Ebcdic, ..ascii.options };
    Source { name: "ambient ebcdic".into(), options, corpora, ..ascii }
}

/// A call record: caller, callee, duration and flags, in 11 big-endian bytes.
pub fn call(caller: u32, callee: u32, duration: u16, flags: u8) -> Vec<u8> {
    let [caller, callee] = [caller, callee].map(u32::to_be_bytes);
    [&caller[..], &callee, &duration.to_be_bytes(), &[flags]].concat()
}

/// Two calls; then flags that break their constraint, and 4 bytes of a call.
pub fn call_detail() -> Source {
    let clean = [call(0x0102_0304, 0x0A0B_0C0D, 65, 1), call(7, 8, 9, 3)].concat();
    let damage = [call(5, 6, 7, 9), vec![1, 2, 3, 4]].concat();
    Source::new(file!("call_detail"), fixed(11), corpora(&clean, &damage))
}

/// [`call_detail`] in the little-endian ambient byte order.
pub fn call_detail_le() -> Source {
    let options = ParseOptions { endian: Endian::Little, ..fixed(11) };
    Source { name: "call_detail little-endian".into(), options, ..call_detail() }
}

/// Two tagged counts; then a record cut short.
pub fn tagged_count() -> Source {
    Source::new(file!("tagged_count"), fixed(5), corpora(b"abc\x01\x00xyz\x00\x07", b"ab"))
}

/// Two IPv4 header starts; then one of version 6 and one of IHL 4.
pub fn iphdr() -> Source {
    let corpora = corpora(&[0x45, 0, 5, 0xDC, 0x46, 8, 0, 0x28], &[0x65, 0, 0, 20, 0x44, 0, 0, 20]);
    Source::new(file!("iphdr"), fixed(4), corpora)
}

/// Records of nibbles; then an empty one and one unterminated.
pub fn nibbles() -> Source {
    Source::new(file!("nibbles"), ParseOptions::default(), corpora(b"\xab\n\xcd\n", b"\n\xcd\xef"))
}

/// Records that read half a byte — by newline, two bytes wide, by `Peor` — then one byte off.
pub fn half_bytes() -> [Source; 3] {
    let newline = ParseOptions::default();
    [
        Source::new(file!("half_byte"), newline, corpora(b"\xab\n\xcd\n", b"\xab\xcd\n")),
        Source::new(file!("half_byte_wide"), fixed(2), corpora(b"\xab\xcd\xef\x01", b"\x02")),
        Source::new(file!("half_byte_eor"), newline, corpora(b"\xab\n", b"\xab\xff\n")),
    ]
}

/// A NetFlow v5 flow record, TCP, of `packets` packets and `octets` octets.
fn flow(src: u32, dst: u32, packets: u32, octets: u32) -> Vec<u8> {
    let [src, dst, packets, octets] = [src, dst, packets, octets].map(u32::to_be_bytes);
    let ports = [4242u16.to_be_bytes(), 80u16.to_be_bytes()].concat();
    [&src[..], &dst, &ports, &packets, &octets, &[6, 0x18]].concat()
}

/// An export packet: version 5, its flow count, uptime and clock, flows.
fn packet(flows: &[Vec<u8>]) -> Vec<u8> {
    let header = [5u16.to_be_bytes(), (flows.len() as u16).to_be_bytes()].concat();
    let clock = [123_456u32.to_be_bytes(), 1_005_022_800u32.to_be_bytes()].concat();
    [header, clock, flows.concat()].concat()
}

/// Packets of one and two flows; then one whose flow has fewer octets
/// than packets, and one promising two flows that ends ten bytes into the
/// second. A packet is no `Precord`, so the source is read unframed, one
/// packet at a time, with no shape inferred.
pub fn netflow() -> Source {
    let second = [flow(0x0A00_0003, 0x0A00_0004, 1, 40), flow(0x0A00_0005, 0x0A00_0006, 9, 9000)];
    let clean = [packet(&[flow(0x0A00_0001, 0x0A00_0002, 3, 1800)]), packet(&second)].concat();
    let truncated = packet(&[flow(1, 2, 1, 40), flow(3, 4, 1, 40)]);
    let damage = [&packet(&[flow(1, 2, 100, 40)])[..], &truncated[..truncated.len() - 10]].concat();
    let unframed = ParseOptions { discipline: RecordDiscipline::None, ..ParseOptions::default() };
    let netflow = Source::new(file!("netflow"), unframed, corpora(&clean, &damage));
    Source { record: Some("packet_t"), ..netflow }
}

/// Six measurements, utilisation missing in four ways; then one with none
/// at all, one with no packet count and a line of garbage.
pub fn regulus() -> Source {
    let clean = b"edge1,0.73,1500\nedge2,NONE,200\ncore1,0,0\nedge3,Nothing,75\ncore2, ,90\n\
        edge1,0.41,1250\n";
    let corpora = corpora(clean, b"edge4,,3\nedge5,0.5\nx\n");
    Source::new(file!("regulus"), ParseOptions::default(), corpora)
}

/// Altair's billing record, the input of the two `altair` cases.
const COPYBOOK: &str = include_str!("../descriptions/altair.cpy");

/// A 14-byte EBCDIC record of the copybook: 6 zoned digits, 3 characters,
/// 3 packed bytes (the sign nibble last), 2 zoned digits.
fn bill(acct: u32, region: &str, amount: i32, day: u8) -> Vec<u8> {
    let zoned = |digits: String| digits.bytes().map(|d| 0xF0 | (d - b'0')).collect::<Vec<_>>();
    let d: Vec<u8> = format!("{:05}", amount.unsigned_abs()).bytes().map(|b| b - b'0').collect();
    let sign = [0xC, 0xD][usize::from(amount < 0)];
    let packed = vec![d[0] << 4 | d[1], d[2] << 4 | d[3], d[4] << 4 | sign];
    let region = ebcdic(region.as_bytes());
    [zoned(format!("{acct:06}")), region, packed, zoned(format!("{day:02}"))].concat()
}

/// The copybook's translation, read in EBCDIC with `discipline`.
fn altair(how: &str, discipline: RecordDiscipline, corpora: Corpora) -> Source {
    let text = pads_cobol::translate(COPYBOOK).expect("the copybook translates");
    let options = ParseOptions { charset: Charset::Ebcdic, discipline, ..ParseOptions::default() };
    Source::new((how, &text), options, corpora)
}

/// Three bills, and the same with the second's first zone nibble wrong.
pub fn altair_fixed() -> Source {
    let mut bills =
        [bill(101, "NE1", 5000, 7), bill(102, "SW2", -250, 7), bill(103, "NE1", 125, 14)];
    let clean = bills.concat();
    bills[1][0] = 0xC1;
    let corpora = vec![("clean", clean), ("corrupted", bills.concat())];
    altair("altair", RecordDiscipline::FixedWidth(14), corpora)
}

/// Two bills behind 2-byte big-endian lengths; then one whose amount is
/// not packed, and a length that promises more than is left.
pub fn altair_lenpfx() -> Source {
    let framed = |bill: Vec<u8>| [(bill.len() as u16).to_be_bytes().to_vec(), bill].concat();
    let mut unpacked = bill(9, "DEF", 1, 3);
    unpacked[11] = 0xFF;
    let clean = [framed(bill(7, "ABC", 9, 1)), framed(bill(8, "XYZ", -9, 2))].concat();
    let lenpfx = RecordDiscipline::LengthPrefixed { header_bytes: 2, endian: Endian::Big };
    let damage = [framed(unpacked), vec![0, 14, 0xF1]].concat();
    altair("altair lenpfx", lenpfx, corpora(&clean, &damage))
}

pub fn all() -> Vec<Source> {
    let [half, wide, eor] = half_bytes();
    let text = [ambient(), ambient_ebcdic(), tagged_count(), regulus(), nibbles(), half, wide, eor];
    let binary = [call_detail(), call_detail_le(), iphdr(), netflow()];
    text.into_iter().chain(binary).chain([altair_fixed(), altair_lenpfx()]).collect()
}
