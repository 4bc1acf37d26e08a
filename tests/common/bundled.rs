//! The bundled descriptions as the contract matrix runs them (a submodule
//! of `contract.rs`): each with its torture corpus, the clean corpus its
//! fault seeds mutate, its generated module, and its `.pads` text.

use std::sync::OnceLock;

use pads::generated::{clf, mixed, sirius};
use pads::{
    descriptions, Cursor, ErrorCode, Mask, ParseDesc, ParseOptions, RecoveryPolicy, Registry,
    Schema, Value,
};
use pads_runtime::{MetricsCore, NameTable, ValueArena};

use super::{generated, Case, Description, Generated, Plan, Truth, ENGINES};

/// A bundled description with its corpora and its generated column.
pub struct Bundled {
    pub name: &'static str,
    pub text: &'static str,
    pub schema: Schema,
    pub registry: Registry,
    pub torture: &'static [u8],
    pub clean: Vec<u8>,
    /// Whether a mutation can reach panic-mode recovery (Sirius records
    /// consume to the record boundary whatever the error).
    pub panics: bool,
    column: fn(&Case<'_>, &Truth, &Plan),
}

impl Bundled {
    pub fn description(&self) -> Description<'_> {
        Description {
            generated: Some(self.column),
            ..Description::new(&self.schema, &self.registry).with_text(self.text)
        }
    }
}

/// `$value` through `$module`'s `to_arena` lowering, read back as a `Value`
/// (the module's name table interned once, not per record).
macro_rules! lowered {
    ($module:ident, $value:expr) => {{
        static NAMES: OnceLock<NameTable> = OnceLock::new();
        let mut arena = ValueArena::new();
        let root = $value.to_arena(&mut arena);
        pads::to_value(arena.get(root), NAMES.get_or_init($module::name_table))
    }};
}

/// A bundled description's generated module, as the generated columns
/// read it.
macro_rules! generated {
    ($name:ident, $module:ident :: $record:ident) => {
        pub struct $name;

        impl Generated for $name {
            type Record<'d> = $module::$record<'d>;

            fn read<'d>(cur: &mut Cursor<'d>, mask: &Mask) -> (Self::Record<'d>, ParseDesc) {
                $module::$record::read(cur, mask)
            }

            fn write(record: &Self::Record<'_>, out: &mut Vec<u8>) -> Result<(), ErrorCode> {
                let options = ParseOptions::default();
                record.write(out, options.charset, options.endian)
            }

            fn verify(record: &Self::Record<'_>) -> bool {
                record.verify()
            }

            fn value(record: &Self::Record<'_>) -> Value {
                lowered!($module, record)
            }

            fn parse_source(cur: &mut Cursor<'_>, mask: &Mask) -> (Value, ParseDesc) {
                let (source, pd) = $module::parse_source(cur, mask);
                (lowered!($module, source), pd)
            }

            fn metrics_core() -> MetricsCore {
                $module::metrics_core()
            }
        }
    };
}

generated!(Clf, clf::EntryT);
generated!(Sirius, sirius::EntryT);
generated!(Mixed, mixed::RecT);

/// CLF of twelve records.
pub fn clean_clf() -> Vec<u8> {
    pads_gen::clf::generate(&pads_gen::ClfConfig { records: 12, ..Default::default() }).0
}

pub fn clf() -> Bundled {
    Bundled {
        name: "clf",
        text: descriptions::CLF,
        schema: descriptions::clf(),
        registry: Registry::standard(),
        torture: include_bytes!("../data/torture_clf.log"),
        clean: clean_clf(),
        panics: true,
        column: generated::<Clf>,
    }
}

/// A header and twelve clean records.
pub fn sirius() -> Bundled {
    let config = pads_gen::SiriusConfig {
        records: 12,
        syntax_errors: 0,
        sort_violations: 0,
        ..Default::default()
    };
    Bundled {
        name: "sirius",
        text: descriptions::SIRIUS,
        schema: descriptions::sirius(),
        registry: Registry::standard(),
        torture: include_bytes!("../data/torture_sirius.txt"),
        clean: pads_gen::sirius::generate(&config).0,
        panics: false,
        column: generated::<Sirius>,
    }
}

/// Forty Sirius records, ten with a syntax error and two out of order, as a
/// cell under `policy`: both engines on one thread, the generated module's
/// whole-source parse and its reader. Returns the truth and how many
/// records are damaged.
pub fn dirty_sirius(policy: RecoveryPolicy) -> (Truth, usize) {
    let config = pads_gen::SiriusConfig {
        records: 40,
        syntax_errors: 10,
        sort_violations: 2,
        ..Default::default()
    };
    let (data, stats) = pads_gen::sirius::generate(&config);
    let sirius = sirius();
    let description = sirius.description();
    let case = Case::new("sirius dirty", &description, &data);
    let truth = Truth::of(&case, policy);
    truth.check(
        &case,
        &Plan { sequential: ENGINES.to_vec(), generated: true, reader: true, ..Plan::default() },
    );
    (truth, stats.syntax_error_records.len() + stats.sort_violation_records.len())
}

/// Fifteen generated records with in-range codes, kinds and counts.
pub fn mixed() -> Bundled {
    let schema = descriptions::mixed();
    let config = pads_gen::GenConfig { seed: 7, min_len: 0, max_len: 4, ..Default::default() }
        .with_override("code", pads_gen::FieldGen::UintRange(1000, 9999))
        .with_override("kind", pads_gen::FieldGen::UintRange(0, 2))
        .with_override("nvals", pads_gen::FieldGen::UintRange(0, 9));
    let clean = pads_gen::Generator::new(&schema, config).generate_records("rec_t", 15);
    Bundled {
        name: "mixed",
        text: descriptions::MIXED,
        schema,
        registry: Registry::standard(),
        torture: include_bytes!("../data/torture_mixed.txt"),
        clean,
        panics: true,
        column: generated::<Mixed>,
    }
}

pub fn all() -> [Bundled; 3] {
    [clf(), sirius(), mixed()]
}
