//! Seeded corpora, record-local damage, and the content hash.
//!
//! Everything here is a function of the seed alone: the same seed gives
//! the same bytes and therefore the same hash, which every run prints.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use pads_gen::{ClfConfig, ClfStats, SiriusConfig, SiriusStats};
use pads_runtime::fault::Xorshift;

/// Records in the paper's Sirius file, and syntax errors found in it (§7).
const PAPER_SIRIUS_RECORDS: f64 = 11_773_843.0;
const PAPER_SIRIUS_SYNTAX_ERRORS: f64 = 53.0;

/// Share of CLF records whose length field is `-` (§5.2: 6.666 %).
const CLF_DASH_LENGTH_RATE: f64 = 0.06666;

/// Every how-many-th record the dirty workload damages.
pub const DAMAGE_STRIDE: usize = 4;

/// A Sirius summary file (header line, then `records` orders) with errors
/// at the paper's rate: 53 syntax errors per 11.77 M records rounded up,
/// plus one sort violation.
pub fn sirius(seed: u64, records: usize) -> (Vec<u8>, SiriusStats) {
    let syntax_errors =
        (records as f64 / PAPER_SIRIUS_RECORDS * PAPER_SIRIUS_SYNTAX_ERRORS).ceil() as usize;
    pads_gen::sirius::generate(&SiriusConfig {
        records,
        seed,
        syntax_errors,
        sort_violations: 1,
        ..SiriusConfig::default()
    })
}

/// A CLF log whose length field is `-` at the paper's rate.
pub fn clf(seed: u64, records: usize) -> (Vec<u8>, ClfStats) {
    pads_gen::clf::generate(&ClfConfig {
        records,
        seed,
        dash_length_rate: CLF_DASH_LENGTH_RATE,
        ..ClfConfig::default()
    })
}

/// Damages every [`DAMAGE_STRIDE`]-th newline-terminated record after the
/// first `skip_records` (a header): one bit flip, one deletion and one
/// insertion (half of them a newline, to stress record framing), all
/// inside that record's own bytes. Returns the damaged corpus and the
/// number of records touched.
///
/// Record-local on purpose: mutating the whole corpus in place would make
/// every deletion an O(len) shift.
pub fn damage(data: &[u8], skip_records: usize, seed: u64) -> (Vec<u8>, usize) {
    let mut rng = Xorshift::new(seed ^ 0xD1A7_DA7A_0BAD_F00D);
    let mut out = Vec::with_capacity(data.len() + data.len() / 64);
    let mut damaged = 0usize;
    let mut rec = Vec::new();
    for (i, line) in data.split_inclusive(|&b| b == b'\n').enumerate() {
        let body_len = line.len() - usize::from(line.ends_with(b"\n"));
        let hit = i >= skip_records && (i - skip_records) % DAMAGE_STRIDE == DAMAGE_STRIDE - 1;
        if !hit || body_len == 0 {
            out.extend_from_slice(line);
            continue;
        }
        rec.clear();
        rec.extend_from_slice(&line[..body_len]);
        let at = rng.below(rec.len());
        rec[at] ^= 1 << rng.below(8);
        rec.remove(rng.below(rec.len()));
        let at = rng.below(rec.len() + 1);
        let byte = if rng.below(2) == 0 { b'\n' } else { (rng.next_u64() & 0xFF) as u8 };
        rec.insert(at, byte);
        out.extend_from_slice(&rec);
        out.extend_from_slice(&line[body_len..]);
        damaged += 1;
    }
    (out, damaged)
}

/// The prefix of `data` holding its first `records` newline-terminated
/// records (all of it when there are fewer).
pub fn prefix_records(data: &[u8], records: usize) -> &[u8] {
    let mut seen = 0usize;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen == records {
                return &data[..=i];
            }
        }
    }
    data
}

/// 64-bit content hash, eight bytes at a time (FNV-1a's shape on words,
/// with a rotate so high bits reach the low ones). Not cryptographic; it
/// tells two outputs apart and repeats across machines and toolchains.
pub fn hash64(data: &[u8]) -> u64 {
    let mut h = Hash64::new(data.len() as u64);
    let words = data.len() / 8 * 8;
    h.words(&data[..words]);
    h.finish(&data[words..])
}

/// [`hash64`] of the file at `path`, read a buffer at a time: the timing
/// process never holds a child's output (XML is 5.7 × the input), so its
/// own resident set stays below every child's.
pub fn hash_file(path: &Path) -> io::Result<u64> {
    let mut file = File::open(path)?;
    let mut h = Hash64::new(file.metadata()?.len());
    let mut buf = vec![0u8; 1 << 16];
    loop {
        // Fill the buffer, so only the last one can end off a word.
        let mut filled = 0usize;
        while filled < buf.len() {
            match file.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        if filled < buf.len() {
            let words = filled / 8 * 8;
            h.words(&buf[..words]);
            return Ok(h.finish(&buf[words..filled]));
        }
        h.words(&buf);
    }
}

struct Hash64(u64);

impl Hash64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    fn new(len: u64) -> Hash64 {
        Hash64(0xCBF2_9CE4_8422_2325 ^ len)
    }

    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME).rotate_left(29);
    }

    /// `data` is a whole number of eight-byte words.
    fn words(&mut self, data: &[u8]) {
        for c in data.chunks_exact(8) {
            self.mix(u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]));
        }
    }

    /// `tail` is the last, partial word.
    fn finish(mut self, tail: &[u8]) -> u64 {
        for &b in tail {
            self.mix(u64::from(b));
        }
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let (a, _) = sirius(7, 500);
        let (b, _) = sirius(7, 500);
        let (c, _) = sirius(8, 500);
        assert_eq!(hash64(&a), hash64(&b));
        assert_ne!(hash64(&a), hash64(&c));
        let (a, sa) = clf(7, 500);
        let (b, sb) = clf(7, 500);
        assert_eq!((hash64(&a), sa.dash_lengths), (hash64(&b), sb.dash_lengths));
        assert_ne!(hash64(&a), hash64(&clf(8, 500).0));
    }

    #[test]
    fn sirius_errors_follow_the_paper_rate() {
        let (_, stats) = sirius(1, 2_000);
        assert_eq!(stats.syntax_error_records.len(), 1);
        assert_eq!(stats.sort_violation_records.len(), 1);
    }

    #[test]
    fn damage_is_deterministic_and_record_local() {
        let (clean, _) = sirius(3, 400);
        let (a, n) = damage(&clean, 1, 3);
        let (b, _) = damage(&clean, 1, 3);
        let (c, _) = damage(&clean, 1, 4);
        assert_eq!(a, b, "same seed, same damage");
        assert_ne!(a, c, "another seed, other damage");
        assert_eq!(n, 400 / DAMAGE_STRIDE);
        // One deletion and one insertion per record: the length is kept.
        assert_eq!(a.len(), clean.len());

        // Undamaged records survive byte for byte, in order.
        let clean_lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(&a[..clean_lines[0].len()], clean_lines[0], "header untouched");
        let mut at = 0usize;
        for (i, line) in clean_lines.iter().enumerate() {
            let hit = i >= 1 && (i - 1) % DAMAGE_STRIDE == DAMAGE_STRIDE - 1;
            if hit {
                assert_ne!(&a[at..at + line.len()], *line, "record {i} should be damaged");
            } else {
                assert_eq!(&a[at..at + line.len()], *line, "record {i} should be intact");
            }
            at += line.len();
        }
    }

    #[test]
    fn prefix_takes_whole_records() {
        let data = b"a\nbb\nccc\n";
        assert_eq!(prefix_records(data, 2), b"a\nbb\n");
        assert_eq!(prefix_records(data, 9), data);
    }

    #[test]
    fn hash_sees_length_order_and_tail() {
        assert_ne!(hash64(b"abcdefgh"), hash64(b"abcdefgi"));
        assert_ne!(hash64(b"abcdefghi"), hash64(b"abcdefgh"));
        assert_ne!(hash64(b"12345678abcdefgh"), hash64(b"abcdefgh12345678"));
        assert_ne!(hash64(b""), hash64(b"\0"));
    }
}
