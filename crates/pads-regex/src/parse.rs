//! Recursive-descent parser from pattern text to [`Ast`].

use crate::ast::{predefined_class, Ast, ByteSet};

/// Error produced when a pattern fails to parse or compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    pos: usize,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>, pos: usize) -> Error {
        Error { msg: msg.into(), pos }
    }

    /// Byte offset in the pattern where the error was detected.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "regex parse error at offset {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for Error {}

/// Parses a pattern into its syntax tree.
pub fn parse(pattern: &str) -> Result<Ast, Error> {
    let mut p = Parser { input: pattern.as_bytes(), pos: 0 };
    let ast = p.alternate()?;
    if p.pos != p.input.len() {
        return Err(Error::new("unexpected `)`", p.pos));
    }
    Ok(ast)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alternate(&mut self) -> Result<Ast, Error> {
        let mut branches = vec![self.concat()?];
        while self.eat(b'|') {
            branches.push(self.concat()?);
        }
        Ok(match <[Ast; 1]>::try_from(branches) {
            Ok([only]) => only,
            Err(branches) => Ast::Alternate(branches),
        })
    }

    fn concat(&mut self) -> Result<Ast, Error> {
        let mut parts = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.repeat()?);
        }
        Ok(match <[Ast; 1]>::try_from(parts) {
            Ok([only]) => only,
            Err(parts) if parts.is_empty() => Ast::Empty,
            Err(parts) => Ast::Concat(parts),
        })
    }

    fn repeat(&mut self) -> Result<Ast, Error> {
        let atom = self.atom()?;
        let mut node = atom;
        loop {
            let (min, max) = match self.peek() {
                Some(b'*') => (0, None),
                Some(b'+') => (1, None),
                Some(b'?') => (0, Some(1)),
                Some(b'{') => {
                    // `{` opens a bound only when a digit follows; otherwise
                    // it is an ordinary literal (Perl-compatible behaviour).
                    if !self.input.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
                        break;
                    }
                    self.pos += 1;
                    self.counted_bounds()?
                }
                _ => break,
            };
            if !matches!(self.peek(), Some(b'{')) {
                self.pos += 1; // consume * + ?
            }
            if matches!(node, Ast::AssertStart | Ast::AssertEnd | Ast::Empty) {
                return Err(Error::new("repetition of empty or anchor expression", self.pos));
            }
            if let Some(mx) = max {
                if min > mx {
                    return Err(Error::new("repetition bounds out of order", self.pos));
                }
            }
            node = Ast::Repeat { node: Box::new(node), min, max };
        }
        Ok(node)
    }

    /// Parses `m}`, `m,}`, or `m,n}` after the opening brace has been
    /// consumed, leaving the cursor *on* the closing brace so `repeat` can
    /// uniformly consume one trailing byte.
    fn counted_bounds(&mut self) -> Result<(u32, Option<u32>), Error> {
        let min = self.number()?;
        let bounds = if self.eat(b',') {
            if self.peek() == Some(b'}') {
                (min, None)
            } else {
                (min, Some(self.number()?))
            }
        } else {
            (min, Some(min))
        };
        if self.peek() != Some(b'}') {
            return Err(Error::new("expected `}` in repetition", self.pos));
        }
        if let (m, Some(n)) = bounds {
            if m > n {
                return Err(Error::new("repetition bounds out of order", self.pos));
            }
        }
        Ok(bounds)
    }

    fn number(&mut self) -> Result<u32, Error> {
        let start = self.pos;
        let mut val: u32 = 0;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            val = val
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u32))
                .ok_or_else(|| Error::new("repetition bound too large", self.pos))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(Error::new("expected number", self.pos));
        }
        if val > 10_000 {
            return Err(Error::new("repetition bound too large", self.pos));
        }
        Ok(val)
    }

    fn atom(&mut self) -> Result<Ast, Error> {
        match self.bump() {
            None => Err(Error::new("unexpected end of pattern", self.pos)),
            Some(b'(') => {
                // Optional non-capturing marker; we never capture anyway.
                if self.peek() == Some(b'?') {
                    let save = self.pos;
                    self.pos += 1;
                    if !self.eat(b':') {
                        self.pos = save;
                        return Err(Error::new("unsupported group flag", self.pos));
                    }
                }
                let inner = self.alternate()?;
                if !self.eat(b')') {
                    return Err(Error::new("missing closing `)`", self.pos));
                }
                Ok(inner)
            }
            Some(b'[') => self.class(),
            Some(b'.') => Ok(Ast::AnyByte),
            Some(b'^') => Ok(Ast::AssertStart),
            Some(b'$') => Ok(Ast::AssertEnd),
            Some(b'\\') => self.escape(),
            Some(b @ (b'*' | b'+' | b'?')) => {
                Err(Error::new(format!("dangling quantifier `{}`", b as char), self.pos - 1))
            }
            Some(b) => Ok(Ast::Byte(b)),
        }
    }

    fn escape(&mut self) -> Result<Ast, Error> {
        match self.bump() {
            None => Err(Error::new("dangling escape", self.pos)),
            Some(b'n') => Ok(Ast::Byte(b'\n')),
            Some(b'r') => Ok(Ast::Byte(b'\r')),
            Some(b't') => Ok(Ast::Byte(b'\t')),
            Some(b'0') => Ok(Ast::Byte(0)),
            Some(b'x') => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                Ok(Ast::Byte(hi * 16 + lo))
            }
            Some(b @ (b'd' | b'D' | b'w' | b'W' | b's' | b'S')) => {
                Ok(Ast::Class(predefined_class(b as char)))
            }
            Some(b) if b.is_ascii_alphanumeric() => {
                Err(Error::new(format!("unknown escape `\\{}`", b as char), self.pos - 1))
            }
            Some(b) => Ok(Ast::Byte(b)),
        }
    }

    fn hex_digit(&mut self) -> Result<u8, Error> {
        match self.bump() {
            Some(b @ b'0'..=b'9') => Ok(b - b'0'),
            Some(b @ b'a'..=b'f') => Ok(b - b'a' + 10),
            Some(b @ b'A'..=b'F') => Ok(b - b'A' + 10),
            _ => Err(Error::new("expected hex digit", self.pos)),
        }
    }

    fn class(&mut self) -> Result<Ast, Error> {
        let mut set = ByteSet::new();
        let negate = self.eat(b'^');
        let mut first = true;
        loop {
            let b = match self.bump() {
                None => return Err(Error::new("unterminated character class", self.pos)),
                Some(b']') if !first => break,
                Some(b) => b,
            };
            first = false;
            let lo = if b == b'\\' { self.class_escape(&mut set)? } else { Some(b) };
            let Some(lo) = lo else { continue }; // escape was a predefined class
            // Range?
            if self.peek() == Some(b'-')
                && self.input.get(self.pos + 1).is_some_and(|&n| n != b']')
            {
                self.pos += 1; // '-'
                let hb = self.bump().ok_or_else(|| {
                    Error::new("unterminated character class", self.pos)
                })?;
                let hi = if hb == b'\\' {
                    self.class_escape(&mut set)?.ok_or_else(|| {
                        Error::new("class shorthand cannot end a range", self.pos)
                    })?
                } else {
                    hb
                };
                if lo > hi {
                    return Err(Error::new("class range out of order", self.pos));
                }
                set.insert_range(lo, hi);
            } else {
                set.insert(lo);
            }
        }
        if negate {
            set.negate();
        }
        if set.is_empty() {
            return Err(Error::new("empty character class", self.pos));
        }
        Ok(Ast::Class(set))
    }

    /// Handles an escape inside a class. Returns `Some(byte)` for a literal
    /// byte escape, or `None` after unioning a predefined class into `set`.
    fn class_escape(&mut self, set: &mut ByteSet) -> Result<Option<u8>, Error> {
        match self.bump() {
            None => Err(Error::new("dangling escape in class", self.pos)),
            Some(b'n') => Ok(Some(b'\n')),
            Some(b'r') => Ok(Some(b'\r')),
            Some(b't') => Ok(Some(b'\t')),
            Some(b'0') => Ok(Some(0)),
            Some(b'x') => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                Ok(Some(hi * 16 + lo))
            }
            Some(b @ (b'd' | b'D' | b'w' | b'W' | b's' | b'S')) => {
                set.union(&predefined_class(b as char));
                Ok(None)
            }
            Some(b) => Ok(Some(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_alternation_tree() {
        let ast = parse("a|b|c").unwrap();
        assert!(matches!(ast, Ast::Alternate(ref v) if v.len() == 3));
    }

    #[test]
    fn parses_counted_repeat() {
        let ast = parse("a{2,5}").unwrap();
        assert!(matches!(ast, Ast::Repeat { min: 2, max: Some(5), .. }));
    }

    #[test]
    fn literal_brace_without_bound() {
        // `{x}` is not a valid bound, so `{` is a literal.
        let ast = parse("a{x}").unwrap();
        assert!(matches!(ast, Ast::Concat(ref v) if v.len() == 4));
    }

    #[test]
    fn class_shorthand_inside_class() {
        let ast = parse(r"[\d_]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(set.contains(b'5'));
                assert!(set.contains(b'_'));
                assert!(!set.contains(b'a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn leading_close_bracket_is_literal() {
        let ast = parse(r"[]a]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(set.contains(b']'));
                assert!(set.contains(b'a'));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_range() {
        assert!(parse("[5-1]").is_err());
    }

    #[test]
    fn rejects_repeating_anchor() {
        assert!(parse("^*").is_err());
    }
}
