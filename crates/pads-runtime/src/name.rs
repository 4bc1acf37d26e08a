//! Interned structure names.
//!
//! Field, branch, and variant names appear in every [`Value`] and
//! [`ParseDesc`] node, but the set of distinct names is fixed by the
//! schema. A [`Name`] is one `&'static str`: generated parsers embed
//! string literals, and the interpreter and the VM intern each schema name
//! once, when a parser is built, into a process-wide set that leaks each
//! distinct text once (the way lcc interns its identifiers). Carrying a
//! name through a record is then a pointer copy, with no refcount and no
//! drop, and the memory the set holds is bounded by the names of the
//! descriptions compiled, never by the data.
//!
//! `Name` dereferences to `str` and compares against `str`/`String`
//! transparently, so consumers keep treating names as plain strings.
//!
//! [`Value`]: https://docs.rs/pads
//! [`ParseDesc`]: crate::pd::ParseDesc

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::sync::{LazyLock, Mutex};

/// An interned structure name: a `&'static str`, baked into generated code
/// or interned once per process.
#[derive(Clone, Copy, Default)]
pub struct Name(&'static str);

/// Every text [`Name::intern`] has leaked, once each.
static INTERNED: LazyLock<Mutex<HashSet<&'static str>>> = LazyLock::new(Mutex::default);

impl Name {
    /// The empty name (placeholder for unnamed slots).
    pub const EMPTY: Name = Name::from_static("");

    /// Wraps a static string — free to construct and to clone.
    pub const fn from_static(s: &'static str) -> Name {
        Name(s)
    }

    /// The process's one copy of `s`, leaked the first time it is asked
    /// for. It takes a lock: call it when a schema, parser or writer is
    /// built, never per record.
    pub fn intern(s: &str) -> Name {
        // A thread that panicked holding the lock left the set whole: an
        // insert is the only write.
        let mut set = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&text) = set.get(s) {
            return Name(text);
        }
        let text: &'static str = Box::leak(s.into());
        set.insert(text);
        Name(text)
    }

    /// How many distinct texts [`Name::intern`] holds.
    pub fn interned() -> usize {
        INTERNED.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Name {
        Name::from_static(s)
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.as_str().to_owned()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_and_shared_compare_as_strings() {
        let a = Name::from_static("host");
        let b = Name::intern("host");
        assert_eq!(a, b);
        assert_eq!(a, "host");
        assert_eq!("host", b);
        assert_eq!(a, "host".to_owned());
        assert!(a == *"host");
    }

    #[test]
    fn conversions() {
        let n: Name = "ip".into();
        assert_eq!(n.as_str(), "ip");
        let n = Name::intern(&String::from("tag"));
        assert_eq!(&*n, "tag");
        let s: String = n.into();
        assert_eq!(s, "tag");
    }

    #[test]
    fn interning_leaks_each_text_once() {
        let a = Name::intern("name_rs_interning_test");
        let held = Name::interned();
        let b = Name::intern(&"name_rs_interning_test".to_owned());
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_eq!(Name::interned(), held);
    }

    #[test]
    fn borrow_allows_str_keyed_lookup() {
        let mut m = std::collections::HashMap::new();
        m.insert(Name::from_static("k"), 1);
        assert_eq!(m.get("k"), Some(&1));
    }

    #[test]
    fn ordering_and_display() {
        let mut v = vec![Name::from_static("b"), Name::intern("a")];
        v.sort();
        assert_eq!(format!("{} {}", v[0], v[1]), "a b");
        assert_eq!(format!("{:?}", v[0]), "\"a\"");
    }
}
