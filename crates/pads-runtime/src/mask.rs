//! Masks: run-time control over which constraints are checked and which
//! parts of the in-memory representation are materialised.
//!
//! The paper (§3, §4) motivates masks with the Hancock call-detail streams:
//! one description records *all* known semantic properties, and each
//! application pays only for the checks it needs. A [`Mask`] is a tree whose
//! shape mirrors the described type; every node carries a [`BaseMask`] for
//! its own value and a second one for its compound-level (`Pwhere`)
//! predicate, matching `compoundLevel` in the generated C (Figure 6).

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Per-node mask flags (`Pbase_m` in the paper's C library).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BaseMask {
    /// Skip the component entirely where possible: no constraint checking,
    /// and the representation is not guaranteed to be filled in.
    Ignore,
    /// Fill in the representation but do not run constraints (`P_Set`).
    Set,
    /// Run constraints but do not promise a representation (`P_Check`).
    Check,
    /// Fill in the representation and run constraints (`P_CheckAndSet`).
    #[default]
    CheckAndSet,
}

impl BaseMask {
    /// Whether constraints should be evaluated under this mask.
    pub fn checks(self) -> bool {
        matches!(self, BaseMask::Check | BaseMask::CheckAndSet)
    }

    /// Whether the representation should be materialised under this mask.
    pub fn sets(self) -> bool {
        matches!(self, BaseMask::Set | BaseMask::CheckAndSet)
    }
}

impl std::fmt::Display for BaseMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BaseMask::Ignore => "Ignore",
            BaseMask::Set => "Set",
            BaseMask::Check => "Check",
            BaseMask::CheckAndSet => "CheckAndSet",
        };
        f.write_str(s)
    }
}

/// Path component used to address array elements in a mask tree.
///
/// Named struct fields and union branches are addressed by name; array
/// elements collectively use this constant (`"elt"`).
pub const ELT: &str = "elt";

/// A structure-mirroring mask tree.
///
/// Children not explicitly overridden inherit this node's flags, so
/// `Mask::all(BaseMask::CheckAndSet)` is the paper's
/// `entry_t_m_init(p, &mask, P_CheckAndSet)`.
///
/// # Examples
///
/// ```
/// use pads_runtime::mask::{BaseMask, Mask};
///
/// // Check everything except the event sequence's Pwhere sort constraint —
/// // the Figure 7 configuration.
/// let mut mask = Mask::all(BaseMask::CheckAndSet);
/// mask.set_compound_at("events", BaseMask::Set);
/// assert!(!mask.child("events").compound().checks());
/// assert!(mask.child("header").base().checks());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mask {
    base: BaseMask,
    compound: BaseMask,
    children: BTreeMap<String, Mask>,
}

impl Mask {
    /// A mask applying `m` uniformly to every node, value and compound alike.
    pub fn all(m: BaseMask) -> Mask {
        Mask { base: m, compound: m, children: BTreeMap::new() }
    }

    /// The flags for this node's own value and constraint.
    pub fn base(&self) -> BaseMask {
        self.base
    }

    /// The flags for this node's compound-level (`Pwhere`) predicate.
    pub fn compound(&self) -> BaseMask {
        self.compound
    }

    /// Sets this node's value flags.
    pub fn set_base(&mut self, m: BaseMask) -> &mut Mask {
        self.base = m;
        self
    }

    /// Sets this node's compound-level flags.
    pub fn set_compound(&mut self, m: BaseMask) -> &mut Mask {
        self.compound = m;
        self
    }

    /// Whether this node carries no per-child overrides — [`child`](Mask::child)
    /// would return a node identical to this one for every name, so callers
    /// holding a leaf mask may reuse it for all descendants instead of
    /// materialising children (the uniform `Mask::all(..)` fast path).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Returns the effective mask for the named child: the explicit override
    /// when present, otherwise a childless mask inheriting this node's flags.
    ///
    /// Array elements are addressed with [`ELT`].
    pub fn child(&self, name: &str) -> Mask {
        match self.children.get(name) {
            Some(m) => m.clone(),
            None => Mask { base: self.base, compound: self.compound, children: BTreeMap::new() },
        }
    }

    /// [`child`](Mask::child), borrowed where it would be this node again:
    /// a mask with no per-child overrides lends itself. Uniform masks
    /// (`Mask::all(..)`, the common case) thus descend through any depth
    /// without building a mask node per field per record.
    pub fn child_cow(&self, name: &str) -> Cow<'_, Mask> {
        if self.is_leaf() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.child(name))
        }
    }

    /// Mutable access to the named child, creating it (inheriting the current
    /// flags) if absent.
    pub fn child_mut(&mut self, name: &str) -> &mut Mask {
        let inherit = Mask { base: self.base, compound: self.compound, children: BTreeMap::new() };
        self.children.entry(name.to_owned()).or_insert(inherit)
    }

    /// Sets the *value* flags of the node addressed by a dot-separated path
    /// (e.g. `"events.elt.tstamp"`), creating intermediate nodes as needed.
    /// Intermediate nodes keep their inherited flags.
    pub fn set_at(&mut self, path: &str, m: BaseMask) -> &mut Mask {
        self.node_mut(path).base = m;
        self
    }

    /// Sets the *compound* flags of the node addressed by `path`.
    pub fn set_compound_at(&mut self, path: &str, m: BaseMask) -> &mut Mask {
        self.node_mut(path).compound = m;
        self
    }

    fn node_mut(&mut self, path: &str) -> &mut Mask {
        let mut node = self;
        if path.is_empty() {
            return node;
        }
        for part in path.split('.') {
            node = node.child_mut(part);
        }
        node
    }
}

impl std::fmt::Display for Mask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn go(m: &Mask, name: &str, indent: usize, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            writeln!(
                f,
                "{:indent$}{name}: base={} compound={}",
                "",
                m.base,
                m.compound,
                indent = indent
            )?;
            for (k, v) in &m.children {
                go(v, k, indent + 2, f)?;
            }
            Ok(())
        }
        go(self, "<mask>", 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_inherits_uniformly() {
        let m = Mask::all(BaseMask::Check);
        assert_eq!(m.child("anything").base(), BaseMask::Check);
        assert_eq!(m.child("a").child("b").compound(), BaseMask::Check);
    }

    #[test]
    fn path_override_is_local() {
        let mut m = Mask::all(BaseMask::CheckAndSet);
        m.set_at("events.elt.tstamp", BaseMask::Set);
        assert_eq!(m.child("events").child(ELT).child("tstamp").base(), BaseMask::Set);
        assert_eq!(m.child("events").child(ELT).child("state").base(), BaseMask::CheckAndSet);
        assert_eq!(m.child("header").base(), BaseMask::CheckAndSet);
    }

    #[test]
    fn figure7_configuration() {
        // mask = CheckAndSet everywhere; events compound level only Set.
        let mut m = Mask::all(BaseMask::CheckAndSet);
        m.set_compound_at("events", BaseMask::Set);
        let ev = m.child("events");
        assert!(ev.base().checks());
        assert!(!ev.compound().checks());
        assert!(ev.compound().sets());
    }

    #[test]
    fn mask_semantics() {
        assert!(!BaseMask::Ignore.checks() && !BaseMask::Ignore.sets());
        assert!(!BaseMask::Set.checks() && BaseMask::Set.sets());
        assert!(BaseMask::Check.checks() && !BaseMask::Check.sets());
        assert!(BaseMask::CheckAndSet.checks() && BaseMask::CheckAndSet.sets());
    }

    #[test]
    fn empty_path_addresses_root() {
        let mut m = Mask::all(BaseMask::CheckAndSet);
        m.set_at("", BaseMask::Ignore);
        assert_eq!(m.base(), BaseMask::Ignore);
    }
}
