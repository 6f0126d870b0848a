//! Ground LOGRES values.
//!
//! Values interpret type descriptors per Definition 3 of the paper:
//! integers, strings, oids (for class references), `nil`, labeled tuples,
//! finite sets, multisets (elements with occurrence counts) and finite
//! sequences.
//!
//! Tuples are stored with their fields **sorted by label**, so structural
//! equality is label-driven exactly like the paper's tuple semantics
//! (`t: {L1..Lk} -> values`), independent of the order a program writes the
//! attributes in.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::oid::Oid;
use crate::sym::Sym;

/// Reserved tuple-field label carrying the invisible oid of a class tuple
/// variable (the paper: "tuple variables defined for a class include the oid
/// of the class, though this part is not visible to the user"). `@` cannot
/// appear in source identifiers, so user labels never collide with it.
///
/// Lives in the model (rather than the engine that coined it) because the
/// instance's argument indexes must normalize tagged tuples to their oid the
/// same way the engine's unification does — see [`Value::index_key`].
pub const SELF_LABEL: &str = "@self";

/// A ground value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An element of the elementary type `I`.
    Int(i64),
    /// An element of the elementary type `S`.
    Str(String),
    /// An object identifier (interpretation of a class reference).
    Oid(Oid),
    /// The `nil` value, legal for oids of any type inside class values
    /// (Section 2.1). Never legal inside association tuples.
    Nil,
    /// A labeled tuple; fields kept sorted by label (canonical form).
    Tuple(Vec<(Sym, Value)>),
    /// A finite set.
    Set(BTreeSet<Value>),
    /// A finite multiset: element → occurrence count (counts ≥ 1).
    Multiset(BTreeMap<Value, u64>),
    /// A finite sequence.
    Seq(Vec<Value>),
}

impl Value {
    /// String value from anything string-like.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Canonical tuple constructor: sorts fields by label.
    ///
    /// # Panics
    /// Panics on duplicate labels — tuples are functions from labels to
    /// values, so a duplicate is a construction bug, not data.
    pub fn tuple<I, L>(fields: I) -> Value
    where
        I: IntoIterator<Item = (L, Value)>,
        L: Into<Sym>,
    {
        let mut fs: Vec<(Sym, Value)> = fields.into_iter().map(|(l, v)| (l.into(), v)).collect();
        fs.sort_by_key(|a| a.0);
        for w in fs.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "duplicate label `{}` in tuple construction",
                w[0].0
            );
        }
        Value::Tuple(fs)
    }

    /// Set constructor (duplicates collapse).
    pub fn set(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::Set(elems.into_iter().collect())
    }

    /// Multiset constructor (duplicates counted).
    pub fn multiset(elems: impl IntoIterator<Item = Value>) -> Value {
        let mut m: BTreeMap<Value, u64> = BTreeMap::new();
        for e in elems {
            *m.entry(e).or_insert(0) += 1;
        }
        Value::Multiset(m)
    }

    /// Sequence constructor (order preserved).
    pub fn seq(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::Seq(elems.into_iter().collect())
    }

    /// Empty set.
    pub fn empty_set() -> Value {
        Value::Set(BTreeSet::new())
    }

    /// Field access on a tuple value.
    pub fn field(&self, label: Sym) -> Option<&Value> {
        match self {
            Value::Tuple(fs) => fs
                .binary_search_by(|(l, _)| l.cmp(&label))
                .ok()
                .map(|i| &fs[i].1),
            _ => None,
        }
    }

    /// The underlying oid, if this value is one.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// The normalized form used as a hash-index key: a tuple carrying the
    /// hidden [`SELF_LABEL`] oid field collapses to the bare oid; every
    /// other value is itself.
    ///
    /// This mirrors the engine's oid-coercion equivalence (`values_unify`):
    /// two values that unify always have equal index keys, so probing an
    /// index built over `index_key` returns a superset of the matching
    /// tuples and never loses a match.
    pub fn index_key(&self) -> Value {
        if matches!(self, Value::Tuple(_)) {
            if let Some(o) = self.field(Sym::new(SELF_LABEL)).and_then(Value::as_oid) {
                return Value::Oid(o);
            }
        }
        self.clone()
    }

    /// The underlying integer, if this value is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The underlying string, if this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Tuple fields, if this is a tuple.
    pub fn as_tuple(&self) -> Option<&[(Sym, Value)]> {
        match self {
            Value::Tuple(fs) => Some(fs),
            _ => None,
        }
    }

    /// Number of elements in a collection value (multiset counts
    /// multiplicities; tuples and scalars have no length).
    pub fn len(&self) -> Option<u64> {
        match self {
            Value::Set(s) => Some(s.len() as u64),
            Value::Multiset(m) => Some(m.values().sum()),
            Value::Seq(s) => Some(s.len() as u64),
            _ => None,
        }
    }

    /// Is this an empty collection? `None` for non-collections.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Membership test for collections: respects multiset counts > 0 and
    /// sequence containment.
    pub fn contains(&self, elem: &Value) -> Option<bool> {
        match self {
            Value::Set(s) => Some(s.contains(elem)),
            Value::Multiset(m) => Some(m.contains_key(elem)),
            Value::Seq(s) => Some(s.contains(elem)),
            _ => None,
        }
    }

    /// Iterate the elements of any collection value (multiset elements are
    /// repeated according to multiplicity).
    pub fn elements(&self) -> Option<Vec<Value>> {
        match self {
            Value::Set(s) => Some(s.iter().cloned().collect()),
            Value::Multiset(m) => {
                let mut out = Vec::new();
                for (v, n) in m {
                    for _ in 0..*n {
                        out.push(v.clone());
                    }
                }
                Some(out)
            }
            Value::Seq(s) => Some(s.clone()),
            _ => None,
        }
    }

    /// Number of nodes in the value tree: one per constructor or scalar.
    /// This is the unit of the evaluation governor's memory budget — a
    /// machine-independent proxy for the allocation footprint of a value.
    pub fn node_count(&self) -> usize {
        match self {
            Value::Int(_) | Value::Str(_) | Value::Nil | Value::Oid(_) => 1,
            Value::Tuple(fs) => 1 + fs.iter().map(|(_, v)| v.node_count()).sum::<usize>(),
            Value::Set(s) => 1 + s.iter().map(Value::node_count).sum::<usize>(),
            Value::Multiset(m) => 1 + m.keys().map(Value::node_count).sum::<usize>(),
            Value::Seq(s) => 1 + s.iter().map(Value::node_count).sum::<usize>(),
        }
    }

    /// All oids occurring anywhere inside this value.
    pub fn oids(&self) -> Vec<Oid> {
        let mut out = Vec::new();
        self.collect_oids(&mut out);
        out
    }

    fn collect_oids(&self, out: &mut Vec<Oid>) {
        match self {
            Value::Oid(o) => out.push(*o),
            Value::Int(_) | Value::Str(_) | Value::Nil => {}
            Value::Tuple(fs) => {
                for (_, v) in fs {
                    v.collect_oids(out);
                }
            }
            Value::Set(s) => {
                for v in s {
                    v.collect_oids(out);
                }
            }
            Value::Multiset(m) => {
                for v in m.keys() {
                    v.collect_oids(out);
                }
            }
            Value::Seq(s) => {
                for v in s {
                    v.collect_oids(out);
                }
            }
        }
    }

    /// Structurally replace oids via `map` (used for isomorphism checks and
    /// the determinacy property of Appendix B: instances are defined up to
    /// renaming of oids).
    pub fn rename_oids(&self, map: &dyn Fn(Oid) -> Oid) -> Value {
        match self {
            Value::Oid(o) => Value::Oid(map(*o)),
            Value::Int(_) | Value::Str(_) | Value::Nil => self.clone(),
            Value::Tuple(fs) => {
                Value::Tuple(fs.iter().map(|(l, v)| (*l, v.rename_oids(map))).collect())
            }
            Value::Set(s) => Value::Set(s.iter().map(|v| v.rename_oids(map)).collect()),
            Value::Multiset(m) => {
                Value::Multiset(m.iter().map(|(v, n)| (v.rename_oids(map), *n)).collect())
            }
            Value::Seq(s) => Value::Seq(s.iter().map(|v| v.rename_oids(map)).collect()),
        }
    }

    /// Project a tuple value onto a subset of labels (used when checking the
    /// o-value of an oid against each class it belongs to: `Π_Σ(C) ν(o)`).
    pub fn project(&self, labels: &[Sym]) -> Option<Value> {
        let fs = self.as_tuple()?;
        let mut out = Vec::new();
        for l in labels {
            let idx = fs.binary_search_by(|(fl, _)| fl.cmp(l)).ok()?;
            out.push((*l, fs[idx].1.clone()));
        }
        out.sort_by_key(|a| a.0);
        Some(Value::Tuple(out))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Value {
        Value::Oid(o)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Oid(o) => write!(f, "{o}"),
            Value::Nil => f.write_str("nil"),
            Value::Tuple(fs) => {
                f.write_str("(")?;
                for (i, (l, v)) in fs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{l}: {v}")?;
                }
                f.write_str(")")
            }
            Value::Set(s) => {
                f.write_str("{")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
            Value::Multiset(m) => {
                f.write_str("[")?;
                let mut first = true;
                for (v, n) in m {
                    for _ in 0..*n {
                        if !first {
                            f.write_str(", ")?;
                        }
                        first = false;
                        write!(f, "{v}")?;
                    }
                }
                f.write_str("]")
            }
            Value::Seq(s) => {
                f.write_str("<")?;
                for (i, v) in s.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(">")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_equality_is_label_driven() {
        let a = Value::tuple([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let b = Value::tuple([("y", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_tuple_labels_panic() {
        let _ = Value::tuple([("x", Value::Int(1)), ("x", Value::Int(2))]);
    }

    #[test]
    fn sets_collapse_duplicates_multisets_count_them() {
        let s = Value::set([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(s.len(), Some(2));
        let m = Value::multiset([Value::Int(1), Value::Int(1), Value::Int(2)]);
        assert_eq!(m.len(), Some(3));
        assert_eq!(m.contains(&Value::Int(1)), Some(true));
    }

    #[test]
    fn sequences_preserve_order_and_duplicates() {
        let q = Value::seq([Value::Int(3), Value::Int(1), Value::Int(3)]);
        assert_eq!(q.len(), Some(3));
        assert_ne!(q, Value::seq([Value::Int(1), Value::Int(3), Value::Int(3)]));
    }

    #[test]
    fn field_access_and_projection() {
        let v = Value::tuple([
            ("name", Value::str("Smith")),
            ("age", Value::Int(44)),
            ("school", Value::Oid(Oid(3))),
        ]);
        assert_eq!(v.field(Sym::new("age")), Some(&Value::Int(44)));
        let p = v
            .project(&[Sym::new("name"), Sym::new("age")])
            .expect("projection");
        assert_eq!(
            p,
            Value::tuple([("name", Value::str("Smith")), ("age", Value::Int(44))])
        );
        assert_eq!(v.project(&[Sym::new("missing")]), None);
    }

    #[test]
    fn oids_are_collected_at_any_depth() {
        let v = Value::tuple([(
            "team",
            Value::set([
                Value::Oid(Oid(1)),
                Value::tuple([("p", Value::Oid(Oid(2)))]),
            ]),
        )]);
        let mut oids = v.oids();
        oids.sort();
        assert_eq!(oids, vec![Oid(1), Oid(2)]);
    }

    #[test]
    fn rename_oids_is_structural() {
        let v = Value::seq([Value::Oid(Oid(0)), Value::Nil, Value::Int(9)]);
        let r = v.rename_oids(&|o| Oid(o.0 + 100));
        assert_eq!(
            r,
            Value::seq([Value::Oid(Oid(100)), Value::Nil, Value::Int(9)])
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(
            Value::set([Value::Int(2), Value::Int(1)]).to_string(),
            "{1, 2}"
        );
        assert_eq!(
            Value::multiset([Value::Int(1), Value::Int(1)]).to_string(),
            "[1, 1]"
        );
        assert_eq!(
            Value::seq([Value::str("a"), Value::str("b")]).to_string(),
            "<\"a\", \"b\">"
        );
    }
}
