//! LOGRES instances (Definition 4) and ground facts.
//!
//! An instance of a schema `(Σ, isa)` is a triple `(π, ν, ρ)`:
//!
//! * `π` — the **oid assignment**: each class a finite set of oids, with
//!   `C isa C' ⇒ π(C) ⊆ π(C')` (condition a) and intersecting classes
//!   belonging to one generalization hierarchy (condition b);
//! * `ν` — the partial **o-value assignment**: each oid one value, whose
//!   projection on `Σ(C)` conforms for every class `C` containing the oid;
//! * `ρ` — the **association assignment**: each association a finite set of
//!   tuples, with *no* nil oids (associations must reference existing
//!   objects, Section 2.1).
//!
//! Data-function extensions (Section 2.1) also live here, as
//! `member(elem, f(args))` facts, so the whole derived state of a database
//! is one value of this type.
//!
//! The non-commutative composition `⊕` of Appendix B is [`Instance::compose`]:
//! on a ν conflict (same oid, different o-value) the *right* operand wins.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, RwLock};

use rustc_hash::{FxHashMap, FxHashSet};

use crate::error::ModelError;
use crate::oid::{Oid, OidGen};
use crate::schema::Schema;
use crate::sym::Sym;
use crate::value::Value;

/// A ground fact: one element of the set `F` the inflationary operator of
/// Appendix B works on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fact {
    /// `P(self: oid, a1: v1, …)` for a class `P`: the oid belongs to `P` and
    /// its o-value projected on `P`'s attributes is `value`.
    Class {
        /// The class name.
        class: Sym,
        /// The object's identifier.
        oid: Oid,
        /// Tuple over (a subset of) the class's effective attributes.
        value: Value,
    },
    /// `A(v1, …, vn)` for an association `A`.
    Assoc {
        /// The association name.
        assoc: Sym,
        /// The tuple.
        tuple: Value,
    },
    /// `member(elem, f(args))` for a data function `f`.
    Member {
        /// The data function.
        fun: Sym,
        /// Its argument values.
        args: Vec<Value>,
        /// The member element.
        elem: Value,
    },
}

impl Fact {
    /// The predicate name this fact belongs to.
    pub fn predicate(&self) -> Sym {
        match self {
            Fact::Class { class, .. } => *class,
            Fact::Assoc { assoc, .. } => *assoc,
            Fact::Member { fun, .. } => *fun,
        }
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fact::Class { class, oid, value } => {
                write!(f, "{class}(self: {oid}")?;
                if let Some(fs) = value.as_tuple() {
                    for (l, v) in fs {
                        write!(f, ", {l}: {v}")?;
                    }
                }
                f.write_str(")")
            }
            Fact::Assoc { assoc, tuple } => {
                write!(f, "{assoc}")?;
                match tuple.as_tuple() {
                    Some(fs) => {
                        f.write_str("(")?;
                        for (i, (l, v)) in fs.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            write!(f, "{l}: {v}")?;
                        }
                        f.write_str(")")
                    }
                    None => write!(f, "({tuple})"),
                }
            }
            Fact::Member { fun, args, elem } => {
                write!(f, "member({elem}, {fun}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("))")
            }
        }
    }
}

/// The tuples of one association sharing one key value. A hash set, so a
/// removal finds its tuple without scanning: a probe keys on the first
/// ground argument whatever its selectivity, so one bucket can hold most of
/// a relation.
type Bucket = Arc<FxHashSet<Value>>;

/// One per-argument hash index over an association extension: normalized
/// key value → the tuples carrying that key (see [`Value::index_key`]).
type ArgIndex = FxHashMap<Value, Bucket>;

/// Lazily built secondary indexes over the association assignment ρ.
///
/// An index is built on the first probe of its (association, label) and
/// from then on kept in step with the extension: [`Instance::insert_assoc`]
/// and [`Instance::remove_assoc`] edit the buckets of their own association
/// in place, and no other mutation touches them. An index is dropped only
/// with its instance: clones and [`Instance::compose`] results start cold,
/// so a write to a clone never pays for an index it did not ask for.
///
/// Bucket order is the iteration order of an unseeded hash set, so it is a
/// deterministic function of the mutation sequence (and of the point at
/// which the index was built); answers never depend on it, because every
/// candidate is verified by the full match.
#[derive(Debug, Default)]
struct IndexCache {
    /// association → attribute label → per-key tuple buckets.
    by_assoc: FxHashMap<Sym, FxHashMap<Sym, ArgIndex>>,
}

impl IndexCache {
    /// Add `tuple`, new to `assoc`'s extension, to every built index of
    /// `assoc`.
    fn insert(&mut self, assoc: Sym, tuple: &Value) {
        let Some(indexes) = self.by_assoc.get_mut(&assoc) else {
            return;
        };
        for (label, index) in indexes {
            if let Some(fv) = tuple.field(*label) {
                Arc::make_mut(index.entry(fv.index_key()).or_default()).insert(tuple.clone());
            }
        }
    }

    /// Remove `tuple`, just removed from `assoc`'s extension, from every
    /// built index of `assoc`, dropping buckets it leaves empty (a fresh
    /// build has none, so a probe for their key stays a miss).
    fn remove(&mut self, assoc: Sym, tuple: &Value) {
        let Some(indexes) = self.by_assoc.get_mut(&assoc) else {
            return;
        };
        for (label, index) in indexes {
            let Some(key) = tuple.field(*label).map(Value::index_key) else {
                continue;
            };
            if let Some(bucket) = index.get_mut(&key) {
                let bucket = Arc::make_mut(bucket);
                bucket.remove(tuple);
                if bucket.is_empty() {
                    index.remove(&key);
                }
            }
        }
    }
}

/// A database instance `(π, ν, ρ)` plus data-function extensions.
///
/// Storage is copy-on-write: each class extent, association extent and
/// data-function extension, and ν as a whole, sits behind its own [`Arc`],
/// so a clone bumps one refcount per relation and shares every extent with
/// its source. The first write to a shared extent copies that extent alone
/// ([`Arc::make_mut`]); a write that would change nothing (a duplicate
/// insert, an absent removal) is detected first and copies nothing. An
/// unshared extent is written in place: an insert into one no index covers
/// still hashes its tuple once. Removals drop the extents they empty, so an
/// empty extent is never stored: an instance maps each predicate to a set,
/// and an empty set and an absent one are the same instance.
#[derive(Debug, Default)]
pub struct Instance {
    /// π: class → oids.
    pi: FxHashMap<Sym, Arc<FxHashSet<Oid>>>,
    /// ν: oid → o-value (the *full* tuple across all classes of the oid's
    /// hierarchy; per-class views are projections). One shared map.
    nu: Arc<FxHashMap<Oid, Value>>,
    /// ρ: association → tuples.
    rho: FxHashMap<Sym, Arc<FxHashSet<Value>>>,
    /// Data-function extensions: f → (args → elements).
    fun: FxHashMap<Sym, Arc<FunExtension>>,
    /// Lazy secondary indexes. Excluded from `Clone` (a clone starts with a
    /// cold cache) and from `PartialEq` (the cache is derived state).
    cache: RwLock<IndexCache>,
}

/// One data function's extension: argument tuple → its (non-empty) set.
type FunExtension = FxHashMap<Vec<Value>, BTreeSet<Value>>;

/// Whether a copy-on-write extent is shared with another instance, so a
/// write to it would copy it.
fn shared<T>(extent: &Arc<T>) -> bool {
    Arc::strong_count(extent) > 1
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            pi: self.pi.clone(),
            nu: Arc::clone(&self.nu),
            rho: self.rho.clone(),
            fun: self.fun.clone(),
            cache: RwLock::new(IndexCache::default()),
        }
    }
}

/// Extents compare by contents; `Arc`'s equality tests pointer identity
/// first, so extents a clone still shares compare in O(1).
impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        self.pi == other.pi && self.nu == other.nu && self.rho == other.rho && self.fun == other.fun
    }
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    // ----- reads -----------------------------------------------------------

    /// Oids of a class (empty if the class has no members).
    pub fn oids_of(&self, class: Sym) -> impl Iterator<Item = Oid> + '_ {
        self.pi
            .get(&class)
            .into_iter()
            .flat_map(|s| s.iter())
            .copied()
    }

    /// Number of objects in a class.
    pub fn class_len(&self, class: Sym) -> usize {
        self.pi.get(&class).map_or(0, |s| s.len())
    }

    /// Is `oid` a member of `class`?
    pub fn is_member(&self, class: Sym, oid: Oid) -> bool {
        self.pi.get(&class).is_some_and(|s| s.contains(&oid))
    }

    /// The o-value of an oid, if assigned.
    pub fn o_value(&self, oid: Oid) -> Option<&Value> {
        self.nu.get(&oid)
    }

    /// The o-value of `oid` *as seen through* `class`: projection of ν(oid)
    /// onto the class's effective attributes.
    pub fn o_value_in(&self, schema: &Schema, class: Sym, oid: Oid) -> Option<Value> {
        let full = self.nu.get(&oid)?;
        let attrs: Vec<Sym> = schema
            .effective(class)?
            .as_tuple()?
            .iter()
            .map(|f| f.label)
            .collect();
        // Projection tolerates missing attributes (a partially-built object
        // mid-evaluation): keep the fields that exist.
        let fs = full.as_tuple()?;
        let mut out = Vec::new();
        for l in attrs {
            if let Ok(i) = fs.binary_search_by(|(fl, _)| fl.cmp(&l)) {
                out.push((l, fs[i].1.clone()));
            }
        }
        // Restore the canonical label order (`attrs` follows declaration
        // order, not the sorted-tuple invariant).
        out.sort_by_key(|a| a.0);
        Some(Value::Tuple(out))
    }

    /// Tuples of an association.
    pub fn tuples_of(&self, assoc: Sym) -> impl Iterator<Item = &Value> + '_ {
        self.rho.get(&assoc).into_iter().flat_map(|s| s.iter())
    }

    /// Number of tuples in an association.
    pub fn assoc_len(&self, assoc: Sym) -> usize {
        self.rho.get(&assoc).map_or(0, |s| s.len())
    }

    /// Does the association contain this tuple?
    pub fn has_tuple(&self, assoc: Sym, tuple: &Value) -> bool {
        self.rho.get(&assoc).is_some_and(|s| s.contains(tuple))
    }

    /// Whether `self` and `other` hold `assoc`'s extent in one shared
    /// allocation: true from a clone until either side writes to `assoc`.
    pub fn shares_extent(&self, other: &Instance, assoc: Sym) -> bool {
        matches!(
            (self.rho.get(&assoc), other.rho.get(&assoc)),
            (Some(a), Some(b)) if Arc::ptr_eq(a, b)
        )
    }

    /// Tuples of `assoc` whose attribute `label` has `key` as its
    /// normalized value ([`Value::index_key`]). Probes a per-(association,
    /// label) hash index built on first use and maintained in place by
    /// later association updates ([`IndexCache`]), turning a selective
    /// literal match from an extension scan into a bucket lookup. `None`
    /// means no tuple matches.
    pub fn tuples_matching(
        &self,
        assoc: Sym,
        label: Sym,
        key: &Value,
    ) -> Option<Arc<FxHashSet<Value>>> {
        {
            let cache = self.cache.read().expect("index cache poisoned");
            if let Some(index) = cache.by_assoc.get(&assoc).and_then(|m| m.get(&label)) {
                return index.get(key).map(Arc::clone);
            }
        }
        // Cold: build outside the lock. Concurrent readers may race to
        // build the same index; both compute identical maps from the same
        // immutable state and the first writer wins.
        let mut buckets: FxHashMap<Value, FxHashSet<Value>> = FxHashMap::default();
        for tuple in self.tuples_of(assoc) {
            if let Some(fv) = tuple.field(label) {
                buckets
                    .entry(fv.index_key())
                    .or_default()
                    .insert(tuple.clone());
            }
        }
        let built: ArgIndex = buckets.into_iter().map(|(k, v)| (k, Arc::new(v))).collect();
        let mut cache = self.cache.write().expect("index cache poisoned");
        cache
            .by_assoc
            .entry(assoc)
            .or_default()
            .entry(label)
            .or_insert(built)
            .get(key)
            .map(Arc::clone)
    }

    /// The materialized set value `f(args)` of a data function (empty set if
    /// nothing was derived).
    pub fn fun_value(&self, fun: Sym, args: &[Value]) -> Value {
        match self.fun.get(&fun).and_then(|m| m.get(args)) {
            Some(set) => Value::Set(set.clone()),
            None => Value::empty_set(),
        }
    }

    /// All argument tuples for which `fun` has a non-empty extension.
    pub fn fun_args(&self, fun: Sym) -> impl Iterator<Item = &Vec<Value>> + '_ {
        self.fun.get(&fun).into_iter().flat_map(|m| m.keys())
    }

    /// Membership of `elem` in `fun(args)`.
    pub fn fun_contains(&self, fun: Sym, args: &[Value], elem: &Value) -> bool {
        self.fun
            .get(&fun)
            .and_then(|m| m.get(args))
            .is_some_and(|s| s.contains(elem))
    }

    /// Total number of stored facts (class memberships + association tuples
    /// + function members). Used for progress reporting and fuel limits.
    pub fn fact_count(&self) -> usize {
        self.pi.values().map(|s| s.len()).sum::<usize>()
            + self.rho.values().map(|s| s.len()).sum::<usize>()
            + self
                .fun
                .values()
                .map(|m| m.values().map(|s| s.len()).sum::<usize>())
                .sum::<usize>()
    }

    /// Largest oid in use plus one (floor for resuming an [`OidGen`]).
    pub fn oid_gen(&self) -> OidGen {
        let mut max = None;
        for s in self.pi.values() {
            for o in s.iter() {
                max = Some(max.map_or(*o, |m: Oid| m.max(*o)));
            }
        }
        for v in self.nu.keys() {
            max = Some(max.map_or(*v, |m: Oid| m.max(*v)));
        }
        match max {
            Some(m) => OidGen::starting_at(m.0 + 1),
            None => OidGen::new(),
        }
    }

    // ----- fact-level operations -------------------------------------------

    /// Does the instance contain this fact? Class facts match when the oid
    /// is in the class and the stored o-value agrees on every attribute the
    /// fact mentions.
    pub fn contains_fact(&self, schema: &Schema, fact: &Fact) -> bool {
        match fact {
            Fact::Class { class, oid, value } => {
                if !self.is_member(*class, *oid) {
                    return false;
                }
                let Some(stored) = self.nu.get(oid) else {
                    return value.as_tuple().is_some_and(|f| f.is_empty());
                };
                let _ = schema;
                match value.as_tuple() {
                    Some(fs) => fs.iter().all(|(l, v)| stored.field(*l) == Some(v)),
                    None => false,
                }
            }
            Fact::Assoc { assoc, tuple } => self.has_tuple(*assoc, tuple),
            Fact::Member { fun, args, elem } => self.fun_contains(*fun, args, elem),
        }
    }

    /// Insert a fact; returns whether anything changed.
    pub fn insert_fact(&mut self, schema: &Schema, fact: &Fact) -> bool {
        match fact {
            Fact::Class { class, oid, value } => {
                self.insert_object(schema, *class, *oid, value.clone())
            }
            Fact::Assoc { assoc, tuple } => self.insert_assoc(*assoc, tuple.clone()),
            Fact::Member { fun, args, elem } => {
                self.insert_member(*fun, args.clone(), elem.clone())
            }
        }
    }

    /// Remove a fact; returns whether anything changed. Removing a class
    /// fact removes the oid from the class *and all its subclasses* (to
    /// preserve `π(C) ⊆ π(C')`), provided the mentioned attributes match.
    pub fn remove_fact(&mut self, schema: &Schema, fact: &Fact) -> bool {
        match fact {
            Fact::Class { class, oid, value } => {
                if !self.contains_fact(
                    schema,
                    &Fact::Class {
                        class: *class,
                        oid: *oid,
                        value: value.clone(),
                    },
                ) {
                    return false;
                }
                self.remove_object(schema, *class, *oid)
            }
            Fact::Assoc { assoc, tuple } => self.remove_assoc(*assoc, tuple),
            Fact::Member { fun, args, elem } => self.remove_member(*fun, args, elem),
        }
    }

    /// Add `oid` to `class` (and, per condition (a) of Definition 4, to all
    /// its isa ancestors) and merge `value`'s attributes into ν(oid).
    /// Attributes already present with a different value are overwritten
    /// (`⊕`-style right bias). Returns whether anything changed.
    pub fn insert_object(&mut self, schema: &Schema, class: Sym, oid: Oid, value: Value) -> bool {
        let mut changed = false;
        for c in std::iter::once(class).chain(schema.ancestors(class)) {
            let oids = self.pi.entry(c).or_default();
            if !(shared(oids) && oids.contains(&oid)) {
                changed |= Arc::make_mut(oids).insert(oid);
            }
        }
        let incoming = match value {
            Value::Tuple(fs) => fs,
            other => vec![(Sym::new("value"), other)],
        };
        if shared(&self.nu) {
            let unchanged = match self.nu.get(&oid) {
                Some(stored @ Value::Tuple(_)) => {
                    incoming.iter().all(|(l, v)| stored.field(*l) == Some(v))
                }
                _ => false,
            };
            if unchanged {
                return changed;
            }
        }
        let nu = Arc::make_mut(&mut self.nu);
        match nu.get_mut(&oid) {
            Some(Value::Tuple(existing)) => {
                for (l, v) in incoming {
                    match existing.binary_search_by(|(fl, _)| fl.cmp(&l)) {
                        Ok(i) => {
                            if existing[i].1 != v {
                                existing[i].1 = v;
                                changed = true;
                            }
                        }
                        Err(i) => {
                            existing.insert(i, (l, v));
                            changed = true;
                        }
                    }
                }
            }
            _ => {
                let mut fs = incoming;
                fs.sort_by_key(|a| a.0);
                nu.insert(oid, Value::Tuple(fs));
                changed = true;
            }
        }
        changed
    }

    /// Remove `oid` from `class` and all its subclasses; drop ν(oid) once no
    /// class holds the oid anymore.
    pub fn remove_object(&mut self, schema: &Schema, class: Sym, oid: Oid) -> bool {
        let mut changed = false;
        let mut targets = vec![class];
        // All classes that are descendants of `class`.
        for c in schema.classes() {
            if c != class && schema.isa_holds(c, class) {
                targets.push(c);
            }
        }
        for c in targets {
            let Some(oids) = self.pi.get_mut(&c) else {
                continue;
            };
            if shared(oids) && !oids.contains(&oid) {
                continue;
            }
            if !Arc::make_mut(oids).remove(&oid) {
                continue;
            }
            if oids.is_empty() {
                self.pi.remove(&c);
            }
            changed = true;
        }
        let still_member = self.pi.values().any(|s| s.contains(&oid));
        if !still_member && self.nu.contains_key(&oid) {
            Arc::make_mut(&mut self.nu).remove(&oid);
            changed = true;
        }
        changed
    }

    /// Insert an association tuple, and into every built index of the
    /// association. Returns whether it was new.
    pub fn insert_assoc(&mut self, assoc: Sym, tuple: Value) -> bool {
        let extent = self.rho.entry(assoc).or_default();
        let cache = self.cache.get_mut().expect("index cache poisoned");
        let indexed = cache.by_assoc.contains_key(&assoc);
        // Only a new tuple may enter the indexes or copy a shared extent.
        if (indexed || shared(extent)) && extent.contains(&tuple) {
            return false;
        }
        if indexed {
            cache.insert(assoc, &tuple);
        }
        Arc::make_mut(extent).insert(tuple)
    }

    /// Remove an association tuple, and from every built index of the
    /// association. Returns whether it was present.
    pub fn remove_assoc(&mut self, assoc: Sym, tuple: &Value) -> bool {
        let Some(extent) = self.rho.get_mut(&assoc) else {
            return false;
        };
        if shared(extent) && !extent.contains(tuple) {
            return false;
        }
        if !Arc::make_mut(extent).remove(tuple) {
            return false;
        }
        if extent.is_empty() {
            self.rho.remove(&assoc);
        }
        self.cache
            .get_mut()
            .expect("index cache poisoned")
            .remove(assoc, tuple);
        true
    }

    /// Insert a data-function member. Returns whether it was new.
    pub fn insert_member(&mut self, fun: Sym, args: Vec<Value>, elem: Value) -> bool {
        let ext = self.fun.entry(fun).or_default();
        if shared(ext) && ext.get(&args).is_some_and(|s| s.contains(&elem)) {
            return false;
        }
        Arc::make_mut(ext).entry(args).or_default().insert(elem)
    }

    /// Remove a data-function member, dropping the argument entry (and the
    /// function's extension) it empties. Returns whether it was present.
    pub fn remove_member(&mut self, fun: Sym, args: &[Value], elem: &Value) -> bool {
        let Some(ext) = self.fun.get_mut(&fun) else {
            return false;
        };
        if shared(ext) && !ext.get(args).is_some_and(|s| s.contains(elem)) {
            return false;
        }
        let ext_mut = Arc::make_mut(ext);
        let Some(elems) = ext_mut.get_mut(args) else {
            return false;
        };
        if !elems.remove(elem) {
            return false;
        }
        if elems.is_empty() {
            ext_mut.remove(args);
            if ext_mut.is_empty() {
                self.fun.remove(&fun);
            }
        }
        true
    }

    /// Enumerate every fact in a deterministic order. Class facts are
    /// reported once per class the oid belongs to (so a `student` yields
    /// both a `student` and a `person` fact), with per-class projected
    /// values.
    pub fn facts(&self, schema: &Schema) -> Vec<Fact> {
        let mut out = Vec::new();
        let mut classes: Vec<Sym> = self.pi.keys().copied().collect();
        classes.sort();
        for class in classes {
            let mut oids: Vec<Oid> = self.pi[&class].iter().copied().collect();
            oids.sort();
            for oid in oids {
                let value = self
                    .o_value_in(schema, class, oid)
                    .unwrap_or_else(|| self.nu.get(&oid).cloned().unwrap_or(Value::Tuple(vec![])));
                out.push(Fact::Class { class, oid, value });
            }
        }
        let mut assocs: Vec<Sym> = self.rho.keys().copied().collect();
        assocs.sort();
        for assoc in assocs {
            let mut tuples: Vec<&Value> = self.rho[&assoc].iter().collect();
            tuples.sort();
            for t in tuples {
                out.push(Fact::Assoc {
                    assoc,
                    tuple: t.clone(),
                });
            }
        }
        let mut funs: Vec<Sym> = self.fun.keys().copied().collect();
        funs.sort();
        for fun in funs {
            let mut entries: Vec<(&Vec<Value>, &BTreeSet<Value>)> = self.fun[&fun].iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            for (args, elems) in entries {
                for elem in elems {
                    out.push(Fact::Member {
                        fun,
                        args: args.clone(),
                        elem: elem.clone(),
                    });
                }
            }
        }
        out
    }

    // ----- composition (Appendix B) ----------------------------------------

    /// The non-commutative composition `G ⊕ G'`:
    /// `ρ` and `π` are unioned; for o-values, an oid present in `G'` takes
    /// `G'`'s value (facts of `G` with the same oid but different o-value
    /// are superseded). Function extensions are unioned. The result starts
    /// from a clone of `G`, so it has no index and editing its maps directly
    /// leaves none stale.
    pub fn compose(&self, right: &Instance) -> Instance {
        let mut out = self.clone();
        for (class, oids) in &right.pi {
            Arc::make_mut(out.pi.entry(*class).or_default()).extend(oids.iter().copied());
        }
        let nu = Arc::make_mut(&mut out.nu);
        for (oid, v) in right.nu.iter() {
            nu.insert(*oid, v.clone()); // right wins
        }
        for (assoc, tuples) in &right.rho {
            Arc::make_mut(out.rho.entry(*assoc).or_default()).extend(tuples.iter().cloned());
        }
        for (fun, m) in &right.fun {
            let target = Arc::make_mut(out.fun.entry(*fun).or_default());
            for (args, elems) in m.iter() {
                target
                    .entry(args.clone())
                    .or_default()
                    .extend(elems.iter().cloned());
            }
        }
        out
    }

    // ----- validation (Definition 4) ----------------------------------------

    /// Check all legality conditions of Definition 4 against `schema`, plus
    /// the referential constraints of Section 2.1 (associations reference
    /// existing objects; class references are existing oids or nil).
    pub fn validate(&self, schema: &Schema) -> Result<(), Vec<ModelError>> {
        let mut errs = Vec::new();

        // Condition (a): π(C) ⊆ π(C') when C isa C'.
        for c in schema.classes() {
            for sup in schema.ancestors(c) {
                let sub_oids = self.pi.get(&c);
                let sup_oids = self.pi.get(&sup);
                let ok = match (sub_oids, sup_oids) {
                    (None, _) => true,
                    (Some(s), Some(p)) => s.is_subset(p),
                    (Some(s), None) => s.is_empty(),
                };
                if !ok {
                    errs.push(ModelError::IsaInclusionViolated { sub: c, sup });
                }
            }
        }

        // Condition (b): intersecting classes share a hierarchy.
        let classes: Vec<Sym> = schema.classes().collect();
        for (i, &c1) in classes.iter().enumerate() {
            for &c2 in &classes[i + 1..] {
                if schema.same_hierarchy(c1, c2) {
                    continue;
                }
                let (Some(s1), Some(s2)) = (self.pi.get(&c1), self.pi.get(&c2)) else {
                    continue;
                };
                if s1.intersection(s2).next().is_some() {
                    errs.push(ModelError::HierarchyPartitionViolated { c1, c2 });
                }
            }
        }

        // Every oid has an o-value conforming (projected) to each class.
        for (&class, oids) in &self.pi {
            let Some(eff) = schema.effective(class) else {
                continue;
            };
            let expanded = schema.expand(eff);
            for oid in oids.iter() {
                match self.nu.get(oid) {
                    None => errs.push(ModelError::MissingOValue { class }),
                    Some(_) => {
                        if let Some(view) = self.o_value_in(schema, class, *oid) {
                            if let Err(e) = self.conforms(schema, &view, &expanded, true) {
                                errs.push(e);
                            }
                        }
                    }
                }
            }
        }

        // Association tuples conform; nil oids are illegal there.
        for (&assoc, tuples) in &self.rho {
            let Some(ty) = schema.assoc_type(assoc) else {
                continue;
            };
            let expanded = schema.expand(ty);
            for t in tuples.iter() {
                if let Err(e) = self.conforms(schema, t, &expanded, false) {
                    errs.push(e);
                }
            }
        }

        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Structural conformance of a value to an (expanded) type, including
    /// the referential condition: an oid in a `Class(C)` position must be a
    /// member of `C` (`nil` allowed only when `allow_nil`).
    ///
    /// Tuple values may carry *more* attributes than the type requires
    /// (refinement): extra fields are ignored.
    pub fn conforms(
        &self,
        schema: &Schema,
        v: &Value,
        ty: &crate::types::TypeDesc,
        allow_nil: bool,
    ) -> Result<(), ModelError> {
        use crate::types::TypeDesc as T;
        let mismatch = |expected: &T, found: &Value| ModelError::TypeMismatch {
            expected: expected.to_string(),
            found: found.to_string(),
        };
        match (ty, v) {
            (T::Int, Value::Int(_)) => Ok(()),
            (T::Str, Value::Str(_)) => Ok(()),
            (T::Domain(d), _) => {
                let inner = schema
                    .domain_type(*d)
                    .ok_or(ModelError::UnknownType(*d))?
                    .clone();
                let expanded = schema.expand(&inner);
                self.conforms(schema, v, &expanded, allow_nil)
            }
            (T::Class(c), Value::Oid(o)) => {
                if self.is_member(*c, *o) {
                    Ok(())
                } else {
                    Err(ModelError::ReferentialViolation(format!(
                        "oid {o} is not a member of class `{c}`"
                    )))
                }
            }
            (T::Class(_), Value::Nil) => {
                if allow_nil {
                    Ok(())
                } else {
                    Err(ModelError::ReferentialViolation(
                        "nil oid inside an association tuple".to_owned(),
                    ))
                }
            }
            (T::Tuple(fields), Value::Tuple(_)) => {
                for f in fields {
                    match v.field(f.label) {
                        Some(fv) => self.conforms(schema, fv, &f.ty, allow_nil)?,
                        None => {
                            return Err(ModelError::TypeMismatch {
                                expected: format!("tuple with label `{}`", f.label),
                                found: v.to_string(),
                            })
                        }
                    }
                }
                Ok(())
            }
            (T::Set(elem), Value::Set(xs)) => {
                for x in xs {
                    self.conforms(schema, x, elem, allow_nil)?;
                }
                Ok(())
            }
            (T::Multiset(elem), Value::Multiset(m)) => {
                for x in m.keys() {
                    self.conforms(schema, x, elem, allow_nil)?;
                }
                Ok(())
            }
            (T::Seq(elem), Value::Seq(xs)) => {
                for x in xs {
                    self.conforms(schema, x, elem, allow_nil)?;
                }
                Ok(())
            }
            _ => Err(mismatch(ty, v)),
        }
    }

    // ----- isomorphism (determinacy up to oid renaming, Appendix B) --------

    /// Best-effort isomorphism check: instances produced by the
    /// deterministic semantics from the same input are *determinate*, i.e.
    /// equal up to renaming of invented oids. This uses 1-dimensional
    /// Weisfeiler–Leman color refinement to canonicalize oids, which is
    /// exact on all instances without non-trivial value-level automorphisms
    /// (the common case for database states).
    pub fn isomorphic(&self, schema: &Schema, other: &Instance) -> bool {
        self.canonical_facts(schema) == other.canonical_facts(schema)
    }

    fn canonical_facts(&self, schema: &Schema) -> Vec<String> {
        // Initial color: classes the oid belongs to + its o-value with oids
        // masked.
        let mut oids: Vec<Oid> = self.nu.keys().copied().collect();
        for s in self.pi.values() {
            oids.extend(s.iter().copied());
        }
        oids.sort();
        oids.dedup();

        let mut color: BTreeMap<Oid, u64> = BTreeMap::new();
        let sig0 = |o: Oid| -> String {
            let mut classes: Vec<&str> = self
                .pi
                .iter()
                .filter(|(_, s)| s.contains(&o))
                .map(|(c, _)| c.as_str())
                .collect();
            classes.sort();
            let masked = self
                .nu
                .get(&o)
                .map(|v| v.rename_oids(&|_| Oid(0)).to_string())
                .unwrap_or_default();
            format!("{classes:?}|{masked}")
        };
        {
            let mut sigs: Vec<(String, Oid)> = oids.iter().map(|&o| (sig0(o), o)).collect();
            sigs.sort();
            let mut next = 0u64;
            let mut last: Option<&str> = None;
            for (s, o) in &sigs {
                if last != Some(s.as_str()) {
                    next += 1;
                    last = Some(s.as_str());
                }
                color.insert(*o, next);
            }
        }

        // Refine: recolor each oid by the colors reachable through its
        // o-value, until stable (bounded by |oids| rounds).
        for _ in 0..oids.len() {
            let recolor = |o: Oid| -> String {
                let base = color[&o];
                let ctx = self
                    .nu
                    .get(&o)
                    .map(|v| {
                        v.rename_oids(&|r| Oid(*color.get(&r).unwrap_or(&0)))
                            .to_string()
                    })
                    .unwrap_or_default();
                format!("{base}|{ctx}")
            };
            let mut sigs: Vec<(String, Oid)> = oids.iter().map(|&o| (recolor(o), o)).collect();
            sigs.sort();
            let mut newc: BTreeMap<Oid, u64> = BTreeMap::new();
            let mut next = 0u64;
            let mut last: Option<&str> = None;
            for (s, o) in &sigs {
                if last != Some(s.as_str()) {
                    next += 1;
                    last = Some(s.as_str());
                }
                newc.insert(*o, next);
            }
            if newc == color {
                break;
            }
            color = newc;
        }

        // Canonical rename: order oids by (final color, then arbitrary but
        // deterministic tiebreak by current id among same-color oids — this
        // is the best-effort part).
        let mut order: Vec<Oid> = oids.clone();
        order.sort_by_key(|o| (color[o], o.0));
        let canon: FxHashMap<Oid, Oid> = order
            .iter()
            .enumerate()
            .map(|(i, o)| (*o, Oid(i as u64)))
            .collect();
        let rename = |o: Oid| *canon.get(&o).unwrap_or(&o);

        let mut out: Vec<String> = self
            .facts(schema)
            .into_iter()
            .map(|f| match f {
                Fact::Class { class, oid, value } => {
                    format!("C|{class}|{}|{}", rename(oid), value.rename_oids(&rename))
                }
                Fact::Assoc { assoc, tuple } => {
                    format!("A|{assoc}|{}", tuple.rename_oids(&rename))
                }
                Fact::Member { fun, args, elem } => format!(
                    "M|{fun}|{:?}|{}",
                    args.iter()
                        .map(|a| a.rename_oids(&rename).to_string())
                        .collect::<Vec<_>>(),
                    elem.rename_oids(&rename)
                ),
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeDesc;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_class("person", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_class(
            "student",
            TypeDesc::tuple([
                ("person", TypeDesc::class("person")),
                ("school", TypeDesc::Str),
            ]),
        )
        .unwrap();
        s.add_isa("student", "person", None);
        s.add_assoc(
            "advises",
            TypeDesc::tuple([("who", TypeDesc::class("person"))]),
        )
        .unwrap();
        s.validate().unwrap();
        s
    }

    fn sym(s: &str) -> Sym {
        Sym::new(s)
    }

    #[test]
    fn insert_object_propagates_to_ancestors() {
        let s = schema();
        let mut i = Instance::new();
        let changed = i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John")), ("school", Value::str("PdM"))]),
        );
        assert!(changed);
        assert!(i.is_member(sym("student"), Oid(1)));
        assert!(i.is_member(sym("person"), Oid(1)));
        // Person view projects onto person attributes only.
        let view = i.o_value_in(&s, sym("person"), Oid(1)).unwrap();
        assert_eq!(view, Value::tuple([("name", Value::str("John"))]));
    }

    #[test]
    fn o_values_merge_attribute_wise() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("person"),
            Oid(1),
            Value::tuple([("name", Value::str("John"))]),
        );
        i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("school", Value::str("PdM"))]),
        );
        let full = i.o_value(Oid(1)).unwrap();
        assert_eq!(full.field(sym("name")), Some(&Value::str("John")));
        assert_eq!(full.field(sym("school")), Some(&Value::str("PdM")));
        // Idempotent insert reports no change.
        let changed = i.insert_object(
            &s,
            sym("person"),
            Oid(1),
            Value::tuple([("name", Value::str("John"))]),
        );
        assert!(!changed);
    }

    #[test]
    fn remove_object_cascades_to_subclasses() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John")), ("school", Value::str("PdM"))]),
        );
        // Removing from the superclass removes from the subclass too.
        assert!(i.remove_object(&s, sym("person"), Oid(1)));
        assert!(!i.is_member(sym("student"), Oid(1)));
        assert!(!i.is_member(sym("person"), Oid(1)));
        assert!(i.o_value(Oid(1)).is_none());
    }

    #[test]
    fn remove_from_subclass_keeps_superclass_membership() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John")), ("school", Value::str("PdM"))]),
        );
        assert!(i.remove_object(&s, sym("student"), Oid(1)));
        assert!(!i.is_member(sym("student"), Oid(1)));
        assert!(i.is_member(sym("person"), Oid(1)));
        assert!(i.o_value(Oid(1)).is_some());
    }

    #[test]
    fn contains_fact_matches_partial_attribute_sets() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John")), ("school", Value::str("PdM"))]),
        );
        assert!(i.contains_fact(
            &s,
            &Fact::Class {
                class: sym("person"),
                oid: Oid(1),
                value: Value::tuple([("name", Value::str("John"))]),
            }
        ));
        assert!(!i.contains_fact(
            &s,
            &Fact::Class {
                class: sym("person"),
                oid: Oid(1),
                value: Value::tuple([("name", Value::str("Mary"))]),
            }
        ));
    }

    #[test]
    fn compose_is_right_biased_on_o_values() {
        let s = schema();
        let mut g1 = Instance::new();
        g1.insert_object(
            &s,
            sym("person"),
            Oid(1),
            Value::tuple([("name", Value::str("Old"))]),
        );
        g1.insert_assoc(sym("advises"), Value::tuple([("who", Value::Oid(Oid(1)))]));
        let mut g2 = Instance::new();
        g2.insert_object(
            &s,
            sym("person"),
            Oid(1),
            Value::tuple([("name", Value::str("New"))]),
        );
        let c = g1.compose(&g2);
        assert_eq!(
            c.o_value(Oid(1)).unwrap().field(sym("name")),
            Some(&Value::str("New"))
        );
        // ρ is unioned.
        assert_eq!(c.assoc_len(sym("advises")), 1);
        // Left-biased direction keeps the old value.
        let c2 = g2.compose(&g1);
        assert_eq!(
            c2.o_value(Oid(1)).unwrap().field(sym("name")),
            Some(&Value::str("Old"))
        );
    }

    #[test]
    fn validate_catches_dangling_and_nil_references() {
        let s = schema();
        let mut i = Instance::new();
        // Dangling oid in an association.
        i.insert_assoc(sym("advises"), Value::tuple([("who", Value::Oid(Oid(9)))]));
        let errs = i.validate(&s).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::ReferentialViolation(_))));

        // Nil in an association is also illegal.
        let mut i2 = Instance::new();
        i2.insert_assoc(sym("advises"), Value::tuple([("who", Value::Nil)]));
        let errs2 = i2.validate(&s).unwrap_err();
        assert!(errs2
            .iter()
            .any(|e| matches!(e, ModelError::ReferentialViolation(_))));
    }

    #[test]
    fn validate_accepts_wellformed_instance() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("person"),
            Oid(1),
            Value::tuple([("name", Value::str("Ceri"))]),
        );
        i.insert_assoc(sym("advises"), Value::tuple([("who", Value::Oid(Oid(1)))]));
        i.validate(&s).expect("well-formed instance validates");
    }

    #[test]
    fn fact_enumeration_is_deterministic_and_projected() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John")), ("school", Value::str("PdM"))]),
        );
        let facts = i.facts(&s);
        // One fact for person, one for student.
        assert_eq!(facts.len(), 2);
        assert_eq!(facts, i.facts(&s));
    }

    #[test]
    fn isomorphic_detects_renamed_oids() {
        let s = schema();
        let mut a = Instance::new();
        a.insert_object(
            &s,
            sym("person"),
            Oid(10),
            Value::tuple([("name", Value::str("X"))]),
        );
        let mut b = Instance::new();
        b.insert_object(
            &s,
            sym("person"),
            Oid(99),
            Value::tuple([("name", Value::str("X"))]),
        );
        assert!(a.isomorphic(&s, &b));
        let mut c = Instance::new();
        c.insert_object(
            &s,
            sym("person"),
            Oid(99),
            Value::tuple([("name", Value::str("Y"))]),
        );
        assert!(!a.isomorphic(&s, &c));
    }

    #[test]
    fn function_extensions_behave_as_sets() {
        let mut i = Instance::new();
        let f = sym("desc");
        assert!(i.insert_member(f, vec![Value::Int(1)], Value::Int(2)));
        assert!(!i.insert_member(f, vec![Value::Int(1)], Value::Int(2)));
        assert!(i.fun_contains(f, &[Value::Int(1)], &Value::Int(2)));
        assert_eq!(
            i.fun_value(f, &[Value::Int(1)]),
            Value::set([Value::Int(2)])
        );
        assert_eq!(i.fun_value(f, &[Value::Int(7)]), Value::empty_set());
        assert!(i.remove_member(f, &[Value::Int(1)], &Value::Int(2)));
        assert!(!i.remove_member(f, &[Value::Int(1)], &Value::Int(2)));
    }

    #[test]
    fn arg_index_probes_and_follows_mutations() {
        let mut i = Instance::new();
        let a = sym("edge");
        let (fa, fb) = (sym("a"), sym("b"));
        for (x, y) in [(1, 2), (1, 3), (2, 3)] {
            i.insert_assoc(
                a,
                Value::tuple([("a", Value::Int(x)), ("b", Value::Int(y))]),
            );
        }
        let bucket = i.tuples_matching(a, fa, &Value::Int(1)).unwrap();
        assert_eq!(bucket.len(), 2);
        assert!(bucket.iter().all(|t| t.field(fa) == Some(&Value::Int(1))));
        assert!(i.tuples_matching(a, fa, &Value::Int(9)).is_none());
        let b3 = i.tuples_matching(a, fb, &Value::Int(3)).unwrap();
        assert_eq!(b3.len(), 2);

        // Association updates edit the built indexes in place: both stay
        // built and a bucket the update does not touch is the same
        // allocation, not a rebuilt copy.
        let kept = |i: &Instance, label: Sym, key: i64, before: &Bucket| {
            assert!(built_index(i, a, fa).is_some() && built_index(i, a, fb).is_some());
            let now = &built_index(i, a, label).unwrap()[&Value::Int(key)];
            assert!(Arc::ptr_eq(before, now), "bucket {label}={key} was rebuilt");
        };
        i.insert_assoc(
            a,
            Value::tuple([("a", Value::Int(1)), ("b", Value::Int(9))]),
        );
        kept(&i, fb, 3, &b3);
        assert_eq!(i.tuples_matching(a, fa, &Value::Int(1)).unwrap().len(), 3);
        // A bucket handed out earlier keeps the state it was read at.
        assert_eq!(bucket.len(), 2);
        i.remove_assoc(
            a,
            &Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        kept(&i, fb, 3, &b3);
        let a1 = i.tuples_matching(a, fa, &Value::Int(1)).unwrap();
        assert_eq!(a1.len(), 2);
        // Emptying a bucket drops its key: the probe is a miss again.
        i.remove_assoc(
            a,
            &Value::tuple([("a", Value::Int(2)), ("b", Value::Int(3))]),
        );
        kept(&i, fa, 1, &a1);
        assert!(i.tuples_matching(a, fa, &Value::Int(2)).is_none());
    }

    #[test]
    fn other_mutations_leave_built_indexes_alone() {
        let s = schema();
        let mut i = Instance::new();
        let a = sym("edge");
        i.insert_assoc(
            a,
            Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        let before = i.tuples_matching(a, sym("a"), &Value::Int(1)).unwrap();
        i.insert_object(
            &s,
            sym("person"),
            Oid(1),
            Value::tuple([("name", Value::str("Ceri"))]),
        );
        i.insert_member(sym("f"), vec![Value::Int(1)], Value::Int(2));
        i.insert_assoc(sym("advises"), Value::tuple([("who", Value::Oid(Oid(1)))]));
        i.remove_object(&s, sym("person"), Oid(1));
        let after = i.tuples_matching(a, sym("a"), &Value::Int(1)).unwrap();
        assert!(Arc::ptr_eq(&before, &after), "the bucket was rebuilt");
    }

    #[test]
    fn arg_index_normalizes_tagged_tuples_to_oids() {
        let mut i = Instance::new();
        let a = sym("likes");
        let who = sym("who");
        // A tuple whose `who` field is a tagged class tuple must be found
        // when probed with the bare oid (and vice versa).
        let tagged = Value::tuple([
            (crate::value::SELF_LABEL, Value::Oid(Oid(7))),
            ("name", Value::str("x")),
        ]);
        i.insert_assoc(a, Value::tuple([("who", tagged.clone())]));
        i.insert_assoc(a, Value::tuple([("who", Value::Oid(Oid(8)))]));
        assert_eq!(tagged.index_key(), Value::Oid(Oid(7)));
        assert_eq!(
            i.tuples_matching(a, who, &Value::Oid(Oid(7)))
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            i.tuples_matching(a, who, &Value::Oid(Oid(8)))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn clone_and_eq_ignore_the_index_cache() {
        let mut i = Instance::new();
        let a = sym("edge");
        i.insert_assoc(
            a,
            Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]),
        );
        // Warm the cache, then clone: the clone starts cold but compares
        // equal and serves identical probes.
        let _ = i.tuples_matching(a, sym("a"), &Value::Int(1));
        let j = i.clone();
        assert_eq!(i, j);
        assert_eq!(
            j.tuples_matching(a, sym("a"), &Value::Int(1))
                .unwrap()
                .len(),
            1
        );
    }

    /// An instance with an extent of every kind: two students (π and ν),
    /// two associations and a data function.
    fn populated(s: &Schema) -> Instance {
        let mut i = Instance::new();
        for (oid, name) in [(1, "John"), (2, "Mary")] {
            i.insert_object(
                s,
                sym("student"),
                Oid(oid),
                Value::tuple([("name", Value::str(name)), ("school", Value::str("PdM"))]),
            );
        }
        for (x, y) in [(1, 2), (1, 3), (2, 3)] {
            i.insert_assoc(
                sym("edge"),
                Value::tuple([("a", Value::Int(x)), ("b", Value::Int(y))]),
            );
        }
        i.insert_assoc(sym("advises"), Value::tuple([("who", Value::Oid(Oid(1)))]));
        i.insert_member(sym("f"), vec![Value::Int(1)], Value::Int(2));
        i
    }

    fn same_extent<T>(a: Option<&Arc<T>>, b: Option<&Arc<T>>) -> bool {
        matches!((a, b), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Each extent of `a`, named, and whether `b` holds it in the same
    /// allocation.
    fn sharing(a: &Instance, b: &Instance) -> BTreeMap<String, bool> {
        let mut out = BTreeMap::from([("nu".to_owned(), Arc::ptr_eq(&a.nu, &b.nu))]);
        for k in a.pi.keys() {
            out.insert(format!("pi {k}"), same_extent(a.pi.get(k), b.pi.get(k)));
        }
        for k in a.rho.keys() {
            out.insert(format!("rho {k}"), same_extent(a.rho.get(k), b.rho.get(k)));
        }
        for k in a.fun.keys() {
            out.insert(format!("fun {k}"), same_extent(a.fun.get(k), b.fun.get(k)));
        }
        out
    }

    #[test]
    fn clones_share_every_extent() {
        let s = schema();
        let i = populated(&s);
        let j = i.clone();
        let shared = sharing(&i, &j);
        assert_eq!(shared.len(), 6, "{shared:?}");
        assert!(shared.values().all(|&b| b), "{shared:?}");
        assert!(i.shares_extent(&j, sym("edge")) && j.shares_extent(&i, sym("advises")));
        assert!(!i.shares_extent(&populated(&s), sym("edge")));
        assert!(!i.shares_extent(&j, sym("absent")));
    }

    #[test]
    fn a_write_unshares_only_its_extent() {
        let s = schema();
        let edge = sym("edge");
        type Write = fn(&Schema, &mut Instance) -> bool;
        let writes: [(&str, Write); 4] = [
            ("rho edge", |_, i| {
                i.insert_assoc(
                    sym("edge"),
                    Value::tuple([("a", Value::Int(1)), ("b", Value::Int(9))]),
                )
            }),
            ("pi student", |s, i| {
                i.remove_object(s, sym("student"), Oid(1))
            }),
            ("nu", |s, i| {
                i.insert_object(
                    s,
                    sym("person"),
                    Oid(1),
                    Value::tuple([("name", Value::str("Jon"))]),
                )
            }),
            ("fun f", |_, i| {
                i.insert_member(sym("f"), vec![Value::Int(1)], Value::Int(3))
            }),
        ];
        for (written, write) in writes {
            for write_the_clone in [true, false] {
                let source = populated(&s);
                let clone = source.clone();
                let (mut writer, other) = if write_the_clone {
                    (clone, source)
                } else {
                    (source, clone)
                };
                // Both sides carry built indexes before the write.
                for side in [&writer, &other] {
                    side.tuples_matching(edge, sym("a"), &Value::Int(1));
                }
                let index_before = built_index(&other, edge, sym("a")).unwrap();
                assert!(write(&s, &mut writer), "{written}");
                let shared = sharing(&other, &writer);
                for (extent, is_shared) in &shared {
                    assert_eq!(*is_shared, extent != written, "{written}: {shared:?}");
                }
                // The other side reads as before, indexes included.
                assert_eq!(other, populated(&s), "{written}");
                let index_after = built_index(&other, edge, sym("a")).unwrap();
                assert_eq!(index_after, index_before, "{written}");
                for (key, bucket) in &index_before {
                    assert!(Arc::ptr_eq(bucket, &index_after[key]), "{written}");
                }
                assert_ne!(writer, other, "{written}");
            }
        }
    }

    /// A duplicate insert or an absent removal on every kind of extent.
    fn writes_that_change_nothing(s: &Schema, i: &mut Instance) {
        let (edge, f) = (sym("edge"), sym("f"));
        let present = Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let absent = Value::tuple([("a", Value::Int(7)), ("b", Value::Int(7))]);
        assert!(!i.insert_assoc(edge, present));
        let advised = Value::tuple([("who", Value::Oid(Oid(1)))]);
        assert!(!i.insert_assoc(sym("advises"), advised));
        assert!(!i.remove_assoc(edge, &absent));
        assert!(!i.remove_assoc(sym("advises"), &absent));
        assert!(!i.insert_object(
            s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John"))]),
        ));
        assert!(!i.remove_object(s, sym("person"), Oid(9)));
        assert!(!i.insert_member(f, vec![Value::Int(1)], Value::Int(2)));
        assert!(!i.remove_member(f, &[Value::Int(1)], &Value::Int(9)));
        assert!(!i.remove_member(f, &[Value::Int(9)], &Value::Int(2)));
    }

    #[test]
    fn writes_that_change_nothing_leave_extents_shared() {
        let s = schema();
        for write_the_clone in [true, false] {
            let mut source = populated(&s);
            let mut clone = source.clone();
            let writer = if write_the_clone {
                &mut clone
            } else {
                &mut source
            };
            // `edge` is indexed on the writer, `advises` is not.
            writer.tuples_matching(sym("edge"), sym("a"), &Value::Int(1));
            writes_that_change_nothing(&s, writer);
            let shared = sharing(&source, &clone);
            assert!(shared.values().all(|&b| b), "{shared:?}");
        }
    }

    #[test]
    fn emptied_extents_compare_equal_to_absent_ones() {
        let s = schema();
        let (edge, f) = (sym("edge"), sym("f"));
        let t = Value::tuple([("a", Value::Int(1)), ("b", Value::Int(2))]);
        let mut i = Instance::new();
        i.insert_assoc(edge, t.clone());
        // An index over the emptied association stays coherent: a miss,
        // then a hit once the association refills.
        assert!(i.tuples_matching(edge, sym("a"), &Value::Int(1)).is_some());
        assert!(i.remove_assoc(edge, &t));
        assert_eq!(i, Instance::new());
        assert!(i.tuples_matching(edge, sym("a"), &Value::Int(1)).is_none());
        i.insert_assoc(edge, t.clone());
        assert_eq!(
            i.tuples_matching(edge, sym("a"), &Value::Int(1))
                .map(|b| b.len()),
            Some(1)
        );
        assert!(i.remove_assoc(edge, &t));

        i.insert_object(
            &s,
            sym("student"),
            Oid(1),
            Value::tuple([("name", Value::str("John")), ("school", Value::str("PdM"))]),
        );
        assert!(i.remove_object(&s, sym("person"), Oid(1)));
        assert_eq!(i, Instance::new());

        i.insert_member(f, vec![Value::Int(1)], Value::Int(2));
        assert!(i.remove_member(f, &[Value::Int(1)], &Value::Int(2)));
        assert_eq!(i, Instance::new());
        assert_eq!(i.fact_count(), 0);
    }

    #[test]
    fn fun_args_lists_only_non_empty_arguments() {
        let f = sym("f");
        let mut i = Instance::new();
        i.insert_member(f, vec![Value::Int(1)], Value::Int(2));
        i.insert_member(f, vec![Value::Int(1)], Value::Int(3));
        i.insert_member(f, vec![Value::Int(4)], Value::Int(5));
        i.remove_member(f, &[Value::Int(1)], &Value::Int(2));
        assert_eq!(i.fun_args(f).count(), 2);
        i.remove_member(f, &[Value::Int(1)], &Value::Int(3));
        let args: Vec<&Vec<Value>> = i.fun_args(f).collect();
        assert_eq!(args, [&vec![Value::Int(4)]]);
        i.remove_member(f, &[Value::Int(4)], &Value::Int(5));
        assert!(i.fun_args(f).next().is_none());
    }

    #[test]
    fn oid_gen_resumes_past_existing_oids() {
        let s = schema();
        let mut i = Instance::new();
        i.insert_object(
            &s,
            sym("person"),
            Oid(41),
            Value::tuple([("name", Value::str("Z"))]),
        );
        let mut g = i.oid_gen();
        assert_eq!(g.fresh(), Oid(42));
    }

    /// The index of `(assoc, label)` if one is built.
    fn built_index(i: &Instance, assoc: Sym, label: Sym) -> Option<ArgIndex> {
        let cache = i.cache.read().unwrap();
        cache.by_assoc.get(&assoc)?.get(&label).cloned()
    }

    /// The index a first probe builds on a clone of `i`.
    fn fresh_index(i: &Instance, assoc: Sym, label: Sym) -> ArgIndex {
        let cold = i.clone();
        assert!(
            built_index(&cold, assoc, label).is_none(),
            "clones start cold"
        );
        cold.tuples_matching(assoc, label, &Value::Nil);
        built_index(&cold, assoc, label).unwrap()
    }

    /// Each bucket of each built index, in iteration order.
    fn bucket_orders(i: &Instance, assoc: Sym, labels: [Sym; 2]) -> Vec<(Sym, Value, Vec<Value>)> {
        let mut out = Vec::new();
        for label in labels {
            let Some(index) = built_index(i, assoc, label) else {
                continue;
            };
            let mut keys: Vec<&Value> = index.keys().collect();
            keys.sort();
            for k in keys {
                out.push((label, k.clone(), index[k].iter().cloned().collect()));
            }
        }
        out
    }

    /// Apply one step of the interleaving below.
    fn step(s: &Schema, i: &mut Instance, (op, x, y): (u8, i64, i64)) {
        let (edge, f) = (sym("edge"), sym("f"));
        let t = Value::tuple([("a", Value::Int(x)), ("b", Value::Int(y))]);
        match op {
            0 | 1 => {
                i.insert_assoc(edge, t);
            }
            2 => {
                i.remove_assoc(edge, &t);
            }
            3 => {
                i.insert_object(
                    s,
                    sym("person"),
                    Oid(x as u64),
                    Value::tuple([("name", Value::str(format!("n{y}")))]),
                );
                i.insert_member(f, vec![Value::Int(x)], Value::Int(y));
            }
            4 => {
                i.remove_member(f, &[Value::Int(x)], &Value::Int(y));
                i.remove_object(s, sym("person"), Oid(y as u64));
            }
            5 => {
                let mut right = Instance::new();
                right.insert_assoc(edge, t);
                *i = i.compose(&right);
            }
            _ => {
                let label = if y % 2 == 0 { sym("a") } else { sym("b") };
                i.tuples_matching(edge, label, &Value::Int(x));
            }
        }
    }

    /// One side of a forked interleaving: the instance under test, a
    /// reference that took the same steps and was never cloned, and which
    /// of the instance's `edge` indexes are built.
    struct Side {
        live: Instance,
        reference: Instance,
        built: [bool; 2],
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Built indexes follow every mutation exactly: an index, once
        /// built, stays built until a `compose`; after each step every built
        /// index holds the buckets a first probe would build on a clone; and
        /// a reference taking the same steps reproduces every bucket's
        /// iteration order. At step `fork` the instance is cloned and the
        /// remaining steps alternate between the two sides; the clone starts
        /// cold, so its reference takes the steps before the fork without
        /// their probes, and neither side's writes show through the other.
        #[test]
        fn maintained_indexes_match_fresh_builds(
            ops in proptest::collection::vec((0u8..8, 0i64..4, 0i64..4), 0..48),
            fork in 0usize..64
        ) {
            let s = schema();
            let (edge, labels) = (sym("edge"), [sym("a"), sym("b")]);
            let mut sides = vec![Side {
                live: Instance::new(),
                reference: Instance::new(),
                built: [false; 2],
            }];
            for (k, &o) in ops.iter().enumerate() {
                if k == fork {
                    let mut reference = Instance::new();
                    for &p in ops[..k].iter().filter(|p| p.0 < 6) {
                        step(&s, &mut reference, p);
                    }
                    let live = sides[0].live.clone();
                    sides.push(Side { live, reference, built: [false; 2] });
                }
                let at = k.saturating_sub(fork) % sides.len();
                let side = &mut sides[at];
                step(&s, &mut side.live, o);
                step(&s, &mut side.reference, o);
                match o {
                    (5, ..) => side.built = [false; 2],
                    (6.., _, y) => side.built[(y % 2) as usize] = true,
                    _ => {}
                }
                for side in &sides {
                    proptest::prop_assert_eq!(&side.live, &side.reference);
                    proptest::prop_assert_eq!(
                        labels.map(|l| built_index(&side.live, edge, l).is_some()),
                        side.built
                    );
                    for label in labels {
                        if let Some(index) = built_index(&side.live, edge, label) {
                            proptest::prop_assert_eq!(&index, &fresh_index(&side.live, edge, label));
                        }
                    }
                    proptest::prop_assert_eq!(
                        bucket_orders(&side.live, edge, labels),
                        bucket_orders(&side.reference, edge, labels)
                    );
                }
            }
        }
    }
}
