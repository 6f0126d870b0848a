//! Whole-program abstract-interpretation flow analysis.
//!
//! A bottom-up abstract interpretation over the predicate dependency graph
//! ([`super::graph::DepGraph`]) in SCC order, inferring for every predicate
//! argument an abstract value in a *product domain*:
//!
//! * a **class lattice** element over the schema's isa hierarchy
//!   ([`ClassElem`]: ⊤ / a class and its refinements / ⊥),
//! * a **finite constant set** with widening to ⊤ ([`ConstSet`]),
//! * an **integer interval** for numeric positions ([`Interval`], with
//!   `None` bounds meaning *unknown*, not `i64::MIN`/`MAX` — so arithmetic
//!   over unconstrained values never manufactures overflow claims),
//! * a **cardinality band** per predicate ([`Card`]: empty / ≤1 / many).
//!
//! Transfer through a rule body is a left-to-right pass: positive literals
//! *meet* the predicate's summary (and the schema's static attribute types)
//! into the variable environment, builtin comparisons refine intervals and
//! constant sets, arithmetic evaluates interval-to-interval with i128
//! overflow checking, and stratified negation is the identity (sound for an
//! over-approximation: `not p` never adds values). The per-SCC fixpoint
//! widens growing interval bounds to unknown and oversized constant sets to
//! ⊤ after `WIDEN_AFTER` rounds, which bounds the chain height and makes
//! termination immediate; growth events inside a cyclic SCC are recorded for
//! L011.
//!
//! From the fixpoint summaries four lints are derived:
//!
//! * **L008** — a derived predicate is *guaranteed empty*: every deriving
//!   rule's body meets to ⊥ (incompatible class refinements, disjoint
//!   constant sets, or a constant outside the inferred values);
//! * **L009** — a comparison or equality guard is statically always false
//!   (the rule can never fire) or always true (the guard is dead);
//! * **L010** — a `+`/`-`/`*` chain may exceed `i64` given the inferred
//!   finite operand bounds (checked in `i128`);
//! * **L011** — module-cascade non-termination risk: a predicate in a
//!   recursive SCC whose inferred interval kept growing until widening —
//!   the signature of an unbounded counter chain.
//!
//! The same [`FlowSummaries`] feed the compiled planner
//! (`logres-engine::plan::compile_program_with`): statically-empty rules are
//! pruned, joins are ordered by cardinality band, and semijoin guards whose
//! value set provably covers the probe side are skipped — surfaced in
//! EXPLAIN as `pruned-by-flow` / `ordered-by-flow` annotations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use logres_model::{Field, Instance, PredKind, Schema, Sym, TypeDesc, Value};

use super::diag::Diagnostic;
use super::graph::DepGraph;
use crate::ast::{Atom, BinOp, Builtin, GroundFact, PredArg, Program, Rule, RuleSet, Term};
use crate::error::Span;

/// Rounds of plain (un-widened) iteration before widening kicks in. Two free
/// rounds let short chains (seed → one derivation step) reach their exact
/// fixpoint before bounds are thrown away.
const WIDEN_AFTER: usize = 2;

/// Constant sets larger than this widen to ⊤ when they *grow during the
/// fixpoint*. Seeds may carry up to [`EXACT_CAP`] values.
const CONST_CAP: usize = 8;

/// Extensional seeds keep exact constant sets up to this many values —
/// semijoin-skip needs the full guard column, and guards are small.
const EXACT_CAP: usize = 64;

/// Hard backstop on fixpoint rounds per SCC; widening converges far earlier.
const MAX_ROUNDS: usize = 64;

// ---------------------------------------------------------------------------
// The product domain
// ---------------------------------------------------------------------------

/// Cardinality band of a predicate's extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Card {
    /// Statically empty.
    #[default]
    Empty,
    /// At most one tuple.
    AtMostOne,
    /// Unbounded.
    Many,
}

impl Card {
    /// Least upper bound.
    pub fn join(self, other: Card) -> Card {
        self.max(other)
    }

    /// Cardinality of a conjunction: one empty conjunct empties the body; a
    /// product of ≤1 factors stays ≤1.
    pub fn product(self, other: Card) -> Card {
        match (self, other) {
            (Card::Empty, _) | (_, Card::Empty) => Card::Empty,
            (Card::AtMostOne, Card::AtMostOne) => Card::AtMostOne,
            _ => Card::Many,
        }
    }

    /// Cardinality of a union (rules deriving the same head add up).
    pub fn union(self, other: Card) -> Card {
        match (self, other) {
            (Card::Empty, c) | (c, Card::Empty) => c,
            _ => Card::Many,
        }
    }
}

/// Integer interval; `None` bounds mean *unknown* (unconstrained), not the
/// `i64` extremes — arithmetic over unknown bounds makes no overflow claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Interval {
    /// Lower bound, if known.
    pub lo: Option<i64>,
    /// Upper bound, if known.
    pub hi: Option<i64>,
}

impl Interval {
    /// The unconstrained interval.
    pub fn top() -> Interval {
        Interval { lo: None, hi: None }
    }

    /// The singleton interval.
    pub fn point(k: i64) -> Interval {
        Interval {
            lo: Some(k),
            hi: Some(k),
        }
    }

    /// Contradictory bounds (only possible after a meet).
    pub fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    /// Greatest lower bound: intersect the bounds.
    pub fn meet(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Least upper bound: hull of the bounds (an unknown side wins).
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Membership (an unknown side admits everything).
    pub fn admits(&self, k: i64) -> bool {
        self.lo.is_none_or(|l| l <= k) && self.hi.is_none_or(|h| k <= h)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = |o: Option<i64>| o.map_or_else(|| "?".to_string(), |k| k.to_string());
        write!(f, "[{}, {}]", b(self.lo), b(self.hi))
    }
}

/// Element of the class lattice over the schema's isa hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClassElem {
    /// Any value (also: not an oid position).
    Any,
    /// An oid of this class or one of its refinements.
    Is(Sym),
    /// No value: incompatible refinements met.
    Bottom,
}

impl ClassElem {
    /// Greatest lower bound under the refinement order. Two classes with no
    /// common isa-descendant (checked over the whole schema, so multiple
    /// inheritance is honored) meet to ⊥.
    pub fn meet(self, other: ClassElem, schema: &Schema) -> ClassElem {
        match (self, other) {
            (ClassElem::Bottom, _) | (_, ClassElem::Bottom) => ClassElem::Bottom,
            (ClassElem::Any, c) | (c, ClassElem::Any) => c,
            (ClassElem::Is(a), ClassElem::Is(b)) => {
                if a == b || schema.isa_holds(b, a) {
                    ClassElem::Is(b)
                } else if schema.isa_holds(a, b) {
                    ClassElem::Is(a)
                } else if schema
                    .classes()
                    .any(|c| schema.isa_holds(c, a) && schema.isa_holds(c, b))
                {
                    // A common refinement exists; keep the left operand (any
                    // member of both classes is a member of `a`). Sound, and
                    // deterministic without electing a canonical subclass.
                    ClassElem::Is(a)
                } else {
                    ClassElem::Bottom
                }
            }
        }
    }

    /// Least upper bound: the refining side generalizes to the refined one;
    /// unrelated classes generalize to ⊤.
    pub fn join(self, other: ClassElem, schema: &Schema) -> ClassElem {
        match (self, other) {
            (ClassElem::Bottom, c) | (c, ClassElem::Bottom) => c,
            (ClassElem::Any, _) | (_, ClassElem::Any) => ClassElem::Any,
            (ClassElem::Is(a), ClassElem::Is(b)) => {
                if a == b || schema.isa_holds(a, b) {
                    ClassElem::Is(b)
                } else if schema.isa_holds(b, a) {
                    ClassElem::Is(a)
                } else {
                    ClassElem::Any
                }
            }
        }
    }
}

/// Finite constant set with widening to ⊤.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConstSet {
    /// Any value.
    Top,
    /// The concrete values are contained in `vals`; `exact` additionally
    /// asserts *equality* (only extensional seeds untouched by any feasible
    /// rule carry it — the license for semijoin-skip).
    Finite {
        /// Over-approximating value set.
        vals: BTreeSet<Value>,
        /// Whether `vals` is exactly the stored column.
        exact: bool,
    },
}

impl ConstSet {
    /// The singleton set.
    pub fn point(v: Value) -> ConstSet {
        ConstSet::Finite {
            vals: std::iter::once(v).collect(),
            exact: false,
        }
    }

    /// Greatest lower bound: intersection (exactness does not survive a
    /// meet — it is a seed-only property — *including* a meet with ⊤,
    /// where the surviving value set may over-approximate the meet's true
    /// extension, e.g. when the other side was narrowed by negation).
    pub fn meet(&self, other: &ConstSet) -> ConstSet {
        match (self, other) {
            (ConstSet::Top, ConstSet::Top) => ConstSet::Top,
            (ConstSet::Top, ConstSet::Finite { vals, .. })
            | (ConstSet::Finite { vals, .. }, ConstSet::Top) => ConstSet::Finite {
                vals: vals.clone(),
                exact: false,
            },
            (ConstSet::Finite { vals: a, .. }, ConstSet::Finite { vals: b, .. }) => {
                ConstSet::Finite {
                    vals: a.intersection(b).cloned().collect(),
                    exact: false,
                }
            }
        }
    }

    /// Least upper bound: union, widened to ⊤ past `EXACT_CAP`.
    pub fn join(&self, other: &ConstSet) -> ConstSet {
        match (self, other) {
            (ConstSet::Top, _) | (_, ConstSet::Top) => ConstSet::Top,
            (ConstSet::Finite { vals: a, exact: ea }, ConstSet::Finite { vals: b, exact: eb }) => {
                let vals: BTreeSet<Value> = a.union(b).cloned().collect();
                if vals.len() > EXACT_CAP {
                    ConstSet::Top
                } else {
                    ConstSet::Finite {
                        vals,
                        exact: *ea && *eb,
                    }
                }
            }
        }
    }

    /// Membership (⊤ admits everything).
    pub fn admits(&self, v: &Value) -> bool {
        match self {
            ConstSet::Top => true,
            ConstSet::Finite { vals, .. } => vals.contains(v),
        }
    }

    fn singleton(&self) -> Option<&Value> {
        match self {
            ConstSet::Finite { vals, .. } if vals.len() == 1 => vals.iter().next(),
            _ => None,
        }
    }
}

/// One abstract value: the product of all four components.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AbsVal {
    /// Class lattice element (oid positions).
    pub class: ClassElem,
    /// Finite constant set or ⊤.
    pub consts: ConstSet,
    /// Integer interval (meaningful when `is_int`).
    pub interval: Interval,
    /// Whether the value is known to be an integer.
    pub is_int: bool,
}

impl AbsVal {
    /// The no-information element.
    pub fn top() -> AbsVal {
        AbsVal {
            class: ClassElem::Any,
            consts: ConstSet::Top,
            interval: Interval::top(),
            is_int: false,
        }
    }

    fn is_top(&self) -> bool {
        *self == AbsVal::top()
    }

    /// The abstraction of a single ground value.
    pub fn of_value(v: &Value) -> AbsVal {
        let (interval, is_int) = match v {
            Value::Int(k) => (Interval::point(*k), true),
            _ => (Interval::top(), false),
        };
        AbsVal {
            class: ClassElem::Any,
            consts: ConstSet::point(v.clone()),
            interval,
            is_int,
        }
    }

    /// ⊥ in any component empties the whole product.
    pub fn is_bottom(&self) -> bool {
        self.class == ClassElem::Bottom
            || matches!(&self.consts, ConstSet::Finite { vals, .. } if vals.is_empty())
            || (self.is_int && self.interval.is_empty())
    }

    /// Greatest lower bound, followed by the reduction step that lets the
    /// components inform each other (intervals drop excluded constants,
    /// all-integer constant sets tighten the interval).
    pub fn meet(&self, other: &AbsVal, schema: &Schema) -> AbsVal {
        let mut m = AbsVal {
            class: self.class.meet(other.class, schema),
            consts: self.consts.meet(&other.consts),
            interval: self.interval.meet(other.interval),
            is_int: self.is_int || other.is_int,
        };
        m.reduce();
        m
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal, schema: &Schema) -> AbsVal {
        AbsVal {
            class: self.class.join(other.class, schema),
            consts: self.consts.join(&other.consts),
            interval: self.interval.join(other.interval),
            is_int: self.is_int && other.is_int,
        }
    }

    fn reduce(&mut self) {
        let interval = self.interval;
        let is_int = self.is_int;
        if let ConstSet::Finite { vals, exact } = &mut self.consts {
            let before = vals.len();
            vals.retain(|v| match v {
                Value::Int(k) => interval.admits(*k),
                _ => !is_int,
            });
            if vals.len() != before {
                // A narrowed set no longer equals the stored column.
                *exact = false;
            }
            if !vals.is_empty() && vals.iter().all(|v| matches!(v, Value::Int(_))) {
                let ints: Vec<i64> = vals
                    .iter()
                    .map(|v| match v {
                        Value::Int(k) => *k,
                        _ => unreachable!(),
                    })
                    .collect();
                self.is_int = true;
                self.interval = interval.meet(Interval {
                    lo: ints.iter().min().copied(),
                    hi: ints.iter().max().copied(),
                });
            }
        }
    }

    /// Does the abstraction admit this concrete value? (The class component
    /// is skipped: oid membership needs an instance.)
    pub fn admits_value(&self, v: &Value) -> bool {
        if !self.consts.admits(v) {
            return false;
        }
        match v {
            Value::Int(k) => self.interval.admits(*k),
            _ => !self.is_int,
        }
    }

    /// The integer view, if the value is known numeric: the interval meet
    /// the hull of any all-integer constant set.
    fn int_view(&self) -> Option<Interval> {
        if self.is_int {
            Some(self.interval)
        } else {
            None
        }
    }

    /// The single value this abstraction is pinned to, if any.
    fn singleton(&self) -> Option<Value> {
        if let Some(v) = self.consts.singleton() {
            return Some(v.clone());
        }
        if let (Some(l), Some(h)) = (self.interval.lo, self.interval.hi) {
            if self.is_int && l == h {
                return Some(Value::Int(l));
            }
        }
        None
    }
}

/// The fixpoint summary of one predicate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredSummary {
    /// Cardinality band of the extension.
    pub card: Card,
    /// Per-label abstract values; an absent label is ⊤.
    pub args: BTreeMap<Sym, AbsVal>,
}

impl PredSummary {
    fn arg(&self, label: Sym) -> AbsVal {
        self.args.get(&label).cloned().unwrap_or_else(AbsVal::top)
    }

    fn join_args(&mut self, other: &BTreeMap<Sym, AbsVal>, schema: &Schema) {
        let labels: BTreeSet<Sym> = self.args.keys().chain(other.keys()).copied().collect();
        for l in labels {
            let a = self.arg(l);
            let b = other.get(&l).cloned().unwrap_or_else(AbsVal::top);
            let j = a.join(&b, schema);
            if j.is_top() {
                self.args.remove(&l);
            } else {
                self.args.insert(l, j);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Events recorded for the lints and the planner
// ---------------------------------------------------------------------------

/// Verdict of an abstractly-evaluated guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    AlwaysTrue,
    AlwaysFalse,
}

#[derive(Debug, Clone)]
struct GuardEvent {
    span: Span,
    rendered: String,
    verdict: Verdict,
}

#[derive(Debug, Clone)]
struct ContradictionEvent {
    rule: usize,
    span: Span,
    detail: String,
}

#[derive(Debug, Clone)]
struct OverflowEvent {
    span: Span,
    detail: String,
}

/// The result of the whole-program flow analysis: per-predicate summaries
/// plus the rule-level facts the planner and the lints consume.
#[derive(Debug, Clone, Default)]
pub struct FlowSummaries {
    /// Per-predicate fixpoint summaries (BTreeMap: deterministic order).
    pub preds: BTreeMap<Sym, PredSummary>,
    /// Rules (by index into the rule set) whose bodies are statically
    /// infeasible, with a human-readable reason — sound to prune.
    pub empty_rules: BTreeMap<usize, String>,
    /// Per rule, body-literal indices whose semijoin guard is inferred
    /// total: the probe side's values provably lie inside the guard's exact
    /// stored column, so the reducer can be skipped.
    pub skip_guards: BTreeMap<usize, BTreeSet<usize>>,
    contradictions: Vec<ContradictionEvent>,
    guards: Vec<GuardEvent>,
    overflows: Vec<OverflowEvent>,
    /// Predicates in a cyclic SCC whose interval kept growing until widening
    /// (label recorded for the message).
    grown: BTreeMap<Sym, Sym>,
}

impl FlowSummaries {
    /// Cardinality band of a predicate (absent ⇒ statically empty).
    pub fn card(&self, pred: Sym) -> Card {
        self.preds.get(&pred).map_or(Card::Empty, |s| s.card)
    }

    /// Does the summary admit this concrete tuple for `pred`? Used by the
    /// soundness differential test: every derived fact must satisfy it.
    pub fn admits(&self, pred: Sym, tuple: &Value) -> bool {
        let Some(s) = self.preds.get(&pred) else {
            return false;
        };
        if s.card == Card::Empty {
            return false;
        }
        match tuple {
            Value::Tuple(fields) => fields.iter().all(|(l, v)| {
                s.args.get(l).is_none_or(|a| {
                    // Oid fields are only constrained by the class lattice,
                    // which `admits_value` deliberately skips.
                    matches!(v, Value::Oid(_) | Value::Nil) || a.admits_value(v)
                })
            }),
            _ => true,
        }
    }
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

struct SeedAcc {
    rows: usize,
    args: BTreeMap<Sym, (BTreeSet<Value>, bool)>, // label -> (vals, overflowed cap)
}

impl SeedAcc {
    fn new() -> SeedAcc {
        SeedAcc {
            rows: 0,
            args: BTreeMap::new(),
        }
    }

    fn row<'a>(&mut self, fields: impl Iterator<Item = (Sym, &'a Value)>) {
        self.rows += 1;
        for (l, v) in fields {
            let (vals, over) = self
                .args
                .entry(l)
                .or_insert_with(|| (BTreeSet::new(), false));
            if *over {
                continue;
            }
            vals.insert(v.clone());
            if vals.len() > EXACT_CAP {
                vals.clear();
                *over = true;
            }
        }
    }

    /// Whether every column in `cols`, and every label folded so far, has
    /// overflowed the cap: from then on more rows leave the summary as it
    /// is, apart from the row count. Never, without declared columns.
    fn saturated(&self, cols: &[Field]) -> bool {
        !cols.is_empty()
            && self.args.values().all(|(_, over)| *over)
            && cols.iter().all(|c| self.args.contains_key(&c.label))
    }

    fn finish(self, schema: &Schema, pred: Sym) -> PredSummary {
        let card = match self.rows {
            0 => Card::Empty,
            1 => Card::AtMostOne,
            _ => Card::Many,
        };
        let mut args = BTreeMap::new();
        for (l, (vals, over)) in self.args {
            let mut av = static_arg_top(schema, pred, l);
            // Past the cap, only the static type information is kept.
            if !over {
                let ints: Vec<i64> = vals
                    .iter()
                    .filter_map(|v| match v {
                        Value::Int(k) => Some(*k),
                        _ => None,
                    })
                    .collect();
                if ints.len() == vals.len() && !vals.is_empty() {
                    av.is_int = true;
                    av.interval = Interval {
                        lo: ints.iter().min().copied(),
                        hi: ints.iter().max().copied(),
                    };
                }
                // Oid-valued columns vary per instance; constant sets over
                // oids would be meaningless across evaluations but are still
                // sound here (seeds describe *this* instance).
                av.consts = ConstSet::Finite { vals, exact: true };
            }
            if !av.is_top() {
                args.insert(l, av);
            }
        }
        PredSummary { card, args }
    }
}

/// Abstract seeds from a program's `facts` section.
pub fn seeds_from_facts(schema: &Schema, facts: &[GroundFact]) -> BTreeMap<Sym, PredSummary> {
    let mut accs: BTreeMap<Sym, SeedAcc> = BTreeMap::new();
    for f in facts {
        accs.entry(f.pred)
            .or_insert_with(SeedAcc::new)
            .row(f.args.iter().map(|(l, v)| (*l, v)));
    }
    accs.into_iter()
        .map(|(p, acc)| (p, acc.finish(schema, p)))
        .collect()
}

/// Abstract seeds from a live instance: every class, association, and data
/// function with stored data. This is what the compiled planner uses, so the
/// summaries describe exactly the state evaluation starts from. Rows are
/// folded in storage order: a summary (a row count, and per label a value
/// set capped at `EXACT_CAP`) does not depend on the order it saw them in.
///
/// An association's fold stops once every column of its declared type has
/// overflowed the cap, and its row count is the extension's size: past the
/// cap a column keeps only its static type, so the rest of the extension
/// cannot change the summary. (A label outside the declared type, which no
/// typechecked rule or fact can store, also stops the fold only once it has
/// overflowed, but one that first appears after the stop goes unseen.)
pub fn seeds_from_instance(schema: &Schema, inst: &Instance) -> BTreeMap<Sym, PredSummary> {
    let mut out = BTreeMap::new();
    for c in schema.classes() {
        let mut acc = SeedAcc::new();
        for o in inst.oids_of(c) {
            match inst.o_value(o) {
                Some(Value::Tuple(fields)) => acc.row(fields.iter().map(|(l, v)| (*l, v))),
                _ => acc.row(std::iter::empty()),
            }
        }
        if acc.rows > 0 {
            out.insert(c, acc.finish(schema, c));
        }
    }
    for a in schema.assocs() {
        let rows = inst.assoc_len(a);
        if rows == 0 {
            continue;
        }
        let cols = schema.attributes(a).unwrap_or_default();
        let mut acc = SeedAcc::new();
        for t in inst.tuples_of(a) {
            match t {
                Value::Tuple(fields) => acc.row(fields.iter().map(|(l, v)| (*l, v))),
                _ => acc.row(std::iter::empty()),
            }
            if acc.saturated(cols) {
                break;
            }
        }
        acc.rows = rows;
        out.insert(a, acc.finish(schema, a));
    }
    for (f, _) in schema.functions_iter() {
        if inst.fun_args(f).next().is_some() {
            out.insert(
                f,
                PredSummary {
                    card: Card::Many,
                    args: BTreeMap::new(),
                },
            );
        }
    }
    out
}

/// The static no-information element for an attribute position: the schema
/// already refines it (class references enter the class lattice, integer
/// attributes enter the interval component).
/// The seed of a *parameter relation*, such as a prepared goal's `@goal`:
/// one row whose every column is ⊤ of its declared type. The row changes
/// from run to run while the plan inferred from this seed does not, so no
/// run's value may reach the summaries: a rule pruned because one
/// constant contradicts a stored column would answer the next constant
/// wrongly. The columns are never `exact`, so no semijoin guard is skipped
/// on them. Left unseeded, the relation would read as empty and flow would
/// prune every rule that reads it.
pub fn seed_parameter(schema: &Schema, pred: Sym) -> PredSummary {
    let args = schema
        .attributes(pred)
        .unwrap_or_default()
        .iter()
        .map(|f| (f.label, static_arg_top(schema, pred, f.label)))
        .filter(|(_, av)| !av.is_top())
        .collect();
    PredSummary {
        card: Card::AtMostOne,
        args,
    }
}

fn static_arg_top(schema: &Schema, pred: Sym, label: Sym) -> AbsVal {
    let mut av = AbsVal::top();
    if let Some(fields) = schema.attributes(pred) {
        if let Some(f) = fields.iter().find(|f| f.label == label) {
            match schema.expand(&f.ty) {
                TypeDesc::Int => av.is_int = true,
                TypeDesc::Class(c) => av.class = ClassElem::Is(c),
                _ => {}
            }
        }
    }
    av
}

// ---------------------------------------------------------------------------
// Rule transfer
// ---------------------------------------------------------------------------

struct RuleFlow {
    env: BTreeMap<Sym, AbsVal>,
    card: Card,
    feasible: bool,
    reason: Option<String>,
    contradictions: Vec<(Span, String)>,
    guards: Vec<(Span, String, Verdict)>,
    overflows: Vec<(Span, String)>,
}

impl RuleFlow {
    fn meet_env(
        &mut self,
        schema: &Schema,
        v: Sym,
        av: AbsVal,
        span: Span,
        what: impl Fn() -> String,
    ) {
        let cur = self.env.get(&v).cloned().unwrap_or_else(AbsVal::top);
        if cur.is_bottom() {
            return; // already dead; avoid cascading reports
        }
        let m = cur.meet(&av, schema);
        if m.is_bottom() && !av.is_bottom() {
            self.contradictions.push((
                span,
                format!(
                    "`{v}` cannot satisfy both {} and the earlier constraints",
                    what()
                ),
            ));
            self.fail(format!(
                "binding of `{v}` meets to the empty set at {}",
                what()
            ));
        }
        self.env.insert(v, m);
    }

    fn touch(&mut self, v: Sym) {
        self.env.entry(v).or_insert_with(AbsVal::top);
    }

    fn fail(&mut self, reason: String) {
        if self.feasible {
            self.feasible = false;
            self.reason = Some(reason);
        }
    }
}

fn summary_of(preds: &BTreeMap<Sym, PredSummary>, p: Sym) -> PredSummary {
    preds.get(&p).cloned().unwrap_or_default()
}

/// Left-to-right abstract execution of one rule body (optionally hiding one
/// literal — used to compute the probe-side abstraction a semijoin guard
/// would see from the *rest* of the body).
fn transfer_rule(
    schema: &Schema,
    rule: &Rule,
    preds: &BTreeMap<Sym, PredSummary>,
    hide: Option<usize>,
) -> RuleFlow {
    let mut rf = RuleFlow {
        env: BTreeMap::new(),
        card: Card::AtMostOne,
        feasible: true,
        reason: None,
        contradictions: Vec::new(),
        guards: Vec::new(),
        overflows: Vec::new(),
    };
    for (li, lit) in rule.body.iter().enumerate() {
        if Some(li) == hide {
            continue;
        }
        match &lit.atom {
            Atom::Pred { pred, args, span } => {
                if lit.negated {
                    continue; // identity: negation never adds values
                }
                let s = summary_of(preds, *pred);
                if s.card == Card::Empty {
                    rf.fail(format!("positive literal `{pred}` is statically empty"));
                }
                rf.card = rf.card.product(s.card);
                for arg in args {
                    match arg {
                        PredArg::Labeled(l, Term::Var(v)) => {
                            let mut av = static_arg_top(schema, *pred, *l);
                            av = av.meet(&s.arg(*l), schema);
                            let (p, l) = (*pred, *l);
                            rf.meet_env(schema, *v, av, *span, move || {
                                format!("the inferred values of `{p}.{l}`")
                            });
                        }
                        PredArg::Labeled(l, Term::Const(c)) => {
                            let av = static_arg_top(schema, *pred, *l).meet(&s.arg(*l), schema);
                            if !av.admits_value(c) {
                                rf.contradictions.push((
                                    *span,
                                    format!(
                                        "constant `{c}` lies outside the inferred values of `{pred}.{l}`"
                                    ),
                                ));
                                rf.fail(format!("constant `{c}` is excluded from `{pred}.{l}`"));
                            }
                        }
                        PredArg::Labeled(_, t) => {
                            for v in t.vars() {
                                rf.touch(v);
                            }
                        }
                        PredArg::SelfArg(Term::Var(v)) => {
                            if schema.kind(*pred) == Some(PredKind::Class) {
                                let av = AbsVal {
                                    class: ClassElem::Is(*pred),
                                    ..AbsVal::top()
                                };
                                let p = *pred;
                                rf.meet_env(schema, *v, av, *span, move || format!("class `{p}`"));
                            } else {
                                rf.touch(*v);
                            }
                        }
                        PredArg::SelfArg(t) => {
                            for v in t.vars() {
                                rf.touch(v);
                            }
                        }
                        PredArg::TupleVar(v) => rf.touch(*v),
                    }
                }
            }
            Atom::Member {
                elem, fun, args, ..
            } => {
                if lit.negated {
                    continue;
                }
                for v in elem.vars() {
                    if !rf.env.contains_key(&v) {
                        // A fresh element variable enumerates the collection:
                        // many bindings per row.
                        rf.card = rf.card.product(Card::Many);
                    }
                    rf.touch(v);
                }
                for a in args {
                    for v in a.vars() {
                        rf.touch(v);
                    }
                }
                let _ = fun;
                rf.card = rf.card.product(Card::Many);
            }
            Atom::Builtin {
                builtin,
                args,
                span,
            } => {
                if lit.negated {
                    for a in args {
                        for v in a.vars() {
                            rf.touch(v);
                        }
                    }
                    continue;
                }
                transfer_builtin(schema, &mut rf, *builtin, args, *span);
            }
        }
    }
    rf
}

fn render_guard(builtin: Builtin, args: &[Term]) -> String {
    let op = match builtin {
        Builtin::Eq => "=",
        Builtin::Ne => "!=",
        Builtin::Lt => "<",
        Builtin::Le => "<=",
        Builtin::Gt => ">",
        Builtin::Ge => ">=",
        _ => "?",
    };
    match args {
        [a, b] => format!("{a} {op} {b}"),
        _ => format!("{builtin:?}"),
    }
}

fn transfer_builtin(
    schema: &Schema,
    rf: &mut RuleFlow,
    builtin: Builtin,
    args: &[Term],
    span: Span,
) {
    match builtin {
        Builtin::Eq => {
            let [t1, t2] = args else { return };
            let a1 = abs_term(rf, t1, span);
            let a2 = abs_term(rf, t2, span);
            let m = a1.meet(&a2, schema);
            if m.is_bottom() && !a1.is_bottom() && !a2.is_bottom() {
                rf.guards
                    .push((span, render_guard(builtin, args), Verdict::AlwaysFalse));
                rf.fail(format!(
                    "equality `{}` is statically always false",
                    render_guard(builtin, args)
                ));
            } else if let (Some(x), Some(y)) = (a1.singleton(), a2.singleton()) {
                if x == y {
                    rf.guards
                        .push((span, render_guard(builtin, args), Verdict::AlwaysTrue));
                }
            }
            if let Term::Var(v) = t1 {
                rf.env.insert(*v, m.clone());
            }
            if let Term::Var(v) = t2 {
                rf.env.insert(*v, m);
            }
        }
        Builtin::Ne => {
            let [t1, t2] = args else { return };
            let a1 = abs_term(rf, t1, span);
            let a2 = abs_term(rf, t2, span);
            let verdict = match (a1.singleton(), a2.singleton()) {
                (Some(x), Some(y)) if x == y => Some(Verdict::AlwaysFalse),
                _ => {
                    if disjoint(&a1, &a2) {
                        Some(Verdict::AlwaysTrue)
                    } else {
                        None
                    }
                }
            };
            if let Some(v) = verdict {
                rf.guards.push((span, render_guard(builtin, args), v));
                if v == Verdict::AlwaysFalse {
                    rf.fail(format!(
                        "disequality `{}` is statically always false",
                        render_guard(builtin, args)
                    ));
                }
            }
            // Refinement: drop a pinned constant from the other side's set.
            for (tv, other) in [(t1, &a2), (t2, &a1)] {
                if let (Term::Var(v), Some(c)) = (tv, other.singleton()) {
                    if let Some(av) = rf.env.get_mut(v) {
                        if let ConstSet::Finite { vals, exact } = &mut av.consts {
                            vals.remove(&c);
                            *exact = false;
                        }
                    }
                }
            }
        }
        Builtin::Lt | Builtin::Le | Builtin::Gt | Builtin::Ge => {
            let [t1, t2] = args else { return };
            let a1 = abs_term(rf, t1, span);
            let a2 = abs_term(rf, t2, span);
            let verdict = compare_verdict(builtin, &a1, &a2);
            if let Some(v) = verdict {
                rf.guards.push((span, render_guard(builtin, args), v));
                if v == Verdict::AlwaysFalse {
                    rf.fail(format!(
                        "comparison `{}` is statically always false",
                        render_guard(builtin, args)
                    ));
                }
            }
            if verdict == Some(Verdict::AlwaysFalse) {
                // The guard alone makes the rule infeasible; refining the
                // intervals would meet to ⊥ and double-report as a
                // contradiction (L008) on top of the guard verdict (L009).
                return;
            }
            // Interval refinement, only when both sides are known numeric.
            if let (Some(i1), Some(i2)) = (a1.int_view(), a2.int_view()) {
                let (r1, r2) = refine_compare(builtin, i1, i2);
                for (tv, iv) in [(t1, r1), (t2, r2)] {
                    if let Term::Var(v) = tv {
                        let refined = AbsVal {
                            interval: iv,
                            is_int: true,
                            ..AbsVal::top()
                        };
                        rf.meet_env(schema, *v, refined, span, || {
                            "the comparison's implied bounds".to_string()
                        });
                    }
                }
            }
        }
        Builtin::Even | Builtin::Odd => {
            if let [t] = args {
                let a = abs_term(rf, t, span);
                if let Some(Value::Int(k)) = a.singleton() {
                    let holds = (k % 2 == 0) == (builtin == Builtin::Even);
                    let name = if builtin == Builtin::Even {
                        "even"
                    } else {
                        "odd"
                    };
                    let rendered = format!("{name}({t})");
                    let v = if holds {
                        Verdict::AlwaysTrue
                    } else {
                        Verdict::AlwaysFalse
                    };
                    rf.guards.push((span, rendered.clone(), v));
                    if v == Verdict::AlwaysFalse {
                        rf.fail(format!("guard `{rendered}` is statically always false"));
                    }
                }
                for v in t.vars() {
                    rf.touch(v);
                }
            }
        }
        Builtin::Length | Builtin::Count => {
            // Result-first convention: `length(N, S)`. Lengths are ≥ 0.
            if let Some(Term::Var(v)) = args.first() {
                if !rf.env.contains_key(v) {
                    rf.env.insert(
                        *v,
                        AbsVal {
                            interval: Interval {
                                lo: Some(0),
                                hi: None,
                            },
                            is_int: true,
                            ..AbsVal::top()
                        },
                    );
                }
            }
            for a in args.iter().skip(1) {
                for v in a.vars() {
                    rf.touch(v);
                }
            }
        }
        _ => {
            // Aggregates and collection builtins: every variable they can
            // bind becomes ⊤ (sound, no precision claimed).
            for a in args {
                for v in a.vars() {
                    rf.touch(v);
                }
            }
        }
    }
}

fn disjoint(a: &AbsVal, b: &AbsVal) -> bool {
    if let (ConstSet::Finite { vals: va, .. }, ConstSet::Finite { vals: vb, .. }) =
        (&a.consts, &b.consts)
    {
        if !va.is_empty() && !vb.is_empty() && va.intersection(vb).next().is_none() {
            return true;
        }
    }
    if let (Some(i1), Some(i2)) = (a.int_view(), b.int_view()) {
        if let (Some(h1), Some(l2)) = (i1.hi, i2.lo) {
            if h1 < l2 {
                return true;
            }
        }
        if let (Some(h2), Some(l1)) = (i2.hi, i1.lo) {
            if h2 < l1 {
                return true;
            }
        }
    }
    false
}

fn compare_verdict(builtin: Builtin, a: &AbsVal, b: &AbsVal) -> Option<Verdict> {
    // Singleton comparison works for strings too.
    if let (Some(x), Some(y)) = (a.singleton(), b.singleton()) {
        let holds = match (&x, &y) {
            (Value::Int(i), Value::Int(j)) => apply_cmp(builtin, i.cmp(j)),
            (Value::Str(i), Value::Str(j)) => apply_cmp(builtin, i.cmp(j)),
            _ => return None,
        };
        return Some(if holds {
            Verdict::AlwaysTrue
        } else {
            Verdict::AlwaysFalse
        });
    }
    let (i1, i2) = (a.int_view()?, b.int_view()?);
    let lt_always = matches!((i1.hi, i2.lo), (Some(h), Some(l)) if h < l);
    let le_always = matches!((i1.hi, i2.lo), (Some(h), Some(l)) if h <= l);
    let ge_never = lt_always; // a < b everywhere ⇒ a ≥ b nowhere
    let gt_never = le_always;
    let gt_always = matches!((i1.lo, i2.hi), (Some(l), Some(h)) if l > h);
    let ge_always = matches!((i1.lo, i2.hi), (Some(l), Some(h)) if l >= h);
    let lt_never = ge_always;
    let le_never = gt_always;
    let (always, never) = match builtin {
        Builtin::Lt => (lt_always, lt_never),
        Builtin::Le => (le_always, le_never),
        Builtin::Gt => (gt_always, gt_never),
        Builtin::Ge => (ge_always, ge_never),
        _ => (false, false),
    };
    if always {
        Some(Verdict::AlwaysTrue)
    } else if never {
        Some(Verdict::AlwaysFalse)
    } else {
        None
    }
}

fn apply_cmp(builtin: Builtin, ord: std::cmp::Ordering) -> bool {
    match builtin {
        Builtin::Lt => ord.is_lt(),
        Builtin::Le => ord.is_le(),
        Builtin::Gt => ord.is_gt(),
        Builtin::Ge => ord.is_ge(),
        _ => false,
    }
}

/// The bounds each side can be tightened to, assuming the comparison holds.
fn refine_compare(builtin: Builtin, i1: Interval, i2: Interval) -> (Interval, Interval) {
    let dec = |o: Option<i64>| o.map(|k| k.saturating_sub(1));
    let inc = |o: Option<i64>| o.map(|k| k.saturating_add(1));
    match builtin {
        Builtin::Lt => (
            Interval {
                lo: None,
                hi: dec(i2.hi),
            },
            Interval {
                lo: inc(i1.lo),
                hi: None,
            },
        ),
        Builtin::Le => (
            Interval {
                lo: None,
                hi: i2.hi,
            },
            Interval {
                lo: i1.lo,
                hi: None,
            },
        ),
        Builtin::Gt => (
            Interval {
                lo: inc(i2.lo),
                hi: None,
            },
            Interval {
                lo: None,
                hi: dec(i1.hi),
            },
        ),
        Builtin::Ge => (
            Interval {
                lo: i2.lo,
                hi: None,
            },
            Interval {
                lo: None,
                hi: i1.hi,
            },
        ),
        _ => (Interval::top(), Interval::top()),
    }
}

/// Abstract evaluation of a term. Arithmetic runs interval-to-interval with
/// `i128` overflow checks against the `i64` range; an overflowing bound is
/// reported (L010) and soundly dropped to unknown.
fn abs_term(rf: &mut RuleFlow, t: &Term, span: Span) -> AbsVal {
    match t {
        Term::Var(v) => {
            rf.touch(*v);
            rf.env.get(v).cloned().unwrap_or_else(AbsVal::top)
        }
        Term::Const(c) => AbsVal::of_value(c),
        Term::Nil => AbsVal::of_value(&Value::Nil),
        Term::BinOp { op, lhs, rhs } => {
            let a = abs_term(rf, lhs, span);
            let b = abs_term(rf, rhs, span);
            let (iv, overflowed) = binop_interval(*op, a.int_view(), b.int_view());
            if overflowed {
                rf.overflows.push((
                    span,
                    format!(
                        "`{t}` may exceed i64 given the inferred operand bounds {} and {}",
                        a.int_view().unwrap_or_else(Interval::top),
                        b.int_view().unwrap_or_else(Interval::top),
                    ),
                ));
            }
            let mut out = AbsVal {
                interval: iv,
                is_int: true,
                ..AbsVal::top()
            };
            if let (Some(l), Some(h)) = (iv.lo, iv.hi) {
                if l == h {
                    out.consts = ConstSet::point(Value::Int(l));
                }
            }
            out
        }
        _ => {
            for v in t.vars() {
                rf.touch(v);
            }
            AbsVal::top()
        }
    }
}

/// Interval arithmetic; the `bool` reports whether any finite bound left the
/// `i64` range (the L010 trigger). Division and modulo make no claims.
fn binop_interval(op: BinOp, a: Option<Interval>, b: Option<Interval>) -> (Interval, bool) {
    let (Some(a), Some(b)) = (a, b) else {
        return (Interval::top(), false);
    };
    let mut overflow = false;
    let mut clamp = |x: Option<i128>| -> Option<i64> {
        let x = x?;
        match i64::try_from(x) {
            Ok(k) => Some(k),
            Err(_) => {
                overflow = true;
                None
            }
        }
    };
    let iv = match op {
        BinOp::Add => Interval {
            lo: clamp(a.lo.zip(b.lo).map(|(x, y)| x as i128 + y as i128)),
            hi: clamp(a.hi.zip(b.hi).map(|(x, y)| x as i128 + y as i128)),
        },
        BinOp::Sub => Interval {
            lo: clamp(a.lo.zip(b.hi).map(|(x, y)| x as i128 - y as i128)),
            hi: clamp(a.hi.zip(b.lo).map(|(x, y)| x as i128 - y as i128)),
        },
        BinOp::Mul => {
            if let (Some(al), Some(ah), Some(bl), Some(bh)) = (a.lo, a.hi, b.lo, b.hi) {
                let corners = [
                    al as i128 * bl as i128,
                    al as i128 * bh as i128,
                    ah as i128 * bl as i128,
                    ah as i128 * bh as i128,
                ];
                Interval {
                    lo: clamp(corners.iter().min().copied()),
                    hi: clamp(corners.iter().max().copied()),
                }
            } else {
                Interval::top()
            }
        }
        BinOp::Div | BinOp::Mod => Interval::top(),
    };
    (iv, overflow)
}

// ---------------------------------------------------------------------------
// The fixpoint
// ---------------------------------------------------------------------------

/// Run the whole-program flow analysis: SCCs of the dependency graph in
/// producers-first order, a widening fixpoint per SCC, then a final
/// per-rule pass that records the lint events and the planner facts.
/// Deterministic: SCC order is fixed by the graph, all maps are BTreeMaps.
pub fn infer(
    schema: &Schema,
    rules: &RuleSet,
    seeds: &BTreeMap<Sym, PredSummary>,
) -> FlowSummaries {
    let graph = DepGraph::build(&rules.rules);
    let sccs = graph.sccs();
    let comp_of = graph.component_of(&sccs);
    let cyclic = graph.cyclic_components(&sccs, &comp_of);
    let mut out = FlowSummaries {
        preds: seeds.clone(),
        ..FlowSummaries::default()
    };

    // sccs() is reverse-topological (consumers first); walk producers first.
    for (ci, scc) in sccs.iter().enumerate().rev() {
        let members: BTreeSet<Sym> = scc.iter().map(|&i| graph.sym(i)).collect();
        let scc_rules: Vec<usize> = rules
            .rules
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.head.negated && members.contains(&r.head.target()))
            .map(|(i, _)| i)
            .collect();
        if scc_rules.is_empty() {
            continue;
        }
        let is_cyclic = cyclic[ci];
        for round in 0..MAX_ROUNDS {
            let mut fresh: BTreeMap<Sym, PredSummary> = BTreeMap::new();
            for &ri in &scc_rules {
                let rule = &rules.rules[ri];
                let rf = transfer_rule(schema, rule, &out.preds, None);
                if !rf.feasible {
                    continue;
                }
                let target = rule.head.target();
                let (hargs, hcard) = head_contribution(schema, rule, &rf);
                let entry = fresh.entry(target).or_insert_with(|| PredSummary {
                    card: Card::Empty,
                    args: BTreeMap::new(),
                });
                if entry.card == Card::Empty {
                    // First contribution replaces the empty placeholder so
                    // its args are not washed out by a join with ⊤.
                    entry.args = hargs;
                } else {
                    entry.join_args(&hargs, schema);
                }
                entry.card = entry.card.union(hcard);
            }
            let mut changed = false;
            for (p, f) in fresh {
                if f.card == Card::Empty {
                    continue;
                }
                let old = out.preds.get(&p).cloned();
                // Cardinality is re-derived each round from the extensional
                // seed plus this round's rule contributions (joined with the
                // old band for monotonicity) — accumulating `add` across
                // rounds would inflate every derived predicate to Many.
                let seed_card = seeds.get(&p).map_or(Card::Empty, |s| s.card);
                let mut new = match &old {
                    Some(o) => {
                        let mut n = o.clone();
                        if o.card == Card::Empty {
                            n.args = f.args;
                        } else {
                            n.join_args(&f.args, schema);
                        }
                        n.card = n.card.join(seed_card.union(f.card));
                        n
                    }
                    None => f,
                };
                if round >= WIDEN_AFTER {
                    widen(&mut new, old.as_ref(), p, is_cyclic, &mut out.grown);
                }
                if Some(&new) != old.as_ref() {
                    changed = true;
                    out.preds.insert(p, new);
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Final pass with the fixpoint summaries: lint events, infeasible rules,
    // and provably-total semijoin guards. Only predicates no rule targets
    // can license a skip: any derivation (or head-negation deletion) on the
    // guard voids the seed's claim that its value set *equals* the column.
    let rule_targets: BTreeSet<Sym> = rules.rules.iter().map(|r| r.head.target()).collect();
    for (ri, rule) in rules.rules.iter().enumerate() {
        let rf = transfer_rule(schema, rule, &out.preds, None);
        for (span, detail) in &rf.contradictions {
            out.contradictions.push(ContradictionEvent {
                rule: ri,
                span: *span,
                detail: detail.clone(),
            });
        }
        for (span, rendered, verdict) in &rf.guards {
            out.guards.push(GuardEvent {
                span: *span,
                rendered: rendered.clone(),
                verdict: *verdict,
            });
        }
        for (span, detail) in &rf.overflows {
            out.overflows.push(OverflowEvent {
                span: *span,
                detail: detail.clone(),
            });
        }
        if !rf.feasible {
            out.empty_rules.insert(
                ri,
                rf.reason
                    .unwrap_or_else(|| "body is statically empty".to_string()),
            );
            continue;
        }
        // Semijoin-skip candidates: a positive single-variable literal whose
        // guard column is an exact extensional seed covering everything the
        // rest of the body can feed through the variable.
        for (li, lit) in rule.body.iter().enumerate() {
            if lit.negated {
                continue;
            }
            let Atom::Pred { pred, args, .. } = &lit.atom else {
                continue;
            };
            let [PredArg::Labeled(l, Term::Var(v))] = args.as_slice() else {
                continue;
            };
            if rule_targets.contains(pred) {
                continue;
            }
            let Some(s) = out.preds.get(pred) else {
                continue;
            };
            let Some(AbsVal {
                consts: ConstSet::Finite { vals, exact: true },
                ..
            }) = s.args.get(l)
            else {
                continue;
            };
            let rest = transfer_rule(schema, rule, &out.preds, Some(li));
            if !rest.feasible {
                continue;
            }
            if let Some(AbsVal {
                consts: ConstSet::Finite { vals: probe, .. },
                ..
            }) = rest.env.get(v)
            {
                if !probe.is_empty() && probe.is_subset(vals) {
                    out.skip_guards.entry(ri).or_default().insert(li);
                }
            }
        }
    }
    out
}

fn head_contribution(schema: &Schema, rule: &Rule, rf: &RuleFlow) -> (BTreeMap<Sym, AbsVal>, Card) {
    let mut args = BTreeMap::new();
    if let Atom::Pred {
        pred,
        args: hargs,
        span,
    } = &rule.head.atom
    {
        // Head evaluation re-uses the body env; a scratch RuleFlow collects
        // nothing here (overflow in heads is caught by the final pass's
        // body-env evaluation through the same code path).
        let mut scratch = RuleFlow {
            env: rf.env.clone(),
            card: rf.card,
            feasible: true,
            reason: None,
            contradictions: Vec::new(),
            guards: Vec::new(),
            overflows: Vec::new(),
        };
        for a in hargs {
            if let PredArg::Labeled(l, t) = a {
                let av = abs_term(&mut scratch, t, *span)
                    .meet(&static_arg_top(schema, *pred, *l), schema);
                if !av.is_top() {
                    args.insert(*l, av);
                }
            }
        }
    }
    (args, rf.card)
}

/// Widening: a bound that is still moving after [`WIDEN_AFTER`] rounds is
/// thrown to unknown (and recorded as *grown* inside a cyclic SCC — the
/// L011 signal); a constant set that outgrew [`CONST_CAP`] becomes ⊤.
fn widen(
    new: &mut PredSummary,
    old: Option<&PredSummary>,
    pred: Sym,
    cyclic: bool,
    grown: &mut BTreeMap<Sym, Sym>,
) {
    for (l, av) in new.args.iter_mut() {
        let prev = old.and_then(|o| o.args.get(l));
        let prev_iv = prev.map_or_else(Interval::top, |p| p.interval);
        let prev_cs_len = prev.map_or(0, |p| match &p.consts {
            ConstSet::Finite { vals, .. } => vals.len(),
            ConstSet::Top => usize::MAX,
        });
        let mut widened_growth = false;
        if let (Some(n), Some(p)) = (av.interval.hi, prev_iv.hi) {
            if n > p {
                av.interval.hi = None;
                widened_growth = true;
            }
        }
        if let (Some(n), Some(p)) = (av.interval.lo, prev_iv.lo) {
            if n < p {
                av.interval.lo = None;
                widened_growth = true;
            }
        }
        // Widen only on growth: a stable inherited seed set above the cap
        // (prev == current) has converged and keeps its precision.
        if let ConstSet::Finite { vals, .. } = &av.consts {
            if vals.len() > CONST_CAP && vals.len() > prev_cs_len {
                av.consts = ConstSet::Top;
            }
        }
        if widened_growth && cyclic {
            grown.entry(pred).or_insert(*l);
        }
    }
    // Drop entries widening washed back to ⊤ so equality checks converge.
    new.args.retain(|_, av| !av.is_top());
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

impl FlowSummaries {
    /// Derive the L008–L011 diagnostics from the recorded events, sorted by
    /// (line, col, code).
    pub fn diagnostics(&self, rules: &RuleSet) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // L008: a predicate every deriving rule leaves empty, where at least
        // one body *meets to ⊥* (pure empty-producer chains stay L001's).
        let mut flagged: BTreeSet<Sym> = BTreeSet::new();
        for ev in &self.contradictions {
            let target = rules.rules[ev.rule].head.target();
            if self.card(target) != Card::Empty || flagged.contains(&target) {
                continue;
            }
            flagged.insert(target);
            out.push(Diagnostic::warning(
                "L008",
                ev.span,
                format!(
                    "derived predicate `{target}` is statically empty: {}",
                    ev.detail
                ),
            ));
        }
        for ev in &self.guards {
            let what = match ev.verdict {
                Verdict::AlwaysTrue => "true: the guard never filters anything",
                Verdict::AlwaysFalse => "false: the rule can never fire",
            };
            out.push(Diagnostic::warning(
                "L009",
                ev.span,
                format!(
                    "guard `{}` is statically always {what} given the inferred value flow",
                    ev.rendered
                ),
            ));
        }
        for ev in &self.overflows {
            out.push(Diagnostic::warning(
                "L010",
                ev.span,
                format!("arithmetic {}", ev.detail),
            ));
        }
        let graph = DepGraph::build(&rules.rules);
        let sccs = graph.sccs();
        let comp_of = graph.component_of(&sccs);
        for (pred, label) in &self.grown {
            // Anchor at the first *recursive* rule deriving the predicate —
            // one whose body reads a predicate from the same SCC — so a
            // non-recursive seeding rule listed first doesn't steal the span.
            let members: BTreeSet<Sym> = graph
                .node(*pred)
                .map(|n| sccs[comp_of[n]].iter().map(|&i| graph.sym(i)).collect())
                .unwrap_or_default();
            let derives = |r: &&Rule| !r.head.negated && r.head.target() == *pred;
            let span = rules
                .rules
                .iter()
                .find(|r| {
                    derives(r)
                        && r.body.iter().any(|lit| {
                            matches!(&lit.atom, Atom::Pred { pred: p, .. } if members.contains(p))
                        })
                })
                .or_else(|| rules.rules.iter().find(derives))
                .map(|r| r.span)
                .unwrap_or_default();
            out.push(Diagnostic::warning(
                "L011",
                span,
                format!(
                    "recursive derivation grows `{pred}.{label}` without bound \
                     (interval widened to unknown); a module cascade applying \
                     these rules may not terminate"
                ),
            ));
        }
        super::diag::sort_diagnostics(&mut out);
        out
    }
}

/// Flow analysis of a self-contained program: seeds from its `facts`
/// section, then the fixpoint and the L008–L011 lints.
pub fn flow_program(program: &Program) -> Vec<Diagnostic> {
    let seeds = seeds_from_facts(&program.schema, &program.facts);
    infer(&program.schema, &program.rules, &seeds).diagnostics(&program.rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::fixtures;
    use crate::parser::parse_program;

    fn summaries(src: &str) -> (Program, FlowSummaries) {
        let p = parse_program(src).expect("fixture parses");
        let seeds = seeds_from_facts(&p.schema, &p.facts);
        let s = infer(&p.schema, &p.rules, &seeds);
        (p, s)
    }

    #[test]
    fn flow_corpus_yields_exactly_the_expected_codes() {
        for fx in fixtures::flow_corpus() {
            let p = parse_program(&fx.source())
                .unwrap_or_else(|e| panic!("flow fixture `{}` fails to parse: {e:?}", fx.name));
            // Flow fixtures must be clean under the base analyzer, so the
            // flow codes are the only story they tell.
            assert_eq!(
                crate::analyze::analyze_program(&p)
                    .iter()
                    .map(|d| d.code)
                    .collect::<Vec<_>>(),
                Vec::<&str>::new(),
                "flow fixture `{}` is not base-analyzer-clean",
                fx.name
            );
            let codes: Vec<&str> = flow_program(&p).iter().map(|d| d.code).collect();
            assert_eq!(
                codes, fx.expect,
                "flow fixture `{}` produced unexpected diagnostics",
                fx.name
            );
        }
    }

    #[test]
    fn flow_output_is_byte_identical_across_runs() {
        use crate::analyze::diag::render_all_json;
        for fx in fixtures::flow_corpus() {
            let p = parse_program(&fx.source()).expect("fixture parses");
            let a = render_all_json(&flow_program(&p));
            let b = render_all_json(&flow_program(&p));
            assert_eq!(
                a, b,
                "flow fixture `{}` renders nondeterministically",
                fx.name
            );
        }
    }

    #[test]
    fn interval_lattice_laws() {
        let a = Interval {
            lo: Some(1),
            hi: Some(5),
        };
        let b = Interval {
            lo: Some(3),
            hi: None,
        };
        assert_eq!(
            a.meet(b),
            Interval {
                lo: Some(3),
                hi: Some(5)
            }
        );
        assert_eq!(
            a.join(b),
            Interval {
                lo: Some(1),
                hi: None
            }
        );
        assert!(Interval {
            lo: Some(7),
            hi: Some(5)
        }
        .is_empty());
        assert!(!Interval::top().is_empty());
        assert!(Interval::top().admits(i64::MIN) && Interval::top().admits(i64::MAX));
    }

    #[test]
    fn unknown_bounds_make_no_overflow_claims() {
        // sum-style results have unknown bounds; `(M + 1) * 2` over them
        // must not manufacture an overflow warning.
        let (iv, over) =
            binop_interval(BinOp::Add, Some(Interval::top()), Some(Interval::point(1)));
        assert_eq!(iv, Interval::top());
        assert!(!over);
        // …while genuinely out-of-range finite bounds do.
        let big = Interval::point(i64::MAX);
        let (iv, over) = binop_interval(BinOp::Add, Some(big), Some(big));
        assert_eq!(iv, Interval::top());
        assert!(over);
    }

    #[test]
    fn class_meet_respects_refinement_and_hierarchies() {
        let src = r#"
            classes
              person  = (name: string);
              student = (person: person, school: string);
              student isa person;
              robot   = (model: string);
            rules
            "#;
        let schema = parse_program(src).expect("schema parses").schema;
        let person = ClassElem::Is(Sym::new("person"));
        let student = ClassElem::Is(Sym::new("student"));
        let robot = ClassElem::Is(Sym::new("robot"));
        assert_eq!(person.meet(student, &schema), student);
        assert_eq!(student.meet(person, &schema), student);
        assert_eq!(person.meet(robot, &schema), ClassElem::Bottom);
        assert_eq!(student.join(person, &schema), person);
        assert_eq!(person.join(robot, &schema), ClassElem::Any);
    }

    #[test]
    fn instance_seeds_do_not_depend_on_insertion_order() {
        let p = parse_program(
            r#"
            classes
              node = (n: integer);
            associations
              e = (a: integer, b: integer);
            "#,
        )
        .expect("parses");
        // `a` takes more distinct values than a seed keeps exactly, `b` and
        // `n` fewer; the two instances see the same facts, reversed.
        let facts: Vec<(Value, Value)> = (0..100i64)
            .map(|i| {
                (
                    Value::tuple([("a", Value::Int(i)), ("b", Value::Int(i % 5))]),
                    Value::tuple([("n", Value::Int(i % 7))]),
                )
            })
            .collect();
        let (e, node) = (Sym::new("e"), Sym::new("node"));
        let load = |order: &mut dyn Iterator<Item = (usize, &(Value, Value))>| {
            let mut inst = Instance::new();
            for (i, (tuple, value)) in order {
                inst.insert_assoc(e, tuple.clone());
                inst.insert_object(&p.schema, node, logres_model::Oid(i as u64), value.clone());
            }
            seeds_from_instance(&p.schema, &inst)
        };
        let forward = load(&mut facts.iter().enumerate());
        let backward = load(&mut facts.iter().enumerate().rev());
        assert_eq!(forward, backward);
        assert_eq!(forward[&e].card, Card::Many);
        assert!(forward[&node].args.contains_key(&Sym::new("n")));
    }

    /// The full fold, every row of every extension: the reference that
    /// `seeds_from_instance` must agree with.
    fn seeds_by_full_fold(schema: &Schema, inst: &Instance) -> BTreeMap<Sym, PredSummary> {
        let mut out = BTreeMap::new();
        for c in schema.classes() {
            let mut acc = SeedAcc::new();
            for o in inst.oids_of(c) {
                match inst.o_value(o) {
                    Some(Value::Tuple(fields)) => acc.row(fields.iter().map(|(l, v)| (*l, v))),
                    _ => acc.row(std::iter::empty()),
                }
            }
            if acc.rows > 0 {
                out.insert(c, acc.finish(schema, c));
            }
        }
        for a in schema.assocs() {
            let mut acc = SeedAcc::new();
            for t in inst.tuples_of(a) {
                match t {
                    Value::Tuple(fields) => acc.row(fields.iter().map(|(l, v)| (*l, v))),
                    _ => acc.row(std::iter::empty()),
                }
            }
            if acc.rows > 0 {
                out.insert(a, acc.finish(schema, a));
            }
        }
        for (f, _) in schema.functions_iter() {
            if inst.fun_args(f).next().is_some() {
                out.insert(
                    f,
                    PredSummary {
                        card: Card::Many,
                        args: BTreeMap::new(),
                    },
                );
            }
        }
        out
    }

    #[test]
    fn instance_seeds_equal_the_full_fold() {
        let p = parse_program(
            r#"
            classes
              node = (n: integer);
            associations
              wide = (a: integer, s: string);
              narrow = (a: integer, k: integer);
            "#,
        )
        .expect("parses");
        let (wide, narrow, node) = (Sym::new("wide"), Sym::new("narrow"), Sym::new("node"));
        // `wide`'s columns take one value per row, so its fold may stop once
        // both pass the cap; `narrow`'s `k` never does, so its fold may not.
        for n in [0i64, 1, 64, 65, 4000] {
            let mut inst = Instance::new();
            for i in 0..n {
                let s = Value::Str(format!("s{i}"));
                inst.insert_assoc(wide, Value::tuple([("a", Value::Int(i)), ("s", s)]));
                let k = Value::Int(i % 40);
                inst.insert_assoc(narrow, Value::tuple([("a", Value::Int(i)), ("k", k)]));
                let v = Value::tuple([("n", Value::Int(i % 7))]);
                inst.insert_object(&p.schema, node, logres_model::Oid(i as u64), v);
            }
            let seeds = seeds_from_instance(&p.schema, &inst);
            assert_eq!(seeds, seeds_by_full_fold(&p.schema, &inst), "n = {n}");
            if n == 0 {
                assert!(seeds.is_empty());
                continue;
            }
            let card = if n == 1 { Card::AtMostOne } else { Card::Many };
            assert_eq!((seeds[&wide].card, seeds[&narrow].card), (card, card));
            let exact = |pred: Sym, label: &str| {
                seeds[&pred]
                    .args
                    .get(&Sym::new(label))
                    .is_some_and(|av| matches!(av.consts, ConstSet::Finite { exact: true, .. }))
            };
            let under_cap = n <= EXACT_CAP as i64;
            assert_eq!((exact(wide, "a"), exact(wide, "s")), (under_cap, under_cap));
            assert!(exact(narrow, "k"), "n = {n}");
        }
    }

    #[test]
    fn seeds_and_admits_cover_the_stored_facts() {
        let src = r#"
            associations
              src = (d: integer, t: string);
            facts
              src(d: 1, t: "a").
              src(d: 2, t: "b").
            rules

            goal src(d: X, t: T)?
            "#;
        let p = parse_program(src).expect("parses");
        let seeds = seeds_from_facts(&p.schema, &p.facts);
        let s = infer(&p.schema, &p.rules, &seeds);
        let src_sym = Sym::new("src");
        assert_eq!(s.card(src_sym), Card::Many);
        assert!(s.admits(
            src_sym,
            &Value::tuple([("d", Value::Int(1)), ("t", Value::str("a"))])
        ));
        assert!(!s.admits(
            src_sym,
            &Value::tuple([("d", Value::Int(7)), ("t", Value::str("a"))])
        ));
        assert_eq!(s.card(Sym::new("nothing")), Card::Empty);
    }

    #[test]
    fn statically_empty_rules_are_recorded_for_pruning() {
        let (p, s) = summaries(
            r#"
            associations
              src = (d: integer);
              lo_w = (d: integer);
              hi_w = (d: integer);
              clash = (d: integer);
            facts
              src(d: 1).
              src(d: 2).
            rules
              lo_w(d: X) <- src(d: X), X < 2.
              hi_w(d: X) <- src(d: X), X > 1.
              clash(d: X) <- lo_w(d: X), hi_w(d: X).
            goal clash(d: X)?
            "#,
        );
        assert_eq!(s.card(Sym::new("lo_w")), Card::Many);
        assert!(s.empty_rules.contains_key(&2), "clash rule prunes: {s:?}");
        let diags = s.diagnostics(&p.rules);
        assert_eq!(
            diags.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec!["L008"]
        );
    }

    #[test]
    fn total_guards_are_detected_for_semijoin_skip() {
        let (_, s) = summaries(
            r#"
            associations
              big = (a: integer, b: integer);
              allowed = (k: integer);
              out_p = (a: integer);
            facts
              big(a: 1, b: 10).
              big(a: 2, b: 20).
              allowed(k: 1).
              allowed(k: 2).
              allowed(k: 3).
            rules
              out_p(a: X) <- big(a: X, b: Y), allowed(k: X).
            goal out_p(a: X)?
            "#,
        );
        let skips = s.skip_guards.get(&0).cloned().unwrap_or_default();
        assert!(skips.contains(&1), "allowed(k: X) is total: {s:?}");
    }

    #[test]
    fn exactness_never_survives_a_meet() {
        let exact = ConstSet::Finite {
            vals: [Value::Int(1), Value::Int(2)].into_iter().collect(),
            exact: true,
        };
        for m in [exact.meet(&ConstSet::Top), ConstSet::Top.meet(&exact)] {
            assert!(
                matches!(m, ConstSet::Finite { exact: false, .. }),
                "meet with ⊤ must drop exactness: {m:?}"
            );
        }
        assert!(matches!(
            exact.meet(&exact),
            ConstSet::Finite { exact: false, .. }
        ));
    }

    #[test]
    fn derived_guards_are_not_skip_candidates() {
        // The guard's summary over-approximates its true extension (narrowed
        // by negation); skipping the semijoin would re-admit key 3.
        let (_, s) = summaries(
            r#"
            associations
              allowed = (k: integer);
              blocked = (k: integer);
              big     = (a: integer, b: integer);
              derived = (k: integer);
              out_p   = (a: integer);
            facts
              allowed(k: 1). allowed(k: 2). allowed(k: 3).
              blocked(k: 3).
              big(a: 1, b: 10). big(a: 2, b: 20). big(a: 3, b: 30).
            rules
              derived(k: X) <- allowed(k: X), not blocked(k: X).
              out_p(a: X) <- big(a: X, b: Y), derived(k: X).
            goal out_p(a: A)?
            "#,
        );
        assert!(
            s.skip_guards.is_empty(),
            "a derived guard must never license a semijoin skip: {:?}",
            s.skip_guards
        );
    }

    #[test]
    fn l011_anchors_at_the_recursive_rule() {
        let (p, s) = summaries(
            r#"
            associations
              seed = (n: integer);
              tick = (n: integer);
            facts
              seed(n: 0).
            rules
              tick(n: X) <- seed(n: X).
              tick(n: Y) <- tick(n: X), X < 9, Y = X + 1.
            goal tick(n: N)?
            "#,
        );
        let diags = s.diagnostics(&p.rules);
        let l011 = diags.iter().find(|d| d.code == "L011").expect("L011 fires");
        assert_eq!(
            l011.span, p.rules.rules[1].span,
            "L011 anchors at the recursive rule, not the seeding rule"
        );
    }

    #[test]
    fn stable_oversized_const_set_keeps_precision() {
        // r.v inherits ten constants (> CONST_CAP) from the seed and never
        // grows, while r.c keeps the SCC iterating past WIDEN_AFTER; the
        // stable set must not be discarded to ⊤.
        let facts: String = (0..=9).map(|v| format!("  n(v: {v}).\n")).collect();
        let src = format!(
            r#"
            associations
              n = (v: integer);
              r = (v: integer, c: integer);
            facts
            {facts}
            rules
              r(v: X, c: 0) <- n(v: X).
              r(v: X, c: Y) <- r(v: X, c: Z), Z < 5, Y = Z + 1.
            goal r(v: A, c: B)?
            "#
        );
        let (_, s) = summaries(&src);
        let arg = s.preds[&Sym::new("r")].arg(Sym::new("v"));
        match &arg.consts {
            ConstSet::Finite { vals, .. } => assert_eq!(vals.len(), 10),
            ConstSet::Top => panic!("stable 10-value set was widened to ⊤"),
        }
    }

    #[test]
    fn recursion_widens_and_converges() {
        let (_, s) = summaries(
            r#"
            associations
              step = (d: integer);
              tick = (n: integer);
            facts
              step(d: 1).
              tick(n: 0).
            rules
              tick(n: Y) <- tick(n: X), step(d: D), Y = X + D.
            goal tick(n: N)?
            "#,
        );
        let tick = Sym::new("tick");
        assert_eq!(s.card(tick), Card::Many);
        let arg = s.preds[&tick].arg(Sym::new("n"));
        assert_eq!(arg.interval.hi, None, "upper bound widened: {arg:?}");
        assert!(s.grown.contains_key(&tick), "growth recorded for L011");
        // Every concrete tick value stays admitted after widening.
        assert!(s.admits(tick, &Value::tuple([("n", Value::Int(5))])));
    }
}
