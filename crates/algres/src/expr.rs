//! The extended relational algebra expression language.

use std::fmt;

use logres_model::{Sym, Value};

use crate::relation::Relation;

/// Scalar expressions evaluated against one tuple.
#[derive(Debug, Clone, PartialEq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum Scalar {
    /// A column of the current tuple.
    Col(Sym),
    /// A constant.
    Const(Value),
    /// Integer addition.
    Add(Box<Scalar>, Box<Scalar>),
    /// Integer subtraction.
    Sub(Box<Scalar>, Box<Scalar>),
    /// Integer multiplication.
    Mul(Box<Scalar>, Box<Scalar>),
    /// Integer division.
    Div(Box<Scalar>, Box<Scalar>),
    /// Build a tuple value from sub-expressions.
    Tuple(Vec<(Sym, Scalar)>),
    /// Project a field out of a tuple-valued expression.
    Field(Box<Scalar>, Sym),
}

impl Scalar {
    /// Convenience column reference.
    pub fn col(c: impl Into<Sym>) -> Scalar {
        Scalar::Col(c.into())
    }

    /// All columns this expression reads.
    pub fn cols(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        self.collect_cols(&mut out);
        out
    }

    fn collect_cols(&self, out: &mut Vec<Sym>) {
        match self {
            Scalar::Col(c) => out.push(*c),
            Scalar::Const(_) => {}
            Scalar::Add(a, b) | Scalar::Sub(a, b) | Scalar::Mul(a, b) | Scalar::Div(a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Scalar::Tuple(fs) => {
                for (_, s) in fs {
                    s.collect_cols(out);
                }
            }
            Scalar::Field(s, _) => s.collect_cols(out),
        }
    }
}

/// Comparison operators for selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator names speak for themselves
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Selection predicates.
#[derive(Debug, Clone, PartialEq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum Pred {
    /// Compare two scalars (ordering is the structural `Value` order for
    /// non-integers, integer order for integers).
    Cmp(CmpOp, Scalar, Scalar),
    /// Set/multiset/sequence membership: `elem ∈ coll`.
    In(Scalar, Scalar),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    /// Always true (unit for `And` folds).
    True,
}

impl Pred {
    /// `a = b` on columns/constants.
    pub fn eq(a: Scalar, b: Scalar) -> Pred {
        Pred::Cmp(CmpOp::Eq, a, b)
    }

    /// Conjunction of a list of predicates.
    pub fn all(preds: impl IntoIterator<Item = Pred>) -> Pred {
        preds.into_iter().fold(Pred::True, |acc, p| match acc {
            Pred::True => p,
            acc => Pred::And(Box::new(acc), Box::new(p)),
        })
    }

    /// All columns the predicate reads.
    pub fn cols(&self) -> Vec<Sym> {
        match self {
            Pred::Cmp(_, a, b) | Pred::In(a, b) => {
                let mut out = a.cols();
                out.extend(b.cols());
                out
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                let mut out = a.cols();
                out.extend(b.cols());
                out
            }
            Pred::Not(p) => p.cols(),
            Pred::True => Vec::new(),
        }
    }
}

/// Grouped aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFun {
    /// Group size.
    Count,
    /// Integer sum.
    Sum,
    /// Integer minimum.
    Min,
    /// Integer maximum.
    Max,
    /// Truncated integer mean.
    Avg,
    /// Collect the grouped values into a set (the NF² nest-as-aggregate).
    CollectSet,
    /// Collect into a multiset (keeps duplicates).
    CollectMultiset,
}

/// An algebra expression.
#[derive(Debug, Clone, PartialEq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum AlgExpr {
    /// A named relation from the environment.
    Rel(Sym),
    /// A literal relation.
    Const(Relation),
    /// σ — keep tuples satisfying the predicate.
    Select { input: Box<AlgExpr>, pred: Pred },
    /// π — keep (and reorder) the listed columns; duplicates collapse.
    Project { input: Box<AlgExpr>, cols: Vec<Sym> },
    /// ρ — rename a column.
    Rename {
        input: Box<AlgExpr>,
        from: Sym,
        to: Sym,
    },
    /// × — Cartesian product (disjoint columns).
    Product {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// ⋈ — natural join on shared columns.
    Join {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// ∪ (same columns).
    Union {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// − (same columns).
    Diff {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// ∩ (same columns).
    Intersect {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// ⋉ — semijoin: left tuples with at least one partner in `right` on
    /// the shared columns (output columns = left's).
    SemiJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// ▷ — antijoin: left tuples with *no* partner in `right` on the shared
    /// columns. This is how negated literals compile ([Ca90]).
    AntiJoin {
        left: Box<AlgExpr>,
        right: Box<AlgExpr>,
    },
    /// Add a computed column.
    Extend {
        input: Box<AlgExpr>,
        col: Sym,
        value: Scalar,
    },
    /// Fused emit-time reshape: one pass over `input` that keeps tuples
    /// satisfying `pred` and rebuilds each survivor directly into the output
    /// layout — `cols` lists the output columns with the scalar (over the
    /// input schema) that computes each. Produced by
    /// [`crate::fuse_reshapes`], which collapses a
    /// `Rename* ∘ Project ∘ Extend*/Select*` chain into one node; when
    /// `input` is a `Join`, the evaluator emits head-layout tuples straight
    /// out of the join probe without materializing the joined relation.
    Emit {
        input: Box<AlgExpr>,
        pred: Pred,
        cols: Vec<(Sym, Scalar)>,
    },
    /// NF² nest: group by all columns *except* `cols`, collapsing the
    /// `cols`-projection of each group into a set-valued column `into`
    /// (each element is a tuple over `cols`, or the bare value when `cols`
    /// is a single column).
    Nest {
        input: Box<AlgExpr>,
        cols: Vec<Sym>,
        into: Sym,
    },
    /// NF² unnest: replace the collection-valued column `col` by one row
    /// per element.
    Unnest { input: Box<AlgExpr>, col: Sym },
    /// Grouped aggregation: group by `group`, apply `agg` to column `on`,
    /// emitting `group ∪ {into}`.
    Aggregate {
        input: Box<AlgExpr>,
        group: Vec<Sym>,
        agg: AggFun,
        on: Sym,
        into: Sym,
    },
}

impl AlgExpr {
    /// Wrap in a selection.
    pub fn select(self, pred: Pred) -> AlgExpr {
        AlgExpr::Select {
            input: Box::new(self),
            pred,
        }
    }

    /// Wrap in a projection.
    pub fn project<I, S>(self, cols: I) -> AlgExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<Sym>,
    {
        AlgExpr::Project {
            input: Box::new(self),
            cols: cols.into_iter().map(Into::into).collect(),
        }
    }

    /// Natural join.
    pub fn join(self, other: AlgExpr) -> AlgExpr {
        AlgExpr::Join {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Union.
    pub fn union(self, other: AlgExpr) -> AlgExpr {
        AlgExpr::Union {
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Rename a column.
    pub fn rename(self, from: impl Into<Sym>, to: impl Into<Sym>) -> AlgExpr {
        AlgExpr::Rename {
            input: Box::new(self),
            from: from.into(),
            to: to.into(),
        }
    }

    /// Stable lower-case operator name, used by EXPLAIN output and as the
    /// `op=` label of the `logres_plan_op_*` metrics.
    pub fn op_name(&self) -> &'static str {
        match self {
            AlgExpr::Rel(_) => "scan",
            AlgExpr::Const(_) => "const",
            AlgExpr::Select { .. } => "select",
            AlgExpr::Project { .. } => "project",
            AlgExpr::Rename { .. } => "rename",
            AlgExpr::Product { .. } => "product",
            AlgExpr::Join { .. } => "join",
            AlgExpr::Union { .. } => "union",
            AlgExpr::Diff { .. } => "diff",
            AlgExpr::Intersect { .. } => "intersect",
            AlgExpr::SemiJoin { .. } => "semijoin",
            AlgExpr::AntiJoin { .. } => "antijoin",
            AlgExpr::Extend { .. } => "extend",
            AlgExpr::Emit { .. } => "emit",
            AlgExpr::Nest { .. } => "nest",
            AlgExpr::Unnest { .. } => "unnest",
            AlgExpr::Aggregate { .. } => "aggregate",
        }
    }

    /// The direct sub-expressions of this node, in evaluation order. Used by
    /// plan walkers (id registration, EXPLAIN rendering) so they cannot fall
    /// out of sync with the variant list.
    pub fn children(&self) -> Vec<&AlgExpr> {
        match self {
            AlgExpr::Rel(_) | AlgExpr::Const(_) => Vec::new(),
            AlgExpr::Select { input, .. }
            | AlgExpr::Project { input, .. }
            | AlgExpr::Rename { input, .. }
            | AlgExpr::Extend { input, .. }
            | AlgExpr::Emit { input, .. }
            | AlgExpr::Nest { input, .. }
            | AlgExpr::Unnest { input, .. }
            | AlgExpr::Aggregate { input, .. } => vec![input],
            AlgExpr::Product { left, right }
            | AlgExpr::Join { left, right }
            | AlgExpr::Union { left, right }
            | AlgExpr::Diff { left, right }
            | AlgExpr::Intersect { left, right }
            | AlgExpr::SemiJoin { left, right }
            | AlgExpr::AntiJoin { left, right } => vec![left, right],
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Col(c) => write!(f, "{c}"),
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Add(a, b) => write!(f, "({a} + {b})"),
            Scalar::Sub(a, b) => write!(f, "({a} - {b})"),
            Scalar::Mul(a, b) => write!(f, "({a} * {b})"),
            Scalar::Div(a, b) => write!(f, "({a} / {b})"),
            Scalar::Tuple(fs) => {
                f.write_str("(")?;
                for (i, (l, s)) in fs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{l}: {s}")?;
                }
                f.write_str(")")
            }
            Scalar::Field(e, l) => write!(f, "{e}.{l}"),
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Pred::In(e, c) => write!(f, "{e} in {c}"),
            Pred::And(a, b) => write!(f, "{a} and {b}"),
            Pred::Or(a, b) => write!(f, "({a} or {b})"),
            Pred::Not(p) => write!(f, "not ({p})"),
            Pred::True => f.write_str("true"),
        }
    }
}

impl fmt::Display for AggFun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFun::Count => "count",
            AggFun::Sum => "sum",
            AggFun::Min => "min",
            AggFun::Max => "max",
            AggFun::Avg => "avg",
            AggFun::CollectSet => "collect_set",
            AggFun::CollectMultiset => "collect_multiset",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_all_folds_with_true_unit() {
        assert_eq!(Pred::all([]), Pred::True);
        let p = Pred::all([Pred::True, Pred::eq(Scalar::col("a"), Scalar::col("b"))]);
        assert!(matches!(p, Pred::Cmp(CmpOp::Eq, _, _)));
    }

    #[test]
    fn scalar_and_pred_cols_are_collected() {
        let s = Scalar::Add(
            Box::new(Scalar::col("x")),
            Box::new(Scalar::Field(Box::new(Scalar::col("t")), Sym::new("f"))),
        );
        assert_eq!(s.cols(), vec![Sym::new("x"), Sym::new("t")]);
        let p = Pred::And(
            Box::new(Pred::eq(Scalar::col("a"), Scalar::Const(Value::Int(1)))),
            Box::new(Pred::In(Scalar::col("e"), Scalar::col("s"))),
        );
        let mut cols = p.cols();
        cols.sort();
        assert_eq!(cols, vec![Sym::new("a"), Sym::new("e"), Sym::new("s")]);
    }

    #[test]
    fn op_names_and_displays_are_stable() {
        assert_eq!(AlgExpr::Rel(Sym::new("e")).op_name(), "scan");
        assert_eq!(
            AlgExpr::Rel(Sym::new("e"))
                .join(AlgExpr::Rel(Sym::new("e")))
                .op_name(),
            "join"
        );
        let p = Pred::And(
            Box::new(Pred::Cmp(
                CmpOp::Eq,
                Scalar::col("a"),
                Scalar::Const(Value::Int(1)),
            )),
            Box::new(Pred::Not(Box::new(Pred::In(
                Scalar::col("e"),
                Scalar::col("s"),
            )))),
        );
        assert_eq!(p.to_string(), "a = 1 and not (e in s)");
        let s = Scalar::Add(
            Box::new(Scalar::col("x")),
            Box::new(Scalar::Field(Box::new(Scalar::col("t")), Sym::new("f"))),
        );
        assert_eq!(s.to_string(), "(x + t.f)");
        assert_eq!(AggFun::CollectSet.to_string(), "collect_set");
    }

    #[test]
    fn builder_methods_compose() {
        let e = AlgExpr::Rel(Sym::new("parent"))
            .rename("par", "anc")
            .select(Pred::True)
            .project(["anc"]);
        assert!(matches!(e, AlgExpr::Project { .. }));
    }
}
