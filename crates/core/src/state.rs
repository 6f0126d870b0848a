//! Database states `(E, R, S)` and their instances.
//!
//! Section 3.1: "A database state is the triple (E, R, S): the set of tuples
//! extensionally stored, the rules (which define more facts), and the schema
//! of the database. The database instance is the result of applying the
//! rules R to E." A predicate can be defined partly extensionally and partly
//! intensionally.

use logres_engine::{evaluate, EngineError, EvalOptions, EvalReport, Semantics};
use logres_lang::{Denial, RuleSet};
use logres_model::{integrity, Instance, Schema};

use crate::error::CoreError;

/// A persistent LOGRES database state.
#[derive(Debug, Clone)]
pub struct DatabaseState {
    /// `S` — the schema.
    pub schema: Schema,
    /// `R` — the persistent intensional database.
    pub rules: RuleSet,
    /// `E` — the persistent extensional database.
    pub edb: Instance,
    /// Passive (denial) constraints stored alongside `R` (Section 4.2).
    pub constraints: Vec<Denial>,
}

/// Outcome of a consistency check.
#[derive(Debug, Clone, Default)]
pub struct ConsistencyReport {
    /// Human-readable violation descriptions; empty = consistent.
    pub violations: Vec<String>,
}

impl ConsistencyReport {
    /// No violations?
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// `Ok` when consistent; otherwise the application's rejection.
    pub(crate) fn into_result(self) -> Result<(), CoreError> {
        match self.is_consistent() {
            true => Ok(()),
            false => Err(CoreError::Rejected {
                violations: self.violations,
            }),
        }
    }
}

impl DatabaseState {
    /// A fresh state over a schema.
    pub fn new(schema: Schema) -> DatabaseState {
        DatabaseState {
            schema,
            rules: RuleSet::new(),
            edb: Instance::new(),
            constraints: Vec::new(),
        }
    }

    /// Compute the instance `I` with `(E, I) ∈ 7(R)` under the given
    /// semantics.
    pub fn instance(
        &self,
        semantics: Semantics,
        opts: EvalOptions,
    ) -> Result<(Instance, EvalReport), EngineError> {
        evaluate(&self.schema, &self.rules, &self.edb, semantics, opts)
    }

    /// Check an instance for consistency: the referential integrity
    /// constraints generated from the type equations (Section 2.1) plus the
    /// stored passive denials (Section 4.2).
    pub fn check_consistency(&self, inst: &Instance) -> Result<ConsistencyReport, CoreError> {
        let mut report = ConsistencyReport::default();
        let constraints = integrity::generate(&self.schema);
        push_ref_violations(
            &mut report,
            integrity::check(&self.schema, inst, &constraints),
        );
        self.check_denials(inst, &mut report)?;
        Ok(report)
    }

    /// Delta form of [`check_consistency`](Self::check_consistency) for incremental maintenance:
    /// referential integrity is checked only for the tuples `added` by the
    /// update (against the full instance), and a stored denial is
    /// re-evaluated only when the update could have created a new violating
    /// valuation for it: some *positive* body literal reads a predicate the
    /// update touched. A purely-positive denial body is monotone in the
    /// instance, so from a consistent pre-state a new violation must bind at
    /// least one added fact — denials over untouched predicates cannot newly
    /// fire and are skipped. Denials with negated literals are always
    /// re-checked: a deletion elsewhere in the update can satisfy `not p`
    /// without appearing in `added`.
    pub fn check_consistency_delta(
        &self,
        inst: &Instance,
        added: &[logres_model::Fact],
    ) -> Result<ConsistencyReport, CoreError> {
        let mut report = ConsistencyReport::default();
        let tuples: Vec<(logres_model::Sym, logres_model::Value)> = added
            .iter()
            .filter_map(|f| match f {
                logres_model::Fact::Assoc { assoc, tuple } => Some((*assoc, tuple.clone())),
                _ => None,
            })
            .collect();
        if !tuples.is_empty() {
            let constraints = integrity::generate(&self.schema);
            push_ref_violations(
                &mut report,
                integrity::check_assoc_delta(&self.schema, inst, &constraints, &tuples),
            );
        }
        let touched: rustc_hash::FxHashSet<logres_model::Sym> =
            added.iter().map(|f| f.predicate()).collect();
        self.check_denials_where(inst, &mut report, |denial| {
            denial.body.iter().any(|lit| {
                if lit.negated {
                    return true;
                }
                match &lit.atom {
                    logres_lang::Atom::Pred { pred, .. } => touched.contains(pred),
                    logres_lang::Atom::Member { fun, .. } => touched.contains(fun),
                    logres_lang::Atom::Builtin { .. } => false,
                }
            })
        })?;
        Ok(report)
    }

    fn check_denials(
        &self,
        inst: &Instance,
        report: &mut ConsistencyReport,
    ) -> Result<(), CoreError> {
        self.check_denials_where(inst, report, |_| true)
    }

    fn check_denials_where(
        &self,
        inst: &Instance,
        report: &mut ConsistencyReport,
        relevant: impl Fn(&Denial) -> bool,
    ) -> Result<(), CoreError> {
        for denial in &self.constraints {
            if !relevant(denial) {
                continue;
            }
            let goal = logres_lang::Goal {
                body: denial.body.clone(),
                vars: Vec::new(),
                span: denial.span,
            };
            let rows =
                logres_engine::answer_goal(&self.schema, inst, &goal).map_err(CoreError::Engine)?;
            if !rows.is_empty() {
                report.violations.push(format!("denial violated: {denial}"));
            }
        }
        Ok(())
    }
}

fn push_ref_violations(report: &mut ConsistencyReport, violations: Vec<integrity::Violation>) {
    for v in violations {
        report.violations.push(format!(
            "referential integrity: {}{} must reference `{}`{}",
            v.constraint.owner,
            v.constraint.path,
            v.constraint.target,
            match (&v.oid, &v.tuple) {
                (Some(o), Some(t)) => format!(" (dangling {o} in {t})"),
                (Some(o), None) => format!(" (dangling {o})"),
                (None, Some(t)) => format!(" (nil in {t})"),
                (None, None) => String::new(),
            }
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logres_engine::load_facts;
    use logres_lang::parse_program;
    use logres_model::{OidGen, Sym};

    fn state_from(src: &str) -> DatabaseState {
        let p = parse_program(src).expect("parses");
        let mut edb = Instance::new();
        let mut gen = OidGen::new();
        load_facts(&p.schema, &mut edb, &p.facts, &mut gen).unwrap();
        DatabaseState {
            schema: p.schema,
            rules: p.rules,
            edb,
            constraints: p.constraints,
        }
    }

    #[test]
    fn instance_applies_persistent_rules() {
        let s = state_from(
            r#"
            associations
              e  = (a: integer, b: integer);
              tc = (a: integer, b: integer);
            facts
              e(a: 1, b: 2).
              e(a: 2, b: 3).
            rules
              tc(a: X, b: Y) <- e(a: X, b: Y).
              tc(a: X, b: Z) <- tc(a: X, b: Y), e(a: Y, b: Z).
        "#,
        );
        let (inst, _) = s
            .instance(Semantics::Inflationary, EvalOptions::default())
            .unwrap();
        assert_eq!(inst.assoc_len(Sym::new("tc")), 3);
        // E is untouched: the instance is derived, not stored.
        assert_eq!(s.edb.assoc_len(Sym::new("tc")), 0);
    }

    #[test]
    fn denials_flag_inconsistent_instances() {
        let s = state_from(
            r#"
            associations
              married  = (who: string);
              divorced = (who: string);
            facts
              married(who: "x").
              divorced(who: "x").
            constraints
              <- married(who: X), divorced(who: X).
        "#,
        );
        let (inst, _) = s
            .instance(Semantics::Inflationary, EvalOptions::default())
            .unwrap();
        let report = s.check_consistency(&inst).unwrap();
        assert!(!report.is_consistent());
        assert!(report.violations[0].contains("denial"));
    }

    #[test]
    fn referential_integrity_is_checked_from_type_equations() {
        let s = state_from(
            r#"
            classes
              team = (name: string);
            associations
              game = (h: team, g: team);
        "#,
        );
        let mut inst = s.edb.clone();
        inst.insert_assoc(
            Sym::new("game"),
            logres_model::Value::tuple([
                ("h", logres_model::Value::Oid(logres_model::Oid(77))),
                ("g", logres_model::Value::Nil),
            ]),
        );
        let report = s.check_consistency(&inst).unwrap();
        assert_eq!(report.violations.len(), 2);
    }

    #[test]
    fn delta_check_scopes_denials_to_touched_predicates() {
        // The pre-state here is already inconsistent: the `married/divorced`
        // denial fires. A delta check whose update touched only `other`
        // must skip that denial (positive bodies over untouched predicates
        // cannot newly fire), so the skip is directly observable.
        let s = state_from(
            r#"
            associations
              married  = (who: string);
              divorced = (who: string);
              other    = (who: string);
            facts
              married(who: "x").
              divorced(who: "x").
            constraints
              <- married(who: X), divorced(who: X).
        "#,
        );
        let (inst, _) = s
            .instance(Semantics::Inflationary, EvalOptions::default())
            .unwrap();
        assert!(!s.check_consistency(&inst).unwrap().is_consistent());
        let added = vec![logres_model::Fact::Assoc {
            assoc: Sym::new("other"),
            tuple: logres_model::Value::tuple([("who", logres_model::Value::str("y"))]),
        }];
        let scoped = s.check_consistency_delta(&inst, &added).unwrap();
        assert!(
            scoped.is_consistent(),
            "untouched-predicate denial must be skipped, got {:?}",
            scoped.violations
        );
        // Touching `married` brings the denial back into scope.
        let added = vec![logres_model::Fact::Assoc {
            assoc: Sym::new("married"),
            tuple: logres_model::Value::tuple([("who", logres_model::Value::str("y"))]),
        }];
        let scoped = s.check_consistency_delta(&inst, &added).unwrap();
        assert!(!scoped.is_consistent());
    }

    #[test]
    fn delta_check_always_reruns_denials_with_negation() {
        // `<- p(d: X), not q(d: X)` can newly fire through a *deletion*
        // from q, which an added-facts delta cannot witness — so negated
        // denials are re-checked regardless of the touched set.
        let s = state_from(
            r#"
            associations
              p     = (d: integer);
              q     = (d: integer);
              other = (d: integer);
            facts
              p(d: 1).
            constraints
              <- p(d: X), not q(d: X).
        "#,
        );
        let (inst, _) = s
            .instance(Semantics::Stratified, EvalOptions::default())
            .unwrap();
        let added = vec![logres_model::Fact::Assoc {
            assoc: Sym::new("other"),
            tuple: logres_model::Value::tuple([("d", logres_model::Value::Int(5))]),
        }];
        let scoped = s.check_consistency_delta(&inst, &added).unwrap();
        assert!(!scoped.is_consistent(), "negated denial must still run");
    }

    #[test]
    fn consistent_states_pass() {
        let s = state_from(
            r#"
            associations
              p = (d: integer);
            facts
              p(d: 1).
            constraints
              <- p(d: 99).
        "#,
        );
        let (inst, _) = s
            .instance(Semantics::Stratified, EvalOptions::default())
            .unwrap();
        assert!(s.check_consistency(&inst).unwrap().is_consistent());
    }
}
