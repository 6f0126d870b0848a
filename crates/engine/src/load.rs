//! Loading extensional facts into an instance.
//!
//! Class facts invent a fresh oid per fact (oids are system-managed and
//! never appear in source text); association facts insert their tuple;
//! facts over data functions are rejected (functions are populated only by
//! `member` rule heads), and so are facts that name an attribute twice.

use logres_lang::GroundFact;
use logres_model::{Instance, OidGen, PredKind, Schema, Value};

use crate::error::EngineError;

/// Load ground facts. Returns the number of facts inserted.
pub fn load_facts(
    schema: &Schema,
    inst: &mut Instance,
    facts: &[GroundFact],
    gen: &mut OidGen,
) -> Result<usize, EngineError> {
    let mut n = 0;
    for f in facts {
        match schema.kind(f.pred) {
            Some(PredKind::Class) => {
                let oid = gen.fresh();
                inst.insert_object(schema, f.pred, oid, fact_tuple(f)?);
                n += 1;
            }
            Some(PredKind::Assoc) => {
                if inst.insert_assoc(f.pred, fact_tuple(f)?) {
                    n += 1;
                }
            }
            _ => return Err(EngineError::UnknownPredicate(f.pred)),
        }
    }
    Ok(n)
}

/// The tuple a fact's attributes denote, in canonical label order.
fn fact_tuple(f: &GroundFact) -> Result<Value, EngineError> {
    let mut fields = f.args.clone();
    fields.sort_by_key(|(l, _)| *l);
    if let Some(w) = fields.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(EngineError::DuplicateAttribute {
            pred: f.pred,
            label: w[0].0,
        });
    }
    Ok(Value::Tuple(fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use logres_lang::parse_program;
    use logres_model::Sym;

    #[test]
    fn class_facts_invent_oids_assoc_facts_insert_tuples() {
        let p = parse_program(
            r#"
            classes
              person = (name: string);
            associations
              likes = (a: string, b: string);
            facts
              person(name: "sara").
              person(name: "luca").
              likes(a: "sara", b: "luca").
              likes(a: "sara", b: "luca").
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        let n = load_facts(&p.schema, &mut inst, &p.facts, &mut gen).unwrap();
        // The duplicate association fact collapses.
        assert_eq!(n, 3);
        assert_eq!(inst.class_len(Sym::new("person")), 2);
        assert_eq!(inst.assoc_len(Sym::new("likes")), 1);
        inst.validate(&p.schema).expect("loaded instance is legal");
    }

    #[test]
    fn facts_naming_an_attribute_twice_are_rejected() {
        let p = parse_program(
            r#"
            associations
              p = (a: integer);
            facts
              p(a: 1, a: 2).
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        assert!(matches!(
            load_facts(&p.schema, &mut inst, &p.facts, &mut gen),
            Err(EngineError::DuplicateAttribute { .. })
        ));
        assert_eq!(inst.assoc_len(Sym::new("p")), 0);
    }

    #[test]
    fn function_facts_are_rejected() {
        let p = parse_program(
            r#"
            classes
              person = (name: string);
            functions
              f: -> {person};
        "#,
        )
        .unwrap();
        let fact = GroundFact {
            pred: Sym::new("f"),
            args: vec![],
            span: Default::default(),
        };
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        assert!(matches!(
            load_facts(&p.schema, &mut inst, &[fact], &mut gen),
            Err(EngineError::UnknownPredicate(_))
        ));
    }
}
