//! Parsing values back from their [`std::fmt::Display`] form.
//!
//! The grammar is exactly what `Value`'s `Display` produces:
//!
//! ```text
//! value := INT | STRING | '&' INT | 'nil'
//!        | '(' label ':' value (',' label ':' value)* ')'
//!        | '{' [value (',' value)*] '}'
//!        | '[' [value (',' value)*] ']'
//!        | '<' [value (',' value)*] '>'
//! ```
//!
//! Used by the persistence layer (`logres::persist`) to round-trip database
//! states through text, and generally handy for tests and tools.

use crate::oid::Oid;
use crate::sym::Sym;
use crate::value::Value;

/// Parse a value from its display form. Returns the value and the number of
/// bytes consumed.
pub fn parse_value(src: &str) -> Result<Value, String> {
    let mut p = P {
        s: src.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!(
            "trailing input after value at byte {}: {:?}",
            p.i,
            &src[p.i..]
        ));
    }
    Ok(v)
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl P<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && (self.s[self.i] as char).is_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.s.get(self.i).map(|b| *b as char)
    }

    fn eat(&mut self, c: char) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{c}` at byte {}, found {:?}",
                self.i,
                self.peek()
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.peek() {
            Some('n') => {
                if self.s[self.i..].starts_with(b"nil") {
                    self.i += 3;
                    Ok(Value::Nil)
                } else {
                    Err(format!("expected `nil` at byte {}", self.i))
                }
            }
            Some('&') => {
                self.i += 1;
                let n = self.integer()?;
                u64::try_from(n)
                    .map(|n| Value::Oid(Oid(n)))
                    .map_err(|_| "negative oid".to_owned())
            }
            Some('"') => self.string().map(Value::Str),
            Some(c) if c.is_ascii_digit() || c == '-' => self.integer().map(Value::Int),
            Some('(') => {
                self.eat('(')?;
                let mut fields = Vec::new();
                self.ws();
                if self.peek() != Some(')') {
                    loop {
                        let label = self.label()?;
                        self.eat(':')?;
                        let v = self.value()?;
                        fields.push((label, v));
                        self.ws();
                        if self.peek() == Some(',') {
                            self.i += 1;
                        } else {
                            break;
                        }
                    }
                }
                self.eat(')')?;
                Ok(Value::tuple(fields))
            }
            Some('{') => {
                let vs = self.seq_of('{', '}')?;
                Ok(Value::set(vs))
            }
            Some('[') => {
                let vs = self.seq_of('[', ']')?;
                Ok(Value::multiset(vs))
            }
            Some('<') => {
                let vs = self.seq_of('<', '>')?;
                Ok(Value::seq(vs))
            }
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn seq_of(&mut self, open: char, close: char) -> Result<Vec<Value>, String> {
        self.eat(open)?;
        let mut out = Vec::new();
        self.ws();
        if self.peek() != Some(close) {
            loop {
                out.push(self.value()?);
                self.ws();
                if self.peek() == Some(',') {
                    self.i += 1;
                } else {
                    break;
                }
            }
        }
        self.eat(close)?;
        Ok(out)
    }

    fn integer(&mut self) -> Result<i64, String> {
        self.ws();
        let start = self.i;
        if self.peek() == Some('-') {
            self.i += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad integer at byte {start}"))
    }

    fn label(&mut self) -> Result<Sym, String> {
        self.ws();
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '@')
        {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a label at byte {start}"));
        }
        Ok(Sym::new(
            std::str::from_utf8(&self.s[start..self.i]).expect("ascii label"),
        ))
    }

    /// Rust-debug-escaped string literal.
    fn string(&mut self) -> Result<String, String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".to_owned());
            };
            self.i += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("dangling escape".to_owned());
                    };
                    self.i += 1;
                    match esc {
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        '0' => out.push('\0'),
                        '\'' => out.push('\''),
                        'u' => {
                            // \u{hex}
                            self.eat('{')?;
                            let start = self.i;
                            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                self.i += 1;
                            }
                            let hex = std::str::from_utf8(&self.s[start..self.i]).expect("hex");
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad unicode escape: {e}"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "invalid unicode scalar".to_owned())?,
                            );
                            self.eat('}')?;
                        }
                        other => out.push(other),
                    }
                }
                other => {
                    // Multi-byte characters: copy the full UTF-8 sequence.
                    if other.is_ascii() {
                        out.push(other);
                    } else {
                        // Back up and decode properly.
                        self.i -= 1;
                        let rest =
                            std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                        let ch = rest.chars().next().expect("non-empty");
                        out.push(ch);
                        self.i += ch.len_utf8();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(v: &Value) {
        let text = v.to_string();
        let parsed = parse_value(&text).unwrap_or_else(|e| panic!("failed to parse {text:?}: {e}"));
        assert_eq!(&parsed, v, "round-trip through {text:?}");
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Int(0),
            Value::Int(-42),
            Value::str("hello"),
            Value::str("with \"quotes\" and \\ and \n"),
            Value::str("unicode: ü → λ"),
            Value::Oid(Oid(7)),
            Value::Nil,
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = Value::tuple([
            ("name", Value::str("x")),
            ("roles", Value::set([Value::Int(1), Value::Int(2)])),
            ("bag", Value::multiset([Value::Int(1), Value::Int(1)])),
            (
                "seq",
                Value::seq([Value::Oid(Oid(1)), Value::Nil, Value::empty_set()]),
            ),
        ]);
        round_trip(&v);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_value("(a: )").is_err());
        assert!(parse_value("&-1").is_err());
        assert!(parse_value("\"unterminated").is_err());
        assert!(parse_value("1 2").is_err());
        assert!(parse_value("").is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn display_parse_round_trips(v in arb_value()) {
            round_trip(&v);
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            any::<i64>().prop_map(Value::Int),
            // Printable-ish strings incl. escapes and unicode.
            "[ -~\u{e0}-\u{ff}]{0,12}".prop_map(Value::str),
            (0u64..1000).prop_map(|i| Value::Oid(Oid(i))),
            Just(Value::Nil),
        ];
        leaf.prop_recursive(3, 32, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::set),
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::multiset),
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::seq),
                proptest::collection::vec(inner, 1..4).prop_map(|vs| {
                    Value::tuple(
                        vs.into_iter()
                            .enumerate()
                            .map(|(i, v)| (format!("f{i}"), v))
                            .collect::<Vec<_>>(),
                    )
                }),
            ]
        })
    }
}
