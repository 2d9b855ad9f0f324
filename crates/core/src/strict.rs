//! The strict-object reader behind the versioned file formats: trace
//! files, cost-model files (standalone, or embedded in traces and solve
//! requests) and the corpus golden file.
//!
//! [`Fields`] reads one object of the parsed [`Value`] tree. It refuses an
//! unknown key (reported before a repeated one), a repeated key, a missing
//! key, a wrong-typed value and a negative or non-integer number, each
//! worded once here and naming the object (`trace file`, `tasks[3]`) or the
//! field's path (`tasks[3].mem_bytes`). The caller picks the typed error
//! class ([`CoreError::InvalidTrace`], [`CoreError::InvalidCostModel`]).

use crate::error::{CoreError, Result};
use serde::Value;
use std::collections::HashSet;
use std::fmt;

/// The fields of one object whose keys have been checked against the
/// keys it may hold.
#[derive(Debug)]
pub struct Fields<'v, 'p> {
    fields: &'v [(String, Value)],
    what: &'p str,
    path: &'p str,
    class: fn(String) -> CoreError,
}

impl<'v, 'p> Fields<'v, 'p> {
    /// Reads `value` as an object that may hold only `allowed` keys, each
    /// at most once. `what` names the object in object-level refusals
    /// (`trace file`, `tasks[3]`); `path` is the prefix of its fields'
    /// paths, empty at a file's root. Refusals are `class` errors.
    pub fn of(
        value: &'v Value,
        what: &'p str,
        path: &'p str,
        allowed: &[&str],
        class: fn(String) -> CoreError,
    ) -> Result<Self> {
        let Value::Object(fields) = value else {
            return Err(class(format!(
                "{what} must be an object, got {}",
                value.kind()
            )));
        };
        if let Some((key, _)) = fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(class(format!(
                "{what} has unknown key `{key}`; allowed keys are {}",
                allowed.join(", ")
            )));
        }
        if let Some(key) = repeated(fields) {
            return Err(class(format!("{what} repeats key `{key}`")));
        }
        Ok(Fields {
            fields,
            what,
            path,
            class,
        })
    }

    fn invalid(&self, msg: String) -> CoreError {
        (self.class)(msg)
    }

    /// The path of field `key`, as refusals name it.
    fn path(&self, key: &str) -> String {
        match self.path {
            "" => key.to_string(),
            path => format!("{path}.{key}"),
        }
    }

    /// The value of an optional field.
    pub fn get(&self, key: &str) -> Option<&'v Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value of a required field.
    pub fn require(&self, key: &str) -> Result<&'v Value> {
        self.get(key)
            .ok_or_else(|| self.invalid(format!("{} is missing required key `{key}`", self.what)))
    }

    fn wrong_type(&self, key: &str, expected: &str, got: impl fmt::Display) -> CoreError {
        self.invalid(format!("{} must be {expected}, got {got}", self.path(key)))
    }

    /// A required non-negative integer field. `-0` reads as 0, as `u64`'s
    /// `Deserialize` reads it; negative integers, floats (`1.5`, `1e30`)
    /// and non-numbers each get their own refusal.
    pub fn uint(&self, key: &str) -> Result<u64> {
        let expected = "a non-negative integer";
        match self.require(key)? {
            Value::UInt(n) => Ok(*n),
            Value::Int(n) => u64::try_from(*n)
                .map_err(|_| self.invalid(format!("{} is negative ({n})", self.path(key)))),
            Value::Float(x) => {
                Err(self.wrong_type(key, expected, format!("non-integer number {x}")))
            }
            other => Err(self.wrong_type(key, expected, other.kind())),
        }
    }

    /// A required string field.
    pub fn str(&self, key: &str) -> Result<&'v str> {
        match self.require(key)? {
            Value::Str(s) => Ok(s),
            other => Err(self.wrong_type(key, "a string", other.kind())),
        }
    }

    /// A required array field.
    pub fn array(&self, key: &str) -> Result<&'v [Value]> {
        match self.require(key)? {
            Value::Array(items) => Ok(items),
            other => Err(self.wrong_type(key, "an array", other.kind())),
        }
    }

    /// A required object field whose keys are data, not schema (the golden
    /// file's `entries`): any key is allowed, but none twice.
    pub fn members(&self, key: &str) -> Result<&'v [(String, Value)]> {
        match self.require(key)? {
            Value::Object(members) => match repeated(members) {
                Some(member) => {
                    Err(self.invalid(format!("{} repeats key `{member}`", self.path(key))))
                }
                None => Ok(members),
            },
            other => Err(self.wrong_type(key, "an object", other.kind())),
        }
    }
}

/// The first key of `fields` that an earlier one already holds.
fn repeated(fields: &[(String, Value)]) -> Option<&str> {
    let mut seen = HashSet::with_capacity(fields.len());
    fields
        .iter()
        .map(|(k, _)| k.as_str())
        .find(|k| !seen.insert(*k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    fn refusal(result: Result<impl std::fmt::Debug>) -> String {
        match result {
            Err(CoreError::InvalidTrace(msg)) => msg,
            other => panic!("expected InvalidTrace, got {other:?}"),
        }
    }

    fn fields<'v>(value: &'v Value, allowed: &[&str]) -> Result<Fields<'v, 'static>> {
        Fields::of(value, "entry", "at", allowed, CoreError::InvalidTrace)
    }

    #[test]
    fn every_refusal_names_its_path_in_the_callers_class() {
        let value =
            parse(r#"{"n": -2, "x": 1.5, "s": 3, "a": {}, "m": [], "d": {"k": 1, "k": 2}}"#);
        let all = ["n", "x", "s", "a", "m", "d", "absent"];
        let f = fields(&value, &all).unwrap();
        assert_eq!(refusal(f.uint("n")), "at.n is negative (-2)");
        assert_eq!(
            refusal(f.uint("x")),
            "at.x must be a non-negative integer, got non-integer number 1.5"
        );
        assert_eq!(refusal(f.str("a")), "at.a must be a string, got object");
        assert_eq!(refusal(f.str("s")), "at.s must be a string, got integer");
        assert_eq!(refusal(f.array("a")), "at.a must be an array, got object");
        assert_eq!(refusal(f.members("m")), "at.m must be an object, got array");
        assert_eq!(refusal(f.members("d")), "at.d repeats key `k`");
        assert_eq!(
            refusal(f.uint("absent")),
            "entry is missing required key `absent`"
        );
        assert_eq!(f.get("absent"), None);
        assert!(matches!(
            Fields::of(&value, "x", "", &all, CoreError::InvalidCostModel)
                .unwrap()
                .uint("n"),
            Err(CoreError::InvalidCostModel(msg)) if msg == "n is negative (-2)"
        ));
    }

    #[test]
    fn negative_zero_reads_as_zero_and_other_negatives_are_refused() {
        let value = parse(r#"{"z": -0, "zz": -00, "n": -1, "min": -9223372036854775808}"#);
        let f = fields(&value, &["z", "zz", "n", "min"]).unwrap();
        assert_eq!(f.uint("z").unwrap(), 0);
        assert_eq!(f.uint("zz").unwrap(), 0);
        assert_eq!(refusal(f.uint("n")), "at.n is negative (-1)");
        assert_eq!(
            refusal(f.uint("min")),
            "at.min is negative (-9223372036854775808)"
        );
    }

    #[test]
    fn unknown_keys_are_reported_before_repeated_ones() {
        let value = parse(r#"{"a": 1, "a": 2, "b": 3}"#);
        assert_eq!(
            refusal(fields(&value, &["a"])),
            "entry has unknown key `b`; allowed keys are a"
        );
        assert_eq!(
            refusal(fields(&value, &["a", "b"])),
            "entry repeats key `a`"
        );
        assert_eq!(
            refusal(fields(&parse("[]"), &["a"])),
            "entry must be an object, got array"
        );
    }
}
