//! The dynamically-typed values stored in the process cache.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A value in the process cache.
///
/// Measurements from the power-flow simulator are [`Value::Float`]s, breaker
/// positions and commands are [`Value::Bool`]s, counters and enumerations are
/// [`Value::Int`]s, and free-form identifiers are [`Value::Str`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Boolean (breaker position, command flag, alarm state).
    Bool(bool),
    /// Signed integer (counters, enumerated states, tap positions).
    Int(i64),
    /// Floating-point measurement (MW, Mvar, kV, kA, Hz, per-unit).
    Float(f64),
    /// String (identifiers, free-form status).
    Str(String),
}

impl Value {
    /// Returns the boolean if this is a `Bool`, else `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer if this is an `Int`, else `None`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns a float for `Float` or (lossily) `Int`, else `None`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`, else `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Bitwise equality: floats compare by bit pattern, so `NaN` equals
    /// itself and `-0.0` differs from `0.0`; other values compare as `==`
    /// does. Two values this calls equal cannot be told apart by any reader.
    // Inlined across crates: the range's publish compares every measurement
    // on every step, and the call alone cost ~10% of a step that changes
    // them all.
    #[inline]
    pub fn bits_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => self == other,
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Str("x".into()).as_float(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
    }

    #[test]
    fn bits_eq_tells_apart_what_readers_can() {
        assert!(Value::Float(f64::NAN).bits_eq(&Value::Float(f64::NAN)));
        assert!(!Value::Float(-0.0).bits_eq(&Value::Float(0.0)));
        assert!(Value::Float(1.5).bits_eq(&Value::Float(1.5)));
        assert!(!Value::Int(1).bits_eq(&Value::Float(1.0)));
        assert!(Value::Str("x".into()).bits_eq(&Value::Str("x".into())));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Float(0.5).to_string(), "0.5");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
