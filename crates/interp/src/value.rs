//! Runtime values and numeric coercion rules.
//!
//! MiniC++ follows C-like promotion: mixed `int`/floating arithmetic promotes
//! to the floating operand; `float op double` promotes to `double`. Keeping
//! `float` as a true `f32` matters: the "Employ SP" transforms in the paper
//! trade precision for device throughput, and the interpreter makes that
//! trade observable.

use crate::memory::BufferId;
use std::fmt;

/// A pointer value: which allocation it points into and the element offset.
/// Provenance is never erased, which is what makes the dynamic alias
/// analysis exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pointer {
    pub buffer: BufferId,
    /// Offset in *elements* from the start of the allocation.
    pub offset: i64,
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f32),
    Double(f64),
    Bool(bool),
    Ptr(Pointer),
    /// Result of `void` calls.
    Unit,
}

impl Value {
    /// Truthiness for conditions; ints/floats are C-truthy.
    pub fn truthy(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(v) => Some(*v != 0),
            Value::Float(v) => Some(*v != 0.0),
            Value::Double(v) => Some(*v != 0.0),
            Value::Ptr(_) | Value::Unit => None,
        }
    }

    /// Numeric value as f64 (for promotion), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(f64::from(*v)),
            Value::Double(v) => Some(*v),
            Value::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// Integer value, truncating floats (C cast semantics).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Double(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    pub fn as_ptr(&self) -> Option<Pointer> {
        match self {
            Value::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// True if either operand is floating, i.e. the operation counts as a
    /// FLOP for arithmetic-intensity purposes.
    pub fn is_floating(&self) -> bool {
        matches!(self, Value::Float(_) | Value::Double(_))
    }

    /// A short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Double(_) => "double",
            Value::Bool(_) => "bool",
            Value::Ptr(_) => "pointer",
            Value::Unit => "void",
        }
    }
}

/// The promotion rank of a numeric value (higher wins in mixed arithmetic).
fn rank(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 0,
        Value::Int(_) => 1,
        Value::Float(_) => 2,
        Value::Double(_) => 3,
        _ => 4,
    }
}

/// The common type two operands promote to, following C arithmetic
/// conversions restricted to MiniC++'s types.
pub fn promote(lhs: &Value, rhs: &Value) -> Option<Promoted> {
    let hi = rank(lhs).max(rank(rhs));
    match hi {
        0 | 1 => Some(Promoted::Int(lhs.as_i64()?, rhs.as_i64()?)),
        2 => Some(Promoted::Float(lhs.as_f64()? as f32, rhs.as_f64()? as f32)),
        3 => Some(Promoted::Double(lhs.as_f64()?, rhs.as_f64()?)),
        _ => None,
    }
}

/// A pair of operands after promotion to their common type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Promoted {
    Int(i64, i64),
    Float(f32, f32),
    Double(f64, f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}f"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Ptr(p) => write!(f, "&{}[{}]", p.buffer, p.offset),
            Value::Unit => write!(f, "()"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn promotion_follows_c_rules() {
        assert_eq!(
            promote(&Value::Int(2), &Value::Double(0.5)),
            Some(Promoted::Double(2.0, 0.5))
        );
        assert_eq!(
            promote(&Value::Int(2), &Value::Float(0.5)),
            Some(Promoted::Float(2.0, 0.5))
        );
        assert_eq!(
            promote(&Value::Float(1.0), &Value::Double(2.0)),
            Some(Promoted::Double(1.0, 2.0))
        );
        assert_eq!(
            promote(&Value::Int(1), &Value::Int(2)),
            Some(Promoted::Int(1, 2))
        );
        assert_eq!(promote(&Value::Unit, &Value::Int(1)), None);
    }

    #[test]
    fn float_stays_single_precision() {
        // 0.1f + 0.2f in f32 differs from the f64 result — the SP transform
        // is numerically observable.
        let Promoted::Float(a, b) = promote(&Value::Float(0.1), &Value::Float(0.2)).unwrap() else {
            panic!()
        };
        let sum32 = f64::from(a + b);
        let sum64 = 0.1f64 + 0.2f64;
        assert_ne!(sum32, sum64);
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Int(0).truthy(), Some(false));
        assert_eq!(Value::Double(0.5).truthy(), Some(true));
        assert_eq!(Value::Unit.truthy(), None);
    }

    #[test]
    fn casts_truncate() {
        assert_eq!(Value::Double(2.9).as_i64(), Some(2));
        assert_eq!(Value::Double(-2.9).as_i64(), Some(-2));
    }
}
