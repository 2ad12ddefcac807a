//! Runtime values stored in PRISMA relations.
//!
//! PRISMA's POOL-X introduced "dynamic typing at a few specific points to
//! efficiently support the implementation of relation types" (paper §3.1).
//! [`Value`] is that dynamically typed cell: a small tagged union covering
//! the SQL-ish type system of the machine's front ends.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::schema::DataType;

/// A single attribute value.
///
/// `Value` has a *total* order (NULL sorts first, numeric values compare by
/// numeric value, `f64` uses IEEE `total_cmp`) so it can be used directly as
/// a B-tree key and hashed for hash-join/hash-index keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// Variable-length string.
    Str(String),
}

impl Value {
    /// Runtime type of this value, or `None` for NULL (which inhabits
    /// every column type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload; integers widen losslessly enough for cost models.
    #[inline]
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Heap + inline footprint in bytes, used for the per-PE 16 MB memory
    /// accounting that drives fragmentation decisions (paper §3.2).
    pub fn byte_size(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => inline + s.capacity(),
            _ => inline,
        }
    }

    /// SQL three-valued-logic equality: any comparison with NULL is "unknown",
    /// surfaced here as `None`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.total_cmp(other) == Ordering::Equal)
        }
    }

    /// SQL three-valued-logic ordering comparison (`None` when either side
    /// is NULL).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.total_cmp(other))
        }
    }

    /// Total order used by indexes and sort operators. NULL < Bool < numeric
    /// < Str; Int and Double compare numerically against each other so mixed
    /// arithmetic results still index correctly.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }

    /// Borrowed view of this value (no string clone).
    #[inline]
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Double(d) => ValueRef::Double(*d),
            Value::Str(s) => ValueRef::Str(s),
        }
    }

    /// Numeric addition with Int/Double coercion; NULL propagates.
    pub fn add(&self, other: &Value) -> Option<Value> {
        arith(self, other, |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Numeric subtraction with Int/Double coercion; NULL propagates.
    pub fn sub(&self, other: &Value) -> Option<Value> {
        arith(self, other, |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Numeric multiplication with Int/Double coercion; NULL propagates.
    pub fn mul(&self, other: &Value) -> Option<Value> {
        arith(self, other, |a, b| a.checked_mul(b), |a, b| a * b)
    }

    /// Numeric division. Integer division by zero yields `None` (turned into
    /// an execution error by the evaluator); float division follows IEEE.
    pub fn div(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.checked_div(*b).map(Value::Int),
            _ => {
                let (a, b) = (self.as_double()?, other.as_double()?);
                Some(Value::Double(a / b))
            }
        }
    }

    /// Remainder, integer-only.
    pub fn rem(&self, other: &Value) -> Option<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.checked_rem(*b).map(Value::Int),
            _ => None,
        }
    }
}

fn arith(
    a: &Value,
    b: &Value,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    f_op: impl Fn(f64, f64) -> f64,
) -> Option<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => int_op(*x, *y).map(Value::Int),
        _ => {
            let (x, y) = (a.as_double()?, b.as_double()?);
            Some(Value::Double(f_op(x, y)))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Discriminant + canonicalized payload. `Int(i)` and `Double(i as
        // f64)` compare equal via total_cmp only when the Double is the exact
        // integer, so hash all numerics through the f64 bit pattern of their
        // numeric value when the double is integral; otherwise Int and Double
        // can never be Eq-equal unless numerically identical, in which case
        // the f64 bits agree.
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// A borrowed [`Value`]: what a column cell reads as without cloning its
/// string payload. Its equality, total order and hash are exactly
/// `Value`'s (pinned by a test), so a cell compared or hashed in place
/// agrees with the owned value it would materialize as. `Value` keeps its
/// own copies: routing its hot `Ord` through this view made sorts of
/// `Value`s measurably slower.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Double(f64),
    /// Borrowed string.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// True iff this is [`ValueRef::Null`].
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Float payload; integers widen (as [`Value::as_double`]).
    #[inline]
    pub fn as_double(self) -> Option<f64> {
        match self {
            ValueRef::Double(d) => Some(d),
            ValueRef::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The owned value (clones a string payload).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Double(d) => Value::Double(d),
            ValueRef::Str(s) => Value::Str(s.to_owned()),
        }
    }

    /// [`Value::total_cmp`].
    #[inline]
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(&b),
            (Double(a), Double(b)) => a.total_cmp(&b),
            (Int(a), Double(b)) => (a as f64).total_cmp(&b),
            (Double(a), Int(b)) => a.total_cmp(&(b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Str(_), _) => Ordering::Greater,
            (_, Str(_)) => Ordering::Less,
        }
    }
}

impl PartialEq for ValueRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(*other) == Ordering::Equal
    }
}

impl Hash for ValueRef<'_> {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The byte stream of `Value::hash`.
        match self {
            ValueRef::Null => 0u8.hash(state),
            ValueRef::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            ValueRef::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            ValueRef::Double(d) => {
                2u8.hash(state);
                d.to_bits().hash(state);
            }
            ValueRef::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_ref_agrees_with_value() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(1),
            Value::Int(i64::MAX),
            Value::Double(1.0),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(1.5),
            Value::Double(f64::NAN),
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        for a in &vals {
            assert_eq!(hash_of(a), hash_of_ref(a.view()), "{a}");
            assert_eq!(a.view().to_value().total_cmp(a), Ordering::Equal, "{a}");
            for b in &vals {
                assert_eq!(a.total_cmp(b), a.view().total_cmp(b.view()), "{a} vs {b}");
            }
        }
    }

    fn hash_of_ref(v: ValueRef<'_>) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Str(String::new()));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Double(2.0)), Ordering::Equal);
        assert!(Value::Int(2) < Value::Double(2.5));
        assert!(Value::Double(1.5) < Value::Int(2));
    }

    #[test]
    fn eq_implies_same_hash_for_mixed_numerics() {
        let a = Value::Int(42);
        let b = Value::Double(42.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn sql_tvl_with_null_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
    }

    #[test]
    fn arithmetic_coercion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(
            Value::Int(2).add(&Value::Double(0.5)),
            Some(Value::Double(2.5))
        );
        assert_eq!(Value::Int(1).div(&Value::Int(0)), None);
        assert_eq!(Value::Int(7).rem(&Value::Int(3)), Some(Value::Int(1)));
    }

    #[test]
    fn overflow_is_detected_not_wrapped() {
        assert_eq!(Value::Int(i64::MAX).add(&Value::Int(1)), None);
        assert_eq!(Value::Int(i64::MIN).sub(&Value::Int(1)), None);
    }

    #[test]
    fn string_ordering_and_display() {
        assert!(Value::from("abc") < Value::from("abd"));
        assert_eq!(Value::from("x").to_string(), "'x'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn byte_size_counts_string_heap() {
        let small = Value::Int(1).byte_size();
        let s = Value::Str("hello world, a heap string".to_owned());
        assert!(s.byte_size() > small);
    }

    #[test]
    fn nan_has_a_stable_total_order() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(Value::Double(f64::INFINITY) < nan);
    }
}
