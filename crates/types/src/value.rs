//! SQL values and data types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The data types supported by the engine.
///
/// The paper's running examples need strings, integers, and averages
/// (doubles); booleans round out predicate results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum DataType {
    Bool,
    Int,
    Double,
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Bool => write!(f, "BOOLEAN"),
            DataType::Int => write!(f, "INTEGER"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Str => write!(f, "VARCHAR"),
        }
    }
}

/// A single SQL value.
///
/// `Value` has a *total* order so rows can serve as hash/sort keys in
/// grouping, duplicate elimination (`SELECT DISTINCT`), and multiset
/// equality checks. The order places `Null` before everything else and
/// orders doubles by `f64::total_cmp`. Three-valued comparison logic for
/// SQL predicates is implemented in the expression evaluator, not here.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    Str(String),
}

impl Value {
    /// Returns the value's data type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerces to a double for arithmetic/aggregation; `None` for
    /// non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL (unknown), or when
    /// the types are incomparable.
    ///
    /// Ints and doubles compare numerically across types, and exactly:
    /// no two distinct integers are equal, so SQL equality is transitive
    /// (the prover's constant comparisons rely on that). Doubles compare
    /// by `f64::total_cmp`.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Double(a), Value::Double(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Double(b)) => Some(int_cmp_double(*a, *b)),
            (Value::Double(a), Value::Int(b)) => Some(int_cmp_double(*b, *a).reverse()),
            _ => None,
        }
    }

    /// Whether two values are comparable under SQL semantics (same type
    /// family, neither NULL).
    pub fn sql_comparable(&self, other: &Value) -> bool {
        self.sql_cmp(other).is_some()
    }
}

/// `a` against `b` exactly. Rounding `a` to the nearest double is
/// monotone, so a strict result of the rounded comparison is exact; a
/// tie means `b` is that rounding, an integral double of magnitude at
/// most 2^63, which `i128` holds exactly. `-0.0` stays below `0`, as
/// under `total_cmp`, so equal values keep equal `f64` bits.
fn int_cmp_double(a: i64, b: f64) -> Ordering {
    match (a as f64).total_cmp(&b) {
        Ordering::Equal => i128::from(a).cmp(&(b as i128)),
        unequal => unequal,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order for internal data structures: Null < Bool < numeric <
    /// Str; ints and doubles interleave numerically (ties broken with Int
    /// first so the order stays antisymmetric for e.g. `1` vs `1.0`).
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Double(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Int(a), Double(b)) => (*a as f64).total_cmp(b).then(Ordering::Less),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)).then(Ordering::Greater),
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Ints and doubles that are numerically equal are *not* `eq`
            // (tie-broken in `cmp`), so they may hash differently.
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Double(d) => {
                3u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                if d.fract() == 0.0 && d.is_finite() && d.abs() < 1e15 {
                    write!(f, "{d:.1}")
                } else {
                    write!(f, "{d}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
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

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn total_order_ranks() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Int(3),
            Value::Str("a".into()),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn numeric_interleave_is_antisymmetric() {
        let i = Value::Int(1);
        let d = Value::Double(1.0);
        assert_eq!(i.cmp(&d), Ordering::Less);
        assert_eq!(d.cmp(&i), Ordering::Greater);
        assert_ne!(i, d);
    }

    #[test]
    fn sql_cmp_crosses_numeric_types() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Double(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_is_exact_past_2_pow_53() {
        let (big, next) = (Value::Int(1 << 53), Value::Int((1 << 53) + 1));
        assert_eq!(next.sql_cmp(&big), Some(Ordering::Greater));
        assert_eq!(big.sql_cmp(&next), Some(Ordering::Less));
        // Both round to the same double, which equals only one of them.
        let double = Value::Double(9_007_199_254_740_992.0);
        assert_eq!(big.sql_cmp(&double), Some(Ordering::Equal));
        assert_eq!(next.sql_cmp(&double), Some(Ordering::Greater));
        assert_eq!(double.sql_cmp(&next), Some(Ordering::Less));
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Double(9_223_372_036_854_775_808.0)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_type_mismatch_is_none() {
        assert_eq!(Value::Str("1".into()).sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn eq_consistent_with_hash_for_identical_values() {
        let a = Value::Str("hello".into());
        let b = Value::Str("hello".into());
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        let c = Value::Double(2.5);
        let d = Value::Double(2.5);
        assert_eq!(c, d);
        assert_eq!(h(&c), h(&d));
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let a = Value::Double(f64::NAN);
        let b = Value::Double(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Double(2.0).to_string(), "2.0");
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Str(String::new()).data_type(), Some(DataType::Str));
    }
}
