//! Typed values and data types stored in engine rows.
//!
//! The engine is schema-first: every column declares a [`DataType`] and the
//! engine rejects ill-typed writes at statement time, mirroring how the
//! TeNDaX prototype relied on its host DBMS's type system.

use std::cmp::Ordering;
use std::fmt;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit unsigned identifier (row ids, character ids, user ids, …).
    Id,
    /// UTF-8 string.
    Text,
    /// Boolean flag.
    Bool,
    /// Opaque byte blob (embedded objects: pictures, serialized tables, …).
    Bytes,
    /// Microseconds since the epoch of the engine clock.
    Timestamp,
    /// 64-bit float (mining feature values, rank scores).
    Float,
}

impl DataType {
    /// Where this type's values sort among other types' in
    /// [`Value::total_cmp`] (`Null`, ranked 0, sorts before them all).
    pub(crate) fn rank(self) -> u8 {
        match self {
            DataType::Bool => 1,
            DataType::Int => 2,
            DataType::Id => 3,
            DataType::Timestamp => 4,
            DataType::Float => 5,
            DataType::Text => 6,
            DataType::Bytes => 7,
        }
    }
}

/// A single typed value.
///
/// `Null` is a value of every type; columns declared `NOT NULL` reject it.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Id(u64),
    Text(String),
    Bool(bool),
    Bytes(Vec<u8>),
    Timestamp(i64),
    Float(f64),
}

impl Value {
    /// The dynamic type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        self.view().data_type()
    }

    /// Whether this value may be stored in a column of `ty`.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true, // Null conforms; NOT NULL is checked separately.
            Some(actual) => actual == ty,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        self.view().as_int()
    }

    /// Extract a `u64`, if this is an `Id`.
    pub fn as_id(&self) -> Option<u64> {
        self.view().as_id()
    }

    /// Extract a `&str`, if this is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        self.view().as_text()
    }

    pub fn as_bool(&self) -> Option<bool> {
        self.view().as_bool()
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        self.view().as_bytes()
    }

    pub fn as_timestamp(&self) -> Option<i64> {
        self.view().as_timestamp()
    }

    pub fn as_float(&self) -> Option<f64> {
        self.view().as_float()
    }

    /// This value, borrowed: what a column read of a packed row hands
    /// out, so code that reads rows and code that reads owned values can
    /// share one signature.
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Id(v) => ValueRef::Id(*v),
            Value::Text(v) => ValueRef::Text(v),
            Value::Bool(v) => ValueRef::Bool(*v),
            Value::Bytes(v) => ValueRef::Bytes(v),
            Value::Timestamp(v) => ValueRef::Timestamp(*v),
            Value::Float(v) => ValueRef::Float(*v),
        }
    }

    /// Total order used by indexes and range scans.
    ///
    /// `Null` sorts before everything; values of different types sort by a
    /// fixed type rank so that heterogeneous comparisons are total rather
    /// than panicking. Floats use IEEE total ordering.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.view().total_cmp(other.view())
    }
}

/// A borrowed [`Value`]: what reading one column of a committed row
/// yields. Numbers are decoded by value; `Text` and `Bytes` point into
/// the row, so reading them allocates nothing. Same accessors, same
/// total order and same `Display` as [`Value`].
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Int(i64),
    Id(u64),
    Text(&'a str),
    Bool(bool),
    Bytes(&'a [u8]),
    Timestamp(i64),
    Float(f64),
}

impl<'a> ValueRef<'a> {
    /// An owned copy (allocates for `Text` and `Bytes`).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Id(v) => Value::Id(v),
            ValueRef::Text(v) => Value::Text(v.to_owned()),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Bytes(v) => Value::Bytes(v.to_vec()),
            ValueRef::Timestamp(v) => Value::Timestamp(v),
            ValueRef::Float(v) => Value::Float(v),
        }
    }

    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// [`Value::data_type`], on a borrowed value.
    pub fn data_type(self) -> Option<DataType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Int(_) => Some(DataType::Int),
            ValueRef::Id(_) => Some(DataType::Id),
            ValueRef::Text(_) => Some(DataType::Text),
            ValueRef::Bool(_) => Some(DataType::Bool),
            ValueRef::Bytes(_) => Some(DataType::Bytes),
            ValueRef::Timestamp(_) => Some(DataType::Timestamp),
            ValueRef::Float(_) => Some(DataType::Float),
        }
    }

    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_id(self) -> Option<u64> {
        match self {
            ValueRef::Id(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_text(self) -> Option<&'a str> {
        match self {
            ValueRef::Text(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(self) -> Option<bool> {
        match self {
            ValueRef::Bool(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bytes(self) -> Option<&'a [u8]> {
        match self {
            ValueRef::Bytes(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_timestamp(self) -> Option<i64> {
        match self {
            ValueRef::Timestamp(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_float(self) -> Option<f64> {
        match self {
            ValueRef::Float(v) => Some(v),
            _ => None,
        }
    }

    /// [`Value::total_cmp`], on borrowed values.
    pub fn total_cmp(self, other: ValueRef<'_>) -> Ordering {
        let rank = |v: ValueRef<'_>| v.data_type().map_or(0, DataType::rank);
        match (self, other) {
            (ValueRef::Null, ValueRef::Null) => Ordering::Equal,
            (ValueRef::Bool(a), ValueRef::Bool(b)) => a.cmp(&b),
            (ValueRef::Int(a), ValueRef::Int(b)) => a.cmp(&b),
            (ValueRef::Id(a), ValueRef::Id(b)) => a.cmp(&b),
            (ValueRef::Timestamp(a), ValueRef::Timestamp(b)) => a.cmp(&b),
            (ValueRef::Float(a), ValueRef::Float(b)) => a.total_cmp(&b),
            (ValueRef::Text(a), ValueRef::Text(b)) => a.cmp(b),
            (ValueRef::Bytes(a), ValueRef::Bytes(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(*other) == Ordering::Equal
    }
}

impl Eq for ValueRef<'_> {}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(*other)
    }
}

impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        *self == other.view()
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Id(v) => write!(f, "#{v}"),
            ValueRef::Text(v) => write!(f, "{v:?}"),
            ValueRef::Bool(v) => write!(f, "{v}"),
            ValueRef::Bytes(v) => write!(f, "<{} bytes>", v.len()),
            ValueRef::Timestamp(v) => write!(f, "@{v}"),
            ValueRef::Float(v) => write!(f, "{v}"),
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

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Value::Int(v) => {
                2u8.hash(state);
                v.hash(state);
            }
            Value::Id(v) => {
                3u8.hash(state);
                v.hash(state);
            }
            Value::Timestamp(v) => {
                4u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                5u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(v) => {
                6u8.hash(state);
                v.hash(state);
            }
            Value::Bytes(v) => {
                7u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Id(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance() {
        assert!(Value::Int(3).conforms_to(DataType::Int));
        assert!(!Value::Int(3).conforms_to(DataType::Text));
        assert!(Value::Null.conforms_to(DataType::Text));
        assert!(Value::Null.conforms_to(DataType::Bytes));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(-7).as_int(), Some(-7));
        assert_eq!(Value::Id(9).as_id(), Some(9));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Timestamp(5).as_timestamp(), Some(5));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::Int(1).as_text(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn ordering_within_type() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
        assert!(Value::Timestamp(10) < Value::Timestamp(11));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Float(0.0));
    }

    #[test]
    fn null_sorts_first_and_cross_type_is_total() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(i64::MIN));
        assert!(Value::Int(i64::MAX) < Value::Id(0));
        // Antisymmetry spot-check.
        let a = Value::Text("x".into());
        let b = Value::Id(1);
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    }

    #[test]
    fn float_nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3u64), Value::Id(3));
        assert_eq!(Value::from("s"), Value::Text("s".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(2i64)), Value::Int(2));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Id(4).to_string(), "#4");
        assert_eq!(Value::Bytes(vec![1, 2]).to_string(), "<2 bytes>");
    }
}
