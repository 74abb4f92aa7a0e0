//! Rows and row identifiers.

use std::sync::Arc;

use crate::value::{Value, ValueRef};
use crate::wal::codec;

/// A committed row: its on-disk bytes (DESIGN §5.12 — the `Put` op
/// header, two header bits per column, then the present values,
/// varint-coded) in one immutable, reference-counted allocation, shared
/// between the version store, readers, the WAL encoder and index
/// maintenance. A clone is one atomic increment; a column read decodes
/// by value into a [`ValueRef`] that borrows text and bytes from the
/// row, so reading allocates nothing. Callers that need to mutate
/// materialize an owned [`Row`] with [`SharedRow::to_row`].
///
/// The bytes are checked once, where they are produced: packed from
/// values a transaction has validated, or decoded from a log frame, a
/// checkpoint batch or a cold run by [`codec`]. Nothing else can build
/// one, so a read cannot fail.
#[derive(Clone)]
pub struct SharedRow(Arc<[u8]>);

/// Why decoding a [`SharedRow`]'s own bytes cannot fail.
const CHECKED: &str = "a SharedRow holds bytes that were checked when it was built";

impl SharedRow {
    /// Pack `values` into the row's one allocation: where a row is
    /// built, once.
    pub(crate) fn pack<'a>(values: impl ExactSizeIterator<Item = ValueRef<'a>>) -> Self {
        SharedRow(codec::pack_row(values))
    }

    /// This row with the value at each position `new` gives one for
    /// replaced: packed to packed, nothing materialized in between.
    pub(crate) fn with_updates<'v>(&self, new: impl Fn(usize) -> Option<ValueRef<'v>>) -> Self {
        Self::pack((self.iter().enumerate()).map(move |(pos, old)| new(pos).unwrap_or(old)))
    }

    /// Wrap bytes [`codec::get_op`] has just decoded every column of.
    pub(crate) fn from_checked(packed: &[u8]) -> Self {
        SharedRow(packed.into())
    }

    /// The row as a `Put` op carries it.
    pub(crate) fn packed(&self) -> &[u8] {
        &self.0
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.iter().cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `pos`, decoded in place. NULL and `Bool` columns are
    /// read off the row's header; for any other, the present values
    /// before it are stepped over, not interpreted. To read several
    /// columns of one row use [`SharedRow::cols`], and to read most of
    /// them walk [`SharedRow::iter`] once.
    #[inline]
    pub fn get(&self, pos: usize) -> Option<ValueRef<'_>> {
        self.iter().seek(pos)
    }

    /// Whether the value at `pos` is NULL (or `pos` is past the end):
    /// two bits of the row's header, whatever the column holds.
    #[inline]
    pub fn is_null(&self, pos: usize) -> bool {
        let columns = self.iter();
        pos >= columns.cols
            || matches!(
                codec::header_value(columns.header, pos),
                Some(ValueRef::Null)
            )
    }

    /// The values at `positions`, which ascend, found in one walk over
    /// the row; `Null` for a position past its end.
    #[inline]
    pub fn cols<const N: usize>(&self, positions: [usize; N]) -> [ValueRef<'_>; N] {
        let mut columns = self.iter();
        positions.map(|pos| columns.seek(pos).unwrap_or(ValueRef::Null))
    }

    /// The columns in schema order, each decoded as it is reached.
    #[inline]
    pub fn iter(&self) -> Columns<'_> {
        let (cols, header, present) = codec::unpack_row(&self.0).expect(CHECKED);
        Columns {
            header,
            present,
            col: 0,
            cols,
        }
    }

    /// An owned copy of every value.
    pub fn values(&self) -> Vec<Value> {
        self.iter().map(ValueRef::to_value).collect()
    }

    /// The owned, mutable form of this row.
    pub fn to_row(&self) -> Row {
        Row::new(self.values())
    }

    /// Whether two handles share one allocation (not merely equal
    /// values).
    pub fn ptr_eq(a: &SharedRow, b: &SharedRow) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Heap bytes this row asks of the allocator: the two reference
    /// counts and the packed bytes, in its one allocation.
    pub fn resident_bytes(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        (2 * word + self.0.len()).next_multiple_of(word)
    }
}

/// Rows are equal when their values are, under [`Value`]'s total order
/// (floats bit for bit). Rows this process packed have one encoding, so
/// equal bytes decide it; bytes from a file may spell a varint longer.
impl PartialEq for SharedRow {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 || self.iter().eq(other.iter())
    }
}

impl Eq for SharedRow {}

impl std::fmt::Debug for SharedRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the columns of a [`SharedRow`].
#[derive(Debug, Clone)]
pub struct Columns<'a> {
    header: &'a [u8],
    present: &'a [u8],
    /// The column [`Iterator::next`] yields.
    col: usize,
    cols: usize,
}

impl<'a> Columns<'a> {
    /// The value at `pos`, which is at or past the cursor. A column the
    /// header holds is answered from there and leaves the cursor where
    /// it was; otherwise the cursor steps over the present values in
    /// between and ends just past `pos`.
    #[inline]
    fn seek(&mut self, pos: usize) -> Option<ValueRef<'a>> {
        if pos >= self.cols {
            return None;
        }
        if let Some(v) = codec::header_value(self.header, pos) {
            return Some(v);
        }
        assert!(pos >= self.col, "positions ascend");
        for _ in 0..codec::present_between(self.header, self.col, pos) {
            codec::skip_value(&mut self.present).expect(CHECKED);
        }
        self.col = pos + 1;
        Some(codec::get_value(&mut self.present).expect(CHECKED))
    }
}

impl<'a> Iterator for Columns<'a> {
    type Item = ValueRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<ValueRef<'a>> {
        if self.col == self.cols {
            return None;
        }
        let v = codec::get_column(self.header, self.col, &mut self.present).expect(CHECKED);
        self.col += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cols - self.col;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Columns<'_> {}

/// Stable identifier of a row within one table. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u64);

impl RowId {
    pub const fn new(v: u64) -> Self {
        RowId(v)
    }
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A materialized row: the values in schema column order, the owned,
/// mutable form. A transaction packs it into a [`SharedRow`] as it would
/// the same values borrowed (`Transaction::insert_refs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Pack this row into its committed form.
    pub fn into_shared(self) -> SharedRow {
        SharedRow::pack(self.values.iter().map(Value::view))
    }

    pub fn get(&self, pos: usize) -> Option<&Value> {
        self.values.get(pos)
    }

    /// Replace the value at `pos`. Panics if out of range (caller validated
    /// the position against the schema).
    pub fn set(&mut self, pos: usize, value: Value) {
        self.values[pos] = value;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Macro building a row from heterogeneous literals: `row![Value::Id(1), "x", 3i64]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::row::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_accessors() {
        let mut r = Row::new(vec![Value::Id(1), Value::Text("a".into())]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0), Some(&Value::Id(1)));
        assert_eq!(r.get(5), None);
        r.set(1, Value::Text("b".into()));
        assert_eq!(r.get(1).unwrap().as_text(), Some("b"));
        assert!(!r.is_empty());
    }

    fn chars_like() -> Vec<Value> {
        vec![
            Value::Id(7),
            Value::Null,
            Value::Id(70_000),
            Value::Text("é".into()),
            Value::Timestamp(-3),
            Value::Bool(true),
            Value::Null,
            Value::Bytes(vec![0, 255]),
            Value::Float(-0.0),
            Value::Bool(false),
        ]
    }

    #[test]
    fn a_shared_row_reads_back_what_was_packed() {
        let values = chars_like();
        let shared = Row::new(values.clone()).into_shared();
        assert_eq!(shared.len(), values.len());
        assert!(!shared.is_empty());
        assert_eq!(shared.values(), values);
        assert_eq!(shared.to_row().values(), values);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(shared.get(i), Some(v.view()), "column {i}");
            assert_eq!(shared.is_null(i), v.is_null(), "column {i}");
        }
        assert_eq!(shared.get(values.len()), None);
        assert!(shared.is_null(values.len()));
        assert_eq!(shared.get(3).unwrap().as_text(), Some("é"));
        // Several columns in one walk, header-held ones among them.
        let [a, b, c, past] = shared.cols([0, 5, 7, 99]);
        assert_eq!(
            (a.as_id(), b.as_bool(), c.as_bytes()),
            (Some(7), Some(true), Some(&[0, 255][..]))
        );
        assert!(past.is_null());
        assert_eq!(
            format!("{shared:?}"),
            format!("{:?}", shared.iter().collect::<Vec<_>>())
        );
        let none = Row::new(vec![]).into_shared();
        assert!(none.is_empty());
        assert_eq!(none.get(0), None);
    }

    #[test]
    fn with_updates_replaces_columns_in_place() {
        let shared = Row::new(chars_like()).into_shared();
        let text = Value::Text("longer than before".into());
        let patched = shared.with_updates(|pos| match pos {
            1 => Some(ValueRef::Id(9)),
            3 => Some(text.view()),
            5 => Some(ValueRef::Null),
            _ => None,
        });
        let mut want = chars_like();
        want[1] = Value::Id(9);
        want[3] = text.clone();
        want[5] = Value::Null;
        assert_eq!(patched.values(), want);
        assert_eq!(patched.packed(), Row::new(want).into_shared().packed());
    }

    #[test]
    fn rows_are_equal_when_their_values_are() {
        let a = Row::new(chars_like()).into_shared();
        let b = Row::new(chars_like()).into_shared();
        assert_eq!(a, b);
        assert!(!SharedRow::ptr_eq(&a, &b));
        assert!(SharedRow::ptr_eq(&a, &a.clone()));
        // One 16-byte allocation header and the packed bytes.
        assert_eq!(
            a.resident_bytes(),
            (16 + a.packed().len()).next_multiple_of(8)
        );
        let mut other = chars_like();
        other[8] = Value::Float(0.0); // differs from -0.0 bit for bit
        assert_ne!(a, Row::new(other).into_shared());
        let mut shorter = chars_like();
        shorter.pop();
        assert_ne!(a, Row::new(shorter).into_shared());
    }

    #[test]
    fn row_macro_converts_literals() {
        let r = row![1u64, "hello", true, 42i64];
        assert_eq!(
            r.values(),
            &[
                Value::Id(1),
                Value::Text("hello".into()),
                Value::Bool(true),
                Value::Int(42)
            ]
        );
    }

    #[test]
    fn rowid_display() {
        assert_eq!(RowId(9).to_string(), "r9");
    }
}
