//! Table schemas, index definitions, and the catalog.

use std::collections::BTreeMap;

use crate::error::{Result, StorageError};
use crate::value::{DataType, ValueRef};

/// The most columns a table may have: a column update records the
/// columns it wrote as one bit each ([`FieldSet`]).
pub const MAX_COLUMNS: usize = 64;

/// Stable identifier of a table within a database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    pub fn nullable(mut self) -> Self {
        self.nullable = true;
        self
    }
}

/// A secondary index over one or more columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    /// Column positions (into [`TableDef::columns`]) forming the key.
    pub columns: Vec<usize>,
    pub unique: bool,
}

/// A table declaration: columns plus secondary indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub indexes: Vec<IndexDef>,
}

impl TableDef {
    pub fn new(name: impl Into<String>) -> Self {
        TableDef {
            name: name.into(),
            columns: Vec::new(),
            indexes: Vec::new(),
        }
    }

    /// Add a `NOT NULL` column.
    pub fn column(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.columns.push(ColumnDef::new(name, ty));
        self
    }

    /// Add a nullable column.
    pub fn nullable_column(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.columns.push(ColumnDef::new(name, ty).nullable());
        self
    }

    /// Add a (non-unique) secondary index over the named columns.
    ///
    /// # Panics
    /// Panics at schema-definition time if a named column does not exist —
    /// schemas are static program text, so this is a programming error.
    pub fn index(self, name: impl Into<String>, columns: &[&str]) -> Self {
        self.index_inner(name, columns, false)
    }

    /// Add a unique secondary index over the named columns.
    pub fn unique_index(self, name: impl Into<String>, columns: &[&str]) -> Self {
        self.index_inner(name, columns, true)
    }

    fn index_inner(mut self, name: impl Into<String>, columns: &[&str], unique: bool) -> Self {
        let positions = columns
            .iter()
            .map(|c| {
                self.column_position(c)
                    .unwrap_or_else(|| panic!("index over unknown column `{c}`"))
            })
            .collect();
        self.indexes.push(IndexDef {
            name: name.into(),
            columns: positions,
            unique,
        });
        self
    }

    /// Position of `name` among the columns, if present.
    pub fn column_position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Position of `name`, or an [`StorageError::UnknownColumn`] error.
    pub fn require_column(&self, name: &str) -> Result<usize> {
        self.column_position(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })
    }

    /// Find an index definition by name.
    pub fn find_index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.name == name)
    }

    /// Validate a row against this schema (arity, types, nullability):
    /// the first column at fault, in column order, names the error.
    pub fn validate_row<'v>(
        &self,
        values: impl ExactSizeIterator<Item = ValueRef<'v>>,
    ) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
        }
        (values.enumerate()).try_for_each(|(pos, v)| self.validate_value(pos, v))
    }

    /// Validate one value against the column at `pos` (type, nullability).
    pub fn validate_value(&self, pos: usize, v: ValueRef<'_>) -> Result<()> {
        let col = &self.columns[pos];
        match v.data_type() {
            None if !col.nullable => Err(StorageError::NullViolation {
                table: self.name.clone(),
                column: col.name.clone(),
            }),
            Some(actual) if actual != col.ty => Err(StorageError::TypeMismatch {
                column: col.name.clone(),
                expected: col.ty,
                actual,
            }),
            _ => Ok(()),
        }
    }

    /// Refuse a table wider than [`MAX_COLUMNS`].
    fn check_width(&self) -> Result<()> {
        if self.columns.len() > MAX_COLUMNS {
            return Err(StorageError::TooManyColumns {
                table: self.name.clone(),
                columns: self.columns.len(),
            });
        }
        Ok(())
    }
}

/// A set of column positions below [`MAX_COLUMNS`], one bit each: the
/// fields a column update wrote, iterated in ascending order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FieldSet(u64);

impl FieldSet {
    /// The set holding `pos` alone.
    pub fn of(pos: usize) -> FieldSet {
        debug_assert!(
            pos < MAX_COLUMNS,
            "a table has at most {MAX_COLUMNS} columns"
        );
        FieldSet(1 << pos)
    }

    /// Every position in `self` or in `other`.
    pub fn union(self, other: FieldSet) -> FieldSet {
        FieldSet(self.0 | other.0)
    }

    /// Whether any of `positions` is in the set.
    pub fn meets(self, positions: &[usize]) -> bool {
        positions.iter().any(|&p| self.0 >> p & 1 == 1)
    }

    /// The positions, ascending.
    pub fn iter(self) -> FieldIter {
        FieldIter(self.0)
    }
}

/// The positions of a [`FieldSet`], ascending.
#[derive(Debug, Clone)]
pub struct FieldIter(u64);

impl Iterator for FieldIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let pos = self.0.trailing_zeros() as usize;
        (self.0 != 0).then(|| {
            self.0 &= self.0 - 1;
            pos
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FieldIter {}

/// The catalog: name → id → definition mapping for all tables.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    by_id: BTreeMap<TableId, TableDef>,
    by_name: BTreeMap<String, TableId>,
    next_id: u32,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table, allocating its id.
    pub fn register(&mut self, def: TableDef) -> Result<TableId> {
        def.check_width()?;
        if self.by_name.contains_key(&def.name) {
            return Err(StorageError::TableExists(def.name));
        }
        let id = TableId(self.next_id);
        self.next_id += 1;
        self.by_name.insert(def.name.clone(), id);
        self.by_id.insert(id, def);
        Ok(id)
    }

    /// Re-register a table under a fixed id (used by recovery).
    pub fn register_with_id(&mut self, id: TableId, def: TableDef) -> Result<()> {
        def.check_width()?;
        if self.by_name.contains_key(&def.name) {
            return Err(StorageError::TableExists(def.name));
        }
        self.next_id = self.next_id.max(id.0 + 1);
        self.by_name.insert(def.name.clone(), id);
        self.by_id.insert(id, def);
        Ok(())
    }

    pub fn remove(&mut self, name: &str) -> Result<TableId> {
        let id = self
            .by_name
            .remove(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))?;
        self.by_id.remove(&id);
        Ok(id)
    }

    pub fn lookup(&self, name: &str) -> Result<TableId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    pub fn definition(&self, id: TableId) -> Result<&TableDef> {
        self.by_id.get(&id).ok_or(StorageError::UnknownTableId(id))
    }

    pub fn tables(&self) -> impl Iterator<Item = (TableId, &TableDef)> {
        self.by_id.iter().map(|(id, def)| (*id, def))
    }

    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TableDef {
        TableDef::new("docs")
            .column("id", DataType::Id)
            .column("name", DataType::Text)
            .nullable_column("note", DataType::Text)
            .unique_index("docs_by_id", &["id"])
            .index("docs_by_name", &["name"])
    }

    #[test]
    fn builder_positions() {
        let t = sample();
        assert_eq!(t.column_position("id"), Some(0));
        assert_eq!(t.column_position("note"), Some(2));
        assert_eq!(t.column_position("missing"), None);
        assert_eq!(t.indexes[0].columns, vec![0]);
        assert!(t.indexes[0].unique);
        assert!(!t.indexes[1].unique);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn index_over_unknown_column_panics() {
        TableDef::new("t")
            .column("a", DataType::Int)
            .index("bad", &["b"]);
    }

    #[test]
    fn validate_row_checks_arity_types_nulls() {
        let t = sample();
        let check = |values: &[ValueRef]| t.validate_row(values.iter().copied());
        assert!(check(&[ValueRef::Id(1), ValueRef::Text("a"), ValueRef::Null]).is_ok());

        assert!(matches!(
            check(&[ValueRef::Id(1)]),
            Err(StorageError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        ));

        assert!(matches!(
            check(&[ValueRef::Int(1), ValueRef::Text("a"), ValueRef::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));

        assert!(matches!(
            check(&[ValueRef::Id(1), ValueRef::Null, ValueRef::Null]),
            Err(StorageError::NullViolation { .. })
        ));
    }

    #[test]
    fn a_table_has_at_most_max_columns() {
        let wide = |n: usize| {
            (0..n).fold(TableDef::new("wide"), |def, i| {
                def.column(format!("c{i}"), DataType::Int)
            })
        };
        let mut c = Catalog::new();
        c.register(wide(MAX_COLUMNS)).unwrap();
        assert_eq!(
            c.register(wide(MAX_COLUMNS + 1)),
            Err(StorageError::TooManyColumns {
                table: "wide".into(),
                columns: MAX_COLUMNS + 1
            })
        );
    }

    #[test]
    fn a_field_set_iterates_its_positions_ascending() {
        let set = FieldSet::of(9)
            .union(FieldSet::of(0))
            .union(FieldSet::of(63));
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 9, 63]);
        assert_eq!(set.iter().len(), 3);
        assert!(set.meets(&[1, 9]) && !set.meets(&[1, 2]));
        assert_eq!(FieldSet::default().iter().next(), None);
        assert_eq!(FieldSet::of(4).union(FieldSet::of(4)), FieldSet::of(4));
    }

    #[test]
    fn catalog_register_lookup_remove() {
        let mut c = Catalog::new();
        let id = c.register(sample()).unwrap();
        assert_eq!(c.lookup("docs").unwrap(), id);
        assert_eq!(c.definition(id).unwrap().name, "docs");
        assert!(matches!(
            c.register(sample()),
            Err(StorageError::TableExists(_))
        ));
        assert_eq!(c.len(), 1);
        c.remove("docs").unwrap();
        assert!(c.is_empty());
        assert!(c.lookup("docs").is_err());
    }

    #[test]
    fn catalog_register_with_id_keeps_counter_monotonic() {
        let mut c = Catalog::new();
        c.register_with_id(TableId(7), sample()).unwrap();
        let next = c
            .register(TableDef::new("other").column("x", DataType::Int))
            .unwrap();
        assert!(next.0 > 7);
    }
}
