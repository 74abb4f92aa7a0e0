//! Table schemas, index definitions, and the catalog.

use std::collections::BTreeMap;

use crate::error::{Result, StorageError};
use crate::value::{DataType, Value};

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

    /// Validate a row against this schema (arity, types, nullability).
    pub fn validate_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
        }
        (values.iter().enumerate()).try_for_each(|(pos, v)| self.validate_value(pos, v))
    }

    /// Validate one value against the column at `pos` (type, nullability).
    pub fn validate_value(&self, pos: usize, v: &Value) -> Result<()> {
        let col = &self.columns[pos];
        if v.is_null() {
            if !col.nullable {
                return Err(StorageError::NullViolation {
                    table: self.name.clone(),
                    column: col.name.clone(),
                });
            }
        } else if !v.conforms_to(col.ty) {
            return Err(StorageError::TypeMismatch {
                column: col.name.clone(),
                expected: col.ty,
                actual: v.data_type().expect("non-null value has a type"),
            });
        }
        Ok(())
    }
}

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
        let ok = vec![Value::Id(1), Value::Text("a".into()), Value::Null];
        assert!(t.validate_row(&ok).is_ok());

        let bad_arity = vec![Value::Id(1)];
        assert!(matches!(
            t.validate_row(&bad_arity),
            Err(StorageError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        ));

        let bad_type = vec![Value::Int(1), Value::Text("a".into()), Value::Null];
        assert!(matches!(
            t.validate_row(&bad_type),
            Err(StorageError::TypeMismatch { .. })
        ));

        let bad_null = vec![Value::Id(1), Value::Null, Value::Null];
        assert!(matches!(
            t.validate_row(&bad_null),
            Err(StorageError::NullViolation { .. })
        ));
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
