//! The TeNDaX database schema.
//!
//! Everything the editor system persists is an ordinary table in the
//! storage engine — documents, characters, users, roles, access rights,
//! styles, notes, objects, the operation log, read events, paste events
//! and version snapshots. This is the "text as a first-class citizen of
//! the DBMS" part of the paper: there is no opaque blob anywhere; every
//! character is a tuple.

use tendax_storage::{DataType, Database, StorageError, TableDef, TableId};

use crate::error::{Result, TextError};

/// Table ids of the installed TeNDaX schema.
#[derive(Debug, Clone, Copy)]
pub struct Tables {
    pub users: TableId,
    pub roles: TableId,
    pub user_roles: TableId,
    pub documents: TableId,
    pub chars: TableId,
    pub oplog: TableId,
    pub op_effects: TableId,
    pub acl: TableId,
    pub styles: TableId,
    pub structure: TableId,
    pub notes: TableId,
    pub objects: TableId,
    pub reads: TableId,
    pub doc_versions: TableId,
    pub paste_events: TableId,
    pub templates: TableId,
    pub template_structs: TableId,
}

/// Names of every table the text extension owns, in install order.
pub const TABLE_NAMES: [&str; 17] = [
    "users",
    "roles",
    "user_roles",
    "documents",
    "chars",
    "oplog",
    "op_effects",
    "acl",
    "styles",
    "structure",
    "notes",
    "objects",
    "reads",
    "doc_versions",
    "paste_events",
    "templates",
    "template_structs",
];

fn users_def() -> TableDef {
    TableDef::new("users")
        .column("name", DataType::Text)
        .column("created_at", DataType::Timestamp)
        .unique_index("users_by_name", &["name"])
}

fn roles_def() -> TableDef {
    TableDef::new("roles")
        .column("name", DataType::Text)
        .unique_index("roles_by_name", &["name"])
}

fn user_roles_def() -> TableDef {
    TableDef::new("user_roles")
        .column("user", DataType::Id)
        .column("role", DataType::Id)
        .index("user_roles_by_user", &["user"])
        .index("user_roles_by_role", &["role"])
}

fn documents_def() -> TableDef {
    TableDef::new("documents")
        .column("name", DataType::Text)
        .column("creator", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .column("state", DataType::Text)
        .unique_index("documents_by_name", &["name"])
        .index("documents_by_creator", &["creator"])
}

/// The heart of TeNDaX: one tuple per character.
///
/// `anchor` is the character this one was inserted after (NULL at the
/// document's head): the paper's doubly-linked chain, held as one link
/// that never changes. A document's order is the preorder walk of the
/// tree the anchors make, a character's newer siblings first (DESIGN.md
/// §5.7); an insert writes its own rows and no other, and only a
/// tombstone purge rewrites an anchor. Deletion tombstones
/// (`deleted = true`) stay in the chain carrying full metadata — undo,
/// lineage, versioning and mining all read them. Copy-paste provenance
/// lives directly on the character (`src_doc`/`src_char` for internal
/// sources, `external_src` otherwise).
fn chars_def() -> TableDef {
    TableDef::new("chars")
        .column("doc", DataType::Id)
        .nullable_column("anchor", DataType::Id)
        .column("ch", DataType::Text)
        .column("author", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .column("version", DataType::Int)
        .column("deleted", DataType::Bool)
        .nullable_column("deleted_by", DataType::Id)
        .nullable_column("deleted_at", DataType::Timestamp)
        .nullable_column("style", DataType::Id)
        .nullable_column("src_doc", DataType::Id)
        .nullable_column("src_char", DataType::Id)
        .nullable_column("external_src", DataType::Text)
        .index("chars_by_doc", &["doc"])
}

/// One row per editing operation (the paper's "real-time transactions").
///
/// An index is kept only where a path that runs reads it (DESIGN.md
/// §5.12): undo/redo and history walk these newest-first with a
/// descending cursor, and a lookup or count by `doc` (or `doc, user`)
/// reads a leading-column prefix of them.
fn oplog_def() -> TableDef {
    TableDef::new("oplog")
        .column("doc", DataType::Id)
        .column("user", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("kind", DataType::Text)
        .nullable_column("target", DataType::Id)
        .column("undone", DataType::Bool)
        .index("oplog_by_doc_ts", &["doc", "ts"])
        .index("oplog_by_doc_user_ts", &["doc", "user", "ts"])
}

/// Relational effect list per operation — the undo/redo machinery reads
/// these instead of deserializing opaque payloads. A row is a *range*:
/// the `count` consecutively allocated ids from `first`, all with the
/// same kind and old/new value (DESIGN.md §5.12, "Range effects"); an
/// op's ranges are read in row-id order, the order they were written.
/// An effect row names rows of its op's own document (characters; a
/// structure element or a note, `count` 1, for those kinds), so the
/// effects of a document's characters are found through the document's
/// operations.
fn op_effects_def() -> TableDef {
    TableDef::new("op_effects")
        .column("op", DataType::Id)
        .column("kind", DataType::Text)
        .column("first", DataType::Id)
        .column("count", DataType::Int)
        .nullable_column("old_val", DataType::Text)
        .nullable_column("new_val", DataType::Text)
        .index("op_effects_by_op", &["op"])
}

/// Fine-grained access rights: whole-document or character-range scoped.
fn acl_def() -> TableDef {
    TableDef::new("acl")
        .column("doc", DataType::Id)
        .column("principal_kind", DataType::Text) // "user" | "role" | "all"
        .column("principal", DataType::Id) // 0 for "all"
        .column("perm", DataType::Text)
        .column("allow", DataType::Bool)
        .nullable_column("from_char", DataType::Id)
        .nullable_column("to_char", DataType::Id)
        .index("acl_by_doc", &["doc"])
}

fn styles_def() -> TableDef {
    TableDef::new("styles")
        .column("name", DataType::Text)
        .column("attrs", DataType::Text)
        .column("author", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .unique_index("styles_by_name", &["name"])
}

fn structure_def() -> TableDef {
    TableDef::new("structure")
        .column("doc", DataType::Id)
        .column("kind", DataType::Text)
        .column("from_char", DataType::Id)
        .column("to_char", DataType::Id)
        .column("author", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("deleted", DataType::Bool)
        .index("structure_by_doc", &["doc"])
}

fn notes_def() -> TableDef {
    TableDef::new("notes")
        .column("doc", DataType::Id)
        .column("from_char", DataType::Id)
        .column("to_char", DataType::Id)
        .column("author", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("text", DataType::Text)
        .column("deleted", DataType::Bool)
        .index("notes_by_doc", &["doc"])
}

/// Embedded objects (pictures, tables) anchored at a character.
fn objects_def() -> TableDef {
    TableDef::new("objects")
        .column("doc", DataType::Id)
        .column("anchor", DataType::Id)
        .column("kind", DataType::Text)
        .column("name", DataType::Text)
        .column("data", DataType::Bytes)
        .column("author", DataType::Id)
        .column("ts", DataType::Timestamp)
        .index("objects_by_doc", &["doc"])
}

/// Read events: who opened which document when (feeds dynamic folders and
/// "most read" ranking).
fn reads_def() -> TableDef {
    TableDef::new("reads")
        .column("doc", DataType::Id)
        .column("user", DataType::Id)
        .column("ts", DataType::Timestamp)
        .index("reads_by_doc", &["doc"])
        .index("reads_by_user", &["user"])
}

fn doc_versions_def() -> TableDef {
    TableDef::new("doc_versions")
        .column("doc", DataType::Id)
        .column("name", DataType::Text)
        .column("author", DataType::Id)
        .column("ts", DataType::Timestamp)
        .column("content", DataType::Text)
        .index("doc_versions_by_doc", &["doc"])
}

/// Copy-paste provenance events, the raw material of data lineage (Fig. 1).
fn paste_events_def() -> TableDef {
    TableDef::new("paste_events")
        .column("target_doc", DataType::Id)
        .column("user", DataType::Id)
        .column("ts", DataType::Timestamp)
        .nullable_column("src_doc", DataType::Id)
        .nullable_column("external", DataType::Text)
        .column("n_chars", DataType::Int)
        .index("paste_events_by_target", &["target_doc"])
        .index("paste_events_by_src", &["src_doc"])
}

/// Document blueprints: initial content plus structure elements.
fn templates_def() -> TableDef {
    TableDef::new("templates")
        .column("name", DataType::Text)
        .column("author", DataType::Id)
        .column("created_at", DataType::Timestamp)
        .column("content", DataType::Text)
        .unique_index("templates_by_name", &["name"])
}

/// Structure elements of a template, addressed by character positions
/// into the template content.
fn template_structs_def() -> TableDef {
    TableDef::new("template_structs")
        .column("template", DataType::Id)
        .column("kind", DataType::Text)
        .column("pos", DataType::Int)
        .column("len", DataType::Int)
        .index("template_structs_by_template", &["template"])
}

fn all_defs() -> Vec<TableDef> {
    vec![
        users_def(),
        roles_def(),
        user_roles_def(),
        documents_def(),
        chars_def(),
        oplog_def(),
        op_effects_def(),
        acl_def(),
        styles_def(),
        structure_def(),
        notes_def(),
        objects_def(),
        reads_def(),
        doc_versions_def(),
        paste_events_def(),
        templates_def(),
        template_structs_def(),
    ]
}

/// `name type[?]` per column, `?` marking a nullable one.
fn column_list(def: &TableDef) -> String {
    let cols: Vec<String> = (def.columns.iter())
        .map(|c| format!("{} {:?}{}", c.name, c.ty, if c.nullable { "?" } else { "" }))
        .collect();
    cols.join(", ")
}

impl Tables {
    /// Install the TeNDaX schema into `db` (idempotent: existing tables
    /// are reused), returning the resolved table ids.
    ///
    /// An existing table must have exactly the expected columns — names,
    /// types and nullability; its indexes may differ (a catalog written
    /// before PR 21 still lists three indexes nothing reads). Every
    /// existing table is checked before anything is created, so a refused
    /// database ([`TextError::SchemaMismatch`]) is left as it was.
    pub fn install(db: &Database) -> Result<Tables> {
        let defs = all_defs();
        for def in &defs {
            let Ok(id) = db.table_id(&def.name) else {
                continue;
            };
            let found = db.table_def(id)?;
            if found.columns != def.columns {
                return Err(TextError::SchemaMismatch {
                    table: def.name.clone(),
                    found: column_list(&found),
                    expected: column_list(def),
                });
            }
        }
        for def in defs {
            match db.create_table(def) {
                Ok(_) | Err(StorageError::TableExists(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(Tables {
            users: db.table_id("users")?,
            roles: db.table_id("roles")?,
            user_roles: db.table_id("user_roles")?,
            documents: db.table_id("documents")?,
            chars: db.table_id("chars")?,
            oplog: db.table_id("oplog")?,
            op_effects: db.table_id("op_effects")?,
            acl: db.table_id("acl")?,
            styles: db.table_id("styles")?,
            structure: db.table_id("structure")?,
            notes: db.table_id("notes")?,
            objects: db.table_id("objects")?,
            reads: db.table_id("reads")?,
            doc_versions: db.table_id("doc_versions")?,
            paste_events: db.table_id("paste_events")?,
            templates: db.table_id("templates")?,
            template_structs: db.table_id("template_structs")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tendax_storage::Database;

    #[test]
    fn install_creates_all_tables() {
        let db = Database::open_in_memory();
        let _t = Tables::install(&db).unwrap();
        let names = db.table_names();
        for expected in TABLE_NAMES {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        assert_eq!(names.len(), TABLE_NAMES.len());
    }

    #[test]
    fn install_is_idempotent() {
        let db = Database::open_in_memory();
        let a = Tables::install(&db).unwrap();
        let b = Tables::install(&db).unwrap();
        assert_eq!(a.chars, b.chars);
        assert_eq!(a.documents, b.documents);
        assert_eq!(db.table_names().len(), TABLE_NAMES.len());
    }

    #[test]
    fn chars_schema_has_provenance_columns() {
        let db = Database::open_in_memory();
        let t = Tables::install(&db).unwrap();
        let def = db.table_def(t.chars).unwrap();
        for col in ["anchor", "src_doc", "src_char", "external_src", "deleted"] {
            assert!(def.column_position(col).is_some(), "missing column {col}");
        }
        for gone in ["prev", "next"] {
            assert!(def.column_position(gone).is_none(), "column {gone} is back");
        }
    }
}
