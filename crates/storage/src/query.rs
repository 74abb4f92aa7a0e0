//! Typed predicates and a small access-path planner.
//!
//! The engine does not parse SQL; clients build [`Predicate`] trees with a
//! fluent API. [`plan_access`] inspects the conjunctive normal form of a
//! predicate and picks an index access path (point or prefix lookup) when
//! one applies, falling back to a full scan otherwise. TeNDaX metadata
//! queries (dynamic folders, search, lineage) all route through this layer.

use crate::error::Result;
use crate::row::SharedRow;
use crate::schema::TableDef;
use crate::value::{Value, ValueRef};

/// A boolean predicate over one row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan everything).
    True,
    /// Column equals value.
    Eq(String, Value),
    /// Column does not equal value (null-safe: null ≠ anything is true).
    Ne(String, Value),
    /// Column strictly less than value.
    Lt(String, Value),
    /// Column ≤ value.
    Le(String, Value),
    /// Column strictly greater than value.
    Gt(String, Value),
    /// Column ≥ value.
    Ge(String, Value),
    /// Column between lo and hi, inclusive.
    Between(String, Value, Value),
    /// Column is one of the listed values.
    In(String, Vec<Value>),
    /// Column is NULL.
    IsNull(String),
    /// Text column contains the given substring.
    Contains(String, String),
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `a AND b` convenience.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::And(mut v), Predicate::And(w)) => {
                v.extend(w);
                Predicate::And(v)
            }
            (Predicate::And(mut v), p) => {
                v.push(p);
                Predicate::And(v)
            }
            (p, Predicate::And(mut v)) => {
                v.insert(0, p);
                Predicate::And(v)
            }
            (a, b) => Predicate::And(vec![a, b]),
        }
    }

    /// `a OR b` convenience.
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(vec![self, other])
    }

    /// Evaluate against a row under `def`'s column naming.
    ///
    /// Unknown columns surface as errors (they indicate a bug in the
    /// caller's query, not a data condition).
    pub fn eval(&self, def: &TableDef, row: &SharedRow) -> Result<bool> {
        Ok(match self {
            Predicate::True => true,
            Predicate::Eq(c, v) => {
                let x = col(def, row, c)?;
                !x.is_null() && x == *v
            }
            Predicate::Ne(c, v) => {
                let x = col(def, row, c)?;
                x.is_null() || x != *v
            }
            Predicate::Lt(c, v) => cmp_col(def, row, c, v)?.is_some_and(|o| o.is_lt()),
            Predicate::Le(c, v) => cmp_col(def, row, c, v)?.is_some_and(|o| o.is_le()),
            Predicate::Gt(c, v) => cmp_col(def, row, c, v)?.is_some_and(|o| o.is_gt()),
            Predicate::Ge(c, v) => cmp_col(def, row, c, v)?.is_some_and(|o| o.is_ge()),
            Predicate::Between(c, lo, hi) => {
                let x = col(def, row, c)?;
                !x.is_null() && x >= lo.view() && x <= hi.view()
            }
            Predicate::In(c, vs) => {
                let x = col(def, row, c)?;
                !x.is_null() && vs.iter().any(|v| x == *v)
            }
            Predicate::IsNull(c) => col(def, row, c)?.is_null(),
            Predicate::Contains(c, needle) => col(def, row, c)?
                .as_text()
                .is_some_and(|t| t.contains(needle)),
            Predicate::And(ps) => {
                for p in ps {
                    if !p.eval(def, row)? {
                        return Ok(false);
                    }
                }
                true
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.eval(def, row)? {
                        return Ok(true);
                    }
                }
                false
            }
            Predicate::Not(p) => !p.eval(def, row)?,
        })
    }

    /// Push this predicate's top-level `column = literal` conjuncts onto
    /// `out`, by column position.
    fn equalities<'p>(&'p self, def: &TableDef, out: &mut Vec<(usize, &'p Value)>) {
        match self {
            Predicate::And(ps) => ps.iter().for_each(|p| p.equalities(def, out)),
            Predicate::Eq(c, v) => out.extend(def.column_position(c).map(|pos| (pos, v))),
            _ => {}
        }
    }
}

fn col<'r>(def: &TableDef, row: &'r SharedRow, name: &str) -> Result<ValueRef<'r>> {
    let pos = def.require_column(name)?;
    Ok(row.get(pos).unwrap_or(ValueRef::Null))
}

fn cmp_col(
    def: &TableDef,
    row: &SharedRow,
    name: &str,
    v: &Value,
) -> Result<Option<std::cmp::Ordering>> {
    let x = col(def, row, name)?;
    if x.is_null() || v.is_null() {
        return Ok(None); // SQL-ish: comparisons with NULL are unknown
    }
    Ok(Some(x.total_cmp(v.view())))
}

/// The access path chosen for a query.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan every visible row.
    FullScan,
    /// Point/prefix lookup on the index at position `index_pos`, with the
    /// given key prefix (values for the leading index columns).
    IndexPrefix {
        index_pos: usize,
        prefix: Vec<Value>,
    },
}

/// Choose an access path for `pred` over `def`.
///
/// Strategy: collect `col = literal` conjuncts, then pick the index whose
/// leading columns are maximally covered by them. Range conjuncts fall back
/// to a full scan (the storage layer's dedicated `index_range` API covers
/// ordered scans where callers know the index they want).
pub fn plan_access(def: &TableDef, pred: &Predicate) -> AccessPath {
    let mut eqs: Vec<(usize, &Value)> = Vec::new();
    pred.equalities(def, &mut eqs);
    let literal = |col: usize| eqs.iter().find(|(pos, _)| *pos == col).map(|(_, v)| *v);
    // The first index with the longest covered prefix.
    let mut best: Option<(usize, usize)> = None;
    for (ipos, idx) in def.indexes.iter().enumerate() {
        let covered = (idx.columns.iter())
            .take_while(|&&col| literal(col).is_some())
            .count();
        if covered > best.map_or(0, |(_, len)| len) {
            best = Some((ipos, covered));
        }
    }
    match best {
        Some((index_pos, len)) => AccessPath::IndexPrefix {
            index_pos,
            prefix: def.indexes[index_pos].columns[..len]
                .iter()
                .filter_map(|&col| literal(col).cloned())
                .collect(),
        },
        None => AccessPath::FullScan,
    }
}

/// Human-readable plan description (EXPLAIN analogue, used in tests and by
/// the bench harness to prove which path a workload exercises).
pub fn explain(def: &TableDef, pred: &Predicate) -> String {
    match plan_access(def, pred) {
        AccessPath::FullScan => format!("FullScan({})", def.name),
        AccessPath::IndexPrefix { index_pos, prefix } => {
            let idx = &def.indexes[index_pos];
            format!(
                "IndexPrefix({}.{}, prefix_len={})",
                def.name,
                idx.name,
                prefix.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::DataType;

    fn def() -> TableDef {
        TableDef::new("chars")
            .column("doc", DataType::Id)
            .column("author", DataType::Id)
            .column("text", DataType::Text)
            .nullable_column("note", DataType::Text)
            .index("by_doc_author", &["doc", "author"])
            .index("by_author", &["author"])
    }

    fn row(doc: u64, author: u64, text: &str) -> SharedRow {
        Row::new(vec![
            Value::Id(doc),
            Value::Id(author),
            Value::Text(text.into()),
            Value::Null,
        ])
        .into_shared()
    }

    #[test]
    fn eval_comparisons() {
        let d = def();
        let r = row(1, 2, "hello world");
        assert!(Predicate::Eq("doc".into(), Value::Id(1))
            .eval(&d, &r)
            .unwrap());
        assert!(!Predicate::Eq("doc".into(), Value::Id(9))
            .eval(&d, &r)
            .unwrap());
        assert!(Predicate::Ne("doc".into(), Value::Id(9))
            .eval(&d, &r)
            .unwrap());
        assert!(Predicate::Gt("author".into(), Value::Id(1))
            .eval(&d, &r)
            .unwrap());
        assert!(Predicate::Le("author".into(), Value::Id(2))
            .eval(&d, &r)
            .unwrap());
        assert!(
            Predicate::Between("author".into(), Value::Id(2), Value::Id(5))
                .eval(&d, &r)
                .unwrap()
        );
        assert!(
            Predicate::In("doc".into(), vec![Value::Id(3), Value::Id(1)])
                .eval(&d, &r)
                .unwrap()
        );
        assert!(Predicate::Contains("text".into(), "lo wo".into())
            .eval(&d, &r)
            .unwrap());
        assert!(Predicate::IsNull("note".into()).eval(&d, &r).unwrap());
    }

    #[test]
    fn eval_null_semantics() {
        let d = def();
        let r = row(1, 2, "x");
        // note is NULL: Eq is false, Ne is true, ranges are unknown=false.
        assert!(!Predicate::Eq("note".into(), Value::Text("x".into()))
            .eval(&d, &r)
            .unwrap());
        assert!(Predicate::Ne("note".into(), Value::Text("x".into()))
            .eval(&d, &r)
            .unwrap());
        assert!(!Predicate::Lt("note".into(), Value::Text("x".into()))
            .eval(&d, &r)
            .unwrap());
        assert!(!Predicate::Contains("note".into(), "x".into())
            .eval(&d, &r)
            .unwrap());
    }

    #[test]
    fn eval_boolean_combinators() {
        let d = def();
        let r = row(1, 2, "x");
        let p = Predicate::Eq("doc".into(), Value::Id(1))
            .and(Predicate::Eq("author".into(), Value::Id(2)));
        assert!(p.eval(&d, &r).unwrap());
        let q = Predicate::Eq("doc".into(), Value::Id(9))
            .or(Predicate::Eq("author".into(), Value::Id(2)));
        assert!(q.eval(&d, &r).unwrap());
        assert!(!Predicate::Not(Box::new(q)).eval(&d, &r).unwrap());
        // True is identity for and().
        assert_eq!(
            Predicate::True.and(Predicate::IsNull("note".into())),
            Predicate::IsNull("note".into())
        );
    }

    #[test]
    fn eval_unknown_column_errors() {
        let d = def();
        let r = row(1, 2, "x");
        assert!(Predicate::Eq("bogus".into(), Value::Id(1))
            .eval(&d, &r)
            .is_err());
    }

    #[test]
    fn planner_picks_longest_index_prefix() {
        let d = def();
        let p = Predicate::Eq("author".into(), Value::Id(2))
            .and(Predicate::Eq("doc".into(), Value::Id(1)));
        match plan_access(&d, &p) {
            AccessPath::IndexPrefix { index_pos, prefix } => {
                assert_eq!(index_pos, 0); // by_doc_author covers both
                assert_eq!(prefix, vec![Value::Id(1), Value::Id(2)]);
            }
            other => panic!("expected index path, got {other:?}"),
        }
    }

    #[test]
    fn planner_uses_partial_prefix() {
        let d = def();
        let p = Predicate::Eq("doc".into(), Value::Id(1))
            .and(Predicate::Contains("text".into(), "x".into()));
        match plan_access(&d, &p) {
            AccessPath::IndexPrefix { index_pos, prefix } => {
                assert_eq!(index_pos, 0);
                assert_eq!(prefix.len(), 1);
            }
            other => panic!("expected index path, got {other:?}"),
        }
    }

    #[test]
    fn planner_falls_back_to_scan() {
        let d = def();
        assert_eq!(plan_access(&d, &Predicate::True), AccessPath::FullScan);
        let p = Predicate::Contains("text".into(), "x".into());
        assert_eq!(plan_access(&d, &p), AccessPath::FullScan);
        // Eq on a non-leading index column can't seed a prefix.
        let p = Predicate::Eq("text".into(), Value::Text("x".into()));
        assert_eq!(plan_access(&d, &p), AccessPath::FullScan);
    }

    #[test]
    fn explain_output() {
        let d = def();
        assert_eq!(explain(&d, &Predicate::True), "FullScan(chars)");
        let p = Predicate::Eq("doc".into(), Value::Id(1));
        assert_eq!(
            explain(&d, &p),
            "IndexPrefix(chars.by_doc_author, prefix_len=1)"
        );
    }
}
