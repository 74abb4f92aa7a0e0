//! Aggregation over scans: COUNT/SUM/MIN/MAX/AVG and GROUP BY.
//!
//! TeNDaX's metadata services are aggregation-shaped ("most cited",
//! attribution counts, activity histograms); this module provides the
//! engine-level primitives so those queries don't have to materialize
//! and post-process full row sets by hand.

use std::collections::BTreeMap;

use crate::error::Result;
use crate::query::Predicate;
use crate::schema::TableId;
use crate::txn::Transaction;
use crate::value::{Value, ValueRef};

/// An aggregate function over a column (or over rows, for `Count`).
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Number of matching rows.
    Count,
    /// Sum of a numeric column (`Int`, `Float`, or `Timestamp`).
    Sum(String),
    /// Minimum value of a column (any ordered type; nulls skipped).
    Min(String),
    /// Maximum value of a column.
    Max(String),
    /// Arithmetic mean of a numeric column, as `Float`.
    Avg(String),
}

/// Accumulator for one aggregate computation.
#[derive(Debug, Default)]
struct Acc {
    count: u64,
    sum: f64,
    sum_is_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    fn feed(&mut self, v: Option<ValueRef<'_>>) {
        self.count += 1;
        let Some(v) = v else { return };
        if v.is_null() {
            return;
        }
        match v {
            ValueRef::Int(x) => self.sum += x as f64,
            ValueRef::Timestamp(x) => self.sum += x as f64,
            ValueRef::Float(x) => {
                self.sum += x;
                self.sum_is_float = true;
            }
            _ => {}
        }
        if self.min.as_ref().is_none_or(|m| v < m.view()) {
            self.min = Some(v.to_value());
        }
        if self.max.as_ref().is_none_or(|m| v > m.view()) {
            self.max = Some(v.to_value());
        }
    }

    fn non_null(&self) -> u64 {
        // `count` counts rows; min presence implies at least one value.
        if self.min.is_some() {
            self.count
        } else {
            0
        }
    }

    fn finish(&self, agg: &Aggregate) -> Value {
        match agg {
            Aggregate::Count => Value::Int(self.count as i64),
            Aggregate::Sum(_) => {
                if self.sum_is_float {
                    Value::Float(self.sum)
                } else {
                    Value::Int(self.sum as i64)
                }
            }
            Aggregate::Min(_) => self.min.clone().unwrap_or(Value::Null),
            Aggregate::Max(_) => self.max.clone().unwrap_or(Value::Null),
            Aggregate::Avg(_) => {
                if self.non_null() == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
        }
    }
}

impl Aggregate {
    fn column(&self) -> Option<&str> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(c) | Aggregate::Min(c) | Aggregate::Max(c) | Aggregate::Avg(c) => {
                Some(c)
            }
        }
    }
}

impl Transaction {
    /// Compute one aggregate over the rows matching `pred`.
    pub fn aggregate(&self, table: TableId, pred: &Predicate, agg: &Aggregate) -> Result<Value> {
        let def = self.table_def_of(table)?;
        let col_pos = match agg.column() {
            Some(c) => Some(def.require_column(c)?),
            None => None,
        };
        let mut acc = Acc::default();
        for (_, row) in self.scan(table, pred)? {
            acc.feed(col_pos.and_then(|p| row.get(p)));
        }
        Ok(acc.finish(agg))
    }

    /// Compute an aggregate per distinct value of `group_col`, sorted by
    /// group key. Null group keys form their own group.
    pub fn group_by(
        &self,
        table: TableId,
        pred: &Predicate,
        group_col: &str,
        agg: &Aggregate,
    ) -> Result<Vec<(Value, Value)>> {
        let def = self.table_def_of(table)?;
        let group_pos = def.require_column(group_col)?;
        let col_pos = match agg.column() {
            Some(c) => Some(def.require_column(c)?),
            None => None,
        };
        let mut groups: BTreeMap<Value, Acc> = BTreeMap::new();
        for (_, row) in self.scan(table, pred)? {
            let key = row.get(group_pos).map_or(Value::Null, ValueRef::to_value);
            groups
                .entry(key)
                .or_default()
                .feed(col_pos.and_then(|p| row.get(p)));
        }
        Ok(groups
            .into_iter()
            .map(|(k, acc)| (k, acc.finish(agg)))
            .collect())
    }

    fn table_def_of(&self, table: TableId) -> Result<crate::schema::TableDef> {
        self.database_ref().table_def(table)
    }
}

// A small crate-internal accessor so aggregate code can reach the
// database handle held by the transaction.
impl Transaction {
    pub(crate) fn database_ref(&self) -> &crate::db::Database {
        self.db_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::error::StorageError;
    use crate::row::Row;
    use crate::schema::TableDef;
    use crate::value::DataType;

    fn setup() -> (Database, TableId) {
        let db = Database::open_in_memory();
        let t = db
            .create_table(
                TableDef::new("sales")
                    .column("region", DataType::Text)
                    .nullable_column("amount", DataType::Int)
                    .index("by_region", &["region"]),
            )
            .unwrap();
        let mut txn = db.begin();
        for (region, amount) in [
            ("east", Some(10)),
            ("east", Some(30)),
            ("west", Some(5)),
            ("west", None),
            ("north", Some(-2)),
        ] {
            txn.insert(
                t,
                Row::new(vec![
                    Value::Text(region.into()),
                    amount.map(Value::Int).unwrap_or(Value::Null),
                ]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        (db, t)
    }

    #[test]
    fn scalar_aggregates() {
        let (db, t) = setup();
        let txn = db.begin();
        assert_eq!(
            txn.aggregate(t, &Predicate::True, &Aggregate::Count)
                .unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            txn.aggregate(t, &Predicate::True, &Aggregate::Sum("amount".into()))
                .unwrap(),
            Value::Int(43)
        );
        assert_eq!(
            txn.aggregate(t, &Predicate::True, &Aggregate::Min("amount".into()))
                .unwrap(),
            Value::Int(-2)
        );
        assert_eq!(
            txn.aggregate(t, &Predicate::True, &Aggregate::Max("amount".into()))
                .unwrap(),
            Value::Int(30)
        );
    }

    #[test]
    fn aggregates_respect_predicates() {
        let (db, t) = setup();
        let txn = db.begin();
        let east = Predicate::Eq("region".into(), Value::Text("east".into()));
        assert_eq!(
            txn.aggregate(t, &east, &Aggregate::Sum("amount".into()))
                .unwrap(),
            Value::Int(40)
        );
        assert_eq!(
            txn.aggregate(t, &east, &Aggregate::Count).unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn group_by_counts_and_sums() {
        let (db, t) = setup();
        let txn = db.begin();
        let counts = txn
            .group_by(t, &Predicate::True, "region", &Aggregate::Count)
            .unwrap();
        assert_eq!(
            counts,
            vec![
                (Value::Text("east".into()), Value::Int(2)),
                (Value::Text("north".into()), Value::Int(1)),
                (Value::Text("west".into()), Value::Int(2)),
            ]
        );
        let sums = txn
            .group_by(
                t,
                &Predicate::True,
                "region",
                &Aggregate::Sum("amount".into()),
            )
            .unwrap();
        assert_eq!(sums[0], (Value::Text("east".into()), Value::Int(40)));
        assert_eq!(sums[2], (Value::Text("west".into()), Value::Int(5)));
    }

    #[test]
    fn avg_handles_nulls_and_empty() {
        let (db, t) = setup();
        let txn = db.begin();
        let avg = txn
            .aggregate(t, &Predicate::True, &Aggregate::Avg("amount".into()))
            .unwrap();
        // Sum 43 over 5 rows (row-count denominator; nulls contribute 0).
        assert_eq!(avg, Value::Float(43.0 / 5.0));
        let none = Predicate::Eq("region".into(), Value::Text("nowhere".into()));
        assert_eq!(
            txn.aggregate(t, &none, &Aggregate::Avg("amount".into()))
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            txn.aggregate(t, &none, &Aggregate::Min("amount".into()))
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn unknown_column_errors() {
        let (db, t) = setup();
        let txn = db.begin();
        assert!(matches!(
            txn.aggregate(t, &Predicate::True, &Aggregate::Sum("bogus".into())),
            Err(StorageError::UnknownColumn { .. })
        ));
        assert!(txn
            .group_by(t, &Predicate::True, "bogus", &Aggregate::Count)
            .is_err());
    }

    #[test]
    fn aggregates_see_own_writes() {
        let (db, t) = setup();
        let mut txn = db.begin();
        txn.insert(
            t,
            Row::new(vec![Value::Text("east".into()), Value::Int(100)]),
        )
        .unwrap();
        assert_eq!(
            txn.aggregate(
                t,
                &Predicate::Eq("region".into(), Value::Text("east".into())),
                &Aggregate::Sum("amount".into())
            )
            .unwrap(),
            Value::Int(140)
        );
    }
}
