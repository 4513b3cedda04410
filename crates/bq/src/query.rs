//! Query builder: filters and aggregates over a table.
//!
//! Every data-dependent operation is fallible: an unknown column is a
//! `BqError`, never a panic. Aggregates additionally return `Option<f64>`
//! so an empty or all-null selection is a typed empty rather than a `NaN`
//! that silently poisons downstream arithmetic.

#![deny(clippy::panic, clippy::expect_used)]

use crate::error::BqError;
use crate::table::{Column, Table};
use crate::value::Value;

/// An immutable view over a subset of a table's rows.
///
/// Queries are index sets: filtering never copies the data. Row order is
/// preserved (insertion order of the base table).
#[derive(Debug, Clone)]
pub struct Query<'t> {
    table: &'t Table,
    idx: Vec<usize>,
}

impl<'t> Query<'t> {
    /// A query over every row of `table`.
    pub fn all(table: &'t Table) -> Self {
        Self { table, idx: (0..table.len()).collect() }
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.idx.len()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Keeps rows where `col` satisfies `pred`.
    fn filter(mut self, col: &str, pred: impl Fn(&Value) -> bool) -> Result<Self, BqError> {
        let c = self.table.try_column(col)?;
        self.idx.retain(|&i| pred(&c.get(i)));
        Ok(self)
    }

    /// Keeps rows where `col` equals `v` (nulls never match). On a
    /// dictionary-encoded column the needle resolves to a code once and
    /// rows compare integers — no per-row string materialization; a needle
    /// absent from the dictionary short-circuits to an empty selection.
    pub fn filter_eq(mut self, col: &str, v: &Value) -> Result<Self, BqError> {
        if let Column::Dict(d) = self.table.try_column(col)? {
            // Dict cells are only ever Str or Null, and nulls never
            // match, so any non-string needle selects nothing.
            match v {
                Value::Str(s) => match d.code_of(s) {
                    Some(code) => {
                        let codes = d.codes();
                        self.idx.retain(|&i| codes[i] == code);
                    }
                    None => self.idx.clear(),
                },
                _ => self.idx.clear(),
            }
            return Ok(self);
        }
        self.filter(col, |cell| !cell.is_null() && cell == v)
    }

    /// Keeps rows whose integer `col` lies in `[lo, hi)`; nulls drop.
    /// Integer columns compare the stored values directly instead of
    /// boxing each cell.
    pub fn filter_int_range(mut self, col: &str, lo: i64, hi: i64) -> Result<Self, BqError> {
        if let Column::Int(c) = self.table.try_column(col)? {
            self.idx.retain(|&i| c[i].is_some_and(|v| (lo..hi).contains(&v)));
            return Ok(self);
        }
        self.filter(col, move |cell| cell.as_int().is_some_and(|v| (lo..hi).contains(&v)))
    }

    /// Keeps rows where `col` is not null.
    pub fn filter_not_null(self, col: &str) -> Result<Self, BqError> {
        self.filter(col, |cell| !cell.is_null())
    }

    /// Non-null float values of `col` over the selection (ints widen).
    /// Float and integer columns read their storage directly instead of
    /// boxing each cell into a [`Value`].
    pub fn floats(&self, col: &str) -> Result<Vec<f64>, BqError> {
        match self.table.try_column(col)? {
            Column::Float(c) => Ok(self.idx.iter().filter_map(|&i| c[i]).collect()),
            Column::Int(c) => Ok(self.idx.iter().filter_map(|&i| c[i].map(|v| v as f64)).collect()),
            c => Ok(self.idx.iter().filter_map(|&i| c.get(i).as_float()).collect()),
        }
    }

    /// Finite (non-null, non-NaN, non-infinite) float values of `col`, plus
    /// the count of non-null values dropped for being non-finite. Degraded
    /// pipelines use this to aggregate cleanly while accounting for every
    /// corrupt cell they skipped.
    pub fn finite_floats(&self, col: &str) -> Result<(Vec<f64>, usize), BqError> {
        let all = self.floats(col)?;
        let mut dropped = 0usize;
        let finite: Vec<f64> = all
            .into_iter()
            .filter(|v| {
                let keep = v.is_finite();
                if !keep {
                    dropped += 1;
                }
                keep
            })
            .collect();
        Ok((finite, dropped))
    }

    /// Non-null integer values of `col`.
    pub fn ints(&self, col: &str) -> Result<Vec<i64>, BqError> {
        match self.table.try_column(col)? {
            Column::Int(c) => Ok(self.idx.iter().filter_map(|&i| c[i]).collect()),
            c => Ok(self.idx.iter().filter_map(|&i| c.get(i).as_int()).collect()),
        }
    }

    /// Mean over the finite values of `col`; `Ok(None)` when the selection
    /// is empty, all-null or has no finite values.
    pub fn mean(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (v, _) = self.finite_floats(col)?;
        if v.is_empty() {
            Ok(None)
        } else {
            Ok(Some(v.iter().sum::<f64>() / v.len() as f64))
        }
    }

    /// Median over the finite values of `col`; `Ok(None)` on a typed-empty
    /// selection.
    pub fn median(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (mut v, _) = self.finite_floats(col)?;
        if v.is_empty() {
            return Ok(None);
        }
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        Ok(Some(if v.len() % 2 == 1 { v[mid] } else { 0.5 * (v[mid - 1] + v[mid]) }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColType;

    fn sample() -> Table {
        let mut t = Table::new(
            "t",
            &[("day", ColType::Int), ("city", ColType::Str), ("tput", ColType::Float)],
        );
        for (d, c, v) in [
            (1, Some("Kyiv"), Some(10.0)),
            (1, Some("Lviv"), Some(20.0)),
            (2, Some("Kyiv"), Some(30.0)),
            (2, None, Some(40.0)),
            (3, Some("Kyiv"), None),
        ] {
            t.push(vec![
                Value::Int(d),
                c.map(Value::from).unwrap_or(Value::Null),
                v.map(Value::Float).unwrap_or(Value::Null),
            ]);
        }
        t
    }

    #[test]
    fn filter_and_aggregate() -> Result<(), BqError> {
        let t = sample();
        let kyiv = t.query().filter_eq("city", &Value::from("Kyiv"))?;
        assert_eq!(kyiv.count(), 3);
        assert_eq!(kyiv.floats("tput")?, vec![10.0, 30.0]);
        assert_eq!(kyiv.mean("tput")?, Some(20.0));
        assert_eq!(kyiv.ints("day")?, vec![1, 2, 3]);
        Ok(())
    }

    #[test]
    fn range_and_notnull_filters() -> Result<(), BqError> {
        let t = sample();
        assert_eq!(t.query().filter_int_range("day", 1, 2)?.count(), 2);
        assert_eq!(t.query().filter_not_null("city")?.count(), 4);
        assert_eq!(t.query().filter_not_null("tput")?.count(), 4);
        Ok(())
    }

    #[test]
    fn chained_filters_compose() -> Result<(), BqError> {
        let t = sample();
        let q = t
            .query()
            .filter_int_range("day", 1, 3)?
            .filter_eq("city", &Value::from("Kyiv"))?
            .filter_not_null("tput")?;
        assert_eq!(q.count(), 2);
        assert_eq!(q.floats("tput")?, vec![10.0, 30.0]);
        Ok(())
    }

    #[test]
    fn median_of_even_and_odd_selections() -> Result<(), BqError> {
        let t = sample();
        assert_eq!(t.query().median("tput")?, Some(25.0));
        let odd = t.query().filter_int_range("day", 1, 3)?.filter_not_null("city")?;
        assert_eq!(odd.median("tput")?, Some(20.0));
        Ok(())
    }

    #[test]
    fn empty_selection_aggregates() -> Result<(), BqError> {
        let t = sample();
        let q = t.query().filter_eq("city", &Value::from("Odessa"))?;
        assert!(q.is_empty());
        assert_eq!(q.mean("tput")?, None);
        assert_eq!(q.median("tput")?, None);
        Ok(())
    }

    #[test]
    fn unknown_columns_are_errors() {
        let t = sample();
        assert!(t.query().filter_eq("nope", &Value::Null).is_err());
        assert!(t.query().filter_int_range("nope", 0, 1).is_err());
        assert!(t.query().ints("nope").is_err());
        assert!(t.query().mean("nope").is_err());
    }
}
