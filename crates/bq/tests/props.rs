//! Property-based tests: the query algebra behaves like relational algebra,
//! dictionary-code predicates select exactly what decoded-string
//! predicates select, and the aggregates neither panic nor leak `NaN` on
//! dirty columns.

use ndt_bq::{ColType, Table, Value};
use proptest::prelude::*;

/// A table with a unique `id` per row, so tests can compare selections
/// by the rows they hold.
fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..5, 0u8..4, prop::option::of(-100.0..100.0f64)), 0..120).prop_map(
        |rows| {
            let mut t = Table::new(
                "t",
                &[
                    ("id", ColType::Int),
                    ("k", ColType::Int),
                    ("g", ColType::Str),
                    ("x", ColType::Float),
                ],
            );
            for (id, (k, g, x)) in rows.into_iter().enumerate() {
                t.push(vec![
                    Value::Int(id as i64),
                    Value::Int(k),
                    Value::from(format!("g{g}")),
                    x.map(Value::Float).unwrap_or(Value::Null),
                ]);
            }
            t
        },
    )
}

proptest! {
    /// Filtering is idempotent and anti-monotone in selectivity.
    #[test]
    fn filter_idempotent(t in arb_table(), lo in 0i64..5) {
        let once = t.query().filter_int_range("k", lo, 5).unwrap();
        let twice = once.clone().filter_int_range("k", lo, 5).unwrap();
        prop_assert_eq!(once.ints("id").unwrap(), twice.ints("id").unwrap());
        prop_assert!(once.count() <= t.len());
    }

    /// Filter order commutes.
    #[test]
    fn filters_commute(t in arb_table(), lo in 0i64..5, g in 0u8..4) {
        let gv = Value::from(format!("g{g}"));
        let a = t.query().filter_int_range("k", lo, 5).unwrap().filter_eq("g", &gv).unwrap();
        let b = t.query().filter_eq("g", &gv).unwrap().filter_int_range("k", lo, 5).unwrap();
        prop_assert_eq!(a.ints("id").unwrap(), b.ints("id").unwrap());
    }

    /// Aggregates stay within the data's bounds.
    #[test]
    fn aggregate_bounds(t in arb_table()) {
        let q = t.query();
        let xs = q.floats("x").unwrap();
        if !xs.is_empty() {
            let mn = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mean = q.mean("x").unwrap().expect("non-empty");
            let median = q.median("x").unwrap().expect("non-empty");
            prop_assert!(mean >= mn - 1e-9 && mean <= mx + 1e-9);
            prop_assert!(median >= mn - 1e-9 && median <= mx + 1e-9);
        }
    }
}

/// A "dirty" table whose float column mixes nulls, NaNs, infinities and
/// finite values — the shape fault injection produces.
fn arb_dirty_table() -> impl Strategy<Value = Table> {
    // A selector byte picks the cell kind: null, NaN, ±infinity or finite.
    prop::collection::vec((0i64..5, 0u8..10, -100.0..100.0f64), 0..100).prop_map(|rows| {
        let mut t = Table::new("dirty", &[("k", ColType::Int), ("x", ColType::Float)]);
        for (k, kind, finite) in rows {
            let x = match kind {
                0 | 1 => Value::Null,
                2 => Value::Float(f64::NAN),
                3 => Value::Float(f64::INFINITY),
                4 => Value::Float(f64::NEG_INFINITY),
                _ => Value::Float(finite),
            };
            t.push(vec![Value::Int(k), x]);
        }
        t
    })
}

proptest! {
    /// The aggregates never panic and never leak NaN: on empty, all-null
    /// or corrupt-bearing columns they return a typed empty (`Ok(None)`)
    /// or a finite value — never `Err`, never a poisoned number.
    #[test]
    fn aggregates_are_panic_free_and_nan_free(t in arb_dirty_table()) {
        let q = t.query();
        let (finite, dropped) = q.finite_floats("x").unwrap();
        let non_null = q.floats("x").unwrap().len();
        prop_assert_eq!(finite.len() + dropped, non_null, "finite/dropped split loses rows");
        prop_assert!(finite.iter().all(|v| v.is_finite()));

        for val in [q.mean("x").unwrap(), q.median("x").unwrap()] {
            if finite.is_empty() {
                prop_assert!(val.is_none(), "typed empty expected, got {val:?}");
            } else {
                let v = val.expect("finite values present for an aggregate");
                prop_assert!(v.is_finite(), "aggregate leaked non-finite {v}");
            }
        }
    }

    /// Schema drift is an error value, not a panic: every entry point that
    /// names a column rejects an unknown one with `Err`.
    #[test]
    fn unknown_columns_error_instead_of_panicking(t in arb_dirty_table()) {
        let q = t.query();
        prop_assert!(q.floats("nope").is_err());
        prop_assert!(q.finite_floats("nope").is_err());
        prop_assert!(q.ints("nope").is_err());
        prop_assert!(q.mean("nope").is_err());
        prop_assert!(q.median("nope").is_err());
        prop_assert!(t.try_col_index("nope").is_err());
        prop_assert!(t.query().filter_not_null("nope").is_err());
        prop_assert!(t.query().filter_eq("nope", &Value::Null).is_err());
        prop_assert!(t.query().filter_int_range("nope", 0, 1).is_err());
    }
}

// ---------------------------------------------------------------------------
// Dictionary-encoded columns: code evaluation ≡ decoded-string evaluation
// ---------------------------------------------------------------------------

/// Small closed vocabulary so generated columns hit repeated values,
/// absent needles and the empty string.
const WORDS: &[&str] = &["", "Kiev City", "L'viv", "Kharkiv", "Donets'k"];
/// Needle candidates: every vocabulary word plus one guaranteed-absent key.
const NEEDLES: &[&str] = &["", "Kiev City", "L'viv", "Kharkiv", "Donets'k", "Atlantis"];

fn word_rows() -> impl Strategy<Value = Vec<Option<usize>>> {
    prop::collection::vec(prop::option::of(0usize..WORDS.len()), 0..40)
}

/// Builds a plain-Str table and its dict-encoded twin from the same rows.
/// Each row's `v` is unique, so `floats("v")` identifies a selection.
fn twin_tables(rows: &[Option<usize>]) -> (Table, Table) {
    let mut plain = Table::new("t", &[("s", ColType::Str), ("v", ColType::Float)]);
    let mut dict = Table::new("t", &[("s", ColType::Str), ("v", ColType::Float)]);
    dict.dict_encode("s");
    for (i, w) in rows.iter().enumerate() {
        let s = w.map_or(Value::Null, |w| Value::from(WORDS[w]));
        let v = Value::Float(i as f64 * 0.5 - 3.0);
        plain.push(vec![s.clone(), v.clone()]);
        dict.push(vec![s, v]);
    }
    (plain, dict)
}

proptest! {
    /// Dict-encoded tables are logically equal to their plain twins and
    /// answer filter queries identically — including the all-null column
    /// (empty dictionary) and absent-needle cases.
    #[test]
    fn dict_table_query_equivalence(
        rows in word_rows(),
        needle in 0usize..NEEDLES.len(),
    ) {
        let (plain, dict) = twin_tables(&rows);
        prop_assert_eq!(&plain, &dict);

        let needle = Value::from(NEEDLES[needle]);
        let p = plain.query().filter_eq("s", &needle).unwrap();
        let d = dict.query().filter_eq("s", &needle).unwrap();
        prop_assert_eq!(p.count(), d.count());
        prop_assert_eq!(p.floats("v").unwrap(), d.floats("v").unwrap());

        // Null needles never match on either representation.
        prop_assert_eq!(plain.query().filter_eq("s", &Value::Null).unwrap().count(), 0);
        prop_assert_eq!(dict.query().filter_eq("s", &Value::Null).unwrap().count(), 0);

        let p = plain.query().filter_not_null("s").unwrap();
        let d = dict.query().filter_not_null("s").unwrap();
        prop_assert_eq!(p.floats("v").unwrap(), d.floats("v").unwrap());
    }
}
