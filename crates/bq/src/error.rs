//! Typed errors for table and query operations.
//!
//! The data-path convention across the workspace: operations whose failure
//! depends on *data* (a missing column, a mistyped cell) return
//! `Result<_, BqError>`. Every `Query` operation does; `Table`'s panicking
//! `push`/`column` variants remain only as conveniences for tests and
//! fixtures where the schema is statically known.

use crate::table::ColType;

/// An error from the columnar store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BqError {
    /// The named column does not exist in the table.
    NoSuchColumn {
        table: String,
        column: String,
        available: Vec<String>,
    },
    /// A cell's value does not match its column's declared type.
    TypeMismatch {
        table: String,
        column: String,
        expected: ColType,
        got: String,
    },
    /// A pushed row's arity differs from the schema's.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
}

impl std::fmt::Display for BqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BqError::NoSuchColumn { table, column, available } => {
                write!(f, "no column '{column}' in '{table}' (have: {available:?})")
            }
            BqError::TypeMismatch { table, column, expected, got } => {
                write!(
                    f,
                    "type mismatch inserting {got} into column '{column}' ({expected:?}) of '{table}'"
                )
            }
            BqError::ArityMismatch { table, expected, got } => {
                write!(f, "row arity mismatch in '{table}': expected {expected} cells, got {got}")
            }
        }
    }
}

impl std::error::Error for BqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offenders() {
        let e = BqError::NoSuchColumn {
            table: "t".into(),
            column: "zzz".into(),
            available: vec!["a".into()],
        };
        assert!(e.to_string().contains("no column 'zzz'"));
        let e = BqError::TypeMismatch {
            table: "t".into(),
            column: "a".into(),
            expected: ColType::Int,
            got: "Str(\"x\")".into(),
        };
        assert!(e.to_string().contains("type mismatch"));
        let e = BqError::ArityMismatch { table: "t".into(), expected: 2, got: 3 };
        assert!(e.to_string().contains("row arity mismatch"));
    }
}
