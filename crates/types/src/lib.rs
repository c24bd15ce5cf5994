#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! Core data types for the `onesql` engine.
//!
//! This crate defines the dynamically-typed value model ([`Value`]), row and
//! schema representations ([`Row`], [`Schema`], [`Field`]), the temporal
//! scalar types ([`Ts`], [`Duration`]), and the shared error type
//! ([`Error`]). Everything else in the workspace builds on these.
//!
//! Design notes (see `DESIGN.md` §2):
//! - Event timestamps are ordinary data values of type
//!   [`DataType::Timestamp`]; whether a column is an *event-time column*
//!   (paper Extension 1) is schema metadata carried by [`Field::event_time`].
//! - [`Value`] has a total order (`Ord`) so values can serve as grouping and
//!   state keys directly; floats use IEEE total ordering.

pub mod column;
pub mod datatype;
pub mod digits;
pub mod error;
pub mod format;
pub mod row;
pub mod schema;
pub mod temporal;
pub mod value;

pub use column::{Column, ColumnBuilder, ColumnData};
pub use datatype::DataType;
pub use error::{Error, Result};
pub use format::format_table;
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use temporal::{Duration, Ts};
pub use value::Value;
