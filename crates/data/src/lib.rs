//! # ats-data
//!
//! Datasets for the `adhoc-ts` workspace.
//!
//! The paper evaluates on two real datasets we cannot have:
//!
//! - **`phone100K`** — daily call volumes of 100 000 AT&T customers over
//!   366 days (≈0.2 GB), plus prefixes `phone1000`, `phone2000`, … used
//!   for the scale-up study;
//! - **`stocks`** — daily closing prices of 381 stocks over 128 days.
//!
//! [`phone`] and [`stocks`] are synthetic generators engineered to
//! reproduce the *structural* properties those datasets contribute to the
//! paper's results (see DESIGN.md §2 for the substitution argument):
//! low-rank day-pattern structure with a Zipf-heavy customer-volume tail
//! and sparse spikes for phone data; a dominant common market factor with
//! highly autocorrelated rows for stocks.
//!
//! [`dataset::Dataset`] is the carrier type: a named matrix with summary
//! statistics, subset extraction (the paper's `phoneN` prefixes), and
//! CSV / `.atsm` persistence.

pub mod csv;
pub mod dataset;
mod perm;
pub mod phone;
pub mod stocks;
pub mod streaming;

pub use dataset::Dataset;
pub use phone::{generate_phone, PhoneConfig};
pub use stocks::{generate_stocks, StocksConfig};
pub use streaming::{StreamingPhone, StreamingStocks};
