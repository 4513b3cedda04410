//! Dataset wrapper: the two "BigQuery tables" plus period helpers.

use ndt_bq::{BqError, Column, Query, Table, Value};
use ndt_conflict::Period;
use ndt_mlab::schema::{empty_unified_table, push_unified_row};
use ndt_mlab::{Dataset, Scamper1Row, SimConfig, Simulator, UnifiedDownloadRow};

/// The generated corpus, ready for analysis.
pub struct StudyData {
    /// Raw dataset (scamper rows consumed natively by the §5 analyses).
    ///
    /// Invariant: `raw.traces` is sorted by `day`, same-day rows in
    /// arrival order. Every constructor establishes it, and
    /// [`StudyData::traces_in`] relies on it to slice a window instead of
    /// filtering the whole corpus.
    pub raw: Dataset,
    /// `ndt.unified_download` as a queryable table (§4 analyses).
    pub unified: Table,
    /// Inclusive day ranges with no unified rows *inside an otherwise
    /// populated study window* — whole days lost to e.g. a quarantined
    /// store shard. A clean simulation populates every day of every
    /// [`Period`] window, so this is empty for intact corpora; windows
    /// with no rows at all are treated as not-simulated, not missing, so
    /// a degraded corpus and a fresh run on the same surviving data
    /// compute identical gaps.
    pub day_gaps: Vec<(i64, i64)>,
    /// Second-country digest for asymmetric scenarios, attached by the
    /// pipeline (a `country-b` stage) or the columnar store loader
    /// (`country-b.digest.txt`); `None` for single-country corpora. Feeds
    /// the `table_ab` analysis stage.
    pub second_country: Option<crate::country::CountryDigest>,
}

/// Day ranges of each [`Period`] window that hold no unified rows, for
/// windows that hold at least one. See [`StudyData::day_gaps`].
fn compute_day_gaps(unified: &Table) -> Vec<(i64, i64)> {
    // One pass over the `day` column marks the study-window days that
    // hold rows. `day` is an Int column of the fixed unified schema
    // (`empty_unified_table`), so any other shape marks no day.
    let (lo, hi) = Period::ALL
        .iter()
        .map(Period::day_range)
        .fold((i64::MAX, i64::MIN), |(lo, hi), (s, e)| (lo.min(s), hi.max(e)));
    let mut present = vec![false; usize::try_from(hi - lo).unwrap_or(0)];
    if let Ok(Column::Int(days)) = unified.try_column("day") {
        for &d in days.iter().flatten() {
            if (lo..hi).contains(&d) {
                present[(d - lo) as usize] = true;
            }
        }
    }
    let has = |d: i64| present[(d - lo) as usize];
    let mut gaps = Vec::new();
    for p in Period::ALL {
        let (s, e) = p.day_range();
        if !(s..e).any(has) {
            continue;
        }
        let mut d = s;
        while d < e {
            if has(d) {
                d += 1;
                continue;
            }
            let lo = d;
            while d < e && !has(d) {
                d += 1;
            }
            gaps.push((lo, d - 1));
        }
    }
    gaps
}

/// Puts the trace rows in day order with a stable sort, so same-day rows
/// keep their arrival order. The simulator, the pipeline's day-range
/// merge and the store's shard-by-shard load all emit day-sorted traces,
/// so this is normally one O(n) check and no sort.
fn day_ordered(mut raw: Dataset) -> Dataset {
    if !raw.traces.windows(2).all(|w| w[0].day <= w[1].day) {
        raw.traces.sort_by_key(|r| r.day);
    }
    raw
}

impl StudyData {
    /// Generates a corpus with the given simulator configuration.
    pub fn generate(config: SimConfig) -> Self {
        let raw = Simulator::new(config).run();
        Self::from_dataset(raw)
    }

    /// Wraps an already-generated dataset.
    pub fn from_dataset(raw: Dataset) -> Self {
        let raw = day_ordered(raw);
        let unified = raw.unified_table();
        let day_gaps = compute_day_gaps(&unified);
        Self { raw, unified, day_gaps, second_country: None }
    }

    /// Unified rows within a period.
    pub fn period(&self, p: Period) -> Result<Query<'_>, BqError> {
        let (s, e) = p.day_range();
        self.unified.query().filter_int_range("day", s, e)
    }

    /// Unified rows of one labeled city within a period (Table 1's slices).
    pub fn city_period(&self, city: &str, p: Period) -> Result<Query<'_>, BqError> {
        self.period(p)?.filter_eq("city", &Value::from(city))
    }

    /// Unified rows of one labeled region within a period.
    pub fn oblast_period(&self, oblast: &str, p: Period) -> Result<Query<'_>, BqError> {
        self.period(p)?.filter_eq("oblast", &Value::from(oblast))
    }

    /// Scamper rows within a period, in corpus order.
    pub fn traces_in(&self, p: Period) -> &[Scamper1Row] {
        let (s, e) = p.day_range();
        self.traces_in_days(s..e)
    }

    /// Scamper rows whose day lies in `days`, in corpus order: a binary
    /// searched slice of the day-sorted [`StudyData::raw`] traces.
    pub fn traces_in_days(&self, days: std::ops::Range<i64>) -> &[Scamper1Row] {
        let traces = &self.raw.traces;
        let lo = traces.partition_point(|r| r.day < days.start);
        let hi = lo + traces[lo..].partition_point(|r| r.day < days.end);
        &traces[lo..hi]
    }

    /// Total unified rows.
    pub fn unified_len(&self) -> usize {
        self.unified.len()
    }
}

/// Incremental [`StudyData`] construction for callers that stream the
/// corpus in pieces (the columnar store's `report --from-store` path)
/// instead of handing over one [`Dataset`].
///
/// Rows are ingested into the unified table as they arrive, in arrival
/// order, through the same `push_unified_row` the batch path uses — so a
/// builder fed the corpus shard-by-shard produces a [`StudyData`] whose
/// table is cell-for-cell identical to `StudyData::from_dataset` on the
/// concatenated dataset.
#[derive(Default)]
pub struct StudyDataBuilder {
    raw: Dataset,
    unified: Option<Table>,
}

/// A consistent builder position, taken with [`StudyDataBuilder::mark`]
/// before a shard starts streaming in and handed back to
/// [`StudyDataBuilder::rollback`] if the shard fails mid-stream — the
/// degrade contract needs a failed shard to contribute *nothing*.
#[derive(Debug, Clone, Copy)]
pub struct BuilderMark {
    unified_rows: usize,
    ndt_rows: usize,
    trace_rows: usize,
}

impl StudyDataBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends unified rows (ingesting them into the table immediately).
    pub fn push_ndt_rows(&mut self, rows: Vec<UnifiedDownloadRow>) {
        let table = self.unified.get_or_insert_with(empty_unified_table);
        for r in &rows {
            push_unified_row(table, r);
        }
        self.raw.ndt.extend(rows);
    }

    /// Ingests one columnar batch straight into the unified table —
    /// cell-for-cell what [`Self::push_ndt_rows`] on the same rows would
    /// produce, but without materializing a single `UnifiedDownloadRow`:
    /// `raw.ndt` stays empty, so the vectorized store loader's resident
    /// row footprint is the in-flight batch window, not the corpus.
    pub fn push_unified_batch(
        &mut self,
        batch: &ndt_mlab::columnar::UnifiedBatch,
    ) -> std::io::Result<()> {
        let table = self.unified.get_or_insert_with(empty_unified_table);
        ndt_mlab::columnar::push_unified_batch(table, batch).map_err(|e| e.into_io())
    }

    /// Appends scamper trace rows.
    pub fn push_trace_rows(&mut self, rows: Vec<Scamper1Row>) {
        self.raw.traces.extend(rows);
    }

    /// Unified rows ingested so far (row-wise and batch-wise combined).
    pub fn unified_rows(&self) -> usize {
        self.unified.as_ref().map_or(0, Table::len)
    }

    /// Current position, for a later [`Self::rollback`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark {
            unified_rows: self.unified_rows(),
            ndt_rows: self.raw.ndt.len(),
            trace_rows: self.raw.traces.len(),
        }
    }

    /// Discards everything ingested after `mark` (table rows, raw rows,
    /// trace rows). Dictionary entries interned by discarded rows may
    /// linger in the table's dictionaries; they are unreferenced, and
    /// every value-level accessor and comparison is row-driven, so they
    /// are unobservable.
    pub fn rollback(&mut self, mark: BuilderMark) {
        if let Some(table) = self.unified.as_mut() {
            table.truncate(mark.unified_rows);
        }
        self.raw.ndt.truncate(mark.ndt_rows);
        self.raw.traces.truncate(mark.trace_rows);
    }

    /// Finalizes into a [`StudyData`]. Day gaps are computed from the
    /// ingested table by the same rule as [`StudyData::from_dataset`], so
    /// a builder fed only surviving shards reports exactly the gaps a
    /// batch run over the same rows would. Trace rows are put in day order
    /// here too, so shards may arrive in any order.
    pub fn finish(self) -> StudyData {
        let unified = self.unified.unwrap_or_else(empty_unified_table);
        let day_gaps = compute_day_gaps(&unified);
        StudyData { raw: day_ordered(self.raw), unified, day_gaps, second_country: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_small;

    #[test]
    fn periods_partition_unified_rows() {
        let data = shared_small();
        let total: usize =
            Period::ALL.iter().map(|p| data.period(*p).expect("period").count()).sum();
        assert_eq!(total, data.unified_len(), "every row belongs to exactly one period");
    }

    #[test]
    fn city_slices_are_subsets() {
        let data = shared_small();
        let kyiv = data.city_period("Kyiv", Period::Prewar2022).expect("city slice").count();
        let all = data.period(Period::Prewar2022).expect("period").count();
        assert!(kyiv > 0 && kyiv < all);
    }

    #[test]
    fn clean_corpus_has_no_day_gaps() {
        assert_eq!(shared_small().day_gaps, Vec::<(i64, i64)>::new());
    }

    #[test]
    fn dropped_days_inside_populated_windows_become_gaps() {
        let full = shared_small();
        // Rebuild the corpus with two day runs removed — one mid-window,
        // one spanning a window edge — as if the shards holding them had
        // been quarantined.
        let lost = |d: i64| (20..25).contains(&d) || (54..60).contains(&d);
        let mut b = StudyDataBuilder::new();
        b.push_ndt_rows(full.raw.ndt.iter().filter(|r| !lost(r.day)).cloned().collect());
        b.push_trace_rows(full.raw.traces.iter().filter(|r| !lost(r.day)).cloned().collect());
        let degraded = b.finish();
        assert_eq!(degraded.day_gaps, vec![(20, 24), (54, 59)]);
        // And a window with no rows at all is "not simulated", not a gap.
        let mut empty_window = StudyDataBuilder::new();
        empty_window.push_ndt_rows(
            full.raw.ndt.iter().filter(|r| r.day >= 365).cloned().collect(),
        );
        assert_eq!(empty_window.finish().day_gaps, Vec::<(i64, i64)>::new());
    }

    /// What `traces_in` computed before it became a slice: a linear
    /// filter over the whole corpus.
    fn filtered(traces: &[Scamper1Row], p: Period) -> Vec<&Scamper1Row> {
        let (s, e) = p.day_range();
        traces.iter().filter(|r| (s..e).contains(&r.day)).collect()
    }

    #[test]
    fn traces_filter_by_day() {
        let data = shared_small();
        assert!(!data.traces_in(Period::Wartime2022).is_empty());
        for p in Period::ALL {
            let sliced: Vec<&Scamper1Row> = data.traces_in(p).iter().collect();
            assert_eq!(sliced, filtered(&data.raw.traces, p), "{p:?}");
        }
    }

    #[test]
    fn shards_out_of_day_order_slice_like_the_sorted_corpus() {
        let full = shared_small();
        // Feed the corpus as 30-day shards, last shard first.
        let mut shards: Vec<Vec<Scamper1Row>> = Vec::new();
        for r in &full.raw.traces {
            let k = r.day.div_euclid(30) as usize;
            if shards.len() <= k {
                shards.resize(k + 1, Vec::new());
            }
            shards[k].push(r.clone());
        }
        let mut b = StudyDataBuilder::new();
        for shard in shards.into_iter().rev() {
            b.push_trace_rows(shard);
        }
        let rebuilt = b.finish();
        assert_eq!(rebuilt.raw.traces, full.raw.traces, "finish restores day order");
        for p in Period::ALL {
            let sliced: Vec<&Scamper1Row> = rebuilt.traces_in(p).iter().collect();
            assert_eq!(sliced, filtered(&full.raw.traces, p), "{p:?}");
        }
    }
}

/// Shared fixtures so the per-experiment test modules don't each pay for a
/// fresh simulation.
pub mod test_support {
    use super::*;
    use std::sync::OnceLock;

    static SMALL: OnceLock<StudyData> = OnceLock::new();
    static MEDIUM: OnceLock<StudyData> = OnceLock::new();

    /// A ~6%-volume corpus, shared by fast unit tests.
    pub fn shared_small() -> &'static StudyData {
        SMALL.get_or_init(|| StudyData::generate(SimConfig::small(1234)))
    }

    /// A ~20%-volume corpus for analyses that need statistical depth
    /// (Welch stars, top-1000 connections).
    pub fn shared_medium() -> &'static StudyData {
        MEDIUM.get_or_init(|| {
            StudyData::generate(SimConfig { scale: 0.2, seed: 99, ..SimConfig::default() })
        })
    }
}
