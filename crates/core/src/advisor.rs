//! Splitting-policy advisor — the paper's future work (§8): "an algorithm
//! to find the best splitting policy for DGFIndex based on the
//! distribution of the meter data and the query history".
//!
//! The advisor fits per-dimension equi-width histograms to a data sample,
//! then grid-searches candidate interval sizes (log-spaced per dimension)
//! against a cost model evaluated over the query history:
//!
//! * **index cost** — every cell overlapping a query region costs one
//!   key-value lookup; more, smaller cells mean more lookups (the paper's
//!   Figures 12–13 trend);
//! * **boundary cost** — rows in partially-covered edge cells must be
//!   read from disk; fewer, larger cells mean fatter boundaries (the
//!   paper's Table 3/4 trend);
//! * **maintenance cost** — a regularizer proportional to total cell
//!   count (index size, Table 2).
//!
//! The optimum trades these exactly the way the paper's Large/Medium/
//! Small comparison does; the advisor automates the choice.

use dgf_common::{DgfError, Result, Row, Schema, ValueType};
use dgf_query::{Predicate, Query};

use crate::policy::{DimPolicy, SplittingPolicy};

/// Per-dimension statistics from a data sample.
#[derive(Debug, Clone)]
pub struct DimStats {
    /// Column name.
    pub name: String,
    /// Column type (Int, Date, or Float).
    pub vtype: ValueType,
    /// Minimum sampled value (as f64).
    pub min: f64,
    /// Maximum sampled value (as f64).
    pub max: f64,
    /// Distinct-value estimate from the sample.
    pub distinct: u64,
    /// Equi-width histogram of the sample (counts per bucket).
    pub histogram: Vec<u64>,
}

impl DimStats {
    /// Domain width.
    pub fn width(&self) -> f64 {
        (self.max - self.min).max(0.0)
    }
}

/// Collect [`DimStats`] for `dims` over a sample of rows.
pub fn collect_stats(sample: &[Row], schema: &Schema, dims: &[String]) -> Result<Vec<DimStats>> {
    const BUCKETS: usize = 64;
    let mut out = Vec::with_capacity(dims.len());
    for d in dims {
        let idx = schema.index_of(d)?;
        let vtype = schema.field(idx).vtype;
        if vtype == ValueType::Str {
            return Err(DgfError::Index(format!(
                "dimension {d:?} is a string column; the grid needs numeric or date dimensions"
            )));
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut values: Vec<f64> = Vec::with_capacity(sample.len());
        for r in sample {
            let v = &r[idx];
            if v.is_null() {
                continue;
            }
            let x = v.as_f64()?;
            min = min.min(x);
            max = max.max(x);
            values.push(x);
        }
        if values.is_empty() {
            return Err(DgfError::Index(format!("no non-null samples for {d:?}")));
        }
        let width = (max - min).max(f64::MIN_POSITIVE);
        let mut histogram = vec![0u64; BUCKETS];
        for x in &values {
            let b = (((x - min) / width) * BUCKETS as f64) as usize;
            histogram[b.min(BUCKETS - 1)] += 1;
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        out.push(DimStats {
            name: d.clone(),
            vtype,
            min,
            max,
            distinct: sorted.len() as u64,
            histogram,
        });
    }
    Ok(out)
}

/// Cost-model weights.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Cost of one GFU key-value lookup, relative to reading one row.
    pub lookup_cost: f64,
    /// Cost of reading one boundary row (the unit).
    pub row_cost: f64,
    /// Cost per existing GFU entry (index size / maintenance pressure).
    pub cell_cost: f64,
    /// Candidate interval counts tried per dimension.
    pub candidate_counts: Vec<u64>,
    /// Total-cell budget: candidates whose grid exceeds this are skipped.
    pub max_cells: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            lookup_cost: 4.0,
            row_cost: 1.0,
            cell_cost: 0.002,
            candidate_counts: vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000],
            max_cells: 5_000_000,
        }
    }
}

/// One per-dimension range of a historical query, normalized to the
/// dimension domain.
#[derive(Debug, Clone, Copy)]
struct QueryRange {
    /// Fraction of the domain covered (0..=1).
    frac: f64,
}

/// The advisor's recommendation.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The chosen policy.
    pub policy: SplittingPolicy,
    /// Interval count per dimension.
    pub counts: Vec<u64>,
    /// Expected cost under the model (arbitrary units; lower is better).
    pub expected_cost: f64,
    /// Expected number of populated cells.
    pub expected_cells: f64,
}

/// Recommend a splitting policy for `dims` given a data sample and a
/// query history.
pub fn recommend_policy(
    sample: &[Row],
    schema: &Schema,
    dims: &[String],
    history: &[Query],
    rows_total: u64,
    config: &AdvisorConfig,
) -> Result<Recommendation> {
    let stats = collect_stats(sample, schema, dims)?;
    if history.is_empty() {
        return Err(DgfError::Index("query history is empty".into()));
    }

    // Normalize the history to per-dimension covered fractions.
    let mut query_ranges: Vec<Vec<QueryRange>> = Vec::with_capacity(history.len());
    for q in history {
        query_ranges.push(
            stats
                .iter()
                .map(|s| QueryRange {
                    frac: covered_fraction(q.predicate(), s),
                })
                .collect(),
        );
    }

    // Grid-search candidate counts per dimension (the search space is
    // |candidates|^dims; dims is 2–4 in practice).
    let n_dims = stats.len();
    let mut best: Option<Recommendation> = None;
    let grid = vec![(0, config.candidate_counts.len() as i64 - 1); n_dims];
    let mut choice = vec![0i64; n_dims];
    loop {
        let counts: Vec<u64> = choice
            .iter()
            .map(|i| config.candidate_counts[*i as usize])
            .collect();
        if let Some(rec) = evaluate(&counts, &stats, &query_ranges, rows_total, config)? {
            if best.as_ref().is_none_or(|b| rec.expected_cost < b.expected_cost) {
                best = Some(rec);
            }
        }
        // Odometer over the candidate grid.
        if !crate::plan::advance(&mut choice, &grid) {
            break;
        }
    }
    best.ok_or_else(|| {
        DgfError::Index("no candidate policy fits within the cell budget".into())
    })
}

/// Fraction of dimension `s`'s domain that the predicate covers (1.0 when
/// the dimension is unconstrained).
fn covered_fraction(pred: &Predicate, s: &DimStats) -> f64 {
    use std::ops::Bound;
    let Some(range) = pred.range_of(&s.name) else {
        return 1.0;
    };
    let width = s.width().max(f64::MIN_POSITIVE);
    let lo = match &range.low {
        Bound::Unbounded => s.min,
        Bound::Included(v) | Bound::Excluded(v) => v.as_f64().unwrap_or(s.min),
    };
    let hi = match &range.high {
        Bound::Unbounded => s.max,
        Bound::Included(v) | Bound::Excluded(v) => v.as_f64().unwrap_or(s.max),
    };
    ((hi.min(s.max) - lo.max(s.min)) / width).clamp(0.0, 1.0)
}

fn evaluate(
    counts: &[u64],
    stats: &[DimStats],
    query_ranges: &[Vec<QueryRange>],
    rows_total: u64,
    config: &AdvisorConfig,
) -> Result<Option<Recommendation>> {
    // Effective cell count per dim cannot exceed its distinct values.
    let eff_counts: Vec<f64> = counts
        .iter()
        .zip(stats)
        .map(|(c, s)| (*c).min(s.distinct).max(1) as f64)
        .collect();
    let total_cells: f64 = eff_counts.iter().product();
    if total_cells > config.max_cells as f64 {
        return Ok(None);
    }
    // Populated cells cannot exceed total rows.
    let expected_cells = total_cells.min(rows_total as f64);

    let mut cost = 0.0;
    for ranges in query_ranges {
        // Cells overlapping the query region.
        let mut region_cells = 1.0;
        // Fraction of region rows in fully-covered (inner) cells.
        let mut inner_frac = 1.0;
        // Fraction of the table the query selects.
        let mut sel = 1.0;
        for (r, n) in ranges.iter().zip(&eff_counts) {
            let cells_d = (r.frac * n).ceil() + 1.0;
            region_cells *= cells_d.min(*n);
            // Of the cells the range spans, the two edge cells are
            // boundary; the inner fraction of *rows* follows.
            let spanned = (r.frac * n).max(f64::MIN_POSITIVE);
            let inner_d = ((spanned - 2.0) / spanned).max(0.0);
            inner_frac *= inner_d;
            sel *= r.frac;
        }
        let region_rows = sel * rows_total as f64;
        let boundary_rows = region_rows * (1.0 - inner_frac);
        cost += config.lookup_cost * region_cells + config.row_cost * boundary_rows;
    }
    cost /= query_ranges.len() as f64;
    cost += config.cell_cost * expected_cells;

    let policy = SplittingPolicy::new(
        counts
            .iter()
            .zip(stats)
            .map(|(c, s)| {
                let n = (*c).min(s.distinct).max(1);
                match s.vtype {
                    ValueType::Float => {
                        let interval = (s.width() / n as f64).max(f64::MIN_POSITIVE);
                        DimPolicy::float(&s.name, s.min, interval)
                    }
                    ValueType::Date => {
                        let interval =
                            ((s.width() / n as f64).ceil() as i64).max(1);
                        DimPolicy::date(&s.name, s.min as i64, interval)
                    }
                    _ => {
                        let interval =
                            ((s.width() / n as f64).ceil() as i64).max(1);
                        DimPolicy::int(&s.name, s.min as i64, interval)
                    }
                }
            })
            .collect(),
    )?;
    Ok(Some(Recommendation {
        policy,
        counts: counts.to_vec(),
        expected_cost: cost,
        expected_cells,
    }))
}

/// Convenience: derive the history from plain predicates.
pub fn history_from_predicates(preds: &[Predicate]) -> Vec<Query> {
    preds
        .iter()
        .map(|p| Query::Aggregate {
            aggs: vec![dgf_query::AggFunc::Count],
            predicate: p.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_common::Value;
    use dgf_query::ColumnRange;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("user_id", ValueType::Int),
            ("ts", ValueType::Date),
            ("power", ValueType::Float),
        ])
    }

    fn sample(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 1000),
                    Value::Date(15706 + i % 30),
                    Value::Float((i % 97) as f64 / 3.0),
                ]
            })
            .collect()
    }

    fn narrow_history() -> Vec<Query> {
        // Queries covering ~2% of users and ~10% of days.
        history_from_predicates(&[
            Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(100), Value::Int(120)))
                .and("ts", ColumnRange::half_open(Value::Date(15710), Value::Date(15713))),
            Predicate::all()
                .and("user_id", ColumnRange::half_open(Value::Int(500), Value::Int(520)))
                .and("ts", ColumnRange::half_open(Value::Date(15706), Value::Date(15709))),
        ])
    }

    fn wide_history() -> Vec<Query> {
        history_from_predicates(&[Predicate::all()
            .and("user_id", ColumnRange::half_open(Value::Int(0), Value::Int(900)))
            .and("ts", ColumnRange::half_open(Value::Date(15706), Value::Date(15734)))])
    }

    #[test]
    fn stats_reflect_the_sample() {
        let s = sample(3000);
        let stats = collect_stats(&s, &schema(), &["user_id".into(), "ts".into()]).unwrap();
        assert_eq!(stats[0].min, 0.0);
        assert_eq!(stats[0].max, 999.0);
        assert_eq!(stats[0].distinct, 1000);
        assert_eq!(stats[1].distinct, 30);
        assert_eq!(stats[0].histogram.iter().sum::<u64>(), 3000);
    }

    #[test]
    fn string_dimension_rejected() {
        let s = Schema::from_pairs(&[("name", ValueType::Str)]);
        let rows = vec![vec![Value::Str("x".into())]];
        assert!(collect_stats(&rows, &s, &["name".into()]).is_err());
    }

    #[test]
    fn recommends_valid_policy() {
        let s = sample(3000);
        let rec = recommend_policy(
            &s,
            &schema(),
            &["user_id".into(), "ts".into()],
            &narrow_history(),
            1_000_000,
            &AdvisorConfig::default(),
        )
        .unwrap();
        assert_eq!(rec.policy.arity(), 2);
        assert_eq!(rec.policy.dims()[0].name, "user_id");
        // Counts never exceed distinct values.
        assert!(rec.counts[1] <= 1000);
        assert!(rec.expected_cost.is_finite());
    }

    #[test]
    fn narrow_queries_prefer_finer_grids_than_wide_queries() {
        let s = sample(3000);
        let cfg = AdvisorConfig::default();
        let dims = vec!["user_id".to_owned(), "ts".to_owned()];
        let narrow = recommend_policy(&s, &schema(), &dims, &narrow_history(), 1_000_000, &cfg)
            .unwrap();
        let wide =
            recommend_policy(&s, &schema(), &dims, &wide_history(), 1_000_000, &cfg).unwrap();
        // Selective queries want fine cells (less boundary over-read);
        // full sweeps want coarse cells (fewer lookups).
        let narrow_cells: u64 = narrow.counts.iter().product();
        let wide_cells: u64 = wide.counts.iter().product();
        assert!(
            narrow_cells > wide_cells,
            "narrow {narrow_cells} vs wide {wide_cells}"
        );
    }

    #[test]
    fn cell_budget_is_respected() {
        let s = sample(3000);
        let cfg = AdvisorConfig {
            max_cells: 50,
            ..AdvisorConfig::default()
        };
        let rec = recommend_policy(
            &s,
            &schema(),
            &["user_id".into(), "ts".into()],
            &narrow_history(),
            1_000_000,
            &cfg,
        )
        .unwrap();
        let cells: u64 = rec
            .counts
            .iter()
            .zip(&["user_id", "ts"])
            .map(|(c, _)| *c)
            .product();
        assert!(cells <= 50, "{cells}");
    }

    #[test]
    fn empty_history_is_an_error() {
        let s = sample(100);
        assert!(recommend_policy(
            &s,
            &schema(),
            &["user_id".into()],
            &[],
            1000,
            &AdvisorConfig::default()
        )
        .is_err());
    }

    #[test]
    fn recommended_policy_builds_a_working_index() {
        use dgf_format::FileFormat;
        use dgf_hive::{HiveContext, ScanEngine};
        use dgf_kvstore::MemKvStore;
        use dgf_mapreduce::MrEngine;
        use dgf_query::Engine;
        use dgf_storage::SimHdfs;
        use std::sync::Arc;

        let rows = sample(2000);
        let tmp = dgf_common::TempDir::new("advisor").unwrap();
        let hdfs = SimHdfs::open(tmp.path()).unwrap();
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let table = ctx
            .create_table("t", Arc::new(schema()), FileFormat::Text)
            .unwrap();
        ctx.load_rows(&table, &rows, 2).unwrap();

        let rec = recommend_policy(
            &rows,
            &schema(),
            &["user_id".into(), "ts".into()],
            &narrow_history(),
            rows.len() as u64,
            &AdvisorConfig::default(),
        )
        .unwrap();
        let (idx, _) = crate::DgfIndex::build(
            Arc::clone(&ctx),
            Arc::clone(&table),
            rec.policy,
            vec![dgf_query::AggFunc::Count],
            Arc::new(MemKvStore::new()),
            "dgf_advised",
        )
        .unwrap();
        let q = &narrow_history()[0];
        let truth = ScanEngine::new(Arc::clone(&ctx), table).run(q).unwrap();
        let got = crate::DgfEngine::new(Arc::new(idx)).run(q).unwrap();
        assert!(got.result.approx_eq(&truth.result, 1e-9));
    }
}
