//! Workload shapes, seeded inputs and the ground-truth oracle.

use dgf_common::{format_row, Row, Value};
use dgf_format::FileFormat;
use dgf_query::{AggFunc, ColumnRange, Predicate, Query, QueryResult};
use dgf_workload::{generate_meter_data, MeterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Listing 4 at 12% on a fine grid, one client.
    AggFine,
    /// Listing 5 at 5% on a coarse RCFile grid, two clients.
    GroupByCoarse,
    /// Open-loop streaming ingest beside one Listing 4 reader.
    IngestMixed,
}

/// Everything that shapes one workload run.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name as `--workload` spells it.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// Distinct meter users.
    pub users: u64,
    /// Generated collection days.
    pub days: u64,
    /// Days loaded into the base table before the index is built; the
    /// rest arrive through `StreamIngestor`.
    pub loaded_days: u64,
    /// Grid cells along `user_id` (interval = users / user_cells).
    pub user_cells: u64,
    /// Base-table format.
    pub format: FileFormat,
    /// `LogKvStore` (durable) instead of `MemKvStore`.
    pub durable_kv: bool,
    /// Closed-loop query clients.
    pub clients: usize,
    /// `ServeOptions::workers`.
    pub workers: usize,
    /// Fraction of the table a read-phase query selects.
    pub selectivity: f64,
    /// Rows per ingest batch.
    pub batch_rows: usize,
    /// Open-loop ingest rate, batches per second.
    pub batch_rate: f64,
    /// Flushes per day of streamed rows (one after every
    /// `batches_per_day / flushes_per_day` batches).
    pub flushes_per_day: usize,
    /// Maintenance pass after every this many flushes.
    pub maint_every_flushes: u64,
    /// Whether the writer's schedule pauses for maintenance passes: the
    /// batch after a pass is due when the pass ends, instead of the
    /// schedule running on through it.
    pub pause_for_maintenance: bool,
    /// `MaintenanceConfig::delta_file_budget`.
    pub delta_file_budget: usize,
    /// Times the set-up is repeated (its median is `setup_s`).
    pub setups: usize,
    /// Untimed queries before the measured window.
    pub warmup_queries: usize,
    /// Newest days an ingest_mixed reader query covers.
    pub newest_days: i64,
    /// Exact-answer queries after the final flush and maintenance pass.
    pub final_checks: usize,
}

impl Spec {
    /// The named workload at full (`tiny = false`) or smoke size.
    pub fn new(name: &str, tiny: bool) -> Option<Spec> {
        let base = Spec {
            name: "",
            kind: Kind::AggFine,
            users: 0,
            days: 30,
            loaded_days: 27,
            user_cells: 0,
            format: FileFormat::Text,
            durable_kv: false,
            clients: 1,
            workers: 1,
            selectivity: 0.12,
            batch_rows: 100,
            batch_rate: 75.0,
            flushes_per_day: 4,
            maint_every_flushes: 2,
            pause_for_maintenance: true,
            delta_file_budget: 3,
            setups: 3,
            warmup_queries: 4,
            newest_days: 3,
            final_checks: 8,
        };
        let mut spec = match name {
            "agg_fine" => Spec {
                name: "agg_fine",
                kind: Kind::AggFine,
                users: 18_000,
                user_cells: 900,
                batch_rate: 40.0,
                flushes_per_day: 6,
                ..base
            },
            "groupby_coarse" => Spec {
                name: "groupby_coarse",
                kind: Kind::GroupByCoarse,
                users: 10_000,
                user_cells: 100,
                format: FileFormat::RcFile,
                clients: 2,
                workers: 2,
                selectivity: 0.05,
                days: 33,
                maint_every_flushes: 4,
                warmup_queries: 20,
                ..base
            },
            "ingest_mixed" => Spec {
                name: "ingest_mixed",
                kind: Kind::IngestMixed,
                users: 3_000,
                loaded_days: 10,
                user_cells: 100,
                format: FileFormat::RcFile,
                durable_kv: true,
                workers: 2,
                batch_rows: 500,
                batch_rate: 8.0,
                flushes_per_day: 1,
                maint_every_flushes: 4,
                pause_for_maintenance: false,
                delta_file_budget: 4,
                setups: 5,
                ..base
            },
            _ => return None,
        };
        if tiny {
            let streamed_days = (spec.days - spec.loaded_days).min(8);
            spec.users = 440;
            spec.user_cells = spec.user_cells.min(40);
            spec.days = 12;
            spec.loaded_days = spec.days - streamed_days;
            spec.batch_rows = 110;
            spec.setups = 2;
            spec.warmup_queries = 2;
            spec.final_checks = 4;
        }
        Some(spec)
    }

    /// Users per grid cell along `user_id`.
    pub fn user_interval(&self) -> i64 {
        (self.users / self.user_cells).max(1) as i64
    }

    /// The meter generator config for `seed`.
    pub fn meter(&self, seed: u64) -> MeterConfig {
        MeterConfig {
            users: self.users,
            days: self.days,
            seed,
            ..MeterConfig::default()
        }
    }
}

/// A query region: `user_id ∈ [user_lo, user_hi)`, every region,
/// `ts ∈ [day_lo, day_hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Inclusive first user.
    pub user_lo: i64,
    /// Exclusive last user.
    pub user_hi: i64,
    /// Inclusive first epoch day.
    pub day_lo: i64,
    /// Exclusive last epoch day.
    pub day_hi: i64,
}

/// Aggregates every workload query computes.
pub fn query_aggs() -> Vec<AggFunc> {
    vec![AggFunc::Sum("power_consumed".into()), AggFunc::Count]
}

impl Window {
    fn predicate(&self, regions: u64) -> Predicate {
        Predicate::all()
            .and(
                "user_id",
                ColumnRange::half_open(Value::Int(self.user_lo), Value::Int(self.user_hi)),
            )
            .and(
                "region_id",
                ColumnRange::half_open(Value::Int(0), Value::Int(regions as i64)),
            )
            .and(
                "ts",
                ColumnRange::half_open(Value::Date(self.day_lo), Value::Date(self.day_hi)),
            )
    }

    /// Listing 4 (`SUM(power_consumed), COUNT`) over this window.
    pub fn aggregate(&self, regions: u64) -> Query {
        Query::Aggregate {
            aggs: query_aggs(),
            predicate: self.predicate(regions),
        }
    }

    /// Listing 5 (`GROUP BY ts`) over this window, with COUNT beside the
    /// SUM so the oracle can check row counts exactly.
    pub fn group_by(&self, regions: u64) -> Query {
        Query::GroupBy {
            key: "ts".into(),
            aggs: query_aggs(),
            predicate: self.predicate(regions),
        }
    }

    fn contains(&self, user: i64, day: i64) -> bool {
        (self.user_lo..self.user_hi).contains(&user) && (self.day_lo..self.day_hi).contains(&day)
    }
}

/// A seeded window of `selectivity` over `days` collection days starting
/// at `start_day`: about √selectivity of the days and the rest of the
/// fraction along `user_id`, at a random position (the split
/// `dgf_workload::meter_ranges` uses, without its centring).
pub fn random_window(
    users: u64,
    start_day: i64,
    days: u64,
    selectivity: f64,
    rng: &mut StdRng,
) -> Window {
    let span_days = ((days as f64 * selectivity.sqrt()).ceil() as i64).clamp(1, days as i64);
    let user_frac = (selectivity * days as f64 / span_days as f64).min(1.0);
    let span_users = ((users as f64 * user_frac).round() as i64).clamp(1, users as i64);
    let user_lo = rng.random_range(0..=users as i64 - span_users);
    let day_lo = start_day + rng.random_range(0..=days as i64 - span_days);
    Window {
        user_lo,
        user_hi: user_lo + span_users,
        day_lo,
        day_hi: day_lo + span_days,
    }
}

/// The generator for request `request` of a run seeded with `seed`: the
/// same seed gives every request the same window whatever the timing.
pub fn request_rng(seed: u64, request: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ request.wrapping_add(1))
}

/// Text bytes of `rows` as a TextFile table stores them.
pub fn text_bytes(rows: &[Row]) -> u64 {
    rows.iter().map(|r| format_row(r).len() as u64 + 1).sum()
}

/// The generated rows of one run.
pub struct Dataset {
    /// Generator config.
    pub meter: MeterConfig,
    /// Rows of the first `loaded_days` days (the base table).
    pub loaded: Vec<Row>,
    /// Later rows in seeded arrival order, cut into ingest batches.
    pub batches: Vec<Vec<Row>>,
    /// Batches per collection day.
    pub batches_per_day: usize,
}

impl Dataset {
    /// Generate the rows for `spec` from `seed`; streamed days are
    /// shuffled within each day before batching.
    pub fn new(spec: &Spec, seed: u64) -> Dataset {
        let meter = spec.meter(seed);
        let mut all = generate_meter_data(&meter);
        let per_day = spec.users as usize;
        let streamed = all.split_off(spec.loaded_days as usize * per_day);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C_4000);
        let mut batches = Vec::new();
        for day in streamed.chunks(per_day) {
            let mut day = day.to_vec();
            for i in (1..day.len()).rev() {
                day.swap(i, rng.random_range(0..=i));
            }
            batches.extend(day.chunks(spec.batch_rows).map(<[Row]>::to_vec));
        }
        Dataset {
            meter,
            loaded: all,
            batches_per_day: per_day.div_ceil(spec.batch_rows),
            batches,
        }
    }
}

/// Per-day prefix sums over `user_id` of COUNT and SUM(power_consumed),
/// answering any [`Window`] in O(days).
pub struct Truth {
    start_day: i64,
    users: usize,
    count: Vec<Vec<u64>>,
    sum: Vec<Vec<f64>>,
}

/// What a query must return.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// `(day, count, sum)` for every day in the window with rows.
    pub days: Vec<(i64, u64, f64)>,
}

impl Expected {
    /// Total row count.
    pub fn count(&self) -> u64 {
        self.days.iter().map(|d| d.1).sum()
    }

    /// Total sum.
    pub fn sum(&self) -> f64 {
        self.days.iter().map(|d| d.2).sum()
    }
}

/// Relative tolerance on float sums: the engine and the oracle add the
/// same values in different orders.
pub const SUM_TOLERANCE: f64 = 1e-9;

fn sum_matches(got: f64, want: f64) -> bool {
    (got - want).abs() <= SUM_TOLERANCE * want.abs().max(1.0)
}

impl Truth {
    /// Index `rows` (of a dataset starting at `start_day`, `days` long).
    pub fn new<'a>(meter: &MeterConfig, rows: impl IntoIterator<Item = &'a Row>) -> Truth {
        let users = meter.users as usize;
        let days = meter.days as usize;
        let mut count = vec![vec![0u64; users + 1]; days];
        let mut sum = vec![vec![0f64; users + 1]; days];
        for row in rows {
            let (user, day, power) = match (&row[0], &row[2], &row[3]) {
                (Value::Int(u), Value::Date(d), Value::Float(p)) => (*u as usize, *d, *p),
                other => panic!("unexpected meter row shape {other:?}"),
            };
            let d = (day - meter.start_day) as usize;
            count[d][user + 1] += 1;
            sum[d][user + 1] += power;
        }
        for d in 0..days {
            for u in 0..users {
                count[d][u + 1] += count[d][u];
                sum[d][u + 1] += sum[d][u];
            }
        }
        Truth {
            start_day: meter.start_day,
            users,
            count,
            sum,
        }
    }

    /// The exact answer over `w`.
    pub fn expect(&self, w: &Window) -> Expected {
        let lo = w.user_lo.clamp(0, self.users as i64) as usize;
        let hi = w.user_hi.clamp(0, self.users as i64) as usize;
        let mut days = Vec::new();
        for day in w.day_lo..w.day_hi {
            let d = day - self.start_day;
            if d < 0 || d as usize >= self.count.len() {
                continue;
            }
            let d = d as usize;
            let c = self.count[d][hi] - self.count[d][lo];
            if c > 0 {
                days.push((day, c, self.sum[d][hi] - self.sum[d][lo]));
            }
        }
        Expected { days }
    }
}

fn scalars(result: &QueryResult) -> Option<(f64, u64)> {
    match result {
        QueryResult::Scalars(v) => match v.as_slice() {
            [Value::Float(s), Value::Int(c)] => Some((*s, *c as u64)),
            // An empty region sums to NULL.
            [Value::Null, Value::Int(0)] => Some((0.0, 0)),
            _ => None,
        },
        _ => None,
    }
}

/// Whether `result` is exactly the expected answer (COUNT exact, SUM
/// within [`SUM_TOLERANCE`]), for either query shape.
pub fn matches(result: &QueryResult, want: &Expected) -> bool {
    match result {
        QueryResult::Groups(groups) => {
            groups.len() == want.days.len()
                && groups
                    .iter()
                    .zip(&want.days)
                    .all(|((key, vals), (day, c, s))| {
                        *key == Value::Date(*day)
                            && matches!(vals.as_slice(),
                            [Value::Float(gs), Value::Int(gc)]
                                if *gc as u64 == *c && sum_matches(*gs, *s))
                    })
        }
        _ => scalars(result).is_some_and(|(s, c)| c == want.count() && sum_matches(s, want.sum())),
    }
}

/// COUNT of an aggregate result, for the in-flight ingest bound.
pub fn result_count(result: &QueryResult) -> Option<u64> {
    scalars(result).map(|(_, c)| c)
}

/// Rows of `batches` inside `w`.
pub fn count_in(batches: &[Vec<Row>], w: &Window) -> u64 {
    batches
        .iter()
        .flatten()
        .filter(|row| match (&row[0], &row[2]) {
            (Value::Int(u), Value::Date(d)) => w.contains(*u, *d),
            _ => false,
        })
        .count() as u64
}
