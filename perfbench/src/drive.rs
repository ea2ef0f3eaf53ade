//! Load generation: closed-loop query clients and the open-loop writer.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dgf_common::{DgfError, IoSnapshot, Result, Row};
use dgf_core::{Maintainer, MaintenanceReport, PlanStrategy};
use dgf_hive::execute_sink;
use dgf_ingest::StreamIngestor;
use dgf_query::{Query, QueryResult};
use dgf_serve::ServeFrontend;

use crate::data::{random_window, request_rng, Dataset, Kind, Spec, Window};
use crate::kv::{thread_tally, KvTally};
use crate::lab::Lab;
use crate::trace::{self, Span};

/// How long a client keeps retrying a request the frontend bounces
/// with backpressure before it gives the request up.
const GIVE_UP: Duration = Duration::from_secs(10);

/// State the clients and the writer share during a run.
pub struct Shared<'a> {
    /// Workload shape.
    pub spec: &'a Spec,
    /// Workload seed.
    pub seed: u64,
    /// The set-up being measured.
    pub lab: &'a Lab,
    /// The generated rows.
    pub data: &'a Dataset,
    /// The serving tier in front of the index.
    pub frontend: &'a ServeFrontend,
    /// Whether odd requests take the traced layer-by-layer path.
    pub traced: bool,
    /// Next request id.
    pub next_request: AtomicU64,
    /// Batches `StreamIngestor::ingest` has acknowledged.
    pub acked: AtomicUsize,
    /// Batches handed to `StreamIngestor::ingest` (acknowledged or in
    /// flight).
    pub started: AtomicUsize,
    /// Whether a concurrent writer is still streaming; clients keep
    /// going past their deadline until it is done.
    pub writing: AtomicBool,
}

/// Counters the planner reports and I/O charged across the traced
/// calls of one request.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerSample {
    pub inner_gfus: u64,
    pub boundary_gfus: u64,
    pub pyramid_nodes: u64,
    pub splits_read: u64,
    pub fresh_gfus: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub kv: KvTally,
    pub plan_hdfs_bytes_read: u64,
    pub scan_hdfs_bytes_read: u64,
    pub scan_hdfs_seeks: u64,
}

/// One finished request.
pub struct Served {
    /// Request id (1-based; span request tags use it).
    pub request: u64,
    /// Its query region.
    pub window: Window,
    /// Client-side latency.
    pub latency_ms: f64,
    /// The answer, `None` on error or give-up.
    pub result: Option<QueryResult>,
    /// Batches acknowledged when the request started.
    pub acked_before: usize,
    /// Batches started when the request ended.
    pub started_after: usize,
    /// Layer counters, for requests on the traced path.
    pub layers: Option<LayerSample>,
}

/// What one client thread did.
pub struct ClientLog {
    /// Its requests in completion order.
    pub served: Vec<Served>,
    /// Its spans.
    pub spans: Vec<Span>,
}

impl<'a> Shared<'a> {
    /// The query region of `request`. Read workloads draw a seeded
    /// window over the loaded days; ingest_mixed readers cover the
    /// newest `newest_days` days acknowledged so far.
    pub fn window(&self, request: u64, acked: usize) -> Window {
        let spec = self.spec;
        let m = &self.data.meter;
        let mut rng = request_rng(self.seed, request);
        match spec.kind {
            Kind::IngestMixed => {
                let newest = if acked == 0 {
                    spec.loaded_days as i64 - 1
                } else {
                    spec.loaded_days as i64 + ((acked - 1) / self.data.batches_per_day) as i64
                };
                let day_hi = m.start_day + newest + 1;
                let mut w = random_window(m.users, m.start_day, 1, spec.selectivity, &mut rng);
                w.day_hi = day_hi;
                w.day_lo = day_hi - spec.newest_days;
                w
            }
            _ => random_window(
                m.users,
                m.start_day,
                spec.loaded_days,
                spec.selectivity,
                &mut rng,
            ),
        }
    }

    /// The workload's query over `w`.
    pub fn query(&self, w: &Window) -> Query {
        match self.spec.kind {
            Kind::GroupByCoarse => w.group_by(self.data.meter.regions),
            _ => w.aggregate(self.data.meter.regions),
        }
    }

    /// Serve `q` through `ServeFrontend::run`, retrying backpressure.
    pub fn serve(&self, q: &Query) -> Option<QueryResult> {
        let t = Instant::now();
        loop {
            match self.frontend.run(q) {
                Ok(run) => return Some(run.result),
                Err(DgfError::Backpressure(_)) if t.elapsed() < GIVE_UP => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(_) => return None,
            }
        }
    }

    /// Answer `q` by calling the layers `DgfEngine::run` calls, in the
    /// same order, each inside its own span: `plan_with_strategy`, then
    /// `execute_sink` over the boundary inputs, then the header merge,
    /// fresh-row merge and `finish`.
    fn layered(&self, q: &Query) -> Result<(QueryResult, LayerSample)> {
        let ctx = &self.lab.ctx;
        let index = &self.lab.index;
        let io = || ctx.hdfs.stats().snapshot();
        let tally0 = thread_tally();
        let io0 = io();
        let mut plan = trace::span("plan", || {
            index.plan_with_strategy(q, true, PlanStrategy::default())
        })?;
        let io1 = io();
        let kv = thread_tally().since(&tally0);
        let inputs = std::mem::take(&mut plan.inputs);
        let sink = trace::span("scan", || execute_sink(ctx, &index.data, q, None, inputs))?;
        let io2 = io();
        let result = trace::span("assemble", || -> Result<QueryResult> {
            let mut sink = sink;
            if let Some(states) = &plan.inner_states {
                sink.merge_agg_states(states)?;
            }
            if !plan.fresh_rows.is_empty() {
                let bound = q.predicate().bind(&index.data.schema)?;
                for row in &plan.fresh_rows {
                    sink.push_if(row, &bound)?;
                }
            }
            Ok(sink.finish())
        })?;
        let scan_io: IoSnapshot = io2.since(&io1);
        Ok((
            result,
            LayerSample {
                inner_gfus: plan.inner_gfus,
                boundary_gfus: plan.boundary_gfus,
                pyramid_nodes: plan.pyramid_nodes,
                splits_read: plan.splits_read,
                fresh_gfus: plan.fresh_gfus,
                cache_hits: plan.cache_hits,
                cache_misses: plan.cache_misses,
                kv,
                plan_hdfs_bytes_read: io1.since(&io0).bytes_read,
                scan_hdfs_bytes_read: scan_io.bytes_read,
                scan_hdfs_seeks: scan_io.seeks,
            },
        ))
    }

    /// One closed-loop client: issue requests back to back until
    /// `deadline` and the concurrent writer, if any, are both done. On a
    /// traced run odd requests take the layered path and even ones the
    /// serving path with tracing muted below the `serve` span, the
    /// reference for `trace_overhead_pct`.
    pub fn client(&self, deadline: Instant) -> ClientLog {
        let mut served = Vec::new();
        while Instant::now() < deadline || self.writing.load(Ordering::SeqCst) {
            let request = self.next_request.fetch_add(1, Ordering::Relaxed) + 1;
            let acked_before = self.acked.load(Ordering::SeqCst);
            let window = self.window(request, acked_before);
            let q = self.query(&window);
            trace::set_request(request);
            let layered = self.traced && request % 2 == 1;
            let t = Instant::now();
            let (result, layers) = if layered {
                match trace::span("request", || self.layered(&q)) {
                    Ok((r, s)) => (Some(r), Some(s)),
                    Err(_) => (None, None),
                }
            } else {
                (
                    trace::span("serve", || trace::muted(|| self.serve(&q))),
                    None,
                )
            };
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            served.push(Served {
                request,
                window,
                latency_ms,
                result,
                acked_before,
                started_after: self.started.load(Ordering::SeqCst),
                layers,
            });
        }
        trace::set_request(0);
        ClientLog {
            served,
            spans: trace::take_thread_spans(),
        }
    }
}

/// How late past its due time a batch must be sent, after a flush or
/// maintenance pass, for that call to count as having held it.
const STALL_MS: f64 = 1.0;

/// What the writer did.
#[derive(Default)]
pub struct WriteLog {
    /// Batches acknowledged.
    pub acked: usize,
    /// Batches that failed.
    pub failed: u64,
    /// Due time to acknowledgement, per batch.
    pub ack_ms: Vec<f64>,
    /// Call time of `StreamIngestor::ingest`, per batch.
    pub call_ms: Vec<f64>,
    /// How late the writer sent each batch after its due time.
    pub late_ms: Vec<f64>,
    /// `StreamIngestor::flush` wall time, per flush.
    pub flush_ms: Vec<f64>,
    /// Each batch that a flush or maintenance pass held past its due
    /// time: the first of a stall cycle.
    pub stalled: Vec<usize>,
    /// HDFS bytes written by flushes.
    pub flush_hdfs_bytes_written: u64,
    /// KV puts by flushes.
    pub flush_kv_puts: u64,
    /// `ServeFrontend::run_maintenance` wall time, per pass.
    pub maint_ms: Vec<f64>,
    /// Each pass's report.
    pub maint: Vec<MaintenanceReport>,
    /// HDFS bytes written by maintenance passes.
    pub maint_bytes_rewritten: u64,
    /// Maintenance passes that failed.
    pub maint_failed: u64,
    /// The writer's spans.
    pub spans: Vec<Span>,
}

impl<'a> Shared<'a> {
    fn flush(&self, ingestor: &StreamIngestor, log: &mut WriteLog) {
        let io0 = self.lab.ctx.hdfs.stats().snapshot();
        let kv0 = self.lab.store.stats().snapshot();
        let t = Instant::now();
        if trace::span("flush", || ingestor.flush()).is_err() {
            log.failed += 1;
        }
        log.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.flush_hdfs_bytes_written += self
            .lab
            .ctx
            .hdfs
            .stats()
            .snapshot()
            .since(&io0)
            .bytes_written;
        log.flush_kv_puts += self.lab.store.stats().snapshot().since(&kv0).puts;
    }

    fn maintain(&self, maintainer: &Maintainer, log: &mut WriteLog) {
        let io0 = self.lab.ctx.hdfs.stats().snapshot();
        let t = Instant::now();
        let outcome = trace::span("maint", || loop {
            match self.frontend.run_maintenance(maintainer) {
                Err(DgfError::Backpressure(_)) if t.elapsed() < GIVE_UP => {
                    std::thread::sleep(Duration::from_micros(100));
                }
                other => break other,
            }
        });
        log.maint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.maint_bytes_rewritten += self
            .lab
            .ctx
            .hdfs
            .stats()
            .snapshot()
            .since(&io0)
            .bytes_written;
        match outcome {
            Ok(report) => log.maint.push(report),
            Err(_) => log.maint_failed += 1,
        }
    }

    /// The open-loop writer: batch `i` is due `i / batch_rate` seconds
    /// after the start and is sent then (or as soon as the writer is
    /// free). It flushes `flushes_per_day` times per day of batches and
    /// runs a maintenance pass through the serving tier after every
    /// `maint_every_flushes` flushes — both on this thread, the index's
    /// single writer. With `pause_for_maintenance` the schedule restarts
    /// after each pass (the next batch is due when it ends), so no batch
    /// waits behind one. It sends every batch, flushes what is left,
    /// and ends with a maintenance pass unless one already followed the
    /// last flush; then it clears [`Shared::writing`].
    pub fn write(
        &self,
        ingestor: &StreamIngestor,
        maintainer: &Maintainer,
        batches: &[Vec<Row>],
    ) -> WriteLog {
        let mut log = WriteLog::default();
        let per_flush = self
            .data
            .batches_per_day
            .div_ceil(self.spec.flushes_per_day)
            .max(1);
        let mut held = false;
        let mut flushes = 0u64;
        let mut unflushed = false;
        let mut unmaintained = false;
        let mut t0 = Instant::now();
        let mut first = 0;
        for (i, batch) in batches.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64((i - first) as f64 / self.spec.batch_rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let late_ms = sent.duration_since(due).as_secs_f64() * 1e3;
            if held && late_ms > STALL_MS {
                log.stalled.push(i);
            }
            held = false;
            log.late_ms.push(late_ms);
            self.started.fetch_add(1, Ordering::SeqCst);
            let outcome = trace::span("ingest", || ingestor.ingest(batch));
            let done = Instant::now();
            log.ack_ms
                .push(done.duration_since(due).as_secs_f64() * 1e3);
            log.call_ms
                .push(done.duration_since(sent).as_secs_f64() * 1e3);
            match outcome {
                Ok(_) => {
                    self.acked.fetch_add(1, Ordering::SeqCst);
                    log.acked += 1;
                    unflushed = true;
                }
                Err(_) => log.failed += 1,
            }
            if (i + 1) % per_flush == 0 {
                self.flush(ingestor, &mut log);
                unflushed = false;
                unmaintained = true;
                held = true;
                flushes += 1;
                if flushes.is_multiple_of(self.spec.maint_every_flushes) {
                    self.maintain(maintainer, &mut log);
                    unmaintained = false;
                    if self.spec.pause_for_maintenance {
                        t0 = Instant::now();
                        first = i + 1;
                    }
                }
            }
        }
        if unflushed {
            self.flush(ingestor, &mut log);
            unmaintained = true;
        }
        if unmaintained {
            self.maintain(maintainer, &mut log);
        }
        log.spans = trace::take_thread_spans();
        self.writing.store(false, Ordering::SeqCst);
        log
    }
}
