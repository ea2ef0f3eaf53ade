//! DGFIndex benchmark: one seeded workload, measured end to end
//! (`--trace 0`) or layer by layer (`--trace 1`).
//!
//! ```text
//! dgf-perfbench --workload <agg_fine|groupby_coarse|ingest_mixed>
//!               --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the run record (seed, sizes, grid, policies). Scratch state lives in
//! `.bench_work/` under the current directory and is removed on exit,
//! except the per-run records and span files in `.bench_work/results/`.
//! See `README.md` beside this crate for the workloads and metrics.

mod data;
mod drive;
mod kv;
mod lab;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dgf_common::{DgfError, Result};
use dgf_core::{DgfEngine, Maintainer, MaintenanceConfig, DEFAULT_HEADER_CACHE_CAPACITY};
use dgf_hive::ServeOptions;
use dgf_ingest::{IngestConfig, StreamIngestor};
use dgf_serve::ServeFrontend;

use data::{
    count_in, matches, random_window, request_rng, result_count, text_bytes, Dataset, Kind, Spec,
    Truth,
};
use drive::{Shared, WriteLog};
use lab::Lab;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Ordered `(name, value, unit)` metrics.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Linear-interpolated quantile (`q` in 0..=1); 0 for an empty sample.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean, over the writer's stall cycles, of each cycle's p99 ack
/// time. A stall cycle starts at a batch that a flush or maintenance
/// pass held past its due time and runs to the next such batch. Falls
/// back to the p99 over every batch when nothing was held.
fn cycle_p99(ack_ms: &[f64], stalled: &[usize]) -> f64 {
    let cycles: Vec<f64> = stalled
        .iter()
        .zip(stalled.iter().skip(1).chain(std::iter::once(&ack_ms.len())))
        .map(|(&a, &b)| quantile(&ack_ms[a..b], 0.99))
        .collect();
    if cycles.is_empty() {
        quantile(ack_ms, 0.99)
    } else {
        mean(cycles)
    }
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (n, s) = values
        .into_iter()
        .fold((0u64, 0.0), |(n, s), v| (n + 1, s + v));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

struct Outcome {
    tally: Tally,
    metrics: Metrics,
    record: String,
}

fn run(args: &Args, root: &Path) -> Result<Outcome> {
    let t_run = Instant::now();
    let phase = |name: &str| {
        eprintln!(
            "perfbench: {name} done after {:.1} s",
            t_run.elapsed().as_secs_f64()
        )
    };
    let spec = Spec::new(&args.workload, args.tiny)
        .ok_or_else(|| DgfError::Index(format!("unknown workload {:?}", args.workload)))?;
    let scratch = Scratch(root.join(format!("run-{}", std::process::id())));
    lab::sync_disks();
    phase("sync");
    let data = Dataset::new(&spec, args.seed);
    phase("data");
    let m = data.meter.clone();

    // Set-up, repeated; the last one is measured.
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut lab: Option<Lab> = None;
    for k in 0..spec.setups {
        if let Some(old) = lab.take() {
            let dir = old.dir.clone();
            drop(old);
            let _ = std::fs::remove_dir_all(dir);
        }
        let l = Lab::setup(
            &spec,
            m.start_day,
            &data.loaded,
            &scratch.0.join(format!("setup{k}")),
        )?;
        setup_s.push((l.load_ms + l.build_ms) / 1e3);
        load_ms.push(l.load_ms);
        build_ms.push(l.build_ms);
        lab = Some(l);
    }
    let lab = lab.expect("at least one set-up");
    phase("setup");
    lab::sync_disks();
    phase("sync");

    let frontend = ServeFrontend::new(
        DgfEngine::new(Arc::clone(&lab.index)),
        ServeOptions {
            workers: spec.workers,
            ..ServeOptions::default()
        },
    );
    let shared = Shared {
        spec: &spec,
        seed: args.seed,
        lab: &lab,
        data: &data,
        frontend: &frontend,
        traced: args.trace,
        next_request: AtomicU64::new(0),
        acked: AtomicUsize::new(0),
        started: AtomicUsize::new(0),
        writing: AtomicBool::new(spec.kind == Kind::IngestMixed),
    };
    let truth_loaded = Truth::new(&m, &data.loaded);
    let mut tally = Tally::default();

    // Warm-up, outside the measured window (answers still checked).
    for i in 0..spec.warmup_queries as u64 {
        let w = shared.window(u64::MAX - i, 0);
        let r = shared.serve(&shared.query(&w));
        tally.record(r.is_some_and(|r| matches(&r, &truth_loaded.expect(&w))));
    }

    let maintainer = Maintainer::new(
        Arc::clone(&lab.index),
        MaintenanceConfig {
            delta_file_budget: spec.delta_file_budget,
            ..MaintenanceConfig::default()
        },
    );
    let ingest_config = IngestConfig {
        flush_rows: u64::MAX,
        auto_flush_interval: None,
        ..IngestConfig::default()
    };
    let open_ingestor = || {
        StreamIngestor::open(
            Arc::clone(&lab.index),
            lab.wal_path(),
            ingest_config.clone(),
        )
    };

    phase("warmup");
    let scan0 = lab.ctx.scan_stats.snapshot();
    let serve0 = frontend.stats().snapshot();
    let kv0 = lab.store.stats().snapshot();
    let io0 = lab.ctx.hdfs.stats().snapshot();
    trace::set_enabled(args.trace);

    // The measured window: closed-loop clients, plus the open-loop
    // writer on ingest_mixed.
    let concurrent_ingestor = match spec.kind {
        Kind::IngestMixed => Some(open_ingestor()?),
        _ => None,
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (clients, read_wall, concurrent_write) = std::thread::scope(|s| {
        let writer = concurrent_ingestor.as_ref().map(|ing| {
            let shared = &shared;
            let maintainer = &maintainer;
            let batches = &data.batches;
            s.spawn(move || {
                let log = shared.write(ing, maintainer, batches);
                (log, ing.stats())
            })
        });
        let handles: Vec<_> = (0..spec.clients)
            .map(|_| s.spawn(|| shared.client(deadline)))
            .collect();
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect();
        let read_wall = start.elapsed().as_secs_f64();
        let write = writer.map(|h| h.join().expect("writer panicked"));
        (clients, read_wall, write)
    });
    phase("window");
    let scan1 = lab.ctx.scan_stats.snapshot();
    let serve1 = frontend.stats().snapshot();

    // Read workloads end with a write tail: the held-back days streamed
    // in by the same writer, flushed and maintained, with no reader.
    let (write_io0, write_kv0) = match spec.kind {
        Kind::IngestMixed => (io0, kv0),
        _ => (
            lab.ctx.hdfs.stats().snapshot(),
            lab.store.stats().snapshot(),
        ),
    };
    let (write, ingest_stats, ingestor) = match concurrent_write {
        Some((log, st)) => (
            log,
            st,
            concurrent_ingestor.expect("ingestor of the writer"),
        ),
        None => {
            let ing = open_ingestor()?;
            let log = shared.write(&ing, &maintainer, &data.batches);
            let st = ing.stats();
            (log, st, ing)
        }
    };
    phase("write");
    trace::set_enabled(false);
    ingestor.close()?;
    let write_io = lab.ctx.hdfs.stats().snapshot().since(&write_io0);
    let write_kv = lab.store.stats().snapshot().since(&write_kv0);
    let kv_run = lab.store.stats().snapshot().since(&kv0);
    let io_run = lab.ctx.hdfs.stats().snapshot().since(&io0);

    // Oracle over every in-window answer.
    let acked = write.acked;
    for c in &clients {
        for s in &c.served {
            let ok = match (&s.result, spec.kind) {
                (Some(r), Kind::IngestMixed) => {
                    let base = truth_loaded.expect(&s.window).count();
                    let lo = base + count_in(&data.batches[..s.acked_before], &s.window);
                    let hi = base + count_in(&data.batches[..s.started_after], &s.window);
                    result_count(r).is_some_and(|c| (lo..=hi).contains(&c))
                }
                (Some(r), _) => matches(r, &truth_loaded.expect(&s.window)),
                (None, _) => false,
            };
            tally.record(ok);
        }
    }
    tally.attempted += acked as u64 + write.failed;
    tally.failed += write.failed + write.maint_failed;

    // After the final flush and maintenance pass, answers are exact.
    let streamed = &data.batches[..acked];
    let truth_all = Truth::new(&m, data.loaded.iter().chain(streamed.iter().flatten()));
    let days_present = spec.loaded_days + acked.div_ceil(data.batches_per_day) as u64;
    for i in 0..spec.final_checks as u64 {
        let mut rng = request_rng(args.seed ^ 0xF1A1, i);
        let w = random_window(
            m.users,
            m.start_day,
            days_present,
            spec.selectivity,
            &mut rng,
        );
        let r = shared.serve(&shared.query(&w));
        tally.record(r.is_some_and(|r| matches(&r, &truth_all.expect(&w))));
    }

    phase("final checks");
    // End-to-end figures.
    let served: Vec<_> = clients.iter().flat_map(|c| &c.served).collect();
    let ok_lat: Vec<f64> = served
        .iter()
        .filter(|s| s.result.is_some())
        .map(|s| s.latency_ms)
        .collect();
    let user_bytes = text_bytes(&data.loaded) + streamed.iter().map(|b| text_bytes(b)).sum::<u64>();
    let streamed_bytes: u64 = streamed.iter().map(|b| text_bytes(b)).sum();
    let wal_bytes = std::fs::metadata(lab.wal_path()).map_or(0, |md| md.len());
    let stored = lab.hdfs_bytes() + lab.kv_bytes() + wal_bytes;
    let written = write_io.bytes_written + write_kv.bytes_written + ingest_stats.wal_bytes;

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.put("setup_s", quantile(&setup_s, 0.5), "s");
        metrics.put("query_p50_ms", quantile(&ok_lat, 0.5), "ms");
        metrics.put("query_p95_ms", quantile(&ok_lat, 0.95), "ms");
        metrics.put("query_qps", ok_lat.len() as f64 / read_wall, "1/s");
        metrics.put("ingest_ack_p50_ms", quantile(&write.ack_ms, 0.5), "ms");
        metrics.put(
            "ingest_ack_p99_ms",
            cycle_p99(&write.ack_ms, &write.stalled),
            "ms",
        );
        metrics.put("maint_pass_ms", mean(write.maint_ms.iter().copied()), "ms");
        metrics.put(
            "stored_bytes_per_user_byte",
            ratio(stored, user_bytes),
            "ratio",
        );
        metrics.put(
            "write_bytes_per_user_byte",
            ratio(written, streamed_bytes),
            "ratio",
        );
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        layer_metrics(
            &mut metrics,
            &LayerInputs {
                clients: &clients,
                write: &write,
                ingest_wal_bytes: ingest_stats.wal_bytes,
                ingest_wal_syncs: ingest_stats.wal_syncs,
                scan: scan1.since(&scan0),
                serve_wait_us: serve1.queue_wait_us - serve0.queue_wait_us,
                serve_rejected: serve1.rejected - serve0.rejected,
                kv_run: &kv_run,
                hdfs_bytes_written: io_run.bytes_written,
                lab: &lab,
                load_ms: quantile(&load_ms, 0.5),
                build_ms: quantile(&build_ms, 0.5),
            },
        );
        let threads: Vec<Vec<trace::Span>> = clients
            .iter()
            .map(|c| c.spans.clone())
            .chain(std::iter::once(write.spans.clone()))
            .collect();
        let results = root.join("results");
        std::fs::create_dir_all(&results)?;
        trace::write_csv(
            &results.join(format!("spans-{}-seed{}.csv", spec.name, args.seed)),
            &threads,
        )?;
    }

    let gfus = lab.build.index_entries;
    let record = format!(
        concat!(
            "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"tiny\":{},\"git_rev\":\"{}\",",
            "\"nproc\":{},\"seconds\":{},\"requests\":{},\"batches\":{},\"failed_frac\":{},",
            "\"dataset\":{{\"users\":{},\"regions\":{},\"days\":{},\"loaded_days\":{},",
            "\"rows_loaded\":{},\"rows_streamed\":{},\"user_bytes\":{}}},",
            "\"grid\":{{\"user_interval\":{},\"region_interval\":1,\"day_interval\":1,",
            "\"gfus_built\":{},\"header_cache_capacity\":{},\"exceeds_header_cache\":{}}},",
            "\"serve\":{{\"clients\":{},\"workers\":{},\"kv\":\"{}\",\"format\":\"{:?}\"}},",
            "\"policy\":{{\"batch_rows\":{},\"batch_rate_per_s\":{},\"batches_per_day\":{},",
            "\"flushes_per_day\":{},\"maint_every_flushes\":{},\"pause_for_maintenance\":{},\"delta_file_budget\":{},",
            "\"setups\":{},\"warmup_queries\":{}}}}}"
        ),
        spec.name,
        args.seed,
        args.trace,
        args.tiny,
        std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seconds,
        served.len(),
        write.ack_ms.len(),
        num(ratio(tally.failed, tally.attempted)),
        m.users,
        m.regions,
        m.days,
        spec.loaded_days,
        data.loaded.len(),
        streamed.iter().map(Vec::len).sum::<usize>(),
        user_bytes,
        spec.user_interval(),
        gfus,
        DEFAULT_HEADER_CACHE_CAPACITY,
        gfus > DEFAULT_HEADER_CACHE_CAPACITY as u64,
        spec.clients,
        spec.workers,
        if spec.durable_kv {
            "LogKvStore"
        } else {
            "MemKvStore"
        },
        spec.format,
        spec.batch_rows,
        spec.batch_rate,
        data.batches_per_day,
        spec.flushes_per_day,
        spec.maint_every_flushes,
        spec.pause_for_maintenance,
        spec.delta_file_budget,
        spec.setups,
        spec.warmup_queries,
    );
    Ok(Outcome {
        tally,
        metrics,
        record,
    })
}

struct LayerInputs<'a> {
    clients: &'a [drive::ClientLog],
    write: &'a WriteLog,
    ingest_wal_bytes: u64,
    ingest_wal_syncs: u64,
    scan: dgf_common::ScanSnapshot,
    serve_wait_us: u64,
    serve_rejected: u64,
    kv_run: &'a dgf_kvstore::KvStatsSnapshot,
    hdfs_bytes_written: u64,
    lab: &'a Lab,
    load_ms: f64,
    build_ms: f64,
}

/// Per-layer figures of a traced run. Times come from the spans of the
/// layered requests (means per request); scan counters are the
/// run's `ScanStats` delta per request; planner counters are means of
/// what `DgfPlan` reported.
fn layer_metrics(out: &mut Metrics, x: &LayerInputs) {
    struct Layered {
        request: f64,
        plan: f64,
        plan_kv: f64,
        scan: f64,
        assemble: f64,
        s: drive::LayerSample,
        latency: f64,
    }
    let mut layered = Vec::new();
    let mut serve_lat = Vec::new();
    for c in x.clients {
        let totals = trace::totals_by_request(&c.spans);
        for s in &c.served {
            match &s.layers {
                Some(sample) => {
                    let t = totals.get(&s.request);
                    let get = |name: &str| {
                        t.and_then(|v| v.iter().find(|(n, _)| *n == name).map(|(_, ms)| *ms))
                            .unwrap_or(0.0)
                    };
                    layered.push(Layered {
                        request: get("request"),
                        plan: get("plan"),
                        plan_kv: get("plan.kv"),
                        scan: get("scan"),
                        assemble: get("assemble"),
                        s: *sample,
                        latency: s.latency_ms,
                    });
                }
                None if s.result.is_some() => serve_lat.push(s.latency_ms),
                None => {}
            }
        }
    }
    let requests = x
        .clients
        .iter()
        .map(|c| c.served.len())
        .sum::<usize>()
        .max(1) as f64;
    let per_req = |v: u64| v as f64 / requests;
    let lm = |f: &dyn Fn(&Layered) -> f64| mean(layered.iter().map(f));
    let w = x.write;

    out.put(
        "serve.queue_wait_ms",
        x.serve_wait_us as f64 / 1e3 / serve_lat.len().max(1) as f64,
        "ms",
    );
    out.put("serve.rejected", x.serve_rejected as f64, "count");

    out.put("plan.ms", lm(&|l| l.plan), "ms");
    out.put("plan.self_ms", lm(&|l| l.plan - l.plan_kv), "ms");
    out.put("plan.inner_gfus", lm(&|l| l.s.inner_gfus as f64), "count");
    out.put(
        "plan.boundary_gfus",
        lm(&|l| l.s.boundary_gfus as f64),
        "count",
    );
    out.put(
        "plan.pyramid_nodes",
        lm(&|l| l.s.pyramid_nodes as f64),
        "count",
    );
    out.put("plan.splits_read", lm(&|l| l.s.splits_read as f64), "count");
    out.put("plan.fresh_gfus", lm(&|l| l.s.fresh_gfus as f64), "count");
    let hits: u64 = layered.iter().map(|l| l.s.cache_hits).sum();
    let misses: u64 = layered.iter().map(|l| l.s.cache_misses).sum();
    out.put("cache.hits", lm(&|l| l.s.cache_hits as f64), "count");
    out.put("cache.misses", lm(&|l| l.s.cache_misses as f64), "count");
    out.put("cache.hit_ratio", ratio(hits, hits + misses), "ratio");

    out.put("kv.ms", lm(&|l| l.plan_kv), "ms");
    out.put("kv.read_ops", lm(&|l| l.s.kv.read_ops as f64), "count");
    out.put("kv.keys_read", lm(&|l| l.s.kv.keys_read as f64), "count");
    out.put("kv.bytes_read", lm(&|l| l.s.kv.bytes_read as f64), "B");
    out.put("kv.puts", x.kv_run.puts as f64, "count");
    out.put("kv.bytes_written", x.kv_run.bytes_written as f64, "B");
    out.put("kv.store_bytes", x.lab.kv_bytes() as f64, "B");

    out.put("sidecar.bytes_read", per_req(x.scan.sidecar_bytes), "B");
    out.put("sidecar.hits", per_req(x.scan.sidecar_hits), "count");
    out.put(
        "sidecar.groups_pruned",
        per_req(x.scan.sidecar_groups_pruned),
        "count",
    );
    out.put(
        "sidecar.bytes_skipped",
        per_req(x.scan.sidecar_bytes_skipped),
        "B",
    );
    out.put(
        "plan.hdfs_bytes_read",
        lm(&|l| l.s.plan_hdfs_bytes_read as f64),
        "B",
    );

    out.put("scan.ms", lm(&|l| l.scan), "ms");
    out.put("scan.rows_decoded", per_req(x.scan.rows_decoded), "count");
    out.put("scan.rows_selected", per_req(x.scan.rows_selected), "count");
    out.put(
        "scan.selected_ratio",
        ratio(x.scan.rows_selected, x.scan.rows_decoded),
        "ratio",
    );
    out.put("scan.batches", per_req(x.scan.batches), "count");
    out.put("scan.decode_ms", per_req(x.scan.decode_us) / 1e3, "ms");
    out.put("scan.kernel_ms", per_req(x.scan.kernel_us) / 1e3, "ms");
    out.put(
        "scan.prefetch_waits",
        per_req(x.scan.prefetch_waits),
        "count",
    );
    out.put(
        "scan.prefetch_wait_ms",
        per_req(x.scan.prefetch_wait_us) / 1e3,
        "ms",
    );
    out.put(
        "hdfs.bytes_read",
        lm(&|l| l.s.scan_hdfs_bytes_read as f64),
        "B",
    );
    out.put("hdfs.seeks", lm(&|l| l.s.scan_hdfs_seeks as f64), "count");
    out.put("hdfs.bytes_written", x.hdfs_bytes_written as f64, "B");

    out.put("assemble.ms", lm(&|l| l.assemble), "ms");

    out.put("setup.load_ms", x.load_ms, "ms");
    out.put("setup.build_ms", x.build_ms, "ms");
    out.put(
        "build.index_entries",
        x.lab.build.index_entries as f64,
        "count",
    );
    out.put(
        "build.kv_bytes_written",
        x.lab.build_kv_bytes_written as f64,
        "B",
    );
    out.put(
        "build.hdfs_bytes_written",
        x.lab.build_hdfs_bytes_written as f64,
        "B",
    );

    out.put("ingest.call_ms", mean(w.call_ms.iter().copied()), "ms");
    out.put("ingest.wal_bytes", x.ingest_wal_bytes as f64, "B");
    out.put("ingest.wal_syncs", x.ingest_wal_syncs as f64, "count");
    out.put(
        "ingest.generator_late_ms",
        mean(w.late_ms.iter().copied()),
        "ms",
    );
    out.put("flush.ms", mean(w.flush_ms.iter().copied()), "ms");
    let flushes = w.flush_ms.len().max(1) as f64;
    out.put(
        "flush.hdfs_bytes_written",
        w.flush_hdfs_bytes_written as f64 / flushes,
        "B",
    );
    out.put("flush.kv_puts", w.flush_kv_puts as f64 / flushes, "count");

    out.put(
        "maint.compacted_files",
        w.maint.iter().map(|r| r.compacted_files as f64).sum(),
        "count",
    );
    out.put(
        "maint.compacted_gfus",
        w.maint.iter().map(|r| r.compacted_gfus as f64).sum(),
        "count",
    );
    out.put("maint.bytes_rewritten", w.maint_bytes_rewritten as f64, "B");
    out.put(
        "maint.kv_reclaimed_bytes",
        w.maint.iter().map(|r| r.kv_reclaimed_bytes as f64).sum(),
        "B",
    );
    out.put("maint.live_files", x.lab.live_files() as f64, "count");

    out.put(
        "unattributed_ms",
        lm(&|l| l.request - l.plan - l.scan - l.assemble),
        "ms",
    );
    let traced_p50 = quantile(&layered.iter().map(|l| l.latency).collect::<Vec<_>>(), 0.5);
    let plain_p50 = quantile(&serve_lat, 0.5);
    out.put(
        "trace_overhead_pct",
        100.0 * (traced_p50 - plain_p50) / plain_p50.max(1e-9),
        "%",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dgf-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    match run(&args, &root) {
        Ok(out) => {
            let record_dir = root.join("results");
            let _ = std::fs::create_dir_all(&record_dir);
            let _ = std::fs::write(
                record_dir.join(format!(
                    "{}-seed{}-trace{}.json",
                    args.workload,
                    args.seed,
                    u8::from(args.trace)
                )),
                format!(
                    "{{\"record\":{},\"metrics\":{}}}\n",
                    out.record,
                    out.metrics.json()
                ),
            );
            println!("{}", out.record);
            println!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
                out.tally.failed == 0,
                out.tally.attempted.max(1),
                out.tally.failed,
                out.metrics.json()
            );
        }
        Err(e) => {
            eprintln!("dgf-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
