//! Set-up: a warehouse on `SimHdfs`, the base table, and the DGFIndex.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dgf_common::{Profiler, Result, Row};
use dgf_core::{default_precompute, DgfIndex, DimPolicy, IndexOptions, SplittingPolicy};
use dgf_format::is_sidecar_path;
use dgf_hive::{BuildReport, HiveContext};
use dgf_kvstore::{KvStore, LogKvStore, MemKvStore};
use dgf_mapreduce::MrEngine;
use dgf_storage::{HdfsConfig, SimHdfs};
use dgf_workload::meter_schema;

use crate::data::Spec;
use crate::kv::TimedKv;

/// One set-up: everything a run serves queries from and ingests into.
pub struct Lab {
    /// Directory holding the simulated HDFS, the KV log and the WAL.
    pub dir: PathBuf,
    /// The warehouse.
    pub ctx: Arc<HiveContext>,
    /// The index, over the [`TimedKv`]-wrapped store.
    pub index: Arc<DgfIndex>,
    /// The wrapped store itself (its `KvStats` are the index's).
    pub store: Arc<dyn KvStore>,
    /// The durable store, when the workload uses one.
    pub log: Option<Arc<LogKvStore>>,
    /// `HiveContext::load_rows` wall time.
    pub load_ms: f64,
    /// `DgfIndex::build_with_options` wall time.
    pub build_ms: f64,
    /// The build's own report.
    pub build: BuildReport,
    /// KV bytes the build wrote.
    pub build_kv_bytes_written: u64,
    /// HDFS bytes the build wrote.
    pub build_hdfs_bytes_written: u64,
}

const INDEX: &str = "dgf_meter";

impl Lab {
    /// Load `rows` into a fresh warehouse under `dir` and build the
    /// index with the workload's grid: `user_id` / `region_id` (1) /
    /// `ts` (1 day).
    pub fn setup(spec: &Spec, start_day: i64, rows: &[Row], dir: &Path) -> Result<Lab> {
        std::fs::create_dir_all(dir)?;
        let hdfs = SimHdfs::new(
            dir.join("hdfs"),
            HdfsConfig {
                block_size: 4 << 20,
                replication: 1,
            },
        )?;
        let ctx = HiveContext::new(hdfs, MrEngine::new(2));
        let base = ctx.create_table("meter", meter_schema(), spec.format)?;
        let t = Instant::now();
        ctx.load_rows(&base, rows, 2)?;
        let load_ms = t.elapsed().as_secs_f64() * 1e3;

        let (store, log): (Arc<dyn KvStore>, _) = if spec.durable_kv {
            let log = Arc::new(LogKvStore::open(dir.join("index.kvlog"))?);
            (Arc::clone(&log) as Arc<dyn KvStore>, Some(log))
        } else {
            (Arc::new(MemKvStore::new()), None)
        };
        let kv: Arc<dyn KvStore> = Arc::new(TimedKv::new(Arc::clone(&store)));
        let policy = SplittingPolicy::new(vec![
            DimPolicy::int("user_id", 0, spec.user_interval()),
            DimPolicy::int("region_id", 0, 1),
            DimPolicy::date("ts", start_day, 1),
        ])?;
        let kv_before = store.stats().snapshot();
        let io_before = ctx.hdfs.stats().snapshot();
        let t = Instant::now();
        let (index, build) = DgfIndex::build_with_options(
            Arc::clone(&ctx),
            Arc::clone(&base),
            policy,
            default_precompute("power_consumed"),
            kv,
            INDEX,
            IndexOptions {
                profiler: Profiler::disabled(),
                ..IndexOptions::default()
            },
        )?;
        let build_ms = t.elapsed().as_secs_f64() * 1e3;
        Ok(Lab {
            dir: dir.to_path_buf(),
            build_kv_bytes_written: store.stats().snapshot().since(&kv_before).bytes_written,
            build_hdfs_bytes_written: ctx.hdfs.stats().snapshot().since(&io_before).bytes_written,
            ctx,
            index: Arc::new(index),
            store,
            log,
            load_ms,
            build_ms,
            build,
        })
    }

    /// Bytes the KV store occupies: the log file when durable, the live
    /// keys and values otherwise.
    pub fn kv_bytes(&self) -> u64 {
        match &self.log {
            Some(log) => log.log_len(),
            None => self.store.logical_size_bytes(),
        }
    }

    /// Bytes of every file on the simulated HDFS.
    pub fn hdfs_bytes(&self) -> u64 {
        self.ctx.hdfs.dir_size("/")
    }

    /// Live data files of the index (not sidecars, not retired).
    pub fn live_files(&self) -> u64 {
        let gc: std::collections::HashSet<String> = self
            .index
            .gc_list()
            .unwrap_or_default()
            .into_iter()
            .collect();
        self.ctx
            .hdfs
            .list_files(&self.index.data.location)
            .into_iter()
            .filter(|(p, _)| !is_sidecar_path(p) && !gc.contains(p))
            .count() as u64
    }

    /// Path of the ingest WAL.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("ingest.wal")
    }
}

extern "C" {
    fn sync();
}

/// Write every dirty page on the machine to disk (`sync(2)`), so that a
/// measured window does not pay for writing back a previous run's files
/// or this run's set-up data inside its first WAL `fsync`s.
pub fn sync_disks() {
    // SAFETY: sync(2) takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}
