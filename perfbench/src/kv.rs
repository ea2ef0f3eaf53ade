//! A timing decorator around the index's key-value store.
//!
//! Every `KvStore` call the index makes goes through [`TimedKv`]. With
//! tracing on, each call becomes a `kv.<method>` span and its read work
//! is tallied per thread, so a client can attribute key-value time,
//! round trips and bytes to exactly the request it is serving even when
//! another client runs beside it. With tracing off the decorator only
//! forwards. Every method — the provided ones too — forwards to the
//! wrapped store, so batching and atomicity stay the store's own.

use std::cell::Cell;
use std::sync::Arc;

use dgf_common::Result;
use dgf_kvstore::{KvPair, KvStats, KvStore};

use crate::trace;

/// Read work done by one thread through [`TimedKv`] while tracing.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvTally {
    /// Round trips that read (`get`, `multi_get`, scans).
    pub read_ops: u64,
    /// Keys those round trips returned or asked for.
    pub keys_read: u64,
    /// Key plus value bytes returned.
    pub bytes_read: u64,
}

impl KvTally {
    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &KvTally) -> KvTally {
        KvTally {
            read_ops: self.read_ops - earlier.read_ops,
            keys_read: self.keys_read - earlier.keys_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
        }
    }
}

thread_local! {
    static TALLY: Cell<KvTally> = Cell::new(KvTally::default());
}

/// The calling thread's running tally.
pub fn thread_tally() -> KvTally {
    TALLY.with(Cell::get)
}

fn charge(keys: u64, bytes: u64) {
    TALLY.with(|t| {
        let mut v = t.get();
        v.read_ops += 1;
        v.keys_read += keys;
        v.bytes_read += bytes;
        t.set(v);
    });
}

fn pair_bytes(pairs: &[KvPair]) -> u64 {
    pairs.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

/// Forwarding store that times each call when tracing is on.
pub struct TimedKv {
    inner: Arc<dyn KvStore>,
}

impl TimedKv {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn KvStore>) -> TimedKv {
        TimedKv { inner }
    }
}

impl KvStore for TimedKv {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        trace::span("kv.put", || self.inner.put(key, value))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if !trace::enabled() {
            return self.inner.get(key);
        }
        let out = trace::span("kv.get", || self.inner.get(key))?;
        let bytes = out.as_ref().map_or(0, |v| (key.len() + v.len()) as u64);
        charge(1, bytes);
        Ok(out)
    }

    fn delete(&self, key: &[u8]) -> Result<bool> {
        trace::span("kv.delete", || self.inner.delete(key))
    }

    fn scan_range(&self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>> {
        if !trace::enabled() {
            return self.inner.scan_range(start, end);
        }
        let out = trace::span("kv.scan_range", || self.inner.scan_range(start, end))?;
        charge(out.len() as u64, pair_bytes(&out));
        Ok(out)
    }

    fn update(&self, key: &[u8], f: &mut dyn FnMut(Option<&[u8]>) -> Vec<u8>) -> Result<()> {
        trace::span("kv.update", || self.inner.update(key, f))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn logical_size_bytes(&self) -> u64 {
        self.inner.logical_size_bytes()
    }

    fn flush(&self) -> Result<()> {
        trace::span("kv.flush", || self.inner.flush())
    }

    fn stats(&self) -> &KvStats {
        self.inner.stats()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        if !trace::enabled() {
            return self.inner.multi_get(keys);
        }
        let out = trace::span("kv.multi_get", || self.inner.multi_get(keys))?;
        let bytes = keys
            .iter()
            .zip(&out)
            .map(|(k, v)| v.as_ref().map_or(0, |v| (k.len() + v.len()) as u64))
            .sum();
        charge(keys.len() as u64, bytes);
        Ok(out)
    }

    fn maintain(&self) -> Result<u64> {
        trace::span("kv.maintain", || self.inner.maintain())
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<KvPair>> {
        if !trace::enabled() {
            return self.inner.scan_prefix(prefix);
        }
        let out = trace::span("kv.scan_prefix", || self.inner.scan_prefix(prefix))?;
        charge(out.len() as u64, pair_bytes(&out));
        Ok(out)
    }
}
