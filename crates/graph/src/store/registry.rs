//! [`StoreRegistry`]: deduplicating open-store registry.
//!
//! An engine serving concurrent partition requests must not open (and memtrack-charge)
//! the same container once per request. The registry keys open stores by
//! `(canonical path, options)` and hands out `Arc<StoreHandle>` clones: a repeated
//! open of the same container with the same options returns the *same* handle — one
//! file descriptor, one page cache or mapping, one memory charge. Entries are held
//! weakly, so a store closes (and releases its charge) as soon as the last session's
//! `Arc` drops; the registry never pins anything.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::io::IoError;
use crate::store::handle::StoreHandle;
use crate::store::paged::PagedGraphOptions;

/// Key of one open store: canonicalised path plus the option set. Two opens with
/// different options (page budget, backend, retry policy, ...) are different stores —
/// they would behave differently, so they must not alias. `prefetch` has no effect and
/// is left out of the key.
type StoreKey = (PathBuf, PagedGraphOptions);

/// The key `path` and `options` open a store under. Canonicalised, `./g.tpg` and an
/// absolute spelling of the same file share an entry; a path that cannot be
/// canonicalised (yet to be created, exotic backend) keys by its raw spelling.
fn store_key(path: &Path, options: &PagedGraphOptions) -> StoreKey {
    let canonical = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let options = PagedGraphOptions {
        prefetch: false,
        ..options.clone()
    };
    (canonical, options)
}

/// Deduplicating registry of open stores (see the module docs).
#[derive(Debug, Default)]
pub struct StoreRegistry {
    stores: Mutex<HashMap<StoreKey, Weak<StoreHandle>>>,
}

impl StoreRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the container at `path` with `options`, or returns the already-open
    /// handle if a live store with the same key exists. The registry lock is held
    /// across the open, so two racing first opens of the same container resolve to
    /// one store rather than charging the memory accounting twice.
    pub fn open(
        &self,
        path: impl AsRef<Path>,
        options: &PagedGraphOptions,
    ) -> Result<Arc<StoreHandle>, IoError> {
        let key = store_key(path.as_ref(), options);
        let mut stores = self.stores.lock();
        if let Some(handle) = stores.get(&key).and_then(Weak::upgrade) {
            return Ok(handle);
        }
        let handle = Arc::new(StoreHandle::open(&key.0, options)?);
        stores.retain(|_, weak| weak.strong_count() > 0);
        stores.insert(key, Arc::downgrade(&handle));
        Ok(handle)
    }

    /// Registers an already-built handle (an in-memory graph, a store opened through
    /// a custom backend) under `path`, returning the shared `Arc`. If a live store
    /// with the same key exists it wins and `handle` is dropped.
    pub fn insert(
        &self,
        path: impl AsRef<Path>,
        options: &PagedGraphOptions,
        handle: StoreHandle,
    ) -> Arc<StoreHandle> {
        let key = store_key(path.as_ref(), options);
        let mut stores = self.stores.lock();
        if let Some(existing) = stores.get(&key).and_then(Weak::upgrade) {
            return existing;
        }
        let handle = Arc::new(handle);
        stores.retain(|_, weak| weak.strong_count() > 0);
        stores.insert(key, Arc::downgrade(&handle));
        handle
    }

    /// Number of stores currently open (live entries; dead weak entries are not
    /// counted and are pruned on the next open).
    pub fn open_count(&self) -> usize {
        self.stores
            .lock()
            .values()
            .filter(|weak| weak.strong_count() > 0)
            .count()
    }

    /// Drops dead entries (stores whose last `Arc` is gone).
    pub fn prune(&self) {
        self.stores.lock().retain(|_, weak| weak.strong_count() > 0);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::compressed::CompressionConfig;
    use crate::gen;
    use crate::store::container::write_tpg_from_graph;
    use crate::store::paged::OnDiskBackend;
    use crate::traits::Graph;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "terapart_registry_test_{}_{}",
            std::process::id(),
            name
        ));
        p
    }

    #[test]
    fn repeated_opens_return_the_same_store() {
        let csr = gen::grid2d(10, 10);
        let path = tmp("dedup.tpg");
        write_tpg_from_graph(&csr, &path, &CompressionConfig::default()).unwrap();
        let registry = StoreRegistry::new();
        let options = PagedGraphOptions::default();
        let a = registry.open(&path, &options).unwrap();
        let b = registry.open(&path, &options).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must alias the same store");
        assert_eq!(registry.open_count(), 1);
        assert_eq!(a.session().n(), csr.n());

        // `prefetch` has no effect, so it does not make another store: not when the
        // first open spells it...
        let other = StoreRegistry::new();
        let prefetching = PagedGraphOptions {
            prefetch: true,
            ..PagedGraphOptions::default()
        };
        let c = other.open(&path, &prefetching).unwrap();
        let d = other.open(&path, &options).unwrap();
        assert!(Arc::ptr_eq(&c, &d), "prefetch must not split the store");
        assert_eq!(other.open_count(), 1);
        drop((c, d));
        // ...nor a later one.
        let e = registry.open(&path, &prefetching).unwrap();
        assert!(Arc::ptr_eq(&a, &e));
        assert_eq!(registry.open_count(), 1);

        // Different options are a different store...
        let mmap = registry
            .open(
                &path,
                &PagedGraphOptions {
                    backend: OnDiskBackend::Mmap,
                    ..PagedGraphOptions::default()
                },
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &mmap));
        assert_eq!(registry.open_count(), 2);

        // ...and dropping every Arc closes the store (weak entry, pruned lazily).
        drop((a, b, e, mmap));
        assert_eq!(registry.open_count(), 0);
        registry.prune();
        std::fs::remove_file(path).ok();
    }
}
