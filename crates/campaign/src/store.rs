//! Content-addressed result store.
//!
//! Layout under the store root (default `results/campaign/`):
//!
//! ```text
//! results/campaign/
//!   cache/
//!     <code-fingerprint>/      one directory per workspace code version
//!       <cell-hash>.json       one StoredCell per computed cell
//!   <sweep>.<scale>.jsonl      canonical JSONL artefacts emitted by runs
//! ```
//!
//! Cells are keyed by the spec's content hash *within* a directory named
//! after the workspace **code fingerprint** (computed by `build.rs` over
//! every crate that can change simulation output), so editing simulator or
//! workload code orphans stale results instead of serving them. Writes are
//! atomic (temp file + rename): a campaign killed mid-run leaves only
//! whole cell files behind, and a re-run resumes from exactly the cells
//! that completed.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::record::{RecordError, StoredCell};

/// The workspace code fingerprint baked in at compile time.
pub fn code_fingerprint() -> &'static str {
    env!("TASKPOINT_CODE_FINGERPRINT")
}

/// A content-addressed store of computed cells rooted at a directory.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: Option<PathBuf>,
    fingerprint: String,
}

impl ResultStore {
    /// Opens (without touching the filesystem yet) a store at `root`.
    pub fn at(root: impl Into<PathBuf>) -> Self {
        Self { root: Some(root.into()), fingerprint: code_fingerprint().to_string() }
    }

    /// The default store location: `$TASKPOINT_CAMPAIGN_DIR` or
    /// `results/campaign` relative to the working directory.
    pub fn default_root() -> PathBuf {
        std::env::var_os("TASKPOINT_CAMPAIGN_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results").join("campaign"))
    }

    /// Opens the default store.
    pub fn open_default() -> Self {
        Self::at(Self::default_root())
    }

    /// A store that never persists anything — every lookup misses and
    /// every save is dropped. Used by unit tests and one-shot embedders
    /// that only want the in-memory sharing of a campaign run.
    pub fn disabled() -> Self {
        Self { root: None, fingerprint: code_fingerprint().to_string() }
    }

    /// Overrides the fingerprint (tests only — simulates a code change).
    #[doc(hidden)]
    pub fn with_fingerprint(mut self, fingerprint: &str) -> Self {
        self.fingerprint = fingerprint.to_string();
        self
    }

    /// The store root, if persistence is enabled.
    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// The active fingerprint directory name.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    fn cache_dir(&self) -> Option<PathBuf> {
        Some(self.root.as_ref()?.join("cache").join(&self.fingerprint))
    }

    fn cell_path(&self, cell_hash: &str) -> Option<PathBuf> {
        // Hard validation (not debug_assert): `invalidate --cell` feeds
        // user input here, and a non-hex "hash" like `../../x` would
        // otherwise escape the store root.
        if cell_hash.is_empty() || !cell_hash.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(self.cache_dir()?.join(format!("{cell_hash}.json")))
    }

    /// Loads a cached cell. Corrupt entries are treated as misses (and
    /// removed so the slot recomputes cleanly).
    pub fn load(&self, cell_hash: &str) -> Option<StoredCell> {
        let path = self.cell_path(cell_hash)?;
        let text = std::fs::read_to_string(&path).ok()?;
        match StoredCell::from_json(&text) {
            Ok(cell) => Some(cell),
            Err(RecordError::Parse(_) | RecordError::Shape(_)) => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// True if the cell is cached (without the cost of parsing it).
    pub fn contains(&self, cell_hash: &str) -> bool {
        self.cell_path(cell_hash).is_some_and(|p| p.is_file())
    }

    /// Persists a computed cell atomically. Failures are silently ignored
    /// (the cache is an accelerator, not a correctness dependency), but a
    /// warning is printed so operators notice read-only stores.
    pub fn save(&self, cell_hash: &str, cell: &StoredCell) {
        let Some(path) = self.cell_path(cell_hash) else { return };
        let Some(dir) = self.cache_dir() else { return };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create store dir {}: {e}", dir.display());
            return;
        }
        // Pid + process-wide counter: concurrent saves of the same cell
        // (duplicate specs across executor threads) must never share a
        // temp file, or interleaved writes could publish corrupt JSON.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(".{cell_hash}.{}.{seq}.tmp", std::process::id()));
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(cell.to_json().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("warning: cannot persist cell {cell_hash}: {e}");
        }
    }

    /// Number of cells cached under the active fingerprint.
    pub fn len(&self) -> usize {
        self.iter_hashes().len()
    }

    /// True if nothing is cached under the active fingerprint.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell hashes cached under the active fingerprint, sorted.
    pub fn iter_hashes(&self) -> Vec<String> {
        let Some(dir) = self.cache_dir() else { return Vec::new() };
        let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
        let mut hashes: Vec<String> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let hash = name.strip_suffix(".json")?;
                if !hash.is_empty() && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                    Some(hash.to_string())
                } else {
                    None
                }
            })
            .collect();
        hashes.sort();
        hashes
    }

    /// Removes one cached cell. Returns whether it existed.
    pub fn invalidate_cell(&self, cell_hash: &str) -> bool {
        self.cell_path(cell_hash).is_some_and(|p| std::fs::remove_file(p).is_ok())
    }

    /// Removes every cached cell under the active fingerprint. Returns the
    /// number removed.
    pub fn invalidate_fingerprint(&self) -> usize {
        let hashes = self.iter_hashes();
        let mut removed = 0;
        for h in &hashes {
            if self.invalidate_cell(h) {
                removed += 1;
            }
        }
        if let Some(dir) = self.cache_dir() {
            let _ = std::fs::remove_dir(dir);
        }
        removed
    }

    /// Removes the whole cache (every fingerprint). Returns whether the
    /// cache directory existed.
    pub fn invalidate_all(&self) -> bool {
        let Some(root) = self.root.as_ref() else { return false };
        let cache = root.join("cache");
        let existed = cache.is_dir();
        if existed {
            let _ = std::fs::remove_dir_all(&cache);
        }
        existed
    }

    /// Lists the fingerprint directories present in the cache (stale ones
    /// linger until `invalidate_all`; `status` surfaces them).
    pub fn fingerprints_present(&self) -> Vec<String> {
        let Some(root) = self.root.as_ref() else { return Vec::new() };
        let Ok(entries) = std::fs::read_dir(root.join("cache")) else { return Vec::new() };
        let mut names: Vec<String> = entries
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CellMetrics, CellRecord, CellTiming, PerfProfile, RefMetrics};
    use taskpoint_workloads::ScaleConfig;

    fn tmp_store(name: &str) -> ResultStore {
        // Keep test artefacts inside the workspace target dir.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-stores")
            .join(format!("store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::at(dir)
    }

    fn stored(cell: &str) -> StoredCell {
        StoredCell {
            record: CellRecord {
                cell: cell.to_string(),
                bench: "spmv".to_string(),
                machine: "low-power".to_string(),
                workers: 2,
                scale: ScaleConfig::quick(),
                kind: "reference".to_string(),
                metrics: CellMetrics::Reference(RefMetrics {
                    total_cycles: 10,
                    detailed_tasks: 1,
                    instructions: 10,
                    groups: None,
                    perf: PerfProfile::default(),
                }),
            },
            timing: CellTiming {
                wall_seconds: 0.1,
                setup_seconds: Some(0.01),
                reference_wall_seconds: None,
                speedup: None,
                detailed_instr_per_sec: None,
            },
        }
    }

    #[test]
    fn save_load_round_trip() {
        let store = tmp_store("roundtrip");
        let hash = "a".repeat(32);
        assert!(store.load(&hash).is_none());
        assert!(!store.contains(&hash));
        let cell = stored(&hash);
        store.save(&hash, &cell);
        assert!(store.contains(&hash));
        assert_eq!(store.load(&hash), Some(cell));
        assert_eq!(store.iter_hashes(), vec![hash.clone()]);
        assert_eq!(store.len(), 1);
        let _ = store.invalidate_all();
    }

    #[test]
    fn corrupt_entries_become_misses_and_are_removed() {
        let store = tmp_store("corrupt");
        let hash = "b".repeat(32);
        let dir = store.cache_dir().unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{hash}.json")), b"{truncated").unwrap();
        assert!(store.load(&hash).is_none());
        assert!(!store.contains(&hash), "corrupt entry must be removed");
        let _ = store.invalidate_all();
    }

    #[test]
    fn fingerprint_change_orphans_entries() {
        let store = tmp_store("fpr");
        let hash = "c".repeat(32);
        store.save(&hash, &stored(&hash));
        assert!(store.contains(&hash));
        let other = store.clone().with_fingerprint("deadbeefdeadbeef");
        assert!(!other.contains(&hash), "different code version must miss");
        assert_eq!(store.fingerprints_present(), vec![store.fingerprint().to_string()]);
        let _ = store.invalidate_all();
    }

    #[test]
    fn invalidate_cell_and_fingerprint() {
        let store = tmp_store("inval");
        let h1 = "d".repeat(32);
        let h2 = "e".repeat(32);
        store.save(&h1, &stored(&h1));
        store.save(&h2, &stored(&h2));
        assert!(store.invalidate_cell(&h1));
        assert!(!store.invalidate_cell(&h1), "already gone");
        assert_eq!(store.len(), 1);
        assert_eq!(store.invalidate_fingerprint(), 1);
        assert!(store.is_empty());
        let _ = store.invalidate_all();
    }

    #[test]
    fn non_hex_hashes_are_rejected_in_release_too() {
        let store = tmp_store("traversal");
        store.save(&"a".repeat(32), &stored(&"a".repeat(32)));
        for evil in ["../../../etc/passwd", "..", "x/y", "", "zz", "ABCg"] {
            assert!(store.load(evil).is_none(), "{evil:?}");
            assert!(!store.contains(evil), "{evil:?}");
            assert!(!store.invalidate_cell(evil), "{evil:?}");
        }
        // Uppercase hex is still hex.
        assert!(!store.contains(&"A".repeat(32)));
        let _ = store.invalidate_all();
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = ResultStore::disabled();
        let hash = "f".repeat(32);
        store.save(&hash, &stored(&hash));
        assert!(store.load(&hash).is_none());
        assert!(!store.contains(&hash));
        assert!(store.iter_hashes().is_empty());
        assert!(!store.invalidate_all());
        assert!(store.root().is_none());
    }
}
