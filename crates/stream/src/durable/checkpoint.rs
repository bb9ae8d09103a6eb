//! Atomic, generational checkpoint persistence.
//!
//! Each checkpoint is a [`CheckpointManifest`] (versioned, CRC-trailed —
//! see `monilog_model::checkpoint`) written as
//! `checkpoint-{generation:020}.ckpt` via temp-file + fsync + atomic
//! rename, so a crash mid-write can never damage a committed generation.
//! The previous generation is kept as a fallback: if the newest file fails
//! validation (torn rename target on exotic filesystems, bit rot), load
//! steps back one generation instead of failing recovery.

use super::DurabilityError;
use monilog_model::CheckpointManifest;
use std::fs;
use std::path::{Path, PathBuf};

/// How many committed generations stay on disk.
const KEEP_GENERATIONS: usize = 2;

/// A checkpoint read back from disk.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub manifest: CheckpointManifest,
    /// True when the newest generation was corrupt and an older one was
    /// used — worth surfacing to the operator even though recovery
    /// succeeded (the journal suffix since that older checkpoint replays).
    pub fell_back: bool,
}

/// The on-disk checkpoint directory.
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the checkpoint directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// Commit a manifest as its generation's file ([`super::write_atomic`]),
    /// then drop generations beyond the retention window. Returns the
    /// committed path.
    pub fn commit(&self, manifest: &CheckpointManifest) -> Result<PathBuf, DurabilityError> {
        let final_path = self.dir.join(checkpoint_name(manifest.generation));
        super::write_atomic(&final_path, &manifest.encode())?;
        let mut gens = self.generations()?;
        while gens.len() > KEEP_GENERATIONS {
            let old = gens.remove(0);
            fs::remove_file(self.dir.join(checkpoint_name(old)))?;
        }
        Ok(final_path)
    }

    /// Committed generations, oldest first. Leftover `.tmp` files (crash
    /// mid-commit) are ignored.
    pub fn generations(&self) -> Result<Vec<u64>, DurabilityError> {
        let mut gens = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if let Some(g) = name
                .strip_prefix("checkpoint-")
                .and_then(|r| r.strip_suffix(".ckpt"))
                .and_then(|g| g.parse::<u64>().ok())
            {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// Load the newest valid checkpoint. `Ok(None)` means a fresh start
    /// (no generations on disk); [`DurabilityError::AllCheckpointsCorrupt`]
    /// means state exists but none of it validates.
    pub fn load_latest(&self) -> Result<Option<LoadedCheckpoint>, DurabilityError> {
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(None);
        }
        for (tried, g) in gens.iter().rev().enumerate() {
            let bytes = match fs::read(self.dir.join(checkpoint_name(*g))) {
                Ok(b) => b,
                Err(_) => continue,
            };
            if let Ok(manifest) = CheckpointManifest::decode(&bytes) {
                return Ok(Some(LoadedCheckpoint {
                    manifest,
                    fell_back: tried > 0,
                }));
            }
        }
        Err(DurabilityError::AllCheckpointsCorrupt)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn checkpoint_name(generation: u64) -> String {
    format!("checkpoint-{generation:020}.ckpt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::SourceId;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("monilog-ckpt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(generation: u64, last_seq: u64) -> CheckpointManifest {
        let mut m = CheckpointManifest {
            generation,
            created_ms: 1_000 + generation,
            ..CheckpointManifest::default()
        };
        m.set_position(SourceId(0), last_seq);
        m.set_section("pipeline", vec![generation as u8; 64]);
        m
    }

    #[test]
    fn commit_load_round_trips_and_retains_two_generations() {
        let dir = tmp_dir("retain");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_latest().unwrap().is_none(), "fresh start");
        for g in 1..=5u64 {
            store.commit(&manifest(g, g * 10)).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        let loaded = store.load_latest().unwrap().unwrap();
        assert!(!loaded.fell_back);
        assert_eq!(loaded.manifest.generation, 5);
        assert_eq!(loaded.manifest.position(SourceId(0)), 50);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_one_generation() {
        let dir = tmp_dir("fallback");
        let store = CheckpointStore::open(&dir).unwrap();
        store.commit(&manifest(1, 10)).unwrap();
        store.commit(&manifest(2, 20)).unwrap();
        let newest = dir.join(checkpoint_name(2));
        let full = fs::read(&newest).unwrap();
        // Every truncation and a bit flip anywhere: load never panics and
        // always lands on generation 1.
        for cut in 0..full.len() {
            fs::write(&newest, &full[..cut]).unwrap();
            let loaded = store.load_latest().unwrap().unwrap();
            assert!(loaded.fell_back, "cut {cut}");
            assert_eq!(loaded.manifest.generation, 1);
        }
        for byte in 0..full.len() {
            let mut damaged = full.clone();
            damaged[byte] ^= 0x10;
            fs::write(&newest, &damaged).unwrap();
            let loaded = store.load_latest().unwrap().unwrap();
            assert!(loaded.fell_back, "byte {byte}");
            assert_eq!(loaded.manifest.generation, 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_generations_corrupt_is_a_typed_error() {
        let dir = tmp_dir("allcorrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        store.commit(&manifest(1, 10)).unwrap();
        store.commit(&manifest(2, 20)).unwrap();
        for g in [1u64, 2] {
            fs::write(dir.join(checkpoint_name(g)), b"garbage").unwrap();
        }
        assert!(matches!(
            store.load_latest(),
            Err(DurabilityError::AllCheckpointsCorrupt)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = tmp_dir("tmpfiles");
        let store = CheckpointStore::open(&dir).unwrap();
        store.commit(&manifest(3, 30)).unwrap();
        fs::write(
            dir.join("checkpoint-00000000000000000004.ckpt.tmp"),
            b"half",
        )
        .unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.manifest.generation, 3);
        assert_eq!(store.generations().unwrap(), vec![3]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
