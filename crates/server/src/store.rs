//! The content-addressed result store: the server's only result cache.
//!
//! One output per completed slot, named by [`address`]: the
//! job's public fingerprint plus the slot's shard geometry and deadline.
//! Identity is the *address*: a slot computed anywhere — by an
//! in-process worker or by any runner of the fleet — lands at the same
//! address, so a second job over the same spec is served without
//! simulating a cycle, and a duplicate upload is counted as a dedup hit
//! instead of a second write.
//!
//! The store lives in memory, or — given a directory — in one canonical
//! JSON file per address, surviving restarts. File writes are atomic (temp file +
//! rename in the same directory), so a server killed mid-write never
//! leaves a torn result; a torn temp file is invisible to reads and
//! overwritten by the retry.

use fault_inject::wire::fleet::JobOutput;
use fault_inject::wire::Json;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The address of one slot's result. The deadline is part of it because
/// it can change the bytes of a result without changing the
/// fingerprint; the unsharded job is slot `0/1`.
pub fn address(fingerprint: &str, (index, count): (u32, u32), deadline_ms: Option<u64>) -> String {
    let deadline = deadline_ms.map_or_else(|| "none".to_string(), |ms| ms.to_string());
    format!("{fingerprint}.{index}of{count}.d{deadline}")
}

/// The store: slot outputs by [`address`].
pub struct ResultStore {
    /// `None`: results live in `memory`.
    dir: Option<PathBuf>,
    memory: HashMap<String, JobOutput>,
    /// Results written by this process (dedup hits excluded).
    puts: u64,
    /// Writes skipped because the address already held a result.
    dedup_hits: u64,
}

impl ResultStore {
    /// Open a store: in memory for `None`, else in the directory
    /// (created if needed).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: Option<&Path>) -> std::io::Result<ResultStore> {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ResultStore {
            dir: dir.map(Path::to_path_buf),
            memory: HashMap::new(),
            puts: 0,
            dedup_hits: 0,
        })
    }

    fn path(dir: &Path, address: &str) -> PathBuf {
        dir.join(format!("{address}.json"))
    }

    /// Store one slot output. Returns `false` (and writes nothing) when
    /// the address already holds a result — a dedup hit.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors writing the temp file or renaming it.
    pub fn put(&mut self, address: &str, output: JobOutput) -> std::io::Result<bool> {
        let fresh = match &self.dir {
            None => match self.memory.entry(address.to_string()) {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(output);
                    true
                }
            },
            Some(dir) => {
                let path = ResultStore::path(dir, address);
                let fresh = !path.exists();
                if fresh {
                    let tmp = path.with_extension("tmp");
                    std::fs::write(&tmp, output.to_json())?;
                    std::fs::rename(&tmp, &path)?;
                }
                fresh
            }
        };
        if fresh {
            self.puts += 1;
        } else {
            self.dedup_hits += 1;
        }
        Ok(fresh)
    }

    /// Fetch one slot output, `None` when absent. A file that does not
    /// parse is also `None` — the caller re-simulates and the next put
    /// refuses to overwrite it, so corruption is surfaced by the dedup
    /// counter staying suspiciously high rather than by wrong bytes.
    pub fn get(&self, address: &str) -> Option<Cow<'_, JobOutput>> {
        match &self.dir {
            None => self.memory.get(address).map(Cow::Borrowed),
            Some(dir) => {
                let text = std::fs::read_to_string(ResultStore::path(dir, address)).ok()?;
                let output = JobOutput::from_obj(&Json::parse(&text).ok()?).ok()?;
                Some(Cow::Owned(output))
            }
        }
    }

    /// Whether [`ResultStore::get`] would find a result.
    pub fn contains(&self, address: &str) -> bool {
        match &self.dir {
            None => self.memory.contains_key(address),
            Some(_) => self.get(address).is_some(),
        }
    }

    /// Results written by this process.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Writes skipped because the result already existed.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault_inject::wire::ShardResult;
    use fault_inject::{CampaignResult, CampaignStats};

    fn output(cycles: u64) -> JobOutput {
        let stats = CampaignStats {
            cycles_simulated: cycles,
            ..CampaignStats::default()
        };
        JobOutput::Campaign(ShardResult {
            fingerprint: "aa-bb".to_string(),
            index: 0,
            count: 2,
            result: CampaignResult::with_stats(Vec::new(), stats),
        })
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("verifd-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips_and_dedups() {
        let dir = tempdir("roundtrip");
        let a = address("aa-bb", (0, 2), None);
        for backing in [None, Some(dir.as_path())] {
            let mut store = ResultStore::open(backing).unwrap();
            assert!(!store.contains(&a));
            assert!(store.put(&a, output(100)).unwrap());
            // Same address again: dedup hit, no second write.
            assert!(!store.put(&a, output(50)).unwrap());
            assert_eq!((store.puts(), store.dedup_hits()), (1, 1));
            assert_eq!(store.get(&a).unwrap().into_owned(), output(100));
            // Geometry and deadline are part of the address.
            assert_eq!(store.get(&address("aa-bb", (1, 2), None)), None);
            assert_eq!(store.get(&address("aa-bb", (0, 2), Some(5))), None);
            assert!(store
                .put(&address("aa-bb", (1, 2), None), output(50))
                .unwrap());
            assert!(store
                .put(&address("aa-bb", (0, 2), Some(5)), output(100))
                .unwrap());
            assert_eq!((store.puts(), store.dedup_hits()), (3, 1));
        }
        // A fresh handle on the directory sees the persisted result (and
        // dedups it); a fresh memory store starts empty.
        let mut reopened = ResultStore::open(Some(&dir)).unwrap();
        assert_eq!(reopened.get(&a).unwrap().into_owned(), output(100));
        assert!(!reopened.put(&a, output(7)).unwrap());
        assert!(!ResultStore::open(None).unwrap().contains(&a));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_read_as_absent() {
        let dir = tempdir("corrupt");
        let store = ResultStore::open(Some(&dir)).unwrap();
        std::fs::write(dir.join("xx.0of1.dnone.json"), "not json").unwrap();
        assert_eq!(store.get(&address("xx", (0, 1), None)), None);
        assert!(!store.contains(&address("xx", (0, 1), None)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
