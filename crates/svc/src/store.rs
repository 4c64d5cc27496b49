//! Durable result persistence and cross-run comparison queries.
//!
//! A [`ResultStore`] is an append-only JSONL file: one
//! [`JobResult::to_json`] line per finished job. Appends are serialized
//! through a mutex so the service's workers can share one store; loads
//! parse the whole file back. The comparison queries group results by
//! workload digest ([`crate::spec::JobSpec::digest`]) — the determinism
//! audit ([`DigestGroup::bit_identical`]) checks that every completed
//! result of a workload committed the same virtual times, across runs of
//! the service and across PRs.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::result::{JobResult, JobStatus};

/// Append-only JSONL persistence for [`JobResult`]s.
pub struct ResultStore {
    path: PathBuf,
    file: Mutex<File>,
}

/// All persisted results for one workload digest.
#[derive(Clone, Debug)]
pub struct DigestGroup {
    /// The workload digest.
    pub digest: String,
    /// Every persisted result with that digest, in file order.
    pub results: Vec<JobResult>,
}

impl DigestGroup {
    /// The completed results of the group.
    pub fn completed(&self) -> Vec<&JobResult> {
        self.results
            .iter()
            .filter(|r| r.status == JobStatus::Completed)
            .collect()
    }

    /// Whether every completed result committed bit-identical virtual
    /// times. Vacuously true when fewer than two completed.
    pub fn bit_identical(&self) -> bool {
        let done = self.completed();
        done.windows(2).all(|w| w[0].bit_identical(w[1]))
    }
}

impl ResultStore {
    /// Open (creating if needed) the JSONL file at `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<ResultStore> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(ResultStore {
            path,
            file: Mutex::new(file),
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one result as a JSONL line (serialized across threads).
    pub fn append(&self, result: &JobResult) -> std::io::Result<()> {
        let line = result.to_json();
        // Nothing panics while the guard is held (write errors are
        // returned), so a poisoned lock still guards a usable file.
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        f.write_all(line.as_bytes())?;
        f.write_all(b"\n")?;
        f.flush()
    }

    /// Load every persisted result, in file order. Malformed lines are an
    /// error (the store is the service's own output; corruption should be
    /// loud).
    pub fn load(&self) -> std::io::Result<Vec<JobResult>> {
        let reader = BufReader::new(File::open(&self.path)?);
        let mut out = Vec::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let r = JobResult::from_json(&line).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", self.path.display(), idx + 1),
                )
            })?;
            out.push(r);
        }
        Ok(out)
    }

    /// Group every persisted result by workload digest.
    pub fn by_digest(&self) -> std::io::Result<Vec<DigestGroup>> {
        let mut groups: BTreeMap<String, Vec<JobResult>> = BTreeMap::new();
        for r in self.load()? {
            groups.entry(r.digest.clone()).or_default().push(r);
        }
        Ok(groups
            .into_iter()
            .map(|(digest, results)| DigestGroup { digest, results })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterPreset, JobSpec};

    fn result(id: u64, tenant: &str, spec: &JobSpec, elapsed: u64) -> JobResult {
        JobResult {
            schema_version: detsim::SCHEMA_VERSION,
            job_id: id,
            tenant: tenant.into(),
            digest: spec.digest(),
            status: JobStatus::Completed,
            error: None,
            queue_ms: 0.5,
            run_ms: 10.0 + id as f64,
            total_ms: 10.5 + id as f64,
            per_iter_s: vec![1e-3, 2e-3],
            mean_s: 1.5e-3,
            elapsed_virtual_ps: elapsed,
            spec: spec.clone(),
            metrics_json: None,
        }
    }

    #[test]
    fn append_load_and_group() {
        let dir = std::env::temp_dir().join("svc_store_test_append");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(dir.join("results.jsonl")).unwrap();
        let spec_a = JobSpec::new("a", ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]);
        let spec_b = JobSpec::new("b", ClusterPreset::Summit { nodes: 1 }, 2, [96, 96, 96]);
        store.append(&result(1, "a", &spec_a, 1000)).unwrap();
        store.append(&result(2, "b", &spec_b, 2000)).unwrap();
        store.append(&result(3, "a2", &spec_a, 1000)).unwrap();
        let all = store.load().unwrap();
        assert_eq!(all.len(), 3);
        let groups = store.by_digest().unwrap();
        assert_eq!(groups.len(), 2);
        let ga = groups.iter().find(|g| g.digest == spec_a.digest()).unwrap();
        assert_eq!(ga.results.len(), 2);
        assert_eq!(ga.completed().len(), 2);
        assert!(ga.bit_identical());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn divergent_virtual_times_fail_the_audit() {
        let dir = std::env::temp_dir().join("svc_store_test_divergent");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(dir.join("results.jsonl")).unwrap();
        let spec = JobSpec::new("a", ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]);
        store.append(&result(1, "a", &spec, 1000)).unwrap();
        store.append(&result(2, "a", &spec, 1001)).unwrap();
        let groups = store.by_digest().unwrap();
        assert_eq!(groups.len(), 1);
        assert!(!groups[0].bit_identical());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_line_is_loud() {
        let dir = std::env::temp_dir().join("svc_store_test_malformed");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.jsonl");
        let store = ResultStore::open(&path).unwrap();
        let spec = JobSpec::new("a", ClusterPreset::Summit { nodes: 1 }, 2, [64, 64, 64]);
        store.append(&result(1, "a", &spec, 1000)).unwrap();
        std::fs::write(&path, "not json\n").unwrap();
        assert!(store.load().is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
