//! Serde-able experiment records.
//!
//! Every experiment binary emits, next to its human-readable Markdown, a
//! JSON [`ExperimentRecord`] so EXPERIMENTS.md numbers are regenerable and
//! diffable (the role of the paper's tables).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One measured configuration within an experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Named parameters of the run (family, n, D, α, seed, …).
    pub params: BTreeMap<String, String>,
    /// Named measurements (steps, success, radius, …).
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// An empty record.
    pub fn new() -> Self {
        RunRecord { params: BTreeMap::new(), metrics: BTreeMap::new() }
    }

    /// Adds a parameter (builder style).
    pub fn param(mut self, key: &str, value: impl ToString) -> Self {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Adds a metric (builder style).
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_string(), value);
        self
    }
}

impl Default for RunRecord {
    fn default() -> Self {
        Self::new()
    }
}

/// A full experiment: id, description, and all runs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id from the index in `crates/bench/src/experiments/mod.rs`
    /// (e.g. `"E3"`).
    pub id: String,
    /// The paper claim being reproduced.
    pub claim: String,
    /// All measured runs.
    pub runs: Vec<RunRecord>,
    /// Free-form conclusions (filled by the binary after analysis).
    pub notes: Vec<String>,
}

impl ExperimentRecord {
    /// A fresh record for experiment `id` reproducing `claim`.
    pub fn new(id: &str, claim: &str) -> Self {
        ExperimentRecord {
            id: id.to_string(),
            claim: claim.to_string(),
            runs: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a run.
    pub fn push(&mut self, run: RunRecord) {
        self.runs.push(run);
    }

    /// Appends an analysis note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("records always serialize")
    }

    /// Writes the JSON next to the experiment output.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id.to_lowercase()));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_json_round_trip() {
        let mut e = ExperimentRecord::new("E3", "Theorem 14: MIS in O(log^3 n)");
        e.push(
            RunRecord::new()
                .param("family", "grid")
                .param("n", 256)
                .metric("steps", 12345.0)
                .metric("success", 1.0),
        );
        e.note("fitted exponent 2.9");
        let json = e.to_json();
        let back: ExperimentRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.runs[0].params["n"], "256");
        assert_eq!(back.runs[0].metrics["steps"], 12345.0);
    }

    #[test]
    fn save_writes_file() {
        let dir = std::env::temp_dir().join("radionet-test-records");
        let e = ExperimentRecord::new("E0", "smoke");
        let path = e.save(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"id\": \"E0\""));
        std::fs::remove_file(path).ok();
    }
}
