//! The string-keyed view over the task set.

use crate::task::Task;

/// Looks [`Task`]s up by key: a field-less view over [`Task::ALL`].
///
/// The [`Driver`](crate::Driver) resolves [`RunSpec::task`](crate::RunSpec)
/// with [`Task::from_key`], and `radionet list-tasks` prints
/// [`Task::ALL`]. Keys iterate in sorted order, so listings are
/// deterministic.
///
/// ```
/// use radionet_api::TaskRegistry;
///
/// let registry = TaskRegistry::standard();
/// assert!(registry.get("broadcast").is_some());
/// assert!(registry.get("warp-drive").is_none());
/// let keys: Vec<&str> = registry.keys().collect();
/// assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted and duplicate-free");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TaskRegistry;

impl TaskRegistry {
    /// The standard registry: every algorithm in the workspace.
    pub fn standard() -> Self {
        TaskRegistry
    }

    /// Looks a task up by key.
    pub fn get(self, key: &str) -> Option<Task> {
        Task::from_key(key)
    }

    /// All keys, sorted.
    pub fn keys(self) -> impl Iterator<Item = &'static str> {
        Task::ALL.into_iter().map(Task::key)
    }

    /// All tasks, sorted by key.
    pub fn iter(self) -> impl Iterator<Item = Task> {
        Task::ALL.into_iter()
    }

    /// Number of tasks.
    pub fn len(self) -> usize {
        Task::ALL.len()
    }

    /// Whether there are no tasks.
    pub fn is_empty(self) -> bool {
        Task::ALL.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_covers_every_run_entry_point() {
        let r = TaskRegistry::standard();
        // One key per legacy `run_*` family (run_compete is reachable as
        // single-source broadcast; run_bgi_multi backs naive-leader-election).
        for key in [
            "broadcast",
            "leader-election",
            "mis",
            "partition",
            "bgi-broadcast",
            "cr-broadcast",
            "naive-leader-election",
            "cd-wakeup",
            "luby-mis",
            "ghaffari-mis",
            "traffic.gossip",
            "traffic.unicast",
            "traffic.multicast",
        ] {
            assert!(r.get(key).is_some(), "missing task {key}");
        }
        assert_eq!(r.len(), 13);
    }

    #[test]
    fn keys_match_tasks_and_have_descriptions() {
        let r = TaskRegistry::standard();
        assert!(r.keys().eq(r.iter().map(Task::key)));
        for task in r.iter() {
            assert_eq!(r.get(task.key()), Some(task));
            assert!(!task.describe().is_empty());
        }
    }
}
