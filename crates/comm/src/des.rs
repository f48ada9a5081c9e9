//! A deterministic dependency-graph discrete-event engine.
//!
//! Tasks declare a serial resource (a CPU worker pool slot, the GPU
//! compute stream, a PCIe copy engine, the NIC) plus dependencies on
//! earlier tasks. Submission computes each task's start time as
//! `max(resource free, deps complete)` — classic list scheduling — which
//! is exactly the semantics of a pipelined system whose stages run on
//! dedicated execution resources. The engine reports per-task times,
//! per-resource busy time, and the makespan.

/// Handle to a resource registered with a [`DesEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResourceId(usize);

/// Handle to a submitted task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskId(usize);

#[derive(Clone, Debug)]
struct TaskRecord {
    start: f64,
    completion: f64,
    resource: Option<ResourceId>,
}

/// One traced task interval (only recorded when tracing is enabled).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Resource the task ran on.
    pub resource: ResourceId,
    /// Task label supplied at submission.
    pub label: String,
    /// Start time (seconds).
    pub start: f64,
    /// Completion time (seconds).
    pub end: f64,
}

/// The engine.
///
/// # Example
///
/// ```
/// use spp_comm::DesEngine;
///
/// let mut des = DesEngine::new();
/// let cpu = des.add_resource("cpu");
/// let gpu = des.add_resource("gpu");
/// let a = des.submit(cpu, 2.0, &[]);
/// let b = des.submit(gpu, 1.0, &[a]); // waits for a
/// assert_eq!(des.completion(b), 3.0);
/// assert_eq!(des.makespan(), 3.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DesEngine {
    resource_free: Vec<f64>,
    resource_busy: Vec<f64>,
    resource_names: Vec<String>,
    tasks: Vec<TaskRecord>,
    trace: Option<Vec<TraceEntry>>,
}

impl DesEngine {
    /// Creates an empty engine at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables per-task tracing; subsequent [`DesEngine::submit_labeled`]
    /// calls record [`TraceEntry`]s retrievable via [`DesEngine::trace`].
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// True once [`DesEngine::enable_trace`] was called — lets callers
    /// skip building labels nobody will read.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The recorded trace (empty if tracing was never enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Like [`DesEngine::submit`], attaching `label` to the trace entry
    /// when tracing is enabled.
    pub fn submit_labeled(
        &mut self,
        resource: ResourceId,
        duration: f64,
        deps: &[TaskId],
        label: &str,
    ) -> TaskId {
        self.submit_labeled_released(resource, duration, deps, label, 0.0)
    }

    /// Like [`DesEngine::submit_released`], attaching `label` to the
    /// trace entry when tracing is enabled.
    pub fn submit_labeled_released(
        &mut self,
        resource: ResourceId,
        duration: f64,
        deps: &[TaskId],
        label: &str,
        release: f64,
    ) -> TaskId {
        let id = self.submit_released(resource, duration, deps, release);
        let (start, end) = (self.start(id), self.completion(id));
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                resource,
                label: label.to_string(),
                start,
                end,
            });
        }
        id
    }

    /// Registers a serial resource.
    pub fn add_resource(&mut self, name: &str) -> ResourceId {
        self.resource_free.push(0.0);
        self.resource_busy.push(0.0);
        self.resource_names.push(name.to_string());
        ResourceId(self.resource_free.len() - 1)
    }

    /// Submits a task of `duration` seconds on `resource`, starting no
    /// earlier than all of `deps` complete. Returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or any dependency is unknown.
    pub fn submit(&mut self, resource: ResourceId, duration: f64, deps: &[TaskId]) -> TaskId {
        self.submit_released(resource, duration, deps, 0.0)
    }

    /// Like [`DesEngine::submit`] with an additional *release time*: the
    /// task cannot start before `release`, even if its resource and
    /// dependencies are free earlier. This models work that becomes
    /// available at a known virtual time — e.g. an inference micro-batch
    /// that closes when its batching deadline fires, not when the
    /// pipeline happens to be idle.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or any dependency is unknown.
    pub fn submit_released(
        &mut self,
        resource: ResourceId,
        duration: f64,
        deps: &[TaskId],
        release: f64,
    ) -> TaskId {
        assert!(duration >= 0.0, "duration must be non-negative");
        let deps_done = deps
            .iter()
            .map(|&d| self.completion(d))
            .fold(release, f64::max);
        let start = deps_done.max(self.resource_free[resource.0]);
        let completion = start + duration;
        self.resource_free[resource.0] = completion;
        self.resource_busy[resource.0] += duration;
        self.tasks.push(TaskRecord {
            start,
            completion,
            resource: Some(resource),
        });
        TaskId(self.tasks.len() - 1)
    }

    /// Submits a zero-duration synchronization point depending on `deps`,
    /// bound to no resource (e.g. "batch complete").
    pub fn join(&mut self, deps: &[TaskId]) -> TaskId {
        let deps_done = deps
            .iter()
            .map(|&d| self.completion(d))
            .fold(0.0f64, f64::max);
        self.tasks.push(TaskRecord {
            start: deps_done,
            completion: deps_done,
            resource: None,
        });
        TaskId(self.tasks.len() - 1)
    }

    /// A task's start time.
    pub fn start(&self, task: TaskId) -> f64 {
        self.tasks[task.0].start
    }

    /// A task's completion time.
    pub fn completion(&self, task: TaskId) -> f64 {
        self.tasks[task.0].completion
    }

    /// The resource a task ran on (`None` for joins).
    pub fn resource_of(&self, task: TaskId) -> Option<ResourceId> {
        self.tasks[task.0].resource
    }

    /// Total busy time of a resource.
    pub fn busy_time(&self, resource: ResourceId) -> f64 {
        self.resource_busy[resource.0]
    }

    /// A resource's registered name.
    pub fn resource_name(&self, resource: ResourceId) -> &str {
        &self.resource_names[resource.0]
    }

    /// Latest completion over all tasks (0 if none).
    pub fn makespan(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.completion)
            .fold(0.0f64, f64::max)
    }

    /// Number of submitted tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Utilization of a resource relative to the makespan (0..1).
    pub fn utilization(&self, resource: ResourceId) -> f64 {
        let m = self.makespan();
        if m == 0.0 {
            0.0
        } else {
            self.busy_time(resource) / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_resource_queues_tasks() {
        let mut des = DesEngine::new();
        let r = des.add_resource("r");
        let a = des.submit(r, 1.0, &[]);
        let b = des.submit(r, 2.0, &[]);
        assert_eq!(des.completion(a), 1.0);
        assert_eq!(des.start(b), 1.0);
        assert_eq!(des.completion(b), 3.0);
        assert_eq!(des.busy_time(r), 3.0);
    }

    #[test]
    fn release_time_delays_start() {
        let mut des = DesEngine::new();
        let r = des.add_resource("r");
        // Idle resource, no deps: the release time alone gates the start.
        let a = des.submit_released(r, 1.0, &[], 5.0);
        assert_eq!(des.start(a), 5.0);
        assert_eq!(des.completion(a), 6.0);
        // Release earlier than the resource-free time is a no-op.
        let b = des.submit_released(r, 1.0, &[], 2.0);
        assert_eq!(des.start(b), 6.0);
        // Release interacts with deps: latest of the three wins.
        let c = des.submit_released(r, 1.0, &[a], 10.0);
        assert_eq!(des.start(c), 10.0);
        // Busy time counts durations only, not release idle gaps.
        assert_eq!(des.busy_time(r), 3.0);
    }

    #[test]
    fn labeled_release_records_trace_interval() {
        let mut des = DesEngine::new();
        des.enable_trace();
        let r = des.add_resource("r");
        des.submit_labeled_released(r, 2.0, &[], "warm", 3.0);
        let t = des.trace();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].label, "warm");
        assert_eq!(t[0].start, 3.0);
        assert_eq!(t[0].end, 5.0);
    }

    #[test]
    fn independent_resources_overlap() {
        let mut des = DesEngine::new();
        let r1 = des.add_resource("a");
        let r2 = des.add_resource("b");
        des.submit(r1, 5.0, &[]);
        des.submit(r2, 5.0, &[]);
        assert_eq!(des.makespan(), 5.0);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut des = DesEngine::new();
        let r1 = des.add_resource("a");
        let r2 = des.add_resource("b");
        let a = des.submit(r1, 3.0, &[]);
        let b = des.submit(r2, 1.0, &[a]);
        assert_eq!(des.start(b), 3.0);
        assert_eq!(des.completion(b), 4.0);
    }

    #[test]
    fn pipeline_overlaps_stages() {
        // Two-stage pipeline over 3 items: stage1 on r1 (1s), stage2 on r2
        // (1s). Pipelined makespan = 4, serial would be 6.
        let mut des = DesEngine::new();
        let r1 = des.add_resource("s1");
        let r2 = des.add_resource("s2");
        let mut last = None;
        for _ in 0..3 {
            let a = des.submit(r1, 1.0, &[]);
            let b = des.submit(r2, 1.0, &[a]);
            last = Some(b);
        }
        assert_eq!(des.completion(last.unwrap()), 4.0);
    }

    #[test]
    fn join_synchronizes_without_resource() {
        let mut des = DesEngine::new();
        let r = des.add_resource("r");
        let a = des.submit(r, 2.0, &[]);
        let b = des.submit(r, 1.0, &[]);
        let j = des.join(&[a, b]);
        assert_eq!(des.completion(j), 3.0);
        assert_eq!(des.resource_of(j), None);
    }

    #[test]
    fn utilization_bounds() {
        let mut des = DesEngine::new();
        let r1 = des.add_resource("a");
        let r2 = des.add_resource("b");
        let a = des.submit(r1, 2.0, &[]);
        des.submit(r2, 2.0, &[a]);
        assert_eq!(des.makespan(), 4.0);
        assert_eq!(des.utilization(r1), 0.5);
        assert_eq!(des.utilization(r2), 0.5);
    }

    #[test]
    fn makespan_bounded_by_serial_sum() {
        let mut des = DesEngine::new();
        let r1 = des.add_resource("a");
        let r2 = des.add_resource("b");
        let mut total = 0.0;
        let mut prev: Option<TaskId> = None;
        for i in 0..10 {
            let dur = 0.1 * (i + 1) as f64;
            total += dur;
            let r = if i % 2 == 0 { r1 } else { r2 };
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(des.submit(r, dur, &deps));
        }
        assert!(des.makespan() <= total + 1e-9);
        assert!(des.makespan() >= des.busy_time(r1).max(des.busy_time(r2)));
    }

    #[test]
    fn trace_records_labeled_tasks() {
        let mut des = DesEngine::new();
        des.enable_trace();
        let r = des.add_resource("r");
        let a = des.submit_labeled(r, 1.0, &[], "first");
        des.submit_labeled(r, 2.0, &[a], "second");
        des.submit(r, 1.0, &[]); // unlabeled: not traced
        let t = des.trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].label, "first");
        assert_eq!(t[1].label, "second");
        assert_eq!(t[1].start, 1.0);
        assert_eq!(t[1].end, 3.0);
    }

    #[test]
    fn trace_empty_without_enable() {
        let mut des = DesEngine::new();
        let r = des.add_resource("r");
        des.submit_labeled(r, 1.0, &[], "x");
        assert!(des.trace().is_empty());
    }

    #[test]
    #[should_panic(expected = "duration must be non-negative")]
    fn negative_duration_rejected() {
        let mut des = DesEngine::new();
        let r = des.add_resource("r");
        des.submit(r, -1.0, &[]);
    }
}
