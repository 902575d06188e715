//! PAT-rs: the workflow layer of Foresight.
//!
//! The Python PAT packages CBench + analysis + plotting into SLURM jobs
//! with dependencies (paper §IV-A-2, Fig. 3). PAT-rs keeps the same two
//! abstractions — a [`Job`] with named dependencies and resource needs,
//! and a [`Workflow`] that resolves the DAG — and executes against a
//! simulated cluster ([`SlurmSim`]): jobs run as real closures on a thread
//! pool, scheduled in dependency-respecting waves that never exceed the
//! cluster's core budget, while an sbatch-style script of the schedule is
//! produced for inspection.
//!
//! # Resilience
//!
//! Production SLURM campaigns lose jobs and nodes routinely, so PAT-rs
//! treats failure as data rather than a reason to abort:
//!
//! - each job gets a retry budget with capped exponential backoff (the
//!   backoff is *recorded* on the simulated clock, never slept);
//! - jobs can carry a wall-clock timeout, enforced post-hoc per attempt;
//! - a job that exhausts its retries is marked [`JobStatus::Failed`] and
//!   its transitive dependents are [`JobStatus::Skipped`] — the rest of
//!   the DAG keeps running and the report carries every outcome;
//! - a [`FaultPlan`](gpu_sim::FaultPlan) can inject per-wave node losses
//!   that shrink the schedulable core budget mid-run.

use foresight_util::{telemetry, Error, Result};
use gpu_sim::{FaultKind, FaultPlan};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A unit of work with SLURM-like resource requirements.
pub struct Job {
    /// Unique job name.
    pub name: String,
    /// Names of jobs that must complete first.
    pub deps: Vec<String>,
    /// Cores requested (validated nonzero at run time).
    pub cores: usize,
    /// Per-attempt wall-clock timeout in seconds, if any.
    pub timeout_seconds: Option<f64>,
    func: Box<dyn Fn() -> Result<String> + Send + Sync>,
}

impl Job {
    /// Creates a job from a closure returning a short result summary.
    ///
    /// The closure may be invoked more than once when the workflow's
    /// retry policy grants retries, so it must be idempotent.
    pub fn new(
        name: impl Into<String>,
        cores: usize,
        func: impl Fn() -> Result<String> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            deps: Vec::new(),
            cores,
            timeout_seconds: None,
            func: Box::new(func),
        }
    }

    /// Adds a dependency on another job by name.
    pub fn after(mut self, dep: impl Into<String>) -> Self {
        self.deps.push(dep.into());
        self
    }

    /// Sets a per-attempt wall-clock timeout. An attempt that runs longer
    /// is treated as a failure (checked post-hoc; the closure is not
    /// interrupted) and consumes a retry.
    pub fn with_timeout(mut self, seconds: f64) -> Self {
        self.timeout_seconds = Some(seconds);
        self
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("deps", &self.deps)
            .field("cores", &self.cores)
            .field("timeout_seconds", &self.timeout_seconds)
            .finish()
    }
}

/// The simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct SlurmSim {
    /// Node count.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
}

impl Default for SlurmSim {
    fn default() -> Self {
        // The Darwin partitions the paper used are modest; 4 x 20 cores
        // is representative and plenty for our job graphs.
        Self { nodes: 4, cores_per_node: 20 }
    }
}

impl SlurmSim {
    /// Total schedulable cores.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }
}

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after this many retries.
    Retried(u32),
    /// Every attempt failed (or timed out); retries exhausted.
    Failed,
    /// Never ran: a (transitive) dependency failed or was skipped.
    Skipped,
}

impl JobStatus {
    /// True for `Ok` and `Retried(_)`.
    pub fn succeeded(&self) -> bool {
        matches!(self, JobStatus::Ok | JobStatus::Retried(_))
    }

    /// Short label for scripts and CLI tables.
    pub fn label(&self) -> String {
        match self {
            JobStatus::Ok => "ok".into(),
            JobStatus::Retried(n) => format!("ok(retried x{n})"),
            JobStatus::Failed => "FAILED".into(),
            JobStatus::Skipped => "skipped".into(),
        }
    }
}

/// Retry policy applied to every job in a workflow run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries granted after the first failed attempt.
    pub max_retries: u32,
    /// Backoff before the first retry, in (simulated) seconds.
    pub backoff_base_s: f64,
    /// Cap on any single backoff interval.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    /// No retries: a failing job fails on its first attempt. This is the
    /// zero-surprise default for existing callers.
    fn default() -> Self {
        Self { max_retries: 0, backoff_base_s: 1.0, backoff_cap_s: 60.0 }
    }
}

impl RetryPolicy {
    /// A policy granting `n` retries with the default backoff curve.
    pub fn retries(n: u32) -> Self {
        Self { max_retries: n, ..Default::default() }
    }

    /// Backoff charged before retry number `retry` (1-based): capped
    /// exponential, `base * 2^(retry-1)` up to the cap.
    pub fn backoff_seconds(&self, retry: u32) -> f64 {
        let exp = self.backoff_base_s * 2f64.powi(retry.saturating_sub(1).min(62) as i32);
        exp.min(self.backoff_cap_s)
    }
}

/// Result of one executed (or skipped) job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job name.
    pub name: String,
    /// Summary string the job returned, or the last error message for
    /// failed jobs, or the containment reason for skipped jobs.
    pub output: String,
    /// Wall-clock seconds across all attempts of the closure.
    pub wall_seconds: f64,
    /// Scheduling wave index (0-based; the wave of the verdict for
    /// skipped jobs).
    pub wave: usize,
    /// How the job ended.
    pub status: JobStatus,
    /// Attempts actually executed (0 for skipped jobs).
    pub attempts: u32,
    /// Simulated backoff seconds charged between attempts.
    pub backoff_seconds: f64,
}

/// Result of a full workflow run.
#[derive(Debug, Clone)]
pub struct WorkflowReport {
    /// Per-job results in completion order (skipped jobs included).
    pub jobs: Vec<JobResult>,
    /// Number of scheduling waves used.
    pub waves: usize,
    /// The generated sbatch-style submission script, annotated post-run
    /// with one `# status:` comment per job.
    pub script: String,
    /// Nodes lost to injected faults during the run.
    pub node_failures: u32,
    /// Nodes still alive at the end of the run.
    pub alive_nodes: usize,
}

impl WorkflowReport {
    /// Looks up a job's result by name.
    pub fn job(&self, name: &str) -> Option<&JobResult> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// True when every job succeeded (possibly after retries).
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.status.succeeded())
    }

    /// The exit status of a program that ran this workflow: 0 when every
    /// job succeeded, 1 when any failed or was skipped. Such a program
    /// prints [`Self::failure_summary`] to stderr before it exits with 1.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.all_ok())
    }

    /// Jobs that failed outright.
    pub fn failed(&self) -> Vec<&JobResult> {
        self.jobs.iter().filter(|j| j.status == JobStatus::Failed).collect()
    }

    /// Jobs skipped by failure containment.
    pub fn skipped(&self) -> Vec<&JobResult> {
        self.jobs.iter().filter(|j| j.status == JobStatus::Skipped).collect()
    }

    /// One-line-per-problem summary of failures and skips (empty string
    /// when everything succeeded).
    pub fn failure_summary(&self) -> String {
        let mut s = String::new();
        for j in &self.jobs {
            match j.status {
                JobStatus::Failed => {
                    s.push_str(&format!(
                        "  FAILED  {} ({} attempts): {}\n",
                        j.name, j.attempts, j.output
                    ));
                }
                JobStatus::Skipped => {
                    s.push_str(&format!("  skipped {}: {}\n", j.name, j.output));
                }
                _ => {}
            }
        }
        s
    }
}

/// A DAG of jobs.
#[derive(Default)]
pub struct Workflow {
    jobs: Vec<Job>,
}

impl Workflow {
    /// Creates an empty workflow.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a job; names must be unique.
    pub fn add(&mut self, job: Job) -> Result<()> {
        if self.jobs.iter().any(|j| j.name == job.name) {
            return Err(Error::invalid(format!("duplicate job name '{}'", job.name)));
        }
        self.jobs.push(job);
        Ok(())
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs have been added.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Validates the DAG (unique names are enforced at [`Self::add`]):
    /// every dependency exists, every job wants at least one core and no
    /// more than the cluster has, and the graph is acyclic. Each error
    /// names the offending job.
    fn validate(&self, cluster: &SlurmSim) -> Result<()> {
        let names: HashSet<&str> = self.jobs.iter().map(|j| j.name.as_str()).collect();
        for j in &self.jobs {
            if j.cores == 0 {
                return Err(Error::invalid(format!(
                    "job '{}' requests zero cores",
                    j.name
                )));
            }
            if j.cores > cluster.total_cores() {
                return Err(Error::invalid(format!(
                    "job '{}' requests {} cores, cluster has {}",
                    j.name,
                    j.cores,
                    cluster.total_cores()
                )));
            }
            for d in &j.deps {
                if !names.contains(d.as_str()) {
                    return Err(Error::invalid(format!(
                        "job '{}' depends on unknown job '{}'",
                        j.name, d
                    )));
                }
            }
        }
        // Kahn's algorithm: whatever cannot be ordered is on a cycle.
        let mut indeg: HashMap<&str, usize> =
            self.jobs.iter().map(|j| (j.name.as_str(), j.deps.len())).collect();
        let mut queue: Vec<&str> = indeg
            .iter()
            .filter_map(|(n, d)| (*d == 0).then_some(*n))
            .collect();
        queue.sort_unstable();
        let mut ordered = 0usize;
        while let Some(n) = queue.pop() {
            ordered += 1;
            for j in &self.jobs {
                if j.deps.iter().any(|d| d == n) {
                    // Keys come from self.jobs two lines up, so the entry
                    // always exists; `if let` keeps this panic-free.
                    if let Some(e) = indeg.get_mut(j.name.as_str()) {
                        *e -= 1;
                        if *e == 0 {
                            queue.push(j.name.as_str());
                        }
                    }
                }
            }
        }
        if ordered < self.jobs.len() {
            let mut stuck: Vec<&str> = indeg
                .iter()
                .filter_map(|(n, d)| (*d > 0).then_some(*n))
                .collect();
            stuck.sort_unstable();
            return Err(Error::invalid(format!(
                "dependency cycle among jobs {stuck:?}"
            )));
        }
        Ok(())
    }

    /// Renders the sbatch-style script (before execution).
    fn script(&self) -> String {
        let mut s = String::from("#!/bin/bash\n# generated by PAT-rs\n");
        for j in &self.jobs {
            let dep = if j.deps.is_empty() {
                String::new()
            } else {
                format!(" --dependency=afterok:{}", j.deps.join(":"))
            };
            s.push_str(&format!(
                "sbatch --job-name={} --ntasks={}{} run_{}.sh\n",
                j.name, j.cores, dep, j.name
            ));
        }
        s
    }

    /// Executes the DAG on the simulated cluster with default (no-retry)
    /// policy and no fault injection.
    pub fn run(self, cluster: &SlurmSim) -> Result<WorkflowReport> {
        self.run_chaos(cluster, RetryPolicy::default(), None)
    }

    /// Executes the DAG with an explicit retry policy and optional fault
    /// injection.
    ///
    /// Jobs run in dependency-respecting waves; within a wave, jobs run
    /// concurrently but their summed core request never exceeds the
    /// *currently alive* core budget (overflow spills to the next wave).
    /// A failing job is retried per `retry` (backoff recorded, not
    /// slept); once exhausted it is marked `Failed` and every transitive
    /// dependent is `Skipped`. When `faults` is given, each wave may lose
    /// a node ([`FaultKind::Node`]), shrinking capacity for the rest of
    /// the run; a job that can no longer fit fails with containment.
    ///
    /// Validation problems (unknown dep, cycle, zero/oversized cores) are
    /// the only `Err` outcomes; execution failures land in the report.
    pub fn run_chaos(
        self,
        cluster: &SlurmSim,
        retry: RetryPolicy,
        mut faults: Option<FaultPlan>,
    ) -> Result<WorkflowReport> {
        self.validate(cluster)?;
        let mut wf_span = telemetry::span("pat.workflow");
        wf_span.set_attr("jobs", self.jobs.len().to_string());
        let wf_id = wf_span.id();
        let mut script = self.script();
        let mut pending: Vec<Job> = self.jobs;
        let done: Arc<Mutex<Vec<JobResult>>> = Arc::new(Mutex::new(Vec::new()));
        let mut completed: HashSet<String> = HashSet::new();
        let mut dead: HashSet<String> = HashSet::new(); // failed or skipped
        let mut wave = 0usize;
        let mut alive_nodes = cluster.nodes;
        let mut node_failures = 0u32;
        while !pending.is_empty() {
            // Chaos: this wave may lose a node (capacity floor: 1 node —
            // a fully dead cluster would already be a site outage, not a
            // scheduling question).
            if let Some(plan) = faults.as_mut() {
                if alive_nodes > 1 && plan.trip(FaultKind::Node) {
                    alive_nodes -= 1;
                    node_failures += 1;
                }
            }
            let capacity = alive_nodes * cluster.cores_per_node;
            // Containment: a job with a failed/skipped (transitive)
            // dependency never runs.
            let mut progressed = false;
            let (poisoned, rest): (Vec<Job>, Vec<Job>) = pending
                .into_iter()
                .partition(|j| j.deps.iter().any(|d| dead.contains(d)));
            for j in poisoned {
                let cause = j
                    .deps
                    .iter()
                    .find(|d| dead.contains(*d))
                    .cloned()
                    .unwrap_or_default();
                if telemetry::is_enabled() {
                    let mut s =
                        telemetry::span_with_parent(format!("pat.job.{}", j.name), wf_id);
                    s.set_attr("status", "skipped");
                    s.set_attr("wave", wave.to_string());
                    s.set_attr("cause", cause.clone());
                }
                dead.insert(j.name.clone());
                done.lock().push(JobResult {
                    name: j.name,
                    output: format!("dependency '{cause}' did not succeed"),
                    wall_seconds: 0.0,
                    wave,
                    status: JobStatus::Skipped,
                    attempts: 0,
                    backoff_seconds: 0.0,
                });
                progressed = true;
            }
            // Ready = all deps completed.
            let (ready, rest): (Vec<Job>, Vec<Job>) = rest
                .into_iter()
                .partition(|j| j.deps.iter().all(|d| completed.contains(d)));
            if ready.is_empty() {
                pending = rest;
                if progressed {
                    // Skips may have unblocked (poisoned) successors.
                    continue;
                }
                if pending.is_empty() {
                    break;
                }
                // Unreachable after validation (cycles are rejected), but
                // never spin silently.
                let names: Vec<String> = pending.iter().map(|j| j.name.clone()).collect();
                return Err(Error::Workflow(format!(
                    "scheduler stuck; unsatisfiable deps among {names:?}"
                )));
            }
            // A shrunken cluster may no longer fit a job at all: contain.
            let (unfit, ready): (Vec<Job>, Vec<Job>) =
                ready.into_iter().partition(|j| j.cores > capacity);
            for j in unfit {
                if telemetry::is_enabled() {
                    let mut s =
                        telemetry::span_with_parent(format!("pat.job.{}", j.name), wf_id);
                    s.set_attr("status", "FAILED");
                    s.set_attr("wave", wave.to_string());
                    s.set_attr("cause", "cluster too small after node failures");
                }
                dead.insert(j.name.clone());
                done.lock().push(JobResult {
                    name: j.name.clone(),
                    output: format!(
                        "needs {} cores but only {capacity} remain after {node_failures} node failure(s)",
                        j.cores
                    ),
                    wall_seconds: 0.0,
                    wave,
                    status: JobStatus::Failed,
                    attempts: 0,
                    backoff_seconds: 0.0,
                });
            }
            if ready.is_empty() {
                pending = rest;
                wave += 1;
                continue;
            }
            // Respect the core budget: take ready jobs in order until full.
            let mut batch = Vec::new();
            let mut deferred = rest;
            let mut used = 0usize;
            for j in ready {
                if used + j.cores <= capacity || batch.is_empty() {
                    used += j.cores;
                    batch.push(j);
                } else {
                    deferred.push(j);
                }
            }
            // Run the batch concurrently (scoped threads); each thread
            // owns its job's full retry loop. Every handle is joined
            // below, so a panicking job never reaches the scope itself.
            let results: Vec<(String, Result<String>, f64, u32, f64)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = batch
                        .into_iter()
                        .map(|j| {
                            // Keep the name on this side of the spawn so a
                            // panicking job closure can still be attributed.
                            let name = j.name.clone();
                            // Job threads don't inherit the workflow span
                            // via thread-locals; parent explicitly.
                            let handle = scope.spawn(move || {
                                let mut jspan = telemetry::span_with_parent(
                                    format!("pat.job.{}", j.name),
                                    wf_id,
                                );
                                jspan.set_attr("wave", wave.to_string());
                                let mut total_wall = 0.0f64;
                                let mut backoff = 0.0f64;
                                let mut attempts = 0u32;
                                let out = loop {
                                    attempts += 1;
                                    let t = foresight_util::timer::Timer::new();
                                    let mut out = (j.func)();
                                    let secs = t.elapsed_secs();
                                    total_wall += secs;
                                    if let Some(limit) = j.timeout_seconds {
                                        if out.is_ok() && secs > limit {
                                            out = Err(Error::Workflow(format!(
                                                "attempt exceeded {limit} s timeout ({secs:.3} s)"
                                            )));
                                        }
                                    }
                                    match out {
                                        Ok(v) => break Ok(v),
                                        Err(e) if attempts <= retry.max_retries => {
                                            telemetry::counter("pat.job.retries", 1);
                                            backoff += retry.backoff_seconds(attempts);
                                            let _ = e; // retried; only the last error is reported
                                        }
                                        Err(e) => break Err(e),
                                    }
                                };
                                let status = match &out {
                                    Ok(_) if attempts == 1 => JobStatus::Ok,
                                    Ok(_) => JobStatus::Retried(attempts - 1),
                                    Err(_) => JobStatus::Failed,
                                };
                                jspan.set_attr("status", status.label());
                                jspan.set_attr("attempts", attempts.to_string());
                                jspan.set_attr("backoff_s", format!("{backoff}"));
                                (j.name, out, total_wall, attempts, backoff)
                            });
                            (name, handle)
                        })
                        .collect();
                    // A panicking job closure surfaces as a join error;
                    // contain it as a Failed result so one bad job cannot
                    // take down the whole workflow.
                    handles
                        .into_iter()
                        .map(|(name, h)| match h.join() {
                            Ok(r) => r,
                            Err(panic) => {
                                let msg = panic
                                    .downcast_ref::<String>()
                                    .map(String::as_str)
                                    .or_else(|| panic.downcast_ref::<&str>().copied())
                                    .unwrap_or("opaque panic payload");
                                (
                                    name,
                                    Err(Error::Workflow(format!("job panicked: {msg}"))),
                                    0.0,
                                    1,
                                    0.0,
                                )
                            }
                        })
                        .collect()
                });
            for (name, out, secs, attempts, backoff) in results {
                let (status, output) = match out {
                    Ok(v) if attempts == 1 => (JobStatus::Ok, v),
                    Ok(v) => (JobStatus::Retried(attempts - 1), v),
                    Err(e) => (JobStatus::Failed, e.to_string()),
                };
                if status.succeeded() {
                    completed.insert(name.clone());
                } else {
                    dead.insert(name.clone());
                }
                done.lock().push(JobResult {
                    name,
                    output,
                    wall_seconds: secs,
                    wave,
                    status,
                    attempts,
                    backoff_seconds: backoff,
                });
            }
            pending = deferred;
            wave += 1;
        }
        wf_span.set_attr("waves", wave.to_string());
        wf_span.set_attr("node_failures", node_failures.to_string());
        drop(wf_span);
        let jobs = Arc::try_unwrap(done).expect("no outstanding refs").into_inner();
        script.push_str("# --- run statuses ---\n");
        for j in &jobs {
            script.push_str(&format!("# status: {} = {}\n", j.name, j.status.label()));
        }
        Ok(WorkflowReport { jobs, waves: wave, script, node_failures, alive_nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultRates;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_in_dependency_order() {
        let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mut wf = Workflow::new();
        let o1 = order.clone();
        wf.add(Job::new("analyze", 1, move || {
            o1.lock().push("analyze");
            Ok("done".into())
        })
        .after("cbench"))
            .unwrap();
        let o2 = order.clone();
        wf.add(Job::new("cbench", 2, move || {
            o2.lock().push("cbench");
            Ok("done".into())
        }))
        .unwrap();
        let o3 = order.clone();
        wf.add(Job::new("plot", 1, move || {
            o3.lock().push("plot");
            Ok("done".into())
        })
        .after("analyze"))
            .unwrap();
        let report = wf.run(&SlurmSim::default()).unwrap();
        assert_eq!(&*order.lock(), &["cbench", "analyze", "plot"]);
        assert_eq!(report.waves, 3);
        assert!(report.script.contains("--dependency=afterok:cbench"));
        assert!(report.script.contains("# status: plot = ok"));
        assert!(report.job("plot").is_some());
        assert!(report.all_ok());
        assert_eq!(report.node_failures, 0);
    }

    #[test]
    fn independent_jobs_share_a_wave() {
        let mut wf = Workflow::new();
        for i in 0..4 {
            wf.add(Job::new(format!("j{i}"), 1, || Ok("ok".into()))).unwrap();
        }
        let report = wf.run(&SlurmSim { nodes: 1, cores_per_node: 8 }).unwrap();
        assert_eq!(report.waves, 1);
    }

    #[test]
    fn core_budget_splits_waves() {
        let counter = Arc::new(AtomicUsize::new(0));
        let mut wf = Workflow::new();
        for i in 0..4 {
            let c = counter.clone();
            wf.add(Job::new(format!("j{i}"), 10, move || {
                c.fetch_add(1, Ordering::SeqCst);
                Ok("ok".into())
            }))
            .unwrap();
        }
        // 20 cores total, 10 each -> 2 jobs per wave -> 2 waves.
        let report = wf.run(&SlurmSim { nodes: 1, cores_per_node: 20 }).unwrap();
        assert_eq!(report.waves, 2);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn cycle_detected() {
        let mut wf = Workflow::new();
        wf.add(Job::new("a", 1, || Ok("".into())).after("b")).unwrap();
        wf.add(Job::new("b", 1, || Ok("".into())).after("a")).unwrap();
        let err = wf.run(&SlurmSim::default()).unwrap_err();
        assert!(err.to_string().contains("cycle"));
        assert!(err.to_string().contains('a') && err.to_string().contains('b'));
    }

    #[test]
    fn unknown_dependency_rejected() {
        let mut wf = Workflow::new();
        wf.add(Job::new("a", 1, || Ok("".into())).after("ghost")).unwrap();
        let err = wf.run(&SlurmSim::default()).unwrap_err();
        assert!(err.to_string().contains("'a'") && err.to_string().contains("'ghost'"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut wf = Workflow::new();
        wf.add(Job::new("a", 1, || Ok("".into()))).unwrap();
        let err = wf.add(Job::new("a", 1, || Ok("".into()))).unwrap_err();
        assert!(err.to_string().contains("duplicate") && err.to_string().contains("'a'"));
    }

    #[test]
    fn zero_core_job_rejected() {
        let mut wf = Workflow::new();
        wf.add(Job::new("lazy", 0, || Ok("".into()))).unwrap();
        let err = wf.run(&SlurmSim::default()).unwrap_err();
        assert!(err.to_string().contains("'lazy'") && err.to_string().contains("zero cores"));
    }

    #[test]
    fn oversized_job_rejected() {
        let mut wf = Workflow::new();
        wf.add(Job::new("huge", 10_000, || Ok("".into()))).unwrap();
        let err = wf.run(&SlurmSim::default()).unwrap_err();
        assert!(err.to_string().contains("'huge'"));
    }

    #[test]
    fn failing_job_is_contained_and_dependents_skip() {
        let ran = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mut wf = Workflow::new();
        wf.add(Job::new("bad", 1, || Err(Error::invalid("boom")))).unwrap();
        let r1 = ran.clone();
        wf.add(Job::new("child", 1, move || {
            r1.lock().push("child");
            Ok("".into())
        })
        .after("bad"))
            .unwrap();
        let r2 = ran.clone();
        wf.add(Job::new("grandchild", 1, move || {
            r2.lock().push("grandchild");
            Ok("".into())
        })
        .after("child"))
            .unwrap();
        let r3 = ran.clone();
        wf.add(Job::new("bystander", 1, move || {
            r3.lock().push("bystander");
            Ok("".into())
        }))
        .unwrap();
        let report = wf.run(&SlurmSim::default()).unwrap();
        // The failure is contained: the unrelated job still ran.
        assert_eq!(&*ran.lock(), &["bystander"]);
        assert_eq!(report.job("bad").unwrap().status, JobStatus::Failed);
        assert!(report.job("bad").unwrap().output.contains("boom"));
        assert_eq!(report.job("child").unwrap().status, JobStatus::Skipped);
        assert_eq!(report.job("grandchild").unwrap().status, JobStatus::Skipped);
        assert_eq!(report.job("bystander").unwrap().status, JobStatus::Ok);
        assert!(!report.all_ok());
        assert_eq!(report.failed().len(), 1);
        assert_eq!(report.skipped().len(), 2);
        let summary = report.failure_summary();
        assert!(summary.contains("FAILED  bad"));
        assert!(summary.contains("skipped child"));
        assert!(report.script.contains("# status: bad = FAILED"));
        assert!(report.script.contains("# status: child = skipped"));
    }

    #[test]
    fn a_failed_or_skipped_job_maps_to_exit_code_1() {
        let ok = |name: &'static str| Job::new(name, 1, || Ok("".into()));
        let mut wf = Workflow::new();
        wf.add(ok("a")).unwrap();
        wf.add(ok("b").after("a")).unwrap();
        let report = wf.run(&SlurmSim::default()).unwrap();
        assert_eq!((report.exit_code(), report.failure_summary()), (0, String::new()));

        // The last job of a chain fails: the shape of `guideline`'s
        // `optimize` finding no acceptable configuration.
        let mut wf = Workflow::new();
        wf.add(ok("sweep")).unwrap();
        wf.add(Job::new("optimize", 1, || Err(Error::invalid("none of 3 configs"))).after("sweep"))
            .unwrap();
        let report = wf.run(&SlurmSim::default()).unwrap();
        assert_eq!(report.exit_code(), 1);
        assert!(report.failure_summary().contains("FAILED  optimize"));

        // A skipped job alone fails the run too.
        let mut wf = Workflow::new();
        wf.add(Job::new("bad", 1, || Err(Error::invalid("boom")))).unwrap();
        wf.add(ok("child").after("bad")).unwrap();
        let report = wf.run(&SlurmSim::default()).unwrap();
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn flaky_job_succeeds_with_retries_and_charges_backoff() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let mut wf = Workflow::new();
        wf.add(Job::new("flaky", 1, move || {
            if t.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(Error::invalid("transient"))
            } else {
                Ok("third time lucky".into())
            }
        }))
        .unwrap();
        let policy = RetryPolicy { max_retries: 3, backoff_base_s: 1.0, backoff_cap_s: 60.0 };
        let report = wf.run_chaos(&SlurmSim::default(), policy, None).unwrap();
        let j = report.job("flaky").unwrap();
        assert_eq!(j.status, JobStatus::Retried(2));
        assert_eq!(j.attempts, 3);
        assert_eq!(j.output, "third time lucky");
        // Backoff 1 + 2 seconds, recorded but never slept.
        assert!((j.backoff_seconds - 3.0).abs() < 1e-12);
        assert!(j.wall_seconds < 1.0, "backoff must not be slept");
        assert!(report.all_ok());
        assert!(report.script.contains("# status: flaky = ok(retried x2)"));
    }

    #[test]
    fn retries_exhaust_into_failure() {
        let tries = Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let mut wf = Workflow::new();
        wf.add(Job::new("doomed", 1, move || {
            t.fetch_add(1, Ordering::SeqCst);
            Err(Error::invalid("always"))
        }))
        .unwrap();
        let report = wf
            .run_chaos(&SlurmSim::default(), RetryPolicy::retries(2), None)
            .unwrap();
        let j = report.job("doomed").unwrap();
        assert_eq!(j.status, JobStatus::Failed);
        assert_eq!(j.attempts, 3, "initial + 2 retries");
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy { max_retries: 10, backoff_base_s: 1.0, backoff_cap_s: 8.0 };
        assert_eq!(p.backoff_seconds(1), 1.0);
        assert_eq!(p.backoff_seconds(2), 2.0);
        assert_eq!(p.backoff_seconds(3), 4.0);
        assert_eq!(p.backoff_seconds(4), 8.0);
        assert_eq!(p.backoff_seconds(9), 8.0, "cap holds");
    }

    #[test]
    fn timeout_fails_a_slow_job_post_hoc() {
        let mut wf = Workflow::new();
        wf.add(
            Job::new("slow", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                Ok("too late".into())
            })
            .with_timeout(0.001),
        )
        .unwrap();
        let report = wf.run(&SlurmSim::default()).unwrap();
        let j = report.job("slow").unwrap();
        assert_eq!(j.status, JobStatus::Failed);
        assert!(j.output.contains("timeout"), "{}", j.output);
    }

    #[test]
    fn node_failures_shrink_capacity_deterministically() {
        let build = || {
            let mut wf = Workflow::new();
            // Chain long enough to give node faults waves to land in.
            for i in 0..8 {
                let job = Job::new(format!("j{i}"), 20, || Ok("ok".into()));
                let job = if i > 0 { job.after(format!("j{}", i - 1)) } else { job };
                wf.add(job).unwrap();
            }
            wf
        };
        let cluster = SlurmSim { nodes: 4, cores_per_node: 20 };
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed, FaultRates { node: 0.9, ..Default::default() });
            build()
                .run_chaos(&cluster, RetryPolicy::default(), Some(plan))
                .unwrap()
        };
        let a = run(7);
        assert!(a.node_failures > 0, "90% node rate over 8 waves must fire");
        assert!(a.alive_nodes >= 1);
        assert_eq!(a.alive_nodes, cluster.nodes - a.node_failures as usize);
        // 20-core jobs still fit the single-node floor: all succeed.
        assert!(a.all_ok());
        // Determinism: the same seed replays the same failures.
        let b = run(7);
        assert_eq!(a.node_failures, b.node_failures);
        assert_eq!(a.waves, b.waves);
    }

    #[test]
    fn job_too_wide_for_degraded_cluster_fails_with_containment() {
        // First wave loses a node (rate 1.0 with >1 alive), leaving 20
        // cores; the 40-core job can never run and its dependent skips.
        let cluster = SlurmSim { nodes: 2, cores_per_node: 20 };
        let mut wf = Workflow::new();
        wf.add(Job::new("wide", 40, || Ok("".into()))).unwrap();
        wf.add(Job::new("after-wide", 1, || Ok("".into())).after("wide")).unwrap();
        wf.add(Job::new("narrow", 1, || Ok("".into()))).unwrap();
        let plan = FaultPlan::new(1, FaultRates { node: 1.0, ..Default::default() });
        let report = wf.run_chaos(&cluster, RetryPolicy::default(), Some(plan)).unwrap();
        assert_eq!(report.node_failures, 1, "floor: never below one node");
        assert_eq!(report.job("wide").unwrap().status, JobStatus::Failed);
        assert!(report.job("wide").unwrap().output.contains("node failure"));
        assert_eq!(report.job("after-wide").unwrap().status, JobStatus::Skipped);
        assert_eq!(report.job("narrow").unwrap().status, JobStatus::Ok);
    }

    #[test]
    fn panicking_job_is_contained_as_failed() {
        // Regression: a panic inside a job closure used to unwind through
        // the scoped join and take down the whole run_chaos call. It must
        // land as a Failed result instead, leaving siblings untouched.
        let mut wf = Workflow::new();
        wf.add(Job::new("bomb", 1, || panic!("synthetic job panic"))).unwrap();
        wf.add(Job::new("calm", 1, || Ok("fine".into()))).unwrap();
        wf.add(Job::new("after-bomb", 1, || Ok("".into())).after("bomb")).unwrap();
        let report = wf
            .run_chaos(&SlurmSim::default(), RetryPolicy::default(), None)
            .unwrap();
        let bomb = report.job("bomb").unwrap();
        assert_eq!(bomb.status, JobStatus::Failed);
        assert!(
            bomb.output.contains("job panicked") && bomb.output.contains("synthetic job panic"),
            "panic payload surfaces in the output: {}",
            bomb.output
        );
        assert_eq!(report.job("calm").unwrap().status, JobStatus::Ok);
        assert_eq!(report.job("after-bomb").unwrap().status, JobStatus::Skipped);
        assert!(!report.all_ok());
    }

    #[test]
    fn deps_skipped_and_quarantined_in_same_wave_skip_the_join_job() {
        // Regression for the wave-structure edge case: J depends on A and
        // B, and in one wave A is skipped (poisoned by X's earlier
        // failure) while B is quarantined as unfit after a node loss. J
        // must then be skipped with a concrete cause — not run, not hang,
        // not panic.
        let cluster = SlurmSim { nodes: 2, cores_per_node: 4 };
        let mut wf = Workflow::new();
        wf.add(Job::new("x", 1, || Err(Error::Workflow("seed failure".into())))).unwrap();
        wf.add(Job::new("y", 1, || Ok("ok".into()))).unwrap();
        wf.add(Job::new("a", 1, || Ok("never".into())).after("x")).unwrap();
        wf.add(Job::new("b", 6, || Ok("never".into())).after("y")).unwrap();
        wf.add(Job::new("j", 1, || Ok("never".into())).after("a").after("b")).unwrap();
        // Node rate 1.0 drops the cluster to its one-node floor (4 cores)
        // in wave 0, so b (6 cores) can never fit once it is ready.
        let plan = FaultPlan::new(0, FaultRates { node: 1.0, ..Default::default() });
        let report = wf.run_chaos(&cluster, RetryPolicy::default(), Some(plan)).unwrap();
        assert_eq!(report.job("x").unwrap().status, JobStatus::Failed);
        assert_eq!(report.job("y").unwrap().status, JobStatus::Ok);
        let a = report.job("a").unwrap();
        let b = report.job("b").unwrap();
        assert_eq!(a.status, JobStatus::Skipped);
        assert_eq!(b.status, JobStatus::Failed);
        assert_eq!(a.wave, b.wave, "A's skip and B's quarantine share a wave");
        let j = report.job("j").unwrap();
        assert_eq!(j.status, JobStatus::Skipped);
        assert!(
            j.output.contains("'a'") || j.output.contains("'b'"),
            "skip cause names a dead dependency: {}",
            j.output
        );
        assert!(j.wave > a.wave);
    }
}
