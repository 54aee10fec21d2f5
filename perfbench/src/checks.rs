//! Output checks. Each takes the program's outputs and an independently
//! computed reference and reports what differs; a mismatch counts as a
//! failed operation.

use std::collections::HashMap;
use streampim::pim_device::ExecReport;
use streampim::pim_runtime::{BatchResult, Job};

/// A report's canonical bytes: the serialization the service stores and
/// returns verbatim.
pub fn report_json(report: &ExecReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// What determines a job's report: everything but its tenant and request
/// id, which the service stamps and the outcome never depends on.
pub fn job_key(job: &Job) -> String {
    let mut bare = job.clone();
    bare.tenant.clear();
    bare.request_id.clear();
    serde_json::to_string(&bare).expect("jobs serialize")
}

/// The raw bytes of the `report` field of a `GET /v1/jobs/{id}/result`
/// body, exactly as served (the service assembles the body around the
/// stored report bytes), or `None` for a missing or null report.
pub fn raw_report(result_body: &str) -> Option<&str> {
    const FIELD: &str = "\"report\": ";
    let start = result_body.find(FIELD)? + FIELD.len();
    let end = result_body.rfind(", \"error\":")?;
    let raw = result_body.get(start..end)?;
    (raw != "null").then_some(raw)
}

/// For each served `(job key, report bytes)`, whether the bytes equal the
/// direct run's report for that key.
pub fn served_reports_match(
    served: &[(String, &str)],
    direct: &HashMap<String, String>,
) -> Vec<bool> {
    served
        .iter()
        .map(|(key, raw)| direct.get(key).is_some_and(|d| d == raw))
        .collect()
}

/// Indices whose outcome differs between two runs of one job list (a
/// failed outcome never matches).
pub fn outcome_mismatches(a: &BatchResult, b: &BatchResult) -> Vec<usize> {
    let json = |r: &Result<ExecReport, String>| r.as_ref().ok().map(report_json);
    let mut out: Vec<usize> = a
        .outcomes
        .iter()
        .zip(&b.outcomes)
        .filter(|(x, y)| {
            let (x, y) = (json(&x.report), json(&y.report));
            x.is_none() || x != y
        })
        .map(|(x, _)| x.index)
        .collect();
    out.extend(a.outcomes.len().min(b.outcomes.len())..a.outcomes.len().max(b.outcomes.len()));
    out
}

/// Host integer reference of `C = A*B` over row-major bytes.
pub fn gemm_reference(a: &[u8], b: &[u8], m: usize, k: usize, n: usize) -> Vec<u64> {
    let mut c = vec![0u64; m * n];
    for i in 0..m {
        for p in 0..k {
            let x = u64::from(a[i * k + p]);
            for j in 0..n {
                c[i * n + j] += x * u64::from(b[p * n + j]);
            }
        }
    }
    c
}

/// Elements of `c` that differ from `reference` (a length mismatch counts
/// every missing element).
pub fn element_mismatches(c: &[u64], reference: &[u64]) -> usize {
    c.iter().zip(reference).filter(|(x, y)| x != y).count() + c.len().abs_diff(reference.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use streampim::pim_baselines::PlatformKind;
    use streampim::pim_runtime::{Runtime, RuntimeConfig};
    use streampim::pim_workloads::WorkloadSpec;

    fn small_job(platform: PlatformKind) -> Job {
        Job::new(WorkloadSpec::MatMul { m: 24, k: 16, n: 8 }, platform)
    }

    #[test]
    fn served_report_check_fails_on_a_corrupted_byte() {
        let job = small_job(PlatformKind::StPim).for_tenant("gold");
        let batch = Runtime::new(RuntimeConfig::default()).run_batch(std::slice::from_ref(&job));
        let raw = report_json(batch.outcomes[0].report.as_ref().unwrap());
        let body = format!("{{\"id\": 1, \"report\": {raw}, \"error\": null, \"meter\": null}}");
        assert_eq!(raw_report(&body), Some(raw.as_str()));
        assert_eq!(raw_report("{\"report\": null, \"error\": \"x\"}"), None);

        let direct: HashMap<String, String> =
            [(job_key(&job.clone().for_tenant("bronze")), raw.clone())].into();
        let corrupted = raw.replacen('1', "2", 1);
        assert_ne!(corrupted, raw);
        let verdicts = served_reports_match(
            &[
                (job_key(&job), raw.as_str()),
                (job_key(&job), corrupted.as_str()),
                (job_key(&small_job(PlatformKind::StPimE)), raw.as_str()),
            ],
            &direct,
        );
        assert_eq!(verdicts, vec![true, false, false]);
    }

    #[test]
    fn rerun_check_fails_on_a_corrupted_outcome() {
        let jobs = [
            small_job(PlatformKind::StPim),
            small_job(PlatformKind::CpuRm),
        ];
        let runtime = Runtime::new(RuntimeConfig::default());
        let first = runtime.run_batch(&jobs);
        let again = runtime.run_batch(&jobs);
        assert!(outcome_mismatches(&first, &again).is_empty());
        let mut corrupted = again.clone();
        corrupted.outcomes[1]
            .report
            .as_mut()
            .unwrap()
            .time
            .process_ns += 1.0;
        assert_eq!(outcome_mismatches(&first, &corrupted), vec![1]);
        corrupted.outcomes[0].report = Err("lost".into());
        assert_eq!(outcome_mismatches(&first, &corrupted), vec![0, 1]);
        corrupted.outcomes.pop();
        assert_eq!(outcome_mismatches(&first, &corrupted), vec![0, 1]);
    }

    #[test]
    fn gemm_check_fails_on_corruption() {
        let (a, b) = ([1u8, 2, 3, 4, 5, 6], [7u8, 8, 9, 10, 11, 12]);
        let c = gemm_reference(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![58, 64, 139, 154]);
        assert_eq!(element_mismatches(&c, &c), 0);
        let mut bad = c.clone();
        bad[3] += 1;
        assert_eq!(element_mismatches(&bad, &c), 1);
        assert_eq!(element_mismatches(&c[..3], &c), 1);
    }
}
