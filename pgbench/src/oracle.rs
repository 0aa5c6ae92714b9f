//! The correctness oracle: what the daemon answers is compared with an
//! in-process full validation of the harness's own mirror of the graph.

use pg_schema::{validate, PgSchema, ValidationOptions};
use pgraph::json::Json;
use pgraph::PropertyGraph;

/// The verdict of a report with everything run-dependent removed: the
/// violations as sorted JSON texts and the per-rule counts. Engine name,
/// timings and emission order are not part of the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub violations: Vec<String>,
    pub rule_counts: String,
}

/// Reads the verdict out of a response body: a bare report (`/validate`,
/// `GET /report`) or an envelope with a `report` member (`/sessions`,
/// `/deltas`).
pub fn verdict(body: &str) -> Result<Verdict, String> {
    let doc = Json::parse(body).map_err(|e| format!("response is not JSON: {e}"))?;
    let report = doc.get("report").unwrap_or(&doc);
    let violations = report
        .get("violations")
        .and_then(Json::as_array)
        .ok_or("response has no violations array")?;
    let mut violations: Vec<String> = violations.iter().map(Json::to_string).collect();
    violations.sort_unstable();
    let rule_counts = report
        .get("rule_counts")
        .ok_or("response has no rule_counts")?
        .to_string();
    Ok(Verdict {
        violations,
        rule_counts,
    })
}

/// What a correct daemon must answer for `graph` under `schema`.
pub fn expected(graph: &PropertyGraph, schema: &PgSchema) -> Verdict {
    let report = validate(graph, schema, &ValidationOptions::default());
    verdict(&report.to_json()).expect("the library writes a well-formed report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_ignore_order_engine_and_timings() {
        let a = r#"{"conforms": false, "engine": "indexed", "truncated": false,
            "violations": [{"rule": "WS1", "node": 1}, {"rule": "DS5", "node": 2}],
            "rule_counts": {"WS1": 1, "DS5": 1},
            "metrics": {"engine": "indexed", "index_build_nanos": 12}}"#;
        let b = r#"{"outcome": {"elements_rechecked": 3}, "deltas_applied": 1,
            "report": {"conforms": false, "engine": "incremental", "truncated": false,
            "violations": [{"rule": "DS5", "node": 2}, {"rule": "WS1", "node": 1}],
            "rule_counts": {"WS1": 1, "DS5": 1}}}"#;
        assert_eq!(verdict(a).unwrap(), verdict(b).unwrap());
        let c = b.replace("\"node\": 2", "\"node\": 3");
        assert_ne!(verdict(a).unwrap(), verdict(&c).unwrap());
        assert!(verdict("{\"error\":\"no such session\"}").is_err());
        assert!(verdict("not json").is_err());
    }
}
