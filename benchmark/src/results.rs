//! One set of results: what `run` prints and writes, what `compare` reads back, and the
//! one-line form the driver expects.

use crate::json::Json;
use crate::spec::{self, Better, Metric};
use crate::stats::Summary;

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub rounds: usize,
    /// Empty when only the traced run was asked for.
    pub end_to_end: Vec<(String, Summary)>,
    /// Empty when the traced run was not asked for.
    pub per_layer: Vec<(String, f64)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Machine stamp and run parameters.
    pub stamp: Vec<(String, Json)>,
    pub workloads: Vec<WorkloadResult>,
}

fn summary_json(summary: &Summary, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(summary.value)),
        ("min", Json::Num(summary.min)),
        ("max", Json::Num(summary.max)),
        ("count", Json::Num(summary.count as f64)),
        ("unit", Json::str(unit)),
    ])
}

fn value_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn unit_of(declared: &[Metric], name: &str) -> &'static str {
    declared
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

impl WorkloadResult {
    /// The driver's contract: one object with exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding the end-to-end or the per-layer metrics.
    pub fn driver_line(&self, traced: bool) -> Json {
        let metrics: Vec<(String, Json)> = if traced {
            self.per_layer_json()
        } else {
            self.end_to_end
                .iter()
                .map(|(name, s)| {
                    let unit = unit_of(&spec::END_TO_END, name);
                    (name.clone(), value_json(s.value, unit))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    fn per_layer_json(&self) -> Vec<(String, Json)> {
        self.per_layer
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(&spec::PER_LAYER, name);
                (name.clone(), value_json(*value, unit))
            })
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(Json::str).collect()),
            ),
            (
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|(name, s)| {
                            (
                                name.clone(),
                                summary_json(s, unit_of(&spec::END_TO_END, name)),
                            )
                        })
                        .collect(),
                ),
            ),
            ("per_layer", Json::Obj(self.per_layer_json())),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let number = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("workload entry without a number {key:?}"))
        };
        let fields = |key: &str| {
            json.get(key)
                .and_then(Json::as_object)
                .ok_or_else(|| format!("workload entry without an object {key:?}"))
        };
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric without a number {key:?}"))
        };
        Ok(Self {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload entry without a name")?
                .to_string(),
            attempted: number("attempted")? as usize,
            failed: number("failed")? as usize,
            rounds: number("rounds")? as usize,
            errors: json
                .get("errors")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
            end_to_end: fields("end_to_end")?
                .iter()
                .map(|(name, entry)| {
                    Ok((
                        name.clone(),
                        Summary {
                            value: field(entry, "value")?,
                            min: field(entry, "min")?,
                            max: field(entry, "max")?,
                            count: field(entry, "count")? as usize,
                        },
                    ))
                })
                .collect::<Result<_, String>>()?,
            per_layer: fields("per_layer")?
                .iter()
                .map(|(name, entry)| Ok((name.clone(), field(entry, "value")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

impl ResultSet {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stamp", Json::Obj(self.stamp.clone())),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(json: &Json) -> Result<Self, String> {
        Ok(Self {
            stamp: json
                .get("stamp")
                .and_then(Json::as_object)
                .ok_or("results file without a stamp")?
                .to_vec(),
            workloads: json
                .get("workloads")
                .and_then(Json::as_array)
                .ok_or("results file without workloads")?
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
            .map_err(|e| format!("{path}: {e}"))
    }

    /// Every metric by name with its unit, one workload after the other.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.stamp {
            out.push_str(&format!("# {key}: {value}\n"));
        }
        for w in &self.workloads {
            out.push_str(&format!(
                "\n{}  (attempted {}, failed {}, rounds {})\n",
                w.name, w.attempted, w.failed, w.rounds
            ));
            if let Some(declared) = spec::workload(&w.name) {
                out.push_str(&format!("  why: {}\n", declared.why));
            }
            for error in &w.errors {
                out.push_str(&format!("  ! {error}\n"));
            }
            for (name, s) in &w.end_to_end {
                out.push_str(&format!(
                    "  {name:<38} {:>16.6} {:<6} rounds {:.6} .. {:.6}  n={}\n",
                    s.value,
                    unit_of(&spec::END_TO_END, name),
                    s.min,
                    s.max,
                    s.count
                ));
            }
            for (name, value) in &w.per_layer {
                out.push_str(&format!(
                    "  {name:<38} {value:>16.6} {}\n",
                    unit_of(&spec::PER_LAYER, name)
                ));
            }
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// One side's rounds spread wider than the bound: the medians cannot be told apart.
    Unresolved,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: Summary,
    pub other: Summary,
    /// `other / base`.
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    /// The two values differ by no more than the bound in either direction.
    pub fn agrees(&self) -> bool {
        self.ratio <= 1.0 + self.bound && self.ratio >= 1.0 / (1.0 + self.bound)
    }
}

/// One row per (end-to-end metric, workload) present in both sets, `base` first.
pub fn compare(base: &ResultSet, other: &ResultSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for b in &base.workloads {
        let Some(o) = other.workloads.iter().find(|o| o.name == b.name) else {
            continue;
        };
        for metric in &spec::END_TO_END {
            let find = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|(name, _)| name == metric.name)
                    .map(|(_, s)| *s)
            };
            let (Some(base), Some(other)) = (find(b), find(o)) else {
                continue;
            };
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            let ratio = other.value / base.value;
            let worse_by = match metric.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let verdict = if base.spread() > bound || other.spread() > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: b.name.clone(),
                metric: metric.name,
                base,
                other,
                ratio,
                bound,
                verdict,
            });
        }
    }
    rows
}

pub fn comparison_table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<26} {:<20} {:>16} {:>16} {:>18} {:>6}  verdict\n",
        "workload", "metric", "base", "other", "other/base", "bound"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:<20} {:>16.6} {:>16.6} {:>8.4} (base={:.4}) {:>6.2}  {}\n",
            row.workload,
            row.metric,
            row.base.value,
            row.other.value,
            row.ratio,
            row.base.value,
            row.bound,
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(wall: Summary) -> ResultSet {
        ResultSet {
            stamp: vec![("seed".to_string(), Json::Num(1.0))],
            workloads: vec![WorkloadResult {
                name: "w".to_string(),
                attempted: 6,
                failed: 0,
                errors: vec![],
                rounds: 3,
                end_to_end: vec![
                    (spec::WALL_S.to_string(), wall),
                    (spec::EDGE_CUT.to_string(), steady(1000.0)),
                ],
                per_layer: vec![("refine.s".to_string(), 0.5)],
            }],
        }
    }

    fn steady(value: f64) -> Summary {
        Summary {
            value,
            min: value,
            max: value * 1.01,
            count: 6,
        }
    }

    #[test]
    fn results_survive_a_round_trip_through_their_file_form() {
        let original = set(steady(1.25));
        let text = original.to_json().pretty();
        let back = ResultSet::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, original);
        assert!(original.table().contains("wall_s"));
    }

    #[test]
    fn compare_tells_ok_regressed_and_unresolved_apart() {
        let base = set(steady(1.0));
        let verdict_of = |other: Summary| {
            let rows = compare(&base, &set(other));
            assert_eq!(rows.len(), 2, "wall_s and edge_cut");
            assert_eq!(rows[1].verdict, Verdict::Ok, "edge_cut is unchanged");
            (rows[0].verdict, rows[0].agrees())
        };
        assert_eq!(verdict_of(steady(1.2)), (Verdict::Ok, true));
        assert_eq!(verdict_of(steady(0.5)), (Verdict::Ok, false));
        assert_eq!(verdict_of(steady(1.3)), (Verdict::Regressed, false));
        let wide = Summary {
            value: 1.3,
            min: 1.2,
            max: 1.7,
            count: 6,
        };
        assert_eq!(verdict_of(wide).0, Verdict::Unresolved);
        let table = comparison_table(&compare(&base, &set(steady(1.3))));
        assert!(table.contains("regressed") && table.contains("(base=1.0000)"));
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        let result = set(steady(1.0)).workloads.remove(0);
        let traced = result.driver_line(true);
        let keys: Vec<&str> = traced
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| &**k)
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(traced.get("metrics").unwrap().get("refine.s").is_some());
        let timed = result.driver_line(false);
        let wall = timed.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("unit"), Some(&Json::str("s")));
        assert_eq!(wall.get("value"), Some(&Json::Num(1.0)));
    }
}
