//! Importing workloads from CSV — the path from real submission logs
//! (e.g. Grid Workloads Archive extracts) into the simulator.
//!
//! Two formats are accepted:
//!
//! * **task-level** (exact): `bag,arrival,work` — one row per task; all
//!   rows of a bag must share the arrival time, bag ids must be dense and
//!   arrival-ordered.
//! * **bag-level** (generative): `arrival,granularity,app_size` — one row
//!   per bag; tasks are synthesised with the paper's ±50 % jitter fill
//!   construction using a caller-supplied RNG.
//!
//! Lines starting with `#` and a leading header row are ignored.

use crate::bot::{BagOfTasks, BotId};
use crate::bot_type::BotType;
use crate::task::{TaskId, TaskSpec};
use crate::workload::Workload;
use dgsched_des::time::SimTime;
use rand::Rng;

/// Import failure: line number (1-based) and description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ImportError {}

fn err(line: usize, message: impl Into<String>) -> ImportError {
    ImportError {
        line,
        message: message.into(),
    }
}

fn data_lines(csv: &str) -> impl Iterator<Item = (usize, &str)> {
    csv.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter(|(_, l)| {
            // Drop a header row: any field that is not a number.
            l.split(',')
                .next()
                .map(|f| f.trim().parse::<f64>().is_err())
                != Some(true)
        })
}

fn parse_f64(line: usize, field: &str, what: &str) -> Result<f64, ImportError> {
    field
        .trim()
        .parse()
        .map_err(|_| err(line, format!("invalid {what}: '{field}'")))
}

/// An arrival time: finite and not negative (the simulator starts at 0
/// and cannot schedule into the past).
fn parse_arrival(line: usize, field: &str) -> Result<SimTime, ImportError> {
    let arrival = parse_f64(line, field, "arrival")?;
    if !(arrival.is_finite() && arrival >= 0.0) {
        return Err(err(
            line,
            format!("arrival must be finite and >= 0, got {arrival}"),
        ));
    }
    Ok(SimTime::new(arrival))
}

/// A work amount: finite and positive.
fn parse_work(line: usize, field: &str, what: &str) -> Result<f64, ImportError> {
    let work = parse_f64(line, field, what)?;
    if !(work.is_finite() && work > 0.0) {
        return Err(err(
            line,
            format!("{what} must be finite and > 0, got {work}"),
        ));
    }
    Ok(work)
}

/// Parses a task-level CSV (`bag,arrival,work`).
pub fn import_tasks(csv: &str) -> Result<Workload, ImportError> {
    let mut bags: Vec<BagOfTasks> = Vec::new();
    for (line, l) in data_lines(csv) {
        let fields: Vec<&str> = l.split(',').collect();
        if fields.len() != 3 {
            return Err(err(
                line,
                format!("expected 3 fields (bag,arrival,work), got {}", fields.len()),
            ));
        }
        let bag_id = fields[0]
            .trim()
            .parse::<u32>()
            .map_err(|_| err(line, format!("invalid bag id: '{}'", fields[0])))?;
        let arrival = parse_arrival(line, fields[1])?;
        let work = parse_work(line, fields[2], "work")?;
        let next = bags.len();
        match bags.last_mut() {
            Some(bag) if bag.id.0 == bag_id => {
                if bag.arrival != arrival {
                    return Err(err(
                        line,
                        format!("bag {bag_id} has inconsistent arrival times"),
                    ));
                }
                let tid = TaskId(bag.tasks.len() as u32);
                bag.tasks.push(TaskSpec { id: tid, work });
            }
            _ if bag_id as usize == next => {
                bags.push(BagOfTasks {
                    id: BotId(bag_id),
                    arrival,
                    tasks: vec![TaskSpec {
                        id: TaskId(0),
                        work,
                    }],
                    granularity: work,
                });
            }
            Some(bag) => {
                return Err(err(
                    line,
                    format!(
                        "bag ids must be dense and grouped; got {bag_id} after {}",
                        bag.id.0
                    ),
                ))
            }
            None => return Err(err(line, format!("bag ids must start at 0; got {bag_id}"))),
        }
    }
    if bags.is_empty() {
        return Err(err(0, "no data rows"));
    }
    // Recompute per-bag granularity as the mean task work (reporting only).
    for bag in &mut bags {
        bag.granularity = bag.total_work() / bag.len() as f64;
    }
    let workload = Workload {
        bags,
        lambda: 0.0,
        label: "imported(tasks)".into(),
    };
    workload.validate().map_err(|m| err(0, m))?;
    Ok(workload)
}

/// Parses a bag-level CSV (`arrival,granularity,app_size`), synthesising
/// tasks with the paper's fill construction.
pub fn import_bags<R: Rng + ?Sized>(csv: &str, rng: &mut R) -> Result<Workload, ImportError> {
    let mut bags: Vec<BagOfTasks> = Vec::new();
    for (line, l) in data_lines(csv) {
        let fields: Vec<&str> = l.split(',').collect();
        if fields.len() != 3 {
            return Err(err(
                line,
                format!(
                    "expected 3 fields (arrival,granularity,app_size), got {}",
                    fields.len()
                ),
            ));
        }
        let arrival = parse_arrival(line, fields[0])?;
        let granularity = parse_work(line, fields[1], "granularity")?;
        let app_size = parse_work(line, fields[2], "app_size")?;
        let ty = BotType {
            granularity,
            app_size,
            jitter: 0.5,
        };
        bags.push(BagOfTasks {
            id: BotId(bags.len() as u32),
            arrival,
            tasks: ty.generate_tasks(rng),
            granularity,
        });
    }
    if bags.is_empty() {
        return Err(err(0, "no data rows"));
    }
    let workload = Workload {
        bags,
        lambda: 0.0,
        label: "imported(bags)".into(),
    };
    workload.validate().map_err(|m| err(0, m))?;
    Ok(workload)
}

/// Exports a workload in the task-level CSV format accepted by
/// [`import_tasks`] (lossless for task structure; λ and label are not
/// part of the format).
pub fn export_tasks(workload: &Workload) -> String {
    let mut out = String::from("bag,arrival,work\n");
    for bag in &workload.bags {
        for task in &bag.tasks {
            out.push_str(&format!(
                "{},{},{}\n",
                bag.id.0,
                bag.arrival.as_secs(),
                task.work
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn task_level_round_trip() {
        let csv = "\
# comment
bag,arrival,work
0,0.0,100.0
0,0.0,200.0
1,50.0,300.0
";
        let w = import_tasks(csv).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w.bags[0].len(), 2);
        assert_eq!(w.bags[0].total_work(), 300.0);
        assert_eq!(w.bags[1].arrival.as_secs(), 50.0);
        assert_eq!(w.bags[0].granularity, 150.0);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn task_level_rejects_inconsistent_arrival() {
        let csv = "0,0.0,100.0\n0,5.0,100.0\n";
        let e = import_tasks(csv).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("inconsistent"));
    }

    #[test]
    fn task_level_rejects_sparse_ids() {
        let csv = "0,0.0,100.0\n2,5.0,100.0\n";
        let e = import_tasks(csv).unwrap_err();
        assert!(e.message.contains("dense"));
    }

    #[test]
    fn task_level_rejects_bad_fields() {
        assert!(import_tasks("0,0.0\n").is_err());
        assert!(import_tasks("x,0.0,1.0\n").is_err());
        assert!(import_tasks("0,zero,1.0\n").is_err());
        assert!(import_tasks("0,0.0,-5\n").is_err());
        assert!(import_tasks("").is_err());
        assert!(import_tasks("# only comments\n").is_err());
    }

    #[test]
    fn hostile_rows_are_errors_naming_their_line() {
        // (input, line, message fragment): each once panicked or slipped
        // through to panic in the simulator.
        let tasks: &[(&str, usize, &str)] = &[
            ("5,0,100\n", 1, "must start at 0"),
            ("0,0,100\n2,0,100\n", 2, "after 0"),
            ("0,NaN,100\n", 1, "arrival must be finite"),
            ("0,-5,100\n", 1, "arrival must be finite and >= 0"),
            ("0,inf,100\n", 1, "arrival must be finite"),
            ("0,0,inf\n", 1, "work must be finite"),
            ("0,0,NaN\n", 1, "work must be finite"),
            ("0,0,100\n0,0,-inf\n", 2, "work must be finite"),
        ];
        for &(csv, line, fragment) in tasks {
            let e = import_tasks(csv).expect_err(csv);
            assert_eq!(e.line, line, "{csv:?}: {e}");
            assert!(e.message.contains(fragment), "{csv:?}: {e}");
        }
        let bags: &[(&str, usize, &str)] = &[
            ("0,inf,1000\n", 1, "granularity must be finite"),
            ("0,NaN,1000\n", 1, "granularity must be finite"),
            ("0,100,inf\n", 1, "app_size must be finite"),
            ("0,100,NaN\n", 1, "app_size must be finite"),
            ("0,100,1000\nNaN,100,1000\n", 2, "arrival must be finite"),
            ("-1,100,1000\n", 1, "arrival must be finite and >= 0"),
        ];
        for &(csv, line, fragment) in bags {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let e = import_bags(csv, &mut rng).expect_err(csv);
            assert_eq!(e.line, line, "{csv:?}: {e}");
            assert!(e.message.contains(fragment), "{csv:?}: {e}");
        }
    }

    #[test]
    fn bag_level_synthesises_tasks() {
        let csv = "\
arrival,granularity,app_size
0.0,100.0,1000.0
10.0,50.0,500.0
";
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = import_bags(csv, &mut rng).unwrap();
        assert_eq!(w.len(), 2);
        // Fill construction: total work reaches app_size.
        assert!(w.bags[0].total_work() >= 1000.0);
        assert!(w.bags[1].total_work() >= 500.0);
        assert!(w.validate().is_ok());
    }

    #[test]
    fn bag_level_rejects_unordered() {
        let csv = "10.0,100.0,1000.0\n0.0,100.0,1000.0\n";
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert!(import_bags(csv, &mut rng).is_err());
    }

    #[test]
    fn imported_workload_simulates() {
        // End-to-end: an imported workload runs through the generator's
        // validation path that the simulator relies on.
        let csv = "0,0.0,1000.0\n0,0.0,1500.0\n1,100.0,800.0\n";
        let w = import_tasks(csv).unwrap();
        assert_eq!(w.total_tasks(), 3);
        assert_eq!(w.total_work(), 3300.0);
    }

    #[test]
    fn error_display() {
        let e = err(7, "boom");
        assert_eq!(e.to_string(), "line 7: boom");
    }

    #[test]
    fn export_import_round_trip_exact() {
        // Generated workload → CSV → import must reproduce tasks exactly
        // (floats print with full round-trip precision).
        use crate::generator::WorkloadSpec;
        use crate::{BotType, Intensity};
        use dgsched_grid::{Availability, GridConfig, Heterogeneity};
        let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let spec = WorkloadSpec {
            bot_type: BotType {
                granularity: 700.0,
                app_size: 5_000.0,
                jitter: 0.5,
            },
            intensity: Intensity::Low,
            count: 4,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let w = spec.generate(&grid, &mut rng);
        let csv = export_tasks(&w);
        let back = import_tasks(&csv).expect("exported CSV reimports");
        assert_eq!(back.len(), w.len());
        for (a, b) in w.bags.iter().zip(&back.bags) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.tasks, b.tasks);
        }
    }

    #[test]
    fn heavy_tail_round_trip_is_byte_identical() {
        // Trace-realistic workloads carry extreme magnitudes (Pareto sizes
        // spanning decades, lognormal task works with long decimal tails).
        // export → import → export must reproduce the CSV byte for byte,
        // or a workload archived to disk silently drifts on re-import.
        use crate::arrival::ArrivalModel;
        use crate::dist::{SizeModel, TaskJitter};
        use crate::generator::RealisticSpec;
        use crate::Intensity;
        use dgsched_grid::{Availability, GridConfig, Heterogeneity};
        let grid = GridConfig::paper(Heterogeneity::HOM, Availability::HIGH);
        let spec = RealisticSpec {
            granularity: 5_000.0,
            size: SizeModel::Pareto {
                alpha: 1.5,
                min: 8.0e5,
                cap: Some(1.0e8),
            },
            task_jitter: TaskJitter::Lognormal { sigma: 1.0 },
            arrivals: ArrivalModel::Mmpp {
                burst_ratio: 9.0,
                burst_frac: 0.1,
                burst_len: 25.0,
            },
            intensity: Intensity::Low,
            count: 10,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let w = spec.generate(&grid, &mut rng);
        let csv = export_tasks(&w);
        let back = import_tasks(&csv).expect("exported CSV reimports");
        assert_eq!(csv, export_tasks(&back), "export → import → export drifted");
        for (a, b) in w.bags.iter().zip(&back.bags) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.tasks, b.tasks);
        }
    }
}
