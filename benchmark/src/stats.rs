//! Aggregation of repeated measurements.

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The value a share `q` of the sorted `values` lies below (nearest rank).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    values.sort_unstable_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no values");
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// How the rounds of one trajectory collapse into one number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverRounds {
    /// For times: every round repeats the identical computation, and whatever else the
    /// machine does can only add to it, so the least disturbed round is the estimate.
    Min,
    /// For counts and bytes, which do not depend on what else the machine does.
    Median,
}

/// One metric of one workload: the headline `value`, and the spread of the per-round
/// figures behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    /// Summary of plain repeats: the median, with their range.
    pub fn of_repeats(values: &[f64]) -> Self {
        Self {
            value: median(&mut values.to_vec()),
            min: min(values),
            max: max(values),
            count: values.len(),
        }
    }

    /// `rounds[r][t]` is trajectory `t` measured in round `r` (`None`: that run failed).
    /// The value is the mean over trajectories of each trajectory's rounds collapsed by
    /// `over_rounds`; `min`/`max` are the lowest and highest per-round mean and `count`
    /// the number of measurements. `None` if some trajectory has no measurement at all.
    pub fn of_rounds(rounds: &[Vec<Option<f64>>], over_rounds: OverRounds) -> Option<Self> {
        let trajectories = rounds.first()?.len();
        let mut per_trajectory = Vec::with_capacity(trajectories);
        for t in 0..trajectories {
            let mut seen: Vec<f64> = rounds.iter().filter_map(|round| round[t]).collect();
            if seen.is_empty() {
                return None;
            }
            per_trajectory.push(match over_rounds {
                OverRounds::Min => min(&seen),
                OverRounds::Median => median(&mut seen),
            });
        }
        let per_round: Vec<f64> = rounds
            .iter()
            .filter_map(|round| {
                let seen: Vec<f64> = round.iter().flatten().copied().collect();
                (seen.len() == trajectories).then(|| mean(&seen))
            })
            .collect();
        let value = mean(&per_trajectory);
        Some(Self {
            value,
            min: if per_round.is_empty() {
                value
            } else {
                min(&per_round)
            },
            max: if per_round.is_empty() {
                value
            } else {
                max(&per_round)
            },
            count: rounds.iter().flatten().flatten().count(),
        })
    }

    /// Range of the per-round figures as a share of the value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_count_of_repeats() {
        let s = Summary::of_repeats(&[5.0, 1.0, 9.0, 3.0]);
        assert_eq!((s.value, s.min, s.max, s.count), (4.0, 1.0, 9.0, 4));
        let s = Summary::of_repeats(&[7.0, 2.0, 4.0]);
        assert_eq!((s.value, s.min, s.max, s.count), (4.0, 2.0, 7.0, 3));
    }

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut values = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&mut values, 0.0), 1.0);
        assert_eq!(quantile(&mut values, 0.5), 5.0);
        assert_eq!(quantile(&mut values, 0.9), 9.0);
    }

    #[test]
    fn rounds_collapse_per_trajectory_then_average() {
        // Two trajectories, three rounds; round 1 was disturbed.
        let rounds = vec![
            vec![Some(1.0), Some(3.0)],
            vec![Some(1.6), Some(4.0)],
            vec![Some(1.2), Some(3.2)],
        ];
        let time = Summary::of_rounds(&rounds, OverRounds::Min).unwrap();
        assert_eq!(time.value, 2.0); // mean(min(1.0,1.6,1.2), min(3.0,4.0,3.2))
        assert_eq!((time.min, time.max, time.count), (2.0, 2.8, 6));
        let bytes = Summary::of_rounds(&rounds, OverRounds::Median).unwrap();
        assert!((bytes.value - 2.2).abs() < 1e-12); // mean(1.2, 3.2)
        assert!((time.spread() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn a_failed_run_is_left_out_but_a_lost_trajectory_voids_the_metric() {
        let rounds = vec![vec![Some(1.0), None], vec![Some(2.0), Some(5.0)]];
        let s = Summary::of_rounds(&rounds, OverRounds::Min).unwrap();
        assert_eq!((s.value, s.count), (3.0, 3));
        // Only the complete round contributes a per-round mean.
        assert_eq!((s.min, s.max), (3.5, 3.5));
        let lost = vec![vec![Some(1.0), None], vec![Some(2.0), None]];
        assert!(Summary::of_rounds(&lost, OverRounds::Min).is_none());
        assert!(Summary::of_rounds(&[], OverRounds::Min).is_none());
    }
}
