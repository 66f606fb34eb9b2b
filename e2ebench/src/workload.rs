//! The benchmark's workloads and the deterministic outputs it checks.

use driving::Task;
use experiments::harness::{success_table_obs, train_and_evaluate_obs};
use experiments::methods::cell_label;
use experiments::{Condition, Method, Scale, Scenario};
use lbchat::obs::{Json, ObsSink};
use lbchat::prelude::Metrics;
use std::time::Instant;

/// A named batch job: one scenario and the experiment cells run on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// LbChat under no loss, then with loss (Tables II/III cells), serial.
    LbChatQuick,
    /// ProxSkip, RSU-L, DFL-DDS and DP without loss, two cells at a time
    /// (`table2 --quick --methods proxskip,rsul,dfl-dds,dp --jobs 2`).
    BaselinesQuickJ2,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::LbChatQuick, Workload::BaselinesQuickJ2];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LbChatQuick => "lbchat-quick",
            Workload::BaselinesQuickJ2 => "baselines-quick-j2",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario scale, seeded with the benchmark's `--seed`.
    pub fn scale(self, seed: u64) -> Scale {
        Scale {
            seed,
            ..Scale::quick()
        }
    }

    /// Worker threads: 2 for the `-j2` workloads, never above the
    /// machine's parallelism.
    pub fn jobs(self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        match self {
            Workload::LbChatQuick => 1,
            _ => cores.min(2),
        }
    }

    /// Timed `Scenario::build`s per untraced repetition: cheap builds are
    /// repeated so that `setup_s` is a median over many samples.
    pub fn setups(self) -> usize {
        match self {
            Workload::LbChatQuick => 9,
            Workload::BaselinesQuickJ2 => 7,
        }
    }

    /// The (method, condition) cells, in run order.
    pub fn cells(self) -> Vec<(Method, Condition)> {
        match self {
            Workload::LbChatQuick => {
                vec![
                    (Method::LbChat, Condition::NoLoss),
                    (Method::LbChat, Condition::WithLoss),
                ]
            }
            Workload::BaselinesQuickJ2 => {
                [Method::ProxSkip, Method::RsuL, Method::DflDds, Method::Dp]
                    .map(|m| (m, Condition::NoLoss))
                    .to_vec()
            }
        }
    }

    /// Whether the cells fan out over the worker pool as one table
    /// (`success_table_obs`) instead of running one after the other.
    pub fn fans_out(self) -> bool {
        self == Workload::BaselinesQuickJ2
    }

    /// Runs every cell through the harness entry points, recording into
    /// `obs`. The wall time of each harness call (one per cell, or one for
    /// the whole fanned-out table) is pushed onto `stage_s`, and `after`
    /// runs, untimed, after each call. Stops at the first cell that
    /// returns an error.
    pub fn run_cells(
        self,
        s: &Scenario,
        obs: &ObsSink,
        stage_s: &mut Vec<f64>,
        mut after: impl FnMut(),
    ) -> Result<(), String> {
        let cells = self.cells();
        if self.fans_out() {
            let methods: Vec<Method> = cells.iter().map(|&(m, _)| m).collect();
            let t = Instant::now();
            success_table_obs(self.name(), &methods, s, cells[0].1, obs)
                .map_err(|e| e.to_string())?;
            stage_s.push(t.elapsed().as_secs_f64());
            after();
        } else {
            for (index, &(m, c)) in cells.iter().enumerate() {
                let t = Instant::now();
                train_and_evaluate_obs(m, s, c, obs, index).map_err(|e| e.to_string())?;
                stage_s.push(t.elapsed().as_secs_f64());
                after();
            }
        }
        Ok(())
    }

    /// Each cell's outputs as the harness recorded them in its
    /// `cell_finish` event; `None` for a cell that never finished.
    pub fn outputs_from_events(self, obs: &ObsSink) -> Vec<Option<CellOutput>> {
        let events = obs.events();
        self.cells()
            .into_iter()
            .map(|(m, c)| {
                let label = cell_label(m, c);
                let e = events
                    .iter()
                    .find(|e| e.kind == "cell_finish" && e.str_field("cell") == Some(&label))?;
                Some(CellOutput {
                    final_loss: e.num("final_loss"),
                    receiving_rate: e.num("receiving_rate")?,
                    rates: e
                        .get("rates")?
                        .as_arr()?
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect(),
                    sessions: e.get("sessions")?.as_u64()?,
                    label,
                })
            })
            .collect()
    }
}

/// The deterministic outputs of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// The cell's run-manifest label, e.g. `LbChat@wo`.
    pub label: String,
    /// Last point of the loss curve.
    pub final_loss: Option<f64>,
    /// Delivered / attempted model transfers.
    pub receiving_rate: f64,
    /// Closed-loop success rate per task, in `Task::ALL` order.
    pub rates: Vec<f64>,
    /// Pairwise sessions started.
    pub sessions: u64,
}

impl CellOutput {
    /// The outputs of a cell that ran: its per-task rates and metrics.
    pub fn from_run(label: String, rates: Vec<f64>, m: &Metrics) -> Self {
        CellOutput {
            label,
            final_loss: m.final_loss(),
            receiving_rate: m.model_receiving_rate(),
            rates,
            sessions: m.sessions,
        }
    }

    fn to_json(&self) -> Json {
        let loss = |f: fn(f64) -> Json| self.final_loss.map_or(Json::Null, f);
        Json::Obj(vec![
            ("cell".into(), self.label.as_str().into()),
            ("final_loss".into(), loss(Json::Num)),
            (
                "final_loss_bits".into(),
                loss(|v| Json::Str(format!("{:016x}", v.to_bits()))),
            ),
            ("receiving_rate".into(), self.receiving_rate.into()),
            (
                "rates".into(),
                Json::Arr(self.rates.iter().map(|&r| r.into()).collect()),
            ),
            ("tasks".into(), Task::ALL.len().into()),
            ("sessions".into(), self.sessions.into()),
        ])
    }
}

/// The outputs `run.py` compares between repetitions: every cell plus
/// the `train.samples` counter of the run's sink.
pub fn outputs_json(cells: &[Option<CellOutput>], obs: &ObsSink) -> Json {
    let samples = obs.counters().get("train.samples").copied().unwrap_or(0);
    Json::Obj(vec![
        (
            "cells".into(),
            Json::Arr(
                cells
                    .iter()
                    .map(|c| c.as_ref().map_or(Json::Null, CellOutput::to_json))
                    .collect(),
            ),
        ),
        ("train_samples".into(), samples.into()),
    ])
}
