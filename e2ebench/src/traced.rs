//! The traced repetition: the workload's cells rebuilt around the timers
//! of [`crate::timers`], with setup and closed-loop eval timed part by
//! part through the same public functions the harness calls.

use crate::timers::{secs, Callback, Ledger, TimedAlgorithm, TimedLearner, Totals};
use crate::workload::{outputs_json, CellOutput, Workload};
use baselines::dfl_dds::DflDdsConfig;
use baselines::dp::DpConfig;
use baselines::proxskip::ProxSkipConfig;
use baselines::rsul::RsuLConfig;
use baselines::{DflDds, Dp, ProxSkip, RsuL};
use driving::{collect_datasets, success_rate_obs, CollectConfig, DrivingLearner, Frame, Task};
use experiments::harness::{eval_config, train_and_evaluate_obs};
use experiments::methods::cell_label;
use experiments::{Condition, Method, Scale, Scenario};
use lbchat::exec;
use lbchat::node::LbChatAlgorithm;
use lbchat::obs::{Json, ObsSink};
use lbchat::prelude::{CollabAlgorithm, LbChatConfig, Learner, Runtime, RuntimeConfig};
use rand::SeedableRng;
use simnet::geom::Vec2;
use simworld::world::{World, WorldConfig};
use std::sync::Arc;
use std::time::Instant;
use vnn::ParamVec;

/// Copy of the private `experiments::methods::runtime_config`; the
/// output check proves the two agree.
fn runtime_config(s: &Scenario, condition: Condition, obs: ObsSink) -> RuntimeConfig {
    RuntimeConfig {
        duration: s.scale.train_seconds,
        train_iters_per_second: s.scale.iters_per_second,
        loss_model: condition.loss_model(),
        eval_every: s.scale.eval_every,
        seed: s.scale.seed,
        codec: s.scale.codec,
        obs,
        ..RuntimeConfig::default()
    }
}

/// Copy of the private `experiments::methods::lbchat_config`.
fn lbchat_config(s: &Scenario) -> LbChatConfig {
    LbChatConfig {
        coreset_size: s.scale.coreset_size,
        model_wire_bytes: s.scale.model_wire_bytes,
        coreset_bytes_per_sample: 4096,
        ..LbChatConfig::default()
    }
}

/// Wall time of each part of `Scenario::build`.
struct SetupParts {
    world_s: f64,
    collect_s: f64,
    trace_s: f64,
    total_s: f64,
    frames: u64,
}

/// `Scenario::build`, step by step in the same order, timing `World::new`,
/// data collection (`collect_datasets` + `eval_set`) and
/// `World::record_trace`.
fn setup(scale: Scale) -> (Scenario, SetupParts) {
    let t = Instant::now();
    let mut world = World::new(WorldConfig {
        seed: scale.seed,
        n_experts: scale.n_vehicles,
        n_background: scale.n_background,
        n_pedestrians: scale.n_pedestrians,
        n_fleet: scale.fleet.n_fleet(),
        ..WorldConfig::default()
    });
    let world_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let datasets = collect_datasets(
        &mut world,
        &CollectConfig {
            seconds: scale.data_seconds,
            stride: 1,
            balance_commands: true,
        },
    );
    let eval = driving::collect::eval_set(&datasets, scale.eval_per_vehicle);
    let collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let trace_seconds = scale.train_seconds + 60.0;
    let trace = world.record_trace(trace_seconds);
    let trace_s = t.elapsed().as_secs_f64();
    let spec =
        DrivingLearner::spec_for(world.config().bev.feature_len(), world.config().n_waypoints);
    let map = world.map();
    let targets = [
        Vec2::new(250.0, 250.0),
        Vec2::new(250.0, 550.0),
        Vec2::new(550.0, 250.0),
        Vec2::new(550.0, 550.0),
        Vec2::new(850.0, 850.0),
    ];
    let rsu_positions = targets
        .iter()
        .map(|t| {
            let mut best = (f32::INFINITY, Vec2::ZERO);
            for n in 0..map.n_nodes() {
                let p = map.node(n).pos;
                let d = p.distance(*t);
                if d < best.0 {
                    best = (d, p);
                }
            }
            best.1
        })
        .collect();
    let fps = world.config().fps;
    let frames = (scale.data_seconds * fps).ceil() + (trace_seconds * fps).ceil() + 1.0;
    let s = Scenario {
        scale,
        datasets,
        eval,
        trace,
        spec,
        rsu_positions,
    };
    let parts = SetupParts {
        world_s,
        collect_s,
        trace_s,
        total_s: 0.0,
        frames: frames as u64,
    };
    (s, parts)
}

/// One traced cell.
struct CellTrace {
    output: Result<CellOutput, String>,
    totals: Totals,
    build_s: f64,
    runtime_s: f64,
    eval_s: f64,
    start_s: f64,
    end_s: f64,
}

/// Constructs `algo`'s timed wrapper, runs it, and returns the metrics and
/// vehicle 0's final model (the harness's evaluation representative).
fn drive<A: CollabAlgorithm<Sample = Frame>>(
    algo: A,
    rt: &Runtime,
    s: &Scenario,
    ledger: &Arc<Ledger>,
) -> Result<(lbchat::prelude::Metrics, ParamVec, f64), String> {
    let mut timed = TimedAlgorithm::new(algo, ledger);
    let t = Instant::now();
    let metrics = rt
        .run(&mut timed, &s.trace, &s.eval)
        .map_err(|e| e.to_string())?;
    Ok((metrics, timed.model(0).clone(), t.elapsed().as_secs_f64()))
}

/// `train_and_evaluate_obs` for one cell, with every learner and the
/// algorithm wrapped in timers (same construction as
/// `experiments::methods::run_method_engine`).
fn cell(
    method: Method,
    condition: Condition,
    s: &Scenario,
    obs: &ObsSink,
    t0: Instant,
) -> CellTrace {
    let start_s = t0.elapsed().as_secs_f64();
    let ledger = Arc::new(Ledger::default());
    let label = cell_label(method, condition);
    let sink = obs.scoped(&label);
    let rt = Runtime::new(runtime_config(s, condition, sink.clone()));
    let mut seed_rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed ^ 0x5EED);
    let learners: Vec<_> = s
        .make_learners()
        .into_iter()
        .map(|l| TimedLearner::new(l, &ledger))
        .collect();
    let datasets = s.datasets.clone();
    let model_bytes = s.scale.model_wire_bytes;
    let t = Instant::now();
    // Construction time is what `ran` reports minus the runtime's share.
    let ran = match method {
        Method::LbChat => drive(
            LbChatAlgorithm::new(learners, datasets, lbchat_config(s), &mut seed_rng),
            &rt,
            s,
            &ledger,
        ),
        Method::ProxSkip => {
            let cfg = ProxSkipConfig {
                model_bytes,
                ..ProxSkipConfig::default()
            };
            drive(ProxSkip::new(learners, datasets, cfg), &rt, s, &ledger)
        }
        Method::RsuL => {
            let cfg = RsuLConfig {
                model_bytes,
                ..RsuLConfig::default()
            };
            drive(
                RsuL::new(learners, datasets, s.rsu_positions.clone(), cfg),
                &rt,
                s,
                &ledger,
            )
        }
        Method::DflDds => {
            let cfg = DflDdsConfig {
                model_bytes,
                ..DflDdsConfig::default()
            };
            drive(DflDds::new(learners, datasets, cfg), &rt, s, &ledger)
        }
        Method::Dp => {
            let cfg = DpConfig {
                model_bytes,
                ..DpConfig::default()
            };
            drive(Dp::new(learners, datasets, cfg), &rt, s, &ledger)
        }
        other => Err(format!("{other:?} is in no workload")),
    };
    let train_s = t.elapsed().as_secs_f64();
    let (output, runtime_s, eval_s) = match ran {
        Err(e) => (Err(e), 0.0, 0.0),
        Ok((metrics, model, runtime_s)) => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(s.scale.seed ^ 0xABCD);
            let mut representative = DrivingLearner::new(&s.spec, s.scale.lr, &mut rng);
            Learner::set_params(&mut representative, model);
            let cfg = eval_config(s);
            let eval_sink = sink.scoped("eval");
            let t = Instant::now();
            let rates = exec::par_map_traced(obs, "eval-task", &Task::ALL, |_, &task| {
                success_rate_obs(&representative, task, &cfg, &eval_sink).percent()
            });
            let eval_s = t.elapsed().as_secs_f64();
            (
                Ok(CellOutput::from_run(label, rates, &metrics)),
                runtime_s,
                eval_s,
            )
        }
    };
    CellTrace {
        output,
        totals: ledger.totals(),
        build_s: train_s - runtime_s,
        runtime_s,
        eval_s,
        start_s,
        end_s: t0.elapsed().as_secs_f64(),
    }
}

/// Length of the union of `[start, end]` intervals.
fn union_length(mut spans: Vec<(f64, f64)>) -> f64 {
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in spans {
        let from = a.max(reach);
        if b > from {
            total += b - from;
        }
        reach = reach.max(b);
    }
    total
}

/// The traced repetition of workload `w`: per-layer metrics, the cells'
/// outputs, and a repeat of the first cell with the sink disabled.
pub fn run(w: Workload, seed: u64) -> Json {
    let t = Instant::now();
    let (s, mut parts) = setup(w.scale(seed));
    parts.total_s = t.elapsed().as_secs_f64();

    let obs = ObsSink::recording();
    let cells = w.cells();
    let t0 = Instant::now();
    let traces: Vec<CellTrace> = if w.fans_out() {
        exec::par_map_traced(&obs, "cell", &cells, |_, &(m, c)| cell(m, c, &s, &obs, t0))
    } else {
        cells
            .iter()
            .map(|&(m, c)| cell(m, c, &s, &obs, t0))
            .collect()
    };
    let run_s = t0.elapsed().as_secs_f64();

    // Observability cost: the first cell through the harness with a
    // recording sink, then with a disabled one.
    let (m, c) = cells[0];
    let recording = ObsSink::recording();
    let t = Instant::now();
    let with_obs = train_and_evaluate_obs(m, &s, c, &recording, 0);
    let with_obs_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let without_obs = train_and_evaluate_obs(m, &s, c, &ObsSink::disabled(), 0);
    let without_obs_s = t.elapsed().as_secs_f64();
    let first = traces[0].output.as_ref().ok();
    let repeat_matches = [with_obs, without_obs].into_iter().all(|r| {
        r.ok()
            .map(|(rates, out)| CellOutput::from_run(cell_label(m, c), rates, &out.metrics))
            .as_ref()
            == first
    });

    let mut tot = Totals::default();
    for tr in &traces {
        tot.add(&tr.totals);
    }
    let sum = |f: fn(&CellTrace) -> f64| traces.iter().map(f).sum::<f64>();
    let runtime_s = sum(|t| t.runtime_s);
    let cells_wall = sum(|t| t.end_s - t.start_s);
    let cell_parts = sum(|t| t.build_s + t.runtime_s + t.eval_s);
    let counters = obs.counters();
    let count = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    let loss_buckets: [(&str, &[Callback]); 5] = [
        ("refresh", &[Callback::LocalTraining]),
        ("chat", &[Callback::SessionStep]),
        ("close", &[Callback::SessionClose]),
        ("eval", &[Callback::EvalLoss]),
        (
            "other",
            &[
                Callback::Outside,
                Callback::SessionOpen,
                Callback::PairPriority,
                Callback::OnFrame,
            ],
        ),
    ];
    let loss_calls = tot.loss_calls(&Callback::ALL);
    let loss_s = tot.loss_s(&Callback::ALL);
    let coverage = [
        (
            "setup",
            (parts.world_s + parts.collect_s + parts.trace_s) / parts.total_s,
        ),
        // Self time is the remainder, so this part is never below 1: it
        // checks only the upper bound, which a double-counting callback
        // timer would cross.
        ("runtime", runtime_s.max(tot.all_callbacks_s()) / runtime_s),
        (
            "cells",
            union_length(traces.iter().map(|t| (t.start_s, t.end_s)).collect()) / run_s,
        ),
        ("cell", cell_parts / cells_wall),
    ];

    let mut metrics: Vec<(String, f64)> = vec![
        ("setup.world_s".into(), parts.world_s),
        ("setup.collect_s".into(), parts.collect_s),
        ("setup.trace_s".into(), parts.trace_s),
        ("setup.total_s".into(), parts.total_s),
        ("setup.frames".into(), parts.frames as f64),
        ("runtime.run_s".into(), runtime_s),
        ("runtime.self_s".into(), runtime_s - tot.all_callbacks_s()),
        ("runtime.frames".into(), tot.calls(Callback::OnFrame) as f64),
        ("runtime.sessions".into(), count("sessions")),
        (
            "net.encounter.candidates".into(),
            count("net.encounter.candidates"),
        ),
        ("bytes_tx".into(), count("bytes_tx")),
        ("transfers_failed".into(), count("transfers_failed")),
        ("algo.build_s".into(), sum(|t| t.build_s)),
        (
            "algo.session_open_s".into(),
            tot.callback_s(Callback::SessionOpen),
        ),
        (
            "algo.session_step_s".into(),
            tot.callback_s(Callback::SessionStep),
        ),
        (
            "algo.session_step_self_s".into(),
            tot.callback_self_s(Callback::SessionStep),
        ),
        (
            "algo.session_steps".into(),
            tot.calls(Callback::SessionStep) as f64,
        ),
        (
            "algo.session_step_share".into(),
            tot.callback_s(Callback::SessionStep) / cells_wall,
        ),
        (
            "algo.session_close_s".into(),
            tot.callback_s(Callback::SessionClose),
        ),
        (
            "algo.session_close_self_s".into(),
            tot.callback_self_s(Callback::SessionClose),
        ),
        (
            "algo.session_closes".into(),
            tot.calls(Callback::SessionClose) as f64,
        ),
        (
            "algo.pair_priority_s".into(),
            tot.callback_s(Callback::PairPriority),
        ),
        (
            "algo.local_training_s".into(),
            tot.callback_s(Callback::LocalTraining),
        ),
        (
            "algo.local_training_self_s".into(),
            tot.callback_self_s(Callback::LocalTraining),
        ),
        ("algo.on_frame_s".into(), tot.callback_s(Callback::OnFrame)),
        (
            "algo.eval_loss_s".into(),
            tot.callback_s(Callback::EvalLoss),
        ),
        ("learner.train_s".into(), secs(tot.train_ns)),
        ("learner.train_steps".into(), tot.train_steps as f64),
        ("learner.train_samples".into(), tot.train_samples as f64),
        (
            "learner.train_ns_per_sample".into(),
            tot.train_ns as f64 / tot.train_samples.max(1) as f64,
        ),
        ("learner.loss_s".into(), loss_s),
        ("learner.loss_calls".into(), loss_calls as f64),
        (
            "learner.loss_ns_per_call".into(),
            loss_s * 1e9 / loss_calls.max(1) as f64,
        ),
    ];
    for (bucket, cbs) in loss_buckets {
        metrics.push((
            format!("learner.loss_calls.{bucket}"),
            tot.loss_calls(cbs) as f64,
        ));
        metrics.push((format!("learner.loss_s.{bucket}"), tot.loss_s(cbs)));
    }
    metrics.extend([
        ("eval.closed_loop_s".into(), sum(|t| t.eval_s)),
        ("eval.trials".into(), count("trials")),
        ("exec.jobs".into(), w.jobs() as f64),
        (
            "exec.cell_busy_ratio".into(),
            cells_wall / (w.jobs() as f64 * run_s),
        ),
        ("obs.overhead_s".into(), with_obs_s - without_obs_s),
        ("trace.run_s".into(), run_s),
    ]);
    for (name, v) in coverage {
        metrics.push((format!("trace.coverage.{name}"), v));
    }
    let min_coverage = coverage.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
    metrics.push(("trace.coverage".into(), min_coverage));

    let outputs: Vec<Option<CellOutput>> = traces.iter().map(|t| t.output.clone().ok()).collect();
    let errors: Vec<Json> = traces
        .iter()
        .filter_map(|t| t.output.as_ref().err())
        .map(|e| e.as_str().into())
        .collect();
    Json::Obj(vec![
        ("workload".into(), w.name().into()),
        ("seed".into(), seed.into()),
        ("errors".into(), Json::Arr(errors)),
        ("outputs".into(), outputs_json(&outputs, &obs)),
        ("repeat_matches".into(), repeat_matches.into()),
        (
            "coverage".into(),
            Json::Obj(
                coverage
                    .iter()
                    .map(|&(k, v)| (k.to_string(), v.into()))
                    .collect(),
            ),
        ),
        (
            "metrics".into(),
            Json::Obj(metrics.into_iter().map(|(k, v)| (k, v.into())).collect()),
        ),
    ])
}
