//! `serve-open`: an open-loop request stream through `SolveService`.
//!
//! The benchmark owns its generator, so an edit to `serve::loadgen` cannot
//! move the numbers; it draws the same mix `loadgen` draws: sizes 32–1024,
//! 1–256 systems, f32/f64, three workload classes, layout preferences,
//! three deadline tiers, 20× bursts, and chaos fault storms. Arrivals are
//! timestamps on the simulated clock, so the generator is never late.
//!
//! Set-up warms an on-disk plan database. One op opens a fresh service on
//! that database and runs the nominal stream (about 1000 req/s) to
//! completion; the benchmark then checks the whole ledger. After the window
//! a fixed ladder of higher rates gives the saturation rate.

use std::path::Path;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use trisolve_gpu_sim::FaultPlan;
use trisolve_obs::arg;
use trisolve_serve::{
    class_tolerance, CostModel, Disposition, LayoutPref, Precision, ServiceConfig,
    ServiceRunReport, ServiceStats, SolveRequest, SolveService, StormWindow, TUNE_SYSTEMS,
};
use trisolve_tridiag::workloads::{WorkloadClass, WorkloadShape};

use crate::harness::{
    cpu_thomas_ms, end_to_end, mean, median, quantile, within, Clock, Ctx, Digest, Metric, Report,
    PREFIX_OPS,
};

/// Set-ups per run: each warms a cold plan DB (36 tuning runs), so fewer
/// than the cheap workloads.
const SETUPS: usize = 3;
/// Requests per campaign.
const REQUESTS: usize = 1_000;
/// Nominal offered rate, requests per simulated second.
const NOMINAL_RPS: f64 = 1_000.0;
/// The saturation ladder above the nominal rate, requests per simulated
/// second (the nominal campaign is the ladder's first rung).
const LADDER_RPS: [f64; 8] = [2e3, 4e3, 8e3, 16e3, 32e3, 64e3, 128e3, 256e3];
/// A rung saturates when its deadline-met share falls more than this
/// below the nominal rung's ...
const SAT_MARGIN: f64 = 0.05;
/// ... or when the service needs longer than this after the last arrival
/// to answer everything (the backlog grew; at the nominal rate the drain
/// is one request's latency, about 0.2 ms).
const SAT_DRAIN_S: f64 = 2e-3;

type Combo = (usize, Precision, WorkloadClass, LayoutPref);

/// The `serve::loadgen` combo table: many-small f32 dominant traffic with
/// a tail of stress classes, f64, forced layouts and one large size.
fn combo_table() -> Vec<(Combo, u32)> {
    use LayoutPref::{Auto, Coalesced, Interleaved, Strided};
    use Precision::{F32, F64};
    let dom = WorkloadClass::Dominant;
    let ill = WorkloadClass::IllConditioned { margin: 1e-3 };
    let nd = WorkloadClass::NonDominant { dominance: 0.9 };
    vec![
        ((64, F32, dom, Auto), 24),
        ((128, F32, dom, Auto), 18),
        ((256, F32, dom, Auto), 12),
        ((32, F32, dom, Strided), 5),
        ((64, F32, dom, Interleaved), 6),
        ((256, F32, dom, Coalesced), 4),
        ((512, F32, dom, Auto), 6),
        ((1024, F32, dom, Auto), 2),
        ((128, F32, ill, Auto), 8),
        ((128, F32, nd, Auto), 4),
        ((64, F64, dom, Auto), 8),
        ((256, F64, ill, Auto), 3),
    ]
}

const SYSTEMS_TABLE: [(usize, u32); 7] = [
    (1, 10),
    (4, 15),
    (8, 20),
    (16, 22),
    (32, 15),
    (64, 12),
    (256, 6),
];

#[derive(Clone, Copy)]
enum Tier {
    Generous,
    Moderate,
    Tight,
}

const TIER_TABLE: [(Tier, u32); 3] = [
    (Tier::Generous, 70),
    (Tier::Moderate, 20),
    (Tier::Tight, 10),
];

/// The campaign's request kinds. `serve::loadgen` draws combo, system
/// count and deadline tier independently from the three weight tables;
/// here every (combo, systems, tier) cell gets its share of `REQUESTS` by
/// largest remainder instead. Every seed then runs the same multiset of
/// kinds, that is the same work, and the seed moves only their order, the
/// arrival jitter, the system values and the faults.
fn composition() -> Vec<(Combo, usize, Tier)> {
    let mut cells = Vec::new();
    for (combo, wc) in combo_table() {
        for &(m, wm) in &SYSTEMS_TABLE {
            for &(tier, wt) in &TIER_TABLE {
                cells.push(((combo, m, tier), f64::from(wc * wm * wt)));
            }
        }
    }
    let total: f64 = cells.iter().map(|(_, w)| w).sum();
    let exact: Vec<f64> = cells
        .iter()
        .map(|(_, w)| REQUESTS as f64 * w / total)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..cells.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let rem = |k: usize| exact[k] - exact[k].floor();
        rem(b).total_cmp(&rem(a)).then(a.cmp(&b))
    });
    let short = REQUESTS - counts.iter().sum::<usize>();
    for &k in &by_remainder[..short] {
        counts[k] += 1;
    }
    cells
        .iter()
        .zip(counts)
        .flat_map(|((kind, _), n)| std::iter::repeat_n(*kind, n))
        .collect()
}

/// A seeded campaign at `rps`: requests in arrival order, the chaos-mode
/// service configuration, and the combo list to warm.
fn campaign(seed: u64, rps: f64, db: &Path) -> (Vec<SolveRequest>, ServiceConfig, Vec<Combo>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut kinds = composition();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }
    let cost = CostModel::default();
    let base_gap_s = 1.0 / rps;
    let mut t = 0.0f64;
    let mut burst_left = 0usize;
    let mut requests = Vec::with_capacity(REQUESTS);
    for (i, &((n, precision, class, layout), m, tier)) in kinds.iter().enumerate() {
        // Overload bursts: every 500 requests, 40 arrivals at 20× rate.
        if burst_left == 0 && i > 0 && i % 500 == 0 {
            burst_left = 40;
        }
        let gap = if burst_left > 0 {
            burst_left -= 1;
            base_gap_s * 0.05
        } else {
            base_gap_s * rng.gen_range(0.3..1.7)
        };
        t += gap;
        let solve_bound = cost.solve_bound_s(m * n);
        let tune_bound = cost.tuning_bound_s(TUNE_SYSTEMS * n.next_power_of_two());
        let budget_s = match tier {
            Tier::Generous => 25.0 * (solve_bound + tune_bound) + 1.0,
            Tier::Moderate => 2.0 * solve_bound + 0.02,
            // Below the admission bound by construction: always shed.
            Tier::Tight => 0.25 * solve_bound,
        };
        requests.push(SolveRequest {
            id: i as u64,
            shape: WorkloadShape::new(m, n),
            precision,
            layout,
            class,
            arrival_s: t,
            deadline_s: t + budget_s,
            seed: seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1),
        });
    }
    let mut config = ServiceConfig::paper_fleet();
    config.plan_db_path = Some(db.to_path_buf());
    let span_s = t.max(1.0);
    config.background_faults = Some(
        FaultPlan::seeded(seed ^ 0xbac6)
            .with_transfer_corruption(0.008)
            .with_bit_flips(0.008)
            .with_alloc_failures(0.004)
            .with_max_faults(3),
    );
    let storm_len_s = (span_s * 0.08).clamp(0.15, 2.0);
    config.storms = (0..config.devices.len())
        .map(|d| StormWindow {
            device: d,
            start_s: span_s * (0.15 + 0.25 * d as f64),
            end_s: span_s * (0.15 + 0.25 * d as f64) + storm_len_s,
            plan: FaultPlan::seeded(seed ^ (0x57a0 + d as u64))
                .with_launch_failures(0.95)
                .with_bit_flips(0.4),
        })
        .collect();
    let combos = combo_table().into_iter().map(|(c, _)| c).collect();
    (requests, config, combos)
}

/// The ledger check: one disposition per request, nothing lost, no
/// completion past its deadline, every residual within its class
/// tolerance. Returns the failures, one per failing request.
///
/// A `Completion` carries the service's residual but not the solution, so
/// this check cannot see a NaN solution itself: the service's residual
/// comes from the library's norms, which fold with `f64::max` and read an
/// all-NaN solution as 0. A NaN or infinite residual does fail here.
fn check_ledger(requests: &[SolveRequest], run: &ServiceRunReport) -> Vec<String> {
    let mut failures = Vec::new();
    if run.dispositions.len() != requests.len() {
        failures.push(format!(
            "{} dispositions for {} requests",
            run.dispositions.len(),
            requests.len()
        ));
    }
    for _ in 0..run.stats.lost() {
        failures.push("lost request".into());
    }
    for (r, d) in requests.iter().zip(&run.dispositions) {
        if let Disposition::Completed(c) = d {
            let tol = class_tolerance(r.class.label(), r.precision.elem_bytes());
            if c.at_s > r.deadline_s {
                failures.push(format!("request {} completed past its deadline", r.id));
            } else if !within(c.residual, tol) {
                failures.push(format!(
                    "request {} residual {:e} over {tol:e}",
                    r.id, c.residual
                ));
            }
        }
    }
    failures
}

/// Simulated-clock summary of one campaign.
struct CampaignSim {
    e2e_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    batch_sizes: Vec<f64>,
    deadline_met_frac: f64,
    drain_s: f64,
    stats: ServiceStats,
}

fn summarize(requests: &[SolveRequest], run: &ServiceRunReport) -> CampaignSim {
    let mut s = CampaignSim {
        e2e_ms: Vec::new(),
        queue_ms: Vec::new(),
        solve_ms: Vec::new(),
        batch_sizes: Vec::new(),
        deadline_met_frac: 0.0,
        drain_s: 0.0,
        stats: run.stats.clone(),
    };
    let mut met = 0usize;
    let mut last_answer = 0.0f64;
    for (r, d) in requests.iter().zip(&run.dispositions) {
        match d {
            Disposition::Completed(c) => {
                s.e2e_ms.push((c.at_s - r.arrival_s) * 1e3);
                s.queue_ms.push(c.queue_s * 1e3);
                s.solve_ms.push(c.solve_s * 1e3);
                s.batch_sizes.push((c.batched_with + 1) as f64);
                met += usize::from(c.at_s <= r.deadline_s);
                last_answer = last_answer.max(c.at_s);
            }
            Disposition::Shed(x) => last_answer = last_answer.max(x.at_s),
        }
    }
    s.deadline_met_frac = met as f64 / requests.len() as f64;
    let last_arrival = requests.last().map_or(0.0, |r| r.arrival_s);
    s.drain_s = (last_answer - last_arrival).max(0.0);
    s
}

/// The service takes no tracer, so the benchmark draws each request's
/// simulated life from its disposition: a queue span and a solve span per
/// completion, an instant per shed.
fn trace_requests(ctx: &Ctx, requests: &[SolveRequest], run: &ServiceRunReport) {
    let t = &ctx.tracer;
    for (r, d) in requests.iter().zip(&run.dispositions) {
        let id = arg("request", r.id);
        match d {
            Disposition::Completed(c) => {
                let args = vec![
                    id,
                    arg("device", c.device.as_str()),
                    arg("batched_with", c.batched_with),
                    arg("recovered_by", c.recovered_by.as_str()),
                ];
                t.span(
                    "serve",
                    "queue",
                    r.arrival_s * 1e6,
                    c.queue_s * 1e6,
                    args.clone(),
                );
                t.span(
                    "serve",
                    "solve",
                    (c.at_s - c.solve_s) * 1e6,
                    c.solve_s * 1e6,
                    args,
                );
            }
            Disposition::Shed(x) => {
                t.instant(
                    "serve",
                    "shed",
                    x.at_s * 1e6,
                    vec![id, arg("reason", x.reason.label())],
                );
            }
        }
    }
}

fn digest_campaign(d: &mut Digest, run: &ServiceRunReport) {
    for disp in &run.dispositions {
        match disp {
            Disposition::Completed(c) => {
                d.str("completed");
                d.f64(c.at_s);
                d.f64(c.queue_s);
                d.f64(c.solve_s);
                d.f64(c.residual);
                d.str(&c.recovered_by);
                d.str(&c.device);
                d.u64(c.batched_with as u64);
            }
            Disposition::Shed(x) => {
                d.str(x.reason.label());
                d.f64(x.at_s);
                d.f64(x.retry_after_s);
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report {
        workload: "serve-open".into(),
        ..Report::default()
    };
    let spans = &ctx.spans;
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        report.check(false, || format!("create {}: {e}", out_dir.display()));
        return report;
    }
    let db = out_dir.join(format!("plandb-{}.json", std::process::id()));
    let seed = ctx.opts.seed;

    // Set-up: generate the stream and warm a cold plan database.
    let ((requests, config, warm_evals), setup) = ctx.setup(SETUPS, |_| {
        let _ = std::fs::remove_file(&db);
        let (requests, config, combos) = campaign(seed, NOMINAL_RPS, &db);
        let mut svc = SolveService::new(config.clone());
        let evals = spans.time("serve.warm_plan_db", || svc.warm_plan_db(&combos));
        (requests, config, evals)
    });
    let mut inputs = Digest::default();
    for r in &requests {
        inputs.u64(r.id);
        inputs.u64(r.shape.num_systems as u64);
        inputs.u64(r.shape.system_size as u64);
        inputs.str(r.precision.label());
        inputs.str(r.class.label());
        inputs.str(r.layout.label());
        inputs.f64(r.arrival_s);
        inputs.f64(r.deadline_s);
        inputs.u64(r.seed);
    }
    report.input_digest = inputs.hex();

    let mut sims: Vec<CampaignSim> = Vec::new();
    let mut sim_digest = Digest::default();
    let mut completed_eqs = 0usize;
    let mut first_completed: Vec<bool> = Vec::new();
    let window = ctx.window(|i, traced| {
        let mut svc = spans.time("serve.new", || SolveService::new(config.clone()));
        let run = spans.time("serve.run", || svc.run(&requests));
        if traced && i == 1 {
            trace_requests(ctx, &requests, &run);
        }
        let failures = check_ledger(&requests, &run);
        report.attempted += requests.len() as u64;
        report.failed += failures.len().min(requests.len()) as u64;
        report
            .failures
            .extend(failures.into_iter().map(|f| format!("op {i}: {f}")));
        completed_eqs += requests
            .iter()
            .zip(&run.dispositions)
            .filter(|(_, d)| d.is_completed())
            .map(|(r, _)| r.equations())
            .sum::<usize>();
        if i < PREFIX_OPS {
            digest_campaign(&mut sim_digest, &run);
            sims.push(summarize(&requests, &run));
        }
        if i == 0 {
            first_completed = run
                .dispositions
                .iter()
                .map(Disposition::is_completed)
                .collect();
        }
    });

    // CPU Thomas over the systems of the requests the nominal campaign
    // completed, regenerated from their seeds (generation not timed).
    let mut cpu_ms = 0.0;
    for (r, _) in requests
        .iter()
        .zip(&first_completed)
        .filter(|(_, &done)| done)
    {
        cpu_ms += match r.precision {
            Precision::F32 => r
                .class
                .generate::<f32>(r.shape, r.seed)
                .map_or(0.0, |b| cpu_thomas_ms(&b)),
            Precision::F64 => r
                .class
                .generate::<f64>(r.shape, r.seed)
                .map_or(0.0, |b| cpu_thomas_ms(&b)),
        };
    }

    // Saturation ladder (simulated clock; deterministic per seed). Each
    // rung: (rate, deadline-met share, drain, e2e p99, within limits).
    let nominal = &sims[0];
    let mut sat_rate = NOMINAL_RPS;
    let mut ladder = vec![(
        NOMINAL_RPS,
        nominal.deadline_met_frac,
        nominal.drain_s,
        quantile(&nominal.e2e_ms, 0.99),
        true,
    )];
    for rps in LADDER_RPS {
        let (reqs, cfg, _) = campaign(seed, rps, &db);
        let run = SolveService::new(cfg).run(&reqs);
        let s = summarize(&reqs, &run);
        let ok = s.deadline_met_frac >= nominal.deadline_met_frac - SAT_MARGIN
            && s.drain_s <= SAT_DRAIN_S;
        let p99 = quantile(&s.e2e_ms, 0.99);
        ladder.push((rps, s.deadline_met_frac, s.drain_s, p99, ok));
        sim_digest.f64(s.deadline_met_frac);
        sim_digest.f64(s.drain_s);
        sim_digest.f64(p99);
        if !ok {
            break;
        }
        sat_rate = rps;
    }
    let _ = std::fs::remove_file(&db);
    report.sim_digest = sim_digest.hex();
    report.solution_digest = {
        let mut d = Digest::default();
        for s in &sims {
            d.f64(s.stats.worst_residual);
        }
        d.hex()
    };

    let st = &nominal.stats;
    let sub = st.submitted as f64;
    let pct = |v: &[f64], q: f64| quantile(v, q);
    let n_done = nominal.e2e_ms.len();
    let mut detail = vec![
        Metric::new(
            "e2e_p50_ms",
            "ms",
            Clock::Sim,
            pct(&nominal.e2e_ms, 0.5),
            n_done,
        ),
        Metric::new(
            "e2e_p99_ms",
            "ms",
            Clock::Sim,
            pct(&nominal.e2e_ms, 0.99),
            n_done,
        ),
        Metric::new(
            "deadline_met_frac",
            "ratio",
            Clock::Sim,
            nominal.deadline_met_frac,
            st.submitted as usize,
        ),
        Metric::new("sat_rate_rps", "req/s", Clock::Sim, sat_rate, ladder.len()),
        Metric::new("generator_lateness_ms", "ms", Clock::Sim, 0.0, REQUESTS),
        Metric::new(
            "serve.queue_p50_ms",
            "ms",
            Clock::Sim,
            pct(&nominal.queue_ms, 0.5),
            n_done,
        ),
        Metric::new(
            "serve.queue_p99_ms",
            "ms",
            Clock::Sim,
            pct(&nominal.queue_ms, 0.99),
            n_done,
        ),
        Metric::new(
            "serve.solve_p50_ms",
            "ms",
            Clock::Sim,
            pct(&nominal.solve_ms, 0.5),
            n_done,
        ),
        Metric::new(
            "serve.solve_p99_ms",
            "ms",
            Clock::Sim,
            pct(&nominal.solve_ms, 0.99),
            n_done,
        ),
        Metric::new(
            "serve.batch_size_mean",
            "requests",
            Clock::Sim,
            mean(&nominal.batch_sizes),
            n_done,
        ),
        Metric::new(
            "serve.coalesced_frac",
            "ratio",
            Clock::Sim,
            nominal.batch_sizes.iter().filter(|&&b| b > 1.0).count() as f64 / n_done as f64,
            n_done,
        ),
        Metric::new(
            "serve.shed_frac.queue-full",
            "ratio",
            Clock::Sim,
            st.shed_queue_full as f64 / sub,
            st.submitted as usize,
        ),
        Metric::new(
            "serve.shed_frac.deadline",
            "ratio",
            Clock::Sim,
            st.shed_deadline as f64 / sub,
            st.submitted as usize,
        ),
        Metric::new(
            "serve.shed_frac.breaker",
            "ratio",
            Clock::Sim,
            st.shed_breaker as f64 / sub,
            st.submitted as usize,
        ),
        Metric::new(
            "serve.shed_frac.exhausted",
            "ratio",
            Clock::Sim,
            st.shed_exhausted as f64 / sub,
            st.submitted as usize,
        ),
        Metric::new(
            "serve.breaker_trips",
            "count",
            Clock::Sim,
            st.breaker_trips as f64,
            1,
        ),
        Metric::new(
            "serve.cpu_recoveries",
            "count",
            Clock::Sim,
            st.cpu_recoveries as f64,
            1,
        ),
        Metric::new(
            "serve.db_hit_frac",
            "ratio",
            Clock::Sim,
            st.db_hits as f64 / (st.db_hits + st.db_misses).max(1) as f64,
            (st.db_hits + st.db_misses) as usize,
        ),
        Metric::new(
            "serve.tuner_evals",
            "count",
            Clock::Sim,
            st.tuner_evals as f64,
            1,
        ),
        Metric::new(
            "serve.warm_evals",
            "count",
            Clock::Sim,
            warm_evals as f64,
            1,
        ),
        Metric::new("serve.makespan_s", "s", Clock::Sim, st.makespan_s, 1),
    ];
    for &(rps, dmf, drain, p99, ok) in &ladder {
        let unit = if ok { "ratio" } else { "ratio(sat)" };
        detail.extend([
            Metric::new(
                format!("ladder.{rps}.deadline_met_frac"),
                unit,
                Clock::Sim,
                dmf,
                REQUESTS,
            ),
            Metric::new(
                format!("ladder.{rps}.drain_ms"),
                "ms",
                Clock::Sim,
                drain * 1e3,
                REQUESTS,
            ),
            Metric::new(
                format!("ladder.{rps}.e2e_p99_ms"),
                "ms",
                Clock::Sim,
                p99,
                REQUESTS,
            ),
        ]);
    }

    report.end_to_end = end_to_end(setup, &window, completed_eqs as f64);
    let run_ms = ctx.spans.traced_ms(&window, "serve.run");
    let (warm_ms, n_warm) = spans.setup_ms("serve.warm_plan_db");
    if ctx.opts.trace {
        detail.extend([
            Metric::new("serve.warm_s", "s", Clock::Host, warm_ms / 1e3, n_warm),
            Metric::new(
                "serve.run_s",
                "s",
                Clock::Host,
                median(&run_ms) / 1e3,
                run_ms.len(),
            ),
        ]);
    }
    report.detail = detail;
    crate::layers::finish(ctx, &window, &run_ms, &[cpu_ms], &mut report);
    report
}
