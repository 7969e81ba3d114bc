//! Placement benchmark driver.
//!
//! Places generated designs through the public flow API
//! ([`FlowMachine::step`]) and, in traced mode, replays the GP kernels
//! (`DensityMapBuilder::build_movable_into`, `ElectroField::solve_into`,
//! `DensityOp::{backward,overflow}`, WA `forward_backward`,
//! `Dct2dPlan::*_with`) and the detailed-placement passes on snapshots
//! taken from the placement's own trajectory. Every timing is taken from
//! outside the program, around calls into public functions.
//!
//! Output is one JSON object per line on stdout (raw samples and spans);
//! `run.py` aggregates them into the benchmark's metrics.
//!
//! ```text
//! perfbench flow  <design> <seed> <seconds>   untraced placements
//! perfbench trace <design> <seed>             traced placements + replays
//! perfbench aux   <design> <seed> <dir>       write the design as Bookshelf
//! perfbench config <design> <seed>            print the GP overflow target
//! ```
//!
//! `<design>` is an ISPD 2005 preset name (`bigblue1`, `adaptec2`, ...)
//! scaled 1/64, or `medium` / `small` (the daemon's generator presets).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dp_autograd::{ExecCtx, Gradient, Operator};
use dp_dct::dct2d::Dct2dWork;
use dp_dct::Dct2dPlan;
use dp_density::electro::FieldSolution;
use dp_density::{BinGrid, DensityMapBuilder, DensityOp, ElectroField};
use dp_gen::{GeneratedDesign, GeneratorConfig};
use dp_gp::{GpConfig, WirelengthModel};
use dp_netlist::{hpwl, Netlist, Placement};
use dp_wirelength::WaWirelength;
use dreamplace_core::checkpoint::serialize;
use dreamplace_core::{CheckpointStage, FlowConfig, FlowMachine, FlowResult, FlowState, ToolMode};

/// Worker threads for every placement; the workloads are defined at 2.
const THREADS: usize = 2;
/// Suite scale divisor for the ISPD 2005 presets.
const SCALE: usize = 64;
/// Wall-clock budget per kernel and snapshot in the replay.
const REPLAY_SECONDS: f64 = 0.25;
/// Call bounds per kernel and snapshot in the replay.
const REPLAY_CALLS: (usize, usize) = (5, 400);
/// Set-ups timed per untraced run; the benchmark reports their median.
const SETUPS: usize = 9;
/// Traced runs repeat untraced/traced placement pairs for this long (at
/// least one pair), so small designs give a steadier overhead figure.
const OVERHEAD_SECONDS: f64 = 5.0;

type Design = GeneratedDesign<f64>;

fn generate(design: &str, seed: u64) -> Result<Design, String> {
    let config = match design {
        "small" => GeneratorConfig::new(format!("small-{seed}"), 200, 220).with_seed(seed),
        "medium" => GeneratorConfig::new(format!("medium-{seed}"), 800, 850).with_seed(seed),
        name => {
            let preset = dp_gen::ispd2005_suite()
                .into_iter()
                .find(|p| p.config.name == name)
                .ok_or_else(|| format!("unknown design {name:?}"))?;
            preset.scaled_down(SCALE).config.with_seed(seed)
        }
    };
    config.generate::<f64>().map_err(|e| e.to_string())
}

fn flow_config(design: &Design) -> FlowConfig<f64> {
    let mut config = FlowConfig::for_mode(ToolMode::DreamplaceGpuSim, &design.netlist);
    config.gp.threads = THREADS;
    config
}

// ---------------------------------------------------------------------------
// Process counters
// ---------------------------------------------------------------------------

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, in USER_HZ (100/s on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span recorder; spans are printed when the run ends.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<(String, u64, u64, usize, usize)>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (ids start at 1; 0 is "no parent").
    fn open(&mut self, name: &str, parent: usize, placement: usize) -> usize {
        if !self.enabled {
            return 0;
        }
        let t = self.now();
        self.spans.push((name.to_string(), t, t, parent, placement));
        self.spans.len()
    }

    fn close(&mut self, id: usize) {
        if id > 0 {
            let t = self.now();
            self.spans[id - 1].2 = t;
        }
    }

    /// Times `f` as a closed span; returns its result and seconds.
    fn time<R>(
        &mut self,
        name: &str,
        parent: usize,
        placement: usize,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, placement);
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.close(id);
        (r, secs)
    }

    fn print(&self) {
        for (i, (name, start, end, parent, placement)) in self.spans.iter().enumerate() {
            println!(
                "{{\"kind\":\"span\",\"id\":{},\"name\":\"{name}\",\"start\":{start},\
                 \"end\":{end},\"parent\":{parent},\"placement\":{placement}}}",
                i + 1
            );
        }
    }
}

// ---------------------------------------------------------------------------
// One placement
// ---------------------------------------------------------------------------

/// Snapshots a traced placement keeps for the replays.
#[derive(Default)]
struct Snapshots {
    /// Placement and WA gamma at GP iteration 0.
    gp_start: Option<(Placement<f64>, f64)>,
    /// Placement at the end of GP.
    gp_end: Option<Placement<f64>>,
    /// Legalized placement (input of detailed placement).
    legal: Option<Placement<f64>>,
    /// Seconds to capture and serialize a checkpoint at mid-GP, and its size.
    checkpoint: Option<(f64, usize)>,
}

struct PlaceSample {
    seed: u64,
    gen_s: f64,
    place_s: f64,
    cpu_s: f64,
    gp_s: f64,
    result: FlowResult<f64>,
}

/// Movable coordinates from a GP parameter vector (x block, then y block)
/// over the design's fixed positions.
fn unpack(design: &Design, params: &[f64]) -> Placement<f64> {
    let n = design.netlist.num_movable();
    let mut p = design.fixed_positions.clone();
    p.x[..n].copy_from_slice(&params[..n]);
    p.y[..n].copy_from_slice(&params[n..2 * n]);
    p
}

/// Generates the design and places it, stepping the flow machine from
/// outside. `mid_gp` (traced runs) is the iteration at which a checkpoint
/// is captured and serialized.
fn place(
    name: &str,
    seed: u64,
    tracer: &mut Tracer,
    placement_id: usize,
    mut snaps: Option<&mut Snapshots>,
    mid_gp: usize,
) -> Result<(Design, PlaceSample), String> {
    let t_gen = Instant::now();
    let design = generate(name, seed)?;
    let gen_s = t_gen.elapsed().as_secs_f64();

    let root = tracer.open("placement", 0, placement_id);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut machine = FlowMachine::new(flow_config(&design), &design);
    let mut gp_s = 0.0;
    loop {
        let state = machine.state();
        if let Some(s) = snaps.as_deref_mut() {
            match state {
                FlowState::Gp { iteration: 0 } => {
                    if let Some(CheckpointStage::Gp { engine, .. }) =
                        machine.capture().map(|c| c.stage)
                    {
                        s.gp_start = Some((unpack(&design, &engine.params), engine.gamma));
                    }
                }
                FlowState::Gp { iteration } if iteration == mid_gp => {
                    let (bytes, secs) = tracer.time("core.checkpoint", root, placement_id, || {
                        machine.capture().map(|data| serialize(&data).len())
                    });
                    s.checkpoint = bytes.map(|b| (secs, b));
                }
                FlowState::Lg => {
                    if let Some(CheckpointStage::Lg { gp_placement, .. }) =
                        machine.capture().map(|c| c.stage)
                    {
                        s.gp_end = Some(gp_placement);
                    }
                }
                FlowState::Dp { pass: 0 } => {
                    if let Some(CheckpointStage::Dp { placement, .. }) =
                        machine.capture().map(|c| c.stage)
                    {
                        s.legal = Some(placement);
                    }
                }
                _ => {}
            }
        }
        let label = match state {
            FlowState::Init => "step.init",
            FlowState::Sanitize => "step.sanitize",
            FlowState::Gp { .. } => "step.gp",
            FlowState::Lg => "step.lg",
            FlowState::Dp { .. } => "step.dp",
            FlowState::Finish => "step.finish",
            FlowState::Done | FlowState::Failed => break,
        };
        let (next, secs) = tracer.time(label, root, placement_id, || machine.step());
        next.map_err(|e| format!("{} failed at {state}: {e}", design.name))?;
        if let FlowState::Gp { .. } = state {
            gp_s += secs;
        }
    }
    let place_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    tracer.close(root);
    let result = machine
        .finish()
        .ok_or_else(|| format!("{} did not finish", design.name))?;
    Ok((
        design,
        PlaceSample {
            seed,
            gen_s,
            place_s,
            cpu_s,
            gp_s,
            result,
        },
    ))
}

fn print_placement(design: &Design, s: &PlaceSample, traced: bool) {
    let r = &s.result;
    let legal = dp_lg::check_legal(&design.netlist, &r.placement);
    let seed = s.seed;
    let recomputed = hpwl(&design.netlist, &r.placement);
    let cfg = flow_config(design);
    println!(
        "{{\"kind\":\"placement\",\"traced\":{traced},\"design\":\"{}\",\"seed\":{seed},\
         \"gen_s\":{},\"place_s\":{},\"place_cpu_s\":{},\"gp_s\":{},\
         \"gp_iterations\":{},\"converged\":{},\"overflow\":{:e},\
         \"target_overflow\":{:e},\"hpwl_gp\":{:e},\"hpwl_legal\":{:e},\"hpwl\":{:e},\
         \"hpwl_recomputed\":{:e},\"legal\":{},\"dp_moves\":{},\"fallback\":{}}}",
        design.name,
        s.gen_s,
        s.place_s,
        s.cpu_s,
        s.gp_s,
        r.gp.iterations,
        r.gp.converged,
        r.gp.final_overflow,
        cfg.gp.target_overflow,
        r.hpwl_gp,
        r.hpwl_legal,
        r.hpwl_final,
        recomputed,
        legal.is_legal(),
        r.dp.map_or(0, |d| d.moves),
        r.gp_fallback.is_some(),
    );
    let exec = &r.gp.exec;
    for (op, c) in &exec.ops {
        println!(
            "{{\"kind\":\"op\",\"traced\":{traced},\"name\":\"{op}\",\"calls\":{},\"nanos\":{}}}",
            c.calls, c.nanos
        );
    }
    println!(
        "{{\"kind\":\"exec\",\"traced\":{traced},\"pool_runs\":{},\"threads_spawned\":{}}}",
        exec.pool_runs, exec.threads_spawned
    );
}

// ---------------------------------------------------------------------------
// Kernel replays
// ---------------------------------------------------------------------------

/// Calls `f` repeatedly under spans named `name` until the replay budget
/// is spent.
fn repeat(tracer: &mut Tracer, name: &str, parent: usize, pid: usize, mut f: impl FnMut()) {
    let t = Instant::now();
    let mut calls = 0;
    while calls < REPLAY_CALLS.0
        || (calls < REPLAY_CALLS.1 && t.elapsed().as_secs_f64() < REPLAY_SECONDS)
    {
        tracer.time(name, parent, pid, &mut f);
        calls += 1;
    }
}

fn replay_gp(
    tracer: &mut Tracer,
    nl: &Netlist<f64>,
    cfg: &GpConfig<f64>,
    snap: &str,
    p: &Placement<f64>,
    gamma: f64,
    pid: usize,
) -> Result<(), String> {
    let parent = tracer.open(snap, 0, pid);
    let mut ctx = ExecCtx::<f64>::new(THREADS);
    let pool = Arc::clone(ctx.pool());
    let deterministic = cfg.deterministic.unwrap_or(cfg.threads > 1);
    let grid = BinGrid::new(nl.region(), cfg.bins.0, cfg.bins.1).map_err(|e| e.to_string())?;

    let mut builder = DensityMapBuilder::new(grid.clone(), cfg.density_strategy)
        .with_deterministic(deterministic);
    let mut movable = Vec::new();
    repeat(tracer, "density.scatter", parent, pid, || {
        builder.build_movable_into(nl, p, &pool, &mut movable)
    });
    let inv_bin = 1.0 / grid.bin_area();
    let rho: Vec<f64> = movable.iter().map(|m| m * inv_bin).collect();

    let mut field = ElectroField::new(&grid, cfg.dct_backend).map_err(|e| e.to_string())?;
    let mut sol = FieldSolution::empty();
    repeat(tracer, "density.solve", parent, pid, || {
        field.solve_into(&rho, &mut sol)
    });

    let mut op = DensityOp::with_backend(
        grid.clone(),
        cfg.density_strategy,
        cfg.target_density,
        cfg.dct_backend,
    )
    .map_err(|e| e.to_string())?
    .with_deterministic(deterministic);
    op.bake_fixed(nl, p);
    let mut grad = Gradient::zeros(p.len());
    std::hint::black_box(op.forward(nl, p, &mut ctx));
    repeat(tracer, "density.gather", parent, pid, || {
        op.backward(nl, p, &mut grad, &mut ctx)
    });
    repeat(tracer, "density.overflow", parent, pid, || {
        std::hint::black_box(op.overflow(nl, p, &mut ctx));
    });

    if let WirelengthModel::Wa(strategy) = cfg.wirelength {
        let mut wa = WaWirelength::new(strategy, gamma);
        repeat(tracer, "wirelength.wa_fb", parent, pid, || {
            std::hint::black_box(wa.forward_backward(nl, p, &mut grad, &mut ctx));
        });
    }

    let plan = Dct2dPlan::<f64>::new(cfg.bins.0, cfg.bins.1).map_err(|e| e.to_string())?;
    let mut work = Dct2dWork::new();
    let mut out = Vec::new();
    repeat(tracer, "dct.dct2", parent, pid, || {
        plan.dct2_with(&rho, &mut work, &mut out)
    });
    repeat(tracer, "dct.idct2", parent, pid, || {
        plan.idct2_with(&rho, &mut work, &mut out)
    });
    repeat(tracer, "dct.idct_idxst", parent, pid, || {
        plan.idct_idxst_with(&rho, &mut work, &mut out)
    });
    repeat(tracer, "dct.idxst_idct", parent, pid, || {
        plan.idxst_idct_with(&rho, &mut work, &mut out)
    });
    tracer.close(parent);
    Ok(())
}

/// One round of the detailed-placement operator cycle on copies of the
/// legalized placement, in the order `DetailedPlacer::run` applies them.
fn replay_dp(tracer: &mut Tracer, nl: &Netlist<f64>, legal: &Placement<f64>, pid: usize) {
    let dp = dp_dplace::DetailedPlacer::new();
    let parent = tracer.open("snapshot.legal", 0, pid);
    let mut p = legal.clone();
    tracer.time("dplace.swap", parent, pid, || {
        dp_dplace::global_swap(nl, &mut p)
    });
    tracer.time("dplace.reorder", parent, pid, || {
        dp_dplace::local_reorder(nl, &mut p, dp.window)
    });
    tracer.time("dplace.ism", parent, pid, || {
        dp_dplace::independent_set_matching(nl, &mut p, dp.ism_batch.clamp(2, 16))
    });
    tracer.close(parent);
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// Times design generation plus the flow's Init and Sanitize steps (which
/// build the GP engine, DCT plans and worker pool) on a fresh machine.
fn setup_once(design: &str, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let d = generate(design, seed)?;
    let mut machine = FlowMachine::new(flow_config(&d), &d);
    while matches!(machine.state(), FlowState::Init | FlowState::Sanitize) {
        machine
            .step()
            .map_err(|e| format!("{} setup failed: {e}", d.name))?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// `SETUPS` set-ups, then untraced placements of one design while the
/// next one is expected to end within `seconds` (at least two, so
/// repeats can be compared).
fn cmd_flow(design: &str, seed: u64, seconds: f64) -> Result<(), String> {
    for _ in 0..SETUPS {
        let secs = setup_once(design, seed)?;
        println!("{{\"kind\":\"setup\",\"setup_s\":{secs}}}");
    }
    let mut tracer = Tracer::new(false);
    let t = Instant::now();
    let mut n = 0;
    let mut last = 0.0;
    while n < 2 || t.elapsed().as_secs_f64() + last <= seconds {
        let (d, s) = place(design, seed, &mut tracer, n, None, usize::MAX)?;
        last = s.gen_s + s.place_s;
        print_placement(&d, &s, false);
        n += 1;
    }
    println!(
        "{{\"kind\":\"process\",\"wall_s\":{},\"peak_rss_mb\":{}}}",
        t.elapsed().as_secs_f64(),
        peak_rss_mb()
    );
    Ok(())
}

/// Pairs of one untraced and one traced placement of the design (for
/// `OVERHEAD_SECONDS`, at least one pair), then the kernel replays on the
/// last traced placement's GP-start, GP-end and legalized snapshots.
fn cmd_trace(design: &str, seed: u64) -> Result<(), String> {
    let t = Instant::now();
    let mut last = None;
    while last.is_none() || t.elapsed().as_secs_f64() < OVERHEAD_SECONDS {
        let (_, plain) = place(design, seed, &mut Tracer::new(false), 0, None, usize::MAX)?;
        let mut tracer = Tracer::new(true);
        let mut snaps = Snapshots::default();
        let mid = plain.result.gp.iterations / 2;
        let (d, s) = place(design, seed, &mut tracer, 1, Some(&mut snaps), mid)?;
        print_placement(&d, &plain, false);
        print_placement(&d, &s, true);
        last = Some((d, s, tracer, snaps));
    }
    let (d, s, mut tracer, snaps) = last.expect("the loop places at least one pair");
    if let Some((secs, bytes)) = snaps.checkpoint {
        println!("{{\"kind\":\"checkpoint\",\"capture_s\":{secs},\"bytes\":{bytes}}}");
    }
    let cfg = flow_config(&d).gp;
    let nl = &d.netlist;
    let end_gamma = s.result.gp.history.last().map_or(1.0, |h| h.gamma);
    if let Some((p, gamma)) = &snaps.gp_start {
        replay_gp(&mut tracer, nl, &cfg, "snapshot.gp_start", p, *gamma, 2)?;
    }
    if let Some(p) = &snaps.gp_end {
        replay_gp(&mut tracer, nl, &cfg, "snapshot.gp_end", p, end_gamma, 2)?;
    }
    if let Some(p) = &snaps.legal {
        replay_dp(&mut tracer, nl, p, 2);
    }
    tracer.print();
    Ok(())
}

fn cmd_aux(design: &str, seed: u64, dir: &str) -> Result<(), String> {
    let d = generate(design, seed)?;
    dp_bookshelf::write_design(Path::new(dir), &d.name, &d.netlist, &d.fixed_positions)
        .map_err(|e| format!("writing {dir}: {e}"))?;
    let path = Path::new(dir).join(format!("{}.aux", d.name));
    println!("{{\"kind\":\"aux\",\"path\":\"{}\"}}", path.display());
    Ok(())
}

/// The GP overflow target the flow applies to the design.
fn cmd_config(design: &str, seed: u64) -> Result<(), String> {
    let cfg = flow_config(&generate(design, seed)?).gp;
    println!(
        "{{\"kind\":\"config\",\"target_overflow\":{:e}}}",
        cfg.target_overflow
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str).unwrap_or("");
    let seed = || {
        arg(2)
            .parse::<u64>()
            .map_err(|_| format!("bad seed {:?}", arg(2)))
    };
    let outcome = match arg(0) {
        "flow" => seed().and_then(|s| {
            let secs = arg(3)
                .parse::<f64>()
                .map_err(|_| "bad seconds".to_string())?;
            cmd_flow(arg(1), s, secs)
        }),
        "trace" => seed().and_then(|s| cmd_trace(arg(1), s)),
        "aux" => seed().and_then(|s| cmd_aux(arg(1), s, arg(3))),
        "config" => seed().and_then(|s| cmd_config(arg(1), s)),
        other => Err(format!(
            "unknown command {other:?} (want flow|trace|aux|config)"
        )),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
