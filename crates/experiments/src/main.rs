//! The `experiments` binary: regenerate any table or figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments [<command>] [--trace-out trace.json]
//!             [--trace-level debug|info|warn|error]
//!
//! commands:
//!   fig5      global MPLS deployment over 60 cycles (Fig. 5a/5b)
//!   table1    filter survival proportions (Table 1)
//!   fig6      persistence-window sweep (Fig. 6a/6b)
//!   fig789    IOTP length/width/symmetry (Figs. 7, 8a, 8b, 9)
//!   peras     per-AS classification series (Figs. 10-15, Fig. 13)
//!   table2    per-AS address statistics (Table 2)
//!   fig16     Level3 April 2012 daily roll-out (Fig. 16)
//!   fig17     label re-optimisation sawtooth (Fig. 17)
//!   ablations design-choice ablations (filters, §5 rescue)
//!   validation §5 Paris-MDA ground-truth check of the classes
//!   mda       MDA-Lite probes-per-destination vs diversity recall
//!   revelation TNT-style revelation A/B across visibility mixes
//!   summary   the abstract's three headline outcomes, recomputed
//!   all       everything above (the default)
//! ```
//!
//! The command line is read by `lpr_cli::flags`: an unknown command or
//! flag, or a bad `--trace-level`, exits 2 before any work starts.
//!
//! CSV outputs land under `results/` (override with
//! `LPR_RESULTS_DIR`).
//!
//! With `--trace-out` the run records a hierarchical span journal
//! (`run:experiments` → one `exp:<name>` span per regenerator, plus a
//! `longitudinal` span for the shared 60-cycle render) and writes it
//! as Chrome trace JSON — loadable in `chrome://tracing` or Perfetto,
//! or foldable into a flamegraph via `lpr_obs::export::folded_stacks`.

use experiments::{
    ablations, fig16, fig17, fig6, fig789, longitudinal, mda_recall, revelation, summary,
    validation,
};
use lpr_cli::flags::{self, Command, Positional, TraceOut};

/// Every regenerator, in the order `all` runs them.
const REGENERATORS: [&str; 13] = [
    "fig5",
    "table1",
    "peras",
    "table2",
    "fig6",
    "fig789",
    "fig16",
    "fig17",
    "ablations",
    "validation",
    "mda",
    "revelation",
    "summary",
];

/// The one command line `experiments` reads.
static EXPERIMENTS: Command = Command {
    name: "experiments",
    positional: Positional::One("command"),
    about: "Regenerates one table or figure of the paper's evaluation, or all of them.",
    flags: &[flags::TRACE_OUT, flags::TRACE_LEVEL],
};

/// Reports a command-line error; exit code 2.
fn usage_error(message: &str) -> ! {
    eprintln!("experiments: {message}\ncommands: {} all", REGENERATORS.join(" "));
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = if argv.is_empty() { vec!["all".to_string()] } else { argv };
    let args = flags::parse(&EXPERIMENTS, &argv).unwrap_or_else(|e| usage_error(&e));
    let cmd = args.positional().expect("experiments declares a positional");
    if cmd != "all" && !REGENERATORS.contains(&cmd) {
        usage_error(&format!("unknown command `{cmd}`"));
    }
    let cycles = ark_dataset::CYCLES;
    let trace = TraceOut::new(&args);
    let tracer = trace.tracer();
    let run_span = tracer.span("run:experiments");
    tracer.set_default_parent(run_span.context());

    let world = ark_dataset::standard_world();
    eprintln!(
        "[world] {} ASes, {} routers, {} interfaces; {} monitors, {} destinations",
        world.topo.ases.len(),
        world.topo.routers.len(),
        world.topo.ifaces.len(),
        world.all_vps().len(),
        world.all_destinations(1).len(),
    );
    for asn in world.featured {
        let as_id = world.topo.as_by_asn(asn).expect("featured").id;
        let s = netsim::stats::as_stats(&world.topo, as_id);
        eprintln!(
            "[world]   {asn}: {} routers ({} borders), {} intra links, diameter {}, {} ECMP pairs",
            s.routers, s.borders, s.intra_links, s.diameter, s.ecmp_pairs,
        );
    }

    let needs_longitudinal =
        matches!(cmd, "fig5" | "table1" | "peras" | "table2" | "summary" | "all");
    let rows = if needs_longitudinal {
        eprintln!("[longitudinal] rendering {cycles} cycles × 3 snapshots …");
        let span = tracer.span("longitudinal");
        let rows = longitudinal::run(&world, cycles);
        drop(span);
        tracer.event(
            run_span.context(),
            lpr_obs::Level::Info,
            "longitudinal-rendered",
            vec![
                ("cycles".to_string(), lpr_obs::FieldValue::U64(cycles as u64)),
                ("rows".to_string(), lpr_obs::FieldValue::U64(rows.len() as u64)),
            ],
        );
        rows
    } else {
        Vec::new()
    };

    // Each regenerator runs under an `exp:<name>` span, so the trace
    // shows where the wall time of an `all` run goes.
    let names = if cmd == "all" { &REGENERATORS[..] } else { std::slice::from_ref(&cmd) };
    for &name in names {
        let _span = tracer.span(format!("exp:{name}"));
        match name {
            "fig5" => longitudinal::emit_fig5(&rows),
            "table1" => longitudinal::emit_table1(&rows),
            "peras" => longitudinal::emit_per_as(&rows),
            "table2" => longitudinal::emit_table2(&rows, &world),
            "fig6" => fig6::emit(&fig6::run(&world, 29)),
            "fig789" => fig789::emit(&fig789::run(&world, 60)),
            "fig16" => fig16::emit(&fig16::run(&world)),
            "fig17" => fig17::emit(&fig17::run(&world)),
            "ablations" => ablations::emit(&ablations::run(&world, 45)),
            "validation" => validation::emit(&validation::run(&world, 45, 24)),
            "mda" => mda_recall::emit(&mda_recall::run(&world, 40)),
            "revelation" => revelation::emit(&revelation::run(&world, 40)),
            "summary" => summary::emit(&summary::run(&rows)),
            other => unreachable!("`{other}` is not a regenerator"),
        }
    }

    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    match trace.write() {
        Ok(Some(path)) => eprintln!("[trace] wrote {path}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
