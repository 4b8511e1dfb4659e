//! The `lpr` subcommands.

use crate::{CliError, Options};
use std::io::Write;

pub mod classify {
    //! `lpr classify` — run the full LPR pipeline and print the
    //! per-IOTP classification.

    use super::*;
    use crate::RunStatus;
    use lpr_core::metrics::IotpMetrics;

    /// Executes the subcommand.
    pub fn run(o: &Options, w: &mut dyn Write) -> Result<RunStatus, CliError> {
        let recorder = crate::recorder_for(o, "lpr classify");
        let run_span = crate::open_run_span(recorder.as_ref(), "classify");
        let artifacts = crate::run_pipeline_recorded(o, recorder.as_ref())?;
        let out = &artifacts.output;

        for (iotp, cls) in &out.iotps {
            let m = IotpMetrics::of(iotp);
            writeln!(
                w,
                "{}\t<{} ; {}>\t{}\twidth={} length={} symmetry={}",
                iotp.key.asn,
                iotp.key.ingress,
                iotp.key.egress,
                cls.class,
                m.width,
                m.length,
                m.symmetry,
            )?;
        }

        let c = out.class_counts();
        writeln!(
            w,
            "\ntotal {} IOTPs: {} Mono-LSP | {} Multi-FEC | {} Mono-FEC ({} parallel links, {} routers disjoint) | {} unclassified",
            c.total(),
            c.mono_lsp,
            c.multi_fec,
            c.mono_fec(),
            c.mono_fec_parallel,
            c.mono_fec_disjoint,
            c.unclassified,
        )?;
        if !out.dynamic_ases.is_empty() {
            let names: Vec<String> =
                out.dynamic_ases.iter().map(|a| a.to_string()).collect();
            writeln!(w, "dynamic ASes (labels churn between snapshots): {}", names.join(" "))?;
        }

        if o.per_as {
            writeln!(w, "\nper-AS classification:")?;
            for asn in out.ases() {
                let c = out.class_counts_for(asn);
                let vendors = lpr_core::fingerprint::infer_vendors(
                    out.iotps.iter().filter(|(i, _)| i.key.asn == asn).map(|(i, _)| i),
                );
                let vendor = vendors
                    .get(&asn)
                    .map(|(_, v)| format!("{v:?}"))
                    .unwrap_or_else(|| "n/a".into());
                writeln!(
                    w,
                    "  {asn}: {} IOTPs [mono_lsp={} multi_fec={} mono_fec={} unclassified={}] platform: {vendor}",
                    c.total(),
                    c.mono_lsp,
                    c.multi_fec,
                    c.mono_fec(),
                    c.unclassified,
                )?;
            }
        }

        if o.router_level {
            run_router_level(out, w)?;
        }

        if o.trees {
            write_trees(&artifacts.trees, w)?;
        }
        crate::write_degradation_summary(&artifacts.load, &out.degraded, w)?;
        drop(run_span);
        crate::emit_telemetry(o, recorder)?;
        Ok(artifacts.status())
    }

    fn run_router_level(
        out: &lpr_core::pipeline::PipelineOutput,
        w: &mut dyn Write,
    ) -> Result<(), CliError> {
        use lpr_core::aliasres::{infer_aliases, merge_router_level};
        let iotps: Vec<_> = out.iotps.iter().map(|(i, _)| i.clone()).collect();
        let aliases = infer_aliases(iotps.iter());
        let sets = aliases.sets();
        writeln!(w, "
label-inferred alias sets ({}):", sets.len())?;
        for set in &sets {
            let addrs: Vec<String> = set.iter().map(|a| a.to_string()).collect();
            writeln!(w, "  {{{}}}", addrs.join(", "))?;
        }
        let merged = merge_router_level(&iotps, &aliases);
        writeln!(
            w,
            "router-level IOTPs: {} (from {} address-level IOTPs)",
            merged.len(),
            iotps.len(),
        )?;
        for (iotp, absorbed) in merged.iter().filter(|(_, n)| *n > 1) {
            let c = lpr_core::classify::classify_iotp(iotp);
            writeln!(
                w,
                "  {} <{} ; {}>  absorbed {}  {}",
                iotp.key.asn, iotp.key.ingress, iotp.key.egress, absorbed, c.class,
            )?;
        }
        Ok(())
    }

    fn write_trees(trees: &[lpr_core::tree::FecTree], w: &mut dyn Write) -> Result<(), CliError> {
        writeln!(w, "\negress-rooted LSP-trees ({}):", trees.len())?;
        for tree in trees {
            writeln!(
                w,
                "  {} egress {}  ingresses={} branches={}  {:?}",
                tree.asn,
                tree.egress,
                tree.ingresses.len(),
                tree.branches.width(),
                lpr_core::tree::classify_tree(tree),
            )?;
        }
        Ok(())
    }
}

pub mod stats {
    //! `lpr stats` — filter-survival accounting (the Table 1 view).

    use super::*;
    use crate::RunStatus;
    use lpr_core::prelude::*;

    /// Executes the subcommand.
    pub fn run(o: &Options, w: &mut dyn Write) -> Result<RunStatus, CliError> {
        let recorder = crate::recorder_for(o, "lpr stats");
        let run_span = crate::open_run_span(recorder.as_ref(), "stats");
        let artifacts = crate::run_pipeline_recorded(o, recorder.as_ref())?;
        let out = &artifacts.output;
        writeln!(
            w,
            "traces: {} ({} crossing explicit MPLS tunnels)",
            artifacts.trace_count, artifacts.load.decode.mpls_traces,
        )?;
        writeln!(w, "extracted LSPs: {}", out.report.input)?;
        for stage in FilterStage::ALL {
            writeln!(
                w,
                "  after {:<18} {:>8}   ({:.3})",
                stage.name(),
                out.report.remaining.get(&stage).copied().unwrap_or(0),
                out.report.proportion_after(stage),
            )?;
        }
        writeln!(w, "classified IOTPs: {}", out.iotps.len())?;
        crate::write_degradation_summary(&artifacts.load, &out.degraded, w)?;
        drop(run_span);
        crate::emit_telemetry(o, recorder)?;
        Ok(artifacts.status())
    }
}

pub mod tunnels {
    //! `lpr tunnels` — dump every explicit tunnel found in the input.

    use super::*;
    use crate::{LoadReport, RunStatus};
    use lpr_core::tunnel::extract_tunnels;

    /// Executes the subcommand. The inputs go through the same corpus
    /// and batch verdict as `classify`.
    pub fn run(o: &Options, w: &mut dyn Write) -> Result<RunStatus, CliError> {
        if o.inputs.is_empty() {
            return Err(CliError("no input warts files".into()));
        }
        let corpus = crate::open_corpus(&o.inputs, None)?;
        let (traces, convert_failures) = lpr_corpus::ingest::load_traces(&corpus);
        let mut load = LoadReport::default();
        let report = lpr_corpus::DecodeReport { convert_failures, ..corpus.decode_report() };
        load.admit(o.keep_going, &corpus, report)?;
        let mut total = 0usize;
        for trace in &traces {
            for t in extract_tunnels(trace) {
                total += 1;
                let status = match t.incomplete {
                    None => "complete".to_string(),
                    Some(e) => format!("incomplete ({e})"),
                };
                let lsrs: Vec<String> =
                    t.lsrs.iter().map(|(a, s)| format!("{a}{s:?}")).collect();
                writeln!(
                    w,
                    "{} -> {}  ingress={} egress={}  [{}]  {}",
                    trace.src,
                    trace.dst,
                    t.ingress.map(|a| a.to_string()).unwrap_or_else(|| "?".into()),
                    t.egress.map(|a| a.to_string()).unwrap_or_else(|| "?".into()),
                    lsrs.join(" "),
                    status,
                )?;
            }
        }
        writeln!(w, "\n{total} explicit tunnels in {} traces", traces.len())?;
        let quarantined = lpr_core::quarantine::DegradedReport::default();
        crate::write_degradation_summary(&load, &quarantined, w)?;
        Ok(if load.is_clean() { RunStatus::Clean } else { RunStatus::Degraded })
    }
}

pub mod dump {
    //! `lpr dump` — scamper-style text rendering of warts records.

    use super::*;
    use warts::Record;

    /// Executes the subcommand.
    pub fn run(o: &Options, w: &mut dyn Write) -> Result<(), CliError> {
        if o.inputs.is_empty() {
            return Err(CliError("no input warts files".into()));
        }
        for path in &o.inputs {
            for rec in warts::read_path(path)
                .map_err(|e| CliError(format!("{path}: {e}")))?
            {
                match rec {
                    Record::Trace(t) => write!(w, "{}", warts::trace_to_text(&t))?,
                    Record::Ping(p) => write!(w, "{}", warts::ping_to_text(&p))?,
                    Record::List(l) => writeln!(w, "list {} ({})", l.list_id, l.name)?,
                    Record::CycleStart(c) => {
                        writeln!(w, "cycle {} start {}", c.cycle_id, c.start)?
                    }
                    Record::CycleStop(c) => writeln!(w, "cycle stop {}", c.stop)?,
                    Record::Unsupported { record_type, body } => {
                        writeln!(w, "unsupported record type {record_type:#04x} ({} bytes)", body.len())?
                    }
                }
            }
        }
        Ok(())
    }
}

pub mod info {
    //! `lpr info` — record inventory of warts files.

    use super::*;
    use warts::Record;

    /// Executes the subcommand.
    pub fn run(o: &Options, w: &mut dyn Write) -> Result<(), CliError> {
        if o.inputs.is_empty() {
            return Err(CliError("no input warts files".into()));
        }
        for path in &o.inputs {
            let bytes =
                std::fs::read(path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let mut lists = 0usize;
            let mut cycles = 0usize;
            let mut traces = 0usize;
            let mut pings = 0usize;
            let mut hops = 0usize;
            let mut mpls_hops = 0usize;
            let mut unsupported = 0usize;
            let mut reader = warts::WartsReader::new(&bytes);
            while let Some(rec) = reader.next_record().map_err(|e| CliError(format!("{path}: {e}")))? {
                match rec {
                    Record::List(_) => lists += 1,
                    Record::CycleStart(_) | Record::CycleStop(_) => cycles += 1,
                    Record::Trace(t) => {
                        traces += 1;
                        hops += t.hops.len();
                        mpls_hops +=
                            t.hops.iter().filter(|h| !h.icmp_exts.is_empty()).count();
                    }
                    Record::Ping(_) => pings += 1,
                    Record::Unsupported { .. } => unsupported += 1,
                }
            }
            writeln!(
                w,
                "{path}: {} bytes, {lists} list(s), {cycles} cycle record(s), {traces} trace(s), {pings} ping(s), {hops} hop(s) ({mpls_hops} with MPLS extensions), {unsupported} unsupported record(s)",
                bytes.len(),
            )?;
        }
        Ok(())
    }
}

pub mod serve {
    //! `lpr serve` — the continuous-measurement daemon: watch a spool
    //! directory for warts drops, ingest them into a windowed pipeline
    //! state, and serve snapshots/reports/metrics over HTTP.

    use super::*;
    use lpr_serve::{Server, ServeConfig};
    use std::path::PathBuf;
    use std::time::Duration;

    /// Parses the subcommand's own flags into a [`ServeConfig`].
    /// Returns the config plus whether `--once` was given (run a
    /// bounded number of ticks and exit — for smoke tests).
    pub fn parse(args: &[String]) -> Result<(ServeConfig, Option<u64>), CliError> {
        let mut spool = None;
        let mut rib = None;
        let mut cfg_overrides: Vec<(String, String)> = Vec::new();
        let mut once = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut take = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError(format!("{flag} wants a value")))
            };
            match a.as_str() {
                "--spool" => spool = Some(take("--spool")?),
                "--rib" => rib = Some(take("--rib")?),
                "--addr" | "--window" | "--threads" | "--tick-ms" | "--ingest-timeout-ms"
                | "--retries" | "--backoff-ms" | "--backoff-cap-ms" | "--growing-grace" => {
                    let v = take(a)?;
                    cfg_overrides.push((a.clone(), v));
                }
                "--once" => {
                    let v = take("--once")?;
                    once = Some(v.parse().map_err(|_| {
                        CliError(format!("--once wants a tick count, got `{v}`"))
                    })?);
                }
                other => return Err(CliError(format!("unknown serve flag {other}"))),
            }
        }
        let spool = spool.ok_or(CliError("--spool <dir> required".into()))?;
        let rib = rib.ok_or(CliError("--rib <rib.txt> required".into()))?;
        let mut cfg = ServeConfig::new(PathBuf::from(spool), PathBuf::from(rib));
        for (flag, v) in cfg_overrides {
            let num = || {
                v.parse::<u64>()
                    .map_err(|_| CliError(format!("{flag} wants a number, got `{v}`")))
            };
            match flag.as_str() {
                "--addr" => cfg.addr = v.clone(),
                "--window" => cfg.window = num()? as usize,
                "--threads" => cfg.threads = num()? as usize,
                "--tick-ms" => cfg.tick = Duration::from_millis(num()?),
                "--ingest-timeout-ms" => cfg.ingest_timeout = Duration::from_millis(num()?),
                "--retries" => cfg.retries = num()? as u32,
                "--backoff-ms" => cfg.backoff_base = Duration::from_millis(num()?),
                "--backoff-cap-ms" => cfg.backoff_cap = Duration::from_millis(num()?),
                "--growing-grace" => cfg.growing_grace = num()? as u32,
                _ => unreachable!("flag list is closed"),
            }
        }
        if cfg.window == 0 {
            return Err(CliError("--window must be at least 1".into()));
        }
        Ok((cfg, once))
    }

    /// Executes the subcommand: starts the daemon and blocks until
    /// SIGTERM/SIGINT (or, with `--once N`, until N reconcile ticks
    /// have completed). The returned code is the process exit code.
    pub fn run(args: &[String], w: &mut dyn Write) -> Result<i32, CliError> {
        let (cfg, once) = parse(args)?;
        let spool = cfg.spool.display().to_string();
        let handle = Server::start(cfg).map_err(|e| CliError(format!("serve: {e}")))?;
        writeln!(w, "lpr serve: listening on http://{} (spool {spool})", handle.addr())?;
        w.flush().ok();
        match once {
            Some(ticks) => {
                while handle.ticks() < ticks {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                handle.stop();
                Ok(0)
            }
            None => Ok(handle.run_until_signal()),
        }
    }
}

pub mod demo {
    //! `lpr demo` — generate a sample warts file + RIB with the
    //! simulator, so the tool is explorable without CAIDA data.

    use super::*;
    use lpr_core::lsp::Asn;
    use netsim::{
        AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
        TopologyParams, Vendor, VisibilityMix,
    };
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    /// Builds the demo campaign with all tunnels explicit and writes
    /// `(warts bytes, rib text)`.
    pub fn write_demo_files() -> (Vec<u8>, String) {
        write_demo_files_with(None)
    }

    /// Builds the demo campaign and writes `(warts bytes, rib text)`,
    /// hiding part of the MPLS deployment when a tunnel-visibility mix
    /// is given (`lpr demo --tunnel-visibility …`).
    pub fn write_demo_files_with(visibility: Option<VisibilityMix>) -> (Vec<u8>, String) {
        let specs = vec![
            AsSpec::transit(
                65000,
                "demo-isp",
                Vendor::Juniper,
                TopologyParams {
                    core_routers: 6,
                    border_routers: 3,
                    ecmp_diamonds: 1,
                    parallel_bundles: 1,
                    ..TopologyParams::default()
                },
            ),
            AsSpec::stub(64600, "monitors", 0, 2),
            AsSpec::stub(64700, "cust-a", 3, 0),
            AsSpec::stub(64701, "cust-b", 3, 0),
        ];
        let peerings = vec![
            Peering::new(Asn(64600), Asn(65000)).at_b(0),
            Peering::new(Asn(65000), Asn(64700)).at_a(1),
            Peering::new(Asn(65000), Asn(64701)).at_a(1),
        ];
        let topo = Topology::build_with_peerings(&specs, &peerings);
        let rib_text = ip2as::to_rib_string(&topo.rib());
        let mut configs = BTreeMap::new();
        let mut cfg = MplsConfig::with_te(0.5, 2, TePathMode::SamePath);
        if let Some(mix) = visibility {
            cfg.visibility = mix;
        }
        configs.insert(Asn(65000), cfg);
        let net = Internet::new(topo, &configs);
        let prober = Prober::new(&net, ProbeOptions::default());
        let vps: Vec<Ipv4Addr> =
            net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(1);
        let traces = prober.campaign(&vps, &dsts, 1, None).traces;

        let mut writer = warts::WartsWriter::new();
        let list = writer.list(1, "demo");
        let cycle = writer.cycle_start(list, 1, 0);
        for t in &traces {
            writer.trace(&warts::trace_to_record(t, list, cycle)).expect("encode");
        }
        writer.cycle_stop(cycle, 1);
        (writer.into_bytes(), rib_text)
    }

    /// Executes the subcommand.
    pub fn run(args: &[String], w: &mut dyn Write) -> Result<(), CliError> {
        let mut out_path = None;
        let mut rib_path = None;
        let mut visibility = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--out" => out_path = it.next().cloned(),
                "--rib-out" => rib_path = it.next().cloned(),
                "--tunnel-visibility" => {
                    let spec = it.next().ok_or(CliError(
                        "--tunnel-visibility wants \
                         explicit:F,implicit:F,invisible:F,opaque:F"
                            .into(),
                    ))?;
                    visibility = Some(VisibilityMix::parse(spec).ok_or_else(|| {
                        CliError(format!("--tunnel-visibility: cannot parse `{spec}`"))
                    })?);
                }
                other => return Err(CliError(format!("unknown demo flag {other}"))),
            }
        }
        let out_path = out_path.ok_or(CliError("--out <file> required".into()))?;
        let rib_path = rib_path.ok_or(CliError("--rib-out <file> required".into()))?;
        let (bytes, rib) = write_demo_files_with(visibility);
        std::fs::write(&out_path, &bytes)?;
        std::fs::write(&rib_path, rib)?;
        writeln!(w, "wrote {out_path} ({} bytes) and {rib_path}", bytes.len())?;
        writeln!(w, "try: lpr classify --rib {rib_path} {out_path} --per-as --trees")?;
        Ok(())
    }
}
