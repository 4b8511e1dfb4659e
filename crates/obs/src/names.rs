//! The registry's metric-name vocabulary, in one place.
//!
//! Every counter and histogram the workspace emits is declared here as
//! a constant and listed in [`ALL_COUNTERS`] / [`ALL_HISTOGRAMS`];
//! emission sites reference the constants, and integration tests in
//! the emitting crates assert their recorded telemetry stays inside
//! this vocabulary — so names cannot drift between code, README and
//! dashboards without a test noticing.

/// Trace records among the decoded warts records.
pub const WARTS_TRACES: &str = "warts.traces";
/// Malformed warts records skipped (sum of the `warts.skip.*` family).
pub const WARTS_MALFORMED_RECORDS: &str = "warts.malformed_records";
/// Bytes discarded while resynchronizing after a bad record.
pub const WARTS_RESYNC_BYTES: &str = "warts.resync_bytes";
/// Skip reason: magic mismatch.
pub const WARTS_SKIP_BAD_MAGIC: &str = "warts.skip.bad_magic";
/// Skip reason: header shorter than the fixed prefix.
pub const WARTS_SKIP_TRUNCATED_HEADER: &str = "warts.skip.truncated_header";
/// Skip reason: declared length beyond sanity.
pub const WARTS_SKIP_INSANE_LENGTH: &str = "warts.skip.insane_length";
/// Skip reason: body shorter than the header declared.
pub const WARTS_SKIP_TRUNCATED_BODY: &str = "warts.skip.truncated_body";
/// Skip reason: record truncated mid-field.
pub const WARTS_SKIP_TRUNCATED: &str = "warts.skip.truncated";
/// Skip reason: declared and consumed lengths disagree.
pub const WARTS_SKIP_LENGTH_MISMATCH: &str = "warts.skip.length_mismatch";
/// Skip reason: unparseable address.
pub const WARTS_SKIP_BAD_ADDRESS: &str = "warts.skip.bad_address";
/// Skip reason: parameter flags inconsistent.
pub const WARTS_SKIP_PARAM_ERROR: &str = "warts.skip.param_error";
/// Skip reason: malformed RFC 4884/4950 ICMP extension.
pub const WARTS_SKIP_BAD_ICMP_EXT: &str = "warts.skip.bad_icmp_ext";
/// Skip reason: well-formed but unsupported record type.
pub const WARTS_SKIP_UNSUPPORTED: &str = "warts.skip.unsupported";

/// Traces entering the pipeline.
pub const PIPELINE_TRACES: &str = "pipeline.traces";
/// Traces surviving validation.
pub const PIPELINE_TRACES_KEPT: &str = "pipeline.traces_kept";
/// Traces quarantined (sum of the `quarantine.*` family).
pub const PIPELINE_TRACES_QUARANTINED: &str = "pipeline.traces_quarantined";
/// Tunnels extracted from kept traces.
pub const PIPELINE_TUNNELS: &str = "pipeline.tunnels";
/// IOTPs that reached classification.
pub const PIPELINE_IOTPS_CLASSIFIED: &str = "pipeline.iotps_classified";
/// ASes exhibiting dynamic (multi-class) behaviour.
pub const PIPELINE_DYNAMIC_ASES: &str = "pipeline.dynamic_ases";

/// Targeted DPR re-probe walks spent by the revelation phase.
pub const REVELATION_PROBES: &str = "revelation.probes";
/// Revelation triggers of the duplicate-IP kind (invisible tunnels).
pub const REVELATION_TRIGGER_DUP_IP: &str = "revelation.trigger.dup_ip";
/// Revelation triggers of the opaque one-hop-stack kind.
pub const REVELATION_TRIGGER_OPAQUE: &str = "revelation.trigger.opaque";
/// Revelation triggers of the u-turn RTT-quirk kind (implicit tunnels).
pub const REVELATION_TRIGGER_UTURN: &str = "revelation.trigger.uturn";
/// Revelation candidates triggered (sum of the `revelation.trigger.*`
/// family after per-pair deduplication).
pub const REVELATION_TRIGGERS: &str = "revelation.triggers";
/// IOTPs upgraded or newly created from revealed evidence.
pub const REVELATION_UPGRADED: &str = "revelation.upgraded";

/// Quarantine reason: TTL ladder longer than the cap.
pub const QUARANTINE_TOO_MANY_HOPS: &str = "quarantine.too_many_hops";
/// Quarantine reason: duplicate TTL in one trace.
pub const QUARANTINE_DUPLICATE_TTL: &str = "quarantine.duplicate_ttl";
/// Quarantine reason: TTLs out of order.
pub const QUARANTINE_NON_MONOTONIC_TTL: &str = "quarantine.non_monotonic_ttl";
/// Quarantine reason: quoted label stack deeper than the cap.
pub const QUARANTINE_EXCESS_STACK_DEPTH: &str = "quarantine.excess_stack_depth";
/// Quarantine reason: the trace's shard worker panicked.
pub const QUARANTINE_POISONED_SHARD: &str = "quarantine.poisoned_shard";

/// Shard workers that panicked and were caught.
pub const PAR_POISONED_SHARDS: &str = "par.poisoned_shards";

/// Probes sent (one per TTL step).
pub const PROBE_SENT: &str = "probe.sent";
/// Replies received.
pub const PROBE_REPLIES: &str = "probe.replies";
/// Probes lost to anonymous routers.
pub const PROBE_ANONYMOUS: &str = "probe.anonymous";
/// Host groups where the MDA stopping rule ran out of hosts before
/// settling.
pub const PROBE_BUDGET_EXHAUSTED: &str = "probe.budget.exhausted";
/// Flow-varied ladder walks that emitted campaign traces.
pub const PROBE_BUDGET_FLOWS: &str = "probe.budget.flows";
/// `(vp, dst)` pairs pruned by the MDA stopping rule.
pub const PROBE_BUDGET_PRUNED: &str = "probe.budget.pruned";
/// Host groups whose MDA stopping rule settled within the group.
pub const PROBE_BUDGET_STOPPED: &str = "probe.budget.stopped";

/// Decoded traces that failed warts→core conversion.
pub const CLI_CONVERT_FAILURES: &str = "cli.convert_failures";
/// Input bytes read across all files.
pub const CLI_INPUT_BYTES: &str = "cli.input_bytes";
/// Input files read.
pub const CLI_INPUT_FILES: &str = "cli.input_files";

/// Warts corpus bytes memory-mapped (or read) for out-of-core ingest.
pub const CORPUS_BYTES_MAPPED: &str = "corpus.bytes_mapped";
/// Warts corpus files opened for out-of-core ingest.
pub const CORPUS_FILES_MAPPED: &str = "corpus.files_mapped";
/// Corpus files set aside at open: empty or still being written.
pub const CORPUS_FILES_SKIPPED: &str = "corpus.files_skipped";
/// Stale crash leftovers (`.lpridx.tmp`, spill files) swept at startup.
pub const CORPUS_INDEX_SWEPT: &str = "corpus.index.swept";
/// Record indexes built by a sequential scan (cache miss or stale).
pub const CORPUS_INDEX_BUILDS: &str = "corpus.index_builds";
/// Record indexes served from the on-disk `.lpridx` cache.
pub const CORPUS_INDEX_HITS: &str = "corpus.index_hits";
/// Records covered by loaded-or-built corpus indexes.
pub const CORPUS_RECORDS_INDEXED: &str = "corpus.records_indexed";
/// Indexed records whose sharded re-decode failed (should be zero).
pub const CORPUS_SHARD_DECODE_ERRORS: &str = "corpus.shard_decode_errors";

/// Bytes written to persistence-window spill files.
pub const INGEST_SPILL_BYTES: &str = "ingest.spill_bytes";
/// Unique LSP keys spilled for the persistence window.
pub const INGEST_SPILLED_KEYS: &str = "ingest.spilled_keys";
/// Traces ingested through the bounded-memory out-of-core path.
pub const INGEST_SPILLED_TRACES: &str = "ingest.spilled_traces";

/// Window cycles aged out of the serve daemon's ingest state.
pub const SERVE_CYCLES_EVICTED: &str = "serve.cycles_evicted";
/// Spool files ingested into the serve window.
pub const SERVE_FILES_INGESTED: &str = "serve.files_ingested";
/// Spool files moved to quarantine by the serve daemon.
pub const SERVE_FILES_QUARANTINED: &str = "serve.files_quarantined";
/// Per-file ingest attempts retried after a timeout or panic.
pub const SERVE_FILES_RETRIED: &str = "serve.files_retried";
/// HTTP requests answered by the serve endpoint.
pub const SERVE_HTTP_REQUESTS: &str = "serve.http_requests";
/// Reconcile-loop ticks completed by the serve daemon.
pub const SERVE_RECONCILE_TICKS: &str = "serve.reconcile_ticks";

/// RFC 4950 quoted label-stack depth per time-exceeded reply.
pub const PROBE_STACK_DEPTH: &str = "probe.stack_depth";

/// Every counter name the workspace emits, sorted.
pub const ALL_COUNTERS: &[&str] = &[
    CLI_CONVERT_FAILURES,
    CLI_INPUT_BYTES,
    CLI_INPUT_FILES,
    CORPUS_BYTES_MAPPED,
    CORPUS_FILES_MAPPED,
    CORPUS_FILES_SKIPPED,
    CORPUS_INDEX_SWEPT,
    CORPUS_INDEX_BUILDS,
    CORPUS_INDEX_HITS,
    CORPUS_RECORDS_INDEXED,
    CORPUS_SHARD_DECODE_ERRORS,
    INGEST_SPILL_BYTES,
    INGEST_SPILLED_KEYS,
    INGEST_SPILLED_TRACES,
    PAR_POISONED_SHARDS,
    PIPELINE_DYNAMIC_ASES,
    PIPELINE_IOTPS_CLASSIFIED,
    PIPELINE_TRACES,
    PIPELINE_TRACES_KEPT,
    PIPELINE_TRACES_QUARANTINED,
    PIPELINE_TUNNELS,
    PROBE_ANONYMOUS,
    PROBE_BUDGET_EXHAUSTED,
    PROBE_BUDGET_FLOWS,
    PROBE_BUDGET_PRUNED,
    PROBE_BUDGET_STOPPED,
    PROBE_REPLIES,
    PROBE_SENT,
    QUARANTINE_DUPLICATE_TTL,
    QUARANTINE_EXCESS_STACK_DEPTH,
    QUARANTINE_NON_MONOTONIC_TTL,
    QUARANTINE_POISONED_SHARD,
    QUARANTINE_TOO_MANY_HOPS,
    REVELATION_PROBES,
    REVELATION_TRIGGER_DUP_IP,
    REVELATION_TRIGGER_OPAQUE,
    REVELATION_TRIGGER_UTURN,
    REVELATION_TRIGGERS,
    REVELATION_UPGRADED,
    SERVE_CYCLES_EVICTED,
    SERVE_FILES_INGESTED,
    SERVE_FILES_QUARANTINED,
    SERVE_FILES_RETRIED,
    SERVE_HTTP_REQUESTS,
    SERVE_RECONCILE_TICKS,
    WARTS_MALFORMED_RECORDS,
    WARTS_RESYNC_BYTES,
    WARTS_SKIP_BAD_ADDRESS,
    WARTS_SKIP_BAD_ICMP_EXT,
    WARTS_SKIP_BAD_MAGIC,
    WARTS_SKIP_INSANE_LENGTH,
    WARTS_SKIP_LENGTH_MISMATCH,
    WARTS_SKIP_PARAM_ERROR,
    WARTS_SKIP_TRUNCATED,
    WARTS_SKIP_TRUNCATED_BODY,
    WARTS_SKIP_TRUNCATED_HEADER,
    WARTS_SKIP_UNSUPPORTED,
    WARTS_TRACES,
];

/// Every histogram name the workspace emits, sorted.
pub const ALL_HISTOGRAMS: &[&str] = &[PROBE_STACK_DEPTH];

/// Whether `name` is a declared counter.
pub fn is_known_counter(name: &str) -> bool {
    ALL_COUNTERS.binary_search(&name).is_ok()
}

/// Whether `name` is a declared histogram.
pub fn is_known_histogram(name: &str) -> bool {
    ALL_HISTOGRAMS.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocabulary_is_sorted_and_unique() {
        for list in [ALL_COUNTERS, ALL_HISTOGRAMS] {
            for pair in list.windows(2) {
                assert!(pair[0] < pair[1], "{} must sort before {}", pair[0], pair[1]);
            }
        }
    }

    #[test]
    fn lookups_match_membership() {
        assert!(is_known_counter(WARTS_SKIP_BAD_MAGIC));
        assert!(is_known_counter(PAR_POISONED_SHARDS));
        assert!(!is_known_counter("warts.skip.bad-magic"));
        assert!(!is_known_counter("pipeline.trace"));
        assert!(is_known_histogram(PROBE_STACK_DEPTH));
        assert!(!is_known_histogram(PROBE_SENT));
    }

    #[test]
    fn families_share_their_rollup_prefix() {
        let skips: Vec<&&str> =
            ALL_COUNTERS.iter().filter(|n| n.starts_with("warts.skip.")).collect();
        assert_eq!(skips.len(), 10, "one counter per SkipReason variant");
        let quarantines: Vec<&&str> =
            ALL_COUNTERS.iter().filter(|n| n.starts_with("quarantine.")).collect();
        assert_eq!(quarantines.len(), 5, "one counter per QuarantineReason variant");
        let budgets: Vec<&&str> =
            ALL_COUNTERS.iter().filter(|n| n.starts_with("probe.budget.")).collect();
        assert_eq!(budgets.len(), 4, "one counter per campaign budget tally");
        let triggers: Vec<&&str> =
            ALL_COUNTERS.iter().filter(|n| n.starts_with("revelation.trigger.")).collect();
        assert_eq!(triggers.len(), 3, "one counter per revelation TriggerKind");
    }
}
