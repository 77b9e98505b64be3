// Run-report serialization: one JSONL line per replication plus one sweep
// summary line (schema "spider-telemetry-v1").
//
// Every field is deterministic for a fixed (config, seed): counters and
// histograms come from the per-world registry, digests from the simulator,
// and no wall-clock value is ever written — which is what lets the
// determinism suite assert byte-identical exports across repeated runs and
// across 1-vs-8-thread sweeps. The sweep wiring (which runs produced which
// snapshot) lives in core/sweep.h; this layer only knows how to render.
//
// Line shapes:
//   {"schema":"spider-telemetry-v1","kind":"run","label":L,"run":i,
//    "seed":s,"digest":"0x…","events":n,"counters":{…},"gauges":{…},
//    "histograms":{…}}
//   {"schema":"spider-telemetry-v1","kind":"sweep","label":L,"runs":N,
//    "combined_digest":"0x…","merged":{…},"process":{…}}
// where "process" snapshots the process-wide registry (check-failure
// counters) and histogram buckets serialize sparsely as [[index,count],…].
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "telemetry/metrics.h"

namespace spider::telemetry {

inline constexpr std::string_view kRunReportSchema = "spider-telemetry-v1";

// Schema tag of the live-stream JSONL lines a StreamPublisher renders (see
// stream_exporter.h for the line shapes). Stream lines are a superset
// shape: readers of either schema must tolerate unknown keys (the JSON
// reader in json.h does), so a -v1 consumer can skim -stream-v1 files.
inline constexpr std::string_view kStreamSchema = "spider-telemetry-stream-v1";

// Low-level JSON fragment appenders shared by the run-report renderer, the
// stream exporter, the trace recorder, and tools. Deterministic for a given
// value, and valid JSON for every value: doubles render as %.17g (null when
// not finite), hex64 as a quoted "0x%016x" string, and string control
// characters other than \n and \t as \u00XX.
void append_json_quoted(std::string& out, std::string_view s);
void append_json_u64(std::string& out, std::uint64_t v);
void append_json_i64(std::string& out, std::int64_t v);
void append_json_double(std::string& out, double v);
void append_json_hex64(std::string& out, std::uint64_t v);

// Renders the three metric maps: "counters":{...},"gauges":{...},
// "histograms":{...} (no surrounding braces), appended to `out`.
void append_snapshot_json(std::string& out, const MetricsSnapshot& snapshot);

// One "kind":"run" line, without trailing newline.
std::string run_report_line(std::string_view label, std::size_t run_index,
                            std::uint64_t seed, std::uint64_t digest,
                            std::uint64_t events_executed,
                            const MetricsSnapshot& snapshot);

// One "kind":"sweep" summary line, without trailing newline. `merged` must
// be the submission-order merge of the per-run snapshots; the process-wide
// registry (check failures) is snapshotted inside.
std::string sweep_report_line(std::string_view label, std::size_t runs,
                              std::uint64_t combined_digest,
                              const MetricsSnapshot& merged);

// Appends `text` to the file at `path` (creating it if needed). Returns
// success. JSONL appends are line-atomic at the sizes we write.
bool append_to_file(const std::string& path, std::string_view text);

}  // namespace spider::telemetry
