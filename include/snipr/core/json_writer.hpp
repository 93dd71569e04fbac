#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

/// \file json_writer.hpp
/// Minimal deterministic JSON building, shared by every emitter
/// (`BatchRunner::to_json`, `FleetEngine::to_json`, the bench artifact
/// writers): fixed field order, numbers through `std::to_chars`, which
/// ignores the locale. A double is written as `chars_format::general` at
/// precision 10, which the standard defines as printf's "%.10g", and an
/// integer as "%llu". Same inputs, same bytes — the property the golden
/// corpus and the thread/shard determinism tests pin down.

namespace snipr::core::json {

/// Schema identifiers, centralised so no emitter ever hard-codes (and
/// silently forks) a version string. Bump a constant here and every
/// producer — and golden_runner's mismatch check — moves together.
inline constexpr const char* kBatchSchemaV1 = "snipr.batch.v1";
/// Fleet outcome without a network (store-and-forward) section.
inline constexpr const char* kFleetSchemaV1 = "snipr.fleet.v1";
/// Fleet outcome carrying the multi-hop collection "network" section.
inline constexpr const char* kFleetSchemaV2 = "snipr.fleet.v2";
/// Fleet outcome carrying a fault-plane "resilience" section (with or
/// without a network section; an attached fault plan always bumps to v3).
inline constexpr const char* kFleetSchemaV3 = "snipr.fleet.v3";
/// Bounded-memory streaming fleet aggregate (no per-node rows).
inline constexpr const char* kFleetSummarySchemaV1 = "snipr.fleet_summary.v1";
/// Per-policy regret vs the clairvoyant SNIP-OPT benchmark
/// (bench_regret). Regret counters gate upward in
/// tools/check_bench_regression.py: more regret is a regression.
inline constexpr const char* kBenchRegretSchemaV1 = "snipr.bench.regret.v1";
/// Fault-mix sweep (bench_resilience): the probed capacity each policy
/// loses relative to its own fault-free run (`zeta_regret_s =
/// fault_free - faulted`), per (probe-miss, crash-rate) point. The
/// regret counters gate upward like the learning regret ones: losing
/// more capacity to the same faults is the regression.
inline constexpr const char* kBenchResilienceSchemaV1 =
    "snipr.bench.resilience.v1";

/// Open a document with its schema marker: `{"schema":"<schema>",`.
inline void open_document(std::string& out, const char* schema) {
  out += "{\"schema\":\"";
  out += schema;
  out += "\",";
}

/// The schema identifier of a JSON document emitted by open_document
/// (`{"schema":"..."` as the first field), or empty when the document
/// carries none. Used by golden_runner to reject a version mismatch
/// outright instead of reporting it as an opaque byte diff.
[[nodiscard]] inline std::string_view extract_schema(
    std::string_view json) noexcept {
  constexpr std::string_view prefix{"{\"schema\":\""};
  if (json.substr(0, prefix.size()) != prefix) return {};
  const std::size_t begin = prefix.size();
  const std::size_t end = json.find('"', begin);
  if (end == std::string_view::npos) return {};
  return json.substr(begin, end - begin);
}

/// JSON has no inf or nan: a non-finite value is written as `null`.
inline void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[32];  // "%.10g" needs at most 17: -1.234567891e-308
  const std::to_chars_result r = std::to_chars(
      buffer, buffer + sizeof buffer, value, std::chars_format::general, 10);
  out.append(buffer, r.ptr);
}

inline void append_field(std::string& out, const char* key, double value,
                         bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  append_number(out, value);
  if (comma) out += ',';
}

inline void append_uint_field(std::string& out, const char* key,
                              std::uint64_t value, bool comma = true) {
  char buffer[20];  // UINT64_MAX has 20 digits
  const std::to_chars_result r =
      std::to_chars(buffer, buffer + sizeof buffer, value);
  out += '"';
  out += key;
  out += "\":";
  out.append(buffer, r.ptr);
  if (comma) out += ',';
}

inline void append_string_field(std::string& out, const char* key,
                                std::string_view value, bool comma = true) {
  out += '"';
  out += key;
  out += "\":\"";
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escaped[8];
          std::snprintf(escaped, sizeof escaped, "\\u%04x",
                        static_cast<unsigned>(c));
          out += escaped;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  if (comma) out += ',';
}

}  // namespace snipr::core::json
