#include "workload/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/shard.h"
#include "util/error.h"
#include "util/json.h"

namespace specnoc::workload {

using util::Json;

namespace {

std::uint32_t highest_dest(const noc::DestSet& dests) {
  std::uint32_t highest = 0;
  dests.for_each_dest([&](std::uint32_t d) { highest = d; });
  return highest;
}

}  // namespace

void Trace::validate() const {
  if (meta.n < 2 || meta.n > noc::kMaxEndpoints) {
    throw ConfigError("workload trace radix must be in [2, " +
                      std::to_string(noc::kMaxEndpoints) + "], got n=" +
                      std::to_string(meta.n));
  }
  bool first = true;
  std::uint64_t prev_id = 0;
  for (const TraceRecord& rec : records) {
    const auto fail = [&rec](const std::string& why) -> ConfigError {
      return ConfigError("trace message " + std::to_string(rec.id) + ": " +
                         why);
    };
    if (!first && rec.id <= prev_id) {
      throw fail("ids must be strictly increasing (previous was " +
                 std::to_string(prev_id) + ")");
    }
    first = false;
    prev_id = rec.id;
    if (rec.src >= meta.n) {
      throw fail("source " + std::to_string(rec.src) +
                 " out of range for n=" + std::to_string(meta.n));
    }
    if (rec.dests.none()) throw fail("empty destination set");
    if (!rec.dests.within(meta.n)) {
      throw fail("destination set addresses endpoint " +
                 std::to_string(highest_dest(rec.dests)) +
                 ", beyond the trace's configured radix n=" +
                 std::to_string(meta.n));
    }
    if (rec.size == 0) throw fail("size must be >= 1 flit");
    if (rec.earliest < 0) throw fail("earliest time must be >= 0");
    if (rec.delay < 0) throw fail("delay must be >= 0");
    for (const std::uint64_t dep : rec.deps) {
      if (dep >= rec.id) {
        throw fail("dependency " + std::to_string(dep) +
                   " does not precede the message (deps must reference "
                   "earlier records)");
      }
      // ids are strictly increasing, so binary search finds the dep.
      const auto it = std::lower_bound(
          records.begin(), records.end(), dep,
          [](const TraceRecord& r, std::uint64_t id) { return r.id < id; });
      if (it == records.end() || it->id != dep) {
        throw fail("dependency " + std::to_string(dep) +
                   " names no record of this trace");
      }
    }
  }
}

namespace {

/// Schema a trace of radix n serializes with: schema 1 keeps the integer
/// mask wire form (and the bytes of every existing golden); schema 2
/// carries hex-string destination sets for radixes beyond one word.
int schema_for(std::uint32_t n) {
  return n <= 64 ? kTraceSchemaVersion : kTraceSchemaVersionLarge;
}

Json header_to_json(const TraceMeta& meta) {
  Json json = Json::object();
  json.set("record", "header");
  json.set("format", kTraceFormat);
  json.set("schema", static_cast<std::int64_t>(schema_for(meta.n)));
  json.set("n", meta.n);
  if (!meta.generator.empty()) json.set("generator", meta.generator);
  return json;
}

Json record_to_json(const TraceRecord& rec, int schema) {
  Json json = Json::object();
  json.set("record", "msg");
  json.set("id", rec.id);
  json.set("src", rec.src);
  if (schema == kTraceSchemaVersion) {
    json.set("dests", rec.dests.to_word());
  } else {
    json.set("dests", rec.dests.to_hex());
  }
  json.set("size", rec.size);
  json.set("earliest", static_cast<std::int64_t>(rec.earliest));
  if (rec.delay != 0) json.set("delay", static_cast<std::int64_t>(rec.delay));
  Json deps = Json::array();
  for (const std::uint64_t dep : rec.deps) deps.push_back(dep);
  json.set("deps", std::move(deps));
  return json;
}

TraceRecord record_from_json(const Json& json, int schema) {
  TraceRecord rec;
  rec.id = json.at("id").as_u64();
  rec.src = json.at("src").as_int<std::uint32_t>();
  if (schema == kTraceSchemaVersion) {
    rec.dests = noc::DestSet::from_word(json.at("dests").as_u64());
  } else {
    rec.dests = noc::DestSet::from_hex(json.at("dests").as_string());
  }
  rec.size = json.at("size").as_int<std::uint32_t>();
  rec.earliest = json.at("earliest").as_i64();
  const Json* delay = json.find("delay");
  if (delay != nullptr) rec.delay = delay->as_i64();
  for (const Json& dep : json.at("deps").items()) {
    rec.deps.push_back(dep.as_u64());
  }
  return rec;
}

}  // namespace

void write_trace(const Trace& trace, std::ostream& out) {
  trace.validate();
  const int schema = schema_for(trace.meta.n);
  out << util::json_write(header_to_json(trace.meta)) << "\n";
  for (const TraceRecord& rec : trace.records) {
    out << util::json_write(record_to_json(rec, schema)) << "\n";
  }
  Json end = Json::object();
  end.set("record", "end");
  end.set("messages", static_cast<std::uint64_t>(trace.records.size()));
  out << util::json_write(end) << "\n";
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw ConfigError("cannot write trace file '" + path + "'");
  write_trace(trace, out);
  out.flush();
  if (!out) throw ConfigError("short write to trace file '" + path + "'");
}

std::string trace_to_string(const Trace& trace) {
  std::ostringstream out;
  write_trace(trace, out);
  return out.str();
}

Trace read_trace(std::istream& in, const std::string& origin) {
  Trace trace;
  bool have_header = false;
  bool have_end = false;
  int schema = kTraceSchemaVersion;
  std::uint64_t declared = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    // Every error raised on this line, the JSON parser's and the field
    // accessors' included, names the line.
    try {
      const Json json = util::json_parse(line);
      const std::string& record = json.at("record").as_string();
      if (record == "header") {
        if (have_header) throw ConfigError("duplicate header record");
        if (json.at("format").as_string() != kTraceFormat) {
          throw ConfigError("not a " + std::string(kTraceFormat) +
                            " file (format '" +
                            json.at("format").as_string() + "')");
        }
        const auto declared_schema = json.at("schema").as_i64();
        if (declared_schema != kTraceSchemaVersion &&
            declared_schema != kTraceSchemaVersionLarge) {
          throw ConfigError("unsupported trace schema version " +
                            std::to_string(declared_schema) +
                            " (this build reads versions " +
                            std::to_string(kTraceSchemaVersion) + " and " +
                            std::to_string(kTraceSchemaVersionLarge) + ")");
        }
        schema = static_cast<int>(declared_schema);
        trace.meta.n = json.at("n").as_int<std::uint32_t>();
        if (trace.meta.n < 2 || trace.meta.n > noc::kMaxEndpoints) {
          throw ConfigError("trace radix n=" + std::to_string(trace.meta.n) +
                            " outside the supported range [2, " +
                            std::to_string(noc::kMaxEndpoints) + "]");
        }
        // The schema <-> radix pairing is strict both ways: integer masks
        // cannot express n > 64, and hex sets for n <= 64 would fork the
        // byte-exact wire form the goldens pin.
        if (schema == kTraceSchemaVersion && trace.meta.n > 64) {
          throw ConfigError(
              "schema 1 carries integer 64-bit destination masks and cannot "
              "address n=" + std::to_string(trace.meta.n) +
              " endpoints (schema 2 required beyond radix 64)");
        }
        if (schema == kTraceSchemaVersionLarge && trace.meta.n <= 64) {
          throw ConfigError(
              "schema 2 is reserved for radixes above 64; a trace with n=" +
              std::to_string(trace.meta.n) + " must use schema 1");
        }
        const Json* generator = json.find("generator");
        if (generator != nullptr) trace.meta.generator = generator->as_string();
        have_header = true;
        continue;
      }
      if (!have_header) throw ConfigError("first record must be the header");
      if (have_end) throw ConfigError("record after the end record");
      if (record == "msg") {
        TraceRecord rec = record_from_json(json, schema);
        if (!rec.dests.within(trace.meta.n)) {
          throw ConfigError("destination set of message " +
                            std::to_string(rec.id) + " addresses endpoint " +
                            std::to_string(highest_dest(rec.dests)) +
                            ", beyond the configured radix n=" +
                            std::to_string(trace.meta.n));
        }
        trace.records.push_back(std::move(rec));
        continue;
      }
      if (record == "end") {
        declared = json.at("messages").as_u64();
        have_end = true;
        continue;
      }
      throw ConfigError("unknown record type '" + record + "'");
    } catch (const ConfigError& error) {
      throw ConfigError(origin + ":" + std::to_string(line_no) + ": " +
                        error.what());
    }
  }
  if (!have_header) {
    throw ConfigError(origin + ": no header record (empty or truncated file)");
  }
  if (!have_end) {
    throw ConfigError(origin + ": no end record (truncated trace)");
  }
  if (declared != trace.records.size()) {
    throw ConfigError(origin + ": end record declares " +
                      std::to_string(declared) + " messages but " +
                      std::to_string(trace.records.size()) + " are present");
  }
  trace.validate();
  return trace;
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open trace file '" + path + "'");
  return read_trace(in, path);
}

std::string trace_hash(const Trace& trace) {
  const std::uint64_t hash = sim::fnv1a64(trace_to_string(trace));
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace specnoc::workload
