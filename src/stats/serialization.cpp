#include "stats/serialization.h"

#include <cstdio>

#include "sim/shard.h"
#include "util/error.h"

namespace specnoc::stats {

using util::Json;

namespace {

Json windows_to_json(const traffic::SimWindows& windows) {
  Json json = Json::object();
  json.set("warmup_ps", static_cast<std::int64_t>(windows.warmup));
  json.set("measure_ps", static_cast<std::int64_t>(windows.measure));
  return json;
}

traffic::SimWindows windows_from_json(const Json& json) {
  traffic::SimWindows windows;
  windows.warmup = json.at("warmup_ps").as_i64();
  windows.measure = json.at("measure_ps").as_i64();
  return windows;
}

void set_spec_base(Json& json, core::Architecture arch,
                   traffic::BenchmarkId bench, std::uint64_t seed,
                   const std::string& custom) {
  json.set("arch", core::to_string(arch));
  json.set("bench", traffic::to_string(bench));
  json.set("seed", seed);
  if (!custom.empty()) json.set("custom", custom);
}

core::Architecture arch_from_json(const Json& json) {
  const std::string& name = json.at("arch").as_string();
  // kCustomHybrid is not parseable via architecture_from_string (it has no
  // canonical speculation map), but serialized custom design points carry
  // it; the factory must be rebuilt locally from the `custom` label.
  if (name == core::to_string(core::Architecture::kCustomHybrid)) {
    return core::Architecture::kCustomHybrid;
  }
  return core::architecture_from_string(name);
}

std::string custom_from_json(const Json& json) {
  const Json* custom = json.find("custom");
  return custom != nullptr ? custom->as_string() : std::string();
}

// A spec's JSON opens with its kind's wire name.
template <class Spec>
Json kind_json() {
  Json json = Json::object();
  json.set("kind", ExperimentKind<Spec>::kName);
  return json;
}

template <class Spec>
void expect_kind(const Json& json) {
  const char* kind = ExperimentKind<Spec>::kName;
  const std::string& got = json.at("kind").as_string();
  if (got != kind) {
    throw ConfigError(std::string("spec kind mismatch: expected ") + kind +
                      ", got " + got);
  }
}

// Latency and power specs carry the same fields.
template <class Spec>
Json open_loop_spec_to_json(const Spec& spec) {
  Json json = kind_json<Spec>();
  set_spec_base(json, spec.arch, spec.bench, spec.seed, spec.custom);
  json.set("injected_flits_per_ns", spec.injected_flits_per_ns);
  json.set("windows", windows_to_json(spec.windows));
  return json;
}

template <class Spec>
Spec open_loop_spec_from_json(const Json& json) {
  expect_kind<Spec>(json);
  Spec spec;
  spec.arch = arch_from_json(json);
  spec.bench = traffic::benchmark_from_string(json.at("bench").as_string());
  spec.seed = json.at("seed").as_u64();
  spec.custom = custom_from_json(json);
  spec.injected_flits_per_ns = json.at("injected_flits_per_ns").as_double();
  spec.windows = windows_from_json(json.at("windows"));
  return spec;
}

template <class Spec, class Result>
Outcome<Spec, Result> outcome_from_json(const Json& json,
                                        Spec (*spec_from)(const Json&),
                                        Result (*result_from)(const Json&)) {
  Outcome<Spec, Result> outcome;
  outcome.spec = spec_from(json.at("spec"));
  outcome.run = run_outcome_from_json(json.at("run"));
  if (outcome.run.ok) outcome.result = result_from(json.at("result"));
  if (const Json* metrics = json.find("metrics"); metrics != nullptr) {
    outcome.metrics = metrics_snapshot_from_json(*metrics);
  }
  return outcome;
}

}  // namespace

Json to_json(const SaturationSpec& spec) {
  Json json = kind_json<SaturationSpec>();
  set_spec_base(json, spec.arch, spec.bench, spec.seed, spec.custom);
  return json;
}

Json to_json(const LatencySpec& spec) { return open_loop_spec_to_json(spec); }

Json to_json(const PowerSpec& spec) { return open_loop_spec_to_json(spec); }

Json to_json(const WorkloadSpec& spec) {
  Json json = kind_json<WorkloadSpec>();
  json.set("arch", core::to_string(spec.arch));
  json.set("workload", spec.workload);
  json.set("mode", workload::to_string(spec.mode));
  json.set("trace_hash", spec.trace_hash);
  if (!spec.custom.empty()) json.set("custom", spec.custom);
  return json;
}

Json to_json(const CmpSpec& spec) {
  Json json = kind_json<CmpSpec>();
  json.set("arch", core::to_string(spec.arch));
  json.set("workload", spec.workload);
  json.set("access_hash", spec.access_hash);
  if (!spec.custom.empty()) json.set("custom", spec.custom);
  return json;
}

SaturationSpec saturation_spec_from_json(const Json& json) {
  expect_kind<SaturationSpec>(json);
  SaturationSpec spec;
  spec.arch = arch_from_json(json);
  spec.bench = traffic::benchmark_from_string(json.at("bench").as_string());
  spec.seed = json.at("seed").as_u64();
  spec.custom = custom_from_json(json);
  return spec;
}

LatencySpec latency_spec_from_json(const Json& json) {
  return open_loop_spec_from_json<LatencySpec>(json);
}

PowerSpec power_spec_from_json(const Json& json) {
  return open_loop_spec_from_json<PowerSpec>(json);
}

WorkloadSpec workload_spec_from_json(const Json& json) {
  expect_kind<WorkloadSpec>(json);
  WorkloadSpec spec;
  spec.arch = arch_from_json(json);
  spec.workload = json.at("workload").as_string();
  spec.mode = workload::replay_mode_from_string(json.at("mode").as_string());
  spec.trace_hash = json.at("trace_hash").as_string();
  spec.custom = custom_from_json(json);
  return spec;
}

CmpSpec cmp_spec_from_json(const Json& json) {
  expect_kind<CmpSpec>(json);
  CmpSpec spec;
  spec.arch = arch_from_json(json);
  spec.workload = json.at("workload").as_string();
  spec.access_hash = json.at("access_hash").as_string();
  spec.custom = custom_from_json(json);
  return spec;
}

Json to_json(const SaturationResult& result) {
  Json json = Json::object();
  json.set("delivered_flits_per_ns", result.delivered_flits_per_ns);
  json.set("injected_flits_per_ns", result.injected_flits_per_ns);
  json.set("delivery_factor", result.delivery_factor);
  json.set("message_expansion", result.message_expansion);
  return json;
}

SaturationResult saturation_result_from_json(const Json& json) {
  SaturationResult result;
  result.delivered_flits_per_ns =
      json.at("delivered_flits_per_ns").as_double();
  result.injected_flits_per_ns = json.at("injected_flits_per_ns").as_double();
  result.delivery_factor = json.at("delivery_factor").as_double();
  result.message_expansion = json.at("message_expansion").as_double();
  return result;
}

Json to_json(const LatencyResult& result) {
  Json json = Json::object();
  json.set("mean_latency_ns", result.mean_latency_ns);
  json.set("p95_latency_ns", result.p95_latency_ns);
  json.set("max_latency_ns", result.max_latency_ns);
  json.set("messages_measured", result.messages_measured);
  json.set("offered_flits_per_ns", result.offered_flits_per_ns);
  json.set("drained", result.drained);
  return json;
}

LatencyResult latency_result_from_json(const Json& json) {
  LatencyResult result;
  result.mean_latency_ns = json.at("mean_latency_ns").as_double();
  result.p95_latency_ns = json.at("p95_latency_ns").as_double();
  result.max_latency_ns = json.at("max_latency_ns").as_double();
  result.messages_measured = json.at("messages_measured").as_u64();
  result.offered_flits_per_ns = json.at("offered_flits_per_ns").as_double();
  result.drained = json.at("drained").as_bool();
  return result;
}

Json to_json(const PowerResult& result) {
  Json json = Json::object();
  json.set("power_mw", result.power_mw);
  json.set("node_power_mw", result.node_power_mw);
  json.set("wire_power_mw", result.wire_power_mw);
  json.set("delivered_flits_per_ns", result.delivered_flits_per_ns);
  json.set("offered_flits_per_ns", result.offered_flits_per_ns);
  json.set("throttled_flits", result.throttled_flits);
  json.set("broadcast_ops", result.broadcast_ops);
  return json;
}

PowerResult power_result_from_json(const Json& json) {
  PowerResult result;
  result.power_mw = json.at("power_mw").as_double();
  result.node_power_mw = json.at("node_power_mw").as_double();
  result.wire_power_mw = json.at("wire_power_mw").as_double();
  result.delivered_flits_per_ns =
      json.at("delivered_flits_per_ns").as_double();
  result.offered_flits_per_ns = json.at("offered_flits_per_ns").as_double();
  result.throttled_flits = json.at("throttled_flits").as_u64();
  result.broadcast_ops = json.at("broadcast_ops").as_u64();
  return result;
}

Json to_json(const WorkloadResult& result) {
  Json json = Json::object();
  json.set("messages", result.messages);
  json.set("messages_delivered", result.messages_delivered);
  json.set("flits_delivered", result.flits_delivered);
  json.set("makespan_ns", result.makespan_ns);
  json.set("mean_latency_ns", result.mean_latency_ns);
  json.set("p95_latency_ns", result.p95_latency_ns);
  json.set("max_latency_ns", result.max_latency_ns);
  json.set("completed", result.completed);
  return json;
}

WorkloadResult workload_result_from_json(const Json& json) {
  WorkloadResult result;
  result.messages = json.at("messages").as_u64();
  result.messages_delivered = json.at("messages_delivered").as_u64();
  result.flits_delivered = json.at("flits_delivered").as_u64();
  result.makespan_ns = json.at("makespan_ns").as_double();
  result.mean_latency_ns = json.at("mean_latency_ns").as_double();
  result.p95_latency_ns = json.at("p95_latency_ns").as_double();
  result.max_latency_ns = json.at("max_latency_ns").as_double();
  result.completed = json.at("completed").as_bool();
  return result;
}

Json to_json(const CmpResult& result) {
  Json json = Json::object();
  json.set("accesses", result.accesses);
  json.set("makespan_ns", result.makespan_ns);
  json.set("l1_hits", result.l1_hits);
  json.set("l1_misses", result.l1_misses);
  json.set("mshr_merges", result.mshr_merges);
  json.set("inv_messages", result.inv_messages);
  json.set("inv_multicasts", result.inv_multicasts);
  json.set("inv_targets", result.inv_targets);
  json.set("dram_reads", result.dram_reads);
  json.set("dram_writes", result.dram_writes);
  json.set("dram_conflicts", result.dram_conflicts);
  json.set("messages", result.messages);
  json.set("flits_delivered", result.flits_delivered);
  json.set("energy_nj", result.energy_nj);
  json.set("completed", result.completed);
  return json;
}

CmpResult cmp_result_from_json(const Json& json) {
  CmpResult result;
  result.accesses = json.at("accesses").as_u64();
  result.makespan_ns = json.at("makespan_ns").as_double();
  result.l1_hits = json.at("l1_hits").as_u64();
  result.l1_misses = json.at("l1_misses").as_u64();
  result.mshr_merges = json.at("mshr_merges").as_u64();
  result.inv_messages = json.at("inv_messages").as_u64();
  result.inv_multicasts = json.at("inv_multicasts").as_u64();
  result.inv_targets = json.at("inv_targets").as_u64();
  result.dram_reads = json.at("dram_reads").as_u64();
  result.dram_writes = json.at("dram_writes").as_u64();
  result.dram_conflicts = json.at("dram_conflicts").as_u64();
  result.messages = json.at("messages").as_u64();
  result.flits_delivered = json.at("flits_delivered").as_u64();
  result.energy_nj = json.at("energy_nj").as_double();
  result.completed = json.at("completed").as_bool();
  return result;
}

Json to_json(const sim::RunOutcome& run) {
  Json json = Json::object();
  json.set("ok", run.ok);
  if (!run.error.empty()) json.set("error", run.error);
  json.set("attempts", static_cast<std::uint64_t>(run.telemetry.attempts));
  json.set("events", run.telemetry.events_executed);
  json.set("wall_ms", run.telemetry.wall_ms);
  return json;
}

sim::RunOutcome run_outcome_from_json(const Json& json) {
  sim::RunOutcome run;
  run.ok = json.at("ok").as_bool();
  const Json* error = json.find("error");
  if (error != nullptr) run.error = error->as_string();
  run.telemetry.attempts = json.at("attempts").as_int<unsigned>();
  run.telemetry.events_executed = json.at("events").as_u64();
  run.telemetry.wall_ms = json.at("wall_ms").as_double();
  return run;
}

Json to_json(const MetricsSnapshot& snapshot) {
  Json json = Json::object();
  Json sites = Json::array();
  for (const auto& site : snapshot.sites) {
    Json entry = Json::object();
    entry.set("kind", noc::to_string(site.kind));
    entry.set("level", static_cast<std::int64_t>(site.level));
    entry.set("kills", site.counters.kills);
    entry.set("prealloc_hits", site.counters.prealloc_hits);
    entry.set("prealloc_misses", site.counters.prealloc_misses);
    entry.set("contended_grants", site.counters.contended_grants);
    entry.set("watchdog_releases", site.counters.watchdog_releases);
    sites.push_back(std::move(entry));
  }
  json.set("sites", std::move(sites));
  Json channels = Json::array();
  for (const auto& channel : snapshot.channels) {
    Json entry = Json::object();
    entry.set("class", channel.klass);
    entry.set("stalls", channel.stalls);
    entry.set("stall_ps", channel.stall_time_ps);
    Json histogram = Json::array();
    for (const std::uint64_t count : channel.histogram) {
      histogram.push_back(count);
    }
    entry.set("hist", std::move(histogram));
    channels.push_back(std::move(entry));
  }
  json.set("channels", std::move(channels));
  // Omitted entirely for sequential runs, which keeps pre-PDES golden
  // records byte-stable.
  if (!snapshot.pdes.empty()) {
    Json pdes = Json::object();
    pdes.set("lanes", static_cast<std::uint64_t>(snapshot.pdes.lanes));
    pdes.set("lookahead_ps",
             static_cast<std::int64_t>(snapshot.pdes.lookahead_ps));
    pdes.set("windows", snapshot.pdes.windows);
    Json lane_events = Json::array();
    for (const std::uint64_t events : snapshot.pdes.lane_events) {
      lane_events.push_back(events);
    }
    pdes.set("lane_events", std::move(lane_events));
    Json lane_idle = Json::array();
    for (const std::uint64_t idle : snapshot.pdes.lane_idle_windows) {
      lane_idle.push_back(idle);
    }
    pdes.set("lane_idle_windows", std::move(lane_idle));
    json.set("pdes", std::move(pdes));
  }
  // Also omit-when-empty, for the same byte-stability reason: records from
  // unsampled runs are identical to pre-telemetry records.
  if (!snapshot.telemetry.empty()) {
    json.set("telemetry", telemetry_series_to_json(snapshot.telemetry));
  }
  if (snapshot.dest_spills != 0) json.set("spills", snapshot.dest_spills);
  if (snapshot.dest_spill_bytes != 0) {
    json.set("spill_bytes", snapshot.dest_spill_bytes);
  }
  // Omit-when-empty like pdes/telemetry: records harvested without arena
  // accounting (and all pre-arena records) keep their byte layout.
  if (!snapshot.arena.empty()) {
    Json arena = Json::array();
    for (const auto& pool : snapshot.arena) {
      Json entry = Json::object();
      entry.set("pool", pool.label);
      entry.set("objects", pool.objects);
      entry.set("bytes", pool.bytes);
      entry.set("reserved_bytes", pool.reserved_bytes);
      arena.push_back(std::move(entry));
    }
    json.set("arena", std::move(arena));
  }
  // Omit-when-empty: only cmp co-simulation runs carry these counters, so
  // every non-cmp record keeps its byte layout.
  if (!snapshot.cmp.empty()) {
    Json cmp = Json::object();
    cmp.set("accesses", snapshot.cmp.accesses);
    cmp.set("l1_hits", snapshot.cmp.l1_hits);
    cmp.set("l1_misses", snapshot.cmp.l1_misses);
    cmp.set("mshr_merges", snapshot.cmp.mshr_merges);
    cmp.set("inv_messages", snapshot.cmp.inv_messages);
    cmp.set("inv_multicasts", snapshot.cmp.inv_multicasts);
    cmp.set("inv_targets", snapshot.cmp.inv_targets);
    cmp.set("writebacks", snapshot.cmp.writebacks);
    cmp.set("dram_reads", snapshot.cmp.dram_reads);
    cmp.set("dram_writes", snapshot.cmp.dram_writes);
    cmp.set("dram_conflicts", snapshot.cmp.dram_conflicts);
    cmp.set("barriers", snapshot.cmp.barriers);
    cmp.set("lock_acquires", snapshot.cmp.lock_acquires);
    cmp.set("lock_contended", snapshot.cmp.lock_contended);
    json.set("cmp", std::move(cmp));
  }
  return json;
}

MetricsSnapshot metrics_snapshot_from_json(const Json& json) {
  MetricsSnapshot snapshot;
  for (const Json& entry : json.at("sites").items()) {
    MetricsSite site;
    site.kind = noc::node_kind_from_string(entry.at("kind").as_string());
    site.level = entry.at("level").as_int<std::int32_t>();
    site.counters.kills = entry.at("kills").as_u64();
    site.counters.prealloc_hits = entry.at("prealloc_hits").as_u64();
    site.counters.prealloc_misses = entry.at("prealloc_misses").as_u64();
    site.counters.contended_grants = entry.at("contended_grants").as_u64();
    site.counters.watchdog_releases = entry.at("watchdog_releases").as_u64();
    snapshot.sites.push_back(site);
  }
  for (const Json& entry : json.at("channels").items()) {
    ChannelClassMetrics channel;
    channel.klass = entry.at("class").as_string();
    channel.stalls = entry.at("stalls").as_u64();
    channel.stall_time_ps = entry.at("stall_ps").as_u64();
    const auto& histogram = entry.at("hist").items();
    if (histogram.size() != kNumStallBuckets) {
      throw ConfigError("metrics histogram has " +
                        std::to_string(histogram.size()) + " buckets, want " +
                        std::to_string(kNumStallBuckets));
    }
    for (std::size_t b = 0; b < kNumStallBuckets; ++b) {
      channel.histogram[b] = histogram[b].as_u64();
    }
    snapshot.channels.push_back(std::move(channel));
  }
  if (const Json* pdes = json.find("pdes"); pdes != nullptr) {
    snapshot.pdes.lanes = pdes->at("lanes").as_int<std::uint32_t>();
    snapshot.pdes.lookahead_ps = pdes->at("lookahead_ps").as_i64();
    snapshot.pdes.windows = pdes->at("windows").as_u64();
    for (const Json& events : pdes->at("lane_events").items()) {
      snapshot.pdes.lane_events.push_back(events.as_u64());
    }
    for (const Json& idle : pdes->at("lane_idle_windows").items()) {
      snapshot.pdes.lane_idle_windows.push_back(idle.as_u64());
    }
  }
  if (const Json* telemetry = json.find("telemetry"); telemetry != nullptr) {
    snapshot.telemetry = telemetry_series_from_json(*telemetry);
  }
  if (const Json* spills = json.find("spills"); spills != nullptr) {
    snapshot.dest_spills = spills->as_u64();
  }
  if (const Json* bytes = json.find("spill_bytes"); bytes != nullptr) {
    snapshot.dest_spill_bytes = bytes->as_u64();
  }
  if (const Json* arena = json.find("arena"); arena != nullptr) {
    for (const Json& entry : arena->items()) {
      ArenaPoolMetrics pool;
      pool.label = entry.at("pool").as_string();
      pool.objects = entry.at("objects").as_u64();
      pool.bytes = entry.at("bytes").as_u64();
      pool.reserved_bytes = entry.at("reserved_bytes").as_u64();
      snapshot.arena.push_back(std::move(pool));
    }
  }
  if (const Json* cmp = json.find("cmp"); cmp != nullptr) {
    snapshot.cmp.accesses = cmp->at("accesses").as_u64();
    snapshot.cmp.l1_hits = cmp->at("l1_hits").as_u64();
    snapshot.cmp.l1_misses = cmp->at("l1_misses").as_u64();
    snapshot.cmp.mshr_merges = cmp->at("mshr_merges").as_u64();
    snapshot.cmp.inv_messages = cmp->at("inv_messages").as_u64();
    snapshot.cmp.inv_multicasts = cmp->at("inv_multicasts").as_u64();
    snapshot.cmp.inv_targets = cmp->at("inv_targets").as_u64();
    snapshot.cmp.writebacks = cmp->at("writebacks").as_u64();
    snapshot.cmp.dram_reads = cmp->at("dram_reads").as_u64();
    snapshot.cmp.dram_writes = cmp->at("dram_writes").as_u64();
    snapshot.cmp.dram_conflicts = cmp->at("dram_conflicts").as_u64();
    snapshot.cmp.barriers = cmp->at("barriers").as_u64();
    snapshot.cmp.lock_acquires = cmp->at("lock_acquires").as_u64();
    snapshot.cmp.lock_contended = cmp->at("lock_contended").as_u64();
  }
  return snapshot;
}

SaturationOutcome saturation_outcome_from_json(const Json& json) {
  return outcome_from_json(json, saturation_spec_from_json,
                           saturation_result_from_json);
}

LatencyOutcome latency_outcome_from_json(const Json& json) {
  return outcome_from_json(json, latency_spec_from_json,
                           latency_result_from_json);
}

PowerOutcome power_outcome_from_json(const Json& json) {
  return outcome_from_json(json, power_spec_from_json, power_result_from_json);
}

WorkloadOutcome workload_outcome_from_json(const Json& json) {
  return outcome_from_json(json, workload_spec_from_json,
                           workload_result_from_json);
}

CmpOutcome cmp_outcome_from_json(const Json& json) {
  return outcome_from_json(json, cmp_spec_from_json, cmp_result_from_json);
}

namespace {

std::string key_base(const char* kind, core::Architecture arch,
                     traffic::BenchmarkId bench, std::uint64_t seed,
                     const std::string& custom) {
  std::string key = kind;
  key += '|';
  key += core::to_string(arch);
  key += '|';
  key += traffic::to_string(bench);
  key += "|seed=";
  key += std::to_string(seed);
  if (!custom.empty()) {
    key += '|';
    key += custom;
  }
  return key;
}

std::string key_rate_windows(double rate, const traffic::SimWindows& windows) {
  return "|rate=" + util::format_double(rate) +
         "|w=" + std::to_string(windows.warmup) + ":" +
         std::to_string(windows.measure);
}

}  // namespace

std::string spec_key(const SaturationSpec& spec) {
  return key_base("sat", spec.arch, spec.bench, spec.seed, spec.custom);
}

std::string spec_key(const LatencySpec& spec) {
  return key_base("lat", spec.arch, spec.bench, spec.seed, spec.custom) +
         key_rate_windows(spec.injected_flits_per_ns, spec.windows);
}

std::string spec_key(const PowerSpec& spec) {
  return key_base("pow", spec.arch, spec.bench, spec.seed, spec.custom) +
         key_rate_windows(spec.injected_flits_per_ns, spec.windows);
}

std::string spec_key(const WorkloadSpec& spec) {
  // The trace hash is part of the identity: shards replayed from different
  // trace bytes hash to different grids, so the merge refuses to mix them.
  std::string key = "wl|";
  key += core::to_string(spec.arch);
  key += '|';
  key += spec.workload;
  key += '|';
  key += workload::to_string(spec.mode);
  key += "|trace=";
  key += spec.trace_hash;
  if (!spec.custom.empty()) {
    key += '|';
    key += spec.custom;
  }
  return key;
}

std::string spec_key(const CmpSpec& spec) {
  // Like the workload key, the access-trace hash is part of the identity.
  std::string key = "cmp|";
  key += core::to_string(spec.arch);
  key += '|';
  key += spec.workload;
  key += "|access=";
  key += spec.access_hash;
  if (!spec.custom.empty()) {
    key += '|';
    key += spec.custom;
  }
  return key;
}

std::string grid_hash(const std::vector<std::string>& keys) {
  std::string blob;
  for (const auto& key : keys) {
    blob += key;
    blob += '\n';
  }
  const std::uint64_t hash = sim::fnv1a64(blob);
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

const char* run_status(const sim::RunOutcome& run) {
  if (!run.ok) return "failed";
  return run.telemetry.attempts > 1 ? "retried" : "ok";
}

}  // namespace specnoc::stats
