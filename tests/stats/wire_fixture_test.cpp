// Wire compatibility of sweep shard files: committed shard files written by
// the harnesses must load, re-serialize and decode to exactly the bytes on
// disk, so a refactor of the codecs or the sweep plumbing cannot silently
// change the JSONL format that sharded sweeps exchange.
//
// The files in tests/golden/sweep/ were produced by the harnesses (any
// --seed is fine as long as it is the same across one sweep; wall_ms
// values differ run to run and need not be reproduced). Regenerate only
// after an intentional format change, from a Release build:
//   B=build/bench G=tests/golden/sweep
//   for i in 0 1 2; do
//     $B/bench_table1_power --shard $i/3 --out a$i.jsonl --anchors-only
//   done
//   $B/sweep_merge --out anchors.jsonl a0.jsonl a1.jsonl a2.jsonl
//   for i in 0 1 2; do
//     $B/bench_table1_power --shard $i/3 --out p$i.jsonl
//       --anchors-from anchors.jsonl
//   done
//   $B/sweep_merge --out $G/table1_power_merged.jsonl
//     p0.jsonl p1.jsonl p2.jsonl
//   $B/bench_fig6a_latency --shard 0/4 --out $G/fig6a_latency_shard0of4.jsonl
//   $B/bench_workload --shard 0/4 --out $G/workload_shard0of4.jsonl
//   $B/bench_cmp --smoke --shard 1/3 --metrics cmp_metrics.json
//     --out $G/cmp_smoke_shard1of3.jsonl
// (indented lines continue the command above them).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "stats/serialization.h"
#include "stats/sweep.h"
#include "util/json.h"

namespace specnoc::stats {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(SPECNOC_GOLDEN_DIR) + "/sweep/" + name;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Decodes one record's data with `decode`, then checks that re-encoding
// gives the same bytes and that the decoded spec has the recorded key.
template <typename Decode>
void expect_record_round_trips(const SweepRecord& record, Decode decode) {
  const auto outcome = decode(record.data);
  EXPECT_EQ(util::json_write(to_json(outcome)), util::json_write(record.data))
      << record.key;
  EXPECT_EQ(spec_key(outcome.spec), record.key);
}

void expect_record_round_trips(const std::string& kind,
                               const SweepRecord& record) {
  if (kind == "saturation") {
    expect_record_round_trips(record, saturation_outcome_from_json);
  } else if (kind == "latency") {
    expect_record_round_trips(record, latency_outcome_from_json);
  } else if (kind == "power") {
    expect_record_round_trips(record, power_outcome_from_json);
  } else if (kind == "workload") {
    expect_record_round_trips(record, workload_outcome_from_json);
  } else if (kind == "cmp") {
    expect_record_round_trips(record, cmp_outcome_from_json);
  } else {
    ADD_FAILURE() << "unknown grid kind '" << kind << "'";
  }
}

// Loads a committed shard file, checks the file-level and record-level
// round trips, and returns it for file-specific checks.
ShardFile expect_file_round_trips(const std::string& name) {
  const std::string path = golden_path(name);
  const ShardFile file = load_shard_file(path);
  const std::string rewritten =
      ::testing::TempDir() + "specnoc_wire_fixture_" + name;
  write_shard_file(file, rewritten);
  EXPECT_EQ(read_text(rewritten), read_text(path));

  std::size_t records = 0;
  for (const SweepGrid& grid : file.grids) {
    const auto it = file.records.find(grid.name);
    if (it == file.records.end()) continue;
    for (const auto& [cell, record] : it->second) {
      static_cast<void>(cell);
      expect_record_round_trips(grid.kind, record);
      ++records;
    }
  }
  EXPECT_GT(records, 0u);
  return file;
}

TEST(WireFixtureTest, Table1PowerMergedAnchorsAndPowerGrid) {
  const ShardFile file = expect_file_round_trips("table1_power_merged.jsonl");
  EXPECT_TRUE(file.complete);
  ASSERT_EQ(file.grids.size(), 2u);
  EXPECT_EQ(file.grids[0].kind, "saturation");
  EXPECT_TRUE(file.grids[0].shared);
  EXPECT_EQ(file.grids[1].kind, "power");
  EXPECT_EQ(file.records.at("power").size(), file.grids[1].size);
}

TEST(WireFixtureTest, Fig6aLatencyShard) {
  const ShardFile file =
      expect_file_round_trips("fig6a_latency_shard0of4.jsonl");
  EXPECT_EQ(file.manifest.shard, (sim::ShardRef{0, 4}));
  ASSERT_NE(file.find_grid("latency"), nullptr);
  EXPECT_EQ(file.find_grid("latency")->kind, "latency");
}

TEST(WireFixtureTest, WorkloadShard) {
  const ShardFile file = expect_file_round_trips("workload_shard0of4.jsonl");
  ASSERT_NE(file.find_grid("workload"), nullptr);
  EXPECT_EQ(file.find_grid("workload")->kind, "workload");
}

TEST(WireFixtureTest, CmpShardCarriesMetrics) {
  const ShardFile file = expect_file_round_trips("cmp_smoke_shard1of3.jsonl");
  ASSERT_NE(file.find_grid("cmp"), nullptr);
  EXPECT_EQ(file.find_grid("cmp")->kind, "cmp");
  bool metrics = false;
  for (const auto& [cell, record] : file.records.at("cmp")) {
    static_cast<void>(cell);
    metrics = metrics || record.data.find("metrics") != nullptr;
  }
  EXPECT_TRUE(metrics);
}

}  // namespace
}  // namespace specnoc::stats
