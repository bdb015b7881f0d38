#include "workload/trace.h"

#include <sstream>

#include <gtest/gtest.h>

#include "noc/packet.h"
#include "util/error.h"

namespace specnoc::workload {
namespace {

Trace small_trace() {
  Trace trace;
  trace.meta.n = 8;
  trace.meta.generator = "test";
  trace.records.push_back({0, 0, noc::DestSet::single(3) | noc::DestSet::single(5), 5, 0,
                           0, {}});
  trace.records.push_back({1, 3, noc::DestSet::single(0), 5, 1000, 500, {0}});
  trace.records.push_back({2, 5, noc::DestSet::single(0), 5, 1000, 0, {0, 1}});
  return trace;
}

TEST(TraceTest, WriteReadRoundTrip) {
  const Trace trace = small_trace();
  const std::string bytes = trace_to_string(trace);
  std::istringstream in(bytes);
  const Trace back = read_trace(in, "roundtrip");
  ASSERT_EQ(back.records.size(), trace.records.size());
  EXPECT_EQ(back.meta.n, trace.meta.n);
  EXPECT_EQ(back.meta.generator, trace.meta.generator);
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    EXPECT_EQ(back.records[i].id, trace.records[i].id);
    EXPECT_EQ(back.records[i].src, trace.records[i].src);
    EXPECT_EQ(back.records[i].dests, trace.records[i].dests);
    EXPECT_EQ(back.records[i].size, trace.records[i].size);
    EXPECT_EQ(back.records[i].earliest, trace.records[i].earliest);
    EXPECT_EQ(back.records[i].delay, trace.records[i].delay);
    EXPECT_EQ(back.records[i].deps, trace.records[i].deps);
  }
  // The writer is deterministic, so re-serializing reproduces the bytes.
  EXPECT_EQ(trace_to_string(back), bytes);
  EXPECT_EQ(trace_hash(back), trace_hash(trace));
}

TEST(TraceTest, HashChangesWithContent) {
  Trace a = small_trace();
  Trace b = small_trace();
  b.records[1].earliest += 1;
  EXPECT_NE(trace_hash(a), trace_hash(b));
}

TEST(TraceTest, ValidateEnforcesRadixCeiling) {
  // noc::DestSet caps at kMaxEndpoints; traces for wider networks would
  // silently truncate destination sets.
  Trace trace = small_trace();
  trace.meta.n = noc::kMaxEndpoints * 2;
  EXPECT_THROW(trace.validate(), ConfigError);
  trace.meta.n = 1;
  EXPECT_THROW(trace.validate(), ConfigError);
  trace.meta.n = 65;  // past the old 64-endpoint ceiling, now in range
  EXPECT_NO_THROW(trace.validate());
  trace.meta.n = 64;
  EXPECT_NO_THROW(trace.validate());
}

TEST(TraceTest, ValidateRejectsStructuralErrors) {
  {
    Trace trace = small_trace();
    trace.records[1].id = 0;  // ids must be strictly increasing
    EXPECT_THROW(trace.validate(), ConfigError);
  }
  {
    Trace trace = small_trace();
    trace.records[0].src = 8;  // src out of range
    EXPECT_THROW(trace.validate(), ConfigError);
  }
  {
    Trace trace = small_trace();
    trace.records[0].dests = noc::DestSet::single(8);  // dest beyond n endpoints
    EXPECT_THROW(trace.validate(), ConfigError);
  }
  {
    Trace trace = small_trace();
    trace.records[0].dests = noc::DestSet{};  // empty destination set
    EXPECT_THROW(trace.validate(), ConfigError);
  }
  {
    Trace trace = small_trace();
    trace.records[0].size = 0;
    EXPECT_THROW(trace.validate(), ConfigError);
  }
  {
    Trace trace = small_trace();
    trace.records[2].deps = {7};  // dangling dependency
    EXPECT_THROW(trace.validate(), ConfigError);
  }
  {
    Trace trace = small_trace();
    trace.records[1].deps = {1};  // self/forward dependency
    EXPECT_THROW(trace.validate(), ConfigError);
  }
}

TEST(TraceTest, ParserRejectsMalformedStreams) {
  const std::string good = trace_to_string(small_trace());
  {
    std::istringstream in("not json\n");
    EXPECT_THROW(read_trace(in, "bad"), ConfigError);
  }
  {
    // Missing header: first line is a msg record.
    std::istringstream in(good.substr(good.find('\n') + 1));
    EXPECT_THROW(read_trace(in, "headerless"), ConfigError);
  }
  {
    // Truncated: drop the end record.
    std::istringstream in(good.substr(0, good.rfind("{\"record\":\"end\"")));
    EXPECT_THROW(read_trace(in, "truncated"), ConfigError);
  }
  {
    // Wrong message count in the end record.
    std::string tampered = good;
    const auto pos = tampered.find("\"messages\":3");
    ASSERT_NE(pos, std::string::npos);
    tampered.replace(pos, 12, "\"messages\":2");
    std::istringstream in(tampered);
    EXPECT_THROW(read_trace(in, "count"), ConfigError);
  }
  // Integers that do not fit their 32-bit fields are rejected, not
  // truncated (4294967304 would wrap to n=8, 4294967296 to src 0), and
  // the error names the offending line.
  const auto expect_rejected = [&](const std::string& field,
                                   const std::string& wide,
                                   const std::string& line) {
    std::string tampered = good;
    const auto pos = tampered.find(field);
    ASSERT_NE(pos, std::string::npos) << field;
    tampered.replace(pos, field.size(), wide);
    std::istringstream in(tampered);
    try {
      read_trace(in, "range");
      ADD_FAILURE() << wide << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("range:" + line),
                std::string::npos)
          << e.what();
    }
  };
  expect_rejected("\"n\":8", "\"n\":4294967304", "1");
  expect_rejected("\"src\":0", "\"src\":4294967296", "2");
  expect_rejected("\"size\":5", "\"size\":4294967301", "2");
}

Trace large_trace() {
  Trace trace;
  trace.meta.n = 1024;
  trace.meta.generator = "test-large";
  noc::DestSet wide;
  wide.set(3);
  wide.set(500);
  wide.set(1023);
  trace.records.push_back({0, 0, wide, 5, 0, 0, {}});
  trace.records.push_back({1, 900, noc::DestSet::single(65), 5, 1000, 0, {0}});
  return trace;
}

TEST(TraceTest, LargeRadixWritesSchema2HexDests) {
  const std::string bytes = trace_to_string(large_trace());
  EXPECT_NE(bytes.find("\"schema\":2"), std::string::npos);
  // Destination sets are hex strings, not integers, on the schema-2 wire.
  EXPECT_NE(bytes.find("\"dests\":\""), std::string::npos);
  // Radix <= 64 keeps the schema-1 integer wire form, byte-compatible with
  // every pre-existing golden.
  const std::string small_bytes = trace_to_string(small_trace());
  EXPECT_NE(small_bytes.find("\"schema\":1"), std::string::npos);
  EXPECT_EQ(small_bytes.find("\"dests\":\""), std::string::npos);
}

TEST(TraceTest, LargeRadixRoundTripPreservesDests) {
  const Trace trace = large_trace();
  const std::string bytes = trace_to_string(trace);
  std::istringstream in(bytes);
  const Trace back = read_trace(in, "large");
  ASSERT_EQ(back.records.size(), trace.records.size());
  EXPECT_EQ(back.meta.n, 1024u);
  EXPECT_EQ(back.records[0].dests, trace.records[0].dests);
  EXPECT_EQ(back.records[1].dests, trace.records[1].dests);
  EXPECT_EQ(trace_to_string(back), bytes);  // deterministic writer
  EXPECT_EQ(trace_hash(back), trace_hash(trace));
}

TEST(TraceTest, SchemaRadixPairingIsStrictBothWays) {
  // A schema-1 header claiming a large radix must be refused (its integer
  // masks cannot address endpoints >= 64)...
  std::string schema1_large = trace_to_string(large_trace());
  const auto pos = schema1_large.find("\"schema\":2");
  ASSERT_NE(pos, std::string::npos);
  schema1_large.replace(pos, 10, "\"schema\":1");
  std::istringstream in1(schema1_large);
  EXPECT_THROW(read_trace(in1, "schema1-large"), ConfigError);

  // ...and schema 2 is reserved for radixes that need it.
  std::string schema2_small = trace_to_string(small_trace());
  const auto pos2 = schema2_small.find("\"schema\":1");
  ASSERT_NE(pos2, std::string::npos);
  schema2_small.replace(pos2, 10, "\"schema\":2");
  std::istringstream in2(schema2_small);
  EXPECT_THROW(read_trace(in2, "schema2-small"), ConfigError);
}

TEST(TraceTest, ParserNamesOffendingLine) {
  std::istringstream in(
      "{\"record\":\"header\",\"format\":\"specnoc-workload-trace\","
      "\"schema\":1,\"n\":8,\"generator\":\"t\"}\n"
      "garbage\n");
  try {
    read_trace(in, "lined");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("lined:2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace specnoc::workload
