// Unit tests for the observability primitives: Counter, Histogram,
// Registry serialization, and the fixed Sink structs the pipeline and
// engine report into.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/sink.h"

namespace vihot::obs {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(HistogramTest, BucketsObservationsByUpperBound) {
  Histogram h{1.0, 2.0, 5.0};
  ASSERT_EQ(h.num_bounds(), 3u);
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (bounds are inclusive)
  h.observe(1.5);   // <= 2.0
  h.observe(4.0);   // <= 5.0
  h.observe(100.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 107.0, 1e-12);
  EXPECT_NEAR(h.mean(), 21.4, 1e-12);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(HistogramTest, EmptyReportsZeros) {
  const Histogram h{1.0};
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, TracksExtremesIncludingNegatives) {
  Histogram h{0.0, 10.0};
  h.observe(-3.0);
  h.observe(7.0);
  h.observe(2.0);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 7.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1.0);
}

TEST(HistogramTest, ConcurrentObservationsKeepTotals) {
  Histogram h{10.0, 100.0, 1000.0};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&h, k] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(k + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  // sum = 10000 * (1 + 2 + 3 + 4)
  EXPECT_NEAR(h.sum(), 100000.0, 1e-6);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_EQ(h.bucket_count(0), h.count());  // all <= 10
}

// The CSV row of counter `name`, or "" when the registry has none.
std::string counter_row(const Registry& reg, const std::string& name) {
  std::ostringstream os;
  reg.write_csv(os);
  std::istringstream lines(os.str());
  const std::string prefix = "counter," + name + ",value,";
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

TEST(RegistryTest, AttachesExternalMetrics) {
  Registry reg;
  Counter frames;
  frames.inc(3);
  reg.attach("frames", frames);
  EXPECT_EQ(counter_row(reg, "frames"), "counter,frames,value,3");
  EXPECT_EQ(counter_row(reg, "unknown"), "");

  // Attached metrics are read live at snapshot time, not copied.
  frames.inc(4);
  EXPECT_EQ(counter_row(reg, "frames"), "counter,frames,value,7");

  Histogram lat{1.0, 2.0};
  lat.observe(1.5);
  reg.attach("lat", lat);
  std::ostringstream os;
  reg.write_csv(os);
  EXPECT_NE(os.str().find("histogram,lat,count,1"), std::string::npos);
}

TEST(RegistryTest, WritesJsonWithBothFamilies) {
  Counter hits;
  hits.inc(2);
  Histogram h{0.5, 1.0};
  h.observe(0.25);
  h.observe(2.0);
  Registry reg;
  reg.attach("hits", hits);
  reg.attach("cost", h);

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cost\""), std::string::npos);
  EXPECT_NE(json.find("\"+inf\""), std::string::npos);
  // Balanced braces, single root object.
  EXPECT_EQ(json.front(), '{');
  std::size_t open = 0;
  std::size_t close = 0;
  for (const char c : json) {
    open += c == '{';
    close += c == '}';
  }
  EXPECT_EQ(open, close);
}

TEST(RegistryTest, WritesCsvRows) {
  Counter hits;
  hits.inc(5);
  Histogram cost{1.0};
  cost.observe(0.5);
  Registry reg;
  reg.attach("hits", hits);
  reg.attach("cost", cost);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("counter,hits,value,5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,cost,count,1"), std::string::npos);
  EXPECT_NE(csv.find("le_inf"), std::string::npos);
}

TEST(SinkTest, AttachRegistersTrackerAndEngineFamilies) {
  Sink sink;
  sink.tracker.estimates.inc(4);
  sink.engine.batches.inc(2);
  sink.engine.batch_latency_us.observe(120.0);

  Registry reg;
  sink.attach_to(reg);
  EXPECT_EQ(counter_row(reg, "tracker.estimates"),
            "counter,tracker.estimates,value,4");
  EXPECT_EQ(counter_row(reg, "engine.batches"),
            "counter,engine.batches,value,2");

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("tracker.estimates"), std::string::npos);
  EXPECT_NE(json.find("engine.batch_latency_us"), std::string::npos);
  EXPECT_NE(json.find("tracker.dtw_best_cost"), std::string::npos);

  // A prefix namespaces every family (multi-engine deployments).
  Registry prefixed;
  sink.attach_to(prefixed, "car7.");
  EXPECT_EQ(counter_row(prefixed, "car7.tracker.estimates"),
            "counter,car7.tracker.estimates,value,4");
}

// The exported names are a contract: vihotd's health JSON, --metrics-out
// files and the serving benchmark all read them. Every Sink member must
// keep its name and order, so the registry's CSV is pinned line by line
// against a checked-in list (regenerate it only for a deliberate rename
// or a new metric).
TEST(SinkTest, ExportedNamesMatchGolden) {
  Sink sink;
  Registry reg;
  sink.attach_to(reg);
  std::ostringstream os;
  reg.write_csv(os);

  // One name per metric: a counter's "value" row or a histogram's first
  // ("count") row; the header and the other histogram rows are skipped.
  std::vector<std::string> names;
  std::istringstream csv(os.str());
  std::string line;
  while (std::getline(csv, line)) {
    std::istringstream row(line);
    std::string kind, name, field;
    std::getline(row, kind, ',');
    std::getline(row, name, ',');
    std::getline(row, field, ',');
    if ((kind == "counter" && field == "value") ||
        (kind == "histogram" && field == "count")) {
      names.push_back(name);
    }
  }

  std::ifstream in(VIHOT_METRIC_NAMES_GOLDEN);
  ASSERT_TRUE(in) << "missing " << VIHOT_METRIC_NAMES_GOLDEN;
  std::vector<std::string> golden;
  while (std::getline(in, line)) {
    if (!line.empty()) golden.push_back(line);
  }

  EXPECT_EQ(names, golden);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size())
      << "an exported metric name repeats";
}

TEST(SinkTest, SnapshotCopiesCounters) {
  Sink sink;
  sink.tracker.estimates.inc(9);
  sink.tracker.relock_widen.inc(2);
  sink.tracker.fallback_served.inc(5);
  sink.tracker.fallback_stale.inc(7);
  sink.tracker.dtw_best_cost.observe(0.5);
  sink.tracker.dtw_best_cost.observe(1.5);
  const TrackerStatsSnapshot snap = snapshot(sink.tracker);
  EXPECT_EQ(snap.estimates, 9u);
  EXPECT_EQ(snap.relock_widen, 2u);
  EXPECT_EQ(snap.fallback_served, 5u);
  EXPECT_EQ(snap.fallback_stale, 7u);
  EXPECT_DOUBLE_EQ(snap.dtw_best_cost_mean, 1.0);
}

}  // namespace
}  // namespace vihot::obs
