// Tests for switching-table persistence and the trace generator's outage
// overlay.

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "comm/trace.hpp"
#include "io/io.hpp"
#include "runtime/threshold_io.hpp"

namespace lens {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- switching table ---------------------------------------------------------

runtime::SwitchingTable sample_table() {
  runtime::SwitchingTable table;
  table.metric = runtime::OptimizeFor::kEnergy;
  table.option_labels = {"All-Edge", "split@pool5", "All-Cloud"};
  table.intervals = {{0, 0.05, 1.2}, {1, 1.2, 22.5}, {2, 22.5, 500.0}};
  return table;
}

TEST(SwitchingTable, SelectRespectsIntervalsAndClamps) {
  const runtime::SwitchingTable table = sample_table();
  EXPECT_EQ(table.select(0.5), 0u);
  EXPECT_EQ(table.select(5.0), 1u);
  EXPECT_EQ(table.select(100.0), 2u);
  EXPECT_EQ(table.select(0.01), 0u);    // below range: clamp left
  EXPECT_EQ(table.select(9999.0), 2u);  // above range: clamp right
  EXPECT_THROW(table.select(0.0), std::invalid_argument);
  runtime::SwitchingTable empty;
  EXPECT_THROW(empty.select(1.0), std::logic_error);
}

TEST(SwitchingTable, SaveLoadRoundTrip) {
  const runtime::SwitchingTable original = sample_table();
  const std::string path = temp_path("table.txt");
  runtime::save_switching_table(original, path);
  const runtime::SwitchingTable loaded = runtime::load_switching_table(path);
  EXPECT_EQ(loaded.metric, original.metric);
  EXPECT_EQ(loaded.option_labels, original.option_labels);
  ASSERT_EQ(loaded.intervals.size(), original.intervals.size());
  for (std::size_t i = 0; i < loaded.intervals.size(); ++i) {
    EXPECT_EQ(loaded.intervals[i].option_index, original.intervals[i].option_index);
    EXPECT_DOUBLE_EQ(loaded.intervals[i].tu_low, original.intervals[i].tu_low);
    EXPECT_DOUBLE_EQ(loaded.intervals[i].tu_high, original.intervals[i].tu_high);
  }
  // Behavioural equivalence across the whole axis.
  for (double tu = 0.1; tu < 400.0; tu *= 1.7) {
    EXPECT_EQ(loaded.select(tu), original.select(tu));
  }
  std::remove(path.c_str());
}

TEST(SwitchingTable, LoadRejectsBadFiles) {
  EXPECT_THROW(runtime::load_switching_table("/nonexistent/t.txt"), std::runtime_error);
  const std::string path = temp_path("bad_table.txt");
  // A file with no integrity footer (e.g. hand-edited) fails the checksum
  // gate before any parsing happens.
  {
    std::ofstream out(path);
    out << "garbage\n";
  }
  EXPECT_THROW(runtime::load_switching_table(path), std::runtime_error);
  // Semantically-bad payloads behind a valid footer still hit the parser's
  // own validation.
  io::atomic_write_checked(path, [](std::ostream& out) { out << "garbage\n"; });
  EXPECT_THROW(runtime::load_switching_table(path), std::invalid_argument);
  io::atomic_write_checked(path, [](std::ostream& out) {
    out << "lens-switching-table v1\nmetric energy\noptions 1\nX\nintervals 1\n5 1.0 2.0\n";
  });
  // option_index 5 out of range for 1 label.
  EXPECT_THROW(runtime::load_switching_table(path), std::invalid_argument);
  std::remove(path.c_str());
}

// ---- outage overlay ------------------------------------------------------------

TEST(Outages, DisabledByDefault) {
  comm::TraceGeneratorConfig config;
  config.seed = 3;
  comm::TraceGenerator plain(config);
  const comm::ThroughputTrace trace = plain.generate(500);
  // Without outages, min/max span stays within the log-normal's usual range.
  EXPECT_GT(trace.min_mbps(), config.mean_mbps * 0.05);
}

TEST(Outages, ProduceDeepFadesAtConfiguredRate) {
  comm::TraceGeneratorConfig config;
  config.mean_mbps = 10.0;
  config.sigma = 0.2;
  config.seed = 5;
  config.outage_start_probability = 0.05;
  config.outage_mean_duration = 4.0;
  config.outage_depth_factor = 0.05;
  comm::TraceGenerator generator(config);
  const comm::ThroughputTrace trace = generator.generate(4000);
  // Count samples in deep fade (below 20% of the median).
  std::size_t faded = 0;
  for (double tu : trace.samples_mbps) {
    if (tu < 2.0) ++faded;
  }
  // Stationary outage fraction ~ p*d / (1 + p*d) ~ 17%; allow a wide band.
  const double fraction = static_cast<double>(faded) / static_cast<double>(trace.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.35);
  EXPECT_GE(trace.min_mbps(), config.floor_mbps);
}

TEST(Outages, EpisodesAreBursty) {
  comm::TraceGeneratorConfig config;
  config.mean_mbps = 10.0;
  config.sigma = 0.05;
  config.seed = 9;
  config.outage_start_probability = 0.02;
  config.outage_mean_duration = 6.0;
  config.outage_depth_factor = 0.02;
  comm::TraceGenerator generator(config);
  const comm::ThroughputTrace trace = generator.generate(4000);
  // Count fade->fade adjacencies vs isolated fades: bursts dominate.
  std::size_t faded = 0;
  std::size_t adjacent = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const bool fade = trace.samples_mbps[i] < 1.0;
    if (fade) {
      ++faded;
      if (i > 0 && trace.samples_mbps[i - 1] < 1.0) ++adjacent;
    }
  }
  ASSERT_GT(faded, 20u);
  EXPECT_GT(static_cast<double>(adjacent) / static_cast<double>(faded), 0.5);
}

TEST(Outages, Validation) {
  comm::TraceGeneratorConfig config;
  config.outage_start_probability = 1.5;
  EXPECT_THROW(comm::TraceGenerator{config}, std::invalid_argument);
  config = {};
  config.outage_start_probability = 0.1;
  config.outage_mean_duration = 0.5;
  EXPECT_THROW(comm::TraceGenerator{config}, std::invalid_argument);
  config = {};
  config.outage_start_probability = 0.1;
  config.outage_depth_factor = 0.0;
  EXPECT_THROW(comm::TraceGenerator{config}, std::invalid_argument);
}

}  // namespace
}  // namespace lens
