// Tests for the lens::io durability layer, the MOBO snapshot/restore
// contract (bit-identical continuation), and the NasDriver run-checkpoint
// loop: every persisted format must reject truncation at *any* byte offset,
// and a resumed search must reproduce the uninterrupted trajectory exactly.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.hpp"
#include "core/nas.hpp"
#include "core/run_checkpoint.hpp"
#include "io/io.hpp"
#include "opt/mobo.hpp"
#include "perf/predictor.hpp"
#include "runtime/threshold_io.hpp"

namespace lens {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

/// The core durability property: a loader must throw for *every* strict
/// prefix of a valid file — no byte offset may yield a silently partial
/// result.
template <typename Loader>
void expect_rejects_every_truncation(const std::string& valid_path, Loader&& loader) {
  const std::string contents = read_file(valid_path);
  ASSERT_FALSE(contents.empty());
  const std::string trunc = valid_path + ".trunc";
  for (std::size_t n = 0; n < contents.size(); ++n) {
    write_file(trunc, contents.substr(0, n));
    EXPECT_THROW(loader(trunc), std::exception) << "prefix of " << n << " bytes accepted";
  }
  std::remove(trunc.c_str());
}

// ---- FNV-1a and the double codec ---------------------------------------------

TEST(Fnv1a, DefinitionAndChaining) {
  EXPECT_EQ(io::fnv1a(""), io::kFnvOffsetBasis);
  // One xor-then-multiply round per byte, seeded with the same offset basis
  // the MOBO duplicate index and the genotype cache use.
  EXPECT_EQ(io::fnv1a("a"), (io::kFnvOffsetBasis ^ std::uint64_t{'a'}) * io::kFnvPrime);
  EXPECT_EQ(io::fnv1a("ab"),
            ((io::fnv1a("a")) ^ std::uint64_t{'b'}) * io::kFnvPrime);
  EXPECT_EQ(io::fnv1a("bar", io::fnv1a("foo")), io::fnv1a("foobar"));
  EXPECT_NE(io::fnv1a("alpha"), io::fnv1a("alphb"));
}

TEST(DoubleCodec, BitExactRoundTrip) {
  const double values[] = {0.0,
                           1.0,
                           -1.0,
                           1.0 / 3.0,
                           -2.5e-308,  // denormal territory
                           5e-324,     // smallest positive denormal
                           1.7976931348623157e308,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (double v : values) {
    const std::string hex = io::encode_double(v);
    EXPECT_EQ(hex.size(), 16u);
    const double back = io::decode_double(hex);
    EXPECT_EQ(std::memcmp(&v, &back, sizeof(v)), 0) << hex;
  }
  // Signed zero and NaN payloads survive too (operator== can't see these).
  EXPECT_TRUE(std::signbit(io::decode_double(io::encode_double(-0.0))));
  EXPECT_TRUE(std::isnan(io::decode_double(
      io::encode_double(std::numeric_limits<double>::quiet_NaN()))));
}

TEST(DoubleCodec, RejectsMalformedHex) {
  EXPECT_THROW(io::decode_double(""), std::invalid_argument);
  EXPECT_THROW(io::decode_double("1234"), std::invalid_argument);
  EXPECT_THROW(io::decode_double("0123456789abcdef0"), std::invalid_argument);
  EXPECT_THROW(io::decode_double("0123456789ABCDEF"), std::invalid_argument);
  EXPECT_THROW(io::decode_double("0123456789abcdeg"), std::invalid_argument);
}

// ---- atomic_write ------------------------------------------------------------

TEST(AtomicWrite, ReplacesDurablyAndCleansUpOnFailure) {
  const std::string path = temp_path("atomic.txt");
  io::atomic_write(path, [](std::ostream& out) { out << "first\n"; });
  EXPECT_EQ(read_file(path), "first\n");
  io::atomic_write(path, [](std::ostream& out) { out << "second\n"; });
  EXPECT_EQ(read_file(path), "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // A writer that throws must leave the previous contents untouched and no
  // temp file behind.
  EXPECT_THROW(io::atomic_write(path,
                                [](std::ostream&) {
                                  throw std::logic_error("boom");
                                }),
               std::logic_error);
  EXPECT_EQ(read_file(path), "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // A writer that fails the stream surfaces as runtime_error, same cleanup.
  EXPECT_THROW(io::atomic_write(path,
                                [](std::ostream& out) {
                                  out.setstate(std::ios::failbit);
                                }),
               std::runtime_error);
  EXPECT_EQ(read_file(path), "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  EXPECT_THROW(io::atomic_write("/nonexistent-dir/x.txt", [](std::ostream&) {}),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---- checked container -------------------------------------------------------

TEST(CheckedContainer, RoundTripAndFooterNormalization) {
  const std::string path = temp_path("checked.txt");
  io::atomic_write_checked(path, [](std::ostream& out) { out << "alpha\nbeta\n"; });
  EXPECT_EQ(io::read_checked(path), "alpha\nbeta\n");
  // The raw file still starts with the verbatim payload (external tools can
  // read it, skipping '#' comments).
  EXPECT_EQ(read_file(path).rfind("alpha\nbeta\n# lens:fnv1a ", 0), 0u);

  // A payload without a trailing newline gets one so the footer starts on
  // its own line.
  io::atomic_write_checked(path, [](std::ostream& out) { out << "no-newline"; });
  EXPECT_EQ(io::read_checked(path), "no-newline\n");
  std::remove(path.c_str());
}

TEST(CheckedContainer, RejectsTruncationAtEveryOffset) {
  const std::string path = temp_path("checked_trunc.txt");
  io::atomic_write_checked(path, [](std::ostream& out) { out << "alpha\nbeta\n"; });
  expect_rejects_every_truncation(path, [](const std::string& p) {
    return io::read_checked(p);
  });
  std::remove(path.c_str());
}

TEST(CheckedContainer, RejectsAnySingleByteFlipAndTrailingGarbage) {
  const std::string path = temp_path("checked_flip.txt");
  io::atomic_write_checked(path, [](std::ostream& out) { out << "alpha\nbeta\n"; });
  const std::string contents = read_file(path);
  const std::string mutated_path = path + ".mut";
  for (std::size_t i = 0; i < contents.size(); ++i) {
    std::string mutated = contents;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    write_file(mutated_path, mutated);
    EXPECT_THROW(io::read_checked(mutated_path), std::runtime_error) << "byte " << i;
  }
  write_file(mutated_path, contents + "x");
  EXPECT_THROW(io::read_checked(mutated_path), std::runtime_error);
  write_file(mutated_path, contents + "garbage\n");
  EXPECT_THROW(io::read_checked(mutated_path), std::runtime_error);
  std::remove(mutated_path.c_str());
  std::remove(path.c_str());
}

// ---- framed container --------------------------------------------------------

TEST(FramedContainer, RoundTripFormatCheckAndCorruption) {
  const std::string path = temp_path("framed.bin");
  const std::string payload = "line one\nline two\nbinary-ish \x01\x02\n";
  io::write_framed(path, "unit-test-v1", payload);
  EXPECT_EQ(io::read_framed(path, "unit-test-v1"), payload);
  EXPECT_THROW(io::read_framed(path, "other-format-v1"), std::runtime_error);
  EXPECT_THROW(io::write_framed(path, "has space", payload), std::invalid_argument);
  EXPECT_THROW(io::write_framed(path, "", payload), std::invalid_argument);

  expect_rejects_every_truncation(path, [](const std::string& p) {
    return io::read_framed(p, "unit-test-v1");
  });

  const std::string contents = read_file(path);
  write_file(path, contents + "x");
  EXPECT_THROW(io::read_framed(path, "unit-test-v1"), std::runtime_error);
  // Flip one payload byte: checksum mismatch.
  std::string mutated = contents;
  mutated[mutated.size() - 2] = static_cast<char>(mutated[mutated.size() - 2] ^ 0x40);
  write_file(path, mutated);
  EXPECT_THROW(io::read_framed(path, "unit-test-v1"), std::runtime_error);
  std::remove(path.c_str());
}

// ---- every persisted format rejects truncation at every byte offset ----------

TEST(TruncationSweep, SwitchingTable) {
  const std::string path = temp_path("table_sweep.txt");
  runtime::SwitchingTable table;
  table.metric = runtime::OptimizeFor::kLatency;
  table.option_labels = {"edge", "split@pool4"};
  table.intervals = {{0, 0.5, 2.0}, {1, 2.0, 8.0}};
  runtime::save_switching_table(table, path);
  EXPECT_EQ(runtime::load_switching_table(path).option_labels, table.option_labels);
  expect_rejects_every_truncation(path, [](const std::string& p) {
    return runtime::load_switching_table(p);
  });
  std::remove(path.c_str());
}

TEST(TruncationSweep, GenotypesCsv) {
  const std::string path = temp_path("geno_sweep.csv");
  const core::SearchSpace space;
  std::mt19937_64 rng(11);
  const core::Genotype genotype = space.random(rng);
  std::string encoded;
  for (std::size_t i = 0; i < genotype.size(); ++i) {
    if (i > 0) encoded += '-';
    encoded += std::to_string(genotype[i]);
  }
  io::atomic_write_checked(path, [&](std::ostream& out) {
    out << "index,genotype\n0," << encoded << "\n";
  });
  ASSERT_EQ(core::load_genotypes_csv(space, path).size(), 1u);
  expect_rejects_every_truncation(path, [&space](const std::string& p) {
    return core::load_genotypes_csv(space, p);
  });
  std::remove(path.c_str());
}

// ---- run-checkpoint rotation -------------------------------------------------

opt::MoboSnapshot tiny_snapshot(std::size_t evaluations) {
  opt::MoboSnapshot snapshot;
  snapshot.num_objectives = 2;
  snapshot.num_initial = 2;
  snapshot.num_iterations = 30;
  snapshot.pool_size = 8;
  snapshot.seed = 3;
  snapshot.refit_period = 10;
  snapshot.evaluations_done = evaluations;
  snapshot.models_ready = false;
  std::ostringstream rng_stream;
  rng_stream << std::mt19937_64(3);
  snapshot.rng_state = rng_stream.str();
  for (std::size_t i = 0; i < evaluations; ++i) {
    const double t = static_cast<double>(i);
    snapshot.history.push_back({{0.25 * t, 1.0 - 0.125 * t}, {t, 10.0 - t}});
  }
  return snapshot;
}

TEST(RunCheckpoint, FileNameAndRotation) {
  EXPECT_EQ(core::checkpoint_file_name(42), "snapshot-00000042.ckpt");
  EXPECT_EQ(core::checkpoint_file_name(123456789), "snapshot-123456789.ckpt");

  const std::string dir = temp_path("ckpt_rotation");
  fs::remove_all(dir);
  core::save_run_checkpoint(dir, tiny_snapshot(4), 2);
  core::save_run_checkpoint(dir, tiny_snapshot(8), 2);
  core::save_run_checkpoint(dir, tiny_snapshot(12), 2);
  const std::vector<std::string> files = core::list_run_checkpoints(dir);
  ASSERT_EQ(files.size(), 2u);  // the oldest rotation was pruned
  EXPECT_NE(files[0].find("snapshot-00000008.ckpt"), std::string::npos);
  EXPECT_NE(files[1].find("snapshot-00000012.ckpt"), std::string::npos);

  std::string loaded_path;
  const opt::MoboSnapshot newest = core::load_newest_run_checkpoint(dir, &loaded_path);
  EXPECT_EQ(newest.evaluations_done, 12u);
  EXPECT_EQ(loaded_path, files[1]);
  fs::remove_all(dir);
}

TEST(RunCheckpoint, CorruptedNewestFallsBackThenThrows) {
  const std::string dir = temp_path("ckpt_fallback");
  fs::remove_all(dir);
  core::save_run_checkpoint(dir, tiny_snapshot(4), 8);
  core::save_run_checkpoint(dir, tiny_snapshot(8), 8);
  const std::vector<std::string> files = core::list_run_checkpoints(dir);
  ASSERT_EQ(files.size(), 2u);

  // Truncate the newest rotation: resume must fall back to the previous one.
  const std::string newest_contents = read_file(files[1]);
  write_file(files[1], newest_contents.substr(0, newest_contents.size() / 2));
  std::string loaded_path;
  const opt::MoboSnapshot fallback = core::load_newest_run_checkpoint(dir, &loaded_path);
  EXPECT_EQ(fallback.evaluations_done, 4u);
  EXPECT_EQ(loaded_path, files[0]);

  // Corrupt every rotation: the failure lists each candidate.
  write_file(files[0], "not a snapshot");
  EXPECT_THROW(core::load_newest_run_checkpoint(dir), std::runtime_error);
  EXPECT_THROW(core::load_newest_run_checkpoint(temp_path("no_such_ckpt_dir")),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(RunCheckpoint, SnapshotFrameRejectsTruncationAtEveryOffset) {
  const std::string dir = temp_path("ckpt_trunc");
  fs::remove_all(dir);
  core::save_run_checkpoint(dir, tiny_snapshot(3), 1);
  const std::vector<std::string> files = core::list_run_checkpoints(dir);
  ASSERT_EQ(files.size(), 1u);
  expect_rejects_every_truncation(files[0], [](const std::string& p) {
    return opt::MoboSnapshot::deserialize(io::read_framed(p, "mobo-snapshot-v1"));
  });
  fs::remove_all(dir);
}

// ---- MOBO snapshot/restore ---------------------------------------------------

struct SyntheticProblem {
  opt::MoboEngine::Sampler sampler = [](std::mt19937_64& rng) {
    std::uniform_real_distribution<double> uniform(0.0, 1.0);
    return std::vector<double>{uniform(rng), uniform(rng), uniform(rng)};
  };
  opt::MoboEngine::Objectives objectives = [](const std::vector<double>& x) {
    const double f1 = (x[0] - 0.3) * (x[0] - 0.3) + 0.5 * x[1] + 0.1 * x[2];
    const double f2 = (x[1] - 0.7) * (x[1] - 0.7) + 0.25 * x[0];
    return std::vector<double>{f1, f2};
  };
  opt::MoboConfig config;

  SyntheticProblem() {
    config.num_initial = 5;
    config.num_iterations = 7;
    config.pool_size = 16;
    config.seed = 9;
  }

  opt::MoboEngine make() const { return {config, 2, sampler, objectives}; }
};

void expect_histories_equal(const std::vector<opt::Observation>& a,
                            const std::vector<opt::Observation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "design point " << i;
    EXPECT_EQ(a[i].objectives, b[i].objectives) << "objectives " << i;
  }
}

void expect_fronts_equal(const opt::ParetoFront& a, const opt::ParetoFront& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.points().size(); ++i) {
    EXPECT_EQ(a.points()[i].id, b.points()[i].id);
    EXPECT_EQ(a.points()[i].objectives, b.points()[i].objectives);
  }
}

TEST(MoboSnapshotTest, SerializeDeserializeRoundTrip) {
  SyntheticProblem problem;
  opt::MoboEngine engine = problem.make();
  engine.step(8);  // warm-up done, models fitted, mid-BO
  const opt::MoboSnapshot snapshot = engine.snapshot();
  EXPECT_TRUE(snapshot.models_ready);
  ASSERT_EQ(snapshot.gps.size(), 2u);

  const opt::MoboSnapshot back = opt::MoboSnapshot::deserialize(snapshot.serialize());
  EXPECT_EQ(back.num_objectives, snapshot.num_objectives);
  EXPECT_EQ(back.num_initial, snapshot.num_initial);
  EXPECT_EQ(back.num_iterations, snapshot.num_iterations);
  EXPECT_EQ(back.pool_size, snapshot.pool_size);
  EXPECT_EQ(back.seed, snapshot.seed);
  EXPECT_EQ(back.refit_period, snapshot.refit_period);
  EXPECT_EQ(back.evaluations_done, snapshot.evaluations_done);
  EXPECT_EQ(back.iterations_since_refit, snapshot.iterations_since_refit);
  EXPECT_EQ(back.models_ready, snapshot.models_ready);
  EXPECT_EQ(back.rng_state, snapshot.rng_state);
  ASSERT_EQ(back.gps.size(), snapshot.gps.size());
  for (std::size_t k = 0; k < back.gps.size(); ++k) {
    EXPECT_EQ(back.gps[k].signal_variance, snapshot.gps[k].signal_variance);
    EXPECT_EQ(back.gps[k].length_scale, snapshot.gps[k].length_scale);
    EXPECT_EQ(back.gps[k].noise_variance, snapshot.gps[k].noise_variance);
  }
  expect_histories_equal(back.history, snapshot.history);
}

TEST(MoboSnapshotTest, DeserializeRejectsStructuralDefects) {
  const std::string payload = tiny_snapshot(2).serialize();
  EXPECT_THROW(opt::MoboSnapshot::deserialize(""), std::invalid_argument);
  EXPECT_THROW(opt::MoboSnapshot::deserialize("garbage\n" + payload),
               std::invalid_argument);
  EXPECT_THROW(opt::MoboSnapshot::deserialize(payload + "trailing garbage\n"),
               std::invalid_argument);
  EXPECT_THROW(opt::MoboSnapshot::deserialize(payload.substr(0, payload.size() / 2)),
               std::invalid_argument);
}

TEST(MoboSnapshotTest, DeserializeRejectsAnotherPosteriorMode) {
  // The config line's sixth field is always 1 (the incremental posterior);
  // a snapshot carrying any other value is rejected by name.
  const std::string payload = tiny_snapshot(2).serialize();
  const std::size_t begin = payload.find("\nconfig ") + 1;
  const std::size_t end = payload.find('\n', begin);
  const std::string line = payload.substr(begin, end - begin);
  ASSERT_EQ(line.substr(line.rfind(' ')), " 1");
  for (const char* mode : {"0", "2"}) {
    const std::string edited = payload.substr(0, end - 1) + mode + payload.substr(end);
    try {
      opt::MoboSnapshot::deserialize(edited);
      ADD_FAILURE() << "posterior mode " << mode << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("unsupported posterior mode"), std::string::npos)
          << error.what();
    }
  }
  EXPECT_NO_THROW(opt::MoboSnapshot::deserialize(payload));
}

TEST(MoboResume, ContinuationIsBitIdentical) {
  SyntheticProblem problem;
  opt::MoboEngine reference = problem.make();
  reference.step(12);

  // Interrupt after 8 evaluations, round-trip the snapshot through its text
  // payload (as the checkpoint file does), restore into a fresh engine and
  // finish the budget.
  opt::MoboEngine first = problem.make();
  first.step(8);
  const opt::MoboSnapshot snapshot =
      opt::MoboSnapshot::deserialize(first.snapshot().serialize());
  opt::MoboEngine resumed = problem.make();
  resumed.restore(snapshot);
  EXPECT_EQ(resumed.evaluations_done(), 8u);
  resumed.step(4);

  expect_histories_equal(resumed.history(), reference.history());
  expect_fronts_equal(resumed.front(), reference.front());
}

TEST(MoboResume, SeededEngineResumesBitIdentically) {
  SyntheticProblem problem;
  const std::vector<std::vector<double>> seed_xs = {{0.1, 0.2, 0.3}, {0.8, 0.5, 0.2}};
  std::vector<opt::Observation> seeds;
  for (const std::vector<double>& x : seed_xs) seeds.push_back({x, problem.objectives(x)});

  opt::MoboEngine reference = problem.make();
  reference.seed_observations(seeds);
  reference.step(8);

  opt::MoboEngine first = problem.make();
  first.seed_observations(seeds);
  first.step(5);
  const opt::MoboSnapshot snapshot =
      opt::MoboSnapshot::deserialize(first.snapshot().serialize());
  // restore() carries the seeded observations inside the history, so the
  // fresh engine needs no seed_observations() call of its own.
  opt::MoboEngine resumed = problem.make();
  resumed.restore(snapshot);
  resumed.step(3);

  expect_histories_equal(resumed.history(), reference.history());
  expect_fronts_equal(resumed.front(), reference.front());
}

TEST(MoboRestore, RejectsMismatchedConfigAndLateRestore) {
  SyntheticProblem problem;
  opt::MoboEngine source = problem.make();
  source.step(3);
  const opt::MoboSnapshot snapshot = source.snapshot();

  SyntheticProblem other_seed;
  other_seed.config.seed = 10;
  opt::MoboEngine wrong_seed = other_seed.make();
  EXPECT_THROW(wrong_seed.restore(snapshot), std::invalid_argument);

  opt::MoboEngine wrong_arity(problem.config, 3, problem.sampler,
                              [](const std::vector<double>& x) {
                                return std::vector<double>{x[0], x[1], x[2]};
                              });
  EXPECT_THROW(wrong_arity.restore(snapshot), std::invalid_argument);

  opt::MoboEngine started = problem.make();
  started.step(1);
  EXPECT_THROW(started.restore(snapshot), std::logic_error);
}

// ---- NasDriver checkpoint loop ----------------------------------------------

class NasCheckpointTest : public ::testing::Test {
 protected:
  NasCheckpointTest()
      : simulator_(perf::jetson_tx2_gpu()),
        oracle_(simulator_),
        comm_(comm::WirelessTechnology::kWifi, 5.0),
        evaluator_(oracle_, comm_) {
    core::clear_interrupt();
  }
  ~NasCheckpointTest() override { core::clear_interrupt(); }

  core::NasConfig small_config(unsigned seed = 1) const {
    core::NasConfig config;
    config.mobo.num_initial = 6;
    config.mobo.num_iterations = 6;
    config.mobo.pool_size = 32;
    config.mobo.seed = seed;
    config.tu_mbps = 3.0;
    return config;
  }

  core::NasResult run(const core::NasConfig& config) {
    core::NasDriver driver(space_, evaluator_, accuracy_, config);
    return driver.run();
  }

  static void expect_results_equal(const core::NasResult& a, const core::NasResult& b) {
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      EXPECT_EQ(a.history[i].genotype, b.history[i].genotype) << "candidate " << i;
      EXPECT_EQ(a.history[i].name, b.history[i].name);
      EXPECT_EQ(a.history[i].objectives(), b.history[i].objectives()) << "candidate " << i;
    }
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t i = 0; i < a.front.points().size(); ++i) {
      EXPECT_EQ(a.front.points()[i].id, b.front.points()[i].id);
      EXPECT_EQ(a.front.points()[i].objectives, b.front.points()[i].objectives);
    }
  }

  static std::size_t snapshot_evaluations(const std::string& path) {
    const std::string name = fs::path(path).filename().string();
    return static_cast<std::size_t>(std::stoul(name.substr(9, 8)));
  }

  core::SearchSpace space_;
  perf::DeviceSimulator simulator_;
  perf::SimulatorOracle oracle_;
  comm::CommModel comm_;
  core::DeploymentEvaluator evaluator_;
  core::SurrogateAccuracyModel accuracy_;
};

TEST_F(NasCheckpointTest, CheckpointingDoesNotPerturbTheTrajectory) {
  const core::NasResult reference = run(small_config());

  const std::string dir = temp_path("nas_ckpt_same");
  fs::remove_all(dir);
  core::NasConfig config = small_config();
  config.checkpoint.directory = dir;
  config.checkpoint.period = 4;
  config.checkpoint.keep = 50;
  const core::NasResult checkpointed = run(config);

  expect_results_equal(checkpointed, reference);
  const std::vector<std::string> files = core::list_run_checkpoints(dir);
  ASSERT_FALSE(files.empty());
  // Snapshots at end-of-warm-up, every period after, and the final state.
  EXPECT_EQ(snapshot_evaluations(files.front()), 6u);
  EXPECT_EQ(snapshot_evaluations(files.back()), 12u);
  fs::remove_all(dir);
}

TEST_F(NasCheckpointTest, ResumeFromMidRunCheckpointIsBitIdentical) {
  const core::NasResult reference = run(small_config());

  const std::string dir = temp_path("nas_ckpt_resume");
  fs::remove_all(dir);
  core::NasConfig config = small_config();
  config.checkpoint.directory = dir;
  config.checkpoint.period = 2;
  config.checkpoint.keep = 50;
  run(config);

  // Simulate the crash: drop every rotation past 8 evaluations so the
  // resume genuinely continues from mid-run state.
  for (const std::string& path : core::list_run_checkpoints(dir)) {
    if (snapshot_evaluations(path) > 8) fs::remove(path);
  }
  core::NasConfig resume = small_config();
  resume.resume_run = dir;
  const core::NasResult resumed = run(resume);
  EXPECT_FALSE(resumed.interrupted);
  expect_results_equal(resumed, reference);

  // The exported frontier is byte-identical to the uninterrupted run's.
  const std::string ref_csv = temp_path("front_ref.csv");
  const std::string res_csv = temp_path("front_res.csv");
  core::save_front_csv(reference, space_, ref_csv);
  core::save_front_csv(resumed, space_, res_csv);
  EXPECT_EQ(read_file(ref_csv), read_file(res_csv));
  std::remove(ref_csv.c_str());
  std::remove(res_csv.c_str());
  fs::remove_all(dir);
}

TEST_F(NasCheckpointTest, InterruptFlushesACheckpointAndResumesToTheSameResult) {
  const core::NasResult reference = run(small_config());

  const std::string dir = temp_path("nas_ckpt_interrupt");
  fs::remove_all(dir);
  core::NasConfig config = small_config();
  config.checkpoint.directory = dir;
  config.checkpoint.period = 4;
  config.checkpoint.keep = 50;
  core::request_interrupt();
  const core::NasResult partial = run(config);
  core::clear_interrupt();
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.history.size(), reference.history.size());
  ASSERT_FALSE(core::list_run_checkpoints(dir).empty());

  core::NasConfig resume = small_config();
  resume.resume_run = dir;
  resume.checkpoint.directory = dir;
  resume.checkpoint.period = 4;
  resume.checkpoint.keep = 50;
  const core::NasResult resumed = run(resume);
  EXPECT_FALSE(resumed.interrupted);
  expect_results_equal(resumed, reference);
  fs::remove_all(dir);
}

TEST_F(NasCheckpointTest, WarmStartedRunResumesBitIdentically) {
  std::mt19937_64 rng(42);
  std::vector<core::Genotype> warm;
  for (int i = 0; i < 3; ++i) warm.push_back(space_.random(rng));

  core::NasConfig warm_config = small_config(2);
  warm_config.warm_start = warm;
  const core::NasResult reference = run(warm_config);

  const std::string dir = temp_path("nas_ckpt_warm");
  fs::remove_all(dir);
  core::NasConfig config = warm_config;
  config.checkpoint.directory = dir;
  config.checkpoint.period = 3;
  config.checkpoint.keep = 50;
  core::request_interrupt();
  const core::NasResult partial = run(config);
  core::clear_interrupt();
  EXPECT_TRUE(partial.interrupted);

  // Exact-state resume must not re-pass the warm-start genotypes — the
  // snapshot already contains those observations.
  core::NasConfig resume = small_config(2);
  resume.resume_run = dir;
  const core::NasResult resumed = run(resume);
  expect_results_equal(resumed, reference);
  fs::remove_all(dir);
}

TEST_F(NasCheckpointTest, ConfigValidation) {
  const std::string dir = temp_path("nas_ckpt_validation");
  fs::remove_all(dir);
  core::NasConfig config = small_config();
  config.checkpoint.directory = dir;
  config.checkpoint.period = 2;
  config.checkpoint.keep = 50;
  run(config);

  // warm_start and resume_run are mutually exclusive.
  std::mt19937_64 rng(5);
  core::NasConfig both = small_config();
  both.resume_run = dir;
  both.warm_start = {space_.random(rng)};
  EXPECT_THROW(run(both), std::invalid_argument);

  // Checkpoints and exact resume are MOBO-only.
  core::NasConfig random_strategy = small_config();
  random_strategy.strategy = core::SearchStrategy::kRandom;
  random_strategy.checkpoint.directory = dir;
  EXPECT_THROW(run(random_strategy), std::invalid_argument);
  core::NasConfig nsga2_strategy = small_config();
  nsga2_strategy.strategy = core::SearchStrategy::kNsga2;
  nsga2_strategy.resume_run = dir;
  EXPECT_THROW(run(nsga2_strategy), std::invalid_argument);

  // A snapshot taken under another engine configuration is rejected.
  core::NasConfig other_seed = small_config(7);
  other_seed.resume_run = dir;
  EXPECT_THROW(run(other_seed), std::invalid_argument);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace lens
