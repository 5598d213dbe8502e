#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <typeinfo>
#include <unistd.h>

#include "model/checkpoint.hpp"
#include "model/transformer.hpp"
#include "tensor/ops.hpp"

namespace hm = hanayo::model;
namespace ht = hanayo::tensor;

namespace {

class CheckpointTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("hanayo_ckpt_test_" + std::to_string(::getpid()) + "_" +
              testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

}  // namespace

TEST_F(CheckpointTest, RoundTripFullModel) {
  const auto cfg = hm::ModelConfig::tiny(3, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  hm::StageModule a(descs, 0, static_cast<int>(descs.size()), 1, cfg.init_std);
  hm::StageModule b(descs, 0, static_cast<int>(descs.size()), 2, cfg.init_std);
  hm::save_checkpoint(path_, a.params());
  hm::load_checkpoint(path_, b.params());
  const auto pa = a.params(), pb = b.params();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(ht::max_abs_diff(pa[i]->value, pb[i]->value), 0.0f) << pa[i]->name;
  }
}

TEST_F(CheckpointTest, PartialLoadBySlice) {
  // Save the full model; load only a middle stage's slice — the
  // repartitioning scenario.
  const auto cfg = hm::ModelConfig::tiny(4, 16, 2, 31, 8);
  const auto descs = cfg.layer_descs();
  hm::StageModule full(descs, 0, static_cast<int>(descs.size()), 5, cfg.init_std);
  hm::save_checkpoint(path_, full.params());
  hm::StageModule slice(descs, 2, 4, 99, cfg.init_std);  // different seed
  hm::load_checkpoint(path_, slice.params());
  // The slice now matches the full model's layers 2..3.
  hm::StageModule ref(descs, 2, 4, 5, cfg.init_std);
  const auto ps = slice.params(), pr = ref.params();
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(ht::max_abs_diff(ps[i]->value, pr[i]->value), 0.0f);
  }
}

TEST_F(CheckpointTest, NamesListed) {
  const auto cfg = hm::ModelConfig::tiny(1, 8, 2, 17, 4);
  const auto descs = cfg.layer_descs();
  hm::StageModule m(descs, 0, static_cast<int>(descs.size()), 1, cfg.init_std);
  hm::save_checkpoint(path_, m.params());
  const auto names = hm::checkpoint_names(path_);
  EXPECT_EQ(names.size(), m.params().size());
}

TEST_F(CheckpointTest, MissingParamThrows) {
  const auto cfg = hm::ModelConfig::tiny(1, 8, 2, 17, 4);
  const auto descs = cfg.layer_descs();
  hm::StageModule head_only(descs, 0, 1, 1, cfg.init_std);
  hm::save_checkpoint(path_, head_only.params());
  hm::StageModule full(descs, 0, static_cast<int>(descs.size()), 1, cfg.init_std);
  EXPECT_THROW(hm::load_checkpoint(path_, full.params()), std::runtime_error);
}

TEST_F(CheckpointTest, ShapeMismatchThrows) {
  hm::Param p1("x", ht::Tensor({2, 3}, 1.0f));
  hm::save_checkpoint(path_, {&p1});
  hm::Param p2("x", ht::Tensor({3, 2}));
  EXPECT_THROW(hm::load_checkpoint(path_, {&p2}), std::runtime_error);
}

TEST_F(CheckpointTest, BadMagicThrows) {
  {
    std::ofstream os(path_, std::ios::binary);
    os << "NOTACKPT........";
  }
  hm::Param p("x", ht::Tensor({1}));
  EXPECT_THROW(hm::load_checkpoint(path_, {&p}), std::runtime_error);
}

TEST_F(CheckpointTest, MissingFileThrows) {
  hm::Param p("x", ht::Tensor({1}));
  EXPECT_THROW(hm::load_checkpoint("/nonexistent/dir/x.bin", {&p}),
               std::runtime_error);
  EXPECT_THROW(hm::save_checkpoint("/nonexistent/dir/x.bin", {&p}),
               std::runtime_error);
}

TEST_F(CheckpointTest, SaveFailureKeepsPreviousCheckpoint) {
  // A save that throws part-way (here on a null record, after the first
  // record is written) must leave the last good checkpoint loadable and no
  // temporary behind.
  const auto cfg = hm::ModelConfig::tiny(2, 8, 2, 17, 4);
  const auto descs = cfg.layer_descs();
  hm::StageModule good(descs, 0, static_cast<int>(descs.size()), 3, cfg.init_std);
  hm::save_checkpoint(path_, good.params());
  const ht::Tensor t({2, 2}, 1.0f);
  EXPECT_THROW(hm::save_checkpoint(path_, {{"t", &t}, {"null", nullptr}}),
               std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  hm::StageModule back(descs, 0, static_cast<int>(descs.size()), 4, cfg.init_std);
  hm::load_checkpoint(path_, back.params());
  const auto pg = good.params(), pb = back.params();
  for (size_t i = 0; i < pg.size(); ++i) {
    EXPECT_EQ(ht::max_abs_diff(pg[i]->value, pb[i]->value), 0.0f) << pg[i]->name;
  }
}

namespace {

void write_u64(std::ofstream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

// A one-record file: magic, count 1, then the record header fields given
// (name length, name, rank, dims) and 16 bytes of data.
void write_header(const std::string& path, uint64_t name_len,
                  const std::string& name, uint64_t ndims,
                  const std::vector<uint64_t>& dims) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write("HANAYO01", 8);
  write_u64(os, 1);
  write_u64(os, name_len);
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  write_u64(os, ndims);
  for (uint64_t d : dims) write_u64(os, d);
  const float data[4] = {1, 2, 3, 4};
  os.write(reinterpret_cast<const char*>(data), sizeof data);
}

void expect_runtime_error_on_load(const std::string& path) {
  hm::Param p("x", ht::Tensor({2, 2}));
  EXPECT_THROW(hm::load_all(path), std::runtime_error);
  EXPECT_THROW(hm::checkpoint_names(path), std::runtime_error);
  EXPECT_THROW(hm::load_checkpoint(path, {&p}), std::runtime_error);
}

}  // namespace

TEST_F(CheckpointTest, CorruptHeaderThrowsRuntimeError) {
  // Lengths a corrupt header declares must be bounded by the file before
  // anything is allocated from them: std::runtime_error, not bad_alloc.
  write_header(path_, uint64_t{1} << 62, "x", 2, {2, 2});
  expect_runtime_error_on_load(path_);
  write_header(path_, 1, "x", 2, {uint64_t{1} << 40, uint64_t{1} << 20});
  expect_runtime_error_on_load(path_);
  write_header(path_, 1, "x", 2, {uint64_t{1} << 32, uint64_t{1} << 32});
  expect_runtime_error_on_load(path_);  // the product wraps to 0 in 64 bits
  write_header(path_, 1, "x", 2, {0, uint64_t{1} << 62});
  expect_runtime_error_on_load(path_);
  write_header(path_, 1, "x", uint64_t{1} << 40, {2, 2});
  expect_runtime_error_on_load(path_);
  // The well-formed version of the same file loads.
  write_header(path_, 1, "x", 2, {2, 2});
  EXPECT_EQ(hm::load_all(path_).at("x").numel(), 4);
}

TEST_F(CheckpointTest, NamesListedInFileOrder) {
  const ht::Tensor a({1}, 1.0f), b({2}, 2.0f), c({3}, 3.0f);
  hm::save_checkpoint(path_, {{"zeta", &a}, {"alpha", &b}, {"mid", &c}});
  EXPECT_EQ(hm::checkpoint_names(path_),
            (std::vector<std::string>{"zeta", "alpha", "mid"}));
  // Two records of one name make the file ambiguous: rejected on read.
  hm::save_checkpoint(path_, {{"w", &a}, {"w", &b}});
  EXPECT_THROW(hm::checkpoint_names(path_), std::runtime_error);
  EXPECT_THROW(hm::load_all(path_), std::runtime_error);
}

TEST_F(CheckpointTest, CorruptFilesLoadOrThrowRuntimeError) {
  // Seeded fuzz over a saved tiny model: truncate the file or flip a few
  // bytes, then load it every way. Each load either succeeds or throws
  // std::runtime_error; nothing else may escape.
  const auto cfg = hm::ModelConfig::tiny(1, 8, 2, 17, 4);
  const auto descs = cfg.layer_descs();
  hm::StageModule m(descs, 0, static_cast<int>(descs.size()), 1, cfg.init_std);
  hm::save_checkpoint(path_, m.params());
  std::string bytes;
  {
    std::ifstream is(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 64u);
  std::mt19937_64 rng(2026);
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad = bytes;
    if (trial % 2 == 0) {
      bad.resize(rng() % bad.size());
    } else {
      for (int f = 1 + static_cast<int>(rng() % 4); f > 0; --f)
        bad[rng() % bad.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    {
      std::ofstream os(path_, std::ios::binary | std::ios::trunc);
      os.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    try {
      hm::load_all(path_);
      hm::checkpoint_names(path_);
      hm::load_checkpoint(path_, m.params());
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "trial " << trial << " threw " << typeid(e).name() << ": "
             << e.what();
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}
