// Structured byte-fuzz driver for the snapshot container and the
// bounds-checked binary reader underneath it. A valid snapshot is built in
// memory once, then attacked with truncation and seeded byte mutations; the
// loader must return Status::Corruption (or, for a lucky mutation that
// keeps the CRCs valid, a fully-formed bundle) — never crash, never
// allocate absurdly, never read out of bounds. The .hex corpus pins
// handcrafted corrupt headers (bad magic, foreign byte order, stale
// version, lying section tables).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "fuzz/fuzz_support.h"
#include "paraphrase/paraphrase_dictionary.h"
#include "prop/prop_support.h"
#include "store/snapshot.h"
#include "test_support.h"

namespace ganswer {
namespace testing {
namespace {

struct SnapshotFixture {
  nlp::Lexicon lexicon;
  std::string bytes;  // v5, the writer's only output
};

const SnapshotFixture& Fixture() {
  static SnapshotFixture* fx = [] {
    auto* f = new SnapshotFixture();
    RandomGraphData data = BuildRandomGraph(1234);
    paraphrase::ParaphraseDictionary dict(&f->lexicon);
    if (!store::WriteSnapshot(data.graph, dict, &f->bytes).ok()) {
      std::abort();
    }
    return f;
  }();
  return *fx;
}

void DriveLoader(const std::string& bytes) {
  const SnapshotFixture& fx = Fixture();
  auto snap = store::ReadSnapshot(bytes, &fx.lexicon);
  if (snap.ok()) {
    // A mutation that survived every CRC must still hand back a finalized,
    // internally consistent bundle.
    ASSERT_NE(snap->graph, nullptr);
    EXPECT_TRUE(snap->graph->finalized());
  }
}

TEST(SnapshotFuzzTest, SurvivesRegressionCorpus) {
  std::vector<CorpusEntry> corpus = LoadCorpus("snapshot");
  ASSERT_FALSE(corpus.empty());
  for (const CorpusEntry& e : corpus) {
    SCOPED_TRACE("corpus file: " + e.name);
    auto snap = store::ReadSnapshot(e.bytes, &Fixture().lexicon);
    EXPECT_FALSE(snap.ok()) << e.name << " was crafted to be rejected";
  }
}

TEST(SnapshotFuzzTest, SurvivesEveryTruncation) {
  const std::string& bytes = Fixture().bytes;
  // Every prefix around the header plus sampled interior cuts.
  for (size_t n = 0; n < std::min<size_t>(bytes.size(), 64); ++n) {
    auto snap = store::ReadSnapshot(bytes.substr(0, n), &Fixture().lexicon);
    EXPECT_FALSE(snap.ok()) << "accepted a " << n << "-byte prefix";
  }
  for (size_t n = 64; n < bytes.size(); n += 97) {
    auto snap = store::ReadSnapshot(bytes.substr(0, n), &Fixture().lexicon);
    EXPECT_FALSE(snap.ok()) << "accepted a " << n << "-byte prefix";
  }
}

TEST(SnapshotFuzzTest, SurvivesMutatedSnapshots) {
  ForEachSeed(4200, 80, [](uint64_t seed) {
    Rng rng(seed);
    DriveLoader(MutateN(Fixture().bytes, rng, 1 + rng.Next(6)));
  });
}

// Mutations through the file loader: reading the container from disk must
// validate exactly as strictly as loading it from memory.
TEST(SnapshotFuzzTest, SurvivesMutatedSnapshotFiles) {
  const std::string path = "snapshot_fuzz_file.snap";
  ForEachSeed(4270, 30, [&](uint64_t seed) {
    Rng rng(seed);
    std::string mutated = MutateN(Fixture().bytes, rng, 1 + rng.Next(6));
    {
      std::ofstream out(path, std::ios::binary);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    auto snap = store::ReadSnapshotFile(path, &Fixture().lexicon);
    if (snap.ok()) {
      ASSERT_NE(snap->graph, nullptr);
      EXPECT_TRUE(snap->graph->finalized());
    }
  });
  std::remove(path.c_str());
}

// The decoder under the container: a primitive-read loop over arbitrary
// bytes must consume input without crashing and fail cleanly at the end.
TEST(SnapshotFuzzTest, BinaryReaderNeverOverreads) {
  ForEachSeed(4300, 40, [](uint64_t seed) {
    Rng rng(seed);
    std::string junk;
    size_t len = rng.Next(200);
    for (size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.Next(256)));
    }
    BinaryReader reader(junk);
    while (!reader.AtEnd()) {
      Status s;
      switch (rng.Next(6)) {
        case 0: {
          uint8_t v;
          s = reader.ReadU8(&v);
          break;
        }
        case 1: {
          uint32_t v;
          s = reader.ReadU32(&v);
          break;
        }
        case 2: {
          uint64_t v;
          s = reader.ReadU64(&v);
          break;
        }
        case 3: {
          uint64_t v;
          s = reader.ReadVarint(&v);
          break;
        }
        case 4: {
          std::string v;
          s = reader.ReadString(&v);
          break;
        }
        default: {
          std::vector<uint32_t> v;
          s = reader.ReadPodVector(&v);
          break;
        }
      }
      if (!s.ok()) {
        EXPECT_TRUE(s.IsCorruption()) << s.ToString();
        break;
      }
    }
  });
}

}  // namespace
}  // namespace testing
}  // namespace ganswer
