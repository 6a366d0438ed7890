#ifndef GANSWER_BENCH_BENCH_SUPPORT_H_
#define GANSWER_BENCH_BENCH_SUPPORT_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/kb_generator.h"
#include "datagen/phrase_dataset_generator.h"
#include "datagen/workload.h"
#include "nlp/lexicon.h"
#include "paraphrase/dictionary_builder.h"

namespace ganswer {
namespace bench {

/// Peak resident set size of this process in kilobytes, from the VmHWM
/// line of /proc/self/status (Linux only; 0 where unavailable). The
/// high-water mark is monotone over the process lifetime, so per-phase
/// deltas need a fresh child process per phase.
inline size_t ReadVmHwmKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Everything a bench binary needs: the KB, the phrase dataset with gold,
/// the mined and the verified dictionaries, and the question workload.
struct BenchWorld {
  datagen::KbGenerator::GeneratedKb kb;
  std::vector<datagen::PhraseWithGold> phrases;
  nlp::Lexicon lexicon;
  std::unique_ptr<paraphrase::ParaphraseDictionary> mined;
  std::unique_ptr<paraphrase::ParaphraseDictionary> verified;
  std::vector<datagen::GoldQuestion> workload;
  double kb_build_ms = 0;
  double mine_ms = 0;
};

inline BenchWorld BuildWorld(
    datagen::KbGenerator::Options kb_options = {},
    datagen::PhraseDatasetGenerator::Options phrase_options = {},
    paraphrase::DictionaryBuilder::Options mine_options = [] {
      paraphrase::DictionaryBuilder::Options o;
      o.max_path_length = 3;
      return o;
    }()) {
  BenchWorld w;
  WallTimer timer;
  auto kb = datagen::KbGenerator::Generate(kb_options);
  if (!kb.ok()) {
    std::fprintf(stderr, "KB generation failed: %s\n",
                 kb.status().ToString().c_str());
    std::abort();
  }
  w.kb = std::move(kb).value();
  w.kb_build_ms = timer.ElapsedMillis();

  w.phrases = datagen::PhraseDatasetGenerator::Generate(w.kb, phrase_options);
  auto dataset = datagen::PhraseDatasetGenerator::StripGold(w.phrases);

  timer.Restart();
  w.mined = std::make_unique<paraphrase::ParaphraseDictionary>(&w.lexicon);
  paraphrase::DictionaryBuilder builder(mine_options);
  Status st = builder.Build(w.kb.graph, dataset, w.mined.get());
  if (!st.ok()) {
    std::fprintf(stderr, "mining failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  w.mine_ms = timer.ElapsedMillis();

  w.verified = std::make_unique<paraphrase::ParaphraseDictionary>(&w.lexicon);
  datagen::VerifyDictionary(w.phrases, w.kb.graph, *w.mined,
                            w.verified.get());
  w.workload = datagen::WorkloadGenerator::Generate(w.kb, {});
  return w;
}

/// QALD-3-style per-question judgment and metrics.
enum class Verdict { kRight, kPartial, kWrong };

inline Verdict Judge(const datagen::GoldQuestion& q, bool is_ask,
                     bool ask_result, const std::vector<std::string>& answers) {
  if (q.is_ask) {
    if (!is_ask) return Verdict::kWrong;
    return ask_result == q.gold_ask ? Verdict::kRight : Verdict::kWrong;
  }
  if (answers.empty()) return Verdict::kWrong;
  std::vector<std::string> gold = q.gold_answers;
  std::sort(gold.begin(), gold.end());
  std::vector<std::string> got = answers;
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());
  if (got == gold) return Verdict::kRight;
  std::vector<std::string> inter;
  std::set_intersection(got.begin(), got.end(), gold.begin(), gold.end(),
                        std::back_inserter(inter));
  return inter.empty() ? Verdict::kWrong : Verdict::kPartial;
}

/// Per-question precision/recall in the QALD macro-average style.
struct PrEntry {
  double precision = 0;
  double recall = 0;
};

inline PrEntry PrecisionRecall(const datagen::GoldQuestion& q, bool is_ask,
                               bool ask_result,
                               const std::vector<std::string>& answers) {
  PrEntry out;
  if (q.is_ask) {
    bool right = is_ask && ask_result == q.gold_ask;
    out.precision = out.recall = right ? 1.0 : 0.0;
    return out;
  }
  if (answers.empty() || q.gold_answers.empty()) return out;
  std::vector<std::string> gold = q.gold_answers;
  std::sort(gold.begin(), gold.end());
  std::vector<std::string> got = answers;
  std::sort(got.begin(), got.end());
  got.erase(std::unique(got.begin(), got.end()), got.end());
  std::vector<std::string> inter;
  std::set_intersection(got.begin(), got.end(), gold.begin(), gold.end(),
                        std::back_inserter(inter));
  out.precision = static_cast<double>(inter.size()) / got.size();
  out.recall = static_cast<double>(inter.size()) / gold.size();
  return out;
}

/// \brief One machine-readable result line: a flat JSON object printed as
/// `BENCH_JSON {...}` on stdout.
///
/// The prefix makes the lines grep-able out of the human-readable tables,
/// so trajectory tooling can do `grep ^BENCH_JSON out.txt | cut -c12- >>
/// BENCH_<name>.json` and track phase timings, thread counts and KB sizes
/// across commits. Keys are emitted in insertion order; every line carries
/// the bench name as its first field.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) { Field("bench", bench); }

  JsonLine& Field(const std::string& key, const std::string& value) {
    AppendKey(key);
    body_ += '"';
    AppendEscaped(value);
    body_ += '"';
    return *this;
  }
  JsonLine& Field(const std::string& key, const char* value) {
    return Field(key, std::string(value));
  }
  JsonLine& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    AppendKey(key);
    body_ += buf;
    return *this;
  }
  JsonLine& Field(const std::string& key, size_t value) {
    AppendKey(key);
    body_ += std::to_string(value);
    return *this;
  }
  JsonLine& Field(const std::string& key, int value) {
    AppendKey(key);
    body_ += std::to_string(value);
    return *this;
  }
  JsonLine& Field(const std::string& key, bool value) {
    AppendKey(key);
    body_ += value ? "true" : "false";
    return *this;
  }

  /// Prints the line. Call once; the object is spent afterwards. Every
  /// line automatically carries the process's peak RSS so memory regressions
  /// show up in the same artifact as the timings.
  void Emit() {
    Field("vm_hwm_kb", ReadVmHwmKb());
    std::printf("BENCH_JSON {%s}\n", body_.c_str());
  }

 private:
  void AppendKey(const std::string& key) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    AppendEscaped(key);
    body_ += "\":";
  }
  void AppendEscaped(const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') body_ += '\\';
      if (c == '\n') {
        body_ += "\\n";
        continue;
      }
      body_ += c;
    }
  }

  std::string body_;
};

/// Prints a horizontal rule and a centered header, bench-report style.
inline void Header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace ganswer

#endif  // GANSWER_BENCH_BENCH_SUPPORT_H_
