#ifndef GANSWER_TESTS_ORACLE_LARGE_KB_H_
#define GANSWER_TESTS_ORACLE_LARGE_KB_H_

#include <cstdlib>
#include <utility>

#include "datagen/kb_generator.h"

namespace ganswer {
namespace testing {

/// The KbGenerator KB at 4x the default entity counts, built once per test
/// binary: enough shared surname, city and suffix tokens that many phrases
/// have more than 32 linking candidates, and classes with thousands of
/// instances.
inline const datagen::KbGenerator::GeneratedKb& LargeKb() {
  static const datagen::KbGenerator::GeneratedKb* kb = [] {
    datagen::KbGenerator::Options options;
    options.num_families *= 4;
    options.num_films *= 4;
    options.num_cities *= 4;
    options.num_companies *= 4;
    options.num_books *= 4;
    options.num_teams *= 4;
    options.num_bands *= 4;
    auto generated = datagen::KbGenerator::Generate(options);
    if (!generated.ok()) std::abort();
    return new datagen::KbGenerator::GeneratedKb(std::move(generated).value());
  }();
  return *kb;
}

}  // namespace testing
}  // namespace ganswer

#endif  // GANSWER_TESTS_ORACLE_LARGE_KB_H_
