// Port-model explorer: run any built-in kernel trace through the paper's
// Figure-2 port model and print its top-down profile — the tool behind
// the micro-architecture figures.
//
// Usage: ./examples/topdown_explorer [kernel] [machine]
//   kernel : arrange-extract | arrange-apcm | gamma | alphabeta | ext |
//            decode | ofdm | scramble | demap | ratematch | dci | all
//            (default)
//   machine: wimpy | beefy (default)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/kernels.h"
#include "sim/port_sim.h"

using namespace vran;
using namespace vran::sim;

int main(int argc, char** argv) {
  const std::string kernel = argc > 1 ? argv[1] : "all";
  const std::string machine = argc > 2 ? argv[2] : "beefy";

  const PortSimulator psim(paper_machine(
      machine == "wimpy" ? wimpy_cache() : beefy_cache()));
  std::printf("machine: %s (paper Fig. 2 ports: SIMD {0,1,2}, scalar "
              "{0,1,2,3}, load {4,5}, store {6,7})\n\n",
              machine.c_str());

  struct Entry {
    const char* name;
    Trace trace;
  };
  std::vector<Entry> entries;
  const int k = 6144;
  const auto want = [&](const char* n) {
    return kernel == "all" || kernel == n;
  };
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const std::string base = isa_name(isa);
    if (want("arrange-extract")) {
      entries.push_back({strdup(("arrange-extract/" + base).c_str()),
                         trace_arrange(arrange::Method::kExtract, isa,
                                       arrange::Order::kCanonical, 8192)});
    }
    if (want("arrange-apcm")) {
      entries.push_back({strdup(("arrange-apcm/" + base).c_str()),
                         trace_arrange(arrange::Method::kApcm, isa,
                                       arrange::Order::kBatched, 8192)});
    }
  }
  if (want("gamma")) {
    entries.push_back({"gamma", trace_turbo_gamma(IsaLevel::kSse41, k)});
  }
  if (want("alphabeta")) {
    entries.push_back(
        {"alphabeta", trace_turbo_alpha_beta(IsaLevel::kSse41, k)});
  }
  if (want("ext")) {
    entries.push_back({"ext", trace_turbo_ext(IsaLevel::kSse41, k)});
  }
  if (want("decode")) {
    entries.push_back({"decode", trace_turbo_decode(IsaLevel::kSse41, k, 4,
                                                    arrange::Method::kExtract)});
  }
  if (want("ofdm")) entries.push_back({"ofdm", trace_ofdm(512, 4)});
  if (want("scramble")) {
    entries.push_back({"scramble", trace_scramble(IsaLevel::kSse41, 20000)});
  }
  if (want("demap")) {
    entries.push_back({"demap", trace_demap(IsaLevel::kSse41, 7200)});
  }
  if (want("ratematch")) {
    entries.push_back(
        {"ratematch", trace_rate_match(IsaLevel::kSse41, k, 20000)});
    entries.push_back(
        {"ratedematch", trace_rate_dematch(IsaLevel::kSse41, k, 20000)});
  }
  if (want("dci")) entries.push_back({"dci", trace_dci(27)});

  if (entries.empty()) {
    std::fprintf(stderr, "unknown kernel '%s'\n", kernel.c_str());
    return 1;
  }
  for (const auto& e : entries) {
    print_topdown(e.name, psim.run(e.trace));
  }
  return 0;
}
