#include "analysis/prob_cli.hpp"

#include "sim/parse_number.hpp"

namespace coeff::analysis {

namespace {

/// Strict integer parse (sim/parse_number.hpp): the whole token must be
/// a decimal number that fits an int64 (atoll's silent truncation is
/// exactly what a fuzzer would exploit into an out-of-range bin count).
bool parse_int(const std::string& text, std::int64_t& out) {
  const auto value = sim::parse_number<std::int64_t>(text.c_str());
  if (!value.has_value()) return false;
  out = *value;
  return true;
}

}  // namespace

ProbCliParse parse_prob_cli(const std::vector<std::string>& args) {
  ProbCliParse parse;
  ProbCliOptions& opt = parse.options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* what) -> const std::string* {
      if (i + 1 >= args.size()) {
        parse.error = std::string(what) + " needs a value";
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--prob") {
      opt.prob = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
    } else if (arg == "--sarif") {
      const std::string* v = next("--sarif");
      if (v == nullptr) return parse;
      if (v->empty()) {
        parse.error = "--sarif path must not be empty";
        return parse;
      }
      opt.sarif_path = *v;
    } else if (arg == "--campaign") {
      const std::string* v = next("--campaign");
      if (v == nullptr) return parse;
      if (v->empty()) {
        parse.error = "--campaign directory must not be empty";
        return parse;
      }
      opt.campaign_dir = *v;
    } else if (arg == "--quantum-us") {
      const std::string* v = next("--quantum-us");
      if (v == nullptr) return parse;
      if (!parse_int(*v, opt.quantum_us) || opt.quantum_us < 1 ||
          opt.quantum_us > 1'000'000) {
        parse.error = "--quantum-us must be an integer in [1, 1000000]";
        return parse;
      }
    } else if (arg == "--max-bins") {
      const std::string* v = next("--max-bins");
      if (v == nullptr) return parse;
      if (!parse_int(*v, opt.max_bins) || opt.max_bins < 16 ||
          opt.max_bins > 1'048'576) {
        parse.error = "--max-bins must be an integer in [16, 1048576]";
        return parse;
      }
    } else if (arg == "--no-dyn") {
      opt.no_dyn = true;
    } else if (arg == "--dyn-max-slips") {
      const std::string* v = next("--dyn-max-slips");
      if (v == nullptr) return parse;
      if (!parse_int(*v, opt.dyn_max_slips) || opt.dyn_max_slips < 1 ||
          opt.dyn_max_slips > 1'024) {
        parse.error = "--dyn-max-slips must be an integer in [1, 1024]";
        return parse;
      }
    } else {
      // Not ours: forward to the base experiment parser. Value-taking
      // base flags keep their value adjacent because both tokens pass
      // through in order.
      parse.passthrough.push_back(arg);
    }
  }
  if (!opt.prob && !opt.help) {
    parse.error = "analyze requires --prob (the probabilistic WCRT pass)";
  }
  return parse;
}

}  // namespace coeff::analysis
