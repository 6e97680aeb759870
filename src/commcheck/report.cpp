#include "commcheck/report.hpp"

#include <algorithm>

#include "common/json_string.hpp"

namespace bladed::commcheck {

void Verdict::add(std::string code, std::string message,
                  std::vector<int> ranks) {
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  findings_.push_back(
      {std::move(code), std::move(message), std::move(ranks)});
}

bool Verdict::has(const std::string& code) const {
  return std::any_of(findings_.begin(), findings_.end(),
                     [&](const Finding& f) { return f.code == code; });
}

std::size_t Verdict::count(const std::string& code) const {
  return static_cast<std::size_t>(
      std::count_if(findings_.begin(), findings_.end(),
                    [&](const Finding& f) { return f.code == code; }));
}

std::string Verdict::to_string() const {
  if (findings_.empty()) return "commcheck: clean\n";
  std::string out;
  for (const Finding& f : findings_) {
    out += "finding[" + f.code + "]";
    if (!f.ranks.empty()) {
      out += " ranks=";
      for (std::size_t i = 0; i < f.ranks.size(); ++i) {
        if (i) out += ',';
        out += std::to_string(f.ranks[i]);
      }
    }
    out += ": " + f.message + "\n";
  }
  return out;
}

std::string Verdict::to_json() const {
  std::string out = "{\"clean\":";
  out += findings_.empty() ? "true" : "false";
  out += ",\"findings\":[";
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    const Finding& f = findings_[i];
    if (i) out += ',';
    out += "{\"code\":" + json_string(f.code) + ",\"ranks\":[";
    for (std::size_t j = 0; j < f.ranks.size(); ++j) {
      if (j) out += ',';
      out += std::to_string(f.ranks[j]);
    }
    out += "],\"message\":" + json_string(f.message) + "}";
  }
  out += "]}";
  return out;
}

}  // namespace bladed::commcheck
