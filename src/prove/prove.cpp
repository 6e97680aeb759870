#include "prove/prove.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/error.hpp"
#include "common/json_string.hpp"

namespace bladed::prove {
namespace {

void append_interval(std::ostringstream& os, const check::Interval& iv) {
  os << "\"lo\":" << iv.lo << ",\"hi\":" << iv.hi;
}

/// Shared range check for license_translation and the engine hook.
bool range_licensed(const ProveResult& res, std::size_t begin, std::size_t end,
                    std::string* why) {
  if (!res.valid) {
    if (why != nullptr) *why = "structurally invalid program: " + res.error;
    return false;
  }
  for (const AccessProof& a : res.accesses) {
    if (a.pc < begin || a.pc >= end) continue;
    if (a.kind == ProofKind::kUnproven) {
      if (why != nullptr) {
        *why = std::string(a.is_store ? "store" : "load") + " at pc " +
               std::to_string(a.pc) + " unproven: " + a.detail;
      }
      return false;
    }
  }
  return true;
}

}  // namespace

ProveResult prove_program(const cms::Program& prog, std::size_t mem_doubles) {
  ProveResult res;
  res.mem_doubles = mem_doubles;
  try {
    cms::validate(prog, mem_doubles);
  } catch (const std::exception& e) {
    res.error = e.what();
    return res;
  }
  res.valid = true;
  if (prog.empty()) return res;

  const Context ctx(prog, mem_doubles);
  const std::vector<LoopBound> bounds = compute_loop_bounds(ctx);
  res.accesses = prove_accesses(ctx, bounds);
  res.aliases = all_alias_facts(ctx);
  res.regions = form_regions(ctx, bounds, res.accesses);

  res.access_count = res.accesses.size();
  for (const AccessProof& a : res.accesses) {
    if (a.kind != ProofKind::kUnproven) ++res.proven_count;
  }
  res.proven_fraction =
      res.access_count == 0
          ? 1.0
          : static_cast<double>(res.proven_count) /
                static_cast<double>(res.access_count);

  for (const RegionLicense& r : res.regions) {
    if (r.licensed) ++res.licensed_region_count;
  }

  // Hot-cycle coverage: instructions of natural-loop blocks that sit inside
  // some licensed region, over all natural-loop instructions.
  std::size_t loop_instrs = 0;
  std::size_t covered = 0;
  for (std::size_t b = 0; b < ctx.cfg().blocks().size(); ++b) {
    bool in_loop = false;
    for (const check::NaturalLoop& loop : ctx.loops()) {
      if (loop.contains(b)) {
        in_loop = true;
        break;
      }
    }
    if (!in_loop) continue;
    const check::BasicBlock& bb = ctx.cfg().blocks()[b];
    loop_instrs += bb.end - bb.begin;
    for (const RegionLicense& r : res.regions) {
      if (r.licensed &&
          std::find(r.blocks.begin(), r.blocks.end(), b) != r.blocks.end()) {
        covered += bb.end - bb.begin;
        break;
      }
    }
  }
  res.hot_coverage = loop_instrs == 0 ? 1.0
                                      : static_cast<double>(covered) /
                                            static_cast<double>(loop_instrs);
  return res;
}

std::string to_json(const ProveResult& res, const std::string& name) {
  std::ostringstream os;
  os << "{\"schema\":\"bladed-prove-v1\",\"program\":" << json_string(name)
     << ",\"mem_doubles\":" << res.mem_doubles << ",\"valid\":"
     << (res.valid ? "true" : "false");
  if (!res.valid) {
    os << ",\"error\":" << json_string(res.error) << "}";
    return os.str();
  }

  os << ",\"accesses\":[";
  for (std::size_t i = 0; i < res.accesses.size(); ++i) {
    const AccessProof& a = res.accesses[i];
    if (i != 0) os << ",";
    os << "{\"pc\":" << a.pc << ",\"kind\":\""
       << (a.is_store ? "store" : "load") << "\",\"proof\":\""
       << to_string(a.kind) << "\",";
    if (a.kind != ProofKind::kUnproven) {
      append_interval(os, a.addr);
      os << ",";
    }
    os << "\"detail\":" << json_string(a.detail) << "}";
  }

  os << "],\"alias_pairs\":[";
  for (std::size_t i = 0; i < res.aliases.size(); ++i) {
    const AliasFact& f = res.aliases[i];
    if (i != 0) os << ",";
    os << "{\"a\":" << f.pc_a << ",\"b\":" << f.pc_b << ",\"verdict\":\""
       << to_string(f.result.verdict) << "\",\"universal\":"
       << (f.result.universal ? "true" : "false") << ",\"reason\":\""
       << f.result.reason << "\"}";
  }

  os << "],\"regions\":[";
  for (std::size_t i = 0; i < res.regions.size(); ++i) {
    const RegionLicense& r = res.regions[i];
    if (i != 0) os << ",";
    os << "{\"entry_pc\":" << r.entry_pc << ",\"blocks\":[";
    for (std::size_t j = 0; j < r.blocks.size(); ++j) {
      if (j != 0) os << ",";
      os << r.blocks[j];
    }
    os << "],\"instructions\":" << r.instr_count << ",\"loop\":"
       << (r.is_loop ? "true" : "false") << ",\"max_trips\":" << r.max_trips
       << ",\"licensed\":" << (r.licensed ? "true" : "false")
       << ",\"accesses\":" << r.access_count << ",\"unproven\":[";
    for (std::size_t j = 0; j < r.unproven_pcs.size(); ++j) {
      if (j != 0) os << ",";
      os << r.unproven_pcs[j];
    }
    os << "],\"no_alias_pairs\":" << r.no_alias_pairs
       << ",\"must_alias_pairs\":" << r.must_alias_pairs
       << ",\"may_alias_pairs\":" << r.may_alias_pairs << "}";
  }

  os << "],\"summary\":{\"accesses\":" << res.access_count << ",\"proven\":"
     << res.proven_count << ",\"proven_fraction\":" << res.proven_fraction
     << ",\"regions\":" << res.regions.size() << ",\"licensed_regions\":"
     << res.licensed_region_count << ",\"hot_coverage\":" << res.hot_coverage
     << "}}";
  return os.str();
}

bool license_translation(const cms::Program& prog, std::size_t begin,
                         std::size_t end, std::size_t mem_doubles,
                         std::string* why) {
  if (begin >= end || end > prog.size()) {
    if (why != nullptr) *why = "invalid pc range";
    return false;
  }
  return range_licensed(prove_program(prog, mem_doubles), begin, end, why);
}

cms::RegionProver engine_prover() {
  // One analysis per distinct (program, memory size); the engine invokes
  // the hook once per hot block. Engines run single-threaded, so a plain
  // map shared by the copies of this lambda suffices.
  auto cache = std::make_shared<
      std::unordered_map<std::uint64_t, std::shared_ptr<const ProveResult>>>();
  return [cache](const cms::Program& prog, std::size_t begin, std::size_t end,
                 std::size_t mem_doubles, std::string* why) {
    if (begin >= end || end > prog.size()) {
      if (why != nullptr) *why = "invalid pc range";
      return false;
    }
    // A key collision could hand one program another's license; at 64 bits
    // that needs billions of distinct programs per process.
    const std::uint64_t key = cms::content_hash(prog, mem_doubles);
    std::shared_ptr<const ProveResult> res;
    const auto it = cache->find(key);
    if (it != cache->end()) {
      res = it->second;
    } else {
      res = std::make_shared<const ProveResult>(
          prove_program(prog, mem_doubles));
      (*cache)[key] = res;
    }
    return range_licensed(*res, begin, end, why);
  };
}

}  // namespace bladed::prove
