/// bladed-mc: stateless DPOR model checker for the engine's concurrency
/// protocols (src/mc/).
///
/// `--protocol handshake|recv-fastpath|slot-pool` explores every
/// inequivalent interleaving of the named protocol model (handshake runs
/// both of its scenarios) and exits 0 only if no interleaving deadlocks,
/// loses a wakeup, races, or breaks a model assertion. `--ranks` / `--slots`
/// scale the model (2-4 ranks, 1-2 slots); `--stats` prints explored /
/// pruned interleaving counts.
///
/// `--selftest` runs the seeded-bug corpus: every deliberately broken
/// protocol variant (dropped seq_cst, missing re-check after publish, early
/// slot release, ...) must be refuted with a counterexample trace, and every
/// shipped (bug-free) protocol must verify clean with a complete
/// exploration — the checker checking itself.
///
/// `--bug <name>` explores a seeded variant directly (exits 1 when the
/// violation is found, printing the replayable schedule); `--replay
/// a,b,c,...` re-executes one specific interleaving, e.g. a counterexample
/// schedule printed by a failing run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cli.hpp"
#include "mc/explorer.hpp"
#include "mc/protocols.hpp"

namespace {

using namespace bladed;

struct Args {
  bool selftest = false;
  bool stats = false;
  bool have_protocol = false;
  mc::ModelConfig cfg;
  std::string scenario;  // restrict handshake to one scenario by model name
  std::vector<int> replay;
  bool have_replay = false;
  long budget = 0;  // 0: Explorer default
};

constexpr const char* kUsage =
    "usage: bladed-mc --selftest [--stats]\n"
    "       bladed-mc --protocol handshake|recv-fastpath|slot-pool\n"
    "                 [--bug <name>] [--ranks 2-4] [--slots 1-2]\n"
    "                 [--scenario <model-name>] [--stats]\n"
    "                 [--budget <max-executions>] [--replay a,b,c,...]\n";

void usage() { std::fputs(kUsage, stderr); }

bool parse_schedule(const std::string& s, std::vector<int>* out) {
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t end = s.find(',', i);
    if (end == std::string::npos) end = s.size();
    try {
      out->push_back(std::stoi(s.substr(i, end - i)));
    } catch (...) {
      return false;
    }
    i = end + 1;
  }
  return !out->empty();
}

void print_stats(const mc::ExploreStats& st) {
  std::printf(
      "    stats: %ld interleavings explored, %ld sleep-set pruned, "
      "%ld transitions, %ld backtrack points, exploration %s\n",
      st.executions, st.sleep_pruned, st.transitions, st.backtrack_points,
      st.complete ? "complete" : "budget-capped");
}

/// Explore every model of one protocol config; returns the first violation.
struct ProtocolVerdict {
  bool violated = false;
  std::string model;
  mc::ExploreResult result;
  mc::ExploreStats total;
  bool all_complete = true;
};

ProtocolVerdict explore_protocol(const mc::ModelConfig& cfg,
                                 const std::string& only_scenario,
                                 long budget = 0) {
  ProtocolVerdict v;
  for (const mc::Model& m : mc::build_models(cfg)) {
    if (!only_scenario.empty() && m.name != only_scenario) continue;
    mc::Explorer::Options opt;
    if (budget > 0) opt.max_executions = budget;
    mc::Explorer ex(opt);
    mc::ExploreResult r = ex.explore(m);
    v.total.executions += r.stats.executions;
    v.total.transitions += r.stats.transitions;
    v.total.sleep_pruned += r.stats.sleep_pruned;
    v.total.backtrack_points += r.stats.backtrack_points;
    v.all_complete = v.all_complete && (r.stats.complete || r.violation);
    if (r.violation && !v.violated) {
      v.violated = true;
      v.model = m.name;
      v.result = std::move(r);
    }
  }
  v.total.complete = v.all_complete;
  return v;
}

void print_violation(const ProtocolVerdict& v, const mc::ModelConfig& cfg) {
  std::printf("  model %s (ranks=%d slots=%d bug=%s): %s\n", v.model.c_str(),
              cfg.ranks, cfg.slots, mc::bug_name(cfg.bug),
              v.result.violation->kind.c_str());
  std::printf("  %s\n", v.result.violation->message.c_str());
  for (const std::string& s : v.result.end_states) {
    std::printf("    %s\n", s.c_str());
  }
  std::printf("  counterexample schedule:\n%s", v.result.schedule.c_str());
}

int run_selftest(bool stats) {
  int failures = 0;

  // Every shipped protocol must verify clean, with the reduced state space
  // fully explored (so "0 violations" is a proof over the model, not a
  // sampling claim).
  struct CleanCase {
    mc::Protocol protocol;
    int ranks;
    int slots;
  };
  // Slot-pool at 3 ranks completes (40,228 interleavings at 1 slot) but
  // takes over a minute, past the selftest's budget; it stays reachable via
  // `--protocol slot-pool --ranks 3` on the CLI.
  const std::vector<CleanCase> clean = {
      {mc::Protocol::kHandshake, 2, 1},  {mc::Protocol::kHandshake, 3, 1},
      {mc::Protocol::kRecvFastpath, 2, 1}, {mc::Protocol::kRecvFastpath, 3, 1},
      {mc::Protocol::kSlotPool, 2, 1},   {mc::Protocol::kSlotPool, 2, 2},
  };
  for (const CleanCase& c : clean) {
    mc::ModelConfig cfg;
    cfg.protocol = c.protocol;
    cfg.ranks = c.ranks;
    cfg.slots = c.slots;
    const ProtocolVerdict v = explore_protocol(cfg, "");
    const bool ok = !v.violated && v.all_complete;
    std::printf("[%s] verify %s ranks=%d slots=%d (%ld interleavings)\n",
                ok ? "PASS" : "FAIL", mc::protocol_name(c.protocol), c.ranks,
                c.slots, v.total.executions);
    if (stats) print_stats(v.total);
    if (v.violated) {
      print_violation(v, cfg);
      ++failures;
    } else if (!v.all_complete) {
      std::printf("  exploration did not complete within budget\n");
      ++failures;
    }
  }

  // Every seeded bug must be refuted: the checker has to find at least one
  // interleaving that deadlocks, races, or breaks an assertion.
  for (const mc::SeededBug& sb : mc::seeded_bug_corpus()) {
    mc::ModelConfig cfg;
    cfg.protocol = sb.protocol;
    cfg.bug = sb.bug;
    cfg.ranks = 2;
    cfg.slots = 1;
    const ProtocolVerdict v = explore_protocol(cfg, "");
    std::printf("[%s] refute %s (%s)\n", v.violated ? "PASS" : "FAIL",
                sb.name, sb.description);
    if (stats) print_stats(v.total);
    if (v.violated) {
      std::printf("    counterexample: %s in model %s after %ld "
                  "interleavings\n",
                  v.result.violation->kind.c_str(), v.model.c_str(),
                  v.total.executions);
    } else {
      std::printf("    expected a violation but the variant verified "
                  "clean\n");
      ++failures;
    }
  }

  if (failures) {
    std::printf("mc selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("mc selftest: all shipped protocols verified, all %zu seeded "
              "bugs refuted\n",
              mc::seeded_bug_corpus().size());
  return 0;
}

int run_replay(const Args& args) {
  const std::vector<mc::Model> models = mc::build_models(args.cfg);
  const mc::Model* chosen = nullptr;
  for (const mc::Model& m : models) {
    if (args.scenario.empty() || m.name == args.scenario) {
      chosen = &m;
      break;
    }
  }
  if (!chosen) {
    std::fprintf(stderr, "bladed-mc: no model named '%s'\n",
                 args.scenario.c_str());
    return 2;
  }
  mc::Explorer ex;
  mc::Executor::Result res = ex.replay(*chosen, args.replay);
  std::printf("replaying %s (%zu scheduled steps):\n", chosen->name.c_str(),
              args.replay.size());
  for (const std::string& s : res.end_states) {
    std::printf("  %s\n", s.c_str());
  }
  if (res.violation) {
    std::printf("violation: %s: %s\n", res.violation->kind.c_str(),
                res.violation->message.c_str());
    return 1;
  }
  std::printf("replay ran to completion with no violation\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  int budget = 0;
  bladed::cli::Parser p("bladed-mc", kUsage);
  p.flag("--selftest", &args.selftest)
      .flag("--stats", &args.stats)
      .value("--protocol",
             [&](const char* v) {
               if (!mc::parse_protocol(v, &args.cfg.protocol)) {
                 usage();
                 return false;
               }
               args.have_protocol = true;
               return true;
             })
      .value("--bug",
             [&](const char* v) {
               if (!mc::parse_bug(v, &args.cfg.bug)) {
                 usage();
                 return false;
               }
               return true;
             })
      .int_value("--ranks", &args.cfg.ranks, 2, 4)
      .int_value("--slots", &args.cfg.slots, 1, 2)
      .int_value("--budget", &budget, 1, 1 << 30)
      .string_value("--scenario", &args.scenario)
      .value("--replay", [&](const char* v) {
        if (!parse_schedule(v, &args.replay)) {
          usage();
          return false;
        }
        args.have_replay = true;
        return true;
      });
  if (const int rc = p.parse(argc, argv); rc >= 0) return rc;
  if (budget > 0) args.budget = budget;

  if (args.selftest) return run_selftest(args.stats);
  if (!args.have_protocol) {
    usage();
    return 2;
  }
  if (args.have_replay) return run_replay(args);

  const ProtocolVerdict v =
      explore_protocol(args.cfg, args.scenario, args.budget);
  std::printf("protocol %s (ranks=%d slots=%d bug=%s): %s\n",
              mc::protocol_name(args.cfg.protocol), args.cfg.ranks,
              args.cfg.slots, mc::bug_name(args.cfg.bug),
              v.violated ? "VIOLATION"
                         : (v.all_complete ? "verified (0 violations)"
                                           : "no violation (budget-capped)"));
  if (args.stats) print_stats(v.total);
  if (v.violated) {
    print_violation(v, args.cfg);
    return 1;
  }
  return v.all_complete ? 0 : 3;
}
