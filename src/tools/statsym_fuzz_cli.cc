// statsym_fuzz — randomized cross-engine differential fuzzing campaigns.
//
//   statsym_fuzz [campaign] [--programs N] [--seed S] [--jobs/-j N]
//                [--fault-prob P] [--sampling R] [--diff-inputs N]
//                [--no-shrink] [--no-pipeline] [--no-soundness]
//                [--min-pipeline-rate F] [--repro-dir DIR] [--print-programs]
//       Generate N programs from the campaign seed and run the three oracles
//       on each (DESIGN.md §8). Exit 0 iff the campaign passes: zero
//       divergences, zero soundness failures, pipeline rate >= the bar.
//   statsym_fuzz show --program-seed S [same tuning flags]
//       Generate the single program with that generator seed, print its IR
//       and ground truth, run the oracles verbosely. Used to replay
//       reproducers and to vet corpus candidates.
//   statsym_fuzz corpus --program-seed S [--name NAME] [--expect-candidates N]
//       Emit a tests/corpus/*.corpus entry for that seed on stdout.
#include <cstdio>
#include <string>

#include "fuzz/diff_driver.h"
#include "interp/interpreter.h"
#include "ir/printer.h"
#include "support/strings.h"

using namespace statsym;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: statsym_fuzz [campaign|show|corpus] [flags]\n"
      "  campaign flags:\n"
      "    --programs N         programs per campaign (default 100)\n"
      "    --seed S             campaign master seed (default 1)\n"
      "    --jobs/-j N          worker threads, 0 = all cores (default 1)\n"
      "    --fault-prob P       probability of planting a fault (default "
      "0.75)\n"
      "    --sampling R         pipeline sampling rate (default 0.3)\n"
      "    --diff-inputs N      concrete inputs per program (default 8)\n"
      "    --min-pipeline-rate F  pass bar for oracle (b) (default 0.9)\n"
      "    --engines LIST       comma list of guided,pure,concolic; more than\n"
      "                         one engine arms the cross-engine oracle (d)\n"
      "    --no-shrink          keep failing programs unminimised\n"
      "    --no-pipeline        skip oracle (b) (and (c), (d))\n"
      "    --no-soundness       skip oracle (c)\n"
      "    --no-cross-engine    skip oracle (d)\n"
      "    --no-static-facts    skip oracle (e) (static-analysis soundness)\n"
      "    --repro-dir DIR      write reproducers here (default "
      "fuzz-repros)\n"
      "    --print-programs     one verdict line per program\n"
      "  show/corpus flags:\n"
      "    --program-seed S     generator seed of the program\n"
      "    --name NAME          corpus entry name (default seed-S)\n"
      "    --expect-candidates N  min_candidates the corpus entry asserts\n");
  return 2;
}

struct CliFlags {
  fuzz::DiffOptions opts;
  std::uint64_t program_seed{0};
  bool have_program_seed{false};
  std::string corpus_name;
  std::size_t expect_candidates{0};
  bool print_programs{false};
};

bool parse_flags(int argc, char** argv, int start, CliFlags& f) {
  for (int i = start; i < argc; ++i) {
    const std::string a = argv[i];
    // Numeric values are parsed strictly; a malformed or out-of-range value
    // names its flag and fails the parse (exit 2) instead of running a
    // silently different campaign.
    auto bad_value = [&](const char* want) {
      std::fprintf(stderr, "%s: bad value '%s' (want %s)\n", a.c_str(),
                   argv[i], want);
      return false;
    };
    // Seeds are full 64-bit values (reproducers print them verbatim).
    auto next_u64 = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      return parse_u64(argv[++i], out) ||
             bad_value("an unsigned 64-bit integer");
    };
    auto next_count = [&](std::size_t& out, std::size_t min = 0) {
      std::size_t n = 0;
      if (i + 1 >= argc) return false;
      if (!parse_count(argv[++i], n) || n < min) {
        return bad_value(min == 0 ? "a non-negative integer"
                                  : "an integer >= 1");
      }
      out = n;
      return true;
    };
    // A value in [0,1], or in (0,1] when zero is meaningless (`zero_ok`).
    auto next_unit = [&](double& out, bool zero_ok) {
      double d = 0.0;
      if (i + 1 >= argc) return false;
      if (!parse_double(argv[++i], d) || !(zero_ok ? d >= 0.0 : d > 0.0) ||
          !(d <= 1.0)) {
        return bad_value(zero_ok ? "a value in [0,1]" : "a rate in (0,1]");
      }
      out = d;
      return true;
    };
    bool ok = true;
    if (a == "--programs") {
      ok = next_count(f.opts.num_programs, 1);
    } else if (a == "--seed") {
      ok = next_u64(f.opts.seed);
    } else if (a == "--jobs" || a == "-j") {
      ok = next_count(f.opts.jobs);
    } else if (a == "--fault-prob") {
      ok = next_unit(f.opts.gen.fault_probability, true);
    } else if (a == "--sampling") {
      ok = next_unit(f.opts.sampling_rate, false);
    } else if (a == "--diff-inputs") {
      ok = next_count(f.opts.diff_inputs);
    } else if (a == "--min-pipeline-rate") {
      ok = next_unit(f.opts.min_pipeline_rate, true);
    } else if (a == "--no-shrink") {
      f.opts.shrink = false;
    } else if (a == "--no-pipeline") {
      f.opts.check_pipeline = false;
    } else if (a == "--no-soundness") {
      f.opts.check_soundness = false;
    } else if (a == "--no-cross-engine") {
      f.opts.check_cross_engine = false;
    } else if (a == "--no-static-facts") {
      f.opts.check_static_facts = false;
    } else if ((a == "--engines" && i + 1 < argc) ||
               a.rfind("--engines=", 0) == 0) {
      const std::string list =
          a[9] == '=' ? a.substr(10) : std::string(argv[++i]);
      const auto parsed = core::parse_engines(list);
      if (!parsed) {
        std::fprintf(stderr,
                     "--engines wants a comma list of guided,pure,concolic "
                     "(got '%s')\n",
                     list.c_str());
        return false;
      }
      f.opts.engines = *parsed;
    } else if (a == "--repro-dir" && i + 1 < argc) {
      f.opts.repro_dir = argv[++i];
    } else if (a == "--print-programs") {
      f.print_programs = true;
    } else if (a == "--program-seed") {
      ok = next_u64(f.program_seed);
      f.have_program_seed = true;
    } else if (a == "--name" && i + 1 < argc) {
      f.corpus_name = argv[++i];
    } else if (a == "--expect-candidates") {
      ok = next_count(f.expect_candidates);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
    if (!ok) return false;
  }
  return true;
}

int cmd_campaign(const CliFlags& f) {
  const fuzz::CampaignResult cr = fuzz::run_campaign(f.opts);
  for (const auto& v : cr.programs) {
    if (f.print_programs || !v.ok()) {
      std::printf("%s\n", fuzz::format_verdict(v).c_str());
    }
  }
  std::printf(
      "campaign seed=%llu: %zu programs (%zu planted), "
      "%zu divergences, %zu pipeline misses, %zu soundness failures, "
      "%zu static-facts failures, pipeline rate %.0f%% (bar %.0f%%)\n",
      static_cast<unsigned long long>(f.opts.seed), cr.programs.size(),
      cr.planted, cr.divergences, cr.pipeline_misses, cr.soundness_failures,
      cr.static_facts_failures, cr.pipeline_rate() * 100.0,
      f.opts.min_pipeline_rate * 100.0);
  const bool multi_engine =
      f.opts.engines.size() > 1 ||
      (f.opts.engines.size() == 1 &&
       f.opts.engines[0] != core::EngineKind::kGuided);
  if (multi_engine && f.opts.check_pipeline && f.opts.check_cross_engine) {
    std::printf("cross-engine: %zu disagreements, concolic rate %.0f%%\n",
                cr.cross_engine_failures, cr.concolic_rate() * 100.0);
  }
  const bool ok = cr.passed(f.opts);
  std::printf("verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int cmd_show(const CliFlags& f) {
  if (!f.have_program_seed) {
    std::fprintf(stderr, "show requires --program-seed\n");
    return 2;
  }
  const fuzz::GeneratedProgram prog =
      fuzz::generate_program(f.program_seed, f.opts.gen);
  std::printf("%s", ir::to_string(prog.app.module).c_str());
  if (prog.fault_planted) {
    std::printf("\nplanted: %s in %s() at len >= %lld (capacity %lld)\n",
                interp::fault_kind_name(prog.app.vuln_kind),
                prog.app.vuln_function.c_str(),
                static_cast<long long>(prog.threshold),
                static_cast<long long>(prog.capacity));
  } else {
    std::printf("\nplanted: nothing (fault-free program)\n");
  }
  const fuzz::ProgramVerdict v =
      fuzz::run_program_seed(0, f.program_seed, f.opts);
  std::printf("%s\n", fuzz::format_verdict(v).c_str());
  return v.ok() ? 0 : 1;
}

int cmd_corpus(const CliFlags& f) {
  if (!f.have_program_seed) {
    std::fprintf(stderr, "corpus requires --program-seed\n");
    return 2;
  }
  const fuzz::GeneratedProgram prog =
      fuzz::generate_program(f.program_seed, f.opts.gen);
  fuzz::CorpusEntry e;
  e.name = f.corpus_name.empty()
               ? "seed-" + std::to_string(f.program_seed)
               : f.corpus_name;
  e.seed = f.program_seed;
  e.gen = f.opts.gen;
  e.expect_fault = prog.fault_planted;
  if (!prog.fault_planted) {
    e.expect_kind = "none";
  } else if (prog.app.vuln_kind == interp::FaultKind::kAssertFail) {
    e.expect_kind = "assert";
  } else {
    e.expect_kind = "oob";
  }
  e.min_candidates = f.expect_candidates;
  std::printf("%s", fuzz::format_corpus(e).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::register_fuzz_apps();
  std::string cmd = "campaign";
  int start = 1;
  if (argc >= 2 && argv[1][0] != '-') {
    cmd = argv[1];
    start = 2;
  }
  CliFlags f;
  f.opts.repro_dir = "fuzz-repros";
  if (!parse_flags(argc, argv, start, f)) return usage();
  if (cmd == "campaign") return cmd_campaign(f);
  if (cmd == "show") return cmd_show(f);
  if (cmd == "corpus") return cmd_corpus(f);
  return usage();
}
