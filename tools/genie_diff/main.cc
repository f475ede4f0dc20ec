/**
 * @file
 * genie_diff: structural comparison of two Genie JSON documents
 * (genie-stats-1 exports, sweep results) under per-metric tolerance
 * rules — the check for "did the numbers move?".
 *
 *   genie_diff baseline.json candidate.json
 *   genie_diff old.stats.json new.stats.json \
 *              --tol='*.total_us=0.5%' --report=diff.md
 *   genie_diff a.json b.json --tol='*cache_miss_rate*=ignore' \
 *              --strict
 *
 * Rules are first-match-wins, CLI rules first; the built-in tail
 * ignores host-derived numbers (wall_ms, wall_ns, meps,
 * points_per_sec) since those never compare across machines.
 * --no-default-rules drops that tail. Keys only in the candidate are
 * warnings (a new metric must not break stored baselines) unless
 * --strict; keys only in the baseline always fail.
 *
 * exit: 0 comparison clean, 1 differences found, 2 usage or
 *       unreadable/invalid input.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "scope/diff.hh"
#include "scope/json.hh"

namespace
{

using namespace genie;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: genie_diff <baseline.json> <candidate.json>\n"
        "         [--tol=GLOB=PCT | --tol=GLOB=ignore ...]\n"
        "         [--no-default-rules] [--strict] "
        "[--report=FILE]\n"
        "exit:  0 clean, 1 differences, 2 usage/error\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    DiffOptions options;
    bool defaultRules = true;
    std::string reportPath;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--tol=", 6) == 0) {
            DiffRule rule;
            std::string error;
            if (!parseDiffRule(arg + 6, rule, error)) {
                std::fprintf(stderr, "error: %s\n", error.c_str());
                return 2;
            }
            options.rules.push_back(std::move(rule));
        } else if (std::strcmp(arg, "--no-default-rules") == 0) {
            defaultRules = false;
        } else if (std::strcmp(arg, "--strict") == 0) {
            options.strict = true;
        } else if (std::strncmp(arg, "--report=", 9) == 0) {
            reportPath = arg + 9;
        } else if (arg[0] == '-' && arg[1] == '-') {
            return usage();
        } else {
            files.emplace_back(arg);
        }
    }
    if (files.size() != 2)
        return usage();
    if (defaultRules) {
        for (auto &r : defaultGenieDiffRules())
            options.rules.push_back(std::move(r));
    }

    JsonParseResult docs[2];
    for (int i = 0; i < 2; ++i) {
        docs[i] = parseJsonFile(files[i]);
        if (!docs[i].ok) {
            std::fprintf(stderr, "error: %s: %s (line %zu, col "
                         "%zu)\n",
                         files[i].c_str(), docs[i].error.c_str(),
                         docs[i].errorLine, docs[i].errorColumn);
            return 2;
        }
    }

    DiffResult result =
        diffJson(docs[0].value, docs[1].value, options);

    std::printf("genie_diff: %s vs %s: %s (%zu leaves compared, "
                "%zu ignored; %zu failed, %zu warned, %zu within "
                "tolerance)\n",
                files[0].c_str(), files[1].c_str(),
                result.clean() ? "PASS" : "FAIL",
                result.comparedLeaves, result.ignoredLeaves,
                result.failures.size(), result.warnings.size(),
                result.tolerated.size());
    for (const auto &e : result.failures) {
        std::printf("  FAIL %s: %s -> %s", e.path.c_str(),
                    e.before.c_str(), e.after.c_str());
        if (e.relDeltaPct > 0.0)
            std::printf(" (%.4f%% > %.4f%%)", e.relDeltaPct,
                        e.tolerancePct);
        std::printf("\n");
    }
    for (const auto &e : result.warnings)
        std::printf("  warn %s: added (%s)\n", e.path.c_str(),
                    e.after.c_str());

    if (!reportPath.empty()) {
        std::string text =
            renderDiffReport(result, files[0], files[1]);
        std::ofstream out(reportPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         reportPath.c_str());
            return 2;
        }
        out << text;
    }
    return result.clean() ? 0 : 1;
}
