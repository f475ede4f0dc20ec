/**
 * @file
 * The frozen SocResults serializer and the deterministic sweep
 * results export.
 *
 * resultsJson() renders every SocResults field in a frozen order, with
 * numbers in formatStatNumber's shortest-round-trip form, so a parse
 * of its text restores bit-identical doubles. It is the payload of a
 * ResultStore record, the body of each exported point, and the input
 * of the benchmark's correctness hashes.
 *
 * Results export (schema `genie-sweep-results-1`): the whole sweep in
 * config order as one JSON document. Output is deterministic, so
 * exports byte-compare across runs, thread counts, cold/warm caches
 * and interrupted-then-resumed runs (the golden-figure suite's
 * contract).
 */

#ifndef GENIE_DSE_JOURNAL_HH
#define GENIE_DSE_JOURNAL_HH

#include <ostream>
#include <string>
#include <vector>

#include "dse/sweep.hh"

namespace genie
{

/** Serialize @p results as the frozen `"results": {...}` object body
 * used by ResultStore records and the results export. */
std::string resultsJson(const SocResults &r);

/**
 * Write a full sweep as `genie-sweep-results-1` JSON, points in
 * @p points order. @p workload is an optional label ("" omits it).
 */
void writeSweepResultsJson(std::ostream &os,
                           const std::vector<DesignPoint> &points,
                           const std::string &workload = "");

} // namespace genie

#endif // GENIE_DSE_JOURNAL_HH
