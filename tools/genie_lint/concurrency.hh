/**
 * @file
 * The Genie-Analyze concurrency rule family, running on the cross-TU
 * declaration index (index.hh). Four rules:
 *
 *  - shared-state: every mutable namespace-scope or function-local
 *    static in src/, and every mutable data member of a type declared
 *    in the shared-reachability set (src/dse, src/trace, src/metrics,
 *    src/sim/stats.hh — the types both SweepEngine workers and the
 *    main thread can touch), must carry a thread-safety annotation
 *    from src/sim/thread_safety.hh, either on the field or on the
 *    (possibly enclosing) class. Const and sync-primitive members
 *    (mutex/condition_variable/once_flag) are exempt: the former are
 *    immutable, the latter are the synchronization itself.
 *
 *  - guarded-by: every access to a GENIE_GUARDED_BY(m) field inside
 *    the owning class's methods — and any function defined in the
 *    class's declaring file — must provably hold m: a lexically
 *    earlier lock_guard/scoped_lock/unique_lock of m (or m.lock())
 *    in the same function body, a GENIE_REQUIRES(m) annotation on the
 *    function, or the function being the class's constructor or
 *    destructor (single-owner phases). Lexical scope is a heuristic
 *    (early unlock is not modeled); the TSan CI job is the dynamic
 *    backstop.
 *
 *  - event-affinity: EventQueue mutation must happen in the owning
 *    queue's context. deschedule() is allowed only in a TU outside
 *    src/sim that also has an EventQueue::schedule() member call (you
 *    may only cancel what you scheduled); the kind tag every schedule
 *    site names its owning component with is a mandatory parameter,
 *    so the compiler enforces it. Rendezvous-slot setters
 *    (setTracer/setStatRegistry/setFaultInjector) are allowed in
 *    src/core (the Soc layer owns its queues) or in a function that
 *    locally constructed the Soc — i.e. a single-owner setup phase.
 *    setProfiler is a finding anywhere under src/ (src/sim too): the
 *    per-event profiler belongs to explicit tools, and library code
 *    times run() with two profilerNowNs() reads instead.
 *
 *  - ambient-nondeterminism: no reading ambient process state that
 *    varies across hosts or runs: getenv/secure_getenv, setlocale/
 *    std::locale/imbue, and pointer-keyed ordered containers
 *    (std::map/set keyed on a pointer type iterate in allocation
 *    order, which ASLR randomizes run to run). Complements the
 *    line-level determinism rule (wall clocks, libc randomness) in
 *    lint.cc.
 *
 * Findings are raw (unsuppressed); callers filter with
 * Suppressions::matches exactly like lintSource findings.
 */

#ifndef GENIE_TOOLS_GENIE_LINT_CONCURRENCY_HH
#define GENIE_TOOLS_GENIE_LINT_CONCURRENCY_HH

#include <string>
#include <vector>

#include "index.hh"
#include "lint.hh"

namespace genie
{
namespace lint
{

/** True if @p relPath is in the shared-reachability set whose types
 * both SweepEngine workers and the main thread can touch. */
bool inSharedSet(const std::string &relPath);

/** Run the whole concurrency rule family over @p index. */
std::vector<Finding> analyzeConcurrency(const DeclIndex &index);

/**
 * The shared-state inventory: a deterministic JSON document listing
 * every annotated static and every class (with per-field annotations)
 * in the shared-reachability set — the machine-readable map of
 * Genie's mutable shared state that ROADMAP items 1-2 build against.
 */
std::string sharedStateInventoryJson(const DeclIndex &index);

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string &s);

} // namespace lint
} // namespace genie

#endif // GENIE_TOOLS_GENIE_LINT_CONCURRENCY_HH
