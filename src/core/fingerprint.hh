/**
 * @file
 * Canonical design-point identity for caching and checkpointing.
 *
 * Two SocConfigs that simulate identically must produce the same
 * canonical key, and two that differ in any result-affecting knob
 * must produce different keys. The key deliberately EXCLUDES the
 * observability blocks (tracing, metrics): a traced or sampled run is
 * byte-identical to a plain run by contract, so it would be wrong for
 * a stats-export path to defeat the sweep result cache.
 *
 * configFingerprint() hashes the canonical key (FNV-1a, 64 bit); it
 * names ResultStore record files and labels export entries. The
 * ResultCache and ResultStore both compare the full canonical string,
 * so a hash collision can never cause a false hit — the fingerprint
 * is an index, the key is the identity. test_properties.cc nevertheless proves the fingerprint
 * injective over every enumerated Figure 3 space.
 */

#ifndef GENIE_CORE_FINGERPRINT_HH
#define GENIE_CORE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "core/soc_config.hh"

namespace genie
{

/** The canonical result-affecting parameter string of @p config:
 * every hardware knob, clock, characterized cost, study switch, and
 * the fault campaign; never tracing or metrics paths. */
std::string configCanonicalKey(const SocConfig &config);

/** FNV-1a 64-bit hash of @p key. */
std::uint64_t keyFingerprint(const std::string &key);

/** keyFingerprint() of configCanonicalKey(). */
std::uint64_t configFingerprint(const SocConfig &config);

/** Fixed-width lower-case hex rendering of a fingerprint. */
std::string fingerprintHex(std::uint64_t fingerprint);

} // namespace genie

#endif // GENIE_CORE_FINGERPRINT_HH
