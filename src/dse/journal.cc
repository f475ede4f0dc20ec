#include "journal.hh"

#include "core/fingerprint.hh"
#include "metrics/export.hh"
#include "sim/logging.hh"

namespace genie
{

namespace
{

std::string
u64Field(const char *name, std::uint64_t v)
{
    return format("\"%s\": %llu", name, (unsigned long long)v);
}

std::string
dblField(const char *name, double v)
{
    return format("\"%s\": %s", name, formatStatNumber(v).c_str());
}

} // namespace

std::string
resultsJson(const SocResults &r)
{
    std::string s = "{";
    s += u64Field("total_ticks", r.totalTicks) + ", ";
    s += u64Field("accel_cycles", r.accelCycles) + ", ";
    s += u64Field("flush_only", r.breakdown.flushOnly) + ", ";
    s += u64Field("dma_flush", r.breakdown.dmaFlush) + ", ";
    s += u64Field("compute_dma", r.breakdown.computeDma) + ", ";
    s += u64Field("compute_only", r.breakdown.computeOnly) + ", ";
    s += u64Field("other", r.breakdown.other) + ", ";
    s += dblField("energy_pj", r.energyPj) + ", ";
    s += dblField("dynamic_pj", r.dynamicPj) + ", ";
    s += dblField("leakage_pj", r.leakagePj) + ", ";
    s += dblField("avg_power_mw", r.avgPowerMw) + ", ";
    s += dblField("edp", r.edp) + ", ";
    s += dblField("cache_miss_rate", r.cacheMissRate) + ", ";
    s += dblField("tlb_hit_rate", r.tlbHitRate) + ", ";
    s += dblField("dram_row_hit_rate", r.dramRowHitRate) + ", ";
    s += dblField("bus_utilization", r.busUtilization) + ", ";
    s += u64Field("dma_bytes", r.dmaBytes) + ", ";
    s += u64Field("spad_conflicts", r.spadConflicts) + ", ";
    s += u64Field("ready_bit_stalls", r.readyBitStalls) + ", ";
    s += u64Field("cache_to_cache", r.cacheToCacheTransfers) + ", ";
    s += u64Field("stalled", r.stalled ? 1 : 0) + ", ";
    s += u64Field("local_sram_bytes", r.localSramBytes) + ", ";
    s += dblField("local_mem_bw", r.localMemBandwidthBytesPerCycle) +
         ", ";
    s += u64Field("lanes", r.lanes);
    s += "}";
    return s;
}

void
writeSweepResultsJson(std::ostream &os,
                      const std::vector<DesignPoint> &points,
                      const std::string &workload)
{
    os << "{\"schema\": \"genie-sweep-results-1\",\n";
    if (!workload.empty())
        os << "  \"workload\": \"" << workload << "\",\n";
    os << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DesignPoint &p = points[i];
        const std::string key = configCanonicalKey(p.config);
        os << "    {\"fp\": \""
           << fingerprintHex(configFingerprint(p.config))
           << "\", \"key\": \"" << key << "\",\n     \"results\": "
           << resultsJson(p.results) << "}"
           << (i + 1 < points.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

} // namespace genie
