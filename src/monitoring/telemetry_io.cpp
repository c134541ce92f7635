#include "monitoring/telemetry_io.hpp"

#include <set>
#include <sstream>

namespace zerodeg::monitoring {

std::string render_collection_csv(const Collector& collector) {
    std::ostringstream out;
    // Host ids come from the attempt log (the collector does not expose its
    // host table): every host that was ever swept appears there.
    std::set<int> host_ids;
    for (const CollectionAttempt& a : collector.log()) host_ids.insert(a.host_id);

    out << "host_id,attempts,successes,failures,retries,retry_successes,bytes,"
           "dropped_bytes,longest_gap_s,last_success\n";
    for (const int id : host_ids) {
        const HostCollectionStats& s = collector.stats(id);
        out << id << ',' << s.attempts << ',' << s.successes << ',' << s.failures << ','
            << s.retries << ',' << s.retry_successes << ',' << s.bytes << ','
            << s.dropped_bytes << ',' << s.longest_gap.count() << ','
            << (s.ever_succeeded ? s.last_success.to_string() : std::string("never")) << '\n';
    }

    out << "time,host_id,ok,retry,bytes\n";
    for (const CollectionAttempt& a : collector.log()) {
        out << a.time.to_string() << ',' << a.host_id << ',' << (a.ok ? 1 : 0) << ','
            << (a.retry ? 1 : 0) << ',' << a.bytes << '\n';
    }
    return out.str();
}

}  // namespace zerodeg::monitoring
