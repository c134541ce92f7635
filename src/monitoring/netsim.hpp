// The shared network of Section 3.5/4.2.1.
//
// Hosts hang off 8-port switches; the monitoring host pulls data through
// them.  When a defective switch dies (both loaner switches did, after about
// a week each), every host behind it drops off the collection path until the
// switch is swapped — the faults show up as telemetry gaps, not host
// failures, exactly as the authors experienced.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/sim_time.hpp"
#include "core/transport.hpp"
#include "hardware/network_switch.hpp"

namespace zerodeg::monitoring {

/// A node attached to the network (a load host or the monitor).
struct NetNode {
    int id = 0;
    std::string name;
};

class Network {
public:
    /// Add a switch; returns its index.
    std::size_t add_switch(hardware::NetworkSwitch sw);

    /// Replace a failed switch with a new unit (what the operator did).
    void replace_switch(std::size_t index, hardware::NetworkSwitch sw);

    /// Attach a node to a port of a switch.
    void attach(NetNode node, std::size_t switch_index);

    /// Uplink one switch to another (tree topology is enough here).
    void uplink(std::size_t from_switch, std::size_t to_switch);

    /// Advance all switches.
    void step(core::Duration dt);

    /// Is there a working path between the two nodes?  (All switches on the
    /// unique tree path must be operational.)
    [[nodiscard]] bool path_up(int node_a, int node_b) const;

    [[nodiscard]] hardware::NetworkSwitch& switch_at(std::size_t index);
    [[nodiscard]] const hardware::NetworkSwitch& switch_at(std::size_t index) const;
    [[nodiscard]] std::size_t ports_used(std::size_t switch_index) const;

private:
    std::vector<std::unique_ptr<hardware::NetworkSwitch>> switches_;
    std::map<int, std::size_t> node_switch_;        ///< node id -> switch index
    std::map<std::size_t, std::size_t> uplinks_;    ///< child -> parent switch
    std::map<std::size_t, std::size_t> port_use_;

    /// Path from a switch to the root as a list of switch indices.
    [[nodiscard]] std::vector<std::size_t> path_to_root(std::size_t sw) const;
};

/// Bridges the simulated topology into the core::transport seam: every
/// operation on the wrapped Transport first consults
/// Network::path_up(local, peer), and a dead switch on the path surfaces as
/// core::TransportClosed — exactly how the distributed-sweep machinery sees a
/// hung-up peer.  The collector therefore observes a dead loaner switch as a
/// telemetry gap (degrade, buffer, retry next sweep), never as a host
/// failure, which is the paper's observed failure mode.
///
/// Frames the peer delivered *before* the switch died stay readable (they
/// already sit in the local receive buffer, like kernel socket buffers); only
/// new traffic is cut.  Swapping the switch (Network::replace_switch) brings
/// the same link back — the transport itself holds no failure state.
class NetworkGatedTransport final : public core::Transport {
public:
    /// @param net   must outlive the transport
    /// @param local this endpoint's node id on `net`
    /// @param peer  the remote endpoint's node id
    NetworkGatedTransport(const Network& net, int local, int peer,
                          std::unique_ptr<core::Transport> inner);

    void send(std::string_view frame) override;
    bool try_recv(std::string& frame) override;
    bool recv_wait(std::string& frame, int timeout_ms) override;
    void close() override;
    [[nodiscard]] bool closed() const override;

private:
    /// Throws core::TransportClosed when the tree path is down.
    void require_path() const;

    const Network* net_;
    int local_;
    int peer_;
    std::unique_ptr<core::Transport> inner_;
};

}  // namespace zerodeg::monitoring
