// Lumped-parameter (RC) thermal network solver.
//
// Every enclosure and machine in the simulation is a small graph of thermal
// nodes: each node has a heat capacity, optional internal power dissipation,
// conductances to other nodes, and optionally a conductance to the ambient
// boundary (whose temperature is prescribed, e.g. by the weather model).
// Integration is explicit Euler with automatic sub-stepping bounded by the
// stiffest node's time constant, so callers can step at any cadence.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/sim_time.hpp"
#include "core/units.hpp"

namespace zerodeg::thermal {

using core::Celsius;
using core::Duration;
using core::JoulesPerKelvin;
using core::Watts;
using core::WattsPerKelvin;

/// Index of a node within a ThermalNetwork.
using NodeId = std::size_t;

class ThermalNetwork {
public:
    /// Add a node.  `to_ambient` may be zero for fully internal nodes.
    NodeId add_node(std::string name, JoulesPerKelvin capacity, Celsius initial,
                    WattsPerKelvin to_ambient = WattsPerKelvin{0.0});

    /// Connect two nodes with a fixed conductance.  Returns an edge index
    /// usable with set_edge_conductance (tent modifications change these).
    std::size_t connect(NodeId a, NodeId b, WattsPerKelvin conductance);

    void set_edge_conductance(std::size_t edge, WattsPerKelvin conductance);
    [[nodiscard]] WattsPerKelvin edge_conductance(std::size_t edge) const;

    /// Per-node knobs that change during a run.
    void set_power(NodeId n, Watts p);
    [[nodiscard]] Watts power(NodeId n) const;
    void set_ambient_conductance(NodeId n, WattsPerKelvin g);

    [[nodiscard]] Celsius temperature(NodeId n) const;
    [[nodiscard]] const std::string& name(NodeId n) const;

    /// Advance the whole network by `dt` with ambient at `ambient`.
    void step(Duration dt, Celsius ambient);

    /// Steady-state heat flow from node `n` to ambient at current temps.
    [[nodiscard]] Watts heat_flow_to_ambient(NodeId n, Celsius ambient) const;

    /// The equilibrium temperature the single node `n` would settle at with
    /// everything else frozen (used by tests to validate step()).
    [[nodiscard]] Celsius local_equilibrium(NodeId n, Celsius ambient) const;

private:
    struct Node {
        std::string name;
        double capacity = 1.0;    ///< J/K
        double temperature = 0.0; ///< degC
        double power = 0.0;       ///< W
        double to_ambient = 0.0;  ///< W/K
    };
    struct Edge {
        NodeId a = 0;
        NodeId b = 0;
        double conductance = 0.0;  ///< W/K
    };

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;

    /// Cached stiffest-node rate (max over nodes of max_rate), invalidated
    /// on topology or conductance changes.  step() used to recompute this
    /// O(nodes x edges) scan every call even though power/temperature —
    /// the only knobs that change every tick — cannot affect it.
    mutable double stiffest_rate_ = 0.0;
    mutable bool stiffest_rate_dirty_ = true;

    std::vector<double> flow_;  ///< single_step scratch, reused across sub-steps

    [[nodiscard]] double max_rate(NodeId n) const;  ///< sum of conductances / capacity
    [[nodiscard]] double stiffest_rate() const;
    void single_step(double dt_seconds, double ambient);
    void check_node(NodeId n) const;
};

}  // namespace zerodeg::thermal
