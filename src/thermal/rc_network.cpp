#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace zerodeg::thermal {

NodeId ThermalNetwork::add_node(std::string name, JoulesPerKelvin capacity, Celsius initial,
                                WattsPerKelvin to_ambient) {
    if (capacity.value() <= 0.0) {
        throw core::InvalidArgument("ThermalNetwork::add_node: capacity must be positive");
    }
    if (to_ambient.value() < 0.0) {
        throw core::InvalidArgument("ThermalNetwork::add_node: negative conductance");
    }
    nodes_.push_back(
        {std::move(name), capacity.value(), initial.value(), 0.0, to_ambient.value()});
    stiffest_rate_dirty_ = true;
    return nodes_.size() - 1;
}

std::size_t ThermalNetwork::connect(NodeId a, NodeId b, WattsPerKelvin conductance) {
    check_node(a);
    check_node(b);
    if (a == b) throw core::InvalidArgument("ThermalNetwork::connect: self-edge");
    if (conductance.value() < 0.0) {
        throw core::InvalidArgument("ThermalNetwork::connect: negative conductance");
    }
    edges_.push_back({a, b, conductance.value()});
    stiffest_rate_dirty_ = true;
    return edges_.size() - 1;
}

void ThermalNetwork::set_edge_conductance(std::size_t edge, WattsPerKelvin conductance) {
    if (edge >= edges_.size()) throw core::InvalidArgument("ThermalNetwork: bad edge index");
    if (conductance.value() < 0.0) {
        throw core::InvalidArgument("ThermalNetwork: negative conductance");
    }
    edges_[edge].conductance = conductance.value();
    stiffest_rate_dirty_ = true;
}

WattsPerKelvin ThermalNetwork::edge_conductance(std::size_t edge) const {
    if (edge >= edges_.size()) throw core::InvalidArgument("ThermalNetwork: bad edge index");
    return WattsPerKelvin{edges_[edge].conductance};
}

void ThermalNetwork::set_power(NodeId n, Watts p) {
    check_node(n);
    nodes_[n].power = p.value();
}

Watts ThermalNetwork::power(NodeId n) const {
    check_node(n);
    return Watts{nodes_[n].power};
}

void ThermalNetwork::set_ambient_conductance(NodeId n, WattsPerKelvin g) {
    check_node(n);
    if (g.value() < 0.0) throw core::InvalidArgument("ThermalNetwork: negative conductance");
    nodes_[n].to_ambient = g.value();
    stiffest_rate_dirty_ = true;
}

Celsius ThermalNetwork::temperature(NodeId n) const {
    check_node(n);
    return Celsius{nodes_[n].temperature};
}

const std::string& ThermalNetwork::name(NodeId n) const {
    check_node(n);
    return nodes_[n].name;
}

double ThermalNetwork::stiffest_rate() const {
    if (stiffest_rate_dirty_) {
        double rate = 0.0;
        for (NodeId n = 0; n < nodes_.size(); ++n) rate = std::max(rate, max_rate(n));
        stiffest_rate_ = rate;
        stiffest_rate_dirty_ = false;
    }
    return stiffest_rate_;
}

double ThermalNetwork::max_rate(NodeId n) const {
    double g = nodes_[n].to_ambient;
    for (const Edge& e : edges_) {
        if (e.a == n || e.b == n) g += e.conductance;
    }
    return g / nodes_[n].capacity;
}

void ThermalNetwork::step(Duration dt, Celsius ambient) {
    if (dt.count() < 0) throw core::InvalidArgument("ThermalNetwork::step: negative dt");
    if (nodes_.empty() || dt.count() == 0) return;

    // Explicit Euler is stable for dt < 2/rate; use a quarter of that.
    // The stiffest rate depends only on topology and conductances, so the
    // scan is cached and set_power stays invalidation-free.
    const double rate = stiffest_rate();
    double remaining = static_cast<double>(dt.count());
    const double max_sub = rate > 0.0 ? 0.5 / rate : remaining;
    while (remaining > 0.0) {
        const double sub = std::min(remaining, max_sub);
        single_step(sub, ambient.value());
        remaining -= sub;
    }
}

void ThermalNetwork::single_step(double dt_seconds, double ambient) {
    flow_.assign(nodes_.size(), 0.0);
    std::vector<double>& flow = flow_;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const Node& n = nodes_[i];
        flow[i] = n.power + n.to_ambient * (ambient - n.temperature);
    }
    for (const Edge& e : edges_) {
        const double q = e.conductance * (nodes_[e.b].temperature - nodes_[e.a].temperature);
        flow[e.a] += q;
        flow[e.b] -= q;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i].temperature += flow[i] / nodes_[i].capacity * dt_seconds;
    }
}

Watts ThermalNetwork::heat_flow_to_ambient(NodeId n, Celsius ambient) const {
    check_node(n);
    return Watts{nodes_[n].to_ambient * (nodes_[n].temperature - ambient.value())};
}

Celsius ThermalNetwork::local_equilibrium(NodeId n, Celsius ambient) const {
    check_node(n);
    double g_total = nodes_[n].to_ambient;
    double weighted = nodes_[n].to_ambient * ambient.value();
    for (const Edge& e : edges_) {
        if (e.a == n) {
            g_total += e.conductance;
            weighted += e.conductance * nodes_[e.b].temperature;
        } else if (e.b == n) {
            g_total += e.conductance;
            weighted += e.conductance * nodes_[e.a].temperature;
        }
    }
    if (g_total <= 0.0) {
        throw core::InvalidArgument("local_equilibrium: node has no conductance anywhere");
    }
    return Celsius{(weighted + nodes_[n].power) / g_total};
}

void ThermalNetwork::check_node(NodeId n) const {
    if (n >= nodes_.size()) throw core::InvalidArgument("ThermalNetwork: bad node id");
}

}  // namespace zerodeg::thermal
