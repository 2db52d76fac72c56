#include "serve/server.hh"

namespace nlfm::serve
{

namespace
{

/// The one-entry registry a Server's fleet serves: the resident model
/// under the name "default" (the telemetry series label).
ModelRegistry
singleModelRegistry(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
                    const ServerOptions &options)
{
    ModelSpec spec;
    spec.name = "default";
    spec.network = &network;
    spec.bnn = bnn;
    spec.memo = options.memo;
    spec.memoized = options.memoized;
    spec.weight = 1.0;
    spec.calibratedStepCostMs = options.calibratedStepCostMs;
    spec.autopilot = options.autopilot;
    ModelRegistry registry;
    registry.add(std::move(spec));
    return registry;
}

FleetOptions
singleModelFleetOptions(const ServerOptions &options)
{
    FleetOptions fleet;
    fleet.slots = options.slots;
    fleet.queueCapacity = options.queueCapacity;
    fleet.workers = options.workers;
    fleet.chunkSize = options.chunkSize;
    fleet.shedExpired = options.shedExpired;
    fleet.queuePolicy = options.queuePolicy;
    fleet.shedPredicted = options.shedPredicted;
    fleet.costAwareAdmission = false;
    fleet.sessionCapacity = options.sessionCapacity;
    fleet.telemetry = options.telemetry;
    return fleet;
}

} // namespace

Server::Server(nn::RnnNetwork &network, nn::BinarizedNetwork *bnn,
               const ServerOptions &options)
    : options_(options),
      fleet_(singleModelRegistry(network, bnn, options),
             singleModelFleetOptions(options))
{
}

} // namespace nlfm::serve
