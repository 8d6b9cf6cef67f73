// R14 fixture: a FederatedServer built behind the JobRunner's back.
void rogue() {
  FederatedServer server(config, registry, model, std::move(aggregator));
  server.async_dispatcher();
}
